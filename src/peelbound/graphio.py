"""JSON serialization for plane graphs (format tag ``plane-graph/1``).

The document stores the rotation system as per-vertex lists of *edge ids*
(a loop id appears twice).  Walk numbering inside ``faces`` refers to the
deterministic trace order: dart walks by ascending smallest dart id, then
isolated vertices ascending -- the walk ids of :class:`embed.PlaneGraph`.
``faces`` appears whenever it carries information: always for disconnected
graphs, and for a connected graph only when a document gave it a face
numbering other than walk order (every connected graph the package builds
numbers face f as walk f).  It lists each face's walks in ascending order,
whatever order the document that built the graph used.

:func:`dumps_plane_graph` writes one fixed layout: keys sorted, no spaces.
It writes the ``edges`` and ``rotation`` values as digits straight from
int32 arrays, the inverse of the reader below, and only the small rest
through ``json.dumps``.  :func:`loads_plane_graph` reads the ``edges`` and
``rotation`` values of text in that layout straight into flat int32 arrays,
with bulk byte scans in numpy instead of a per-token parser (the idea of
Langdale & Lemire, "Parsing Gigabytes of JSON per Second", VLDB Journal 28,
2019); ``json.loads`` reads the small rest.  The scans read bytes in place,
one value at a time, in blocks that end at row boundaries, and
:func:`load_plane_graph` hands a file's bytes to them undecoded.  Any other
text goes through ``json.loads`` whole.
"""

from __future__ import annotations

import gc
import io
import json
from operator import index
from typing import IO, Callable, Optional, Union

import numpy as np

from .embed import (
    FlatRows,
    GraphFormatError,
    PlaneGraph,
    _face_rows,
    _rotation_order,
    build_plane_graph,
)

__all__ = [
    "dump_plane_graph",
    "dumps_plane_graph",
    "load_plane_graph",
    "loads_plane_graph",
    "to_document",
]

FORMAT_TAG = "plane-graph/1"


def to_document(g: PlaneGraph) -> dict:
    """Plain-dict form of a graph, ready for json.dumps."""
    ends, rotation, degree = _row_arrays(g)
    return _document(g, (ends.reshape(-1, 2).tolist(), list(FlatRows(rotation, degree))))


def _document(g: PlaneGraph, rows: Optional[tuple[list, list]]) -> dict:
    """The document, with its ``edges`` and ``rotation`` rows if given."""
    doc: dict = {"format": FORMAT_TAG, "n": g.n}
    if rows is not None:
        doc["edges"], doc["rotation"] = rows
    doc["flags"] = {
        "simple": g.simple,
        "connected": g.connected,
        "triangulated": g.triangulated,
    }
    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    if not np.array_equal(face_of_walk, np.arange(len(face_of_walk))):
        doc["faces"] = _face_rows(g)
    if g.meta:
        doc["meta"] = g.meta
    return doc


def _row_arrays(g: PlaneGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ends, rotation, degree) as int32: the ``edges`` rows flat, which is
    g's ``ends`` as it is (the origin of every dart), and each vertex's edge
    ids in slot order, flat, with the length of its row."""
    ends = np.frombuffer(g.ends, dtype=np.int32)
    indptr, darts = _rotation_order(g.rot_next, g.rot_first, ends)
    darts >>= 1
    return ends, darts, np.diff(indptr)


def from_document(doc: dict) -> PlaneGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("document is not a JSON object")
    tag = doc.get("format")
    if tag != FORMAT_TAG:
        raise GraphFormatError(f"unsupported format tag: {tag!r}")
    for key in ("n", "edges", "rotation"):
        if key not in doc:
            raise GraphFormatError(f"missing required key {key!r}")
    for key in ("edges", "rotation", "faces"):
        # the builder iterates rows, and would read an object's keys as ids
        rows = doc.get(key)
        if isinstance(rows, dict) or (isinstance(rows, list) and dict in map(type, rows)):
            raise GraphFormatError(f"malformed document: JSON object in {key!r}")
    for key in ("flags", "meta"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise GraphFormatError(f"malformed document: {key!r} is not a JSON object")
    try:
        return build_plane_graph(
            index(doc["n"]),
            doc["edges"],
            doc["rotation"],
            faces=doc.get("faces"),
            flags=doc.get("flags"),
            meta=doc.get("meta"),
        )
    except GraphFormatError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        # a value of the wrong JSON type (null or 2.5 as a count, "1" as an id,
        # scalar row) fails inside the builder; report it as such
        raise GraphFormatError(f"malformed document: {exc}") from exc


def dumps_plane_graph(g: PlaneGraph) -> str:
    """Canonical (sorted-key, compact) JSON text of :func:`to_document`.

    The ``edges`` and ``rotation`` values are written from int32 arrays
    (:func:`_rows_text`); ``json.dumps`` writes the rest, whose keys all
    sort between those two, and its text is spliced in between.
    """
    ends, rotation, degree = _row_arrays(g)
    rest = json.dumps(_document(g, None), sort_keys=True, separators=(",", ":"))
    text = b"".join(
        (
            _HEAD,
            _rows_text(ends, np.full(g.m, 2, dtype=np.int32)),
            b",",
            rest[1:-1].encode(),
            _ROTATION,
            _rows_text(rotation, degree),
            b"}",
        )
    )
    return text.decode("ascii")


# Ids per block of _rows_text's byte table, small enough to stay in cache.
_TEXT_BLOCK = 1 << 16


def _rows_text(ids: np.ndarray, lens: np.ndarray) -> bytes:
    """Compact JSON of rows of non-negative int32 ids: ``[[0,1],[],[2]]``.

    The inverse of :func:`_rows`.  Each id writes a '[' if it opens its row,
    its digits, a ']' if it closes its row and a ',' if not, and a ',' after
    a row but the last; an empty row stands as one id without digits.  They
    go into a byte table, one row per id, with a NUL in every byte an id
    does not write, and the text is the table with its NULs deleted.
    """
    if not len(lens):
        return b"[]"
    real = None
    if not lens.all():
        real = np.repeat(lens > 0, np.maximum(lens, 1))
        lens = np.maximum(lens, 1)
        spread = np.zeros(len(real), dtype=np.int32)
        spread[real] = ids
        ids = spread
    digits = np.ones(len(ids), dtype=np.int8)
    for power in _POWERS:
        wide = ids >= power
        if not wide.any():
            break
        digits += wide
    if real is not None:
        digits[~real] = 0
    closes = np.zeros(len(ids), dtype=bool)
    closes[np.cumsum(lens) - 1] = True
    opens = np.roll(closes, 1)
    after = closes.copy()
    after[-1] = False
    width = int(digits.max())
    blocks = (
        _text_block(*(x[at : at + _TEXT_BLOCK] for x in (ids, digits, opens, closes, after)), width)
        for at in range(0, len(ids), _TEXT_BLOCK)
    )
    return b"".join((b"[", *blocks, b"]"))


def _text_block(ids, digits, opens, closes, after, width: int) -> bytes:
    """The bytes a run of ids writes, from a table of ``width + 3`` columns:
    '[', the digits right-aligned, ']' or ',', and ','."""
    table = np.empty((len(ids), width + 3), dtype=np.uint8)
    table[:, 0] = opens * np.uint8(ord("["))
    rest = ids
    for k in range(width, 0, -1):
        quot = rest // 10
        table[:, k] = (rest - quot * 10 + ord("0")) * (digits > width - k)
        rest = quot
    table[:, -2] = np.where(closes, ord("]"), ord(","))
    table[:, -1] = after * np.uint8(ord(","))
    return table.tobytes().translate(None, b"\0")


def loads_plane_graph(text: Union[str, bytes]) -> PlaneGraph:
    """Graph from ``plane-graph/1`` text, given as ``str`` or ``bytes``, or
    GraphFormatError.

    Canonical text (what :func:`dump_plane_graph` writes; any trailing
    whitespace may follow) is parsed without row lists: its ``edges`` and
    ``rotation`` reach :func:`from_document` as :class:`embed.FlatRows`.  A
    ``str`` is encoded to ASCII once for that scan; bytes are scanned as
    they are.  Any other valid layout loads the same graph through
    ``json.loads``, which reads ``bytes`` in the encoding it detects.  Both
    routes share every check from :func:`from_document` on, so a bad
    document fails with the same exception and text on either.
    """
    return _load(text, json.loads)


def _load(data: Union[str, bytes], parse: Callable[[Union[str, bytes]], object]) -> PlaneGraph:
    """The graph of ``data``; ``parse`` reads any text that is not canonical.

    Its caller hands ``data`` over: the last reference to it goes before
    the graph is built, so a file's bytes do not sit under the build's peak.
    """
    # json.loads builds one list per row.  They form no cycles, but while
    # they live every collection would walk them all, so the cyclic
    # collector stays off until the graph is built and the document freed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = _canonical_document(data)
        if doc is None:
            doc = parse(data)
        del data
        return from_document(doc)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


# Canonical text opens with the edges value and, keys being sorted, closes
# with the rotation value; nothing but digits, brackets and commas is in
# either.
_HEAD = b'{"edges":'
_ROTATION = b',"rotation":'
_COMMA, _OPEN, _CLOSE, _OTHER = range(4)
_CODE = np.full(256, _OTHER, np.uint8)
_CODE[[ord(","), ord("["), ord("]")]] = _COMMA, _OPEN, _CLOSE
_SPACES = bytes.maketrans(b"[],", b"   ")
_POWERS = [10**k for k in range(1, 10)]

# Bytes per block of the row scan.  Every block ends at a row boundary, and
# the scan's temporaries (int64 positions, 8 bytes per punctuation byte, and
# byte masks) are sized by the block, not by the file.
_SCAN_BLOCK = 1 << 18


def _window_table() -> np.ndarray:
    """Which neighbourhoods a punctuation byte of a list of int lists may have.

    A key packs the codes of a byte and of its two neighbouring punctuation
    bytes, and whether a number sits between it and each of them.  The
    outer brackets are left out: a row opens after the outer '[' or a ','
    between rows, closes before the outer ']' or such a ',', and a ','
    stands between two numbers or between ']' and '['.
    """

    def key(prev, before, code, after, succ):
        return (prev * 2 + before) * 32 + (code * 2 + after) * 4 + succ

    ok = np.zeros(256, bool)
    for p in (_OPEN, _COMMA):
        for s in (_COMMA, _CLOSE):
            ok[key(p, 0, _OPEN, 1, s)] = ok[key(p, 1, _COMMA, 1, s)] = True
            ok[key(p, 1, _CLOSE, 0, s)] = ok[key(_OPEN, 0, _CLOSE, 0, s)] = True
        ok[key(p, 0, _OPEN, 0, _CLOSE)] = True  # an empty row
    ok[key(_CLOSE, 0, _COMMA, 0, _OPEN)] = True
    return ok


_WINDOW_OK = _window_table()


def _canonical_document(data: Union[str, bytes]) -> Optional[dict]:
    """The document of canonical text with FlatRows for its rows, else None.

    None means only that the text is not confirmed canonical: json.loads
    reads it then.  Confirmed means the text is ASCII with no whitespace
    before its end, every object in it has sorted and distinct keys, the
    top-level keys between the two values sort between "edges" and
    "rotation", and both values are lists of int lists whose ids have no
    leading zero and fewer than ten digits.  A ``str`` is encoded once; the
    two values are scanned in place, each on its own (:func:`_value_rows`).
    """
    if isinstance(data, str) and data.isascii():
        data = data.encode("ascii")
    if not isinstance(data, bytes) or not data.startswith(_HEAD):
        return None
    end = len(data)
    while end and data[end - 1] in b" \t\n\r":
        end -= 1
    cut = data.find(b'"', len(_HEAD)) - 1  # the comma after the edges value
    at = data.rfind(_ROTATION)
    if not (len(_HEAD) < cut <= at and data[cut : cut + 1] == b"," and data[end - 1 : end] == b"}"):
        return None
    rest = data[cut + 1 : at]
    if not rest.isascii() or any(c in rest for c in b" \t\n\r"):
        return None  # also a space inside a string: json.loads reads such text
    try:
        doc = json.loads("{" + rest.decode("ascii") + "}", object_pairs_hook=_sorted_object)
    except ValueError:
        return None
    if doc and not ("edges" < min(doc) and max(doc) < "rotation"):
        return None
    view = memoryview(data)
    edges = _value_rows(data, view, len(_HEAD), cut)
    if edges is None:
        return None
    rotation = _value_rows(data, view, at + len(_ROTATION), end - 1)
    if rotation is None:
        return None
    doc["edges"], doc["rotation"] = edges, rotation
    return doc


def _sorted_object(pairs: list) -> dict:
    """json.loads hook: refuse an object whose keys are unsorted or repeated."""
    keys = [key for key, _ in pairs]
    if keys != sorted(set(keys)):
        raise ValueError("keys out of order")
    return dict(pairs)


def _value_rows(data: bytes, view: memoryview, lo: int, hi: int) -> Optional[FlatRows]:
    """The rows of ``data[lo:hi]``, or None unless it is a list of int lists
    in canonical form.

    The rows are scanned in blocks of about ``_SCAN_BLOCK`` bytes, cut at a
    ``],[``, whose ',' ends one block and is the byte before the next.  A
    cut there never splits a sound list, and blocks of rows joined by ','
    are a sound list of rows exactly when every block is one, so the value
    is sound exactly when every block is (:func:`_block_rows`).
    """
    if hi - lo < 2 or data[lo : lo + 1] != b"[" or data[hi - 1 : hi] != b"]":
        return None
    if hi - lo == 2:
        return FlatRows(np.zeros(0, np.int32), np.zeros(0, np.int32))
    if data[lo + 1 : lo + 2] != b"[" or data[hi - 2 : hi - 1] != b"]":
        return None
    ids, lens = [], []
    start = lo  # the byte before the block: the opening '[' or a ','
    while start < hi - 1:
        stop = data.find(b"],[", start + _SCAN_BLOCK, hi) + 1 or hi - 1
        rows = _block_rows(view[start : stop + 1])
        if rows is None:
            return None
        ids.append(rows[0])
        lens.append(rows[1])
        start = stop
    return FlatRows(*(x[0] if len(x) == 1 else np.concatenate(x) for x in (ids, lens)))


def _block_rows(block: memoryview) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(ids, row lengths) of the rows in ``block``, or None unless they are
    rows of a list of int lists in canonical form.

    The block is rows joined by ',' with one byte of punctuation on either
    side: a '[' or ',' before, a ',' or ']' after.  Every punctuation byte
    between those two is checked against its neighbours (``_WINDOW_OK``), so
    brackets nest two deep and commas separate numbers or rows.  Row lengths
    come from the bracket positions, the ids from ``np.fromstring``.
    """
    a = np.frombuffer(block, np.uint8)
    punct = a - np.uint8(48)
    punct = np.greater(punct, 9, out=punct.view(np.bool_))  # not a digit
    at = punct.nonzero()[0]
    num = ~punct[1:].take(at[:-1])  # a number follows punctuation byte i
    del punct  # the byte masks and positions are the peak of the scan
    code = _CODE.take(a.take(at))
    digits = len(a) - len(at)
    del a, at
    x = code[:-1] * np.uint8(2) + num
    if not _WINDOW_OK.take(x[:-1] * np.uint8(32) + x[1:] * np.uint8(4) + code[2:]).all():
        return None
    del x
    brackets = (code[1:-1] != _COMMA).nonzero()[0]  # '[' and ']' per row
    brackets += 1
    opens, closes = brackets[0::2], brackets[1::2]
    lens = (closes - opens - 1 + num[opens]).astype(np.int32)  # commas + 1, or 0
    count = np.count_nonzero(num)
    del code, num, brackets
    if count:
        try:
            ids = np.fromstring(block.tobytes().translate(_SPACES), np.int32, count, sep=" ")
        except ValueError:
            return None
    else:
        ids = np.zeros(0, np.int32)  # fromstring reads blank text as [0]
    # Confirm every id: one per number, and as many digits in all as the
    # text holds.  An id's digits number at most its token's, and fewer only
    # for a leading zero or a token of ten digits or more, which overflows.
    width = ids.size
    for power in _POWERS:
        wide = np.count_nonzero(ids >= power)
        if not wide:
            break
        width += wide
    else:
        return None  # an id of ten digits
    if ids.size != count or width != digits:
        return None
    return ids, lens


def dump_plane_graph(g: PlaneGraph, fp: Union[str, IO[str]]) -> None:
    """Write the canonical text and a newline; the text is built before a
    path is opened, so a graph that fails to serialize leaves the file as
    it was."""
    text = dumps_plane_graph(g) + "\n"
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        fp.write(text)


def load_plane_graph(fp: Union[str, IO[str], IO[bytes]]) -> PlaneGraph:
    """Graph from a path or an open file, or GraphFormatError.

    A path is read in binary mode and its bytes go to the canonical scan
    as they are.  Text that is not canonical is decoded as text mode reads
    it (UTF-8, universal newlines) for ``json.loads``, so a BOM, CRLF line
    endings or invalid UTF-8 end as they would when read as text.  An open
    file goes to :func:`loads_plane_graph` with whatever it reads.
    """
    if isinstance(fp, str):
        with open(fp, "rb") as fh:
            return _load(fh.read(), _json_as_text)
    return loads_plane_graph(fp.read())


def _json_as_text(data: bytes) -> object:
    """``json.loads`` of bytes decoded as ``open(path, encoding="utf-8")`` reads them."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
