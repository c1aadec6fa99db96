"""The numpy graph loader against the slot-by-slot reference builder.

``build_plane_graph`` validates flattened arrays in numpy; the reference in
``helpers`` walks every edge and slot in Python.  On damaged documents both
must fail the same way (same exception class, same text for every
structural message), and on intact ones they must build the same graph.

``loads_plane_graph`` reads canonical text without row lists; on any text it
must give what ``from_document(json.loads(text))`` gives.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_plane_graph_by_slots,
    graph_fingerprint,
    random_nesting,
    random_plane_map,
)
from peelbound import embed, graphio
from peelbound.embed import (
    GraphFormatError,
    InvariantError,
    build_plane_graph,
    connect_components,
)
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.graphio import dumps_plane_graph, from_document, loads_plane_graph, to_document
from test_peels import run_under_optimize

K3_EDGES = [(0, 1), (1, 2), (2, 0)]
K3_ROTATION = [[0, 2], [1, 0], [2, 1]]

# Loops, digons, lone vertices and multi-walk faces come from the nestings.
BASE_DOCUMENTS = [to_document(random_nesting(seed, 1 + seed % 12)) for seed in range(24)]
BASE_DOCUMENTS += [
    to_document(gen_random_triangulation(12, 1)),
    to_document(build_plane_graph(1, [(0, 0)], [[0, 0]])),
    to_document(build_plane_graph(2, [(0, 1), (0, 0)], [[1, 0, 1], [0]])),
]

# Wrong JSON types, and ids out of range for every width: int32, int64, beyond.
BAD_VALUES = [
    None, True, False, 1.5, 2.0, float("nan"), float("inf"), "x", "1", [], [0],
    -1, 2**31, 2**63, -(2**63) - 1, 10**30,
]
SMALL_IDS = [0, 1, 2, 3, 5]


def _rows(doc, key):
    return [i for i, row in enumerate(doc[key]) if isinstance(row, list) and row]


@st.composite
def damaged_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    edges, rotation = doc["edges"], doc["rotation"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from([
            "edge row", "edge value", "ragged", "rotation row", "rotation value",
            "repeat slot", "drop slot", "move slot", "stray loop", "faces", "flags", "n",
        ]))
        value = draw(st.sampled_from(BAD_VALUES + SMALL_IDS))
        rows = _rows(doc, "rotation")
        if kind == "edge row" and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = value
        elif kind == "edge value" and _rows(doc, "edges"):
            row = edges[draw(st.sampled_from(_rows(doc, "edges")))]
            row[draw(st.integers(0, len(row) - 1))] = value
        elif kind == "ragged" and _rows(doc, "edges"):
            row = edges[draw(st.sampled_from(_rows(doc, "edges")))]
            row.append(0) if draw(st.booleans()) else row.pop()
        elif kind == "rotation row" and rotation:
            rotation[draw(st.integers(0, len(rotation) - 1))] = value
        elif kind == "rotation value" and rows:
            row = rotation[draw(st.sampled_from(rows))]
            row[draw(st.integers(0, len(row) - 1))] = value
        elif kind == "repeat slot" and rows:
            row = rotation[draw(st.sampled_from(rows))]
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(row)))
        elif kind == "drop slot" and rows:
            row = rotation[draw(st.sampled_from(rows))]
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif kind == "move slot" and rows:
            row = rotation[draw(st.sampled_from(rows))]
            slot = row.pop(draw(st.integers(0, len(row) - 1)))
            target = rotation[draw(st.integers(0, len(rotation) - 1))]
            if isinstance(target, list):
                target.append(slot)
        elif kind == "stray loop" and rotation:
            # a new loop, listed 1-3 times at its own or another vertex
            edges.append([draw(st.integers(0, len(rotation) - 1))] * 2)
            target = rotation[draw(st.integers(0, len(rotation) - 1))]
            if isinstance(target, list):
                target.extend([len(edges) - 1] * draw(st.integers(1, 3)))
        elif kind == "faces":
            faces = doc.setdefault("faces", [[w] for w in range(3)])
            walks = sum(len(row) for row in faces if isinstance(row, list))  # while intact
            value = draw(st.sampled_from([value, walks - 1, walks]))
            f = draw(st.integers(0, len(faces)))
            if f == len(faces):
                faces.append([])
            elif isinstance(faces[f], list) and faces[f] and draw(st.booleans()):
                faces[f].pop()
            elif isinstance(faces[f], list):
                faces[f].append(value)
        elif kind == "flags":
            key = draw(st.sampled_from(["simple", "connected", "triangulated"]))
            doc["flags"] = {key: draw(st.booleans())}
        elif kind == "n":
            doc["n"] += draw(st.sampled_from([-1, 1]))
    return doc


def outcome(builder, doc):
    """("ok", fingerprint), ("GraphFormatError", text) or (exception class,)."""
    try:
        g = builder(
            doc["n"], doc["edges"], doc["rotation"],
            faces=doc.get("faces"), flags=doc.get("flags"), meta=doc.get("meta"),
        )
    except GraphFormatError as exc:
        return ("GraphFormatError", str(exc))
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        return (type(exc).__name__,)
    return ("ok", graph_fingerprint(g))


@settings(max_examples=400, deadline=None)
@given(damaged_documents())
def test_builder_matches_slot_reference(doc):
    assert outcome(build_plane_graph, doc) == outcome(build_plane_graph_by_slots, doc)
    # and through the document reader: a graph or GraphFormatError, nothing else
    try:
        from_document(doc)
    except GraphFormatError:
        pass


@pytest.mark.parametrize("doc", BASE_DOCUMENTS)
def test_intact_documents_build_the_same_graph(doc):
    got = outcome(build_plane_graph, doc)
    assert got[0] == "ok"
    assert got == outcome(build_plane_graph_by_slots, doc)


@pytest.mark.parametrize(
    "n,edges,rotation,flags,message",
    [
        (-1, [], [], None, "negative vertex count"),
        (3, K3_EDGES, [[0, 2], [1, 0]], None, "rotation has 2 rows, expected 3"),
        (3, [(0, 1), (1, 2, 0), (2, 0)], K3_ROTATION, None, "edge 1 is not a pair"),
        (3, [(0, 1), (1, 2), (2, 3)], K3_ROTATION, None, "edge 2 endpoint out of range"),
        (3, K3_EDGES, [[0, 7], [1, 0], [2, 1]], None, "rotation of 0 references edge 7"),
        (2, [(0, 1), (1, 1)], [[0, 1], [0, 1]], None, "loop 1 listed at wrong vertex 0"),
        (2, [(0, 1), (0, 0)], [[0, 1, 1, 1], [0]], None, "loop 1 appears more than twice"),
        (3, [(0, 1)], [[0], [0], [0]], None, "edge 0 listed at non-endpoint 2"),
        (2, [(0, 1)], [[0], [0, 0]], None, "edge 0 appears twice in rotation of 1"),
        (3, K3_EDGES, [[0, 2], [1, 0], [1]], None, "edge 2 missing from some rotation"),
        (3, K3_EDGES, K3_ROTATION, {"simple": False},
         "flag simple=False contradicts computed True"),
    ],
)
def test_builder_messages(n, edges, rotation, flags, message):
    with pytest.raises(GraphFormatError) as exc:
        build_plane_graph(n, edges, rotation, flags=flags)
    assert str(exc.value) == message


@pytest.mark.parametrize("big", [2**31, 2**63, 10**30, -(2**63) - 1])
def test_ids_beyond_int32_are_out_of_range(big):
    with pytest.raises(GraphFormatError, match="edge 0 endpoint out of range"):
        build_plane_graph(2, [(0, big)], [[0], [0]])
    with pytest.raises(GraphFormatError, match=f"rotation of 1 references edge {big}"):
        build_plane_graph(2, [(0, 1)], [[0], [big]])


def test_first_bad_slot_is_reported():
    # edge 0 is listed twice at vertex 0 (slot 1) before vertex 1 names an unknown edge
    with pytest.raises(GraphFormatError, match="edge 0 appears twice in rotation of 0"):
        build_plane_graph(2, [(0, 1)], [[0, 0], [9]])
    # a value that is not an integer, after a bad slot, does not mask it
    with pytest.raises(GraphFormatError, match="rotation of 0 references edge 9"):
        build_plane_graph(2, [(0, 1)], [[9, "x"], [0]])
    with pytest.raises(TypeError):
        build_plane_graph(2, [(0, 1)], [["x", 9], [0]])


def test_malformed_text_names_the_value():
    doc = to_document(build_plane_graph(3, K3_EDGES, K3_ROTATION))
    doc["rotation"][1][0] = None
    kind, text = loaded(json.dumps(doc))
    assert kind == "GraphFormatError" and text.startswith("malformed document: ")


K3_DOCUMENT = {"format": "plane-graph/1", "n": 3, "edges": K3_EDGES, "rotation": K3_ROTATION}


# The differential above compares only the class of a TypeError; pin the text
# that len() gives a row without a length, before anything iterates it.
@pytest.mark.parametrize(
    "patch,message",
    [
        ({"edges": [[0, 1], 5, [2, 0]]}, "malformed document: object of type 'int' has no len()"),
        ({"rotation": [[0, 2], 7, [2, 1]]},
         "malformed document: object of type 'int' has no len()"),
        ({"rotation": [[0, 2], None, [2, 1]]},
         "malformed document: object of type 'NoneType' has no len()"),
        ({"edges": [], "rotation": [[0], [], []]}, "rotation of 0 references edge 0"),
    ],
    ids=["scalar-edge-row", "scalar-rotation-row", "null-rotation-row", "no-edges"],
)
def test_loader_texts(patch, message):
    assert loaded(json.dumps({**K3_DOCUMENT, **patch})) == ("GraphFormatError", message)


def test_scan_that_finds_no_defect_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(embed, "_rotation_system", lambda n, edges, rotation: None)
    with pytest.raises(InvariantError):
        build_plane_graph(3, K3_EDGES, K3_ROTATION)


def test_lone_walk_grouped_alone_before_a_merged_face():
    # Euler holds, geometry does not: the triangle's two walks share a face
    # and the lone vertex sits alone.  Reading `triangulated` used to index
    # past the dart walks here (IndexError); now connecting rejects it.
    g = build_plane_graph(4, K3_EDGES, K3_ROTATION + [[]], faces=[[2], [0, 1]])
    assert not g.triangulated and not g.connected
    with pytest.raises(GraphFormatError, match="did not span all components"):
        connect_components(g)


# ---------------------------------------------------------------------------
# Canonical text: the row-list-free reader against json.loads
# ---------------------------------------------------------------------------

FAMILY_DOCUMENTS = [
    to_document(g)
    for g in (
        gen_nested_cycles(3, 2), gen_lowerbound_H(4, 5), gen_prism_grid(1),
        gen_random_triangulation(7, 1), gen_random_triangulation(40, 3),
    )
]
ODD_IDS = ["1.0", "-1", "01", "2147483648", '"3"', "0", "1e2", "[1]"]
MARK = 987654321  # stands for an id until the text is written


def canonical(doc, ensure_ascii=True):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=ensure_ascii)


def load_by_json(text):
    """What loads_plane_graph did before canonical text had its own reader."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def load_outcome(load, text):
    try:
        g = load(text)
    except Exception as exc:  # the class and text are what is compared
        return (type(exc).__name__, str(exc))
    return ("ok", graph_fingerprint(g))


def loaded(text):
    """The outcome of loads_plane_graph on text, which its UTF-8 bytes must share."""
    got = load_outcome(loads_plane_graph, text)
    assert load_outcome(loads_plane_graph, text.encode()) == got
    return got


@st.composite
def loader_texts(draw):
    if draw(st.booleans()):
        doc = to_document(random_plane_map(
            draw(st.integers(0, 10**6)), draw(st.integers(0, 12)), draw(st.integers(1, 3))
        ))
    else:
        doc = copy.deepcopy(draw(st.sampled_from(FAMILY_DOCUMENTS)))
    kind = draw(st.sampled_from([
        "intact", "whitespace", "line end", "key order", "duplicate key", "odd id",
        "ragged edge", "no edges", "meta", "n",
    ]))
    edges = doc["edges"]
    rows = [row for row in edges + doc["rotation"] if row]
    if kind == "odd id" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = MARK
        return canonical(doc).replace(str(MARK), draw(st.sampled_from(ODD_IDS)))
    if kind == "ragged edge" and edges:
        e = draw(st.integers(0, len(edges) - 1))
        edges[e] = draw(st.sampled_from([edges[e][:1], edges[e] + [0], []]))
    elif kind == "no edges":
        doc["edges"] = []
    elif kind == "meta":
        doc["meta"] = {"note": draw(st.sampled_from(["\u00e9", ',"rotation":[[0]]', 'a"b\\']))}
        return canonical(doc, ensure_ascii=draw(st.booleans()))
    elif kind == "n":
        doc["n"] = draw(st.sampled_from([True, doc["n"] + 1, -1, 0, 2.0, "3", None]))
    elif kind == "key order":
        keys = list(doc)
        order = draw(st.permutations(keys))
        return json.dumps({k: doc[k] for k in order}, separators=(",", ":"))
    text = canonical(doc)
    if kind == "whitespace":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([" ", "\n", "\r\n", "\t"])) + text[at:]
    if kind == "line end":
        return text + draw(st.sampled_from(["\n", "\r\n", " \n", "\n\n", "\u3000"]))
    if kind == "duplicate key":
        key = draw(st.sampled_from(["edges", "rotation"]))
        value = draw(st.sampled_from([doc[key], [[0]], []]))
        extra = f',"{key}":' + json.dumps(value, separators=(",", ":"))
        at = draw(st.sampled_from(
            [text.index(',"', 1), text.rindex(',"rotation":'), len(text) - 1]
        ))
        return text[:at] + extra + text[at:]
    return text


@settings(max_examples=500, deadline=None)
@given(loader_texts())
def test_canonical_reader_matches_json_loads(text):
    assert loaded(text) == load_outcome(load_by_json, text)


def test_canonical_reader_refuses_what_json_reads_otherwise():
    # Read naively, each of these builds a graph where json.loads gives none,
    # or the reverse: np.fromstring reads 00 as 0 and 4294967297 as 1, and
    # json.loads keeps only the last of two keys.
    base = canonical(K3_DOCUMENT)
    bad_edges = '"edges":[[0,1],[1,2],[2,2]]'
    rotation = '"rotation":[[0,2],[1,0],[2,1]]'
    bad_rotation = base.replace(rotation, '"rotation":[[0,2],[1,0],[2,2]]')
    for text, result in (
        (base.replace("[[0,1]", "[[00,1]", 1), "GraphFormatError"),
        (base.replace("[[0,1]", "[[0,4294967297]", 1), "GraphFormatError"),
        ("{" + bad_edges + "," + base[1:], "ok"),
        (base.replace(',"format"', "," + bad_edges + ',"format"', 1), "GraphFormatError"),
        (bad_rotation[:-1] + "," + rotation + "}", "ok"),
        # the two values joined would read as one sound list of rows
        (base.replace("[2,0]]", "[2,0]", 1).replace(':[[0,2]', ":[0,2]", 1), "GraphFormatError"),
    ):
        got = loaded(text)
        assert got == load_outcome(load_by_json, text)
        assert got[0] == result


@pytest.mark.parametrize(
    "old,new",
    [
        (',"format"', ' ,"format"'),
        (',"format"', '\n,"format"'),
        ('"n":3', '"n" :3'),
        ('"format":"plane-graph/1","n":3', '"n":3,"format":"plane-graph/1"'),
        ('"n":3', '"n":3,"n":3'),
        ('"n":3', '"meta":{"a":"\u00e9"},"n":3'),
        ('"n":3', '"meta":{"b":1,"a":2},"n":3'),
        ('"n":3', '"meta":{"a":"b c"},"n":3'),
        ("[2,1]]", "[2, 1]]"),
        ("[2,1]]", "[2,01]]"),
        ("[2,1]]", "[2,2147483648]]"),
        ("[2,1]]", "[2,1.0]]"),
        ("[2,1]]", "[2,-1]]"),
        ("[2,1]]", '[2,"1"]]'),
    ],
)
def test_fast_path_turns_down_non_canonical_text(old, new):
    text = canonical(K3_DOCUMENT)
    assert graphio._canonical_document(text.encode()) is not None
    text = text.replace(old, new, 1)
    assert graphio._canonical_document(text.encode()) is None
    assert loaded(text) == load_outcome(load_by_json, text)


def test_fast_path_reads_a_rotation_key_in_a_meta_string():
    # inside a JSON string the quotes are escaped, so the key search skips it
    doc = {**K3_DOCUMENT, "meta": {"a": ',"rotation":[[0]]', "rotation": [[0]]}}
    text = canonical(doc)
    assert graphio._canonical_document(text.encode()) is not None
    got = loaded(text)
    assert got == load_outcome(load_by_json, text) and got[0] == "ok"


ROW_SHAPES = from_document({
    **to_document(random_plane_map(7, 9, 3)), "meta": {"has": ["lone-vertices", "loops", "faces"]},
})


@pytest.mark.parametrize("end", ["", "\n", "\r\n"], ids=["bare", "newline", "crlf"])
def test_canonical_text_skips_the_list_flattener(monkeypatch, end):
    graphs = (ROW_SHAPES, gen_nested_cycles(3, 2))
    texts = [dumps_plane_graph(g) + end for g in graphs]
    expected = [load_outcome(load_by_json, text) for text in texts]
    assert all(got[0] == "ok" for got in expected)
    # an unsound canonical document is worded by the same scan
    texts.append(canonical({**K3_DOCUMENT, "rotation": [[0, 2], [1, 0], [0]]}) + end)
    expected.append(("GraphFormatError", "edge 0 listed at non-endpoint 2"))
    flatten, flattened = embed._flatten_rows, []
    monkeypatch.setattr(embed, "_flatten_rows", lambda rows: flattened.append(rows) or flatten(rows))
    assert [loaded(text) for text in texts] == expected
    # json.loads reads the faces, so only they go through the list flattener,
    # once for the str and once for the bytes
    assert flattened == [to_document(g)["faces"] for g in graphs for _ in "sb"]


def test_canonical_reader_under_optimize():
    script = (
        "import json\n"
        "from peelbound import embed\n"
        "from peelbound.gen import gen_nested_cycles\n"
        "from peelbound.graphio import dumps_plane_graph, from_document, loads_plane_graph\n"
        "text = dumps_plane_graph(gen_nested_cycles(3, 2))\n"
        "expected = from_document(json.loads(text))\n"
        "flatten, flattened = embed._flatten_rows, []\n"
        "embed._flatten_rows = lambda rows: flattened.append(rows) or flatten(rows)\n"
        "bad = text.replace('[[1,2]', '[[1,9]', 1)\n"
        "for data, wrong in ((text + '\\n', bad), ((text + '\\n').encode(), bad.encode())):\n"
        "    flattened.clear()\n"
        "    g = loads_plane_graph(data)\n"
        "    same = all(list(getattr(g, k)) == list(getattr(expected, k))\n"
        "               for k in ('eu', 'ev', 'rot_next', 'rot_first', 'face_of_walk'))\n"
        "    same = same and flattened == [json.loads(text)['faces']]\n"
        "    try:\n"
        "        loads_plane_graph(wrong)\n"
        "    except embed.GraphFormatError as exc:\n"
        "        print(__debug__, same, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True edge 0 endpoint out of range\n" * 2


# ---------------------------------------------------------------------------
# Face groupings: the same checks and words on every route
# ---------------------------------------------------------------------------

NESTED = to_document(gen_nested_cycles(3, 1))  # walks 0-3, faces [[1, 2], [0, 3]]


def loader_routes(doc):
    """Canonical text, which the numpy reader takes, and spaced text, which it refuses."""
    texts = canonical(doc), json.dumps(doc)
    assert graphio._canonical_document(texts[0].encode()) is not None
    assert graphio._canonical_document(texts[1].encode()) is None
    return texts


def test_true_still_reads_as_walk_one():
    expected = graph_fingerprint(from_document(NESTED))
    for text in loader_routes({**NESTED, "faces": [[True, 2], [0, 3]]}):
        assert loaded(text) == ("ok", expected)


NO_LEN = "object of type 'int' has no len()"
NOT_INT = "'{}' object cannot be interpreted as an integer"


@pytest.mark.parametrize(
    "faces,message",
    [
        ([[1, 2], [], [0, 3]], "empty face in grouping"),
        ([[1, 2], [0, -1]], "face grouping references walk -1"),
        ([[1, 2], [0, 3, 4]], "face grouping references walk 4"),
        ([[1, 2, 1], [0, 3]], "walk 1 grouped twice"),
        ([[1, 2], [0]], "face grouping does not cover all walks"),
        ([[1, 2], 3], "malformed document: " + NO_LEN),
        ([[1, 2], {"0": 3}], "malformed document: JSON object in 'faces'"),
        # each of these was read as walk 1 or 2: int() truncated 1.9, parsed
        # "1" and took 2.0, where edges and rotation refused the same values
        ([[1.9, 2], [0, 3]], "malformed document: " + NOT_INT.format("float")),
        ([["1", 2], [0, 3]], "malformed document: " + NOT_INT.format("str")),
        ([[1, 2.0], [0, 3]], "malformed document: " + NOT_INT.format("float")),
        # two defects: a type error comes first, then the checks run in the
        # order empty face, range, repeat, cover, and each names its first
        # offender in document order
        ([[1, 9], []], "empty face in grouping"),
        ([[1, 1, 2], [0, 7]], "face grouping references walk 7"),
        ([[1, 5], [0, -2]], "face grouping references walk 5"),
        ([[2, 1, 2], [0, 1, 3]], "walk 2 grouped twice"),
        ([[1, 2], [0, 0]], "walk 0 grouped twice"),
        ([[1, 2], [0, 2**40]], "face grouping references walk 1099511627776"),
        ([[1, 2], [0], 3], "malformed document: " + NO_LEN),
    ],
    ids=[
        "empty", "minus-one", "past-end", "repeat", "missing", "scalar-row", "object",
        "float-walk", "string-walk", "float-2-walk",
        "empty-after-range", "range-after-repeat", "range-twice", "two-repeats",
        "repeat-and-missing", "past-int32", "scalar-and-missing",
    ],
)
def test_grouping_defects_read_the_same_on_every_route(faces, message):
    doc = {**NESTED, "faces": faces}
    for text in loader_routes(doc):
        assert loaded(text) == ("GraphFormatError", message)
    # the builder words the same defects; a type error is its own TypeError
    # (a JSON object never reaches it from a document)
    if "JSON object" not in message:
        with pytest.raises((GraphFormatError, TypeError)) as exc:
            build_plane_graph(doc["n"], doc["edges"], doc["rotation"], faces=faces)
        assert str(exc.value) == message.removeprefix("malformed document: ")


# ---------------------------------------------------------------------------
# flags and meta: a JSON object, null or absent, on every route
# ---------------------------------------------------------------------------


# Each of these was coerced: a list of pairs read as meta (and as a family
# annotation that verify then checked), "ab" as {"a": "b"}, and a falsy
# value as no meta or no flags at all.
@pytest.mark.parametrize("key", ["flags", "meta"])
@pytest.mark.parametrize(
    "value",
    [[["fse_at_least", 99]], ["ab"], 0, "", False, [], 1, "x"],
    ids=["pairs", "string-pair", "zero", "empty-string", "false", "empty-list", "one", "string"],
)
def test_flags_and_meta_must_be_objects(key, value):
    for text in loader_routes({**K3_DOCUMENT, key: value}):
        assert loaded(text) == ("GraphFormatError", f"malformed document: {key!r} is not a JSON object")


@pytest.mark.parametrize("value", [None, {}])
def test_null_or_empty_flags_and_meta_load(value):
    expected = graph_fingerprint(from_document(K3_DOCUMENT))
    for text in loader_routes({**K3_DOCUMENT, "flags": value, "meta": value}):
        assert loaded(text) == ("ok", expected)


# ---------------------------------------------------------------------------
# Bytes in: str and bytes alike, files read as bytes, values scanned in blocks
# ---------------------------------------------------------------------------


def test_str_and_bytes_load_alike_on_maps():
    for seed in range(300):
        text = dumps_plane_graph(random_plane_map(seed, seed % 13, 1 + seed % 3))
        assert loaded(text)[0] == "ok"


def read_as_text(path):
    """What load_plane_graph gave a path when it read the file in text mode."""
    with open(path, encoding="utf-8") as fh:
        return loads_plane_graph(fh.read())


K3_TEXT = canonical(K3_DOCUMENT)
SPACED = json.dumps(K3_DOCUMENT, indent=1)  # many lines
# File contents, and how a path to them loads: text mode decodes UTF-8 and
# turns CRLF and a lone CR into LF, so JSON error positions count them as
# one character; json.loads reads bytes in the encoding it detects.
FILE_BYTES = {
    "canonical": (K3_TEXT + "\n").encode(),
    "bom": b"\xef\xbb\xbf" + K3_TEXT.encode(),
    "crlf": (K3_TEXT + "\r\n").encode(),
    "crlf-spaced": SPACED.replace("\n", "\r\n").encode(),
    "crlf-error": (SPACED + "x").replace("\n", "\r\n").encode(),
    "cr-error": (SPACED + "x").replace("\n", "\r").encode(),
    "invalid-utf8": K3_TEXT.replace('"n":3', '"meta":{"a":"\xff"},"n":3').encode("latin-1"),
    "non-ascii-meta": canonical({**K3_DOCUMENT, "meta": {"a": "é"}}, False).encode(),
    "utf16": K3_TEXT.encode("utf-16"),
}
PATH_OUTCOME = {
    "canonical": "ok",
    "bom": "GraphFormatError",
    "crlf": "ok",
    "crlf-spaced": "ok",
    "crlf-error": "GraphFormatError",
    "cr-error": "GraphFormatError",
    "invalid-utf8": "UnicodeDecodeError",
    "non-ascii-meta": "ok",
    "utf16": "UnicodeDecodeError",
}


@pytest.mark.parametrize("name", FILE_BYTES)
def test_files_load_as_they_did_in_text_mode(tmp_path, name):
    path = tmp_path / "g.json"
    path.write_bytes(FILE_BYTES[name])
    expected = load_outcome(read_as_text, str(path))
    assert expected[0] == PATH_OUTCOME[name]
    assert load_outcome(graphio.load_plane_graph, str(path)) == expected

    def from_text_file(p):
        with open(p, encoding="utf-8") as fh:
            return graphio.load_plane_graph(fh)

    def from_binary_file(p):
        with open(p, "rb") as fh:
            return graphio.load_plane_graph(fh)

    assert load_outcome(from_text_file, str(path)) == expected
    # a binary file's bytes go to json.loads, which takes a BOM and UTF-16
    assert load_outcome(from_binary_file, str(path)) == load_outcome(load_by_json, FILE_BYTES[name])


def scan_documents():
    """Canonical texts whose rows are short, long, empty and 9-digit."""
    yield canonical(K3_DOCUMENT)
    yield canonical({**K3_DOCUMENT, "rotation": [[0, 2], [1, 0], [123456789, 1]]})
    yield canonical({**K3_DOCUMENT, "edges": [[0, 1], [1, 2], [2, 987654321]]})
    yield dumps_plane_graph(ROW_SHAPES)  # empty rows: lone vertices
    yield dumps_plane_graph(random_plane_map(11, 12, 2))
    yield dumps_plane_graph(gen_nested_cycles(3, 2))


def damaged_scan_texts(text):
    """The text with one row id after another written as a non-canonical token."""
    rows = range(text.index(',"', 1)), range(text.rindex(',"rotation":'), len(text))
    ids = [i for r in rows for i in r if text[i].isdigit() and not text[i - 1].isdigit()]
    for k, at in enumerate(ids[:: max(1, len(ids) // 6)]):
        yield text[:at] + ["0", "1234567890", "-"][k % 3] + text[at:]


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 7, 9, 13, 17, 29, 64])
def test_scan_blocks_read_what_one_block_reads(monkeypatch, block):
    texts = list(scan_documents())
    texts += [bad for text in texts for bad in damaged_scan_texts(text)]
    whole = [load_outcome(load_by_json, text) for text in texts]
    rows = [graphio._canonical_document(text.encode()) for text in texts]
    assert sum(doc is not None for doc in rows) == 6  # the intact texts
    monkeypatch.setattr(graphio, "_SCAN_BLOCK", block)
    assert [loaded(text) for text in texts] == whole
    for text, doc in zip(texts, rows):
        got = graphio._canonical_document(text.encode())
        assert (got is None) == (doc is None)
        for key in ("edges", "rotation") if doc else ():
            assert got[key].ids.tolist() == doc[key].ids.tolist()
            assert got[key].lens.tolist() == doc[key].lens.tolist()


def test_scan_blocks_end_at_rows(monkeypatch):
    # with blocks of one byte, each block is one row and its two neighbours
    blocks = []
    scan = graphio._block_rows
    monkeypatch.setattr(graphio, "_block_rows", lambda b: blocks.append(b.tobytes()) or scan(b))
    monkeypatch.setattr(graphio, "_SCAN_BLOCK", 1)
    doc = to_document(ROW_SHAPES)
    assert loaded(dumps_plane_graph(ROW_SHAPES))[0] == "ok"
    rows = [json.dumps(row, separators=(",", ":")).encode() for row in doc["edges"] + doc["rotation"]]
    assert [b[1:-1] for b in blocks] == rows * 2  # the str, then the bytes
    assert all(b[:1] in b"[," and b[-1:] in b",]" for b in blocks)
    assert b"[]" in rows  # an empty row stands alone in its block
