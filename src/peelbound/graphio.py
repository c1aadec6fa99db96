"""JSON serialization for plane graphs (format tag ``plane-graph/1``).

The document stores the rotation system as per-vertex lists of *edge ids*
(a loop id appears twice).  Walk numbering inside ``faces`` refers to the
deterministic trace order: dart walks by ascending smallest dart id, then
isolated vertices ascending -- the same order :func:`embed.trace_faces`
reports.  ``faces`` appears whenever it carries information: always for
disconnected graphs, and for connected graphs whose face numbering (after
edge-insertion surgery) departs from walk order.
"""

from __future__ import annotations

import gc
import json
from operator import index
from typing import IO, Union

from .embed import GraphFormatError, PlaneGraph, build_plane_graph

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
    doc: dict = {
        "format": FORMAT_TAG,
        "n": g.n,
        "edges": [[g.eu[e], g.ev[e]] for e in range(g.m)],
        "rotation": [g.rotation_edges(v) for v in range(g.n)],
        "flags": {
            "simple": g.simple,
            "connected": g.connected,
            "triangulated": g.triangulated,
        },
    }
    grouping = [list(group) for group in g.face_walks]
    if not all(grp == [i] for i, grp in enumerate(grouping)):
        doc["faces"] = grouping
    if g.meta:
        doc["meta"] = g.meta
    return doc


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
        # scalar row, list flags) fails inside the builder; report it as such
        raise GraphFormatError(f"malformed document: {exc}") from exc


def dumps_plane_graph(g: PlaneGraph) -> str:
    """Canonical (sorted-key, compact) JSON text."""
    return json.dumps(to_document(g), sort_keys=True, separators=(",", ":"))


def loads_plane_graph(text: str) -> PlaneGraph:
    # The document holds one list per row.  They form no cycles, but while
    # they live every collection would walk them all, so the cyclic
    # collector stays off until the graph is built and the document freed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_document(json.loads(text))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def dump_plane_graph(g: PlaneGraph, fp: Union[str, IO[str]]) -> None:
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as fh:
            fh.write(dumps_plane_graph(g) + "\n")
    else:
        fp.write(dumps_plane_graph(g) + "\n")


def load_plane_graph(fp: Union[str, IO[str]]) -> PlaneGraph:
    if isinstance(fp, str):
        with open(fp, "r", encoding="utf-8") as fh:
            return loads_plane_graph(fh.read())
    return loads_plane_graph(fp.read())
