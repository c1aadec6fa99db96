"""Round trips and format validation for the plane-graph JSON documents."""

import gc
import io
import json

import pytest

from helpers import edge_endpoints, face_walks, random_plane_map
from peelbound.embed import GraphFormatError, build_plane_graph, connect_components
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.graphio import (
    dump_plane_graph,
    dumps_plane_graph,
    load_plane_graph,
    loads_plane_graph,
    to_document,
)


def k3():
    return build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[0, 2], [1, 0], [2, 1]])


def same_graph(a, b):
    if (a.n, a.m, a.face_count) != (b.n, b.m, b.face_count):
        return False
    if any(edge_endpoints(a, e) != edge_endpoints(b, e) for e in range(a.m)):
        return False
    if any(a.rotation_edges(v) != b.rotation_edges(v) for v in range(a.n)):
        return False
    return face_walks(a) == face_walks(b)


@pytest.mark.parametrize(
    "graph",
    [
        k3(),
        gen_nested_cycles(3, 3),
        gen_nested_cycles(1, 2),
        gen_lowerbound_H(5, 3),
        gen_prism_grid(1),
        gen_random_triangulation(40, 3),
    ],
    ids=["k3", "nested33", "nested12", "H53", "prism1", "rand40"],
)
def test_round_trip(graph):
    text = dumps_plane_graph(graph)
    back = loads_plane_graph(text)
    assert same_graph(graph, back)
    assert back.meta == graph.meta
    # canonical form is a fixed point
    assert dumps_plane_graph(back) == text


def test_document_shape():
    doc = to_document(gen_nested_cycles(3, 2))
    assert doc["format"] == "plane-graph/1"
    assert doc["n"] == 8
    assert len(doc["edges"]) == 6
    assert "faces" in doc  # disconnected
    assert doc["flags"] == {"simple": True, "connected": False, "triangulated": False}
    assert doc["meta"]["family"] == "nested"


def test_connected_document_omits_faces():
    doc = to_document(k3())
    assert "faces" not in doc
    assert "meta" not in doc


def _built_connected():
    for k in (1, 2, 3):
        yield f"prism-{k}", gen_prism_grid(k)
    for g, k in ((1, 3), (3, 1), (4, 5)):
        yield f"nested-{g}-{k}", connect_components(gen_nested_cycles(g, k))
    for seed in range(8):
        for parts in (2, 3):
            yield f"map-{seed}-{parts}", connect_components(random_plane_map(seed, 12, parts))


@pytest.mark.parametrize("graph", [pytest.param(g, id=name) for name, g in _built_connected()])
def test_built_connected_graphs_number_faces_by_walk(graph):
    assert graph.connected
    assert list(graph.face_of_walk) == list(range(graph.walk_count))
    assert "faces" not in to_document(graph)


def test_canonical_text_is_compact_and_sorted():
    text = dumps_plane_graph(k3())
    assert ": " not in text and ", " not in text
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_file_and_stream_io(tmp_path):
    g = gen_lowerbound_H(4, 3)
    path = tmp_path / "h.json"
    dump_plane_graph(g, str(path))
    assert same_graph(g, load_plane_graph(str(path)))

    buf = io.StringIO()
    dump_plane_graph(g, buf)
    assert buf.getvalue().endswith("\n")
    assert same_graph(g, load_plane_graph(io.StringIO(buf.getvalue())))


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        "[]",
        '{"n": 1, "edges": [], "rotation": [[]]}',  # missing format tag
        '{"format": "plane-graph/2", "n": 1, "edges": [], "rotation": [[]]}',
        '{"format": "plane-graph/1", "n": 1, "edges": []}',  # missing rotation
        '{"format": "plane-graph/1", "n": 2, "edges": [[0, 1]], "rotation": [[0], []]}',
        # values of the wrong JSON type
        '{"format": "plane-graph/1", "n": null, "edges": [], "rotation": []}',
        '{"format": "plane-graph/1", "n": 1, "edges": 5, "rotation": [[]]}',
        '{"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [3]}',
        '{"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [[]], "faces": [[null]]}',
        '{"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [[]], "flags": [1]}',
        '{"format": "plane-graph/1", "n": Infinity, "edges": [], "rotation": []}',
        '{"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [["x"]]}',
        # objects where lists belong, even with keys that read as ids
        '{"format": "plane-graph/1", "n": 2, "edges": [{"0": 5, "1": 7}], "rotation": [[0], [0]]}',
        '{"format": "plane-graph/1", "n": 2, "edges": [[0, 1]], "rotation": [{"0": 1}, [0]]}',
        '{"format": "plane-graph/1", "n": 2, "edges": [[0, 1]], "rotation": {"0": [0], "1": [0]}}',
        '{"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [[]], "faces": [{"0": 1}]}',
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(GraphFormatError):
        loads_plane_graph(text)


def test_flags_in_document_are_revalidated():
    doc = to_document(k3())
    doc["flags"]["simple"] = False
    with pytest.raises(GraphFormatError):
        loads_plane_graph(json.dumps(doc))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text", [None, '{"format": ', "[1, 2]"], ids=["valid", "bad-json", "not-a-graph"]
)
def test_loads_leaves_gc_state_as_found(enabled, text):
    text = text or dumps_plane_graph(k3())
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        try:
            loads_plane_graph(text)
        except GraphFormatError:
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
