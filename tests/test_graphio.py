"""Round trips and format validation for the plane-graph JSON documents."""

import gc
import hashlib
import io
import json
import tracemalloc

import pytest

from helpers import (
    document_by_rows,
    edge_endpoints,
    face_walks,
    random_plane_map,
    rotation_edges,
    walk_count,
)
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
    if any(rotation_edges(a, v) != rotation_edges(b, v) for v in range(a.n)):
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
    assert list(graph.face_of_walk) == list(range(walk_count(graph)))
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


# The traced peak of load_plane_graph on a 2^16-vertex random triangulation,
# as a multiple of the file's size.  Reading the file as bytes and scanning
# its two row values in blocks put it at 3.4; decoding the file to str and
# joining the values into one buffer had it at 5.3.
LOAD_PEAK_PER_FILE_BYTE = 4.0


def test_load_peak_is_a_small_multiple_of_the_file(tmp_path):
    path = tmp_path / "random.json"
    dump_plane_graph(gen_random_triangulation(2**16, 7), str(path))
    size = path.stat().st_size
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        g = load_plane_graph(str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert g.n == 2**16
    assert peak <= LOAD_PEAK_PER_FILE_BYTE * size, f"{peak / size:.2f} x {size} bytes"


# ---------------------------------------------------------------------------
# The writer against the per-row document
# ---------------------------------------------------------------------------


def canonical_by_rows(g):
    """What dumps_plane_graph wrote when every row was built in Python."""
    return json.dumps(document_by_rows(g), sort_keys=True, separators=(",", ":"))


def check_writer(g, label=""):
    text = dumps_plane_graph(g)
    assert text == canonical_by_rows(g), label
    assert to_document(g) == document_by_rows(g), label
    back = loads_plane_graph(text)
    assert same_graph(g, back) and back.meta == g.meta, label
    assert dumps_plane_graph(back) == text, label


@pytest.mark.parametrize("start", range(0, 300, 30))
def test_writer_matches_rows_on_random_maps(start):
    # loops, multi-edges, lone vertices, and faces of several walks
    for seed in range(start, start + 30):
        check_writer(random_plane_map(seed, seed % 25, 1 + seed % 3), f"seed {seed}")


def test_writer_lone_vertex():
    g = build_plane_graph(1, [], [[]])
    check_writer(g)
    assert dumps_plane_graph(g) == (
        '{"edges":[],"flags":{"connected":true,"simple":true,"triangulated":false},'
        '"format":"plane-graph/1","n":1,"rotation":[[]]}'
    )


def test_writer_nested_non_ascii_meta():
    meta = {
        "z": "\u00e9t\u00e9 \u65e5\u672c",
        "a": {"list": [1, {"y": None, "b": 2.5}], "s": ',"rotation":[]'},
    }
    g = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[0, 2], [1, 0], [2, 1]], meta=meta)
    check_writer(g)
    assert dumps_plane_graph(g).isascii()


def test_failed_dump_leaves_file_as_it_was(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("old contents\n", encoding="utf-8")
    g = build_plane_graph(1, [], [[]], meta={"tags": {1, 2}})  # a set is not JSON
    with pytest.raises(TypeError):
        dump_plane_graph(g, str(path))
    assert path.read_text(encoding="utf-8") == "old contents\n"


# The sha256 of the canonical text of every graph the benchmark's two
# workloads generate at seed 1: the random triangulations, prisms and
# lower-bound graphs of one, the lower-bound graphs and nested cycles of the
# other.  A change that moves one generated or written byte fails here.
GENERATED_TEXT_SHA256 = [
    ("random", (32768, 1001), "27cc32e90d3b4dde4bf24496f8c3a27b7e950dff7e2bc2ae8ed0339ddd2693f9"),
    ("random", (32768, 1002), "906bd7adf107e713dc0ca252a4b6c48c8f87cf46c1743f8daa8c269ac6a9cf96"),
    ("random", (300, 1003), "4030088e5426bb67f3ce7bd9e585298a5270a68fef7832bca4428e7055bfc549"),
    ("random", (200, 1004), "a34c280600e0d257dbe426532d5e85e8455f83801a00feaf6787029d9124c0c1"),
    ("prism", (2,), "e758b8a1ed485e5f6434c85782838e10bcbf3ce63e1d700dd1e34bd38000cf8c"),
    ("random", (100, 1005), "1d1ed1eb8b4348265422a582e90e76788fbc6e4226cc8dde477f5d1386ad1397"),
    ("prism", (3,), "ae17311e40e40d88cb8f1bc35c54cb1eb8166a6cd894beab4884a79d6e4fb28b"),
    ("random", (40, 1006), "9645e50a42015d5c32c5f5683d0fc08da5814106693241a399d32fcef8e85330"),
    ("lowerbound-h", (4, 6001), "8831542597c1acdd8be264801eb1ba474a1fc312415fae33c288d27648413c7a"),
    ("nested", (16, 99), "c96228ee35f3d751ea5fc7540a1bd585b4e93b6417acc39f03b39eb5cde8e5fb"),
    ("lowerbound-h", (9, 2001), "0197d100665c6e3cdc91a06a71f4c62804abbdf553ccbde84a99fe680e2cd882"),
    ("nested", (8, 149), "8f5426e3a954f8d03e327eaf42f3e3537b20550b18a8ff2f3d12f609db8228e8"),
    ("lowerbound-h", (4, 51), "fdfed96682427dec2eb891e4be6c0d6922538ac9ce3c3354193fc614c6f2f1ff"),
    ("nested", (4, 51), "7a59222f40e581a302d8b6e9a71aa8515e36d7342d92542088b96732c5d31135"),
    ("lowerbound-h", (9, 41), "5e4f091b202c9ee7ed5d381cc64fd71f22ce776c3fe91389159af22779d55b25"),
    ("nested", (6, 41), "83d08280c3358dc607c3c140a05bbd21edab4e0d5f0a4c25f2df44b138cb9f04"),
    ("lowerbound-h", (3, 9), "bf23a67d9297a80df5fc2de359313dc1221c34add0de7ff3048dff2b5cf28bd0"),
    ("nested", (3, 21), "db27f0debe823c4794c4ed8248aaf1a99e4f71854861de583f790f45439e86c5"),
    ("lowerbound-h", (5, 9), "ff68c633d4eec9bc6e563630ba352030914893ee5df22b6b9610e74d57698d1b"),
    ("nested", (4, 11), "9713939d70a08ce2f7f216a3f4606667841ba5af442ebbc2c49c4e473477c17d"),
    ("lowerbound-h", (4, 7), "797944e7cc2d7d8ad7465a01d44a303c765366357681b02127d34333dddb4b11"),
    ("nested", (6, 9), "518ff504a0ba7751a2af85a0af0ebd668b8c5532edbf4e540705bbaa775c344f"),
    ("lowerbound-h", (9, 5), "57b29196acc360e0ee0319c4f456c8747b8261ec67e33b329d87e7bd9cc41a2b"),
]
FAMILIES = {
    "random": gen_random_triangulation,
    "prism": gen_prism_grid,
    "lowerbound-h": gen_lowerbound_H,
    "nested": gen_nested_cycles,
}


@pytest.mark.parametrize(
    "family,params,digest",
    GENERATED_TEXT_SHA256,
    ids=["-".join([f, *map(str, p)]) for f, p, _ in GENERATED_TEXT_SHA256],
)
def test_generated_text_is_pinned(family, params, digest):
    text = dumps_plane_graph(FAMILIES[family](*params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
