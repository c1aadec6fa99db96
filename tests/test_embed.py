"""Builder validation, face tracing, radial BFS, and embedding surgery."""

import ast
import hashlib
import json
import random
import time
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bfs_distances,
    components_by_bfs,
    connect_by_insertion,
    connect_by_retracing,
    degree,
    edge_endpoints,
    face_degree,
    face_vertices,
    face_walks,
    faces_of_vertex,
    graph_fingerprint,
    incidence_by_sort,
    insert_edge_in_face,
    label_walks_by_doubling,
    peel_numbers_by_union_find,
    radial_bfs_by_rounds,
    random_nesting,
    random_plane_map,
    relabel,
    ring_chain,
    sorted_view,
    thin_random_triangulation,
    trace_faces,
    trace_walks_by_loop,
    triangles_in_one_face,
    walk_count,
    walk_vertices,
)
from peelbound import embed
from peelbound.center import certify
from peelbound.embed import (
    GraphFormatError,
    build_plane_graph,
    connect_components,
    radial_bfs,
    triangulate_preserving_embedding,
    vertex_bfs,
)
from peelbound.gen import (
    _prism_band,
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.graphio import dumps_plane_graph, from_document, loads_plane_graph, to_document
from peelbound.oracle import fse_outerplanarity_bruteforce, verify_certificate
from peelbound.peels import augment, choose_root, compute_layers
from test_peels import run_under_optimize

K3_EDGES = [(0, 1), (1, 2), (2, 0)]
K3_ROTATION = [[0, 2], [1, 0], [2, 1]]

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_ROTATION = [[0, 1, 2], [0, 4, 3], [1, 3, 5], [2, 5, 4]]

OCTA_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (2, 3), (3, 4), (4, 1),
    (1, 5), (2, 5), (3, 5), (4, 5),
]
OCTA_ROTATION = [
    [3, 2, 1, 0],
    [4, 8, 7, 0],
    [5, 9, 4, 1],
    [6, 10, 5, 2],
    [7, 11, 6, 3],
    [8, 9, 10, 11],
]


def octahedron():
    return build_plane_graph(6, OCTA_EDGES, OCTA_ROTATION)


def test_triangle_walks():
    g = build_plane_graph(3, K3_EDGES, K3_ROTATION)
    assert trace_faces(g) == [[0, 2, 4], [1, 5, 3]]
    assert g.face_count == 2
    assert g.simple and g.connected and g.triangulated


def test_k4_walks_and_flags():
    g = build_plane_graph(4, K4_EDGES, K4_ROTATION)
    assert trace_faces(g) == [[0, 8, 5], [1, 2, 7], [3, 4, 11], [6, 10, 9]]
    assert g.face_count == 4
    assert g.triangulated
    assert sorted(degree(g, v) for v in range(4)) == [3, 3, 3, 3]


def test_octahedron_structure():
    g = octahedron()
    assert g.n == 6 and g.m == 12 and g.face_count == 8
    assert g.simple and g.triangulated
    assert g.walk(0) == [0, 8, 3]
    assert sorted(face_vertices(g, 0)) == [0, 1, 2]


def test_walk_consecutive_darts_chain():
    g = octahedron()
    for w in range(g.dart_walk_count):
        walk = g.walk(w)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            assert g.origin(b) == g.head(a)


def test_rotation_darts_origin():
    g = octahedron()
    for v in range(g.n):
        assert all(g.origin(d) == v for d in g.rotation_darts(v))
        assert len(g.rotation_darts(v)) == degree(g, v)


def test_loop_rotation():
    g = build_plane_graph(1, [(0, 0)], [[0, 0]])
    assert g.n == 1 and g.m == 1 and g.face_count == 2
    assert not g.simple
    assert degree(g, 0) == 2


def test_flags_are_checked():
    build_plane_graph(3, K3_EDGES, K3_ROTATION, flags={"simple": True})
    with pytest.raises(GraphFormatError):
        build_plane_graph(3, K3_EDGES, K3_ROTATION, flags={"simple": False})
    with pytest.raises(GraphFormatError):
        build_plane_graph(3, K3_EDGES, K3_ROTATION, flags={"triangulated": False})


@pytest.mark.parametrize(
    "n,edges,rotation",
    [
        # rotation row count mismatch
        (3, K3_EDGES, [[0, 2], [1, 0]]),
        # endpoint out of range
        (2, [(0, 5)], [[0], [0]]),
        # rotation references unknown edge
        (3, K3_EDGES, [[0, 7], [1, 0], [2, 1]]),
        # edge listed at a non-endpoint
        (3, [(0, 1)], [[0], [0], [0]]),
        # edge twice in the same rotation
        (2, [(0, 1)], [[0, 0], [0]]),
        # edge missing from one endpoint's rotation
        (3, K3_EDGES, [[0, 2], [1, 0], [2]]),
        # loop listed at the wrong vertex
        (2, [(0, 0)], [[0], [0]]),
        # non-spherical rotation system (genus one K4 twist)
        (4, K4_EDGES, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]),
    ],
)
def test_builder_rejects_bad_input(n, edges, rotation):
    with pytest.raises(GraphFormatError):
        build_plane_graph(n, edges, rotation)


def test_builder_rejects_empty_graph():
    with pytest.raises(GraphFormatError, match="^graph has no vertices$"):
        build_plane_graph(0, [], [])


def test_graph_format_error_is_value_error():
    assert issubclass(GraphFormatError, ValueError)


def test_disconnected_requires_faces():
    two = lambda: build_plane_graph(6, K3_EDGES + [(3, 4), (4, 5), (5, 3)],
                                    [[0, 2], [1, 0], [2, 1], [3, 5], [4, 3], [5, 4]])
    with pytest.raises(GraphFormatError):
        two()


def test_face_grouping_validation():
    edges = K3_EDGES + [(3, 4), (4, 5), (5, 3)]
    rotation = [[0, 2], [1, 0], [2, 1], [3, 5], [4, 3], [5, 4]]
    # both triangles share the unbounded region: 4 walks, one merged face
    g = build_plane_graph(6, edges, rotation, faces=[[0], [1, 3], [2]])
    assert g.face_count == 3
    assert not g.connected and g.component_count == 2
    for bad in ([[0], [1, 3]],          # does not cover walk 2
                [[0], [1, 3], [2], []], # empty face
                [[0], [1, 3], [2, 2]],  # walk grouped twice
                [[0], [1, 3], [2, 9]]): # unknown walk
        with pytest.raises(GraphFormatError):
            build_plane_graph(6, edges, rotation, faces=bad)


def test_isolated_vertices_get_walks():
    g = build_plane_graph(4, K3_EDGES, K3_ROTATION + [[]], faces=[[0], [1, 2]])
    assert walk_count(g) == 3
    assert list(g.lone_walk_vertex) == [3] and faces_of_vertex(g, 3) == [1]
    assert walk_vertices(g, 2) == [3]


def test_lone_vertex_faces_follow_the_grouping():
    # a lone vertex's face is the face whose group holds its walk
    graphs = [gen_nested_cycles(g, k) for g in (1, 2, 3, 5) for k in range(1, 6)]
    graphs += [random_nesting(seed, seed % 16) for seed in range(60)]
    lone_seen = 0
    for g in graphs:
        nd = g.dart_walk_count
        host = {
            g.lone_walk_vertex[w - nd]: f
            for f, walks in enumerate(face_walks(g))
            for w in walks
            if w >= nd
        }
        assert sorted(host) == [v for v in range(g.n) if g.rot_first[v] < 0]
        for v, f in host.items():
            assert faces_of_vertex(g, v) == [f]
        lone_seen += len(host)
    assert lone_seen > 100


def test_first_face_of_vertex_on_maps_with_lone_vertices():
    # the face of v's first dart, or the host face of a lone vertex, is the
    # first of v's faces in rotation order
    graphs = []
    seed = 0
    while len(graphs) < 100:
        g = random_plane_map(seed, 12, 4)
        seed += 1
        if len(g.lone_walk_vertex):
            graphs += [g, connect_components(g)]
    for g in graphs:
        assert [g.first_face_of_vertex(v) for v in range(g.n)] == [
            faces_of_vertex(g, v)[0] for v in range(g.n)
        ]


def test_radial_bfs_octahedron():
    g = octahedron()
    vertex_dist, face_dist = radial_bfs(g, source_vertex=0)
    assert vertex_dist.tolist() == [0, 2, 2, 2, 2, 4]
    assert sorted(face_dist.tolist()) == [1, 1, 1, 1, 3, 3, 3, 3]
    vertex_dist, _ = radial_bfs(g, source_face=0)
    assert vertex_dist.tolist() == [1, 1, 1, 3, 3, 3]


def test_radial_bfs_argument_check():
    g = octahedron()
    with pytest.raises(ValueError):
        radial_bfs(g)
    with pytest.raises(ValueError):
        radial_bfs(g, source_vertex=0, source_face=0)
    with pytest.raises(ValueError):
        radial_bfs(g, source_vertex=17)


def test_radial_bfs_crosses_components():
    # loops (girth 1), digons (girth 2) and lone vertices across components
    faces = 0
    for girth in (1, 2, 3, 4):
        for k in (1, 2, 3, 4):
            g = gen_nested_cycles(girth, k)
            for f in range(g.face_count):
                vertex_dist, _ = radial_bfs(g, source_face=f)
                assert ((vertex_dist + 1) // 2).tolist() == peel_numbers_by_union_find(g, f)
            faces += g.face_count
    assert faces == 56


# ---------------------------------------------------------------------------
# Radial BFS: hybrid frontier against the all-numpy reference
# ---------------------------------------------------------------------------


def assert_radial_matches_rounds(g, vertices=None, faces=None):
    """Every given source (default: all) gives bit-identical int64 distances."""
    sources = [dict(source_vertex=v) for v in (range(g.n) if vertices is None else vertices)]
    sources += [dict(source_face=f) for f in (range(g.face_count) if faces is None else faces)]
    for src in sources:
        (vertex_dist, face_dist), ref = radial_bfs(g, **src), radial_bfs_by_rounds(g, **src)
        assert vertex_dist.dtype == face_dist.dtype == np.int64
        assert np.array_equal(vertex_dist, ref[0]), src
        assert np.array_equal(face_dist, ref[1]), src


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=4),
)
def test_radial_bfs_matches_rounds_on_random_maps(seed, steps, components):
    # loops, parallel edges, lone vertices and nested components; a low
    # threshold moves levels between the two ways of expanding them
    g = random_plane_map(seed, steps, components)
    for threshold in (1, 2, 4, embed._PYTHON_FRONTIER):
        with mock.patch.object(embed, "_PYTHON_FRONTIER", threshold):
            assert_radial_matches_rounds(g)


def _wheel(k):
    edges = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    rotation = [list(range(k))]
    rotation += [[i - 1, k + (i - 2) % k, k + i - 1] for i in range(1, k + 1)]
    return build_plane_graph(k + 1, edges, rotation)


def _star(k):
    return build_plane_graph(k + 1, [(0, i) for i in range(1, k + 1)], [list(range(k))] + [[i] for i in range(k)])


@pytest.mark.parametrize("shape", [_wheel, _star])
def test_radial_bfs_matches_rounds_across_threshold(shape):
    # from the hub, k faces (wheel) or k leaves (star) form one level
    t = embed._PYTHON_FRONTIER
    for k in (t - 1, t, t + 1, 2 * t + 1, 4 * t):
        g = shape(k)
        vertex_dist, face_dist = radial_bfs(g, source_vertex=0)
        level = face_dist == 1 if shape is _wheel else vertex_dist == 2
        assert np.count_nonzero(level) == k
        assert_radial_matches_rounds(g, vertices=[0, 1, k])


def test_radial_bfs_matches_rounds_on_families():
    graphs = [gen_nested_cycles(g, k) for g in (1, 2, 5, 64) for k in (1, 4, 9)]
    graphs += [gen_lowerbound_H(4, 201), gen_lowerbound_H(9, 41), gen_prism_grid(3)]
    graphs += [gen_random_triangulation(n, n) for n in (4, 50, 3000)]
    graphs += [random_nesting(seed, 12) for seed in range(10)]
    for g in graphs:
        assert_radial_matches_rounds(g, vertices=[0, g.n - 1], faces=[0, g.face_count - 1])


# ---------------------------------------------------------------------------
# Vertex BFS: the radial BFS's level loop over the neighbour CSR
# ---------------------------------------------------------------------------


def assert_vertex_bfs_matches_oracle(g, sources=None):
    """From every given source (default: all), the oracle's distances as int64."""
    for v in range(g.n) if sources is None else sources:
        got = vertex_bfs(g, v)
        assert got.dtype == np.int64
        assert got.tolist() == bfs_distances(g, v), v


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=4),
)
def test_vertex_bfs_matches_oracle_on_random_maps(seed, steps, components):
    # loops, parallel edges and lone vertices; a map drawn with several
    # components leaves the others at -1, its connected form reaches them
    g = random_plane_map(seed, steps, components)
    for h in (g, connect_components(g)):
        for threshold in (1, 2, 4, embed._PYTHON_FRONTIER):
            with mock.patch.object(embed, "_PYTHON_FRONTIER", threshold):
                assert_vertex_bfs_matches_oracle(h)


def test_vertex_bfs_leaves_other_components_unreached():
    g = gen_nested_cycles(3, 2)
    assert not g.connected
    dist = vertex_bfs(g, 0)
    assert (dist < 0).any() and dist.tolist() == bfs_distances(g, 0)


@pytest.mark.parametrize("shape", [_wheel, _star])
@pytest.mark.parametrize("k", [39, 40, 41, 81])
def test_vertex_bfs_across_threshold(shape, k):
    # from the hub, the k rim vertices or leaves form one level
    g = shape(k)
    assert np.count_nonzero(vertex_bfs(g, 0) == 1) == k
    assert_vertex_bfs_matches_oracle(g)


def test_vertex_bfs_argument_check():
    with pytest.raises(ValueError, match="out of range"):
        vertex_bfs(octahedron(), 6)
    with pytest.raises(ValueError, match="out of range"):
        vertex_bfs(octahedron(), -1)


def test_verify_on_a_triangulation_builds_one_incidence_view(monkeypatch):
    # layers, ecc_H(s) and the peel count all read the graph's one view
    g = gen_random_triangulation(500, 3)
    cert = certify(g)
    h = from_document(to_document(g))
    calls = []
    build = embed._incidence
    monkeypatch.setattr(embed, "_incidence", lambda x: calls.append(x) or build(x))
    report = verify_certificate(cert.to_dict(), h)
    assert report.ok and [name for name, _, _ in report.checks] == ["eccentricity", "peel-count"]
    assert calls == [h]


def test_fse_bruteforce_builds_one_incidence_view(monkeypatch):
    g = gen_random_triangulation(200, 5)
    calls = []
    build = embed._incidence
    monkeypatch.setattr(embed, "_incidence", lambda h: calls.append(h) or build(h))
    fse_outerplanarity_bruteforce(g)
    assert g.face_count == 396
    assert calls == [g]


def test_augment_gives_h_its_own_incidence_view():
    g = gen_lowerbound_H(4, 7)
    ctx = compute_layers(g, choose_root(g))
    aug = augment(ctx)
    assert aug.H is not g and aug.H.m > g.m
    assert g._incidence is not None and aug.H._incidence is None
    assert_radial_matches_rounds(aug.H, vertices=[ctx.root], faces=[0])
    vf_indptr, vf_faces, vf_heads, fv_indptr, fv_verts = aug.H._incidence
    assert len(vf_indptr) == aug.H.n + 1 and len(fv_indptr) == aug.H.face_count + 1
    assert len(vf_faces) == len(vf_heads) == len(fv_verts) == 2 * aug.H.m
    for part in aug.H._incidence:
        assert not part.flags.writeable and part.dtype == np.int32


def test_deep_layers_take_few_numpy_rounds(monkeypatch):
    g = gen_lowerbound_H(4, 601)
    calls = []
    gather = embed._csr_gather
    monkeypatch.setattr(embed, "_csr_gather", lambda *a: calls.append(1) or gather(*a))
    ctx = compute_layers(g, choose_root(g))
    # one BFS level per vertex layer and one per face layer in between
    assert ctx.depth > 600
    assert len(calls) * 20 < ctx.depth


def test_connected_document_names_no_faces():
    # a document of a connected graph names no faces, and reloads the same way
    g = octahedron()
    assert g.face_count == 8 and list(g.face_of_walk) == list(range(8))
    doc = to_document(g)
    assert "faces" not in doc
    again = from_document(json.loads(json.dumps(doc)))
    assert again.face_count == 8 and list(again.face_of_walk) == list(range(8))


def test_package_checks_survive_optimize():
    # `python -O` strips assert statements; every invariant raises InvariantError
    found = []
    for path in sorted(Path(embed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "call,message",
    [
        ("b.add_chord(0, bad, 0, at)", "not a corner"),
        ("b.add_edge_at_corner_to_isolated(0, bad, new_vertex(b))", "not a corner"),
        ("b.add_edge_at_corner_to_isolated(0, at, 1)", "target vertex is not isolated"),
        ("b.add_isolated_pair(new_vertex(b), 2)", "pair endpoint is not isolated"),
    ],
    ids=["chord", "corner-to-isolated", "target-not-isolated", "isolated-pair"],
)
def test_builder_corner_checks_survive_optimize(call, message):
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from helpers import new_vertex\n"
        "from peelbound.embed import InvariantError, _Builder, build_plane_graph\n"
        f"b = _Builder.from_graph(build_plane_graph(3, {K3_EDGES}, {K3_ROTATION}))\n"
        "at = b.rot_next[1]  # dart 0 enters the corner that dart `at` leaves\n"
        "bad = at ^ 1\n"
        "try:\n"
        f"    {call}\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"False InvariantError {message}\n"


def test_insert_edge_splits_face():
    square = build_plane_graph(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[0, 3], [1, 0], [2, 1], [3, 2]]
    )
    assert square.face_count == 2
    f = next(f for f in range(2) if face_degree(square, f) == 4)
    g = insert_edge_in_face(square, 0, 2, f)
    assert g.m == 5 and g.face_count == 3
    assert sorted(face_degree(g, x) for x in range(3)) == [3, 3, 4]
    assert g.simple


def test_insert_edge_rejects_outsiders():
    g = octahedron()
    # vertex 5 is antipodal to 0: never on a shared face
    f = g.first_face_of_vertex(0)
    assert 5 not in face_vertices(g, f)
    with pytest.raises((ValueError, GraphFormatError)):
        insert_edge_in_face(g, 0, 5, f)


SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
SQUARE_ROTATION = [[0, 3], [1, 0], [2, 1], [3, 2]]


def _insert_cases():
    square = build_plane_graph(4, SQUARE_EDGES, SQUARE_ROTATION)
    # lone vertex 4 inside the face of walk 0
    square_lone = build_plane_graph(
        5, SQUARE_EDGES, SQUARE_ROTATION + [[]], faces=[[0, 2], [1]]
    )
    # lone vertices 3 and 4 share the face of walk 1
    tri_lone = build_plane_graph(
        5, K3_EDGES, K3_ROTATION + [[], []], faces=[[0], [1, 2, 3]]
    )
    nested_1, nested_2 = gen_nested_cycles(3, 1), gen_nested_cycles(3, 2)
    return {
        "split": [
            (square, 0, 2, 0, [(1,), (2,), (0,)]),
            (square, 1, 3, 1, [(0,), (2,), (1,)]),
        ],
        # the lone vertex stays with the side of the u->v dart, whichever
        # side the split walk's first dart ends on
        "split-keeps-lone": [
            (square_lone, 0, 2, 0, [(1,), (2, 3), (0,)]),
            (square_lone, 2, 0, 0, [(1,), (0, 3), (2,)]),
            (square_lone, 1, 3, 0, [(1,), (0, 3), (2,)]),
            (square_lone, 3, 1, 0, [(1,), (2, 3), (0,)]),
        ],
        "merge": [
            (nested_2, 1, 4, 1, [(1, 3), (2, 4), (0,)]),
            (nested_2, 5, 2, 1, [(1, 3), (2, 4), (0,)]),
        ],
        "spur": [
            (nested_1, 1, 0, 0, [(0, 2), (1,)]),
            (nested_1, 0, 2, 0, [(0, 2), (1,)]),
        ],
        "lone-lone": [
            (tri_lone, 3, 4, 1, [(0,), (1, 2)]),
            (tri_lone, 4, 3, 1, [(0,), (1, 2)]),
        ],
    }


@pytest.mark.parametrize("case", ["split", "split-keeps-lone", "merge", "spur", "lone-lone"])
def test_insert_edge_face_grouping(case):
    # expected groupings pinned from the per-insertion regrouping this
    # module used before the shared splice helper
    for g, u, v, f, expected in _insert_cases()[case]:
        out = insert_edge_in_face(g, u, v, f)
        assert out.m == g.m + 1 and sorted(edge_endpoints(out, g.m)) == sorted((u, v))
        assert face_walks(out) == expected, (case, u, v, f)


def _insert_corpus():
    graphs = [gen_nested_cycles(g, k) for g in range(1, 4) for k in range(1, 4)]
    graphs += [random_nesting(seed, seed % 8) for seed in range(40)]
    graphs += [gen_random_triangulation(12, seed) for seed in range(5)]
    graphs.append(_prism_band(1))
    for g in graphs:
        for f in range(g.face_count):
            verts = face_vertices(g, f)
            for u in verts:
                for v in verts:
                    yield g, u, v, f


def insert_corpus_digest():
    """sha256 over insert_edge_in_face on every (face, u, v) of a fixed corpus.

    Corpus: nested cycles g 1-3 x k 1-3, ``random_nesting(seed, seed % 8)``
    for seeds 0-39, ``gen_random_triangulation(12, seed)`` for seeds 0-4 and
    ``_prism_band(1)``; for every face f and every ordered pair (u, v) of
    its vertices (``face_vertices`` order, u == v included).  Each call adds
    ``json.dumps([u, v, f, result], sort_keys=True)`` to the hash, where
    result is ``graph_fingerprint`` of the new graph, or the exception's
    type name and message when the call raises ValueError.  Returns the hex
    digest, the call count and the error count.
    """
    h = hashlib.sha256()
    calls = errors = 0
    for g, u, v, f in _insert_corpus():
        try:
            result = graph_fingerprint(insert_edge_in_face(g, u, v, f))
        except ValueError as exc:
            result = [type(exc).__name__, str(exc)]
            errors += 1
        h.update(json.dumps([u, v, f, result], sort_keys=True).encode())
        calls += 1
    return h.hexdigest(), calls, errors


# frozen from the per-insertion regrouping (see insert_corpus_digest), and
# frozen again when a graph stopped keeping the order of a face's walks:
# random_nesting shuffles them, and face_vertices now reads them ascending
INSERT_DIGEST = "0e46907be7ceb541602a7745f0cc2d4920acd228f8b3a27e3891bb04e8e78657"
INSERT_CALLS, INSERT_ERRORS = 5654, 1110


def test_insert_edge_corpus_digest():
    assert insert_corpus_digest() == (INSERT_DIGEST, INSERT_CALLS, INSERT_ERRORS)


def test_connect_components_nested():
    g = gen_nested_cycles(4, 3)
    assert g.component_count == 5
    c = connect_components(g)
    assert c.connected
    assert c.n == g.n
    assert c.m == g.m + 4  # one bridge per extra component
    assert c.simple


def test_connect_components_noop_when_connected():
    g = octahedron()
    assert connect_components(g) is g


def _connection_fingerprint(c):
    return (
        list(c.eu), list(c.ev), list(c.rot_next), list(c.rot_first),
        face_walks(c), list(c.walk_flat), certify(c).to_dict(),
    )


def test_connect_components_matches_insertion_chain():
    corpus = [gen_nested_cycles(g, k) for g in range(1, 7) for k in range(1, 10)]
    corpus += [
        ring_chain(sizes, connected=False)
        for sizes in ([3], [3, 4], [5, 3, 7], [1, 2, 3], [6, 1, 6])
    ]
    corpus += [random_nesting(seed, seed % 16) for seed in range(150)]
    many_walks = all_lone = lone_joined = 0
    for g in corpus:
        nd = g.dart_walk_count
        for walks in face_walks(g):
            many_walks += len(walks) >= 3
            all_lone += len(walks) >= 2 and all(w >= nd for w in walks)
            lone_joined += walks[0] < nd <= walks[-1]  # a lone vertex joins a dart walk
        one_pass = connect_components(g)
        assert one_pass.connected
        assert _connection_fingerprint(one_pass) == _connection_fingerprint(
            connect_by_insertion(g)
        )
    assert many_walks >= 100 and all_lone >= 2 and lone_joined >= 50


def _connected_bytes(c):
    modes = ("girth", "diameter") if c.simple and c.n >= 14 else ("girth",)
    return dumps_plane_graph(c), [certify(c, method=m).to_dict() for m in modes]


def test_connect_components_matches_retracing():
    # the kept corner against a trace of the base walk before every join
    corpus = [random_plane_map(seed, 40, 2 + seed % 6) for seed in range(300)]
    corpus += [random_nesting(seed, 1 + seed % 16) for seed in range(150)]
    # faces of three or more lone vertices, alone and beside dart walks
    corpus += [build_plane_graph(k, [], [[]] * k, faces=[list(range(k))]) for k in (3, 4, 5)]
    corpus.append(build_plane_graph(
        6, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2], [], [], []],
        faces=[[0, 2, 3], [1, 4]],
    ))
    lone_faces = 0
    for g in corpus:
        nd = g.dart_walk_count
        lone_faces += any(len(walks) > 2 and walks[0] >= nd for walks in face_walks(g))
        assert _connected_bytes(connect_components(g)) == _connected_bytes(connect_by_retracing(g))
    assert lone_faces >= 3


def test_connect_components_on_one_crowded_face():
    g = triangles_in_one_face(1000)
    assert g.component_count == 1000 and g.face_count == 1001
    c = connect_components(g)
    assert c.connected and c.m == g.m + 999
    assert dumps_plane_graph(c) == dumps_plane_graph(connect_by_retracing(g))
    # every join keeps its corner, so 8000 walks in one face connect in
    # linear time (the retracing reference takes several seconds)
    g = triangles_in_one_face(8000)
    start = time.perf_counter()
    c = connect_components(g)
    assert time.perf_counter() - start < 1.0
    assert c.connected and c.m == g.m + 7999


def test_connect_components_single_pass(monkeypatch):
    g = gen_nested_cycles(4, 60)
    calls = {"finish": 0, "trace": 0}
    finish, trace = embed._finish_graph, embed._label_walks

    def counted_finish(*args, **kwargs):
        calls["finish"] += 1
        return finish(*args, **kwargs)

    def counted_trace(*args, **kwargs):
        calls["trace"] += 1
        return trace(*args, **kwargs)

    monkeypatch.setattr(embed, "_finish_graph", counted_finish)
    monkeypatch.setattr(embed, "_label_walks", counted_trace)
    c = connect_components(g)
    assert c.connected and c.m == g.m + 61
    assert calls["finish"] == 1
    assert calls["trace"] == 1


def test_connect_components_rejects_same_component_grouping():
    # both walks of the first triangle in one face: Euler holds, geometry not
    g = build_plane_graph(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        [[2, 0], [0, 1], [1, 2], [5, 3], [3, 4], [4, 5]],
        faces=[[0, 1], [2], [3]],
    )
    with pytest.raises(GraphFormatError):
        connect_components(g)


@pytest.mark.parametrize("girth", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_connected_nesting_agrees_with_networkx(girth, k):
    nx = pytest.importorskip("networkx")
    g = connect_components(gen_nested_cycles(girth, k))
    emb = nx.PlanarEmbedding()
    emb.add_nodes_from(range(g.n))
    for v in range(g.n):
        ref = None  # each half-edge goes clockwise after the previous one
        for d in g.rotation_darts(v):
            emb.add_half_edge(v, g.head(d), ccw=ref)
            ref = g.head(d)
    emb.check_structure()
    cut = nx.articulation_points(nx.Graph(emb.to_undirected()))
    assert choose_root(g) == min(set(range(g.n)) - set(cut))


def test_triangulate_preserving_embedding():
    c = connect_components(gen_nested_cycles(3, 3))
    t = triangulate_preserving_embedding(c)
    assert t.triangulated and t.simple
    assert t.m == 3 * t.n - 6
    # original edges keep their ids
    for e in range(c.m):
        assert edge_endpoints(t, e) == edge_endpoints(c, e)


def test_triangulate_requires_simple_connected():
    with pytest.raises(ValueError):
        triangulate_preserving_embedding(gen_nested_cycles(3, 2))
    loop = build_plane_graph(1, [(0, 0)], [[0, 0]])
    with pytest.raises(ValueError):
        triangulate_preserving_embedding(loop)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=120), st.integers(min_value=0, max_value=10**6))
def test_triangulation_euler(n, seed):
    g = gen_random_triangulation(n, seed)
    assert g.n - g.m + g.face_count == 2
    assert g.m == 3 * g.n - 6
    assert g.triangulated and g.simple and g.connected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_adjacency_csr_matches_rotations(n, seed):
    # the vertex-to-neighbour rows of the cached view, which vertex_bfs reads
    g = gen_random_triangulation(n, seed)
    indptr, _, heads, _, _ = embed._cached_incidence(g)
    for v in range(n):
        nbrs = sorted(g.head(d) for d in g.rotation_darts(v))
        assert sorted(heads[indptr[v]:indptr[v + 1]].tolist()) == nbrs


def test_dart_ends_contract():
    # dart d runs ends[d] -> ends[d ^ 1]; eu and ev are copies of the two
    # pair columns, read back through np.frombuffer as perfbench's worker does
    for g in label_corpus():
        ends = list(g.ends)
        assert len(ends) == 2 * g.m
        assert [g.origin(d) for d in range(2 * g.m)] == ends
        assert [g.head(d) for d in range(2 * g.m)] == [ends[d ^ 1] for d in range(2 * g.m)]
        eu, ev = g.eu, g.ev
        assert isinstance(eu, array) and eu.typecode == ev.typecode == "i"
        assert list(eu) == ends[0::2] and list(ev) == ends[1::2]
        u, v = (np.frombuffer(col, dtype=np.int32) for col in (eu, ev))
        assert u.tolist() == ends[0::2] and v.tolist() == ends[1::2]
        if g.m:
            eu[0] = -1  # a copy: the graph keeps its ends
            assert g.ends[0] == ends[0] and g.eu[0] == ends[0]


# ---------------------------------------------------------------------------
# Component labels (hook-and-jump against the frontier-BFS reference)
# ---------------------------------------------------------------------------


def checked_component_count(n, eu, ev):
    """The component count of components_by_bfs, once _label_components is
    seen to give every vertex the smallest vertex of its component."""
    comp, count = components_by_bfs(n, array("i", eu), array("i", ev))
    smallest = {}
    for v, c in enumerate(comp):
        smallest.setdefault(c, v)
    u, v = np.asarray(eu, dtype=np.int32), np.asarray(ev, dtype=np.int32)
    assert embed._label_components(n, u, v).tolist() == [smallest[c] for c in comp]
    return count


def assert_components_match_bfs(g):
    assert g.component_count == checked_component_count(g.n, g.eu, g.ev)


def test_components_match_bfs_on_nestings():
    corpus = [gen_nested_cycles(g, k) for g in range(1, 7) for k in range(1, 10)]
    corpus += [random_nesting(seed, seed % 16) for seed in range(150)]
    lone = many = 0
    for g in corpus:
        assert_components_match_bfs(g)
        lone += len(g.lone_walk_vertex) > 0
        many += g.component_count >= 5
    assert lone >= 50 and many >= 50


def test_components_match_bfs_on_relabelled_thinnings():
    rng = random.Random(8)
    for seed in range(12):
        thin = thin_random_triangulation(60 + 40 * seed, seed)
        perm = list(range(thin.n))
        rng.shuffle(perm)
        moved = relabel(thin, perm)
        assert_components_match_bfs(moved)
        # a random half of its edges leaves many components, lone vertices too
        keep = np.flatnonzero(np.random.default_rng(seed).random(moved.m) < 0.5)
        eu, ev = np.asarray(moved.eu)[keep], np.asarray(moved.ev)[keep]
        assert checked_component_count(moved.n, eu, ev) > 1


def _permuted_walk(n, closed, seed):
    order = np.random.default_rng(seed).permutation(n).astype(np.int32)
    eu, ev = order[:-1], order[1:]
    if closed:
        eu, ev = np.r_[eu, order[-1]], np.r_[ev, order[0]]
    return n, eu.tolist(), ev.tolist()


@pytest.mark.parametrize(
    "n,eu,ev",
    [
        _permuted_walk(10**5, closed=False, seed=1),
        _permuted_walk(10**5, closed=True, seed=2),
        (1, [], []),
        (1, [0, 0], [0, 0]),  # two loops
        (4, [2, 2, 1, 1], [2, 3, 3, 3]),  # a loop, a multi-edge, lone 0
        (6, [5, 5, 5], [4, 4, 3]),  # triple edge; 0, 1, 2 isolated
        (7, [6, 4, 2, 0], [5, 3, 1, 6]),  # descending ids across components
        (0, [], []),
    ],
    ids=["path", "cycle", "K1", "loops", "loop-multi", "isolated", "descending", "empty"],
)
def test_components_match_bfs_on_edge_lists(n, eu, ev):
    checked_component_count(n, eu, ev)


def test_finish_graph_labels_without_bfs_rounds(monkeypatch):
    g = gen_lowerbound_H(4, 601)
    calls = {"gather": 0}
    gather = embed._csr_gather

    def counted_gather(*args, **kwargs):
        calls["gather"] += 1
        return gather(*args, **kwargs)

    monkeypatch.setattr(embed, "_csr_gather", counted_gather)
    h = embed._finish_graph(g.n, g.ends, g.rot_next, g.rot_first)
    assert h.connected
    assert calls["gather"] == 0


# ---------------------------------------------------------------------------
# Walks (pointer doubling and list ranking against the loop reference)
# ---------------------------------------------------------------------------


def walk_triple(rot_next):
    """(walk_indptr, walk_flat, walk_of_dart) as lists, from the numpy path."""
    walk_of, count, _ = embed._label_walks(rot_next)
    walk_of = embed._int_array(walk_of)
    indptr, flat = embed._walk_order(rot_next, walk_of, count)
    return [list(indptr), list(flat), list(walk_of)]


def assert_walks_match_loop(rot_next):
    ref = trace_walks_by_loop(rot_next, len(rot_next))
    assert walk_triple(rot_next) == [list(x) for x in ref]


@st.composite
def rotation_systems(draw):
    """rot_next of random edges (loops and multi-edges too), any slot order.

    Most of these are not spherical; the walks are orbits all the same.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    ends = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=24))
    at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        at[u].append(2 * e)
        at[v].append(2 * e + 1)
    rot_next = array("i", [0]) * (2 * len(edges))
    for darts in at:
        darts = draw(st.permutations(darts))
        for a, b in zip(darts, darts[1:] + darts[:1]):
            rot_next[a] = b
    return rot_next


@settings(max_examples=200, deadline=None)
@given(rotation_systems())
def test_walks_match_loop_on_rotation_systems(rot_next):
    assert_walks_match_loop(rot_next)


@pytest.mark.parametrize(
    "n,edges,rotation,sizes",
    [
        # a path: one walk over both darts of every edge
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [[0], [0, 1], [1, 2], [2, 3], [3]], [8]),
        # a star, then a loop with a pendant edge
        (4, [(0, 1), (0, 2), (0, 3)], [[0, 1, 2], [0], [1], [2]], [6]),
        (2, [(0, 0), (0, 1)], [[0, 1, 0], [1]], [1, 3]),
        (1, [(0, 0), (0, 0)], [[0, 1, 1, 0]], [1, 2, 1]),
        # an edgeless graph has no dart walk, only its lone vertex
        (1, [], [[]], []),
    ],
    ids=["path", "star", "loop-pendant", "nested-loops", "edgeless"],
)
def test_walks_match_loop_on_small_graphs(n, edges, rotation, sizes):
    g = build_plane_graph(n, edges, rotation)
    assert_walks_match_loop(g.rot_next)
    assert np.diff(g.walk_indptr).tolist() == sizes
    assert g.dart_walk_count == len(sizes)


def test_walks_match_loop_on_families():
    corpus = [gen_random_triangulation(n, 3) for n in (4, 50, 3000)]
    corpus += [gen_lowerbound_H(4, 51), gen_nested_cycles(6, 9), gen_prism_grid(2)]
    corpus += [random_nesting(seed, seed % 16) for seed in range(40)]
    corpus += [connect_components(g) for g in corpus if not g.connected]
    for g in corpus:
        ref = trace_walks_by_loop(g.rot_next, 2 * g.m)
        assert [g.walk_indptr, g.walk_flat, g.walk_of_dart] == list(ref)


def label_corpus():
    """Maps with loops, pendant edges and lone vertices, triangulations, families."""
    corpus = [random_plane_map(seed, seed % 25, 1 + seed % 3) for seed in range(300)]
    corpus += [gen_random_triangulation(n, seed) for n, seed in ((4, 1), (5, 2), (50, 3), (3000, 4))]
    corpus += [random_plane_map(50, 2), random_plane_map(38, 4)]  # triangulated, not simple
    corpus += [gen_lowerbound_H(4, 51), gen_nested_cycles(6, 9), gen_prism_grid(3)]
    corpus.append(build_plane_graph(1, [(0, 0)], [[0, 0]]))  # face_next^3 = id, two fixed darts
    return corpus + [connect_components(g) for g in corpus if not g.connected]


def test_walk_labels_match_pointer_doubling():
    # the triangle route runs exactly when every orbit has three darts; an
    # orbit of one dart (an empty loop) or two (a pendant edge) takes the
    # doubling rounds
    routes = {"triangles": 0, "one dart": 0, "two darts": 0}
    for g in label_corpus():
        sizes = np.diff(trace_walks_by_loop(g.rot_next, 2 * g.m)[0])
        walk_of, count, all_triangles = embed._label_walks(g.rot_next)
        ref_walk_of, ref_count = label_walks_by_doubling(g.rot_next)
        assert walk_of.tolist() == ref_walk_of.tolist() and count == ref_count
        triangles = g.m > 0 and (sizes == 3).all()
        assert all_triangles == (triangles or g.m == 0)
        routes["triangles"] += bool(triangles)
        routes["one dart"] += bool((sizes == 1).any())
        routes["two darts"] += bool((sizes == 2).any())
    assert min(routes.values()) >= 5, routes


def test_triangulated_matches_its_definition():
    # the flag _label_walks returns, against walk sizes counted afresh
    seen = set()
    for g in label_corpus():
        sizes = np.bincount(np.frombuffer(g.walk_of_dart, dtype=np.int32), minlength=g.dart_walk_count)
        one_walk_per_face = g.face_count == g.dart_walk_count + len(g.lone_walk_vertex)
        expected = g.m > 0 and not g.lone_walk_vertex and one_walk_per_face and (sizes == 3).all()
        assert g.triangulated == expected
        seen.add(g.triangulated)
    assert seen == {True, False}


def test_component_count_matches_bfs_on_label_corpus():
    counts = set()
    for g in label_corpus():
        assert g.component_count == components_by_bfs(g.n, g.eu, g.ev)[1]
        counts.add(g.component_count)
    assert {1, 2, 3} <= counts


def view_corpus():
    """(graph as built, the same graph loaded from its text) pairs."""
    graphs = [random_plane_map(seed, seed % 25, 1 + seed % 3) for seed in range(120)]
    graphs += [gen_random_triangulation(n, seed) for n, seed in ((4, 1), (50, 3), (2000, 4))]
    graphs += [random_plane_map(50, 2), random_plane_map(38, 4)]
    graphs += [gen_lowerbound_H(4, 21), connect_components(gen_nested_cycles(5, 4)), gen_prism_grid(2)]
    graphs.append(build_plane_graph(3, [(0, 1)], [[0], [0], []], faces=[[0, 1]]))  # a lone vertex
    # a triangulation whose document lists its faces out of walk order
    doc = to_document(gen_random_triangulation(30, 7))
    doc["faces"] = [[w] for w in random.Random(7).sample(range(56), 56)]
    graphs.append(from_document(doc))
    return [(g, loads_plane_graph(dumps_plane_graph(g))) for g in graphs]


def test_sort_free_view_matches_argsort_view():
    lone = permuted = triangulated = 0
    for built, loaded in view_corpus():
        assert loaded._slot_darts is not None
        ref = sorted_view(incidence_by_sort(built))
        assert sorted_view(embed._incidence(loaded)) == ref
        assert sorted_view(embed._incidence(built)) == ref
        lone += len(built.lone_walk_vertex) > 0
        triangulated += built.triangulated
        permuted += built.triangulated and list(built.face_of_walk) != list(range(built.face_count))
    assert lone >= 20 and triangulated >= 6 and permuted == 1


def test_view_releases_the_slot_darts():
    g = loads_plane_graph(dumps_plane_graph(gen_random_triangulation(100, 1)))
    indptr, darts = g._slot_darts
    assert np.diff(indptr).tolist() == [len(g.rotation_darts(v)) for v in range(g.n)]
    assert darts.tolist() == [d for v in range(g.n) for d in g.rotation_darts(v)]
    vf_indptr, _, vf_heads, _, _ = embed._cached_incidence(g)
    assert g._slot_darts is None and vf_indptr is indptr
    assert all(part.dtype == np.int32 and not part.flags.writeable for part in g._incidence)
    assert vf_heads.tolist() == [g.head(d) for d in darts.tolist()]
    assert gen_random_triangulation(100, 1)._slot_darts is None  # built: nothing kept


def assert_faces_match_networkx(nx, g):
    """Every walk is the face networkx traces from the walk's first dart.

    networkx reads the rotation counterclockwise and keeps the face on its
    right, so each half-edge goes in clockwise after the previous one.
    """
    emb = nx.PlanarEmbedding()
    for v in range(g.n):
        ref = None
        for d in g.rotation_darts(v):
            emb.add_half_edge(v, g.head(d), cw=ref)
            ref = g.head(d)
    emb.check_structure()
    faces = [emb.traverse_face(g.origin(walk[0]), g.head(walk[0])) for walk in trace_faces(g)]
    assert faces == [walk_vertices(g, w) for w in range(walk_count(g))]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_random_triangulation(300, 5),
        lambda: thin_random_triangulation(200, 4),
        lambda: thin_random_triangulation(120, 9, frac=0.5),
        lambda: gen_lowerbound_H(4, 21),
        lambda: gen_prism_grid(1),
        lambda: connect_components(gen_nested_cycles(5, 4)),
        lambda: build_plane_graph(4, [(0, 1), (0, 2), (0, 3)], [[0, 1, 2], [0], [1], [2]]),
    ],
)
def test_faces_match_networkx(make):
    nx = pytest.importorskip("networkx")
    assert_faces_match_networkx(nx, make())


def count_walk_orders(monkeypatch):
    calls = []
    order = embed._walk_order

    def counted_order(*args):
        calls.append(args)
        return order(*args)

    monkeypatch.setattr(embed, "_walk_order", counted_order)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_certify_never_orders_walks_of_a_triangulation(monkeypatch, seed):
    g = gen_random_triangulation(2000, seed)
    calls = count_walk_orders(monkeypatch)
    certify(g)
    certify(g, method="diameter")
    assert calls == []


def test_walk_order_is_built_once_on_first_read(monkeypatch):
    g = gen_lowerbound_H(4, 51)
    calls = count_walk_orders(monkeypatch)
    certify(g)  # the augmentation reads the walks of g
    assert len(calls) == 1
    ref = trace_walks_by_loop(g.rot_next, 2 * g.m)
    assert [g.walk_indptr, g.walk_flat, g.walk_of_dart] == list(ref)
    trace_faces(g)
    assert len(calls) == 1


def test_build_plane_graph_refuses_a_float_count():
    # sound edges and rotation, then a rotation with a slot at a non-endpoint
    for rotation in (K3_ROTATION, [[0, 2], [1, 0], [2, 0]]):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            build_plane_graph(3.0, K3_EDGES, rotation)
