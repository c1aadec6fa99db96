"""Brute-force oracles: distances, deletion peels, fse, fences, certificates."""

import math
import unittest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    bfs_distances,
    eccentricities_by_bfs,
    eccentricity,
    face_darts,
    girth_bruteforce,
    is_fence_by_union_find,
    layer_numbers_by_union_find,
    peel_numbers_by_union_find,
    random_plane_map,
    simple_bound_check,
    thin_random_triangulation,
)
from peelbound import embed, oracle
from peelbound.embed import InvariantError, build_plane_graph, connect_components, radial_bfs
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.oracle import (
    OracleBudgetError,
    all_eccentricities,
    diameter_exact,
    fence_girth_bruteforce,
    fse_outerplanarity_bruteforce,
    full_oracle_report,
    radius_exact,
    verify_certificate,
)
from peelbound.peels import (
    augment,
    choose_root,
    compute_layers,
    face_peel_counts,
    peel_count_for_outerface,
)
from test_embed import octahedron
from test_peels import run_under_optimize


class DistanceOracleTests(unittest.TestCase):
    def setUp(self):
        self.octa = octahedron()

    def test_bfs_distances(self):
        self.assertEqual(bfs_distances(self.octa, 0), [0, 1, 1, 1, 1, 2])

    def test_eccentricities(self):
        self.assertEqual(all_eccentricities(self.octa), [2] * 6)
        self.assertEqual(eccentricity(self.octa, 3), 2)

    def test_radius_and_diameter(self):
        self.assertEqual(radius_exact(self.octa), (0, 2))
        self.assertEqual(diameter_exact(self.octa), 2)

    def test_path_graph(self):
        path = build_plane_graph(
            4, [(0, 1), (1, 2), (2, 3)], [[0], [0, 1], [1, 2], [2]]
        )
        self.assertEqual(bfs_distances(path, 0), [0, 1, 2, 3])
        self.assertEqual(radius_exact(path), (1, 2))
        self.assertEqual(diameter_exact(path), 3)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=3),
)
def test_all_eccentricities_match_per_vertex_bfs_on_random_maps(seed, steps, components):
    # loops, parallel edges, lone vertices and n = 1; maps of 2-3
    # components raise as the per-vertex loop does, then are connected
    g = random_plane_map(seed, steps, components)
    if not g.connected:
        with pytest.raises(ValueError) as batched:
            all_eccentricities(g)
        with pytest.raises(ValueError) as looped:
            eccentricities_by_bfs(g)
        assert str(batched.value) == str(looped.value)
        g = connect_components(g)
    assert all_eccentricities(g) == eccentricities_by_bfs(g)


@pytest.mark.parametrize("block", [64, 128])
def test_bit_bfs_blocks_meet_at_the_seam(monkeypatch, block):
    # 150 vertices and 296 faces: several blocks, the last one partial
    g = gen_random_triangulation(150, 1)
    want_faces = [peel_count_for_outerface(g, f) for f in range(g.face_count)]
    want_eccs = eccentricities_by_bfs(g)
    monkeypatch.setattr(embed, "_BIT_BLOCK", block)
    assert face_peel_counts(g) == want_faces
    assert all_eccentricities(g) == want_eccs


def connected_nested(g, k):
    return connect_components(gen_nested_cycles(g, k))


def all_faces_counts(g):
    return oracle._deletion_counts(oracle._face_bit_tables(g))


def union_find_count(g, f):
    return max(peel_numbers_by_union_find(g, f), default=0)


def test_deletion_layers_frozen():
    c33 = connected_nested(3, 3)
    assert layer_numbers_by_union_find(c33, 10) == [4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0]


def test_deletion_peels_frozen():
    assert peel_numbers_by_union_find(octahedron(), 0) == [1, 1, 1, 2, 2, 2]
    c33 = connected_nested(3, 3)
    assert all_faces_counts(c33) == [3, 4, 3, 4]
    assert [face_darts(c33, f) for f in range(c33.face_count)] == [
        [0, 2, 4, 20, 7, 11, 9, 21],
        [1, 5, 3, 18, 19],
        [6, 8, 10, 22, 13, 17, 15, 23],
        [12, 14, 16, 24, 25],
    ]


def test_fse_bruteforce_nested43():
    res = fse_outerplanarity_bruteforce(gen_nested_cycles(4, 3))
    assert res.value == 3
    assert res.face == 0
    assert res.per_face == [3, 4, 3, 4]
    assert face_darts(connected_nested(4, 3), res.face) == [0, 2, 4, 6, 26, 9, 15, 13, 11, 27]


def test_fse_value_is_min_over_faces():
    res = fse_outerplanarity_bruteforce(gen_lowerbound_H(4, 3))
    assert res.value == min(res.per_face)
    assert res.per_face[res.face] == res.value
    assert res.face == res.per_face.index(res.value)


def test_fse_threads_agree():
    g = gen_nested_cycles(5, 3)
    seq = fse_outerplanarity_bruteforce(g, threads=1)
    par = fse_outerplanarity_bruteforce(g, threads=4)
    assert seq.per_face == par.per_face and seq.face == par.face


def test_fse_bruteforce_builds_bit_tables_once(monkeypatch):
    # every face from one set of arrays
    g = gen_random_triangulation(200, 5)
    calls = []
    build = oracle._face_bit_tables
    monkeypatch.setattr(oracle, "_face_bit_tables", lambda h: calls.append(h) or build(h))
    fse_outerplanarity_bruteforce(g)
    assert g.face_count == 396
    assert calls == [g]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=3),
)
def test_all_faces_deletion_matches_single_face_rounds(seed, steps, components):
    # loops, parallel edges, lone vertices and n = 1; maps of 2-3
    # components in their connected form, then as drawn; the reference
    # runs one face's rounds at a time in a union-find
    g = random_plane_map(seed, steps, components)
    for h in ([connect_components(g)] if components > 1 else []) + [g]:
        assert all_faces_counts(h) == [union_find_count(h, f) for f in range(h.face_count)]


@pytest.mark.parametrize(
    "g",
    [
        gen_lowerbound_H(4, 11),
        gen_lowerbound_H(9, 5),
        connected_nested(4, 9),
        connected_nested(1, 3),  # loops
        connected_nested(2, 3),  # parallel edges
        gen_prism_grid(2),
        build_plane_graph(1, [], [[]]),
        build_plane_graph(2, [(0, 1)], [[0], [0]]),
        build_plane_graph(1, [(0, 0)], [[0, 0]]),
        build_plane_graph(2, [(0, 1), (0, 1), (0, 1)], [[0, 1, 2], [2, 1, 0]]),
    ],
    ids=[
        "H-4-11", "H-9-5", "nested-4-9", "loops", "digons", "prism-2", "K1", "K2", "loop", "3-bond"
    ],
)
def test_all_faces_deletion_on_families(g):
    assert all_faces_counts(g) == [union_find_count(g, f) for f in range(g.face_count)]


def seam_faces(g, block):
    """Faces on both sides of each block seam, the last face and a spread."""
    seams = range(block, g.face_count, block)
    return sorted({*range(0, g.face_count, 97), g.face_count - 1, *seams, *(s - 1 for s in seams)})


def test_all_faces_deletion_runs_two_blocks():
    # the union-find on all 1196 faces would take seconds: a sample of them
    g = gen_random_triangulation(600, 2)
    assert g.face_count == 1196 > embed._BIT_BLOCK  # a full block and a partial one
    counts = all_faces_counts(g)
    assert counts == face_peel_counts(g)
    for f in seam_faces(g, embed._BIT_BLOCK):
        assert counts[f] == union_find_count(g, f), f


@pytest.mark.parametrize("block", [64, 128])
def test_all_faces_deletion_blocks_meet_at_the_seam(monkeypatch, block):
    g = thin_random_triangulation(300, 4)  # merged faces: rows of several darts
    want = face_peel_counts(g)
    monkeypatch.setattr(embed, "_BIT_BLOCK", block)
    assert g.face_count > 2 * block
    counts = all_faces_counts(g)
    assert counts == want
    for f in seam_faces(g, block):
        assert counts[f] == union_find_count(g, f), f


def test_all_faces_deletion_reads_no_incidence_view(monkeypatch):
    def refuse(g):
        raise AssertionError("the incidence view was read")

    monkeypatch.setattr(embed, "_incidence", refuse)
    monkeypatch.setattr(embed, "_cached_incidence", refuse)
    monkeypatch.setattr(oracle, "_cached_incidence", refuse)
    g = gen_random_triangulation(60, 8)
    assert g._incidence is None
    assert all_faces_counts(g) == [union_find_count(g, f) for f in range(g.face_count)]
    assert g._incidence is None


@pytest.mark.parametrize("forge", ["vertex-on-no-face", "no-face-floods"])
def test_all_faces_lost_outer_region_raises_invariant_error(monkeypatch, forge):
    build = oracle._face_bit_tables

    def forged(g):
        t = build(g)
        if forge == "vertex-on-no-face":  # vertex 5 lists no face
            start, stop = t.vf_indptr[5], t.vf_indptr[6]
            keep = np.r_[0:start, stop : len(t.vf_faces)]
            indptr = t.vf_indptr.copy()
            indptr[6:] -= stop - start
            return t._replace(vf_indptr=indptr, vf_faces=t.vf_faces[keep])
        return t._replace(sides=np.zeros_like(t.sides))  # every edge between faces 0 and 0

    monkeypatch.setattr(oracle, "_face_bit_tables", forged)
    with pytest.raises(InvariantError, match="outer region lost all boundary vertices"):
        fse_outerplanarity_bruteforce(octahedron())


def test_lost_outer_region_survives_optimize():
    script = (
        "from peelbound import oracle\n"
        "from peelbound.embed import InvariantError\n"
        "from peelbound.gen import gen_random_triangulation\n"
        "build = oracle._face_bit_tables\n"
        "def forged(g):\n"
        "    t = build(g)\n"
        "    cut = t.vf_indptr[1]\n"
        "    return t._replace(vf_indptr=(t.vf_indptr - cut).clip(0), vf_faces=t.vf_faces[cut:])\n"
        "oracle._face_bit_tables = forged\n"
        "try:\n"
        "    oracle.fse_outerplanarity_bruteforce(gen_random_triangulation(12, 3))\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False InvariantError outer region lost all boundary vertices: corrupt embedding\n"
    )


def test_girth_values():
    assert girth_bruteforce(octahedron()) == 3
    assert girth_bruteforce(gen_nested_cycles(4, 3)) == 4
    tree = build_plane_graph(3, [(0, 1), (1, 2)], [[0], [0, 1], [1]])
    assert girth_bruteforce(tree) == math.inf


def test_fence_girth_values():
    assert fence_girth_bruteforce(octahedron()) == 4
    assert fence_girth_bruteforce(gen_nested_cycles(5, 3)) == 5
    # a triangulation's faces are not fences; K4 has no separating cycle
    assert fence_girth_bruteforce(gen_random_triangulation(4, 0)) == math.inf


INF = math.inf
# fence girth of connected random_plane_map(seed, seed % 25, 1 + seed % 3),
# seeds 0-59: loops (1), digons (2) and lone vertices joined to a component
FENCE_GIRTH_MAPS = [
    INF, INF, INF, INF, INF, 1, 1, 1, INF, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1,
    1, INF, 1, 1, 1, INF, INF, INF, INF, INF, 1, INF, INF, INF, 1, 1, 1, 1, 1, INF,
    1, 1, INF, 1, 1, 1, 1, 2, 1, 1, INF, INF, INF, INF, INF, INF, 2, INF, 1, 1,
]


def test_fence_girth_frozen_on_random_maps():
    got = []
    for seed in range(60):
        g = random_plane_map(seed, seed % 25, 1 + seed % 3)
        g = g if g.connected else connect_components(g)
        assert g.n <= 60
        got.append(fence_girth_bruteforce(g))
    assert got == FENCE_GIRTH_MAPS


def test_fence_side_test_matches_union_find():
    graphs = [octahedron(), gen_prism_grid(1), gen_lowerbound_H(4, 3)]
    graphs += [connect_components(gen_nested_cycles(g, 3)) for g in (1, 2, 5)]
    graphs += [random_plane_map(seed, 8 + seed % 9) for seed in range(20)]
    maps = [random_plane_map(seed, 6 + seed % 30, 1 + seed % 3) for seed in range(1000, 1300)]
    assert sum(not g.simple for g in maps) >= 250
    answers = []
    for g in graphs + maps:
        g = g if g.connected else connect_components(g)
        darts_at, head, rot_next = oracle._dart_lists(g)
        for length in range(1, 7):
            for cycle in oracle._simple_cycles_of_length(darts_at, head, length, [10**6]):
                fence = oracle._is_fence(rot_next, head, g.n, cycle)
                assert fence == is_fence_by_union_find(g, cycle), (g, cycle)
                answers.append((length, fence))
    assert {length for length, fence in answers if fence} >= {1, 2, 3, 4, 5, 6}
    assert sum(fence for _, fence in answers) >= 500
    assert sum(not fence for _, fence in answers) >= 500


def test_fence_girth_of_disconnected_maps_matches_union_find():
    maps = [random_plane_map(seed, 6 + seed % 20, 2 + seed % 3) for seed in range(300)]
    got, want = [], []
    for g in maps:
        assert not g.connected and g.n <= 60
        got.append(fence_girth_bruteforce(g))
        want.append(helpers.fence_girth_by_union_find(g))
    assert got == want
    assert {1, 2, math.inf} <= set(got)


def test_fence_girth_labels_no_faces(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the fence search reads no face labels")

    prism, h = gen_prism_grid(2), gen_lowerbound_H(9, 5)
    monkeypatch.setattr(embed, "_label_components", forbidden)
    monkeypatch.setattr(oracle, "_face_bit_tables", forbidden)
    # oracle imports no _label_components; set it so that a new import trips too
    monkeypatch.setattr(oracle, "_label_components", forbidden, raising=False)
    assert fence_girth_bruteforce(prism) == 4
    assert fence_girth_bruteforce(h) == 9


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_lowerbound_family_girths(g):
    h = gen_lowerbound_H(g, 3)
    assert girth_bruteforce(h) == g
    assert fence_girth_bruteforce(h) == g


def test_fence_girth_guard_and_budget():
    with pytest.raises(ValueError):
        fence_girth_bruteforce(gen_random_triangulation(61, 0))
    with pytest.raises(OracleBudgetError):
        fence_girth_bruteforce(gen_random_triangulation(40, 2), budget=50)


def test_simple_bound_report_frozen():
    rep = simple_bound_check(gen_random_triangulation(30, 7))
    assert (rep.bound, rep.outerface, rep.realized) == (3, 0, 3)
    assert (rep.center, rep.radius, rep.radius_triangulated) == (0, 2, 2)


def test_simple_bound_rejects_nonsimple():
    loop = build_plane_graph(1, [(0, 0)], [[0, 0]])
    with pytest.raises(ValueError):
        simple_bound_check(loop)


def test_verify_certificate_pass_and_fail():
    g = gen_random_triangulation(50, 11)
    from peelbound.center import certify

    cert = certify(g)
    rep = verify_certificate(cert, g)
    assert rep.ok, rep.checks
    assert any(name == "eccentricity" for name, _, _ in rep.checks)
    assert any(name == "peel-count" for name, _, _ in rep.checks)

    forged = dict(cert.to_dict())
    forged["bound"] = 0
    bad = verify_certificate(forged, g)
    assert not bad.ok
    failed = [name for name, passed, _ in bad.checks if not passed]
    assert "eccentricity" in failed


@pytest.mark.parametrize("g", [gen_lowerbound_H(4, 31), gen_nested_cycles(6, 9)])
def test_verify_certificate_reads_eccentricity_in_h(g):
    # the hub chords of H put the center closer to everything than in G
    from peelbound.center import certify

    g = connect_components(g)
    aug = augment(compute_layers(g, choose_root(g)))
    s = certify(g).center
    ecc = eccentricity(aug.H, s)
    assert eccentricity(g, s) > ecc
    for bound in (ecc, ecc - 1):
        rep = verify_certificate({"s": s, "bound": bound}, g)
        assert rep.checks == [("eccentricity", bound == ecc, f"ecc_H({s}) = {ecc} vs bound {bound}")]


@pytest.mark.parametrize("field,value,check", [("n", 51, "size"), ("s", 50, "center-range"), ("s", -1, "center-range")])
def test_verify_certificate_checks_fields_before_the_rebuild(monkeypatch, field, value, check):
    g = gen_random_triangulation(50, 11)
    monkeypatch.setattr("peelbound.peels.choose_root", lambda h: pytest.fail("H was rebuilt"))
    rep = verify_certificate({"s": 0, "bound": 10, "n": 50, field: value}, g)
    assert [(name, ok) for name, ok, _ in rep.checks] == [(check, False)]


def test_verify_certificate_serialized_keys():
    g = gen_random_triangulation(30, 4)
    from peelbound.center import certify

    doc = certify(g).to_dict()
    assert set(doc) >= {"s", "bound", "g", "case", "outerface"}
    rep = verify_certificate(doc, g)
    assert rep.ok


@pytest.mark.parametrize(
    "doc,message",
    [
        # was ok=True, read as "ecc_H(1.7) = 3 vs bound 14.9"
        ({"s": 1.7, "bound": 14.9, "outerface": True},
         "certificate field 's' must be an integer, got 1.7"),
        ({"s": 1, "bound": "14"}, "certificate field 'bound' must be an integer, got '14'"),
    ],
)
def test_verify_certificate_rejects_non_integer_fields(doc, message):
    g = gen_random_triangulation(40, 3)
    with pytest.raises(ValueError) as exc:
        verify_certificate(doc, g)
    assert str(exc.value) == message


def test_verify_certificate_checks_certificate_objects():
    from peelbound.center import certify

    g = gen_random_triangulation(30, 4)
    cert = certify(g)
    cert.bound = 14.9
    with pytest.raises(ValueError) as exc:
        verify_certificate(cert, g)
    assert str(exc.value) == "certificate field 'bound' must be an integer, got 14.9"


def test_full_oracle_report_smoke():
    rep = full_oracle_report(gen_nested_cycles(3, 3))
    assert rep.n == 11
    assert rep.fse_outerplanarity == 3
    assert rep.radius <= rep.diameter <= 2 * rep.radius
    assert rep.fence_girth == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=5, max_value=80), st.integers(min_value=0, max_value=10**6))
def test_peel_routes_agree(n, seed):
    g = thin_random_triangulation(n, seed)
    counts = all_faces_counts(g)
    for f in range(min(g.face_count, 6)):
        vertex_dist, _ = radial_bfs(g, source_face=f)
        assert int(max((vertex_dist + 1) // 2)) == counts[f]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=4, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_layer_routes_agree(n, seed):
    g = gen_random_triangulation(n, seed)
    vertex_dist, _ = radial_bfs(g, source_vertex=0)
    assert (vertex_dist // 2).tolist() == layer_numbers_by_union_find(g, 0)


def test_oracle_checks_raise_invariant_error(monkeypatch):
    g = gen_random_triangulation(30, 7)
    monkeypatch.setattr(helpers, "_deletion_counts", lambda t: [10**6] * t.face_count)
    with pytest.raises(InvariantError, match="exceeds certified bound"):
        simple_bound_check(g)
    monkeypatch.setattr(oracle, "fse_outerplanarity_bruteforce", lambda g: None)
    monkeypatch.setattr(oracle, "all_eccentricities", lambda g: [1, 3])
    with pytest.raises(InvariantError, match="radius 1 and diameter 3"):
        full_oracle_report(g)


def test_peel_route_disagreement_survives_optimize():
    # the radial route miscounts face 5; n = 240 is above the old n <= 200
    # limit, past which the cross-check used not to run
    script = (
        "from peelbound import oracle, peels\n"
        "from peelbound.embed import InvariantError\n"
        "from peelbound.gen import gen_random_triangulation\n"
        "radial = peels.face_peel_counts\n"
        "peels.face_peel_counts = lambda g: [c + (f == 5) for f, c in enumerate(radial(g))]\n"
        "for n in (12, 240):\n"
        "    try:\n"
        "        oracle.fse_outerplanarity_bruteforce(gen_random_triangulation(n, 3))\n"
        "    except InvariantError as exc:\n"
        "        print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False InvariantError peel-count routes disagree on face 5: deletion=3 radial=4\n"
        "False InvariantError peel-count routes disagree on face 5: deletion=5 radial=6\n"
    )
