"""Center selection: arithmetic helpers, separator, detour, dispatch cases."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DetourParams,
    bfs_distances,
    children_of,
    connect_within_node,
    detour,
    diameter_middle_by_bfs,
    eccentricity,
    interior_by_children,
    peel_numbers_by_union_find,
    random_nesting,
    ring_chain,
    separator_by_heavy_child,
    spanning_tree_center_by_dicts,
    subtree_flags,
    thin_random_triangulation,
)
from peelbound.center import (
    _diameter_middle,
    _subtree_mask,
    CenterCertificate,
    GTooBigError,
    ceil_sqrt,
    certify,
    compute_delta,
    compute_gstar,
    compute_theta,
    find_center,
    find_center_diameter,
    spanning_tree_center,
    tree_separator,
)
from peelbound.embed import InvariantError, build_plane_graph
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.embed import connect_components
from peelbound.oracle import diameter_exact, verify_certificate
from peelbound.peels import augment, build_tree_of_peels, choose_root, compute_layers
from test_graphio import FAMILIES, GENERATED_TEXT_SHA256
from test_peels import plane_graphs, run_under_optimize


def pipeline(g, root=None):
    aug = augment(compute_layers(g, choose_root(g) if root is None else root))
    return aug, build_tree_of_peels(aug)


def wheel14():
    """Wheel on 14 vertices: hub 0, rim 1..13."""
    edges = [(0, i) for i in range(1, 14)]
    for i in range(1, 14):
        edges.append((i, i % 13 + 1))
    rows = [list(range(13))]
    for i in range(1, 14):
        spoke = i - 1
        prev = 25 if i == 1 else 12 + (i - 1)
        nxt = 12 + i if i <= 12 else 25
        rows.append([spoke, prev, nxt])
    return build_plane_graph(14, edges, rows)


# ---------------------------------------------------------------------------
# Arithmetic helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,r", [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (16, 4), (17, 5), (10**12, 10**6)]
)
def test_ceil_sqrt_frozen(x, r):
    assert ceil_sqrt(x) == r


@given(st.integers(min_value=0, max_value=10**15))
def test_ceil_sqrt_is_ceiling(x):
    r = ceil_sqrt(x)
    assert r * r >= x
    assert r == 0 or (r - 1) * (r - 1) < x


def test_ceil_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        ceil_sqrt(-1)


def test_delta_and_theta():
    assert compute_delta(100, 3) == 98 // 6 + 1
    assert compute_delta(3, 1) == 1
    assert compute_theta(39, 10, 3) == 4
    assert compute_theta(24, 10, 3) == 2
    with pytest.raises(ValueError):
        compute_delta(2, 3)
    with pytest.raises(ValueError):
        compute_theta(10, 11, 3)


@given(
    st.integers(min_value=3, max_value=10**6),
    st.integers(min_value=1, max_value=1000),
)
def test_delta_dominates_depth_fraction(n, g):
    # 2g(delta - 1) <= n - 2 < 2g*delta
    d = compute_delta(n, g)
    assert 2 * g * (d - 1) <= n - 2 < 2 * g * d


def test_gstar_frozen():
    g = connect_components(gen_nested_cycles(5, 5))
    _, tree = pipeline(g, root=0)
    assert compute_gstar(tree, g.n) == 2

    _, tree_flat = pipeline(wheel14())
    assert compute_gstar(tree_flat, 14) is None

    _, tree_chain = pipeline(ring_chain([3] * 12), root=0)
    assert compute_gstar(tree_chain, 38) == 3


# ---------------------------------------------------------------------------
# Separator and spanning-tree center
# ---------------------------------------------------------------------------


def test_separator_frozen():
    _, tree = pipeline(ring_chain([3, 3, 3, 10, 3]), root=0)
    S = tree_separator(tree)
    assert (S, tree.weight[S], tree.above[S], tree.subtree_weight[S]) == (4, 10, 10, 14)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=6, max_value=80), st.integers(min_value=0, max_value=10**6))
def test_separator_splits_in_half(n, seed):
    g = thin_random_triangulation(n, seed)
    _, tree = pipeline(g)
    S = tree_separator(tree)
    # removing the separator node leaves only light pieces
    for c in children_of(tree)[S]:
        assert 2 * tree.subtree_weight[c] <= n
    assert 2 * (n - tree.subtree_weight[S]) <= n


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=70), st.integers(min_value=0, max_value=10**6))
def test_spanning_tree_center_half_bound(n, seed):
    g = gen_random_triangulation(n, seed)
    c = spanning_tree_center(g, list(range(n)))
    assert max(bfs_distances(g, c)) <= n // 2


def test_spanning_tree_center_small_sets():
    g = ring_chain([4])
    assert spanning_tree_center(g, [2]) == 2
    with pytest.raises(ValueError):
        spanning_tree_center(g, [])
    with pytest.raises(ValueError):
        spanning_tree_center(g, [0, 5])  # two sides of the ring: not connected


def test_spanning_tree_center_on_node_sets():
    g = ring_chain([5, 5, 5])
    aug, tree = pipeline(g, root=0)
    for x in range(tree.node_count):
        c = spanning_tree_center(aug.H, tree.stored(x))
        assert c in tree.stored(x)


def spanning_tree_center_sets(g):
    """(H, vertex set) for every set ``certify`` could hand to the center
    search on g: each node's stored vertices, and the whole vertex set,
    root first, of the g = 1 case."""
    aug, tree = pipeline(g)
    yield aug.H, [aug.root] + [v for v in range(g.n) if v != aug.root]
    for x in range(tree.node_count):
        yield aug.H, tree.stored(x)


def assert_spanning_tree_center_matches_reference(g):
    for h, verts in spanning_tree_center_sets(g):
        assert spanning_tree_center(h, verts) == spanning_tree_center_by_dicts(h, verts)


@pytest.mark.parametrize(
    "family,params",
    [(f, p) for f, p, _ in GENERATED_TEXT_SHA256],
    ids=["-".join([f, *map(str, p)]) for f, p, _ in GENERATED_TEXT_SHA256],
)
def test_spanning_tree_center_matches_reference_on_workload_inputs(family, params):
    g = FAMILIES[family](*params)
    assert_spanning_tree_center_matches_reference(g if g.connected else connect_components(g))


def test_spanning_tree_center_errors_match_reference():
    g = ring_chain([4])
    for verts in ([], [0, 5], [1, 1], [2, 3, 3]):
        with pytest.raises(ValueError) as ref:
            spanning_tree_center_by_dicts(g, verts)
        with pytest.raises(ValueError) as got:
            spanning_tree_center(g, verts)
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# Detour
# ---------------------------------------------------------------------------


def test_detour_identity():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    v = tree.stored(3)[0]
    out = detour(aug, tree, DetourParams(node=3, s0=v, z0=v, xi=lambda i: 0))
    assert out.success and out.i_star == 0
    assert out.sigma == [v] and out.walk() == [v]
    assert out.length == 0


def test_detour_adjacent():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    a, b = sorted(tree.stored(1))[:2]  # ring vertices, adjacent on the 3-cycle
    out = detour(aug, tree, DetourParams(node=1, s0=a, z0=b, xi=lambda i: 2))
    assert out.success and out.i_star == 0
    assert out.length == 1
    assert out.walk() == [a, b]


def test_detour_negative_schedule_fails_at_root():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    a, b = sorted(tree.stored(2))[:2]
    out = detour(aug, tree, DetourParams(node=2, s0=a, z0=b, xi=lambda i: -1))
    assert not out.success
    assert out.i_star == 2  # two climbs brought both endpoints to the root node
    assert len(out.s_path) == 3 and len(out.z_path) == 3
    assert out.s_path[-1] == 0 and out.z_path[-1] == 0
    with pytest.raises(ValueError):
        out.walk()


def test_detour_needs_stored_endpoints():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    with pytest.raises(ValueError):
        detour(aug, tree, DetourParams(node=2, s0=0, z0=0, xi=lambda i: 1))


def test_detour_walk_is_a_real_walk():
    g = ring_chain([5, 5, 5, 5])
    aug, tree = pipeline(g, root=0)
    node = max(
        (x for x in range(tree.node_count) if tree.weight[x] >= 2),
        key=lambda x: tree.depth[x],
    )
    a, b = sorted(tree.stored(node))[:2]
    out = detour(aug, tree, DetourParams(node=node, s0=a, z0=b, xi=lambda i: max(4 - 2 * i, -1)))
    assert out.success
    walk = out.walk()
    assert walk[0] == a and walk[-1] == b
    adj = {(aug.H.origin(d), aug.H.head(d)) for d in range(2 * aug.H.m)}
    for u, v in zip(walk, walk[1:]):
        assert (u, v) in adj


# ---------------------------------------------------------------------------
# Node-to-node connection walks
# ---------------------------------------------------------------------------


def test_connect_within_node_shallow():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    a, b = sorted(tree.stored(2))[:2]
    walk = connect_within_node(aug, tree, 2, a, b)
    assert walk[0] == a and walk[-1] == b
    assert len(walk) - 1 <= 4


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=3, max_value=7))
def test_connect_within_node_bound(depth, width):
    g = ring_chain([width] * depth)
    aug, tree = pipeline(g, root=0)
    node = max(
        (x for x in range(tree.node_count) if tree.weight[x] >= 2),
        key=lambda x: tree.depth[x],
    )
    stored = sorted(tree.stored(node))
    walk = connect_within_node(aug, tree, node, stored[0], stored[-1])
    a0 = tree.above[node]
    assert len(walk) - 1 <= max(2 * ceil_sqrt(a0) - 2, 4)
    adj = {(aug.H.origin(d), aug.H.head(d)) for d in range(2 * aug.H.m)}
    for u, v in zip(walk, walk[1:]):
        assert (u, v) in adj


# ---------------------------------------------------------------------------
# find_center dispatch
# ---------------------------------------------------------------------------


def check_cert(aug, cert):
    assert eccentricity(aug.H, cert.center) <= cert.bound


def test_sentinel_case():
    g = wheel14()
    aug, tree = pipeline(g)
    cert = find_center(aug, tree, None)
    assert cert.case == "tree-depth-2"
    assert cert.center == aug.root and cert.bound == 1
    check_cert(aug, cert)


def test_sentinel_rejected_with_interior_nodes():
    aug, tree = pipeline(ring_chain([3, 3, 3]), root=0)
    with pytest.raises(ValueError):
        find_center(aug, tree, None)


def test_g1_case():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 1)
    assert cert.case == "g≤2" and cert.bound == g.n // 2
    check_cert(aug, cert)


def test_g2_case():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 2)
    assert cert.case == "g≤2"
    assert cert.bound == compute_delta(g.n, 2) + 4
    check_cert(aug, cert)


def test_g_too_big():
    aug, tree = pipeline(ring_chain([3, 3, 3]), root=0)
    with pytest.raises(GTooBigError):
        find_center(aug, tree, 4)


def test_small_alpha_case():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 3)
    assert cert.case == "smallAlpha"
    assert (cert.center, cert.bound, cert.a_S, cert.size_S) == (5, 6, 4, 3)
    check_cert(aug, cert)


def test_small_s_case():
    g = ring_chain([3] * 12)
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 3)
    assert cert.case == "smallS"
    assert (cert.center, cert.bound, cert.separator) == (17, 11, 6)
    check_cert(aug, cert)


def test_generic_case():
    g = ring_chain([3, 3, 3, 10, 3])
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 3)
    assert cert.case == "generic"
    assert (cert.center, cert.bound, cert.size_S) == (11, 8, 10)
    assert cert.switcher == cert.separator  # no switch happened
    check_cert(aug, cert)


def test_deep_with_switch_case():
    g = ring_chain([3, 3, 3, 10, 3, 3, 3, 3, 3, 3])
    aug, tree = pipeline(g, root=0)
    cert = find_center(aug, tree, 3)
    assert cert.case == "deep-with-D"
    assert (cert.center, cert.bound) == (10, 11)
    assert (cert.separator, cert.switcher, cert.theta) == (4, 5, 4)
    check_cert(aug, cert)


def forged_deep_tree():
    """The deep-with-D chain with every node forged to store 2g = 6 vertices:
    no node on the way from the separator to a deep node is small."""
    aug, tree = pipeline(ring_chain([3, 3, 3, 10, 3, 3, 3, 3, 3, 3]), root=0)
    np.maximum(tree.weight, 6, out=tree.weight)
    return aug, tree


def test_missing_small_ancestor_raises():
    with pytest.raises(InvariantError, match="no small ancestor found"):
        find_center(*forged_deep_tree(), 3)


def test_missing_small_ancestor_survives_optimize():
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_center import InvariantError, find_center, forged_deep_tree\n"
        "try:\n"
        "    find_center(*forged_deep_tree(), 3)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False InvariantError no small ancestor found")


def test_find_center_argument_checks():
    aug, tree = pipeline(ring_chain([3, 3, 3]), root=0)
    with pytest.raises(ValueError):
        find_center(aug, tree, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=10, max_value=120), st.integers(min_value=0, max_value=10**6))
def test_find_center_bound_holds(n, seed):
    g = thin_random_triangulation(n, seed)
    aug, tree = pipeline(g)
    gstar = compute_gstar(tree, n)
    cert = find_center(aug, tree, gstar)
    check_cert(aug, cert)
    if gstar is not None and gstar >= 3:
        assert cert.bound == (n - 2) // (2 * gstar) + 2 * gstar - 1


# ---------------------------------------------------------------------------
# Diameter-based selection
# ---------------------------------------------------------------------------


def test_diameter_selection_trivial_tree():
    g = wheel14()
    aug, tree = pipeline(g)
    cert = find_center_diameter(aug, tree)
    assert cert.case == "diameter"
    assert cert.center == aug.root and cert.bound == 1
    check_cert(aug, cert)


def test_diameter_selection_bound():
    g = connect_components(gen_nested_cycles(4, 5))
    aug, tree = pipeline(g)
    cert = find_center_diameter(aug, tree)
    assert cert.bound == -(-diameter_of_tree(tree) // 2) + 2 * ceil_sqrt(g.n - 4) - 2
    check_cert(aug, cert)


def diameter_of_tree(tree):
    return diameter_middle_by_bfs(tree)[0]


def test_diameter_selection_preconditions():
    small = gen_random_triangulation(10, 0)
    aug, tree = pipeline(small)
    with pytest.raises(ValueError):
        find_center_diameter(aug, tree)
    # non-simple graphs are rejected regardless of size
    multi = ring_chain([2] * 6)
    aug2, tree2 = pipeline(multi, root=0)
    assert multi.n >= 14 and not multi.simple
    with pytest.raises(ValueError):
        find_center_diameter(aug2, tree2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=14, max_value=100), st.integers(min_value=0, max_value=10**6))
def test_diameter_selection_vs_graph_diameter(n, seed):
    g = thin_random_triangulation(n, seed)
    aug, tree = pipeline(g)
    cert = find_center_diameter(aug, tree)
    check_cert(aug, cert)
    # the tree diameter never exceeds the graph diameter
    assert diameter_of_tree(tree) <= diameter_exact(g)


# ---------------------------------------------------------------------------
# Array readers against the list references
# ---------------------------------------------------------------------------


def assert_readers_match_lists(tree):
    assert tree_separator(tree) == separator_by_heavy_child(tree)
    assert _diameter_middle(tree) == diameter_middle_by_bfs(tree)
    assert tree.interior_nodes().tolist() == interior_by_children(tree)
    k = tree.node_count
    tops = range(k) if k <= 40 else sorted({0, 1, k // 2, k - 1, tree_separator(tree)})
    for top in tops:
        assert _subtree_mask(tree, top).tolist() == subtree_flags(tree, top)


@settings(max_examples=40, deadline=None)
@given(plane_graphs())
def test_array_readers_match_lists(g):
    for root in sorted({choose_root(g), g.n - 1}):
        assert_readers_match_lists(pipeline(g, root=root)[1])


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring_chain([3, 3, 3, 10, 3, 3, 3, 3, 3, 3]),
        lambda: ring_chain([3, 5, 2, 7, 1, 4]),
        lambda: ring_chain([4] * 40),
        lambda: gen_lowerbound_H(3, 11),
        lambda: gen_lowerbound_H(4, 301),
        lambda: gen_lowerbound_H(8, 21),
        lambda: connect_components(gen_nested_cycles(5, 20)),
        lambda: connect_components(random_nesting(7, 15)),
        lambda: gen_prism_grid(3),
        lambda: gen_prism_grid(6),
        lambda: build_plane_graph(1, [], [[]]),
    ],
    ids=[
        "deep-with-D", "ragged-chain", "chain-40", "H-3-11", "H-4-301", "H-8-21",
        "nested-5-20", "random-nesting", "prism-3", "prism-6", "K1",
    ],
)
def test_array_readers_match_lists_on_families(make):
    g = make()
    for root in sorted({choose_root(g), 0, g.n - 1}):
        assert_readers_match_lists(pipeline(g, root=root)[1])


def test_tree_numbers_are_python_ints():
    # tree size, depth and g* go into JSON records as they are
    for g in (wheel14(), ring_chain([3] * 12), gen_random_triangulation(200, 3)):
        _, tree = pipeline(g)
        gstar = compute_gstar(tree, g.n)
        assert type(tree.node_count) is int and type(max(tree.depth)) is int
        assert gstar is None or type(gstar) is int
        json.dumps([tree.node_count, max(tree.depth), gstar])
    assert compute_gstar(pipeline(wheel14())[1], 14) is None


# ---------------------------------------------------------------------------
# Certificates and the end-to-end entry point
# ---------------------------------------------------------------------------


def test_certificate_serialization_keys():
    cert = certify(gen_random_triangulation(40, 5))
    doc = cert.to_dict()
    required = {"s", "bound", "g", "delta", "theta", "aS", "sizeS", "case"}
    assert required <= set(doc) <= required | {"D", "outerface"}
    for key, val in doc.items():
        assert val is None or isinstance(val, (int, str)), (key, type(val))


@pytest.mark.parametrize("method", ["girth", "diameter"])
def test_certify_records_its_stages(method):
    cert = certify(gen_random_triangulation(60, 2), method=method)
    assert list(cert.stages) == ["root", "layers", "augment", "tree", "center"]
    assert all(sec >= 0 for sec in cert.stages.values())
    assert "stages" not in cert.to_dict()
    again = certify(gen_random_triangulation(60, 2), method=method)
    assert again == cert  # stage times never decide equality


def test_certify_end_to_end():
    g = gen_random_triangulation(60, 2)
    cert = certify(g)
    assert cert.outerface == g.first_face_of_vertex(cert.center)
    assert cert.peel_bound == cert.bound + 1
    assert max(peel_numbers_by_union_find(g, cert.outerface)) <= cert.peel_bound
    assert verify_certificate(cert, g).ok
    assert 0 <= cert.outerface < g.face_count


def test_certify_diameter_method():
    g = gen_random_triangulation(40, 8)
    cert = certify(g, method="diameter")
    assert cert.case == "diameter"
    assert verify_certificate(cert, g).ok


def test_certify_rejects_bad_input():
    with pytest.raises(ValueError):
        certify(gen_nested_cycles(3, 2))
    with pytest.raises(ValueError):
        certify(gen_random_triangulation(20, 0), method="nonsense")


@pytest.mark.parametrize("g", [1, 3])
def test_certify_rejects_g_in_diameter_mode(g):
    # the diameter selection has no girth parameter; a given g must not be dropped
    with pytest.raises(ValueError, match="girth method only"):
        certify(gen_random_triangulation(40, 8), g=g, method="diameter")


def test_certify_explicit_root_and_g():
    g = ring_chain([3, 3, 3, 10, 3, 3, 3, 3, 3, 3])
    cert = certify(g, g=3, root=0)
    assert cert.case == "deep-with-D"
    assert verify_certificate(cert, g).ok
