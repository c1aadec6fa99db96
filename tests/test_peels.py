"""Layer decomposition, augmentation, and tree-of-peels invariants.

The tree is checked against an independent union-find construction: the
components of "layer >= i" in the *original* graph, with parents given by
containment, must match the traced tree node for node.  Running the same
construction on the augmented graph doubles as the check that augmentation
does not change the tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

import peelbound
from helpers import (
    articulation_flags,
    augment_by_face_loop,
    bfs_distances,
    children_of,
    descends,
    edge_endpoints,
    is_descendant,
    layer_numbers_by_union_find,
    peel_numbers_by_union_find,
    random_nesting,
    random_plane_map,
    relabel,
    ring_chain,
    thin_random_triangulation,
    to_records,
    tree_distance,
    tree_of_peels_by_walks,
)
from peelbound import embed, peels
from peelbound.embed import InvariantError, build_plane_graph, connect_components, radial_bfs
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.oracle import _deletion_counts, _face_bit_tables
from peelbound.peels import (
    Augmentation,
    augment,
    build_tree_of_peels,
    choose_root,
    compute_layers,
    face_peel_counts,
    peel_count_for_outerface,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def plane_graphs(draw, max_n=80):
    n = draw(st.integers(min_value=4, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    if draw(st.booleans()):
        return gen_random_triangulation(n, seed)
    frac = draw(st.sampled_from([0.2, 0.35, 0.5]))
    return thin_random_triangulation(n, seed, frac=frac)


def pipeline(g, root=None):
    ctx = compute_layers(g, choose_root(g) if root is None else root)
    aug = augment(ctx)
    return aug, build_tree_of_peels(aug)


# ---------------------------------------------------------------------------
# Root selection
# ---------------------------------------------------------------------------


def test_choose_root_avoids_cutvertices():
    g = connect_components(gen_nested_cycles(4, 3))
    root = choose_root(g)
    keep = [v for v in range(g.n) if v != root]
    # removal keeps the rest connected
    adj = {v: set() for v in keep}
    for e in range(g.m):
        u, w = edge_endpoints(g, e)
        if u != root and w != root:
            adj[u].add(w)
            adj[w].add(u)
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(keep)


def test_choose_root_requires_connected():
    with pytest.raises(ValueError):
        choose_root(gen_nested_cycles(3, 2))


@PROPERTY_SETTINGS
@given(plane_graphs(max_n=50))
def test_choose_root_is_lowest_noncut(g):
    root = choose_root(g)
    # every vertex below the root must be a cutvertex
    for v in range(root):
        rest = [u for u in range(g.n) if u != v]
        adj = {u: set() for u in rest}
        for e in range(g.m):
            a, b = edge_endpoints(g, e)
            if a != v and b != v:
                adj[a].add(b)
                adj[b].add(a)
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen != set(rest), f"vertex {v} < root {root} is not a cutvertex"


def star(k):
    """k leaves around vertex 0."""
    return build_plane_graph(
        k + 1, [(0, i) for i in range(1, k + 1)], [list(range(k))] + [[i] for i in range(k)]
    )


def block_chain(k):
    """k triangles glued in a path; the k - 1 glue vertices are 0 .. k-2.

    Triangle i has edges 3i (a_i, b_i), 3i + 1 (b_i, t_i), 3i + 2 (t_i, a_i),
    with b_i = a_{i+1} = glue vertex i; a_0 is k - 1, b_{k-1} is k and the
    apex t_i is k + 1 + i.
    """
    a = [k - 1] + list(range(k - 1))
    b = list(range(k - 1)) + [k]
    t = [k + 1 + i for i in range(k)]
    edges = []
    for i in range(k):
        edges += [(a[i], b[i]), (b[i], t[i]), (t[i], a[i])]
    rotation = [[] for _ in range(2 * k + 1)]
    for i in range(k):
        rotation[b[i]] += [3 * i, 3 * i + 1]
        rotation[a[i]] += [3 * i, 3 * i + 2]
        rotation[t[i]] = [3 * i + 1, 3 * i + 2]
    return build_plane_graph(2 * k + 1, edges, rotation)


# A loop at 0 with the edge to 1 on one side and the edge to 2 on the other:
# 0 separates 1 from 2, but its two non-loop darts lie on different walks.
LOOP_ENCLOSURE = ([(0, 0), (0, 1), (0, 2)], [[0, 1, 0, 2], [1], [2]])


def lowest_noncut(g):
    flags = articulation_flags(g)
    return next(v for v in range(g.n) if not flags[v])


def test_choose_root_matches_lowpoint_reference():
    corpus = [connect_components(random_nesting(seed, 1 + seed % 16)) for seed in range(120)]
    corpus += [ring_chain(sizes) for sizes in ([3], [1, 2, 3], [3, 4, 5], [6, 1, 6], [2] * 7)]
    for seed in range(40):
        thin = thin_random_triangulation(20 + 3 * seed, seed, frac=0.5)
        perm = list(range(thin.n))
        random.Random(seed).shuffle(perm)
        corpus += [thin, relabel(thin, perm)]
    corpus += [star(1), star(2), star(7), block_chain(2), block_chain(6)]
    corpus.append(build_plane_graph(3, *LOOP_ENCLOSURE))
    # loops inside corners and between corners, on connected and joined maps
    corpus += [connect_components(random_plane_map(seed, 40, 1 + seed % 3)) for seed in range(60)]
    roots = [choose_root(g) for g in corpus]
    assert roots == [lowest_noncut(g) for g in corpus]
    # low cutvertices occur: the rule had to look past vertex 0, and far
    assert sum(r > 0 for r in roots) >= 40 and max(roots) >= 5
    assert sum(g.m > 0 and not g.simple for g in corpus) >= 50
    assert sum(any(u == v for u, v in zip(g.eu, g.ev)) for g in corpus) >= 50


def test_choose_root_sees_through_loops():
    g = build_plane_graph(3, *LOOP_ENCLOSURE)
    darts = [d for d in g.rotation_darts(0) if g.head(d) != 0]
    assert len({g.walk_of_dart[d] for d in darts}) == len(darts)  # no face repeats 0
    assert articulation_flags(g)[0]
    assert choose_root(g) == 1


def test_choose_root_skips_low_cutvertices():
    assert choose_root(star(5)) == 1
    assert choose_root(block_chain(6)) == 5


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def test_layers_frozen_nested33():
    g = connect_components(gen_nested_cycles(3, 3))
    ctx = compute_layers(g, 10)
    assert ctx.layer.tolist() == [4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0]
    assert ctx.depth == 4


def test_layer_argument_checks():
    g = gen_random_triangulation(6, 0)
    with pytest.raises(ValueError):
        compute_layers(g, 17)
    with pytest.raises(ValueError):
        compute_layers(gen_nested_cycles(3, 2), 0)
    with pytest.raises(ValueError):
        peel_count_for_outerface(gen_nested_cycles(3, 2), 0)


def test_hop_layers_match_radial_layers_from_every_root(monkeypatch):
    graphs = [gen_random_triangulation(n, seed) for n, seed in ((4, 0), (5, 1), (12, 2), (60, 3))]
    graphs += [gen_prism_grid(1), random_plane_map(50, 2), random_plane_map(38, 4)]
    assert all(g.triangulated for g in graphs) and sum(not g.simple for g in graphs) == 2
    radial = {g: [radial_bfs(g, source_vertex=r)[0] // 2 for r in range(g.n)] for g in graphs}
    # on a triangulation the layers step through no face
    monkeypatch.setattr(peels, "radial_bfs", None)
    for g in graphs:
        for root in range(g.n):
            layer = compute_layers(g, root).layer
            assert layer.dtype == np.int64 and layer.tolist() == radial[g][root].tolist()


def test_hop_layers_raise_on_unreached_vertex():
    # a forged view of K3, a triangulation, in which vertex 0 neighbours only itself
    g = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])
    assert g.triangulated
    vf = ([0, 1, 2, 3], [0, 1, 1], [0, 2, 1])  # vf_indptr, vf_faces, vf_heads
    fv = ([0, 3, 6], [0, 1, 2, 0, 1, 2])  # fv_indptr, fv_verts
    g._incidence = tuple(np.array(a, dtype=np.int32) for a in vf + fv)
    with pytest.raises(embed.GraphFormatError, match="did not reach every vertex"):
        compute_layers(g, 0)


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_layers_match_deletion_oracle(g):
    root = choose_root(g)
    ctx = compute_layers(g, root)
    assert ctx.layer.tolist() == layer_numbers_by_union_find(g, root)
    assert ctx.layer[root] == 0


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_layers_smooth_on_edges(g):
    ctx = compute_layers(g, choose_root(g))
    for e in range(g.m):
        u, v = edge_endpoints(g, e)
        assert abs(int(ctx.layer[u]) - int(ctx.layer[v])) <= 1


@PROPERTY_SETTINGS
@given(plane_graphs(max_n=40))
def test_peel_count_matches_deletion_oracle(g):
    for f in range(min(g.face_count, 5)):
        assert peel_count_for_outerface(g, f) == max(peel_numbers_by_union_find(g, f))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=3),
)
def test_face_peel_counts_match_per_face_routes(seed, steps, components):
    # loops, parallel edges, lone vertices and n = 1; maps of 2-3
    # components raise as the per-face count does, then are connected
    g = random_plane_map(seed, steps, components)
    if not g.connected:
        with pytest.raises(ValueError) as batched:
            face_peel_counts(g)
        with pytest.raises(ValueError) as single:
            peel_count_for_outerface(g, 0)
        assert str(batched.value) == str(single.value)
        g = connect_components(g)
    counts = face_peel_counts(g)
    assert counts == [peel_count_for_outerface(g, f) for f in range(g.face_count)]
    assert counts == _deletion_counts(_face_bit_tables(g))


def test_face_peel_counts_raise_on_unreached_vertex():
    # a forged incidence view of K3 that splits it: face 0 and vertex 0
    # list only each other
    g = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])
    vf = ([0, 1, 2, 3], [0, 1, 1], [1, 2, 0])  # vf_indptr, vf_faces, vf_heads
    fv = ([0, 1, 3], [0, 1, 2])  # fv_indptr, fv_verts
    g._incidence = tuple(np.array(a, dtype=np.int32) for a in vf + fv)
    with pytest.raises(embed.GraphFormatError, match="did not reach every vertex"):
        peel_count_for_outerface(g, 0)
    with pytest.raises(embed.GraphFormatError, match="did not reach every vertex"):
        face_peel_counts(g)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_augmentation_invariants(g):
    root = choose_root(g)
    aug, _ = pipeline(g, root)
    h = aug.H

    # still a sphere drawing, same vertices, only added edges
    assert h.n == g.n
    assert h.m >= g.m
    assert h.n - h.m + h.face_count == 2
    for e in range(g.m):
        assert edge_endpoints(h, e) == edge_endpoints(g, e)

    # layer numbers survive augmentation
    vertex_dist, _ = radial_bfs(h, source_vertex=root)
    assert (vertex_dist // 2).tolist() == aug.layer.tolist()

    # every added edge descends exactly one layer
    for e in range(aug.original_edge_count, h.m):
        u, v = edge_endpoints(h, e)
        assert abs(int(aug.layer[u]) - int(aug.layer[v])) == 1


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_out_darts_descend(g):
    root = choose_root(g)
    aug, _ = pipeline(g, root)
    h = aug.H
    assert aug.out_dart[root] == -1
    for v in range(h.n):
        if v == root:
            continue
        d = int(aug.out_dart[v])
        assert d >= 0
        assert h.origin(d) == v
        assert aug.layer[h.head(d)] == aug.layer[v] - 1
        assert descends(aug, d)
        # minimal such dart at v
        for d2 in h.rotation_darts(v):
            if d2 < d:
                assert aug.layer[h.head(d2)] != aug.layer[v] - 1


def test_augmented_distances_never_grow():
    g = thin_random_triangulation(40, 9)
    aug, _ = pipeline(g)
    dist_g = bfs_distances(g, aug.root)
    dist_h = bfs_distances(aug.H, aug.root)
    assert all(dh <= dg for dh, dg in zip(dist_h, dist_g))


def assert_matches_face_loop(g, root=None):
    """Bit-identical to the per-chord reference; only parallel chords dropped."""
    ctx = compute_layers(g, choose_root(g) if root is None else root)
    aug = augment(ctx)
    h, out_dart = augment_by_face_loop(ctx)
    for name in ("eu", "ev", "rot_next", "rot_first", "walk_flat", "walk_indptr"):
        assert list(getattr(aug.H, name)) == list(getattr(h, name)), name
    assert aug.out_dart.tolist() == out_dart

    def adjacent(x):
        return {frozenset((x.ends[2 * e], x.ends[2 * e + 1])) for e in range(x.m)}

    h_all, _ = augment_by_face_loop(ctx, skip_walk_neighbours=False)
    assert adjacent(aug.H) == adjacent(h_all)
    assert adjacent(g) <= adjacent(aug.H)


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_augment_matches_face_loop(g):
    assert_matches_face_loop(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_lowerbound_H(3, 9),
        lambda: gen_lowerbound_H(4, 51),
        lambda: gen_lowerbound_H(5, 9),
        lambda: gen_lowerbound_H(9, 5),
        lambda: connect_components(gen_nested_cycles(4, 11)),
        lambda: connect_components(gen_nested_cycles(6, 9)),
        lambda: ring_chain([3, 5, 2, 7]),
        lambda: ring_chain([1, 2, 1]),
    ],
)
def test_augment_matches_face_loop_on_rings(make):
    g = make()
    assert_matches_face_loop(g)
    assert_matches_face_loop(g, root=g.n - 1)


def count_finishing(monkeypatch):
    calls = {"finish": 0, "trace": 0}
    finish, trace = peels._finish_graph, embed._label_walks

    def counted_finish(*args, **kwargs):
        calls["finish"] += 1
        return finish(*args, **kwargs)

    def counted_trace(*args, **kwargs):
        calls["trace"] += 1
        return trace(*args, **kwargs)

    monkeypatch.setattr(peels, "_finish_graph", counted_finish)
    monkeypatch.setattr(embed, "_label_walks", counted_trace)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_augment_reuses_triangulation(monkeypatch, seed):
    g = gen_random_triangulation(2000, seed)
    ctx = compute_layers(g, choose_root(g))
    calls = count_finishing(monkeypatch)
    aug = augment(ctx)
    assert aug.H is aug.G
    assert calls == {"finish": 0, "trace": 0}


def test_augment_finishes_once_with_chords(monkeypatch):
    g = gen_lowerbound_H(4, 51)
    ctx = compute_layers(g, choose_root(g))
    calls = count_finishing(monkeypatch)
    aug = augment(ctx)
    assert aug.H.m > g.m
    assert calls["finish"] == 1


def run_under_optimize(script):
    src = str(Path(peelbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_descending_check_survives_optimize():
    script = (
        "import numpy as np\n"
        "from peelbound.embed import InvariantError, build_plane_graph\n"
        "from peelbound.peels import PeelContext, augment\n"
        "g = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])\n"
        "ctx = PeelContext(G=g, root=0, layer=np.array([0, 2, 2]))\n"
        "try:\n"
        "    augment(ctx)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False InvariantError vertices without a descending edge")


# ---------------------------------------------------------------------------
# Tree of peels
# ---------------------------------------------------------------------------


def components_at_or_above(g, layer, i):
    verts = [v for v in range(g.n) if layer[v] >= i]
    seen = set()
    comps = []
    member = set(verts)
    for s in verts:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for d in g.rotation_darts(v):
                w = g.head(d)
                if w in member and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def expected_tree_nodes(g, layer):
    """(stored set, parent stored set) pairs from the union-find route."""
    depth = max(layer) if len(layer) else 0
    comp_by_depth = [components_at_or_above(g, layer, i) for i in range(depth + 1)]
    nodes = []
    for i, comps in enumerate(comp_by_depth):
        for comp in comps:
            stored = frozenset(v for v in comp if layer[v] == i)
            if i == 0:
                parent = None
            else:
                parent_comp = next(
                    c for c in comp_by_depth[i - 1] if next(iter(comp)) in c
                )
                parent = frozenset(v for v in parent_comp if layer[v] == i - 1)
            nodes.append((stored, parent))
    return sorted(nodes, key=lambda p: sorted(p[0]))


def tree_nodes(tree):
    nodes = []
    for x in range(tree.node_count):
        stored = frozenset(tree.stored(x))
        p = tree.parent[x]
        nodes.append((stored, None if p < 0 else frozenset(tree.stored(p))))
    return sorted(nodes, key=lambda p: sorted(p[0]))


@PROPERTY_SETTINGS
@given(plane_graphs(max_n=60))
def test_tree_matches_component_oracle(g):
    aug, tree = pipeline(g)
    layer = aug.layer.tolist()
    expected = expected_tree_nodes(g, layer)
    assert tree_nodes(tree) == expected
    # same construction on H: augmentation must not change the tree
    assert expected_tree_nodes(aug.H, layer) == expected


@PROPERTY_SETTINGS
@given(plane_graphs())
def test_tree_bookkeeping(g):
    aug, tree = pipeline(g)
    n = g.n
    # stored sets partition the vertices; node_of agrees
    seen = set()
    for x in range(tree.node_count):
        for v in tree.stored(x):
            assert v not in seen
            seen.add(v)
            assert tree.node_of[v] == x
    assert len(seen) == n
    assert sum(tree.weight) == n
    assert tree.stored(0) == [aug.root]

    children = children_of(tree)
    for x in range(1, tree.node_count):
        p = tree.parent[x]
        assert 0 <= p < x
        assert tree.depth[x] == tree.depth[p] + 1
        assert x in children[p]
        # depth equals the layer of every stored vertex
        for v in tree.stored(x):
            assert aug.layer[v] == tree.depth[x]

    for x in range(tree.node_count):
        expect_above = 0
        y = tree.parent[x]
        while y >= 0:
            expect_above += tree.weight[y]
            y = tree.parent[y]
        assert tree.above[x] == expect_above
        sub = tree.weight[x] + sum(
            tree.subtree_weight[c] for c in children[x]
        )
        assert tree.subtree_weight[x] == sub


def test_tree_frozen_ring_chain():
    g = ring_chain([3, 3, 3])
    aug, tree = pipeline(g, root=0)
    assert tree.node_count == 5
    assert list(tree.parent) == [-1, 0, 1, 2, 3]
    assert [sorted(tree.stored(x)) for x in range(tree.node_count)] == [
        [0], [1, 2, 3], [4, 5, 6], [7, 8, 9], [10],
    ]
    assert tree_distance(tree, 0, 4) == 4
    assert tree_distance(tree, 2, 2) == 0
    assert is_descendant(tree, 4, 1) and not is_descendant(tree, 1, 4)
    recs = to_records(tree)
    assert recs[0] == {"node": 0, "parent": -1, "depth": 0, "stored": [0]}


def assert_tree_matches_walks(aug):
    tree, ref = build_tree_of_peels(aug), tree_of_peels_by_walks(aug)
    assert list(tree.parent) == list(ref.parent)
    assert list(tree.depth) == list(ref.depth)
    assert tree.node_of == ref.node_of
    stored = [tree.stored(x) for x in range(tree.node_count)]
    ref_stored = [ref.stored(x) for x in range(ref.node_count)]
    assert [s[0] for s in stored] == [s[0] for s in ref_stored]
    assert [set(s) for s in stored] == [set(s) for s in ref_stored]
    assert (list(tree.above), list(tree.subtree_weight)) == (
        list(ref.above), list(ref.subtree_weight)
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_lowerbound_H(3, 11),
        lambda: gen_lowerbound_H(4, 51),
        lambda: gen_lowerbound_H(5, 7),
        lambda: gen_lowerbound_H(9, 5),
        lambda: gen_prism_grid(1),
        lambda: gen_prism_grid(2),
        lambda: gen_prism_grid(3),
        lambda: gen_prism_grid(4),
        lambda: build_plane_graph(1, [], [[]]),
        lambda: build_plane_graph(2, [(0, 1)], [[0], [0]]),
        lambda: build_plane_graph(2, [(0, 0), (0, 1)], [[0, 0, 1], [1]]),
        lambda: ring_chain([3, 5, 2, 7]),
        lambda: connect_components(gen_nested_cycles(6, 9)),
    ],
    ids=[
        "H-3-11", "H-4-51", "H-5-7", "H-9-5", "prism-1", "prism-2", "prism-3",
        "prism-4", "K1", "K2", "loop-plus-edge", "ring-chain", "nested-6-9",
    ],
)
def test_tree_matches_walk_reference(make):
    g = make()
    for root in sorted({choose_root(g), g.n - 1}):
        assert_tree_matches_walks(augment(compute_layers(g, root)))


def test_tree_matches_walk_reference_on_nestings():
    for seed in range(60):
        g = connect_components(random_nesting(seed, 1 + seed % 16))
        assert_tree_matches_walks(augment(compute_layers(g, choose_root(g))))


K3 = ([(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])
C4 = ([(0, 1), (1, 3), (3, 2), (2, 0)], [[3, 0], [0, 1], [2, 3], [1, 2]])


def forged_augmentation(edges, rotation, layer):
    """An Augmentation with the given layers, bypassing augment's own checks."""
    g = build_plane_graph(len(rotation), edges, rotation)
    return Augmentation(
        G=g, H=g, root=0, layer=np.array(layer), original_edge_count=g.m,
        out_dart=np.full(g.n, -1),
    )


@pytest.mark.parametrize(
    "graph,layer,message",
    [
        (K3, [0, 2, 2], "vertices in no node"),  # layer 2 has no way down
        (K3, [0, 0, 1], "node 0 of the tree of peels must hold only the root"),
        (K3, [1, 2, 2], "parent does not sit one depth up"),  # the root off layer 0
        (C4, [0, 1, 1, 2], "descending dart ends outside its node's parent"),
    ],
    ids=["no-node", "crowded-root", "parent-depth", "two-parents"],
)
def test_tree_invariants_raise(graph, layer, message):
    with pytest.raises(InvariantError, match=message):
        build_tree_of_peels(forged_augmentation(*graph, layer))


def test_tree_check_survives_optimize():
    script = (
        "import numpy as np\n"
        "from peelbound.embed import InvariantError, build_plane_graph\n"
        "from peelbound.peels import Augmentation, build_tree_of_peels\n"
        "g = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])\n"
        "aug = Augmentation(G=g, H=g, root=0, layer=np.array([0, 2, 2]),\n"
        "                   original_edge_count=3, out_dart=np.full(3, -1))\n"
        "try:\n"
        "    build_tree_of_peels(aug)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False InvariantError vertices in no node")


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(plane_graphs(max_n=40), st.randoms(use_true_random=False))
def test_pipeline_is_relabel_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    g2 = relabel(g, perm)
    root = choose_root(g)

    ctx, ctx2 = compute_layers(g, root), compute_layers(g2, perm[root])
    assert [ctx2.layer[perm[v]] for v in range(g.n)] == ctx.layer.tolist()

    aug, tree = pipeline(g, root)
    aug2, tree2 = pipeline(g2, perm[root])
    mapped = sorted(
        (sorted(perm[v] for v in s), None if p is None else sorted(perm[v] for v in p))
        for s, p in tree_nodes(tree)
    )
    plain = sorted(
        (sorted(s), None if p is None else sorted(p)) for s, p in tree_nodes(tree2)
    )
    assert mapped == plain

    for f in range(g.face_count):
        assert peel_count_for_outerface(g, f) == peel_count_for_outerface(g2, f)
