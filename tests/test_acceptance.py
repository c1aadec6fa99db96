"""The ten acceptance criteria, one test per criterion, in order, then the
tree of peels against its per-dart reference on the same corpus.

Corpus: every generator family at the sizes the criteria name, four
hand-built ring chains that pin down the rarer center-selection cases, and
100 seeded random triangulations with n spread over [10, 2000].  Expensive
brute-force cross-checks (fence girth, all-pairs distances, the union-find
tree oracle) run on the size-guarded slice of the corpus; certified bounds
are checked everywhere.
"""

import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import pytest

from conftest import record_criterion
from helpers import (
    children_of,
    connect_within_node,
    document_by_rows,
    eccentricity,
    edge_endpoints,
    faces_of_vertex,
    girth_bruteforce,
    graph_fingerprint,
    is_bipartite,
    peel_numbers_by_union_find,
    radial_bfs_by_rounds,
    ring_chain,
    simple_bound_check,
    simple_cycles_of_length,
    spanning_tree_center_by_dicts,
    thin_random_triangulation,
    tree_distance,
    tree_of_peels_by_walks,
)
from peelbound.center import (
    ceil_sqrt,
    compute_delta,
    compute_gstar,
    find_center,
    find_center_diameter,
    spanning_tree_center,
    tree_separator,
)
from peelbound.embed import PlaneGraph, connect_components, radial_bfs, vertex_bfs
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.oracle import (
    _dart_lists,
    _deletion_counts,
    _face_bit_tables,
    _simple_cycles_of_length,
    all_eccentricities,
    diameter_exact,
    fence_girth_bruteforce,
    fse_outerplanarity_bruteforce,
    radius_exact,
)
from peelbound.peels import (
    augment,
    build_tree_of_peels,
    choose_root,
    compute_layers,
    peel_count_for_outerface,
)
from peelbound.graphio import dumps_plane_graph, loads_plane_graph, to_document
from test_center import diameter_of_tree
from test_peels import expected_tree_nodes, tree_nodes


@dataclass
class Entry:
    name: str
    graph: PlaneGraph
    root: Optional[int] = None
    g: Union[str, int, None] = "auto"


@dataclass
class Pipe:
    entry: Entry
    aug: object
    tree: object
    gval: Optional[int]
    cert: object

    @property
    def graph(self):
        return self.entry.graph


@pytest.fixture(scope="session")
def corpus():
    entries = []
    for g in (3, 4, 5):
        for k in (1, 3, 5, 7):
            entries.append(
                Entry(f"nested-{g}-{k}", connect_components(gen_nested_cycles(g, k)))
            )
    for g in (3, 4, 5, 6):
        for k in (3, 5, 7):
            entries.append(Entry(f"H-{g}-{k}", gen_lowerbound_H(g, k)))
    for k in (1, 2, 3, 4):
        entries.append(Entry(f"prism-{k}", gen_prism_grid(k)))
    for n in (4, 5, 6, 7, 8):
        entries.append(Entry(f"tiny-rand-{n}", gen_random_triangulation(n, n)))
    # multigraph chains (loops, then parallel edges)
    entries.append(Entry("loop-chain", connect_components(gen_nested_cycles(1, 3))))
    entries.append(Entry("digon-chain", connect_components(gen_nested_cycles(2, 3))))
    # hand-built chains covering the rarer dispatch cases
    entries.append(Entry("chain-small-alpha", ring_chain([3, 3, 3]), root=0, g=3))
    entries.append(Entry("chain-small-s", ring_chain([3] * 12), root=0, g=3))
    entries.append(Entry("chain-generic", ring_chain([3, 3, 3, 10, 3]), root=0, g=3))
    entries.append(
        Entry("chain-deep", ring_chain([3, 3, 3, 10, 3, 3, 3, 3, 3, 3]), root=0, g=3)
    )
    for i in range(100):
        n = 10 + (i * 1990) // 99
        entries.append(Entry(f"rand-{n}-{i}", gen_random_triangulation(n, i)))
    return entries


@pytest.fixture(scope="session")
def pipelines(corpus):
    out = {}
    for e in corpus:
        root = choose_root(e.graph) if e.root is None else e.root
        ctx = compute_layers(e.graph, root)
        aug = augment(ctx)
        tree = build_tree_of_peels(aug)
        gval = compute_gstar(tree, e.graph.n) if e.g == "auto" else e.g
        cert = find_center(aug, tree, gval)
        out[e.name] = Pipe(e, aug, tree, gval, cert)
    return out


def ecc_bound(n: int, g: Optional[int]) -> int:
    if g is None:
        return 1
    if g == 1:
        return n // 2
    if g == 2:
        return (n - 2) // 4 + 5
    return (n - 2) // (2 * g) + 2 * g - 1


# ---------------------------------------------------------------------------


def test_criterion_01_lowerbound_family_fse():
    failures = []
    worst = 0.0
    for g in (3, 4, 5):
        for k in (1, 3, 5, 7):
            graph = gen_nested_cycles(g, k)
            t0 = time.perf_counter()
            res = fse_outerplanarity_bruteforce(graph)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            floor = (k + 3) // 2
            if res.value != floor:
                failures.append(f"G_{g}^{k}: fse={res.value} expected {floor}")
            if dt >= 10:
                failures.append(f"G_{g}^{k}: took {dt:.1f}s")
    ok = not failures
    record_criterion(
        1, ok, f"fse(G_g^k) = (k+3)/2 on 12 instances, slowest {worst * 1e3:.0f} ms"
    )
    assert ok, failures


def test_criterion_02_reinforced_family():
    failures = []
    for g in (3, 4, 5, 6):
        for k in (3, 5, 7):
            h = gen_lowerbound_H(g, k)
            floor = (k + 3) // 2
            value = fse_outerplanarity_bruteforce(h).value
            if value < floor:
                failures.append(f"H_{g}^{k}: fse={value} < {floor}")
            if g == 4 and not is_bipartite(h):
                failures.append(f"H_4^{k} is not bipartite")
            if h.n <= 60:
                if girth_bruteforce(h) != g:
                    failures.append(f"H_{g}^{k}: girth != {g}")
                if fence_girth_bruteforce(h) != g:
                    failures.append(f"H_{g}^{k}: fence-girth != {g}")
    ok = not failures
    record_criterion(
        2, ok, "fse floor, bipartiteness, girth = fence-girth = g on 12 instances"
    )
    assert ok, failures


def test_criterion_03_main_bound_and_case_coverage(pipelines):
    failures = []
    cases = set()
    for pipe in pipelines.values():
        n = pipe.graph.n
        cert = pipe.cert
        cases.add(cert.case)
        bound = ecc_bound(n, pipe.gval)
        if cert.bound != bound:
            failures.append(f"{pipe.entry.name}: certified {cert.bound} != {bound}")
        ecc = eccentricity(pipe.aug.H, cert.center)
        if ecc > bound:
            failures.append(f"{pipe.entry.name}: ecc {ecc} > {bound} (g={pipe.gval})")
    expected_cases = {"tree-depth-2", "g≤2", "smallAlpha", "smallS", "deep-with-D", "generic"}
    missing = expected_cases - cases
    if missing:
        failures.append(f"uncovered proof cases: {sorted(missing)}")
    ok = not failures
    record_criterion(
        3,
        ok,
        f"ecc(s) within bound on {len(pipelines)} graphs, cases {sorted(cases)}",
    )
    assert ok, failures


def test_criterion_04_outerface_peel_bound(pipelines):
    failures = []
    for pipe in pipelines.values():
        g = pipe.graph
        n, gval = g.n, pipe.gval
        face = g.first_face_of_vertex(pipe.cert.center)
        peels = peel_count_for_outerface(g, face)
        bound = ecc_bound(n, gval) + 1
        if gval is not None and gval >= 3:
            assert bound == (n - 2) // (2 * gval) + 2 * gval
        if peels > bound:
            failures.append(f"{pipe.entry.name}: {peels} peels > {bound}")
    ok = not failures
    record_criterion(
        4, ok, f"chosen outerface within peel bound on {len(pipelines)} graphs"
    )
    assert ok, failures


def test_criterion_05_simple_bound():
    failures = []
    for i in range(50):
        n = 30 + (i * 470) // 49
        g = thin_random_triangulation(n, seed=1000 + i, frac=0.3)
        rep = simple_bound_check(g)  # asserts realized <= bound internally
        if rep.realized > rep.bound:
            failures.append(f"n={n} seed={1000 + i}: {rep.realized} > {rep.bound}")
        if rep.bound > min(1 + rep.radius, (g.n + 26) // 6):
            failures.append(f"n={n}: reported bound too large")
    ok = not failures
    record_criterion(
        5, ok, "peels <= min(1+rad, (n+26)/6) on 50 thinned graphs, n up to 500"
    )
    assert ok, failures


def test_criterion_06_prism_metrics():
    failures = []
    elapsed_k4 = 0.0
    for k in (1, 2, 3, 4):
        g = gen_prism_grid(k)
        t0 = time.perf_counter()
        diam = diameter_exact(g)
        _, rad = radius_exact(g)
        dt = time.perf_counter() - t0
        if k == 4:
            elapsed_k4 = dt
            if g.n != 182:
                failures.append(f"prism k=4 has n={g.n}, expected 182")
            if dt >= 30:
                failures.append(f"prism k=4 oracle took {dt:.1f}s")
        if diam > 3 * k + 1:
            failures.append(f"prism k={k}: diameter {diam} > {3 * k + 1}")
        if rad < 2 * k:
            failures.append(f"prism k={k}: radius {rad} < {2 * k}")
    ok = not failures
    record_criterion(
        6, ok, f"diam <= 3k+1, rad >= 2k for k=1..4 (k=4 in {elapsed_k4:.2f}s)"
    )
    assert ok, failures


def test_criterion_07_diameter_based_center(pipelines):
    failures = []
    checked = exact = 0
    for pipe in pipelines.values():
        g = pipe.graph
        if not g.simple or g.n < 14:
            continue
        checked += 1
        cert = find_center_diameter(pipe.aug, pipe.tree)
        ecc = eccentricity(pipe.aug.H, cert.center)
        diam_t = diameter_of_tree(pipe.tree)
        certified = -(-diam_t // 2) + 2 * ceil_sqrt(g.n - 4) - 2 if diam_t > 1 else 1
        if ecc > certified:
            failures.append(f"{pipe.entry.name}: ecc {ecc} > certified {certified}")
        if g.n <= 400:
            # the certified bound implies the stated one because the tree
            # diameter never exceeds the graph diameter; recheck both
            # facts against the all-pairs oracle where that is affordable
            exact += 1
            diam_g = diameter_exact(g)
            stated = -(-diam_g // 2) + 2 * ceil_sqrt(g.n - 4) - 2
            if diam_t > diam_g:
                failures.append(f"{pipe.entry.name}: diam_T {diam_t} > diam_G {diam_g}")
            if ecc > stated:
                failures.append(f"{pipe.entry.name}: ecc {ecc} > stated {stated}")
    ok = not failures
    record_criterion(
        7,
        ok,
        f"half-diameter bound on {checked} simple graphs (exact diameter on {exact})",
    )
    assert ok, failures


def test_criterion_08_structural_suite(pipelines):
    failures = []
    connect_runs = 0
    for pipe in pipelines.values():
        g, aug, tree = pipe.graph, pipe.aug, pipe.tree
        name = pipe.entry.name
        h = aug.H

        # nodeSize (1): the root keeps a single child
        root_children = children_of(tree)[0]
        if tree.node_count >= 2 and len(root_children) != 1:
            failures.append(f"{name}: root has {len(root_children)} children")

        # nodeSize (2): edges stay within a node or cross to the parent
        node_of = tree.node_of
        for e in range(h.m):
            u, v = edge_endpoints(h, e)
            a, b = node_of[u], node_of[v]
            if a != b and tree.parent[a] != b and tree.parent[b] != a:
                failures.append(f"{name}: edge {e} joins unrelated nodes {a},{b}")
                break

        # nodeSize (3): interior nodes store at least fence-girth vertices
        if g.n <= 60:
            fence = fence_girth_bruteforce(g)
            for x in tree.interior_nodes():
                if fence == math.inf or tree.weight[x] < fence:
                    failures.append(
                        f"{name}: interior node {x} stores {tree.weight[x]}"
                        f" < fence-girth {fence}"
                    )
                    break

        # Claim 1: every non-root vertex owns a descending edge
        for v in range(h.n):
            d = int(aug.out_dart[v])
            if v == aug.root:
                if d != -1:
                    failures.append(f"{name}: root has an out-dart")
            elif d < 0 or aug.layer[h.head(d)] != aug.layer[v] - 1:
                failures.append(f"{name}: vertex {v} lacks a descending edge")
                break

        # augmentedT: union-find route on G and on H gives the traced tree
        if g.n <= 500:
            layer = aug.layer.tolist()
            expected = expected_tree_nodes(g, layer)
            if tree_nodes(tree) != expected or expected_tree_nodes(h, layer) != expected:
                failures.append(f"{name}: tree differs from the component oracle")

        # distT: every node is within delta of the separator
        if pipe.gval is not None and g.n >= 3:
            delta = compute_delta(g.n, pipe.gval)
            S = tree_separator(tree)
            worst = max(tree_distance(tree, S, z) for z in range(tree.node_count))
            if worst > delta:
                failures.append(f"{name}: d_T(S,.) = {worst} > delta {delta}")

        # pathWithinNode (instrumented inside detour) + connectS length bound
        if g.simple:
            deep = [x for x in range(tree.node_count) if tree.weight[x] >= 2]
            if deep:
                node = max(deep, key=lambda x: tree.depth[x])
                stored = sorted(tree.stored(node))
                walk = connect_within_node(aug, tree, node, stored[0], stored[-1])
                connect_runs += 1
                limit = max(2 * ceil_sqrt(tree.above[node]) - 2, 4)
                if len(walk) - 1 > limit:
                    failures.append(f"{name}: connection walk {len(walk) - 1} > {limit}")
                if walk[0] != stored[0] or walk[-1] != stored[-1]:
                    failures.append(f"{name}: connection walk endpoints wrong")
    ok = not failures
    record_criterion(
        8,
        ok,
        f"six structural invariants on {len(pipelines)} graphs"
        f" ({connect_runs} connection walks)",
    )
    assert ok, failures


def test_criterion_09_peel_count_routes(pipelines):
    failures = []
    graphs = faces = 0
    for pipe in pipelines.values():
        g = pipe.graph
        if g.n > 200:
            continue
        graphs += 1
        counts = _deletion_counts(_face_bit_tables(g))
        for f in range(g.face_count):
            faces += 1
            direct = counts[f]
            radial = peel_count_for_outerface(g, f)
            if direct != radial:
                failures.append(
                    f"{pipe.entry.name} face {f}: deletion {direct} != radial {radial}"
                )
    ok = not failures
    record_criterion(
        9, ok, f"deletion and radial peel counts agree on {faces} faces of {graphs} graphs"
    )
    assert ok, failures


def _timed_pipeline(graph, root) -> float:
    """Seconds from layers to center; the graph's cached view is built anew."""
    graph._incidence = None
    t0 = time.perf_counter()
    ctx = compute_layers(graph, root)
    aug = augment(ctx)
    tree = build_tree_of_peels(aug)
    find_center(aug, tree, compute_gstar(tree, graph.n))
    return time.perf_counter() - t0


def test_criterion_10_linearity():
    # each size reads the median of three runs: one run of the smallest
    # size takes tens of ms, and a single timing of it swings the ratio
    sizes = [2**e for e in range(15, 21)]
    per_vertex = []
    final_elapsed = 0.0
    for j, n in enumerate(sizes):
        graph = gen_random_triangulation(n, 10 + j)
        root = choose_root(graph)
        elapsed = sorted(_timed_pipeline(graph, root) for _ in range(3))[1]
        per_vertex.append(elapsed / n)
        if n == sizes[-1]:
            final_elapsed = elapsed
    ratio = max(per_vertex) / min(per_vertex)
    ok = ratio <= 2.5 and final_elapsed < 60
    record_criterion(
        10,
        ok,
        f"per-vertex spread x{ratio:.2f} over 2^15..2^20 (medians of 3 runs), "
        f"last size {final_elapsed:.1f}s",
    )
    assert ok, (ratio, final_elapsed, [f"{p * 1e6:.2f}us" for p in per_vertex])


def test_tree_matches_walk_reference_on_corpus(pipelines):
    for pipe in pipelines.values():
        tree, ref = pipe.tree, tree_of_peels_by_walks(pipe.aug)
        assert (list(tree.parent), list(tree.depth), tree.node_of) == (
            list(ref.parent), list(ref.depth), ref.node_of
        )
        stored = [tree.stored(x) for x in range(tree.node_count)]
        ref_stored = [ref.stored(x) for x in range(ref.node_count)]
        assert [s[0] for s in stored] == [s[0] for s in ref_stored]
        assert [set(s) for s in stored] == [set(s) for s in ref_stored]


def test_radial_bfs_matches_rounds_on_corpus(corpus):
    # from each graph's root, and from every face of the graphs the oracle takes
    graphs = faces = 0
    for e in corpus:
        g = e.graph
        sources = [dict(source_vertex=choose_root(g) if e.root is None else e.root)]
        if g.n <= 200:
            graphs += 1
            faces += g.face_count
            sources += [dict(source_face=f) for f in range(g.face_count)]
        for src in sources:
            (vertex_dist, face_dist), ref = radial_bfs(g, **src), radial_bfs_by_rounds(g, **src)
            assert np.array_equal(vertex_dist, ref[0]), (e.name, src)
            assert np.array_equal(face_dist, ref[1]), (e.name, src)
    assert len(corpus) == 139 and graphs == 49, (len(corpus), graphs, faces)


def test_vertex_bfs_matches_networkx_on_corpus(corpus):
    nx = pytest.importorskip("networkx")
    for e in corpus:
        g = e.graph
        h = nx.MultiGraph(list(zip(g.eu, g.ev)))
        h.add_nodes_from(range(g.n))
        for v in sorted({0, g.n // 2, g.n - 1}):
            want = nx.single_source_shortest_path_length(h, v)
            assert vertex_bfs(g, v).tolist() == [want[u] for u in range(g.n)], (e.name, v)


def test_all_eccentricities_match_networkx_on_corpus(corpus):
    nx = pytest.importorskip("networkx")
    graphs = 0
    for e in corpus:
        g = e.graph
        if g.n <= 200:  # the oracle graphs; networkx takes O(n m) per graph
            graphs += 1
            h = nx.MultiGraph(list(zip(g.eu, g.ev)))
            h.add_nodes_from(range(g.n))
            want = nx.eccentricity(h)
            assert all_eccentricities(g) == [want[v] for v in range(g.n)], e.name
    assert graphs == 49


def test_center_eccentricity_matches_oracle_on_corpus(pipelines):
    # the ecc_H(s) that verify_certificate reads, against the oracle's BFS
    for pipe in pipelines.values():
        h, s = pipe.aug.H, pipe.cert.center
        assert int(vertex_bfs(h, s).max()) == eccentricity(h, s), pipe.entry.name
    assert len(pipelines) == 139


def test_spanning_tree_center_matches_reference_on_corpus(pipelines):
    for p in pipelines.values():
        h, root = p.aug.H, p.aug.root
        sets = [[root] + [v for v in range(p.graph.n) if v != root]]
        sets += [p.tree.stored(x) for x in range(p.tree.node_count)]
        for verts in sets:
            got = spanning_tree_center(h, verts)
            assert got == spanning_tree_center_by_dicts(h, verts), p.entry.name


def test_fse_per_face_matches_union_find_on_corpus(corpus):
    graphs = 0
    for e in corpus:
        g = e.graph
        if g.n <= 200:
            graphs += 1
            assert g.connected, e.name
            ref = [max(peel_numbers_by_union_find(g, f)) for f in range(g.face_count)]
            assert fse_outerplanarity_bruteforce(g).per_face == ref, e.name
    assert graphs == 49


FENCE_GIRTH = {
    **{f"H-{g}-{k}": g for g in (3, 4, 5, 6) for k in (3, 5, 7)},
    **{f"nested-{g}-{k}": g for g in (3, 4, 5) for k in (1, 3, 5, 7)},
    **{f"chain-{c}": 3 for c in ("deep", "generic", "small-alpha", "small-s")},
    **{"digon-chain": 2, "loop-chain": 1, "prism-1": 4, "prism-2": 4},
    **{"rand-10-0": 3, "rand-30-1": 3, "rand-50-2": 3, "tiny-rand-4": math.inf},
    **{f"tiny-rand-{n}": 3 for n in (5, 6, 7, 8)},
}


def test_first_face_of_vertex_on_corpus(corpus):
    for e in corpus:
        g = e.graph
        got = [g.first_face_of_vertex(v) for v in range(g.n)]
        assert got == [faces_of_vertex(g, v)[0] for v in range(g.n)], e.name


def test_cycle_enumerator_matches_reference_on_corpus(corpus):
    for e in corpus:
        g = e.graph
        if g.n > 60:
            continue
        darts_at, head, _ = _dart_lists(g)
        for L in range(1, 8):
            want_budget, got_budget = [10**7], [10**7]
            want = list(simple_cycles_of_length(g, L, want_budget))
            got = list(_simple_cycles_of_length(darts_at, head, L, got_budget))
            assert got == want and got_budget == want_budget, (e.name, L)


def test_fence_girth_frozen_on_corpus(corpus):
    got = {e.name: fence_girth_bruteforce(e.graph) for e in corpus if e.graph.n <= 60}
    assert got == FENCE_GIRTH


def test_writer_matches_rows_on_corpus(corpus):
    for e in corpus:
        text = dumps_plane_graph(e.graph)
        assert text == json.dumps(
            document_by_rows(e.graph), sort_keys=True, separators=(",", ":")
        ), e.name
        assert to_document(e.graph) == document_by_rows(e.graph), e.name
        assert dumps_plane_graph(loads_plane_graph(text)) == text, e.name


def test_str_and_bytes_load_alike_on_corpus(corpus):
    for e in corpus:
        text = dumps_plane_graph(e.graph)
        got = graph_fingerprint(loads_plane_graph(text.encode()))
        assert got == graph_fingerprint(loads_plane_graph(text)), e.name
