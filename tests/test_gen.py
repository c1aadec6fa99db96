"""Family generators: structure, metadata, determinism, domain errors."""

import pytest

from helpers import (
    degree,
    face_degree,
    face_vertices,
    faces_of_vertex,
    graph_fingerprint,
    is_bipartite,
    prism_by_insertion,
    random_triangulation_by_insertion,
)
from peelbound import embed, gen
from peelbound.embed import connect_components
from peelbound.gen import (
    _prism_band,
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from peelbound.graphio import dumps_plane_graph
from peelbound.oracle import diameter_exact, radius_exact
from test_peels import run_under_optimize


# ---------------------------------------------------------------------------
# Nested cycles
# ---------------------------------------------------------------------------


def test_nested_cycles_shape():
    g = gen_nested_cycles(4, 3)
    assert g.n == 14 and g.m == 12
    assert g.component_count == 5
    assert not g.connected and g.simple
    assert g.face_count == 4


def test_nested_cycles_nesting():
    g = gen_nested_cycles(3, 3)
    # innermost disc holds the inner singleton, outer disc the outer one
    assert faces_of_vertex(g, 0) == [0]
    assert faces_of_vertex(g, 10) == [3]
    # annular faces are bounded by consecutive rings
    assert sorted(face_vertices(g, 1)) == [1, 2, 3, 4, 5, 6]
    assert sorted(face_vertices(g, 2)) == [4, 5, 6, 7, 8, 9]


def test_nested_cycles_meta():
    odd = gen_nested_cycles(5, 3)
    assert odd.meta == {"family": "nested", "g": 5, "k": 3, "fse_at_least": 3}
    even = gen_nested_cycles(5, 4)
    assert "fse_at_least" not in even.meta


def test_nested_cycles_degenerate_rings():
    loops = gen_nested_cycles(1, 2)  # rings collapse to loops
    assert loops.n == 4 and loops.m == 2
    assert not loops.simple
    doubled = gen_nested_cycles(2, 2)  # rings are parallel-edge pairs
    assert doubled.n == 6 and not doubled.simple


@pytest.mark.parametrize("g,k", [(0, 3), (3, 0), (-1, 1)])
def test_nested_cycles_domain(g, k):
    with pytest.raises(ValueError):
        gen_nested_cycles(g, k)


# ---------------------------------------------------------------------------
# Lower-bound family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_lowerbound_h_size_formula(g):
    for k in (3, 5, 7):
        h = gen_lowerbound_H(g, k)
        assert h.n == k * g + g - 2 + (g % 2)
        assert h.connected and h.simple


def test_lowerbound_h3_is_triangulation():
    h = gen_lowerbound_H(3, 5)
    assert h.triangulated
    assert h.m == 3 * h.n - 6


def test_lowerbound_h4_is_bipartite():
    assert is_bipartite(gen_lowerbound_H(4, 5))
    assert not is_bipartite(gen_lowerbound_H(3, 5))
    assert not is_bipartite(gen_lowerbound_H(5, 3))


def test_lowerbound_h_meta():
    h = gen_lowerbound_H(6, 7)
    assert h.meta == {"family": "lowerbound-h", "g": 6, "k": 7, "fse_at_least": 5}


@pytest.mark.parametrize("g,k", [(2, 3), (4, 4), (4, 1), (5, -3)])
def test_lowerbound_h_domain(g, k):
    with pytest.raises(ValueError):
        gen_lowerbound_H(g, k)


def test_lowerbound_h_subdivision_degrees():
    # subdivision vertices keep degree 2; original corners keep degree 3
    h = gen_lowerbound_H(7, 3)
    degs = sorted(degree(h, v) for v in range(h.n))
    assert set(degs) <= {2, 3}


# ---------------------------------------------------------------------------
# Prism grids
# ---------------------------------------------------------------------------


def test_prism_band_quad_census():
    band = _prism_band(1)
    quads = [f for f in range(band.face_count) if face_degree(band, f) == 4]
    assert len(quads) == 9  # 3s quadrangular faces along the rim, s = 3k
    assert all(face_degree(band, f) in (3, 4) for f in range(band.face_count))


def test_prism_grid_shape():
    g = gen_prism_grid(1)
    assert g.n == 20 and g.m == 54 and g.face_count == 36
    assert g.triangulated and g.simple and g.connected
    assert g.m == 3 * g.n - 6


def test_prism_grid_meta_coords():
    g = gen_prism_grid(2)
    meta = g.meta
    assert meta["family"] == "prism"
    assert meta["k"] == 2
    assert meta["diam_at_most"] == 7 and meta["rad_at_least"] == 4
    assert len(meta["coords"]) == g.n and len(meta["copy"]) == g.n
    for x, y, z in meta["coords"]:
        assert x + y + z == 6 and min(x, y, z) >= 0
    assert set(meta["copy"]) == {0, 1}
    # both copies share the rim, so interior counts match
    interior = [c for c, (x, y, z) in zip(meta["copy"], meta["coords"]) if min(x, y, z) > 0]
    assert interior.count(0) == interior.count(1)


@pytest.mark.parametrize("k", [1, 2])
def test_prism_grid_metric_claims(k):
    g = gen_prism_grid(k)
    assert diameter_exact(g) <= 3 * k + 1
    _, rad = radius_exact(g)
    assert rad >= 2 * k


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prism_grid_matches_insertion_chain(k):
    assert graph_fingerprint(gen_prism_grid(k)) == graph_fingerprint(
        prism_by_insertion(k)
    )


def test_prism_grid_finishes_twice(monkeypatch):
    # once for the band, once for all 36 diagonals (37 with one per quad)
    calls = []
    finish = embed._finish_graph

    def counted_finish(*args, **kwargs):
        calls.append(1)
        return finish(*args, **kwargs)

    monkeypatch.setattr(embed, "_finish_graph", counted_finish)
    monkeypatch.setattr(gen, "_finish_graph", counted_finish)
    g = gen_prism_grid(4)
    assert g.triangulated and len(calls) == 2


def test_prism_grid_domain():
    with pytest.raises(ValueError):
        gen_prism_grid(0)


# ---------------------------------------------------------------------------
# Random triangulations
# ---------------------------------------------------------------------------


def test_random_triangulation_deterministic():
    a = gen_random_triangulation(50, 123)
    b = gen_random_triangulation(50, 123)
    assert dumps_plane_graph(a) == dumps_plane_graph(b)
    c = gen_random_triangulation(50, 124)
    assert dumps_plane_graph(a) != dumps_plane_graph(c)


@pytest.mark.parametrize("seed", range(5))
def test_random_triangulation_matches_insertion_loop(seed):
    for n in range(4, 201):
        text = dumps_plane_graph(gen_random_triangulation(n, seed))
        assert text == dumps_plane_graph(random_triangulation_by_insertion(n, seed)), n


@pytest.mark.parametrize("seed", [1001, 1002])
def test_large_random_triangulation_matches_insertion_loop(seed):
    assert dumps_plane_graph(gen_random_triangulation(2**15, seed)) == dumps_plane_graph(
        random_triangulation_by_insertion(2**15, seed)
    )


def test_random_triangulation_growth():
    k4 = gen_random_triangulation(4, 0)
    assert (k4.n, k4.m, k4.face_count) == (4, 6, 4)
    assert sorted(degree(k4, v) for v in range(4)) == [3, 3, 3, 3]
    big = gen_random_triangulation(500, 9)
    assert big.m == 3 * big.n - 6
    assert big.triangulated and big.simple


def test_random_triangulation_domain():
    with pytest.raises(ValueError):
        gen_random_triangulation(3, 0)


def test_meta_survives_connecting():
    g = connect_components(gen_nested_cycles(5, 3))
    assert g.meta["family"] == "nested"


def test_triangulation_postconditions_survive_optimize():
    # each generator's graph is finished with its flags forced off
    script = (
        "from peelbound import embed, gen\n"
        "def spoiled(finish):\n"
        "    def run(*args, **kwargs):\n"
        "        g = finish(*args, **kwargs)\n"
        "        g.triangulated = False\n"
        "        return g\n"
        "    return run\n"
        "k4 = gen.gen_random_triangulation(4, 0)\n"
        "embed._finish_graph = gen._finish_graph = spoiled(embed._finish_graph)\n"
        "for make in (lambda: gen.gen_random_triangulation(9, 1), lambda: gen.gen_prism_grid(1),\n"
        "             lambda: embed.triangulate_preserving_embedding(k4)):\n"
        "    try:\n"
        "        make()\n"
        "    except embed.InvariantError as exc:\n"
        "        print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False InvariantError random triangulation is not a simple triangulation",
        "False InvariantError prism grid is not a simple triangulation",
        "False InvariantError triangulation postcondition failed",
    ]


@pytest.mark.parametrize(
    "forge,make,message",
    [
        # the band comes back as K3: no quadrangle to close
        (
            "real = gen.build_plane_graph\n"
            "gen.build_plane_graph = lambda *a, **k: real(3, [(0, 1), (1, 2), (2, 0)], [[2, 0], [0, 1], [1, 2]])\n",
            "gen.gen_prism_grid(1)",
            "prism band has 0 quadrangles and faces of 3..3 darts, expected 9 quadrangles among triangles",
        ),
        # every face walk of a 4-cycle reads as one dart
        (
            "c4 = embed.build_plane_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[3, 0], [0, 1], [1, 2], [2, 3]])\n"
            "embed.PlaneGraph.walk = lambda self, w: [0]\n",
            "embed.triangulate_preserving_embedding(c4)",
            "triangulation met a face walk of 1 dart(s)",
        ),
    ],
    ids=["prism-band", "triangulate-walk"],
)
def test_triangulation_step_checks_survive_optimize(forge, make, message):
    script = (
        "from peelbound import embed, gen\n"
        + forge
        + "try:\n"
        f"    {make}\n"
        "except embed.InvariantError as exc:\n"
        "    print(__debug__, type(exc).__name__, exc)\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"False InvariantError {message}\n"
