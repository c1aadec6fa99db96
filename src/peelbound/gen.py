"""Generators for the graph families used in experiments and tests.

Four constructions:

* ``gen_nested_cycles`` -- two singleton vertices separated by k nested
  g-cycles; disconnected, with the face grouping spelling out the nesting.
  Every outerface choice needs roughly k/2 peels, so the family pins down
  how far peel counts can exceed the girth-based upper bound.
* ``gen_lowerbound_H`` -- connected, simple relatives of the nested-cycle
  family with girth and fence-girth exactly g.
* ``gen_prism_grid`` -- two mirrored triangular grids glued along the rim,
  the band between them closed in one linear pass; small diameter, large
  peel depth from every outerface.
* ``gen_random_triangulation`` -- seeded incremental triangulation used as
  a stress corpus.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from .embed import (
    InvariantError,
    PlaneGraph,
    _Builder,
    _finish_graph,
    _int_array,
    build_plane_graph,
    connect_components,
    triangulate_preserving_embedding,
)

__all__ = [
    "gen_nested_cycles",
    "gen_lowerbound_H",
    "gen_prism_grid",
    "gen_random_triangulation",
]


# ---------------------------------------------------------------------------
# Nested cycles
# ---------------------------------------------------------------------------


def gen_nested_cycles(g: int, k: int) -> PlaneGraph:
    """Singleton, then k nested g-cycles, then another singleton.

    Vertex ids: the inner singleton is 0; ring i (1-based, innermost first)
    occupies ``1+(i-1)g .. ig``; the outer singleton is ``gk+1``.  The face
    grouping pairs each ring's two boundary walks with its neighbours so the
    annuli nest: face 0 is the disc inside ring 1 (holding the inner
    singleton), face i lies between rings i and i+1, and face k is the outer
    disc (holding the outer singleton).
    """
    if g < 1:
        raise ValueError("cycle length must be at least 1")
    if k < 1:
        raise ValueError("need at least one ring")
    n = g * k + 2
    edges: list[tuple[int, int]] = []
    rotation: list[list[int]] = [[] for _ in range(n)]
    for i in range(k):
        base = 1 + i * g
        first = len(edges)
        for j in range(g):
            edges.append((base + j, base + (j + 1) % g))
        for j in range(g):
            # Degree-2 slots: edge arriving from the ring predecessor, then
            # the edge leaving towards the successor.  (For g=1 the loop id
            # is listed twice, as the builder requires.)
            rotation[base + j] = [first + (j - 1) % g, first + j]
    # Ring i owns dart walks 2(i-1) (forward orbit, discovered first) and
    # 2(i-1)+1 (backward); the lone-vertex walks come last: inner singleton
    # is walk 2k, outer singleton walk 2k+1.
    faces: list[list[int]] = [[1, 2 * k]]
    for i in range(1, k):
        faces.append([2 * (i - 1), 2 * i + 1])
    faces.append([2 * (k - 1), 2 * k + 1])
    meta: dict = {"family": "nested", "g": g, "k": k}
    if k % 2 == 1:
        meta["fse_at_least"] = (k + 3) // 2
    return build_plane_graph(n, edges, rotation, faces=faces, meta=meta)


# ---------------------------------------------------------------------------
# Reinforced lower-bound family
# ---------------------------------------------------------------------------


def gen_lowerbound_H(g: int, k: int) -> PlaneGraph:
    """Connected simple graph of girth and fence-girth g with k nested rings.

    For g = 3 this is a triangulation of the connected nested-cycle family.
    For g = 4 the rings are 4-cycles <u_i, v_i, w_i, x_i> joined by connector
    edges (u_i, v_{i+1}) and (w_i, x_{i+1}), with the inner and outer
    singletons playing all four roles at levels 0 and k+1.  For g >= 5 the
    g = 4 graph is subdivided: each ring gains ceil((g-4)/2) vertices on its
    (u, v) edge and floor((g-4)/2) on its (w, x) edge, and the two singletons
    grow into paths of floor((g-1)/2) vertices.
    """
    if g < 3:
        raise ValueError("girth parameter must be at least 3")
    if k < 3 or k % 2 == 0:
        raise ValueError("ring count must be odd and at least 3")
    meta: dict = {"family": "lowerbound-h", "g": g, "k": k}
    meta["fse_at_least"] = (k + 3) // 2
    if g == 3:
        h = triangulate_preserving_embedding(
            connect_components(gen_nested_cycles(3, k))
        )
        h.meta.clear()
        h.meta.update(meta)
        return h

    n, edges, rotation = _quad_ring_skeleton(k)
    alpha = (g - 3) // 2  # extra vertices on each ring's (u, v) edge
    beta = (g - 4) // 2  # extra vertices on each ring's (w, x) edge
    ends = (g - 3) // 2  # growth of each singleton into a path
    counts: dict[int, int] = {}
    for i in range(k):
        if alpha:
            counts[4 * i] = alpha
        if beta:
            counts[4 * i + 2] = beta
    if ends:
        counts[4 * k + 1] = ends  # (inner singleton, x_1) connector
        counts[6 * k + 1] = ends  # (w_k, outer singleton) connector
    n, edges, rotation = _subdivide(n, edges, rotation, counts)
    return build_plane_graph(n, edges, rotation, meta=meta)


def _quad_ring_skeleton(
    k: int,
) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """k nested 4-cycles <u,v,w,x> plus two singletons, wired by connectors.

    Ring i (1-based) occupies vertices 4i-3..4i; the inner singleton 0 acts
    as u_0 = w_0, the outer singleton 4k+1 as v_{k+1} = x_{k+1}.  Edge ids:
    ring i owns 4(i-1)..4(i-1)+3 as (u,v), (v,w), (w,x), (x,u); connector
    level i (0-based) owns 4k+2i as (u_i, v_{i+1}) and 4k+2i+1 as
    (w_i, x_{i+1}).
    """
    inner, outer = 0, 4 * k + 1
    n = 4 * k + 2

    def u(i: int) -> int:
        return inner if i == 0 else 4 * i - 3

    def v(i: int) -> int:
        return outer if i == k + 1 else 4 * i - 2

    def w(i: int) -> int:
        return inner if i == 0 else 4 * i - 1

    def x(i: int) -> int:
        return outer if i == k + 1 else 4 * i

    edges: list[tuple[int, int]] = []
    for i in range(1, k + 1):
        edges += [(u(i), v(i)), (v(i), w(i)), (w(i), x(i)), (x(i), u(i))]
    for i in range(k + 1):
        edges += [(u(i), v(i + 1)), (w(i), x(i + 1))]

    def e_uv(i: int) -> int:
        return 4 * (i - 1)

    def e_vw(i: int) -> int:
        return 4 * (i - 1) + 1

    def e_wx(i: int) -> int:
        return 4 * (i - 1) + 2

    def e_xu(i: int) -> int:
        return 4 * (i - 1) + 3

    def e_a(i: int) -> int:
        return 4 * k + 2 * i

    def e_b(i: int) -> int:
        return 4 * k + 2 * i + 1

    rotation: list[list[int]] = [[] for _ in range(n)]
    rotation[inner] = [e_a(0), e_b(0)]
    rotation[outer] = [e_a(k), e_b(k)]
    for i in range(1, k + 1):
        rotation[u(i)] = [e_uv(i), e_xu(i), e_a(i)]
        rotation[v(i)] = [e_vw(i), e_a(i - 1), e_uv(i)]
        rotation[w(i)] = [e_vw(i), e_b(i), e_wx(i)]
        rotation[x(i)] = [e_b(i - 1), e_wx(i), e_xu(i)]
    return n, edges, rotation


def _subdivide(
    n: int,
    edges: list[tuple[int, int]],
    rotation: list[list[int]],
    counts: dict[int, int],
) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """Replace each edge e by a path with counts[e] fresh interior vertices.

    The first path segment keeps id e, so the rotation at the first endpoint
    stays untouched; only the far endpoint's rotation entry is rewritten to
    the last segment's id.
    """
    edges = list(edges)
    rotation = [list(r) for r in rotation]
    for e, extra in sorted(counts.items()):
        if extra <= 0:
            continue
        a, b = edges[e]
        path = [a] + list(range(n, n + extra)) + [b]
        n += extra
        edges[e] = (path[0], path[1])
        seg_ids = [e]
        for p, q in zip(path[1:-1], path[2:]):
            seg_ids.append(len(edges))
            edges.append((p, q))
        for t in range(extra):
            rotation.append([seg_ids[t], seg_ids[t + 1]])
        rotation[b] = [seg_ids[-1] if eid == e else eid for eid in rotation[b]]
    return n, edges, rotation


# ---------------------------------------------------------------------------
# Prism grid
# ---------------------------------------------------------------------------

# Lattice neighbour offsets in clockwise slot order for the front copy; the
# mirrored back copy uses the reversed order.
_HEX_CW = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def gen_prism_grid(k: int) -> PlaneGraph:
    """Two mirrored triangular grids of sidelength 3k glued along the rim.

    Vertices of each copy are the lattice points (x, y, z) with
    x + y + z = 3k and all coordinates nonnegative; every rim point (one
    coordinate zero) is joined to its mirror twin.  The gluing leaves a band
    of quadrangular faces, closed in one pass: each quad's diagonal from its
    walk's first vertex to its third goes into one builder, finished once, so
    generation is linear in n.  Face f is walk f, as in every connected graph.
    Coordinates and copy flags are kept in ``meta`` for assertions;
    n = (3k+1)(3k+2).
    """
    if k < 1:
        raise ValueError("grid parameter must be at least 1")
    band = _prism_band(k)
    b = _Builder.from_graph(band)
    for w in range(band.dart_walk_count):
        d = band.walk(w)
        if len(d) == 4:  # diagonal from the walk's first vertex to its third
            b.add_chord(d[3], d[0], d[1], d[2])
    g = _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=band.meta)
    if not (g.triangulated and g.simple):
        raise InvariantError("prism grid is not a simple triangulation")
    return g


def _prism_band(k: int) -> PlaneGraph:
    """The glued double grid before the quadrangular band is triangulated."""
    s = 3 * k
    per = (s + 1) * (s + 2) // 2

    def vid(copy: int, x: int, y: int) -> int:
        return copy * per + x * (s + 1) - x * (x - 1) // 2 + y

    coords: list[list[int]] = []
    copies: list[int] = []
    for copy in (0, 1):
        for x in range(s + 1):
            for y in range(s + 1 - x):
                coords.append([x, y, s - x - y])
                copies.append(copy)

    edges: list[tuple[int, int]] = []
    nbr: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}

    def reg(copy: int, x: int, y: int, d: tuple[int, int], e: int) -> None:
        nbr.setdefault((copy, x, y), {})[d] = e

    for copy in (0, 1):
        for x in range(s + 1):
            for y in range(s + 1 - x):
                for dx, dy in ((1, 0), (0, 1), (1, -1)):
                    xx, yy = x + dx, y + dy
                    if yy < 0 or xx + yy > s:
                        continue
                    e = len(edges)
                    edges.append((vid(copy, x, y), vid(copy, xx, yy)))
                    reg(copy, x, y, (dx, dy), e)
                    reg(copy, xx, yy, (-dx, -dy), e)
    rim: dict[tuple[int, int], int] = {}
    for x in range(s + 1):
        for y in range(s + 1 - x):
            if x == 0 or y == 0 or x + y == s:
                rim[(x, y)] = len(edges)
                edges.append((vid(0, x, y), vid(1, x, y)))

    rotation: list[list[int]] = []
    for copy in (0, 1):
        order = _HEX_CW if copy == 0 else tuple(reversed(_HEX_CW))
        for x in range(s + 1):
            for y in range(s + 1 - x):
                rotation.append(
                    _rim_rotation(order, nbr[(copy, x, y)], rim.get((x, y)))
                )

    meta = {
        "family": "prism",
        "k": k,
        "coords": coords,
        "copy": copies,
        "diam_at_most": 3 * k + 1,
        "rad_at_least": 2 * k,
    }
    g = build_plane_graph(2 * per, edges, rotation, meta=meta)
    lengths = np.diff(g.walk_indptr)  # g is connected: face f is walk f
    quads = np.count_nonzero(lengths == 4)
    # Exactly one quadrangular face per rim edge of one copy; the rest are
    # the grid triangles.
    if not (quads == 3 * s and lengths.max() == 4 and lengths.min() == 3):
        raise InvariantError(
            f"prism band has {quads} quadrangles and faces of {lengths.min()}"
            f"..{lengths.max()} darts, expected {3 * s} quadrangles among triangles"
        )
    return g


def _rim_rotation(
    order: tuple[tuple[int, int], ...],
    have: dict[tuple[int, int], int],
    rim_edge: Optional[int],
) -> list[int]:
    """Slot order at one grid vertex; the rim edge sits in the gap left by
    the missing lattice directions (always a contiguous block)."""
    if rim_edge is None:
        return [have[d] for d in order]
    start = next(
        i for i, d in enumerate(order) if d in have and order[i - 1] not in have
    )
    rot = [
        have[order[(start + t) % 6]]
        for t in range(6)
        if order[(start + t) % 6] in have
    ]
    rot.append(rim_edge)
    return rot


# ---------------------------------------------------------------------------
# Random triangulations
# ---------------------------------------------------------------------------


# Dart pair offsets within one step's three edges: a split keeps its slot
# as (a, s1, q0); a creation fills slot 2 + 2t with (b, s2, q1) and slot
# 3 + 2t with (c, s0, q2); the two faces of K3 are (0, 2, 4) and (1, 5, 3).
# Columns: split, even creation, odd creation, slot 0, slot 1.
_SECOND = np.array([2, 4, 0, 2, 5], np.int32)
_THIRD = np.array([1, 3, 5, 4, 3], np.int32)


def gen_random_triangulation(n: int, seed: int) -> PlaneGraph:
    """Triangulation grown by seeded random vertex insertion into faces.

    Deterministic per seed; not a uniform sampler.  Each step picks a face,
    adds one vertex inside it, and joins it to the three corners, so the
    result is simple and triangulated with 2n-4 faces.

    The faces live in slots: K3's two faces in slots 0 and 1, and step t
    (new vertex 3 + t, new edges 3 + 3t + j with darts s_j = 2(3 + 3t + j)
    from corner j and q_j = s_j + 1 back) splits the slot p it drew, holding
    darts (a, b, c), into (a, s1, q0) in slot p, (b, s2, q1) in slot 2 + 2t
    and (c, s0, q2) in slot 3 + 2t.  A slot's first dart and its first two
    corners never change; its other two darts and its last corner come from
    its latest event, its previous split or its creation.  So the steps are
    replayed at once: a stable sort of the drawn slots gives each step's
    previous split, pointer jumping over parent slots gives the first two
    corners, and the final slots give ``rot_next``, since a face's darts
    follow each other: ``rot_next[x ^ 1]`` is the dart after x.
    """
    if n < 4:
        raise ValueError("need at least four vertices")
    steps = n - 3
    slots = 2 + 2 * steps
    rng = random.Random(seed)
    # step t draws one of the 2 + 2t slots there are, as the insertion loop did
    idx = np.fromiter(map(rng.randrange, range(2, slots, 2)), np.int32, steps)
    # a stable sort of idx: the step breaks ties in the key, which numpy's
    # default sort handles about three times as fast as kind="stable"
    order = np.argsort((idx.astype(np.int64) << 32) | np.arange(steps))
    drawn = idx[order]
    again = drawn[1:] == drawn[:-1]
    prev = np.full(steps, -1, np.int32)
    prev[order[1:][again]] = order[:-1][again]
    last = np.full(slots, -1, np.int32)
    ends = np.append(~again, True)
    last[drawn[ends]] = order[ends]

    def tail(slot: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, ...]:
        """Second and third dart and last corner of each slot after ``split``."""
        event = np.where(split >= 0, split, (slot - 2) >> 1)  # K3's slots: step -1
        kind = np.where(split >= 0, 0, np.where(slot < 2, 3 + slot, 1 + (slot & 1)))
        base = 6 + 6 * event
        return base + _SECOND[kind], base + _THIRD[kind], event + 3

    second, third, corner = tail(idx, prev)
    first = np.empty(slots, np.int32)
    first[:2] = 0, 1
    first[2::2], first[3::2] = second, third
    # first two corners: slot 2 + 2t holds (p's corner 1, corner), slot
    # 3 + 2t (corner, p's corner 0); follow the parents to a known one
    val = np.empty(2 * slots, np.int32)
    val[:4] = 0, 1, 1, 0
    val[5::4] = val[6::4] = corner
    ptr = np.arange(2 * slots, dtype=np.int32)
    ptr[4::4] = 2 * idx + 1
    ptr[7::4] = 2 * idx
    todo = np.flatnonzero(ptr != np.arange(2 * slots))
    while todo.size:  # pointer jumping on the entries not yet at a known one
        ptr[todo] = up = ptr[ptr[todo]]
        todo = todo[ptr[up] != up]
    corners = val[ptr].reshape(slots, 2)[idx]

    face = np.empty((slots, 3), np.int32)
    face[:, 0] = first
    face[:, 1], face[:, 2] = tail(np.arange(slots, dtype=np.int32), last)[:2]
    rot_next = np.empty(6 + 6 * steps, np.int32)
    rot_next[face ^ 1] = np.roll(face, -1, axis=1)
    ends = np.empty((1 + steps, 3, 2), np.int32)  # K3's edges, then three per new vertex
    ends[0] = (0, 1), (1, 2), (2, 0)
    ends[1:, :2, 0] = corners
    ends[1:, 2, 0] = corner
    ends[1:, :, 1] = np.arange(3, n, dtype=np.int32)[:, None]
    out = _finish_graph(
        n,
        _int_array(ends.ravel()),
        _int_array(rot_next),
        _int_array(np.concatenate(([0, 2, 4], np.arange(7, 6 * steps + 7, 6)))),
        meta={"family": "random", "n": n, "seed": seed},
    )
    if not (out.triangulated and out.simple):
        raise InvariantError("random triangulation is not a simple triangulation")
    return out
