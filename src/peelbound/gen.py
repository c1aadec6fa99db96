"""Generators for the graph families used in experiments and tests.

Five constructions:

* ``gen_nested_cycles`` -- two singleton vertices separated by k nested
  g-cycles; disconnected, with the face grouping spelling out the nesting.
  Every outerface choice needs roughly k/2 peels, so the family pins down
  how far peel counts can exceed the girth-based upper bound.
* ``gen_lowerbound_H`` -- connected, simple relatives of the nested-cycle
  family with girth and fence-girth exactly g.
* ``gen_radial_graph`` -- the vertex-face incidence graph of a connected
  plane graph: a bipartite quadrangulation.
* ``gen_prism_grid`` -- two mirrored triangular grids glued along the rim,
  the band between them closed in one linear pass; small diameter, large
  peel depth from every outerface.
* ``gen_random_triangulation`` -- seeded incremental triangulation used as
  a stress corpus.

The nested, lowerbound-H (g >= 4) and radial generators write their edge
and rotation rows as flat int32 arrays (:class:`embed.FlatRows`) with
array expressions, so :func:`build_plane_graph` validates them without a
Python row per vertex; the random triangulation hands its three dart
arrays to the graph directly.
"""

from __future__ import annotations

import random
from operator import index
from typing import Optional

import numpy as np

from .embed import (
    InvariantError,
    PlaneGraph,
    _Builder,
    _finish_graph,
    FlatRows,
    _int_array,
    _rotation_order,
    build_plane_graph,
    connect_components,
    triangulate_preserving_embedding,
)

__all__ = [
    "gen_nested_cycles",
    "gen_lowerbound_H",
    "gen_prism_grid",
    "gen_random_triangulation",
    "gen_radial_graph",
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

    Edge e joins ring vertex 1 + e to its successor on the ring, and the
    rows are written as arrays: vertex 1 + e lists the edge arriving from
    its ring predecessor, then e (for g = 1 the loop id twice, as the
    builder requires); the singletons' rows are empty.
    """
    g, k = index(g), index(k)
    if g < 1:
        raise ValueError("cycle length must be at least 1")
    if k < 1:
        raise ValueError("need at least one ring")
    n = g * k + 2
    e = np.arange(g * k, dtype=np.int32)
    j = e % g  # position on the ring
    ring = e - j  # the ring's first edge
    edges = np.stack((1 + e, 1 + ring + (j + 1) % g), axis=1)
    slots = np.stack((ring + (j - 1) % g, e), axis=1)
    lens = np.full(n, 2, dtype=np.int32)
    lens[[0, -1]] = 0
    # Ring i owns dart walks 2(i-1) (forward orbit, discovered first) and
    # 2(i-1)+1 (backward); the lone-vertex walks come last: inner singleton
    # is walk 2k, outer singleton walk 2k+1.  Face i pairs ring i's forward
    # walk with ring i+1's backward one.
    faces = np.empty((k + 1, 2), dtype=np.int32)
    faces[0] = 1, 2 * k
    faces[1:, 0] = 2 * np.arange(k)
    faces[1:, 1] = 2 * np.arange(1, k + 1) + 1
    faces[k, 1] = 2 * k + 1
    meta: dict = {"family": "nested", "g": g, "k": k}
    if k % 2 == 1:
        meta["fse_at_least"] = (k + 3) // 2
    return build_plane_graph(
        n,
        _pair_rows(edges),
        FlatRows(slots.ravel(), lens),
        faces=_pair_rows(faces),
        meta=meta,
    )


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

    The g = 4 skeleton: ring i (1-based) has u, v, w, x = 4i-3 .. 4i and
    owns edges 4i-4 .. 4i-1 as (u,v), (v,w), (w,x), (x,u); connector level
    i (0-based) owns a = 4k+2i as (u_i, v_{i+1}) and a+1 as (w_i, x_{i+1});
    the inner singleton 0 is u_0 = w_0 and the outer one 4k+1 is
    v_{k+1} = x_{k+1}.  Subdividing edge e = (a, b) by c vertices, in
    sorted edge order, appends c new vertices and c new edges: segment 0
    keeps id e, new vertex t lies between segments t and t+1, and b's slot
    of e names the last segment.  All rows are written as arrays.
    """
    g, k = index(g), index(k)
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

    n0, m0 = 4 * k + 2, 6 * k + 2
    i = np.arange(1, k + 1, dtype=np.int32)[:, None]  # ring, as a column
    ends = np.empty((m0, 2), dtype=np.int32)
    corners = 4 * i - 3 + np.arange(4, dtype=np.int32)  # u, v, w, x
    ends[: 4 * k, 0] = corners.ravel()
    ends[: 4 * k, 1] = np.roll(corners, -1, axis=1).ravel()
    links = ends[4 * k :].reshape(k + 1, 2, 2)
    level = 4 * np.arange(k + 1, dtype=np.int32)[:, None]
    links[:, :, 0] = level + [-3, -1]  # u_i, w_i
    links[:, :, 1] = level + [2, 4]  # v_{i+1}, x_{i+1}
    links[0, :, 0] = 0
    links[k, :, 1] = 4 * k + 1
    e, a = 4 * i - 4, 4 * k + 2 * i  # ring i's (u, v) edge, level i's first link
    rows = np.hstack((e, e + 3, a, e + 1, a - 2, e, e + 1, a + 1, e + 2, a - 1, e + 2, e + 3))
    slots = np.concatenate(
        ([4 * k, 4 * k + 1], rows.ravel(), [6 * k, 6 * k + 1]), dtype=np.int32
    )
    lens = np.full(n0, 3, dtype=np.int32)
    lens[[0, -1]] = 2

    counts = np.zeros(m0, dtype=np.int32)  # interior vertices each edge gains
    counts[0 : 4 * k : 4] = (g - 3) // 2  # each ring's (u, v) edge
    counts[2 : 4 * k : 4] = (g - 4) // 2  # each ring's (w, x) edge
    counts[[4 * k + 1, 6 * k + 1]] = (g - 3) // 2  # (0, x_1) and (w_k, 4k+1)
    sub = np.flatnonzero(counts)
    stop = np.cumsum(counts[sub])  # past each subdivided edge's new vertices
    start = stop - counts[sub]
    q = np.arange(counts.sum(), dtype=np.int32)  # new vertices and edges, in order
    # at its far end b, edge e's slot names e's last segment
    last = np.arange(m0, dtype=np.int32)
    last[sub] = m0 + stop - 1
    far = np.repeat(np.arange(n0, dtype=np.int32), lens) == ends[slots, 1]
    slots[far] = last[slots[far]]
    # segment t + 1 of e runs from new vertex t to the next, or to b
    segments = np.stack((n0 + q, n0 + q + 1), axis=1)
    segments[stop - 1, 1] = ends[sub, 1]
    ends[sub, 1] = n0 + start
    new_rows = np.stack((m0 + q - 1, m0 + q), axis=1)
    new_rows[start, 0] = sub
    return build_plane_graph(
        n0 + len(q),
        _pair_rows(np.concatenate((ends, segments))),
        FlatRows(np.concatenate((slots, new_rows.ravel())), np.append(lens, np.full_like(q, 2))),
        meta=meta,
    )


def _pair_rows(pairs: np.ndarray) -> FlatRows:
    """The rows of an (r, 2) array, two ids each."""
    return FlatRows(pairs.ravel(), np.full(len(pairs), 2, dtype=np.int32))


# ---------------------------------------------------------------------------
# Radial graphs
# ---------------------------------------------------------------------------


def gen_radial_graph(g: PlaneGraph) -> PlaneGraph:
    """The vertex-face incidence graph of a connected plane graph with edges.

    Vertices 0..n-1 are g's vertices and n + w is walk w, which is a face
    of g since g is connected.  Edge d joins dart d's origin to the walk
    that holds d, so there are 2m edges and every face of the result is a
    quadrangle around one edge of g: a bipartite quadrangulation.  Vertex
    v lists its darts in slot order, and walk w lists its darts in reverse
    trace order.
    """
    if not g.connected or g.m == 0:
        raise ValueError("radial graph needs a connected graph with an edge")
    n, m2 = g.n, 2 * g.m
    origin = np.frombuffer(g.ends, dtype=np.int32)
    edges = np.stack((origin, n + np.frombuffer(g.walk_of_dart, dtype=np.int32)), axis=1)
    by_vertex, darts = _rotation_order(g.rot_next, g.rot_first, origin)
    indptr = np.frombuffer(g.walk_indptr, dtype=np.int32)
    lens = np.diff(indptr)
    # position p of walk w holds its mirror, indptr[w] + indptr[w + 1] - 1 - p
    mirror = np.repeat(indptr[:-1] + indptr[1:] - 1, lens) - np.arange(m2, dtype=np.int32)
    walks = np.frombuffer(g.walk_flat, dtype=np.int32)[mirror]
    return build_plane_graph(
        n + g.dart_walk_count,
        _pair_rows(edges),
        FlatRows(np.concatenate((darts, walks)), np.concatenate((np.diff(by_vertex), lens))),
        meta={"family": "radial"},
    )


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
