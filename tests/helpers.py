"""Shared graph builders, references and proof-audit helpers for the test suite."""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from peelbound.center import ceil_sqrt
from peelbound.embed import (
    GraphFormatError,
    InvariantError,
    PlaneGraph,
    _Builder,
    _csr_gather,
    _distinct,
    _face_rows,
    _finish_graph,
    _grouping,
    _int_array,
    _label_walks,
    build_plane_graph,
    connect_components,
    triangulate_preserving_embedding,
)
from peelbound.gen import _prism_band, gen_random_triangulation
from peelbound.oracle import OracleBudgetError, _deletion_counts, _face_bit_tables, radius_exact
from peelbound.peels import Augmentation, PeelContext, TreeOfPeels


def graph_fingerprint(g: PlaneGraph) -> list:
    """Every stored array, the face grouping, meta and the three flags."""
    return [
        list(g.eu), list(g.ev), list(g.rot_next), list(g.rot_first),
        [list(grp) for grp in face_walks(g)], list(g.walk_flat),
        list(g.walk_indptr), list(g.lone_walk_vertex), g.meta,
        g.simple, g.connected, g.triangulated,
    ]


def dart_ends(eu: array, ev: array) -> tuple[np.ndarray, np.ndarray]:
    """(origin, head) of every dart as int64, built from the two edge columns
    (dart 2e runs eu[e] -> ev[e]) rather than read off ``PlaneGraph.ends``."""
    u = np.frombuffer(eu, dtype=np.int32)
    v = np.frombuffer(ev, dtype=np.int32)
    origin = np.empty(2 * len(u), dtype=np.int64)
    head = np.empty_like(origin)
    origin[0::2] = head[1::2] = u
    origin[1::2] = head[0::2] = v
    return origin, head


def check_grouping_by_loops(faces, n_walks: int) -> None:
    """Reference for the grouping checks of ``_finish_graph``: one Python loop
    per check, in its order, each raising at its first offender."""
    rows = [[index(w) for w in row] for row in faces]
    if [] in rows:
        raise GraphFormatError("empty face in grouping")
    for w in (w for row in rows for w in row):
        if not 0 <= w < n_walks:
            raise GraphFormatError(f"face grouping references walk {w}")
    seen: set[int] = set()
    for w in (w for row in rows for w in row):
        if w in seen:
            raise GraphFormatError(f"walk {w} grouped twice")
        seen.add(w)
    if len(seen) < n_walks:
        raise GraphFormatError("face grouping does not cover all walks")


def trace_walks_by_loop(rot_next, m2: int) -> tuple[array, array, array]:
    """Reference walk trace: one Python step per dart of face_next.

    Returns (walk_indptr, walk_flat, walk_of_dart); walks start at the
    smallest unvisited dart, so they are numbered by their smallest dart.
    """
    walk_of = array("i", [-1]) * m2
    flat = array("i")
    indptr = array("i", [0])
    wid = 0
    for d0 in range(m2):
        if walk_of[d0] >= 0:
            continue
        d = d0
        while True:
            walk_of[d] = wid
            flat.append(d)
            d = rot_next[d ^ 1]
            if d == d0:
                break
        indptr.append(len(flat))
        wid += 1
    return indptr, flat, walk_of


def label_walks_by_doubling(rot_next) -> tuple[np.ndarray, int]:
    """Reference for ``embed._label_walks``: pointer doubling on every input.

    Round k labels each dart with the least of the 2^k darts from it along
    face_next, until a round changes nothing; the labels, ranked, number the
    walks by their smallest dart.
    """
    rn = np.array(rot_next, dtype=np.int32)
    jump = rn.reshape(-1, 2)[:, ::-1].ravel()
    lab = np.arange(len(jump), dtype=np.int32)
    while True:
        step = lab[jump]
        if not (step < lab).any():
            break
        np.minimum(lab, step, out=lab)
        jump = jump[jump]
    rank = np.cumsum(lab == np.arange(len(lab), dtype=np.int32), dtype=np.int32) - 1
    return rank[lab], int(rank[-1]) + 1 if len(rank) else 0


def incidence_by_sort(g: PlaneGraph) -> tuple[np.ndarray, ...]:
    """Reference for ``embed._incidence``: both sides grouped by one ``argsort``.

    Same five arrays, same entries (an isolated vertex and its host face
    list each other once, the vertex its own head), from g's dart arrays
    alone; :func:`sorted_view` puts both in one order within each row.
    """
    lone = np.frombuffer(g.lone_walk_vertex, dtype=np.int32)
    origin, head = dart_ends(g.eu, g.ev)
    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    verts = np.concatenate([origin, lone]).astype(np.int32)
    heads = np.concatenate([head, lone]).astype(np.int32)
    faces = face_of_walk[np.concatenate([np.frombuffer(g.walk_of_dart, dtype=np.int32),
                                         np.arange(g.dart_walk_count, len(face_of_walk))])]
    vf_indptr, by_vert = _grouping(verts, g.n)
    fv_indptr, by_face = _grouping(faces, g.face_count)
    return vf_indptr, faces[by_vert], heads[by_vert], fv_indptr, verts[by_face]


def sorted_view(view) -> list:
    """An incidence view as lists with each row sorted: (face, head) pairs per
    vertex, vertices per face."""
    vf_indptr, vf_faces, vf_heads, fv_indptr, fv_verts = (np.asarray(a).tolist() for a in view)
    pairs = list(zip(vf_faces, vf_heads))
    return [
        vf_indptr,
        [sorted(pairs[a:b]) for a, b in zip(vf_indptr, vf_indptr[1:])],
        fv_indptr,
        [sorted(fv_verts[a:b]) for a, b in zip(fv_indptr, fv_indptr[1:])],
    ]


def build_plane_graph_by_slots(n, edges, rotation, faces=None, flags=None, meta=None):
    """Reference for ``build_plane_graph``: one Python step per edge and slot.

    Raises at the first bad edge, else at the first bad rotation slot, else at
    the first edge missing a slot, else at the first defect of the grouping
    (:func:`check_grouping_by_loops`); the Euler and flag checks are the
    library's.
    """
    if n < 0:
        raise GraphFormatError("negative vertex count")
    if n == 0:
        raise GraphFormatError("graph has no vertices")
    if len(rotation) != n:
        raise GraphFormatError(f"rotation has {len(rotation)} rows, expected {n}")

    b = empty_builder(n)
    for e, pair in enumerate(edges):
        if len(pair) != 2:
            raise GraphFormatError(f"edge {e} is not a pair")
        u, v = index(pair[0]), index(pair[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {e} endpoint out of range")
        b._new_edge(u, v)

    m = len(b.ends) // 2
    slot_used = array("i", [0] * m)  # occurrences consumed per edge
    for v in range(n):
        darts: list[int] = []
        for e in rotation[v]:
            e = index(e)
            if not (0 <= e < m):
                raise GraphFormatError(f"rotation of {v} references edge {e}")
            u0, v0 = b.ends[2 * e], b.ends[2 * e + 1]
            if u0 == v0:
                if v != u0:
                    raise GraphFormatError(f"loop {e} listed at wrong vertex {v}")
                if slot_used[e] == 0:
                    darts.append(2 * e)
                elif slot_used[e] == 1:
                    darts.append(2 * e + 1)
                else:
                    raise GraphFormatError(f"loop {e} appears more than twice")
                slot_used[e] += 1
            else:
                if v == u0:
                    d = 2 * e
                elif v == v0:
                    d = 2 * e + 1
                else:
                    raise GraphFormatError(f"edge {e} listed at non-endpoint {v}")
                if slot_used[e] & (1 << (d & 1)):
                    raise GraphFormatError(f"edge {e} appears twice in rotation of {v}")
                slot_used[e] |= 1 << (d & 1)
                darts.append(d)
        set_rotation(b, v, darts)

    for e in range(m):
        u0, v0 = b.ends[2 * e], b.ends[2 * e + 1]
        ok = slot_used[e] == 2 if u0 == v0 else slot_used[e] == 3
        if not ok:
            raise GraphFormatError(f"edge {e} missing from some rotation")

    if faces is not None:
        lone = sum(1 for v in range(n) if b.rot_first[v] < 0)
        check_grouping_by_loops(faces, _label_walks(b.rot_next)[1] + lone)
    g = _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, face_grouping=faces, meta=meta)
    computed = {"simple": g.simple, "connected": g.connected, "triangulated": g.triangulated}
    for key, val in (flags or {}).items():
        if key in computed and bool(val) != computed[key]:
            raise GraphFormatError(f"flag {key}={val} contradicts computed {computed[key]}")
    return g


def articulation_flags(g: PlaneGraph) -> bytearray:
    """Reference cutvertex flags: iterative lowpoint DFS (multigraph-safe)."""
    n = g.n
    disc = array("i", [-1] * n)
    low = array("i", [0] * n)
    flags = bytearray(n)
    darts_at = [g.rotation_darts(v) for v in range(g.n)]
    timer = 0
    for start in range(n):
        if disc[start] >= 0:
            continue
        root_children = 0
        # stack entries: (vertex, incoming edge id, next dart index)
        stack = [(start, -1, 0)]
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, in_edge, idx = stack[-1]
            if idx < len(darts_at[v]):
                stack[-1] = (v, in_edge, idx + 1)
                d = darts_at[v][idx]
                e = d >> 1
                w = g.head(d)
                if w == v or e == in_edge:
                    continue  # loop, or the tree edge we came in on
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == start:
                        root_children += 1
                    stack.append((w, e, 0))
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if p != start and low[v] >= disc[p]:
                        flags[p] = 1
        if root_children >= 2:
            flags[start] = 1
    return flags


def csr_by_sort(keys: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row k of values by key k in [0, size), sorted afresh on every call."""
    indptr, order = _grouping(keys, size)
    return indptr, values[order]


def components_by_bfs(n: int, eu: array, ev: array) -> tuple[array, int]:
    """Reference component labels: one numpy frontier BFS per component.

    Seeds are taken in vertex order, so components are numbered by their
    smallest vertex.
    """
    comp = array("i", [-1]) * n
    comp_np = np.frombuffer(comp, dtype=np.int32)
    indptr, dest = csr_by_sort(*dart_ends(eu, ev), n)
    slot = np.empty(n, dtype=np.int64)
    label = 0
    for seed in range(n):
        if comp_np[seed] >= 0:
            continue
        comp_np[seed] = label
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            nbrs = _csr_gather(indptr, dest, frontier)
            frontier = _distinct(nbrs[comp_np[nbrs] < 0], slot)
            comp_np[frontier] = label
        label += 1
    return comp, label


def radial_bfs_by_rounds(
    g: PlaneGraph, source_vertex=None, source_face=None
) -> tuple[np.ndarray, np.ndarray]:
    """Reference radial BFS, (vertex_dist, face_dist): both incidence CSRs
    sorted afresh, one numpy round per level.

    Every dart links its origin to its face and every isolated vertex its
    host face; raises like ``radial_bfs`` on bad sources and unreached
    vertices or faces.
    """
    if (source_vertex is None) == (source_face is None):
        raise ValueError("exactly one of source_vertex / source_face required")

    vdist = np.full(g.n, -1, dtype=np.int64)
    fdist = np.full(g.face_count, -1, dtype=np.int64)
    if source_vertex is not None:
        if not (0 <= source_vertex < g.n):
            raise ValueError("source vertex out of range")
        kind, src = "vertex", source_vertex
        vdist[src] = 0
    else:
        if not (0 <= source_face < g.face_count):
            raise ValueError("source face out of range")
        kind, src = "face", source_face
        fdist[src] = 0

    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    walk_of_dart = np.frombuffer(g.walk_of_dart, dtype=np.int32)
    verts = np.concatenate(
        [dart_ends(g.eu, g.ev)[0], np.frombuffer(g.lone_walk_vertex, dtype=np.int32)]
    )
    faces = np.concatenate(
        [face_of_walk[walk_of_dart], face_of_walk[g.dart_walk_count :]]
    ).astype(np.int64)
    to_faces = (*csr_by_sort(verts, faces, g.n), fdist)
    to_verts = (*csr_by_sort(faces, verts, g.face_count), vdist)
    step, next_step = (to_faces, to_verts) if kind == "vertex" else (to_verts, to_faces)
    slot = np.empty(max(g.n, g.face_count), dtype=np.int64)

    front = np.array([src], dtype=np.int64)
    dist = 0
    while front.size:
        dist += 1
        indptr, nbrs, nbr_dist = step
        cand = _csr_gather(indptr, nbrs, front)
        front = _distinct(cand[nbr_dist[cand] < 0], slot)
        nbr_dist[front] = dist
        step, next_step = next_step, step

    if (vdist < 0).any():
        raise GraphFormatError("radial BFS did not reach every vertex")
    if (fdist < 0).any():
        raise GraphFormatError("radial BFS did not reach every face")
    return vdist, fdist


def random_plane_map(seed: int, steps: int, components: int = 1) -> PlaneGraph:
    """Seeded plane multigraph: random connected maps nested in each other's faces.

    Each component starts as one vertex and takes about ``steps /
    components`` random steps at a random corner: a pendant edge to a new
    vertex, a chord to another corner of the same walk (loops through two
    corners of one vertex and parallel edges included) or a loop inside the
    corner.  A component that takes no step stays a lone vertex.  Component
    i > 0 is dropped into a random face of those before it, one of its own
    walks (picked at random) joining that face.  Faces are shuffled.
    """
    rng = random.Random(seed)
    b = empty_builder(0)
    rn = b.rot_next
    comp_darts: list[list[int]] = []
    first_vertex: list[int] = []
    for c in range(components):
        v0 = new_vertex(b)
        first_vertex.append(v0)
        darts: list[int] = []
        for _ in range(rng.randint(0, 2 * steps // components)):
            if not darts:
                w = new_vertex(b)
                e = b.add_isolated_pair(v0, w)
                darts += [2 * e, 2 * e + 1]
                continue
            rot_prev = {rn[d]: d for d in darts}
            at = rng.choice(darts)
            prev = rot_prev[at] ^ 1
            kind = rng.random()
            if kind < 0.4:
                e = b.add_edge_at_corner_to_isolated(prev, at, new_vertex(b))
            else:
                walk = [at]
                while rn[walk[-1] ^ 1] != at:
                    walk.append(rn[walk[-1] ^ 1])
                at2 = at if kind > 0.9 else rng.choice(walk)
                if at2 == at:  # a loop inside one corner bounds a face of one dart
                    v = b.ends[prev ^ 1]
                    e = b._new_edge(v, v)
                    rn[prev ^ 1] = 2 * e
                    rn[2 * e] = 2 * e + 1
                    rn[2 * e + 1] = at
                else:
                    e = b.add_chord(prev, at, rot_prev[at2] ^ 1, at2)
            darts += [2 * e, 2 * e + 1]
        comp_darts.append(darts)

    _, _, walk_of = trace_walks_by_loop(rn, len(rn))
    nd = max(walk_of, default=-1) + 1
    lone = [v for v in range(b.n) if b.rot_first[v] < 0]
    faces: list[list[int]] = []
    for c, darts in enumerate(comp_darts):
        walks = sorted({walk_of[d] for d in darts}) or [nd + lone.index(first_vertex[c])]
        if c == 0:
            faces += [[w] for w in walks]
            continue
        outer = rng.choice(walks)
        rng.choice(faces).append(outer)
        faces += [[w] for w in walks if w != outer]
    rng.shuffle(faces)
    grouping = faces if components > 1 else None
    return _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, face_grouping=grouping)


# ---------------------------------------------------------------------------
# Plain BFS distances (pure python on adjacency lists, kept independent of
# the numpy machinery in peelbound on purpose)
# ---------------------------------------------------------------------------


def _adjacency(g: PlaneGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    ends = g.ends
    for e in range(g.m):
        u, v = ends[2 * e], ends[2 * e + 1]
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    return adj


def bfs_distances(g: PlaneGraph, source: int, adj: Optional[list[list[int]]] = None) -> list[int]:
    """Hop distances from source; -1 where unreachable.

    The reference for ``embed.vertex_bfs`` and, one source per vertex, for
    ``oracle.all_eccentricities``.
    """
    if adj is None:
        adj = _adjacency(g)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
    return dist


def eccentricity(g: PlaneGraph, v: int) -> int:
    dist = bfs_distances(g, v)
    if min(dist) < 0:
        raise ValueError("eccentricity undefined: graph is disconnected")
    return max(dist)


def eccentricities_by_bfs(g: PlaneGraph) -> list[int]:
    """Reference for ``oracle.all_eccentricities``: one plain BFS per vertex."""
    adj = _adjacency(g)
    out = []
    for v in range(g.n):
        dist = bfs_distances(g, v, adj)
        if min(dist) < 0:
            raise ValueError("eccentricities undefined: graph is disconnected")
        out.append(max(dist))
    return out


class UnionFind:
    """Path-halving union-find whose roots are the smallest ids of their sets."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def is_fence_by_union_find(g: PlaneGraph, cycle: Sequence[int]) -> bool:
    """Reference for ``oracle._is_fence``: faces joined across the edges off
    the cycle in a :class:`UnionFind`, then every vertex off the cycle
    looked up by one of its faces."""
    on_cycle = {d >> 1 for d in cycle}
    uf = UnionFind(g.face_count)
    for e in range(g.m):
        if e not in on_cycle:
            uf.union(face_of_dart(g, 2 * e), face_of_dart(g, 2 * e + 1))
    left, right = uf.find(face_of_dart(g, cycle[0])), uf.find(face_of_dart(g, cycle[0] ^ 1))
    if left == right:
        return False
    cycle_verts = {g.origin(d) for d in cycle}
    sides = {uf.find(faces_of_vertex(g, v)[0]) for v in range(g.n) if v not in cycle_verts}
    return left in sides and right in sides


def simple_cycles_of_length(g: PlaneGraph, L: int, budget: list[int]) -> Iterator[list[int]]:
    """Reference for ``oracle._simple_cycles_of_length``: the same cycles in
    the same order for the same budget, with the rotations rebuilt for
    every length, ``g.head`` read on every step and a set of the path's
    edges."""
    darts_at = [g.rotation_darts(v) for v in range(g.n)]
    on_path = [False] * g.n

    def extend(s: int, v: int, path: list[int], used_edges: set[int]) -> Iterator[list[int]]:
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleBudgetError("cycle enumeration budget exhausted")
        for d in darts_at[v]:
            e = d >> 1
            if e in used_edges:
                continue
            w = g.head(d)
            if len(path) + 1 == L:
                if w == s:
                    if L == 1:
                        if d % 2 == 0:  # one orientation per loop
                            yield [d]
                    elif path[0] < (d ^ 1):  # one orientation per cycle
                        yield path + [d]
                continue
            if w <= s or on_path[w]:
                continue
            on_path[w] = True
            used_edges.add(e)
            path.append(d)
            yield from extend(s, w, path, used_edges)
            path.pop()
            used_edges.discard(e)
            on_path[w] = False

    for s in range(g.n):
        yield from extend(s, s, [], set())


def fence_girth_by_union_find(g: PlaneGraph, budget: int = 5_000_000) -> Union[int, float]:
    """Reference for ``oracle.fence_girth_bruteforce``: every cycle of
    :func:`simple_cycles_of_length` by length through
    :func:`is_fence_by_union_find`, on g as given (not connected first)."""
    remaining = [budget]
    for L in range(1, g.n + 1):
        for cycle in simple_cycles_of_length(g, L, remaining):
            if is_fence_by_union_find(g, cycle):
                return L
    return math.inf


def _union_find_rounds(g: PlaneGraph, peel: list[int], uf: UnionFind, outer_face: int) -> None:
    """Delete outer-boundary vertices round by round, rescanning every face.

    Deleting a vertex removes its edges; each removed edge merges the two
    faces on its sides.  A surviving vertex sits on the (merged) outer region
    exactly when one of its originally incident faces has been merged into it.
    """
    incident = [faces_of_vertex(g, v) for v in range(g.n)]
    edges_at = [rotation_edges(g, v) for v in range(g.n)]
    dead_edge = [False] * g.m
    alive = [v for v in range(g.n) if peel[v] == 0]
    rnd = 0
    while alive:
        rnd += 1
        outer_root = uf.find(outer_face)
        root_of = [uf.find(f) for f in range(g.face_count)]
        sel = [v for v in alive if any(root_of[f] == outer_root for f in incident[v])]
        if not sel:
            raise InvariantError("outer region lost all boundary vertices: corrupt embedding")
        for v in sel:
            peel[v] = rnd
            for e in edges_at[v]:
                if not dead_edge[e]:
                    dead_edge[e] = True
                    uf.union(face_of_dart(g, 2 * e), face_of_dart(g, 2 * e + 1))
        alive = [v for v in alive if peel[v] == 0]


def peel_numbers_by_union_find(g: PlaneGraph, outer_face: int) -> list[int]:
    """Reference peel numbers: face merges in a union-find, every face rescanned per round."""
    peel = [0] * g.n
    _union_find_rounds(g, peel, UnionFind(g.face_count), outer_face)
    return peel


def layer_numbers_by_union_find(g: PlaneGraph, root: int) -> list[int]:
    """Reference layer numbers: the root deleted first, then union-find rounds."""
    peel = [0] * g.n
    uf = UnionFind(g.face_count)
    peel[root] = -1
    for e in rotation_edges(g, root):
        uf.union(face_of_dart(g, 2 * e), face_of_dart(g, 2 * e + 1))
    _union_find_rounds(g, peel, uf, faces_of_vertex(g, root)[0])
    return [0 if p == -1 else p for p in peel]


def tree_of_peels_by_walks(aug: Augmentation) -> TreeOfPeels:
    """Reference tree of peels: trace component boundaries, one step per dart.

    For each not-yet-consumed dart that descends from layer i+1 to layer i,
    walk the face of the depth-(i+1) component that looks down on the lower
    layers: advance by rotating past (and consuming) descending darts,
    otherwise stepping along the boundary.  Visited origins, in walk order,
    form the node's stored list; its parent is the node storing the lower
    endpoint.
    """
    h = aug.H
    layer = aug.layer.tolist()
    rn = h.rot_next
    eu, ev = h.eu, h.ev

    def origin(d: int) -> int:
        return ev[d >> 1] if d & 1 else eu[d >> 1]

    orig_np, head_np = dart_ends(h.eu, h.ev)
    desc_mask = aug.layer[orig_np] == aug.layer[head_np] + 1
    desc_darts = np.nonzero(desc_mask)[0]
    # by origin layer, then dart id (the stable sort keeps id order)
    by_layer = desc_darts[np.argsort(aug.layer[orig_np[desc_darts]], kind="stable")]
    is_desc = desc_mask.tolist()

    consumed = bytearray(2 * h.m)
    node_of = array("i", [-1] * h.n)
    node_of[aug.root] = 0
    parent, depth, stored = [-1], [0], [[aug.root]]
    for d0 in by_layer.tolist():
        if consumed[d0]:
            continue
        y = origin(d0)
        pz = node_of[origin(d0 ^ 1)]
        assert pz >= 0, "parent node must exist before its children"
        nid = len(parent)
        parent.append(pz)
        depth.append(layer[y])

        consumed[d0] = 1
        cur = rn[d0]
        while cur != d0 and is_desc[cur]:
            consumed[cur] = 1
            cur = rn[cur]
        if cur == d0:  # every dart at y descends: a lone boundary vertex
            assert node_of[y] == -1
            node_of[y] = nid
            stored.append([y])
            continue

        verts: list[int] = []
        q = q0 = cur
        while True:
            v = origin(q)
            if node_of[v] != nid:
                assert node_of[v] == -1, "walk crossed into another component"
                assert layer[v] == layer[y], "boundary walk left its layer"
                node_of[v] = nid
                verts.append(v)
            nxt = rn[q ^ 1]
            while is_desc[nxt]:
                consumed[nxt] = 1
                nxt = rn[nxt]
            q = nxt
            if q == q0:
                break
        stored.append(verts)

    tree = TreeOfPeels(
        parent=_int_array(parent),
        depth=_int_array(depth),
        node_of=node_of,
        stored_indptr=_int_array(np.cumsum([0] + [len(s) for s in stored])),
        stored_flat=_int_array([v for s in stored for v in s]),
    )
    assert tree.weight.sum() == h.n, "stored sets must partition the vertices"
    return tree


def ring_chain(sizes: list[int], connected: bool = True) -> PlaneGraph:
    """Nested rings with per-ring vertex counts (innermost first).

    Same layout as the uniform nested-cycle generator: inner lone vertex 0,
    then the rings, then an outer lone vertex; ring walks pair up with their
    neighbours so the annuli nest.  With ``connected`` the components are
    joined by face-internal edges (adds no cycles).
    """
    k = len(sizes)
    n = sum(sizes) + 2
    edges: list[tuple[int, int]] = []
    rotation: list[list[int]] = [[] for _ in range(n)]
    base = 1
    for size in sizes:
        first = len(edges)
        for j in range(size):
            edges.append((base + j, base + (j + 1) % size))
        for j in range(size):
            rotation[base + j] = [first + (j - 1) % size, first + j]
        base += size
    faces: list[list[int]] = [[1, 2 * k]]
    for i in range(1, k):
        faces.append([2 * (i - 1), 2 * i + 1])
    faces.append([2 * (k - 1), 2 * k + 1])
    g = build_plane_graph(n, edges, rotation, faces=faces)
    return connect_components(g) if connected else g


def triangles_in_one_face(k: int) -> PlaneGraph:
    """k disjoint triangles, one walk of each bounding one shared face.

    Triangle i is vertices 3i, 3i + 1, 3i + 2 and edges 3i .. 3i + 2, so
    its walks are 2i and 2i + 1: walk 2i goes into the shared face and walk
    2i + 1 bounds a face of its own.  Every join of ``connect_components``
    lands on the one base walk, which grows by three darts a join.
    """
    edges = [(3 * i + j, 3 * i + (j + 1) % 3) for i in range(k) for j in range(3)]
    rotation = [[3 * i + (j - 1) % 3, 3 * i + j] for i in range(k) for j in range(3)]
    faces = [list(range(0, 2 * k, 2))] + [[w] for w in range(1, 2 * k, 2)]
    return build_plane_graph(3 * k, edges, rotation, faces=faces)


def connect_by_retracing(g: PlaneGraph) -> PlaneGraph:
    """Reference for ``connect_components``: the same joins, each corner retraced.

    Before every join the base vertex's current walk is traced afresh from
    its smallest dart, and the edge leaves the base vertex at its first
    occurrence there.  Each join costs the length of the base walk, which
    grows by every joined component, so k walks in one face cost O(k^2).
    """
    if g.connected:
        return g
    b = _Builder.from_graph(g)
    rn = b.rot_next
    flat, indptr, nd = g.walk_flat, g.walk_indptr, g.dart_walk_count
    parent = list(range(g.component_count))
    component_of = components_by_bfs(g.n, g.eu, g.ev)[0]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def first_corner(d0: int, v: int) -> tuple[int, int]:
        walk = [d0]
        d = rn[d0 ^ 1]
        while d != d0:
            walk.append(d)
            d = rn[d ^ 1]
        s = walk.index(min(walk))
        walk = walk[s:] + walk[:s]
        i = next(i for i, d in enumerate(walk) if b.origin(d) == v)
        return walk[i - 1], walk[i]

    def first_vertex(w: int) -> int:
        return g.origin(flat[indptr[w]]) if w < nd else g.lone_walk_vertex[w - nd]

    for walks in _face_rows(g):
        base = first_vertex(walks[0])
        rep = flat[indptr[walks[0]]] if walks[0] < nd else -1  # dart on base's walk
        for w in walks[1:]:
            other = first_vertex(w)
            cb, co = find(component_of[base]), find(component_of[other])
            if cb == co:
                continue
            parent[co] = cb
            if w < nd:
                b.add_chord(*first_corner(rep, base), flat[indptr[w + 1] - 1], flat[indptr[w]])
            elif rep < 0:
                rep = 2 * b.add_isolated_pair(base, other)
            else:
                b.add_edge_at_corner_to_isolated(*first_corner(rep, base), other)
    if len(b.ends) // 2 - g.m != g.component_count - 1:
        raise GraphFormatError("face structure did not span all components")
    return _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=g.meta)


def connect_by_insertion(g: PlaneGraph) -> PlaneGraph:
    """Reference for ``connect_components``: one public insertion per edge.

    Chains every face's extra walks to its smallest walk, anchored at each
    walk's first vertex, skipping walks whose component is already joined;
    each edge goes into the first face of the base vertex (rotation order)
    that also holds the other vertex, and the connected result is finished
    again with face f = walk f.  Costs O(m) per edge.
    """
    if g.connected:
        return g
    anchors: list[tuple[int, int]] = []
    for walks in face_walks(g):
        base = walk_vertices(g, walks[0])[0]
        anchors.extend((base, walk_vertices(g, w)[0]) for w in walks[1:])
    out = g
    for base, other in anchors:
        if bfs_distances(out, base)[other] < 0:
            out = insert_edge_in_face(out, base, other, _shared_face(out, base, other))
    if not out.connected:
        raise GraphFormatError("face structure did not span all components")
    return faces_by_walk(out)


def prism_by_insertion(k: int) -> PlaneGraph:
    """Reference for ``gen_prism_grid``: one public insertion per quad.

    Repeatedly finds the first quadrangular face and draws the diagonal from
    its walk's first vertex to its third, then finishes the result again
    with face f = walk f.  Each insertion copies the graph and retraces
    every walk, so this costs O(n) per quad.
    """
    g = _prism_band(k)
    while True:
        faces = face_walks(g)
        quad = next((f for f, (w,) in enumerate(faces) if len(g.walk(w)) == 4), None)
        if quad is None:
            return faces_by_walk(g)
        darts = g.walk(faces[quad][0])
        g = insert_edge_in_face(g, g.origin(darts[0]), g.origin(darts[2]), quad)


def _shared_face(g: PlaneGraph, u: int, v: int) -> int:
    fv = set(faces_of_vertex(g, v))
    for f in faces_of_vertex(g, u):
        if f in fv:
            return f
    raise GraphFormatError(f"vertices {u} and {v} share no face")


def augment_by_face_loop(
    ctx: PeelContext, skip_walk_neighbours: bool = True
) -> tuple[PlaneGraph, list[int]]:
    """Reference for ``peels.augment``: one Python splice per chord.

    Returns H and the out-darts.  Walks are visited in id order; inside each
    one every occurrence above the minimum layer, from hub position k = 1
    (or 2 with ``skip_walk_neighbours``) up to t - 1 (or t - 2), gets an edge
    to the hub.  Without the skip, the chords at k = 1 and t - 1 parallel
    the walk edges next to the hub.
    """
    g = ctx.G
    layer = ctx.layer.tolist()
    b = _Builder.from_graph(g)
    rn = b.rot_next
    lo = 2 if skip_walk_neighbours else 1
    for w in range(g.dart_walk_count):
        darts = g.walk(w)
        t = len(darts)
        verts = [g.origin(d) for d in darts]
        lays = [layer[v] for v in verts]
        j = lays.index(min(lays))
        anchor = darts[j - 1] ^ 1
        for k in range(lo, t + 1 - lo):
            p = (j + k) % t
            if lays[p] == lays[j]:
                continue
            e = b._new_edge(verts[p], verts[j])
            rn[darts[p - 1] ^ 1] = 2 * e
            rn[2 * e] = darts[p]
            rn[2 * e + 1] = rn[anchor]
            rn[anchor] = 2 * e + 1
    h = _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=g.meta)
    out_dart = [-1] * g.n
    for d in range(2 * h.m):
        v = h.origin(d)
        if out_dart[v] < 0 and layer[h.head(d)] == layer[v] - 1:
            out_dart[v] = d
    return h, out_dart


def random_nesting(seed: int, items: int) -> PlaneGraph:
    """Seeded disconnected plane graph of nested cycles and lone vertices.

    Starts from one lone vertex on the sphere; each item is a lone vertex or
    a cycle of length 1-5 (loop, digon, ...) dropped into a random face,
    where one of its two walks (picked at random) stays and the other bounds
    a new face.  Vertex ids, edge ids and orientations, the face order and
    the walk order inside each face are shuffled, so faces with three or
    more walks and faces whose first walk is a lone vertex both occur.
    """
    rng = random.Random(seed)
    faces: list[list[tuple]] = [[("lone", 0)]]
    cycles: list[list[int]] = []  # vertices of each cycle, in ring order
    n = 1
    for _ in range(items):
        f = rng.randrange(len(faces))
        if rng.random() < 0.3:
            faces[f].append(("lone", n))
            n += 1
            continue
        side = rng.randrange(2)
        faces[f].append(("cycle", len(cycles), side))
        faces.append([("cycle", len(cycles), 1 - side)])
        length = rng.randint(1, 5)
        cycles.append(list(range(n, n + length)))
        n += length
    perm = list(range(n))
    rng.shuffle(perm)
    cycles = [[perm[v] for v in ring] for ring in cycles]

    ring_edges = [(ring[j - 1], ring[j]) for ring in cycles for j in range(len(ring))]
    new_id = list(range(len(ring_edges)))
    rng.shuffle(new_id)
    flip = [rng.random() < 0.5 for _ in ring_edges]
    edges: list[tuple[int, int]] = [(0, 0)] * len(ring_edges)
    for i, (a, c) in enumerate(ring_edges):
        edges[new_id[i]] = (c, a) if flip[i] else (a, c)

    rotation: list[list[int]] = [[] for _ in range(n)]
    forward_dart: list[int] = []  # per cycle: a dart of its side-0 walk
    start = 0
    for ring in cycles:
        # ring edge start + j runs ring[j - 1] -> ring[j]
        for j, v in enumerate(ring):
            rotation[v] = [new_id[start + j], new_id[start + (j + 1) % len(ring)]]
        forward_dart.append(2 * new_id[start] + flip[start])
        start += len(ring)

    # Walk ids follow the library's contract: dart walks by smallest dart,
    # then lone vertices ascending.
    rot_next = [0] * (2 * len(edges))
    for v in range(n):
        darts = []
        for e in rotation[v]:
            d = 2 * e if edges[e][0] == v and 2 * e not in darts else 2 * e + 1
            darts.append(d)
        for a, c in zip(darts, darts[1:] + darts[:1]):
            rot_next[a] = c
    walk_of = [-1] * len(rot_next)
    walks = 0
    for d0 in range(len(rot_next)):
        if walk_of[d0] >= 0:
            continue
        d = d0
        while walk_of[d] < 0:
            walk_of[d] = walks
            d = rot_next[d ^ 1]
        walks += 1
    lone = sorted(v for v in range(n) if not rotation[v])
    lone_walk = {v: walks + i for i, v in enumerate(lone)}

    def walk_id(token: tuple) -> int:
        if token[0] == "lone":
            return lone_walk[perm[token[1]]]
        return walk_of[forward_dart[token[1]] ^ token[2]]

    grouping = [[walk_id(t) for t in face] for face in faces]
    for face in grouping:
        rng.shuffle(face)
    rng.shuffle(grouping)
    return build_plane_graph(n, edges, rotation, faces=grouping)


def relabel(g: PlaneGraph, perm: list[int]) -> PlaneGraph:
    """Rename vertex v to perm[v]; edge, dart and walk ids are unchanged."""
    edges = []
    for e in range(g.m):
        u, v = edge_endpoints(g, e)
        edges.append((perm[u], perm[v]))
    rotation: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        rotation[perm[v]] = rotation_edges(g, v)
    faces = None if g.connected else [list(grp) for grp in face_walks(g)]
    meta = dict(g.meta) if g.meta else None
    return build_plane_graph(g.n, edges, rotation, faces=faces, meta=meta)


def thin_random_triangulation(n: int, seed: int, frac: float = 0.35) -> PlaneGraph:
    """Connected simple plane graph: a seeded triangulation minus a random
    batch of non-bridge edges (embedding kept, faces merge)."""
    tri = gen_random_triangulation(n, seed)
    rng = random.Random((seed << 8) ^ 0xBEEF)
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in range(tri.m):
        u, v = edge_endpoints(tri, e)
        adj[u].add(v)
        adj[v].add(u)
    alive = [True] * tri.m
    order = list(range(tri.m))
    rng.shuffle(order)
    goal = int(frac * tri.m)
    removed = 0
    for e in order:
        if removed >= goal:
            break
        u, v = edge_endpoints(tri, e)
        adj[u].discard(v)
        adj[v].discard(u)
        if _reachable(adj, u, v):
            alive[e] = False
            removed += 1
        else:
            adj[u].add(v)
            adj[v].add(u)
    new_id = {}
    edges = []
    for e in range(tri.m):
        if alive[e]:
            new_id[e] = len(edges)
            edges.append(edge_endpoints(tri, e))
    rotation = [
        [new_id[e] for e in rotation_edges(tri, v) if alive[e]] for v in range(n)
    ]
    return build_plane_graph(n, edges, rotation)


def _reachable(adj: list[set[int]], src: int, dst: int) -> bool:
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def is_bipartite(g: PlaneGraph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for d in g.rotation_darts(v):
                w = g.head(d)
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Brute-force girth and the radius/triangulation bound
# ---------------------------------------------------------------------------


def girth_bruteforce(
    g: PlaneGraph, max_len: Optional[int] = None, budget: int = 5_000_000
) -> Union[int, float]:
    """Length of the shortest cycle (loops count 1), or math.inf if acyclic."""
    if max_len is None:
        max_len = g.n
    remaining = [budget]
    for L in range(1, max_len + 1):
        for _cycle in simple_cycles_of_length(g, L, remaining):
            return L
    return math.inf


@dataclass
class SimpleBoundReport:
    bound: int
    outerface: int
    realized: int
    center: int
    radius: int
    radius_triangulated: int


def simple_bound_check(g: PlaneGraph) -> SimpleBoundReport:
    """Certify peel count <= min(1 + rad(G), (n+26)//6) with a witness face.

    A minimum-eccentricity vertex of a triangulated supergraph is located,
    and any original face incident to it works as outerface: peels of the
    subgraph can only come earlier than in the triangulation.  A realized
    count above the bound raises :class:`InvariantError`.
    """
    if not g.connected:
        raise ValueError("bound check requires a connected graph")
    if not g.simple or g.n < 3:
        raise ValueError("bound check requires a simple graph on >= 3 vertices")
    t = g if g.triangulated else triangulate_preserving_embedding(g)
    _, rad_g = radius_exact(g)
    center, rad_t = radius_exact(t)
    bound = min(1 + rad_g, (g.n + 26) // 6)
    face = g.first_face_of_vertex(center)
    realized = _deletion_counts(_face_bit_tables(g))[face]
    if realized > bound:
        raise InvariantError(f"realized peel count {realized} exceeds certified bound {bound}")
    return SimpleBoundReport(bound, face, realized, center, rad_g, rad_t)


# ---------------------------------------------------------------------------
# Plane-graph accessors the library does not need
# ---------------------------------------------------------------------------


def rotation_edges(g: PlaneGraph, v: int) -> list[int]:
    return [d >> 1 for d in g.rotation_darts(v)]


def walk_count(g: PlaneGraph) -> int:
    """Dart walks plus one walk per lone vertex."""
    return g.dart_walk_count + len(g.lone_walk_vertex)


def walk_vertices(g: PlaneGraph, w: int) -> list[int]:
    nd = g.dart_walk_count
    if w >= nd:
        return [g.lone_walk_vertex[w - nd]]
    return [g.origin(d) for d in g.walk(w)]


def face_of_dart(g: PlaneGraph, d: int) -> int:
    return g.face_of_walk[g.walk_of_dart[d]]


def faces_of_vertex(g: PlaneGraph, v: int) -> list[int]:
    """Distinct incident faces in rotation order (isolated: its host face)."""
    if g.rot_first[v] < 0:  # lone walks follow the dart walks, by vertex
        w = g.dart_walk_count + bisect_left(g.lone_walk_vertex, v)
        return [g.face_of_walk[w]]
    seen: set[int] = set()
    out: list[int] = []
    for d in g.rotation_darts(v):
        f = face_of_dart(g, d)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def empty_builder(n: int) -> _Builder:
    """A builder with n isolated vertices and no edge."""
    b = _Builder.__new__(_Builder)
    b.n = n
    b.ends = array("i")
    b.rot_next = array("i")
    b.rot_first = array("i", [-1] * n)
    return b


def new_vertex(b: _Builder) -> int:
    """Append an isolated vertex to the builder; returns its id."""
    b.rot_first.append(-1)
    b.n += 1
    return b.n - 1


def set_rotation(b: _Builder, v: int, darts: Sequence[int]) -> None:
    """Install a full rotation for v (darts in slot order)."""
    if not darts:
        b.rot_first[v] = -1
        return
    b.rot_first[v] = darts[0]
    for a, bnext in zip(darts, list(darts[1:]) + [darts[0]]):
        b.rot_next[a] = bnext


def degree(g: PlaneGraph, v: int) -> int:
    return len(g.rotation_darts(v))


def edge_endpoints(g: PlaneGraph, e: int) -> tuple[int, int]:
    return (g.ends[2 * e], g.ends[2 * e + 1])


def face_walks(g: PlaneGraph) -> list[tuple[int, ...]]:
    """The walks of each face, ascending, read off ``face_of_walk``."""
    rows: list[list[int]] = [[] for _ in range(g.face_count)]
    for w, f in enumerate(g.face_of_walk):
        rows[f].append(w)
    return [tuple(row) for row in rows]


def face_darts(g: PlaneGraph, f: int) -> list[int]:
    out: list[int] = []
    for w in face_walks(g)[f]:
        out.extend(g.walk(w))
    return out


def face_degree(g: PlaneGraph, f: int) -> int:
    return len(face_darts(g, f))


def face_vertices(g: PlaneGraph, f: int) -> list[int]:
    """Distinct vertices on face f, in boundary-walk discovery order."""
    seen: set[int] = set()
    out: list[int] = []
    for w in face_walks(g)[f]:
        for v in walk_vertices(g, w):
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def trace_faces(g: PlaneGraph) -> list[list[int]]:
    """Boundary walks in discovery order (darts; [] rows are lone vertices).

    The numbering contract: ascending smallest dart id, then isolated
    vertices ascending.
    """
    return [g.walk(w) for w in range(walk_count(g))]


# ---------------------------------------------------------------------------
# Edge insertion inside a face
# ---------------------------------------------------------------------------


def _find_occurrence(g: PlaneGraph, f: int, v: int) -> Optional[tuple[list[int], int]]:
    """First boundary occurrence of v on face f: (walk darts, position)."""
    for w in face_walks(g)[f]:
        darts = g.walk(w)
        for i, d in enumerate(darts):
            if g.origin(d) == v:
                return darts, i
    return None


def insert_edge_in_face(g: PlaneGraph, u: int, v: int, face: int) -> PlaneGraph:
    """Return a new graph with edge (u, v) drawn inside the given face.

    Both endpoints must lie on the face (boundary walks or isolated vertices
    grouped into it).  Inserting within one walk splits the face in two;
    inserting across two walks of the same face merges them into one walk.
    The face grouping follows the rule of :func:`_finish_splice` (the choice
    is free geometrically, so a fixed rule keeps the result deterministic).
    """
    if not (0 <= face < g.face_count):
        raise ValueError("face id out of range")
    b = _Builder.from_graph(g)

    u_iso = g.rot_first[u] < 0 and faces_of_vertex(g, u) == [face]
    v_iso = g.rot_first[v] < 0 and faces_of_vertex(g, v) == [face]

    if u_iso and v_iso:
        if u == v:
            raise ValueError("cannot add a loop at an isolated vertex")
        e = b.add_isolated_pair(u, v)
    elif v_iso or u_iso:
        if v_iso:
            a, iso = u, v
        else:
            a, iso = v, u
        occ = _find_occurrence(g, face, a)
        if occ is None:
            raise ValueError(f"vertex {a} is not on face {face}")
        darts, i = occ
        e = b.add_edge_at_corner_to_isolated(darts[i - 1], darts[i], iso)
    else:
        occ_u = _find_occurrence(g, face, u)
        occ_v = _find_occurrence(g, face, v)
        if occ_u is None or occ_v is None:
            raise ValueError(f"edge endpoints not on face {face}")
        darts_u, i = occ_u
        darts_v, j = occ_v
        if darts_u == darts_v and i == j:
            raise ValueError("cannot add a loop at a single corner")
        e = b.add_chord(darts_u[i - 1], darts_u[i], darts_v[j - 1], darts_v[j])

    return _finish_splice(g, b, {face: [e]})


def _finish_splice(
    g: PlaneGraph, b: _Builder, touched: dict[int, list[int]]
) -> PlaneGraph:
    """Finish builder b (g plus new edges), carrying g's face grouping over.

    ``touched`` maps each face that got edges to their ids; those faces follow
    the untouched ones, in the given order.  An old walk maps to the new walk
    of its first dart, a lone vertex to its own walk while still lone, else to
    the walk of ``rot_first[v]``.  An edge e whose darts end on different walks
    split its face (at most one per face): the walk of 2e+1 becomes a face of
    its own right after, and the rest stays with the walk of 2e.
    """
    walks = _label_walks(b.rot_next)
    walk_of = _int_array(walks[0])
    flat, old_indptr, nd = g.walk_flat, g.walk_indptr, g.dart_walk_count
    lone = np.flatnonzero(np.frombuffer(b.rot_first, dtype=np.int32) < 0).tolist()
    lone_id = {v: walks[1] + i for i, v in enumerate(lone)}

    def new_walk(w: int) -> int:
        if w < nd:
            return walk_of[flat[old_indptr[w]]]
        v = g.lone_walk_vertex[w - nd]
        return lone_id[v] if b.rot_first[v] < 0 else walk_of[b.rot_first[v]]

    old = face_walks(g)
    grouping = [
        sorted({new_walk(w) for w in walks})
        for f, walks in enumerate(old)
        if f not in touched
    ]
    for f, edges in touched.items():
        group = {new_walk(w) for w in old[f]}
        group.update(walk_of[2 * e] for e in edges)  # already in, unless e split
        cut = [walk_of[2 * e + 1] for e in edges if walk_of[2 * e] != walk_of[2 * e + 1]]
        grouping.append(sorted(group.difference(cut)))
        grouping.extend([w] for w in cut)
    return _finish_graph(
        b.n, b.ends, b.rot_next, b.rot_first, face_grouping=grouping, meta=g.meta
    )


def faces_by_walk(g: PlaneGraph) -> PlaneGraph:
    """g finished again without a grouping: face f is walk f (g connected)."""
    return _finish_graph(g.n, g.ends, g.rot_next, g.rot_first, meta=g.meta)


# ---------------------------------------------------------------------------
# Tree of peels and augmentation accessors the library does not need
# ---------------------------------------------------------------------------


def tree_distance(tree: TreeOfPeels, a: int, b: int) -> int:
    da, db = tree.depth[a], tree.depth[b]
    dist = 0
    while da > db:
        a = tree.parent[a]
        da -= 1
        dist += 1
    while db > da:
        b = tree.parent[b]
        db -= 1
        dist += 1
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
        dist += 2
    return dist


def is_descendant(tree: TreeOfPeels, node: int, ancestor: int) -> bool:
    while tree.depth[node] > tree.depth[ancestor]:
        node = tree.parent[node]
    return node == ancestor


def to_records(tree: TreeOfPeels) -> list[dict]:
    return [
        {
            "node": i,
            "parent": tree.parent[i],
            "depth": tree.depth[i],
            "stored": tree.stored(i),
        }
        for i in range(tree.node_count)
    ]


def children_of(tree: TreeOfPeels) -> list[list[int]]:
    """Each node's children in ascending id order, derived from ``parent``."""
    children: list[list[int]] = [[] for _ in range(tree.node_count)]
    for x in range(1, tree.node_count):
        children[tree.parent[x]].append(x)
    return children


# List references for the array readers of ``peelbound.center``: one Python
# step per node or tree edge, as the library read the tree before it was flat.


def separator_by_heavy_child(tree: TreeOfPeels) -> int:
    """Descend from the root into the child heavier than n/2 while there is one."""
    children = children_of(tree)
    total = tree.subtree_weight[0]
    cur = 0
    while True:
        heavy = [c for c in children[cur] if 2 * tree.subtree_weight[c] > total]
        if not heavy:
            return cur
        cur = heavy[0]


def subtree_flags(tree: TreeOfPeels, top: int) -> list[bool]:
    """Membership in the subtree of ``top``, one ascending pass over the ids."""
    flags = [False] * tree.node_count
    flags[top] = True
    for x in range(top + 1, tree.node_count):
        p = tree.parent[x]
        if p >= 0 and flags[p]:
            flags[x] = True
    return flags


def interior_by_children(tree: TreeOfPeels) -> list[int]:
    children = children_of(tree)
    return [x for x in range(tree.node_count) if tree.parent[x] >= 0 and children[x]]


def tree_bfs(tree: TreeOfPeels, start: int) -> tuple[list[int], list[int]]:
    """BFS distances and BFS parents over the tree's edges, from ``start``."""
    children = children_of(tree)
    dist = [-1] * tree.node_count
    par = [-1] * tree.node_count
    dist[start] = 0
    queue = [start]
    for x in queue:
        nbrs = children[x] + ([tree.parent[x]] if tree.parent[x] >= 0 else [])
        for y in nbrs:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                par[y] = x
                queue.append(y)
    return dist, par


def diameter_middle_by_bfs(tree: TreeOfPeels) -> tuple[int, int]:
    """(diam, S) by two tree BFSs: S is ⌈diam/2⌉ steps from u on the u–v path."""
    dist0, _ = tree_bfs(tree, 0)
    u = dist0.index(max(dist0))
    dist_u, par_u = tree_bfs(tree, u)
    diam = max(dist_u)
    path = [dist_u.index(diam)]
    while path[-1] != u:
        path.append(par_u[path[-1]])
    path.reverse()  # u .. v
    return diam, path[-(-diam // 2)]


def descends(aug: Augmentation, d: int) -> bool:
    return bool(aug.layer[aug.H.origin(d)] == aug.layer[aug.H.head(d)] + 1)


# ---------------------------------------------------------------------------
# Detour method: the test-then-climb path search the bound's analysis rests
# on.  The selection never runs it; tests check the promised walk lengths.
# ---------------------------------------------------------------------------


@dataclass
class DetourParams:
    node: int
    s0: int
    z0: int
    xi: Callable[[int], int]


@dataclass
class DetourOutcome:
    success: bool
    i_star: int
    s_path: list[int]
    z_path: list[int]
    sigma: Optional[list[int]]

    def walk(self) -> list[int]:
        if not self.success or self.sigma is None:
            raise ValueError("no walk on a failed detour")
        back = list(reversed(self.z_path))
        return self.s_path[:-1] + self.sigma + back[1:]

    @property
    def length(self) -> int:
        return len(self.walk()) - 1


def _restricted_path(
    h: PlaneGraph,
    node_of,
    allowed: set,
    src: int,
    dst: int,
    cap: int,
) -> Optional[list[int]]:
    """Shortest path src→dst of length ≤ cap among vertices whose tree node
    is in ``allowed``; None if there is none."""
    if src == dst:
        return [src]
    parent = {src: -1}
    frontier = [src]
    for _ in range(cap):
        nxt = []
        for v in frontier:
            for d in h.rotation_darts(v):
                w = h.head(d)
                if w in parent or node_of[w] not in allowed:
                    continue
                parent[w] = v
                if w == dst:
                    path = [w]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return None


def detour(aug: Augmentation, tree: TreeOfPeels, params: DetourParams) -> DetourOutcome:
    """Test-then-climb search for a short s–z walk.

    At index i, test whether s_i and z_i are within ξ(i) hops using only
    vertices stored at the current node or its ancestors; on failure climb
    one descending edge from each endpoint and retry at the parent node.
    Failure is only possible at the root (for sane ξ schedules); a failed
    test at an interior index asserts the within-node distance bound.
    """
    h = aug.H
    node_of = tree.node_of
    node = params.node
    s, z = params.s0, params.z0
    if node_of[s] != node or node_of[z] != node:
        raise ValueError("endpoints must be stored at the starting node")
    allowed = set()
    x = node
    while x >= 0:
        allowed.add(x)
        x = tree.parent[x]
    s_path, z_path = [s], [z]
    i = 0
    while True:
        cap = params.xi(i)
        sigma = (
            _restricted_path(h, node_of, allowed, s, z, cap) if cap >= 0 else None
        )
        if sigma is not None:
            return DetourOutcome(
                success=True, i_star=i, s_path=s_path, z_path=z_path, sigma=sigma
            )
        if i > 0 and node != 0:
            assert tree.weight[node] // 2 >= cap + 1, (
                f"within-node distance bound violated at node {node}: "
                f"|V|={tree.weight[node]}, cap={cap}"
            )
        if node == 0:
            return DetourOutcome(
                success=False, i_star=i, s_path=s_path, z_path=z_path, sigma=None
            )
        out = aug.out_dart
        if out[s] < 0 or out[z] < 0:
            raise ValueError("vertex without outgoing edge; augmentation corrupt")
        s = h.head(int(out[s]))
        z = h.head(int(out[z]))
        allowed.discard(node)
        node = tree.parent[node]
        assert node_of[s] == node and node_of[z] == node
        s_path.append(s)
        z_path.append(z)
        i += 1


def connect_within_node(
    aug: Augmentation,
    tree: TreeOfPeels,
    node: int,
    s0: int,
    t0: int,
    slack: int = 0,
) -> list[int]:
    """Walk in H between two vertices of one node, length ≤ max{2⌈√a⌉-2, 4}.

    ``slack`` relaxes the schedule (and the bound) by a constant; use 2 for
    graphs whose fence-girth is only 2, where interior nodes may store just
    two vertices.
    """
    min_interior = 2 if slack > 0 else 3
    for x in tree.interior_nodes():
        if tree.weight[x] < min_interior:
            raise ValueError(
                f"interior node {x} stores {tree.weight[x]} < {min_interior} vertices"
            )
    h = aug.H
    out = aug.out_dart
    if tree.depth[node] <= 2:
        # close enough to climb both ends to the root vertex
        walks = []
        for v in (s0, t0):
            path = [v]
            while path[-1] != aug.root:
                path.append(h.head(int(out[path[-1]])))
            walks.append(path)
        walk = walks[0][:-1] + list(reversed(walks[1]))
        bound = max(2 * ceil_sqrt(tree.above[node]) - 2, 4) + slack
        assert len(walk) - 1 <= bound
        return walk

    a0 = tree.above[node]
    beta = ceil_sqrt(a0) - 3
    outcome = detour(
        aug,
        tree,
        DetourParams(node=node, s0=s0, z0=t0, xi=lambda i: 2 * beta + 4 + slack - 2 * i),
    )
    assert outcome.success, "connection schedule must succeed before the root"
    walk = outcome.walk()
    bound = max(2 * ceil_sqrt(a0) - 2, 4) + slack
    assert len(walk) - 1 <= bound, f"walk length {len(walk) - 1} exceeds {bound}"
    return walk


def random_triangulation_by_insertion(n: int, seed: int) -> PlaneGraph:
    """Reference for ``gen.gen_random_triangulation``: the insertion loop itself.

    Face slot ``idx`` holds darts ``faces[3 idx : 3 idx + 3]``; each step
    draws a slot, puts a vertex in its face, splices the three spokes into
    the corners' rotations and writes the three new faces back, the first
    into the drawn slot and the others at the end.
    """
    if n < 4:
        raise ValueError("need at least four vertices")
    k3 = build_plane_graph(3, [(0, 1), (1, 2), (2, 0)], [[0, 2], [1, 0], [2, 1]])
    b = _Builder.from_graph(k3)
    rn = b.rot_next
    faces = array("i", k3.walk(0) + k3.walk(1))
    nfaces = 2
    rng = random.Random(seed)
    for _ in range(n - 3):
        idx = rng.randrange(nfaces)
        base = 3 * idx
        tri = faces[base], faces[base + 1], faces[base + 2]
        vnew = new_vertex(b)
        spokes = []
        for d in tri:
            spokes.append(2 * b._new_edge(b.origin(d), vnew))
        for t in range(3):
            slot = tri[t - 1] ^ 1  # corner at the origin of tri[t]
            if rn[slot] != tri[t]:
                raise InvariantError(f"face list out of step with the rotation at dart {tri[t]}")
            rn[slot] = spokes[t]
            rn[spokes[t]] = tri[t]
        q0, q1, q2 = (sp ^ 1 for sp in spokes)
        set_rotation(b, vnew, [q0, q2, q1])
        faces[base : base + 3] = array("i", (tri[0], spokes[1], q0))
        faces.extend((tri[1], spokes[2], q1))
        faces.extend((tri[2], spokes[0], q2))
        nfaces += 2
    meta = {"family": "random", "n": n, "seed": seed}
    out = _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=meta)
    if not (out.triangulated and out.simple):
        raise InvariantError("random triangulation is not a simple triangulation")
    return out


def document_by_rows(g: PlaneGraph) -> dict:
    """Reference for ``graphio.to_document``: every row built in Python."""
    doc: dict = {
        "format": "plane-graph/1",
        "n": g.n,
        "edges": [[g.ends[2 * e], g.ends[2 * e + 1]] for e in range(g.m)],
        "rotation": [rotation_edges(g, v) for v in range(g.n)],
        "flags": {
            "simple": g.simple,
            "connected": g.connected,
            "triangulated": g.triangulated,
        },
    }
    if list(g.face_of_walk) != list(range(walk_count(g))):
        doc["faces"] = [list(group) for group in face_walks(g)]
    if g.meta:
        doc["meta"] = g.meta
    return doc


def spanning_tree_center_by_dicts(h: PlaneGraph, vertices: Sequence[int]) -> int:
    """Vertex of eccentricity ≤ ⌊p/2⌋ in the connected induced subgraph:
    the reference for ``center.spanning_tree_center``, with dict parents
    and sizes and the heavy-child walk from the BFS root.

    BFS from the first listed vertex builds a spanning tree; its
    unit-weight centroid has the bound (every branch of the tree at the
    centroid holds at most half the vertices).
    """
    verts = list(vertices)
    p = len(verts)
    if p == 0:
        raise ValueError("empty vertex set")
    if p == 1:
        return verts[0]
    member = set(verts)
    start = verts[0]
    parent = {start: -1}
    order = [start]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for d in h.rotation_darts(v):
            w = h.head(d)
            if w in member and w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != p:
        raise ValueError("vertex set does not induce a connected subgraph")

    size = {v: 1 for v in order}
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        children[parent[v]].append(v)
    cur = start
    while True:
        heavy = -1
        for c in children[cur]:
            if 2 * size[c] > p:
                heavy = c
                break
        if heavy < 0:
            return cur
        cur = heavy
