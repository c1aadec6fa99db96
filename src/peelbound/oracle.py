"""Brute-force ground truth for peel decompositions and related invariants.

Everything here is deliberately definition-shaped and independent of the
fast pipeline: peel numbers come from literally deleting outer-face vertices
round by round (each deleted edge joins its two faces, and a face that so
reaches the outer region floods its joined neighbours into it; the next
round peels the vertices on the faces that just joined), distances come
from plain breadth-first search on adjacency lists,
and fence-girth comes from exhaustive simple-cycle enumeration plus a
Jordan-side test.  Costs are desk-scale by design.

Three exceptions read the pipeline's numpy searches on g's cached
incidence view, and the tests hold each to a pure-Python route:

- :func:`verify_certificate` runs at full scale on every certificate the
  CLI checks, so it reads ecc_H(s) from :func:`embed.vertex_bfs`, held to
  :func:`bfs_distances`;
- :func:`all_eccentricities` runs one bit-parallel BFS from every vertex
  at once, held to one :func:`bfs_distances` per vertex;
- the cross-check in :func:`fse_outerplanarity_bruteforce` recounts every
  face by one bit-parallel radial BFS (:func:`peels.face_peel_counts`),
  held to the literal deletion it checks.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from . import peels
from .center import Stages
from .embed import (
    InvariantError,
    PlaneGraph,
    _bit_bfs,
    _cached_incidence,
    connect_components,
    triangulate_preserving_embedding,
    vertex_bfs,
)

__all__ = [
    "OracleBudgetError",
    "OracleReport",
    "SimpleBoundReport",
    "VerifyReport",
    "all_eccentricities",
    "bfs_distances",
    "diameter_exact",
    "eccentricity",
    "fence_girth_bruteforce",
    "fse_outerplanarity_bruteforce",
    "full_oracle_report",
    "girth_bruteforce",
    "layer_numbers_by_deletion",
    "peel_count_by_deletion",
    "peel_numbers_by_deletion",
    "radius_exact",
    "simple_bound_check",
    "verify_certificate",
]


class OracleBudgetError(RuntimeError):
    """An exhaustive search exceeded its step budget or size guard."""


# ---------------------------------------------------------------------------
# Plain BFS distances (pure python on adjacency lists, kept independent of
# the numpy machinery in embed on purpose)
# ---------------------------------------------------------------------------


def _adjacency(g: PlaneGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in range(g.m):
        u, v = g.eu[e], g.ev[e]
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    return adj


def bfs_distances(g: PlaneGraph, source: int, adj: Optional[list[list[int]]] = None) -> list[int]:
    """Hop distances from source; -1 where unreachable."""
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


def all_eccentricities(g: PlaneGraph) -> list[int]:
    """Eccentricity of every vertex; ValueError on a disconnected graph.

    One bit-parallel BFS from all vertices at once (``embed._bit_bfs``)
    over the neighbour CSR of g's incidence view (``vf_indptr``,
    ``vf_heads``): the last level at which a source reaches a new vertex is
    its eccentricity.  The tests hold it to one :func:`bfs_distances` per
    vertex.
    """
    vf_indptr, _, vf_heads, _, _ = _cached_incidence(g)
    last, full = _bit_bfs(((vf_indptr, vf_heads),))
    if not full.all():
        raise ValueError("eccentricities undefined: graph is disconnected")
    return last.tolist()


def radius_exact(g: PlaneGraph) -> tuple[int, int]:
    """(center vertex, radius); smallest vertex id wins ties."""
    eccs = all_eccentricities(g)
    rad = min(eccs)
    return eccs.index(rad), rad


def diameter_exact(g: PlaneGraph) -> int:
    return max(all_eccentricities(g))


# ---------------------------------------------------------------------------
# Peel numbers by literal deletion
# ---------------------------------------------------------------------------


class _DeletionTables(NamedTuple):
    """What the deletion oracles read of a plane graph, built once per graph."""

    edges_at: list[list[int]]  # rotation_edges(v) of each vertex
    sides: list[tuple[int, int]]  # (face_of_dart(2e), face_of_dart(2e + 1)) of each edge
    face_verts: list[list[int]]  # vertices on each face: the inverse of faces_of_vertex
    first_face: list[int]  # faces_of_vertex(v)[0] of each vertex


def _deletion_tables(g: PlaneGraph) -> _DeletionTables:
    """Read g once into the tables every outerface of g shares."""
    face_of = [g.face_of_dart(d) for d in range(2 * g.m)]
    face_verts: list[list[int]] = [[] for _ in range(g.face_count)]
    first_face = []
    for v in range(g.n):
        faces = g.faces_of_vertex(v)  # a lone vertex: its host face
        first_face.append(faces[0])
        for f in faces:
            face_verts[f].append(v)
    return _DeletionTables(
        [g.rotation_edges(v) for v in range(g.n)],
        list(zip(face_of[0::2], face_of[1::2])),
        face_verts,
        first_face,
    )


def _deletion_rounds(t: _DeletionTables, outer_face: int, root: Optional[int] = None) -> list[int]:
    """Peel round (1-based) of every vertex for outer_face; -1 for a pre-deleted root.

    Each round deletes every live vertex on the outer region, and with it
    its edges.  A deleted edge joins the two faces on its sides: when exactly
    one of them is outer, the other's component under deleted edges floods
    into the outer region.  A live vertex on a face that was outer before a
    round is deleted in that round, so the next round takes the live
    vertices on the faces that joined during this one.  Every face floods
    once and every edge is deleted from each end once, so one outerface
    costs O(n + m + F) on top of the shared tables.
    """
    edges_at, sides, face_verts, _ = t
    peel = [0] * len(edges_at)
    outer = [False] * len(face_verts)
    across: list[list[int]] = [[] for _ in face_verts]  # over deleted edges, while not outer
    outer[outer_face] = True
    fresh = [outer_face]  # faces that joined the outer region since the last round began
    sel = []
    if root is not None:
        peel[root] = -1
        sel = [root]
    rnd = 0
    while True:
        for v in sel:
            for e in edges_at[v]:  # an edge met again from its other end changes nothing
                a, b = sides[e]
                if outer[a] == outer[b]:
                    if not outer[a]:
                        across[a].append(b)
                        across[b].append(a)
                    continue
                f = b if outer[a] else a
                outer[f] = True
                stack = [f]
                while stack:
                    f = stack.pop()
                    fresh.append(f)
                    for h in across[f]:
                        if not outer[h]:
                            outer[h] = True
                            stack.append(h)
        rnd += 1
        sel = []
        for f in fresh:
            for v in face_verts[f]:
                if not peel[v]:
                    peel[v] = rnd
                    sel.append(v)
        if not sel:
            if 0 in peel:
                raise InvariantError("outer region lost all boundary vertices: corrupt embedding")
            return peel
        fresh = []


def peel_numbers_by_deletion(g: PlaneGraph, outer_face: int) -> list[int]:
    """Peel index (1-based) of every vertex for the given outerface."""
    if not (0 <= outer_face < g.face_count):
        raise ValueError("outer face out of range")
    return _deletion_rounds(_deletion_tables(g), outer_face)


def peel_count_by_deletion(g: PlaneGraph, outer_face: int) -> int:
    peel = peel_numbers_by_deletion(g, outer_face)
    return max(peel) if peel else 0


def layer_numbers_by_deletion(g: PlaneGraph, root: int) -> list[int]:
    """Layer index of every vertex: 0 for the root, then deletion rounds.

    Deleting the root merges all faces around it into one region, so the
    choice of face incident to the root is immaterial.
    """
    if not (0 <= root < g.n):
        raise ValueError("root out of range")
    t = _deletion_tables(g)
    peel = _deletion_rounds(t, t.first_face[root], root)
    return [0 if p == -1 else p for p in peel]


# ---------------------------------------------------------------------------
# fse-outerplanarity by exhaustion over outerfaces
# ---------------------------------------------------------------------------


@dataclass
class FseBruteResult:
    value: int
    face: int
    per_face: list[int]

    def __iter__(self):  # allow (value, face) unpacking
        return iter((self.value, self.face))


def fse_outerplanarity_bruteforce(g: PlaneGraph, threads: int = 1) -> FseBruteResult:
    """Minimum peel count over all outerfaces, by literal deletion.

    Disconnected graphs are connected first (inside their shared faces),
    which never increases the count of any face.  All faces share one set
    of deletion tables, so each face costs O(n + m + F) and the whole
    search O(F (n + m + F)).  On every graph the per-face counts are then
    recomputed by one bit-parallel radial BFS from all faces
    (:func:`peels.face_peel_counts`, on g's one incidence view), and the
    first face where the two disagree raises :class:`InvariantError`, also
    under ``-O``.  ``threads`` fans the deletion rounds over a pool;
    results are collected in face order, so the answer does not depend on
    the thread count.
    """
    if not g.connected:
        g = connect_components(g)
    tables = _deletion_tables(g)

    def count_face(f: int) -> int:
        return max(_deletion_rounds(tables, f), default=0)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(count_face, range(g.face_count)))
    else:
        counts = [count_face(f) for f in range(g.face_count)]
    radial = peels.face_peel_counts(g)
    for f, (c, r) in enumerate(zip(counts, radial)):
        if c != r:
            raise InvariantError(f"peel-count routes disagree on face {f}: deletion={c} radial={r}")
    value = min(counts)
    return FseBruteResult(value, counts.index(value), counts)


# ---------------------------------------------------------------------------
# Fence-girth by cycle enumeration + side test
# ---------------------------------------------------------------------------


def _simple_cycles_of_length(g: PlaneGraph, L: int, budget: list[int]) -> Iterator[list[int]]:
    """Yield each simple cycle of exactly L edges once, as a dart sequence.

    Cycles are rooted at their smallest vertex and emitted in one canonical
    orientation (first dart id < twin of last dart).  Loops are length-1
    cycles; a pair of parallel edges is a length-2 cycle.
    """
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


class _UnionFind:
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


def _is_fence(g: PlaneGraph, t: _DeletionTables, cycle: Sequence[int]) -> bool:
    """True when vertices exist strictly on both sides of the cycle."""
    cyc_edges = {d >> 1 for d in cycle}
    cyc_verts = {g.origin(d) for d in cycle}
    uf = _UnionFind(g.face_count)
    for e, (a, b) in enumerate(t.sides):
        if e not in cyc_edges:
            uf.union(a, b)
    d0 = cycle[0]
    left = uf.find(t.sides[d0 >> 1][d0 & 1])
    right = uf.find(t.sides[d0 >> 1][(d0 & 1) ^ 1])
    if left == right:
        return False
    seen_left = seen_right = False
    for v, f in enumerate(t.first_face):
        if v in cyc_verts:
            continue
        side = uf.find(f)
        if side == left:
            seen_left = True
        elif side == right:
            seen_right = True
        if seen_left and seen_right:
            return True
    return False


def fence_girth_bruteforce(
    g: PlaneGraph,
    max_len: Optional[int] = None,
    budget: int = 5_000_000,
) -> Union[int, float]:
    """Shortest length of a separating cycle, or math.inf if none exists.

    Exponential in the worst case; guarded to n <= 60.
    """
    if g.n > 60:
        raise ValueError(f"fence-girth brute force guarded to n <= 60 (n={g.n})")
    if max_len is None:
        max_len = g.n  # a simple cycle repeats no vertex
    remaining = [budget]
    tables = _deletion_tables(g)
    for L in range(1, max_len + 1):
        for cycle in _simple_cycles_of_length(g, L, remaining):
            if _is_fence(g, tables, cycle):
                return L
    return math.inf


def girth_bruteforce(
    g: PlaneGraph, max_len: Optional[int] = None, budget: int = 5_000_000
) -> Union[int, float]:
    """Length of the shortest cycle (loops count 1), or math.inf if acyclic."""
    if max_len is None:
        max_len = g.n
    remaining = [budget]
    for L in range(1, max_len + 1):
        for _cycle in _simple_cycles_of_length(g, L, remaining):
            return L
    return math.inf


# ---------------------------------------------------------------------------
# The radius/triangulation bound
# ---------------------------------------------------------------------------


@dataclass
class SimpleBoundReport:
    bound: int
    outerface: int
    realized: int
    center: int
    radius: int
    radius_triangulated: int

    def __iter__(self):  # (bound, outerface) unpacking
        return iter((self.bound, self.outerface))


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
    realized = peel_count_by_deletion(g, face)
    if realized > bound:
        raise InvariantError(f"realized peel count {realized} exceeds certified bound {bound}")
    return SimpleBoundReport(bound, face, realized, center, rad_g, rad_t)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    ok: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))
        self.ok = self.ok and passed


# Certificate fields read as vertex, face or count values.
_INT_FIELDS = ("s", "center", "bound", "outerface", "peel_bound", "n")


def _cert_get(cert, key: str):
    if isinstance(cert, Mapping):
        return cert.get(key)
    return getattr(cert, key, None)


def verify_certificate(cert, target: PlaneGraph) -> VerifyReport:
    """Recheck a center certificate on the graph it was issued for.

    ``target`` is the plane graph the certificate was issued for; the
    decomposition pipeline is re-run deterministically to rebuild the
    augmentation H.  The eccentricity of the center in H comes from one
    BFS from it (:func:`embed.vertex_bfs`, checked against this module's
    :func:`bfs_distances` in the tests); the peel count of the chosen
    outerface is rechecked in the original graph (connected first if it is
    not).  On a triangulation H is that graph, so all three searches read
    one incidence view.  A field that is present but not an integer (a
    float, a string, a bool) raises ValueError; the size and center-range
    checks run before the rebuild, which keeps the vertex count.
    """
    for key in _INT_FIELDS:
        value = _cert_get(cert, key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"certificate field {key!r} must be an integer, got {value!r}")
    report = VerifyReport(ok=True)
    s = _cert_get(cert, "center")
    if s is None:
        s = _cert_get(cert, "s")  # serialized form uses the short key
    bound = _cert_get(cert, "bound")
    outerface = _cert_get(cert, "outerface")
    if s is None or bound is None:
        report.add("fields", False, "certificate lacks center/bound")
        return report

    n = _cert_get(cert, "n")
    if n is not None and n != target.n:
        report.add("size", False, f"certificate n={n} but graph has {target.n}")
        return report

    if not (0 <= s < target.n):
        report.add("center-range", False, f"center {s} out of range")
        return report

    original = target
    if not target.connected:
        original = connect_components(target)
    root = peels.choose_root(original)
    ctx = peels.compute_layers(original, root)
    aug = peels.augment(ctx)

    dist = vertex_bfs(aug.H, s)
    if (dist < 0).any():
        raise ValueError("eccentricity undefined: graph is disconnected")
    ecc = int(dist.max())
    report.add(
        "eccentricity",
        ecc <= bound,
        f"ecc_H({s}) = {ecc} vs bound {bound}",
    )

    if outerface is not None:
        peel_bound = _cert_get(cert, "peel_bound")
        if peel_bound is None:
            peel_bound = bound + 1
        if not (0 <= outerface < original.face_count):
            report.add("outerface-range", False, f"face {outerface} out of range")
        else:
            count = peels.peel_count_for_outerface(original, outerface)
            report.add(
                "peel-count",
                count <= peel_bound,
                f"peel count {count} vs bound {peel_bound}",
            )
    return report


# ---------------------------------------------------------------------------
# One-stop report (CLI `oracle` command)
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    n: int
    m: int
    fse_outerplanarity: int
    best_outerface: int
    radius: int
    diameter: int
    eccentricities: list[int]
    fence_girth: Optional[Union[int, float]]
    fence_girth_skipped: bool
    connected_copy: bool
    runtimes: dict

    def to_dict(self) -> dict:
        fg = self.fence_girth
        if fg == math.inf:
            fg = "infinity"
        return {
            "n": self.n,
            "m": self.m,
            "fse_outerplanarity": self.fse_outerplanarity,
            "best_outerface": self.best_outerface,
            "radius": self.radius,
            "diameter": self.diameter,
            "eccentricities": self.eccentricities,
            "fence_girth": fg,
            "fence_girth_skipped": self.fence_girth_skipped,
            "connected_copy": self.connected_copy,
            "runtimes": {k: round(v, 6) for k, v in self.runtimes.items()},
        }


def full_oracle_report(g: PlaneGraph, fence_budget: int = 5_000_000) -> OracleReport:
    connected_copy = not g.connected
    gc_ = g if g.connected else connect_components(g)

    runtimes = Stages()
    fse = fse_outerplanarity_bruteforce(gc_)
    runtimes.lap("fse")

    eccs = all_eccentricities(gc_)
    rad, diam = min(eccs), max(eccs)
    if not rad <= diam <= 2 * rad:
        raise InvariantError(f"radius {rad} and diameter {diam} break rad <= diam <= 2 rad")
    runtimes.lap("distances")

    fence: Optional[Union[int, float]] = None
    skipped = True
    if gc_.n <= 60:
        try:
            fence = fence_girth_bruteforce(gc_, budget=fence_budget)
            skipped = False
        except OracleBudgetError:
            fence = None
            skipped = True
        runtimes.lap("fence_girth")

    return OracleReport(
        n=g.n,
        m=g.m,
        fse_outerplanarity=fse.value,
        best_outerface=fse.face,
        radius=rad,
        diameter=diam,
        eccentricities=eccs,
        fence_girth=fence,
        fence_girth_skipped=skipped,
        connected_copy=connected_copy,
        runtimes=runtimes,
    )
