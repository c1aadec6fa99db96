"""Brute-force ground truth for peel decompositions and related invariants.

Everything here is deliberately definition-shaped and independent of the
fast pipeline: peel counts come from literally deleting outer-face vertices
round by round (each deleted edge joins its two faces, and a face that so
reaches the outer region floods its joined neighbours into it; the next
round peels the vertices on the faces that just joined), and fence-girth
comes from exhaustive simple-cycle enumeration plus a Jordan-side test.
Costs are desk-scale by design.

The literal deletion has one route, :func:`_deletion_counts`: it runs the
rounds for every outerface at once, one bit per face in uint64 rows, and
a block of ``embed._BIT_BLOCK`` faces costs one O(n + m) numpy step per
flood pass, with as many passes per round as the flood needs.  Its arrays
(:func:`_face_bit_tables`) come from g's dart arrays, not from the
incidence view the radial cross-check reads.  The tests hold it face by
face to a union-find deletion that rescans every face each round
(``tests/helpers.py``).

The fence search reads no face: :func:`fence_girth_bruteforce` walks the
rotations at each candidate cycle's own vertices in plain Python
(:func:`_is_fence`), and the tests hold that side test to a union-find
over the faces joined across the edges off the cycle.

Three exceptions read the pipeline's numpy searches on g's cached
incidence view, and the tests hold each to a pure-Python route; the
reference for distances is a plain breadth-first search on adjacency
lists, ``tests/helpers.bfs_distances``:

- :func:`verify_certificate` runs at full scale on every certificate the
  CLI checks, so it reads ecc_H(s) from :func:`embed.vertex_bfs`, held to
  ``bfs_distances``;
- :func:`all_eccentricities` runs one bit-parallel BFS from every vertex
  at once, held to one ``bfs_distances`` per vertex;
- the cross-check in :func:`fse_outerplanarity_bruteforce` recounts every
  face by one bit-parallel radial BFS (:func:`peels.face_peel_counts`),
  held to the literal deletion it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import embed, peels
from .center import Stages
from .embed import (
    InvariantError,
    PlaneGraph,
    _bit_bfs,
    _cached_incidence,
    _source_flags,
    connect_components,
    vertex_bfs,
)

__all__ = [
    "OracleBudgetError",
    "OracleReport",
    "VerifyReport",
    "all_eccentricities",
    "diameter_exact",
    "fence_girth_bruteforce",
    "fse_outerplanarity_bruteforce",
    "full_oracle_report",
    "radius_exact",
    "verify_certificate",
]


class OracleBudgetError(RuntimeError):
    """An exhaustive search exceeded its step budget or size guard."""


# ---------------------------------------------------------------------------
# Eccentricities
# ---------------------------------------------------------------------------


def all_eccentricities(g: PlaneGraph) -> list[int]:
    """Eccentricity of every vertex; ValueError on a disconnected graph.

    One bit-parallel BFS from all vertices at once (``embed._bit_bfs``)
    over the neighbour CSR of g's incidence view (``vf_indptr``,
    ``vf_heads``): the last level at which a source reaches a new vertex is
    its eccentricity.  The tests hold it to one
    ``tests/helpers.bfs_distances`` per vertex.
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
# fse-outerplanarity by literal deletion from every outerface
# ---------------------------------------------------------------------------


class _FaceBitTables(NamedTuple):
    """The one per-graph table of the oracle's deletion search."""

    face_count: int
    vf_indptr: np.ndarray  # vertex v's faces are vf_faces[vf_indptr[v]:vf_indptr[v + 1]]
    vf_faces: np.ndarray  # the face of each dart leaving v; a lone vertex: its host face
    ends: np.ndarray  # row k, column e is end k of edge e: g.ends[2e + k]
    sides: np.ndarray  # row k, column e is the face of dart 2e + k


def _face_bit_tables(g: PlaneGraph) -> _FaceBitTables:
    """Read g into the arrays of :func:`_deletion_counts`.

    The faces beside the two darts of each edge, and each vertex's faces
    with a lone vertex on its host face, taken straight from g's dart
    arrays; repeats stay in.  Nothing here reads g's incidence view, so the
    radial cross-check does not share it.
    """
    ends = np.frombuffer(g.ends, dtype=np.int32)
    lone = np.frombuffer(g.lone_walk_vertex, dtype=np.int32)
    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    face_of_dart = face_of_walk[np.frombuffer(g.walk_of_dart, dtype=np.int32)]
    verts = np.concatenate([ends, lone])
    faces = np.concatenate([face_of_dart, face_of_walk[g.dart_walk_count :]])
    vf_indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(verts, minlength=g.n), out=vf_indptr[1:])
    return _FaceBitTables(
        g.face_count,
        vf_indptr,
        faces[np.argsort(verts, kind="stable")],
        ends.reshape(-1, 2).T,
        face_of_dart.reshape(-1, 2).T,
    )


def _or_rows(entries: np.ndarray, indptr: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Row r: the OR of entries[indptr[r]:indptr[r + 1]], 0 where that is empty.

    ``filled`` lists the non-empty rows.
    """
    if len(filled) == len(indptr) - 1:
        return np.bitwise_or.reduceat(entries, indptr[:-1], axis=0)
    out = np.zeros((len(indptr) - 1, entries.shape[1]), dtype=np.uint64)
    if len(filled):
        out[filled] = np.bitwise_or.reduceat(entries, indptr[filled], axis=0)
    return out


def _deletion_counts(t: _FaceBitTables) -> list[int]:
    """Peel count of every outerface: the oracle's one literal-deletion route.

    All outerfaces run at once, one bit per source (the multi-source
    traversal of Then et al., PVLDB 8(4), 2014, as in ``embed._bit_bfs``):
    sources go in blocks of ``embed._BIT_BLOCK``, and a block keeps a row of
    uint64 words per face for its outer region, per face for the faces that
    joined it since the last round began, and per vertex for deleted.  A
    round deletes every live vertex on a freshly joined face, then every
    edge with a deleted end, and closes the outer region under the two faces
    beside a deleted edge until nothing changes.  A source's count is the
    last round that deleted something; a source whose round deletes nothing
    while vertices are still live raises :class:`InvariantError`.  The tests
    hold it face by face to a union-find deletion in ``tests/helpers.py``.
    """
    F, vf_indptr, vf_faces, (u, v), sides = t
    vf_filled = np.flatnonzero(np.diff(vf_indptr))
    # the faces beside each edge, one entry per side: (edge, the face across)
    near = sides.ravel()
    order = np.argsort(near, kind="stable")
    m = sides.shape[1]
    fe_edge = order % m
    fe_far = sides[::-1].ravel()[order]
    fe_indptr = np.zeros(F + 1, dtype=np.intp)
    np.cumsum(np.bincount(near, minlength=F), out=fe_indptr[1:])
    fe_filled = np.flatnonzero(np.diff(fe_indptr))
    counts = np.zeros(F, dtype=np.int64)
    block = embed._BIT_BLOCK
    for first in range(0, F, block):
        count = min(block, F - first)
        j = np.arange(count)
        fresh = np.zeros((F, -(-count // 64)), dtype=np.uint64)
        fresh[first + j, j >> 6] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
        outer = fresh.copy()
        deleted = np.zeros((len(vf_indptr) - 1, fresh.shape[1]), dtype=np.uint64)
        rnd = 0
        while True:
            rnd += 1
            hit = _or_rows(fresh.take(vf_faces, axis=0), vf_indptr, vf_filled) & ~deleted
            if not hit.any():
                break
            deleted |= hit
            hit_any = np.bitwise_or.reduce(hit, axis=0)
            counts[first : first + count][_source_flags(hit_any, count)] = rnd
            gone = (deleted.take(u, axis=0) | deleted.take(v, axis=0)).take(fe_edge, axis=0)
            fresh = np.zeros_like(outer)
            front = outer
            while True:
                joined = _or_rows(gone & front.take(fe_far, axis=0), fe_indptr, fe_filled) & ~outer
                if not joined.any():
                    break
                outer |= joined
                fresh |= joined
                front = joined
        if not _source_flags(np.bitwise_and.reduce(deleted, axis=0), count).all():
            raise InvariantError("outer region lost all boundary vertices: corrupt embedding")
    return counts.tolist()


@dataclass
class FseBruteResult:
    value: int
    face: int
    per_face: list[int]


def fse_outerplanarity_bruteforce(g: PlaneGraph, threads: int = 1) -> FseBruteResult:
    """Minimum peel count over all outerfaces, by literal deletion.

    Disconnected graphs are connected first (inside their shared faces),
    which never increases the count of any face.  Every face's deletion
    rounds run at once, one bit per face (:func:`_deletion_counts`).  On
    every graph the per-face counts are then recomputed by one bit-parallel
    radial BFS from all faces (:func:`peels.face_peel_counts`, on g's one
    incidence view), and the first face where the two disagree raises
    :class:`InvariantError`, also under ``-O``.  ``threads`` is accepted and
    ignored.
    """
    if not g.connected:
        g = connect_components(g)
    counts = _deletion_counts(_face_bit_tables(g))
    radial = peels.face_peel_counts(g)
    for f, (c, r) in enumerate(zip(counts, radial)):
        if c != r:
            raise InvariantError(f"peel-count routes disagree on face {f}: deletion={c} radial={r}")
    value = min(counts)
    return FseBruteResult(value, counts.index(value), counts)


# ---------------------------------------------------------------------------
# Fence-girth by cycle enumeration + side test
# ---------------------------------------------------------------------------


def _dart_lists(g: PlaneGraph) -> tuple[list[list[int]], list[int], list[int]]:
    """(darts_at, head, rot_next) of g as lists, read by the fence search.

    ``darts_at[v]`` holds the darts leaving v in slot order and ``head[d]``
    the head of dart d, ``ends[d ^ 1]``.
    """
    head = g.ends.tolist()
    head[0::2], head[1::2] = head[1::2], head[0::2]
    return [g.rotation_darts(v) for v in range(g.n)], head, g.rot_next.tolist()


def _simple_cycles_of_length(
    darts_at: Sequence[Sequence[int]], head: Sequence[int], L: int, budget: list[int]
) -> Iterator[list[int]]:
    """Yield each simple cycle of exactly L edges once, as a dart sequence.

    ``darts_at`` and ``head`` come from :func:`_dart_lists`, built once per
    search by :func:`fence_girth_bruteforce`.  Cycles are rooted at their
    smallest vertex and emitted in one canonical orientation (first dart
    id < twin of last dart).  Loops are length-1 cycles; a pair of
    parallel edges is a length-2 cycle.  Every ``extend`` step takes one
    unit of ``budget[0]``.

    A path never reuses an edge: a step goes only to a vertex above the
    root and off the path, and the one closing dart that could retrace a
    path edge, the twin of a length-2 cycle's first dart, fails the
    orientation test.  The tests hold the cycles, their order and the
    budget spent to ``tests/helpers.simple_cycles_of_length``.
    """
    on_path = [False] * len(darts_at)

    def extend(s: int, v: int, path: list[int]) -> Iterator[list[int]]:
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleBudgetError("cycle enumeration budget exhausted")
        closing = len(path) + 1 == L
        for d in darts_at[v]:
            w = head[d]
            if closing:
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
            path.append(d)
            yield from extend(s, w, path)
            path.pop()
            on_path[w] = False

    for s in range(len(darts_at)):
        yield from extend(s, s, [])


def _is_fence(
    rot_next: Sequence[int], head: Sequence[int], n: int, cycle: Sequence[int]
) -> bool:
    """True when vertices exist strictly on both sides of the cycle; g connected.

    At a cycle vertex entered by dart a and left by dart d, the darts
    strictly between ``a ^ 1`` and d in ``rot_next`` order form one side's
    wedge and those strictly between d and ``a ^ 1`` the other's.  A side
    holds a vertex off the cycle exactly when some dart of its wedges, at
    some cycle vertex, has its head off the cycle: such an edge cannot
    cross the cycle, and in a connected graph a path from a vertex inside
    the side reaches the cycle through one.  The darts of loops and
    parallel edges have their heads on the cycle, so they need no case.
    The cost is at most the sum of the cycle vertices' degrees.
    """
    on_cycle = bytearray(n)
    for d in cycle:
        on_cycle[head[d]] = 1
    seen = [False, False]
    back = cycle[-1] ^ 1
    for d in cycle:
        side, x = 0, rot_next[back]
        while x != back:
            if x == d:
                side = 1
            elif not seen[side] and not on_cycle[head[x]]:
                seen[side] = True
                if seen[1 - side]:
                    return True
            x = rot_next[x]
        back = d ^ 1
    return False


def fence_girth_bruteforce(g: PlaneGraph, budget: int = 5_000_000) -> Union[int, float]:
    """Shortest length of a separating cycle, or math.inf if none exists.

    A separating cycle (a fence) has vertices strictly on both of its
    sides.  A disconnected g is connected first, inside its shared faces,
    as in :func:`fse_outerplanarity_bruteforce`: the added forest closes no
    cycle and moves no vertex to the other side of one.  Cycles come by
    length from :func:`_simple_cycles_of_length` and :func:`_is_fence`
    tests each, both in plain Python over the lists of :func:`_dart_lists`.
    Exponential in the worst case: guarded to n <= 60, and
    :class:`OracleBudgetError` once the enumeration spends ``budget``
    steps.
    """
    if g.n > 60:
        raise ValueError(f"fence-girth brute force guarded to n <= 60 (n={g.n})")
    if not g.connected:
        g = connect_components(g)
    darts_at, head, rot_next = _dart_lists(g)
    remaining = [budget]
    for L in range(1, g.n + 1):  # a simple cycle repeats no vertex
        for cycle in _simple_cycles_of_length(darts_at, head, L, remaining):
            if _is_fence(rot_next, head, g.n, cycle):
                return L
    return math.inf


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
    BFS from it (:func:`embed.vertex_bfs`, checked against
    ``tests/helpers.bfs_distances``); the peel count of the chosen
    outerface is rechecked in the original graph (connected first if it is
    not).  On a triangulation H is that graph, so the rebuild is skipped
    and both searches read one incidence view.  A field that is present
    but not an integer (a float, a string, a bool) raises ValueError; the
    size and center-range checks run before the rebuild, which keeps the
    vertex count.
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
    h = original
    if not original.triangulated:  # augment adds no edge to a triangulation
        h = peels.augment(peels.compute_layers(original, peels.choose_root(original))).H

    dist = vertex_bfs(h, s)
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


def full_oracle_report(g: PlaneGraph) -> OracleReport:
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
            fence = fence_girth_bruteforce(gc_)
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
