"""Plane graphs with a fixed combinatorial (spherical) embedding.

A graph is stored as a rotation system over *darts*: dart ``d`` runs from
``ends[d]`` to ``ends[d ^ 1]``, so edge ``e`` is ``(ends[2e], ends[2e + 1])``,
which is the ``edges`` value of a document read flat.  ``rot_next[d]`` is the
next dart with the same origin, in slot order around that vertex.  Faces are
traced with ``face_next(d) = rot_next[twin(d)]``; the traced face lies on a
fixed side of every dart of its orbit (we read rotations as clockwise, so the
face is on the left, but the chirality is internal and never observable).

Disconnected graphs need extra data: a face of the sphere may be bounded by
several closed walks (and may contain isolated vertices), and the grouping of
walks into faces is genuinely geometric information, so it is part of the
input.  Connected graphs have exactly one walk per face and the grouping is
implied.  A graph holds its grouping once, as ``face_of_walk``: which walks
bound a face is kept, the order in which a document listed them is not.

Every graph is made by :func:`_finish_graph` from its three dart arrays
(``ends``, ``rot_next``, ``rot_first``).  The loader, the random generator
and the augmentation compute those arrays whole and pass them in; the edge
insertions of :func:`connect_components`, :func:`triangulate_preserving_embedding`
and the prism generator splice edges one by one into a :class:`_Builder`
first.  What only one reader needs is derived there: a graph counts its
components, and only :func:`connect_components` labels them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import index
from typing import NoReturn, Optional, Sequence

import numpy as np

__all__ = [
    "GraphFormatError",
    "InvariantError",
    "PlaneGraph",
    "build_plane_graph",
    "radial_bfs",
    "vertex_bfs",
    "connect_components",
    "triangulate_preserving_embedding",
]


class GraphFormatError(ValueError):
    """Raised when an input document fails structural validation."""


class InvariantError(AssertionError):
    """Raised when a proof invariant fails; unlike ``assert``, survives ``-O``."""


# ---------------------------------------------------------------------------
# Core container
# ---------------------------------------------------------------------------


class PlaneGraph:
    """Immutable plane multigraph with traced faces.

    Construct through :func:`build_plane_graph` (validating) or, inside the
    package, :func:`_finish_graph`; do not mutate the arrays after
    construction -- operations that change the graph return a new instance,
    which may share the arrays it did not change.
    """

    __slots__ = (
        "n",
        "m",
        "ends",
        "rot_next",
        "rot_first",
        "walk_of_dart",
        "dart_walk_count",
        "_walk_order",
        "_incidence",
        "_slot_darts",
        "lone_walk_vertex",
        "face_of_walk",
        "face_count",
        "component_count",
        "simple",
        "connected",
        "triangulated",
        "meta",
    )

    def __init__(self) -> None:  # populated by _finish_graph
        self.meta: dict = {}

    # -- dart helpers ------------------------------------------------------

    def origin(self, d: int) -> int:
        return self.ends[d]

    def head(self, d: int) -> int:
        return self.ends[d ^ 1]

    @property
    def eu(self) -> array:
        """First end of every edge, ``ends[0::2]``, as a copy."""
        return self.ends[0::2]

    @property
    def ev(self) -> array:
        """Second end of every edge, ``ends[1::2]``, as a copy."""
        return self.ends[1::2]

    def rotation_darts(self, v: int) -> list[int]:
        """Darts with origin v, in slot order (possibly empty)."""
        first = self.rot_first[v]
        if first < 0:
            return []
        out = [first]
        d = self.rot_next[first]
        while d != first:
            out.append(d)
            d = self.rot_next[d]
        return out

    # -- walks and faces ---------------------------------------------------

    @property
    def walk_indptr(self) -> array:
        """Walk w is ``walk_flat[walk_indptr[w]:walk_indptr[w + 1]]``."""
        return self._walks_in_order()[0]

    @property
    def walk_flat(self) -> array:
        """Darts of every dart walk in trace order, walk after walk."""
        return self._walks_in_order()[1]

    def _walks_in_order(self) -> tuple[array, array]:
        # built on first read: the load and certify paths only need walk_of_dart
        if self._walk_order is None:
            self._walk_order = _walk_order(self.rot_next, self.walk_of_dart, self.dart_walk_count)
        return self._walk_order

    def walk(self, w: int) -> list[int]:
        """Darts of walk w in trace order; [] for an isolated-vertex walk."""
        nd = self.dart_walk_count
        if w >= nd:
            return []
        return list(self.walk_flat[self.walk_indptr[w] : self.walk_indptr[w + 1]])

    def first_face_of_vertex(self, v: int) -> int:
        """The face of v's first dart in slot order (isolated: its host face)."""
        d = self.rot_first[v]
        if d < 0:  # lone walks follow the dart walks, by vertex
            return self.face_of_walk[self.dart_walk_count + bisect_left(self.lone_walk_vertex, v)]
        return self.face_of_walk[self.walk_of_dart[d]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlaneGraph(n={self.n}, m={self.m}, faces={self.face_count}, "
            f"connected={self.connected}, simple={self.simple})"
        )


# ---------------------------------------------------------------------------
# Builder (internal): growable rotation system with O(1) corner splices
# ---------------------------------------------------------------------------


class _Builder:
    """Mutable rotation system for edges spliced in one at a time.

    Start one from a graph with :meth:`from_graph`; its three arrays go to
    :func:`_finish_graph` as they are.
    """

    origin = PlaneGraph.origin  # one definition of the dart layout for both classes

    @classmethod
    def from_graph(cls, g: PlaneGraph) -> "_Builder":
        b = cls.__new__(cls)
        b.n = g.n
        b.ends = array("i", g.ends)
        b.rot_next = array("i", g.rot_next)
        b.rot_first = array("i", g.rot_first)
        return b

    def _new_edge(self, u: int, v: int) -> int:
        e = len(self.ends) >> 1
        self.ends.extend((u, v))
        self.rot_next.extend((-1, -1))
        return e

    def add_chord(self, prev_u: int, at_u: int, prev_v: int, at_v: int) -> int:
        """Insert edge between two corners of one face.

        A corner is named by the walk dart that leaves it (``at_u``) plus the
        walk dart that enters it (``prev_u``); the new dart is spliced into the
        slot between ``twin(prev_u)`` and ``at_u``.  Returns the edge id.
        """
        rn = self.rot_next
        if rn[prev_u ^ 1] != at_u or rn[prev_v ^ 1] != at_v:
            raise InvariantError("not a corner")
        e = self._new_edge(self.origin(at_u), self.origin(at_v))
        rn[prev_u ^ 1] = 2 * e
        rn[2 * e] = at_u
        rn[prev_v ^ 1] = 2 * e + 1
        rn[2 * e + 1] = at_v
        return e

    def add_edge_at_corner_to_isolated(self, prev_u: int, at_u: int, v: int) -> int:
        """Insert edge from a corner to an isolated vertex inside the face."""
        rn = self.rot_next
        if rn[prev_u ^ 1] != at_u:
            raise InvariantError("not a corner")
        if self.rot_first[v] >= 0:
            raise InvariantError("target vertex is not isolated")
        e = self._new_edge(self.origin(at_u), v)
        rn[prev_u ^ 1] = 2 * e
        rn[2 * e] = at_u
        rn[2 * e + 1] = 2 * e + 1
        self.rot_first[v] = 2 * e + 1
        return e

    def add_isolated_pair(self, u: int, v: int) -> int:
        """Edge between two isolated vertices (used when seeding generators)."""
        if self.rot_first[u] >= 0 or self.rot_first[v] >= 0:
            raise InvariantError("pair endpoint is not isolated")
        e = self._new_edge(u, v)
        self.rot_next[2 * e] = 2 * e
        self.rot_next[2 * e + 1] = 2 * e + 1
        self.rot_first[u] = 2 * e
        self.rot_first[v] = 2 * e + 1
        return e


# ---------------------------------------------------------------------------
# Walk tracing and finishing
# ---------------------------------------------------------------------------


def _of_twin(per_dart: array, out: Optional[np.ndarray] = None) -> np.ndarray:
    """per_dart[d ^ 1] for every dart d, as int32, written into ``out`` if given.

    Of ``rot_next`` that is face_next, and of ``ends`` every dart's head.
    """
    a = np.frombuffer(per_dart, dtype=np.int32)
    if out is None:
        out = np.empty_like(a)
    out[0::2] = a[1::2]  # two strided copies; a reversed-pair ravel took 5x as long
    out[1::2] = a[0::2]
    return out


def _label_walks(rot_next: array) -> tuple[np.ndarray, int, bool]:
    """Walk id of every dart (int32), the number of dart walks, and whether
    every walk is a triangle.

    A walk is an orbit of face_next.  Pointer doubling labels every dart
    with the smallest dart of its orbit: after round k, ``lab[d]`` is the
    least of the 2^k darts from d on.  While the window is shorter than an
    orbit, the dart that many steps before the orbit's minimum still gains
    it, so the first round that changes nothing has covered every orbit.
    Ranking the labels numbers the walks by their smallest dart, the order
    in which a trace from dart 0 upward meets them.

    The first round reads face_next itself, since every label is still its
    own dart.  When every walk is a triangle (face_next^3 is the identity
    and face_next fixes no dart), the least of d, face_next(d) and face_next^2(d), which that round's
    jump holds, is already the label.
    """
    fn = _of_twin(rot_next)
    ident = np.arange(len(fn), dtype=np.int32)
    lab = np.minimum(ident, fn)
    jump = fn[fn]
    triangles = bool((fn[jump] == ident).all() and (fn != ident).all())
    del fn  # keeps the peak of a large load low
    if triangles:
        np.minimum(lab, jump, out=lab)
    else:
        while True:
            step = lab[jump]
            if not (step < lab).any():
                break
            np.minimum(lab, step, out=lab)
            del step
            jump = jump[jump]
        del step
    del jump
    least = np.flatnonzero(lab == ident)  # every label is one of these
    rank = ident  # read only where a label points
    rank[least] = np.arange(len(least), dtype=np.int32)
    return rank[lab], len(least), triangles


def _walk_order(rot_next: array, walk_of_dart: array, count: int) -> tuple[array, array]:
    """(indptr, flat): each walk's darts from its smallest one, in trace order."""
    walk = np.frombuffer(walk_of_dart, dtype=np.int32)
    # the smallest darts of the walks appear in walk id order
    least = np.diff(np.maximum.accumulate(walk), prepend=-1).astype(bool)
    return tuple(map(_int_array, _cycle_order(_of_twin(rot_next), walk, least, count)))


def _rotation_order(
    rot_next: array, rot_first: array, origin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, flat) as int32: each vertex's darts from rot_first, in slot order."""
    first = np.zeros(len(origin), dtype=bool)
    heads = np.frombuffer(rot_first, dtype=np.int32)
    first[heads[heads >= 0]] = True
    return _cycle_order(np.array(rot_next, dtype=np.int32), origin, first, len(rot_first))


# _cycle_order walks the cycles in lockstep while at least this many are
# open, so each numpy round does work for that many darts at least.
_LOCKSTEP = 256


def _cycle_order(
    nxt: np.ndarray, group: np.ndarray, first: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, flat) as int32: the cycles of ``nxt``, each from its ``first`` dart.

    ``group`` numbers the cycles in [0, count) and ``first`` marks one dart
    on each; ``nxt`` is overwritten.  All cycles are walked from their first
    dart at once, one step per round, until fewer than ``_LOCKSTEP`` are
    open.  The darts of those left are ranked by list ranking (Wyllie, "The
    complexity of parallel computations", Cornell TR 79-387, 1979), cut just
    before the first dart: each dart doubles its pointer towards the cut and
    sums the steps on the way, which gives its distance to the cycle's last
    dart, and drops out once it points at that dart.
    """
    m2 = len(group)
    size = np.bincount(group, minlength=count)
    indptr = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(size, out=indptr[1:])
    rank = np.empty(m2, dtype=np.int32)  # steps from the cycle's first dart
    cur = np.flatnonzero(first)
    step = 0
    while len(cur) >= _LOCKSTEP:
        rank[cur] = step
        cur = nxt[cur]
        cur = cur[~first[cur]]
        step += 1
    if len(cur):
        left = np.zeros(count, dtype=bool)
        left[group[cur]] = True
        todo = darts = np.flatnonzero(left[group])
        end = darts[first[nxt[darts]]]  # the dart before its cycle's first one
        nxt[end] = end
        rank[darts] = 1  # distance to the cycle's last dart, as it grows
        rank[end] = 0
        while len(todo):
            ahead = nxt[todo]
            rank[todo] += rank[ahead]
            nxt[todo] = ahead = nxt[ahead]
            todo = todo[nxt[ahead] != ahead]
        rank[darts] = size[group[darts]] - 1 - rank[darts]
    pos = indptr[:-1][group]
    pos += rank
    del rank
    flat = np.empty(m2, dtype=np.int32)
    flat[pos] = np.arange(m2, dtype=np.int32)
    return indptr, flat


def _grouping(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, order) grouping positions by key in [0, size).

    Row k of any values array v is v[order][indptr[k]:indptr[k+1]], so
    arrays keyed alike share one sort.  Order within a row is unspecified;
    every reader dedupes or sorts.
    """
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys, minlength=size), out=indptr[1:])
    return indptr, np.argsort(keys)


def _label_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest vertex id in each vertex's component; edge i joins u[i] and v[i].

    Min-label hooking plus pointer jumping (Shiloach & Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 3(1), 1982): every label
    hooks onto the smallest label across its edges, then every vertex jumps
    to its label's label until nothing changes, and the two repeat until no
    edge joins two labels.  A hook always points below itself and only
    within a component, so the labels form a forest whose roots end up as
    the smallest ids.  Edges inside one label drop out once they are.
    """
    lab = np.arange(n, dtype=np.int32)
    while True:
        lu, lv = lab[u], lab[v]
        cross = lu != lv
        if not cross.any():
            return lab
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(up := lab[lab], lab):
            lab = up


def _distinct(ids: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """ids with repeats dropped, without sorting; slot is a work array indexed by id.

    Every occurrence writes its position into its id's slot; whichever write
    lands, exactly one occurrence per id reads its own position back.
    """
    pos = np.arange(ids.size)
    slot[ids] = pos
    return ids[slot[ids] == pos]


def _csr_gather(indptr: np.ndarray, flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Concatenate flat[indptr[i]:indptr[i+1]] for i in idx, as int64.

    Positions and result are int64 whatever the CSR's dtype: numpy casts an
    int32 index array on every use, which made a BFS round over int32 CSRs
    about 30% slower.
    """
    lo = indptr[idx].astype(np.int64)
    counts = indptr[idx + 1] - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # the j-th entry of a row sits at its row start lo plus j
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return flat[pos].astype(np.int64, copy=False)


def _finish_graph(
    n: int,
    ends: array,
    rot_next: array,
    rot_first: array,
    face_grouping: Optional[Sequence[Sequence[int]]] = None,
    meta: Optional[dict] = None,
) -> PlaneGraph:
    """The graph of a rotation system on n vertices: the one way a graph is made.

    ``ends``, ``rot_next`` and ``rot_first`` are int32 arrays that the graph
    keeps as they are.  Labels walks, resolves faces, validates the Euler
    count and derives the flags.  Components are labelled and counted, but
    their labels are not kept.  Walk order waits until something reads it.
    """
    g = PlaneGraph()
    g.n = n
    g.m = len(ends) >> 1
    g.ends, g.rot_next, g.rot_first = ends, rot_next, rot_first
    g.meta = dict(meta) if meta else {}

    walk_of, n_dart_walks, triangles = _label_walks(rot_next)
    g.walk_of_dart = _int_array(walk_of)
    del walk_of  # keeps the peak of a large load low
    g.dart_walk_count = n_dart_walks
    g._walk_order = None
    g._incidence = None
    g._slot_darts = None
    g.lone_walk_vertex = _int_array(np.flatnonzero(np.frombuffer(rot_first, dtype=np.int32) < 0))

    # the component and simplicity passes read the two edge columns whole
    pairs = np.frombuffer(ends, dtype=np.int32)
    u, v = pairs[0::2].copy(), pairs[1::2].copy()
    ncomp = int(np.count_nonzero(_label_components(n, u, v) == np.arange(n, dtype=np.int32)))
    g.component_count = ncomp
    g.connected = ncomp <= 1

    n_walks = n_dart_walks + len(g.lone_walk_vertex)
    if face_grouping is not None:
        face_of_walk, g.face_count = _face_of_walk(face_grouping, n_walks)
    elif g.connected or n == 0:
        face_of_walk, g.face_count = np.arange(n_walks, dtype=np.int32), n_walks
    else:
        raise GraphFormatError("disconnected graph requires an explicit face grouping")
    g.face_of_walk = _int_array(face_of_walk)

    # Sphere check: n - m + f = 1 + c covers every component at once.
    if n > 0 and n - g.m + g.face_count != 1 + ncomp:
        raise GraphFormatError(
            "rotation system / face grouping is not spherical: "
            f"n={n} m={g.m} f={g.face_count} components={ncomp}"
        )

    # Simplicity: no loops, no parallel edges.
    pair = np.minimum(u, v).astype(np.int64)
    pair *= n
    pair += np.maximum(u, v)
    pair.sort()
    g.simple = bool(not (u == v).any() and (pair[1:] != pair[:-1]).all())
    del pair
    # One face per walk (groups partition the walks), every walk a triangle.
    g.triangulated = bool(
        g.m > 0 and not g.lone_walk_vertex and g.face_count == n_walks and triangles
    )
    return g


def _face_of_walk(faces: Sequence[Sequence[int]], n_walks: int) -> tuple[np.ndarray, int]:
    """(face_of_walk, face count) of a grouping: one row of walk ids per face.

    The checks run in this order, each naming its first offending walk in
    document order: an empty face, a walk out of range, a walk grouped
    twice, walks left out.  A row or id that is not an integer raises
    ``len``'s or ``operator.index``'s TypeError first.
    """
    flat = _flat(faces)
    if flat is None:  # raise that TypeError, or keep ids past int32 as Python ints
        lens = np.fromiter(map(len, faces), np.int64, len(faces))
        flat = np.fromiter(map(index, chain.from_iterable(faces)), object, int(lens.sum())), lens
    ids, lens = flat
    if not lens.all():
        raise GraphFormatError("empty face in grouping")
    out = (ids < 0) | (ids >= n_walks)
    if out.any():
        raise GraphFormatError(f"face grouping references walk {ids[out.argmax()]}")
    order = np.argsort(ids, kind="stable")
    again = order[1:][ids[order[1:]] == ids[order[:-1]]]  # every listing after a walk's first
    if again.size:
        raise GraphFormatError(f"walk {ids[again.min()]} grouped twice")
    if len(ids) < n_walks:
        raise GraphFormatError("face grouping does not cover all walks")
    face_of_walk = np.empty(n_walks, dtype=np.int32)
    face_of_walk[ids] = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    return face_of_walk, len(lens)


def _face_rows(g: PlaneGraph) -> list[list[int]]:
    """The walks of each face, ascending, face after face."""
    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    walks = np.argsort(face_of_walk, kind="stable").tolist()
    stops = np.cumsum(np.bincount(face_of_walk, minlength=g.face_count)).tolist()
    return [walks[a:b] for a, b in zip([0] + stops, stops)]


# ---------------------------------------------------------------------------
# Public construction
# ---------------------------------------------------------------------------


def build_plane_graph(
    n: int,
    edges: Sequence[Sequence[int]],
    rotation: Sequence[Sequence[int]],
    faces: Optional[Sequence[Sequence[int]]] = None,
    flags: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> PlaneGraph:
    """Validate and freeze a plane graph given edge-index rotations.

    ``rotation[v]`` lists incident edge ids in slot order; a loop's id appears
    twice, its first slot taking dart 2e and its second 2e + 1.  ``faces``
    groups walk ids (in trace discovery order) into faces, one row per face,
    and is required exactly when the graph is disconnected; it is checked
    in numpy (:func:`_face_of_walk`) and kept only as ``face_of_walk``.
    ``flags`` entries
    (simple/connected/triangulated), if given, are checked against reality.

    ``edges`` and ``rotation`` are sequences of rows, or :class:`FlatRows`
    that already hold them as flat int32 arrays (what
    :func:`graphio.loads_plane_graph` reads from canonical text).  Row lists
    are flattened first; from there both forms take the same steps.  The
    graph keeps its darts in slot order, vertex by vertex, as
    ``_slot_darts`` (row pointers, darts), until its incidence view takes
    them as its vertex side (:func:`_incidence`).

    Numpy only decides whether the edges and rotation are sound.  When they
    are not, a plain scan in document order raises the error of the first
    defect it meets: the first bad edge, else the first bad rotation slot
    (vertex by vertex, slot by slot), else the first edge missing a slot.
    ``n`` or an id that is not an integer raises ``operator.index``'s
    TypeError.
    """
    n = index(n)
    if n < 0:
        raise GraphFormatError("negative vertex count")
    if n == 0:
        raise GraphFormatError("graph has no vertices")
    if len(rotation) != n:
        raise GraphFormatError(f"rotation has {len(rotation)} rows, expected {n}")

    system = _rotation_system(n, _flat(edges), _flat(rotation))
    if system is None:
        _first_defect(n, edges, rotation)
    ends, rot_next, rot_first = map(_int_array, system[:3])
    slots = system[3:]
    del system
    g = _finish_graph(n, ends, rot_next, rot_first, face_grouping=faces, meta=meta)
    g._slot_darts = slots

    if flags:
        computed = {
            "simple": g.simple,
            "connected": g.connected,
            "triangulated": g.triangulated,
        }
        for key, val in flags.items():
            if key in computed and bool(val) != computed[key]:
                raise GraphFormatError(
                    f"flag {key}={val} contradicts computed {computed[key]}"
                )
    return g


def _int_array(x: np.ndarray) -> array:
    out = array("i", [0]) * len(x)
    np.frombuffer(out, dtype=np.int32)[:] = x  # one copy, cast on the way
    return out


class FlatRows:
    """Rows of ids held as one flat int32 array and the length of each row.

    :func:`build_plane_graph` takes them in place of row lists and skips the
    flattening.  Iterating yields the rows as lists of ints again, for the
    scan that words the first defect of an unsound input.
    """

    __slots__ = ("ids", "lens")

    def __init__(self, ids: np.ndarray, lens: np.ndarray) -> None:
        self.ids = ids
        self.lens = lens

    def __len__(self) -> int:
        return len(self.lens)

    def __iter__(self):
        ids = self.ids.tolist()
        stops = np.cumsum(self.lens).tolist()
        return (ids[a:b] for a, b in zip([0] + stops, stops))


def _flat(rows) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(ids, lens) of ``rows`` as int32, or None if a length or id does not convert."""
    if isinstance(rows, FlatRows):
        return rows.ids, rows.lens
    return _flatten_rows(rows)


def _flatten_rows(rows: Sequence[Sequence[int]]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The list flattener: one ``np.fromiter`` for the lengths, one for the ids."""
    try:
        lens = np.fromiter(map(len, rows), np.int32, len(rows))
        ids = np.fromiter(map(index, chain.from_iterable(rows)), np.int32, int(lens.sum()))
    except (TypeError, ValueError, OverflowError):
        return None
    return ids, lens


def _rotation_system(
    n: int,
    edges: Optional[tuple[np.ndarray, np.ndarray]],
    rotation: Optional[tuple[np.ndarray, np.ndarray]],
) -> Optional[tuple[np.ndarray, ...]]:
    """(ends, rot_next, rot_first, slot_indptr, slot_dart) as int32, or None
    if the input is unsound.

    ``edges`` and ``rotation`` are (ids, lens) pairs from :func:`_flat`, None
    where the rows did not flatten; ``ends`` is the ``edges`` ids as they
    came.  Sound means: every edge a pair of vertex ids, every slot an edge
    id at one of that edge's endpoints, and every dart named by exactly one
    slot.  A slot of edge e at ends[2e] names dart 2e, one at ends[2e + 1]
    dart 2e + 1; a loop's first slot names 2e and every later one 2e + 1, so
    a loop listed once or three times leaves a dart named zero times or
    twice.  Slot s names dart ``slot_dart[s]``, and vertex v's slots are
    ``slot_indptr[v]:slot_indptr[v + 1]``, in rotation order.
    """
    if edges is None or rotation is None:
        return None
    (ends, edge_lens), (slots, lens) = edges, rotation
    m, total = len(edge_lens), len(slots)
    if not (edge_lens == 2).all():
        return None
    if not (((0 <= ends) & (ends < n)).all() and ((0 <= slots) & (slots < m)).all()):
        return None
    vert = np.repeat(np.arange(n, dtype=np.int32), lens)
    # Gathers and scatters run on intp positions through take: numpy would
    # cast int32 indices to intp on every use.  dart holds one dart of each
    # slot's edge e, 2e then 2e + 1, until it is turned into the slot's dart.
    dart = slots.astype(np.intp)
    dart *= 2
    u0 = ends.take(dart)
    dart += 1
    v0 = ends.take(dart)
    at_u = vert == u0
    if not (at_u | (vert == v0)).all():
        return None
    dart -= at_u
    loops = np.flatnonzero(u0 == v0)
    del vert, u0, v0, at_u  # keeps the peak of a large load low
    if loops.size:
        first = np.full(2 * m, total)
        np.minimum.at(first, dart[loops], loops)
        dart[loops] += first[dart[loops]] != loops
        del first
    if not (np.bincount(dart, minlength=2 * m) == 1).all():
        return None

    # Slot s hands over to s + 1, and a row's last slot back to its first.
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=indptr[1:])
    start, stop = indptr[:-1], indptr[1:]
    full = lens > 0
    after = np.arange(1, total + 1)
    after[stop[full] - 1] = start[full]
    rot_next = np.empty(2 * m, dtype=np.int32)
    rot_next[dart] = dart.take(after)
    del after
    rot_first = np.full(n, -1, dtype=np.int32)
    rot_first[full] = dart.take(start[full])
    dart = dart.astype(np.int32)
    return ends, rot_next, rot_first, indptr, dart


def _first_defect(
    n: int, edges: Sequence[Sequence[int]], rotation: Sequence[Sequence[int]]
) -> NoReturn:
    """Raise the error of the first defect a scan in document order meets."""
    ends = []
    for e, pair in enumerate(edges):
        if len(pair) != 2:
            raise GraphFormatError(f"edge {e} is not a pair")
        u, v = index(pair[0]), index(pair[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {e} endpoint out of range")
        ends.append((u, v))
    named = bytearray(2 * len(ends))  # darts named so far
    for v, row in enumerate(rotation):
        len(row)  # a scalar row fails here, as len() words it
        for e in map(index, row):
            if not 0 <= e < len(ends):
                raise GraphFormatError(f"rotation of {v} references edge {e}")
            u0, v0 = ends[e]
            if u0 == v0:
                if v != u0:
                    raise GraphFormatError(f"loop {e} listed at wrong vertex {v}")
                d = 2 * e + named[2 * e]
                if named[d]:
                    raise GraphFormatError(f"loop {e} appears more than twice")
            elif v in (u0, v0):
                d = 2 * e + (v != u0)
                if named[d]:
                    raise GraphFormatError(f"edge {e} appears twice in rotation of {v}")
            else:
                raise GraphFormatError(f"edge {e} listed at non-endpoint {v}")
            named[d] = 1
    if 0 in named:
        raise GraphFormatError(f"edge {named.index(0) // 2} missing from some rotation")
    raise InvariantError("numpy refused edges and a rotation that a scan accepts")


# ---------------------------------------------------------------------------
# Radial (vertex-face incidence) BFS
# ---------------------------------------------------------------------------


def _incidence(
    g: PlaneGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(vf_indptr, vf_faces, vf_heads, fv_indptr, fv_verts): g's incidence, int32.

    Row v of vf_faces lists a face per dart leaving v, and the same entry of
    vf_heads (same vf_indptr, same order) that dart's head, so vf_heads is
    g's vertex-to-neighbour CSR.  Row f of fv_verts lists a vertex per dart
    on f.  An isolated vertex and its host face list each other once, and
    the vertex lists itself as its own head.  Repeats stay in, and the order
    within a row is unspecified.  Read-only, built once per graph by the
    first search (:func:`radial_bfs`, :func:`vertex_bfs`) and kept in the
    graph's ``_incidence`` slot.

    Neither side sorts where g already knows its rows.  The vertex side
    follows the slot order :func:`build_plane_graph` kept, with an entry
    inserted for each lone vertex.  On a triangulation, face f's row is its
    one walk: a dart of it, then face_next twice.  Otherwise a side takes
    one ``argsort`` (:func:`_grouping`).
    """
    m2 = 2 * g.m
    lone = np.frombuffer(g.lone_walk_vertex, dtype=np.int32)
    face_of_walk = np.frombuffer(g.face_of_walk, dtype=np.int32)
    verts = np.empty(m2 + len(lone), dtype=np.int32)
    verts[:m2] = np.frombuffer(g.ends, dtype=np.int32)
    verts[m2:] = lone
    heads = np.empty_like(verts)
    _of_twin(g.ends, heads[:m2])
    heads[m2:] = lone
    faces = np.empty_like(verts)  # the walk of each entry, then its face
    faces[:m2] = np.frombuffer(g.walk_of_dart, dtype=np.int32)
    faces[m2:] = np.arange(g.dart_walk_count, len(face_of_walk), dtype=np.int32)
    if not np.array_equal(face_of_walk, np.arange(len(face_of_walk))):
        faces = face_of_walk[faces]
    if g._slot_darts is None:
        vf_indptr, by_vert = _grouping(verts, g.n)
    else:
        vf_indptr, by_vert = g._slot_darts
        if len(lone):  # a lone vertex's empty row gets its host-face entry
            lone_entries = np.arange(m2, len(verts), dtype=np.int32)
            by_vert = np.insert(by_vert, vf_indptr[lone], lone_entries)
            size = np.diff(vf_indptr)
            size[lone] = 1
            vf_indptr = np.zeros_like(vf_indptr)
            np.cumsum(size, out=vf_indptr[1:])
    if g.triangulated:  # no lone vertex, one walk per face
        fv_indptr = np.arange(0, m2 + 1, 3, dtype=np.int32)
        rot_next = np.frombuffer(g.rot_next, dtype=np.int32)
        first = np.empty(g.face_count, dtype=np.int32)
        first[faces] = np.arange(m2, dtype=np.int32)  # a dart of each face, whichever lands
        second = rot_next[first ^ 1]
        by_face = np.stack([first, second, rot_next[second ^ 1]], axis=1).ravel()
    else:
        fv_indptr, by_face = _grouping(faces, g.face_count)
    view = (vf_indptr, faces[by_vert], heads[by_vert], fv_indptr, verts[by_face])
    for part in view:
        part.flags.writeable = False
    return view


def _cached_incidence(g: PlaneGraph) -> tuple[np.ndarray, ...]:
    """g's :func:`_incidence` view, built on the first call for g."""
    if g._incidence is None:
        g._incidence = _incidence(g)
        g._slot_darts = None  # the view holds their order now
    return g._incidence


_PYTHON_FRONTIER = 40
"""A BFS level whose frontier is smaller than this expands in plain Python.

Larger frontiers take one numpy round (:func:`_csr_gather` and
:func:`_distinct`).  Measured per level, the least of five batches of 40
levels per size, each level from k consecutive vertex or face ids of a
random triangulation (n = 2^15) and of lowerbound-H (4, 6001), on a 2-vCPU
VM (Python 3.11.7, numpy 2.4.6): a numpy round cost 32-66 us up to k = 64,
a Python level 0.2-0.35 us per incidence it reads.  Python was faster in
all four directions (vertex to face and back, on both graphs) at k <= 32,
numpy in all four at k >= 64; at k = 40 Python won three of four and lost
the fourth by 18%.
"""


_SCAN_LEVEL = 16
"""A numpy level whose candidates number more than 1/_SCAN_LEVEL of the ids
it steps to reads its new frontier off a scan of dist, not :func:`_distinct`.

The scan is one sequential pass over dist, at most _SCAN_LEVEL steps per
candidate, so the search stays linear.  Interleaved in one process, on a
random triangulation's hop BFS on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6),
it took 2.3 against 2.7 ms at n = 2^15 and 22 against 32 ms at 2^18.
"""


def _bfs_levels(steps: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], source: int) -> None:
    """Breadth-first search from source, filling the distance arrays of steps.

    Each step is (indptr, nbrs, dist): row x of the CSR lists the ids that
    one level steps to from x, and dist, indexed by those ids, holds -1
    where unreached.  Level k takes step (k - 1) mod len(steps), so the
    first step leads out of the source, whose own distance the caller set.
    The callers search on int32 distances, which halve the bytes of the
    random reads of dist against int64, and widen the result at the end.

    A frontier below ``_PYTHON_FRONTIER`` expands in plain Python through
    memoryviews of the CSR and of dist, so a deep graph with narrow levels
    does not pay numpy's fixed cost per call on each of them (the per-level
    switch of Beamer, Asanovic and Patterson, "Direction-optimizing
    breadth-first search", SC 2012, applied to that cost); a larger one
    takes one :func:`_csr_gather` round, deduplicated by :func:`_distinct`
    or, when it is wide, by a scan of dist (``_SCAN_LEVEL``).  Every way
    assigns the same distances.
    """
    small_steps = [[memoryview(a) for a in step] for step in steps]
    slot = np.empty(max(len(dist) for _, _, dist in steps), dtype=np.int64)
    front = [source]
    level = 0
    while len(front):
        side = level % len(steps)
        level += 1
        if len(front) < _PYTHON_FRONTIER:
            indptr, nbrs, nbr_dist = small_steps[side]
            reached = []
            for x in front:
                for y in nbrs[indptr[x] : indptr[x + 1]]:
                    if nbr_dist[y] < 0:
                        nbr_dist[y] = level
                        reached.append(y)
            front = reached
        else:
            indptr, nbrs, nbr_dist = steps[side]
            cand = _csr_gather(indptr, nbrs, np.asarray(front))
            cand = cand[nbr_dist[cand] < 0]
            if cand.size * _SCAN_LEVEL > len(nbr_dist):
                nbr_dist[cand] = level
                front = np.flatnonzero(nbr_dist == level)
            else:
                front = _distinct(cand, slot)
                nbr_dist[front] = level


def radial_bfs(
    g: PlaneGraph,
    source_vertex: Optional[int] = None,
    source_face: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(vertex_dist, face_dist), int64: BFS over the vertex/face incidence
    structure from one source.

    Every dart links its origin to its face, and every isolated vertex links
    to its host face.  Distances alternate parity: from a vertex source,
    vertices sit at even distance (layer = dist / 2); from a face source, at
    odd distance (peel = (dist + 1) / 2).  Works for disconnected graphs too
    (the incidence graph of a spherical embedding is always connected);
    raises if some vertex or face is left unreached, which indicates a
    corrupt face grouping.

    Levels alternate between the vertex-to-face and the face-to-vertex CSR
    of g's cached view, in the level loop :func:`_bfs_levels`.
    """
    if (source_vertex is None) == (source_face is None):
        raise ValueError("exactly one of source_vertex / source_face required")

    vdist = np.full(g.n, -1, dtype=np.int32)
    fdist = np.full(g.face_count, -1, dtype=np.int32)
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

    vf_indptr, vf_faces, _, fv_indptr, fv_verts = _cached_incidence(g)
    to_faces = (vf_indptr, vf_faces, fdist)
    to_verts = (fv_indptr, fv_verts, vdist)
    _bfs_levels((to_faces, to_verts) if kind == "vertex" else (to_verts, to_faces), src)

    if (vdist < 0).any():
        raise GraphFormatError("radial BFS did not reach every vertex")
    if (fdist < 0).any():
        raise GraphFormatError("radial BFS did not reach every face")
    return vdist.astype(np.int64), fdist.astype(np.int64)


def vertex_bfs(g: PlaneGraph, source: int) -> np.ndarray:
    """Hop distances from source along g's edges, int64, -1 where unreachable.

    The contract of its reference ``tests/helpers.bfs_distances``, computed
    by :func:`_bfs_levels` over the vertex-to-neighbour CSR of g's cached
    view (``vf_indptr``, ``vf_heads``), so the search shares its level loop
    and its view with :func:`radial_bfs`.
    """
    if not (0 <= source < g.n):
        raise ValueError("source vertex out of range")
    vf_indptr, _, vf_heads, _, _ = _cached_incidence(g)
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    _bfs_levels(((vf_indptr, vf_heads, dist),), source)
    return dist.astype(np.int64)


_BIT_BLOCK = 1024
"""Sources per block of :func:`_bit_bfs`, a multiple of 64.

Peak memory is O((rows + entries) * _BIT_BLOCK / 8) bytes, whatever the
number of sources.  Measured as the least of three runs (one from n = 2000
up) of both callers, all faces and all vertices, at widths 64 to 4096 on a
2-vCPU VM (Python 3.11.7, numpy 2.4.6), on random triangulations of n =
300, 2000 and 8192, lowerbound-H (4, 51) and (4, 601), prism k = 14 and
nested (6, 41).  No width was fastest everywhere.  1024 was fastest on
n = 2000 (72 ms for 3996 faces, 19 ms for all eccentricities) and within
1.15-1.35x of the fastest on lowerbound-H (4, 601) and the prism; n =
8192 preferred 256 (1.9 s against 2.8 s for all faces), where a block's
gathered rows stay in cache.  Below a few ms the widths differed by
noise.  At 1024 the oracle's graphs up to 1024 faces or vertices take
one block.
"""


def _source_flags(words: np.ndarray, count: int) -> np.ndarray:
    """Bit j of a row of uint64 words (word j // 64, bit j % 64), for j < count, as bools."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[:count].view(bool)


def _bit_bfs(steps: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from every row of one side at once, one bit per source.

    Each step is (indptr, nbrs): row y of the CSR lists the ids on the
    previous level's side that reach y, and level k takes step
    (k - 1) mod len(steps), as in :func:`_bfs_levels`.  The sources are the
    rows of the side the last step leads into (with one step, its own).
    Every row must be non-empty, as in g's incidence view: a vertex has a
    dart or is lone, a face has a walk.

    Returns (last, full): last[j] is the last level at which source j
    newly reached a row of step 0's side (0 if it never did), and
    full[i, j] whether source j reached every row of step i's side.

    The multi-source BFS of Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal", PVLDB 8(4), 2014: sources go in blocks
    of ``_BIT_BLOCK``, a row holds one uint64 word per 64 sources of the
    block, and a level is one ``np.bitwise_or.reduceat`` of the frontier's
    rows over the step's CSR, masked by the bits not yet seen.
    """
    steps = [(indptr[:-1], nbrs.astype(np.intp)) for indptr, nbrs in steps]
    sides = [len(starts) for starts, _ in steps]
    total = sides[-1]
    last = np.zeros(total, dtype=np.int64)
    full = np.zeros((len(steps), total), dtype=bool)
    for first in range(0, total, _BIT_BLOCK):
        count = min(_BIT_BLOCK, total - first)
        j = np.arange(count)
        front = np.zeros((total, -(-count // 64)), dtype=np.uint64)
        front[first + j, j >> 6] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
        unseen = [np.full((rows, front.shape[1]), ~np.uint64(0)) for rows in sides]
        unseen[-1] ^= front
        level = 0
        while front.any():
            side = level % len(steps)
            level += 1
            starts, nbrs = steps[side]
            front = np.bitwise_or.reduceat(front.take(nbrs, axis=0), starts, axis=0)
            front &= unseen[side]
            unseen[side] ^= front
            if side == 0:
                hit = _source_flags(np.bitwise_or.reduce(front, axis=0), count)
                last[first : first + count][hit] = level
        for i, bits in enumerate(unseen):
            full[i, first : first + count] = ~_source_flags(np.bitwise_or.reduce(bits, axis=0), count)
    return last, full


# ---------------------------------------------------------------------------
# Connecting a disconnected embedding
# ---------------------------------------------------------------------------


def connect_components(g: PlaneGraph) -> PlaneGraph:
    """Add edges inside shared faces until the graph is connected.

    Every face's boundary walks get chained to the face's smallest walk (one
    new edge per extra walk, anchored at each walk's first vertex), which
    adds no cycles and therefore leaves every fence of the original graph
    intact.  A walk whose component is already joined gets no edge.

    Corner rule: the edge leaves the base vertex at its first occurrence on
    its current walk, traced from that walk's smallest dart, and enters the
    other walk at the corner before its first dart.  Dart walks come before
    lone walks, so a lone base vertex shares its face with lone vertices
    only; two lone vertices get (base, other).  The result is connected, so
    face f is walk f, as in every connected graph.

    That corner needs no trace.  The base vertex is the walk's first
    vertex, so its first occurrence is the smallest dart ``at`` itself, and
    ``at`` stays the smallest: the darts of the joined walks exceed it
    (walks are numbered by their smallest dart), and new darts exceed every
    old one.  A join with new edge e makes the walk ..., 2e, ..., 2e + 1,
    at, so the corner is (the dart before ``at``, at), where that dart is
    the last join's 2e + 1, else the walk's last dart.  All edges are
    spliced into one builder, so the cost is linear.

    A union-find over vertices decides which walks to join.  It starts with
    every vertex pointing at the smallest vertex of its component
    (:func:`_label_components`), which points at itself, so each component
    starts as one root.
    """
    if g.connected:
        return g
    b = _Builder.from_graph(g)
    flat, indptr, nd = g.walk_flat, g.walk_indptr, g.dart_walk_count
    pairs = np.frombuffer(g.ends, dtype=np.int32)
    parent = _label_components(g.n, pairs[0::2], pairs[1::2]).tolist()

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def first_vertex(w: int) -> int:  # of walk w, read off its first dart
        return g.origin(flat[indptr[w]]) if w < nd else g.lone_walk_vertex[w - nd]

    for walks in _face_rows(g):
        base = first_vertex(walks[0])
        at = prev = -1  # the base vertex's corner, once it has a dart
        if walks[0] < nd:
            at, prev = flat[indptr[walks[0]]], flat[indptr[walks[0] + 1] - 1]
        for w in walks[1:]:
            other = first_vertex(w)
            cb, co = find(base), find(other)
            if cb == co:
                continue
            parent[co] = cb
            if at < 0:  # two lone vertices: the walk 2e, 2e + 1
                e = b.add_isolated_pair(base, other)
                at = 2 * e
            elif w < nd:
                e = b.add_chord(prev, at, flat[indptr[w + 1] - 1], flat[indptr[w]])
            else:
                e = b.add_edge_at_corner_to_isolated(prev, at, other)
            prev = 2 * e + 1
    if len(b.ends) // 2 - g.m != g.component_count - 1:
        raise GraphFormatError("face structure did not span all components")
    return _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=g.meta)


# ---------------------------------------------------------------------------
# Triangulation preserving the embedding
# ---------------------------------------------------------------------------


def triangulate_preserving_embedding(g: PlaneGraph) -> PlaneGraph:
    """Add chords until every face is a triangle, keeping the graph simple.

    Works face by face on the traced boundary walks: repeatedly cut an ear
    (walk positions p, p+2) whose endpoints are distinct and non-adjacent;
    when no ear qualifies, fall back to any valid chord between two walk
    corners.  Repeated boundary vertices (cutvertices) disappear on the way,
    so no separate biconnectivity pass is needed.
    """
    if not g.connected:
        raise ValueError("triangulation requires a connected graph")
    if not g.simple:
        raise ValueError("triangulation requires a simple graph")
    if g.n < 3:
        raise ValueError("triangulation requires at least 3 vertices")

    b = _Builder.from_graph(g)
    ends = g.ends
    adj = {(u, v) if u < v else (v, u) for u, v in zip(ends[0::2], ends[1::2])}

    pending: list[list[int]] = [g.walk(w) for w in range(g.dart_walk_count)]
    while pending:
        walk = pending.pop()
        t = len(walk)
        if t == 3:
            continue
        if t == 2:
            raise RuntimeError("cannot triangulate a bridge face of length 2")
        if t < 3:
            raise InvariantError(f"triangulation met a face walk of {t} dart(s)")
        verts = [b.origin(d) for d in walk]
        cut = None
        for p in range(t):
            q = (p + 2) % t
            a, c = verts[p], verts[q]
            if a == c:
                continue
            key = (a, c) if a < c else (c, a)
            if key not in adj:
                if q < p:  # ear wraps the list end; rotate so it doesn't
                    walk = walk[p:] + walk[:p]
                    verts = verts[p:] + verts[:p]
                    p, q = 0, 2
                cut = (p, q, key)
                break
        if cut is None:
            for p in range(t):
                for q in range(p + 2, t):
                    if p == 0 and q == t - 1:
                        continue  # cyclically adjacent corners
                    a, c = verts[p], verts[q]
                    if a == c:
                        continue
                    key = (a, c) if a < c else (c, a)
                    if key not in adj:
                        cut = (p, q, key)
                        break
                if cut:
                    break
        if cut is None:
            raise RuntimeError(
                "face admits no chord; cannot triangulate while staying simple"
            )
        p, q, key = cut
        e = b.add_chord(walk[p - 1], walk[p], walk[q - 1], walk[q])
        adj.add(key)
        # dart 2e runs verts[p] -> verts[q]; q >= p + 2, so both sides
        # keep at least three darts, and the side with 2e is cut next
        pending.append([2 * e + 1] + walk[p:q])
        pending.append([2 * e] + walk[q:] + walk[:p])

    out = _finish_graph(b.n, b.ends, b.rot_next, b.rot_first, meta=g.meta)
    if not (out.simple and out.triangulated and out.m == 3 * out.n - 6):
        raise InvariantError("triangulation postcondition failed")
    return out
