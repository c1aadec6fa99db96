"""Layer decomposition, face augmentation, and the tree of peels.

Given a connected plane graph and a root vertex, vertices split into layers:
layer 0 is the root, layer i+1 is whatever sits on the merged outer region
once layers 0..i are deleted.  Layers come out of a single BFS over the
vertex/face incidence structure, or over the edges of a triangulation.  The
augmentation adds, inside every face, edges from boundary occurrences of
non-minimum-layer vertices to one minimum-layer vertex of that face (the
hub), after which every non-root vertex has an edge pointing one layer
down.  The two occurrences next to the hub on the walk get no edge: layers
on a face differ by at most 1, so their walk edge to the hub already
descends, and a chord there would only double it.  A triangulation gets no
edge at all; otherwise all chords are spliced in one numpy pass.  The tree
of peels has one node per connected component of "layers >= i", storing
the component's layer-i vertices (its outer boundary); those are the
components of the same-layer edges, labelled by min-label hooking and
pointer jumping, and each node hangs below the node its first descending
dart points into.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embed import (
    GraphFormatError,
    InvariantError,
    PlaneGraph,
    _bit_bfs,
    _cached_incidence,
    _finish_graph,
    _int_array,
    _label_components,
    _of_twin,
    radial_bfs,
    vertex_bfs,
)

__all__ = [
    "Augmentation",
    "PeelContext",
    "TreeOfPeels",
    "augment",
    "build_tree_of_peels",
    "choose_root",
    "compute_layers",
    "face_peel_counts",
    "peel_count_for_outerface",
]


# ---------------------------------------------------------------------------
# Root selection
# ---------------------------------------------------------------------------


def choose_root(g: PlaneGraph) -> int:
    """Lowest-index vertex that is not a cutvertex (exists in any connected graph).

    Face rule: in a connected plane graph, v is a cutvertex iff two of its
    non-loop darts lie on one face of G minus its loops.  Deleting loop e
    merges the two faces beside it, so the faces of G minus its loops are the
    walks of G with ``walk_of_dart[2e]`` and ``walk_of_dart[2e + 1]`` joined
    for every loop e, labelled by :func:`embed._label_components` over the
    walks.  Testing v = 0, 1, ... then costs O(deg v) each, and O(#walks +
    the degrees of the tested vertices) in all.
    """
    if not g.connected:
        raise ValueError("root selection requires a connected graph")
    if g.n <= 2:
        return 0
    ends, walk_of = g.ends, g.walk_of_dart
    pairs = np.frombuffer(ends, dtype=np.int32).reshape(-1, 2)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    loop_walks = np.frombuffer(walk_of, dtype=np.int32).reshape(-1, 2)[loops]
    face = _label_components(g.dart_walk_count, loop_walks[:, 0], loop_walks[:, 1])
    for v in range(g.n):
        faces = [face[walk_of[d]] for d in g.rotation_darts(v) if ends[d] != ends[d ^ 1]]
        if len(set(faces)) == len(faces):
            return v
    raise InvariantError("every connected graph has a non-cutvertex")


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


@dataclass
class PeelContext:
    """A connected plane graph with its root and per-vertex layer numbers."""

    G: PlaneGraph
    root: int
    layer: np.ndarray  # int64, layer[root] == 0

    @property
    def depth(self) -> int:
        return int(self.layer.max()) if self.G.n else 0


def compute_layers(g: PlaneGraph, root: int) -> PeelContext:
    """Layer numbers from one vertex/face BFS (layer = half the BFS distance).

    On a triangulation a face's corners are pairwise adjacent, so two
    vertices share a face exactly when they are adjacent: the radial
    distance is twice the hop distance, and one :func:`embed.vertex_bfs`,
    which steps through no face, gives the layers.  Raises if a vertex is
    left unreached.  The root should not be a cutvertex, so that layer 1
    forms a single component; the layer numbers themselves do not depend on
    that.
    """
    if not g.connected:
        raise ValueError("layer computation requires a connected graph")
    if not (0 <= root < g.n):
        raise ValueError("root out of range")
    if not g.triangulated:
        vertex_dist, _ = radial_bfs(g, source_vertex=root)
        return PeelContext(G=g, root=root, layer=vertex_dist // 2)
    layer = vertex_bfs(g, root)
    if (layer < 0).any():
        raise GraphFormatError("layer BFS did not reach every vertex")
    return PeelContext(G=g, root=root, layer=layer)


def peel_count_for_outerface(g: PlaneGraph, face: int) -> int:
    """Number of peels when ``face`` is the outerface.

    Every call on one graph reads that graph's one incidence view, which
    the first radial BFS on it builds.
    """
    if not g.connected:
        raise ValueError("peel counting requires a connected graph")
    vertex_dist, _ = radial_bfs(g, source_face=face)
    return int((vertex_dist.max() + 1) // 2) if g.n else 0


def face_peel_counts(g: PlaneGraph) -> list[int]:
    """Peel count from every face: ``peel_count_for_outerface(g, f)`` for each f.

    One bit-parallel search from all faces at once (``embed._bit_bfs``)
    over g's incidence view: the last level at which face f reaches a new
    vertex is its largest vertex distance d, and the count is (d + 1) / 2.
    Raises as the per-face calls would, for the first face that raises.
    """
    if not g.connected:
        raise ValueError("peel counting requires a connected graph")
    vf_indptr, vf_faces, _, fv_indptr, fv_verts = _cached_incidence(g)
    last, full = _bit_bfs(((vf_indptr, vf_faces), (fv_indptr, fv_verts)))
    missed = ~full.all(axis=0)
    if missed.any():
        f = int(missed.argmax())
        raise GraphFormatError(f"radial BFS did not reach every {'face' if full[0, f] else 'vertex'}")
    return ((last + 1) // 2).tolist()


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@dataclass
class Augmentation:
    """Original graph plus down-edges so every non-root vertex descends.

    Edges with id >= ``original_edge_count`` were added by the augmentation;
    when it adds none, ``H`` is ``G``.
    ``out_dart[v]`` is the smallest dart at v whose head lies one layer down
    (-1 for the root); following out_darts walks layer by layer to the root.
    """

    G: PlaneGraph
    H: PlaneGraph
    root: int
    layer: np.ndarray
    original_edge_count: int
    out_dart: np.ndarray


def augment(ctx: PeelContext) -> Augmentation:
    """Add in-face edges to a minimum-layer vertex of every face.

    Inside face F with boundary walk d_0..d_{t-1}, the hub w is the first walk
    vertex whose layer is minimal on F.  Counting walk positions k from the
    hub, every occurrence at k = 2 .. t-2 whose layer exceeds the minimum gets
    one new edge to w, spliced into its own corner and stacked at w's corner
    (the last added edge sits first after the walk dart entering w).  The
    corners at k = 1 and t-1 already share a walk edge with w, and layers on
    one face differ by at most 1, so those vertices descend through that walk
    edge, whose id is smaller than any added one (``out_dart`` is as if the
    chord were there); a chord at k = 1 or t-1 would only double it.  When
    nothing is added (every triangulation), ``H`` is ``G`` itself.
    """
    g = ctx.G
    # every walk of a triangulation has 3 darts, so k = 2 .. t-2 is empty
    spliced = None if g.triangulated else _splice_hub_chords(g, ctx.layer)
    if spliced is None:
        h = g
    else:  # no splice moves a vertex's first dart, so H shares G's rot_first
        h = _finish_graph(g.n, *spliced, g.rot_first, meta=g.meta)
        if not h.connected:
            raise InvariantError("augmentation must stay connected")

    orig = np.frombuffer(h.ends, dtype=np.int32)
    m2 = len(orig)
    lay_np = ctx.layer
    descend = lay_np[orig] == lay_np[_of_twin(h.ends)] + 1
    out_dart = np.full(g.n, m2, dtype=np.int64)
    cand = np.nonzero(descend)[0]
    np.minimum.at(out_dart, orig[cand], cand)
    missing = np.nonzero(out_dart == m2)[0]
    out_dart[out_dart == m2] = -1
    if missing.tolist() != [ctx.root]:
        raise InvariantError(
            f"vertices without a descending edge after augmentation: {missing[:10]}"
        )

    return Augmentation(
        G=g,
        H=h,
        root=ctx.root,
        layer=ctx.layer,
        original_edge_count=g.m,
        out_dart=out_dart,
    )


def _splice_hub_chords(g: PlaneGraph, layer: np.ndarray) -> Optional[tuple[array, array]]:
    """(ends, rot_next) of g plus the hub chords of :func:`augment`, or None
    if there are none.

    Walks are read hub first, so chords come out ordered by (walk, k) and get
    consecutive edge ids.  Every chord corner owns a distinct ``rot_next``
    slot.  At a hub corner the chords' twins chain in reverse id order: each
    chord cuts the face in two, and only the side holding the hub corner
    keeps the occurrences still to come.  Every chord dart goes in after a
    dart already at its vertex, so g's ``rot_first`` is the result's too.
    """
    flat = np.frombuffer(g.walk_flat, dtype=np.int32)
    if not flat.size:  # an edgeless graph has no walks to reduce over
        return None
    indptr = np.frombuffer(g.walk_indptr, dtype=np.int32)
    starts, size = indptr[:-1], np.diff(indptr)
    vert = np.frombuffer(g.ends, dtype=np.int32)[flat]
    lay = layer.astype(np.int32)[vert]

    walk = np.repeat(np.arange(len(starts), dtype=np.int32), size)
    lmin = np.minimum.reduceat(lay, starts)
    pos = np.arange(flat.size, dtype=np.int32) - starts[walk]
    hub = np.minimum.reduceat(np.where(lay == lmin[walk], pos, size[walk]), starts)
    # entry k of a walk in hub-first order is walk position (hub + k) mod t
    src = starts[walk] + (hub[walk] + pos) % size[walk]
    keep = (pos >= 2) & (pos <= size[walk] - 2) & (lay[src] != lmin[walk])
    sel = np.flatnonzero(keep).astype(np.int32)
    if not sel.size:
        return None

    rot = flat[src]  # walk darts, hub first
    cw = walk[sel]
    chord_u = vert[src[sel]]
    chord_w = vert[starts + hub][cw]
    hub_dart = rot[starts]
    anchor = rot[starts + size - 1] ^ 1  # slot just before the hub corner
    del vert, lay, walk, pos, src, keep

    m = g.m
    e = np.arange(m, m + sel.size, dtype=np.int32)
    rn = np.empty(2 * (m + sel.size), dtype=np.int32)
    rn[: 2 * m] = np.frombuffer(g.rot_next, dtype=np.int32)
    rn[rot[sel - 1] ^ 1] = 2 * e
    rn[2 * e] = rot[sel]
    first = np.r_[True, cw[1:] != cw[:-1]]
    last = np.r_[first[1:], True]
    rn[2 * e + 1] = np.where(first, hub_dart[cw], 2 * e - 1)
    rn[anchor[cw[last]]] = 2 * e[last] + 1

    ends = array("i", g.ends)
    ends.frombytes(np.stack((chord_u, chord_w), axis=1).tobytes())
    return ends, _int_array(rn)


# ---------------------------------------------------------------------------
# Tree of peels
# ---------------------------------------------------------------------------


@dataclass
class TreeOfPeels:
    """Components of "layers >= i", each storing its outer-boundary vertices.

    Node 0 is the root (stores only the graph root).  The other node ids
    increase with depth and, within a depth, with the node's smallest
    descending dart id, so parents precede children.  Everything is flat
    int32: node x stores ``stored_flat[stored_indptr[x]:stored_indptr[x + 1]]``,
    its lead vertex (that dart's origin) first and the rest ascending.
    ``weight`` (stored count), ``above`` (vertices at strict ancestors) and
    ``subtree_weight`` are derived from those arrays on construction.
    """

    parent: array  # -1 at node 0
    depth: array
    node_of: array  # per-vertex node id
    stored_indptr: array
    stored_flat: array
    weight: np.ndarray = field(init=False)
    above: np.ndarray = field(init=False)
    subtree_weight: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.weight = np.diff(np.frombuffer(self.stored_indptr, dtype=np.int32))
        path, sub = _tree_sums(np.frombuffer(self.parent, dtype=np.int32), self.weight)
        self.above = (path - self.weight).astype(np.int32)
        self.subtree_weight = sub.astype(np.int32)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def stored(self, x: int) -> list[int]:
        """Node x's vertices, lead vertex first."""
        return self.stored_flat[self.stored_indptr[x] : self.stored_indptr[x + 1]].tolist()

    def interior_nodes(self) -> np.ndarray:
        """Ids of the nodes with a parent and a child, ascending."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_child = np.zeros(len(parent), dtype=bool)
        has_child[parent[1:]] = True
        has_child[0] = False
        return np.flatnonzero(has_child)


def _tree_sums(parent: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of ``values`` over every node's root path and over its subtree (int64).

    Both include the node itself; ``parent`` is -1 at node 0 only.  Pointer
    doubling (Wyllie, "The complexity of parallel computations", Cornell TR
    79-387, 1979): before round j, ``up[x]`` is x's ancestor 2^j levels up
    (node k, a sentinel of value 0, when there is none), ``path[x]`` sums x
    and its 2^j - 1 nearest ancestors, and ``sub[x]`` x's descendants fewer
    than 2^j levels down.  O(k log depth), with no step per level.
    """
    k = len(parent)
    up = np.append(parent, k)
    up[0] = k
    path = np.append(values, 0).astype(np.int64)
    sub = path.copy()
    while (up[:k] < k).any():
        sub += np.bincount(up[:k], weights=sub[:k], minlength=k + 1).astype(np.int64)
        path += path[up]
        up = up[up]
    return path[:k], sub[:k]


def build_tree_of_peels(aug: Augmentation) -> TreeOfPeels:
    """One node per component of H's same-layer edges (linear numpy passes).

    The layer-i vertices of a component of "layers >= i" lie on its one outer
    boundary walk, and every edge of that walk joins two layer-i vertices, so
    the stored sets are the components of the same-layer edges.  Those are
    G's own edges: every chord of the augmentation climbs exactly one layer.

    Node 0 holds the root.  Every other node is numbered by its first
    descending dart d0 in (origin layer, dart id) order; its depth is the
    layer of origin(d0), its parent the node of head(d0), and its stored
    list is origin(d0) followed by the node's other vertices in ascending
    order.  Raises :class:`InvariantError` (also under ``-O``) when a vertex
    gets no node, node 0 holds more than the root, a parent does not sit one
    depth up, or a descending dart ends outside its node's parent.
    """
    h = aug.H
    n = h.n
    lay = aug.layer.astype(np.int32)
    ends = np.frombuffer(h.ends, dtype=np.int32)
    lay_end = lay[ends]
    same = lay_end[0::2] == lay_end[1::2]
    lab = _label_components(n, ends[0::2][same], ends[1::2][same])
    dart = np.flatnonzero(lay_end == _of_twin(lay_end) + 1)  # the descending darts
    tail = ends[dart]
    tip = ends[dart ^ 1]
    del lay_end, same, dart

    # A label's darts all leave one layer, so its first in (origin layer,
    # dart id) order is its smallest; ``dart`` ascends, so positions do too.
    k = len(tail)
    first = np.full(n, k, dtype=np.int32)
    np.minimum.at(first, lab[tail], np.arange(k, dtype=np.int32))
    labels = np.flatnonzero(first < k)
    labels = labels[np.lexsort((first[labels], lay[labels]))]
    node_of_label = np.full(n, -1, dtype=np.int32)
    node_of_label[lab[aug.root]] = 0
    node_of_label[labels] = np.arange(1, len(labels) + 1, dtype=np.int32)
    node_of = node_of_label[lab]
    if (node_of < 0).any():
        raise InvariantError(
            f"vertices in no node of the tree of peels: {np.flatnonzero(node_of < 0)[:10]}"
        )
    if np.count_nonzero(node_of == 0) != 1:
        raise InvariantError("node 0 of the tree of peels must hold only the root")

    d0 = first[labels]
    lead = np.r_[aug.root, tail[d0]]
    parent = np.r_[-1, node_of[tip[d0]]]
    depth = np.r_[0, lay[lead[1:]]]
    if (depth[parent[1:]] != depth[1:] - 1).any():
        raise InvariantError("a tree node's parent does not sit one depth up")
    if (parent[node_of[tail]] != node_of[tip]).any():
        raise InvariantError("a descending dart ends outside its node's parent")

    # stable sort by node: origin(d0) of each node first, then the rest ascending
    rest = np.ones(n, dtype=bool)
    rest[lead] = False
    seq = np.r_[lead, np.flatnonzero(rest)]
    indptr = np.zeros(len(lead) + 1, dtype=np.int32)
    np.cumsum(np.bincount(node_of, minlength=len(lead)), out=indptr[1:])
    return TreeOfPeels(
        parent=_int_array(parent),
        depth=_int_array(depth),
        node_of=_int_array(node_of),
        stored_indptr=_int_array(indptr),
        stored_flat=_int_array(seq[np.argsort(node_of[seq], kind="stable")]),
    )
