"""Center selection over the tree of peels, with certified radius bounds.

The selection never measures distances in the full graph.  It finds a
weight-separator node S of the tree, optionally walks from S toward a deep
node to reach a small "switcher" node D, takes a near-central vertex of
H[V(D)] via a spanning tree, and climbs descending edges back into V(S).
The certified eccentricity bound is ⌊(n-2)/(2g)⌋ + 2g - 2 for g ≥ 3, two
more for g = 2, and ⌊n/2⌋ for g = 1, where g is at most the fence-girth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .embed import InvariantError, PlaneGraph
from .peels import (
    Augmentation,
    TreeOfPeels,
    _tree_sums,
    augment,
    build_tree_of_peels,
    choose_root,
    compute_layers,
)

__all__ = [
    "CenterCertificate",
    "GTooBigError",
    "Stages",
    "ceil_sqrt",
    "certify",
    "compute_delta",
    "compute_gstar",
    "compute_theta",
    "find_center",
    "find_center_diameter",
    "spanning_tree_center",
    "tree_separator",
]


class GTooBigError(ValueError):
    """The requested g exceeds what the tree of peels supports."""


def ceil_sqrt(x: int) -> int:
    """Exact ⌈√x⌉ for x ≥ 0 (integer arithmetic only)."""
    if x < 0:
        raise ValueError("negative argument")
    if x == 0:
        return 0
    return math.isqrt(x - 1) + 1


def compute_delta(n: int, g: int) -> int:
    """δ = ⌊(n-2)/(2g)⌋ + 1, the depth bound below the separator."""
    if n < 3 or g < 1:
        raise ValueError("need n >= 3 and g >= 1")
    return (n - 2) // (2 * g) + 1


def compute_theta(n: int, a_S: int, g: int) -> int:
    """θ = ⌈(n-a(S))/(2g)⌉ - 1, the depth threshold for deep nodes."""
    if n < 3 or g < 1 or not (0 <= a_S <= n):
        raise ValueError("need n >= 3, g >= 1 and 0 <= a_S <= n")
    return -(-(n - a_S) // (2 * g)) - 1


def compute_gstar(tree: TreeOfPeels, n: int) -> Optional[int]:
    """Effective parameter min{g*, ⌊√(n-2)/2⌋} with g* the smallest interior node.

    Returns None when the tree has no interior node: every vertex then sits
    at depth ≤ 1 and the decomposition is trivially 2-outerplanar.
    """
    interior = tree.interior_nodes()
    if not interior.size:
        return None
    gstar = int(tree.weight[interior].min())
    g = min(gstar, math.isqrt(max(n - 2, 0)) // 2)
    return max(g, 1)


# ---------------------------------------------------------------------------
# Separator and spanning-tree center
# ---------------------------------------------------------------------------


def tree_separator(tree: TreeOfPeels) -> int:
    """Node whose removal leaves only components of weight ≤ n/2.

    A node is heavy when its subtree weighs more than n/2.  Heavy nodes form
    a path down from the root (no node has two heavy children), and ids grow
    with depth, so the deepest heavy node, the separator, has the largest id.
    """
    sub = tree.subtree_weight
    return int(np.flatnonzero(sub > sub[0] // 2)[-1])  # 2·sub > n, without overflow


def spanning_tree_center(h: PlaneGraph, vertices: Sequence[int]) -> int:
    """Vertex of eccentricity ≤ ⌊p/2⌋ in the connected induced subgraph.

    BFS from the first listed vertex builds a spanning tree; its
    unit-weight centroid has the bound (every branch of the tree at the
    centroid holds at most half the vertices).  The BFS reads each vertex's
    darts in slot order off ``rot_next``.  Vertices that hold more than
    half the set in their subtree form a path down from the root, and the
    centroid is its last one, so it is the last such vertex in BFS order.
    """
    verts = list(vertices)
    p = len(verts)
    if p == 0:
        raise ValueError("empty vertex set")
    if p == 1:
        return verts[0]
    ends, rot_next, rot_first = h.ends, h.rot_next, h.rot_first
    unseen = bytearray(h.n)  # 1 on a vertex of the set not yet reached
    for v in verts:
        unseen[v] = 1
    unseen[verts[0]] = 0
    order = [verts[0]]
    up = [-1]  # up[i]: the position in order of order[i]'s parent
    for i, v in enumerate(order):  # order grows as the search reaches vertices
        first = d = rot_first[v]
        while d >= 0:
            w = ends[d ^ 1]  # the head of dart d
            if unseen[w]:
                unseen[w] = 0
                order.append(w)
                up.append(i)
            d = rot_next[d]
            if d == first:
                break
    if len(order) != p:
        raise ValueError("vertex set does not induce a connected subgraph")

    size = [1] * p
    for i in range(p - 1, 0, -1):  # a subtree's positions all follow its root's
        if 2 * size[i] > p:
            return order[i]
        size[up[i]] += size[i]
    return order[0]


# ---------------------------------------------------------------------------
# Center selection
# ---------------------------------------------------------------------------


class Stages(dict):
    """Seconds per stage, in the order the stages ran.

    ``lap(name)`` closes the stage that ran since the previous lap (or since
    the record was made).  This is the package's one stage clock: ``certify``,
    the CLI, the oracle report and the scripts all time through it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = now - self._last
        self._last = now


@dataclass
class CenterCertificate:
    """Chosen center with its certified eccentricity bound in H."""

    center: int
    bound: int
    g: Optional[int]
    case: str
    n: int
    delta: Optional[int] = None
    theta: Optional[int] = None
    a_S: Optional[int] = None
    size_S: Optional[int] = None
    separator: Optional[int] = None
    switcher: Optional[int] = None
    outerface: Optional[int] = None
    peel_bound: Optional[int] = None
    root: Optional[int] = None
    stages: dict = field(default_factory=dict, compare=False)  # not in to_dict()

    def to_dict(self) -> dict:
        def iv(x: Optional[int]) -> Optional[int]:
            return None if x is None else int(x)  # shed numpy scalars for JSON

        d = {
            "s": iv(self.center),
            "bound": iv(self.bound),
            "g": iv(self.g),
            "delta": iv(self.delta),
            "theta": iv(self.theta),
            "aS": iv(self.a_S),
            "sizeS": iv(self.size_S),
            "case": self.case,
        }
        if self.switcher is not None:
            d["D"] = iv(self.switcher)
        if self.outerface is not None:
            d["outerface"] = iv(self.outerface)
        return d


def _subtree_mask(tree: TreeOfPeels, top: int) -> np.ndarray:
    """Membership in the subtree of ``top``: the nodes with ``top`` on their root path."""
    mark = np.zeros(tree.node_count, dtype=np.int32)
    mark[top] = 1
    return _tree_sums(np.frombuffer(tree.parent, dtype=np.int32), mark)[0] > 0


def _climb_to_node(aug: Augmentation, tree: TreeOfPeels, v: int, target: int) -> int:
    node_of = tree.node_of
    while node_of[v] != target:
        d = int(aug.out_dart[v])
        if d < 0:
            raise InvariantError("climb passed the root without hitting the target")
        v = aug.H.head(d)
    return v


def find_center(
    aug: Augmentation, tree: TreeOfPeels, g: Optional[int]
) -> CenterCertificate:
    """Pick the center vertex and its bound for the given parameter g.

    g = None is the no-interior-node sentinel (depth ≤ 1: the root sees
    everything); it is the only choice for n ≤ 2.  For g ≥ 3 every interior node must store at least g
    vertices, else GTooBigError.
    """
    n = aug.G.n
    if g is None:
        if tree.interior_nodes().size:
            raise ValueError("sentinel g only valid for trees without interior nodes")
        return CenterCertificate(
            center=aug.root, bound=1, g=None, case="tree-depth-2", n=n, root=aug.root
        )

    if n < 3:
        raise ValueError("center selection needs n >= 3")

    if g < 1:
        raise ValueError("g must be >= 1")
    if g >= 3:
        interior = tree.interior_nodes()
        small = interior[tree.weight[interior] < g]
        if small.size:
            x = int(small[0])
            raise GTooBigError(
                f"interior node {x} stores only {tree.weight[x]} < g={g} vertices"
            )

    delta = compute_delta(n, g)

    if g == 1:
        s = spanning_tree_center(aug.H, [aug.root] + [v for v in range(n) if v != aug.root])
        return CenterCertificate(
            center=s, bound=n // 2, g=1, case="g≤2", n=n, delta=delta, root=aug.root
        )

    S = tree_separator(tree)
    a_S = int(tree.above[S])
    size_S = int(tree.weight[S])
    theta = compute_theta(n, a_S, g)

    # census of deep nodes (descendants of S at tree-distance ≥ θ)
    depth = np.frombuffer(tree.depth, dtype=np.int32)
    deep_nodes = np.flatnonzero(_subtree_mask(tree, S) & (depth - depth[S] >= theta))
    deep_vertices = int(tree.weight[deep_nodes].sum())

    D = S
    took_deep_branch = False
    # The walk towards a deep node needs one to exist; with a huge separator
    # the census threshold 4g-|V(S)|+1 is vacuous, so require that too.
    if size_S >= 4 * g - 2 and deep_nodes.size and deep_vertices >= 4 * g - size_S + 1:
        z_node = int(deep_nodes[0])  # smallest id
        path = [z_node]
        while path[-1] != S:
            path.append(tree.parent[path[-1]])
        path.reverse()
        for x in path:
            if tree.weight[x] <= 2 * g - 1:
                D = x
                took_deep_branch = True
                break
        if not took_deep_branch:
            raise InvariantError("no small ancestor found on the way to a deep node")

    s_D = spanning_tree_center(aug.H, tree.stored(D))
    s = _climb_to_node(aug, tree, s_D, S)

    if g == 2:
        case = "g≤2"
        bound = delta + 2 * g
    else:
        if a_S <= g * g:
            case = "smallAlpha"
        elif size_S <= 4 * g - 3:
            case = "smallS"
        elif took_deep_branch:
            case = "deep-with-D"
        else:
            case = "generic"
        bound = delta + 2 * g - 2

    return CenterCertificate(
        center=s,
        bound=bound,
        g=g,
        case=case,
        n=n,
        delta=delta,
        theta=theta,
        a_S=a_S,
        size_S=size_S,
        separator=S,
        switcher=D,
        root=aug.root,
    )


def _diameter_middle(tree: TreeOfPeels) -> tuple[int, int]:
    """(diam, S): the tree's diameter and the node ⌈diam/2⌉ steps from its end u.

    u, the deepest node of least id, ends a longest path.  A node's distance
    to u is depth[u] + depth - 2·depth[lca], where the lca is its deepest
    ancestor on u's root path.  Every node is at most depth[u] deep, so the
    u side of a longest path is at least half of it, and S is u's ancestor
    at depth depth[u] - ⌈diam/2⌉.
    """
    parent = np.frombuffer(tree.parent, dtype=np.int32)
    depth = np.frombuffer(tree.depth, dtype=np.int32)
    u = int(depth.argmax())
    mark = np.zeros(len(parent), dtype=np.int32)
    mark[u] = 1
    on_path = (_tree_sums(parent, mark)[1] > 0).astype(np.int32)  # ancestors of u
    lca_depth = _tree_sums(parent, on_path)[0] - 1
    dist = int(depth[u]) + depth - 2 * lca_depth
    diam = int(dist.max())
    half = -(-diam // 2)
    return diam, int(np.flatnonzero(on_path & (depth == depth[u] - half))[0])


def find_center_diameter(aug: Augmentation, tree: TreeOfPeels) -> CenterCertificate:
    """Center via the tree's diameter path: bound ⌈diam(T)/2⌉ + 2⌈√(n-4)⌉ - 2.

    Only for simple graphs with n ≥ 14 (the square-root term comes from the
    node-connection walk, which needs interior nodes of size ≥ 3).
    """
    n = aug.G.n
    if n < 14:
        raise ValueError("diameter-based selection needs n >= 14")
    if not aug.G.simple:
        raise ValueError("diameter-based selection needs a simple graph")

    diam, S = _diameter_middle(tree)
    if diam <= 1:
        return CenterCertificate(
            center=aug.root, bound=1, g=None, case="diameter", n=n, root=aug.root
        )

    s = tree.stored_flat[tree.stored_indptr[S]]  # the lead vertex
    bound = -(-diam // 2) + 2 * ceil_sqrt(n - 4) - 2
    return CenterCertificate(
        center=s,
        bound=bound,
        g=None,
        case="diameter",
        n=n,
        separator=S,
        root=aug.root,
    )


# ---------------------------------------------------------------------------
# End-to-end convenience
# ---------------------------------------------------------------------------


def certify(
    graph: PlaneGraph,
    g: Optional[int] = None,
    root: Optional[int] = None,
    method: str = "girth",
) -> CenterCertificate:
    """Run the full pipeline on a connected plane graph and pick an outerface.

    ``g`` defaults to the tree-derived effective parameter; ``method`` is
    "girth" (the main selection) or "diameter", which takes no ``g``.  The certificate carries the
    chosen outerface (first face at the center in rotation order) and its
    peel bound (eccentricity bound + 1).  Its ``stages`` record the seconds
    of ``root``, ``layers``, ``augment``, ``tree`` and ``center``, in that
    order (see ``Stages``).
    """
    if not graph.connected:
        raise ValueError("pipeline requires a connected graph")
    if method == "diameter" and g is not None:
        raise ValueError("g applies to the girth method only, not to method 'diameter'")
    stages = Stages()
    if root is None:
        root = choose_root(graph)
    stages.lap("root")
    ctx = compute_layers(graph, root)
    stages.lap("layers")
    aug = augment(ctx)
    stages.lap("augment")
    tree = build_tree_of_peels(aug)
    stages.lap("tree")
    if method == "diameter":
        cert = find_center_diameter(aug, tree)
    elif method == "girth":
        if g is None:
            g = compute_gstar(tree, graph.n)
        cert = find_center(aug, tree, g)
    else:
        raise ValueError(f"unknown method {method!r}")
    cert.outerface = graph.first_face_of_vertex(cert.center)
    cert.peel_bound = cert.bound + 1
    stages.lap("center")
    cert.stages = stages
    return cert

