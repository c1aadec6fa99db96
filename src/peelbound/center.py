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

from .embed import InvariantError, PlaneGraph
from .peels import Augmentation, TreeOfPeels, augment, build_tree_of_peels, choose_root, compute_layers

__all__ = [
    "CenterCertificate",
    "GTooBigError",
    "SeparatorInfo",
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
    if not interior:
        return None
    gstar = min(tree.weight[x] for x in interior)
    g = min(gstar, math.isqrt(max(n - 2, 0)) // 2)
    return max(g, 1)


# ---------------------------------------------------------------------------
# Separator and spanning-tree center
# ---------------------------------------------------------------------------


@dataclass
class SeparatorInfo:
    node: int
    weight: int
    above: int
    subtree_weight: int


def tree_separator(tree: TreeOfPeels) -> SeparatorInfo:
    """Node whose removal leaves only components of weight ≤ n/2.

    Descend from the root into the (unique) child whose subtree is heavier
    than n/2; the first node without such a child is the separator.
    """
    total = tree.subtree_weight[0]
    cur = 0
    while True:
        heavy = -1
        for c in tree.children[cur]:
            if 2 * tree.subtree_weight[c] > total:
                heavy = c
                break
        if heavy < 0:
            return SeparatorInfo(
                node=cur,
                weight=tree.weight[cur],
                above=tree.above[cur],
                subtree_weight=tree.subtree_weight[cur],
            )
        cur = heavy


def spanning_tree_center(h: PlaneGraph, vertices: Sequence[int]) -> int:
    """Vertex of eccentricity ≤ ⌊p/2⌋ in the connected induced subgraph.

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


def _subtree_flags(tree: TreeOfPeels, top: int) -> list[bool]:
    """Membership in the subtree of ``top`` (one ascending pass; parents
    always carry smaller ids than their children)."""
    k = tree.node_count
    flags = [False] * k
    flags[top] = True
    for x in range(top + 1, k):
        p = tree.parent[x]
        if p >= 0 and flags[p]:
            flags[x] = True
    return flags


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
        if tree.interior_nodes():
            raise ValueError("sentinel g only valid for trees without interior nodes")
        return CenterCertificate(
            center=aug.root, bound=1, g=None, case="tree-depth-2", n=n, root=aug.root
        )

    if n < 3:
        raise ValueError("center selection needs n >= 3")

    if g < 1:
        raise ValueError("g must be >= 1")
    if g >= 3:
        for x in tree.interior_nodes():
            if tree.weight[x] < g:
                raise GTooBigError(
                    f"interior node {x} stores only {tree.weight[x]} < g={g} vertices"
                )

    delta = compute_delta(n, g)

    if g == 1:
        s = spanning_tree_center(aug.H, [aug.root] + [v for v in range(n) if v != aug.root])
        return CenterCertificate(
            center=s, bound=n // 2, g=1, case="g≤2", n=n, delta=delta, root=aug.root
        )

    sep = tree_separator(tree)
    S = sep.node
    a_S = sep.above
    size_S = sep.weight
    theta = compute_theta(n, a_S, g)

    # census of deep nodes (descendants of S at tree-distance ≥ θ)
    in_sub = _subtree_flags(tree, S)
    deep_nodes = [
        x
        for x in range(tree.node_count)
        if in_sub[x] and tree.depth[x] - tree.depth[S] >= theta
    ]
    deep_vertices = sum(tree.weight[x] for x in deep_nodes)

    D = S
    took_deep_branch = False
    # The walk towards a deep node needs one to exist; with a huge separator
    # the census threshold 4g-|V(S)|+1 is vacuous, so require that too.
    if size_S >= 4 * g - 2 and deep_nodes and deep_vertices >= 4 * g - size_S + 1:
        z_node = deep_nodes[0]  # smallest id
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

    s_D = spanning_tree_center(aug.H, tree.stored[D])
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


def _tree_bfs(tree: TreeOfPeels, start: int) -> tuple[list[int], list[int]]:
    k = tree.node_count
    dist = [-1] * k
    par = [-1] * k
    dist[start] = 0
    queue = [start]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        nbrs = list(tree.children[x])
        if tree.parent[x] >= 0:
            nbrs.append(tree.parent[x])
        for y in nbrs:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                par[y] = x
                queue.append(y)
    return dist, par


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

    dist0, _ = _tree_bfs(tree, 0)
    u = dist0.index(max(dist0))
    dist_u, par_u = _tree_bfs(tree, u)
    diam = max(dist_u)
    v = dist_u.index(diam)

    if diam <= 1:
        return CenterCertificate(
            center=aug.root, bound=1, g=None, case="diameter", n=n, root=aug.root
        )

    path = [v]
    while path[-1] != u:
        path.append(par_u[path[-1]])
    path.reverse()  # u .. v
    half = -(-diam // 2)
    S = path[half]
    s = tree.stored[S][0]
    bound = half + 2 * ceil_sqrt(n - 4) - 2
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
    "girth" (the main selection) or "diameter".  The certificate carries the
    chosen outerface (first face at the center in rotation order) and its
    peel bound (eccentricity bound + 1).  Its ``stages`` record the seconds
    of ``root``, ``layers``, ``augment``, ``tree`` and ``center``, in that
    order (see ``Stages``).
    """
    if not graph.connected:
        raise ValueError("pipeline requires a connected graph")
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

