"""Peel decompositions of plane graphs with certified outerface bounds."""

from .center import (
    CenterCertificate,
    GTooBigError,
    certify,
    find_center,
    find_center_diameter,
    spanning_tree_center,
)
from .embed import (
    GraphFormatError,
    InvariantError,
    PlaneGraph,
    build_plane_graph,
    connect_components,
    radial_bfs,
    triangulate_preserving_embedding,
    vertex_bfs,
)
from .gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from .graphio import dump_plane_graph, dumps_plane_graph, load_plane_graph, loads_plane_graph
from .peels import (
    Augmentation,
    PeelContext,
    TreeOfPeels,
    augment,
    build_tree_of_peels,
    choose_root,
    compute_layers,
    face_peel_counts,
    peel_count_for_outerface,
)

__version__ = "0.1.0"
