"""Connectivity certificates for k-uniform hypergraphs.

The geometry connectivity beta(G) of a k-uniform hypergraph is the maximum
number of linearly independent nonnegative null eigenvectors of its
Laplacian tensor. This package computes it, together with its Z-eigenvector
variant beta_Z(G) and, for regular hypergraphs, the spectral-radius variant
beta_rho(G) of the adjacency tensor, and certifies numerically that all of
them equal the number of connected components.
"""

from .errors import (
    DimensionError,
    DuplicateEdge,
    EdgeError,
    GeoconnError,
    InvalidSubset,
    IoError,
    LabelOutOfRange,
    MalformedEdge,
    NoConvergence,
    NotIrreducible,
    NotNonnegative,
    NotRegular,
    ParseError,
    WrongUniformity,
    ZeroVector,
)
from .hypergraph import (
    ComponentDecomposition,
    Hypergraph,
    connected_components,
    construct,
    degrees,
    induced,
    is_regular,
)
from .spectral import (
    DEFAULT_TOL,
    MAX_ITER,
    PERRON_TOL,
    ConnectivityReport,
    EigenpairCertificate,
    PerronResult,
    geometry_connectivity,
    perron,
    rho_connectivity,
    verify_h_eigenpair,
    verify_z_eigenpair,
    z_geometry_connectivity,
)
from .tensor import (
    adjacency,
    apply,
    is_weakly_irreducible,
    laplacian,
    shifted_laplacian,
    support_digraph,
)

__all__ = [
    "ComponentDecomposition",
    "ConnectivityReport",
    "DEFAULT_TOL",
    "DimensionError",
    "DuplicateEdge",
    "EdgeError",
    "EigenpairCertificate",
    "GeoconnError",
    "Hypergraph",
    "InvalidSubset",
    "IoError",
    "LabelOutOfRange",
    "MAX_ITER",
    "MalformedEdge",
    "NoConvergence",
    "NotIrreducible",
    "NotNonnegative",
    "NotRegular",
    "PERRON_TOL",
    "ParseError",
    "PerronResult",
    "WrongUniformity",
    "ZeroVector",
    "adjacency",
    "apply",
    "connected_components",
    "construct",
    "degrees",
    "geometry_connectivity",
    "induced",
    "is_regular",
    "is_weakly_irreducible",
    "laplacian",
    "perron",
    "rho_connectivity",
    "shifted_laplacian",
    "support_digraph",
    "verify_h_eigenpair",
    "verify_z_eigenpair",
    "z_geometry_connectivity",
]

__version__ = "0.1.0"
