"""Exception types raised across the library."""

from __future__ import annotations


class GeoconnError(Exception):
    """Base class for every error raised by geoconn."""


class EdgeError(GeoconnError):
    """Edge-list validation failure; remembers which edge offended."""

    def __init__(self, message: str, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


class MalformedEdge(EdgeError):
    """An edge contains a repeated vertex."""


class WrongUniformity(EdgeError):
    """An edge does not contain exactly k vertices."""


class LabelOutOfRange(EdgeError):
    """A vertex label falls outside 1..n."""


class DuplicateEdge(EdgeError):
    """Two edges are equal as sets."""


class InvalidSubset(GeoconnError):
    """A vertex subset is empty or contains out-of-range labels."""


class DimensionError(GeoconnError):
    """Vector or index-tuple length does not match the tensor."""


class NotNonnegative(GeoconnError):
    """A negative entry was found where a nonnegative tensor is required."""


class ZeroVector(GeoconnError):
    """The zero vector is not an eigenvector candidate."""


class NotIrreducible(GeoconnError):
    """The tensor's support digraph is not strongly connected."""


class NotRegular(GeoconnError):
    """The hypergraph is not regular."""


class NoConvergence(GeoconnError):
    """Power iteration hit the iteration cap or left the float range; carries
    the last eigenvalue bounds."""

    def __init__(self, message: str, lower: float | None = None,
                 upper: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


class ParseError(GeoconnError):
    """Input file violates the expected format; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class IoError(GeoconnError):
    """Reading or writing a file failed."""
