"""Shared exception types."""


class TropcayError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSubdivisionError(TropcayError):
    """A weight vector induced a subdivision that is not a triangulation."""

    def __init__(self, cell, message=None):
        self.cell = tuple(cell)
        super().__init__(message or f"non-simplex cell {self.cell} in induced subdivision")


class NonUnimodularError(TropcayError):
    """A triangulation cell has normalized volume greater than one."""

    def __init__(self, cell, volume):
        self.cell = tuple(cell)
        self.volume = volume
        super().__init__(f"cell {self.cell} has normalized volume {volume}")


class InputError(TropcayError, ValueError):
    """An input document or command-line value is malformed."""


class DegenerateConfigurationError(InputError):
    """Point configuration is too small or has no affine extent."""


class SupportError(InputError):
    """A valued polynomial does not have full monomial support."""


class CheckpointMismatchError(TropcayError):
    """Checkpoint does not belong to the requested enumeration run."""


class GraphDataError(TropcayError):
    """A dual graph violated a structural assumption (loops, high degree)."""


class GroupBoundError(TropcayError):
    """Symmetry group expansion exceeded ``triangulation.GROUP_BOUND`` elements."""
