"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`FlowCubeError` so callers can
catch the whole family with a single ``except`` clause while still letting
programming errors (``TypeError``, ``ValueError`` raised by stdlib code)
propagate untouched.
"""

from __future__ import annotations

__all__ = [
    "FlowCubeError",
    "HierarchyError",
    "UnknownConceptError",
    "LevelError",
    "PathDatabaseError",
    "EncodingError",
    "MiningError",
    "CubeError",
    "QueryError",
    "GenerationError",
    "CleaningError",
    "StoreError",
    "MissingFileError",
    "ServeError",
]


class FlowCubeError(Exception):
    """Base class for every error raised by the repro library."""


class HierarchyError(FlowCubeError):
    """A concept hierarchy is malformed or used inconsistently."""


class UnknownConceptError(HierarchyError):
    """A concept name was looked up that the hierarchy does not contain."""

    def __init__(self, concept: str, hierarchy_name: str = "") -> None:
        self.concept = concept
        self.hierarchy_name = hierarchy_name
        where = f" in hierarchy {hierarchy_name!r}" if hierarchy_name else ""
        super().__init__(f"unknown concept {concept!r}{where}")


class LevelError(HierarchyError):
    """An abstraction level is out of range for a hierarchy or lattice."""


class PathDatabaseError(FlowCubeError):
    """A path database record is malformed (schema/path mismatch)."""


class EncodingError(FlowCubeError):
    """Item or stage encoding failed (value missing from a hierarchy, etc.)."""


class MiningError(FlowCubeError):
    """A frequent-pattern mining run was configured or used incorrectly."""


class CubeError(FlowCubeError):
    """FlowCube construction or lookup failed."""


class QueryError(FlowCubeError):
    """An OLAP query over a flowcube was invalid."""


class GenerationError(FlowCubeError):
    """Synthetic data generation was configured inconsistently."""


class CleaningError(FlowCubeError):
    """Raw RFID readings could not be cleaned into well-formed paths."""


class StoreError(FlowCubeError):
    """A persistent path/cube store is missing, corrupt, or misused."""


class MissingFileError(StoreError):
    """A file the store's metadata names is not there.

    To a reader that holds a superseded ``cube.json`` it is a file a
    writer swept after committing a newer one: the cue to reload.
    """


class ServeError(FlowCubeError):
    """An HTTP serving request was malformed (bad cut, body, or route)."""
