"""Engine configuration + error model.

Mirrors the reference's ``Config`` / ``Interaction`` / ``Error``
(/root/reference/src/structs.rs:9-79): one knob (``max_distance``), three join
predicates, four validation error conditions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Interaction(enum.Enum):
    """Join predicate selector (/root/reference/src/structs.rs:24-29).

    Semantics (/root/reference/src/index.rs:497-534):
      INTERSECTS -> emit iff small.Intersects(big)
      CONTAINS   -> emit iff small.Contains(big)
      WITHIN     -> emit iff big.Contains(small)
    """

    INTERSECTS = "intersects"
    CONTAINS = "contains"
    WITHIN = "within"


class SpatialJoinError(Exception):
    """Base for the four validation errors (/root/reference/src/structs.rs:9-22)."""


class BadCoordinateValue(SpatialJoinError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"geometry at index {index} has a non-finite coordinate")


class BadMaxDistance(SpatialJoinError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"max_distance must be finite and >= 0, got {value}")


class LineStringTooSmall(SpatialJoinError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"linestring at index {index} has fewer than 2 points")


class PolygonExteriorTooSmall(SpatialJoinError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"polygon at index {index} has an exterior with fewer than 3 points")


@dataclass(frozen=True)
class Config:
    """Single engine knob, as in the reference (/root/reference/src/structs.rs:31-79).

    ``max_distance`` dilates the indexed (small) side's bboxes at index build
    so proximity queries reuse plain bbox-overlap candidate generation
    (/root/reference/src/rtrees.rs:159-166).
    """

    max_distance: float = 0.0

    def __post_init__(self):
        v = self.max_distance
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
            raise BadMaxDistance(v)

    # Reference entry-point parity (/root/reference/src/structs.rs:57-79):
    # Config::new().max_distance(d).serial(small) / .parallel(small).
    # On Ray both build the same broadcast index, and Ray schedules the
    # probe tasks either way.

    def with_max_distance(self, v: float) -> "Config":
        return Config(max_distance=v)

    def serial(self, small, **kwargs):
        from .join.broadcast import SpatialIndex

        return SpatialIndex(small, self, **kwargs)

    def parallel(self, small, **kwargs):
        from .join.broadcast import SpatialIndex

        return SpatialIndex(small, self, **kwargs)
