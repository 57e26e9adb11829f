"""Coverage metrics.

The paper's coverage metric is "the fraction of area that is covered by at
least one sensor", measured over the non-obstacle part of the field.  The
heavy lifting is done by :class:`repro.geometry.CoverageGrid`; this module
adds the convenience entry points the experiments use, plus per-sensor
redundancy statistics used by ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..field import Field
from ..geometry import Vec2

__all__ = ["CoverageReport", "coverage_fraction", "coverage_report"]


@dataclass(frozen=True)
class CoverageReport:
    """Detailed coverage statistics of a sensor layout."""

    #: Fraction of the non-obstacle field area covered by >= 1 sensor.
    covered_fraction: float
    #: Fraction covered by >= 2 sensors (redundant coverage).
    doubly_covered_fraction: float
    #: Mean number of sensors covering a covered point.
    mean_multiplicity: float
    #: Number of sample points used.
    sample_points: int


def coverage_fraction(
    field: Field,
    positions: Sequence[Vec2],
    sensing_range: float,
    resolution: float = 10.0,
) -> float:
    """Fraction of the non-obstacle field area covered by at least one sensor."""
    return field.coverage_fraction(positions, sensing_range, resolution)


def coverage_report(
    field: Field,
    positions: Sequence[Vec2],
    sensing_range: float,
    resolution: float = 10.0,
) -> CoverageReport:
    """Full coverage statistics, including redundancy.

    Unlike :func:`coverage_fraction`, this computes the number of sensors
    covering each sample point, so it is a little more expensive; it is used
    by examples and ablation benches rather than by the main experiments.
    """
    grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
    free = ~obstacle_mask
    multiplicity = grid.multiplicity(
        [p.as_tuple() for p in positions], sensing_range
    )

    free_count = int(free.sum())
    if free_count == 0:
        return CoverageReport(0.0, 0.0, 0.0, 0)
    covered = (multiplicity >= 1) & free
    doubly = (multiplicity >= 2) & free
    covered_count = int(covered.sum())
    mean_multiplicity = (
        float(multiplicity[covered].mean()) if covered_count else 0.0
    )
    return CoverageReport(
        covered_fraction=covered_count / free_count,
        doubly_covered_fraction=int(doubly.sum()) / free_count,
        mean_multiplicity=mean_multiplicity,
        sample_points=free_count,
    )
