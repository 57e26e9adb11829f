"""Coverage grids.

The coverage metric in the paper is "the fraction of area covered by at
least one sensor".  We compute it on a regular grid of sample points laid
over the field, excluding points inside obstacles, exactly as a raster
approximation of the covered area.  The grid is also reused by the random
obstacle generator to verify free-space connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .vec import Vec2

__all__ = ["CoverageGrid"]

#: Most disks one :meth:`CoverageGrid.rasterize_disks` chunk holds.
DISK_CHUNK = 256
#: Most padded ``disks x block`` cells one pass holds; a chunk of large
#: disks holds fewer than :data:`DISK_CHUNK` of them.
CHUNK_CELLS = 1 << 16


@dataclass
class CoverageGrid:
    """A regular grid of sample points over an axis-aligned rectangle.

    Parameters
    ----------
    xmin, ymin, xmax, ymax:
        Bounds of the sampled rectangle.
    resolution:
        Spacing between neighbouring sample points, in metres.  The paper's
        field is 1000 x 1000 m with sensing ranges of 30-60 m, so a 10 m
        resolution (the default used by the experiments) keeps the coverage
        estimate within about one percentage point of the exact value.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    resolution: float

    def __post_init__(self) -> None:
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("grid rectangle must have positive extent")
        if self.resolution <= 0:
            raise ValueError("grid resolution must be positive")
        xs = np.arange(self.xmin + self.resolution / 2, self.xmax, self.resolution)
        ys = np.arange(self.ymin + self.resolution / 2, self.ymax, self.resolution)
        self._xs = xs
        self._ys = ys
        # Block offsets 0, 1, 2, ... shared by every rasterisation call.
        self._offsets = np.arange(max(len(xs), len(ys)))
        # Meshgrid of sample point coordinates, flattened to 1-D arrays.
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self._px = gx.ravel()
        self._py = gy.ravel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Number of sample columns and rows ``(nx, ny)``."""
        return (len(self._xs), len(self._ys))

    @property
    def num_points(self) -> int:
        """Total number of sample points."""
        return len(self._px)

    def points(self) -> Iterator[Vec2]:
        """Iterate over all sample points as :class:`Vec2`."""
        for x, y in zip(self._px, self._py):
            yield Vec2(float(x), float(y))

    def point_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flattened x and y coordinate arrays of all sample points."""
        return self._px, self._py

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def mask_from_predicate(self, predicate: Callable[[Vec2], bool]) -> np.ndarray:
        """Boolean mask of sample points for which ``predicate`` is true.

        Intended for low-frequency use (obstacle masks are computed once per
        field and cached by the caller); per-sensor coverage uses the
        vectorised :meth:`coverage_mask` instead.
        """
        return np.fromiter(
            (predicate(p) for p in self.points()), dtype=bool, count=self.num_points
        )

    def rasterize_disks(
        self, centers, radius: float
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Every (disk, cell) hit of the disks at ``(n, 2)`` ``centers``.

        Yields ``(cells, hit)`` per chunk of consecutive disks, in input
        order.  ``hit`` is the chunk's ``(disks, width, height)`` mask over
        its disks' blocks, padded to the largest block of the call;
        ``cells`` lists the flat index (``i * ny + j`` of the
        ``'ij'``-shaped grid) of its true entries, disk by disk, so the
        first ``np.count_nonzero(hit[:k])`` cells belong to the chunk's
        first ``k`` disks.  A cell inside ``m`` disks appears ``m`` times.

        A cell ``(i, j)`` is hit by the disk at ``(cx, cy) = centers[k]``
        when it lies inside the disk's per-axis ``searchsorted`` bounds
        (``side="left"`` on ``c - radius``, ``side="right"`` on
        ``c + radius``) and ``dx*dx + dy*dy <= radius*radius`` with
        ``dx = xs[i] - cx`` and ``dy = ys[j] - cy``.  This is the single
        rasterisation predicate every coverage path shares: the float
        operations on each real cell are the ones a per-disk scan makes,
        and padding is masked by each disk's own bounds, so callers are
        bit-identical to that scan.

        A chunk holds at most :data:`DISK_CHUNK` disks and at most
        :data:`CHUNK_CELLS` padded cells, unless one block alone is
        larger.  One empty chunk is yielded when no disk touches the grid.
        """
        centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        cx, cy = centers[:, 0], centers[:, 1]
        lo, hi = centers - radius, centers + radius
        xs, ys = self._xs, self._ys
        i0 = xs.searchsorted(lo[:, 0], side="left")
        wi = xs.searchsorted(hi[:, 0], side="right") - i0
        j0 = ys.searchsorted(lo[:, 1], side="left")
        wj = ys.searchsorted(hi[:, 1], side="right") - j0
        width, height = int(wi.max(initial=0)), int(wj.max(initial=0))
        if width <= 0 or height <= 0:
            yield np.empty(0, dtype=np.intp), np.zeros((len(cx), 0, 0), dtype=bool)
            return
        per_chunk = max(1, min(DISK_CHUNK, CHUNK_CELLS // (width * height)))
        cols, rows = self._offsets[:width], self._offsets[:height]
        ny = len(ys)
        r_sq = radius * radius
        for start in range(0, len(cx), per_chunk):
            chunk = slice(start, start + per_chunk)
            ii = i0[chunk, None] + cols
            jj = j0[chunk, None] + rows
            dx = xs.take(ii, mode="clip") - cx[chunk, None]
            dy = ys.take(jj, mode="clip") - cy[chunk, None]
            # Padding past a disk's own bounds: NaN fails every
            # comparison, so those cells are never hit, whatever radius.
            dx[cols >= wi[chunk, None]] = np.nan
            dy[rows >= wj[chunk, None]] = np.nan
            dx *= dx
            dy *= dy
            hit = dx[:, :, None] + dy[:, None, :] <= r_sq
            ii *= ny
            yield (ii[:, :, None] + jj[:, None, :])[hit], hit

    def coverage_mask(
        self, centers: Sequence[Tuple[float, float]], radius: float
    ) -> np.ndarray:
        """Mask of sample points within ``radius`` of any of ``centers``.

        One batched rasterisation pass, so the cost is proportional to the
        covered area rather than ``len(centers) * num_points``.
        """
        covered = np.zeros(self.num_points, dtype=bool)
        if len(centers) == 0 or radius <= 0:
            return covered
        for cells, _ in self.rasterize_disks(centers, radius):
            covered[cells] = True
        return covered

    def multiplicity(self, centers, radius: float) -> np.ndarray:
        """Number of the disks at ``(n, 2)`` ``centers`` containing each point.

        Flat, like :meth:`coverage_mask`; one batched rasterisation pass,
        accumulated chunk by chunk so no full hit list is held.
        """
        counts = np.zeros(self.num_points, dtype=np.int32)
        for cells, _ in self.rasterize_disks(centers, radius):
            np.add.at(counts, cells, np.int32(1))
        return counts

    def fraction(self, mask: np.ndarray, domain: np.ndarray | None = None) -> float:
        """Fraction of (domain) points set in ``mask``.

        ``domain`` restricts the denominator; in the experiments it is the
        set of points not inside an obstacle.
        """
        if domain is None:
            if self.num_points == 0:
                return 0.0
            return float(np.count_nonzero(mask)) / float(self.num_points)
        denom = int(np.count_nonzero(domain))
        if denom == 0:
            return 0.0
        return float(np.count_nonzero(mask & domain)) / float(denom)
