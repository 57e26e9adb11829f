"""Incrementally maintained directed neighbour-pair store.

The batched CPVF kernel asks for every directed pair within
``rc + extra_radius`` once per period.  Rebuilding that set from scratch
costs O(candidate pairs) — ~10^7 pairs per period at clustered density
and n = 10^4 — even though positions drift by at most ``max_step`` per
period, so the pair set barely changes.  :class:`PairStore` makes the
per-period cost proportional to *change* instead:

* The store holds the exact directed pair set at an **inflated** radius
  (``store.limit``), generated against a frozen copy of the positions —
  the *anchors* ``(ax, ay)``.
* A request at ``limit_req`` is answered by recomputing the live squared
  distances of the stored pairs (one gather + multiply over O(stored
  pairs)) and masking to ``d2 <= limit_req**2``.  This is **exact** —
  bit-identical to a fresh :meth:`SpatialIndex.neighbor_pairs_directed`
  build — whenever every sensor's drift from its anchor satisfies
  ``delta_i <= (store.limit - limit_req) / 2``: a live pair at
  ``limit_req`` then has anchor distance at most
  ``limit_req + delta_i + delta_j <= store.limit`` by the triangle
  inequality, so it cannot be missing from the store.
* Sensors that exceed the drift budget are **repaired**: their anchors
  snap to the current positions, every stored pair touching them is
  dropped, and their neighbourhoods are re-probed against the updated
  anchors.  The repaired store is identical (same arrays) to a store
  freshly built over the updated anchors, because the probe applies the
  same squared-distance predicate to the same float values.

The drift check uses the *measured* per-sensor displacement, not a
``max_step`` assumption, so teleports (tests calling ``move_to``
directly, fault-injection joins) are handled by the same invariant.

Bulk generation and repair probes both run on the numpy
:class:`~repro.spatial.SpatialIndex`; acceptance is always the exact
``dx*dx + dy*dy <= limit*limit`` predicate, so cell size never shows in
the result.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .index import SpatialIndex

__all__ = ["PairStore", "directed_pairs_sorted"]

#: Relative + absolute inflation of the probe's candidate radius so float
#: rounding at the boundary can never drop a pair the exact
#: squared-distance predicate accepts.
_QUERY_SLACK = 1e-9

#: Safety margin subtracted from the per-sensor drift budget; the slack
#: is O(metres), so this absorbs any ulp-level disagreement between the
#: measured drift and the triangle-inequality bound without ever
#: classifying a genuinely safe sensor as a mover.
_DRIFT_MARGIN = 1e-7


def directed_pairs_sorted(
    x: np.ndarray, y: np.ndarray, limit: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All directed pairs ``(i, j)``, ``i != j``, with ``d2 <= limit**2``.

    The output of ``SpatialIndex(...).build(...).neighbor_pairs_directed``
    over half-radius cells, as ``intp`` index arrays: lexicographically
    sorted by ``(row, col)`` with the exact float64 squared distances.
    """
    if len(x) < 2 or limit < 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0, dtype=float)
    idx = SpatialIndex(max(limit, 1e-9) * 1.001 / 2.0).build(
        np.column_stack([x, y])
    )
    rows, cols, d2 = idx.neighbor_pairs_directed(limit)
    return (
        rows.astype(np.intp, copy=False),
        cols.astype(np.intp, copy=False),
        d2,
    )


class PairStore:
    """Exact directed pair set at an inflated radius, anchored in time.

    ``rows``/``cols`` hold every directed pair whose **anchor** squared
    distance is ``<= limit**2``, lexicographically sorted; ``counts`` is
    the per-row pair count (``rows`` is sorted, so
    ``np.repeat(x, counts)`` reproduces ``x[rows]`` exactly — the serve
    path uses this to skip one large gather).
    """

    __slots__ = ("limit", "ax", "ay", "rows", "cols", "counts")

    def __init__(self, ax, ay, limit, rows, cols):
        self.limit = float(limit)
        self.ax = ax
        self.ay = ay
        self.rows = rows
        self.cols = cols
        self.counts = np.bincount(rows, minlength=len(ax))

    @property
    def n(self) -> int:
        """Number of anchored sensors."""
        return len(self.ax)

    @property
    def size(self) -> int:
        """Number of stored directed pairs."""
        return len(self.rows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, x: np.ndarray, y: np.ndarray, limit: float) -> "PairStore":
        """Generate a fresh store anchored at the current positions."""
        rows, cols, _ = directed_pairs_sorted(x, y, limit)
        return cls(x.copy(), y.copy(), limit, rows, cols)

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def drift(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sensor displacement from the anchors (measured, exact)."""
        return np.hypot(x - self.ax, y - self.ay)

    def movers(self, x: np.ndarray, y: np.ndarray, limit_req: float):
        """Indices whose drift exceeds the budget for ``limit_req``.

        The budget is half the radius slack: a pair of sensors each
        within ``(limit - limit_req) / 2`` of their anchors cannot bring
        a live pair at ``limit_req`` outside the anchored ``limit``.
        Returns ``None`` when the store cannot serve ``limit_req`` at
        all (request beyond the inflated radius).
        """
        if limit_req > self.limit or len(x) != self.n:
            return None
        budget = 0.5 * (self.limit - limit_req) - _DRIFT_MARGIN
        return np.flatnonzero(self.drift(x, y) > budget)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, x: np.ndarray, y: np.ndarray, limit_req: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact live pair set at ``limit_req``.

        Valid only while every sensor is within its drift budget (the
        caller checks :meth:`movers` first); under that invariant the
        result is bit-identical to a fresh
        ``neighbor_pairs_directed(limit_req)`` over the live positions —
        same pairs, same order, same float64 ``d2``.
        """
        xr = np.repeat(x, self.counts)
        yr = np.repeat(y, self.counts)
        dx = xr - x[self.cols]
        dy = yr - y[self.cols]
        d2 = dx * dx + dy * dy
        keep = d2 <= limit_req * limit_req
        return self.rows[keep], self.cols[keep], d2[keep]

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self, x: np.ndarray, y: np.ndarray, movers: np.ndarray) -> int:
        """Re-anchor ``movers`` and patch their pairs in place.

        Drops every stored pair touching a mover, snaps the movers'
        anchors to their current positions, probes each mover's
        neighbourhood at the store radius against the updated anchors,
        and merges the probed pairs back in sorted order.  After the
        call the store equals :meth:`build` over the updated anchors.
        Returns the number of pairs dropped + inserted (repair volume).
        """
        n = self.n
        self.ax[movers] = x[movers]
        self.ay[movers] = y[movers]
        mover_mask = np.zeros(n, dtype=bool)
        mover_mask[movers] = True
        keep = ~(mover_mask[self.rows] | mover_mask[self.cols])
        dropped = len(self.rows) - int(keep.sum())
        kept_rows = self.rows[keep]
        kept_cols = self.cols[keep]

        probe_rows, probe_cols = self._probe(movers)
        # Both directions of every probed pair, deduplicated through the
        # packed int64 key (a mover-mover pair is found from both ends).
        ins_a = np.concatenate([probe_rows, probe_cols])
        ins_b = np.concatenate([probe_cols, probe_rows])
        keys = np.unique(ins_a.astype(np.int64) * n + ins_b.astype(np.int64))
        ins_rows = (keys // n).astype(np.intp)
        ins_cols = (keys % n).astype(np.intp)

        kept_keys = kept_rows.astype(np.int64) * n + kept_cols.astype(np.int64)
        pos = np.searchsorted(kept_keys, keys)
        self.rows = np.insert(kept_rows, pos, ins_rows)
        self.cols = np.insert(kept_cols, pos, ins_cols)
        self.counts = np.bincount(self.rows, minlength=n)
        return dropped + len(keys)

    def _probe(self, movers: np.ndarray):
        """Directed pairs ``(mover, j)`` within the store radius.

        Candidates come from an inflated-radius cell-index query over the
        **anchor** positions; acceptance is the exact anchored
        squared-distance predicate, so the probe can never disagree with
        a full rebuild.
        """
        limit = self.limit
        reach = limit * (1.0 + _QUERY_SLACK) + _QUERY_SLACK
        idx = SpatialIndex(max(limit, 1e-9) * 1.001).build(
            np.column_stack([self.ax, self.ay])
        )
        chunks = []
        owners = []
        for m in movers.tolist():
            hits = idx.query_radius((self.ax[m], self.ay[m]), reach)
            chunks.append(hits)
            owners.append(np.full(len(hits), m, dtype=np.intp))
        if chunks:
            cand = np.concatenate(chunks)
            owner = np.concatenate(owners)
        else:
            cand = np.empty(0, dtype=np.intp)
            owner = np.empty(0, dtype=np.intp)
        dx = self.ax[owner] - self.ax[cand]
        dy = self.ay[owner] - self.ay[cand]
        ok = (dx * dx + dy * dy <= limit * limit) & (owner != cand)
        return owner[ok], cand[ok]
