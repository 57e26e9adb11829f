"""Conflict-free batched CPVF motion: tree-level coloring + array ladder.

The CPVF coverage stage decides, for every connected sensor, a force
direction and the largest step size that keeps the links to its tree
parent and children alive (Section 4.2).  The scalar scheme walks the
sensors one by one; the paper's semantics, however, are *simultaneous* —
all sensors move at once under the parent/child range invariant.  This
module makes that simultaneity an execution strategy:

* :func:`tree_level_colors` assigns every tree member the parity of its
  BFS depth.  Parent-child edges only ever cross adjacent levels, so two
  sensors of the same color share no required link — a whole color class
  can evaluate its step ladders against frozen link positions and commit
  in one batch without ever invalidating another class member's decision.
* :class:`TreeSchedule` packs the coloring together with the flat
  (CSR-style) required-link structure derived from the tree, cached per
  ``ConnectivityTree.version`` so an unchanged tree costs nothing.
* :func:`batched_ladder_steps` evaluates the connectivity-preserving
  step ladder of :func:`repro.core.connectivity.max_valid_step_points`
  for an entire color class in numpy — no per-sensor ``Vec2`` or list
  allocation — returning, sensor for sensor, the same ladder decision the
  scalar helper makes on the same (frozen) link positions.

:class:`repro.core.cpvf.CPVFScheme` threads these through its
``mode="batched"`` execution path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import EPS
from ..network import BASE_STATION_ID
from .connectivity import STEP_FRACTIONS

__all__ = ["tree_level_colors", "TreeSchedule", "batched_ladder_steps"]


def tree_level_colors(tree, num_sensors: int) -> np.ndarray:
    """BFS-depth parity of every sensor in the connectivity tree.

    Returns an ``(num_sensors,)`` int8 array: ``0`` for sensors at even
    depth below the base station, ``1`` for odd depth, ``-1`` for sensors
    outside the tree (or in a detached subtree not reachable from the
    root).  Every tree edge joins a node at depth ``d`` to one at
    ``d + 1``, so no two same-colored sensors are ever parent and child —
    the conflict-freedom invariant the batched scheduler relies on
    (pinned by ``tests/core/test_batch_ladder.py``).
    """
    colors = np.full(num_sensors, -1, dtype=np.int8)
    children = tree.children
    seen = {BASE_STATION_ID}
    frontier = [BASE_STATION_ID]
    depth = 0
    while frontier:
        depth += 1
        parity = depth % 2
        next_frontier = []
        for node in frontier:
            for child in children.get(node, ()):
                if child in seen:
                    continue
                seen.add(child)
                if 0 <= child < num_sensors:
                    colors[child] = parity
                next_frontier.append(child)
        frontier = next_frontier
    return colors


@dataclass
class TreeSchedule:
    """The batched scheduler's view of one connectivity-tree snapshot.

    ``colors`` holds the per-sensor BFS parity; the required links of
    sensor ``i`` (its parent, then its children — the exact set
    ``CPVFScheme._link_node_ids`` returns) are the node ids
    ``link_nodes[link_offsets[i]:link_offsets[i + 1]]``, where
    :data:`~repro.network.BASE_STATION_ID` stands for the base station.
    Built once per ``ConnectivityTree.version``.
    """

    version: int
    colors: np.ndarray
    link_offsets: np.ndarray
    link_nodes: np.ndarray

    @staticmethod
    def build(tree, num_sensors: int) -> "TreeSchedule":
        """Derive the coloring and flat link structure from a tree."""
        colors = tree_level_colors(tree, num_sensors)
        members = [
            sid for sid in tree.parent if 0 <= sid < num_sensors
        ]
        if not members:
            return TreeSchedule(
                version=tree.version,
                colors=colors,
                link_offsets=np.zeros(num_sensors + 1, dtype=np.intp),
                link_nodes=np.empty(0, dtype=np.int64),
            )
        ids = np.fromiter(members, dtype=np.int64, count=len(members))
        parents = np.fromiter(
            (tree.parent[sid] for sid in members),
            dtype=np.int64,
            count=len(members),
        )
        # Every tree edge yields two required links: the child preserves
        # the parent, and (when the parent is a sensor) the parent
        # preserves the child.
        child_edges = parents >= 0
        owners = np.concatenate([ids, parents[child_edges]])
        others = np.concatenate([parents, ids[child_edges]])
        counts = np.bincount(owners, minlength=num_sensors)
        order = np.argsort(owners, kind="stable")
        offsets = np.zeros(num_sensors + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return TreeSchedule(
            version=tree.version,
            colors=colors,
            link_offsets=offsets,
            link_nodes=others[order],
        )

    def links_for(self, idx: np.ndarray):
        """Flat link slice for a batch of sensor indices.

        Returns ``(pair_owner, nodes)``: ``nodes`` concatenates the link
        node ids of every sensor in ``idx`` and ``pair_owner[k]`` is the
        position within ``idx`` that owns ``nodes[k]``.
        """
        starts = self.link_offsets[idx]
        ends = self.link_offsets[idx + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.int64),
            )
        pair_owner = np.repeat(np.arange(len(idx), dtype=np.intp), lengths)
        pos = (
            np.arange(total, dtype=np.intp)
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
            + np.repeat(starts, lengths)
        )
        return pair_owner, self.link_nodes[pos]


def batched_ladder_steps(
    px: np.ndarray,
    py: np.ndarray,
    ux: np.ndarray,
    uy: np.ndarray,
    max_step: float,
    communication_range: float,
    pair_owner: np.ndarray,
    link_x: np.ndarray,
    link_y: np.ndarray,
    fractions: Sequence[float] = STEP_FRACTIONS,
) -> np.ndarray:
    """Step ladder of an entire color class in one numpy pass.

    ``px, py`` are the class members' positions, ``ux, uy`` their force
    directions (normalised here, exactly like the scalar ladder), and
    ``link_x[k], link_y[k]`` the frozen position of the ``k``-th required
    link, owned by member ``pair_owner[k]``.
    Returns the per-member step size: the largest candidate fraction of
    ``max_step`` whose endpoint keeps every required link within
    ``communication_range`` (with the ladder's usual ``1e-9`` slack), or
    ``0`` when a link is already out of range / no candidate is valid —
    exactly the decision :func:`~repro.core.connectivity.
    max_valid_step_points` makes per sensor on the same inputs.

    A sensor with no recorded links (not yet in the tree) is
    unconstrained and receives the full first fraction, like the scalar
    ladder.
    """
    count = len(px)
    steps = np.zeros(count, dtype=float)
    if count == 0 or max_step <= 0.0:
        return steps
    norm = np.hypot(ux, uy)
    safe_norm = np.where(norm > EPS, norm, 1.0)
    unit_x = ux / safe_norm
    unit_y = uy / safe_norm
    limit = communication_range + 1e-9
    owner_px = px[pair_owner]
    owner_py = py[pair_owner]
    # Condition 1: a required link already out of range invalidates every
    # candidate step, including zero.
    start_bad = np.hypot(owner_px - link_x, owner_py - link_y) > limit
    feasible = (norm > EPS) & (
        np.bincount(pair_owner, weights=start_bad, minlength=count) == 0
    )
    owner_ux = unit_x[pair_owner]
    owner_uy = unit_y[pair_owner]
    chosen = np.zeros(count, dtype=bool)
    for fraction in fractions:
        step = fraction * max_step
        if step <= 0.0:
            break
        if chosen.all():
            break
        qx = owner_px + owner_ux * step
        qy = owner_py + owner_uy * step
        bad = np.hypot(qx - link_x, qy - link_y) > limit
        valid = np.bincount(pair_owner, weights=bad, minlength=count) == 0
        newly = valid & ~chosen
        steps[newly] = step
        chosen |= newly
    return np.where(feasible, steps, 0.0)
