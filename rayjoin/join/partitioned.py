"""Partitioned spatial joins: the join, proximity map and kNN of
``SpatialIndex`` with whole-block probes, for two large sides.

The plan is the one plan of ``rayjoin.join.broadcast``: the small side is
cut into K STR x-slice shards by its rows and bytes, each shard of a
``Dataset`` small side is indexed in a task, and the big side streams past
the shards it meets.  Each function passes ``batch_size=None``, so the
probe decodes a whole block once, and keeps the small side's geometry table
only for ``with_geos``.  With K = 1 it is the broadcast probe.

The output row set is EXACTLY the broadcast path's (tested side by side).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..config import Config, Interaction
from .broadcast import SpatialIndex, _sample_extent


class GridSpec:
    """Skew-aware sampled grid: cell boundaries are *equi-depth quantiles*
    of the sampled bbox centers (not uniform widths), so hot regions get
    proportionally more, smaller cells.  Cell ids are row-major over the
    boundary arrays.  No engine plan uses it: it serves only perfbench's
    traced ``pbsm_skew`` twin, which plans, replicates and joins over it,
    until that benchmark times the sharded plan (ROADMAP item 4)."""

    def __init__(self, bx: np.ndarray, by: np.ndarray):
        self.bx = np.asarray(bx, dtype=np.float64)  # nx+1 ascending
        self.by = np.asarray(by, dtype=np.float64)
        self.nx = self.bx.size - 1
        self.ny = self.by.size - 1
        # no plan salts hot cells; kept empty for readers of the attribute
        self.salts: dict = {}

    def _ix(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.bx, x, side="right") - 1, 0, self.nx - 1)

    def _iy(self, y: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.by, y, side="right") - 1, 0, self.ny - 1)

    def cell_range(self, bbox: np.ndarray):
        """Inclusive (ix0, iy0, ix1, iy1) per bbox row, clipped to the grid."""
        return self._ix(bbox[:, 0]), self._iy(bbox[:, 1]), self._ix(bbox[:, 2]), self._iy(bbox[:, 3])

    def cell_of_point(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._iy(y) * self.nx + self._ix(x)

    @staticmethod
    def plan(small_ds, big_ds, target_cells: int = 256, sample_frac: float = 0.2,
             seed: int = 42) -> "GridSpec":
        a = _sample_extent(small_ds, sample_frac, seed)
        b = _sample_extent(big_ds, sample_frac, seed + 1)
        df = pd.concat([a, b], ignore_index=True)
        if df.empty:  # both sides empty: one cell
            return GridSpec([0.0, 1.0], [0.0, 1.0])
        x0, y0 = df["xmin"].min(), df["ymin"].min()
        x1, y1 = df["xmax"].max(), df["ymax"].max()
        n = max(int(math.sqrt(target_cells)), 1)
        pad = max((x1 - x0), (y1 - y0), 1.0) * 1e-9
        cx = ((df["xmin"] + df["xmax"]) * 0.5).to_numpy()
        cy = ((df["ymin"] + df["ymax"]) * 0.5).to_numpy()
        # interior boundaries at equi-depth quantiles of the sampled centers;
        # dedupe collapses degenerate boundaries under extreme ties
        qs = np.linspace(0.0, 1.0, n + 1)[1:-1]
        bx = np.unique(np.concatenate([[x0 - pad], np.quantile(cx, qs), [x1 + pad]]))
        by = np.unique(np.concatenate([[y0 - pad], np.quantile(cy, qs), [y1 + pad]]))
        return GridSpec(bx, by)


def partitioned_spatial_join(big, small, interaction: Interaction,
                             config: Config = Config(), target_cells: int = 256,
                             with_geos: bool = False):
    """Dataset[big_row_id, small_row_id] — same rows as the broadcast path.
    ``with_geos=True`` clones both geometry payloads into each output row
    (the partitioned twin of ``spatial_join_with_geos``).  ``target_cells``
    is ignored: no plan reads it, and it is accepted only for callers that
    still pass it."""
    index = SpatialIndex(small, config, batch_size=None, keep_table=with_geos)
    return (index.spatial_join_with_geos(big, interaction) if with_geos
            else index.spatial_join(big, interaction))


def partitioned_proximity_map(big, small, config: Config, with_geos: bool = False):
    """Dataset[big_row_id, small_row_id, distance] — same rows as broadcast."""
    index = SpatialIndex(small, config, batch_size=None, keep_table=with_geos)
    return index.proximity_map_with_geos(big) if with_geos else index.proximity_map(big)


def partitioned_knn_join(big, small, *, k: int, max_distance: float = float("inf")):
    """Dataset[big_row_id, small_row_id, distance, rank] — bit-exact vs the
    broadcast ``knn_join`` (same distance kernel, same (distance,
    small_row_id) tie rule; tested side by side), over undilated shard
    indexes.  Each row's k nearest neighbours come out of its own block's
    probe (``broadcast._knn_sharded``), so there is no exchange and no
    cross-block merge."""
    index = SpatialIndex(small, Config(), batch_size=None, keep_table=False)
    return index.knn_join(big, k=k, max_distance=max_distance)
