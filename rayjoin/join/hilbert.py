"""Hilbert-range partitioned spatial join — the north_star's literal plan:
"a sampled Hilbert-curve range partitioner drives a groupby-shuffle that
co-locates candidate geometry pairs".

Alternative physical plan to the sharded broadcast
(``rayjoin.join.partitioned``) producing the IDENTICAL row set:

1. **Plan**: sample both sides' bbox centers (seeded), map to tiles at
   ``resolution`` and to Hilbert positions, pick equi-depth RANGE boundaries
   (skew-aware: hot regions get more, narrower ranges — the same sampled
   partitioner the sink uses, ``rayjoin.stages.partition``).
2. **Replicate**: each geometry lands in every range that one of its
   (max_distance-dilated, small side only) bbox tiles maps into —
   a ragged tile expansion + Hilbert mapping + per-geometry dedupe, all
   vectorized.
3. **Co-locate + probe**: one ``groupby(range)`` shuffle; per range an STR
   build+probe with the shared kernels.
4. **Duplicate suppression** by the reference-point rule: a pair is owned by
   the range containing the Hilbert position of the tile holding the
   top-left corner of the two bboxes' intersection — that tile is in both
   replication sets, so each qualifying pair is emitted exactly once.

Hilbert ranges keep 2-D locality (a range is a compact curve segment), so
per-range candidate density tracks spatial density — the property the north
star names.  Geometries outside the lat/lon domain clamp to edge tiles
consistently on both sides (correct, but degenerate for co-location; use
the sharded broadcast for non-geographic planes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import Config, Interaction
from ..geom.batch import GeomBatch
from ..geom.primitives import repeat_expand
from ..geom.relates import relate
from ..stages.tiles import hilbert_xy2d, latlon_to_xy
from ..stages.validate import validate_batch
from ..state.rtree import STRtree, dilate
from .partitioned import _sample_extent


class HilbertSpec:
    def __init__(self, boundaries: np.ndarray, resolution: int):
        self.b = np.asarray(boundaries, dtype=np.int64)
        self.resolution = resolution
        self.salts: dict = {}  # hot range -> sub-partition count

    def range_of_hid(self, h: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.b, h, side="right")

    def range_of_point(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ix, iy = latlon_to_xy(y, x, self.resolution)
        return self.range_of_hid(hilbert_xy2d(ix, iy, self.resolution))

    @staticmethod
    def plan(small_ds, big_ds, num_ranges: int = 64, resolution: int = 8,
             sample_frac: float = 0.2, seed: int = 42) -> "HilbertSpec":
        import pandas as pd

        a = _sample_extent(small_ds, sample_frac, seed)
        b = _sample_extent(big_ds, sample_frac, seed + 1)
        df = pd.concat([a, b], ignore_index=True)
        cx = ((df["xmin"] + df["xmax"]) * 0.5).to_numpy()
        cy = ((df["ymin"] + df["ymax"]) * 0.5).to_numpy()
        ix, iy = latlon_to_xy(cy, cx, resolution)
        h = hilbert_xy2d(ix, iy, resolution)
        qs = np.linspace(0.0, 1.0, num_ranges + 1)[1:-1]
        bounds = np.unique(np.quantile(h, qs).astype(np.int64)) if h.size else np.empty(0, np.int64)
        spec = HilbertSpec(bounds, resolution)
        # hot-range salting (north_star: "hot cells salted and split"):
        # coincident centers collapse quantile boundaries — exactly where
        # boundary splitting stops working and sub-partitioning takes over
        if h.size:
            import math

            counts = np.bincount(spec.range_of_hid(h), minlength=bounds.size + 1)
            target = max(h.size / max(num_ranges, 1), 1.0)
            for r in np.flatnonzero(counts > 4 * target):
                s = int(min(8, math.ceil(counts[r] / (2 * target))))
                if s > 1:
                    spec.salts[int(r)] = s
        return spec


def _replicate_ranges(ds, spec: HilbertSpec, side: int, dilate_by: float):
    """One row per (geometry, overlapped Hilbert range)."""
    res = spec.resolution

    def rep(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        validate_batch(g)
        bb = dilate(g.bbox, dilate_by) if dilate_by else g.bbox
        ix0, iy0 = latlon_to_xy(bb[:, 1], bb[:, 0], res)
        ix1, iy1 = latlon_to_xy(bb[:, 3], bb[:, 2], res)
        nx = ix1 - ix0 + 1
        ny = iy1 - iy0 + 1
        gid, k = repeat_expand(nx * ny)
        ix = ix0[gid] + k % nx[gid]
        iy = iy0[gid] + k // nx[gid]
        r = spec.range_of_hid(hilbert_xy2d(ix, iy, res))
        # per-geometry dedupe of ranges (several tiles map into one range)
        nrange = spec.b.size + 1
        key = np.unique(gid * np.int64(nrange) + r)
        ugid = key // nrange
        ur = key % nrange
        # hot-range salting: big rows take one deterministic salt, small
        # rows replicate to every salt (same scheme as the grid PBSM)
        salt = np.zeros(ugid.size, dtype=np.int64)
        if spec.salts:
            row_ids = g.row_id[ugid]
            for hot, s in spec.salts.items():
                m = ur == hot
                if not m.any():
                    continue
                if side == 1:
                    with np.errstate(over="ignore"):
                        salt[m] = (row_ids[m] * 2654435761) % s
                else:
                    idx = np.flatnonzero(m)
                    extra_gid = np.repeat(ugid[idx], s - 1)
                    extra_r = np.repeat(ur[idx], s - 1)
                    extra_salt = np.tile(np.arange(1, s, dtype=np.int64), idx.size)
                    ugid = np.concatenate([ugid, extra_gid])
                    ur = np.concatenate([ur, extra_r])
                    salt = np.concatenate([salt, extra_salt])
        taken = t.take(pa.array(ugid))
        return taken.append_column(
            "hrange", pa.array(ur * 1024 + salt, pa.int64())
        ).append_column(
            "side", pa.array(np.full(ugid.size, side, np.int8), pa.int8())
        )

    return ds.map_batches(rep, batch_format="pyarrow")


def hilbert_spatial_join(big, small, interaction: Interaction,
                         config: Config = Config(), num_ranges: int = 64,
                         resolution: int = 8, seed: int = 42):
    """Dataset[big_row_id, small_row_id] — identical row set to the
    broadcast and sharded paths (tested side by side)."""
    spec = HilbertSpec.plan(small, big, num_ranges, resolution, seed=seed)
    max_d = config.max_distance
    rep = _replicate_ranges(small, spec, side=0, dilate_by=max_d).union(
        _replicate_ranges(big, spec, side=1, dilate_by=0.0)
    )

    def join_range(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"big_row_id": pa.array([], pa.int64()), "small_row_id": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        rng_id = int(t["hrange"][0].as_py()) // 1024  # strip salt sub-key
        small_t = t.filter(pa.compute.equal(t["side"], 0)).drop_columns(["hrange", "side"])
        big_t = t.filter(pa.compute.equal(t["side"], 1)).drop_columns(["hrange", "side"])
        if small_t.num_rows == 0 or big_t.num_rows == 0:
            return empty
        small_g = GeomBatch.from_arrow(small_t)
        big_g = GeomBatch.from_arrow(big_t)
        tree = STRtree(dilate(small_g.bbox, max_d))
        q, s = tree.query(big_g.bbox)
        sb = dilate(small_g.bbox, max_d)[s] if max_d else small_g.bbox[s]
        rx = np.maximum(sb[:, 0], big_g.bbox[q][:, 0])
        ry = np.maximum(sb[:, 1], big_g.bbox[q][:, 1])
        own = spec.range_of_point(rx, ry) == rng_id
        q, s = q[own], s[own]
        if interaction is Interaction.INTERSECTS:
            keep = relate("intersects", small_g, s, big_g, q)
        elif interaction is Interaction.CONTAINS:
            keep = relate("contains", small_g, s, big_g, q)
        else:
            keep = relate("contains", big_g, q, small_g, s)
        return pa.table(
            {
                "big_row_id": pa.array(big_g.row_id[q[keep]], pa.int64()),
                "small_row_id": pa.array(small_g.row_id[s[keep]], pa.int64()),
            }
        )

    return rep.groupby("hrange").map_groups(join_range, batch_format="pyarrow")
