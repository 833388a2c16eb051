"""Raster <-> vector conversion (north_rule scope; SURVEY.md §2.4).

- ``rasterize``: geometry table -> (geom_row_id, tile_id) for every tile of
  the given resolution whose CENTER is Contained in the geometry
  (point-in-polygon join of tile centers vs geometries — the definition the
  north rule names).  Per batch: bbox -> candidate tile ranges (ragged
  expand) -> centers -> vectorized Contains.
- ``vectorize_tiles``: inverse: per-geometry tile sets -> boundary tiles
  (tiles with at least one 4-neighbor missing from the set) — a groupby per
  geometry.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.batch import GeomBatch
from ..geom.primitives import repeat_expand
from ..geom.relates import relate
from ..stages.tiles import latlon_to_xy, xy_to_tile


def _point_batch(x: np.ndarray, y: np.ndarray) -> GeomBatch:
    n = x.size
    flat = np.empty(2 * n, dtype=np.float64)
    flat[0::2] = x
    flat[1::2] = y
    return GeomBatch.from_numpy(
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.int8),
        np.ones(n, dtype=np.int64),
        np.full(n, 2, dtype=np.int64),
        flat,
    )


def rasterize_batch(batch: pa.Table, resolution: int) -> pa.Table:
    g = GeomBatch.from_arrow(batch)
    n = np.int64(1) << resolution
    # candidate tile ranges from geometry bboxes (same floor/clip formulas as
    # stages.tiles.latlon_to_xy; bbox x == lon, y == lat)
    ix0, iy0 = latlon_to_xy(g.bbox[:, 1], g.bbox[:, 0], resolution)
    ix1, iy1 = latlon_to_xy(g.bbox[:, 3], g.bbox[:, 2], resolution)
    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    counts = nx * ny
    gid, k = repeat_expand(counts)
    ix = ix0[gid] + k % nx[gid]
    iy = iy0[gid] + k // nx[gid]
    cx = (ix + 0.5) / float(n) * 360.0 - 180.0
    cy = (iy + 0.5) / float(n) * 180.0 - 90.0
    pts = _point_batch(cx, cy)
    keep = relate("contains", g, gid, pts, np.arange(cx.size, dtype=np.int64))
    return pa.table(
        {
            "geom_row_id": pa.array(g.row_id[gid[keep]], pa.int64()),
            "tile_id": pa.array(xy_to_tile(ix[keep], iy[keep], resolution), pa.int64()),
        }
    )


def rasterize(ds, resolution: int = 8, batch_size: int = 2048):
    return ds.map_batches(
        lambda t: rasterize_batch(t, resolution),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def vectorize_tiles(raster_ds, resolution: int = 8, num_buckets: int = 64):
    """Boundary extraction: per geom_row_id, tiles whose 4-neighborhood is
    not fully inside the geometry's tile set.

    Geometries hash into ``num_buckets`` shuffle buckets; each bucket
    resolves ALL its geometries at once — membership of the 4 neighbors is
    one searchsorted over the bucket's sorted (geom, tile) keys (a per-geom
    map_groups would pay one Python call per geometry; see the
    partitioned-kNN merge note)."""
    n = np.int64(1) << resolution
    assert 2 * resolution <= 42, "packed (geom, tile) key needs tile bits"

    def add_part(t: pa.Table) -> pa.Table:
        from ..util import knuth_bucket

        g = np.asarray(t["geom_row_id"].combine_chunks(), dtype=np.int64)
        return t.append_column("part", pa.array(knuth_bucket(g, num_buckets), pa.int64()))

    def boundary(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"geom_row_id": pa.array([], pa.int64()), "tile_id": pa.array([], pa.int64())}
        )
        if t.num_rows == 0:
            return empty
        g = np.asarray(t["geom_row_id"].combine_chunks(), dtype=np.int64)
        tid = np.asarray(t["tile_id"].combine_chunks(), dtype=np.int64)
        # packed sort key: tile < 2^(2*res) bits, geom in the high bits
        keys = np.unique(g * (n * n) + tid)
        kg = keys // (n * n)
        kt = keys % (n * n)
        ix = kt % n
        iy = kt // n
        edge = (ix == 0) | (ix == n - 1) | (iy == 0) | (iy == n - 1)
        is_b = edge.copy()
        for dk, valid in (
            (-1, ix > 0),
            (1, ix < n - 1),
            (-n, iy > 0),
            (n, iy < n - 1),
        ):
            q = np.flatnonzero(valid & ~is_b)
            if q.size == 0:
                continue
            want = keys[q] + dk
            pos = np.searchsorted(keys, want)
            pos[pos >= keys.size] = 0
            missing = keys[pos] != want
            is_b[q[missing]] = True
        return pa.table(
            {
                "geom_row_id": pa.array(kg[is_b], pa.int64()),
                "tile_id": pa.array(kt[is_b], pa.int64()),
            }
        )

    return (
        raster_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(boundary, batch_format="pyarrow")
    )


def rasterize_area_batch(batch: pa.Table, resolution: int) -> pa.Table:
    """Fractional-coverage rasterization: (geom_row_id, tile_id, area) for
    every tile whose intersection with the geometry has POSITIVE area — the
    area-weighted refinement of ``rasterize``'s center-in test (what zonal
    statistics at coarse resolutions actually need).

    Rects take the closed-form min/max path (IEEE-identical in the SQL
    twin); triangles / convex polygons clip against each candidate tile
    rect with the vectorized Sutherland-Hodgman kernel (geom/overlay.py),
    pinned by scalar-differential pytest."""
    from ..geom.overlay import _poly_buffers, clip_convex
    from ..geom.spec import POLYGON, RECT, TRIANGLE

    g = GeomBatch.from_arrow(batch)
    n = np.int64(1) << resolution
    ix0, iy0 = latlon_to_xy(g.bbox[:, 1], g.bbox[:, 0], resolution)
    ix1, iy1 = latlon_to_xy(g.bbox[:, 3], g.bbox[:, 2], resolution)
    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    gid, k = repeat_expand(nx * ny)
    ix = ix0[gid] + k % nx[gid]
    iy = iy0[gid] + k // nx[gid]
    fn = float(n)
    tx0 = ix / fn * 360.0 - 180.0
    tx1 = (ix + 1) / fn * 360.0 - 180.0
    ty0 = iy / fn * 180.0 - 90.0
    ty1 = (iy + 1) / fn * 180.0 - 90.0
    kind = g.kind[gid]
    area = np.zeros(gid.size, np.float64)
    isr = kind == RECT
    bb = g.bbox[gid]
    w = np.minimum(bb[:, 2], tx1) - np.maximum(bb[:, 0], tx0)
    h = np.minimum(bb[:, 3], ty1) - np.maximum(bb[:, 1], ty0)
    area[isr] = (np.maximum(w, 0.0) * np.maximum(h, 0.0))[isr]
    gen = np.flatnonzero(np.isin(kind, (TRIANGLE, POLYGON)))
    if gen.size:
        kinds_all = np.asarray(batch["geom_type"].combine_chunks(), dtype=np.int8)
        V, cnt = _poly_buffers(kinds_all, batch["coords"])
        rows = gid[gen]
        CV = np.empty((gen.size, 4, 2), np.float64)
        CV[:, 0, 0], CV[:, 0, 1] = tx0[gen], ty0[gen]
        CV[:, 1, 0], CV[:, 1, 1] = tx1[gen], ty0[gen]
        CV[:, 2, 0], CV[:, 2, 1] = tx1[gen], ty1[gen]
        CV[:, 3, 0], CV[:, 3, 1] = tx0[gen], ty1[gen]
        area[gen] = clip_convex(V[rows], cnt[rows], CV,
                                np.full(gen.size, 4, np.int64))
    keep = area > 0
    return pa.table({
        "geom_row_id": pa.array(g.row_id[gid[keep]], pa.int64()),
        "tile_id": pa.array(xy_to_tile(ix[keep], iy[keep], resolution), pa.int64()),
        "area": pa.array(area[keep], pa.float64()),
    })


def rasterize_area(ds, resolution: int = 8, batch_size: int = 2048):
    return ds.map_batches(
        lambda t: rasterize_area_batch(t, resolution),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def focal_sum(tile_ds, *, resolution: int, value_col: str = "n",
              tile_col: str = "tile_id", radius: int = 1):
    """Focal (moving-window) aggregation on the tile grid: for every tile
    receiving any contribution, the sum of ``value_col`` over the
    (2r+1)^2 neighborhood (grid-clipped, no wraparound) — the raster
    'focal statistics' primitive, built as one scatter map (each tile
    emits its value to its neighbors) plus one groupby.  Integer sums:
    bit-exact against a SQL offsets-join twin."""
    from ray.data.aggregate import Sum

    n = np.int64(1) << resolution
    offs = [(dx, dy) for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)]

    def scatter(t: pa.Table) -> pa.Table:
        tid = np.asarray(t[tile_col].combine_chunks(), dtype=np.int64)
        val = np.asarray(t[value_col].combine_chunks(), dtype=np.int64)
        ix, iy = tid % n, tid // n
        outs_t, outs_v = [], []
        for dx, dy in offs:
            jx, jy = ix + dx, iy + dy
            ok = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n)
            outs_t.append((jy[ok] * n + jx[ok]))
            outs_v.append(val[ok])
        at = np.concatenate(outs_t) if outs_t else np.empty(0, np.int64)
        av = np.concatenate(outs_v) if outs_v else np.empty(0, np.int64)
        # per-batch partial: one row per touched neighbor tile
        uniq, inv = np.unique(at, return_inverse=True)
        agg = np.zeros(uniq.size, np.int64)
        np.add.at(agg, inv, av)
        return pa.table({tile_col: pa.array(uniq, pa.int64()),
                         "focal_sum": pa.array(agg, pa.int64())})

    return (
        tile_ds.map_batches(scatter, batch_format="pyarrow")
        .groupby(tile_col)
        .aggregate(Sum("focal_sum", alias_name="focal_sum"))
    )


def grid_hot_components(pts, *, x_col: str = "x", y_col: str = "y",
                        cell_deg: float = 16.0, threshold: int = 8,
                        pack_w: int = 1024, pack_off: int = 16):
    """Hot-spot blob labeling (raster connected components, the
    urban-area-delineation step): bucket points into a lon/lat grid,
    keep cells with >= ``threshold`` points, 4-connect adjacent hot
    cells, and label each blob with its MIN packed cell id.

    Scale shape: per-batch (cell, count) partials -> one counts-sized
    groupby; adjacency by a membership lookup of each hot cell's east and
    north neighbors (west/south follow by symmetry) in the hot-cell set,
    sharded and built once (``join.equi.KeyLookup``, no exchange);
    components through the existing pointer-doubling/driver-tiered
    ``dup_clusters``; the labels attach to the hot cells by a left_outer
    ``equi_join``, and a singleton hot cell (no label) labels itself, so
    every hot cell appears exactly once.  The hot-cell table is
    grid-bounded (not data-bounded), never the point stream.

    ``cell_deg`` SHOULD be a power of two so FLOOR(x / cell) is bit-exact
    against a SQL twin.  Returns Dataset[cell_id, blob_id, n].
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..functions.dedup import dup_clusters
    from ..join.equi import KeyLookup, equi_join

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t[x_col].combine_chunks(), dtype=np.float64)
        y = np.asarray(t[y_col].combine_chunks(), dtype=np.float64)
        cx = np.floor(x / cell_deg).astype(np.int64)
        cy = np.floor(y / cell_deg).astype(np.int64)
        cid = (cx + pack_off) * pack_w + (cy + pack_off)
        if cid.size and (cid.min() < 0 or ((cy + pack_off) >= pack_w).any()):
            raise ValueError("grid_hot_components: packing overflow — "
                             "raise pack_w/pack_off for this grid")
        g = (pa.table({"cell_id": pa.array(cid, pa.int64())})
             .group_by("cell_id").aggregate([([], "count_all")]))
        return (g.select(["cell_id", "count_all"])
                .rename_columns(["cell_id", "n_p"]))

    hot = (pts.map_batches(partial, batch_format="pyarrow")
           .groupby("cell_id").aggregate(Sum("n_p", alias_name="n"))
           .map_batches(lambda t: t.filter(pc.greater_equal(t["n"], threshold)),
                        batch_format="pyarrow")
           .materialize())
    hot_ids = KeyLookup(hot, "cell_id")

    # east neighbor: cell_id + pack_w; north neighbor: cell_id + 1
    def neighbors(t: pa.Table) -> pa.Table:
        cid = np.asarray(t["cell_id"].combine_chunks(), dtype=np.int64)
        a = np.concatenate([cid, cid])
        b = np.concatenate([cid + pack_w, cid + 1])
        keep = hot_ids.contains(b)
        return pa.table({"id_a": pa.array(a[keep], pa.int64()),
                         "id_b": pa.array(b[keep], pa.int64())})

    labels = dup_clusters(hot.map_batches(neighbors, batch_format="pyarrow"))

    def blob(t: pa.Table) -> pa.Table:
        # a cell's component label is the component's min cell, never above
        # the cell itself; a cell with no hot neighbor is its own blob
        return pa.table({"cell_id": t["cell_id"],
                         "blob_id": pc.coalesce(t["cluster_id"], t["cell_id"]),
                         "n": t["n"]})

    return equi_join(hot, labels, "cell_id", "doc_id", how="left_outer").map_batches(
        blob, batch_format="pyarrow")


def line_density_batch(batch: pa.Table, resolution: int,
                       scale: int = 1_000_000) -> pa.Table:
    """Line-density rasterization: per-batch partial (tile_id,
    density_micro) sums of the Liang–Barsky clipped length of every
    LINE/LINESTRING segment against every candidate grid tile (candidates
    from the segment bbox, same latlon_to_xy convention as ``rasterize``).
    Lengths are floored to int64 micro-units per (segment, tile) BEFORE
    any sum, so the global per-tile totals are aggregation-order-free and
    bit-exact vs the SQL twin."""
    from ..geom.overlay import _ring0, lb_clip_micro
    from ..geom.spec import LINE, LINESTRING

    kind = np.asarray(batch["geom_type"].combine_chunks(), dtype=np.int8)
    flat, off = _ring0(batch["coords"])
    idx = np.flatnonzero(np.isin(kind, (LINE, LINESTRING)))
    empty = pa.table({"tile_id": pa.array([], pa.int64()),
                      "density_micro": pa.array([], pa.int64())})
    if idx.size == 0:
        return empty
    nseg = np.maximum((off[1:] - off[:-1])[idx] // 2 - 1, 0)
    pid, j = repeat_expand(nseg)
    b = off[:-1][idx][pid] + 2 * j
    sx, sy = flat[b], flat[b + 1]
    ex, ey = flat[b + 2], flat[b + 3]
    n = np.int64(1) << resolution
    ix0, iy0 = latlon_to_xy(np.minimum(sy, ey), np.minimum(sx, ex), resolution)
    ix1, iy1 = latlon_to_xy(np.maximum(sy, ey), np.maximum(sx, ex), resolution)
    nx, ny = ix1 - ix0 + 1, iy1 - iy0 + 1
    sid, k = repeat_expand(nx * ny)
    if sid.size == 0:
        return empty
    ix = ix0[sid] + k % nx[sid]
    iy = iy0[sid] + k // nx[sid]
    fn = float(n)
    tx0 = ix / fn * 360.0 - 180.0
    tx1 = (ix + 1) / fn * 360.0 - 180.0
    ty0 = iy / fn * 180.0 - 90.0
    ty1 = (iy + 1) / fn * 180.0 - 90.0
    contrib = lb_clip_micro(sx[sid], sy[sid], ex[sid], ey[sid],
                            tx0, ty0, tx1, ty1, scale=scale)
    tile = xy_to_tile(ix, iy, resolution)
    ut, sums = _sum_by_tile(tile, contrib.astype(np.int64))
    keep = sums > 0
    return pa.table({"tile_id": pa.array(ut[keep], pa.int64()),
                     "density_micro": pa.array(sums[keep], pa.int64())})


def _sum_by_tile(tile: np.ndarray, val: np.ndarray):
    """Exact int64 per-tile sums via one sort + reduceat (no float
    accumulation, so per-tile totals never hit the 2^53 bincount edge)."""
    order = np.argsort(tile, kind="stable")
    tile, val = tile[order], val[order]
    starts = np.flatnonzero(
        np.concatenate([[True], tile[1:] != tile[:-1]])) if tile.size else np.empty(0, np.int64)
    if not tile.size:
        return tile, val
    return tile[starts], np.add.reduceat(val, starts)


def line_density(ds, resolution: int = 8, batch_size: int = 8192,
                 num_buckets: int = 256):
    """Dataset[tile_id, density_micro]: total in-tile polyline length per
    grid tile (the GIS 'line density' raster).  Per-batch partials keep
    the shuffle tile-sized; the merge is the repo's bucketed map_groups
    pattern (tile ids hash into ``num_buckets`` shuffle groups, each
    combined with ONE sort + int64 reduceat) — Ray's generic sort
    aggregate over millions of tiny tile groups measured ~10x slower at
    the 2M-line stress."""
    from ..util import knuth_bucket

    def partial(t: pa.Table) -> pa.Table:
        out = line_density_batch(t, resolution)
        tile = np.asarray(out["tile_id"].combine_chunks(), dtype=np.int64)
        return out.append_column(
            "bucket", pa.array(knuth_bucket(tile, num_buckets), pa.int64()))

    empty = pa.table({"tile_id": pa.array([], pa.int64()),
                      "density_micro": pa.array([], pa.int64())})

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        tile = np.asarray(t["tile_id"].combine_chunks(), dtype=np.int64)
        val = np.asarray(t["density_micro"].combine_chunks(), dtype=np.int64)
        ut, sums = _sum_by_tile(tile, val)
        return pa.table({"tile_id": pa.array(ut, pa.int64()),
                         "density_micro": pa.array(sums, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size)
    return parts.groupby("bucket").map_groups(per_bucket,
                                              batch_format="pyarrow")
