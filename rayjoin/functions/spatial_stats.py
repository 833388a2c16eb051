"""Spatial-autocorrelation statistics over point geometries.

Local Moran's I (Anselin 1995, "Local indicators of spatial association —
LISA") expressed over the engine's existing scale primitives, the same way
DBSCAN is (functions/cluster.py):

  neighbor pairs (binary W, d-band)  -> the partitioned proximity
                                        SELF-join (rayjoin/join/partitioned.py)
  value lookup (both pair ends)      -> one sharded lookup of the values
                                        table (join/equi.py KeyLookup; no
                                        exchange, no pair row copied)
  per-point lag sums                 -> per-batch Arrow partials + ONE groupby
                                        (the shuffle carries (row_id, cnt,
                                        sum) partials, never the pair list)

Everything is INTEGER-exact so the SQL twin hash-matches: values are int64,
the weights are binary (w_ij = 1 iff 0 < dist(i,j) <= d, inclusive — the
same predicate as proximity_map), and the mean is never divided out.
With n = #points and S = sum(val):

    z_num_i   = n*val_i - S              ( = n   * (val_i - mean) )
    lag_num_i = n*sum_{j in N(i)} val_j - |N(i)|*S
                                         ( = n   * sum_j (val_j - mean) )

so the real local Moran numerator z_i * sum_j w_ij z_j equals
z_num_i * lag_num_i / n^2 — recoverable downstream without ever leaving
int64 here.  Caller contract for no-overflow: n * max|val| * (1 + max
neighborhood size) < 2^63 (document values are small codes/counts, not raw
micro-quantities).

100 TB shape: one proximity self-join + one (row_id, cnt, sum) groupby;
the values table is sharded by row_id and built once, and every pair reads
its value in place.  No driver materialization anywhere; the only driver
scalars are n and S (one tiny aggregate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_LAG_EMPTY = pa.table({
    "row_id": pa.array([], pa.int64()),
    "val": pa.array([], pa.int64()),
    "nbrs": pa.array([], pa.int64()),
    "lag_sum": pa.array([], pa.int64()),
})


def spatial_lag(points, values, *, max_distance: float):
    """Per-point d-band neighbor count and value sum.

    ``points``: Dataset/Table of point geometries (row_id/geom_type/coords,
    as built by ``geom.encode.points_geom``; row_ids unique).
    ``values``: Dataset/Table[row_id:int64, val:int64] — one row per point;
    a point with no value row raises a KeyError naming its row_id.

    Returns Dataset[row_id, val, nbrs, lag_sum] covering EVERY point:
    ``nbrs`` = #{j != i : dist(i,j) <= max_distance} (inclusive, the
    proximity_map predicate), ``lag_sum`` = sum of val_j over those j.
    Isolated points come back with nbrs = 0, lag_sum = 0 (the self-pair the
    proximity join always emits keeps them in the aggregate; its own val is
    subtracted back out per group).
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ..config import Config
    from ..join.equi import KeyLookup
    from ..join.partitioned import partitioned_proximity_map

    pts = ray.data.from_arrow(points) if isinstance(points, pa.Table) else points
    vals = ray.data.from_arrow(values) if isinstance(values, pa.Table) else values
    pts = pts.materialize()
    lut = KeyLookup(vals.select_columns(["row_id", "val"]), "row_id")

    def val_of(ids: np.ndarray) -> np.ndarray:
        v, hit = lut.get(ids, "val")
        if not hit.all():
            raise KeyError(f"spatial_lag: values missing row_id {int(ids[~hit][0])}")
        return v

    pairs = partitioned_proximity_map(pts, pts, Config(max_distance=float(max_distance)))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"row_id": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "sumv": pa.array([], pa.int64())})
        big = np.asarray(t["big_row_id"].combine_chunks(), np.int64)
        vs = val_of(np.asarray(t["small_row_id"].combine_chunks(), np.int64))
        # group within the batch: sort by big id, segment-reduce
        o = np.argsort(big, kind="stable")
        big, vs = big[o], vs[o]
        starts = np.flatnonzero(np.concatenate([[True], big[1:] != big[:-1]]))
        cnt = np.diff(np.concatenate([starts, [big.size]]))
        sums = np.add.reduceat(vs, starts)
        return pa.table({"row_id": pa.array(big[starts], pa.int64()),
                         "cnt": pa.array(cnt, pa.int64()),
                         "sumv": pa.array(sums, pa.int64())})

    agg = (pairs.map_batches(partial, batch_format="pyarrow")
           .groupby("row_id")
           .aggregate(Sum("cnt", alias_name="cnt"), Sum("sumv", alias_name="sumv")))

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LAG_EMPTY
        ids = np.asarray(t["row_id"].combine_chunks(), np.int64)
        own = val_of(ids)
        cnt = np.asarray(t["cnt"].combine_chunks(), np.int64)
        sumv = np.asarray(t["sumv"].combine_chunks(), np.int64)
        return pa.table({"row_id": pa.array(ids, pa.int64()),
                         "val": pa.array(own, pa.int64()),
                         "nbrs": pa.array(cnt - 1, pa.int64()),
                         "lag_sum": pa.array(sumv - own, pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def ripley_k(points, *, radii):
    """Unnormalized Ripley's K pair counts (Ripley 1976): for each radius
    r in ``radii`` (ascending), the number of ORDERED pairs (i, j), i != j,
    with dist(i, j) <= r (inclusive — the proximity_map predicate).  The
    K estimate itself is |A| * pairs / n^2, derivable downstream; emitting
    the exact integer numerator keeps the SQL twin hash-exact.

    One partitioned proximity SELF-join at max(radii) produces every candidate
    pair once (with its bit-exact ``distance`` — the same sqrt expression
    the SQL oracle uses, parity established by the prox_points rows); each
    batch then collapses to ONE row per radius (a <=-threshold histogram),
    so the only shuffle after the join carries len(radii) rows per block.
    A zeros base rides along in the union so radii with no pairs still
    come back as 0 (the LEFT JOIN semantics of the twin) with no driver
    materialization.

    Returns Dataset[r_code:int64 (1-based index), radius:float64,
    pairs:int64].
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ..config import Config
    from ..join.partitioned import partitioned_proximity_map

    rr = [float(r) for r in radii]
    if not rr or sorted(rr) != rr:
        raise ValueError("radii must be a non-empty ascending sequence")
    r_codes = np.arange(1, len(rr) + 1, dtype=np.int64)
    r_arr = np.asarray(rr, dtype=np.float64)

    pts = ray.data.from_arrow(points) if isinstance(points, pa.Table) else points
    pts = pts.materialize()
    pairs = partitioned_proximity_map(pts, pts, Config(max_distance=rr[-1]))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"r_code": pa.array([], pa.int64()),
                             "pairs": pa.array([], pa.int64())})
        big = np.asarray(t["big_row_id"].combine_chunks(), np.int64)
        small = np.asarray(t["small_row_id"].combine_chunks(), np.int64)
        d = np.asarray(t["distance"].combine_chunks(), np.float64)
        d = d[big != small]
        # counts per radius: searchsorted on the sorted distances gives
        # #{d <= r} for every r in one shot (side="right" = inclusive)
        cnt = np.searchsorted(np.sort(d), r_arr, side="right").astype(np.int64)
        return pa.table({"r_code": pa.array(r_codes, pa.int64()),
                         "pairs": pa.array(cnt, pa.int64())})

    zeros = ray.data.from_arrow(pa.table({
        "r_code": pa.array(r_codes, pa.int64()),
        "pairs": pa.array(np.zeros(len(rr), np.int64), pa.int64()),
    }))
    agg = (pairs.map_batches(partial, batch_format="pyarrow")
           .union(zeros)
           .groupby("r_code")
           .aggregate(Sum("pairs", alias_name="pairs")))

    lut = {int(c): r for c, r in zip(r_codes, rr)}

    def finish(t: pa.Table) -> pa.Table:
        codes = np.asarray(t["r_code"].combine_chunks(), np.int64)
        return pa.table({
            "r_code": pa.array(codes, pa.int64()),
            "radius": pa.array([lut[int(c)] for c in codes], pa.float64()),
            "pairs": t["pairs"].cast(pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def getis_ord(points, values, *, max_distance: float):
    """Integer-exact Getis-Ord Gi* hot-spot numerators (Getis & Ord 1992;
    Ord & Getis 1995) under the same binary d-band weights as
    ``local_moran``, INCLUDING self (the * variant).  With n = #points and
    S = sum(val), the z-score numerator sum_j w*_ij val_j - mean * W*_i
    scales by n to the exact int64

        g_num_i = n * (lag_sum_i + val_i) - (nbrs_i + 1) * S

    (W*_i = nbrs_i + 1 is emitted too — the denominator's only
    data-dependent term besides the global S, S2 scalars).  Same
    no-overflow contract and 100 TB shape as local_moran: one proximity
    shuffle + one partial-aggregated groupby via ``spatial_lag``.

    Returns Dataset[row_id, w_star, g_num].
    """
    import ray.data

    vals = ray.data.from_arrow(values) if isinstance(values, pa.Table) else values
    vals = vals.materialize()
    from ray.data.aggregate import Count, Sum
    stats = vals.aggregate(Count(alias_name="n"), Sum("val", alias_name="s"))
    n = int(stats["n"])
    s = int(stats["s"] or 0)

    lag = spatial_lag(points, vals, max_distance=max_distance)
    nn = pa.scalar(n, pa.int64())
    ss = pa.scalar(s, pa.int64())
    one = pa.scalar(1, pa.int64())

    def score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w_star = pc.add_checked(t["nbrs"].cast(pa.int64()), one)
        inc = pc.add_checked(t["lag_sum"].cast(pa.int64()),
                             t["val"].cast(pa.int64()))
        return pa.table({
            "row_id": t["row_id"].cast(pa.int64()),
            "w_star": w_star,
            "g_num": pc.subtract_checked(pc.multiply_checked(inc, nn),
                                         pc.multiply_checked(w_star, ss)),
        })

    return lag.map_batches(score, batch_format="pyarrow")


def local_moran(points, values, *, max_distance: float):
    """Integer-exact local Moran's I numerators (see module docstring).

    Returns Dataset[row_id, nbrs, z_num, lag_num] with
    z_num = n*val - S and lag_num = n*lag_sum - nbrs*S (both int64;
    caller guarantees n * max|val| * (1 + max nbrs) < 2^63).
    The global Moran's I is sum(z_num*lag_num) / (n^2 * W0 * var-ish
    normalizers) — all derivable downstream from these exact parts.
    """
    import ray.data
    from ray.data.aggregate import Count, Sum

    vals = ray.data.from_arrow(values) if isinstance(values, pa.Table) else values
    vals = vals.materialize()
    stats = vals.aggregate(Count(alias_name="n"), Sum("val", alias_name="s"))
    n = int(stats["n"])
    s = int(stats["s"] or 0)

    lag = spatial_lag(points, vals, max_distance=max_distance)
    nn = pa.scalar(n, pa.int64())
    ss = pa.scalar(s, pa.int64())

    def score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "row_id": t["row_id"].cast(pa.int64()),
            "nbrs": t["nbrs"].cast(pa.int64()),
            "z_num": pc.subtract_checked(
                pc.multiply_checked(t["val"].cast(pa.int64()), nn), ss),
            "lag_num": pc.subtract_checked(
                pc.multiply_checked(t["lag_sum"].cast(pa.int64()), nn),
                pc.multiply_checked(t["nbrs"].cast(pa.int64()), ss)),
        })

    return lag.map_batches(score, batch_format="pyarrow")


def union_area_rects(ds, *, grp_col: str = "grp", x0_col: str = "x0",
                     x1_col: str = "x1", y0_col: str = "y0",
                     y1_col: str = "y1", strip_w: int = 1 << 16,
                     num_buckets: int = 256):
    """Dissolve: EXACT union area of axis-aligned integer rectangles per
    group — overlaps counted once (the GIS dissolve-by-attribute measure;
    the reference's BoundingRect/unary-union shape re-expressed as a
    distributed sweep).

    Scale plan: x-space splits into ``strip_w``-wide strips; every rect is
    CLIPPED to each strip it overlaps (strips are disjoint, so per-strip
    union areas add exactly — no reference-point bookkeeping needed),
    (group, strip) cells hash into ``num_buckets`` shuffle groups, and each
    cell runs one vectorized coordinate-compression sweep: slab
    decomposition over the cell's rect x-edges, per-slab y-interval islands
    via a segment-packed running max (no Python per slab/island).  The
    skew unit is one (group, strip) cell; per-cell candidate volume is
    rects-in-cell x slabs-they-span, tuned by ``strip_w``.

    Returns Dataset[grp_col, area] (int64; closed-open [x0,x1) x [y0,y1)
    cell semantics — zero-width/height rects contribute nothing but must
    still satisfy x0<=x1, y0<=y1).
    """
    import ray.data
    from ray.data.aggregate import Sum

    from ..util import knuth_bucket

    sw = np.int64(strip_w)
    if sw <= 0:
        raise ValueError("strip_w must be positive")

    def prep(t: pa.Table) -> pa.Table:
        g = np.asarray(t[grp_col].combine_chunks(), dtype=np.int64)
        x0 = np.asarray(t[x0_col].combine_chunks(), dtype=np.int64)
        x1 = np.asarray(t[x1_col].combine_chunks(), dtype=np.int64)
        y0 = np.asarray(t[y0_col].combine_chunks(), dtype=np.int64)
        y1 = np.asarray(t[y1_col].combine_chunks(), dtype=np.int64)
        if np.any(x1 < x0) or np.any(y1 < y0):
            raise ValueError("union_area_rects: inverted rect present")
        live = x1 > x0  # zero-width adds nothing; drop before replication
        g, x0, x1, y0, y1 = g[live], x0[live], x1[live], y0[live], y1[live]
        s0 = np.floor_divide(x0, sw)
        # [x0, x1): the strip containing x1 is touched only if x1 is not
        # exactly on its boundary
        s1 = np.floor_divide(x1 - 1, sw)
        rep = s1 - s0 + 1
        total = int(rep.sum())
        idx = np.repeat(np.arange(g.size, dtype=np.int64), rep)
        offs = (np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(rep) - rep, rep))
        strip = s0[idx] + offs
        lo = strip * sw
        cx0 = np.maximum(x0[idx], lo)
        cx1 = np.minimum(x1[idx], lo + sw)
        with np.errstate(over="ignore"):
            part = knuth_bucket(g[idx] * np.int64(1000003) + strip,
                                num_buckets)
        return pa.table({
            "part": pa.array(part, pa.int64()),
            "G": pa.array(g[idx], pa.int64()),
            "STRIP": pa.array(strip, pa.int64()),
            "X0": pa.array(cx0, pa.int64()),
            "X1": pa.array(cx1, pa.int64()),
            "Y0": pa.array(y0[idx], pa.int64()),
            "Y1": pa.array(y1[idx], pa.int64()),
        })

    empty = pa.table({grp_col: pa.array([], pa.int64()),
                      "part_area": pa.array([], pa.int64())})

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        g = np.asarray(t["G"].combine_chunks(), dtype=np.int64)
        st = np.asarray(t["STRIP"].combine_chunks(), dtype=np.int64)
        x0 = np.asarray(t["X0"].combine_chunks(), dtype=np.int64)
        x1 = np.asarray(t["X1"].combine_chunks(), dtype=np.int64)
        y0 = np.asarray(t["Y0"].combine_chunks(), dtype=np.int64)
        y1 = np.asarray(t["Y1"].combine_chunks(), dtype=np.int64)
        # dense (group, strip) cell ids via byte-view unique
        kb = np.empty((g.size, 2), np.int64)
        kb[:, 0] = g
        kb[:, 1] = st
        v = np.ascontiguousarray(kb).view([("a", "<i8"), ("b", "<i8")]).ravel()
        _, cell = np.unique(v, return_inverse=True)
        cell = cell.astype(np.int64, copy=False)
        n_cells = int(cell.max()) + 1

        # slab edges per cell: unique (cell, x) over both rect x-edges,
        # rank-packed into one int64 so every lookup is a plain searchsorted
        # (the band_join idiom — x values rank into [0, ux.size))
        ux = np.unique(np.concatenate([x0, x1]))
        W = np.int64(ux.size + 1)
        epack = np.unique(
            np.concatenate([cell, cell]) * W
            + np.searchsorted(ux, np.concatenate([x0, x1]))
        )  # ascending by (cell, x-rank)
        ecell = epack // W
        ex = ux[epack % W]
        # slabs: consecutive edge pairs within a cell; a slab is addressed
        # by its left-edge index into (ecell, ex)
        if not (ecell[1:] == ecell[:-1]).any():
            return empty

        # rect -> slabs it spans: slab left edges with x in [x0, x1)
        lo_e = np.searchsorted(epack, cell * W + np.searchsorted(ux, x0))
        hi_e = np.searchsorted(epack, cell * W + np.searchsorted(ux, x1))
        counts = hi_e - lo_e  # number of slabs this rect covers
        total = int(counts.sum())
        if total == 0:
            return empty
        ridx = np.repeat(np.arange(g.size, dtype=np.int64), counts)
        offs = (np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts))
        sedge = np.repeat(lo_e, counts) + offs  # slab left-edge index
        sy0 = y0[ridx]
        sy1 = y1[ridx]

        # per-slab y-interval islands: sort by (slab, y0, y1), running max
        # of y1 within slab segments.  The cummax runs in RANK space packed
        # with the slab id (rank < rows, slab-edge index < 2*rows, so the
        # pack stays far inside int64 for any in-heap bucket — raw y values
        # could overflow the pack)
        order = np.lexsort((sy1, sy0, sedge))
        sedge, sy0, sy1 = sedge[order], sy0[order], sy1[order]
        uy = np.unique(sy1)
        spanr = np.int64(uy.size + 1)
        rmr = np.maximum.accumulate(
            sedge * spanr + np.searchsorted(uy, sy1))
        runmax = uy[rmr - sedge * spanr]  # segment cummax of y1, as values
        new_seg = np.concatenate([[True], sedge[1:] != sedge[:-1]])
        prevmax = np.empty_like(runmax)
        prevmax[1:] = runmax[:-1]
        new_isl = new_seg | (sy0 > prevmax)
        isl_start = np.flatnonzero(new_isl)
        isl_end = np.concatenate([isl_start[1:], [sedge.size]]) - 1
        cov = runmax[isl_end] - sy0[isl_start]
        slab_of = sedge[isl_start]
        widths = ex[slab_of + 1] - ex[slab_of]
        area = widths * cov
        grp_of = ecell[slab_of]
        # sum per group (cells -> group id is the first packed column)
        # map cell -> group via any rect row: build lookup
        cell_to_grp = np.empty(n_cells, np.int64)
        cell_to_grp[cell] = g
        gids = cell_to_grp[grp_of]
        ug, inv = np.unique(gids, return_inverse=True)
        sums = np.zeros(ug.size, np.int64)
        np.add.at(sums, inv, area)
        return pa.table({grp_col: pa.array(ug, pa.int64()),
                         "part_area": pa.array(sums, pa.int64())})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("part").map_groups(per_bucket, batch_format="pyarrow")
            .groupby(grp_col)
            .aggregate(Sum("part_area", alias_name="area")))


def group_diameter(ds, *, key_col: str, id_col: str, x_col: str = "x",
                   y_col: str = "y", pair_chunk: int = 4_000_000):
    """Per-group DIAMETER: the farthest point pair within each key (the
    dispersion / spatial-extent statistic).  Returns Dataset[key, id_a,
    id_b, diameter] with the deterministic argmax tie-break
    (distance DESC, id_a, id_b) — so the ROW_NUMBER SQL twin hash-matches
    on identical sqrt doubles.

    One groupby(key) shuffle; each group's O(g^2) pair scan runs
    vectorized in ``pair_chunk``-bounded row blocks (a 10^4-point group
    costs 5*10^7 distance evaluations, never 5*10^7 Python steps; the
    quadratic cost per group is inherent to the exact statistic and is the
    documented partitioning assumption — keys are city/region-sized, not
    corpus-sized)."""
    empty = pa.table({key_col: pa.array([], pa.int64()),
                      "id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "diameter": pa.array([], pa.float64())})

    def per_group(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        key = np.asarray(t[key_col].combine_chunks(), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        x = np.asarray(t[x_col].combine_chunks(), dtype=np.float64)
        y = np.asarray(t[y_col].combine_chunks(), dtype=np.float64)
        order = np.lexsort((ids, key))
        key, ids, x, y = key[order], ids[order], x[order], y[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        ends = np.concatenate([starts[1:], [key.size]])
        out_k, out_a, out_b, out_d = [], [], [], []
        for st, en in zip(starts, ends):
            g = en - st
            if g < 2:
                continue
            gx, gy, gi = x[st:en], y[st:en], ids[st:en]
            best = None  # (-d, id_a, id_b)
            rows_per_chunk = max(1, pair_chunk // g)
            for c0 in range(0, g - 1, rows_per_chunk):
                c1 = min(c0 + rows_per_chunk, g - 1)
                dx = gx[c0:c1, None] - gx[None, :]
                dy = gy[c0:c1, None] - gy[None, :]
                d = np.sqrt(dx * dx + dy * dy)
                # mask to strict upper triangle (i < j)
                ii = np.arange(c0, c1)[:, None]
                jj = np.arange(g)[None, :]
                d[jj <= ii] = -1.0
                flat = np.argmax(d)
                r, cc = np.unravel_index(flat, d.shape)
                # within-chunk ties: argmax returns the FIRST max in row-major
                # order == smallest (i, j) == smallest (id_a, id_b) since ids
                # ascend within the sorted group
                cand = (-d[r, cc], gi[c0 + r], gi[cc])
                if best is None or cand < best:
                    best = cand
            out_k.append(key[st]); out_a.append(best[1])
            out_b.append(best[2]); out_d.append(-best[0])
        if not out_k:
            return empty
        return pa.table({key_col: pa.array(out_k, pa.int64()),
                         "id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "diameter": pa.array(out_d, pa.float64())})

    return ds.groupby(key_col).map_groups(per_group, batch_format="pyarrow")
