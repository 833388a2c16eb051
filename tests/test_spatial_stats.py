"""spatial_lag / local_moran differential tests vs brute-force O(n^2)."""

import numpy as np
import pyarrow as pa
import pytest

from rayjoin.functions.spatial_stats import local_moran, spatial_lag
from rayjoin.geom.encode import points_geom


def brute_lag(ids, x, y, vals, d):
    dist = np.sqrt((x[:, None] - x[None, :]) ** 2
                   + (y[:, None] - y[None, :]) ** 2)
    adj = (dist <= d) & ~np.eye(len(ids), dtype=bool)
    return adj.sum(1).astype(np.int64), (adj * vals[None, :]).sum(1).astype(np.int64)


def synth(n, seed):
    rng = np.random.default_rng(seed)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    x = rng.uniform(-50, 50, n)
    y = rng.uniform(-30, 30, n)
    vals = rng.integers(0, 97, n).astype(np.int64)
    return ids, x, y, vals


def run_lag(ids, x, y, vals, d):
    import ray.data

    pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
    vt = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids, pa.int64()),
        "val": pa.array(vals, pa.int64())})).repartition(2)
    out = spatial_lag(pts, vt, max_distance=d).to_pandas()
    return out.sort_values("row_id").reset_index(drop=True)


@pytest.mark.parametrize("k", [1, 3])
def test_spatial_lag_matches_brute(ray_session, force_shards, k):
    ids, x, y, vals = synth(80, 7)
    d = 9.0
    nbrs, lag = brute_lag(ids, x, y, vals, d)
    if k > 1:
        spy = force_shards(len(ids), k)
    out = run_lag(ids, x, y, vals, d)
    if k > 1:
        assert spy.sharded_key_lookup()
    assert len(out) == len(ids)
    assert np.array_equal(out["nbrs"].to_numpy(), nbrs)
    assert np.array_equal(out["lag_sum"].to_numpy(), lag)
    assert np.array_equal(out["val"].to_numpy(), vals)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("op", ["spatial_lag", "getis_ord", "local_moran"])
def test_missing_value_row_raises(ray_session, force_shards, op, k):
    """A point with no value row raises a KeyError naming its row_id, on
    one value shard or several, rather than borrowing another id's value
    or dropping the point.  The error is raised in a Ray task, which wraps
    it."""
    import ray.data

    from rayjoin.functions import spatial_stats

    ids = np.arange(6, dtype=np.int64)
    x = np.array([0.0, 0.5, 1.0, 10.0, 10.5, 11.0])
    keep = ids != 1
    vals = pa.table({"row_id": pa.array(ids[keep]),
                     "val": pa.array(ids[keep] * 100)})
    pts = ray.data.from_arrow(points_geom(ids, x, np.zeros(6))).repartition(2)
    if k > 1:
        spy = force_shards(5, k)
    with pytest.raises(Exception, match="KeyError: 'spatial_lag: values missing row_id 1'"):
        getattr(spatial_stats, op)(pts, vals, max_distance=0.6).materialize()
    if k > 1:
        assert spy.sharded_key_lookup()


def test_isolated_points_have_zero_lag(ray_session):
    # three far-apart points: every one isolated at d=1
    ids = np.array([1, 2, 3], dtype=np.int64)
    x = np.array([0.0, 100.0, 200.0])
    y = np.array([0.0, 0.0, 0.0])
    vals = np.array([5, 7, 11], dtype=np.int64)
    out = run_lag(ids, x, y, vals, 1.0)
    assert np.array_equal(out["nbrs"].to_numpy(), [0, 0, 0])
    assert np.array_equal(out["lag_sum"].to_numpy(), [0, 0, 0])


def test_local_moran_matches_brute(ray_session):
    import ray.data

    ids, x, y, vals = synth(60, 13)
    d = 12.0
    n = len(ids)
    s = int(vals.sum())
    nbrs, lag = brute_lag(ids, x, y, vals, d)
    want_z = n * vals - s
    want_lag = n * lag - nbrs * s

    pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
    vt = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids, pa.int64()),
        "val": pa.array(vals, pa.int64())}))
    out = (local_moran(pts, vt, max_distance=d)
           .to_pandas().sort_values("row_id").reset_index(drop=True))
    assert np.array_equal(out["nbrs"].to_numpy(), nbrs)
    assert np.array_equal(out["z_num"].to_numpy(), want_z)
    assert np.array_equal(out["lag_num"].to_numpy(), want_lag)


def test_getis_ord_matches_brute(ray_session):
    import ray.data

    from rayjoin.functions.spatial_stats import getis_ord

    ids, x, y, vals = synth(70, 29)
    d = 10.0
    n = len(ids)
    s = int(vals.sum())
    nbrs, lag = brute_lag(ids, x, y, vals, d)
    w_star = nbrs + 1
    g_num = n * (lag + vals) - w_star * s

    pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
    vt = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids, pa.int64()),
        "val": pa.array(vals, pa.int64())}))
    out = (getis_ord(pts, vt, max_distance=d)
           .to_pandas().sort_values("row_id").reset_index(drop=True))
    assert np.array_equal(out["w_star"].to_numpy(), w_star)
    assert np.array_equal(out["g_num"].to_numpy(), g_num)


def test_ripley_k_matches_brute_and_zero_radii(ray_session):
    import ray.data

    from rayjoin.functions.spatial_stats import ripley_k

    ids, x, y, _ = synth(60, 41)
    radii = (0.001, 4.0, 8.0, 15.0)
    dist = np.sqrt((x[:, None] - x[None, :]) ** 2
                   + (y[:, None] - y[None, :]) ** 2)
    off = ~np.eye(len(ids), dtype=bool)
    want = [int(((dist <= r) & off).sum()) for r in radii]

    pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
    out = (ripley_k(pts, radii=radii)
           .to_pandas().sort_values("r_code").reset_index(drop=True))
    assert out["r_code"].tolist() == [1, 2, 3, 4]
    assert out["radius"].tolist() == list(radii)
    assert out["pairs"].tolist() == want
    # the 0.001 radius almost surely has zero pairs -> zeros base covered
    assert want[0] == 0


def test_ripley_k_rejects_unsorted_radii(ray_session):
    import ray.data

    from rayjoin.functions.spatial_stats import ripley_k

    ids, x, y, _ = synth(5, 3)
    pts = ray.data.from_arrow(points_geom(ids, x, y))
    with pytest.raises(ValueError):
        ripley_k(pts, radii=(3.0, 1.0))


def test_union_area_rects_vs_grid_bruteforce(ray_session):
    import ray.data

    from rayjoin.functions.spatial_stats import union_area_rects

    rng = np.random.default_rng(2)
    n = 600
    g = rng.integers(0, 5, n).astype(np.int64)
    x0 = rng.integers(0, 300, n).astype(np.int64)
    w = rng.integers(0, 60, n).astype(np.int64)  # zero-width rects included
    y0 = rng.integers(0, 300, n).astype(np.int64)
    h = rng.integers(0, 60, n).astype(np.int64)
    t = pa.table({"grp": pa.array(g), "x0": pa.array(x0),
                  "x1": pa.array(x0 + w), "y0": pa.array(y0),
                  "y1": pa.array(y0 + h)})
    ds = ray.data.from_arrow(t).repartition(5)
    # strip_w=37 forces heavy clipping; tiny bucket count forces several
    # (group, strip) cells to share one map_groups bucket
    out = union_area_rects(ds, strip_w=37, num_buckets=11).to_pandas()
    got = dict(zip(out["grp"].astype(int), out["area"].astype(int)))

    want = {}
    for gg in np.unique(g):
        m = np.zeros((400, 400), bool)
        for i in np.flatnonzero(g == gg):
            m[x0[i]:x0[i] + w[i], y0[i]:y0[i] + h[i]] = True
        if m.sum():
            want[int(gg)] = int(m.sum())
    assert got == want

    with pytest.raises(Exception, match="inverted rect"):
        bad = pa.table({"grp": pa.array([0], pa.int64()),
                        "x0": pa.array([5], pa.int64()),
                        "x1": pa.array([4], pa.int64()),
                        "y0": pa.array([0], pa.int64()),
                        "y1": pa.array([1], pa.int64())})
        union_area_rects(ray.data.from_arrow(bad), strip_w=8).materialize()


def test_group_diameter_vs_brute(ray_session):
    import ray.data

    from rayjoin.functions.spatial_stats import group_diameter

    rng = np.random.default_rng(53)
    n = 400
    key = rng.integers(0, 8, n).astype(np.int64)
    ids = rng.permutation(n).astype(np.int64)
    x = rng.uniform(-100, 100, n)
    y = rng.uniform(-100, 100, n)
    # force an exact-tie group: a unit square (two equal diagonals) — the
    # tie must break to the smallest (id_a, id_b)
    key[:4] = 99
    ids[:4] = [10, 11, 12, 13]
    x[:4] = [0.0, 1.0, 0.0, 1.0]
    y[:4] = [0.0, 0.0, 1.0, 1.0]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(key), "i": pa.array(ids),
        "x": pa.array(x), "y": pa.array(y)})).repartition(4)
    out = (group_diameter(ds, key_col="k", id_col="i", pair_chunk=777)
           .to_pandas().set_index("k").sort_index())
    import math
    for kk in np.unique(key):
        m = key == kk
        best = None
        gi, gx, gy = ids[m], x[m], y[m]
        o = np.argsort(gi)
        gi, gx, gy = gi[o], gx[o], gy[o]
        for a in range(gi.size):
            for b in range(a + 1, gi.size):
                d = math.sqrt((gx[a]-gx[b])**2 + (gy[a]-gy[b])**2)
                cand = (-d, gi[a], gi[b])
                if best is None or cand < best:
                    best = cand
        row = out.loc[kk]
        assert (row.id_a, row.id_b, row.diameter) == (best[1], best[2], -best[0])
    trow = out.loc[99]
    assert (trow.id_a, trow.id_b) == (10, 13)  # tie -> smallest pair
