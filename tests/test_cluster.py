"""DBSCAN differential tests vs a brute-force O(n^2) reference."""

import numpy as np
import pytest

from rayjoin.functions.cluster import dbscan
from rayjoin.geom.encode import points_geom


def brute_dbscan(ids, x, y, eps, min_pts):
    """Reference DBSCAN with the engine's determinism contract (min core
    row_id = cluster id, border takes min cluster among core neighbors)."""
    d = np.sqrt((x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2)
    return brute_from_adj(ids, d <= eps, min_pts)


def brute_from_adj(ids, adj, min_pts):
    """``brute_dbscan`` over a given neighbor matrix (self-inclusive)."""
    n = len(ids)
    core = adj.sum(1) >= min_pts

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ci = np.where(core)[0]
    for a in ci:
        for b in ci:
            if adj[a, b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    comp_members = {}
    for a in ci:
        comp_members.setdefault(find(a), []).append(a)
    lab = {}
    for members in comp_members.values():
        m = min(int(ids[i]) for i in members)
        for i in members:
            lab[i] = m
    out = {}
    for i in range(n):
        if core[i]:
            out[int(ids[i])] = (lab[i], True)
        else:
            cand = [lab[j] for j in ci if adj[i, j]]
            out[int(ids[i])] = (min(cand), False) if cand else (-1, False)
    return out


def brute_st_dbscan(ids, x, y, t, eps, eps_t, min_pts):
    d = np.sqrt((x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2)
    return brute_from_adj(ids, (d <= eps) & (np.abs(t[:, None] - t[None, :]) <= eps_t),
                          min_pts)


def run_engine(ids, x, y, eps, min_pts, **kw):
    res = dbscan(points_geom(ids, x, y), eps=eps, min_pts=min_pts, **kw).to_pandas()
    return {
        int(r.row_id): (int(r.cluster_id), bool(r.is_core))
        for r in res.itertuples()
    }


@pytest.mark.parametrize("method,k", [
    ("driver", 1),
    ("distributed", 1),  # distributed components
    ("driver", 3),       # every lookup side sharded
])
def test_dbscan_matches_brute_force(ray_session, force_shards, method, k):
    rng = np.random.default_rng(11)
    n = 300
    x = rng.uniform(0, 80, n)
    y = rng.uniform(0, 80, n)
    ids = (rng.permutation(n).astype(np.int64) * 7 + 3)
    exp = brute_dbscan(ids, x, y, eps=4.0, min_pts=4)
    if k > 1:
        spy = force_shards(n, k)
    got = run_engine(ids, x, y, 4.0, 4, components_method=method)
    assert got == exp
    if k > 1:
        assert spy.sharded_key_lookup()
    # sanity: the instance exercises all three roles
    kinds = {(c == -1, ic) for c, ic in exp.values()}
    assert (True, False) in kinds and (False, True) in kinds


def test_dbscan_all_noise(ray_session):
    # far-apart points, min_pts 2 -> no cores, everything noise (an empty
    # core graph, whatever the components plan)
    ids = np.arange(5, dtype=np.int64)
    x = np.arange(5) * 100.0
    y = np.zeros(5)
    for method in ("auto", "distributed"):
        got = run_engine(ids, x, y, 1.0, 2, components_method=method)
        assert got == {i: (-1, False) for i in range(5)}


def test_dbscan_min_pts_one_every_point_core(ray_session):
    # min_pts=1: every point is core (self-neighborhood); far-apart points
    # become singleton clusters labelled by themselves
    ids = np.array([9, 4, 30], dtype=np.int64)
    x = np.array([0.0, 50.0, 100.0])
    y = np.zeros(3)
    got = run_engine(ids, x, y, 1.0, 1)
    assert got == {9: (9, True), 4: (4, True), 30: (30, True)}


def test_dbscan_duplicate_coordinates_cluster(ray_session):
    # k coincident points: all within eps of each other -> one cluster,
    # labelled by the min id, all core once k >= min_pts
    ids = np.array([12, 7, 22, 5], dtype=np.int64)
    x = np.full(4, 3.25)
    y = np.full(4, -1.5)
    got = run_engine(ids, x, y, 0.5, 4)
    assert got == {12: (5, True), 7: (5, True), 22: (5, True), 5: (5, True)}


def test_dbscan_border_takes_min_cluster(ray_session):
    # two tight 4-point cores; the point at x=10 reaches exactly ONE core
    # member on each side (2 neighbors + self < min_pts=4 -> border) and
    # joins the MIN cluster id (deterministic tie)
    ids = np.array([100, 101, 102, 103, 200, 201, 202, 203, 999],
                   dtype=np.int64)
    x = np.array([0.0, 0.05, 0.1, 0.15, 19.85, 19.9, 19.95, 20.0, 10.0])
    y = np.zeros(9)
    got = run_engine(ids, x, y, 9.87, 4)
    assert got[999] == (100, False)
    assert got[100] == (100, True) and got[200] == (200, True)
    exp = brute_dbscan(ids, x, y, 9.87, 4)
    assert got == exp


def test_dbscan_rejects_bad_min_pts(ray_session):
    ids = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        dbscan(points_geom(ids, np.zeros(1), np.zeros(1)), eps=1.0, min_pts=0)


def test_dbscan_geodesic_matches_brute_force(ray_session):
    from rayjoin.join.geodesic import _hav, hav_threshold

    rng = np.random.default_rng(23)
    n = 200
    # clusters near the pole and the antimeridian — where planar eps breaks
    lat = np.concatenate([rng.uniform(84, 88, 60), rng.uniform(-10, 10, 100),
                          rng.uniform(-88, -84, 40)])
    lon = np.concatenate([rng.uniform(-180, 180, 60),
                          np.where(rng.random(100) < 0.5,
                                   rng.uniform(176, 180, 100),
                                   rng.uniform(-180, -176, 100)),
                          rng.uniform(-180, 180, 40)])
    ids = rng.permutation(n).astype(np.int64) * 3
    D = 400_000.0
    h = _hav(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    adj = h <= hav_threshold(D)
    min_pts = 4
    exp = brute_from_adj(ids, adj, min_pts)

    got = run_engine(ids, lon, lat, D, min_pts, metric="geodesic")
    assert got == exp
    kinds = {(c == -1, ic) for c, ic in exp.values()}
    assert (False, True) in kinds  # clusters exist near pole/antimeridian


@pytest.mark.parametrize("k", [1, 4])
def test_st_dbscan_splits_temporal_episodes(ray_session, force_shards, k):
    """Two co-located bursts separated in time: spatial DBSCAN sees one
    cluster, ST-DBSCAN two; one lookup shard or several agree."""
    import ray.data

    from rayjoin.functions.cluster import dbscan
    from rayjoin.geom.encode import points_geom

    rng = np.random.default_rng(61)
    n = 40  # 20 early + 20 late, all inside one 0.5-unit blob
    ids = np.arange(n, dtype=np.int64)
    x = 10.0 + rng.uniform(-0.25, 0.25, n)
    y = -5.0 + rng.uniform(-0.25, 0.25, n)
    t = np.where(ids < 20, ids * 10, 100000 + ids * 10).astype(np.int64)
    import pyarrow as pa

    pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
    times = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids), "t": pa.array(t)})).repartition(2)

    plain = dbscan(pts, eps=1.0, min_pts=4).to_pandas()
    assert plain["cluster_id"].nunique() == 1  # one spatial blob

    if k > 1:
        spy = force_shards(n, k)
    st = dbscan(pts, eps=1.0, min_pts=4, times=times,
                eps_t=5000).to_pandas().sort_values("row_id")
    if k > 1:
        assert spy.sharded_key_lookup()
    labels = st["cluster_id"].to_numpy()
    assert (labels >= 0).all()
    early, late = set(labels[:20]), set(labels[20:])
    assert len(early) == 1 and len(late) == 1 and early != late


@pytest.mark.parametrize("missing", [7, 39], ids=["inner_id", "max_id"])
@pytest.mark.parametrize("k", [1, 4])
def test_st_dbscan_times_missing_row_id_raises(ray_session, force_shards, k, missing):
    """A point without a timestamp fails loudly, with the same error, on one
    lookup shard or several, whether its id sits inside the id range or
    past its end.  The error is raised in a Ray task, which wraps it."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(62)
    ids = np.arange(40, dtype=np.int64)
    pts = points_geom(ids, rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
    keep = ids != missing
    times = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids[keep]), "t": pa.array(ids[keep] * 10)}))
    if k > 1:
        spy = force_shards(40, k)
    with pytest.raises(Exception, match=f"TimesMissingRowId: times missing row_id {missing}"):
        dbscan(pts, eps=0.5, min_pts=3, times=times, eps_t=100).materialize()
    if k > 1:
        assert spy.sharded_key_lookup()


def test_spatial_operators_on_one_cpu(tmp_path):
    """Hot-cell blobs, ST-DBSCAN and spatial lag finish on a one-CPU Ray
    session (no hash-join aggregator waits for a CPU) and equal brute
    force.  Run in a fresh interpreter, which owns its own session."""
    import json
    import os
    import subprocess
    import sys

    from test_overlay import brute_hot_components
    from test_spatial_stats import brute_lag

    rng = np.random.default_rng(71)
    n = 120
    ids = rng.permutation(n).astype(np.int64) * 5 + 1
    x = rng.uniform(-60, 60, n)
    y = rng.uniform(-40, 40, n)
    t = rng.integers(0, 400, n).astype(np.int64)
    vals = rng.integers(0, 50, n).astype(np.int64)
    np.savez(tmp_path / "in.npz", ids=ids, x=x, y=y, t=t, vals=vals)
    script = """if 1:
        import json, sys
        import numpy as np
        import pyarrow as pa
        import ray
        import ray.data

        from rayjoin.functions.cluster import dbscan
        from rayjoin.functions.spatial_stats import spatial_lag
        from rayjoin.geom.encode import points_geom
        from rayjoin.pipelines.raster import grid_hot_components

        ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        d = np.load(sys.argv[1] + "/in.npz")
        ids, x, y, t, vals = (d[k] for k in ("ids", "x", "y", "t", "vals"))
        pts = ray.data.from_arrow(points_geom(ids, x, y)).repartition(3)
        xy = ray.data.from_arrow(pa.table({"x": x, "y": y})).repartition(3)
        hot = grid_hot_components(xy, cell_deg=8.0, threshold=2).to_pandas()
        st = dbscan(pts, eps=12.0, min_pts=3, eps_t=150,
                    times=pa.table({"row_id": ids, "t": t})).to_pandas()
        lag = spatial_lag(pts, pa.table({"row_id": ids, "val": vals}),
                          max_distance=15.0).to_pandas()
        ray.shutdown()
        print(json.dumps({
            "hot": [[int(r.cell_id), int(r.blob_id), int(r.n)] for r in hot.itertuples()],
            "st": [[int(r.row_id), int(r.cluster_id), bool(r.is_core)] for r in st.itertuples()],
            "lag": [[int(r.row_id), int(r.val), int(r.nbrs), int(r.lag_sum)]
                    for r in lag.itertuples()]}))
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                         text=True, check=True, timeout=180,
                         env={**os.environ, "PYTHONPATH": root}).stdout
    got = json.loads(out.splitlines()[-1])

    assert {c: (b, m) for c, b, m in got["hot"]} == brute_hot_components(x, y, 8.0, 2)
    assert {i: (c, core) for i, c, core in got["st"]} == \
        brute_st_dbscan(ids, x, y, t, 12.0, 150, 3)
    nbrs, lag = brute_lag(ids, x, y, vals, 15.0)
    assert sorted(map(tuple, got["lag"])) == sorted(zip(ids.tolist(), vals.tolist(), nbrs.tolist(),
                                            lag.tolist()))
