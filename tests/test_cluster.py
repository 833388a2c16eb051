"""DBSCAN differential tests vs a brute-force O(n^2) reference."""

import numpy as np
import pytest

from rayjoin.functions.cluster import dbscan
from rayjoin.geom.encode import points_geom


def brute_dbscan(ids, x, y, eps, min_pts):
    """Reference DBSCAN with the engine's determinism contract (min core
    row_id = cluster id, border takes min cluster among core neighbors)."""
    n = len(ids)
    d = np.sqrt((x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2)
    adj = d <= eps
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


def run_engine(ids, x, y, eps, min_pts, **kw):
    res = dbscan(points_geom(ids, x, y), eps=eps, min_pts=min_pts, **kw).to_pandas()
    return {
        int(r.row_id): (int(r.cluster_id), bool(r.is_core))
        for r in res.itertuples()
    }


@pytest.mark.parametrize("method,bcast_rows", [
    ("driver", 16_000_000),       # broadcast membership tier
    ("distributed", 16_000_000),  # broadcast tier, distributed components
    ("driver", 0),                # forced hash-join tier
])
def test_dbscan_matches_brute_force(ray_session, method, bcast_rows):
    rng = np.random.default_rng(11)
    n = 300
    x = rng.uniform(0, 80, n)
    y = rng.uniform(0, 80, n)
    ids = (rng.permutation(n).astype(np.int64) * 7 + 3)
    exp = brute_dbscan(ids, x, y, eps=4.0, min_pts=4)
    got = run_engine(ids, x, y, 4.0, 4,
                     components_method=method,
                     core_broadcast_rows=bcast_rows)
    assert got == exp
    # sanity: the instance exercises all three roles
    kinds = {(c == -1, ic) for c, ic in exp.values()}
    assert (True, False) in kinds and (False, True) in kinds


def test_dbscan_all_noise(ray_session):
    # far-apart points, min_pts 2 -> no cores, everything noise
    ids = np.arange(5, dtype=np.int64)
    x = np.arange(5) * 100.0
    y = np.zeros(5)
    got = run_engine(ids, x, y, 1.0, 2)
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
    members = {}
    for a in ci:
        members.setdefault(find(a), []).append(a)
    lab = {}
    for ms in members.values():
        m = min(int(ids[i]) for i in ms)
        for i in ms:
            lab[i] = m
    exp = {}
    for i in range(n):
        if core[i]:
            exp[int(ids[i])] = (lab[i], True)
        else:
            cand = [lab[j] for j in ci if adj[i, j]]
            exp[int(ids[i])] = (min(cand), False) if cand else (-1, False)

    got = run_engine(ids, lon, lat, D, min_pts, metric="geodesic")
    assert got == exp
    kinds = {(c == -1, ic) for c, ic in exp.values()}
    assert (False, True) in kinds  # clusters exist near pole/antimeridian


@pytest.mark.parametrize("tier_kw", [{}, {"core_broadcast_rows": 0}],
                         ids=["broadcast", "join"])
def test_st_dbscan_splits_temporal_episodes(ray_session, tier_kw):
    """Two co-located bursts separated in time: spatial DBSCAN sees one
    cluster, ST-DBSCAN two; both time-filter tiers agree."""
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

    st = dbscan(pts, eps=1.0, min_pts=4, times=times, eps_t=5000,
                **tier_kw).to_pandas().sort_values("row_id")
    labels = st["cluster_id"].to_numpy()
    assert (labels >= 0).all()
    early, late = set(labels[:20]), set(labels[20:])
    assert len(early) == 1 and len(late) == 1 and early != late


@pytest.mark.parametrize("missing", [7, 39], ids=["inner_id", "max_id"])
@pytest.mark.parametrize("tier_kw", [{}, {"core_broadcast_rows": 0}],
                         ids=["broadcast", "join"])
def test_st_dbscan_times_missing_row_id_raises(ray_session, tier_kw, missing):
    """A point without a timestamp fails loudly, with the same error, on both
    time-filter tiers, whether its id sits inside the sorted id range or past
    its end.  The error is raised in a Ray task, which wraps it."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(62)
    ids = np.arange(40, dtype=np.int64)
    pts = points_geom(ids, rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
    keep = ids != missing
    times = ray.data.from_arrow(pa.table({
        "row_id": pa.array(ids[keep]), "t": pa.array(ids[keep] * 10)}))
    with pytest.raises(Exception, match=f"TimesMissingRowId: times missing row_id {missing}"):
        dbscan(pts, eps=0.5, min_pts=3, times=times, eps_t=100, **tier_kw).materialize()
