"""Geodesic proximity and kNN joins vs brute-force haversine, incl. the
hard zones (polar caps, antimeridian seam) where the cap boxes go full
longitude or split in two."""

import numpy as np
import pytest

from rayjoin.geom.encode import points_geom
from rayjoin.join.geodesic import (
    EARTH_RADIUS_M,
    _hav,
    geodesic_proximity_map,
    hav_threshold,
)


@pytest.mark.usefixtures("ray_session")
def test_geodesic_prox_matches_brute_force():
    """Brute-force pairs at D = 0, 700 km, pi R and beyond (every cap is the
    whole sphere), with smalls exactly on the poles and on the +-180 seam."""
    rng = np.random.default_rng(3)
    nb, ns = 800, 150
    lab = np.concatenate([rng.uniform(-89.9, 89.9, nb - 100),
                          rng.uniform(85, 90, 50), rng.uniform(-30, 30, 50)])
    lob = np.concatenate([rng.uniform(-180, 180, nb - 60),
                          rng.uniform(178, 180, 30), rng.uniform(-180, -178, 30)])
    las = np.concatenate([rng.uniform(-89.9, 89.9, ns - 30),
                          rng.uniform(85, 90, 15), rng.uniform(-30, 30, 15)])
    los = np.concatenate([rng.uniform(-180, 180, ns - 16),
                          rng.uniform(178, 180, 8), rng.uniform(-180, -178, 8)])
    # smalls on the poles and the seam; bigs on some smalls, so D = 0 pairs
    las = np.concatenate([las, [90.0, 90.0, -90.0, 0.0, 10.0, -89.5]])
    los = np.concatenate([los, [0.0, 123.0, -45.0, 180.0, -180.0, 180.0]])
    lab = np.concatenate([lab, las[::10], [90.0, -90.0, 0.0]])
    lob = np.concatenate([lob, los[::10], [-77.0, 45.0, -180.0]])
    nb, ns = lab.size, las.size
    idb = np.arange(nb, dtype=np.int64)
    ids = np.arange(ns, dtype=np.int64) + 100000
    h = _hav(lab[:, None], lob[:, None], las[None, :], los[None, :])
    for D in (0.0, 700_000.0, np.pi * EARTH_RADIUS_M, 21_000_000.0):
        bi, si = np.nonzero(h <= hav_threshold(D))
        exp = set(zip(idb[bi].tolist(), ids[si].tolist()))

        res = geodesic_proximity_map(
            points_geom(idb, lob, lab), points_geom(ids, los, las), max_meters=D
        ).to_pandas()
        got = list(zip(res.big_row_id.tolist(), res.small_row_id.tolist()))
        assert set(got) == exp and len(got) == len(exp), D
        assert len(exp) >= {0.0: 16, 700_000.0: 500}.get(D, nb * ns // 2)

        # hav is bit-identical to the direct computation; distance_m consistent
        hv = h[res.big_row_id.to_numpy(), res.small_row_id.to_numpy() - 100000]
        assert np.array_equal(res.hav.to_numpy().view(np.int64), hv.view(np.int64))
        d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(hv, 1.0)))
        np.testing.assert_allclose(res.distance_m.to_numpy(), d, rtol=1e-12)
        assert (res.distance_m.to_numpy() <= D * (1 + 1e-12)).all()


@pytest.mark.usefixtures("ray_session")
def test_geodesic_prox_antimeridian_pair():
    # 179.9W and 179.9E at the equator are ~22 km apart, not ~39,970 km
    big = points_geom(np.array([1], np.int64), np.array([-179.9]), np.array([0.0]))
    small = points_geom(np.array([2], np.int64), np.array([179.9]), np.array([0.0]))
    res = geodesic_proximity_map(big, small, max_meters=25_000.0).to_pandas()
    assert len(res) == 1 and res.distance_m[0] < 25_000

    res2 = geodesic_proximity_map(big, small, max_meters=20_000.0).to_pandas()
    assert len(res2) == 0


@pytest.mark.usefixtures("ray_session")
def test_geodesic_prox_polar_pair():
    # two points at lat 89.95, opposite lons: ~11 km over the pole, while
    # naive planar dlon says "half a world apart"
    big = points_geom(np.array([1], np.int64), np.array([0.0]), np.array([89.95]))
    small = points_geom(np.array([2], np.int64), np.array([180.0]), np.array([89.95]))
    res = geodesic_proximity_map(big, small, max_meters=12_000.0).to_pandas()
    assert len(res) == 1

    res2 = geodesic_proximity_map(big, small, max_meters=10_000.0).to_pandas()
    assert len(res2) == 0


@pytest.mark.usefixtures("ray_session")
def test_geodesic_prox_rejects_bad_distance():
    p = points_geom(np.array([1], np.int64), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        geodesic_proximity_map(p, p, max_meters=float("nan"))


@pytest.mark.usefixtures("ray_session")
def test_geodesic_knn_matches_brute_force():
    from rayjoin.join.geodesic import geodesic_knn_join

    rng = np.random.default_rng(9)
    nb, ns = 500, 80
    lab = rng.uniform(-89, 89, nb)
    lob = rng.uniform(-180, 180, nb)
    las = rng.uniform(-89, 89, ns)
    los = rng.uniform(-180, 180, ns)
    idb = np.arange(nb, dtype=np.int64)
    ids = rng.permutation(ns).astype(np.int64) * 5  # non-contiguous ids
    k = 4
    res = geodesic_knn_join(
        points_geom(idb, lob, lab), points_geom(ids, los, las), k=k
    ).to_pandas()
    assert len(res) == nb * k

    h = _hav(lab[:, None], lob[:, None], las[None, :], los[None, :])
    id_order = np.argsort(ids)
    for b in rng.integers(0, nb, 40):
        hb = h[b][id_order]
        top = np.argsort(hb, kind="stable")[:k]
        exp_ids = ids[id_order][top]
        sub = res[res.big_row_id == idb[b]].sort_values("knn_rank")
        assert list(sub.small_row_id) == list(exp_ids)
        assert np.array_equal(
            sub.hav.to_numpy().view(np.int64), hb[top].view(np.int64)
        )


@pytest.mark.usefixtures("ray_session")
def test_geodesic_knn_radius_cap_ranks_within_radius():
    from rayjoin.join.geodesic import geodesic_knn_join

    # one big at origin; smalls at ~111 km per degree of lon on the equator
    big = points_geom(np.array([0], np.int64), np.array([0.0]), np.array([0.0]))
    small = points_geom(
        np.array([1, 2, 3, 4], np.int64),
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.zeros(4),
    )
    res = geodesic_knn_join(big, small, k=3, max_meters=250_000.0).to_pandas()
    # only the 1- and 2-degree smalls are within 250 km
    assert list(res.sort_values("knn_rank").small_row_id) == [1, 2]
    assert list(res.sort_values("knn_rank").knn_rank) == [0, 1]


@pytest.mark.usefixtures("ray_session")
def test_polyline_chord_length_reference():
    from rayjoin.geom.encode import LINESTRING, _geom_table, pack_single_rings
    from rayjoin.join.geodesic import polyline_chord_length

    # two tracks: equator hop 1 degree (known chord), single vertex (0)
    flat = np.array([
        [0.0, 0.0, 1.0, 0.0, 2.0, 0.0],   # two 1-degree equator segments
    ]).ravel()
    t1 = _geom_table(np.array([7], np.int64), LINESTRING,
                     pack_single_rings(flat, 6))
    got = polyline_chord_length(t1).to_pandas()
    h = np.sin(np.radians(1.0) / 2) ** 2
    term = np.floor(1_000_000 * ((2.0 * 6_371_000.0) * np.sqrt(h)))
    assert got.length_micro[0] == 2 * int(term)
    assert got.n_vertices[0] == 3

    t2 = _geom_table(np.array([8], np.int64), LINESTRING,
                     pack_single_rings(np.array([5.0, 5.0]), 2))
    got2 = polyline_chord_length(t2).to_pandas()
    assert got2.length_micro[0] == 0 and got2.n_vertices[0] == 1


def _raises(err, match, run):
    """``run()`` raises ``err`` with a message matching ``match``; raised in
    a probe task it arrives as Ray's ``RayTaskError``, which names it."""
    with pytest.raises(Exception, match=match) as info:
        run()
    assert isinstance(info.value, err) or f"{err.__name__}: " in str(info.value)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("side", ["big", "small"])
@pytest.mark.parametrize("case", ["non_finite", "not_point", "lat", "lon_wrap"])
def test_geodesic_input_contract(case, side):
    """Either side: a non-finite coordinate raises BadCoordinateValue, a
    non-point geometry or |lat| > 90 a ValueError; a finite lon outside
    [-180, 180] is a lon like any other (hav is periodic in it)."""
    import pyarrow as pa
    import ray.data

    from rayjoin.config import BadCoordinateValue
    from rayjoin.geom.encode import rects_geom
    from rayjoin.join.geodesic import geodesic_knn_join

    rng = np.random.default_rng(11)
    n = 60
    ids = np.arange(n, dtype=np.int64)
    lon, lat = rng.uniform(-180, 180, n), rng.uniform(-89, 89, n)
    lon2, lat2 = lon.copy(), lat.copy()
    if case == "non_finite":
        lat2[3] = np.nan
    elif case == "lat":
        lat2[3] = -90.5
    elif case == "lon_wrap":
        lon2 += 360.0 * rng.choice([-3, -1, 1, 2], n)
    odd = points_geom(ids, lon2, lat2)
    if case == "not_point":
        one = np.ones(1)
        odd = pa.concat_tables([odd, rects_geom(np.array([99]), one, one, 2 * one, 2 * one)])
    good = points_geom(ids + 1000, lon[::-1], lat[::-1])
    big, small = (odd, good) if side == "big" else (good, odd)
    lob, lab, los, las = ((lon2, lat2, lon[::-1], lat[::-1]) if side == "big"
                          else (lon[::-1], lat[::-1], lon2, lat2))
    idb, ids_s = (ids, ids + 1000) if side == "big" else (ids + 1000, ids)

    def prox():
        return geodesic_proximity_map(ray.data.from_arrow(big), small,
                                      max_meters=3_000_000.0).to_pandas()

    def knn():
        return geodesic_knn_join(ray.data.from_arrow(big), small, k=3).to_pandas()

    if case != "lon_wrap":
        err, match = {"non_finite": (BadCoordinateValue, "non-finite"),
                      "not_point": (ValueError, "row_id 99 is a Rect"),
                      "lat": (ValueError, "latitude -90.5 of row_id 3")}[case]
        _raises(err, match, prox)
        _raises(err, match, knn)
        return
    h = _hav(lab[:, None], lob[:, None], las[None, :], los[None, :])
    bi, si = np.nonzero(h <= hav_threshold(3_000_000.0))
    res = prox()
    assert sorted(zip(res.big_row_id, res.small_row_id)) == sorted(zip(idb[bi], ids_s[si]))
    by_id = np.argsort(ids_s)
    top = np.argsort(h[:, by_id], axis=1, kind="stable")[:, :3]
    exp = sorted((int(idb[b]), int(ids_s[by_id][t]), r)
                 for b in range(n) for r, t in enumerate(top[b]))
    res = knn()
    assert sorted(zip(res.big_row_id, res.small_row_id, res.knn_rank)) == exp


def _seam_and_polar_points(n, seed):
    """Points spread over the sphere plus clusters on both poles and both
    sides of the +-180 seam."""
    rng = np.random.default_rng(seed)
    q = n // 4
    lat = np.concatenate([rng.uniform(-90, 90, n - 3 * q), rng.uniform(84, 90, q),
                          rng.uniform(-90, -84, q), rng.uniform(-60, 60, q)])
    lon = np.concatenate([rng.uniform(-180, 180, n - q),
                          rng.choice([-1.0, 1.0], q) * rng.uniform(177, 180, q)])
    return lon, lat


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["prox", "knn"])
def test_geodesic_sharded_matches_one_shard(force_shards, case):
    """Forced K = 4: the geodesic proximity map and kNN give the one-shard
    rows, which equal brute force.  Seam-crossing and polar caps make some
    prox shard span every longitude; kNN neighbours cross the seam between
    the first and the last shard."""
    import ray.data

    from functools import partial

    from rayjoin.join.broadcast import _build_shards
    from rayjoin.join.geodesic import SphereIndex, cap_boxes, geodesic_knn_join

    lob, lab = _seam_and_polar_points(500, 21)
    los, las = _seam_and_polar_points(120, 22)
    idb = np.arange(lob.size, dtype=np.int64)
    ids = np.arange(las.size, dtype=np.int64) + 5000
    big = ray.data.from_arrow(points_geom(idb, lob, lab)).repartition(3)
    small_t = points_geom(ids, los, las)
    D = 900_000.0

    def run():
        small = ray.data.from_arrow(small_t).repartition(2)
        if case == "prox":
            out = geodesic_proximity_map(big, small, max_meters=D)
        else:
            out = geodesic_knn_join(big, small, k=3)
        return sorted(map(tuple, out.to_pandas().itertuples(index=False)))

    assert len(_build_shards(small_t, partial(SphereIndex, max_meters=D))) == 1
    exp = run()
    h = _hav(lab[:, None], lob[:, None], las[None, :], los[None, :])
    if case == "prox":
        bi, si = np.nonzero(h <= hav_threshold(D))
        assert sorted((b, s) for b, s, *_ in exp) == sorted(zip(idb[bi], ids[si]))
    else:
        top = np.argsort(h, axis=1, kind="stable")[:, :3]
        assert sorted((b, s, r) for b, s, _, _, r in exp) == sorted(
            (int(idb[b]), int(ids[t]), r) for b in range(idb.size) for r, t in enumerate(top[b]))
    spy = force_shards(las.size, 4)
    got = run()
    assert got == exp and len(got) == len(set(got))
    cuts = spy.cuts[0]
    assert cuts.size == 3 and len(spy.cuts) == 4
    shard = np.searchsorted(cuts, los, side="right")
    boxes, owner = cap_boxes(los, las, D / EARTH_RADIUS_M if case == "prox" else 0.0)
    spans = [(boxes[shard[owner] == i, 0].min(), boxes[shard[owner] == i, 2].max())
             for i in range(4)]
    if case == "prox":
        assert (-180.0, 180.0) in spans
    else:  # the seam clusters sit in the first and the last shard
        assert spans[0][0] < -177.0 and spans[-1][1] > 177.0
