"""Distributed joins (broadcast path) vs the naive oracle — the Ray analog of
the reference's engine-vs-slow proptests (/root/reference/src/proptests.rs:109-144)."""

import numpy as np
import pytest

from rayjoin.config import Config, Interaction
from rayjoin.fixtures import mixed_random, pillboxes, unit_cases
from rayjoin.geom import encode
from rayjoin.oracle import slow_knn, slow_prox_map, slow_spatial_join


def _ds(geoms, blocks=3):
    import ray.data

    return ray.data.from_arrow(encode.geoms_to_table(geoms)).repartition(blocks)


def _sorted_rows(ds):
    df = ds.to_pandas()
    cols = list(df.columns)
    return sorted(map(tuple, df[cols].itertuples(index=False)))


@pytest.mark.usefixtures("ray_session")
def test_unit_cases_distributed():
    from rayjoin.join.broadcast import SpatialIndex

    for name, small, big, cfg, kind in unit_cases():
        idx = SpatialIndex(encode.geoms_to_table(small), Config(**cfg))
        if kind == "prox":
            rows = _sorted_rows(idx.proximity_map(_ds(big, 1)))
            exp = slow_prox_map(small, big, cfg.get("max_distance", 0.0))
        elif kind == "sjoin_intersects":
            rows = _sorted_rows(idx.spatial_join(_ds(big, 1), Interaction.INTERSECTS))
            exp = slow_spatial_join(small, big, Interaction.INTERSECTS)
        else:
            rows = _sorted_rows(idx.spatial_join(_ds(big, 1), Interaction.CONTAINS))
            exp = slow_spatial_join(small, big, Interaction.CONTAINS)
        assert rows == [tuple(r) for r in exp], name


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("interaction", list(Interaction))
def test_spatial_join_vs_oracle(interaction):
    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(40, seed=21)
    big = mixed_random(60, seed=22)
    idx = SpatialIndex(encode.geoms_to_table(small))
    got = _sorted_rows(idx.spatial_join(_ds(big), interaction))
    exp = slow_spatial_join(small, big, interaction)
    assert got == [tuple(r) for r in exp]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("max_distance", [0.0, 0.5, 4.0])
def test_prox_map_vs_oracle(max_distance):
    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(30, seed=31)
    big = mixed_random(40, seed=32)
    idx = SpatialIndex(encode.geoms_to_table(small), Config(max_distance=max_distance))
    got = _sorted_rows(idx.proximity_map(_ds(big)))
    exp = slow_prox_map(small, big, max_distance)
    assert got == [tuple(r) for r in exp]  # distances compared exactly


@pytest.mark.usefixtures("ray_session")
def test_knn_vs_oracle():
    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(35, seed=41)
    big = mixed_random(25, seed=42)
    for k, maxd in [(1, float("inf")), (3, float("inf")), (5, 1.0), (100, float("inf"))]:
        idx = SpatialIndex(encode.geoms_to_table(small))
        df = idx.knn_join(_ds(big), k=k, max_distance=maxd).to_pandas()
        got = sorted(map(tuple, df[["big_row_id", "small_row_id", "distance"]].itertuples(index=False)),
                     key=lambda r: (r[0], r[2], r[1]))
        exp = slow_knn(small, big, k, maxd)
        assert got == exp, (k, maxd)
        # rank column is 0..k-1 per big, ordered by (distance, small_row_id)
        for b, grp in df.groupby("big_row_id"):
            grp = grp.sort_values(["distance", "small_row_id"]).reset_index(drop=True)
            assert list(grp["rank"]) == list(range(len(grp)))


@pytest.mark.usefixtures("ray_session")
def test_pillbox_self_join_distributed():
    from rayjoin.join.broadcast import SpatialIndex

    pb = pillboxes(60, seed=5, width=400.0, height=200.0)
    t = encode.geoms_to_table(pb)
    idx = SpatialIndex(t)
    got = _sorted_rows(idx.spatial_join(_ds(pb), Interaction.INTERSECTS))
    exp = slow_spatial_join(pb, pb, Interaction.INTERSECTS)
    assert got == [tuple(r) for r in exp]


@pytest.mark.usefixtures("ray_session")
def test_validation_error_propagates():
    import ray

    from rayjoin.config import SpatialJoinError
    from rayjoin.geom.spec import LineString, Point
    from rayjoin.join.broadcast import SpatialIndex

    with pytest.raises(SpatialJoinError):
        SpatialIndex(encode.geoms_to_table([LineString(((0.0, 0.0),))]))
    idx = SpatialIndex(encode.geoms_to_table([Point(0.0, 0.0)]))
    with pytest.raises(Exception):  # raised inside the actor -> RayTaskError
        idx.spatial_join(_ds([LineString(((1.0, 1.0),))], 1), Interaction.INTERSECTS).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_degenerate_corpus_distributed():
    """The reference's proptest regression corpus through the full
    broadcast AND partitioned paths (engine == oracle on its own inputs)."""
    from rayjoin.fixtures import degenerate_cases
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_proximity_map

    for name, small, big, maxd in degenerate_cases():
        if big is None:
            big = small
        exp = slow_prox_map(small, big, maxd)
        idx = SpatialIndex(encode.geoms_to_table(small), Config(max_distance=maxd))
        got = _sorted_rows(idx.proximity_map(_ds(big, 1)))
        assert got == [tuple(r) for r in exp], f"broadcast:{name}"
        par = _sorted_rows(
            partitioned_proximity_map(_ds(big, 1), _ds(small, 1), Config(max_distance=maxd))
        )
        assert par == [tuple(r) for r in exp], f"partitioned:{name}"


@pytest.mark.usefixtures("ray_session")
def test_unit_cases_through_partitioned_path():
    from rayjoin.join.partitioned import partitioned_proximity_map, partitioned_spatial_join

    for name, small, big, cfg, kind in unit_cases():
        if kind == "prox":
            got = _sorted_rows(
                partitioned_proximity_map(_ds(big, 1), _ds(small, 1), Config(**cfg))
            )
            exp = slow_prox_map(small, big, cfg.get("max_distance", 0.0))
        else:
            inter = Interaction.INTERSECTS if kind == "sjoin_intersects" else Interaction.CONTAINS
            got = _sorted_rows(
                partitioned_spatial_join(_ds(big, 1), _ds(small, 1), inter)
            )
            exp = slow_spatial_join(small, big, inter)
        assert got == [tuple(r) for r in exp], name


@pytest.mark.usefixtures("ray_session")
def test_knn_points_large_vs_numpy():
    """500x500 point kNN against a direct numpy oracle (bigger than the
    O(n^2) python oracle can comfortably cover)."""
    from rayjoin.geom.spec import Point
    from rayjoin.join.broadcast import SpatialIndex

    rng = np.random.default_rng(9)
    small = [Point(x, y) for x, y in rng.uniform(-100, 100, (500, 2))]
    big = [Point(x, y) for x, y in rng.uniform(-100, 100, (500, 2))]
    k = 7
    df = SpatialIndex(encode.geoms_to_table(small)).knn_join(_ds(big, 4), k=k).to_pandas()
    S = np.array([[p.x, p.y] for p in small])
    B = np.array([[p.x, p.y] for p in big])
    D = np.sqrt(((B[:, None, :] - S[None, :, :]) ** 2).sum(-1))
    for b in range(500):
        order = np.lexsort((np.arange(500), D[b]))[:k]
        grp = df[df["big_row_id"] == b].sort_values("rank")
        assert grp["small_row_id"].tolist() == order.tolist(), b
        # distances bit-identical to sqrt(dx*dx+dy*dy)
        dx = B[b, 0] - S[order, 0]
        dy = B[b, 1] - S[order, 1]
        assert grp["distance"].tolist() == np.sqrt(dx * dx + dy * dy).tolist()


@pytest.mark.usefixtures("ray_session")
def test_knn_join_linestring_small_side_nearest_road():
    """kNN join with a LINESTRING small side (map-matching): nearest road
    per point matches a brute-force min-over-segments of the exact
    point-segment kernel, distances bit-identical."""
    import ray.data

    from rayjoin.geom.encode import LINESTRING, _geom_table, pack_single_rings, points_geom
    from rayjoin.geom.primitives import v_point_seg_distance
    from rayjoin.join.broadcast import SpatialIndex

    rng = np.random.default_rng(4)
    nl, npnt, nv = 25, 200, 4
    verts = rng.integers(-50, 50, (nl, nv, 2)).astype(np.float64)
    lines = _geom_table(np.arange(nl, dtype=np.int64) + 1000, LINESTRING,
                        pack_single_rings(verts.reshape(nl, -1).ravel(), 2 * nv))
    px = rng.uniform(-60, 60, npnt)
    py = rng.uniform(-60, 60, npnt)
    pts = points_geom(np.arange(npnt, dtype=np.int64), px, py)

    res = SpatialIndex(lines).knn_join(ray.data.from_arrow(pts), k=1).to_pandas()
    res.columns = ["big_row_id", "small_row_id", "distance", "knn_rank"]
    assert len(res) == npnt

    for i in range(npnt):
        dists = np.array([
            min(v_point_seg_distance(px[i], py[i], L[j, 0], L[j, 1],
                                     L[j + 1, 0], L[j + 1, 1])
                for j in range(nv - 1))
            for L in verts
        ])
        best = np.lexsort((np.arange(nl) + 1000, dists))[0]
        row = res[res.big_row_id == i].iloc[0]
        assert row.small_row_id == best + 1000
        assert np.float64(row.distance).view(np.int64) == \
            np.float64(dists[best]).view(np.int64)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("force_pbsm", [False, True])
def test_spatial_anti_join_vs_oracle(force_shards, force_pbsm):
    """Anti join = big ids minus the oracle's matched ids, identical with
    one shard and with forced K = 2."""
    from rayjoin.join.auto import spatial_anti_join

    small = mixed_random(40, seed=31)
    big = mixed_random(60, seed=32)
    exp_pairs = slow_spatial_join(small, big, Interaction.INTERSECTS)
    matched = {b for b, _ in exp_pairs}
    exp = sorted(set(range(len(big))) - matched)
    assert exp and matched  # non-vacuous both ways

    spy = force_shards(len(small), 2) if force_pbsm else None
    out = spatial_anti_join(
        _ds(big), encode.geoms_to_table(small), Interaction.INTERSECTS
    ).to_pandas()
    assert sorted(out.big_row_id.tolist()) == exp
    if spy is not None:
        assert len(spy.cuts) == 2


@pytest.mark.usefixtures("ray_session")
def test_prox_varradius_vs_per_radius_oracle():
    """Per-row-radius proximity: the result must equal the UNION over radii r
    of (pairs from a scalar-radius run restricted to smalls with radius r) —
    checked directly against slow_prox_map per distinct radius."""
    import pyarrow as pa

    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(30, seed=41)
    big = mixed_random(40, seed=42)
    radii = np.asarray([(i % 4) * 0.7 for i in range(len(small))], np.float64)
    st = encode.geoms_to_table(small)
    st = st.append_column("radius", pa.array(radii, pa.float64()))
    idx = SpatialIndex(st, Config(), radius_col="radius")
    got = _sorted_rows(idx.proximity_map(_ds(big)))

    exp = []
    for r in np.unique(radii):
        rows = slow_prox_map(small, big, float(r))
        keep_ids = {int(sid) for sid, rad in enumerate(radii) if rad == r}
        exp.extend(t for t in map(tuple, rows) if t[1] in keep_ids)
    assert got == sorted(exp)


@pytest.mark.usefixtures("ray_session")
def test_prox_varradius_constant_equals_scalar_config():
    import pyarrow as pa

    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(25, seed=51)
    big = mixed_random(35, seed=52)
    st = encode.geoms_to_table(small)
    st_r = st.append_column(
        "radius", pa.array(np.full(len(small), 1.5), pa.float64()))
    got = _sorted_rows(
        SpatialIndex(st_r, Config(), radius_col="radius").proximity_map(_ds(big)))
    ref = _sorted_rows(
        SpatialIndex(st, Config(max_distance=1.5)).proximity_map(_ds(big)))
    assert got == ref


@pytest.mark.usefixtures("ray_session")
def test_prox_varradius_negative_radius_raises():
    import pyarrow as pa

    from rayjoin.config import BadMaxDistance
    from rayjoin.join.broadcast import SpatialIndex

    small = mixed_random(5, seed=61)
    st = encode.geoms_to_table(small)
    st = st.append_column(
        "radius", pa.array([1.0, -0.5, 2.0, 0.0, 3.0], pa.float64()))
    with pytest.raises(BadMaxDistance):
        SpatialIndex(st, Config(), radius_col="radius")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 2])
def test_build_errors_raise_at_construction(force_shards, k):
    """An in-memory small side raises its build errors from the
    ``SpatialIndex`` constructor, with one shard (built on the driver) and
    with forced K = 2 (built in tasks: Ray's ``RayTaskError(cause)`` is an
    instance of the cause)."""
    import pyarrow as pa

    from rayjoin.config import BadMaxDistance, LineStringTooSmall
    from rayjoin.geom.spec import LineString
    from rayjoin.join.broadcast import SpatialIndex

    short = encode.geoms_to_table(mixed_random(5, seed=61) + [LineString(((0.0, 0.0),))])
    radius = encode.geoms_to_table(mixed_random(6, seed=62)).append_column(
        "radius", pa.array([1.0, 0.5, -0.5, 2.0, 0.0, 3.0], pa.float64()))
    spy = force_shards(6, k) if k > 1 else None
    with pytest.raises(LineStringTooSmall):
        SpatialIndex(short)
    with pytest.raises(BadMaxDistance):
        SpatialIndex(radius, Config(), radius_col="radius")
    if spy is not None:  # both sides were built in K tasks
        assert len(spy.cuts) == 2 * k
