"""Partitioned join paths (the sharded broadcast) ≡ broadcast path ≡ oracle."""

import numpy as np
import pytest

from rayjoin.config import Config, Interaction
from rayjoin.fixtures import mixed_random, pillboxes
from rayjoin.geom import encode
from rayjoin.oracle import slow_prox_map, slow_spatial_join


def _ds(geoms, blocks=3):
    import ray.data

    return ray.data.from_arrow(encode.geoms_to_table(geoms)).repartition(blocks)


def _rows(ds):
    df = ds.to_pandas()
    return sorted(map(tuple, df[list(df.columns)].itertuples(index=False)))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("interaction", list(Interaction))
def test_partitioned_join_matches_oracle(interaction):
    from rayjoin.join.partitioned import partitioned_spatial_join

    small = mixed_random(40, seed=51)
    big = mixed_random(50, seed=52)
    got = _rows(partitioned_spatial_join(_ds(big), _ds(small), interaction))
    exp = slow_spatial_join(small, big, interaction)
    assert got == [tuple(r) for r in exp]


@pytest.mark.usefixtures("ray_session")
def test_partitioned_prox_matches_oracle():
    from rayjoin.join.partitioned import partitioned_proximity_map

    small = mixed_random(30, seed=61)
    big = mixed_random(30, seed=62)
    cfg = Config(max_distance=0.7)
    got = _rows(partitioned_proximity_map(_ds(big), _ds(small), cfg))
    exp = slow_prox_map(small, big, 0.7)
    assert got == [tuple(r) for r in exp]  # exact distances


@pytest.mark.usefixtures("ray_session")
def test_partitioned_matches_broadcast_on_pillboxes():
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_spatial_join

    pb = pillboxes(300, seed=9, width=800.0, height=400.0)
    t = encode.geoms_to_table(pb)
    bro = _rows(SpatialIndex(t).spatial_join(_ds(pb, 4), Interaction.INTERSECTS))
    par = _rows(partitioned_spatial_join(_ds(pb, 4), _ds(pb, 4), Interaction.INTERSECTS))
    assert par == bro
    assert len(par) == len(set(par))  # no pair emitted twice


@pytest.mark.usefixtures("ray_session")
def test_hot_spot_preserves_rows():
    """Skewed input (everything piled onto one point) gives the broadcast
    row set exactly, with no pair emitted twice."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_spatial_join

    rng = np.random.default_rng(4)
    # 300 geoms: 90% share the IDENTICAL center, 10% spread out
    from rayjoin.geom.spec import Rect

    geoms = []
    for i in range(300):
        if i % 10 == 0:
            cx, cy = rng.uniform(0, 100, 2)
        else:
            cx, cy = 50.0, 50.0  # unsplittable hot spot
        w, h = rng.uniform(0.1, 1.0, 2)
        geoms.append(Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    t = encode.geoms_to_table(geoms)
    ds = _ds(geoms, 4)
    par = _rows(partitioned_spatial_join(ds, ds, Interaction.INTERSECTS))
    bro = _rows(SpatialIndex(t).spatial_join(ds, Interaction.INTERSECTS))
    assert par == bro
    assert len(par) == len(set(par))


@pytest.mark.usefixtures("ray_session")
def test_partitioned_equals_broadcast_randomized():
    """Seeded sweep over geometry mixes and interactions: the partitioned
    path must always produce the broadcast row set."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_spatial_join

    rng = np.random.default_rng(123)
    for trial in range(5):
        ns, nb = int(rng.integers(5, 45)), int(rng.integers(5, 45))
        inter = list(Interaction)[trial % 3]
        small = mixed_random(ns, seed=int(rng.integers(1 << 30)))
        big = mixed_random(nb, seed=int(rng.integers(1 << 30)))
        bro = _rows(SpatialIndex(encode.geoms_to_table(small)).spatial_join(_ds(big, 2), inter))
        par = _rows(partitioned_spatial_join(_ds(big, 2), _ds(small, 2), inter))
        assert par == bro, (trial, ns, nb, inter)


@pytest.mark.usefixtures("ray_session")
def test_auto_dispatch(force_shards):
    """auto's join and proximity map give the oracle rows with one shard and
    with forced K = 2."""
    from rayjoin.join.auto import proximity_map, spatial_join

    small = mixed_random(25, seed=91)
    big = mixed_random(25, seed=92)
    exp = [tuple(r) for r in slow_spatial_join(small, big, Interaction.INTERSECTS)]
    got_1 = _rows(spatial_join(_ds(big, 2), _ds(small, 2), Interaction.INTERSECTS))
    spy = force_shards(len(small), 2)
    got_2 = _rows(spatial_join(_ds(big, 2), _ds(small, 2), Interaction.INTERSECTS))
    assert got_1 == exp and got_2 == exp
    exp2 = [tuple(r) for r in slow_prox_map(small, big, 0.5)]
    got2 = _rows(proximity_map(_ds(big, 2), _ds(small, 2), Config(max_distance=0.5)))
    assert got2 == exp2
    assert len(spy.cuts) == 4 and all(c is not None for c in spy.cuts)


@pytest.mark.usefixtures("ray_session")
def test_partitioned_knn_matches_broadcast():
    """Two-large-sides kNN reproduces the broadcast kNN rows bit-exactly
    (same kernels, same (distance, small_row_id) tie rule), with and
    without a distance cap, across geometry mixes."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_knn_join

    rng = np.random.default_rng(77)
    for trial in range(4):
        ns, nb = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        k = int(rng.integers(1, 6))
        cap = float("inf") if trial % 2 == 0 else 0.9
        small = mixed_random(ns, seed=int(rng.integers(1 << 30)))
        big = mixed_random(nb, seed=int(rng.integers(1 << 30)))
        bro = _rows(
            SpatialIndex(encode.geoms_to_table(small)).knn_join(_ds(big, 2), k=k, max_distance=cap)
        )
        par = _rows(
            partitioned_knn_join(_ds(big, 2), _ds(small, 2), k=k, max_distance=cap)
        )
        assert par == bro, (trial, ns, nb, k, cap)


@pytest.mark.usefixtures("ray_session")
def test_partitioned_knn_k_exceeds_smalls():
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_knn_join

    small = mixed_random(3, seed=5)
    big = mixed_random(10, seed=6)
    bro = _rows(SpatialIndex(encode.geoms_to_table(small)).knn_join(_ds(big, 2), k=7))
    par = _rows(partitioned_knn_join(_ds(big, 2), _ds(small, 2), k=7))
    assert par == bro


@pytest.mark.usefixtures("ray_session")
def test_partitioned_with_geos_matches_broadcast():
    """Partitioned with_geos clones the same payloads as the broadcast
    spatial_join_with_geos (row-wise, compared as sorted tuples)."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_spatial_join

    small = mixed_random(25, seed=31)
    big = mixed_random(30, seed=32)

    def rows(ds):
        df = ds.to_pandas()
        df = df.sort_values(["big_row_id", "small_row_id"]).reset_index(drop=True)
        return [
            (r.big_row_id, r.small_row_id, r.big_geom_type, str(r.big_coords),
             r.small_geom_type, str(r.small_coords))
            for r in df.itertuples(index=False)
        ]

    bro = rows(SpatialIndex(encode.geoms_to_table(small)).spatial_join_with_geos(
        _ds(big, 2), Interaction.INTERSECTS))
    par = rows(partitioned_spatial_join(_ds(big, 2), _ds(small, 2),
                                        Interaction.INTERSECTS, with_geos=True))
    assert par == bro and len(par) > 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("small_kind", ["dataset", "table"])
def test_byte_cap_sets_shard_count(force_shards, small_kind):
    """The byte cap alone sets K >= 2, for a Dataset small side (its
    metadata bytes, never an execution of the plan) and for a table; the
    sharded join keeps the oracle rows."""
    from rayjoin.join import auto
    from rayjoin.util import meta_size_bytes

    small = mixed_random(25, seed=91)
    big = mixed_random(25, seed=92)
    if small_kind == "dataset":
        small_side = _ds(small, 2).materialize()
        nb = meta_size_bytes(small_side)
    else:
        small_side = encode.geoms_to_table(small)
        nb = small_side.nbytes
    assert nb  # 25 rows are far under the rows cap: bytes alone set K
    spy = force_shards(nb, 2, by="bytes")
    got = _rows(auto.spatial_join(_ds(big, 2), small_side, Interaction.INTERSECTS))
    assert got == [tuple(r) for r in slow_spatial_join(small, big, Interaction.INTERSECTS)]
    assert len(spy.cuts) == 2 and spy.cuts[0] is not None


def _hot_inputs():
    """Big side: 60 mixed geometries plus 180 small rects on ONE exact center
    (an unsplittable hot cell); small side: 50 mixed geometries plus 6 rects
    over the hot spot, so the hot cell has pairs."""
    from rayjoin.geom.spec import Rect

    rng = np.random.default_rng(29)
    big = mixed_random(60, seed=71)
    for _ in range(180):
        w, h = rng.uniform(0.01, 0.1, 2)
        big.append(Rect(0.25 - w / 2, 0.25 - h / 2, 0.25 + w / 2, 0.25 + h / 2))
    small = mixed_random(50, seed=72)
    for r in rng.uniform(0.02, 0.2, 6):
        small.append(Rect(0.25 - r, 0.25 - r, 0.25 + r, 0.25 + r))
    return big, small


def _parity_plans(case):
    """(partitioned, broadcast) Dataset builders for one parity case."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import (partitioned_knn_join, partitioned_proximity_map,
                                          partitioned_spatial_join)

    if case in ("intersects", "contains", "within"):
        inter = Interaction[case.upper()]
        return (lambda b, s: partitioned_spatial_join(b, s, inter),
                lambda t, b: SpatialIndex(t).spatial_join(b, inter))
    if case == "with_geos":
        return (lambda b, s: partitioned_spatial_join(b, s, Interaction.INTERSECTS,
                                                      with_geos=True),
                lambda t, b: SpatialIndex(t).spatial_join_with_geos(b, Interaction.INTERSECTS))
    if case == "prox":
        cfg = Config(max_distance=0.6)
        return (lambda b, s: partitioned_proximity_map(b, s, cfg),
                lambda t, b: SpatialIndex(t, cfg).proximity_map(b))
    if case.startswith("geo_"):
        return _geo_plans(case)[::-1]
    return (lambda b, s: partitioned_knn_join(b, s, k=3, max_distance=0.8),
            lambda t, b: SpatialIndex(t).knn_join(b, k=3, max_distance=0.8))


def _tuples(ds):
    df = ds.to_pandas()
    return sorted(tuple(str(v) if isinstance(v, np.ndarray) else v for v in r)
                  for r in df.itertuples(index=False))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("case", ["intersects", "contains", "within", "prox", "with_geos", "knn"])
def test_partitioned_matches_broadcast_with_hot_cell(case, blocks):
    """Every partitioned plan gives the broadcast rows on skewed input with a
    hot cell, from one input block per side and from many."""
    big, small = _hot_inputs()
    par, bro = _parity_plans(case)
    small_t = encode.geoms_to_table(small)
    got = _tuples(par(_ds(big, blocks), _ds(small, blocks)))
    exp = _tuples(bro(small_t, _ds(big, blocks)))
    assert got == exp and len(got) > 0
    if case != "knn":
        assert len(got) == len(set(got))  # no pair emitted twice


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("small_side", ["empty", "disjoint"])
@pytest.mark.parametrize("case", ["intersects", "prox", "with_geos", "knn"])
def test_partitioned_no_pairs_keeps_schema(case, small_side):
    """No small row near any big row: zero rows, with the output schema of
    the non-empty case, on the join, prox and kNN paths."""
    import ray.data

    from rayjoin.geom.spec import Rect

    big, _ = _hot_inputs()
    if small_side == "empty":
        small_ds = ray.data.from_arrow(encode.GEOM_SCHEMA.empty_table())
    else:
        small_ds = _ds([Rect(50.0 + i, 50.0, 50.5 + i, 50.5) for i in range(10)], 2)
    par, _ = _parity_plans(case)
    out = par(_ds(big, 4), small_ds)
    cols = ["big_row_id", "small_row_id"]
    cols += {"prox": ["distance"], "knn": ["distance", "rank"],
             "with_geos": ["big_geom_type", "big_coords", "small_geom_type", "small_coords"]
             }.get(case, [])
    assert out.count() == 0
    assert out.schema().names == cols


@pytest.mark.usefixtures("ray_session")
def test_partitioned_knn_disjoint_small_side_unbounded():
    """Far-away small side, no distance cap: every big row still gets its k
    nearest smalls, the broadcast kNN rows."""
    from rayjoin.geom.spec import Rect
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_knn_join

    big, _ = _hot_inputs()
    far = [Rect(50.0 + i, 50.0, 50.5 + i, 50.5) for i in range(10)]
    got = _rows(partitioned_knn_join(_ds(big, 4), _ds(far, 2), k=2))
    exp = _rows(SpatialIndex(encode.geoms_to_table(far)).knn_join(_ds(big, 4), k=2))
    assert got == exp and len(got) == 2 * len(big)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["intersects", "prox", "knn", "geo_prox", "geo_knn"])
def test_partitioned_two_empty_sides(case):
    """Both sides empty: the grid is one cell and every partitioned plan,
    the broadcast plan and the geodesic joins return zero rows with their
    usual schema."""
    import ray.data

    from rayjoin.join.partitioned import GridSpec

    def empty():
        return ray.data.from_arrow(encode.GEOM_SCHEMA.empty_table())

    grid = GridSpec.plan(empty(), empty())
    assert (grid.nx, grid.ny, grid.salts) == (1, 1, {})
    par, bro = _parity_plans(case)
    out = par(empty(), empty())
    out_b = bro(encode.GEOM_SCHEMA.empty_table(), empty())
    assert out.count() == out_b.count() == 0
    cols = ["big_row_id", "small_row_id"] + {"prox": ["distance"],
                                             "knn": ["distance", "rank"]}.get(case, [])
    assert out.schema().names == out_b.schema().names == _GEO_COLS.get(case, cols)


_GEOS_COLS = ["big_geom_type", "big_coords", "small_geom_type", "small_coords"]
_GEO_COLS = {"geo_prox": ["big_row_id", "small_row_id", "hav", "distance_m"],
             "geo_knn": ["big_row_id", "small_row_id", "hav", "distance_m", "knn_rank"]}


def _geo_plans(case):
    """(in-memory small side, Dataset small side) builders of a geodesic
    case, called as ``(table, big)`` and ``(big, small)``."""
    from rayjoin.join.geodesic import geodesic_knn_join, geodesic_proximity_map

    if case == "geo_prox":
        return (lambda t, b: geodesic_proximity_map(b, t, max_meters=500_000.0),
                lambda b, s: geodesic_proximity_map(b, s, max_meters=500_000.0))
    return (lambda t, b: geodesic_knn_join(b, t, k=3),
            lambda b, s: geodesic_knn_join(b, s, k=3))


def _geo_points(n, seed):
    """``n`` lon/lat points as a geometry list."""
    from rayjoin.geom.spec import Point

    rng = np.random.default_rng(seed)
    return [Point(x, y) for x, y in zip(rng.uniform(-180, 180, n), rng.uniform(-90, 90, n))]


def _empty_big_plans(case):
    """(broadcast, partitioned) builders for the empty-big-side cases."""
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.join.partitioned import partitioned_proximity_map, partitioned_spatial_join

    cfg = Config(max_distance=0.5)
    inter = Interaction.INTERSECTS
    if case.startswith("geo_"):
        return _geo_plans(case)
    if case == "intersects":
        return (lambda t, b: SpatialIndex(t).spatial_join(b, inter),
                lambda b, s: partitioned_spatial_join(b, s, inter))
    if case == "prox":
        return (lambda t, b: SpatialIndex(t, cfg).proximity_map(b),
                lambda b, s: partitioned_proximity_map(b, s, cfg))
    if case == "prox_with_geos":
        return (lambda t, b: SpatialIndex(t, cfg).proximity_map_with_geos(b),
                lambda b, s: partitioned_proximity_map(b, s, cfg, with_geos=True))
    return (lambda t, b: SpatialIndex(t).spatial_join_with_geos(b, inter),
            lambda b, s: partitioned_spatial_join(b, s, inter, with_geos=True))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["intersects", "prox", "with_geos", "prox_with_geos",
                                  "geo_prox", "geo_knn"])
def test_empty_big_side_keeps_schema(case):
    """Empty big side, non-empty small side: the broadcast and the
    partitioned plan, and the geodesic joins from an in-memory and a
    Dataset small side, return zero rows with the mode's schema."""
    import ray.data

    small = _geo_points(20, 5) if case in _GEO_COLS else mixed_random(20, seed=5)
    bro, par = _empty_big_plans(case)
    cols = ["big_row_id", "small_row_id"] + (["distance"] if "prox" in case else [])
    cols += _GEOS_COLS if "with_geos" in case else []
    cols = _GEO_COLS.get(case, cols)
    for out in (bro(encode.geoms_to_table(small), ray.data.from_arrow(
                    encode.GEOM_SCHEMA.empty_table())),
                par(ray.data.from_arrow(encode.GEOM_SCHEMA.empty_table()), _ds(small, 2))):
        assert out.count() == 0
        assert out.schema().names == cols


def _sharded_inputs(name):
    if name == "hot":
        big, small = _hot_inputs()
        return big, small, 0.6
    from rayjoin.geom.spec import Point

    # pill-boxes plus a point inside each of every third one, on both sides,
    # so CONTAINS and WITHIN have pairs
    pb = pillboxes(120, seed=12, width=600.0, height=300.0)
    pts = [Point(*np.mean(p.exterior[:-1], axis=0)) for p in pb[::3]]
    return pb + pts, pb + pts, 40.0


def _sharded_plans(case, max_d, knn_k=3):
    """(sharded, config, probe) of one case: ``sharded(big, small)`` runs the
    partitioned entry point, ``probe(index, big)`` the same query on a
    ``SpatialIndex`` built with ``config``.  Prox dilates by ``max_d``;
    capped kNN caps at an eighth of it, which leaves some big rows short
    of 3."""
    from rayjoin.join.partitioned import (partitioned_knn_join, partitioned_proximity_map,
                                          partitioned_spatial_join)

    if case == "prox":
        cfg = Config(max_distance=max_d)
        return (lambda b, s: partitioned_proximity_map(b, s, cfg), cfg,
                lambda idx, b: idx.proximity_map(b))
    if case.startswith("knn"):
        cap = max_d / 8 if case == "knn_capped" else float("inf")
        return (lambda b, s: partitioned_knn_join(b, s, k=knn_k, max_distance=cap), Config(),
                lambda idx, b: idx.knn_join(b, k=knn_k, max_distance=cap))
    inter = Interaction.INTERSECTS if case == "with_geos" else Interaction[case.upper()]
    geos = case == "with_geos"
    return (lambda b, s: partitioned_spatial_join(b, s, inter, with_geos=geos), Config(),
            lambda idx, b: (idx.spatial_join_with_geos(b, inter) if geos
                            else idx.spatial_join(b, inter)))


def _broadcast_rows(small, cfg, probe, big_ds):
    """Rows of the one-shard reference plan.  Build it before forcing K:
    a reference built after would shard too."""
    from rayjoin.join.broadcast import SpatialIndex

    idx = SpatialIndex(encode.geoms_to_table(small), cfg)
    assert len(idx.shards) == 1
    return _tuples(probe(idx, big_ds))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("inputs", ["hot", "pillbox"])
@pytest.mark.parametrize("k", [2, 4, 7])
@pytest.mark.parametrize("case", ["intersects", "contains", "within", "prox", "with_geos",
                                  "knn", "knn_capped", "knn_deep"])
def test_sharded_matches_broadcast(force_shards, case, k, inputs):
    """Forced K > 1: the sharded plan gives the broadcast rows, with small
    rows straddling the slice cuts and big rows meeting several shards'
    dilated extents, and no pair emitted twice.  kNN runs with k=3 uncapped
    and capped, and with k above a shard's row count."""
    from rayjoin.geom.batch import GeomBatch

    big, small, max_d = _sharded_inputs(inputs)
    knn_k = len(small) // k + 1 if case == "knn_deep" else 3
    par, cfg, probe = _sharded_plans(case, max_d, knn_k)
    exp = _broadcast_rows(small, cfg, probe, _ds(big, 3))
    spy = force_shards(len(small), k)
    got = _tuples(par(_ds(big, 3), _ds(small, 2)))
    assert got == exp and len(got) > 0
    assert len(got) == len(set(got))

    cuts = spy.cuts[0]
    assert len(spy.cuts) == cuts.size + 1 >= 2
    sb = GeomBatch.from_arrow(encode.geoms_to_table(small)).bbox
    bb = GeomBatch.from_arrow(encode.geoms_to_table(big)).bbox
    straddle = (sb[:, 0][:, None] < cuts) & (cuts < sb[:, 2][:, None])
    assert straddle.any(), "no small row straddles a slice cut"
    shard = np.searchsorted(cuts, (sb[:, 0] + sb[:, 2]) * 0.5, side="right")
    if case == "knn_deep":
        assert knn_k > np.bincount(shard).min()
    d = max_d if case == "prox" else 0.0
    met = np.zeros(len(big), np.int64)
    for i in np.unique(shard):
        e = sb[shard == i]
        x0, y0 = e[:, 0].min() - d, e[:, 1].min() - d
        x1, y1 = e[:, 2].max() + d, e[:, 3].max() + d
        met += ~((bb[:, 0] > x1) | (bb[:, 2] < x0) | (bb[:, 1] > y1) | (bb[:, 3] < y0))
    assert met.max() >= 2, "no big row meets two shard extents"


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("entry", ["partitioned", "auto", "index"])
def test_sharded_plan_never_pulls_small_side(monkeypatch, force_shards, entry, k):
    """A lazy Dataset small side runs its upstream once, and the driver
    never builds a table of it: shards are built in tasks from the block
    refs of one materialization, through every join entry point."""
    import pyarrow as pa
    import ray
    import ray.data

    import rayjoin.join.broadcast as broadcast
    from rayjoin.join import auto
    from rayjoin.join.partitioned import partitioned_spatial_join

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def add(self, n):
            self.n += n

        def get(self):
            return self.n

    big, small, _ = _sharded_inputs("hot")
    small = small[:50]
    inter = Interaction.INTERSECTS
    exp = _broadcast_rows(small, Config(), lambda idx, b: idx.spatial_join(b, inter),
                          _ds(big, 3))
    assert exp
    rows = Counter.remote()

    def bump(t: pa.Table) -> pa.Table:
        ray.get(rows.add.remote(t.num_rows))
        return t

    small_ds = ray.data.from_arrow(encode.geoms_to_table(small)).map_batches(
        bump, batch_format="pyarrow")
    force_shards(len(small), k)
    seen = []
    to_table = broadcast._to_table

    def spy_to_table(x):
        seen.append(type(x))
        return to_table(x)

    monkeypatch.setattr(broadcast, "_to_table", spy_to_table)
    run = {"partitioned": lambda b, s: partitioned_spatial_join(b, s, inter),
           "auto": lambda b, s: auto.spatial_join(b, s, inter),
           "index": lambda b, s: broadcast.SpatialIndex(s).spatial_join(b, inter)}[entry]
    assert _tuples(run(_ds(big, 3), small_ds)) == exp
    assert ray.get(rows.get.remote()) == len(small)
    assert not any(issubclass(t, ray.data.Dataset) for t in seen)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 4])
def test_sharded_plan_has_no_exchange(force_shards, k):
    """The executed sharded join and kNN plans, planar and geodesic, are one
    probe map over the big side's blocks: no sort and no all-to-all
    exchange."""
    import ray.data

    from rayjoin.join.partitioned import partitioned_knn_join, partitioned_spatial_join

    big, small = _hot_inputs()
    t = encode.geoms_to_table(big)
    big_ds = ray.data.from_arrow([t.slice(0, 100), t.slice(100)])
    small_ds = ray.data.from_arrow(encode.geoms_to_table(small))
    g = encode.geoms_to_table(_geo_points(len(big), 7))
    geo_big = ray.data.from_arrow([g.slice(0, 100), g.slice(100)])
    geo_small = ray.data.from_arrow(encode.geoms_to_table(_geo_points(len(small), 8)))
    geo_prox, geo_knn = (_geo_plans(c)[1] for c in _GEO_COLS)
    spy = force_shards(len(small), k)
    for out in (partitioned_spatial_join(big_ds, small_ds, Interaction.INTERSECTS),
                partitioned_knn_join(big_ds, small_ds, k=3),
                geo_prox(geo_big, geo_small), geo_knn(geo_big, geo_small)):
        stats = out.materialize().stats()
        assert "probe_fn" in stats
        for op in ("Sort", "AllToAll", "Repartition", "Aggregate", "Shuffle"):
            assert op not in stats, op
    assert len(spy.cuts) == 4 * k


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("small_kind,k", [("table", 1), ("dataset", 1), ("dataset", 4)])
def test_probe_releases_free_heap(monkeypatch, force_shards, small_kind, k):
    """Each probe hands the driver's freed heap back once, after the
    driver's part of the plan (the shard build) is done."""
    import rayjoin.join.broadcast as broadcast
    import rayjoin.shards as shards

    big, small = _hot_inputs()
    calls = []
    monkeypatch.setattr(shards, "release_free_heap", lambda: calls.append(len(calls)))
    force_shards(len(small), k)
    side = encode.geoms_to_table(small) if small_kind == "table" else _ds(small, 2)
    index = broadcast.SpatialIndex(side)
    assert calls == [] and len(index.shards) == k
    out = index.spatial_join(_ds(big), Interaction.INTERSECTS)
    assert calls == [0]
    exp = sorted(map(tuple, slow_spatial_join(small, big, Interaction.INTERSECTS)))
    assert _rows(out) == exp


def test_release_free_heap_returns_freed_pages():
    """Freed blocks pinned in the middle of the heap by live ones stay
    resident after ``free``; ``release_free_heap`` returns their pages.  Run
    in a fresh interpreter, whose heap has no holes from earlier tests."""
    import os
    import subprocess
    import sys

    from rayjoin import util

    if util._MALLOC_TRIM is None or not os.path.exists("/proc/self/statm"):
        pytest.skip("needs glibc's malloc_trim and /proc")
    script = """if 1:
        import os
        import numpy as np
        from rayjoin.util import release_free_heap

        def private_mb():
            with open("/proc/self/statm") as f:
                _, resident, shared = f.read().split()[:3]
            return (int(resident) - int(shared)) * os.sysconf("SC_PAGE_SIZE") / 2**20

        base = private_mb()
        # 64 KB blocks come from the heap (under glibc's mmap threshold),
        # each followed by a small live block that keeps it off the top
        blocks, pins = [], []
        for _ in range(512):
            blocks.append(np.ones(8192))
            pins.append(np.ones(256))
        del blocks
        freed = private_mb() - base
        release_free_heap()
        print(freed, private_mb() - base)
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": root}).stdout
    freed, trimmed = map(float, out.split())
    assert freed > 24.0 and trimmed < 8.0, (freed, trimmed)
