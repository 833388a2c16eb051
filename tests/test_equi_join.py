"""``join.equi.equi_join``: the sharded key lookup against ``pandas.merge``
with ``Dataset.join``'s semantics (a null key never matches, duplicate
right keys multiply rows, left_outer fills nulls), at one shard and at
forced K = 3."""

import numpy as np
import pyarrow as pa
import pytest

HOWS = ("inner", "left_outer", "left_semi", "left_anti")


def _right(case: str) -> pa.Table:
    """Right side (k, v) of one case; every k is in [0, 40)."""
    rng = np.random.default_rng(3)
    k = rng.integers(0, 40, 60)
    if case == "hot":  # one key holds more rows than a K = 3 shard
        k[:40] = 7
    keys = pa.array(k, pa.int64())
    if case == "null":
        keys = pa.array([None if i % 5 == 0 else int(x) for i, x in enumerate(k)], pa.int64())
    return pa.table({"k": keys, "v": pa.array(np.arange(k.size, dtype=np.int64) * 10)})


def _left() -> pa.Table:
    """Left side (a, x): every key of [0, 45) (so some equal a cut and some
    miss) plus null keys."""
    a = [None if i % 11 == 0 else i % 45 for i in range(150)]
    return pa.table({"a": pa.array(a, pa.int64()),
                     "x": pa.array(np.arange(150, dtype=np.int64))})


def _expected(left: pa.Table, right: pa.Table, how: str):
    lf, rf = left.to_pandas(), right.to_pandas()
    rf = rf[rf["k"].notna()]
    if how == "left_semi":
        return lf[lf["a"].isin(rf["k"])]
    if how == "left_anti":
        return lf[~lf["a"].isin(rf["k"])]
    m = lf.merge(rf, left_on="a", right_on="k", how="inner" if how == "inner" else "left")
    return m.drop(columns="k")


def _canon(df):
    """Columns in output order, rows sorted, nulls as -1 (no value is < 0)."""
    df = df.fillna(-1).astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["dup", "null", "hot"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("how", HOWS)
def test_equi_join_matches_pandas(force_shards, how, k, case):
    import ray.data

    from rayjoin.join.equi import equi_join

    left, right = _left(), _right(case)
    spy = force_shards(right.num_rows, k)
    got = equi_join(ray.data.from_arrow(left).repartition(3),
                    ray.data.from_arrow(right).repartition(2), "a", "k", how).to_pandas()
    exp = _expected(left, right, how)
    assert list(got.columns) == list(exp.columns)
    assert _canon(got).equals(_canon(exp))
    cuts = spy.cuts[0]
    if k == 1:
        assert cuts is None
    else:
        assert cuts is not None and cuts.size >= 1
        # each cut is a right key, and the left probes that key
        assert np.isin(cuts, np.asarray(left["a"].drop_null())).all()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("how", HOWS)
def test_equi_join_empty_and_schemaless_sides(force_shards, how, k):
    """Empty left, empty right, and sides holding zero-row blocks with no
    schema."""
    import ray.data

    from rayjoin.join.equi import equi_join

    left, right = _left(), _right("dup")
    force_shards(right.num_rows, k)
    nothing = pa.table({})
    cases = [
        (left.slice(0, 0), [right]),
        (left, [right.slice(0, 0)]),
        (left, [nothing, right, nothing]),
    ]
    for lt, rblocks in cases:
        r = ray.data.from_arrow(rblocks)
        got = equi_join(ray.data.from_arrow([nothing, lt]), r, "a", "k", how).to_pandas()
        exp = _expected(lt, pa.concat_tables([b for b in rblocks if b.num_columns]), how)
        assert len(got) == len(exp)
        if len(exp):
            assert _canon(got[list(exp.columns)]).equals(_canon(exp))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 3])
def test_materialized_right_side_builds_in_place(force_shards, monkeypatch, k):
    """An already materialized right side is built from its blocks as they
    are: with ``materialize`` patched to raise, the lookup still builds and
    joins the same rows, and ``get`` reads each key's first row."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from rayjoin.join.equi import KeyLookup

    left, right = _left(), _right("dup")
    spy = force_shards(right.num_rows, k)
    side = ray.data.from_arrow(right).repartition(2).materialize()

    def again(self):
        raise AssertionError("a materialized side was materialized again")

    monkeypatch.setattr(MaterializedDataset, "materialize", again)
    lookup = KeyLookup(side, "k")
    assert (spy.cuts[0] is None) == (k == 1)
    got = lookup.join(ray.data.from_arrow(left), "a").to_pandas()
    assert _canon(got).equals(_canon(_expected(left, right, "inner")))
    keys = np.arange(-2, 45)
    first = right.to_pandas().groupby("k")["v"].first()
    v, hit = lookup.get(keys, "v")
    assert np.array_equal(hit, np.isin(keys, first.index))
    assert np.array_equal(v[hit], first.loc[keys[hit]].to_numpy())
    assert not v[~hit].any()


def test_expand_bounds_output_tables(monkeypatch):
    """A hot key's fan-out is yielded in tables of at most ``_OUT_ROWS``
    rows, splitting inside one left row, and the pairs are exact."""
    from rayjoin.join import equi

    monkeypatch.setattr(equi, "_OUT_ROWS", 7)
    batch = pa.table({"a": pa.array([5, 6, 7], pa.int64())})
    payload = pa.table({"v": pa.array(np.arange(30, dtype=np.int64))})
    rows = np.array([0, 2])
    lo, cnt = np.array([3, 10]), np.array([4, 17])
    outs = list(equi._expand(batch, rows, lo, cnt, payload))
    assert [t.num_rows for t in outs] == [7, 7, 7]
    got = pa.concat_tables(outs)
    assert got["a"].to_pylist() == [5] * 4 + [7] * 17
    assert got["v"].to_pylist() == list(range(3, 7)) + list(range(10, 27))


def test_equi_join_chained_on_one_cpu():
    """An inner equi_join chained into a left_outer one finishes on a
    one-CPU Ray session (no aggregator actor waits for a CPU) and equals
    pandas.  Run in a fresh interpreter, which owns its own session."""
    import os
    import subprocess
    import sys

    script = """if 1:
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray
        import ray.data

        from rayjoin.join.equi import equi_join

        ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        rng = np.random.default_rng(5)
        fact = pa.table({"o": pa.array(rng.integers(0, 500, 1000)),
                         "rev": pa.array(rng.integers(0, 100, 1000))})
        orders = pa.table({"okey": pa.array(np.arange(500)),
                           "cust": pa.array(rng.integers(0, 60, 500))})
        cust = pa.table({"ckey": pa.array(np.arange(50)),
                         "nation": pa.array(np.arange(50) % 7)})
        j = equi_join(ray.data.from_arrow(fact).repartition(4),
                      ray.data.from_arrow(orders).repartition(2), "o", "okey")
        got = equi_join(j, ray.data.from_arrow(cust), "cust", "ckey",
                        how="left_outer").to_pandas()
        exp = (fact.to_pandas().merge(orders.to_pandas(), left_on="o", right_on="okey")
               .drop(columns="okey")
               .merge(cust.to_pandas(), left_on="cust", right_on="ckey", how="left")
               .drop(columns="ckey"))
        canon = lambda d: d.fillna(-1).astype("int64").sort_values(list(d.columns)).reset_index(drop=True)
        assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
        assert canon(got).equals(canon(exp))
        assert got["nation"].isna().any()
        ray.shutdown()
        print("ok")
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=180,
                         env={**os.environ, "PYTHONPATH": root}).stdout
    assert out.split()[-1] == "ok"
