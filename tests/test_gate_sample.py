"""In-pytest slice of the driver's correctness gate: a sample of queries()
run against their oracle_sql() through DuckDB at sf0.001, values bit-exact.
(The full battery lives in tools/check_gate.py; this guards regressions in
the `python -m pytest -x -q` contract itself.)"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]
SAMPLE = ["prox_points", "agg_lineitem", "tile_assign", "pip_triangle",
          "dedup_exact", "hex_kring_sum", "changelog_compact", "theta_users"]


def _canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    out = {}
    for c in df.columns:
        s = df[c]
        if s.dtype.kind == "f":
            out[c] = s.to_numpy().view(np.int64)
        elif s.dtype.kind == "M":
            out[c] = s.astype("datetime64[ns]").astype("int64")
        elif s.dtype.kind in "iub":
            out[c] = s.astype("int64").to_numpy()
        else:
            out[c] = s.astype(str).to_numpy()
    cdf = pd.DataFrame(out)
    return cdf.sort_values(list(cdf.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_gate_sample_matches_duckdb():
    import sys

    import duckdb

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    for name in SAMPLE:
        got = _canonical(qs[name](SF).to_pandas())
        exp = _canonical(con.sql(oracles[name]).df())
        assert list(got.columns) == list(exp.columns), name
        assert len(got) == len(exp), name
        assert got.equals(exp), name


def test_segment_of_rejects_out_of_range_and_interior_misses(ray_session):
    """VERDICT r4 #8: the broadcast FK lookup must raise for keys above the
    whole range (unclamped searchsorted would IndexError) AND for interior
    misses (an unverified lookup would silently map to a neighbor's
    segment), and resolve present keys exactly."""
    import ray

    from rayjoin.pipelines.gate import _segment_of

    keys_sorted = np.array([2, 5, 9], dtype=np.int64)
    seg_idx = np.array([0, 1, 0], dtype=np.int32)
    seg_vals = pa.array(["AUTO", "STEEL"])
    ref = ray.put((keys_sorted, seg_idx, seg_vals))

    got = _segment_of(ref, np.array([5, 2, 9, 2], dtype=np.int64))
    assert got.to_pylist() == ["STEEL", "AUTO", "AUTO", "AUTO"]
    assert _segment_of(ref, np.array([], dtype=np.int64)).to_pylist() == []

    with pytest.raises(KeyError, match="not present"):
        _segment_of(ref, np.array([99], dtype=np.int64))  # above the range
    with pytest.raises(KeyError, match="not present"):
        _segment_of(ref, np.array([3], dtype=np.int64))  # interior miss
    with pytest.raises(KeyError, match="not present"):
        _segment_of(ref, np.array([1], dtype=np.int64))  # below the range


def test_readme_registry_counts_match_build_queries():
    """README's gate-registry line states the counts build_queries() gives."""
    import pathlib
    import re

    from rayjoin.pipelines.gate import build_queries

    queries, oracle = build_queries()
    n_sql = sum(1 for name in queries if oracle.get(name))
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    m = re.search(r"(\d+) gate queries \+ DuckDB oracle SQL \((\d+) SQL-checked\)", readme)
    assert m and (int(m[1]), int(m[2])) == (len(queries), n_sql)
