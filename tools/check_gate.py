"""Local mimic of the driver's correctness gate.

Runs every ``queries()[name](sf_dir)`` and its ``oracle_sql()[name]`` through
DuckDB on the same parquet tables, then compares row count, column-name set,
and an order-insensitive value hash (columns sorted by name, rows sorted).
Floats are compared by exact bit pattern — stricter than any plausible
driver rounding.

Usage: python tools/check_gate.py [--sf DIR] [--num-cpus N] [--timeout S] [names...]

``--num-cpus`` sets Ray's logical CPU count (default 8); ``--num-cpus 1``
shows whether every query finishes on one CPU.  With ``--timeout S`` a
query whose engine side runs past S seconds prints ``TIMEOUT <name>``, Ray
is restarted (the stalled query's tasks and actors would hold the session)
and the sweep goes on; by default there is no limit.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    df = result.to_pandas()  # ray Dataset
    if df.empty and not len(df.columns):
        # Ray quirk: Dataset.to_pandas() loses columns on 0-row datasets
        # even when ds.schema() is pinned; rebuild from the schema
        schema = result.schema()
        df = pd.DataFrame({n: pd.Series(dtype="object") for n in schema.names})
        for n, t in zip(schema.names, schema.types):
            df[n] = df[n].astype(pa.table({n: pa.array([], t)}).to_pandas()[n].dtype)
    return df


def canonical(df):
    import numpy as np
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    # canonicalize dtypes: floats -> bit pattern, timestamps -> ns int
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
            out[c] = s.astype(str).to_numpy() if s.dtype == object else s.to_numpy()
    cdf = pd.DataFrame(out)
    cdf = cdf.sort_values(list(cdf.columns)).reset_index(drop=True)
    return cdf


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException, so no ``except Exception`` inside
    the engine or Ray swallows it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def main():
    # the engine of this script's own checkout: the driver imports it from
    # sys.path, and Ray's workers, which do not inherit sys.path, from PYTHONPATH
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds a query's engine side may run (default: no limit)")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray
    import ray.data

    def start_ray():
        if not ray.is_initialized():
            ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
                     ignore_reinit_error=True, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False

    start_ray()
    signal.signal(signal.SIGALRM, _on_alarm)

    import duckdb

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    names = args.names or list(qs)

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf}/{t}.parquet')")

    failures = 0
    for name in names:
        t0 = time.time()
        try:
            signal.setitimer(signal.ITIMER_REAL, args.timeout or 0)
            got = canonical(to_pandas(qs[name](args.sf)))
        except QueryTimeout:
            print(f"TIMEOUT {name} [{time.time()-t0:.1f}s]", flush=True)
            failures += 1
            ray.shutdown()
            start_ray()
            continue
        except Exception as e:
            print(f"ERROR  {name}: ray side failed: {type(e).__name__}: {str(e)[:200]}")
            failures += 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        sql = oracles.get(name)
        if sql is None:
            print(f"rows   {name}: {len(got)} rows (no SQL oracle) [{time.time()-t0:.1f}s]")
            continue
        try:
            exp = canonical(con.sql(sql).df())
        except Exception as e:
            print(f"ERROR  {name}: duckdb failed: {str(e)[:200]}")
            failures += 1
            continue
        ok_rows = len(got) == len(exp)
        ok_cols = list(got.columns) == list(exp.columns)
        ok_vals = ok_rows and ok_cols and got.equals(exp)
        status = "MATCH " if (ok_rows and ok_cols and ok_vals) else "MISMATCH"
        print(f"{status} {name}: rows {len(got)}/{len(exp)} cols_ok={ok_cols} vals_ok={ok_vals} [{time.time()-t0:.1f}s]")
        if status != "MATCH ":
            failures += 1
            if ok_cols and ok_rows:
                neq = (got != exp).any(axis=1)
                print("  first diffs:")
                print(got[neq].head(3))
                print(exp[neq].head(3))
            else:
                print("  got cols:", list(got.columns))
                print("  exp cols:", list(exp.columns))
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
