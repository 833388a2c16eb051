"""Per-stage Ray Data execution stats for any gate query (or the flagship).

The engine-tuning loop the build follows: run a pipeline, read
``Dataset.stats()``, and iterate until wall time is dominated by useful
compute (not conversion, scheduling, or shuffle machinery).

    python tools/stage_stats.py pip_triangle --sf /root/testdata/sf0.1
    python tools/stage_stats.py entry        # the flagship pipeline
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path


def main(argv=None):
    # the engine of this script's own checkout: the driver imports it from
    # sys.path, and Ray's workers, which do not inherit sys.path, from PYTHONPATH
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    ap = argparse.ArgumentParser()
    ap.add_argument("query", nargs="?", default="entry")
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--num-cpus", type=int, default=8)
    args = ap.parse_args(argv)

    import ray

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    t0 = time.time()
    if args.query == "entry":
        ds = e.entry()
    else:
        ds = e.queries()[args.query](args.sf)

    import pandas as pd
    import pyarrow as pa

    if isinstance(ds, (pd.DataFrame, pa.Table)):
        print(f"# {args.query}: eager result, {len(ds)} rows "
              f"in {time.time() - t0:.2f}s (no lazy stats)")
    else:
        n = 0
        for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            n += b.num_rows
        print(f"# {args.query}: {n} rows in {time.time() - t0:.2f}s")
        print(ds.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
