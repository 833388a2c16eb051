"""Determinism sweep: run every gate query TWICE and compare value hashes.

The driver's CORRECTNESS gate hash-compares sorted values, so any
run-to-run nondeterminism (block-order-sensitive sampling, unseeded
randomness, unstable float reductions) shows up as a flaky hash even when
each individual run looks plausible.  This sweep catches that class of bug
directly (it found the IVF centroid block-order sensitivity in round 2).

    python tools/determinism_sweep.py [--sf DIR] [names...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path


def result_hash(r) -> str:
    import pandas as pd
    import pyarrow as pa

    if not isinstance(r, (pd.DataFrame, pa.Table)):
        r = r.to_pandas()
    if isinstance(r, pa.Table):
        r = r.to_pandas()
    r = r[sorted(r.columns)]
    rows = sorted(map(str, r.itertuples(index=False, name=None)))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:12]


def main(argv=None):
    # the engine of this script's own checkout: the driver imports it from
    # sys.path, and Ray's workers, which do not inherit sys.path, from PYTHONPATH
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*")
    ap.add_argument("--sf", default="/root/testdata/sf0.001")
    ap.add_argument("--num-cpus", type=int, default=16)
    args = ap.parse_args(argv)

    import ray

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    qs = e.queries()
    names = args.names or list(qs)
    bad = []
    for name in names:
        try:
            h1 = result_hash(qs[name](args.sf))
            h2 = result_hash(qs[name](args.sf))
            ok = h1 == h2
            print(f"{'OK  ' if ok else 'FLAKY'} {name}: {h1}" + ("" if ok else f" != {h2}"))
            if not ok:
                bad.append(name)
        except Exception as ex:  # noqa: BLE001
            bad.append(name)
            print(f"ERROR {name}: {ex!r}"[:160])
    print(f"\n{len(names) - len(bad)}/{len(names)} deterministic; flaky/error: {bad}")
    ray.shutdown()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
