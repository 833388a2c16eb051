"""Job entry point for ``ray job submit`` (north_rule: the whole pipeline
runs as a submitted job, resumable from its checkpoint manifest).

    ray job submit --working-dir /root/repo -- \
        python -m rayjoin.job --sf-dir /root/testdata/sf0.001 --out /tmp/geotile_job

Pipeline per shard (the resumable unit = a row-range shard of the pages
corpus): pages -> geocode(url) -> tile assign (quadtree + Hilbert) ->
point-in-region spatial join (broadcast STR index) -> per-shard parquet +
manifest line with lineage and throughput.  Re-running the same command
skips complete shards (rayjoin.checkpoint); a final rollup prints one JSON
metrics line.

Local smoke (no job server in this sandbox): ``python -m rayjoin.job ...``
starts a local Ray session itself.
"""

from __future__ import annotations

import argparse
import json
import time


def _shard_table(sf_dir: str, shard: int, n_shards: int, synth_rows: int = 0):
    if synth_rows:
        # synthesized Common-Crawl-shaped corpus shard (scale demo mode):
        # deterministic per shard, independent of shard count boundaries
        from rayjoin.sources.pages import synth_pages

        per = (synth_rows + n_shards - 1) // n_shards
        lo = shard * per
        n = max(min(synth_rows - lo, per), 0)
        t = synth_pages(n, seed=1000 + shard)
        import pyarrow.compute as pc

        return (
            t.select(["doc_id", "text", "lang"])
            .set_column(0, "doc_id", pc.add(t["doc_id"], lo))
        )
    import pyarrow.parquet as pq

    # read only the row groups overlapping this shard's row range (at scale
    # a shard maps to input files / row groups, not a slice of a full read)
    pf = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    total = pf.metadata.num_rows
    per = (total + n_shards - 1) // n_shards
    lo = min(shard * per, total)
    hi = min(lo + per, total)
    if lo >= hi:
        return pf.schema_arrow.empty_table().select(["doc_id", "text", "lang"])
    starts = [0]
    for g in range(pf.metadata.num_row_groups):
        starts.append(starts[-1] + pf.metadata.row_group(g).num_rows)
    groups = [g for g in range(pf.metadata.num_row_groups)
              if starts[g] < hi and starts[g + 1] > lo]
    t = pf.read_row_groups(groups, columns=["doc_id", "text", "lang"])
    return t.slice(lo - starts[groups[0]], hi - lo)


def _shard_body(sf_dir: str, shard: int, shards: int, synth_rows: int,
                resolution: int, index) -> "pa.Table":
    """Whole-shard compute: synth/read -> geocode -> tile -> broadcast-index
    probe -> per-page output table.  Runs INSIDE a Ray task so shards
    parallelize across workers (the r1 sequential driver loop is gone); the
    broadcast index arrives via object-store auto-deref (one copy per node)."""
    import numpy as np
    import pyarrow as pa

    from rayjoin.config import Interaction
    from rayjoin.geom.encode import points_geom
    from rayjoin.join.broadcast import BroadcastIndex
    from rayjoin.sources.pages import _pages_batch
    from rayjoin.stages.geocode import geocode_from_url
    from rayjoin.stages.tiles import TileAssign

    src = _shard_table(sf_dir, shard, shards, synth_rows)
    pages = _pages_batch(src)
    geo = TileAssign(resolution=resolution)(geocode_from_url(pages))
    pts = points_geom(
        np.asarray(geo["doc_id"].combine_chunks(), dtype=np.int64),
        np.asarray(geo["lon"].combine_chunks(), dtype=np.float64),
        np.asarray(geo["lat"].combine_chunks(), dtype=np.float64),
    )
    jt = index.join(BroadcastIndex.decode(pts), pts, interaction=Interaction.CONTAINS)
    # emit per-page tile assignment + region hits (text NOT carried into
    # the join probe — byte identity is preserved in the tiles output)
    tiles = geo.select(["doc_id", "url", "lat", "lon", "tile_id", "hilbert_id", "text"])
    hits = jt.rename_columns(["doc_id", "region_id"])
    merged = tiles.join(hits, keys=["doc_id"], join_type="left outer")
    return merged.sort_by("doc_id")


def run_job(sf_dir: str, out_dir: str, resolution: int = 10, shards: int = 8,
            synth_rows: int = 0, max_concurrency: int = 8):
    import pyarrow as pa
    import ray

    from rayjoin.checkpoint import run_partitioned
    from rayjoin.join.broadcast import BroadcastIndex
    from rayjoin.pipelines.gate import rects_geom_table, tris_geom_table

    # region layer: supplier rects + part triangles (ids disjoint)
    tris = tris_geom_table(sf_dir)
    tris = tris.set_column(0, "row_id", pa.compute.add(tris["row_id"], 1_000_000))
    regions = pa.concat_tables([rects_geom_table(sf_dir), tris], promote_options="default")
    index_ref = ray.put(BroadcastIndex(regions))
    shard_task = ray.remote(_shard_body)

    def compute(part: str) -> pa.Table:
        # driver thread only coordinates: submit + wait (GIL released in
        # ray.get); the table comes back for the atomic manifest write
        return ray.get(
            shard_task.remote(sf_dir, int(part), shards, synth_rows, resolution,
                              index_ref)
        )

    def fingerprint(part: str) -> str:
        # every parameter affecting the output is part of the fingerprint —
        # resume recomputes when any of them changed (ADVICE r1)
        src = "synth" if synth_rows else f"{sf_dir}/documents.parquet"
        return f"{src}[{part}/{shards}]|res={resolution}|synth_rows={synth_rows}"

    t0 = time.time()
    manifest = run_partitioned(
        out_dir, [str(i) for i in range(shards)], compute, fingerprint,
        max_concurrency=max_concurrency,
    )
    dt = time.time() - t0
    total_rows = sum(m["rows"] for m in manifest.values())
    shard_secs = sorted(m["seconds"] for m in manifest.values())
    out = {
        "job": "geotile",
        "sf_dir": sf_dir,
        "out_dir": out_dir,
        "shards": len(manifest),
        "rows": total_rows,
        "wall_sec": round(dt, 3),
        "rows_per_sec": round(total_rows / dt) if dt > 0 else None,
        # per-partition throughput metrics from the manifest (north rule:
        # every partition emits lineage + metrics)
        "shard_sec_p50": shard_secs[len(shard_secs) // 2] if shard_secs else None,
        "shard_sec_max": shard_secs[-1] if shard_secs else None,
        "shard_rows_per_sec_min": min(
            (m["rows_per_sec"] for m in manifest.values()), default=None
        ),
        "complete": len(manifest) == shards,
    }
    print(json.dumps(out))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--out", required=True)
    ap.add_argument("--resolution", type=int, default=10)
    ap.add_argument("--shards", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--synth-rows", type=int, default=0,
                    help="synthesize an N-row pages corpus instead of reading documents.parquet")
    ap.add_argument("--max-concurrency", type=int, default=4,
                    help="shards in flight at once (each shard is its own Ray pipeline)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` the address env connects us to the cluster;
        # standalone we bring up a local session
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    run_job(args.sf_dir, args.out, args.resolution, args.shards, args.synth_rows,
            max_concurrency=args.max_concurrency)
    ray.shutdown()


if __name__ == "__main__":
    main()
