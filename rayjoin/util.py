"""Shared vectorized building blocks.

The *bucketed group-merge pattern* (SURVEY.md §8): ``map_groups`` pays one
Python call per group, so per-row groupings (kNN merge, sessionize,
vectorize_tiles, ANN top-k) hash their keys into a bounded bucket count and
resolve each bucket with one lexsort + segmented reductions.  The pieces
every site shares live here so the hash, the segment-boundary math, and the
packed-key collision policy have exactly one home.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pyarrow as pa

_KNUTH = 2654435761


def one_array(col):
    """``col`` as one Arrow array.  A one-chunk ``ChunkedArray`` gives its
    chunk in place (``combine_chunks`` copies even then); more or zero
    chunks are combined; an ``Array`` is returned as is."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def knuth_bucket(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic bucket id per int64 key (multiplicative hash mod n)."""
    with np.errstate(over="ignore"):
        return (np.asarray(values, dtype=np.int64) * _KNUTH) % num_buckets


def rank_within_sorted_groups(g: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its group, for an array already
    sorted so that equal group ids are contiguous."""
    if g.size == 0:
        return np.empty(0, np.int64)
    change = np.concatenate([[True], g[1:] != g[:-1]])
    starts = np.flatnonzero(change)
    counts = np.diff(np.concatenate([starts, [g.size]]))
    return np.arange(g.size, dtype=np.int64) - np.repeat(starts, counts)


def intersection_counts(va: np.ndarray, sa: np.ndarray, vb: np.ndarray,
                        sb: np.ndarray, n: int) -> np.ndarray:
    """Per-segment |A ∩ B| for two segmented uint64 value sets (values
    unique within each (segment, side)).

    One packed-uint64 sort per call: key = (segment << 45) | (hash top 44
    bits << 1) | side — ~3x faster than a 3-key lexsort.  Constraints this
    packing imposes (single home for the policy): segment ids < 2^19 per
    sort (larger inputs are chunked over segment ranges — requires sa/sb
    ascending, which segmented construction guarantees), and values must be
    avalanche-mixed (e.g. ``_mix64``) so truncating to 44 bits keeps
    collision odds ~|A||B|/2^44 — raw rolling-polynomial hashes keep their
    differences in the LOW bits and collide systematically.
    """
    cap = 1 << 19  # a chunk of exactly cap segments uses ids 0..cap-1 < 2^19
    if n > cap:
        out = np.empty(n, np.int64)
        for s0 in range(0, n, cap):
            s1 = min(s0 + cap, n)
            a0, a1 = np.searchsorted(sa, [s0, s1])
            b0, b1 = np.searchsorted(sb, [s0, s1])
            out[s0:s1] = intersection_counts(
                va[a0:a1], sa[a0:a1] - s0, vb[b0:b1], sb[b0:b1] - s0, s1 - s0
            )
        return out
    hh = np.concatenate([va, vb])
    ss = np.concatenate([sa, sb]).astype(np.uint64)
    side = np.empty(hh.size, np.uint64)
    side[: va.size] = 0
    side[va.size :] = 1
    with np.errstate(over="ignore"):
        key = (ss << np.uint64(45)) | ((hh >> np.uint64(20)) << np.uint64(1)) | side
    key.sort()
    dup = (key[1:] >> np.uint64(1)) == (key[:-1] >> np.uint64(1))
    seg = (key[1:] >> np.uint64(45)).astype(np.int64)
    return np.bincount(seg[dup], minlength=n).astype(np.int64)


def _infer_metadata(ds):
    """Ray 2.49's logical-plan metadata inference (NEVER executes the plan;
    populated for file-backed reads, from_arrow, and materialized datasets).
    Guarded attribute walk: an API change degrades to None, not an
    exception or a hidden execution."""
    try:
        return ds._logical_plan.dag.infer_metadata()
    except Exception:
        return None


def meta_row_count(ds):
    """Row count from Dataset metadata WITHOUT executing the plan, or None.

    Tries the logical plan's inferred metadata first, then the private
    ``Dataset._meta_count`` (both metadata-only in Ray 2.49; free for
    file-backed inputs), each behind a guard so an API change degrades to
    "unknown" instead of an exception or a hidden full execution
    (ADVICE r2)."""
    m = _infer_metadata(ds)
    if m is not None and getattr(m, "num_rows", None) is not None:
        return m.num_rows
    fn = getattr(ds, "_meta_count", None)
    if fn is None:
        return None
    try:
        return fn()
    except Exception:
        return None


def meta_size_bytes(ds):
    """In-memory byte size from Dataset metadata WITHOUT executing the
    plan, or None (VERDICT r4 #4: ``Dataset.size_bytes()`` falls back to
    executing the plan when metadata can't answer — the double-execution
    trap — so broadcast-vs-shuffle byte guards must consult metadata
    only)."""
    m = _infer_metadata(ds)
    if m is not None and getattr(m, "size_bytes", None) is not None:
        return m.size_bytes
    return None


def release_free_heap() -> None:
    """Hand the free pages of the process's C heap back to the OS.

    glibc keeps freed memory inside the heap: once one large numpy array
    has been freed, arrays up to that size are carved from the heap
    instead of mapped, and a free block below a live one is never
    returned.  A long-lived driver then carries tens of MB of freed
    temporaries, and how many depends on the order earlier allocations
    happened to land in.  ``malloc_trim(0)`` releases every free page of
    every arena; it costs microseconds when little is free.  A no-op
    where libc has no ``malloc_trim`` (not glibc)."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError):
    _MALLOC_TRIM = None


def bounded_sample_frac(frac: float, rows, cap: int) -> float:
    """Effective sample fraction so the EXPECTED sampled row count never
    exceeds ``cap`` regardless of input size (VERDICT r2 #1: driver-side
    planning samples must be O(1), not O(frac * n)).  ``rows`` may be None
    (unknown row count) — callers must still hard-cap with ``limit(cap)``."""
    if rows is None or rows <= 0:
        return frac
    return min(frac, cap / float(rows))


def drop_schemaless_empty_blocks(ds, empty_table):
    """Work around a Ray Data quirk: a Sort/map_groups stage can emit a
    zero-row block with an EMPTY schema (no columns), and zero-row blocks
    BYPASS downstream map UDFs entirely (verified: a schema-pinning
    map_batches never sees them), so they reach hash-join shuffle
    aggregators whose acero join then fails with "No match ... for key
    field".  Rebuild the dataset from the non-empty block refs (no driver
    data transfer; one tiny row-count task per block).  ``empty_table``
    supplies the schema when every block is empty."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    # already-materialized inputs skip the extra materialize, and row counts
    # come from the materialized BlockMetadata — no per-block tasks (ADVICE
    # r4: dup_clusters calls this after every pointer-doubling round, so
    # O(blocks) probe tasks per call added real overhead)
    mds = ds if isinstance(ds, MaterializedDataset) else ds.materialize()
    keep = []
    try:
        for bundle in mds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows is None or meta.num_rows > 0:
                    keep.append(ref)
    except Exception:
        # metadata walk failed (API drift): fall back to one zero-cpu
        # row-count task per block (the pre-r5 implementation)
        import ray

        refs = mds.to_arrow_refs()

        @ray.remote(num_cpus=0)
        def _nrows(t):
            return t.num_rows

        counts = ray.get([_nrows.remote(r) for r in refs])
        keep = [r for r, c in zip(refs, counts) if c]
    if not keep:
        return ray.data.from_arrow(empty_table)
    return ray.data.from_arrow_refs(keep)
