"""Deterministic geocoding stages (url/text/key-derived lat-lon).

The north rule derives geometry from Common-Crawl-style pages
(BASELINE.json: "geocoding each page (url/text-derived lat-lon)").  Two
deterministic geocoders:

- ``geocode_from_key`` — modular-arithmetic hash of an int64 key.  Chosen so
  the SAME expression is exactly computable in ANSI SQL (the DuckDB
  correctness oracle): products stay < 2^63 and the final division is exact
  IEEE, so Ray and DuckDB agree bit-for-bit.
- ``geocode_from_url`` — FNV-1a 64 over utf-8 bytes (engine-side only; used
  by the pages pipeline where the oracle is pytest self-conformance).

Both are pure per-row transforms: stateless ``map_batches`` over Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import one_array

# lat/lon multipliers (distinct odd constants; key*MULT < 2^63 for key < 2^31)
LAT_MULT = 2654435761
LON_MULT = 2246822519
LAT_MOD = 180_000_000
LON_MOD = 360_000_000


def key_to_latlon(key: np.ndarray):
    """lat = ((key*2654435761) % 180e6)/1e6 - 90;  lon analog over 360.
    SQL equivalent (exact): ``((k*2654435761)%180000000)/1000000.0 - 90``."""
    key = key.astype(np.int64)
    lat = ((key * LAT_MULT) % LAT_MOD) / 1_000_000.0 - 90.0
    lon = ((key * LON_MULT) % LON_MOD) / 1_000_000.0 - 180.0
    return lat, lon


def geocode_from_key(batch: pa.Table, *, key_col: str) -> pa.Table:
    key = np.asarray(batch[key_col].combine_chunks(), dtype=np.int64)
    lat, lon = key_to_latlon(key)
    batch = batch.append_column("lat", pa.array(lat, pa.float64()))
    return batch.append_column("lon", pa.array(lon, pa.float64()))


_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def fnv1a64(strings: pa.Array) -> np.ndarray:
    """Vectorized FNV-1a 64 over utf-8 bytes of a string array.

    Works on the flat value buffer, one vectorized round per byte position:
    the first ``min(len)`` rounds hash every row in place with a running
    byte index; for the ragged tail the rows are stably sorted by length
    once, so the rows still active at byte ``j`` are a contiguous suffix
    and each round touches only that suffix.  Cost: O(total bytes) of
    NumPy work plus ``max(len)`` Python iterations, ~0.25 µs per 48-byte
    URL on one core.  A null hashes like the empty string.
    """
    arr = one_array(strings)
    if len(arr) == 0:
        return np.empty(0, np.uint64)
    # flatten to bytes + offsets
    buf = arr.buffers()
    # large_string/large_binary offsets are int64 (same bug class as the
    # checkpoint digest fix)
    off_dtype = (
        np.int64
        if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
        else np.int32
    )
    offsets = np.frombuffer(buf[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(buf[2], dtype=np.uint8) if buf[2] is not None else np.empty(0, np.uint8)
    lens = offsets[1:] - offsets[:-1]
    minlen, maxlen = int(lens.min()), int(lens.max())
    h = np.full(len(arr), _FNV_OFFSET, dtype=np.uint64)
    idx = offsets[:-1]  # running byte index; offsets is a private copy
    with np.errstate(over="ignore"):
        for _ in range(minlen):
            h ^= data[idx]
            h *= _FNV_PRIME
            idx += 1
        if maxlen == minlen:
            return h
        order = np.argsort(lens, kind="stable")
        hs, idx = h[order], idx[order]
        # rows with len > j start at starts[j - minlen] in length order
        starts = np.searchsorted(lens[order], np.arange(minlen, maxlen), side="right")
        for s in starts.tolist():
            hs[s:] ^= data[idx[s:]]
            hs[s:] *= _FNV_PRIME
            idx[s:] += 1
        h[order] = hs
    return h


_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)


def fmix64(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finalizer (public domain, Appleby): three
    xorshift-multiply rounds.  FNV-1a's high bits avalanche poorly on
    short, near-identical strings ('jl:0' vs 'jl:1' differ only below bit
    ~30), so any consumer that needs individual BITS of the hash — not
    just mod-m bucketing — must finalize first.  Measured: the top bit of
    fmix64(fnv1a64('jl:'+i)) over 65k sequential i is statistically
    indistinguishable from iid coin flips (max pairwise column correlation
    0.246 vs 0.254 for a true-random baseline), where the raw FNV top bit
    had a -0.95 mean bias.  The SQL twin rebuilds each round with the
    multiply split hi/lo so INT128 never overflows
    (pipelines/gate.py:_sql_fmix64)."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= _FMIX_C1
        h ^= h >> np.uint64(33)
        h *= _FMIX_C2
        h ^= h >> np.uint64(33)
    return h


def geocode_from_url(batch: pa.Table, *, url_col: str = "url") -> pa.Table:
    h = fnv1a64(batch[url_col])
    lat = (h % np.uint64(LAT_MOD)).astype(np.int64) / 1_000_000.0 - 90.0
    lon = ((h >> np.uint64(32)) % np.uint64(LON_MOD)).astype(np.int64) / 1_000_000.0 - 180.0
    batch = batch.append_column("lat", pa.array(lat, pa.float64()))
    return batch.append_column("lon", pa.array(lon, pa.float64()))
