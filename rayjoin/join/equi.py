"""Key joins over Ray Data: index the right side once by key, stream the
left side past it (*To Partition, or Not to Partition*, SIGMOD 2021: a
partitioned exchange loses while the indexed side fits).

``equi_join`` gives ``Dataset.join``'s inner, left_outer, left_semi and
left_anti with no exchange and no aggregator actors.  The right side is
cut into K key-range shards by ``rayjoin.shards`` (the same K rule, build
tasks and worker cache as the spatial joins, with the key as the cut key);
each shard is an int64 key array and the key-sorted payload table (every
other column).  A left block streams through ``probe_keys``: each row
probes the one shard that can hold its key, ``searchsorted`` finds its
matches, and ``take`` attaches their payload.  Output tables are yielded at
most ``_OUT_ROWS`` rows at a time, so a hot key's fan-out never becomes one
heap-sized table.

Semantics are ``Dataset.join``'s: a null key never matches, duplicate
right keys multiply rows, left_outer fills the payload with nulls, and
the output columns are the left's followed by the right's non-key columns
(the semi and anti joins: the left's).  Keys are compared as int64.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..shards import build_shards, get_index, is_cached, stream

HOWS = ("inner", "left_outer", "left_semi", "left_anti")
# output rows per yielded table
_OUT_ROWS = 1 << 20


def _key_values(t: pa.Table, col: str) -> np.ndarray:
    """``col`` as int64, nulls read as 0 (``_valid`` says which are null)."""
    return np.asarray(pc.fill_null(pc.cast(t[col], pa.int64()), 0).combine_chunks())


def _valid(t: pa.Table, col: str) -> np.ndarray | None:
    """Mask of the rows whose ``col`` is not null (None: every row)."""
    c = t[col]
    return np.asarray(pc.is_valid(c)) if c.null_count else None


class KeyIndex:
    """One shard of a key join's right side: the non-null int64 keys in
    sorted order and the payload table (every other column) in the same
    order."""

    def __init__(self, table: pa.Table, key: str):
        if key not in table.column_names:  # a side with no rows and no schema
            self.keys, self.payload = np.empty(0, np.int64), pa.table({})
            return
        k = _key_values(table, key)
        valid = _valid(table, key)
        rows = np.arange(k.size) if valid is None else np.flatnonzero(valid)
        order = rows[np.argsort(k[rows], kind="stable")]
        self.keys = k[order]
        self.payload = table.drop_columns([key]).take(pa.array(order)).combine_chunks()

    @property
    def bounds(self):
        """The shard's (lowest, highest) key (None when it holds none)."""
        return (int(self.keys[0]), int(self.keys[-1])) if self.keys.size else None

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Position of each key's first row in the shard, -1 when absent."""
        pos = np.searchsorted(self.keys, keys)
        hit = pos < self.keys.size
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        return np.where(hit, pos, -1)


class KeyLookup:
    """The right side of key joins on column ``on``, sharded and built once
    (``shards.build_shards``).  ``join`` streams a left side past it.
    Inside a probe of its own, ``contains`` tests an array of keys, for a
    filter before rows are materialized, ``get`` reads one payload column
    at an array of keys, and ``pairs`` finds two keys per row, to read the
    two rows in place."""

    def __init__(self, right, on: str):
        built, self.cuts = build_shards(right, partial(KeyIndex, key=on),
                                        partial(_key_values, col=on))
        self.refs = tuple(ref for ref, _ in built)

    def _shard(self, keys: np.ndarray) -> np.ndarray:
        if self.cuts is None:
            return np.zeros(keys.size, np.intp)
        return np.searchsorted(self.cuts, keys, side="right")

    def _cached_first(self):
        return sorted(range(len(self.refs)), key=lambda j: not is_cached(self.refs[j]))

    def route(self, keys: np.ndarray, valid: np.ndarray | None):
        """``(index, rows)`` of each shard holding some of ``keys`` (null
        ones excluded), the worker's cached shard first."""
        shard = self._shard(keys)
        if valid is not None:
            shard[~valid] = -1
        for j in self._cached_first():
            rows = np.flatnonzero(shard == j)
            if rows.size:
                yield get_index(self.refs[j]), rows

    def pairs(self, a: np.ndarray, b: np.ndarray):
        """The rows whose keys ``a`` and ``b`` are both on this side, by the
        shards holding them: ``(index_a, index_b, rows, pos_a, pos_b)``
        with each key's first position in its shard (``KeyIndex.find``)."""
        sa, sb = self._shard(a), self._shard(b)
        for i in self._cached_first():
            for j in np.unique(sb[sa == i]):
                rows = np.flatnonzero((sa == i) & (sb == j))
                ia, ib = get_index(self.refs[i]), get_index(self.refs[j])
                pa_, pb_ = ia.find(a[rows]), ib.find(b[rows])
                ok = (pa_ >= 0) & (pb_ >= 0)
                if ok.any():
                    yield ia, ib, rows[ok], pa_[ok], pb_[ok]

    def contains(self, keys: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
        hit = np.zeros(keys.size, bool)
        for index, rows in self.route(keys, valid):
            hit[rows] = index.find(keys[rows]) >= 0
        return hit

    def get(self, keys: np.ndarray, col: str):
        """Payload column ``col`` (int64) of each key's first row on this
        side, and the mask of the keys found (a missing key reads 0)."""
        out, hit = np.zeros(keys.size, np.int64), np.zeros(keys.size, bool)
        for index, rows in self.route(keys, None):
            pos = index.find(keys[rows])
            rows, pos = rows[pos >= 0], pos[pos >= 0]
            if rows.size:
                hit[rows] = True
                out[rows] = np.asarray(index.payload[col].take(pa.array(pos)), np.int64)
        return out, hit

    def payload_schema(self) -> pa.Schema:
        ref = next((r for r in self.refs if is_cached(r)), self.refs[0])
        return get_index(ref).payload.schema

    def join(self, left, on: str, how: str = "inner"):
        """``left`` (a ``Dataset``) joined to this side on ``left.on ==
        right.on``; see the module docstring."""
        if how not in HOWS:
            raise ValueError(f"how must be one of {HOWS}, got {how!r}")
        return stream(left, probe_keys, None, lookup=self, on=on, how=how)


def equi_join(left, right, on: str, right_on: str | None = None, how: str = "inner"):
    """``left.join(right, how, on=(on,), right_on=(right_on,))`` as a sharded
    lookup: ``right`` (a ``Dataset`` or ``pa.Table``) is built once, ``left``
    (a ``Dataset``) streams past it with no exchange."""
    return KeyLookup(right, right_on or on).join(left, on, how)


def _attach(left: pa.Table, payload: pa.Table) -> pa.Table:
    return pa.Table.from_arrays(left.columns + payload.columns,
                                names=left.column_names + payload.column_names)


def _expand(batch: pa.Table, rows: np.ndarray, lo: np.ndarray, cnt: np.ndarray,
            payload: pa.Table):
    """Tables of at most ``_OUT_ROWS`` rows: each left row ``rows[i]`` paired
    with right rows ``lo[i] .. lo[i] + cnt[i] - 1``."""
    end = np.cumsum(cnt)
    total = int(end[-1]) if end.size else 0
    for s in range(0, total, _OUT_ROWS):
        out = np.arange(s, min(s + _OUT_ROWS, total))
        i = np.searchsorted(end, out, side="right")
        right = lo[i] + out - (end[i] - cnt[i])
        yield _attach(batch.take(pa.array(rows[i])), payload.take(pa.array(right)))


def probe_keys(batch: pa.Table, *, lookup: KeyLookup, on: str, how: str):
    """Stateless probe task body of ``equi_join``: the join of one left
    block, as one or more tables (at least one, so every block carries the
    output schema)."""
    keys, valid = _key_values(batch, on), _valid(batch, on)
    if how in ("left_semi", "left_anti"):
        hit = lookup.contains(keys, valid)
        yield batch.filter(pa.array(hit if how == "left_semi" else ~hit))
        return
    schema = lookup.payload_schema()
    clash = set(schema.names) & set(batch.column_names)
    if clash:
        raise ValueError(f"equi_join: columns {sorted(clash)} are on both sides")
    matched = np.zeros(batch.num_rows, bool)
    emitted = False
    for index, rows in lookup.route(keys, valid):
        k = keys[rows]
        lo = np.searchsorted(index.keys, k)
        cnt = np.searchsorted(index.keys, k, "right") - lo
        hit = matched[rows] = cnt > 0
        for out in _expand(batch, rows[hit], lo[hit], cnt[hit], index.payload):
            emitted = True
            yield out
    miss = np.flatnonzero(~matched) if how == "left_outer" else np.empty(0, np.int64)
    if miss.size or not emitted:
        nulls = pa.table({f.name: pa.nulls(miss.size, f.type) for f in schema})
        yield _attach(batch.take(pa.array(miss)), nulls)
