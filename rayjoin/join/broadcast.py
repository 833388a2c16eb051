"""Spatial joins over Ray Data: index the small side once, stream the big
side past it.

``SpatialIndex`` is the one plan, on the shard build of ``rayjoin.shards``
with bbox-center x as the cut key, so its only choice is K, the number of
shards: STR x-slices cut at quantiles of sampled bbox-center x, each an
index of the plan's kind.  A ``BroadcastIndex`` is validated, decoded and
STR-indexed over boxes dilated by ``max_distance``.

The big side streams through ``probe_fn``: decode and validate a batch
once, then probe the shards its rows may meet, the worker's cached shard
first.  One shard probes every row; with several, a row probes each shard
whose tree extent its bbox meets.  kNN probes each row's nearest shard
first, then only the shards within the row's kth distance found so far, so
there is no exchange.

The geodesic joins (``join/geodesic.py``) run this same plan with
``SphereIndex`` as the index kind.  The shard build, the worker cache and
the probe stream take the kind as an argument and never branch on it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..config import Config, Interaction
from ..geom.batch import GeomBatch
from ..geom.relates import relate
from ..state.rtree import STRtree, dilate
from ..stages.validate import validate_batch
from ..shards import build_shards, get_index, is_cached, sample, stream
from ..util import meta_row_count, rank_within_sorted_groups

JOIN_SCHEMA = pa.schema(
    [pa.field("big_row_id", pa.int64()), pa.field("small_row_id", pa.int64())]
)
PROX_SCHEMA = JOIN_SCHEMA.append(pa.field("distance", pa.float64()))
KNN_SCHEMA = PROX_SCHEMA.append(pa.field("rank", pa.int64()))


def _empty_geom_table() -> pa.Table:
    from ..geom.encode import GEOM_SCHEMA

    return GEOM_SCHEMA.empty_table()


def _to_table(small) -> pa.Table:
    if isinstance(small, (list, tuple)):  # spec geometry sequence (reference style)
        from ..geom.encode import geoms_to_table

        return geoms_to_table(small) if small else _empty_geom_table()
    if isinstance(small, pa.Table):
        return small if small.num_rows or small.num_columns else _empty_geom_table()
    raise TypeError(type(small))


class BroadcastIndex:
    """Built small side: GeomBatch + STR tree over max_distance-dilated boxes
    (the ``cheap_buffer`` trick, /root/reference/src/rtrees.rs:159-166).

    The planar index kind.  A kind is what ``probe_fn`` needs to know about
    an index: ``decode`` validates a probe batch, ``join``/``prox`` probe
    one shard, ``empty`` is a mode's zero-row output, and kNN runs on
    ``first_key``/``near``/``key`` (``_probe_knn``) and
    ``gap``/``knn_table`` (``_knn_sharded``).  ``geodesic.SphereIndex`` is
    the other kind."""

    def __init__(self, small, config: Config = Config(), keep_table: bool = True,
                 radius_col: str | None = None):
        self.config = config
        table = _to_table(small)
        # original-coords table is only needed for *_with_geos outputs;
        # dropping it (keep_table=False) cuts the broadcast payload ~40%
        self.table = table if keep_table else None
        self.batch = self.decode(table)
        if radius_col is not None:
            # per-row proximity radius: each indexed box dilates by ITS OWN
            # radius, and prox compares d <= radius[s].  Same cheap_buffer
            # trick, one extra float64 per indexed row.
            r = np.asarray(table[radius_col].combine_chunks(), dtype=np.float64)
            if r.size and (not np.isfinite(r).all() or (r < 0).any()):
                from ..config import BadMaxDistance

                bad = np.flatnonzero(~np.isfinite(r) | (r < 0))[0]
                raise BadMaxDistance(float(r[bad]))
            self.radius = r
        else:
            self.radius = None
        self.tree = STRtree(dilate(
            self.batch.bbox,
            self.radius if self.radius is not None else config.max_distance))
        # domain extent for kNN radius scheduling
        if self.batch.n:
            self.extent = (
                float(self.batch.bbox[:, 0].min()),
                float(self.batch.bbox[:, 1].min()),
                float(self.batch.bbox[:, 2].max()),
                float(self.batch.bbox[:, 3].max()),
            )
        else:
            self.extent = (0.0, 0.0, 0.0, 0.0)

    @property
    def bounds(self):
        """The shard's dilated tree extent (None when it indexes nothing)."""
        return tuple(map(float, self.tree.root)) if self.batch.n else None

    @staticmethod
    def decode(batch: pa.Table) -> GeomBatch:
        big = GeomBatch.from_arrow(batch)
        validate_batch(big)
        return big

    @staticmethod
    def empty(mode: str, with_geos: bool = False) -> pa.Table:
        """Zero-row output table of one probe mode."""
        schema = {"join": JOIN_SCHEMA, "prox": PROX_SCHEMA, "knn": KNN_SCHEMA}[mode]
        if with_geos:
            from ..geom.encode import GEOM_SCHEMA

            for side in ("big", "small"):
                for col in ("geom_type", "coords"):
                    schema = schema.append(pa.field(f"{side}_{col}",
                                                    GEOM_SCHEMA.field(col).type))
        return schema.empty_table()

    def join(self, big: GeomBatch, batch: pa.Table, rows: np.ndarray | None = None, *,
             interaction: Interaction, with_geos: bool = False) -> pa.Table:
        q, s = _candidates(self, big, rows)
        if interaction is Interaction.INTERSECTS:
            keep = relate("intersects", self.batch, s, big, q)
        elif interaction is Interaction.CONTAINS:
            keep = relate("contains", self.batch, s, big, q)
        else:  # WITHIN: big.Contains(small)
            keep = relate("contains", big, q, self.batch, s)
        out = pa.table(
            {
                "big_row_id": pa.array(big.row_id[q[keep]], pa.int64()),
                "small_row_id": pa.array(self.batch.row_id[s[keep]], pa.int64()),
            }
        )
        if with_geos:
            out = _attach_geos(out, self, s[keep], batch, q[keep])
        return out

    def prox(self, big: GeomBatch, batch: pa.Table, rows: np.ndarray | None = None, *,
             with_geos: bool = False) -> pa.Table:
        q, s = _candidates(self, big, rows)
        d = relate("distance", self.batch, s, big, q)
        if not np.isfinite(d).all():
            raise AssertionError("non-finite distance")  # index.rs:436 assert
        # inclusive threshold (index.rs:438); per-row radius when the index
        # was built with radius_col, else the scalar Config.max_distance
        thr = self.radius[s] if self.radius is not None else self.config.max_distance
        keep = d <= thr
        out = pa.table(
            {
                "big_row_id": pa.array(big.row_id[q[keep]], pa.int64()),
                "small_row_id": pa.array(self.batch.row_id[s[keep]], pa.int64()),
                "distance": pa.array(d[keep], pa.float64()),
            }
        )
        if with_geos:
            out = _attach_geos(out, self, s[keep], batch, q[keep])
        return out

    def first_key(self, k: int) -> float:
        """First kNN radius: the expected k-neighbourhood at the average
        density over the extent."""
        x0, y0, x1, y1 = self.extent
        diag = math.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2) or 1.0
        return max(diag * math.sqrt(min(1.0, (k + 1) / self.batch.n)) * 0.5, diag * 1e-6)

    def near(self, big: GeomBatch, rows: np.ndarray, r: float):
        """Candidates (position in ``rows``, small position) of every small
        within distance ``r`` of the big rows ``rows``, and per row whether
        its query box covers the whole small-side extent."""
        qb = dilate(big.bbox[rows], r)
        q, s = self.tree.query(qb)
        x0, y0, x1, y1 = self.extent
        return q, s, (qb[:, 0] <= x0) & (qb[:, 1] <= y0) & (qb[:, 2] >= x1) & (qb[:, 3] >= y1)

    def key(self, big: GeomBatch, b: np.ndarray, s: np.ndarray) -> np.ndarray:
        return relate("distance", self.batch, s, big, b)

    @staticmethod
    def gap(bb: np.ndarray, ext: np.ndarray) -> np.ndarray:
        """(rows, shards) lower bound on any distance from a big bbox into a
        shard: the distance from the bbox to the shard's tree extent."""
        dx = np.maximum(np.maximum(ext[:, 0] - bb[:, 2:3], bb[:, 0:1] - ext[:, 2]), 0.0)
        dy = np.maximum(np.maximum(ext[:, 1] - bb[:, 3:4], bb[:, 1:2] - ext[:, 3]), 0.0)
        # less 1e-12 of the coordinates' magnitude: the point-segment kernel's
        # |cross| / |seg| can round an ulp below the exact box gap
        mag = np.maximum(np.abs(bb).max(axis=1, initial=0.0)[:, None], np.abs(ext).max(axis=1))
        return np.maximum(np.sqrt(dx * dx + dy * dy) - 1e-12 * mag, 0.0)

    @staticmethod
    def knn_table(b_ids, s_ids, d, rank) -> pa.Table:
        return pa.Table.from_arrays([pa.array(a) for a in (b_ids, s_ids, d, rank)],
                                    schema=KNN_SCHEMA)


def _candidates(index, big: GeomBatch, rows: np.ndarray | None = None):
    """(big_pos, small_pos) candidate positions via inclusive bbox overlap;
    big envelopes are NOT dilated (the reference's src/index.rs:143-221).
    ``rows`` limits the probe to those big positions (all when None)."""
    if rows is None:
        return index.tree.query(big.bbox)
    q, s = index.tree.query(big.bbox[rows])
    return rows[q], s


def _attach_geos(out: pa.Table, index: BroadcastIndex, s_pos: np.ndarray,
                 big_table: pa.Table, q_pos: np.ndarray) -> pa.Table:
    """The *_with_geos variants (/root/reference/src/index.rs:449-475,
    537-599): clone both geometries into each output row."""
    if index.table is None:
        raise ValueError("index built with keep_table=False cannot emit *_with_geos")
    bt = big_table.take(pa.array(q_pos))
    st = index.table.take(pa.array(s_pos))
    out = out.append_column("big_geom_type", bt["geom_type"].combine_chunks())
    out = out.append_column("big_coords", bt["coords"].combine_chunks())
    out = out.append_column("small_geom_type", st["geom_type"].combine_chunks())
    return out.append_column("small_coords", st["coords"].combine_chunks())


def _top_k(b: np.ndarray, s: np.ndarray, d: np.ndarray, k: int):
    """Pairs in (b, d, s) order, the first ``k`` of each ``b``, with their
    0-based rank."""
    order = np.lexsort((s, d, b))
    b, s, d = b[order], s[order], d[order]
    rank = rank_within_sorted_groups(b)
    keep = rank < k
    return b[keep], s[keep], d[keep], rank[keep]


def _probe_knn(index, big: GeomBatch, k: int, max_distance, rows: np.ndarray | None = None):
    """Expanding-radius kNN: per big geometry, the k nearest smalls ordered
    by (key, small_row_id) — deterministic ties (SURVEY.md §7(d)).  The key
    is the index kind's distance, and ``max_distance`` one inclusive cap on
    it or an array of one cap per big position; ``rows`` limits the probe
    to those big positions.  Returns (big position, small_row_id, key,
    rank) arrays."""
    nb = big.n
    ns = index.batch.n
    pending = np.arange(nb, dtype=np.int64) if rows is None else rows
    if pending.size == 0 or ns == 0 or k <= 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
    cap = np.broadcast_to(np.asarray(max_distance, np.float64), (nb,))
    r = min(index.first_key(k), float(cap[pending].max()))
    out = []
    # pending-distance cache (VERDICT r2 #7): each doubling round re-queries
    # the tree, and the new candidate set is a SUPERSET of the last round's
    # for every still-pending big — so distances already computed are looked
    # up by packed (big, small) key instead of re-running the (possibly
    # polygon-pair-expensive) distance kernel.  Keys are kept sorted; the
    # cache holds only candidates of still-pending bigs.
    cache_key = np.empty(0, np.int64)
    cache_d = np.empty(0, np.float64)
    while pending.size:
        q, s, covered = index.near(big, pending, r)
        bglob = pending[q]
        key = bglob * np.int64(ns) + s
        d = np.empty(key.size, np.float64)
        if cache_key.size:
            pos = np.minimum(np.searchsorted(cache_key, key), cache_key.size - 1)
            hit = cache_key[pos] == key
            d[hit] = cache_d[pos[hit]]
        else:
            hit = np.zeros(key.size, dtype=bool)
        miss = ~hit
        if miss.any():
            d[miss] = index.key(big, bglob[miss], s[miss])
        # a big geometry is exhausted when every small was a candidate or
        # the radius reached its cap; for those, only the cap filters
        covered |= r >= cap[pending]
        c = cap[bglob]
        ok = np.where(covered[q], d <= c, d <= np.minimum(r, c))
        qq, ss, dd = q[ok], s[ok], d[ok]
        # per-big count of in-radius hits
        cnt = np.bincount(qq, minlength=pending.size)
        done = (cnt >= k) | covered
        if done.any():
            m = done[qq]
            out.append(_top_k(pending[qq[m]], index.batch.row_id[ss[m]], dd[m], k))
        nd = ~done[q]
        if nd.any() and not done.all():
            ck, cd = key[nd], d[nd]
            o = np.argsort(ck, kind="stable")
            cache_key, cache_d = ck[o], cd[o]
        else:
            cache_key = np.empty(0, np.int64)
            cache_d = np.empty(0, np.float64)
        pending = pending[~done]
        r *= 2.0
    return tuple(map(np.concatenate, zip(*out)))


def _knn_sharded(kind, shards, big: GeomBatch, k: int, max_distance: float) -> pa.Table:
    """kNN over the shards in at most two bounded passes.  A row's *gap* to
    a shard (``kind.gap``) is a lower bound on any key into that shard.
    Pass 1 probes each row's home shard (smallest gap) under
    ``max_distance``; the row's kth key there (``max_distance`` when it
    found fewer than k) bounds its global kth key.  Pass 2 probes every
    other shard whose gap is within that bound, with the bound as the row's
    cap.  Both tests are inclusive, so ties at the kth key are kept, and the
    merge ranks all pairs by (key, small_row_id).  One shard is pass 1
    alone."""
    if big.n == 0:
        return kind.empty("knn")
    if len(shards) == 1:
        parts = [_probe_knn(get_index(shards[0][0]), big, k, max_distance)]
    else:
        gap = kind.gap(big.bbox, np.array([e for _, e in shards], np.float64))
        home = np.argmin(gap, axis=1)
        parts = []
        for j, (ref, _) in enumerate(shards):
            rows = np.flatnonzero(home == j)
            if rows.size:
                parts.append(_probe_knn(get_index(ref), big, k, max_distance, rows))
        b, _, d, rank = map(np.concatenate, zip(*parts))
        kth = rank == k - 1
        bound = np.full(big.n, max_distance, np.float64)
        bound[b[kth]] = d[kth]
        # reverse order: the shard resident after pass 1 goes first
        for j, (ref, _) in reversed(list(enumerate(shards))):
            rows = np.flatnonzero((home != j) & (gap[:, j] <= bound))
            if rows.size:
                parts.append(_probe_knn(get_index(ref), big, k, bound, rows))
    b, s, d, _ = map(np.concatenate, zip(*parts))
    return kind.knn_table(*_top_k(big.row_id[b], s, d, k))


def probe_fn(batch: pa.Table, *, kind, shards, mode: str, k: int = 0,
             max_distance: float = float("inf"), **kwargs) -> pa.Table:
    """Stateless probe task body of every join.  ``kind`` is the index class
    of the shards and ``shards`` a tuple of ``(index_ref, extent)``.  kNN
    runs ``_knn_sharded``.  One shard probes every row of the batch; with
    several, join and prox probe each shard with just the rows whose bbox
    meets the shard's tree ``extent`` (``(xmin, ymin, xmax, ymax)``).  The
    worker's cached shard is visited first, so each shard is fetched at most
    once per pass and one is resident at a time."""
    big = kind.decode(batch)
    shards = sorted(shards, key=lambda sh: not is_cached(sh[0]))
    if mode == "knn":
        return _knn_sharded(kind, shards, big, k, max_distance)
    if len(shards) == 1:
        return getattr(get_index(shards[0][0]), mode)(big, batch, **kwargs)
    bb = big.bbox
    outs = []
    for ref, (x0, y0, x1, y1) in shards:
        # NaN never rejects, as in the tree's own box test
        rows = np.flatnonzero(~((bb[:, 0] > x1) | (bb[:, 2] < x0)
                                | (bb[:, 1] > y1) | (bb[:, 3] < y0)))
        if rows.size:
            outs.append(getattr(get_index(ref), mode)(big, batch, rows, **kwargs))
    return pa.concat_tables(outs) if outs else kind.empty(mode, kwargs.get("with_geos", False))


def _bboxes(t: pa.Table) -> pa.Table:
    g = GeomBatch.from_arrow(t)
    return pa.table({"xmin": pa.array(g.bbox[:, 0]), "ymin": pa.array(g.bbox[:, 1]),
                     "xmax": pa.array(g.bbox[:, 2]), "ymax": pa.array(g.bbox[:, 3])})


def _sample_extent(ds, frac: float = 0.1, seed: int = 42, cap: int = 1_000_000):
    """Seeded bbox sample of ``ds`` (``shards.sample``)."""
    return sample(ds, _bboxes, frac, seed, cap)


def _center_x(t: pa.Table) -> np.ndarray:
    """The shard cut key: bbox-center x."""
    bb = GeomBatch.from_arrow(t).bbox
    return (bb[:, 0] + bb[:, 2]) * 0.5


def _build_shards(small, build):
    """``(index_ref, extent)`` of each shard of the small side, each built by
    ``build``.  The extent is the shard's tree root; it is None with one
    shard, which every big row probes."""
    if isinstance(small, (list, tuple, pa.Table)):
        small = _to_table(small)
    built, cuts = build_shards(small, build, _center_x)
    if cuts is None:
        # no wait on the build: the executor starts while it runs
        return ((built[0][0], None),)
    extents = ray.get([ext for _, ext in built])
    return tuple((ref, ext) for (ref, _), ext in zip(built, extents) if ext is not None)


def _stream(big, kind, shards, batch_size: int | None, **kwargs):
    """The big side streamed through ``probe_fn`` past ``shards`` of index
    ``kind``.  ``batch_size`` is the probe batch with one shard (None: whole
    blocks); with several shards the probe takes whole blocks, so a block is
    decoded once for all shards."""
    if isinstance(big, (list, tuple, pa.Table)):
        big = ray.data.from_arrow(_to_table(big))
    if meta_row_count(big) == 0:
        # no probe block would carry the output schema; a big side that is
        # empty only once executed still yields a schema-less result
        return ray.data.from_arrow(kind.empty(kwargs["mode"], kwargs.get("with_geos", False)))
    return stream(big, probe_fn, batch_size if len(shards) == 1 else None,
                  kind=kind, shards=shards, **kwargs)


class SpatialIndex:
    """Public API mirroring the reference (/root/reference/src/lib.rs:229-258):
    ``Config`` + small side in, join methods out — but each method returns a
    lazy ``ray.data.Dataset`` instead of an iterator.

    ``small`` is a geometry sequence, a ``pa.Table`` or a ``Dataset``; the
    constructor sets the shard count and builds the shards.  An in-memory
    small side raises its build errors (``LineStringTooSmall``,
    ``BadMaxDistance``, ...) here.  A ``Dataset`` small side with one shard
    is built asynchronously, so its build errors surface when the query
    executes: waiting for the build would keep the driver from starting
    Ray Data's executor meanwhile (29 ms a warm query on ``pbsm_skew``'s
    inputs, one core).  The build is eager, so a query whose big side is
    empty still builds the small side: raising build errors at construction
    is the contract that keeps it eager, and deferring the build to the
    first probe would move them to query execution.  ``batch_size`` is the
    probe batch with one shard (None: whole blocks); with several shards
    the probe takes whole blocks, so a block is decoded once for all
    shards."""

    def __init__(self, small, config: Config = Config(), batch_size: int | None = 8192,
                 keep_table: bool = True, radius_col: str | None = None):
        self.config = config
        self.batch_size = batch_size
        self.shards = _build_shards(small, partial(BroadcastIndex, config=config,
                                                   keep_table=keep_table, radius_col=radius_col))

    def _probe(self, big, **kwargs):
        return _stream(big, BroadcastIndex, self.shards, self.batch_size, **kwargs)

    def spatial_join(self, big, interaction: Interaction):
        """Dataset[big_row_id, small_row_id]; semantics index.rs:497-534."""
        return self._probe(big, mode="join", interaction=interaction)

    def spatial_join_with_geos(self, big, interaction: Interaction):
        """Same + both geometry payloads (index.rs:537-599)."""
        return self._probe(big, mode="join", interaction=interaction, with_geos=True)

    def proximity_map(self, big):
        """Dataset[big_row_id, small_row_id, distance]; inclusive threshold."""
        return self._probe(big, mode="prox")

    def proximity_map_with_geos(self, big):
        """Same + both geometry payloads (index.rs:449-475)."""
        return self._probe(big, mode="prox", with_geos=True)

    def knn_join(self, big, k: int, max_distance: float = float("inf")):
        """Dataset[big_row_id, small_row_id, distance, rank]; new engine scope
        (BASELINE.json north_rule); ties (distance, small_row_id)."""
        return self._probe(big, mode="knn", k=k, max_distance=max_distance)
