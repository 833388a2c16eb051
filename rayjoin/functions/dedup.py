"""Deduplication operators (training-data engine scope; driver brief):

- exact:     content hash -> hash-partitioned groupby -> keep min doc_id
- minhash:   shingle -> minhash -> LSH band buckets -> candidate pairs ->
             exact Jaccard verify   (the scalable near-dup path)
- simhash:   64-bit simhash hamming buckets (4-table split) -> verify
- ngram:     brute Jaccard on n-gram sets for candidate pairs (the verifier)

Everything per-batch is vectorized.  The shuffles are the groupbys on
hash/bucket keys, which is the minimum any distributed dedup needs (partial
state per batch first, SURVEY.md aggregation guidance); key joins onto a
bounded side are sharded lookups (``join.equi``) that stream the big side
past it with no exchange.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.geocode import fnv1a64


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_content_hash(batch: pa.Table, *, text_col: str = "text", out_col: str = "content_hash") -> pa.Table:
    h = fnv1a64(batch[text_col])
    return batch.append_column(out_col, pa.array(h.astype(np.int64), pa.int64()))


def dedup_exact(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Keep the minimum id per distinct text.  Hash first (vectorized, per
    batch), then a partial min per batch, then one small groupby — the
    pre-aggregation keeps the shuffle tiny at scale."""
    import ray.data
    from ray.data.aggregate import Min

    hashed = ds.map_batches(
        lambda t: add_content_hash(t, text_col=text_col).select([id_col, "content_hash"]),
        batch_format="pyarrow",
    )

    def partial_min(t: pa.Table) -> pa.Table:
        # Arrow-native hash aggregation (VERDICT r2 #6: the pandas round
        # trip copied every batch twice for a 2-column groupby-min)
        g = t.group_by("content_hash").aggregate([(id_col, "min")])
        # select by NAME before renaming: pa.Table.group_by column order
        # (keys vs aggregates first) differed across pyarrow releases
        return g.select(["content_hash", f"{id_col}_min"]).rename_columns(
            ["content_hash", id_col])

    partial = hashed.map_batches(partial_min, batch_format="pyarrow")
    return partial.groupby("content_hash").aggregate(Min(id_col, alias_name=id_col))


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------


def _flat_windows(texts: pa.Array, k: int = 5):
    """BYTE k-shingle hashes per document over the flat utf-8 buffer with a
    rolling polynomial.  For ASCII text byte shingles equal character
    shingles; for multi-byte text the engine's contract is byte shingles END
    TO END (signatures and verify use the same windows, so the pipeline is
    self-consistent).  Returns (hashes aligned per (doc, window-pos),
    per-doc window offsets, flat-buffer start index per window, in-doc
    position per window, flat byte buffer)."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    n = len(arr)
    buf = arr.buffers()
    # large_string/large_binary carry int64 offsets — reading them as int32
    # silently misparses every row (the same bug class the checkpoint
    # digest fix pinned; review r3)
    off_dtype = (
        np.int64
        if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
        else np.int32
    )
    offsets = np.frombuffer(buf[1], dtype=off_dtype, count=n + 1 + arr.offset)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    data = (
        np.frombuffer(buf[2], dtype=np.uint8)
        if buf[2] is not None
        else np.empty(0, np.uint8)
    )
    lens = offsets[1:] - offsets[:-1]
    # rolling hash over the whole flat buffer, then mask out windows that
    # cross document boundaries
    if data.size < k:
        return (np.empty(0, np.uint64), np.zeros(n + 1, np.int64),
                np.empty(0, np.int64), np.empty(0, np.int64), data)
    with np.errstate(over="ignore"):
        h = np.zeros(data.size - k + 1, dtype=np.uint64)
        for j in range(k):
            h = h * np.uint64(1099511628211) + data[j : data.size - k + 1 + j].astype(np.uint64)
    # windows fully inside doc i: start in [offsets[i], offsets[i+1]-k]
    counts = np.maximum(lens - k + 1, 0)
    doc_off = np.concatenate([[0], np.cumsum(counts)])
    if counts.sum():
        from ..geom.primitives import repeat_expand

        pid, kk = repeat_expand(counts)
        idx = offsets[:-1][pid] + kk
    else:
        idx = np.empty(0, np.int64)
        kk = np.empty(0, np.int64)
    return h[idx], doc_off, idx, kk, data


def _shingle_hashes(texts: pa.Array, k: int = 5) -> Tuple[np.ndarray, np.ndarray]:
    h, doc_off, _, _, _ = _flat_windows(texts, k)
    return h, doc_off


def minhash_signatures(texts, *, num_perm: int = 64, k: int = 5, seed: int = 1) -> np.ndarray:
    """(n, num_perm) uint64 minhash signatures via affine permutations of the
    shingle hash universe."""
    flat, doc_off = _shingle_hashes(texts, k)
    n = doc_off.size - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**61, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**61, size=num_perm, dtype=np.uint64)
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    counts = np.diff(doc_off)
    nonempty = counts > 0
    starts = doc_off[:-1][nonempty]
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            ph = flat * a[p] + b[p]
            if ph.size:
                # shingles are contiguous per doc -> segmented min via
                # reduceat (ufunc.at is ~100x slower)
                sig[nonempty, p] = np.minimum.reduceat(ph, starts)
    return sig


def minhash_dedup_pairs(ds, *, id_col: str = "doc_id", text_col: str = "text",
                        num_perm: int = 64, bands: int = 16, k: int = 5,
                        threshold: float = 0.8, shingle_k: int = 5,
                        collapse_exact: bool = True,
                        expand_exact: str = "pairs",
                        bucket_cap: int | None = 8192,
                        direct_band_rows: int = 2_000_000):
    """Near-duplicate pairs via MinHash-LSH.

    Pipeline: per-batch signatures -> explode to (band, band_hash, id) rows ->
    groupby band buckets -> candidate pairs (id_a < id_b) -> exact character
    k-shingle Jaccard verify >= threshold -> distinct pairs.

    Mega-bucket safety (VERDICT r4 #1): on the shuffle plan, byte-identical
    texts are first collapsed to one representative (``_collapse_exact_texts``)
    so a boilerplate page with 10^5+ exact copies enters banding ONCE; the
    suppressed pairs are re-derived exactly afterwards
    (``expand_exact="pairs"``, identical output — members share their rep's
    signatures and verify outcome) or as rep->member stars
    (``expand_exact="star"``, O(m) rows with identical connected components —
    the tier component consumers use).

    ``bucket_cap`` semantics (be precise — this is a bounded-memory
    APPROXIMATION, not free): a band bucket with more than ``bucket_cap``
    colliding docs emits a star to the bucket-min doc instead of the O(m^2)
    clique.  Star candidates still pass the exact Jaccard verify, so for a
    bucket of byte-identical texts (only possible on the direct plan — the
    shuffle plan pre-collapses them) every star edge verifies at J=1 and
    connected components are preserved exactly (member-member PAIRS beyond
    the star are not emitted).  For an over-full bucket of DISTINCT texts,
    a star edge to a bucket-min that fails the verify can drop real pairs
    and split a component — at most for families larger than ``bucket_cap``
    colliding in one band, which no gate/stress corpus reaches.  Set
    ``bucket_cap=None`` for the unconditional-exact contract (and accept
    O(m^2) candidate memory on adversarial skew).
    """
    import ray.data

    rows_per_band = num_perm // bands

    def to_bands(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[text_col], num_perm=num_perm, k=shingle_k)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        n = sig.shape[0]
        band_ids = np.repeat(np.arange(bands, dtype=np.int64), n)
        doc_rep = np.tile(ids, bands)
        bh = np.empty(bands * n, dtype=np.int64)
        with np.errstate(over="ignore"):
            for b in range(bands):
                seg = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
                h = np.zeros(n, dtype=np.uint64)
                for c in range(rows_per_band):
                    h = h * np.uint64(1099511628211) ^ seg[:, c]
                bh[b * n : (b + 1) * n] = h.astype(np.int64)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int64()),
                "band_hash": pa.array(bh, pa.int64()),
                id_col: pa.array(doc_rep, pa.int64()),
            }
        )

    # fuse band explosion + coarse bucketing in one stage: each map_groups
    # group is a large chunk (a per-LSH-bucket map_groups would shuffle into
    # millions of singleton groups)
    def to_bands_bucketed(t: pa.Table) -> pa.Table:
        out = to_bands(t)
        b = np.asarray(out["band_hash"].combine_chunks(), dtype=np.int64)
        return out.append_column("bucket", pa.array((b % 127 + 127) % 127, pa.int64()))

    bands_ds = ds.map_batches(to_bands_bucketed, batch_format="pyarrow")

    def bucket_pairs(t: pa.Table) -> pa.Table:
        """Candidate pairs within each (band, band_hash) bucket of this
        group.  Grouping/dedup is one vectorized lexsort; only buckets that
        actually collide (>=2 docs — rare) expand pairs."""
        band = np.asarray(t["band"].combine_chunks(), dtype=np.int64)
        bh = np.asarray(t["band_hash"].combine_chunks(), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        order = np.lexsort((ids, bh, band))
        band, bh, ids = band[order], bh[order], ids[order]
        # drop duplicate (band, hash, id) rows, then find bucket boundaries
        if band.size:
            keep = np.concatenate(
                [[True], (band[1:] != band[:-1]) | (bh[1:] != bh[:-1]) | (ids[1:] != ids[:-1])]
            )
            band, bh, ids = band[keep], bh[keep], ids[keep]
        new_grp = np.concatenate(
            [[True], (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])]
        ) if band.size else np.empty(0, bool)
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.concatenate([starts, [band.size]]))
        out_a, out_b = [], []
        for st, m in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            if bucket_cap is not None and m > bucket_cap:
                # over-full bucket: star to the bucket-min doc (ids ascend
                # within the group) — O(m) candidate rows; the exact Jaccard
                # verify still gates every emitted pair.  See the bucket_cap
                # semantics note in the minhash docstring: exact for
                # identical-text buckets, bounded-memory approximation for
                # >cap DISTINCT colliders.
                out_a.append(np.full(m - 1, ids[st], np.int64))
                out_b.append(ids[st + 1 : st + m])
                continue
            # mask-free i<j expansion: O(output) memory (np.triu_indices
            # builds an (m,m) mask — fatal for uncapped mega-buckets)
            cnts = np.arange(m - 1, 0, -1)
            ia = np.repeat(np.arange(m - 1), cnts)
            ib = np.arange(m * (m - 1) // 2) - (np.cumsum(cnts) - cnts)[ia] + ia + 1
            out_a.append(ids[st + ia])
            out_b.append(ids[st + ib])
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        pairs = pa.table({"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())})
        return pairs.group_by(["id_a", "id_b"]).aggregate([]).select(["id_a", "id_b"])

    # small-corpus direct path (same tiering philosophy as the broadcast
    # spatial plan): when metadata knows the band-row count is bounded,
    # collect the band rows once and pair them with ONE local lexsort —
    # skipping the groupby(bucket) AllToAll plus two materialization
    # barriers whose fixed cost dominates at toy scale (VERDICT r4 #1).
    # The pull is bounded by direct_band_rows (~24B/row); big corpora take
    # the shuffle plan below, identical output (gate + pytest certified).
    from ..util import meta_row_count

    nrows = meta_row_count(ds)
    if nrows is not None and nrows * bands <= direct_band_rows:
        import ray

        tabs = [t for t in ray.get(bands_ds.to_arrow_refs()) if t.num_rows]
        if tabs:
            cands = _sliced_dataset(bucket_pairs(pa.concat_tables(tabs)))
        else:
            cands = ray.data.from_arrow(pa.table(
                {"id_a": pa.array([], pa.int64()),
                 "id_b": pa.array([], pa.int64())})).materialize()
        return verify_pairs_jaccard(
            cands, ds, id_col=id_col, text_col=text_col, threshold=threshold,
            k=shingle_k)

    # shuffle plan: pre-collapse exact duplicates (mega-bucket safety; see
    # docstring) and band only the representatives
    members = dup = None
    if collapse_exact:
        reps, members, dup = _collapse_exact_texts(
            ds, id_col=id_col, text_col=text_col)
        if members is not None:
            bands_ds = reps.map_batches(to_bands_bucketed, batch_format="pyarrow")

    cands = bands_ds.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")

    # distinct BEFORE the (more expensive) verify: a pair can fire in several
    # bands -> different buckets.  Materialize first so the count, the
    # distinct, and the two downstream consumers (candidate-id collection +
    # verify) never re-execute the signature pipeline.  ``_distinct_pairs``
    # dedupes small sets with one driver-side lexsort (verify pulls the same
    # blocks anyway; the 5M cap bounds the pull exactly like the old
    # repartition(1) path — minus its three barrier stages, measured ~0.7s
    # of fixed overhead at bench scale) and large ones (high-dup corpora)
    # via a vectorized groupby(id_a, id_b) shuffle.
    cands = _distinct_pairs(cands.materialize())

    # verify by joining candidate pairs back to (id, text) — never the
    # r1 driver-side full-corpus dict (VERDICT r1 #1).  Candidates are all
    # representatives, which exist in ``ds`` — verifying against the full
    # corpus avoids re-executing the rep filter.
    verified = verify_pairs_jaccard(
        cands, ds, id_col=id_col, text_col=text_col, threshold=threshold, k=shingle_k
    )
    if members is not None:
        # identical texts have Jaccard 1.0 >= any threshold <= 1.0, so
        # within-group pairs need no verify; cross pairs inherit their rep
        # pair's exact verify outcome (identical shingle sets)
        verified = _expand_exact_pairs(
            verified.materialize(), members, dup, mode=expand_exact)
    return verified


# ---------------------------------------------------------------------------
# pair verification (join texts onto candidate pairs + vectorized Jaccard)
# ---------------------------------------------------------------------------


def _num_join_partitions(*sides, cap: int = 64,
                         target_partition_bytes: int = 256 << 20) -> int:
    """Hash-join partition count sized to the cluster AND the data
    (VERDICT r4 #2: a constant 64 cap put side_bytes/64 through each
    aggregator actor at 100 TB scale).  Base count is min(cap, CPUs) —
    Dataset.join spins up one aggregator actor per partition, so asking for
    more partitions than CPUs deadlocks small sessions — but when the
    callers pass the join ``sides`` (Datasets) whose metadata knows a byte
    size, the count scales up to ``bytes // target_partition_bytes``
    (still bounded by cluster CPUs, the scheduling limit) so per-aggregator
    memory stays ~target_partition_bytes no matter how big the input.
    Metadata-only byte probes (``util.meta_size_bytes``) — an unknown size
    degrades to the base count, never to a hidden plan execution."""
    import ray

    from ..util import meta_size_bytes

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    base = max(2, min(cap, cpus))
    est = 0
    for s in sides:
        if s is None:
            continue
        b = meta_size_bytes(s)
        if b:
            est += int(b)
    if est <= 0:
        return base
    want = -(-est // target_partition_bytes)  # ceil
    return max(2, min(cpus, max(base, want)))


def _mix64(h: np.ndarray) -> np.ndarray:
    """Murmur3 64-bit finalizer — a BIJECTION on uint64 (preserves set
    cardinalities and intersections exactly) that avalanches low-bit
    differences across the whole word."""
    h = h.copy()
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h


def _segment_unique(h: np.ndarray, off: np.ndarray):
    """Per-segment unique values of a ragged array: one lexsort + adjacent
    dedupe (fully vectorized).  Returns (values, segment_of_value,
    per-segment unique counts)."""
    n = off.size - 1
    seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
    order = np.lexsort((h, seg))
    hs, ss = h[order], seg[order]
    if hs.size:
        keep = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])])
        hs, ss = hs[keep], ss[keep]
    counts = np.bincount(ss, minlength=n).astype(np.int64)
    return hs, ss, counts


def jaccard_batch(texts_a, texts_b, k: int = 5) -> np.ndarray:
    """Vectorized character-k-shingle Jaccard for row-aligned text columns:
    shingle hashes per side, per-row unique via one lexsort each, then the
    intersection counted via one merged lexsort — no per-pair Python sets.
    (Shingles are hashed 64-bit: collisions are negligible; the scalar spec
    is ``jaccard_shingles``, differential-tested in pytest.)"""
    ha, off_a = _shingle_hashes(texts_a, k)
    hb, off_b = _shingle_hashes(texts_b, k)
    n = off_a.size - 1
    ua_h, ua_s, ca = _segment_unique(ha, off_a)
    ub_h, ub_s, cb = _segment_unique(hb, off_b)
    h = np.concatenate([ua_h, ub_h])
    s = np.concatenate([ua_s, ub_s])
    side = np.concatenate([np.zeros(ua_h.size, np.int8), np.ones(ub_h.size, np.int8)])
    order = np.lexsort((side, h, s))
    h, s = h[order], s[order]
    dup = (h[1:] == h[:-1]) & (s[1:] == s[:-1]) if h.size else np.empty(0, bool)
    inter = np.bincount(s[1:][dup], minlength=n).astype(np.int64)
    union = ca + cb - inter
    out = np.ones(n, np.float64)  # both-empty => 1.0 (matches jaccard_shingles)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def _jaccard_at_least(va, sa, ca, vb, sb, cb, threshold: float):
    """Exact shingle Jaccard test of row-aligned set pairs: row i's sets are
    ``va[sa[i]:sa[i] + ca[i]]`` and ``vb[sb[i]:sb[i] + cb[i]]``, each sorted
    and unique.  Returns (kept, inter, union): the rows whose Jaccard >=
    threshold, and each row's exact intersection and union sizes (rows
    refuted before the intersection: 0 and ca + cb)."""
    from ..geom.primitives import repeat_expand
    from ..util import intersection_counts

    n = ca.size
    # EXACT prefilter: jaccard <= min(|A|,|B|)/max(|A|,|B|) — pairs whose
    # set sizes differ too much cannot reach the threshold (drops ~60% of
    # LSH candidates for free)
    lo = np.minimum(ca, cb).astype(np.float64)
    hi = np.maximum(ca, cb).astype(np.float64)
    np.divide(lo, hi, out=lo, where=hi > 0)
    maybe = np.where(hi > 0, lo >= threshold, True)
    jac = np.zeros(n, np.float64)
    jac[(ca == 0) & (cb == 0)] = 1.0  # both empty => 1.0
    inter_all = np.zeros(n, np.int64)
    union_all = (ca + cb).astype(np.int64)
    m = np.flatnonzero(maybe & (hi > 0))
    if m.size:
        sa_m, sb_m, ca_m, cb_m = sa[m], sb[m], ca[m], cb[m]
        # EXACT bottom-K prefix prune before the full-set gather (round-4
        # profiling: the full intersection is DRAM-bound — ~8.5M gathered
        # elements per 4096-pair batch with FLAT multicore scaling on the
        # measured box — while ~all non-duplicate candidates can be refuted
        # from their K smallest hashes).  The sets are SORTED, so with L =
        # min(max of A's K-prefix, max of B's K-prefix), every element <= L
        # of either set lies inside that set's prefix; prefix misses
        # therefore bound |A and B| <= size - misses exactly, and the
        # monotone-float prune never drops a pair the full verify would
        # keep.  K is sized so the bound CAN prune at this threshold
        # (slack (1-t)/(1+t) * max size).
        K = int(np.clip(np.ceil((1.0 - threshold) / (1.0 + threshold)
                                * hi.max()) + 8, 16, 512))
        if threshold > 0 and K * 3 <= np.mean(ca_m + cb_m) / 2:
            ka_len = np.minimum(ca_m, K)
            kb_len = np.minimum(cb_m, K)
            pga, pga_k = repeat_expand(ka_len)
            pgb, pgb_k = repeat_expand(kb_len)
            ka = va[sa_m[pga] + pga_k]
            kb = vb[sb_m[pgb] + pgb_k]
            L = np.minimum(va[sa_m + ka_len - 1], vb[sb_m + kb_len - 1])
            sel_a = ka <= L[pga]
            sel_b = kb <= L[pgb]
            na_L = np.bincount(pga[sel_a], minlength=m.size)
            nb_L = np.bincount(pgb[sel_b], minlength=m.size)
            i_L = intersection_counts(
                ka[sel_a], pga[sel_a], kb[sel_b], pgb[sel_b], m.size)
            ub = np.minimum(ca_m - (na_L - i_L), cb_m - (nb_L - i_L))
            keep = ub.astype(np.float64) / np.maximum(ca_m + cb_m - ub, 1) >= threshold
            m, sa_m, sb_m, ca_m, cb_m = m[keep], sa_m[keep], sb_m[keep], ca_m[keep], cb_m[keep]
        if m.size:
            ga, ga_k = repeat_expand(ca_m)
            gb, gb_k = repeat_expand(cb_m)
            inter = intersection_counts(va[sa_m[ga] + ga_k], ga,
                                        vb[sb_m[gb] + gb_k], gb, m.size)
            union = ca_m + cb_m - inter
            jac[m] = inter / union
            inter_all[m] = inter
            union_all[m] = union
    return jac >= threshold, inter_all, union_all


def _hash_sets(index, pos: np.ndarray):
    """The flat hash array of a hash-set shard (a ``KeyIndex`` whose payload
    is one ``shash`` blob column) and the start and size in it of the sets
    of rows ``pos``; views of the blob buffers, no copy."""
    col = index.payload["shash"].chunk(0)
    _, off_buf, data = col.buffers()
    off = np.frombuffer(off_buf, np.int64, count=col.offset + len(col) + 1)[col.offset:]
    n = int(off[-1]) // 8
    vals = np.frombuffer(data, np.uint64, count=n) if n else np.empty(0, np.uint64)
    return vals, off[pos] // 8, (off[pos + 1] - off[pos]) // 8


def verify_pairs_jaccard(pairs_ds, corpus_ds, *, id_col: str = "doc_id",
                         text_col: str = "text", threshold: float = 0.8,
                         k: int = 5, emit_sizes: bool = False):
    """Keep the pairs whose exact shingle Jaccard >= threshold.  With
    ``emit_sizes`` the surviving pairs carry exact (inter, uni) columns.

    Plan (VERDICT r1 fix): the corpus is semi-joined to the ids named in
    some candidate pair — a set bounded by the pair graph, NOT the corpus —
    and each of those docs' unique shingle hashes is computed once,
    distributed (``prehash``) into a hash side sharded by doc id
    (``join.equi.KeyLookup``).  Each pair reads its two docs' sets in
    place from that side (``KeyLookup.pairs``: no exchange, no per-pair
    copy of a set, no driver-side data) for ``_jaccard_at_least``; a pair
    naming a doc that is not in the corpus is dropped, as by an inner
    join.  The corpus is never materialized in one process (the old
    driver prep was a single-core ~10-minute stall at 650k candidate docs
    on the dup-heavy stress).
    """
    from ..join.equi import KeyLookup, equi_join

    def pair_ids(t: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([np.asarray(t["id_a"].combine_chunks(), dtype=np.int64),
                                        np.asarray(t["id_b"].combine_chunks(), dtype=np.int64)]))
        return pa.table({"id": pa.array(ids, pa.int64())})

    texts_small = equi_join(corpus_ds.select_columns([id_col, text_col]),
                            pairs_ds.map_batches(pair_ids, batch_format="pyarrow"),
                            id_col, "id", how="left_semi")

    def prehash(t: pa.Table) -> pa.Table:
        """DISTRIBUTED per-doc unique shingle hashes (a doc appears in many
        pairs, so per-pair re-hashing would redo the work ~avg-degree
        times).  Avalanche-mix BEFORE uniquing: the rolling polynomial
        concentrates shingle differences in the LOW bits, so the verify's
        truncated-key sort would systematically collide; the murmur3
        finalizer is a bijection on uint64 (set semantics identical) with
        random top bits.  Each doc's SORTED set is one large_binary blob
        (int64 offsets: a shard's blobs may pass 2 GiB), read in place by
        ``_hash_sets``."""
        h, off = _shingle_hashes(t[text_col], k)
        h = _mix64(h)
        uh, _, ucounts = _segment_unique(h, off)
        uoff = np.concatenate([[0], np.cumsum(ucounts)]).astype(np.int64) * 8
        blobs = pa.Array.from_buffers(
            pa.large_binary(), ucounts.size,
            [None, pa.py_buffer(uoff.tobytes()), pa.py_buffer(uh.tobytes())],
        )
        return pa.table({id_col: t[id_col], "shash": blobs})

    hashes = KeyLookup(texts_small.map_batches(prehash, batch_format="pyarrow"), id_col)

    def verify(t: pa.Table) -> pa.Table:
        a = np.asarray(t["id_a"].combine_chunks(), dtype=np.int64)
        b = np.asarray(t["id_b"].combine_chunks(), dtype=np.int64)
        keep, inter, uni = ([np.empty(0, np.int64)] for _ in range(3))
        for ia, ib, rows, pos_a, pos_b in hashes.pairs(a, b):
            kept, i_, u_ = _jaccard_at_least(*_hash_sets(ia, pos_a), *_hash_sets(ib, pos_b),
                                             threshold)
            keep.append(rows[kept])
            inter.append(i_[kept])
            uni.append(u_[kept])
        out = t.select(["id_a", "id_b"]).take(pa.array(np.concatenate(keep)))
        if emit_sizes:
            out = out.append_column("inter", pa.array(np.concatenate(inter)))
            out = out.append_column("uni", pa.array(np.concatenate(uni)))
        return out

    return pairs_ds.map_batches(verify, batch_format="pyarrow", batch_size=4096)


def jaccard_shingles(a: str, b: str, k: int = 5) -> float:
    sa = {a[i : i + k] for i in range(max(len(a) - k + 1, 0))}
    sb = {b[i : i + k] for i in range(max(len(b) - k + 1, 0))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# duplicate clusters (connected components over near-dup pairs)
# ---------------------------------------------------------------------------


def _clusters_numpy(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Exact connected components of a bounded edge list, fully vectorized:
    min-label edge relaxation + full pointer jumping until the fixed point.
    Converges in O(log diameter) outer rounds."""
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    label = np.arange(nodes.size, dtype=np.int64)
    while True:
        # full path compression (pointer doubling to closure)
        while True:
            nl = label[label]
            if np.array_equal(nl, label):
                break
            label = nl
        relaxed = np.minimum(label[ia], label[ib])
        before = label.copy()
        np.minimum.at(label, ia, relaxed)
        np.minimum.at(label, ib, relaxed)
        if np.array_equal(before, label):
            break
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array(nodes[label], pa.int64()),
        }
    )


def dup_clusters(pairs_ds, *, max_rounds: int = 50,
                 driver_threshold_pairs: int = 5_000_000, method: str = "auto"):
    """Resolve near-dup pairs into clusters: every doc gets the MIN id of its
    connected component (so `keep = doc_id == cluster_id` keeps one doc per
    cluster).  Returns Dataset[doc_id, cluster_id] for docs in some pair.

    Two physical plans (VERDICT r1 #9 / ADVICE fixes):

    - ``driver``: the pair graph (pairs << corpus — it already survived LSH +
      verify) fits one process -> exact vectorized numpy components, no
      per-element Python, no iteration over Datasets.
    - ``distributed``: labels AND edges stay Datasets; each round attaches
      neighbor labels via a ``Dataset.join`` hash join and adds
      label-of-label edges (pointer doubling -> O(log diameter) rounds);
      fixed point detected from the monotone ``sum(label)`` scalar.  Warns
      if ``max_rounds`` is hit before convergence instead of returning
      wrong labels silently.
    """
    import ray.data
    from ray.data.aggregate import Min

    # one execution of the (possibly lazy) pair pipeline serves the plan
    # choice AND whichever path consumes it below
    pairs_ds = pairs_ds.materialize()
    if method == "auto":
        n_pairs = pairs_ds.count()
        # rows AND bytes (ADVICE r2: a row cap alone doesn't bound driver
        # heap; size_bytes() is metadata-free on a materialized Dataset)
        try:
            n_bytes = pairs_ds.size_bytes()
        except Exception:
            n_bytes = None
        fits = n_pairs <= driver_threshold_pairs and (
            n_bytes is None or n_bytes <= (2 << 30)
        )
        method = "driver" if fits else "distributed"

    if method == "driver":
        import ray

        tabs = [t for t in ray.get(pairs_ds.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return ray.data.from_arrow(
                pa.table({"doc_id": pa.array([], pa.int64()),
                          "cluster_id": pa.array([], pa.int64())})
            )
        t = pa.concat_tables(tabs)
        out = _clusters_numpy(
            np.asarray(t["id_a"], dtype=np.int64), np.asarray(t["id_b"], dtype=np.int64)
        )
        return ray.data.from_arrow(out)

    edges = pairs_ds.map_batches(
        lambda t: pa.table(
            {
                "node": pa.concat_arrays(
                    [t["id_a"].combine_chunks(), t["id_b"].combine_chunks()]
                ),
                "peer": pa.concat_arrays(
                    [t["id_b"].combine_chunks(), t["id_a"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    # groupby/Sort stages can STOCHASTICALLY emit zero-row blocks with an
    # EMPTY schema; such blocks bypass map UDFs and crash the hash-join
    # aggregators below with "No match for key field" (util docstring) —
    # scrub edges once and labels after every groupby
    from ..util import drop_schemaless_empty_blocks

    _edge_empty = pa.table({"node": pa.array([], pa.int64()),
                            "peer": pa.array([], pa.int64())})
    _lab_empty = pa.table({"node": pa.array([], pa.int64()),
                           "label": pa.array([], pa.int64())})
    edges = drop_schemaless_empty_blocks(edges, _edge_empty)

    # labels: start at min(node, peer) per node
    labels = (
        edges.map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "label": pa.compute.min_element_wise(t["node"], t["peer"]),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    labels = drop_schemaless_empty_blocks(labels, _lab_empty)
    prev_sum = labels.sum("label")
    num_partitions = _num_join_partitions(edges, labels)

    # empty shuffle partitions can surface null-typed columns; every join
    # output is re-pinned to the int64 (node, label) schema before the union
    # so the downstream groupby never sees mixed block schemas
    _pin = lambda t: pa.table(
        {"node": t["node"].cast(pa.int64()), "label": t["label"].cast(pa.int64())}
    )
    converged = False
    for _ in range(max_rounds):
        # neighbor labels: hash join labels onto edges on peer
        peer_lab = edges.join(
            labels, "inner", num_partitions, on=("peer",), right_on=("node",),
            right_suffix="_r",
        ).select_columns(["node", "label"]).map_batches(_pin, batch_format="pyarrow")
        # pointer doubling: label-of-label
        # result columns: node, label_l (own), label_r (label's label)
        lab_lab = labels.join(
            labels, "inner", num_partitions, on=("label",), right_on=("node",),
            left_suffix="_l", right_suffix="_r",
        ).map_batches(
            lambda t: pa.table(
                {"node": t["node"].cast(pa.int64()),
                 "label": t["label_r"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        labels = (
            labels.union(peer_lab)
            .union(lab_lab)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        labels = drop_schemaless_empty_blocks(labels, _lab_empty)
        s = labels.sum("label")
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
        import warnings

        warnings.warn(
            f"dup_clusters: label propagation did not converge in {max_rounds} rounds"
        )

    return labels.map_batches(
        lambda t: t.select(["node", "label"]).rename_columns(
            ["doc_id", "cluster_id"]),
        batch_format="pyarrow",
    )


def near_dup_drop_list(ds, *, id_col: str = "doc_id", text_col: str = "text",
                       threshold: float = 0.8):
    """End-to-end near-dedup: MinHash-LSH pairs -> connected components ->
    the doc ids to DROP (every doc that is not its cluster's min).  Keeping
    `corpus WHERE doc_id NOT IN drop_list` retains exactly one doc per
    near-dup cluster.

    Pairs are requested with ``expand_exact="star"`` (VERDICT r4 #1): this
    consumer only needs connected COMPONENTS, which are provably identical
    under rep->member star edges, so a group of m byte-identical docs
    contributes O(m) pair rows instead of the O(m^2) clique."""
    pairs = minhash_dedup_pairs(ds, id_col=id_col, text_col=text_col,
                                threshold=threshold, expand_exact="star")
    clusters = dup_clusters(pairs)
    return clusters.map_batches(
        lambda t: t.filter(
            pa.compute.not_equal(t["doc_id"], t["cluster_id"])
        ).select(["doc_id"]),
        batch_format="pyarrow",
    )


def _min_required_overlap(sizes: np.ndarray, threshold: float) -> np.ndarray:
    """Smallest integer overlap o such that a pair with |A| = s could pass
    the verify's ACTUAL acceptance test ``fl(inter/union) >= threshold``
    (float64 division, the exact comparison ``verify_pairs_jaccard`` runs):
    accepted => fl(o/u) >= t with u >= s => (monotone correctly-rounded
    division) fl(o/s) >= t, so o_min(s) = min{o : fl(o/s) >= t}.

    ADVICE r3: the naive float ``ceil(t*s)`` can land one off this value at
    integer boundaries (e.g. when t is the double just above o/s), silently
    shortening the prefix and missing verify-passing candidates.  Here the
    float estimate is CORRECTED by directly testing fl(o/s) >= t one step
    in each direction — exact for every float threshold by construction."""
    s = sizes.astype(np.float64)
    nz = sizes > 0
    o = np.maximum(np.ceil(threshold * s).astype(np.int64), 0)
    for _ in range(2):  # float estimate is within 1; two steps are overkill-safe
        q = np.divide(o - 1, s, out=np.full_like(s, -1.0), where=nz)
        o = np.where((o >= 1) & (q >= threshold), o - 1, o)
    for _ in range(2):
        q = np.divide(o, s, out=np.ones_like(s), where=nz)
        o = np.where(nz & (q < threshold), o + 1, o)
    return o


def _exact_prefix_lengths(sizes: np.ndarray, threshold: float) -> np.ndarray:
    """Prefix lengths p = s - o_min(s) + 1 with the required overlap taken
    from the verify's float acceptance test itself (never shorter than the
    exact theorem allows — ADVICE r3)."""
    p = sizes - _min_required_overlap(sizes, threshold) + 1
    return np.clip(p, np.where(sizes > 0, 1, 0), sizes)


# sentinel prefix key that groups empty shingle sets together; a collision
# with a real shingle hash only adds candidates (the verify is exact)
_EMPTY_SET_PREF = np.int64(-0x5851F42D4C957F2E)


def _sliced_dataset(tbl: pa.Table):
    """In-memory table -> Dataset SLICED into one block per downstream task
    slot: ``from_arrow(one table)`` is ONE block, which made a whole verify
    stage run in a single task — measured >330s single-core at 848k
    candidate pairs where the per-batch math itself is ~0.3s (round-4
    profiling)."""
    import ray
    import ray.data

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    nblocks = int(np.clip(tbl.num_rows // 16384 + 1, 1, cpus * 4))
    step = -(-max(tbl.num_rows, 1) // nblocks)
    parts = [tbl.slice(i * step, step) for i in range(nblocks)
             if i * step < tbl.num_rows]
    return ray.data.from_arrow(parts or [tbl]).materialize()


def _distinct_pairs(cands, cap: int = 5_000_000):
    """Distinct (id_a, id_b) rows of a MATERIALIZED candidate Dataset.
    Small sets (the common case — candidates are pre-shrunk per bucket)
    dedupe with one driver-side lexsort over the collected blocks, skipping
    the three barrier stages of a groupby at toy scale; beyond ``cap`` rows
    the dedup is a distributed groupby shuffle instead (dup-heavy corpora
    never aggregate on the driver)."""
    import ray
    import ray.data
    from ray.data.aggregate import Count

    if cands.count() <= cap:
        tabs = [t for t in ray.get(cands.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return cands
        pt = pa.concat_tables([t.select(["id_a", "id_b"]) for t in tabs])
        a = np.asarray(pt["id_a"], dtype=np.int64)
        b = np.asarray(pt["id_b"], dtype=np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        return _sliced_dataset(pa.table({
            "id_a": pa.array(a[keep], pa.int64()),
            "id_b": pa.array(b[keep], pa.int64()),
        }))
    return (
        cands.groupby(["id_a", "id_b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["id_a", "id_b"])
        .materialize()
    )


# ---------------------------------------------------------------------------
# exact-duplicate pre-collapse for LSH banding (VERDICT r4 #1)
#
# A dup-heavy web corpus routinely has 10^5-10^6 byte-identical copies of one
# boilerplate page; they share EVERY band bucket, so clique expansion inside
# one bucket group is O(m^2) rows in one heap.  Collapsing identical texts to
# one representative (min id) BEFORE banding makes mega-buckets impossible
# for the exact-dup case (the standard pipeline order: exact dedup, then
# near-dedup over distinct texts), and the suppressed pairs are re-derived
# EXACTLY afterwards: members of a group have identical text, hence identical
# signatures/fingerprints, hence the same bucket memberships and the same
# verify outcome as their representative.
# ---------------------------------------------------------------------------


def _collapse_exact_texts(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Collapse byte-identical texts to one representative doc (min id).

    Returns ``(reps_ds, members, dup)`` where ``reps_ds`` is the corpus
    restricted to one doc per distinct text, ``members`` is the
    materialized Dataset[rep_id, member_id] of the suppressed
    non-representative members, and ``dup`` is the materialized
    Dataset[content_hash, rep_id] of dup groups.  When the corpus has no
    exact duplicates, returns ``(ds, None, None)`` (zero-copy passthrough).

    Scale shape: one light (id, hash) scan with per-batch partial
    aggregation feeding ONE small groupby (one row per distinct dup text
    moves).  Membership is a lookup of the light rows into the dup-group
    map, and the rep filter a left_anti lookup of the corpus into the
    member ids (``join.equi``): the corpus streams past both, never
    shuffled.
    """
    from ray.data.aggregate import Min, Sum

    from ..join.equi import equi_join

    light = ds.map_batches(
        lambda t: add_content_hash(t, text_col=text_col).select(
            [id_col, "content_hash"]),
        batch_format="pyarrow",
    ).materialize()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("content_hash").aggregate(
            [(id_col, "min"), (id_col, "count")])
        return g.select(
            ["content_hash", f"{id_col}_min", f"{id_col}_count"]
        ).rename_columns(["content_hash", "rep_id", "m"])

    dup = (
        light.map_batches(partial, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min("rep_id", alias_name="rep_id"), Sum("m", alias_name="m"))
        .map_batches(
            lambda t: t.filter(pc.greater(t["m"], 1)).select(
                ["content_hash", "rep_id"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    if dup.count() == 0:
        return ds, None, None
    members = (
        equi_join(light, dup, "content_hash")
        .map_batches(
            lambda t: t.filter(pc.not_equal(t[id_col], t["rep_id"]))
            .select(["rep_id", id_col])
            .rename_columns(["rep_id", "member_id"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    reps_ds = equi_join(ds, members, id_col, "member_id", how="left_anti")
    return reps_ds, members, dup


def _expand_exact_pairs(verified, members, dup, *, mode: str = "pairs",
                        fill_cols: dict | None = None,
                        max_clique_pairs: int = 200_000_000):
    """Re-derive the pairs suppressed by ``_collapse_exact_texts``.

    ``verified``: distinct representative-level pairs (id_a < id_b, plus
    optional value columns that propagate unchanged to every cross pair —
    members have identical text to their rep, so e.g. hamming is equal).
    ``fill_cols``: {col: scalar} values for within-group pairs (Jaccard 1
    / hamming 0 by identity).

    mode="pairs": the EXACT full expansion — within-group cliques plus the
    cross product of the two groups for every verified rep pair; output is
    identical to never having collapsed (output-bound work by definition).
    mode="star": within-group edges collapse to rep->member stars — O(m)
    rows instead of O(m^2) — with connected components PROVABLY identical
    (every member stays attached to its rep; cross edges connect reps).
    The scale tier for component consumers (``near_dup_drop_list``,
    ``dup_clusters``).
    """
    from ..join.equi import KeyLookup

    if members is None:
        return verified
    fill_cols = fill_cols or {}

    def _with_fills(tbl: pa.Table) -> pa.Table:
        for c, v in fill_cols.items():
            tbl = tbl.append_column(
                c, pa.array(np.full(tbl.num_rows, v, np.int64), pa.int64()))
        return tbl

    out_cols = ["id_a", "id_b"] + list(fill_cols)

    if mode == "star":
        stars = members.map_batches(
            lambda t: _with_fills(pa.table({
                # rep is the group's MIN id, so rep < member always
                "id_a": t["rep_id"],
                "id_b": t["member_id"],
            })).select(out_cols),
            batch_format="pyarrow",
        )
        return verified.select_columns(out_cols).union(stars)

    if mode != "pairs":
        raise ValueError(f"unknown expand mode {mode!r}")

    # within-group cliques: group members by rep, all i<j pairs over
    # [rep]+members.  NO (m,m) index mask (np.triu_indices builds one —
    # ~90 GB at m=300k before a single output row): the pair arrays are
    # generated in O(output) via repeat/arange arithmetic.  Pairs-mode
    # output is inherently C(m,2) per group, so a group whose clique alone
    # exceeds ``max_clique_pairs`` (default ~3 GB of pair rows per group)
    # raises a LOUD, actionable error instead of OOM-killing a worker —
    # component consumers (drop list, clusters) use expand_exact="star",
    # which is O(m) and component-identical.
    def group_clique(t: pa.Table) -> pa.Table:
        rep = np.asarray(t["rep_id"].combine_chunks(), dtype=np.int64)
        mem = np.asarray(t["member_id"].combine_chunks(), dtype=np.int64)
        g = np.concatenate([[rep[0]], np.sort(mem)])
        m = g.size
        n_pairs = m * (m - 1) // 2
        if n_pairs > max_clique_pairs:
            raise ValueError(
                f"expand_exact='pairs' would emit {n_pairs:,} rows for ONE "
                f"exact-duplicate group of {m:,} docs (rep {g[0]}); this is "
                "inherent to pairs-mode output, not a planning artifact — "
                "use expand_exact='star' (O(m) rows, connected components "
                "identical) for duplicate-heavy corpora.")
        counts = np.arange(m - 1, 0, -1)
        ia = np.repeat(np.arange(m - 1), counts)
        off = np.cumsum(counts) - counts
        ib = np.arange(n_pairs) - off[ia] + ia + 1
        return _with_fills(pa.table({
            "id_a": pa.array(g[ia], pa.int64()),
            "id_b": pa.array(g[ib], pa.int64()),
        })).select(out_cols)

    intra = members.groupby("rep_id").map_groups(
        group_clique, batch_format="pyarrow")

    # cross expansion: every verified rep pair (ra, rb) expands to
    # G(ra) x G(rb), G(r) = r and its members.  Two left_outer lookups into
    # the roster (members + rep self-rows) attach G(ra), then G(rb); a side
    # in no dup group gets a null roster entry that coalesces back to the
    # id itself.  The lookup yields bounded tables, so one boilerplate
    # mega-group never expands in one heap.
    roster = KeyLookup(members.union(dup.map_batches(
        lambda t: pa.table({"rep_id": t["rep_id"], "member_id": t["rep_id"]}),
        batch_format="pyarrow",
    )), "rep_id")
    j = roster.join(verified, "id_a", how="left_outer").map_batches(
        lambda t: t.rename_columns(t.column_names[:-1] + ["xa"]),
        batch_format="pyarrow")
    j = roster.join(j, "id_b", how="left_outer")

    def finish(t: pa.Table) -> pa.Table:
        xa = pc.coalesce(t["xa"], t["id_a"])
        xb = pc.coalesce(t["member_id"], t["id_b"])
        cols = {"id_a": pc.min_element_wise(xa, xb),
                "id_b": pc.max_element_wise(xa, xb)}
        for c in fill_cols:
            cols[c] = t[c]
        return pa.table(cols).select(out_cols)

    return j.map_batches(finish, batch_format="pyarrow").union(intra)


def similarity_join_shingles(ds, *, id_col: str = "doc_id",
                             text_col: str = "text", threshold: float = 0.8,
                             k: int = 5, coarse_buckets: int = 127,
                             df_broadcast_rows: int = 100_000_000):
    """EXACT set-similarity self-join (PPJoin prefix + positional filtering,
    Xiao et al. 2008 §3) over k-byte-shingle sets: ALL pairs with Jaccard >=
    threshold — the deterministic counterpart of ``minhash_dedup_pairs``
    (no LSH miss probability).  Returns Dataset[id_a, id_b, inter, uni]
    (exact intersection / union sizes), id_a < id_b, distinct.  Matching
    the verify convention (and the minhash SQL twin), two docs with EMPTY
    shingle sets (len(text) < k) score Jaccard 1.0 and are emitted with
    inter = uni = 0.

    Prefix-filter theorem: order every doc's shingles by a GLOBAL total
    order (df asc, hash asc — ANY consistent order is exact; rarity-first
    merely keeps candidate groups small); with prefix length
    p = s - ceil(t*s) + 1 (ceil exact in integer arithmetic, ADVICE r3),
    any pair with J >= t shares a prefix shingle.  The minimal common
    shingle w* of a qualifying pair lies in BOTH prefixes, so pruning each
    candidate with the POSITIONAL bound at its shared token — overlap <=
    1 + min(sa-pa-1, sb-pb-1) — keeps every true pair via its w* row while
    discarding most low-entropy collisions (this bound at pos 0 equals the
    size-ratio filter, so it strictly subsumes it).

    df handling at scale (VERDICT r3 #1 — the 20M-row broadcast raise is
    gone): only shingles with df >= 2 can witness a pair, so (a) the df
    table is filtered to df >= 2 before broadcast and (b) prefix positions
    holding a df==1 shingle are DROPPED from the shuffle entirely — on
    high-entropy corpora that is almost all of them.  If the df>=2 table
    still exceeds ``df_broadcast_rows``, the broadcast tiers: a df-value
    histogram picks the smallest tau with |{df >= tau}| under the cap, the
    high-df head is broadcast exactly, and absent shingles order at a
    constant default below tau (still one consistent global order, so
    still exact) — their prefix rows are emitted since df==1 can no longer
    be distinguished.  df is quantized to uint16 for the broadcast (the
    order among >65k-df shingles is irrelevant to pruning quality and the
    clamp is applied identically everywhere, so the order stays global).

    Scale shape: per-doc unique shingle hashes (flat-buffer rolling hash),
    global df via the bucketed segmented-sum pattern, ONE groupby shuffle
    over LIGHT prefix rows (pref, doc, setsize, pos — no set payloads:
    shipping each doc's set once per prefix measured quadratic-in-set-size
    and filled the disk at 100k docs), per-bucket pair expansion with the
    positional filter, then the shared candidates->verify machinery
    (``verify_pairs_jaccard``) joins the per-doc hash sets back and scores
    each surviving pair exactly, emitting (inter, uni)."""
    import ray
    import ray.data

    def partial_df(t: pa.Table) -> pa.Table:
        # per-batch (shingle, count) PACKED into one blob row per coarse
        # bucket: the groupby shuffle then sorts ~num_blocks*num_buckets
        # HEAVY rows instead of one row per distinct shingle (measured 41s
        # -> the row-level Sort dominated the df stage at 87M windows;
        # blobs move the same bytes with O(1) sort keys)
        h, off = _shingle_hashes(t[text_col], k)
        h = _mix64(h)
        uh, _, _ = _segment_unique(h, off)
        uniq, cnt = np.unique(uh, return_counts=True)
        hv = uniq.view(np.int64)
        b = (hv % coarse_buckets + coarse_buckets) % coarse_buckets
        order = np.argsort(b, kind="stable")
        b_o, h_o = b[order], uniq[order]
        c_o = np.minimum(cnt[order], 0xFFFFFFFF).astype(np.uint32)
        newb = np.concatenate([[True], b_o[1:] != b_o[:-1]]) if b_o.size else np.empty(0, bool)
        starts = np.flatnonzero(newb)
        counts = np.diff(np.concatenate([starts, [b_o.size]]))
        off_el = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        hblob = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), starts.size,
            [None, pa.py_buffer((off_el * 8).tobytes()), pa.py_buffer(h_o.tobytes())])
        cblob = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), starts.size,
            [None, pa.py_buffer((off_el * 4).tobytes()), pa.py_buffer(c_o.tobytes())])
        return pa.table({"bucket": pa.array(b_o[starts], pa.int64()),
                         "hblob": hblob, "cblob": cblob})

    def bucket_df(t: pa.Table) -> pa.Table:
        # unpack the <= num_blocks blob rows of this bucket (zero-copy)
        hb = t["hblob"].combine_chunks()
        cb = t["cblob"].combine_chunks()
        hs = [np.frombuffer(hb[i].as_buffer(), dtype=np.uint64)
              for i in range(len(hb))]
        cs = [np.frombuffer(cb[i].as_buffer(), dtype=np.uint32)
              for i in range(len(cb))]
        h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        cnt = (np.concatenate(cs) if cs else np.empty(0, np.uint32)).astype(np.int64)
        order = np.argsort(h)
        h, cnt = h[order], cnt[order]
        new = np.concatenate([[True], h[1:] != h[:-1]]) if h.size else np.empty(0, bool)
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(cnt, starts) if h.size else np.empty(0, np.int64)
        keep = sums >= 2  # df==1 shingles can never witness a pair
        return pa.table({"h": pa.array(h[starts][keep].view(np.int64), pa.int64()),
                         "df": pa.array(sums[keep], pa.int64())})

    df_ds = (
        ds.map_batches(partial_df, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_df, batch_format="pyarrow")
        .materialize()
    )
    tiered = df_ds.count() > df_broadcast_rows
    head_ds = df_ds
    if tiered:
        # df-value histogram (distinct df values << rows): smallest tau
        # keeping |{df >= tau}| under the broadcast cap
        def df_hist(t: pa.Table) -> pa.Table:
            v, c = np.unique(np.asarray(t["df"], dtype=np.int64), return_counts=True)
            return pa.table({"dfv": pa.array(v, pa.int64()),
                             "n": pa.array(c.astype(np.int64), pa.int64())})

        htabs = [t for t in ray.get(
            df_ds.map_batches(df_hist, batch_format="pyarrow").to_arrow_refs())
            if t.num_rows]
        ht = pa.concat_tables(htabs).group_by("dfv").aggregate([("n", "sum")])
        v = np.asarray(ht["dfv"], dtype=np.int64)
        c = np.asarray(ht["n_sum"], dtype=np.int64)
        order = np.argsort(v)[::-1]
        v, csum = v[order], np.cumsum(c[order])
        kidx = int(np.searchsorted(csum, df_broadcast_rows, side="right"))
        tau = int(v[kidx - 1]) if kidx > 0 else int(v[0]) + 1
        import warnings

        warnings.warn(
            f"similarity_join_shingles: df>=2 table has {int(csum[-1])} rows "
            f"(> cap {df_broadcast_rows}); broadcasting only df >= {tau} and "
            "emitting all unknown-df prefix rows (exactness unchanged; "
            "shuffle volume grows with the unknown tail)")
        head_ds = df_ds.map_batches(
            lambda t, tau=tau: t.filter(
                pa.compute.greater_equal(t["df"], pa.scalar(tau, pa.int64()))),
            batch_format="pyarrow",
        ).materialize()

    # sort/pack the broadcast in a RAY TASK (same off-driver prep pattern
    # as verify_pairs_jaccard: at 100M rows the concat+argsort transients
    # would be a multi-GiB driver heap spike)
    @ray.remote
    def _prep_df(*tabs):
        tabs = [t for t in tabs if t.num_rows]
        if not tabs:
            return (np.empty(0, np.uint64), np.empty(0, np.uint16))
        dt = pa.concat_tables(tabs)
        dh = np.asarray(dt["h"], dtype=np.int64).view(np.uint64)
        dv = np.minimum(np.asarray(dt["df"], dtype=np.int64), 65535).astype(np.uint16)
        order = np.argsort(dh)
        return (dh[order], dv[order])

    ref = _prep_df.remote(*head_ds.to_arrow_refs())

    def prefixes(t: pa.Table) -> pa.Table:
        from ..geom.primitives import repeat_expand

        dh_s, dv_s = ray.get(ref)
        h, off = _shingle_hashes(t[text_col], k)
        h = _mix64(h)
        uh, useg, ucounts = _segment_unique(h, off)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        if dh_s.size:
            pos = np.minimum(np.searchsorted(dh_s, uh), dh_s.size - 1)
            hit = dh_s[pos] == uh
            dfv = np.where(hit, dv_s[pos].astype(np.int64), 1)
        else:
            hit = np.zeros(uh.size, bool)
            dfv = np.ones(uh.size, np.int64)
        # per-doc order by (df, hash): rarest first; absent shingles
        # default to df=1 (below every broadcast value) — deterministic,
        # hence globally consistent
        order = np.lexsort((uh, dfv, useg))
        uh_o, hit_o = uh[order], hit[order]
        s = ucounts
        p = _exact_prefix_lengths(s, threshold)
        doc_start = np.concatenate([[0], np.cumsum(s)])
        pid, kk = repeat_expand(p)
        flat_idx = doc_start[:-1][pid] + kk
        # drop prefix positions whose shingle cannot witness a pair: in
        # full-broadcast mode a miss means df==1; in tiered mode a miss is
        # ambiguous (df in 1..tau-1), so everything ships
        emit = np.ones(flat_idx.size, bool) if tiered else hit_o[flat_idx]
        pid_e, kk_e = pid[emit], kk[emit]
        pref_e = uh_o[flat_idx[emit]].view(np.int64)
        # empty shingle sets: one sentinel row each so both-empty pairs
        # (verify convention: Jaccard 1.0) surface exactly once
        em = np.flatnonzero(s == 0)
        out_pref = np.concatenate([pref_e, np.full(em.size, _EMPTY_SET_PREF)])
        out_ids = np.concatenate([ids[pid_e], ids[em]])
        out_ss = np.concatenate([s[pid_e], np.zeros(em.size, np.int64)])
        out_pos = np.concatenate([kk_e, np.zeros(em.size, np.int64)])
        # PACK the prefix rows into one blob row per coarse bucket (same
        # row-level-Sort avoidance as partial_df: the shuffle then sorts
        # ~num_blocks*num_buckets heavy rows, not one per prefix slot)
        bucket = (out_pref % coarse_buckets + coarse_buckets) % coarse_buckets
        border = np.argsort(bucket, kind="stable")
        b_o = bucket[border]
        quad = np.empty((border.size, 4), np.int64)
        quad[:, 0] = out_pref[border]
        quad[:, 1] = out_ids[border]
        quad[:, 2] = out_ss[border]
        quad[:, 3] = out_pos[border]
        newb = np.concatenate([[True], b_o[1:] != b_o[:-1]]) if b_o.size else np.empty(0, bool)
        starts = np.flatnonzero(newb)
        counts = np.diff(np.concatenate([starts, [b_o.size]]))
        off_el = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        blob = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), starts.size,
            [None, pa.py_buffer((off_el * 32).tobytes()),
             pa.py_buffer(quad.tobytes())])
        return pa.table({"bucket": pa.array(b_o[starts], pa.int64()),
                         "pblob": blob})

    def bucket_pairs(t: pa.Table) -> pa.Table:
        pb = t["pblob"].combine_chunks()
        quads = [np.frombuffer(pb[i].as_buffer(), dtype=np.int64).reshape(-1, 4)
                 for i in range(len(pb))]
        q = np.vstack(quads) if quads else np.empty((0, 4), np.int64)
        pref, ids, ssize, ppos = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        order = np.lexsort((ids, pref))
        pref, ids, ssize, ppos = pref[order], ids[order], ssize[order], ppos[order]
        new = np.concatenate([[True], pref[1:] != pref[:-1]]) if pref.size else np.empty(0, bool)
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate([starts, [pref.size]]))
        ia_l, ib_l = [], []
        for st, m in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            a, b = np.triu_indices(m, 1)
            ia_l.append(st + a)
            ib_l.append(st + b)
        if not ia_l:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        ia = np.concatenate(ia_l)
        ib = np.concatenate(ib_l)
        sa, sb = ssize[ia], ssize[ib]
        # POSITIONAL filter (Xiao et al. 2008 §3.2): overlap of a pair
        # sharing this prefix token at positions (pa, pb) is at most
        # 1 + min(sa-pa-1, sb-pb-1); prune when even that bound cannot
        # reach J >= t.  At pa=pb=0 the bound equals the size-ratio
        # filter, so this subsumes it.  Float division is correctly
        # rounded (monotone in the real value), so the bound's float J
        # >= any reachable pair's float J — no verify-passing pair is
        # ever pruned.
        ub = 1 + np.minimum(sa - ppos[ia] - 1, sb - ppos[ib] - 1)
        both_empty = (sa == 0) & (sb == 0)
        denom = np.maximum(sa + sb - ub, 1)
        ok = both_empty | (ub.astype(np.float64) / denom >= threshold)
        ia, ib = ia[ok], ib[ok]
        pairs = pa.table({
            "id_a": pa.array(np.minimum(ids[ia], ids[ib]), pa.int64()),
            "id_b": pa.array(np.maximum(ids[ia], ids[ib]), pa.int64()),
        })
        return pairs.group_by(["id_a", "id_b"]).aggregate([]).select(["id_a", "id_b"])

    cands = _distinct_pairs(
        ds.map_batches(prefixes, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .materialize()
    )
    return verify_pairs_jaccard(cands, ds, id_col=id_col, text_col=text_col,
                                threshold=threshold, k=k, emit_sizes=True)


# ---------------------------------------------------------------------------
# simhash hamming near-dup (Manku et al., WWW'07 band partitioning)
# ---------------------------------------------------------------------------


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 (no per-element Python)."""
    x = x.copy()
    with np.errstate(over="ignore"):
        x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x *= np.uint64(0x0101010101010101)
    return (x >> np.uint64(56)).astype(np.int64)


def simhash_dup_pairs(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      max_hamming: int = 3, n_bands: int | None = None,
                      coarse_buckets: int = 127,
                      collapse_exact: bool = True,
                      expand_exact: str = "pairs",
                      bucket_cap: int | None = None):
    """ALL pairs of docs whose 64-bit simhash fingerprints differ in at most
    ``max_hamming`` bits — EXACT, not approximate, via the pigeonhole band
    partitioning of Manku/Jain/Sarma (WWW'07 "Detecting Near-Duplicates for
    Web Crawling"): with ``n_bands = max_hamming + 1`` contiguous bit bands,
    a pair with <= max_hamming differing bits must agree exactly on >= 1
    band, so band-equality buckets cover every true pair; an inline popcount
    verify drops the false candidates.  Output: Dataset[id_a, id_b, hamming]
    with id_a < id_b, distinct.

    Mega-bucket safety (VERDICT r4 #1, same shape as minhash): byte-identical
    texts are pre-collapsed to one representative and their pairs re-derived
    exactly afterwards (members share the rep's fingerprint, so cross pairs
    inherit the rep pair's hamming and within-group pairs are hamming 0) —
    output identical, O(m^2)-in-one-heap impossible for exact dups.
    ``bucket_cap`` (default OFF, preserving the documented exactness
    contract) optionally stars over-full residual buckets like minhash;
    ``expand_exact="star"`` keeps components identical at O(m) rows.

    Scale shape (mirrors ``minhash_dedup_pairs``): one map_batches computes
    fingerprints and explodes n_bands rows per doc with a bounded coarse
    bucket key, ONE groupby shuffle co-locates band-equal docs, and each
    bucket resolves with a single lexsort + triu expansion — per-bucket work
    is quadratic only in band-collision occupancy (16-bit bands at the
    default k=3), never in corpus size.  The final distinct is a groupby on
    the pair key, pre-shrunk because the verify already ran inline.
    """
    import ray.data
    from ray.data.aggregate import Min

    from .text import simhash64

    if n_bands is None:
        n_bands = max_hamming + 1
    if n_bands <= max_hamming:
        raise ValueError(
            f"n_bands={n_bands} must exceed max_hamming={max_hamming} "
            "for the pigeonhole cover to be exact"
        )
    if n_bands > 64:
        raise ValueError("n_bands must be <= 64")
    # contiguous band widths: first (64 % n_bands) bands get an extra bit
    base = 64 // n_bands
    widths = np.full(n_bands, base, np.uint64)
    widths[: 64 % n_bands] += np.uint64(1)
    shifts = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.uint64)
    masks = np.where(
        widths == 64, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << widths) - np.uint64(1)
    )

    def to_bands(t: pa.Table) -> pa.Table:
        st = simhash64(t.select([id_col, text_col]), text_col=text_col)
        sim = np.asarray(st["simhash"].combine_chunks(), dtype=np.int64).view(np.uint64)
        ids = np.asarray(st[id_col].combine_chunks(), dtype=np.int64)
        n = sim.size
        band_ids = np.repeat(np.arange(n_bands, dtype=np.int64), n)
        bits = np.empty(n_bands * n, dtype=np.int64)
        for b in range(n_bands):
            bits[b * n : (b + 1) * n] = ((sim >> shifts[b]) & masks[b]).astype(np.int64)
        bucket = (bits % coarse_buckets + coarse_buckets) % coarse_buckets
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int64()),
                "band_bits": pa.array(bits, pa.int64()),
                id_col: pa.array(np.tile(ids, n_bands), pa.int64()),
                "sim": pa.array(np.tile(sim.view(np.int64), n_bands), pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    members = dup = None
    reps = ds
    if collapse_exact:
        reps, members, dup = _collapse_exact_texts(
            ds, id_col=id_col, text_col=text_col)

    bands_ds = reps.map_batches(to_bands, batch_format="pyarrow")

    def bucket_pairs(t: pa.Table) -> pa.Table:
        band = np.asarray(t["band"].combine_chunks(), dtype=np.int64)
        bits = np.asarray(t["band_bits"].combine_chunks(), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        sim = np.asarray(t["sim"].combine_chunks(), dtype=np.int64)
        order = np.lexsort((ids, bits, band))
        band, bits, ids, sim = band[order], bits[order], ids[order], sim[order]
        if band.size:
            keep = np.concatenate(
                [[True],
                 (band[1:] != band[:-1]) | (bits[1:] != bits[:-1]) | (ids[1:] != ids[:-1])]
            )
            band, bits, ids, sim = band[keep], bits[keep], ids[keep], sim[keep]
        new_grp = (
            np.concatenate([[True], (band[1:] != band[:-1]) | (bits[1:] != bits[:-1])])
            if band.size
            else np.empty(0, bool)
        )
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.concatenate([starts, [band.size]]))
        out_a, out_b, out_h = [], [], []
        for st, m in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            if bucket_cap is not None and m > bucket_cap:
                # opt-in star emission over an over-full residual bucket
                # (cap default None: the Manku cover's exactness contract)
                ia = np.zeros(m - 1, np.int64)
                ib = np.arange(1, m, dtype=np.int64)
            else:
                # mask-free i<j expansion (no (m,m) triu mask): with the
                # default cap=None, exact-dup pre-collapse already bounds m
                # for identical texts, but distinct-text collisions are
                # unbounded — keep memory O(output)
                cnts = np.arange(m - 1, 0, -1)
                ia = np.repeat(np.arange(m - 1), cnts)
                ib = (np.arange(m * (m - 1) // 2)
                      - (np.cumsum(cnts) - cnts)[ia] + ia + 1)
            sa, sb = sim[st + ia], sim[st + ib]
            ham = _popcount64(np.bitwise_xor(sa, sb).view(np.uint64))
            ok = ham <= max_hamming
            out_a.append(ids[st + ia][ok])  # ids ascend within the group
            out_b.append(ids[st + ib][ok])
            out_h.append(ham[ok])
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        h = np.concatenate(out_h) if out_h else np.empty(0, np.int64)
        pairs = pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "hamming": pa.array(h, pa.int64()),
            }
        )
        # local dedup first (a pair found by several bands in one bucket);
        # select by NAME before renaming: pa.Table.group_by column order
        # (keys vs aggregates first) differed across pyarrow releases
        g = pairs.group_by(["id_a", "id_b"]).aggregate([("hamming", "min")])
        return g.select(["id_a", "id_b", "hamming_min"]).rename_columns(
            ["id_a", "id_b", "hamming"])

    cands = bands_ds.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")
    # cross-bucket distinct (the same pair can fire in different bands ->
    # different coarse buckets); hamming identical for all copies
    result = cands.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming"))
    if members is not None:
        result = _expand_exact_pairs(
            result.materialize(), members, dup, mode=expand_exact,
            fill_cols={"hamming": 0})
    return result


# ---------------------------------------------------------------------------
# exact substring (duplicated fixed-length windows; ExactSubstr flavor,
# Lee et al. 2022 "Deduplicating Training Data Makes Language Models Better")
# ---------------------------------------------------------------------------


def _window_words(data: np.ndarray, idx: np.ndarray, window: int) -> np.ndarray:
    """Gather each window's bytes into zero-padded uint64 words: (n, m) with
    m = ceil(window/8).  Equality of rows == equality of the byte windows,
    and lexsorting the columns is a deterministic total order — all
    vectorized, no per-window Python."""
    m = (window + 7) // 8
    out = np.zeros((idx.size, m * 8), dtype=np.uint8)
    if idx.size:
        out[:, :window] = data[idx[:, None] + np.arange(window, dtype=np.int64)]
    return out.view(np.uint64)


def _dup_window_positions(ds, *, id_col: str = "doc_id", text_col: str = "text",
                          window: int = 32, coarse_buckets: int = 127):
    """Verified (doc, pos) rows of every byte window of length ``window``
    whose exact content occurs >= 2 times anywhere in the corpus (other doc
    OR another position of the same doc) — the detection core of
    exact-substring dedup shared by ``duplicated_windows`` (counts) and
    ``duplicated_ranges`` (merged cut intervals).

    EXACT even under hash collisions: candidates are grouped by rolling
    hash, then verified by comparing the actual window bytes (as packed
    uint64 words) inside each bucket.

    Scale shape (two passes over the corpus, never an all-window shuffle):
    pass A pre-aggregates per-batch window-hash counts (the shuffle is
    O(distinct hashes per batch), not O(windows)) into the global
    duplicated-hash set; pass B re-scans, keeps only windows whose hash is
    in that set (a ``join.equi.KeyLookup`` membership test, sharded by
    hash, before any window's bytes are gathered), and ships ONLY those —
    with their bytes — into a bounded bucketed groupby for the exact
    verify.  On a dup-light corpus the candidate set is tiny; on a
    dup-heavy one it is O(true duplicates), which any exact answer must
    touch anyway."""
    from ..join.equi import KeyLookup

    m_words = (window + 7) // 8

    def partial_counts(t: pa.Table) -> pa.Table:
        h, _, _, _, _ = _flat_windows(t[text_col], window)
        uniq, cnt = np.unique(h, return_counts=True)
        hv = uniq.view(np.int64)
        return pa.table({
            "bucket": pa.array((hv % coarse_buckets + coarse_buckets) % coarse_buckets,
                               pa.int64()),
            "h": pa.array(hv, pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def bucket_dups(t: pa.Table) -> pa.Table:
        # one segmented sum per bucket instead of a global sort-aggregate
        # over O(corpus) distinct hashes (measured 23x on 23M windows:
        # 183s -> 7.8s end-to-end, tools/stress.py substr);
        # bucket occupancy is uniform by construction (the key is a 64-bit
        # content hash), so no salting is needed — size coarse_buckets to
        # ~5M windows per bucket at larger corpora
        h = np.asarray(t["h"].combine_chunks(), dtype=np.int64)
        cnt = np.asarray(t["cnt"].combine_chunks(), dtype=np.int64)
        order = np.argsort(h)
        h, cnt = h[order], cnt[order]
        new = np.concatenate([[True], h[1:] != h[:-1]]) if h.size else np.empty(0, bool)
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(cnt, starts) if h.size else np.empty(0, np.int64)
        keep = sums >= 2
        return pa.table({"h": pa.array(h[starts][keep], pa.int64())})

    dup_h = KeyLookup(
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_dups, batch_format="pyarrow"), "h")

    def candidates(t: pa.Table) -> pa.Table:
        h, doc_off, idx, pos, data = _flat_windows(t[text_col], window)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        doc_of = np.repeat(np.arange(doc_off.size - 1, dtype=np.int64),
                           np.diff(doc_off))
        keep = dup_h.contains(h.view(np.int64))
        h, idx, pos, doc_of = h[keep], idx[keep], pos[keep], doc_of[keep]
        words = _window_words(data, idx, window)
        cols = {
            "bucket": pa.array(
                (h.view(np.int64) % coarse_buckets + coarse_buckets) % coarse_buckets,
                pa.int64()),
            "h": pa.array(h.view(np.int64), pa.int64()),
            id_col: pa.array(ids[doc_of], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
        }
        for w in range(m_words):
            cols[f"w{w}"] = pa.array(words[:, w].view(np.int64), pa.int64())
        return pa.table(cols)

    cand = ds.map_batches(candidates, batch_format="pyarrow")

    def verify(t: pa.Table) -> pa.Table:
        h = np.asarray(t["h"].combine_chunks(), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        pos = np.asarray(t["pos"].combine_chunks(), dtype=np.int64)
        words = np.stack(
            [np.asarray(t[f"w{w}"].combine_chunks(), dtype=np.int64)
             for w in range(m_words)], axis=1) if h.size else np.empty((0, m_words), np.int64)
        order = np.lexsort(tuple(words[:, w] for w in range(m_words - 1, -1, -1)) + (h,))
        h, ids, pos, words = h[order], ids[order], pos[order], words[order]
        same = (
            (h[1:] == h[:-1]) & (words[1:] == words[:-1]).all(axis=1)
            if h.size else np.empty(0, bool)
        )
        new_grp = np.concatenate([[True], ~same]) if h.size else np.empty(0, bool)
        grp = np.cumsum(new_grp) - 1
        sizes = np.bincount(grp) if h.size else np.empty(0, np.int64)
        dup_rows = sizes[grp] >= 2
        return pa.table({id_col: pa.array(ids[dup_rows], pa.int64()),
                         "pos": pa.array(pos[dup_rows], pa.int64())})

    # verified TRUE-duplicate window positions (doc, pos), distinct by
    # construction; counts and ranges both derive from this stream
    return cand.groupby("bucket").map_groups(verify, batch_format="pyarrow")


def duplicated_windows(ds, *, id_col: str = "doc_id", text_col: str = "text",
                       window: int = 32, coarse_buckets: int = 127):
    """Per-doc count of duplicated ``window``-byte windows (see
    ``_dup_window_positions``).  Returns Dataset[doc_id, n_dup_windows]
    for docs with >= 1 such window; the shuffle carries per-batch partial
    counts, not positions."""
    from ray.data.aggregate import Sum

    pos = _dup_window_positions(
        ds, id_col=id_col, text_col=text_col, window=window,
        coarse_buckets=coarse_buckets)

    def partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table({id_col: pa.array(uniq, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64())})

    return (
        pos.map_batches(partial, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("cnt", alias_name="n_dup_windows"))
    )


def duplicated_ranges(ds, *, id_col: str = "doc_id", text_col: str = "text",
                      window: int = 32, coarse_buckets: int = 127, num_buckets: int = 64):
    """Merged byte ranges [start, end) per doc covering every duplicated
    window — the actual CUT LIST of exact-substring dedup (Lee et al. 2022):
    overlapping and back-to-back windows coalesce (gap > window starts a
    new range).  One bucketed shuffle on the doc id; each bucket merges all
    its docs' sorted positions with one lexsort + run detection."""
    pos = _dup_window_positions(
        ds, id_col=id_col, text_col=text_col, window=window,
        coarse_buckets=coarse_buckets)

    def bucketed(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        return pa.table({
            "dbucket": pa.array((ids % num_buckets + num_buckets) % num_buckets,
                                pa.int64()),
            id_col: t[id_col], "pos": t["pos"],
        })

    def merge(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        p = np.asarray(t["pos"].combine_chunks(), dtype=np.int64)
        order = np.lexsort((p, ids))
        ids, p = ids[order], p[order]
        brk = (
            np.concatenate([[True], (ids[1:] != ids[:-1]) | (p[1:] > p[:-1] + window)])
            if ids.size else np.empty(0, bool)
        )
        starts = np.flatnonzero(brk)
        ends = np.concatenate([starts[1:], [ids.size]])
        return pa.table({
            id_col: pa.array(ids[starts], pa.int64()),
            "start": pa.array(p[starts], pa.int64()),
            "end": pa.array(p[ends - 1] + window, pa.int64()),
        })

    return (
        pos.map_batches(bucketed, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(merge, batch_format="pyarrow")
    )


def apply_cut_ranges(docs, ranges, *, id_col: str = "doc_id",
                     text_col: str = "text", num_buckets: int = 64,
                     passthrough: bool = False):
    """Remove byte ranges [start, end) from each doc's text — the final
    step of exact-substring dedup (compose with ``duplicated_ranges``).
    Docs without ranges pass through byte-identical.  Returns
    Dataset[doc_id, cut_text]; with ``passthrough`` every other column of
    ``docs`` rides along too (VERDICT r4 #6: the corpus pipeline attaches
    cut_text in THIS join instead of re-joining — and re-materializing —
    the whole corpus a second time downstream).

    Plan: ranges pack into one binary blob per doc (bucketed merge), ONE
    left-outer lookup of the corpus into the packed ranges (``join.equi``:
    the corpus streams past, never shuffled), then a fully vectorized
    splice per batch (piece boundaries -> repeat_expand gather over the
    flat utf8 buffer; no per-row Python)."""
    import ray.data

    from ..geom.primitives import repeat_expand
    from ..join.equi import equi_join

    _empty_tagged = pa.table({
        "dbucket": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
        "start": pa.array([], pa.int64()), "end": pa.array([], pa.int64())})
    _empty_packed = pa.table({id_col: pa.array([], pa.int64()),
                              "cuts": pa.array([], pa.large_binary())})

    def tag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # a Sort/map_groups upstream can emit zero-row blocks with NO
            # columns (the dup_clusters flaky-shield bug class); re-pin so
            # the groupby never sees a block without the key column
            return _empty_tagged
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        return pa.table({
            "dbucket": pa.array((ids % num_buckets + num_buckets) % num_buckets,
                                pa.int64()),
            id_col: t[id_col], "start": t["start"], "end": t["end"],
        })

    def pack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_packed
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        s = np.asarray(t["start"].combine_chunks(), dtype=np.int64)
        e = np.asarray(t["end"].combine_chunks(), dtype=np.int64)
        order = np.lexsort((s, ids))
        ids, s, e = ids[order], s[order], e[order]
        new = np.concatenate([[True], ids[1:] != ids[:-1]]) if ids.size else np.empty(0, bool)
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate([starts, [ids.size]]))
        pairs = np.empty(2 * ids.size, np.int64)
        pairs[0::2], pairs[1::2] = s, e
        off = np.concatenate([[0], np.cumsum(counts)]) * 16
        blob = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), starts.size,
            [None, pa.py_buffer(off.astype(np.int64).tobytes()),
             pa.py_buffer(pairs.tobytes())])
        return pa.table({id_col: pa.array(ids[starts], pa.int64()),
                         "cuts": blob})

    packed = (
        ranges.map_batches(tag, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(pack, batch_format="pyarrow")
    )
    # map_groups can SHORT-CIRCUIT an empty sort partition into a zero-row
    # block with NO columns; the typed empty block gives the lookup the
    # ``cuts`` column even when there are no ranges at all
    j = equi_join(docs, packed.union(ray.data.from_arrow(_empty_packed)), id_col,
                  how="left_outer")

    def cut(t: pa.Table) -> pa.Table:
        text = t[text_col].combine_chunks()
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        cuts = t["cuts"].combine_chunks()
        n = len(text)
        buf = text.buffers()
        toff_dt = np.int64 if pa.types.is_large_string(text.type) else np.int32
        toff = np.frombuffer(buf[1], dtype=toff_dt, count=n + 1 + text.offset)[
            text.offset : text.offset + n + 1].astype(np.int64)
        tdata = (np.frombuffer(buf[2], dtype=np.uint8)
                 if buf[2] is not None else np.empty(0, np.uint8))
        tlen = toff[1:] - toff[:-1]
        # decode per-doc cut pairs (zero-copy over the large_binary buffer)
        cb = cuts.buffers()
        coff = np.frombuffer(cb[1], dtype=np.int64, count=n + 1 + cuts.offset)[
            cuts.offset : cuts.offset + n + 1]
        # bound the int64 view to the bytes this slice references: a
        # join-produced values buffer may carry trailing bytes that are
        # not a multiple of 8 (frombuffer without count would raise)
        n_int64 = int(coff.max()) // 8 if coff.size else 0
        cdata = (np.frombuffer(cb[2], dtype=np.int64, count=n_int64)
                 if cb[2] is not None and n_int64 else np.empty(0, np.int64))
        valid = np.asarray(pc.is_valid(cuts))
        ncuts = np.where(valid, (coff[1:] - coff[:-1]) // 16, 0)
        # kept pieces per doc: ncuts + 1 (between/around the sorted ranges)
        npieces = ncuts + 1
        pid, k = repeat_expand(npieces)
        base = (coff[:-1] // 8)[pid]
        first = k == 0
        last = k == npieces[pid] - 1
        # piece k spans [end_{k-1}, start_k) with end_{-1}=0, start_last=len
        # (cdata_safe: np.where evaluates both branches, so masked-out
        # gathers must still be in-bounds even when no doc has cuts)
        cdata_safe = cdata if cdata.size else np.zeros(1, np.int64)
        p_from = np.where(
            first, 0,
            cdata_safe[np.clip(base + 2 * k - 1, 0, cdata_safe.size - 1)])
        p_to = np.where(
            last, tlen[pid],
            cdata_safe[np.clip(base + 2 * k, 0, cdata_safe.size - 1)])
        p_from = np.minimum(p_from, tlen[pid])
        p_to = np.minimum(np.maximum(p_to, p_from), tlen[pid])
        plen = p_to - p_from
        out_len = np.zeros(n, np.int64)
        np.add.at(out_len, pid, plen)
        sid, kk = repeat_expand(plen)
        src = toff[:-1][pid[sid]] + p_from[sid] + kk
        out_off = np.concatenate([[0], np.cumsum(out_len)])
        out_data = tdata[src] if src.size else np.empty(0, np.uint8)
        cut_text = pa.Array.from_buffers(
            pa.large_string(), n,
            [None, pa.py_buffer(out_off.astype(np.int64).tobytes()),
             pa.py_buffer(out_data.tobytes())])
        if passthrough:
            return t.drop_columns(["cuts"]).append_column("cut_text", cut_text)
        return pa.table({id_col: pa.array(ids, pa.int64()), "cut_text": cut_text})

    return j.map_batches(cut, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# paragraph-level exact dedup (CCNet/RefinedWeb-style)
# ---------------------------------------------------------------------------

_PARA_IDX_BITS = 20  # paragraphs per doc bounded by 2^20; doc_id by 2^43


def _explode_paragraphs(t: pa.Table, *, id_col: str, text_col: str,
                        sep: str) -> pa.Table:
    """One light row per paragraph: (h, wkey, start, end, last) where
    ``h`` is the FNV-1a64 of the paragraph bytes, ``wkey`` packs
    (doc_id << 20 | idx) so the corpus-order first occurrence is the
    integer min, and [start, end) are BYTE offsets of the paragraph inside
    its doc's utf-8 text (sep is byte-based too, so the downstream cut
    splice composes exactly)."""
    from ..geom.primitives import repeat_expand

    text = t[text_col].combine_chunks()
    ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
    parts = pc.split_pattern(text, sep)
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    counts = np.asarray(pc.list_value_length(parts), dtype=np.int64)
    values = parts.flatten()  # paragraphs in (doc, idx) order
    pid, k = repeat_expand(counts)
    if k.size and int(k.max()) >= (1 << _PARA_IDX_BITS):
        raise ValueError(
            f"paragraph_dedup: a doc has >= 2^{_PARA_IDX_BITS} paragraphs; "
            "raise _PARA_IDX_BITS or pre-chunk the doc")
    if ids.size and (int(ids.max()) >= (1 << (63 - _PARA_IDX_BITS)) or int(ids.min()) < 0):
        raise ValueError("paragraph_dedup: doc ids must be in [0, 2^43)")
    # byte length of each paragraph from the flattened string offsets
    vbuf = values.buffers()
    voff_dt = np.int64 if pa.types.is_large_string(values.type) else np.int32
    voff = np.frombuffer(vbuf[1], dtype=voff_dt, count=len(values) + 1 + values.offset)[
        values.offset : values.offset + len(values) + 1].astype(np.int64)
    vlens = voff[1:] - voff[:-1]
    # start byte of paragraph k inside its doc: sum of previous paragraph
    # lengths + k separator bytes (split partitions the text exactly)
    excl = np.concatenate([[0], np.cumsum(vlens)[:-1]])
    doc_first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    start = excl - excl[doc_first[pid]] + k * len(sep.encode())
    end = start + vlens
    h = fnv1a64(values).astype(np.int64)
    wkey = (ids[pid] << _PARA_IDX_BITS) | k
    return pa.table({
        "h": pa.array(h, pa.int64()),
        "wkey": pa.array(wkey, pa.int64()),
        "start": pa.array(start, pa.int64()),
        "end": pa.array(end, pa.int64()),
        "last": pa.array(k == counts[pid] - 1),
    })


def paragraph_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    sep: str = "\n", num_buckets: int = 64, passthrough: bool = False):
    """Corpus-wide paragraph-level EXACT dedup (the CCNet / RefinedWeb /
    Gopher rule "remove any paragraph duplicated anywhere in the corpus,
    keeping its first occurrence"): split each doc on ``sep``, keep only
    the corpus-order first occurrence (min (doc_id, idx)) of each distinct
    paragraph, splice the survivors back together with ``sep``.  Docs that
    lose every paragraph come back with empty text (the row is KEPT — text
    filtering is a separate policy stage).

    Returns Dataset[doc_id, text_dedup] (plus every other input column
    when ``passthrough``).

    Plan (one corpus scan + two light shuffles):
      1. explode to (h, wkey, start, end) rows — 33 bytes/paragraph, no
         text payload — materialized once so winner-finding and drop
         marking don't re-split the corpus;
      2. winner per h = groupby(h).min(wkey) after a per-batch partial min
         (the shuffle carries distinct-per-batch hashes only);
      3. drops = rows with wkey != winner (a lookup of the paragraph rows
         into the winners, ``join.equi``: no exchange);
      4. dropped paragraphs extend over one adjacent separator, overlap-
         merge per doc, then ``apply_cut_ranges`` splices them out with
         the shared flat-buffer gather (no per-row Python anywhere).

    Hash note: a 64-bit FNV collision could drop a non-duplicate paragraph
    (~n^2/2^65 expected false drops); the exact-verify variant would join
    paragraph bytes back like verify_pairs_jaccard — documented trade, the
    reference LLM-pipeline recipes all dedup on 64-bit hashes too."""
    from ray.data.aggregate import Min

    from ..join.equi import equi_join

    trip = ds.map_batches(
        lambda t: _explode_paragraphs(t, id_col=id_col, text_col=text_col, sep=sep),
        batch_format="pyarrow",
    ).materialize()

    def partial_min(t: pa.Table) -> pa.Table:
        g = t.group_by("h").aggregate([("wkey", "min")])
        # select by NAME before renaming (pyarrow group_by column-order
        # drift across releases — same guard as dedup_exact)
        return g.select(["h", "wkey_min"]).rename_columns(["h", "wkey"])

    winners = (
        trip.map_batches(lambda t: partial_min(t.select(["h", "wkey"])),
                         batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("wkey", alias_name="min_wkey"))
    )

    drops = equi_join(trip, winners, "h").map_batches(
        lambda t: t.filter(pc.not_equal(t["wkey"], t["min_wkey"]))
        .select(["h", "wkey", "start", "end", "last"]),
        batch_format="pyarrow",
    )

    sep_len = len(sep.encode())

    def to_ranges(t: pa.Table) -> pa.Table:
        # RAW paragraph byte ranges for every dropped paragraph; separator
        # attachment happens at RUN level in merge_runs (a trailing dropped
        # run must consume its PRECEDING separator, which no per-paragraph
        # rule can know)
        wkey = np.asarray(t["wkey"].combine_chunks(), dtype=np.int64)
        ids = wkey >> _PARA_IDX_BITS
        return pa.table({
            "dbucket": pa.array((ids % num_buckets + num_buckets) % num_buckets,
                                pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "start": t["start"], "end": t["end"], "last": t["last"],
        })

    def merge_runs(t: pa.Table) -> pa.Table:
        # consecutive dropped paragraphs (next.start == prev.end + sep_len)
        # coalesce into one run; a run cuts its FOLLOWING separator, except
        # a doc-terminal run which cuts the PRECEDING one (if any) so the
        # survivors re-join with exactly one separator everywhere
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "start": pa.array([], pa.int64()),
                             "end": pa.array([], pa.int64())})
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        s = np.asarray(t["start"].combine_chunks(), dtype=np.int64)
        e = np.asarray(t["end"].combine_chunks(), dtype=np.int64)
        last = np.asarray(t["last"].combine_chunks())
        order = np.lexsort((s, ids))
        ids, s, e, last = ids[order], s[order], e[order], last[order]
        newdoc = np.concatenate([[True], ids[1:] != ids[:-1]])
        prev_e = np.concatenate([[np.iinfo(np.int64).min // 2], e[:-1]])
        brk = newdoc | (s != prev_e + sep_len)
        starts_idx = np.flatnonzero(brk)
        ends_idx = np.concatenate([starts_idx[1:], [ids.size]])
        S, E = s[starts_idx], e[ends_idx - 1]
        terminal = last[ends_idx - 1]
        cut_s = np.where(terminal & (S > 0), S - sep_len, S)
        cut_e = np.where(~terminal, E + sep_len, E)
        return pa.table({
            id_col: pa.array(ids[starts_idx], pa.int64()),
            "start": pa.array(cut_s, pa.int64()),
            "end": pa.array(cut_e, pa.int64()),
        })

    ranges = (
        drops.map_batches(to_ranges, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(merge_runs, batch_format="pyarrow")
    )
    out = apply_cut_ranges(ds, ranges, id_col=id_col, text_col=text_col,
                           num_buckets=num_buckets, passthrough=passthrough)
    if passthrough:
        return out.map_batches(
            lambda t: t.rename_columns(
                [c if c != "cut_text" else "text_dedup" for c in t.column_names]),
            batch_format="pyarrow",
        )
    return out.map_batches(
        lambda t: t.rename_columns([id_col, "text_dedup"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# embedding near-dup (cosine)
# ---------------------------------------------------------------------------


def lsh_geometry(n_rows, threshold: float, *, target_bucket_rows: int = 1024,
                 target_miss: float = 1e-2, max_bits: int = 24,
                 max_tables: int = 16):
    """Pick (n_tables, bits) for random-hyperplane LSH from the corpus size
    and the cosine threshold (VERDICT r2 #3 / ADVICE r2: fixed 4x8 geometry
    is quadratic at scale and misses ~11% of pairs at threshold 0.95).

    bits ~ log2(n / target_bucket_rows) bounds EXPECTED bucket occupancy
    (in-bucket all-pairs work) independent of corpus size; n_tables is then
    the smallest count whose per-pair miss probability at ``threshold`` is
    <= ``target_miss``, using the standard SimHash collision model
    p_bit = 1 - acos(cos_sim)/pi, p_table = p_bit**bits,
    p_miss = (1 - p_table)**n_tables."""
    import math

    n = int(n_rows) if n_rows else 0
    bits = int(np.clip(math.ceil(math.log2(max(n, 2) / target_bucket_rows))
                       if n > target_bucket_rows else 4, 4, max_bits))
    p_bit = 1.0 - math.acos(float(np.clip(threshold, -1.0, 1.0))) / math.pi
    p_table = max(p_bit ** bits, 1e-12)
    need = math.ceil(math.log(target_miss) / math.log(max(1.0 - p_table, 1e-12)))
    n_tables = int(np.clip(need, 1, max_tables))
    if need > max_tables:
        import warnings

        miss = (1.0 - p_table) ** n_tables
        warnings.warn(
            f"lsh_geometry: {need} tables needed for miss<={target_miss} at "
            f"threshold={threshold} with bits={bits}, capped at {max_tables} "
            f"(actual per-pair miss ~{miss:.3f}); raise max_tables or lower "
            "the threshold"
        )
    return n_tables, bits


def embedding_dup_pairs(ds, *, id_col: str = "vec_id", vec_col: str = "embedding",
                        threshold: float = 0.95, n_tables: int | None = None,
                        bits: int | None = None, seed: int = 5,
                        batch_size: int = 4096, split_rows: int = 32768,
                        presalt_sample_rows: int = 1_000_000):
    """Near-duplicate vector pairs by cosine >= threshold — bucketed, never
    all-pairs (VERDICT r1 fix: the LSH bucket id IS the shuffle key).

    Random-hyperplane LSH: ``n_tables`` independent tables of ``bits``
    sign-bits each (seeded -> deterministic).  Each vector lands in one
    bucket per table; a ``groupby(table, code)`` shuffle co-locates bucket
    members; all-pairs cosine runs only INSIDE a bucket; a final
    groupby(id_a, id_b) dedupes pairs found by several tables.

    Geometry scales with the corpus (VERDICT r2 #3): ``bits`` defaults to
    log2(n / 1024) so expected bucket occupancy — and the quadratic
    in-bucket work — is constant at any corpus size, and ``n_tables``
    defaults to the smallest count with per-pair miss <= 1e-2 AT THE
    CONFIGURED THRESHOLD (ADVICE r2: the old fixed 4x8 missed ~11% at
    0.95).  Buckets that still exceed ``split_rows`` (skewed/coincident
    regions) are sub-split in-worker with extra deterministic hyperplanes —
    equivalent to having used more bits for that bucket — so per-bucket
    all-pairs work is bounded; only truly coincident-vector clusters stay
    quadratic, and their PAIR OUTPUT is inherently quadratic anyway.

    Hot buckets are additionally detected BEFORE the shuffle (round-3
    roadmap: in-worker splitting bounds compute but still materializes the
    whole bucket as one ``map_groups`` group in one worker's heap): a
    content-keyed sample of ~``presalt_sample_rows`` rows (deterministic
    under any block layout — membership hashes the id, never the block
    position) estimates per-bucket occupancy, and rows of estimated-hot
    buckets carry their sub-split code in the shuffle key itself, so the
    group arriving at a worker is already the bounded sub-bucket.  The
    in-worker split remains as the fallback for buckets the sample missed
    (those are barely above ``split_rows``, so their group heap is bounded
    too) and continues with the planes AFTER the pre-salt's, never reusing
    them.  Exactly reproducible given the seed.  Emits (id_a < id_b,
    cosine).
    """
    from ray.data.aggregate import Max

    from ..util import meta_row_count
    from .ann import vec_matrix

    # hyperplanes need the dimensionality: peek one row (metadata-cheap)
    first = ds.take(1)
    if not first:
        return ds.limit(0).map_batches(
            lambda t: pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            ),
            batch_format="pyarrow",
        )
    dim = len(first[0][vec_col])
    # geometry and presalt both need the true corpus size: metadata when
    # free, else one count() (callers pass materialized/file-backed inputs;
    # the review found that silently treating unknown as tiny gives bits=4 —
    # 16 buckets — and an unbounded per-bucket heap at 10M+ vectors)
    n_rows = meta_row_count(ds)
    if n_rows is None:
        n_rows = ds.count()
    if n_tables is None or bits is None:
        auto_tables, auto_bits = lsh_geometry(n_rows, threshold)
        n_tables = auto_tables if n_tables is None else n_tables
        bits = auto_bits if bits is None else bits
    if bits == 0:
        # exhaustive mode (the SQL-checked gate twin): one bucket, exact
        # all-pairs — sub-splitting would silently make it approximate
        split_rows = float("inf")
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(n_tables * bits, dim))
    # extra hyperplanes for in-worker hot-bucket splitting: PER TABLE
    # (review finding: a shared set makes sub-split misses perfectly
    # correlated across tables, voiding the per-pair miss bound exactly in
    # the skewed regions that trigger splitting)
    MAX_SPLIT_BITS = 20
    S = np.random.default_rng(seed + 7919).normal(
        size=(max(n_tables, 1), MAX_SPLIT_BITS, dim)
    )
    import ray

    h_ref = ray.put(H)
    s_ref = ray.put(S)
    weights = (1 << np.arange(bits, dtype=np.int64))

    # --- pre-shuffle hot-bucket detection (bounds the GROUP, not just the
    # compute): estimate occupancy from a content-keyed sample and salt hot
    # buckets' shuffle keys with their sub-split code so each map_groups
    # group is already the bounded sub-bucket.  Packing (table, code) into
    # one int64 needs code < 2^40, so explicit bits >= 40 skips presalt
    # (the in-worker fallback still bounds compute).
    hot_ref = None
    if np.isfinite(split_rows) and n_rows > split_rows and bits < 40:
        from ray.data.aggregate import Count

        mod = max(1, int(round(n_rows / presalt_sample_rows)))
        hot_min = max(2, int(split_rows // mod))

        def sample_codes(t: pa.Table) -> pa.Table:
            empty = pa.table({"lsh_table": pa.array([], pa.int64()),
                              "lsh_code": pa.array([], pa.int64())})
            ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
            if mod > 1:
                # _mix64 is uint64-only: int64 input promotes the in-place
                # multiply to float64 and raises on numpy 1.26
                keep = np.flatnonzero(
                    _mix64(ids.astype(np.uint64)) % np.uint64(mod) == 0
                )
                if keep.size == 0:
                    return empty
                vecs = t[vec_col].combine_chunks().take(pa.array(keep, pa.int64()))
            else:
                vecs = t[vec_col].combine_chunks()
            M = vec_matrix(vecs)
            # signs are scale-invariant: skip the normalization
            signs = (M @ ray.get(h_ref).T) >= 0.0
            n = M.shape[0]
            codes = signs.reshape(n, n_tables, bits) @ weights
            return pa.table(
                {"lsh_table": pa.array(
                    np.tile(np.arange(n_tables, dtype=np.int64), n), pa.int64()),
                 "lsh_code": pa.array(codes.ravel(), pa.int64())}
            )

        cnt = (
            ds.map_batches(sample_codes, batch_format="pyarrow",
                           batch_size=batch_size)
            .groupby(["lsh_table", "lsh_code"])
            .aggregate(Count(alias_name="n_sample"))
        )
        hot = cnt.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n_sample"], hot_min)),
            batch_format="pyarrow",
        ).to_pandas()
        # bounded driver pull: <= sample_total/hot_min ~ 2n/split_rows rows
        if len(hot):
            est = hot["n_sample"].to_numpy(dtype=np.int64) * mod
            ebs = np.clip(
                np.ceil(np.log2(est / split_rows)), 1, MAX_SPLIT_BITS
            ).astype(np.int64)
            packed = (hot["lsh_table"].to_numpy(dtype=np.int64) << 40) | \
                hot["lsh_code"].to_numpy(dtype=np.int64)
            o = np.argsort(packed)
            hot_ref = ray.put((packed[o], ebs[o]))

    def code_stage(t: pa.Table) -> pa.Table:
        H_ = ray.get(h_ref)
        M = vec_matrix(t[vec_col])
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        signs = (M @ H_.T) >= 0.0  # (n, tables*bits)
        n = M.shape[0]
        codes = signs.reshape(n, n_tables, bits) @ weights  # (n, tables)
        tbl = np.tile(np.arange(n_tables, dtype=np.int64), n)
        salt = np.zeros(n * n_tables, np.int64)
        if hot_ref is not None:
            hk, he = ray.get(hot_ref)
            flat_codes = codes.ravel()
            pk = (tbl << 40) | flat_codes
            pos = np.minimum(np.searchsorted(hk, pk), hk.size - 1)
            ishot = hk[pos] == pk
            hit = np.flatnonzero(ishot)
            if hit.size:
                S_ = ray.get(s_ref)
                w20 = 1 << np.arange(MAX_SPLIT_BITS, dtype=np.int64)
                rows_h = hit // n_tables
                tbls_h = hit % n_tables
                ebh = he[pos[hit]]
                for t_i in np.unique(tbls_h):
                    m = tbls_h == t_i
                    sub = ((M[rows_h[m]] @ S_[t_i].T) >= 0.0) @ w20
                    salt[hit[m]] = sub & ((np.int64(1) << ebh[m]) - 1)
        base = t.select([id_col, vec_col]).take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), n_tables))
        )
        return (
            base.append_column("lsh_table", pa.array(tbl, pa.int64()))
            .append_column("lsh_code", pa.array(codes.ravel(), pa.int64()))
            .append_column("salt", pa.array(salt, pa.int64()))
        )

    coded = ds.map_batches(code_stage, batch_format="pyarrow", batch_size=batch_size)

    def _block_pairs(ids: np.ndarray, M: np.ndarray):
        """All-pairs >= threshold within one (sub-)bucket; matmul chunked
        over row blocks so memory stays O(chunk x n) (~256 MB of sims)."""
        n = M.shape[0]
        rows_per_chunk = max(1, (1 << 25) // max(n, 1))
        out_i, out_j, out_s = [], [], []
        for r0 in range(0, n, rows_per_chunk):
            r1 = min(r0 + rows_per_chunk, n)
            sims = M[r0:r1] @ M.T
            li, jj = np.nonzero(sims >= threshold)
            gi = li + r0
            upper = jj > gi  # strict upper triangle in global coordinates
            out_i.append(ids[gi[upper]])
            out_j.append(ids[jj[upper]])
            out_s.append(sims[li[upper], jj[upper]])
        ii = np.concatenate(out_i) if out_i else np.empty(0, np.int64)
        jj = np.concatenate(out_j) if out_j else np.empty(0, np.int64)
        ss = np.concatenate(out_s) if out_s else np.empty(0, np.float64)
        return ii, jj, ss

    def bucket_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}
        )
        if t.num_rows < 2:
            return empty
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        M = vec_matrix(t[vec_col])
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        n = M.shape[0]
        if n <= split_rows:
            ii, jj, ss = _block_pairs(ids, M)
        else:
            # hot bucket the presalt sample missed (or a sub-bucket still
            # above split_rows): sub-split with extra deterministic
            # hyperplanes so expected sub-bucket size <= split_rows and
            # all-pairs work stays bounded — same recall model as having
            # used more, INDEPENDENT bits for this table's bucket
            # (VERDICT r2 #3; per-table planes so misses decorrelate).
            # Start AFTER any planes the presalt already consumed: reusing
            # them would assign every row here the same sub-code (they
            # agree on those planes by construction) and split nothing.
            tbl = int(t["lsh_table"][0].as_py())
            eb0 = 0
            if hot_ref is not None:
                hk, he = ray.get(hot_ref)
                pk = (np.int64(tbl) << 40) | np.int64(t["lsh_code"][0].as_py())
                p = int(np.searchsorted(hk, pk))
                if p < hk.size and hk[p] == pk:
                    eb0 = int(he[p])
            S_ = ray.get(s_ref)[tbl]
            avail = S_.shape[0] - eb0
            if avail < 1:
                # plane budget exhausted: coincident-vector cluster, its
                # pair output is quadratic anyway
                ii, jj, ss = _block_pairs(ids, M)
            else:
                eb = int(np.clip(np.ceil(np.log2(n / split_rows)), 1, avail))
                w = (1 << np.arange(eb, dtype=np.int64))
                sub = ((M @ S_[eb0:eb0 + eb].T) >= 0.0) @ w
                order = np.argsort(sub, kind="stable")
                sorted_sub = sub[order]
                starts = np.flatnonzero(
                    np.concatenate([[True], sorted_sub[1:] != sorted_sub[:-1]])
                )
                ends = np.concatenate([starts[1:], [n]])
                acc_i, acc_j, acc_s = [], [], []
                for s0, s1 in zip(starts, ends):
                    if s1 - s0 < 2:
                        continue
                    sel = order[s0:s1]
                    bi, bj, bs = _block_pairs(ids[sel], M[sel])
                    acc_i.append(bi)
                    acc_j.append(bj)
                    acc_s.append(bs)
                ii = np.concatenate(acc_i) if acc_i else np.empty(0, np.int64)
                jj = np.concatenate(acc_j) if acc_j else np.empty(0, np.int64)
                ss = np.concatenate(acc_s) if acc_s else np.empty(0, np.float64)
        if ii.size == 0:
            return empty
        swap = ii > jj
        a2 = np.where(swap, jj, ii)
        b2 = np.where(swap, ii, jj)
        keep = a2 != b2  # same id in a bucket twice (shouldn't happen) guards
        return pa.table(
            {
                "id_a": pa.array(a2[keep], pa.int64()),
                "id_b": pa.array(b2[keep], pa.int64()),
                "cosine": pa.array(ss[keep], pa.float64()),
            }
        )

    pairs = coded.groupby(["lsh_table", "lsh_code", "salt"]).map_groups(
        bucket_pairs, batch_format="pyarrow"
    )
    # a pair can be found by several tables: dedupe on (id_a, id_b)
    return pairs.groupby(["id_a", "id_b"]).aggregate(Max("cosine", alias_name="cosine"))
