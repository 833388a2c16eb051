"""Reproduce the BASELINE.md stress numbers (two-large-sides joins, dedup).

    python tools/stress.py pbsm       # 2M pts x 200k rects partitioned join
    python tools/stress.py knn        # 2M x 200k partitioned kNN (k=2)
    python tools/stress.py embedding  # 501k vectors, 1000 planted near-dups
    python tools/stress.py minhash    # 102k docs, 2000 planted near-dups
    python tools/stress.py all

Every corpus is synthesized deterministically in-process (seeded); planted
duplicates give exact expected outputs, so each stress is a correctness
check at scale as well as a throughput measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pyarrow as pa


class _MemSampler:
    """Background sampler of /proc/self/smaps_rollup separating the driver's
    PRIVATE pages (its actual heap) from SHARED ones (plasma /dev/shm blocks
    mapped in for zero-copy reads).  ``ru_maxrss`` lumps both together, so a
    driver that merely *maps* large object-store blocks looks like it holds
    them; the private peak is the honest 'driver holds data' number."""

    def __init__(self, interval: float = 0.25):
        import threading

        self.interval = interval
        self.peak_rss = 0
        self.peak_private = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _read(self):
        rss = priv = 0
        with open("/proc/self/smaps_rollup") as f:
            for line in f:
                if line.startswith("Rss:"):
                    rss = int(line.split()[1]) << 10
                elif line.startswith(("Private_Clean:", "Private_Dirty:")):
                    priv += int(line.split()[1]) << 10
        return rss, priv

    def _run(self):
        while not self._stop.is_set():
            try:
                rss, priv = self._read()
                self.peak_rss = max(self.peak_rss, rss)
                self.peak_private = max(self.peak_private, priv)
            except OSError:
                pass
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=2)


def _points_and_rects():
    from rayjoin.geom.encode import points_geom, rects_geom
    from rayjoin.stages.geocode import key_to_latlon

    import ray.data

    kp = np.arange(2_000_000, dtype=np.int64)
    lat, lon = key_to_latlon(kp)
    pts = points_geom(kp, lon, lat)
    kr = np.arange(200_000, dtype=np.int64) + 5_000_000
    rlat, rlon = key_to_latlon(kr)
    w = 0.5 + (kr % 7) * 0.05
    h = 0.5 + (kr % 5) * 0.05
    rects = rects_geom(kr, rlon - w / 2, rlat - h / 2, rlon + w / 2, rlat + h / 2)
    P = ray.data.from_arrow(pts).repartition(64).materialize()
    R = ray.data.from_arrow(rects).repartition(16).materialize()
    return P, R


def stress_pbsm() -> dict:
    from rayjoin.config import Interaction
    from rayjoin.join.partitioned import partitioned_spatial_join

    P, R = _points_and_rects()
    t0 = time.time()
    n = partitioned_spatial_join(P, R, Interaction.CONTAINS).count()
    dt = time.time() - t0
    return {"stress": "pbsm", "joined_rows": n, "sec": round(dt, 1),
            "joined_rows_per_sec": round(n / dt), "probe_rows_per_sec": round(2_000_000 / dt)}


def stress_knn() -> dict:
    from rayjoin.join.partitioned import partitioned_knn_join

    P, R = _points_and_rects()
    t0 = time.time()
    n = partitioned_knn_join(P, R, k=2).count()
    dt = time.time() - t0
    return {"stress": "knn", "rows": n, "expected": 4_000_000, "sec": round(dt, 1),
            "bigs_per_sec": round(2_000_000 / dt)}


def stress_embedding(n: int = 500_000) -> dict:
    import ray
    import ray.data

    from rayjoin.functions.dedup import embedding_dup_pairs

    rng = np.random.default_rng(1)
    dim, planted = 64, 1000
    M = rng.standard_normal((n, dim)).astype(np.float32)
    base = M[:planted] / np.linalg.norm(M[:planted], axis=1, keepdims=True)
    noise = rng.standard_normal((planted, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    dup = (base + 0.03 * noise).astype(np.float32)
    off = max(10_000_000, 2 * n)  # planted ids must never collide with base ids at any --n
    ids = np.concatenate([np.arange(n), np.arange(planted) + off]).astype(np.int64)
    V = np.vstack([M, dup])
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, V.size + 1, dim, dtype=np.int32)),
        pa.array(V.ravel(), pa.float32()),
    )
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(ids), "embedding": emb})
    ).repartition(64).materialize()
    t0 = time.time()
    pt = embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    dt = time.time() - t0
    rec = int(((pt["id_b"] >= off) & (pt["id_a"] == pt["id_b"] - off)).sum())
    return {"stress": "embedding", "pairs": len(pt), "planted_recovered": rec,
            "planted": planted, "sec": round(dt, 1), "vecs_per_sec": round((n + planted) / dt)}


def stress_minhash() -> dict:
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import minhash_dedup_pairs

    rng = np.random.default_rng(3)
    n = 100_000
    lens = rng.integers(40, 200, size=n)
    toks = pc.binary_join_element_wise(
        "w", pc.cast(pa.array(rng.integers(0, 100_000, int(lens.sum()))), pa.string()), ""
    )
    offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int64))
    texts = pc.binary_join(pa.LargeListArray.from_arrays(offsets, toks), " ")
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": texts})
    base_ids = np.arange(2000, dtype=np.int64)
    tweaked = pc.binary_join_element_wise(texts.take(pa.array(base_ids)), " zzz", "")
    planted = pa.table({"doc_id": pa.array(base_ids + 10_000_000), "text": tweaked})
    ds = ray.data.from_arrow(pa.concat_tables([t, planted])).repartition(64).materialize()
    t0 = time.time()
    pairs = minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    dt = time.time() - t0
    rec = int(((pairs["id_b"] - pairs["id_a"]) == 10_000_000).sum())
    return {"stress": "minhash", "pairs": len(pairs), "planted_recovered": rec,
            "planted": 2000, "sec": round(dt, 1), "docs_per_sec": round(102_000 / dt)}


def stress_megadup(n_copies: int = 300_000, n_unique: int = 50_000) -> dict:
    """VERDICT r4 #1 'done' criterion: a corpus with 300k BYTE-IDENTICAL
    copies of one boilerplate page (every copy shares every LSH band bucket)
    must flow through the near-dedup pipeline with bounded worker memory —
    the old clique expansion would build 4.5e10 pair rows in one heap.  The
    exact-dup pre-collapse bands the page once; star expansion hands
    dup_clusters O(m) rows.  Asserts the drop list is EXACT: every copy but
    the min id, plus the planted near-dup tail, and no unique doc."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import near_dup_drop_list

    rng = np.random.default_rng(11)
    lens = rng.integers(40, 200, size=n_unique)
    toks = pc.binary_join_element_wise(
        "w", pc.cast(pa.array(rng.integers(0, 100_000, int(lens.sum()))), pa.string()), ""
    )
    offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int64))
    texts = pc.binary_join(pa.LargeListArray.from_arrays(offsets, toks), " ")
    uniq = pa.table({"doc_id": pa.array(np.arange(n_unique, dtype=np.int64)),
                     "text": texts})
    boiler = " ".join(f"b{w}" for w in rng.integers(0, 100_000, 120))
    copies = pa.table({
        "doc_id": pa.array(np.arange(n_copies, dtype=np.int64) + 1_000_000),
        "text": pa.array([boiler] * n_copies),
    })
    # one near-dup of the boilerplate (NOT byte-identical) — must land in
    # the same component through the rep-level LSH pass
    near = pa.table({"doc_id": pa.array([5_000_000], pa.int64()),
                     "text": pa.array([boiler + " zzz"])})
    ds = ray.data.from_arrow(pa.concat_tables([uniq, copies, near])) \
        .repartition(64).materialize()
    with _MemSampler() as mem:
        t0 = time.time()
        drop = near_dup_drop_list(ds).materialize()
        dt = time.time() - t0
    got = np.sort(np.concatenate([
        np.asarray(t["doc_id"], dtype=np.int64)
        for t in __import__("ray").get(drop.to_arrow_refs()) if t.num_rows
    ] or [np.empty(0, np.int64)]))
    want = np.concatenate([np.arange(1, n_copies, dtype=np.int64) + 1_000_000,
                           [5_000_000]])
    exact = bool(got.size == want.size and np.array_equal(got, np.sort(want)))
    assert exact, (got.size, want.size)
    return {"stress": "megadup", "docs": n_unique + n_copies + 1,
            "exact_copies": n_copies, "dropped": int(got.size),
            "drop_exact": exact, "sec": round(dt, 1),
            "driver_private_peak_gib": round(mem.peak_private / 2**30, 2)}


def stress_semdedup(n: int = 2_000_000) -> dict:
    """SemDeDup at scale: n random 64-dim vectors + 1000 BYTE-IDENTICAL
    copies of vector 0 (the mega-dup edge: exact collapse must cost a sort,
    not 10^6 sims) + 500 near-dup copies (cosine ~0.9996).  k=512 clusters
    (matmul assign path), hot clusters sub-split at 8192 rows.  Asserts the
    exact copies are ALL dropped and nothing unplanted is (natural max
    cosine for random 64-dim at this pair count is ~0.94 < 0.99); near-dup
    recall is reported (a pair split across clusters is missed by design —
    SemDeDup's documented approximation)."""
    import ray
    import ray.data

    from rayjoin.functions.kmeans import kmeans_fit, semdedup_drop_list

    rng = np.random.default_rng(17)
    dim, n_exact, n_near = 64, 1000, 500
    # mixture-of-Gaussians base (real embedding geometry — isotropic noise
    # is SemDeDup's worst case: concentration of measure puts every point
    # near a Voronoi boundary and cluster-restricted recall collapses, an
    # inherent property of the algorithm, not of this implementation)
    n_true = 256
    centers = rng.standard_normal((n_true, dim)).astype(np.float32)
    which = rng.integers(0, n_true, n)
    M = (centers[which]
         + 0.35 * rng.standard_normal((n, dim))).astype(np.float32)
    exact = np.repeat(M[[0]], n_exact, axis=0)
    # near-dups: a ~1.7-degree angular perturbation of the ORIGINAL vector
    # (cosine ~0.9996, euclidean offset ~3% of the norm — the "same doc,
    # slightly different embedding" case, which stays inside its cell)
    src = M[1:1 + n_near].astype(np.float64)
    noise = rng.standard_normal((n_near, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    near = (src + 0.03 * np.linalg.norm(src, axis=1, keepdims=True)
            * noise).astype(np.float32)
    off = max(10_000_000, 2 * n)
    ids = np.concatenate([
        np.arange(n), np.arange(n_exact) + off,
        np.arange(n_near) + 2 * off]).astype(np.int64)
    V = np.vstack([M, exact, near])
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, V.size + 1, dim, dtype=np.int32)),
        pa.array(V.ravel(), pa.float32()),
    )
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(ids), "embedding": emb})
    ).repartition(64).materialize()
    k, iters = 512, 2
    with _MemSampler() as mem:
        t0 = time.time()
        fitted = kmeans_fit(ds, k=k, iters=iters)
        fit_sec = time.time() - t0
        t0 = time.time()
        drop = semdedup_drop_list(
            ds, threshold=0.99, k=k, iters=iters, fitted=fitted,
            max_cluster_rows=8192, chunk_rows=2048).materialize()
        dt = time.time() - t0
    got = np.sort(np.concatenate([
        np.asarray(t["vec_id"], dtype=np.int64)
        for t in ray.get(drop.to_arrow_refs()) if t.num_rows
    ] or [np.empty(0, np.int64)]))
    exact_rec = int(((got >= off) & (got < off + n_exact)).sum())
    near_rec = int((got >= 2 * off).sum())
    false_pos = int((got < n).sum())
    assert exact_rec == n_exact, exact_rec
    assert false_pos == 0, false_pos
    total = n + n_exact + n_near
    return {"stress": "semdedup", "vecs": total, "k": k,
            "exact_recovered": exact_rec, "exact_planted": n_exact,
            "near_recovered": near_rec, "near_planted": n_near,
            "false_positives": false_pos,
            "fit_sec": round(fit_sec, 1), "dedup_sec": round(dt, 1),
            "fit_vecs_per_sec": round(total * (iters + 1) / fit_sec),
            "driver_private_peak_gib": round(mem.peak_private / 2**30, 2)}


def stress_simdup(n: int = 200_000) -> dict:
    """simhash_dup_pairs at scale: token-soup corpus + 2000 planted exact
    twins (hamming 0 -> must all be recovered) and 2000 one-token-append
    near twins (recovered iff their hamming lands <= 3 — reported, not
    asserted: that is data, not a bug)."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import simhash_dup_pairs

    rng = np.random.default_rng(7)
    lens = rng.integers(40, 200, size=n)
    toks = pc.binary_join_element_wise(
        "w", pc.cast(pa.array(rng.integers(0, 100_000, int(lens.sum()))), pa.string()), "")
    offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int64))
    texts = pc.binary_join(pa.LargeListArray.from_arrays(offsets, toks), " ")
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": texts})
    base = np.arange(2000, dtype=np.int64)
    exact = pa.table({"doc_id": pa.array(base + 10_000_000),
                      "text": texts.take(pa.array(base))})
    near = pa.table({"doc_id": pa.array(base + 20_000_000),
                     "text": pc.binary_join_element_wise(
                         texts.take(pa.array(base + 2000)), " zzz", "")})
    ds = ray.data.from_arrow(pa.concat_tables([t, exact, near])).repartition(64).materialize()
    total = n + 4000
    t0 = time.time()
    pairs = simhash_dup_pairs(ds, max_hamming=3).to_pandas()
    dt = time.time() - t0
    rec_exact = int(((pairs["id_b"] - pairs["id_a"]) == 10_000_000).sum())
    rec_near = int(((pairs["id_b"] - pairs["id_a"]) == 20_000_000 - 2000).sum())
    assert rec_exact == 2000, rec_exact
    return {"stress": "simdup", "pairs": len(pairs), "exact_recovered": rec_exact,
            "near_within_3": rec_near, "sec": round(dt, 1),
            "docs_per_sec": round(total / dt)}


def stress_substr(n: int = 100_000) -> dict:
    """duplicated_windows at scale: ~25M 32-byte windows, 1000 planted
    full-copy docs whose every window must be flagged (count == len-31 on
    both twins)."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import duplicated_windows

    rng = np.random.default_rng(9)
    lens = rng.integers(120, 400, size=n)
    # random lowercase byte soup: no accidental cross-doc 32-byte repeats
    total_b = int(lens.sum())
    data = rng.integers(97, 123, total_b, dtype=np.uint8)
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    texts = pa.Array.from_buffers(
        pa.utf8(), n,
        [None, pa.py_buffer(offs.astype(np.int32).tobytes()), pa.py_buffer(data.tobytes())])
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": texts})
    base = np.arange(1000, dtype=np.int64)
    twins = pa.table({"doc_id": pa.array(base + 10_000_000),
                      "text": texts.take(pa.array(base))})
    ds = ray.data.from_arrow(pa.concat_tables([t, twins])).repartition(64).materialize()
    n_windows = int(np.maximum(lens - 31, 0).sum() + np.maximum(lens[:1000] - 31, 0).sum())
    t0 = time.time()
    out = duplicated_windows(ds, window=32).to_pandas()
    dt = time.time() - t0
    got = dict(zip(out.doc_id, out.n_dup_windows))
    exp_rows = 0
    for b in base:
        exp = max(int(lens[b]) - 31, 0)
        assert got.get(b) == exp and got.get(b + 10_000_000) == exp, b
        exp_rows += 2
    return {"stress": "substr", "docs_flagged": len(out), "planted_rows": exp_rows,
            "windows": n_windows, "sec": round(dt, 1),
            "windows_per_sec": round(n_windows / dt)}


def stress_simjoin() -> dict:
    """Head-to-head exact PPJoin (similarity_join_shingles) vs MinHash-LSH
    (minhash_dedup_pairs) on ONE corpus: 100k letter-alphabet docs + 2000
    planted near-twins; the exact join must recover all 2000 with zero
    false pairs.

    Corpus note: char-5-shingles need ENTROPY for the prefix filter to
    prune.  stress_minhash's digit-token soup caps at 12^5 ~ 249k possible
    shingles (measured: mean df 69 and 64M candidate slots at just 10k
    docs -> quadratic blowup), which is exactly LSH territory; realistic
    text (letters, 27^5 ~ 14M shingle space) measured 0 non-planted
    candidate slots at 10k docs.  The exact join is documented as
    entropy-dependent; this stress uses the realistic-entropy corpus."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import minhash_dedup_pairs, similarity_join_shingles

    rng = np.random.default_rng(3)
    n = 100_000
    lens = rng.integers(300, 1400, size=n)
    total = int(lens.sum())
    chars = rng.integers(97, 123, size=total, dtype=np.uint8)
    chars[rng.random(total) < 0.15] = 32  # spaces, word-soup shape
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    texts = pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets.tobytes()), pa.py_buffer(chars.tobytes()))
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": texts})
    base_ids = np.arange(2000, dtype=np.int64)
    tweaked = pc.binary_join_element_wise(texts.take(pa.array(base_ids)), " zzz", "")
    planted = pa.table({"doc_id": pa.array(base_ids + 10_000_000), "text": tweaked})
    ds = ray.data.from_arrow(pa.concat_tables([t, planted])).repartition(64).materialize()
    t0 = time.time()
    pairs = similarity_join_shingles(ds, threshold=0.8).to_pandas()
    dt = time.time() - t0
    rec = int(((pairs["id_b"] - pairs["id_a"]) == 10_000_000).sum())
    assert rec == 2000, rec
    assert len(pairs) == 2000, len(pairs)  # exact join: zero false pairs
    t1 = time.time()
    mh = minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    dt_mh = time.time() - t1
    rec_mh = int(((mh["id_b"] - mh["id_a"]) == 10_000_000).sum())
    return {"stress": "simjoin", "pairs": len(pairs), "planted_recovered": rec,
            "planted": 2000, "sec": round(dt, 1),
            "docs_per_sec": round(102_000 / dt),
            "minhash_sec": round(dt_mh, 1), "minhash_recovered": rec_mh,
            "minhash_pairs": len(mh)}


def stress_fuzzy(n: int = 500_000) -> dict:
    """edit_distance_pairs at scale: 500k urls over 50k hosts (~10 per
    block), 5000 planted 1-edit twins that must all be recovered; blocks
    bounded so the quadratic verify stays per-block tiny."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.fuzzy import edit_distance_pairs

    rng = np.random.default_rng(21)
    host_id = rng.integers(0, 50_000, n)
    path_id = rng.integers(0, 10**9, n)
    urls = pc.binary_join_element_wise(
        "http://h", pc.cast(pa.array(host_id), pa.string()),
        ".example.com/p", pc.cast(pa.array(path_id), pa.string()), "")
    hosts = pc.binary_join_element_wise(
        "h", pc.cast(pa.array(host_id), pa.string()), ".example.com", "")
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "host": hosts, "url": urls})
    base = np.arange(5000, dtype=np.int64)
    twin_urls = pc.binary_join_element_wise(
        pc.cast(urls.take(pa.array(base)), pa.string()), "x", "")  # 1 insert
    twins = pa.table({"doc_id": pa.array(base + 10_000_000),
                      "host": hosts.take(pa.array(base)), "url": twin_urls})
    ds = ray.data.from_arrow(pa.concat_tables([t, twins])).repartition(64).materialize()
    t0 = time.time()
    out = edit_distance_pairs(ds, id_col="doc_id", str_col="url",
                              key_col="host", max_dist=2).to_pandas()
    dt = time.time() - t0
    rec = int(((out["id_b"] - out["id_a"]) == 10_000_000).sum())
    assert rec == 5000, rec
    return {"stress": "fuzzy", "pairs": len(out), "planted_recovered": rec,
            "sec": round(dt, 1), "rows_per_sec": round((n + 5000) / dt)}


_LANGS = np.array(["en", "de", "fr", "es", "pt", "zh"])


def _corpus_texts(ids: np.ndarray):
    """Token-soup text per doc id, a PURE FUNCTION of the id (hash-derived
    lengths and tokens), so any shard — including a duplicate referencing a
    base doc — regenerates its text without seeing any other shard."""
    import pyarrow.compute as pc

    from rayjoin.functions.dedup import _mix64

    u = ids.astype(np.uint64)
    lens = (20 + (_mix64(u) % np.uint64(40))).astype(np.int64)
    rep = np.repeat(u, lens)
    starts = np.concatenate([[0], np.cumsum(lens)])
    k = (np.arange(rep.size, dtype=np.int64)
         - np.repeat(starts[:-1], lens)).astype(np.uint64)
    tok = (_mix64(rep * np.uint64(1000003) + k) % np.uint64(200000)).astype(np.int64)
    toks = pc.binary_join_element_wise(
        "w", pc.cast(pa.array(tok), pa.string()), "")
    return pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array(starts, pa.int64()), toks), " ")


def _corpus_shard(ids: np.ndarray, is_dup: bool, n_base: int, off: int) -> pa.Table:
    import pyarrow.compute as pc

    from rayjoin.functions.dedup import _mix64

    if is_dup:
        src = (_mix64(ids.astype(np.uint64) + np.uint64(12345))
               % np.uint64(n_base)).astype(np.int64)
        texts = pc.binary_join_element_wise(_corpus_texts(src), " zzz", "")
        lang_of, doc_ids = src, ids + off
    else:
        texts = _corpus_texts(ids)
        lang_of, doc_ids = ids, ids
    lang_idx = (_mix64(lang_of.astype(np.uint64) * np.uint64(7) + np.uint64(3))
                % np.uint64(6)).astype(np.int64)
    langs = pa.array(_LANGS[lang_idx], pa.string())
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                     "text": texts, "lang": langs})


def _gen_corpus_input(sf_dir: str, n: int) -> int:
    """Ray-task-generated dup-heavy documents.parquet shards (65% unique +
    35% near-dups); returns n_dup.  Requires an initialized Ray session."""
    import os
    import shutil

    import ray

    n_base = int(n * 0.65)
    n_dup = n - n_base
    shutil.rmtree(sf_dir, ignore_errors=True)
    doc_dir = f"{sf_dir}/documents.parquet"
    os.makedirs(doc_dir)

    @ray.remote
    def gen(path, lo, hi, is_dup, off):
        import pyarrow.parquet as pq

        t = _corpus_shard(np.arange(lo, hi, dtype=np.int64), is_dup, n_base, off)
        pq.write_table(t, path, row_group_size=65536)
        return t.num_rows

    shard = 131_072
    off = max(10_000_000, 2 * n)
    refs = [gen.remote(f"{doc_dir}/base-{i:04d}.parquet", lo,
                       min(lo + shard, n_base), False, 0)
            for i, lo in enumerate(range(0, n_base, shard))]
    refs += [gen.remote(f"{doc_dir}/dup-{i:04d}.parquet", lo,
                        min(lo + shard, n_dup), True, off)
             for i, lo in enumerate(range(0, n_dup, shard))]
    assert sum(ray.get(refs)) == n
    return n_dup


def stress_corpus_resume(n: int = 400_000) -> dict:
    """VERDICT r4 #4 done-criterion: SIGKILL a checkpointed corpus run
    mid-dedup, re-invoke the identical command, and the resume completes
    while recomputing ONLY the missing stages (the filtered checkpoint is
    reused; the manifest proves the dedup shuffle ran exactly once to
    completion)."""
    import json as _json
    import os
    import shutil
    import signal
    import subprocess

    import ray

    sf_dir = "/tmp/stress_cresume_in"
    out_dir = "/tmp/stress_cresume_out"
    ck = "/tmp/stress_cresume_ck"
    for d in (out_dir, ck):
        shutil.rmtree(d, ignore_errors=True)
    n_dup = _gen_corpus_input(sf_dir, n)
    # the subprocess owns its own Ray session; release this one's CPUs
    ray.shutdown()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmd = [sys.executable, "-m", "rayjoin.pipelines.corpus", "--sf-dir", sf_dir,
           "--out", out_dir, "--checkpoint-dir", ck, "--num-cpus", "16"]
    env = dict(os.environ, PYTHONPATH=repo)

    # run 1: SIGKILL the whole process group the moment the filtered
    # checkpoint lands (atomic rename), i.e. mid-dedup-shuffle
    p = subprocess.Popen(cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL, start_new_session=True)
    filt_dir = os.path.join(ck, "part=filtered")
    t0 = time.time()
    killed_sec = None
    while p.poll() is None:
        if os.path.isdir(filt_dir):
            try:
                os.killpg(os.getpgid(p.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed_sec = round(time.time() - t0, 2)
            break
        time.sleep(0.05)
    p.wait()
    assert killed_sec is not None, "run completed before the kill window"
    manifest_path = os.path.join(ck, "_manifest.jsonl")
    done_after_kill = set()
    with open(manifest_path) as f:
        for line in f:
            if line.strip():
                done_after_kill.add(_json.loads(line)["partition"])
    assert "filtered" in done_after_kill and "sink" not in done_after_kill

    # run 2: identical command resumes to completion
    t1 = time.time()
    out = subprocess.run(cmd, cwd=repo, env=env, capture_output=True,
                         text=True, check=True).stdout
    resume_sec = round(time.time() - t1, 2)
    m = _json.loads(out.strip().splitlines()[-1])
    assert "filtered" in m["resumed_stages"], m
    # drop list ids are a subset of the filtered corpus, so the written
    # row count must be exactly filtered - dropped
    assert m["rows_written"] == m["rows_filtered"] - m["rows_dropped_dups"], m
    assert m["rows_dropped_dups"] >= int(0.9 * n_dup), m
    return {"stress": "corpus_resume", "docs": n, "planted_dups": n_dup,
            "killed_after_sec": killed_sec,
            "stages_done_at_kill": sorted(done_after_kill),
            "resumed_stages": m["resumed_stages"],
            "rows_dropped_dups": m["rows_dropped_dups"],
            "rows_written": m["rows_written"],
            "resume_sec": resume_sec}


def stress_corpus(n: int = 1_000_000) -> dict:
    """Dup-heavy end-to-end corpus build (VERDICT r2 #2 done-criterion):
    ~35% near-dup rate at >= 1M docs, forced through the distributed
    anti-join drop path (broadcast_drop_rows=0), reporting peak driver RSS
    to show the drop list never materializes on the driver.  The synthetic
    corpus itself is generated BY RAY TASKS writing per-shard parquet
    (round-3 roadmap: a driver-side datagen dominated the reported RSS and
    hid the engine's footprint)."""
    import os
    import resource
    import shutil

    import ray

    from rayjoin.pipelines.corpus import build_corpus

    n_base = int(n * 0.65)
    n_dup = n - n_base
    sf_dir, out_dir = "/tmp/stress_corpus_in", "/tmp/stress_corpus_out"
    for d in (sf_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
    doc_dir = f"{sf_dir}/documents.parquet"
    os.makedirs(doc_dir)

    @ray.remote
    def gen(path, lo, hi, is_dup, off):
        import pyarrow.parquet as pq

        t = _corpus_shard(np.arange(lo, hi, dtype=np.int64), is_dup, n_base, off)
        pq.write_table(t, path, row_group_size=65536)
        return t.num_rows

    shard = 131_072
    off = max(10_000_000, 2 * n)
    refs = [gen.remote(f"{doc_dir}/base-{i:04d}.parquet", lo,
                       min(lo + shard, n_base), False, 0)
            for i, lo in enumerate(range(0, n_base, shard))]
    refs += [gen.remote(f"{doc_dir}/dup-{i:04d}.parquet", lo,
                        min(lo + shard, n_dup), True, off)
             for i, lo in enumerate(range(0, n_dup, shard))]
    assert sum(ray.get(refs)) == n
    t0 = time.time()
    with _MemSampler() as mem:
        m = build_corpus(sf_dir, out_dir, broadcast_drop_rows=0)
    dt = time.time() - t0
    rss_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    return {"stress": "corpus", "docs": n, "planted_dups": n_dup,
            "rows_dropped_dups": m["rows_dropped_dups"],
            "rows_written": m["rows_written"], "sec": round(dt, 1),
            "docs_per_sec": round(n / dt),
            "driver_peak_rss_gib": round(rss_gib, 2),
            "driver_peak_private_gib": round(mem.peak_private / (1 << 30), 2),
            "driver_peak_mapped_gib": round(mem.peak_rss / (1 << 30), 2)}


def stress_knnjoin(n: int = 250_000) -> dict:
    """Two-sided embedding k-NN join at volume with planted ground truth:
    right = n random unit vectors; left = a permuted noisy copy (left i's
    true nearest right is perm[i] by construction, cosine ~0.9996 vs a
    ~0.35 max natural cosine at dim=64).  Measures planted top-1 recovery
    at nprobe=8/64 (the approximate regime) plus throughput."""
    import ray
    import ray.data

    from rayjoin.functions.ann import knn_join_embeddings

    rng = np.random.default_rng(2)
    dim = 64
    R = rng.standard_normal((n, dim)).astype(np.float32)
    Rn = R / np.linalg.norm(R, axis=1, keepdims=True)
    perm = rng.permutation(n)
    noise = rng.standard_normal((n, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    L = (Rn[perm] + 0.03 * noise).astype(np.float32)

    def tab(M, id_off):
        e = pa.ListArray.from_arrays(
            pa.array(np.arange(0, M.size + 1, dim, dtype=np.int32)),
            pa.array(M.ravel(), pa.float32()),
        )
        return pa.table({"vec_id": pa.array(
            np.arange(M.shape[0], dtype=np.int64) + id_off), "embedding": e})

    lds = ray.data.from_arrow(tab(L, 10_000_000)).repartition(64).materialize()
    rds = ray.data.from_arrow(tab(R, 0)).repartition(64).materialize()
    t0 = time.time()
    out = knn_join_embeddings(
        lds, rds, k=2, n_lists=64, nprobe=8, sample_size=8192
    ).to_pandas()
    dt = time.time() - t0
    top1 = out[out["rank"] == 0].sort_values("query_id")
    rec = int((top1["vec_id"].to_numpy() == perm).sum())
    return {"stress": "knnjoin", "left": n, "right": n, "rows": len(out),
            "planted_top1_recovered": rec, "planted": n, "sec": round(dt, 1),
            "left_vecs_per_sec": round(n / dt)}


def stress_temporal(n: int = 5_000_000) -> dict:
    """Two-large-sides temporal joins at scale with an EXACT oracle: a
    synthetic event log (generated by Ray tasks, pure function of event id)
    is band-self-joined and as-of-joined by the engine, then DuckDB runs the
    equivalent SQL on the same parquet; counts and int checksums must match
    exactly.  Band join replicates each right row to <= 2 time bins; as-of
    resolves all keys per hash bucket in one scan."""
    import os
    import shutil

    import duckdb
    import pyarrow.compute as pc
    import ray
    import ray.data

    from rayjoin.functions.temporal import asof_join, band_join

    n_users = max(1, n // 50)
    span_us = 30 * 86_400 * 1_000_000  # 30 days
    base_us = 1_700_000_000_000_000
    ev_dir = "/tmp/stress_temporal_in"
    shutil.rmtree(ev_dir, ignore_errors=True)
    os.makedirs(ev_dir)

    @ray.remote
    def gen(path, lo, hi):
        import pyarrow.parquet as pq

        from rayjoin.functions.dedup import _mix64

        ids = np.arange(lo, hi, dtype=np.int64)
        u = ids.astype(np.uint64)
        users = (_mix64(u) % np.uint64(n_users)).astype(np.int64)
        ts = (base_us + (_mix64(u * np.uint64(31) + np.uint64(5))
                         % np.uint64(span_us)).astype(np.int64))
        t = pa.table({
            "event_id": pa.array(ids),
            "user_id": pa.array(users),
            "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        })
        pq.write_table(t, path, row_group_size=262_144)
        return t.num_rows

    shard = 1_048_576
    assert sum(ray.get([
        gen.remote(f"{ev_dir}/part-{i:04d}.parquet", lo, min(lo + shard, n))
        for i, lo in enumerate(range(0, n, shard))
    ])) == n

    results = {"stress": "temporal", "events": n, "users": n_users}
    hour_us = 3_600_000_000

    # --- band self-join: same user, second event within [0, 1h) ---
    ev = ray.data.read_parquet(ev_dir)
    t0 = time.time()
    pairs = band_join(
        ev, ev, key_col="user_id", lower_us=0, upper_us=hour_us,
        left_cols={"event_id": "a_id", "ts": "a_ts"},
        right_cols={"event_id": "b_id", "ts": "b_ts"},
    ).map_batches(
        lambda t: t.filter(pc.not_equal(t["a_id"], t["b_id"])),
        batch_format="pyarrow",
    )
    agg = pairs.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "ck": pa.array([int(
                (np.asarray(t["a_id"].combine_chunks(), dtype=np.int64) * 3
                 + np.asarray(t["b_id"].combine_chunks(), dtype=np.int64))
                .sum() % (1 << 61))], pa.int64()),
        }),
        batch_format="pyarrow",
    ).to_pandas()
    band_n, band_ck = int(agg["n"].sum()), int(agg["ck"].sum() % (1 << 61))
    results["band_sec"] = round(time.time() - t0, 1)
    results["band_pairs"] = band_n

    # --- as-of: even events attach latest strictly-earlier odd event ---
    left = ray.data.read_parquet(ev_dir).map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)),
        batch_format="pyarrow")
    right = ray.data.read_parquet(ev_dir).map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 1)),
        batch_format="pyarrow")
    t0 = time.time()
    aj = asof_join(
        left, right, key_col="user_id",
        left_cols={"event_id": "event_id"},
        right_cols={"event_id": "match_id"},
        right_tiebreak_col="event_id", strict=True,
    )
    agg2 = aj.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "m": pa.array([int(t["match_id"].null_count)], pa.int64()),
            "ck": pa.array([int(
                np.asarray(t["match_id"].combine_chunks().fill_null(-1),
                           dtype=np.int64).sum() % (1 << 61))], pa.int64()),
        }),
        batch_format="pyarrow",
    ).to_pandas()
    asof_n = int(agg2["n"].sum())
    asof_null = int(agg2["m"].sum())
    asof_ck = int(agg2["ck"].sum() % (1 << 61))
    results["asof_sec"] = round(time.time() - t0, 1)
    results["asof_rows"] = asof_n

    # --- DuckDB exact oracle on the same parquet ---
    t0 = time.time()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW ev AS SELECT * FROM '{ev_dir}/*.parquet'")
    dn, dck = con.execute(
        "SELECT COUNT(*), COALESCE(SUM((a.event_id*3 + b.event_id) % (1::BIGINT<<61)), 0) "
        "FROM ev a JOIN ev b ON a.user_id=b.user_id AND b.ts >= a.ts "
        "AND b.ts < a.ts + INTERVAL '60 minutes' AND a.event_id <> b.event_id"
    ).fetchone()
    an, anull, ack = con.execute("""
        SELECT COUNT(*), COUNT(*) - COUNT(m_id),
               COALESCE(SUM(COALESCE(m_id, -1) % (1::BIGINT<<61)), 0)
        FROM (
          SELECT a.event_id, b.event_id AS m_id
          FROM (SELECT * FROM ev WHERE event_id % 2 = 0) a
          LEFT JOIN (SELECT * FROM ev WHERE event_id % 2 = 1) b
            ON a.user_id = b.user_id AND b.ts < a.ts
          QUALIFY row_number() OVER (
            PARTITION BY a.event_id ORDER BY b.ts DESC, b.event_id DESC) = 1
        )""").fetchone()
    con.close()
    results["oracle_sec"] = round(time.time() - t0, 1)
    results["band_match"] = bool(band_n == dn and band_ck == int(dck) % (1 << 61))
    results["asof_match"] = bool(
        asof_n == an and asof_null == anull and asof_ck == int(ack) % (1 << 61)
    )
    results["events_per_sec"] = round(n / (results["band_sec"] + results["asof_sec"]))
    return results


def stress_pillbox(n: int = 120_000) -> dict:
    """Dense polygon-polygon self-join (the DRAM-bound kernel workload of
    BASELINE.md): n pill-boxes in the reference's 5000x2000 plane,
    broadcast STR index + Intersects probe."""
    import ray.data

    from rayjoin.config import Interaction
    from rayjoin.fixtures import pillboxes_table
    from rayjoin.join.broadcast import SpatialIndex

    pb = pillboxes_table(n, seed=42)
    idx = SpatialIndex(pb, batch_size=1024)
    big = ray.data.from_arrow(pb).repartition(64).materialize()
    best, rows = float("inf"), 0
    for _ in range(2):
        t0 = time.time()
        rows = idx.spatial_join(big, Interaction.INTERSECTS).count()
        best = min(best, time.time() - t0)
    return {"stress": "pillbox", "n": n, "joined_rows": rows,
            "sec": round(best, 1), "joined_rows_per_sec": round(rows / best),
            "polys_per_sec": round(n / best)}


def stress_hh(n_docs: int = 500_000, doc_len: int = 100,
              vocab: int = 2_000_000) -> dict:
    """heavy_hitters at scale: 50M Zipf tokens over a 2M vocabulary,
    phi=1/10000 (~700 true heavy hitters).  Ground truth is EXACT (the
    generated token-id array is bincounted on the driver before
    stringification); the operator must reproduce every heavy token with
    its exact count while shuffling only MG summaries + candidates —
    never a 2M-key full-vocabulary groupby."""
    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.sketch import heavy_hitters

    rng = np.random.default_rng(7)
    w = 1.0 / np.arange(1, vocab + 1)
    p = w / w.sum()
    ids = rng.choice(vocab, size=n_docs * doc_len, p=p)
    counts = np.bincount(ids, minlength=vocab).astype(np.int64)
    n = ids.size
    phi_num, phi_den = 1, 10_000
    hh = np.flatnonzero(counts * phi_den >= n * phi_num)
    exp = {f"t{i}": int(counts[i]) for i in hh}
    toks = pc.binary_join_element_wise("t", pc.cast(pa.array(ids), pa.string()), "")
    offs = pa.array(np.arange(0, n + 1, doc_len, dtype=np.int64))
    texts = pc.binary_join(pa.LargeListArray.from_arrays(offs, toks), " ")
    ds = ray.data.from_arrow(pa.table({"text": texts})).repartition(64).materialize()
    t0 = time.time()
    out = heavy_hitters(ds, phi_num=phi_num, phi_den=phi_den).to_pandas()
    dt = time.time() - t0
    got = dict(zip(out.token, out.cnt))
    assert got == exp, (len(got), len(exp))
    return {"stress": "hh", "tokens": int(n), "vocab": vocab,
            "heavy_hitters": len(exp), "all_exact": got == exp,
            "sec": round(dt, 1), "tokens_per_sec": round(n / dt)}


def stress_simjoin_bigdf() -> dict:
    """VERDICT r4 #2 done-criterion: the exact similarity join on a corpus
    whose DISTINCT SHINGLE count exceeds the old 20M broadcast cap (which
    raised NotImplementedError) must complete and recover every planted
    twin.  Mixed-case letters (53-symbol alphabet, 53^5 ~ 418M shingle
    space) at 100k docs give ~75M distinct shingles, of which only the
    df>=2 slice (~8M) is ever broadcast now.  A second pass forces the
    TIERED df path (df_broadcast_rows=200k -> tau-histogram head + emit-all
    unknown tail) and must produce the identical pair set."""
    import warnings

    import pyarrow.compute as pc

    import ray.data

    from rayjoin.functions.dedup import similarity_join_shingles

    rng = np.random.default_rng(9)
    n = 100_000
    lens = rng.integers(500, 1200, size=n)
    total = int(lens.sum())
    chars = np.where(rng.random(total) < 0.5,
                     rng.integers(97, 123, size=total),
                     rng.integers(65, 91, size=total)).astype(np.uint8)
    chars[rng.random(total) < 0.15] = 32
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    texts = pa.Array.from_buffers(
        pa.large_string(), n, [None, pa.py_buffer(offsets.tobytes()),
                               pa.py_buffer(chars.tobytes())])
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": texts})
    base_ids = np.arange(1000, dtype=np.int64)
    tweaked = pc.cast(pc.binary_join_element_wise(
        pc.cast(texts.take(pa.array(base_ids)), pa.string()), " zzz", ""),
        pa.large_string())
    planted = pa.table({"doc_id": pa.array(base_ids + 10_000_000), "text": tweaked})
    ds = ray.data.from_arrow(pa.concat_tables([t, planted])
                             ).repartition(64).materialize()

    # exact distinct-shingle count (what the old cap compared against):
    # per-batch unique -> blobbed bucket merge, counting WITHOUT df>=2
    from rayjoin.functions.dedup import _mix64, _segment_unique, _shingle_hashes

    def batch_distinct(tb: pa.Table) -> pa.Table:
        h, off = _shingle_hashes(tb["text"], 5)
        h = _mix64(h)
        uh, _, _ = _segment_unique(h, off)
        u = np.unique(uh)
        return pa.table({"bucket": pa.array(u.view(np.int64) % 64, pa.int64()),
                         "h": pa.array(u.view(np.int64), pa.int64())})

    def bucket_distinct(tb: pa.Table) -> pa.Table:
        u = np.unique(np.asarray(tb["h"].combine_chunks(), np.int64))
        return pa.table({"n": pa.array([u.size], pa.int64())})

    distinct = int(ds.map_batches(batch_distinct, batch_format="pyarrow")
                   .groupby("bucket").map_groups(bucket_distinct, batch_format="pyarrow")
                   .sum("n"))
    assert distinct > 20_000_000, distinct  # the corpus the old cap refused

    t0 = time.time()
    pairs = similarity_join_shingles(ds, threshold=0.8).to_pandas()
    dt = time.time() - t0
    rec = int(((pairs["id_b"] - pairs["id_a"]) == 10_000_000).sum())
    assert rec == 1000 and len(pairs) == 1000, (rec, len(pairs))

    # forced TIERED path: cap far below the df>=2 table size
    t1 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pairs2 = similarity_join_shingles(
            ds, threshold=0.8, df_broadcast_rows=200_000).to_pandas()
    dt2 = time.time() - t1
    same = sorted(map(tuple, pairs[["id_a", "id_b"]].to_numpy().tolist())) == \
        sorted(map(tuple, pairs2[["id_a", "id_b"]].to_numpy().tolist()))
    assert same, "tiered df path diverged from the full-broadcast path"
    return {"stress": "simjoin_bigdf", "docs": 101_000,
            "distinct_shingles": distinct, "pairs": len(pairs),
            "planted_recovered": rec, "sec": round(dt, 1),
            "docs_per_sec": round(101_000 / dt), "tiered_sec": round(dt2, 1),
            "tiered_identical": bool(same)}


def stress_dbscan(n: int = 1_000_000) -> dict:
    """Clustered planet: n points over a 400x200 attractor grid (~12.5
    points each at n=1M) with a +-0.02-degree jitter; eps spans the jitter
    box so each attractor forms one dense cluster.  Edge volume ~= n *
    points-per-cluster; the pair graph exceeds the dup_clusters driver cap,
    certifying the DISTRIBUTED pointer-doubling components path at scale."""
    import pyarrow.compute as pc
    import ray.data

    from rayjoin.functions.cluster import dbscan
    from rayjoin.geom.encode import points_geom

    k = np.arange(n, dtype=np.int64)
    x = (k % 400).astype(np.float64) * 0.9 - 180.0 + \
        ((k * 2654435761) % 40000) / 1_000_000.0
    y = ((k // 400) % 200).astype(np.float64) * 0.9 - 90.0 + \
        ((k * 40503) % 40000) / 1_000_000.0
    # 10% scattered singles exercise the noise/border paths at scale
    ks = np.arange(n // 10, dtype=np.int64) + 100_000_000
    xs = ((ks * 2654435761) % 360_000_000) / 1_000_000.0 - 180.0
    ys = ((ks * 40503) % 180_000_000) / 1_000_000.0 - 90.0
    k = np.concatenate([k, ks])
    x = np.concatenate([x, xs])
    y = np.concatenate([y, ys])
    n = k.size
    pts = ray.data.from_arrow(points_geom(k, x, y)).repartition(64).materialize()
    t0 = time.time()
    res = dbscan(pts, eps=0.06, min_pts=4)
    agg = res.map_batches(
        lambda t: pa.table({
            "core": [int(pc.sum(pc.cast(t["is_core"], pa.int64())).as_py() or 0)],
            "noise": [int(pc.sum(pc.cast(pc.equal(t["cluster_id"], -1), pa.int64())).as_py() or 0)],
            "rows": [t.num_rows],
        }), batch_format="pyarrow").to_pandas().sum()
    dt = time.time() - t0
    assert int(agg["rows"]) == n, (int(agg["rows"]), n)
    return {"stress": "dbscan", "points": n, "sec": round(dt, 1),
            "points_per_sec": round(n / dt), "core": int(agg["core"]),
            "noise": int(agg["noise"])}


def stress_geodesic(n: int = 5_000_000, ns: int = 200_000) -> dict:
    """Great-circle proximity join and kNN join: n streamed bigs vs ns
    indexed smalls, pairs within 50 km and each big's 4 nearest smalls on
    the sphere (polar rows and the antimeridian seam included by
    construction of key_to_latlon)."""
    import ray.data

    from rayjoin.geom.encode import points_geom
    from rayjoin.join.geodesic import geodesic_knn_join, geodesic_proximity_map
    from rayjoin.stages.geocode import key_to_latlon

    kb = np.arange(n, dtype=np.int64)
    lat_b, lon_b = key_to_latlon(kb)
    ks = np.arange(ns, dtype=np.int64) + 10_000_000
    lat_s, lon_s = key_to_latlon(ks)
    big = ray.data.from_arrow(points_geom(kb, lon_b, lat_b)).repartition(64).materialize()
    small = ray.data.from_arrow(points_geom(ks, lon_s, lat_s)).repartition(8).materialize()
    t0 = time.time()
    pairs = geodesic_proximity_map(big, small, max_meters=50_000.0).count()
    dt = time.time() - t0
    t0 = time.time()
    knn_rows = geodesic_knn_join(big, small, k=4).count()
    knn_dt = time.time() - t0
    assert knn_rows == 4 * n, (knn_rows, n)
    return {"stress": "geodesic", "bigs": n, "smalls": ns, "pairs": pairs,
            "sec": round(dt, 1), "bigs_per_sec": round(n / dt),
            "knn_rows": knn_rows, "knn_sec": round(knn_dt, 1)}


def stress_stream(n: int = 20_000_000) -> dict:
    """Round-5 event-stream operators at scale with an EXACT DuckDB oracle:
    a Ray-task-sharded synthetic log (pure function of event id) runs
    through resample_locf (hourly LOCF grid), transition_counts (Markov
    pairs) and cohort_retention (hourly cohort matrix); DuckDB computes
    each twin on the same parquet and every value must match exactly
    (full-table compare for the two small outputs, count+sum checksums for
    the multi-million-row LOCF grid)."""
    import os
    import shutil
    import time

    import duckdb
    import ray
    import ray.data

    from rayjoin.functions.stream import (cohort_retention, resample_locf,
                                          transition_counts)

    n_users = max(1, n // 50)
    span_us = 30 * 86_400 * 1_000_000
    base_us = 1_704_067_200_000_000
    hour_us = 3_600_000_000
    ev_dir = "/tmp/stress_stream_in"
    shutil.rmtree(ev_dir, ignore_errors=True)
    os.makedirs(ev_dir)

    @ray.remote
    def gen(path, lo, hi):
        import pyarrow.parquet as pq

        from rayjoin.functions.dedup import _mix64

        ids = np.arange(lo, hi, dtype=np.int64)
        u = ids.astype(np.uint64)
        users = (_mix64(u) % np.uint64(n_users)).astype(np.int64)
        ts = (base_us + (_mix64(u * np.uint64(31) + np.uint64(5))
                         % np.uint64(span_us)).astype(np.int64))
        et = np.array(["view", "click", "buy", "share"])[
            (_mix64(u + np.uint64(99)) % np.uint64(4)).astype(np.int64)]
        vm = ((_mix64(u + np.uint64(7)) % np.uint64(2_000_000))
              .astype(np.int64) - 1_000_000)
        t = pa.table({
            "event_id": pa.array(ids),
            "user_id": pa.array(users),
            "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
            "event_type": pa.array(et.tolist(), pa.string()),
            "value": pa.array(vm.astype(np.float64) / 1000.0),
        })
        pq.write_table(t, path, row_group_size=262_144)
        return t.num_rows

    shard = 1_048_576
    assert sum(ray.get([
        gen.remote(f"{ev_dir}/part-{i:04d}.parquet", lo, min(lo + shard, n))
        for i, lo in enumerate(range(0, n, shard))
    ])) == n
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{ev_dir}/*.parquet'")
    results = {"stress": "stream", "events": n, "users": n_users}

    import pyarrow.compute as pc

    def load():
        return ray.data.read_parquet(ev_dir)

    # 1) resample_locf: engine grid vs twin, compared by count + checksums
    t0 = time.time()
    grid = resample_locf(load(), anchor_us=base_us, bucket_us=hour_us)
    agg = grid.map_batches(
        lambda t: pa.table({
            "rows": pa.array([t.num_rows], pa.int64()),
            "svm": pa.array([pc.sum(t["vm"]).as_py() or 0], pa.int64()),
            "sfill": pa.array([pc.sum(t["filled"]).as_py() or 0], pa.int64()),
            "sb": pa.array([pc.sum(pc.multiply(t["bucket"],
                                               t["user_id"])).as_py()
                            or 0], pa.int64()),
        }), batch_format="pyarrow").to_pandas().sum()
    results["locf_sec"] = round(time.time() - t0, 1)
    oracle = con.execute(f"""
WITH e AS (SELECT user_id, (epoch_us(ts) - {base_us}) // {hour_us} AS b,
                  ts, event_id, CAST(FLOOR(value * 1000.0) AS BIGINT) AS vm
           FROM events),
lastv AS (SELECT user_id, b, vm FROM (
    SELECT user_id, b, vm, ROW_NUMBER() OVER (
      PARTITION BY user_id, b ORDER BY ts DESC, event_id DESC) AS rn
    FROM e) WHERE rn = 1),
span AS (SELECT user_id, MIN(b) AS b0, MAX(b) AS b1 FROM e GROUP BY user_id),
grid AS (SELECT user_id, unnest(generate_series(b0, b1)) AS b FROM span),
f AS (SELECT g.user_id, g.b, l.vm AS ov
      FROM grid g LEFT JOIN lastv l ON l.user_id = g.user_id AND l.b = g.b),
w AS (SELECT user_id, b, ov,
             last_value(ov IGNORE NULLS) OVER (
               PARTITION BY user_id ORDER BY b ROWS UNBOUNDED PRECEDING) AS vm
      FROM f)
SELECT COUNT(*), SUM(vm), SUM(CASE WHEN ov IS NULL THEN 1 ELSE 0 END),
       SUM(b * user_id)
FROM w
""").fetchone()
    assert int(agg["rows"]) == int(oracle[0]), (agg, oracle)
    assert int(agg["svm"]) == int(oracle[1])
    assert int(agg["sfill"]) == int(oracle[2])
    assert int(agg["sb"]) == int(oracle[3])
    results["locf_rows"] = int(agg["rows"])
    results["locf_filled"] = int(agg["sfill"])

    # 2) transition_counts: full-table exact compare
    t0 = time.time()
    tc = transition_counts(load()).to_pandas()
    results["transition_sec"] = round(time.time() - t0, 1)
    want = dict(((a, b), int(c)) for a, b, c in con.execute("""
WITH o AS (SELECT user_id, event_type, LEAD(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS nxt FROM events)
SELECT event_type, nxt, COUNT(*) FROM o WHERE nxt IS NOT NULL GROUP BY 1, 2
""").fetchall())
    got = {(r.from_type, r.to_type): int(r.n) for r in tc.itertuples()}
    assert got == want
    results["transition_cells"] = len(got)

    # 3) cohort_retention: full-table exact compare
    t0 = time.time()
    cr = cohort_retention(load(), anchor_us=base_us,
                          bucket_us=hour_us).to_pandas()
    results["cohort_sec"] = round(time.time() - t0, 1)
    want = dict(((int(a), int(b)), int(c)) for a, b, c in con.execute(f"""
WITH pw AS (SELECT DISTINCT user_id,
        (epoch_us(ts) - {base_us}) // {hour_us} AS b FROM events),
coh AS (SELECT user_id, MIN(b) AS cohort FROM pw GROUP BY user_id)
SELECT c.cohort, p.b - c.cohort, COUNT(*)
FROM pw p JOIN coh c USING (user_id) GROUP BY 1, 2
""").fetchall())
    got = {(int(r.cohort), int(r.delta)): int(r.n_users)
           for r in cr.itertuples()}
    assert got == want
    results["cohort_cells"] = len(got)

    # 4) running_sum: segmented prefix scan, checksum-exact vs window SQL
    from rayjoin.functions.stream import running_sum

    t0 = time.time()
    rs = running_sum(load())
    agg = rs.map_batches(
        lambda t: pa.table({
            "rows": pa.array([t.num_rows], pa.int64()),
            "svm": pa.array([pc.sum(t["vm"]).as_py() or 0], pa.int64()),
            "srun": pa.array([pc.sum(t["run_vm"]).as_py() or 0], pa.int64()),
            "sxe": pa.array([pc.sum(pc.multiply(t["run_vm"],
                                                t["event_id"])).as_py()
                             or 0], pa.int64()),
        }), batch_format="pyarrow").to_pandas().sum()
    results["running_sum_sec"] = round(time.time() - t0, 1)
    oracle = con.execute("""
WITH w AS (SELECT event_id,
        CAST(FLOOR(value * 1000.0) AS BIGINT) AS vm,
        CAST(SUM(CAST(FLOOR(value * 1000.0) AS BIGINT)) OVER (
          PARTITION BY user_id ORDER BY ts, event_id
          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS run_vm
      FROM events)
SELECT COUNT(*), SUM(vm), SUM(run_vm), SUM(run_vm * event_id) FROM w
""").fetchone()
    assert int(agg["rows"]) == int(oracle[0])
    assert int(agg["svm"]) == int(oracle[1])
    assert int(agg["srun"]) == int(oracle[2])
    assert int(agg["sxe"]) == int(oracle[3])

    # 5) event_paths: ListArray+binary_join concat, length checksums
    from rayjoin.functions.stream import event_paths

    t0 = time.time()
    ep = event_paths(load())
    agg = ep.map_batches(
        lambda t: pa.table({
            "rows": pa.array([t.num_rows], pa.int64()),
            "sn": pa.array([pc.sum(t["n_events"]).as_py() or 0], pa.int64()),
            "slen": pa.array([pc.sum(pc.utf8_length(t["path"])).as_py()
                              or 0], pa.int64()),
        }), batch_format="pyarrow").to_pandas().sum()
    results["event_paths_sec"] = round(time.time() - t0, 1)
    oracle = con.execute("""
WITH p AS (SELECT user_id, COUNT(*) AS n,
        string_agg(event_type, '>' ORDER BY ts, event_id) AS path
      FROM events GROUP BY user_id)
SELECT COUNT(*), SUM(n), SUM(length(path)) FROM p
""").fetchone()
    assert int(agg["rows"]) == int(oracle[0])
    assert int(agg["sn"]) == int(oracle[1])
    assert int(agg["slen"]) == int(oracle[2])

    shutil.rmtree(ev_dir, ignore_errors=True)
    return results




def stress_sweep(n: int = 2_000_000) -> dict:
    """Round-5 sweep operators at scale with EXACT DuckDB oracles:
    interval_join (1-D PBSM overlap join) pair-count + id checksums vs
    DuckDB's range join, and union_area_rects (strip-parallel dissolve)
    vs the slab-decomposition SQL on a crowded integer domain, plus a
    strip-width self-consistency pass (strips 251 vs 65536 must agree
    bit-exactly — different clipping, same areas)."""
    import time

    import duckdb
    import ray
    import ray.data

    from rayjoin.functions.dedup import _mix64
    from rayjoin.functions.spatial_stats import union_area_rects
    from rayjoin.functions.temporal import interval_join

    results = {"stress": "sweep", "n": n}
    con = duckdb.connect()

    # ---- interval_join: n/2 x n/2 variable-length intervals ----------
    half = n // 2
    span_us = 365 * 86_400 * 1_000_000

    def mk(seed):
        u = (np.arange(half, dtype=np.int64) + seed).astype(np.uint64)
        s = (_mix64(u) % np.uint64(span_us)).astype(np.int64)
        dur = (_mix64(u + np.uint64(7)) % np.uint64(60_000_000)
               ).astype(np.int64)  # 0..60s over a year: ~2 pairs/interval
        ids = np.arange(half, dtype=np.int64) + seed
        return pa.table({"id": pa.array(ids), "start_us": pa.array(s),
                         "end_us": pa.array(s + dur)})

    ta, tb = mk(0), mk(10_000_000)
    a = ray.data.from_arrow(ta).repartition(32)
    b = ray.data.from_arrow(tb).repartition(32)
    t0 = time.time()
    out = interval_join(a, b, cell_us=120_000_000)
    import pyarrow.compute as pc

    agg = out.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "sa": pa.array([pc.sum(t["id_a"]).as_py() or 0], pa.int64()),
            "sb": pa.array([pc.sum(t["id_b"]).as_py() or 0], pa.int64()),
        }), batch_format="pyarrow").to_pandas().sum()
    results["interval_sec"] = round(time.time() - t0, 1)
    con.register("ia", ta)
    con.register("ib", tb)
    want = con.execute(
        "SELECT COUNT(*), SUM(a.id), SUM(b.id) FROM ia a, ib b "
        "WHERE a.start_us <= b.end_us AND b.start_us <= a.end_us"
    ).fetchone()
    assert int(agg["n"]) == int(want[0]), (agg, want)
    assert int(agg["sa"]) == int(want[1]) and int(agg["sb"]) == int(want[2])
    results["interval_pairs"] = int(agg["n"])

    # ---- union_area_rects: n rects, 64 groups, crowded domain --------
    u = np.arange(n, dtype=np.int64).astype(np.uint64)
    g = (_mix64(u) % np.uint64(64)).astype(np.int64)
    x0 = (_mix64(u + np.uint64(3)) % np.uint64(1_000_000)).astype(np.int64)
    y0 = (_mix64(u + np.uint64(5)) % np.uint64(1_000_000)).astype(np.int64)
    w = (_mix64(u + np.uint64(9)) % np.uint64(3000)).astype(np.int64)
    h = (_mix64(u + np.uint64(11)) % np.uint64(3000)).astype(np.int64)
    tr = pa.table({"grp": pa.array(g), "x0": pa.array(x0),
                   "x1": pa.array(x0 + w), "y0": pa.array(y0),
                   "y1": pa.array(y0 + h)})
    ds = ray.data.from_arrow(tr).repartition(32)
    t0 = time.time()
    a1 = union_area_rects(ds, strip_w=65_536).to_pandas() \
        .sort_values("grp").reset_index(drop=True)
    results["union_sec"] = round(time.time() - t0, 1)
    a2 = union_area_rects(ds, strip_w=251).to_pandas() \
        .sort_values("grp").reset_index(drop=True)
    assert a1.astype("int64").equals(a2.astype("int64"))
    # DuckDB slab oracle on a subsample (full slab SQL is O(edges x rects)
    # per group — exact but quadratic; 200k rows keeps it honest + fast)
    sub = min(n, 200_000)
    con.register("r0", tr.slice(0, sub))
    want = dict(con.execute("""
WITH r AS (SELECT * FROM r0 WHERE x1 > x0),
xs AS (SELECT DISTINCT grp, x0 AS x FROM r
       UNION SELECT DISTINCT grp, x1 FROM r),
sl AS (SELECT grp, x AS xa, LEAD(x) OVER (PARTITION BY grp ORDER BY x) AS xb
       FROM xs),
cov AS (SELECT s.grp, s.xa, s.xb, r.y0, r.y1
        FROM sl s JOIN r ON r.grp = s.grp AND r.x0 <= s.xa AND r.x1 >= s.xb
        WHERE s.xb IS NOT NULL),
mk AS (SELECT grp, xa, xb, y0, y1,
              CASE WHEN y0 > COALESCE(MAX(y1) OVER (
                     PARTITION BY grp, xa ORDER BY y0, y1
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                   -4611686018427387904) THEN 1 ELSE 0 END AS brk FROM cov),
isl AS (SELECT grp, xa, xb, y0, y1,
               SUM(brk) OVER (PARTITION BY grp, xa ORDER BY y0, y1
                              ROWS UNBOUNDED PRECEDING) AS iid FROM mk),
per AS (SELECT grp, xa, xb, iid, MAX(y1) - MIN(y0) AS clen
        FROM isl GROUP BY grp, xa, xb, iid)
SELECT grp, CAST(SUM((xb - xa) * clen) AS BIGINT) FROM per GROUP BY grp
""").fetchall())
    gotsub = union_area_rects(
        ray.data.from_arrow(tr.slice(0, sub)).repartition(8),
        strip_w=4096).to_pandas()
    got = dict(zip(gotsub["grp"].astype(int), gotsub["area"].astype(int)))
    assert got == {int(k): int(v) for k, v in want.items()}
    results["union_groups"] = len(a1)
    results["union_total_area"] = int(a1["area"].sum())
    return results


def stress_annrecall(n: int = 2_000_000) -> dict:
    """ANN quality at scale: recall@10 of the IVF path vs the EXACT
    brute-force top-10 (the oracle-checked `ann_cosine` kernel) on 2M
    64-dim mixture-of-Gaussians vectors, 5,000 held-out queries (``nq``), across an
    nprobe sweep — the measured accuracy/cost curve for the one genuinely
    approximate operator family (VERDICT: `ann_ivf` is intentionally
    non-hash-checked; this pins its quality instead)."""
    import ray.data

    from rayjoin.functions.ann import ann_cosine_topk, ann_ivf_topk

    rng = np.random.default_rng(5)
    dim, n_centers, nq, k = 64, 512, 5000, 10
    centers = rng.standard_normal((n_centers, dim))
    which = rng.integers(0, n_centers, n)
    M = (centers[which] + 0.3 * rng.standard_normal((n, dim))).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, M.size + 1, dim, dtype=np.int32)),
        pa.array(M.ravel(), pa.float32()))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids), "embedding": emb})).repartition(64).materialize()
    # hard queries: a MIXTURE of two centers plus noise, so each query's
    # true neighbors straddle at least two Voronoi cells (single-center
    # queries scored recall 1.0 even at nprobe=1 — no curve to measure)
    qa = rng.integers(0, n_centers, nq)
    qb = rng.integers(0, n_centers, nq)
    Q = (0.5 * centers[qa] + 0.5 * centers[qb]
         + 0.3 * rng.standard_normal((nq, dim)))
    qids = np.arange(nq, dtype=np.int64)

    t0 = time.time()
    exact = ann_cosine_topk(ds, Q, qids, k=k).to_pandas()
    t_exact = time.time() - t0
    truth = exact.groupby("query_id")["vec_id"].apply(set).to_dict()

    out = {"stress": "annrecall", "vectors": n, "queries": nq, "k": k,
           "exact_sec": round(t_exact, 1)}
    for nprobe in (1, 4, 16):
        t0 = time.time()
        approx = ann_ivf_topk(ds, Q, qids, k=k, n_lists=256,
                              nprobe=nprobe, sample_size=65536).to_pandas()
        dt = time.time() - t0
        got = approx.groupby("query_id")["vec_id"].apply(set).to_dict()
        hits = sum(len(truth[q] & got.get(q, set())) for q in truth)
        out[f"recall_at_{k}_nprobe{nprobe}"] = round(
            hits / (k * len(truth)), 4)
        out[f"sec_nprobe{nprobe}"] = round(dt, 1)
    return out


def stress_linedensity(n: int = 2_000_000) -> dict:
    """Line-density raster at n 4-vertex polylines on a 1024x1024 grid:
    each road spans ~2 degrees (a handful of candidate tiles per segment),
    certifying the bbox-pruned candidate expansion + per-batch partial
    sums at web scale.  Wide step: ONE groupby(tile_id) over partials."""
    import ray.data

    from rayjoin.geom.encode import LINESTRING, _geom_table, pack_single_rings
    from rayjoin.pipelines.raster import line_density

    k = np.arange(n, dtype=np.int64)
    bx = ((k * 2654435761) % 356_000_000) / 1_000_000.0 - 178.0
    by = ((k * 40503) % 176_000_000) / 1_000_000.0 - 88.0
    flat = np.empty((n, 8), np.float64)
    for j in range(4):
        flat[:, 2 * j] = bx + ((k * (7 + j)) % 2000) / 1000.0
        flat[:, 2 * j + 1] = by + ((k * (13 + j)) % 2000) / 1000.0
    lines = ray.data.from_arrow(
        _geom_table(k, LINESTRING, pack_single_rings(flat.ravel(), 8))
    ).repartition(64).materialize()
    t0 = time.time()
    out = line_density(lines, resolution=10)
    agg = out.map_batches(
        lambda t: pa.table({"tiles": [t.num_rows],
                            "micro": [int(pa.compute.sum(t["density_micro"]).as_py() or 0)]}),
        batch_format="pyarrow").to_pandas().sum()
    dt = time.time() - t0
    return {"stress": "linedensity", "lines": n, "tiles": int(agg["tiles"]),
            "sec": round(dt, 1), "lines_per_sec": round(n / dt)}


def stress_sssp(n: int = 2_000_000) -> dict:
    """Weighted Bellman–Ford at 2M nodes x 8 out-edges (16M edges), 1%
    sources, 8 relaxation rounds — the broadcast-frontier tier (driver
    dist array bounded by the same node-cap contract as pagerank); the
    join tier is plan-parity pytest'd."""
    import ray.data

    from rayjoin.functions.graph import sssp_hops

    deg = 8
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    j = np.tile(np.arange(deg, dtype=np.int64), n)
    dst = (src * 2654435761 + j * 40503) % n
    w = 1 + (src * 31 + dst * 17) % 9
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64()),
        "w": pa.array(w, pa.int64())})).repartition(64).materialize()
    sources = np.arange(0, n, 100, dtype=np.int64)
    t0 = time.time()
    out = sssp_hops(edges, sources, n_nodes=n, max_rounds=8)
    agg = out.map_batches(
        lambda t: pa.table({
            "reached": [int(pa.compute.sum(
                pa.compute.cast(pa.compute.not_equal(t["dist"], -1),
                                pa.int64())).as_py() or 0)],
            "rows": [t.num_rows]}),
        batch_format="pyarrow").to_pandas().sum()
    dt = time.time() - t0
    assert int(agg["rows"]) == n
    m = src.size
    return {"stress": "sssp", "nodes": n, "edges": m,
            "reached": int(agg["reached"]), "sec": round(dt, 1),
            "edge_relax_per_sec": round(8 * m / dt)}


def stress_hausdorff(n: int = 1_000_000) -> dict:
    """Hausdorff similarity join at 1M 4-vertex tracks, ~4 tracks per
    blocking cell (~1.5M pairs): certifies the one-shuffle map_groups plan
    and the vectorized (pairs, nv, nv) tensor at scale."""
    import ray.data

    from rayjoin.functions.trajectory import hausdorff_pairs

    nv = 4
    k = np.arange(n, dtype=np.int64)
    cell = (k * 2654435761) % (n // 4)
    cols = {"track_id": pa.array(k, pa.int64()),
            "cell": pa.array(cell.astype(np.int64), pa.int64())}
    for j in range(nv):
        cols[f"x{j}"] = pa.array(((k * (7 + j)) % 360_000) / 1000.0 - 180.0)
        cols[f"y{j}"] = pa.array(((k * (13 + j)) % 160_000) / 1000.0 - 80.0)
    tracks = ray.data.from_arrow(pa.table(cols)).repartition(64).materialize()
    t0 = time.time()
    out = hausdorff_pairs(tracks, nv=nv)
    stats = out.map_batches(
        lambda t: pa.table({"pairs": [t.num_rows]}),
        batch_format="pyarrow").to_pandas().sum()
    dt = time.time() - t0
    return {"stress": "hausdorff", "tracks": n, "pairs": int(stats["pairs"]),
            "sec": round(dt, 1), "tracks_per_sec": round(n / dt)}


STRESSES = {"pbsm": stress_pbsm, "knn": stress_knn,
            "linedensity": stress_linedensity, "sssp": stress_sssp,
            "hausdorff": stress_hausdorff, "annrecall": stress_annrecall,
            "dbscan": stress_dbscan, "geodesic": stress_geodesic,
            "embedding": stress_embedding, "minhash": stress_minhash,
            "corpus": stress_corpus, "corpus_resume": stress_corpus_resume,
            "pillbox": stress_pillbox,
            "temporal": stress_temporal, "knnjoin": stress_knnjoin,
            "simdup": stress_simdup, "megadup": stress_megadup,
            "semdedup": stress_semdedup,
            "substr": stress_substr,
            "fuzzy": stress_fuzzy, "simjoin": stress_simjoin,
            "hh": stress_hh, "simjoin_bigdf": stress_simjoin_bigdf,
            "stream": stress_stream, "sweep": stress_sweep}


def main(argv=None):
    # the engine of this script's own checkout: the driver imports it from
    # sys.path, and Ray's workers, which do not inherit sys.path, from PYTHONPATH
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    ap = argparse.ArgumentParser()
    ap.add_argument("which", choices=list(STRESSES) + ["all"])
    ap.add_argument("--num-cpus", type=int, default=32)
    ap.add_argument("--n", type=int, default=None,
                    help="row-count override for embedding/corpus stresses")
    args = ap.parse_args(argv)

    if args.which == "all":
        # One fresh subprocess (and Ray session) per stress: the smaps_rollup
        # private-RSS peaks would otherwise be contaminated by heap pages
        # retained from earlier stresses in the same driver process.
        import subprocess

        failed = []
        for name in STRESSES:
            cmd = [sys.executable, __file__, name,
                   "--num-cpus", str(args.num_cpus)]
            if args.n:
                cmd += ["--n", str(args.n)]
            rc = subprocess.run(cmd, check=False).returncode
            if rc != 0:
                failed.append(name)
                print(f'{{"stress": "{name}", "failed": true, "rc": {rc}}}')
        if failed:
            sys.exit(f"stress failures: {failed}")
        return

    import ray

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    fn = STRESSES[args.which]
    kwargs = {"n": args.n} if args.n and args.which in (
        "embedding", "corpus", "corpus_resume", "pillbox", "temporal",
        "knnjoin", "dbscan", "geodesic", "semdedup", "stream",
        "sweep") else {}
    print(json.dumps(fn(**kwargs)))
    ray.shutdown()


if __name__ == "__main__":
    main()
