"""Text-analysis stages for training-data pipelines (engine scope beyond the
reference; graded as first-class components — see driver brief): token
counting, quality scoring, language-ID heuristics, document fingerprinting.

All stages are vectorized Arrow transforms; the SQL-oracle'd ones
(token_stats, lang_markers) use only expressions DuckDB can reproduce
EXACTLY (split counts, substring-occurrence counts, integer arithmetic).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import one_array

# occurrence-countable language markers (SQL: (len(t)-len(replace(t,m,'')))/len(m))
LANG_MARKERS = {
    "en": " the ",
    "de": " und ",
    "fr": " les ",
    "es": " los ",
    "pt": " uma ",
    "zh": "的",
}


def token_stats(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """n_chars + n_tokens (split on single space, DuckDB string_split parity)."""
    text = batch[text_col]
    n_chars = pc.utf8_length(text)
    n_tokens = pc.list_value_length(pc.split_pattern(text, pattern=" "))
    out = batch.drop_columns([text_col]) if text_col in batch.column_names else batch
    out = out.append_column("n_chars", pc.cast(n_chars, pa.int64()))
    return out.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))


def quality_score(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Integer-arithmetic quality features (exact SQL equivalents):
    mean_token_len_milli = 1000*(n_chars-(n_tokens-1)) // n_tokens,
    space_ratio_milli = 1000*n_spaces // n_chars."""
    text = batch[text_col]
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_tokens = pc.cast(pc.list_value_length(pc.split_pattern(text, pattern=" ")), pa.int64())
    nc = np.asarray(n_chars.combine_chunks() if isinstance(n_chars, pa.ChunkedArray) else n_chars)
    nt = np.asarray(n_tokens.combine_chunks() if isinstance(n_tokens, pa.ChunkedArray) else n_tokens)
    n_spaces = nt - 1
    mean_tok = 1000 * (nc - n_spaces) // np.maximum(nt, 1)
    space_ratio = 1000 * n_spaces // np.maximum(nc, 1)
    out = batch.drop_columns([text_col])
    out = out.append_column("n_chars", pa.array(nc, pa.int64()))
    out = out.append_column("n_tokens", pa.array(nt, pa.int64()))
    out = out.append_column("mean_token_len_milli", pa.array(mean_tok, pa.int64()))
    return out.append_column("space_ratio_milli", pa.array(space_ratio, pa.int64()))


def _count_occurrences(text: pa.ChunkedArray, marker: str) -> np.ndarray:
    """Non-overlapping?  No: DuckDB replace() removes ALL occurrences, so the
    count is (len - len(replace))/len(marker) — reproduce exactly via the
    same replace trick."""
    full = pc.utf8_length(text)
    removed = pc.utf8_length(pc.replace_substring(text, pattern=marker, replacement=""))
    diff = pc.subtract(pc.cast(full, pa.int64()), pc.cast(removed, pa.int64()))
    cnt = pc.divide(diff, len(marker))
    return np.asarray(cnt.combine_chunks() if isinstance(cnt, pa.ChunkedArray) else cnt)


class LangId:
    """Marker-occurrence language ID (stateful stage: marker table compiled
    once per actor).  guess = argmax marker count, ties -> first in the fixed
    language order, no markers -> 'und'."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langs = list(LANG_MARKERS.keys())
        self.markers = [LANG_MARKERS[l] for l in self.langs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        counts = np.stack([_count_occurrences(text, m) for m in self.markers])  # (L, n)
        best = counts.argmax(axis=0)  # first max wins (fixed order)
        total = counts.max(axis=0)
        guess = np.where(total > 0, np.array(self.langs, dtype=object)[best], "und")
        out = batch.drop_columns([self.text_col])
        for l, c in zip(self.langs, counts):
            out = out.append_column(f"n_{l}", pa.array(c, pa.int64()))
        return out.append_column("lang_guess", pa.array(guess.tolist(), pa.string()))


# BPE-ish pre-tokenizer: word / number / single punctuation runs.  Both
# Arrow and DuckDB evaluate RE2, so the SQL oracle reproduces the counts
# exactly (regexp_extract_all twin in pipelines/gate.py).
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def token_stats_regex(batch: pa.Table, *, text_col: str = "text",
                      pattern: str = BPE_TOKEN_RE) -> pa.Table:
    """Regex token counting (the driver brief's 'BPE-ish regex' variant):
    one vectorized RE2 pass per batch via pc.count_substring_regex."""
    text = batch[text_col]
    n = pc.count_substring_regex(text, pattern=pattern)
    out = batch.drop_columns([text_col])
    return out.append_column("n_regex_tokens", pc.cast(n, pa.int64()))


def repetition_stats(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Repetition-ratio quality signal: per doc, n_tokens, n_distinct
    (EXACT — dictionary codes, not hashes, so the DuckDB
    ``list_distinct(string_split(...))`` oracle matches bit-for-bit) and
    rep_milli = 1000*(n_tokens - n_distinct) // n_tokens.  One dictionary
    encode + one lexsort per batch, no per-row Python."""
    text = batch[text_col].combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    flat = toks.flatten()
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices, dtype=np.int64)
    doc = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    order = np.lexsort((codes, doc))
    d_s, c_s = doc[order], codes[order]
    new = np.concatenate(
        [[True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
    ) if d_s.size else np.empty(0, bool)
    n_distinct = np.bincount(d_s[new], minlength=lens.size) if d_s.size else \
        np.zeros(lens.size, np.int64)
    rep = 1000 * (lens - n_distinct) // np.maximum(lens, 1)
    out = batch.drop_columns([text_col])
    out = out.append_column("n_tokens", pa.array(lens, pa.int64()))
    out = out.append_column("n_distinct", pa.array(n_distinct, pa.int64()))
    return out.append_column("rep_milli", pa.array(rep, pa.int64()))


def token_entropy(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Shannon-entropy quality signal in FIXED POINT: per doc emits
    n_tokens, n_distinct and ent_num = sum_i c_i * floor(1e6 * ln(c_i))
    over the token multiplicities c_i.  Entropy in micro-nats is then
    ln(n) - ent_num/(1e6*n) (derivable downstream); the emitted sum is pure
    int64, so it is ORDER-FREE — any aggregation order, engine or SQL,
    yields the same bits.  ln goes through a math.log LUT over the unique
    multiplicities (scalar libm — the same shared-libm parity contract as
    tfidf; numpy's SIMD log is not bit-identical).  One dictionary encode +
    one lexsort per batch, doc-local, no shuffle."""
    import math

    text = batch[text_col].combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    flat = toks.flatten()
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices, dtype=np.int64)
    nb = lens.size
    doc = np.repeat(np.arange(nb, dtype=np.int64), lens)
    order = np.lexsort((codes, doc))
    d_s, c_s = doc[order], codes[order]
    run_first = np.concatenate(
        [[True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
    ) if d_s.size else np.empty(0, bool)
    run_starts = np.flatnonzero(run_first)
    run_len = np.diff(np.concatenate([run_starts, [d_s.size]]))
    run_doc = d_s[run_starts]
    uniq, inv = (np.unique(run_len, return_inverse=True)
                 if run_len.size else (np.empty(0, np.int64), np.empty(0, np.int64)))
    lut = np.array([math.floor(1_000_000 * math.log(c)) for c in uniq],
                   np.int64)
    terms = run_len * lut[inv] if run_len.size else np.empty(0, np.int64)
    ent = np.zeros(nb, np.int64)
    np.add.at(ent, run_doc, terms)
    nd = np.bincount(run_doc, minlength=nb) if run_doc.size else \
        np.zeros(nb, np.int64)
    out = batch.drop_columns([text_col])
    out = out.append_column("n_tokens", pa.array(lens, pa.int64()))
    out = out.append_column("n_distinct", pa.array(nd, pa.int64()))
    return out.append_column("ent_num", pa.array(ent, pa.int64()))


GOPHER_STOPWORDS = ("join", "hash", "row", "batch", "scan", "order",
                    "data", "filter")


def gopher_rules(batch: pa.Table, *, text_col: str = "text",
                 stopwords: tuple = GOPHER_STOPWORDS,
                 min_words: int = 50, max_words: int = 100_000,
                 mean_lo_milli: int = 3000, mean_hi_milli: int = 10_000,
                 top_word_max_milli: int = 200, dup_word_max_milli: int = 600,
                 min_stopwords: int = 2) -> pa.Table:
    """Gopher/RefinedWeb-style composite quality gate, integer-exact so the
    SQL twin hash-matches (Rae et al. 2021 'Scaling Language Models' app. A
    + RefinedWeb's repetition rules, adapted to exact arithmetic):

      R1 word count within [min_words, max_words]
      R2 mean word length within [mean_lo, mean_hi] (milli-chars)
      R3 top-word dominance: 1000*max_freq // n_tokens <= top_word_max
      R4 duplicate-word fraction: 1000*(n - n_distinct) // n <= dup_word_max
      R5 >= min_stopwords DISTINCT members of ``stopwords`` present

    keep = R1 & ... & R5.  Doc-local (each doc lives in one batch): one
    split + one dictionary encode + one lexsort per batch, NO shuffle, no
    per-row Python.  Emits the metrics alongside ``keep`` so downstream
    stages can re-threshold without recomputing."""
    text = batch[text_col].combine_chunks()
    n_chars = np.asarray(pc.cast(pc.utf8_length(text), pa.int64()))
    toks = pc.split_pattern(text, pattern=" ")
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    flat = toks.flatten()
    tok_len = np.asarray(pc.cast(pc.utf8_length(flat), pa.int64()))
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices, dtype=np.int64)
    nb = lens.size
    starts = np.concatenate([[0], np.cumsum(lens)])[:-1]
    max_tok = (np.maximum.reduceat(tok_len, starts)
               if tok_len.size else np.zeros(nb, np.int64))
    doc = np.repeat(np.arange(nb, dtype=np.int64), lens)
    order = np.lexsort((codes, doc))
    d_s, c_s = doc[order], codes[order]
    run_first = np.concatenate(
        [[True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
    ) if d_s.size else np.empty(0, bool)
    run_starts = np.flatnonzero(run_first)
    run_len = np.diff(np.concatenate([run_starts, [d_s.size]]))
    run_doc = d_s[run_starts]
    doc_first = np.concatenate(
        [[True], run_doc[1:] != run_doc[:-1]]
    ) if run_doc.size else np.empty(0, bool)
    doc_starts = np.flatnonzero(doc_first)
    n_distinct = np.diff(np.concatenate([doc_starts, [run_starts.size]]))
    maxc = (np.maximum.reduceat(run_len, doc_starts)
            if run_len.size else np.zeros(nb, np.int64))
    # stopword membership via dictionary codes (exact string equality)
    sw_mask = np.asarray(pc.is_in(
        enc.dictionary, value_set=pa.array(list(stopwords), pa.string())
    ).fill_null(False))
    run_is_sw = sw_mask[c_s[run_starts]] if run_starts.size else \
        np.empty(0, bool)
    n_sw = (np.add.reduceat(run_is_sw.astype(np.int64), doc_starts)
            if run_is_sw.size else np.zeros(nb, np.int64))
    nt = np.maximum(lens, 1)
    mean_milli = 1000 * (n_chars - (lens - 1)) // nt
    top_milli = 1000 * maxc // nt
    dup_milli = 1000 * (lens - n_distinct) // nt
    keep = ((lens >= min_words) & (lens <= max_words)
            & (mean_milli >= mean_lo_milli) & (mean_milli <= mean_hi_milli)
            & (top_milli <= top_word_max_milli)
            & (dup_milli <= dup_word_max_milli)
            & (n_sw >= min_stopwords))
    out = batch.drop_columns([text_col])
    for name, arr in (("n_tokens", lens), ("n_distinct", n_distinct),
                      ("max_token_len", max_tok),
                      ("mean_token_len_milli", mean_milli),
                      ("top_word_milli", top_milli),
                      ("dup_word_milli", dup_milli), ("n_stopwords", n_sw)):
        out = out.append_column(name, pa.array(arr, pa.int64()))
    return out.append_column("keep", pa.array(keep, pa.bool_()))


def vocab_partial_counts(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Per-batch partial token counts (the combiner half of the corpus
    vocabulary groupby: pre-aggregate inside map_batches so the shuffle
    moves one row per DISTINCT token per batch, not one per token)."""
    text = batch[text_col].combine_chunks()
    flat = pc.split_pattern(text, pattern=" ").flatten()
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices, dtype=np.int64)
    counts = np.bincount(codes, minlength=len(enc.dictionary))
    return pa.table(
        {"token": enc.dictionary,
         "n_partial": pa.array(counts, pa.int64())}
    )


def vocab_topk(ds, *, k: int = 50, text_col: str = "text"):
    """Corpus-wide top-k tokens by frequency, ties broken by token text
    ascending (deterministic).  Partial counts per batch -> one groupby
    sum over distinct tokens -> bounded sort+limit."""
    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(
            lambda t: vocab_partial_counts(t, text_col=text_col),
            batch_format="pyarrow",
        )
        .groupby("token")
        .aggregate(Sum("n_partial", alias_name="n"))
    )
    return counts.sort(["n", "token"], descending=[True, False]).limit(k)


def token_hash_sets(batch: pa.Table, *, text_col: str = "text", n: int = 1):
    """Per-doc sorted-unique 64-bit hashes of whitespace-token n-grams
    (n=1: token set; n>1: rolling n-gram combine).  Returns (hashes list
    column, counts) ready for set-similarity joins."""
    from ..stages.geocode import fnv1a64
    from .dedup import _mix64, _segment_unique

    text = batch[text_col].combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    flat = toks.flatten() if hasattr(toks, "flatten") else pc.list_flatten(toks)
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    th = _mix64(fnv1a64(flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat))
    if n > 1:
        # rolling combine over token hashes within each doc; n-gram count
        # per doc = max(len - n + 1, 0)
        off = np.concatenate([[0], np.cumsum(lens)])
        counts = np.maximum(lens - n + 1, 0)
        with np.errstate(over="ignore"):
            h = np.zeros(max(th.size - n + 1, 0), dtype=np.uint64)
            for j in range(n):
                h = h * np.uint64(1099511628211) ^ th[j : th.size - n + 1 + j]
        from ..geom.primitives import repeat_expand

        gid, k = repeat_expand(counts)
        th = h[off[:-1][gid] + k] if h.size else np.empty(0, np.uint64)
        lens = counts
    doc_off = np.concatenate([[0], np.cumsum(lens)])
    uh, us, ucounts = _segment_unique(th, doc_off)
    uoff32 = (np.concatenate([[0], np.cumsum(ucounts)]) * 8).astype(np.int32)
    # encode each doc's sorted-unique hash set as a BINARY blob: hash-join
    # carry-through supports binary but not list columns (Acero), and the
    # decode back to uint64 is a zero-copy frombuffer
    blobs = pa.Array.from_buffers(
        pa.binary(), ucounts.size,
        [None, pa.py_buffer(uoff32.tobytes()), pa.py_buffer(uh.tobytes())],
    )
    return blobs, ucounts


def _binary_u64(col):
    """(flat uint64 values, per-row counts) from a binary hash-set column."""
    arr = one_array(col)
    n = len(arr)
    bufs = arr.buffers()
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=off_dtype, count=n + 1 + arr.offset)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint64) if bufs[2] is not None else np.empty(0, np.uint64)
    vals = data[off[0] // 8 : off[-1] // 8]
    lens = (off[1:] - off[:-1]) // 8
    return vals, lens


def jaccard_hash_lists(col_a, col_b) -> tuple:
    """(inter, union) int64 arrays for row-aligned binary hash-set columns
    (from ``token_hash_sets``; each row's set sorted unique).  One merged
    sort per batch (``rayjoin.util.intersection_counts``)."""
    from ..util import intersection_counts

    va, la = _binary_u64(col_a)
    vb, lb = _binary_u64(col_b)
    nrows = la.size
    inter = intersection_counts(
        va, np.repeat(np.arange(nrows, dtype=np.int64), la),
        vb, np.repeat(np.arange(nrows, dtype=np.int64), lb), nrows,
    )
    union = la + lb - inter
    return inter, union


def fingerprint(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """64-bit FNV-1a document fingerprint (rolling content hash)."""
    from ..stages.geocode import fnv1a64

    h = fnv1a64(batch[text_col])
    out = batch.drop_columns([text_col])
    return out.append_column("fingerprint", pa.array(h.astype(np.int64), pa.int64()))


def simhash64(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """SimHash over whitespace tokens: per-token FNV-1a hashes vote on 64
    bits.  Vectorized: tokens exploded via Arrow split, token hashes via
    fnv1a64, bit votes accumulated with bincount per (doc, bit)."""
    from ..stages.geocode import fnv1a64

    text = batch[text_col].combine_chunks()
    toks = pc.split_pattern(text, pattern=" ")
    flat = pc.list_flatten(toks)
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    th = fnv1a64(flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat)
    n = len(lens)
    # tokens are doc-contiguous -> ONE segmented reduction over a (T, 64)
    # +-1 bit matrix replaces 64 bincount passes (int sums: bit-identical
    # result; measured 2.5x).  Bit matrix via np.unpackbits over the
    # little-endian byte view (bit index = uint64 bit position on LE),
    # stored int8 (64 B/token), accumulated int32 via the reduceat dtype
    # arg (docs < 2^31 tokens).
    sim = np.zeros(n, dtype=np.uint64)
    if th.size:
        bits = np.unpackbits(
            th.view(np.uint8).reshape(th.size, 8), axis=1, bitorder="little"
        ).astype(np.int8) * 2 - 1
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        nonempty = lens > 0
        tally = np.add.reduceat(bits, starts[nonempty], axis=0, dtype=np.int32)
        sim_ne = np.zeros(int(nonempty.sum()), np.uint64)
        for bit in range(64):
            sim_ne |= (tally[:, bit] > 0).astype(np.uint64) << np.uint64(bit)
        sim[nonempty] = sim_ne
    out = batch.drop_columns([text_col])
    return out.append_column("simhash", pa.array(sim.astype(np.int64), pa.int64()))


def inverted_index(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Postings: Dataset[doc_id, token, tf] over whitespace tokens.

    Embarrassingly parallel — every document lives wholly inside one batch,
    so per-doc term frequencies need NO shuffle: one Arrow split +
    dictionary encode + one np.unique over packed (row, code) keys per
    batch.  (Corpus-wide stats like df are a downstream groupby over the
    postings, which are already one row per DISTINCT (doc, token).)"""

    def partial(t: pa.Table) -> pa.Table:
        text = t[text_col].combine_chunks()
        toks = pc.split_pattern(text, pattern=" ")
        flat = pc.list_flatten(toks)
        flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        row_of = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        enc = flat.dictionary_encode()
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        codes = np.asarray(enc.indices, dtype=np.int64)
        nd = len(enc.dictionary)
        key = row_of * nd + codes
        uniq, tf = np.unique(key, return_counts=True)
        return pa.table({
            id_col: pa.array(ids[uniq // nd], pa.int64()),
            "token": enc.dictionary.take(pa.array(uniq % nd)),
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
        })

    return ds.map_batches(partial, batch_format="pyarrow")


def tfidf(ds, *, n_docs: int, text_col: str = "text", id_col: str = "doc_id",
          broadcast_vocab_rows: int = 1_000_000):
    """TF-IDF scores per (doc, token): tf * ln(n_docs / df).

    df comes from ONE groupby over the postings (already distinct
    (doc, token) pairs).  When the vocabulary fits (<= broadcast_vocab_rows)
    the df table is ray.put once and joined by sorted-array lookup inside
    map_batches; a web-scale vocabulary falls back to a hash join.

    ln comes from CPython ``math.log`` (direct libm) over the DISTINCT df
    values only — numpy's vectorized log is 1 ulp off glibc/DuckDB on ~28%
    of inputs (measured), math.log is bit-identical.  The rest of the chain
    ((double)n / (int->double)df, int*double product) is exactly-rounded
    IEEE, so the SQL twin hash-matches bit-for-bit on a shared-libm box
    (same caveat as the s2 trig oracle)."""
    import math

    import ray
    from ray.data.aggregate import Count

    from .dedup import _num_join_partitions

    post = inverted_index(ds, text_col=text_col, id_col=id_col)
    df = post.groupby("token").aggregate(Count(alias_name="df"))

    def _idf_of(d: np.ndarray) -> np.ndarray:
        uniq, inv = np.unique(d, return_inverse=True)
        lut = np.array([math.log(n_docs / x) for x in uniq], np.float64)
        return lut[inv]

    df_mat = df.materialize()
    if df_mat.count() <= broadcast_vocab_rows:
        # empty shuffle blocks carry an EMPTY schema -> filter before concat
        # (block layout varies run to run: this was an intermittent
        # ArrowInvalid, caught by tools/determinism_sweep.py)
        tabs = [t for t in ray.get(df_mat.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(tabs) if tabs else pa.table(
            {"token": pa.array([], pa.string()), "df": pa.array([], pa.int64())})
        toks = tbl["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        order = np.argsort(toks)
        dfs = np.asarray(tbl["df"], dtype=np.int64)[order]
        ref = ray.put((toks[order], dfs, _idf_of(dfs)))

        def probe(t: pa.Table) -> pa.Table:
            tok_sorted, df_sorted, idf_sorted = ray.get(ref)
            tok = t["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
            pos = np.clip(np.searchsorted(tok_sorted, tok), 0, tok_sorted.size - 1)
            if not (tok_sorted[pos] == tok).all():
                raise KeyError("tfidf: token missing from df table")
            tf_ = np.asarray(t["tf"], dtype=np.int64)
            return t.append_column(
                "df", pa.array(df_sorted[pos], pa.int64())
            ).append_column(
                "tfidf", pa.array(tf_ * idf_sorted[pos], pa.float64()))

        return post.map_batches(probe, batch_format="pyarrow")

    j = post.join(df_mat, "inner", _num_join_partitions(), on=("token",))

    def score_joined(t: pa.Table) -> pa.Table:
        d = np.asarray(t["df"], dtype=np.int64)
        tf_ = np.asarray(t["tf"], dtype=np.int64)
        return t.append_column(
            "tfidf", pa.array(tf_ * _idf_of(d), pa.float64()))

    return j.map_batches(score_joined, batch_format="pyarrow")


def unigram_lm_scores(ds, *, text_col: str = "text", id_col: str = "doc_id",
                      broadcast_vocab_rows: int = 1_000_000):
    """Per-doc unigram language-model score — the classic corpus-level
    quality signal (CCNet/Wenzek et al. use a 5-gram LM; the unigram case
    is the exactly-checkable core): score(d) = sum over token occurrences
    of floor(1e6 * ln(cnt(token) / N)) as FIXED-POINT int64, so the sum is
    order-independent and the whole model-build + scoring pipeline
    gate-checks bit-exactly.  Returns Dataset[doc_id, n_tokens,
    logprob_micro] (more negative == more surprising under the corpus
    model).

    Scale shape: postings from ``inverted_index`` (zero shuffle), the
    unigram model from ONE groupby over already-distinct (doc, token)
    pairs, scores via broadcast sorted-vocab lookup under
    ``broadcast_vocab_rows`` (hash join beyond), one final groupby(doc).
    ln via math.log over DISTINCT counts only (libm-parity trick proven by
    tfidf: numpy's vectorized log is 1 ulp off on ~28% of inputs)."""
    import math

    import ray
    from ray.data.aggregate import Sum

    from .dedup import _num_join_partitions

    post = inverted_index(ds, text_col=text_col, id_col=id_col)
    vocab = post.groupby("token").aggregate(Sum("tf", alias_name="cnt")).materialize()
    n_total = vocab.sum("cnt")

    def _lp_of(cnt: np.ndarray) -> np.ndarray:
        uniq, inv = np.unique(cnt, return_inverse=True)
        nf = np.float64(n_total)
        lut = np.array(
            [np.floor(1_000_000 * math.log(np.float64(c) / nf)) for c in uniq],
            np.float64,
        ).astype(np.int64)
        return lut[inv]

    def _to_scores(t: pa.Table, lp: np.ndarray) -> pa.Table:
        tf_ = np.asarray(t["tf"].combine_chunks(), dtype=np.int64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        # per-batch partial: the final shuffle carries one row per touched doc
        uniq, inv = np.unique(ids, return_inverse=True)
        ntok = np.zeros(uniq.size, np.int64)
        lpsum = np.zeros(uniq.size, np.int64)
        np.add.at(ntok, inv, tf_)
        np.add.at(lpsum, inv, tf_ * lp)
        return pa.table({
            id_col: pa.array(uniq, pa.int64()),
            "ntok": pa.array(ntok, pa.int64()),
            "lpsum": pa.array(lpsum, pa.int64()),
        })

    if vocab.count() <= broadcast_vocab_rows:
        # filter empty-schema blocks (same intermittent concat trap as tfidf)
        tabs = [t for t in ray.get(vocab.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(tabs) if tabs else pa.table(
            {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
        toks = tbl["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        order = np.argsort(toks)
        cnts = np.asarray(tbl["cnt"], dtype=np.int64)[order]
        ref = ray.put((toks[order], _lp_of(cnts)))

        def probe(t: pa.Table) -> pa.Table:
            tok_sorted, lp_sorted = ray.get(ref)
            tok = t["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
            pos = np.clip(np.searchsorted(tok_sorted, tok), 0, tok_sorted.size - 1)
            if not (tok_sorted[pos] == tok).all():
                raise KeyError("unigram_lm_scores: token missing from vocab")
            return _to_scores(t, lp_sorted[pos])

        parts = post.map_batches(probe, batch_format="pyarrow")
    else:
        j = post.join(vocab, "inner", _num_join_partitions(), on=("token",))
        parts = j.map_batches(
            lambda t: _to_scores(t, _lp_of(np.asarray(t["cnt"].combine_chunks(),
                                                      dtype=np.int64))),
            batch_format="pyarrow",
        )

    return (
        parts.groupby(id_col)
        .aggregate(Sum("ntok", alias_name="n_tokens"),
                   Sum("lpsum", alias_name="logprob_micro"))
    )


def bm25_scores(ds, terms, *, text_col: str = "text", id_col: str = "doc_id",
                k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 scores for a fixed query-term set, in FIXED-POINT
    micro-units: each term's contribution is floor(1e6 * idf * tf*(k1+1) /
    (tf + k1*(1-b+b*dl/avgdl))) so the per-doc sum is an integer — order-
    independent and bit-exact against the SQL twin (ln via math.log per
    term, the tfidf libm-parity contract).

    Scale shape: postings once (zero shuffle), doc lengths from one
    groupby, the query-term postings filtered vectorized (terms are a
    bounded set), then ONE hash join (filtered postings x dl) and one
    final groupby(doc).  df/N/avgdl are driver scalars (terms are few;
    everything else stays distributed)."""
    import math

    import ray
    from ray.data.aggregate import Sum

    from .dedup import _num_join_partitions

    terms = sorted(set(terms))
    if not terms:
        raise ValueError("bm25_scores: need at least one query term")
    post = inverted_index(ds, text_col=text_col, id_col=id_col).materialize()
    dl = post.groupby(id_col).aggregate(Sum("tf", alias_name="dl")).materialize()
    n_docs = dl.count()
    total_tokens = dl.sum("dl")
    avgdl = np.float64(total_tokens) / np.float64(n_docs)

    term_arr = np.array(terms, object)

    def only_terms(t: pa.Table) -> pa.Table:
        tok = t["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        pos = np.clip(np.searchsorted(term_arr, tok), 0, term_arr.size - 1)
        return t.filter(pa.array(term_arr[pos] == tok))

    qpost = post.map_batches(only_terms, batch_format="pyarrow").materialize()

    # df per term: a bounded collect (len(terms) rows)
    from ray.data.aggregate import Count

    df_tabs = [t for t in ray.get(
        qpost.groupby("token").aggregate(Count(alias_name="df")).to_arrow_refs())
        if t.num_rows]
    dfs = {}
    for t in df_tabs:
        dfs.update(zip(t["token"].to_pylist(), t["df"].to_pylist()))
    idf = {
        t: math.log((np.float64(n_docs) - d + 0.5) / (d + 0.5) + 1.0)
        for t, d in dfs.items()
    }
    idf_arr = np.array([idf.get(t, 0.0) for t in terms], np.float64)

    j = qpost.join(dl, "inner", _num_join_partitions(), on=(id_col,))

    def score(t: pa.Table) -> pa.Table:
        tok = t["token"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        tf_ = np.asarray(t["tf"].combine_chunks(), dtype=np.float64)
        dl_ = np.asarray(t["dl"].combine_chunks(), dtype=np.float64)
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        tidf = idf_arr[np.searchsorted(term_arr, tok)]
        num = tf_ * (k1 + 1.0)
        den = tf_ + k1 * (1.0 - b + b * dl_ / avgdl)
        part = np.floor(1000000.0 * (tidf * num / den)).astype(np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        agg = np.zeros(uniq.size, np.int64)
        np.add.at(agg, inv, part)
        return pa.table({id_col: pa.array(uniq, pa.int64()),
                         "part": pa.array(agg, pa.int64())})

    return (
        j.map_batches(score, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("part", alias_name="bm25_micro"))
    )


def cooccurrence_counts(ds, *, text_col: str = "text", window: int = 2,
                        min_count: int = 1):
    """Ordered skip-gram co-occurrence counts: one row (tok_a, tok_b, cnt)
    per ordered token pair at distance 1..window inside a document — the
    exact pair statistics under word2vec/GloVe/PMI pipelines.

    Scale shape: each batch slices the flat token array against itself
    (window zero-copy offsets, a same-doc mask — no per-row Python) and
    PRE-AGGREGATES pairs Arrow-native, so the one groupby shuffle carries
    distinct-pairs-per-batch rows, not token occurrences; ``min_count``
    prunes the tail after the global sum."""
    import ray.data
    from ray.data.aggregate import Sum

    if window < 1:
        raise ValueError("window must be >= 1")

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"tok_a": pa.array([], pa.string()),
                          "tok_b": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        text = t[text_col].combine_chunks()
        toks = pc.split_pattern(text, pattern=" ")
        flat = pc.list_flatten(toks).cast(pa.string())
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        doc_of = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        parts = []
        for d in range(1, window + 1):
            if len(flat) <= d:
                break
            idx = np.flatnonzero(doc_of[d:] == doc_of[:-d])
            if idx.size == 0:
                continue
            parts.append(pa.table({
                "tok_a": flat.take(pa.array(idx, pa.int64())),
                "tok_b": flat.take(pa.array(idx + d, pa.int64())),
            }))
        if not parts:
            return empty
        g = pa.concat_tables(parts).group_by(["tok_a", "tok_b"]).aggregate(
            [([], "count_all")])
        return pa.table({"tok_a": g["tok_a"], "tok_b": g["tok_b"],
                         "cnt": g["count_all"].cast(pa.int64())})

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["tok_a", "tok_b"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    if min_count > 1:
        mc = int(min_count)

        def prune(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater_equal(t["cnt"], pa.scalar(mc, pa.int64())))

        out = out.map_batches(prune, batch_format="pyarrow")
    return out


def cooccurrence_pmi(ds, *, text_col: str = "text", window: int = 2,
                     min_count: int = 1,
                     broadcast_vocab_rows: int = 10_000_000):
    """Pointwise mutual information over the skip-gram pairs, in
    FIXED-POINT micro-nats: pmi_micro = floor(1e6 * ln((cnt*P) /
    (la*rb))) with P = total pair count, la/rb = the pair's left/right
    marginal sums — every term an exact int64 product, the quotient one
    IEEE division, ln via ``math.log`` (the libm-parity contract proven
    by tfidf/lm_score/bm25), so the whole statistic gate-checks
    bit-exactly.  Returns Dataset[tok_a, tok_b, cnt, pmi_micro].

    Scale shape: marginals are token-vocabulary-sized (two groupbys over
    the already-aggregated pair table), broadcast as sorted lookup
    arrays under ``broadcast_vocab_rows`` and gathered per batch; the
    pair table itself streams.  Raises beyond the broadcast bound (a
    join-based marginal attach is the escape hatch, as in tfidf)."""
    import math

    import ray
    from ray.data.aggregate import Sum

    pairs = cooccurrence_counts(
        ds, text_col=text_col, window=window, min_count=min_count).materialize()
    total = pairs.sum("cnt") or 0
    if total == 0:
        import ray.data

        return ray.data.from_arrow(pa.table({
            "tok_a": pa.array([], pa.string()), "tok_b": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()), "pmi_micro": pa.array([], pa.int64())}))

    def _marginal(key: str) -> tuple[np.ndarray, np.ndarray]:
        m = pairs.groupby(key).aggregate(Sum("cnt", alias_name="m"))
        if m.count() > broadcast_vocab_rows:
            raise ValueError(
                f"cooccurrence_pmi: {key} marginal exceeds "
                f"broadcast_vocab_rows={broadcast_vocab_rows}")
        mt = pa.concat_tables([t for t in ray.get(m.to_arrow_refs())
                               if t.num_rows])
        tok = mt[key].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        cnt = np.asarray(mt["m"].combine_chunks(), dtype=np.int64)
        order = np.argsort(tok)
        return tok[order], cnt[order]

    la_ref = ray.put(_marginal("tok_a"))
    rb_ref = ray.put(_marginal("tok_b"))

    def score(t: pa.Table) -> pa.Table:
        a_tok, a_cnt = ray.get(la_ref)
        b_tok, b_cnt = ray.get(rb_ref)
        ta = t["tok_a"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        tb = t["tok_b"].combine_chunks().to_numpy(zero_copy_only=False).astype(object)
        cnt = np.asarray(t["cnt"].combine_chunks(), dtype=np.int64)
        la = a_cnt[np.searchsorted(a_tok, ta)]
        rb = b_cnt[np.searchsorted(b_tok, tb)]
        ratio = (cnt * total).astype(np.float64) / (la * rb).astype(np.float64)
        uniq, inv = np.unique(ratio, return_inverse=True)
        lut = np.array([np.floor(1_000_000 * math.log(r)) for r in uniq],
                       np.float64).astype(np.int64)
        return t.append_column("pmi_micro", pa.array(lut[inv], pa.int64()))

    return pairs.map_batches(score, batch_format="pyarrow")


def bpe_pair_counts(ds, *, k: int = 64, text_col: str = "text"):
    """Adjacent CHARACTER-pair frequencies within whitespace tokens — the
    counting step of one BPE tokenizer-training merge round (Sennrich et
    al. 2016): the top pair is the next merge.  Tokenization matches
    vocab_topk (split on ' ', same as the twin's string_split), pairs are
    2-char substrings so the SQL twin's substr(tok, i, 2) agrees exactly.

    Per batch the token set is joined into ONE buffer with a NUL
    separator and decoded to UTF-32 code points; pair keys are the
    vectorized (hi<<21 | lo) over adjacent non-separator code points —
    zero Python per token.  Partial (key, count) tables take one
    groupby(key) shuffle; only the top-k result is stringified.  (A
    literal NUL inside a document would act as an extra token boundary;
    NUL never appears in text corpora.)

    Returns Dataset[pair, n] — top k by count desc, pair asc.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        text = t[text_col].combine_chunks()
        toks = pc.split_pattern(text, pattern=" ")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        lst = pa.ListArray.from_arrays(
            np.array([0, len(flat)], np.int32), flat)
        joined = pc.binary_join(lst, "\x00")[0].as_py() or ""
        cp = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
        if cp.size < 2:
            return pa.table({"key": pa.array([], pa.int64()),
                             "n_partial": pa.array([], pa.int64())})
        a, b = cp[:-1], cp[1:]
        live = (a != 0) & (b != 0)
        keys = ((a[live].astype(np.int64)) << 21) | b[live].astype(np.int64)
        uniq, counts = np.unique(keys, return_counts=True)
        return pa.table({"key": pa.array(uniq, pa.int64()),
                         "n_partial": pa.array(counts.astype(np.int64),
                                               pa.int64())})

    def stringify(t: pa.Table) -> pa.Table:
        key = np.asarray(t["key"].combine_chunks(), dtype=np.int64)
        pairs = [chr(int(x) >> 21) + chr(int(x) & ((1 << 21) - 1))
                 for x in key]  # top-k rows only, never the corpus
        return pa.table({"pair": pa.array(pairs, pa.string()),
                         "n": t["n"].combine_chunks()})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("key").aggregate(Sum("n_partial", alias_name="n")))
    # code points < 2^21 and UTF-8 order == code-point order, so sorting
    # the packed key ascending is exactly "pair" ascending in the twin
    return (counts.sort(["n", "key"], descending=[True, False]).limit(k)
            .map_batches(stringify, batch_format="pyarrow"))


def bigram_lm_scores(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     broadcast_model_rows: int = 1_000_000):
    """Per-doc BIGRAM language-model score with add-one (Laplace)
    smoothing — one modeling step up from ``unigram_lm_scores`` toward the
    CCNet 5-gram quality signal: for each adjacent whitespace-token pair
    (w1, w2), lp = floor(1e6 * ln((cnt2(w1,w2) + 1) / (cnt1(w1) + V)))
    where cnt1(w1) is the context count (bigrams starting with w1) and V
    the corpus vocabulary size; score(d) = int64 sum of lp over d's
    bigram occurrences.  Docs with < 2 tokens have no bigrams and no row
    (same in the twin).

    Scale shape: per-batch partial bigram counts (packed "w1\\x1fw2" key)
    -> ONE groupby over distinct bigrams; context counts roll up FROM the
    bigram model (cnt1 = sum of n2 over the w1 group — model-sized, never
    a second corpus pass); V from the distinct-token groupby; lp via
    math.log per DISTINCT (n2, n1) pair (the tfidf libm-parity contract);
    scoring via broadcast sorted-key lookup under
    ``broadcast_model_rows``, hash join beyond; one final groupby(doc).

    Returns Dataset[doc_id, n_bigrams, logprob_micro].
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    from .dedup import _num_join_partitions

    SEP = "\x1f"

    def _doc_bigrams(t: pa.Table):
        text = t[text_col].combine_chunks()
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        toks = pc.split_pattern(text, pattern=" ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) < 2:
            return None
        w1 = flat.slice(0, len(flat) - 1)
        w2 = flat.slice(1)
        key = pc.binary_join_element_wise(w1, w2, SEP)
        # mask the seam pairs that straddle two docs
        ends = np.cumsum(lens) - 1  # last-token index per doc
        valid = np.ones(len(flat) - 1, bool)
        valid[ends[ends < len(flat) - 1]] = False
        did = np.repeat(np.arange(ids.size, dtype=np.int64), lens)[:-1]
        return ids, key, w1, did, valid

    def pair_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"bkey": pa.array([], pa.string()),
                          "n_partial": pa.array([], pa.int64())})
        r = _doc_bigrams(t)
        if r is None:
            return empty
        _, key, w1, _, valid = r
        key = key.filter(pa.array(valid))
        if not len(key):
            return empty
        vc = key.value_counts()
        return pa.table({
            "bkey": vc.field("values"),
            "n_partial": vc.field("counts").cast(pa.int64()),
        })

    def rekey(t: pa.Table) -> pa.Table:
        # w1 of a packed key = bytes before the separator
        w1d = pc.split_pattern(t["bkey"].combine_chunks(), pattern=SEP,
                               max_splits=1)
        return pa.table({"bkey": t["bkey"].combine_chunks(),
                         "w1": pc.list_element(w1d, 0),
                         "n2": t["n2"].combine_chunks()})

    model2 = (ds.map_batches(pair_partial, batch_format="pyarrow")
              .groupby("bkey")
              .aggregate(Sum("n_partial", alias_name="n2"))
              .map_batches(rekey, batch_format="pyarrow")
              .materialize())
    model1 = (model2.groupby("w1")
              .aggregate(Sum("n2", alias_name="n1"))
              .materialize())

    def tok_partial(t: pa.Table) -> pa.Table:
        text = t[text_col].combine_chunks()
        flat = pc.list_flatten(pc.split_pattern(text, pattern=" "))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "_c": pa.repeat(pa.scalar(1, pa.int64()), len(vc))})

    vocab_size = (ds.map_batches(tok_partial, batch_format="pyarrow")
                  .groupby("token").aggregate(Sum("_c", alias_name="_c"))
                  .count())

    def _lp_of(n2: np.ndarray, n1: np.ndarray) -> np.ndarray:
        pair = np.stack([n2.astype(np.int64), n1.astype(np.int64)], axis=1)
        uniq, inv = np.unique(pair, axis=0, return_inverse=True)
        vv = np.float64(vocab_size)
        lut = np.array([
            np.floor(1_000_000 * math.log(
                np.float64(a + 1) / (np.float64(b) + vv)))
            for a, b in uniq], np.float64).astype(np.int64)
        return lut[inv]

    nparts = _num_join_partitions(model2, model1)
    model = model2.join(model1, "inner", nparts, on=("w1",)).materialize()

    def occ_rows(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "bkey": pa.array([], pa.string()),
                          "occ": pa.array([], pa.int64())})
        r = _doc_bigrams(t)
        if r is None:
            return empty
        ids, key, _, did, valid = r
        key = key.filter(pa.array(valid))
        did = did[valid]
        # per-batch partial: one row per (doc, bigram)
        tb = pa.table({"d": pa.array(ids[did], pa.int64()), "k": key})
        g = tb.group_by(["d", "k"]).aggregate([("d", "count")])
        return pa.table({id_col: g["d"], "bkey": g["k"],
                         "occ": g["d_count"].cast(pa.int64())})

    occ = ds.map_batches(occ_rows, batch_format="pyarrow")

    def _to_scores(t: pa.Table, lp: np.ndarray) -> pa.Table:
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        oc = np.asarray(t["occ"].combine_chunks(), dtype=np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        nbg = np.zeros(uniq.size, np.int64)
        lps = np.zeros(uniq.size, np.int64)
        np.add.at(nbg, inv, oc)
        np.add.at(lps, inv, oc * lp)
        return pa.table({id_col: pa.array(uniq, pa.int64()),
                         "nbg": pa.array(nbg, pa.int64()),
                         "lpsum": pa.array(lps, pa.int64())})

    if model.count() <= broadcast_model_rows:
        @ray.remote
        def prep(tabs):
            tabs = ray.get(list(tabs))
            t = pa.concat_tables([x for x in tabs if x.num_rows])
            keys = t["bkey"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(object)
            order = np.argsort(keys)
            n2 = np.asarray(t["n2"], dtype=np.int64)[order]
            n1 = np.asarray(t["n1"], dtype=np.int64)[order]
            return keys[order], _lp_of(n2, n1)

        ref = prep.remote(model.to_arrow_refs())

        def probe(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({id_col: pa.array([], pa.int64()),
                                 "nbg": pa.array([], pa.int64()),
                                 "lpsum": pa.array([], pa.int64())})
            keys_sorted, lp_sorted = ray.get(ref)
            kk = t["bkey"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(object)
            pos = np.clip(np.searchsorted(keys_sorted, kk), 0,
                          keys_sorted.size - 1)
            if keys_sorted.size == 0 or not (keys_sorted[pos] == kk).all():
                raise KeyError("bigram_lm_scores: bigram missing from model")
            return _to_scores(t, lp_sorted[pos])

        parts = occ.map_batches(probe, batch_format="pyarrow")
    else:
        j = occ.join(model, "inner", _num_join_partitions(), on=("bkey",))
        parts = j.map_batches(
            lambda t: _to_scores(
                t, _lp_of(np.asarray(t["n2"].combine_chunks(), dtype=np.int64),
                          np.asarray(t["n1"].combine_chunks(), dtype=np.int64))),
            batch_format="pyarrow")

    return (parts.groupby(id_col)
            .aggregate(Sum("nbg", alias_name="n_bigrams"),
                       Sum("lpsum", alias_name="logprob_micro")))


def novelty_score(docs, *, id_col: str = "doc_id", text_col: str = "text",
                  n: int = 1):
    """Shingle novelty per doc (the data-curation "how much of this page is
    new" signal): the fraction of a doc's DISTINCT token n-gram hashes
    whose globally FIRST occurrence (min doc id) is this doc.  Returns
    Dataset[<id_col>, n_shingles, n_novel, novelty_milli].

    Plan (paragraph-dedup shape): one scan emits per-doc-distinct light
    (hash, doc) rows, one groupby finds each shingle's min-doc winner, one
    hash join charges docs, per-batch partials collapse before the final
    doc groupby.  Hashes are plain fnv1a64 of the n-gram (rolling fnv
    combine for n > 1), sign-flipped into int64; a hash collision merges
    the same way in the SQL twin, so parity is exact by construction.
    """
    from ray.data.aggregate import Min, Sum

    from ..geom.primitives import repeat_expand
    from ..stages.geocode import fnv1a64
    from .dedup import _num_join_partitions

    if n < 1:
        raise ValueError("n must be >= 1")

    def shingles(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].combine_chunks(), dtype=np.int64)
        toks = pc.split_pattern(t[text_col].combine_chunks(), pattern=" ")
        flat = pc.list_flatten(toks)
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        th = fnv1a64(flat.combine_chunks()
                     if isinstance(flat, pa.ChunkedArray) else flat)
        if n > 1:
            off = np.concatenate([[0], np.cumsum(lens)])
            counts = np.maximum(lens - n + 1, 0)
            with np.errstate(over="ignore"):
                h = np.zeros(max(th.size - n + 1, 0), dtype=np.uint64)
                for j in range(n):
                    h = h * np.uint64(1099511628211) ^ th[j: th.size - n + 1 + j]
            gid, kk = repeat_expand(counts)
            th = h[off[:-1][gid] + kk] if h.size else np.empty(0, np.uint64)
            lens = counts
        doc_of = np.repeat(ids, lens)
        hi = (th ^ np.uint64(1 << 63)).view(np.int64)
        # per-doc distinct: unique over (doc, hash) pairs
        pk = np.stack([doc_of, hi], axis=1)
        uniq = np.unique(pk, axis=0)
        return pa.table({"doc": pa.array(uniq[:, 0], pa.int64()),
                         "h": pa.array(uniq[:, 1], pa.int64())})

    rows = docs.map_batches(shingles, batch_format="pyarrow").materialize()
    winners = rows.groupby("h").aggregate(Min("doc", alias_name="mdoc"))
    j = rows.join(winners, "inner", _num_join_partitions(rows, winners),
                  on=("h",))

    def charge(t: pa.Table) -> pa.Table:
        doc = np.asarray(t["doc"].combine_chunks(), dtype=np.int64)
        md = np.asarray(t["mdoc"].combine_chunks(), dtype=np.int64)
        novel = (md == doc).astype(np.int64)
        uniq, inv = np.unique(doc, return_inverse=True)
        tot = np.zeros(uniq.size, np.int64)
        nov = np.zeros(uniq.size, np.int64)
        np.add.at(tot, inv, 1)
        np.add.at(nov, inv, novel)
        return pa.table({id_col: pa.array(uniq, pa.int64()),
                         "tot": pa.array(tot, pa.int64()),
                         "nov": pa.array(nov, pa.int64())})

    agg = (j.map_batches(charge, batch_format="pyarrow")
           .groupby(id_col)
           .aggregate(Sum("tot", alias_name="n_shingles"),
                      Sum("nov", alias_name="n_novel")))

    def finish(t: pa.Table) -> pa.Table:
        ns = np.asarray(t["n_shingles"].combine_chunks(), dtype=np.int64)
        nv = np.asarray(t["n_novel"].combine_chunks(), dtype=np.int64)
        nm = 1000 * nv // np.maximum(ns, 1)
        return t.append_column("novelty_milli", pa.array(nm, pa.int64()))

    return agg.map_batches(finish, batch_format="pyarrow")
