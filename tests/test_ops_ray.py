"""Tests for tiling, raster<->vector, text/dedup/ann ops, multimodal plumbing,
and the pages byte-identity invariant."""

import numpy as np
import pyarrow as pa
import pytest

from rayjoin.geom import spec
from rayjoin.stages.tiles import (
    hilbert_xy2d,
    latlon_to_xy,
    tile_center,
    tile_children,
    tile_neighbors,
    tile_parent,
    xy_to_tile,
)


def test_tile_roundtrip_and_hierarchy():
    rng = np.random.default_rng(3)
    lat = rng.uniform(-90, 90, 500)
    lon = rng.uniform(-180, 180, 500)
    r = 12
    ix, iy = latlon_to_xy(lat, lon, r)
    tid = xy_to_tile(ix, iy, r)
    clat, clon = tile_center(tid, r)
    # center maps back to the same tile
    ix2, iy2 = latlon_to_xy(clat, clon, r)
    assert (ix2 == ix).all() and (iy2 == iy).all()
    # parent/child closure
    parent = tile_parent(tid, r, r - 1)
    for t, p in zip(tid[:20], parent[:20]):
        assert t in tile_children(int(p), r - 1)
    # neighbors are distinct, adjacent, and symmetric
    nb = tile_neighbors(tid[:50], r)
    for t, row in zip(tid[:50], nb):
        for x in row:
            if x >= 0:
                assert t in tile_neighbors(np.array([x]), r)[0]


def test_hilbert_is_bijective_and_local():
    r = 5
    n = 1 << r
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = hilbert_xy2d(xs.ravel(), ys.ravel(), r)
    assert sorted(d.tolist()) == list(range(n * n))  # bijection
    # consecutive hilbert positions are grid neighbors (curve continuity)
    order = np.argsort(d)
    ox, oy = xs.ravel()[order], ys.ravel()[order]
    step = np.abs(np.diff(ox)) + np.abs(np.diff(oy))
    assert (step == 1).all()


@pytest.mark.usefixtures("ray_session")
def test_rasterize_matches_scalar_oracle():
    import ray.data

    from rayjoin.fixtures import mixed_random
    from rayjoin.geom import encode
    from rayjoin.pipelines.raster import rasterize, vectorize_tiles
    from rayjoin.stages.tiles import tile_center

    geoms = [g for g in mixed_random(40, seed=77) if g.kind in (3, 4, 5)]
    t = encode.geoms_to_table(geoms)
    res = 8
    got = rasterize(ray.data.from_arrow(t), resolution=res).to_pandas()
    got_set = set(map(tuple, got[["geom_row_id", "tile_id"]].itertuples(index=False)))
    # scalar oracle: every tile in each geometry's bbox whose center is Contained
    exp = set()
    n = 1 << res
    for rid, g in enumerate(geoms):
        x0, y0, x1, y1 = spec.envelope(g)
        ix0, iy0 = latlon_to_xy(np.array([y0]), np.array([x0]), res)
        ix1, iy1 = latlon_to_xy(np.array([y1]), np.array([x1]), res)
        for iy in range(int(iy0[0]), int(iy1[0]) + 1):
            for ix in range(int(ix0[0]), int(ix1[0]) + 1):
                tid = iy * n + ix
                clat, clon = tile_center(np.array([tid]), res)
                if spec.contains(g, spec.Point(clon[0], clat[0])):
                    exp.add((rid, tid))
    assert got_set == exp
    # vectorize: boundary tiles are a subset containing the extremes
    if len(got):
        vb = vectorize_tiles(ray.data.from_arrow(pa.Table.from_pandas(got)), res).to_pandas()
        for rid, grp in vb.groupby("geom_row_id"):
            full = got[got["geom_row_id"] == rid]["tile_id"]
            assert set(grp["tile_id"]) <= set(full)
            assert full.min() in set(grp["tile_id"]) and full.max() in set(grp["tile_id"])


@pytest.mark.usefixtures("ray_session")
def test_dedup_exact_and_minhash():
    import ray.data

    from rayjoin.functions.dedup import dedup_exact, jaccard_shingles, minhash_dedup_pairs

    base = [f"doc number {i} with some unique content tokens {i*7%13}" * 4 for i in range(40)]
    texts = base + [base[3], base[7]]  # exact dups
    near = base[5][:-6] + "zzzzzz"  # near dup of 5
    texts.append(near)
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t)
    kept = sorted(dedup_exact(ds)["doc_id"].to_pandas()["doc_id"] if False else dedup_exact(ds).to_pandas()["doc_id"])
    exp_kept = sorted({min(i for i, x in enumerate(texts) if x == tx) for tx in set(texts)})
    assert kept == exp_kept

    pairs = minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    got_pairs = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    # all exact-dup pairs found; near-dup found; verified pairs all >= 0.8
    assert (3, 40) in got_pairs and (7, 41) in got_pairs
    assert (5, 42) in got_pairs
    for a, b in got_pairs:
        assert jaccard_shingles(texts[a], texts[b]) >= 0.8


def _pair_components(pairs):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for x in list(parent):
        comps.setdefault(find(x), set()).add(x)
    return sorted(frozenset(v) for v in comps.values())


def test_minhash_exact_collapse_and_star(ray_session):
    """VERDICT r4 #1: the shuffle plan pre-collapses byte-identical texts
    before banding.  Pairs mode must be IDENTICAL to the uncollapsed plan
    (members share their rep's signatures and verify outcome); star mode
    must preserve connected components; bucket_cap star emission keeps
    every emitted pair verify-gated."""
    import ray
    import ray.data

    from rayjoin.functions.dedup import (
        jaccard_shingles,
        minhash_dedup_pairs,
        simhash_dup_pairs,
    )

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(30):
        texts.append(" ".join(rng.choice(words, 40)))
        ids.append(i)
    boiler = " ".join(rng.choice(words, 50))
    for j in range(20):  # exact-dup mega group
        texts.append(boiler)
        ids.append(100 + j)
    texts.append(boiler + " xq")  # near-dup of the group
    ids.append(300)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t).repartition(4)
    by_id = dict(zip(ids, texts))

    # direct_band_rows=0 forces the shuffle plan on this toy corpus
    base = minhash_dedup_pairs(ds, threshold=0.8, collapse_exact=False,
                               direct_band_rows=0).to_pandas()
    new = minhash_dedup_pairs(ds, threshold=0.8, collapse_exact=True,
                              direct_band_rows=0).to_pandas()
    base_set = set(map(tuple, base[["id_a", "id_b"]].itertuples(index=False)))
    new_set = set(map(tuple, new[["id_a", "id_b"]].itertuples(index=False)))
    assert base_set == new_set and len(base_set) >= 190  # 20-clique alone

    star = minhash_dedup_pairs(ds, threshold=0.8, direct_band_rows=0,
                               expand_exact="star").to_pandas()
    star_set = set(map(tuple, star[["id_a", "id_b"]].itertuples(index=False)))
    assert len(star_set) < len(base_set)  # O(m), not the clique
    assert _pair_components(star_set) == _pair_components(base_set)

    # bucket_cap: star emission over full buckets of DISTINCT texts; every
    # survivor still passes exact verify, and the bucket-min anchor keeps
    # the planted family in one component
    capped = minhash_dedup_pairs(ds, threshold=0.8, direct_band_rows=0,
                                 collapse_exact=False, bucket_cap=2).to_pandas()
    cap_set = set(map(tuple, capped[["id_a", "id_b"]].itertuples(index=False)))
    for a, b in cap_set:
        assert jaccard_shingles(by_id[a], by_id[b]) >= 0.8
    assert cap_set <= base_set

    # simhash: collapse on == collapse off (exact contract preserved)
    sb = simhash_dup_pairs(ds, max_hamming=3, collapse_exact=False) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    sn = simhash_dup_pairs(ds, max_hamming=3, collapse_exact=True) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert sb.equals(sn) and len(sn) >= 190


def test_collapse_exact_join_tier_matches_broadcast(ray_session, force_shards):
    """_collapse_exact_texts / _expand_exact_pairs give the same rows with
    one lookup shard and with forced K > 1 shards."""
    import ray
    import ray.data

    from rayjoin.functions.dedup import (
        _collapse_exact_texts,
        _expand_exact_pairs,
    )

    texts = [f"unique doc {i} alpha beta" for i in range(10)]
    ids = list(range(10))
    for j in range(4):
        texts.append("shared boiler text one")
        ids.append(20 + j)
    for j in range(3):
        texts.append("shared boiler text two")
        ids.append(40 + j)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t).repartition(3)

    outs = {}
    spy = None
    for tier in ("bcast", "join"):
        if tier == "join":
            spy = force_shards(4, 2)
        reps, members, dup = _collapse_exact_texts(ds)
        assert members is not None
        reps_ids = sorted(r["doc_id"] for r in
                          reps.select_columns(["doc_id"]).take_all())
        mem = sorted((r["rep_id"], r["member_id"]) for r in members.take_all())
        outs[tier] = (reps_ids, mem)
    assert outs["bcast"] == outs["join"]
    assert outs["bcast"][1] == [(20, 21), (20, 22), (20, 23), (40, 41), (40, 42)]
    assert any(c is not None for c in spy.cuts)

    # cross-group expansion: a verified rep pair (20, 40) with a value col
    reps, members, dup = _collapse_exact_texts(ds)
    verified = ray.data.from_arrow(pa.table({
        "id_a": pa.array([20], pa.int64()),
        "id_b": pa.array([40], pa.int64()),
        "hamming": pa.array([2], pa.int64()),
    }))
    for k in (1, 2):
        spy = force_shards(7, k)  # the roster: 5 members + 2 reps
        out = _expand_exact_pairs(verified, members, dup, mode="pairs",
                                  fill_cols={"hamming": 0}).to_pandas()
        assert (k > 1) == any(c is not None for c in spy.cuts)
        got = sorted(map(tuple, out[["id_a", "id_b", "hamming"]]
                         .itertuples(index=False)))
        # 4x3 cross pairs at hamming 2, plus intra cliques (6 + 3) at 0
        assert len(got) == 12 + 6 + 3
        assert sum(1 for *_ab, h in got if h == 2) == 12
        assert (20, 40, 2) in got and (23, 42, 2) in got and (20, 21, 0) in got


@pytest.mark.usefixtures("ray_session")
def test_ann_topk_vs_numpy():
    import ray.data

    from rayjoin.functions.ann import ann_cosine_topk, ann_ivf_topk

    rng = np.random.default_rng(11)
    M = rng.standard_normal((300, 16))
    ids = np.arange(300, dtype=np.int64) * 2  # non-contiguous ids
    t = pa.table(
        {"vec_id": pa.array(ids), "embedding": pa.array([list(map(float, r)) for r in M], pa.list_(pa.float32()))}
    )
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    Q = M[:5]
    got = ann_cosine_topk(ray.data.from_arrow(t).repartition(4), Q, ids[:5], k=7).to_pandas()
    for qi in range(5):
        sims = Mn @ Mn[qi]
        order = np.lexsort((ids, -sims))[:7]
        exp = ids[order].tolist()
        grp = got[got["query_id"] == ids[qi]].sort_values("rank")
        assert grp["vec_id"].tolist() == exp
    # IVF with nprobe == n_lists probes every bucket -> exact == brute force
    ivf = ann_ivf_topk(
        ray.data.from_arrow(t).repartition(4), Q, ids[:5], k=7, n_lists=8, nprobe=8
    ).to_pandas()
    for qi in range(5):
        sims = Mn @ Mn[qi]
        order = np.lexsort((ids, -sims))[:7]
        grp = ivf[ivf["query_id"] == ids[qi]].sort_values("rank")
        assert grp["vec_id"].tolist() == ids[order].tolist()


@pytest.mark.usefixtures("ray_session")
def test_multimodal_plumbing():
    import ray.data

    from rayjoin.functions.multimodal import DecodeImage, FrameSample, decode_features

    n = 20
    t = pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array([bytes([i] * (10 + i)) for i in range(n)], pa.binary()),
            "media_type": pa.array(["image"] * n),
        }
    )
    ds = ray.data.from_arrow(t)
    feats = decode_features(ds, fake=True, feature_dim=8).to_pandas()
    assert len(feats) == n and all(len(f) == 8 for f in feats["features"])
    # determinism: same payload -> same features
    f2 = decode_features(ray.data.from_arrow(t), fake=True, feature_dim=8).to_pandas()
    assert [list(x) for x in feats["features"]] == [list(x) for x in f2["features"]]
    # real codec path raises cleanly when lib is absent
    try:
        import PIL  # noqa

        has_pil = True
    except ImportError:
        has_pil = False
    if not has_pil:
        with pytest.raises(NotImplementedError):
            DecodeImage(fake=False)
    frames = ray.data.from_arrow(t).map_batches(
        FrameSample(stride=5, max_frames=3), batch_format="pyarrow"
    ).to_pandas()
    assert (frames.groupby("media_id").size() <= 3).all()


@pytest.mark.usefixtures("ray_session")
def test_pages_byte_identity():
    from rayjoin.sources.pages import pages_from_documents
    from rayjoin.stages.geocode import geocode_from_url
    from rayjoin.stages.tiles import tile_assign

    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    src_text = dict(zip(src["doc_id"].to_pylist(), src["text"].to_pylist()))
    out = tile_assign(
        pages_from_documents(sf).map_batches(geocode_from_url, batch_format="pyarrow"),
        resolution=10,
    ).to_pandas()
    # the invariant: text rides through every stage byte-identical per url/doc
    from rayjoin.stages.extract import extract_text_batch

    assert len(out) == len(src_text)
    for _, row in out.iterrows():
        assert row["text"] == src_text[row["doc_id"]]
    # and text re-derived FROM THE HTML BYTES is byte-identical too
    html = pa.array(list(out["html"]), pa.binary())
    rederived = extract_text_batch(html).to_pylist()
    assert rederived == list(out["text"])


def test_text_ops_reference():
    from rayjoin.functions.text import LangId, quality_score, simhash64, token_stats

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "a b  c the d the e",
                    "und und die das",
                    "x",
                ]
            ),
        }
    )
    ts = token_stats(t).to_pandas()
    assert ts["n_tokens"].tolist() == [len(x.split(" ")) for x in ["a b  c the d the e", "und und die das", "x"]]
    qs = quality_score(t).to_pandas()
    assert (qs["space_ratio_milli"] >= 0).all()
    li = LangId()(t).to_pandas()
    assert li["n_en"].tolist() == [2, 0, 0]
    assert li["lang_guess"].tolist()[0] == "en"
    assert li["lang_guess"].tolist()[2] == "und"
    s1 = simhash64(t).to_pandas()["simhash"]
    s2 = simhash64(t).to_pandas()["simhash"]
    assert s1.tolist() == s2.tolist()


@pytest.mark.usefixtures("ray_session")
def test_dup_clusters():
    import ray.data

    from rayjoin.functions.dedup import dup_clusters

    pairs = pa.table(
        {
            "id_a": pa.array([1, 2, 3, 10, 30, 20], pa.int64()),
            "id_b": pa.array([2, 3, 4, 11, 20, 40], pa.int64()),
        }
    )
    out = dup_clusters(ray.data.from_arrow(pairs)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    # components: {1,2,3,4} -> 1; {10,11} -> 10; {20,30,40} -> 20
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 30: 20, 40: 20}


def test_wkt_roundtrip():
    from rayjoin.fixtures import mixed_random
    from rayjoin.geom import wkt

    for g in mixed_random(40, seed=13):
        s = wkt.to_wkt(g)
        g2 = wkt.from_wkt(s)
        # rect/triangle round-trip as polygons with the same boundary
        p = spec.Point(0.123, -0.456)
        assert spec.distance(g, p) == pytest.approx(spec.distance(g2, p), abs=1e-12)
        assert spec.envelope(g) == pytest.approx(spec.envelope(g2))
    assert wkt.from_wkt("POINT (1 2)") == spec.Point(1.0, 2.0)
    with pytest.raises(ValueError):
        wkt.from_wkt("MULTIPOINT (1 2)")  # unsupported, like the reference


@pytest.mark.usefixtures("ray_session")
def test_hilbert_partitioned_sink(tmp_path):
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from rayjoin.stages.geocode import geocode_from_key
    from rayjoin.stages.sink import write_hilbert_partitioned

    t = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64))})
    ds = ray.data.from_arrow(t).map_batches(
        lambda b: geocode_from_key(b, key_col="doc_id"), batch_format="pyarrow"
    )
    out = str(tmp_path / "sink")
    bounds = write_hilbert_partitioned(ds, out, num_partitions=8, resolution=10)
    files = glob.glob(f"{out}/part_key=*/*.parquet")
    assert len(glob.glob(f"{out}/part_key=*")) >= 4  # several key-range dirs
    back = pq.read_table(out)
    assert back.num_rows == 2000
    assert len(bounds) <= 7


@pytest.mark.usefixtures("ray_session")
def test_jaccard_batch_matches_scalar_spec():
    """Vectorized shingle-hash Jaccard == the scalar string-set spec."""
    from rayjoin.functions.dedup import jaccard_batch, jaccard_shingles

    rng = np.random.default_rng(11)
    words = ["alpha", "beta", "gamma", "delta", "rune", "stone", "x"]
    docs = [" ".join(rng.choice(words, rng.integers(0, 30))) for _ in range(40)]
    docs += ["", "abcd", "abcde", "abcdeabcde"]  # shorter-than-k edge cases
    ta = pa.array(docs)
    tb = pa.array(docs[1:] + docs[:1])
    got = jaccard_batch(ta, tb, 5)
    want = np.array([jaccard_shingles(a, b, 5) for a, b in zip(docs, docs[1:] + docs[:1])])
    np.testing.assert_allclose(got, want, atol=0)


@pytest.mark.usefixtures("ray_session")
def test_verify_pairs_shuffle_equals_broadcast(force_shards):
    """The verify emits the same pairs with one lookup shard and with
    forced K > 1 shards."""
    import ray.data

    from rayjoin.functions.dedup import verify_pairs_jaccard

    base = "the quick brown fox jumps over the lazy dog %d tail"
    texts = [base % (i % 3) for i in range(20)] + [f"totally unrelated {i}" for i in range(20)]
    corpus = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)), "text": pa.array(texts)})
    )
    ia, ib = np.triu_indices(12, 1)
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array(ia.astype(np.int64)), "id_b": pa.array(ib.astype(np.int64))})
    )

    def rows(ds):
        df = ds.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return list(map(tuple, df.to_numpy()))

    broad = rows(verify_pairs_jaccard(pairs, corpus, threshold=0.8))
    spy = force_shards(12, 3)
    shuf = rows(verify_pairs_jaccard(pairs, corpus, threshold=0.8))
    assert broad == shuf
    assert any(c is not None for c in spy.cuts)
    assert len(broad) > 0  # identical-template pairs survive


@pytest.mark.usefixtures("ray_session")
def test_dup_clusters_distributed_equals_driver():
    import ray.data

    from rayjoin.functions.dedup import dup_clusters

    rng = np.random.default_rng(5)
    a = rng.integers(0, 60, 150).astype(np.int64)
    b = rng.integers(0, 60, 150).astype(np.int64)
    m = a != b
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array(np.minimum(a, b)[m]), "id_b": pa.array(np.maximum(a, b)[m])})
    )
    d1 = dup_clusters(pairs, method="driver").to_pandas().sort_values("doc_id").reset_index(drop=True)
    d2 = dup_clusters(pairs, method="distributed").to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert d1.equals(d2)
    # long path (diameter ~ n): pointer doubling must converge fast
    n = 33
    chain = pa.table(
        {"id_a": pa.array(np.arange(n - 1, dtype=np.int64) + 1),
         "id_b": pa.array(np.arange(n - 1, dtype=np.int64) + 2)}
    )
    out = dup_clusters(ray.data.from_arrow(chain), method="driver").to_pandas()
    assert set(out["cluster_id"]) == {1}


@pytest.mark.usefixtures("ray_session")
def test_ann_ivf_distributed_recall():
    """Distributed IVF (sampled centroids, map_batches assignment, masked
    partial top-k, groupby merge) hits pinned recall vs the SQL-checked
    brute-force result at the fixed seed; no take_all anywhere."""
    from rayjoin.pipelines.gate import q_ann_cosine, q_ann_ivf

    sf = "/root/testdata/sf0.001"
    bf = q_ann_cosine(sf).to_pandas()
    ivf = q_ann_ivf(sf).to_pandas()
    assert len(ivf) == len(bf) == 40
    sb = set(map(tuple, bf[["query_id", "vec_id"]].to_numpy()))
    si = set(map(tuple, ivf[["query_id", "vec_id"]].to_numpy()))
    # isotropic random vectors are IVF's worst case (no cluster structure);
    # probing 4/8 lists with Lloyd-refined centroids recovers 0.775 here,
    # 0.85 at sf0.01 — the bound pins the seeded result from drifting
    assert len(si & sb) / len(sb) >= 0.7
    # deterministic given the seed
    ivf2 = q_ann_ivf(sf).to_pandas()
    assert ivf.sort_values(["query_id", "rank"]).reset_index(drop=True).equals(
        ivf2.sort_values(["query_id", "rank"]).reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_embedding_dups_bucketed_vs_bruteforce():
    """LSH-bucketed embedding dedup finds exactly the planted pairs, and
    agrees with an O(n^2) brute-force oracle over the augmented set."""
    import pyarrow.parquet as pq

    import ray.data

    from rayjoin.functions.ann import vec_matrix
    from rayjoin.pipelines.gate import (
        PLANTED_DUP_OFFSET,
        planted_embeddings,
        q_embedding_dups,
    )

    sf = "/root/testdata/sf0.001"
    got = q_embedding_dups(sf).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)

    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    aug = pa.concat_tables([t, planted_embeddings(sf)])
    ids = np.asarray(aug["vec_id"], dtype=np.int64)
    M = vec_matrix(aug["embedding"].combine_chunks())
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = M @ M.T
    ii, jj = np.nonzero(np.triu(S >= 0.99, 1))
    want = sorted(
        (min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j in zip(ii, jj)
    )
    assert list(map(tuple, got[["id_a", "id_b"]].to_numpy())) == want
    assert len(want) == 10  # exactly the planted pairs
    assert all(b - a == PLANTED_DUP_OFFSET for a, b in want)


@pytest.mark.usefixtures("ray_session")
def test_embedding_dups_presalt_path():
    """Pre-shuffle hot-bucket salting (split_rows forced tiny so every
    bucket is 'hot'): planted near-identical pairs survive the salted
    shuffle, no spurious pairs appear, and two runs are bit-identical."""
    import ray.data

    from rayjoin.functions.dedup import embedding_dup_pairs

    rng = np.random.default_rng(42)
    n, dim, planted = 3000, 16, 40
    M = rng.standard_normal((n, dim)).astype(np.float32)
    base = M[:planted] / np.linalg.norm(M[:planted], axis=1, keepdims=True)
    dup = (base + 0.001 * rng.standard_normal((planted, dim))).astype(np.float32)
    V = np.vstack([M, dup])
    ids = np.concatenate([np.arange(n), np.arange(planted) + 100_000]).astype(np.int64)
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, V.size + 1, dim, dtype=np.int32)),
        pa.array(V.ravel(), pa.float32()),
    )
    ds = ray.data.from_arrow(pa.table({"vec_id": pa.array(ids), "embedding": emb}))

    def run():
        # presalt_sample_rows < n forces mod > 1, exercising the SAMPLED
        # occupancy-estimate branch (an int64 _mix64 call crashed here —
        # /code-review r3)
        return (
            embedding_dup_pairs(ds, threshold=0.999, split_rows=64,
                                presalt_sample_rows=1_500)
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )

    got = run()
    # true pairs by brute force
    Mn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Mn @ Mn.T
    ii, jj = np.nonzero(np.triu(S >= 0.999, 1))
    true = {(min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j in zip(ii, jj)}
    found = set(map(tuple, got[["id_a", "id_b"]].to_numpy()))
    assert found <= true, "presalt introduced spurious pairs"
    planted_true = {(a, a + 100_000) for a in range(planted)} & true
    rec = len(found & planted_true)
    assert rec >= 0.9 * len(planted_true), (rec, len(planted_true))
    assert got.equals(run()), "presalted run not deterministic"


def test_repetition_stats_edges():
    from rayjoin.functions.text import repetition_stats

    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": ["a a a a", "a b c d", "", "x y x y z"]})
    out = repetition_stats(t)
    assert out["n_tokens"].to_pylist() == [4, 4, 1, 5]  # "" splits to [""]
    assert out["n_distinct"].to_pylist() == [1, 4, 1, 3]
    assert out["rep_milli"].to_pylist() == [750, 0, 0, 400]


@pytest.mark.usefixtures("ray_session")
def test_vocab_topk_ties_deterministic():
    import ray.data

    from rayjoin.functions.text import vocab_topk

    docs = pa.table({"text": ["b a", "a c b", "d"]})
    got = vocab_topk(ray.data.from_arrow(docs), k=3).to_pandas()
    assert list(got["token"]) == ["a", "b", "c"]  # ties c/d -> token asc
    assert list(got["n"]) == [2, 2, 1]


def test_wkb_roundtrip():
    """WKB parity with the reference datagen (gen_test.py writes .wkb):
    exact coordinate round-trip; WKT and WKB agree on the decoded shape."""
    from rayjoin.fixtures import mixed_random
    from rayjoin.geom import wkb, wkt

    for g in mixed_random(40, seed=17):
        buf = wkb.to_wkb(g)
        g2 = wkb.from_wkb(buf)
        p = spec.Point(0.321, -0.654)
        assert spec.distance(g, p) == pytest.approx(spec.distance(g2, p), abs=1e-12)
        assert spec.envelope(g) == pytest.approx(spec.envelope(g2))
        # wkb and wkt decode to the same geometry (exact coords, no text
        # round-off: WKB is binary doubles)
        g3 = wkt.from_wkt(wkt.to_wkt(g))
        assert spec.envelope(g2) == pytest.approx(spec.envelope(g3))
    assert wkb.from_wkb(wkb.to_wkb(spec.Point(1.0, 2.0))) == spec.Point(1.0, 2.0)
    import struct
    with pytest.raises(ValueError):
        wkb.from_wkb(struct.pack("<BIdd", 1, 4, 0.0, 0.0))  # MULTIPOINT: unsupported


@pytest.mark.usefixtures("ray_session")
def test_geomfile_sources_roundtrip_and_join(tmp_path):
    """Reference-datagen-shaped .wkt/.wkb collection files load into the
    wire format with positional row ids, and a join over them equals the
    direct-table join."""
    import ray.data

    from rayjoin.config import Interaction
    from rayjoin.fixtures import mixed_random
    from rayjoin.geom import encode, wkb, wkt
    from rayjoin.join.broadcast import SpatialIndex
    from rayjoin.sources.geomfiles import read_wkb, read_wkt

    geoms = mixed_random(30, seed=21)
    # one GeometryCollection per file, like gen_test.py
    (tmp_path / "a.wkt").write_text(
        "GEOMETRYCOLLECTION (" + ", ".join(wkt.to_wkt(g) for g in geoms) + ")"
    )
    import struct

    body = b"".join(wkb.to_wkb(g) for g in geoms)
    (tmp_path / "a.wkb").write_bytes(struct.pack("<BII", 1, 7, len(geoms)) + body)

    for reader, path in ((read_wkt, "a.wkt"), (read_wkb, "a.wkb")):
        ds = reader(str(tmp_path / path))
        t = pa.concat_tables(
            [b for b in ds.iter_batches(batch_format="pyarrow")]
        ).sort_by("row_id")
        assert t["row_id"].to_pylist() == list(range(30))  # positional ids
        # geometry table drives the same join as the direct encode
        direct = encode.geoms_to_table(geoms)
        got = (
            SpatialIndex(direct).spatial_join(ds, Interaction.INTERSECTS).to_pandas()
        )
        want = (
            SpatialIndex(direct)
            .spatial_join(ray.data.from_arrow(direct), Interaction.INTERSECTS)
            .to_pandas()
        )
        key = ["big_row_id", "small_row_id"]
        assert sorted(map(tuple, got[key].to_numpy().tolist())) == sorted(
            map(tuple, want[key].to_numpy().tolist())
        )


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_vs_scalar():
    """token_hash_sets + jaccard_hash_lists == scalar token-n-gram Jaccard
    for n = 1, 2, 3."""
    from rayjoin.functions.text import jaccard_hash_lists, token_hash_sets

    rng = np.random.default_rng(9)
    words = ["aa", "bb", "cc", "dd", "ee", "ff"]
    docs = [" ".join(rng.choice(words, rng.integers(1, 25))) for _ in range(30)]
    t = pa.table({"text": pa.array(docs)})
    for n in (1, 2, 3):
        lists, counts = token_hash_sets(t, n=n)
        tb = pa.table({"x": lists})
        a = tb["x"].combine_chunks().take(pa.array(np.arange(15)))
        b = tb["x"].combine_chunks().take(pa.array(np.arange(15, 30)))
        inter, union = jaccard_hash_lists(a, b)

        def grams(s):
            toks = s.split(" ")
            return {tuple(toks[i : i + n]) for i in range(max(len(toks) - n + 1, 0))}

        for i in range(15):
            sa, sb = grams(docs[i]), grams(docs[15 + i])
            assert counts[i] == len(grams(docs[i]))
            assert inter[i] == len(sa & sb), (n, i)
            assert union[i] == len(sa | sb), (n, i)


@pytest.mark.usefixtures("ray_session")
def test_multimodal_resize_and_audio():
    import ray.data

    from rayjoin.functions.multimodal import AudioFeatures, ResizeImage

    n = 12
    t = pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(
                [bytes(range(256)) * (1 + i) for i in range(n)], pa.binary()
            ),
            "media_type": pa.array(["image"] * n),
        }
    )
    ds = ray.data.from_arrow(t)
    resized = ds.map_batches(
        ResizeImage, fn_constructor_kwargs={"fake": True, "out_w": 32, "out_h": 32},
        batch_format="pyarrow", batch_size=4, concurrency=2, num_cpus=1,
    ).to_pandas()
    assert len(resized) == n
    assert (resized["width"] == 32).all() and (resized["height"] == 32).all()
    # deterministic: same payload -> same resized bytes
    r2 = ray.data.from_arrow(t).map_batches(
        ResizeImage, fn_constructor_kwargs={"fake": True, "out_w": 32, "out_h": 32},
        batch_format="pyarrow", batch_size=4, concurrency=2, num_cpus=1,
    ).to_pandas()
    assert list(resized.sort_values("media_id")["payload"]) == list(
        r2.sort_values("media_id")["payload"]
    )

    audio = ds.map_batches(
        AudioFeatures, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", batch_size=4, concurrency=2, num_cpus=1,
    ).to_pandas()
    assert (audio.groupby("media_id").size() <= 8).all()
    assert (audio["rms"] >= 0).all()
    # scalar spec check for one media row
    w0 = np.frombuffer(bytes(range(256)), dtype=np.int8).astype(np.float64)[:64]
    exp_rms = np.sqrt((w0 * w0).mean())
    got = audio[(audio["media_id"] == 0) & (audio["window_no"] == 0)]["rms"].iloc[0]
    assert got == pytest.approx(exp_rms, rel=1e-12)


@pytest.mark.usefixtures("ray_session")
def test_sessionize_bucketed_vs_pandas_oracle():
    """The bucketed lexsort sessionizer == a straightforward per-user pandas
    computation on randomized event logs (gap semantics, 1-based ids,
    start/end/sum aggregates)."""
    import pandas as pd

    import ray.data

    from rayjoin.functions.stream import sessionize

    rng = np.random.default_rng(42)
    n = 3000
    users = rng.integers(0, 40, n)
    ts = np.datetime64("2024-01-01", "us") + rng.integers(
        0, 7 * 24 * 3600, n
    ).astype("timedelta64[s]").astype("timedelta64[us]")
    vals = rng.random(n) * 10
    t = pa.table(
        {
            "user_id": pa.array(users.astype(np.int64)),
            "ts": pa.array(ts),
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "value": pa.array(vals, pa.float64()),
        }
    )
    got = (
        sessionize(ray.data.from_arrow(t).repartition(5), gap_minutes=45)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )

    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    rows = []
    gap = pd.Timedelta(minutes=45)
    for uid, grp in df.groupby("user_id"):
        sid, start = 0, None
        cur = []
        prev = None
        for r in grp.itertuples(index=False):
            if prev is None or r.ts - prev > gap:
                if cur:
                    rows.append((uid, sid, cur))
                sid += 1
                cur = []
            cur.append(r)
            prev = r.ts
        rows.append((uid, sid, cur))
    exp = pd.DataFrame(
        [
            {
                "user_id": uid,
                "session_id": sid,
                "n_events": len(cur),
                "session_start": min(r.ts for r in cur),
                "session_end": max(r.ts for r in cur),
                "sum_value_milli": sum(int(np.floor(r.value * 1000.0)) for r in cur),
            }
            for uid, sid, cur in rows
        ]
    ).sort_values(["user_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_vectorize_tiles_bucketed_vs_scalar_oracle():
    """Bucketed boundary extraction == the per-geometry 4-neighbor rule on
    random tile sets (including grid-edge tiles)."""
    import ray.data

    from rayjoin.pipelines.raster import vectorize_tiles
    from rayjoin.stages.tiles import tile_neighbors

    res = 6
    n = 1 << res
    rng = np.random.default_rng(7)
    gs, tiles = [], []
    for gid in range(25):
        cx, cy = rng.integers(0, n, 2)
        for _ in range(rng.integers(1, 60)):
            ix = int(np.clip(cx + rng.integers(-3, 4), 0, n - 1))
            iy = int(np.clip(cy + rng.integers(-3, 4), 0, n - 1))
            gs.append(gid)
            tiles.append(iy * n + ix)
    t = pa.table(
        {"geom_row_id": pa.array(gs, pa.int64()), "tile_id": pa.array(tiles, pa.int64())}
    )
    got = (
        vectorize_tiles(ray.data.from_arrow(t).repartition(3), resolution=res)
        .to_pandas()
        .sort_values(["geom_row_id", "tile_id"])
        .reset_index(drop=True)
    )
    exp_rows = []
    df = t.to_pandas().drop_duplicates()
    for gid, grp in df.groupby("geom_row_id"):
        ts = np.sort(grp["tile_id"].unique())
        tset = set(ts.tolist())
        nb = tile_neighbors(ts, res)
        for tile, row in zip(ts, nb):
            if any(x == -1 or x not in tset for x in row):
                exp_rows.append((gid, tile))
    exp = sorted(exp_rows)
    assert list(map(tuple, got.to_numpy().tolist())) == exp


@pytest.mark.usefixtures("ray_session")
def test_verify_pairs_drops_missing_ids(force_shards):
    """Pairs naming a doc absent from the corpus are DROPPED (inner-join
    semantics) with one lookup shard and with forced K > 1, never scored
    against the wrong doc."""
    import ray.data

    from rayjoin.functions.dedup import verify_pairs_jaccard

    corpus = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["the quick brown fox jumps high"] * 2)})
    )
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array([1, 1, 99], pa.int64()),
                  "id_b": pa.array([2, 98, 100], pa.int64())})
    )
    broad = verify_pairs_jaccard(pairs, corpus, threshold=0.5).to_pandas()
    spy = force_shards(2, 2)
    shuf = verify_pairs_jaccard(pairs, corpus, threshold=0.5).to_pandas()
    assert any(c is not None for c in spy.cuts)
    assert list(map(tuple, broad.to_numpy())) == [(1, 2)]
    assert list(map(tuple, shuf.to_numpy())) == [(1, 2)]


def test_large_string_offset_parity():
    """large_string/large_binary carry int64 offsets; every flat-buffer
    reader must branch on the type (review r3 — the checkpoint digest bug
    class).  Hashes and shingles must be identical across representations,
    including for a sliced array (nonzero arr.offset)."""
    import numpy as np
    import pyarrow as pa

    from rayjoin.functions.dedup import _shingle_hashes
    from rayjoin.stages.geocode import fnv1a64

    texts = ["hello world", "", "abcdefghij", "xy", "the quick brown fox"]
    small = pa.array(texts, pa.string())
    large = pa.array(texts, pa.large_string())
    assert np.array_equal(fnv1a64(small), fnv1a64(large))
    hs, offs = _shingle_hashes(small)
    hl, offl = _shingle_hashes(large)
    assert np.array_equal(hs, hl) and np.array_equal(offs, offl)
    # sliced views exercise arr.offset handling
    hs2, offs2 = _shingle_hashes(small.slice(1, 3))
    hl2, offl2 = _shingle_hashes(large.slice(1, 3))
    assert np.array_equal(hs2, hl2) and np.array_equal(offs2, offl2)


@pytest.mark.usefixtures("ray_session")
def test_knn_join_embeddings_exact_and_recall():
    import ray.data

    from rayjoin.functions.ann import knn_join_embeddings

    rng = np.random.default_rng(17)
    L = rng.standard_normal((120, 16))
    R = rng.standard_normal((250, 16))
    lids = np.arange(120, dtype=np.int64) * 3 + 1
    rids = np.arange(250, dtype=np.int64) * 2  # disjoint id spaces
    def tab(M, ids):
        return pa.table({"vec_id": pa.array(ids),
                         "embedding": pa.array(
                             [list(map(float, r)) for r in M],
                             pa.list_(pa.float32()))})
    lds = ray.data.from_arrow(tab(L, lids)).repartition(3)
    rds = ray.data.from_arrow(tab(R, rids)).repartition(4)
    Ln = L / np.linalg.norm(L, axis=1, keepdims=True)
    Rn = R / np.linalg.norm(R, axis=1, keepdims=True)
    # float32 storage: compare against the same rounding the engine sees
    Ln = Ln.astype(np.float32).astype(np.float64)
    Rn = Rn.astype(np.float32).astype(np.float64)
    Ln /= np.linalg.norm(Ln, axis=1, keepdims=True)
    Rn /= np.linalg.norm(Rn, axis=1, keepdims=True)
    sims = Ln @ Rn.T

    # nprobe == n_lists: exact brute force, every left gets exactly k rows
    got = knn_join_embeddings(lds, rds, k=4, n_lists=6, nprobe=6,
                              sample_size=64, seed=3).to_pandas()
    assert len(got) == 120 * 4
    for qi in (0, 17, 119):
        order = np.lexsort((rids, -sims[qi]))[:4]
        grp = got[got["query_id"] == lids[qi]].sort_values("rank")
        assert grp["vec_id"].tolist() == rids[order].tolist()

    # approximate: recall vs brute force at nprobe=2/6 stays useful and
    # the result is deterministic across runs
    ap1 = knn_join_embeddings(lds, rds, k=4, n_lists=6, nprobe=2,
                              sample_size=64, seed=3).to_pandas()
    ap2 = knn_join_embeddings(lds, rds, k=4, n_lists=6, nprobe=2,
                              sample_size=64, seed=3).to_pandas()
    key = lambda df: sorted(map(tuple, df[["query_id", "vec_id", "rank"]].values))
    assert key(ap1) == key(ap2)
    hits = tot = 0
    for qi in range(120):
        want = set(rids[np.lexsort((rids, -sims[qi]))[:4]])
        have = set(ap1[ap1["query_id"] == lids[qi]]["vec_id"])
        hits += len(want & have); tot += 4
    assert hits / tot >= 0.5, hits / tot


@pytest.mark.usefixtures("ray_session")
def test_knn_join_embeddings_empty_side():
    import ray.data

    from rayjoin.functions.ann import knn_join_embeddings

    t = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                        pa.list_(pa.float32()))})
    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float32()))})
    out = knn_join_embeddings(ray.data.from_arrow(t),
                              ray.data.from_arrow(empty), k=2).to_pandas()
    assert len(out) == 0


def test_topk_indices_with_ties_boundary():
    """Boundary ties must be emitted INCLUSIVELY (review finding: a bare
    argpartition keeps an arbitrary tied subset, so duplicate right vectors
    tying at the k-th place made the partial top-k row-order-dependent)."""
    from rayjoin.functions.ann import _topk_indices_with_ties

    # row 0: values 5,3,3,3,1 with kk=2 -> threshold is 3, ALL three 3s emit
    sims = np.array([[5.0, 3.0, 3.0, 3.0, 1.0],
                     [9.0, 8.0, 7.0, 6.0, 5.0]])
    qq, vv = _topk_indices_with_ties(sims, 2)
    got = {(int(q), int(v)) for q, v in zip(qq, vv)}
    assert got == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)}
    # -inf placeholders never emitted, even when kk >= row length
    sims = np.array([[2.0, -np.inf, 1.0]])
    qq, vv = _topk_indices_with_ties(sims, 3)
    assert set(vv) == {0, 2}
    # kk=1 with an all-ties row keeps every candidate for the final merge
    qq, vv = _topk_indices_with_ties(np.array([[4.0, 4.0, 4.0]]), 1)
    assert set(vv) == {0, 1, 2}


@pytest.mark.usefixtures("ray_session")
def test_knn_join_embeddings_duplicate_vector_ties():
    """Exact duplicates of the boundary vector: exhaustive mode must keep
    the LOWEST vec_id (the (-sim, vec_id) rule), run-deterministically."""
    import ray.data

    from rayjoin.functions.ann import knn_join_embeddings

    rng = np.random.default_rng(11)
    dup = rng.normal(size=3)
    rvecs = np.vstack([dup, rng.normal(size=(4, 3)), dup, dup])  # ids 0..6
    rids = np.arange(7, dtype=np.int64)
    lt = pa.table({"vec_id": pa.array([100], pa.int64()),
                   "embedding": pa.array([dup.tolist()], pa.list_(pa.float32()))})
    rt = pa.table({"vec_id": pa.array(rids, pa.int64()),
                   "embedding": pa.array(rvecs.tolist(), pa.list_(pa.float32()))})
    out = knn_join_embeddings(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                              k=2, n_lists=3, nprobe=3, seed=5).to_pandas()
    out = out.sort_values("rank")
    # the query IS dup; rights 0, 5, 6 all tie at sim=1 -> ids 0 and 5 win
    assert list(out["vec_id"]) == [0, 5]


def test_extract_text_round_trip_adversarial():
    """extract_text_batch(page(text)) == text byte-for-byte, including
    entity-shaped text, tag-shaped text, and unicode; no-body pages -> null."""
    from rayjoin.stages.extract import extract_text_batch, html_escape_column

    texts = [
        "plain tokens here",
        "a < b && b > c",
        "&amp;lt; already-escaped-looking &gt;&amp;",
        "<script>alert('x')</script>",
        "unicode é中文 mixed",
        "",
        "trailing space ",
        "&", "<", ">", "&&&<<<>>>",
    ]
    esc = html_escape_column(pa.array(texts, pa.string()))
    pages = [
        f'<html><head><title>t &amp; x</title></head>'
        f'<body class="page" data-n="{i}"><p>{e}</p></body></html>'
        for i, e in enumerate(esc.to_pylist())
    ]
    got = extract_text_batch(pa.array([p.encode() for p in pages], pa.binary()))
    assert got.to_pylist() == texts
    # malformed page: no body element -> null, not a crash or empty string
    bad = extract_text_batch(pa.array([b"<html><head>x</head></html>"], pa.binary()))
    assert bad.to_pylist() == [None]
    # nested/multiple tags inside body are stripped, entities decoded after
    deep = b'<body><div><span>a &lt;tag&gt; b</span><br/>c</div></body>'
    assert extract_text_batch(pa.array([deep], pa.binary())).to_pylist() == ["a <tag> bc"]


@pytest.mark.usefixtures("ray_session")
def test_simhash_dup_pairs_exact_vs_bruteforce():
    """The Manku band cover is EXACT: simhash_dup_pairs returns precisely
    the brute-force all-pairs popcount(xor) <= k set, with the same hamming
    values, across multiple blocks."""
    import ray.data

    from rayjoin.functions.dedup import _popcount64, simhash_dup_pairs
    from rayjoin.functions.text import simhash64

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    texts = [" ".join(rng.choice(words, rng.integers(20, 60))) for _ in range(150)]
    ids = list(range(150))
    for i in range(10):          # exact copies -> hamming 0
        texts.append(texts[i]); ids.append(1000 + i)
    for i in range(10, 25):      # one-token appends -> small hamming
        texts.append(texts[i] + " extra"); ids.append(2000 + i)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})

    sim = np.asarray(simhash64(t)["simhash"]).astype(np.int64)
    iid = np.asarray(t["doc_id"])
    ia, ib = np.triu_indices(len(iid), 1)
    ham = _popcount64(np.bitwise_xor(sim[ia], sim[ib]).view(np.uint64))
    ok = ham <= 3
    expected = sorted(
        zip(np.minimum(iid[ia][ok], iid[ib][ok]).tolist(),
            np.maximum(iid[ia][ok], iid[ib][ok]).tolist(),
            ham[ok].tolist())
    )
    assert len(expected) >= 10  # planted exact copies guarantee coverage

    out = (
        simhash_dup_pairs(ray.data.from_arrow(t).repartition(5), max_hamming=3)
        .to_pandas().sort_values(["id_a", "id_b"])
    )
    got = list(zip(out.id_a.tolist(), out.id_b.tolist(), out.hamming.tolist()))
    assert got == expected
    # n_bands must exceed max_hamming for the pigeonhole cover
    with pytest.raises(ValueError):
        simhash_dup_pairs(ray.data.from_arrow(t), max_hamming=3, n_bands=3)


@pytest.mark.usefixtures("ray_session")
def test_duplicated_windows_exact_vs_bruteforce(force_shards):
    """duplicated_windows (ExactSubstr core) equals the brute-force window
    Counter on a corpus with a full copy, a shared 40-char run, and a
    below-window doc — with one dup-hash shard and with forced K > 1."""
    from collections import Counter

    import ray.data

    from rayjoin.functions.dedup import duplicated_windows

    rng = np.random.default_rng(11)
    W = 16
    docs = ["".join(rng.choice(list("abcdefgh"), rng.integers(30, 120)))
            for _ in range(60)]
    docs += [docs[0], "zzz" + docs[1][:40] + "qqq", "tiny"]
    ids = list(range(len(docs)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(docs)})

    wins = Counter(s[p:p + W] for s in docs for p in range(max(len(s) - W + 1, 0)))
    exp = {}
    for i, s in zip(ids, docs):
        c = sum(1 for p in range(max(len(s) - W + 1, 0)) if wins[s[p:p + W]] >= 2)
        if c:
            exp[i] = c
    assert exp  # planted duplication is present

    for k in (1, 3):
        spy = force_shards(sum(exp.values()), k)
        out = duplicated_windows(
            ray.data.from_arrow(t).repartition(4), window=W,
        ).to_pandas()
        assert dict(zip(out.doc_id.tolist(), out.n_dup_windows.tolist())) == exp
        assert (k > 1) == any(c is not None for c in spy.cuts)


@pytest.mark.usefixtures("ray_session")
def test_unigram_lm_scores_plan_parity():
    """Broadcast sorted-vocab lookup and the hash-join fallback produce
    bit-identical fixed-point scores; scores agree with a direct Counter
    model."""
    import math
    from collections import Counter

    import ray.data

    from rayjoin.functions.text import unigram_lm_scores

    texts = ["a b c a", "b b d", "a", "e f g h i", "a b c a"]
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})

    cnt = Counter(w for s in texts for w in s.split(" "))
    n = float(sum(cnt.values()))
    lp = {w: int(np.floor(1_000_000 * math.log(np.float64(c) / np.float64(n))))
          for w, c in cnt.items()}
    exp = {
        i: (len(s.split(" ")), sum(lp[w] for w in s.split(" ")))
        for i, s in zip(ids, texts)
    }

    ds = ray.data.from_arrow(t).repartition(3)
    a = unigram_lm_scores(ds).to_pandas().sort_values("doc_id")
    b = unigram_lm_scores(ds, broadcast_vocab_rows=0).to_pandas().sort_values("doc_id")
    got = {r.doc_id: (r.n_tokens, r.logprob_micro) for r in a.itertuples()}
    assert got == exp
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_idw_interpolate_fixed_point(force_shards):
    """IDW weights are capped ints; d == 0 neighbors take the cap weight;
    one values shard and forced K > 1 agree bit-exactly."""
    import ray.data

    from rayjoin.functions.interp import W_CAP, idw_interpolate

    knn = pa.table({
        "big_row_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "small_row_id": pa.array([10, 11, 12, 10, 12], pa.int64()),
        "distance": pa.array([0.0, 2.0, 1e-9, 3.0, 4.0], pa.float64()),
    })
    vals = pa.table({
        "small_row_id": pa.array([10, 11, 12], pa.int64()),
        "value": pa.array([5, 7, 9], pa.int64()),
    })
    kds = ray.data.from_arrow(knn).repartition(2)
    vds = ray.data.from_arrow(vals)
    a = idw_interpolate(kds, vds).to_pandas().sort_values("big_row_id").reset_index(drop=True)
    spy = force_shards(3, 2)
    b = idw_interpolate(kds, ray.data.from_arrow(vals)).to_pandas().sort_values(
        "big_row_id").reset_index(drop=True)
    assert a.equals(b)
    assert spy.cuts[0] is not None
    # query 1: w(0)=cap, w(2.0)=floor(1e9/4)=25e7, w(1e-9)=cap (overflow-capped)
    w0, w1, w2 = W_CAP, 250_000_000, W_CAP
    num = w0 * 5 + w1 * 7 + w2 * 9
    den = w0 + w1 + w2
    r1 = a[a.big_row_id == 1].iloc[0]
    assert (r1.idw_num, r1.idw_den, r1.idw_milli) == (num, den, (1000 * num) // den)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("k", [1, 2])
def test_idw_interpolate_missing_neighbor_raises(force_shards, k):
    """A kNN neighbor id missing from ``values`` raises the same KeyError
    with one values shard and with forced K > 1 (never a silently dropped
    neighbor)."""
    import ray.data

    from rayjoin.functions.interp import idw_interpolate

    knn = pa.table({
        "big_row_id": pa.array([1, 1, 2], pa.int64()),
        "small_row_id": pa.array([10, 13, 12], pa.int64()),
        "distance": pa.array([1.0, 2.0, 3.0], pa.float64()),
    })
    vals = pa.table({
        "small_row_id": pa.array([10, 11, 12], pa.int64()),
        "value": pa.array([5, 7, 9], pa.int64()),
    })
    spy = force_shards(3, k)
    # Ray Data re-raises a UDF's error as a UserCodeException naming it
    with pytest.raises(Exception, match="KeyError: 'idw_interpolate: neighbor id missing"):
        idw_interpolate(ray.data.from_arrow(knn),
                        ray.data.from_arrow(vals)).materialize()
    assert (k > 1) == (spy.cuts[0] is not None)


@pytest.mark.usefixtures("ray_session")
def test_bm25_scores_vs_direct():
    """bm25_scores equals a direct per-doc computation with the same
    fixed-point contract; docs without any query term are absent."""
    import math

    import ray.data

    from rayjoin.functions.text import bm25_scores

    texts = ["join hash join", "scan scan scan window", "nothing here",
             "join", "window window hash join scan"]
    ids = list(range(len(texts)))
    terms = ["join", "hash", "scan", "window"]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})

    toks = [s.split(" ") for s in texts]
    N = len(texts)
    dl = [len(tk) for tk in toks]
    avgdl = np.float64(sum(dl)) / np.float64(N)
    k1, b = 1.2, 0.75
    exp = {}
    for i, tk in enumerate(toks):
        s = 0
        for term in sorted(set(tk) & set(terms)):
            tf = tk.count(term)
            df = sum(1 for tt in toks if term in tt)
            idf = math.log((np.float64(N) - df + 0.5) / (df + 0.5) + 1.0)
            num = tf * (k1 + 1.0)
            den = tf + k1 * (1.0 - b + b * dl[i] / avgdl)
            s += int(np.floor(1000000.0 * (idf * num / den)))
        if set(tk) & set(terms):
            exp[i] = s
    out = bm25_scores(ray.data.from_arrow(t).repartition(2), terms).to_pandas()
    assert dict(zip(out.doc_id, out.bm25_micro)) == exp
    assert 2 not in dict(zip(out.doc_id, out.bm25_micro))


@pytest.mark.usefixtures("ray_session")
def test_funnel_ordered_semantics():
    """Funnel steps require STRICT temporal progression: a purchase before
    the first view never counts; depth reflects the earliest chain."""
    import ray.data

    from rayjoin.functions.stream import funnel

    rows = [
        # user 1: full ordered funnel
        (1, 100, "view"), (1, 200, "click"), (1, 300, "purchase"),
        # user 2: purchase BEFORE view -> depth 1 only
        (2, 50, "purchase"), (2, 100, "view"),
        # user 3: click first, then view, then click again -> depth 2
        (3, 10, "click"), (3, 20, "view"), (3, 30, "click"),
        # user 4: no relevant events
        (4, 10, "error"),
        # user 5: simultaneous ts never satisfies the strict ordering
        (5, 10, "view"), (5, 10, "click"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[1] for r in rows], "datetime64[us]")),
        "event_type": pa.array([r[2] for r in rows]),
    })
    out = funnel(ray.data.from_arrow(t).repartition(2)).to_pandas()
    got = {r.user_id: (r.depth, r.t1_us, r.t2_us, r.t3_us) for r in out.itertuples()}
    assert got[1] == (3, 100, 200, 300)
    assert got[2] == (1, 100, -1, -1)
    assert got[3] == (2, 20, 30, -1)
    assert got[4] == (0, -1, -1, -1)
    assert got[5] == (1, 10, -1, -1)


@pytest.mark.usefixtures("ray_session")
def test_duplicated_ranges_merge_semantics():
    """Ranges coalesce overlapping AND back-to-back windows; disjoint dup
    regions in one doc yield separate ranges; ranges reproduce the brute
    position set exactly."""
    import ray.data

    from rayjoin.functions.dedup import duplicated_ranges

    W = 8
    rng = np.random.default_rng(13)
    filler1 = "".join(rng.choice(list("abcdefgh"), 30))
    filler2 = "".join(rng.choice(list("qrstuvwx"), 30))
    shared1, shared2 = "AAAAAAAAAAAA", "BBBBBBBBBB"  # 12 and 10 chars
    # doc 0 has both shared runs separated by unique filler; docs 1/2 carry
    # one each
    docs = [shared1 + filler1 + shared2, filler2 + shared1, shared2 + filler2[::-1]]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(docs)})
    out = duplicated_ranges(ray.data.from_arrow(t).repartition(2), window=W) \
        .to_pandas().sort_values(["doc_id", "start"]).reset_index(drop=True)

    # brute force: dup windows then greedy merge with gap > W
    from collections import Counter

    wins = Counter(s[p:p + W] for s in docs for p in range(len(s) - W + 1))
    exp = []
    for i, s in enumerate(docs):
        ps = [p for p in range(len(s) - W + 1) if wins[s[p:p + W]] >= 2]
        for p in ps:
            if exp and exp[-1][0] == i and p <= exp[-1][2]:
                exp[-1] = (i, exp[-1][1], max(exp[-1][2], p + W))
            else:
                exp.append((i, p, p + W))
    got = list(zip(out.doc_id, out.start, out.end))
    assert got == exp
    # doc 0 has exactly two disjoint ranges (the two shared runs)
    assert sum(1 for g in got if g[0] == 0) == 2


@pytest.mark.usefixtures("ray_session")
def test_apply_cut_ranges_splice():
    """Cut surgery: middle ranges excise cleanly, a full-doc range empties
    the text, docs without ranges pass through byte-identical (including
    the empty doc)."""
    import ray.data

    from rayjoin.functions.dedup import apply_cut_ranges

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["hello dup world dup end", "untouched", "allgone", ""]),
    })
    ranges = pa.table({
        "doc_id": pa.array([0, 0, 2], pa.int64()),
        "start": pa.array([6, 16, 0], pa.int64()),
        "end": pa.array([10, 20, 7], pa.int64()),
    })
    out = apply_cut_ranges(ray.data.from_arrow(docs).repartition(2),
                           ray.data.from_arrow(ranges)).to_pandas()
    got = dict(zip(out.doc_id, out.cut_text))
    assert got == {0: "hello world end", 1: "untouched", 2: "", 3: ""}


@pytest.mark.usefixtures("ray_session")
def test_focal_sum_grid_clipping():
    """3x3 focal sums: interior tiles see all 9 contributions, corner
    tiles clip (no wraparound); values match a dict-based oracle."""
    import ray.data

    from rayjoin.pipelines.raster import focal_sum

    res, n = 4, 16
    tiles = [0, 1, n, n + 1, 5 * n + 5, (n - 1) * n + (n - 1)]  # corner block + interior + far corner
    vals = [1, 2, 3, 4, 10, 7]
    t = pa.table({"tile_id": pa.array(tiles, pa.int64()),
                  "n": pa.array(vals, pa.int64())})
    out = focal_sum(ray.data.from_arrow(t), resolution=res).to_pandas()
    got = dict(zip(out.tile_id, out.focal_sum))

    exp = {}
    for tid, v in zip(tiles, vals):
        ix, iy = tid % n, tid // n
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < n and 0 <= jy < n:
                    exp[jy * n + jx] = exp.get(jy * n + jx, 0) + v
    assert got == exp
    assert got[0] == 1 + 2 + 3 + 4        # corner collects the 2x2 block
    assert got[(n - 1) * n + (n - 1)] == 7  # far corner: itself only


@pytest.mark.usefixtures("ray_session")
def test_similarity_join_exact_vs_bruteforce_and_minhash():
    """PPJoin prefix filtering is EXACT: pairs equal the brute-force
    shingle-set Jaccard>=t truth, and (on this corpus) contain every pair
    minhash finds."""
    import ray.data

    from rayjoin.functions.dedup import (
        _mix64,
        _segment_unique,
        _shingle_hashes,
        minhash_dedup_pairs,
        similarity_join_shingles,
    )

    base = [f"doc number {i} with some unique content tokens {i*7%13}" * 4
            for i in range(40)]
    texts = base + [base[3], base[7], base[5][:-6] + "zzzzzz"]
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t).repartition(3)

    # brute-force truth over hashed shingle sets (same universe the
    # operator uses)
    h, off = _shingle_hashes(t["text"], 5)
    h = _mix64(h)
    uh, useg, cnt = _segment_unique(h, off)
    sets = [set(uh[useg == i].tolist()) for i in range(len(ids))]
    exp = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = len(sets[i] & sets[j])
            uni = len(sets[i] | sets[j])
            if uni and inter / uni >= 0.8:
                exp[(i, j)] = (inter, uni)

    out = similarity_join_shingles(ds, threshold=0.8).to_pandas()
    got = {(r.id_a, r.id_b): (r.inter, r.uni) for r in out.itertuples()}
    assert got == exp and len(exp) >= 3

    mh = minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    mh_pairs = set(zip(mh.id_a, mh.id_b))
    assert mh_pairs <= set(got)  # the exact join dominates the LSH join


def test_cooccurrence_counts_and_pmi(ray_session):
    """Brute-force truth over ordered skip-gram pairs: doc boundaries are
    never crossed, all distances 1..window count, min_count prunes after
    the global sum, and pmi_micro reproduces floor(1e6*ln(cnt*P/(la*rb)))
    computed independently."""
    import math
    from collections import Counter

    import pytest
    import ray.data

    from rayjoin.functions.text import cooccurrence_counts, cooccurrence_pmi

    texts = ["a b a c", "b a", "c", "", "a a a"]
    window = 2
    exp = Counter()
    for s in texts:
        toks = s.split(" ")
        for i, ta in enumerate(toks):
            for d in (1, 2):
                if i + d < len(toks):
                    exp[(ta, toks[i + d])] += 1
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)})).repartition(3)
    out = cooccurrence_counts(ds, window=window).to_pandas()
    got = {(r.tok_a, r.tok_b): r.cnt for r in out.itertuples()}
    assert got == dict(exp)

    pruned = cooccurrence_counts(ds, window=window, min_count=2).to_pandas()
    got2 = {(r.tok_a, r.tok_b): r.cnt for r in pruned.itertuples()}
    assert got2 == {k: v for k, v in exp.items() if v >= 2} and got2 != got

    pmi = cooccurrence_pmi(ds, window=window).to_pandas()
    P = sum(exp.values())
    la = Counter(); rb = Counter()
    for (a, b), c in exp.items():
        la[a] += c; rb[b] += c
    for r in pmi.itertuples():
        want = math.floor(1_000_000 * math.log(
            (exp[(r.tok_a, r.tok_b)] * P) / (la[r.tok_a] * rb[r.tok_b])))
        assert (r.cnt, r.pmi_micro) == (exp[(r.tok_a, r.tok_b)], want)
    assert len(pmi) == len(exp)

    with pytest.raises(ValueError, match="window"):
        cooccurrence_counts(ds, window=0)


def test_global_rank_ties_and_guard(ray_session):
    """RANK()/cume semantics with heavy ties: rank = 1 + #smaller (peers
    share), cume_cnt = #<= (peers included); the distinct-domain guard
    raises rather than broadcasting an unbounded lookup."""
    import pytest
    import ray.data

    from rayjoin.functions.stats import global_rank

    rng = np.random.default_rng(9)
    v = rng.integers(-5, 6, 400)
    t = pa.table({"doc_id": pa.array(np.arange(400, dtype=np.int64)),
                  "v": pa.array(v, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(5)
    out = global_rank(ds, value_col="v").to_pandas().sort_values("doc_id")
    exp_rnk = np.array([1 + int((v < x).sum()) for x in v])
    exp_cume = np.array([int((v <= x).sum()) for x in v])
    assert (out.rnk.to_numpy() == exp_rnk).all()
    assert (out.cume_cnt.to_numpy() == exp_cume).all()

    with pytest.raises(ValueError, match="distinct"):
        global_rank(ds, value_col="doc_id", max_distinct=10)


@pytest.mark.usefixtures("ray_session")
def test_similarity_join_empty_sets_and_positional_filter():
    """Docs shorter than k have EMPTY shingle sets: the verify convention
    (and the minhash SQL twin) scores both-empty pairs as Jaccard 1.0, so
    the exact join must emit them with inter = uni = 0 (ADVICE r3).  Also
    pins the positional filter's exactness on a corpus where prefixes
    collide at different positions."""
    import ray.data

    from rayjoin.functions.dedup import (
        _mix64,
        _segment_unique,
        _shingle_hashes,
        similarity_join_shingles,
    )

    rng = np.random.default_rng(11)
    texts = ["ab", "x", "", "abcdefghij" * 4]
    # low-entropy tail: shared vocabulary so prefixes collide
    vocab = ["alpha", "beta", "gamma", "delta", "epsln"]
    for i in range(60):
        words = [vocab[j] for j in rng.integers(0, len(vocab), 12)]
        texts.append(" ".join(words))
    texts.append(texts[10])  # exact twin of a low-entropy doc
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t).repartition(3)

    h, off = _shingle_hashes(t["text"], 5)
    h = _mix64(h)
    uh, useg, _ = _segment_unique(h, off)
    sets = [set(uh[useg == i].tolist()) for i in range(len(ids))]
    exp = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = len(sets[i] & sets[j])
            uni = len(sets[i] | sets[j])
            jac = 1.0 if uni == 0 else inter / uni
            if jac >= 0.8:
                exp[(i, j)] = (inter, uni)

    out = similarity_join_shingles(ds, threshold=0.8).to_pandas()
    got = {(r.id_a, r.id_b): (r.inter, r.uni) for r in out.itertuples()}
    assert got == exp
    # the three sub-k docs pair with each other at (0, 0)
    assert got[(0, 1)] == (0, 0) and got[(0, 2)] == (0, 0) and got[(1, 2)] == (0, 0)


def test_min_required_overlap_matches_float_acceptance():
    """ADVICE r3: the prefix length must be derived from the verify's
    ACTUAL acceptance test fl(o/s) >= t, not a float ceil(t*s) that can
    land one off at integer boundaries.  Brute-force o_min for every s and
    a threshold sweep that includes doubles sitting just above/below exact
    rationals."""
    import math

    from rayjoin.functions.dedup import (_exact_prefix_lengths,
                                         _min_required_overlap)

    thresholds = [0.8, 0.95, 0.1, 1.0, 0.5, 0.33333333,
                  math.nextafter(0.8, 1.0), math.nextafter(0.8, 0.0),
                  math.nextafter(2 / 3, 1.0), math.nextafter(2 / 3, 0.0)]
    sizes = np.arange(0, 300, dtype=np.int64)
    for t in thresholds:
        o = _min_required_overlap(sizes, t)
        p = _exact_prefix_lengths(sizes, t)
        for s in range(1, 300):
            want = next(oo for oo in range(0, s + 2) if oo / s >= t)
            assert o[s] == want, (t, s, o[s], want)
            assert p[s] == min(max(s - want + 1, 1), s)
        assert o[0] == 0 and p[0] == 0


@pytest.mark.usefixtures("ray_session")
def test_idw_guards_zero_weight_and_value_range():
    """ADVICE r3: (a) neighbors all farther than ~31623 units quantize to
    weight 0 -> the integer division silently returned 0 where the SQL twin
    errors; (b) |value| past the fixed-point bound overflowed int64.  Both
    now raise with the cause."""
    import ray.data

    from rayjoin.functions.interp import idw_interpolate

    def knn_tbl(dist):
        return ray.data.from_arrow(pa.table({
            "big_row_id": pa.array([1, 1, 2], pa.int64()),
            "small_row_id": pa.array([10, 11, 10], pa.int64()),
            "distance": pa.array([dist, dist, 2.0], pa.float64()),
        }))

    def vals(v):
        return ray.data.from_arrow(pa.table({
            "small_row_id": pa.array([10, 11], pa.int64()),
            "value": pa.array([v, 7], pa.int64()),
        }))

    # healthy case still works
    out = idw_interpolate(knn_tbl(2.0), vals(5)).to_pandas()
    assert set(out.big_row_id) == {1, 2}

    # raised in Ray map tasks -> surfaces wrapped in RayTaskError
    with pytest.raises(Exception, match="quantized to 0"):
        idw_interpolate(knn_tbl(1e6), vals(5)).to_pandas()

    with pytest.raises(Exception, match="overflow int64"):
        idw_interpolate(knn_tbl(2.0), vals(10_000_000)).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_embedding_dups_recall_at_default_threshold():
    """VERDICT r4 #9: the auto geometry (n_tables from the CONFIGURED
    threshold via the SimHash collision model, target per-pair miss 1e-2)
    must deliver >= 0.99 recall on planted truth AT threshold=0.95, not
    just at cos~0.999.  Planted pairs get exact cosines in [0.955, 0.99]
    via orthogonal decomposition; deterministic seeds end to end."""
    import ray.data

    from rayjoin.functions.dedup import embedding_dup_pairs

    rng = np.random.default_rng(17)
    n, dim, planted = 4000, 24, 1500
    M = rng.standard_normal((n, dim)).astype(np.float64)
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    base = M[:planted]
    g = rng.standard_normal((planted, dim))
    g -= (g * base).sum(1, keepdims=True) * base  # orthogonalize
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    c = rng.uniform(0.955, 0.99, size=(planted, 1))
    dup = c * base + np.sqrt(1 - c * c) * g  # exact cosine c with base
    V = np.vstack([M, dup]).astype(np.float32)
    ids = np.concatenate([np.arange(n), np.arange(planted) + 100_000]).astype(np.int64)
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, V.size + 1, dim, dtype=np.int32)),
        pa.array(V.ravel(), pa.float32()),
    )
    ds = ray.data.from_arrow(pa.table({"vec_id": pa.array(ids), "embedding": emb}))

    got = embedding_dup_pairs(ds, threshold=0.95).to_pandas()
    found = set(map(tuple, got[["id_a", "id_b"]].to_numpy()))
    # brute truth (float32 normalization, same as the operator sees)
    Mn = V.astype(np.float64)
    Mn /= np.linalg.norm(Mn, axis=1, keepdims=True)
    S = Mn @ Mn.T
    ii, jj = np.nonzero(np.triu(S >= 0.95, 1))
    true = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
            for i, j in zip(ii, jj)}
    assert found <= true or len(found - true) <= 2  # float32 edge ties only
    planted_true = {(a, a + 100_000) for a in range(planted)} & true
    rec = len(found & planted_true) / len(planted_true)
    assert rec >= 0.99, (rec, len(planted_true))


def _paragraph_dedup_oracle(docs: dict[int, str], sep: str = "\n") -> dict[int, str]:
    """Brute-force first-occurrence paragraph dedup (the semantic spec of
    rayjoin.functions.dedup.paragraph_dedup and its SQL twin)."""
    seen = set()
    out = {}
    for doc_id in sorted(docs):
        kept = []
        for para in docs[doc_id].split(sep):
            if para not in seen:
                seen.add(para)
                kept.append(para)
        out[doc_id] = sep.join(kept)
    return out


@pytest.mark.usefixtures("ray_session")
def test_paragraph_dedup_matches_oracle(force_shards):
    """Cross-doc paragraph dedup: first occurrence survives, later copies
    are spliced out with their separator, empty paragraphs dedup too,
    all-dropped docs come back with empty text, untouched docs are
    byte-identical.  Broadcast and join winner tiers agree."""
    import ray.data

    from rayjoin.functions.dedup import paragraph_dedup

    docs = {
        0: "alpha\nbeta\ngamma",
        1: "beta\ndelta\nalpha",        # two cross-doc dups
        2: "alpha\nbeta\ngamma",        # fully duplicated doc -> ""
        3: "unique one\nunique two",    # untouched
        4: "eps\n\nzeta\n\neps",        # empty paragraphs + in-doc repeat
        5: "gamma",                     # single dropped paragraph
        6: "",                          # empty doc ('' dedups vs doc4's)
    }
    exp = _paragraph_dedup_oracle(docs)
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    ds = ray.data.from_arrow(t).repartition(3)

    got_b = paragraph_dedup(ds).to_pandas()
    assert dict(zip(got_b.doc_id, got_b.text_dedup)) == exp

    spy = force_shards(4, 2)
    got_j = paragraph_dedup(ds).to_pandas()
    assert dict(zip(got_j.doc_id, got_j.text_dedup)) == exp
    assert any(c is not None for c in spy.cuts)


@pytest.mark.usefixtures("ray_session")
def test_paragraph_dedup_random_differential(force_shards):
    """500 random docs over a tiny paragraph vocabulary (heavy cross-doc
    duplication) match the brute-force oracle on both winner tiers; with
    passthrough the extra column rides along."""
    import ray.data

    from rayjoin.functions.dedup import paragraph_dedup

    rng = np.random.default_rng(7)
    vocab = [f"p{i} text body {i}" for i in range(40)] + [""]
    docs = {
        int(i): "\n".join(rng.choice(vocab, size=rng.integers(1, 9)))
        for i in range(500)
    }
    exp = _paragraph_dedup_oracle(docs)
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)]),
                  "lang": pa.array(["en"] * len(docs))})
    ds = ray.data.from_arrow(t).repartition(5)

    got = paragraph_dedup(ds, passthrough=True).to_pandas()
    assert dict(zip(got.doc_id, got.text_dedup)) == exp
    assert set(got.columns) >= {"doc_id", "text", "lang", "text_dedup"}

    spy = force_shards(41, 3)
    got_j = paragraph_dedup(ds).to_pandas()
    assert dict(zip(got_j.doc_id, got_j.text_dedup)) == exp
    assert any(c is not None for c in spy.cuts)


@pytest.mark.usefixtures("ray_session")
def test_bbox_pruned_read_skips_partitions_exactly():
    """Zone-map pruning (stages/sink.py): the pruned read touches a strict
    subset of partition directories, returns exactly the full-scan-filter
    rows, and the manifest row counts cover the layout.  An empty cover
    (bbox outside every zone) yields zero rows with the right schema."""
    import os
    import shutil

    import ray.data

    from rayjoin.stages.geocode import geocode_from_key
    from rayjoin.stages.sink import (build_zone_manifest, prune_partitions,
                                     read_bbox_pruned,
                                     write_hilbert_partitioned)

    out = "/tmp/rayjoin_test_bboxread"
    shutil.rmtree(out, ignore_errors=True)
    t = pa.table({"doc_id": pa.array(np.arange(4000, dtype=np.int64))})
    geo = ray.data.from_arrow(t).map_batches(
        lambda b: geocode_from_key(b, key_col="doc_id"), batch_format="pyarrow")
    write_hilbert_partitioned(geo, out, num_partitions=8)
    manifest = build_zone_manifest(out)
    n_parts = manifest.num_rows
    assert manifest["rows"].to_pandas().sum() == 4000

    box = (-25.0, 25.0, -60.0, 60.0)
    keys = prune_partitions(manifest, *box)
    assert 0 < len(keys) < n_parts, (len(keys), n_parts)  # pruning is real

    got = read_bbox_pruned(out, *box, columns=["doc_id", "lat", "lon"]).to_pandas()
    full = ray.data.read_parquet(out).to_pandas()
    m = ((full.lat >= box[0]) & (full.lat <= box[1])
         & (full.lon >= box[2]) & (full.lon <= box[3]))
    exp = full[m][["doc_id", "lat", "lon"]].sort_values("doc_id").reset_index(drop=True)
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got.equals(exp)
    assert len(got) > 0

    # residual-empty result (a zone covers the box but no row survives):
    # Dataset schema holds even at zero rows (to_pandas drops columns for
    # 0-row datasets — a Ray display quirk, so assert on the schema)
    res_empty = read_bbox_pruned(out, 89.5, 89.9, 179.5, 179.9,
                                 columns=["doc_id", "lat", "lon"])
    assert res_empty.count() == 0
    assert res_empty.schema().names == ["doc_id", "lat", "lon"]

    # zone-empty cover (no partition intersects at all): schema from the
    # footer, zero rows, zero data scanned
    assert prune_partitions(manifest, -0.2, -0.1, 179.0, 180.0) == []
    cov_empty = read_bbox_pruned(out, -0.2, -0.1, 179.0, 180.0,
                                 columns=["doc_id", "lat", "lon"])
    assert cov_empty.count() == 0
    assert cov_empty.schema().names == ["doc_id", "lat", "lon"]


@pytest.mark.usefixtures("ray_session")
def test_merge_intervals_vs_brute_force():
    """Bucketed interval union == per-key sorted sweep (overlap AND touch
    merge, 1-based island ids, n_events per island)."""
    import ray.data

    from rayjoin.functions.stream import merge_intervals

    rng = np.random.default_rng(17)
    n = 4000
    key = rng.integers(0, 60, n).astype(np.int64)
    s = rng.integers(0, 1_000_000, n).astype(np.int64)
    e = s + rng.integers(0, 30_000, n).astype(np.int64)
    # force exact-touch cases: some intervals start exactly at another's end
    touch = rng.integers(0, n, 200)
    s[touch[:100]] = e[touch[100:]]
    t = pa.table({"user_id": pa.array(key), "s": pa.array(s), "e": pa.array(e)})

    got = (
        merge_intervals(ray.data.from_arrow(t).repartition(7), num_buckets=16)
        .to_pandas()
        .sort_values(["user_id", "island_id"])
        .reset_index(drop=True)
    )

    rows = []
    for uid in np.unique(key):
        m = key == uid
        order = np.lexsort((e[m], s[m]))
        ss, ee = s[m][order], e[m][order]
        isl = 0
        cur_s = cur_e = None
        cnt = 0
        for a, b in zip(ss, ee):
            if cur_e is None or a > cur_e:
                if cur_e is not None:
                    rows.append((uid, isl, cur_s, cur_e, cnt))
                isl += 1
                cur_s, cur_e, cnt = a, b, 0
            cur_e = max(cur_e, b)
            cnt += 1
        rows.append((uid, isl, cur_s, cur_e, cnt))
    import pandas as pd

    exp = pd.DataFrame(
        rows, columns=["user_id", "island_id", "island_start", "island_end", "n_events"]
    )
    # int64 input -> int64 output (ADVICE r4: no silent timestamp coercion)
    assert got["island_start"].dtype == np.int64
    assert got["island_end"].dtype == np.int64
    exp = exp.astype("int64").sort_values(["user_id", "island_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp)

    # timestamp input -> timestamp output (the historic behavior, unchanged)
    t_ts = pa.table({
        "user_id": pa.array(key),
        "s": pa.array(s, pa.int64()).cast(pa.timestamp("us")),
        "e": pa.array(e, pa.int64()).cast(pa.timestamp("us")),
    })
    got_ts = (
        merge_intervals(ray.data.from_arrow(t_ts).repartition(7), num_buckets=16)
        .to_pandas()
        .sort_values(["user_id", "island_id"])
        .reset_index(drop=True)
    )
    assert str(got_ts["island_start"].dtype).startswith("datetime64")
    got_ts["island_start"] = got_ts["island_start"].astype("int64")
    got_ts["island_end"] = got_ts["island_end"].astype("int64")
    pd.testing.assert_frame_equal(got_ts.astype("int64"), exp)


def test_gopher_rules_vs_python_reference():
    """The vectorized composite quality gate == a per-doc Python reference
    (metrics + keep) on adversarial docs: empty-ish, all-dup, long words,
    stopword-free."""
    from collections import Counter

    from rayjoin.functions.text import gopher_rules

    docs = [
        "join hash row batch scan order data filter extra words here now",
        "dup dup dup dup dup dup dup dup dup dup",
        "supercalifragilistic word join hash row batch five six seven eight",
        "a b c d e f g h i j k l m n o p q r s t u v w x y z",
        "join",
    ]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    got = gopher_rules(t, min_words=5, max_words=20, mean_lo_milli=1000,
                       mean_hi_milli=9000, top_word_max_milli=300,
                       dup_word_max_milli=400, min_stopwords=2).to_pandas()
    for i, text in enumerate(docs):
        toks = text.split(" ")
        n = len(toks)
        cnt = Counter(toks)
        nd = len(cnt)
        mm = 1000 * (len(text) - (n - 1)) // n
        top = 1000 * max(cnt.values()) // n
        dup = 1000 * (n - nd) // n
        nsw = len(set(toks) & {"join", "hash", "row", "batch", "scan",
                               "order", "data", "filter"})
        keep = (5 <= n <= 20 and 1000 <= mm <= 9000 and top <= 300
                and dup <= 400 and nsw >= 2)
        r = got[got.doc_id == i].iloc[0]
        assert (r.n_tokens, r.n_distinct, r.max_token_len) == \
            (n, nd, max(len(x) for x in toks))
        assert (r.mean_token_len_milli, r.top_word_milli, r.dup_word_milli,
                r.n_stopwords) == (mm, top, dup, nsw)
        assert bool(r.keep) == keep
    # the fixture must exercise both outcomes
    assert 0 < int(got.keep.sum()) < len(docs)


def test_token_entropy_vs_python_reference():
    import math
    from collections import Counter

    from rayjoin.functions.text import token_entropy

    docs = ["a a a b c", "x", "same same same same", "p q r s t u"]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    got = token_entropy(t).to_pandas()
    for i, text in enumerate(docs):
        cnt = Counter(text.split(" "))
        ent = sum(c * math.floor(1_000_000 * math.log(c)) for c in cnt.values())
        r = got[got.doc_id == i].iloc[0]
        assert (r.n_tokens, r.n_distinct, r.ent_num) == \
            (sum(cnt.values()), len(cnt), ent)


def test_extract_links_edge_cases():
    from rayjoin.stages.extract import extract_links_batch

    html = pa.array([
        '<a href="u1">x</a> text <a href="u2">y</a>',
        "no links at all",
        '<a href="unterminated',          # dropped
        '<a href="">e</a><a href="u3">z</a>',  # empty href kept, order holds
        "",
    ]).cast(pa.large_string())
    ids = pa.array([10, 20, 30, 40, 50], pa.int64())
    got = extract_links_batch(html, ids).to_pandas()
    rows = list(zip(got.doc_id, got.link_idx, got.href))
    assert rows == [(10, 0, "u1"), (10, 1, "u2"), (40, 0, ""), (40, 1, "u3")]


def test_merge_intervals_lazy_input_mirrors_type(ray_session):
    """Type mirroring must come from the DATA, not the driver-side schema
    probe: a lazy map_batches-built upstream has schema None, and int64
    intervals must still come back int64 (review finding r5 — the
    metadata-only probe silently fell back to timestamp[us] there)."""
    import ray.data

    from rayjoin.functions.stream import merge_intervals

    t = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "s": pa.array([0, 5, 100], pa.int64()),
        "e": pa.array([10, 20, 110], pa.int64()),
    })
    lazy = ray.data.from_arrow(t).map_batches(lambda b: b,
                                              batch_format="pyarrow")
    out = merge_intervals(lazy, num_buckets=4).to_pandas()
    assert out["island_start"].dtype.kind == "i"  # int64 in -> int64 out
    assert sorted(out["n_events"]) == [1, 2]

    ts = pa.table({
        "user_id": t["user_id"],
        "s": pa.compute.cast(t["s"], pa.timestamp("us")),
        "e": pa.compute.cast(t["e"], pa.timestamp("us")),
    })
    lazy_ts = ray.data.from_arrow(ts).map_batches(lambda b: b,
                                                  batch_format="pyarrow")
    out_ts = merge_intervals(lazy_ts, num_buckets=4).to_pandas()
    assert out_ts["island_start"].dtype.kind == "M"  # ts in -> ts out


def test_expand_exact_pairs_clique_guard(ray_session):
    """pairs-mode expansion of an exact-dup group whose clique exceeds
    max_clique_pairs raises a loud, actionable error (review finding r5:
    np.triu_indices used to OOM the worker instead), while star mode
    handles the same group in O(m)."""
    import ray.data

    from rayjoin.functions.dedup import _expand_exact_pairs

    empty_pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
    }))
    members = ray.data.from_arrow(pa.table({
        "rep_id": pa.array([0] * 50, pa.int64()),
        "member_id": pa.array(range(1, 51), pa.int64()),
    }))
    dup = ray.data.from_arrow(pa.table({
        "content_hash": pa.array([7], pa.int64()),
        "rep_id": pa.array([0], pa.int64()),
    })).materialize()

    with pytest.raises(Exception, match="expand_exact='star'"):
        _expand_exact_pairs(empty_pairs, members, dup, mode="pairs",
                            max_clique_pairs=100).to_pandas()

    ok = _expand_exact_pairs(empty_pairs, members, dup, mode="pairs",
                             max_clique_pairs=10_000).to_pandas()
    assert len(ok) == 51 * 50 // 2  # full clique incl. the rep

    star = _expand_exact_pairs(empty_pairs, members, dup,
                               mode="star").to_pandas()
    assert len(star) == 50  # O(m) rows


def _cohort_ref(users, ts_us, anchor, bw):
    pairs = {(u, (t - anchor) // bw) for u, t in zip(users, ts_us)}
    coh = {}
    for u, b in pairs:
        coh[u] = min(coh.get(u, b), b)
    cells = {}
    for u, b in pairs:
        key = (coh[u], b - coh[u])
        cells[key] = cells.get(key, 0) + 1
    return sorted((c, d, n) for (c, d), n in cells.items())


def test_cohort_retention_vs_python_reference(ray_session):
    import ray.data

    from rayjoin.functions.stream import cohort_retention

    rng = np.random.default_rng(17)
    n = 3000
    users = rng.integers(0, 40, n).astype(np.int64)
    ts_us = rng.integers(0, 50 * 3600, n).astype(np.int64) * 1_000_000
    t = pa.table({"user_id": pa.array(users),
                  "ts": pa.array(ts_us).cast(pa.timestamp("us"))})
    ds = ray.data.from_arrow(t).repartition(5).materialize()
    want = _cohort_ref(users, ts_us, 0, 3_600_000_000)

    for bcast in (20_000_000, 0):  # broadcast tier, then forced join tier
        out = cohort_retention(ds, anchor_us=0, bucket_us=3_600_000_000,
                               broadcast_rows=bcast).to_pandas()
        got = sorted(zip(out.cohort.astype(int), out.delta.astype(int),
                         out.n_users.astype(int)))
        assert got == want, f"broadcast_rows={bcast}"


def test_cohort_retention_hand_case(ray_session):
    import ray.data

    from rayjoin.functions.stream import cohort_retention

    # user 1: first in bucket 0, returns bucket 2 (twice -> one pair);
    # user 2: first in bucket 1; user 3: first in bucket 0, returns 1 and 2.
    users = [1, 1, 1, 2, 3, 3, 3]
    buckets = [0, 2, 2, 1, 0, 1, 2]
    ts = pa.array([b * 10 for b in buckets], pa.int64()).cast(pa.timestamp("us"))
    ds = ray.data.from_arrow(pa.table({"user_id": pa.array(users, pa.int64()),
                                       "ts": ts}))
    out = cohort_retention(ds, anchor_us=0, bucket_us=10).to_pandas()
    got = sorted(zip(out.cohort.astype(int), out.delta.astype(int),
                     out.n_users.astype(int)))
    assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 2), (1, 0, 1)]

    with pytest.raises(ValueError):
        cohort_retention(ds, anchor_us=0, bucket_us=0)


def test_bpe_pair_counts_vs_python_reference(ray_session):
    import ray.data

    from rayjoin.functions.text import bpe_pair_counts

    docs = ["the cat sat", "chat château 日本語 the", "", "a bb ccc the the"]
    from collections import Counter
    ref = Counter()
    for d in docs:
        for tok in d.split(" "):
            for i in range(len(tok) - 1):
                ref[tok[i:i + 2]] += 1
    want = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    ds = ray.data.from_arrow(pa.table({"text": pa.array(docs, pa.string())}))
    out = bpe_pair_counts(ds.repartition(2), k=10).to_pandas()
    got = list(zip(out.pair.tolist(), out.n.astype(int).tolist()))
    assert got == want  # includes multibyte chars and tie ordering


def test_resample_locf_vs_python_reference(ray_session):
    import ray.data

    from rayjoin.functions.stream import resample_locf

    rng = np.random.default_rng(23)
    n = 2000
    users = rng.integers(0, 25, n).astype(np.int64)
    ts_us = rng.integers(0, 40 * 10, n).astype(np.int64)  # bucket width 10
    vals = np.round(rng.normal(size=n), 3)
    eid = np.arange(n, dtype=np.int64)
    bw = 10

    ref = {}
    for u in np.unique(users):
        m = users == u
        b = ts_us[m] // bw
        vm = np.floor(vals[m] * 1000.0).astype(np.int64)
        order = np.lexsort((eid[m], ts_us[m]))
        lastv = {}
        for i in order:
            lastv[b[i]] = vm[i]
        cur = None
        for bb in range(int(b.min()), int(b.max()) + 1):
            if bb in lastv:
                cur = lastv[bb]
                ref[(u, bb)] = (cur, 0)
            else:
                ref[(u, bb)] = (cur, 1)

    t = pa.table({"user_id": pa.array(users),
                  "ts": pa.array(ts_us).cast(pa.timestamp("us")),
                  "event_id": pa.array(eid),
                  "value": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(5)
    out = resample_locf(ds, anchor_us=0, bucket_us=bw).to_pandas()
    got = {(int(r.user_id), int(r.bucket)): (int(r.vm), int(r.filled))
           for r in out.itertuples()}
    assert got == ref

    with pytest.raises(ValueError):
        resample_locf(ds, anchor_us=0, bucket_us=0)


def test_transition_counts_vs_python_reference(ray_session):
    import ray.data

    from rayjoin.functions.stream import transition_counts

    rng = np.random.default_rng(31)
    n = 1500
    users = rng.integers(0, 30, n).astype(np.int64)
    ts_us = rng.integers(0, 10_000, n).astype(np.int64)
    eid = np.arange(n, dtype=np.int64)
    types = np.array(["view", "click", "buy", "share"])[rng.integers(0, 4, n)]

    from collections import Counter
    ref = Counter()
    for u in np.unique(users):
        m = np.flatnonzero(users == u)
        m = m[np.lexsort((eid[m], ts_us[m]))]
        for a, b in zip(types[m[:-1]], types[m[1:]]):
            ref[(a, b)] += 1

    t = pa.table({"user_id": pa.array(users),
                  "ts": pa.array(ts_us).cast(pa.timestamp("us")),
                  "event_id": pa.array(eid),
                  "event_type": pa.array(types.tolist(), pa.string())})
    out = transition_counts(
        ray.data.from_arrow(t).repartition(6)).to_pandas()
    got = {(r.from_type, r.to_type): int(r.n) for r in out.itertuples()}
    assert got == dict(ref)


def test_bigram_lm_scores_vs_python_reference(ray_session):
    import math

    import ray.data

    from rayjoin.functions.text import bigram_lm_scores

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    docs = [" ".join(vocab[j] for j in rng.integers(0, 30, rng.integers(0, 15)))
            for _ in range(200)]
    toks = [d.split(" ") for d in docs]
    V = len({tok for ts in toks for tok in ts})
    from collections import Counter
    c2, c1 = Counter(), Counter()
    for ts in toks:
        for a, b in zip(ts[:-1], ts[1:]):
            c2[(a, b)] += 1
            c1[a] += 1
    ref = {}
    for i, ts in enumerate(toks):
        if len(ts) < 2:
            continue
        s = sum(int(np.floor(1_000_000 * math.log((c2[(a, b)] + 1) / (c1[a] + V))))
                for a, b in zip(ts[:-1], ts[1:]))
        ref[i] = (len(ts) - 1, s)

    t = pa.table({"doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
                  "text": pa.array(docs, pa.string())})
    ds = ray.data.from_arrow(t).repartition(5)
    for tier in (1_000_000, 0):  # broadcast LUT, then forced join tier
        out = bigram_lm_scores(ds, broadcast_model_rows=tier).to_pandas()
        got = {int(r.doc_id): (int(r.n_bigrams), int(r.logprob_micro))
               for r in out.itertuples()}
        assert got == ref, tier


def test_running_sum_vs_pandas_oracle(ray_session):
    import ray.data

    from rayjoin.functions.stream import running_sum

    rng = np.random.default_rng(11)
    n = 4000
    users = rng.integers(0, 60, n).astype(np.int64)
    # deliberate ts ties within users: the (ts, event_id) tie-break must
    # decide the prefix order
    ts = rng.integers(0, 500, n).astype(np.int64) * 1_000_000
    ev = rng.permutation(n).astype(np.int64)
    val = (rng.integers(-5000, 5000, n).astype(np.int64) / 1000.0)
    t = pa.table({
        "event_id": pa.array(ev),
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "value": pa.array(val, pa.float64()),
    })
    ds = ray.data.from_arrow(t).repartition(5)
    out = running_sum(ds, num_buckets=7).to_pandas()

    import pandas as pd

    df = pd.DataFrame({"event_id": ev, "user_id": users, "ts": ts,
                       "vm": np.floor(val * 1000.0).astype(np.int64)})
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["run_vm"] = df.groupby("user_id")["vm"].cumsum()
    want = {int(r.event_id): (int(r.vm), int(r.run_vm))
            for r in df.itertuples()}
    got = {int(r.event_id): (int(r.vm), int(r.run_vm))
           for r in out.itertuples()}
    assert got == want


def test_event_paths_vs_pandas_oracle(ray_session):
    import pandas as pd
    import ray.data

    from rayjoin.functions.stream import event_paths

    rng = np.random.default_rng(17)
    n = 3000
    users = rng.integers(0, 40, n).astype(np.int64)
    ts = rng.integers(0, 200, n).astype(np.int64) * 1_000_000  # heavy ties
    ev = rng.permutation(n).astype(np.int64)
    et = np.array(["v", "c", "b"])[rng.integers(0, 3, n)]
    t = pa.table({
        "event_id": pa.array(ev),
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "event_type": pa.array(et.tolist(), pa.string()),
    })
    out = event_paths(ray.data.from_arrow(t).repartition(5),
                      num_buckets=9).to_pandas()

    df = pd.DataFrame({"event_id": ev, "user_id": users, "ts": ts,
                       "et": et}).sort_values(["user_id", "ts", "event_id"])
    want = df.groupby("user_id")["et"].agg([("n_events", "size"),
                                            ("path", ">".join)])
    got = out.set_index("user_id").sort_index()
    assert got["n_events"].astype(int).tolist() == \
        want["n_events"].astype(int).tolist()
    assert got["path"].tolist() == want["path"].tolist()


def test_rolling_active_counts_vs_bruteforce(ray_session):
    import ray.data

    from rayjoin.functions.stream import rolling_active_counts

    rng = np.random.default_rng(23)
    n = 4000
    users = rng.integers(0, 80, n).astype(np.int64)
    day = rng.integers(0, 60, n).astype(np.int64)
    ts = day * 86_400_000_000 + rng.integers(0, 86_400_000_000, n)
    t = pa.table({
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
    })
    for w in (1, 7, 30):
        out = rolling_active_counts(
            ray.data.from_arrow(t).repartition(5), window_days=w,
            num_buckets=9).to_pandas()
        got = dict(zip(out["d"].astype(int), out["n_active"].astype(int)))
        want = {}
        for d in np.unique(day):
            m = (day >= d - w + 1) & (day <= d)
            want[int(d)] = len(np.unique(users[m]))
        assert got == want, w


def test_quantize_embeddings_vs_numpy_oracle(ray_session):
    import ray.data

    from rayjoin.functions.ann import quantize_embeddings

    rng = np.random.default_rng(41)
    n, d = 300, 8
    M = rng.normal(size=(n, d)).astype(np.float32)
    M[:, 3] = 0.0  # all-zero dim must quantize to 0
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(M.ravel(), pa.float32()), d).cast(pa.list_(pa.float32())),
    })
    out = quantize_embeddings(
        ray.data.from_arrow(t).repartition(4)).to_pandas()
    got = {(int(r.vec_id), int(r.dim)): int(r.q) for r in out.itertuples()}

    vm = np.floor(M.astype(np.float64) * 1e6).astype(np.int64)
    ma = np.abs(vm).max(axis=0)
    want = {}
    for i in range(n):
        for j in range(d):
            if ma[j] == 0:
                want[(i, j)] = 0
            else:
                p = int(vm[i, j]) * 127
                want[(i, j)] = int(abs(p) // int(ma[j])) * (1 if p >= 0 else -1)
    assert got == want
    assert max(abs(v) for v in got.values()) <= 127


def test_rows_window_sum_vs_pandas_oracle(ray_session):
    import pandas as pd
    import ray.data

    from rayjoin.functions.stream import rows_window_sum

    rng = np.random.default_rng(29)
    n = 3000
    users = rng.integers(0, 50, n).astype(np.int64)
    ts = rng.integers(0, 300, n).astype(np.int64) * 1_000_000
    ev = rng.permutation(n).astype(np.int64)
    val = rng.integers(-4000, 4000, n).astype(np.int64) / 1000.0
    t = pa.table({
        "event_id": pa.array(ev),
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "value": pa.array(val, pa.float64()),
    })
    for k in (1, 4, 100):
        out = rows_window_sum(ray.data.from_arrow(t).repartition(5),
                              frame_rows=k, num_buckets=7).to_pandas()
        df = pd.DataFrame({"event_id": ev, "user_id": users, "ts": ts,
                           "vm": np.floor(val * 1000.0).astype(np.int64)})
        df = df.sort_values(["user_id", "ts", "event_id"])
        df["win"] = (df.groupby("user_id")["vm"]
                     .rolling(k, min_periods=1).sum()
                     .reset_index(level=0, drop=True))
        want = {int(r.event_id): (int(r.vm), int(r.win))
                for r in df.itertuples()}
        got = {int(r.event_id): (int(r.vm), int(r.win_vm))
               for r in out.itertuples()}
        assert got == want, k


def test_state_transitions_vs_python_reference(ray_session):
    """Change rows match a per-key LAG reference; first observations and
    unchanged states emit nothing; (ts, seq) tie-break is honored."""
    import pyarrow as pa
    import ray.data

    from rayjoin.functions.stream import state_transitions

    rng = np.random.default_rng(13)
    n = 2500
    key = rng.integers(0, 25, n).astype(np.int64)
    ts = rng.integers(0, 1000, n).astype(np.int64)  # many ties -> seq breaks
    seq = rng.permutation(n).astype(np.int64)
    st = rng.integers(0, 3, n).astype(np.int64)
    t = pa.table({"user_id": key, "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": seq, "state": st})

    out = state_transitions(
        ray.data.from_arrow(t).repartition(6)).to_pandas()
    got = sorted(map(tuple, out[["user_id", "ts_us", "event_id",
                                 "from_state", "to_state"]].values.tolist()))

    o = np.lexsort((seq, ts, key))
    k2, t2, s2, v2 = key[o], ts[o], seq[o], st[o]
    exp = sorted(
        (int(k2[i]), int(t2[i]), int(s2[i]), int(v2[i - 1]), int(v2[i]))
        for i in range(1, n)
        if k2[i] == k2[i - 1] and v2[i] != v2[i - 1])
    assert got == exp and exp


def test_time_weighted_sum_vs_python_reference(ray_session):
    """LOCF integral, span, and counts match a per-key reference; last
    observation contributes nothing; single-obs keys get zeros."""
    import pyarrow as pa
    import ray.data

    from rayjoin.functions.stream import time_weighted_sum

    rng = np.random.default_rng(19)
    n = 2000
    key = rng.integers(0, 30, n).astype(np.int64)
    key[0] = 99  # a singleton key
    ts = rng.integers(0, 10**7, n).astype(np.int64)
    seq = np.arange(n, dtype=np.int64)
    v = rng.integers(-50, 50, n).astype(np.int64)
    t = pa.table({"user_id": key, "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": seq, "value_fp": v})

    out = time_weighted_sum(ray.data.from_arrow(t).repartition(6)).to_pandas()
    got = {int(r.user_id): (int(r.tw_sum), int(r.span_us), int(r.n_obs))
           for r in out.itertuples()}

    o = np.lexsort((seq, ts, key))
    k2, t2, v2 = key[o], ts[o], v[o]
    exp = {}
    for i in range(n):
        tw, sp, c = exp.get(int(k2[i]), (0, 0, 0))
        if i + 1 < n and k2[i + 1] == k2[i]:
            tw += int(v2[i]) * int(t2[i + 1] - t2[i])
            sp += int(t2[i + 1] - t2[i])
        exp[int(k2[i])] = (tw, sp, c + 1)
    assert got == exp
    assert got[99] == (0, 0, 1)


def test_changelog_compact_vs_python_reference(ray_session):
    """Latest (ts, seq) row per key wins with full payload; delete winners
    remove the key; a delete outranked by a later upsert does not."""
    import pyarrow as pa
    import ray.data

    from rayjoin.functions.stream import changelog_compact

    rng = np.random.default_rng(23)
    n = 1500
    key = rng.integers(0, 40, n).astype(np.int64)
    ts = rng.integers(0, 500, n).astype(np.int64)  # heavy ties -> seq breaks
    seq = rng.permutation(n).astype(np.int64)
    op = np.where(rng.random(n) < 0.3, "D", "U")
    payload = rng.integers(0, 10**6, n).astype(np.int64)
    t = pa.table({"user_id": key, "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": seq, "op": pa.array(op.tolist(), pa.string()),
                  "payload": payload})

    out = changelog_compact(
        ray.data.from_arrow(t).repartition(6)).to_pandas()
    got = {int(r.user_id): (int(r.event_id), str(r.op), int(r.payload))
           for r in out.itertuples()}

    winners = {}
    for i in range(n):
        k = int(key[i])
        cand = (int(ts[i]), int(seq[i]))
        if k not in winners or cand > winners[k][0]:
            winners[k] = (cand, i)
    exp = {k: (int(seq[i]), str(op[i]), int(payload[i]))
           for k, (_, i) in winners.items() if op[i] == "U"}
    assert got == exp
    assert len(exp) < len(winners)  # some keys really were deleted


def test_event_thinning_vs_python_reference(ray_session):
    """First (ts, seq) event per key per tumbling window survives with all
    columns; everything else drops; bad window raises."""
    import pyarrow as pa
    import pytest
    import ray.data

    from rayjoin.functions.stream import event_thinning

    rng = np.random.default_rng(29)
    n = 2000
    key = rng.integers(0, 20, n).astype(np.int64)
    ts = rng.integers(0, 10**6, n).astype(np.int64)
    seq = rng.permutation(n).astype(np.int64)
    payload = rng.integers(0, 99, n).astype(np.int64)
    t = pa.table({"user_id": key, "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": seq, "payload": payload})
    W = 10_000

    out = event_thinning(ray.data.from_arrow(t).repartition(6),
                         window_us=W).to_pandas()
    got = sorted(map(tuple, out[["user_id", "win_id", "event_id",
                                 "payload"]].values.tolist()))

    best = {}
    for i in range(n):
        kk = (int(key[i]), int(ts[i]) // W)
        cand = (int(ts[i]), int(seq[i]), i)
        if kk not in best or cand < best[kk]:
            best[kk] = cand
    exp = sorted((k, w, int(seq[i]), int(payload[i]))
                 for (k, w), (_, __, i) in best.items())
    assert got == exp
    assert len(exp) < n  # thinning actually dropped rows

    with pytest.raises(ValueError, match="window_us"):
        event_thinning(ray.data.from_arrow(t), window_us=0)


def test_novelty_score_ngram_vs_python_reference(ray_session):
    """Novelty fractions match a per-doc python replay for n=1 and n=2
    (same fnv + rolling combine), including all-novel first docs and
    all-seen exact repeats."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from rayjoin.functions.text import novelty_score
    from rayjoin.stages.geocode import fnv1a64

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 25)))
             for _ in range(60)]
    texts.append(texts[0])  # doc 60 repeats doc 0 verbatim -> novelty 0
    ids = np.arange(len(texts), dtype=np.int64)
    t = pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(t).repartition(5)

    def doc_hashes(text, n):
        toks = text.split(" ")
        th = fnv1a64(pa.array(toks, pa.string()))
        if n == 1:
            return set(th.tolist())
        out = set()
        with np.errstate(over="ignore"):
            for i in range(len(toks) - n + 1):
                h = np.uint64(0)
                for j in range(n):
                    h = h * np.uint64(1099511628211) ^ th[i + j]
                out.add(int(h))
        return out

    for n in (1, 2):
        seen = {}
        exp = {}
        for d, text in zip(ids, texts):
            hs = doc_hashes(text, n)
            for h in hs:
                seen.setdefault(h, int(d))
        for d, text in zip(ids, texts):
            hs = doc_hashes(text, n)
            nov = sum(1 for h in hs if seen[h] == int(d))
            exp[int(d)] = (len(hs), nov, 1000 * nov // max(len(hs), 1))
        out = novelty_score(ds, n=n).to_pandas()
        got = {int(r.doc_id): (int(r.n_shingles), int(r.n_novel),
                               int(r.novelty_milli))
               for r in out.itertuples()}
        assert got == exp
        assert exp[0][1] == exp[0][0]      # first doc all-novel
        assert exp[60][1] == 0             # verbatim repeat all-seen
