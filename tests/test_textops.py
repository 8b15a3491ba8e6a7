"""Dedup / sketch / ANN semantics over the sf0.001-0.01 testdata:
MinHash-LSH recall against exact Jaccard, SimHash locality, exact-dedup
counts, and IVF recall against brute force."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def docs():
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


def _jaccard(a: str, b: str) -> float:
    from vyperdatum_ray.pipelines.textops import _shingle_hashes

    sa, sb = _shingle_hashes(a, 5), _shingle_hashes(b, 5)
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    return inter / (sa.size + sb.size - inter)


def test_minhash_candidates_catch_high_jaccard_pairs(ray_session, docs):
    """LSH recall: every pair with exact Jaccard >= 0.8 must appear in
    the candidate set (16 bands x 4 rows -> p(miss at 0.8) ~ 2e-4; the
    corpus and hashes are deterministic, so this is exact, not flaky)."""
    from vyperdatum_ray.pipelines.textops import q_minhash_pairs

    cand = q_minhash_pairs(SF).to_pandas()
    cand_set = set(zip(cand["id_a"], cand["id_b"]))

    ids = sorted(docs)[:310]  # exact check over a deterministic slice
    missed = 0
    high = 0
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if _jaccard(docs[a], docs[b]) >= 0.8:
                high += 1
                if (a, b) not in cand_set:
                    missed += 1
    assert high > 0, "fixture should contain high-jaccard pairs"
    assert missed == 0


def test_neardup_jaccard_verifies_candidates(ray_session, docs):
    from vyperdatum_ray.pipelines.textops import q_neardup_jaccard

    out = q_neardup_jaccard(SF, tau=0.5).to_pandas()
    assert len(out) > 0
    assert (out["jaccard"] >= 0.5).all()
    # spot-verify the reported jaccard values against a recompute
    for _, r in out.head(10).iterrows():
        assert abs(_jaccard(docs[r["id_a"]], docs[r["id_b"]]) - r["jaccard"]) < 1e-6
    assert (out["id_a"] < out["id_b"]).all()


def test_simhash_locality(ray_session, docs):
    """Near-dup docs differ in few simhash bits; random pairs in many."""
    from vyperdatum_ray.pipelines.textops import q_neardup_jaccard, q_simhash

    sh = q_simhash(SF).to_pandas().set_index("doc_id")["simhash"]
    pairs = q_neardup_jaccard(SF, tau=0.9).to_pandas()
    assert len(pairs) > 0

    def hamming(a, b):
        return bin(int(a) ^ int(b)).count("1")

    near = [hamming(sh[a], sh[b]) for a, b in zip(pairs["id_a"], pairs["id_b"])]
    rng = np.random.default_rng(3)
    ids = sh.index.to_numpy()
    far = [
        hamming(sh[a], sh[b])
        for a, b in zip(rng.choice(ids, 200), rng.choice(ids, 200)) if a != b
    ]
    assert np.mean(near) < 8
    assert np.mean(far) > 16


def test_dedup_exact_counts(ray_session):
    from vyperdatum_ray.pipelines.textops import q_dedup_exact

    out = q_dedup_exact(SF).to_pandas()
    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    n_distinct = len(set(t.column("text").to_pylist()))
    assert len(out) == n_distinct
    assert int(out["n_dups"].sum()) == t.num_rows


def test_ivf_recall_vs_bruteforce(ray_session):
    """IVF with nprobe=4/16 lists must keep recall@10 >= 0.6 vs exact."""
    from vyperdatum_ray.pipelines.ann import q_ann_ivf, q_ann_topk

    exact = q_ann_topk(SF)
    approx = q_ann_ivf(SF)
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["neighbor_id"])
        a = set(approx[approx["query_id"] == qid]["neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6


def test_neardup_embedding_pairs_symmetric_threshold(ray_session):
    from vyperdatum_ray.pipelines.ann import q_neardup_embedding

    out = q_neardup_embedding(SF, tau=0.4).to_pandas()
    assert len(out) > 0
    assert (out["vec_id_a"] < out["vec_id_b"]).all()
    # recompute one pair's cosine to confirm the threshold semantics
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().set_index("vec_id")
    a, b = int(out.iloc[0]["vec_id_a"]), int(out.iloc[0]["vec_id_b"])
    va = np.asarray(t.loc[a, "embedding"], dtype=np.float64)
    vb = np.asarray(t.loc[b, "embedding"], dtype=np.float64)
    cos = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
    assert cos >= 0.4


def test_hll_estimate_close_to_exact(ray_session):
    from vyperdatum_ray.pipelines.textops import q_approx_distinct_hosts, q_distinct_hosts

    exact = int(q_distinct_hosts(SF)["n_hosts"].iloc[0])
    approx = int(q_approx_distinct_hosts(SF)["n_hosts_approx"].iloc[0])
    assert exact > 0
    # p=12 registers: ~1.6% sigma; 10% is a very safe determinstic bound
    assert abs(approx - exact) <= max(2, int(0.1 * exact))


def test_neardup_embedding_block_pairs_exact(ray_session):
    """The block-pair self-join must reproduce the exact all-pairs set
    (computed locally) with NO full-matrix broadcast anywhere."""
    from vyperdatum_ray.pipelines.ann import q_neardup_embedding

    out = q_neardup_embedding(SF, tau=0.4).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = t["vec_id"].to_numpy()
    sims = m @ m.T
    ai, bi = np.nonzero(sims >= 0.4)
    expect = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
              for i, j in zip(ai, bi) if ids[i] != ids[j]}
    got = set(zip(out["vec_id_a"].astype(int), out["vec_id_b"].astype(int)))
    assert got == expect


def test_neardup_embedding_lsh_recall(ray_session):
    """The sub-quadratic LSH variant must recover most exact pairs
    (4-bit x 16-band hyperplane banding at tau=0.4 -> ~0.9 recall)."""
    from vyperdatum_ray.pipelines.ann import (q_neardup_embedding,
                                              q_neardup_embedding_lsh)

    exact = q_neardup_embedding(SF, tau=0.4).to_pandas()
    lsh = q_neardup_embedding_lsh(SF, tau=0.4).to_pandas()
    e = set(zip(exact["vec_id_a"].astype(int), exact["vec_id_b"].astype(int)))
    l = set(zip(lsh["vec_id_a"].astype(int), lsh["vec_id_b"].astype(int)))
    assert l <= e  # candidates are exact-scored -> no false positives
    assert len(l & e) / max(len(e), 1) >= 0.7


def test_dedup_clusters_embedding_transitive(ray_session):
    """Cluster ids are the transitive min over the exact pair graph;
    canonical rows are exactly the cluster roots."""
    from vyperdatum_ray.pipelines.ann import (q_dedup_clusters_embedding,
                                              q_neardup_embedding)

    out = q_dedup_clusters_embedding(SF, tau=0.4).to_pandas()
    pairs = q_neardup_embedding(SF, tau=0.4).to_pandas()
    # every pair lands in one cluster
    c = out.set_index("vec_id")["cluster_id"]
    assert (c[pairs["vec_id_a"].to_numpy()].to_numpy()
            == c[pairs["vec_id_b"].to_numpy()].to_numpy()).all()
    # canonical = min id of its cluster, exactly once per cluster
    canon = out[out["is_canonical"] == 1]
    assert (canon["vec_id"] == canon["cluster_id"]).all()
    assert canon["cluster_id"].is_unique
    assert set(canon["cluster_id"]) == set(out["cluster_id"].unique())
    # a non-edge singleton is its own cluster
    singles = out[~out["vec_id"].isin(
        set(pairs["vec_id_a"]) | set(pairs["vec_id_b"]))]
    assert (singles["vec_id"] == singles["cluster_id"]).all()


def test_dedup_clusters_distributed_path_matches_driver(ray_session):
    """pair_cap=0 forces the distributed label-propagation path; it
    must produce exactly the driver union-find's clustering."""
    from vyperdatum_ray.pipelines.ann import q_dedup_clusters_embedding

    drv = (q_dedup_clusters_embedding(SF, tau=0.4)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    dist = (q_dedup_clusters_embedding(SF, tau=0.4, pair_cap=0)
            .to_pandas().sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(drv, dist, check_dtype=True)


def test_lp_components_dense_graph(ray_session):
    """Distributed min-label propagation on a dense synthetic dup graph
    (a 40-clique, a 100-link chain and a star) converges to the exact
    per-component min label. The 100-chain's diameter EXCEEDS
    LP_MAX_ROUNDS=64: hash-to-min shortcut edges (labels double as
    links) must give O(log diameter) rounds, or template-drift chains
    would crash the past-the-cap dedup path."""
    import pyarrow as pa
    import ray.data
    from vyperdatum_ray.pipelines.ann import _lp_components

    clique = [(a, b) for a in range(100, 140) for b in range(a + 1, 140)]
    chain = [(i, i + 1) for i in range(200, 300)]
    star = [(400, k) for k in range(401, 420)]
    edges = clique + chain + star
    pairs = ray.data.from_arrow(pa.table({
        "vec_id_a": pa.array([a for a, _ in edges], pa.int64()),
        "vec_id_b": pa.array([b for _, b in edges], pa.int64()),
    })).repartition(7)  # multiple blocks so the exchange is real
    out = _lp_components(pairs).to_pandas().set_index("node")["label"]
    for n in range(100, 140):
        assert out[n] == 100
    for n in range(200, 301):
        assert out[n] == 200
    for n in range(400, 420):
        assert out[n] == 400


def test_shingle_batch_matches_per_doc():
    """The batch shingle pass must produce exactly the per-doc sorted
    uniques, and batch minhash signatures must equal per-doc ones."""
    from vyperdatum_ray.pipelines.textops import (MinHasher, MinHashStage,
                                                  _shingle_hashes,
                                                  _shingle_hashes_batch)

    texts = ["hello world", "", "ab", "the quick brown fox", "hello world",
             "x" * 3, "aaaaaaa", "tidal datums and shoreline change"]
    flat, counts = _shingle_hashes_batch(texts, 5)
    off = 0
    for t, c in zip(texts, counts):
        expect = _shingle_hashes(t, 5)
        np.testing.assert_array_equal(flat[off:off + c], expect)
        off += c
    assert off == len(flat)
    stage = MinHashStage()
    sigs = stage._batch_signatures(texts)
    mh = MinHasher()
    for i, t in enumerate(texts):
        np.testing.assert_array_equal(sigs[i], mh.signature(t))


def test_top_hosts_sketch_matches_exact(ray_session):
    """Count-min guarantees: estimates never undercount, and at this
    host cardinality (97 << width) the top-k should match exact."""
    from vyperdatum_ray.pipelines.textops import q_top_hosts, q_top_hosts_sketch

    exact = q_top_hosts(SF, k=200).to_pandas()  # all 97 hosts
    sk = q_top_hosts_sketch(SF)
    true = exact.set_index("host")["n_pages"]
    est = sk.set_index("host")["n_pages_est"]
    # CM never undercounts, and with width >> cardinality the error is
    # bounded by a couple of collisions
    assert (est.to_numpy() >= true[est.index].to_numpy()).all()
    assert (est.to_numpy() <= true[est.index].to_numpy() + 3 * true.max()).all()


def test_neardup_embedding_exact_with_shuffled_ids(ray_session, tmp_path):
    """Cross-block pairs must survive when vec_ids are NOT ascending
    across blocks (Ray gives no block-order guarantee): regression for
    the off-diagonal a<b filter dropping pairs."""
    import pyarrow.parquet as pq_mod

    from vyperdatum_ray.pipelines.ann import q_neardup_embedding

    t = pq_mod.read_table(f"{SF}/embeddings.parquet")
    rng = np.random.default_rng(9)
    perm = rng.permutation(t.num_rows)
    pq_mod.write_table(t.take(perm), str(tmp_path / "embeddings.parquet"))
    out = q_neardup_embedding(str(tmp_path), tau=0.4, n_blocks=4).to_pandas()
    df = t.to_pandas()
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = df["vec_id"].to_numpy()
    sims = m @ m.T
    ai, bi = np.nonzero(sims >= 0.4)
    expect = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
              for i, j in zip(ai, bi) if ids[i] != ids[j]}
    got = set(zip(out["vec_id_a"].astype(int), out["vec_id_b"].astype(int)))
    assert got == expect


def test_neardup_jaccard_exchange_path_matches_fast_path(ray_session, monkeypatch):
    """Forcing the repartition-join path (as if the candidate set were
    too large to broadcast) must produce the identical verified set."""
    import vyperdatum_ray.pipelines.textops as T

    fast = T.q_neardup_jaccard(SF, tau=0.5).to_pandas()
    monkeypatch.setattr(T, "BROADCAST_CAND_CAP", 0)
    slow = T.q_neardup_jaccard(SF, tau=0.5).to_pandas()
    key = ["id_a", "id_b"]
    f = fast.sort_values(key).reset_index(drop=True)
    s = slow.sort_values(key).reset_index(drop=True)
    assert f[key].equals(s[key])
    np.testing.assert_allclose(f["jaccard"], s["jaccard"])


def test_neardup_clusters_text_matches_transitive_closure(ray_session):
    """Every document gets the min-doc_id label of its component in the
    verified pair graph — checked against a single-process union-find
    over the same pairs; the distributed LP path (pair_cap=0) must
    agree exactly."""
    from vyperdatum_ray.pipelines.textops import (q_neardup_clusters_text,
                                                  q_neardup_jaccard)

    pairs = q_neardup_jaccard(SF, tau=0.5).to_pandas()
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for x, y in zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    out = q_neardup_clusters_text(SF, tau=0.5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    expect = np.array([find(int(d)) for d in out["doc_id"]], np.int64)
    np.testing.assert_array_equal(out["cluster_id"].to_numpy(np.int64), expect)
    np.testing.assert_array_equal(
        out["is_canonical"].to_numpy(np.int64),
        (out["doc_id"].to_numpy(np.int64) == expect).astype(np.int64))
    assert (out["is_canonical"] == 1).sum() == len(np.unique(expect))
    # distributed label-propagation path agrees bit-for-bit
    dist = q_neardup_clusters_text(SF, tau=0.5, pair_cap=0).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out.equals(dist)


def test_neardup_jaccard_byte_budget_forces_exchange_path(ray_session):
    """The fast-path cap is sized in estimated shingle BYTES: a tiny
    byte budget must route through the distributed exchange path and
    still produce the identical verified set."""
    import vyperdatum_ray.pipelines.textops as T

    fast = T.q_neardup_jaccard(SF, tau=0.5).to_pandas()
    slow = T.q_neardup_jaccard(SF, tau=0.5, byte_budget=1).to_pandas()
    key = ["id_a", "id_b"]
    f = fast.sort_values(key).reset_index(drop=True)
    s = slow.sort_values(key).reset_index(drop=True)
    assert f[key].equals(s[key])
    np.testing.assert_allclose(f["jaccard"], s["jaccard"])


def test_dedup_results_invariant_to_salt_width(ray_session, monkeypatch):
    """Correctness must not depend on the block-derived shuffle width:
    every copy of a key shares its salt at ANY width (forced here by
    raising the exchange floor)."""
    from vyperdatum_ray.pipelines import exchange
    from vyperdatum_ray.pipelines.textops import (q_dedup_exact,
                                                  q_url_dedup)

    base = q_dedup_exact(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ub = q_url_dedup(SF).to_pandas().sort_values("url_canonical").reset_index(drop=True)
    monkeypatch.setattr(exchange, "JOIN_FLOOR", 15)
    wide = q_dedup_exact(SF).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert base.equals(wide)

    monkeypatch.setattr(exchange, "JOIN_FLOOR", 16)
    uw = q_url_dedup(SF).to_pandas() \
        .sort_values("url_canonical").reset_index(drop=True)
    assert ub.equals(uw)


def test_spatial_order_rank_invariant_to_shard_shift(ray_session):
    """The z-order global rank must be identical at any (auto-scaled)
    morton shard width: shard boundaries are code prefixes, so local
    order + base is the same total order regardless of the split."""
    from vyperdatum_ray.pipelines.queries import (_morton_shard_shift,
                                                  q_spatial_order)

    base = q_spatial_order(SF).to_pandas().sort_values("rank").reset_index(drop=True)
    narrow = q_spatial_order(SF, shard_shift=16).to_pandas() \
        .sort_values("rank").reset_index(drop=True)
    assert base.equals(narrow)
    # width policy: sf corpora keep the 1024-shard floor; a 10^12-row
    # corpus narrows to the driver-table cap
    assert _morton_shard_shift(10_000) == 22
    assert _morton_shard_shift(10**12) == 13  # ~1.9M rows/shard
    assert _morton_shard_shift(10**15) == 12  # clamped at driver cap


def test_unigram_logprob_oov_bucket(ray_session):
    """With a tiny vocab cap the tail must score as ONE pooled OOV mass:
    rarer-than-cap tokens share a single surprisal value, and frequent
    tokens score lower surprisal than rare ones."""
    from vyperdatum_ray.pipelines.textops import q_unigram_logprob

    full = q_unigram_logprob(SF).to_pandas().set_index("doc_id")
    capped = q_unigram_logprob(SF, vocab_cap=5).to_pandas().set_index("doc_id")
    assert (full["n_tokens"] == capped["n_tokens"]).all()
    # pooling the tail into one bucket reduces total surprisal mass
    assert capped["mean_surprisal"].mean() < full["mean_surprisal"].mean()
    assert (full.loc[full["n_tokens"] > 0, "mean_surprisal"] > 0).all()


def test_pii_redact_detects_and_redacts_contact_lines(ray_session):
    from vyperdatum_ray.pipelines.textops import q_pii_redact

    out = q_pii_redact(SF).to_pandas()
    # fixture: every 8th page (i % 8 == 5) carries exactly one email,
    # one 555-01xx phone and one TEST-NET IP; all other pages none
    hit = out[out["n_email"] > 0]
    assert len(hit) == len(out) // 8
    assert (hit["n_email"] == 1).all()
    assert (hit["n_phone"] == 1).all()
    assert (hit["n_ip"] == 1).all()
    clean = out[out["n_email"] == 0]
    assert (clean["n_phone"] == 0).all() and (clean["n_ip"] == 0).all()
    sample = hit["redacted"].iloc[0]
    assert "<EMAIL>" in sample and "<PHONE>" in sample and "<IP>" in sample
    assert "@archive" not in sample and "555-01" not in sample
    # non-PII pages pass through byte-identical
    assert (clean["redacted"].str.contains("<EMAIL>") == False).all()  # noqa: E712


def test_line_dedup_removes_only_corpus_hot_lines(ray_session):
    from vyperdatum_ray.pipelines.textops import q_line_dedup

    out = q_line_dedup(SF).to_pandas()
    # every page carries exactly one boilerplate line (hot across the
    # corpus); first lines and contact lines are unique -> kept
    assert (out["n_removed"] == 1).all()
    assert out["clean_text"].str.startswith(("Document", "Site survey")).all()
    assert not out["clean_text"].str.contains("cookies|rights reserved", regex=True).any()
    # contact lines survive (unique, not boilerplate)
    assert out["clean_text"].str.contains("Contact curator").sum() == len(out) // 8


def _private_sf(tmp_path, monkeypatch, pages: list, docs=None) -> str:
    """A throwaway sf dir whose pages shards are the tables ``pages`` and
    whose documents table is ``docs`` (default: a copy of SF's), with
    ``fixtures.DATA_ROOT`` pointed at it so the shared fixtures stay
    untouched."""
    import json
    import shutil

    from vyperdatum_ray import fixtures

    src = fixtures.ensure_fixtures(SF)
    monkeypatch.setattr(fixtures, "DATA_ROOT", str(tmp_path))
    sf = tmp_path / "sf"
    (sf / "pages").mkdir(parents=True)
    paths = []
    for i, t in enumerate(pages):
        paths.append(str(sf / "pages" / f"part-{i:04d}.parquet"))
        pq.write_table(t, paths[-1])
    if docs is None:
        shutil.copy(f"{SF}/documents.parquet", sf / "documents.parquet")
    else:
        pq.write_table(docs, sf / "documents.parquet")
    with open(sf / "_MANIFEST.json", "w") as f:
        json.dump({**src, "dir": str(sf), "pages": paths}, f)
    return str(sf)


def test_line_dedup_all_boilerplate_corpus(ray_session, tmp_path, monkeypatch):
    """A corpus where every page is the same two lines: only two salt
    groups get rows, so most shuffle partitions of the hot-line pass
    come back without a group. Every page loses both lines."""
    import pyarrow as pa
    from vyperdatum_ray.pipelines.textops import q_line_dedup

    pages = [pa.table({"url": [f"https://example.com/{f}/{i}" for i in range(50)],
                       "text": ["Accept cookies\nAll rights reserved"] * 50})
             for f in range(4)]
    sf = _private_sf(tmp_path, monkeypatch, pages)
    out = q_line_dedup(sf).to_pandas()
    assert len(out) == 200 and out["url"].nunique() == 200
    assert (out["n_removed"] == 2).all() and (out["clean_text"] == "").all()


_EMPTY_CORPUS_QUERIES = ["line_dedup", "neardup_jaccard", "corpus_pipeline",
                         "seq_pack", "dedup_exact", "dedup_normalized",
                         "url_dedup", "minhash_pairs", "simhash_neardup",
                         "token_percentiles", "lang_token_stats", "jsonl_roundtrip",
                         "lang_source_pivot", "source_corr",
                         # the keyed reduces on exchange.aggregate
                         "top_hosts", "top_hosts_sketch", "token_freq",
                         "domain_quality", "unigram_logprob", "bigram_logprob",
                         "tfidf_terms"]


def _empty_corpus(tmp_path, monkeypatch) -> str:
    """A private sf dir of a zero-row documents table and one zero-row
    pages shard."""
    from vyperdatum_ray import fixtures

    small = os.path.join(os.path.dirname(SF), "sf0.001")
    page_schema = pq.read_schema(fixtures.pages_paths(small)[0])
    doc_schema = pq.read_schema(f"{small}/documents.parquet")
    return _private_sf(tmp_path, monkeypatch, [page_schema.empty_table()],
                       docs=doc_schema.empty_table())


def _duckdb_answer(monkeypatch, sf: str, name: str):
    """``name``'s SQL oracle over ``sf``'s documents and pages, or None
    when it has none."""
    import shutil

    import duckdb

    import __ray_entry__ as E

    shutil.copy(f"{SF}/embeddings.parquet", sf)  # an oracle reads its width
    monkeypatch.setattr(E, "_SF001", sf)
    sql = E.oracle_sql().get(name)
    if sql is None:
        return None
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    return con.execute(sql).df()


@pytest.mark.parametrize("name", _EMPTY_CORPUS_QUERIES)
def test_empty_corpus_output_is_typed(ray_session, tmp_path, monkeypatch, name):
    """A zero-row documents table and a zero-row pages shard give zero
    rows with the columns and dtypes of the query's output on a real
    corpus, neither a crash nor a columnless frame, and DuckDB's answer
    where the query has an oracle."""
    import __ray_entry__ as E
    from scripts.check_correctness import compare
    from vyperdatum_ray.pipelines.exchange import collect

    def frame(res):  # a Dataset, or a driver-built DataFrame
        return res if isinstance(res, pd.DataFrame) else collect(res)

    small = os.path.join(os.path.dirname(SF), "sf0.001")
    want = frame(E.queries()[name](small))
    assert len(want) > 0
    sf = _empty_corpus(tmp_path, monkeypatch)
    got = frame(E.queries()[name](sf))
    assert len(got) == 0
    assert dict(got.dtypes) == dict(want.dtypes)
    theirs = _duckdb_answer(monkeypatch, sf, name)
    assert theirs is None or compare(name, got, theirs) == []


@pytest.mark.parametrize("name,rows", [("distinct_hosts", 1), ("lang_source_rollup", 1),
                                       ("lang_source_cube", 1)])
def test_empty_corpus_global_rows_match_duckdb(ray_session, tmp_path, monkeypatch,
                                               name, rows):
    """Over a zero-row corpus the queries whose SQL keeps a global row
    give DuckDB's answer: ``distinct_hosts`` a zero count, and the
    ROLLUP and CUBE grand total a zero count and a NULL char sum."""
    import __ray_entry__ as E
    from scripts.check_correctness import compare

    sf = _empty_corpus(tmp_path, monkeypatch)
    got = E.queries()[name](sf)
    theirs = _duckdb_answer(monkeypatch, sf, name)
    assert len(theirs) == rows
    assert compare(name, got, theirs) == []


def test_contamination_flags_probe_docs_and_true_overlaps(ray_session):
    """Every probe doc (doc_id % 97 == 0) shares its own 8-grams, so it
    must be flagged; a non-probe doc is flagged iff it truly shares a
    full 8-token window with some probe doc (cross-checked in numpy)."""
    from vyperdatum_ray.pipelines.textops import CONTAM_N, q_contamination_check

    out = q_contamination_check("/root/testdata/sf0.001").to_pandas().set_index("doc_id")
    assert (out.loc[[i for i in out.index if i % 97 == 0], "contaminated"] == 1).all()
    assert (out["contaminated"] == (out["n_contam"] > 0).astype(int)).all()

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))

    def grams(s):
        w = s.split()
        return {" ".join(w[i:i + CONTAM_N]) for i in range(len(w) - CONTAM_N + 1)}

    probe = set().union(*(grams(texts[i]) for i in texts if i % 97 == 0))
    for did in list(texts)[:200]:
        expect = len(probe & grams(texts[did])) > 0
        assert bool(out.loc[did, "contaminated"]) == expect, did


def test_kmeans_matches_single_process_lloyd(ray_session):
    """Distributed k-means must equal a single-process Lloyd run with
    the same seeded init: same assignments after the same number of
    iterations (argmin is order-independent; float64 partial-sum order
    differences are far below the cluster-separation scale here)."""
    from vyperdatum_ray.pipelines.ann import q_kmeans_embeddings

    out = q_kmeans_embeddings(SF, k=16, iters=6).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t.column("vec_id").to_pylist())
    mat = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    rng = np.random.default_rng(7)
    emb0 = mat[:4096]  # = the engine's limit(4096) sample (ids are dense)
    cents = emb0[rng.choice(len(emb0), size=16, replace=False)]
    for _ in range(6):
        d2 = ((mat * mat).sum(1)[:, None] - 2.0 * (mat @ cents.T)
              + (cents * cents).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        for c in range(16):
            m = a == c
            if m.any():
                cents[c] = mat[m].mean(axis=0)
    d2 = ((mat * mat).sum(1)[:, None] - 2.0 * (mat @ cents.T)
          + (cents * cents).sum(1)[None, :])
    ref_assign = np.argmin(d2, axis=1)
    assert (out["vec_id"].to_numpy() == ids).all()
    assert (out["cluster"].to_numpy() == ref_assign).all()
    # more Lloyd iterations never increase inertia
    one = q_kmeans_embeddings(SF, k=16, iters=1).to_pandas()
    assert out["dist2"].sum() <= one["dist2"].sum() + 1e-9


def test_pca_embeddings_matches_numpy(ray_session):
    """Distributed Gram-partial PCA must equal single-process numpy PCA
    exactly (same eigendecomposition, same sign convention)."""
    import numpy.linalg as la
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.ann import PCA_K, q_pca_embeddings

    out = (q_pca_embeddings(SF).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().sort_values("vec_id")
    mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    mu = mat.mean(0)
    cov = np.cov(mat, rowvar=False)
    w, v = la.eigh(cov)
    comps = v[:, np.argsort(w)[::-1][:PCA_K]].T
    for j in range(PCA_K):
        i = np.argmax(np.abs(comps[j]))
        if comps[j, i] < 0:
            comps[j] = -comps[j]
    proj = (mat - mu) @ comps.T
    assert (out["vec_id"].to_numpy() == t["vec_id"].to_numpy()).all()
    for j in range(PCA_K):
        np.testing.assert_allclose(out[f"pc{j}"].to_numpy(), proj[:, j],
                                   rtol=0, atol=1e-8)
    # components are orthonormal and variance-ordered
    g = comps @ comps.T
    np.testing.assert_allclose(g, np.eye(PCA_K), atol=1e-10)
    var = proj.var(axis=0)
    assert (np.diff(var) <= 1e-9).all()


def test_docs_family_randomized_vs_duckdb(ray_session, tmp_path):
    """Randomized differential for the documents-table oracle-backed
    queries: adversarial token soup, empty and whitespace-only texts.
    (url_dedup / domain_quality / dedup_normalized / top_hosts /
    line_dedup are excluded — they and their oracles read the derived
    PAGES fixture, not the documents view.)"""
    import glob
    import os

    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod

    reg = entrymod.queries()
    orc = entrymod.oracle_sql()

    def ddb(sf_dir, sql):
        con = duckdb.connect()
        for f in glob.glob(os.path.join(sf_dir, "*.parquet")):
            t = os.path.basename(f)[:-8]
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{f}')")
        return con.execute(sql).df()

    def canon(df):
        if hasattr(df, "to_pandas") and not isinstance(df, pd.DataFrame):
            df = df.to_pandas()
        df = df[sorted(df.columns)]
        if len(df):
            df = df.sort_values(list(df.columns), kind="mergesort")
        return df.reset_index(drop=True)

    WORDS = ["the", "quick", "brown", "fox", "la", "le", "der", "die",
             "und", "data", "ray", "engine", "query", "10", "x1", "...",
             "!!!", "a", "I", "been"]
    NAMES = ["token_freq", "quality_score", "langid", "lang_token_stats",
             "token_dedup_stats", "dedup_exact", "sample_documents",
             "token_percentiles", "lang_source_pivot",
             "lang_source_rollup", "lang_source_cube", "source_corr",
             "repetition_stats", "gopher_quality", "token_count_bpe"]
    for seed in range(2):
        rng = np.random.RandomState(7000 + seed)
        d = tmp_path / f"docs{seed}"
        d.mkdir()
        n = 80
        texts = [" ".join(rng.choice(WORDS, rng.randint(0, 40)))
                 for _ in range(n)]
        texts[0] = ""
        texts[1] = "   "
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(["en", "de", "fr"], n)),
            "source": pa.array(rng.choice(["web", "book"], n)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "url": pa.array(
                [f"https://h{rng.randint(0, 5)}.com/p/{i}?q=1#f"
                 for i in range(n)], pa.string()),
        }), d / "documents.parquet")
        for name in NAMES:
            if name not in orc:
                continue
            got = canon(reg[name](str(d)))
            want = canon(ddb(str(d), orc[name]))
            if len(got) == 0 and len(want) == 0:
                continue
            try:
                pd.testing.assert_frame_equal(
                    got, want.astype(got.dtypes.to_dict()),
                    check_dtype=False)
            except Exception as e:
                raise AssertionError(f"{name} seed {seed}: {e}") from e
