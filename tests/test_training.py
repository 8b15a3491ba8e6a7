"""Training-set assembly ops (pipelines/training.py): split proportions
and determinism, sequence-packing global prefix-sum invariants, and
resample decisions, each cross-checked against a single-process numpy
reference over the real testdata."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.01"


def _docs_table():
    return pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def test_train_split_proportions_and_determinism(ray_session):
    from vyperdatum_ray.pipelines.training import SPLIT_MULT, q_train_split

    out = q_train_split(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ids = out["doc_id"].to_numpy().astype(np.uint64) & np.uint64(0xFFFFFFFF)
    bucket = ((ids * SPLIT_MULT) % np.uint64(1 << 32) % np.uint64(1000)).astype(np.int64)
    assert (out["bucket"].to_numpy() == bucket).all()
    frac_train = (out["split"] == "train").mean()
    assert 0.95 < frac_train <= 1.0
    assert set(out["split"]) <= {"train", "val", "test"}
    # re-run is bit-identical (no RNG state anywhere)
    again = q_train_split(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (again["bucket"].to_numpy() == out["bucket"].to_numpy()).all()


def test_seq_pack_matches_global_ordered_cumsum(ray_session):
    from vyperdatum_ray.pipelines.training import SEQ_LEN, q_seq_pack

    out = q_seq_pack(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    t = _docs_table()
    order = np.argsort(t.column("doc_id").to_numpy(zero_copy_only=False))
    texts = t.column("text").to_pylist()
    ntok = np.array([len(s.split()) for s in texts], dtype=np.int64)[order]
    cum = np.cumsum(ntok) - ntok
    assert len(out) == len(ntok)
    assert (out["n_tok"].to_numpy() == ntok).all()
    assert (out["seq_id"].to_numpy() == cum // SEQ_LEN).all()
    assert (out["seq_off"].to_numpy() == cum % SEQ_LEN).all()
    # packing covers the corpus exactly once: final sequence id bounds
    total = ntok.sum()
    assert out["seq_id"].max() == (total - ntok[-1]) // SEQ_LEN


def test_seq_pack_two_level_prefix_matches_one_level(ray_session):
    """Forcing tiny shards (shard_bits=2 -> many shards) and a
    max_driver_shards of 0 exercises the two-level super-shard prefix
    + union repartition-join path; output must be bit-identical to the
    default broadcast path."""
    from vyperdatum_ray.pipelines.training import q_seq_pack

    one = (q_seq_pack(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    two = (q_seq_pack(SF, shard_bits=2, max_driver_shards=0).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(one, two, check_dtype=True)


def test_quality_resample_decisions_match_reference(ray_session):
    from vyperdatum_ray.pipelines.training import DRAW_MULT, q_quality_resample

    out = q_quality_resample(SF).to_pandas()
    t = _docs_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    import re
    texts = t.column("text").to_pylist()
    n_alpha = np.array([len(re.findall("[A-Za-z]", s)) for s in texts], dtype=np.int64)
    n_chars = np.array([len(s) for s in texts], dtype=np.int64)
    w = np.minimum(1000, (n_alpha * 1250) // np.maximum(n_chars, 1))
    draw = ((ids.astype(np.uint64) & np.uint64(0xFFFFFFFF)) * DRAW_MULT
            % np.uint64(1 << 32) % np.uint64(1000)).astype(np.int64)
    kept = set(ids[draw < w].tolist())
    assert set(out["doc_id"].tolist()) == kept
    assert (out["draw"] < out["w_permille"]).all()


def test_corpus_pipeline_every_gate_fires(ray_session):
    """The driver testdata never trips the length/alpha/dedup/contam
    gates, so exercise each on an injected corpus: one doc per failure
    mode plus survivors, with the expected output computed by hand."""
    import pyarrow as pa
    import ray.data
    from vyperdatum_ray.pipelines.training import q_corpus_pipeline

    base = ("the quick brown fox and the lazy dog walk to the market "
            "with a basket of fresh bread for the whole family today")
    probe_gram = "alpha beta gamma delta epsilon zeta eta theta"
    rows = {
        1: base + " one",                          # survivor
        2: base + " two",                          # survivor
        3: base + " two",                          # exact dup of 2 -> dropped (min id kept)
        4: "el la de que y en los por el la de que y en los por",  # Spanish -> dropped
        5: "the and of",                           # 3 tokens -> too short
        6: ("the 11111111111 and 2222222222 of 3333333333 to 444444444 "
            "in 55555555 is 66666666 with 7777777 for 8888888 the 99999999 "
            "and 00000000 of 1212121 to 3434343 in 565656"),  # low alpha -> dropped
        7: base + " " + probe_gram,                # shares 8-gram with probe -> dropped
        97: "the probe doc says " + probe_gram + " and the rest is history now",  # probe -> excluded
    }
    t = pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": pa.array(list(rows.values()), pa.string())})
    # an input_ds of one block: the dedup exchange runs at the floor
    out = q_corpus_pipeline(SF, input_ds=ray.data.from_arrow(t)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]
    assert (out["n_tok"] == 24).all()
    assert set(out["split"]) <= {"train", "val", "test"}


def test_null_text_parity_with_oracles(ray_session, tmp_path):
    """The driver fixtures contain no NULL text, so lock the NULL rule
    (COALESCE -> 0 tokens / weight 0) by running engine and DuckDB
    oracle over a corpus WITH NULLs and comparing exactly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from vyperdatum_ray.pipelines.training import (SEQ_PACK_ORACLE,
                                                   QUALITY_RESAMPLE_ORACLE,
                                                   q_quality_resample,
                                                   q_seq_pack)

    texts = ["the quick brown fox jumps over the lazy dog again",
             None, "", "alpha beta gamma delta epsilon zeta eta theta iota",
             "1234 5678 90 12 34 56 78 90 11 22", None,
             "plain english words fill this document with letters only here",
             "  leading and trailing whitespace  ",
             "tabs\tand\nnewlines separate\t\ttokens oddly",
             " ", "repeat repeat repeat repeat repeat repeat",
             "caf\u00e9 na\u00efve \u00fcber unicode tokens mixed with ascii",
             "x " * 300 + "y"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")

    from vyperdatum_ray.pipelines.textops import (BIGRAM_LOGPROB_ORACLE,
                                                   TFIDF_ORACLE,
                                                   q_bigram_logprob,
                                                   q_tfidf_terms)

    for q, sql in ((q_seq_pack, SEQ_PACK_ORACLE),
                   (q_quality_resample, QUALITY_RESAMPLE_ORACLE),
                   (q_tfidf_terms, TFIDF_ORACLE),
                   (q_bigram_logprob, BIGRAM_LOGPROB_ORACLE)):
        eng = q(sf).to_pandas()
        ora = con.execute(sql).df()
        keys = [c for c in ("doc_id", "rank") if c in eng.columns]
        eng = eng.sort_values(keys).reset_index(drop=True)
        ora = ora.sort_values(keys).reset_index(drop=True)
        assert list(eng.columns) == list(ora.columns)
        for c in eng.columns:
            assert eng[c].tolist() == ora[c].tolist(), (q.__name__, c)
    # the NULL rows count zero tokens and never shift later offsets
    sp = q_seq_pack(sf).to_pandas().set_index("doc_id")
    assert sp.loc[1, "n_tok"] == 0 and sp.loc[5, "n_tok"] == 0
    assert sp.loc[2, "n_tok"] == 0


def test_ascii_letter_count_matches_the_regex():
    """The byte-level letter count equals the ``[A-Za-z]`` regex count
    on NULL, empty, multi-byte and emoji text, the bytes either side of
    the letter ranges (``@[`{``), a sliced array, a multi-chunk array
    and every row of one sf0.1 pages shard."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines.training import _ascii_letters

    def regex(t):
        return pc.count_substring_regex(pc.coalesce(t, ""), "[A-Za-z]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)

    arr = pa.array([None, "", "é", "ß", "\U0001f600", "@", "[", "`", "{",
                    "AZaz", "Zebra éß \U0001f600 @[`{ q", None, "x"], pa.string())
    shard = pq.read_table(pages_paths(SF.replace("sf0.01", "sf0.1"))[0],
                          columns=["text"]).column("text")
    assert len(shard) > 0
    for t in (arr, arr.slice(3, 8), shard,
              pa.chunked_array([arr.slice(1, 4), pa.array([], pa.string()), arr.slice(5)])):
        got = _ascii_letters(pc.coalesce(t, ""))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, regex(t))
    # large_string offsets are int64: sliced and multi-chunk ones too
    big = pa.array(["ab", "c", "", "\u00e9Z", "xyz"], pa.large_string())
    np.testing.assert_array_equal(_ascii_letters(big.slice(0, 2)), [2, 1])
    for t in (big, big.slice(1, 3), pa.chunked_array([big.slice(0, 2), big.slice(2)])):
        np.testing.assert_array_equal(_ascii_letters(t), regex(t))
