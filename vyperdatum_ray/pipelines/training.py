"""Training-set assembly operators: deterministic split, sequence
packing, and quality-weighted resampling.

These are the last-mile ops of a web-text training pipeline (after
dedup/filter/score in textops.py): carve reproducible train/val/test
partitions, pack documents into fixed-length token windows, and
importance-sample by a quality weight. All three are pure integer
arithmetic mirrored bit-for-bit in the DuckDB oracles — no RNG state,
no float thresholds — so the same decision is made for a document
regardless of partitioning, run, or cluster size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from vyperdatum_ray.core.nputil import utf8_buffers
from vyperdatum_ray.pipelines import exchange
from vyperdatum_ray.pipelines.textops import SAMPLE_MOD, _docs, _hash_key

_MASK32 = np.uint64(0xFFFFFFFF)
# Distinct odd multipliers per purpose (xxhash32 primes) so the split,
# the resample draw, and textops' 5% sample are pairwise independent.
SPLIT_MULT = np.uint64(2246822519)
DRAW_MULT = np.uint64(3266489917)

SEQ_LEN = 2048          # tokens per packed training sequence
PACK_SHARD_BITS = 8     # 256 docs per prefix-sum shard (floor; auto-widens)
PACK_MAX_DRIVER_SHARDS = 1 << 20  # driver offset-table cap (~16 MB)


def _pack_shard_bits(n_docs: int) -> int:
    """Auto-scale the prefix-sum shard width so the driver's offset
    table stays <= PACK_MAX_DRIVER_SHARDS entries under dense ids:
    widen past the 2^8 floor once n_docs exceeds 2^28. Sparse id spaces
    are additionally caught at runtime by the measured distinct-shard
    count, which switches to the two-level prefix path."""
    bits = PACK_SHARD_BITS
    while (n_docs >> bits) > PACK_MAX_DRIVER_SHARDS:
        bits += 1
    return bits


def _hash32(ids: np.ndarray, mult: np.uint64) -> np.ndarray:
    """``((doc_id & 0xFFFFFFFF) * mult) mod 2^32`` in uint64 — the
    masked product stays < 2^64 so numpy cannot wrap differently from
    the oracle's HUGEINT arithmetic (same id-range note as
    textops.q_sample_documents)."""
    ids_u = ids.astype(np.uint64) & _MASK32
    return (ids_u * mult) % SAMPLE_MOD


def q_train_split(sf_dir: str) -> ray.data.Dataset:
    """98/1/1 train/val/test split by integer hash bucket — stable
    under repartitioning and re-runs, no coordination: each task
    decides its own rows from doc_id alone."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (_hash32(ids, SPLIT_MULT) % np.uint64(1000)).astype(np.int64)
        split = np.where(bucket < 980, "train", np.where(bucket < 990, "val", "test"))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "bucket": pa.array(bucket, pa.int64()),
            "split": pa.array(split, pa.string()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id"]), f)


TRAIN_SPLIT_ORACLE = """
WITH h AS (
  SELECT doc_id,
    CAST((CAST(doc_id & 4294967295 AS HUGEINT) * 2246822519)
         % 4294967296 % 1000 AS BIGINT) AS bucket
  FROM documents)
SELECT doc_id, bucket,
  CASE WHEN bucket < 980 THEN 'train'
       WHEN bucket < 990 THEN 'val' ELSE 'test' END AS split
FROM h"""


def _n_tok(text_col) -> np.ndarray:
    """Whitespace token count with the NULL rule mirrored everywhere:
    NULL text counts 0 tokens (COALESCE on both sides — without it the
    Arrow kernel's NaN would cast to INT64_MIN and poison downstream
    integer sums)."""
    return pc.count_substring_regex(pc.coalesce(text_col, ""), r"\S+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def _quality_weight(text_col) -> np.ndarray:
    """Integer alpha-density permille in [0, 1000] — the ONE weight
    formula shared by q_quality_resample and CurateStage (SQL mirror:
    ``_QUALITY_WEIGHT_SQL``). NULL text weighs 0 and is dropped by
    every gate that uses it."""
    text = pc.coalesce(text_col, "").cast(pa.string())
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
    return np.minimum(1000, (_ascii_letters(text) * 1250) // np.maximum(n_chars, 1))


def _ascii_letters(text) -> np.ndarray:
    """Per-row count of ``[A-Za-z]`` in a non-null string column, from
    its UTF-8 bytes: a letter is a byte whose lower-cased value is in
    a..z (every byte of a multi-byte character is 0x80 or above), summed
    per row as a cumulative sum differenced at the offsets
    (``nputil.utf8_buffers``: ``string`` or ``large_string``, read in
    place). A regex
    count matched once per character and took 0.31 CPU s of 0.32 on one
    25,000-page shard."""
    offs, data, _ = utf8_buffers(text)
    b = data[offs[0]:offs[-1]]
    cum = np.concatenate([[0], np.cumsum(((b | 0x20) - ord("a")) < 26)])
    return np.diff(cum[offs - offs[0]]).astype(np.int64)


_QUALITY_WEIGHT_SQL = (
    "least(1000, (CAST(length(regexp_extract_all(COALESCE(text, ''), '[A-Za-z]')) "
    "AS BIGINT) * 1250) // greatest(CAST(length(COALESCE(text, '')) AS BIGINT), 1))"
)


def q_seq_pack(sf_dir: str, shard_bits: int | None = None,
               max_driver_shards: int = PACK_MAX_DRIVER_SHARDS,
               ) -> ray.data.Dataset:
    """Pack the doc_id-ordered corpus into fixed SEQ_LEN-token training
    sequences: each document gets the sequence id and offset where its
    tokens start in the global concatenation. A global ordered prefix
    sum, done distributed:

    1. per-shard token totals (shard = doc_id >> bits, bits auto-scaled
       from the parquet metadata row count so dense corpora keep <=
       ``max_driver_shards`` shards): a per-batch combiner emits
       (shard, partial_sum) rows and an exchange keyed by shard sums
       them — materialized distributed, never collected whole.
    2. prefix offsets per shard. If the MEASURED distinct-shard count
       fits ``max_driver_shards`` the driver cumsums the shard table
       and broadcasts it (one ray.put). Otherwise (sparse id spaces,
       or corpora past 2^20 x 2^bits docs) a SECOND prefix level runs:
       super-shard totals (shard >> 10) are folded and cumsummed on the
       driver — 1024x smaller — and each super's shards get their
       offsets vectorized in an exchange keyed by super; the per-shard
       offset table then never exists in one place.
    3. docs stream through an exchange keyed by shard, where each group
       sorts by doc_id and computes its shards' local cumsums
       vectorized; in the two-level path the shard offsets are the
       exchange's second leg (a repartition join) instead of a
       broadcast.

    The shuffles carry only (shard, doc_id, n_tok) int rows, one per
    document — text never leaves the fused read tasks."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    if shard_bits is None:
        shard_bits = _pack_shard_bits(docs.count())  # footer count

    def shard_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ntok = _n_tok(t.column("text"))
        shard = ids >> shard_bits
        us, inv = np.unique(shard, return_inverse=True)
        sums = np.bincount(inv, weights=ntok).astype(np.int64)
        return pa.table({"k": pa.array(us, pa.int64()),
                         "shard": pa.array(us, pa.int64()),
                         "tok": pa.array(sums, pa.int64())})

    totals_ds = exchange.aggregate([(docs, shard_partial)], ["shard"], {"tok": "sum"})
    n_shards = totals_ds.count()

    def prep(t: pa.Table) -> pa.Table:
        """The doc leg: (doc_id, n_tok) keyed by the doc's shard."""
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "k": pa.array(ids >> shard_bits, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "n_tok": pa.array(_n_tok(t.column("text")), pa.int64()),
        })

    def _rebase(df, shard_keys: np.ndarray, shard_offs: np.ndarray):
        """Sort one group's doc rows by doc_id, exclusive-cumsum within
        each shard segment, rebase to the shard's global offset."""
        import pandas as pd

        df = df.sort_values("doc_id")
        ntok = df["n_tok"].to_numpy()
        shard = df["k"].to_numpy()
        cs = np.cumsum(ntok) - ntok  # exclusive cumsum over the group
        # shard is nondecreasing after the doc_id sort: each row's
        # segment starts at the first row of its shard
        base = cs[np.searchsorted(shard, shard)]
        glob = cs - base + shard_offs[np.searchsorted(shard_keys, shard)]
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tok": ntok,
            "seq_id": glob // SEQ_LEN,
            "seq_off": glob % SEQ_LEN,
        })

    if n_shards <= max_driver_shards:
        # one-level: driver cumsum + one broadcast (the common case)
        totals = exchange.collect(totals_ds).sort_values("shard")
        shards = totals["shard"].to_numpy(np.int64)
        tok = totals["tok"].to_numpy(np.int64)
        offs = np.concatenate([[0], np.cumsum(tok)[:-1]]).astype(np.int64)
        off_ref = ray.put((shards, offs))

        def pack_group(df):
            g_shards, g_offs = ray.get(off_ref)
            return _rebase(df, g_shards, g_offs)

        return exchange.exchange([(docs, prep)], pack_group)

    # --- two-level prefix: driver holds only SUPER-shard offsets ---
    SUPER_BITS = 10  # 1024 shards per super-shard

    def super_partial(t: pa.Table) -> pa.Table:
        sh = t.column("shard").to_numpy(zero_copy_only=False).astype(np.int64)
        tk = t.column("tok").to_numpy(zero_copy_only=False).astype(np.int64)
        sup = sh >> SUPER_BITS
        us, inv = np.unique(sup, return_inverse=True)
        sums = np.bincount(inv, weights=tk).astype(np.int64)
        return pa.table({"super": pa.array(us, pa.int64()),
                         "tok": pa.array(sums, pa.int64())})

    sup = exchange.fold(totals_ds, ["super"], {"tok": "sum"}, fn=super_partial)
    sup_keys = sup["super"].to_numpy()
    sup_offs = np.concatenate([[0], np.cumsum(sup["tok"].to_numpy())[:-1]]) \
        .astype(np.int64)
    sup_ref = ray.put((sup_keys, sup_offs))

    def super_key(t: pa.Table) -> pa.Table:
        sh = t.column("shard").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array(sh >> SUPER_BITS, pa.int64()),
                         "shard": pa.array(sh, pa.int64()),
                         "tok": t.column("tok").cast(pa.int64())})

    def shard_offsets_group(df):
        # all shards of each super land in one group (keyed by super):
        # exclusive cumsum per super, rebased to its offset, re-keyed
        # by shard for the pack exchange
        import pandas as pd

        g_sup, g_offs = ray.get(sup_ref)
        df = df.sort_values("shard")
        sh = df["shard"].to_numpy()
        tk = df["tok"].to_numpy()
        sup_of = sh >> SUPER_BITS
        cs = np.cumsum(tk) - tk
        base = cs[np.searchsorted(sup_of, sup_of)]
        off = cs - base + g_offs[np.searchsorted(g_sup, sup_of)]
        return pd.DataFrame({"k": sh, "off": off})

    shard_offs_ds = exchange.exchange([(totals_ds, super_key)],
                                      shard_offsets_group)

    def pack_group_joined(d, offmap):
        offmap = offmap.sort_values("k")
        return _rebase(d, offmap["k"].to_numpy(np.int64),
                       offmap["off"].to_numpy(np.int64))

    return exchange.exchange([(docs, prep), (shard_offs_ds, None)],
                             pack_group_joined)


SEQ_PACK_ORACLE = r"""
WITH t AS (
  SELECT doc_id,
    CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT) AS n_tok
  FROM documents),
c AS (
  SELECT doc_id, n_tok,
    CAST(coalesce(sum(n_tok) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cum
  FROM t)
SELECT doc_id, n_tok,
  CAST(cum // 2048 AS BIGINT) AS seq_id,
  CAST(cum % 2048 AS BIGINT) AS seq_off
FROM c"""


def q_quality_resample(sf_dir: str) -> ray.data.Dataset:
    """Quality-weighted downsampling: keep a document with probability
    proportional to its alpha-character density (the importance-sample
    step of CCNet-style pipelines, here with the repo's integer quality
    signal as the weight). Weight and draw are both integers in
    [0, 1000) — ``keep iff hash(doc_id) % 1000 < w_permille`` — so the
    engine and the oracle make identical decisions with no float
    threshold anywhere."""

    def f(batch: pa.Table) -> pa.Table:
        w = _quality_weight(batch.column("text"))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        draw = (_hash32(ids, DRAW_MULT) % np.uint64(1000)).astype(np.int64)
        keep = draw < w
        t = batch.filter(pa.array(keep))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "w_permille": pa.array(w[keep], pa.int64()),
            "draw": pa.array(draw[keep], pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


QUALITY_RESAMPLE_ORACLE = f"""
WITH q AS (
  SELECT doc_id,
    {_QUALITY_WEIGHT_SQL} AS w_permille,
    CAST((CAST(doc_id & 4294967295 AS HUGEINT) * 3266489917)
         % 4294967296 % 1000 AS BIGINT) AS draw
  FROM documents)
SELECT doc_id, CAST(w_permille AS BIGINT) AS w_permille, draw
FROM q WHERE draw < w_permille"""


# ------------------------------------------- end-to-end curation ---

CP_MIN_TOK, CP_MAX_TOK, CP_MIN_W = 10, 5000, 500


class CurateStage:
    """One fused pass over the raw pages: language ID + quality
    signals + decontamination membership, emitting only the surviving
    (doc_id, text, n_tok) stream. It is built inside each stateless
    task (``q_corpus_pipeline``, and phase A of
    state/corpus_lineage.py): its state is the broadcast probe n-gram
    vocabulary (plasma-cached per worker) plus µs-built LangId stopword
    sets; everything per batch is Arrow/numpy kernels (the same ones
    the adjudicated langid / quality_score / contamination_check
    queries use)."""

    def __init__(self, probe_ref):
        from vyperdatum_ray.pipelines.textops import LangId

        # NOTE: no pa.set_cpu_count here — the tasks run on shared
        # long-lived workers, where that process-global setting would
        # leak to every later query.
        self.langid = LangId()
        self.probe = ray.get(probe_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        from vyperdatum_ray.pipelines.textops import (CONTAM_PROBE_MOD,
                                                      _ngram_strings)

        pred = self.langid(t).column("lang_pred").to_numpy(zero_copy_only=False)
        text = t.column("text")
        n_tok = _n_tok(text)
        w = _quality_weight(text)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        grams, doc_of, _ = _ngram_strings(text)
        hit = pc.is_in(grams, value_set=self.probe).to_numpy(zero_copy_only=False)
        n_contam = np.bincount(doc_of[hit], minlength=t.num_rows).astype(np.int64)
        keep = ((pred == "en") & (n_tok >= CP_MIN_TOK) & (n_tok <= CP_MAX_TOK)
                & (w >= CP_MIN_W) & (n_contam == 0)
                & (ids % CONTAM_PROBE_MOD != 0))
        kept = t.filter(pa.array(keep))
        return pa.table({
            "doc_id": kept.column("doc_id"),
            "text": kept.column("text"),
            "n_tok": pa.array(n_tok[keep], pa.int64()),
        })


def q_corpus_pipeline(sf_dir: str,
                      input_ds: ray.data.Dataset | None = None,
                      ) -> ray.data.Dataset:
    """The webtext flagship: raw pages -> curated, split training
    corpus in one streaming pipeline — English-only (LangId), quality-
    gated (10..5000 tokens, alpha density >= 0.5), decontaminated
    against the probe set (no shared 8-gram, probe docs excluded),
    exact-deduplicated (min doc_id per identical text), and assigned a
    deterministic train/val/test split. Shapes: one broadcast (probe
    vocabulary), one stateless-task scan fused into the read, and one
    exchange keyed by the text hash for the dedup (the only all-to-all;
    it carries surviving text once). Its salt width comes from the
    read's row groups, or from a caller's executed ``input_ds``'s
    blocks."""
    from vyperdatum_ray.pipelines.textops import contam_probe_ref

    probe_ref = contam_probe_ref(sf_dir, input_ds=input_ds)
    docs = input_ds if input_ds is not None else _docs(sf_dir, ["doc_id", "text"])

    def curate(t: pa.Table) -> pa.Table:
        # stateless tasks: CurateStage's "state" is the broadcast probe
        # ref (plasma-cached per worker) plus the µs-built LangId
        # arrays — a model-loading curate stage would be an actor pool
        kept = CurateStage(probe_ref)(t)
        return kept.append_column("k", _hash_key(kept.column("text")))

    def dedup_split(df):
        df = df.sort_values("doc_id")
        g = df.groupby("text", as_index=False).agg(
            doc_id=("doc_id", "first"), n_tok=("n_tok", "first"))
        ids = g["doc_id"].to_numpy().astype(np.int64)
        bucket = (_hash32(ids, SPLIT_MULT) % np.uint64(1000)).astype(np.int64)
        g["split"] = np.where(bucket < 980, "train",
                              np.where(bucket < 990, "val", "test"))
        return g[["doc_id", "n_tok", "split"]]

    return exchange.exchange([(docs, curate)], dedup_split)


def corpus_pipeline_oracle_sql() -> str:
    from vyperdatum_ray.pipelines.textops import _langid_sql_parts

    score_cols, tot, pred, _langs = _langid_sql_parts()
    return rf"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-z'']+') AS t
  FROM documents),
sc AS (SELECT doc_id, {', '.join(score_cols)} FROM toks),
lid AS (SELECT doc_id, {pred} AS lang_pred FROM sc),
feat AS (
  SELECT doc_id, text,
    CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT) AS n_tok,
    {_QUALITY_WEIGHT_SQL} AS w
  FROM documents),
tok2 AS (SELECT doc_id, regexp_split_to_array(text, '\s+') AS a FROM documents),
win AS (SELECT doc_id, a, unnest(range(1, greatest(len(a) - 7, 0) + 1)) AS i FROM tok2),
grams AS (SELECT doc_id, array_to_string(list_slice(a, i, i + 7), ' ') AS g FROM win),
probe AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
hits AS (SELECT grams.doc_id, count(*) AS n FROM grams JOIN probe USING (g)
         GROUP BY grams.doc_id),
kept AS (
  SELECT f.doc_id, f.text, f.n_tok
  FROM feat f JOIN lid USING (doc_id) LEFT JOIN hits h ON f.doc_id = h.doc_id
  WHERE lid.lang_pred = 'en' AND f.n_tok BETWEEN {CP_MIN_TOK} AND {CP_MAX_TOK}
    AND f.w >= {CP_MIN_W} AND coalesce(h.n, 0) = 0 AND f.doc_id % 97 <> 0),
ded AS (SELECT min(doc_id) AS doc_id FROM kept GROUP BY text),
fin AS (SELECT k.doc_id, k.n_tok FROM kept k JOIN ded USING (doc_id)),
spl AS (
  SELECT doc_id, n_tok,
    CAST((CAST(doc_id & 4294967295 AS HUGEINT) * 2246822519)
         % 4294967296 % 1000 AS BIGINT) AS bucket
  FROM fin)
SELECT doc_id, n_tok,
  CASE WHEN bucket < 980 THEN 'train'
       WHEN bucket < 990 THEN 'val' ELSE 'test' END AS split
FROM spl"""
