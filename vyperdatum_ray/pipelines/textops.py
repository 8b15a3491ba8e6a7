"""Training-data text operators over the ``documents`` / ``pages``
tables: exact + normalized dedup, MinHash-LSH near-dup, SimHash,
rolling-hash fingerprints, token counting, quality scoring, language ID.

Vectorized per batch. Every shuffle (the dedups, the LSH bucket and
pair-dedup stages, neardup_jaccard's text fetch) is one
``exchange.exchange``: each leg keys its rows by an int64 ``k`` (a text
hash, a (band, value) bucket, a mixed id pair) in its own split task, and
the reduce compares the real values inside each salt group, so key
collisions cannot merge distinct texts or buckets. Every read goes
through ``exchange.read`` (one block per row group), and each exchange
takes its salt width from its legs' blocks.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from vyperdatum_ray.core.helmert import sql_rn
from vyperdatum_ray.pipelines import exchange

NORMALIZE_PATTERN = r"[0-9]+(\.[0-9]+)?"  # digits (incl. decimals) -> '#'


def _docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return exchange.read(f"{sf_dir}/documents.parquet", columns)


def _hash_utf8_fast(arr) -> np.ndarray:
    """Vectorized content hash via polars' xxhash (deterministic for a
    pinned polars version; used for shuffle keys, with exact-equality
    verification inside each group so collisions are harmless)."""
    import polars as pl

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pl.from_arrow(arr).hash(seed=42).to_numpy().astype(np.uint64)


def _hash_key(arr) -> pa.Array:
    """The int64 exchange key of a text column: its 64-bit hash."""
    return pa.array(_hash_utf8_fast(arr).view(np.int64))


def _counts(values, name: str, col: str) -> pa.Table:
    """A leg's per-batch partial counts of a text array: one row per
    distinct value (``name``), its count (``col``) and its hash ``k``."""
    vc = values.value_counts()
    if isinstance(vc, pa.ChunkedArray):
        vc = vc.combine_chunks()
    return pa.table({"k": _hash_key(vc.field("values")), name: vc.field("values"),
                     col: pc.cast(vc.field("counts"), pa.int64())})


def _top(k: int, count: str, key: str):
    """A reduce's ``post``: its group's first ``k`` rows under
    (``count`` desc, ``key`` asc). Every copy of a key is in one group,
    so the groups' heads hold the global top-k, and the query's own
    sort + limit over them is exact."""
    def top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values([count, key], ascending=[False, True]).head(k)
    return top


def _tokens(batch: pa.Table) -> pa.Array:
    """The non-empty whitespace tokens of a batch's text, flattened."""
    toks = pc.list_flatten(
        pc.split_pattern_regex(pc.coalesce(batch.column("text"), ""), r"\s+"))
    return pc.filter(toks, pc.greater(pc.utf8_length(toks), 0))


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup of documents by full text: keep min doc_id per
    distinct text. One exchange keyed by the text hash: every copy of a
    text shares its hash, hence its salt group, and inside each group
    the per-text reduction is one vectorized pandas groupby on the text
    itself, so hash collisions cannot merge distinct texts."""

    def key(batch: pa.Table) -> pa.Table:
        return pa.table({"k": _hash_key(batch.column("text")),
                         "doc_id": batch.column("doc_id"),
                         "text": batch.column("text")})

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text", as_index=False).agg(doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
        return g[["doc_id", "n_dups"]]

    return exchange.exchange(
        [(_docs(sf_dir, ["doc_id", "text"]), key)], reduce_group)


def q_dedup_normalized(sf_dir: str) -> ray.data.Dataset:
    """Template dedup of pages: strip numbers from text, dedupe on the
    normalized key (the pages corpus is template-generated, so this
    collapses it to the handful of real templates). Same exchange as
    q_dedup_exact, keyed by the normalized text's hash."""
    from vyperdatum_ray.fixtures import pages_paths

    def key(batch: pa.Table) -> pa.Table:
        norm = pc.replace_substring_regex(batch.column("text"), NORMALIZE_PATTERN, "#")
        return pa.table({"k": _hash_key(norm), "url": batch.column("url"),
                         "norm_text": norm})

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("norm_text", as_index=False).agg(url=("url", "min"), n_dups=("url", "size"))
        return g[["url", "n_dups"]]

    paths = pages_paths(sf_dir)
    return exchange.exchange(
        [(exchange.read(paths, ["url", "text"]), key)],
        reduce_group)


CONTAM_N = 8          # n-gram width for decontamination
CONTAM_PROBE_MOD = 97  # synthetic "benchmark" set: doc_id % 97 == 0


def _ngram_strings(text_col, n: int = CONTAM_N) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """EXACT word n-gram strings for a batch, fully vectorized: split
    to tokens, then join ``n`` zero-copy shifted slices of the flat
    token array element-wise; windows crossing document boundaries are
    masked out. Returns (grams, doc_of_gram, n_docs_tokens) where
    ``grams`` are the literal space-joined n-gram strings — bit-equal
    to SQL ``array_to_string(list_slice(a, i, i+n-1), ' ')`` — so the
    DuckDB mirror compares the same strings, not hashes."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern_regex(pc.coalesce(text_col, ""), r"\s+")
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    m = len(flat)
    n_win = m - n + 1
    if n_win <= 0:
        return pa.array([], pa.string()), np.zeros(0, np.int64), counts
    joined = pc.binary_join_element_wise(
        *[flat.slice(j, n_win) for j in range(n)], " ")
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    doc_of_pos = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    doc_of = doc_of_pos[:n_win]
    pos_in_doc = np.arange(n_win, dtype=np.int64) - starts[doc_of]
    valid = pos_in_doc <= counts[doc_of] - n
    return (joined.filter(pa.array(valid)), doc_of[np.flatnonzero(valid)], counts)


def contam_probe_ref(sf_dir: str, input_ds: ray.data.Dataset | None = None):
    """Collect the probe set's word-8-gram vocabulary (distributed
    per-batch uniques, merged + deduped once) and ``ray.put`` it: the
    broadcast is bounded by the benchmark suite's size, which is small
    by nature — MBs even for a full eval harness."""

    def probe_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % CONTAM_PROBE_MOD == 0))
        grams, _, _ = _ngram_strings(t.column("text"))
        return pa.table({"g": pc.unique(grams)})

    ds = input_ds if input_ds is not None else _docs(sf_dir, ["doc_id", "text"])
    grams = exchange.collect(exchange.map(ds, probe_partial))["g"]
    return ray.put(pc.unique(pa.array(grams, pa.string())))


def q_contamination_check(sf_dir: str) -> ray.data.Dataset:
    """Benchmark decontamination: flag documents sharing any word
    8-gram with a probe ("benchmark") set — here the deterministic
    doc_id % 97 == 0 subset standing in for an eval suite. The probe
    n-gram vocabulary is collected once and broadcast
    (``contam_probe_ref``); the corpus streams through one stateless
    membership scan. Output: per-doc matching-window count and flag."""
    probe_ref = contam_probe_ref(sf_dir)

    def scan(t: pa.Table) -> pa.Table:
        probe_arr = ray.get(probe_ref)
        grams, doc_of, _ = _ngram_strings(t.column("text"))
        hit = pc.is_in(grams, value_set=probe_arr).to_numpy(zero_copy_only=False)
        n = np.bincount(doc_of[hit], minlength=t.num_rows).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_contam": pa.array(n, pa.int64()),
            "contaminated": pa.array((n > 0).astype(np.int64), pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), scan)


CONTAMINATION_ORACLE = r"""
WITH tok AS (SELECT doc_id, regexp_split_to_array(text, '\s+') AS a FROM documents),
win AS (SELECT doc_id, a, unnest(range(1, greatest(len(a) - 7, 0) + 1)) AS i FROM tok),
grams AS (SELECT doc_id, array_to_string(list_slice(a, i, i + 7), ' ') AS g FROM win),
probe AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
hits AS (SELECT grams.doc_id, count(*) AS n FROM grams JOIN probe USING (g) GROUP BY grams.doc_id)
SELECT d.doc_id, CAST(coalesce(h.n, 0) AS BIGINT) AS n_contam,
       CAST(coalesce(h.n, 0) > 0 AS BIGINT) AS contaminated
FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id"""


# PII patterns — RE2 on both sides (pyarrow and DuckDB both embed RE2),
# mirrored verbatim in the SQL oracle. Counts are taken on the RAW text;
# redaction applies the three replacements in this fixed order.
PII_EMAIL_PATTERN = r"[A-Za-z0-9._]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_PATTERN = r"\b555-01\d\d\b"
PII_IP_PATTERN = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def q_pii_redact(sf_dir: str) -> ray.data.Dataset:
    """PII detection + redaction over pages text (emails, 555-01xx
    phone numbers, IPv4 addresses): per-row match counts on the raw
    text and a redacted text with matches replaced by <EMAIL> /
    <PHONE> / <IP> in that order. Pure Arrow regex kernels — stateless
    per-block tasks, no Python row loop."""
    from vyperdatum_ray.fixtures import pages_paths

    def f(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        red = pc.replace_substring_regex(text, PII_EMAIL_PATTERN, "<EMAIL>")
        red = pc.replace_substring_regex(red, PII_PHONE_PATTERN, "<PHONE>")
        red = pc.replace_substring_regex(red, PII_IP_PATTERN, "<IP>")
        return pa.table({
            "url": batch.column("url"),
            "n_email": pc.cast(pc.count_substring_regex(text, PII_EMAIL_PATTERN), pa.int64()),
            "n_phone": pc.cast(pc.count_substring_regex(text, PII_PHONE_PATTERN), pa.int64()),
            "n_ip": pc.cast(pc.count_substring_regex(text, PII_IP_PATTERN), pa.int64()),
            "redacted": red,
        })

    return exchange.map(exchange.read(pages_paths(sf_dir), ["url", "text"]), f)


def q_line_dedup(sf_dir: str, min_count: int = 3) -> ray.data.Dataset:
    """C4-style corpus-level line dedup over pages: any LINE occurring
    >= min_count times across the whole corpus (boilerplate — cookie
    banners, footers) is removed from every document; output is the
    cleaned text plus the per-document removed-line count.

    Two passes, both streaming:
    1. count lines — per-batch PARTIAL counts via Arrow hash aggregate
       (repeated-in-batch boilerplate collapses before the shuffle),
       then an exchange keyed by the line hash sums partials with an
       exact per-TEXT pandas reduction — hash collisions cannot merge
       distinct lines.
    2. the hot-line set (count >= min_count) is collected and
       broadcast — bounded by the DISTINCT boilerplate vocabulary, not
       the corpus (C4's removal set) — and a stateless second scan
       drops member lines with one ``pc.is_in`` over the flattened
       line lists, reassembling documents via list offsets.

    At a scale where the distinct hot-line set itself outgrows a
    broadcast, pass 2 becomes a line-hash repartition join (same
    union + bounded-salt groupby shape as neardup_jaccard's exchange
    path); the broadcast form is the common case. The pass-1 groups
    carry (line, partial count) rows, one partial per distinct line per
    read block."""
    from vyperdatum_ray.fixtures import pages_paths

    paths = pages_paths(sf_dir)

    def line_partials(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), "\n"))
        part = pa.table({"line": flat}).group_by("line").aggregate([("line", "count")])
        lines = part.column("line").combine_chunks()
        return pa.table({"k": _hash_key(lines), "line": lines,
                         "n": pc.cast(part.column("line_count"), pa.int64())})

    def reduce_hot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("line", as_index=False)["n"].sum()
        return g[g["n"] >= min_count]

    hot = exchange.exchange(
        [(exchange.read(paths, ["text"]), line_partials)],
        reduce_hot)
    hot_ref = ray.put(pa.array(exchange.collect(hot)["line"], pa.string()))

    def clean(batch: pa.Table) -> pa.Table:
        hot_arr = ray.get(hot_ref)
        lines = pc.split_pattern(batch.column("text"), "\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = pc.list_flatten(lines)
        offs = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]  # sliced ListArrays carry a nonzero start
        drop = pc.is_in(flat, value_set=hot_arr).to_numpy(zero_copy_only=False)
        keep = (~drop).astype(np.int64)
        keep_idx = np.flatnonzero(keep)
        n_tot = np.diff(offs)
        n_kept = (np.add.reduceat(keep, offs[:-1]) if len(flat)
                  else np.zeros(0, np.int64))
        n_kept = np.where(n_tot == 0, 0, n_kept).astype(np.int64)
        new_offs = np.r_[np.int64(0), np.cumsum(n_kept)]
        kept = pa.ListArray.from_arrays(
            pa.array(new_offs, pa.int32()), flat.take(pa.array(keep_idx, pa.int64())))
        return pa.table({
            "url": batch.column("url"),
            "clean_text": pc.binary_join(kept, "\n"),
            "n_removed": pa.array(n_tot - n_kept, pa.int64()),
        })

    return exchange.map(exchange.read(paths, ["url", "text"]), clean)


NEARDUP_CLUSTER_PAIR_CAP = 2_000_000  # driver union-find edge budget


def q_neardup_clusters_text(sf_dir: str, tau: float = 0.5,
                            pair_cap: int = NEARDUP_CLUSTER_PAIR_CAP,
                            ) -> ray.data.Dataset:
    """Keep-one fuzzy dedup over documents — the standard web-corpus
    near-dup removal flow end-to-end: MinHash-LSH candidate recall ->
    exact 5-gram Jaccard >= tau verification (q_neardup_jaccard) ->
    connected components of the verified pair graph -> every document
    labeled (cluster_id = min doc_id of its component, is_canonical).
    Downstream keeps ``is_canonical = 1`` rows. Dual-path clustering
    via ann.clusters_from_pairs: driver union-find under ``pair_cap``
    verified edges, distributed min-label propagation past it. Rows-
    only by nature (the LSH candidate set is not SQL-expressible);
    tests assert exact equality with a single-process transitive
    closure of the same verified pairs."""
    from vyperdatum_ray.pipelines.ann import clusters_from_pairs

    pairs = q_neardup_jaccard(sf_dir, tau=tau)
    return clusters_from_pairs(pairs, _docs(sf_dir, ["doc_id"]),
                               "id_a", "id_b", "doc_id", pair_cap)


def q_token_count(sf_dir: str) -> ray.data.Dataset:
    def f(batch: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64())
        return pa.table({"doc_id": batch.column("doc_id"), "n_tokens": n})

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


def q_quality_score(sf_dir: str) -> ray.data.Dataset:
    """Quality signals: char/alpha/space/punct counts (ints — exact)."""

    def f(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_alpha": pc.cast(pc.count_substring_regex(text, r"[A-Za-z]"), pa.int64()),
                "n_space": pc.cast(pc.count_substring_regex(text, r"\s"), pa.int64()),
                "n_punct": pc.cast(pc.count_substring_regex(text, r"[.,;:!?]"), pa.int64()),
            }
        )

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


# --------------------------------------------------------- language ID ---

_LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "with", "for"],
    "es": ["el", "la", "de", "que", "y", "en", "los", "por"],
    "de": ["der", "die", "und", "das", "ist", "von", "mit", "den"],
    "fr": ["le", "la", "les", "des", "et", "est", "dans", "pour"],
}


class LangId:
    """Stopword-vote language ID, fully vectorized per batch: Arrow
    lower + regex split -> one flat token array -> per-lang ``pc.is_in``
    membership -> per-document vote sums via ``np.add.reduceat`` (the
    same flat-token pattern SimHashStage uses — no per-row or per-token
    Python loops). Ties break to the lexicographically LARGEST language
    name; docs with zero stopword votes predict 'und' with conf 0."""

    def __init__(self):
        # tie-break order: descending lang name, argmax takes the first max
        self.langs = sorted(_LANG_STOPWORDS, reverse=True)
        self.stopsets = [pa.array(_LANG_STOPWORDS[l], pa.string()) for l in self.langs]
        self.lang_arr = np.array(self.langs, dtype=object)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(pc.coalesce(col, "")), r"[^a-z']+")
        flat = pc.list_flatten(toks)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(counts)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        scores = np.zeros((n, len(self.langs)), dtype=np.int64)
        if len(flat):
            # split always yields >= 1 fragment per doc, so every reduceat
            # segment is non-empty ('' matches no stopword and votes 0)
            for j, ss in enumerate(self.stopsets):
                hit = pc.is_in(flat, value_set=ss).to_numpy(zero_copy_only=False).astype(np.int64)
                scores[:, j] = np.add.reduceat(hit, offsets)
        total = scores.sum(axis=1)
        best = np.argmax(scores, axis=1)
        best_score = scores[np.arange(n), best]
        pred = np.where(total > 0, self.lang_arr[best], "und")
        conf = np.where(total > 0, best_score / np.maximum(total, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(pred, pa.string()),
                "lang_conf": pa.array(conf, pa.float64()),
            }
        )


def q_langid(sf_dir: str) -> ray.data.Dataset:
    # stateless tasks: LangId's "state" is four tiny stopword arrays
    # (~µs to build), far cheaper than an actor pool's startup — and an
    # autoscaling (1, N) pool often never ramps past 1 actor on a short
    # job, serializing the whole scan
    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), lambda t: LangId()(t))


def q_token_dedup_stats(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition quality signals per document: token
    count, distinct-token count, and the most-repeated token's count
    (high duplicate-token fraction flags boilerplate/spam). Fully
    vectorized: one flat token array per batch, xxhash, one
    (doc, hash)-sorted pass for per-doc distinct + run lengths."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern_regex(pc.coalesce(col, ""), r"\s+")
        flat = pc.list_flatten(toks)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(counts)
        doc_of_all = np.repeat(np.arange(n, dtype=np.int64), counts)
        nonempty = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        ds_ = doc_of_all[nonempty]
        n_tokens = np.bincount(ds_, minlength=n).astype(np.int64)
        n_distinct = np.zeros(n, dtype=np.int64)
        max_count = np.zeros(n, dtype=np.int64)
        if nonempty.any():
            hs = _hash_utf8_fast(pc.filter(flat, pa.array(nonempty)))
            order = np.lexsort((hs, ds_))
            hs, ds_ = hs[order], ds_[order]
            starts = np.flatnonzero(np.r_[True, (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])])
            run_doc = ds_[starts]
            run_len = np.diff(np.r_[starts, len(ds_)])
            n_distinct = np.bincount(run_doc, minlength=n).astype(np.int64)
            docs_with = np.flatnonzero(n_distinct > 0)
            offs = np.searchsorted(run_doc, docs_with)
            max_count[docs_with] = np.maximum.reduceat(run_len, offs)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "max_count": pa.array(max_count, pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


TOKEN_DEDUP_ORACLE = r"""
WITH toks AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(text, '\s+'), x -> length(x) > 0) AS t
  FROM documents
),
ex AS (SELECT doc_id, unnest(t) AS tok FROM toks),
cnt AS (SELECT doc_id, tok, count(*) AS c FROM ex GROUP BY doc_id, tok),
agg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
    count(*) AS n_distinct, CAST(max(c) AS BIGINT) AS max_count
  FROM cnt GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(a.n_tokens, 0) AS n_tokens,
  COALESCE(a.n_distinct, 0) AS n_distinct,
  COALESCE(a.max_count, 0) AS max_count
FROM documents d LEFT JOIN agg a USING (doc_id)"""


PCTS = (25, 50, 75, 90, 99)


def q_token_percentiles(sf_dir: str) -> pd.DataFrame:
    """EXACT corpus token-count percentiles via bounded histogram
    partials (the region_median trick): token counts are small ints, so
    per-block bincounts folded on the driver move (value, count) rows
    only — never the data; order statistics come off the cumulative
    histogram. Midpoint convention: average of the floor/ceil rank
    values (same expression in the SQL oracle)."""

    def partial(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(pc.count_substring_regex(batch.column("text"), r"\S+"),
                        pa.int64()).to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(n_tok, return_counts=True)
        return pa.table({"val": pa.array(vals, pa.int64()),
                         "p_n": pa.array(cnts.astype(np.int64), pa.int64())})

    hist = exchange.fold(_docs(sf_dir, ["text"]),
                         ["val"], {"p_n": "sum"}, fn=partial)
    vals = hist["val"].to_numpy()
    cum = hist["p_n"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    rows = []
    for p in PCTS if n else ():  # no document: no row, as in the SQL
        lo = int(np.floor(p / 100.0 * (n - 1)))
        hi = int(np.ceil(p / 100.0 * (n - 1)))
        vlo = vals[np.searchsorted(cum, lo + 1)]
        vhi = vals[np.searchsorted(cum, hi + 1)]
        rows.append({"pct": p, "value": (vlo + vhi) / 2.0})
    return pd.DataFrame(rows, columns=["pct", "value"]).astype(
        {"pct": np.int64, "value": np.float64})


TOKEN_PERCENTILES_ORACLE = r"""
WITH tc AS (
  SELECT CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tok
  FROM documents
),
ranked AS (
  SELECT n_tok, row_number() OVER (ORDER BY n_tok) AS rn,
    count(*) OVER () AS n
  FROM tc
),
ps AS (SELECT * FROM (VALUES (25), (50), (75), (90), (99)) p(pct))
SELECT CAST(pct AS BIGINT) AS pct,
  (max(CASE WHEN rn = CAST(floor(pct / 100.0 * (n - 1)) AS BIGINT) + 1 THEN n_tok END)
   + max(CASE WHEN rn = CAST(ceil(pct / 100.0 * (n - 1)) AS BIGINT) + 1 THEN n_tok END)) / 2.0 AS value
FROM ranked CROSS JOIN ps GROUP BY pct"""


def q_lang_token_stats(sf_dir: str) -> ray.data.Dataset:
    """Composition op: corpus token volume per PREDICTED language (the
    shape of a per-language training-data budget report). One pass
    computes langid + token count per block and emits per-language
    partials, folded on the driver: only (lang, n, tokens) rows leave
    the tasks."""

    class LangTok(LangId):
        def __call__(self, batch: pa.Table) -> pa.Table:
            pred = super().__call__(batch)
            n_tok = pc.cast(pc.count_substring_regex(
                pc.coalesce(batch.column("text"), ""), r"\S+"), pa.int64())
            df = pd.DataFrame({
                "lang_pred": pred.column("lang_pred").to_numpy(zero_copy_only=False),
                "n": n_tok.to_numpy(zero_copy_only=False),
            })
            g = df.groupby("lang_pred", as_index=False).agg(
                p_docs=("n", "size"), p_tokens=("n", "sum"))
            return pa.Table.from_pandas(g, preserve_index=False)

    g = exchange.fold(_docs(sf_dir, ["doc_id", "text"]), ["lang_pred"],
                      {"p_docs": "sum", "p_tokens": "sum"}, fn=lambda t: LangTok()(t))
    return exchange.from_arrow(pa.Table.from_pandas(g.rename(
        columns={"p_docs": "n_docs", "p_tokens": "sum_tokens"}), preserve_index=False))


def lang_token_stats_oracle_sql() -> str:
    score_cols, tot, pred, langs = _langid_sql_parts()
    return f"""
WITH toks AS (
  SELECT doc_id,
    regexp_extract_all(lower(COALESCE(text, '')), '[a-z'']+') AS t,
    CAST(length(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS BIGINT) AS n_tok
  FROM documents
),
sc AS (SELECT doc_id, n_tok, {', '.join(score_cols)} FROM toks)
SELECT {pred} AS lang_pred, count(*) AS n_docs,
  CAST(sum(n_tok) AS BIGINT) AS sum_tokens
FROM sc GROUP BY lang_pred"""


def _langid_sql_parts() -> tuple[list[str], str, str, list[str]]:
    """Shared SQL fragments for the LangId mirror: per-lang stopword
    score columns, total, and the descending-name tie-break CASE —
    built ONCE so every oracle using the prediction agrees."""
    langs = sorted(_LANG_STOPWORDS, reverse=True)
    score_cols = []
    for l in langs:
        words = ", ".join(f"'{w}'" for w in _LANG_STOPWORDS[l])
        score_cols.append(
            f"CAST(len(list_filter(t, x -> x IN ({words}))) AS BIGINT) AS s_{l}"
        )
    tot = " + ".join(f"s_{l}" for l in langs)
    pred_cases = []
    for i, l in enumerate(langs[:-1]):
        conds = " AND ".join(f"s_{l} >= s_{m}" for m in langs[i + 1:])
        pred_cases.append(f"WHEN {conds} THEN '{l}'")
    pred = (f"CASE WHEN {tot} = 0 THEN 'und' "
            + " ".join(pred_cases) + f" ELSE '{langs[-1]}' END")
    return score_cols, tot, pred, langs


def langid_oracle_sql() -> str:
    """DuckDB mirror of LangId: same tokenization ([a-z']+ runs of the
    lowered text), same per-lang stopword counts, same descending-name
    tie-break, same raw double division for confidence."""
    score_cols, tot, pred, langs = _langid_sql_parts()
    best = "greatest(" + ", ".join(f"s_{l}" for l in langs) + ")"
    return f"""
WITH toks AS (
  SELECT doc_id,
    regexp_extract_all(lower(COALESCE(text, '')), '[a-z'']+') AS t
  FROM documents
),
sc AS (SELECT doc_id, {', '.join(score_cols)} FROM toks)
SELECT doc_id, {pred} AS lang_pred,
  CASE WHEN {tot} = 0 THEN 0.0
       ELSE CAST({best} AS DOUBLE) / ({tot}) END AS lang_conf
FROM sc"""


# -------------------------------------------------- fingerprints / LSH ---

_MERSENNE = np.uint64((1 << 61) - 1)
_SHINGLE_MOD = np.uint64((1 << 31) - 1)  # shingle hashes < 2^31 so a*s fits uint64


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Rolling polynomial hashes of character k-shingles, vectorized
    (k shifted-slice passes; values < 2^31)."""
    data = np.frombuffer((text or "").encode(), dtype=np.uint8).astype(np.uint64)
    if len(data) < k:
        data = np.pad(data, (0, k - len(data)), constant_values=32)
    n = len(data) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        h = (h * np.uint64(257) + data[j : j + n]) % _SHINGLE_MOD
    return np.unique(h)


def _shingle_hashes_batch(texts: list, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Per-document sorted-unique k-shingle hashes for a WHOLE batch in
    one vectorized pass (identical values to per-doc _shingle_hashes —
    same rolling hash, same space padding of short docs): returns
    (flat, counts) where ``flat`` concatenates each doc's unique hashes
    in doc order. The only per-doc Python work is the byte encode."""
    if not texts:  # empty candidate set / empty batch
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    bufs = []
    for t in texts:
        b = (t or "").encode()
        bufs.append(b if len(b) >= k else b + b"\x20" * (k - len(b)))
    n_docs = len(bufs)
    lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=n_docs)
    data = np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.uint64)
    # rolling hash over the WHOLE concatenated buffer with contiguous
    # shifted slices (no gathers), then mask windows crossing doc
    # boundaries; per-doc unique via ONE sort of (doc << 31 | hash)
    # packed keys (hashes are < 2^31)
    n_win = len(data) - k + 1
    h = np.zeros(n_win, dtype=np.uint64)
    for j in range(k):
        h = (h * np.uint64(257) + data[j : j + n_win]) % _SHINGLE_MOD
    doc_of_pos = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    doc_of = doc_of_pos[:n_win]
    pos_in_doc = np.arange(n_win, dtype=np.int64) - starts[doc_of]
    valid = pos_in_doc <= lens[doc_of] - k
    key = (doc_of[valid].astype(np.uint64) << np.uint64(31)) | h[valid]
    key.sort(kind="stable")
    keep = np.r_[True, key[1:] != key[:-1]]
    key = key[keep]
    hs = key & np.uint64((1 << 31) - 1)
    counts = np.bincount((key >> np.uint64(31)).astype(np.int64),
                         minlength=n_docs).astype(np.int64)
    return hs, counts


class MinHasher:
    """MinHash signatures over character shingles. Permutation params
    are < 2^31 so ``(a*s + b) % (2^61-1)`` never overflows uint64 —
    fully vectorized as a (num_perm, n_shingles) broadcast."""

    def __init__(self, num_perm: int = 64, k: int = 5, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 1 << 31, num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, 1 << 31, num_perm, dtype=np.int64).astype(np.uint64)
        self.k = k
        self.num_perm = num_perm

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)



_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _band_key(t: pa.Table, value_col: str) -> pa.Table:
    """``t`` keyed for the LSH bucket exchange: ``k`` mixes the band
    into its value, so every row of one (band_id, value) bucket shares
    a key (a collision across buckets only shares a salt group)."""
    v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.uint64)
    b = t.column("band_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    return t.append_column("k", pa.array((v ^ (b * _GOLDEN)).view(np.int64)))


def _pairs_grouped(df: pd.DataFrame, value_col: str) -> pd.DataFrame:
    """Candidate pairs from one salt group of LSH rows: vectorized
    equal-(band_id, value) run detection, mega-bucket guard (> 64 ids),
    sorted (id_a < id_b) pair emission. Shared by the MinHash and
    SimHash banding variants."""
    bv = df[value_col].to_numpy().astype(np.uint64)
    band = df["band_id"].to_numpy()
    ids = df["id"].to_numpy()
    order = np.lexsort((bv, band))
    bv, band, ids = bv[order], band[order], ids[order]
    starts = np.flatnonzero(np.r_[True, (bv[1:] != bv[:-1]) | (band[1:] != band[:-1])])
    ends = np.r_[starts[1:], len(bv)]
    a_parts, b_parts = [], []
    for st, en in zip(starts, ends):
        m = en - st
        if m < 2 or m > 64:  # degenerate / mega-bucket guard
            continue
        seg = np.sort(ids[st:en])
        ia, ib = np.triu_indices(m, k=1)
        a_parts.append(seg[ia])
        b_parts.append(seg[ib])
    if not a_parts:
        return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                             "id_b": pd.Series(dtype=np.int64)})
    return pd.DataFrame({"id_a": np.concatenate(a_parts),
                         "id_b": np.concatenate(b_parts)})


def _dedup_pair_ds(cand: ray.data.Dataset) -> ray.data.Dataset:
    """Global (id_a, id_b) pair dedup of an exchange's output ``cand``:
    one exchange keyed by the mixed id pair, keeping the first row of
    each pair with all of ``cand``'s other columns."""

    def key(t: pa.Table) -> pa.Table:
        a = t.column("id_a").to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t.column("id_b").to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.append_column(
            "k", pa.array(((a * np.uint64(2654435761)) ^ b).view(np.int64)))

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"]).drop(columns="k")

    return exchange.exchange([(cand, key)], dedup_pairs)


class MinHashStage:
    def __init__(self, num_perm=64, bands=16, id_col="doc_id", text_col="text"):
        self.mh = MinHasher(num_perm=num_perm)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.id_col = id_col
        self.text_col = text_col

    def _batch_signatures(self, texts: list) -> np.ndarray:
        """All signatures of a batch in one vectorized pass: ONE flat
        shingle computation for the whole batch (no per-doc Python
        loop), broadcast all permutations over the flat array, then
        per-document min via ``np.minimum.reduceat``."""
        flat, lengths = _shingle_hashes_batch(texts, self.mh.k)
        offsets = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        sigs = np.empty((len(texts), self.mh.num_perm), dtype=np.uint64)
        # chunk permutations to bound the (num_perm, total_shingles) temp
        for p0 in range(0, self.mh.num_perm, 16):
            p1 = min(p0 + 16, self.mh.num_perm)
            vals = (self.mh.a[p0:p1, None] * flat[None, :] + self.mh.b[p0:p1, None]) % _MERSENNE
            sigs[:, p0:p1] = np.minimum.reduceat(vals, offsets, axis=1).T
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Emit (band_id, band_hash, id) rows — the LSH explode."""
        texts = batch.column(self.text_col).to_pylist()
        n = len(texts)
        sigs = self._batch_signatures(texts)
        banded = sigs.reshape(n, self.bands, self.rows_per_band)
        band_hash = np.bitwise_xor.reduce(banded, axis=2) * np.uint64(0x9E3779B97F4A7C15)
        band_id = np.tile(np.arange(self.bands, dtype=np.int32), n)
        ids = batch.column(self.id_col)
        id_rep = ids.take(pa.array(np.repeat(np.arange(n), self.bands)))
        return pa.table(
            {
                "band_id": pa.array(band_id, pa.int32()),
                "band_hash": pa.array(band_hash.reshape(-1), pa.uint64()),
                "id": id_rep,
            }
        )


@functools.lru_cache(maxsize=4)
def _minhash_stage_cached(num_perm: int, bands: int, id_col: str,
                          text_col: str) -> "MinHashStage":
    """One MinHashStage per worker process (lru_cache is per-process):
    lets the band explode run as stateless TASKS — one per input unit,
    parallel across every CPU — instead of a small actor pool that
    bundled blocks into a handful of giant tasks (measured 3 tasks / 4s
    UDF at sf0.1)."""
    return MinHashStage(num_perm=num_perm, bands=bands,
                        id_col=id_col, text_col=text_col)


def _minhash_explode(batch: pa.Table) -> pa.Table:
    return _minhash_stage_cached(64, 16, "doc_id", "text")(batch)


def _minhash_candidates_raw(sf_dir: str) -> ray.data.Dataset:
    """Pre-dedup MinHash-LSH candidate pairs: shingle -> minhash ->
    band explode, then one exchange keyed by the (band, hash) bucket
    whose reduce finds equal-bucket runs vectorized (never one Python
    call per bucket: 80k of them at sf0.1 dominated wall time) -> pairs.
    A pair colliding in several bands appears once per band; callers
    dedup either distributed (`_dedup_pair_ds`, the standalone query)
    or driver-side on the collected bounded pair list (the jaccard fast
    path — saves a full Ray sort)."""
    return exchange.exchange(
        [(_docs(sf_dir, ["doc_id", "text"]),
          lambda t: _band_key(_minhash_explode(t), "band_hash"))],
        lambda df: _pairs_grouped(df, "band_hash"))


def q_minhash_pairs(sf_dir: str) -> ray.data.Dataset:
    """MinHash-LSH near-dup candidate pairs over documents text
    (rows-only check; Jaccard-verified in tests): shingle -> minhash ->
    band explode -> groupby(band) -> pairs -> dedup by (id_a, id_b).

    Mega-buckets (> 64 ids sharing a band hash — template spam at web
    scale) are dropped, the standard LSH guard against the O(n^2) pair
    explosion a hot bucket would cause."""
    return _dedup_pair_ds(_minhash_candidates_raw(sf_dir))


class SimHashStage:
    """64-bit SimHash over word unigrams, fully vectorized per batch:
    Arrow regex tokenize -> one flat token array -> xxhash via polars ->
    per-document signed bit sums via ``np.add.reduceat``."""

    def __init__(self, id_col="doc_id", text_col="text"):
        self.id_col = id_col
        self.text_col = text_col
        self.shifts = np.arange(64, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern_regex(pc.coalesce(col, ""), r"\s+")
        flat = pc.list_flatten(toks)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(counts)
        hashes = np.zeros(n, dtype=np.uint64)
        if len(flat):
            hs = _hash_utf8_fast(flat)
            valid = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
            bits = ((hs[:, None] >> self.shifts[None, :]) & np.uint64(1)).astype(np.int64)
            signed = (2 * bits - 1) * valid[:, None]  # empty split fragments weigh 0
            offsets = np.zeros(n, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            acc = np.add.reduceat(signed, offsets, axis=0)
            # all-empty docs sum to 0 -> every acc <= 0 -> simhash 0
            hashes = ((acc > 0).astype(np.uint64) << self.shifts[None, :]).sum(axis=1, dtype=np.uint64)
        return pa.table({self.id_col: batch.column(self.id_col),
                         "simhash": pa.array(hashes, pa.uint64())})


@functools.lru_cache(maxsize=1)
def _simhash_stage_cached() -> "SimHashStage":
    return SimHashStage()


def q_simhash(sf_dir: str) -> ray.data.Dataset:
    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), lambda b: _simhash_stage_cached()(b))


def q_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """Document fingerprint: min rolling-hash shingle (winnowing-style
    representative) + shingle count."""

    def fingerprint(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        flat, cnt = _shingle_hashes_batch(texts, 5)
        offsets = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(cnt[:-1], out=offsets[1:])
        fp = np.minimum.reduceat(flat, offsets) if len(flat) else np.zeros(0, np.uint64)
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "fingerprint": pa.array(fp, pa.uint64()),
             "n_shingles": pa.array(cnt, pa.int64())}
        )

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), fingerprint)


def q_html_stats(sf_dir: str) -> ray.data.Dataset:
    """Binary-column stats over pages html (exercises reading the binary
    payload column that every other pipeline prunes)."""
    from vyperdatum_ray.fixtures import pages_paths

    def f(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": batch.column("url"),
                "html_bytes": pc.cast(pc.binary_length(batch.column("html")), pa.int64()),
            }
        )

    return exchange.map(exchange.read(pages_paths(sf_dir), ["url", "html"]), f)


def _jaccard_from_sorted(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def _jaccard_pairs_flat(flat: np.ndarray, offs: np.ndarray,
                        ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact Jaccard for MANY pairs in one vectorized pass (no per-pair
    Python): ``flat``/``offs`` hold each doc's sorted-UNIQUE shingle
    hashes (< 2^31); pair p compares docs ia[p] vs ib[p]. Both sides'
    values are gathered under a packed (pair << 31 | hash) key and ONE
    sort finds duplicates — a value appearing twice within a pair is in
    both sets (each side is unique), so adjacent-equal counts are the
    intersection sizes. Identical results to the per-pair
    ``_jaccard_from_sorted`` loop (tests assert equality)."""
    n_pairs = len(ia)
    if n_pairs == 0:
        return np.zeros(0, np.float64)
    la = offs[ia + 1] - offs[ia]
    lb = offs[ib + 1] - offs[ib]
    reps = np.empty(2 * n_pairs, dtype=np.int64)
    reps[0::2] = la
    reps[1::2] = lb
    seg_starts = np.empty(2 * n_pairs, dtype=np.int64)
    seg_starts[0::2] = offs[ia]
    seg_starts[1::2] = offs[ib]
    tot = int(reps.sum())
    seg_of = np.repeat(np.arange(2 * n_pairs, dtype=np.int64), reps)
    cum = np.zeros(2 * n_pairs, dtype=np.int64)
    np.cumsum(reps[:-1], out=cum[1:])
    idx = seg_starts[seg_of] + (np.arange(tot, dtype=np.int64) - cum[seg_of])
    key = ((seg_of >> 1).astype(np.uint64) << np.uint64(31)) | flat[idx]
    key.sort(kind="stable")
    dup = key[1:] == key[:-1]
    inter = np.bincount((key[:-1][dup] >> np.uint64(31)).astype(np.int64),
                        minlength=n_pairs)
    union = la + lb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


# Fast-path budget on the driver-collected candidate SHINGLE table, in
# BYTES not ids: each (doc_id, shingle) row is 16 bytes and the
# shingles are BYTE-level 5-gram windows (_shingle_hashes_batch), so a
# doc yields up to ~one unique shingle per text byte (measured on the
# fixture corpus: ~0.7 rows/byte after the per-doc unique collapse; 1.0
# is the conservative bound used here). Estimate = n_candidate_ids x
# mean uncompressed text bytes per doc (parquet footer) x 16 row-bytes
# per text byte. Past the budget the distributed exchange path takes
# over. An id-count cap alone under-counts — 250k ids of 100 KB docs
# is ~70 GB of shingle rows — so the id cap stays only as a secondary
# guard on the driver-side pair bookkeeping arrays.
BROADCAST_SHINGLE_BUDGET_BYTES = 4 << 30
BROADCAST_CAND_CAP = 2_000_000


def q_neardup_jaccard(sf_dir: str, tau: float = 0.5,
                      byte_budget: int | None = None) -> ray.data.Dataset:
    """n-gram Jaccard near-dup: MinHash-LSH candidate pairs verified
    with exact 5-gram Jaccard >= tau (candidate recall from LSH, final
    precision from the exact measure).

    No whole-corpus state anywhere: only the CANDIDATE id set (bounded
    by LSH output, not corpus size) is collected. When it is small
    enough to broadcast (the normal case — LSH precision bounds it),
    the candidate docs' texts are broadcast and pairs verify in a
    stateless map. Otherwise the candidate ids pre-filter the doc
    stream and the texts are HASH-JOINED back through two chained
    ``exchange.exchange`` calls (both pair SIDES fetch text in one
    doc-keyed exchange, pairs reassemble in a second pair-keyed one),
    never ``Dataset.join``: its per-join aggregator-actor pool
    starves/deadlocks the 2-joins-in-one-DAG shape at small CPU
    counts."""
    # bounded candidate pairs, still one-row-per-band-collision: the
    # fast path dedups them driver-side on the collected list (saves a
    # full Ray sort); the exchange path dedups distributed below
    raw = _minhash_candidates_raw(sf_dir)
    docs = _docs(sf_dir, ["doc_id", "text"])

    def id_partial(t: pa.Table) -> pa.Table:
        both = pa.chunked_array([t.column("id_a"), t.column("id_b")]).combine_chunks()
        return pa.table({"id": pc.unique(both)})

    # collect ONLY the candidate id set (bounded by LSH output) and
    # broadcast it to pre-filter the doc stream
    cand_ids = np.unique(exchange.collect(exchange.map(raw, id_partial))["id"]
                         .to_numpy(np.int64))
    cand_ids_ref = ray.put(cand_ids)

    if byte_budget is None:
        byte_budget = BROADCAST_SHINGLE_BUDGET_BYTES
    text_bytes, n_docs_total = exchange.footer_stats(
        f"{sf_dir}/documents.parquet", ("text",))
    mean_doc_bytes = text_bytes / max(n_docs_total, 1)
    est_shingle_bytes = len(cand_ids) * mean_doc_bytes * 16.0

    if len(cand_ids) <= BROADCAST_CAND_CAP and est_shingle_bytes <= byte_budget:
        # FAST PATH: the candidate SHINGLE SETS are bounded (candidate-
        # sized, never corpus-sized), so compute them DISTRIBUTED — the
        # doc scan shingles its own candidate rows per batch and emits
        # flat (doc_id, shingle) partials — then intersect every pair
        # with ONE multithreaded polars hash-join on the driver:
        # pairs x a-side shingles explode, probe the (doc, shingle)
        # table on the b side, count matches per pair. Both inputs are
        # bounded by the LSH output (the same bound that justifies
        # collecting the LUT at all — past BROADCAST_CAND_CAP the
        # exchange path below takes over), and the join replaces a
        # packed-key gather+sort whose 70M-element numpy pass ran ~12x
        # slower than polars' Rust join engine on the same data.
        from vyperdatum_ray.core.nputil import isin_sorted

        def shingle_partial(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            t = t.filter(pa.array(isin_sorted(ids, cand_ids)))
            ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            texts = t.column("text").to_pylist()
            flat, counts = _shingle_hashes_batch(texts, 5)
            return pa.table({
                "doc_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "shingle": pa.array(flat, pa.uint64()),
            })

        import polars as pl

        sh = pl.from_pandas(exchange.collect(exchange.map(docs, shingle_partial)))
        pairs_pd = exchange.collect(raw)
        a = pairs_pd["id_a"].to_numpy(np.int64)
        b = pairs_pd["id_b"].to_numpy(np.int64)
        # driver-side (id_a, id_b) dedup of the bounded collected list —
        # lexsort-based so it is exact for any int64 id range
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep_u = np.ones(len(a), bool)
        keep_u[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[keep_u], b[keep_u]
        pairs = pl.DataFrame({"p": np.arange(len(a), dtype=np.int64),
                              "a": a, "b": b})
        inter = (
            pairs.join(sh, left_on="a", right_on="doc_id")
            .join(sh, left_on=["b", "shingle"], right_on=["doc_id", "shingle"])
            .group_by("p").len()
        )
        sizes = sh.group_by("doc_id").len().sort("doc_id")
        # jaccard in numpy from the integer (inter, la, lb) triple —
        # identical float semantics to the per-pair reference loop;
        # searchsorted (not a join) so alignment with pair order is
        # positional, independent of polars' join-output ordering
        sz_doc = sizes["doc_id"].to_numpy()
        sz_len = sizes["len"].to_numpy().astype(np.int64)
        la = sz_len[np.searchsorted(sz_doc, a)]
        lb = sz_len[np.searchsorted(sz_doc, b)]
        inter_full = np.zeros(len(a), dtype=np.int64)
        inter_full[inter["p"].to_numpy()] = inter["len"].to_numpy().astype(np.int64)
        union = la + lb - inter_full
        jac = np.where(union > 0, inter_full / np.maximum(union, 1), 1.0)
        keep = jac >= tau
        return exchange.from_arrow(pa.table({
            "id_a": pa.array(a[keep], pa.int64()),
            "id_b": pa.array(b[keep], pa.int64()),
            "jaccard": pa.array(np.round(jac[keep], 6), pa.float64()),
        }))

    cand = _dedup_pair_ds(raw)  # exchange path: distributed pair dedup

    def requests(t: pa.Table) -> pa.Table:
        """Two doc-keyed fetch requests per candidate pair, one per
        side; ``pair`` packs (id_a, id_b) into 64 bits, so ids must fit
        32 bits (the int64 view of the pack is only a key)."""
        a = t.column("id_a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("id_b").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(a) and int(max(a.max(), b.max())) >> 32:
            raise ValueError(
                "neardup_jaccard exchange path packs (id_a, id_b) into 64 "
                "bits: doc ids must be < 2^32")
        pair = ((a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)).view(np.int64)
        return pa.table({"k": pa.array(np.concatenate([a, b]), pa.int64()),
                         "pair": pa.array(np.concatenate([pair, pair]), pa.int64())})

    def doc_side(t: pa.Table) -> pa.Table:
        """Doc rows filtered to the broadcast candidate-id set: texts of
        docs in no candidate pair never enter the shuffle. The per-task
        ``ray.get`` of the broadcast ref is a local object-store hit."""
        from vyperdatum_ray.core.nputil import isin_sorted

        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(isin_sorted(ids, ray.get(cand_ids_ref))))
        return pa.table({"k": t.column("doc_id").cast(pa.int64()),
                         "text": t.column("text")})

    def resolve_texts(d: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        """One doc-keyed group: each request row gets its doc's text
        (vectorized reindex over the group's doc rows), re-keyed by its
        pair for the second exchange."""
        lut = pd.Series(d["text"].to_numpy(), index=d["k"].to_numpy())
        return pd.DataFrame({"k": r["pair"].to_numpy(np.int64),
                             "doc": r["k"].to_numpy(np.int64),
                             "text": lut.reindex(r["k"].to_numpy()).to_numpy()})

    def score_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """One pair-keyed group: shingle each UNIQUE doc once (a doc in
        many candidate pairs — template spam — is the common case),
        then exact Jaccard for all pairs in one packed-key-sort pass.
        A row is its pair's a side when its doc is the pair's high
        half (id_a < id_b, so never both)."""
        pair = df["k"].to_numpy(np.int64).view(np.uint64)
        doc = df["doc"].to_numpy(np.int64)
        is_a = doc.astype(np.uint64) == pair >> np.uint64(32)
        uniq, uidx, inv = np.unique(doc, return_index=True, return_inverse=True)
        texts = df["text"].to_numpy()
        flat, counts = _shingle_hashes_batch(list(texts[uidx]), 5)
        offs = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        a = pd.DataFrame({"pair": pair[is_a], "ia": inv[is_a]})
        b = pd.DataFrame({"pair": pair[~is_a], "ib": inv[~is_a]})
        m = a.merge(b, on="pair")
        mp = m["pair"].to_numpy().astype(np.uint64)
        jac = _jaccard_pairs_flat(flat, offs,
                                  m["ia"].to_numpy(np.int64),
                                  m["ib"].to_numpy(np.int64))
        keep = jac >= tau
        return pd.DataFrame({
            "id_a": (mp[keep] >> np.uint64(32)).astype(np.int64),
            "id_b": (mp[keep] & np.uint64(0xFFFFFFFF)).astype(np.int64),
            "jaccard": np.round(jac[keep], 6),
        })

    resolved = exchange.exchange([(docs, doc_side), (cand, requests)],
                                 resolve_texts)
    return exchange.exchange([(resolved, None)], score_pairs)


def q_simhash_neardup(sf_dir: str, bits_per_band: int = 16) -> ray.data.Dataset:
    """SimHash near-dup candidates: split the 64-bit simhash into
    64/bits_per_band bands; docs sharing any band value are candidates
    (catches hamming-distance <= bands-1 neighbors deterministically).
    Same (band, value)-keyed exchange as MinHash-LSH."""
    n_bands = 64 // bits_per_band
    mask = np.uint64((1 << bits_per_band) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        sh = batch.column("simhash").to_numpy().astype(np.uint64)
        ids = batch.column("doc_id").to_numpy()
        n = len(ids)
        band_id = np.tile(np.arange(n_bands, dtype=np.int32), n)
        shifts = (np.arange(n_bands, dtype=np.uint64) * np.uint64(bits_per_band))
        vals = ((sh[:, None] >> shifts[None, :]) & mask).reshape(-1)
        return pa.table({
            "band_id": pa.array(band_id, pa.int32()),
            "band_val": pa.array(vals, pa.uint64()),
            "id": pa.array(np.repeat(ids, n_bands), pa.int64()),
        })

    cand = exchange.exchange(
        [(_docs(sf_dir, ["doc_id", "text"]),
          lambda t: _band_key(explode(_simhash_stage_cached()(t)), "band_val"))],
        lambda df: _pairs_grouped(df, "band_val"))
    return _dedup_pair_ds(cand)


def _host_of(url_col) -> pa.Array:
    res = pc.extract_regex(pc.coalesce(url_col, ""), r"https?://(?P<h>[^/]+)/")
    if isinstance(res, pa.ChunkedArray):
        res = res.combine_chunks()
    # no-match -> '' (DuckDB regexp_extract semantics), never null: a
    # null host would be silently DROPPED by pandas groupby in the
    # domain aggregate while the oracle groups it under '' (latent
    # divergence on slashless URLs like 'https://example.com')
    return pc.fill_null(res.field("h"), "")


def q_distinct_hosts(sf_dir: str) -> pd.DataFrame:
    """Exact distinct-host count over pages urls: per-batch local
    uniques (combiner), an exchange keyed by the host hash whose groups
    count their distinct hosts, and a driver sum of the counts."""
    from vyperdatum_ray.fixtures import pages_paths

    def leg(batch: pa.Table) -> pa.Table:
        hosts = pc.unique(_host_of(batch.column("url")))
        return pa.table({"k": _hash_key(hosts), "host": hosts})

    per_group = exchange.aggregate(
        [(exchange.read(pages_paths(sf_dir), ["url"]), leg)], ["host"], {},
        post=lambda df: pd.DataFrame({"n_hosts": np.array([len(df)], np.int64)}))
    # one row per salt group: the driver sums them
    n = exchange.collect(per_group)["n_hosts"].sum()
    return pd.DataFrame([{"n_hosts": int(n)}])


HLL_P = 12  # 4096 registers


def q_approx_distinct_hosts(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog distinct-host estimate: per-batch register partials
    (register = top-p hash bits, value = leading-zero rank of the
    rest), folded with a max on the driver — at most 4096 rows per
    block (2^p registers) regardless of input size. Rows-only check; accuracy
    vs exact asserted in tests (~1.04/sqrt(2^p) ~ 1.6% sigma)."""
    from vyperdatum_ray.fixtures import pages_paths

    m = np.uint64(1 << HLL_P)

    def partial(batch: pa.Table) -> pa.Table:
        hosts = pc.unique(_host_of(batch.column("url")))
        h = _hash_utf8_fast(hosts)
        reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
        rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
        # leading-zero count of the remaining 64-p bits, +1
        lz = np.zeros(len(h), dtype=np.int64)
        v = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = v < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            v[mask] = v[mask] << np.uint64(shift)
        rank = lz + 1
        df = pd.DataFrame({"register": reg, "p_rank": rank})
        g = df.groupby("register", as_index=False).agg(p_rank=("p_rank", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    regs = exchange.fold(exchange.read(pages_paths(sf_dir), ["url"]), ["register"],
                         {"p_rank": "max"}, fn=partial)
    M = np.zeros(int(m), dtype=np.float64)
    M[regs["register"].to_numpy()] = regs["p_rank"].to_numpy()
    alpha = 0.7213 / (1 + 1.079 / float(m))
    est = alpha * float(m) ** 2 / np.sum(2.0 ** -M)
    zeros = float(np.count_nonzero(M == 0))
    if est <= 2.5 * float(m) and zeros > 0:
        est = float(m) * np.log(float(m) / zeros)  # small-range correction
    return pd.DataFrame([{"n_hosts_approx": int(round(est))}])


def q_top_hosts(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """Exact heavy hitters: page count per url host, top-k with a
    deterministic (count desc, host) tie-break. Per-batch partial
    counts -> an exchange keyed by the host hash that sums them and
    keeps each group's top-k -> sort + limit over the groups' heads."""
    from vyperdatum_ray.fixtures import pages_paths

    out = exchange.aggregate(
        [(exchange.read(pages_paths(sf_dir), ["url"]),
          lambda t: _counts(_host_of(t.column("url")), "host", "n_pages"))],
        ["host"], {"n_pages": "sum"}, post=_top(k, "n_pages", "host"))
    return exchange.sort_limit(out, ["n_pages", "host"], [True, False], k)


CM_DEPTH = 4
CM_WIDTH = 2048


def q_top_hosts_sketch(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Count-min-sketch heavy hitters: each batch emits (a) sketch-cell
    partials — CM_DEPTH x CM_WIDTH bounded rows regardless of input
    size — and (b) its local top-k candidate hosts. Cells AND candidates
    merge in one exchange summing per (cell, host), keyed by the cell
    for sketch rows and by the host hash for candidates, so the driver
    collects only the <= DEPTH*WIDTH merged cells plus the deduped
    candidate hosts — never the O(n_batches * cells) partial stream.
    Final estimates = min over the candidate's CM_DEPTH cells.
    Overestimates only (CM guarantee); rows-only check, accuracy
    asserted in tests vs the exact op."""
    from vyperdatum_ray.fixtures import pages_paths

    # independent odd multipliers per row (multiples of ONE constant are
    # correlated: a pair colliding in row 0 collides everywhere)
    rng = np.random.default_rng(5)
    seeds = (rng.integers(1, 1 << 62, CM_DEPTH, dtype=np.int64).astype(np.uint64)
             << np.uint64(1)) | np.uint64(1)

    def leg(batch: pa.Table) -> pa.Table:
        c = _counts(_host_of(batch.column("url")), "host", "n")
        cnts = c.column("n").to_numpy()
        h = c.column("k").to_numpy().view(np.uint64)
        rows = []
        for d in range(CM_DEPTH):
            col = ((h * seeds[d]) >> np.uint64(64 - 11)) % np.uint64(CM_WIDTH)
            df = pd.DataFrame({"cell": d * CM_WIDTH + col.astype(np.int64), "n": cnts})
            rows.append(df.groupby("cell", as_index=False).agg(n=("n", "sum")))
        cells = pd.concat(rows)
        cells["host"] = ""
        cells["k"] = cells["cell"]
        # local candidate top-k rides along with cell = -1
        order = np.argsort(-cnts, kind="stable")[:k]
        cand = pd.DataFrame({"cell": np.full(len(order), -1, np.int64),
                             "n": cnts[order],
                             "host": c.column("host").to_numpy()[order],
                             "k": h[order].view(np.int64)})
        return pa.Table.from_pandas(pd.concat([cells, cand]), preserve_index=False)

    merged = exchange.collect(exchange.aggregate(
        [(exchange.read(pages_paths(sf_dir), ["url"]), leg)],
        ["cell", "host"], {"n": "sum"}))
    cells = merged[merged["cell"] >= 0]
    sketch = np.zeros(CM_DEPTH * CM_WIDTH, dtype=np.int64)
    sketch[cells["cell"].to_numpy()] = cells["n"].to_numpy()
    cand_hosts = merged.loc[merged["cell"] < 0, "host"].unique()
    h = _hash_utf8_fast(pa.array(list(cand_hosts), pa.string()))
    est = np.full(len(cand_hosts), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(CM_DEPTH):
        col = ((h * seeds[d]) >> np.uint64(64 - 11)) % np.uint64(CM_WIDTH)
        est = np.minimum(est, sketch[d * CM_WIDTH + col.astype(np.int64)])
    out = pd.DataFrame({"host": cand_hosts, "n_pages_est": est})
    out = out.sort_values(["n_pages_est", "host"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


SAMPLE_MOD = np.uint64(1 << 32)
SAMPLE_MULT = np.uint64(2654435761)  # Knuth multiplicative hash


def q_sample_documents(sf_dir: str, pct: int = 5) -> ray.data.Dataset:
    """Deterministic hash sampling (the reproducible corpus-subsample
    every training-data pipeline needs): keep a document iff
    ``((doc_id & 0xFFFFFFFF) * 2654435761) mod 2^32 < pct% of 2^32``.
    Pure uint64 integer arithmetic — identical in the SQL oracle (which
    multiplies in HUGEINT), stable across runs and partitionings, no
    RNG state anywhere. The hash keys on the LOW 32 BITS of doc_id (the
    documented id-range assumption): ids differing only above bit 32
    share a sample decision, and the masked product stays < 2^64 so
    neither side can overflow or error."""
    threshold = np.uint64((1 << 32) * pct // 100)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ids_u = ids.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        keep = (ids_u * SAMPLE_MULT) % SAMPLE_MOD < threshold
        t = batch.filter(pa.array(keep))
        n_tok = pc.cast(pc.count_substring_regex(t.column("text"), r"\S+"), pa.int64())
        return pa.table({"doc_id": t.column("doc_id"), "n_tokens": n_tok})

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


SAMPLE_DOCUMENTS_ORACLE = r"""
SELECT doc_id,
  CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
FROM documents
WHERE (CAST(doc_id & 4294967295 AS HUGEINT) * 2654435761) % 4294967296 < 214748364"""


VOCAB_CAP = 65536  # unigram model vocabulary cap; tail pools into OOV


def q_unigram_logprob(sf_dir: str, vocab_cap: int = VOCAB_CAP) -> ray.data.Dataset:
    """Model-based quality scoring: per-document mean unigram surprisal
    under the corpus's own unigram distribution (the perplexity-proxy
    filter of web-text pipelines). Two passes: (1) corpus token
    frequencies via per-batch combiners + an exchange summing per token;
    the top ``vocab_cap`` tokens by (count desc, token) form the vocabulary
    and the tail pools into one OOV bucket; (2) the (vocab, logp)
    table broadcasts once and documents stream through a vectorized
    lookup + per-doc mean.

    Float parity: per-token surprisal is quantized to integer
    micro-nats (``floor(s * 1e6 + 0.5)``, identical expression in the
    SQL mirror) BEFORE summing, so the per-doc sum is an exact integer
    sum — order-independent on both sides — and libm 1-ulp log noise is
    absorbed by the quantization. The final mean divides the exact
    integer sum once and rounds with the np.round/sql_rn pair."""

    # The distinct-token table NEVER reaches the driver: it is grouped
    # distributed, materialized once in the object store (bounded
    # per-block, spillable — at web scale this is billions of rows, far
    # too big for driver pandas), then consumed twice — a folded total
    # and a distributed sort+limit for the top-vocab_cap head (the only
    # part that is driver-sized, <= vocab_cap rows). OOV mass is
    # derived as total - sum(kept), bit-identical to the old full-table
    # tail sum because counts are exact int64.
    freq_ds = exchange.aggregate(
        [(_docs(sf_dir, ["text"]), lambda t: _counts(_tokens(t), "token", "n"))],
        ["token"], {"n": "sum"})
    total_i = exchange.total(freq_ds, "n")
    kept = exchange.collect(
        exchange.sort_limit(freq_ds, ["n", "token"], [True, False], vocab_cap))
    # exact arbitrary-precision subtraction BEFORE the float cast, so
    # the OOV mass equals the oracle's exact tail sum even past 2^53
    oov_total = float(total_i - int(kept["n"].sum()))
    total = float(total_i)
    vocab = kept["token"].to_numpy()
    order = np.argsort(vocab)
    vocab_sorted = vocab[order]
    logp_sorted = np.log(kept["n"].to_numpy()[order] / total)
    oov_logp = np.log(oov_total / total) if oov_total > 0 else 0.0
    lut_ref = ray.put((vocab_sorted, logp_sorted, oov_logp))

    class Score:
        def __init__(self, ref):
            self.vocab, self.logp, self.oov = (
                ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            col = batch.column("text")
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            toks = pc.split_pattern_regex(pc.coalesce(col, ""), r"\s+")
            flat = pc.list_flatten(toks)
            counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
            n = len(counts)
            nonempty = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
            doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)[nonempty]
            words = pc.filter(flat, pa.array(nonempty)).to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.vocab, words)
            pos_c = np.minimum(pos, max(len(self.vocab) - 1, 0))
            hit = ((pos < len(self.vocab)) & (self.vocab[pos_c] == words)
                   if len(self.vocab) else np.zeros(len(words), bool))
            lp = np.where(hit, self.logp[pos_c] if len(self.vocab) else 0.0, self.oov)
            # integer micro-nat quantization (order-robust exact sum;
            # values stay < 2^53 so the float bincount accumulate is
            # exact) — mirrored token-for-token in the SQL oracle
            s_int = np.floor(-lp * 1e6 + 0.5)
            n_tok = np.bincount(doc_of, minlength=n).astype(np.int64)
            sums = np.bincount(doc_of, weights=s_int, minlength=n)
            mean = np.where(n_tok > 0,
                            sums / (np.maximum(n_tok, 1).astype(np.float64) * 1e6),
                            0.0)
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "mean_surprisal": pa.array(np.round(mean, 6), pa.float64()),
            })

    # stateless tasks: the actor "state" was just the broadcast LUT,
    # which ray.get returns plasma-cached per worker
    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), lambda t: Score(lut_ref)(t))


UNIGRAM_LOGPROB_ORACLE = r"""
WITH tok AS (
  SELECT doc_id,
    unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> length(x) > 0)) AS t
  FROM documents
),
freq AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM freq),
ranked AS (SELECT t, c, row_number() OVER (ORDER BY c DESC, t) AS rn FROM freq),
oov AS (SELECT CAST(COALESCE(sum(c), 0) AS DOUBLE) AS oc FROM ranked WHERE rn > 65536),
scored AS (
  SELECT tok.doc_id,
    CAST(floor((0.0 - ln(CASE WHEN r.rn <= 65536 THEN r.c / tot.n ELSE oov.oc / tot.n END)) * 1000000.0 + 0.5) AS BIGINT) AS s_int
  FROM tok JOIN ranked r ON r.t = tok.t CROSS JOIN tot CROSS JOIN oov
),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
    """ + sql_rn(
    "CAST(sum(s_int) AS DOUBLE) / (CAST(count(*) AS DOUBLE) * 1000000.0)", 6
) + r""" AS mean_surprisal
  FROM scored GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(a.n_tokens, 0) AS n_tokens,
  COALESCE(a.mean_surprisal, 0.0) AS mean_surprisal
FROM documents d LEFT JOIN agg a USING (doc_id)"""


def q_token_freq(sf_dir: str, k: int = 50) -> ray.data.Dataset:
    """Corpus token frequency, top-k: per-batch vectorized token counts
    (the combiner — the shuffle moves (token, count) partials, never
    token streams), an exchange keyed by the token hash that sums them
    and keeps each group's top-k, deterministic (count desc, token)
    sort + limit."""
    out = exchange.aggregate(
        [(_docs(sf_dir, ["text"]), lambda t: _counts(_tokens(t), "token", "n"))],
        ["token"], {"n": "sum"}, post=_top(k, "n", "token"))
    return exchange.sort_limit(out, ["n", "token"], [True, False], k)


def q_quality_filter(sf_dir: str) -> ray.data.Dataset:
    """Training-data keep/drop verdict per document: token count and
    alphabetic-character ratio thresholds (the filter stage every
    web-scale text pipeline runs after scoring)."""

    def f(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_tok = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        n_alpha = pc.cast(pc.count_substring_regex(text, r"[A-Za-z]"), pa.float64())
        n_chars = pc.cast(pc.utf8_length(text), pa.float64())
        ratio = pc.divide(n_alpha, pc.max_element_wise(n_chars, 1.0))
        keep = pc.and_(pc.greater_equal(n_tok, 10), pc.greater(ratio, 0.5))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tok,
            "keep": pc.cast(keep, pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


TFIDF_VOCAB_CAP = 65536
TFIDF_K = 5


def q_tfidf_terms(sf_dir: str, k: int = TFIDF_K,
                  vocab_cap: int = TFIDF_VOCAB_CAP) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms (the classic keyword extractor).
    Two passes, both streaming: (1) document frequencies via per-batch
    (doc, token)-deduped partials + an exchange summing per token; the top
    ``vocab_cap`` tokens by (df desc, token) form the vocabulary
    (bounded driver state, same cap discipline as the unigram model);
    (2) the (vocab, idf) table broadcasts once and each doc scores
    tf x idf_q and keeps its local top-k — no second shuffle at all.
    Float parity: idf is quantized to integer micro-nats
    (``floor(ln(N/df) * 1e6 + 0.5)``, identical expression in the SQL
    mirror), so scores are exact int64 products and the (score desc,
    term asc) ranking is deterministic on both sides."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()  # parquet metadata only

    def _flat_tokens(t: pa.Table):
        col = t.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern_regex(pc.coalesce(col, ""), r"\s+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        mask = flat != ""
        return flat[mask], doc_of[mask]

    def df_leg(t: pa.Table) -> pa.Table:
        flat, doc_of = _flat_tokens(t)
        uniq = pd.DataFrame({"d": doc_of, "t": flat}).drop_duplicates()
        g = uniq.groupby("t", as_index=False).agg(df=("d", "size"))
        terms = pa.array(g["t"].to_numpy(), pa.string())
        return pa.table({"k": _hash_key(terms), "t": terms,
                         "df": pa.array(g["df"].to_numpy(), pa.int64())})

    # distributed sort + limit — only the vocab_cap head ever reaches
    # the driver (the full distinct-token df table would be billions of
    # rows at web scale)
    dftab = exchange.collect(exchange.sort_limit(
        exchange.aggregate([(docs, df_leg)], ["t"], {"df": "sum"}),
        ["df", "t"], [True, False], vocab_cap))
    idf_q = np.floor(np.log(float(n_docs) / dftab["df"].to_numpy())
                     * 1e6 + 0.5).astype(np.int64)
    # broadcast as an Arrow array + numpy ints: ray.get is zero-copy
    # for those, while a pandas object-dtype frame would be re-unpickled
    # (65k strings) on EVERY batch of the scoring pass
    vref = ray.put((pa.array(dftab["t"].to_numpy(), pa.string()), idf_q))

    def score(t: pa.Table) -> pa.Table:
        vocab_arr, idfq = ray.get(vref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        flat, doc_of = _flat_tokens(t)
        tf = (pd.DataFrame({"doc_id": ids[doc_of], "t": flat})
              .groupby(["doc_id", "t"], as_index=False).size())
        idx = pc.index_in(pa.array(tf["t"].to_numpy(), pa.string()),
                          value_set=vocab_arr)
        valid = idx.is_valid().to_numpy(zero_copy_only=False)
        sc = tf[valid].copy()
        vi = idx.to_numpy(zero_copy_only=False)[valid].astype(np.int64)
        sc["score"] = sc["size"].to_numpy() * idfq[vi]  # OOV dropped (mirrored)
        sc = sc.sort_values(["doc_id", "score", "t"],
                            ascending=[True, False, True])
        sc["rank"] = sc.groupby("doc_id").cumcount() + 1
        out = sc[sc["rank"] <= k]
        return pa.table({
            "doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64()),
            "term": pa.array(out["t"].to_numpy(), pa.string()),
            "rank": pa.array(out["rank"].to_numpy().astype(np.int64), pa.int64()),
            "score": pa.array(out["score"].to_numpy().astype(np.int64), pa.int64()),
        })

    return exchange.map(docs, score)


TFIDF_ORACLE = r"""
WITH tok AS (
  SELECT doc_id,
    unnest(list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'),
                       x -> length(x) > 0)) AS t
  FROM documents),
tf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, t),
dfq AS (SELECT t, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY t),
vocab AS (
  SELECT t, df FROM (
    SELECT t, df, row_number() OVER (ORDER BY df DESC, t) AS rn FROM dfq)
  WHERE rn <= 65536),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
idf AS (SELECT t, CAST(floor(ln(n.n / df) * 1000000.0 + 0.5) AS BIGINT) AS idf_q
        FROM vocab, n),
sc AS (SELECT tf.doc_id, tf.t, tf.tf * idf.idf_q AS score FROM tf JOIN idf USING (t)),
r AS (SELECT doc_id, t, score,
        row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, t) AS rank
      FROM sc)
SELECT doc_id, t AS term, CAST(rank AS BIGINT) AS rank, CAST(score AS BIGINT) AS score
FROM r WHERE rank <= 5"""


BIGRAM_VOCAB_CAP = 65536


def q_bigram_logprob(sf_dir: str, vocab_cap: int = BIGRAM_VOCAB_CAP) -> ray.data.Dataset:
    """Bigram-model surprisal scoring — the unigram perplexity proxy's
    sharper sibling: per-document mean joint-bigram surprisal
    ``-ln(c(bigram) / total_bigrams)`` under the corpus's own bigram
    distribution. Same two-pass shape and the same float-parity
    discipline as ``q_unigram_logprob``: (1) per-batch bigram-string
    partials (``_ngram_strings`` with n=2) summed per bigram in an
    exchange; the top ``vocab_cap`` bigrams by (count desc, gram)
    form the vocabulary, the tail pools into one OOV bucket; (2) the
    (vocab, s_int) table broadcasts once as Arrow (zero-copy per
    worker) and documents stream through one ``pc.index_in`` lookup.
    Per-bigram surprisal is quantized to integer micro-nats
    (``floor(s * 1e6 + 0.5)``, identical in the SQL mirror) BEFORE
    summing, so the per-doc mean is exact. Docs with < 2 tokens score
    0 with n_bigrams 0."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    # distinct-bigram table stays distributed (materialized once in the
    # object store, consumed by a folded total + a sort/limit head) —
    # the same no-driver-materialization discipline as
    # q_unigram_logprob; at web scale the bigram vocabulary is billions
    # of rows
    freq_ds = exchange.aggregate(
        [(docs, lambda t: _counts(_ngram_strings(t.column("text"), n=2)[0], "g", "n"))],
        ["g"], {"n": "sum"})
    total_i = exchange.total(freq_ds, "n")
    head = exchange.collect(
        exchange.sort_limit(freq_ds, ["n", "g"], [True, False], vocab_cap))
    oov_count = float(total_i - int(head["n"].sum()))
    total = float(total_i)
    s_int = np.floor(-np.log(head["n"].to_numpy() / total) * 1e6 + 0.5) \
        .astype(np.int64)
    oov_s = (np.int64(np.floor(-np.log(oov_count / total) * 1e6 + 0.5))
             if oov_count > 0 else np.int64(0))
    vref = ray.put((pa.array(head["g"].to_numpy(), pa.string()), s_int, oov_s))

    def score(t: pa.Table) -> pa.Table:
        vocab_arr, sint, oov = ray.get(vref)
        grams, doc_of, counts = _ngram_strings(t.column("text"), n=2)
        idx = pc.index_in(grams, value_set=vocab_arr)
        valid = idx.is_valid().to_numpy(zero_copy_only=False)
        idx_np = idx.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        s = np.where(valid, sint[idx_np], oov).astype(np.float64)
        n_rows = t.num_rows
        n_bi = np.bincount(doc_of, minlength=n_rows).astype(np.int64)
        sums = np.bincount(doc_of, weights=s, minlength=n_rows)
        mean = np.where(n_bi > 0,
                        sums / (np.maximum(n_bi, 1).astype(np.float64) * 1e6), 0.0)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_bigrams": pa.array(n_bi, pa.int64()),
            "mean_surprisal": pa.array(np.round(mean, 6), pa.float64()),
        })

    return exchange.map(docs, score)


BIGRAM_LOGPROB_ORACLE = r"""
WITH tok AS (
  SELECT doc_id, regexp_split_to_array(COALESCE(text, ''), '\s+') AS a
  FROM documents),
win AS (SELECT doc_id, a, unnest(range(1, greatest(len(a) - 1, 0) + 1)) AS i FROM tok),
grams AS (SELECT doc_id, array_to_string(list_slice(a, i, i + 1), ' ') AS g FROM win),
freq AS (SELECT g, CAST(count(*) AS BIGINT) AS c FROM grams GROUP BY g),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM freq),
ranked AS (SELECT g, c, row_number() OVER (ORDER BY c DESC, g) AS rn FROM freq),
oov AS (SELECT CAST(COALESCE(sum(c), 0) AS DOUBLE) AS oc FROM ranked WHERE rn > 65536),
scored AS (
  SELECT grams.doc_id,
    CAST(floor((0.0 - ln(CASE WHEN r.rn <= 65536 THEN r.c / tot.n
                              ELSE oov.oc / tot.n END)) * 1000000.0 + 0.5)
         AS BIGINT) AS s_int
  FROM grams JOIN ranked r ON r.g = grams.g CROSS JOIN tot CROSS JOIN oov),
agg AS (
  SELECT doc_id, count(*) AS n_bigrams,
    """ + sql_rn(
    "CAST(sum(s_int) AS DOUBLE) / (CAST(count(*) AS DOUBLE) * 1000000.0)", 6
) + r""" AS mean_surprisal
  FROM scored GROUP BY doc_id)
SELECT d.doc_id, CAST(COALESCE(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
  COALESCE(a.mean_surprisal, 0.0) AS mean_surprisal
FROM documents d LEFT JOIN agg a USING (doc_id)"""


# per-language stratified keep rates (permille); unlisted languages use
# the default — the budget-shaping step of multilingual corpus assembly
STRATA_RATES = {"en": 800, "es": 400, "de": 400}
STRATA_DEFAULT = 100
STRATA_MULT = np.uint64(2654435769)  # distinct from sample/split/draw


def q_stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Stratified corpus sampling: keep a document iff
    ``hash(doc_id) % 1000 < rate(lang)`` with per-language rates —
    deterministic, partition-independent, coordination-free (each task
    decides its rows from (doc_id, lang) alone). Uses the table's own
    ``lang`` column (the upstream-labeled stratum), not the LangId
    prediction, mirroring how corpus budgets are applied to pre-tagged
    crawls."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        draw = ((ids.astype(np.uint64) & np.uint64(0xFFFFFFFF)) * STRATA_MULT
                % np.uint64(1 << 32) % np.uint64(1000)).astype(np.int64)
        rate = np.full(len(ids), STRATA_DEFAULT, np.int64)
        for lg, r in STRATA_RATES.items():
            rate[lang == lg] = r
        keep = draw < rate
        t = batch.filter(pa.array(keep))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "lang": t.column("lang"),
            "rate_permille": pa.array(rate[keep], pa.int64()),
            "draw": pa.array(draw[keep], pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "lang"]), f)


STRATIFIED_SAMPLE_ORACLE = """
WITH q AS (
  SELECT doc_id, lang,
    CASE lang WHEN 'en' THEN 800 WHEN 'es' THEN 400 WHEN 'de' THEN 400
         ELSE 100 END AS rate_permille,
    CAST((CAST(doc_id & 4294967295 AS HUGEINT) * 2654435769)
         % 4294967296 % 1000 AS BIGINT) AS draw
  FROM documents)
SELECT doc_id, lang, CAST(rate_permille AS BIGINT) AS rate_permille, draw
FROM q WHERE draw < rate_permille"""


def q_jsonl_roundtrip(sf_dir: str) -> ray.data.Dataset:
    """Third source/sink format (after parquet and CSV): write the slim
    document columns as JSONL with the distributed ``write_json`` sink,
    read them back with ``ray.data.read_json``, and aggregate per
    language — count, char volume, and a doc_id checksum — proving the
    JSON path round-trips every row and integer exactly. All integer
    aggregates, so the comparison is bit-exact."""
    import shutil

    from vyperdatum_ray.fixtures import sf_name_of

    import os
    import uuid

    # unique dir per invocation: a fixed path raced concurrent runs on
    # the same sf (one process rmtree'ing while another's lazy
    # read_json was still consuming)
    out_dir = f"/tmp/vdr_jsonl/{sf_name_of(sf_dir)}_{os.getpid()}_{uuid.uuid4().hex[:8]}"
    shutil.rmtree(out_dir, ignore_errors=True)
    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    exchange.map(docs).write_json(out_dir)
    # no row writes no file: there is nothing to read back
    ds = ray.data.read_json(out_dir).materialize() if os.path.isdir(out_dir) else docs

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": batch.column("lang").to_numpy(zero_copy_only=False),
            "n_chars": batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64),
            "doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
        })
        g = df.groupby("lang", as_index=False).agg(
            p_n=("doc_id", "size"), p_chars=("n_chars", "sum"),
            p_ids=("doc_id", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    g = exchange.fold(ds, ["lang"],
                      {"p_n": "sum", "p_chars": "sum", "p_ids": "sum"}, fn=partial)
    return exchange.from_arrow(pa.Table.from_pandas(g.rename(columns={
        "p_n": "n_docs", "p_chars": "sum_chars", "p_ids": "id_checksum"}), preserve_index=False))


JSONL_ROUNDTRIP_ORACLE = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars,
  CAST(sum(doc_id) AS BIGINT) AS id_checksum
FROM documents GROUP BY lang"""


_PIVOT_LANGS = ["de", "en", "es", "fr", "zh"]  # fixture label set, sorted


def q_lang_source_pivot(sf_dir: str) -> ray.data.Dataset:
    """Pivot (long -> wide): per-source document counts with one column
    per language label — the reshape every corpus dashboard wants. The
    language set is a FIXED schema (pivoting on unbounded values can't
    stream); each block emits a per-source crosstab partial and the
    driver folds them, so only (source x lang) count rows leave the
    tasks."""

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": t.column("source").to_numpy(zero_copy_only=False),
            "lang": t.column("lang").to_numpy(zero_copy_only=False),
        })
        ct = pd.crosstab(df["source"], df["lang"])
        out = {"source": ct.index.to_numpy()}
        for lg in _PIVOT_LANGS:
            col = ct[lg].to_numpy() if lg in ct.columns else np.zeros(len(ct), np.int64)
            out[f"n_{lg}"] = col.astype(np.int64)
        return pa.Table.from_pydict(out)

    g = exchange.fold(_docs(sf_dir, ["source", "lang"]),
                      ["source"], {f"n_{lg}": "sum" for lg in _PIVOT_LANGS}, fn=partial)
    return exchange.from_arrow(pa.Table.from_pandas(g, preserve_index=False))


LANG_SOURCE_PIVOT_ORACLE = """
SELECT source,
  CAST(sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS BIGINT) AS n_de,
  CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en,
  CAST(sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END) AS BIGINT) AS n_es,
  CAST(sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END) AS BIGINT) AS n_fr,
  CAST(sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END) AS BIGINT) AS n_zh
FROM documents GROUP BY source"""


def q_lang_source_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level (ROLLUP) aggregate: doc counts and char sums per
    (lang, source), per lang, and the grand total, from ONE fold —
    the subtotal levels are derived from the finest-level aggregate on
    the driver (a bounded |langs x sources| collect), never from a
    second scan. Subtotal positions use the '(all)' sentinel on both
    sides so the rollup NULLs never meet the comparator's object/NaN
    ambiguity."""
    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "lang": t.column("lang").to_numpy(zero_copy_only=False),
            "source": t.column("source").to_numpy(zero_copy_only=False),
            "chars": t.column("n_chars").to_numpy(zero_copy_only=False),
        }).groupby(["lang", "source"], as_index=False).agg(
            p_n=("chars", "size"), p_chars=("chars", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = exchange.fold(
        _docs(sf_dir, ["lang", "source", "n_chars"]),
        ["lang", "source"], {"p_n": "sum", "p_chars": "sum"}, fn=partial).rename(
        columns={"p_n": "n_docs", "p_chars": "sum_chars"})
    fine = fine.astype({"n_docs": np.int64, "sum_chars": np.int64})

    by_lang = fine.groupby("lang", as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"))
    by_lang["source"] = "(all)"
    total = pd.DataFrame({
        "lang": ["(all)"], "source": ["(all)"],
        "n_docs": np.array([fine["n_docs"].sum()], np.int64),
        # SQL's sum over no rows is NULL (a float64 NaN, as DuckDB gives)
        "sum_chars": [fine["sum_chars"].sum() if len(fine) else np.nan],
    })
    out = pd.concat(
        [fine, by_lang[["lang", "source", "n_docs", "sum_chars"]], total],
        ignore_index=True)
    out = out[["lang", "source", "n_docs", "sum_chars"]]
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


def q_lang_source_cube(sf_dir: str) -> pd.DataFrame:
    """Full CUBE aggregate: every grouping set of (lang, source) —
    the rollup's levels PLUS the source-only marginal — all derived
    from the SAME single finest-level exchange on the driver (the
    marginals are sums over a bounded |langs x sources| frame, so a
    second scan would only re-pay the corpus read)."""
    fine = q_lang_source_rollup(sf_dir)
    fine_only = fine[(fine["lang"] != "(all)") & (fine["source"] != "(all)")]
    by_source = fine_only.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"))
    by_source["lang"] = "(all)"
    out = pd.concat(
        [fine, by_source[["lang", "source", "n_docs", "sum_chars"]]],
        ignore_index=True)
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


LANG_SOURCE_CUBE_ORACLE = """
SELECT COALESCE(lang, '(all)') AS lang,
  COALESCE(source, '(all)') AS source,
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY CUBE(lang, source) ORDER BY lang, source"""


LANG_SOURCE_ROLLUP_ORACLE = """
SELECT COALESCE(lang, '(all)') AS lang,
  COALESCE(source, '(all)') AS source,
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY ROLLUP(lang, source) ORDER BY lang, source"""


def q_source_corr(sf_dir: str) -> ray.data.Dataset:
    """Per-source Pearson correlation between document char and token
    counts — the distributed-statistics shape: per-batch INTEGER power
    sums (n, Σx, Σy, Σxy, Σx², Σy² — exact, order-independent), a
    driver fold per source, and one finalize evaluating the
    correlation from the merged sums. Float parity: the final formula
    is spelled identically in the SQL mirror (same parenthesization,
    numerator / sqrt(vx * vy)) and both sides quantize with the
    np.round/sql_rn(6) pair, so the only float math happens ONCE on
    identical integer inputs."""

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.utf8_length(pc.coalesce(t.column("text"), "")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        y = pc.cast(pc.count_substring_regex(
            pc.coalesce(t.column("text"), ""), r"\S+"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "source": t.column("source").to_numpy(zero_copy_only=False),
            "n": np.ones(len(x), np.int64), "sx": x, "sy": y,
            "sxy": x * y, "sxx": x * x, "syy": y * y,
        })
        g = df.groupby("source", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = ("n", "sx", "sy", "sxy", "sxx", "syy")
    g = exchange.fold(_docs(sf_dir, ["source", "text"]),
                      ["source"], {c: "sum" for c in sums}, fn=partial)
    n, sx, sy, sxy, sxx, syy = (g[c].to_numpy(np.float64) for c in sums)
    num = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    corr = num / np.sqrt(vx * vy)
    return exchange.from_arrow(pa.Table.from_pandas(pd.DataFrame({
        "source": g["source"],
        "n_docs": g["n"].astype(np.int64),
        "corr_chars_tokens": np.round(corr, 6),
    }), preserve_index=False))


SOURCE_CORR_ORACLE = (
    r"""
WITH s AS (
  SELECT source,
    CAST(count(*) AS DOUBLE) AS n,
    CAST(sum(length(COALESCE(text, ''))) AS DOUBLE) AS sx,
    CAST(sum(length(regexp_extract_all(COALESCE(text, ''), '\S+'))) AS DOUBLE) AS sy,
    CAST(sum(CAST(length(COALESCE(text, '')) AS BIGINT)
             * length(regexp_extract_all(COALESCE(text, ''), '\S+'))) AS DOUBLE) AS sxy,
    CAST(sum(CAST(length(COALESCE(text, '')) AS BIGINT)
             * length(COALESCE(text, ''))) AS DOUBLE) AS sxx,
    CAST(sum(CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT)
             * length(regexp_extract_all(COALESCE(text, ''), '\S+'))) AS DOUBLE) AS syy
  FROM documents GROUP BY source)
SELECT source, CAST(n AS BIGINT) AS n_docs,
  """ + sql_rn(
        "(n * sxy - sx * sy) / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))", 6)
    + " AS corr_chars_tokens\nFROM s")


def q_lang_source_unpivot(sf_dir: str) -> ray.data.Dataset:
    """Unpivot (wide -> long), the reshape inverse of
    ``q_lang_source_pivot``: the pivoted per-source table melts back to
    (source, lang, n) rows — fully streaming, each wide batch melts
    independently with zero shuffle beyond the pivot's own. Rows with
    n = 0 are kept (the wide form encodes them; dropping them would
    lose the distinction between 'absent stratum' and 'unseen pair')."""

    def melt(t: pa.Table) -> pa.Table:
        src = t.column("source")
        n = t.num_rows
        langs, counts, sources = [], [], []
        for lg in _PIVOT_LANGS:
            sources.append(src)
            langs.append(pa.array([lg] * n, pa.string()))
            counts.append(t.column(f"n_{lg}"))
        return pa.table({
            "source": pa.concat_arrays([pa.array(s.to_pylist(), pa.string())
                                        for s in sources]),
            "lang": pa.concat_arrays(langs),
            "n": pa.concat_arrays([pa.array(c.to_pylist(), pa.int64())
                                   for c in counts]),
        })

    return exchange.map(q_lang_source_pivot(sf_dir), melt)


LANG_SOURCE_UNPIVOT_ORACLE = """
WITH w AS (
  SELECT source,
    sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS n_de,
    sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_en,
    sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END) AS n_es,
    sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END) AS n_fr,
    sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END) AS n_zh
  FROM documents GROUP BY source)
SELECT source, 'de' AS lang, CAST(n_de AS BIGINT) AS n FROM w
UNION ALL SELECT source, 'en', CAST(n_en AS BIGINT) FROM w
UNION ALL SELECT source, 'es', CAST(n_es AS BIGINT) FROM w
UNION ALL SELECT source, 'fr', CAST(n_fr AS BIGINT) FROM w
UNION ALL SELECT source, 'zh', CAST(n_zh AS BIGINT) FROM w"""


# ------------------------------------------------ Gopher-style filters ---
#
# Repetition and symbol-ratio signals from the published Gopher /
# MassiveText filtering rules (Rae et al. 2021, table A1): fraction of
# duplicate lines, fraction of characters in duplicate lines,
# symbol-to-word ratios, bullet/ellipsis line ratios. All per-document
# (no shuffle at all — each batch computes its rows independently) and
# integer-exact (permille ratios via floor division) so the DuckDB
# mirrors are bit-identical.


def q_repetition_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-document line-repetition stats: number of (non-empty) lines,
    number of duplicate-occurrence lines (occurrences beyond each
    line's first), and the permille of line characters sitting in those
    duplicate occurrences — the Gopher 'duplicate line fraction'
    signals, integer-exact."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lines = pc.split_pattern(pc.coalesce(col, ""), "\n")
        flat = pc.list_flatten(lines)
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = len(counts)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        txt = flat.to_numpy(zero_copy_only=False)
        ln = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ln > 0
        doc_of, txt, ln = doc_of[keep], txt[keep], ln[keep]
        df = pd.DataFrame({"d": doc_of, "t": txt, "ln": ln})
        per_line = df.groupby(["d", "t"], as_index=False).agg(
            c=("ln", "size"), ln=("ln", "first"))
        per_line["dup_occ"] = per_line["c"] - 1
        per_line["dup_chars"] = per_line["dup_occ"] * per_line["ln"]
        per_line["tot_chars"] = per_line["c"] * per_line["ln"]
        g = per_line.groupby("d").agg(
            n_lines=("c", "sum"), n_dup_lines=("dup_occ", "sum"),
            dup_chars=("dup_chars", "sum"), tot_chars=("tot_chars", "sum"))
        n_lines = np.zeros(n, np.int64)
        n_dup = np.zeros(n, np.int64)
        dupc = np.zeros(n, np.int64)
        totc = np.zeros(n, np.int64)
        idx = g.index.to_numpy()
        n_lines[idx] = g["n_lines"].to_numpy()
        n_dup[idx] = g["n_dup_lines"].to_numpy()
        dupc[idx] = g["dup_chars"].to_numpy()
        totc[idx] = g["tot_chars"].to_numpy()
        permille = np.where(totc > 0, (dupc * 1000) // np.maximum(totc, 1), 0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_dup_lines": pa.array(n_dup, pa.int64()),
            "dup_char_permille": pa.array(permille, pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


REPETITION_STATS_ORACLE = r"""
WITH ln AS (
  SELECT doc_id, unnest(string_split(COALESCE(text, ''), chr(10))) AS t
  FROM documents),
nz AS (SELECT doc_id, t, CAST(length(t) AS BIGINT) AS ln FROM ln WHERE length(t) > 0),
per_line AS (
  SELECT doc_id, t, CAST(count(*) AS BIGINT) AS c, min(ln) AS ln
  FROM nz GROUP BY doc_id, t),
agg AS (
  SELECT doc_id,
    CAST(sum(c) AS BIGINT) AS n_lines,
    CAST(sum(c - 1) AS BIGINT) AS n_dup_lines,
    CAST(sum((c - 1) * ln) AS BIGINT) AS dup_chars,
    CAST(sum(c * ln) AS BIGINT) AS tot_chars
  FROM per_line GROUP BY doc_id)
SELECT d.doc_id,
  COALESCE(a.n_lines, 0) AS n_lines,
  COALESCE(a.n_dup_lines, 0) AS n_dup_lines,
  CAST(CASE WHEN COALESCE(a.tot_chars, 0) > 0
            THEN (a.dup_chars * 1000) // a.tot_chars ELSE 0 END AS BIGINT)
    AS dup_char_permille
FROM documents d LEFT JOIN agg a USING (doc_id)"""


_GOPHER_STOPWORDS = ("the", "and", "of", "to", "in")


def q_gopher_quality(sf_dir: str) -> ray.data.Dataset:
    """Per-document Gopher symbol/structure signals: word count,
    '#' and '...'-ellipsis symbol counts, bullet-prefixed and
    ellipsis-terminated line counts, and a fixed-stopword hit count
    (the 'contains 2 of 5 stopwords' rule's raw signal). Pure RE2
    Arrow kernels, one stateless pass, integer outputs."""

    def f(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(batch.column("text"), "")
        n_words = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        n_hash = pc.cast(pc.count_substring(text, "#"), pa.int64())
        n_ellipsis = pc.cast(pc.count_substring(text, "..."), pa.int64())
        n_bullet_lines = pc.cast(
            pc.count_substring_regex(text, r"(?m)^[ \t]*[-*•]"), pa.int64())
        n_stop = None
        for w in _GOPHER_STOPWORDS:
            c = pc.count_substring_regex(text, rf"(?i)\b{w}\b")
            n_stop = c if n_stop is None else pc.add(n_stop, c)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": n_words,
            "n_hash": n_hash,
            "n_ellipsis": n_ellipsis,
            "n_bullet_lines": n_bullet_lines,
            "n_stopwords": pc.cast(n_stop, pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


GOPHER_QUALITY_ORACLE = r"""
SELECT doc_id,
  CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT) AS n_words,
  CAST(length(COALESCE(text, '')) - length(replace(COALESCE(text, ''), '#', ''))
       AS BIGINT) AS n_hash,
  CAST(length(regexp_extract_all(COALESCE(text, ''), '\.\.\.')) AS BIGINT) AS n_ellipsis,
  CAST(length(regexp_extract_all(COALESCE(text, ''), '(?m)^[ \t]*[-*•]'))
       AS BIGINT) AS n_bullet_lines,
  CAST(length(regexp_extract_all(COALESCE(text, ''), '(?i)\bthe\b'))
     + length(regexp_extract_all(COALESCE(text, ''), '(?i)\band\b'))
     + length(regexp_extract_all(COALESCE(text, ''), '(?i)\bof\b'))
     + length(regexp_extract_all(COALESCE(text, ''), '(?i)\bto\b'))
     + length(regexp_extract_all(COALESCE(text, ''), '(?i)\bin\b'))
       AS BIGINT) AS n_stopwords
FROM documents"""


CHUNK_LEN = 512  # tokens per training chunk


def q_seq_chunk(sf_dir: str, chunk_len: int = CHUNK_LEN) -> ray.data.Dataset:
    """Per-document fixed-window chunking (the context-window splitter
    that follows packing in a training pipeline): EXPLODE one row per
    chunk_len-token window — (doc_id, chunk_id, chunk_tokens), the last
    chunk carrying the remainder. Pure flat-map shape: each batch emits
    its own chunk rows, no shuffle, no state; at 10^12 docs the output
    is ~n_tokens/chunk_len rows, streamed straight to the consumer."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ntok = pc.cast(pc.count_substring_regex(
            pc.coalesce(batch.column("text"), ""), r"\S+"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n_chunks = -(-ntok // chunk_len)  # 0 chunks for empty docs
        doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), n_chunks)
        chunk_id = np.concatenate([np.arange(c, dtype=np.int64)
                                   for c in n_chunks]) if len(ids) else \
            np.zeros(0, np.int64)
        rem = ntok[doc_of] - chunk_id * chunk_len
        chunk_tokens = np.minimum(rem, chunk_len)
        return pa.table({
            "doc_id": pa.array(ids[doc_of], pa.int64()),
            "chunk_id": pa.array(chunk_id, pa.int64()),
            "chunk_tokens": pa.array(chunk_tokens, pa.int64()),
        })

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


def seq_chunk_oracle_sql(chunk_len: int = CHUNK_LEN) -> str:
    """Mirror of q_seq_chunk with the SAME chunk_len constant
    interpolated (a hardcoded literal would silently decouple the
    oracle from the engine default)."""
    return rf"""
WITH t AS (
  SELECT doc_id,
    CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT) AS n_tok
  FROM documents),
c AS (
  SELECT doc_id, n_tok,
    unnest(range((n_tok + {chunk_len - 1}) // {chunk_len})) AS chunk_id
  FROM t WHERE n_tok > 0)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
  CAST(least(n_tok - chunk_id * {chunk_len}, {chunk_len}) AS BIGINT) AS chunk_tokens
FROM c"""


def q_domain_quality(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """Per-domain corpus quality (the CCNet/RefinedWeb per-source
    curation signal): for the top-k hosts by page count, the page count
    and the mean quality weight in integer permille (floor of
    sum_weight / n, exact). Per-batch partials carry (host, n, sum_w)
    only — the shuffle never moves text — and the host table reduces
    through one exchange keyed by the host hash, whose groups sum, keep
    their top-k and finalize, then a distributed sort/limit."""
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines.training import _quality_weight

    def leg(batch: pa.Table) -> pa.Table:
        hosts = _host_of(batch.column("url"))
        w = _quality_weight(batch.column("text"))
        df = pd.DataFrame({"host": hosts.to_numpy(zero_copy_only=False),
                           "w": w})
        g = df.groupby("host", as_index=False).agg(n_pages=("w", "size"),
                                                   sum_w=("w", "sum"))
        host = pa.array(g["host"].to_numpy(), pa.string())
        return pa.table({
            "k": _hash_key(host), "host": host,
            "n_pages": pa.array(g["n_pages"].to_numpy().astype(np.int64), pa.int64()),
            "sum_w": pa.array(g["sum_w"].to_numpy().astype(np.int64), pa.int64()),
        })

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df = _top(k, "n_pages", "host")(df)
        return pd.DataFrame({
            "host": df["host"], "n_pages": df["n_pages"],
            "mean_quality_permille": df["sum_w"] // np.maximum(df["n_pages"], 1),
        })

    out = exchange.aggregate(
        [(exchange.read(pages_paths(sf_dir), ["url", "text"]), leg)],
        ["host"], {"n_pages": "sum", "sum_w": "sum"}, post=finalize)
    return exchange.sort_limit(out, ["n_pages", "host"], [True, False], k)


def domain_quality_oracle_sql(fx: str, k: int = 20) -> str:
    from vyperdatum_ray.pipelines.training import _QUALITY_WEIGHT_SQL

    return f"""
WITH p AS (
  SELECT regexp_extract(COALESCE(url, ''), 'https?://([^/]+)/', 1) AS host,
    CAST({_QUALITY_WEIGHT_SQL} AS BIGINT) AS w
  FROM read_parquet('{fx}/pages/*.parquet')),
g AS (
  SELECT host, CAST(count(*) AS BIGINT) AS n_pages,
    CAST(sum(w) AS BIGINT) AS sum_w
  FROM p GROUP BY host)
SELECT host, n_pages,
  CAST(sum_w // greatest(n_pages, 1) AS BIGINT) AS mean_quality_permille
FROM g ORDER BY n_pages DESC, host LIMIT {k}"""


def _canonical_urls(url_col) -> np.ndarray:
    """Lowercased scheme://host + path, query string and fragment
    stripped — the URL canonicalization step of web-corpus dedup."""
    s = pd.Series(url_col.to_numpy(zero_copy_only=False)).fillna("")
    s = s.str.replace(r"[?#].*$", "", regex=True)
    m = s.str.extract(r"^(https?://[^/]*)(.*)$")
    return (m[0].str.lower().fillna(s) + m[1].fillna("")).to_numpy()


def q_url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Dedup pages by CANONICAL url (lowercased scheme+host, query and
    fragment stripped): one row per canonical url with the min raw url
    and the variant count. Same exchange as dedup_exact, keyed by the
    canonical url's hash, with the exact per-canonical reduction
    vectorized inside each salt group. Sized by the url-column bytes
    only — the payload here is urls, never document text."""
    from vyperdatum_ray.fixtures import pages_paths

    def prep(batch: pa.Table) -> pa.Table:
        canon = pa.array(_canonical_urls(batch.column("url")), pa.string())
        return pa.table({"k": _hash_key(canon), "url": batch.column("url"),
                         "url_canonical": canon})

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("url_canonical", as_index=False).agg(
            url=("url", "min"), n_variants=("url", "size"))
        return g[["url_canonical", "url", "n_variants"]]

    paths = pages_paths(sf_dir)
    return exchange.exchange(
        [(exchange.read(paths, ["url"]), prep)],
        reduce_group)


def url_dedup_oracle_sql(fx: str) -> str:
    return f"""
WITH c AS (
  SELECT url,
    lower(regexp_extract(regexp_replace(COALESCE(url, ''), '[?#].*$', ''),
                         '^(https?://[^/]*)', 1))
    || regexp_replace(regexp_replace(COALESCE(url, ''), '[?#].*$', ''),
                      '^https?://[^/]*', '') AS url_canonical
  FROM read_parquet('{fx}/pages/*.parquet'))
SELECT url_canonical, min(url) AS url,
  CAST(count(*) AS BIGINT) AS n_variants
FROM c GROUP BY url_canonical"""


# GPT-2-style pretokenizer (the public BPE pre-split regex family:
# contraction suffixes, letter runs, digit runs, punctuation runs,
# whitespace) — RE2-compatible, identical in Arrow and DuckDB.
BPE_PRETOKEN_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
)


def q_token_count_bpe(sf_dir: str) -> ray.data.Dataset:
    """Token counting under a BPE-ish pretokenizer alongside the plain
    whitespace count — the pair every training-budget estimate needs
    (whitespace words vs model tokens). One stateless vectorized pass;
    both counts are exact RE2 match counts mirrored in the oracle."""

    def f(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(batch.column("text"), "")
        ws = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        bpe = pc.cast(pc.count_substring_regex(text, BPE_PRETOKEN_PATTERN),
                      pa.int64())
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_tokens_ws": ws, "n_tokens_bpe": bpe})

    return exchange.map(_docs(sf_dir, ["doc_id", "text"]), f)


TOKEN_COUNT_BPE_ORACLE = (
    r"SELECT doc_id, "
    r"CAST(length(regexp_extract_all(COALESCE(text, ''), '\S+')) AS BIGINT)"
    r" AS n_tokens_ws, "
    "CAST(length(regexp_extract_all(COALESCE(text, ''), '"
    + BPE_PRETOKEN_PATTERN.replace("'", "''")
    + "')) AS BIGINT) AS n_tokens_bpe FROM documents"
)
