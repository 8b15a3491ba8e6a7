"""Resumable corpus-curation runs: two-phase lineage checkpoints.

The corpus pipeline (pipelines/training.q_corpus_pipeline) has one
stage that is NOT shard-local — exact dedup compares documents across
the whole corpus — so a single shard-level checkpoint (state/lineage.py
style) cannot make the run resumable. Instead the run is split at the
one cross-shard boundary:

- **Phase A — curate, resumable per INPUT SHARD** (a doc_id range of
  the documents table; with multi-file input a shard would be one
  file). One task per pending shard reads its range, runs the langid/
  quality/decontamination scan and writes its survivors as *candidate*
  partitions ``candidates/shard=K/bucket=B/part-0.parquet`` carrying
  only ``(doc_id, n_tok, h_lo, h_hi)`` — a 128-bit content hash, never
  the text. The probe n-gram vocabulary is computed once and PERSISTED
  (``_probe.parquet``), so a resumed run reuses it instead of
  rescanning the corpus.
- **Phase B — dedup + split, resumable per HASH BUCKET.** Exact dedup
  is partitionable by content hash: bucket ``h_lo % n_buckets``'s
  result depends only on bucket-B candidate rows across all shards,
  never on other buckets, and phase A already laid those rows out one
  directory per (shard, bucket). One task per pending bucket reads its
  candidate files, keeps the min doc_id per 128-bit hash, assigns the
  deterministic train/val/test split and writes
  ``final/bucket=B/part-0.parquet``.

Both phases follow the lineage.py sink protocol and share its helpers:
pre-clear pending partitions (a crashed attempt may have left partial
files without a record), each task writes its own files
(``write_partition``: temp name, then ``os.replace``) and returns its
row count, and the driver commits the record atomically as that count
arrives (``as_completed``: a bounded window of tasks in flight, and a
failed task drains the others before its error is raised) — so re-runs
are exactly-once per partition and resume cost is proportional to the
remaining work. Any phase-A recompute drops ALL phase-B records (a
bucket's input spans every shard), while a crash inside phase B
resumes bucket-granular with phase A fully skipped. Dedup keys on the 128-bit hash rather than exact text
(collision odds ~2^-64 per pair; the adjudicated q_corpus_pipeline
keeps the exact-compare semantics for the oracle gate).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from vyperdatum_ray.state.lineage import (as_completed, lineage_dir, read_json,
                                          read_records, write_json_atomic,
                                          write_partition)

CORPUS_SCHEMA_VERSION = 1


def corpus_version(n_shards: int, n_buckets: int) -> str:
    """Stale-detection fingerprint: every parameter a lineage record's
    validity depends on — the curation thresholds, the SHARD/BUCKET
    geometry (a record names a partition of that geometry; resuming
    with different counts would silently misassign rows), and the
    polars version (h_lo/h_hi come from polars' hash, which polars does
    not guarantee stable across releases — mixing old and new candidate
    hashes would break cross-shard dedup)."""
    import polars as pl

    from vyperdatum_ray.pipelines.textops import CONTAM_N, CONTAM_PROBE_MOD
    from vyperdatum_ray.pipelines.training import CP_MAX_TOK, CP_MIN_TOK, CP_MIN_W

    return (f"corpus-v{CORPUS_SCHEMA_VERSION}-n{CONTAM_N}-p{CONTAM_PROBE_MOD}"
            f"-t{CP_MIN_TOK}.{CP_MAX_TOK}-w{CP_MIN_W}"
            f"-s{n_shards}-b{n_buckets}-pl{pl.__version__}")


CORPUS_MANIFEST_NAME = "_corpus_manifest.json"


def input_fingerprints(paths) -> dict[str, str]:
    """Cheap per-file INPUT content fingerprint: md5 over (file size,
    last 64 KB). The parquet footer lives in that tail and carries
    row-group offsets + statistics, so any rewrite of the data changes
    it; the read is O(64 KB) per file regardless of data size. This is
    the corpus-run analogue of lineage.write_catalog_manifest's
    per-grid hashes: corpus_version() covers PARAMETERS, this covers
    the DATA — without it a rewritten documents.parquet would resume
    against stale phase-A candidates and silently emit the old
    corpus."""
    out = {}
    for p in sorted(str(x) for x in ([paths] if isinstance(paths, (str, bytes))
                                     else paths)):
        size = os.path.getsize(p)
        with open(p, "rb") as f:
            f.seek(max(0, size - 65536))
            tail = f.read()
        h = hashlib.md5()
        h.update(str(size).encode())
        h.update(tail)
        out[os.path.basename(p)] = h.hexdigest()[:16]
    return out


def _manifest_path(out_dir: str) -> str:
    return os.path.join(lineage_dir(out_dir), CORPUS_MANIFEST_NAME)


def _records(ldir: str, version: str) -> dict[str, dict]:
    return {r["part"]: r for r in read_records(ldir)
            if r.get("transform_version") == version}


def _persisted_probe(sf_dir: str, out_dir: str, version: str) -> "ray.ObjectRef":
    """Probe vocabulary: load the persisted copy if present FOR THIS
    VERSION, else compute once and persist atomically. The version is
    part of the filename so a parameter change (e.g. CONTAM_N) can
    never resume against a stale vocabulary — which would silently
    disable decontamination."""
    from vyperdatum_ray.pipelines.textops import contam_probe_ref

    path = os.path.join(out_dir, f"_probe.{version}.parquet")
    if os.path.exists(path):
        return ray.put(pq.read_table(path).column("g").combine_chunks())
    ref = contam_probe_ref(sf_dir)
    tmp = path + f".tmp.{os.getpid()}"
    pq.write_table(pa.table({"g": ray.get(ref)}), tmp)
    os.replace(tmp, path)
    return ref


@ray.remote(num_cpus=1)
def _curate_shard(doc_path: str, k: int, lo: int, hi: int, probe: list,
                  n_buckets: int, shard_dir: str) -> tuple[int, int]:
    """Phase A for shard ``k`` (doc_ids ``[lo, hi)``): curate, hash, and
    write one candidate file per non-empty bucket. ``probe`` wraps the
    probe vocabulary's ref so Ray hands the ref, not its value, to
    ``CurateStage`` (which reads it from the worker's object store)."""
    import polars as pl

    from vyperdatum_ray.pipelines.textops import _hash_utf8_fast
    from vyperdatum_ray.pipelines.training import CurateStage

    t = pq.read_table(doc_path, columns=["doc_id", "text"],
                      filters=[("doc_id", ">=", lo), ("doc_id", "<", hi)])
    kept = CurateStage(probe[0])(t)
    text = kept.column("text").combine_chunks()
    h_lo = _hash_utf8_fast(text)
    h_hi = pl.from_arrow(text).hash(seed=43).to_numpy().astype(np.uint64)
    cand = pa.table({
        "doc_id": kept.column("doc_id"),
        "n_tok": kept.column("n_tok"),
        "h_lo": pa.array(h_lo.astype(np.int64)),
        "h_hi": pa.array(h_hi.astype(np.int64)),
    })
    bucket = (h_lo % np.uint64(n_buckets)).astype(np.int64)
    for b in np.unique(bucket):
        write_partition(os.path.join(shard_dir, f"bucket={b}"),
                        cand.filter(pa.array(bucket == b)))
    return k, cand.num_rows


@ray.remote(num_cpus=1)
def _dedup_bucket(b: int, files: list[str], bucket_dir: str) -> tuple[int, int, int]:
    """Phase B for bucket ``b``: the min doc_id per 128-bit hash over
    the bucket's candidate files, then its deterministic split; returns
    ``(b, candidate rows read, rows written)``. Files
    are read one at a time: ``pq.read_table`` over a LIST of paths
    hive-infers ``shard``/``bucket`` columns from the directories."""
    from vyperdatum_ray.pipelines.training import SPLIT_MULT, _hash32

    df = pa.concat_tables(pq.read_table(f) for f in files).to_pandas()
    g = df.sort_values("doc_id").drop_duplicates(["h_lo", "h_hi"])
    ids = g["doc_id"].to_numpy().astype(np.int64)
    draw = (_hash32(ids, SPLIT_MULT) % np.uint64(1000)).astype(np.int64)
    g["split"] = np.where(draw < 980, "train", np.where(draw < 990, "val", "test"))
    write_partition(bucket_dir, pa.Table.from_pandas(
        g[["doc_id", "n_tok", "split"]], preserve_index=False))
    return b, len(df), len(g)


def run_corpus_checkpointed(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 8,
    n_buckets: int = 64,
) -> dict:
    """Run the curation pipeline resumably; call again after a crash
    and only pending shards (phase A) / buckets (phase B) recompute."""
    t0 = time.perf_counter()
    version = corpus_version(n_shards, n_buckets)
    os.makedirs(out_dir, exist_ok=True)
    doc_path = os.path.join(sf_dir, "documents.parquet")
    meta = pq.ParquetFile(doc_path).metadata
    n_docs = meta.num_rows
    # Shard bounds cover the ACTUAL doc_id value range (from parquet
    # row-group stats — no data read), not [0, num_rows): ids that
    # start above 0, are sparse, or exceed the row count all land in
    # exactly one shard. (With multi-file input, shards would be files
    # and this range partition disappears.)
    id_col = meta.schema.names.index("doc_id")
    stats = [meta.row_group(i).column(id_col).statistics
             for i in range(meta.num_row_groups)]
    if not n_docs:
        # an empty corpus has no id range (its one row group carries no
        # statistics): every shard owns the empty range, and no task runs
        id_lo = id_hi = 0
    elif all(s is not None and s.min is not None and s.max is not None
             for s in stats):
        id_lo = min(s.min for s in stats)
        id_hi = max(s.max for s in stats) + 1
    else:
        # statistics disabled by the writer: one cheap id-column scan
        ids = pq.read_table(doc_path, columns=["doc_id"]).column("doc_id")
        id_lo = pc.min(ids).as_py()
        id_hi = pc.max(ids).as_py() + 1
    # Integer bound arithmetic (Python ints): np.linspace goes through
    # float64 and mis-rounds ids above 2^53, which would drop the
    # lowest documents from every shard.
    span = id_hi - id_lo
    bounds = [id_lo + span * i // n_shards for i in range(n_shards + 1)]

    cand_dir = os.path.join(out_dir, "candidates")
    final_dir = os.path.join(out_dir, "final")
    ldir_a = os.path.join(lineage_dir(out_dir), "phaseA")
    ldir_b = os.path.join(lineage_dir(out_dir), "phaseB")

    # Input-data staleness gate (corpus_version covers parameters only):
    # a rewritten documents.parquet invalidates EVERY record — phase A
    # read it, and every phase-B bucket spans every shard. The manifest
    # is (re)written BEFORE any work so a mid-run crash resumes
    # consistently; a dir from a pre-manifest run is honored as-is and
    # gains the manifest now.
    fps = input_fingerprints(doc_path)
    man = read_json(_manifest_path(out_dir))
    if man is not None and man.get("inputs") != fps:
        shutil.rmtree(ldir_a, ignore_errors=True)
        shutil.rmtree(ldir_b, ignore_errors=True)
        # the persisted probe vocabulary derives from the same input
        for p in os.listdir(out_dir):
            if p.startswith("_probe.") and p.endswith(".parquet"):
                os.unlink(os.path.join(out_dir, p))
    write_json_atomic(_manifest_path(out_dir), {
        "schema_version": CORPUS_SCHEMA_VERSION, "inputs": fps})

    # ---------------------------------------------------- phase A ---
    done_a = _records(ldir_a, version)
    pending_a = [k for k in range(n_shards) if f"shard{k}" not in done_a]
    metrics = {
        "transform_version": version,
        "phaseA_total": n_shards, "phaseA_skipped": n_shards - len(pending_a),
        "phaseB_total": n_buckets,
    }
    if pending_a:
        # Write-ahead invalidation: phase-A output is about to change
        # and a bucket's input spans every shard, so drop ALL phase-B
        # records BEFORE any phase-A work — a crash after the phase-A
        # commits but before this point could otherwise leave valid-
        # looking phase-B records over stale candidates.
        shutil.rmtree(ldir_b, ignore_errors=True)
        for k in pending_a:
            shutil.rmtree(os.path.join(cand_dir, f"shard={k}"), ignore_errors=True)
        results = [(k, 0) for k in pending_a]
        if n_docs:
            probe = [_persisted_probe(sf_dir, out_dir, version)]
            results = as_completed(partial(
                _curate_shard.remote, doc_path, k, bounds[k], bounds[k + 1],
                probe, n_buckets, os.path.join(cand_dir, f"shard={k}"))
                for k in pending_a)
        for k, n_out in results:
            write_json_atomic(os.path.join(ldir_a, f"shard{k}.json"), {
                "schema_version": CORPUS_SCHEMA_VERSION, "part": f"shard{k}",
                # id_range is the doc_id VALUE range this shard owns —
                # with sparse ids its width is not a row count, so no
                # n_rows_in is claimed (n_rows_out is measured output)
                "shard": f"shard{k}",
                "id_range": [bounds[k], bounds[k + 1]],
                "n_rows_out": n_out,
                "transform_version": version,
            })
    # ---------------------------------------------------- phase B ---
    done_b = _records(ldir_b, version)
    pending_b = [b for b in range(n_buckets) if f"bucket{b}" not in done_b]
    metrics["phaseB_skipped"] = n_buckets - len(pending_b)
    files_by_bucket: dict[int, list[str]] = {b: [] for b in pending_b}
    for b in pending_b:
        shutil.rmtree(os.path.join(final_dir, f"bucket={b}"), ignore_errors=True)
        for k in range(n_shards):
            d = os.path.join(cand_dir, f"shard={k}", f"bucket={b}")
            if os.path.isdir(d):
                files_by_bucket[b] += [
                    os.path.join(d, f) for f in sorted(os.listdir(d))
                    if f.endswith(".parquet") and not f.startswith("_")]
    # a bucket without candidates has nothing to dedup: no task, no file
    empty = [(b, 0, 0) for b, fs in files_by_bucket.items() if not fs]
    tasks = (partial(_dedup_bucket.remote, b, fs, os.path.join(final_dir, f"bucket={b}"))
             for b, fs in files_by_bucket.items() if fs)
    for b, n_in, n_out in itertools.chain(empty, as_completed(tasks)):
        write_json_atomic(os.path.join(ldir_b, f"bucket{b}.json"), {
            "schema_version": CORPUS_SCHEMA_VERSION, "part": f"bucket{b}",
            "n_candidate_files": len(files_by_bucket[b]),
            "n_rows_in": n_in,
            "n_rows_out": n_out,
            "transform_version": version,
        })

    rows_out = sum(r["n_rows_out"] for r in _records(ldir_b, version).values())
    metrics.update(
        phaseA_run=len(pending_a), phaseB_run=len(pending_b),
        rows_in=n_docs, rows_out=rows_out,
        elapsed_s=round(time.perf_counter() - t0, 3),
    )
    with open(os.path.join(lineage_dir(out_dir), "_corpus_metrics.jsonl"), "a") as f:
        f.write(json.dumps({"ts": time.time(), **metrics}) + "\n")
    return metrics
