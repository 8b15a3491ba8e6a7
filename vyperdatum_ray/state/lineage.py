"""Per-partition lineage checkpoints + resumable flagship runs.

north_rule: "resumable from checkpoint with per-partition lineage +
metrics". The unit of checkpointing is the INPUT SHARD (one pages
parquet file): a shard is "done" iff its lineage record exists. A
lineage record is committed atomically (tmp file + rename) only AFTER
the shard's output partition is fully written, and records

    {input_file, row_range, cell_set (distinct tile ids), n_rows_in,
     n_rows_out, transform_version, engine_version}

(reference analogue: the transform-version fingerprint cache,
core.py:766-792/1063-1147 — extended to per-partition provenance).

Resume semantics (scalable at 10^12 docs): completed shards are pruned
AT THE READ — the resumed Dataset simply never reads finished input
files, so resume cost is proportional to the remaining work. Output is
partitioned by shard id (one directory per shard), so a retried /
resumed shard overwrites its own partition idempotently and never
double-counts (Ray tasks are at-least-once).

A lineage record whose ``transform_version`` differs from the current
catalog fingerprint is treated as stale and recomputed.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa

import ray
import ray.data

SCHEMA_VERSION = 1
MANIFEST_NAME = "_catalog_manifest.json"  # _-prefix: not a shard record


def write_catalog_manifest(out_dir: str, catalog) -> dict:
    """Versioned catalog manifest (T5 completion; the reference keeps a
    per-VDatum-version grid-hash DB, vdatum_validation.py:1384-1394):
    per-grid content MD5s plus a structure fingerprint, committed
    atomically next to the lineage records after a successful run.
    Enables MIXED-VERSION resume: on the next run, a changed grid
    invalidates exactly the shards whose recorded ``region_set``
    touches it (see ``completed_shards``)."""
    man = {
        "schema_version": SCHEMA_VERSION,
        "catalog_version": catalog.version,
        "structure": catalog.structure_fingerprint(),
        "grids": catalog.grid_fingerprints(),
    }
    ldir = lineage_dir(out_dir)
    os.makedirs(ldir, exist_ok=True)
    final = os.path.join(ldir, MANIFEST_NAME)
    tmp = final + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(man, f, indent=1, sort_keys=True)
    os.replace(tmp, final)
    return man


def load_catalog_manifest(out_dir: str) -> dict | None:
    path = os.path.join(lineage_dir(out_dir), MANIFEST_NAME)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def _shard_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def completed_shards(out_dir: str, transform_version: str,
                     catalog=None) -> dict[str, dict]:
    """Shard -> lineage record for every committed shard that is still
    CURRENT under the staleness rules:

    * a record stamped with the current transform version is done;
    * with a ``catalog`` and a stored manifest whose STRUCTURE
      fingerprint matches (same regions/polygons/sigmas — only grid
      VALUES may differ), a record from the manifest's catalog version
      is also done iff its ``region_set`` is disjoint from the regions
      whose grids changed — so a rolling grid upgrade re-runs exactly
      the shards it affects. A structure change (regions added/moved,
      sigmas edited) can re-route points between regions, so it always
      invalidates everything; likewise records too old to carry a
      region_set. Assumption (documented): a value-only grid change
      keeps its coverage footprint — coverage-EXTENDING grid edits also
      change grid geometry rows, which alters the structure-adjacent
      grid key set and is caught by the fingerprint diff only if the
      key set changed; otherwise run with a fresh out_dir."""
    ldir = lineage_dir(out_dir)
    done: dict[str, dict] = {}
    if not os.path.isdir(ldir):
        return done
    fine = None  # (old_version, changed_region_set) when fine-grained applies
    if catalog is not None:
        man = load_catalog_manifest(out_dir)
        if man and man.get("structure") == catalog.structure_fingerprint():
            cur = catalog.grid_fingerprints()
            old = man.get("grids", {})
            changed = {k.split("/", 1)[0]
                       for k in set(cur) | set(old)
                       if cur.get(k) != old.get(k)}
            fine = (man.get("catalog_version"), changed)
    for name in os.listdir(ldir):
        if not name.endswith(".json") or name.startswith("_") \
                or name == MANIFEST_NAME:
            continue
        try:
            with open(os.path.join(ldir, name)) as f:
                rec = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue  # partial/corrupt record -> recompute that shard
        if rec.get("transform_version") == transform_version:
            done[rec["shard"]] = rec
        elif (fine is not None
              and rec.get("transform_version") == fine[0]
              and "region_set" in rec
              and not set(rec["region_set"]) & fine[1]):
            done[rec["shard"]] = rec
    return done


def _commit_record(out_dir: str, rec: dict) -> None:
    ldir = lineage_dir(out_dir)
    os.makedirs(ldir, exist_ok=True)
    final = os.path.join(ldir, f"{rec['shard']}.json")
    tmp = final + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    os.replace(tmp, final)  # atomic commit


def run_flagship_checkpointed(
    sf_dir: str,
    out_dir: str,
    catalog=None,
) -> dict:
    """Run the flagship pipeline shard-resumably; returns run metrics.

    Call again after a failure (or after new input shards appear) and it
    processes only the pending shards.
    """
    from vyperdatum_ray.pipelines.flagship import flagship_fused, load_catalog
    from vyperdatum_ray.fixtures import pages_paths

    t0 = time.perf_counter()
    if catalog is None:
        catalog = load_catalog(sf_dir)
    version = catalog.version

    all_paths = sorted(pages_paths(sf_dir))
    done = completed_shards(out_dir, version, catalog=catalog)
    # Re-stamp kept records that survived a FINE-GRAINED version check
    # (their region_set avoided every changed grid) to the CURRENT
    # version: the run ends by overwriting the manifest's
    # catalog_version, so an un-restamped old-version record would fall
    # out of `done` on the NEXT routine resume — a silent full-corpus
    # recompute right after the feature saved one.
    for rec in done.values():
        if rec.get("transform_version") != version:
            _commit_record(out_dir, {**rec, "transform_version": version})
    pending = [p for p in all_paths if _shard_of(p) not in done]
    metrics = {
        "n_shards_total": len(all_paths),
        "n_shards_skipped": len(all_paths) - len(pending),
        "n_shards_run": len(pending),
        "transform_version": version,
    }
    if not pending:
        write_catalog_manifest(out_dir, catalog)
        metrics["elapsed_s"] = round(time.perf_counter() - t0, 3)
        _write_metrics(out_dir, metrics)
        return metrics

    # Clear partitions of pending shards (idempotent re-run; a crashed
    # attempt may have left partial files without a lineage record).
    import shutil

    for p in pending:
        part_dir = os.path.join(out_dir, f"shard={_shard_of(p)}")
        shutil.rmtree(part_dir, ignore_errors=True)

    def tag_shard(batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        shards = [_shard_of(p) for p in paths]
        return batch.drop_columns(["path"]).append_column(
            "shard", pa.array(shards, pa.string())
        )

    # fully-fused shard tasks: read -> geocode -> cells -> PIP ->
    # transform in ONE task per shard on warm workers (catalog state
    # cached per worker process, keyed by catalog content), so neither
    # page text NOR the slim geocoded stream ever crosses the object
    # store (round-4
    # measurement: 16.4M -> 26.8M rows/s at 32 CPUs vs the
    # geocode-in-read + separate transform-pool shape; BASELINE.md)
    ds = flagship_fused(sf_dir, catalog=catalog, paths=pending,
                        include_paths=True)
    ds = ds.map_batches(tag_shard, batch_format="pyarrow")
    ds = ds.select_columns(
        ["shard", "url", "lat", "lon", "h3_9", "s2_13", "tile_id",
         "region", "region_index", "z_out", "unc"]
    )
    # append mode: completed shards' partitions are untouched; pending
    # partitions were cleared above, so the write is shard-idempotent
    ds.write_parquet(out_dir, partition_cols=["shard"])

    # Per-shard lineage aggregates from the WRITTEN output — reading
    # ONLY the pending partitions (resume cost stays proportional to
    # the work actually done).
    pending_files = []
    for p in pending:
        d = os.path.join(out_dir, f"shard={_shard_of(p)}")
        if os.path.isdir(d):
            pending_files += [
                os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
            ]
    if not pending_files:
        # every pending shard produced zero output rows (e.g. no
        # geocodable pages) — still commit their (empty) lineage records
        # so the resume converges instead of crashing forever
        import pyarrow.parquet as pq

        rows_in = 0
        for p in pending:
            n_in = pq.ParquetFile(p).metadata.num_rows
            _commit_record(out_dir, {
                "schema_version": SCHEMA_VERSION, "shard": _shard_of(p),
                "input_file": p, "row_range": [0, n_in], "n_rows_in": n_in,
                "n_rows_out": 0, "cell_set": [], "region_set": [],
                "transform_version": version,
            })
            rows_in += n_in
        write_catalog_manifest(out_dir, catalog)
        metrics.update(rows_in=rows_in, rows_out=0,
                       elapsed_s=round(time.perf_counter() - t0, 3))
        _write_metrics(out_dir, metrics)
        return metrics
    out = ray.data.read_parquet(pending_files, columns=["tile_id", "region"],
                                include_paths=True)

    def partial(batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        sh = np.array(
            [next(seg[6:] for seg in p.split(os.sep) if seg.startswith("shard="))
             for p in paths],
            dtype=object,
        )
        tid = batch.column("tile_id").to_numpy(zero_copy_only=False)
        reg = batch.column("region").to_numpy(zero_copy_only=False)
        rows = []
        for s in np.unique(sh):
            m = sh == s
            rows.append({"shard": str(s), "n": int(m.sum()),
                         "tiles": np.unique(tid[m]).tolist(),
                         "regions": np.unique(reg[m]).tolist()})
        return pa.Table.from_pylist(rows)

    def merge(df):
        tiles = sorted({t for lst in df["tiles"] for t in lst})
        regions = sorted({r for lst in df["regions"] for r in lst})
        return df.iloc[:1].assign(n=df["n"].sum())[["shard", "n"]].assign(
            tiles=[tiles], regions=[regions]
        )

    agg = (
        out.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    by_shard = {r["shard"]: r for _, r in agg.iterrows()}

    import pyarrow.parquet as pq

    rows_in = rows_out = 0
    for p in pending:
        shard = _shard_of(p)
        n_in = pq.ParquetFile(p).metadata.num_rows
        rec_row = by_shard.get(shard)
        rec = {
            "schema_version": SCHEMA_VERSION,
            "shard": shard,
            "input_file": p,
            "row_range": [0, n_in],
            "n_rows_in": n_in,
            "n_rows_out": int(rec_row["n"]) if rec_row is not None else 0,
            "cell_set": [int(t) for t in rec_row["tiles"]] if rec_row is not None else [],
            "region_set": [str(r) for r in rec_row["regions"]] if rec_row is not None else [],
            "transform_version": version,
        }
        _commit_record(out_dir, rec)
        rows_in += n_in
        rows_out += rec["n_rows_out"]

    write_catalog_manifest(out_dir, catalog)
    metrics.update(
        rows_in=rows_in, rows_out=rows_out,
        elapsed_s=round(time.perf_counter() - t0, 3),
    )
    _write_metrics(out_dir, metrics)
    return metrics


def _write_metrics(out_dir: str, metrics: dict) -> None:
    path = os.path.join(lineage_dir(out_dir), "_metrics.jsonl")
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"ts": time.time(), **metrics}) + "\n")
