"""Per-partition lineage checkpoints + resumable flagship runs.

north_rule: "resumable from checkpoint with per-partition lineage +
metrics". The unit of checkpointing is the INPUT SHARD (one pages
parquet file): a shard is "done" iff its lineage record exists, and
records

    {input_file, row_range, cell_set (distinct tile ids), region_set,
     n_rows_in, n_rows_out, transform_version}

(reference analogue: the transform-version fingerprint cache,
core.py:766-792/1063-1147 — extended to per-partition provenance).

The sink is the fused flagship run as one plain Ray task per pending
shard (``_sink_shard``, a ``ray.remote`` function, not a Dataset
stage: the result is files plus one summary per shard, so nothing needs
a streaming executor). Each task reads, transforms and writes the
shard's single output file ``shard=<id>/part-0.parquet``
(``write_partition``) and returns the shard's lineage record, computed
from the very table it wrote, drop counters included. The driver
commits each record atomically (``write_json_atomic``) as it arrives
(``as_completed``) — always after the shard's file is in place — so a
run that dies part-way keeps every shard that finished. The corpus run
(state/corpus_lineage.py) follows the same protocol through the same
helpers.

Resume semantics (scalable at 10^12 docs): completed shards are pruned
AT THE READ — the resumed run simply never reads finished input
files, so resume cost is proportional to the remaining work. Output is
partitioned by shard id (one directory, one deterministic file per
shard), so a retried / resumed shard overwrites its own partition
idempotently and never double-counts (Ray tasks are at-least-once).

A lineage record whose ``transform_version`` differs from the current
catalog fingerprint is treated as stale and recomputed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
import uuid
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc

import ray

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
    write_json_atomic(os.path.join(lineage_dir(out_dir), MANIFEST_NAME), man)
    return man


def load_catalog_manifest(out_dir: str) -> dict | None:
    return read_json(os.path.join(lineage_dir(out_dir), MANIFEST_NAME))


def write_json_atomic(path: str, obj: dict) -> None:
    """Commit ``obj`` to ``path`` atomically: a temp file, then
    ``os.replace``, so a reader sees the old file or the new one whole."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_json(path: str) -> dict | None:
    """``path``'s JSON, or None when it is missing or corrupt."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def read_records(ldir: str) -> list[dict]:
    """Every committed record in ``ldir``. ``_``-prefixed files
    (manifests) are not records; a partial or corrupt record is skipped,
    so its partition recomputes."""
    if not os.path.isdir(ldir):
        return []
    recs = (read_json(os.path.join(ldir, name)) for name in os.listdir(ldir)
            if name.endswith(".json") and not name.startswith("_"))
    return [r for r in recs if r is not None]


def write_partition(part_dir: str, table: pa.Table) -> None:
    """``part_dir/part-0.parquet``, written under a ``_``-prefixed name
    unique to this attempt (readers skip ``_`` names) and renamed into
    place, so a re-executed task (Ray tasks are at-least-once) replaces
    its own file whole. A zero-row table writes nothing."""
    import pyarrow.parquet as pq

    if not table.num_rows:
        return
    os.makedirs(part_dir, exist_ok=True)
    tmp = os.path.join(part_dir, f"_part-0.{uuid.uuid4().hex}.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(part_dir, "part-0.parquet"))


def as_completed(submits):
    """Run zero-argument task submitters (each returns one ObjectRef)
    and yield each result as its task finishes, in finishing order.

    At most twice the cluster's CPUs are in flight, so the driver's
    pending task specs stay bounded however many partitions a run has.
    When a task raises, no further task starts: the ones in flight are
    drained and their results still yielded (the caller commits every
    partition that finished, and no task of the failed run writes after
    it returns), then the first error is raised."""
    window = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    submits = iter(submits)
    in_flight, error = [], None
    while True:
        if error is None:
            in_flight += [s() for s in itertools.islice(submits, window - len(in_flight))]
        if not in_flight:
            break
        done, in_flight = ray.wait(in_flight, num_returns=1)
        try:
            result = ray.get(done[0])
        except ray.exceptions.RayError as e:
            error = error or e
            continue
        yield result
    if error is not None:
        raise error


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
    done: dict[str, dict] = {}
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
    for rec in read_records(lineage_dir(out_dir)):
        if rec.get("transform_version") == transform_version:
            done[rec["shard"]] = rec
        elif (fine is not None
              and rec.get("transform_version") == fine[0]
              and "region_set" in rec
              and not set(rec["region_set"]) & fine[1]):
            done[rec["shard"]] = rec
    return done


def _commit_record(out_dir: str, rec: dict) -> None:
    write_json_atomic(os.path.join(lineage_dir(out_dir), f"{rec['shard']}.json"), rec)


# The sink's output schema; ``shard`` is the hive directory, not a column.
OUTPUT_COLUMNS = ["url", "lat", "lon", "h3_9", "s2_13", "tile_id", "region",
                  "region_index", "z_out", "unc"]
# A record's dropped-row counts, which a run's metrics line sums.
DROP_COUNTERS = ("n_no_geocode", "n_no_region", "n_no_coverage")


@ray.remote(num_cpus=1)
def _sink_shard(path: str, catalog: list, catalog_key: str, params: dict,
                out_dir: str) -> dict:
    """One input shard end to end, in one task: the worker's cached
    fused flagship, then ``shard=<id>/part-0.parquet``, then the shard's
    lineage record (``write_partition``: a zero-row shard writes no
    file). ``catalog`` wraps the catalog's ref so the task gets the ref,
    not a Catalog unpickled per task: ``_cached_state`` fetches it once
    per worker process.

    The drop counters: ``n_no_geocode`` rows did not geocode (the fused
    output keeps every geocoded row), ``n_no_region`` geocoded outside
    every region polygon, and ``n_no_coverage`` fell inside a region
    but no grid had a value there."""
    import numpy as np
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.flagship import (FusedReadTransform,
                                                   _cached_state)

    full = _cached_state(FusedReadTransform, catalog[0], catalog_key,
                         params)(pa.table({"path": [path]}))
    pip = full.column("pip_region_index").to_numpy()
    region = full.column("region_index").to_numpy()
    out = full.select(OUTPUT_COLUMNS)
    shard = _shard_of(path)
    write_partition(os.path.join(out_dir, f"shard={shard}"), out)

    def distinct(name: str) -> list:
        return sorted(pc.unique(out.column(name)).to_pylist())

    n_in = pq.ParquetFile(path).metadata.num_rows
    return {
        "shard": shard,
        "input_file": path,
        "row_range": [0, n_in],
        "n_rows_in": n_in,
        "n_rows_out": out.num_rows,
        "cell_set": distinct("tile_id"),
        "region_set": distinct("region"),
        "n_no_geocode": n_in - out.num_rows,
        "n_no_region": int(np.count_nonzero(pip < 0)),
        "n_no_coverage": int(np.count_nonzero((pip >= 0) & (region < 0))),
    }


def run_flagship_checkpointed(
    sf_dir: str,
    out_dir: str,
    catalog=None,
) -> dict:
    """Run the flagship pipeline shard-resumably; returns run metrics.

    Call again after a failure (or after new input shards appear) and it
    processes only the pending shards.
    """
    from vyperdatum_ray.pipelines.flagship import (FUSED_DEFAULTS,
                                                   _shard_kwargs, load_catalog)
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

    # Clear partitions of pending shards (idempotent re-run; a crashed
    # attempt may have left partial files without a lineage record).
    for p in pending:
        shutil.rmtree(os.path.join(out_dir, f"shard={_shard_of(p)}"),
                      ignore_errors=True)

    # One task per pending shard on warm workers (catalog state cached
    # per worker process, keyed by catalog content) reads, transforms
    # and writes its shard and returns the shard's lineage record;
    # nothing else leaves the task. Each record is committed as it
    # arrives — always after its partition is complete — so a run that
    # dies part-way keeps every finished shard.
    if pending:
        kw = _shard_kwargs(catalog, **FUSED_DEFAULTS)
        rows_in = rows_out = 0
        drops = dict.fromkeys(DROP_COUNTERS, 0)
        for rec in as_completed(
                partial(_sink_shard.remote, p, [kw["catalog_ref"]],
                        kw["catalog_key"], kw["params"], out_dir)
                for p in pending):
            _commit_record(out_dir, {"schema_version": SCHEMA_VERSION, **rec,
                                     "transform_version": version})
            rows_in += rec["n_rows_in"]
            rows_out += rec["n_rows_out"]
            for k in drops:
                drops[k] += rec[k]
        metrics.update(rows_in=rows_in, rows_out=rows_out, **drops)

    write_catalog_manifest(out_dir, catalog)
    metrics["elapsed_s"] = round(time.perf_counter() - t0, 3)
    _write_metrics(out_dir, metrics)
    return metrics


def _write_metrics(out_dir: str, metrics: dict) -> None:
    path = os.path.join(lineage_dir(out_dir), "_metrics.jsonl")
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"ts": time.time(), **metrics}) + "\n")
