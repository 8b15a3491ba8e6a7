"""The flagship end-to-end pipeline (SURVEY.md §3.4):

``read_parquet(pages, columns pruned) -> geocode -> filter -> cell index
-> RegionJoiner (PIP) -> DatumTransformer (grid interpolation)``,
run as plain Ray tasks on warm workers (``_fused_shard``), one per work
unit: a run of consecutive sorted input shards (``work_units``), each
shard transformed by its own call. The catalog state
(``FusedReadTransform``) is cached per worker process, keyed by catalog
content. ``_fused_shard`` is the only task body that runs it; every
consumer passes its own per-shard work as ``post(shard, table)``, run on
each shard's table inside the task (``shard``: a ``ShardRead``, the
shard's path and the row count of its read):

* the checkpointed sink (state/lineage.py) writes the shard's partition
  and returns its lineage record;
* a row-level query filters and projects the shard's rows;
* an aggregate query returns the shard's partial, and the driver folds
  each unit's partials into one row per key as its task finishes
  (``shard_partials``, a call of ``exchange.fold``).

``flagship_fused`` returns a materialized Dataset: one block per unit,
its shards' rows in path order, held in the object store until the
Dataset is dropped (48.4 MB at sf0.1, 96.9 MB with ``carry_text`` and no
``post``). No streaming pipeline is built per job: one costs about 0.12
CPU s on 4 CPUs, as much as a small job's own work. Each shard task
returns its block's metadata with the block, and
``exchange.from_blocks`` builds the Dataset already executed, so no
metadata task runs per block and a consumer that iterates the Dataset
(``iter_batches``, ``to_pandas``, a fold) starts no executor either.
A run too large to hold goes through the checkpointed sink, which
writes each shard from its task. The ``html`` binary column is pruned
at the read (at 10^12-doc scale the pipeline lives or dies on that)
unless a stage needs it.
"""

from __future__ import annotations

import inspect
import os
from collections import OrderedDict
from functools import partial
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from vyperdatum_ray.catalog import Catalog
from vyperdatum_ray.fixtures import catalog_dir, pages_paths
from vyperdatum_ray.pipelines.exchange import fold, from_blocks, run
from vyperdatum_ray.stages.cellindex import cell_index_batch
from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
from vyperdatum_ray.stages.region_join import RegionJoiner
from vyperdatum_ray.stages.transform import DatumTransformer
from vyperdatum_ray.state.lineage import as_completed, cluster_cpus

PAGE_COLUMNS = ["url", "warc_ts", "text", "lang"]  # html pruned at the read


def _pool_size() -> int:
    """The size a fixed actor pool would take on this cluster: ~90% of
    the CPUs (headroom for read/write tasks). No engine stage uses an
    actor pool any more (the flagship family runs plain tasks on warm
    workers, catalog state cached per worker process); the
    benchmark's do-nothing actor-stage probe still sizes its pool
    with it."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(2, int(cpus * 0.9))


# Per-worker-process catalog state: (state class, catalog content key,
# params) -> built instance, least recently used first. Bounded so a
# long session that sees many catalogs or parameter sets cannot grow it
# without limit; an evicted entry is simply rebuilt from its ref.
_STATE_CACHE_MAX = 8
_state_cache: OrderedDict = OrderedDict()

# Driver side: one ``ray.put`` per (Ray session, catalog content key),
# so repeated jobs over one catalog reuse its object instead of
# re-putting (and re-pinning) it on every call.
_CATALOG_REFS_MAX = 4
_catalog_refs: OrderedDict = OrderedDict()


def _lru(cache: OrderedDict, key, build, cap: int):
    """``cache[key]``, built by ``build()`` on a miss; entries past
    ``cap`` are dropped least recently used first."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    while len(cache) > cap:
        cache.popitem(last=False)
    return value


def _shard_kwargs(catalog: Catalog, **params) -> dict:
    """The keyword arguments of a cached-state map function
    (``join_transform_batch``, the raster path's ``DatumTransformer``
    maps) and the arguments of the shard task (``_fused_shard``): the
    broadcast catalog, its content key and the state's constructor parameters.
    The catalog is put once per Ray session and content key. The key is
    the catalog's content, never its version alone: same-version
    catalogs with different grids exist (``register_external_region``
    only suffixes the version, tests swap grids under one version).
    The key is memoized on the catalog, so only a catalog's first job
    hashes its grids."""
    key = catalog.content_key()
    session = None  # before ray.init: the put below auto-initializes
    if ray.is_initialized():
        ctx = ray.get_runtime_context()
        session = (ctx.get_job_id(), ctx.get_node_id())
    if any(s != session for s, _ in _catalog_refs):
        _catalog_refs.clear()  # refs of an ended session are dead
    ref = _lru(_catalog_refs, (session, key), lambda: ray.put(catalog),
               _CATALOG_REFS_MAX)
    return {"catalog_ref": ref, "catalog_key": key, "params": params}


def _cached_state(cls, catalog_ref, catalog_key: str, params: dict):
    """This worker process's ``cls(catalog_ref, **params)``, built (one
    ``ray.get`` of the catalog, one region-membership index, one grid
    stack) on the first task that needs it and reused by every later
    task with the same catalog content and parameters. The driver's
    points API (``points.transform_points``) keeps its state here too,
    with the catalog itself as ``catalog_ref``."""
    return _lru(_state_cache, (cls, catalog_key, tuple(sorted(params.items()))),
                lambda: cls(catalog_ref, **params), _STATE_CACHE_MAX)


class JoinTransform:
    """RegionJoiner + DatumTransformer composed in one state object —
    one region-membership index + one grid stack per worker process, one
    call instead of two stages with an extra object-store hop between
    them."""

    def __init__(self, catalog_ref, from_datum, to_datum, in_is_height, out_is_height,
                 z_col=None, out_frame=None, emit_xy=False):
        # Each task is scheduled at num_cpus=1; pyarrow's internal pool
        # defaults to ALL cores, so N workers x N cores of kernel threads
        # thrash the box. One compute thread per worker — but ONLY inside
        # Ray workers: constructing this class on the driver (the
        # sampled accelerator does, for its tiny center set) must not
        # throttle the driver's Arrow pool for the rest of the session.
        # (With no Ray session, ``get_runtime_context`` would start one.)
        in_worker = (ray.is_initialized()
                     and ray.get_runtime_context().worker.mode == ray.WORKER_MODE)
        if in_worker:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
        self.join = RegionJoiner(catalog_ref=catalog_ref)
        self.transform = DatumTransformer(
            catalog_ref=catalog_ref, from_datum=from_datum, to_datum=to_datum,
            in_is_height=in_is_height, out_is_height=out_is_height,
            z_col=z_col, out_frame=out_frame, emit_xy=emit_xy,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.transform(self.join(batch))


def load_catalog(sf_dir: str) -> Catalog:
    return Catalog.from_dir(catalog_dir(sf_dir))


def synth_z_batch(batch: pa.Table) -> pa.Table:
    """Deterministic synthetic input depth from the parsed coordinates
    — the z source the itrf variant and its DuckDB oracle both compute
    (round((lat - 35) * 2 + (lon + 75), 3))."""
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    z = np.round((lat - 35.0) * 2.0 + (lon + 75.0), 3)
    return batch.append_column("z_in", pa.array(z, pa.float64()))


class FusedReadTransform:
    """The WHOLE flagship per input shard in ONE task: parquet read ->
    geocode -> cell index -> PIP join -> datum transform, emitting only
    the transformed stream. NOTHING crosses the object store between
    stages — not even the (url, lat, lon) slim stream that a read-task
    -> transform-stage shape ships between its stages. One instance per
    worker process and catalog content holds the prepared catalog
    state (``_cached_state``); ``_fused_shard`` calls its ``read`` and
    then its ``transform`` once per shard, also when its unit holds
    several. A shard is one file, read with ``pq.ParquetFile(path).read``:
    the table ``pq.read_table(path)`` gives, without its dataset discovery
    (and, like it, without hive-inferred columns).

    Measured on this box (BASELINE.md round 4): vs the read-task ->
    actor-pool shape, 16.4M -> 26.8M rows/s at 32 CPUs, 6.7M -> 13.4M
    at 8, 2.6-3.9M -> 5.3M at 4 (repeat=256 saturation runs) — the
    ~16M rows/s '32-CPU wall' was the task->actor store boundary, not
    parse compute. This is the only flagship shape: the production
    sink (state/lineage.py), the scaling bench and every query run it.

    ``carry_text=True`` reads the page columns (``PAGE_COLUMNS``) and
    keeps every column geocode appends, for the text-carrying
    ``flagship`` query whose OUTPUT is the text (M12 passthrough);
    otherwise only (url, lat, lon) leave the geocode step.

    ``inner`` replicates each shard's transformed rows in-place (the
    scaling bench's honest-extra-work knob; 1 in production)."""

    def __init__(self, catalog_ref, from_datum="ellipse", to_datum="mllw",
                 in_is_height=True, out_is_height=False,
                 inner=1,
                 z_col=None, out_frame=None, emit_xy=False, synth_z=False,
                 project_fwd=None, project_inv=None, project_code=None,
                 with_cells=True, carry_text=False):
        self.jt = JoinTransform(
            catalog_ref=catalog_ref, from_datum=from_datum, to_datum=to_datum,
            in_is_height=in_is_height, out_is_height=out_is_height,
            z_col=z_col, out_frame=out_frame, emit_xy=emit_xy,
        )
        self.inner = inner
        self.synth_z = synth_z
        # projected-input roundtrip hook (M1): fwd defines the projected
        # input from the geocoded coords (as the reference's UTM goldens
        # do), inv recovers geographic — both run inside the fused call
        self.project_fwd = project_fwd
        self.project_inv = project_inv
        self.project_code = project_code
        self.with_cells = with_cells
        self.carry_text = carry_text

    def _project(self, base: pa.Table) -> pa.Table:
        lon = base.column("lon").to_numpy(zero_copy_only=False)
        lat = base.column("lat").to_numpy(zero_copy_only=False)
        easting, northing = self.project_fwd(lon, lat, self.project_code)
        rlon, rlat = self.project_inv(easting, northing, self.project_code)
        # EMITTED projected coords are quantized to cm (the kernels'
        # 0.1 mm values still feed the inverse): the SQL mirror
        # recomputes the forward with DuckDB's libm, whose sin/cos/
        # exp/ln can differ from numpy's by ~1 ULP — at 0.1 mm that
        # tie flipped 2 of 294k sf0.1 points; at cm the flip needs a
        # 1-tick 4-decimal straddle exactly on a .005 boundary
        # (~1e-9/point)
        out = pa.table({
            "url": base.column("url"),
            "easting": pa.array(np.round(easting, 2), pa.float64()),
            "northing": pa.array(np.round(northing, 2), pa.float64()),
            "lon": pa.array(rlon, pa.float64()),
            "lat": pa.array(rlat, pa.float64()),
        })
        # carry any extra columns (e.g. a synthesized z) through the
        # roundtrip instead of silently dropping them
        for name in base.column_names:
            if name not in ("url", "lat", "lon"):
                out = out.append_column(name, base.column(name))
        return out

    def read(self, path: str) -> pa.Table:
        """The shard's columns this transform needs, as read."""
        import pyarrow.parquet as pq

        cols = PAGE_COLUMNS if self.carry_text else ["url", "text"]
        return pq.ParquetFile(path).read(columns=cols)

    def transform(self, table: pa.Table) -> pa.Table:
        """One shard's ``read`` through geocode and the rest of the
        flagship."""
        base = geocode_batch(table)
        if not self.carry_text:
            # drop text before the filter, which would copy it for every kept row
            base = keep_geocoded(base.select(["url", "lat", "lon", "geocode_src"]))
            base = base.select(["url", "lat", "lon"])
        else:
            base = keep_geocoded(base)
        if self.synth_z:
            base = synth_z_batch(base)
        if self.project_fwd is not None:
            base = self._project(base)
        # replication happens BEFORE the transform so every emitted row
        # carries full cell-index + PIP + transform work (the read/geocode
        # amortization matches the old scaling shape; replicating the
        # TRANSFORMED table would make the inner copies zero-cost
        # metadata and fake the throughput)
        return pa.concat_tables([
            self.jt(cell_index_batch(base) if self.with_cells else base)
            for _ in range(self.inner)])


class ShardRead(NamedTuple):
    """The shard a shard task's ``post`` runs on: its input ``path`` and
    the number of rows its read returned, so no ``post`` re-opens the
    file for it (the sink's lineage record takes ``n_rows_in``)."""

    path: str
    n_rows_in: int


@ray.remote(num_cpus=1, num_returns=2)
def _fused_shard(paths: list[str], catalog: list, catalog_key: str, params: dict,
                 post=None):
    """A work unit's shards (``work_units``) through this worker's
    cached ``FusedReadTransform``, one read and transform per shard,
    each followed by ``post(ShardRead(path, rows read), table)``
    (``None``: the table itself): the substrate's task body
    (``exchange.run``) over the unit's paths. Tables come back
    concatenated in path order, one block per unit, with the block's
    metadata, so ``flagship_fused`` needs no metadata task; a zero-row
    shard's table must carry the columns and types of a full one's.
    Anything else ``post`` returns (the sink's lineage records) comes
    back as a list in path order, with ``None`` for the metadata. ``catalog`` wraps the catalog's ref so the task
    gets the ref, and ``_cached_state`` fetches it once per worker
    process.

    A unit's inputs are never concatenated before the transform: in one
    process, per-shard calls took 0.138-0.142 CPU s per ``geo_text`` job
    against 0.141-0.147 for 2-shard tables and 0.147-0.185 for one
    6-shard table, and on ``geo_dense`` no table size won (CLAUDE.md).

    Retry policy: Ray's task default. A task whose worker process dies
    is re-run up to 3 times (``max_retries=3``), and a retry re-runs
    the whole unit; an exception raised by a shard's own code fails the
    whole unit and is not retried. The output is deterministic, so a
    re-run unit returns the same result."""
    fused = _cached_state(FusedReadTransform, catalog[0], catalog_key, params)

    def shard(path: str):
        read = fused.read(path)
        out = fused.transform(read)
        return out if post is None else post(ShardRead(path, read.num_rows), out)

    return run(paths, shard)


def join_transform_batch(batch: pa.Table, catalog_ref, catalog_key: str,
                         params: dict) -> pa.Table:
    """PIP + datum transform of a geographic batch through this
    worker's cached ``JoinTransform`` (pre-projected inputs that skip
    the fused read)."""
    return _cached_state(JoinTransform, catalog_ref, catalog_key, params)(batch)


def flagship_fused(
    sf_dir: str,
    catalog: Catalog | None = None,
    paths: list[str] | None = None,
    post=None,
    inner: int = 1,
    from_datum: str = "ellipse",
    to_datum: str = "mllw",
    in_is_height: bool = True,
    out_is_height: bool = False,
    z_col: str | None = None,
    out_frame: str | None = None,
    emit_xy: bool = False,
    synth_z: bool = False,
    project_fwd=None,
    project_inv=None,
    project_code=None,
    with_cells: bool = True,
    carry_text: bool = False,
) -> ray.data.MaterializedDataset:
    """Flagship as one fused task per work unit of sorted shard paths —
    see FusedReadTransform and ``work_units`` — returned as a
    materialized Dataset of each shard's ``post(shard, table)``
    (``post=None``: the table).

    One block per unit, its shards' rows in path order: one
    ``_fused_shard`` task per unit, each returning its block and the
    block's metadata, wrapped by ``exchange.from_blocks``. The Dataset
    is already executed, so iterating it, counting it or collecting it
    runs no Ray Data executor.
    The output stays in the object store until the Dataset is dropped:
    48.4 MB at sf0.1, 96.9 MB with ``carry_text`` and no ``post``. Every
    registry query collects it anyway, and the count-only consumers drop
    it at once. A corpus too large to hold runs through the checkpointed sink
    (``lineage.run_flagship_checkpointed``), or in windows of paths."""
    params = {k: v for k, v in locals().items()
              if k not in ("sf_dir", "catalog", "paths", "post")}
    return from_blocks(submit() for submit in _unit_tasks(sf_dir, catalog, paths, post,
                                                           **params))


def work_units(paths: list[str], cpus: int | None = None) -> list[list[str]]:
    """``paths`` cut into runs of consecutive paths, in their order
    (repeats kept), one shard task each.

    A run holds at most ``ceil(len(paths) / CPUs)`` paths (CPUs:
    ``cpus``, or the cluster's when None): that is how many waves
    one-path tasks need anyway, so the wall time holds while
    the number of tasks falls. A run also closes before a path that
    would take its input bytes (``os.stat``, no footer read) past Ray
    Data's ``DataContext.target_max_block_size``, so a file larger than
    that runs alone. For files of one size ``b`` that is
    ``max(1, min(ceil(n / CPUs), target_max_block_size // b))`` paths
    a run. On 4 CPUs sf0.1's 24 files run as 4 units of 6 and 4 files
    as 4 units of 1.

    Each task costs CPU in Ray whatever its size, against about 7 ms of
    the transform's own work per ``geo_dense`` file: about 10 ms a block
    when each block also took a metadata task of its own, which the
    shard task now saves by returning its block's metadata itself."""
    if not paths:
        return []
    per = -(-len(paths) // (cpus or cluster_cpus()))
    cap = ray.data.DataContext.get_current().target_max_block_size or float("inf")
    units, size = [], 0
    for p in paths:
        nbytes = os.stat(p).st_size
        if units and len(units[-1]) < per and size + nbytes <= cap:
            units[-1].append(p)
            size += nbytes
        else:
            units.append([p])
            size = nbytes
    return units


def shard_tasks(sf_dir: str, catalog: Catalog | None = None,
                paths: list[str] | None = None, post=None, cpus: int | None = None,
                **params) -> list:
    """``_unit_tasks``' submitters, each returning only the ref to its
    unit's ``post(shard, table)`` results (the metadata ref dropped), as
    ``lineage.as_completed`` takes them."""
    return [partial(_results, submit)
            for submit in _unit_tasks(sf_dir, catalog, paths, post, cpus, **params)]


def _results(submit):
    return submit()[0]


def _unit_tasks(sf_dir: str, catalog: Catalog | None = None,
                paths: list[str] | None = None, post=None, cpus: int | None = None,
                **params) -> list:
    """One zero-argument submitter per work unit (``work_units``, sized
    by ``cpus``) of the sorted paths: each submits the unit's
    ``_fused_shard`` task and returns its two refs, the shards'
    ``post(shard, table)`` results and their block metadata (``None``
    unless they are a table). The tasks run on warm, reused
    workers that build the catalog state once
    per catalog content and parameter set (``params``:
    ``flagship_fused``'s, defaults in ``FUSED_DEFAULTS``). ``paths``
    defaults to every pages shard of ``sf_dir``; an empty list gives no
    submitter. ``post`` must be picklable: a module-level function (or
    a ``functools.partial`` of one) travels by name. The task and
    ``work_units`` are looked up at call time, so patched ones take."""
    kw = _shard_kwargs(catalog or load_catalog(sf_dir), **{**FUSED_DEFAULTS, **params})
    paths = sorted(pages_paths(sf_dir) if paths is None else paths)
    return [partial(_fused_shard.remote, unit, [kw["catalog_ref"]], kw["catalog_key"],
                    kw["params"], post)
            for unit in work_units(paths, cpus)]


def shard_partials(sf_dir: str, post, keys: list[str], dtypes: dict,
                   **params) -> pd.DataFrame:
    """An aggregate query's per-shard partials, summed per key on the
    driver by ``exchange.fold``. ``post(shard, table)`` returns, inside
    the shard's task, a table of ``dtypes``' columns (column -> numpy
    dtype) with one row per key in ``keys``; every other column is
    summed.

    The fold takes each unit's partials as its task finishes
    (``lineage.as_completed``, at most twice the cluster's CPUs in
    flight), so the driver holds one row per key plus the partials of
    the tasks in flight, whatever the number of shards. The summed
    columns are counts or 3-decimal quantities that the queries round to
    3 decimals, so the finishing order does not change the result. One
    row per key, ascending; with no covered row, zero rows of
    ``dtypes``."""
    empty = pa.Table.from_pandas(pd.DataFrame({c: pd.Series(dtype=t)
                                               for c, t in dtypes.items()}))
    cpus = cluster_cpus()
    parts = as_completed(shard_tasks(sf_dir, post=post, cpus=cpus, **params), cpus)
    return fold(parts, keys, {c: "sum" for c in dtypes if c not in keys}, empty)


# ``flagship_fused``'s FusedReadTransform parameters at their defaults.
# ``shard_tasks`` fills every unset one from these, so the sink and
# every default-parameter query share one per-worker ``_cached_state``
# entry with a default ``flagship_fused`` call.
FUSED_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(flagship_fused).parameters.items()
    if name not in ("sf_dir", "catalog", "paths", "post")
}


def flagship_pipeline(sf_dir: str,
                      catalog: Catalog | None = None) -> ray.data.MaterializedDataset:
    """Full geocode + PIP join + datum transform carrying the page
    text; returns ``flagship_fused``'s materialized Dataset."""
    return flagship_fused(sf_dir, catalog=catalog, carry_text=True)
