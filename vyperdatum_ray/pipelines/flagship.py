"""The flagship end-to-end pipeline (SURVEY.md §3.4):

``read_parquet(pages, columns pruned) -> geocode -> filter -> cell index
-> RegionJoiner (PIP) -> DatumTransformer (grid interpolation)``,
run as ONE task per input shard on warm workers (``_fused_shard``),
with the catalog state (``FusedReadTransform``) cached per worker
process, keyed by catalog content. Every consumer (the checkpointed
sink, the SQL-checkable queries and the text-carrying ``flagship``
query via ``carry_text=True``) shares this one shape.

Everything streams: no full materialization; the ``html`` binary column
is pruned at the read (at 10^12-doc scale the pipeline lives or dies on
that) unless a stage needs it.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict

import numpy as np
import pyarrow as pa

import ray
import ray.data

from vyperdatum_ray.catalog import Catalog
from vyperdatum_ray.fixtures import catalog_dir, pages_paths
from vyperdatum_ray.stages.cellindex import cell_index_batch
from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
from vyperdatum_ray.stages.region_join import RegionJoiner
from vyperdatum_ray.stages.transform import DatumTransformer

PAGE_COLUMNS = ["url", "warc_ts", "text", "lang"]  # html pruned at the read


def _pool_size() -> int:
    """The size a fixed actor pool would take on this cluster: ~90% of
    the CPUs (headroom for read/write tasks). No engine stage uses an
    actor pool any more (the flagship family runs one task per shard
    on warm workers, catalog state cached per worker process); the
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
    """``fn_kwargs`` for a cached-state task function (``_fused_shard``,
    ``join_transform_batch``) and the arguments of the sink's remote
    ``lineage._sink_shard``: the broadcast catalog, its content key and
    the state's constructor parameters. The catalog is put once per
    Ray session and content key. The key is the catalog's content,
    never its version alone: same-version catalogs with different grids
    exist (``register_external_region`` only suffixes the version, tests
    swap grids under one version)."""
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
    task with the same catalog content and parameters."""
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
        try:
            in_worker = ray.get_runtime_context().worker.mode == ray.WORKER_MODE
        except Exception:
            in_worker = False
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
    """The WHOLE flagship per input shard in ONE call: parquet read ->
    geocode -> cell index -> PIP join -> datum transform, emitting only
    the transformed stream. NOTHING crosses the object store between
    stages — not even the (url, lat, lon) slim stream that a read-task
    -> transform-stage shape ships between its stages. One instance per
    worker process and catalog content holds the prepared catalog
    state (``_cached_state``); ``_fused_shard`` calls it once per shard.

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
                 include_paths=False, inner=1,
                 z_col=None, out_frame=None, emit_xy=False, synth_z=False,
                 project_fwd=None, project_inv=None, project_code=None,
                 with_cells=True, carry_text=False):
        self.jt = JoinTransform(
            catalog_ref=catalog_ref, from_datum=from_datum, to_datum=to_datum,
            in_is_height=in_is_height, out_is_height=out_is_height,
            z_col=z_col, out_frame=out_frame, emit_xy=emit_xy,
        )
        self.include_paths = include_paths
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

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        outs = []
        for p in batch.column("path").to_pylist():
            cols = PAGE_COLUMNS if self.carry_text else ["url", "text"]
            base = keep_geocoded(geocode_batch(pq.read_table(p, columns=cols)))
            if not self.carry_text:
                base = base.select(["url", "lat", "lon"])
            if self.synth_z:
                base = synth_z_batch(base)
            if self.project_fwd is not None:
                base = self._project(base)
            # replication happens BEFORE the transform so every emitted
            # row carries full cell-index + PIP + transform work (the
            # read/geocode amortization matches the old scaling shape;
            # replicating the TRANSFORMED table would make the inner
            # copies zero-cost metadata and fake the throughput)
            for _ in range(self.inner):
                g = self.jt(cell_index_batch(base) if self.with_cells else base)
                if self.include_paths:
                    g = g.append_column(
                        "path", pa.array([p] * g.num_rows, pa.string()))
                outs.append(g)
        return pa.concat_tables(outs)


def _fused_shard(batch: pa.Table, catalog_ref, catalog_key: str, params: dict) -> pa.Table:
    """One shard through this worker's cached ``FusedReadTransform``."""
    return _cached_state(FusedReadTransform, catalog_ref, catalog_key, params)(batch)


def join_transform_batch(batch: pa.Table, catalog_ref, catalog_key: str,
                         params: dict) -> pa.Table:
    """PIP + datum transform of a geographic batch through this
    worker's cached ``JoinTransform`` (pre-projected inputs that skip
    the fused read)."""
    return _cached_state(JoinTransform, catalog_ref, catalog_key, params)(batch)


def _per_shard(fn, paths: list[str], fn_kwargs: dict) -> ray.data.Dataset:
    """``fn`` as one one-CPU task per shard path: each task gets a
    one-row ``path`` batch plus ``fn_kwargs``. Only the Dataset-returning
    flagship family (``flagship_fused``, ``flagship_pipeline``) uses it;
    the checkpointed sink, whose result is files plus one record per
    shard, runs plain ``ray.remote`` tasks instead
    (``lineage._sink_shard``): a Dataset built per job costs about
    0.12 CPU s on 4 CPUs, as much as a small sink job's own work."""
    items = [{"path": p} for p in paths]
    pds = ray.data.from_items(items, override_num_blocks=len(items))
    return pds.map_batches(fn, fn_kwargs=fn_kwargs, batch_format="pyarrow",
                           batch_size=1, num_cpus=1)


def flagship_fused(
    sf_dir: str,
    catalog: Catalog | None = None,
    paths: list[str] | None = None,
    include_paths: bool = False,
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
) -> ray.data.Dataset:
    """Flagship as one fused stateless task per shard path — see
    FusedReadTransform. Tasks run on warm, reused workers; each worker
    process builds the catalog state once per catalog content and
    parameter set and reuses it across tasks and jobs."""
    catalog = catalog or load_catalog(sf_dir)
    return _per_shard(
        _fused_shard, sorted(paths or pages_paths(sf_dir)),
        _shard_kwargs(
            catalog, from_datum=from_datum, to_datum=to_datum,
            in_is_height=in_is_height, out_is_height=out_is_height,
            include_paths=include_paths, inner=inner,
            z_col=z_col, out_frame=out_frame, emit_xy=emit_xy,
            synth_z=synth_z, project_fwd=project_fwd,
            project_inv=project_inv, project_code=project_code,
            with_cells=with_cells, carry_text=carry_text,
        ),
    )


# ``flagship_fused``'s FusedReadTransform parameters at their defaults.
# The production sink (state/lineage.py) builds its state with exactly
# these, so it shares one per-worker ``_cached_state`` entry with a
# default ``flagship_fused`` call instead of building a second one.
FUSED_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(flagship_fused).parameters.items()
    if name not in ("sf_dir", "catalog", "paths")
}


def flagship_pipeline(sf_dir: str, catalog: Catalog | None = None) -> ray.data.Dataset:
    """Full geocode + PIP join + datum transform stream carrying the
    page text; returns the lazy Dataset (caller writes or aggregates)."""
    return flagship_fused(sf_dir, catalog=catalog, carry_text=True)
