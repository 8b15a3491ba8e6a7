"""Raster transform path (SURVEY.md §2 M7/M8, J1/J3, A2/A4, O5, S1/S3).

Semantics re-expressed from ``reference/vyperdatum/raster.py``:

* region candidates = regions whose polygon intersects the raster
  extent, catalog order preserved (``core.py:86-158`` via
  ``raster.py:60-98`` initialize),
* per-candidate regional separation = the composed pipeline's grid
  shifts sampled at every cell center and summed with their step signs
  (``raster.py:237-286`` — our bilinear interpolator replaces
  ``gdal.Warp``), after the region's geoid-frame hop; a cell is valid
  for a region iff every step grid covers it. The points path's own
  kernel computes it (``DatumTransformer.separation`` at z = 0, one call
  per candidate over the whole batch), so the pipeline parse, grid-key
  resolution, hop and uncertainty live in ``stages/transform.py`` only,
* regional seps are stacked in ascending global valid-count order,
  counted under the job's datum pair, so the region with the most valid
  cells wins overlaps
  (``raster.py:229-233``); ``region_index`` = position in the
  candidate list (NOT the stack order),
* ``apply_sep``: flip = +1 when in/out share the height convention
  else -1; height input -> ``flip * (elev + sep)``, depth input ->
  ``flip * (elev - sep)``; output uncertainty = source band + regional
  sigma; CATZOC-D fallback for covered-elevation/no-sep cells
  (``raster.py:288-406``),
* final z / uncertainty rounded to 3 decimals (``raster.py:466``),
* output = per-tile parquet with a row-count manifest (O5).

Distribution shape: pass 1 is a cheap streaming aggregate (per-block
partial valid counts folded on the driver) that fixes the global stack
order; pass 2 is a plain map task per row group (``exchange.map``)
carrying the stack order. Both passes read the worker's cached ``DatumTransformer``
(``flagship._cached_state``, one per catalog content and datum pair,
from the catalog the driver puts once per Ray session); the driver
loads the catalog once per job. Both passes stream; nothing
materializes the raster.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from vyperdatum_ray.catalog import Catalog
from vyperdatum_ray.fixtures import catalog_dir, ensure_fixtures
from vyperdatum_ray.pipelines import exchange
from vyperdatum_ray.pipelines.flagship import _cached_state, _shard_kwargs, load_catalog
from vyperdatum_ray.stages.transform import DatumTransformer


def raster_meta(sf_dir: str) -> dict:
    fx = catalog_dir(sf_dir)
    with open(os.path.join(fx, "raster_meta.json")) as f:
        return json.load(f)


def raster_cells(sf_dir: str, columns: list[str] | None = None) -> exchange.Source:
    fx = catalog_dir(sf_dir)
    return exchange.read(os.path.join(fx, "raster_cells.parquet"), columns)


def _candidates(catalog: Catalog, meta: dict) -> list[int]:
    """Catalog indices of regions intersecting the raster extent (J1)."""
    x0, y0 = meta["origin_x"], meta["origin_y"]
    x1 = x0 + meta["ncols"] * meta["dx"]
    y1 = y0 + meta["nrows"] * meta["dy"]
    names = catalog.regions_for_bounds(x0, y0, x1, y1)
    return [i for i, r in enumerate(catalog.regions) if r.name in names]


def _cell_lonlat(meta: dict, row: np.ndarray, col: np.ndarray):
    lon = meta["origin_x"] + (col.astype(np.float64) + 0.5) * meta["dx"]
    lat = meta["origin_y"] + (row.astype(np.float64) + 0.5) * meta["dy"]
    return lon, lat


def _seps(dt: DatumTransformer, cands: list[int], lon: np.ndarray, lat: np.ndarray,
          order=None):
    """Yield (cand_pos, sep, valid) for each candidate position of
    ``order`` (default: every candidate, in list order) whose pipeline
    resolved: the region's separation at z = 0 through the transform's
    own kernel (geoid-frame hop, then the signed grid steps), one call
    over the whole batch per candidate. Outside a step grid the sum is
    +/-inf, or NaN for two opposite-sign steps: both are not valid."""
    zeros = np.zeros(len(lon))
    for pos in range(len(cands)) if order is None else order:
        i = cands[pos]
        if dt.region_steps[i] is None:  # unresolvable grid: region skipped
            continue
        sep = dt.separation(np.full(len(lon), i), lon, lat, zeros)[2]
        yield pos, sep, np.isfinite(sep)


def _job(sf_dir: str, catalog: Catalog, from_datum: str, to_datum: str):
    """A raster job's driver-side inputs: the raster metadata, the
    candidate regions and the arguments of the worker's cached
    ``DatumTransformer`` (``flagship._cached_state``). Each job loads
    its catalog once; the catalog is put once per Ray session."""
    meta = raster_meta(sf_dir)
    return (meta, _candidates(catalog, meta),
            _shard_kwargs(catalog, from_datum=from_datum, to_datum=to_datum))


def _valid_counts(sf_dir: str, catalog: Catalog, from_datum: str,
                  to_datum: str) -> pd.DataFrame:
    """Per candidate region, the raster cells where its
    ``from_datum -> to_datum`` separation is finite: (region, n_valid),
    per-block counts folded on the driver."""
    meta, cands, kw = _job(sf_dir, catalog, from_datum, to_datum)
    names = [catalog.regions[i].name for i in cands]

    def partial(batch: pa.Table) -> pa.Table:
        dt = _cached_state(DatumTransformer, **kw)
        lon, lat = _cell_lonlat(meta, batch.column("row").to_numpy(),
                                batch.column("col").to_numpy())
        regions, counts = [], []
        for pos, _sep, valid in _seps(dt, cands, lon, lat):
            regions.append(names[pos])
            counts.append(int(valid.sum()))
        return pa.table({"region": pa.array(regions, pa.string()),
                         "partial_n": pa.array(counts, pa.int64())})

    return exchange.fold(raster_cells(sf_dir, ["row", "col"]), ["region"],
                         {"partial_n": "sum"}, fn=partial).rename(
        columns={"partial_n": "n_valid"})


def q_raster_valid_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-region valid-cell counts (A2): per-block partials folded on
    the driver, under ellipse -> mllw. Pass 1 of a raster transform
    counts under the job's own datum pair."""
    return exchange.from_arrow(pa.Table.from_pandas(
        _valid_counts(sf_dir, load_catalog(sf_dir), "ellipse", "mllw"), preserve_index=False))


def _stack_order(sf_dir: str, from_datum: str, to_datum: str,
                 catalog: Catalog | None = None) -> list[int]:
    """Ascending-valid-count candidate positions (J3), counted under the
    job's own datum pair (``raster.py:229-233`` stacks by the job's
    separations). Stable ties keep catalog order, so on equal counts the
    later catalog region wins."""
    catalog = catalog or load_catalog(sf_dir)
    counts_df = _valid_counts(sf_dir, catalog, from_datum, to_datum)
    cands = _candidates(catalog, raster_meta(sf_dir))
    steps = DatumTransformer(catalog, from_datum, to_datum).region_steps
    by_name = dict(zip(counts_df["region"], counts_df["n_valid"]))
    positions = [p for p, i in enumerate(cands) if steps[i] is not None]
    counts = np.array([by_name.get(catalog.regions[cands[p]].name, 0) for p in positions],
                      dtype=np.int64)
    return [positions[i] for i in np.argsort(counts, kind="stable")]


class RasterSepApply:
    """Pass 2: stacked separation + apply_sep per cell batch."""

    def __init__(self, kw: dict, meta: dict, cands: list[int], stack_order: list[int],
                 allow_outside: bool = False, in_is_height: bool = True,
                 out_is_height: bool = False):
        self.dt = _cached_state(DatumTransformer, **kw)
        self.meta = meta
        self.cands = cands
        self.stack_order = stack_order
        self.allow_outside = allow_outside
        self.in_is_height = in_is_height
        self.flip = 1.0 if in_is_height == out_is_height else -1.0

    def stacked(self, lon: np.ndarray, lat: np.ndarray):
        n = len(lon)
        sep = np.full(n, np.nan)
        unc = np.full(n, np.nan)
        ridx = np.full(n, -1, dtype=np.int32)
        for pos, s, v in _seps(self.dt, self.cands, lon, lat, self.stack_order):
            sep[v] = s[v]
            unc[v] = self.dt.unc[self.cands[pos]]
            ridx[v] = pos  # candidate-list position (raster.py:233)
        return sep, unc, ridx

    def __call__(self, batch: pa.Table) -> pa.Table:
        row = batch.column("row").to_numpy()
        col = batch.column("col").to_numpy()
        elev = batch.column("elevation").to_numpy(zero_copy_only=False)
        src_unc = batch.column("uncertainty").to_numpy(zero_copy_only=False)
        contrib = batch.column("contributor").to_numpy(zero_copy_only=False)
        lon, lat = _cell_lonlat(self.meta, row, col)
        sep, runc, ridx = self.stacked(lon, lat)

        elev_nodata = np.isnan(elev)
        missing = np.isnan(sep) & ~elev_nodata

        if self.in_is_height:
            z = self.flip * (elev + sep)
        else:
            z = self.flip * (elev - sep)
        out_unc = src_unc + runc
        out_contrib = contrib.copy()

        if self.allow_outside:
            z[missing] = self.flip * elev[missing]
            zvals = elev[missing] if self.in_is_height else -elev[missing]
            u = 3.0 - 0.06 * zvals
            u[zvals > 0] = 3.0
            u = np.maximum(u, src_unc[missing])  # keep source unc if larger
            out_unc[missing] = u
        else:
            z[missing] = np.nan
            out_unc[missing] = np.nan
            out_contrib[missing] = np.nan  # raster.py:399-401
        z[elev_nodata] = np.nan
        out_unc[elev_nodata] = np.nan
        out_contrib[elev_nodata] = np.nan

        tile = self.meta["tile"]
        tile_id = (row.astype(np.int64) // tile) * 4096 + col.astype(np.int64) // tile
        return pa.table(
            {
                "row": batch.column("row"),
                "col": batch.column("col"),
                "tile_id": pa.array(tile_id, pa.int64()),
                "z": pa.array(np.round(z, 3), pa.float64()),
                "unc": pa.array(np.round(out_unc, 3), pa.float64()),
                "contributor": pa.array(out_contrib, pa.float64()),
                "region_index": pa.array(ridx, pa.int32()),
            }
        )


def raster_transform(sf_dir: str, allow_outside: bool = False,
                     from_datum: str = "ellipse", to_datum: str = "mllw") -> ray.data.Dataset:
    return exchange.map(raster_cells(sf_dir),
                        _sep_apply(sf_dir, allow_outside, from_datum, to_datum))


def _sep_apply(sf_dir: str, allow_outside: bool, from_datum: str, to_datum: str):
    """The raster transform's per-batch step (pass 2), its stack order
    counted on the driver (pass 1)."""
    ensure_fixtures(sf_dir)
    catalog = load_catalog(sf_dir)
    meta, cands, kw = _job(sf_dir, catalog, from_datum, to_datum)
    order = _stack_order(sf_dir, from_datum, to_datum, catalog)
    # stateless tasks over this worker's cached DatumTransformer: one
    # per catalog content and datum pair, as the flagship's
    args = dict(kw=kw, meta=meta, cands=cands, stack_order=order,
                allow_outside=allow_outside, in_is_height=bool(meta["in_is_height"]),
                out_is_height=bool(meta["out_is_height"]))
    return lambda t: RasterSepApply(**args)(t)


def q_raster_sep(sf_dir: str) -> ray.data.Dataset:
    """Stacked separation surface: covered cells only (row, col, sep,
    sep_unc, region_index)."""
    catalog = load_catalog(sf_dir)
    meta, cands, kw = _job(sf_dir, catalog, "ellipse", "mllw")
    order = _stack_order(sf_dir, "ellipse", "mllw", catalog)

    class SepOnly(RasterSepApply):
        def __call__(self, batch: pa.Table) -> pa.Table:
            row = batch.column("row").to_numpy()
            col = batch.column("col").to_numpy()
            lon, lat = _cell_lonlat(self.meta, row, col)
            sep, unc, ridx = self.stacked(lon, lat)
            t = pa.table(
                {
                    "row": batch.column("row"),
                    "col": batch.column("col"),
                    "sep": pa.array(sep, pa.float64()),
                    "sep_unc": pa.array(unc, pa.float64()),
                    "region_index": pa.array(ridx, pa.int32()),
                }
            )
            import pyarrow.compute as pc

            return t.filter(pc.greater_equal(t.column("region_index"), 0))

    return exchange.map(raster_cells(sf_dir, ["row", "col"]),
                        lambda t: SepOnly(kw, meta, cands, order)(t))


def q_raster_transform(sf_dir: str) -> ray.data.Dataset:
    """Full apply_sep with the CATZOC-D outside-coverage fallback
    enabled; rows with elevation nodata are excluded (NaN z has no
    SQL-stable hash); columns match the oracle name-for-name."""
    import pyarrow.compute as pc

    def finite(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_finite(t.column("z"))).select(
            ["row", "col", "tile_id", "z", "unc", "contributor", "region_index"])

    return exchange.map(raster_cells(sf_dir),
                        _sep_apply(sf_dir, True, "ellipse", "mllw"), finite)


def q_raster_tile_manifest(sf_dir: str) -> ray.data.Dataset:
    """Per-tile output row counts (O5): partial counts inside the block,
    folded per tile on the driver (the tiles are bounded by the raster's
    metadata)."""
    # tile assignment is pure row/col arithmetic — no reason to run the
    # two-pass transform just to count rows per tile
    ensure_fixtures(sf_dir)
    tile = raster_meta(sf_dir)["tile"]

    def partial(batch: pa.Table) -> pa.Table:
        # every written cell counts, incl. elevation-nodata cells (the
        # tile file carries them as NaN, like GeoTIFF nodata)
        row = batch.column("row").to_numpy().astype(np.int64)
        col = batch.column("col").to_numpy().astype(np.int64)
        tid, cnt = np.unique((row // tile) * 4096 + col // tile, return_counts=True)
        return pa.table({"tile_id": pa.array(tid, pa.int64()),
                         "n_rows": pa.array(cnt, pa.int64())})

    return exchange.from_arrow(pa.Table.from_pandas(
        exchange.fold(raster_cells(sf_dir, ["row", "col"]), ["tile_id"], {"n_rows": "sum"},
                      fn=partial), preserve_index=False))


def write_raster_tiles(sf_dir: str, out_dir: str, allow_outside: bool = True) -> dict:
    """S3 stand-in: per-tile parquet + row-count manifest. Partitioned by
    tile_id so a resumed run can skip finished tiles (idempotent
    overwrite per partition)."""
    ds = raster_transform(sf_dir, allow_outside=allow_outside)
    ds.write_parquet(out_dir, partition_cols=["tile_id"], mode="overwrite")
    manifest = q_raster_tile_manifest(sf_dir).to_pandas()
    path = os.path.join(out_dir, "_tile_manifest.json")
    with open(path, "w") as f:
        json.dump(
            {str(int(t)): int(n) for t, n in zip(manifest["tile_id"], manifest["n_rows"])},
            f, indent=0, sort_keys=True,
        )
    # self-describing output: compound CRS WKT (horizontal + vertical
    # with the per-region pipeline REMARK) alongside the tiles, the
    # reference's GeoTIFF-projection contract (raster.py:513-546)
    from vyperdatum_ray.core.wkt import (
        GEOGRAPHIC_WKT, build_compound_wkt, vertical_datum_to_wkt,
    )

    catalog = load_catalog(sf_dir)
    meta = raster_meta(sf_dir)
    x0, y0 = meta["origin_x"], meta["origin_y"]
    bbox = (x0, y0, x0 + meta["ncols"] * meta["dx"], y0 + meta["nrows"] * meta["dy"])
    crs_wkt = build_compound_wkt(
        GEOGRAPHIC_WKT, vertical_datum_to_wkt("mllw", bbox, catalog)
    )
    crs_path = os.path.join(out_dir, "_crs.wkt")
    with open(crs_path, "w") as f:
        f.write(crs_wkt)
    return {"out_dir": out_dir, "n_tiles": len(manifest), "manifest": path,
            "crs_wkt": crs_path}


def q_raster_coverage(sf_dir: str) -> pd.DataFrame:
    """A4 coverage test (reference raster.py:45-58 is_covered): is every
    raster cell covered by the stacked separation? One summary row."""
    total = raster_cells(sf_dir, ["row"]).count()
    covered = q_raster_sep(sf_dir).count()
    return pd.DataFrame(
        [{"n_cells": total, "n_covered": covered,
          "is_covered": 1 if covered == total else 0}]
    )


def _zonal_partial(batch: pa.Table) -> pa.Table:
    """``q_zonal_stats``' per-batch (region_index, p_n, p_min, p_max,
    p_sum) partials of covered, finite cells. Without the ``pandas``
    schema metadata: Ray fails to hash a schema carrying it and logs so
    for every block."""
    import pyarrow.compute as pc

    t = batch.filter(
        pc.and_(pc.greater_equal(batch.column("region_index"), 0),
                pc.is_finite(batch.column("z")))
    )
    df = t.select(["region_index", "z"]).to_pandas()
    g = df.groupby("region_index", as_index=False).agg(
        p_n=("z", "size"), p_min=("z", "min"), p_max=("z", "max"), p_sum=("z", "sum")
    )
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata()


def q_zonal_stats(sf_dir: str) -> ray.data.Dataset:
    """Zonal statistics: per-region n / min / max / sum of transformed
    depth over the raster (covered cells). Two-phase: vectorized
    per-block partials folded per region on the driver — min/max/sum
    are all associative so the merge is exact."""
    apply = _sep_apply(sf_dir, False, "ellipse", "mllw")
    g = exchange.fold(raster_cells(sf_dir), ["region_index"],
                      {"p_n": "sum", "p_min": "min", "p_max": "max", "p_sum": "sum"},
                      fn=lambda t: _zonal_partial(apply(t)))
    return exchange.from_arrow(pa.Table.from_pandas(pd.DataFrame({
        "region_index": g["region_index"],
        "n_cells": g["p_n"],
        "min_z": g["p_min"],
        "max_z": g["p_max"],
        "sum_z": np.round(g["p_sum"], 3),
    }), preserve_index=False))
