"""Raster transform path (SURVEY.md §2 M7/M8, J1/J3, A2/A4, O5, S1/S3).

Semantics re-expressed from ``reference/vyperdatum/raster.py``:

* region candidates = regions whose polygon intersects the raster
  extent, catalog order preserved (``core.py:86-158`` via
  ``raster.py:60-98`` initialize),
* per-candidate regional separation = the composed pipeline's grid
  shifts sampled at every cell center and summed with their step signs
  (``raster.py:237-286`` — our bilinear interpolator replaces
  ``gdal.Warp``); a cell is valid for a region iff every step grid
  covers it,
* regional seps are stacked in ascending global valid-count order so
  the region with the most valid cells wins overlaps
  (``raster.py:229-233``); ``region_index`` = position in the
  candidate list (NOT the stack order),
* ``apply_sep``: flip = +1 when in/out share the height convention
  else -1; height input -> ``flip * (elev + sep)``, depth input ->
  ``flip * (elev - sep)``; output uncertainty = source band + regional
  sigma; CATZOC-D fallback for covered-elevation/no-sep cells
  (``raster.py:288-406``),
* final z / uncertainty rounded to 3 decimals (``raster.py:466``),
* output = per-tile parquet with a row-count manifest (O5).

Distribution shape: pass 1 is a cheap streaming aggregate (per-batch
partial valid counts -> tiny groupby) that fixes the global stack
order; pass 2 is an actor-pool ``map_batches`` holding the grids and
the stack order. Both passes stream; nothing materializes the raster.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Sum

from vyperdatum_ray.catalog import Catalog, INPUT_FRAME
from vyperdatum_ray.core.pipeline_algebra import get_regional_pipeline, parse_pipeline
from vyperdatum_ray.core.uncertainty import compose_uncertainty
from vyperdatum_ray.fixtures import catalog_dir, ensure_fixtures
from vyperdatum_ray.pipelines import exchange


def raster_meta(sf_dir: str) -> dict:
    fx = catalog_dir(sf_dir)
    with open(os.path.join(fx, "raster_meta.json")) as f:
        return json.load(f)


def raster_cells(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    fx = catalog_dir(sf_dir)
    return exchange.read(os.path.join(fx, "raster_cells.parquet"), columns)


def _candidates(catalog: Catalog, meta: dict) -> list[int]:
    """Catalog indices of regions intersecting the raster extent (J1)."""
    x0, y0 = meta["origin_x"], meta["origin_y"]
    x1 = x0 + meta["ncols"] * meta["dx"]
    y1 = y0 + meta["nrows"] * meta["dy"]
    names = catalog.regions_for_bounds(x0, y0, x1, y1)
    return [i for i, r in enumerate(catalog.regions) if r.name in names]


class _RegionalSep:
    """Shared per-batch kernel: per-candidate-region separation +
    validity at cell centers. Prepared once per actor."""

    def __init__(self, catalog: Catalog, meta: dict,
                 from_datum: str = "ellipse", to_datum: str = "mllw"):
        self.meta = meta
        self.cands = _candidates(catalog, meta)
        self.steps = []  # per candidate: list[(grid, sign)] | None
        self.unc = []
        self.frames = []
        self.names = []
        for i in self.cands:
            r = catalog.regions[i]
            pipeline = get_regional_pipeline(from_datum, to_datum, r.name, r.geoid_name)
            if pipeline is None:  # same-datum null transform -> zero sep
                self.steps.append([])
            else:
                from vyperdatum_ray.core.pipeline_algebra import resolve_grid_key

                parsed = parse_pipeline(pipeline)
                resolved = [(resolve_grid_key(s.grid_key, catalog.grids), s.sign)
                            for s in parsed]
                if any(k is None for k, _ in resolved):
                    self.steps.append(None)  # invalid pipeline: region skipped
                else:
                    self.steps.append([(catalog.grids[k], sign) for k, sign in resolved])
            self.unc.append(
                compose_uncertainty(from_datum, to_datum,
                                    catalog.sigmas.get(r.name, {}),
                                    catalog.geoid_sigmas.get(r.geoid_name, 0.0))
            )
            self.frames.append(r.geoid_frame)
            self.names.append(r.name)

    def cell_lonlat(self, row: np.ndarray, col: np.ndarray):
        m = self.meta
        lon = m["origin_x"] + (col.astype(np.float64) + 0.5) * m["dx"]
        lat = m["origin_y"] + (row.astype(np.float64) + 0.5) * m["dy"]
        return lon, lat

    def seps(self, lon: np.ndarray, lat: np.ndarray):
        """Yield (cand_pos, sep, valid) per candidate region with a
        usable pipeline."""
        for pos, steps in enumerate(self.steps):
            if steps is None:
                continue
            frame = self.frames[pos]
            if frame != INPUT_FRAME:
                # real 3-D Helmert hop of the cell centers (z = 0): the
                # separation starts at the frame dz, as in the points path
                from vyperdatum_ray.core.helmert import frame_hop

                slon, slat, sep0 = frame_hop(lon, lat, np.zeros(len(lon)), frame)
                sep = sep0
            else:
                slon, slat = lon, lat
                sep = np.zeros(len(lon), dtype=np.float64)
            for grid, sign in steps:
                sep = sep + sign * grid.interpolate(slon, slat)
            # outside one grid -> +/-inf; outside two with opposite step
            # signs -> inf - inf = NaN. Both mean "no coverage".
            valid = np.isfinite(sep)
            yield pos, sep, valid


def _load_state(sf_dir: str, from_datum: str, to_datum: str) -> _RegionalSep:
    return _RegionalSep(
        Catalog.from_dir(catalog_dir(sf_dir)), raster_meta(sf_dir), from_datum, to_datum
    )


def q_raster_valid_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-region valid-cell counts (A2): per-batch partials -> tiny
    groupby-sum. This is pass 1 of the raster transform."""
    state_ref = ray.put(_load_state(sf_dir, "ellipse", "mllw"))

    class Partial:
        def __init__(self, state_ref):
            self.state = ray.get(state_ref) if isinstance(state_ref, ray.ObjectRef) else state_ref

        def __call__(self, batch: pa.Table) -> pa.Table:
            lon, lat = self.state.cell_lonlat(
                batch.column("row").to_numpy(), batch.column("col").to_numpy()
            )
            regions, counts = [], []
            for pos, _sep, valid in self.state.seps(lon, lat):
                regions.append(self.state.names[pos])
                counts.append(int(valid.sum()))
            return pa.table({"region": pa.array(regions, pa.string()),
                             "partial_n": pa.array(counts, pa.int64())})

    ds = raster_cells(sf_dir, ["row", "col"]).map_batches(
        lambda t: Partial(state_ref=state_ref)(t), batch_format="pyarrow",
    )
    return ds.groupby("region").aggregate(Sum("partial_n", alias_name="n_valid"))


def _stack_order(sf_dir: str, from_datum: str, to_datum: str) -> list[int]:
    """Ascending-valid-count candidate positions (J3). Stable ties keep
    catalog order, so on equal counts the later catalog region wins."""
    counts_df = q_raster_valid_counts(sf_dir).to_pandas()
    state = _load_state(sf_dir, from_datum, to_datum)
    by_name = dict(zip(counts_df["region"], counts_df["n_valid"]))
    positions = [p for p, s in enumerate(state.steps) if s is not None]
    counts = np.array([by_name.get(state.names[p], 0) for p in positions], dtype=np.int64)
    return [positions[i] for i in np.argsort(counts, kind="stable")]


class RasterSepApply:
    """Pass 2: stacked separation + apply_sep per cell batch."""

    def __init__(self, state_ref, stack_order, allow_outside: bool = False,
                 in_is_height: bool = True, out_is_height: bool = False):
        self.state = ray.get(state_ref) if isinstance(state_ref, ray.ObjectRef) else state_ref
        self.stack_order = stack_order
        self.allow_outside = allow_outside
        self.in_is_height = in_is_height
        self.flip = 1.0 if in_is_height == out_is_height else -1.0

    def stacked(self, lon: np.ndarray, lat: np.ndarray):
        n = len(lon)
        sep = np.full(n, np.nan)
        unc = np.full(n, np.nan)
        ridx = np.full(n, -1, dtype=np.int32)
        per = {pos: (s, v) for pos, s, v in self.state.seps(lon, lat)}
        for pos in self.stack_order:
            s, v = per[pos]
            sep[v] = s[v]
            unc[v] = self.state.unc[pos]
            ridx[v] = pos  # candidate-list position (raster.py:233)
        return sep, unc, ridx

    def __call__(self, batch: pa.Table) -> pa.Table:
        row = batch.column("row").to_numpy()
        col = batch.column("col").to_numpy()
        elev = batch.column("elevation").to_numpy(zero_copy_only=False)
        src_unc = batch.column("uncertainty").to_numpy(zero_copy_only=False)
        contrib = batch.column("contributor").to_numpy(zero_copy_only=False)
        lon, lat = self.state.cell_lonlat(row, col)
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

        tile = self.state.meta["tile"]
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
    ensure_fixtures(sf_dir)
    meta = raster_meta(sf_dir)
    order = _stack_order(sf_dir, from_datum, to_datum)
    state_ref = ray.put(_load_state(sf_dir, from_datum, to_datum))
    # stateless tasks: the per-"actor" state is one ray.get of the
    # broadcast grid state (plasma-cached per worker) plus scalars —
    # cheaper rebuilt per task than paying an actor pool's startup
    kwargs = {
        "state_ref": state_ref,
        "stack_order": order,
        "allow_outside": allow_outside,
        "in_is_height": bool(meta["in_is_height"]),
        "out_is_height": bool(meta["out_is_height"]),
    }
    return raster_cells(sf_dir).map_batches(
        lambda t: RasterSepApply(**kwargs)(t),
        batch_format="pyarrow", batch_size=65536,
    )


def q_raster_sep(sf_dir: str) -> ray.data.Dataset:
    """Stacked separation surface: covered cells only (row, col, sep,
    sep_unc, region_index)."""
    order = _stack_order(sf_dir, "ellipse", "mllw")
    state_ref = ray.put(_load_state(sf_dir, "ellipse", "mllw"))

    class SepOnly(RasterSepApply):
        def __call__(self, batch: pa.Table) -> pa.Table:
            row = batch.column("row").to_numpy()
            col = batch.column("col").to_numpy()
            lon, lat = self.state.cell_lonlat(row, col)
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

    return raster_cells(sf_dir, ["row", "col"]).map_batches(
        lambda t: SepOnly(state_ref=state_ref, stack_order=order)(t),
        batch_format="pyarrow", batch_size=65536,
    )


def q_raster_transform(sf_dir: str) -> ray.data.Dataset:
    """Full apply_sep with the CATZOC-D outside-coverage fallback
    enabled; rows with elevation nodata are excluded (NaN z has no
    SQL-stable hash); columns match the oracle name-for-name."""
    import pyarrow.compute as pc

    ds = raster_transform(sf_dir, allow_outside=True)
    return ds.map_batches(
        lambda t: t.filter(pc.is_finite(t.column("z"))), batch_format="pyarrow"
    ).select_columns(["row", "col", "tile_id", "z", "unc", "contributor", "region_index"])


def q_raster_tile_manifest(sf_dir: str) -> ray.data.Dataset:
    """Per-tile output row counts (O5): partial counts inside the batch,
    tiny groupby-sum."""
    # tile assignment is pure row/col arithmetic — no reason to run the
    # two-pass transform just to count rows per tile
    ensure_fixtures(sf_dir)
    tile = raster_meta(sf_dir)["tile"]

    def assign(batch: pa.Table) -> pa.Table:
        row = batch.column("row").to_numpy().astype(np.int64)
        col = batch.column("col").to_numpy().astype(np.int64)
        return pa.table({"tile_id": pa.array((row // tile) * 4096 + col // tile,
                                             pa.int64())})

    ds = raster_cells(sf_dir, ["row", "col"]).map_batches(assign, batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        # every written cell counts, incl. elevation-nodata cells (the
        # tile file carries them as NaN, like GeoTIFF nodata)
        tid, cnt = np.unique(batch.column("tile_id").to_numpy(), return_counts=True)
        return pa.table({"tile_id": pa.array(tid, pa.int64()),
                         "partial_n": pa.array(cnt, pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow").groupby("tile_id").aggregate(
        Sum("partial_n", alias_name="n_rows")
    )


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

    catalog = Catalog.from_dir(catalog_dir(sf_dir))
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


def q_zonal_stats(sf_dir: str) -> ray.data.Dataset:
    """Zonal statistics: per-region n / min / max / sum of transformed
    depth over the raster (covered cells). Two-phase: vectorized
    per-batch partials, tiny groupby merge — min/max/sum are all
    associative so the merge is exact."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    ds = raster_transform(sf_dir, allow_outside=False)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.and_(pc.greater_equal(batch.column("region_index"), 0),
                    pc.is_finite(batch.column("z")))
        )
        df = t.select(["region_index", "z"]).to_pandas()
        g = df.groupby("region_index", as_index=False).agg(
            p_n=("z", "size"), p_min=("z", "min"), p_max=("z", "max"), p_sum=("z", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = ds.map_batches(partial, batch_format="pyarrow").groupby("region_index").aggregate(
        Sum("p_n", alias_name="n_cells"),
        Min("p_min", alias_name="min_z"),
        Max("p_max", alias_name="max_z"),
        Sum("p_sum", alias_name="r_sum"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "region_index": batch.column("region_index"),
                "n_cells": batch.column("n_cells"),
                "min_z": batch.column("min_z"),
                "max_z": batch.column("max_z"),
                "sum_z": pa.array(np.round(batch.column("r_sum").to_numpy(), 3)),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")
