"""Raster-path semantics (reference raster.py:160-406): valid-count
stack order, CATZOC-D outside-coverage fallback, nodata handling and the
per-tile manifest — all over the deterministic sf0.001 fixture raster."""

import dataclasses
import json
import os
import warnings

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def fx_dir():
    from vyperdatum_ray.fixtures import ensure_fixtures

    return ensure_fixtures(SF)["catalog_dir"]


@pytest.fixture(scope="module")
def cells(fx_dir):
    return pq.read_table(os.path.join(fx_dir, "raster_cells.parquet")).to_pandas()


@pytest.fixture(scope="module")
def transformed(ray_session, fx_dir):
    from vyperdatum_ray.pipelines.raster import raster_transform

    return raster_transform(SF, allow_outside=True).to_pandas()


def test_candidates_exclude_north_region(fx_dir):
    """Region C lies fully north of the raster extent (J1 bbox join)."""
    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.pipelines.raster import _candidates, raster_meta

    cat = Catalog.from_dir(fx_dir)
    cands = _candidates(cat, raster_meta(SF))
    names = [cat.regions[i].name for i in cands]
    assert names == ["SYNcoastA_8301", "SYNcoastB_8301", "SYNdeepD_8301"]


def test_valid_counts_drive_stack_order(ray_session, fx_dir):
    from vyperdatum_ray.pipelines.raster import _stack_order, q_raster_valid_counts

    counts = q_raster_valid_counts(SF).to_pandas().set_index("region")["n_valid"]
    order = _stack_order(SF, "ellipse", "mllw")
    # ascending valid-count (J3: most-valid region applied last, wins)
    names = ["SYNcoastA_8301", "SYNcoastB_8301", "SYNdeepD_8301"]
    ordered_counts = [counts[names[p]] for p in order]
    assert ordered_counts == sorted(ordered_counts)


def test_stack_order_counts_under_the_jobs_datum_pair(ray_session, fx_dir, cells):
    """A catalog whose candidates' valid counts cross between two datum
    pairs: SYNcoastA's tss grid loses its western half, which only the
    ellipse -> mllw pipeline reads (tss cancels out of mllw -> mhw). So
    SYNcoastA has fewer valid cells than SYNcoastB under ellipse -> mllw
    and more under mllw -> mhw, and each job stacks by its own pair's
    counts."""
    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.pipelines.raster import (_candidates, _cell_lonlat, _seps,
                                                 _stack_order, raster_meta)
    from vyperdatum_ray.stages.transform import DatumTransformer

    catalog = Catalog.from_dir(fx_dir)
    key = "SYNcoastA_8301/tss"
    values = catalog.grids[key].values.copy()
    values[:, : values.shape[1] // 2] = np.nan
    catalog = dataclasses.replace(catalog, grids={
        **catalog.grids, key: dataclasses.replace(catalog.grids[key], values=values)})
    meta = raster_meta(SF)
    cands = _candidates(catalog, meta)
    lon, lat = _cell_lonlat(meta, cells["row"].to_numpy(), cells["col"].to_numpy())

    def counts(pair):
        return {pos: int(v.sum())
                for pos, _, v in _seps(DatumTransformer(catalog, *pair), cands, lon, lat)}

    pairs = [("ellipse", "mllw"), ("mllw", "mhw")]
    a, b = (cands.index(catalog.region_names.index(n))
            for n in ("SYNcoastA_8301", "SYNcoastB_8301"))
    by_pair = {pair: counts(pair) for pair in pairs}
    assert by_pair[pairs[0]][a] < by_pair[pairs[0]][b]
    assert by_pair[pairs[1]][a] > by_pair[pairs[1]][b]
    for pair, c in by_pair.items():
        assert _stack_order(SF, *pair, catalog=catalog) == sorted(c, key=c.get), pair


def test_nodata_cells_dropped_everything_else_kept(transformed, cells):
    n_finite = int(np.isfinite(cells["elevation"]).sum())
    out = transformed[np.isfinite(transformed["z"])]
    assert len(out) == n_finite


def test_covered_cells_z_matches_sep(ray_session, transformed):
    """Covered cells: z == round(-(elev + sep), 3) using q_raster_sep's
    independent sep computation."""
    from vyperdatum_ray.pipelines.exchange import collect
    from vyperdatum_ray.pipelines.raster import q_raster_sep, raster_cells

    sep = q_raster_sep(SF).to_pandas().set_index(["row", "col"])
    cells_df = collect(raster_cells(SF)).set_index(["row", "col"])
    cov = transformed[transformed["region_index"] >= 0].set_index(["row", "col"])
    joined = cov.join(sep, rsuffix="_s").join(cells_df, rsuffix="_c")
    ok = np.isfinite(joined["elevation"])
    expect = np.round(-1.0 * (joined["elevation"][ok] + joined["sep"][ok]), 3)
    assert np.array_equal(expect.to_numpy(), joined["z"][ok].to_numpy())
    assert np.array_equal(
        joined["region_index"].to_numpy(), joined["region_index_s"].to_numpy()
    )


def test_catzoc_outside_coverage(transformed, cells):
    """region_index == -1 cells (elevation present, no sep): z passes
    through flipped; unc = max(3 - 0.06 z, source) capped at 3.0 for
    z > 0 (raster.py:380-396)."""
    out = transformed[np.isfinite(transformed["z"])]
    miss = out[out["region_index"] == -1].set_index(["row", "col"])
    assert len(miss) > 0
    src = cells.set_index(["row", "col"])
    j = miss.join(src, rsuffix="_c")
    assert np.array_equal(np.round(-1.0 * j["elevation"], 3).to_numpy(), j["z"].to_numpy())
    u = 3.0 - 0.06 * j["elevation"].to_numpy()
    u[j["elevation"].to_numpy() > 0] = 3.0
    expect = np.round(np.maximum(u, j["uncertainty"].to_numpy()), 3)
    assert np.array_equal(expect, j["unc"].to_numpy())
    assert (j["unc"] >= j["uncertainty"]).all()


def test_no_catzoc_when_disallowed(ray_session, cells):
    from vyperdatum_ray.pipelines.raster import raster_transform

    out = raster_transform(SF, allow_outside=False).to_pandas()
    miss = out[(out["region_index"] == -1)]
    assert np.isnan(miss["z"]).all()
    assert np.isnan(miss["unc"]).all()
    assert np.isnan(miss["contributor"]).all()


def test_tile_manifest_totals(ray_session, transformed):
    from vyperdatum_ray.pipelines.raster import q_raster_tile_manifest

    man = q_raster_tile_manifest(SF).to_pandas()
    assert int(man["n_rows"].sum()) == len(transformed)
    assert man["tile_id"].is_unique


def test_write_raster_tiles_resumable_layout(ray_session, tmp_path):
    from vyperdatum_ray.pipelines.raster import write_raster_tiles

    res = write_raster_tiles(SF, str(tmp_path / "tiles"))
    with open(res["manifest"]) as f:
        manifest = json.load(f)
    assert res["n_tiles"] == len(manifest)
    # one directory per tile (resumable partition layout)
    dirs = [d for d in os.listdir(tmp_path / "tiles") if d.startswith("tile_id=")]
    assert len(dirs) == len(manifest)
    got = pq.read_table(str(tmp_path / "tiles")).num_rows
    assert got == sum(manifest.values())


def _reference_seps(catalog, cands, from_datum, to_datum, lon, lat):
    """The raster path's former private copy of the regional pipeline,
    kept as the reference: per candidate, the pipeline parsed and its
    grid keys resolved, the geoid-frame hop of the cell centers at
    z = 0, then one ``SeparationGrid.interpolate`` per step added with
    its sign. ``{cand_pos: (sep, valid, unc)}``; a candidate with an
    unresolvable grid is absent (skipped)."""
    from vyperdatum_ray.catalog import INPUT_FRAME
    from vyperdatum_ray.core.helmert import frame_hop
    from vyperdatum_ray.core.pipeline_algebra import (get_regional_pipeline,
                                                      parse_pipeline, resolve_grid_key)
    from vyperdatum_ray.core.uncertainty import compose_uncertainty

    out = {}
    for pos, i in enumerate(cands):
        r = catalog.regions[i]
        resolved = [(resolve_grid_key(s.grid_key, catalog.grids), s.sign)
                    for s in parse_pipeline(
                        get_regional_pipeline(from_datum, to_datum, r.name, r.geoid_name))]
        if any(k is None for k, _ in resolved):
            continue
        if r.geoid_frame != INPUT_FRAME:
            slon, slat, sep = frame_hop(lon, lat, np.zeros(len(lon)), r.geoid_frame)
        else:
            slon, slat, sep = lon, lat, np.zeros(len(lon), dtype=np.float64)
        with np.errstate(invalid="ignore"):
            for key, sign in resolved:
                sep = sep + sign * catalog.grids[key].interpolate(slon, slat)
        unc = compose_uncertainty(from_datum, to_datum, catalog.sigmas.get(r.name, {}),
                                  catalog.geoid_sigmas.get(r.geoid_name, 0.0))
        out[pos] = (sep, np.isfinite(sep), unc)
    return out


@pytest.mark.parametrize("drop_grid", [None, "SYNcoastB_8301/tss"])
@pytest.mark.parametrize("pair", [("ellipse", "mllw"), ("navd88", "mhw"),
                                  ("ellipse", "ellipse")])
def test_separation_matches_reference(fx_dir, cells, pair, drop_grid):
    """The raster separation runs on the transform's own state
    (``DatumTransformer.separation``) and equals the former per-step
    loop bit for bit, per candidate: separation, validity and
    uncertainty, the same candidates skipped. Covers the ITRF-framed
    candidate (hop), three datum pairs (one the zero-step null
    pipeline) and a catalog missing one candidate's grid, under
    warnings-as-errors: an inf - inf coverage hole is not worth a
    warning."""
    from vyperdatum_ray.catalog import INPUT_FRAME, Catalog
    from vyperdatum_ray.pipelines.raster import _candidates, _cell_lonlat, _seps, raster_meta
    from vyperdatum_ray.stages.transform import DatumTransformer

    catalog = Catalog.from_dir(fx_dir)
    if drop_grid:
        catalog = dataclasses.replace(
            catalog, grids={k: g for k, g in catalog.grids.items() if k != drop_grid})
    meta = raster_meta(SF)
    cands = _candidates(catalog, meta)
    assert any(catalog.regions[i].geoid_frame != INPUT_FRAME for i in cands)
    lon, lat = _cell_lonlat(meta, cells["row"].to_numpy(), cells["col"].to_numpy())

    ref = _reference_seps(catalog, cands, *pair, lon, lat)
    dt = DatumTransformer(catalog, *pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {pos: (sep, valid) for pos, sep, valid in _seps(dt, cands, lon, lat)}
    assert sorted(got) == sorted(ref)
    if drop_grid and pair[0] != pair[1]:
        assert 1 not in got  # SYNcoastB is the skipped candidate
    else:
        assert sorted(got) == list(range(len(cands)))
    for pos, (sep, valid) in got.items():
        assert np.array_equal(sep, ref[pos][0], equal_nan=True)
        assert np.array_equal(valid, ref[pos][1])
        assert dt.unc[cands[pos]] == ref[pos][2]
    if pair[0] != pair[1]:
        # the fixture's cells include inf - inf = NaN coverage holes
        assert np.isnan(np.concatenate([s for s, _ in got.values()])).any()


def test_zonal_partials_carry_no_pandas_schema_metadata(ray_session):
    """The zonal-stats map output's schema has no ``pandas`` metadata
    key, which made Ray log ``Failed to hash the schemas``."""
    import ray
    from vyperdatum_ray.pipelines.raster import _zonal_partial, raster_transform

    ds = raster_transform(SF).map_batches(_zonal_partial, batch_format="pyarrow").materialize()
    blocks = ray.get(ds.to_arrow_refs())
    assert blocks and sum(b.num_rows for b in blocks) > 0
    for b in blocks:
        assert b"pandas" not in (b.schema.metadata or {})
