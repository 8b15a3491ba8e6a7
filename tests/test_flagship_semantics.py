"""End-to-end flagship semantics that define reference parity
(core.py:421-453): catalog-order region overwrite, grid-coverage
fallback at the NaN notch, -1 outside coverage, byte-identical text
passthrough."""

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vyperdatum_ray.fixtures import NOTCH_CENTER, NOTCH_R

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def out(ray_session):
    from vyperdatum_ray.pipelines.flagship import flagship_pipeline

    return flagship_pipeline(SF).to_pandas()


def test_overlap_later_region_wins(out):
    """Points covered by A and B (mask has both bits) with valid grids:
    region B (higher catalog ord) wins — reference's per-region loop
    overwrite order."""
    both = out[(out["region_mask"] & 3) == 3]
    ok = both[both["region_index"] >= 0]
    # away from the notch, B's grids are valid -> B wins
    far = ok[
        (ok["lon"] - NOTCH_CENTER[0]) ** 2 + (ok["lat"] - NOTCH_CENTER[1]) ** 2
        > (NOTCH_R * 1.5) ** 2
    ]
    assert len(far) > 5
    assert (far["region_index"] == 1).all()


def test_notch_falls_back_to_earlier_region(out):
    """Inside the A-and-B overlap where B's tss grid is notched out
    (NaN nodes), the pipeline keeps A's answer: PIP winner is B but the
    grid-valid winner is A (core.py:445-453 masking)."""
    inside_notch = out[
        (out["lon"] - NOTCH_CENTER[0]) ** 2 + (out["lat"] - NOTCH_CENTER[1]) ** 2
        < (NOTCH_R * 0.7) ** 2
    ]
    covered = inside_notch[inside_notch["region_index"] >= 0]
    assert len(covered) > 20
    # PIP alone said B...
    assert (covered["pip_region_index"] == 1).all()
    # ...but the transform fell back to A wherever A covers
    assert (covered["region_index"] == 0).all()
    assert np.isfinite(covered["z_out"]).all()


def test_outside_all_regions_minus_one(out):
    far = out[out["region_mask"] == 0]
    assert len(far) > 100
    assert (far["region_index"] == -1).all()
    assert far["z_out"].isna().all()
    assert far["unc"].isna().all()


def test_text_byte_identical_passthrough(out):
    """input_hint invariant: extracted text per url byte-identical."""
    src = pq.read_table(
        "/tmp/vdr_data/sf0.001/pages/part-0000.parquet", columns=["url", "text"]
    ).to_pandas().set_index("url")["text"]
    sample = out.sample(500, random_state=1)
    for url, text in zip(sample["url"], sample["text"]):
        assert text.encode() == src[url].encode()


def test_itrf_region_frame_hop_changes_answer(out):
    """Region D (ITRF frame) points: the real 3-D Helmert hop must be
    applied — recompute one point by hand (hop lon/lat AND the frame
    dz seeding z) and check the engine's answer."""
    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.core.helmert import frame_hop
    from vyperdatum_ray.core.pipeline_algebra import get_regional_pipeline, parse_pipeline
    from vyperdatum_ray.fixtures import ensure_fixtures

    from vyperdatum_ray.stages.transform import DatumTransformer

    cat = Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])
    d_rows = out[(out["region_index"] == 3)]
    assert len(d_rows) > 10
    r = cat.regions[3]
    assert r.geoid_frame == "ITRF2014"
    dt = DatumTransformer(catalog_ref=cat)
    assert dt.region_frames[3] == "ITRF2014"
    assert dt.region_frames[0] == "NAD83(2011)"
    # recompute one D point WITH the hop: must reproduce the engine's z
    steps = parse_pipeline(get_regional_pipeline("ellipse", "mllw", r.name, r.geoid_name))
    row = d_rows.iloc[0]
    hlon, hlat, hz = frame_hop(np.array([row["lon"]]), np.array([row["lat"]]),
                               np.zeros(1), "ITRF2014")
    # the hop is a real ~1-2 m 3-D shift, not a constant nudge
    assert 1e-6 < abs(hlon[0] - row["lon"]) < 1e-4
    assert abs(hz[0]) > 0.1
    z = hz[0]
    for s in steps:
        z = z + s.sign * cat.grids[s.grid_key].interpolate(hlon, hlat)[0]
    assert np.round(-z, 3) == row["z_out"]


def test_tif_fallback_active_in_transformer():
    """The .tif extension fallback must apply where steps are BUILT
    (DatumTransformer / raster), not only in the validator: a catalog
    whose tss grid exists only under the .tif key still transforms."""
    import dataclasses

    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.stages.transform import DatumTransformer

    cat = Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])
    grids2 = dict(cat.grids)
    grids2["SYNcoastA_8301/tss.tif"] = grids2.pop("SYNcoastA_8301/tss")
    cat2 = dataclasses.replace(cat, grids=grids2, _tree=None)
    dt = DatumTransformer(catalog_ref=cat2)
    assert dt.region_steps[0] is not None  # resolved via the .tif fallback
    dt_orig = DatumTransformer(catalog_ref=cat)
    # same grid object -> identical steps either way
    assert [g for g, _ in dt.region_steps[0]] == [g for g, _ in dt_orig.region_steps[0]]


def test_seventy_region_catalog_pip_and_transform(ray_session):
    """Catalogs past 64 regions spill membership into region_mask_1
    (VERDICT r3 item 5): pad the fixture catalog to 70 regions by
    cloning region 0 (same polygon, same grids under the padded names),
    so the LAST pad (catalog index 69, mask word 1 bit 5) must win the
    overwrite with z/unc identical to region 0's and the multi-word
    bitmask must round-trip through RegionJoiner -> DatumTransformer."""
    import dataclasses

    import pyarrow as pa

    from vyperdatum_ray.catalog import Catalog, RegionInfo
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.points import transform_points
    from vyperdatum_ray.stages.region_join import RegionJoiner

    base_cat = Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])
    b = base_cat.regions[0]
    regions = list(base_cat.regions)
    grids = dict(base_cat.grids)
    sigmas = dict(base_cat.sigmas)
    base_keys = [k for k in base_cat.grids if k.startswith(f"{b.name}/")]
    for i in range(len(regions), 70):
        name = f"PAD{i}"
        regions.append(RegionInfo(name=name, ord=i, geoid_name=b.geoid_name,
                                  geoid_frame=b.geoid_frame, polygon=b.polygon))
        for k in base_keys:
            grids[f"{name}/{k.split('/', 1)[1]}"] = base_cat.grids[k]
        sigmas[name] = sigmas[b.name]
    cat70 = Catalog(regions=regions, grids=grids, sigmas=sigmas,
                    geoid_sigmas=dict(base_cat.geoid_sigmas), version="pad70")

    lon = np.array([-75.20, -76.8])  # inside region 0's polygon; outside all
    lat = np.array([35.00, 33.2])

    # multi-word mask: word 0 bit 0 (region 0) and word 1 bit 5 (69) set
    joined = RegionJoiner(catalog_ref=cat70)(pa.table({
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
    }))
    assert "region_mask_1" in joined.column_names
    w0 = joined.column("region_mask").to_numpy(zero_copy_only=False)
    w1 = joined.column("region_mask_1").to_numpy(zero_copy_only=False)
    assert w0[0] & np.uint64(1) == 1
    assert (w1[0] >> np.uint64(5)) & np.uint64(1) == 1
    assert w0[1] == 0 and w1[1] == 0

    _, _, z0, u0, r0 = transform_points(base_cat, lon, lat)
    _, _, z70, u70, r70 = transform_points(cat70, lon, lat)
    assert r0[0] == 0 and r70[0] == 69  # the index-69 clone wins
    assert z70[0] == z0[0] and u70[0] == u0[0]  # same grids -> same answer
    assert r70[1] == -1 and np.isnan(z70[1])

    # past-127 catalogs still refuse loudly (int8 region_index)
    many = list(regions)
    while len(many) <= 127:
        many.append(dataclasses.replace(b, name=f"X{len(many)}", ord=len(many)))
    with pytest.raises(NotImplementedError):
        RegionJoiner(catalog_ref=Catalog(
            regions=many, grids=grids, sigmas=sigmas,
            geoid_sigmas=dict(base_cat.geoid_sigmas), version="pad128"))


def test_fused_flagship_matches_unfused(out):
    """The text-carrying flagship (the fused per-shard actor with
    carry_text=True) must equal the stages composed by hand per shard —
    read PAGE_COLUMNS -> geocode -> keep geocoded -> cell index -> PIP
    -> transform — on every column, in order, with the same types; the
    text-free fused stream must equal it on the shared columns."""
    import pandas as pd
    import pyarrow as pa

    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines.flagship import (PAGE_COLUMNS, flagship_fused,
                                                   load_catalog)
    from vyperdatum_ray.stages.cellindex import cell_index_batch
    from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
    from vyperdatum_ray.stages.region_join import RegionJoiner
    from vyperdatum_ray.stages.transform import DatumTransformer

    cat = load_catalog(SF)
    join, transform = RegionJoiner(catalog_ref=cat), DatumTransformer(catalog_ref=cat)
    ref = pa.concat_tables([
        transform(join(cell_index_batch(keep_geocoded(geocode_batch(
            pq.read_table(p, columns=PAGE_COLUMNS))))))
        for p in sorted(pages_paths(SF))
    ]).to_pandas().sort_values("url").reset_index(drop=True)

    got = out.sort_values("url").reset_index(drop=True)
    assert list(got.columns) == list(ref.columns)
    assert {"text", "lang", "warc_ts", "geocode_src", "tile_id", "z_out"} <= set(got.columns)
    pd.testing.assert_frame_equal(got, ref)

    fused = flagship_fused(SF).to_pandas().sort_values("url").reset_index(drop=True)
    common = [c for c in fused.columns if c in ref.columns]
    assert {"url", "z_out", "unc", "region_index", "tile_id"} <= set(common)
    pd.testing.assert_frame_equal(fused[common], ref[common])


# --- the fused flagship's per-worker catalog state cache never serves
# stale state: it is keyed by catalog CONTENT, so a same-version catalog
# with one shifted grid, and a different target datum, each get their
# own state within one Ray session, and switching back reproduces the
# first answer exactly.

CACHE_COLS = ["url", "region_index", "z_out", "unc"]


def _reference(cat, **transform_kw) -> pd.DataFrame:
    """The flagship composed by hand on the driver for ``cat``."""
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.stages.cellindex import cell_index_batch
    from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
    from vyperdatum_ray.stages.region_join import RegionJoiner
    from vyperdatum_ray.stages.transform import DatumTransformer

    join = RegionJoiner(catalog_ref=cat)
    transform = DatumTransformer(catalog_ref=cat, **transform_kw)
    return _sorted(pa.concat_tables([
        transform(join(cell_index_batch(keep_geocoded(geocode_batch(
            pq.read_table(p, columns=["url", "text"]))))))
        for p in sorted(pages_paths(SF))
    ]).to_pandas())


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df[CACHE_COLS].sort_values("url").reset_index(drop=True)


def _run(cat, **kw) -> pd.DataFrame:
    from vyperdatum_ray.pipelines.flagship import flagship_fused

    return _sorted(flagship_fused(SF, catalog=cat, **kw).to_pandas())


def test_same_version_grid_swap_never_served_stale(ray_session):
    from vyperdatum_ray.pipelines.flagship import load_catalog

    cat = load_catalog(SF)
    region = cat.regions[0].name
    key = f"{region}/tss"
    grids = dict(cat.grids)
    grids[key] = dataclasses.replace(grids[key], values=grids[key].values + 1.0)
    cat2 = dataclasses.replace(cat, grids=grids, _tree=None)
    assert cat2.version == cat.version
    assert cat2.content_key() != cat.content_key()

    first = _run(cat)
    second = _run(cat2)
    third = _run(cat)

    pd.testing.assert_frame_equal(second, _reference(cat2))
    moved = (first["region_index"] == 0).to_numpy()
    assert moved.sum() > 10
    assert not np.allclose(second["z_out"].to_numpy()[moved],
                           first["z_out"].to_numpy()[moved])
    np.testing.assert_array_equal(second["z_out"].to_numpy()[~moved],
                                  first["z_out"].to_numpy()[~moved])
    pd.testing.assert_frame_equal(third, first)


def test_target_datums_do_not_share_state(ray_session):
    from vyperdatum_ray.pipelines.flagship import load_catalog

    cat = load_catalog(SF)
    mllw = _run(cat, to_datum="mllw")
    mhw = _run(cat, to_datum="mhw")
    pd.testing.assert_frame_equal(mhw, _reference(cat, to_datum="mhw"))
    assert not mhw["z_out"].equals(mllw["z_out"])
    pd.testing.assert_frame_equal(_run(cat, to_datum="mllw"), mllw)
