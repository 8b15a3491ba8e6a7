"""End-to-end flagship semantics that define reference parity
(core.py:421-453): catalog-order region overwrite, grid-coverage
fallback at the NaN notch, -1 outside coverage, byte-identical text
passthrough."""

import dataclasses
import os

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
    cat2 = dataclasses.replace(cat, grids=grids2)
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
    cat2 = dataclasses.replace(cat, grids=grids)
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


def test_blocks_follow_sorted_paths_and_empty_paths_run_nothing(ray_session, monkeypatch):
    """One block per unit, and with one path a unit (3 shards on 4
    CPUs) one block per shard, in sorted path order whatever order
    ``paths`` lists them in: block k is the k-th sorted path's own
    output (``paths=[p]``); ``paths=[]`` means no shard, not every
    shard: zero rows and no task submitted."""
    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures, pages_paths
    from vyperdatum_ray.pipelines import flagship

    sf = os.path.join(os.path.dirname(SF), "sf0.01")  # 3 shards
    ensure_fixtures(sf)
    paths = sorted(pages_paths(sf))
    ds = flagship.flagship_fused(sf, paths=paths[::-1])
    assert ds.num_blocks() == len(paths) == 3
    blocks = ray.get(ds.to_arrow_refs())
    assert len(blocks) == len(paths)
    urls = set()
    for block, p in zip(blocks, paths):
        (own,) = ray.get(flagship.flagship_fused(sf, paths=[p]).to_arrow_refs())
        assert own.num_rows > 0 and block.schema == own.schema
        pd.testing.assert_frame_equal(block.to_pandas(), own.to_pandas())
        # every shard holds its own pages, so the order is observable
        assert urls.isdisjoint(own.column("url").to_pylist())
        urls.update(own.column("url").to_pylist())

    class NoTask:
        def remote(self, *args):
            raise AssertionError("a shard task was submitted")

    monkeypatch.setattr(flagship, "_fused_shard", NoTask())
    assert flagship.flagship_fused(SF, paths=[]).count() == 0


def _units_of_two(paths, cpus=None):
    """``flagship.work_units`` forced to two consecutive paths a unit."""
    return [paths[i:i + 2] for i in range(0, len(paths), 2)]


def test_work_units_are_runs_sized_from_cpus_and_bytes(ray_session, tmp_path, monkeypatch):
    """``work_units`` cuts the paths into non-empty runs of consecutive
    paths, in their order, of ``max(1, min(ceil(n / CPUs),
    target_max_block_size // file_bytes))`` paths (the last may hold
    fewer); no path gives no unit; repeated paths, as ``bench.py
    --scaling`` lists them, keep their order; and a file larger than
    ``target_max_block_size`` runs alone whatever its neighbours."""
    import ray
    import ray.data
    from vyperdatum_ray.pipelines.flagship import work_units

    def write(name, nbytes):
        path = tmp_path / name
        path.write_bytes(b"x" * nbytes)
        return str(path)

    files = [write(f"part-{i:04d}.parquet", 100) for i in range(10)]
    cpus = int(ray.cluster_resources()["CPU"])
    ctx = ray.data.DataContext.get_current()
    assert work_units([]) == []
    for cap in (ctx.target_max_block_size, 250):
        monkeypatch.setattr(ctx, "target_max_block_size", cap)
        for n in (1, cpus - 1, cpus, cpus + 1, 10):
            paths = files[:n]
            per = max(1, min(-(-n // cpus), cap // 100))
            units = work_units(paths)
            assert [p for u in units for p in u] == paths
            assert [len(u) for u in units] == [per] * (n // per) + [n % per] * (n % per > 0)
    repeated = files[:3] * 4
    assert [p for u in work_units(repeated) for p in u] == repeated

    big = write("part-big.parquet", 251)
    mixed = files[:3] + [big] + files[3:6]
    units = work_units(mixed)
    assert [big] in units and [p for u in units for p in u] == mixed
    monkeypatch.setattr(ctx, "target_max_block_size", 99)
    assert work_units(files) == [[p] for p in files]


def test_two_shard_units_give_their_shards_blocks_in_sorted_order(ray_session, monkeypatch):
    """With two paths a unit, a block is its unit's paths' own outputs
    (``paths=[p]``), concatenated in sorted path order, whatever order
    ``paths`` lists them in."""
    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures, pages_paths
    from vyperdatum_ray.pipelines import flagship

    sf = os.path.join(os.path.dirname(SF), "sf0.01")  # 3 shards: units of 2 and 1
    ensure_fixtures(sf)
    paths = sorted(pages_paths(sf))
    monkeypatch.setattr(flagship, "work_units", _units_of_two)
    ds = flagship.flagship_fused(sf, paths=paths[::-1])
    assert ds.num_blocks() == 2
    for block, unit in zip(ray.get(ds.to_arrow_refs()), [paths[:2], paths[2:]]):
        own = [ray.get(flagship.flagship_fused(sf, paths=[p]).to_arrow_refs())[0]
               for p in unit]
        assert all(t.num_rows > 0 for t in own)
        assert block.schema == own[0].schema
        pd.testing.assert_frame_equal(block.to_pandas(), pa.concat_tables(own).to_pandas())


def test_region_median_partials_carry_no_pandas_schema_metadata(ray_session):
    """The region-median partial, computed in each shard task and
    returned through the object store to the driver's fold, has no
    ``pandas`` metadata key, which made Ray log ``Failed to hash the
    schemas`` when a Ray block carried it."""
    import ray
    from vyperdatum_ray.pipelines.flagship import shard_tasks
    from vyperdatum_ray.pipelines.relational import _median_partial

    parts = ray.get([submit() for submit in shard_tasks(SF, post=_median_partial)])
    assert parts and sum(p.num_rows for p in parts) > 0
    for p in parts:
        assert b"pandas" not in (p.schema.metadata or {})


_SHARD_AGGREGATES = ["tile_counts", "hot_tiles", "region_counts", "transform_summary",
                     "gridded_points", "region_median"]


@pytest.mark.parametrize("shards", ["one_empty_shard", "no_shard"])
@pytest.mark.parametrize("name", _SHARD_AGGREGATES)
def test_empty_input_aggregate_is_typed(ray_session, tmp_path, monkeypatch, name, shards):
    """The flagship aggregates merged on the driver over a zero-row
    pages shard, and over no shard at all (no partial to merge), give
    zero rows with the columns and dtypes of the query's output on
    sf0.001, neither a crash nor a columnless frame."""
    from test_textops import _private_sf

    import __ray_entry__ as E
    from vyperdatum_ray import fixtures
    from vyperdatum_ray.pipelines.exchange import collect

    want = collect(E.queries()[name](SF))
    assert len(want) > 0
    empty = pq.read_schema(fixtures.pages_paths(SF)[0]).empty_table()
    sf = _private_sf(tmp_path, monkeypatch, [empty] if shards == "one_empty_shard" else [])
    got = collect(E.queries()[name](sf))
    assert len(got) == 0
    assert list(got.columns) == list(want.columns)
    assert dict(got.dtypes) == dict(want.dtypes)


@pytest.mark.parametrize("name", _SHARD_AGGREGATES)
def test_empty_shard_beside_a_full_one_merges(ray_session, tmp_path, monkeypatch, name):
    """A zero-row pages shard's partial merges with a covered shard's:
    the aggregate over (empty, full) equals the one over (full) alone.
    Both run on private sf dirs, whose fixtures (the raster lattice of
    ``gridded_points``) are their own, not sf0.001's."""
    from test_textops import _private_sf

    import __ray_entry__ as E
    from vyperdatum_ray import fixtures
    from vyperdatum_ray.pipelines.exchange import collect

    (path,) = fixtures.pages_paths(SF)
    full = pq.read_table(path)
    q = E.queries()[name]
    want = collect(q(_private_sf(tmp_path / "full", monkeypatch, [full])))
    assert len(want) > 0
    got = collect(q(_private_sf(tmp_path / "both", monkeypatch, [full.schema.empty_table(), full])))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("name", _SHARD_AGGREGATES + ["flagship_fused", "datum_transform"])
def test_empty_shard_in_a_two_shard_unit(ray_session, tmp_path, monkeypatch, name):
    """A zero-row pages shard in one unit with a covered shard: the
    unit's result equals the covered shard's alone (``pa.concat_tables``
    needs the empty shard's table typed as the full one's). Two empty
    shards in one unit give an aggregate zero typed rows."""
    from test_textops import _private_sf

    import __ray_entry__ as E
    from vyperdatum_ray import fixtures
    from vyperdatum_ray.pipelines import flagship
    from vyperdatum_ray.pipelines.exchange import collect

    (path,) = fixtures.pages_paths(SF)
    full = pq.read_table(path)
    empty = full.schema.empty_table()
    q = E.queries()[name]
    monkeypatch.setattr(flagship, "work_units", _units_of_two)
    want = collect(q(_private_sf(tmp_path / "full", monkeypatch, [full])))
    assert len(want) > 0
    got = collect(q(_private_sf(tmp_path / "both", monkeypatch, [empty, full])))
    pd.testing.assert_frame_equal(got, want)
    if name in _SHARD_AGGREGATES:
        none = collect(q(_private_sf(tmp_path / "none", monkeypatch, [empty, empty])))
        assert len(none) == 0
        assert dict(none.dtypes) == dict(want.dtypes)
