"""Checkpoint/resume semantics: per-shard lineage records, read-time
pruning of completed shards, idempotent partition overwrite, stale
version invalidation."""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.01"  # 3 input shards -> real multi-shard resume


def _read_output(out_dir: str) -> pd.DataFrame:
    t = pq.read_table(out_dir)
    return (
        t.to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def first_run(ray_session, tmp_path_factory):
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    ensure_fixtures(SF)
    out = str(tmp_path_factory.mktemp("ckpt") / "out")
    metrics = run_flagship_checkpointed(SF, out)
    return out, metrics


def test_first_run_commits_all_shards(first_run):
    out, metrics = first_run
    assert metrics["n_shards_skipped"] == 0
    assert metrics["n_shards_run"] == metrics["n_shards_total"] > 0
    recs = [f for f in os.listdir(os.path.join(out, "_lineage"))
            if f.endswith(".json") and not f.startswith("_")]
    assert len(recs) == metrics["n_shards_total"]
    rec = json.load(open(os.path.join(out, "_lineage", sorted(recs)[0])))
    assert rec["transform_version"] == metrics["transform_version"]
    assert rec["n_rows_out"] > 0 and rec["cell_set"]
    assert rec["row_range"] == [0, rec["n_rows_in"]]


def test_sink_partitions_match_fused_flagship(first_run):
    """Each ``shard=<id>`` partition holds exactly the fused flagship's
    rows for that input file, in the sink's 10 columns, order and
    dtypes, and each record's cell_set/region_set are the partition's
    distinct tile ids/regions. (Runs before the manifest test, which
    rewrites the output with a perturbed catalog.)"""
    import pyarrow.compute as pc

    from vyperdatum_ray.pipelines.flagship import flagship_fused
    from vyperdatum_ray.state.lineage import _shard_of, completed_shards

    cols = ["url", "lat", "lon", "h3_9", "s2_13", "tile_id", "region",
            "region_index", "z_out", "unc"]

    out, metrics = first_run
    fused = pa.concat_tables(list(flagship_fused(SF, include_paths=True)
                                  .iter_batches(batch_format="pyarrow",
                                                batch_size=None)))
    recs = completed_shards(out, metrics["transform_version"])
    assert len(recs) == metrics["n_shards_total"]
    for shard, rec in recs.items():
        part = pq.read_table(os.path.join(out, f"shard={shard}"))
        expect = fused.filter(pc.equal(fused.column("path"), rec["input_file"]))
        assert _shard_of(rec["input_file"]) == shard
        assert part.schema.names == cols
        assert part.schema == expect.select(cols).schema
        pd.testing.assert_frame_equal(
            part.sort_by("url").to_pandas(),
            expect.select(cols).sort_by("url").to_pandas())
        assert rec["n_rows_out"] == part.num_rows
        assert rec["cell_set"] == sorted(pc.unique(part["tile_id"]).to_pylist())
        assert rec["region_set"] == sorted(pc.unique(part["region"]).to_pylist())


def test_noop_resume_skips_everything(first_run):
    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    out, _ = first_run
    m2 = run_flagship_checkpointed(SF, out)
    assert m2["n_shards_run"] == 0
    assert m2["n_shards_skipped"] == m2["n_shards_total"]


def test_resume_recomputes_only_missing_shard(first_run):
    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    out, metrics = first_run
    baseline = _read_output(out)

    # simulate a crash: one shard's lineage gone + partial partition
    victim = sorted(
        f for f in os.listdir(os.path.join(out, "_lineage"))
        if f.endswith(".json") and not f.startswith("_")
    )[0]
    shard = victim[: -len(".json")]
    os.remove(os.path.join(out, "_lineage", victim))
    shutil.rmtree(os.path.join(out, f"shard={shard}"))

    m3 = run_flagship_checkpointed(SF, out)
    assert m3["n_shards_run"] == 1
    assert m3["n_shards_skipped"] == m3["n_shards_total"] - 1

    resumed = _read_output(out)
    pd.testing.assert_frame_equal(resumed, baseline)


def test_resume_after_partial_write_is_exactly_once(first_run):
    """Crash MID-WRITE stress (VERDICT r2 item 10): the victim shard's
    partition is left PARTIALLY written — a duplicated output file
    (stale extra rows a naive append would keep), a truncated/corrupt
    parquet half-file, and a missing file — with no lineage record.
    The resume's pre-clear of pending partitions must produce
    exactly-once rows byte-identical to the clean run (wiping the whole
    output directory would lose FINISHED shards; writing without the
    pre-clear would keep the stale extra rows and double-count)."""
    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    out, metrics = first_run
    baseline = _read_output(out)

    victim = sorted(
        f for f in os.listdir(os.path.join(out, "_lineage"))
        if f.endswith(".json") and not f.startswith("_")
    )[-1]
    shard = victim[: -len(".json")]
    os.remove(os.path.join(out, "_lineage", victim))
    part_dir = os.path.join(out, f"shard={shard}")
    files = sorted(f for f in os.listdir(part_dir) if f.endswith(".parquet"))
    assert files
    # (a) duplicate a finished file under a retry-ish name
    shutil.copy(os.path.join(part_dir, files[0]),
                os.path.join(part_dir, "retry_" + files[0]))
    # (b) a half-written parquet file (truncated bytes, no footer)
    data = open(os.path.join(part_dir, files[0]), "rb").read()
    with open(os.path.join(part_dir, "partial_0000.parquet"), "wb") as f:
        f.write(data[: max(16, len(data) // 3)])
    # (c) a lost file, if the partition has more than one
    if len(files) > 1:
        os.remove(os.path.join(part_dir, files[1]))

    m = run_flagship_checkpointed(SF, out)
    assert m["n_shards_run"] == 1
    assert m["n_shards_skipped"] == m["n_shards_total"] - 1

    resumed = _read_output(out)
    assert not resumed["url"].duplicated().any()
    pd.testing.assert_frame_equal(resumed, baseline)
    # the corrupt leftovers are gone from the rewritten partition
    names = set(os.listdir(part_dir))
    assert "partial_0000.parquet" not in names
    assert "retry_" + files[0] not in names


def test_stale_version_triggers_recompute(first_run):
    from vyperdatum_ray.state.lineage import completed_shards

    out, metrics = first_run
    done = completed_shards(out, metrics["transform_version"])
    assert len(done) == metrics["n_shards_total"]
    assert completed_shards(out, "different-version") == {}


def test_metrics_appended(first_run):
    out, _ = first_run
    lines = open(os.path.join(out, "_lineage", "_metrics.jsonl")).read().splitlines()
    assert len(lines) >= 1
    rec = json.loads(lines[0])
    assert rec["rows_in"] >= rec["rows_out"] > 0


def test_manifest_written_and_grid_change_invalidates_exactly(first_run):
    """Versioned catalog manifest (T5 completion): per-grid MD5s are
    committed with the run; a VALUE change in one region's grid marks
    stale exactly the shards whose region_set touches that region,
    while a STRUCTURE change (region renamed) invalidates everything."""
    import copy

    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.state.lineage import (completed_shards,
                                              load_catalog_manifest,
                                              run_flagship_checkpointed)

    out, metrics = first_run
    cat = Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])
    man = load_catalog_manifest(out)
    assert man is not None
    assert man["catalog_version"] == cat.version == metrics["transform_version"]
    assert man["grids"] == cat.grid_fingerprints()
    assert man["structure"] == cat.structure_fingerprint()

    # every committed record carries its region provenance
    recs = completed_shards(out, cat.version)
    assert recs and all("region_set" in r for r in recs.values())

    # The real shards all touch every region (the fixture's points are
    # spread), which would make the "kept" branch vacuous — inject a
    # synthetic committed record whose region_set AVOIDS the victim so
    # the disjoint-shard path is actually exercised.
    from vyperdatum_ray.state.lineage import _commit_record

    fake = {**next(iter(recs.values())), "shard": "part-9999",
            "input_file": "synthetic", "region_set": ["SYNcoastA_8301"]}
    _commit_record(out, fake)
    recs = completed_shards(out, cat.version)
    assert "part-9999" in recs

    # perturb ONE region's grid values -> a new catalog "version"
    victim = "SYNcoastB_8301"
    cat2 = copy.deepcopy(cat)
    cat2.grids[f"{victim}/mllw"].values += 0.01
    cat2.version = "vNext"

    done2 = completed_shards(out, cat2.version, catalog=cat2)
    expect_done = {s for s, r in recs.items() if victim not in r["region_set"]}
    assert "part-9999" in expect_done  # the kept branch is non-vacuous
    assert set(done2) == expect_done  # exactly the untouched shards

    # resuming with the perturbed catalog re-runs exactly the affected
    # real shards and re-stamps the manifest at the new version
    real_done = {s for s in expect_done if s != "part-9999"}
    m2 = run_flagship_checkpointed(SF, out, catalog=cat2)
    assert m2["n_shards_run"] == metrics["n_shards_total"] - len(real_done)
    assert m2["n_shards_skipped"] == len(real_done)
    assert load_catalog_manifest(out)["catalog_version"] == "vNext"
    # kept old-version records were RE-STAMPED to vNext: without that,
    # the next routine resume would silently recompute everything the
    # fine-grained rule just saved (the manifest now says vNext)
    kept = completed_shards(out, "vNext")
    assert "part-9999" in kept
    assert kept["part-9999"]["transform_version"] == "vNext"
    # and a further no-op resume skips everything again
    m3 = run_flagship_checkpointed(SF, out, catalog=cat2)
    assert m3["n_shards_run"] == 0

    os.remove(os.path.join(out, "_lineage", "part-9999.json"))

    # STRUCTURE change: renaming a region invalidates ALL records
    import dataclasses

    cat3 = copy.deepcopy(cat2)
    cat3.regions[0] = dataclasses.replace(cat3.regions[0], name="RENAMED")
    cat3.version = "vNext2"
    assert completed_shards(out, cat3.version, catalog=cat3) == {}


def _private_sf(tmp_path, monkeypatch, extra: dict | None = None) -> str:
    """A throwaway sf dir holding copies of SF's pages (plus ``extra``
    shards, name -> table) and sharing SF's catalog, so a test can break
    or add input files without touching the shared fixtures."""
    from vyperdatum_ray import fixtures

    src = fixtures.ensure_fixtures(SF)
    monkeypatch.setattr(fixtures, "DATA_ROOT", str(tmp_path))
    sf = tmp_path / "sf"
    (sf / "pages").mkdir(parents=True)
    pages = [shutil.copy(p, sf / "pages") for p in src["pages"]]
    for name, table in (extra or {}).items():
        pages.append(str(sf / "pages" / f"{name}.parquet"))
        pq.write_table(table, pages[-1])
    with open(sf / "_MANIFEST.json", "w") as f:
        json.dump({**src, "dir": str(sf), "pages": [str(p) for p in pages]}, f)
    return str(sf)


def test_crash_mid_run_keeps_finished_shards_and_resumes(
        ray_session, tmp_path, monkeypatch):
    """A shard task that raises fails the run, but only after the tasks
    still in flight have finished: with one corrupt shard of 4, exactly
    the other 3 are committed, each record describes a complete
    partition, and no partition lacks its record. The resume runs only
    the broken shard into output identical to a clean run."""
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.state.lineage import (completed_shards,
                                              run_flagship_checkpointed)

    extra = pq.read_table(sorted(pages_paths(SF))[0]).slice(0, 2_000)
    sf = _private_sf(tmp_path, monkeypatch, {"part-0003": extra})
    clean_out, out = str(tmp_path / "clean"), str(tmp_path / "out")
    clean = run_flagship_checkpointed(sf, clean_out)
    version = clean["transform_version"]
    assert clean["n_shards_total"] == 4

    victim = os.path.join(sf, "pages", "part-0001.parquet")
    data = open(victim, "rb").read()
    with open(victim, "wb") as f:
        f.write(data[: len(data) // 3])  # no footer: the read raises
    with pytest.raises(Exception):
        run_flagship_checkpointed(sf, out)

    committed = completed_shards(out, version)
    assert set(committed) == {"part-0000", "part-0002", "part-0003"}
    assert sorted(d for d in os.listdir(out) if d.startswith("shard=")) == [
        f"shard={s}" for s in sorted(committed)]
    before = {}
    for shard, rec in committed.items():
        part = os.path.join(out, f"shard={shard}", "part-0.parquet")
        assert pq.ParquetFile(part).metadata.num_rows == rec["n_rows_out"]
        before[shard] = os.stat(part).st_mtime_ns

    with open(victim, "wb") as f:
        f.write(data)
    m = run_flagship_checkpointed(sf, out)
    assert (m["n_shards_skipped"], m["n_shards_run"]) == (3, 1)
    for shard, mtime in before.items():  # finished shards were not rewritten
        part = os.path.join(out, f"shard={shard}", "part-0.parquet")
        assert os.stat(part).st_mtime_ns == mtime
    pd.testing.assert_frame_equal(_read_output(out), _read_output(clean_out))


def test_drop_counters_match_a_driver_replay(ray_session, tmp_path):
    """Each record's ``n_no_geocode``/``n_no_region``/``n_no_coverage``
    and the run's summed metrics line equal a driver-side pass of the
    stage functions over the same shards: rows that do not geocode,
    geocoded rows outside every region polygon, and rows inside a region
    that no grid covers. The fixture catalog covers every region fully,
    so a second catalog blanks one region's grids to make the last
    count non-zero."""
    import copy

    import numpy as np

    from vyperdatum_ray.fixtures import ensure_fixtures, pages_paths
    from vyperdatum_ray.pipelines.flagship import load_catalog
    from vyperdatum_ray.stages.cellindex import cell_index_batch
    from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
    from vyperdatum_ray.stages.region_join import RegionJoiner
    from vyperdatum_ray.stages.transform import DatumTransformer
    from vyperdatum_ray.state.lineage import (DROP_COUNTERS, completed_shards,
                                              run_flagship_checkpointed)

    sf = "/root/testdata/sf0.001"
    ensure_fixtures(sf)
    catalog = load_catalog(sf)
    blanked = copy.deepcopy(catalog)
    for key, grid in blanked.grids.items():
        if key.startswith(f"{blanked.regions[0].name}/"):
            grid.values[:] = np.nan

    for i, cat in enumerate((catalog, blanked)):
        joiner, transformer = RegionJoiner(cat), DatumTransformer(cat)
        want = {}
        for p in sorted(pages_paths(sf)):
            t = pq.read_table(p, columns=["url", "text"])
            g = keep_geocoded(geocode_batch(t)).select(["url", "lat", "lon"])
            joined = joiner(cell_index_batch(g))
            pip = joined.column("pip_region_index").to_numpy()
            region = transformer(joined).column("region_index").to_numpy()
            want[os.path.splitext(os.path.basename(p))[0]] = {
                "n_no_geocode": t.num_rows - g.num_rows,
                "n_no_region": int((pip < 0).sum()),
                "n_no_coverage": int(((pip >= 0) & (region < 0)).sum()),
            }

        out = str(tmp_path / f"out{i}")
        m = run_flagship_checkpointed(sf, out, catalog=cat)
        recs = completed_shards(out, m["transform_version"])
        assert {s: {k: r[k] for k in DROP_COUNTERS} for s, r in recs.items()} == want
        line = json.loads(open(os.path.join(out, "_lineage", "_metrics.jsonl"))
                          .read().splitlines()[-1])
        for k in DROP_COUNTERS:
            assert line[k] == m[k] == sum(w[k] for w in want.values())
        assert line["n_no_geocode"] == line["rows_in"] - line["rows_out"] > 0
        assert line["n_no_region"] > 0
    assert line["n_no_coverage"] > 0  # the blanked region's rows


def test_zero_output_shard_commits_empty_record(ray_session, tmp_path, monkeypatch):
    """A shard whose pages geocode to nothing commits a record with no
    output and writes no partition — alongside other shards and when it
    is the only pending shard — and later calls skip it."""
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.state.lineage import (completed_shards, lineage_dir,
                                              run_flagship_checkpointed)

    n = 50
    empty = pq.read_table(sorted(pages_paths(SF))[0]).slice(0, n)
    empty = empty.set_column(0, "url", pa.array(
        [f"https://host{i}.example/p/{i}" for i in range(n)], pa.string()))
    empty = empty.set_column(empty.schema.get_field_index("text"), "text",
                             pa.array([f"Document {i}." for i in range(n)], pa.string()))
    sf = _private_sf(tmp_path, monkeypatch, {"part-0003": empty})
    out = str(tmp_path / "out")

    def check_empty_record(version):
        rec = completed_shards(out, version)["part-0003"]
        assert rec["n_rows_in"] == n
        assert rec["n_rows_out"] == 0
        assert rec["cell_set"] == [] and rec["region_set"] == []
        assert not os.path.exists(os.path.join(out, "shard=part-0003"))

    m = run_flagship_checkpointed(sf, out)
    assert m["n_shards_run"] == m["n_shards_total"] == 4
    check_empty_record(m["transform_version"])
    assert run_flagship_checkpointed(sf, out)["n_shards_run"] == 0

    # the empty shard alone pending: every pending shard has no output
    os.remove(os.path.join(lineage_dir(out), "part-0003.json"))
    m = run_flagship_checkpointed(sf, out)
    assert (m["n_shards_run"], m["rows_in"], m["rows_out"]) == (1, n, 0)
    check_empty_record(m["transform_version"])
    assert run_flagship_checkpointed(sf, out)["n_shards_run"] == 0
