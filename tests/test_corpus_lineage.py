"""Two-phase corpus-curation resume (state/corpus_lineage.py): full-run
equivalence with the adjudicated pipeline, shard-level phase-A resume
after a crash that left partial candidate files, bucket-level
phase-B resume with phase A fully skipped, the one-file-per-partition
sink layout with its record counts, and an empty input corpus."""

import glob
import json
import os
import shutil

import pandas as pd
import pytest

SF = "/root/testdata/sf0.01"


def _final(out_dir):
    files = glob.glob(os.path.join(out_dir, "final", "bucket=*", "*.parquet"))
    return pd.concat(map(pd.read_parquet, files)).sort_values("doc_id") \
        .reset_index(drop=True)


@pytest.fixture()
def ref(ray_session):
    from vyperdatum_ray.pipelines.training import q_corpus_pipeline

    return q_corpus_pipeline(SF).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)


def test_full_run_matches_adjudicated_pipeline_and_noop_resume(ray_session, ref, tmp_path):
    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    out = str(tmp_path / "run")
    m1 = run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    assert m1["phaseA_run"] == 4 and m1["phaseB_run"] == 16
    got = _final(out)
    assert got["doc_id"].tolist() == ref["doc_id"].tolist()
    assert got["split"].tolist() == ref["split"].tolist()
    assert (got.set_index("doc_id")["n_tok"]
            == ref.set_index("doc_id")["n_tok"]).all()
    # second invocation is a no-op at both phases
    m2 = run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    assert m2["phaseA_run"] == 0 and m2["phaseB_run"] == 0
    assert m2["rows_out"] == m1["rows_out"]
    assert _final(out)["doc_id"].tolist() == ref["doc_id"].tolist()


def test_input_rewrite_invalidates_all_records(ray_session, tmp_path):
    """The input manifest gate: rewriting documents.parquet (same
    params, different data) must recompute every shard and bucket AND
    refresh the persisted probe; an untouched input still no-op
    resumes."""
    import pyarrow.parquet as pq

    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    sf = str(tmp_path / "in")
    os.makedirs(sf)
    shutil.copy(os.path.join(SF, "documents.parquet"),
                os.path.join(sf, "documents.parquet"))
    out = str(tmp_path / "run")
    m1 = run_corpus_checkpointed(sf, out, n_shards=4, n_buckets=16)
    assert m1["phaseA_run"] == 4 and m1["phaseB_run"] == 16
    base = _final(out)

    # untouched input: no-op resume
    m2 = run_corpus_checkpointed(sf, out, n_shards=4, n_buckets=16)
    assert m2["phaseA_run"] == 0 and m2["phaseB_run"] == 0

    # rewrite the input: drop half the documents
    t = pq.read_table(os.path.join(sf, "documents.parquet"))
    pq.write_table(t.slice(0, t.num_rows // 2),
                   os.path.join(sf, "documents.parquet"))
    m3 = run_corpus_checkpointed(sf, out, n_shards=4, n_buckets=16)
    assert m3["phaseA_run"] == 4 and m3["phaseB_run"] == 16
    got = _final(out)
    assert len(got) < len(base)
    assert got["doc_id"].max() < t.num_rows // 2


def test_phase_a_crash_resumes_shard_granular(ray_session, ref, tmp_path):
    """Simulate a crash mid-phase-A: one shard committed, another left
    PARTIAL candidate files with no lineage record. The resume must
    pre-clear and recompute only uncommitted shards and end bit-equal
    to a clean run."""
    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    out = str(tmp_path / "run")
    run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    # forge the crash: drop shard 1's and 2's records; corrupt shard 2's
    # partition to a half-written state; wipe phase B entirely
    for k in (1, 2):
        os.remove(os.path.join(out, "_lineage", "phaseA", f"shard{k}.json"))
    part = glob.glob(os.path.join(out, "candidates", "shard=2", "bucket=*",
                                  "*.parquet"))
    assert part
    with open(part[0], "wb") as f:
        f.write(b"not a parquet file")  # truncated partial write
    shutil.rmtree(os.path.join(out, "_lineage", "phaseB"))
    shutil.rmtree(os.path.join(out, "final"))

    m = run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    assert m["phaseA_run"] == 2 and m["phaseA_skipped"] == 2
    got = _final(out)
    assert got["doc_id"].tolist() == ref["doc_id"].tolist()
    assert got["split"].tolist() == ref["split"].tolist()


def test_phase_b_crash_resumes_bucket_granular(ray_session, ref, tmp_path):
    """Crash mid-phase-B: all curate shards committed, some buckets
    missing records (one with partial output). Resume must skip ALL of
    phase A, recompute only the uncommitted buckets, and not disturb
    committed bucket partitions."""
    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    out = str(tmp_path / "run")
    run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    for b in (3, 7):
        os.remove(os.path.join(out, "_lineage", "phaseB", f"bucket{b}.json"))
    shutil.rmtree(os.path.join(out, "final", "bucket=7"), ignore_errors=True)
    # stamp a committed bucket's file mtime to detect rewrites
    keep_file = glob.glob(os.path.join(out, "final", "bucket=0", "*.parquet"))[0]
    mtime = os.path.getmtime(keep_file)

    m = run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    assert m["phaseA_run"] == 0
    assert m["phaseB_run"] == 2 and m["phaseB_skipped"] == 14
    assert os.path.getmtime(keep_file) == mtime  # committed bucket untouched
    got = _final(out)
    assert got["doc_id"].tolist() == ref["doc_id"].tolist()
    assert got["split"].tolist() == ref["split"].tolist()


def test_stale_version_recomputes(ray_session, tmp_path, monkeypatch):
    """Records carrying an old transform_version are ignored — the run
    recomputes everything rather than serving stale output."""
    import vyperdatum_ray.state.corpus_lineage as cl

    out = str(tmp_path / "run")
    cl.run_corpus_checkpointed(SF, out, n_shards=2, n_buckets=4)
    rec = json.load(open(os.path.join(out, "_lineage", "phaseA", "shard0.json")))
    assert rec["transform_version"] == cl.corpus_version(2, 4)
    monkeypatch.setattr(cl, "corpus_version", lambda *a: "corpus-v999-changed")
    m = cl.run_corpus_checkpointed(SF, out, n_shards=2, n_buckets=4)
    assert m["phaseA_run"] == 2 and m["phaseB_run"] == 4


def _rows(paths):
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(p).metadata.num_rows for p in paths)


def _recs(out, phase):
    d = os.path.join(out, "_lineage", phase)
    return {r["part"]: r for r in
            (json.load(open(os.path.join(d, n))) for n in os.listdir(d))}


def test_sink_layout_and_record_counts(ray_session, tmp_path):
    """Each task writes one part-0.parquet per non-empty partition and
    no temp file survives; every record's n_rows_out is its
    partition's row count; phase B reads exactly the rows phase A
    wrote, and never a stray temp file left in a candidate bucket."""
    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    out = str(tmp_path / "run")
    run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    cand = glob.glob(os.path.join(out, "candidates", "shard=*", "bucket=*"))
    final = glob.glob(os.path.join(out, "final", "bucket=*"))
    assert cand and final
    for d in cand + final:
        assert os.listdir(d) == ["part-0.parquet"]
    assert not glob.glob(os.path.join(out, "**", "_part-*"), recursive=True)

    recs_a, recs_b = _recs(out, "phaseA"), _recs(out, "phaseB")
    assert len(recs_a) == 4 and len(recs_b) == 16
    for k in range(4):
        files = glob.glob(os.path.join(out, "candidates", f"shard={k}", "*", "*"))
        assert recs_a[f"shard{k}"]["n_rows_out"] == _rows(files)
    for b in range(16):
        cands = glob.glob(os.path.join(out, "candidates", "*", f"bucket={b}", "*"))
        rec = recs_b[f"bucket{b}"]
        assert rec["n_rows_in"] == _rows(cands)
        assert rec["n_rows_out"] == _rows(
            glob.glob(os.path.join(out, "final", f"bucket={b}", "*")))
    total_a = sum(r["n_rows_out"] for r in recs_a.values())
    assert total_a == sum(r["n_rows_in"] for r in recs_b.values()) > 0
    base = _final(out)

    # a stray temp file (a valid parquet copy) in a candidate bucket:
    # phase B must not read it
    src = glob.glob(os.path.join(out, "candidates", "shard=0", "bucket=*",
                                 "part-0.parquet"))[0]
    shutil.copy(src, os.path.join(os.path.dirname(src), "_part-0.stray.tmp"))
    shutil.rmtree(os.path.join(out, "_lineage", "phaseB"))
    m = run_corpus_checkpointed(SF, out, n_shards=4, n_buckets=16)
    assert m["phaseA_run"] == 0 and m["phaseB_run"] == 16
    assert total_a == sum(r["n_rows_in"] for r in _recs(out, "phaseB").values())
    pd.testing.assert_frame_equal(_final(out), base)


def test_empty_corpus_commits_empty_records(ray_session, tmp_path):
    """A zero-row documents table runs no work: every shard and bucket
    commits a record with no output, no data file is written, and a
    second call is a no-op."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    sf = str(tmp_path / "in")
    os.makedirs(sf)
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}),
                   os.path.join(sf, "documents.parquet"))
    out = str(tmp_path / "run")
    m = run_corpus_checkpointed(sf, out, n_shards=4, n_buckets=16)
    assert (m["phaseA_run"], m["phaseB_run"]) == (4, 16)
    assert (m["rows_in"], m["rows_out"]) == (0, 0)
    recs = {**_recs(out, "phaseA"), **_recs(out, "phaseB")}
    assert len(recs) == 20
    assert all(r["n_rows_out"] == 0 for r in recs.values())
    assert not glob.glob(os.path.join(out, "candidates", "**", "*"), recursive=True)
    assert not glob.glob(os.path.join(out, "final", "**", "*"), recursive=True)

    m2 = run_corpus_checkpointed(sf, out, n_shards=4, n_buckets=16)
    assert (m2["phaseA_run"], m2["phaseB_run"], m2["rows_out"]) == (0, 0, 0)
