"""Failure injection: a worker running the fused flagship's per-shard
work dies mid-run (process exit, as on a preempted node), both in a
Dataset stage (the Dataset-returning flagship family) and in the
checkpointed sink's own remote task; Ray re-executes the lost task on
another worker, whose cached catalog state is rebuilt from the
broadcast ref when it has none, and the result is identical to a clean
run — the at-least-once + deterministic-output contract the resumable
sink and lineage layer rely on."""

import os
import tempfile

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_worker_death_mid_run_recovers(ray_session):
    import pyarrow as pa

    import ray
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines import flagship

    catalog = flagship.load_catalog(SF)
    fn_kwargs = flagship._shard_kwargs(catalog)
    marker = os.path.join(tempfile.mkdtemp(), "died_once")
    paths = sorted(pages_paths(SF))

    def flaky_fused_shard(batch: pa.Table, **kwargs) -> pa.Table:
        """Kills its worker process on the first shard to reach it;
        every retry/other task runs clean."""
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL)
            os.close(fd)
            os._exit(1)  # simulated node/process loss
        except FileExistsError:
            pass
        return flagship._fused_shard(batch, **kwargs)

    def run(fn):
        ds = ray.data.from_items(
            [{"path": p} for p in paths], override_num_blocks=len(paths)
        ).map_batches(
            fn, fn_kwargs=fn_kwargs,
            batch_format="pyarrow", batch_size=1, num_cpus=1, max_retries=-1,
        )
        return (
            ds.select_columns(["url", "z_out", "unc", "region_index"])
            .to_pandas().sort_values("url").reset_index(drop=True)
        )

    clean = run(flagship._fused_shard)
    flaky = run(flaky_fused_shard)
    assert os.path.exists(marker), "the failure injection never fired"
    assert len(flaky) == len(clean)
    assert (flaky["url"] == clean["url"]).all()
    np.testing.assert_array_equal(flaky["z_out"].to_numpy(), clean["z_out"].to_numpy())
    np.testing.assert_array_equal(
        flaky["region_index"].to_numpy(), clean["region_index"].to_numpy()
    )


def test_sink_worker_death_recovers(ray_session, tmp_path, monkeypatch):
    """The first ``_sink_shard`` attempt kills its worker process; the
    checkpointed run still completes, commits every shard's record
    exactly once and writes output frame-identical to a clean run."""
    from collections import Counter

    import pandas as pd
    import pyarrow.parquet as pq

    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.state import lineage

    sf = "/root/testdata/sf0.01"  # 3 shards: the kill lands beside live tasks
    ensure_fixtures(sf)
    clean_out, out = str(tmp_path / "clean"), str(tmp_path / "out")
    clean = lineage.run_flagship_checkpointed(sf, clean_out)

    marker = str(tmp_path / "died_once")
    body = lineage._sink_shard._function

    @ray.remote(num_cpus=1)
    def flaky_sink_shard(*args):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            os._exit(1)  # simulated node/process loss
        except FileExistsError:
            pass
        return body(*args)

    commits = Counter()
    commit = lineage._commit_record

    def counting_commit(out_dir, rec):
        commits[rec["shard"]] += 1
        commit(out_dir, rec)

    monkeypatch.setattr(lineage, "_sink_shard", flaky_sink_shard)
    monkeypatch.setattr(lineage, "_commit_record", counting_commit)
    m = lineage.run_flagship_checkpointed(sf, out)
    assert os.path.exists(marker), "the failure injection never fired"
    assert m["n_shards_run"] == m["n_shards_total"] == clean["n_shards_total"]
    assert commits == Counter({s: 1 for s in lineage.completed_shards(
        out, m["transform_version"])})
    assert len(commits) == m["n_shards_total"]

    def frame(d):
        return pq.read_table(d).to_pandas().sort_values("url").reset_index(drop=True)

    pd.testing.assert_frame_equal(frame(out), frame(clean_out))
