"""Failure injection: a worker running the fused flagship's per-shard
task (the production sink's own stage) dies mid-run (process exit, as
on a preempted node); Ray re-executes the lost task on another worker,
whose cached catalog state is rebuilt from the broadcast ref when it
has none, and the result is identical to a clean run — the
at-least-once + deterministic-output contract the resumable sink and
lineage layer rely on."""

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
