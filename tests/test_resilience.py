"""Failure injection: an actor in the fused flagship pool (the
production sink's own per-shard actor) dies mid-run (process exit, as
on a preempted node); Ray restarts it and re-executes the lost tasks,
and the result is identical to a clean run — the at-least-once +
deterministic-output contract the resumable sink and lineage layer
rely on."""

import os
import tempfile

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_actor_death_mid_run_recovers(ray_session):
    import pyarrow as pa

    import ray
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines.flagship import FusedReadTransform, load_catalog

    catalog = load_catalog(SF)
    catalog_ref = ray.put(catalog)
    marker = os.path.join(tempfile.mkdtemp(), "died_once")
    paths = sorted(pages_paths(SF))

    class FlakyFusedReadTransform(FusedReadTransform):
        """Kills its worker process on the first batch of the first
        actor to reach it; every retry/other actor runs clean."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL)
                os.close(fd)
                os._exit(1)  # simulated node/process loss
            except FileExistsError:
                pass
            return super().__call__(batch)

    def run(cls):
        ds = ray.data.from_items(
            [{"path": p} for p in paths], override_num_blocks=len(paths)
        ).map_batches(
            cls,
            fn_constructor_kwargs={"catalog_ref": catalog_ref},
            batch_format="pyarrow", batch_size=1, concurrency=2, num_cpus=1,
            max_task_retries=-1, max_restarts=-1,
        )
        return (
            ds.select_columns(["url", "z_out", "unc", "region_index"])
            .to_pandas().sort_values("url").reset_index(drop=True)
        )

    clean = run(FusedReadTransform)
    flaky = run(FlakyFusedReadTransform)
    assert os.path.exists(marker), "the failure injection never fired"
    assert len(flaky) == len(clean)
    assert (flaky["url"] == clean["url"]).all()
    np.testing.assert_array_equal(flaky["z_out"].to_numpy(), clean["z_out"].to_numpy())
    np.testing.assert_array_equal(
        flaky["region_index"].to_numpy(), clean["region_index"].to_numpy()
    )
