"""Failure injection: a worker running the fused flagship's per-shard
task (``flagship._fused_shard``) dies mid-run (process exit, as on a
preempted node), both under the Dataset-returning flagship family and
under the checkpointed sink, which runs the same task with its write as
the task's ``post``; Ray re-executes the lost task on another worker,
whose cached catalog state is rebuilt from the broadcast ref when it
has none, and the result is identical to a clean run — the at-least-once + deterministic-output contract the resumable
sink and lineage layer rely on. With two shards a work unit, the lost
task's whole unit re-runs, and each of its records is still committed
once. The exchange's split and reduce tasks recover the same way."""

import os

SF = "/root/testdata/sf0.001"


def test_flagship_worker_death_recovers(ray_session, tmp_path, monkeypatch):
    """The first ``_fused_shard`` attempt kills its worker process;
    ``flagship_fused`` still completes, under the task's own retry
    policy, and returns a frame identical to a clean run, rows in the
    same order."""
    _flagship_worker_death(tmp_path, monkeypatch)


def test_flagship_worker_death_in_a_two_shard_unit(ray_session, tmp_path, monkeypatch):
    """As above, with two shards a unit: the retry re-runs the whole
    unit."""
    from test_flagship_semantics import _units_of_two

    from vyperdatum_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "work_units", _units_of_two)
    _flagship_worker_death(tmp_path, monkeypatch)


def _flagship_worker_death(tmp_path, monkeypatch):
    import pandas as pd

    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.pipelines import flagship

    # sf0.01 has 3 shards: the kill lands beside live tasks
    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    ensure_fixtures(sf)
    clean = flagship.flagship_fused(sf).to_pandas()

    marker = str(tmp_path / "died_once")
    task = flagship._fused_shard
    body = task._function

    def flaky_fused_shard(*args):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            os._exit(1)  # simulated node/process loss
        except FileExistsError:
            pass
        return body(*args)

    # the real task's resources and retry policy
    monkeypatch.setattr(flagship, "_fused_shard",
                        ray.remote(**task._default_options)(flaky_fused_shard))
    flaky = flagship.flagship_fused(sf).to_pandas()
    assert os.path.exists(marker), "the failure injection never fired"
    pd.testing.assert_frame_equal(flaky, clean)


def test_sink_worker_death_recovers(ray_session, tmp_path, monkeypatch):
    """The first shard-task attempt of the checkpointed run
    (``flagship._fused_shard``, which the sink looks up when it runs)
    kills its worker process; the run still completes, commits every
    shard's record exactly once and writes output frame-identical to a
    clean run."""
    _sink_worker_death(tmp_path, monkeypatch)


def test_sink_worker_death_in_a_two_shard_unit(ray_session, tmp_path, monkeypatch):
    """As above, with two shards a unit: the lost task's unit re-runs
    whole, and each of its shards' records is committed exactly once."""
    from test_flagship_semantics import _units_of_two

    from vyperdatum_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "work_units", _units_of_two)
    _sink_worker_death(tmp_path, monkeypatch)


def _sink_worker_death(tmp_path, monkeypatch):
    from collections import Counter

    import pandas as pd
    import pyarrow.parquet as pq

    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.pipelines import flagship
    from vyperdatum_ray.state import lineage

    sf = "/root/testdata/sf0.01"  # 3 shards: the kill lands beside live tasks
    ensure_fixtures(sf)
    clean_out, out = str(tmp_path / "clean"), str(tmp_path / "out")
    clean = lineage.run_flagship_checkpointed(sf, clean_out)

    marker = str(tmp_path / "died_once")
    task = flagship._fused_shard
    body = task._function

    def flaky_fused_shard(*args):
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

    monkeypatch.setattr(flagship, "_fused_shard",
                        ray.remote(**task._default_options)(flaky_fused_shard))
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


def test_exchange_worker_death_recovers(ray_session, tmp_path):
    """A two-leg exchange whose leg fn, and then whose reduce, kills its
    worker on its first call with rows still completes, under the
    tasks' own retry policy, and equals a clean run. Only a call with
    rows may exit: the driver runs both on zero rows for the schemas."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines import exchange as ex

    paths = {}
    for col, keys in (("a", range(0, 300, 2)), ("b", range(0, 300, 3))):
        paths[col] = str(tmp_path / f"{col}.parquet")
        pq.write_table(pa.table({"k": pa.array(keys, pa.int64()),
                                 col: pa.array([3 * x for x in keys], pa.int64())}),
                       paths[col], row_group_size=50)

    def run(where=None):
        marker = str(tmp_path / f"died_in_{where}")

        def maybe_exit(here, n_rows):
            if here == where and n_rows:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                    os._exit(1)  # simulated node/process loss
                except FileExistsError:
                    pass

        def leg(col):
            def fn(t):
                maybe_exit("leg", t.num_rows)
                return t.select(["k", col])
            return fn

        def join(a, b):
            maybe_exit("reduce", len(a) + len(b))
            m = a.merge(b, on="k", how="outer").fillna(-1)
            return m.astype({"k": "int64", "a": "int64", "b": "int64"})

        out = ex.collect(ex.exchange([(ex.read(paths[c]), leg(c)) for c in "ab"], join))
        return out.sort_values("k").reset_index(drop=True)

    clean = run()
    assert len(clean) == 200
    for where in ("leg", "reduce"):
        flaky = run(where)
        assert os.path.exists(tmp_path / f"died_in_{where}"), \
            f"the failure injection never fired in the {where}"
        pd.testing.assert_frame_equal(flaky, clean)
