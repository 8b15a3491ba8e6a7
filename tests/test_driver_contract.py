"""Structural guards for the driver contract in __ray_entry__.py:
every oracle key has a query, callables accept an sf_dir, entry() is
wired, and no library module calls ray.init."""

import inspect
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_keys_subset_of_queries():
    sys.path.insert(0, ROOT)
    import __ray_entry__ as E

    qs, os_ = E.queries(), E.oracle_sql()
    assert set(os_) <= set(qs)
    # the SQL-checkable surface should stay the clear majority
    assert len(os_) >= 0.6 * len(qs)


def test_queries_take_sf_dir():
    sys.path.insert(0, ROOT)
    import __ray_entry__ as E

    for name, fn in E.queries().items():
        params = list(inspect.signature(fn).parameters)
        assert params and params[0] == "sf_dir", name


def test_no_ray_init_in_library():
    """Only bench.py, scripts/ and the test fixture own a Ray session."""
    out = subprocess.run(
        ["grep", "-rn", "ray.init(", os.path.join(ROOT, "vyperdatum_ray"),
         os.path.join(ROOT, "__ray_entry__.py")],
        capture_output=True, text=True,
    )
    assert out.stdout.strip() == "", out.stdout


def test_join_transform_starts_no_ray():
    """Building the flagship's state in a process with no Ray session
    (a driver-side caller) starts no Ray instance and leaves Arrow's
    thread pool alone."""
    code = (
        "import pyarrow as pa, ray\n"
        "from vyperdatum_ray.catalog import Catalog\n"
        "from vyperdatum_ray.pipelines.flagship import JoinTransform\n"
        "pa.set_cpu_count(3)\n"
        "JoinTransform(Catalog(regions=[], grids={}, sigmas={}, geoid_sigmas={}),\n"
        "              'ellipse', 'mllw', True, False)\n"
        "assert not ray.is_initialized()\n"
        "assert pa.cpu_count() == 3, pa.cpu_count()\n"
    )
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Started a local Ray instance" not in out.stderr


def test_reads_go_through_the_exchange_helper():
    """Every engine read is ``exchange.read``, a source of one unit per
    row group that the substrate's own tasks read: no module, the
    substrate included, builds a Ray Data parquet read."""
    out = subprocess.run(
        ["grep", "-rlnF", "--include=*.py", "ray.data.read_parquet(",
         os.path.join(ROOT, "vyperdatum_ray")],
        capture_output=True, text=True,
    )
    found = {os.path.relpath(p, ROOT) for p in out.stdout.split()}
    assert not found, found


def test_maps_run_on_the_substrate():
    """Every map is ``exchange.map`` (or a fold's, an exchange's or a
    shard task's own step): no module builds a Ray Data map or an actor
    pool, and the helpers of the streaming-map path are gone."""
    out = subprocess.run(
        ["grep", "-rnF", "--include=*.py", "-e", ".map_batches(", "-e", "concurrency=",
         "-e", "map_typed", "-e", "_META", os.path.join(ROOT, "vyperdatum_ray")],
        capture_output=True, text=True,
    )
    assert out.returncode == 1 and not out.stdout, out.stdout


def test_keyed_reduces_go_through_the_exchange_module():
    """Rows of one key meet only in ``pipelines/exchange.py``: every
    keyed reduce is an ``exchange.fold`` or an exchange there, whose
    split and reduce tasks group rows themselves, so no module calls
    ``map_groups`` or Ray's native aggregates."""
    out = subprocess.run(
        ["grep", "-rlnF", "--include=*.py", "-e", "map_groups(", "-e", "ray.data.aggregate",
         os.path.join(ROOT, "vyperdatum_ray")],
        capture_output=True, text=True,
    )
    found = {os.path.relpath(p, ROOT) for p in out.stdout.split()}
    assert not found, found


def test_task_built_datasets_go_through_the_exchange_module():
    """Blocks built by the engine's own tasks become Datasets only
    through ``exchange.from_blocks``, whose tasks return each block's
    metadata (no metadata task per block, and a plan already executed),
    so no module calls ``from_arrow_refs``, and that helper is the only
    code importing Ray Data's internals."""
    out = subprocess.run(
        ["grep", "-rlnF", "--include=*.py", "-e", "from_arrow_refs", "-e", "ray.data._internal",
         os.path.join(ROOT, "vyperdatum_ray")],
        capture_output=True, text=True,
    )
    found = {os.path.relpath(p, ROOT) for p in out.stdout.split()}
    assert found == {os.path.join("vyperdatum_ray", "pipelines", "exchange.py")}, found


def test_checkpointed_writers_dispatch_plain_tasks():
    """Both checkpointed writers (the flagship sink and the corpus run)
    return metrics plus files, so they dispatch ``ray.remote`` tasks:
    nothing under ``vyperdatum_ray/state/`` names Ray Data or the
    flagship's Dataset builder."""
    out = subprocess.run(
        ["grep", "-rnF", "--include=*.py", "-e", "ray.data", "-e", "_per_shard",
         "-e", ".map_batches(", "-e", ".iter_rows(",
         os.path.join(ROOT, "vyperdatum_ray", "state")],
        capture_output=True, text=True,
    )
    assert out.returncode == 1 and not out.stdout, out.stdout


def test_flagship_family_dispatches_plain_tasks():
    """``flagship_fused`` submits one ``ray.remote`` task per work unit
    of shards and wraps their refs in a materialized Dataset:
    ``pipelines/flagship.py`` builds no per-job streaming pipeline."""
    out = subprocess.run(
        ["grep", "-nF", "-e", "from_items", "-e", "_per_shard", "-e", ".map_batches(",
         os.path.join(ROOT, "vyperdatum_ray", "pipelines", "flagship.py")],
        capture_output=True, text=True,
    )
    assert out.returncode == 1 and not out.stdout, out.stdout
