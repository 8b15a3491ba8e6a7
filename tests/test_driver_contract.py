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


def test_reads_go_through_the_exchange_helper():
    """Every engine read is ``exchange.read``, which sizes its blocks
    (one per row group) and records what the exchange sizes from."""
    out = subprocess.run(
        ["grep", "-rlnF", "--include=*.py", "ray.data.read_parquet(",
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
