"""Task-built blocks as already-executed Datasets
(``exchange.from_blocks``): the flagship's shard task, the substrate's
map task and the exchange's reduce task return each block with its
metadata, so building the Dataset submits no metadata task and
iterating it starts no Ray Data executor, and the Dataset answers as
``ray.data.from_arrow_refs`` over the same blocks does. A query over
reads starts no executor at all."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture
def counts(monkeypatch):
    """Streaming executors started and ``from_arrow_refs`` metadata
    tasks submitted while the test runs."""
    import ray.data.read_api as read_api
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    n = {"executors": 0, "metadata_tasks": 0}
    init, remote_fn = StreamingExecutor.__init__, read_api.cached_remote_fn

    def counting_init(self, *args, **kwargs):
        n["executors"] += 1
        init(self, *args, **kwargs)

    def counting_remote_fn(fn, **kwargs):
        if fn is read_api.get_table_block_metadata_schema:
            n["metadata_tasks"] += 1
        return remote_fn(fn, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "__init__", counting_init)
    monkeypatch.setattr(read_api, "cached_remote_fn", counting_remote_fn)
    return n


def _flagship():
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.pipelines.flagship import flagship_pipeline

    ensure_fixtures(SF)
    return flagship_pipeline(SF)


def _exchange():
    """A two-leg exchange over driver tables: per-key sums of both
    legs, some keys on one leg only."""
    from vyperdatum_ray.pipelines import exchange

    a = exchange.from_arrow(pa.table({"k": pa.array(np.arange(200) % 37, pa.int64()),
                                      "x": pa.array(np.arange(200), pa.int64())}))
    b = exchange.from_arrow(pa.table({"k": pa.array(np.arange(50) % 41, pa.int64()),
                                      "y": pa.array(np.arange(50) * 0.5)}))

    def reduce(fa: pd.DataFrame, fb: pd.DataFrame) -> pd.DataFrame:
        keys = np.union1d(fa["k"], fb["k"]).astype(np.int64)
        return pd.DataFrame({"k": keys,
                             "x": fa.groupby("k")["x"].sum().reindex(keys, fill_value=0)
                             .to_numpy(np.int64),
                             "y": fb.groupby("k")["y"].sum().reindex(keys, fill_value=0.0)
                             .to_numpy(np.float64)})

    return exchange.exchange([(a, None), (b, None)], reduce)


BUILDERS = {"flagship_pipeline": _flagship, "exchange": _exchange}


@pytest.mark.parametrize("build", list(BUILDERS))
def test_iterating_starts_no_executor_and_no_metadata_task(ray_session, counts, build):
    ds = BUILDERS[build]()
    assert counts["metadata_tasks"] == 0
    executors = counts["executors"]  # an exchange's legs may run a pipeline
    rows = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))
    assert rows == ds.count() > 0
    assert counts == {"executors": executors, "metadata_tasks": 0}


@pytest.mark.parametrize("build", list(BUILDERS))
def test_answers_as_from_arrow_refs_does(ray_session, build):
    """Rows, blocks, schema and frames equal ``from_arrow_refs``' over
    the same blocks. ``size_bytes`` is the blocks' size as their task
    measured it, as Ray Data's own map tasks report it: the stored block
    lacks the validity bitmap of each column with no null (Ray's Arrow
    serializer drops it), which the metadata task then measures, so the
    two differ by at most one bitmap a column a block."""
    import ray

    ds = BUILDERS[build]()
    refs = ds.to_arrow_refs()
    ref = ray.data.from_arrow_refs(refs)
    assert ds.count() == ref.count()
    assert ds.num_blocks() == ref.num_blocks() == len(refs)
    assert ds.schema() == ref.schema()
    pd.testing.assert_frame_equal(ds.to_pandas(), ref.to_pandas())
    bitmaps = sum(t.num_columns * -(-t.num_rows // 8) for t in ray.get(refs))
    assert 0 <= ds.size_bytes() - ref.size_bytes() <= bitmaps


@pytest.mark.parametrize("name", ["geocode", "tpch_q3", "shuffle_join"])
def test_queries_over_reads_start_no_executor(ray_session, counts, name):
    """A map query (``geocode``), an exchange over reads (``tpch_q3``'s
    lineitem leg, behind two maps over reads) and a two-leg exchange
    over reads (``shuffle_join``) run their reads, maps and exchange
    legs as plain tasks: no Ray Data executor starts, from the call to
    the collected frame."""
    import __ray_entry__ as E
    from scripts.check_correctness import to_pandas
    from vyperdatum_ray.fixtures import ensure_fixtures

    ensure_fixtures(SF)
    assert len(to_pandas(E.queries()[name](SF))) > 0
    assert counts == {"executors": 0, "metadata_tasks": 0}


def test_zero_row_shard_keeps_its_typed_schema(ray_session, tmp_path):
    """A shard with no page gives a zero-row block with every column
    and type of a full shard's, and the Dataset's schema is that one."""
    import ray
    from vyperdatum_ray.fixtures import ensure_fixtures, pages_paths
    from vyperdatum_ray.pipelines.flagship import flagship_fused

    ensure_fixtures(SF)
    path = sorted(pages_paths(SF))[0]
    empty = str(tmp_path / "part-empty.parquet")
    pq.write_table(pq.read_schema(path).empty_table(), empty)
    full, none = flagship_fused(SF, paths=[path]), flagship_fused(SF, paths=[empty])
    assert none.count() == 0 and none.num_blocks() == 1
    assert none.schema() == full.schema()
    (block,), (own,) = ray.get(none.to_arrow_refs()), ray.get(full.to_arrow_refs())
    assert block.num_rows == 0 < own.num_rows and block.schema == own.schema
