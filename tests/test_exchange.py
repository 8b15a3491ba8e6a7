"""The two merges of pipelines/exchange.py. The salted exchange: one
read block per row group, the width from the legs' blocks, leg tagging
and per-leg frames, zero-row legs, chaining, and width independence.
The driver fold: sum/min/max per key and globally, distinct keys, typed
zero rows, and block-count independence of every folded query. The
keyed reduces: width and block-count independence of every one."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _write(d, name, **cols):
    pq.write_table(pa.table(cols), d / f"{name}.parquet")
    return str(d / f"{name}.parquet")


def _legs(d, a_keys, b_keys):
    """Leg A: (k, a); leg B: (k, b) — disjoint payload columns."""
    import ray.data

    pa_ = _write(d, "a", ka=pa.array(a_keys, pa.int64()),
                 a=pa.array([10 * x for x in a_keys], pa.int64()))
    pb = _write(d, "b", kb=pa.array(b_keys, pa.int64()),
                b=pa.array([f"b{x}" for x in b_keys], pa.string()))
    return [(ray.data.read_parquet(pa_),
             lambda t: pa.table({"k": t.column("ka"), "a": t.column("a")})),
            (ray.data.read_parquet(pb),
             lambda t: pa.table({"k": t.column("kb"), "b": t.column("b")}))], pa_


def _outer_join():
    """The reduce of the two ``_legs``, built per call: Ray ships a
    nested function by value, a test-module one by a name its workers
    cannot import."""
    def outer(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        # each frame holds only its own leg's columns
        assert list(a.columns) == ["k", "a"] and list(b.columns) == ["k", "b"]
        m = a.merge(b, on="k", how="outer")
        return pd.DataFrame({"k": m["k"].to_numpy(np.int64),
                             "a": m["a"].fillna(-1).to_numpy(np.int64),
                             "b": m["b"].fillna("").to_numpy(object)})
    return outer


def _canon(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_two_legs_with_one_sided_keys(ray_session, tmp_path):
    from vyperdatum_ray.pipelines.exchange import collect, exchange

    legs, _ = _legs(tmp_path, [1, 2, 3, 3], [2, 3, 4, 40])
    got = _canon(collect(exchange(legs, _outer_join())))
    want = pd.DataFrame({"k": [1, 2, 3, 3, 4, 40],
                         "a": [10, 20, 30, 30, -1, -1],
                         "b": ["", "b2", "b3", "b3", "b4", "b40"]})
    pd.testing.assert_frame_equal(got, _canon(want))


def test_zero_row_leg(ray_session, tmp_path):
    """A zero-row leg neither crashes nor changes the other leg's
    rows; with every leg empty the collect is typed, not columnless."""
    from vyperdatum_ray.pipelines.exchange import collect, exchange

    legs, _ = _legs(tmp_path, [1, 2, 5], [])
    got = _canon(collect(exchange(legs, _outer_join())))
    want = pd.DataFrame({"k": [1, 2, 5], "a": [10, 20, 50], "b": ["", "", ""]})
    pd.testing.assert_frame_equal(got, _canon(want))

    legs, _ = _legs(tmp_path, [], [])
    empty = collect(exchange(legs, _outer_join()))
    assert len(empty) == 0 and list(empty.columns) == ["k", "a", "b"]
    assert empty["k"].dtype == np.int64 and empty["a"].dtype == np.int64


def test_chained_exchange_stays_arrow(ray_session, tmp_path):
    """An exchange's output is a leg of the next: its blocks are Arrow
    (``to_arrow_refs`` hands them to the next split tasks as they are,
    where any other block format costs one conversion task a block),
    and the second exchange sees the first one's rows re-keyed."""
    from vyperdatum_ray.pipelines.exchange import collect, exchange

    legs, path = _legs(tmp_path, [1, 2, 3], [2, 3, 4])

    def rekey(a, b):
        m = a.merge(b, on="k")                     # keys 2, 3
        return pd.DataFrame({"k": m["a"].to_numpy(np.int64),     # 20, 30
                             "src": m["k"].to_numpy(np.int64)})

    first = exchange(legs, rekey)
    kinds = first.map_batches(lambda b: pa.table({"t": [type(b).__name__]}),
                              batch_format=None).to_pandas()["t"]
    assert set(kinds) == {"Table"}

    def count(rekeyed, other):
        return pd.DataFrame({"k": rekeyed["k"], "src": rekeyed["src"],
                             "n_other": np.full(len(rekeyed), len(other), np.int64)})

    import ray.data

    other = ray.data.read_parquet(path)
    second = collect(exchange(
        [(first, None), (other, lambda t: pa.table({"k": t.column("a")}))],
        count))
    want = pd.DataFrame({"k": [20, 30], "src": [2, 3], "n_other": [1, 1]})
    pd.testing.assert_frame_equal(_canon(second), want)


@pytest.mark.parametrize("bits", [1, 3])
def test_forced_width_independence(ray_session, tmp_path, monkeypatch, bits):
    """At a forced width the rows split into at most 2^bits groups, one
    per distinct salt, and the joined output is unchanged."""
    from vyperdatum_ray.pipelines import exchange as ex

    keys = list(range(-5, 40, 3))
    legs, _ = _legs(tmp_path, keys, keys[::2])
    base = _canon(ex.collect(ex.exchange(legs, _outer_join())))

    def groups(a, b):
        return pd.DataFrame({"n": [1], "lo": [int((a["k"] & ((1 << bits) - 1)).min())
                                              if len(a) else -1]})

    monkeypatch.setattr(ex, "JOIN_FLOOR", bits)
    forced = _canon(ex.collect(ex.exchange(legs, _outer_join())))
    pd.testing.assert_frame_equal(base, forced)
    per = ex.collect(ex.exchange(legs, groups))
    assert int(per["n"].sum()) == len({k % (1 << bits) for k in keys})


def _row_group_files(d, n_files, n_groups, keys=(0,)):
    """``n_files`` parquet files of ``n_groups`` row groups each, every
    row group holding all of ``keys`` in column ``ka``."""
    t = pa.table({"ka": pa.array(list(keys) * n_groups, pa.int64())})
    paths = []
    for i in range(n_files):
        paths.append(str(d / f"part-{i:03d}.parquet"))
        pq.write_table(t, paths[-1], row_group_size=len(keys))
        assert pq.ParquetFile(paths[-1]).metadata.num_row_groups == n_groups
    return paths


def test_read_takes_one_block_per_row_group(ray_session, tmp_path):
    """3 files x 4 row groups read as 12 blocks, recorded and real; a
    zero-row file (no row group) still reads as one block."""
    from vyperdatum_ray.pipelines import exchange as ex

    paths = _row_group_files(tmp_path, 3, 4, keys=(1, 2))
    assert ex.row_groups(paths) == 12
    nbytes, rows = ex.footer_stats(paths)
    assert rows == 24 and nbytes > 0
    ds = ex.read(paths)
    assert ex._blocks(ds) == 12
    assert ex.materialize(ds).num_blocks() == 12

    empty = str(tmp_path / "empty.parquet")
    pq.ParquetWriter(empty, pa.schema([("ka", pa.int64())])).close()
    assert pq.ParquetFile(empty).metadata.num_row_groups == 0
    assert ex.row_groups([empty]) == 1
    ds = ex.read(empty)
    assert ex._blocks(ds) == 1 and ex.collect(ds).columns.tolist() == ["ka"]


def test_row_groups_extrapolate_past_the_footer_sample(tmp_path):
    """Past ``_FOOTER_SAMPLE_FILES`` files the row-group count is the
    sample's, scaled by file count: 64 two-group files then 6
    one-group files estimate 2 x 70, not the true 134."""
    from vyperdatum_ray.pipelines import exchange as ex

    assert ex._FOOTER_SAMPLE_FILES == 64
    two = _row_group_files(tmp_path, 64, 2)
    d = tmp_path / "z"                # sorts after every "part-" file
    d.mkdir()
    one = _row_group_files(d, 6, 1)
    assert ex.row_groups(two + one) == 140
    assert ex.row_groups(str(tmp_path)) == 140    # a directory expands
    assert ex.row_groups(one) == 6


def test_read_schema_drops_pandas_metadata(ray_session):
    """The helper's read schema is the footer's projected to the read
    columns, without the ``pandas`` key (which makes Ray log a failed
    schema hash per block); the recorded zero-row table is the
    dataset's own schema."""
    from vyperdatum_ray.pipelines import exchange as ex

    path = f"{SF}/lineitem.parquet"
    assert b"pandas" in pq.read_schema(path).metadata
    cols = ["l_orderkey", "l_shipdate", "l_returnflag"]
    ds = ex.read(path, cols)
    zero = ex._zero_rows(ds)
    assert zero.column_names == cols and not zero.schema.metadata
    assert ds.schema().base_schema == zero.schema
    assert not (ds.schema().base_schema.metadata or {}).get(b"pandas")
    assert ex.collect(ds).shape[1] == 3


_POW2 = [0] + [1 << i for i in range(30)]


def _width(legs) -> int:
    """The salt width of ``exchange(legs)`` whose legs all key on
    ``_POW2``: at width w its keys fall into w + 1 salts (2^0 ...
    2^(w-1) and 0), one reduce call each."""
    from vyperdatum_ray.pipelines import exchange as ex

    def one(*frames):
        return pd.DataFrame({"n": [1]})

    return int(ex.collect(ex.exchange(legs, one))["n"].sum()) - 1


def test_width_from_leg_blocks(ray_session, tmp_path, monkeypatch):
    """width = clamp(ceil(log2(sum of leg blocks)), JOIN_FLOOR,
    SALT_BITS_CAP): a read counts its row groups, an exchange output
    the sum over its legs, a ``materialize``d leg its input's, a lazy
    map one."""
    from vyperdatum_ray.pipelines import exchange as ex

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    twelve = ex.read(_row_group_files(tmp_path / "a", 3, 4, _POW2))
    five = ex.read(_row_group_files(tmp_path / "b", 1, 5, _POW2))
    key = lambda t: pa.table({"k": t.column("ka")})  # noqa: E731
    assert _width([(twelve, key)]) == ex.JOIN_FLOOR == 4    # 12 blocks
    monkeypatch.setattr(ex, "JOIN_FLOOR", 1)
    assert _width([(twelve, key)]) == 4                     # ceil(log2 12)
    assert _width([(five, key)]) == 3
    assert _width([(twelve, key), (five, key)]) == 5        # 17 blocks
    first = ex.exchange([(twelve, key)], lambda d: d)
    assert ex._blocks(first) == 12
    assert _width([(first, None), (five, key)]) == 5        # 12 + 5
    assert _width([(ex.materialize(first), None)]) == 4
    lazy = twelve.map_batches(key, batch_format="pyarrow")
    assert ex._blocks(lazy) == 1
    assert _width([(lazy, None)]) == 1


def test_width_stops_at_the_cap(ray_session, tmp_path, monkeypatch):
    """A block count far past any real corpus (10^12 documents in
    128-row groups) widens the salt only to ``SALT_BITS_CAP``."""
    from vyperdatum_ray.pipelines import exchange as ex

    ds = ex.read(_row_group_files(tmp_path, 1, 1, _POW2))
    monkeypatch.setattr(ex, "_blocks", lambda ds: 10**12 // 128)
    assert _width([(ds, lambda t: pa.table({"k": t.column("ka")}))]) \
        == ex.SALT_BITS_CAP == 26


def test_exchange_set_names_registry_queries():
    """``check_correctness.py @exchange``, ``@text``, ``@aggregate`` and
    ``@keyed`` name real queries()."""
    import __ray_entry__ as E
    from scripts.check_correctness import expand

    names = expand(["@exchange"])
    assert "shuffle_join" in names and "tpch_q8" in names
    assert names <= set(E.queries())
    text = expand(["@text"])
    assert len(text) == 12 and "seq_pack" in text and text <= set(E.queries())
    folded = expand(["@aggregate"])
    assert {"tpch_q1", "extent", "zonal_stats", "embedding_centroid",
            "events_window"} <= folded <= set(E.queries())
    keyed = expand(["@keyed"])
    assert {"top_hosts", "spatial_order", "seq_pack", "supplier_list_agg",
            "dedup_clusters_embedding"} <= keyed <= set(E.queries())


_HOW = {"n": "sum", "lo": "min", "hi": "max"}


def _partial(k, n, lo, hi):
    return pa.table({"k": pa.array(k, pa.string()), "n": pa.array(n, pa.int64()),
                     "lo": pa.array(lo, pa.float64()), "hi": pa.array(hi, pa.float64())})


_EMPTY = _partial([], [], [], [])


def test_fold_sums_mins_and_maxes_per_key_ascending():
    """A key in only some partials keeps its own values; zero-row
    partials add nothing; keys come back ascending, columns typed."""
    from vyperdatum_ray.pipelines.exchange import fold

    parts = [_partial(["c", "a"], [1, 2], [0.5, 2.0], [0.5, 2.0]), _EMPTY,
             _partial(["b", "c"], [4, 8], [3.0, -1.0], [3.0, 9.0])]
    got = fold(iter(parts), ["k"], _HOW, _EMPTY)
    want = pd.DataFrame({"k": ["a", "b", "c"], "n": [2, 4, 9],
                         "lo": [2.0, 3.0, -1.0], "hi": [2.0, 3.0, 9.0]})
    pd.testing.assert_frame_equal(got, want)


def test_fold_without_keys_gives_the_global_row():
    from vyperdatum_ray.pipelines.exchange import fold

    parts = [_partial(["c", "a"], [1, 2], [0.5, 2.0], [0.5, 2.0]), _EMPTY,
             _partial(["b"], [4], [-3.0], [3.0])]
    got = fold(iter(parts), [], _HOW, _EMPTY)
    pd.testing.assert_frame_equal(got, pd.DataFrame({"n": [7], "lo": [-3.0], "hi": [3.0]}))


@pytest.mark.parametrize("keys", [["k"], []])
@pytest.mark.parametrize("parts", [[], [_EMPTY, _EMPTY]])
def test_fold_of_no_rows_is_typed(keys, parts):
    """No partial at all, or only zero-row partials: zero rows with the
    partials' columns and types, with keys and without."""
    from vyperdatum_ray.pipelines.exchange import fold

    got = fold(iter(parts), keys, _HOW, _EMPTY)
    want = _EMPTY.select(keys + list(_HOW)).to_pandas()
    assert len(got) == 0 and list(got.columns) == keys + list(_HOW)
    assert dict(got.dtypes) == dict(want.dtypes)


@pytest.mark.parametrize("parts,want", [
    ([_partial(["c", "a"], [1, 2], [0.5, 2.0], [0.5, 2.0]), _EMPTY,
      _partial(["b", "c", "a"], [4, 8, 1], [3.0, -1.0, 0.0], [3.0, 9.0, 0.0])],
     ["a", "b", "c"]),
    ([], []),
    ([_EMPTY, _EMPTY], []),
], ids=["keyed", "no_partial", "zero_row_partials"])
def test_fold_without_columns_gives_the_distinct_keys(parts, want):
    """``how={}`` folds to the distinct keys, ascending and typed, with
    no partial and with zero-row partials too."""
    from vyperdatum_ray.pipelines.exchange import fold

    got = fold(iter(parts), ["k"], {}, _EMPTY)
    pd.testing.assert_frame_equal(
        got, pd.DataFrame({"k": pd.Series(want, dtype=object)}))


def test_map_typed_blocks_carry_no_pandas_metadata(ray_session):
    """A ``map_typed`` fn that builds its output with ``from_pandas``
    gives blocks without the ``pandas`` schema key."""
    from vyperdatum_ray.pipelines.exchange import from_arrow, map_typed

    def fn(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(t.to_pandas().assign(m=lambda d: d["v"] * 2),
                                    preserve_index=False)

    assert b"pandas" in fn(pa.table({"v": [1]})).schema.metadata
    ds = map_typed(from_arrow(pa.table({"v": pa.array([1, 2, 3], pa.int64())})), fn)
    blocks = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert blocks and all(not b.schema.metadata for b in blocks)


def test_fold_over_dataset_blocks(ray_session, tmp_path):
    """Over ``map_typed(read, partial)`` the partial runs once per read
    block (one per row group) and the fold equals the whole table's
    groupby; a zero-row read folds to typed zero rows."""
    from vyperdatum_ray.pipelines.exchange import fold, map_typed, read

    rng = np.random.default_rng(7)
    t = pa.table({"k": pa.array(rng.integers(0, 5, 300), pa.int64()),
                  "v": pa.array(rng.integers(-50, 50, 300), pa.int64())})
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path, row_group_size=100)

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("k").aggregate([("v", "sum"), ("v", "min"), ("v", "count")])
        return pa.table({"k": g.column("k"), "s": g.column("v_sum"),
                         "lo": g.column("v_min"), "blocks": pa.array(
                             np.ones(g.num_rows, np.int64))})

    how = {"s": "sum", "lo": "min", "blocks": "sum"}
    got = fold(map_typed(read(path), partial), ["k"], how)
    df = t.to_pandas()
    want = df.groupby("k", as_index=False).agg(s=("v", "sum"), lo=("v", "min"))
    pd.testing.assert_frame_equal(got[["k", "s", "lo"]], want)
    assert (got["blocks"] == 3).all()

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(t.schema.empty_table(), empty)
    got = fold(map_typed(read(empty), partial), ["k"], how)
    assert len(got) == 0 and list(got.columns) == ["k", "s", "lo", "blocks"]
    assert set(got.dtypes) == {np.dtype(np.int64)}


def test_folded_queries_are_independent_of_block_count(ray_session, monkeypatch):
    """Every ``@aggregate`` query at sf0.01 gives the same frame and
    dtypes with its reads forced to 1 and to 4 blocks as at their own
    row-group counts: partial sums change order with block boundaries,
    and the folds' results must not."""
    import __ray_entry__ as E
    from scripts.check_correctness import expand, normalize, to_pandas
    from vyperdatum_ray.pipelines import exchange as ex

    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    queries = E.queries()
    names = sorted(expand(["@aggregate"]))

    def run():
        return {n: normalize(to_pandas(queries[n](sf))) for n in names}

    own = run()
    for blocks in (1, 4):
        monkeypatch.setattr(ex, "row_groups", lambda paths, b=blocks: b)
        for name, df in run().items():
            pd.testing.assert_frame_equal(df, own[name], check_exact=True, obj=name)


def test_keyed_queries_are_independent_of_width_and_block_count(ray_session, monkeypatch):
    """Every ``@keyed`` query at sf0.01 gives the same frame and dtypes
    at two exchange floors (2 and 256 groups at least) and with its
    reads forced to one block as at its own: the per-group top-k ties, the label
    propagation (its distributed path forced) and ``spatial_order``'s
    ranks (a narrow shard width too) must not depend on where the group
    or block boundaries fall."""
    import functools

    import __ray_entry__ as E
    from scripts.check_correctness import expand, normalize, to_pandas
    from vyperdatum_ray.pipelines import exchange as ex
    from vyperdatum_ray.pipelines.ann import _emb, clusters_from_pairs, q_neardup_embedding
    from vyperdatum_ray.pipelines.queries import q_spatial_order
    from vyperdatum_ray.pipelines.training import q_seq_pack

    def distributed_clusters(sf):
        # the label propagation (pair_cap=0) over the default 36 pair blocks
        return clusters_from_pairs(q_neardup_embedding(sf), _emb(sf),
                                   "vec_id_a", "vec_id_b", "vec_id", 0)

    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    queries = {n: E.queries()[n] for n in sorted(expand(["@keyed"]))}
    queries["dedup_clusters_embedding-distributed"] = distributed_clusters
    queries["seq_pack-two_level"] = functools.partial(
        q_seq_pack, shard_bits=2, max_driver_shards=0)
    queries["spatial_order-shift_16"] = functools.partial(q_spatial_order, shard_shift=16)

    def run():
        return {n: normalize(to_pandas(fn(sf))) for n, fn in queries.items()}

    own = run()
    for attr, value in (("JOIN_FLOOR", 1), ("JOIN_FLOOR", 8),
                        ("row_groups", lambda paths: 1)):
        with monkeypatch.context() as m:
            m.setattr(ex, attr, value)
            for name, df in run().items():
                pd.testing.assert_frame_equal(df, own[name], check_exact=True,
                                              obj=f"{name} {attr}")
    assert all(len(df) for df in own.values())
