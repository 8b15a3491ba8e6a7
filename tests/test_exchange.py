"""The salted-exchange primitive (pipelines/exchange.py): footer-derived
width, leg tagging and per-leg frames, zero-row legs, chaining, and
width independence."""

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

    legs, path = _legs(tmp_path, [1, 2, 3, 3], [2, 3, 4, 40])
    got = _canon(collect(exchange(legs, _outer_join(), (path, None))))
    want = pd.DataFrame({"k": [1, 2, 3, 3, 4, 40],
                         "a": [10, 20, 30, 30, -1, -1],
                         "b": ["", "b2", "b3", "b3", "b4", "b40"]})
    pd.testing.assert_frame_equal(got, _canon(want))


def test_zero_row_leg(ray_session, tmp_path):
    """A zero-row leg neither crashes nor changes the other leg's
    rows; with every leg empty the collect is typed, not columnless."""
    from vyperdatum_ray.pipelines.exchange import collect, exchange

    legs, path = _legs(tmp_path, [1, 2, 5], [])
    got = _canon(collect(exchange(legs, _outer_join(), (path, None))))
    want = pd.DataFrame({"k": [1, 2, 5], "a": [10, 20, 50], "b": ["", "", ""]})
    pd.testing.assert_frame_equal(got, _canon(want))

    legs, path = _legs(tmp_path, [], [])
    empty = collect(exchange(legs, _outer_join(), (path, None)))
    assert len(empty) == 0 and list(empty.columns) == ["k", "a", "b"]
    assert empty["k"].dtype == np.int64 and empty["a"].dtype == np.int64


def test_chained_exchange_stays_arrow(ray_session, tmp_path):
    """An exchange's output is a leg of the next: its blocks are Arrow
    (a pandas/arrow block mix breaks Ray's sort sampler), and the
    second exchange sees the first one's rows re-keyed."""
    from vyperdatum_ray.pipelines.exchange import collect, exchange

    legs, path = _legs(tmp_path, [1, 2, 3], [2, 3, 4])

    def rekey(a, b):
        m = a.merge(b, on="k")                     # keys 2, 3
        return pd.DataFrame({"k": m["a"].to_numpy(np.int64),     # 20, 30
                             "src": m["k"].to_numpy(np.int64)})

    first = exchange(legs, rekey, (path, None))
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
        count, (path, None)))
    want = pd.DataFrame({"k": [20, 30], "src": [2, 3], "n_other": [1, 1]})
    pd.testing.assert_frame_equal(_canon(second), want)


@pytest.mark.parametrize("bits", [1, 3])
def test_forced_width_independence(ray_session, tmp_path, monkeypatch, bits):
    """At a forced width the rows split into at most 2^bits groups, one
    per distinct salt, and the joined output is unchanged."""
    from vyperdatum_ray.pipelines import exchange as ex

    keys = list(range(-5, 40, 3))
    legs, path = _legs(tmp_path, keys, keys[::2])
    base = _canon(ex.collect(ex.exchange(legs, _outer_join(), (path, None))))

    def groups(a, b):
        return pd.DataFrame({"n": [1], "lo": [int((a["k"] & ((1 << bits) - 1)).min())
                                              if len(a) else -1]})

    monkeypatch.setattr(ex, "JOIN_FLOOR", bits)
    forced = _canon(ex.collect(ex.exchange(legs, _outer_join(), (path, None))))
    pd.testing.assert_frame_equal(base, forced)
    per = ex.collect(ex.exchange(legs, groups, (path, None)))
    assert int(per["n"].sum()) == len({k % (1 << bits) for k in keys})


def test_salt_bits_widen_with_bytes(monkeypatch):
    """The width is the floor until the footer-estimated payload per
    group passes the byte target, then widens until it fits (the
    100-TB guarantee), never past the cap — for a text payload and an
    int-join payload alike, at the one floor."""
    from vyperdatum_ray.pipelines import exchange as ex

    floor = ex.JOIN_FLOOR
    for path, cols in (
            (f"{SF}/documents.parquet", ("doc_id", "text")),
            (f"{SF}/lineitem.parquet", ("l_orderkey", "l_suppkey",
                                        "l_extendedprice", "l_discount"))):
        total, rows = ex.footer_stats(path, cols)
        assert total > 0 and rows > 0
        # sf-scale tables keep the floor
        assert ex.salt_bits(path, cols) == floor
        # shrink the target so this table "looks" 100-TB-sized
        target = max(total >> (floor + 4), 1)
        monkeypatch.setattr(ex, "TARGET_GROUP_BYTES", target)
        wide = ex.salt_bits(path, cols)
        assert wide > floor and (total >> wide) <= target
        # a zero target widens until the payload vanishes, never past the cap
        monkeypatch.setattr(ex, "TARGET_GROUP_BYTES", 0)
        zero = ex.salt_bits(path, cols)
        assert wide <= zero <= ex.SALT_BITS_CAP and (total >> zero) == 0
        monkeypatch.undo()


def test_exchange_set_names_registry_queries():
    """``check_correctness.py @exchange`` and ``@text`` name real
    queries()."""
    import __ray_entry__ as E
    from scripts.check_correctness import expand

    names = expand(["@exchange"])
    assert "shuffle_join" in names and "tpch_q8" in names
    assert names <= set(E.queries())
    text = expand(["@text"])
    assert len(text) == 12 and "seq_pack" in text and text <= set(E.queries())
