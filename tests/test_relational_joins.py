"""The relational queries on the salted exchange (pipelines/exchange.py):
path- and width-independence plus semantics edge cases. The multi-join
reshape must produce the same rows whether the customer side is
broadcast or exchanged, and at any forced salt width (every copy of a
key shares its salt group)."""

import numpy as np
import pandas as pd
import pytest

from scripts.check_correctness import NAMED_SETS

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _at_width(monkeypatch, bits, fn, *args, **kw):
    """``fn(*args, **kw)`` with every exchange's floor forced to 2^bits
    salt groups: each test table reads as one block, so the floor is the
    width of a one- or two-leg exchange."""
    from vyperdatum_ray.pipelines import exchange

    with monkeypatch.context() as m:
        m.setattr(exchange, "JOIN_FLOOR", bits)
        return fn(*args, **kw)


def _independent(monkeypatch, fn, attr, value):
    """Canonical default output of ``fn(SF)``, asserted equal to the
    output with ``exchange.<attr>`` forced to ``value``."""
    from vyperdatum_ray.pipelines import exchange

    def run():
        out = fn(SF)
        return _canon(out if isinstance(out, pd.DataFrame) else out.to_pandas())

    base = run()
    with monkeypatch.context() as m:
        m.setattr(exchange, attr, value)
        pd.testing.assert_frame_equal(base, run())
    return base


def _width_independent(monkeypatch, fn, bits=1):
    """``_independent`` at a forced width."""
    return _independent(monkeypatch, fn, "JOIN_FLOOR", bits)


def test_q5_exchange_path_matches_broadcast(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines import relational

    fast = relational.q_tpch_q5(SF)             # customer fits the budget
    monkeypatch.setattr(relational, "Q5_BROADCAST_CUST_BYTES", 0)
    slow = relational.q_tpch_q5(SF)             # forced 2-exchange path
    pd.testing.assert_frame_equal(_canon(fast), _canon(slow))
    assert len(fast) >= 1
    assert (fast["revenue"].to_numpy() > 0).all()


def test_q5_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines import relational

    base = _canon(relational.q_tpch_q5(SF))
    monkeypatch.setattr(relational, "Q5_BROADCAST_CUST_BYTES", 0)
    for bits in (1, 3):
        forced = _canon(_at_width(monkeypatch, bits, relational.q_tpch_q5, SF))
        pd.testing.assert_frame_equal(base, forced)


_WIDTH_ONE = [
    "sessionize", "asof_join", "session_join", "tpch_q3", "shuffle_join",
    "bloom_semi_join", "gap_fill_resample", "repeat_buyers", "lapsed_buyers",
    "price_band_join",
    # the text, corpus, image and embedding queries (``@text``)
    "dedup_exact", "dedup_normalized", "line_dedup", "url_dedup",
    "minhash_pairs", "simhash_neardup", "neardup_jaccard",
    "neardup_clusters_text", "corpus_pipeline", "seq_pack", "image_neardup",
    "neardup_embedding_lsh"]


@pytest.mark.parametrize("name,split", [
    *(pytest.param(n, False, id=n) for n in _WIDTH_ONE),
    *(pytest.param(n, True, id=f"{n}-8_blocks")
      for n in NAMED_SETS["exchange"] + NAMED_SETS["text"])])
def test_exchange_query_width_independence(ray_session, monkeypatch, name,
                                           split):
    """Every other query on the exchange: identical rows at width 1; and
    every ``@exchange`` and ``@text`` query: identical rows with each
    read forced to 8 blocks. Every sf0.001 table is one row group, so
    the default reads one block per table: the forced split is what
    puts several map blocks and sort partitions under each exchange."""
    import __ray_entry__ as E

    if split:
        _independent(monkeypatch, E.queries()[name], "row_groups",
                     lambda paths: 8)
    else:
        assert len(_width_independent(monkeypatch, E.queries()[name])) > 0


def test_shuffle_join_matches_oracle(ray_session):
    """The big-big repartition join finishes and matches its DuckDB
    oracle."""
    from scripts.check_correctness import compare
    from vyperdatum_ray.pipelines.relational import ORACLES, q_shuffle_join

    got = q_shuffle_join(SF)
    want = _ddb(SF, ORACLES["shuffle_join"])
    assert compare("shuffle_join", got, want) == []
    assert len(got) == 5 and got["n_items"].sum() > 0


def test_q12_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q12

    base = _width_independent(monkeypatch, q_tpch_q12)
    assert (base["high_line_count"] + base["low_line_count"] > 0).all()


def test_semi_anti_join_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_semi_anti_join

    base = _width_independent(monkeypatch, q_semi_anti_join)
    # both join classes are exercised by the fixture: some order has a
    # >90-day-late line (semi) and some order has no lines (anti)
    assert base["n_late"].sum() > 0
    assert base["n_no_lines"].sum() > 0


def test_empty_match_dtype_parity(ray_session, tmp_path):
    """On a corpus where the filters match nothing, the engine's
    output dtypes must still match DuckDB's (NULL sums come back
    float64 NaN, empty counts come back int64) — the comparator
    hashes dtypes, not just values."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sfempty"
    d.mkdir()
    ts = datetime.datetime(1990, 1, 1)          # outside every window
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1], pa.int64()),
        "l_partkey": pa.array([1], pa.int64()),
        "l_quantity": pa.array([1.0], pa.float64()),
        "l_extendedprice": pa.array([10.0], pa.float64()),
        "l_discount": pa.array([0.03], pa.float64()),
        "l_shipdate": pa.array([ts], pa.timestamp("us")),
        "l_returnflag": pa.array(["A"], pa.string()),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([1], pa.int64()),
        "p_type": pa.array(["PROMO"], pa.string()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1], pa.int64()),
        "o_orderpriority": pa.array(["2-HIGH"], pa.string()),
    }), d / "orders.parquet")

    from vyperdatum_ray.pipelines.relational import (ORACLES, q_tpch_q6,
                                                     q_tpch_q12, q_tpch_q14)

    con = duckdb.connect()
    for t in ("lineitem", "part", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM parquet_scan('{d}/{t}.parquet')")
    for name, fn in (("tpch_q6", q_tpch_q6), ("tpch_q12", q_tpch_q12),
                     ("tpch_q14", q_tpch_q14)):
        mine = fn(str(d))
        theirs = con.execute(ORACLES[name]).df()
        assert len(mine) == len(theirs), name
        for c in mine.columns:
            assert mine[c].dtype.kind == theirs[c].dtype.kind, (
                name, c, mine[c].dtype, theirs[c].dtype)


def test_q18_salt_width_and_threshold(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q18

    base = _width_independent(monkeypatch, q_tpch_q18)
    # HAVING actually prunes: every surviving order clears the bar
    assert (base["total_qty"] > 200.0).all()
    assert 0 < len(base) <= 100


def test_bloom_semi_join_exact_under_high_fp(ray_session):
    """A deliberately tiny filter (64 bits -> nearly everything
    collides) must not change the result: false positives only
    inflate the verify exchange, never the answer."""
    from vyperdatum_ray.pipelines.relational import q_bloom_semi_join

    base = q_bloom_semi_join(SF)
    tiny = q_bloom_semi_join(SF, m_bits=64)
    pd.testing.assert_frame_equal(base, tiny)
    assert int(base["n_items"].iloc[0]) > 0


def test_bloom_filter_membership_and_fp_rate():
    from vyperdatum_ray.pipelines.relational import _bloom_set, _bloom_test

    rng = np.random.RandomState(7)
    members = rng.randint(0, 1 << 40, 5000).astype(np.int64)
    others = rng.randint(1 << 41, 1 << 42, 20000).astype(np.int64)
    m_bits = 1 << 17                     # ~26 bits/key: FP well under 1%
    words = _bloom_set(members, m_bits)
    assert _bloom_test(members, words, m_bits).all()   # no false negatives
    fp = _bloom_test(others, words, m_bits).mean()
    assert fp < 0.02, fp


def test_embedding_centroid_matches_numpy(ray_session):
    """Element-wise per-label centroid equals a single-process numpy
    reference (same exact-int scaling, so bit-identical floats)."""
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.ann import CENTROID_SCALE, q_embedding_centroid

    out = q_embedding_centroid(SF).to_pandas().sort_values(
        ["label", "dim"]).reset_index(drop=True)
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    scaled = np.rint(mat * CENTROID_SCALE).astype(np.int64)
    for lbl, grp in t.groupby("label"):
        ref = scaled[grp.index].sum(0) / (len(grp) * CENTROID_SCALE)
        got = out.loc[out["label"] == lbl, "centroid"].to_numpy()
        assert (got == ref).all()
        assert (out.loc[out["label"] == lbl, "n_vecs"] == len(grp)).all()


def test_q13_left_join_zero_fill(ray_session, monkeypatch):
    """Customers with no qualifying orders appear as a c_count=0
    bucket — the left-outer semantics an inner join would drop — and
    the distribution is salt-width independent."""
    from vyperdatum_ray.pipelines.relational import q_tpch_q13

    base = _width_independent(monkeypatch, q_tpch_q13)
    assert (base.loc[base["c_count"] == 0, "custdist"] > 0).all()
    assert len(base.loc[base["c_count"] == 0]) == 1
    # every customer lands in exactly one bucket
    import pyarrow.parquet as pq
    n_cust = pq.read_metadata(f"{SF}/customer.parquet").num_rows
    assert int(base["custdist"].sum()) == n_cust


def test_q16_two_level_distinct(ray_session, monkeypatch):
    """supplier_cnt never exceeds the global supplier count, and the
    two-level distinct exchange is width-independent."""
    from vyperdatum_ray.pipelines.relational import q_tpch_q16

    base = _width_independent(monkeypatch, q_tpch_q16)
    assert len(base) > 0
    import pyarrow.parquet as pq
    n_supp = pq.read_metadata(f"{SF}/supplier.parquet").num_rows
    assert (base["supplier_cnt"] >= 1).all()
    assert (base["supplier_cnt"] <= n_supp).all()


def test_q22_threshold_is_exact(ray_session, monkeypatch):
    """The broadcast scalar threshold keeps exactly the customers a
    single-process integer-cents reference keeps."""
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_tpch_q22

    base = _width_independent(monkeypatch, q_tpch_q22)

    cust = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    cents = np.rint(cust["c_acctbal"].to_numpy() * 100.0).astype(np.int64)
    pos = cents > 0
    urgent = set(orders.loc[orders["o_orderpriority"].str.startswith("1"),
                            "o_custkey"])
    keep = (cents * int(pos.sum()) > int(cents[pos].sum())) & \
        ~cust["c_custkey"].isin(urgent).to_numpy()
    ref = cust[keep].groupby("c_mktsegment", as_index=False).agg(
        numcust=("c_custkey", "size"))
    got = base[["c_mktsegment", "numcust"]].reset_index(drop=True)
    ref = ref.sort_values("c_mktsegment").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, ref.astype({"numcust": np.int64}))


def test_min_cost_supplier_argmin_tiebreak(ray_session, monkeypatch):
    """The per-part argmin is total: at the minimum price the smallest
    suppkey wins, across any salt width, and the enrich name matches
    the supplier dimension row."""
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_min_cost_supplier

    base = _width_independent(monkeypatch, q_min_cost_supplier)

    line = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    ic = np.rint(line["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
    ref = pd.DataFrame({"k": line["l_partkey"], "ic": ic,
                        "sk": line["l_suppkey"]}).sort_values(
        ["k", "ic", "sk"]).drop_duplicates("k")
    assert len(base) == len(ref)
    m = base.merge(ref, left_on="l_partkey", right_on="k")
    assert (m["best_suppkey"] == m["sk"]).all()
    assert (np.rint(m["min_price"] * 100).astype(np.int64) == m["ic"]).all()
    supp = pq.read_table(f"{SF}/supplier.parquet").to_pandas()
    sm = base.merge(supp, left_on="best_suppkey", right_on="s_suppkey")
    assert (sm["best_supplier"] == sm["s_name"]).all()


def test_running_total_window(ray_session, monkeypatch):
    """The distributed per-key cumulative window matches a
    single-process pandas cumsum reference at any salt width, and the
    per-segment offset subtraction is exact for NEGATIVE amounts too
    (a monotone-accumulate shortcut would break there)."""
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_running_total

    base = _width_independent(monkeypatch, q_running_total)

    o = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    o["cents"] = np.rint(o["o_totalprice"].to_numpy() * 100).astype(np.int64)
    o = o.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    o["run"] = o.groupby("o_custkey")["cents"].cumsum() / 100.0
    m = base.merge(o[["o_orderkey", "run"]], on="o_orderkey")
    assert (m["running_spend"] == m["run"]).all()


def test_running_total_negative_amounts(ray_session, tmp_path, monkeypatch):
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_running_total

    d = tmp_path / "neg"
    d.mkdir()
    ts = [datetime.datetime(1995, 1, i + 1) for i in range(6)]
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "o_custkey": pa.array([7, 7, 7, 9, 9, 9], pa.int64()),
        "o_totalprice": pa.array([10.0, -25.5, 4.0, -1.0, -2.0, 3.0],
                                 pa.float64()),
        "o_orderdate": pa.array(ts, pa.timestamp("us")),
    }), d / "orders.parquet")
    out = _at_width(monkeypatch, 1, q_running_total, str(d)).to_pandas().sort_values(
        "o_orderkey").reset_index(drop=True)
    assert out["running_spend"].tolist() == [
        10.0, -15.5, -11.5, -1.0, -3.0, 0.0]


def test_supplier_list_agg_sorted(ray_session):
    from vyperdatum_ray.pipelines.relational import q_supplier_list_agg

    out = q_supplier_list_agg(SF)
    assert (out["n_suppliers"] >= 1).all()
    for row in out.itertuples():
        names = row.supplier_list.split(",")
        assert names == sorted(names)
        assert len(names) == row.n_suppliers


def test_full_outer_join_all_three_match_classes(ray_session, tmp_path, monkeypatch):
    """Matched, events-only (NULL balance), and customer-only
    (zero count) keys all survive the same exchange pass."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_full_outer_join

    d = tmp_path / "fo"
    d.mkdir()
    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 5, 5, 5, 99], pa.int64()),
    }), d / "events.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_acctbal": pa.array([10.5, -3.25, 0.0], pa.float64()),
    }), d / "customer.parquet")
    out = _at_width(monkeypatch, 1, q_full_outer_join, str(d)).to_pandas().sort_values(
        "ukey").reset_index(drop=True)
    assert out["ukey"].tolist() == [1, 2, 3, 5, 99]
    assert out["n_events"].tolist() == [2, 0, 0, 3, 1]
    assert out["c_acctbal"].tolist()[:3] == [10.5, -3.25, 0.0]
    assert np.isnan(out["c_acctbal"].to_numpy()[3:]).all()


def test_full_outer_join_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_full_outer_join

    base = _width_independent(monkeypatch, q_full_outer_join)
    # fixture customers without events keep a zero count
    assert (base["n_events"] == 0).any()
    assert (base["n_events"] > 0).any()


def test_min_cost_supplier_drops_unknown_suppkey(ray_session, tmp_path, monkeypatch):
    """A suppkey absent from the supplier dimension drops its part row
    (inner-join semantics), never misattributes a neighbour's name."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_min_cost_supplier

    d = tmp_path / "fk"
    d.mkdir()
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([10, 99, 10], pa.int64()),
        "l_extendedprice": pa.array([5.0, 1.0, 7.0], pa.float64()),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10], pa.int64()),
        "s_name": pa.array(["S10"], pa.string()),
    }), d / "supplier.parquet")
    out = _at_width(monkeypatch, 1, q_min_cost_supplier, str(d)).to_pandas().sort_values(
        "l_partkey").reset_index(drop=True)
    # part 1's argmin supplier (99) is unknown -> row drops; part 2 stays
    assert out["l_partkey"].tolist() == [2]
    assert out["best_supplier"].tolist() == ["S10"]


def test_q17_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q17

    _width_independent(monkeypatch, q_tpch_q17)


def test_q15_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q15

    base = _width_independent(monkeypatch, q_tpch_q15)
    assert len(base) >= 1


def test_q10_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q10

    base = _width_independent(monkeypatch, q_tpch_q10)
    assert len(base) >= 1
    # top-k is ordered by revenue desc before canonicalization
    raw = q_tpch_q10(SF)
    rev = raw["revenue"].to_numpy()
    assert (rev[:-1] >= rev[1:]).all()


def test_q10_missing_customer_frees_topk_slot(ray_session, tmp_path, monkeypatch):
    """A candidate whose custkey is absent from the customer table must
    not occupy a top-k slot (the oracle joins BEFORE the LIMIT)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_tpch_q10

    d = tmp_path / "fk10"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([100, 200], pa.int64()),
        "o_orderdate": pa.array(
            [pd.Timestamp("1996-02-01")] * 2, pa.timestamp("us")),
    }), d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2], pa.int64()),
        "l_extendedprice": pa.array([100.0, 50.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.0], pa.float64()),
        "l_returnflag": pa.array(["R", "R"], pa.string()),
    }), d / "lineitem.parquet")
    # customer 100 (the bigger spender) is missing from the dimension
    pq.write_table(pa.table({
        "c_custkey": pa.array([200], pa.int64()),
        "c_name": pa.array(["C200"], pa.string()),
        "c_nationkey": pa.array([0], pa.int64()),
    }), d / "customer.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0], pa.int64()),
        "n_name": pa.array(["N0"], pa.string()),
    }), d / "nation.parquet")
    out = _at_width(monkeypatch, 1, q_tpch_q10, str(d), k=1)
    assert out["c_custkey"].tolist() == [200]
    assert out["revenue"].tolist() == [50.0]


def test_q4_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q4

    base = _width_independent(monkeypatch, q_tpch_q4)
    assert (base["order_count"] > 0).all()


def test_q9_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q9

    base = _width_independent(monkeypatch, q_tpch_q9)
    assert len(base) > 0


def test_q19_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q19

    _width_independent(monkeypatch, q_tpch_q19)


def test_q19_or_counts_overlapping_clauses_once(ray_session, tmp_path,
                                                monkeypatch):
    """A line whose part satisfies TWO clauses (and whose quantity sits
    in both windows) must count once, per SQL OR semantics."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import vyperdatum_ray.pipelines.relational as rel

    monkeypatch.setattr(rel, "Q19_CLAUSES", (
        ("Brand#12", 50, 1.0, 20.0),       # windows overlap on [10, 20]
        ("Brand#12", 50, 10.0, 30.0),
    ))
    d = tmp_path / "q19"
    d.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array([1], pa.int64()),
        "p_brand": pa.array(["Brand#12"], pa.string()),
        "p_size": pa.array([5], pa.int64()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 1], pa.int64()),
        "l_quantity": pa.array([15.0, 25.0, 40.0], pa.float64()),
        "l_extendedprice": pa.array([10.0, 10.0, 10.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.0, 0.0], pa.float64()),
    }), d / "lineitem.parquet")
    out = _at_width(monkeypatch, 1, rel.q_tpch_q19, str(d))
    # qty 15 hits both clauses (counts once), 25 hits clause 2, 40 none
    assert out["n_lines"].tolist() == [2]
    assert out["revenue"].tolist() == [20.0]


def test_q11_salt_width_and_threshold(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q11

    base = _width_independent(monkeypatch, q_tpch_q11)
    # at sf0.001 the 0.1% threshold keeps a nonempty, strict subset
    loose = q_tpch_q11(SF, fraction_ppm=0)
    assert 0 < len(base) < len(loose)


def test_q11_empty_threshold_result_is_typed(ray_session):
    """An over-threshold filter that keeps nothing must return the
    TYPED empty frame (the pd.Series positional-dtype trap)."""
    from vyperdatum_ray.pipelines.relational import q_tpch_q11

    out = q_tpch_q11(SF, fraction_ppm=1_000_000)
    assert len(out) == 0
    assert out["p_partkey"].dtype == np.int64
    assert out["value"].dtype == np.float64


def test_q21_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q21

    base = _width_independent(monkeypatch, q_tpch_q21)
    assert len(base) > 0
    assert (base["numwait"] > 0).all()


def test_q21_blames_only_sole_returner(ray_session, tmp_path, monkeypatch):
    """Order 1: supplier 10 returned, 20 didn't -> 10 waits. Order 2:
    both returned -> nobody waits (NOT EXISTS fails). Order 3: single
    supplier returned -> nobody waits (EXISTS fails)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_tpch_q21

    d = tmp_path / "q21"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderstatus": pa.array(["F", "F", "F"], pa.string()),
    }), d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([10, 20, 10, 20, 10], pa.int64()),
        "l_returnflag": pa.array(["R", "N", "R", "R", "R"], pa.string()),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10, 20], pa.int64()),
        "s_name": pa.array(["S10", "S20"], pa.string()),
    }), d / "supplier.parquet")
    out = _at_width(monkeypatch, 1, q_tpch_q21, str(d))
    assert out["s_suppkey"].tolist() == [10]
    assert out["numwait"].tolist() == [1]


def test_q7_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q7

    base = _width_independent(monkeypatch, q_tpch_q7)
    assert len(base) > 0
    # only the two cross (supp, cust) nation pairs appear
    pairs = set(zip(base["supp_nation"], base["cust_nation"]))
    assert pairs <= {("NATION_3", "NATION_15"), ("NATION_15", "NATION_3")}


def test_q8_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q8

    base = _width_independent(monkeypatch, q_tpch_q8)
    assert len(base) > 0
    assert ((base["mkt_share"] >= 0) & (base["mkt_share"] <= 1)).all()


def test_event_lag_delta_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_event_lag_delta

    base = _width_independent(monkeypatch, q_event_lag_delta)
    # exactly one NaN delta (first event) and one NaN gap (last event)
    # per user
    n_users = base["user_id"].nunique()
    assert int(base["value_delta"].isna().sum()) == n_users
    assert int(base["next_gap_us"].isna().sum()) == n_users


def test_event_lag_delta_partition_edges(ray_session, tmp_path, monkeypatch):
    """Shifts must mask at user boundaries: user 1's first delta and
    last gap are NULL even when another user's rows are adjacent in
    the lexsort."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_event_lag_delta

    d = tmp_path / "lag"
    d.mkdir()
    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:10",
                         "2024-01-01 00:00:05"])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([7, 7, 8], pa.int64()),
        "value": pa.array([10.0, 13.5, 99.0], pa.float64()),
    }), d / "events.parquet")
    out = _at_width(monkeypatch, 1, q_event_lag_delta, str(d)).to_pandas().sort_values(
        "event_id").reset_index(drop=True)
    assert np.isnan(out["value_delta"].iloc[0])        # user 7 first
    assert out["value_delta"].iloc[1] == 3.5
    assert np.isnan(out["value_delta"].iloc[2])        # user 8 first
    assert out["next_gap_us"].iloc[0] == 10_000_000.0
    assert np.isnan(out["next_gap_us"].iloc[1])        # user 7 last
    assert np.isnan(out["next_gap_us"].iloc[2])        # user 8 last


def test_funnel_conversion_ordering_matters(ray_session, tmp_path, monkeypatch):
    """A purchase BEFORE the user's first signup must not convert;
    a purchase after it must, even with partials split across salt
    groups."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_funnel_conversion

    d = tmp_path / "funnel"
    d.mkdir()
    ts = pd.to_datetime([
        "2024-01-01", "2024-01-03",        # user 1: signup then purchase
        "2024-01-05", "2024-01-02",        # user 2: signup AFTER purchase
        "2024-01-04",                      # user 3: purchase only
    ])
    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(
            ["signup", "purchase", "signup", "purchase", "purchase"],
            pa.string()),
    }), d / "events.parquet")
    out = _at_width(monkeypatch, 1, q_funnel_conversion, str(d))
    assert out["n_signup"].tolist() == [2]
    assert out["n_converted"].tolist() == [1]


def test_funnel_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_funnel_conversion

    base = _width_independent(monkeypatch, q_funnel_conversion)
    assert int(base["n_signup"].iloc[0]) >= int(base["n_converted"].iloc[0])


def test_q8_bloom_path_matches_direct(ray_session):
    """The partkey bloom pushdown (forced on) and the direct exchange
    produce identical market shares."""
    from vyperdatum_ray.pipelines.relational import q_tpch_q8

    direct = _canon(q_tpch_q8(SF, bloom_min_probe_bytes=1 << 60))
    bloomed = _canon(q_tpch_q8(SF, bloom_min_probe_bytes=0))
    pd.testing.assert_frame_equal(direct, bloomed)


def test_q20_salt_width_independence(ray_session, monkeypatch):
    from vyperdatum_ray.pipelines.relational import q_tpch_q20

    base = _width_independent(monkeypatch, q_tpch_q20)
    assert len(base) > 0


def test_q20_majority_is_strict(ray_session, tmp_path, monkeypatch):
    """Exactly the fair-share multiple is NOT enough; a supplier over
    2x fair share for ANY one part qualifies once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_tpch_q20

    d = tmp_path / "q20"
    d.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["blue widget", "red widget"], pa.string()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        # part 1: 10 vs 10 over 2 suppliers -> exactly fair share x1,
        # nobody over the 2x bar. part 2: 90 vs 10 -> supplier 5 is at
        # 1.8x... no: q*ns > 2*tot needs q > tot, impossible with 2
        # suppliers unless one ships > the total. Use 3 suppliers:
        # part 2: 90, 10, 5 -> supplier 5 at 90*3 = 270 > 2*105 wins.
        "l_partkey": pa.array([1, 1, 2, 2, 2], pa.int64()),
        "l_suppkey": pa.array([5, 6, 5, 6, 7], pa.int64()),
        "l_quantity": pa.array([10.0, 10.0, 90.0, 10.0, 5.0], pa.float64()),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([5, 6, 7], pa.int64()),
        "s_name": pa.array(["S5", "S6", "S7"], pa.string()),
    }), d / "supplier.parquet")
    out = _at_width(monkeypatch, 1, q_tpch_q20, str(d))
    assert out["s_suppkey"].tolist() == [5]
    assert out["s_name"].tolist() == ["S5"]


def test_part_bloom_path_matches_direct(ray_session):
    """Forcing the partkey bloom pushdown on (budget 0) must not
    change any of the part-exchange queries' results."""
    from vyperdatum_ray.pipelines import relational as rel

    for fn in (rel.q_tpch_q9, rel.q_tpch_q17, rel.q_tpch_q19,
               rel.q_tpch_q20):
        direct = _canon(fn(SF, bloom_min_probe_bytes=1 << 60))
        bloomed = _canon(fn(SF, bloom_min_probe_bytes=0))
        pd.testing.assert_frame_equal(direct, bloomed)


def test_gap_fill_resample_zero_fills(ray_session, tmp_path):
    """Hours inside the span with no events appear with n_events = 0;
    the grid is the CROSS of all observed types x all span hours."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_gap_fill_resample

    d = tmp_path / "gaps"
    d.mkdir()
    ts = pd.to_datetime(["2024-01-01 00:10:00", "2024-01-01 03:20:00",
                         "2024-01-01 03:40:00"])
    pq.write_table(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(["click", "click", "view"], pa.string()),
    }), d / "events.parquet")
    out = q_gap_fill_resample(str(d))
    # 2 types x 4 hours (00..03) = 8 grid rows
    assert len(out) == 8
    clicks = out[out["event_type"] == "click"]["n_events"].tolist()
    views = out[out["event_type"] == "view"]["n_events"].tolist()
    assert clicks == [1, 0, 0, 1]
    assert views == [0, 0, 0, 1]
    assert out["n_events"].sum() == 3


def test_new_queries_empty_inputs_are_typed(ray_session, tmp_path, monkeypatch):
    """Every session-4 query must survive EMPTY input tables and
    return its typed empty frame (the pd.Series positional-dtype trap
    lived exactly in these guards)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines import relational as rel

    d = tmp_path / "empty"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64()),
        "o_orderstatus": pa.array([], pa.string()),
        "o_orderpriority": pa.array([], pa.string()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
    }), d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([], pa.int64()),
        "l_partkey": pa.array([], pa.int64()),
        "l_suppkey": pa.array([], pa.int64()),
        "l_quantity": pa.array([], pa.float64()),
        "l_extendedprice": pa.array([], pa.float64()),
        "l_discount": pa.array([], pa.float64()),
        "l_returnflag": pa.array([], pa.string()),
        "l_shipdate": pa.array([], pa.timestamp("us")),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_name": pa.array([], pa.string()),
        "c_nationkey": pa.array([], pa.int64()),
    }), d / "customer.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([], pa.int64()),
        "s_name": pa.array([], pa.string()),
        "s_nationkey": pa.array([], pa.int64()),
    }), d / "supplier.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([], pa.int64()),
        "p_name": pa.array([], pa.string()),
        "p_brand": pa.array([], pa.string()),
        "p_size": pa.array([], pa.int64()),
        "p_type": pa.array([], pa.string()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["NATION_3", "NATION_15"], pa.string()),
        "n_regionkey": pa.array([0, 0], pa.int64()),
    }), d / "nation.parquet")
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0], pa.int64()),
        "r_name": pa.array(["AMERICA"], pa.string()),
    }), d / "region.parquet")
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
    }), d / "events.parquet")

    sd = str(d)
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q4, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q9, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q10, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q15, sd)) == 0
    out17 = _at_width(monkeypatch, 1, rel.q_tpch_q17, sd)
    assert len(out17) == 1 and np.isnan(out17["avg_yearly"].iloc[0])
    out19 = _at_width(monkeypatch, 1, rel.q_tpch_q19, sd)
    assert out19["n_lines"].tolist() == [0]
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q20, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q21, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q7, sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_tpch_q8, sd)) == 0
    assert len(rel.q_gap_fill_resample(sd)) == 0
    assert len(_at_width(monkeypatch, 1, rel.q_event_lag_delta, sd).to_pandas()) == 0
    fc = _at_width(monkeypatch, 1, rel.q_funnel_conversion, sd)
    assert fc["n_signup"].tolist() == [0]


def test_top_price_ties_keeps_all_tied_rows(ray_session, tmp_path):
    """DENSE_RANK semantics: a tie on the k-th distinct price keeps
    every tied row, and tied prices share one rank."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_top_price_orders_ties

    d = tmp_path / "ties"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "o_orderpriority": pa.array(["1-URGENT"] * 6, pa.string()),
        # distinct prices: 50 > 40 > 30 > 20; 40 and 30 are tied pairs
        "o_totalprice": pa.array([50.0, 40.0, 40.0, 30.0, 30.0, 20.0],
                                 pa.float64()),
    }), d / "orders.parquet")
    out = q_top_price_orders_ties(str(d), k=3)
    # top-3 DISTINCT prices = {50, 40, 30} -> 5 rows survive, 20 drops
    assert out["o_orderkey"].tolist() == [1, 2, 3, 4, 5]
    assert out["price_rank"].tolist() == [1, 2, 2, 3, 3]


def test_repeat_buyers_requires_both_years(ray_session, tmp_path, monkeypatch):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_repeat_buyers

    d = tmp_path / "rb"
    d.mkdir()
    od = pd.to_datetime(["1996-05-01", "1997-06-01", "1996-03-01",
                         "1997-08-01", "1998-01-01"])
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 2, 3, 3], pa.int64()),
        "o_orderdate": pa.array(od, pa.timestamp("us")),
    }), d / "orders.parquet")
    out = _at_width(monkeypatch, 1, q_repeat_buyers, str(d))
    # cust 1: both years -> in; cust 2: only 1996; cust 3: 1997+1998
    assert out["c_custkey"].tolist() == [1]

    from vyperdatum_ray.pipelines.relational import q_lapsed_buyers
    lapsed = _at_width(monkeypatch, 1, q_lapsed_buyers, str(d))
    assert lapsed["c_custkey"].tolist() == [2]


def _ddb(sf_dir, sql):
    import duckdb
    import glob
    import os

    con = duckdb.connect()
    for f in glob.glob(os.path.join(sf_dir, "*.parquet")):
        t = os.path.basename(f)[:-8]
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{f}')")
    return con.execute(sql).df()


def test_q10_q21_randomized_vs_duckdb(ray_session, tmp_path, monkeypatch):
    """Seeded randomized differential test on TINY key spaces so FK
    gaps, revenue ties and empty salt groups all occur by chance."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import (ORACLES, q_tpch_q10,
                                                     q_tpch_q21)

    for seed in range(5):
        rng = np.random.RandomState(1000 + seed)
        d = tmp_path / f"rand{seed}"
        d.mkdir()
        n_ord, n_line = 40, 120
        ok = np.arange(n_ord, dtype=np.int64)
        pq.write_table(pa.table({
            "o_orderkey": pa.array(ok, pa.int64()),
            # custkeys 0..7 but customer table only knows 0..5 -> gaps
            "o_custkey": pa.array(rng.randint(0, 8, n_ord), pa.int64()),
            "o_orderdate": pa.array(pd.to_datetime("1996-01-01")
                                    + pd.to_timedelta(
                rng.randint(0, 400, n_ord), unit="D"), pa.timestamp("us")),
            "o_orderstatus": pa.array(
                rng.choice(["F", "O"], n_ord), pa.string()),
        }), d / "orders.parquet")
        pq.write_table(pa.table({
            "l_orderkey": pa.array(rng.randint(0, n_ord, n_line),
                                   pa.int64()),
            "l_suppkey": pa.array(rng.randint(0, 4, n_line), pa.int64()),
            # tiny integer prices -> revenue ties are common
            "l_extendedprice": pa.array(
                rng.randint(1, 4, n_line).astype(np.float64), pa.float64()),
            "l_discount": pa.array(np.zeros(n_line), pa.float64()),
            "l_returnflag": pa.array(
                rng.choice(["R", "N"], n_line), pa.string()),
        }), d / "lineitem.parquet")
        pq.write_table(pa.table({
            "c_custkey": pa.array(np.arange(6, dtype=np.int64), pa.int64()),
            "c_name": pa.array([f"C{i}" for i in range(6)], pa.string()),
            "c_nationkey": pa.array(rng.randint(0, 2, 6), pa.int64()),
        }), d / "customer.parquet")
        pq.write_table(pa.table({
            "n_nationkey": pa.array([0, 1], pa.int64()),
            "n_name": pa.array(["N0", "N1"], pa.string()),
        }), d / "nation.parquet")
        pq.write_table(pa.table({
            # supplier 3 missing -> q21 membership drops it
            "s_suppkey": pa.array([0, 1, 2], pa.int64()),
            "s_name": pa.array(["S0", "S1", "S2"], pa.string()),
        }), d / "supplier.parquet")

        got = _at_width(monkeypatch, 2, q_tpch_q10, str(d))
        want = _ddb(str(d), ORACLES["tpch_q10"])
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True),
            want.astype(got.dtypes.to_dict()).reset_index(drop=True),
            check_dtype=False), f"q10 seed {seed}"

        got21 = _at_width(monkeypatch, 2, q_tpch_q21, str(d))
        want21 = _ddb(str(d), ORACLES["tpch_q21"])
        pd.testing.assert_frame_equal(
            got21.reset_index(drop=True),
            want21.astype(got21.dtypes.to_dict()).reset_index(drop=True),
            check_dtype=False), f"q21 seed {seed}"


def test_q9_supplier_nation_fk_gap_vs_duckdb(ray_session, tmp_path, monkeypatch):
    """A supplier whose s_nationkey is missing from `nation` drops its
    lines, exactly as the oracle's inner join does, instead of raising."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines import relational as rel

    d = tmp_path
    pq.write_table(pa.table({
        "l_partkey": pa.array([0, 0, 1, 0], pa.int64()),
        "l_suppkey": pa.array([0, 1, 0, 1], pa.int64()),
        "l_extendedprice": pa.array([10.0, 20.0, 30.0, 40.0], pa.float64()),
        "l_discount": pa.array([0.01, 0.02, 0.0, 0.03], pa.float64()),
        "l_shipdate": pa.array(pd.to_datetime(
            ["1995-03-01", "1995-04-01", "1996-05-01", "1996-06-01"]),
            pa.timestamp("us")),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([0, 1], pa.int64()),
        "p_name": pa.array(["blue widget", "red bolt"], pa.string()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([0, 1], pa.int64()),
        "s_nationkey": pa.array([0, 9], pa.int64()),  # 9: not in nation
    }), d / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["NATION_3", "NATION_15"], pa.string()),
    }), d / "nation.parquet")

    got = _at_width(monkeypatch, 1, rel.q_tpch_q9, str(d)).reset_index(drop=True)
    want = _ddb(str(d), rel.ORACLES["tpch_q9"]).reset_index(drop=True)
    assert len(want) == 1
    pd.testing.assert_frame_equal(
        got, want.astype(got.dtypes.to_dict()), check_dtype=False)


def test_part_family_randomized_vs_duckdb(ray_session, tmp_path, monkeypatch):
    """Seeded randomized differential for the part-exchange family
    (q4/q9/q15/q17/q19/q20) — tiny domains force ties, FK gaps, empty
    clauses and all-NULL aggregates."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines import relational as rel

    for seed in range(3):
        rng = np.random.RandomState(2000 + seed)
        d = tmp_path / f"pf{seed}"
        d.mkdir()
        n_ord, n_line, n_part = 30, 100, 12
        pq.write_table(pa.table({
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64),
                                   pa.int64()),
            "o_custkey": pa.array(rng.randint(0, 6, n_ord), pa.int64()),
            "o_orderdate": pa.array(pd.to_datetime("1995-11-01")
                                    + pd.to_timedelta(
                rng.randint(0, 300, n_ord), unit="D"), pa.timestamp("us")),
            "o_orderstatus": pa.array(
                rng.choice(["F", "O"], n_ord), pa.string()),
            "o_orderpriority": pa.array(rng.choice(
                ["1-URGENT", "2-HIGH", "5-LOW"], n_ord), pa.string()),
        }), d / "orders.parquet")
        pq.write_table(pa.table({
            "l_orderkey": pa.array(rng.randint(0, n_ord, n_line),
                                   pa.int64()),
            "l_partkey": pa.array(rng.randint(0, n_part + 2, n_line),
                                  pa.int64()),     # some unknown parts
            "l_suppkey": pa.array(rng.randint(0, 4, n_line), pa.int64()),
            "l_quantity": pa.array(
                rng.randint(1, 30, n_line).astype(np.float64),
                pa.float64()),
            "l_extendedprice": pa.array(
                rng.randint(1, 50, n_line).astype(np.float64),
                pa.float64()),
            "l_discount": pa.array(
                rng.randint(0, 5, n_line) / 100.0, pa.float64()),
            "l_returnflag": pa.array(
                rng.choice(["R", "N"], n_line), pa.string()),
            "l_shipdate": pa.array(pd.to_datetime("1995-11-01")
                                   + pd.to_timedelta(
                rng.randint(0, 900, n_line), unit="D"), pa.timestamp("us")),
        }), d / "lineitem.parquet")
        pq.write_table(pa.table({
            "p_partkey": pa.array(np.arange(n_part, dtype=np.int64),
                                  pa.int64()),
            "p_name": pa.array(rng.choice(
                ["blue widget", "red bolt", "big widget"], n_part),
                pa.string()),
            "p_brand": pa.array(rng.choice(
                ["Brand#12", "Brand#23", "Brand#34", "Brand#9"], n_part),
                pa.string()),
            "p_size": pa.array(rng.randint(1, 40, n_part), pa.int64()),
            "p_type": pa.array(rng.choice(
                ["PROMO", "SMALL"], n_part), pa.string()),
        }), d / "part.parquet")
        pq.write_table(pa.table({
            "s_suppkey": pa.array([0, 1, 2], pa.int64()),  # 3 missing
            "s_name": pa.array(["S0", "S1", "S2"], pa.string()),
            "s_nationkey": pa.array([0, 1, 0], pa.int64()),
        }), d / "supplier.parquet")
        pq.write_table(pa.table({
            "n_nationkey": pa.array([0, 1], pa.int64()),
            "n_name": pa.array(["NATION_3", "NATION_15"], pa.string()),
            "n_regionkey": pa.array([0, 0], pa.int64()),
        }), d / "nation.parquet")
        pq.write_table(pa.table({
            "r_regionkey": pa.array([0], pa.int64()),
            "r_name": pa.array(["AMERICA"], pa.string()),
        }), d / "region.parquet")
        pq.write_table(pa.table({
            "c_custkey": pa.array(np.arange(5, dtype=np.int64), pa.int64()),
            "c_name": pa.array([f"C{i}" for i in range(5)], pa.string()),
            "c_nationkey": pa.array(rng.randint(0, 2, 5), pa.int64()),
        }), d / "customer.parquet")

        sd = str(d)
        for name, fn in [
            ("tpch_q4", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q4, s)),
            ("tpch_q9", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q9, s)),
            ("tpch_q15", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q15, s)),
            ("tpch_q17", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q17, s)),
            ("tpch_q19", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q19, s)),
            ("tpch_q20", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q20, s)),
            ("tpch_q7", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q7, s)),
            ("tpch_q8", lambda s: _at_width(monkeypatch, 2, rel.q_tpch_q8, s)),
        ]:
            got = fn(sd).reset_index(drop=True)
            want = _ddb(sd, rel.ORACLES[name]).reset_index(drop=True)
            try:
                pd.testing.assert_frame_equal(
                    got, want.astype(got.dtypes.to_dict())
                    if len(want) else got.iloc[:0],
                    check_dtype=False)
            except AssertionError as e:
                raise AssertionError(f"{name} seed {seed}: {e}") from e


def test_sharded_table_directory_layout(ray_session, tmp_path):
    """A table stored as a DIRECTORY of row-group files (the layout a
    100-TB table actually has) must work end to end: the reader
    accepts it and the footer-driven salt estimator samples the
    shards instead of crashing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_repeat_buyers
    from vyperdatum_ray.pipelines.exchange import footer_stats

    d = tmp_path / "sharded"
    (d / "orders.parquet").mkdir(parents=True)
    od1 = pd.to_datetime(["1996-05-01", "1997-06-01"])
    od2 = pd.to_datetime(["1996-03-01", "1997-08-01"])
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1], pa.int64()),
        "o_orderdate": pa.array(od1, pa.timestamp("us")),
    }), d / "orders.parquet" / "part-0.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([2, 3], pa.int64()),
        "o_orderdate": pa.array(od2, pa.timestamp("us")),
    }), d / "orders.parquet" / "part-1.parquet")

    nbytes, rows = footer_stats(str(d / "orders.parquet"))
    assert rows == 4 and nbytes > 0
    out = q_repeat_buyers(str(d))        # a directory read: one block per row group
    assert out["c_custkey"].tolist() == [1]


def test_run_query_cli(tmp_path):
    """The generic per-operator CLI writes parquet for both result
    kinds (Dataset stream and driver-sized frame) in a fresh
    process."""
    import json
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "cli_q1"
    r = subprocess.run(
        [sys.executable, "scripts/run_query.py", "--name", "tpch_q1",
         "--sf-dir", SF, "--out", str(out)],
        capture_output=True, text=True, cwd=root, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    assert rec["rows"] == 6
    import pyarrow.parquet as pq
    files = list(out.glob("*.parquet"))
    assert files and sum(
        pq.ParquetFile(f).metadata.num_rows for f in files) == 6


def test_run_query_cli_refuses_nonempty_out(tmp_path):
    """A Dataset result streams part files into ``--out``: a second run
    into the same directory must be refused (exit 2) instead of mixing
    the stale part files into the result and its reported row count."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "cli_flagship"
    cmd = [sys.executable, "scripts/run_query.py", "--name", "flagship_fused",
           "--sf-dir", SF, "--out", str(out)]
    first = subprocess.run(cmd, capture_output=True, text=True, cwd=repo, timeout=300)
    assert first.returncode == 0, first.stderr[-2000:]
    rows = json.loads(first.stdout.strip().splitlines()[-1])["rows"]
    on_disk = sum(pq.ParquetFile(f).metadata.num_rows for f in out.glob("*.parquet"))
    assert rows == on_disk > 0

    second = subprocess.run(cmd, capture_output=True, text=True, cwd=repo, timeout=300)
    assert second.returncode == 2, second.stdout[-2000:]
    assert "not empty" in second.stderr
    assert sum(pq.ParquetFile(f).metadata.num_rows
               for f in out.glob("*.parquet")) == rows


def test_pareto_front_ties_and_dominance():
    """Pure-kernel checks: ties on the front survive (no strict
    inequality), non-strict dominance in EITHER axis kills."""
    from vyperdatum_ray.pipelines.relational import _pareto_front

    pk = np.array([1, 2, 3, 4, 5], np.int64)
    size = np.array([1, 1, 2, 2, 3], np.int64)
    cents = np.array([500, 500, 300, 400, 300], np.int64)
    fpk, _, _ = _pareto_front(pk, size, cents)
    # (1,500)+(2,500) tie -> both stay; (2,300) stays; (2,400) and
    # (3,300) are dominated
    assert fpk.tolist() == [1, 2, 3]
    # randomized vs brute force
    rng = np.random.RandomState(7)
    for _ in range(20):
        n = rng.randint(1, 40)
        pk = np.arange(n, dtype=np.int64)
        size = rng.randint(1, 6, n).astype(np.int64)
        cents = rng.randint(1, 6, n).astype(np.int64)
        fpk, _, _ = _pareto_front(pk, size, cents)
        brute = [i for i in range(n) if not any(
            (size[j] <= size[i] and cents[j] <= cents[i]
             and (size[j] < size[i] or cents[j] < cents[i]))
            for j in range(n))]
        assert sorted(fpk.tolist()) == brute


def test_pareto_parts_block_split_invariant(ray_session, tmp_path):
    """The distributed front must not depend on how rows split across
    blocks: one file vs two shards give the same skyline."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_pareto_parts

    rng = np.random.RandomState(11)
    n = 60
    pk = np.arange(n, dtype=np.int64)
    size = rng.randint(1, 8, n).astype(np.int64)
    price = (rng.randint(1, 9, n) * 1.25).astype(np.float64)
    one = tmp_path / "one"
    one.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array(pk), "p_size": pa.array(size),
        "p_retailprice": pa.array(price)}), one / "part.parquet")
    two = tmp_path / "two"
    (two / "part.parquet").mkdir(parents=True)
    for i, sl in enumerate([slice(0, 17), slice(17, n)]):
        pq.write_table(pa.table({
            "p_partkey": pa.array(pk[sl]), "p_size": pa.array(size[sl]),
            "p_retailprice": pa.array(price[sl])}),
            two / "part.parquet" / f"s{i}.parquet")
    a = q_pareto_parts(str(one))
    b = q_pareto_parts(str(two))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def _write_random_fixture(d, rng):
    """Full fixture-shaped random TPC-H-ish tables with tiny key
    spaces: FK gaps, ties, empty groups and NULL-sum aggregates all
    occur by construction."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n_ord, n_line, n_part, n_cust, n_supp = 40, 140, 14, 8, 4
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
        "o_custkey": pa.array(rng.randint(0, n_cust + 2, n_ord),
                              pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_ord)),
        "o_totalprice": pa.array(
            rng.randint(100, 1000, n_ord) / 4.0, pa.float64()),
        "o_orderdate": pa.array(pd.to_datetime("1994-06-01")
                                + pd.to_timedelta(
            rng.randint(0, 1300, n_ord), unit="D"), pa.timestamp("us")),
        "o_orderpriority": pa.array(rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"], n_ord)),
    }), d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array(rng.randint(0, n_ord + 3, n_line),
                               pa.int64()),
        "l_partkey": pa.array(rng.randint(0, n_part + 2, n_line),
                              pa.int64()),
        "l_suppkey": pa.array(rng.randint(0, n_supp + 1, n_line),
                              pa.int64()),
        "l_linenumber": pa.array(rng.randint(1, 5, n_line), pa.int64()),
        "l_quantity": pa.array(
            rng.randint(1, 60, n_line).astype(np.float64), pa.float64()),
        "l_extendedprice": pa.array(
            rng.randint(1, 60, n_line).astype(np.float64), pa.float64()),
        "l_discount": pa.array(rng.randint(0, 8, n_line) / 100.0,
                               pa.float64()),
        "l_tax": pa.array(rng.randint(0, 5, n_line) / 100.0, pa.float64()),
        "l_returnflag": pa.array(rng.choice(["R", "N", "A"], n_line)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], n_line)),
        "l_shipdate": pa.array(pd.to_datetime("1994-06-01")
                               + pd.to_timedelta(
            rng.randint(0, 1500, n_line), unit="D"), pa.timestamp("us")),
    }), d / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array(np.arange(n_part, dtype=np.int64)),
        "p_name": pa.array(rng.choice(
            ["blue widget", "red bolt", "big widget", "odd rod"], n_part)),
        "p_brand": pa.array(rng.choice(
            ["Brand#12", "Brand#23", "Brand#34", "Brand#9"], n_part)),
        "p_type": pa.array(rng.choice(["PROMO", "SMALL", "LARGE"], n_part)),
        "p_size": pa.array(rng.randint(1, 40, n_part), pa.int64()),
        "p_retailprice": pa.array(
            rng.randint(10, 90, n_part).astype(np.float64), pa.float64()),
    }), d / "part.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
        "c_name": pa.array([f"C{i}" for i in range(n_cust)]),
        "c_nationkey": pa.array(rng.randint(0, 2, n_cust), pa.int64()),
        "c_acctbal": pa.array(
            rng.randint(-200, 900, n_cust).astype(np.float64) / 4.0,
            pa.float64()),
        "c_mktsegment": pa.array(rng.choice(
            ["BUILDING", "MACHINERY", "AUTOMOBILE"], n_cust)),
    }), d / "customer.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array(np.arange(n_supp, dtype=np.int64)),
        "s_name": pa.array([f"S{i}" for i in range(n_supp)]),
        "s_nationkey": pa.array(rng.randint(0, 2, n_supp), pa.int64()),
        "s_acctbal": pa.array(
            rng.randint(0, 500, n_supp).astype(np.float64), pa.float64()),
    }), d / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["NATION_3", "NATION_15"]),
        "n_regionkey": pa.array([0, 0], pa.int64()),
    }), d / "nation.parquet")
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0], pa.int64()),
        "r_name": pa.array(["AMERICA"]),
    }), d / "region.parquet")
    n_ev = 60
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n_ev, dtype=np.int64)),
        "ts": pa.array(pd.to_datetime("2024-01-01")
                       + pd.to_timedelta(
            rng.randint(0, 3 * 86400, n_ev), unit="s"), pa.timestamp("us")),
        "user_id": pa.array(rng.randint(0, 6, n_ev), pa.int64()),
        "event_type": pa.array(rng.choice(
            ["click", "view", "signup", "purchase", "error"], n_ev)),
        "value": pa.array(
            rng.randint(0, 400, n_ev).astype(np.float64) / 4.0,
            pa.float64()),
    }), d / "events.parquet")


def _canon_any(df):
    if hasattr(df, "to_pandas") and not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def test_whole_family_randomized_vs_duckdb(ray_session, tmp_path):
    """The capstone differential: every SQL-backed relational query
    (incl. every prior-round one) against DuckDB on 3 seeds of
    adversarial random tables."""
    from vyperdatum_ray.pipelines import relational as rel

    NAMES = [
        "tpch_q1", "tpch_q3", "tpch_q4", "tpch_q6", "tpch_q9",
        "tpch_q11", "tpch_q12", "tpch_q13", "tpch_q14", "tpch_q15",
        "tpch_q16", "tpch_q17", "tpch_q19", "tpch_q20", "tpch_q22",
        "semi_anti_join", "min_cost_supplier", "full_outer_join",
        "supplier_list_agg", "running_total", "event_lag_delta",
        "funnel_conversion", "gap_fill_resample", "repeat_buyers",
        "lapsed_buyers", "top_price_orders_ties", "pareto_parts",
        "events_window", "events_sliding", "sessionize", "asof_join",
        "session_join", "orders_customer_join", "top_orders",
        "top_orders_per_segment", "price_band_join",
    ]
    import __ray_entry__ as entrymod

    registry = entrymod.queries()
    for seed in range(3):
        rng = np.random.RandomState(4000 + seed)
        d = tmp_path / f"fam{seed}"
        d.mkdir()
        _write_random_fixture(d, rng)
        for name in NAMES:
            got = _canon_any(registry[name](str(d)))
            want = _canon_any(_ddb(str(d), rel.ORACLES[name]))
            try:
                if len(got) == 0 and len(want) == 0:
                    continue
                pd.testing.assert_frame_equal(
                    got, want.astype(got.dtypes.to_dict()),
                    check_dtype=False)
            except Exception as e:
                raise AssertionError(f"{name} seed {seed}: {e}") from e


def test_price_band_join_boundary_and_brute(ray_session, tmp_path, monkeypatch):
    """Band join: pairs straddling a bucket boundary and exact-band
    ties must appear exactly once; randomized brute-force check."""
    import itertools

    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.pipelines.relational import q_price_band_join

    rng = np.random.RandomState(23)
    d = tmp_path / "band"
    d.mkdir()
    n = 50
    # cents clustered so bands are dense, incl. exact boundary values
    cents = np.concatenate([
        rng.randint(950, 1150, n - 4),
        np.array([900, 1000, 1000, 1100]),   # bucket edges + dup price
    ]).astype(np.int64)
    pq.write_table(pa.table({
        "p_partkey": pa.array(np.arange(len(cents), dtype=np.int64)),
        "p_retailprice": pa.array(cents / 100.0, pa.float64()),
    }), d / "part.parquet")
    out = _at_width(monkeypatch, 1, q_price_band_join, str(d)).to_pandas()
    got = set(zip(out["pk_a"], out["pk_b"]))
    want = set()
    for i, j in itertools.combinations(range(len(cents)), 2):
        if abs(int(cents[i]) - int(cents[j])) <= 100:
            want.add((min(i, j), max(i, j)))
    assert got == want
    assert len(out) == len(got)          # no duplicate pair rows
    # signed diff is (later key cents - earlier key cents)
    for r in out.itertuples():
        assert abs(r.price_diff) <= 1.0 + 1e-9
        assert np.isclose(
            r.price_diff, (cents[int(r.pk_b)] - cents[int(r.pk_a)]) / 100.0)


def test_global_aggregates_over_empty_tables_match_duckdb(ray_session, tmp_path):
    """tpch_q6, tpch_q14 and tpch_q22 over zero-row tables: the folds
    see no partial row, and each query still gives DuckDB's answer
    through the correctness gate's comparator (q6 and q14 one global
    row of a NULL sum and a zero count, q22 no row)."""
    import duckdb
    import pyarrow.parquet as pq

    from scripts.check_correctness import compare
    from vyperdatum_ray.pipelines.relational import (ORACLES, q_tpch_q6, q_tpch_q14,
                                                     q_tpch_q22)

    d = tmp_path / "empty"
    d.mkdir()
    con = duckdb.connect()
    for t in ("lineitem", "part", "customer", "orders"):
        pq.write_table(pq.read_schema(f"{SF}/{t}.parquet").empty_table(), d / f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')")
    rows = {}
    for name, fn in (("tpch_q6", q_tpch_q6), ("tpch_q14", q_tpch_q14),
                     ("tpch_q22", q_tpch_q22)):
        mine, theirs = fn(str(d)), con.execute(ORACLES[name]).df()
        assert compare(name, mine, theirs) == [], name
        rows[name] = len(mine)
    assert rows == {"tpch_q6": 1, "tpch_q14": 1, "tpch_q22": 0}
