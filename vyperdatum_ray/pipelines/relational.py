"""Relational operator demonstrations over the driver's TPC-H-ish
tables: grouped aggregation with per-batch combining, broadcast hash
join, multi-key sort + limit, and event-time windowed aggregation.

These exercise the generic Dataset operator surface (SURVEY.md §2.5/2.6
plus the streaming-shaped events pattern) with exact DuckDB oracles.
All money/quantity sums are rounded to 2 decimals: the inputs are
2-decimal quantities, so group sums are (decimal) multiples of 0.01 and
rounding makes them independent of float summation order across
partitions.

Data contract: the TPC-H-ish columns are NON-NULL (the driver's
fixtures and TPC-H itself guarantee it); the `to_numpy` fast paths
rely on that, and SQL NULL-propagation semantics are exercised where
they genuinely arise (outer joins' missing sides, empty-aggregate
NULLs, LAG/LEAD partition edges) rather than per input cell.
"""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from vyperdatum_ray.core.nputil import isin_sorted
from vyperdatum_ray.pipelines.exchange import (Source, aggregate, collect, exchange, fold,
                                             footer_stats, from_arrow, map, read,
                                             sort_limit, total)
from vyperdatum_ray.pipelines.textops import _hash_key


def _t(sf_dir: str, name: str, columns=None) -> Source:
    return read(f"{sf_dir}/{name}.parquet", columns)


def _np(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _cents(x: np.ndarray) -> np.ndarray:
    """2-decimal money or quantity as exact int64 hundredths."""
    return np.rint(x * 100.0).astype(np.int64)


def _rev(t: pa.Table, keep=slice(None)) -> np.ndarray:
    """Line revenue price x (1 - discount) in exact int64 cents x
    cents: its sums are partition-order independent."""
    return (_cents(_np(t, "l_extendedprice")[keep])
            * (100 - _cents(_np(t, "l_discount")[keep])))


def q_tpch_q1(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-style pricing summary: filter -> per-block partial
    aggregation (combiner) -> driver fold per (flag, status) ->
    scaling."""
    cutoff = pa.scalar(datetime.datetime(1998, 9, 2), type=pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch.column("l_shipdate"), cutoff))
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        # 2-decimal money in integer cents: the disc_price product is a
        # 4-decimal quantity whose float sum is partitioning-order
        # dependent at half-cent ties — int64 arithmetic is exact
        ip = np.rint(price * 100.0).astype(np.int64)
        idisc = np.rint(disc * 100.0).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": batch.column("l_returnflag").to_numpy(zero_copy_only=False),
                "l_linestatus": batch.column("l_linestatus").to_numpy(zero_copy_only=False),
                "qty": np.rint(
                    batch.column("l_quantity").to_numpy(zero_copy_only=False) * 100.0
                ).astype(np.int64),
                "price": ip,
                "disc_price": ip * (100 - idisc),
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            p_qty=("qty", "sum"), p_price=("price", "sum"),
            p_disc=("disc_price", "sum"), p_n=("qty", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_shipdate"])
    g = fold(ds, ["l_returnflag", "l_linestatus"],
             {"p_qty": "sum", "p_price": "sum", "p_disc": "sum", "p_n": "sum"}, fn=partial)
    return from_arrow(pa.Table.from_pandas(pd.DataFrame({
        "l_returnflag": g["l_returnflag"],
        "l_linestatus": g["l_linestatus"],
        "sum_qty": g["p_qty"] / 100.0,
        "sum_base_price": g["p_price"] / 100.0,
        "sum_disc_price": g["p_disc"] / 10000.0,
        "count_order": g["p_n"],
    }), preserve_index=False))


def q_orders_customer_join(sf_dir: str) -> ray.data.Dataset:
    """Broadcast hash join: customer (small side) is ray.put once and
    looked up per batch — no shuffle (SURVEY.md §2.4 pattern)."""
    cust = collect(_t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    cust = cust.sort_values("c_custkey")
    seg_cat = cust["c_mktsegment"].astype("category")
    # broadcast NUMPY arrays (sorted keys + small int codes): ray.get of
    # numpy is zero-copy plasma-cached per worker — a pandas Series of
    # strings would be re-unpickled on every batch
    lookup_ref = ray.put((cust["c_custkey"].to_numpy(),
                          seg_cat.cat.codes.to_numpy().astype(np.int64)))
    categories = list(seg_cat.cat.categories)  # tiny, captured by value

    def join_segment(batch: pa.Table) -> pa.Table:
        skeys, scodes = ray.get(lookup_ref)
        keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, keys)
        pos = np.clip(pos, 0, len(skeys) - 1)
        code = np.where(skeys[pos] == keys, scodes[pos], -1)
        seg = np.array(categories + [None], dtype=object)[code]
        df = pd.DataFrame(
            {"c_mktsegment": seg,
             "price": batch.column("o_totalprice").to_numpy(zero_copy_only=False)}
        )
        g = df.groupby("c_mktsegment", as_index=False).agg(
            p_n=("price", "size"), p_sum=("price", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    g = fold(ds, ["c_mktsegment"], {"p_n": "sum", "p_sum": "sum"}, fn=join_segment)
    return from_arrow(pa.Table.from_pandas(pd.DataFrame({
        "c_mktsegment": g["c_mktsegment"],
        "n_orders": g["p_n"],
        "sum_totalprice": np.round(g["p_sum"], 2),
    }), preserve_index=False))


def q_top_orders(sf_dir: str) -> ray.data.Dataset:
    """Distributed sort + limit with a deterministic tie-break."""
    ds = _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return sort_limit(ds, ["o_totalprice", "o_orderkey"], [True, False], 100)


def _window_sums(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """The events windows' reduce: per-block (p_n, p_sum) partials of
    one salt group summed per ``keys``, the value sum rounded to
    cents."""
    g = df.groupby(keys, as_index=False).agg(n_events=("p_n", "sum"), r_sum=("p_sum", "sum"))
    return g.assign(sum_value=np.round(g.pop("r_sum"), 2))


def q_events_window(sf_dir: str) -> ray.data.Dataset:
    """Tumbling event-time window (1h) per user and event type —
    Ray Data has no watermarks; batch semantics over the full log
    (SURVEY.md §2.8): floor ts to the window, per-block partials, and
    a sum reduce on the exchange keyed by user (the window keys grow
    with the log)."""

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(zero_copy_only=False),
                "hour": hour.to_numpy(zero_copy_only=False),
                "event_type": batch.column("event_type").to_numpy(zero_copy_only=False),
                "value": batch.column("value").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["user_id", "hour", "event_type"], as_index=False).agg(
            p_n=("value", "size"), p_sum=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def leg(batch: pa.Table) -> pa.Table:
        t = partial(batch)
        return t.append_column("k", t.column("user_id"))

    ds = _t(sf_dir, "events", ["ts", "user_id", "event_type", "value"])
    return exchange([(ds, leg)],
                    lambda df: _window_sums(df, ["user_id", "hour", "event_type"]))


WINDOW_US = 3600 * 1_000_000  # 1h sliding window
HOP_US = 900 * 1_000_000  # 15min hop -> 4 windows per event


def q_events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding (hopping) event-time window: 1h windows every 15min, so
    each event contributes to WINDOW/HOP = 4 overlapping windows.
    Batch-semantics composition of the streaming op: per-batch explode
    (np.repeat over the 4 hop offsets) + per-batch partial aggregation,
    then a sum reduce on the exchange keyed by window start — the
    shuffle carries (window, type) partials, never the 4x event
    explosion."""
    n_hops = WINDOW_US // HOP_US

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        etype = batch.column("event_type").to_numpy(zero_copy_only=False)
        value = batch.column("value").to_numpy(zero_copy_only=False)
        base = ts_us // HOP_US
        offs = np.arange(n_hops, dtype=np.int64)
        win_start = ((np.repeat(base, n_hops)
                      - np.tile(offs, len(base))) * HOP_US)
        df = pd.DataFrame({
            "window_start_us": win_start,
            "event_type": np.repeat(etype, n_hops),
            "value": np.repeat(value, n_hops),
        })
        g = df.groupby(["window_start_us", "event_type"], as_index=False).agg(
            p_n=("value", "size"), p_sum=("value", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def leg(batch: pa.Table) -> pa.Table:
        t = partial(batch)
        return t.append_column("k", t.column("window_start_us"))

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = _window_sums(df, ["window_start_us", "event_type"])
        start = g.pop("window_start_us").to_numpy(np.int64).astype("datetime64[us]")
        return g.assign(window_start=start)[
            ["window_start", "event_type", "n_events", "sum_value"]]

    ds = _t(sf_dir, "events", ["ts", "event_type", "value"])
    return exchange([(ds, leg)], reduce)


def _events_sliding_oracle() -> str:
    """Derived from WINDOW_US/HOP_US so engine and oracle cannot drift;
    floor division is spelled with floor() because DuckDB's integer //
    truncates toward zero while numpy's floors (they diverge on
    pre-1970 timestamps)."""
    hops = ", ".join(f"({j})" for j in range(WINDOW_US // HOP_US))
    return f"""
SELECT make_timestamp((CAST(floor(epoch_us(ts) / {HOP_US}.0) AS BIGINT) - j)
                      * {HOP_US}) AS window_start,
  event_type, count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events CROSS JOIN (VALUES {hops}) AS h(j)
GROUP BY window_start, event_type"""


ORACLES = {
    "events_sliding": _events_sliding_oracle(),
    "tpch_q1": """
SELECT l_returnflag, l_linestatus,
  sum(CAST(round(l_quantity * 100, 0) AS BIGINT)) / 100.0 AS sum_qty,
  sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)) / 100.0 AS sum_base_price,
  sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) / 10000.0 AS sum_disc_price,
  count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus""",
    "orders_customer_join": """
SELECT c_mktsegment, count(*) AS n_orders,
  round(sum(o_totalprice), 2) AS sum_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment""",
    "top_orders": """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 100""",
    "events_window": """
SELECT user_id, date_trunc('hour', ts) AS hour, event_type,
  count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events GROUP BY user_id, hour, event_type""",
}


def _per_user(sf_dir: str, columns, fn, keep=None) -> ray.data.Dataset:
    """Per-user stateful ops on one salted exchange keyed by user_id:
    every row of a user lands in one group, and ``fn`` handles the
    group's many users fully vectorized (never one Python call per
    user, the high-cardinality map_groups anti-pattern). ``keep`` is an
    optional row filter applied in the leg's split task."""
    def leg(t: pa.Table) -> pa.Table:
        if keep is not None:
            t = t.filter(keep(t))
        return t.append_column("k", t.column("user_id"))

    return exchange([(_t(sf_dir, "events", columns), leg)],
                    lambda df: fn(df.drop(columns="k")))


def _session_ids(df: pd.DataFrame, gap: np.timedelta64) -> tuple[pd.DataFrame, np.ndarray]:
    """0-based per-user session ids for a (user_id, ts)-sorted frame,
    vectorized ACROSS user boundaries: a session break is a new user or
    a >gap silence; per-user ids are global cumsum minus the user's
    first value (no per-user Python loop)."""
    df = df.sort_values(["user_id", "ts"], kind="stable")
    ts = df["ts"].to_numpy()
    uid = df["user_id"].to_numpy()
    n = len(df)
    if n == 0:
        return df, np.zeros(0, dtype=np.int64)
    new_user = np.r_[True, uid[1:] != uid[:-1]]
    gap_break = np.r_[True, np.diff(ts) > gap]
    new_sess = new_user | gap_break
    sid_global = np.cumsum(new_sess) - 1
    run_id = np.cumsum(new_user) - 1
    first_sid = sid_global[np.flatnonzero(new_user)]
    return df, sid_global - first_sid[run_id]


def q_sessionize(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Gap-based sessionization (streaming-shaped stateful op): a salted
    user_id exchange, sort each group by (user_id, ts), and
    compute session breaks vectorized with np.diff + user-boundary
    masks; a new session starts after a >gap silence. Session ids are
    0-based per user."""
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df, sid = _session_ids(df, gap)
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy(), "session_id": sid,
                            "ts": df["ts"].to_numpy()})
        return out.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("ts", "size"), start_ts=("ts", "min"), end_ts=("ts", "max")
        )

    return _per_user(sf_dir, ["ts", "user_id"], sessions)


ORACLES["sessionize"] = """
WITH lagd AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
         THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sess AS (
  SELECT user_id, ts,
    CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
  FROM lagd
)
SELECT user_id, session_id, count(*) AS n_events,
  min(ts) AS start_ts, max(ts) AS end_ts
FROM sess GROUP BY user_id, session_id"""


def q_tpch_q3(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape: 3-way join (customer |> orders |> lineitem) via
    chained broadcast lookups. The BUILDING custkey set is broadcast
    once; ORDERS runs through a filter in its read tasks and only the
    filtered orderkey set — the small surviving side — is collected and
    broadcast; lineitem streams against it. (The no-small-side alternative is a two-leg salted
    exchange, the ``shuffle_join`` shape.)"""
    cutoff = datetime.datetime(1995, 3, 15)

    cust = collect(_t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    building = np.sort(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"].to_numpy())
    building_ref = ray.put(building)
    cutoff_scalar = pa.scalar(cutoff, type=pa.timestamp("us"))

    # stateless per-block tasks, not actor pools: the only "state" is a
    # broadcast ref, and ray.get of an in-plasma object is cached
    # zero-copy per worker process — the actor pools' startup latency
    # (~2 s per pool per query) was the dominant cost of this query
    def filter_orders(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch.column("o_orderdate"), cutoff_scalar))
        keep = isin_sorted(_np(batch, "o_custkey"), ray.get(building_ref))
        return pa.table({"o_orderkey": pa.array(_np(batch, "o_orderkey")[keep])})

    odf = collect(map(_t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
                      filter_orders))
    okeys_ref = ray.put(np.sort(odf["o_orderkey"].to_numpy()))

    def revenue_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch.column("l_shipdate"), cutoff_scalar))
        ok = _np(batch, "l_orderkey")
        keep = isin_sorted(ok, ray.get(okeys_ref))
        g = pd.DataFrame({"k": ok[keep], "rev": _rev(batch, keep)}).groupby(
            "k", as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        # an orderkey lands wholly in its salt group, so the per-group
        # top-10 (same ordering as the global one) cannot miss a global
        # top-10 row
        g = df.groupby("k", as_index=False).agg(rev=("rev", "sum"))
        return g.sort_values(["rev", "k"], ascending=[False, True]).head(10)

    # ONE salted exchange replaces the high-cardinality
    # groupby(l_orderkey) + full sort pair (two wide ops whose fixed
    # shuffle cost dominated this query): per-salt groups sum + keep a
    # local top-10, the driver merges the few candidates.
    cand = collect(exchange(
        [(_t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"]), revenue_partial)],
        local_topk))
    cand = cand.sort_values(["rev", "k"], ascending=[False, True]).head(10)
    return pd.DataFrame({"l_orderkey": cand["k"].to_numpy(np.int64),
                         "revenue": cand["rev"].to_numpy(np.int64) / 10000.0})


ORACLES["tpch_q3"] = """
SELECT l_orderkey,
  sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) / 10000.0 AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > TIMESTAMP '1995-03-15 00:00:00'
GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey LIMIT 10"""


def q_tpch_q6(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6-style forecasting-revenue query: the pure
    filter-and-global-sum shape. Only the four predicate/measure
    columns leave storage (column-pruned read); each block reduces to a
    single partial row, folded on the driver.
    Discount is compared in integer cents (idisc BETWEEN 2 AND 4) so
    the float predicate cannot straddle a representation boundary, and
    revenue is summed in scaled int64 (cents x cents) for
    partition-order-independent results (same recipe as q_tpch_q1)."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), type=pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(batch.column("l_shipdate"), lo),
                    pc.less(batch.column("l_shipdate"), hi)),
            pc.less(batch.column("l_quantity"), pa.scalar(24.0)),
        )
        batch = batch.filter(mask)
        idisc = np.rint(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        keep = (idisc >= 2) & (idisc <= 4)
        ip = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
            * 100.0
        ).astype(np.int64)
        return pa.table({
            "p_rev": pa.array([int((ip * idisc[keep]).sum())], type=pa.int64()),
            "p_n": pa.array([int(keep.sum())], type=pa.int64()),
        })

    ds = _t(sf_dir, "lineitem",
            ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])
    g = fold(ds, [], {"p_rev": "sum", "p_n": "sum"}, fn=partial)
    n = int(g["p_n"].sum())
    # SQL parity on an all-empty match: sum() over zero rows is NULL,
    # which DuckDB surfaces as float64 NaN — np.nan keeps the column
    # float64 (None would make it object and fail the dtype-kind gate)
    return pd.DataFrame({
        "revenue": [int(g["p_rev"].sum()) / 10000.0 if n else np.nan],
        "n_items": [n],
    })


ORACLES["tpch_q6"] = """
SELECT sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * CAST(round(l_discount * 100, 0) AS BIGINT)) / 10000.0 AS revenue,
       count(*) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(round(l_discount * 100, 0) AS BIGINT) BETWEEN 2 AND 4
  AND l_quantity < 24"""


def q_top_orders_per_segment(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Per-group top-k: highest-value orders per market segment.
    Per-batch local top-k (a combiner — each batch forwards at most
    k rows per segment) then an exchange keyed by the segment's hash,
    whose groups take each segment's exact final top-k."""
    cust = collect(_t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    seg_ref = ray.put(
        pd.Series(cust["c_mktsegment"].to_numpy(), index=cust["c_custkey"].to_numpy())
    )

    class LocalTopK:
        def __init__(self, ref, k):
            self.seg = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            df = pd.DataFrame(
                {
                    "c_mktsegment": self.seg.reindex(
                        batch.column("o_custkey").to_numpy(zero_copy_only=False)
                    ).to_numpy(),
                    "o_orderkey": batch.column("o_orderkey").to_numpy(zero_copy_only=False),
                    "o_totalprice": batch.column("o_totalprice").to_numpy(zero_copy_only=False),
                }
            )
            df = df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            t = pa.Table.from_pandas(df.groupby("c_mktsegment").head(self.k),
                                     preserve_index=False)
            seg = t.column("c_mktsegment").cast(pa.string())
            return t.set_column(0, "c_mktsegment", seg).append_column("k", _hash_key(seg))

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["c_mktsegment", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True])
        df = df.groupby("c_mktsegment").head(k).copy()
        df["rank"] = df.groupby("c_mktsegment").cumcount() + 1
        return df[["c_mktsegment", "rank", "o_orderkey", "o_totalprice"]]

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return exchange([(ds, lambda t: LocalTopK(seg_ref, k)(t))], final_topk)


ORACLES["top_orders_per_segment"] = """
SELECT c_mktsegment,
  row_number() OVER (PARTITION BY c_mktsegment
                     ORDER BY o_totalprice DESC, o_orderkey) AS rank,
  o_orderkey, o_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
QUALIFY rank <= 3"""


def q_asof_join(sf_dir: str) -> ray.data.Dataset:
    """Stream-to-stream as-of join: each purchase event matched to the
    same user's most recent click at-or-before it. Ray Data has no asof
    join operator; the composition is a salted user_id exchange +
    one vectorized ``pd.merge_asof(by=user_id)`` per group (C kernel
    across ALL the group's users — no per-user Python calls). The
    documented partitioning assumption is that all rows of a user share
    a salt group."""

    def asof_group(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["event_type"] == "purchase"].sort_values("ts", kind="stable")
        c = df[df["event_type"] == "click"].sort_values("ts", kind="stable")
        p = pd.DataFrame({"user_id": p["user_id"].to_numpy(),
                          "purchase_ts": p["ts"].to_numpy()})
        c = pd.DataFrame({"user_id": c["user_id"].to_numpy(),
                          "click_ts": c["ts"].to_numpy()})
        if p.empty or c.empty:
            return pd.DataFrame({
                "user_id": pd.Series(dtype=df["user_id"].dtype),
                "purchase_ts": pd.Series(dtype="datetime64[us]"),
                "click_ts": pd.Series(dtype="datetime64[us]"),
            })
        m = pd.merge_asof(p, c, left_on="purchase_ts", right_on="click_ts",
                          by="user_id", direction="backward")
        m = m[m["click_ts"].notna()]
        return m[["user_id", "purchase_ts", "click_ts"]]

    return _per_user(
        sf_dir, ["ts", "user_id", "event_type"], asof_group,
        keep=lambda t: pc.is_in(t.column("event_type"),
                                value_set=pa.array(["purchase", "click"])))


ORACLES["asof_join"] = """
WITH p AS (SELECT user_id, ts AS purchase_ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts AS click_ts FROM events WHERE event_type = 'click')
SELECT p.user_id, p.purchase_ts, c.click_ts
FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.purchase_ts >= c.click_ts"""


def _median_partial(path: str, t: pa.Table) -> pa.Table:
    """``q_region_median``'s per-shard (region_index, zmm, p_n)
    histogram, computed in the shard task. Without the ``pandas``
    schema metadata, like every partial the driver folds."""
    t = t.filter(pc.greater_equal(t.column("region_index"), 0))
    r = t.column("region_index").to_numpy(zero_copy_only=False).astype(np.int64)
    zmm = np.round(t.column("z_out").to_numpy(zero_copy_only=False) * 1000.0).astype(np.int64)
    df = pd.DataFrame({"region_index": r, "zmm": zmm})
    g = df.groupby(["region_index", "zmm"], as_index=False).size()
    g = g.rename(columns={"size": "p_n"})
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata()


def q_region_median(sf_dir: str) -> ray.data.Dataset:
    """Exact per-region median of the transformed depth via bounded
    histogram partials: z is a 3-decimal quantity, so per-shard counts
    over integer millimetre bins make the median EXACT while the driver
    receives only (region, bin, count) rows — never the data (the
    scalable exact-quantile trick for fixed-precision values). The
    driver merges the histograms and reads each region's two middle
    bins off its cumulative counts."""
    from vyperdatum_ray.pipelines.flagship import shard_partials

    h = shard_partials(sf_dir, _median_partial, ["region_index", "zmm"],
                       {"region_index": np.int64, "zmm": np.int64, "p_n": np.int64})
    by_region = h.groupby("region_index")["p_n"]
    n = by_region.transform("sum")
    cum = by_region.cumsum()
    zv = h["zmm"] / 1000.0
    # the first bin (ascending) whose cumulative count passes a position
    lo = zv.where(cum > (n - 1) // 2).groupby(h["region_index"]).min()
    hi = zv.where(cum > n // 2).groupby(h["region_index"]).min()
    return from_arrow(pa.table({
        "region_index": pa.array(lo.index, pa.int64()),
        "n_points": pa.array(by_region.sum(), pa.int64()),
        "median_z": pa.array((lo + hi) / 2, pa.float64()),
    }))


ORACLES_MEDIAN_NOTE = "region_median oracle lives in oracle.py (needs the transform CTEs)"


def q_shuffle_join(sf_dir: str) -> pd.DataFrame:
    """Big-big repartition join, the shape for joins where no side fits
    a broadcast: lineitem |> orders on orderkey as one two-leg salted
    exchange (lineitem ships one (orderkey, cents, count) partial per
    block), then revenue per order priority. Each group emits
    (priority, count, cents) partials over the five-priority domain and
    the driver sums them."""
    def line_leg(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({"k": _np(batch, "l_orderkey"), "rev": _rev(batch)}).groupby(
            "k", as_index=False).agg(rev=("rev", "sum"), n=("rev", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def orders_leg(batch: pa.Table) -> pa.Table:
        return pa.table({"k": batch.column("o_orderkey"),
                         "pri": batch.column("o_orderpriority")})

    def join(lines: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        g = lines.merge(orders, on="k").groupby("pri", as_index=False).agg(
            n=("n", "sum"), rev=("rev", "sum"))
        return g.astype({"n": np.int64, "rev": np.int64})

    parts = collect(exchange(
        [(_t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]),
          line_leg),
         (_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]), orders_leg)],
        join))
    agg = parts.groupby("pri", as_index=False).agg(n=("n", "sum"), rev=("rev", "sum"))
    return pd.DataFrame({"o_orderpriority": agg["pri"].to_numpy(object),
                         "n_items": agg["n"].to_numpy(np.int64),
                         "revenue": agg["rev"].to_numpy(np.int64) / 10000.0})


ORACLES["shuffle_join"] = """
SELECT o_orderpriority, count(*) AS n_items,
  sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority"""


def q_session_join(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Interval join: each 'error' event joined to its containing
    session (sessions = gap-based intervals over ALL the user's
    events). Same salted user_id exchange + cross-user vectorized session
    ids as q_sessionize — no per-user Python calls."""
    gap = np.timedelta64(gap_minutes * 60, "s")

    def err_sessions(df: pd.DataFrame) -> pd.DataFrame:
        df, sid = _session_ids(df, gap)
        err = df["event_type"].to_numpy() == "error"
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy()[err],
            "ts": df["ts"].to_numpy()[err],
            "session_id": sid[err],
        })

    return _per_user(sf_dir, ["ts", "user_id", "event_type"], err_sessions)


ORACLES["session_join"] = """
WITH lagd AS (
  SELECT user_id, ts, event_type,
    CASE WHEN lag(ts) OVER w IS NULL
           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
         THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sess AS (
  SELECT user_id, ts, event_type,
    CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
  FROM lagd
)
SELECT user_id, ts, session_id FROM sess WHERE event_type = 'error'"""


def _dim_pandas(sf_dir: str, name: str, columns=None) -> pd.DataFrame:
    """Driver-side read of a broadcast-sized dimension table: a plain
    pyarrow read, not a Ray dataset execution — collecting it to the
    driver is the point, so the streaming machinery would only add a
    per-query session round-trip."""
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{name}.parquet", columns=columns).to_pandas()


# driver budget for Q5's (custkey -> nation code) broadcast fast path,
# in estimated customer-table bytes from parquet footers — the same
# bytes-not-ids discipline as textops' BROADCAST_CAND_CAP. Past it the
# customer|>orders step becomes a second salted repartition join.
Q5_BROADCAST_CUST_BYTES = 256 << 20


def q_tpch_q5(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 (local-supplier revenue by nation): the full
    multi-join reshape. region|>nation is a driver-side tiny join;
    supplier (the one genuinely small big-table side, 1/6000th of
    lineitem) is broadcast as sorted key + int8 nation-code arrays;
    the orders|>lineitem large-large join (with the
    c_nationkey = s_nationkey local-supplier equality riding along as
    an int8 code match) is a salted repartition exchange. The
    customer|>orders step is a broadcast lookup while the
    footer-estimated customer bytes fit ``Q5_BROADCAST_CUST_BYTES``,
    and a second exchange past it, whose output is the orders leg of
    the first — a test forces that path and asserts identical output.
    Revenue is summed in integer cents x cents for
    partition-order-independent parity."""
    cust_bytes, _ = footer_stats(f"{sf_dir}/customer.parquet",
                                 ["c_custkey", "c_nationkey"])

    nation = _dim_pandas(sf_dir, "nation")
    region = _dim_pandas(sf_dir, "region")
    asia = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    asia = asia[asia["r_name"] == "ASIA"].sort_values("n_nationkey")
    nat_keys = asia["n_nationkey"].to_numpy(np.int64)       # <= 25 rows
    nat_names = asia["n_name"].tolist()

    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].isin(nat_keys)].sort_values("s_suppkey")
    s_code = np.searchsorted(nat_keys, supp["s_nationkey"].to_numpy(np.int64))
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        s_code.astype(np.int8)))

    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), type=pa.timestamp("us"))

    def in_window(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi)))

    def line_leg(batch: pa.Table) -> pa.Table:
        skeys, scodes = ray.get(supp_ref)
        sk = _np(batch, "l_suppkey")
        keep = isin_sorted(sk, skeys)
        g = pd.DataFrame({
            "k": _np(batch, "l_orderkey")[keep],
            "code": scodes[np.searchsorted(skeys, sk[keep])],
            "rev": _rev(batch, keep),
        }).groupby(["k", "code"], as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_orderkey(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        # inner merge on (orderkey, nation code): the code equality IS
        # the c_nationkey = s_nationkey local-supplier condition
        m = lines.merge(orders, on=["k", "code"])
        g = m.groupby("code", as_index=False).agg(p_rev=("rev", "sum"))
        return g.astype({"code": np.int8, "p_rev": np.int64})

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    if cust_bytes <= Q5_BROADCAST_CUST_BYTES:
        # fast path: one exchange — the ASIA (custkey -> code) map is
        # broadcast once and orders resolve their nation code inline
        cmap = _dim_pandas(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        cmap = cmap[cmap["c_nationkey"].isin(nat_keys)].sort_values("c_custkey")
        c_code = np.searchsorted(
            nat_keys, cmap["c_nationkey"].to_numpy(np.int64)).astype(np.int8)
        cust_ref = ray.put((cmap["c_custkey"].to_numpy(np.int64), c_code))

        def orders_leg(batch: pa.Table) -> pa.Table:
            batch = in_window(batch)
            ckeys, ccodes = ray.get(cust_ref)
            ck = _np(batch, "o_custkey")
            keep = isin_sorted(ck, ckeys)
            return pa.table({"k": _np(batch, "o_orderkey")[keep],
                             "code": ccodes[np.searchsorted(ckeys, ck[keep])]})

        ok_nation = (orders, orders_leg)
    else:
        def cust_leg(batch: pa.Table) -> pa.Table:
            nk = _np(batch, "c_nationkey")
            keep = isin_sorted(nk, nat_keys)
            return pa.table({
                "k": _np(batch, "c_custkey")[keep],
                "code": np.searchsorted(nat_keys, nk[keep]).astype(np.int8)})

        def custkey_leg(batch: pa.Table) -> pa.Table:
            batch = in_window(batch)
            return pa.table({"k": batch.column("o_custkey"),
                             "ok": batch.column("o_orderkey")})

        def join_custkey(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
            m = orders.merge(cust, on="k")
            return pd.DataFrame({"k": m["ok"].to_numpy(np.int64),
                                 "code": m["code"].to_numpy(np.int8)})

        ok_nation = (exchange(
            [(_t(sf_dir, "customer", ["c_custkey", "c_nationkey"]), cust_leg),
             (orders, custkey_leg)], join_custkey), None)

    parts = collect(exchange(
        [ok_nation, (_t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey",
                                             "l_extendedprice", "l_discount"]),
                     line_leg)], join_orderkey))
    agg = parts.groupby("code", as_index=False).agg(rev=("p_rev", "sum"))
    out = pd.DataFrame({
        "n_name": [nat_names[c] for c in agg["code"]],
        "revenue": agg["rev"].to_numpy(np.int64) / 10000.0,
    }).sort_values(["revenue", "n_name"], ascending=[False, True])
    return out.reset_index(drop=True)


ORACLES["tpch_q5"] = """
SELECT n_name,
  sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) / 10000.0 AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name ORDER BY revenue DESC, n_name"""


def q_tpch_q12(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12-style priority line counts, adapted to the fixture's
    columns (no l_shipmode/commitdate here): per l_returnflag, how many
    1996-shipped lines belong to high-priority (1-URGENT/2-HIGH)
    orders vs the rest. Orders carry only (orderkey, is_high) through
    the salted repartition exchange — the shape where NEITHER side fits
    a broadcast and the shuffle payload is a few ints per row."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), type=pa.timestamp("us"))

    def orders_leg(batch: pa.Table) -> pa.Table:
        pri = _np(batch, "o_orderpriority")
        return pa.table({"k": batch.column("o_orderkey"), "hi": np.isin(
            pri, ("1-URGENT", "2-HIGH")).astype(np.int64)})

    def line_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi)))
        g = pd.DataFrame({"k": _np(batch, "l_orderkey"),
                          "flag": _np(batch, "l_returnflag")}).groupby(
            ["k", "flag"], as_index=False).size()
        return pa.table({"k": g["k"].to_numpy(np.int64),
                         "flag": pa.array(g["flag"].to_numpy(object), pa.string()),
                         "n": g["size"].to_numpy(np.int64)})

    def join_counts(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        g = lines.merge(orders, on="k").groupby(["flag", "hi"], as_index=False).agg(
            p_n=("n", "sum"))
        return g.astype({"hi": np.int64, "p_n": np.int64})

    agg = collect(exchange(
        [(_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]), orders_leg),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"]),
          line_leg)],
        join_counts))
    # <= 6 (flag, hi) rows: driver-side pivot to the Q12 output shape
    piv = agg.pivot_table(index="flag", columns="hi", values="p_n",
                          aggfunc="sum", fill_value=0)
    flags = sorted(piv.index)
    # explicit int64 arrays: an empty flags list would otherwise give
    # float64 count columns vs the oracle's empty BIGINT columns
    return pd.DataFrame({
        "l_returnflag": pd.array(flags, dtype=object),
        "high_line_count": np.array(
            [int(piv.loc[f].get(1, 0)) for f in flags], np.int64),
        "low_line_count": np.array(
            [int(piv.loc[f].get(0, 0)) for f in flags], np.int64),
    })


ORACLES["tpch_q12"] = """
SELECT l_returnflag,
  CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
  CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY l_returnflag ORDER BY l_returnflag"""


def q_tpch_q14(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 promo-revenue ratio: part's (partkey -> is-promo bit)
    is broadcast as sorted key + int8 arrays (part is ~1/30th of
    lineitem; past a broadcast budget the salted repartition join of
    q_tpch_q5 is the fallback shape), lineitem streams through a
    column-pruned filter, and each block reduces to one (promo, total)
    integer-cents partial row — the exchange carries one row per
    block. The final ratio divides two exact int sums in the same IEEE
    op order as the SQL (int -> double, x100.0, /)."""
    part = _dim_pandas(sf_dir, "part", ["p_partkey", "p_type"])
    part = part.sort_values("p_partkey")
    promo_ref = ray.put((part["p_partkey"].to_numpy(np.int64),
                         (part["p_type"].to_numpy(object) == "PROMO"
                          ).astype(np.int8)))

    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 4, 1), type=pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi)))
        pkeys, ppromo = ray.get(promo_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(pkeys) == 0 or len(pk) == 0:
            return pa.table({"p_promo": pa.array([0], pa.int64()),
                             "p_total": pa.array([0], pa.int64())})
        pos = np.clip(np.searchsorted(pkeys, pk), 0, len(pkeys) - 1)
        match = pkeys[pos] == pk
        promo = match & (ppromo[pos] == 1)
        ip = np.rint(batch.column("l_extendedprice")
                     .to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        idisc = np.rint(batch.column("l_discount")
                        .to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        rev = ip * (100 - idisc)
        return pa.table({
            "p_promo": pa.array([int(rev[promo].sum())], pa.int64()),
            "p_total": pa.array([int(rev[match].sum())], pa.int64()),
        })

    ds = _t(sf_dir, "lineitem",
            ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
    g = fold(ds, [], {"p_promo": "sum", "p_total": "sum"}, fn=partial)
    total = int(g["p_total"].sum())
    # np.nan (not None) on an empty match: keeps the column float64
    # like DuckDB's NULL-as-NaN, so the dtype-kind gate still matches
    return pd.DataFrame({"promo_revenue": [
        100.0 * float(g["p_promo"].sum()) / float(total) if total else np.nan]})


ORACLES["tpch_q14"] = """
SELECT 100.0 * sum(CASE WHEN p_type = 'PROMO'
    THEN CAST(round(l_extendedprice * 100, 0) AS BIGINT)
         * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))
    ELSE 0 END)
  / sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
        * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1996-04-01'"""


def q_semi_anti_join(sf_dir: str) -> pd.DataFrame:
    """Distributed semi-join AND anti-join in one pass: per order
    priority, how many orders have ANY line shipped more than 90 days
    after the order date (EXISTS), and how many have no lines at all
    (NOT EXISTS). The EXISTS predicate is pushed into an associative
    per-orderkey partial — max(l_shipdate) — so lineitem ships one row
    per (orderkey, block) through the salted exchange and the reducer
    never sees individual lines; the anti-join falls out of the same
    left merge (no matching max). Dates travel as whole-day int64
    (the fixture timestamps are day-aligned) so the 90-day comparison
    survives pandas' int->float merge upcast exactly."""
    def days(batch: pa.Table, name: str) -> np.ndarray:
        return pc.cast(batch.column(name), pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000

    def orders_leg(batch: pa.Table) -> pa.Table:
        return pa.table({"k": batch.column("o_orderkey"),
                         "flag": batch.column("o_orderpriority"),
                         "odate": days(batch, "o_orderdate")})

    def line_leg(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({"k": _np(batch, "l_orderkey"),
                          "ship": days(batch, "l_shipdate")}).groupby(
            "k", as_index=False).agg(ship=("ship", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_group(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        # max of per-block maxes: an orderkey's lines may span blocks
        right = lines.groupby("k", as_index=False).agg(ship=("ship", "max"))
        m = orders.merge(right, on="k", how="left")
        ship = m["ship"].to_numpy(np.float64)      # NaN = no lines
        has_lines = ~np.isnan(ship)
        late = has_lines & (ship > (m["odate"].to_numpy(np.int64) + 90))
        g = pd.DataFrame({"flag": m["flag"], "late": late,
                          "none": ~has_lines}).groupby(
            "flag", as_index=False).agg(
            p_n=("late", "size"), p_late=("late", "sum"),
            p_none=("none", "sum"))
        return g.astype({"p_n": np.int64, "p_late": np.int64,
                         "p_none": np.int64})

    parts = collect(exchange(
        [(_t(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]),
          orders_leg),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]), line_leg)],
        reduce_group))
    agg = parts.groupby("flag", as_index=False).agg(
        n_orders=("p_n", "sum"), n_late=("p_late", "sum"),
        n_no_lines=("p_none", "sum"))
    agg = agg.rename(columns={"flag": "o_orderpriority"})
    agg = agg.sort_values("o_orderpriority").reset_index(drop=True)
    return agg.astype({"n_orders": np.int64, "n_late": np.int64,
                       "n_no_lines": np.int64})


ORACLES["semi_anti_join"] = """
SELECT o_orderpriority,
  CAST(count(*) AS BIGINT) AS n_orders,
  CAST(sum(CASE WHEN EXISTS (
      SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey
        AND l_shipdate > o_orderdate + INTERVAL 90 DAY)
    THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
  CAST(sum(CASE WHEN NOT EXISTS (
      SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)
    THEN 1 ELSE 0 END) AS BIGINT) AS n_no_lines
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"""


def q_tpch_q18(sf_dir: str, threshold_qty: float = 200.0) -> pd.DataFrame:
    """TPC-H Q18 (large-volume orders): HAVING over a high-cardinality
    groupby, then an enrich-join for only the survivors. Per-orderkey
    quantity sums reduce vectorized inside bounded-salt groups (never
    one Ray group per orderkey); the HAVING filter applies IN-GROUP so
    only survivors leave the exchange — their count is bounded by the
    predicate's selectivity (a documented data-dependent collect; past
    a driver budget the salted repartition join of q_tpch_q5 is the
    fallback shape). Orders stream against the broadcast survivor map
    with a per-block top-100, the driver merges <=100 x blocks
    candidates, and only the final 100 rows' customers are named via a
    streamed broadcast filter. Quantities sum in integer hundredths."""
    ithr = int(round(threshold_qty * 100))

    def qty_partial(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({"k": _np(batch, "l_orderkey"),
                          "q": _cents(_np(batch, "l_quantity"))}).groupby(
            "k", as_index=False).agg(q=("q", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def having_filter(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", as_index=False).agg(q=("q", "sum"))
        return g[g["q"] > ithr].astype({"k": np.int64, "q": np.int64})

    surv = collect(exchange(
        [(_t(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]), qty_partial)],
        having_filter)).sort_values("k")
    surv_ref = ray.put((surv["k"].to_numpy(np.int64),
                        surv["q"].to_numpy(np.int64)))

    def orders_top(batch: pa.Table) -> pa.Table:
        skeys, sq = ray.get(surv_ref)
        ok = _np(batch, "o_orderkey")
        keep = isin_sorted(ok, skeys)
        batch = batch.filter(pa.array(keep))
        ok = ok[keep]
        df = pd.DataFrame({
            "o_orderkey": ok,
            "o_custkey": batch.column("o_custkey").to_numpy(zero_copy_only=False),
            "o_orderdate": batch.column("o_orderdate").to_numpy(zero_copy_only=False),
            "o_totalprice": batch.column("o_totalprice").to_numpy(zero_copy_only=False),
            "iq": sq[np.searchsorted(skeys, ok)],
        })
        # a block's local top-100 (global ordering) cannot miss a
        # global top-100 row. Assumes o_custkey ⊆ c_custkey (standard
        # FK, verified for the fixtures): a customer-less order could
        # otherwise hold a block slot the enrich merge later vacates.
        df = df.sort_values(["o_totalprice", "o_orderkey"],
                            ascending=[False, True]).head(100)
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = collect(map(_t(sf_dir, "orders",
                          ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
                       orders_top))

    # name the CANDIDATES (<=100 x blocks custkeys, still tiny), and
    # enrich BEFORE the final limit: the oracle's join runs pre-LIMIT,
    # so an order whose customer row is missing must not occupy a
    # top-100 slot it would lose to the 101st candidate
    wanted = np.unique(cand["o_custkey"].to_numpy(np.int64))
    wanted_ref = ray.put(wanted)

    def name_filter(batch: pa.Table) -> pa.Table:
        keep = isin_sorted(_np(batch, "c_custkey"), ray.get(wanted_ref))
        return batch.filter(pa.array(keep))

    names = collect(map(_t(sf_dir, "customer", ["c_custkey", "c_name"]), name_filter))
    out = cand.merge(names, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True]).head(100)
    return pd.DataFrame({
        "c_name": out["c_name"].to_numpy(object),
        "o_orderkey": out["o_orderkey"].to_numpy(np.int64),
        "o_orderdate": out["o_orderdate"].to_numpy(),
        "o_totalprice": out["o_totalprice"].to_numpy(np.float64),
        "total_qty": out["iq"].to_numpy(np.int64) / 100.0,
    })


ORACLES["tpch_q18"] = """
SELECT c_name, o_orderkey, o_orderdate, o_totalprice,
  sum(CAST(round(l_quantity * 100, 0) AS BIGINT)) / 100.0 AS total_qty
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY c_name, o_orderkey, o_orderdate, o_totalprice
HAVING sum(CAST(round(l_quantity * 100, 0) AS BIGINT)) > 20000
ORDER BY o_totalprice DESC, o_orderkey LIMIT 100"""


# Bloom semi-join pushdown: when the build side's key set outgrows a
# broadcast, ship a fixed-size BIT ARRAY instead of the keys. False
# positives are then removed by the exact salted exchange — which now
# carries only the bloom survivors (true matches + ~FP rate), not the
# whole probe side. Filter size derives from the footer-estimated
# build-side row count (~16 bits/key, 2 hash probes => ~2-3% FP),
# capped at a broadcastable 16 MiB.
BLOOM_MAX_BITS = 1 << 27


def _bloom_hashes(keys: np.ndarray, m_bits: int):
    """Two splitmix64-derived probe positions per key (vectorized)."""
    x = keys.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    mask = np.uint64(m_bits - 1)
    return (x & mask), ((x >> np.uint64(32)) & mask)


def _bloom_scatter(words: np.ndarray, positions: np.ndarray) -> None:
    """OR the given bit positions into ``words`` in place — the one
    scatter used by both the single-array build (`_bloom_set`) and the
    distributed per-shard densify, so the layouts cannot drift."""
    np.bitwise_or.at(words, (positions >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (positions & np.uint64(63)))


def _bloom_set(keys: np.ndarray, m_bits: int) -> np.ndarray:
    words = np.zeros(m_bits // 64, np.uint64)
    for h in _bloom_hashes(keys, m_bits):
        _bloom_scatter(words, h)
    return words


def _bloom_test(keys: np.ndarray, words: np.ndarray, m_bits: int) -> np.ndarray:
    hit = np.ones(len(keys), bool)
    for h in _bloom_hashes(keys, m_bits):
        bit = np.uint64(1) << (h & np.uint64(63))
        hit &= (words[(h >> np.uint64(6)).astype(np.int64)] & bit) != 0
    return hit


def _build_bloom(sf_dir: str, table: str, columns, keys_fn,
                 m_bits: int | None = None):
    """Distributed Bloom build over ``keys_fn(batch) -> int keys`` of
    one table; returns ``(bloom_ref, m_bits)`` with the merged filter
    in plasma. The build side's keys never collect to the driver —
    each block ships its deduped set-bit POSITIONS, an exchange
    keyed by the <=2^24-bit position range densifies each range, and
    the driver assembles exactly the filter's m/8 bytes regardless of
    block count (a dense filter-sized partial per block would make the
    reduce payload grow with block count: 10^6 blocks x 16 MiB =
    16 TB of partials at corpus scale). Filter size derives from a
    distributed count of the INSERTED keys (~16 bits/key, 2 probes =>
    ~2-3% FP), capped at a broadcastable 16 MiB."""
    if m_bits is None:
        def key_count(batch: pa.Table) -> pa.Table:
            return pa.table({"p_n": pa.array([len(keys_fn(batch))],
                                             pa.int64())})

        n_keys = int(fold(_t(sf_dir, table, columns),
                          [], {"p_n": "sum"}, fn=key_count)["p_n"].sum())
        m_bits = 1 << int(np.clip(np.ceil(np.log2(max(n_keys, 1) * 16)),
                                  16, np.log2(BLOOM_MAX_BITS)))
    shard_bits = min(m_bits, 1 << 24)

    def bloom_positions(batch: pa.Table) -> pa.Table:
        keys = keys_fn(batch)
        h1, h2 = _bloom_hashes(keys, m_bits)
        pos = np.unique(np.concatenate([h1, h2])) if len(keys) else \
            np.empty(0, np.uint64)
        return pa.table({
            "k": pa.array((pos // np.uint64(shard_bits)).astype(np.int64),
                          pa.int64()),
            "pos": pa.array(pos, pa.uint64()),
        })

    def shard_dense(df: pd.DataFrame) -> pd.DataFrame:
        # a group holds every position of its shards (k = shard)
        shards = np.unique(df["k"].to_numpy(np.int64))
        dense = []
        for sid in shards:
            rel = (df["pos"].to_numpy(np.uint64)[df["k"].to_numpy() == sid]
                   - np.uint64(sid * shard_bits))
            words = np.zeros(shard_bits // 64, np.uint64)
            _bloom_scatter(words, rel)
            dense.append(words.tobytes())
        return pd.DataFrame({"shard": shards, "words": pd.Series(
            dense, dtype=pd.ArrowDtype(pa.binary()))})

    parts = collect(exchange([(_t(sf_dir, table, columns), bloom_positions)],
                             shard_dense))
    bloom = np.zeros(m_bits // 64, np.uint64)
    wps = shard_bits // 64
    for sid, b in zip(parts["shard"], parts["words"]):
        bloom[int(sid) * wps:(int(sid) + 1) * wps] |= np.frombuffer(b, np.uint64)
    return ray.put(bloom), m_bits


def q_bloom_semi_join(sf_dir: str, m_bits: int | None = None) -> pd.DataFrame:
    """Semi-join pushdown via a DISTRIBUTED-built Bloom filter:
    revenue and count of lineitems belonging to high-priority 1996
    orders. The build side's orderkeys never collect to the driver —
    each orders block ships its deduped set-bit POSITIONS, an exchange
    keyed by the <=2^24-bit position range densifies each range, and
    the driver assembles exactly the filter's m/8 bytes regardless of
    block count. The merged filter broadcasts once; lineitem probes it per
    batch, and only the survivors (true matches + ~2% false positives)
    enter the exact salted verify exchange, where the orders leg's
    true keys eliminate the FPs. Exact by construction — the bloom
    only cuts exchange traffic; result is oracle-hash-identical."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), type=pa.timestamp("us"))
    PRI = ("1-URGENT", "2-HIGH")
    orders_cols = ["o_orderkey", "o_orderdate", "o_orderpriority"]

    def orders_keys(batch: pa.Table) -> np.ndarray:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi)))
        return _np(batch, "o_orderkey")[np.isin(_np(batch, "o_orderpriority"), PRI)]

    # build sizing + distributed position-range build live in
    # ``_build_bloom`` (shared with Q8's partkey pushdown)
    bloom_ref, m_bits = _build_bloom(
        sf_dir, "orders", orders_cols, orders_keys, m_bits)

    def line_leg(batch: pa.Table) -> pa.Table:
        ok = _np(batch, "l_orderkey")
        keep = _bloom_test(ok, ray.get(bloom_ref), m_bits)
        g = pd.DataFrame({"k": ok[keep], "rev": _rev(batch, keep)}).groupby(
            "k", as_index=False).agg(rev=("rev", "sum"), n=("rev", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def verify(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        m = lines.merge(orders, on="k")
        return pd.DataFrame({"p_rev": np.array([m["rev"].sum()], np.int64),
                             "p_n": np.array([m["n"].sum()], np.int64)})

    parts = collect(exchange(
        [(_t(sf_dir, "orders", orders_cols),
          lambda b: pa.table({"k": orders_keys(b).astype(np.int64)})),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]),
          line_leg)],
        verify))
    n = int(parts["p_n"].sum())
    return pd.DataFrame({
        "revenue": [int(parts["p_rev"].sum()) / 10000.0 if n else np.nan],
        "n_items": [n],
    })


ORACLES["bloom_semi_join"] = """
SELECT sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) / 10000.0
         AS revenue,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_orderkey IN (
  SELECT o_orderkey FROM orders
  WHERE o_orderpriority IN ('1-URGENT', '2-HIGH')
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1997-01-01')"""


def q_tpch_q13(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 (customer order-count distribution): the LEFT OUTER
    join shape, join-free. Customers who placed NO qualifying (urgent)
    orders must still appear with c_count = 0 — the classic left-join
    zero-fill that an inner repartition join silently drops. Orders
    pre-count per custkey INSIDE each block (the exchange carries one
    (custkey, count) partial per block, never order rows); the customer
    leg rides the same salted exchange, and the in-group reduce
    left-merges counts onto the full customer slice with NaN->0. Each
    group emits a PARTIAL histogram (c_count, p_dist), so what leaves
    the exchange is bounded by groups x |distinct counts| tiny int rows
    — summed on the driver (a Ray aggregate here would add an
    all-to-all Sort costing more than the rest of the query; see the
    Q16 lesson in BASELINE.md)."""
    def orders_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.starts_with(batch.column("o_orderpriority"), "1"))
        keys, counts = np.unique(_np(batch, "o_custkey"), return_counts=True)
        return pa.table({"k": keys, "n": counts.astype(np.int64)})

    def reduce_group(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        right = orders.groupby("k", as_index=False).agg(n=("n", "sum")).astype(
            {"n": "Int64"})
        # NA = customer with no qualifying orders -> count 0 (nullable
        # Int64, so counts never round-trip through float64)
        cc = cust.merge(right, on="k", how="left")["n"].fillna(0).to_numpy(np.int64)
        vals, dist = np.unique(cc, return_counts=True)
        return pd.DataFrame({"c_count": vals, "p_dist": dist.astype(np.int64)})

    parts = collect(exchange(
        [(_t(sf_dir, "customer", ["c_custkey"]),
          lambda b: pa.table({"k": b.column("c_custkey")})),
         (_t(sf_dir, "orders", ["o_custkey", "o_orderpriority"]), orders_leg)],
        reduce_group))
    agg = parts.groupby("c_count", as_index=False).agg(
        custdist=("p_dist", "sum"))
    agg = agg.sort_values(["custdist", "c_count"],
                          ascending=[False, False]).reset_index(drop=True)
    return agg.astype({"c_count": np.int64, "custdist": np.int64})


ORACLES["tpch_q13"] = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist FROM (
  SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority LIKE '1%'
  GROUP BY c_custkey)
GROUP BY c_count ORDER BY custdist DESC, c_count DESC"""


Q16_SIZES = (1, 5, 9, 13, 17, 21, 25, 29)


def q_tpch_q16(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16 (supplier count per part attribute; adapted — the
    fixtures have no partsupp, so lineitem supplies the part->supplier
    pairs). COUNT(DISTINCT) per group as a two-level distinct exchange:
    exchange 1 is keyed on partkey (lineitem ships per-block-deduped
    (partkey, suppkey) pairs; the filtered part leg ships one attribute
    row per partkey) and emits the matched DISTINCT
    (brand, type, size, suppkey) quads; the same suppkey can reach a
    given attribute group from different partkeys in DIFFERENT salt
    groups, so a second exchange keys on a hash of the ATTRIBUTE TRIPLE
    (deterministic fixed-key siphash) — every copy of a quad lands in
    the same group, where one vectorized dedup + size() emits the
    FINAL per-attribute supplier count directly (no third string-key
    aggregate: its Sort cost more than both exchanges combined). Per-group payload stays
    bounded: quads per attribute triple cap at supplier cardinality,
    and the hash spreads triples across the salted width."""
    sizes = np.array(Q16_SIZES, np.int64)

    def part_leg(batch: pa.Table) -> pa.Table:
        psize = _np(batch, "p_size").astype(np.int64)
        keep = (_np(batch, "p_brand") != "Brand#11") & np.isin(psize, sizes)
        t = batch.filter(pa.array(keep))
        return pa.table({"k": t.column("p_partkey"), "brand": t.column("p_brand"),
                         "ptype": t.column("p_type"), "size": psize[keep]})

    def line_leg(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({"k": _np(batch, "l_partkey"),
                          "suppkey": _np(batch, "l_suppkey")}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    def attach_attrs(parts: pd.DataFrame, pairs: pd.DataFrame) -> pd.DataFrame:
        m = pairs.drop_duplicates().merge(parts, on="k")   # unfiltered parts drop
        quads = m[["brand", "ptype", "size", "suppkey"]].drop_duplicates()
        # deterministic ATTRIBUTE-TRIPLE hash (fixed siphash key, no
        # PYTHONHASHSEED): co-locates every copy of a quad
        h = pd.util.hash_pandas_object(
            quads[["brand", "ptype", "size"]], index=False).to_numpy(np.uint64)
        return quads.assign(k=h.view(np.int64))

    def count_group(df: pd.DataFrame) -> pd.DataFrame:
        quads = df[["brand", "ptype", "size", "suppkey"]].drop_duplicates()
        g = quads.groupby(["brand", "ptype", "size"], as_index=False).agg(
            supplier_cnt=("suppkey", "size"))
        return g.astype({"size": np.int64, "supplier_cnt": np.int64})

    quads = exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]), part_leg),
         (_t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]), line_leg)],
        attach_attrs)
    # the count_group output IS the (result-sized, attribute-domain-
    # bounded) answer — collecting it is the query's return contract
    agg = collect(exchange([(quads, None)], count_group)).rename(
        columns={"brand": "p_brand", "ptype": "p_type", "size": "p_size"})
    agg = agg.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True]).reset_index(drop=True)
    return agg.astype({"p_size": np.int64, "supplier_cnt": np.int64})


ORACLES["tpch_q16"] = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
  CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM part JOIN lineitem ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#11' AND p_size IN (1,5,9,13,17,21,25,29)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size"""


def q_tpch_q22(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 (global-customer-insight; adapted to the fixture
    schema — mktsegment plays the country-code role and the anti side
    is urgent orders): a SCALAR SUBQUERY broadcast composed with an
    anti-join. Pass 1 computes the global positive-balance mean as one
    distributed (count, cents-sum) aggregate; the comparison
    ``acctbal > avg`` is evaluated as ``cents * n_pos > total_cents``
    in int64 on BOTH sides, so the threshold is exact regardless of
    partition order or float division. Only the qualifying customers
    enter the salted anti-join exchange against per-block-deduped
    urgent-order custkeys; survivors reduce to per-segment
    (count, cents) partials."""
    def bal_partial(batch: pa.Table) -> pa.Table:
        cents = _cents(_np(batch, "c_acctbal"))
        pos = cents > 0
        return pa.table({"p_n": [int(pos.sum())], "p_cents": [int(cents[pos].sum())]})

    cust_cols = ["c_custkey", "c_mktsegment", "c_acctbal"]
    stats = fold(_t(sf_dir, "customer", ["c_acctbal"]),
                 [], {"p_n": "sum", "p_cents": "sum"}, fn=bal_partial)
    n_pos = int(stats["p_n"].sum())
    total_cents = int(stats["p_cents"].sum())

    def cust_leg(batch: pa.Table) -> pa.Table:
        cents = _cents(_np(batch, "c_acctbal"))
        keep = cents * n_pos > total_cents
        t = batch.filter(pa.array(keep))
        return pa.table({"k": t.column("c_custkey"), "seg": t.column("c_mktsegment"),
                         "cents": cents[keep]})

    def orders_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.starts_with(batch.column("o_orderpriority"), "1"))
        return pa.table({"k": np.unique(_np(batch, "o_custkey"))})

    def reduce_group(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        g = cust[~cust["k"].isin(orders["k"])].groupby("seg", as_index=False).agg(
            p_n=("k", "size"), p_cents=("cents", "sum"))
        return g.astype({"p_n": np.int64, "p_cents": np.int64})

    # per-group partials are (segment, count, cents) — groups x the tiny
    # segment domain — so the final sum is a driver-side pandas groupby,
    # not a Ray aggregate's all-to-all Sort (the Q16 lesson in
    # BASELINE.md)
    parts = collect(exchange(
        [(_t(sf_dir, "customer", cust_cols), cust_leg),
         (_t(sf_dir, "orders", ["o_custkey", "o_orderpriority"]), orders_leg)],
        reduce_group))
    agg = parts.groupby("seg", as_index=False).agg(
        numcust=("p_n", "sum"), cents=("p_cents", "sum"))
    out = pd.DataFrame({
        "c_mktsegment": agg["seg"],
        "numcust": agg["numcust"].astype(np.int64),
        "totacctbal": agg["cents"].to_numpy(np.int64) / 100.0,
    })
    return out.sort_values("c_mktsegment").reset_index(drop=True)


ORACLES["tpch_q22"] = """
WITH s AS (SELECT CAST(count(*) AS BIGINT) AS n_pos,
    sum(CAST(round(c_acctbal*100, 0) AS BIGINT)) AS total_cents
  FROM customer WHERE CAST(round(c_acctbal*100, 0) AS BIGINT) > 0)
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS numcust,
  sum(CAST(round(c_acctbal*100, 0) AS BIGINT)) / 100.0 AS totacctbal
FROM customer, s
WHERE CAST(round(c_acctbal*100, 0) AS BIGINT) * s.n_pos > s.total_cents
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority LIKE '1%')
GROUP BY c_mktsegment ORDER BY c_mktsegment"""


def q_min_cost_supplier(sf_dir: str) -> ray.data.Dataset:
    """Per-part cheapest supplier (TPC-H Q2's argmin-join core over the
    fixture schema): ARGMIN per group with a deterministic tie-break,
    then a broadcast dimension enrich. Each lineitem block reduces to
    one (partkey, min-cents, suppkey) candidate per partkey via a
    lexicographic sort (price cents, then suppkey — cents ordering ==
    float ordering for 2-decimal money, and the tie-break makes the
    argmin total); the salted exchange re-runs the same reduce across
    blocks, so the combiner is associative by construction. Supplier
    names attach inside the reduce from one ray.put broadcast of the
    (sorted suppkey -> name) dimension arrays; the result streams out
    as a Dataset at part-table cardinality — never a driver collect."""
    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_name"]
                       ).sort_values("s_suppkey")
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_name"].to_numpy(object)))

    def line_leg(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "k": _np(batch, "l_partkey"), "ic": _cents(_np(batch, "l_extendedprice")),
            "sk": _np(batch, "l_suppkey"),
        }).sort_values(["k", "ic", "sk"]).drop_duplicates("k")
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        best = df.sort_values(["k", "ic", "sk"]).drop_duplicates("k")
        skeys, snames = ray.get(supp_ref)
        sk = best["sk"].to_numpy(np.int64)
        idx = np.searchsorted(skeys, sk)
        # inner-join semantics: a suppkey absent from the dimension
        # drops its row (mirrors the SQL join), never misattributes
        found = idx < len(skeys)
        found[found] = skeys[idx[found]] == sk[found]
        best, idx = best[found], idx[found]
        return pd.DataFrame({
            "l_partkey": best["k"].to_numpy(np.int64),
            "min_price": best["ic"].to_numpy(np.int64) / 100.0,
            "best_suppkey": best["sk"].to_numpy(np.int64),
            "best_supplier": snames[idx],
        })

    cols = ["l_partkey", "l_suppkey", "l_extendedprice"]
    return exchange([(_t(sf_dir, "lineitem", cols), line_leg)], reduce_group)


ORACLES["min_cost_supplier"] = """
WITH t AS (SELECT l_partkey, l_suppkey,
    CAST(round(l_extendedprice*100, 0) AS BIGINT) AS ic FROM lineitem),
r AS (SELECT l_partkey, l_suppkey, ic,
    row_number() OVER (PARTITION BY l_partkey
                       ORDER BY ic, l_suppkey) AS rn FROM t)
SELECT r.l_partkey, r.ic / 100.0 AS min_price,
       r.l_suppkey AS best_suppkey, s_name AS best_supplier
FROM r JOIN supplier ON s_suppkey = r.l_suppkey
WHERE rn = 1 ORDER BY l_partkey"""


def q_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-key ordered cumulative window (SUM OVER PARTITION BY
    custkey ORDER BY orderdate, orderkey): each customer's running
    spend after every order. The partition key is high-cardinality, so
    rows exchange into bounded salt groups (every order of a customer
    shares its group) and the whole window evaluates VECTORIZED inside
    the group: one lexsort over (custkey, date, orderkey), an int64
    cents cumsum, then a per-key offset subtraction — no per-customer
    Python. Cents stay integers until the final /100, so the running
    values are exact at any partition order. Emits at orders
    cardinality and streams out as a Dataset."""
    def leg(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column("o_custkey"), "ok": batch.column("o_orderkey"),
            "od": pc.cast(batch.column("o_orderdate"), pa.int64()),
            "cents": _cents(_np(batch, "o_totalprice")),
        })

    def window(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["k"].to_numpy(np.int64)
        ok = df["ok"].to_numpy(np.int64)
        od = df["od"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        order = np.lexsort((ok, od, ck))
        ck, ok, od, cents = ck[order], ok[order], od[order], cents[order]
        run = np.cumsum(cents)
        # subtract the running total accumulated BEFORE each key's
        # slice (exact for any sign, unlike a monotone-accumulate)
        starts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
        seg_len = np.diff(np.r_[starts, len(ck)])
        offsets = np.r_[np.int64(0), run[starts[1:] - 1]]
        run = run - np.repeat(offsets, seg_len)
        return pd.DataFrame({
            "o_orderkey": ok, "o_custkey": ck,
            "running_spend": run / 100.0,
        })

    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    return exchange([(_t(sf_dir, "orders", cols), leg)], window)


ORACLES["running_total"] = """
SELECT o_orderkey, o_custkey,
  sum(CAST(round(o_totalprice*100, 0) AS BIGINT)) OVER (
    PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey) / 100.0
    AS running_spend
FROM orders ORDER BY o_custkey, o_orderkey"""


def q_supplier_list_agg(sf_dir: str) -> pd.DataFrame:
    """Grouped ORDERED list-collect (string_agg): per nation key, the
    comma-joined sorted supplier names plus the count, from an exchange
    keyed by the nation key. The concat itself is the operator's
    contract — a group's list is inherently group-sized, so this is the
    one operator family whose output row grows with the corpus (callers
    wanting bounded rows use the counting/top-k aggregates instead)."""

    def leg(t: pa.Table) -> pa.Table:
        nation = pc.cast(t.column("s_nationkey"), pa.int64())
        return pa.table({"k": nation, "s_nationkey": nation, "s_name": t.column("s_name")})

    def agg_group(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["s_nationkey", "s_name"]).groupby(
            "s_nationkey", as_index=False).agg(
            supplier_list=("s_name", ",".join), n_suppliers=("s_name", "size"))

    out = collect(exchange([(_t(sf_dir, "supplier", ["s_nationkey", "s_name"]), leg)],
                           agg_group))
    return out.sort_values("s_nationkey").reset_index(drop=True)


ORACLES["supplier_list_agg"] = """
SELECT CAST(s_nationkey AS BIGINT) AS s_nationkey,
  string_agg(s_name, ',' ORDER BY s_name) AS supplier_list,
  CAST(count(*) AS BIGINT) AS n_suppliers
FROM supplier GROUP BY s_nationkey ORDER BY s_nationkey"""


def q_full_outer_join(sf_dir: str) -> ray.data.Dataset:
    """FULL OUTER join (events activity x customer balance on
    user_id = custkey): keys may exist on either side alone — matched
    rows carry both payloads, events-only keys get a NULL balance,
    customer-only keys get an events count of 0. Events pre-count per
    key inside each block (the exchange ships one partial per
    (key, block)); the in-group reduce is a vectorized pandas OUTER
    merge, so both null-sides fall out of the same pass that serves the
    inner case — no second anti-join sweep. The balance travels as the
    raw float64 (pure passthrough, no cents roundtrip) for bit parity
    with the SQL side."""
    def events_leg(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(_np(batch, "user_id"), return_counts=True)
        return pa.table({"k": keys, "cnt": counts.astype(np.int64)})

    def reduce_group(events: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        ev = events.groupby("k", as_index=False).agg(cnt=("cnt", "sum")).astype(
            {"cnt": "Int64"})
        m = ev.merge(cust, on="k", how="outer")
        return pd.DataFrame({
            "ukey": m["k"].to_numpy(np.int64),
            "n_events": m["cnt"].fillna(0).to_numpy(np.int64),
            "c_acctbal": m["bal"].to_numpy(np.float64),
        })

    return exchange(
        [(_t(sf_dir, "events", ["user_id"]), events_leg),
         (_t(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
          lambda b: pa.table({"k": b.column("c_custkey"), "bal": b.column("c_acctbal")}))],
        reduce_group)


ORACLES["full_outer_join"] = """
WITH e AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
           FROM events GROUP BY user_id)
SELECT COALESCE(e.user_id, c.c_custkey) AS ukey,
       COALESCE(e.n_events, 0) AS n_events,
       c.c_acctbal
FROM e FULL OUTER JOIN customer c ON e.user_id = c.c_custkey
ORDER BY ukey"""


def q_tpch_q17(sf_dir: str,
               bloom_min_probe_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q17 (small-quantity-order revenue; adapted — brand filter
    only, the fixtures have no container): a CORRELATED scalar
    subquery per high-cardinality key. Every line must compare its
    quantity against 0.2x the mean quantity of ITS OWN part — so the
    exchange is keyed on partkey and carries the line rows (two int64
    cents each); all lines of a part land in one salt group, where the
    per-part totals, the ``qty*5*n < total`` comparison (the 0.2x-mean
    test in pure int64 — no division on either side) and the matched
    price sum all happen vectorized. Only (sum, count) partials leave
    the groups; an empty match returns the SQL NULL as NaN."""
    def part_keys(batch: pa.Table) -> np.ndarray:
        return _np(batch, "p_partkey")[_np(batch, "p_brand") == "Brand#23"]

    # bytes-gated partkey bloom pushdown (see _part_bloom)
    bloom_ref, m_bits = _part_bloom(
        sf_dir, part_keys, ["p_partkey", "p_brand"],
        ["l_partkey", "l_quantity"], bloom_min_probe_bytes)

    def line_leg(batch: pa.Table) -> pa.Table:
        if bloom_ref is not None:
            batch = batch.filter(pa.array(_bloom_test(
                _np(batch, "l_partkey"), ray.get(bloom_ref), m_bits)))
        return pa.table({"k": batch.column("l_partkey"),
                         "qty": _cents(_np(batch, "l_quantity")),
                         "price": _cents(_np(batch, "l_extendedprice"))})

    def reduce_group(part: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        lines = lines[lines["k"].isin(part["k"].to_numpy(np.int64))]
        if lines.empty:
            return pd.DataFrame({"p_cents": np.array([0], np.int64),
                                 "p_n": np.array([0], np.int64)})
        tot = lines.groupby("k").agg(tq=("qty", "sum"), nq=("qty", "size"))
        m = lines.join(tot, on="k")
        keep = m["qty"].to_numpy(np.int64) * 5 * m["nq"].to_numpy(np.int64) \
            < m["tq"].to_numpy(np.int64)
        return pd.DataFrame({
            "p_cents": np.array([m["price"].to_numpy(np.int64)[keep].sum()],
                                np.int64),
            "p_n": np.array([int(keep.sum())], np.int64),
        })

    parts = collect(exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_brand"]),
          lambda b: pa.table({"k": part_keys(b)})),
         (_t(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]),
          line_leg)],
        reduce_group))
    n = int(parts["p_n"].sum())
    return pd.DataFrame({
        "avg_yearly": [int(parts["p_cents"].sum()) / 100.0 / 7.0 if n else np.nan],
    })


ORACLES["tpch_q17"] = """
WITH pt AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#23'),
tot AS (SELECT l_partkey, sum(CAST(round(l_quantity*100, 0) AS BIGINT)) AS tq,
        CAST(count(*) AS BIGINT) AS nq FROM lineitem GROUP BY l_partkey)
SELECT sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)) / 100.0 / 7.0
  AS avg_yearly
FROM lineitem JOIN pt ON p_partkey = l_partkey
     JOIN tot ON tot.l_partkey = lineitem.l_partkey
WHERE CAST(round(l_quantity*100, 0) AS BIGINT) * 5 * nq < tq"""


def q_tpch_q15(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 (top supplier): revenue per supplier over a ship-date
    window, then the suppliers whose revenue EQUALS the global max —
    the HAVING-=-scalar-max shape. Per-block (suppkey, cents-revenue)
    partials reduce to exact per-supplier totals inside bounded salt
    groups; the totals (supplier-dimension cardinality, never the
    driver) are the exchange's held output, so the global-max fold and
    the equality filter don't re-run the lineitem scan; the max
    compare is int64 cents so
    ties are exact, and only the winners collect for the broadcast
    name enrich."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 7, 1), type=pa.timestamp("us"))

    def rev_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi)))
        g = pd.DataFrame({"k": _np(batch, "l_suppkey"), "r": _rev(batch)}).groupby(
            "k", as_index=False).agg(r=("r", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", as_index=False).agg(r=("r", "sum"))
        return g.astype({"k": np.int64, "r": np.int64})

    cols = ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]
    tot = exchange([(_t(sf_dir, "lineitem", cols), rev_partial)], totals)
    # each block's top row, folded into the global max on the driver
    mx = fold(tot, [], {"r": "max"},
              fn=lambda b: b.select(["r"]).sort_by([("r", "descending")]).slice(0, 1))
    if mx.empty:
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                             "s_name": pd.Series([], dtype=object),
                             "total_revenue": pd.Series([], dtype=np.float64)})
    r_max = int(mx["r"].iloc[0])
    winners = collect(map(tot, lambda t: t.filter(pc.equal(t.column("r"), r_max))))

    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_name"])
    out = winners.merge(supp, left_on="k", right_on="s_suppkey")
    out = pd.DataFrame({
        "s_suppkey": out["s_suppkey"].astype(np.int64),
        "s_name": out["s_name"],
        "total_revenue": out["r"].to_numpy(np.int64) / 10000.0,
    })
    return out.sort_values("s_suppkey").reset_index(drop=True)


ORACLES["tpch_q15"] = """
WITH rev AS (SELECT l_suppkey,
    sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
        * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) AS r
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-07-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, r / 10000.0 AS total_revenue
FROM rev JOIN supplier ON s_suppkey = l_suppkey
WHERE r = (SELECT max(r) FROM rev) ORDER BY s_suppkey"""


def q_tpch_q10(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q10 (returned-item revenue; adapted to the fixture
    schema): large-large join -> per-key rollup -> global top-k ->
    survivor-only enrich. Returned ('R') line revenue joins its
    order's custkey in a salted orderkey exchange that ships one
    cents partial per (orderkey, block); a second bounded exchange
    totals per custkey and each group emits only its LOCAL top-k
    (distributive: a group's #k+1 can never make the global top-k),
    so the driver merges groups x k candidate rows. The oracle joins
    customer BEFORE the LIMIT, so a custkey absent from the dimension
    must not hold a top-k slot another candidate would win (the q18
    lesson): customer keys ride the SAME salt2 exchange as a
    key-only leg, and each group enforces membership before its local
    truncation. Only the k winners' names are fetched — a distributed
    membership filter over customer, never a full dimension
    broadcast; nation is a tiny driver-side dim."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 7, 1), type=pa.timestamp("us"))

    def orders_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi)))
        return pa.table({"k": batch.column("o_orderkey"),
                         "ck": batch.column("o_custkey")})

    def line_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        g = pd.DataFrame({"k": _np(batch, "l_orderkey"), "r": _rev(batch)}).groupby(
            "k", as_index=False).agg(r=("r", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_orders(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        lines = lines.groupby("k", as_index=False).agg(r=("r", "sum"))
        g = orders.merge(lines, on="k").groupby("ck", as_index=False).agg(
            r=("r", "sum"))
        # re-keyed on custkey: the leg of the top-k exchange
        return pd.DataFrame({"k": g["ck"].to_numpy(np.int64),
                             "r": g["r"].to_numpy(np.int64)})

    def topk_group(rev: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        known = np.unique(cust["k"].to_numpy(np.int64))
        g = rev.groupby("k", as_index=False).agg(r=("r", "sum"))
        g = g[isin_sorted(g["k"].to_numpy(np.int64), known)]
        g = g.sort_values(["r", "k"], ascending=[False, True]).head(k)
        return g.astype({"k": np.int64, "r": np.int64})

    by_cust = exchange(
        [(_t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
          orders_leg),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount",
                                  "l_returnflag"]), line_leg)],
        join_orders)
    cand = collect(exchange(
        [(by_cust, None), (_t(sf_dir, "customer", ["c_custkey"]),
                           lambda b: pa.table({"k": b.column("c_custkey")}))],
        topk_group))
    if cand.empty:
        return pd.DataFrame({"c_custkey": pd.Series([], dtype=np.int64),
                             "c_name": pd.Series([], dtype=object),
                             "n_name": pd.Series([], dtype=object),
                             "revenue": pd.Series([], dtype=np.float64)})
    # enrich every candidate (groups * k rows, still tiny) BEFORE the
    # final limit — the oracle's join runs pre-LIMIT, so a candidate
    # whose customer row is missing must not hold a top-k slot it
    # would lose to the next candidate (the q18 lesson)
    wanted_ref = ray.put(np.unique(cand["k"].to_numpy(np.int64)))

    def name_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(isin_sorted(_np(batch, "c_custkey"),
                                                 ray.get(wanted_ref))))

    names = collect(map(_t(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"]),
                        name_filter))
    nation = _dim_pandas(sf_dir, "nation", ["n_nationkey", "n_name"])
    out = cand.merge(names, left_on="k", right_on="c_custkey").merge(
        nation, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(["r", "k"], ascending=[False, True]).head(k)
    return pd.DataFrame({
        "c_custkey": out["c_custkey"].astype(np.int64).to_numpy(),
        "c_name": out["c_name"].to_numpy(object),
        "n_name": out["n_name"].to_numpy(object),
        "revenue": out["r"].to_numpy(np.int64) / 10000.0,
    })


ORACLES["tpch_q10"] = """
WITH rev AS (SELECT o_custkey,
    sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
        * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) AS r
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
  WHERE o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1996-07-01'
    AND l_returnflag = 'R'
  GROUP BY o_custkey)
SELECT c_custkey, c_name, n_name, r / 10000.0 AS revenue
FROM rev JOIN customer ON c_custkey = o_custkey
         JOIN nation ON n_nationkey = c_nationkey
ORDER BY r DESC, c_custkey LIMIT 20"""


def q_tpch_q4(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 (order-priority checking; adapted — the EXISTS probe
    is ``l_returnflag = 'R'``, the fixtures lack commit/receipt
    dates): the correlated-EXISTS semi-join rollup. Orders in the
    date window ride a salted orderkey exchange carrying an int8
    priority code (first digit of o_orderpriority); the lineitem leg
    ships only per-block DISTINCT qualifying orderkeys. Each group
    counts its semi-join survivors per code — five tiny (code, n)
    partials leave each group and are summed on the driver (the Q13
    lesson: a trailing Ray aggregate re-Sorts near-empty blocks for
    more than the query costs). The code -> priority-string map comes
    from a separate distinct scan of the dictionary-encoded priority
    column, never from the exchange (strings stay out of the
    shuffle)."""
    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 4, 1), type=pa.timestamp("us"))

    def orders_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi)))
        return pa.table({"k": batch.column("o_orderkey"), "code": pc.cast(
            pc.utf8_slice_codeunits(batch.column("o_orderpriority"), 0, 1),
            pa.int8())})

    def line_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        return pa.table({"k": np.unique(_np(batch, "l_orderkey"))})

    def reduce_group(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(orders["k"].to_numpy(np.int64),
                           np.unique(lines["k"].to_numpy(np.int64)))
        codes, counts = np.unique(
            orders["code"].to_numpy(np.int8)[keep], return_counts=True)
        return pd.DataFrame({"code": codes.astype(np.int64),
                             "n": counts.astype(np.int64)})

    parts = collect(exchange(
        [(_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_orderdate"]),
          orders_leg),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]), line_leg)],
        reduce_group))
    if parts.empty:
        return pd.DataFrame({"o_orderpriority": pd.Series([], dtype=object),
                             "order_count": pd.Series([], dtype=np.int64)})
    agg = parts.groupby("code", as_index=False).agg(n=("n", "sum"))
    # bounded distinct scan (<=5 strings) for the code -> name map:
    # per-block distinct values folded into the distinct keys
    pri = fold(_t(sf_dir, "orders", ["o_orderpriority"]), ["o_orderpriority"], {},
               fn=lambda t: pa.table({"o_orderpriority": pc.unique(
                   t.column("o_orderpriority"))}))["o_orderpriority"]
    pmap = {int(p[0]): p for p in pri}
    out = pd.DataFrame({
        "o_orderpriority": np.array(
            [pmap[int(c)] for c in agg["code"]], object),
        "order_count": agg["n"].to_numpy(np.int64),
    })
    return out.sort_values("o_orderpriority").reset_index(drop=True)


ORACLES["tpch_q4"] = """
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority ORDER BY o_orderpriority"""


def q_tpch_q9(sf_dir: str, name_like: str = "widget",
              bloom_min_probe_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q9 (product-type profit by nation and year; adapted —
    profit is line revenue, the fixtures lack partsupp supply cost,
    and the year comes straight from l_shipdate so no orders join is
    needed). Supplier is the classic tiny broadcast side (sorted key
    + int8 nation code); the part name filter CANNOT broadcast at
    corpus scale (part grows with SF), so filtered partkeys ride a
    salted partkey exchange against per-block (partkey, nation, year,
    cents) line partials. Groups emit (nation code, year, cents)
    partials — a <=25x|years| domain summed on the driver (Q13
    lesson). Money stays int64 cents x cents end to end."""
    nation = _dim_pandas(sf_dir, "nation", ["n_nationkey", "n_name"])
    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]
                       ).sort_values("s_suppkey")
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_nationkey"].to_numpy(np.int64).astype(np.int8)))

    def part_keys(batch: pa.Table) -> np.ndarray:
        return _np(batch.filter(pc.match_substring(batch.column("p_name"), name_like)),
                   "p_partkey")

    # bytes-gated partkey bloom pushdown (see _part_bloom)
    bloom_ref, m_bits = _part_bloom(
        sf_dir, part_keys, ["p_partkey", "p_name"],
        ["l_partkey", "l_extendedprice"], bloom_min_probe_bytes)

    def line_leg(batch: pa.Table) -> pa.Table:
        if bloom_ref is not None:
            batch = batch.filter(pa.array(_bloom_test(
                _np(batch, "l_partkey"), ray.get(bloom_ref), m_bits)))
        skeys, scodes = ray.get(supp_ref)
        sk = _np(batch, "l_suppkey")
        keep = isin_sorted(sk, skeys)
        g = pd.DataFrame({
            "k": _np(batch, "l_partkey")[keep],
            "code": scodes[np.searchsorted(skeys, sk[keep])],
            "yr": pc.year(batch.column("l_shipdate")).to_numpy(
                zero_copy_only=False)[keep].astype(np.int64),
            "rev": _rev(batch, keep),
        }).groupby(["k", "code", "yr"], as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_group(part: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(lines["k"].to_numpy(np.int64),
                           np.unique(part["k"].to_numpy(np.int64)))
        g = lines[keep].groupby(["code", "yr"], as_index=False).agg(
            rev=("rev", "sum"))
        return g.astype({"code": np.int64, "yr": np.int64, "rev": np.int64})

    parts = collect(exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_name"]),
          lambda b: pa.table({"k": part_keys(b)})),
         (_t(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"]), line_leg)],
        reduce_group))
    agg = parts.groupby(["code", "yr"], as_index=False).agg(rev=("rev", "sum"))
    nmap = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    # a supplier nation missing from `nation` drops, as the inner join does
    agg = agg[agg["code"].astype(int).isin(list(nmap))]
    out = pd.DataFrame({
        "nation": np.array([nmap[int(c)] for c in agg["code"]], object),
        "o_year": agg["yr"].to_numpy(np.int64),
        "sum_profit": agg["rev"].to_numpy(np.int64) / 10000.0,
    })
    return out.sort_values(["nation", "o_year"],
                           ascending=[True, False]).reset_index(drop=True)


ORACLES["tpch_q9"] = """
SELECT n_name AS nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS o_year,
       sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) / 10000.0
         AS sum_profit
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_name LIKE '%widget%'
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
GROUP BY n_name, o_year ORDER BY nation, o_year DESC"""


# the three (brand, max p_size, quantity window) disjunctive clauses
# of the adapted Q19 — fixture brands are Brand#1..Brand#25 and sizes
# 1..50, so each clause is selective but non-empty at every SF
Q19_CLAUSES = (("Brand#12", 15, 1.0, 11.0),
               ("Brand#23", 25, 10.0, 20.0),
               ("Brand#34", 35, 20.0, 30.0))


def q_tpch_q19(sf_dir: str,
               bloom_min_probe_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q19 (discounted revenue under disjunctive predicates;
    adapted — no container/shipmode in the fixtures, the three OR'd
    clauses pair a part-side predicate (brand + size cap) with a
    line-side quantity window). The part side ships only the partkeys
    that satisfy SOME clause, tagged with an int8 clause id, through
    the salted partkey exchange (part grows with SF — never a
    broadcast); the line leg ships (partkey, quantity-cents, revenue
    cents) row partials. Inside each group the clause id joins onto
    the lines and the per-clause quantity window is evaluated
    vectorized; one (cents, n) pair leaves each group and the driver
    sums. A part matching several clauses keeps them ALL (OR
    semantics, not first-wins): the part leg emits one row per
    matching clause and the in-group merge de-duplicates matched
    LINES, not clause pairs, exactly as SQL's OR does."""
    brands = np.array([c[0] for c in Q19_CLAUSES], object)
    sizecap = np.array([c[1] for c in Q19_CLAUSES], np.int64)
    qlo = np.array([np.rint(c[2] * 100) for c in Q19_CLAUSES], np.int64)
    qhi = np.array([np.rint(c[3] * 100) for c in Q19_CLAUSES], np.int64)

    def part_leg(batch: pa.Table) -> pa.Table:
        pk, brand, size = (_np(batch, c) for c in ("p_partkey", "p_brand", "p_size"))
        hits = [(brand == brands[ci]) & (size <= sizecap[ci])
                for ci in range(len(Q19_CLAUSES))]
        return pa.table({
            "k": np.concatenate([pk[h] for h in hits]),
            "code": np.concatenate([np.full(int(h.sum()), ci, np.int8)
                                    for ci, h in enumerate(hits)])})

    # bytes-gated partkey bloom pushdown (see _part_bloom)
    bloom_ref, m_bits = _part_bloom(
        sf_dir, lambda b: _np(part_leg(b), "k"), ["p_partkey", "p_brand", "p_size"],
        ["l_partkey", "l_extendedprice"], bloom_min_probe_bytes)

    def line_leg(batch: pa.Table) -> pa.Table:
        if bloom_ref is not None:
            batch = batch.filter(pa.array(_bloom_test(
                _np(batch, "l_partkey"), ray.get(bloom_ref), m_bits)))
        return pa.table({"k": batch.column("l_partkey"),
                         "qty": _cents(_np(batch, "l_quantity")), "rev": _rev(batch)})

    def reduce_group(parts: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        lines["lid"] = np.arange(len(lines), dtype=np.int64)
        m = lines.merge(parts, on="k")
        ci = m["code"].to_numpy(np.int8).astype(np.int64)
        q = m["qty"].to_numpy(np.int64)
        hit = (q >= qlo[ci]) & (q <= qhi[ci])
        # a line may hit via several clauses; OR counts it once — dedup
        # on the pre-merge line id, not the merge's fresh RangeIndex
        lid = m["lid"].to_numpy(np.int64)[hit]
        rev = m["rev"].to_numpy(np.int64)[hit][~pd.Index(lid).duplicated()]
        return pd.DataFrame({"cents": np.array([rev.sum()], np.int64),
                             "n": np.array([len(rev)], np.int64)})

    parts = collect(exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]), part_leg),
         (_t(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice",
                                  "l_discount"]), line_leg)],
        reduce_group))
    n = int(parts["n"].sum())
    return pd.DataFrame({
        "revenue": [int(parts["cents"].sum()) / 10000.0 if n else np.nan],
        "n_lines": np.array([n], np.int64),
    })


ORACLES["tpch_q19"] = """
SELECT sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) / 10000.0
         AS revenue,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size <= 15
       AND l_quantity BETWEEN 1.0 AND 11.0)
   OR (p_brand = 'Brand#23' AND p_size <= 25
       AND l_quantity BETWEEN 10.0 AND 20.0)
   OR (p_brand = 'Brand#34' AND p_size <= 35
       AND l_quantity BETWEEN 20.0 AND 30.0)"""


def q_tpch_q11(sf_dir: str, nation_name: str = "NATION_3",
               fraction_ppm: int = 1000) -> pd.DataFrame:
    """TPC-H Q11 (important stock; adapted — part "value" is its
    shipped line revenue from one nation's suppliers, the fixtures
    lack partsupp). The GROUP BY + global-scalar-threshold shape:
    per-part totals reduce in a bounded salt exchange, whose output is
    held, so the global-sum fold and the threshold filter don't re-run
    the lineitem scan. The HAVING compare runs in int64 on both sides —
    ``value_cents * 1_000_000 > total_cents * fraction_ppm`` — so no
    float division can disagree at a tie. Supplier is the tiny
    broadcast side (sorted keys of the chosen nation)."""
    nation = _dim_pandas(sf_dir, "nation", ["n_nationkey", "n_name"])
    nk = nation.loc[nation["n_name"] == nation_name, "n_nationkey"]
    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].isin(nk.to_numpy())]
    skeys_ref = ray.put(np.sort(supp["s_suppkey"].to_numpy(np.int64)))

    def partial(batch: pa.Table) -> pa.Table:
        keep = isin_sorted(_np(batch, "l_suppkey"), ray.get(skeys_ref))
        g = pd.DataFrame({"k": _np(batch, "l_partkey")[keep],
                          "v": _rev(batch, keep)}).groupby(
            "k", as_index=False).agg(v=("v", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    cols = ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    tot = aggregate([(_t(sf_dir, "lineitem", cols), partial)], ["k"], {"v": "sum"})
    # v*1e6 > total*ppm  <=>  v > floor(total*ppm / 1e6) for integer v
    thresh = (total(tot, "v") * fraction_ppm) // 1_000_000
    keep = collect(map(tot, lambda t: t.filter(pc.greater(t.column("v"), thresh))))
    if keep.empty:        # no part (or none over the threshold) -> typed empty
        return pd.DataFrame({"p_partkey": pd.Series([], dtype=np.int64),
                             "value": pd.Series([], dtype=np.float64)})
    keep = keep.sort_values(["v", "k"], ascending=[False, True]
                            ).reset_index(drop=True)
    return pd.DataFrame({
        "p_partkey": keep["k"].to_numpy(np.int64),
        "value": keep["v"].to_numpy(np.int64) / 10000.0,
    })


ORACLES["tpch_q11"] = """
WITH v AS (SELECT l_partkey AS p_partkey,
    sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
        * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) AS val
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey AND n_name = 'NATION_3'
  GROUP BY l_partkey)
SELECT p_partkey, val / 10000.0 AS value
FROM v WHERE val * 1000000 > (SELECT sum(val) FROM v) * 1000
ORDER BY val DESC, p_partkey"""


def q_tpch_q21(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """TPC-H Q21 (suppliers who kept orders waiting; adapted — the
    "late" predicate is ``l_returnflag = 'R'``, the fixtures lack
    commit/receipt dates, and no nation filter so every SF has rows):
    the correlated EXISTS + NOT-EXISTS pair. A supplier waits on a
    finished ('F') order iff it shipped a returned line there, ANOTHER
    supplier is on the order (EXISTS), and NO other supplier has a
    returned line on it (NOT EXISTS). One orderkey exchange carries
    per-block (orderkey, suppkey, any-R) partials plus the order
    status leg; each group resolves the whole correlated predicate
    vectorized and emits (suppkey, waits) partials. A second bounded
    suppkey exchange totals per supplier WITH a supplier-membership
    leg riding along (the Q10 lesson: enrich-drops must happen before
    the local top-k truncation) and emits its local top-k; the driver
    merges groups x k candidates and fetches only the winners' names
    via a distributed membership filter."""

    def line_leg(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "k": _np(batch, "l_orderkey"), "sk": _np(batch, "l_suppkey"),
            "isr": pc.equal(batch.column("l_returnflag"), "R").to_numpy(
                zero_copy_only=False).astype(np.int8),
        }).groupby(["k", "sk"], as_index=False).agg(isr=("isr", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def waits_group(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(lines["k"].to_numpy(np.int64),
                           np.unique(orders["k"].to_numpy(np.int64)))
        l = lines[keep].groupby(["k", "sk"], as_index=False).agg(isr=("isr", "max"))
        per = l.groupby("k").agg(nsupp=("sk", "size"), nr=("isr", "sum"))
        m = l.join(per, on="k")
        win = (m["isr"].to_numpy(np.int8) == 1) \
            & (m["nsupp"].to_numpy(np.int64) >= 2) \
            & (m["nr"].to_numpy(np.int64) == 1)
        sk, cnt = np.unique(m["sk"].to_numpy(np.int64)[win], return_counts=True)
        # re-keyed on suppkey: the leg of the top-k exchange
        return pd.DataFrame({"k": sk, "w": cnt.astype(np.int64)})

    def topk_group(waits: pd.DataFrame, memb: pd.DataFrame) -> pd.DataFrame:
        known = np.unique(memb["k"].to_numpy(np.int64))
        g = waits.groupby("k", as_index=False).agg(w=("w", "sum"))
        g = g[isin_sorted(g["k"].to_numpy(np.int64), known)]
        g = g.sort_values(["w", "k"], ascending=[False, True]).head(k)
        return g.astype({"k": np.int64, "w": np.int64})

    waits = exchange(
        [(_t(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]),
          lambda b: pa.table({"k": _np(b.filter(pc.equal(
              b.column("o_orderstatus"), "F")), "o_orderkey")})),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_returnflag"]),
          line_leg)], waits_group)
    cand = collect(exchange(
        [(waits, None), (_t(sf_dir, "supplier", ["s_suppkey"]),
                         lambda b: pa.table({"k": b.column("s_suppkey")}))],
        topk_group))
    if cand.empty:
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                             "s_name": pd.Series([], dtype=object),
                             "numwait": pd.Series([], dtype=np.int64)})
    cand = cand.sort_values(["w", "k"], ascending=[False, True]).head(k)
    wanted_ref = ray.put(np.unique(cand["k"].to_numpy(np.int64)))

    def name_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(isin_sorted(_np(batch, "s_suppkey"),
                                                 ray.get(wanted_ref))))

    names = collect(map(_t(sf_dir, "supplier", ["s_suppkey", "s_name"]), name_filter))
    out = cand.merge(names, left_on="k", right_on="s_suppkey")
    out = out.sort_values(["w", "k"], ascending=[False, True])
    return pd.DataFrame({
        "s_suppkey": out["s_suppkey"].astype(np.int64).to_numpy(),
        "s_name": out["s_name"].to_numpy(object),
        "numwait": out["w"].to_numpy(np.int64),
    })


ORACLES["tpch_q21"] = """
WITH f AS (SELECT o_orderkey FROM orders WHERE o_orderstatus = 'F'),
l AS (SELECT l_orderkey, l_suppkey,
        max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS has_r
      FROM lineitem JOIN f ON o_orderkey = l_orderkey
      GROUP BY l_orderkey, l_suppkey),
per AS (SELECT l_orderkey, CAST(count(*) AS BIGINT) AS nsupp,
        CAST(sum(has_r) AS BIGINT) AS nr FROM l GROUP BY l_orderkey)
SELECT l.l_suppkey AS s_suppkey, s_name, CAST(count(*) AS BIGINT) AS numwait
FROM l JOIN per ON per.l_orderkey = l.l_orderkey
       JOIN supplier ON s_suppkey = l.l_suppkey
WHERE l.has_r = 1 AND per.nsupp >= 2 AND per.nr = 1
GROUP BY l.l_suppkey, s_name
ORDER BY numwait DESC, s_suppkey LIMIT 100"""


def q_tpch_q7(sf_dir: str, nation_a: str = "NATION_3",
              nation_b: str = "NATION_15") -> pd.DataFrame:
    """TPC-H Q7 (volume shipping between two nations): TWO chained
    salted repartition exchanges, no broadcast of any big-table side.
    Exchange 1 keys on custkey — the two-nation customer leg joins the
    orders leg and re-emits ORDERKEY-keyed rows carrying the
    customer-nation code, which are a leg of exchange 2. Exchange 2 keys
    on orderkey — the lineitem leg arrives with its supplier-nation
    code resolved from the tiny supplier broadcast and its revenue
    pre-aggregated per (orderkey, supp code, year) in int64 cents.
    Each group keeps only the (supp, cust) cross pairs and emits a
    <=2 x 2 x years partial summed on the driver (Q13 lesson).
    Native ``Dataset.join`` is deliberately NOT used twice in one DAG
    (the 2-join aggregator-pool deadlock, CLAUDE.md)."""
    nation = _dim_pandas(sf_dir, "nation", ["n_nationkey", "n_name"])
    nk = {name: int(nation.loc[nation["n_name"] == name,
                               "n_nationkey"].iloc[0])
          for name in (nation_a, nation_b)}
    pair = np.sort(np.array([nk[nation_a], nk[nation_b]], np.int64))
    names = {int(kk): nn for nn, kk in nk.items()}

    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].isin(pair)].sort_values("s_suppkey")
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_nationkey"].to_numpy(np.int64).astype(np.int8)))

    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1998, 1, 1), type=pa.timestamp("us"))

    def cust_leg(batch: pa.Table) -> pa.Table:
        cn = _np(batch, "c_nationkey")
        keep = np.isin(cn, pair)
        return pa.table({"k": _np(batch, "c_custkey")[keep],
                         "ccode": cn[keep].astype(np.int8)})

    def join_custkey(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        m = orders.merge(cust, on="k")
        return pd.DataFrame({"k": m["ok"].to_numpy(np.int64),
                             "ccode": m["ccode"].to_numpy(np.int8)})

    def line_leg(batch: pa.Table) -> pa.Table:
        skeys, scodes = ray.get(supp_ref)
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), lo),
            pc.less(batch.column("l_shipdate"), hi)))
        sk = _np(batch, "l_suppkey")
        keep = isin_sorted(sk, skeys)
        g = pd.DataFrame({
            "k": _np(batch, "l_orderkey")[keep],
            "code": scodes[np.searchsorted(skeys, sk[keep])],
            "yr": pc.year(batch.column("l_shipdate")).to_numpy(
                zero_copy_only=False)[keep].astype(np.int64),
            "rev": _rev(batch, keep),
        }).groupby(["k", "code", "yr"], as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_orderkey(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        m = lines.merge(orders, on="k")
        m = m[m["code"].to_numpy(np.int8) != m["ccode"].to_numpy(np.int8)]
        g = m.groupby(["code", "ccode", "yr"], as_index=False).agg(
            rev=("rev", "sum"))
        return g.astype({"code": np.int64, "ccode": np.int64,
                         "yr": np.int64, "rev": np.int64})

    orders_by_cust = exchange(
        [(_t(sf_dir, "customer", ["c_custkey", "c_nationkey"]), cust_leg),
         (_t(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
          lambda b: pa.table({"k": b.column("o_custkey"),
                              "ok": b.column("o_orderkey")}))],
        join_custkey)
    parts = collect(exchange(
        [(orders_by_cust, None),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"]), line_leg)],
        join_orderkey))
    agg = parts.groupby(["code", "ccode", "yr"], as_index=False).agg(
        rev=("rev", "sum"))
    out = pd.DataFrame({
        "supp_nation": np.array(
            [names[int(c)] for c in agg["code"]], object),
        "cust_nation": np.array(
            [names[int(c)] for c in agg["ccode"]], object),
        "l_year": agg["yr"].to_numpy(np.int64),
        "revenue": agg["rev"].to_numpy(np.int64) / 10000.0,
    })
    return out.sort_values(["supp_nation", "cust_nation", "l_year"]
                           ).reset_index(drop=True)


ORACLES["tpch_q7"] = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       sum(CAST(round(l_extendedprice*100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount*100, 0) AS BIGINT))) / 10000.0
         AS revenue
FROM supplier
JOIN lineitem ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation n1 ON n1.n_nationkey = s_nationkey
JOIN nation n2 ON n2.n_nationkey = c_nationkey
WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_15')
       OR (n1.n_name = 'NATION_15' AND n2.n_name = 'NATION_3'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year"""


# The partkey bloom pushdown (Q8/Q9/Q19/Q20) pays for its two extra
# part passes only past this footer-estimated probe-side size.
PART_BLOOM_MIN_PROBE_BYTES = 256 << 20


def _part_bloom(sf_dir: str, part_keys_fn, part_columns, probe_columns,
                bloom_min_probe_bytes: int | None):
    """Bytes-gated distributed partkey bloom for the queries whose
    lineitem partials feed a partkey exchange where a part predicate
    drops most of them. Returns ``(bloom_ref, m_bits)`` or
    ``(None, 0)`` below the gate — the exchange's in-group membership
    test keeps the result exact either way (the bloom only cuts
    shuffle traffic; its ~2% false positives die in-group)."""
    if bloom_min_probe_bytes is None:
        bloom_min_probe_bytes = PART_BLOOM_MIN_PROBE_BYTES
    probe_bytes, _ = footer_stats(f"{sf_dir}/lineitem.parquet",
                                   list(probe_columns))
    if probe_bytes < bloom_min_probe_bytes:
        return None, 0
    return _build_bloom(sf_dir, "part", list(part_columns), part_keys_fn)


def q_tpch_q8(sf_dir: str, target_nation: str = "NATION_3",
              region_name: str = "AMERICA", part_type: str = "PROMO",
              bloom_min_probe_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q8 (national market share; adapted to the fixture
    schema): a THREE-exchange chain, the deepest reshape in the
    relational suite. Exchange A keys on partkey — the 'PROMO'
    partkeys (part grows with SF, never broadcast) filter the line
    partials, which re-emit keyed on ORDERKEY carrying the
    supplier-nation code from the tiny supplier broadcast. Exchange B
    keys on custkey — the region-filtered customer leg joins orders
    and re-emits an orderkey-keyed leg carrying the order year.
    Exchange C joins both orderkey legs; each group emits (year,
    supp-code, cents) partials — a <=25 x years domain summed on the
    driver, where the share divides two exact int64 sums in float64
    (identical doubles in DuckDB's BIGINT/BIGINT division)."""
    nation = _dim_pandas(sf_dir, "nation",
                         ["n_nationkey", "n_name", "n_regionkey"])
    region = _dim_pandas(sf_dir, "region")
    target_nk = int(nation.loc[nation["n_name"] == target_nation,
                               "n_nationkey"].iloc[0])
    rk = int(region.loc[region["r_name"] == region_name,
                        "r_regionkey"].iloc[0])
    region_nations = nation.loc[nation["n_regionkey"] == rk,
                                "n_nationkey"].to_numpy(np.int64)

    supp = _dim_pandas(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]
                       ).sort_values("s_suppkey")
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_nationkey"].to_numpy(np.int64).astype(np.int8)))

    lo = pa.scalar(datetime.datetime(1996, 1, 1), type=pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1998, 1, 1), type=pa.timestamp("us"))

    def part_keys(batch: pa.Table) -> np.ndarray:
        return _np(batch.filter(pc.equal(batch.column("p_type"), part_type)),
                   "p_partkey")

    # bloom pushdown on the part predicate: only ~1/|p_type| of the
    # line partials survive exchange A's in-group membership test, so
    # pre-filter them with a distributed-built partkey bloom (exact —
    # the exchange still removes the ~2% false positives) instead of
    # shuffling every lineitem partial just to drop 5/6 of them. The
    # build costs two extra passes over part, so it only pays once the
    # probe side is big (measured: at sf0.1 it costs ~2 s and saves
    # less) — the bytes gate lives in ``_part_bloom``.
    bloom_ref, m_bits = _part_bloom(
        sf_dir, part_keys, ["p_partkey", "p_type"],
        ["l_partkey", "l_extendedprice"], bloom_min_probe_bytes)

    def line_leg(batch: pa.Table) -> pa.Table:
        if bloom_ref is not None:
            batch = batch.filter(pa.array(_bloom_test(
                _np(batch, "l_partkey"), ray.get(bloom_ref), m_bits)))
        skeys, scodes = ray.get(supp_ref)
        sk = _np(batch, "l_suppkey")
        keep = isin_sorted(sk, skeys)
        g = pd.DataFrame({
            "k": _np(batch, "l_partkey")[keep],
            "ok": _np(batch, "l_orderkey")[keep],
            "code": scodes[np.searchsorted(skeys, sk[keep])],
            "rev": _rev(batch, keep),
        }).groupby(["k", "ok", "code"], as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_partkey(part: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        lines = lines[isin_sorted(lines["k"].to_numpy(np.int64),
                                  np.unique(part["k"].to_numpy(np.int64)))]
        # re-keyed on orderkey: the line leg of exchange C
        return pd.DataFrame({"k": lines["ok"].to_numpy(np.int64),
                             "code": lines["code"].to_numpy(np.int8),
                             "rev": lines["rev"].to_numpy(np.int64)})

    def orders_leg(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi)))
        return pa.table({"k": batch.column("o_custkey"), "ok": batch.column("o_orderkey"),
                         "yr": pc.year(batch.column("o_orderdate")).to_numpy(
                             zero_copy_only=False).astype(np.int64)})

    def join_custkey(cust: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        orders = orders[isin_sorted(orders["k"].to_numpy(np.int64),
                                    np.unique(cust["k"].to_numpy(np.int64)))]
        # re-keyed on orderkey: the order-in-region leg of exchange C
        return pd.DataFrame({"k": orders["ok"].to_numpy(np.int64),
                             "yr": orders["yr"].to_numpy(np.int64)})

    def join_orderkey(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        g = lines.merge(orders, on="k").groupby(["yr", "code"], as_index=False).agg(
            rev=("rev", "sum"))
        return g.astype({"yr": np.int64, "code": np.int64, "rev": np.int64})

    line_by_order = exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_type"]),
          lambda b: pa.table({"k": part_keys(b)})),
         (_t(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"]), line_leg)],
        join_partkey)
    order_in_region = exchange(
        [(_t(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
          lambda b: pa.table({"k": _np(b, "c_custkey")[
              np.isin(_np(b, "c_nationkey"), region_nations)]})),
         (_t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
          orders_leg)],
        join_custkey)
    parts = collect(exchange([(order_in_region, None), (line_by_order, None)],
                             join_orderkey))
    agg = parts.groupby(["yr", "code"], as_index=False).agg(rev=("rev", "sum"))
    years = np.sort(agg["yr"].unique())
    tgt = np.array([agg.loc[(agg["yr"] == y) & (agg["code"] == target_nk),
                            "rev"].sum() for y in years], np.int64)
    tot = np.array([agg.loc[agg["yr"] == y, "rev"].sum() for y in years],
                   np.int64)
    return pd.DataFrame({
        "o_year": years.astype(np.int64),
        "mkt_share": tgt.astype(np.float64) / tot.astype(np.float64),
    })


ORACLES["tpch_q8"] = """
WITH base AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         s_nationkey,
         CAST(round(l_extendedprice*100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount*100, 0) AS BIGINT)) AS cents
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = 'PROMO'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation cn ON cn.n_nationkey = c_nationkey
  JOIN region ON r_regionkey = cn.n_regionkey AND r_name = 'AMERICA'
  WHERE o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1998-01-01')
SELECT o_year,
       CAST(sum(CASE WHEN s_nationkey =
             (SELECT n_nationkey FROM nation WHERE n_name = 'NATION_3')
           THEN cents ELSE 0 END) AS DOUBLE)
         / CAST(sum(cents) AS DOUBLE) AS mkt_share
FROM base GROUP BY o_year ORDER BY o_year"""


def q_event_lag_delta(sf_dir: str) -> ray.data.Dataset:
    """LAG/LEAD window over the event stream (PARTITION BY user_id
    ORDER BY ts, event_id): each event's value delta vs the user's
    previous event and the time gap to the next one — the
    neighbouring-row window family, distinct from ``running_total``'s
    cumulative sums. High-cardinality partition key -> bounded salt
    exchange; inside each group ONE lexsort orders every user's
    events and the shifts are pure vectorized slices with
    segment-boundary masking (no per-user Python). Partition edges
    emit SQL NULL as NaN; the delta subtracts two raw float64s (a
    single IEEE op, bit-identical to DuckDB's LAG subtraction) and
    the gap is exact integer microseconds."""
    def leg(batch: pa.Table) -> pa.Table:
        return pa.table({"k": batch.column("user_id"), "eid": batch.column("event_id"),
                         "tsu": pc.cast(batch.column("ts"), pa.int64()),
                         "v": batch.column("value")})

    def window(df: pd.DataFrame) -> pd.DataFrame:
        uk = df["k"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        tsu = df["tsu"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.float64)
        order = np.lexsort((eid, tsu, uk))
        uk, eid, tsu, v = uk[order], eid[order], tsu[order], v[order]
        first = np.ones(len(uk), bool)               # partition starts
        first[1:] = uk[1:] != uk[:-1]
        last = np.roll(first, -1)                    # partition ends
        delta = np.full(len(v), np.nan)
        delta[1:] = v[1:] - v[:-1]
        delta[first] = np.nan
        gap = np.full(len(v), np.nan)
        gap[:-1] = (tsu[1:] - tsu[:-1]).astype(np.float64)
        gap[last] = np.nan
        return pd.DataFrame({
            "event_id": eid, "user_id": uk,
            "value_delta": delta, "next_gap_us": gap,
        })

    cols = ["event_id", "ts", "user_id", "value"]
    return exchange([(_t(sf_dir, "events", cols), leg)], window)


ORACLES["event_lag_delta"] = """
SELECT event_id, user_id,
       value - lag(value) OVER w AS value_delta,
       CAST(epoch_us(lead(ts) OVER w) - epoch_us(ts) AS DOUBLE)
         AS next_gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
ORDER BY event_id"""


def q_funnel_conversion(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel conversion over the event stream: of the users
    who ever signed up, how many later purchased (strictly after
    their FIRST signup)? The sequence predicate collapses to an
    associative per-user partial — (min signup ts, max purchase ts)
    — because "any purchase after the first signup" is exactly
    ``max_purchase > min_signup``. Blocks pre-reduce to one partial
    per (user, block); bounded salt groups finish the min/max and
    emit (n_signup, n_converted) count pairs; the driver sums
    (Q13 lesson). Nothing user-cardinality-sized leaves the exchange
    as strings or rows — two int64 timestamps per user per block."""
    NONE, LAST = np.iinfo(np.int64).min, np.iinfo(np.int64).max

    def leg(batch: pa.Table) -> pa.Table:
        et = _np(batch, "event_type")
        uk = _np(batch, "user_id")
        tsu = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        s, p = et == "signup", et == "purchase"
        gs = pd.DataFrame({"uk": uk[s], "v": tsu[s]}).groupby(
            "uk", as_index=False).agg(v=("v", "min"))
        gp = pd.DataFrame({"uk": uk[p], "v": tsu[p]}).groupby(
            "uk", as_index=False).agg(v=("v", "max"))
        return pa.table({
            "k": np.concatenate([gs["uk"].to_numpy(np.int64),
                                 gp["uk"].to_numpy(np.int64)]),
            "mins": np.concatenate([gs["v"].to_numpy(np.int64),
                                    np.full(len(gp), LAST, np.int64)]),
            "maxp": np.concatenate([np.full(len(gs), NONE, np.int64),
                                    gp["v"].to_numpy(np.int64)]),
        })

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k").agg(mins=("mins", "min"), maxp=("maxp", "max"))
        signed = g["mins"].to_numpy(np.int64) < LAST
        conv = signed & (g["maxp"].to_numpy(np.int64)
                         > g["mins"].to_numpy(np.int64))
        return pd.DataFrame({
            "n_signup": np.array([int(signed.sum())], np.int64),
            "n_converted": np.array([int(conv.sum())], np.int64),
        })

    cols = ["user_id", "ts", "event_type"]
    parts = collect(exchange([(_t(sf_dir, "events", cols), leg)], reduce_group))
    return pd.DataFrame({
        "n_signup": np.array([int(parts["n_signup"].sum())], np.int64),
        "n_converted": np.array([int(parts["n_converted"].sum())], np.int64)})


ORACLES["funnel_conversion"] = """
WITH s AS (SELECT user_id, min(ts) AS t0 FROM events
           WHERE event_type = 'signup' GROUP BY user_id),
c AS (SELECT DISTINCT s.user_id FROM s JOIN events e
        ON e.user_id = s.user_id AND e.event_type = 'purchase'
       AND e.ts > s.t0)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s) AS n_signup,
       (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_converted"""


def q_tpch_q20(sf_dir: str, name_like: str = "widget",
               bloom_min_probe_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q20 (suppliers with excess stock; adapted — "excess" is
    shipping MORE THAN HALF of a part's total shipped quantity, the
    fixtures lack partsupp/availqty): a nested per-group aggregate
    feeding a distinct semi-result. Everything about one part
    co-locates in its salt group, so the per-(part, supplier) sums,
    the per-part (total, supplier-count) pair and the
    ``q * nsupp > 2 * tot`` over-two-fair-shares test (pure int64
    qty-cents — no division on either side) all resolve in-group; each
    group emits its qualifying suppkeys DISTINCT, the second bounded
    exchange de-duplicates across parts and carries the supplier-name
    membership leg (Q10 lesson), and the driver collects only the
    supplier-bounded winner set."""

    def part_keys(batch: pa.Table) -> np.ndarray:
        return _np(batch.filter(pc.match_substring(batch.column("p_name"), name_like)),
                   "p_partkey")

    # bytes-gated partkey bloom pushdown (see _part_bloom)
    bloom_ref, m_bits = _part_bloom(
        sf_dir, part_keys, ["p_partkey", "p_name"],
        ["l_partkey", "l_quantity"], bloom_min_probe_bytes)

    def line_leg(batch: pa.Table) -> pa.Table:
        if bloom_ref is not None:
            batch = batch.filter(pa.array(_bloom_test(
                _np(batch, "l_partkey"), ray.get(bloom_ref), m_bits)))
        g = pd.DataFrame({"k": _np(batch, "l_partkey"), "sk": _np(batch, "l_suppkey"),
                          "q": _cents(_np(batch, "l_quantity"))}).groupby(
            ["k", "sk"], as_index=False).agg(q=("q", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def majority_group(part: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        keep = isin_sorted(lines["k"].to_numpy(np.int64),
                           np.unique(part["k"].to_numpy(np.int64)))
        l = lines[keep].groupby(["k", "sk"], as_index=False).agg(q=("q", "sum"))
        tot = l.groupby("k")["q"].transform("sum").to_numpy(np.int64)
        ns = l.groupby("k")["q"].transform("size").to_numpy(np.int64)
        win = l["q"].to_numpy(np.int64) * ns > 2 * tot
        # re-keyed on suppkey: the leg of the distinct exchange
        return pd.DataFrame({"k": np.unique(l["sk"].to_numpy(np.int64)[win])})

    def distinct_group(winners: pd.DataFrame, memb: pd.DataFrame) -> pd.DataFrame:
        sk = np.unique(winners["k"].to_numpy(np.int64))
        return pd.DataFrame({"sk": sk[isin_sorted(
            sk, np.unique(memb["k"].to_numpy(np.int64)))]})

    majority = exchange(
        [(_t(sf_dir, "part", ["p_partkey", "p_name"]),
          lambda b: pa.table({"k": part_keys(b)})),
         (_t(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"]),
          line_leg)], majority_group)
    winners = collect(exchange(
        [(majority, None), (_t(sf_dir, "supplier", ["s_suppkey"]),
                            lambda b: pa.table({"k": b.column("s_suppkey")}))],
        distinct_group))
    if winners.empty:
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype=np.int64),
                             "s_name": pd.Series([], dtype=object)})
    wanted_ref = ray.put(np.unique(winners["sk"].to_numpy(np.int64)))

    def name_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(isin_sorted(_np(batch, "s_suppkey"),
                                                 ray.get(wanted_ref))))

    names = collect(map(_t(sf_dir, "supplier", ["s_suppkey", "s_name"]), name_filter))
    names = names.sort_values("s_suppkey").reset_index(drop=True)
    return pd.DataFrame({
        "s_suppkey": names["s_suppkey"].astype(np.int64).to_numpy(),
        "s_name": names["s_name"].to_numpy(object),
    })


ORACLES["tpch_q20"] = """
WITH sq AS (SELECT l_partkey, l_suppkey,
        sum(CAST(round(l_quantity*100, 0) AS BIGINT)) AS q
      FROM lineitem JOIN part ON p_partkey = l_partkey
      WHERE p_name LIKE '%widget%'
      GROUP BY l_partkey, l_suppkey),
tot AS (SELECT l_partkey, sum(q) AS tq, CAST(count(*) AS BIGINT) AS ns
        FROM sq GROUP BY l_partkey)
SELECT DISTINCT s_suppkey, s_name
FROM sq JOIN tot ON tot.l_partkey = sq.l_partkey
        JOIN supplier ON s_suppkey = l_suppkey
WHERE q * ns > 2 * tq
ORDER BY s_suppkey"""


def q_gap_fill_resample(sf_dir: str) -> pd.DataFrame:
    """Time-series resample with gap fill: per-hour event counts per
    event type over the FULL observed span — hours with no events
    appear with n = 0 (the left-join-against-a-generated-grid shape a
    monitoring rollup needs). Blocks pre-reduce to (type, epoch-hour,
    count) partials; the partial domain is |types| x |hours|, bounded
    by wall-clock (one decade ~ 9e4 hours) — but the PARTIAL count
    grows with block count, so a salted exchange keyed on the hour
    finishes the sums and only the final |types| x |hours| totals
    reach the driver for the dense grid reindex + zero-fill. The
    min/max span rides the same totals — no second pass. Type strings
    leave blocks only as per-block-distinct partial keys, never per
    event."""
    def partial(batch: pa.Table) -> pa.Table:
        hr = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False) // 3_600_000_000
        g = pd.DataFrame({"event_type": _np(batch, "event_type"), "k": hr}).groupby(
            ["event_type", "k"], as_index=False).size()
        return pa.table({
            "k": g["k"].to_numpy(np.int64),
            "event_type": pa.array(g["event_type"].to_numpy(object), pa.string()),
            "p_n": g["size"].to_numpy(np.int64),
        })

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "k"], as_index=False).agg(
            p_n=("p_n", "sum"))
        return pd.DataFrame({"event_type": g["event_type"],
                             "hour": g["k"].to_numpy(np.int64),
                             "p_n": g["p_n"].to_numpy(np.int64)})

    parts = collect(exchange(
        [(_t(sf_dir, "events", ["ts", "event_type"]), partial)], totals))
    if parts.empty:
        return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                             "hour": pd.Series([], dtype=np.int64),
                             "n_events": pd.Series([], dtype=np.int64)})
    agg = parts.groupby(["event_type", "hour"], as_index=False).agg(
        n=("p_n", "sum"))
    hours = np.arange(agg["hour"].min(), agg["hour"].max() + 1,
                      dtype=np.int64)
    types = np.sort(agg["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, hours], names=["event_type", "hour"])
    n = agg.set_index(["event_type", "hour"])["n"].reindex(grid, fill_value=0)
    return pd.DataFrame({
        "event_type": grid.get_level_values("event_type").to_numpy(object),
        "hour": grid.get_level_values("hour").to_numpy(np.int64),
        "n_events": n.to_numpy(np.int64),
    })


ORACLES["gap_fill_resample"] = """
WITH c AS (SELECT event_type,
        epoch_us(date_trunc('hour', ts)) // 3600000000 AS hour,
        CAST(count(*) AS BIGINT) AS n
      FROM events GROUP BY 1, 2),
span AS (SELECT min(hour) AS lo, max(hour) AS hi FROM c),
grid AS (SELECT t.event_type, g.h AS hour
         FROM (SELECT DISTINCT event_type FROM c) t
         CROSS JOIN (SELECT unnest(generate_series(
             (SELECT lo FROM span), (SELECT hi FROM span))) AS h) g)
SELECT grid.event_type, grid.hour,
       COALESCE(n, 0) AS n_events
FROM grid LEFT JOIN c ON c.event_type = grid.event_type
                     AND c.hour = grid.hour
ORDER BY grid.event_type, grid.hour"""


def q_top_price_orders_ties(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Grouped top-k WITH TIES (DENSE_RANK <= k): every order whose
    total price is among its priority class's k highest DISTINCT
    prices — unlike ``top_orders_per_segment``'s row_number top-k, a
    tie on the k-th value keeps ALL its rows. The partition key is
    LOW-cardinality (5 priorities), so no per-key exchange can finish
    locally; instead each block emits its per-priority top-k distinct
    price partials (<= 5k cents values per block — bounded regardless
    of block size), the driver merges them into the exact per-priority
    rank map (distinct top-k is distributive: a value outside a
    block's local top-k can never enter the global top-k), and a
    second broadcast pass filters + ranks the full table. Prices
    compare in int64 cents; the emitted price is the raw float
    passthrough."""
    def local_topk(batch: pa.Table) -> pa.Table:
        pri = pc.cast(pc.utf8_slice_codeunits(
            batch.column("o_orderpriority"), 0, 1), pa.int8()).to_numpy(
            zero_copy_only=False)
        cents = np.rint(batch.column("o_totalprice").to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"p": pri, "c": cents}).drop_duplicates()
        g = g.sort_values(["p", "c"], ascending=[True, False]).groupby(
            "p", as_index=False).head(k)
        return pa.table({
            "p": pa.array(g["p"].to_numpy(np.int8), pa.int8()),
            "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
        })

    parts = collect(map(_t(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]), local_topk))
    if parts.empty:
        return pd.DataFrame({"o_orderkey": pd.Series([], dtype=np.int64),
                             "o_orderpriority": pd.Series([], dtype=object),
                             "o_totalprice": pd.Series([], dtype=np.float64),
                             "price_rank": pd.Series([], dtype=np.int64)})
    top = parts.drop_duplicates().sort_values(
        ["p", "c"], ascending=[True, False]).groupby(
        "p", as_index=False).head(k)
    top["rank"] = top.groupby("p").cumcount() + 1
    rank_map = {(int(r.p), int(r.c)): int(r.rank)
                for r in top.itertuples()}
    map_ref = ray.put(rank_map)

    def attach(batch: pa.Table) -> pa.Table:
        rm = ray.get(map_ref)
        pri = pc.cast(pc.utf8_slice_codeunits(
            batch.column("o_orderpriority"), 0, 1), pa.int8()).to_numpy(
            zero_copy_only=False)
        cents = np.rint(batch.column("o_totalprice").to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        rank = np.zeros(len(cents), np.int64)
        for (mp, mc), r in rm.items():      # <= 5k entries, vectorized
            rank[(pri == mp) & (cents == mc)] = r
        keep = rank > 0
        batch = batch.filter(pa.array(keep))
        return batch.append_column(
            "price_rank", pa.array(rank[keep], pa.int64()))

    out = collect(map(_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]),
                      attach))
    if out.empty:
        return pd.DataFrame({"o_orderkey": pd.Series([], dtype=np.int64),
                             "o_orderpriority": pd.Series([], dtype=object),
                             "o_totalprice": pd.Series([], dtype=np.float64),
                             "price_rank": pd.Series([], dtype=np.int64)})
    out = out.sort_values(["o_orderpriority", "price_rank", "o_orderkey"]
                          ).reset_index(drop=True)
    return pd.DataFrame({
        "o_orderkey": out["o_orderkey"].to_numpy(np.int64),
        "o_orderpriority": out["o_orderpriority"].to_numpy(object),
        "o_totalprice": out["o_totalprice"].to_numpy(np.float64),
        "price_rank": out["price_rank"].to_numpy(np.int64),
    })


ORACLES["top_price_orders_ties"] = """
WITH r AS (SELECT o_orderkey, o_orderpriority, o_totalprice,
    CAST(dense_rank() OVER (PARTITION BY o_orderpriority
         ORDER BY CAST(round(o_totalprice*100, 0) AS BIGINT) DESC)
      AS BIGINT) AS price_rank
  FROM orders)
SELECT o_orderkey, o_orderpriority, o_totalprice, price_rank
FROM r WHERE price_rank <= 3
ORDER BY o_orderpriority, price_rank, o_orderkey"""


def _year_mask_custs(sf_dir: str, mask: int) -> pd.DataFrame:
    """Customers whose 1996/1997 order-year mask (bit 1 = 1996, bit 2 =
    1997) equals ``mask``. Blocks pre-reduce each custkey to its mask;
    a salted exchange ORs the masks (set algebra as an associative
    bitwise reduce — no row-level distinct shuffle) and each group
    emits only its matching keys, a customer-bounded result."""
    def or_reduce(x: pd.Series) -> int:
        return np.bitwise_or.reduce(x.to_numpy(np.int64))

    def leg(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("o_orderdate")).to_numpy(zero_copy_only=False)
        m = np.where(yr == 1996, 1, np.where(yr == 1997, 2, 0)).astype(np.int64)
        keep = m > 0
        g = pd.DataFrame({"k": _np(batch, "o_custkey")[keep], "m": m[keep]}).groupby(
            "k", as_index=False).agg(m=("m", or_reduce))
        return pa.table({"k": g["k"].to_numpy(np.int64),
                         "m": g["m"].to_numpy(np.int64)})

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", as_index=False).agg(m=("m", or_reduce))
        return pd.DataFrame({"c_custkey": g.loc[g["m"] == mask, "k"].to_numpy(np.int64)})

    out = collect(exchange(
        [(_t(sf_dir, "orders", ["o_custkey", "o_orderdate"]), leg)], pick))
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_repeat_buyers(sf_dir: str) -> pd.DataFrame:
    """INTERSECT of two filtered projections: customers who placed
    orders in BOTH 1996 and 1997 (year mask 1996|1997)."""
    return _year_mask_custs(sf_dir, 3)


ORACLES["repeat_buyers"] = """
SELECT o_custkey AS c_custkey FROM orders
WHERE EXTRACT(year FROM o_orderdate) = 1996
INTERSECT
SELECT o_custkey FROM orders
WHERE EXTRACT(year FROM o_orderdate) = 1997
ORDER BY c_custkey"""


def q_lapsed_buyers(sf_dir: str) -> pd.DataFrame:
    """EXCEPT of two filtered projections: customers who ordered in
    1996 but NOT in 1997 (year mask 1996 only)."""
    return _year_mask_custs(sf_dir, 1)


ORACLES["lapsed_buyers"] = """
SELECT o_custkey AS c_custkey FROM orders
WHERE EXTRACT(year FROM o_orderdate) = 1996
EXCEPT
SELECT o_custkey FROM orders
WHERE EXTRACT(year FROM o_orderdate) = 1997
ORDER BY c_custkey"""


def _pareto_front(pk: np.ndarray, size: np.ndarray,
                  cents: np.ndarray):
    """Vectorized 2-D minimizing Pareto front. A row survives iff its
    price equals its size's min AND beats every strictly-smaller
    size's min (ties at the front are kept — neither dominates the
    other without a strict inequality)."""
    if len(pk) == 0:
        return pk, size, cents
    us, inv = np.unique(size, return_inverse=True)
    m = np.full(len(us), np.iinfo(np.int64).max, np.int64)
    np.minimum.at(m, inv, cents)
    before = np.empty(len(us), np.int64)
    before[0] = np.iinfo(np.int64).max
    if len(us) > 1:
        before[1:] = np.minimum.accumulate(m[:-1])
    keep = (cents == m[inv]) & (cents < before[inv])
    return pk[keep], size[keep], cents[keep]


def q_pareto_parts(sf_dir: str) -> pd.DataFrame:
    """Skyline (Pareto-dominance) query: the parts no other part beats
    on BOTH size and retail price (minimize both; ties on the front
    are kept — dominance needs a strict inequality). The front is
    DISTRIBUTIVE: the global front is a subset of the union of
    per-block fronts, so each block emits its local front (bounded by
    |distinct sizes| plus front ties, never block size) and the driver
    re-runs the same vectorized filter on the tiny union. Prices
    compare in int64 cents; the emitted price is the raw float."""
    def local_front(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        size = batch.column("p_size").to_numpy(zero_copy_only=False)
        price = batch.column("p_retailprice").to_numpy(zero_copy_only=False)
        cents = np.rint(price * 100.0).astype(np.int64)
        fpk, fsize, fcents = _pareto_front(pk, size, cents)
        return pa.table({
            "p_partkey": pa.array(fpk, pa.int64()),
            "p_size": pa.array(fsize, pa.int64()),
            "cents": pa.array(fcents, pa.int64()),
        })

    parts = collect(map(_t(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"]),
                        local_front))
    if parts.empty:
        return pd.DataFrame({"p_partkey": pd.Series([], dtype=np.int64),
                             "p_size": pd.Series([], dtype=np.int64),
                             "price": pd.Series([], dtype=np.float64)})
    fpk, fsize, fcents = _pareto_front(
        parts["p_partkey"].to_numpy(np.int64),
        parts["p_size"].to_numpy(np.int64),
        parts["cents"].to_numpy(np.int64))
    out = pd.DataFrame({"p_partkey": fpk, "p_size": fsize,
                        "price": fcents / 100.0})
    return out.sort_values("p_partkey").reset_index(drop=True)


ORACLES["pareto_parts"] = """
WITH p AS (SELECT p_partkey, p_size,
             CAST(round(p_retailprice*100, 0) AS BIGINT) AS cents
           FROM part)
SELECT a.p_partkey, a.p_size, a.cents / 100.0 AS price
FROM p a
WHERE NOT EXISTS (SELECT 1 FROM p b
  WHERE b.p_size <= a.p_size AND b.cents <= a.cents
    AND (b.p_size < a.p_size OR b.cents < a.cents))
ORDER BY a.p_partkey"""


def q_price_band_join(sf_dir: str, band_cents: int = 100) -> ray.data.Dataset:
    """Numeric BAND self-join (range join on a value, not time —
    the temporal variants are ``asof_join`` / ``session_join``): all
    part pairs whose retail prices differ by <= $1. The classic
    banded-bucket shape: each row lands in bucket ``cents // band``
    and ALSO ghosts into the next bucket, so every qualifying pair
    co-locates exactly once — same-bucket pairs as (real, real),
    cross-boundary pairs as (ghost-from-below, real) — and no
    all-pairs comparison ever happens (per-bucket work is |bucket|^2
    only within the band width). Buckets ride a salted exchange; in-group
    pairing is a vectorized sort + searchsorted window expansion, no
    Python loop over rows. The pair set grows roughly quadratically with
    price density, so it streams out as a Dataset, never a driver
    collect."""
    def leg(batch: pa.Table) -> pa.Table:
        pk = _np(batch, "p_partkey")
        cents = _cents(_np(batch, "p_retailprice"))
        b = cents // band_cents
        # real copy in its own bucket + ghost copy in the next
        return pa.table({
            "k": np.concatenate([b, b + 1]),
            "pk": pa.array(np.concatenate([pk, pk]), pa.int64()),
            "cents": pa.array(np.concatenate([cents, cents]), pa.int64()),
            "ghost": pa.array(np.concatenate(
                [np.zeros(len(pk), np.int8), np.ones(len(pk), np.int8)]),
                pa.int8()),
        })

    def pair_group(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for b, g in df.groupby("k"):
            reals = g[g["ghost"] == 0].sort_values(["cents", "pk"])
            if reals.empty:
                continue
            rc = reals["cents"].to_numpy(np.int64)
            rpk = reals["pk"].to_numpy(np.int64)
            # real-real pairs within the bucket: for row i, partners
            # are the later-sorted rows within band (j > i, no dupes)
            hi = np.searchsorted(rc, rc + band_cents, side="right")
            idx = np.arange(len(rc))
            n_part = hi - idx - 1
            if n_part.sum() > 0:
                ia = np.repeat(idx, n_part)
                off = np.concatenate([np.arange(1, k + 1) for k in n_part
                                      if k > 0]) if n_part.max() > 0 else \
                    np.empty(0, np.int64)
                ib = ia + off
                outs.append((rpk[ia], rpk[ib], rc[ia], rc[ib]))
            ghosts = g[g["ghost"] == 1].sort_values(["cents", "pk"])
            if not ghosts.empty:
                gc = ghosts["cents"].to_numpy(np.int64)
                gpk = ghosts["pk"].to_numpy(np.int64)
                # ghost (bucket below) x real pairs within band
                lo = np.searchsorted(rc, gc - band_cents, side="left")
                hi2 = np.searchsorted(rc, gc + band_cents, side="right")
                n2 = hi2 - lo
                if n2.sum() > 0:
                    ia = np.repeat(np.arange(len(gc)), n2)
                    off = np.concatenate(
                        [np.arange(k) for k in n2 if k > 0])
                    ib = np.repeat(lo, n2) + off
                    outs.append((gpk[ia], rpk[ib], gc[ia], rc[ib]))
        if not outs:
            return pd.DataFrame({"pk_a": np.empty(0, np.int64),
                                 "pk_b": np.empty(0, np.int64),
                                 "price_diff": np.empty(0, np.float64)})
        a = np.concatenate([o[0] for o in outs])
        bq = np.concatenate([o[1] for o in outs])
        ca = np.concatenate([o[2] for o in outs])
        cb = np.concatenate([o[3] for o in outs])
        # canonical pair order (smaller partkey first) + signed diff
        swap = a > bq
        pa_, pb_ = np.where(swap, bq, a), np.where(swap, a, bq)
        da = np.where(swap, cb, ca)
        db = np.where(swap, ca, cb)
        keep = pa_ != pb_
        return pd.DataFrame({
            "pk_a": pa_[keep], "pk_b": pb_[keep],
            "price_diff": (db[keep] - da[keep]) / 100.0,
        })

    cols = ["p_partkey", "p_retailprice"]
    return exchange([(_t(sf_dir, "part", cols), leg)], pair_group)


ORACLES["price_band_join"] = """
WITH p AS (SELECT p_partkey,
             CAST(round(p_retailprice*100, 0) AS BIGINT) AS cents
           FROM part)
SELECT a.p_partkey AS pk_a, b.p_partkey AS pk_b,
       (b.cents - a.cents) / 100.0 AS price_diff
FROM p a JOIN p b ON a.p_partkey < b.p_partkey
  AND abs(a.cents - b.cents) <= 100
ORDER BY pk_a, pk_b"""
