"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry at sf0.01 and compare against ``oracle_sql()`` via
DuckDB — row count, schema, and order-insensitive value equality.

Usage: python scripts/check_correctness.py [name | @set ...]

``@flagship`` names every query that runs the flagship's region join and
datum transform (``flagship.flagship_fused`` or ``join_transform_batch``);
``@exchange`` names every relational query on the salted exchange
(``pipelines/exchange.exchange``); ``@text`` names the text, corpus,
image and embedding queries on it; ``@raster`` names the raster-path
queries (``pipelines/raster.py``); ``@aggregate`` names the keyed and
global aggregates merged by ``exchange.fold`` and the two events
windows reduced on ``exchange.exchange``; ``@keyed`` names the queries
whose per-key reduce over keys that grow with the input (hosts, tokens,
shards, segments, graph nodes) runs on ``exchange.aggregate`` or
``exchange.exchange``.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# The engine imports from this checkout, whatever the working directory:
# the driver through sys.path, Ray's workers through PYTHONPATH.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

SF_DIR = os.environ.get("CHECK_SF_DIR", "/root/testdata/sf0.01")
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
NAMED_SETS = {
    "flagship": """flagship flagship_fused region_join region_counts datum_transform
        datum_transform_itrf transform_projected external_region_transform
        transform_summary datum_transform_inv datum_transform_navd88
        datum_transform_mhw hot_tiles knn_grid_node gridded_points
        transform_stateplane transform_stateplane_tm transform_stateplane_md
        transform_stateplane_nj sampled_transform spatial_order region_median
        knn_grid_nodes tile_counts""".split(),
    "exchange": """sessionize asof_join session_join tpch_q3 shuffle_join tpch_q4
        tpch_q5 tpch_q7 tpch_q8 tpch_q9 tpch_q10 tpch_q11 tpch_q12 tpch_q13
        tpch_q15 tpch_q16 tpch_q17 tpch_q18 tpch_q19 tpch_q20 tpch_q21 tpch_q22
        semi_anti_join bloom_semi_join min_cost_supplier running_total
        full_outer_join event_lag_delta funnel_conversion gap_fill_resample
        repeat_buyers lapsed_buyers price_band_join events_window
        events_sliding""".split(),
    "text": """dedup_exact dedup_normalized line_dedup url_dedup minhash_pairs
        simhash_neardup neardup_jaccard neardup_clusters_text corpus_pipeline
        seq_pack image_neardup neardup_embedding_lsh""".split(),
    "raster": """raster_valid_counts raster_sep raster_transform raster_tile_manifest
        raster_coverage zonal_stats""".split(),
    "aggregate": """tpch_q1 orders_customer_join tpch_q6 tpch_q14 tpch_q22 tpch_q15
        tpch_q11 bloom_semi_join extent sampled_transform csv_roundtrip
        raster_valid_counts raster_tile_manifest zonal_stats token_percentiles
        lang_token_stats approx_distinct_hosts jsonl_roundtrip lang_source_pivot
        lang_source_rollup lang_source_cube source_corr embedding_centroid
        events_window events_sliding""".split(),
    "keyed": """distinct_hosts top_hosts top_hosts_sketch unigram_logprob token_freq
        tfidf_terms bigram_logprob domain_quality spatial_order seq_pack
        top_orders_per_segment bloom_semi_join supplier_list_agg tpch_q4
        dedup_clusters_embedding neardup_clusters_text""".split(),
}


def expand(names: list[str]) -> set[str]:
    """Query names, with each ``@set`` replaced by its members."""
    out = set()
    for name in names:
        if name.startswith("@"):
            if name[1:] not in NAMED_SETS:
                raise SystemExit(f"unknown set {name}; known: "
                                 + " ".join("@" + k for k in NAMED_SETS))
            out.update(NAMED_SETS[name[1:]])
        else:
            out.add(name)
    return out


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], bytes):
            df[c] = df[c].map(lambda b: b.hex())
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, theirs: pd.DataFrame) -> list[str]:
    problems = []
    if len(mine) != len(theirs):
        problems.append(f"row count {len(mine)} != {len(theirs)}")
    if sorted(mine.columns) != sorted(theirs.columns):
        problems.append(f"columns {sorted(mine.columns)} != {sorted(theirs.columns)}")
        return problems
    a, b = normalize(mine), normalize(theirs)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            # the driver hashes VALUES AND DTYPES: int64 1 vs float64 1.0
            # hash-mismatch even though `==` calls them equal — reproduce
            # that here by failing on differing dtype kinds (int vs float
            # vs datetime vs object), the gap that let the sessionize
            # family pass locally while failing the driver in round 1
            ka, kb = av.dtype.kind, bv.dtype.kind
            if {ka, kb} <= {"i", "u"}:
                ka = kb = "i"
            if ka != kb:
                problems.append(f"col {c}: dtype kind {av.dtype} != {bv.dtype}")
                continue
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                eq = (av == bv) | (pd.isna(av) & pd.isna(bv))
            else:
                eq = av == bv
            neq = int((~np.asarray(eq)).sum())
            if neq:
                i = int(np.nonzero(~np.asarray(eq))[0][0])
                problems.append(f"col {c}: {neq} mismatches, first at {i}: {av[i]!r} vs {bv[i]!r}")
    return problems


def main(argv):
    import ray

    if not ray.is_initialized():
        pythonpath = os.pathsep.join(
            filter(None, [REPO_ROOT, os.environ.get("PYTHONPATH")]))
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    E._SF001 = SF_DIR  # rebind the oracle fixture dir to the swept scale
    qs = E.queries()
    oracles = E.oracle_sql()
    only = expand(argv) or set(qs)
    missing = sorted(only - set(qs))
    if missing:
        raise SystemExit(f"not in queries(): {' '.join(missing)}")

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(SF_DIR))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        el = time.time() - t0
        if name not in oracles:
            print(f"ok?  {name}: rows-only ({len(mine)} rows, {el:.1f}s) cols={list(mine.columns)}")
            continue
        try:
            theirs = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, mine, theirs)
        if problems:
            failures += 1
            print(f"FAIL {name} ({len(mine)} vs {len(theirs)} rows, {el:.1f}s):")
            for p in problems:
                print(f"     - {p}")
        else:
            print(f"PASS {name} ({len(mine)} rows, {el:.1f}s)")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
