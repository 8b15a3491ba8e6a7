"""Benchmark harness: runs the headline pipelines over $GRAFT_SF_DIR
(default /root/testdata/sf0.1) and prints ONE JSON line.

    python bench.py               # per-query seconds + flagship rows/s
    python bench.py --scaling     # same flagship job at N // 4 and N CPUs
                                  # in fresh processes -> scaling efficiency

N (``RAY_GRAFT_CPUS``) defaults to the CPUs this process may run on
(``os.sched_getaffinity``), so Ray is never asked for more CPUs than
the box has.

The driver records the JSON as BENCH_r{N}.json. ``value`` is the
flagship end-to-end wall seconds (geocode -> cell index -> PIP join ->
datum transform over the pages table); ``rows_per_s`` is the matching
throughput for BASELINE.md.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))

# Headline pipelines benchmarked per round (a representative slice of
# queries(): the flagship geospatial path, a shuffle-heavy relational
# aggregate, dedup/LSH, vectorized text scoring, and ANN).
BENCH_QUERIES = [
    "flagship",
    "flagship_fused",
    "tile_counts",
    "region_counts",
    "transform_summary",
    "sampled_transform",
    "spatial_order",
    "datum_transform_itrf",
    "transform_projected",
    "raster_transform",
    "tpch_q1",
    "tpch_q3",
    "tpch_q5",
    "tpch_q13",
    "tpch_q16",
    "tpch_q22",
    "min_cost_supplier",
    "tpch_q7",
    "tpch_q8",
    "tpch_q10",
    "tpch_q21",
    "running_total",
    "full_outer_join",
    "semi_anti_join",
    "orders_customer_join",
    "shuffle_join",
    "sessionize",
    "events_sliding",
    "asof_join",
    "region_median",
    "zonal_stats",
    "dedup_exact",
    "minhash_pairs",
    "neardup_jaccard",
    "token_count",
    "quality_score",
    "simhash",
    "langid",
    "unigram_logprob",
    "ann_topk",
    "neardup_embedding",
    "neardup_embedding_lsh",
    "html_stats",
    "html_extract",
    "contamination_check",
    "train_split",
    "seq_pack",
    "corpus_pipeline",
    "tfidf_terms",
    "kmeans_embeddings",
    "bigram_logprob",
    "stratified_sample",
    "jsonl_roundtrip",
    "image_neardup",
    "lang_source_pivot",
    "source_corr",
]


def _consume(res) -> int:
    """Materialize a query result enough to force full execution; return
    row count."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        n = 0
        for b in res.iter_batches(batch_format="pyarrow", batch_size=None):
            n += b.num_rows
        return n
    if isinstance(res, (pd.DataFrame, pa.Table)):
        return len(res)
    return 0


def _pages_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    from vyperdatum_ray.fixtures import ensure_fixtures, pages_paths

    ensure_fixtures(sf_dir)
    return sum(pq.ParquetFile(p).metadata.num_rows for p in pages_paths(sf_dir))


def run_once(num_cpus: int, queries: list[str]) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as E

    qs = E.queries()
    n_pages = _pages_rows(SF_DIR)

    def _settle():
        # The finished Dataset's streaming executor sits in a reference
        # cycle until the cyclic GC happens to run; until then its actor
        # pool holds CPUs and the NEXT query's pool starves behind it
        # (measured: a random query per run stalled 14-20 s at 8 CPUs
        # with task_submission_backpressure while 7 actors sat pending).
        # Collect between queries so each timing measures the query, not
        # the predecessor's teardown latency — then briefly wait for the
        # freed CPUs to actually return (ray.kill is async; a residual
        # ~2x stall migrated between queries when a 28-actor pool spawned
        # while the previous one was still dying).
        gc.collect()
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            import ray as _ray

            if _ray.available_resources().get("CPU", 0) >= num_cpus - 0.5:
                break
            time.sleep(0.05)

    # median-of-N per query: this shared box drifts 1.5-2x on a ~20 min
    # cycle (BASELINE.md), so single-shot per-query seconds are not
    # attributable round over round; the per-run list is kept so warm
    # (run 2/3) vs cold (run 1) is visible in the record.
    repeat = max(1, int(os.environ.get("GRAFT_BENCH_REPEAT", "3")))
    timings: dict[str, float] = {}
    runs: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for name in queries:
        per_run: list[float] = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            counts[name] = _consume(qs[name](SF_DIR))
            per_run.append(round(time.perf_counter() - t0, 3))
            _settle()
        med = sorted(per_run)[len(per_run) // 2]
        timings[name] = med
        runs[name] = {"median": med, "runs": per_run}

    flagship_s = timings.get("flagship", sum(timings.values()))
    out = {
        "metric": "flagship geocode+PIP-join+datum-transform e2e seconds",
        "value": flagship_s,
        "unit": "sec",
        "queries": timings,
        "query_runs": runs,
        "bench_repeat": repeat,
        "sf": SF_DIR,
        "num_cpus": num_cpus,
        "rows_per_s": round(n_pages / flagship_s, 1) if flagship_s else None,
        "input_rows": n_pages,
        "output_rows": counts,
    }
    ray.shutdown()
    return out


SCALING_REPEAT = int(os.environ.get("GRAFT_SCALING_REPEAT", "256"))
# Paths per CPU in one scaling window (see scaling_one).
SCALING_WINDOW_ROUNDS = 8
# N and 4N parallelism levels for the scaling criterion: the high level
# is every CPU of the run (NUM_CPUS), the low a quarter of it (1 -> 4 on
# a 4-CPU box). A level past the box's real CPUs would measure
# oversubscription, not Ray's scaling.
SCALE_HI = NUM_CPUS
SCALE_LO = max(1, SCALE_HI // 4)


def scaling_one(num_cpus: int, repeat: int) -> dict:
    """One saturation-scale flagship run: the sf input replicated
    ``repeat``x (same files listed repeatedly — honest extra work at
    the same data distribution), catalog/job setup excluded from the
    timed window (it is a per-job constant, amortized over a 100 TB
    run, not a per-row cost)."""
    import ray

    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from vyperdatum_ray.fixtures import pages_paths
    from vyperdatum_ray.pipelines.flagship import flagship_fused, load_catalog

    catalog = load_catalog(SF_DIR)  # untimed job setup

    inner = min(8, repeat)  # in-actor copies per shard (honest extra work)

    t0 = time.perf_counter()
    # fully-fused shard tasks (the production sink shape,
    # flagship.FusedReadTransform / state/lineage.py): read -> geocode
    # -> cells -> PIP -> transform in ONE actor call, input listed
    # repeat/inner x with inner copies concatenated in-actor. Round-4
    # measurement: this removed the ~16M rows/s 32-CPU 'wall' — the
    # wall was the task->actor object-store boundary (16.4 -> 26.8M
    # rows/s at 32 CPUs; BASELINE.md).
    paths = sorted(pages_paths(SF_DIR)) * max(1, repeat // inner)
    # flagship_fused holds its output in the object store until the
    # Dataset is dropped (48.4 MB per sf0.1 pass, ~12 GB for the whole
    # repeat), so the paths run in windows of 8 paths per CPU (one work
    # unit of 8 paths per CPU, flagship.work_units), each counted and
    # dropped before the next. Both levels then pay the same tail share.
    # count() reads block metadata: no driver-side batch pull (the 100 TB
    # pattern is a distributed sink, never iter_batches to one process)
    window = SCALING_WINDOW_ROUNDS * num_cpus
    n = sum(flagship_fused(SF_DIR, catalog=catalog, paths=paths[i:i + window],
                           inner=inner).count()
            for i in range(0, len(paths), window))
    sec = time.perf_counter() - t0
    n_in = _pages_rows(SF_DIR) * repeat
    ray.shutdown()
    return {"num_cpus": num_cpus, "sec": round(sec, 3), "rows_in": n_in,
            "rows_out": n, "rows_per_s": round(n_in / sec, 1)}


SCALING_RUNS = int(os.environ.get("GRAFT_SCALING_RUNS", "2"))


def run_scaling() -> dict:
    """Same flagship job at two parallelism levels in fresh processes
    (sandbox stand-in for N vs 4N nodes); efficiency =
    throughput(hi) / (throughput(lo) * hi/lo). Each level runs
    GRAFT_SCALING_RUNS times interleaved (lo,hi,lo,hi,...) and the
    BEST time per level is used: this shared box drifts 1.5-2x on a
    ~20-minute cycle (BASELINE.md), and a drift edge landing between
    the two levels corrupts the ratio far more than it corrupts either
    absolute number — interleaving + best-of puts both levels in the
    same (fastest observed) box phase. All runs are recorded."""
    lo, hi = SCALE_LO, SCALE_HI
    runs: dict[int, list[dict]] = {lo: [], hi: []}
    for _ in range(max(1, SCALING_RUNS)):
        for n in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_SF_DIR=SF_DIR)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--scale-one",
                 str(n), str(SCALING_REPEAT)],
                capture_output=True, text=True, env=env, timeout=3600,
            )
            line = proc.stdout.strip().splitlines()[-1]
            runs[n].append(json.loads(line))
    results = {n: min(rs, key=lambda r: r["sec"]) for n, rs in runs.items()}
    t_lo, t_hi = results[lo]["sec"], results[hi]["sec"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": f"flagship scaling efficiency ({lo} -> {hi} CPUs, fresh sessions)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": SF_DIR,
        "repeat": SCALING_REPEAT,
        "runs_per_level": max(1, SCALING_RUNS),
        "low": results[lo],
        "high": results[hi],
        "all_runs": {str(n): rs for n, rs in runs.items()},
        "speedup": round(t_lo / t_hi, 2),
    }


def _emit(record: dict, mode: str = "bench") -> None:
    """Print the one-line JSON contract AND persist the complete record
    to bench_results/latest_<mode>_full.json (per-mode file so a
    --scaling run or a ``--one`` subset, written to
    latest_one_full.json, cannot overwrite the full record an earlier
    bench stdout line still points at). The driver snapshots only the last
    ~2 KB of stdout into BENCH_r{N}.json, so the stdout line keeps the
    medians but moves the bulky per-run lists / row counts to the file
    (pointed at by ``full_record``) — the round-4 records' parsed field
    was null because the full line outgrew the capture window."""
    here = os.path.dirname(os.path.abspath(__file__))
    rel = os.path.join("bench_results", f"latest_{mode}_full.json")
    full_path = os.path.join(here, rel)
    os.makedirs(os.path.dirname(full_path), exist_ok=True)
    with open(full_path, "w") as f:
        json.dump(record, f, indent=1)
    slim = {k: v for k, v in record.items()
            if k not in ("query_runs", "output_rows", "all_runs")}
    slim["full_record"] = rel
    print(json.dumps(slim))


def main() -> None:
    args = sys.argv[1:]
    if args and args[0] == "--scaling":
        _emit(run_scaling(), mode="scaling")
    elif args and args[0] == "--scale-one":
        print(json.dumps(scaling_one(int(args[1]), int(args[2]))))
    elif args and args[0] == "--one":
        _emit(run_once(NUM_CPUS, args[1:] or BENCH_QUERIES), mode="one")
    else:
        _emit(run_once(NUM_CPUS, BENCH_QUERIES))


if __name__ == "__main__":
    main()
