"""Seeded benchmark of the geospatial engine.

    python3 perfbench/run.py --workload geo_sink --seed 1 --seconds 8 --trace 0

Run from the repository root. The inputs are generated from ``--seed``
under ``.bench_data/`` (fixture-shaped, see inputs.py) and deleted at
exit. Jobs run one at a time from this process (a closed loop with one
client) for ``--seconds``; outputs are checked against the DuckDB
oracles outside the timed window. The last stdout line is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (whose spans are written to ``.bench_out/``).

Untraced run: two 4-CPU Ray sessions, each timed as set-up (``ray.init``
+ ``Catalog.from_dir``), then a warm-up job and timed jobs for half of
``--seconds``. ``job_cpu_s`` is the median over both sessions of the
mean CPU seconds of each pair of consecutive jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_DIR = os.path.join(ROOT, ".bench_out")
# Ray's temporary directory (inside inputs.DATA_ROOT), one per process so
# that concurrent runs never share (or delete) each other's session.
RAY_TEMP = os.path.join(ROOT, ".bench_data", f"ray{os.getpid()}")
# Ray num_cpus of the timed sessions and of the traced run's scaling
# baseline. The
# engine's actor pool is max(2, 0.9 x CPUs) actors of one CPU each, so at
# 1 or 2 CPUs it holds every CPU: the staged text flagship then hangs and
# the sink stalls 7-24 s in its write stage. 3 CPUs is the lowest level
# that leaves a CPU free for tasks, as 4 does.
HI_CPUS, LO_CPUS = 4, 3
LAYER_REPEATS = 2    # samples of each orchestration-floor probe in a traced run
EXCHANGE_PASSES = 1  # timed passes over the exchange queries, after a first one
# 4-CPU sessions in an untraced run, each set up, warmed and timed for
# its share of --seconds. A session's jobs keep one CPU level (geo_sink
# jobs read 5.3 CPU s in one session and 6.8 in the next), so a run
# samples more than one.
SESSIONS = 2
MIN_JOBS = 2         # timed jobs per window, however short --seconds is
LO_JOBS = 4          # timed jobs at LO_CPUS in a traced run
# Untimed jobs at the start of a session: they start the workers. After
# one, the next geo_sink job often read 3.6-4.7 CPU s against 5.5-6.5.
WARMUP_JOBS = 2
JOB_TIMEOUT_S = 60        # a job past this counts as failed
RUN_BUDGET_S = 140        # no job starts past this, so a run ends within 180 s
OBJECT_STORE_BYTES = 512 << 20
# Ray kills idle worker processes 1 s after they go idle by default, so
# whether a job starts on warm workers depended on the pause before it
# (sink jobs read 2.4-5.4 s in one session). Keeping idle workers for a
# minute makes every timed job start on the warm-up's workers.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 60_000}

E2E_UNITS = {"setup_s": "s", "job_cpu_s": "s", "rows_per_cpu_s": "rows/s",
             "driver_rss_mb": "MiB"}
LAYER_UNITS = {
    "job.wall_s": "s", "job.rows_per_s": "rows/s",
    "ray.init_s": "s", "catalog.load_s": "s", "job.cold_first_s": "s",
    "flagship.chain_s": "s", "ray.empty_actor_stage_s": "s",
    "ray.empty_task_stage_s": "s", "ray.first_batch_s": "s",
    "read.busy_s": "s", "read.bytes": "bytes",
    "geocode.busy_s": "s", "geocode.rows_in": "rows", "geocode.hit_ratio": "ratio",
    "drop.no_geocode": "rows", "cellindex.busy_s": "s",
    "region_join.busy_s": "s", "region_join.memberships_per_row": "ratio",
    "drop.no_region": "rows", "transform.busy_s": "s",
    "transform.grid_evals": "count", "transform.helmert_rows": "rows",
    "drop.no_coverage": "rows",
    "replay.read_geocode_share": "ratio", "replay.pip_transform_share": "ratio",
    "lineage.sink_s": "s", "lineage.bytes_written": "bytes",
    "lineage.files_written": "count", "lineage.records": "count",
    "lineage.resume_s": "s",
    "exchange.hot_tiles_s": "s", "exchange.tpch_q3_s": "s", "exchange.tpch_q5_s": "s",
    "exchange.tpch_q8_s": "s", "exchange.tpch_q10_s": "s", "exchange.cold_first_s": "s",
    "collect.bytes": "bytes", "collect.rows": "rows", "trace.overhead_s": "s",
    "scaling.eff_3to4": "ratio",
}


class JobTimeout(Exception):
    pass


def _bounded(fn, timeout: float):
    """Run ``fn`` in a worker thread; raise JobTimeout past ``timeout``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise JobTimeout(f"job still running after {timeout} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _cpu_seconds() -> float:
    """CPU time the box has run so far (user, nice, system, irq, softirq):
    idle, I/O wait and time the hypervisor gave to other machines excluded."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq = map(int, f.readline().split()[1:8])
    return (user + nice + system + irq + softirq) / os.sysconf("SC_CLK_TCK")


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Bench:
    """One run: sessions, bounded jobs, failure accounting."""

    def __init__(self, wl, tracer, t_start: float) -> None:
        self.wl = wl
        self.tracer = tracer
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wedged = False
        # per session: (ray.init s, Catalog.from_dir s, CPU s of both)
        self.setups: list[tuple[float, float, float]] = []
        self.last_cpu_s = 0.0

    @contextlib.contextmanager
    def session(self, num_cpus: int):
        import ray
        import ray.data

        import procs
        from vyperdatum_ray.catalog import Catalog

        kw = {}
        if len(RAY_TEMP) <= 40:  # Ray's socket paths must stay under 108 bytes
            kw["_temp_dir"] = RAY_TEMP
        # Workers inherit the driver's environment. (A runtime_env would
        # do the same, but every session's first job then started its
        # workers 4-6 s slower.)
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE])
        c0, t0 = _cpu_seconds(), time.perf_counter()
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _system_config=RAY_SYSTEM_CONFIG,
                 **kw)
        t1 = time.perf_counter()
        procs.exit_on_sigterm()
        try:
            ray.data.DataContext.get_current().enable_progress_bars = False
            catalog = Catalog.from_dir(self.wl.sf)
            self.setups.append((t1 - t0, time.perf_counter() - t1, _cpu_seconds() - c0))
            yield catalog
        except BaseException:
            self.wedged = True  # e.g. SIGTERM while a job thread runs
            raise
        # A job still running (after its timeout, or under an exception)
        # keeps calling into Ray; shutting Ray down under it ends this
        # process at once. Such a run leaves ending Ray to exit time.
        if not self.wedged:
            ray.shutdown()
            left = procs.stop_descendants()  # workers still exiting
            if left:
                print(f"stopped {len(left)} processes left after ray.shutdown",
                      file=sys.stderr)

    def over_budget(self) -> bool:
        return self.wedged or time.perf_counter() - self.t_start > RUN_BUDGET_S

    def attempt(self, catalog):
        """One bounded, checked job: (Result, seconds) or (None, None).
        The job's CPU seconds go to ``self.last_cpu_s``."""
        self.attempted += 1
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with self.tracer.span("job"):
                res = _bounded(lambda: self.wl.job(catalog, self.tracer), JOB_TIMEOUT_S)
        except JobTimeout as e:
            self.wedged = True  # the session may be stuck: start no more jobs
            return self._fail(f"timeout: {e}")
        except Exception as e:
            return self._fail(f"job raised {type(e).__name__}: {e}")
        dt = time.perf_counter() - t0
        self.last_cpu_s = _cpu_seconds() - c0
        problems = self.wl.quick_check(res)
        if problems:
            res.discard()
            return self._fail("; ".join(problems))
        return res, dt

    def _fail(self, msg: str):
        self.failed += 1
        self.problems.append(msg)
        print(f"FAILED: {msg}", file=sys.stderr)
        return None, None

    def timed(self, catalog, window: float, num_cpus: int = HI_CPUS,
              min_jobs: int = MIN_JOBS, on_job=None):
        """Settled jobs until ``window`` s have passed, the minimum count
        has run and the count is even (see ``_pair_means``); returns
        (seconds list, CPU seconds list, last Result)."""
        import ray

        times, cpu, last = [], [], None
        t_end = time.perf_counter() + window
        while not self.over_budget() and (
                time.perf_counter() < t_end or len(times) < min_jobs or len(times) % 2):
            if last is not None:  # one job's output alive at a time
                last.discard()
                last = None
            _settle(ray, num_cpus)
            if on_job is not None:
                on_job(len(times))
            last, dt = self.attempt(catalog)
            if last is not None:
                times.append(dt)
                cpu.append(self.last_cpu_s)
        return times, cpu, last

    def warm_up(self, catalog) -> None:
        for _ in range(WARMUP_JOBS):
            res, _ = self.attempt(catalog)
            if res is not None:
                res.discard()

    def full_check(self, res, catalog) -> None:
        if res is None:
            return
        for p in self.wl.full_check(res, catalog):
            self.problems.append(p)
            print(f"CHECK: {p}", file=sys.stderr)


def _settle(ray, num_cpus: int) -> None:
    """Collect the finished Dataset's executor (it holds actor CPUs until
    the cyclic GC runs) and wait briefly for the CPUs to return."""
    gc.collect()
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        if ray.available_resources().get("CPU", 0) >= num_cpus - 0.5:
            return
        time.sleep(0.05)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _pair_means(xs: list[float]) -> list[float]:
    """Means of consecutive jobs, (1st, 2nd), (3rd, 4th) and so on:
    geo_text alternates a dearer and a cheaper job (7.1 and 5.7 CPU s), so
    a plain median moved by 1 s with the parity of the job count."""
    return [(a + b) / 2 for a, b in zip(xs[::2], xs[1::2])]


def untraced(bench: Bench, seconds: float, import_cpu_s: float) -> tuple[dict, dict]:
    times, cpu, pairs, rss = [], [], [], 0.0
    for n in range(SESSIONS):
        with bench.session(HI_CPUS) as catalog:
            bench.warm_up(catalog)
            _log(bench, "warm")
            _reset_peak_rss()
            t, c, last = bench.timed(catalog, seconds / SESSIONS)
            rss = max(rss, _peak_rss_mb())
            _log(bench, "timed")
            times.append(t)
            cpu.append(c)
            pairs += _pair_means(c)
            if n == SESSIONS - 1:
                bench.full_check(last, catalog)
                _log(bench, "checked")
            if last is not None:
                last.discard()
    job_cpu_s = _median(pairs)
    metrics = {
        "setup_s": import_cpu_s + _median([c for _, _, c in bench.setups]),
        "job_cpu_s": job_cpu_s,
        "rows_per_cpu_s": bench.wl.rows_in / job_cpu_s,
        "driver_rss_mb": rss,
    }
    detail = {"jobs": times, "jobs_cpu_s": cpu, "job_s": _median(sum(times, [])),
              "setup": bench.setups, "import_cpu_s": import_cpu_s}
    return metrics, detail


def _log(bench: Bench, what: str) -> None:
    print(f"[{time.perf_counter() - bench.t_start:7.2f} s] {what}", file=sys.stderr)


def _chain_seconds(wl, catalog) -> float:
    """The fused flagship over the workload's pages, consumed by count()."""
    from vyperdatum_ray.pipelines import flagship

    t0 = time.perf_counter()
    flagship.flagship_fused(wl.sf, catalog=catalog).count()
    return time.perf_counter() - t0


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from layers import empty_stage, replay
    from workloads import GeoSink, lineage_records

    from vyperdatum_ray.pipelines import flagship
    from vyperdatum_ray.state import lineage

    tr = bench.tracer
    m = {name: 0.0 for name in LAYER_UNITS}
    wl = bench.wl
    with bench.session(HI_CPUS) as catalog:
        m["job.cold_first_s"] = bench.attempt(catalog)[1] or 0.0
        on, off = [], []

        def toggle(i):  # alternate traced and untraced jobs
            tr.enabled = i % 2 == 0

        times, _, last = bench.timed(catalog, seconds / 2, on_job=toggle)
        for i, dt in enumerate(times):
            (on if i % 2 == 0 else off).append(dt)
        tr.enabled = True
        if bench.wedged:  # a stuck job holds the actors every probe below needs
            return m, {"jobs": times}
        m["trace.overhead_s"] = _median(on) - _median(off)
        m["job.wall_s"] = _median(times)
        m["job.rows_per_s"] = wl.rows_in / m["job.wall_s"]
        if last is not None:
            m["collect.bytes"], m["collect.rows"] = last.collect_bytes, last.collect_rows
        chain, actor, task, first = [], [], [], []
        pool = flagship._pool_size()
        for _ in range(LAYER_REPEATS):
            with tr.span("flagship.chain"):
                chain.append(_chain_seconds(wl, catalog))
            with tr.span("ray.empty_actor_stage"):
                actor.append(empty_stage(wl.pages, pool))
            with tr.span("ray.empty_task_stage"):
                task.append(empty_stage(wl.pages, None))
            with tr.span("ray.first_batch"):
                t0 = time.perf_counter()
                it = iter(flagship.flagship_fused(wl.sf, catalog=catalog)
                          .iter_batches(batch_format="pyarrow", batch_size=None))
                next(it)
                first.append(time.perf_counter() - t0)
                for _ in it:
                    pass
        m["flagship.chain_s"] = _median(chain)
        m["ray.empty_actor_stage_s"] = _median(actor)
        m["ray.empty_task_stage_s"] = _median(task)
        m["ray.first_batch_s"] = _median(first)
        if isinstance(wl, GeoSink) and last is not None:
            m["lineage.sink_s"] = _median(times) - m["flagship.chain_s"]
            files = [os.path.join(d, f) for d, _, fs in os.walk(last.path)
                     for f in fs if f.endswith(".parquet")]
            m["lineage.files_written"] = len(files)
            m["lineage.bytes_written"] = sum(os.path.getsize(f) for f in files)
            m["lineage.records"] = len(lineage_records(last.path))
            resume = []
            for _ in range(LAYER_REPEATS):
                with tr.span("lineage.resume"):
                    t0 = time.perf_counter()
                    lineage.run_flagship_checkpointed(wl.sf, last.path, catalog=catalog)
                    resume.append(time.perf_counter() - t0)
            m["lineage.resume_s"] = _median(resume)
        bench.full_check(last, catalog)
        if last is not None:
            last.discard()
        if isinstance(wl, GeoSink):
            exchange(bench, m)
    with bench.session(LO_CPUS) as lo_catalog:
        with tr.span("scaling.lo"):
            bench.warm_up(lo_catalog)
            lo, _, last = bench.timed(lo_catalog, 0.0, LO_CPUS, LO_JOBS)
        if last is not None:
            last.discard()
    # rows/s at HI_CPUS over HI/LO times rows/s at LO_CPUS
    m["scaling.eff_3to4"] = _median(lo) / (HI_CPUS / LO_CPUS * _median(times))
    with tr.span("replay"):
        counts = replay(wl.pages, catalog, tr)
    busy = tr.self_seconds()
    for layer in ("read", "geocode", "cellindex", "region_join", "transform"):
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    for name in ("read.bytes", "geocode.rows_in", "drop.no_geocode", "drop.no_region",
                 "drop.no_coverage", "transform.grid_evals", "transform.helmert_rows"):
        m[name] = counts[name]
    m["geocode.hit_ratio"] = counts["geocode.rows_out"] / counts["geocode.rows_in"]
    m["region_join.memberships_per_row"] = (
        counts["region_join.memberships"] / max(1, counts["geocode.rows_out"]))
    total = sum(m[f"{x}.busy_s"] for x in ("read", "geocode", "cellindex",
                                           "region_join", "transform"))
    m["replay.read_geocode_share"] = (m["read.busy_s"] + m["geocode.busy_s"]) / total
    m["replay.pip_transform_share"] = (m["region_join.busy_s"] + m["transform.busy_s"]) / total
    init, cat, _ = zip(*bench.setups[:1])
    m["ray.init_s"], m["catalog.load_s"] = _median(init), _median(cat)
    return m, {"jobs": times, f"jobs_{LO_CPUS}cpu": lo}


def exchange(bench: Bench, m: dict) -> None:
    """The exchange queries over the sink's pages and the TPC-H tables: a
    first pass (``exchange.cold_first_s``, its total) and timed passes,
    the last one checked against the oracles."""
    from workloads import Exchange

    ex = Exchange(bench.wl.sf)
    tr = bench.tracer
    t0 = time.perf_counter()
    ex.run(tr, "exchange.first.")
    m["exchange.cold_first_s"] = time.perf_counter() - t0
    for _ in range(EXCHANGE_PASSES):
        out = ex.run(tr)
    for name in out:
        m[f"exchange.{name}_s"] = _median(tr.durations(f"exchange.{name}"))
    for p in ex.check(out):
        bench.problems.append(p)
        print(f"CHECK: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["geo_sink", "geo_text", "geo_dense"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (the smoke test uses a small one)")
    args = ap.parse_args(argv)

    t_start, c_start = time.perf_counter(), _cpu_seconds()
    sys.path[:0] = [ROOT, HERE]
    # Every Ray call comes after the benchmark's own ray.init. Without
    # this, a job thread still running after ray.shutdown() would start a
    # new cluster that outlives the run.
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    import ray  # noqa: F401  (import cost is part of set-up)

    import vyperdatum_ray.pipelines.flagship  # noqa: F401
    import_cpu_s = _cpu_seconds() - c_start

    import inputs
    from layers import Tracer
    from workloads import WORKLOADS

    sf = os.path.join(inputs.DATA_ROOT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(sf, ignore_errors=True)
    inputs.use_bench_data_root()  # fixture_dir(sf) resolves to sf itself
    try:
        manifest = inputs.generate(args.workload, args.seed, sf, args.scale)
        if args.trace and args.workload == "geo_sink":
            inputs.write_tpch(sf, args.seed, args.scale)  # for the exchange queries
        wl = WORKLOADS[args.workload](sf=sf, manifest=manifest)
        wl.prepare()
        _log_t = time.perf_counter() - t_start
        print(f"[{_log_t:7.2f} s] inputs and oracle ready", file=sys.stderr)
        tracer = Tracer(enabled=bool(args.trace))
        bench = Bench(wl, tracer, t_start)
        if args.trace:
            values, detail = traced(bench, args.seconds)
            units = LAYER_UNITS
            os.makedirs(SPAN_DIR, exist_ok=True)
            tracer.dump(os.path.join(SPAN_DIR, f"spans-{args.workload}-s{args.seed}.json"))
        else:
            values, detail = untraced(bench, args.seconds, import_cpu_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(sf, ignore_errors=True)
    print(json.dumps({"detail": {**detail, "problems": bench.problems,
                                 "wall_s": time.perf_counter() - t_start}}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def _run_and_exit() -> None:
    """main(), then end every process the run started, on every path out.
    The exit skips interpreter shutdown: after a job timeout its thread
    still calls into Ray, and Ray's exit hook would crash under it."""
    import traceback

    import procs

    procs.become_subreaper()
    procs.exit_on_sigterm()
    code = 1
    try:
        code = main()
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            procs.stop_descendants()
            shutil.rmtree(RAY_TEMP, ignore_errors=True)
        except BaseException:
            traceback.print_exc()
            code = code or 1
        sys.stderr.flush()
        os._exit(code)


if __name__ == "__main__":
    _run_and_exit()
