"""Tracing for the benchmark's traced run: in-memory spans recorded at
the boundaries the benchmark calls, an in-driver replay of every input
shard through the flagship's stage functions, and the do-nothing Ray
stages that give the orchestration floor.

Spans are (id, name, parent, trace, start, end). A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np
import pyarrow.parquet as pq


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent,
               "trace": sid if parent is None else self.spans[parent]["trace"],
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["end"] is not None:
                out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def replay(paths: list[str], catalog, tracer: Tracer) -> dict[str, float]:
    """Run every shard through the fused flagship's stage functions in
    the driver, one span per stage call, and count the work and the
    rows each stage drops. Returns the per-layer counters."""
    from vyperdatum_ray.catalog import INPUT_FRAME
    from vyperdatum_ray.stages.cellindex import cell_index_batch
    from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded
    from vyperdatum_ray.stages.region_join import RegionJoiner, membership_words
    from vyperdatum_ray.stages.transform import DatumTransformer

    joiner = RegionJoiner(catalog)
    transformer = DatumTransformer(catalog)
    steps = np.array([len(s) if s is not None else 0 for s in transformer.region_steps])
    hop = np.array([f != INPUT_FRAME for f in transformer.region_frames])
    c = defaultdict(int)
    for p in paths:
        with tracer.span("replay.shard"):
            with tracer.span("read"):
                t = pq.read_table(p, columns=["url", "text"])
            with tracer.span("geocode"):
                g = keep_geocoded(geocode_batch(t)).select(["url", "lat", "lon"])
            with tracer.span("cellindex"):
                cells = cell_index_batch(g)
            with tracer.span("region_join"):
                joined = joiner(cells)
            with tracer.span("transform"):
                out = transformer(joined)
        c["read.bytes"] += t.nbytes
        c["geocode.rows_in"] += t.num_rows
        c["geocode.rows_out"] += g.num_rows
        words = membership_words(joined)
        member = np.stack([(words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1)
                           for i in range(len(steps))], axis=1).astype(np.int64)
        per_region = member.sum(axis=0)
        c["region_join.memberships"] += int(per_region.sum())
        c["transform.grid_evals"] += int((per_region * steps).sum())
        c["transform.helmert_rows"] += int(per_region[hop].sum())
        pip = joined.column("pip_region_index").to_numpy()
        region = out.column("region_index").to_numpy()
        c["drop.no_region"] += int((pip < 0).sum())
        c["drop.no_coverage"] += int(((pip >= 0) & (region < 0)).sum())
    c["drop.no_geocode"] = c["geocode.rows_in"] - c["geocode.rows_out"]
    return dict(c)


class _Noop:
    def __call__(self, batch):
        return batch


def _noop(batch):
    return batch


def empty_stage(paths: list[str], pool: int | None) -> float:
    """Seconds for a do-nothing stage over one row per shard: an actor
    pool of ``pool`` actors, or stateless tasks when ``pool`` is None."""
    import ray.data

    t0 = time.perf_counter()
    ds = ray.data.from_items([{"path": p} for p in paths], override_num_blocks=len(paths))
    if pool is None:
        ds = ds.map_batches(_noop, batch_format="pyarrow", batch_size=1, num_cpus=1)
    else:
        ds = ds.map_batches(_Noop, batch_format="pyarrow", batch_size=1,
                            concurrency=pool, num_cpus=1)
    ds.count()
    return time.perf_counter() - t0
