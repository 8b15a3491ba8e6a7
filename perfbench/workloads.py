"""The three workloads: one job each against the engine's public entry
points, a cheap check run on every job, and a full check against the
DuckDB oracles run once per run outside the timed window. Also the
exchange queries that the traced ``geo_sink`` run times."""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from scripts.check_correctness import compare
from vyperdatum_ray import oracle
from vyperdatum_ray.pipelines import flagship, queries, relational
from vyperdatum_ray.state import lineage

TPCH_TABLES = "region nation customer supplier part orders lineitem".split()
EXCHANGE_QUERIES = {
    "hot_tiles": lambda sf: queries.q_hot_tiles(sf).to_pandas(),
    "tpch_q3": relational.q_tpch_q3,
    "tpch_q5": relational.q_tpch_q5,
    "tpch_q8": relational.q_tpch_q8,
    "tpch_q10": relational.q_tpch_q10,
}
TRANSFORM_COLS = ["url", "lat", "lon", "region", "region_index", "z_out", "unc"]


@dataclass
class Result:
    out: object = None          # what the check reads
    collect_rows: int = 0       # rows the driver received
    collect_bytes: int = 0      # bytes the driver received
    path: str | None = None     # output directory the job wrote

    def discard(self) -> None:
        if self.path:
            shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Workload:
    """Base: ``sf`` is the generated fixture directory."""

    sf: str
    manifest: dict
    expected: dict = field(default_factory=dict)

    @property
    def pages(self) -> list[str]:
        return self.manifest["pages"]

    @property
    def rows_in(self) -> int:
        return sum(pq.ParquetFile(p).metadata.num_rows for p in self.pages)

    def _sql(self, sql: str):
        with duckdb.connect() as con:
            return con.execute(sql).df()

    def _geocoded(self) -> int:
        return int(self._sql(f"SELECT count(*) AS n FROM ({oracle.q_geocode(self.sf)})")["n"][0])


class GeoSink(Workload):
    """``run_flagship_checkpointed`` into a fresh output directory."""

    n_jobs: int = 0

    def prepare(self) -> None:
        self.expected = {"rows": self._geocoded(),
                         "transform": self._sql(oracle.q_datum_transform(self.sf))}

    def job(self, catalog, tracer) -> Result:
        self.n_jobs += 1
        out = os.path.join(self.sf, f"sink-{self.n_jobs}")
        m = lineage.run_flagship_checkpointed(self.sf, out, catalog=catalog)
        return Result(out=m, path=out)

    def quick_check(self, res: Result) -> list[str]:
        m = res.out
        if m.get("rows_out") != self.expected["rows"] or m.get("n_shards_skipped") != 0:
            return [f"sink metrics {m} != {self.expected['rows']} fresh rows"]
        return []

    def full_check(self, res: Result, catalog) -> list[str]:
        written = pq.read_table(res.path, columns=TRANSFORM_COLS).to_pandas()
        problems = compare("geo_sink", written[written["region_index"] >= 0]
                           .reset_index(drop=True), self.expected["transform"])
        records = lineage_records(res.path)
        n_out = sum(r["n_rows_out"] for r in records)
        if n_out != len(written):
            problems.append(f"lineage n_rows_out {n_out} != {len(written)} written")
        again = lineage.run_flagship_checkpointed(self.sf, res.path, catalog=catalog)
        if again["n_shards_skipped"] != again["n_shards_total"]:
            problems.append(f"re-call ran shards: {again}")
        return problems


def lineage_records(out_dir: str) -> list[dict]:
    ldir = lineage.lineage_dir(out_dir)
    recs = []
    for name in sorted(os.listdir(ldir)):
        if name.endswith(".json") and not name.startswith("_"):
            with open(os.path.join(ldir, name)) as f:
                recs.append(json.load(f))
    return recs


class GeoText(Workload):
    """The text-carrying flagship; the driver iterates every batch."""

    def prepare(self) -> None:
        self.expected = {"text": self._sql(oracle.q_text_passthrough(self.sf))}

    def job(self, catalog, tracer) -> Result:
        ds = flagship.flagship_pipeline(self.sf, catalog=catalog)
        batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        return Result(out=batches, collect_rows=sum(b.num_rows for b in batches),
                      collect_bytes=sum(b.nbytes for b in batches))

    def quick_check(self, res: Result) -> list[str]:
        n = len(self.expected["text"])
        return [] if res.collect_rows == n else [f"{res.collect_rows} rows != {n}"]

    def full_check(self, res: Result, catalog) -> list[str]:
        got = pa.concat_tables(res.out).select(["url", "text", "lang"]).to_pandas()
        return compare("geo_text", got, self.expected["text"])


class GeoDense(Workload):
    """The fused flagship over the dense catalog, consumed by count()."""

    def prepare(self) -> None:
        self.expected = {"rows": self._geocoded(),
                         "transform": self._sql(oracle.q_datum_transform(self.sf))}

    def job(self, catalog, tracer) -> Result:
        n = flagship.flagship_fused(self.sf, catalog=catalog).count()
        return Result(out=n, collect_rows=1, collect_bytes=8)

    def quick_check(self, res: Result) -> list[str]:
        n = self.expected["rows"]
        return [] if res.out == n else [f"count {res.out} != {n}"]

    def full_check(self, res: Result, catalog) -> list[str]:
        got = queries.q_datum_transform(self.sf).to_pandas()
        return compare("geo_dense", got, self.expected["transform"])


class Exchange:
    """hot_tiles over the pages plus four TPC-H joins over the tables
    ``inputs.write_tpch`` put beside them; every result is collected."""

    def __init__(self, sf: str) -> None:
        self.sf = sf
        sqls = {name: relational.ORACLES.get(name) for name in EXCHANGE_QUERIES}
        sqls["hot_tiles"] = oracle.q_hot_tiles(sf)
        with duckdb.connect() as con:
            for t in TPCH_TABLES:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"read_parquet('{sf}/{t}.parquet')")
            self.expected = {name: con.execute(sql).df() for name, sql in sqls.items()}

    def run(self, tracer, prefix: str = "exchange.") -> dict:
        out = {}
        for name, fn in EXCHANGE_QUERIES.items():
            with tracer.span(prefix + name):
                out[name] = fn(self.sf)
        return out

    def check(self, out: dict) -> list[str]:
        return [f"{name}: {p}" for name, df in out.items()
                for p in compare(name, df, self.expected[name])]


WORKLOADS = {"geo_sink": GeoSink, "geo_text": GeoText, "geo_dense": GeoDense}
