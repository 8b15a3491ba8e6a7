"""Dump the flagship family's outputs from this tree, or compare two dumps.

    python scripts/flagship_frames.py dump --sf-dir <sf_dir> --out <dir>
    python scripts/flagship_frames.py compare <dir_a> <dir_b>

``dump`` starts a local 4-CPU Ray session and writes one parquet file per
output into ``--out``: ``flagship_fused`` under each parameter set of
``PARAMS``, ``flagship_pipeline``, every ``shard=*/part-0.parquet`` of the
checkpointed sink (``run_flagship_checkpointed``) and its lineage files
(``sink_records``: every shard record, the catalog manifest and the
metrics line, less the run's timings ``elapsed_s`` and ``ts``), the raster path
(``raster_transform`` with and without the outside-coverage fallback,
``q_raster_sep``, ``q_zonal_stats``, ``q_raster_valid_counts``), the
registry queries of ``QUERY_KEYS`` (the flagship family's row-level
filters and its per-shard aggregates), ``AGGREGATE_KEYS`` (the
aggregates merged on the driver by ``exchange.fold``, and the events
windows) and ``KEYED_KEYS`` (the ``@keyed`` reduces on
``exchange.aggregate`` and ``exchange.exchange``) and the points API (``transform_points`` exact and sampled, on
``points()``). The raster and query outputs are sorted by their key
columns (``RASTER_KEYS``, ``QUERY_KEYS``, ``AGGREGATE_KEYS``,
``KEYED_KEYS``); the
points keep their input order. It imports the
engine of the tree the script sits in, so a dump from a checkout of
another commit (``git archive``, not a worktree) gives that commit's
outputs. ``compare`` checks that both dumps hold the same files and that
each pair is frame-identical (same columns, types and exact values,
in the same row order); it prints one line per file and exits non-zero on
any difference. It compares values, not bytes: the same values may be
written with other parquet encodings.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

# the driver imports this tree's engine through sys.path, Ray's workers
# through PYTHONPATH
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# flagship_fused parameter sets: the defaults, other datum pairs, a
# depth input, the output-frame correction with emitted x/y, the page
# text carried through and a synthesized z.
PARAMS = {
    "default": {},
    "navd88": dict(from_datum="navd88", to_datum="mllw"),
    "itrf_out_xy": dict(z_col="z_in", out_frame="ITRF2014", emit_xy=True, synth_z=True),
    "depth_to_mhw": dict(from_datum="mllw", to_datum="mhw", in_is_height=False,
                         z_col="z_in", synth_z=True),
    "emit_xy": dict(emit_xy=True),
    "carry_text": dict(carry_text=True),
    "synth_z": dict(z_col="z_in", synth_z=True),
}

# the raster outputs' key columns: their row order is not defined
RASTER_KEYS = {
    "raster_outside": ["row", "col"],
    "raster_inside": ["row", "col"],
    "raster_sep": ["row", "col"],
    "zonal_stats": ["region_index"],
    "raster_valid_counts": ["region"],
}

# registry queries on the flagship's shard task and their key columns
QUERY_KEYS = {
    "region_join": ["url"],
    "datum_transform": ["url"],
    "datum_transform_itrf": ["url"],
    "datum_transform_inv": ["url"],
    "datum_transform_navd88": ["url"],
    "datum_transform_mhw": ["url"],
    "transform_projected": ["url"],
    "transform_stateplane_md": ["url"],
    "transform_stateplane_nj": ["url"],
    "external_region_transform": ["url"],
    "csv_roundtrip": ["region_index"],
    "tile_counts": ["tile_id"],
    "hot_tiles": ["tile_id"],
    "region_counts": ["region"],
    "transform_summary": ["region"],
    "gridded_points": ["row", "col"],
    "region_median": ["region_index"],
}

# the aggregates merged by exchange.fold (and the two events windows on
# exchange.exchange) and their key columns; a global row has none
AGGREGATE_KEYS = {
    "tpch_q1": ["l_returnflag", "l_linestatus"],
    "orders_customer_join": ["c_mktsegment"],
    "tpch_q6": [],
    "tpch_q14": [],
    "tpch_q22": ["c_mktsegment"],
    "tpch_q15": ["s_suppkey"],
    "tpch_q11": ["p_partkey"],
    "bloom_semi_join": [],
    "extent": [],
    "sampled_transform": ["url"],
    "raster_tile_manifest": ["tile_id"],
    "token_percentiles": ["pct"],
    "lang_token_stats": ["lang_pred"],
    "approx_distinct_hosts": [],
    "jsonl_roundtrip": ["lang"],
    "lang_source_pivot": ["source"],
    "lang_source_rollup": ["lang", "source"],
    "lang_source_cube": ["lang", "source"],
    "source_corr": ["source"],
    "embedding_centroid": ["label", "dim"],
    "events_window": ["user_id", "hour", "event_type"],
    "events_sliding": ["window_start", "event_type"],
}

# the keyed reduces whose keys grow with the input (``@keyed`` less
# bloom_semi_join, already above) and their key columns
KEYED_KEYS = {
    "distinct_hosts": [],
    "top_hosts": ["host"],
    "top_hosts_sketch": ["host"],
    "unigram_logprob": ["doc_id"],
    "token_freq": ["token"],
    "tfidf_terms": ["doc_id", "rank"],
    "bigram_logprob": ["doc_id"],
    "domain_quality": ["host"],
    "spatial_order": ["rank"],
    "seq_pack": ["doc_id"],
    "top_orders_per_segment": ["c_mktsegment", "rank"],
    "supplier_list_agg": ["s_nationkey"],
    "tpch_q4": ["o_orderpriority"],
    "dedup_clusters_embedding": ["vec_id"],
    "neardup_clusters_text": ["doc_id"],
}


def points(catalog):
    """A fixed point set for the points API: 20,000 seeded uniform
    points with a z over the union of the catalog's grid extents,
    widened by 0.1 deg so some fall outside every grid, then three
    NaN-coordinate points."""
    import numpy as np

    xs, ys = [], []
    for g in catalog.grids.values():
        xs += [g.origin_x, g.origin_x + g.values.shape[1] * g.dx]
        ys += [g.origin_y, g.origin_y + g.values.shape[0] * g.dy]
    rng = np.random.default_rng(20_000)
    x = rng.uniform(min(xs) - 0.1, max(xs) + 0.1, 20_000)
    y = rng.uniform(min(ys) - 0.1, max(ys) + 0.1, 20_000)
    z = rng.uniform(-5.0, 5.0, 20_000)
    nan = [np.nan, 0.0, np.nan]
    return (np.concatenate([x, nan]), np.concatenate([y, nan[::-1]]),
            np.concatenate([z, [1.0, 2.0, 3.0]]))


def sink_records(sink: str):
    """The sink's lineage files under ``sink/_lineage`` as one table, a
    row per JSON object (a ``.jsonl`` file holds one a line) in file
    name order, each object as sorted-key JSON without ``elapsed_s`` and
    ``ts``, which differ from run to run."""
    import pyarrow as pa

    ldir = os.path.join(sink, "_lineage")
    files, records = [], []
    for name in sorted(os.listdir(ldir)):
        with open(os.path.join(ldir, name)) as f:
            objs = ([json.loads(line) for line in f] if name.endswith(".jsonl")
                    else [json.load(f)])
        for obj in objs:
            files.append(name)
            records.append(json.dumps({k: v for k, v in obj.items()
                                       if k not in ("elapsed_s", "ts")}, sort_keys=True))
    return pa.table({"file": files, "record": records})


def dump(sf_dir: str, out: str) -> None:
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    import __ray_entry__
    from vyperdatum_ray.fixtures import ensure_fixtures
    from vyperdatum_ray.pipelines import raster
    from vyperdatum_ray.pipelines.flagship import (flagship_fused, flagship_pipeline,
                                                   load_catalog)
    from vyperdatum_ray.points import transform_points
    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    ensure_fixtures(sf_dir)
    os.makedirs(out, exist_ok=True)
    # Ray puts the driver's working directory on its workers' sys.path
    # ahead of PYTHONPATH: started from another checkout, the tasks
    # would run that checkout's engine.
    os.chdir(ROOT)
    pythonpath = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    try:
        outputs = {f"fused_{name}": flagship_fused(sf_dir, **kw) for name, kw in PARAMS.items()}
        outputs["pipeline"] = flagship_pipeline(sf_dir)
        for name, ds in outputs.items():
            pq.write_table(pa.concat_tables(ray.get(ds.to_arrow_refs())),
                           os.path.join(out, f"{name}.parquet"))
        sink = tempfile.mkdtemp(prefix="flagship_frames_")
        try:
            run_flagship_checkpointed(sf_dir, sink)
            for part in sorted(glob.glob(os.path.join(sink, "shard=*", "part-0.parquet"))):
                shard = os.path.basename(os.path.dirname(part))
                shutil.copy(part, os.path.join(out, f"sink_{shard}.parquet"))
            pq.write_table(sink_records(sink), os.path.join(out, "sink_records.parquet"))
        finally:
            shutil.rmtree(sink, ignore_errors=True)
        frames = {
            "raster_outside": raster.raster_transform(sf_dir, allow_outside=True),
            "raster_inside": raster.raster_transform(sf_dir, allow_outside=False),
            "raster_sep": raster.q_raster_sep(sf_dir),
            "zonal_stats": raster.q_zonal_stats(sf_dir),
            "raster_valid_counts": raster.q_raster_valid_counts(sf_dir),
        }
        queries = __ray_entry__.queries()
        keys = {**RASTER_KEYS, **QUERY_KEYS, **AGGREGATE_KEYS, **KEYED_KEYS}
        frames.update((name, queries[name](sf_dir))
                      for name in {**QUERY_KEYS, **AGGREGATE_KEYS, **KEYED_KEYS})
        for name, ds in frames.items():
            df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
            df = df.sort_values(keys[name], kind="stable").reset_index(drop=True)
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                           os.path.join(out, f"{name}.parquet"))
        catalog = load_catalog(sf_dir)
        x, y, z = points(catalog)
        for name, d in (("points_exact", None), ("points_sampled", 0.01)):
            cols = transform_points(catalog, x, y, z, sample_distance=d)
            pq.write_table(pa.table(dict(zip(["x", "y", "z", "unc", "region_index"], cols))),
                           os.path.join(out, f"{name}.parquet"))
    finally:
        ray.shutdown()


def compare(a: str, b: str) -> int:
    import pandas as pd
    import pyarrow.parquet as pq

    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    failures = 0 if names_a else 1
    if names_a != names_b:
        print(f"DIFF file sets: {sorted(set(names_a) ^ set(names_b))}")
        failures += 1
    for name in sorted(set(names_a) & set(names_b)):
        # each file is opened by itself: a list of files would
        # hive-infer the sink's shard=<id> names as a column
        ta = pq.ParquetFile(os.path.join(a, name)).read()
        tb = pq.ParquetFile(os.path.join(b, name)).read()
        try:
            assert ta.schema.equals(tb.schema), "schemas differ"
            pd.testing.assert_frame_equal(ta.to_pandas(), tb.to_pandas(), check_exact=True)
            print(f"ok   {name} ({ta.num_rows} rows)")
        except AssertionError as e:
            print(f"DIFF {name}: {str(e).splitlines()[0] if str(e) else 'differs'}")
            failures += 1
    print(f"{failures} failures")
    return failures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--sf-dir", required=True)
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "dump":
        dump(os.path.abspath(args.sf_dir), os.path.abspath(args.out))
    else:
        sys.exit(1 if compare(args.a, args.b) else 0)


if __name__ == "__main__":
    main()
