"""Run any registered ``queries()`` entry from the CLI and write its
result as parquet — the generic per-operator job entrypoint
(``run_job.py`` owns the resumable flagship, ``run_corpus_job.py`` the
two-phase corpus run).

    ray job submit -- python scripts/run_query.py \
        --name tpch_q1 --sf-dir /root/testdata/sf0.1 --out /tmp/q1_out

A Dataset result streams straight to a partitioned parquet directory
(never materialized on the driver); a DataFrame/Table result (the
driver-sized aggregates) lands as one file. ``--list`` prints the
registry. Prints one JSON line: {"name", "rows", "out"}. A non-empty
``--out`` is refused (exit code 2) rather than appended to.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--name")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    ap.add_argument("--out")
    ap.add_argument("--list", action="store_true",
                    help="print registered query names and exit")
    args = ap.parse_args()
    if (not args.list and args.out and os.path.isdir(args.out)
            and os.listdir(args.out)):
        # a Dataset result appends part files: a stale directory would
        # mix old rows into the result and its reported row count
        print(f"--out {args.out!r} is not empty; pass an empty or new "
              "directory", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    registry = entrymod.queries()
    if args.list:
        for name in registry:
            print(name)
        ray.shutdown()
        return 0
    if not args.name or args.name not in registry:
        print(f"unknown query {args.name!r}; use --list", file=sys.stderr)
        ray.shutdown()
        return 2
    if not args.out:
        print("--out is required", file=sys.stderr)
        ray.shutdown()
        return 2

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    res = registry[args.name](args.sf_dir)
    if isinstance(res, ray.data.Dataset):
        # stream to a partitioned directory — no driver materialize
        res.write_parquet(args.out)
        rows = sum(
            pq.ParquetFile(os.path.join(args.out, f)).metadata.num_rows
            for f in os.listdir(args.out) if f.endswith(".parquet"))
    else:
        if isinstance(res, pd.DataFrame):
            table = pa.Table.from_pandas(res, preserve_index=False)
        else:
            table = res
        os.makedirs(args.out, exist_ok=True)
        pq.write_table(table, os.path.join(args.out, "result.parquet"))
        rows = table.num_rows
    print(json.dumps({"name": args.name, "rows": rows, "out": args.out}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
