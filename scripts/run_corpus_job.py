"""Job entrypoint for the resumable corpus-curation run:

    ray job submit -- python scripts/run_corpus_job.py \
        --sf-dir /root/testdata/sf0.1 --out /tmp/corpus_out

Re-submitting after a failure resumes: completed curate shards and
dedup buckets are skipped via their lineage records
(state/corpus_lineage.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The engine imports from this checkout, whatever the working directory:
# the driver through sys.path, Ray's workers through PYTHONPATH.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    ap.add_argument("--out", required=True)
    ap.add_argument("--n-shards", type=int, default=8)
    ap.add_argument("--n-buckets", type=int, default=64)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        pythonpath = os.pathsep.join(
            filter(None, [REPO_ROOT, os.environ.get("PYTHONPATH")]))
        ray.init(address="local", include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from vyperdatum_ray.state.corpus_lineage import run_corpus_checkpointed

    metrics = run_corpus_checkpointed(
        args.sf_dir, args.out, n_shards=args.n_shards, n_buckets=args.n_buckets)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
