"""Job entrypoint for ``ray job submit`` (north_rule): resumable
flagship run with per-partition lineage + metrics.

    ray job submit -- python scripts/run_job.py \
        --sf-dir /root/testdata/sf0.1 --out /tmp/flagship_out

Re-submitting after a failure resumes: completed shards are pruned at
the read via their lineage records.
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
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        pythonpath = os.pathsep.join(
            filter(None, [REPO_ROOT, os.environ.get("PYTHONPATH")]))
        ray.init(address="local", include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from vyperdatum_ray.state.lineage import run_flagship_checkpointed

    metrics = run_flagship_checkpointed(args.sf_dir, args.out)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
