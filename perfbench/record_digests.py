"""Record the output digests every benchmark run checks against.

Usage, from the repository root (about a minute)::

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: per workload, the digest of its
golden op (re-checked by every run, whatever the seed) and of a whole
run at ``DIGEST_SEED``/``DIGEST_SECONDS``. Re-record only when the
program's outputs change on purpose (with a ``CODE_VERSION_SALT`` bump).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import (
        DIGEST_SECONDS,
        DIGEST_SEED,
        DIGESTS_PATH,
        WORKLOADS,
        SweepWorkload,
        digest,
        serve_deployments,
        serve_pass,
        serve_payload,
        sweep_digest,
    )
    from repro.api import run_plan

    digests = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, SweepWorkload):
            plans = workload.make_plans(DIGEST_SEED, DIGEST_SECONDS)
            run = sweep_digest([run_plan(plan).series for plan in plans])
        else:
            run = digest([
                serve_payload(serve_pass(d.service, d), d.service)
                for d in serve_deployments(DIGEST_SEED, DIGEST_SECONDS)
            ])
        digests[name] = {"golden": workload.golden(), "run": run}
        print(name, digests[name], flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
