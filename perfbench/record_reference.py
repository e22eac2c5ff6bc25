#!/usr/bin/env python3
"""Record the per-seed reference rates that the correctness gate compares with.

    python3 perfbench/record_reference.py

Runs each simulate workload once per config seed of REFERENCE_SEEDS (at one
thread: outputs do not depend on the thread count) and writes
perfbench/reference.json.  Run it again only when a change is meant to
alter the simulated outputs, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

from run import RESULTS_DIR, load_package, run_rep
from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, point_record


def main() -> int:
    pkg = load_package()
    work_dir = os.path.join(RESULTS_DIR, f"record-{os.getpid()}")
    reference = {}
    try:
        for wl in WORKLOADS.values():
            if wl.subcommand != "simulate":
                continue
            one_thread = dataclasses.replace(wl, threads=1)
            seeds = sorted({wl.config_seed(s) for s in REFERENCE_SEEDS})
            entry = reference[wl.name] = {"trials": wl.trials, "seeds": {}}
            for seed in seeds:
                rep = run_rep(pkg, one_thread, seed, os.path.join(work_dir, "out"), False)
                entry["seeds"][str(seed)] = [point_record(r) for r in rep.summary["rows"]]
                print(wl.name, seed, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
