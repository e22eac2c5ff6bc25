#!/usr/bin/env python3
"""Benchmark of the icalign experiment harness.

    python3 perfbench/run.py --workload mc-tiny-sweep --seed 1 --seconds 25 --trace 0

Drives `cli_harness.parse_config` + `run_experiment` on one workload of
workloads.py, repeating the call for about --seconds, and checks every
output.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json (medians over the repetitions); with --trace 1 it spends
half the time untraced and half with every layer wrapped, and reports the
per-layer metrics.  The last line of stdout is one JSON object; a report
with every figure, digest and check goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
IMPORT_SAMPLES = 9  # fresh-interpreter imports timed per run, after one warm-up
ACCOUNTING_TOL = 0.02  # the run_experiment span must match the outside timer within this share

from cvp_probe import run_probe  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, check_points, load_reference, work_items  # noqa: E402


def load_package():
    """Import icalign from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "icalign", "__init__.py")):
        sys.exit(f"error: no icalign sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import icalign
    from icalign import cli_harness, det_channel, gaussian_sim, lattice_geometry, zp_codes  # noqa: F401

    if not os.path.abspath(icalign.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: icalign was imported from {icalign.__file__}, not {SRC}")
    return icalign


def import_seconds() -> float:
    """Median time to import the harness in a fresh interpreter, numpy excluded.

    numpy is imported before the clock starts: its import takes several
    times longer than icalign's own and no change to icalign moves it.
    """
    code = ("import time, numpy; t = time.perf_counter(); import icalign.cli_harness; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples[1:])


@dataclass
class Rep:
    """One run_experiment call: its timings, outputs and (if traced) spans."""

    wall: float
    codebook_s: float  # time inside the harness's find_shift calls
    codebooks: list
    digests: dict
    output_bytes: int
    summary: dict
    trace: dict | None


def run_rep(pkg, wl, seed: int, out_dir: str, traced: bool) -> Rep:
    ch = pkg.cli_harness
    spec = ch.parse_config(wl.config_text(seed, out_dir))
    run = ch.run_experiment
    builds = []
    find_shift = ch.find_shift
    if traced:
        tracer = Tracer(pkg).install()
        run = tracer.wrap(ROOT_SPAN, run)
    else:
        def timed_find_shift(*args, **kwargs):
            t0 = time.perf_counter()
            result = find_shift(*args, **kwargs)
            builds.append((time.perf_counter() - t0, result[1]))
            return result

        ch.find_shift = timed_find_shift
    try:
        t0 = time.perf_counter()
        _, written = run(spec, threads=wl.threads)
        wall = time.perf_counter() - t0
    finally:
        if traced:
            tracer.uninstall()
        else:
            ch.find_shift = find_shift
    digests, total_bytes = {}, 0
    for path in written:
        with open(path, "rb") as fh:
            data = fh.read()
        digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        total_bytes += len(data)
    summary_path = next(p for p in written if p.endswith(f"_{wl.subcommand}.json"))
    with open(summary_path) as fh:
        summary = json.load(fh)
    shutil.rmtree(out_dir)
    return Rep(wall, sum(b[0] for b in builds), [b[1] for b in builds], digests,
               total_bytes, summary, tracer.report() if traced else None)


@dataclass
class Measurement:
    """Reps of one workload and seed, with every correctness check counted."""

    pkg: object
    wl: object
    seed: int
    work_dir: str
    reference: dict = field(default_factory=load_reference)
    grid_size: int = 0
    reps_run: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict | None = None

    def __post_init__(self):
        ch = self.pkg.cli_harness
        self.grid_size = len(ch.grid_points(ch.parse_config(self.wl.config_text(self.seed, "."))))

    def repeat(self, traced: bool, budget: float) -> list[Rep]:
        """Run reps while the next should end within `budget` seconds (at least one)."""
        reps: list[Rep] = []
        start = time.perf_counter()
        while not reps or (time.perf_counter() - start
                           + statistics.median(r.wall for r in reps) <= budget):
            tag = f"rep {self.reps_run}"
            self.reps_run += 1
            self.attempted += self.grid_size
            try:
                rep = run_rep(self.pkg, self.wl, self.seed,
                              os.path.join(self.work_dir, f"rep{self.reps_run}"), traced)
            except Exception as exc:  # the program failed: count it and stop measuring
                self.failed += self.grid_size
                self.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
                break
            bad = check_points(self.wl, self.seed, rep.summary, self.reference)
            if self.digests is None:
                self.digests = rep.digests
            elif rep.digests != self.digests:
                bad = [f"output digests differ from the first rep: {rep.digests}"] * self.grid_size
            self.failed += len(bad)
            self.failures.extend(f"{tag}: {b}" for b in bad[:3])
            reps.append(rep)
        return reps


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, import_s, peak_rss_mib) -> dict:
    codebook_s = _median([r.codebook_s for r in reps])
    return {
        "wall_s": _median([r.wall for r in reps]),
        "setup_s": codebook_s if import_s is None else import_s,
        "work_per_s": _median([work_items(r.summary) / (r.wall - r.codebook_s) for r in reps]),
        "peak_rss_mib": peak_rss_mib,
    }


def output_counts(summary) -> dict:
    """Exact counts read from the output JSON (simulate workloads; zero for det)."""
    out = dict.fromkeys(("alignment_checks", "alignment_violations", "intf_errors",
                         "msg_errors", "msg_errors_intf_ok"), 0)
    trials = summary["trials"]
    for rep in summary.get("reports", []):
        out["alignment_checks"] += rep["alignment_checks"]
        out["alignment_violations"] += rep["alignment_violations"]
        out["intf_errors"] += sum(round(r * trials) for r in rep["intf_error_rate"])
        out["msg_errors"] += sum(round(r * trials) for r in rep["msg_error_rate"])
        out["msg_errors_intf_ok"] += sum(rep["msg_errors_intf_ok"])
    return {f"gaussian_sim.{k}": v for k, v in out.items()}


def layer_metrics(rep: Rep) -> dict:
    tr = rep.trace
    spans, counters = tr["spans"], tr["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    nlp = "lattice_geometry.nearest_lattice_point"
    idx = "lattice_geometry.Codebook.index_of"
    det = "det_channel.det_capacity_check"
    m = {}
    for name in (nlp, "gaussian_sim.rng_setup", "zp_codes.is_lattice_point",
                 "gaussian_sim.channel_output", "gaussian_sim.decode_interference_sum",
                 "lattice_geometry.nearest_codeword", "gaussian_sim.lattice_only_decode", idx,
                 "lattice_geometry.find_shift", "lattice_geometry.build_codebook",
                 "zp_codes.enumerate_codewords", det):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("gaussian_sim.run_monte_carlo", "zp_codes.design_lattice", ROOT_SPAN):
        m[f"{name}.self_s"] = self_s(name)
    m[f"{nlp}.us_per_call"] = 1e6 * ratio(self_s(nlp), calls(nlp))
    m[f"{nlp}.coset_evals"] = int(counters.get(f"{nlp}.coset_evals", 0))
    m[f"{idx}.hit_frac"] = ratio(counters.get(f"{idx}.hits", 0), calls(idx))
    m["lattice_geometry.find_shift.accept_frac"] = ratio(
        calls("lattice_geometry.find_shift"), calls("lattice_geometry.build_codebook"))
    m["lattice_geometry.build_codebook.points"] = int(
        counters.get("lattice_geometry.build_codebook.points", 0))
    m[f"{det}.ns_per_tuple"] = 1e9 * ratio(self_s(det), counters.get(f"{det}.tuples", 0))
    m["cli_harness.output_bytes"] = rep.output_bytes
    # pool queue wait: each grid point's Monte Carlo start minus the end of codebook setup
    m["cli_harness.point_wait_s"] = sum(s - tr["setup_end"] for s in tr["mc_starts"])
    m.update(output_counts(rep.summary))
    return m


def accounting(rep: Rep) -> float:
    """The run_experiment span's duration over the outside-timed wall (1.0 when whole).

    Span self times add up to the root spans' durations by construction, so
    that sum checks nothing; this compares the tracer's root span with the
    timer around the call instead.
    """
    root = rep.trace["spans"].get(ROOT_SPAN, {}).get("total_s", 0.0)
    return root / rep.wall


def per_layer(traced: list[Rep], untraced_wall: float) -> tuple[dict, list, list]:
    """Per-layer metrics (medians over traced reps), self-time shares, tracer problems."""
    per_rep = [layer_metrics(r) for r in traced]
    layers = {k: statistics.median_low(m[k] for m in per_rep) for k in per_rep[0]}
    layers["trace.overhead_frac"] = (
        _median([r.wall for r in traced]) / untraced_wall - 1.0 if untraced_wall else 0.0)
    problems = [f"run_experiment span covers {f:.4f} of the timed wall"
                for f in map(accounting, traced) if abs(f - 1.0) > ACCOUNTING_TOL]
    last = traced[-1]
    problems += [f"site not found: {s}" for s in last.trace["missing_sites"]]
    thread_time = last.wall + last.trace["worker_root_s"]
    shares = sorted(((v["self_s"] / thread_time, k) for k, v in last.trace["spans"].items()),
                    reverse=True)
    return layers, shares, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    pkg = load_package()
    wl = WORKLOADS[args.workload]
    meas = Measurement(pkg, wl, args.seed, os.path.join(RESULTS_DIR, f"work-{os.getpid()}"))
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        reps = meas.repeat(False, budget)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = meas.repeat(True, budget) if args.trace else []
    finally:
        shutil.rmtree(meas.work_dir, ignore_errors=True)
    # set-up is codebook construction; det-grid builds none, so its set-up is icalign's import
    import_s = import_seconds() if wl.subcommand == "det" else None

    # every codebook lattice, at the stage-2 scale 1 and each stage-1 scale a
    lattices = {id(cb.lattice): cb.lattice for r in reps[:1] for cb in r.codebooks}
    scales = [1.0] + [math.sqrt(row["a2"]) for r in reps[:1] if wl.subcommand == "simulate"
                      for row in r.summary["rows"]]
    probe = run_probe(pkg.lattice_geometry.nearest_lattice_point,
                      pkg.zp_codes.enumerate_codewords, lattices.values(), scales, args.seed)

    e2e = end_to_end(reps, import_s, peak_rss_mib)
    layers, shares, problems = per_layer(traced, e2e["wall_s"]) if traced else ({}, [], [])
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layers if args.trace else e2e
    if args.trace and not traced:  # every traced rep failed; the result says so
        values = {m["name"]: 0 for m in spec}
    if set(values) != {m["name"] for m in spec}:
        sys.exit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    attempted = meas.attempted + probe["queries"]
    failed = meas.failed + probe["mismatches"]
    failed_frac = meas.failed / max(meas.attempted, 1)
    work_name = "det_tuples_per_s" if wl.subcommand == "det" else "trials_per_s"
    report = {
        "workload": wl.name, "seed": args.seed, "config_seed": wl.config_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace, "threads": wl.threads,
        "metrics": metrics, work_name: e2e["work_per_s"], "failed_frac": failed_frac,
        "import_s": import_s,
        "rep_wall_s": [r.wall for r in reps], "traced_rep_wall_s": [r.wall for r in traced],
        "output_sha256": meas.digests, "cvp_probe": probe,
        "layer_self_share": shares, "spans": traced[-1].trace["spans"] if traced else {},
        "failures": meas.failures[:20], "problems": problems,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    report_path = os.path.join(RESULTS_DIR, f"{wl.name}_seed{args.seed}_trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name}  seed {args.seed}  reps {len(reps)} + {len(traced)} traced"
          f"  threads {wl.threads}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  {work_name} = {e2e['work_per_s']:.6g} 1/s")
    print(f"  failed_frac = {failed_frac:.6g} ({meas.failed} of {meas.attempted} grid points)")
    print(f"  cvp_probe: {probe['mismatches']} mismatches in {probe['queries']} queries"
          f" ({probe['tied']} with tied minimizers)")
    if shares:
        print(f"  largest self time: {shares[0][1]} ({shares[0][0]:.1%} of traced thread time)")
    for name, digest in sorted((meas.digests or {}).items()):
        print(f"  sha256 {digest}  {name}")
    for msg in meas.failures[:5] + probe["examples"] + problems:
        print(f"  FAIL {msg}")
    print(f"  report: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
