#!/usr/bin/env python3
"""coendforge benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/` only.  Set-up (importing the package and generating the
seeded inputs) is repeated SETUP_REPS times.  Then the workload's fixed job
list is run again and again, one pass at a time, for about S seconds; each
job's output is checked after it returns.  Every timed call (a set-up or a
job) is rescaled to a reference speed, read from a fixed unit of work run
around and inside the call (speed.py), because the host's speed drifts by
up to 2x.  setup_s is the median rescaled set-up time, a job's time is
its median over the passes, and wall_s is the sum of those medians.  With
--trace 1, untraced and traced passes alternate and the per-layer metrics
come from the traced ones (see spans.py).  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_UNITS, SpanRecorder  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "coendforge"
SETUP_REPS = 9

END_TO_END_UNITS = {"wall_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio", "setup_s": "s"}

PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_ratio": "ratio"}


def fresh_import(src: Path) -> SimpleNamespace:
    """Import the package from `src`, dropping any earlier import first so
    every set-up repetition pays the import again.  Returns the submodules
    the jobs call into (the package itself rebinds some of their names)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != src / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(
        specs=src.parent / "specs",
        **{m: importlib.import_module(f"{PACKAGE}.{m}")
           for m in ("cli", "cohom", "exactlinalg", "reconstruct")})


def run_pass(jobs, outcomes, recorder=None):
    """Run every job once.  Returns (per-job own seconds, per-job seconds at
    the reference speed, per-job problems, per-job refused flag); a traced
    pass reads the speed only between jobs (speed.py).  `outcomes` keeps the
    first digest of each job so later passes must reproduce it byte for
    byte."""
    raws, times, problems, refused = [], [], [], []
    gc.collect()
    meter = Speedometer(inside=recorder is None)
    for index, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = index
        out, raw, at_ref = meter.time(job.call)
        raws.append(raw)
        times.append(at_ref)
        if isinstance(out, Exception):
            problems.append([f"raised {type(out).__name__}: {out}"])
            refused.append(False)
            continue
        found = []
        is_refusal = getattr(out, "refusal", None) is not None
        if not (is_refusal and job.may_refuse):
            found.extend(job.check(out))
        digest = job.digest(out)
        if outcomes.setdefault(job.name, digest) != digest:
            found.append("output differs from the first pass")
        problems.append(found)
        refused.append(is_refusal and not found)
    return raws, times, problems, refused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    build_jobs, top_job = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def set_up():
        pkg = fresh_import(src)
        return pkg, build_jobs(pkg, random.Random(f"{args.workload}/{args.seed}"), workdir)

    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            out, _, at_ref = Speedometer().time(set_up)
            if isinstance(out, Exception):
                raise out
            pkg, jobs = out
            setup_times.append(at_ref)
        top = [j.name for j in jobs].index(top_job)
        recorder = SpanRecorder(PACKAGE) if args.trace else None
        summary = measure(jobs, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = summary["attempted"]
    failed = summary["failed"]
    per_job = [median(times) for times in zip(*summary["job_times"])]
    if recorder is None:
        metrics = {
            "wall_s": sum(per_job),
            "largest_job_s": per_job[top],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed - summary["refused"]) / attempted,
            "setup_s": median(setup_times),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {name: median([t.get(name, 0.0) for t in summary["layer_totals"]])
                   for name in LAYER_UNITS}
        metrics["trace.overhead_ratio"] = (median(summary["traced_walls"])
                                           / median(summary["walls"]))
        units = PER_LAYER_UNITS
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")

    report_jobs(jobs, summary)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def measure(jobs, seconds, recorder):
    """Passes until `seconds` would be exceeded (at least one; with a
    recorder, at least one untraced and one traced pass, alternating)."""
    outcomes: dict[str, str] = {}
    s = {"walls": [], "traced_walls": [], "job_times": [], "raw_times": [],
         "layer_totals": [],
         "attempted": 0, "failed": 0, "refused": 0, "problems": {}}
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if recorder else (False,)):
            if traced:
                recorder.spans.clear()  # keep one traced pass in memory
                recorder.install()
            try:
                raws, times, problems, refused = run_pass(
                    jobs, outcomes, recorder if traced else None)
            finally:
                if traced:
                    recorder.uninstall()
            if traced:
                s["traced_walls"].append(sum(times))
                s["layer_totals"].append(recorder.totals())
            else:
                s["walls"].append(sum(times))
                s["job_times"].append(times)
                s["raw_times"].append(raws)
            s["attempted"] += len(jobs)
            s["failed"] += sum(1 for p in problems if p)
            s["refused"] += sum(refused)
            for job, found in zip(jobs, problems):
                if found:
                    s["problems"].setdefault(job.name, found)
        elapsed = time.perf_counter() - start
        rounds = len(s["walls"])
        if elapsed + elapsed / rounds > seconds:
            return s


def report_jobs(jobs, s) -> None:
    """Per-job median times, raw and at the reference speed, and any
    problems, before the JSON line."""
    print("#  median ms  raw median ms  job")
    for job, times, raws in zip(jobs, zip(*s["job_times"]), zip(*s["raw_times"])):
        print(f"# {median(times) * 1000:10.1f} {median(raws) * 1000:14.1f}  {job.name}")
    for name, found in s["problems"].items():
        print(f"# FAILED {name}: {'; '.join(found)}")
    print(f"# passes: {len(s['walls'])} untraced, {len(s['traced_walls'])} traced")


if __name__ == "__main__":
    sys.exit(main())
