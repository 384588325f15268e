"""replicaq benchmark: run a workload in fresh processes, check, report.

    python3 bench/run.py --workload classify|expand|replicate|all
                         [--seed N] [--seconds S] [--trace 0|1]

A run starts with one check pass: a fresh process runs the workload's seeded
jobs and checks every output against an independent route or a known answer
(and feeds perturbed outputs to the same checks, which must count them as
failures).  Then timed passes, each in a fresh process, run the same jobs until
S seconds have gone by; a job fails if it raises or if its output digest
differs from the checked one.  With --trace 1 one more pass runs traced and
the per-layer metrics are reported instead of the end-to-end ones.

Every metric is printed as "name value unit"; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
job's output is correct, 1 when one is not, 2 when the run cannot start.
Reports and spans are written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = tuple(BUILDERS)
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # kept out of tuning; later changes confirm their claims on it
MIN_PASSES = 3
PASS_TIMEOUT_S = 60


class PassError(RuntimeError):
    pass


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_pass(workload: str, seed: int, check: bool = False, trace: str | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload,
           "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace:
        cmd += ["--trace", trace]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "rate")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Check pass, timed passes, and with ``trace`` a traced pass; returns the summary."""
    start = time.monotonic()
    checked = run_pass(workload, seed, check=True)
    reference = {j["id"]: j["digest"] for j in checked["jobs"]}
    failures = [f"check pass: {j['id']}: {j['error']}" for j in checked["jobs"] if j["error"]]
    attempted = len(checked["jobs"])

    def tally(p: dict) -> None:
        nonlocal attempted
        attempted += len(reference)
        seen = {j["id"]: j for j in p["jobs"]}
        for job_id, want in reference.items():
            job = seen.get(job_id)
            if job is None or job["error"] or job["digest"] != want:
                failures.append(f"{job_id}: {job['error'] if job else 'missing'}"
                                f" (digest {job['digest'] if job else None})")

    timed = []
    while len(timed) < MIN_PASSES or time.monotonic() - start < seconds:
        try:
            p = run_pass(workload, seed)
        except PassError as exc:
            attempted += len(reference)
            failures.extend(f"{job_id}: {exc}" for job_id in reference)
            break
        tally(p)
        timed.append(p)

    walls = [p["wall_s"] for p in timed]
    metrics = {}
    if timed:
        metrics = {"wall_s": statistics.mean(walls),
                   "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in timed) / 1024,
                   "setup_s": statistics.median(p["setup_s"] for p in timed)}
    traced = None
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        try:
            traced = run_pass(workload, seed, trace=str(spans))
            tally(traced)
        except PassError as exc:
            attempted += len(reference)
            failures.extend(f"{job_id}: traced {exc}" for job_id in reference)
    controls = checked["negative_control"]
    control_failed = sum(c["counted_as_failure"] for c in controls)
    summary = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_revision(), "passes": len(timed), "pass_wall_s": walls,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "error_rate": len(failures) / attempted,
        "negative_control": {"cases": controls, "attempted": len(controls),
                             "failed": control_failed,
                             "error_rate": control_failed / len(controls)},
        "outputs_digest": hashlib.sha256(
            "".join(j["digest"] for j in checked["jobs"]).encode()).hexdigest(),
        "jobs": checked["jobs"],
        "pass_jobs_s": [{j["id"]: j["seconds"] for j in p["jobs"]} for p in timed],
        "pass_setup_s": [p["setup_s"] for p in timed],
        "metrics": metrics,
    }
    if traced is not None:
        layer = dict(traced["trace"])
        layer["bench.traced_wall_s"] = traced["wall_s"]
        layer["bench.trace_overhead_s"] = traced["wall_s"] - statistics.median(walls or [0.0])
        layer["error_rate"] = summary["error_rate"]
        summary["metrics"] = layer
    summary["correct"] = not failures and control_failed == len(controls) and bool(timed)
    return summary


def print_summary(s: dict, prefix: str = "") -> None:
    print(f"# workload={s['workload']} seed={s['seed']} held_out_seed={s['held_out_seed']} "
          f"python={s['python']} nproc={s['nproc']} git_rev={s['git_rev']}")
    walls = sorted(s["pass_wall_s"])
    if len(walls) >= 2:
        q1, median, q3 = statistics.quantiles(walls, n=4)
        print(f"# {s['passes']} timed passes: mean {statistics.mean(walls):.4f} s (wall_s), "
              f"fastest {walls[0]:.4f}, quartiles {q1:.4f} / {median:.4f} / {q3:.4f}, "
              f"slowest {walls[-1]:.4f} s")
    print(f"# outputs_digest={s['outputs_digest']}")
    compared = sum(j.get("compared", 0) for j in s["jobs"])
    print(f"# check pass: {len(s['jobs'])} jobs, {compared} entries compared")
    nc = s["negative_control"]
    print(f"# negative control: {nc['failed']} of {nc['attempted']} perturbed outputs "
          f"counted as failures (error_rate {nc['error_rate']:.4g})")
    for line in s["failures"]:
        print(f"# FAILED {line}")
    print(f"# {s['failed']} failed / {s['attempted']} attempted")
    if "error_rate" not in s["metrics"]:
        print(f"{prefix}error_rate {s['error_rate']:.6g} ratio")
    for name, value in s["metrics"].items():
        print(f"{prefix}{name} {value:.6g} {unit_of(name)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "replicaq" / "__init__.py").is_file():
        print(f"no replicaq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    OUT.mkdir(exist_ok=True)
    for name in names:
        prefix = f"{name}." if len(names) > 1 else ""
        try:
            s = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except PassError as exc:
            print(f"{name}: check pass failed: {exc}", file=sys.stderr)
            s = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
                json.dump(s, fh, indent=1)
            print_summary(s, prefix)
        result["correct"] = result["correct"] and s["correct"]
        result["attempted"] += s["attempted"]
        result["failed"] += s["failed"]
        result["metrics"].update({f"{prefix}{k}": {"value": v, "unit": unit_of(k)}
                                  for k, v in s["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
