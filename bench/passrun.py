"""One pass of a workload in a fresh process: set up, run the jobs, report.

Started by run.py as
    python3 bench/passrun.py --workload W --seed N --t0 T [--check] [--trace FILE]
where T is the CLOCK_MONOTONIC reading taken just before the process was
started, so that set-up time includes interpreter start and ``import replicaq``.
Prints one JSON line: timings, peak RSS, and each job's output digest; with
--check also each job's verdict against its reference and the negative
control; with --trace also the per-layer metrics (the spans go to FILE).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    import replicaq  # noqa: F401  (set-up includes the import)
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        jobs = tracer.run_job("setup", lambda: workloads.build(args.workload, args.seed))
    else:
        jobs = workloads.build(args.workload, args.seed)
    t_setup = time.monotonic()

    outputs, errors, seconds = [], [], []
    for job in jobs:
        t_job = time.monotonic()
        try:
            outputs.append(tracer.run_job(job.id, job.run) if tracer else job.run())
            errors.append(None)
        except Exception:  # a failing job is counted, and the pass goes on
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        seconds.append(time.monotonic() - t_job)
    t_end = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    records = []
    for job, output, error, t in zip(jobs, outputs, errors, seconds):
        output = workloads.plain(output)
        records.append({"id": job.id, "kind": job.kind, "params": job.params, "seconds": t,
                        "digest": workloads.digest(output), "error": error,
                        "output_bytes": len(output["stdout"].encode())
                        if isinstance(output, dict) and "stdout" in output else 0,
                        "output": output})
    report = {"setup_s": t_setup - args.t0, "wall_s": t_end - args.t0,
              "peak_rss_kb": peak_rss_kb, "jobs": records}

    if args.check:
        from reference import Mismatch, References
        refs = References()
        for job, rec in zip(jobs, records):
            if rec["error"] is not None:
                continue
            try:
                rec["compared"] = job.check(rec["output"], refs)
            except (Mismatch, KeyError, ValueError, TypeError) as exc:
                rec["error"] = f"check failed: {exc}"
        report["negative_control"] = [
            {"case": what, "counted_as_failure": failed}
            for what, failed in workloads.negative_control(
                jobs, [r["output"] for r in records], refs, args.seed)]
    for rec in records:
        del rec["output"]

    if tracer:
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
        report["trace"] = metrics
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace, "w") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
