"""The benchmark tracer rebinds library names; a rename must fail here.

``bench/run.py --trace 1`` wraps private kernels by attribute name.  This runs
the tracer in a fresh process and checks that the kernel spans are recorded,
also beneath ``QSeries`` multiplication and inversion and beneath eta products,
so a renamed or bypassed kernel shows up as a test failure rather than as a
traced benchmark that silently loses a layer.  It also pins what must not run
beneath a span: no dense series inverse beneath ``j_oracle``, and no Faber
polynomial or series product beneath the Faber route to the Grunsky table,
and the Grunsky calculator's memo that the tracer counts.  Last, a checked
pass of each workload must run every job without an error and count every
negative control as a failure, also when the tracer is installed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from replicaq.qseries import QSeries, j_oracle
from replicaq.frames import eta_product, parse_frame_shape
from replicaq.grunsky import grunsky_by_recursion, grunsky_from_faber
j_oracle(40)
grunsky_from_faber(j_oracle(13), 12)
J = j_oracle(13)
tracer.run_job("g", lambda: grunsky_by_recursion([J.coeff(k) for k in range(1, 13)], 12))
f = QSeries(0, 1, [1, 2, 0, -3], 6)
f * QSeries(-1, 1, [1, 0, 5], 6)
f.invert()
eta_product(parse_frame_shape("1^24"), 100)
parents = {span[0]: (span[1], span[4]) for span in tracer.spans}

def chain(i):
    names = []
    while i is not None:
        name, i = parents[i]
        names.append(name)
    return names

print(json.dumps({"chains": sorted({tuple(chain(span[0])) for span in tracer.spans}),
                  "computed": tracer.counts["grunsky.h.computed"]}))
"""


def test_tracer_records_kernel_spans():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    chains = [tuple(c) for c in out["chains"]]
    nesting = {(c[0], c[1] if len(c) > 1 else "") for c in chains}
    assert ("qseries.int_conv", "qseries.j_oracle") in nesting, nesting
    # J takes q/Delta from Miller's recurrence on phi: no dense series inverse
    assert ("qseries.int_inverse", "qseries.j_oracle") not in nesting, nesting
    assert ("qseries.int_conv", "qseries.mul") in nesting, nesting
    # QSeries.invert is itself an int_inverse span; the kernel runs inside it
    assert ("qseries.int_inverse", "qseries.int_inverse") in nesting, nesting
    # eta products multiply in the kernel, so classify's time lands in its span
    assert ("qseries.int_conv", "frames.product_coeffs", "frames.eta_product") in chains, chains
    # the Faber route reads the Faber rows: no polynomial, no series product
    assert ("grunsky.from_faber",) in chains, chains
    beneath = {c[0] for c in chains if "grunsky.from_faber" in c[1:]}
    assert not beneath & {"faber.recursion", "qseries.mul"}, beneath
    # the tracer registers GrunskyCalculator.__init__(calc, a), wraps ``table``
    # and counts len(calc._memo): one memo entry per entry of the grade-12 table
    assert ("grunsky.table", "bench.job") in chains, chains
    assert out["computed"] == 36, out["computed"]


def checked_pass(workload, *options):
    """The report of one checked benchmark pass, after asserting that every
    job runs and matches its reference, and that every negative control is
    counted as a failure."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "passrun.py"), "--workload", workload,
         "--seed", "1", "--t0", "0", "--check", *options],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = {job["id"]: job["error"] for job in report["jobs"] if job["error"] is not None}
    assert report["jobs"] and not errors, errors
    controls = report["negative_control"]
    assert len(controls) == 3 and all(c["counted_as_failure"] for c in controls), controls
    return report


@pytest.mark.parametrize("workload", ["classify", "expand", "replicate"])
def test_checked_pass_has_no_failures(workload):
    checked_pass(workload)


@pytest.mark.parametrize("workload", ["classify", "expand", "replicate"])
def test_traced_pass_has_no_failures(workload, tmp_path):
    """The tracer rebinds library functions by name: a traced pass must still
    run every job, and on expand the Hecke layers must record time."""
    spans = tmp_path / "spans.json"
    trace = checked_pass(workload, "--trace", str(spans))["trace"]
    assert json.loads(spans.read_text())
    if workload == "expand":
        assert trace["hecke.mahler_compute.self_s"] > 0, trace
        assert trace["hecke.Tn.self_s"] > 0, trace
