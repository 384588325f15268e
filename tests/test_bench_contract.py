"""The benchmark tracer rebinds library names; a rename must fail here.

``bench/run.py --trace 1`` wraps private kernels by attribute name.  This runs
the tracer in a fresh process and checks that the kernel spans are recorded,
also beneath ``QSeries`` multiplication and inversion, so a renamed or
bypassed kernel shows up as a test failure rather than as a traced benchmark
that silently loses a layer.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from replicaq.qseries import QSeries, j_oracle
j_oracle(40)
f = QSeries(0, 1, [1, 2, 0, -3], 6)
f * QSeries(-1, 1, [1, 0, 5], 6)
f.invert()
names = {span[0]: span[1] for span in tracer.spans}
print(json.dumps(sorted({(name, names.get(parent, ""))
                         for _, name, _, _, parent, _, _ in tracer.spans})))
"""


def test_tracer_records_kernel_spans():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    nesting = {tuple(pair) for pair in json.loads(proc.stdout.strip().splitlines()[-1])}
    assert ("qseries.int_conv", "qseries.j_oracle") in nesting, nesting
    assert ("qseries.int_inverse", "qseries.j_oracle") in nesting, nesting
    assert ("qseries.int_conv", "qseries.mul") in nesting, nesting
    # QSeries.invert is itself an int_inverse span; the kernel runs inside it
    assert ("qseries.int_inverse", "qseries.int_inverse") in nesting, nesting
