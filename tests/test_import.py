"""``import replicaq`` loads the seven library modules and nothing of the CLI.

The benchmark's ``setup_s`` covers interpreter start, compiling ``replicaq``
and building the jobs, so every module the package pulls in at import time
adds to every workload.  This pins the import graph in a fresh interpreter,
started without ``site`` so that nothing is preloaded: the library modules
load, and the CLI, the check registry and the stdlib modules only they use
do not.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LIBRARY = {"replicaq", *(f"replicaq.{name}" for name in (
    "qseries", "frames", "faber", "grunsky", "replicable", "hecke", "functions"))}
NOT_AT_IMPORT = {"replicaq.cli", "replicaq.checks", "argparse", "json", "random"}

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import replicaq
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_the_library_modules_only():
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {m for m in loaded if m.split(".")[0] == "replicaq"} == LIBRARY
    assert not loaded & NOT_AT_IMPORT, loaded & NOT_AT_IMPORT
