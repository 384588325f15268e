"""``import replicaq`` loads the seven library modules and nothing of the CLI.

The benchmark's ``setup_s`` covers interpreter start, compiling ``replicaq``
and building the jobs, so every module the package pulls in at import time
adds to every workload.  This pins the import graph in a fresh interpreter,
started without ``site`` so that nothing is preloaded: the library modules
load, and the CLI, the check registry and the stdlib modules only they use
do not.  ``import replicaq.cli`` does not load the check registry either:
only ``verify`` runs it, so ``coeffs`` and ``classify24`` do not compile
it.  Neither import loads ``dataclasses``, which would pull in
``inspect``, ``ast``, ``dis`` and ``tokenize``: the records are
``NamedTuple``s and ``GrunskyTable`` is a plain class.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LIBRARY = {"replicaq", *(f"replicaq.{name}" for name in (
    "qseries", "frames", "faber", "grunsky", "replicable", "hecke", "functions"))}
NOT_AT_IMPORT = {"replicaq.cli", "replicaq.checks", "argparse", "json", "random"}
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import {module}
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def loaded_by(module: str) -> set:
    """The modules a fresh interpreter loads for ``import module``."""
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT.format(module=module), str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_the_library_modules_only():
    loaded = loaded_by("replicaq")
    assert {m for m in loaded if m.split(".")[0] == "replicaq"} == LIBRARY
    assert not loaded & NOT_AT_IMPORT, loaded & NOT_AT_IMPORT


def test_cli_import_leaves_the_check_registry_out():
    loaded = loaded_by("replicaq.cli")
    assert "replicaq.cli" in loaded and LIBRARY <= loaded
    assert "replicaq.checks" not in loaded


@pytest.mark.parametrize("module", ["replicaq", "replicaq.cli"])
def test_import_leaves_dataclasses_and_its_imports_out(module):
    loaded = loaded_by(module)
    assert not loaded & INTROSPECTION, loaded & INTROSPECTION
