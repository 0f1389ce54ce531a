"""Start-up import weight: the package and its CLI run on NumPy alone.

scipy and networkx are optional (tests / the ``graphs`` extra).  Every
fresh ``repro`` process — the CLI, each spawned shard or http worker —
used to pay ~1 s importing them without using either.  These tests run
fresh interpreters so nothing the test session already imported can hide
a regression; ``repro lint``'s ``import-weight`` rule is the static twin.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy", "networkx", "matplotlib")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_TRACE", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=240)


def test_cli_import_loads_no_heavy_library():
    proc = run_fresh(
        "import sys\n"
        "import repro, repro.cli, repro.store, repro.store.coordinator\n"
        f"heavy = sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r})\n"
        "print(heavy)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_and_sweep_need_only_numpy(tmp_path):
    # a None entry in sys.modules makes any import of that name raise
    # ImportError, so this fails if any code path touches scipy/networkx
    proc = run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
        "import repro, repro.cli, repro.store, repro.store.coordinator\n"
        "code = repro.cli.main(['sweep', 'theorem1', '--scale', '0.1',\n"
        f"                      '--runs', '2', '--store', {str(tmp_path)!r}])\n"
        "sys.exit(code)\n")
    assert proc.returncode == 0, proc.stderr
    assert "misses=6" in proc.stdout


def test_cli_import_loads_no_process_pool_machinery():
    # the pool backend imports ProcessPoolExecutor only when a pool runs
    proc = run_fresh(
        "import sys\n"
        "import repro.cli\n"
        "pool = sorted(m for m in sys.modules\n"
        "              if m == 'concurrent.futures.process'\n"
        "              or m.split('.')[0] == 'multiprocessing')\n"
        "print(pool)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
