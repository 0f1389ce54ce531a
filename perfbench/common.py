"""Shared plumbing of the benchmark: paths, attribution, the kernel guard,
correctness accounting and the result line.

Every workload module imports this first; it puts the repository's ``src``
directory on ``sys.path`` so the program under test is the checkout's own
source tree, never an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from probe import KERNEL_DELAY_ENV, TRACE_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and launcher outputs; inside the
#: checkout (the benchmark reads and writes nothing outside it).
WORK = ROOT / ".perfbench_work"
#: Directory holding ``sitecustomize.py``; put on PYTHONPATH of traced runs
#: only, so fresh interpreters (sweep launchers, spawned workers) install
#: the same wrappers as the benchmark process.
SITE = HERE / "site"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class BenchError(RuntimeError):
    """A condition under which no result may be recorded (fail loudly)."""


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a fresh interpreter running the program under test.

    ``PYTHONPATH`` holds ``src`` — exactly what a user of the CLI sets —
    plus, in traced or kernel-delayed runs, the benchmark's ``site``
    directory.
    """
    env = dict(os.environ)
    paths = [str(SRC)]
    if env.get(TRACE_ENV) or env.get(KERNEL_DELAY_ENV):
        paths.insert(0, str(SITE))
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra or {})
    return env


# ---------------------------------------------------------------------- #
# attribution
# ---------------------------------------------------------------------- #
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/repro`` sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(kernel_id: str) -> Dict[str, object]:
    """Attribution for one result: code identity, kernel and machine."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "multinomial_kernel": kernel_id,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------- #
# the kernel guard
# ---------------------------------------------------------------------- #
def kernel_guard() -> str:
    """Load (or build) the multinomial kernel; refuse the NumPy fallback.

    A silent fallback to the NumPy reference sampler would cut count-space
    throughput ~15x and be recorded as merely slow, so it is an error.
    """
    from repro.engine import multinomial_backend_info
    from repro.engine.rng import multinomial_kernel_id

    info = multinomial_backend_info()
    if info.resolved == "numpy":
        raise BenchError(
            f"multinomial kernel resolved to the NumPy fallback ({info}); "
            f"the compiled kernel is required for a valid measurement")
    return multinomial_kernel_id()


def require_same_kernel(expected: str, seen: Iterable[str],
                        where: str) -> None:
    """Fail loudly when one side of a comparison drew with another kernel."""
    other = sorted(set(seen) - {expected})
    if other:
        raise BenchError(f"{where}: cells drawn with kernel(s) {other}, "
                         f"expected {expected!r}")


# ---------------------------------------------------------------------- #
# correctness accounting
# ---------------------------------------------------------------------- #
class Tally:
    """Operations (sweeps, cells, backend runs) and correctness checks
    attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, ok: bool, what: str) -> bool:
        """Count one operation or check; ``what`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def guarded(fn, *args):
    """``fn(*args)``, or the exception it raised: a failed operation is
    counted against the run, not fatal to it."""
    try:
        return fn(*args)
    except Exception as exc:   # noqa: BLE001 — every failure is reported
        return exc


# ---------------------------------------------------------------------- #
# measurement helpers
# ---------------------------------------------------------------------- #
def median(values: List[float]) -> float:
    return float(statistics.median(values))


#: Duration of one calibration sample at the reference speed (the median
#: on the 2-core Xeon VM the benchmark was built on).
CAL_NOMINAL_S = 0.0095
CAL_SAMPLES = 9


def calibrate() -> float:
    """Seconds one calibration sample takes now (median of CAL_SAMPLES).

    A sample is a fixed mix of interpreter work and NumPy sorting, the two
    kinds of work the program does.  On a shared machine the speed of a
    core drifts by tens of percent over seconds to minutes; timing this
    sample right before and after each unit of work tracks that drift.
    """
    import numpy as np

    values = np.random.default_rng(0).random(50_000)
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for j in range(60_000):
            acc += j * j
        data = values.copy()
        for _ in range(10):
            data.sort()
            data = data[::-1].copy()
        samples.append(time.perf_counter() - t0)
    return median(samples)


class Stopwatch:
    """Times units of work on wall clocks scaled to the reference speed.

    ``scaled = raw × CAL_NOMINAL_S / mean(calibration before, after)``: the
    seconds the unit would have taken at the reference speed.  Scaled times
    are the end-to-end metrics; raw ones are printed beside them.
    """

    def __init__(self) -> None:
        self._last = calibrate()

    def time(self, fn, context=None):
        """Run ``fn()`` (inside ``context``, if given); return (its result,
        raw seconds, scaled seconds)."""
        with context or contextlib.nullcontext():
            t0 = time.perf_counter()
            out = fn()
            raw = time.perf_counter() - t0
        cal = calibrate()
        scaled = raw * CAL_NOMINAL_S / ((self._last + cal) / 2)
        self._last = cal
        return out, raw, scaled


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area (removed first if present)."""
    path = WORK / f"{os.getpid()}" / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    """Remove this process's work area."""
    shutil.rmtree(WORK / f"{os.getpid()}", ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass   # other runs still hold work directories


def stop_children() -> None:
    """Stop and reap every process this one started and that may still run:
    multiprocessing children, and the resource tracker that spawn-context
    workers (the http backend's) start, which would otherwise outlive this
    process by a moment and be left unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def derive_seed(seed: int, index: int) -> int:
    """A per-item seed from the benchmark seed (deterministic, spread out)."""
    return (int(seed) * 1_000_003 + 7919 * (index + 1)) % (2 ** 31 - 1)


def result_line(tally: Tally, metrics: Dict[str, tuple]) -> str:
    """The last line of standard output: ``{correct, attempted, failed,
    metrics}``, each metric as ``{"value": v, "unit": u}``."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
