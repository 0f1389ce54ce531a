"""Per-layer metrics from the traced run's spans.

A span's self time is its duration minus the time its child spans (same
process, same thread) cover.  Layer times below are self times summed over
every process of the run, so nested layers are not counted twice: the
kernel's time is not also ``engine.run_batch`` time, and the server side
of an HTTP store read is ``store.get`` time, not ``coordinator.handle``.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from common import SRC, child_env
from probe import PHASE_SPAN

#: Span name → per-layer metric holding its summed self time (seconds).
SELF_TIME = {
    "experiments.run_cell": "experiments.run_cell_s",
    "analysis.fits": "analysis.fits_s",
    "experiments.report": "experiments.report_s",
    "store.get": "store.get_s",
    "store.remote_get": "store.get_s",
    "store.put": "store.put_s",
    "store.partition": "store.partition_s",
    "backend.execute": "backend.execute_s",
    "lease.acquire": "lease.acquire_s",
    "lease.release": "lease.release_s",
    "coordinator.request": "coordinator.request_s",
    "coordinator.handle": "coordinator.handle_s",
    "engine.run_batch": "engine.run_batch_s",
    "occupancy.profiles": "occupancy.profiles_s",
    "occupancy.transition": "occupancy.transition_s",
    "kernel.sample": "kernel.sample_s",
    "adversary.corrupt_counts": "adversary.corrupt_counts_s",
    "adversary.propose": "adversary.propose_s",
    "core.apply": "core.apply_s",
    "core.sample_contacts": "core.sample_contacts_s",
}
#: Span name → metric counting its calls (a call nested in a call of the
#: same name, such as an override calling ``super()``, is not counted).
#: ``store.get_calls`` counts reads of a local store; an HTTP read shows
#: there once, on the coordinator's side.
CALLS = {
    "experiments.run_cell": "experiments.run_cell_count",
    "store.get": "store.get_calls",
    "store.put": "store.put_calls",
    "lease.acquire": "lease.acquire_calls",
    "coordinator.request": "coordinator.request_count",
    "adversary.corrupt_counts": "adversary.corrupt_counts_calls",
}
#: Span name → metric prefix of its duration percentiles.
PERCENTILES = {
    "experiments.run_cell": "experiments.run_cell",
    "coordinator.request": "coordinator.request",
}
#: Stage values of the traced pass, reported beside the layers.
STAGES = ("cold_total_s", "warm_total_s", "count_rounds_per_s",
          "adversary_rounds_per_s", "value_rounds_per_s", "serial_cold_s",
          "pool_cold_s", "shard_cold_s", "http_cold_s")
#: Top-level packages whose import time is reported on its own.
IMPORT_GROUPS = ("scipy", "networkx", "numpy")
IMPORT_SAMPLES = 3

#: Metric-name suffix → unit (first match wins).
UNITS = (("_per_s", "run-rounds/s"), ("_s", "s"), ("_calls", "count"),
         ("_count", "count"), (".calls", "count"), (".rows", "count"),
         (".retries", "count"), ("_ratio", "ratio"), ("_frac", "ratio"),
         ("_written", "bytes"))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class Span:
    __slots__ = ("name", "start", "end", "id", "parent", "phase", "self_s",
                 "pid", "role", "ancestors")

    def __init__(self, row, pid: int, role: str) -> None:
        (self.name, self.start, self.end, self.id, self.parent,
         self.phase) = row
        self.pid, self.role = pid, role
        self.self_s = self.end - self.start
        self.ancestors: frozenset = frozenset()

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(trace_dir: Path) -> Tuple[List[Span], Dict[Tuple[str, str], float],
                                   int]:
    """All spans (self times and ancestor names filled in), counters by
    (phase, name), and the benchmark process's pid."""
    by_pid: Dict[int, dict] = defaultdict(lambda: {"rows": [], "role": ""})
    counters: Dict[Tuple[str, str], float] = defaultdict(float)
    root = -1
    for path in sorted(trace_dir.glob("trace-*.json")):
        payload = json.loads(path.read_text())
        entry = by_pid[payload["pid"]]
        entry["rows"].extend(payload["spans"])
        entry["role"] = payload["role"]
        if payload["role"] == "root":
            root = payload["pid"]
        for key, value in payload["counters"].items():
            phase, name = key.split("|", 1)
            counters[(phase, name)] += value
    spans: List[Span] = []
    for pid, entry in by_pid.items():
        own = {row[3]: Span(row, pid, entry["role"]) for row in entry["rows"]}
        for span in sorted(own.values(), key=lambda s: s.id):
            parent = own.get(span.parent)
            if parent is not None:   # parents open (and get ids) first
                parent.self_s -= span.duration
                span.ancestors = parent.ancestors | {parent.name}
        spans.extend(own.values())
    return spans, counters, root


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _clip(spans: List[Span], windows: List[Tuple[float, float]]
          ) -> List[Tuple[float, float]]:
    out = []
    for span in spans:
        for lo, hi in windows:
            a, b = max(span.start, lo), min(span.end, hi)
            if b > a:
                out.append((a, b))
    return out


def import_profile() -> Dict[str, float]:
    """``python -X importtime -c "import repro.cli"`` in fresh interpreters:
    total import time and the share of the heavy top-level packages."""
    samples: Dict[str, List[float]] = defaultdict(list)
    env = child_env()
    env["PYTHONPATH"] = str(SRC)
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        per_package: Dict[str, float] = defaultdict(float)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+)\s*\|\s*\d+\s*\|\s*(\S.*)",
                             line)
            if match:
                top = match.group(2).strip().split(".")[0]
                per_package[top] += int(match.group(1)) / 1e6
        samples["cli.import_s"].append(sum(per_package.values()))
        for group in IMPORT_GROUPS:
            samples[f"cli.import_{group}_s"].append(per_package[group])
        samples["cli.import_repro_self_s"].append(per_package["repro"])
    return {name: statistics.median(values)
            for name, values in samples.items()}


def analyse(trace_dir: Path, stages: Dict[str, float], traced_wall: float,
            untraced_wall: float, workers: int) -> Tuple[Dict[str, float],
                                                         Dict[str, list]]:
    """Per-layer metrics of one workload, and each phase's layer ranking."""
    spans, counters, root = load(trace_dir)
    phases = [s for s in spans if s.name == PHASE_SPAN and s.pid == root]
    windows = [(s.start, s.end) for s in phases]
    # the benchmark's own checks read stores between phases: keep only
    # spans that start inside a timed phase
    spans = [s for s in spans if s.name != PHASE_SPAN
             and any(lo <= s.start <= hi for lo, hi in windows)]
    metrics: Dict[str, float] = {name: 0.0 for name in SELF_TIME.values()}
    metrics.update({name: 0.0 for name in CALLS.values()})
    layers_by_phase: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        layers_by_phase[span.phase][span.name] += span.self_s
        if span.name in SELF_TIME:
            metrics[SELF_TIME[span.name]] += span.self_s
        if span.name in CALLS and span.name not in span.ancestors:
            metrics[CALLS[span.name]] += 1
        if span.name in PERCENTILES:
            durations[span.name].append(span.duration)
    for name, prefix in PERCENTILES.items():
        values = sorted(durations[name])
        metrics[f"{prefix}_p50_s"] = _quantile(values, 0.5)
        metrics[f"{prefix}_p90_s"] = _quantile(values, 0.9)

    def total(name: str) -> float:
        return sum(v for (_, n), v in counters.items() if n == name)

    metrics["store.bytes_written"] = total("store.bytes_written")
    hits, misses = total("cache.hits"), total("cache.misses")
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    acquires = metrics["lease.acquire_calls"]
    metrics["lease.won_ratio"] = total("lease.won") / acquires if acquires \
        else 0.0
    requests = metrics["coordinator.request_count"]
    metrics["coordinator.retries"] = max(
        0.0, total("coordinator.attempts") - requests)
    metrics["coordinator.wire_s"] = (
        sum(s.duration for s in spans if s.name == "coordinator.request")
        - sum(s.duration for s in spans if s.name == "coordinator.handle"))
    metrics["kernel.calls"] = total("kernel.calls")
    metrics["kernel.rows"] = total("kernel.rows")
    metrics.update(_fleet(spans, root, workers))

    timed = sum(hi - lo for lo, hi in windows)
    driving = [s for s in spans if s.parent == -1
               and (s.pid == root or s.role == "launcher")]
    covered = _union(_clip(driving, windows))
    metrics["unattributed_frac"] = 1.0 - covered / timed if timed else 0.0
    metrics["obs.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for name in STAGES:
        metrics[name] = stages.get(name, 0.0)
    ranking = {phase: sorted(layers.items(), key=lambda kv: -kv[1])
               for phase, layers in layers_by_phase.items()}
    return metrics, ranking


def _fleet(spans: List[Span], root: int, workers: int) -> Dict[str, float]:
    """Worker idle time and start-up delay around each backend execution."""
    idle = 0.0
    starts: List[float] = []
    for execute in (s for s in spans
                    if s.name == "backend.execute" and s.pid == root):
        inside = [s for s in spans
                  if s.start >= execute.start and s.end <= execute.end
                  and s.name in ("experiments.run_cell", "engine.run_batch")
                  and "experiments.run_cell" not in s.ancestors]
        fleet_size = 1 if execute.phase == "serial" else workers
        idle += fleet_size * execute.duration - sum(s.duration
                                                    for s in inside)
        first: Dict[int, float] = {}
        for s in spans:
            if (s.name == "lease.acquire" and s.pid != root
                    and execute.start <= s.start <= execute.end):
                first[s.pid] = min(first.get(s.pid, s.start), s.start)
        starts.extend(t - execute.start for t in first.values())
    return {"fleet.idle_s": idle,
            "fleet.worker_start_s": statistics.fmean(starts) if starts
            else 0.0}


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]
