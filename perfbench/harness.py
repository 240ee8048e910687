"""Measurement helpers shared by the workloads: percentiles, answer
fingerprints, memory, set-up timing and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: the percentiles a timing may be reported at, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` (tolerant of float rounding)."""
    return max(1, math.ceil(p * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        return 0.0
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile above the median with at least ``TAIL_SAMPLES``
    samples beyond it in a sample of ``count``, or None."""
    best = None
    for p in PERCENTILES[1:]:
        if count - _rank(p, count) >= TAIL_SAMPLES:
            best = p
    return best


def describe(values: Sequence[float], unit: str = "ms") -> str:
    """Median, the supported tail percentile and the sample count."""
    tail = tail_percentile(len(values))
    text = "p50 %.3f %s" % (percentile(values, 50), unit)
    if tail is not None:
        text += ", p%g %.3f %s" % (tail, percentile(values, tail), unit)
    return text + " (n=%d)" % len(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def block_rates(ends: Sequence[float], started: float, size: int) -> List[float]:
    """Operations per second of each consecutive block of ``size``
    completions; a partial last block is left out.

    The median of block rates is steadier than one total over the phase
    when the host's speed drifts for a few seconds at a time.
    """
    ordered = sorted(ends)
    rates = []
    previous = started
    for index in range(size - 1, len(ordered), size):
        rates.append(size / (ordered[index] - previous))
        previous = ordered[index]
    return rates


def fingerprint(rows) -> int:
    """Order-sensitive digest of a result: equal rows give equal digests."""
    return hash(tuple(frozenset(row.items()) for row in rows))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of this process, or of ``pid`` (Linux /proc)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup(workload: str, trace: bool) -> Dict:
    """Time one set-up of ``workload`` in a fresh interpreter.

    The clock runs from just before the process starts to its "ready" line,
    so interpreter start, imports, data generation and statistics count.
    """
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload, "1" if trace else "0"]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=program_env())
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        rest = child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=120)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError("set-up probe for %s failed (exit %d)" % (workload, code))
    return {"setup_s": elapsed, "spans": json.loads(rest) if rest.strip() else []}


class Outcome:
    """What one run attempted and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def result_line(outcome: Outcome, metrics: Dict[str, tuple]) -> str:
    """The final JSON line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
