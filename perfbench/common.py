"""Shared pieces of the benchmark: process launch, statistics, machine context."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: Root of the checkout the benchmark measures (the directory holding ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Process start-ups per run that ``setup_s`` takes its median from.
SETUP_REPEATS = 3


def program_env() -> dict[str, str]:
    """The environment program processes run in: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(*args: str) -> list[str]:
    """The ``repro-mastodon`` console script, as ``python -m repro.cli``."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_command(out: Path, *args: str) -> list[str]:
    """The same CLI invocation, run in-process under the layer wrappers."""
    return [sys.executable, str(HERE / "traced.py"), "--out", str(out), "--", *args]


@dataclass
class Finished:
    """One program process that ran to exit."""

    returncode: int
    wall_s: float
    peak_rss_mib: float
    log: Path
    #: Wall-clock instants (``time.time()``) of the spawn and of the reap.
    spawned_at: float
    reaped_at: float

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def tail(self, n: int = 2000) -> str:
        return self.log.read_text(errors="replace")[-n:]


def run_program(argv: Sequence[str], log: Path, timeout_s: float = 170.0) -> Finished:
    """Run one program process to exit: wall time from spawn and peak RSS.

    The peak RSS is the child's own ``ru_maxrss`` from ``wait4``, so each
    process is measured on its own.  A process still running after
    ``timeout_s`` is killed and counts as failed.
    """
    with open(log, "wb") as sink:
        spawned_at = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=sink, stderr=subprocess.STDOUT, env=program_env(), cwd=ROOT
        )
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        reaped_at = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0, log, spawned_at, reaped_at)


def process_layers(layers: dict[str, float], process: Any) -> dict[str, float]:
    """Add a traced process's start-up and exit, measured across its spawn and reap.

    ``layers`` is what ``traced.py`` wrote; ``process`` is anything with
    the ``spawned_at`` and ``reaped_at`` wall-clock instants of that
    process.
    """
    started, ended = layers.pop("main_started_at"), layers.pop("main_ended_at")
    layers["cli.startup_s"] = started - process.spawned_at
    layers["cli.exit_s"] = process.reaped_at - ended
    return layers


def time_cli_startup(work: Path) -> tuple[list[float], list[Finished]]:
    """Spawn → exit of ``repro-mastodon experiments``, the start-up every invocation pays."""
    runs = [
        run_program(cli_command("experiments"), work / f"startup-{i}.log")
        for i in range(SETUP_REPEATS)
    ]
    return [r.wall_s for r in runs if r.ok], runs


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Metric:
    """One reported number with its unit and how many samples it summarises."""

    value: float
    unit: str
    samples: int = 1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: The end-to-end metrics every workload reports (``BENCHMARK.json``).
    e2e: dict[str, Metric] = field(default_factory=dict)
    #: Workload-specific end-to-end figures, printed beside the others.
    extra: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Attempted operations per kind of check, so a test can see each one ran.
    checks: dict[str, int] = field(default_factory=dict)

    def op(self, kind: str, ok: bool, what: str) -> bool:
        """Count one attempted operation of ``kind``; record why it failed."""
        self.attempted += 1
        self.checks[kind] = self.checks.get(kind, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# -- machine context ---------------------------------------------------------


def _cpu_times() -> tuple[float, float]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of ``/proc/stat``."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    values = [float(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0.0
    # guest time is already counted inside user/nice
    return steal, sum(values[:8])


def _revision() -> str:
    """The git commit of the checkout, or a digest of ``src/`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        out = None
    if out is not None and out.returncode == 0:
        toplevel, commit = out.stdout.split()
        if Path(toplevel).resolve() == ROOT:
            return commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


class MachineContext:
    """Revision, core count, versions, and steal time and load over the run."""

    def __init__(self) -> None:
        self.started_cpu = _cpu_times()
        self.started_load = os.getloadavg()

    def finish(self) -> dict[str, object]:
        steal, total = _cpu_times()
        d_steal = steal - self.started_cpu[0]
        d_total = total - self.started_cpu[1]
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = "missing"
        return {
            "revision": _revision(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "steal_frac": round(d_steal / d_total, 5) if d_total > 0 else 0.0,
            "load_avg_start": [round(v, 2) for v in self.started_load],
            "load_avg_end": [round(v, 2) for v in os.getloadavg()],
        }


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())
