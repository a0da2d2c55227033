"""Shared plumbing for the perfbench workloads.

One :class:`Run` per benchmark process. It owns the operation counters,
the end-to-end timing samples, the correctness checks and (in traced
mode) the span collector of :mod:`repro.obs`. Workload modules record
into it; :mod:`run` turns it into the run record and the final JSON line.

Timings are taken with ``time.perf_counter`` around calls into the
program's public entry points. Layer spans are opened only from this
directory's files (``Run.layer``), and only when tracing is on.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Repository root: the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parents[1]
#: Where run records and trace files go (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Transport timeout for every ServiceClient / ShardRouter the
#: benchmark opens. The slowest single request (a 50,000-point tree
#: download or a 20,000-point update) takes well under a second.
CLIENT_TIMEOUT_S = 20.0
#: How long a spawned server may take to print its listening line.
START_TIMEOUT_S = 60.0
#: Hard ceiling on one run's measured phase, whatever ``--seconds`` says,
#: so a run always ends inside the 180-second limit.
MAX_MEASURE_S = 120.0


class OperationFailed(RuntimeError):
    """An operation against the program failed; the run stops there."""


def import_program() -> None:
    """Put ``src/`` first on the path and import the package.

    Raises ``ModuleNotFoundError`` when the checkout holds no program,
    which ends the benchmark with a non-zero exit and no result line.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro  # noqa: F401  (the import is the check)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    """Median of a non-empty sample (``nan`` when empty)."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


class Run:
    """Counters, samples, checks and spans of one benchmark process."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        """Start the run's clock; switch ``repro.obs`` on when tracing."""
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup_seconds: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.peak_rss_mb: float | None = None
        self.notes: dict[str, object] = {}
        self.started = time.perf_counter()
        import repro.obs as obs

        self._obs = obs
        obs.reset()
        if self.trace:
            obs.enable()

    # -- operations ------------------------------------------------------

    def op(self, name: str, fn, *args, **kwargs):
        """Run one timed operation; a raised error counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        self.samples[name].append(time.perf_counter() - t0)
        return value

    def layer(self, name: str, **attrs):
        """A span named after a per-layer metric (no-op when untraced)."""
        return self._obs.span(name, **attrs)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check."""
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        """Every recorded check passed (and at least one ran)."""
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def measuring(self, t0: float) -> bool:
        """Whether the measured phase that began at ``t0`` goes on."""
        elapsed = time.perf_counter() - t0
        return elapsed < min(self.seconds, MAX_MEASURE_S)

    # -- spans -----------------------------------------------------------

    def clear_spans(self) -> None:
        """Drop spans recorded so far (set-up and warm-up work)."""
        self._obs.reset()
        if self.trace:
            self._obs.enable()

    def span_records(self):
        """Every finished span of this process (empty when untraced)."""
        return self._obs.current_records()

    def span_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [r.duration * 1e3 for r in self.span_records() if r.name == name]

    def write_trace(self, path: Path) -> Path:
        """Write the spans plus the metrics snapshot as JSON lines."""
        return self._obs.write_trace_jsonl(
            self.span_records(), path, metrics=self._obs.snapshot()
        )


# -- host and process facts ------------------------------------------------


def git_rev() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def host_block() -> dict:
    """CPU count and affinity, interpreter and numpy versions, git rev."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process (MB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids() -> list[int]:
    """Pids of this process's live children (all threads' children)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return sorted(set(pids))


def program_env() -> dict:
    """Environment for a child ``python -m repro`` of this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


class ServeProcess:
    """One ``python -m repro serve`` child on an ephemeral port.

    Always use as a context manager: the child is terminated (then
    killed) and waited for on exit, whatever happened inside.
    """

    def __init__(self, *extra_args: str):
        """Prepare ``python -m repro serve`` with ``extra_args``."""
        self.args = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *extra_args,
        ]
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def __enter__(self) -> "ServeProcess":
        """Start the child and wait until it listens."""
        self.process = subprocess.Popen(
            self.args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=program_env(),
            cwd=str(ROOT),
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start listening")
        return self

    def _drain(self) -> None:
        for line in self.process.stdout:
            if self.port is None and "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        """The child's process id."""
        return self.process.pid

    def stop(self) -> None:
        """Terminate the child and wait until it has ended."""
        proc = self.process
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        proc.stdout.close()

    def __exit__(self, *exc_info) -> None:
        """Stop the child."""
        self.stop()

