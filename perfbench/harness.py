"""Shared plumbing of the benchmark: statistics, host facts, memory, results.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history.jsonl")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

clock = time.perf_counter

# How many times set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 5
# How many imports of the workload module one run times (its own and the
# rest in fresh interpreters); each costs about 0.7 s on the reference host.
IMPORT_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of *values*."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def stratified_counts(n_items: int, prevalence: float, size: int) -> List[int]:
    """Positive counts for *size* cohorts, in proportion to Binomial(n, p).

    Largest-remainder rounding of the binomial probabilities, so every
    block of *size* cohorts carries the same mix of easy (no positives)
    and hard (several positives) screens whatever the seed.
    """
    from math import comb

    probs = [comb(n_items, k) * prevalence**k * (1 - prevalence) ** (n_items - k)
             for k in range(n_items + 1)]
    exact = [p * size for p in probs]
    counts = [int(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda k: exact[k] - counts[k], reverse=True)
    for k in order[: size - sum(counts)]:
        counts[k] += 1
    return [k for k, c in enumerate(counts) for _ in range(c)]


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, KiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live multiprocessing
    children (engine process-mode workers), in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return kb / 1024.0


# ----------------------------------------------------------------------
# host fingerprint and run history
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over ``src/`` (path + bytes), the version id without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": source_digest(),
    }


def append_history(record: dict) -> None:
    """Append one run to ``history.jsonl`` (compare same-host rows only)."""
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run hands back to :mod:`run`."""

    attempted: int = 0
    failed: int = 0
    checks_failed: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    valid: bool = True
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record one failed output check (counted as a failed operation)."""
        self.failed += 1
        if len(self.checks_failed) < 20:
            self.checks_failed.append(message)

    @property
    def correct(self) -> bool:
        return self.valid and not self.checks_failed


# Every subprocess the benchmark starts (servers, replay workers, import
# probes), so that :func:`stop_all` can end and reap them on any path out
# of a run.
_PROCS: List[subprocess.Popen] = []

_REPLAY_WORKER = (
    "import pickle, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "out, sys.stdout = sys.stdout.buffer, sys.stderr\n"
    "fn, chunk = pickle.load(sys.stdin.buffer)\n"
    "pickle.dump(fn(chunk), out)\n"
)


def start_process(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """``subprocess.Popen`` whose process :func:`stop_all` will reap."""
    proc = subprocess.Popen(list(argv), **kwargs)
    _PROCS.append(proc)
    return proc


def reap(proc: subprocess.Popen) -> None:
    """Kills *proc* if it still runs, waits for it and forgets it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc in _PROCS:
        _PROCS.remove(proc)


def stop_all() -> None:
    """Kills and waits for every process this run started and left alive:
    subprocesses from :func:`start_process` and multiprocessing children
    (engine process-mode workers of a Context an error left running)."""
    while _PROCS:
        reap(_PROCS[-1])
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def replay_in_workers(fn, chunks: List[object]) -> List[object]:
    """``[fn(chunk) for chunk in chunks]``, one fresh interpreter per chunk.

    Used for the untimed correctness replays only, after the timed part
    of a run has finished.  *fn* is pickled by reference, so it must be a
    module-level function of a benchmark module; each chunk runs in a
    plain ``python -c`` subprocess (no multiprocessing helper processes
    outlive it) and every worker is waited for before returning.
    """
    procs = [start_process([sys.executable, "-c", _REPLAY_WORKER, HERE, SRC],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
             for _ in chunks]
    try:
        for proc, chunk in zip(procs, chunks):
            proc.stdin.write(pickle.dumps((fn, chunk)))
            proc.stdin.close()
        results = []
        for proc in procs:
            out = proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0:
                raise RuntimeError(f"replay worker exited with code {proc.returncode}")
            results.append(pickle.loads(out))
        return results
    finally:
        for proc in procs:
            reap(proc)


_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[2:]\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


def median_import_s(module: str, own_s: float) -> float:
    """Median import time of a workload *module*: this process's own
    import (*own_s*) and IMPORT_REPEATS - 1 more in fresh interpreters."""
    samples = [own_s]
    for _ in range(IMPORT_REPEATS - 1):
        proc = start_process([sys.executable, "-c", _IMPORT_PROBE, module, HERE, SRC],
                             stdout=subprocess.PIPE, cwd=ROOT)
        try:
            out = proc.communicate(timeout=60)[0]
        finally:
            reap(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"import of {module} failed in a fresh interpreter")
        samples.append(float(out))
    return median(samples)


def split(items: Sequence[object], parts: int = 2) -> List[List[object]]:
    """*items* dealt round-robin into at most *parts* non-empty lists."""
    return [list(items[i::parts]) for i in range(min(parts, len(items)))]


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result object."""
    print(message, file=sys.stderr, flush=True)
