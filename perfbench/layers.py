"""Per-layer figures derived from recorded spans and bus events.

Every ``*_ms`` figure is a mean per *unit* (a screen stage, a surveil
round or an HTTP operation, depending on the workload) unless its name
ends in a percentile, which is taken over single calls.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from harness import median
from spans import Span, SpanRecorder, covered_length, union_length

# Layer entry points wrapped by every in-process traced run.  Each row:
# (module path, owner attribute or "", attribute, span name, layer).
ENGINE_ENTRY = ("repro.engine.scheduler", "Scheduler", "run_job", "engine.run_job", "engine")
SBGT_ENTRIES = [
    ("repro.sbgt.session", "SBGTSession", "select_pools", "sbgt.select", "sbgt"),
    ("repro.sbgt.session", "SBGTSession", "update", "sbgt.update", "sbgt"),
    ("repro.sbgt.session", "SBGTSession", "classify", "sbgt.classify", "sbgt"),
    ("repro.sbgt.distributed_lattice", "DistributedLattice", "update",
     "sbgt.lattice.update", "sbgt"),
    ("repro.sbgt.distributed_lattice", "DistributedLattice", "down_set_masses",
     "sbgt.lattice.down_set", "sbgt"),
    ("repro.sbgt.distributed_lattice", "DistributedLattice", "marginals",
     "sbgt.lattice.marginals", "sbgt"),
    ("repro.sbgt.distributed_lattice", "DistributedLattice", "rebalance",
     "sbgt.lattice.rebalance", "sbgt"),
]
LAYERS = ("engine", "sbgt", "halving", "workflows", "surveil", "serve")


def install(rec: SpanRecorder, entries) -> None:
    import importlib

    for module, owner, attr, name, layer in entries:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        rec.wrap(target, attr, name, layer)


class Windows:
    """Sorted, non-overlapping ``[start, end]`` intervals (the units)."""

    def __init__(self, spans: Sequence[Span]) -> None:
        pairs = sorted((s.start, s.end) for s in spans)
        self.starts = [a for a, _ in pairs]
        self.ends = [b for _, b in pairs]

    def __len__(self) -> int:
        return len(self.starts)

    def contains(self, t: float) -> bool:
        i = bisect.bisect_right(self.starts, t) - 1
        return i >= 0 and t <= self.ends[i]

    @property
    def total(self) -> float:
        return sum(b - a for a, b in zip(self.starts, self.ends))


def span_figures(rec: SpanRecorder, windows: Windows, names: Sequence[str],
                 units: int) -> Dict[str, float]:
    """``<name>_ms`` (mean per unit) and ``<name>_calls`` for each span name."""
    out: Dict[str, float] = {}
    for name in names:
        spans = [s for s in rec.named(name) if windows.contains(s.start)]
        out[f"{name}_ms"] = 1e3 * sum(s.dur for s in spans) / units
        out[f"{name}_calls"] = float(len(spans))
    return out


def self_figures(rec: SpanRecorder, units: int, tasks=(),
                 task_layer: str = "sbgt") -> Dict[str, float]:
    """``<layer>.self_ms`` per unit.

    Task bodies run inside ``engine.run_job`` spans; where no span covers
    them (the lattice kernels are closures shipped as tasks) their time
    is moved from the engine's self time to *task_layer*, the layer whose
    code they run.
    """
    totals = rec.self_times()
    moved = uncovered_task_time(rec, tasks)
    totals["engine"] = totals.get("engine", 0.0) - moved
    totals[task_layer] = totals.get(task_layer, 0.0) + moved
    return {f"{layer}.self_ms": 1e3 * totals.get(layer, 0.0) / units for layer in LAYERS}


def uncovered_task_time(rec: SpanRecorder, tasks) -> float:
    """Seconds of job wall inside task bodies but outside the job's child spans."""
    jobs = sorted(rec.named("engine.run_job"), key=lambda s: s.start)
    if not jobs or not tasks:
        return 0.0
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in rec.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    bodies: Dict[int, List[Tuple[float, float]]] = {}
    starts = [j.start for j in jobs]
    for t, wall, _, start in tasks:
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and t <= jobs[i].end:
            bodies.setdefault(i, []).append((start, start + wall))
    moved = 0.0
    for i, intervals in bodies.items():
        job = jobs[i]
        spans = children.get(job.id, [])
        moved += (union_length(intervals + spans, job.start, job.end)
                  - union_length(spans, job.start, job.end))
    return moved


def coverage(rec: SpanRecorder, unit_spans: List[Span], names: Sequence[str]) -> Tuple[float, float]:
    """(covered seconds, unit seconds): unit wall covered by the named spans."""
    wanted = set(names)
    by_parent: Dict[int, List[Span]] = {}
    for s in rec.spans:
        if s.name in wanted and s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    covered = sum(covered_length(by_parent.get(u.id, []), u.start, u.end) for u in unit_spans)
    return covered, sum(u.dur for u in unit_spans)


def engine_figures(rec: SpanRecorder, tasks: List[Tuple[float, float, int]],
                   windows: Windows, units: int, parallelism: int) -> Dict[str, float]:
    """Scheduler jobs and task bodies inside the unit windows.

    Tasks are attributed to the job whose wall contains their ``TaskEnd``
    (jobs run one at a time from the driver thread).
    """
    jobs = sorted((s for s in rec.named("engine.run_job") if windows.contains(s.start)),
                  key=lambda s: s.start)
    starts = [j.start for j in jobs]
    longest = [0.0] * len(jobs)
    task_total = 0.0
    for t, wall, *_ in tasks:
        i = bisect.bisect_right(starts, t) - 1
        if i < 0 or t > jobs[i].end:
            continue
        task_total += wall
        longest[i] = max(longest[i], wall)
    job_total = sum(j.dur for j in jobs)
    return {
        "engine.jobs_per_stage": len(jobs) / units,
        "engine.job_ms.p50": 1e3 * median([j.dur for j in jobs]) if jobs else 0.0,
        "engine.task_compute_ms": 1e3 * task_total / units,
        "engine.dispatch_ms": 1e3 * sum(j.dur - m for j, m in zip(jobs, longest)) / units,
        "engine.parallel_eff": task_total / (job_total * parallelism) if job_total else 0.0,
    }
