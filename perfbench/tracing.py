"""The traced runs: spans around layer entry points, per-layer figures.

End-to-end figures always come from the untraced pass.  A traced run
then replays the very same inputs with wrappers installed, so the
difference between the two passes is the tracing overhead.
"""

from __future__ import annotations

import os
from typing import Dict

from harness import OUT_DIR, Outcome, clock, log, median
from layers import (
    ENGINE_ENTRY, SBGT_ENTRIES, Windows, coverage, engine_figures, install,
    self_figures, span_figures,
)
from probes import EngineProbe
from spans import SpanRecorder

SBGT_STAGE_SPANS = ("sbgt.select", "sbgt.update", "sbgt.classify")
LATTICE_SPANS = ("sbgt.lattice.update", "sbgt.lattice.down_set",
                 "sbgt.lattice.marginals", "sbgt.lattice.rebalance")


def dump(rec: SpanRecorder, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    rec.dump_jsonl(path)
    return path


def _candidate_entry(policy_name: str):
    from repro.workflows.payloads import make_policy

    cls = type(make_policy(policy_name).candidates)
    return (cls.__module__, cls.__name__, "generate", "halving.candidates", "halving")


def traced_screens(ctx, proto, blocks, runs, outcome: Outcome,
                   workload: str, seed: int, smoke: bool) -> Dict[str, float]:
    from screens import PARALLELISM, measure

    rec = SpanRecorder()
    probe = EngineProbe()
    install(rec, [ENGINE_ENTRY, *SBGT_ENTRIES, _candidate_entry(proto.policy)])
    ctx.add_listener(probe)
    try:
        traced_runs = measure(ctx, proto, blocks, rec=rec)
    finally:
        ctx.remove_listener(probe)
        rec.uninstall()
    for block_runs, block_traced in zip(runs, traced_runs):
        for a, b in zip(block_runs, block_traced):
            if a.digest != b.digest:
                outcome.fail(f"traced screen digest {b.digest} != untraced {a.digest}")

    stage_spans = rec.named("stage.propose") + rec.named("stage.condition")
    stages = sum(len(r.stages_s) for block in traced_runs for r in block)
    windows = Windows(stage_spans)
    out: Dict[str, float] = {}
    out.update(engine_figures(rec, probe.tasks, windows, stages, PARALLELISM))
    hits, misses = probe.cache_hits, probe.cache_misses
    out["engine.worker_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    figures = span_figures(rec, windows, SBGT_STAGE_SPANS + LATTICE_SPANS
                           + ("halving.candidates",), stages)
    out.update(figures)
    covered, wall = coverage(rec, stage_spans, SBGT_STAGE_SPANS)
    out["sbgt.unattributed_ms"] = 1e3 * (wall - covered) / stages
    out["sbgt.coverage"] = covered / wall
    out.update(self_figures(rec, stages, probe.tasks))
    untraced = sum(s for block in runs for r in block for s in r.stages_s)
    out["trace.overhead"] = wall / untraced - 1.0
    out["trace.spans"] = float(len(rec.spans))
    if workload == "screen-dense-n18":
        out.update(scaling(proto, blocks[0], smoke))
    log(f"{workload}: spans -> {dump(rec, workload, seed)}")
    return out


def scaling(proto, block, smoke: bool) -> Dict[str, float]:
    """Measured strong scaling: wall at parallelism 1 / (2 x wall at 2).

    Uses the block's first screens that have at least one positive (the
    longer, kernel-heavy ones), repeated in each executor mode.
    """
    from repro.engine import Context
    from screens import run_screen

    items = [s for s in block if s.truth][: 1 if smoke else 3] or block[:1]
    out = {}
    for mode in ("serial", "threads", "processes"):
        walls = {}
        for p in (1, 2):
            with Context(mode=mode, parallelism=p) as ctx:
                run_screen(ctx, proto, items[0])  # warm the pool
                t0 = clock()
                for item in items:
                    run_screen(ctx, proto, item)
                walls[p] = clock() - t0
        out[f"engine.scaling_eff.{mode}"] = walls[1] / (2 * walls[2])
        log(f"scaling {mode}: p1 {walls[1]:.3f}s p2 {walls[2]:.3f}s")
    return out


def traced_rounds(ctx, make_campaign, campaigns, round_walls_untraced, outcome: Outcome,
                  workload: str, seed: int) -> Dict[str, float]:
    """Replays the surveil campaigns with round/allocate/site-screen spans."""
    from surveil import PARALLELISM, run_campaigns

    rec = SpanRecorder()
    probe = EngineProbe()
    install(rec, [
        ENGINE_ENTRY,
        ("repro.surveil.campaign", "Campaign", "run_round", "surveil.round", "surveil"),
        ("repro.surveil.campaign", "", "run_site_screen", "surveil.site_screen", "surveil"),
        ("repro.workflows.classify", "", "run_screen", "workflows.run_screen", "workflows"),
        _candidate_entry("bha"),
    ])
    allocator_cls = type(make_campaign(campaigns[0]).allocator)
    rec.wrap(allocator_cls, "allocate", "surveil.allocate", "surveil")
    ctx.add_listener(probe)
    try:
        traced = run_campaigns(ctx, make_campaign, campaigns, rec=rec)
    finally:
        ctx.remove_listener(probe)
        rec.uninstall()
    untraced_rows = [rows for rows, _ in round_walls_untraced]
    for (rows, _), expect in zip(traced, untraced_rows):
        if rows != expect:
            outcome.fail("traced campaign rounds differ from the untraced pass")

    rounds = rec.named("surveil.round")
    units = len(rounds)
    windows = Windows(rounds)
    out: Dict[str, float] = {}
    out.update(engine_figures(rec, probe.tasks, windows, units, PARALLELISM))
    hits, misses = probe.cache_hits, probe.cache_misses
    out["engine.worker_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.update(span_figures(rec, windows, ("halving.candidates",), units))
    out.update(self_figures(rec, units, probe.tasks, task_layer="surveil"))
    site = rec.named("surveil.site_screen")
    out["surveil.allocate_ms"] = 1e3 * sum(s.dur for s in rec.named("surveil.allocate")) / units
    out["surveil.site_screen_ms.p50"] = 1e3 * median([s.dur for s in site])
    round_wall = sum(s.dur for s in rounds)
    out["surveil.fanout_eff"] = sum(s.dur for s in site) / (round_wall * PARALLELISM)
    untraced = sum(sum(walls) for _, walls in round_walls_untraced)
    out["trace.overhead"] = round_wall / untraced - 1.0
    out["trace.spans"] = float(len(rec.spans))
    log(f"{workload}: spans -> {dump(rec, workload, seed)}")
    return out
