"""``screen-dense-n18`` and ``screen-small-procs``: seeded SBGTSession screens.

Each screen is the loop ``python -m repro screen`` runs
(:meth:`SBGTSession.run_screen`: a :class:`ScreenStepper` over a
simulated :class:`TestLab`), driven stage by stage here so each stage
(select + update + classify, the lab excluded) can be timed.  Cohorts
come in blocks whose positive counts follow the prior's binomial mix
(:func:`harness.stratified_counts`).  A screen's slot (block, positive
count, occurrence) fixes both who is positive and the lab's noise
stream, the same for every seed: common random numbers, so the spread
between seeds measures the program rather than the luck of the draws.
The seed orders the screens of each block.  Every screen's test
sequence and calls are digested and compared with an untimed replay
through ``run_screen`` on a serial Context.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from harness import (
    SETUP_REPEATS, Outcome, clock, log, median, median_import_s, mean, pct,
    peak_rss_mb, replay_in_workers, split, stratified_counts,
)
from repro.cli import build_parser
from repro.engine import Context
from repro.engine.tracing import ensure_trace
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.sbgt.stepper import ScreenStepper
from repro.bayes.priors import PriorSpec
from repro.simulate.population import Cohort
from repro.simulate.testing import TestLab
from repro.workflows.payloads import make_model, make_policy

PARALLELISM = 2
BLOCK = 20

WORKLOADS = {
    # name: (cohort, executor mode, workload index for seeding, seconds one
    # block takes on the reference host: sets the block count per run)
    "screen-dense-n18": (18, "threads", 1, 9.0),
    "screen-small-procs": (12, "processes", 2, 2.5),
}
SMOKE_COHORT = 8
SMOKE_BLOCK = 4


@dataclass(frozen=True)
class Protocol:
    """The CLI's screen settings: ``repro screen --cohort N --prevalence 0.05``."""

    cohort: int
    prevalence: float
    policy: str
    prior: PriorSpec
    model: object
    config: SBGTConfig

    @classmethod
    def from_cli(cls, cohort: int, prevalence: float = 0.05) -> "Protocol":
        args = build_parser().parse_args(
            ["screen", "--cohort", str(cohort), "--prevalence", str(prevalence)]
        )
        return cls(
            cohort=args.cohort,
            prevalence=args.prevalence,
            policy=args.policy.name,
            prior=PriorSpec.uniform(args.cohort, args.prevalence),
            model=make_model(args.assay, args.sensitivity, args.specificity, args.dilution),
            config=SBGTConfig(max_stages=args.max_stages, compact_classified=args.compact,
                              backend=args.backend),
        )


@dataclass(frozen=True)
class ScreenInput:
    truth: int
    lab_seed: int


@dataclass
class ScreenRun:
    wall_s: float
    first_pool_s: float
    stages_s: List[float]
    steps_s: List[float]
    tests: int
    individuals: int
    accuracy: float
    cases: int
    digest: str


def make_block(cohort: int, prevalence: float, rng: np.random.Generator,
               size: int, index: int) -> List[ScreenInput]:
    counts = stratified_counts(cohort, prevalence, size)
    slots = [(k, counts[:j].count(k)) for j, k in enumerate(counts)]
    block = []
    for i in rng.permutation(len(slots)):
        k, occurrence = slots[i]
        members = (np.random.default_rng([cohort, index, k, occurrence, 1])
                   .choice(cohort, size=k, replace=False))
        truth = sum(1 << int(m) for m in members)
        lab_seed = int(np.random.SeedSequence([cohort, index, k, occurrence])
                       .generate_state(1)[0])
        block.append(ScreenInput(truth=truth, lab_seed=lab_seed))
    return block


def digest(result) -> str:
    """Test sequence plus final calls of one screen."""
    tests = [(int(r.pool_mask), float(r.outcome)) for r in result.posterior.log.records]
    statuses = [s.name for s in result.report.statuses]
    blob = json.dumps({"tests": tests, "statuses": statuses}).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def run_screen(ctx, proto: Protocol, item: ScreenInput, rec=None) -> ScreenRun:
    """One screen, stage-timed; *rec* (a SpanRecorder) marks each stage."""
    if rec is not None:
        rec.op = f"screen-{item.truth:x}-{item.lab_seed:x}"
    t0 = clock()
    session = SBGTSession(ctx, proto.prior, proto.model, proto.config)
    lab = TestLab(proto.model, item.truth, np.random.default_rng(item.lab_seed))
    stages: List[float] = []
    steps: List[float] = []
    first_pool = 0.0
    with ensure_trace(name="run_screen"):
        stepper = ScreenStepper(session, make_policy(proto.policy))
        while not stepper.done:
            if rec is None:
                a = clock()
                pools = stepper.next_pools()
                b = clock()
                outcomes = [lab.run(p) for p in pools]
                c = clock()
                stepper.submit_outcomes(outcomes)
                d = clock()
            else:
                with rec.span("stage.propose", "bench") as s1:
                    pools = stepper.next_pools()
                outcomes = [lab.run(p) for p in pools]
                with rec.span("stage.condition", "bench") as s2:
                    stepper.submit_outcomes(outcomes)
                a, b, c, d = s1.start, s1.end, s2.start, s2.end
            if not stages:
                first_pool = b - t0
            stages.append((b - a) + (d - c))
            steps.append(d - a)
    result = stepper.result(Cohort(proto.prior, item.truth))
    session.close()
    wall = clock() - t0
    return ScreenRun(
        wall_s=wall, first_pool_s=first_pool, stages_s=stages, steps_s=steps, tests=result.efficiency.num_tests,
        individuals=proto.cohort, accuracy=float(result.accuracy),
        cases=int(result.confusion.true_positive), digest=digest(result),
    )


def replay_digest(ctx, proto: Protocol, item: ScreenInput) -> str:
    """The same screen through ``SBGTSession.run_screen`` (the CLI call)."""
    session = SBGTSession(ctx, proto.prior, proto.model, proto.config)
    try:
        result = session.run_screen(
            make_policy(proto.policy), rng=np.random.default_rng(item.lab_seed),
            cohort=Cohort(proto.prior, item.truth),
        )
    finally:
        session.close()
    return digest(result)


def measure(ctx, proto, blocks: List[List[ScreenInput]], rec=None) -> List[List[ScreenRun]]:
    """Runs every screen of every block, in order."""
    return [[run_screen(ctx, proto, item, rec) for item in block] for block in blocks]


def replay_chunk(args) -> List[str]:
    """Worker-process entry: serial-Context replays of *items*."""
    cohort, items = args
    proto = Protocol.from_cli(cohort)
    with Context(mode="serial") as ctx:
        return [replay_digest(ctx, proto, item) for item in items]


def check(outcome: Outcome, proto, blocks, runs) -> None:
    """Every digest must equal a serial-Context replay of the same screen."""
    pairs = [(item, run) for block, block_runs in zip(blocks, runs)
             for item, run in zip(block, block_runs)]
    chunks = split(pairs)
    replays = replay_in_workers(
        replay_chunk, [(proto.cohort, [item for item, _ in chunk]) for chunk in chunks])
    for chunk, digests in zip(chunks, replays):
        for (item, run), expect in zip(chunk, digests):
            if expect != run.digest:
                outcome.fail(f"screen truth={item.truth:#x} lab_seed={item.lab_seed}: "
                             f"digest {run.digest} != serial replay {expect}")


def end_to_end(runs) -> Dict[str, float]:
    flat = [r for block in runs for r in block]
    # A round is one block: every block holds the same mix of screens.
    rounds = [sum(r.wall_s for r in block) for block in runs]
    stages_ms = [1e3 * s for r in flat for s in r.stages_s]
    steps_ms = [1e3 * s for r in flat for s in r.steps_s]
    first_ms = [1e3 * r.first_pool_s for r in flat if r.stages_s]
    wall = sum(r.wall_s for r in flat)
    tests = sum(r.tests for r in flat)
    return {
        "tests_per_s": tests / wall,
        "stage_ms.p50": pct(stages_ms, 50),
        "stage_ms.p90": pct(stages_ms, 90),
        "accuracy": mean([r.accuracy for r in flat]),
        "tests_per_individual": tests / sum(r.individuals for r in flat),
        # In-process analogues of the serve-path metrics (see README.md).
        "http_screen_ms.p50": pct(first_ms, 50),
        "http_screen_ms.p90": pct(first_ms, 90),
        "http_step_ms.p50": pct(steps_ms, 50),
        "http_step_ms.p90": pct(steps_ms, 90),
        "max_rate_rps": len(flat) / wall,
        "round_s.p50": pct(rounds, 50),
        "round_s.p90": pct(rounds, 90),
        "cases_per_screen": sum(r.cases for r in flat) / len(flat),
    }


def setup(proto, mode: str, warm: ScreenInput, import_s: float):
    """Imports + Context + pool start + one warm-up screen; keeps the last
    Context.  Each part is the median of several tries."""
    times = []
    ctx = None
    for i in range(SETUP_REPEATS):
        t0 = clock()
        ctx = Context(mode=mode, parallelism=PARALLELISM)
        try:
            run_screen(ctx, proto, warm)
        except BaseException:
            ctx.stop()
            raise
        times.append(clock() - t0)
        if i < SETUP_REPEATS - 1:
            ctx.stop()
    return ctx, median_import_s("screens", import_s) + median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        import_s: float) -> Outcome:
    cohort, mode, index, block_s = WORKLOADS[workload]
    # The work is fixed by --seconds, not by how fast it runs, so two
    # commits measure the same screens.
    n_blocks, block_size = max(1, math.ceil(seconds / block_s)), BLOCK
    if smoke:
        cohort, n_blocks, block_size = SMOKE_COHORT, 1, SMOKE_BLOCK
    proto = Protocol.from_cli(cohort)
    rng = np.random.default_rng([seed, index])
    blocks = [make_block(cohort, proto.prevalence, rng, block_size, b) for b in range(n_blocks)]
    warm = ScreenInput(truth=1, lab_seed=seed)
    outcome = Outcome()

    ctx, setup_s = setup(proto, mode, warm, import_s)
    try:
        log(f"{workload}: setup {setup_s:.3f}s, measuring {n_blocks} block(s) of {block_size}")
        runs = measure(ctx, proto, blocks)
        rss = peak_rss_mb()
        if trace:
            from tracing import traced_screens

            outcome.per_layer = traced_screens(ctx, proto, blocks, runs, outcome,
                                               workload, seed, smoke)
    finally:
        ctx.stop()
    check(outcome, proto, blocks, runs)
    n = sum(len(b) for b in blocks)
    outcome.attempted += n
    outcome.end_to_end = {"setup_s": setup_s, "peak_rss_mb": rss,
                          **end_to_end(runs)}
    outcome.notes = {"screens": n, "blocks": len(blocks),
                     "stages": sum(len(r.stages_s) for b in runs for r in b),
                     "cohort": cohort, "mode": mode, "parallelism": PARALLELISM}
    return outcome
