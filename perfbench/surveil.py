"""``surveil-rounds``: Thompson-allocator campaigns, timed per ``run_round``.

Campaigns are built exactly as ``python -m repro surveil`` builds them
(:meth:`SurveilRequest.build_campaign`): a seeded
``heterogeneous_fleet`` of 12 sites with cohorts of 10, budget 6, on a
threads Context of parallelism 2.  Each round runs its site screens as
one engine job; each site screen is the serial ``workflows.run_screen``
driver inside an engine task.  Site-screen walls come from ``TaskEnd``
events on the engine's public bus.  Every campaign's per-round rows are
compared with an untimed replay on a serial Context.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

import repro.surveil.campaign as campaign_mod
from harness import (
    SETUP_REPEATS, Outcome, clock, log, mean, median, median_import_s, pct,
    peak_rss_mb, replay_in_workers, split,
)
from probes import EngineProbe
from repro.engine import Context
from repro.serve.protocol import SurveilRequest

PARALLELISM = 2
SITES, COHORT, BUDGET, ROUNDS = 12, 10, 6, 10
WORKLOAD_INDEX = 4
# Seconds one campaign takes on the reference host: --seconds divided by
# this fixes how many campaigns a run measures.
CAMPAIGN_S = 0.45


def request(seed: int, rounds: int = ROUNDS) -> SurveilRequest:
    return SurveilRequest.from_payload({
        "sites": SITES, "cohort": COHORT, "rounds": rounds, "budget": BUDGET,
        "allocator": "thompson", "fleet": "heterogeneous", "seed": seed,
    })


def make_campaign(seed: int, ctx=None, rounds: int = ROUNDS):
    return request(seed, rounds).build_campaign(ctx)


def run_campaigns(ctx, make, seeds, probe=None, screens=None, rec=None):
    """Run each campaign to the end; returns ``[(round rows, round walls)]``.

    With *probe* (an :class:`EngineProbe` on *ctx*), appends one
    ``(task wall, tests used, individuals)`` per site screen to *screens*.
    With *rec* (a SpanRecorder), tags spans with the round's id.
    """
    results = []
    for seed in seeds:
        campaign = make(seed, ctx)
        walls = []
        while not campaign.finished:
            if probe is not None:
                probe.clear()
            if rec is not None:
                rec.op = f"campaign-{seed}-round-{campaign.round_index}"
            t0 = clock()
            campaign.run_round()
            walls.append(clock() - t0)
            if probe is not None:
                tasks = sorted(probe.tasks, key=lambda t: t[2])
                for (_, wall, *_), site in zip(tasks, probe.sites):
                    screens.append((wall, site[2], site[4]))
        results.append((campaign.result().round_rows(), walls))
    return results




def replay_chunk(args) -> List[Tuple[list, List[float]]]:
    """Worker-process entry: serial-Context replays of campaigns.

    Returns each campaign's round rows and its site screens' accuracies
    (captured around ``run_site_screen``; the replay is untimed).
    """
    seeds, rounds = args
    original = campaign_mod.run_site_screen
    out = []
    with Context(mode="serial") as ctx:
        for seed in seeds:
            accuracies: List[float] = []

            def capture(job):
                result = original(job)
                accuracies.append(result.accuracy)
                return result

            campaign_mod.run_site_screen = capture
            try:
                campaign = make_campaign(seed, ctx, rounds)
                campaign.run()
            finally:
                campaign_mod.run_site_screen = original
            out.append((campaign.result().round_rows(), accuracies))
    return out


def replay(outcome: Outcome, seeds, results, rounds: int) -> List[float]:
    """Compares every campaign with its serial replay; returns accuracies."""
    pairs = list(zip(seeds, results))
    chunks = split(pairs)
    replays = replay_in_workers(
        replay_chunk, [([seed for seed, _ in chunk], rounds) for chunk in chunks])
    accuracies: List[float] = []
    for chunk, replayed in zip(chunks, replays):
        for (seed, (rows, _)), (expect, acc) in zip(chunk, replayed):
            if rows != expect:
                outcome.fail(f"campaign seed={seed}: rounds differ from serial replay")
            accuracies += acc
    return accuracies


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        import_s: float) -> Outcome:
    rounds = 2 if smoke else ROUNDS
    n_campaigns = 1 if smoke else max(1, math.ceil(seconds / CAMPAIGN_S))
    # Campaign i always gets the same seed (common random numbers: a
    # campaign seed fixes its fleet, truths, allocator draws and assay
    # noise); the run seed orders the campaigns.
    fixed = np.random.default_rng([WORKLOAD_INDEX]).integers(1 << 31, size=n_campaigns)
    rng = np.random.default_rng([seed, WORKLOAD_INDEX])
    seeds = [int(fixed[i]) for i in rng.permutation(n_campaigns)]
    outcome = Outcome()

    times = []
    for i in range(SETUP_REPEATS):
        t0 = clock()
        ctx = Context(mode="threads", parallelism=PARALLELISM)
        try:
            make_campaign(seed, ctx, 1).run_round()
        except BaseException:
            ctx.stop()
            raise
        times.append(clock() - t0)
        if i < SETUP_REPEATS - 1:
            ctx.stop()
    setup_s = median_import_s("surveil", import_s) + median(times)
    log(f"{workload}: setup {setup_s:.3f}s, measuring {n_campaigns} campaign(s)")

    try:
        probe = EngineProbe()
        ctx.add_listener(probe)
        screens: List[Tuple[float, int, int]] = []
        results = run_campaigns(ctx, lambda s, c: make_campaign(s, c, rounds), seeds,
                                probe, screens)
        ctx.remove_listener(probe)
        rss = peak_rss_mb()
        if trace:
            from tracing import traced_rounds

            outcome.per_layer = traced_rounds(
                ctx, lambda s, c=None: make_campaign(s, c, rounds), seeds, results,
                outcome, workload, seed)
    finally:
        ctx.stop()
    accuracies = replay(outcome, seeds, results, rounds)

    round_walls = [w for _, walls in results for w in walls]
    rows = [row for rows_, _ in results for row in rows_]
    wall = sum(round_walls)
    n_screens = sum(r["screens"] for r in rows)
    tests = sum(r["tests"] for r in rows)
    screen_ms = [1e3 * w for w, _, _ in screens]
    stage_ms = [1e3 * w / t for w, t, _ in screens if t]
    # Round wall per site screen of the round: allocation and fan-out included.
    per_screen_ms = [1e3 * w / r["screens"] for w, r in zip(round_walls, rows) if r["screens"]]
    outcome.attempted += len(round_walls)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "tests_per_s": tests / wall,
        "stage_ms.p50": pct(stage_ms, 50),
        "stage_ms.p90": pct(stage_ms, 90),
        "accuracy": mean(accuracies),
        "tests_per_individual": tests / sum(n for _, _, n in screens),
        "http_screen_ms.p50": pct(screen_ms, 50),
        "http_screen_ms.p90": pct(screen_ms, 90),
        "http_step_ms.p50": pct(per_screen_ms, 50),
        "http_step_ms.p90": pct(per_screen_ms, 90),
        "max_rate_rps": n_screens / wall,
        "round_s.p50": pct(round_walls, 50),
        "round_s.p90": pct(round_walls, 90),
        "cases_per_screen": sum(r["cases"] for r in rows) / n_screens,
    }
    if len(screens) != n_screens:
        outcome.fail(f"bus reported {len(screens)} site screens, rounds {n_screens}")
    outcome.notes = {"campaigns": len(seeds), "rounds": len(round_walls),
                     "site_screens": n_screens}
    return outcome
