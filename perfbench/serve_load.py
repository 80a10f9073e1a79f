"""``serve-open-loop``: an open-loop traffic mix against ``repro serve``.

The server runs as a subprocess, exactly as a user starts it
(``python -m repro serve --port 0 --workers 2 --compute-threads 2``).
One load-generator process sends a seeded schedule on a ladder of fixed
arrival rates: ``POST /screen`` (dense, cohort 12; every fourth repeats
an earlier seed, so the result cache answers) and interactive session
steps (``GET /sessions/{id}/next-pool`` then ``POST …/results``, outcomes
from a seeded client-side truth).  A dispatcher thread puts each
operation in its lane's queue at its due time; two connection threads,
one per lane, send them.  Latency is measured from the due time, so a
stall also counts against the operations queued behind it; how late the
dispatcher itself ran is the generator lag, and a run whose generator
fell behind is invalid.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    OUT_DIR, ROOT, SRC, Outcome, clock, log, median, pct, reap, start_process,
    stratified_counts, vm_hwm_kb,
)
from repro.bayes.priors import PriorSpec
from repro.simulate.population import make_cohort
from repro.util.rng import as_rng

COHORT, PREVALENCE = 12, 0.05
SERVER_ARGS = ["--port", "0", "--workers", "2", "--compute-threads", "2"]
REPEAT_EVERY = 4        # every 4th /screen repeats the seed sent two screens before
SESSION_SLOTS = 4       # interactive sessions open at once
BLOCK = 20              # stratified cohort block (see harness.stratified_counts)
# Arrival-rate ladder: (session steps per second, steps per /screen,
# share of the run).  Steps are evenly spaced; every per_screen-th step
# is preceded by a /screen due SCREEN_LEAD_S earlier.  Screens and steps
# arrive on two lanes, each with its own connection, so they meet only
# inside the server, on its engine lock: a step due right after a fresh
# screen waits for that screen's compute.  That is where a session write
# pays for the cache and the batcher, and by design it is the step p90:
# in the base rung 3/8 of the steps are such steps, so the p90 sits
# inside that population instead of on the edge of the host's
# scheduling jitter.  On the reference host (2 vCPU) a fresh cohort-12
# screen takes 15-80 ms and a step ~7 ms.  Rung 0, the base rate the
# latency figures come from, loads the server to ~15 % and spaces steps
# wider than most screens take, so a wait seldom delays the next step;
# rung 1 offers 1.5x that; rung 2 offers about 2.5x the steps the server
# can answer back to back (one lane, ~4 ms a step when busy) and probes
# the limit.  A rung nearer the limit passes in some runs and fails in
# others, and max_rate_rps would jump between rungs.
LADDER = ((8.0, 2, 0.7), (12.0, 2, 0.15), (600.0, 4, 0.15))
SCREEN_LEAD_S = 0.008   # > the 2 ms batch window: the screen takes the lock first
# p90 limits of a rung that meets them (for max_rate_rps).  A step that
# waits behind a fresh screen takes about as long as the screen.
LIMIT_MS = {"screen": 250.0, "step": 250.0}
LAG_LIMIT_MS = 25.0     # generator lag p99 above this invalidates the run
REPLAY_SAMPLE = 4       # /screen bodies re-run in-process per run
SEGMENTS = 5            # server processes a run's schedule is split over
WORKLOAD_INDEX = 3
SMOKE_LADDER = ((12.0, 2, 1.0),)
LANES = ("screen", "step")


@dataclass
class Op:
    kind: str               # "screen" | "step"
    due: float              # perf_counter seconds
    rung: int
    seed: int = 0
    slot: int = -1
    seq: int = 0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    source: str = ""
    body: bytes = b""
    segment: int = 0
    tests: int = 0          # outcomes a session step posted
    ok: bool = False


@dataclass
class Slot:
    """One interactive session lane: steps run strictly in order."""

    cond: threading.Condition = field(default_factory=threading.Condition)
    next_seq: int = 0
    session_id: str = ""
    truth: int = 0
    body: Dict = field(default_factory=dict)
    steps: List[Tuple[List[int], List[bool]]] = field(default_factory=list)


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, tag: str) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(OUT_DIR, f"serve-{tag}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = start_process(
            [sys.executable, "-m", "repro", "serve", *SERVER_ARGS],
            stdout=subprocess.DEVNULL, stderr=self._log, env=env, cwd=ROOT,
        )
        try:
            self.port = self._wait_port()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = clock() + timeout
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log_path}")
            with open(self.log_path, encoding="utf-8") as fh:
                m = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            if m:
                return int(m.group(1))
            threading.Event().wait(0.005)
        raise RuntimeError("server did not start listening")

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        reap(self.proc)
        self._log.close()


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None) -> Tuple[int, str, bytes]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.http.request(method, path, body=data, headers=headers)
            resp = self.http.getresponse()
            return resp.status, resp.getheader("X-Repro-Source", ""), resp.read()
        except (OSError, http.client.HTTPException):
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return 0, "", b""

    def close(self) -> None:
        self.http.close()


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
class Inputs:
    """Stratified cohorts: /screen seeds and session truths.

    The fresh ``/screen`` requests of a run are common random numbers.
    The server draws a cohort *and* its assay noise from the request
    seed, so the run's *n_fresh* screens are fixed slots: positive counts
    in proportion to the prior's binomial mix
    (:func:`harness.stratified_counts`), and slot (count ``k``, ``occ``-th
    of that count) always gets the same request seed.  The run seed
    shuffles their order and draws the session truths (whose outcomes
    are exact), so two seeds differ in order, pairing and sessions, not
    in the luck of the assay draws.
    """

    def __init__(self, rng: np.random.Generator, n_fresh: int) -> None:
        self.rng = rng
        self.prior = PriorSpec.uniform(COHORT, PREVALENCE)
        counts = stratified_counts(COHORT, PREVALENCE, n_fresh)
        slots = [(k, counts[:j].count(k)) for j, k in enumerate(counts)]
        self._screen_slots = [slots[i] for i in rng.permutation(len(slots))]
        self._session_counts: List[int] = []

    def screen_seed(self) -> int:
        """The request seed of the next slot: the server draws its count."""
        k, occurrence = self._screen_slots.pop()
        draws = np.random.default_rng([WORKLOAD_INDEX, COHORT, k, occurrence])
        while True:
            seed = int(draws.integers(1 << 31))
            if make_cohort(self.prior, as_rng(seed)).n_positive == k:
                return seed

    def session_truth(self) -> int:
        if not self._session_counts:
            counts = stratified_counts(COHORT, PREVALENCE, BLOCK)
            self.rng.shuffle(counts)
            self._session_counts.extend(counts)
        k = self._session_counts.pop()
        members = self.rng.choice(COHORT, size=k, replace=False)
        return sum(1 << int(i) for i in members)


def cohort_body(seed: int) -> Dict:
    """``POST /screen`` and ``POST /sessions`` body (dense, CLI defaults)."""
    return {"cohort": COHORT, "prevalence": PREVALENCE, "seed": seed}


def fresh_screens(ladder, seconds: float) -> int:
    """Fresh ``/screen`` requests :func:`schedule` sends in *seconds*."""
    step_rate, per_screen, share = ladder[0]
    screens = len(range(0, int(round(step_rate * seconds * share)), per_screen))
    return screens - screens // REPEAT_EVERY


def schedule(inputs: Inputs, ladder, seconds: float, t0: float) -> List[Op]:
    """Evenly spaced steps, a /screen just before every few, merged by due time.

    Rung 0, the base rate the latency figures come from, sends fresh
    screens, every REPEAT_EVERY-th repeating the one two before (a cache
    hit).  The faster rungs probe capacity; their screens cycle through
    the base rung's seeds, so every run computes the same fresh set.
    """
    ops: List[Op] = []
    sent: List[int] = []
    steps = 0
    start = t0
    for rung, (step_rate, per_screen, share) in enumerate(ladder):
        length = seconds * share
        for i in range(int(round(step_rate * length))):
            due = start + i / step_rate
            if i % per_screen == 0:
                if rung > 0:
                    seed = sent[(i // per_screen) % len(sent)]
                elif len(sent) % REPEAT_EVERY == REPEAT_EVERY - 1:
                    seed = sent[-2]
                else:
                    seed = inputs.screen_seed()
                if rung == 0:
                    sent.append(seed)
                ops.append(Op("screen", due - SCREEN_LEAD_S, rung, seed=seed))
            ops.append(Op("step", due, rung, slot=steps % SESSION_SLOTS,
                          seq=steps // SESSION_SLOTS))
            steps += 1
        start += length
    ops.sort(key=lambda op: op.due)
    return ops


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class LoadGen:
    def __init__(self, port: int, inputs: Inputs, rng, rec=None) -> None:
        self.port = port
        self.inputs = inputs
        self.rng = rng
        self.rec = rec
        self.slots = [Slot() for _ in range(SESSION_SLOTS)]
        #: (create body, [(pools, outcomes)] per step, final statuses).
        self.finished: List[Tuple[Dict, List, List[str]]] = []
        self.extra_ops = 0      # session create/delete calls
        self.extra_failed = 0
        self.lags: List[float] = []
        self._local = threading.local()

    # -- sessions ----------------------------------------------------------
    def _open(self, conn: Conn, slot: Slot) -> bool:
        slot.body = cohort_body(int(self.rng.integers(1 << 31)))
        slot.truth = self.inputs.session_truth()
        slot.steps = []
        self.extra_ops += 1
        status, _, reply = self._call(conn, "POST", "/sessions", slot.body,
                                      "serve.session_create")
        if status != 201:
            self.extra_failed += 1
            slot.session_id = ""
            return False
        slot.session_id = json.loads(reply)["session_id"]
        return True

    def _close(self, conn: Conn, slot: Slot) -> None:
        self.extra_ops += 1
        status, _, _ = self._call(conn, "DELETE", f"/sessions/{slot.session_id}", None,
                                  "serve.session_delete")
        if status != 200:
            self.extra_failed += 1
        slot.session_id = ""

    def _call(self, conn: Conn, method: str, path: str, body, name: str):
        if self.rec is None:
            return conn.call(method, path, body)
        with self.rec.span(name, "serve", op=getattr(self._local, "op", "")):
            return conn.call(method, path, body)

    def open_sessions(self, conn: Conn) -> None:
        for slot in self.slots:
            self._open(conn, slot)

    def close_sessions(self, conn: Conn) -> None:
        for slot in self.slots:
            if slot.session_id:
                self._close(conn, slot)

    # -- operations --------------------------------------------------------
    def _screen(self, conn: Conn, op: Op) -> None:
        op.sent = clock()
        op.status, op.source, op.body = self._call(
            conn, "POST", "/screen", cohort_body(op.seed), "serve.screen")
        op.done = clock()
        op.ok = op.status == 200

    def _step(self, conn: Conn, op: Op) -> None:
        slot = self.slots[op.slot]
        with slot.cond:
            while slot.next_seq != op.seq:
                slot.cond.wait()
        try:
            if not slot.session_id and not self._open(conn, slot):
                op.done = clock()
                return
            op.sent = clock()
            status, _, reply = self._call(conn, "GET", f"/sessions/{slot.session_id}/next-pool",
                                          None, "serve.next_pool")
            if status != 200:
                op.status, op.done = status, clock()
                return
            pools = [p["mask"] for p in json.loads(reply)["pools"]]
            outcomes = [bool(mask & slot.truth) for mask in pools]
            status, _, reply = self._call(conn, "POST", f"/sessions/{slot.session_id}/results",
                                          {"outcomes": outcomes}, "serve.results")
            op.status, op.done = status, clock()
            op.ok = status == 200
            if not op.ok:
                return
            op.tests = len(outcomes)
            slot.steps.append((pools, outcomes))
            snap = json.loads(reply)
            if snap["done"]:
                self.finished.append((slot.body, list(slot.steps),
                                      snap["classification"]["statuses"]))
                self._close(conn, slot)
                self._open(conn, slot)
        finally:
            with slot.cond:
                slot.next_seq += 1
                slot.cond.notify_all()

    def run(self, ops: List[Op]) -> None:
        """Open loop: a dispatcher queues each operation at its due time."""
        lanes = {kind: queue.Queue() for kind in LANES}

        def worker(q: "queue.Queue[Optional[Op]]") -> None:
            conn = Conn(self.port)
            try:
                while True:
                    op = q.get()
                    if op is None:
                        return
                    self._local.op = f"{op.kind}-{op.rung}-{op.due:.6f}"
                    (self._screen if op.kind == "screen" else self._step)(conn, op)
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, args=(q,), name=f"lane-{kind}")
                   for kind, q in lanes.items()]
        for t in threads:
            t.start()
        try:
            for op in ops:
                wait = op.due - clock()
                if wait > 0:
                    threading.Event().wait(wait)
                self.lags.append(clock() - op.due)
                lanes[op.kind].put(op)
        finally:
            for q in lanes.values():
                q.put(None)
            for t in threads:
                t.join()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def latencies_ms(ops: List[Op], kind: str) -> List[float]:
    return [1e3 * (op.done - op.due) for op in ops if op.kind == kind and op.ok]


def rung_verdict(ops: List[Op], interval: float) -> Tuple[bool, float, Dict]:
    """(meets the limits, achieved rate, details) for one ladder rung.

    The rung may span several server processes (segments); its backlog
    is judged per segment: operations still unanswered 0.25 s after the
    segment's last arrival of the rung mean the queue was growing.  The
    achieved rate is the operations after each segment's first over the
    time from its first due time to its last reply.
    """
    detail: Dict[str, float] = {}
    passed = all(op.ok for op in ops)
    for kind, limit in LIMIT_MS.items():
        lat = latencies_ms(ops, kind)
        if lat:
            detail[f"{kind}_p90_ms"] = pct(lat, 90)
            passed = passed and detail[f"{kind}_p90_ms"] <= limit
    late = span = 0.0
    count = 0
    for seg in sorted({op.segment for op in ops}):
        seg_ops = [op for op in ops if op.segment == seg]
        end = max(op.due for op in seg_ops) + interval
        late += sum(1 for op in seg_ops if op.done > end + 0.25)
        count += len(seg_ops) - 1
        span += max(op.done for op in seg_ops) - min(op.due for op in seg_ops)
    detail["late"] = late
    passed = passed and late <= max(3, 0.05 * len(ops))
    return passed, count / span if span > 0 else 0.0, detail


def analyse(ops: List[Op], ladder) -> Tuple[Dict[str, float], Dict]:
    rungs = sorted({op.rung for op in ops})
    max_rate = 0.0
    details = {}
    for r in rungs:
        rung_ops = [op for op in ops if op.rung == r]
        offered = ladder[r][0] * (1 + 1 / ladder[r][1])
        passed, rate, detail = rung_verdict(rung_ops, 1.0 / offered)
        details[f"rung{r}@{offered:g}"] = {"passed": passed, "rate": rate, **detail}
        if passed:
            max_rate = max(max_rate, rate)
    # Latency metrics come from the base rate.
    base = [op for op in ops if op.rung == 0]
    screens = latencies_ms(base, "screen")
    steps = latencies_ms(base, "step")
    service = [1e3 * (op.done - op.sent) for op in base if op.kind == "step" and op.ok]
    return {
        "http_screen_ms.p50": pct(screens, 50),
        "http_screen_ms.p90": pct(screens, 90),
        "http_step_ms.p50": pct(steps, 50),
        "http_step_ms.p90": pct(steps, 90),
        "stage_ms.p50": pct(service, 50),
        "stage_ms.p90": pct(service, 90),
        "max_rate_rps": max_rate,
    }, details


def check(outcome: Outcome, segments, rng) -> Dict[str, float]:
    """Output checks; returns quality figures of the served screens."""
    from repro.engine import Context
    from repro.sbgt.session import SBGTSession
    from repro.sbgt.stepper import ScreenStepper
    from repro.serve.protocol import ScreenRequest, SessionCreateRequest
    from repro.workflows.payloads import dump_payload

    first: Dict[int, bytes] = {}
    for seg in segments:
        for op in sorted((o for o in seg.ops if o.kind == "screen" and o.ok),
                         key=lambda o: o.done):
            if op.seed in first and op.body != first[op.seed]:
                outcome.fail(f"/screen seed={op.seed}: repeated response differs from the first")
            first.setdefault(op.seed, op.body)
    finished = [f for seg in segments for f in seg.gen.finished]
    fresh = sorted(first)
    sample = rng.choice(len(fresh), size=min(REPLAY_SAMPLE, len(fresh)), replace=False)
    summaries = [json.loads(body)["summary"] for body in first.values()]
    with Context(mode="serial") as ctx:
        for i in sample:
            seed = fresh[int(i)]
            expect = dump_payload(ScreenRequest.from_payload(cohort_body(seed)).execute(ctx))
            if expect.encode() != first[seed]:
                outcome.fail(f"/screen seed={seed}: body differs from in-process execute")
        for create, steps, statuses in finished:
            prior, model, policy, config = SessionCreateRequest.from_payload(create).build()
            session = SBGTSession(ctx, prior, model, config)
            stepper = ScreenStepper(session, policy)
            for pools, outcomes in steps:
                if stepper.done or stepper.next_pools() != pools:
                    outcome.fail(f"session {create}: pools differ from in-process replay")
                    break
                stepper.submit_outcomes(outcomes)
            else:
                replayed = [s.name.lower() for s in stepper.report.statuses]
                if replayed != statuses or not stepper.done:
                    outcome.fail(f"session {create}: calls differ from in-process replay")
            session.close()
    tests = sum(s["tests"] for s in summaries)
    return {
        "accuracy": sum(s["accuracy"] for s in summaries) / len(summaries),
        "tests_per_individual": tests / sum(s["n_items"] for s in summaries),
        # True positives called: sensitivity x positives present.
        "cases_per_screen": sum(round(s["sensitivity"] * s["true_positives_present"])
                                for s in summaries) / len(summaries),
    }


def metrics_doc(port: int) -> Dict:
    conn = Conn(port)
    try:
        status, _, body = conn.call("GET", "/metrics")
    finally:
        conn.close()
    return json.loads(body) if status == 200 else {}


def layer_figures(ops: List[Op], gen: LoadGen, doc: Dict) -> Dict[str, float]:
    screens = [op for op in ops if op.kind == "screen" and op.ok]
    endpoint = doc.get("endpoints", {}).get("/screen", {})
    batcher = doc.get("batcher", {})
    return {
        "serve.cache_hit_ratio": sum(op.source == "cache" for op in screens) / len(screens),
        "serve.batch_ratio": float(batcher.get("batching_ratio", 0.0)),
        "serve.server_ms.p50": float(endpoint.get("latency", {}).get("p50_ms", 0.0)),
        "serve.client_ms.p50": median([1e3 * (op.done - op.sent) for op in screens]),
        "serve.rejected": float(sum(op.status in (429, 503) for op in ops)),
        "serve.generator_lag_ms.p99": 1e3 * pct(gen.lags, 99),
    }


# ----------------------------------------------------------------------
def start_warm(tag: str, rng) -> Tuple[Server, float]:
    """Launch, wait until listening, warm one /screen and one session step."""
    t0 = clock()
    server = Server(tag)
    conn = Conn(server.port)
    try:
        status, _, _ = conn.call("POST", "/screen", cohort_body(int(rng.integers(1 << 31))))
        status2, _, reply = conn.call("POST", "/sessions", cohort_body(0))
        if status != 200 or status2 != 201:
            raise RuntimeError(f"warm-up failed ({status}, {status2}); see {server.log_path}")
        sid = json.loads(reply)["session_id"]
        conn.call("GET", f"/sessions/{sid}/next-pool")
        conn.call("DELETE", f"/sessions/{sid}")
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    return server, clock() - t0


@dataclass
class Segment:
    """One server process and the share of the schedule it served."""

    gen: LoadGen
    ops: List[Op]
    wall: float
    rss_mb: float
    doc: Dict


def segment(tag: str, inputs: Inputs, ladder, seconds: float,
            rec=None) -> Tuple[Segment, float]:
    """Fresh server, warm-up, one pass over the ladder; returns its set-up time."""
    rng = inputs.rng
    server, setup = start_warm(tag, rng)
    try:
        gen = LoadGen(server.port, inputs, rng, rec)
        conn = Conn(server.port)
        gen.open_sessions(conn)
        ops = schedule(inputs, ladder, seconds, clock() + 0.05)
        t0 = clock()
        gen.run(ops)
        wall = clock() - t0
        gen.close_sessions(conn)
        conn.close()
        doc = metrics_doc(server.port)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return Segment(gen, ops, wall, rss, doc), setup


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        import_s: float) -> Outcome:
    """The schedule is split over SEGMENTS server processes in turn.

    Each process is launched and warmed (its set-up time is one sample of
    ``setup_s``) and then serves an equal share of the run; latencies
    are pooled.  A server's speed differs from one process to the next
    on a shared host, so pooling several processes steadies the figures.
    """
    ladder = SMOKE_LADDER if smoke else LADDER
    if smoke:
        seconds = 1.0
    outcome = Outcome()
    rng = np.random.default_rng([seed, WORKLOAD_INDEX])
    log(f"{workload}: {SEGMENTS} server processes x {seconds / SEGMENTS:.3g}s "
        f"over step rates {[rate for rate, _, _ in ladder]}")
    # One input stream for the whole run: its fresh screens are spread
    # over the server processes.
    inputs = Inputs(rng, SEGMENTS * fresh_screens(ladder, seconds / SEGMENTS))
    segments, setups = [], []
    for i in range(SEGMENTS):
        seg, setup = segment(f"{seed}-{i}", inputs, ladder, seconds / SEGMENTS)
        for op in seg.ops:
            op.segment = i
        segments.append(seg)
        setups.append(setup)
    ops = [op for seg in segments for op in seg.ops]
    gens = [seg.gen for seg in segments]
    wall = sum(seg.wall for seg in segments)

    if trace:
        from spans import SpanRecorder
        from tracing import dump

        rec = SpanRecorder()
        traced, _ = segment(f"{seed}-traced",
                            Inputs(np.random.default_rng([seed, WORKLOAD_INDEX, 1]),
                                   fresh_screens(ladder, seconds / SEGMENTS)),
                            ladder, seconds / SEGMENTS, rec)
        layers = layer_figures(traced.ops, traced.gen, traced.doc)
        n_ops = len(traced.ops) + traced.gen.extra_ops
        layers["serve.self_ms"] = 1e3 * rec.self_times().get("serve", 0.0) / n_ops
        untraced = median([op.done - op.sent for op in ops if op.ok])
        layers["trace.overhead"] = median(
            [op.done - op.sent for op in traced.ops if op.ok]) / untraced - 1.0
        layers["trace.spans"] = float(len(rec.spans))
        outcome.per_layer = layers
        log(f"{workload}: spans -> {dump(rec, workload, seed)}")

    outcome.attempted = len(ops) + sum(g.extra_ops for g in gens)
    outcome.failed = sum(not op.ok for op in ops) + sum(g.extra_failed for g in gens)
    quality = check(outcome, segments, rng)
    lags = [lag for g in gens for lag in g.lags]
    lag_p99 = 1e3 * pct(lags, 99)
    if lag_p99 > LAG_LIMIT_MS:
        outcome.valid = False
        log(f"{workload}: INVALID run, generator lag p99 {lag_p99:.1f} ms > {LAG_LIMIT_MS} ms")
    e2e, details = analyse(ops, ladder)
    tests = sum(op.tests for op in ops)
    screen_tests = sum(json.loads(op.body)["summary"]["tests"]
                       for op in ops if op.kind == "screen" and op.ok and op.source != "cache")
    outcome.end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": max(seg.rss_mb for seg in segments),
        "tests_per_s": (tests + screen_tests) / wall,
        **e2e,
        **quality,
        # A lab round is one step in each open session: its server time.
        "round_s.p50": SESSION_SLOTS * e2e["stage_ms.p50"] / 1e3,
        "round_s.p90": SESSION_SLOTS * e2e["stage_ms.p90"] / 1e3,
    }
    outcome.notes = {"ops": len(ops), "session_calls": sum(g.extra_ops for g in gens),
                     "sessions_finished": sum(len(g.finished) for g in gens),
                     "rungs": details, "generator_lag_p99_ms": lag_p99}
    return outcome
