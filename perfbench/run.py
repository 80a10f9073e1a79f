"""The repository benchmark: one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload screen-dense-n18 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` replays the same inputs with spans around each layer's
entry points and prints every per-layer metric instead (metrics a
workload does not exercise read 0).  ``--smoke`` shrinks every size so
the output shape can be checked in seconds.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Each
run also appends a record with the host fingerprint to
``perfbench/history.jsonl``.  See ``perfbench/README.md``.
"""

import time

T_LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

MODULES = {
    "screen-dense-n18": "screens",
    "screen-small-procs": "screens",
    "serve-open-loop": "serve_load",
    "surveil-rounds": "surveil",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; checks the output shape and metric names")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {harness.SRC}/repro is missing "
              "(run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    spec = harness.load_spec()
    module = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - T_LAUNCH

    # SIGTERM unwinds like an error, so every process started is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke, import_s)
    finally:
        harness.stop_all()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        outcome.fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                outcome.fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:14.6f} {entry['unit']}")
    print(f"operations: attempted {outcome.attempted}, "
          f"succeeded {outcome.attempted - outcome.failed}, failed {outcome.failed}")
    for message in outcome.checks_failed:
        print(f"check failed: {message}")
    if not args.smoke:
        harness.append_history({
            "time": time.time(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": harness.host_fingerprint(), "correct": outcome.correct,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "notes": outcome.notes,
        })
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
