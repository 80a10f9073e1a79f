"""The benchmark's own test: output shape and metric names in smoke mode.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Each workload runs at tiny sizes (``--smoke``), traced and untraced, and
must print a last line with exactly the result keys and every metric
``BENCHMARK.json`` declares, with its unit, and leave no process it
started running.  Without the program next to it the benchmark must
refuse to run.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _marked(marker):
    """Pids of live processes whose environment carries *marker*."""
    pids = []
    for name in os.listdir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                if marker in fh.read().split(b"\0"):
                    pids.append(int(name))
        except (OSError, ValueError):
            pass
    return pids


def _run(cwd, *args, timeout=300):
    """One benchmark run; fails if any process it started outlives it."""
    marker = f"PERFBENCH_SMOKE_RUN={os.getpid()}-{id(args)}"
    env = dict(os.environ, PERFBENCH_SMOKE_RUN=marker.split("=", 1)[1])
    # Output goes to files, not pipes: a pipe would make this wait for
    # every process holding its write end, hiding one left running.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
            stdout=out, stderr=err, text=True, timeout=timeout, cwd=cwd, env=env,
        )
        left = _marked(marker.encode())
        out.seek(0)
        err.seek(0)
        proc.stdout, proc.stderr = out.read(), err.read()
    assert not left, f"processes left running after the run: {left}"
    return proc


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_shape(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "history.jsonl"))
    proc = _run(str(tmp_path), "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
