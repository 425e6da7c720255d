"""Smoke test of the benchmark itself, at sf0.001 (5k turns).

    python3 layerbench/smoke.py

Runs every workload untraced and traced and checks each result line
against BENCHMARK.json.  Then checks the three ways a run must fail
fast: a pool below 2 CPUs, a run past its deadline, and a directory
holding only the benchmark.  Each failure must exit non-zero, print no
result, and leave no Ray process behind.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import host  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(args: list[str], cwd: str = ROOT, timeout: float = 200):
    return subprocess.run([sys.executable, "layerbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _no_ray_left(cwd: str) -> bool:
    return not host.pids_with_marker(os.path.join(cwd, ".layerbench", "r"))


def _check(problems: list, what: str, ok: bool, r) -> None:
    if ok:
        print(f"ok {what}", flush=True)
    else:
        problems.append(f"{what}: exit {r.returncode}: {r.stderr[-300:]}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    # every workload run.py offers, harvest_delta too, though
    # BENCHMARK.json does not list it
    for w in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            r = _run(["--workload", w, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--scale", "0.001"])
            tag = f"{w} trace={trace}"
            if r.returncode != 0:
                problems.append(f"{tag}: exit {r.returncode}: {r.stderr[-800:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}")
            if set(res["metrics"]) != names[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names[trace])}")
            if len(problems) == before:
                print(f"ok {tag}", flush=True)

    r = _run(["--workload", "harvest_full", "--seed", "1", "--seconds", "1",
              "--trace", "0", "--cpus", "1"])
    _check(problems, "1-CPU pool refused",
           r.returncode != 0 and not r.stdout.strip() and "1.01" in r.stderr,
           r)

    r = _run(["--workload", "harvest_full", "--seed", "1", "--seconds", "30",
              "--trace", "0", "--scale", "0.001", "--deadline", "8"])
    _check(problems, "deadline enforced",
           r.returncode != 0 and not r.stdout.strip()
           and "harvest_full" in r.stderr and "deadline" in r.stderr
           and _no_ray_left(ROOT), r)

    bare = os.path.join(ROOT, ".layerbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "layerbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    r = _run(["--workload", "harvest_full", "--seed", "1", "--seconds", "1",
              "--trace", "0"], cwd=bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    _check(problems, "bare directory fails",
           r.returncode != 0 and not r.stdout.strip(), r)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
