"""Benchmark entry point: one workload, one seed, one Ray session.

    python3 layerbench/run.py --workload harvest_full --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Prints one JSON line (correct, attempted,
failed, metrics) as the last line of standard output and exits 0, or
exits non-zero without a result when the run cannot complete.

This file is the supervisor.  It refuses pools too small to run the
harvest, starts session.py in its own process group, and enforces the
run's deadline.  When the run ends or is killed, it stops every
process of the Ray session and waits for each to exit.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "d1_log_aggregation_ray"
WORKLOADS = ("harvest_full", "harvest_delta", "exchange")
#: the pool size the benchmark drives, capped by the cores this process
#: may run on
POOL_CPUS = 4
#: run_harvest and the registry scans request num_cpus=1.01 per task
#: (to block operator fusion); on a 1-CPU pool those tasks are
#: infeasible and the run waits forever
MIN_CPUS = 2
#: a run must end within 180 s; the rest is left for clean-up
DEADLINE_S = 165.0
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts
#: session_<date>_<pid>/sockets/plasma_store (~63 bytes) under its
#: temp dir
_MAX_RAY_TMP = 44

sys.path.insert(0, HERE)
import host  # noqa: E402


def _fail(code: int, msg: str) -> int:
    print(f"layerbench: {msg}", file=sys.stderr, flush=True)
    return code


def _ray_tmp(work: str) -> str:
    """A fresh Ray temp dir inside the checkout, unless the checkout
    path is too long for Ray's sockets; then a short one under the
    system temp dir (the run record notes which)."""
    path = os.path.join(work, f"r{os.getpid()}")
    if len(path) > _MAX_RAY_TMP:
        return tempfile.mkdtemp(prefix="lbr")
    os.makedirs(path, exist_ok=True)
    return path


def _stop_session(marker: str, grace_s: float = 10.0) -> list[int]:
    """SIGTERM, then SIGKILL, every process of the session marked
    `marker`; wait until none is left.  Returns the pids that were
    still running."""
    pids = host.pids_with_marker(marker)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        t_end = time.monotonic() + grace_s
        while time.monotonic() < t_end:
            if not host.pids_with_marker(marker):
                return pids
            time.sleep(0.1)
        pids = host.pids_with_marker(marker)
    return pids


def _interrupted(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=0.1,
                    help="corpus scale factor (0.1 = 500k valid turns)")
    ap.add_argument("--cpus", type=int, default=None,
                    help="Ray pool size (default: min(4, usable cores))")
    ap.add_argument("--deadline", type=float, default=DEADLINE_S,
                    help="seconds before the run is killed")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        return _fail(2, f"package {PACKAGE!r} not found under {ROOT}; run "
                        "from a full checkout of the repository")
    cores = len(os.sched_getaffinity(0))
    cpus = args.cpus if args.cpus is not None else min(POOL_CPUS, cores)
    if cpus < MIN_CPUS:
        return _fail(3, f"refusing a Ray pool of {cpus} CPU(s) "
                        f"(sched_getaffinity reports {cores} usable core(s)): "
                        "the harvest's num_cpus=1.01 tasks are infeasible "
                        f"on fewer than {MIN_CPUS} CPUs and would hang")

    work = os.path.join(ROOT, ".layerbench")
    os.makedirs(work, exist_ok=True)
    # runs share the corpora and outputs under `work`: one at a time
    lock = open(os.path.join(work, "lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return _fail(6, f"another run is using {work}")
    ray_tmp = _ray_tmp(work)
    result = os.path.join(work, f"result-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--cpus", str(cpus),
           "--work", work, "--ray-tmp", ray_tmp, "--result", result]
    # Ray workers inherit this environment: with the checkout on
    # PYTHONPATH they import the package whatever the cwd
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               **{host.MARKER_ENV: ray_tmp},
               PYTHONPATH=os.pathsep.join(
                   p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    # the child's stdout joins stderr: the result line is printed here
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    # SIGTERM takes the same clean-up path as a passed deadline
    signal.signal(signal.SIGTERM, _interrupted)
    stopped = None
    try:
        rc = child.wait(timeout=args.deadline)
    except subprocess.TimeoutExpired:
        stopped = (f"passed its {args.deadline:g} s deadline; the Ray "
                   "session was killed")
    except KeyboardInterrupt:
        stopped = "was interrupted; the Ray session was killed"
    if stopped:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    leftover = _stop_session(ray_tmp)
    shutil.rmtree(ray_tmp, ignore_errors=True)

    if stopped:
        return _fail(4, f"workload {args.workload} (seed {args.seed}) "
                        f"{stopped}")
    if rc != 0:
        return _fail(5, f"workload {args.workload} (seed {args.seed}) "
                        f"failed with exit code {rc}")
    if leftover:
        print(f"layerbench: stopped {len(leftover)} Ray process(es) left "
              "after shutdown", file=sys.stderr)
    with open(result) as f:
        line = json.dumps(json.load(f))
    os.remove(result)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
