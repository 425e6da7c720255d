"""A 1-CPU cluster runs the harvest to completion.  The per-bucket
stages request config.BUCKET_TASK_CPUS (< 1 CPU) so that Ray does not
fuse them with the per-slice stage; a request above 1 CPU could never
be scheduled on such a pool, and the harvest would hang."""

import json
import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240

_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
from d1_log_aggregation_ray.pipelines.harvest import run_harvest
s = run_harvest(sys.argv[1], sys.argv[2], resume=False)
print(json.dumps({"rows": s["rows_out_total"],
                  "repeat": s["is_repeat_visit"]}))
ray.shutdown()
"""


def test_harvest_on_one_cpu(fx_dir, tmp_path):
    from d1_log_aggregation_ray.pipelines.oracle import oracle_enriched

    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, fx_dir, str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=REPO, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"harvest on a 1-CPU cluster ran past {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.strip().splitlines()[-1])
    want = oracle_enriched(fx_dir)
    assert got["rows"] == len(want)
    assert got["repeat"] == int(want["is_repeat_visit"].sum()) > 0
