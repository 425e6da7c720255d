"""The harvest runs on raw Ray tasks (one streaming scan task per
bucket, one enrich+write task per slice): no Ray Data operator runs,
a bucket whose rows are all invalid still commits, and a SIGKILL
landed after the first commit resumes to the clean run's output."""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from d1_log_aggregation_ray.config import DEFAULT_CONFIG
from d1_log_aggregation_ray.pipelines.harvest import run_harvest
from d1_log_aggregation_ray.pipelines.oracle import oracle_enriched
from d1_log_aggregation_ray.state.manifest import Manifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF01_DIR = "/root/testdata/sf0.01"
TIMEOUT_S = 240
FLAGS = ("in_partial_list", "in_full_list", "is_repeat_visit")
KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def _sorted_output(out: str) -> pa.Table:
    t = pads.dataset(out, partitioning="hive").to_table()
    return t.select(sorted(t.column_names)).sort_by(KEY)


def test_harvest_runs_no_ray_data_operator(fx_dir, tmp_path, monkeypatch):
    """Every Ray Data entry the harvest used to call raises: the run
    still writes the golden row count and flag totals."""
    import ray.data

    want = oracle_enriched(fx_dir)

    def refuse(*args, **kwargs):
        raise AssertionError("the harvest ran a Ray Data operator")

    for name in ("map_batches", "repartition", "take_all"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse)
    for name in ("from_items", "read_parquet"):
        monkeypatch.setattr(ray.data, name, refuse)
    # no wave retry: a refused operator fails the run at once
    cfg = dataclasses.replace(DEFAULT_CONFIG, source_retry_attempts=0)
    s = run_harvest(fx_dir, str(tmp_path / "out"), cfg=cfg, resume=False)
    with open(os.path.join(fx_dir, "meta.json")) as f:
        assert s["rows_out_total"] == json.load(f)["n_valid"] == len(want)
    for col in FLAGS:
        assert s[col] == int(want[col].sum()), col


def test_all_invalid_bucket_commits_zero_rows(fx_dir, tmp_path):
    """A bucket file whose every conv_id is null or empty yields no
    slice; it still gets a complete manifest record with rows_out 0,
    and the run's totals match the oracle of the same corpus."""
    corpus = str(tmp_path / "corpus")
    shutil.copytree(fx_dir, corpus)
    part = os.path.join(corpus, "transcripts", "part-03.parquet")
    t = pq.read_table(part)
    bad = pa.array([None if i % 2 else "" for i in range(t.num_rows)],
                   pa.string())
    pq.write_table(t.set_column(t.schema.get_field_index("conv_id"),
                                "conv_id", bad), part)

    out = str(tmp_path / "out")
    s = run_harvest(corpus, out, resume=False)
    rec = Manifest(os.path.join(out, "_manifest.jsonl")).latest_complete()[3]
    assert rec["rows_out"] == 0 and rec["per_sink_rows"] == {}
    scan = rec["stages"]["scan"]
    assert (scan["rows_read"], scan["rows_dropped"], scan["rows_out"],
            scan["slices"]) == (t.num_rows, t.num_rows, 0, 0)
    assert rec["stages"]["slices"]["tasks"] == 0
    assert not os.path.exists(os.path.join(out, "bucket_id=3"))

    want = oracle_enriched(corpus)
    assert s["buckets"] == 32
    assert s["rows_out_total"] == len(want) > 0
    for col in FLAGS:
        assert s[col] == int(want[col].sum()), col


_CHILD = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
from d1_log_aggregation_ray.pipelines.harvest import run_harvest
run_harvest(sys.argv[1], sys.argv[2], resume=False, wave_size=8)
"""


def test_sigkill_after_first_commit_resumes_to_clean_output(tmp_path):
    """SIGKILL the harvesting process group as soon as its first
    manifest record lands (progress, not a clock, picks the moment);
    the resumed run skips exactly the committed buckets and its output
    equals a clean run's in every column."""
    from d1_log_aggregation_ray.gen.fixtures import generate_fixtures

    fx = generate_fixtures(SF01_DIR)
    out = str(tmp_path / "out")
    mpath = os.path.join(out, "_manifest.jsonl")
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, env.get("PYTHONPATH")) if p)
    log_path = str(tmp_path / "child.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, fx, out], stdout=log,
            stderr=subprocess.STDOUT, env=env, cwd=REPO,
            start_new_session=True)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while not (os.path.exists(mpath) and os.path.getsize(mpath)):
            if proc.poll() is not None:
                with open(log_path) as f:
                    pytest.fail("child exited before its first commit: "
                                + f.read()[-3000:])
            if time.monotonic() > deadline:
                pytest.fail(f"no manifest record within {TIMEOUT_S} s")
            time.sleep(0.005)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    committed = sorted(Manifest(mpath).completed_buckets())
    assert 0 < len(committed) < 32, committed  # the kill landed mid-run

    s = run_harvest(fx, out, resume=True)
    assert s["resumed_skipped"] == committed
    ref = str(tmp_path / "ref")
    s_ref = run_harvest(fx, ref, resume=False)
    for k in ("rows_out_total",) + FLAGS + ("max_ts",):
        assert s[k] == s_ref[k], k
    assert _sorted_output(out).equals(_sorted_output(ref))
