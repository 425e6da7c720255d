"""The harvest runs on raw Ray tasks (one streaming scan task per
bucket, one enrich+write task per slice): no Ray Data operator runs,
a bucket whose rows are all invalid still commits, and a SIGKILL
landed after the first commit resumes to the clean run's output.  The
registry's per-bucket stages (bucket scans, export, compact) are raw
tasks too, and a zero-row bucket file passes through every one."""

import dataclasses
import glob
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
from d1_log_aggregation_ray.pipelines import queries
from d1_log_aggregation_ray.pipelines.harvest import run_harvest
from d1_log_aggregation_ray.pipelines.oracle import oracle_enriched
from d1_log_aggregation_ray.sources.compact import compact_output
from d1_log_aggregation_ray.sources.export import export_conversations_jsonl
from d1_log_aggregation_ray.state.manifest import Manifest
from test_compact import _read_sorted
from test_export import _valid_sorted_corpus
from test_oracle_parity import SF_DIR, _check_query_vs_oracle

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
    # no bucket retry: a refused operator fails the run at once
    cfg = dataclasses.replace(DEFAULT_CONFIG, source_retry_attempts=0)
    s = run_harvest(fx_dir, str(tmp_path / "out"), cfg=cfg, resume=False)
    with open(os.path.join(fx_dir, "meta.json")) as f:
        assert s["rows_out_total"] == json.load(f)["n_valid"] == len(want)
    for col in FLAGS:
        assert s[col] == int(want[col].sum()), col


def _exported_rows(man) -> list[tuple]:
    rows = []
    for r in man:
        with open(r["out_path"]) as f:
            for line in f:
                c = json.loads(line)
                rows += [(c["conv_id"], t["turn_idx"], t["role"], t["text"],
                          t["tool"], t["ts_us"]) for t in c["turns"]]
    return sorted(rows, key=lambda r: (r[0], r[1]))


def test_registry_bucket_stages_run_no_from_items(fx_dir, tmp_path,
                                                  monkeypatch):
    """With ray.data.from_items and ray.data.read_parquet refused, the
    bucket-scan queries, q_watermark and every other transcript query
    still match their DuckDB oracles (they all read through
    scan_buckets), the export writes every valid turn once, and
    compaction merges every multi-file leaf without changing a row."""
    import duckdb
    import ray.data

    def refuse(name):
        def raise_(*args, **kwargs):
            raise AssertionError(f"a per-bucket stage ran ray.data.{name}")
        return raise_

    for name in ("from_items", "read_parquet"):
        monkeypatch.setattr(ray.data, name, refuse(name))
    con = duckdb.connect()
    for name in ("conv_dedup", "tool_transitions", "repeat_visit",
                 "watermark", "fork_dedup",
                 "clean_project", "parse_flags", "membership_flags",
                 "enrich_meta", "route_counts", "geo_enrich",
                 "watermark_salted", "role_length_quantiles",
                 "top_tool_per_conv", "rollup_counts"):
        _check_query_vs_oracle(name, SF_DIR, con)

    man = export_conversations_jsonl(fx_dir, str(tmp_path / "export")
                                     ).take_all()
    assert len(man) == 32 and not any(r["skipped"] for r in man)
    want = _valid_sorted_corpus(fx_dir)
    assert sum(r["n_turns"] for r in man) == want.num_rows
    ts = want.column("ts").cast(pa.int64())
    assert _exported_rows(man) == list(zip(
        *(want.column(c).to_pylist()
          for c in ("conv_id", "turn_idx", "role", "text", "tool")),
        ts.to_pylist()))

    # small slices: most leaves hold several files
    out = str(tmp_path / "harvest")
    run_harvest(fx_dir, out, resume=False, cfg=dataclasses.replace(
        DEFAULT_CONFIG, write_slice_rows=64))
    files = {d: len(glob.glob(os.path.join(d, "*.parquet")))
             for d in {os.path.dirname(p) for p in glob.glob(os.path.join(
                 out, "bucket_id=*", "sink_id=*", "*.parquet"))}}
    assert max(files.values()) > 1
    before = _read_sorted(out)
    man = compact_output(out).take_all()
    assert {r["leaf_dir"]: (r["n_in_files"], r["action"]) for r in man} == {
        d: (n, "merged" if n > 1 else "skip") for d, n in files.items()}
    assert all(len(glob.glob(os.path.join(d, "*.parquet"))) == 1
               for d in files)
    assert _read_sorted(out).equals(before)


def test_zero_row_bucket_file(fx_dir, tmp_path, monkeypatch):
    """A bucket file with no rows at all reaches every per-bucket
    kernel as an empty table: the queries still match their oracles
    over the same corpus, the export writes an empty shard and the
    harvest commits the bucket with rows_out 0."""
    import duckdb

    corpus = str(tmp_path / "corpus")
    shutil.copytree(fx_dir, corpus)
    part = os.path.join(corpus, "transcripts", "part-03.parquet")
    pq.write_table(pq.read_schema(part).empty_table(), part)
    monkeypatch.setattr(queries, "_fx", lambda sf_dir: corpus)
    con = duckdb.connect()
    for name in ("conv_dedup", "sft_pairs", "watermark", "enrich_meta"):
        _check_query_vs_oracle(name, SF_DIR, con)

    man = export_conversations_jsonl(corpus, str(tmp_path / "export")
                                     ).take_all()
    shard = next(r for r in man if r["bucket_file"] == part)
    assert (shard["n_convs"], shard["n_turns"]) == (0, 0)
    assert os.path.getsize(shard["out_path"]) == 0

    out = str(tmp_path / "out")
    s = run_harvest(corpus, out, resume=False)
    rec = Manifest(os.path.join(out, "_manifest.jsonl")).latest_complete()[3]
    assert rec["rows_out"] == 0 and rec["stages"]["scan"]["rows_read"] == 0
    assert s["buckets"] == 32
    assert s["rows_out_total"] == len(oracle_enriched(corpus)) > 0


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
run_harvest(sys.argv[1], sys.argv[2], resume=False)
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
