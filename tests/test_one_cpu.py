"""A 1-CPU cluster runs the harvest, the repeat-visit query, the
export, the tar-shard export, the compaction, an exchange query, the
enrich query (the side-table ref captured in its bucket scan function)
and the rollup query to completion.  Every per-bucket or per-file task
requests exactly 1 CPU: a request above 1 CPU could never be scheduled
on such a pool, and the entry point would hang.  All eight run in one
subprocess under one timeout."""

import json
import os
import signal
import subprocess
import sys
import tarfile

import pytest

from test_oracle_parity import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(SF_DIR, "documents.parquet")
TIMEOUT_S = 240

_SCRIPT = """
import json, os, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
from d1_log_aggregation_ray.pipelines.harvest import run_harvest
from d1_log_aggregation_ray.pipelines.queries import (q_conv_dedup,
                                                      q_enrich_meta,
                                                      q_repeat_visit,
                                                      q_rollup_counts)
from d1_log_aggregation_ray.sources.compact import compact_output
from d1_log_aggregation_ray.sources.export import export_conversations_jsonl
from d1_log_aggregation_ray.sources.export_tar import export_tar_shards
fx, out, docs = sys.argv[1], sys.argv[2], sys.argv[3]
s = run_harvest(fx, os.path.join(out, "harvest"), resume=False)
rv = q_repeat_visit(fx).take_all()
exp = export_conversations_jsonl(fx, os.path.join(out, "export")).take_all()
comp = compact_output(os.path.join(out, "harvest")).take_all()
conv = q_conv_dedup(fx).take_all()
docs = ray.data.read_parquet(docs, columns=["doc_id", "text"])
tar = export_tar_shards(docs, os.path.join(out, "tar"),
                        capacity=8192).take_all()
meta = q_enrich_meta(fx).count()
roll = q_rollup_counts(fx)
grand = roll.filter(roll.column("role").is_null())
print(json.dumps({"rows": s["rows_out_total"],
                  "repeat": s["is_repeat_visit"],
                  "q_repeat": sum(bool(r["is_repeat_visit"]) for r in rv),
                  "export_turns": sum(r["n_turns"] for r in exp),
                  "compact_leaves": len(comp),
                  "conv_dedup": sorted(r["conv_id"] for r in conv),
                  "tar_paths": [r["path"] for r in tar],
                  "enrich_meta": meta,
                  "rollup_total": grand.column("n").to_pylist()}))
ray.shutdown()
"""


def test_harvest_on_one_cpu(fx_dir, tmp_path):
    import glob
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from d1_log_aggregation_ray.pipelines.oracle import oracle_enriched
    from d1_log_aggregation_ray.pipelines.queries import q_conv_dedup

    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, fx_dir, str(tmp_path), DOCS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=REPO, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"entry points on a 1-CPU cluster ran past "
                    f"{TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.strip().splitlines()[-1])
    want = oracle_enriched(fx_dir)
    assert got["rows"] == len(want)
    assert got["enrich_meta"] == len(want)
    assert got["rollup_total"] == [len(want)]
    assert got["repeat"] == int(want["is_repeat_visit"].sum()) > 0
    assert got["q_repeat"] == got["repeat"]
    conv = pq.read_table(os.path.join(fx_dir, "transcripts"),
                         columns=["conv_id"]).column("conv_id")
    # the export writes every turn with a non-empty conv_id
    assert got["export_turns"] == pc.sum(
        pc.fill_null(pc.not_equal(conv, ""), False)).as_py()
    leaves = {os.path.dirname(p) for p in glob.glob(os.path.join(
        tmp_path, "harvest", "bucket_id=*", "sink_id=*", "*.parquet"))}
    assert got["compact_leaves"] == len(leaves) > 0
    # the exchange result on a 1-CPU pool equals the one on the test
    # suite's 4-CPU pool
    assert got["conv_dedup"] == sorted(
        r["conv_id"] for r in q_conv_dedup(fx_dir).take_all())
    # the tar shards, written through two exchanges, hold every doc once
    members = []
    for p in got["tar_paths"]:
        with tarfile.open(p) as tf:
            members += [int(n[:-4]) for n in tf.getnames()
                        if n.endswith(".txt")]
    ids = pq.read_table(DOCS, columns=["doc_id"]).column("doc_id")
    assert sorted(members) == sorted(ids.to_pylist())
