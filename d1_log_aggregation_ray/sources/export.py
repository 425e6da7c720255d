"""Conversation-grouped JSONL export sink: the training-data
deliverable shape (one JSON object per conversation, turns nested in
order) written as one shard per input bucket — resumable, atomic, and
distributed one-task-per-bucket like the harvest sink
(pipelines/harvest.py S6: content-complete shard + atomic rename;
reference analog LogHarvesterTask.java:446-480's batched sink submit).

Scale shape: each bucket file becomes exactly one raw Ray task (the
whole-bucket contract — convs never span buckets), the parquet read
and the JSONL write both happen inside the task (no object-store
transit of the payload), and a re-run skips shards whose output file
already exists, so a killed export resumes where it stopped.  The
export writes when called; only its small manifest comes back.  JSON
serialization is inherently per-item; everything before it (validity
filter, sort, segmentation) is Arrow/numpy.

Line format:
  {"conv_id": str, "turns": [{"turn_idx": int, "role": str|null,
    "text": str|null, "tool": str|null, "ts_us": int|null}, ...]}
Rows with null/empty conv_id are excluded (the M2 validity gate).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .readers import bucket_paths

_MANIFEST_SCHEMA = pa.schema([
    ("bucket_file", pa.string()), ("out_path", pa.string()),
    ("n_convs", pa.int64()), ("n_turns", pa.int64()),
    ("skipped", pa.bool_())])


def _export_one(path: str, out_dir: str) -> dict:
    out_path = os.path.join(
        out_dir, os.path.basename(path).replace(".parquet", ".jsonl"))
    if os.path.exists(out_path):
        return {"bucket_file": path, "out_path": out_path,
                "n_convs": -1, "n_turns": -1, "skipped": True}
    t = pq.read_table(path, columns=["conv_id", "turn_idx", "role",
                                     "text", "tool", "ts"])
    conv = t.column("conv_id")
    ok = pc.and_kleene(conv.is_valid(), pc.not_equal(conv, pa.scalar("")))
    t = t.filter(pc.fill_null(ok, False)).combine_chunks().sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = t.num_rows
    gidx = np.asarray(
        t.column("conv_id").combine_chunks().dictionary_encode().indices)
    is_start = np.r_[True, gidx[1:] != gidx[:-1]] if n else np.array([],
                                                                     bool)
    starts = np.flatnonzero(is_start)
    ts_us = t.column("ts").combine_chunks().cast(pa.int64()).to_pylist()
    cid = t.column("conv_id").to_pylist()
    tix = t.column("turn_idx").to_pylist()
    role = t.column("role").to_pylist()
    text = t.column("text").to_pylist()
    tool = t.column("tool").to_pylist()
    bounds = np.r_[starts, n]
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        for s, e in zip(bounds[:-1], bounds[1:]):
            f.write(json.dumps({
                "conv_id": cid[s],
                "turns": [{"turn_idx": tix[i], "role": role[i],
                           "text": text[i], "tool": tool[i],
                           "ts_us": ts_us[i]} for i in range(s, e)],
            }) + "\n")
    os.replace(tmp, out_path)
    return {"bucket_file": path, "out_path": out_path,
            "n_convs": int(len(starts)), "n_turns": int(n),
            "skipped": False}


_export_task = ray.remote(num_cpus=1)(_export_one)


def export_conversations_jsonl(fx_dir: str,
                               out_dir: str) -> ray.data.Dataset:
    """Export the transcript corpus as conversation-grouped JSONL, one
    shard per bucket, one task per shard.  Writes when called; returns
    the export manifest (one row per bucket: out path, conv/turn
    counts, resume-skip flag)."""
    os.makedirs(out_dir, exist_ok=True)
    refs = [_export_task.remote(p, out_dir)
            for p in bucket_paths(fx_dir).values()]
    return ray.data.from_arrow(pa.Table.from_pylist(
        ray.get(refs), schema=_MANIFEST_SCHEMA))
