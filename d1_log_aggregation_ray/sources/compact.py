"""Sink compaction: merge the slice files inside each
`bucket_id=N/sink_id=S/` leaf of a harvest output tree into one
parquet file per leaf.

Why it exists at 100 TB: slice-level write parallelism (the skew
answer in pipelines/harvest._enrich_and_write_slice) deliberately fans
hot buckets into many small files; after enough harvest cycles a leaf
accumulates slice files and read amplification grows.  Compaction is
the standard maintenance pass: one raw Ray task per leaf,
read+merge+write entirely inside the task, content preserved
row-for-row.  The pass writes when called; only its small manifest
comes back.

Crash safety (no coordination, resumable, two-phase marker):
  1. write `_compacting.json` (tmp + atomic rename; `_`-prefixed so
     pyarrow dataset discovery ignores it) recording the merged file
     name and the exact input list;
  2. write the merged parquet to tmp, atomic-rename into place;
  3. delete the inputs, remove the marker.
A rerun after a crash reads the marker: merged file present -> finish
the deletes (renames are atomic, rows were never lost); merged file
absent -> the crash predated the data write, discard the marker and
start fresh.  A reader during the rename->delete window sees transient
duplicates, so compaction runs offline like any maintenance pass
(documented contract).  Single-file leaves are skipped untouched.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

_MANIFEST_SCHEMA = pa.schema([
    ("leaf_dir", pa.string()), ("n_in_files", pa.int64()),
    ("n_rows", pa.int64()), ("action", pa.string())])

_MARKER = "_compacting.json"


def _write_marker(leaf: str, merged: str, inputs: list[str]) -> None:
    tmp = os.path.join(leaf, _MARKER + ".tmp")
    with open(tmp, "w") as f:
        json.dump({"merged": merged,
                   "inputs": [os.path.basename(p) for p in inputs]}, f)
    os.replace(tmp, os.path.join(leaf, _MARKER))


def _compact_leaf(leaf: str) -> dict:
    marker_path = os.path.join(leaf, _MARKER)
    if os.path.exists(marker_path):
        with open(marker_path) as f:
            m = json.load(f)
        merged_path = os.path.join(leaf, m["merged"])
        if os.path.exists(merged_path):
            # crash between rename and deletes: finish the deletes
            for b in m["inputs"]:
                p = os.path.join(leaf, b)
                if os.path.exists(p):
                    os.remove(p)
            os.remove(marker_path)
            return {"leaf_dir": leaf, "n_in_files": len(m["inputs"]),
                    "n_rows": -1, "action": "finish"}
        # crash before the data write: marker is stale, start fresh
        os.remove(marker_path)

    inputs = sorted(glob.glob(os.path.join(leaf, "*.parquet")))
    if len(inputs) <= 1:
        return {"leaf_dir": leaf, "n_in_files": len(inputs),
                "n_rows": -1, "action": "skip"}
    merged_name = "merged-" + hashlib.md5(
        "\n".join(os.path.basename(f) for f in inputs).encode()
    ).hexdigest()[:16] + ".parquet"
    merged_path = os.path.join(leaf, merged_name)
    _write_marker(leaf, merged_name, inputs)
    t = pa.concat_tables([pq.read_table(f) for f in inputs])
    tmp = merged_path + ".tmp"
    pq.write_table(t, tmp, row_group_size=128 * 1024)
    os.replace(tmp, merged_path)
    for f in inputs:
        os.remove(f)
    os.remove(marker_path)
    return {"leaf_dir": leaf, "n_in_files": len(inputs),
            "n_rows": int(t.num_rows), "action": "merged"}


_compact_task = ray.remote(num_cpus=1)(_compact_leaf)


def compact_output(out_dir: str) -> ray.data.Dataset:
    """Compact every multi-file leaf of a harvest output tree, one task
    per leaf.  Writes when called; returns the compaction manifest
    (one row per leaf)."""
    leaves = sorted({os.path.dirname(p) for p in glob.glob(
        os.path.join(out_dir, "bucket_id=*", "sink_id=*",
                     "*.parquet"))})
    return ray.data.from_arrow(pa.Table.from_pylist(
        ray.get([_compact_task.remote(d) for d in leaves]),
        schema=_MANIFEST_SCHEMA))
