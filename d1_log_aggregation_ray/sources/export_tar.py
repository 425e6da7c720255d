"""WebDataset-style tar-shard export sink: the corpus packed into
fixed-byte-budget `.tar` shards, each member pair `<doc_id>.txt`
(payload) + `<doc_id>.json` (metadata) — the loader-ready layout for
sequential-read training I/O (tar = one seek per shard, not per doc).

Shard assignment is the pack_shards spec applied to BYTE lengths:
    cum_before(d) = sum of octet_length(text) over docs with id < d.id
    shard_id(d)   = cum_before // capacity
so a doc never moves shards when the corpus grows (append-only ids),
the assignment is engine-independent (SQL window mirrors it), and a
shard holds ~capacity bytes (oversized docs push the boundary, never
split).

Scale shape:
  pass 1  ops/packing.range_scan's offsets pass over the NARROW
          (doc_id, n_bytes) projection: per-range sums via the house
          hash-partition aggregate, driver cumsum over one row per
          non-empty range.
  pass 2  range_scan over the full rows: one exchange_groups on
          rng = id // range_width computes each row's shard by the
          range base + local cumsum (vectorized), then ONE
          exchange_groups on shard_id writes each shard's tar inside
          the task (payload never touches the driver).
          Text rides two exchanges — the unavoidable reshard that
          moves every byte to its output shard, plus the range
          grouping that globally orders the cumsum; the narrow
          alternative (pack + distributed join) moves the text the
          same twice.
  writes  content-complete `.tar.tmp` + atomic rename, skip-if-exists
          — a killed export resumes at shard granularity (S6 sink
          semantics, reference analog LogHarvesterTask.java:446-480).

Determinism: members are ordered by id (= byte offset order),
tar headers carry fixed mtime/uid/gid, so a shard's bytes depend only
on corpus content — re-exports and different cluster sizes produce
byte-identical shards (tested).
"""

from __future__ import annotations

import io
import json
import os
import tarfile

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import exchange_groups
from ..ops.packing import range_scan

def _with_nbytes(batch: pa.Table, text_col: str) -> pa.Table:
    t = pc.fill_null(batch.column(text_col), "")
    return batch.append_column(
        "_nb", pc.cast(pc.binary_length(t), pa.int64()))


def export_tar_shards(ds: ray.data.Dataset, out_dir: str,
                      capacity: int, range_width: int = 4096,
                      id_col: str = "doc_id",
                      text_col: str = "text",
                      meta_cols: tuple[str, ...] = ()
                      ) -> ray.data.Dataset:
    """Pack `ds` into byte-budget tar shards under `out_dir`, writing
    them when called; returns the materialized shard manifest
    (shard_id, n_docs, n_bytes, path, skipped).  ids must be unique
    ints (the pack_shards PK contract)."""
    os.makedirs(out_dir, exist_ok=True)
    cols = [id_col, text_col, *meta_cols]
    base = ds.select_columns(cols).map_batches(
        _with_nbytes, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"text_col": text_col})
    assigned = range_scan(base, id_col, "_nb", range_width, capacity)

    def write_shard(group: pa.Table) -> pa.Table:
        sid = int(group.column("shard_id")[0].as_py())
        path = os.path.join(out_dir, f"shard-{sid:06d}.tar")
        skipped = os.path.exists(path)
        if not skipped:
            ordered = group.sort_by(id_col)
            ids = ordered.column(id_col).to_pylist()
            texts = pc.fill_null(ordered.column(text_col), "").to_pylist()
            metas = {c: ordered.column(c).to_pylist() for c in meta_cols}
            tmp = path + ".tmp"
            # per-member python is inherent to the tar container format;
            # the payload bytes are written straight from the arrow values
            with tarfile.open(tmp, "w") as tf:
                for i, did in enumerate(ids):
                    payload = texts[i].encode("utf-8")
                    meta = json.dumps(
                        {"doc_id": did,
                         **{c: metas[c][i] for c in meta_cols}},
                        sort_keys=True).encode("utf-8")
                    for suffix, data in ((".txt", payload),
                                         (".json", meta)):
                        ti = tarfile.TarInfo(name=f"{did:012d}{suffix}")
                        ti.size = len(data)
                        ti.mtime = 0
                        ti.uid = ti.gid = 0
                        ti.uname = ti.gname = ""
                        tf.addfile(ti, io.BytesIO(data))
            os.replace(tmp, path)
        return pa.table({
            "shard_id": pa.array([sid], pa.int64()),
            "n_docs": pa.array([group.num_rows], pa.int64()),
            "n_bytes": pa.array([pc.sum(group.column("_nb")).as_py()],
                                pa.int64()),
            "path": pa.array([path]),
            "skipped": pa.array([skipped])})

    return exchange_groups(assigned, "shard_id", write_shard)
