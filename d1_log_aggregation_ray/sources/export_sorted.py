"""Range-partitioned SORTED parquet export — the scale-safe global
sort: a totally-ordered corpus materialized as K shards where shard i's
keys all precede shard i+1's and each shard is internally sorted, so a
downstream consumer gets global order by reading shards in id order
(merge-free).

Why not ds.sort(): a monolithic global sort is the most expensive
all-to-all in the system and couples shard count to Ray's internal
partitioning.  This sink does the classic sample-sort instead:

  1. BOUNDS — one streaming pass samples the key column per block
     (bytes-sized partials, driver merge), quantile cut points become
     the shard ranges; or the caller passes explicit bounds (a
     domain-known layout, reproducible by the SQL oracle).
  2. PARTITION — map_batches assigns shard = searchsorted(bounds, k)
     (one exchange_groups on the shard id, K ~ cluster size).
  3. WRITE — each shard sorts ITS OWN rows in-task and writes one
     parquet file atomically (tmp + rename, the S6 sink idempotency
     analog; a re-run overwrites with identical content).

Reference analog: the ordered-page harvest ordering guarantee
(O1, LogHarvesterTask.java:239-247's dateLogged ascending paging)
turned into a persistent artifact.

NULL keys are dropped (documented; a total order has no place for
them and the SQL oracle mirrors the filter).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..functions.parts import collect, exchange_groups


def sample_range_bounds(ds: ray.data.Dataset, key: str,
                        n_shards: int, per_block: int = 256) -> list[int]:
    """Sample-sort cut points: evenly-strided per-block key samples
    (a bytes-sized combiner) merged on the driver, quantiles become
    the n_shards - 1 bounds.  Deterministic given the block layout."""

    def sample(batch: pa.Table) -> pa.Table:
        col = batch.column(key).combine_chunks()
        col = col.filter(col.is_valid())
        k = np.sort(col.to_numpy(zero_copy_only=False))
        if len(k) > per_block:
            idx = np.linspace(0, len(k) - 1, per_block).astype(np.int64)
            k = k[idx]
        return pa.table({"k": pa.array(k.astype(np.int64), pa.int64())})

    t = collect(ds.select_columns([key]).map_batches(
        sample, batch_format="pyarrow", zero_copy_batch=True))
    if not t.num_rows:
        return []
    k = np.sort(t.column("k").to_numpy())
    qs = np.linspace(0, len(k) - 1, n_shards + 1)[1:-1].astype(np.int64)
    return sorted(set(int(v) for v in k[qs]))


def export_sorted_parquet(ds: ray.data.Dataset, key: str, out_dir: str,
                          bounds: list[int] | None = None,
                          n_shards: int = 16) -> ray.data.Dataset:
    """Write `ds` as range-partitioned sorted parquet shards under
    `out_dir` when called; returns the materialized manifest
    (shard_id, path, n_rows, min_v, max_v).  Keys must be
    integer-valued; rows with NULL keys are dropped.  Shard i holds
    keys in [bounds[i-1], bounds[i]) — global order = shards in id
    order, each internally sorted."""
    if bounds is None:
        bounds = sample_range_bounds(ds, key, n_shards)
    b = np.asarray(sorted(bounds), dtype=np.int64)
    os.makedirs(out_dir, exist_ok=True)

    def assign(batch: pa.Table) -> pa.Table:
        col = batch.column(key).combine_chunks()
        if col.null_count:
            batch = batch.filter(col.is_valid())
            col = batch.column(key).combine_chunks()
        k = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        shard = np.searchsorted(b, k, side="right")
        return batch.append_column("_shard",
                                   pa.array(shard, pa.int64()))

    def write_shard(group: pa.Table) -> pa.Table:
        sid = int(group.column("_shard")[0].as_py())
        t = group.drop_columns(["_shard"]).combine_chunks().sort_by(
            [(key, "ascending")])
        path = os.path.join(out_dir, f"shard-{sid:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(t, tmp, row_group_size=128 * 1024)
        os.replace(tmp, path)
        kv = t.column(key).cast(pa.int64())
        return pa.table({
            "shard_id": pa.array([sid], pa.int64()),
            "path": pa.array([path]),
            "n_rows": pa.array([t.num_rows], pa.int64()),
            "min_v": pa.array([kv[0].as_py()], pa.int64()),
            "max_v": pa.array([kv[-1].as_py()], pa.int64())})

    return exchange_groups(ds.map_batches(assign, batch_format="pyarrow",
                                          zero_copy_batch=True),
                           "_shard", write_shard)
