"""Training-shard packing: assign each document to a fixed token-budget
shard by GLOBAL cumulative token count in id order — the "chunk the
corpus into ~N-token files" step that precedes tokenizer/loader work.

Spec (SQL-expressible, so it gets a real DuckDB oracle):
    cum_before(d) = sum of n_tokens over all docs with id < d.id
    shard_id(d)   = cum_before // capacity
    shard_off(d)  = cum_before %  capacity
A document never moves shards when the corpus grows (append-only ids),
and a shard holds ~capacity tokens (oversized docs simply push the
boundary — they are not split).

Scale shape (`range_scan`, the distributed prefix-sum / scan
primitive, shared with the tar export in sources/export_tar.py):
  pass 1  (narrow: id//range_width, length): per-batch combiner sums
          lengths per contiguous id RANGE, merged by the house
          hash-partition aggregate — the exchange carries one row per
          range, never per doc.  The driver exclusive-cumsums the
          per-range totals in range order (corpus_ids/range_width
          rows: tiny); the offset table rides the pass-2 closure, which
          `exchange` broadcasts with one ray.put.
  pass 2  one `exchange_groups` on the range, ONE vectorized
          argsort+cumsum per range; each row's global prefix = range
          offset + local exclusive cumsum.  Only the caller's columns
          cross the exchange (id, n_tokens for pack_shards).
The input lineage is consumed twice (offsets, then scan) — same
documented parquet-read assumption as the dedup tail; callers handing
a derived dataset should materialize the narrow projection first.

Partitioning contract: ranges are id//range_width, so one range's
scan sees at most range_width rows — pick it so a range fits a worker
heap; the driver state stays at one int per NON-EMPTY range.  ids
must be unique (a PK): duplicate ids would make the within-range
ordering — and hence the oracle window — ambiguous.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.parts import collect, exchange_groups, int_key_array
from ..stages.aggregate import hash_partition_aggregate


def _ranges(ids: np.ndarray, range_width: int) -> np.ndarray:
    # floor division keeps ranges ordered for negative ids too
    return np.floor_divide(ids, np.int64(range_width))


def range_scan(ds: ray.data.Dataset, id_col: str, len_col: str,
               range_width: int, capacity: int) -> ray.data.Dataset:
    """Every row of `ds` plus shard_id and shard_off: its global
    exclusive `len_col` prefix in id order, // and % capacity.  Pass 1
    sums `len_col` per id range (one row per non-empty range reaches
    the driver, which cumsums them in range order); pass 2 is one
    exchange_groups on the range and one argsort + cumsum per range."""

    def range_partial(batch: pa.Table) -> pa.Table:
        ids = int_key_array(batch.column(id_col))
        return pa.table({
            "rng": pa.array(_ranges(ids, range_width)),
            "n": pa.array(int_key_array(batch.column(len_col)))}
        ).group_by("rng").aggregate([("n", "sum")])

    t = collect(hash_partition_aggregate(
        ds.select_columns([id_col, len_col]).map_batches(
            range_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["rng"], [("n_sum", "sum")]))
    rng_v = off_v = np.empty(0, np.int64)    # no rows: scan never runs
    if t.num_rows:
        t = t.sort_by("rng")
        rng_v = t.column("rng").to_numpy()
        tot = t.column("n_sum_sum").to_numpy()
        off_v = np.cumsum(tot) - tot

    def add_rng(batch: pa.Table) -> pa.Table:
        ids = int_key_array(batch.column(id_col))
        return batch.append_column(
            "_rng", pa.array(_ranges(ids, range_width)))

    def scan(group: pa.Table) -> pa.Table:
        order = np.argsort(int_key_array(group.column(id_col)),
                           kind="stable")
        n = int_key_array(group.column(len_col))[order]
        cum = off_v[np.searchsorted(
            rng_v, group.column("_rng")[0].as_py())] + np.cumsum(n) - n
        return group.take(pa.array(order)).drop_columns(
            ["_rng"]).append_column(
            "shard_id", pa.array(cum // capacity)).append_column(
            "shard_off", pa.array(cum % capacity))

    return exchange_groups(ds.map_batches(add_rng, batch_format="pyarrow",
                                          zero_copy_batch=True),
                           "_rng", scan)


def pack_shards(ds: ray.data.Dataset, capacity: int,
                range_width: int = 4096,
                id_col: str = "doc_id",
                tok_col: str = "n_tokens") -> ray.data.Dataset:
    """(id, shard_id, shard_off) per the module-docstring spec.
    `ds` must already carry the integer token-count column (compose
    with ops.text.token_count_batch)."""
    return range_scan(ds.select_columns([id_col, tok_col]), id_col,
                      tok_col, range_width, capacity
                      ).select_columns([id_col, "shard_id", "shard_off"])
