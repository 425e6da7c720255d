"""S7 + C6: point-query source and incremental re-enrichment.

Reference analogs:
  - S7 Solr query source: page all index docs matching pid:<escaped>
    back into POJOs (SystemMetadataEntryListener.java:143-178)
    -> hash-pruned read of the enriched output: conv_id determines its
    bucket (bucket = md5_lower64(conv_id) % n_buckets), so a point
    query touches exactly ONE bucket directory, not the whole output.
  - C6 sysmeta-change re-enrichment listener: on sysmeta add/update,
    re-query all records for that pid, re-run the sysmeta join, set
    dateUpdated=now, re-publish in batches
    (SystemMetadataEntryListener.java:109-218)
    -> reenrich_convs: re-read only the affected buckets, re-apply the
    conv_meta join for the changed convs, stamp date_updated, and
    atomically overwrite just those bucket partitions.
"""

from __future__ import annotations

import os
import shutil
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..config import PipelineConfig, DEFAULT_CONFIG
from ..functions.hashing import md5_lower64
from ..sources.readers import load_side_tables


def bucket_for_conv(conv_id: str, cfg: PipelineConfig = DEFAULT_CONFIG) -> int:
    return md5_lower64(conv_id) % cfg.n_buckets


def _recover_bucket(bdir: str) -> None:
    """Crash recovery for the swap in reenrich_convs: a kill between
    demote and promote leaves bdir missing with bdir.old present —
    restore the old data before any read."""
    old = bdir + ".old"
    if not os.path.isdir(bdir) and os.path.isdir(old):
        os.replace(old, bdir)


def retrieve_turns(out_dir: str, conv_id: str,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Point query: all enriched turns of one conv, reading only its
    hash bucket (S7 analog; replaces paged Solr pid queries)."""
    bdir = os.path.join(out_dir, f"bucket_id={bucket_for_conv(conv_id, cfg)}")
    _recover_bucket(bdir)
    if not os.path.isdir(bdir):
        # bucket never produced output (all rows filtered / unknown
        # conv): a point query is a no-op, like an empty Solr result —
        # with the REAL enriched schema when any sibling bucket exists
        import glob
        for sib in sorted(glob.glob(os.path.join(out_dir, "bucket_id=*"))):
            if os.path.isdir(sib):
                return pads.dataset(sib, partitioning="hive").schema.empty_table()
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int32())})
    dset = pads.dataset(bdir, partitioning="hive")
    t = dset.to_table(filter=pads.field("conv_id") == conv_id)
    return t.sort_by("turn_idx")


def _reenrich_bucket(bdir: str, changed: pa.Array, side, sentinel_us: int,
                     n_sinks: int) -> int:
    """Rework ONE bucket: re-apply the conv_meta join for the changed
    convs (every other row rewritten byte-identical) and swap the
    partition atomically.  Returns the number of updated rows."""
    _recover_bucket(bdir)
    if not os.path.isdir(bdir):
        return 0
    dset = pads.dataset(bdir, partitioning="hive")
    t = dset.to_table()
    hit = pc.fill_null(pc.is_in(t.column("conv_id"), value_set=changed), False)
    n_hit = pc.sum(pc.cast(hit, pa.int64())).as_py() or 0
    if n_hit == 0:
        return 0
    # re-run J1/J3 for hit rows (vectorized over the whole bucket,
    # then blended by mask)
    enc = t.column("conv_id").combine_chunks().dictionary_encode()
    rows = side.meta_rows(np.array(enc.dictionary.to_pylist(), dtype=str))
    fresh = side.meta_columns(rows[enc.indices.to_numpy()])
    for col, new in fresh.items():
        blended = pc.if_else(hit, new, t.column(col).combine_chunks())
        t = t.set_column(t.schema.get_field_index(col), col, blended)
    du = pa.array(np.full(t.num_rows, sentinel_us), type=pa.int64()).cast(
        pa.timestamp("us"))
    t = t.set_column(t.schema.get_field_index("date_updated"),
                     "date_updated",
                     pc.if_else(hit, du,
                                t.column("date_updated").combine_chunks()))
    # partition-atomic swap
    tmp = bdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    import pyarrow.parquet as pq
    for s in range(n_sinks):
        sub = t.filter(pc.equal(t.column("sink_id"), s))
        if sub.num_rows == 0:
            continue
        sdir = os.path.join(tmp, f"sink_id={s}")
        os.makedirs(sdir)
        pq.write_table(sub.drop_columns(["sink_id"]),
                       os.path.join(sdir, "part-00000.parquet"))
    # crash-safe swap: demote old, promote new, then drop old — a
    # kill between steps leaves either the old or the new bucket
    # present, never neither
    old = bdir + ".old"
    shutil.rmtree(old, ignore_errors=True)
    os.replace(bdir, old)
    os.replace(tmp, bdir)
    shutil.rmtree(old)
    return int(n_hit)


@ray.remote
def _reenrich_bucket_task(bdir: str, changed: pa.Array, side_ref,
                          sentinel_us: int, n_sinks: int) -> int:
    return _reenrich_bucket(bdir, changed, side_ref, sentinel_us, n_sinks)


def reenrich_convs(out_dir: str, fx_dir: str, conv_ids: list[str],
                   update_ts: datetime,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Incremental update: re-apply the conv_meta join for the given
    convs across their affected buckets; every other row is rewritten
    byte-identical.  Partition-atomic per bucket (the idempotent-
    overwrite analog of Solr upsert-by-id).

    Buckets are reworked in PARALLEL Ray tasks — the bucket table never
    touches the driver (a bucket is corpus/n_buckets rows at design
    scale), and the side tables ship once via ray.put.  The raw Ray
    tasks are deliberate: this is whole-partition rewrite-and-swap
    state mutation, not a per-record transform (SURVEY custom-operator
    rule (c))."""
    side = load_side_tables(fx_dir)
    changed = pa.array(sorted(set(conv_ids)))
    buckets = sorted({bucket_for_conv(c, cfg) for c in conv_ids})
    from ..functions.hashing import epoch_us
    sentinel_us = epoch_us(update_ts)
    side_ref = ray.put(side)
    changed_ref = ray.put(changed)  # ship the change set once, not per task
    futs = [_reenrich_bucket_task.remote(
        os.path.join(out_dir, f"bucket_id={b}"), changed_ref, side_ref,
        sentinel_us, cfg.n_sinks) for b in buckets]
    rows_updated = sum(ray.get(futs))

    return {"buckets_touched": buckets, "rows_updated": int(rows_updated),
            "date_updated": update_ts.isoformat()}
