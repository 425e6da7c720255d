"""W1: repeat-visit ("double-click") detection — the order-dependent
windowed operator.

Semantics (production path of the reference, LogEntrySolrItem.java:
341-342,444-474; chosen over the ReadEventCounterCache variant per
SURVEY §5): per key (conv_id, role), scanning turns in turn_idx order,
a turn at time t is a repeat iff

    window_start < t < window_start + 31 s   (strict both sides)

where window_start is reset to t whenever the condition fails.  Only
gate-role turns (R1 analog: eventsToCheck == {"read"},
LogHarvesterTask.java:140) participate; turns with null ts are never
repeats and do not move the window.

The reference runs this as a single shared mutable cache over a
globally ordered stream (ReadEventCounterCache.java:35-187).  Here the
state never crosses (conv_id, role) boundaries, so it parallelizes as a
sort + sequential scan per conv.  The harvest and the registry run it
with NO exchange: the corpus is conv-hash partitioned, so
bucket_window_scan processes one whole bucket block per task, early on
the narrow 6-column input.  The tests hold it to a one-conv-at-a-time
reference (tests/window_reference.py).

Scale note: a single conv is the unit of sequential work; the scan is a
tight loop over int64 ns values, ~10M turns/s/core.  Pathologically hot
convs (>> block size) would need salted partial scans with boundary-
window stitching.  Block row counts (the skew) are not recorded in the
manifest yet; ROADMAP Direction 2 plans it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig, DEFAULT_CONFIG


def repeat_visit_scan(ts_us: np.ndarray, valid: np.ndarray,
                      interval_end_us: int) -> np.ndarray:
    """Sequential window scan over one key's turns (already in turn order).

    ts_us: int64 microseconds; valid: bool mask (False = null ts).
    Returns bool repeat flags.
    """
    n = len(ts_us)
    out = np.zeros(n, dtype=bool)
    ws = None
    for i in range(n):
        if not valid[i]:
            continue
        t = ts_us[i]
        if ws is not None and ws < t < ws + interval_end_us:
            out[i] = True
        else:
            ws = t
    return out


def bucket_window_scan(batch: pa.Table,
                       cfg: PipelineConfig = DEFAULT_CONFIG,
                       check_bucket: bool = False) -> pa.Table:
    """Shuffle-free W1: process a WHOLE conv-hash bucket as one block.

    Partitioning assumption (documented per SURVEY §2 custom-operator
    rule): the input block contains every turn of every conv it touches
    (convs never span buckets — the generator hash-partitions by
    conv_id, and at 100 TB scale the bucket count scales with the data
    while this per-bucket scan stays a single vectorized sort + one
    linear pass).  This replaces groupby(conv_id).map_groups: no
    all-to-all exchange and no per-group Python overhead.  Every
    caller in the package reads whole bucket files; `check_bucket`
    verifies the contract and raises when a block breaks it.
    """
    batch = batch.combine_chunks().sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    n = batch.num_rows
    if n == 0:
        return batch.append_column("is_repeat_visit",
                                   pa.array(np.zeros(0, dtype=bool)))

    conv = batch.column("conv_id").combine_chunks()
    gidx = np.asarray(conv.dictionary_encode().indices)

    # D1 exact dedup by natural key (conv_id, turn_idx): duplicates are
    # adjacent after the sort; keep first (reference: Solr upsert-by-id
    # makes overlap harvests idempotent, LogHarvesterTask.java:431-435)
    tix = batch.column("turn_idx").combine_chunks().to_numpy(zero_copy_only=False)
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (gidx[1:] == gidx[:-1]) & (tix[1:] == tix[:-1])
    if dup.any():
        batch = batch.filter(pa.array(~dup))
        n = batch.num_rows
        conv = batch.column("conv_id").combine_chunks()
        gidx = np.asarray(conv.dictionary_encode().indices)

    if check_bucket:
        # GUARD the whole-bucket contract: every conv in this block
        # must hash to ONE bucket.  If a caller ever handed it a split
        # or merged bucket (a block cut by size, not by file), the
        # scan would silently reset window state mid-conv — fail loudly.
        from ..functions.hashing import md5_lower64
        uniq_str = conv.dictionary_encode().dictionary
        bvals = {md5_lower64(uniq_str[i].as_py()) % cfg.n_buckets
                 for i in range(len(uniq_str))}
        if len(bvals) > 1:
            raise AssertionError(
                f"bucket_window_scan got a block spanning {len(bvals)} "
                "conv-hash buckets — the whole-bucket partitioning contract "
                "is broken (pass whole bucket files, one per block)")

    repeat = np.zeros(n, dtype=bool)
    ts = batch.column("ts").combine_chunks()
    ts_us = ts.cast(pa.int64()).fill_null(0).to_numpy(zero_copy_only=False)
    ts_ok = ts.is_valid().to_numpy(zero_copy_only=False)
    interval_end_us = cfg.repeat_visit_interval_end_s * 1_000_000
    roles = batch.column("role")

    for role in cfg.gate_roles:
        mask = pc.fill_null(pc.equal(roles, role), False).to_numpy(
            zero_copy_only=False)
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        g = gidx[idx]
        t = ts_us[idx]
        v = ts_ok[idx]
        out = np.zeros(len(idx), dtype=bool)
        prev_g, ws, have = -1, 0, False
        for j in range(len(idx)):  # single pass over gated rows, all groups
            if g[j] != prev_g:
                prev_g = g[j]
                have = False
            if not v[j]:
                continue
            tj = t[j]
            if have and ws < tj < ws + interval_end_us:
                out[j] = True
            else:
                ws = tj
                have = True
        repeat[idx] = out

    return batch.append_column("is_repeat_visit", pa.array(repeat))
