"""Log-analytics window family over the `events` stream: ordered-step
funnels, cohort retention, and event-level session assignment — the
three classic telemetry rollups a log-aggregation service serves
(reference analog: the per-node event counters + repeat-visit window
of LogAggregator, re-expressed over user journeys).

All three share the house scale shape: one `exchange` on the user
key, then ONE vectorized numpy scan
per partition — no per-user python, no driver materialization beyond
tiny bounded aggregates (funnel: len(steps) rows; retention:
(cohort_day x offset) rows, merged via hash_partition_aggregate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import collect, exchange
from .relational import _seg_keys

_DAY_US = 86_400_000_000


def funnel_counts(ds: ray.data.Dataset, steps: list[str],
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  window_s: int | None = None) -> ray.data.Dataset:
    """Strict ordered funnel by first occurrence: a user reaches step k
    iff they have a step-k event STRICTLY after their first qualifying
    step-(k-1) event (t_k = min ts of step-k events with ts > t_{k-1}).
    With `window_s`, the step-k event must ALSO fall within window_s
    seconds of t_{k-1} (the windowed-conversion funnel; an event past
    the window does not qualify even if a later one would chain on).
    Returns one row per step: (step 1-based, event_type, n_users).

    Scale shape: rows are pruned to the funnel's event types at the
    read/filter, each user's whole journey lands in one hash partition,
    and the per-partition scan is per-STEP vectorized (np.minimum.at
    over user slots — no per-user loop, no sort needed).  The driver
    sums len(steps) rows per partition.
    """
    step_idx = {s: i for i, s in enumerate(steps)}
    steps_arr = pa.array(steps, pa.string())

    def step_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_in(batch.column(type_col), value_set=steps_arr),
                    pc.is_valid(batch.column(ts_col))),
            pc.is_valid(batch.column(user_col)))
        batch = batch.filter(keep)
        t = batch.column(type_col).combine_chunks()
        # event_type -> step index via dictionary encode (vectorized)
        d = t.dictionary_encode()
        lut = np.array([step_idx[v.as_py()] for v in d.dictionary],
                       dtype=np.int64) if len(d.dictionary) else \
            np.empty(0, np.int64)
        sidx = lut[d.indices.to_numpy(zero_copy_only=False)] \
            if batch.num_rows else np.empty(0, np.int64)
        return pa.table({
            "u": batch.column(user_col),
            "sidx": pa.array(sidx),
            "ts": batch.column(ts_col),
        })

    n_steps = len(steps)
    window_us = None if window_s is None else float(window_s) * 1e6

    def partition_scan(group: pa.Table) -> pa.Table:
        u = _seg_keys(group.column("u"))
        uniq, uidx = np.unique(u, return_inverse=True)
        sidx = group.column("sidx").to_numpy(zero_copy_only=False)
        ts = group.column("ts").combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        n_users = len(uniq)
        t_prev = np.full(n_users, -np.inf)
        counts = np.zeros(n_steps, dtype=np.int64)
        for k in range(n_steps):
            mask = (sidx == k) & (ts > t_prev[uidx])
            if window_us is not None and k > 0:
                mask &= ts <= t_prev[uidx] + window_us
            tk = np.full(n_users, np.inf)
            np.minimum.at(tk, uidx[mask], ts[mask].astype(np.float64))
            counts[k] = int((tk < np.inf).sum())
            t_prev = tk
        return pa.table({"step": pa.array(np.arange(1, n_steps + 1)),
                         "n": pa.array(counts)})

    partials = exchange(ds.map_batches(step_rows, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        "u", partition_scan)

    # bounded merge: len(steps) rows per partition, summed on the driver
    t = collect(partials)
    n = np.zeros(n_steps, np.int64)
    if t.num_rows:
        np.add.at(n, t.column("step").to_numpy() - 1, t.column("n").to_numpy())
    return ray.data.from_arrow(pa.table({
        "step": pa.array(np.arange(1, n_steps + 1)),
        "event_type": steps_arr, "n_users": pa.array(n)}))


def retention_counts(ds: ray.data.Dataset, user_col: str = "user_id",
                     ts_col: str = "ts") -> ray.data.Dataset:
    """Cohort retention: users are cohorted by their FIRST active day;
    for every (cohort_day, day_offset) cell, the number of cohort users
    active on cohort_day + day_offset.  Returns
    (cohort_day timestamp, day_offset int64, n_users int64).

    Scale shape: batches collapse to distinct (user, day) pairs before
    the exchange (combiner), each user's days land in one hash
    partition, the per-partition scan is one sort + reduceat, and the
    (cohort, offset) partial counts merge via hash_partition_aggregate
    (cells can be numerous at year-scale corpora — never collected on
    the driver).
    """

    def user_days(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(ts_col)),
                       pc.is_valid(batch.column(user_col)))
        batch = batch.filter(keep)
        u = _seg_keys(batch.column(user_col))
        ts = batch.column(ts_col).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        day = ts // _DAY_US
        # per-batch combiner: distinct (user, day)
        pairs = np.unique(np.stack([u, day], axis=1), axis=0) \
            if len(u) else np.empty((0, 2), np.int64)
        return pa.table({
            "u": pa.array(np.ascontiguousarray(pairs[:, 0])),
            "day": pa.array(pairs[:, 1]),
        })

    def partition_scan(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        day = group.column("day").to_numpy(zero_copy_only=False)
        # cross-batch distinct within the partition
        pairs = np.unique(np.stack([u, day], axis=1), axis=0)
        uu, dd = pairs[:, 0], pairs[:, 1]
        starts = np.flatnonzero(np.r_[True, uu[1:] != uu[:-1]])
        d0 = np.minimum.reduceat(dd, starts)
        seg = np.cumsum(np.r_[False, uu[1:] != uu[:-1]])
        offset = dd - d0[seg]
        cohort = d0[seg]
        cells, counts = np.unique(np.stack([cohort, offset], axis=1),
                                  axis=0, return_counts=True)
        return pa.table({"cohort_day": pa.array(
                             np.ascontiguousarray(cells[:, 0])),
                         "day_offset": pa.array(
                             np.ascontiguousarray(cells[:, 1])),
                         "n": pa.array(counts.astype(np.int64))})

    partials = exchange(ds.map_batches(user_days, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        "u", partition_scan)

    from ..stages.aggregate import hash_partition_aggregate
    merged = hash_partition_aggregate(
        partials, ["cohort_day", "day_offset"], [("n", "sum")],
        rename={"n_sum": "n_users"})

    def finalize(batch: pa.Table) -> pa.Table:
        cd = pc.cast(pc.multiply(batch.column("cohort_day"),
                                 pa.scalar(_DAY_US, pa.int64())),
                     pa.timestamp("us"))
        return pa.table({"cohort_day": cd,
                         "day_offset": batch.column("day_offset"),
                         "n_users": pc.cast(batch.column("n_users"),
                                            pa.int64())})

    return merged.map_batches(finalize, batch_format="pyarrow")


def session_ids(ds: ray.data.Dataset, gap_s: int = 1800,
                user_col: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id") -> ray.data.Dataset:
    """Event-level session assignment: every event gets its user's
    1-based session sequence number (a new session starts when the gap
    from the previous event exceeds gap_s; order (ts, id)).  Returns
    (event_id, session_seq) — the row-level companion of the
    per-user `sessionize` aggregate (ops/sessions.py).

    Scale shape: one hash exchange on user, one lexsort + cumsum per
    partition; output rows == input rows, emitted from the scan
    (never collected).
    """
    gap_us = gap_s * 1_000_000

    def user_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column(ts_col).combine_chunks().is_valid())
        return pa.table({
            "u": pa.array(_seg_keys(batch.column(user_col))),
            id_col: batch.column(id_col),
            ts_col: batch.column(ts_col),
        })

    def partition_scan(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        ts = group.column(ts_col).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        eid = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        us, tss = u[order], ts[order]
        new_user = np.r_[True, us[1:] != us[:-1]]
        new_sess = new_user | np.r_[False, tss[1:] - tss[:-1] > gap_us]
        sess_cum = np.cumsum(new_sess)
        starts = np.flatnonzero(new_user)
        seg = np.cumsum(new_user) - 1
        seq = sess_cum - sess_cum[starts][seg] + 1
        out = np.empty_like(seq)
        out[order] = seq
        return pa.table({id_col: group.column(id_col),
                         "session_seq": pa.array(out.astype(np.int64))})

    return exchange(ds.map_batches(user_rows, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "u", partition_scan)
