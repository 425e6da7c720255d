"""Sessionization over the `events` stream table — the gaps-and-islands
cousin of the W1 repeat-visit window (same groupby-then-scan shape, but
expressible with a plain lag/cumsum, so it gets a SQL oracle).

Scale shape: one python call per HASH PARTITION of users (one
`exchange` on the user column), not one per user —
inside a partition every user's session count falls out of ONE
vectorized lexsort + diff over (user, ts) (a session boundary is a
row whose gap from the previous row exceeds gap_s OR whose user
differs), so many-small-users cost is O(n log n) per partition with
zero per-user python overhead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


from ..functions.parts import exchange
from .relational import _seg_keys


def sessionize(ds: ray.data.Dataset, gap_s: int = 1800,
               user_col: str = "user_id",
               ts_col: str = "ts") -> ray.data.Dataset:
    """Per-user session stats: a new session starts when the gap from
    the previous event exceeds gap_s.  Ties broken by event_id (total
    order, matching the SQL oracle's ORDER BY ts, event_id).

    Key-type generic: users are segmented via the 64-bit
    _seg_keys hash (int identity, md5-low64 for strings — the same
    documented 2^-64 merge risk as topk_per_key), and the OUTPUT key
    column carries the original values (first row of each segment),
    never the hash encoding."""
    gap_us = gap_s * 1_000_000

    def valid_ts(batch: pa.Table) -> pa.Table:
        # null-ts events carry no ordering information: excluded here
        # AND in the SQL oracle (WHERE ts IS NOT NULL).  Null USERS are
        # kept as one sentinel-keyed group (SQL GROUP BY emits a NULL
        # group).
        return batch.filter(batch.column(ts_col).combine_chunks().is_valid())

    def partition_scan(group: pa.Table) -> pa.Table:
        n = group.num_rows
        users = group.column(user_col).combine_chunks()
        u = _seg_keys(users)
        ts = group.column(ts_col).combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        us, tss = u[order], ts[order]
        new_user = np.r_[True, us[1:] != us[:-1]]
        new_sess = new_user | np.r_[False, tss[1:] - tss[:-1] > gap_us]
        starts = np.flatnonzero(new_user)
        counts = np.diff(np.r_[starts, n])
        sess_cum = np.cumsum(new_sess)
        sess_per_user = np.diff(np.r_[sess_cum[starts] - 1, sess_cum[-1]])
        # original key values, first row per segment — NOT the hash
        out_users = users.take(pa.array(order[starts]))
        return pa.table({user_col: out_users,
                         "n_events": pa.array(counts.astype(np.int64)),
                         "n_sessions": pa.array(
                             sess_per_user.astype(np.int64))})

    rows = ds.select_columns([user_col, "event_id", ts_col]).map_batches(
        valid_ts, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(rows, user_col, partition_scan)
