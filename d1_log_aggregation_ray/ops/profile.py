"""Single-pass table profiler — the audit step a 100 TB ingest runs
before anything else: per-column row count, null count, and numeric /
timestamp min-max, in ONE streaming pass with a bytes-sized combiner.

Reference analog: the harvest's per-node lineage stats (rows, flags,
max_ts rolled up per bucket, LogHarvesterTask.java:446-452)
generalized to whole-table column statistics.

Scale shape: each block contributes one partial row PER COLUMN (a few
hundred bytes); partials merge on the driver (bounded by n_columns x
n_blocks, never by rows).  Numeric min/max are carried as float64 —
exact for doubles and for integers below 2^53; a >2^53 integer key
column would need a dedicated int path (documented, not needed here).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import collect

_SCHEMA = pa.schema([
    ("col", pa.string()), ("n_rows", pa.int64()), ("n_null", pa.int64()),
    ("min_v", pa.float64()), ("max_v", pa.float64()),
])


def _partial(batch: pa.Table) -> pa.Table:
    rows = []
    n = batch.num_rows
    for name in batch.column_names:
        c = batch.column(name)
        nulls = c.null_count
        mn = mx = None
        t = c.type
        if pa.types.is_timestamp(t):
            c = c.cast(pa.int64())
            t = pa.int64()
        if (pa.types.is_integer(t) or pa.types.is_floating(t)) \
                and nulls < n:
            mm = pc.min_max(c)
            mn = float(mm["min"].as_py())
            mx = float(mm["max"].as_py())
        rows.append({"col": name, "n_rows": n, "n_null": nulls,
                     "min_v": mn, "max_v": mx})
    return pa.Table.from_pylist(rows, schema=_SCHEMA)


def profile_columns(ds: ray.data.Dataset) -> pa.Table:
    """Profile every column of `ds` in one streaming pass.  Returns a
    small driver-side table (col, n_rows, n_null, min_v, max_v) —
    min_v/max_v NULL for non-numeric, non-timestamp columns;
    timestamps profiled as epoch microseconds."""
    t = collect(ds.map_batches(_partial, batch_format="pyarrow",
                               zero_copy_batch=True))
    if not t.num_rows:
        return _SCHEMA.empty_table()
    t = t.combine_chunks()
    cols = t.column("col").to_pylist()
    nr = t.column("n_rows").to_numpy(zero_copy_only=False)
    nn = t.column("n_null").to_numpy(zero_copy_only=False)
    mn = t.column("min_v").to_numpy(zero_copy_only=False)
    mx = t.column("max_v").to_numpy(zero_copy_only=False)
    out = {}
    order = []
    for i, c in enumerate(cols):
        if c not in out:
            out[c] = [0, 0, np.nan, np.nan]
            order.append(c)
        rec = out[c]
        rec[0] += int(nr[i])
        rec[1] += int(nn[i])
        rec[2] = np.fmin(rec[2], mn[i])   # fmin/fmax ignore NaN sides
        rec[3] = np.fmax(rec[3], mx[i])
    return pa.table({
        "col": pa.array(order),
        "n_rows": pa.array([out[c][0] for c in order], pa.int64()),
        "n_null": pa.array([out[c][1] for c in order], pa.int64()),
        "min_v": pa.array([None if np.isnan(out[c][2]) else out[c][2]
                           for c in order], pa.float64()),
        "max_v": pa.array([None if np.isnan(out[c][3]) else out[c][3]
                           for c in order], pa.float64()),
    })
