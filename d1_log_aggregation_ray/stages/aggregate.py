"""Salted-key grouped aggregation — the skew-splitting pattern for hot
keys (S3 analog: the reference bisects hot date ranges,
v1/NodeCommunication.java:96-111; here hot conv_ids are split across
salt shards before the exchange so no single reducer owns a mega key).

    groupby((key, salt)) partial aggregate   [hot key spread over
                                              n_salt shards]
      -> groupby(key) merge of partials      [n_salt rows per key max]

Works for any decomposable aggregate (count/sum/min/max).  The
order-dependent window operator can NOT be salted (sequential state) —
that one relies on conv-local buckets instead (stages/window.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import exchange


def hash_partition_aggregate(ds: ray.data.Dataset, keys: list[str],
                             aggs: list[tuple], rename: dict | None = None
                             ) -> ray.data.Dataset:
    """groupby(keys).aggregate(...) for HIGH-CARDINALITY keys.

    Ray's native groupby().aggregate() pays ~90 us of python per group
    in its reduce (measured on this box: 73 s vs 2.5 s for 2M rows /
    500k keys), which is unusable when the key is a conv/doc/user id.
    This runs one `exchange` on the first key and aggregates each
    whole partition in ONE arrow C++ hash-aggregate call
    (Table.group_by).

    `aggs` are pyarrow aggregate specs, e.g. [("v", "min")] or
    [([], "count_all")]; output names follow arrow ("v_min",
    "count_all"), remapped via `rename`.  Callers needing map-side
    combining still pre-aggregate per batch before calling (count
    partials must then be summed here, not re-counted)."""

    def agg_part(group: pa.Table) -> pa.Table:
        g = group.group_by(keys).aggregate(aggs)
        if rename:
            g = g.rename_columns([rename.get(c, c) for c in g.column_names])
        return g

    return exchange(ds, keys[0], agg_part)


def salted_count_max(ds: ray.data.Dataset, key: str, ts_col: str,
                     n_salt: int = 8,
                     out_count: str = "n_turns",
                     out_max: str = "max_ts") -> ray.data.Dataset:
    """Per-key (count, max(ts)) with salt-sharded partials.

    Equivalent to ds.groupby(key).aggregate(Count(), Max(ts)) but a key
    holding 4% of all rows contributes n_salt partial rows to the final
    exchange instead of 4% of the data.
    """

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        # round-robin salt: deterministic-enough spread; the salt only
        # partitions the partial aggregate, never the result
        salt = pa.array((np.arange(n) % n_salt).astype(np.int32))
        t = pa.table({
            key: batch.column(key),
            "_salt": salt,
            ts_col: batch.column(ts_col),
        })
        agg = t.group_by([key, "_salt"]).aggregate(
            [([], "count_all"), (ts_col, "max")])
        name_map = {key: key, "_salt": "_salt",
                    "count_all": out_count, f"{ts_col}_max": out_max}
        return agg.rename_columns([name_map[c] for c in agg.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    # final merge via the high-cardinality hash-partition aggregate
    # (conv-count keys would crawl through Ray's per-group reduce)
    merged = hash_partition_aggregate(
        partials.drop_columns(["_salt"]), [key],
        [(out_count, "sum"), (out_max, "max")],
        rename={f"{out_count}_sum": out_count, f"{out_max}_max": out_max})

    def finish(batch: pa.Table) -> pa.Table:
        cols = {key: batch.column(key),
                out_count: pc.cast(batch.column(out_count), pa.int64()),
                out_max: batch.column(out_max)}
        return pa.table(cols)

    return merged.map_batches(finish, batch_format="pyarrow")
