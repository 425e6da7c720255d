"""Grouped aggregation over the package's one hash exchange.

`hash_partition_aggregate` is `exchange` plus one Arrow C++ group_by
per partition.  `count_max` first collapses each batch to one
partial row per key, so a hot key (S3 analog: the reference bisects
hot date ranges, v1/NodeCommunication.java:96-111) sends at most one
row per block through the exchange, never its raw rows:

    group_by(key) partial per batch   [<= 1 row per key per block]
      -> exchange + group_by(key) merge of the partials

Works for any decomposable aggregate (count/sum/min/max).  The
order-dependent window operator can NOT be pre-aggregated
(sequential state) — that one relies on conv-local buckets instead
(stages/window.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import Input, exchange


def hash_partition_aggregate(ds: Input, keys: list[str],
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


def count_max(ds: ray.data.Dataset, key: str, ts_col: str,
              out_count: str = "n_turns",
              out_max: str = "max_ts") -> ray.data.Dataset:
    """Per-key (count, max(ts)) with per-batch partials.

    Equivalent to ds.groupby(key).aggregate(Count(), Max(ts)), but a
    key holding 4% of all rows contributes one partial row per input
    block to the exchange instead of 4% of the data.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key: batch.column(key), ts_col: batch.column(ts_col)})
        agg = t.group_by(key).aggregate([([], "count_all"), (ts_col, "max")])
        name_map = {key: key, "count_all": out_count,
                    f"{ts_col}_max": out_max}
        return agg.rename_columns([name_map[c] for c in agg.column_names])

    def merge(group: pa.Table) -> pa.Table:
        g = group.group_by(key).aggregate(
            [(out_count, "sum"), (out_max, "max")])
        return pa.table({
            key: g.column(key),
            out_count: pc.cast(g.column(f"{out_count}_sum"), pa.int64()),
            out_max: g.column(f"{out_max}_max")})

    # one exchange merges the partials and builds the output columns
    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True), key, merge)
