"""Relational operators Ray Data lacks natively, composed per the
SURVEY custom-operator rule (map_batches + one `exchange` +
explicit partitioning assumptions):

  - as-of join: per-key sort + searchsorted inside one partition scan
  - tumbling-window aggregate: vectorized window-id column + groupby
  - per-group top-k: per-group sort + head
  - exact distinct count: per-batch pair dedup (combiner) + final
    per-key unique count

Partitioning assumption for asof/topk: the exchange delivers whole key
groups to one partition scan; for skewed keys the salted pattern in
stages/aggregate.py applies to the aggregates but NOT to asof
(order-dependent within key, like the W1 window).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


from ..functions.parts import int_key_array as _int_keys
from ..functions.parts import collect, exchange


def _seg_keys(col) -> np.ndarray:
    """int64 segmentation/partition keys for any key column: integers
    via the null-stable sentinel fill, strings (and everything else)
    via md5 low-64 bits (cross-batch consistent; nulls hash to 0 — a
    real value colliding with that 64-bit hash is ~2^-64 and would
    merely merge two groups)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return _int_keys(col)
    from ..functions.hashing import md5_lower64_array
    return md5_lower64_array(col).view(np.int64)


def asof_join_prior(ds: ray.data.Dataset, key: str, ts_col: str,
                    left_type: str, right_type: str,
                    type_col: str = "event_type",
                    value_col: str = "value",
                    id_col: str = "event_id") -> ray.data.Dataset:
    """For each left_type row, attach the value of the most recent
    STRICTLY prior right_type row with the same key (null when none).

    Matches DuckDB `ASOF JOIN ... ON l.key = r.key AND l.ts > r.ts`
    including its null handling (property-tested): null-ts RIGHT rows
    never match; a null-ts LEFT row ranks after every real ts
    (nulls-last) and joins the key's last right row.

    Scale shape: one python call per HASH PARTITION of keys (one
    `exchange` on the key), not one per key — inside a partition every
    key is resolved by ONE np.searchsorted over a (key_rank, ts_rank)
    composite (ts rank-encoded so the composite never overflows
    int64), so many-small-keys cost is O(n log n) per partition with
    zero per-key python/pandas overhead.
    Ties on (key, ts) resolve to the max-id right row, matching the
    previous merge_asof formulation and the DuckDB oracle."""

    def partition_scan(group: pa.Table) -> pa.Table:
        types = group.column(type_col)
        left = group.filter(pc.equal(types, left_type))
        right = group.filter(pc.equal(types, right_type))
        n_l = left.num_rows
        if n_l == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "prior_value": pa.array([], pa.float64())})
        l_key = _seg_keys(left.column(key))
        l_key_null = ~left.column(key).combine_chunks().is_valid(
        ).to_numpy(zero_copy_only=False)
        # null left ts -> NaN -> ranks after every real ts (numpy sorts
        # NaN last), matching DuckDB ASOF's nulls-last behavior: a
        # null-ts left row joins the key's LAST right row.  int64 us
        # timestamps are exact in float64 (< 2^53).
        l_ts = left.column(ts_col).combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        l_id = left.column(id_col).to_numpy(zero_copy_only=False)
        # right side: drop null-ts rows (ts > NULL is never true) AND
        # null-key rows (NULL = NULL is not true — a null-key left row
        # must never match a null-key right row); sort by (key, ts, id)
        # so "last match" == max id among ts ties
        rv = pc.and_(right.column(ts_col).combine_chunks().is_valid(),
                     right.column(key).combine_chunks().is_valid())
        right = right.filter(rv)
        if right.num_rows == 0:
            return pa.table({id_col: pa.array(l_id),
                             "prior_value": pa.array([None] * n_l,
                                                     pa.float64())})
        r_key = _seg_keys(right.column(key))
        r_ts = right.column(ts_col).combine_chunks().cast(pa.int64()
                                                          ).to_numpy(zero_copy_only=False)
        r_id = right.column(id_col).to_numpy(zero_copy_only=False)
        r_val = right.column(value_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((r_id, r_ts, r_key))
        r_key, r_ts, r_val = r_key[order], r_ts[order], r_val[order]
        # rank-encode: composite = key_rank * (n_ts_ranks+1) + ts_rank+1
        all_keys = np.unique(np.concatenate([r_key, l_key]))
        all_ts = np.unique(np.concatenate([r_ts, l_ts]))
        kr_r = np.searchsorted(all_keys, r_key)
        kr_l = np.searchsorted(all_keys, l_key)
        tr_r = np.searchsorted(all_ts, r_ts)
        tr_l = np.searchsorted(all_ts, l_ts)
        span = np.int64(len(all_ts) + 1)
        comp_r = kr_r * span + tr_r + 1
        comp_l = kr_l * span + tr_l + 1
        # last right row with comp < comp_l (strict: equal ts shares a
        # rank, so 'left' excludes it)
        j = np.searchsorted(comp_r, comp_l, side="left") - 1
        ok = (j >= 0) & ~l_key_null  # null-key left rows never match
        jj = np.clip(j, 0, None)
        ok &= (r_key[jj] == l_key)  # composite may have crossed a key
        vals = np.where(ok, r_val[jj], np.nan)
        return pa.table({id_col: pa.array(l_id),
                         "prior_value": pa.array(vals, pa.float64(),
                                                 from_pandas=True)})

    return exchange(ds.select_columns(
        [key, ts_col, type_col, value_col, id_col]), key, partition_scan)


def tumbling_counts(ds: ray.data.Dataset, key: str, ts_col: str,
                    window_s: int = 3600) -> ray.data.Dataset:
    """Per (key, tumbling window) event counts — vectorized window-id
    derivation + combiner pre-aggregation before the groupby."""
    win_us = window_s * 1_000_000

    def add_window(batch: pa.Table) -> pa.Table:
        # null timestamps carry no window: drop them (the SQL oracle
        # filters WHERE ts IS NOT NULL; without this, int64-with-nulls
        # -> float64 NaN -> ArrowInvalid on the int64 cast below)
        batch = batch.filter(
            batch.column(ts_col).combine_chunks().is_valid())
        ts = batch.column(ts_col).combine_chunks().cast(pa.int64())
        # numpy // FLOORS (matching DuckDB //); pc.divide truncates,
        # which would misbin pre-epoch timestamps
        ts_np = ts.to_numpy(zero_copy_only=False)
        win = pa.array((ts_np // win_us) * win_us, type=pa.int64())
        t = pa.table({key: batch.column(key),
                      "window_start": win})
        agg = t.group_by([key, "window_start"]).aggregate([([], "count_all")])
        # order-insensitive rename (pyarrow group_by column order is
        # keys-first only on recent releases)
        name_map = {key: key, "window_start": "window_start",
                    "count_all": "n"}
        return agg.rename_columns([name_map[c] for c in agg.column_names])

    partials = ds.map_batches(add_window, batch_format="pyarrow",
                              zero_copy_batch=True)
    # (key, window) cardinality grows with users x time: merge partials
    # through the hash-partition aggregate, not Ray's per-group reduce
    from ..stages.aggregate import hash_partition_aggregate
    agg = hash_partition_aggregate(partials, [key, "window_start"],
                                   [("n", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch.column(key),
            "window_start": batch.column("window_start").cast(
                pa.timestamp("us")),
            "n": pc.cast(batch.column("n_sum"), pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def sliding_counts(ds: ray.data.Dataset, key: str, ts_col: str,
                   window_s: int = 3600,
                   slide_s: int = 900) -> ray.data.Dataset:
    """Per (key, SLIDING window) event counts: each event lands in
    every window [w, w+window_s) whose start w is a multiple of
    slide_s — vectorized window-id expansion (np.repeat + intra-range
    offsets), per-batch arrow combiner, hash-partition merge.  Null ts
    dropped (like tumbling / the SQL oracle)."""
    win_us = window_s * 1_000_000
    slide_us = slide_s * 1_000_000

    def expand(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column(ts_col).combine_chunks().is_valid())
        n = batch.num_rows
        if n == 0:
            return pa.table({key: batch.column(key),
                             "window_start": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ts = batch.column(ts_col).combine_chunks().cast(pa.int64()
                                                        ).to_numpy(zero_copy_only=False)
        lo = (ts - win_us) // slide_us + 1     # first window index
        hi = ts // slide_us                    # last window index (incl)
        counts = (hi - lo + 1).astype(np.int64)
        total = int(counts.sum())
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        intra = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1],
                                                             counts)
        w = (np.repeat(lo, counts) + intra) * slide_us
        t = pa.table({key: batch.column(key).take(
                          pa.array(np.repeat(np.arange(n), counts))),
                      "window_start": pa.array(w)})
        agg = t.group_by([key, "window_start"]).aggregate(
            [([], "count_all")])
        name_map = {key: key, "window_start": "window_start",
                    "count_all": "n"}
        return agg.rename_columns([name_map[c] for c in agg.column_names])

    partials = ds.map_batches(expand, batch_format="pyarrow",
                              zero_copy_batch=True)
    from ..stages.aggregate import hash_partition_aggregate
    agg = hash_partition_aggregate(partials, [key, "window_start"],
                                   [("n", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch.column(key),
            "window_start": batch.column("window_start").cast(
                pa.timestamp("us")),
            "n": pc.cast(batch.column("n_sum"), pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def topk_per_key(ds: ray.data.Dataset, key: str, order_col: str,
                 k: int = 2, tiebreak: str = "event_id",
                 ascending: bool = False) -> ray.data.Dataset:
    """Top-k rows per key by order_col desc (asc when ascending=True,
    e.g. "first k by content hash" deterministic per-key sampling).

    Partition-scan shape: per-batch local top-k per key (combiner — at
    most k rows per key per block cross the exchange), then one
    vectorized sort + segment-head per hash partition of keys; no
    per-key python calls."""

    def _local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        # sentinel-filled int keys: null keys form one segment (== the
        # SQL window's NULL partition) and non-null keys keep a
        # null-independent representation
        kv = _seg_keys(batch.column(key))
        ov = batch.column(order_col).to_numpy(zero_copy_only=False)
        tv = batch.column(tiebreak).to_numpy(zero_copy_only=False)
        # descending: lexsort on an order-reversed key.  argsort of -ov
        # is wrong for uint64 (wraparound), so rank-encode via a stable
        # double negation only for signed/float inputs
        o2 = ov if ascending else (
            np.iinfo(ov.dtype).max - ov if ov.dtype.kind == "u" else -ov)
        order = np.lexsort((tv, o2, kv))
        ks = kv[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        rank = np.arange(len(ks)) - np.repeat(
            starts, np.diff(np.r_[starts, len(ks)]))
        return batch.take(pa.array(order[rank < k]))

    local = ds.map_batches(_local_topk, batch_format="pyarrow",
                           zero_copy_batch=True)
    return exchange(local, key, _local_topk)


def distinct_count(ds: ray.data.Dataset, key: str,
                   distinct_col: str) -> ray.data.Dataset:
    """Exact COUNT(DISTINCT distinct_col) per key: per-batch pair dedup
    (combiner — the shuffle moves unique pairs, not rows), then a
    per-key unique count."""

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({key: batch.column(key),
                      distinct_col: batch.column(distinct_col)})
        # COUNT(DISTINCT x) ignores NULLs — drop them before the dedup
        t = t.filter(t.column(distinct_col).combine_chunks().is_valid())
        return t.group_by([key, distinct_col]).aggregate([])

    uniq_pairs = ds.map_batches(pairs, batch_format="pyarrow",
                                zero_copy_batch=True)

    def count_unique(group: pa.Table) -> pa.Table:
        # one vectorized pass for ALL keys in the partition: arrow
        # group_by dedups the (key, value) pairs across blocks, then a
        # count per key — no per-key python
        uniq = group.select([key, distinct_col]).group_by(
            [key, distinct_col]).aggregate([])
        agg = uniq.group_by(key).aggregate([([], "count_all")])
        name_map = {key: key, "count_all": "n_distinct"}
        agg = agg.rename_columns([name_map[c] for c in agg.column_names])
        return agg.set_column(
            agg.schema.get_field_index("n_distinct"), "n_distinct",
            agg.column("n_distinct").cast(pa.int64()))

    # hash-partition by key (keys can be corpus-cardinality; one ray
    # group per PARTITION, count_unique handles all its keys at once)
    return exchange(uniq_pairs, key, count_unique)


def value_quantiles(ds: ray.data.Dataset, val_col: str,
                    qs: list[float]) -> pa.Table:
    """EXACT distributed quantiles of an integer-valued column via a
    value-histogram exchange (the scale-correct shape for discrete
    metrics: token counts, lengths, scores).

    Per-batch combiner collapses each block to (value, count) rows, the
    merge is one hash-partition aggregate keyed on the VALUE — exchange
    volume is O(distinct values x blocks), never O(rows) — and only the
    final merged histogram (bounded by the value domain, e.g. every
    possible document length) reaches the driver for the cumsum pick.

    Semantics == DuckDB ``quantile_disc``: element at 0-based rank
    max(ceil(q*n) - 1, 0) of the sorted multiset.
    """
    from ..stages.aggregate import hash_partition_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(val_col).combine_chunks()
        v = v.filter(v.is_valid()).to_numpy(zero_copy_only=False)
        uv, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uv.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    merged = hash_partition_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["v"], [("c", "sum")], rename={"c_sum": "c"})
    hist = collect(merged)
    if not hist.num_rows:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.int64())})
    v = hist.column("v").to_numpy(zero_copy_only=False)
    c = hist.column("c").to_numpy(zero_copy_only=False)
    order = np.argsort(v, kind="stable")
    v, c = v[order], c[order]
    cum = np.cumsum(c)
    ntot = int(cum[-1])
    import math
    vals = []
    for q in qs:
        rank = max(math.ceil(q * ntot) - 1, 0)
        vals.append(int(v[np.searchsorted(cum, rank, side="right")]))
    return pa.table({"q": pa.array([float(q) for q in qs], pa.float64()),
                     "value": pa.array(vals, pa.int64())})


def anti_join_keys(left: ray.data.Dataset, right: ray.data.Dataset,
                   left_key: str, right_key: str) -> ray.data.Dataset:
    """Distributed ANTI join: left rows whose key has NO match on the
    right (SQL `left_key NOT IN (SELECT right_key FROM right)` for
    non-null keys) — one column of surviving left keys.

    Scale shape (both sides large): the co-partition join pattern
    (q_top_orders) — both sides emit the same int64 key column `k`,
    ONE two-input `exchange` co-locates them, and a vectorized
    searchsorted scan per partition emits the misses.  The right side
    is deduplicated per block BEFORE the exchange (a membership probe
    needs each key once), so the shuffle carries unique-right + left
    keys, nothing wider.  No broadcast: neither side needs to fit
    anywhere whole."""

    def _rows(batch: pa.Table, *, key: str, unique: bool) -> pa.Table:
        k = pc.cast(batch.column(key), pa.int64()).drop_null().to_numpy(
            zero_copy_only=False)
        # per-block combiner on the right: membership only
        return pa.table({"k": pa.array(np.unique(k) if unique else k)})

    l_rows = left.select_columns([left_key]).map_batches(
        _rows, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"key": left_key, "unique": False})
    r_rows = right.select_columns([right_key]).map_batches(
        _rows, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"key": right_key, "unique": True})

    def scan(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # a side with no rows at all may come without columns: no left
        # keys, or every left key survives
        if not (lt.num_columns and rt.num_columns):
            return lt.rename_columns([left_key] * lt.num_columns)
        lk = lt.column("k").to_numpy(zero_copy_only=False)
        rk = np.unique(rt.column("k").to_numpy(zero_copy_only=False))
        if len(rk) == 0:
            return pa.table({left_key: pa.array(lk)})
        pos = np.searchsorted(rk, lk)
        pos[pos == len(rk)] = 0
        return pa.table({left_key: pa.array(lk[rk[pos] != lk])})

    return exchange([l_rows, r_rows], "k", scan)


def zscore_per_key(ds: ray.data.Dataset, key: str, val_col: str,
                   id_col: str) -> ray.data.Dataset:
    """Grouped standardization: (id, z) where z = (v - mean_key) /
    stddev_key (sample stddev, naive-moment formula).  Keys with a
    single row are dropped (stddev undefined).

    Scale shape: keys are corpus-cardinality, so the moments CANNOT be
    broadcast.  ONE input pass, ONE exchange: every batch emits its
    value rows (side 0) PLUS its per-batch (key, n, s, ss) moment
    partials (side 1, <= uniques-per-block rows) into the same
    hash(key) co-partition stream; each partition scan merges the
    moment partials per key (reduceat) and standardizes its value
    rows in place — the combiner-carried variant of the
    aggregate-then-rejoin pattern (no separate moment exchange, no
    double input consumption).
    Float alignment: z is computed in the SQL oracle's exact
    association order (mean = s/n; var = (ss - s*s/n)/(n-1)) and
    rounded half-away to 6 decimals, absorbing partial-sum-order ulp
    differences."""

    def rows(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column(key), pa.int64()).to_numpy(
            zero_copy_only=False)
        v = batch.column(val_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        # per-batch moment partials: one vectorized segment pass
        order = np.argsort(k, kind="stable")
        ks, vs = k[order], v[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        mk = ks[starts]
        mn = np.diff(np.r_[starts, len(ks)]).astype(np.int64)
        ms = (np.add.reduceat(vs, starts) if len(starts)
              else np.array([], np.float64))
        mss = (np.add.reduceat(vs * vs, starts) if len(starts)
               else np.array([], np.float64))
        return pa.table({
            "k": pa.array(np.concatenate([k, mk])),
            "id": pa.array(np.concatenate(
                [ids, np.zeros(len(mk), np.int64)])),
            "v": pa.array(np.concatenate(
                [v, np.zeros(len(mk), np.float64)])),
            "s": pa.array(np.concatenate(
                [np.zeros(len(k), np.float64), ms])),
            "ss": pa.array(np.concatenate(
                [np.zeros(len(k), np.float64), mss])),
            "n": pa.array(np.concatenate(
                [np.zeros(len(k), np.int64), mn])),
            "side": pa.array(np.concatenate(
                [np.zeros(len(k), np.int8),
                 np.ones(len(mk), np.int8)]))})

    tagged = ds.map_batches(rows, batch_format="pyarrow",
                            zero_copy_batch=True)

    _EMPTY = pa.table({"event_id": pa.array([], pa.int64()),
                       "z": pa.array([], pa.float64())})

    def scan(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        k = group.column("k").to_numpy(zero_copy_only=False)
        mm = side == 1
        mk0 = k[mm]
        order = np.argsort(mk0, kind="stable")
        mk0 = mk0[order]
        s0 = group.column("s").to_numpy(zero_copy_only=False)[mm][order]
        ss0 = group.column("ss").to_numpy(
            zero_copy_only=False)[mm][order]
        n0 = group.column("n").to_numpy(zero_copy_only=False)[mm][order]
        vk = k[~mm]
        vid = group.column("id").to_numpy(zero_copy_only=False)[~mm]
        vv = group.column("v").to_numpy(zero_copy_only=False)[~mm]
        if len(mk0) == 0 or len(vk) == 0:
            return _EMPTY
        # merge the per-block moment partials per key
        starts = np.flatnonzero(np.r_[True, mk0[1:] != mk0[:-1]])
        mk = mk0[starts]
        s = np.add.reduceat(s0, starts)
        ss = np.add.reduceat(ss0, starts)
        n = np.add.reduceat(n0, starts)
        pos = np.searchsorted(mk, vk)
        pos[pos == len(mk)] = 0
        hit = (mk[pos] == vk) & (n[pos] > 1)
        p = pos[hit]
        # EXACT oracle association order (see docstring)
        mean = s[p] / n[p]
        var = (ss[p] - s[p] * s[p] / n[p]) / (n[p] - 1)
        # degenerate (zero/negative-after-rounding variance) groups:
        # NULL, matching the oracle's guarded CASE (DuckDB SQRT raises
        # on negatives and x/0 is NULL)
        ok = var > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (vv[hit] - mean) / np.sqrt(np.where(ok, var, 1.0))
        # duckdb ROUND: half away from zero, both signs
        z = np.where(z >= 0, np.floor(z * 1e6 + 0.5),
                     -np.floor(-z * 1e6 + 0.5)) / 1e6
        return pa.table({"event_id": pa.array(vid[hit]),
                         "z": pa.array(z, mask=~ok)})

    return exchange(tagged, "k", scan)


def grouped_corr(ds: ray.data.Dataset, key: str, x_col: str,
                 y_col: str, out_col: str = "corr") -> ray.data.Dataset:
    """Per-key Pearson correlation of two numeric columns — the
    feature-screening / drift-detection aggregate (does x track y
    within each group?).

    Scale shape: PURE COMBINER.  Every batch segment-reduces to at
    most uniques-per-block (key, n, sx, sy, sxx, syy, sxy) partial
    rows — only those cross the hash(key) exchange, never the input
    rows — and each partition merges partials per key with one
    sort+reduceat pass.  Keys are type-generic (_seg_keys: int
    identity / md5-low64 for strings) and the ORIGINAL key values are
    carried through and emitted (never the hash encoding).

    Degenerate groups (n < 2, or zero variance on either side) are
    dropped, matching the oracle's WHERE guards.  Float alignment:
    the finish formula evaluates in the SQL oracle's exact
    association order — cov = sxy - sx*sy/n, vx = sxx - sx*sx/n,
    vy = syy - sy*sy/n, corr = cov / sqrt(vx * vy) — then rounds
    half-away to 6 decimals, absorbing partial-sum-order ulps."""

    def partial(batch: pa.Table) -> pa.Table:
        korig = batch.column(key)
        if isinstance(korig, pa.ChunkedArray):
            korig = korig.combine_chunks()
        k = _seg_keys(korig)
        x = batch.column(x_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        y = batch.column(y_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        order = np.argsort(k, kind="stable")
        ks, xs, ys = k[order], x[order], y[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) \
            if len(ks) else np.array([], np.int64)
        seg = lambda a: (np.add.reduceat(a, starts) if len(starts)
                         else np.array([], np.float64))
        return pa.table({
            "k": pa.array(ks[starts]),
            "key_orig": korig.take(pa.array(order[starts],
                                            pa.int64())),
            "n": pa.array(np.diff(np.r_[starts, len(ks)])
                          .astype(np.int64)),
            "sx": pa.array(seg(xs)), "sy": pa.array(seg(ys)),
            "sxx": pa.array(seg(xs * xs)),
            "syy": pa.array(seg(ys * ys)),
            "sxy": pa.array(seg(xs * ys))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def scan(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks = k[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        col = lambda c: group.column(c).to_numpy(
            zero_copy_only=False)[order]
        n = np.add.reduceat(col("n"), starts)
        sx = np.add.reduceat(col("sx"), starts)
        sy = np.add.reduceat(col("sy"), starts)
        sxx = np.add.reduceat(col("sxx"), starts)
        syy = np.add.reduceat(col("syy"), starts)
        sxy = np.add.reduceat(col("sxy"), starts)
        # EXACT oracle association order (see docstring)
        cov = sxy - sx * sy / n
        vx = sxx - sx * sx / n
        vy = syy - sy * sy / n
        ok = (n >= 2) & (vx > 0) & (vy > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = cov / np.sqrt(np.where(ok, vx * vy, 1.0))
        # duckdb ROUND: half away from zero, both signs
        r = np.where(r >= 0, np.floor(r * 1e6 + 0.5),
                     -np.floor(-r * 1e6 + 0.5)) / 1e6
        keys = group.column("key_orig").combine_chunks().take(
            pa.array(order[starts][ok], pa.int64()))
        return pa.table({key: keys,
                         out_col: pa.array(r[ok], pa.float64())})

    return exchange(partials, "k", scan)


def grouped_quantiles(ds: ray.data.Dataset, key_col: str, val_col: str,
                      qs: list[float],
                      value_type: pa.DataType = pa.int64()
                      ) -> ray.data.Dataset:
    """EXACT per-key quantiles of an integer-valued column via a
    (key, value)-histogram exchange — value_quantiles generalized to
    grouped form, fully distributed (no driver merge: every (key,
    value) count for a key lands in that key's hash partition, so the
    cumsum pick happens inside the partition scan).

    Per-batch combiner collapses each block to (key, value, count)
    rows; the exchange volume is O(keys x distinct values per key x
    blocks), never O(rows).  Semantics == DuckDB ``quantile_disc`` per
    group: element at 0-based rank max(ceil(q*n) - 1, 0) of the
    group's sorted multiset; NULL keys and NULL values are skipped.

    Output: one row per (key, q): (key_col, q float64, value int64 —
    or float64 when ``value_type=pa.float64()``; float values group by
    exact binary equality, so the picked element is copied bit-exact,
    never recomputed).
    """
    qs = [float(q) for q in qs]

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch.column(key_col),
                      "v": batch.column(val_col)})
        keep = pc.and_(t.column(key_col).is_valid(),
                       t.column("v").is_valid())
        t = t.filter(keep)
        agg = t.group_by([key_col, "v"]).aggregate([([], "count_all")])
        return agg.rename_columns(
            ["c" if c == "count_all" else c for c in agg.column_names])

    np_vt = value_type.to_pandas_dtype()

    def scan(group: pa.Table) -> pa.Table:
        t = (group.group_by([key_col, "v"]).aggregate([("c", "sum")])
             .sort_by([(key_col, "ascending"), ("v", "ascending")]))
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np_vt)
        c = t.column("c_sum").to_numpy(zero_copy_only=False)
        codes = np.asarray(
            t.column(key_col).combine_chunks().dictionary_encode().indices)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        cumg = np.cumsum(c)                      # global, nondecreasing
        base = np.r_[0, cumg[:-1]][starts]       # excl. prefix at seg start
        ends = np.r_[starts[1:], len(c)]
        ntot = cumg[ends - 1] - base             # rows per key
        keys_first = t.column(key_col).take(pa.array(starts))
        outs = []
        for q in qs:
            rank = np.maximum(np.ceil(q * ntot) - 1, 0).astype(np.int64)
            # first global j with cumg[j] > base + rank (c > 0 keeps
            # cumg strictly increasing within a segment)
            j = np.searchsorted(cumg, base + rank, side="right")
            outs.append(pa.table({
                key_col: keys_first,
                "q": pa.array(np.full(len(starts), q)),
                "value": pa.array(v[j]),
            }))
        return pa.concat_tables(outs).sort_by(
            [(key_col, "ascending"), ("q", "ascending")])

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True), key_col, scan)


def grouped_mode(ds: ray.data.Dataset, key_col: str, val_col: str,
                 out_val: str = "top_value",
                 out_n: str = "n") -> ray.data.Dataset:
    """Per-key mode (most frequent value, ties broken by smallest
    value) with deterministic output — the argmax-per-group operator.

    Per-batch combiner collapses blocks to (key, value, count); one
    hash-partition exchange on the key; the winner pick is a single
    vectorized pass per partition (sort by key asc, count desc, value
    asc; keep segment heads).  NULL keys/values are skipped.

    Output: (key_col, out_val, out_n int64), one row per key.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch.column(key_col),
                      val_col: batch.column(val_col)})
        keep = pc.and_(t.column(key_col).is_valid(),
                       t.column(val_col).is_valid())
        t = t.filter(keep)
        agg = t.group_by([key_col, val_col]).aggregate([([], "count_all")])
        return agg.rename_columns(
            ["c" if c == "count_all" else c for c in agg.column_names])

    def scan(group: pa.Table) -> pa.Table:
        t = (group.group_by([key_col, val_col]).aggregate([("c", "sum")])
             .sort_by([(key_col, "ascending"), ("c_sum", "descending"),
                       (val_col, "ascending")]))
        codes = np.asarray(
            t.column(key_col).combine_chunks().dictionary_encode().indices)
        heads = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        t = t.take(pa.array(heads))
        return pa.table({
            key_col: t.column(key_col),
            out_val: t.column(val_col),
            out_n: pc.cast(t.column("c_sum"), pa.int64()),
        })

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True), key_col, scan)


def interval_join(points: ray.data.Dataset, intervals: ray.data.Dataset,
                  key: str, ts_col: str, lo_col: str, hi_col: str,
                  pt_id_col: str = "event_id",
                  ivl_id_col: str = "anchor_id") -> ray.data.Dataset:
    """Distributed equi+range INTERVAL join: emit one (point_id,
    interval_id) pair for every point row whose key equals an interval
    row's key AND lo <= ts <= hi (inclusive both ends, 1-to-many) —
    SQL `FROM p JOIN i ON p.key = i.key AND p.ts BETWEEN i.lo AND
    i.hi`.  The operator Ray Data lacks for sessions-x-events /
    promo-window attribution work.

    Scale shape (both sides large): the co-partition join pattern
    (anti_join_keys) — each side becomes narrow rows keyed by the SAME
    64-bit key column, ONE two-input `exchange` co-locates them, and
    a vectorized scan per partition resolves every point with two
    np.searchsorted calls via the BOUNDED-WIDTH trick: with W = the
    partition's max interval width, the candidate intervals for a
    point at t are exactly those with lo in [t - W, t] on the same
    key; (key_rank, lo_rank) composite encoding makes both bound
    lookups one searchsorted each, the candidate runs are expanded by
    a repeat/arange scatter (no per-point python), and the hi >= t
    containment filter finishes the join.  Nothing is broadcast and
    no side needs to fit anywhere whole.

    Partitioning contract (documented per the SURVEY custom-operator
    rule): one hash partition (~both sides / P rows) must fit a worker
    heap — P scales with the cluster; and candidate expansion is
    bounded by intervals-per-key within any W-wide span, so a single
    pathological key with N overlapping max-width intervals costs
    O(N * points-on-key) pairs — the true join cardinality, not an
    artifact.  Null keys / ts / bounds never match (SQL comparison
    semantics): they are dropped before the exchange.
    """
    _EMPTY = pa.table({pt_id_col: pa.array([], pa.int64()),
                       ivl_id_col: pa.array([], pa.int64())})

    def pt_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(batch.column(key).combine_chunks().is_valid(),
                       batch.column(ts_col).combine_chunks().is_valid())
        batch = batch.filter(keep)
        return pa.table({
            "k": pa.array(_seg_keys(batch.column(key))),
            "t": pc.cast(batch.column(ts_col), pa.int64()),
            "rid": pc.cast(batch.column(pt_id_col), pa.int64())})

    def ivl_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(batch.column(key).combine_chunks().is_valid(),
                    batch.column(lo_col).combine_chunks().is_valid()),
            batch.column(hi_col).combine_chunks().is_valid())
        batch = batch.filter(keep)
        return pa.table({
            "k": pa.array(_seg_keys(batch.column(key))),
            "lo": pc.cast(batch.column(lo_col), pa.int64()),
            "hi": pc.cast(batch.column(hi_col), pa.int64()),
            "rid": pc.cast(batch.column(ivl_id_col), pa.int64())})

    p_rows = points.select_columns([key, ts_col, pt_id_col]).map_batches(
        pt_rows, batch_format="pyarrow", zero_copy_batch=True)
    i_rows = intervals.select_columns(
        [key, lo_col, hi_col, ivl_id_col]).map_batches(
        ivl_rows, batch_format="pyarrow", zero_copy_batch=True)

    def scan(pts: pa.Table, ivls: pa.Table) -> pa.Table:
        if not (pts.num_rows and ivls.num_rows):
            return _EMPTY
        pk, pt_, pid = (pts.column(c).to_numpy(zero_copy_only=False)
                        for c in ("k", "t", "rid"))
        ik, ilo, ihi, iid = (ivls.column(c).to_numpy(zero_copy_only=False)
                             for c in ("k", "lo", "hi", "rid"))
        ok_w = ihi >= ilo  # degenerate/negative intervals never match
        ik, ilo, ihi, iid = ik[ok_w], ilo[ok_w], ihi[ok_w], iid[ok_w]
        if len(ik) == 0:
            return _EMPTY
        W = np.int64((ihi - ilo).max())
        # composite (key_rank, value_rank) over a shared value universe
        # so both bound lookups are one searchsorted each
        all_keys = np.unique(np.concatenate([ik, pk]))
        lo_w = pt_ - W  # int64; ts are us-epoch, no overflow headroom issue
        all_vals = np.unique(np.concatenate([ilo, pt_, lo_w]))
        span = np.int64(len(all_vals) + 2)
        order = np.lexsort((ilo, ik))
        ik, ilo, ihi, iid = ik[order], ilo[order], ihi[order], iid[order]
        comp_i = (np.searchsorted(all_keys, ik) * span
                  + np.searchsorted(all_vals, ilo))
        kr_p = np.searchsorted(all_keys, pk) * span
        lo_idx = np.searchsorted(
            comp_i, kr_p + np.searchsorted(all_vals, lo_w), side="left")
        hi_idx = np.searchsorted(
            comp_i, kr_p + np.searchsorted(all_vals, pt_), side="right")
        counts = hi_idx - lo_idx
        total = int(counts.sum())
        if total == 0:
            return _EMPTY
        rep = np.repeat(np.arange(len(pk)), counts)
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ivl_idx = (np.repeat(lo_idx, counts)
                   + np.arange(total) - np.repeat(offs, counts))
        t_rep = pt_[rep]
        keep = ihi[ivl_idx] >= t_rep  # lo <= t already by construction
        return pa.table({pt_id_col: pa.array(pid[rep][keep]),
                         ivl_id_col: pa.array(iid[ivl_idx][keep])})

    return exchange([p_rows, i_rows], "k", scan)


def sampled_quantiles(ds: ray.data.Dataset, val_col: str,
                      id_col: str, qs: list[float],
                      rate_permille: int = 100,
                      salt: str = "aq:") -> pa.Table:
    """APPROXIMATE quantiles of a continuous (double) column via a
    deterministic hash-Bernoulli sample — the companion to
    value_quantiles for value domains too large for the histogram
    exchange (revenue, latency, scores: every value distinct).

    A row is sampled iff md5(salt || id) % 1000 < rate_permille — the
    house content-hash sampling primitive (q_sample_docs): stable
    across runs, cluster sizes and engines, so the DuckDB oracle
    reproduces the identical sample.  Only the sampled VALUES leave
    the scan (rate x corpus rows — pick the rate so that fits the
    driver; sampling error is O(1/sqrt(sample)) per the standard
    order-statistics bound), where one np.sort + the quantile_disc
    rank pick finishes.  Nulls are excluded (SQL aggregate
    semantics)."""
    from ..functions.hashing import md5_lower64_array

    def sample(batch: pa.Table) -> pa.Table:
        ids = pc.binary_join_element_wise(
            pa.scalar(salt), pc.cast(batch.column(id_col), pa.string()),
            "")
        h = md5_lower64_array(ids)
        keep = pa.array(h % np.uint64(1000) < np.uint64(rate_permille))
        v = batch.column(val_col).combine_chunks().filter(keep)
        v = v.filter(v.is_valid())
        return pa.table({"v": pc.cast(v, pa.float64())})

    t = collect(ds.select_columns([id_col, val_col]).map_batches(
        sample, batch_format="pyarrow", zero_copy_batch=True))
    if not t.num_rows:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    v = np.sort(t.column("v").to_numpy())
    import math
    vals = [float(v[max(math.ceil(q * len(v)) - 1, 0)]) for q in qs]
    return pa.table({"q": pa.array([float(q) for q in qs], pa.float64()),
                     "value": pa.array(vals, pa.float64())})


def percent_rank_per_key(ds: ray.data.Dataset, key_col: str,
                         val_col: str,
                         id_col: str = "doc_id") -> ray.data.Dataset:
    """SQL PERCENT_RANK() OVER (PARTITION BY key ORDER BY val) — the
    per-group normalized rank a curation recipe uses to calibrate a
    quality signal WITHIN each source/domain instead of globally
    (quality_buckets is the global-decile counterpart).

    Shape: one hash exchange on the key + one lexsort/searchsorted
    scan per partition — ties share the rank of their first
    occurrence (SQL RANK semantics), pct = (rank - 1) / (n - 1)
    computed as the same small-integer division DuckDB performs, so
    the float output is bit-identical cross-engine (single-group
    keys emit 0.0, the SQL convention).  Null vals are excluded
    (mirrored by the oracle's WHERE val IS NOT NULL)."""

    def valid_vals(batch: pa.Table) -> pa.Table:
        return batch.filter(
            batch.column(val_col).combine_chunks().is_valid())

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).combine_chunks()
        k = _seg_keys(group.column(key_col))
        v = group.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        n = len(ks)
        new_key = np.r_[True, ks[1:] != ks[:-1]]
        starts = np.flatnonzero(new_key)
        counts = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, counts)
        # RANK: first index of this value within its segment
        new_val = new_key | np.r_[True, vs[1:] != vs[:-1]]
        first_idx = np.maximum.accumulate(
            np.where(new_val, np.arange(n), -1))
        rank = first_idx - seg_start           # 0-based RANK
        denom = np.repeat(counts, counts) - 1
        pct = np.divide(rank, denom, out=np.zeros(n, np.float64),
                        where=denom > 0)
        return pa.table({id_col: ids.take(pa.array(order)),
                         "pct_rank": pa.array(pct)})

    rows = ds.select_columns([id_col, key_col, val_col]).map_batches(
        valid_vals, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(rows, key_col, partition_scan)


def rolling_window_sum(ds: ray.data.Dataset, key: str, ts_col: str,
                       val_col: str, id_col: str = "event_id",
                       k: int = 10) -> ray.data.Dataset:
    """Per-key ROLLING window over the last `k` events (ROWS BETWEEN
    k-1 PRECEDING AND CURRENT ROW ordered by (ts, id)): the moving
    average / rate signal telemetry dashboards and drift monitors run
    per user or per node.

    Exactness contract: the metric is integerized FIRST —
    cents = CAST(floor(val*100) AS BIGINT) — so the windowed sum is
    exact int64 arithmetic (order-independent) and the mean is one
    int→double division, bit-identical to DuckDB's
    `CAST(s AS DOUBLE) / n`.  Summing raw doubles would make the
    result depend on accumulation order — the same reasoning as the
    integer-cents revenue in q_top_orders.

    Shape: one hash exchange on the key + one lexsort + prefix-sum
    scan per partition (cumsum-difference, seg-start clamped), the
    sliding_counts/percent_rank house pattern.  Null vals dropped
    (mirrored by the oracle's WHERE val IS NOT NULL)."""

    def seg_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column(val_col).combine_chunks().is_valid())
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = np.floor(v * 100.0).astype(np.int64)
        u = _seg_keys(batch.column(key))
        return pa.table({
            id_col: batch.column(id_col),
            "_u": pa.array(u),
            "_ts": batch.column(ts_col).combine_chunks().cast(pa.int64()),
            "_cents": pa.array(cents)})

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = group.column("_u").combine_chunks().to_numpy(
            zero_copy_only=False)
        ts = group.column("_ts").combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = group.column("_cents").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((ids, ts, u))
        us, cs = u[order], cents[order]
        n = len(us)
        idx = np.arange(n, dtype=np.int64)
        seg_start = np.maximum.accumulate(
            np.where(np.r_[True, us[1:] != us[:-1]], idx, 0))
        lo = np.maximum(idx - (k - 1), seg_start)
        prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cs, out=prefix[1:])
        roll = prefix[idx + 1] - prefix[lo]
        cnt = idx - lo + 1
        return pa.table({
            id_col: pa.array(ids[order]),
            "roll_sum": pa.array(roll),
            "roll_mean": pa.array(roll.astype(np.float64) /
                                  cnt.astype(np.float64))})

    parts = ds.select_columns([id_col, key, ts_col, val_col]).map_batches(
        seg_rows, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(parts, "_u", partition_scan)


def value_deltas(ds: ray.data.Dataset, key: str, ts_col: str,
                 val_col: str, id_col: str = "event_id") -> ray.data.Dataset:
    """Per-key LAG difference: each event's metric minus the SAME
    key's previous event (ordered by ts, id) — the rate-of-change /
    drift signal; NULL for a key's first event, exactly DuckDB's
    `cents - LAG(cents) OVER (PARTITION BY key ORDER BY ts, id)`.

    Integer-cents arithmetic (floor(val*100) first) so the delta is
    exact int64 and hashes identically cross-engine.  Shape: one hash
    exchange on the key + one lexsort + shifted-difference scan per
    partition — the rolling_window_sum pattern with a diff kernel.
    Null vals dropped (mirrored by the oracle's IS NOT NULL)."""

    def seg_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column(val_col).combine_chunks().is_valid())
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = _seg_keys(batch.column(key))
        return pa.table({
            id_col: batch.column(id_col),
            "_u": pa.array(u),
            "_ts": batch.column(ts_col).combine_chunks().cast(pa.int64()),
            "_cents": pa.array(np.floor(v * 100.0).astype(np.int64))})

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = group.column("_u").combine_chunks().to_numpy(
            zero_copy_only=False)
        ts = group.column("_ts").combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = group.column("_cents").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((ids, ts, u))
        us, cs = u[order], cents[order]
        delta = np.empty(len(us), dtype=np.int64)
        delta[0] = 0
        delta[1:] = cs[1:] - cs[:-1]
        first = np.r_[True, us[1:] != us[:-1]]
        return pa.table({
            id_col: pa.array(ids[order]),
            "delta_cents": pa.array(delta, type=pa.int64(), mask=first)})

    parts = ds.select_columns([id_col, key, ts_col, val_col]).map_batches(
        seg_rows, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(parts, "_u", partition_scan)


def detect_hot_keys(ds: ray.data.Dataset, key: str,
                    hot_min_rows: int = 100_000,
                    top_m: int = 64) -> np.ndarray:
    """Sampled heavy-hitter detection for skew-aware joins: per-block
    exact top-M key counts (a combiner — a globally hot key is locally
    frequent in nearly every block, so block-level top-M partials
    cannot miss it) merged on the driver into the set of keys whose
    observed count reaches `hot_min_rows`.

    Returns the hot keys in _seg_keys space (int64; identity for
    integer keys, md5 low-64 for strings), sorted.  UNDER-estimation is
    safe by construction: a key the partials miss simply rides the
    co-partition branch of skew_join_rows.  The pass reads ONLY the key
    column (prune at the read); at corpus scale it can be replaced by
    table statistics without touching the join itself."""

    def partial(batch: pa.Table) -> pa.Table:
        u = np.sort(_seg_keys(batch.column(key)))
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]]) \
            if len(u) else np.array([], np.int64)
        counts = np.diff(np.r_[starts, len(u)])
        if len(starts) > top_m:
            sel = np.argpartition(counts, -top_m)[-top_m:]
            starts, counts = starts[sel], counts[sel]
        return pa.table({"_k": pa.array(u[starts], pa.int64()),
                         "_n": pa.array(counts, pa.int64())})

    t = collect(ds.select_columns([key]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    if not t.num_rows:
        return np.array([], dtype=np.int64)
    k = t.column("_k").to_numpy(zero_copy_only=False)
    n = t.column("_n").to_numpy(zero_copy_only=False)
    order = np.argsort(k, kind="stable")
    k, n = k[order], n[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    tot = np.add.reduceat(n, starts)
    ku = k[starts]
    return np.sort(ku[tot >= hot_min_rows])


def skew_join_rows(left: ray.data.Dataset, right: ray.data.Dataset,
                   key_l: str, key_r: str,
                   carry_l: list[str], carry_r: list[str],
                   hot_min_rows: int = 100_000,
                   hot_keys: np.ndarray | None = None) -> ray.data.Dataset:
    """Skew-aware INNER equi join producing one row per matched pair
    (columns: key_l + carry_l + carry_r).

    The classic hot-key problem: a co-partition join sends every row
    of a hot key to ONE partition, so a key holding 1% of a 100 TB
    fact table serializes 1 TB onto a single task.  This operator
    splits the plan by observed key frequency:

      hot keys  -> the (few) left rows for those keys are collected
                   and broadcast once (ray.put); right rows join
                   map-side inside map_batches with NO shuffle, so a
                   hot key's rows stay spread across all input blocks.
      cold keys -> the standard two-input co-partition `exchange`
                   on the key with a vectorized expansion scan per
                   partition (the order_lines kernel).

    Assumptions (documented per the SURVEY custom-operator rule): the
    LEFT side is the dimension-like side — its hot-key row subset must
    fit in the object store (rows_per_hot_key x n_hot_keys); integer
    keys match exactly, string keys via md5-64 (collision ~2^-64,
    house-accepted).  NULL keys never match (SQL inner-join
    semantics).  With no hot keys detected the plan degrades to the
    pure co-partition join at zero extra cost beyond the detection
    pass (key column only).

    Cost trade (the snapshot_merge double-consumption caveat applies):
    when hot keys exist, the RIGHT lineage executes twice — once for
    the cold exchange rows, once for the map-side hot join — plus the
    key-only detection pass.  The alternative (emit pre-joined hot
    rows from the cold pass) would push the hot rows through the
    exchange and re-create the hotspot being avoided; column-pruned
    re-reads are the cheaper side of that trade.  Callers joining a
    derived (non-parquet-read) right side should materialize its
    narrow projection first."""
    if hot_keys is None:
        hot_keys = detect_hot_keys(right, key_r, hot_min_rows=hot_min_rows)
    hot_keys = np.asarray(hot_keys, dtype=np.int64)

    def _valid(batch: pa.Table, key: str) -> tuple[pa.Table, np.ndarray]:
        """The rows with a non-null `key`, and their segment keys."""
        col = batch.column(key)
        if col.null_count:
            batch = batch.filter(col.combine_chunks().is_valid())
        return batch, _seg_keys(batch.column(key))

    def _is_hot(u: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(hot_keys, u), hot_keys.size - 1)
        return hot_keys[pos] == u

    def _expand(ltab: pa.Table, lu: np.ndarray, rtab: pa.Table,
                ru: np.ndarray) -> pa.Table:
        """Every (left, right) row pair with lu == ru; `lu` sorted."""
        lo = np.searchsorted(lu, ru, side="left")
        cnt = np.searchsorted(lu, ru, side="right") - lo
        m = cnt > 0
        lo, cnt = lo[m], cnt[m]
        # left indices are the ranges [lo, lo+cnt) per right row
        l_idx = np.repeat(lo + cnt - np.cumsum(cnt), cnt) \
            + np.arange(int(cnt.sum()))
        r_idx = np.repeat(np.flatnonzero(m), cnt)
        lsel = ltab.select([key_l] + carry_l).take(pa.array(l_idx))
        rsel = rtab.select(carry_r).take(pa.array(r_idx))
        return pa.Table.from_arrays(
            lsel.columns + rsel.columns,
            names=lsel.column_names + rsel.column_names)

    # ---- hot branch: broadcast the left rows of hot keys ----------
    hot_side = None
    if hot_keys.size:
        def left_hot(batch: pa.Table) -> pa.Table:
            batch, u = _valid(batch, key_l)
            return batch.filter(pa.array(_is_hot(u)))

        lhot = collect(left.map_batches(
            left_hot, batch_format="pyarrow", zero_copy_batch=True))
        if lhot.num_rows:
            lhot = lhot.combine_chunks()
            lu = _seg_keys(lhot.column(key_l))
            lorder = np.argsort(lu, kind="stable")
            hot_side = ray.put((np.ascontiguousarray(lu[lorder]),
                                lhot.select([key_l] + carry_l)
                                .take(pa.array(lorder))))

    def right_hot_join(batch: pa.Table, *, side_ref) -> pa.Table:
        lkeys, ltab = ray.get(side_ref) if not isinstance(
            side_ref, tuple) else side_ref
        return _expand(ltab, lkeys, *_valid(batch, key_r))

    # ---- cold branch: co-partition expansion join ------------------
    def cold_rows(batch: pa.Table, *, key: str, cols: list) -> pa.Table:
        batch, u = _valid(batch, key)
        if hot_keys.size:
            cold = ~_is_hot(u)
            batch, u = batch.filter(pa.array(cold)), u[cold]
        return batch.select(cols).append_column("_u", pa.array(u))

    def join_scan(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if not (lt.num_columns and rt.num_columns):
            return pa.table({})       # a side with no rows and no schema
        lu = lt.column("_u").to_numpy(zero_copy_only=False)
        lorder = np.argsort(lu, kind="stable")
        return _expand(lt.take(pa.array(lorder)), lu[lorder], rt,
                       rt.column("_u").to_numpy(zero_copy_only=False))

    lcold = left.map_batches(cold_rows, batch_format="pyarrow",
                             zero_copy_batch=True,
                             fn_kwargs={"key": key_l,
                                        "cols": [key_l] + carry_l})
    rcold = right.map_batches(cold_rows, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"key": key_r, "cols": carry_r})
    cold = exchange([lcold, rcold], "_u", join_scan)
    if hot_side is None:
        return cold
    hot = right.map_batches(right_hot_join, batch_format="pyarrow",
                            zero_copy_batch=True,
                            fn_kwargs={"side_ref": hot_side})
    return cold.union(hot)


def grouped_ewma(ds: ray.data.Dataset, key: str, ts_col: str,
                 val_col: str, id_col: str = "event_id",
                 ) -> ray.data.Dataset:
    """Per-key exponential decay feature (EWMA, alpha=1/4) — the
    streaming "recent behavior" signal feature stores compute per
    entity: y_1 = cents_1; y_t = (cents_t + 3 * y_{t-1}) // 4 over
    the key's events ordered by (ts, id).

    EXACT int64 fixed-point recursion (floor(val*100) cents first),
    FLOOR-division semantics for every sign (numpy // floors; the
    oracle spells the same floor out of DuckDB's trunc-division `//`
    via a nonnegative-modulus correction), so the result hashes
    identically to the recursive-CTE formulation on any input.

    Shape: ONE hash exchange on the key, then a rank-synchronous
    vectorized recursion per partition — the loop runs max-events-
    per-key times (bounded, ~100 here), each step updating EVERY key's
    rank-k event at once; never a per-row python loop.  NULL key / ts
    / value rows are dropped (mirrored by the oracle)."""

    def seg_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(
            batch.column(val_col).combine_chunks().is_valid(),
            batch.column(key).combine_chunks().is_valid()),
            batch.column(ts_col).combine_chunks().is_valid())
        batch = batch.filter(keep)
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = _seg_keys(batch.column(key))
        return pa.table({
            id_col: batch.column(id_col),
            "_u": pa.array(u),
            "_ts": batch.column(ts_col).combine_chunks().cast(pa.int64()),
            "_cents": pa.array(np.floor(v * 100.0).astype(np.int64))})

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = group.column("_u").combine_chunks().to_numpy(
            zero_copy_only=False)
        ts = group.column("_ts").combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = group.column("_cents").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((ids, ts, u))
        us, cs = u[order], cents[order]
        first = np.r_[True, us[1:] != us[:-1]]
        starts = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        rank = np.arange(len(us)) - starts[seg_id]
        y = cs.copy()
        for k in range(1, int(rank.max()) + 1 if len(us) else 0):
            p = np.flatnonzero(rank == k)
            y[p] = (cs[p] + 3 * y[p - 1]) // 4
        return pa.table({id_col: pa.array(ids[order]),
                         "ewma_cents": pa.array(y, pa.int64())})

    parts = ds.select_columns([id_col, key, ts_col, val_col]).map_batches(
        seg_rows, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(parts, "_u", partition_scan)


def sliding_distinct(ds: ray.data.Dataset, key: str, ts_col: str,
                     window_s: int = 3600,
                     slide_s: int = 900) -> ray.data.Dataset:
    """Distinct keys per SLIDING window — the sliding-DAU metric.
    Unlike sliding_counts, distinct cannot pre-aggregate across
    overlapping windows, so the combiner dedups (window, key) PAIRS
    per batch (each event expands into window_s/slide_s windows via
    the vectorized repeat+offset kernel, then collapses to unique
    pairs before the exchange); distinct_count finishes per window.
    Null ts / null KEY rows are dropped up front, so a window whose
    only events carry null keys is OMITTED entirely (not emitted as
    n_distinct=0) — the oracle mirrors the filter."""
    win_us = window_s * 1_000_000
    slide_us = slide_s * 1_000_000

    def expand_pairs(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            batch.column(ts_col).combine_chunks().is_valid(),
            batch.column(key).combine_chunks().is_valid()))
        n = batch.num_rows
        ts = batch.column(ts_col).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        lo = (ts - win_us) // slide_us + 1
        hi = ts // slide_us
        counts = (hi - lo + 1).astype(np.int64)
        total = int(counts.sum())
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        intra = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1],
                                                             counts)
        w = (np.repeat(lo, counts) + intra) * slide_us
        t = pa.table({"window_start": pa.array(w),
                      key: batch.column(key).take(
                          pa.array(np.repeat(np.arange(n), counts)))})
        return t.group_by(["window_start", key]).aggregate([])

    pairs = ds.select_columns([key, ts_col]).map_batches(
        expand_pairs, batch_format="pyarrow", zero_copy_batch=True)
    counts = distinct_count(pairs, key="window_start", distinct_col=key)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": batch.column("window_start").cast(
                pa.timestamp("us")),
            "n_distinct": batch.column("n_distinct")})

    return counts.map_batches(finish, batch_format="pyarrow")


def mad_outliers(ds: ray.data.Dataset, key: str, val_col: str,
                 id_col: str = "event_id",
                 k_mad: int = 5) -> ray.data.Dataset:
    """Per-key robust outlier flags: |x - median| > k_mad * MAD, the
    median-absolute-deviation screen that survives the heavy tails a
    mean/stddev z-score does not.

    EXACT int64 fixed-point (floor(val*100) cents; quantile_disc
    semantics — element at rank max(ceil(n/2)-1, 0) — identical to the
    oracle's nested quantile_disc CTEs).  Shape: ONE hash exchange on
    the key; median, deviations, MAD and flags all compute inside the
    partition scan with two segment lexsorts — a composition that
    would cost a naive plan two grouped aggregates plus two rejoins.
    NULL key/value rows are dropped (SQL aggregate semantics)."""

    def seg_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            batch.column(val_col).combine_chunks().is_valid(),
            batch.column(key).combine_chunks().is_valid())
        batch = batch.filter(keep)
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = _seg_keys(batch.column(key))
        return pa.table({
            id_col: batch.column(id_col),
            "_u": pa.array(u),
            "_cents": pa.array(np.floor(v * 100.0).astype(np.int64))})


    def _disc_per_segment(sorted_vals: np.ndarray, starts: np.ndarray,
                          lens: np.ndarray) -> np.ndarray:
        # quantile_disc(0.5): 0-based rank ceil(n/2) - 1 per segment
        rank = np.maximum((lens + 1) // 2 - 1, 0)
        return sorted_vals[starts + rank]

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        u = group.column("_u").combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = group.column("_cents").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((cents, u))
        us, cs = u[order], cents[order]
        first = np.r_[True, us[1:] != us[:-1]]
        starts = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        lens = np.diff(np.r_[starts, len(us)])
        med = _disc_per_segment(cs, starts, lens)
        # deviations in ORIGINAL row order: map each row to its
        # segment's median via a sort-free inverse-permutation gather
        seg_of_row = np.empty(len(us), np.int64)
        seg_of_row[order] = seg_id
        dev = np.abs(cents - med[seg_of_row])
        order2 = np.lexsort((dev, u))
        ds2, us2 = dev[order2], u[order2]
        first2 = np.r_[True, us2[1:] != us2[:-1]]
        starts2 = np.flatnonzero(first2)
        lens2 = np.diff(np.r_[starts2, len(us2)])
        mad = _disc_per_segment(ds2, starts2, lens2)
        seg_of_row2 = np.empty(len(us), np.int64)
        seg_of_row2[order2] = np.cumsum(first2) - 1
        flag = (dev > k_mad * mad[seg_of_row2]).astype(np.int64)
        return pa.table({id_col: pa.array(ids),
                         "is_outlier": pa.array(flag, pa.int64())})

    parts = ds.select_columns([id_col, key, val_col]).map_batches(
        seg_rows, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(parts, "_u", partition_scan)


def drift_terms(ds: ray.data.Dataset, key: str, ts_col: str,
                val_col: str, cut_iso: str,
                bin_cents: int = 5000) -> ray.data.Dataset:
    """Distribution-drift detection per key: fixed-bin value histograms
    of the EARLY (ts < cut) vs LATE (ts >= cut) halves, emitting one
    per-(key, bin) triangular-discrimination term
    (p - q)^2 / (p + q) — the data-drift monitor a training pipeline
    runs between snapshots.  (Triangular discrimination rather than
    PSI/KL: addition, multiplication and division are IEEE
    correctly-rounded, so the terms hash-match the SQL oracle exactly;
    ln is not.)  Per-bin TERMS are emitted, not the per-key sum, so no
    cross-engine float-association order exists at all.

    Shape: per-batch arrow combiner to (key, half, bin, n) rows — the
    exchange volume is keys x 2 x bins x blocks, never rows — then one
    tiny hash exchange on the key; totals and terms compute inside the
    partition scan.  Keys missing either half are dropped (no
    reference distribution to compare against).  Output row order is
    unspecified (it follows the exchange's partitions)."""
    cut_us = int(np.datetime64(cut_iso, "us").astype(np.int64))

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(
            batch.column(val_col).combine_chunks().is_valid(),
            batch.column(ts_col).combine_chunks().is_valid()),
            batch.column(key).combine_chunks().is_valid())
        batch = batch.filter(keep)
        ts = batch.column(ts_col).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        v = batch.column(val_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        cents = np.floor(v * 100.0)
        t = pa.table({
            key: batch.column(key),
            "late": pa.array((ts >= cut_us).astype(np.int8)),
            "bin": pa.array(np.floor(cents / float(bin_cents)
                                     ).astype(np.int64))})
        agg = t.group_by([key, "late", "bin"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(
            ["n" if c == "count_all" else c for c in agg.column_names])

    def scan(group: pa.Table) -> pa.Table:
        key_type = group.schema.field(key).type
        t = group.group_by([key, "late", "bin"]).aggregate([("n", "sum")])
        # fully vectorized segment math (round-4 verdict item: the
        # last pandas per-key loop in this file) — dictionary-encode
        # the key, segment rows by (key, bin), scatter-add the two
        # halves' counts, divide by per-key half totals.  Identical
        # float values to the old per-key path: each p / q is the same
        # int64 / float64 IEEE division.
        enc = t.column(key).combine_chunks().dictionary_encode()
        kc = np.asarray(enc.indices).astype(np.int64)
        late = t.column("late").to_numpy(zero_copy_only=False
                                         ).astype(np.int64)
        bins = t.column("bin").to_numpy(zero_copy_only=False)
        n = t.column("n_sum").to_numpy(zero_copy_only=False
                                       ).astype(np.int64)
        nk = len(enc.dictionary)
        # per-(key, half) totals
        tot = np.zeros((nk, 2), dtype=np.int64)
        np.add.at(tot, (kc, late), n)
        # segments = distinct (key, bin) pairs; half counts per segment
        order = np.lexsort((late, bins, kc))
        kc_s, bin_s, late_s, n_s = kc[order], bins[order], late[order], \
            n[order]
        first = np.r_[True, (kc_s[1:] != kc_s[:-1])
                      | (bin_s[1:] != bin_s[:-1])]
        seg_of = np.cumsum(first) - 1
        nseg = int(seg_of[-1]) + 1
        seg_k = kc_s[first]
        seg_bin = bin_s[first]
        ne = np.zeros(nseg, dtype=np.int64)
        nl = np.zeros(nseg, dtype=np.int64)
        e = late_s == 0
        np.add.at(ne, seg_of[e], n_s[e])
        np.add.at(nl, seg_of[~e], n_s[~e])
        # keys missing either half are dropped (no reference
        # distribution to drift against)
        keep = (tot[seg_k, 0] > 0) & (tot[seg_k, 1] > 0)
        seg_k, seg_bin, ne, nl = seg_k[keep], seg_bin[keep], ne[keep], \
            nl[keep]
        p = ne / tot[seg_k, 0].astype(np.float64)
        q = nl / tot[seg_k, 1].astype(np.float64)
        s = p + q
        term = np.where(s > 0, (p - q) * (p - q)
                        / np.where(s > 0, s, 1.0), 0.0)
        return pa.table({
            key: enc.dictionary.take(pa.array(seg_k)).cast(key_type),
            "bin": pa.array(seg_bin, pa.int64()),
            "p_early": pa.array(p), "p_late": pa.array(q),
            "drift_term": pa.array(term)})

    partials = ds.select_columns([key, ts_col, val_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(partials, key, scan)


def semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
              left_key: str, right_key: str,
              carry_l: list[str]) -> ray.data.Dataset:
    """Distributed SEMI join: left rows (key + carry columns) whose
    key has AT LEAST ONE match on the right — SQL EXISTS — completing
    the join family (inner/left/full-outer/anti/asof/interval/knn/
    skew all exist; this is the membership-keep dual of
    anti_join_keys).

    Scale shape (both sides large): co-partition — ONE two-input
    `exchange` on the int64 key; the right side collapses to unique
    keys per block BEFORE the exchange (a membership probe needs each
    key once), left rows ride with their carry columns, and one
    vectorized membership test per partition keeps the hits.  NULL
    left keys never match (SQL EXISTS semantics)."""

    def l_rows(batch: pa.Table) -> pa.Table:
        col = batch.column(left_key)
        if col.null_count:
            batch = batch.filter(col.combine_chunks().is_valid())
        return batch.append_column(
            "_k", pc.cast(batch.column(left_key), pa.int64()))

    def r_rows(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column(right_key), pa.int64()).drop_null()
        return pa.table({"_k": pa.array(np.unique(
            k.to_numpy(zero_copy_only=False)))})

    def scan(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if not (lt.num_columns and rt.num_columns):
            return pa.table({})       # a side with no rows and no schema
        hit = np.isin(lt.column("_k").to_numpy(zero_copy_only=False),
                      rt.column("_k").to_numpy(zero_copy_only=False))
        return lt.filter(pa.array(hit)).select([left_key] + carry_l)

    lr = left.select_columns([left_key] + carry_l).map_batches(
        l_rows, batch_format="pyarrow", zero_copy_batch=True)
    rr = right.select_columns([right_key]).map_batches(
        r_rows, batch_format="pyarrow", zero_copy_batch=True)
    return exchange([lr, rr], "_k", scan)
