"""The package's one hash exchange, its per-value form, the driver
merge of small partials and one global top-n, and the decisions they
own.

`exchange(ds, key, fn)` co-locates every row with an equal `key` and
calls `fn` once per non-empty partition.  This module alone decides
how that happens: the partition count (`hash_parts`, scaled with the
cluster's CPUs), the partition hash (`part_ids`: integers through a
golden-ratio mix, fixed-size binary by its low 64 bits, everything
else by md5-low64), and that `fn` never sees a partition without
rows.  Callers emit a key column and never a partition id; a key
that is already a 64-bit hash is passed as an int64 or uint64 column
so it is mixed, never md5'd again.  A join passes its sides as a
sequence of Datasets: each keeps its own columns, and `fn` receives
one table per side, so no side tag, padding column or union schema
is built.

The backend is a raw M x P task exchange: one mapper task per
non-empty block of every input cuts it into P slices (`part_ids`
plus one stable argsort) and returns them with its P per-partition
row counts; one reducer task per partition that received rows from
any input concatenates each input's slices and calls `fn` once.  No
sample pass, range sort or merge runs, and no empty partition is
ever emitted: the output has one block per non-empty partition.
`exchange` runs its inputs (one after another) and both task waves
when it is called (not lazily) and returns a materialized Dataset;
up to M x P slices sit in the object store at once, the same bound a
sort shuffle has.  The partition of a key depends on P, so the ROW
ORDER of an exchange's output depends on the cluster size and is
unspecified; only the set of output rows is.  Partitioning
assumption: one partition of the shuffled rows fits in a worker's
heap; P scales with the cluster, so at N x the data on N x the nodes
the per-partition size is constant.  An exception in a mapper or in
`fn` comes back in the task's own count or error slot, so a failure
in several tasks raises the first one and leaves no failed task
behind.

`exchange_groups(ds, key, fn)` is the per-value form: each reducer
stable-sorts its partition on `key` and calls `fn` once per run of
equal value (NULL keys form one run), for operators whose state is
one key's rows (a shard's writer, a range's prefix sum).  Small
aggregates never cross an exchange: each block collapses to a
per-batch partial, `collect` brings the partials to the driver and
one Arrow `group_by` merges them.

`top_n(ds, n, by)` is the reduce every top-k, order-statistic sample
and bounded fit sample goes through: callers keep their scoring
kernel and hand the scored rows over; the per-block cut, the merge
tree's fan-in and the driver's bound live here.
"""

from __future__ import annotations

import functools
import itertools
import traceback
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor

#: multiplicative 64-bit mixing constant (golden-ratio) used to spread
#: integer keys across partitions
HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


def _cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def hash_parts() -> int:
    """Partition count for partition scans: enough for full CPU
    parallelism, few enough that per-partition python-call overhead is
    negligible."""
    return max(8, _cpus() * 2)


#: sentinel standing in for NULL integer keys so null rows co-locate in
#: one partition / one segment (a real key colliding with this value
#: would merely share a partition — harmless — and a segment only in
#: ops that also treat the sentinel as the null group, where the
#: 1-in-2^63 collision is documented and accepted)
NULL_KEY_SENTINEL = -(1 << 62) - 7


def int_key_array(col) -> np.ndarray:
    """Arrow integer column -> int64 ndarray with nulls replaced by
    NULL_KEY_SENTINEL (stable representation regardless of whether the
    batch happens to contain nulls).  uint64 columns (the house 64-bit
    hash type) are bit-reinterpreted, never value-cast — values >=
    2^63 must not raise."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_unsigned_integer(col.type):
        sent_u = NULL_KEY_SENTINEL & 0xFFFFFFFFFFFFFFFF
        arr = pc.fill_null(col.cast(pa.uint64()), sent_u).to_numpy(
            zero_copy_only=False)
        return arr.astype(np.uint64).view(np.int64)
    col = pc.fill_null(col.cast(pa.int64()), NULL_KEY_SENTINEL)
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def part_ids(col, n_parts: int) -> np.ndarray:
    """int64 partition id in [0, n_parts) for every row of an Arrow
    key column.  Integers go through int_key_array (null-stable,
    uint64 bit-reinterpreted) and the golden-ratio mix; fixed-size
    binary (md5 digests) by its low 64 bits; everything else by its
    md5-low64 (nulls -> 0)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        h = int_key_array(col).view(np.uint64) * HASH_MIX
    elif pa.types.is_fixed_size_binary(col.type):
        w = col.type.byte_width
        raw = np.frombuffer(col.buffers()[1], dtype=np.uint8)
        raw = raw[col.offset * w:(col.offset + len(col)) * w].reshape(-1, w)
        h = raw[:, max(0, w - 8):].copy().view(np.uint64).reshape(-1)
    else:
        from .hashing import md5_lower64_array
        h = md5_lower64_array(col)
    return (h % np.uint64(n_parts)).astype(np.int64)


@ray.remote
def _split(block, key: str, n_parts: int) -> tuple:
    """Mapper: (rows per partition, *one slice per partition), or
    (its exception with the worker's traceback as a note, *P empty
    tables): a mapper never fails, so no return of it is left for Ray
    to log as an unhandled error."""
    try:
        block = BlockAccessor.for_block(block).to_arrow()
        p = part_ids(block.column(key), n_parts)
        block = block.take(pa.array(np.argsort(p, kind="stable")))
        counts = np.bincount(p, minlength=n_parts)
        ends = np.cumsum(counts)
        return (counts,
                *(block.slice(e - c, c) for e, c in zip(ends, counts)))
    except Exception as e:
        e.add_note(traceback.format_exc())
        return (e, *[pa.table({})] * n_parts)


@ray.remote(num_returns=2)
def _reduce(fn, *slices, lens: tuple | None = None) -> tuple:
    """Reducer: (fn's table, None), or (an empty table, fn's exception
    with the worker's traceback as a note).  `lens` cuts `slices` into
    one run per input (one input when None).  A reducer never fails,
    so no task reading its table fails and is left for Ray to log as
    an unhandled error."""
    try:
        lens = lens or (len(slices),)
        return fn(*(pa.concat_tables(slices[e - n:e],
                                     promote_options="default")
                    for e, n in zip(np.cumsum(lens), lens))), None
    except Exception as e:
        e.add_note(traceback.format_exc())
        return pa.table({}), e


def _empty_of(ds: ray.data.Dataset) -> pa.Table:
    """`ds`'s zero-row table (`pa.table({})` when it has no schema);
    `ds.schema()` runs the plan to find it."""
    found = ds.schema()
    if found is None:
        return pa.table({})
    return getattr(found, "base_schema", found).empty_table()


def exchange(ds: ray.data.Dataset | Sequence[ray.data.Dataset], key: str,
             fn: Callable[..., pa.Table]) -> ray.data.Dataset:
    """Hash-partition `ds` on `key` into hash_parts() partitions and
    return the union of `fn(partition)` over every non-empty one.

    Every row with an equal `key` lands in the same call; one call
    sees many keys, so `fn` is a vectorized scan over its whole
    partition.  `fn` receives the rows' own columns and never a
    partition without rows.

    `ds` may be a sequence of Datasets (a join's sides): each must
    carry `key`, of one kind across inputs (integer of any width,
    fixed-size binary, or other), and `fn(*parts)` then receives one
    table per input, in input order, for every partition that holds
    rows of ANY input.  An input without rows in that partition
    arrives as a zero-row table with its columns: one of its mappers'
    empty slices, or `ds.schema()`'s only when the input has no rows
    at all.  Such an input may have no schema either (a Ray map never
    runs on a zero-row block, so a map over no rows yields none); it
    then arrives as `pa.table({})`, with no columns, in every call.

    Runs eagerly: the returned Dataset is materialized, one block per
    non-empty partition (none for a zero-row input); an exception in
    a mapper or in `fn` raises here with its own type."""
    inputs = [ds] if isinstance(ds, ray.data.Dataset) else list(ds)
    P = hash_parts()
    split = _split.options(num_returns=P + 1)
    # one mapper per block as each input streams out, the inputs one
    # after another; zero-row blocks may be schemaless (Ray's own maps
    # never see them) and are skipped
    outs = [[split.remote(ref, key, P)
             for bundle in d.iter_internal_ref_bundles()
             for ref, meta in bundle.blocks if meta.num_rows != 0]
            for d in inputs]
    counts = [ray.get([o[0] for o in side]) for side in outs]
    for c in itertools.chain(*counts):
        if isinstance(c, Exception):
            raise c
    fn_ref = ray.put(fn)
    empty = functools.cache(lambda i: ray.put(_empty_of(inputs[i])))
    reduced = []
    for j in range(1, P + 1):
        per = [[o[j] for o, c in zip(side, cs) if c[j - 1]]
               for side, cs in zip(outs, counts)]
        if not any(per):
            continue
        # an input without rows here: a zero-row slice of its own
        for i, side in enumerate(outs):
            if not per[i]:
                per[i] = [side[0][j] if side else empty(i)]
        kw = {"lens": tuple(map(len, per))} if len(per) > 1 else {}
        reduced.append(_reduce.remote(fn_ref, *itertools.chain(*per), **kw))
    out = ray.data.from_arrow_refs([t for t, _ in reduced])
    # every reducer has finished: its error slot is a local get
    for err in ray.get([e for _, e in reduced]):
        if err is not None:
            raise err
    return out


def exchange_groups(ds: ray.data.Dataset, key: str,
                    fn: Callable[[pa.Table], pa.Table]) -> ray.data.Dataset:
    """`exchange` with `fn` called once per distinct `key` value: each
    reducer stable-sorts its partition on `key`, cuts it into runs of
    equal value (NULL keys form one run) and concatenates fn's
    results.  `fn` never sees a zero-row group."""

    def per_key(part: pa.Table) -> pa.Table:
        part = part.sort_by(key)
        codes = pc.dictionary_encode(part.column(key).combine_chunks(),
                                     null_encoding="encode").indices
        codes = codes.to_numpy(zero_copy_only=False)
        cuts = np.r_[np.flatnonzero(codes[1:] != codes[:-1]) + 1,
                     len(codes)]
        return pa.concat_tables([fn(part.slice(a, b - a)) for a, b in
                                 zip(np.r_[0, cuts[:-1]], cuts)],
                                promote_options="default")

    return exchange(ds, key, per_key)


def concat_typed(tables) -> pa.Table:
    """One table of every typed table in `tables`, `pa.table({})` when
    there is none (a zero-row Ray block may carry no schema)."""
    typed = [t for t in tables if t.num_columns]
    if not typed:
        return pa.table({})
    return pa.concat_tables(typed, promote_options="default")


def collect(ds: ray.data.Dataset) -> pa.Table:
    """`ds` as one driver-held table, for small per-batch partials that
    the driver merges with one Arrow group_by; `pa.table({})` when no
    block of `ds` carries a schema."""
    return concat_typed(ray.get(arrow_block_refs(ds)))


def arrow_block_refs(ds) -> list:
    """Execute `ds` and return its block ObjectRefs (one pyarrow.Table
    per block) WITHOUT going through Dataset.to_arrow_refs().

    to_arrow_refs() ends with `self.schema(fetch_if_missing=True)`;
    whenever the executed plan's cached schema is missing (observed on
    every TPC-H parquet read here: Ray's schema-dedup hash fails with
    "Failed to hash the schemas ... unhashable type: 'dict'", so the
    unified schema never lands in the cache), that call silently
    RE-EXECUTES the entire plan at limit=1 — doubling the cost of any
    driver-side collect (measured 2x on the top_orders join pipeline,
    whose limit=1 probe still pays the full join + sort barrier).

    Every caller in this package produces Arrow blocks
    (batch_format="pyarrow" throughout), so the bundle refs already
    point at pyarrow Tables and the schema probe buys nothing.
    """
    from ray.data.dataset import _ref_bundles_iterator_to_block_refs_list
    return _ref_bundles_iterator_to_block_refs_list(
        ds.iter_internal_ref_bundles())


#: most partials one merge reads: a merge task, and the driver's last
#: concat, each hold at most FAN_IN x n rows
FAN_IN = 8


def _cut(t: pa.Table, n: int, by: list, per: str | None) -> pa.Table:
    """The n smallest rows of `t` by the lexicographic key `by` (per
    value of `per`, when given), sorted by (per, *by).  Arrow's stable
    sort: NaN after every number, null last, in both directions."""
    keys = ([(per, "ascending")] if per else []) + list(by)
    t = t.take(pc.sort_indices(t, sort_keys=keys))
    if per is None:
        return t.slice(0, n)
    g = t.column(per).to_numpy(zero_copy_only=False)
    i = np.arange(len(g))
    head = np.maximum.accumulate(np.where(
        np.r_[True, g[1:] != g[:-1]], i, 0)) if len(g) else i
    return t.filter(pa.array(i - head < n))


def _concat_cut(parts, n: int, by: list, per: str | None) -> pa.Table:
    t = concat_typed(parts)
    return _cut(t, n, by, per) if t.num_columns else t


@ray.remote
def _merge(n: int, by: list, per: str | None, *parts) -> pa.Table:
    return _concat_cut(parts, n, by, per)


def top_n(ds: ray.data.Dataset, n: int, by: list, *,
          per: str | None = None,
          schema: pa.Schema | None = None) -> pa.Table:
    """The package's one global top-n: the n rows of `ds` with the
    smallest lexicographic key `by`, a list of (column, "ascending" |
    "descending"), as one driver-held Arrow table sorted by `by`.
    `per` names a group column: n rows per value, sorted by
    (per, *by).

    Each block is cut to its own top-n in a map that fuses with the
    caller's scoring kernel; the partials then merge in a tree of
    tasks, each reading at most FAN_IN of them, until at most FAN_IN
    remain for the driver (no merge task when the map produced that
    few).  The tree's depth follows from the number of blocks, so the
    driver holds at most FAN_IN x n rows (per `per` value) at any
    corpus size.  Rows
    whose full key ties keep no defined order; callers end `by` with
    a unique id.

    Ray never calls a map on a zero-row block, so an empty input
    yields no typed partial: the result is then `schema`'s empty
    table, or `ds.schema()`'s (which runs the plan to find it) when
    the caller gives none."""
    refs = arrow_block_refs(ds.map_batches(
        _cut, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
        fn_kwargs={"n": n, "by": by, "per": per}))
    while len(refs) > FAN_IN:
        step = -(-len(refs) // -(-len(refs) // FAN_IN))
        groups = [refs[i:i + step] for i in range(0, len(refs), step)]
        refs = [g[0] if len(g) == 1 else _merge.remote(n, by, per, *g)
                for g in groups]
    out = _concat_cut(ray.get(refs), n, by, per)
    if out.num_columns:
        return out
    return _empty_of(ds) if schema is None else schema.empty_table()
