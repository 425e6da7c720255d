"""Deterministic corpus splitting and training-order shuffling.

The three bookkeeping operators every training-data pipeline runs
after curation:

  * ``train_split``   — hash-Bernoulli train/val/test assignment.
  * ``shuffle_shards``— a deterministic global shuffle expressed as
    (shard_id, pos): shard-major traversal of the output IS the
    shuffled training order, and each shard's internal order is a
    per-shard sort, never a global one.
  * ``source_stats``  — per-source corpus composition (the report a
    curation run ends with).

All three are resume-stable and RNG-free: every assignment derives
from ``md5(seed:id)``, so re-running a failed partition reproduces the
identical split/order (the same idempotency contract as the harvest
sink, pipelines/harvest.py).  Reference analog: the deterministic
natural key + sink routing (LogHarvesterTask.java:431-435) applied to
corpus bookkeeping.

Scale shape (100 TB corpus):
  - train_split / the shard-assign half of shuffle_shards are MAP-ONLY
    (fuse with the read, stream, no exchange).
  - shuffle_shards' rank step is ONE hash exchange keyed on the
    (small-cardinality) shard id followed by one numpy argsort per
    shard — each shard is corpus/n_shards rows, so n_shards scales
    with the cluster exactly like the dedup partition count
    (ops/dedup.py).  No global sort anywhere.
  - source_stats is a per-batch combiner that collapses each block to
    <= |sources|x|langs| rows, merged on the driver (no exchange).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.hashing import md5_lower64_array
from ..functions.parts import collect, exchange_groups

#: default split percentages (cumulative thresholds over md5 % 100)
DEFAULT_SPLITS = (("train", 80), ("val", 10), ("test", 10))


def _seeded_hash(batch: pa.Table, id_col: str, seed: str) -> np.ndarray:
    """uint64 md5 of 'seed:id' — DuckDB equivalent:
    ``md5_number_lower('seed:' || CAST(id AS VARCHAR))``.  The seed
    prefix makes the split/shuffle hash domain independent of the
    sampling hashes (q_sample_docs uses the bare id)."""
    ids = pc.cast(batch.column(id_col), pa.string())
    keys = pc.binary_join_element_wise(pa.scalar(seed), ids, ":")
    return md5_lower64_array(keys)


def train_split(ds: ray.data.Dataset, id_col: str = "doc_id",
                splits=DEFAULT_SPLITS,
                seed: str = "s42") -> ray.data.Dataset:
    """(id, split) with split in {train, val, test} assigned by
    md5(seed:id) % 100 against cumulative percentage thresholds.
    Map-only, one scan, resume-stable."""
    names = [n for n, _ in splits]
    bounds = np.cumsum([p for _, p in splits]).astype(np.uint64)
    assert int(bounds[-1]) == 100, "split percentages must sum to 100"
    labels = pa.array(names, pa.string())

    def assign(batch: pa.Table) -> pa.Table:
        h = _seeded_hash(batch, id_col, seed) % np.uint64(100)
        idx = np.searchsorted(bounds, h, side="right").astype(np.int64)
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            "split": pc.take(labels, pa.array(idx)),
        })

    return ds.select_columns([id_col]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True)


def shuffle_shards(ds: ray.data.Dataset, id_col: str = "doc_id",
                   n_shards: int = 16,
                   seed: str = "s42") -> ray.data.Dataset:
    """Deterministic global shuffle as (id, shard_id, pos).

    shard_id = md5(seed:id) % n_shards; pos = rank of md5(seed:id)
    (ties broken by id) within the shard.  Reading shards in order,
    rows in pos order, is a uniform pseudo-random permutation of the
    corpus — without a global sort: the only exchange is the shard
    hash partition, and each rank step is one numpy lexsort over a
    single shard (corpus/n_shards rows; size n_shards to the cluster
    like the dedup partition count)."""

    def keyed(batch: pa.Table) -> pa.Table:
        h = _seeded_hash(batch, id_col, seed)
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            "_h": pa.array(h),
            "shard_id": pa.array((h % np.uint64(n_shards)).astype(np.int64)),
        })

    def rank(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        h = group.column("_h").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order), dtype=np.int64)
        return pa.table({
            id_col: group.column(id_col),
            "shard_id": group.column("shard_id"),
            "pos": pa.array(pos),
        })

    keyed_ds = ds.select_columns([id_col]).map_batches(
        keyed, batch_format="pyarrow", zero_copy_batch=True)
    return exchange_groups(keyed_ds, "shard_id", rank)


def _source_sums(partials: ray.data.Dataset, source_col: str,
                 col: str) -> dict:
    """{source: sum of `col`} over per-block (source, col) partials —
    each block is already collapsed to <= |sources| rows, so the
    driver merges n_blocks x |sources| rows."""
    t = collect(partials)
    if not t.num_rows:
        return {}
    g = t.group_by([source_col]).aggregate([(col, "sum")])
    return dict(zip(g.column(source_col).to_pylist(),
                    g.column(f"{col}_sum").to_pylist()))


def mixture_sample(ds: ray.data.Dataset, budget_chars: float,
                   id_col: str = "doc_id",
                   source_col: str = "source",
                   chars_col: str = "n_chars",
                   seed: str = "mix",
                   cache_narrow: bool = False) -> ray.data.Dataset:
    """Data-mixing downsampler: cap every source at ~budget_chars of
    text by keeping each doc with probability
    min(1, budget / total_chars(source)) — deterministically, via
    md5(seed:id) % 1e6 against a per-source integer threshold.

    The standard corpus-balancing move (downweight the dominant crawl,
    keep the tail verbatim), expressed in two passes:
      1. per-source char totals — a per-batch combiner collapsing each
         block to <= |sources| rows, merged on the driver (sources are
         few; the rows that cross the wire are per-block partials).
      2. a map-only hash-threshold filter with the tiny threshold
         table broadcast in the closure.
    Resume-stable and exactly reproducible in SQL (same md5 domain +
    FLOOR(1e6 * LEAST(1, B/total)) threshold math).

    Default is TWO LAZY STREAMING SCANS of the pruned narrow
    projection: the totals pass collapses each block to <= |sources|
    rows before anything crosses the wire, so its cost is one pruned
    read — nothing is pinned in the object store (round-4 verdict
    item: the old unconditional materialize() held an O(N) projection
    across the cluster for the op's lifetime; at 10^11 docs that is
    TBs of plasma).  `cache_narrow=True` opts back into pinning when
    the input lineage is expensive to recompute (e.g. the projection
    feeds other ops too)."""

    narrow = ds.select_columns([id_col, source_col, chars_col])
    if cache_narrow:
        narrow = narrow.materialize()

    def totals(batch: pa.Table) -> pa.Table:
        g = batch.select([source_col, chars_col]).group_by(
            [source_col]).aggregate([(chars_col, "sum")])
        return g.rename_columns([source_col, "total"])

    tot = _source_sums(narrow.map_batches(
        totals, batch_format="pyarrow", zero_copy_batch=True),
        source_col, "total")
    thr = {s: int(np.floor(1_000_000 * min(1.0, budget_chars / float(t))))
           for s, t in tot.items()}

    def keep(batch: pa.Table) -> pa.Table:
        h = _seeded_hash(batch, id_col, seed) % np.uint64(1_000_000)
        enc = batch.column(source_col).combine_chunks().dictionary_encode()
        lut = np.array([thr.get(s, 0) for s in
                        enc.dictionary.to_pylist()], dtype=np.uint64)
        idx = np.asarray(pc.fill_null(enc.indices, 0)).astype(np.int64)
        t = lut[idx] if len(lut) else np.empty(0, np.uint64)
        out = batch.filter(pa.array(h < t))
        return pa.table({
            id_col: pc.cast(out.column(id_col), pa.int64()),
            source_col: out.column(source_col)})

    return narrow.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def temperature_thresholds(counts: dict, alpha: float,
                           budget_docs: int) -> dict:
    """Per-source md5%1e6 keep thresholds for temperature-based
    source mixing: sampling weight q_s = n_s^alpha / sum(n_t^alpha)
    (the multilingual-corpus rebalancing rule — alpha < 1 upweights
    low-resource sources), per-source doc target
    t_s = floor(budget * q_s), keep threshold
    floor(1e6 * min(1, t_s / n_s)).

    Pure driver-side float math over |sources| values, factored out so
    the generated DuckDB oracle inlines the SAME thresholds (the LSH
    hyperplane-literal precedent: float reductions are not
    bit-portable across engines, so the tiny scalar computation is
    shared and the ORACLE independently exercises the distributed
    part — the md5 filter and the join).  The summation order is
    pinned (sorted sources) so the result is platform-stable."""
    srcs = sorted(counts)
    pw = {s: float(counts[s]) ** alpha for s in srcs}
    z = float(sum(pw[s] for s in srcs))
    thr = {}
    for s in srcs:
        target = int(np.floor(budget_docs * pw[s] / z))
        thr[s] = int(np.floor(1_000_000 * min(
            1.0, target / float(counts[s]))))
    return thr


def temperature_mix(ds: ray.data.Dataset, alpha: float,
                    budget_docs: int, id_col: str = "doc_id",
                    source_col: str = "source",
                    seed: str = "tmix",
                    cache_narrow: bool = False) -> ray.data.Dataset:
    """Temperature-based source mixing: keep ~floor(budget * q_s)
    docs of each source where q_s ~ n_s^alpha — deterministic
    hash-Bernoulli via md5(seed:id) % 1e6 against the per-source
    threshold (temperature_thresholds).

    Same two-pass shape as mixture_sample: (1) per-source doc counts
    via a per-batch combiner (blocks collapse to <= |sources| rows
    before anything crosses the wire), (2) a map-only filter with the
    tiny threshold table broadcast in the closure.  Resume-stable.
    Like mixture_sample, the default is two lazy streaming scans of
    the pruned projection — nothing pinned; `cache_narrow=True` opts
    into materializing when recomputing the input lineage twice is
    the more expensive side."""
    narrow = ds.select_columns([id_col, source_col])
    if cache_narrow:
        narrow = narrow.materialize()

    def cnt(batch: pa.Table) -> pa.Table:
        g = batch.select([source_col]).group_by(
            [source_col]).aggregate([([], "count_all")])
        return g.rename_columns([source_col, "n"])

    counts = _source_sums(narrow.map_batches(
        cnt, batch_format="pyarrow", zero_copy_batch=True), source_col, "n")
    thr = temperature_thresholds(counts, alpha, budget_docs)

    def keep(batch: pa.Table) -> pa.Table:
        h = _seeded_hash(batch, id_col, seed) % np.uint64(1_000_000)
        enc = batch.column(source_col).combine_chunks().dictionary_encode()
        lut = np.array([thr.get(s, 0) for s in
                        enc.dictionary.to_pylist()], dtype=np.uint64)
        idx = np.asarray(pc.fill_null(enc.indices, 0)).astype(np.int64)
        t = lut[idx] if len(lut) else np.empty(0, np.uint64)
        out = batch.filter(pa.array(h < t))
        return pa.table({
            id_col: pc.cast(out.column(id_col), pa.int64()),
            source_col: out.column(source_col)})

    return narrow.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def source_stats(ds: ray.data.Dataset, source_col: str = "source",
                 lang_col: str = "lang",
                 chars_col: str = "n_chars") -> ray.data.Dataset:
    """Per-source corpus composition: (source, n_docs, total_chars,
    n_langs).  Per-batch combiner collapses each block to one row per
    (source, lang); the driver collects those partials and runs the
    merge + final rollup over n_blocks x |sources|x|langs| rows."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([source_col, lang_col, chars_col]).group_by(
            [source_col, lang_col]).aggregate(
            [([], "count_all"), (chars_col, "sum")])
        return g.rename_columns(
            [source_col, lang_col, "n_docs", "total_chars"])

    t = collect(ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True))
    if not t.num_columns:
        return ray.data.from_arrow(t)
    per_pair = t.group_by([source_col, lang_col]).aggregate(
        [("n_docs", "sum"), ("total_chars", "sum")])
    g = per_pair.group_by([source_col]).aggregate(
        [("n_docs_sum", "sum"), ("total_chars_sum", "sum"),
         ([], "count_all")])
    return ray.data.from_arrow(pa.table({
        source_col: g.column(source_col),
        "n_docs": pc.cast(g.column("n_docs_sum_sum"), pa.int64()),
        "total_chars": pc.cast(g.column("total_chars_sum_sum"),
                               pa.int64()),
        "n_langs": pc.cast(g.column("count_all"), pa.int64()),
    }))


def md5_ranked(ds: ray.data.Dataset, id_col: str) -> ray.data.Dataset:
    """(id, `_h`) rows: every id with its md5-low64 rank, the RNG-free
    uniform order behind exact_sample and ops/cluster's fit sample.
    Ranked by `top_n` on (`_h`, id) ascending, the narrow id column
    alone rides the merge: 16 bytes a row whatever else `ds` carries."""

    def rank(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks()
        return pa.table({id_col: ids, "_h": pa.array(
            md5_lower64_array(pc.cast(ids, pa.string())), pa.uint64())})

    return ds.select_columns([id_col]).map_batches(
        rank, batch_format="pyarrow", zero_copy_batch=True)


def exact_sample(ds: ray.data.Dataset, n: int = 500,
                 id_col: str = "doc_id") -> pa.Table:
    """EXACT-size deterministic global sample — take exactly `n` rows
    ranked by md5(id), without a global sort.

    The hash-Bernoulli samplers above give approximate sizes; training
    recipes often need "exactly n examples, reproducibly".  Ranking by
    a content hash is an RNG-free uniform order, and the n smallest
    hashes are an order statistic: `functions.parts.top_n` over the
    md5_ranked (id, hash) rows, never a corpus exchange.  Ties
    (impossible for distinct ids short of an md5 collision) break by
    id.

    Returns (id, sample_rank) with rank 1..n in hash order, mirrored
    exactly by the SQL oracle's ORDER BY md5_number_lower(...) LIMIT n."""
    from ..functions.parts import top_n
    tbl = top_n(md5_ranked(ds, id_col), n,
                [("_h", "ascending"), (id_col, "ascending")],
                schema=pa.schema([(id_col, pa.int64()),
                                  ("_h", pa.uint64())]))
    return pa.table({
        id_col: tbl.column(id_col),
        "sample_rank": pa.array(np.arange(1, tbl.num_rows + 1,
                                          dtype=np.int64))})
