"""Benchmark n-gram decontamination: flag corpus documents that share
any word n-gram with a benchmark (evaluation) document set.

The standard training-data hygiene operator: before training, every
document containing a verbatim n-gram from a held-out benchmark must
be dropped (or at least flagged) so eval scores measure generalization
rather than memorization.

Reference analog: the robot-list membership semi-join
(LogEntrySolrItem.java:388-442 / LogHarvesterTask.java:237-294) —
derive keys from the record, test membership in a broadcast side set,
flag on hit.  Here the "side set" is the benchmark's n-gram
fingerprint set and the derived keys are rolling word n-gram hashes.

Scale shape (100 TB corpus):
  - The benchmark set is SMALL by nature (a fixed eval suite — at most
    millions of n-grams), so its gram-hash set is built with one
    distributed pass over the benchmark slice (per-batch distinct
    partials), merged once on the driver, and `ray.put`-broadcast to
    every scan task.  The corpus-side pass is a single broadcast
    semi-join scan: no shuffle, no all-pairs, nothing materialized but
    the (small) hit list.
  - Hashing: tokens hash per-unique via md5 (house dictionary-scatter
    pattern), n-grams via an odd-multiplier polynomial over uint64
    (wraparound mod 2^64).  Distinct gram hash == distinct gram string
    w.h.p. (64-bit birthday at ~2^32 distinct grams per benchmark —
    far above any real eval suite), so `n_hits` matches the SQL
    oracle's count(DISTINCT gram) exactly at test scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.hashing import md5_lower64_array
from ..functions.parts import collect, exchange
from ..stages.aggregate import hash_partition_aggregate

#: odd multiplier (golden-ratio constant) — uint64 polynomial base.
_B = np.uint64(0x9E3779B97F4A7C15)

_EMPTY_HITS = pa.table({"doc_id": pa.array([], pa.int64()),
                        "n_hits": pa.array([], pa.int64())})


def _gram_hashes(batch: pa.Table, id_col: str, text_col: str,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """All word n-gram hashes in the batch, doc-aligned.

    Returns (doc_ids int64, gram_hashes uint64) — one entry per n-gram
    occurrence (not yet distinct).  Fully vectorized: one Arrow split
    per batch, per-unique token md5, then n shifted-slice
    multiply-adds over the flat token-hash array with a same-doc
    validity mask (no gram crosses a document boundary).
    """
    batch = batch.filter(batch.column(text_col).is_valid())
    if batch.num_rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    text = batch.column(text_col).combine_chunks()
    toks = pc.split_pattern(text, " ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    h = md5_lower64_array(flat)
    total = len(h)
    if total < n:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    L = total - n + 1
    gh = np.zeros(L, dtype=np.uint64)
    mult = np.uint64(1)
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        for j in range(n - 1, -1, -1):  # gh = sum h[i+j]*B^(n-1-j) mod 2^64
            gh += h[j:L + j] * mult
            mult = mult * _B
    valid = parent[:L] == parent[n - 1:]
    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return doc_ids[parent[:L][valid]], gh[valid]


def _bench_mask(batch: pa.Table, id_col: str, mod: int,
                lt: int) -> np.ndarray:
    """Deterministic benchmark-membership mask:
    md5(CAST(id AS VARCHAR)) % mod < lt (the house hash-Bernoulli
    selector, exactly reproducible in the SQL oracle)."""
    h = md5_lower64_array(pc.cast(batch.column(id_col), pa.string()))
    return (h % np.uint64(mod)) < np.uint64(lt)


def contamination_hits(ds: ray.data.Dataset, id_col: str = "doc_id",
                       text_col: str = "text", n: int = 8,
                       bench_mod: int = 100,
                       bench_lt: int = 10) -> ray.data.Dataset:
    """(doc_id, n_hits) for every NON-benchmark document sharing >= 1
    word n-gram with the benchmark slice; n_hits = count of distinct
    shared n-grams.

    Benchmark membership is the deterministic hash split
    md5(doc_id) % bench_mod < bench_lt (in production the benchmark is
    an explicit second dataset; the hash split keeps this sandbox
    self-contained while exercising the identical two-pass shape).
    """
    narrow = ds.select_columns([id_col, text_col])

    def bench_grams(batch: pa.Table) -> pa.Table:
        b = batch.filter(pa.array(_bench_mask(batch, id_col,
                                              bench_mod, bench_lt)))
        _, gh = _gram_hashes(b, id_col, text_col, n)
        return pa.table({"gh": pa.array(np.unique(gh))})

    t = collect(narrow.map_batches(
        bench_grams, batch_format="pyarrow", zero_copy_batch=True))
    bench = (np.unique(t.column("gh").to_numpy()) if t.num_columns
             else np.empty(0, np.uint64))
    bench_ref = ray.put(bench)  # broadcast once, read per task

    def hits(batch: pa.Table, *, bench_set) -> pa.Table:
        bset = ray.get(bench_set) if isinstance(
            bench_set, ray.ObjectRef) else bench_set
        keep = ~_bench_mask(batch, id_col, bench_mod, bench_lt)
        c = batch.filter(pa.array(keep))
        ids, gh = _gram_hashes(c, id_col, text_col, n)
        if len(gh) == 0 or len(bset) == 0:
            return _EMPTY_HITS
        pos = np.searchsorted(bset, gh)
        pos[pos == len(bset)] = 0
        hit = bset[pos] == gh
        d, g = ids[hit], gh[hit]
        if len(d) == 0:
            return _EMPTY_HITS
        order = np.lexsort((g, d))
        d, g = d[order], g[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
        ud, counts = np.unique(d[first], return_counts=True)
        return pa.table({"doc_id": pa.array(ud.astype(np.int64)),
                         "n_hits": pa.array(counts.astype(np.int64))})

    return narrow.map_batches(hits, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"bench_set": bench_ref})


_EMPTY_PAIRS = pa.table({"doc": pa.array([], pa.int64()),
                         "gh": pa.array([], pa.uint64())})


def duplicated_ngram_stats(ds: ray.data.Dataset, id_col: str = "doc_id",
                           text_col: str = "text",
                           n: int = 8) -> ray.data.Dataset:
    """Corpus-wide duplicated-passage statistics: for every document
    with >= 1 word n-gram, (doc_id, n_grams, n_dup_grams) where
    n_grams counts the doc's DISTINCT n-grams and n_dup_grams those
    of them that also occur in at least one OTHER document.

    The exact-substring-duplication signal (deduplicate-text-datasets
    style) at n-gram granularity: a high dup fraction marks boilerplate
    and near-copies that minhash may miss.

    Scale shape: the whole corpus self-join is expressed as ONE
    hash-partition exchange keyed on the gram hash — per-batch combiner
    emits distinct (doc, gram-hash) pairs (16 bytes each, no text),
    each gram's occurrence list lands in one partition, one vectorized
    run-length scan marks grams with >= 2 distinct docs, and per-doc
    partial counts (a doc's grams span partitions) merge through the
    house hash-partition aggregate keyed on doc.  Exchange volume is
    O(distinct gram occurrences) — the honest cost of exact passage
    duplication — with nothing all-pairs and no driver state.
    Collision note: distinct gram hash == distinct gram w.h.p. (64-bit
    birthday at ~2^32 distinct grams)."""
    narrow = ds.select_columns([id_col, text_col])

    def pairs(batch: pa.Table) -> pa.Table:
        ids, gh = _gram_hashes(batch, id_col, text_col, n)
        if len(gh) == 0:
            return _EMPTY_PAIRS
        # distinct (doc, gram) — a doc is wholly inside one batch, so
        # batch-local distinct is globally distinct
        order = np.lexsort((gh, ids))
        d, g = ids[order], gh[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
        d, g = d[first], g[first]
        return pa.table({"doc": pa.array(d.astype(np.int64)),
                         "gh": pa.array(g)})

    pr = narrow.map_batches(pairs, batch_format="pyarrow",
                            zero_copy_batch=True)

    def scan(group: pa.Table) -> pa.Table:
        g = group.column("gh").to_numpy(zero_copy_only=False)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g, d = g[order], d[order]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        counts = np.diff(np.r_[starts, len(g)])  # rows are distinct docs
        dup = np.repeat(counts >= 2, counts)
        ud, inv = np.unique(d, return_inverse=True)
        return pa.table({
            id_col: pa.array(ud.astype(np.int64)),
            "n_grams": pa.array(np.bincount(inv).astype(np.int64)),
            "n_dup_grams": pa.array(
                np.bincount(inv, weights=dup).astype(np.int64))})

    scanned = exchange(pr, "gh", scan)
    merged = hash_partition_aggregate(
        scanned, [id_col],
        [("n_grams", "sum"), ("n_dup_grams", "sum")],
        rename={"n_grams_sum": "n_grams", "n_dup_grams_sum": "n_dup_grams"})
    return merged.map_batches(
        lambda t: pa.table({
            id_col: t.column(id_col),
            "n_grams": pc.cast(t.column("n_grams"), pa.int64()),
            "n_dup_grams": pc.cast(t.column("n_dup_grams"), pa.int64())}),
        batch_format="pyarrow")


_EMPTY_TRIPLES = pa.table({"doc": pa.array([], pa.int64()),
                           "th": pa.array([], pa.uint64()),
                           "cnt": pa.array([], pa.int64())})


def token_rarity(ds: ray.data.Dataset, id_col: str = "doc_id",
                 text_col: str = "text") -> ray.data.Dataset:
    """Per-document corpus-frequency aggregates: (doc_id, n_tokens,
    sum_tf, min_tf) where sum_tf sums, over every token OCCURRENCE in
    the doc, that token's total occurrence count in the whole corpus,
    and min_tf is the rarest token's corpus count.

    The rare-token quality signal: natural-language docs average high
    corpus frequency (stopwords dominate); gibberish, codes and
    boilerplate-free junk average low and bottom out at min_tf = 1.
    Integer-exact, so the SQL oracle (unnest + global token count +
    join back) hash-matches bit-for-bit.

    Scale shape: identical to duplicated_ngram_stats — per-batch
    combiner emits (doc, token-hash, within-doc count) triples (a doc
    is wholly inside one batch, so batch-local counts are the doc's
    global counts), ONE hash-partition exchange keyed on the token
    hash co-locates every occurrence of a token, a vectorized scan
    scatters each token's partition-global total back onto its docs,
    and per-doc partials (a doc's tokens span partitions) merge
    through the house hash-partition aggregate (sum/sum/min).
    Exchange volume O(distinct (doc, token) pairs), never the text.
    Collision note: 64-bit token hashes, same birthday argument as
    the gram hashes above."""
    narrow = ds.select_columns([id_col, text_col])

    def triples(batch: pa.Table) -> pa.Table:
        ids, th = _gram_hashes(batch, id_col, text_col, 1)
        if len(th) == 0:
            return _EMPTY_TRIPLES
        order = np.lexsort((th, ids))
        d, t = ids[order], th[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (t[1:] != t[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.r_[starts, len(d)])
        d, t = d[starts], t[starts]
        return pa.table({"doc": pa.array(d.astype(np.int64)),
                         "th": pa.array(t),
                         "cnt": pa.array(cnt.astype(np.int64))})

    tr = narrow.map_batches(triples, batch_format="pyarrow",
                            zero_copy_batch=True)

    def scan(group: pa.Table) -> pa.Table:
        t = group.column("th").to_numpy(zero_copy_only=False)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        c = group.column("cnt").to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="stable")
        t, d, c = t[order], d[order], c[order]
        starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        seg = np.repeat(np.arange(len(starts)), np.diff(
            np.r_[starts, len(t)]))
        # integer scatter-adds (bincount's float64 weights lose
        # exactness past 2^53 — these sums reach it at corpus scale)
        tot = np.zeros(len(starts), np.int64)
        np.add.at(tot, seg, c)           # per-token corpus total
        tf = tot[seg]                    # token's corpus total, per row
        ud, inv = np.unique(d, return_inverse=True)
        n_tokens = np.zeros(len(ud), np.int64)
        np.add.at(n_tokens, inv, c)
        sum_tf = np.zeros(len(ud), np.int64)
        np.add.at(sum_tf, inv, c * tf)
        min_tf = np.full(len(ud), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(min_tf, inv, tf)
        return pa.table({
            id_col: pa.array(ud.astype(np.int64)),
            "n_tokens": pa.array(n_tokens),
            "sum_tf": pa.array(sum_tf),
            "min_tf": pa.array(min_tf)})

    scanned = exchange(tr, "th", scan)
    merged = hash_partition_aggregate(
        scanned, [id_col],
        [("n_tokens", "sum"), ("sum_tf", "sum"), ("min_tf", "min")],
        rename={"n_tokens_sum": "n_tokens", "sum_tf_sum": "sum_tf",
                "min_tf_min": "min_tf"})
    return merged.map_batches(
        lambda t: pa.table({
            id_col: t.column(id_col),
            "n_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
            "sum_tf": pc.cast(t.column("sum_tf"), pa.int64()),
            "min_tf": pc.cast(t.column("min_tf"), pa.int64())}),
        batch_format="pyarrow")


def _mix64(x: np.ndarray, c: np.uint64) -> np.ndarray:
    """xorshift-multiply finalizer (splitmix64 family): low OUTPUT
    bits depend on all 64 input bits.  A bare `x * c` would not —
    its low m bits depend only on x's low m bits, so two probe
    positions derived that way collide whenever the low bits of two
    keys collide (~2^-20 per pair at m=2^20), which measured 5 orders
    of magnitude above the theoretical Bloom FP rate."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(33))) * c
        return x ^ (x >> np.uint64(29))


_BLOOM_C1 = np.uint64(0xFF51AFD7ED558CCD)
_BLOOM_C2 = np.uint64(0xC4CEB9FE1A85EC53)


def _bloom_positions(gh: np.ndarray, m_bits: int, k: int):
    """k Kirsch-Mitzenmacher probe positions (h1 + i*h2) & (m_bits-1)
    from two independently-mixed halves of the 64-bit gram hash."""
    mask = np.uint64(m_bits - 1)
    h1 = _mix64(gh, _BLOOM_C1)
    h2 = _mix64(gh, _BLOOM_C2) | np.uint64(1)
    with np.errstate(over="ignore"):
        for i in range(k):
            yield (h1 + np.uint64(i) * h2) & mask


def _bloom_build(gh: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """uint64-word Bloom bit array over gram hashes.  m_bits must be
    a power of two."""
    assert m_bits & (m_bits - 1) == 0, "m_bits must be a power of two"
    B = np.zeros(m_bits >> 6, dtype=np.uint64)
    if len(gh) == 0:
        return B
    for p in _bloom_positions(gh, m_bits, k):
        np.bitwise_or.at(B, (p >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (p & np.uint64(63)))
    return B


def _bloom_probe(B: np.ndarray, gh: np.ndarray, m_bits: int,
                 k: int) -> np.ndarray:
    """Vectorized membership probe; True may be a false positive,
    False is definite."""
    if len(gh) == 0:
        return np.empty(0, dtype=bool)
    hit = np.ones(len(gh), dtype=bool)
    for p in _bloom_positions(gh, m_bits, k):
        w = B[(p >> np.uint64(6)).astype(np.int64)]
        hit &= ((w >> (p & np.uint64(63))) & np.uint64(1)).astype(bool)
    return hit


def bloom_contamination_hits(ds: ray.data.Dataset,
                             id_col: str = "doc_id",
                             text_col: str = "text", n: int = 8,
                             bench_mod: int = 100, bench_lt: int = 10,
                             m_bits: int = 1 << 20,
                             k: int = 4) -> ray.data.Dataset:
    """contamination_hits with the broadcast side compressed into a
    Bloom filter: (doc_id, n_hits) where n_hits counts the doc's
    DISTINCT n-grams whose Bloom probe is positive (a superset of the
    exact operator's hits — false positives possible, negatives
    definite).

    WHY a second decontamination path: the exact operator broadcasts
    the full 8-byte-per-gram benchmark hash set.  At a 100 TB
    operating point with a large eval suite (billions of grams) that
    broadcast is tens of GB per worker; the Bloom filter is a FIXED
    m_bits/8 bytes (128 KiB at the default) at a false-positive rate
    of ~(1-e^(-kn/m))^k, and contamination is a flag-for-review
    signal where a tiny FP rate only over-flags.  Same two-pass
    broadcast-semi-join shape, no shuffle; the filter build is one
    distributed distinct pass + a driver-side fold.

    Deterministic (md5 gram hashes, fixed double-hash probes), so the
    driver oracle is a pinned golden cross-checked in pytest against
    the exact operator (bloom hits must be a superset; equal when the
    FP rate is negligible at test scale)."""
    narrow = ds.select_columns([id_col, text_col])

    def bench_grams(batch: pa.Table) -> pa.Table:
        b = batch.filter(pa.array(_bench_mask(batch, id_col,
                                              bench_mod, bench_lt)))
        _, gh = _gram_hashes(b, id_col, text_col, n)
        return pa.table({"gh": pa.array(np.unique(gh))})

    t = collect(narrow.map_batches(
        bench_grams, batch_format="pyarrow", zero_copy_batch=True))
    bench = (np.unique(t.column("gh").to_numpy()) if t.num_columns
             else np.empty(0, np.uint64))
    bloom_ref = ray.put(_bloom_build(bench, m_bits, k))

    def hits(batch: pa.Table, *, bloom) -> pa.Table:
        B = ray.get(bloom) if isinstance(bloom, ray.ObjectRef) else bloom
        keep = ~_bench_mask(batch, id_col, bench_mod, bench_lt)
        c = batch.filter(pa.array(keep))
        ids, gh = _gram_hashes(c, id_col, text_col, n)
        if len(gh) == 0:
            return _EMPTY_HITS
        hit = _bloom_probe(B, gh, m_bits, k)
        d, g = ids[hit], gh[hit]
        if len(d) == 0:
            return _EMPTY_HITS
        order = np.lexsort((g, d))
        d, g = d[order], g[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
        ud, counts = np.unique(d[first], return_counts=True)
        return pa.table({"doc_id": pa.array(ud.astype(np.int64)),
                         "n_hits": pa.array(counts.astype(np.int64))})

    return narrow.map_batches(hits, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"bloom": bloom_ref})


def semantic_contamination_hits(ds: ray.data.Dataset,
                                bench_ds: ray.data.Dataset,
                                threshold: float,
                                id_col: str = "vec_id",
                                vec_col: str = "embedding"
                                ) -> ray.data.Dataset:
    """Embedding-space benchmark decontamination: (id, n_hits) for
    corpus vectors whose cosine similarity to ANY benchmark vector is
    >= threshold — the PARAPHRASE-leakage complement to the lexical
    n-gram/Bloom decontaminators (a reworded eval question shares no
    8-gram but sits next to the original in embedding space).

    Same broadcast semi-join shape as contamination_hits: the
    benchmark side is small by nature (a fixed eval suite), so its
    normalized matrix is collected once on the driver, `ray.put`
    broadcast, and the corpus pass is ONE shuffle-free scan —
    per-batch normalize + matmul + row-wise count of sims >= theta
    (the brute_force_topk kernel with a threshold count instead of a
    top-k).  Nothing is materialized but the (small) hit list.

    Float math is float64 end-to-end; n_hits is integer so the result
    is value-hash comparable with the DuckDB oracle as long as no
    (corpus, bench) pair sits within cross-engine rounding of theta
    (~1e-7 relative; measured gaps on the test fixtures are >= 4e-5 —
    asserted in tests/test_curation_ops.py).

    `bench_ds` may be a Dataset (collected here — it is small) or a
    prebuilt (n_bench, dim) numpy matrix: callers whose benchmark
    lives in a parquet file should load it with a pruned DRIVER-side
    read (pyarrow filters) instead of paying a whole Ray execution
    for a few hundred rows — the side-input-loader pattern
    (sources/readers.load_side_tables)."""
    from .similarity import _as_matrix, _normalize

    if isinstance(bench_ds, np.ndarray):
        q = np.asarray(bench_ds, dtype=np.float64)
    else:
        bench_rows = bench_ds.select_columns([vec_col]).take_all()
        q = np.asarray([r[vec_col] for r in bench_rows],
                       dtype=np.float64)
    q_ref = ray.put(_normalize(q).T)  # (dim, n_bench), read per task

    def scan(batch: pa.Table) -> pa.Table:
        qt = ray.get(q_ref)
        m = _normalize(_as_matrix(batch, vec_col))
        hits = (m @ qt >= threshold).sum(axis=1).astype(np.int64)
        keep = hits > 0
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()).filter(
                pa.array(keep)),
            "n_hits": pa.array(hits[keep])})

    return ds.select_columns([id_col, vec_col]).map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True)
