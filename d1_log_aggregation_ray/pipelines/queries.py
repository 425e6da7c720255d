"""Driver-contract queries: one Ray-Data implementation + one DuckDB
oracle SQL string per operator (SURVEY §2 inventory + training-data
ops).  Column names and value types are aligned on both sides because
the driver hash-compares values after sorting columns by name.

Transcript-family queries run over the deterministic generated corpus
(fixture_dir(sf_dir)); their SQL reads the same parquet files via
read_parquet('<path>').  Training-data-family queries run over the
provided testdata tables (documents / embeddings / events views).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import DEFAULT_CONFIG
from ..functions.parts import arrow_block_refs, collect, exchange, top_n
from ..gen.fixtures import generate_fixtures
from ..sources.readers import load_side_tables, scan_buckets
from ..stages.aggregate import hash_partition_aggregate
from ..stages.project import clean_project
from ..stages.parse import regex_flags
from ..ops.dedup import (minhash_lsh_dedup, simhash_dedup,
                         simhash_near_dedup, ngram_jaccard_dedup,
                         embedding_cosine_dedup)
from ..ops.similarity import brute_force_topk, lsh_topk
from ..ops.sessions import sessionize
from ..ops.text import (token_count_batch, quality_batch, lang_id_batch,
                        fingerprint_batch, _BPE_PATTERN)
from ..ops.multimodal import MediaDecoder

CFG = DEFAULT_CONFIG
GATE_SQL = "('" + "','".join(CFG.gate_roles) + "')"
V1_SQL = "('" + "','".join(CFG.v1_roles) + "')"
VALID = "conv_id IS NOT NULL AND conv_id <> ''"
TURN_ID = "conv_id || '.' || CAST(turn_idx AS VARCHAR) AS turn_id"


def _fx(sf_dir: str) -> str:
    return generate_fixtures(sf_dir)


#: the columns the tool and the role:text kernels of ops/pairs.py read
_TOOL_COLS = ["conv_id", "turn_idx", "tool"]
_TEXT_COLS = ["conv_id", "turn_idx", "role", "text"]


def _bucket_scan(sf_dir: str, scan_fn,
                 columns: list[str] | None = None) -> ray.data.Dataset:
    """Shuffle-free whole-bucket scan (the repeat_visit shape): one
    task per conv-hash bucket, vectorized per-conv segments inside,
    as a Dataset for a query whose result is the scan.  A scan that
    feeds an exchange hands `scan_buckets`' refs to it instead, so
    each mapper chains on its own bucket's task."""
    return ray.data.from_arrow_refs(
        scan_buckets(_fx(sf_dir), scan_fn, columns))


def _clean(sf_dir: str, columns: list[str], fn=None) -> ray.data.Dataset:
    """clean_project over each whole bucket file, then `fn` (if any),
    keeping `columns`: all of it inside the bucket's task."""
    def scan(b: pa.Table) -> pa.Table:
        t = clean_project(b)
        return (fn(t) if fn else t).select(columns)
    return _bucket_scan(sf_dir, scan)


# --------------------------------------------------------------------------
# Transcript family (reference operator analogs)
# --------------------------------------------------------------------------

def q_clean_project(sf_dir: str):
    """M1/M2/M5: validity filter + key + version tag."""
    return _clean(sf_dir, ["turn_id", "conv_id", "turn_idx", "role",
                           "version_compliance"])


def q_parse_flags(sf_dir: str):
    """R1-R3: union-compiled regex banks (pre-membership flags)."""
    side = load_side_tables(_fx(sf_dir))
    partial, full = side.partial_union, side.full_union
    return _clean(sf_dir, ["turn_id", "in_partial_list", "in_full_list"],
                  lambda t: regex_flags(t, partial, full))


def _enriched(sf_dir: str, columns: list[str], light: bool = False):
    """Enrichment through the flagship's row terminal inside each
    bucket task.  The side-table ref rides in the scan function's
    closure, so Ray leaves it unresolved and _get_enricher's
    per-worker cache (keyed by the ref) hits."""
    from .harvest import _enrich_rows
    from ..stages.enrich import DEFAULT_RUN_TS
    side_ref = ray.put(load_side_tables(_fx(sf_dir)))
    return _clean(sf_dir, columns, lambda t: _enrich_rows(
        t, side_ref, CFG, DEFAULT_RUN_TS, light))


def q_membership_flags(sf_dir: str):
    """R2/R3 + J5: flags after the membership/range semi-join."""
    return _enriched(sf_dir, ["turn_id", "in_partial_list", "in_full_list"])


def q_enrich_meta(sf_dir: str):
    """J1/J2/J3: conv_meta broadcast join + tool-family lookup."""
    return _enriched(sf_dir, ["turn_id", "format_id", "series_id", "size",
                              "rights_holder", "tool_family"])


def q_geo_enrich(sf_dir: str):
    """J4: per-conv synthetic geo (the SQL-expressible columns).
    DISTINCT conv per partition of one conv_id exchange (conv
    cardinality), fed by the bucket scans' refs."""
    def add_geo(part: pa.Table) -> pa.Table:
        # the Enricher's geo formulation, over md5 per unique conv
        from ..functions.hashing import md5_lower64_array
        from ..stages.enrich import geo_fields
        conv = part.group_by("conv_id").aggregate([]).column("conv_id")
        return pa.table({"conv_id": conv,
                         **geo_fields(md5_lower64_array(conv))})

    return exchange(scan_buckets(
        _fx(sf_dir), lambda b: clean_project(b).select(["conv_id"])),
        "conv_id", add_geo)


def _flag_counts(ds: ray.data.Dataset, by: str, extra: list[str]):
    """Per-key counts + boolean-flag sums with a per-batch COMBINER:
    each batch collapses to <= n_keys partial rows, and the driver
    merges those partials with one Arrow group_by — no exchange moves
    the table (the pre-aggregate pattern from SURVEY §7)."""
    out_names = ["n_" + c.replace("in_", "").replace("_list", "").replace("is_", "")
                 for c in extra]

    def partial(batch: pa.Table) -> pa.Table:
        cols = {c: pc.cast(batch.column(c), pa.int64()) for c in extra}
        t = pa.table({by: batch.column(by), **cols})
        agg = t.group_by(by).aggregate(
            [([], "count_all")] + [(c, "sum") for c in extra])
        name_map = {by: by, "count_all": "n_rows",
                    **{f"{c}_sum": n for c, n in zip(extra, out_names)}}
        return agg.rename_columns([name_map[c] for c in agg.column_names])

    t = collect(ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True))
    if t.num_columns:
        t = _group_sum(t, by, ["n_rows"] + out_names)
    return ray.data.from_arrow(t)


def _group_sum(t: pa.Table, keys, cols: list[str]) -> pa.Table:
    """`cols` of `t` summed per `keys` value in one Arrow group_by,
    each sum keeping its column's name."""
    g = t.group_by(keys).aggregate([(c, "sum") for c in cols])
    return g.rename_columns([c.removesuffix("_sum") for c in g.column_names])


def q_route_counts(sf_dir: str):
    """S6/A2: per-sink routed-row counts + flag totals (light enricher:
    flags + routing only, no unused enrichment columns)."""
    flags = ["in_partial_list", "in_full_list"]
    return _flag_counts(_enriched(sf_dir, ["sink_id"] + flags, light=True),
                        "sink_id", flags)


def q_watermark(sf_dir: str):
    """A1/A2: per-conv max-ts watermark + throughput count.

    Shuffle-free: convs are bucket-local, so the groupby runs as one
    vectorized arrow group_by per bucket file (a partial aggregate
    that IS the final aggregate under the partitioning invariant)."""
    def per_bucket(batch: pa.Table) -> pa.Table:
        conv = batch.column("conv_id")
        valid = pc.fill_null(
            pc.and_kleene(conv.is_valid(), pc.not_equal(conv, "")), False)
        batch = batch.filter(valid)
        agg = batch.group_by("conv_id").aggregate(
            [("ts", "max"), ([], "count_all")])
        name_map = {"ts_max": "max_ts", "count_all": "n_turns",
                    "conv_id": "conv_id"}
        agg = agg.rename_columns([name_map[c] for c in agg.column_names])
        return agg.select(["conv_id", "n_turns", "max_ts"])

    return _bucket_scan(sf_dir, per_bucket, ["conv_id", "ts"])


def q_watermark_salted(sf_dir: str):
    """A1 watermark via a per-block pre-aggregated groupby (hot
    conv_ids, S3 analog): same result as q_watermark, but a mega conv
    contributes one partial row per input block (here one per bucket
    file) to the exchange instead of all its rows — the general-path
    answer when inputs are NOT pre-bucketed.  (The name predates the
    removal of a salt that never reached the partition key.)"""
    from ..stages.aggregate import count_max
    return count_max(_clean(sf_dir, ["conv_id", "ts"]), "conv_id", "ts")


def q_repeat_visit(sf_dir: str):
    """W1: repeat-visit flags for gated rows (order-dependent window).
    Uses the shuffle-free bucket scan (input is conv-hash partitioned,
    and bucket_window_scan's guard checks it)."""
    from ..stages.window import bucket_window_scan
    gate = pa.array(list(CFG.gate_roles))

    def scan(b: pa.Table) -> pa.Table:
        t = bucket_window_scan(clean_project(b), check_bucket=True)
        m = pc.fill_null(pc.is_in(t.column("role"), value_set=gate), False)
        return t.filter(m).select(["turn_id", "is_repeat_visit"])
    return _bucket_scan(sf_dir, scan)


def q_harvest_sink_counts(sf_dir: str):
    """Flagship end-to-end aggregate: per-sink counts of rows + all
    three COUNTER flags (the golden-count conformance check, A3)."""
    from .harvest import build_pipeline
    ds = build_pipeline(_fx(sf_dir), CFG).select_columns(
        ["sink_id", "in_partial_list", "in_full_list", "is_repeat_visit"])
    return _flag_counts(ds, "sink_id",
                        ["in_partial_list", "in_full_list", "is_repeat_visit"])


# --------------------------------------------------------------------------
# Training-data family (documents / embeddings / events testdata tables)
# --------------------------------------------------------------------------

def _docs(sf_dir: str):
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _min_per(key: str, col: str):
    """exchange fn: min(`col`) per `key` value, as a table of `col`
    alone (the keep-first row of a dedup)."""
    def first(part: pa.Table) -> pa.Table:
        g = part.group_by(key).aggregate([(col, "min")])
        return pa.table({col: g.column(f"{col}_min")})
    return first


def q_dedup_exact(sf_dir: str):
    """Exact dedup: keep min doc_id per identical text.

    The exchange key is the FIXED 16-byte md5 of the text, never the
    raw text itself (at corpus scale a groupby on the document body
    shuffles the corpus).  128-bit md5 makes hash-group == text-group
    (collision odds ~2^-128 per pair; 64 bits would NOT suffice at
    10^12 docs), so the `GROUP BY text` oracle still matches.  The min
    per fingerprint is one Arrow group_by in each reducer of one fp
    exchange — fingerprints are corpus-cardinality and Ray's native
    per-group reduce would crawl (stages/aggregate.py)."""
    from ..functions.hashing import md5_bytes_array
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fp": md5_bytes_array(batch.column("text"))})

    return exchange(ds.map_batches(fp, batch_format="pyarrow",
                                   zero_copy_batch=True), "fp",
                    _min_per("fp", "doc_id"))


def q_doc_fingerprint(sf_dir: str):
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)

    def fp(batch: pa.Table) -> pa.Table:
        batch = fingerprint_batch(batch)
        return batch.select(["doc_id", "fingerprint"])
    return ds.map_batches(fp, batch_format="pyarrow")


def q_token_count(sf_dir: str):
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"])


#: shard packing operating point: ~2048 tokens per training shard,
#: 128-id ranges so the toy corpora still exercise multi-partition
#: prefix-sum carry (design scale: range_width sized to a worker heap)
_PACK_CAP, _PACK_RW = 2048, 128


def q_pack_shards(sf_dir: str):
    """Fixed-token-budget training-shard assignment via the
    distributed prefix-sum scan (ops/packing.py): global cumulative
    token count in doc_id order, shard = cum_before // capacity."""
    from ..ops.packing import pack_shards
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    return pack_shards(ds, capacity=_PACK_CAP, range_width=_PACK_RW)


def q_normalize_text(sf_dir: str):
    """Vectorized canonical text normalization (control-strip,
    whitespace-collapse, trim, NFC) — ops/text.normalize_text_batch."""
    from ..ops.text import normalize_text_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(normalize_text_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_line_dedup(sf_dir: str):
    """Corpus-wide duplicated-line removal (C4/CCNet boilerplate
    strip) — ops/lines.line_dedup; counting exchange + broadcast set +
    one rebuild scan."""
    from ..ops.lines import line_dedup
    return line_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]),
                      threshold=2)


def q_token_rarity(sf_dir: str):
    """Per-doc corpus-frequency aggregates (rare-token quality
    signal) — ops/decontam.token_rarity; one token-hash exchange +
    per-doc partial merge, integer-exact."""
    from ..ops.decontam import token_rarity
    return token_rarity(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_chunk_tokens(sf_dir: str):
    """Fixed-token-window chunking (training-sequence prep) —
    ops/text.chunk_tokens_batch; embarrassingly parallel flat-map,
    no exchange, one split + offset arithmetic + binary_join per
    batch."""
    from ..ops.text import chunk_tokens_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(
        lambda t: chunk_tokens_batch(t, window=64),
        batch_format="pyarrow", zero_copy_batch=True)


def q_curate_corpus(sf_dir: str):
    """Flagship curation composition: normalize -> quality gate ->
    benchmark decontamination -> exact dedup (the pipeline's ONE
    exchange) -> 64-token chunking, emitting training-ready chunks
    (ops/curate.py).  The oracle is the composition of the component
    oracles in the same order."""
    from ..ops.curate import curate_corpus
    return curate_corpus(_docs(sf_dir), n=_DECON_N,
                         bench_mod=_DECON_MOD, bench_lt=_DECON_LT)


def q_doc_quality(sf_dir: str):
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(quality_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens", "n_chars_m", "n_punct", "n_upper"])


def q_lang_id(sf_dir: str):
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    return ds.map_batches(lang_id_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "lang_pred"])


def _query_vec(sf_dir: str) -> np.ndarray:
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    idx = pc.index(t.column("vec_id"), 0).as_py()
    return np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64)


def q_ann_multi_topk(sf_dir: str):
    """Batched similarity search: exact cosine top-10 for 3 query
    vectors in ONE corpus scan (broadcast query matrix, per-batch
    matmul, per-query local top-k)."""
    from ..ops.similarity import brute_force_multi_topk
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    qids = [0, 1, 2]
    qm = np.stack([np.asarray(
        t.column("embedding")[pc.index(t.column("vec_id"), q).as_py()]
        .as_py(), dtype=np.float64) for q in qids])
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    qset = pa.array(qids, pa.int64())
    ds = ds.map_batches(
        lambda b: b.filter(pc.invert(pc.is_in(
            pc.cast(b.column("vec_id"), pa.int64()), value_set=qset))),
        batch_format="pyarrow", zero_copy_batch=True)
    res = brute_force_multi_topk(ds, qm, k=10)
    return res.select(["q_idx", "vec_id"])


#: per-language sampling rates (percent) for the stratified sampler —
#: downsample the dominant language, keep the tail (the standard
#: corpus-balancing move); languages not listed keep the default.
_STRATA_PCT = {"en": 20}
_STRATA_DEFAULT_PCT = 60


def q_stratified_sample(sf_dir: str):
    """Deterministic per-stratum sampling: keep a doc iff
    md5(doc_id) % 100 < rate_pct(lang).  Same hash-Bernoulli mechanism
    as q_sample_docs (exactly reproducible in SQL, resume-stable, no
    RNG state), but with per-language rates — one scan, no shuffle."""
    from ..functions.hashing import md5_lower64_array
    ds = _docs(sf_dir).select_columns(["doc_id", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        h = md5_lower64_array(pc.cast(
            batch.column("doc_id"), pa.string())) % np.uint64(100)
        # rate per UNIQUE language (tiny vocab), scattered via dict
        # indices — no per-row python
        enc = batch.column("lang").combine_chunks().dictionary_encode()
        lut = np.array([_STRATA_PCT.get(la, _STRATA_DEFAULT_PCT)
                        for la in enc.dictionary.to_pylist()],
                       dtype=np.uint64)
        idx = np.asarray(pc.fill_null(enc.indices, 0)).astype(np.int64)
        thr = lut[idx] if len(lut) else np.empty(0, np.uint64)
        return batch.filter(pa.array(h < thr)).select(["doc_id", "lang"])

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_vocab_df(sf_dir: str):
    """Corpus vocabulary statistics (token -> document frequency +
    term frequency) — the IDF building block.  Per-batch combiner
    collapses each block to one row per distinct token BEFORE the
    exchange; the merge runs through the high-cardinality
    hash-partition aggregate (vocab is corpus-cardinality at design
    scale — millions of tokens at 100 TB)."""
    from ..ops.text import vocab_df_partial
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    partials = ds.map_batches(vocab_df_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = hash_partition_aggregate(
        partials, ["token"], [("df", "sum"), ("tf", "sum")],
        rename={"df_sum": "df", "tf_sum": "tf"})
    return merged.map_batches(
        lambda t: pa.table({"token": t.column("token"),
                            "df": pc.cast(t.column("df"), pa.int64()),
                            "tf": pc.cast(t.column("tf"), pa.int64())}),
        batch_format="pyarrow")


def q_compress_ratio(sf_dir: str):
    """Gopher-style compression-ratio quality signal: (doc_id,
    raw_len, comp_len) with zlib level 6 — repetitive boilerplate
    compresses far below ~0.4x, gibberish barely compresses
    (ops/text.compression_ratio_batch; map-only, fused with the
    read).  zlib has no SQL equivalent -> pinned golden; raw_len is
    independently SQL-checkable (octet_length) and asserted in
    tests/test_functions.py."""
    from ..ops.text import compression_ratio_batch
    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        compression_ratio_batch, batch_format="pyarrow",
        zero_copy_batch=True)


def q_cluster_sample(sf_dir: str):
    """Cluster-balanced sampling: cap every k-means cluster at
    ceil(300/10) members via deterministic md5 hash-rank draw
    (ops/cluster.cluster_sample) — the topic-rebalancing step of
    embedding-driven curation.  Pinned golden GENERATED from the
    independent pure-python reference (kmeans_reference labels +
    plain md5 rank selection) and cross-checked against the engine
    at pin time (scripts/make_goldens.py)."""
    from ..ops.cluster import cluster_sample
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    return cluster_sample(ds, target=300, k=10, iters=5)


def q_lm_score(sf_dir: str):
    """CCNet-style LM quality scoring: mean per-bigram log2
    P(right|left) under the corpus's own bigram model (ops/lm.py) —
    model build is one count exchange with in-partition conditional
    denominators + a bounded broadcast table; scoring is one
    shuffle-free scan.  Deterministic at any parallelism (integer
    counts, per-doc accumulation order fixed by the row) but the
    model is bounded/iterative -> pinned golden cross-checked against
    the independent pure-python reference (tests/test_lm.py)."""
    from ..ops.lm import lm_score
    return lm_score(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_bpe_vocab(sf_dir: str):
    """Tokenizer training: BPE merge-rule induction over the corpus
    (ops/text.bpe_train) — the distributed part is the word-frequency
    count (combiner + hash-partition aggregate + per-partition top-k);
    the merge loop runs on the driver over the BOUNDED (word, tf)
    table, like every real BPE trainer.  Deterministic (integer
    counts, total pair order) but iterative, so the oracle is a
    pinned golden cross-checked against the independent
    recount-from-scratch reference (tests/test_bpe.py)."""
    from ..ops.text import bpe_train
    return bpe_train(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_bpe_encode(sf_dir: str):
    """Tokenizer APPLY: per-doc token counts under the corpus-trained
    BPE merge table (ops/text.bpe_encode_counts) — the pricing step
    every packing/budgeting pipeline runs after training.  The merge
    table is BOUNDED (<= 60 rows: the bpe_train contract), so the
    driver take_all is a constant, and the encode pass is MAP-ONLY
    with the table riding the task closure.  Deterministic at any
    parallelism (per-word encode, per-doc scatter-add) but the
    trained table is iterative -> pinned golden generated from the
    independent Sennrich-formulation reference
    (tests/bpe_reference.py, cross-checked at pin time)."""
    from ..ops.text import bpe_encode_counts, bpe_train
    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    rules = bpe_train(docs)  # driver-side bounded pa.Table
    if hasattr(rules, "take_all"):  # tolerate a Dataset-returning impl
        rules = pa.Table.from_pylist(rules.take_all())
    order = pc.sort_indices(rules.column("rank"))
    merges = list(zip(rules.column("left").take(order).to_pylist(),
                      rules.column("right").take(order).to_pylist()))
    return bpe_encode_counts(docs, merges)


#: decontamination operating point: 8-gram overlap vs a 10% hash-split
#: benchmark slice (in production the benchmark is an explicit eval
#: suite; the deterministic split keeps the sandbox self-contained)
_DECON_N = 8
_DECON_MOD, _DECON_LT = 100, 10


def q_ngram_decontaminate(sf_dir: str):
    """Benchmark n-gram decontamination: (doc_id, n_hits) for corpus
    docs sharing any word 8-gram with the benchmark slice.  Broadcast
    semi-join shape — the benchmark gram-hash set is built distributed,
    merged once, ray.put once; the corpus pass is one shuffle-free
    scan (ops/decontam.py)."""
    from ..ops.decontam import contamination_hits
    return contamination_hits(_docs(sf_dir), n=_DECON_N,
                              bench_mod=_DECON_MOD, bench_lt=_DECON_LT)


_SEMDECON_T = 0.35


def q_semantic_decontam(sf_dir: str):
    """Embedding-space benchmark decontamination: corpus vectors
    (label != 0) within cosine 0.35 of ANY benchmark vector
    (label = 0) — the paraphrase-leakage complement to the lexical
    ngram/bloom decontaminators (ops/decontam.
    semantic_contamination_hits; broadcast semi-join, one shuffle-free
    corpus scan).  Integer n_hits output; the fixture's closest
    pair-to-threshold gap is >= 4e-5, far above cross-engine float
    rounding (asserted in tests)."""
    import numpy as np
    import pyarrow.parquet as _pq

    from ..ops.decontam import semantic_contamination_hits
    path = os.path.join(sf_dir, "embeddings.parquet")
    # benchmark side: small by nature -> pruned DRIVER-side read
    # (row-group filter + column prune), no Ray execution spent on it
    bt = _pq.read_table(path, columns=["embedding"],
                        filters=[("label", "=", 0)])
    bench = np.asarray(bt.column("embedding").combine_chunks(
        ).flatten(), dtype=np.float64).reshape(bt.num_rows, -1)
    corpus = ray.data.read_parquet(
        path, columns=["vec_id", "embedding", "label"]).filter(
        expr="label != 0")
    return semantic_contamination_hits(corpus, bench,
                                       threshold=_SEMDECON_T)


def q_bloom_decontam(sf_dir: str):
    """Bloom-filter decontamination: same contract as
    ngram_decontaminate but the broadcast side is a fixed-size Bloom
    bit array (128 KiB) instead of the full gram-hash set — the
    100 TB-benchmark-suite scale path (ops/decontam.py).  Deterministic
    probes, so the oracle is a pinned golden cross-checked in pytest
    against the exact operator (superset property)."""
    from ..ops.decontam import bloom_contamination_hits
    return bloom_contamination_hits(_docs(sf_dir), n=_DECON_N,
                                    bench_mod=_DECON_MOD,
                                    bench_lt=_DECON_LT)


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals per document (duplicate
    -word mass + top-bigram count), exact integers."""
    from ..ops.text import repetition_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(repetition_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens", "n_dup_tokens", "top_2gram_count"])


_QUANTILE_QS = [0.5, 0.9, 0.99]


def q_length_quantiles(sf_dir: str):
    """Exact corpus-wide token-length quantiles via the value-histogram
    exchange (ops/relational.value_quantiles) — the distributed
    quantile operator a data-curation pipeline needs for length gates."""
    from ..ops.relational import value_quantiles
    from ..ops.text import token_count_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    lens = ds.map_batches(token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(["n_tokens"])
    return value_quantiles(lens, "n_tokens", _QUANTILE_QS)


_BUCKET_QS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def q_quality_buckets(sf_dir: str):
    """Curriculum/quality decile labels: (doc_id, n_tokens, bucket)
    where bucket = number of exact corpus decile thresholds strictly
    below the doc's token count (0..9) — the bucketing step of
    quality-stratified training curricula.  Two passes: the exact
    value-histogram quantile exchange (ops/relational.value_quantiles,
    quantile_disc semantics) yields the 9 thresholds on the driver;
    the label pass is a map-only searchsorted against the broadcast
    thresholds.  All integers -> hash-stable vs the SQL oracle."""
    from ..ops.relational import value_quantiles
    from ..ops.text import token_count_batch

    def lens_ds():
        ds = _docs(sf_dir).select_columns(["doc_id", "text"])
        ds = ds.map_batches(
            lambda t: t.filter(t.column("text").is_valid()),
            batch_format="pyarrow", zero_copy_batch=True)
        return ds.map_batches(token_count_batch, batch_format="pyarrow",
                              zero_copy_batch=True).select_columns(
            ["doc_id", "n_tokens"])

    thr = value_quantiles(lens_ds().select_columns(["n_tokens"]),
                          "n_tokens", _BUCKET_QS)
    t_sorted = np.sort(np.asarray(thr.column("value"), dtype=np.int64))
    tref = ray.put(t_sorted)

    def label(batch: pa.Table, *, tr) -> pa.Table:
        t = ray.get(tr) if isinstance(tr, ray.ObjectRef) else tr
        n = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        b = np.searchsorted(t, n, side="left").astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_tokens": batch.column("n_tokens"),
            "bucket": pa.array(b)})

    return lens_ds().map_batches(label, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 fn_kwargs={"tr": tref})


def q_length_trim(sf_dir: str):
    """Adaptive length gate: keep docs whose token count lies within
    the corpus [p10, p90] — relative thresholds computed by the exact
    distributed quantile operator, then one broadcast-threshold filter
    over the once-materialized narrow (doc_id, n_tokens) projection
    (quality gates tuned to the corpus, not magic constants)."""
    from ..ops.relational import value_quantiles
    from ..ops.text import token_count_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    narrow = ds.map_batches(
        token_count_batch, batch_format="pyarrow",
        zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"]).materialize()
    qv = value_quantiles(narrow, "n_tokens", [0.1, 0.9])
    lo, hi = (qv.column("value")[0].as_py(),
              qv.column("value")[1].as_py())
    return narrow.map_batches(
        lambda b: b.filter(pc.and_(
            pc.greater_equal(b.column("n_tokens"), lo),
            pc.less_equal(b.column("n_tokens"), hi))).select(["doc_id"]),
        batch_format="pyarrow", zero_copy_batch=True)


from ..ops.pii import PII_PATTERNS as _PII_PATTERNS

#: the regex bank shared verbatim by the Arrow kernels and the SQL
#: oracle (RE2 both sides)
_PII_PATS = [p for _, p, _ in _PII_PATTERNS]


def q_pii_redact(sf_dir: str):
    """PII counts + staged redaction (emails -> IPv4 -> phones) —
    pure-map RE2 kernels, byte-identical with the nested
    regexp_replace SQL mirror (ops/pii.py)."""
    from ..ops.pii import pii_redact_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(pii_redact_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_emails", "n_ipv4", "n_phones", "text_redacted"])


#: duplicated-passage gram size (same as decontamination)
_DUPGRAM_N = 8


def q_dup_ngram_stats(sf_dir: str):
    """Corpus-wide duplicated 8-gram statistics per document — the
    exact-substring-duplication signal expressed as one gram-hash
    exchange + one doc-keyed merge (ops/decontam.py)."""
    from ..ops.decontam import duplicated_ngram_stats
    return duplicated_ngram_stats(_docs(sf_dir), n=_DUPGRAM_N)


def q_distinctive_terms(sf_dir: str):
    """Top-3 most distinctive terms per doc by the integer-exact
    tf-idf ordering (df asc, tf desc, term asc) — distributed df join
    + per-doc top-k combiner (ops/text.distinctive_terms)."""
    from ..ops.text import distinctive_terms
    return distinctive_terms(_docs(sf_dir), k=3)


def q_ann_cosine_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 query vector."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    ds = ds.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("vec_id"), 0))),
        batch_format="pyarrow", zero_copy_batch=True)
    out = brute_force_topk(ds, _query_vec(sf_dir), k=10)
    return out.select(["vec_id"])


def q_ann_lsh_topk(sf_dir: str):
    """LSH-prefiltered top-10 (vec_id only: float scores don't survive
    a cross-engine value-hash, and ordering is already pinned by the
    deterministic (-score, id) tie-break)."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    ds = ds.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("vec_id"), 0))),
        batch_format="pyarrow", zero_copy_batch=True)
    return lsh_topk(ds, _query_vec(sf_dir), k=10).select(["vec_id"])


def q_sample_docs(sf_dir: str):
    """Deterministic hash-Bernoulli sample (10%): keep doc iff
    md5(doc_id) % 100 < 10.  The reproducible sampling primitive a
    training-data pipeline needs (ds.random_sample is seed-and-
    partitioning dependent; a content hash is stable across runs,
    cluster sizes and engines — same rows in the DuckDB oracle)."""
    from ..functions.hashing import md5_lower64_array
    ds = _docs(sf_dir).select_columns(["doc_id"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        h = md5_lower64_array(pc.cast(ids, pa.string()))
        return batch.filter(pa.array(h % np.uint64(100) < np.uint64(10)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def q_quality_filter(sf_dir: str):
    """Quality-gate pipeline: docs passing length / punctuation-ratio /
    mean-token-length thresholds (the scoring kernels of quality_batch
    composed into a filter — the shape of a pretraining quality cut)."""
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)

    def gate(batch: pa.Table) -> pa.Table:
        batch = quality_batch(batch)
        n_tok = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        n_chr = batch.column("n_chars_m").to_numpy(zero_copy_only=False)
        n_pun = batch.column("n_punct").to_numpy(zero_copy_only=False)
        ok = ((n_tok >= 5)
              & (n_chr >= 30)
              & (n_pun * 5 <= n_tok)          # punct ratio <= 0.2/token
              & (n_chr <= 40 * n_tok))        # mean token len <= 40
        return pa.table({"doc_id": batch.column("doc_id").filter(
            pa.array(ok))})

    return ds.map_batches(gate, batch_format="pyarrow")


def q_token_count_bpe(sf_dir: str):
    """BPE-ish pre-tokenizer counts (single RE2 scan per batch)."""
    from ..ops.text import token_count_bpe_batch
    ds = _docs(sf_dir).select_columns(["doc_id", "text"])
    ds = ds.map_batches(lambda t: t.filter(t.column("text").is_valid()),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(token_count_bpe_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_pretokens"])


_IVF_CACHE: dict = {}
_IVF_DAY2_CACHE: dict = {}


def q_ann_ivf_topk(sf_dir: str):
    """Persisted-IVF top-10: the index is built once per corpus (a
    parquet layout partitioned by coarse-centroid list id under /tmp)
    and each query reads ONLY its n_probe nearest partitions —
    prune-at-the-read, unlike the scan-time LSH prefilter.  vec_id
    only, same rationale as q_ann_lsh_topk."""
    import hashlib as _hl
    from ..ops.similarity import build_ivf_index, ivf_topk
    tag = _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    index_dir = f"/tmp/graft_ivf/{tag}"
    key = (sf_dir, index_dir)
    if key not in _IVF_CACHE or not os.path.isdir(index_dir):
        ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        ds = ds.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t.column("vec_id"), 0))),
            batch_format="pyarrow", zero_copy_batch=True)
        import shutil as _sh
        _sh.rmtree(index_dir, ignore_errors=True)
        build_ivf_index(ds, index_dir, n_lists=16)
        _IVF_CACHE.clear()
        _IVF_CACHE[key] = True
    out = ivf_topk(index_dir, _query_vec(sf_dir), k=10, n_probe=4)
    return out.select(["vec_id"])


def q_ann_ivf_day2(sf_dir: str):
    """Incremental persisted-IVF (round-5): the index is BUILT on the
    even-id half of the corpus (training the coarse quantizer), the
    odd-id half arrives later and is APPENDED as an additive segment
    against the frozen centroids (ops/similarity.append_ivf_index —
    day-2 ingest never retrains or re-shuffles the old corpus), and
    the query reads base + segment partitions for its probed lists.
    Deterministic end to end, so the oracle is a pinned golden
    (scripts/make_goldens.py).  vec_id only, as the other ANN
    variants."""
    import hashlib as _hl
    from ..ops.similarity import (append_ivf_index, build_ivf_index,
                                  ivf_topk)
    tag = _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    index_dir = f"/tmp/graft_ivf_day2/{tag}"
    key = (sf_dir, index_dir)
    # own cache dict: q_ann_ivf_topk's rebuild path clears _IVF_CACHE,
    # which must not evict an intact day-2 index (review finding)
    if key not in _IVF_DAY2_CACHE or not os.path.isdir(index_dir):
        base = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"))
        even = base.map_batches(
            lambda t: t.filter(pc.and_(
                pc.equal(pc.bit_wise_and(pc.cast(t.column("vec_id"),
                                                 pa.int64()), 1), 0),
                pc.invert(pc.equal(t.column("vec_id"), 0)))),
            batch_format="pyarrow", zero_copy_batch=True)
        odd = base.map_batches(
            lambda t: t.filter(pc.equal(pc.bit_wise_and(
                pc.cast(t.column("vec_id"), pa.int64()), 1), 1)),
            batch_format="pyarrow", zero_copy_batch=True)
        import shutil as _sh
        _sh.rmtree(index_dir, ignore_errors=True)
        build_ivf_index(even, index_dir, n_lists=16)
        append_ivf_index(odd, index_dir)
        _IVF_DAY2_CACHE[key] = True
    out = ivf_topk(index_dir, _query_vec(sf_dir), k=10, n_probe=4)
    return out.select(["vec_id"])


def q_ann_pq_topk(sf_dir: str):
    """Product-quantization ADC top-10 — the vector-compression half
    of the billion-scale IVF+PQ recipe (ops/quantize.pq_train/encode/
    topk): 16 subspaces x 64 codes learned with the integer-exact
    Lloyd machinery, 64-dim floats become 16 uint8 codes (16x), queries
    scan codes via an int64 lookup-table sum.  Deterministic at any
    parallelism -> pinned golden; recall@10 vs exact cosine gated in
    tests/test_ann_recall.py."""
    from ..ops.quantize import pq_train, pq_encode, pq_topk
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("vec_id"), 0))),
        batch_format="pyarrow", zero_copy_batch=True)
    cb = pq_train(ds, m=16, k=64, iters=4)
    return pq_topk(pq_encode(ds, cb), cb, _query_vec(sf_dir),
                   k=10).select(["vec_id"])


_IVFPQ_CACHE: dict = {}


def q_ann_ivfpq_topk(sf_dir: str):
    """The full billion-scale ANN recipe end-to-end: IVF coarse
    pruning over PQ-compressed partitions (ops/quantize.
    build_ivfpq_index / ivfpq_topk) — a probe reads n_probe/n_lists of
    the corpus AND only uint8 codes, the two IO factors multiplied.
    Byte-reproducible index (lowest-id coarse sample + integer-exact
    PQ Lloyd) -> pinned golden; recall gated in test_ann_recall."""
    import hashlib as _hl
    import shutil as _sh
    from ..ops.quantize import build_ivfpq_index, ivfpq_topk
    tag = _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    index_dir = f"/tmp/graft_ivfpq/{tag}"
    key = (sf_dir, index_dir)
    if key not in _IVFPQ_CACHE or not os.path.isdir(index_dir):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"])
        ds = ds.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t.column("vec_id"), 0))),
            batch_format="pyarrow", zero_copy_batch=True)
        _sh.rmtree(index_dir, ignore_errors=True)
        build_ivfpq_index(ds, index_dir, n_lists=16, m=16, k_codes=64)
        _IVFPQ_CACHE.clear()
        _IVFPQ_CACHE[key] = True
    return ivfpq_topk(index_dir, _query_vec(sf_dir), k=10,
                      n_probe=6).select(["vec_id"])


def q_kmeans_clusters(sf_dir: str):
    """Corpus-organization k-means: (vec_id, cluster) after 5
    integer-exact Lloyd iterations (ops/cluster.py).  Deterministic at
    any parallelism, so the oracle is a pinned golden generated from
    the INDEPENDENT pure-python reference (tests/kmeans_reference.py),
    not from the engine (round-2 ADVICE rule)."""
    from ..ops.cluster import kmeans_embeddings
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    return kmeans_embeddings(ds, k=10, iters=5)


def q_dedup_minhash(sf_dir: str):
    return minhash_lsh_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_dedup_simhash(sf_dir: str):
    return simhash_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_dedup_simhash_near(sf_dir: str):
    """Banded near-dup simhash (4x16-bit bands, hamming<=3 verify)."""
    return simhash_near_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_dedup_ngram(sf_dir: str):
    return ngram_jaccard_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))


def q_dedup_diff(sf_dir: str):
    """Dedup FAMILY-AGREEMENT audit: docs where minhash-LSH and
    banded-simhash near-dup disagree — (doc_id, flag) with flag =
    'minhash_only' (survives minhash, dropped by simhash) or
    'simhash_only'.  The audit a curation run consults before
    choosing its dedup operating point: a large asymmetric diff means
    one family's threshold is off for this corpus.

    Round-5: ONE fused text pass (ops/dedup.dedup_family_diff) — both
    families' band keys come from a single tokenize, two narrow
    exchanges total; survivor semantics unchanged (the scan helpers
    are shared with the standalone family ops), so the oracle stays
    the SAME pinned golden survivor sets the individual families are
    checked against (EXCEPT in both directions)."""
    from ..ops.dedup import dedup_family_diff
    return dedup_family_diff(_docs(sf_dir).select_columns(
        ["doc_id", "text"]))


def q_dedup_embedding(sf_dir: str):
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return embedding_cosine_dedup(ds, threshold=0.99)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (k-means blocking + within-cluster exact cosine) —
    ops/cluster.semantic_dedup.  Deterministic at any parallelism
    (integer-exact assignment, fixed pair orientation), so the oracle
    is a pinned golden cross-checked against the independent
    pure-python reference at pin time (scripts/make_goldens.py)."""
    from ..ops.cluster import semantic_dedup
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    return semantic_dedup(ds, k=10, iters=5, threshold=0.4)


def q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment (connected components over the
    minhash-LSH candidate graph) — the transitive "keep one per
    cluster" primitive the pairwise families can't express."""
    from ..ops.dedup import minhash_cluster_ids
    return minhash_cluster_ids(_docs(sf_dir).select_columns(
        ["doc_id", "text"]))


def q_dedup_keep_best(sf_dir: str):
    """Quality-aware near-dup survivor selection ("keep the longest
    copy"): ONE survivor per minhash-LSH connected component, chosen
    by max token count (ties -> smaller doc_id) instead of the min-id
    rule the plain dedup families use — the curation semantic for
    multiply-scraped pages at different truncations
    (ops/dedup.keep_best_dedup).  Deterministic at any parallelism
    but not SQL-expressible -> pinned golden, cross-checked against
    the independent union-find + pure-python len(text.split(' '))
    reference (tests/test_independent_reference.py)."""
    from ..ops.dedup import keep_best_dedup
    return keep_best_dedup(_docs(sf_dir).select_columns(
        ["doc_id", "text"]))


def q_sessionize(sf_dir: str):
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_id", "ts"])
    return sessionize(ds)


def q_events_agg(sf_dir: str):
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by("event_type").aggregate(
            [([], "count_all"), ("value", "min"), ("value", "max")])

    # per-batch partial, then one driver merge: raw rows never cross
    t = collect(ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True))
    if t.num_columns:
        t = t.group_by("event_type").aggregate(
            [("count_all", "sum"), ("value_min", "min"),
             ("value_max", "max")])
        names = {"count_all_sum": "n", "value_min_min": "min_value",
                 "value_max_max": "max_value"}
        t = t.rename_columns([names.get(c, c) for c in t.column_names])
    return ray.data.from_arrow(t)


def q_props_extract(sf_dir: str):
    """Grok-style field extraction from the events `props` JSON-ish
    string column (R2 analog on the events payload): vectorized
    pc.extract_regex, no python row loop."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column("props"), r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_id": batch.column("event_id"), "k": k})

    return ds.map_batches(extract, batch_format="pyarrow",
                          zero_copy_batch=True)


def _events(sf_dir: str, columns=None):
    return ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                                 columns=columns)


def q_asof_prior(sf_dir: str):
    """As-of join: for each click, the value of the most recent
    strictly-prior view by the same user (custom operator per SURVEY —
    per-key merge_asof under groupby)."""
    from ..ops.relational import asof_join_prior
    ds = _events(sf_dir, ["event_id", "user_id", "event_type", "ts", "value"])
    return asof_join_prior(ds, key="user_id", ts_col="ts",
                           left_type="click", right_type="view")


#: top_orders operating point (TPC-H Q3 analog on the testdata views)
_TOPORD_SEG, _TOPORD_CUT = "BUILDING", "1998-01-01"


def q_top_orders(sf_dir: str):
    """Large x large relational pipeline (TPC-H Q3 analog): customer
    segment broadcast semi-join -> lineitem combiner pre-aggregation ->
    co-partition hash join (both sides keyed by o_orderkey in the same
    column, ONE two-input `exchange` co-locates them, and each
    partition's Arrow group_by + join finishes the revenue aggregate
    in the same pass) -> global top-10 through `top_n`.  Replaces
    Ray's native JoinOperator, which cost a 16-actor pool + a SECOND
    exchange for the post-join aggregate and showed 4-30 s run-to-run
    variance on this box; the co-partition join is one exchange,
    deterministic, and the per-key completeness of a partition makes
    the scan's group sums final (no re-merge).  Revenue is
    integer-exact (cents x discount-complement-percent) so the value
    hash matches DuckDB regardless of sum order."""
    cut = np.datetime64(_TOPORD_CUT).astype("datetime64[us]").astype(
        np.int64)
    ct = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                       columns=["c_custkey", "c_mktsegment"])
    keep = ct.filter(pc.equal(ct.column("c_mktsegment"), _TOPORD_SEG))
    cust_ref = ray.put(np.sort(
        keep.column("c_custkey").to_numpy(zero_copy_only=False)))

    def filter_orders(batch: pa.Table, *, cust) -> pa.Table:
        ck = ray.get(cust) if isinstance(cust, ray.ObjectRef) else cust
        keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        od = batch.column("o_orderdate").combine_chunks()
        pos = np.searchsorted(ck, keys)
        pos[pos == len(ck)] = 0
        hit = (ck[pos] == keys) & (
            od.cast(pa.int64()).to_numpy(zero_copy_only=False) < cut)
        return batch.select(["o_orderkey", "o_orderdate"]).filter(
            pa.array(hit))

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        filter_orders, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"cust": cust_ref})

    def lineitem_partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        m = sd > cut
        keys = batch.column("l_orderkey").to_numpy(
            zero_copy_only=False)[m]
        ep = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[m]
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)[m]
        rev = (np.rint(ep * 100).astype(np.int64)
               * (100 - np.rint(dc * 100).astype(np.int64)))
        return _group_sum(pa.table({"o_orderkey": keys, "revenue_c2": rev}),
                          "o_orderkey", ["revenue_c2"])

    items = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]).map_batches(
        lineitem_partial, batch_format="pyarrow", zero_copy_batch=True)

    def join_scan(orders: pa.Table, items: pa.Table) -> pa.Table:
        return orders.join(_group_sum(items, "o_orderkey", ["revenue_c2"]),
                           "o_orderkey", join_type="inner")

    per_order = exchange([orders, items], "o_orderkey", join_scan)
    return top_n(per_order, 10, [("revenue_c2", "descending"),
                                 ("o_orderkey", "ascending")],
                 schema=pa.schema([("o_orderkey", pa.int64()),
                                   ("o_orderdate", pa.timestamp("us")),
                                   ("revenue_c2", pa.int64())]))


def q_snapshot_merge(sf_dir: str):
    """Latest-wins upsert merge (the MERGE INTO / CDC-compaction
    primitive): base snapshot (every doc, version 1) unioned with a
    delta (docs with doc_id % 5 == 0 updated to version 2, n_chars
    shifted) -> ONE surviving row per id, the max-version one.  The
    union co-partitions on hash(id) via the topk_per_key combiner
    (k=1): at most one row per id per block crosses the exchange, the
    per-partition scan is a vectorized segment head — the compaction
    shape for merging a day's CDC stream into a 100 TB snapshot.
    (id, version) unique by contract, as in any CDC log.  The base
    lineage is consumed twice (base + delta derivation) — safe here
    by construction since it is a pruned parquet read; a real CDC
    merge reads base and delta from SEPARATE sources."""
    from ..ops.relational import topk_per_key
    base = _docs(sf_dir).select_columns(["doc_id", "n_chars"])

    def as_base(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "version": pa.array(np.ones(b.num_rows, np.int64)),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64())})

    def as_delta(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        m = ids % 5 == 0
        b = b.filter(pa.array(m))
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "version": pa.array(np.full(b.num_rows, 2, np.int64)),
            "n_chars": pc.cast(pc.add(b.column("n_chars"), 1000),
                               pa.int64())})

    u = base.map_batches(as_base, batch_format="pyarrow",
                         zero_copy_batch=True).union(
        base.map_batches(as_delta, batch_format="pyarrow",
                         zero_copy_batch=True))
    merged = topk_per_key(u, key="doc_id", order_col="version",
                          k=1, tiebreak="version")
    return merged.select_columns(["doc_id", "version", "n_chars"])


#: large-order quantity threshold (TPC-H Q18 analog)
_BIGORD_T = 300


def q_big_orders(sf_dir: str):
    """Large x large THREE-table pipeline (TPC-H Q18 analog): orders
    whose total lineitem quantity exceeds the threshold, with their
    customer's segment attached.  Plan: lineitem per-batch qty
    combiners + orders rows meet in ONE two-input co-partition
    exchange on hash(o_orderkey) (the top_orders machinery); the
    HAVING cut runs inside the join scan, so what leaves stage 1 is
    only the qualifying (orderkey, custkey, sum_qty) rows — bounded
    by the threshold by construction — which broadcast against a
    customer scan for the attribute attach (no third shuffle).
    sum_qty is integer-exact (quantities are integral; rint-cast
    before the sum), so the value hash matches DuckDB regardless of
    order."""
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"])

    def li_partial(batch: pa.Table) -> pa.Table:
        qty = np.rint(batch.column("l_quantity").to_numpy(
            zero_copy_only=False)).astype(np.int64)
        return _group_sum(pa.table({"o_orderkey": batch.column("l_orderkey"),
                                    "sum_qty": qty}),
                          "o_orderkey", ["sum_qty"])

    items = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"]).map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True)

    def join_scan(orders: pa.Table, items: pa.Table) -> pa.Table:
        per = _group_sum(items, "o_orderkey", ["sum_qty"])
        big = per.filter(pc.greater(per.column("sum_qty"), _BIGORD_T))
        return big.join(orders, "o_orderkey", join_type="inner")

    surv = exchange([orders, items], "o_orderkey", join_scan).take_all()
    # bounded by the HAVING threshold by construction -> broadcast
    surv.sort(key=lambda r: (r["o_custkey"], r["o_orderkey"]))
    s_ck = np.array([r["o_custkey"] for r in surv], dtype=np.int64)
    s_ok = np.array([r["o_orderkey"] for r in surv], dtype=np.int64)
    s_sq = np.array([r["sum_qty"] for r in surv], dtype=np.int64)
    surv_ref = ray.put((s_ck, s_ok, s_sq))

    def attach(batch: pa.Table, *, sref) -> pa.Table:
        ck, ok, sq = ray.get(sref) if isinstance(
            sref, ray.ObjectRef) else sref
        cc = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        lo = np.searchsorted(ck, cc, side="left")
        hi = np.searchsorted(ck, cc, side="right")
        n_per = hi - lo
        rows = np.nonzero(n_per)[0]
        out_idx = np.concatenate(
            [np.arange(lo[r], hi[r]) for r in rows]) if len(rows) \
            else np.array([], dtype=np.int64)
        src = np.repeat(rows, n_per[rows])
        seg = batch.column("c_mktsegment").take(pa.array(src))
        return pa.table({
            "c_custkey": pa.array(cc[src]),
            "c_mktsegment": seg,
            "o_orderkey": pa.array(ok[out_idx]),
            "sum_qty": pa.array(sq[out_idx])})

    return ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        attach, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"sref": surv_ref})


#: pricing-summary shipdate cutoff (TPC-H Q1 analog operating point)
_PSUM_CUT = "1998-09-02"


def q_pricing_summary(sf_dir: str):
    """Full-scan aggregate report (TPC-H Q1 analog): per (returnflag,
    linestatus) sums, averages and row count over every lineitem
    shipped by the cutoff — the canonical map-combine-reduce.  Plan:
    one pruned 7-column read; a per-batch arrow group_by combiner
    collapses each block to <= 6 rows (flag x status cardinality is
    fixed), so ONE tiny exchange of 6-row partials finishes the sums;
    the averages are derived from the exact integer sums in a final
    map over <= 6 rows — float math happens once per GROUP, never per
    row, so the value hash matches DuckDB bit-exactly regardless of
    block order.  Money is integerized (cents / cents x pct / cents x
    pct x pct); the per-BATCH int64 partials are safe to ~8e7 rows per
    block for the charge term, and the exchange-side merge sums in
    decimal128(38) so corpus-scale group totals never wrap (DuckDB
    itself sums to HUGEINT); only the final int64 output cast narrows,
    which a 100 TB deployment would widen to decimal output."""
    cut = np.datetime64(_PSUM_CUT).astype("datetime64[us]").astype(np.int64)
    sums = ["sum_qty", "sum_base_c", "sum_disc_c2", "sum_charge_c4",
            "sum_disc_pct"]

    def partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        m = sd <= cut
        qty = np.rint(batch.column("l_quantity").to_numpy(
            zero_copy_only=False)[m]).astype(np.int64)
        ep = np.rint(batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[m] * 100).astype(np.int64)
        dc = np.rint(batch.column("l_discount").to_numpy(
            zero_copy_only=False)[m] * 100).astype(np.int64)
        tx = np.rint(batch.column("l_tax").to_numpy(
            zero_copy_only=False)[m] * 100).astype(np.int64)
        base2 = ep * (100 - dc)
        mask = pa.array(m)
        tbl = pa.table({
            "l_returnflag": batch.column("l_returnflag").combine_chunks()
                                 .filter(mask),
            "l_linestatus": batch.column("l_linestatus").combine_chunks()
                                 .filter(mask),
            "sum_qty": pa.array(qty),
            "sum_base_c": pa.array(ep),
            "sum_disc_c2": pa.array(base2),
            "sum_charge_c4": pa.array(base2 * (100 + tx)),
            "sum_disc_pct": pa.array(dc),
            "count_order": pa.array(np.ones(len(qty), np.int64))})
        g = tbl.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [(c, "sum") for c in sums] + [("count_order", "sum")])
        g = g.rename_columns(
            ["l_returnflag", "l_linestatus"] + sums + ["count_order"])
        # widen the partials so the exchange-side merge can't wrap
        for c in sums:
            g = g.set_column(g.schema.get_field_index(c), c,
                             g.column(c).cast(pa.decimal128(38, 0)))
        return g

    agg = hash_partition_aggregate(
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_shipdate", "l_quantity", "l_extendedprice",
                     "l_discount", "l_tax", "l_returnflag",
                     "l_linestatus"]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [(c, "sum") for c in sums] + [("count_order", "sum")],
        rename={f"{c}_sum": c for c in sums + ["count_order"]})

    def finish(batch: pa.Table) -> pa.Table:
        s = {c: batch.column(c).cast(pa.int64()).to_numpy(
            zero_copy_only=False) for c in sums}
        n = batch.column("count_order").to_numpy(
            zero_copy_only=False).astype(np.float64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "sum_qty": pa.array(s["sum_qty"]),
            "sum_base_c": pa.array(s["sum_base_c"]),
            "sum_disc_c2": pa.array(s["sum_disc_c2"]),
            "sum_charge_c4": pa.array(s["sum_charge_c4"]),
            "avg_qty": pa.array(s["sum_qty"].astype(np.float64) / n),
            "avg_price_c": pa.array(
                s["sum_base_c"].astype(np.float64) / n),
            "avg_disc_pct": pa.array(
                s["sum_disc_pct"].astype(np.float64) / n),
            "count_order": batch.column("count_order")})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


#: regional-revenue operating point (TPC-H Q5 analog)
_RREV_REGION, _RREV_LO, _RREV_HI = "ASIA", "1996-01-01", "1997-01-01"


def q_regional_revenue(sf_dir: str):
    """Six-table star join (TPC-H Q5 analog): revenue per nation from
    lineitems where the CUSTOMER and the SUPPLIER sit in the same
    nation of one region, orders within a year.  Plan: nation+region
    (tiny) resolve driver-side; the two dimension sides — supplier and
    customer key->nationkey, both pre-filtered to the region's nations
    (~1/5 of each) — broadcast as sorted arrays (ONE ray.put each, the
    top_orders dimension-broadcast pattern; at extreme SF the customer
    side would swap to a custkey co-partition exchange).  Orders
    (date-filtered, custkey-probed) and per-(orderkey, suppnation)
    lineitem revenue combiners meet in ONE two-input co-partition
    exchange on hash(o_orderkey); the scan joins on (orderkey, nation),
    which applies the c_nat == s_nat equality, and collapses to
    per-nation partials IN the same pass,
    so only (nationkey, revenue) rows — bounded by nation cardinality —
    leave stage one.  Revenue is integer cents x pct, hash-exact."""
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rk = reg.filter(pc.equal(reg.column("r_name"), _RREV_REGION)) \
            .column("r_regionkey")[0].as_py()
    nt = nat.filter(pc.equal(nat.column("n_regionkey"), rk))
    nat_keys = nt.column("n_nationkey").to_numpy(
        zero_copy_only=False).astype(np.int64)
    nat_names = {int(k): v for k, v in zip(
        nat_keys, nt.column("n_name").to_pylist())}

    def _dim(table: str, key: str, nk: str) -> ray.ObjectRef:
        t = pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                          columns=[key, nk])
        keys = t.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
        nats = t.column(nk).to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.isin(nats, nat_keys)
        keys, nats = keys[m], nats[m]
        o = np.argsort(keys)
        return ray.put((keys[o], nats[o]))

    sup_ref = _dim("supplier", "s_suppkey", "s_nationkey")
    cust_ref = _dim("customer", "c_custkey", "c_nationkey")
    lo = np.datetime64(_RREV_LO).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(_RREV_HI).astype("datetime64[us]").astype(np.int64)

    def _probe(ref, keys):
        dk, dn = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        if len(dk) == 0:
            return np.zeros(len(keys), bool), np.zeros(len(keys), np.int64)
        pos = np.searchsorted(dk, keys)
        pos[pos == len(dk)] = 0
        return dk[pos] == keys, dn[pos]

    def ord_rows(batch: pa.Table, *, cust) -> pa.Table:
        od = batch.column("o_orderdate").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        m = (od >= lo) & (od < hi)
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False)[m]
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)[m]
        hit, cn = _probe(cust, ck)
        return pa.table({"k": ok[hit], "n_nationkey": cn[hit]})

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        ord_rows, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"cust": cust_ref})

    def li_partial(batch: pa.Table, *, sup) -> pa.Table:
        keys = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        hit, sn = _probe(sup, sk)
        ep = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[hit]
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)[hit]
        rev = (np.rint(ep * 100).astype(np.int64)
               * (100 - np.rint(dc * 100).astype(np.int64)))
        return _group_sum(pa.table({"k": keys[hit], "n_nationkey": sn[hit],
                                    "revenue_c2": rev}),
                          ["k", "n_nationkey"], ["revenue_c2"])

    items = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"sup": sup_ref})

    def join_scan(orders: pa.Table, items: pa.Table) -> pa.Table:
        hits = items.join(orders, ["k", "n_nationkey"], join_type="inner")
        return _group_sum(hits, "n_nationkey", ["revenue_c2"])

    # the scan already collapsed each partition to <= |region nations|
    # rows, so the final merge is over a nation-bounded set at ANY
    # corpus size — a driver-side sum, not a second exchange
    merged = collect(exchange([orders, items], "k", join_scan))
    if not merged.num_rows:
        return pa.table({"n_name": pa.array([], pa.string()),
                         "revenue_c2": pa.array([], pa.int64())})
    merged = _group_sum(merged, "n_nationkey", ["revenue_c2"])
    nk = merged.column("n_nationkey").to_numpy(zero_copy_only=False)
    return pa.table({
        "n_name": pa.array([nat_names[int(x)] for x in nk], pa.string()),
        "revenue_c2": merged.column("revenue_c2")})


#: lapsed-customer cutoff for the anti-join query
_LAPSED_CUT = "1999-01-01"


def q_cust_no_orders(sf_dir: str):
    """Distributed ANTI join (large x large): lapsed customers — no
    order since the cutoff.  Two-input co-partition exchange +
    per-partition searchsorted misses, right side filtered at the read
    and deduped per block before the exchange
    (ops/relational.anti_join_keys)."""
    from ..ops.relational import anti_join_keys
    cut = np.datetime64(_LAPSED_CUT).astype(
        "datetime64[us]").astype(np.int64)
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"]).map_batches(
        lambda b: b.filter(pc.greater_equal(
            pc.cast(b.column("o_orderdate").combine_chunks(),
                    pa.int64()),
            cut)).select(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return anti_join_keys(cust, orders, "c_custkey", "o_custkey")


def q_zscore_events(sf_dir: str):
    """Grouped standardization at scale: z-score every event value
    within its user (aggregate-then-rejoin — moments CANNOT broadcast
    at corpus key cardinality; ops/relational.zscore_per_key)."""
    from ..ops.relational import zscore_per_key
    ds = _events(sf_dir, ["event_id", "user_id", "value"])
    return zscore_per_key(ds, key="user_id", val_col="value",
                          id_col="event_id")


def q_price_qty_corr(sf_dir: str):
    """Per-part Pearson correlation of quantity vs extended price —
    the grouped feature-screening aggregate (ops/relational.
    grouped_corr).  PURE COMBINER at corpus key cardinality: only
    per-block (key, moments) partial rows cross the one hash
    exchange; the finish formula runs once per group in the oracle's
    exact association order and rounds half-away to 6 decimals."""
    from ..ops.relational import grouped_corr
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"])
    return grouped_corr(ds, key="l_partkey", x_col="l_quantity",
                        y_col="l_extendedprice", out_col="corr_qp")


def q_winsorize(sf_dir: str):
    """Grouped percentile clipping (winsorization): every event value
    clipped to its event_type's [p05, p95] — the outlier-robust
    normalization step upstream of model features.  Two passes: an
    EXACT grouped-quantile histogram exchange (ops/relational.
    grouped_quantiles, float-valued) whose result is bounded by type
    cardinality, collected once and closed over by a map-only clip
    pass.  Both the quantile elements and the surviving values are
    COPIED doubles, never recomputed, so the hash matches DuckDB."""
    from ..ops.relational import grouped_quantiles
    bounds = grouped_quantiles(
        _events(sf_dir, ["event_type", "value"]), "event_type", "value",
        [0.05, 0.95], value_type=pa.float64())
    b = collect(bounds)
    _empty = pa.schema([("event_id", pa.int64()),
                        ("value_w", pa.float64())])
    if not b.num_rows:
        return _empty.empty_table()
    b = b.to_pandas()
    lo_map = b[b["q"] == 0.05].set_index("event_type")["value"]
    hi_map = b[b["q"] == 0.95].set_index("event_type")["value"]
    types = np.array(sorted(lo_map.index))
    lo = lo_map[types].to_numpy()
    hi = hi_map[types].to_numpy()

    def clip(batch: pa.Table) -> pa.Table:
        v = batch.column("value").combine_chunks()
        m = pc.and_(v.is_valid(),
                    batch.column("event_type").is_valid()).to_numpy(
            zero_copy_only=False)
        et = batch.column("event_type").combine_chunks().filter(
            pa.array(m))
        idx = pc.index_in(et, pa.array(types)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        vv = v.to_numpy(zero_copy_only=False)[m]
        return pa.table({
            "event_id": batch.column("event_id").combine_chunks()
                             .filter(pa.array(m)),
            "value_w": pa.array(np.minimum(np.maximum(vv, lo[idx]),
                                           hi[idx]))}).cast(_empty)

    return _events(sf_dir, ["event_id", "event_type", "value"]) \
        .map_batches(clip, batch_format="pyarrow", zero_copy_batch=True)


def q_window_distinct(sf_dir: str):
    """Distinct users per tumbling 1-hour window (the DAU-per-hour
    metric): vectorized window-id derivation feeding the pair-dedup
    combiner + hash-partition distinct count
    (ops/relational.distinct_count)."""
    from ..ops.relational import distinct_count
    ds = _events(sf_dir, ["user_id", "ts"])

    def add_window(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column("ts").combine_chunks().is_valid())
        ts = batch.column("ts").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        win = pa.array((ts // 3_600_000_000) * 3_600_000_000,
                       pa.int64())
        return pa.table({"window_start": win,
                         "user_id": batch.column("user_id")})

    win = ds.map_batches(add_window, batch_format="pyarrow",
                         zero_copy_batch=True)
    out = distinct_count(win, key="window_start",
                         distinct_col="user_id")
    return out.map_batches(
        lambda b: pa.table({
            "window_start": b.column("window_start").cast(
                pa.timestamp("us")),
            "n_distinct": b.column("n_distinct")}),
        batch_format="pyarrow")


def q_event_seq(sf_dir: str):
    """Per-user event sequence numbers (ROW_NUMBER within key by
    time): one hash(key) exchange + one lexsort-and-segment-rank scan
    per partition — the shuffle_shards rank pattern on an ordering
    the data already defines."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts"])

    def tag(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            batch.column("ts").combine_chunks().is_valid())
        u = pc.cast(batch.column("user_id"), pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "u": pa.array(u),
            "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            "t": batch.column("ts").combine_chunks().cast(pa.int64()),
        })

    def rank(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        e = group.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        us, es = u[order], e[order]
        starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
        seq = (np.arange(len(us), dtype=np.int64)
               - np.repeat(starts, np.diff(np.r_[starts, len(us)]))
               + 1)
        return pa.table({"event_id": pa.array(es),
                         "seq": pa.array(seq)})

    return exchange(ds.map_batches(tag, batch_format="pyarrow",
                                   zero_copy_batch=True), "u", rank)


def q_sft_pairs(sf_dir: str):
    """SFT prompt/response pair extraction: each assistant turn paired
    with the nearest preceding user turn in its conversation — a
    per-conv order-dependent walk (the W1 scan shape) producing
    training pairs.  Shuffle-free under the whole-bucket contract."""
    from ..ops.pairs import sft_pairs_scan
    return _bucket_scan(sf_dir, sft_pairs_scan)


def q_context_windows(sf_dir: str):
    """Multi-turn SFT context assembly: each assistant turn paired with
    the char-budgeted tail of its full prior-conversation transcript
    ("role: text" lines) — the training-example construction step.
    Shuffle-free whole-bucket scan; per-row work is one string slice
    (ops/pairs.context_windows_scan)."""
    from ..ops.pairs import context_windows_scan
    return _bucket_scan(sf_dir, context_windows_scan)


def q_tool_loops(sf_dir: str):
    """Agent-loop detection signal: per tool-using conversation, the
    longest run of consecutive identical tool invocations (gaps-and-
    islands over tool-bearing turns) — the stuck-agent retry-loop
    histogram (ops/pairs.tool_loops_scan)."""
    from ..ops.pairs import tool_loops_scan
    return _bucket_scan(sf_dir, tool_loops_scan, _TOOL_COLS)


def q_conv_stats(sf_dir: str):
    """Per-conversation rollup (turns, assistant turns, tool calls,
    chars, wall duration): the reference's per-harvest throughput /
    max-ts aggregates (LogHarvesterTask.java:342-344,512-523) at conv
    granularity, computed bucket-locally with reduceat — no groupby
    exchange because convs never span buckets."""
    from ..ops.pairs import conv_stats_scan
    return _bucket_scan(sf_dir, conv_stats_scan)


def q_conv_text(sf_dir: str):
    """Turns -> training-document assembly: one row per conversation
    with every turn's text joined by newline in (conv_id, turn_idx)
    order — the canonical step that feeds the doc-level curation ops
    (dedup / quality / decontamination) from transcript input.
    Shuffle-free whole-bucket scan; the concatenation is ONE
    vectorized pc.binary_join per bucket over large_string offsets
    (ops/pairs.conv_text_scan), so a >2 GiB bucket still assembles."""
    from ..ops.pairs import conv_text_scan
    return _bucket_scan(sf_dir, conv_text_scan)


def q_role_violations(sf_dir: str):
    """Role-alternation protocol validation per conversation: counts
    adjacent same-role turn pairs in turn order (the ordering-sentinel
    analog, ReadEventCounterCache.java:150-160)."""
    from ..ops.pairs import role_violations_scan
    return _bucket_scan(sf_dir, role_violations_scan,
                        ["conv_id", "turn_idx", "role"])


def q_role_repair(sf_dir: str):
    """Role-alternation protocol REPAIR (the fix to role_violations'
    detect): keep the first turn of every same-role run per
    conversation, yielding strictly alternating transcripts ready for
    SFT pairing — shuffle-free whole-bucket scan
    (ops/pairs.role_repair_scan)."""
    from ..ops.pairs import role_repair_scan
    return _bucket_scan(sf_dir, role_repair_scan)


def q_role_merge(sf_dir: str):
    """Lossless role-alternation repair: consecutive same-role turns
    concatenated into one ('\\n'-joined), keyed by the run's first
    turn_idx — chat-log normalization before SFT pairing
    (ops/pairs.role_merge_scan; role_repair's drop becomes a
    merge)."""
    from ..ops.pairs import role_merge_scan
    return _bucket_scan(sf_dir, role_merge_scan)


def q_turn_latency(sf_dir: str):
    """Assistant response latency per turn: ts(assistant) − ts(nearest
    preceding user turn) in microseconds, per conversation — the SFT
    pairing walk applied to timestamps.  Shuffle-free bucket scan."""
    from ..ops.pairs import turn_latency_scan
    return _bucket_scan(sf_dir, turn_latency_scan,
                        ["conv_id", "turn_idx", "role", "ts"])


def q_tool_transitions(sf_dir: str):
    """Tool-usage bigram counts (prev tool → tool within a conversation
    in turn order): per-bucket partial counts, then ONE small exchange
    of tool-vocabulary² partial rows summed by hash partition — the
    combine-before-shuffle house pattern."""
    from ..ops.pairs import tool_transitions_scan
    partials = scan_buckets(_fx(sf_dir), tool_transitions_scan, _TOOL_COLS)
    return hash_partition_aggregate(
        partials, ["from_tool", "to_tool"], [("n", "sum")],
        rename={"n_sum": "n"})


def q_tool_trigrams(sf_dir: str):
    """Tool-usage TRIGRAM counts (consecutive length-3 tool chains
    within a conversation): the higher-order stuck-pattern signal —
    tool_loops catches one tool repeated, trigrams catch multi-tool
    cycles (grep→read→grep).  Per-bucket partials + ONE
    tool-vocabulary³-keyed exchange."""
    from ..ops.pairs import tool_trigram_scan
    partials = scan_buckets(_fx(sf_dir), tool_trigram_scan, _TOOL_COLS)
    return hash_partition_aggregate(
        partials, ["t1", "t2", "t3"], [("n", "sum")],
        rename={"n_sum": "n"})


def q_tool_paths(sf_dir: str):
    """Common-workflow mining: frequency of each conversation's FULL
    ordered tool chain ('grep->read->edit'), the whole-trajectory
    complement of the bigram/trigram transition counts.  Per-bucket
    Arrow list-join partials (conv_fingerprint shape), then one
    path-keyed exchange of (path, n) rows — path cardinality is the
    workflow vocabulary, far below conv count."""
    from ..ops.pairs import tool_path_scan
    partials = scan_buckets(_fx(sf_dir), tool_path_scan, _TOOL_COLS)
    return hash_partition_aggregate(
        partials, ["path"], [("n_convs", "sum")],
        rename={"n_convs_sum": "n_convs"})


def q_assistant_templates(sf_dir: str):
    """Templated-reply detection: the 20 most-repeated non-empty
    assistant turn texts (count desc, text asc) — canned refusals /
    apologies are a known SFT-quality hazard.  Per-bucket (md5, text,
    n) partials, ONE md5-keyed exchange (never the raw body; the text
    rides alongside once per distinct template per bucket), then
    `top_n` with a string tiebreak."""
    from ..ops.pairs import assistant_template_scan
    partials = scan_buckets(_fx(sf_dir), assistant_template_scan,
                            _TEXT_COLS)
    agg = hash_partition_aggregate(
        partials, ["h"], [("n", "sum"), ("text", "min")],
        rename={"n_sum": "n", "text_min": "text"})
    out = pa.schema([("text", pa.string()), ("n", pa.int64())])
    return top_n(agg, 20, [("n", "descending"), ("text", "ascending")],
                 schema=out).select(out.names).cast(out)


def q_ooo_turns(sf_dir: str):
    """Out-of-order timestamp audit: per conversation, the count of
    turns whose ts precedes the running max of earlier turns (turn
    order) — the ingest data-quality sentinel
    (ops/pairs.ooo_turns_scan).  Shuffle-free bucket scan."""
    from ..ops.pairs import ooo_turns_scan
    return _bucket_scan(sf_dir, ooo_turns_scan,
                        ["conv_id", "turn_idx", "ts"])


def q_conv_dedup(sf_dir: str):
    """Conversation-level exact dedup: assemble each conv's full
    transcript bucket-locally (Arrow list-join kernels), 128-bit md5
    fingerprint, then keep min(conv_id) per fingerprint in the
    reducers of one fp exchange fed by the bucket scans' refs — only
    (16-byte fp, conv_id) pairs cross the exchange, never transcript
    text."""
    from ..ops.pairs import conv_fingerprint_scan
    return exchange(scan_buckets(_fx(sf_dir), conv_fingerprint_scan,
                                 _TEXT_COLS), "fp", _min_per("fp", "conv_id"))


def q_fork_dedup(sf_dir: str):
    """Fork dedup over agent transcripts: drop conversations whose
    entire turn sequence is an exact PREFIX of another conversation
    (the retry/branch duplication pattern of agent scaffolds; exact
    duplicates keep min conv_id).  Bucket-local chained prefix
    fingerprints (one 32-hex md5 per turn, linear in bytes), then one
    hash exchange of (pfp, depth, n_turns, conv_id) rows — never text —
    and a vectorized survivor scan per fingerprint partition."""
    from ..ops.pairs import fork_dedup_partition, prefix_chain_scan
    return exchange(scan_buckets(_fx(sf_dir), prefix_chain_scan,
                                 _TEXT_COLS), "h64", fork_dedup_partition)


def q_cum_chars(sf_dir: str):
    """Cumulative character count per conversation in turn order (the
    running-sum window function), shuffle-free bucket scan."""
    from ..ops.pairs import cum_chars_scan
    return _bucket_scan(sf_dir, cum_chars_scan)


def q_role_length_quantiles(sf_dir: str):
    """Per-role exact text-length quantiles (median + p90) via the
    grouped (key, value)-histogram exchange — the grouped-quantile
    operator a curation pipeline needs for per-slice length gates.
    Each bucket task reads three columns and emits (role, len)."""
    from ..ops.relational import grouped_quantiles

    def lengths(batch: pa.Table) -> pa.Table:
        conv = batch.column("conv_id")
        keep = pc.and_kleene(
            pc.and_kleene(conv.is_valid(), pc.not_equal(conv, "")),
            pc.and_kleene(batch.column("role").is_valid(),
                          batch.column("text").is_valid()))
        batch = batch.filter(pc.fill_null(keep, False))
        return pa.table({
            "role": batch.column("role"),
            "len": pc.cast(pc.utf8_length(batch.column("text")),
                           pa.int64()),
        })

    lens = _bucket_scan(sf_dir, lengths, ["conv_id", "role", "text"])
    return grouped_quantiles(lens, "role", "len", [0.5, 0.9])


def q_top_tool_per_conv(sf_dir: str):
    """Most-used tool per conversation (mode with smallest-value tie
    break) — the argmax-per-group operator: each bucket task drops
    rows without a conv or tool, grouped_mode's (conv, tool) count
    combiner collapses each bucket's block, one hash-partition
    exchange, vectorized winner pick per partition."""
    from ..ops.relational import grouped_mode

    def clean(batch: pa.Table) -> pa.Table:
        conv = batch.column("conv_id")
        tool = batch.column("tool")
        keep = pc.and_kleene(
            pc.and_kleene(conv.is_valid(), pc.not_equal(conv, "")),
            pc.and_kleene(tool.is_valid(), pc.not_equal(tool, "")))
        return batch.filter(pc.fill_null(keep, False))

    cleaned = _bucket_scan(sf_dir, clean, ["conv_id", "tool"])
    return grouped_mode(cleaned, "conv_id", "tool", out_val="top_tool")


def q_rollup_counts(sf_dir: str):
    """Turn counts by (role, tool) with ROLLUP subtotals (grouping
    sets): leaf counts combine inside each bucket task, merge in one
    hash-partition exchange keyed on role (so each role's subtotal is
    derivable inside its partition scan); only the vocabulary-bounded
    leaf+subtotal table reaches the driver, where the single grand-
    total row is appended (the value_quantiles bounded-collect
    precedent).  NULL markers follow SQL ROLLUP: tool IS NULL on role
    subtotals, both NULL on the grand total; real NULL tools are
    folded to '' first (as the oracle does) so markers are
    unambiguous."""

    def partial(batch: pa.Table) -> pa.Table:
        conv = batch.column("conv_id")
        keep = pc.fill_null(
            pc.and_kleene(conv.is_valid(), pc.not_equal(conv, "")), False)
        batch = batch.filter(keep)
        t = pa.table({
            "role": pc.fill_null(batch.column("role"), ""),
            "tool": pc.fill_null(batch.column("tool"), ""),
        })
        agg = t.group_by(["role", "tool"]).aggregate([([], "count_all")])
        return agg.rename_columns(
            ["c" if c == "count_all" else c for c in agg.column_names])

    _empty = pa.schema([("role", pa.string()), ("tool", pa.string()),
                        ("n", pa.int64())]).empty_table()

    def scan(group: pa.Table) -> pa.Table:
        t = group.group_by(["role", "tool"]).aggregate([("c", "sum")])
        leaf = pa.table({"role": t.column("role"), "tool": t.column("tool"),
                         "n": pc.cast(t.column("c_sum"), pa.int64())})
        sub = t.group_by(["role"]).aggregate([("c_sum", "sum")])
        subt = pa.table({
            "role": sub.column("role"),
            "tool": pa.array([None] * sub.num_rows, pa.string()),
            "n": pc.cast(sub.column("c_sum_sum"), pa.int64())})
        return pa.concat_tables([leaf, subt])

    parts = exchange(scan_buckets(_fx(sf_dir), partial,
                                  ["conv_id", "role", "tool"]), "role", scan)
    blocks = ray.get(arrow_block_refs(parts))
    if not blocks:
        return _empty
    out = pa.concat_tables([b.cast(_empty.schema) for b in blocks])
    total = pc.sum(
        out.filter(out.column("tool").is_valid()).column("n")).as_py() or 0
    grand = pa.table({"role": pa.array([None], pa.string()),
                      "tool": pa.array([None], pa.string()),
                      "n": pa.array([total], pa.int64())})
    return pa.concat_tables([out, grand])


_PIVOT_TYPES = ["view", "click", "purchase", "signup", "error"]


def q_user_features(sf_dir: str):
    """Pivot / conditional aggregation: per-user event-type count
    feature vector (user_id, n_view, n_click, n_purchase, n_signup,
    n_error) — the wide-format feature-engineering step upstream of
    model training.  Per-batch combiner: ONE arrow group_by(user) with
    a boolean-cast sum per type collapses each block to one row per
    distinct user BEFORE the exchange; one hash(user) exchange of the
    already-narrow partials, summed per partition.  The pivot columns
    are a fixed small vocabulary, so width is bounded."""
    ds = _events(sf_dir, ["user_id", "event_type"])
    names = [f"n_{t}" for t in _PIVOT_TYPES]

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").combine_chunks()
        cols = {"user_id": batch.column("user_id")}
        for t, nm in zip(_PIVOT_TYPES, names):
            cols[nm] = pc.cast(
                pc.fill_null(pc.equal(et, t), False), pa.int64())
        return pa.table(cols).group_by(["user_id"]).aggregate(
            [(nm, "sum") for nm in names]).rename_columns(
            ["user_id"] + names)

    return hash_partition_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], [(nm, "sum") for nm in names],
        rename={f"{nm}_sum": nm for nm in names})


def q_tumbling_counts(sf_dir: str):
    """Tumbling 1-hour window counts per user (windowed aggregate with
    combiner pre-aggregation)."""
    from ..ops.relational import tumbling_counts
    ds = _events(sf_dir, ["user_id", "ts"])
    return tumbling_counts(ds, key="user_id", ts_col="ts", window_s=3600)


def q_sliding_counts(sf_dir: str):
    """Sliding 1-hour windows every 15 min per user (each event in 4
    windows; vectorized expansion + combiner + hash-partition merge)."""
    from ..ops.relational import sliding_counts
    ds = _events(sf_dir, ["user_id", "ts"])
    return sliding_counts(ds, key="user_id", ts_col="ts",
                          window_s=3600, slide_s=900)


def q_locf_fill(sf_dir: str):
    """Sparse-signal forward fill (LOCF imputation): at every event,
    the user's most recent PURCHASE value — LAST_VALUE(CASE WHEN
    purchase THEN value END IGNORE NULLS) OVER (PARTITION BY user
    ORDER BY ts, event_id), NULL before the first purchase.  The
    carry-forward feature-engineering primitive.  ONE hash exchange on
    user; the fill inside each partition is a single vectorized pass:
    np.maximum.accumulate over source indices with a segment-floor
    test for the reset (no per-user python).  Filled values are
    COPIED doubles, so the hash matches DuckDB bit-exactly."""

    def tag(batch: pa.Table) -> pa.Table:
        m = pc.and_(batch.column("ts").combine_chunks().is_valid(),
                    batch.column("user_id").combine_chunks().is_valid()
                    ).to_numpy(zero_copy_only=False)
        mask = pa.array(m)
        u = batch.column("user_id").combine_chunks().filter(mask) \
                 .cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = batch.column("event_type").combine_chunks().filter(mask)
        return pa.table({
            "u": pa.array(u),
            "t": batch.column("ts").combine_chunks().filter(mask)
                      .cast(pa.int64()),
            "event_id": batch.column("event_id").combine_chunks()
                             .filter(mask).cast(pa.int64()),
            "val": batch.column("value").combine_chunks().filter(mask)
                        .cast(pa.float64()),
            "mark": pc.cast(pc.and_kleene(
                pc.equal(et, "purchase"),
                batch.column("value").combine_chunks().filter(mask)
                     .is_valid()), pa.bool_())})

    _empty = pa.schema([("event_id", pa.int64()),
                        ("last_purchase", pa.float64())])

    def scan(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        t = group.column("t").to_numpy(zero_copy_only=False)
        e = group.column("event_id").to_numpy(zero_copy_only=False)
        v = group.column("val").to_numpy(zero_copy_only=False)
        mk = pc.fill_null(group.column("mark").combine_chunks(),
                          False).to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        us, ms = u[order], mk[order]
        n = len(us)
        starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
        seg_first = np.repeat(starts, np.diff(np.r_[starts, n]))
        src = np.where(ms, np.arange(n, dtype=np.int64), -1)
        acc = np.maximum.accumulate(src)
        # a carried index from an earlier user sorts below this
        # user's first row — the segment floor is the reset
        ok = acc >= seg_first
        fill = v[order][np.where(ok, acc, 0)]
        return pa.table({
            "event_id": pa.array(e[order]),
            "last_purchase": pa.array(fill, mask=~ok)}).cast(_empty)

    return exchange(_events(sf_dir, ["event_id", "user_id", "ts", "event_type",
                                     "value"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True), "u", scan)


def q_gapfill_daily(sf_dir: str):
    """Calendar gap-fill: dense per-(event_type, day) counts over the
    corpus's full [min_day, max_day] span with missing days emitted as
    ZERO rows — the time-series densification step dashboards and
    drift monitors need (a plain groupby silently skips empty days).
    Plan: per-batch arrow group_by combiner -> ONE tiny exchange of
    (type, day, n) partials (cardinality = types x days, bounded by
    the calendar, never by corpus rows) -> the dense grid is built
    driver-side from the aggregated partials with one numpy scatter —
    the only driver-side step is over the calendar-bounded result."""
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").combine_chunks()
        mask = t.is_valid()
        tv = t.filter(mask).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        et = batch.column("event_type").combine_chunks().filter(mask)
        tbl = pa.table({
            "event_type": et,
            "day": pa.array((tv // DAY_US) * DAY_US),
            "n": pa.array(np.ones(len(tv), np.int64))})
        return tbl.group_by(["event_type", "day"]).aggregate(
            [("n", "sum")]).rename_columns(["event_type", "day", "n"])

    agg = hash_partition_aggregate(
        _events(sf_dir, ["ts", "event_type"]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "day"], [("n", "sum")], rename={"n_sum": "n"})

    _EMPTY = pa.schema([("event_type", pa.string()),
                        ("day", pa.timestamp("us")),
                        ("n", pa.int64())])
    parts = [t for t in ray.get(arrow_block_refs(agg)) if t.num_rows]
    if not parts:
        return _EMPTY.empty_table()
    obs = pa.concat_tables([t.cast(pa.schema([
        ("event_type", pa.string()), ("day", pa.int64()),
        ("n", pa.int64())])) for t in parts])
    day = obs.column("day").to_numpy(zero_copy_only=False)
    n = obs.column("n").to_numpy(zero_copy_only=False)
    types = np.array(sorted(set(obs.column("event_type").to_pylist())))
    dmin, dmax = int(day.min()), int(day.max())
    ndays = (dmax - dmin) // DAY_US + 1
    grid = np.zeros((len(types), ndays), np.int64)
    ti = np.searchsorted(types, np.asarray(
        obs.column("event_type").to_pylist()))
    grid[ti, (day - dmin) // DAY_US] = n
    days = dmin + np.arange(ndays, dtype=np.int64) * DAY_US
    return pa.table({
        "event_type": pa.array(np.repeat(types, ndays)),
        "day": pa.array(np.tile(days, len(types))).cast(
            pa.timestamp("us")),
        "n": pa.array(grid.ravel())})


def q_rolling_window(sf_dir: str):
    """Per-user ROLLING last-10-events sum/mean of the value metric
    (ROWS BETWEEN 9 PRECEDING AND CURRENT ROW ordered by (ts,
    event_id)) — the moving-average telemetry signal, computed as one
    hash exchange on user + a prefix-sum scan per partition
    (ops/relational.rolling_window_sum).  Values are integerized to
    cents before summing so the windowed sum is exact int64 math and
    the mean one int->double division, hash-identical to DuckDB."""
    from ..ops.relational import rolling_window_sum
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "value"])
    return rolling_window_sum(ds, key="user_id", ts_col="ts",
                              val_col="value", k=10)


def q_value_deltas(sf_dir: str):
    """Per-user LAG difference of the value metric (rate-of-change /
    drift signal): delta = cents(value) - cents(previous value by the
    same user ordered by ts, event_id), NULL for a user's first event
    — the left-outer member of the window family
    (ops/relational.value_deltas)."""
    from ..ops.relational import value_deltas
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "value"])
    return value_deltas(ds, key="user_id", ts_col="ts", val_col="value")


#: order_fill operating point: one month of orders
_FILL_LO, _FILL_HI = "1997-07-01", "1997-08-01"


def q_order_fill(sf_dir: str):
    """Large x large LEFT OUTER join (the null-preserving member of
    the join family: top_orders = inner, cust_no_orders = anti):
    every order placed in the window, with the total lineitem
    quantity shipped on/after the window start — NULL when the order
    has no qualifying lineitems, proving outer semantics end-to-end.

    Shape: the top_orders co-partition join — both sides keyed by
    orderkey in the same column, lineitem pre-aggregated per batch
    (combiner) before the ONE two-input exchange, and the per-
    partition scan finishes the sum AND the outer fill with one Arrow
    group_by and one left-outer join.  Quantities are integral doubles
    in TPC-H, so CAST to int64 keeps the value hash exact."""
    return _order_join(sf_dir, outer=False)


def q_order_fill_outer(sf_dir: str):
    """FULL OUTER variant of q_order_fill, completing the join family
    (inner / anti / left / full): additionally emits one row per
    orderkey that shipped lineitems on/after the window start but has
    NO order row in the window (order columns NULL) — both unmatched
    sides preserved.  Same single co-partition exchange; the scan's
    join is full outer instead of left outer (keys are
    hash-partitioned, so each side's unmatched set is exact within its
    partition)."""
    return _order_join(sf_dir, outer=True)


def _window_orders(sf_dir: str) -> ray.data.Dataset:
    """(o_orderkey, o_orderpriority) of the orders placed in the
    order_fill window."""
    lo = np.datetime64(_FILL_LO).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(_FILL_HI).astype("datetime64[us]").astype(np.int64)

    def in_window(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return batch.select(["o_orderkey", "o_orderpriority"]).filter(
            pa.array((od >= lo) & (od < hi)))

    return ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]).map_batches(
        in_window, batch_format="pyarrow", zero_copy_batch=True)


def _order_join(sf_dir: str, outer: bool):
    lo = np.datetime64(_FILL_LO).astype("datetime64[us]").astype(np.int64)

    def item_side(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        m = sd >= lo
        keys = batch.column("l_orderkey").to_numpy(zero_copy_only=False)[m]
        qty = batch.column("l_quantity").to_numpy(
            zero_copy_only=False)[m].astype(np.int64)
        return _group_sum(pa.table({"o_orderkey": keys, "shipped_qty": qty}),
                          "o_orderkey", ["shipped_qty"])

    items = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_shipdate"]).map_batches(
        item_side, batch_format="pyarrow", zero_copy_batch=True)

    def join_scan(orders: pa.Table, items: pa.Table) -> pa.Table:
        return orders.join(
            _group_sum(items, "o_orderkey", ["shipped_qty"]), "o_orderkey",
            join_type="full outer" if outer else "left outer")

    return exchange([_window_orders(sf_dir), items], "o_orderkey", join_scan)


def q_order_lines(sf_dir: str):
    """ROW-PRODUCING large x large equi join (the materializing
    member of the join family — every other join finishes an
    aggregate inside the scan): each window order attached to each of
    its lineitems, one output row per matched pair.

    Shape: co-partition (ONE two-input exchange keyed on orderkey;
    lineitem pruned to 3 columns at the read — no combiner is
    possible for a row join, so column pruning is the lever), then
    one Arrow inner join per partition."""

    def item_side(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("l_orderkey"),
            "l_linenumber": batch.column("l_linenumber"),
            "qty": pa.array(batch.column("l_quantity").to_numpy(
                zero_copy_only=False).astype(np.int64))})

    items = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity"]).map_batches(
        item_side, batch_format="pyarrow", zero_copy_batch=True)
    return exchange([_window_orders(sf_dir), items], "o_orderkey",
                    lambda o, i: o.join(i, "o_orderkey", join_type="inner"))


def q_sample_per_source(sf_dir: str):
    """Deterministic per-key sampling: the 3 docs per source with the
    smallest md5(doc_id) — 'take k examples per group' reproducibly
    across runs/engines (ascending top-k on a content hash)."""
    from ..ops.relational import topk_per_key
    from ..functions.hashing import md5_lower64_array
    ds = _docs(sf_dir).select_columns(["doc_id", "source"])

    def add_hash(batch: pa.Table) -> pa.Table:
        h = md5_lower64_array(pc.cast(batch.column("doc_id"), pa.string()))
        return batch.append_column("h", pa.array(h))

    ds = ds.map_batches(add_hash, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = topk_per_key(ds, key="source", order_col="h", k=3,
                       tiebreak="doc_id", ascending=True)
    return out.select_columns(["doc_id", "source"])


def q_topk_per_user(sf_dir: str):
    """Top-2 events by value per user (per-group top-k)."""
    from ..ops.relational import topk_per_key
    ds = _events(sf_dir, ["event_id", "user_id", "value"])
    return topk_per_key(ds, key="user_id", order_col="value", k=2)


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type (combiner pair-dedup
    before the exchange)."""
    from ..ops.relational import distinct_count
    ds = _events(sf_dir, ["event_type", "user_id"])
    return distinct_count(ds, key="event_type", distinct_col="user_id")


def q_approx_distinct_users(sf_dir: str):
    """HLL approximate distinct users per event type (mergeable-sketch
    combiner: the exchange moves 4 KiB sketches, not the key column).
    The estimate is deterministic (md5 hashing, fixed p), so the
    oracle is a pinned golden VALUES table per sf (make_goldens)."""
    from ..ops.sketch import approx_distinct
    ds = _events(sf_dir, ["event_type", "user_id"])
    return approx_distinct(ds, key="event_type", distinct_col="user_id")


def q_media_decode(sf_dir: str):
    """REAL stdlib media decode: one valid container payload per doc
    (PNG/BMP/animated-GIF/WAV, ops/media_codecs encoders, geometry =
    integer arithmetic on media_id) -> actor-pool header-parse DECODE
    (CRC-verified IHDR, GIF block walk, RIFF chunk walk; payloads
    never decompressed).  The oracle states the expected metadata
    ANALYTICALLY from the same arithmetic (_media_decode_sql) — fully
    independent of both encoder and decoder."""
    ds = _synth_media(sf_dir)
    # batch_size sizes to PAYLOAD bytes x batch x concurrency per the
    # module contract: these synthetic containers are KB-scale, so 256
    # rows/batch is ~1 MB; a real image/video corpus drops this to
    # 16-64
    ds = ds.map_batches(MediaDecoder, batch_size=256,
                        batch_format="pyarrow", concurrency=(1, 8))
    return ds.select_columns(["media_id", "kind", "width", "height",
                              "n_frames", "duration_ms"])


def q_media_audit(sf_dir: str):
    """Error-tolerant media ingest audit — the harvest M3
    skip-and-count pattern applied to binary payloads: corruption is
    PLANTED deterministically (every media_id % 37 == 0 payload
    truncated to 10 bytes, which every container parser rejects), the
    actor-pool decoder runs with on_error='flag' (corrupt rows emit
    zeroed metadata + parse_ok=0 instead of failing the task), and a
    per-kind combiner rollup reports (n_media, n_ok, n_corrupt).
    Oracle: pure arithmetic on media_id — the corruption rule is SQL,
    so the expected counts are stated independently of encoder,
    corrupter and decoder."""
    ds = _synth_media(sf_dir)

    def corrupt(batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_numpy()
        bad = ids % 37 == 0
        if not bad.any():
            return batch
        payloads = batch.column("payload").to_pylist()
        for i in np.flatnonzero(bad):
            payloads[i] = payloads[i][:10]
        return batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(payloads, pa.binary()))

    ds = ds.map_batches(corrupt, batch_format="pyarrow")
    ds = ds.map_batches(MediaDecoder,
                        fn_constructor_kwargs={"on_error": "flag"},
                        batch_size=256, batch_format="pyarrow",
                        concurrency=(1, 8))

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "kind": batch.column("kind"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "ok": pc.cast(batch.column("parse_ok"), pa.int64())})
        g = t.group_by(["kind"]).aggregate([("one", "sum"),
                                            ("ok", "sum")])
        return g.rename_columns(["kind", "one", "ok"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    agg = hash_partition_aggregate(parts, ["kind"],
                                   [("one", "sum"), ("ok", "sum")])

    def final(t: pa.Table) -> pa.Table:
        n, ok = t.column("one_sum"), t.column("ok_sum")
        return pa.table({
            "kind": t.column("kind"),
            "n_media": pc.cast(n, pa.int64()),
            "n_ok": pc.cast(ok, pa.int64()),
            "n_corrupt": pc.cast(pc.subtract(n, ok), pa.int64())})

    return agg.map_batches(final, batch_format="pyarrow")


def _media_audit_sql() -> str:
    """Analytic oracle for q_media_audit: kind from media_id % 4,
    corruption from media_id % 37 — both planted rules, no decoder
    involved."""
    return """
        SELECT CASE doc_id % 4 WHEN 2 THEN 'video' WHEN 3 THEN 'audio'
                    ELSE 'image' END AS kind,
               count(*) AS n_media,
               CAST(SUM(CASE WHEN doc_id % 37 = 0 THEN 0 ELSE 1 END)
                    AS BIGINT) AS n_ok,
               CAST(SUM(CASE WHEN doc_id % 37 = 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_corrupt
        FROM documents GROUP BY 1"""


def q_media_dedup(sf_dir: str):
    """Exact BINARY-payload dedup — the multimodal sibling of
    dedup_exact: dedupe the encoded media corpus by md5(payload)
    BEFORE any decode/featurize work is spent on copies.  Duplicates
    are planted deterministically (payload synthesized from
    media_id % 400, so ids >= 400 are byte-copies of id % 400);
    survivors = min id per payload group.  Shape: one narrow
    (16-byte md5, id) exchange + hash-partition min-aggregate — the
    binary column itself never crosses a shuffle.  Oracle: the
    planted mapping makes survivors analytic (dense ids -> doc_id <
    400), independent of the hashing."""
    from ..functions.hashing import md5_bytes_array
    from ..ops.multimodal import synth_media_batch
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id"])

    def fp_rows(batch: pa.Table) -> pa.Table:
        src = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False) % 400
        t = synth_media_batch(
            pa.table({"_src": pa.array(src.astype(np.int64))}),
            id_col="_src")
        fp = md5_bytes_array(t.column("payload").combine_chunks())
        return pa.table({"fp": fp,
                         "doc_id": pc.cast(batch.column("doc_id"),
                                           pa.int64())})

    fps = docs.map_batches(fp_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
    agg = hash_partition_aggregate(fps, ["fp"], [("doc_id", "min")])
    return agg.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id_min")}),
        batch_format="pyarrow")


def _synth_media(sf_dir: str):
    from ..ops.multimodal import synth_media_batch
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id"])
    return docs.map_batches(synth_media_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def q_media_resize(sf_dir: str):
    """REAL pixel-path resize (round-5): full container pixel decode
    (PNG defilter / BMP un-pad+BGR / GIF LZW+palette) -> integer
    nearest-neighbor resample into a 16x16 box (small enough that
    every synthetic image actually downsamples) -> exact int64
    px_sum over the resized RGB bytes.  Audio rows pass through as
    (0, 0, 0).  The oracle restates the planted ramp pixels, the
    integer fit geometry and the (i*src)//dst sampling rule
    analytically in SQL (_media_resize_sql) — fully independent of
    encoder, decoder and resampler."""
    from ..ops.multimodal import MediaResizer
    ds = _synth_media(sf_dir).map_batches(
        MediaResizer, fn_constructor_kwargs={"max_w": 16, "max_h": 16},
        batch_size=256, batch_format="pyarrow", concurrency=(1, 8))
    return ds.select_columns(["media_id", "kind", "resized_w",
                              "resized_h", "px_sum"])


def q_media_pixstats(sf_dir: str):
    """REAL per-channel pixel statistics (round-5): full pixel decode
    -> exact int64 (n_px, sum_r, sum_g, sum_b) per media row (zeros
    for audio).  Value-gates every pixel-path branch — PNG scanline
    defilter, BMP row padding + bottom-up order + BGR swap, GIF LZW +
    palette lookup — against closed-form ramp arithmetic in SQL."""
    from ..ops.multimodal import MediaPixStats
    return _synth_media(sf_dir).map_batches(
        MediaPixStats, batch_size=256, batch_format="pyarrow",
        concurrency=(1, 8))


def q_audio_stats(sf_dir: str):
    """REAL PCM sample statistics (round-5): WAV data-chunk decode ->
    exact int64 (n_frames, n_channels, samp_sum) of the signed int16
    samples (zeros for non-audio rows).  The oracle restates the
    ramp-byte -> little-endian signed int16 arithmetic in SQL."""
    from ..ops.multimodal import AudioStats
    return _synth_media(sf_dir).map_batches(
        AudioStats, batch_size=256, batch_format="pyarrow",
        concurrency=(1, 8))


def q_audio_resample(sf_dir: str):
    """REAL sample-rate conversion (round-5) — the audio sibling of
    media_resize: PCM-16 decode -> nearest-neighbor resample 8000 ->
    3000 Hz (source frame (f*8000)//3000, integer floor — values stay
    exact int16) -> (media_id, out_frames, n_channels, samp_sum) over
    the RESAMPLED signal; zeros for non-audio rows.  The oracle
    restates the non-uniform stride and the ramp-byte -> signed int16
    arithmetic analytically (_audio_resample_sql)."""
    from ..ops.multimodal import AudioResampler
    return _synth_media(sf_dir).map_batches(
        AudioResampler, fn_constructor_kwargs={"target_rate": 3000},
        batch_size=256, batch_format="pyarrow", concurrency=(1, 8))


def _audio_resample_sql() -> str:
    """Analytic oracle for q_audio_resample: out_frames =
    (ns*3000)//8000, resampled frame f reads source frame (8f)//3,
    flat int16 index m = src_frame*ch + c, byte pair
    (seed + 7*2m) % 256 / (seed + 7*(2m+1)) % 256, two's complement
    via the hi >= 128 subtraction.  All-positive ints before the
    subtraction, so DuckDB's truncating // equals floor."""
    return """
        WITH m AS (
          SELECT doc_id AS media_id, doc_id % 4 AS k,
                 doc_id % 256 AS seed,
                 800 + (doc_id * 37) % 4000 AS ns,
                 1 + doc_id % 2 AS ch
          FROM documents),
        f AS (SELECT t.g AS f FROM generate_series(0, 1800) t(g)),
        c AS (SELECT t.g AS c FROM generate_series(0, 1) t(g))
        SELECT media_id,
               CASE WHEN k = 3 THEN (ns * 3000) // 8000
                    ELSE 0 END AS out_frames,
               CASE WHEN k = 3 THEN ch ELSE 0 END AS n_channels,
               CAST(CASE WHEN k = 3 THEN (
                 SELECT sum(lo + 256 * hi
                            - CASE WHEN hi >= 128 THEN 65536
                                   ELSE 0 END)
                 FROM (SELECT
                         (seed + 7 * (2 * (((f.f * 8000) // 3000) * ch
                                           + c.c))) % 256 AS lo,
                         (seed + 7 * (2 * (((f.f * 8000) // 3000) * ch
                                           + c.c) + 1)) % 256 AS hi
                       FROM f, c
                       WHERE f.f < (ns * 3000) // 8000
                         AND c.c < ch))
               ELSE 0 END AS BIGINT) AS samp_sum
        FROM m"""


def q_frame_stats(sf_dir: str):
    """REAL video-frame sampling (round-5): decode metadata -> plan
    sampled frames (frame_sample_batch, every 2nd frame) -> decode
    ONLY the planned frames (per-frame GIF LZW,
    ops/media_codecs.decode_gif_frame_pixels) -> one row per sampled
    frame with its exact int64 pixel sum.  The frame-sample plan
    column finally has a real consumer — the keyframe-pass shape of a
    production video pipeline.  Oracle: planted uniform frames make
    each frame's sum analytic; sampled indices are the arithmetic
    series 0, 2, 4... below n_frames."""
    from ..ops.multimodal import FrameStats, frame_sample_batch
    ds = _synth_media(sf_dir).map_batches(
        MediaDecoder, fn_constructor_kwargs={"keep_payload": True},
        batch_size=256, batch_format="pyarrow", concurrency=(1, 8))
    ds = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                        zero_copy_batch=True, fn_kwargs={"every_n": 2})
    return ds.map_batches(FrameStats, batch_size=256,
                          batch_format="pyarrow", concurrency=(1, 8))


def _frame_stats_sql() -> str:
    """Analytic oracle for q_frame_stats: video rows (k=2) have
    n_frames = 1 + (id//4) % 5 identical uniform frames (every pixel
    is palette color 0), so each sampled frame's px_sum is
    w*h*(seed + (seed+29)%256 + (seed+58)%256) and the sampled
    indices are the even series below n_frames."""
    return _media_geom_cte() + """
        , s AS (SELECT t.g AS x FROM generate_series(0, 4) t(g))
        SELECT media_id, s.x AS frame_idx,
               CAST(w * h * (seed % 256 + (seed + 29) % 256
                             + (seed + 58) % 256) AS BIGINT) AS px_sum
        FROM m, s
        WHERE k = 2 AND s.x < 1 + (media_id // 4) % 5
          AND s.x % 2 = 0"""


def q_media_embed_knn(sf_dir: str):
    """Multimodal similarity search — the decode -> featurize -> ANN
    composition a multimodal curation pipeline runs: REAL
    content-statistic embeddings (MediaFeaturizer over decoded
    pixels/samples) fed to the exact cosine top-k (ops/similarity.
    brute_force_topk) against media 0's own embedding (computed
    driver-side from its payload — no extra corpus scan), excluding
    the query row; output (media_id, score_q) with the cosine in
    int64 FIXED POINT (round(score * 2^20) — the float-checksum pin
    rule).  Deterministic per item, so the oracle is a pinned golden
    generated from the INDEPENDENT analytic reference
    (tests/media_feat_reference.py: pixels rebuilt straight from the
    ramp formulas, codecs never touched) and cross-checked against
    the engine at pin time."""
    from ..ops.multimodal import MediaFeaturizer, synth_media_payload
    from ..ops.similarity import brute_force_topk
    ds = _synth_media(sf_dir).map_batches(
        MediaFeaturizer, batch_size=256, batch_format="pyarrow",
        concurrency=(1, 8))
    ds = ds.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("media_id"), 0))
                           ).select(["media_id", "embedding"]),
        batch_format="pyarrow", zero_copy_batch=True)
    feat = MediaFeaturizer()
    q = feat._feat_real(synth_media_payload(0), "image")
    q = (q / max(np.linalg.norm(q), 1e-9)).astype(np.float32)
    out = brute_force_topk(ds, q, k=10, id_col="media_id")
    return pa.table({
        "media_id": out.column("media_id"),
        "score_q": pa.array(np.rint(
            out.column("score").to_numpy(zero_copy_only=False)
            * (1 << 20)).astype(np.int64)),
    })


def _media_geom_cte() -> str:
    """Shared CTE: per-media container kind, seed and geometry as
    integer arithmetic on media_id (mirrors
    ops/multimodal._media_params)."""
    return """
        WITH m AS (
          SELECT doc_id AS media_id, doc_id % 4 AS k,
                 doc_id % 256 AS seed,
                 CASE doc_id % 4 WHEN 0 THEN 16 + (doc_id * 7) % 33
                                 WHEN 1 THEN 8 + (doc_id * 5) % 25
                                 WHEN 2 THEN 8 + doc_id % 17
                                 ELSE 0 END AS w,
                 CASE doc_id % 4 WHEN 0 THEN 16 + (doc_id * 11) % 29
                                 WHEN 1 THEN 8 + (doc_id * 3) % 21
                                 WHEN 2 THEN 8 + (doc_id * 13) % 15
                                 ELSE 0 END AS h
          FROM documents)"""


def _media_resize_sql() -> str:
    """Analytic oracle for q_media_resize: integer aspect-fit into
    16x16 ((w*16)//h floor math — the condition w*mh <= h*mw reduces
    to w <= h for a square box), nearest-neighbor source index
    (i*src)//dst, and the planted ramp pixel values:
      png: byte(y, 3x+c) = (seed + 3x + c) % 256   (rows identical)
      bmp: stored row y byte i = (seed + y + i) % 256, bottom-up
           (image row r = stored h-1-r); summing all 3 channels is
           invariant to the BGR->RGB reorder
      gif: every pixel is palette color 0 = (seed, seed+29, seed+58)
           each % 256.
    All-positive ints, so DuckDB's truncating // equals floor."""
    return _media_geom_cte() + """
        , g AS (
          SELECT *,
                 CASE WHEN k = 3 THEN 0
                      WHEN w <= 16 AND h <= 16 THEN w
                      WHEN w <= h THEN greatest(1, (w * 16) // h)
                      ELSE 16 END AS rw,
                 CASE WHEN k = 3 THEN 0
                      WHEN w <= 16 AND h <= 16 THEN h
                      WHEN w <= h THEN 16
                      ELSE greatest(1, (h * 16) // w) END AS rh
          FROM m)
        , s AS (SELECT t.g AS x FROM generate_series(0, 63) t(g))
        , c AS (SELECT t.g AS y FROM generate_series(0, 2) t(g))
        SELECT media_id,
               CASE k WHEN 2 THEN 'video' WHEN 3 THEN 'audio'
                      ELSE 'image' END AS kind,
               rw AS resized_w, rh AS resized_h,
               CAST(CASE k
                 WHEN 0 THEN rh * (
                   SELECT sum((seed + 3 * ((sj.x * w) // rw) + c.y) % 256)
                   FROM s sj, c WHERE sj.x < rw)
                 WHEN 1 THEN (
                   SELECT sum((seed + (h - 1 - (sr.x * h) // rh)
                               + 3 * ((sj.x * w) // rw) + c.y) % 256)
                   FROM s sj, s sr, c
                   WHERE sj.x < rw AND sr.x < rh)
                 WHEN 2 THEN rw * rh * (seed % 256 + (seed + 29) % 256
                                        + (seed + 58) % 256)
                 ELSE 0 END AS BIGINT) AS px_sum
        FROM g"""


def _media_pixstats_sql() -> str:
    """Analytic oracle for q_media_pixstats: full-image per-channel
    sums of the planted ramp pixels.  For BMP the whole-image sum over
    stored rows equals the sum over flipped rows, and RGB channel c
    reads stored BGR offset (2 - c)."""
    return _media_geom_cte() + """
        , s AS (SELECT t.g AS x FROM generate_series(0, 63) t(g))
        SELECT media_id,
               CASE k WHEN 2 THEN 'video' WHEN 3 THEN 'audio'
                      ELSE 'image' END AS kind,
               CASE WHEN k = 3 THEN 0 ELSE w * h END AS n_px,
               CAST(CASE k
                 WHEN 0 THEN h * (SELECT sum((seed + 3 * sx.x + 0) % 256)
                                  FROM s sx WHERE sx.x < w)
                 WHEN 1 THEN (SELECT sum((seed + sy.x + 3 * sx.x + 2) % 256)
                              FROM s sx, s sy
                              WHERE sx.x < w AND sy.x < h)
                 WHEN 2 THEN w * h * (seed % 256)
                 ELSE 0 END AS BIGINT) AS sum_r,
               CAST(CASE k
                 WHEN 0 THEN h * (SELECT sum((seed + 3 * sx.x + 1) % 256)
                                  FROM s sx WHERE sx.x < w)
                 WHEN 1 THEN (SELECT sum((seed + sy.x + 3 * sx.x + 1) % 256)
                              FROM s sx, s sy
                              WHERE sx.x < w AND sy.x < h)
                 WHEN 2 THEN w * h * ((seed + 29) % 256)
                 ELSE 0 END AS BIGINT) AS sum_g,
               CAST(CASE k
                 WHEN 0 THEN h * (SELECT sum((seed + 3 * sx.x + 2) % 256)
                                  FROM s sx WHERE sx.x < w)
                 WHEN 1 THEN (SELECT sum((seed + sy.x + 3 * sx.x + 0) % 256)
                              FROM s sx, s sy
                              WHERE sx.x < w AND sy.x < h)
                 WHEN 2 THEN w * h * ((seed + 58) % 256)
                 ELSE 0 END AS BIGINT) AS sum_b
        FROM m"""


def _audio_stats_sql() -> str:
    """Analytic oracle for q_audio_stats: WAV data byte i =
    (seed + 7*i) % 256; int16 sample m = lo + 256*hi with two's
    complement (subtract 65536 when hi >= 128); frames/channels from
    the planted arithmetic."""
    return """
        WITH m AS (
          SELECT doc_id AS media_id, doc_id % 4 AS k,
                 doc_id % 256 AS seed,
                 800 + (doc_id * 37) % 4000 AS ns,
                 1 + doc_id % 2 AS ch
          FROM documents),
        s AS (SELECT t.g AS m FROM generate_series(0, 9599) t(g))
        SELECT media_id,
               CASE WHEN k = 3 THEN ns ELSE 0 END AS n_frames,
               CASE WHEN k = 3 THEN ch ELSE 0 END AS n_channels,
               CAST(CASE WHEN k = 3 THEN (
                 SELECT sum((seed + 7 * (2 * s.m)) % 256
                            + 256 * ((seed + 7 * (2 * s.m + 1)) % 256)
                            - CASE WHEN (seed + 7 * (2 * s.m + 1)) % 256
                                        >= 128
                                   THEN 65536 ELSE 0 END)
                 FROM s WHERE s.m < ns * ch)
               ELSE 0 END AS BIGINT) AS samp_sum
        FROM m"""


def _media_chain(sf_dir: str):
    """Full multimodal chain over REAL container payloads: synthesize
    -> actor-pool DECODE (real header parse) -> frame-sample plan ->
    actor-pool RESIZE (round-5: REAL pixel decode + integer
    nearest-neighbor resample) -> actor-pool FEATURIZE (round-5: REAL
    pixel/sample statistics -> unit embedding) -> payload dropped.
    Every kernel now runs on actual decoded content; every Ray-side
    shape (schema, small batches, init-once actors) unchanged."""
    from ..ops.multimodal import (MediaResizer, MediaFeaturizer,
                                  frame_sample_batch)
    ds = _synth_media(sf_dir)
    ds = ds.map_batches(MediaDecoder,
                        fn_constructor_kwargs={"keep_payload": True},
                        batch_size=256, batch_format="pyarrow",
                        concurrency=(1, 8))
    ds = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    ds = ds.map_batches(MediaResizer, batch_size=256,
                        batch_format="pyarrow", concurrency=(1, 8))
    ds = ds.map_batches(MediaFeaturizer, batch_size=256,
                        batch_format="pyarrow", concurrency=(1, 8))
    return ds.drop_columns(["payload"])


def _media_decode_sql() -> str:
    """Analytic oracle for q_media_decode: the expected container
    metadata as integer arithmetic on media_id — the SAME formulas the
    synthesizer encodes (ops/multimodal._media_params), stated in SQL
    without touching encoder or decoder.  All-positive ints, so
    DuckDB's truncating // equals floor."""
    return """
        SELECT doc_id AS media_id,
               CASE doc_id % 4 WHEN 2 THEN 'video' WHEN 3 THEN 'audio'
                    ELSE 'image' END AS kind,
               CASE doc_id % 4 WHEN 0 THEN 16 + (doc_id * 7) % 33
                               WHEN 1 THEN 8 + (doc_id * 5) % 25
                               WHEN 2 THEN 8 + doc_id % 17
                               ELSE 0 END AS width,
               CASE doc_id % 4 WHEN 0 THEN 16 + (doc_id * 11) % 29
                               WHEN 1 THEN 8 + (doc_id * 3) % 21
                               WHEN 2 THEN 8 + (doc_id * 13) % 15
                               ELSE 0 END AS height,
               CASE doc_id % 4 WHEN 2 THEN 1 + (doc_id // 4) % 5
                               WHEN 3 THEN 800 + (doc_id * 37) % 4000
                               ELSE 1 END AS n_frames,
               CASE doc_id % 4
                    WHEN 2 THEN (1 + (doc_id // 4) % 5)
                                * (4 + doc_id % 7) * 10
                    WHEN 3 THEN (800 + (doc_id * 37) % 4000) * 1000 // 8000
                    ELSE 0 END AS duration_ms
        FROM documents"""


# --------------------------------------------------------------------------
# Oracle SQL
# --------------------------------------------------------------------------

def _lang_id_sql() -> str:
    """DuckDB mirror of ops/text.lang_id_batch, generated from the SAME
    stopword tables so they cannot drift: distinct stopword hits among
    the first 200 non-empty whitespace tokens, first language with the
    max hit count wins, 'und' when zero hits."""
    from ..ops.text import _LANG_STOPWORDS, _LANG_LIST
    hit_cols = ", ".join(
        "len(list_intersect(ws, [{}])) AS h_{}".format(
            ", ".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS[lang])), lang)
        for lang in _LANG_LIST)
    g = "greatest({})".format(", ".join(f"h_{la}" for la in _LANG_LIST))
    case = "CASE WHEN {g} = 0 THEN 'und' {whens} ELSE '{last}' END".format(
        g=g,
        whens=" ".join(f"WHEN h_{la} = {g} THEN '{la}'"
                       for la in _LANG_LIST[:-1]),
        last=_LANG_LIST[-1])
    return rf"""
        WITH toks AS (
          SELECT doc_id,
                 list_distinct((list_filter(
                     regexp_split_to_array(lower(coalesce(text, '')), '\s+'),
                     x -> x <> ''))[1:200]) AS ws
          FROM documents
        ), hits AS (SELECT doc_id, {hit_cols} FROM toks)
        SELECT doc_id, {case} AS lang_pred FROM hits"""


def _sig_terms_sql(planes: np.ndarray) -> str:
    """SQL expression computing the random-hyperplane LSH signature of
    `embedding` with the SAME plane bank as the Ray operators (planes
    inlined as literals at full repr precision).  string -> DOUBLE
    literals: bare decimals parse as DECIMAL in DuckDB and lose low
    bits (same fix as the golden-pin SQL), which could flip a
    near-zero projection's sign."""
    return " + ".join(
        "(CASE WHEN list_dot_product(embedding, [{}]) > 0 THEN {} ELSE 0 END)"
        .format(", ".join(f"CAST('{float(x)!r}' AS DOUBLE)"
                          for x in planes[i]), 1 << i)
        for i in range(planes.shape[0]))


def _knn_join_sql(sf_dir: str) -> str:
    """DuckDB mirror of ops/similarity.knn_join: same seeded planes
    (shared lsh_planes) at the same SCALE-ADAPTIVE plane count (shared
    knn_planes_for over the corpus row count — parquet metadata here,
    ds.count() in the engine), inner self-join on the signature, exact
    cosine ranking with (score DESC, neighbor_id) ties.  Score sign /
    ordering agreement between numpy and DuckDB holds unless two
    distinct candidate scores are within float rounding of each other
    (validated in pytest, same caveat as the other ANN oracles);
    exact ties — identical vectors — order identically by id in
    both engines."""
    from ..ops.similarity import knn_planes_for, lsh_planes
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    planes = lsh_planes(knn_planes_for(n_rows), len(_query_vec(sf_dir)))
    return f"""
        SELECT vec_id, neighbor_id, nn_rank FROM (
          SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id,
                 row_number() OVER (PARTITION BY a.vec_id
                   ORDER BY list_cosine_similarity(a.embedding,
                                                   b.embedding) DESC,
                            b.vec_id) AS nn_rank
          FROM (SELECT vec_id, embedding, ({_sig_terms_sql(planes)}) AS sig
                FROM embeddings) a
          JOIN (SELECT vec_id, embedding, ({_sig_terms_sql(planes)}) AS sig
                FROM embeddings) b
            ON a.sig = b.sig AND a.vec_id <> b.vec_id)
        WHERE nn_rank <= 5"""


def q_knn_join(sf_dir: str):
    """All-pairs approximate kNN join: each vector's exact cosine
    top-5 among the vectors sharing its LSH bucket — one
    signature-keyed exchange, chunked within-bucket matmul
    (ops/similarity.knn_join)."""
    from ..ops.similarity import knn_join
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    return knn_join(ds, k=5)


def _ann_lsh_sql(sf_dir: str) -> str:
    """DuckDB mirror of ops/similarity.lsh_topk: the same seeded
    hyperplanes inlined as literals (full repr precision), the same
    wanted-signature set (shared lsh_probe_set — query bucket + all
    <=2-bit multiprobe neighbors), exact cosine + (score DESC, vec_id)
    ordering on the filtered candidates.  Sign agreement between numpy
    and DuckDB dot products holds unless a projection is within float
    rounding of 0 (validated in pytest at two scales)."""
    from ..ops.similarity import lsh_probe_set
    n_planes = 8
    q = _query_vec(sf_dir)
    rng = np.random.RandomState(11)
    planes = rng.randn(n_planes, len(q))
    qn = q / (np.linalg.norm(q) or 1.0)
    want = sorted(lsh_probe_set(planes, qn, n_flips=2))
    sig_terms = _sig_terms_sql(planes)
    return f"""
        SELECT vec_id FROM (
          SELECT vec_id,
                 list_cosine_similarity(embedding,
                    (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS score,
                 ({sig_terms}) AS sig
          FROM embeddings WHERE vec_id <> 0)
        WHERE sig IN ({", ".join(str(s) for s in want)})
        ORDER BY score DESC, vec_id LIMIT 10"""


_GOLDEN_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "tests", "goldens",
    "dedup_survivors.json")


def q_embedding_outliers(sf_dir: str):
    """Embedding-space outlier mining: the 50 vectors farthest (exact
    int64 squared distance) from their own k-means centroid — the
    noise-audit step of embedding curation (ops/cluster.
    embedding_outliers).  Combiner-only (no shuffle); integer-exact
    at any parallelism, so the oracle is a pinned golden generated
    from the independent pure-python reference
    (tests/kmeans_reference.kmeans_reference_dists)."""
    from ..ops.cluster import embedding_outliers
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    return embedding_outliers(ds, n=50)


def q_percent_rank(sf_dir: str):
    """Per-source PERCENT_RANK of doc length — within-domain quality
    calibration: one hash exchange on source + a vectorized
    rank/searchsorted scan per partition
    (ops/relational.percent_rank_per_key).  The float output is the
    same small-integer division DuckDB performs, so it hashes
    bit-identically cross-engine."""
    from ..ops.relational import percent_rank_per_key
    return percent_rank_per_key(
        _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"]),
        key_col="source", val_col="n_chars")


def q_exact_sample(sf_dir: str):
    """Exact-size deterministic global sample (n=500): rank by
    md5(doc_id), keep the n smallest — local smallest-n per block +
    one n-row driver merge, no global sort (ops/split.exact_sample)."""
    from ..ops.split import exact_sample
    return exact_sample(_docs(sf_dir).select_columns(["doc_id"]), n=500)


def q_train_split(sf_dir: str):
    """Deterministic train/val/test split: md5('s42:'||doc_id) % 100
    against cumulative 80/10/10 thresholds — map-only, resume-stable
    (ops/split.py)."""
    from ..ops.split import train_split
    return train_split(_docs(sf_dir))


def q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle as (shard_id, pos): the training
    order without a global sort — one shard-hash exchange + one
    per-shard lexsort (ops/split.py)."""
    from ..ops.split import shuffle_shards
    return shuffle_shards(_docs(sf_dir), n_shards=16)


def q_source_stats(sf_dir: str):
    """Per-source corpus composition report: (source, n_docs,
    total_chars, n_langs) via a per-batch (source, lang) combiner and
    one tiny exchange (ops/split.py)."""
    from ..ops.split import source_stats
    return source_stats(_docs(sf_dir))


def q_organize_embeddings(sf_dir: str):
    """Vector-side flagship composition: SemDeDup -> survivor filter
    -> k-means + PCA over ONE cached narrow projection -> one final
    map emitting (vec_id, cluster, pc1..pc4) — no joins anywhere
    (ops/cluster.organize_embeddings).  Integer-exact end to end, so
    the golden pins from the composed independent references."""
    from ..ops.cluster import organize_embeddings
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    return organize_embeddings(ds)


def q_media_summary(sf_dir: str):
    """Value-checkable projection of the multimodal chain: per-kind
    aggregates (doc counts, byte/frame/resize totals, a rounded
    embedding checksum) over the full decode -> frame-sample ->
    resize -> featurize pipeline.  All kernels are REAL (round-5:
    pixel decode + NN resample + pixel/sample-statistic features) and
    deterministic per item (independent of batching), so this pins as
    a golden — the chain's outputs are value-gated even though the
    full row-level result carries list columns the VALUES oracle
    can't express."""
    ds = _media_chain(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        es = (np.asarray(emb.flatten(), dtype=np.float64).sum()
              if batch.num_rows else 0.0)
        g = batch.select(["kind", "n_bytes", "n_frames",
                          "resized_w"]).group_by(["kind"]).aggregate(
            [([], "count_all"), ("n_bytes", "sum"),
             ("n_frames", "sum"), ("resized_w", "sum")])
        g = g.rename_columns(["kind", "n", "sum_bytes", "sum_frames",
                              "sum_rw"])
        # spread the block's embedding sum over its kind rows is wrong;
        # recompute per kind exactly:
        kinds = batch.column("kind").to_numpy(zero_copy_only=False)
        m = np.asarray(emb.flatten(), dtype=np.float64).reshape(
            batch.num_rows, -1) if batch.num_rows else np.empty((0, 1))
        # emb checksum in int64 FIXED POINT (round(x * 2^20) per
        # element): integer sums are associative, so the pinned value
        # is immune to batch size / block order / merge order — a raw
        # float sum drifted in its low bits whenever the plan's
        # batching changed (observed when batch_size went 64 -> 512)
        qm = np.rint(m * (1 << 20)).astype(np.int64)
        sums = {k: int(qm[kinds == k].sum())
                for k in np.unique(kinds)} if batch.num_rows else {}
        return g.append_column("emb_sum_q", pa.array(
            [sums[k] for k in g.column("kind").to_pylist()],
            pa.int64()))

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    agg: dict[str, list] = {}
    for r in parts:
        a = agg.setdefault(r["kind"], [0, 0, 0, 0, 0])
        a[0] += r["n"]
        a[1] += r["sum_bytes"]
        a[2] += r["sum_frames"]
        a[3] += r["sum_rw"]
        a[4] += r["emb_sum_q"]
    kinds = sorted(agg)
    return pa.table({
        "kind": pa.array(kinds),
        "n": pa.array([agg[k][0] for k in kinds], pa.int64()),
        "sum_bytes": pa.array([agg[k][1] for k in kinds], pa.int64()),
        "sum_frames": pa.array([agg[k][2] for k in kinds], pa.int64()),
        "sum_rw": pa.array([agg[k][3] for k in kinds], pa.int64()),
        "emb_sum_q": pa.array([agg[k][4] for k in kinds], pa.int64()),
    })


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted Bernoulli sampling (after the weighted
    stream-sampling family, e.g. EDBT'23 weighted sampling over
    joins): keep each doc with p = min(1, n_chars/1000) via the
    md5-threshold mechanism — longer docs proportionally likelier,
    map-only, resume-stable, exactly SQL-reproducible."""
    from ..functions.hashing import md5_lower64_array
    ds = _docs(sf_dir).select_columns(["doc_id", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        h = md5_lower64_array(pc.binary_join_element_wise(
            pa.scalar("w"), pc.cast(batch.column("doc_id"),
                                    pa.string()), ":")) \
            % np.uint64(1_000_000)
        nc = batch.column("n_chars").to_numpy(
            zero_copy_only=False).astype(np.float64)
        thr = np.floor(1_000_000 * np.minimum(1.0, nc / 1000.0)) \
            .astype(np.uint64)
        out = batch.filter(pa.array(h < thr))
        return pa.table({
            "doc_id": pc.cast(out.column("doc_id"), pa.int64()),
            "n_chars": pc.cast(out.column("n_chars"), pa.int64())})

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_strip_dup_spans(sf_dir: str):
    """Corpus-wide duplicated-span (token-window boilerplate) removal
    — the token sibling of line_dedup: one gram-hash counting
    exchange, broadcast dup set, vectorized cover-mask rebuild
    (ops/lines.strip_dup_spans)."""
    from ..ops.lines import strip_dup_spans
    return strip_dup_spans(_docs(sf_dir), n=8)


def q_incremental_dedup(sf_dir: str):
    """Snapshot-incremental exact dedup: the md5 < 50 hash-half of the
    corpus plays the already-ingested snapshot; among the rest, keep
    the min-id doc per text not already in the snapshot.  One pass,
    one exchange (ops/dedup.incremental_exact_dedup)."""
    from ..ops.dedup import incremental_exact_dedup
    from ..functions.hashing import md5_lower64_array

    def tag(batch: pa.Table) -> pa.Table:
        h = md5_lower64_array(pc.cast(
            batch.column("doc_id"), pa.string())) % np.uint64(100)
        return batch.append_column("is_prior", pa.array(h < 50))

    ds = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True)
    return incremental_exact_dedup(ds)


def q_doc_entropy(sf_dir: str):
    """Per-doc unigram token entropy (low-information quality signal)
    — one vectorized scan (ops/text.py::entropy_batch)."""
    from ..ops.text import entropy_batch
    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        entropy_batch, batch_format="pyarrow", zero_copy_batch=True)


#: mixture sampler operating point: cap every source at ~4k chars —
#: below every test-scale source total (6-9k), so the correctness
#: gate exercises the actual downsampling path, not the keep-all edge
_MIX_BUDGET = 4_000.0


def q_mixture_sample(sf_dir: str):
    """Data-mixing downsampler: per-source char budgets enforced by a
    deterministic hash-threshold keep rate min(1, B/total) —
    combiner totals pass + map-only filter (ops/split.py)."""
    from ..ops.split import mixture_sample
    return mixture_sample(_docs(sf_dir), budget_chars=_MIX_BUDGET)


_TMIX_ALPHA = 0.5
_TMIX_BUDGET = 300


def q_temperature_mix(sf_dir: str):
    """Temperature-based language rebalancing (the mT5/XLM-R
    multinomial rule): keep ~floor(budget * q_l) docs per language
    where q_l ~ n_l^alpha — alpha=0.5 halves the dominant-English
    share while nearly keeping the low-resource tails
    (ops/split.temperature_mix over the skewed `lang` column).
    Deterministic md5 hash-Bernoulli; the oracle inlines the
    per-language thresholds from the SHARED scalar helper
    (temperature_thresholds — float reductions are not bit-portable
    across engines; the LSH hyperplane-literal precedent) and
    independently exercises the distributed filter + join."""
    from ..ops.split import temperature_mix
    return temperature_mix(_docs(sf_dir), alpha=_TMIX_ALPHA,
                           budget_docs=_TMIX_BUDGET, source_col="lang")


def q_pca_ann_topk(sf_dir: str):
    """Composition: PCA-reduce the corpus to 8 dims (combiner-only
    fit), then exact cosine top-10 for query vec 0 in the REDUCED
    space — the dim-reduction-before-search scale path (search cost
    drops d/8-fold; the reduced vectors are what a production IVF
    would index).  Bit-exact reduced vectors (ops/projection.py) make
    the result pinned-golden checkable against the independent serial
    reference."""
    from ..ops.projection import pca_project
    from ..ops.similarity import brute_force_topk
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    red = pca_project(ds, d_out=8)
    pcs = [f"pc{j + 1}" for j in range(8)]

    def as_list(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        m = np.column_stack([batch.column(c).to_numpy(
            zero_copy_only=False) for c in pcs]) if n else \
            np.empty((0, 8))
        offs = np.arange(n + 1, dtype=np.int32) * 8
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "reduced": pa.ListArray.from_arrays(
                pa.array(offs), pa.array(m.reshape(-1)))})

    lst = red.map_batches(as_list, batch_format="pyarrow",
                          zero_copy_batch=True)
    q = None
    for r in lst.map_batches(
            lambda b: b.filter(pc.equal(b.column("vec_id"), 0)),
            batch_format="pyarrow").take_all():
        q = np.asarray(r["reduced"], dtype=np.float64)
    rest = lst.map_batches(
        lambda b: b.filter(pc.not_equal(b.column("vec_id"), 0)),
        batch_format="pyarrow", zero_copy_batch=True)
    top = brute_force_topk(rest, q, k=10, id_col="vec_id",
                           vec_col="reduced")
    return top.select(["vec_id"])


#: BM25 bench query: three mid-frequency corpus terms
_BM25_TERMS = ["vector", "stream", "window"]


def q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-10 over the documents table: one corpus scan
    emitting candidates + stats partials, broadcast idf, local top-k
    merge (ops/ranking.py)."""
    from ..ops.ranking import bm25_topk
    return bm25_topk(_docs(sf_dir), terms=_BM25_TERMS, k=10)


#: heavy-hitter gate for the bench corpus (tokens with CMS-estimated
#: corpus tf >= this)
_HEAVY_T = 100


def q_heavy_tokens(sf_dir: str):
    """Count-min-sketch heavy hitters: fixed 512 KiB of state instead
    of the corpus-cardinality exact vocab aggregate; guaranteed
    superset of the exact heavy set (ops/sketch.py).  Deterministic ->
    pinned golden; superset/overestimate properties pytest-guarded."""
    from ..ops.sketch import heavy_tokens
    return heavy_tokens(_docs(sf_dir), threshold=_HEAVY_T)


def q_pca_project(sf_dir: str):
    """Distributed PCA: combiner-only exact-integer moment fit + a
    streaming projection pass (ops/projection.py).  Bit-exact at any
    parallelism, so the oracle is a pinned golden generated from the
    independent serial reference (tests/pca_reference.py)."""
    from ..ops.projection import pca_project
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    return pca_project(ds, d_out=4)


#: ordered funnel steps over the events stream (first-occurrence strict
#: funnel — see ops/funnel.funnel_counts)
_FUNNEL_STEPS = ["view", "click", "purchase"]


def q_funnel_counts(sf_dir: str):
    """Ordered-step funnel: users reaching view -> click -> purchase by
    strictly-increasing first-occurrence times (the classic telemetry
    rollup; per-user journeys co-located by one hash exchange, per-step
    vectorized scan)."""
    from ..ops.funnel import funnel_counts
    ds = _events(sf_dir, ["user_id", "event_type", "ts"])
    return funnel_counts(ds, _FUNNEL_STEPS)


#: windowed-funnel conversion deadline (seconds between steps)
_FUNNEL_WINDOW_S = 2 * 86_400


def q_funnel_window(sf_dir: str):
    """Windowed-conversion funnel: same ordered steps, but each step
    must occur within _FUNNEL_WINDOW_S of the previous step's first
    qualifying event (the time-bounded conversion metric)."""
    from ..ops.funnel import funnel_counts
    ds = _events(sf_dir, ["user_id", "event_type", "ts"])
    return funnel_counts(ds, _FUNNEL_STEPS, window_s=_FUNNEL_WINDOW_S)


def q_retention(sf_dir: str):
    """Cohort retention matrix: first-active-day cohorts x day offsets
    (distinct-day combiner before the exchange, hash-partition merge of
    (cohort, offset) cells — never collected on the driver)."""
    from ..ops.funnel import retention_counts
    ds = _events(sf_dir, ["user_id", "ts"])
    return retention_counts(ds)


def q_session_ids(sf_dir: str):
    """Event-level session assignment (gaps-and-islands row numbering):
    every event tagged with its user's 1-based session sequence — the
    row-level companion of the sessionize aggregate."""
    from ..ops.funnel import session_ids
    ds = _events(sf_dir, ["event_id", "user_id", "ts"])
    return session_ids(ds)


def q_quantize_embeddings(sf_dir: str):
    """Scalar int8 quantization of the embedding column (range pass +
    streaming quantize pass), value-gated via per-vector integer
    digests (sum, sum-of-squares of the codes) so the BIGINT compare
    vs the SQL oracle is exact."""
    from ..ops.quantize import quantize_digest
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
    return quantize_digest(ds)


#: hard-negative mining operating point: query ids + per-query top-k
_HARDNEG_QIDS = [0, 1, 2, 3, 4]


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive training: per query vector,
    the exact cosine top-10 among OUT-OF-CLASS vectors (label differs),
    one corpus scan, labels masked before the local top-k."""
    from ..ops.similarity import hard_negative_topk
    path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(path, columns=["vec_id", "embedding", "label"])
    qids = _HARDNEG_QIDS
    idx = [pc.index(t.column("vec_id"), q).as_py() for q in qids]
    qm = np.stack([np.asarray(t.column("embedding")[i].as_py(),
                              dtype=np.float64) for i in idx])
    qlab = np.array([t.column("label")[i].as_py() for i in idx])
    ds = ray.data.read_parquet(path,
                               columns=["vec_id", "embedding", "label"])
    qset = pa.array(qids, pa.int64())
    ds = ds.map_batches(
        lambda b: b.filter(pc.invert(pc.is_in(
            pc.cast(b.column("vec_id"), pa.int64()), value_set=qset))),
        batch_format="pyarrow", zero_copy_batch=True)
    res = hard_negative_topk(ds, qm, qlab, k=10)
    return res.select(["q_idx", "vec_id"])


_AQ_QS = [0.5, 0.9, 0.99]


def q_approx_quantiles(sf_dir: str):
    """Sampled approximate quantiles of the continuous events.value
    column (10% deterministic hash sample — ops/relational.
    sampled_quantiles): the quantile path for value domains where the
    exact histogram exchange (length_quantiles) would be O(rows)."""
    from ..ops.relational import sampled_quantiles
    ds = _events(sf_dir, ["event_id", "value"])
    return sampled_quantiles(ds, "value", "event_id", _AQ_QS)


_MH_INDEX_DIRS: dict[str, str] = {}


def q_incremental_minhash(sf_dir: str):
    """Day-2 near-dedup: build the persisted minhash band index over
    the PRIOR half of the corpus (even doc ids), then dedup the NEW
    half (odd ids) against it without re-reading the prior corpus —
    ops/dedup.build_minhash_index + incremental_minhash_dedup.  The
    incremental companion to dedup_minhash, pairing with
    incremental_dedup (exact) and the delta harvest.

    The index build is the DAY-1 step: it runs once per process per
    corpus (memoized dir), so repeat calls measure the day-2
    incremental pass alone — the operation this op exists for.
    Results are identical either way (the build is deterministic)."""
    import tempfile
    from ..ops.dedup import (build_minhash_index,
                             incremental_minhash_dedup)
    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def _half(parity: int):
        return docs.map_batches(
            lambda b, p=parity: b.filter(pc.equal(
                pc.bit_wise_and(pc.cast(b.column("doc_id"), pa.int64()),
                                pa.scalar(1, pa.int64())), p)),
            batch_format="pyarrow", zero_copy_batch=True)

    idx_dir = _MH_INDEX_DIRS.get(sf_dir)
    if idx_dir is None or not os.path.isdir(idx_dir):
        idx_dir = tempfile.mkdtemp(prefix="mh_index_", dir="/tmp")
        build_minhash_index(_half(0), idx_dir)
        _MH_INDEX_DIRS[sf_dir] = idx_dir
    return incremental_minhash_dedup(_half(1), idx_dir)


_TAR_CAP = 65536  # tar shard byte budget (toy scale; ~1 GiB in production)


def q_export_tar(sf_dir: str):
    """WebDataset-style tar-shard export (sources/export_tar): packs
    the documents corpus into byte-budget tar shards and returns the
    shard manifest — the deterministic pack assignment is what the SQL
    oracle mirrors; the written tars are byte-verified in pytest."""
    import tempfile
    from ..sources.export_tar import export_tar_shards
    out = tempfile.mkdtemp(prefix="tar_export_", dir="/tmp")
    docs = _docs(sf_dir).select_columns(["doc_id", "text", "lang",
                                         "source"])
    man = export_tar_shards(docs, out, capacity=_TAR_CAP,
                            meta_cols=("lang", "source"))
    return man.select_columns(["shard_id", "n_docs", "n_bytes"])


_IVL_WINDOW_S = 3600  # attribution window: clicks within the hour before a purchase


def q_interval_join(sf_dir: str):
    """Equi+range interval join (purchase-attribution analog): every
    (click, purchase) pair where the click is by the same user within
    the hour ending at the purchase — ops/relational.interval_join,
    the bounded-width co-partition range join."""
    from ..ops.relational import interval_join
    pts = _events(sf_dir, ["event_id", "user_id", "event_type", "ts"])
    pts = pts.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "click"))
        .drop_columns(["event_type"]),
        batch_format="pyarrow", zero_copy_batch=True)

    def anchors(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("event_type"), "purchase"))
        hi = pc.cast(b.column("ts"), pa.int64())
        lo = pc.subtract(hi, pa.scalar(_IVL_WINDOW_S * 1_000_000,
                                       pa.int64()))
        return pa.table({"user_id": b.column("user_id"),
                         "lo": lo, "hi": hi,
                         "anchor_id": b.column("event_id")})

    ivls = _events(sf_dir, ["event_id", "user_id", "event_type", "ts"]
                   ).map_batches(anchors, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return interval_join(pts, ivls, key="user_id", ts_col="ts",
                         lo_col="lo", hi_col="hi",
                         pt_id_col="event_id", ivl_id_col="anchor_id")


def _temperature_mix_sql(sf_dir: str) -> str:
    """Generated oracle for temperature_mix: per-language keep
    thresholds computed by the SAME scalar helper the operator uses
    (ops/split.temperature_thresholds — float reductions are not
    bit-portable, the LSH-literal precedent), inlined as a VALUES
    table; the SQL independently re-runs the distributed part (the
    md5 hash-Bernoulli filter and the lang join).  The helper itself
    is cross-checked from spec in tests/test_split.py."""
    import pyarrow.parquet as _pq

    from ..ops.split import temperature_thresholds
    langs = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang"]).column("lang").to_pylist()
    counts: dict[str, int] = {}
    for v in langs:
        counts[v] = counts.get(v, 0) + 1
    thr = temperature_thresholds(counts, _TMIX_ALPHA, _TMIX_BUDGET)
    vals = ", ".join(f"('{s}', CAST({t} AS BIGINT))"
                     for s, t in sorted(thr.items()))
    return f"""
        WITH thr AS (SELECT * FROM (VALUES {vals}) AS t(lang, t))
        SELECT d.doc_id, d.lang
        FROM documents d JOIN thr USING (lang)
        WHERE md5_number_lower('tmix:' || CAST(d.doc_id AS VARCHAR))
              % 1000000 < t"""


def _golden_dedup_sql(sf_dir: str) -> dict[str, str]:
    """Pinned-golden oracles for the deterministic-but-not-SQL dedup
    families (see scripts/make_goldens.py): the committed survivor id
    set inlined as a VALUES list.  Only emitted for scales the golden
    file pins — other scales fall back to the rows-only check."""
    try:
        with open(_GOLDEN_JSON) as f:
            pins = json.loads(f.read()).get(os.path.basename(
                os.path.normpath(sf_dir)), {})
    except OSError:
        return {}
    out = {}
    for q, pin in pins.items():
        if isinstance(pin, dict):
            # generic multi-column pin: {"columns": [...], "rows": [...]}
            def lit(v):
                if v is None:
                    return "NULL"
                if isinstance(v, str):
                    return "'{}'".format(v.replace("'", "''"))
                if isinstance(v, bool):
                    return "TRUE" if v else "FALSE"
                if isinstance(v, int):
                    return f"CAST({v} AS BIGINT)"
                # bare float literals parse as DECIMAL in DuckDB and
                # lose low bits; string -> DOUBLE is correctly rounded
                return f"CAST('{float(v)!r}' AS DOUBLE)"
            vals = ", ".join(
                "({})".format(", ".join(lit(v) for v in row))
                for row in pin["rows"])
            # quote names: pins may use SQL keywords (left/right/count)
            cols = ", ".join(f'"{c}"' for c in pin["columns"])
            out[q] = (f"SELECT {cols} FROM (VALUES {vals}) "
                      f"AS t({cols})")
        else:
            col = "vec_id" if q in ("dedup_embedding", "ann_ivf_topk",
                                    "semantic_dedup", "pca_ann_topk",
                                    "ann_pq_topk", "ann_ivfpq_topk",
                                    "ann_ivf_day2") \
                else "doc_id"
            out[q] = ("SELECT CAST(unnest([{}]) AS BIGINT) AS {}".format(
                ", ".join(str(i) for i in pin), col))
    if "dedup_minhash" in pins and "dedup_simhash_near" in pins:
        # family-agreement audit composed from the SAME pinned
        # survivor sets the individual families are checked against
        m = ", ".join(str(i) for i in pins["dedup_minhash"])
        s = ", ".join(str(i) for i in pins["dedup_simhash_near"])
        out["dedup_diff"] = f"""
            WITH m AS (SELECT unnest([{m}]) AS id),
                 s AS (SELECT unnest([{s}]) AS id)
            SELECT CAST(id AS BIGINT) AS doc_id, 'minhash_only' AS flag
            FROM (SELECT id FROM m EXCEPT SELECT id FROM s)
            UNION ALL
            SELECT CAST(id AS BIGINT) AS doc_id, 'simhash_only' AS flag
            FROM (SELECT id FROM s EXCEPT SELECT id FROM m)"""
    return out


def q_order_segments(sf_dir: str):
    """Skew-aware large x large INNER join (ops/relational.
    skew_join_rows): every order tagged with its customer's market
    segment.  The plan splits by OBSERVED key frequency — a sampled
    heavy-hitter pass (per-block top-M combiner over the fact side's
    key column only) picks hot customers whose dimension rows are
    broadcast once (ray.put) and joined map-side with NO shuffle,
    while cold keys ride the standard two-input co-partition exchange.
    At 100 TB this is the hot-key lever: a customer holding 1% of the
    fact table never serializes onto one partition task.  Both
    branches are live at every sf (hot_min_rows=15 vs ~10 orders per
    customer median)."""
    from ..ops.relational import skew_join_rows
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"])
    return skew_join_rows(cust, orders, "c_custkey", "o_custkey",
                          ["c_mktsegment"], ["o_orderkey", "o_totalprice"],
                          hot_min_rows=15)


def q_ewma_value(sf_dir: str):
    """Per-user exponential decay feature (EWMA alpha=1/4) over the
    event stream — exact int64 fixed-point recursion, one hash
    exchange + a rank-synchronous vectorized recursion per partition
    (ops/relational.grouped_ewma); the oracle expresses the identical
    recursion as a recursive CTE."""
    from ..ops.relational import grouped_ewma
    return grouped_ewma(_events(sf_dir,
                                ["event_id", "user_id", "ts", "value"]),
                        key="user_id", ts_col="ts", val_col="value")


def q_sliding_distinct(sf_dir: str):
    """Distinct users per sliding 1-hour window every 15 min (the
    sliding-DAU metric).  Distinct cannot pre-aggregate across
    overlapping windows, so the combiner dedups expanded (window,
    user) PAIRS per batch before the one hash exchange
    (ops/relational.sliding_distinct)."""
    from ..ops.relational import sliding_distinct
    return sliding_distinct(_events(sf_dir, ["user_id", "ts"]),
                            key="user_id", ts_col="ts",
                            window_s=3600, slide_s=900)


def q_events_profile(sf_dir: str):
    """Single-pass table audit (ops/profile.profile_columns): per
    events column — rows, nulls, numeric/timestamp min-max — with a
    bytes-sized per-block combiner; partial volume is n_columns x
    n_blocks, never rows."""
    from ..ops.profile import profile_columns
    return profile_columns(ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet")))


def q_mad_outliers(sf_dir: str):
    """Per-user robust outlier flags (|x - median| > 5 * MAD) — the
    heavy-tail-proof screen upstream of feature pipelines.  ONE hash
    exchange; median, deviations, MAD and flags all inside the
    partition scan (ops/relational.mad_outliers); exact int64 cents so
    the nested quantile_disc oracle hash-matches."""
    from ..ops.relational import mad_outliers
    return mad_outliers(_events(sf_dir, ["event_id", "user_id", "value"]),
                        key="user_id", val_col="value", k_mad=5)


_DRIFT_CUT = "2024-01-16"


def q_drift_terms(sf_dir: str):
    """Distribution drift per event type between the early and late
    halves of the stream: fixed-bin value histograms, one
    triangular-discrimination term per (type, bin)
    (ops/relational.drift_terms) — the snapshot-to-snapshot data-drift
    monitor.  Transcendental-free so every float hashes identically
    to the SQL oracle."""
    from ..ops.relational import drift_terms
    return drift_terms(_events(sf_dir, ["event_type", "ts", "value"]),
                       key="event_type", ts_col="ts", val_col="value",
                       cut_iso=_DRIFT_CUT, bin_cents=5000)


#: fixed n_chars cut points for the oracle-mirrored sorted export
#: (sample-derived bounds are exercised in pytest; explicit bounds
#: keep the SQL oracle able to reproduce the shard assignment)
_SORTED_BOUNDS = [150, 250, 350, 450]


def q_sorted_export(sf_dir: str):
    """Range-partitioned sorted parquet export (sources/export_sorted):
    documents laid out as length-sorted shards — shard i's keys all
    precede shard i+1's, each shard internally sorted and written
    atomically in-task.  Returns the manifest minus the tempdir-
    dependent path column; file-level sortedness is byte-verified in
    pytest."""
    import tempfile
    from ..sources.export_sorted import export_sorted_parquet
    out = tempfile.mkdtemp(prefix="sorted_export_", dir="/tmp")
    docs = _docs(sf_dir).select_columns(["doc_id", "text", "n_chars"])
    man = export_sorted_parquet(docs, "n_chars", out,
                                bounds=_SORTED_BOUNDS)
    return man.select_columns(["shard_id", "n_rows", "min_v", "max_v"])


def q_source_overlap(sf_dir: str):
    """Cross-source contamination matrix (ops/dedup.source_overlap):
    per source pair, how many document pairs share an identical
    64-char leading prefix — the which-feeds-duplicate-each-other
    audit.  Pair counts come from per-(prefix, source) count vectors;
    doc pairs are never expanded."""
    from ..ops.dedup import source_overlap
    return source_overlap(_docs(sf_dir), text_col="text",
                          src_col="source", prefix_chars=64)


_SEMI_LO, _SEMI_HI = "1997-07-01", "1997-10-01"


def q_priority_semi(sf_dir: str):
    """TPC-H Q4 analog: orders per priority having AT LEAST ONE
    lineitem shipped in the quarter — the distributed SEMI join
    (ops/relational.semi_join; EXISTS semantics, right side collapsed
    to unique keys per block before the one exchange) finished by a
    bounded-cardinality priority count."""
    from ..ops.relational import semi_join
    lo = np.datetime64(_SEMI_LO).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(_SEMI_HI).astype("datetime64[us]").astype(np.int64)
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"])
    lines = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"]).map_batches(
        lambda b: b.filter(pc.and_(
            pc.greater_equal(pc.cast(
                b.column("l_shipdate").combine_chunks(), pa.int64()), lo),
            pc.less(pc.cast(
                b.column("l_shipdate").combine_chunks(), pa.int64()), hi)
        )).select(["l_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    hits = semi_join(orders, lines, "o_orderkey", "l_orderkey",
                     ["o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.select(["o_orderpriority"]).group_by(
            ["o_orderpriority"]).aggregate([([], "count_all")])
        return agg.rename_columns(
            ["n" if c == "count_all" else c for c in agg.column_names])

    agg = hash_partition_aggregate(
        hits.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["o_orderpriority"], [("n", "sum")])
    return agg.map_batches(
        lambda b: pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "n_orders": pc.cast(b.column("n_sum"), pa.int64())}),
        batch_format="pyarrow")


def oracle_sql_strings(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """DuckDB SQL equivalents.  Transcript-family SQL reads the
    generated corpus by absolute path (generation is triggered here so
    the files exist before the driver runs the SQL)."""
    from ..ops.pairs import CONTEXT_BUDGET_CHARS
    fx = _fx(sf_dir)
    TP = f"read_parquet('{fx}/transcripts/*.parquet')"
    META = f"read_parquet('{fx}/conv_meta.parquet')"
    ETL = f"read_parquet('{fx}/event_type_lookup.parquet')"
    REG = f"read_parquet('{fx}/node_registry.parquet')"
    RL = f"read_parquet('{fx}/range_list.parquet')"
    side = load_side_tables(fx)
    PU, FU = side.partial_union, side.full_union
    H = "md5_number_lower(conv_id)"
    W = CFG.repeat_visit_interval_end_s

    member_expr = f"""COALESCE(conv_id IN (SELECT member_key FROM {REG}), FALSE)
        OR COALESCE(conv_id IN (SELECT key FROM {RL} WHERE kind = 'exact' AND key IS NOT NULL), FALSE)
        OR EXISTS (SELECT 1 FROM {RL} r WHERE r.kind = 'range'
                   AND {H} % 4294967296 BETWEEN r.lo AND r.hi)"""

    flags_cte = f"""WITH base AS (
      SELECT conv_id, turn_idx, role, text,
             COALESCE(role IN {GATE_SQL}, FALSE) AS gated,
             COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{PU}'), FALSE) AS rp,
             COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{FU}'), FALSE) AS rf,
             ({member_expr}) AS member
      FROM {TP} WHERE {VALID}
    ), flags AS (
      SELECT conv_id, turn_idx,
             rp OR (gated AND member AND NOT (rp AND rf)) AS in_partial_list,
             rf OR (gated AND member AND NOT (rp AND rf)) AS in_full_list
      FROM base
    )"""

    # window state is per (conv_id, role) — matching the engine's scan
    # key (ipAddress+pid analog); partitioning by conv_id alone would
    # interleave roles into one window whenever gate_roles has >1 entry
    repeat_cte = f"""WITH RECURSIVE g AS (
      SELECT conv_id, role, turn_idx, ts,
             row_number() OVER (PARTITION BY conv_id, role
                                ORDER BY turn_idx) AS rn
      FROM {TP}
      WHERE {VALID} AND role IN {GATE_SQL} AND ts IS NOT NULL
    ), scan AS (
      SELECT conv_id, role, turn_idx, ts, rn, ts AS ws, FALSE AS is_repeat
      FROM g WHERE rn = 1
      UNION ALL
      SELECT g.conv_id, g.role, g.turn_idx, g.ts, g.rn,
             CASE WHEN g.ts > s.ws AND g.ts < s.ws + INTERVAL {W} SECOND
                  THEN s.ws ELSE g.ts END,
             (g.ts > s.ws AND g.ts < s.ws + INTERVAL {W} SECOND)
      FROM g JOIN scan s ON g.conv_id = s.conv_id AND g.role = s.role
                        AND g.rn = s.rn + 1
    )"""

    return {
        "clean_project": f"""
            SELECT {TURN_ID}, conv_id, turn_idx, role,
                   CASE WHEN role IN {V1_SQL} THEN 'v1' ELSE 'v2' END AS version_compliance
            FROM {TP} WHERE {VALID}""",

        "parse_flags": f"""
            SELECT {TURN_ID},
                   COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{PU}'), FALSE) AS in_partial_list,
                   COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{FU}'), FALSE) AS in_full_list
            FROM {TP} WHERE {VALID}""",

        "membership_flags": flags_cte + f"""
            SELECT {TURN_ID}, in_partial_list, in_full_list FROM flags""",

        "enrich_meta": f"""
            SELECT t.conv_id || '.' || CAST(t.turn_idx AS VARCHAR) AS turn_id,
                   m.format_id, m.series_id, COALESCE(m.size, 0) AS size,
                   m.rights_holder, e.tool_family
            FROM {TP} t
            LEFT JOIN {META} m USING (conv_id)
            LEFT JOIN {ETL} e ON t.tool = e.tool
            WHERE t.conv_id IS NOT NULL AND t.conv_id <> ''""",

        "geo_enrich": f"""
            SELECT DISTINCT conv_id,
                   'country-' || CAST({H} % 40 AS VARCHAR) AS country,
                   'region-'  || CAST(({H} // 40) % 60 AS VARCHAR) AS region,
                   'city-'    || CAST(({H} // 2400) % 97 AS VARCHAR) AS city,
                   printf('%.4f, %.4f',
                          ({H} % 170000) / 1000.0 - 85.0,
                          (({H} // 170000) % 360000) / 1000.0 - 180.0) AS location
            FROM {TP} WHERE {VALID}""",

        "route_counts": flags_cte + f"""
            SELECT CAST(md5_number_lower(conv_id) % {CFG.n_sinks} AS INTEGER) AS sink_id,
                   count(*) AS n_rows,
                   CAST(SUM(CASE WHEN in_partial_list THEN 1 ELSE 0 END) AS BIGINT) AS n_partial,
                   CAST(SUM(CASE WHEN in_full_list THEN 1 ELSE 0 END) AS BIGINT) AS n_full
            FROM flags GROUP BY 1""",

        "watermark": f"""
            SELECT conv_id, count(*) AS n_turns, max(ts) AS max_ts
            FROM {TP} WHERE {VALID} GROUP BY conv_id""",

        "watermark_salted": f"""
            SELECT conv_id, count(*) AS n_turns, max(ts) AS max_ts
            FROM {TP} WHERE {VALID} GROUP BY conv_id""",

        "repeat_visit": repeat_cte + f"""
            SELECT {TURN_ID}, is_repeat AS is_repeat_visit FROM scan
            UNION ALL
            SELECT {TURN_ID}, FALSE AS is_repeat_visit
            FROM {TP} WHERE {VALID} AND role IN {GATE_SQL} AND ts IS NULL""",

        "harvest_sink_counts": repeat_cte + f""", base AS (
      SELECT conv_id, turn_idx, role, text,
             COALESCE(role IN {GATE_SQL}, FALSE) AS gated,
             COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{PU}'), FALSE) AS rp,
             COALESCE(role IN {GATE_SQL} AND regexp_matches(text, '{FU}'), FALSE) AS rf,
             ({member_expr}) AS member
      FROM {TP} WHERE {VALID}
    ), flags AS (
      SELECT conv_id, turn_idx,
             rp OR (gated AND member AND NOT (rp AND rf)) AS in_partial_list,
             rf OR (gated AND member AND NOT (rp AND rf)) AS in_full_list
      FROM base
    ), rv AS (
      SELECT conv_id, turn_idx, is_repeat FROM scan
    )
            SELECT CAST(md5_number_lower(f.conv_id) % {CFG.n_sinks} AS INTEGER) AS sink_id,
                   count(*) AS n_rows,
                   CAST(SUM(CASE WHEN f.in_partial_list THEN 1 ELSE 0 END) AS BIGINT) AS n_partial,
                   CAST(SUM(CASE WHEN f.in_full_list THEN 1 ELSE 0 END) AS BIGINT) AS n_full,
                   CAST(SUM(CASE WHEN COALESCE(rv.is_repeat, FALSE) THEN 1 ELSE 0 END) AS BIGINT) AS n_repeat_visit
            FROM flags f LEFT JOIN rv
              ON f.conv_id = rv.conv_id AND f.turn_idx = rv.turn_idx
            GROUP BY 1""",

        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",

        "doc_fingerprint": """
            SELECT doc_id, md5_number_lower(text) AS fingerprint
            FROM documents WHERE text IS NOT NULL""",

        "token_count": """
            SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
            FROM documents WHERE text IS NOT NULL""",

        "normalize_text": r"""
            SELECT doc_id,
                   nfc_normalize(trim(regexp_replace(regexp_replace(
                     text, '[\x00-\x08\x0E-\x1F\x7F]', '', 'g'),
                     '\s+', ' ', 'g'), ' ')) AS text_norm,
                   CAST(length(nfc_normalize(trim(regexp_replace(
                     regexp_replace(text, '[\x00-\x08\x0E-\x1F\x7F]',
                     '', 'g'), '\s+', ' ', 'g'), ' ')))
                     AS BIGINT) AS n_chars_norm
            FROM documents WHERE text IS NOT NULL""",

        "curate_corpus": rf"""
            WITH norm AS (
              SELECT doc_id,
                     nfc_normalize(trim(regexp_replace(regexp_replace(
                       text, '[\x00-\x08\x0E-\x1F\x7F]', '', 'g'),
                       '\s+', ' ', 'g'), ' ')) AS t
              FROM documents WHERE text IS NOT NULL
            ), toks AS (
              SELECT doc_id, string_split(t, ' ') AS w FROM norm
            ), grams AS (
              SELECT doc_id,
                     list_aggregate(w[i:i+{_DECON_N - 1}],
                                    'string_agg', ' ') AS gram
              FROM toks, UNNEST(range(1, len(w) - {_DECON_N - 2}))
                   AS tt(i)
            ), bench AS (
              SELECT DISTINCT gram FROM grams
              WHERE md5_number_lower(CAST(doc_id AS VARCHAR))
                    % {_DECON_MOD} < {_DECON_LT}
            ), contaminated AS (
              SELECT DISTINCT g.doc_id
              FROM grams g JOIN bench b USING (gram)
            ), clean AS (
              SELECT doc_id, t FROM norm
              WHERE md5_number_lower(CAST(doc_id AS VARCHAR))
                    % {_DECON_MOD} >= {_DECON_LT}
                AND len(string_split(t, ' ')) >= 5
                AND length(t) >= 30
                AND length(regexp_replace(t, '[^.!?,;:]', '', 'g')) * 5
                    <= len(string_split(t, ' '))
                AND length(t) <= 40 * len(string_split(t, ' '))
                AND doc_id NOT IN (SELECT doc_id FROM contaminated)
            ), survivors AS (
              SELECT min(doc_id) AS doc_id, t FROM clean GROUP BY t
            ), ctoks AS (
              SELECT doc_id, unnest(string_split(t, ' ')) AS tok,
                     generate_subscripts(string_split(t, ' '), 1) AS i
              FROM survivors)
            SELECT doc_id, CAST((i-1)//64 AS BIGINT) AS chunk_idx,
                   CAST(count(*) AS BIGINT) AS n_chunk_tokens,
                   string_agg(tok, ' ' ORDER BY i) AS chunk_text
            FROM ctoks GROUP BY doc_id, (i-1)//64""",

        "chunk_tokens": """
            WITH toks AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                     generate_subscripts(string_split(text, ' '), 1) AS i
              FROM documents WHERE text IS NOT NULL)
            SELECT doc_id, CAST((i-1)//64 AS BIGINT) AS chunk_idx,
                   CAST(count(*) AS BIGINT) AS n_chunk_tokens,
                   string_agg(tok, ' ' ORDER BY i) AS chunk_text
            FROM toks GROUP BY doc_id, (i-1)//64""",

        "token_rarity": """
            WITH toks AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS tok
              FROM documents WHERE text IS NOT NULL
            ),
            tc AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok)
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(c) AS BIGINT) AS sum_tf,
                   CAST(min(c) AS BIGINT) AS min_tf
            FROM toks JOIN tc USING (tok)
            GROUP BY doc_id""",

        "line_dedup": """
            WITH lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     generate_subscripts(string_split(text, chr(10)), 1)
                       AS ord
              FROM documents WHERE text IS NOT NULL
            ),
            linec AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
            j AS (SELECT l.doc_id, l.line, l.ord, (lc.c >= 2) AS dup
                  FROM lines l JOIN linec lc USING (line))
            SELECT doc_id,
                   coalesce(string_agg(CASE WHEN NOT dup THEN line END,
                                       chr(10) ORDER BY ord), '')
                     AS text_clean,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(sum(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_dup_lines
            FROM j GROUP BY doc_id""",

        "snapshot_merge": """
            WITH base AS (
              SELECT doc_id, CAST(1 AS BIGINT) AS version,
                     CAST(n_chars AS BIGINT) AS n_chars
              FROM documents
            ), delta AS (
              SELECT doc_id, CAST(2 AS BIGINT) AS version,
                     CAST(n_chars + 1000 AS BIGINT) AS n_chars
              FROM documents WHERE doc_id % 5 = 0
            ), u AS (
              SELECT * FROM base UNION ALL SELECT * FROM delta
            ), r AS (
              SELECT *, row_number() OVER (
                PARTITION BY doc_id ORDER BY version DESC) AS rn
              FROM u)
            SELECT doc_id, version, n_chars FROM r WHERE rn = 1""",

        "big_orders": f"""
            WITH big AS (
              SELECT l_orderkey,
                     CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT))
                          AS BIGINT) AS sum_qty
              FROM lineitem GROUP BY 1
              HAVING sum_qty > {_BIGORD_T}
            )
            SELECT c.c_custkey, c.c_mktsegment,
                   o.o_orderkey, b.sum_qty
            FROM big b
            JOIN orders o ON o.o_orderkey = b.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey""",

        "top_orders": f"""
            SELECT o.o_orderkey, o.o_orderdate,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
                     AS BIGINT) AS revenue_c2
            FROM orders o
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = '{_TOPORD_SEG}'
              AND o.o_orderdate < TIMESTAMP '{_TOPORD_CUT}'
              AND l.l_shipdate > TIMESTAMP '{_TOPORD_CUT}'
            GROUP BY 1, 2
            ORDER BY revenue_c2 DESC, o_orderkey
            LIMIT 10""",

        "pricing_summary": f"""
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT))
                     AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS BIGINT) AS sum_base_c,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                     AS BIGINT) AS sum_disc_c2,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                       * (100 + CAST(ROUND(l_tax * 100) AS BIGINT)))
                     AS BIGINT) AS sum_charge_c4,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS DOUBLE)
                     / count(*) AS avg_qty,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS DOUBLE) / count(*) AS avg_price_c,
                   CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT))
                     AS DOUBLE) / count(*) AS avg_disc_pct,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '{_PSUM_CUT}'
            GROUP BY l_returnflag, l_linestatus""",

        "regional_revenue": f"""
            SELECT n.n_name,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
                     AS BIGINT) AS revenue_c2
            FROM customer c, orders o, lineitem l, supplier s,
                 nation n, region r
            WHERE c.c_custkey = o.o_custkey
              AND l.l_orderkey = o.o_orderkey
              AND l.l_suppkey = s.s_suppkey
              AND c.c_nationkey = s.s_nationkey
              AND s.s_nationkey = n.n_nationkey
              AND n.n_regionkey = r.r_regionkey
              AND r.r_name = '{_RREV_REGION}'
              AND o.o_orderdate >= TIMESTAMP '{_RREV_LO}'
              AND o.o_orderdate < TIMESTAMP '{_RREV_HI}'
            GROUP BY n.n_name""",

        "locf_fill": """
            SELECT event_id,
                   LAST_VALUE(CASE WHEN event_type = 'purchase'
                                   THEN value END IGNORE NULLS)
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND CURRENT ROW) AS last_purchase
            FROM events
            WHERE ts IS NOT NULL AND user_id IS NOT NULL""",

        "winsorize": """
            WITH q AS (
              SELECT event_type,
                     quantile_disc(value, 0.05) AS lo,
                     quantile_disc(value, 0.95) AS hi
              FROM events WHERE value IS NOT NULL GROUP BY event_type)
            SELECT e.event_id,
                   least(greatest(e.value, q.lo), q.hi) AS value_w
            FROM events e JOIN q USING (event_type)
            WHERE e.value IS NOT NULL""",

        "gapfill_daily": """
            WITH c AS (
              SELECT event_type, date_trunc('day', ts) AS day,
                     count(*) AS n
              FROM events WHERE ts IS NOT NULL GROUP BY 1, 2
            ), d AS (
              SELECT unnest(generate_series((SELECT min(day) FROM c),
                                            (SELECT max(day) FROM c),
                                            INTERVAL 1 DAY)) AS day
            ), t AS (SELECT DISTINCT event_type FROM c)
            SELECT t.event_type, d.day,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n
            FROM d CROSS JOIN t
            LEFT JOIN c ON c.event_type = t.event_type
                       AND c.day = d.day""",

        "pack_shards": f"""
            WITH t AS (
              SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
              FROM documents WHERE text IS NOT NULL
            ), c AS (
              SELECT doc_id,
                     COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS cumb
              FROM t
            )
            SELECT doc_id,
                   CAST(cumb // {_PACK_CAP} AS BIGINT) AS shard_id,
                   CAST(cumb % {_PACK_CAP} AS BIGINT) AS shard_off
            FROM c""",

        "doc_entropy": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), flat AS (
              SELECT doc_id, len(w) AS n, unnest(w) AS tok FROM toks
            ), tf AS (
              SELECT doc_id, any_value(n) AS n,
                     CAST(count(*) AS DOUBLE) AS tf
              FROM flat GROUP BY doc_id, tok
            )
            SELECT doc_id,
                   ROUND(log2(CAST(any_value(n) AS DOUBLE))
                         - SUM(tf * log2(tf)) / any_value(n), 6)
                     AS entropy
            FROM tf GROUP BY doc_id""",

        "mixture_sample": f"""
            WITH tot AS (
              SELECT source, CAST(sum(n_chars) AS DOUBLE) AS total
              FROM documents GROUP BY source
            ), thr AS (
              SELECT source,
                     CAST(FLOOR(1000000 * LEAST(1.0, {_MIX_BUDGET!r} / total))
                          AS BIGINT) AS t
              FROM tot
            )
            SELECT d.doc_id, d.source
            FROM documents d JOIN thr USING (source)
            WHERE md5_number_lower('mix:' || CAST(d.doc_id AS VARCHAR))
                  % 1000000 < t""",

        "temperature_mix": _temperature_mix_sql(sf_dir),

        "bm25_topk": f"""
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), stats AS (
              SELECT count(*) AS n,
                     CAST(sum(len(w)) AS DOUBLE) / count(*) AS avgdl
              FROM toks
            ), flat AS (
              SELECT doc_id, len(w) AS dl, unnest(w) AS tok FROM toks
            ), tf AS (
              SELECT doc_id, any_value(dl) AS dl, tok,
                     CAST(count(*) AS DOUBLE) AS tf
              FROM flat
              WHERE tok IN ('{"','".join(_BM25_TERMS)}')
              GROUP BY doc_id, tok
            ), df AS (
              SELECT tok, count(*) AS df FROM tf GROUP BY tok
            ), scored AS (
              SELECT t.doc_id,
                     ROUND(SUM(
                       ln((s.n - d.df + 0.5) / (d.df + 0.5) + 1.0)
                       * (t.tf * (1.2 + 1.0))
                       / (t.tf + 1.2 * (1.0 - 0.75
                                        + 0.75 * t.dl / s.avgdl))), 6)
                       AS score
              FROM tf t JOIN df d USING (tok), stats s
              GROUP BY t.doc_id
            )
            SELECT doc_id, score FROM scored
            ORDER BY score DESC, doc_id LIMIT 10""",

        "vocab_df": """
            SELECT token,
                   count(DISTINCT doc_id) AS df,
                   count(*) AS tf
            FROM (SELECT doc_id,
                         unnest(string_split(text, ' ')) AS token
                  FROM documents WHERE text IS NOT NULL)
            GROUP BY token""",

        "sample_docs": """
            SELECT doc_id FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 10""",

        "train_split": """
            SELECT doc_id,
                   CASE WHEN md5_number_lower('s42:' || CAST(doc_id AS VARCHAR)) % 100 < 80 THEN 'train'
                        WHEN md5_number_lower('s42:' || CAST(doc_id AS VARCHAR)) % 100 < 90 THEN 'val'
                        ELSE 'test' END AS split
            FROM documents""",

        "shuffle_shards": """
            WITH k AS (
              SELECT doc_id,
                     md5_number_lower('s42:' || CAST(doc_id AS VARCHAR)) AS h
              FROM documents)
            SELECT doc_id, CAST(h % 16 AS BIGINT) AS shard_id,
                   CAST(row_number() OVER (PARTITION BY h % 16
                                           ORDER BY h, doc_id) - 1
                        AS BIGINT) AS pos
            FROM k""",

        "source_stats": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
            FROM documents GROUP BY source""",

        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100
                  < (CASE WHEN lang = 'en' THEN 20 ELSE 60 END)""",

        "percent_rank": """
            SELECT doc_id,
                   percent_rank() OVER (PARTITION BY source
                                        ORDER BY n_chars) AS pct_rank
            FROM documents WHERE n_chars IS NOT NULL""",

        "exact_sample": """
            SELECT doc_id, sample_rank FROM (
              SELECT doc_id,
                     CAST(row_number() OVER (
                       ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                                doc_id) AS BIGINT) AS sample_rank
              FROM documents)
            WHERE sample_rank <= 500""",

        "semantic_decontam": f"""
            WITH bench AS (
              SELECT embedding AS bemb FROM embeddings WHERE label = 0
            )
            SELECT e.vec_id, count(*) AS n_hits
            FROM embeddings e CROSS JOIN bench b
            WHERE e.label <> 0
              AND list_cosine_similarity(e.embedding, b.bemb)
                  >= {_SEMDECON_T!r}
            GROUP BY e.vec_id""",

        "ngram_decontaminate": f"""
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), grams AS (
              SELECT doc_id,
                     list_aggregate(w[i:i+{_DECON_N - 1}], 'string_agg', ' ') AS gram
              FROM toks, UNNEST(range(1, len(w) - {_DECON_N - 2})) AS t(i)
            ), bench AS (
              SELECT DISTINCT gram FROM grams
              WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % {_DECON_MOD} < {_DECON_LT}
            )
            SELECT g.doc_id, count(DISTINCT g.gram) AS n_hits
            FROM grams g JOIN bench b ON g.gram = b.gram
            WHERE md5_number_lower(CAST(g.doc_id AS VARCHAR)) % {_DECON_MOD} >= {_DECON_LT}
            GROUP BY g.doc_id""",

        "doc_repetition": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), flat AS (
              SELECT doc_id, len(w) AS n_tokens, unnest(w) AS tok FROM toks
            ), per_doc AS (
              SELECT doc_id, any_value(n_tokens) AS n_tokens,
                     count(DISTINCT tok) AS n_distinct
              FROM flat GROUP BY doc_id
            ), pairs AS (
              SELECT doc_id, w[i] || ' ' || w[i+1] AS g2
              FROM toks, UNNEST(range(1, len(w))) AS t(i)
            ), topg AS (
              SELECT doc_id, max(c) AS top_2gram_count FROM (
                SELECT doc_id, count(*) AS c FROM pairs
                GROUP BY doc_id, g2)
              GROUP BY doc_id
            )
            SELECT p.doc_id, p.n_tokens,
                   p.n_tokens - p.n_distinct AS n_dup_tokens,
                   COALESCE(t.top_2gram_count, 0) AS top_2gram_count
            FROM per_doc p LEFT JOIN topg t USING (doc_id)""",

        "length_quantiles": f"""
            WITH lens AS (
              SELECT len(string_split(text, ' ')) AS n_tokens
              FROM documents WHERE text IS NOT NULL
            ), agg AS (
              SELECT quantile_disc(n_tokens, {_QUANTILE_QS}) AS vs
              FROM lens)
            SELECT CAST({_QUANTILE_QS}[i] AS DOUBLE) AS q, vs[i] AS value
            FROM agg, UNNEST(range(1, {len(_QUANTILE_QS) + 1})) AS t(i)""",

        "quality_buckets": f"""
            WITH lens AS (
              SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
              FROM documents WHERE text IS NOT NULL
            ), thr AS (
              SELECT unnest(quantile_disc(n_tokens, {_BUCKET_QS})) AS v
              FROM lens)
            SELECT l.doc_id, l.n_tokens,
                   CAST((SELECT count(*) FROM thr WHERE v < l.n_tokens)
                        AS BIGINT) AS bucket
            FROM lens l""",

        "weighted_sample": """
            SELECT doc_id, n_chars FROM documents
            WHERE md5_number_lower('w:' || CAST(doc_id AS VARCHAR))
                  % 1000000
                < FLOOR(1000000 * LEAST(1.0, n_chars / 1000.0))""",

        "strip_dup_spans": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), grams AS (
              SELECT doc_id, i,
                     list_aggregate(w[i:i+7], 'string_agg', ' ') AS gram
              FROM toks, UNNEST(range(1, len(w) - 6)) AS t(i)
            ), gc AS (
              SELECT gram, count(DISTINCT doc_id) AS nd
              FROM grams GROUP BY gram
            ), dup AS (
              SELECT gram FROM gc WHERE nd >= 2
            ), cover AS (
              SELECT DISTINCT g.doc_id, u.j
              FROM grams g JOIN dup d USING (gram),
                   UNNEST(range(g.i, g.i + 8)) AS u(j)
            ), flat AS (
              SELECT doc_id, w[i] AS tok, i AS j
              FROM toks, UNNEST(range(1, len(w) + 1)) AS t(i)
            ), kept AS (
              SELECT f.doc_id,
                     string_agg(f.tok, ' ' ORDER BY f.j) AS text_clean,
                     count(*) AS n_kept
              FROM flat f
              WHERE NOT EXISTS (SELECT 1 FROM cover c
                                WHERE c.doc_id = f.doc_id
                                  AND c.j = f.j)
              GROUP BY f.doc_id
            )
            SELECT t.doc_id,
                   COALESCE(k.text_clean, '') AS text_clean,
                   CAST(len(t.w) AS BIGINT) AS n_tokens,
                   CAST(len(t.w) - COALESCE(k.n_kept, 0) AS BIGINT)
                     AS n_removed
            FROM toks t LEFT JOIN kept k USING (doc_id)""",

        "incremental_dedup": """
            WITH tagged AS (
              SELECT doc_id, text,
                     md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 50
                       AS is_prior
              FROM documents
            ), prior AS (
              SELECT DISTINCT md5(text) AS fp FROM tagged WHERE is_prior
            )
            SELECT min(doc_id) AS doc_id
            FROM tagged
            WHERE NOT is_prior
              AND md5(text) NOT IN (SELECT fp FROM prior)
            GROUP BY md5(text)""",

        "length_trim": """
            WITH lens AS (
              SELECT doc_id, len(string_split(text, ' ')) AS n
              FROM documents WHERE text IS NOT NULL
            ), b AS (
              SELECT quantile_disc(n, 0.1) AS lo,
                     quantile_disc(n, 0.9) AS hi
              FROM lens
            )
            SELECT doc_id FROM lens, b WHERE n >= lo AND n <= hi""",

        "pii_redact": f"""
            WITH s1 AS (
              SELECT doc_id, text,
                     len(regexp_extract_all(text, '{_PII_PATS[0]}'))
                       AS n_emails,
                     regexp_replace(text, '{_PII_PATS[0]}', '<EMAIL>', 'g')
                       AS t1
              FROM documents WHERE text IS NOT NULL
            ), s2 AS (
              SELECT *, len(regexp_extract_all(t1, '{_PII_PATS[1]}'))
                       AS n_ipv4,
                     regexp_replace(t1, '{_PII_PATS[1]}', '<IP>', 'g') AS t2
              FROM s1
            )
            SELECT doc_id, n_emails, n_ipv4,
                   len(regexp_extract_all(t2, '{_PII_PATS[2]}')) AS n_phones,
                   regexp_replace(t2, '{_PII_PATS[2]}', '<PHONE>', 'g')
                     AS text_redacted
            FROM s2""",

        "dup_ngram_stats": f"""
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), grams AS (
              SELECT DISTINCT doc_id,
                     list_aggregate(w[i:i+{_DUPGRAM_N - 1}],
                                    'string_agg', ' ') AS gram
              FROM toks, UNNEST(range(1, len(w) - {_DUPGRAM_N - 2})) AS t(i)
            ), gc AS (
              SELECT gram, count(*) AS nd FROM grams GROUP BY gram
            )
            SELECT g.doc_id, count(*) AS n_grams,
                   CAST(coalesce(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END),
                                 0) AS BIGINT) AS n_dup_grams
            FROM grams g JOIN gc c USING (gram)
            GROUP BY g.doc_id""",

        "distinctive_terms": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w
              FROM documents WHERE text IS NOT NULL
            ), flat AS (
              SELECT doc_id, unnest(w) AS tok FROM toks
            ), tfd AS (
              SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
              FROM flat GROUP BY doc_id, tok
            ), dfd AS (
              SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
              FROM flat GROUP BY tok
            ), ranked AS (
              SELECT t.doc_id, t.tok, d.df, t.tf,
                     row_number() OVER (
                       PARTITION BY t.doc_id
                       ORDER BY d.df, t.tf DESC, t.tok) AS rnk
              FROM tfd t JOIN dfd d USING (tok)
            )
            SELECT doc_id, tok AS term, df, tf,
                   CAST(rnk AS BIGINT) AS "rank"
            FROM ranked WHERE rnk <= 3""",

        "quality_filter": """
            SELECT doc_id FROM (
              SELECT doc_id,
                     len(string_split(text, ' ')) AS n_tok,
                     length(text) AS n_chr,
                     length(regexp_replace(text, '[^.!?,;:]', '', 'g')) AS n_pun
              FROM documents WHERE text IS NOT NULL)
            WHERE n_tok >= 5 AND n_chr >= 30
              AND n_pun * 5 <= n_tok AND n_chr <= 40 * n_tok""",

        "token_count_bpe": f"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '{_BPE_PATTERN}'))
                     AS n_pretokens
            FROM documents WHERE text IS NOT NULL""",

        "doc_quality": """
            SELECT doc_id,
                   len(string_split(text, ' ')) AS n_tokens,
                   length(text) AS n_chars_m,
                   length(regexp_replace(text, '[^.!?,;:]', '', 'g')) AS n_punct,
                   length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper
            FROM documents WHERE text IS NOT NULL""",

        "lang_id": _lang_id_sql(),

        "ann_lsh_topk": _ann_lsh_sql(sf_dir),

        "knn_join": _knn_join_sql(sf_dir),

        "ann_cosine_topk": """
            SELECT vec_id FROM (
              SELECT vec_id,
                     list_cosine_similarity(embedding,
                        (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS score
              FROM embeddings WHERE vec_id <> 0)
            ORDER BY score DESC, vec_id LIMIT 10""",

        "ann_multi_topk": """
            SELECT q_idx, vec_id FROM (
              SELECT q.vec_id AS q_idx, e.vec_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(e.embedding,
                                                       q.embedding) DESC,
                                e.vec_id) AS rn
              FROM embeddings e, embeddings q
              WHERE q.vec_id IN (0, 1, 2)
                AND e.vec_id NOT IN (0, 1, 2))
            WHERE rn <= 10""",

        "cust_no_orders": f"""
            SELECT c_custkey FROM customer
            WHERE c_custkey NOT IN
                  (SELECT o_custkey FROM orders
                   WHERE o_custkey IS NOT NULL
                     AND o_orderdate >= TIMESTAMP '{_LAPSED_CUT}')""",

        "ewma_value": """
            WITH RECURSIVE ranked AS (
              SELECT event_id, user_id,
                     CAST(FLOOR(value * 100.0) AS BIGINT) AS cents,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events
              WHERE value IS NOT NULL AND user_id IS NOT NULL
                    AND ts IS NOT NULL
            ), s AS (
              SELECT event_id, user_id, rn, cents AS y
              FROM ranked WHERE rn = 1
              UNION ALL
              -- floor division for any sign: DuckDB // truncates,
              -- so subtract the nonnegative modulus first
              SELECT r.event_id, r.user_id, r.rn,
                     (r.cents + 3 * s.y
                      - (((r.cents + 3 * s.y) % 4) + 4) % 4) // 4
              FROM ranked r JOIN s
                   ON r.user_id = s.user_id AND r.rn = s.rn + 1
            )
            SELECT event_id, y AS ewma_cents FROM s""",

        "order_segments": """
            SELECT c.c_custkey, c.c_mktsegment,
                   o.o_orderkey, o.o_totalprice
            FROM customer c JOIN orders o
                 ON o.o_custkey = c.c_custkey""",

        "price_qty_corr": """
            WITH m AS (
              SELECT l_partkey, count(*) AS n,
                     SUM(l_quantity) AS sx, SUM(l_extendedprice) AS sy,
                     SUM(l_quantity * l_quantity) AS sxx,
                     SUM(l_extendedprice * l_extendedprice) AS syy,
                     SUM(l_quantity * l_extendedprice) AS sxy
              FROM lineitem GROUP BY l_partkey
            )
            SELECT l_partkey,
                   ROUND((sxy - sx * sy / n)
                         / SQRT((sxx - sx * sx / n)
                                * (syy - sy * sy / n)), 6) AS corr_qp
            FROM m
            WHERE n >= 2 AND (sxx - sx * sx / n) > 0
                  AND (syy - sy * sy / n) > 0""",
        "zscore_events": """
            WITH m AS (
              SELECT user_id, count(*) AS n, SUM(value) AS s,
                     SUM(value * value) AS ss
              FROM events GROUP BY user_id
            )
            SELECT e.event_id,
                   CASE WHEN (m.ss - m.s * m.s / m.n) / (m.n - 1) > 0
                        THEN ROUND((e.value - m.s / m.n)
                             / SQRT((m.ss - m.s * m.s / m.n)
                                    / (m.n - 1)), 6)
                        END AS z
            FROM events e JOIN m USING (user_id)
            WHERE m.n > 1""",

        "sessionize": """
            SELECT user_id, count(*) AS n_events,
                   CAST(SUM(CASE WHEN prev_ts IS NULL OR ts - prev_ts > INTERVAL 1800 SECOND
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM (SELECT user_id, ts,
                         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
                  FROM events WHERE ts IS NOT NULL)
            GROUP BY user_id""",

        "props_extract": """
            SELECT event_id,
                   CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT) AS k
            FROM events""",

        "asof_prior": """
            SELECT a.event_id, b.value AS prior_value
            FROM (SELECT * FROM events WHERE event_type = 'click') a
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') b
              ON a.user_id = b.user_id AND a.ts > b.ts""",

        "window_distinct": """
            SELECT make_timestamp((epoch_us(ts) // 3600000000)
                                  * 3600000000) AS window_start,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events WHERE ts IS NOT NULL GROUP BY 1""",

        "event_seq": """
            SELECT event_id,
                   CAST(row_number() OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                        AS BIGINT) AS seq
            FROM events WHERE ts IS NOT NULL""",

        "sft_pairs": f"""
            WITH t AS (
              SELECT conv_id, turn_idx, role, text FROM {TP} WHERE {VALID}
            ), m AS (
              SELECT conv_id, turn_idx, role, text,
                     MAX(CASE WHEN role = 'user' THEN turn_idx END) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS pidx
              FROM t)
            SELECT m.conv_id, m.turn_idx, u.text AS prompt,
                   m.text AS response
            FROM m JOIN t u
              ON u.conv_id = m.conv_id AND u.turn_idx = m.pidx
            WHERE m.role = 'assistant' AND m.pidx IS NOT NULL""",

        "context_windows": f"""
            SELECT conv_id, turn_idx, context, response FROM (
              SELECT conv_id, turn_idx, role, text AS response,
                     right(string_agg(coalesce(role, '') || ': ' ||
                                      coalesce(text, ''), chr(10)) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       {CONTEXT_BUDGET_CHARS}) AS context
              FROM {TP} WHERE {VALID})
            WHERE role = 'assistant'""",

        "tool_loops": f"""
            WITH t AS (
              SELECT conv_id, turn_idx, tool FROM {TP}
              WHERE {VALID} AND tool IS NOT NULL AND tool <> ''
            ), s AS (
              SELECT conv_id, tool,
                     row_number() OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx)
                   - row_number() OVER (PARTITION BY conv_id, tool
                                        ORDER BY turn_idx) AS grp
              FROM t
            ), runs AS (
              SELECT conv_id, count(*) AS run_len
              FROM s GROUP BY conv_id, tool, grp)
            SELECT conv_id, CAST(max(run_len) AS BIGINT) AS max_run
            FROM runs GROUP BY conv_id""",

        "conv_stats": f"""
            SELECT conv_id, count(*) AS n_turns,
                   CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_assistant,
                   CAST(SUM(CASE WHEN tool IS NOT NULL AND tool <> ''
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_tool_calls,
                   CAST(COALESCE(SUM(length(text)), 0) AS BIGINT) AS n_chars,
                   CAST(datediff('microsecond', min(ts), max(ts))
                        AS BIGINT) AS dur_us
            FROM {TP} WHERE {VALID} GROUP BY conv_id""",

        "conv_text": f"""
            SELECT conv_id, count(*) AS n_turns,
                   string_agg(COALESCE(text, ''), chr(10)
                              ORDER BY turn_idx) AS doc
            FROM {TP} WHERE {VALID} GROUP BY conv_id""",

        "turn_latency": f"""
            WITH t AS (
              SELECT conv_id, turn_idx, role, ts FROM {TP} WHERE {VALID}
            ), m AS (
              SELECT conv_id, turn_idx, role, ts,
                     MAX(CASE WHEN role = 'user' THEN turn_idx END) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS pidx
              FROM t)
            SELECT m.conv_id, m.turn_idx,
                   CAST(datediff('microsecond', u.ts, m.ts) AS BIGINT)
                     AS latency_us
            FROM m JOIN t u
              ON u.conv_id = m.conv_id AND u.turn_idx = m.pidx
            WHERE m.role = 'assistant' AND m.pidx IS NOT NULL""",

        "tool_transitions": f"""
            WITH f AS (
              SELECT conv_id, turn_idx, tool FROM {TP}
              WHERE {VALID} AND tool IS NOT NULL AND tool <> ''
            ), l AS (
              SELECT tool,
                     LAG(tool) OVER (PARTITION BY conv_id
                                     ORDER BY turn_idx) AS prev
              FROM f)
            SELECT prev AS from_tool, tool AS to_tool, count(*) AS n
            FROM l WHERE prev IS NOT NULL GROUP BY prev, tool""",

        "tool_trigrams": f"""
            WITH f AS (
              SELECT conv_id, turn_idx, tool FROM {TP}
              WHERE {VALID} AND tool IS NOT NULL AND tool <> ''
            ), l AS (
              SELECT tool,
                     LAG(tool, 1) OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx) AS p1,
                     LAG(tool, 2) OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx) AS p2
              FROM f)
            SELECT p2 AS t1, p1 AS t2, tool AS t3, count(*) AS n
            FROM l WHERE p2 IS NOT NULL GROUP BY p2, p1, tool""",

        "tool_paths": f"""
            WITH f AS (
              SELECT conv_id, turn_idx, tool FROM {TP}
              WHERE {VALID} AND tool IS NOT NULL AND tool <> ''
            ), p AS (
              SELECT conv_id,
                     string_agg(tool, '->' ORDER BY turn_idx) AS path
              FROM f GROUP BY conv_id)
            SELECT path, count(*) AS n_convs FROM p GROUP BY path""",

        "assistant_templates": f"""
            SELECT text, n FROM (
              SELECT text, count(*) AS n FROM {TP}
              WHERE {VALID} AND role = 'assistant'
                AND text IS NOT NULL AND text <> ''
              GROUP BY text)
            ORDER BY n DESC, text LIMIT 20""",

        "ooo_turns": f"""
            WITH f AS (
              SELECT conv_id, turn_idx, ts FROM {TP}
              WHERE {VALID} AND ts IS NOT NULL
            ), w AS (
              SELECT conv_id,
                     CASE WHEN ts < max(ts) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING)
                          THEN 1 ELSE 0 END AS ooo
              FROM f)
            SELECT conv_id, CAST(sum(ooo) AS BIGINT) AS n_ooo
            FROM w GROUP BY conv_id""",

        "conv_dedup": f"""
            WITH c AS (
              SELECT conv_id,
                     string_agg(COALESCE(role, '') || ':' ||
                                COALESCE(text, ''), chr(10)
                                ORDER BY turn_idx) AS full_text
              FROM {TP} WHERE {VALID} GROUP BY conv_id)
            SELECT min(conv_id) AS conv_id FROM c GROUP BY full_text""",

        # fork_dedup oracle: cumulative string_agg prefixes + equi-
        # join on the prefix STRING, equivalent to the engine's
        # chained-md5 prefix fingerprints as long as text/role never
        # contain the chr(31) separator (verified for the synthetic
        # corpus; the engine's chaining is boundary-unambiguous
        # regardless).  An exact recursive-CTE chain replica was
        # measured at 289 s on sf0.01 vs ~1 s for this form.
        "fork_dedup": f"""
            WITH p AS (
              SELECT conv_id,
                     string_agg(piece, chr(31)) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS UNBOUNDED PRECEDING) AS pref,
                     row_number() OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx) AS rn,
                     count(*) OVER (PARTITION BY conv_id) AS n_turns
              FROM (SELECT conv_id, turn_idx,
                           COALESCE(role, '') || ':' ||
                           COALESCE(text, '') AS piece
                    FROM {TP} WHERE {VALID})),
            fulls AS (
              SELECT conv_id, pref, n_turns FROM p WHERE rn = n_turns),
            dups AS (
              SELECT DISTINCT f.conv_id FROM fulls f
              JOIN p c ON c.pref = f.pref AND c.conv_id <> f.conv_id
              WHERE c.n_turns > f.n_turns
                 OR (c.n_turns = f.n_turns AND c.conv_id < f.conv_id))
            SELECT conv_id FROM fulls
            WHERE conv_id NOT IN (SELECT conv_id FROM dups)""",

        "cum_chars": f"""
            SELECT conv_id, turn_idx,
                   CAST(SUM(COALESCE(length(text), 0)) OVER (
                     PARTITION BY conv_id ORDER BY turn_idx
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS BIGINT) AS cum_chars
            FROM {TP} WHERE {VALID}""",

        "role_length_quantiles": f"""
            WITH t AS (
              SELECT role, length(text) AS len FROM {TP}
              WHERE {VALID} AND role IS NOT NULL AND text IS NOT NULL)
            SELECT role, CAST(0.5 AS DOUBLE) AS q,
                   CAST(quantile_disc(len, 0.5) AS BIGINT) AS value
            FROM t GROUP BY role
            UNION ALL
            SELECT role, CAST(0.9 AS DOUBLE) AS q,
                   CAST(quantile_disc(len, 0.9) AS BIGINT) AS value
            FROM t GROUP BY role""",

        "top_tool_per_conv": f"""
            WITH c AS (
              SELECT conv_id, tool, count(*) AS n FROM {TP}
              WHERE {VALID} AND tool IS NOT NULL AND tool <> ''
              GROUP BY conv_id, tool
            ), r AS (
              SELECT conv_id, tool, n,
                     ROW_NUMBER() OVER (PARTITION BY conv_id
                                        ORDER BY n DESC, tool ASC) AS rn
              FROM c)
            SELECT conv_id, tool AS top_tool, CAST(n AS BIGINT) AS n
            FROM r WHERE rn = 1""",

        "rollup_counts": f"""
            SELECT role, tool, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT COALESCE(role, '') AS role,
                         COALESCE(tool, '') AS tool
                  FROM {TP} WHERE {VALID})
            GROUP BY ROLLUP(role, tool)""",

        "role_violations": f"""
            WITH l AS (
              SELECT conv_id, role,
                     LAG(role) OVER (PARTITION BY conv_id
                                     ORDER BY turn_idx) AS prev
              FROM {TP} WHERE {VALID})
            SELECT conv_id,
                   CAST(SUM(CASE WHEN role = prev THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_violations
            FROM l GROUP BY conv_id""",

        "role_repair": f"""
            WITH l AS (
              SELECT conv_id, turn_idx, role,
                     LAG(COALESCE(role, '')) OVER (
                         PARTITION BY conv_id ORDER BY turn_idx) AS prev
              FROM {TP} WHERE {VALID})
            SELECT conv_id, turn_idx, role FROM l
            WHERE prev IS NULL OR COALESCE(role, '') <> prev""",

        "role_merge": f"""
            WITH l AS (
              SELECT conv_id, turn_idx, role, text,
                     CASE WHEN LAG(COALESCE(role, '')) OVER (
                              PARTITION BY conv_id ORDER BY turn_idx)
                              IS DISTINCT FROM COALESCE(role, '')
                          THEN 1 ELSE 0 END AS brk
              FROM {TP} WHERE {VALID}),
            r AS (
              SELECT conv_id, turn_idx, role, text,
                     SUM(brk) OVER (PARTITION BY conv_id
                                    ORDER BY turn_idx) AS run_id
              FROM l)
            SELECT conv_id,
                   CAST(MIN(turn_idx) AS INTEGER) AS turn_idx,
                   MIN(COALESCE(role, '')) AS role,
                   string_agg(COALESCE(text, ''), chr(10)
                              ORDER BY turn_idx) AS text,
                   count(*) AS n_merged
            FROM r GROUP BY conv_id, run_id""",

        "tumbling_counts": """
            SELECT user_id,
                   make_timestamp((epoch_us(ts) // 3600000000) * 3600000000)
                     AS window_start,
                   count(*) AS n
            FROM events WHERE ts IS NOT NULL GROUP BY 1, 2""",

        "sliding_counts": """
            SELECT user_id,
                   make_timestamp(w * 900000000) AS window_start,
                   count(*) AS n
            FROM (SELECT user_id,
                         UNNEST(range((epoch_us(ts) - 3600000000) // 900000000 + 1,
                                      epoch_us(ts) // 900000000 + 1)) AS w
                  FROM events WHERE ts IS NOT NULL)
            GROUP BY 1, 2""",

        "priority_semi": f"""
            SELECT o_orderpriority, COUNT(*) AS n_orders
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_shipdate >= TIMESTAMP '{_SEMI_LO}'
                            AND l.l_shipdate < TIMESTAMP '{_SEMI_HI}')
            GROUP BY 1""",

        "source_overlap": """
            SELECT d1.source AS src_a, d2.source AS src_b,
                   COUNT(*) AS n_pairs
            FROM documents d1 JOIN documents d2
              ON substr(d1.text, 1, 64) = substr(d2.text, 1, 64)
             AND (d1.source < d2.source
                  OR (d1.source = d2.source
                      AND d1.doc_id < d2.doc_id))
            WHERE d1.text IS NOT NULL AND d1.source IS NOT NULL
            GROUP BY 1, 2""",

        "sorted_export": """
            SELECT CASE WHEN n_chars < 150 THEN 0
                        WHEN n_chars < 250 THEN 1
                        WHEN n_chars < 350 THEN 2
                        WHEN n_chars < 450 THEN 3
                        ELSE 4 END AS shard_id,
                   COUNT(*) AS n_rows,
                   CAST(MIN(n_chars) AS BIGINT) AS min_v,
                   CAST(MAX(n_chars) AS BIGINT) AS max_v
            FROM documents WHERE n_chars IS NOT NULL
            GROUP BY 1""",

        "drift_terms": f"""
            WITH c AS (
              SELECT event_type,
                     CAST(ts >= TIMESTAMP '{_DRIFT_CUT}' AS INT) AS late,
                     CAST(FLOOR(FLOOR(value * 100.0) / 5000.0)
                          AS BIGINT) AS bin
              FROM events
              WHERE value IS NOT NULL AND ts IS NOT NULL
                    AND event_type IS NOT NULL
            ), n AS (
              SELECT event_type, late, bin, COUNT(*) AS n
              FROM c GROUP BY 1, 2, 3
            ), tot AS (
              SELECT event_type, late, SUM(n) AS t FROM n GROUP BY 1, 2
            ), bins AS (
              SELECT DISTINCT event_type, bin FROM n
            ), pq AS (
              SELECT b.event_type, b.bin,
                     COALESCE(ne.n, 0) / CAST(te.t AS DOUBLE) AS p,
                     COALESCE(nl.n, 0) / CAST(tl.t AS DOUBLE) AS q
              FROM bins b
              JOIN tot te ON te.event_type = b.event_type
                             AND te.late = 0
              JOIN tot tl ON tl.event_type = b.event_type
                             AND tl.late = 1
              LEFT JOIN n ne ON ne.event_type = b.event_type
                                AND ne.bin = b.bin AND ne.late = 0
              LEFT JOIN n nl ON nl.event_type = b.event_type
                                AND nl.bin = b.bin AND nl.late = 1
            )
            SELECT event_type, bin, p AS p_early, q AS p_late,
                   CASE WHEN p + q > 0
                        THEN (p - q) * (p - q) / (p + q)
                        ELSE 0.0 END AS drift_term
            FROM pq""",

        "mad_outliers": """
            WITH c AS (
              SELECT event_id, user_id,
                     CAST(FLOOR(value * 100.0) AS BIGINT) AS cents
              FROM events
              WHERE value IS NOT NULL AND user_id IS NOT NULL
            ), med AS (
              SELECT user_id, quantile_disc(cents, 0.5) AS m
              FROM c GROUP BY user_id
            ), dev AS (
              SELECT c.event_id, c.user_id,
                     ABS(c.cents - med.m) AS d
              FROM c JOIN med USING (user_id)
            ), mad AS (
              SELECT user_id, quantile_disc(d, 0.5) AS md
              FROM dev GROUP BY user_id
            )
            SELECT dev.event_id,
                   CAST(dev.d > 5 * mad.md AS BIGINT) AS is_outlier
            FROM dev JOIN mad USING (user_id)""",

        "events_profile": """
            SELECT 'event_id' AS col, COUNT(*) AS n_rows,
                   COUNT(*) - COUNT(event_id) AS n_null,
                   CAST(MIN(event_id) AS DOUBLE) AS min_v,
                   CAST(MAX(event_id) AS DOUBLE) AS max_v FROM events
            UNION ALL
            SELECT 'ts', COUNT(*), COUNT(*) - COUNT(ts),
                   CAST(MIN(epoch_us(ts)) AS DOUBLE),
                   CAST(MAX(epoch_us(ts)) AS DOUBLE) FROM events
            UNION ALL
            SELECT 'user_id', COUNT(*), COUNT(*) - COUNT(user_id),
                   CAST(MIN(user_id) AS DOUBLE),
                   CAST(MAX(user_id) AS DOUBLE) FROM events
            UNION ALL
            SELECT 'event_type', COUNT(*),
                   COUNT(*) - COUNT(event_type),
                   CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
            FROM events
            UNION ALL
            SELECT 'value', COUNT(*), COUNT(*) - COUNT(value),
                   MIN(value), MAX(value) FROM events
            UNION ALL
            SELECT 'props', COUNT(*), COUNT(*) - COUNT(props),
                   CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
            FROM events""",

        "sliding_distinct": """
            SELECT make_timestamp(w * 900000000) AS window_start,
                   count(DISTINCT user_id) AS n_distinct
            FROM (SELECT user_id,
                         UNNEST(range((epoch_us(ts) - 3600000000) // 900000000 + 1,
                                      epoch_us(ts) // 900000000 + 1)) AS w
                  FROM events
                  WHERE ts IS NOT NULL AND user_id IS NOT NULL)
            GROUP BY 1""",

        "rolling_window": """
            SELECT event_id,
                   CAST(sum(cents) OVER w AS BIGINT) AS roll_sum,
                   CAST(sum(cents) OVER w AS DOUBLE) /
                     CAST(count(*) OVER w AS DOUBLE) AS roll_mean
            FROM (SELECT event_id, user_id, ts,
                         CAST(floor(value * 100) AS BIGINT) AS cents
                  FROM events WHERE value IS NOT NULL)
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)""",

        "value_deltas": """
            SELECT event_id,
                   cents - LAG(cents) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)
                     AS delta_cents
            FROM (SELECT event_id, user_id, ts,
                         CAST(floor(value * 100) AS BIGINT) AS cents
                  FROM events WHERE value IS NOT NULL)""",

        "order_fill": f"""
            SELECT o.o_orderkey, o.o_orderpriority,
                   s.qty AS shipped_qty
            FROM orders o LEFT JOIN (
              SELECT l_orderkey,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty
              FROM lineitem WHERE l_shipdate >= '{_FILL_LO}'
              GROUP BY l_orderkey) s
            ON o.o_orderkey = s.l_orderkey
            WHERE o.o_orderdate >= '{_FILL_LO}'
              AND o.o_orderdate < '{_FILL_HI}'""",

        "order_fill_outer": f"""
            SELECT COALESCE(o.o_orderkey, s.l_orderkey) AS o_orderkey,
                   o.o_orderpriority, s.qty AS shipped_qty
            FROM (SELECT o_orderkey, o_orderpriority FROM orders
                  WHERE o_orderdate >= '{_FILL_LO}'
                    AND o_orderdate < '{_FILL_HI}') o
            FULL OUTER JOIN (
              SELECT l_orderkey,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty
              FROM lineitem WHERE l_shipdate >= '{_FILL_LO}'
              GROUP BY l_orderkey) s
            ON o.o_orderkey = s.l_orderkey""",

        "user_features": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_view,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_error
            FROM events GROUP BY user_id""",

        "order_lines": f"""
            SELECT o.o_orderkey, o.o_orderpriority,
                   l.l_linenumber,
                   CAST(l.l_quantity AS BIGINT) AS qty
            FROM orders o JOIN lineitem l
              ON o.o_orderkey = l.l_orderkey
            WHERE o.o_orderdate >= '{_FILL_LO}'
              AND o.o_orderdate < '{_FILL_HI}'""",

        "sample_per_source": """
            SELECT doc_id, source FROM (
              SELECT doc_id, source,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                                doc_id) AS rn
              FROM documents) WHERE rn <= 3""",

        "topk_per_user": """
            SELECT event_id, user_id, value FROM (
              SELECT event_id, user_id, value,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rn
              FROM events) WHERE rn <= 2""",

        "distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type""",

        "events_agg": """
            SELECT event_type, count(*) AS n,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY event_type""",

        "funnel_counts": f"""
            WITH t1 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = '{_FUNNEL_STEPS[0]}'
                AND ts IS NOT NULL AND user_id IS NOT NULL
              GROUP BY user_id),
            t2 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN t1 ON e.user_id = t1.user_id
              WHERE e.event_type = '{_FUNNEL_STEPS[1]}'
                AND e.ts IS NOT NULL AND e.ts > t1.t
              GROUP BY e.user_id),
            t3 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN t2 ON e.user_id = t2.user_id
              WHERE e.event_type = '{_FUNNEL_STEPS[2]}'
                AND e.ts IS NOT NULL AND e.ts > t2.t
              GROUP BY e.user_id)
            SELECT CAST(1 AS BIGINT) AS step,
                   '{_FUNNEL_STEPS[0]}' AS event_type,
                   CAST(count(*) AS BIGINT) AS n_users FROM t1
            UNION ALL
            SELECT CAST(2 AS BIGINT), '{_FUNNEL_STEPS[1]}',
                   CAST(count(*) AS BIGINT) FROM t2
            UNION ALL
            SELECT CAST(3 AS BIGINT), '{_FUNNEL_STEPS[2]}',
                   CAST(count(*) AS BIGINT) FROM t3""",

        "funnel_window": f"""
            WITH t1 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = '{_FUNNEL_STEPS[0]}'
                AND ts IS NOT NULL AND user_id IS NOT NULL
              GROUP BY user_id),
            t2 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN t1 ON e.user_id = t1.user_id
              WHERE e.event_type = '{_FUNNEL_STEPS[1]}'
                AND e.ts IS NOT NULL AND e.ts > t1.t
                AND e.ts <= t1.t + INTERVAL {_FUNNEL_WINDOW_S} SECOND
              GROUP BY e.user_id),
            t3 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN t2 ON e.user_id = t2.user_id
              WHERE e.event_type = '{_FUNNEL_STEPS[2]}'
                AND e.ts IS NOT NULL AND e.ts > t2.t
                AND e.ts <= t2.t + INTERVAL {_FUNNEL_WINDOW_S} SECOND
              GROUP BY e.user_id)
            SELECT CAST(1 AS BIGINT) AS step,
                   '{_FUNNEL_STEPS[0]}' AS event_type,
                   CAST(count(*) AS BIGINT) AS n_users FROM t1
            UNION ALL
            SELECT CAST(2 AS BIGINT), '{_FUNNEL_STEPS[1]}',
                   CAST(count(*) AS BIGINT) FROM t2
            UNION ALL
            SELECT CAST(3 AS BIGINT), '{_FUNNEL_STEPS[2]}',
                   CAST(count(*) AS BIGINT) FROM t3""",

        "retention": """
            WITH a AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS d
              FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL),
            f AS (SELECT user_id, min(d) AS d0 FROM a GROUP BY user_id)
            SELECT make_timestamp(f.d0 * 86400000000) AS cohort_day,
                   CAST(a.d - f.d0 AS BIGINT) AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM a JOIN f ON a.user_id = f.user_id
            GROUP BY 1, 2""",

        "session_ids": """
            SELECT event_id,
                   CAST(SUM(CASE WHEN prev_ts IS NULL
                                 OR ts - prev_ts > INTERVAL 1800 SECOND
                            THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS session_seq
            FROM (SELECT user_id, event_id, ts,
                         lag(ts) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev_ts
                  FROM events WHERE ts IS NOT NULL)""",

        "quantize_embeddings": """
            WITH s AS (
              SELECT CAST(min(u) AS DOUBLE) AS gmin,
                     CAST(max(u) AS DOUBLE) AS gmax
              FROM (SELECT unnest(embedding) AS u FROM embeddings))
            SELECT vec_id,
                   CAST(list_sum(list_transform(embedding,
                     x -> CAST(floor((CAST(x AS DOUBLE) - s.gmin) * 255.0
                                     / (s.gmax - s.gmin)) AS BIGINT)))
                        AS BIGINT) AS q_sum,
                   CAST(list_sum(list_transform(list_transform(embedding,
                     x -> CAST(floor((CAST(x AS DOUBLE) - s.gmin) * 255.0
                                     / (s.gmax - s.gmin)) AS BIGINT)),
                     q -> q * q)) AS BIGINT) AS q_l2
            FROM embeddings, s""",

        "hard_negatives": f"""
            SELECT q_idx, vec_id FROM (
              SELECT q.rn - 1 AS q_idx, e.vec_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(e.embedding,
                                                       q.embedding) DESC,
                                e.vec_id) AS rn
              FROM embeddings e,
                   (SELECT *, row_number() OVER (ORDER BY vec_id) AS rn
                    FROM embeddings
                    WHERE vec_id IN ({', '.join(map(str, _HARDNEG_QIDS))})) q
              WHERE e.vec_id NOT IN ({', '.join(map(str, _HARDNEG_QIDS))})
                AND e.label <> q.label)
            WHERE rn <= 10""",

        "export_tar": f"""
            WITH t AS (
              SELECT doc_id,
                     octet_length(encode(COALESCE(text, ''))) AS nb
              FROM documents
            ), c AS (
              SELECT doc_id, nb,
                     COALESCE(SUM(nb) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS cumb
              FROM t
            )
            SELECT CAST(cumb // {_TAR_CAP} AS BIGINT) AS shard_id,
                   count(*) AS n_docs,
                   CAST(SUM(nb) AS BIGINT) AS n_bytes
            FROM c GROUP BY 1""",

        "approx_quantiles": f"""
            WITH s AS (
              SELECT value FROM events
              WHERE value IS NOT NULL
                AND md5_number_lower('aq:' || CAST(event_id AS VARCHAR))
                    % 1000 < 100
            ), agg AS (
              SELECT quantile_disc(value, {_AQ_QS}) AS vs FROM s)
            SELECT CAST({_AQ_QS}[i] AS DOUBLE) AS q, vs[i] AS value
            FROM agg, UNNEST(range(1, {len(_AQ_QS) + 1})) AS t(i)""",

        "interval_join": f"""
            SELECT l.event_id, r.event_id AS anchor_id
            FROM (SELECT * FROM events WHERE event_type = 'click') l
            JOIN (SELECT * FROM events WHERE event_type = 'purchase') r
              ON l.user_id = r.user_id
             AND l.ts BETWEEN r.ts - INTERVAL {_IVL_WINDOW_S} SECOND
                          AND r.ts""",

        "media_decode": _media_decode_sql(),

        "media_audit": _media_audit_sql(),

        # planted payload-dup mapping (id % 400) + dense doc ids make
        # the min-id-per-payload-group survivors analytic
        "media_dedup": """
            SELECT doc_id FROM documents WHERE doc_id < 400""",

        "media_resize": _media_resize_sql(),

        "media_pixstats": _media_pixstats_sql(),

        "audio_stats": _audio_stats_sql(),

        "frame_stats": _frame_stats_sql(),

        "audio_resample": _audio_resample_sql(),

        **_golden_dedup_sql(sf_dir),
    }


RAY_QUERIES = {
    "clean_project": q_clean_project,
    "parse_flags": q_parse_flags,
    "membership_flags": q_membership_flags,
    "enrich_meta": q_enrich_meta,
    "geo_enrich": q_geo_enrich,
    "route_counts": q_route_counts,
    "watermark": q_watermark,
    "watermark_salted": q_watermark_salted,
    "repeat_visit": q_repeat_visit,
    "harvest_sink_counts": q_harvest_sink_counts,
    "dedup_exact": q_dedup_exact,
    "doc_fingerprint": q_doc_fingerprint,
    "token_count": q_token_count,
    "token_count_bpe": q_token_count_bpe,
    "vocab_df": q_vocab_df,
    "bpe_vocab": q_bpe_vocab,
    "bpe_encode": q_bpe_encode,
    "lm_score": q_lm_score,
    "cluster_sample": q_cluster_sample,
    "compress_ratio": q_compress_ratio,
    "stratified_sample": q_stratified_sample,
    "ngram_decontaminate": q_ngram_decontaminate,
    "bloom_decontam": q_bloom_decontam,
    "semantic_decontam": q_semantic_decontam,
    "doc_repetition": q_doc_repetition,
    "length_quantiles": q_length_quantiles,
    "quality_buckets": q_quality_buckets,
    "pii_redact": q_pii_redact,
    "dup_ngram_stats": q_dup_ngram_stats,
    "distinctive_terms": q_distinctive_terms,
    "sample_docs": q_sample_docs,
    "exact_sample": q_exact_sample,
    "percent_rank": q_percent_rank,
    "embedding_outliers": q_embedding_outliers,
    "train_split": q_train_split,
    "shuffle_shards": q_shuffle_shards,
    "source_stats": q_source_stats,
    "quality_filter": q_quality_filter,
    "ann_ivf_topk": q_ann_ivf_topk,
    "doc_quality": q_doc_quality,
    "lang_id": q_lang_id,
    "ann_cosine_topk": q_ann_cosine_topk,
    "ann_multi_topk": q_ann_multi_topk,
    "ann_lsh_topk": q_ann_lsh_topk,
    "knn_join": q_knn_join,
    "dedup_minhash": q_dedup_minhash,
    "dedup_simhash": q_dedup_simhash,
    "dedup_simhash_near": q_dedup_simhash_near,
    "dedup_ngram": q_dedup_ngram,
    "dedup_embedding": q_dedup_embedding,
    "semantic_dedup": q_semantic_dedup,
    "dedup_clusters": q_dedup_clusters,
    "dedup_keep_best": q_dedup_keep_best,
    "kmeans_clusters": q_kmeans_clusters,
    "pca_project": q_pca_project,
    "bm25_topk": q_bm25_topk,
    "doc_entropy": q_doc_entropy,
    "pca_ann_topk": q_pca_ann_topk,
    "length_trim": q_length_trim,
    "heavy_tokens": q_heavy_tokens,
    "incremental_dedup": q_incremental_dedup,
    "strip_dup_spans": q_strip_dup_spans,
    "weighted_sample": q_weighted_sample,
    "media_summary": q_media_summary,
    "organize_embeddings": q_organize_embeddings,
    "mixture_sample": q_mixture_sample,
    "temperature_mix": q_temperature_mix,
    "pack_shards": q_pack_shards,
    "top_orders": q_top_orders,
    "big_orders": q_big_orders,
    "pricing_summary": q_pricing_summary,
    "regional_revenue": q_regional_revenue,
    "snapshot_merge": q_snapshot_merge,
    "cust_no_orders": q_cust_no_orders,
    "zscore_events": q_zscore_events,
    "price_qty_corr": q_price_qty_corr,
    "window_distinct": q_window_distinct,
    "event_seq": q_event_seq,
    "sft_pairs": q_sft_pairs,
    "context_windows": q_context_windows,
    "tool_loops": q_tool_loops,
    "conv_stats": q_conv_stats,
    "conv_text": q_conv_text,
    "role_violations": q_role_violations,
    "role_repair": q_role_repair,
    "role_merge": q_role_merge,
    "dedup_diff": q_dedup_diff,
    "turn_latency": q_turn_latency,
    "tool_transitions": q_tool_transitions,
    "tool_trigrams": q_tool_trigrams,
    "tool_paths": q_tool_paths,
    "ooo_turns": q_ooo_turns,
    "assistant_templates": q_assistant_templates,
    "conv_dedup": q_conv_dedup,
    "fork_dedup": q_fork_dedup,
    "cum_chars": q_cum_chars,
    "role_length_quantiles": q_role_length_quantiles,
    "top_tool_per_conv": q_top_tool_per_conv,
    "rollup_counts": q_rollup_counts,
    "normalize_text": q_normalize_text,
    "line_dedup": q_line_dedup,
    "token_rarity": q_token_rarity,
    "chunk_tokens": q_chunk_tokens,
    "curate_corpus": q_curate_corpus,
    "sessionize": q_sessionize,
    "events_agg": q_events_agg,
    "props_extract": q_props_extract,
    "asof_prior": q_asof_prior,
    "tumbling_counts": q_tumbling_counts,
    "rolling_window": q_rolling_window,
    "gapfill_daily": q_gapfill_daily,
    "locf_fill": q_locf_fill,
    "winsorize": q_winsorize,
    "value_deltas": q_value_deltas,
    "order_fill": q_order_fill,
    "order_fill_outer": q_order_fill_outer,
    "order_lines": q_order_lines,
    "order_segments": q_order_segments,
    "ewma_value": q_ewma_value,
    "sliding_distinct": q_sliding_distinct,
    "events_profile": q_events_profile,
    "mad_outliers": q_mad_outliers,
    "drift_terms": q_drift_terms,
    "sorted_export": q_sorted_export,
    "source_overlap": q_source_overlap,
    "ann_pq_topk": q_ann_pq_topk,
    "ann_ivfpq_topk": q_ann_ivfpq_topk,
    "priority_semi": q_priority_semi,
    "user_features": q_user_features,
    "sliding_counts": q_sliding_counts,
    "sample_per_source": q_sample_per_source,
    "topk_per_user": q_topk_per_user,
    "distinct_users": q_distinct_users,
    "approx_distinct_users": q_approx_distinct_users,
    "media_decode": q_media_decode,
    "media_audit": q_media_audit,
    "media_dedup": q_media_dedup,
    "media_resize": q_media_resize,
    "media_pixstats": q_media_pixstats,
    "audio_stats": q_audio_stats,
    "media_embed_knn": q_media_embed_knn,
    "frame_stats": q_frame_stats,
    "audio_resample": q_audio_resample,
    "ann_ivf_day2": q_ann_ivf_day2,
    "funnel_counts": q_funnel_counts,
    "funnel_window": q_funnel_window,
    "retention": q_retention,
    "session_ids": q_session_ids,
    "quantize_embeddings": q_quantize_embeddings,
    "hard_negatives": q_hard_negatives,
    "interval_join": q_interval_join,
    "approx_quantiles": q_approx_quantiles,
    "export_tar": q_export_tar,
    "incremental_minhash": q_incremental_minhash,
}
