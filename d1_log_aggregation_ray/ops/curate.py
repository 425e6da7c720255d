"""End-to-end corpus curation: normalize -> quality gate ->
benchmark decontamination -> exact dedup -> token-window chunking,
composed as ONE Ray Data pipeline emitting training-ready chunks.

The flagship composition of the curation operator family — the
pipeline a user runs nightly over the raw corpus.  Reference analog:
the full harvest DAG (LogHarvesterTask.java parse -> enrich -> filter
-> publish), re-targeted at document curation.

Scale shape (100 TB corpus):
  - Stages 1-3 (normalize, quality predicate, contamination filter)
    are MAP-ONLY: they fuse with the parquet read and stream; the
    benchmark gram set is built with one distributed distinct pass
    over the (small) benchmark slice and ray.put-broadcast, exactly
    the decontam operator's shape.
  - Stage 4 (exact dedup keep-min-id) is the pipeline's ONE all-to-all
    exchange, keyed on the fixed 16-byte md5 of the normalized text —
    the surviving text rides this exchange because every downstream
    stage needs it anyway (re-joining text by id afterwards would be a
    SECOND full-corpus shuffle).  Within a group the text is identical
    by construction (128-bit md5 == text equality at any realistic
    corpus size), so `min` aggregates pick the survivor row without a
    partition scan.
  - Stage 5 (chunking) is a pure flat-map over the survivors.
  - Filters run BEFORE the exchange, so the shuffle carries only the
    cleaned corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.hashing import md5_bytes_array
from ..functions.parts import collect


def curate_corpus(ds: ray.data.Dataset, id_col: str = "doc_id",
                  text_col: str = "text", n: int = 8,
                  bench_mod: int = 100, bench_lt: int = 10,
                  window: int = 64) -> ray.data.Dataset:
    """(doc_id, chunk_idx, n_chunk_tokens, chunk_text) for the curated
    corpus: normalized docs that pass the quality gate, are not in the
    benchmark slice, share no word n-gram with it, and are the
    minimum-id representative of their exact (normalized) text — split
    into `window`-token chunks.

    Every stage reuses the corresponding standalone operator's kernel
    (normalize_text_batch / quality_batch thresholds /
    _gram_hashes+_bench_mask / md5_bytes_array / chunk_tokens_batch),
    so this pipeline's SQL oracle is the composition of their oracles.
    """
    from .decontam import _bench_mask, _gram_hashes
    from .text import chunk_tokens_batch, normalize_text_batch
    from ..stages.aggregate import hash_partition_aggregate

    narrow = ds.select_columns([id_col, text_col])
    normalized = narrow.map_batches(
        lambda b: normalize_text_batch(b, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True)

    # benchmark gram set over NORMALIZED text (bench docs are eval
    # docs regardless of quality) — distributed distinct partials,
    # one driver merge, one ray.put
    def bench_grams(batch: pa.Table) -> pa.Table:
        b = batch.filter(pa.array(_bench_mask(batch, id_col,
                                              bench_mod, bench_lt)))
        _, gh = _gram_hashes(b, id_col, "text_norm", n)
        return pa.table({"gh": pa.array(np.unique(gh))})

    t = collect(normalized.map_batches(
        bench_grams, batch_format="pyarrow", zero_copy_batch=True))
    bench = (np.unique(t.column("gh").to_numpy()) if t.num_columns
             else np.empty(0, np.uint64))
    bench_ref = ray.put(np.sort(bench))

    def keep_clean(batch: pa.Table, *, bench_set) -> pa.Table:
        bset = ray.get(bench_set) if isinstance(
            bench_set, ray.ObjectRef) else bench_set
        c = batch.filter(pa.array(~_bench_mask(batch, id_col,
                                               bench_mod, bench_lt)))
        t = c.column("text_norm")
        # the quality_filter predicate, verbatim, over text_norm
        n_tok = pc.cast(pc.list_value_length(
            pc.split_pattern(t, " ")), pa.int64()).to_numpy(
            zero_copy_only=False)
        n_chr = pc.cast(pc.utf8_length(t), pa.int64()).to_numpy(
            zero_copy_only=False)
        n_pun = pc.cast(pc.count_substring_regex(t, r"[.!?,;:]"),
                        pa.int64()).to_numpy(zero_copy_only=False)
        ok = ((n_tok >= 5) & (n_chr >= 30)
              & (n_pun * 5 <= n_tok) & (n_chr <= 40 * n_tok))
        c = c.filter(pa.array(ok))
        ids, gh = _gram_hashes(c, id_col, "text_norm", n)
        if len(gh) and len(bset):
            pos = np.searchsorted(bset, gh)
            pos[pos == len(bset)] = 0
            hit_ids = np.unique(ids[bset[pos] == gh])
            if len(hit_ids):
                cid = c.column(id_col).to_numpy(zero_copy_only=False)
                pos2 = np.searchsorted(hit_ids, cid)
                pos2[pos2 == len(hit_ids)] = 0
                c = c.filter(pa.array(~(hit_ids[pos2] == cid)))
        return pa.table({
            id_col: pc.cast(c.column(id_col), pa.int64()),
            "fp": md5_bytes_array(c.column("text_norm")),
            "text_norm": c.column("text_norm")})

    cleaned = normalized.map_batches(keep_clean, batch_format="pyarrow",
                                     zero_copy_batch=True,
                                     fn_kwargs={"bench_set": bench_ref})
    # the one exchange: groups are identical-text by md5 construction,
    # so min picks the survivor row (id AND its text) in one aggregate
    survivors = hash_partition_aggregate(
        cleaned, ["fp"], [(id_col, "min"), ("text_norm", "min")],
        rename={f"{id_col}_min": id_col, "text_norm_min": "text_norm"})
    return survivors.map_batches(
        lambda b: chunk_tokens_batch(b, window=window, id_col=id_col,
                                     text_col="text_norm"),
        batch_format="pyarrow", zero_copy_batch=True)
