"""Corpus-wide duplicated-line removal (C4 / CCNet-style line dedup).

The classic web-corpus curation step: any line (newline-delimited
segment) whose exact text occurs >= `threshold` times across the WHOLE
corpus is boilerplate (nav bars, cookie banners, license footers) and
is removed from every document, preserving the order of the surviving
lines.  Counts are total occurrences (a line repeated within one
document counts each time), mirroring the SQL oracle exactly.

Reference analog: the robot-list membership flags
(LogEntrySolrItem.java:388-442) — derive a key per record element,
test membership in a corpus-derived side set, act on the hit.  Here
the elements are lines and the side set is discovered from the corpus
itself with one counting exchange.

Scale shape (100 TB corpus):
  - Pass A (count): per-batch combiner emits distinct
    (line-hash, count) partials — 16 bytes per distinct line per
    batch, never the line text — merged by the house hash-partition
    arrow aggregate.  One exchange, volume O(distinct lines).
  - The duplicated set (count >= threshold) is collected and
    `ray.put`-broadcast once.  Its size is bounded by
    total_lines / threshold and in practice by the corpus'
    boilerplate vocabulary; if a low threshold at full corpus scale
    makes it too big to broadcast, swap the membership probe for a
    hash-partition semi-join on the line hash (the
    duplicated_ngram_stats exchange shape) — the pass-A plumbing is
    already keyed for it.
  - Pass B (rebuild): one scan — split, per-unique-line md5,
    searchsorted membership, and a vectorized list reconstruction
    (new offsets from a bincount of kept parent indices +
    `binary_join`).  No shuffle, no python rows.
  - Collision note: 64-bit line hashes collide w.h.p. only past ~2^32
    distinct lines per corpus; a collision removes an innocent line —
    acceptable for curation, and the oracle corpus is far below it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.hashing import md5_lower64_array
from ..functions.parts import collect

_EMPTY_PARTIAL = pa.table({"lh": pa.array([], pa.int64()),
                           "cnt": pa.array([], pa.int64())})
_EMPTY_OUT = pa.table({"doc_id": pa.array([], pa.int64()),
                       "text_clean": pa.array([], pa.string()),
                       "n_lines": pa.array([], pa.int64()),
                       "n_dup_lines": pa.array([], pa.int64())})


def _split_lines(batch: pa.Table, text_col: str):
    """(lines list<string>, flat string Array, line hashes int64 view)
    for the batch's non-null rows.  One Arrow split per batch; hashes
    via the per-unique-md5 scatter (md5_lower64_array)."""
    lines = pc.split_pattern(batch.column(text_col).combine_chunks(),
                             "\n")
    flat = pc.list_flatten(lines)
    h = md5_lower64_array(flat).view(np.int64)
    return lines, flat, h


def line_dedup(ds: ray.data.Dataset, id_col: str = "doc_id",
               text_col: str = "text",
               threshold: int = 2) -> ray.data.Dataset:
    """(doc_id, text_clean, n_lines, n_dup_lines) per non-null-text
    document: text_clean is the document with every corpus-duplicated
    line (total occurrences >= threshold) removed, surviving lines
    re-joined with \\n in original order; a fully-boilerplate document
    survives with text_clean = ''."""
    from ..stages.aggregate import hash_partition_aggregate

    narrow = ds.select_columns([id_col, text_col])

    def count_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(batch.column(text_col).is_valid())
        if batch.num_rows == 0:
            return _EMPTY_PARTIAL
        _, _, h = _split_lines(batch, text_col)
        uh, cnt = np.unique(h, return_counts=True)
        return pa.table({"lh": pa.array(uh),
                         "cnt": pa.array(cnt.astype(np.int64))})

    counts = hash_partition_aggregate(
        narrow.map_batches(count_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["lh"], [("cnt", "sum")], rename={"cnt_sum": "cnt"})
    dup_only = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(
            t.column("cnt"), pa.scalar(threshold, pa.int64())))
                   .select(["lh"]),
        batch_format="pyarrow", zero_copy_batch=True)
    t = collect(dup_only)
    dup = (np.sort(t.column("lh").to_numpy()) if t.num_columns
           else np.empty(0, np.int64))
    dup_ref = ray.put(dup)  # broadcast once, read per task

    def rebuild(batch: pa.Table, *, dup_set) -> pa.Table:
        dset = ray.get(dup_set) if isinstance(
            dup_set, ray.ObjectRef) else dup_set
        batch = batch.filter(batch.column(text_col).is_valid())
        if batch.num_rows == 0:
            return _EMPTY_OUT
        lines, flat, h = _split_lines(batch, text_col)
        if len(dset):
            pos = np.searchsorted(dset, h)
            pos[pos == len(dset)] = 0
            keep = dset[pos] != h
        else:
            keep = np.ones(len(h), dtype=bool)
        parent = pc.list_parent_indices(lines).to_numpy(
            zero_copy_only=False).astype(np.int64)
        kept_counts = np.bincount(
            parent[keep], minlength=batch.num_rows).astype(np.int64)
        offsets = np.zeros(batch.num_rows + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      flat.filter(pa.array(keep)))
        n_lines = pc.cast(pc.list_value_length(lines), pa.int64())
        return pa.table({
            id_col: batch.column(id_col),
            "text_clean": pc.binary_join(la, "\n"),
            "n_lines": n_lines,
            "n_dup_lines": pc.subtract(
                n_lines, pa.array(kept_counts))})

    return narrow.map_batches(rebuild, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"dup_set": dup_ref})


_EMPTY_SPAN_OUT = pa.table({"doc_id": pa.array([], pa.int64()),
                            "text_clean": pa.array([], pa.string()),
                            "n_tokens": pa.array([], pa.int64()),
                            "n_removed": pa.array([], pa.int64())})


def strip_dup_spans(ds: ray.data.Dataset, n: int = 8,
                    threshold: int = 2, id_col: str = "doc_id",
                    text_col: str = "text") -> ray.data.Dataset:
    """Corpus-wide duplicated-SPAN removal (the token-window sibling
    of line_dedup, after Lee et al.'s dedup-spans observation): every
    token covered by a word n-gram appearing in >= threshold DISTINCT
    documents is boilerplate and is removed; surviving tokens re-join
    with ' ' in original order.  Returns (doc_id, text_clean,
    n_tokens, n_removed) per non-null-text document.

    Scale shape — the line_dedup recipe keyed on gram hashes:
      - Pass A: per-batch distinct (gram-hash, doc) pairs collapse to
        (gram-hash, doc-count) partials (a doc is wholly in one
        batch), merged by the hash-partition aggregate.  One exchange,
        8 bytes per distinct gram per batch.
      - The duplicated gram set broadcasts once; at full corpus scale
        swap in the Bloom variant (ops/decontam.py) or a semi-join on
        the gram hash — pass A is already keyed for it.
      - Pass B: one scan — recompute gram hashes (ops/decontam.py's
        shifted-slice multiply-add), searchsorted membership, then a
        +1/-1 difference array + cumsum marks covered tokens and the
        vectorized list rebuild re-joins survivors.  No shuffle.
    """
    from ..stages.aggregate import hash_partition_aggregate
    from .decontam import _gram_hashes

    narrow = ds.select_columns([id_col, text_col])

    def count_partial(batch: pa.Table) -> pa.Table:
        ids, gh = _gram_hashes(batch, id_col, text_col, n)
        if not len(gh):
            return pa.table({"gh": pa.array([], pa.int64()),
                             "nd": pa.array([], pa.int64())})
        # distinct (gram, doc) pairs -> docs-per-gram within the batch
        order = np.lexsort((ids, gh))
        g, d = gh[order], ids[order]
        first = np.r_[True, (g[1:] != g[:-1]) | (d[1:] != d[:-1])]
        gu, nd = np.unique(g[first], return_counts=True)
        return pa.table({"gh": pa.array(gu.view(np.int64)),
                         "nd": pa.array(nd.astype(np.int64))})

    counts = hash_partition_aggregate(
        narrow.map_batches(count_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["gh"], [("nd", "sum")], rename={"nd_sum": "nd"})
    dup_only = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(
            t.column("nd"), pa.scalar(threshold, pa.int64())))
                   .select(["gh"]),
        batch_format="pyarrow", zero_copy_batch=True)
    t = collect(dup_only)
    dup = (np.sort(t.column("gh").to_numpy().astype(np.int64).view(
        np.uint64)) if t.num_columns else np.empty(0, np.uint64))
    dup_ref = ray.put(dup)

    def rebuild(batch: pa.Table, *, dup_set) -> pa.Table:
        dset = ray.get(dup_set) if isinstance(
            dup_set, ray.ObjectRef) else dup_set
        batch = batch.filter(batch.column(text_col).is_valid())
        if batch.num_rows == 0:
            return _EMPTY_SPAN_OUT
        text = batch.column(text_col).combine_chunks()
        toks = pc.split_pattern(text, " ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        total = len(flat)
        diff = np.zeros(total + 1, dtype=np.int64)
        if total >= n and len(dset):
            from ..functions.hashing import md5_lower64_array
            from .decontam import _B
            h = md5_lower64_array(flat)
            L = total - n + 1
            gh = np.zeros(L, dtype=np.uint64)
            mult = np.uint64(1)
            with np.errstate(over="ignore"):
                for j in range(n - 1, -1, -1):
                    gh += h[j:L + j] * mult
                    mult = mult * _B
            valid = parent[:L] == parent[n - 1:]
            pos = np.searchsorted(dset, gh)
            pos[pos == len(dset)] = 0
            hit = valid & (dset[pos] == gh)
            starts = np.flatnonzero(hit)
            np.add.at(diff, starts, 1)
            np.add.at(diff, starts + n, -1)
        covered = np.cumsum(diff[:total]) > 0
        keep = ~covered
        kept_counts = np.bincount(
            parent[keep], minlength=batch.num_rows).astype(np.int64)
        offsets = np.zeros(batch.num_rows + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      flat.filter(pa.array(keep)))
        n_tok = pc.cast(pc.list_value_length(toks), pa.int64())
        return pa.table({
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            "text_clean": pc.binary_join(la, " "),
            "n_tokens": n_tok,
            "n_removed": pc.subtract(n_tok, pa.array(kept_counts))})

    return narrow.map_batches(rebuild, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"dup_set": dup_ref})
