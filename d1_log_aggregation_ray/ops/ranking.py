"""BM25 full-text ranking against a fixed query-term set.

The retrieval primitive a data pipeline uses to pull topical slices
out of a corpus (and the lexical half of hybrid lexical+ANN search):
score every document against a handful of query terms with
Okapi BM25(+1 idf), return the global top-k.

Reference analog: the regex-bank relevance gates (R2/R3,
stages/parse.py) generalized from boolean match to ranked retrieval.

Scale shape (100 TB corpus):
  - ONE scan over the corpus.  Each batch emits only (a) candidate
    rows (doc_id, dl, tf_1..tf_m) for docs hitting >= 1 query term and
    (b) one stats partial row (doc count, token total, per-term df) —
    both in one unified narrow int64 schema, so the scan's output is
    materialized ONCE and consumed twice (stats + scoring) WITHOUT
    re-executing the input lineage (the round-2 double-consumption
    rule, ops/dedup.py).
  - Corpus stats merge on the driver (one tiny row per input block).
  - Scoring is a map over the cached candidate blocks with the
    (N, avgdl, idf) broadcast, reduced by `functions.parts.top_n`.
    No shuffle anywhere.
  - Caveat for UBIQUITOUS query terms ("the"): the candidate stream
    approaches corpus row count — still only (2+m) int64 columns per
    row, cached as spillable object-store blocks, but if that bound
    matters, drop the materialize and run two passes over the parquet
    read (stats scan, then scoring scan) — same math, zero caching.

Oracle alignment: scores are computed in the exact association order
the SQL oracle writes (idf * (tf*(k1+1)) / (tf + k1*(1-b+b*dl/avgdl)))
and rounded half-away-from-zero to 6 decimals on both sides, so
last-ulp log()/sum-order differences between numpy and DuckDB cannot
flip the hash gate; ordering is (rounded score DESC, doc_id) on both
sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.parts import top_n

BM25_K1 = 1.2
BM25_B = 0.75


def _round6(x: np.ndarray) -> np.ndarray:
    # duckdb ROUND() is half-away-from-zero; BM25 scores are >= 0
    return np.floor(x * 1e6 + 0.5) / 1e6


def bm25_topk(ds: ray.data.Dataset, terms: list[str], k: int = 10,
              id_col: str = "doc_id",
              text_col: str = "text") -> pa.Table:
    """Global top-k (doc_id, score) by BM25 over whitespace tokens.
    See module docstring for the single-scan shape and the float
    alignment contract."""
    m = len(terms)
    tf_names = [f"tf{j}" for j in range(m)]
    schema_cols = [id_col, "dl"] + tf_names
    out = pa.schema([(id_col, pa.int64()), ("score", pa.float64())])

    def _empty() -> pa.Table:
        return pa.table({c: pa.array([], pa.int64()) for c in schema_cols})

    def scan(batch: pa.Table) -> pa.Table:
        batch = batch.filter(batch.column(text_col).is_valid())
        n = batch.num_rows
        if n == 0:
            return _empty()
        toks = pc.split_pattern(batch.column(text_col).combine_chunks(),
                                " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        row = np.repeat(np.arange(n, dtype=np.int64), lens)
        # per-term tf via one is_in pass + per-term bincount scatter
        tfs = []
        for j in range(m):
            sel = pc.equal(flat, terms[j]).to_numpy(zero_copy_only=False)
            tfs.append(np.bincount(row[sel], minlength=n)
                       .astype(np.int64))
        hit = np.logical_or.reduce([t > 0 for t in tfs]) if m else \
            np.zeros(n, dtype=bool)
        ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        cols = {
            id_col: np.concatenate([ids[hit], [-1]]),
            # stats row: dl carries the block's token total
            "dl": np.concatenate([lens[hit].astype(np.int64),
                                  [int(lens.sum())]]),
        }
        for j, nm in enumerate(tf_names):
            # stats row: tf_j carries the block's df_j partial
            cols[nm] = np.concatenate([tfs[j][hit],
                                       [int((tfs[j] > 0).sum())]])
        # stats row doc count rides a dedicated column would widen the
        # schema; instead the driver recovers it from the scan's row
        # counts — so carry it in the sentinel's id slot complement:
        # encode as -(1 + n_docs) to keep one schema
        cols[id_col][-1] = -(1 + n)
        return pa.table({c: pa.array(cols[c]) for c in schema_cols})

    narrow = ds.select_columns([id_col, text_col]).map_batches(
        scan, batch_format="pyarrow",
        zero_copy_batch=True).materialize()

    # corpus stats: one sentinel row per input block
    sent = narrow.map_batches(
        lambda b: b.filter(pc.less(b.column(id_col), 0)),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    n_docs = sum(-(r[id_col]) - 1 for r in sent)
    if n_docs == 0:
        return out.empty_table()
    avgdl = float(sum(r["dl"] for r in sent)) / n_docs
    idf = np.array([np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
                    for df in (sum(r[nm] for r in sent)
                               for nm in tf_names)])
    bref = ray.put((avgdl, idf))

    def bm25(batch: pa.Table, *, broadcast) -> pa.Table:
        ad, w = ray.get(broadcast) if isinstance(
            broadcast, ray.ObjectRef) else broadcast
        t = batch.filter(pc.greater_equal(batch.column(id_col), 0))
        dl = t.column("dl").to_numpy(zero_copy_only=False)
        score = np.zeros(t.num_rows, dtype=np.float64)
        for j, nm in enumerate(tf_names):
            tf = t.column(nm).to_numpy(
                zero_copy_only=False).astype(np.float64)
            # EXACT oracle association order (see module docstring)
            score = score + w[j] * (tf * (BM25_K1 + 1.0)) / (
                tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / ad))
        return pa.table({id_col: t.column(id_col),
                         "score": pa.array(_round6(score))})

    return top_n(narrow.map_batches(bm25, batch_format="pyarrow",
                                    fn_kwargs={"broadcast": bref}),
                 k, [("score", "descending"), (id_col, "ascending")],
                 schema=out)
