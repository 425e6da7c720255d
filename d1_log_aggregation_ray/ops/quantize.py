"""Scalar int8 quantization of the embedding column — the standard
shrink-the-vectors move before large-scale ANN (4x smaller payloads,
integer SIMD distance kernels downstream).

Two passes by design: quantization needs the global value range first
(pass 1 collapses to ONE (min, max) row per block — KiB partials), then
pass 2 maps every vector with the two scalars closed over (no
broadcast object needed: two floats ride the function closure).  The
input is read twice; both passes are over the raw parquet read, the
same documented trade as the dedup survivor tail (a derived input
should be materialized by the caller first).

Determinism contract (mirrored by the SQL oracle): code = floor(
(float64(x) - gmin) * 255.0 / (gmax - gmin)) with gmin/gmax the exact
float32 corpus extrema — identical IEEE ops in identical order on both
sides, so codes are bit-equal to DuckDB's list_transform formulation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


def global_minmax(ds: ray.data.Dataset,
                  vec_col: str = "embedding") -> tuple[float, float]:
    """Global (min, max) over every list element: per-block one-row
    partials, driver merges the tiny remainder."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col).combine_chunks()
        v = np.asarray(col.flatten(), dtype=np.float32)
        if len(v) == 0:
            return pa.table({"mn": pa.array([], pa.float32()),
                             "mx": pa.array([], pa.float32())})
        return pa.table({"mn": pa.array([v.min()], pa.float32()),
                         "mx": pa.array([v.max()], pa.float32())})

    rows = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True).take_all()
    if not rows:
        raise ValueError("empty dataset: no quantization range")
    mn = np.float64(np.min(np.array([r["mn"] for r in rows],
                                    dtype=np.float32)))
    mx = np.float64(np.max(np.array([r["mx"] for r in rows],
                                    dtype=np.float32)))
    return float(mn), float(mx)


def quantize_batch(batch: pa.Table, gmin: float, gmax: float,
                   id_col: str = "vec_id",
                   vec_col: str = "embedding") -> pa.Table:
    """Map one Arrow batch to (id, qvec list<int64>): zero-copy flatten,
    one vectorized float64 affine + floor, offsets reused as-is."""
    col = batch.column(vec_col).combine_chunks()
    v = np.asarray(col.flatten(), dtype=np.float64)
    rng = gmax - gmin
    q = np.floor((v - gmin) * 255.0 / rng).astype(np.int64) \
        if rng > 0 else np.zeros(len(v), np.int64)
    offsets = col.offsets
    qvec = pa.ListArray.from_arrays(offsets, pa.array(q, pa.int64()))
    return pa.table({id_col: batch.column(id_col), "qvec": qvec})


def quantize_embeddings(ds: ray.data.Dataset, id_col: str = "vec_id",
                        vec_col: str = "embedding") -> ray.data.Dataset:
    """Full operator: range pass + streaming quantize pass.  Returns
    (id, qvec) with codes in [0, 255]."""
    gmin, gmax = global_minmax(ds, vec_col)
    return ds.map_batches(quantize_batch, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"gmin": gmin, "gmax": gmax,
                                     "id_col": id_col,
                                     "vec_col": vec_col})


def quantize_digest(ds: ray.data.Dataset, id_col: str = "vec_id",
                    vec_col: str = "embedding") -> ray.data.Dataset:
    """Per-vector integer digest of the quantized codes — (id, q_sum,
    q_l2) — the value-gate form (exact BIGINT compare vs the SQL
    oracle without shipping list columns through the compare)."""
    gmin, gmax = global_minmax(ds, vec_col)

    def digest(batch: pa.Table) -> pa.Table:
        qt = quantize_batch(batch, gmin, gmax, id_col=id_col,
                            vec_col=vec_col)
        col = qt.column("qvec").combine_chunks()
        q = np.asarray(col.flatten(), dtype=np.int64)
        off = col.offsets.to_numpy(zero_copy_only=False)
        if len(off) <= 1:
            return pa.table({id_col: qt.column(id_col),
                             "q_sum": pa.array([], pa.int64()),
                             "q_l2": pa.array([], pa.int64())})
        starts = off[:-1]
        # reduceat needs non-empty input; empty lists sum to 0 via the
        # subtraction-of-cumsum formulation (robust to zero-length rows)
        cs = np.r_[0, np.cumsum(q)]
        cs2 = np.r_[0, np.cumsum(q * q)]
        s = cs[off[1:]] - cs[starts]
        s2 = cs2[off[1:]] - cs2[starts]
        return pa.table({id_col: qt.column(id_col),
                         "q_sum": pa.array(s.astype(np.int64)),
                         "q_l2": pa.array(s2.astype(np.int64))})

    return ds.map_batches(digest, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------
# Product quantization (PQ): the vector-compression half of the
# standard IVF+PQ recipe for billion-scale ANN.  The dim axis splits
# into m contiguous subspaces; each learns its own k-code codebook
# with the SAME integer-exact Lloyd recursion as ops/cluster.py, run
# driver-local over the same bounded md5-rank sample (FIT_SAMPLE_N
# rows) — nothing pinned in the object store.
# A 64-dim float vector becomes m uint8 codes — 64x smaller — and
# queries scan codes with an ADC lookup-table sum (no float math in
# the hot loop).  Vectors are L2-normalized BEFORE quantization so
# ADC's integer L2 order equals the cosine order the other ANN ops
# rank by; all distances are exact int64, ties break to the lowest
# id, so results are bit-identical at any parallelism (pinned-golden
# safe).
# ---------------------------------------------------------------------

from ..functions.parts import top_n  # noqa: E402


def _unit_quantize(batch: pa.Table, vec_col: str) -> np.ndarray:
    """L2-normalize rows then fixed-point quantize (round(x * 2^20)) —
    composed from the house kernels (similarity._as_matrix/_normalize
    + cluster.KMEANS_SCALE) so the zero-norm / empty-batch edge cases
    live in one place."""
    from .cluster import KMEANS_SCALE
    from .similarity import _as_matrix, _normalize
    return np.rint(_normalize(_as_matrix(batch, vec_col))
                   * KMEANS_SCALE).astype(np.int64)


def pq_train(ds: ray.data.Dataset, m: int = 4, k: int = 16,
             iters: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding") -> np.ndarray:
    """Learn the (m, k, d/m) int64 PQ codebook on the k-means fit
    sample (ops/cluster: the FIT_SAMPLE_N smallest (md5(id), id) rows,
    one streaming rank pass + one gather pass).  Corpora of at most
    FIT_SAMPLE_N vectors are sampled WHOLE, so their codebook is the
    full-corpus fit; above that, PQ trains on the deterministic
    sample, as coarse_centroids does for IVF.

    Seeds: the k smallest-(md5(id), id) rows, quantized, normalized,
    re-quantized; each subspace then runs `iters` passes of the one
    integer Lloyd recursion (cluster._lloyd) over the unit-quantized
    sample."""
    from .cluster import (FIT_SAMPLE_N, KMEANS_SCALE, _lloyd, _quantize,
                          _rank_sample_table, _seed_rows)
    sample = _rank_sample_table(ds.select_columns([id_col, vec_col]),
                                max(FIT_SAMPLE_N, k), id_col, vec_col)
    seeds_full = _quantize(sample, vec_col)[_seed_rows(sample, k, id_col)]
    d = seeds_full.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    f = seeds_full.astype(np.float64) / KMEANS_SCALE
    n = np.linalg.norm(f, axis=1, keepdims=True)
    n[n == 0.0] = 1.0
    seeds = np.rint((f / n) * KMEANS_SCALE).astype(np.int64)
    q = _unit_quantize(sample, vec_col)
    return np.stack([
        _lloyd(np.ascontiguousarray(q[:, s * dsub:(s + 1) * dsub]),
               np.ascontiguousarray(seeds[:, s * dsub:(s + 1) * dsub]),
               iters)
        for s in range(m)])


def pq_encode(ds: ray.data.Dataset, cb: np.ndarray,
              id_col: str = "vec_id",
              vec_col: str = "embedding") -> ray.data.Dataset:
    """(id, code_0..code_{m-1} uint8) — the 64x-compressed corpus."""
    from .cluster import _assign
    m, k, dsub = cb.shape
    cref = ray.put(cb)

    def encode(batch: pa.Table, *, cb_ref) -> pa.Table:
        c = ray.get(cb_ref) if isinstance(cb_ref, ray.ObjectRef) else cb_ref
        q = _unit_quantize(batch, vec_col)
        cols = {id_col: pa.array(
            batch.column(id_col).to_numpy(zero_copy_only=False)
            .astype(np.int64))}
        for s in range(m):
            qs = np.ascontiguousarray(q[:, s * dsub:(s + 1) * dsub])
            cols[f"code_{s}"] = pa.array(
                _assign(qs, c[s]).astype(np.uint8), pa.uint8())
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"cb_ref": cref})


def pq_topk(codes: ray.data.Dataset, cb: np.ndarray, query: np.ndarray,
            k: int = 10, id_col: str = "vec_id") -> pa.Table:
    """ADC top-k over the PQ codes: the (m x k_codes) query-to-
    centroid distance table computes ONCE on the driver; each batch
    scores rows with m uint8-indexed gathers + an int64 sum — no
    float ops, no decompression — and `top_n` keeps the k nearest.
    (id, dist) sorted by ascending distance, ties to the lowest id."""
    m, kc, dsub = cb.shape
    from .cluster import KMEANS_SCALE
    q = np.asarray(query, dtype=np.float64)
    nq = np.linalg.norm(q) or 1.0
    qi = np.rint((q / nq) * KMEANS_SCALE).astype(np.int64)
    table = np.empty((m, kc), dtype=np.int64)
    for s in range(m):
        diff = cb[s] - qi[s * dsub:(s + 1) * dsub][None, :]
        table[s] = np.einsum("kd,kd->k", diff, diff)

    def score(batch: pa.Table) -> pa.Table:
        d = np.zeros(batch.num_rows, dtype=np.int64)
        for s in range(m):
            d += table[s][batch.column(f"code_{s}").to_numpy(
                zero_copy_only=False)]
        return pa.table({id_col: pa.array(batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)), "dist": pa.array(d)})

    return top_n(codes.map_batches(score, batch_format="pyarrow",
                                   zero_copy_batch=True),
                 k, [("dist", "ascending"), (id_col, "ascending")],
                 schema=_adc_schema(id_col))


def _adc_schema(id_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), ("dist", pa.int64())])


def build_ivfpq_index(ds: ray.data.Dataset, index_dir: str,
                      n_lists: int = 16, m: int = 16, k_codes: int = 64,
                      iters_pq: int = 4, id_col: str = "vec_id",
                      vec_col: str = "embedding"):
    """The full billion-scale ANN recipe, persisted: IVF coarse
    pruning OVER PQ-compressed codes.  The coarse quantizer
    (similarity.coarse_centroids) decides WHICH partitions a query
    reads; the PQ codes decide how CHEAP reading them is — each
    partition holds (id, m uint8 codes), 16x smaller than the raw
    vectors, so probe IO shrinks by both factors multiplied.

    Artifacts under index_dir: `_centroids.npy` + `_codebook.npy`
    ("_" prefix: invisible to parquet dataset discovery) and one
    parquet partition per list_id.  Everything is deterministic
    (lowest-id coarse sample, integer-exact PQ Lloyd on the md5-rank
    sample), so the index is byte-reproducible at any parallelism."""
    import os
    from .similarity import coarse_centroids, _as_matrix, _normalize
    from .cluster import _assign
    cent = coarse_centroids(ds, n_lists, id_col=id_col, vec_col=vec_col)
    cb = pq_train(ds, m=m, k=k_codes, iters=iters_pq, id_col=id_col,
                  vec_col=vec_col)
    os.makedirs(index_dir, exist_ok=True)
    np.save(os.path.join(index_dir, "_centroids.npy"), cent)
    np.save(os.path.join(index_dir, "_codebook.npy"), cb)
    cref = ray.put((cent, cb))
    dsub = cb.shape[2]

    def rows(batch: pa.Table, *, ref) -> pa.Table:
        c, codebook = ray.get(ref) if isinstance(ref, ray.ObjectRef) \
            else ref
        mb = _normalize(_as_matrix(batch, vec_col))
        lid = (mb @ c.T).argmax(axis=1).astype(np.int32) \
            if batch.num_rows else np.empty(0, np.int32)
        q = _unit_quantize(batch, vec_col)
        cols = {id_col: pa.array(
            batch.column(id_col).to_numpy(zero_copy_only=False)
            .astype(np.int64))}
        for s in range(codebook.shape[0]):
            qs = np.ascontiguousarray(q[:, s * dsub:(s + 1) * dsub])
            cols[f"code_{s}"] = pa.array(
                _assign(qs, codebook[s]).astype(np.uint8), pa.uint8())
        cols["list_id"] = pa.array(lid)
        return pa.table(cols)

    ds.select_columns([id_col, vec_col]).map_batches(
        rows, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"ref": cref}).write_parquet(
        index_dir, partition_cols=["list_id"])
    return cent, cb


def ivfpq_topk(index_dir: str, query: np.ndarray, k: int = 10,
               n_probe: int = 4,
               id_col: str = "vec_id") -> pa.Table:
    """Query a persisted IVF+PQ index: rank coarse centroids by cosine,
    read ONLY the n_probe nearest partitions AND only the uint8 code
    columns, ADC-score them against the driver-computed lookup table.
    IO = (n_probe / n_lists) x (code bytes / vector bytes) of a full
    scan."""
    import glob
    import os
    cent = np.load(os.path.join(index_dir, "_centroids.npy"))
    cb = np.load(os.path.join(index_dir, "_codebook.npy"))
    q = np.asarray(query, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probes = np.argsort(-(cent @ qn))[:n_probe]
    paths = []
    for p in probes:
        paths.extend(sorted(glob.glob(
            os.path.join(index_dir, f"list_id={int(p)}", "*.parquet"))))
    if not paths:
        return _adc_schema(id_col).empty_table()
    m = cb.shape[0]
    codes = ray.data.read_parquet(
        paths, columns=[id_col] + [f"code_{s}" for s in range(m)])
    return pq_topk(codes, cb, query, k=k, id_col=id_col)
