"""Distributed k-means (ops/cluster.py) vs the independent reference.

The engine's claim is bit-exact determinism at any parallelism (all
arithmetic int64, ties to lowest cluster id), so the tests assert
EXACT assignment equality — against the pure-python reference, and
across different block structures of the same input.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from d1_log_aggregation_ray.ops.cluster import kmeans_embeddings

from kmeans_reference import kmeans_reference

SF_DIR = "/root/testdata/sf0.001"


def _load_emb():
    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    emb = np.asarray(t.column("embedding").combine_chunks().flatten(),
                     dtype=np.float64).reshape(len(ids), -1)
    return t, ids, emb


def _engine_assign(ds, **kw):
    return {r["vec_id"]: r["cluster"]
            for r in kmeans_embeddings(ds, **kw).take_all()}


def test_kmeans_matches_independent_reference():
    t, ids, emb = _load_emb()
    eng = _engine_assign(ray.data.read_parquet(
        os.path.join(SF_DIR, "embeddings.parquet")), k=10, iters=5)
    ref = kmeans_reference(ids, emb, k=10, iters=5)
    assert eng == ref


def test_kmeans_parallelism_independent():
    """Same input, different block structures -> identical labels
    (the integer-associativity property the golden pin relies on)."""
    t, ids, emb = _load_emb()
    a = _engine_assign(
        ray.data.from_arrow(t).repartition(1), k=7, iters=3)
    b = _engine_assign(
        ray.data.from_arrow(t).repartition(13), k=7, iters=3)
    assert a == b
    assert len(set(a.values())) > 1  # actually clustered, not one blob


def test_kmeans_k_exceeds_corpus_raises():
    t = pa.table({"vec_id": pa.array([1, 2, 3], pa.int64()),
                  "embedding": pa.array([[0.1, 0.2]] * 3,
                                        pa.list_(pa.float32()))})
    with pytest.raises(ValueError, match="exceeds corpus size"):
        kmeans_embeddings(ray.data.from_arrow(t), k=5, iters=1).take_all()


def test_kmeans_separated_blobs_recovered():
    """Three well-separated blobs -> k=3 recovers the planted
    partition exactly (labels are arbitrary, the partition is not)."""
    rng = np.random.RandomState(11)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    planted = np.repeat([0, 1, 2], 40)
    emb = centers[planted] + rng.uniform(-0.5, 0.5, size=(120, 2))
    t = pa.table({"vec_id": pa.array(np.arange(120), pa.int64()),
                  "embedding": pa.array(
                      [row.astype(np.float32) for row in emb],
                      pa.list_(pa.float32()))})
    eng = _engine_assign(ray.data.from_arrow(t).repartition(5),
                         k=3, iters=8)
    groups = {}
    for i, lab in enumerate(planted):
        groups.setdefault(lab, set()).add(eng[i])
    # each planted blob maps to exactly one engine cluster, all distinct
    assert all(len(s) == 1 for s in groups.values())
    assert len({next(iter(s)) for s in groups.values()}) == 3


def _semdedup_survivors(ds, **kw):
    from d1_log_aggregation_ray.ops.cluster import semantic_dedup
    return sorted(r["vec_id"] for r in semantic_dedup(ds, **kw).take_all())


def test_semantic_dedup_planted_near_dups():
    """Three separated blobs; inside blob 0, plant vectors that are
    near-copies of vector 0 (cos > 0.999).  SemDeDup must drop the
    copies (keep-lowest-id), keep everything else."""
    rng = np.random.RandomState(7)
    centers = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                        [0.0, 0.0, 10.0]])
    planted = np.repeat([0, 1, 2], 30)
    emb = centers[planted] + rng.uniform(-0.5, 0.5, size=(90, 3))
    # ids 90..94: power-of-2 scaled copies of vector 0 — exact in
    # float32, so the normalized vectors are bit-identical (cos=1);
    # the widest non-copy pair in this corpus is cos ~ 0.9999999249
    copies = emb[0] * np.array([[0.5], [2.0], [4.0], [0.25], [8.0]])
    emb = np.vstack([emb, copies])
    ids = np.arange(len(emb))
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(
                      [r.astype(np.float32) for r in emb],
                      pa.list_(pa.float32()))})
    got = _semdedup_survivors(ray.data.from_arrow(t).repartition(7),
                              k=3, iters=8, threshold=0.99999999)
    # copies of id 0 die; id 0 itself and all others survive
    assert set(range(90)) <= set(got)
    assert not set(range(90, 95)) & set(got)


def test_semantic_dedup_parallelism_independent():
    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    a = _semdedup_survivors(ray.data.from_arrow(t).repartition(1),
                            k=10, iters=5, threshold=0.4)
    b = _semdedup_survivors(ray.data.from_arrow(t).repartition(13),
                            k=10, iters=5, threshold=0.4)
    assert a == b
    assert 0 < len(a) < t.num_rows  # non-trivial at this threshold


def test_semantic_dedup_matches_independent_reference():
    """Engine survivors == pure-python kmeans labels + per-cluster
    numpy brute force (the make_goldens pin source)."""
    t, ids, emb = _load_emb()
    mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    lab = kmeans_reference(ids, mn, k=10, iters=5)  # unit-sphere kmeans
    vid = np.array(ids)
    la = np.array([lab[v] for v in ids])
    dup = set()
    for c in np.unique(la):
        m = la == c
        ii, seg = vid[m], mn[m]
        o = np.argsort(ii)
        ii, seg = ii[o], seg[o]
        sims = seg @ seg.T
        for a in range(1, len(ii)):
            if (sims[a, :a] >= 0.4).any():
                dup.add(int(ii[a]))
    ref = sorted(int(v) for v in ids if int(v) not in dup)
    got = _semdedup_survivors(ray.data.from_arrow(t).repartition(5),
                              k=10, iters=5, threshold=0.4)
    assert got == ref


def test_organize_embeddings_planted():
    """Planted blobs + planted near-duplicates: the composition must
    drop the near-copies (SemDeDup), keep one row per survivor, and
    assign blob-mates to the same cluster with finite projections."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from d1_log_aggregation_ray.ops.cluster import organize_embeddings

    rng = np.random.default_rng(21)
    centers = rng.normal(size=(3, 16)) * 5
    rows, ids = [], []
    for i in range(240):
        c = i % 3
        # wide enough that blob-mates stay below the 0.99 cosine
        # dedup threshold (only the planted scaled copies exceed it)
        rows.append(centers[c] + rng.normal(size=16) * 1.5)
        ids.append(i)
    # planted near-copies of vec 0 (cosine ~ 1): must be deduped
    for j, i in enumerate(range(1000, 1005)):
        rows.append(np.asarray(rows[0]) * (1.0 + 1e-4 * (j + 1)))
        ids.append(i)
    m = np.asarray(rows, dtype=np.float32)
    offs = np.arange(len(ids) + 1, dtype=np.int32) * 16
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array(offs), pa.array(m.reshape(-1)))})
    out = organize_embeddings(
        ray.data.from_arrow(t), k=3, iters=5, threshold=0.99,
        d_out=2).to_pandas()
    got_ids = set(out.vec_id)
    assert not (got_ids & set(range(1000, 1005)))  # copies dropped
    assert 0 in got_ids                            # original kept
    assert len(out) == len(got_ids) == 240
    # soft structure bound (Lloyd is a local optimum — the vector
    # smoke accepts 8/10 blob recovery): on average a blob's majority
    # cluster holds well over half its members
    out["blob"] = out.vec_id % 3
    share = np.mean([(g.cluster == g.cluster.mode()[0]).mean()
                     for _, g in out.groupby("blob")])
    assert share > 0.5
    assert np.isfinite(out[["pc1", "pc2"]].to_numpy()).all()
    # the hard guarantee: byte-identical at any parallelism
    out2 = organize_embeddings(
        ray.data.from_arrow(t).repartition(9), k=3, iters=5,
        threshold=0.99, d_out=2).to_pandas()
    a = out.drop(columns=["blob"]).sort_values(
        "vec_id").reset_index(drop=True)
    b = out2.sort_values("vec_id").reset_index(drop=True)
    assert (a == b).all().all()


def test_cluster_sample_balances_and_is_layout_independent():
    """Planted 3-gaussian blobs with skewed sizes (160/30/10): a
    target of 60 with k=3 caps every cluster at 20 — the dominant
    blob is downsampled 8x, the small blob keeps everything — and the
    selection is byte-identical across block layouts."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.ops.cluster import cluster_sample

    rng = np.random.default_rng(21)
    centers = np.array([[10.0] * 8, [-10.0] * 8,
                        [10.0] * 4 + [-10.0] * 4])
    sizes = [160, 30, 10]
    rows, ids = [], []
    i = 0
    for c, n in zip(centers, sizes):
        for _ in range(n):
            rows.append((c + rng.normal(scale=0.1, size=8)).tolist())
            ids.append(i)
            i += 1
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(rows)})
    out = cluster_sample(ray.data.from_arrow(t), target=60, k=3,
                         iters=5).take_all()
    by = {}
    for r in out:
        by.setdefault(r["cluster"], set()).add(r["vec_id"])
    sizes_out = sorted(len(v) for v in by.values())
    # blobs are well-separated: clusters = blobs; caps = min(20, size)
    assert sizes_out == [10, 20, 20]
    out2 = cluster_sample(ray.data.from_arrow(t).repartition(7),
                          target=60, k=3, iters=5).take_all()
    assert sorted((r["vec_id"], r["cluster"]) for r in out) == \
        sorted((r["vec_id"], r["cluster"]) for r in out2)


def test_bounded_fit_subsample_matches_local_reference():
    """fit_sample_n SMALLER than the corpus: the engine must fit on
    exactly the smallest-n (md5(id), id) rows and assign the full
    corpus — recomputed here with a serial numpy reference sharing
    only the hash function; also layout-independent."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.functions.hashing import md5_lower64_array
    from d1_log_aggregation_ray.ops.cluster import (KMEANS_SCALE,
                                                    kmeans_embeddings)

    rng = np.random.default_rng(3)
    n, d, k, sn = 300, 6, 4, 64
    mat = rng.normal(size=(n, d))
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(mat.tolist())})

    # serial reference: sample by rank, integer Lloyd, assign all
    h = md5_lower64_array(pa.array([str(i) for i in ids]))
    samp = np.lexsort((ids, h))[:sn]
    q = np.rint(mat * KMEANS_SCALE).astype(np.int64)
    qs = q[samp]
    seeds = samp[np.lexsort((ids[samp], h[samp]))[:k]]
    cent = q[seeds]

    def assign(qq, cc):
        cross = qq @ cc.T
        norms = np.einsum("kd,kd->k", cc, cc)
        return np.argmin(norms[None, :] - 2 * cross, axis=1)

    for _ in range(5):
        a = assign(qs, cent)
        cent = cent.copy()
        for c in range(k):
            sel = qs[a == c]
            if len(sel):
                cent[c] = sel.sum(axis=0) // len(sel)
    want = {int(i): int(c) for i, c in zip(ids, assign(q, cent))}

    for parts in (1, 7):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = {r["vec_id"]: r["cluster"] for r in
               kmeans_embeddings(ds, k=k, iters=5,
                                 fit_sample_n=sn).take_all()}
        assert got == want


def test_fit_sample_n_below_k_is_clamped():
    """fit_sample_n < k must NOT raise (round-4 ADVICE): the bounded
    fit clamps the sample to at least k rows, so a shrunk sample on a
    corpus with >= k vectors still fits — equivalently to
    fit_sample_n=k."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.ops.cluster import kmeans_embeddings

    rng = np.random.default_rng(11)
    n, d, k = 120, 4, 8
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(rng.normal(size=(n, d)).tolist())})
    small = sorted((r["vec_id"], r["cluster"]) for r in
                   kmeans_embeddings(ray.data.from_arrow(t), k=k, iters=3,
                                     fit_sample_n=2).take_all())
    at_k = sorted((r["vec_id"], r["cluster"]) for r in
                  kmeans_embeddings(ray.data.from_arrow(t), k=k, iters=3,
                                    fit_sample_n=k).take_all())
    assert small == at_k and len(small) == n
