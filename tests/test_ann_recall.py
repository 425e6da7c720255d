"""Recall evaluation for the approximate similarity indexes: LSH
prefilter and IVF probe recall@10 against exact brute-force cosine,
over the sf0.001 embeddings corpus.  Approximate contracts don't have
SQL oracles; this is the quality gate that keeps them honest (a
bucketing bug that silently tanks recall passes row-count checks but
fails here)."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

import ray.data

SF_DIR = "/root/testdata/sf0.001"
QUERY_IDS = [3, 17, 42, 99, 123]
K = 10


@pytest.fixture(scope="module")
def corpus():
    path = os.path.join(SF_DIR, "embeddings.parquet")
    t = pq.read_table(path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    mat = np.stack([np.asarray(v, dtype=np.float64)
                    for v in t.column("embedding").to_pylist()])
    return path, ids, mat


def _exact_topk(ids, mat, q, k=K):
    qn = q / (np.linalg.norm(q) or 1.0)
    m = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                         1e-12)
    scores = m @ qn
    order = np.lexsort((ids, -scores))[:k]
    return set(ids[order].tolist())


def test_lsh_recall(corpus):
    from d1_log_aggregation_ray.ops.similarity import lsh_topk
    path, ids, mat = corpus
    recalls = []
    for qid in QUERY_IDS:
        q = mat[np.flatnonzero(ids == qid)[0]]
        ds = ray.data.read_parquet(path,
                                   columns=["vec_id", "embedding"])
        got = set(lsh_topk(ds, q, k=K).column("vec_id").to_pylist())
        want = _exact_topk(ids, mat, q)
        recalls.append(len(got & want) / K)
    # 2-bit multiprobe covers 37/256 of signature space (~14% of a
    # random corpus): partial recall by design, but LSH concentration
    # must beat the probed-mass floor by far
    assert np.mean(recalls) >= 0.3, recalls


def test_ivf_recall(corpus, tmp_path):
    from d1_log_aggregation_ray.ops.similarity import (build_ivf_index,
                                                       ivf_topk)
    path, ids, mat = corpus
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    idx_dir = str(tmp_path / "ivf")
    build_ivf_index(ds, idx_dir, n_lists=8)
    recalls = []
    for qid in QUERY_IDS:
        q = mat[np.flatnonzero(ids == qid)[0]]
        got = set(ivf_topk(idx_dir, q, k=K,
                           n_probe=2).column("vec_id").to_pylist())
        want = _exact_topk(ids, mat, q)
        recalls.append(len(got & want) / K)
    # probing 2/8 lists: recall well above the 25% list-mass floor
    assert np.mean(recalls) >= 0.5, recalls


def _knn_reference(ids, mat, k=5, n_planes=8):
    """Independent per-bucket kNN: plain-python bucket dict + per-row
    sorted() ranking (no shared code with the operator's chunked
    argsort path)."""
    from d1_log_aggregation_ray.ops.similarity import lsh_planes
    pl = lsh_planes(n_planes, mat.shape[1])
    sig = (((mat @ pl.T) > 0).astype(np.int64)
           << np.arange(n_planes, dtype=np.int64)).sum(axis=1)
    m = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                         1e-12)
    buckets = {}
    for i, s in enumerate(sig):
        buckets.setdefault(int(s), []).append(i)
    rows = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        for i in members:
            scored = sorted(((-float(m[i] @ m[j]), int(ids[j]))
                             for j in members if j != i))
            for rank, (_, nid) in enumerate(scored[:k], 1):
                rows.add((int(ids[i]), nid, rank))
    return rows


def test_knn_join_matches_reference(corpus):
    from d1_log_aggregation_ray.ops.similarity import knn_join
    path, ids, mat = corpus
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    out = knn_join(ds, k=5).take_all()
    got = {(r["vec_id"], r["neighbor_id"], r["nn_rank"]) for r in out}
    assert got == _knn_reference(ids, mat, k=5)


def test_knn_join_identical_vector_ties():
    """Exact score ties (identical vectors) must rank by neighbor id,
    and singleton buckets must emit nothing."""
    from d1_log_aggregation_ray.ops.similarity import knn_join, lsh_planes
    dim = 8
    rng = np.random.RandomState(7)
    base = rng.randn(dim)
    # three identical vectors + one singleton far away in another bucket
    pl = lsh_planes(8, dim)
    lone = rng.randn(dim)
    for _ in range(50):  # find a vector NOT sharing base's bucket
        sig = lambda v: int((((pl @ v) > 0).astype(np.int64)
                             << np.arange(8)).sum())
        if sig(lone) != sig(base):
            break
        lone = rng.randn(dim)
    import pyarrow as pa
    t = pa.table({"vec_id": pa.array([10, 11, 12, 99], pa.int64()),
                  "embedding": pa.array([base.tolist()] * 3
                                        + [lone.tolist()])})
    out = knn_join(ray.data.from_arrow(t), k=5).take_all()
    got = {(r["vec_id"], r["neighbor_id"], r["nn_rank"]) for r in out}
    assert got == {(10, 11, 1), (10, 12, 2),
                   (11, 10, 1), (11, 12, 2),
                   (12, 10, 1), (12, 11, 2)}


def test_knn_planes_for_scale_derivation():
    """n_planes derives from corpus size (round-3 verdict item 2):
    expected rows/bucket held at target; floor 8 keeps small corpora
    (and the pinned oracles) unchanged; cap 30 bounds signature
    width."""
    from d1_log_aggregation_ray.ops.similarity import knn_planes_for
    assert knn_planes_for(500) == 8
    assert knn_planes_for(5_000) == 8
    assert knn_planes_for(2048 * 256) == 8
    assert knn_planes_for(2048 * 257) == 9
    assert knn_planes_for(10**9) == 19      # ~1907 rows/bucket
    assert knn_planes_for(10**12) == 29     # ~1862 rows/bucket
    assert knn_planes_for(10**15) == 30     # capped
    assert knn_planes_for(100, target_bucket_rows=10) == 8
    assert knn_planes_for(10_000, target_bucket_rows=10) == 10


def test_knn_join_mega_bucket_chunked_guard(corpus, monkeypatch):
    """The neighbor-axis hot-bucket guard: with the column chunk
    forced tiny (3 neighbors per matmul), every bucket takes the
    multi-chunk running top-k merge path — results must still equal
    the independent reference EXACTLY, including tie order."""
    import d1_log_aggregation_ray.ops.similarity as sim
    monkeypatch.setattr(sim, "_KNN_COL_CHUNK", 3)
    path, ids, mat = corpus
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    out = sim.knn_join(ds, k=5).take_all()
    got = {(r["vec_id"], r["neighbor_id"], r["nn_rank"]) for r in out}
    assert got == _knn_reference(ids, mat, k=5)


def test_pq_recall(corpus):
    """PQ is lossy by design (16x64 codes over 64 dims), but ADC
    order must track exact cosine order well: mean recall@10 over the
    probe queries has to clear 0.5, far above the ~k/n random floor
    (measured 0.66 on this corpus; synthetic near-isotropic vectors
    are PQ's worst case — no subspace cluster structure)."""
    from d1_log_aggregation_ray.ops.quantize import (pq_train, pq_encode,
                                                     pq_topk)
    path, ids, mat = corpus
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    cb = pq_train(ds, m=16, k=64, iters=4)
    codes = pq_encode(ds, cb).materialize()
    recalls = []
    for qid in QUERY_IDS:
        q = mat[np.flatnonzero(ids == qid)[0]]
        got = set(pq_topk(codes, cb, q, k=K).column("vec_id").to_pylist())
        want = _exact_topk(ids, mat, q)
        recalls.append(len(got & want) / K)
    assert np.mean(recalls) >= 0.5, recalls


def test_pq_codes_parallelism_independent(corpus):
    """The pinned-golden contract: codebook and codes are bit-equal
    regardless of block layout (integer Lloyd over the md5-rank fit
    sample + lowest-id ties)."""
    from d1_log_aggregation_ray.ops.quantize import pq_train, pq_encode
    path, ids, mat = corpus

    def run(nblocks):
        t = pq.read_table(path, columns=["vec_id", "embedding"])
        cuts = [t.num_rows * i // nblocks for i in range(nblocks + 1)]
        ds = ray.data.from_arrow([t.slice(a, b - a)
                                  for a, b in zip(cuts, cuts[1:])])
        assert ds.num_blocks() == nblocks
        cb = pq_train(ds, m=16, k=64, iters=3)
        codes = pq_encode(ds, cb).to_pandas().sort_values(
            "vec_id").reset_index(drop=True)
        return cb, codes

    cb1, c1 = run(2)
    cb2, c2 = run(7)
    assert (cb1 == cb2).all()
    assert c1.equals(c2)


def test_ivfpq_recall(corpus, tmp_path):
    """IVF pruning stacked on PQ lossiness: with n_probe=6 of 16
    lists the combined recall floor is lower than pure PQ's, but must
    still clear 0.4 — and the probed-partition read must only touch
    code columns (asserted via the index schema)."""
    from d1_log_aggregation_ray.ops.quantize import (build_ivfpq_index,
                                                     ivfpq_topk)
    path, ids, mat = corpus
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    index_dir = str(tmp_path / "ivfpq")
    build_ivfpq_index(ds, index_dir, n_lists=8, m=16, k_codes=64)
    # the persisted partitions hold codes, never raw vectors
    import glob
    f = glob.glob(os.path.join(index_dir, "list_id=*", "*.parquet"))[0]
    names = pq.read_schema(f).names
    assert "embedding" not in names and "code_0" in names
    recalls = []
    for qid in QUERY_IDS:
        q = mat[np.flatnonzero(ids == qid)[0]]
        got = set(ivfpq_topk(index_dir, q, k=K, n_probe=4)
                  .column("vec_id").to_pylist())
        want = _exact_topk(ids, mat, q)
        recalls.append(len(got & want) / K)
    assert np.mean(recalls) >= 0.4, recalls


def test_ivf_append_segment_query(tmp_path):
    """Day-2 IVF append (round-5): vectors appended against the
    FROZEN centroids are immediately findable (an appended vector's
    own embedding returns itself first); an in-flight `_tmp-seg-*`
    dir stays invisible; base+segment read equals a brute-force scan
    of the same probed lists."""
    import os

    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.ops.similarity import (
        _ivf_list_files, append_ivf_index, build_ivf_index,
        brute_force_topk, ivf_topk)

    rng = np.random.RandomState(4)
    d = 8
    base_n, new_n = 120, 40
    mat = rng.randn(base_n + new_n, d)

    def tbl(lo, hi):
        return pa.table({
            "vec_id": pa.array(range(lo, hi), pa.int64()),
            "embedding": pa.array(mat[lo:hi].tolist())})

    idx = str(tmp_path / "ivf")
    build_ivf_index(ray.data.from_arrow(tbl(0, base_n)), idx,
                    n_lists=8, sample_n=base_n)
    before = [r["vec_id"] for r in ivf_topk(
        idx, mat[base_n + 3], k=5, n_probe=8).to_pylist()]
    assert base_n + 3 not in before            # not ingested yet

    seg = append_ivf_index(ray.data.from_arrow(tbl(base_n,
                                                   base_n + new_n)), idx)
    assert os.path.basename(seg).startswith("seg-")
    after = ivf_topk(idx, mat[base_n + 3], k=5, n_probe=8).to_pylist()
    assert after[0]["vec_id"] == base_n + 3    # own vector wins

    # full-probe IVF == brute force over everything (n_probe = all)
    want = [r["vec_id"] for r in brute_force_topk(
        ray.data.from_arrow(tbl(0, base_n + new_n)),
        mat[7], k=5).to_pylist()]
    got = [r["vec_id"] for r in ivf_topk(idx, mat[7], k=5,
                                         n_probe=8).to_pylist()]
    assert got == want

    # an in-flight (crashed) append tmp dir is invisible
    dead = os.path.join(idx, "_tmp-seg-deadbeef", "list_id=0")
    os.makedirs(dead)
    with open(os.path.join(dead, "junk.parquet"), "wb") as f:
        f.write(b"not parquet")
    assert not any("_tmp-seg-deadbeef" in p
                   for p in _ivf_list_files(idx, 0))
    got2 = [r["vec_id"] for r in ivf_topk(idx, mat[7], k=5,
                                          n_probe=8).to_pylist()]
    assert got2 == want


def test_appenders_noop_on_empty_delta(tmp_path):
    """A 'nothing new today' day-N ingest must be a no-op for BOTH
    segment appenders (review finding: Ray's write_parquet creates no
    directory for a zero-row dataset, so the atomic rename would
    crash)."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.ops.dedup import (append_minhash_index,
                                                  build_minhash_index)
    from d1_log_aggregation_ray.ops.similarity import (append_ivf_index,
                                                       build_ivf_index,
                                                       ivf_topk)

    rng = np.random.RandomState(1)
    vecs = pa.table({"vec_id": pa.array(range(50), pa.int64()),
                     "embedding": pa.array(rng.randn(50, 6).tolist())})
    empty_vecs = vecs.slice(0, 0)
    idx = str(tmp_path / "ivf")
    build_ivf_index(ray.data.from_arrow(vecs), idx, n_lists=4,
                    sample_n=50)
    assert append_ivf_index(ray.data.from_arrow(empty_vecs), idx) == ""
    assert not glob.glob(os.path.join(idx, "seg-*"))
    assert len(ivf_topk(idx, rng.randn(6), k=5, n_probe=4)) == 5

    docs = pa.table({"doc_id": pa.array(range(20), pa.int64()),
                     "text": pa.array([f"w{i} x y" for i in range(20)])})
    midx = str(tmp_path / "mh")
    build_minhash_index(ray.data.from_arrow(docs), midx)
    out = append_minhash_index(ray.data.from_arrow(docs.slice(0, 0)),
                               midx)
    assert out == ""
    assert not glob.glob(os.path.join(midx, "seg-*"))


def test_appenders_empty_delta_with_existing_tmp_dir(tmp_path, monkeypatch):
    """An empty delta publishes no segment even when its tmp dir already
    exists (left by a crashed attempt, or created by a Ray version that
    makes the output dir for a zero-row write): emptiness is read from
    the parquet files under the tmp dir, and the empty tmp dir goes."""
    import glob
    import os
    import sys
    import uuid

    import numpy as np
    import pyarrow as pa

    import ray.data

    from d1_log_aggregation_ray.ops.dedup import (append_minhash_index,
                                                  build_minhash_index)
    from d1_log_aggregation_ray.ops.similarity import (append_ivf_index,
                                                       build_ivf_index)

    pinned, real = uuid.UUID(int=0xFEED << 64), uuid.uuid4
    appenders = ("append_ivf_index", "append_minhash_index")

    def uuid4():
        # pin only the appenders' segment tag; Ray's own ids stay random
        caller = sys._getframe(1).f_code.co_name
        return pinned if caller in appenders else real()

    monkeypatch.setattr(uuid, "uuid4", uuid4)
    tmp_name = f"_tmp-seg-{pinned.hex[:16]}"

    rng = np.random.RandomState(2)
    vecs = pa.table({"vec_id": pa.array(range(30), pa.int64()),
                     "embedding": pa.array(rng.randn(30, 4).tolist())})
    idx = str(tmp_path / "ivf")
    build_ivf_index(ray.data.from_arrow(vecs), idx, n_lists=3, sample_n=30)
    os.makedirs(os.path.join(idx, tmp_name))
    assert append_ivf_index(ray.data.from_arrow(vecs.slice(0, 0)), idx) == ""
    assert not glob.glob(os.path.join(idx, "seg-*"))
    assert not os.path.exists(os.path.join(idx, tmp_name))

    docs = pa.table({"doc_id": pa.array(range(10), pa.int64()),
                     "text": pa.array([f"w{i} x y" for i in range(10)])})
    midx = str(tmp_path / "mh")
    build_minhash_index(ray.data.from_arrow(docs), midx)
    os.makedirs(os.path.join(midx, tmp_name))
    assert append_minhash_index(ray.data.from_arrow(docs.slice(0, 0)),
                                midx) == ""
    assert not glob.glob(os.path.join(midx, "seg-*"))
    assert not os.path.exists(os.path.join(midx, tmp_name))
