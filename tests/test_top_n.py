"""functions.parts.top_n — the package's one global top-n reduce.

Checked against an independent reference (one np.lexsort over the
concatenated input), for the merge bound the driver holds, and for the
typed empty result of every top-k entry point built on it."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray
import ray.data


def _corpus(n_rows=640, seed=5):
    rng = np.random.default_rng(seed)
    score = rng.integers(0, 12, n_rows).astype(np.float64) / 4  # ties
    score[rng.choice(n_rows, 9, replace=False)] = np.nan
    return pa.table({
        "id": pa.array(rng.permutation(n_rows).astype(np.int64)),
        "score": pa.array(score),
        "s": pa.array([f"t{v:02d}" for v in rng.integers(0, 7, n_rows)]),
        "g": pa.array(rng.integers(0, 5, n_rows).astype(np.int64)),
    })


def _blocks(t, n_blocks):
    step = -(-t.num_rows // n_blocks)
    return ray.data.from_arrow(
        [t.slice(i, step) for i in range(0, t.num_rows, step)])


def _reference(t, n, keys, per=None):
    """Row indices of the answer: one lexsort over the whole input
    (numpy sorts NaN last; descending keys are negated floats or the
    reversed rank of a string)."""
    cols = []
    for name, order in keys:
        v = t.column(name).to_numpy(zero_copy_only=False)
        if order == "descending":
            v = -v if v.dtype.kind == "f" else \
                -np.unique(v, return_inverse=True)[1]
        cols.append(v)
    if per is not None:
        cols.insert(0, t.column(per).to_numpy(zero_copy_only=False))
    order = np.lexsort(tuple(reversed(cols)))
    if per is None:
        return order[:n]
    g = cols[0][order]
    rank = np.zeros(len(g), dtype=np.int64)
    for i in range(1, len(g)):
        rank[i] = rank[i - 1] + 1 if g[i] == g[i - 1] else 0
    return order[rank < n]


CASES = [
    # tied scores broken by id, NaN scores after every number
    (10, [("score", "descending"), ("id", "ascending")], None),
    (10, [("score", "ascending"), ("id", "descending")], None),
    # a string tie column ahead of the id
    (25, [("score", "descending"), ("s", "ascending"),
          ("id", "ascending")], None),
    # n larger than the row count returns every row, sorted
    (5000, [("s", "descending"), ("score", "ascending"),
            ("id", "ascending")], None),
    # per-group caps, sorted by (group, key)
    (3, [("score", "descending"), ("id", "ascending")], "g"),
]


@pytest.mark.parametrize("n_blocks", [1, 7, 64])
@pytest.mark.parametrize("n,by,per", CASES)
def test_top_n_equals_one_lexsort(n_blocks, n, by, per):
    from d1_log_aggregation_ray.functions.parts import top_n
    t = _corpus()
    got = top_n(_blocks(t, n_blocks), n, by, per=per)
    want = t.take(pa.array(_reference(t, n, by, per)))
    assert got.schema == t.schema
    assert got.column("id").to_pylist() == want.column("id").to_pylist()


def test_driver_merge_is_bounded_by_fan_in(monkeypatch):
    """brute_force_topk over 64 blocks: the driver pulls at most
    k x FAN_IN (= 8) partial rows, not k x 64 — the merge tree does
    the rest in tasks — and the answer is still exact.  Blocks hold a
    full 4096-row scoring batch each, so Ray cannot bundle them into
    fewer tasks."""
    from d1_log_aggregation_ray.ops.similarity import brute_force_topk
    rng = np.random.default_rng(2)
    n, d, k = 64 * 4096, 4, 5
    mat = rng.normal(size=(n, d))
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * d),
            pa.array(mat.reshape(-1)))})
    ds = _blocks(t, 64).materialize()
    q = rng.normal(size=d)

    pulled = []
    real_get = ray.get

    def spy(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        for v in (out if isinstance(out, list) else [out]):
            if isinstance(v, pa.Table):
                pulled.append(v.num_rows)
        return out

    monkeypatch.setattr(ray, "get", spy)
    got = brute_force_topk(ds, q, k=k)
    monkeypatch.undo()

    assert 0 < sum(pulled) <= k * 8, pulled
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sc = unit @ (q / np.linalg.norm(q))
    want = np.lexsort((np.arange(n), -sc))[:k]
    assert got.column("vec_id").to_pylist() == want.tolist()


def _empty_input():
    """A 3-row int64 vec_id table filtered to zero rows upstream of
    the entry point: Ray never runs a map on the empty block, so no
    typed partial reaches the merge."""
    t = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        "label": pa.array([0, 1, 0], pa.int64()),
        "score": pa.array([0.5, 0.25, 0.75]),
    })
    return ray.data.from_arrow(t).map_batches(
        lambda b: b.filter(pc.greater(b.column("vec_id"), 10)),
        batch_format="pyarrow", zero_copy_batch=True)


def _top_n(ds):
    from d1_log_aggregation_ray.functions.parts import top_n
    return top_n(ds, 2, [("score", "descending"), ("vec_id", "ascending")])


def _brute(ds):
    from d1_log_aggregation_ray.ops.similarity import brute_force_topk
    return brute_force_topk(ds, np.array([1.0, 0.0]), k=2)


def _multi(ds):
    from d1_log_aggregation_ray.ops.similarity import brute_force_multi_topk
    return brute_force_multi_topk(ds, np.eye(2), k=2)


def _hard_neg(ds):
    from d1_log_aggregation_ray.ops.similarity import hard_negative_topk
    return hard_negative_topk(ds, np.eye(2), np.array([0, 1]), k=2)


def _lsh(ds):
    from d1_log_aggregation_ray.ops.similarity import lsh_topk
    return lsh_topk(ds, np.array([1.0, 0.0]), k=2)


def _sample(ds):
    from d1_log_aggregation_ray.ops.split import exact_sample
    return exact_sample(ds, n=2, id_col="vec_id")


@pytest.mark.parametrize("entry", [_top_n, _brute, _multi, _hard_neg,
                                   _lsh, _sample])
def test_empty_input_gives_typed_empty_result(entry):
    out = entry(_empty_input())
    assert out.num_rows == 0
    assert out.schema.field("vec_id").type == pa.int64()
