"""The high-cardinality hash-partition aggregate must match a pandas
oracle exactly (int, string and composite keys), and the exchange
primitive under it keeps every key in one partition."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from d1_log_aggregation_ray.functions import parts
from d1_log_aggregation_ray.functions.parts import exchange, part_ids
from d1_log_aggregation_ray.stages.aggregate import hash_partition_aggregate


def _ds(t: pa.Table) -> ray.data.Dataset:
    return ray.data.from_arrow(t).map_batches(
        lambda b: b, batch_size=1000, batch_format="pyarrow")


def test_hash_partition_aggregate_matches_pandas():
    rng = np.random.RandomState(7)
    n = 20_000
    t = pa.table({
        "ki": pa.array(rng.randint(0, 5000, n)),
        "ks": pa.array([f"u{v}" for v in rng.randint(0, 3000, n)]),
        "v": pa.array(rng.randint(-100, 100, n)),
    })
    df = t.to_pandas()

    got = hash_partition_aggregate(_ds(t), ["ki"], [("v", "min")]).to_pandas()
    want = df.groupby("ki")["v"].min().reset_index().rename(
        columns={"v": "v_min"})
    pd.testing.assert_frame_equal(
        got.sort_values("ki").reset_index(drop=True)[["ki", "v_min"]],
        want.sort_values("ki").reset_index(drop=True))

    got = hash_partition_aggregate(_ds(t), ["ks"], [("v", "sum")]).to_pandas()
    want = df.groupby("ks")["v"].sum().reset_index().rename(
        columns={"v": "v_sum"})
    pd.testing.assert_frame_equal(
        got.sort_values("ks").reset_index(drop=True)[["ks", "v_sum"]],
        want.sort_values("ks").reset_index(drop=True))

    # composite key, partitioned on the first component only
    got = hash_partition_aggregate(_ds(t), ["ki", "ks"],
                                   [([], "count_all")]).to_pandas()
    want = (df.groupby(["ki", "ks"]).size().reset_index(name="count_all"))
    g = got.sort_values(["ki", "ks"]).reset_index(drop=True)
    w = want.sort_values(["ki", "ks"]).reset_index(drop=True)
    assert len(g) == len(w)
    assert (g["ki"].values == w["ki"].values).all()
    assert (g["count_all"].values == w["count_all"].values).all()


def test_uint64_hash_keys_above_2_63():
    """uint64 key columns (the house 64-bit hash type) with values >=
    2^63 must partition via bit-reinterpretation, not a value cast
    that raises ArrowInvalid."""
    vals = np.array([1, 2**63 + 5, 2**64 - 1, 2**63 + 5], dtype=np.uint64)
    t = pa.table({"h": pa.array(vals), "v": pa.array([1, 2, 3, 4])})
    got = hash_partition_aggregate(_ds(t), ["h"], [("v", "min")]
                                   ).to_pandas()
    assert len(got) == 3
    assert got.set_index("h")["v_min"].to_dict()[2**63 + 5] == 2
    df = pd.DataFrame({"h": vals, "part": part_ids(t.column("h"), 4)})
    assert df.groupby("h")["part"].nunique().max() == 1


def test_part_ids_key_locality():
    """Every distinct key value maps to exactly one partition id, for
    string, integer (with nulls) and fixed-size binary keys."""
    cols = [
        pa.array([f"c{i % 97}" for i in range(5000)]),
        pa.array([None if i % 13 == 0 else i % 97 for i in range(5000)],
                 pa.int64()),
        pa.array([bytes([i % 97]) * 16 for i in range(5000)],
                 pa.binary(16)),
    ]
    for col in cols:
        p = part_ids(col, 8)
        assert p.dtype == np.int64 and p.min() >= 0 and p.max() < 8
        df = pd.DataFrame({"k": col.to_pylist(), "part": p})
        assert df.groupby("k", dropna=False)["part"].nunique().max() == 1
        assert df["part"].nunique() > 1


def test_exchange_calls_fn_on_nonempty_partitions_only(monkeypatch):
    """With far more partitions than distinct keys, every call sees
    rows, the key's own columns and no partition column, and each key
    lands in exactly one call."""
    monkeypatch.setattr(parts, "_cpus", lambda: 32)   # P = 64
    t = pa.table({"k": pa.array([i % 3 for i in range(600)], pa.int64()),
                  "v": pa.array(np.arange(600))})

    def fn(group: pa.Table) -> pa.Table:
        assert group.num_rows > 0
        assert group.column_names == ["k", "v"]
        ks, n = np.unique(group.column("k").to_numpy(), return_counts=True)
        return pa.table({"k": pa.array(ks), "n": pa.array(n)})

    got = exchange(_ds(t), "k", fn).to_pandas().sort_values("k")
    assert got["k"].tolist() == [0, 1, 2]     # one call per key
    assert got["n"].tolist() == [200, 200, 200]

