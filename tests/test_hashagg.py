"""The high-cardinality hash-partition aggregate must match a pandas
oracle exactly (int, string and composite keys)."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from d1_log_aggregation_ray.stages.aggregate import (
    hash_partition_aggregate, add_part_column)


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

    got = hash_partition_aggregate(_ds(t), ["ki"], [("v", "min")],
                                   n_parts=16).to_pandas()
    want = df.groupby("ki")["v"].min().reset_index().rename(
        columns={"v": "v_min"})
    pd.testing.assert_frame_equal(
        got.sort_values("ki").reset_index(drop=True)[["ki", "v_min"]],
        want.sort_values("ki").reset_index(drop=True))

    got = hash_partition_aggregate(_ds(t), ["ks"], [("v", "sum")],
                                   n_parts=16).to_pandas()
    want = df.groupby("ks")["v"].sum().reset_index().rename(
        columns={"v": "v_sum"})
    pd.testing.assert_frame_equal(
        got.sort_values("ks").reset_index(drop=True)[["ks", "v_sum"]],
        want.sort_values("ks").reset_index(drop=True))

    # composite key, partitioned on the first component only
    got = hash_partition_aggregate(_ds(t), ["ki", "ks"],
                                   [([], "count_all")],
                                   n_parts=16).to_pandas()
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
    got = hash_partition_aggregate(_ds(t), ["h"], [("v", "min")],
                                   n_parts=4).to_pandas()
    assert len(got) == 3
    assert got.set_index("h")["v_min"].to_dict()[2**63 + 5] == 2
    out = add_part_column(t, "h", 4)
    df = out.to_pandas()
    assert df.groupby("h")["_part"].nunique().max() == 1


def test_add_part_column_key_locality():
    """Every distinct key value maps to exactly one partition id."""
    t = pa.table({"k": pa.array([f"c{i % 97}" for i in range(5000)])})
    out = add_part_column(t, "k", 8)
    df = out.to_pandas()
    assert df.groupby("k")["_part"].nunique().max() == 1
    assert df["_part"].nunique() > 1

