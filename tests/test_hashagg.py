"""The high-cardinality hash-partition aggregate must match a pandas
oracle exactly (int, string and composite keys), and the exchange
primitive under it keeps every key in one partition."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from d1_log_aggregation_ray.functions import parts
from d1_log_aggregation_ray.functions.parts import (
    arrow_block_refs, exchange, part_ids)
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

    out = exchange(_ds(t), "k", fn)
    got = out.to_pandas().sort_values("k")
    assert got["k"].tolist() == [0, 1, 2]     # one call per key
    assert got["n"].tolist() == [200, 200, 200]
    # one block per non-empty partition, never an empty one
    blocks = ray.get(arrow_block_refs(out))
    assert len(blocks) == 3
    assert all(b.num_rows for b in blocks)


def _key_counts():
    """fn for the exchange tests: row count per distinct key, nulls
    included (a closure, so Ray workers unpickle it by value)."""
    def fn(group: pa.Table) -> pa.Table:
        assert group.num_rows > 0
        g = group.group_by(["k"]).aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])
    return fn


def _blocks(t: pa.Table, n: int) -> ray.data.Dataset:
    step = -(-t.num_rows // n)
    return ray.data.from_arrow([t.slice(i, step)
                                for i in range(0, t.num_rows, step)])


def _pandas_counts(t: pa.Table) -> pd.DataFrame:
    return (t.to_pandas().groupby("k", dropna=False).size()
            .reset_index(name="n"))


def _check(got: pd.DataFrame, want: pd.DataFrame) -> None:
    # each key in exactly one call: one output row per distinct key
    assert len(got) == len(want)
    counts = lambda df: {None if pd.isna(k) else k: n
                         for k, n in zip(df["k"], df["n"])}
    assert counts(got) == counts(want)


def test_exchange_zero_row_input_gives_zero_row_dataset():
    t = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "v": pa.array([1, 2])})
    want = _pandas_counts(t.slice(0, 0))
    # every row filtered out, and zero-row upstream blocks (schemaless
    # when a map drops every row), which no mapper may be handed
    for ds in (_ds(t).filter(expr="v > 10"),
               _ds(t).map_batches(lambda b: b.slice(0, 0),
                                  batch_format="pyarrow")):
        out = exchange(ds, "k", _key_counts())
        assert out.count() == len(want) == 0
        assert out.to_pandas().empty


def test_exchange_null_keys_colocate():
    """NULL integer keys and NULL string keys each land in one call,
    across many input blocks."""
    n = 3000
    ints = pa.table({"k": pa.array(
        [None if i % 7 == 0 else i % 50 for i in range(n)], pa.int64()),
        "v": pa.array(np.arange(n))})
    strs = pa.table({"k": pa.array(
        [None if i % 5 == 0 else f"s{i % 40}" for i in range(n)]),
        "v": pa.array(np.arange(n))})
    for t in (ints, strs):
        got = exchange(_blocks(t, 12), "k", _key_counts()).to_pandas()
        _check(got, _pandas_counts(t))
        assert got["k"].isna().sum() == 1


def test_exchange_many_input_blocks_p64(monkeypatch):
    """>= 64 input blocks into 64 partitions: every key in one call,
    counts exact."""
    monkeypatch.setattr(parts, "_cpus", lambda: 32)   # P = 64
    rng = np.random.RandomState(3)
    t = pa.table({"k": pa.array(rng.randint(0, 500, 6400)),
                  "v": pa.array(np.arange(6400))})
    ds = _blocks(t, 64)
    assert ds.num_blocks() == 64
    out = exchange(ds, "k", _key_counts())
    _check(out.to_pandas(), _pandas_counts(t))
    assert all(b.num_rows for b in ray.get(arrow_block_refs(out)))


def test_exchange_fn_exception_keeps_its_type():
    class Boom(ValueError):
        pass

    def fn(group: pa.Table) -> pa.Table:
        raise Boom("bad partition")

    t = pa.table({"k": pa.array([1, 2, 3]), "v": pa.array([1, 2, 3])})
    with pytest.raises(Boom, match="bad partition"):
        exchange(_ds(t), "k", fn).to_pandas()



def _group_counts(seen: list | None = None):
    """fn for exchange_groups: one row per call, (key, rows, calls=1)."""
    def fn(group: pa.Table) -> pa.Table:
        assert group.num_rows > 0
        k = group.column("k").unique()
        assert len(k) == 1               # one key value per call
        return pa.table({"k": k, "n": pa.array([group.num_rows]),
                         "calls": pa.array([1])})
    return fn


def test_exchange_groups_one_call_per_key(monkeypatch):
    """Many keys share each partition (P = 8, 300 keys), and
    exchange_groups still calls fn once per key value."""
    monkeypatch.setattr(parts, "_cpus", lambda: 4)    # P = 8
    rng = np.random.RandomState(5)
    t = pa.table({"k": pa.array(rng.randint(0, 300, 6000)),
                  "v": pa.array(np.arange(6000))})
    got = parts.exchange_groups(_blocks(t, 10), "k",
                                _group_counts()).to_pandas()
    assert (got["calls"] == 1).all()
    _check(got, _pandas_counts(t))
    assert len(got) == 300 > parts.hash_parts()


def test_exchange_groups_null_keys_form_one_group():
    n = 2000
    ints = pa.table({"k": pa.array(
        [None if i % 7 == 0 else i % 30 for i in range(n)], pa.int64()),
        "v": pa.array(np.arange(n))})
    strs = pa.table({"k": pa.array(
        [None if i % 5 == 0 else f"s{i % 20}" for i in range(n)]),
        "v": pa.array(np.arange(n))})
    for t in (ints, strs):
        got = parts.exchange_groups(_blocks(t, 8), "k",
                                    _group_counts()).to_pandas()
        _check(got, _pandas_counts(t))
        assert got["k"].isna().sum() == 1


def test_exchange_groups_zero_row_input_gives_zero_row_dataset():
    t = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "v": pa.array([1, 2])})
    out = parts.exchange_groups(_ds(t).filter(expr="v > 10"), "k",
                                _group_counts())
    assert out.count() == 0
    assert out.to_pandas().empty


def test_exchange_groups_rows_match_pandas():
    """fn sees each key's rows in input order: a per-key running sum
    equals pandas' groupby cumsum."""
    rng = np.random.RandomState(11)
    t = pa.table({"k": pa.array([f"u{v}" for v in rng.randint(0, 40, 3000)]),
                  "v": pa.array(rng.randint(-50, 50, 3000))})

    def running(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy()
        return group.append_column("cum", pa.array(np.cumsum(v)))

    got = parts.exchange_groups(ray.data.from_arrow(t), "k",
                                running).to_pandas()
    want = t.to_pandas()
    want["cum"] = want.groupby("k")["v"].cumsum()
    key = ["k", "v", "cum"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        want[key].sort_values(key).reset_index(drop=True))


_FAIL_SCRIPT = """
import gc, time
import pyarrow as pa
import ray, ray.data
ray.init(address="local", num_cpus=2, include_dashboard=False)
from d1_log_aggregation_ray.functions.parts import (exchange, hash_parts,
                                                    part_ids)

class Boom(ValueError):
    pass

def fn(group):
    raise Boom("bad partition")

keys = pa.array([0, 1, 2])
assert len(set(part_ids(keys, hash_parts()))) == 3   # three partitions
t = pa.table({"k": pa.concat_arrays([keys] * 10), "v": list(range(30))})
try:
    exchange(ray.data.from_arrow(t), "k", fn)
except Boom:
    print("caught Boom")
gc.collect()
time.sleep(2)   # Ray logs an unhandled task error when its ref is freed
ray.shutdown()
"""


_MAPPER_FAIL_SCRIPT = """
import gc, time
import pyarrow as pa
import ray, ray.data
ray.init(address="local", num_cpus=2, include_dashboard=False)
from d1_log_aggregation_ray.functions.parts import exchange

t = pa.table({"k": list(range(40)), "v": list(range(40))})
ds = ray.data.from_arrow([t.slice(i, 10) for i in range(0, 40, 10)])
try:
    exchange(ds, "missing", lambda g: g)   # every mapper fails
except KeyError:
    print("caught KeyError")
gc.collect()
time.sleep(2)   # Ray logs an unhandled task error when its ref is freed
ray.shutdown()
"""


def _run_script(script: str):
    import os
    import subprocess
    import sys
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (repo, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          cwd=repo, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "Unhandled error" not in proc.stderr, proc.stderr[-3000:]
    return proc


def test_exchange_failing_partitions_leave_no_unhandled_errors():
    """fn raising in three partitions raises its own type once, and
    no failed task is left for Ray to log as an unhandled error."""
    assert "caught Boom" in _run_script(_FAIL_SCRIPT).stdout


def test_exchange_failing_mappers_leave_no_unhandled_errors():
    """A key column the input lacks fails every mapper: the caller
    sees KeyError, and no failed mapper return is left for Ray to log
    as an unhandled error."""
    assert "caught KeyError" in _run_script(_MAPPER_FAIL_SCRIPT).stdout


def _sides(n_left: int = 400, n_right: int = 600):
    """Two join sides sharing keys 10..19; keys 0..9 are left-only and
    20..29 right-only."""
    rng = np.random.RandomState(13)
    left = pa.table({"k": pa.array(rng.randint(0, 20, n_left)),
                     "a": pa.array(np.arange(n_left))})
    right = pa.table({"k": pa.array(rng.randint(10, 30, n_right)),
                      "b": pa.array(np.arange(n_right) * 10)})
    return left, right


def _frame_eq(got: pd.DataFrame, want: pd.DataFrame) -> None:
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


def test_exchange_two_inputs_join_shapes_match_pandas(monkeypatch):
    """Inner, anti and full-outer joins written as fn(left, right)
    over a two-input exchange match pandas.  With P = 64 and 30 keys,
    most partitions hold one side only, so fn must get the other
    side's columns there too."""
    monkeypatch.setattr(parts, "_cpus", lambda: 32)   # P = 64
    left, right = _sides()
    lp, rp = left.to_pandas(), right.to_pandas()
    shapes = [
        (lambda l, r: l.join(r, "k", join_type="inner"),
         lp.merge(rp, on="k")),
        (lambda l, r: l.filter(pa.array(
            ~np.isin(l.column("k").to_numpy(), r.column("k").to_numpy()))),
         lp[~lp["k"].isin(rp["k"])]),
        (lambda l, r: l.join(r, "k", join_type="full outer"),
         lp.merge(rp, on="k", how="outer")),
    ]
    for fn, want in shapes:
        got = exchange([_blocks(left, 4), _blocks(right, 6)], "k", fn)
        _frame_eq(got.to_pandas(), want)


def test_exchange_side_without_rows_in_a_partition_arrives_typed(
        monkeypatch):
    monkeypatch.setattr(parts, "_cpus", lambda: 32)   # P = 64
    left, right = _sides()

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert lt.schema.equals(pa.schema([("k", pa.int64()),
                                           ("a", pa.int64())]))
        assert rt.schema.equals(pa.schema([("k", pa.int64()),
                                           ("b", pa.int64())]))
        assert lt.num_rows + rt.num_rows > 0
        return pa.table({"nl": [lt.num_rows], "nr": [rt.num_rows]})

    got = exchange([_blocks(left, 4), _blocks(right, 6)], "k",
                   fn).to_pandas()
    assert got["nl"].sum() == left.num_rows
    assert got["nr"].sum() == right.num_rows
    assert (got["nl"] == 0).any() and (got["nr"] == 0).any()


def test_exchange_input_without_rows_comes_from_its_schema():
    """A right side with no rows at all reaches every call as its own
    zero-row table: a full-outer join keeps every left row, b NULL.
    A map over no rows has no schema: that side comes with no
    columns."""
    left, right = _sides()
    empty = _ds(right).filter(expr="b < 0")
    got = exchange([_blocks(left, 4), empty], "k",
                   lambda l, r: l.join(r, "k", join_type="full outer"))
    want = left.to_pandas().assign(b=np.nan)
    _frame_eq(got.to_pandas(), want)
    got = exchange([_blocks(left, 4), _ds(right.slice(0, 0))], "k",
                   lambda l, r: pa.table({"cols": [r.num_columns],
                                          "rows": [r.num_rows]}))
    got = got.to_pandas()
    assert len(got) > 0 and (got["cols"] == 0).all()
    assert (got["rows"] == 0).all()


def _pair_counts():
    """fn for two inputs: (key, left rows, right rows) per key seen."""
    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        kl = lt.column("k").to_numpy().astype(np.int64)
        kr = rt.column("k").to_numpy().astype(np.int64)
        k = np.union1d(kl, kr)
        return pa.table({"k": k,
                         "nl": (kl[:, None] == k).sum(0),
                         "nr": (kr[:, None] == k).sum(0)})
    return fn


def test_exchange_int32_and_int64_keys_colocate():
    left, right = _sides()
    left = left.set_column(0, "k", left.column("k").cast(pa.int32()))
    got = exchange([_blocks(left, 4), _blocks(right, 6)], "k",
                   _pair_counts()).to_pandas()
    want = (left.to_pandas().groupby("k").size().rename("nl").to_frame()
            .join(right.to_pandas().groupby("k").size().rename("nr"),
                  how="outer").fillna(0).reset_index())
    # one row per key: every key met both sides in one call
    _frame_eq(got, want)


def test_exchange_two_inputs_fn_exception_keeps_its_type():
    class Boom(ValueError):
        pass

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        raise Boom("bad join partition")

    left, right = _sides(30, 30)
    with pytest.raises(Boom, match="bad join partition"):
        exchange([_ds(left), _ds(right)], "k", fn)
