"""Planted-structure tests for the funnel/retention/session-id family
(ops/funnel.py) and scalar quantization (ops/quantize.py): hand-built
journeys with known answers, exercising the strict-ordering semantics,
string user keys, exact gap boundaries, and degenerate ranges that the
sf-scale oracle parity tests can't isolate."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from d1_log_aggregation_ray.ops.funnel import (funnel_counts,
                                               retention_counts,
                                               session_ids)
from d1_log_aggregation_ray.ops.quantize import (global_minmax,
                                                 quantize_embeddings)

_US = 1_000_000
_DAY_US = 86_400_000_000


def _ts(us_list):
    return pa.array(np.array(us_list, dtype=np.int64),
                    pa.timestamp("us"))


def _events_ds(users, types, ts_us, ids=None):
    t = {"user_id": pa.array(users),
         "event_type": pa.array(types, pa.string()),
         "ts": _ts(ts_us)}
    if ids is not None:
        t["event_id"] = pa.array(ids, pa.int64())
    return ray.data.from_arrow(pa.table(t))


def test_funnel_strict_ordering():
    # u1 completes all 3 in order; u2 has click BEFORE view (click must
    # not count — strict t > t_prev); u3 views only; u4 view+click at
    # the SAME ts (strictly-after fails -> click not counted).
    ds = _events_ds(
        users=[1, 1, 1, 2, 2, 3, 4, 4],
        types=["view", "click", "buy",
               "click", "view",
               "view",
               "view", "click"],
        ts_us=[10, 20, 30,
               5, 10,
               7,
               40, 40])
    out = {r["event_type"]: r["n_users"]
           for r in funnel_counts(ds, ["view", "click", "buy"]).take_all()}
    assert out == {"view": 4, "click": 1, "buy": 1}


def test_funnel_string_users_and_nulls():
    t = pa.table({
        "user_id": pa.array(["a", "a", None, "b"], pa.string()),
        "event_type": pa.array(["view", "click", "view", "view"]),
        "ts": pa.array([pa.scalar(1, pa.timestamp("us")).as_py(),
                        pa.scalar(2, pa.timestamp("us")).as_py(),
                        None,
                        pa.scalar(3, pa.timestamp("us")).as_py()],
                       pa.timestamp("us")),
    })
    out = {r["event_type"]: r["n_users"]
           for r in funnel_counts(ray.data.from_arrow(t),
                                  ["view", "click"]).take_all()}
    assert out == {"view": 2, "click": 1}


def test_retention_cohort_offsets():
    # u1 first active day 0, returns day 2; u2 first active day 1 only.
    ds = _events_ds(
        users=[1, 1, 1, 2],
        types=["x"] * 4,
        ts_us=[0, 5, 2 * _DAY_US + 3, _DAY_US + 1])
    rows = {(r["cohort_day"], r["day_offset"]): r["n_users"]
            for r in retention_counts(ds).take_all()}
    import datetime
    d0 = datetime.datetime(1970, 1, 1)
    d1 = datetime.datetime(1970, 1, 2)
    assert rows == {(d0, 0): 1, (d0, 2): 1, (d1, 0): 1}


def test_session_ids_gap_boundary():
    # gap == 1800s exactly -> same session; gap > 1800s -> new session.
    ds = _events_ds(
        users=[7, 7, 7, 7],
        types=["x"] * 4,
        ts_us=[0, 1800 * _US, 1800 * _US + 1800 * _US,
               2 * 1800 * _US + 1800 * _US + 1],
        ids=[1, 2, 3, 4])
    out = {r["event_id"]: r["session_seq"]
           for r in session_ids(ds, gap_s=1800).take_all()}
    assert out == {1: 1, 2: 1, 3: 1, 4: 2}


def test_session_ids_per_user_restart():
    ds = _events_ds(
        users=[1, 1, 2],
        types=["x"] * 3,
        ts_us=[0, 10_000 * _US, 20_000 * _US],
        ids=[1, 2, 3])
    out = {r["event_id"]: r["session_seq"]
           for r in session_ids(ds, gap_s=1800).take_all()}
    # u1: second event 10000s later -> session 2; u2 starts at 1 again
    assert out == {1: 1, 2: 2, 3: 1}


def _emb_ds(vecs):
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    }))


def test_quantize_range_and_codes():
    ds = _emb_ds([[0.0, 1.0], [0.5, 0.25]])
    assert global_minmax(ds) == (0.0, 1.0)
    out = {r["vec_id"]: r["qvec"]
           for r in quantize_embeddings(ds).take_all()}
    assert out[0] == [0, 255]
    assert out[1] == [int(np.floor(0.5 * 255)), int(np.floor(0.25 * 255))]


def test_quantize_degenerate_range():
    # all-equal corpus: rng == 0 -> every code 0, no div-by-zero
    ds = _emb_ds([[3.0, 3.0], [3.0]])
    out = {r["vec_id"]: r["qvec"]
           for r in quantize_embeddings(ds).take_all()}
    assert out == {0: [0, 0], 1: [0]}


def test_quantize_empty_dataset_raises():
    ds = _emb_ds([]).filter(lambda r: False)
    with pytest.raises(ValueError):
        global_minmax(ds)


def _conv_table(convs):
    """convs: dict conv_id -> list of (role, text) in turn order."""
    cid, tix, role, text = [], [], [], []
    for c, turns in convs.items():
        for i, (r, t) in enumerate(turns):
            cid.append(c); tix.append(i); role.append(r); text.append(t)
    return pa.table({"conv_id": pa.array(cid, pa.string()),
                     "turn_idx": pa.array(tix, pa.int32()),
                     "role": pa.array(role, pa.string()),
                     "text": pa.array(text, pa.string())})


def test_fork_dedup_planted():
    from d1_log_aggregation_ray.ops.pairs import (fork_dedup_partition,
                                                  prefix_chain_scan)
    convs = {
        # chain a < b < c: only c survives
        "a": [("user", "hi"), ("assistant", "yo")],
        "b": [("user", "hi"), ("assistant", "yo"), ("user", "more")],
        "c": [("user", "hi"), ("assistant", "yo"), ("user", "more"),
              ("assistant", "done")],
        # exact duplicates: keep min conv_id
        "d1": [("user", "same"), ("assistant", "same2")],
        "d2": [("user", "same"), ("assistant", "same2")],
        # unrelated conv survives; shares first turn with a/b/c but
        # diverges at turn 2 -> NOT a prefix
        "e": [("user", "hi"), ("assistant", "different")],
    }
    from d1_log_aggregation_ray.functions.parts import part_ids
    chains = prefix_chain_scan(_conv_table(convs))
    # the whole table is one legal partition; so is every slice of a
    # hash partitioning on the chain digest
    whole = set(fork_dedup_partition(chains).column("conv_id").to_pylist())
    part = part_ids(chains.column("h64"), 4)
    survivors = set()
    for p in range(4):
        g = chains.filter(pa.array(part == p))
        if g.num_rows:
            survivors |= set(
                fork_dedup_partition(g).column("conv_id").to_pylist())
    assert whole == survivors == {"c", "d1", "e"}


def test_fork_dedup_turn_boundary():
    # a's single turn text equals b's two texts joined -- must NOT be
    # treated as a prefix (the chain hashes per-turn, not per-char)
    from d1_log_aggregation_ray.ops.pairs import (fork_dedup_partition,
                                                  prefix_chain_scan)
    convs = {
        "a": [("user", "x\x1fuser:y")],
        "b": [("user", "x"), ("user", "y"), ("user", "z")],
    }
    chains = prefix_chain_scan(_conv_table(convs))
    out = set(fork_dedup_partition(chains).column("conv_id").to_pylist())
    assert out == {"a", "b"}


def test_funnel_window_deadline():
    # u1: click 5us after view (inside window); u2: click 100us after
    # view (outside 10us window) -> drops; u3: first click misses the
    # window and a later click inside ANOTHER gap must not resurrect
    # (the window anchors to the FIRST qualifying prior step).
    ds = _events_ds(
        users=[1, 1, 2, 2, 3, 3, 3],
        types=["view", "click",
               "view", "click",
               "view", "click", "click"],
        ts_us=[0, 5,
               0, 100,
               0, 100, 200])
    out = {r["event_type"]: r["n_users"]
           for r in funnel_counts(ds, ["view", "click"],
                                  window_s=1e-5).take_all()}
    assert out == {"view": 3, "click": 1}
