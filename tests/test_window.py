"""W1 repeat-visit boundary-condition unit tests — mirrors the
reference's operator tests (ReadEventCounterCacheTest.java:40-118) with
the production boundary semantic: repeat iff prev < t < prev + 31 s
(LogEntrySolrItem.java:341-342,458-474)."""

import numpy as np
import pyarrow as pa

from d1_log_aggregation_ray.stages.window import repeat_visit_scan
from d1_log_aggregation_ray.config import PipelineConfig
from window_reference import repeat_visit_group

US = 1_000_000
END = 31 * US


def scan(ts_s, valid=None):
    ts = np.array([int(t * US) for t in ts_s], dtype=np.int64)
    v = np.ones(len(ts), bool) if valid is None else np.array(valid)
    return repeat_visit_scan(ts, v, END).tolist()


def test_basic_repeat():
    assert scan([0, 10, 20]) == [False, True, True]


def test_window_does_not_slide():
    # window anchored at first non-repeat; 3rd event is 40s after start
    assert scan([0, 25, 40]) == [False, True, False]


def test_exact_31s_is_not_repeat():
    assert scan([0, 31]) == [False, False]


def test_just_inside_31s_is_repeat():
    assert scan([0, 30.999999]) == [False, True]


def test_equal_ts_not_repeat_resets_window():
    # t == window_start fails the strict lower bound -> not a repeat,
    # window resets to the same instant
    assert scan([0, 0, 10]) == [False, False, True]


def test_out_of_order_resets_window():
    # t < window_start -> not repeat, window moves backward
    assert scan([100, 50, 60]) == [False, False, True]


def test_null_ts_skipped():
    assert scan([0, 10, 20], valid=[True, False, True]) == [False, False, True]


def test_window_reset_chain():
    # each non-repeat re-anchors the window
    assert scan([0, 32, 64, 70]) == [False, False, False, True]


def test_group_fn_sorts_and_gates():
    cfg = PipelineConfig()
    t = pa.table({
        "conv_id": ["c"] * 4,
        "turn_idx": pa.array([1, 0, 2, 3], pa.int32()),
        "role": ["assistant", "assistant", "user", "assistant"],
        "ts": pa.array([10 * US, 0, 15 * US, 20 * US], pa.timestamp("us")),
    })
    out = repeat_visit_group(t, cfg)
    # sorted by turn_idx; user row never repeat; assistants 10s,20s in window
    assert out.column("turn_idx").to_pylist() == [0, 1, 2, 3]
    assert out.column("is_repeat_visit").to_pylist() == [False, True, False, True]
