"""Property-based path equivalence: the shuffle-free bucket scan and
the general groupby scan must produce identical repeat-visit flags on
arbitrary inputs (dup keys, null ts, out-of-order, multi-role gates)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from d1_log_aggregation_ray.config import PipelineConfig
from d1_log_aggregation_ray.stages.window import bucket_window_scan
from window_reference import repeat_visit_group

CFG = PipelineConfig(gate_roles=("assistant", "tool"))

US = 1_000_000

rows = st.lists(
    st.tuples(
        st.integers(0, 3),                       # conv index
        st.integers(0, 15),                      # turn_idx (dups possible)
        st.sampled_from(["user", "assistant", "tool", "critic"]),
        st.one_of(st.none(), st.integers(0, 120)),  # ts seconds or null
    ),
    min_size=1, max_size=60)


def _table(data):
    return pa.table({
        "conv_id": pa.array([f"c{c}" for c, _, _, _ in data]),
        "turn_idx": pa.array([t for _, t, _, _ in data], pa.int32()),
        "role": pa.array([r for _, _, r, _ in data]),
        "ts": pa.array([None if s is None else s * US
                        for _, _, _, s in data], pa.timestamp("us")),
    })


@given(rows)
@settings(max_examples=200, deadline=None)
def test_bucket_scan_equals_groupby_scan(data):
    t = _table(data)
    a = bucket_window_scan(t, CFG)
    # general path: apply per conv group, then concatenate
    parts = []
    for c in sorted(set(t.column("conv_id").to_pylist())):
        import pyarrow.compute as pc
        grp = t.filter(pc.equal(t.column("conv_id"), c))
        parts.append(repeat_visit_group(grp, CFG))
    b = pa.concat_tables(parts)
    key = lambda tb: sorted(zip(tb.column("conv_id").to_pylist(),
                                tb.column("turn_idx").to_pylist(),
                                tb.column("is_repeat_visit").to_pylist()))
    assert key(a) == key(b)
    # dedup invariant: (conv_id, turn_idx) unique in output
    pairs = list(zip(a.column("conv_id").to_pylist(),
                     a.column("turn_idx").to_pylist()))
    assert len(pairs) == len(set(pairs))
