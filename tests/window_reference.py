"""One-conv-at-a-time repeat-visit reference (test oracle).

`bucket_window_scan` flags a whole conv-hash bucket in one vectorized
sort and pass; `repeat_visit_group` below takes one conversation's
rows and scans each gated role's turns with the engine's sequential
`repeat_visit_scan`, so a per-conv loop over it is the reference the
bucket scan is held to.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from d1_log_aggregation_ray.config import DEFAULT_CONFIG, PipelineConfig
from d1_log_aggregation_ray.stages.window import repeat_visit_scan


def repeat_visit_group(group: pa.Table,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    """One conv's repeat-visit flags.  Sort by turn_idx (the explicit
    ordering invariant, O1 — the reference merely *assumed*
    chronological order), then scan each gated role's turns."""
    group = group.sort_by("turn_idx")
    tix = group.column("turn_idx").combine_chunks().to_numpy(zero_copy_only=False)
    dup = np.zeros(len(tix), dtype=bool)
    dup[1:] = tix[1:] == tix[:-1]
    if dup.any():  # D1: keep-first on the natural key
        group = group.filter(pa.array(~dup))
    n = group.num_rows
    repeat = np.zeros(n, dtype=bool)

    roles = group.column("role")
    ts = group.column("ts").combine_chunks()
    ts_us = ts.cast(pa.int64()).fill_null(0).to_numpy(zero_copy_only=False)
    ts_ok = ts.is_valid().to_numpy(zero_copy_only=False)
    interval_end_us = cfg.repeat_visit_interval_end_s * 1_000_000

    for role in cfg.gate_roles:
        mask = pc.fill_null(pc.equal(roles, role), False).to_numpy(zero_copy_only=False)
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        repeat[idx] = repeat_visit_scan(ts_us[idx], ts_ok[idx], interval_end_us)

    return group.append_column("is_repeat_visit", pa.array(repeat))
