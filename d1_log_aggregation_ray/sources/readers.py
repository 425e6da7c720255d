"""Sources: transcript reader + side-input loaders.

Reference analogs:
  - S1/S2 paginated node log readers (v1/v2 NodeCommunication.java:44-160)
    -> `ray.data.read_parquet`; Ray's fragment-based splitting replaces
    manual REST paging and the S3 date-bisection skew splitter.
  - S5 robot/IP/GeoIP side-input loaders (LogHarvesterTask.java:237-294)
    -> driver-side pyarrow reads, packed into a small `SideTables` struct
    that is `ray.put` once and shared by every enrichment actor
    (broadcast, never re-shipped per batch).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import BUCKET_TASK_CPUS


#: read-task retry budget: a transient in-task failure (flaky FS/object
#: store) re-executes ONLY the failed per-bucket read task — the wave
#: keeps streaming (C5 at task granularity; the driver-side wave retry
#: in pipelines/harvest.py remains the coarse backstop, reference
#: LogHarvesterTask.java:311-329)
READ_TASK_RETRIES = 4

#: test-only fault injection: when set to a file path before the
#: Dataset is BUILT, each read task that finds the file consumes it
#: once and raises OSError — used by pytest to prove task-level retry
#: recovers without a wave restart.  Never set in production code.
_FAULT_ONCE_PATH: str | None = None


def read_transcripts(fx_dir: str, buckets: list[int] | None = None,
                     columns: list[str] | None = None,
                     one_block_per_bucket: bool = False) -> ray.data.Dataset:
    """Read the transcript corpus (optionally a subset of buckets).

    Buckets are the independent harvest/resume units (the "node" analog);
    a bucket == one parquet file written by the generator, and convs
    never span buckets.  With one_block_per_bucket=True, each bucket
    file becomes exactly one block, so a downstream
    map_batches(batch_size=None) sees whole buckets — the partitioning
    contract the shuffle-free window scan relies on.
    """
    tdir = os.path.join(fx_dir, "transcripts")
    if buckets is None:
        import glob
        paths = sorted(glob.glob(os.path.join(tdir, "part-*.parquet")))
    else:
        paths = [os.path.join(tdir, f"part-{b:02d}.parquet") for b in buckets]
    if one_block_per_bucket:
        # CONTRACTUAL whole-file blocks: the parquet read happens inside
        # the map task (one task per file), so a bucket can never be
        # split across blocks — override_num_blocks is only a hint and a
        # silently split bucket would corrupt the window scan.  IO still
        # runs fully parallel across tasks.
        import time as _time

        import pyarrow.parquet as pq
        fault = _FAULT_ONCE_PATH  # closure-captured at graph build

        def load_file(batch: "pa.Table") -> "pa.Table":
            assert batch.num_rows == 1
            path = batch.column("path")[0].as_py()
            last: Exception | None = None
            # bounded IN-TASK retry: a transient OSError re-reads this
            # ONE file without restarting the wave.  Deliberately not
            # Ray-level retry_exceptions — a differing ray_remote_arg
            # breaks read->scan operator FUSION and pushes every raw
            # bucket table through the object store (measured +0.3 s on
            # the sf0.1 harvest).  Worker-death retries stay covered by
            # Ray's default task max_retries.
            for attempt in range(1 + READ_TASK_RETRIES):
                try:
                    if fault and os.path.exists(fault):
                        try:
                            os.remove(fault)  # consume: one attempt fails
                        except OSError:
                            pass
                        raise OSError("injected per-task read fault")
                    return pq.read_table(path, columns=columns)
                except OSError as err:
                    last = err
                    if attempt < READ_TASK_RETRIES:
                        _time.sleep(min(0.2 * (attempt + 1), 2.0))
            raise last

        ds = ray.data.from_items([{"path": p} for p in paths],
                                 override_num_blocks=len(paths))
        # BUCKET_TASK_CPUS matches the downstream per-bucket scan stage
        # so load+scan FUSE into one task (raw bytes never hit the
        # object store) while the scan stage stays unfused from the
        # slice stage (see harvest.build_pipeline)
        return ds.map_batches(load_file, batch_size=None,
                              batch_format="pyarrow",
                              num_cpus=BUCKET_TASK_CPUS)
    return ray.data.read_parquet(paths, columns=columns)


@dataclass
class SideTables:
    """Broadcast side inputs (all small; one ray.put for the whole set)."""
    # conv_meta (sysmeta analog): parallel arrays keyed by conv_id
    meta_format_id: pa.Array
    meta_series_id: pa.Array
    meta_size: np.ndarray           # int64, -1 for "no entry" handled via take
    meta_rights_holder: pa.Array
    meta_read_permission: pa.Array  # list<string>
    # tool -> family (ObjectFormatCache analog)
    tool_keys: pa.Array
    tool_family: pa.Array
    # range_list (webRobotIPs CIDR analog): merged, sorted, non-overlapping
    # [lo, hi] intervals over the 32-bit md5 hash space + exact keys
    range_lo: np.ndarray            # uint64 sorted
    range_hi: np.ndarray
    # DRIVER-PREBUILT lookup indexes (built once here, shipped to every
    # worker): fixed-width numpy string arrays resolved via vectorized
    # np.searchsorted.  Python dict/set builds of 100k+ strings take
    # seconds per worker under a concurrent fleet start (GIL + allocator
    # churn), so workers must never build their own indexes.
    # membership (DataONE_IPs analog) + range_list exact keys
    member_sorted: np.ndarray       # sorted U-dtype: member + exact keys
    meta_keys_sorted: np.ndarray    # sorted U-dtype conv_ids of conv_meta
    meta_perm: np.ndarray           # meta_keys_sorted[i] -> row in meta_*
    # regex banks (full/partial robot list analogs), union-compiled
    partial_union: str
    full_union: str

    def meta_rows(self, conv_ids: np.ndarray) -> np.ndarray:
        """Row in the meta_* arrays of each conv_id of a U-dtype array,
        -1 where conv_meta has none."""
        ks = self.meta_keys_sorted
        if not (len(ks) and len(conv_ids)):
            return np.full(len(conv_ids), -1, dtype=np.int64)
        pos = np.clip(np.searchsorted(ks, conv_ids), 0, len(ks) - 1)
        return np.where(ks[pos] == conv_ids, self.meta_perm[pos], -1)


def _merge_intervals(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(lo) == 0:
        return lo, hi
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    out_lo, out_hi = [lo[0]], [hi[0]]
    for i in range(1, len(lo)):
        if lo[i] <= out_hi[-1]:
            out_hi[-1] = max(out_hi[-1], hi[i])
        else:
            out_lo.append(lo[i])
            out_hi.append(hi[i])
    return np.asarray(out_lo, dtype=np.uint64), np.asarray(out_hi, dtype=np.uint64)


def union_pattern(patterns: list[str]) -> str:
    return "(?:" + ")|(?:".join(patterns) + ")"


_SIDE_CACHE: dict = {}


def load_side_tables(fx_dir: str) -> SideTables:
    """Memoized per (fx_dir, corpus-marker mtime): bench/query loops
    call this repeatedly and the parquet reads + sorted-index builds
    are identical every time."""
    try:
        stamp = os.path.getmtime(os.path.join(fx_dir, "_SUCCESS"))
    except OSError:
        stamp = None
    key = (fx_dir, stamp)
    hit = _SIDE_CACHE.get(key)
    if hit is not None:
        return hit
    out = _load_side_tables(fx_dir)
    _SIDE_CACHE.clear()
    _SIDE_CACHE[key] = out
    return out


def _load_side_tables(fx_dir: str) -> SideTables:
    meta = pq.read_table(os.path.join(fx_dir, "conv_meta.parquet"))
    etl = pq.read_table(os.path.join(fx_dir, "event_type_lookup.parquet"))
    reg = pq.read_table(os.path.join(fx_dir, "node_registry.parquet"))
    rl = pq.read_table(os.path.join(fx_dir, "range_list.parquet"))

    with open(os.path.join(fx_dir, "patterns_partial.txt")) as f:
        partial = [ln.strip() for ln in f if ln.strip()]
    with open(os.path.join(fx_dir, "patterns_full.txt")) as f:
        full = [ln.strip() for ln in f if ln.strip()]

    is_range = rl.column("kind").to_pandas() == "range"
    lo = rl.column("lo").to_pandas()[is_range].to_numpy(dtype=np.uint64)
    hi = rl.column("hi").to_pandas()[is_range].to_numpy(dtype=np.uint64)
    lo, hi = _merge_intervals(lo, hi)
    exact = rl.filter(pa.array(~is_range)).column("key").combine_chunks()

    member_list = reg.column("member_key").to_pylist() + [
        k for k in exact.to_pylist() if k is not None]
    member_sorted = np.sort(np.array(member_list, dtype=str)) if member_list \
        else np.empty(0, dtype="U1")
    meta_keys = np.array(meta.column("conv_id").to_pylist(), dtype=str)
    meta_perm = np.argsort(meta_keys, kind="stable").astype(np.int64)
    meta_keys_sorted = meta_keys[meta_perm]

    return SideTables(
        member_sorted=member_sorted,
        meta_keys_sorted=meta_keys_sorted,
        meta_perm=meta_perm,
        meta_format_id=meta.column("format_id").combine_chunks(),
        meta_series_id=meta.column("series_id").combine_chunks(),
        meta_size=meta.column("size").to_numpy(),
        meta_rights_holder=meta.column("rights_holder").combine_chunks(),
        meta_read_permission=meta.column("read_permission").combine_chunks(),
        tool_keys=etl.column("tool").combine_chunks(),
        tool_family=etl.column("tool_family").combine_chunks(),
        range_lo=lo, range_hi=hi,
        partial_union=union_pattern(partial),
        full_union=union_pattern(full),
    )
