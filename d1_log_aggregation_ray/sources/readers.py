"""Sources: transcript readers + side-input loaders.

Reference analogs:
  - S1/S2 paginated node log readers (v1/v2 NodeCommunication.java:44-160)
    -> one bucket file per task: `scan_buckets` here (every registry
    query over the transcripts), the harvest's scan task in
    pipelines/harvest.py.  A conv-hash bucket file is the node analog,
    read whole with an in-task retry; it is the only way the package
    reads the transcript corpus.
  - S5 robot/IP/GeoIP side-input loaders (LogHarvesterTask.java:237-294)
    -> driver-side pyarrow reads, packed into a small `SideTables` struct
    that is `ray.put` once and shared by every enrich task (broadcast,
    never re-shipped per slice).
"""

from __future__ import annotations

import glob
import os
import re
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray


#: read retry budget of a bucket-file task: a transient OSError (flaky
#: FS) re-reads ONLY that file inside its task, and the other tasks
#: run on (C5 at task granularity; the harvest's driver-side bucket
#: retry in pipelines/harvest.py remains the coarse backstop, reference
#: LogHarvesterTask.java:311-329)
READ_TASK_RETRIES = 4

#: test-only fault injection: when set to a file path before a read is
#: SUBMITTED, each read that finds the file consumes it once and raises
#: OSError — used by pytest to prove the in-task retry recovers without
#: a bucket restart.  Never set in production code.
_FAULT_ONCE_PATH: str | None = None


def read_bucket_file(path: str, columns: list[str] | None = None,
                     fault: str | None = None) -> pa.Table:
    """Read one bucket file with a bounded IN-TASK retry: a transient
    OSError re-reads this one file without restarting its bucket.
    Worker-death retries stay covered by Ray's default task
    max_retries.  `fault` is the caller's snapshot of _FAULT_ONCE_PATH,
    taken on the driver when the read was submitted."""
    last: Exception | None = None
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
                time.sleep(min(0.2 * (attempt + 1), 2.0))
    raise last


def bucket_paths(fx_dir: str) -> dict[int, str]:
    """{bucket: path} of every bucket file of the corpus, in bucket
    order: the one reader of the generator's
    `transcripts/part-NN.parquet` layout."""
    out = {}
    for p in sorted(glob.glob(os.path.join(fx_dir, "transcripts",
                                           "part-*.parquet"))):
        m = re.search(r"part-(\d+)\.parquet$", p)
        if m:
            out[int(m.group(1))] = p
    return out


@ray.remote(num_cpus=1)
def _scan_file(path: str, columns: list[str] | None, fault: str | None,
               fn) -> pa.Table:
    return fn(read_bucket_file(path, columns, fault))


def scan_buckets(fx_dir: str, fn,
                 columns: list[str] | None = None) -> list[ray.ObjectRef]:
    """Run `fn` over each WHOLE bucket file (convs never span buckets,
    so a per-conv scan needs no shuffle): one task per file, submitted
    largest first.  Returns the tasks' table refs in bucket order."""
    paths = bucket_paths(fx_dir)
    fault = _FAULT_ONCE_PATH  # read at submit time
    refs = {b: _scan_file.remote(paths[b], columns, fault, fn)
            for b in sorted(paths, key=lambda b: -os.path.getsize(paths[b]))}
    return [refs[b] for b in paths]


@dataclass
class SideTables:
    """Broadcast side inputs (all small; one ray.put for the whole set)."""
    # conv_meta (sysmeta analog): parallel arrays keyed by conv_id
    meta_format_id: pa.Array
    meta_series_id: pa.Array
    meta_size: pa.Array
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

    def meta_columns(self, rows: np.ndarray) -> dict[str, pa.Array]:
        """The conv_meta join (J1/J3) at meta_rows indexes, one per
        output row: the five conv_meta columns, null where the row is
        -1, except size, which defaults to 0 as int64
        (LogEntrySolrItem.java:251-256)."""
        idx = pa.array(rows, mask=rows < 0)
        size = pc.fill_null(pc.take(self.meta_size, idx), 0)
        return {"format_id": pc.take(self.meta_format_id, idx),
                "series_id": pc.take(self.meta_series_id, idx),
                "size": pc.cast(size, pa.int64()),
                "rights_holder": pc.take(self.meta_rights_holder, idx),
                "read_permission": pc.take(self.meta_read_permission, idx)}


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
        meta_size=meta.column("size").combine_chunks(),
        meta_rights_holder=meta.column("rights_holder").combine_chunks(),
        meta_read_permission=meta.column("read_permission").combine_chunks(),
        tool_keys=etl.column("tool").combine_chunks(),
        tool_family=etl.column("tool_family").combine_chunks(),
        range_lo=lo, range_hi=hi,
        partial_union=union_pattern(partial),
        full_union=union_pattern(full),
    )
