"""The traced run's layer ledger.

Two sources, both measured from this process around calls into the
package's public functions:

* `capture_stats` keeps the Ray Data stats of every dataset the
  package executes from this process (harvest waves call
  `Dataset.take_all`; registry queries and the benchmark collect
  results through `functions.parts.arrow_block_refs`), and
  `ray_layers` folds them into map / exchange totals.
* `replay` re-runs the flagship's per-bucket kernels in-process on one
  core: read -> clean_project -> bucket_window_scan -> Enricher ->
  parquet write -> manifest append, timing each call.
"""

from __future__ import annotations

import contextlib
import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from d1_log_aggregation_ray.config import DEFAULT_CONFIG
from d1_log_aggregation_ray.functions import hashing, parts
from d1_log_aggregation_ray.pipelines import harvest
from d1_log_aggregation_ray.sources.readers import load_side_tables
from d1_log_aggregation_ray.stages import enrich
from d1_log_aggregation_ray.stages.enrich import Enricher, DEFAULT_RUN_TS
from d1_log_aggregation_ray.stages.project import clean_project
from d1_log_aggregation_ray.stages.window import bucket_window_scan
from d1_log_aggregation_ray.state.manifest import Manifest

#: operators of an all-to-all exchange.  StreamingRepartition (the
#: harvest's slice split) is a streaming map, not an exchange.
_EXCHANGE_OP = re.compile(
    r"^(Sort|RandomShuffle|Repartition|Aggregate|HashShuffle|Join)")


@contextlib.contextmanager
def capture_stats(sink: list):
    """Append the DatasetStats of every dataset executed from this process
    through Dataset.take_all or parts.arrow_block_refs to `sink`."""
    orig_take_all = ray.data.Dataset.take_all
    orig_refs = parts.arrow_block_refs

    def take_all(self, *a, **kw):
        out = orig_take_all(self, *a, **kw)
        sink.append(self._plan.stats())
        return out

    def arrow_block_refs(ds):
        out = orig_refs(ds)
        sink.append(ds._plan.stats())
        return out

    ray.data.Dataset.take_all = take_all
    parts.arrow_block_refs = arrow_block_refs
    try:
        yield sink
    finally:
        ray.data.Dataset.take_all = orig_take_all
        parts.arrow_block_refs = orig_refs


def _nodes(stats):
    seen, todo = set(), [stats]
    while todo:
        s = todo.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        yield s
        todo.extend(s.parents)


def ray_layers(captured: list, wall_s: float, cpus: int) -> dict:
    """Map and exchange totals over the captured datasets of one call.

    ray.map.wall_s/cpu_s are sums of task time (busy time).  An
    exchange does little work but holds the query at its barrier, so
    ray.exchange.wall_s is the elapsed span of each exchange, first
    map task start to last reduce task end, and exchange.share is that
    span's share of the call's wall time.  ray.cpu_util compares all
    task CPU with the call's wall time on the whole pool."""
    m = dict(wall=0.0, cpu=0.0, rows=0, bytes=0)
    x = dict(wall=0.0, cpu=0.0, blocks=0, empty=0)
    skew = 0.0
    spilled = 0
    for top in captured:
        spilled += int(getattr(top, "dataset_bytes_spilled", 0) or 0)
        for node in _nodes(top):
            summ = node.to_summary()
            start, end = float("inf"), float("-inf")
            for op in summ.operators_stats:
                wall = (op.wall_time or {}).get("sum", 0.0)
                cpu = (op.cpu_time or {}).get("sum", 0.0)
                if op.is_sub_operator or _EXCHANGE_OP.match(op.operator_name):
                    x["cpu"] += cpu
                    start = min(start, op.earliest_start_time)
                    end = max(end, op.latest_end_time)
                else:
                    m["wall"] += wall
                    m["cpu"] += cpu
                    m["rows"] += int((op.output_num_rows or {}).get("sum", 0))
                    m["bytes"] += int((op.output_size_bytes or {}).get("sum", 0))
            if end > start:
                x["wall"] += end - start
            meta = node.metadata
            if "SortMap" in meta and "SortReduce" in meta:
                # M map outputs x P reduce ranges intermediate blocks
                x["blocks"] += len(meta["SortMap"]) * len(meta["SortReduce"])
                x["empty"] += sum(1 for b in meta["SortReduce"]
                                  if not b.num_rows)
            for name, blocks in meta.items():
                if _EXCHANGE_OP.match(name) or len(blocks) < 2:
                    continue
                rows = np.array([b.num_rows or 0 for b in blocks], float)
                if rows.mean() > 0:
                    skew = max(skew, float(rows.max() / rows.mean()))
    return {
        "ray.map.wall_s": m["wall"], "ray.map.cpu_s": m["cpu"],
        "ray.map.rows": m["rows"], "ray.map.bytes_out": m["bytes"],
        "ray.exchange.wall_s": x["wall"], "ray.exchange.cpu_s": x["cpu"],
        "ray.exchange.blocks": x["blocks"],
        "ray.exchange.empty_blocks": x["empty"],
        "exchange.share": x["wall"] / wall_s if wall_s else 0.0,
        "ray.cpu_util": ((m["cpu"] + x["cpu"]) / (wall_s * cpus)
                         if wall_s else 0.0),
        "ray.block_skew": skew,
        "ray.spilled_bytes": spilled,
    }


class _Clock:
    """Wall and process-CPU seconds accumulated per layer name."""

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, layer: str):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall[layer] = self.wall.get(layer, 0.0) + time.perf_counter() - w
            self.cpu[layer] = self.cpu.get(layer, 0.0) + time.process_time() - c


@contextlib.contextmanager
def _count_md5(counter: list):
    """Count md5_lower64 digests: the window scan's bucket check looks
    it up on functions.hashing at call time, the Enricher through its
    module-level import."""
    orig = hashing.md5_lower64

    def counted(s):
        counter[0] += 1
        return orig(s)

    hashing.md5_lower64 = counted
    enrich.md5_lower64 = counted
    try:
        yield
    finally:
        hashing.md5_lower64 = orig
        enrich.md5_lower64 = orig


@contextlib.contextmanager
def _one_core():
    cpu, io = pa.cpu_count(), pa.io_thread_count()
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    try:
        yield
    finally:
        pa.set_cpu_count(cpu)
        pa.set_io_thread_count(io)


#: the metrics `replay` reports
KERNEL_METRICS = (
    "sources.readers.wall_s", "sources.readers.cpu_s",
    "sources.readers.rows", "sources.readers.bytes",
    "stages.project.wall_s", "stages.project.cpu_s",
    "stages.project.rows_in", "stages.project.rows_dropped",
    "stages.window.wall_s", "stages.window.cpu_s",
    "stages.window.rows", "stages.window.repeat_visits",
    "functions.hashing.md5_rows_per_turn",
    "stages.enrich.wall_s", "stages.enrich.cpu_s",
    "stages.enrich.rows", "stages.enrich.bytes_out",
    "pipelines.harvest.write.wall_s", "pipelines.harvest.write.files",
    "pipelines.harvest.write.bytes",
    "state.manifest.wall_s", "state.manifest.records",
)


def replay(fx: str, out_dir: str, floors: dict[int, int] | None = None,
           cfg=DEFAULT_CONFIG) -> dict:
    """Single-core in-process replay of the flagship kernels over every
    bucket of `fx`, writing under `out_dir`.  With `floors` (bucket ->
    watermark in epoch microseconds, the delta harvest's case) the
    whole bucket is read, cleaned and scanned but only rows past the
    bucket's watermark are enriched and written."""
    clock = _Clock()
    md5 = [0]
    n = dict(read_rows=0, read_bytes=0, rows_in=0, dropped=0, scan_rows=0,
             repeats=0, enrich_rows=0, enrich_bytes=0, files=0,
             write_bytes=0, records=0, turns=0)
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(out_dir, "_manifest.jsonl"))
    with _one_core(), _count_md5(md5):
        with clock.span("sources.readers"):
            side = load_side_tables(fx)
        e = Enricher(side, cfg, DEFAULT_RUN_TS)
        for path in sorted(os.listdir(os.path.join(fx, "transcripts"))):
            b = int(path[len("part-"):-len(".parquet")])
            path = os.path.join(fx, "transcripts", path)
            with clock.span("sources.readers"):
                raw = pq.read_table(path)
            n["read_rows"] += raw.num_rows
            n["read_bytes"] += os.path.getsize(path)
            with clock.span("stages.project"):
                clean = clean_project(raw, cfg, defer_derived=True)
            n["rows_in"] += raw.num_rows
            n["dropped"] += raw.num_rows - clean.num_rows
            n["turns"] += clean.num_rows
            with clock.span("stages.window"):
                scanned = bucket_window_scan(clean, cfg, check_bucket=True)
            n["scan_rows"] += scanned.num_rows
            n["repeats"] += int(pc.sum(scanned.column("is_repeat_visit"))
                                .as_py() or 0)
            if floors is not None:
                ts = pc.fill_null(scanned.column("ts").cast(pa.int64()),
                                  np.iinfo(np.int64).min)
                floor = floors.get(b, np.iinfo(np.int64).max)
                scanned = scanned.filter(pc.greater(ts, floor))
            if scanned.num_rows == 0:
                continue
            with clock.span("stages.enrich"):
                out = e(scanned)
            n["enrich_rows"] += out.num_rows
            n["enrich_bytes"] += out.nbytes
            with clock.span("pipelines.harvest.write"):
                for s in pc.unique(out.column("sink_id")).to_pylist():
                    sub = out.filter(pc.equal(out.column("sink_id"), s))
                    sdir = os.path.join(out_dir, f"bucket_id={b}",
                                        f"sink_id={s}")
                    os.makedirs(sdir, exist_ok=True)
                    fpath = os.path.join(sdir, "part-replay.parquet")
                    harvest._write_with_retry(
                        sub.drop_columns(["bucket_id", "sink_id"]), fpath)
                    n["files"] += 1
                    n["write_bytes"] += os.path.getsize(fpath)
            with clock.span("state.manifest"):
                manifest.append({"bucket": b, "complete": True,
                                 "rows_out": out.num_rows,
                                 "rows_in": raw.num_rows})
        with clock.span("state.manifest"):
            n["records"] = len(manifest.latest_complete())
    w, c = clock.wall, clock.cpu
    return {
        "sources.readers.wall_s": w["sources.readers"],
        "sources.readers.cpu_s": c["sources.readers"],
        "sources.readers.rows": n["read_rows"],
        "sources.readers.bytes": n["read_bytes"],
        "stages.project.wall_s": w["stages.project"],
        "stages.project.cpu_s": c["stages.project"],
        "stages.project.rows_in": n["rows_in"],
        "stages.project.rows_dropped": n["dropped"],
        "stages.window.wall_s": w["stages.window"],
        "stages.window.cpu_s": c["stages.window"],
        "stages.window.rows": n["scan_rows"],
        "stages.window.repeat_visits": n["repeats"],
        "functions.hashing.md5_rows_per_turn": md5[0] / max(n["turns"], 1),
        "stages.enrich.wall_s": w.get("stages.enrich", 0.0),
        "stages.enrich.cpu_s": c.get("stages.enrich", 0.0),
        "stages.enrich.rows": n["enrich_rows"],
        "stages.enrich.bytes_out": n["enrich_bytes"],
        "pipelines.harvest.write.wall_s": w.get("pipelines.harvest.write", 0.0),
        "pipelines.harvest.write.files": n["files"],
        "pipelines.harvest.write.bytes": n["write_bytes"],
        "state.manifest.wall_s": w.get("state.manifest", 0.0),
        "state.manifest.records": n["records"],
    }
