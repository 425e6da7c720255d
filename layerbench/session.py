"""One benchmark run in a fresh Ray session.

Started by run.py, which owns the deadline and the clean-up of every
process of the session; this file only measures.  The client is one
closed loop on the main thread: each call starts after the previous
call and its correctness check have returned.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time
from datetime import datetime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, ROOT)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

import ray  # noqa: E402

import corpus  # noqa: E402
import host  # noqa: E402
import ledger  # noqa: E402
from d1_log_aggregation_ray.functions import parts  # noqa: E402
from d1_log_aggregation_ray.functions.hashing import epoch_us  # noqa: E402
from d1_log_aggregation_ray.pipelines.harvest import run_harvest  # noqa: E402
from d1_log_aggregation_ray.state.manifest import Manifest  # noqa: E402

_LOG = logging.getLogger("layerbench")

#: timed calls per run even when they outlast --seconds, so that one
#: slow call (a burst of hypervisor steal) cannot move the median
MIN_CALLS = 7
#: the timed loop stops here even short of MIN_CALLS (but not short of
#: 3 calls), so a run on a host losing CPU to its hypervisor still
#: ends before run.py's deadline
MAX_MEASURE_S = 45.0
#: untraced and traced calls of a traced run (its untraced calls only
#: serve trace.overhead_s); per-layer metrics are the traced median
TRACED_CALLS = 3
#: how long Ray keeps an idle worker process; longer than any run
IDLE_WORKER_KEEP_MS = 600_000
#: untimed exchange passes before the timed ones.  With idle workers
#: kept, the first pass is ~2x slower and the next ones are steady.
WARM_PASSES = 3
#: the exchange workload's registry queries: ~37k keys, 400 groups
#: after partial aggregation, a few heavily skewed role keys
QUERIES = ("conv_dedup", "tool_transitions", "rollup_counts")
#: columns compared between base + delta and a from-scratch harvest
KEY_COLS = ["conv_id", "turn_idx", "in_partial_list", "in_full_list",
            "is_repeat_visit"]


def _parquet_files(out_dir: str) -> list[str]:
    found = []
    for d, _, files in os.walk(out_dir):
        found += [os.path.join(d, f) for f in files
                  if f.endswith(".parquet") and not f.startswith(("_", "."))]
    return sorted(found)


def _sink_rows(files: list[str]) -> dict[str, int]:
    """Rows per sink_id from the parquet footers of the written files."""
    out: dict[str, int] = {}
    for f in files:
        sink = os.path.basename(os.path.dirname(f)).split("=", 1)[1]
        out[sink] = out.get(sink, 0) + pq.ParquetFile(f).metadata.num_rows
    return out


def _manifest_sink_rows(out_dir: str) -> dict[str, int]:
    out: dict[str, int] = {}
    latest = Manifest(os.path.join(out_dir, "_manifest.jsonl")).latest_complete()
    for rec in latest.values():
        for sink, n in rec.get("per_sink_rows", {}).items():
            out[sink] = out.get(sink, 0) + int(n)
    return out


def _harvest_checks(summary: dict, out_dir: str, n_valid: int) -> tuple[list, list]:
    """Rows written equal the independent valid-turn count, and the
    per-sink counts in the parquet footers equal _manifest.jsonl."""
    fails = []
    if summary["rows_out_total"] != n_valid:
        fails.append(f"rows_out_total {summary['rows_out_total']} != "
                     f"valid turns {n_valid}")
    if summary["error_rows"]:
        fails.append(f"error_rows {summary['error_rows']}")
    files = _parquet_files(out_dir)
    footer, manifest = _sink_rows(files), _manifest_sink_rows(out_dir)
    if footer != manifest:
        fails.append(f"per-sink rows {footer} != manifest {manifest}")
    return fails, files


def _key_table(out_dir: str) -> pa.Table:
    import pyarrow.dataset as pads
    t = pads.dataset(out_dir, format="parquet", partitioning="hive",
                     ignore_prefixes=["_", "."]).to_table(columns=KEY_COLS)
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _canonical_digest(t: pa.Table) -> str:
    """Order-insensitive digest of a result: columns by name, rows
    sorted, values as Python objects (int widths do not matter)."""
    import hashlib
    cols = sorted(t.column_names)
    data = [t.column(c).to_pylist() for c in cols]
    rows = sorted(zip(*data), key=lambda r: tuple(
        (v is None, v if v is not None else 0) for v in r))
    return hashlib.md5(repr((cols, rows)).encode()).hexdigest()


class HarvestFull:
    """run_harvest(resume=False) over the seed's corpus copy."""

    name = "harvest_full"

    def __init__(self, work: str, scale: float, seed: int):
        self.work, self.scale, self.seed = work, scale, seed
        self.out = os.path.join(work, "hf_out")

    def build(self) -> None:
        base = corpus.base_corpus(self.work, self.scale)
        info = corpus.build_seeded(
            base, os.path.join(self.work, "hf_corpus"), self.seed)
        self.fx, self.n_valid = info["fx"], info["n_valid"]

    def warm(self) -> list[dict]:
        return [self.call()]

    def call(self) -> dict:
        t0 = time.perf_counter()
        s = run_harvest(self.fx, self.out, resume=False)
        wall = time.perf_counter() - t0
        hwm = host.vm_hwm_kb(os.getpid())
        fails, files = _harvest_checks(s, self.out, self.n_valid)
        out_bytes = sum(os.path.getsize(f) for f in files)
        return {"wall_s": wall, "failures": fails, "bench_hwm_kb": hwm,
                "out_bytes_per_turn": out_bytes / max(s["rows_out_total"], 1)}

    def replay(self) -> dict:
        return ledger.replay(self.fx, os.path.join(self.work, "replay_out"))


class HarvestDelta:
    """Watermark re-harvest: restore the base output (untimed), then
    time run_harvest(resume=True) over the grown corpus."""

    name = "harvest_delta"

    def __init__(self, work: str, scale: float, seed: int):
        self.work, self.scale, self.seed = work, scale, seed
        self.out = os.path.join(work, "hd_out")
        self.base_out = os.path.join(work, "hd_base_out")

    def build(self) -> None:
        base = corpus.base_corpus(self.work, self.scale)
        self.info = corpus.build_delta(
            base, os.path.join(self.work, "hd_full"),
            os.path.join(self.work, "hd_base"), self.seed)
        self.fx, self.n_valid = self.info["fx"], self.info["n_valid"]
        self.n_held = self.info["n_held"]

    def warm(self) -> list[dict]:
        """The from-scratch harvest of the grown corpus (the reference
        base + delta must reproduce), the base harvest, and one delta
        call, so the first timed call is not the first run of the
        watermark path."""
        ref_out = os.path.join(self.work, "hd_ref")
        s = run_harvest(self.fx, ref_out, resume=False)
        fails, _ = _harvest_checks(s, ref_out, self.n_valid)
        s = run_harvest(self.info["base_fx"], self.base_out, resume=False)
        fails += _harvest_checks(s, self.base_out, self.n_valid - self.n_held)[0]
        if fails:
            raise RuntimeError(f"harvest_delta set-up harvests failed: {fails}")
        self.ref = _key_table(ref_out)
        self.base_files = {os.path.relpath(f, self.base_out)
                           for f in _parquet_files(self.base_out)}
        return [self.call()]

    def call(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.base_out, self.out)
        t0 = time.perf_counter()
        s = run_harvest(self.fx, self.out, resume=True)
        wall = time.perf_counter() - t0
        hwm = host.vm_hwm_kb(os.getpid())
        fails, files = _harvest_checks(s, self.out, self.n_valid)
        if s["delta_rows_out"] != self.n_held:
            fails.append(f"delta_rows_out {s['delta_rows_out']} != "
                         f"held-back turns {self.n_held}")
        if not _key_table(self.out).equals(self.ref):
            fails.append("base + delta output != from-scratch harvest on "
                         f"{KEY_COLS}")
        new = [f for f in files
               if os.path.relpath(f, self.out) not in self.base_files]
        out_bytes = sum(os.path.getsize(f) for f in new)
        return {"wall_s": wall, "failures": fails, "bench_hwm_kb": hwm,
                "out_bytes_per_turn": out_bytes / max(s["delta_rows_out"], 1)}

    def replay(self) -> dict:
        latest = Manifest(os.path.join(
            self.base_out, "_manifest.jsonl")).latest_complete()
        floors = {b: epoch_us(datetime.fromisoformat(r["max_ts"]))
                  for b, r in latest.items() if r.get("max_ts")}
        return ledger.replay(self.fx, os.path.join(self.work, "replay_out"),
                             floors=floors)


class Exchange:
    """One pass over three registry queries, each crossing one hash
    exchange.  The queries read the package's fixed seed-42 corpus, so
    the seed only chooses their order."""

    name = "exchange"

    def __init__(self, work: str, scale: float, seed: int):
        self.work, self.scale, self.seed = work, scale, seed
        self.order = [QUERIES[i] for i in
                      np.random.default_rng(seed).permutation(len(QUERIES))]
        self.last_walls: dict[str, float] = {}

    def build(self) -> None:
        self.fx = corpus.base_corpus(self.work, self.scale)
        self.sf_dir = corpus.oracle_tables(self.work, self.scale)

    def oracle(self) -> None:
        """Digest of each query's DuckDB oracle from oracle_sql_strings."""
        import duckdb
        from d1_log_aggregation_ray.pipelines.queries import (
            RAY_QUERIES, oracle_sql_strings)
        self.queries = RAY_QUERIES
        sqls = oracle_sql_strings(self.sf_dir)
        con = duckdb.connect()
        try:
            self.expected = {q: _canonical_digest(con.execute(sqls[q]).arrow())
                             for q in QUERIES}
        finally:
            con.close()
        self.n_valid = sum(
            int(pc.sum(corpus.valid_mask(pq.read_table(
                p, columns=["conv_id"]))).as_py() or 0)
            for p in corpus.parts(self.fx))

    def warm(self) -> list[dict]:
        return [self.call() for _ in range(WARM_PASSES)]

    def _collect(self, res) -> pa.Table:
        if isinstance(res, pa.Table):
            return res
        blocks = [b for b in ray.get(parts.arrow_block_refs(res))
                  if b.num_rows]
        return pa.concat_tables(blocks) if blocks else pa.table({})

    def call(self) -> dict:
        results, walls = {}, {}
        for q in self.order:
            t0 = time.perf_counter()
            results[q] = self._collect(self.queries[q](self.sf_dir))
            walls[q] = time.perf_counter() - t0
        hwm = host.vm_hwm_kb(os.getpid())
        self.last_walls = walls
        fails = [f"{q} digest != DuckDB oracle" for q in QUERIES
                 if _canonical_digest(results[q]) != self.expected[q]]
        out_bytes = sum(t.nbytes for t in results.values())
        return {"wall_s": sum(walls.values()), "failures": fails,
                "bench_hwm_kb": hwm,
                "out_bytes_per_turn": out_bytes / self.n_valid,
                "query_wall_s": walls}

    def replay(self) -> dict:
        """The registry queries run none of the harvest kernels."""
        return dict.fromkeys(ledger.KERNEL_METRICS, 0)


WORKLOADS = {w.name: w for w in (HarvestFull, HarvestDelta, Exchange)}


def _sample(wl, marker: str, samples: list, phase: str) -> dict:
    """One call with its host context, appended to the run's samples.
    This process's VmHWM is reset first, so the call reports its own
    peak, read before its correctness check."""
    host.reset_hwm(os.getpid())
    load, j0 = host.load1(), host.cpu_jiffies()
    c0 = host.session_cpu_s(marker)
    r = wl.call()
    r.update(phase=phase, load1=load,
             session_cpu_s=host.session_cpu_s(marker) - c0,
             steal_share=host.steal_share(j0, host.cpu_jiffies()))
    for f in r["failures"]:
        _LOG.error("%s call failed: %s", wl.name, f)
    samples.append(r)
    return r


def _loop(wl, marker: str, seconds: float, min_calls: int,
          samples: list) -> list[dict]:
    """Closed loop: call until `seconds` have passed and at least
    `min_calls` calls were made, or MAX_MEASURE_S have passed."""
    out = []
    t0 = time.perf_counter()
    while len(out) < min_calls or time.perf_counter() - t0 < seconds:
        if len(out) >= 3 and time.perf_counter() - t0 >= MAX_MEASURE_S:
            _LOG.warning("%s: stopped after %d calls at the %g s cap",
                         wl.name, len(out), MAX_MEASURE_S)
            break
        out.append(_sample(wl, marker, samples, "untraced"))
    return out


def _metric_units() -> dict[str, str]:
    """Metric name -> unit, from the benchmark's declaration."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args) -> dict:
    work = os.path.abspath(args.work)
    wl = WORKLOADS[args.workload](work, args.scale, args.seed)
    rec: dict = {"workload": wl.name, "seed": args.seed, "scale": args.scale,
                 "seconds": args.seconds, "trace": args.trace,
                 "cpus": args.cpus, "ray_tmp": args.ray_tmp,
                 "host": host.fingerprint(),
                 "client": "1 closed-loop client on the main thread",
                 "samples": []}
    if wl.name == "exchange":
        rec["note"] = ("registry queries read the fixed seed-42 corpus; the "
                       "seed only reorders the queries")

    t0 = time.perf_counter()
    # Ray kills a worker idle for 1 s once the pool holds more than
    # num_cpus workers.  The client's correctness check between calls
    # idles the pool for longer, so every call would start new worker
    # processes and the exchange pass would swing between ~5 s and
    # ~9 s.  Idle workers are kept for the run instead, so timed calls
    # run on the workers warm-up started.
    ray.init(num_cpus=args.cpus, include_dashboard=False,
             _temp_dir=args.ray_tmp, object_store_memory=10**9,
             logging_level=logging.ERROR, log_to_driver=False,
             _system_config={"idle_worker_killing_time_threshold_ms":
                             IDLE_WORKER_KEEP_MS})
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    init_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    wl.build()
    build_s = time.perf_counter() - t0
    if isinstance(wl, Exchange):
        t0 = time.perf_counter()
        wl.oracle()
        rec["oracle_s"] = time.perf_counter() - t0  # not part of set-up
    t0 = time.perf_counter()
    warm = wl.warm()
    warm_s = time.perf_counter() - t0
    for r in warm:
        if r["failures"]:
            raise RuntimeError(f"{wl.name} warm-up failed: {r['failures']}")
    setup_s = init_s + build_s + warm_s
    rec["setup"] = {"ray_init_s": init_s, "build_s": build_s,
                    "warm_s": warm_s,
                    "warm_calls_s": [r["wall_s"] for r in warm],
                    "setup_s": setup_s}

    # the Ray processes' peaks from here on cover only the timed calls
    host.reset_session_hwm(args.ray_tmp)
    untraced = _loop(wl, args.ray_tmp, args.seconds,
                     TRACED_CALLS if args.trace else MIN_CALLS,
                     rec["samples"])
    wall_s = statistics.median(s["wall_s"] for s in untraced)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "turns_per_s": wl.n_valid / wall_s,
        "out_bytes_per_turn": statistics.median(
            s["out_bytes_per_turn"] for s in untraced),
    }
    if args.trace:
        layers: list[dict] = []
        traced = []
        for _ in range(TRACED_CALLS):
            captured: list = []
            with ledger.capture_stats(captured):
                r = _sample(wl, args.ray_tmp, rec["samples"], "traced")
            traced.append(r)
            layer = ledger.ray_layers(captured, r["wall_s"], args.cpus)
            # queries a workload does not run cost 0 s on it
            for q in QUERIES:
                layer[f"pipelines.queries.{q}.wall_s"] = (
                    wl.last_walls[q] if isinstance(wl, Exchange) else 0.0)
            layers.append(layer)
        values = {k: statistics.median(d[k] for d in layers)
                  for k in layers[0]}
        shutil.rmtree(os.path.join(work, "replay_out"), ignore_errors=True)
        values.update(wl.replay())
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall_s)
    # VmHWM is read before shutdown, while the session's processes live
    peak = (max(s["bench_hwm_kb"] for s in untraced)
            + host.session_hwm_kb(args.ray_tmp)) / 1024.0
    if not args.trace:
        values["peak_rss_mb"] = peak
    ray.shutdown()

    units = _metric_units()
    failed = sum(1 for s in rec["samples"] if s["failures"])
    rec.update(attempted=len(rec["samples"]), failed=failed,
               peak_rss_mb=peak,
               metrics={k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
    return rec




def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s layerbench %(message)s")
    rec = run(args)
    rec_dir = os.path.join(args.work, "records")
    os.makedirs(rec_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(rec_dir, name), "w") as f:
        json.dump(rec, f, indent=1, default=str)
    with open(args.result, "w") as f:
        json.dump({"correct": rec["failed"] == 0,
                   "attempted": rec["attempted"], "failed": rec["failed"],
                   "metrics": rec["metrics"]}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
