"""The flagship harvest pipeline: read -> clean -> window scan -> enrich.

End-to-end analog of LogHarvesterTask.harvest
(LogHarvesterTask.java:129-525), re-expressed as ONE stage list of raw
Ray tasks (_run_stages) with two terminals:

    scan task per bucket file (streaming)          [S1/S2]
      read with in-task retry                     [C5]
      -> clean_project + bucket_window_scan       [M1-M5, O1 sort + W1]
      -> past_watermark filter (delta runs only)  [A1 watermark]
      -> yield write_slice_rows slices, then the bucket's stage
         record                                   [skew-splitting]
    slice task per slice (_get_enricher)          [R1-R3, J1-J5, M4, S6]
      -> either enrich, write per-(bucket, sink) parquet and return
         the slice's lineage record (run_harvest), or return the
         enriched rows (build_pipeline, a Dataset over the slice
         tasks' tables)

Design notes (scale):
  - No all-to-all exchange: the corpus is conv-hash partitioned, so
    the order-dependent window scan runs per bucket file in place.
  - No Ray Data executor between the stages: on a small pool its
    scheduling cost more than the stages themselves.  The driver keeps
    two buckets per pool CPU in flight, multiplexes their scan
    generators and slice tasks with ray.wait and submits one slice
    task per yielded slice, so a hot bucket still fans out across the
    pool at slice granularity.
  - Side tables are ray.put once; every slice task receives the ref
    nested in a list (unresolved), so the worker-global cached Enricher
    keyed by it is reused across tasks.
  - Buckets (the generator's hash partitions; convs never span them)
    are the resume and retry unit, as the reference's Member Nodes are:
    each bucket appends its lineage and stage records to the checkpoint
    manifest as soon as its scan and every slice it fed have resolved,
    and no bucket waits for another.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import shutil
import time
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..config import PipelineConfig, DEFAULT_CONFIG
from ..functions import parts
from ..sources import readers
from ..sources.readers import load_side_tables
from ..stages.project import clean_project
from ..stages.window import bucket_window_scan
from ..stages.enrich import Enricher, DEFAULT_RUN_TS
from ..state.manifest import Manifest

_LOG = logging.getLogger(__name__)

_NO_FLOOR = np.iinfo(np.int64).min


def build_pipeline(fx_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                   buckets: list[int] | None = None,
                   run_ts: datetime = DEFAULT_RUN_TS,
                   side_ref=None) -> ray.data.Dataset:
    """The flagship stage list over the given buckets (all by default),
    closed by the row terminal: a materialized Dataset of the enriched
    records, one block per slice.  Runs eagerly, as `exchange` does;
    a failed bucket fails the call."""
    if side_ref is None:
        side_ref = ray.put(load_side_tables(fx_dir))
    if buckets is None:
        buckets = list(_corpus_buckets(fx_dir))
    outs: dict[int, list] = {}

    def keep(b, scan, slices, t0):
        outs[b] = slices

    def reraise(b, err):
        raise err

    _run_stages(fx_dir, dict.fromkeys(buckets), cfg, side_ref, _enrich_rows,
                {"cfg": cfg, "run_ts": run_ts}, keep, reraise)
    return ray.data.from_arrow_refs(
        [t for b in buckets for t, _ in outs[b]])


def scan_bucket(path: str, cfg: PipelineConfig, floor_us: int | None = None,
                fault: str | None = None):
    """The per-bucket stage: read, clean, window-scan the WHOLE bucket,
    keep only rows past `floor_us` on a delta run (None: keep all),
    then yield the rows as write_slice_rows slices and, last, the
    bucket's stage record (a dict)."""
    t0, c0 = time.perf_counter(), time.process_time()
    raw = readers.read_bucket_file(path, fault=fault)
    # defer_derived: turn_id/version_compliance are re-derived by the
    # Enricher after the scan->slice object-store hop, so ~30 B/row of
    # derivable strings never cross it
    t = clean_project(raw, cfg, defer_derived=True)
    n_clean = t.num_rows
    t = bucket_window_scan(t, cfg, check_bucket=True)
    if floor_us is not None:
        t = _past_watermark(t, floor_us)
    step = cfg.write_slice_rows
    for off in range(0, t.num_rows, step):
        yield t.slice(off, step)
    yield {"rows_read": raw.num_rows, "rows_dropped": raw.num_rows - n_clean,
           "rows_out": t.num_rows, "slices": -(-t.num_rows // step),
           "wall_s": round(time.perf_counter() - t0, 4),
           "cpu_s": round(time.process_time() - c0, 4)}


_scan_bucket = ray.remote(num_cpus=1, num_returns="streaming")(scan_bucket)


@ray.remote(num_cpus=1, num_returns=2)
def _slice(batch: pa.Table, side: list, terminal, kwargs: dict) -> tuple:
    """One slice through one terminal: (its table, [wall_s, cpu_s]).
    `side` is [side_ref]: nested, Ray leaves the ref unresolved, so
    _get_enricher's per-worker cache (keyed by the ref) hits."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = terminal(batch, side_ref=side[0], **kwargs)
    return out, [time.perf_counter() - t0, time.process_time() - c0]


def _run_stages(fx_dir: str, floors: dict[int, int | None],
                cfg: PipelineConfig, side_ref, terminal, kwargs: dict,
                commit, fail, proceed=None) -> bool:
    """Scan every bucket of `floors` ({bucket: watermark floor, None on
    a full harvest}), largest file first, and send every slice through
    `terminal`.  Returns True when `proceed()` stopped the submissions.

    Two buckets per pool CPU are in flight.  A bucket calls
    commit(bucket, scan stage record, [(out ref, timing ref) per
    slice], submit time) as soon as its scan and every slice it fed
    have resolved.  A failed bucket alone is cancelled and its
    submitted slices waited out, so no late write lands in a dir the
    caller clears; then fail(bucket, error) returns the delay before
    its scan is submitted again, or None to drop it.  `proceed` is
    polled before each scan is submitted; once it returns False, no
    scan is, and the buckets already started finish and commit.

    A scan generator's last item is its record, so each yielded ref is
    held until the next one arrives and only then submitted as a
    slice."""
    paths = readers.bucket_paths(fx_dir)
    fault = readers._FAULT_ONCE_PATH  # read at submit time
    queue = sorted(floors, key=lambda b: -os.path.getsize(paths[b]))
    # sized from the pool as parts.hash_parts is: a CPU always has a
    # next bucket queued, and the object store holds the scanned rows
    # of that many buckets at most
    window = 2 * max(1, parts._cpus())
    later: list[tuple[float, int]] = []  # (due, bucket), in due order
    live: dict[int, dict] = {}
    gens: dict = {}   # scan generator -> bucket
    waits: dict = {}  # slice timing ref -> bucket
    stopped = False

    def drop(b: int, err: Exception) -> None:
        st = live.pop(b)
        if gens.pop(st["gen"], None) is not None:
            ray.cancel(st["gen"])
        refs = [r for pair in st["slices"] for r in pair]
        for r in refs:
            waits.pop(r, None)
        if refs:
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
        delay = fail(b, err)
        if delay is not None:
            later.append((time.monotonic() + delay, b))

    try:
        while True:
            while later and later[0][0] <= time.monotonic():
                queue.insert(0, later.pop(0)[1])
            while queue and len(live) < window and not stopped:
                if proceed is not None and not proceed():
                    stopped = True
                    break
                b = queue.pop(0)
                g = _scan_bucket.remote(paths[b], cfg, floors[b], fault)
                gens[g] = b
                live[b] = {"gen": g, "t0": time.time(), "held": None,
                           "scan": None, "slices": [], "pending": 0}
            if not live:
                if stopped or not later:
                    return stopped
                time.sleep(max(0.0, later[0][0] - time.monotonic()))
                continue
            timeout = (max(0.0, later[0][0] - time.monotonic())
                       if later else None)
            ready, _ = ray.wait(list(gens) + list(waits), num_returns=1,
                                timeout=timeout)
            for r in ready:
                scanning = r in gens
                b = gens[r] if scanning else waits.pop(r)
                st = live[b]
                try:
                    if scanning:
                        try:
                            ref = next(r)
                        except StopIteration:
                            del gens[r]
                            st["scan"] = ray.get(st["held"])
                        else:
                            if st["held"] is not None:
                                pair = _slice.remote(st["held"], [side_ref],
                                                     terminal, kwargs)
                                st["slices"].append(pair)
                                waits[pair[1]] = b
                                st["pending"] += 1
                            st["held"] = ref
                    else:
                        ray.get(r)  # the slice's error, if it failed
                        st["pending"] -= 1
                except Exception as err:
                    drop(b, err)
                    continue
                if st["scan"] is not None and not st["pending"]:
                    del live[b]
                    commit(b, st["scan"], st["slices"], st["t0"])
    except BaseException:
        for st in live.values():
            ray.cancel(st["gen"])
        refs = [r for st in live.values() for pair in st["slices"]
                for r in pair]
        if refs:
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
        raise


def _past_watermark(t: pa.Table, floor_us: int) -> pa.Table:
    """Incremental delta harvest filter: the window scan ran over the
    FULL bucket (repeat-visit flags of a new turn depend on its conv's
    prior turns), but only rows past the bucket's recorded watermark
    are enriched + written; a null ts never is.  Appended rows at
    ts <= watermark (late data) are not re-harvested — exactly the
    reference's dateLogged-window semantics (LogHarvesterTask.java:
    189-204: harvest (logLastAggregated + 1ms, end])."""
    ts = pc.fill_null(t.column("ts").cast(pa.int64()), _NO_FLOOR)
    return t.filter(pc.greater(ts, floor_us))


def _floor_us(iso: str | None) -> int:
    if iso is None:
        return _NO_FLOOR
    return int(pa.scalar(datetime.fromisoformat(iso),
                         type=pa.timestamp("us")).value)


# worker-process-global Enricher cache (workers are reused across tasks;
# construction is O(1) but the conv cache inside is worth keeping warm)
_WORKER_ENRICHERS: dict = {}


def _corpus_buckets(fx_dir: str) -> dict[int, str]:
    """{bucket: path} of the buckets present in the CORPUS (from its
    part files) — never derived from PipelineConfig.n_buckets, which
    could silently drop (smaller) or fail on (larger) the actual
    partition count."""
    out = readers.bucket_paths(fx_dir)
    if not out:
        raise FileNotFoundError(f"no transcript part files under {fx_dir}")
    return out


def _get_enricher(side_ref, cfg, run_ts, light: bool = False) -> Enricher:
    key = (side_ref.hex() if hasattr(side_ref, "hex") else id(side_ref),
           cfg, run_ts, light)  # cfg is a frozen (hashable) dataclass
    e = _WORKER_ENRICHERS.get(key)
    if e is None:
        e = Enricher(side_ref, cfg, run_ts, light)
        _WORKER_ENRICHERS.clear()
        _WORKER_ENRICHERS[key] = e
    return e


#: additive per-bucket lineage counters (slice records -> manifest records)
_COUNTS = ("rows_out", "in_partial_list", "in_full_list", "is_repeat_visit",
           "error_rows")


def _merge(a: dict, b: dict) -> dict:
    """Lineage record `b` folded into `a`: counts and per-sink rows
    add up, max_ts is the later one.  Folds a bucket's slices into its
    record, and a delta run into the bucket's prior cumulative one."""
    per_sink = dict(a.get("per_sink_rows", {}))
    for k, v in b.get("per_sink_rows", {}).items():
        per_sink[k] = per_sink.get(k, 0) + v
    return {**{k: a.get(k, 0) + b.get(k, 0) for k in _COUNTS},
            "per_sink_rows": per_sink,
            "max_ts": max(filter(None, (a.get("max_ts"), b.get("max_ts"))),
                          default=None)}


# sink-retry operating point (reference: MAX_OFFERED_ATTEMPTS = 5,
# LogHarvesterTask.java:103,474-480)
MAX_SINK_ATTEMPTS = 5


def _enrich_tolerant(e: Enricher, chunk: pa.Table) -> tuple[pa.Table | None, int]:
    """M3 error-tolerant skip (reference: try/catch per enrichment
    stage logs + skips the record, LogHarvesterTask.java:364-394):
    vectorized fast path; on failure fall back to row-level slices so
    one poison row never drops a whole batch.  Returns (enriched table
    or None, count of dropped rows)."""
    try:
        return e(chunk), 0
    except Exception:
        good, dropped = [], 0
        for r in range(chunk.num_rows):
            try:
                good.append(e(chunk.slice(r, 1)))
            except Exception:
                dropped += 1
        if not good:
            return None, chunk.num_rows
        return pa.concat_tables(good), dropped


def _write_with_retry(table: pa.Table, path: str) -> None:
    """C5 bounded sink retry (reference: publish retried <=5 then
    abort with the watermark persisted)."""
    import pyarrow.parquet as pq
    tmp = path + ".tmp"
    last: Exception | None = None
    for _ in range(MAX_SINK_ATTEMPTS):
        try:
            pq.write_table(table, tmp, row_group_size=128 * 1024)
            os.replace(tmp, path)
            return
        except OSError as err:
            last = err
            time.sleep(0.2)
    raise last  # manifest entry never written -> bucket resumes cleanly


def _enrich_rows(batch: pa.Table, side_ref, cfg, run_ts,
                 light: bool = False) -> pa.Table:
    """Row terminal: enrich a slice and return the enriched records
    (build_pipeline, and the registry's enrich queries)."""
    return _get_enricher(side_ref, cfg, run_ts, light)(batch)


def _groups(t: pa.Table, col: str) -> list[tuple]:
    """(value, rows) per distinct value of `col`; no filter when the
    column holds one value."""
    c = t.column(col)
    mm = pc.min_max(c)
    if mm["min"] == mm["max"]:
        return [(mm["min"].as_py(), t)]
    return [(v, t.filter(pc.equal(c, v))) for v in pc.unique(c).to_pylist()]


def _enrich_and_write_slice(batch: pa.Table, out_dir: str, side_ref, cfg,
                            run_ts) -> dict:
    """Write terminal: enrich a slice of scanned rows, write its
    per-sink parquet files directly and return the slice's lineage
    record; rows the M3 ladder drops count in its error_rows.  A slice
    is one bucket: its scan task read one bucket file (and
    bucket_window_scan's check_bucket guards it).

    Writing inside the slice task keeps the (4-5x wider) enriched data
    out of the object store — it saves a full copy + transfer of every
    enriched block.  Slices (not whole buckets) are the write unit so a
    hot-conv bucket doesn't become a straggler task: the 100TB skew
    story is slice-level parallelism under bucket-level resume.  File
    names are content-derived (bucket + first/last turn_id + count), so
    a retried task overwrites its own file idempotently; a resumed run
    clears incomplete bucket dirs first (partition-atomic overwrite,
    the Solr upsert-by-id analog)."""
    from ..functions.hashing import md5_lower64
    e = _get_enricher(side_ref, cfg, run_ts)
    n = batch.num_rows
    rec = _merge({}, {})  # all zero
    if n == 0:
        return rec
    try:
        # fast path: one vectorized enrich over the whole slice (the
        # Enricher's per-call fixed costs — dictionary encode, regex
        # setup, LUT scatter — amortize over 64k rows instead of 8k)
        outs = [e(batch)]
    except Exception:
        # M3 degradation ladder: batch_size chunks, then row-level
        # inside _enrich_tolerant, so one poison row costs one row
        outs = []
        step = cfg.batch_size or 8192
        for off in range(0, n, step):
            out, dropped = _enrich_tolerant(e, batch.slice(off, step))
            rec["error_rows"] += dropped
            if out is not None:
                outs.append(out)
    if not outs:
        return rec
    t = pa.concat_tables(outs).combine_chunks()

    b = t.column("bucket_id")[0].as_py()
    bdir = os.path.join(out_dir, f"bucket_id={b}")
    tag = md5_lower64(
        f"{t.column('turn_id')[0].as_py()}|"
        f"{t.column('turn_id')[-1].as_py()}|{t.num_rows}")
    # one bucket often maps to one sink (when n_sinks divides
    # n_buckets, hash % n_sinks is constant per bucket): _groups skips
    # the filter
    for s, sub in _groups(t, "sink_id"):
        sdir = os.path.join(bdir, f"sink_id={s}")
        os.makedirs(sdir, exist_ok=True)
        fpath = os.path.join(sdir, f"part-{tag:016x}.parquet")
        _write_with_retry(sub.drop_columns(["bucket_id", "sink_id"]), fpath)
        rec["per_sink_rows"][str(s)] = sub.num_rows
    max_ts = pc.max(t.column("ts")).as_py()
    rec["rows_out"] = t.num_rows
    rec["max_ts"] = max_ts.isoformat() if max_ts else None
    for c in ("in_partial_list", "in_full_list", "is_repeat_visit"):
        rec[c] = int(pc.sum(pc.cast(t.column(c), pa.int64())).as_py() or 0)
    return rec


def _grown_buckets(fx_dir: str, latest: dict[int, dict]) -> dict[int, dict]:
    """Completed buckets whose input fragment has GROWN since their
    manifest record (the reference's incremental-harvest trigger:
    logLastAggregated < newest record, LogHarvesterTask.java:189-204).
    Records that predate rows_in tracking are never delta-eligible
    (full reprocessing would double-write; the operator can drop the
    manifest line to force one)."""
    paths = readers.bucket_paths(fx_dir)
    out = {}
    for b, rec in latest.items():
        old = rec.get("rows_in")
        # a removed bucket is reconcile's job, not delta's
        if old is None or b not in paths:
            continue
        # a parquet FOOTER read (no data IO): metadata only
        if pads.dataset(paths[b]).count_rows() > old:
            out[b] = rec
    return out


def reconcile(fx_dir: str, out_dir: str) -> dict:
    """C2 schedule-reconciliation analog (reference:
    LogAggregrationManageScheduleJob.java:24-43 diffs the registered
    node list against scheduled jobs, adding new nodes and unscheduling
    removed ones).  Here the "node list" is the corpus's bucket
    partition set: buckets present in the corpus but not the manifest
    are ADDED (the next run_harvest picks them up as todo), and
    manifest records + output dirs of buckets no longer in the corpus
    are REMOVED so stale partitions never pollute aggregates; buckets
    whose fragment has GROWN since their record are reported so the
    next run_harvest delta-harvests them.  Returns
    {"added": [...], "removed": [...], "grown": [...]}."""
    manifest = Manifest(os.path.join(out_dir, "_manifest.jsonl"))
    corpus = set(_corpus_buckets(fx_dir))
    done = manifest.completed_buckets()
    added = sorted(corpus - done)
    removed = sorted(b for b in done if b not in corpus)
    grown = sorted(_grown_buckets(fx_dir, manifest.latest_complete()))
    if removed:
        gone = set(removed)
        manifest.rewrite([r for r in manifest.records()
                          if r.get("bucket") not in gone])
        for b in removed:
            shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}"),
                          ignore_errors=True)
    return {"added": added, "removed": removed, "grown": grown}


def run_harvest(fx_dir: str, out_dir: str,
                cfg: PipelineConfig = DEFAULT_CONFIG,
                run_ts: datetime = DEFAULT_RUN_TS,
                resume: bool = True,
                should_continue=None) -> dict:
    """Run (or resume) the harvest over all buckets; returns a summary.

    Every todo and delta bucket runs through one stage list, largest
    file first, two buckets per pool CPU in flight.  Each bucket
    appends its manifest lineage record as soon as its scan and every
    slice it fed have resolved, with its own duration_s from scan
    submit to commit.  On resume, completed buckets are skipped and
    partial output dirs of incomplete buckets are cleared before
    reprocessing (partition-atomic overwrite — the idempotency analog
    of Solr upsert-by-id).

    C5 source-side retry, per bucket as the reference's per-node job:
    a bucket that raises (flaky reads included) is retried after
    cfg.source_retry_backoff_s, up to cfg.source_retry_attempts times,
    while the other buckets run on; on exhaustion its error is raised
    after every other bucket has committed, so the next invocation
    resumes from the watermark (reference: 60 s x <=5 on harvest
    BaseException, LogHarvesterTask.java:311-329).

    C4 kill switch: `should_continue()` and the `<out_dir>/_KILL` file
    are polled before each bucket's scan is submitted (reference:
    LogAggregator.active polled per page, v1/NodeCommunication.java:
    58-63).  Once either says stop, no bucket starts; those already
    started finish and commit.  A drained run reports
    stopped_early=True and resumes cleanly.
    """
    os.makedirs(out_dir, exist_ok=True)
    # "_" prefix: ignored by parquet dataset discovery (ignore_prefixes)
    manifest = Manifest(os.path.join(out_dir, "_manifest.jsonl"))
    done = manifest.completed_buckets() if resume else set()
    corpus_buckets = _corpus_buckets(fx_dir)
    # cfg.n_buckets feeds bucket_id = hash % n (sink layout, node_id,
    # lineage keys); it MUST match the corpus partitioning or output
    # dirs and manifest keys diverge from the input fragments
    try:
        with open(os.path.join(fx_dir, "meta.json")) as f:
            corpus_n = json.load(f).get("n_buckets")
    except OSError:
        corpus_n = len(corpus_buckets)
    if corpus_n != cfg.n_buckets:
        raise ValueError(
            f"cfg.n_buckets={cfg.n_buckets} != corpus n_buckets={corpus_n} "
            f"({fx_dir}); bucket-derived columns would disagree with the "
            "input partitioning")
    todo = [b for b in corpus_buckets if b not in done]
    # incremental delta harvest (the reference's core watermark
    # semantic): completed buckets whose fragment GREW since their
    # record are re-harvested for rows past their recorded max_ts only
    # — never cleared, never double-written (C3/A1 analog of
    # logLastAggregated, LogHarvesterTask.java:189-204,492-496)
    delta: dict[int, dict] = _grown_buckets(
        fx_dir, manifest.latest_complete()) if resume else {}
    if not resume:
        for b in corpus_buckets:
            shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}"),
                          ignore_errors=True)
        if os.path.exists(manifest.path):
            os.remove(manifest.path)
    # clear partials from a previous killed run (full buckets only —
    # a delta bucket's dir holds committed prior output; idempotency
    # for a killed DELTA re-run comes from deterministic content-
    # derived part names, the same upsert-by-id guarantee as slices)
    for b in todo:
        shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}.inprogress"),
                      ignore_errors=True)

    floors: dict[int, int | None] = dict.fromkeys(todo)
    floors.update({b: _floor_us(rec.get("max_ts"))
                   for b, rec in delta.items()})
    run = dict.fromkeys(("rows_in", "error_rows", "delta_rows_out"), 0)
    tries = dict.fromkeys(floors, 0)
    errors: list[Exception] = []
    kill_path = os.path.join(out_dir, "_KILL")

    def commit(b, scan, slices, t0):
        rec = functools.reduce(_merge, ray.get([out for out, _ in slices]),
                               _merge({}, {}))  # all zero with no slice
        run["rows_in"] += scan["rows_read"]
        run["error_rows"] += rec["error_rows"]
        timing = np.sum(ray.get([t for _, t in slices]) or [[0.0, 0.0]],
                        axis=0)
        stages = {"scan": scan, "slices": {
            "tasks": len(slices), "wall_s": round(float(timing[0]), 4),
            "cpu_s": round(float(timing[1]), 4)}}
        if b in delta:
            # delta re-harvest: append the updated CUMULATIVE record
            # (rollups read last-wins via latest_complete); rows_in
            # advances to the grown fragment size so the bucket is not
            # re-detected until it grows again
            run["delta_rows_out"] += rec["rows_out"]
            rec = {**_merge(delta[b], rec),
                   "delta_runs": delta[b].get("delta_runs", 0) + 1}
        manifest.append({
            "bucket": b, "complete": True,
            "fragment": os.path.relpath(corpus_buckets[b], fx_dir),
            "rows_in": scan["rows_read"],
            "duration_s": round(time.time() - t0, 3),
            "run_ts": run_ts.isoformat(),
            "stages": stages,
            **rec,
        })

    def fail(b, err):
        tries[b] += 1
        retry = tries[b] <= cfg.source_retry_attempts
        _LOG.warning(
            "harvest bucket %d attempt %d/%d failed: %r%s", b, tries[b],
            1 + cfg.source_retry_attempts, err,
            f" — retrying in {cfg.source_retry_backoff_s}s" if retry else "")
        # a partially-written FULL bucket is cleared before its retry
        # (partition-atomic overwrite, same as resume); a delta
        # bucket's dir holds committed prior output, so it never is —
        # its retried writes overwrite their own content-derived names
        if floors[b] is None:
            shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}"),
                          ignore_errors=True)
        if retry:
            return cfg.source_retry_backoff_s
        errors.append(err)
        return None

    def proceed():
        return ((should_continue is None or should_continue())
                and not os.path.exists(kill_path))

    side_ref = ray.put(load_side_tables(fx_dir))
    t_start = time.time()
    stopped_early = _run_stages(
        fx_dir, floors, cfg, side_ref, _enrich_and_write_slice,
        {"out_dir": out_dir, "cfg": cfg, "run_ts": run_ts},
        commit, fail, proceed)
    if errors:
        raise errors[0]  # every other bucket committed -> clean resume

    # last-wins per bucket: delta re-harvests append updated CUMULATIVE
    # records, so summing every complete record would double-count
    recs = list(manifest.latest_complete().values())
    return {
        "buckets": len(recs),
        "resumed_skipped": sorted(done),
        "rows_in_this_run": run["rows_in"],
        "rows_out_total": sum(r["rows_out"] for r in recs),
        "in_partial_list": sum(r["in_partial_list"] for r in recs),
        "in_full_list": sum(r["in_full_list"] for r in recs),
        "is_repeat_visit": sum(r["is_repeat_visit"] for r in recs),
        "max_ts": max((r["max_ts"] for r in recs if r["max_ts"]), default=None),
        "error_rows": sum(r.get("error_rows", 0) for r in recs),
        "error_rows_this_run": run["error_rows"],
        "delta_buckets": sorted(delta),
        "delta_rows_out": run["delta_rows_out"],
        "stopped_early": stopped_early,
        "duration_s": round(time.time() - t_start, 3),
    }
