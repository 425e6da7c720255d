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
         stats (run_harvest), or return the enriched rows
         (build_pipeline, a Dataset over the slice tasks' tables)

Design notes (scale):
  - No all-to-all exchange: the corpus is conv-hash partitioned, so
    the order-dependent window scan runs per bucket file in place.
  - No Ray Data executor between the stages: on a small pool its
    scheduling cost more than the stages themselves.  The driver
    multiplexes each wave's scan generators with ray.wait and submits
    one slice task per yielded slice, so a hot bucket still fans out
    across the pool at slice granularity.
  - Side tables are ray.put once; every slice task receives the ref
    nested in a list (unresolved), so the worker-global cached Enricher
    keyed by it is reused across tasks.
  - Buckets (the generator's hash partitions; convs never span them)
    are the resume unit, processed in waves; each completed wave appends
    per-bucket lineage and stage records to the checkpoint manifest.
"""

from __future__ import annotations

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
    records, one block per slice.  Runs eagerly, as `exchange` does."""
    if side_ref is None:
        side_ref = ray.put(load_side_tables(fx_dir))
    if buckets is None:
        buckets = list(_corpus_buckets(fx_dir))
    stages = _run_stages(fx_dir, buckets, cfg, side_ref, _enrich_rows,
                         {"cfg": cfg, "run_ts": run_ts})
    return ray.data.from_arrow_refs(
        [t for _, outs in stages.values() for t, _ in outs])


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


def _scan_wave(fx_dir: str, buckets: list[int], cfg: PipelineConfig,
               floors: dict[int, int] | None = None) -> dict:
    """Submit one scan task per bucket, largest file first, and return
    {scan generator: bucket}.  Called once per wave attempt."""
    paths = readers.bucket_paths(fx_dir)
    fault = readers._FAULT_ONCE_PATH  # read at submit time
    order = sorted(buckets, key=lambda b: -os.path.getsize(paths[b]))
    return {_scan_bucket.remote(paths[b], cfg,
                                None if floors is None else floors[b],
                                fault): b
            for b in order}


def _run_stages(fx_dir: str, buckets: list[int], cfg: PipelineConfig,
                side_ref, terminal, kwargs: dict,
                floors: dict[int, int] | None = None) -> dict:
    """Scan `buckets` and send every slice through `terminal`; returns
    {bucket: (scan stage record, [(table ref, timing ref) per slice])}.

    A scan generator's last item is its record, so each yielded ref is
    held until the next one arrives and only then submitted as a slice.
    On any failure the scans are cancelled and the submitted slice tasks
    waited out before the error propagates, so no late write can land
    in a bucket dir the caller clears."""
    gens = _scan_wave(fx_dir, buckets, cfg, floors)
    held: dict = {}
    out: dict[int, tuple] = {b: (None, []) for b in buckets}
    pending = list(gens)
    try:
        while pending:
            ready, pending = ray.wait(pending, num_returns=1)
            for g in ready:
                b = gens[g]
                try:
                    ref = next(g)
                except StopIteration:
                    out[b] = (ray.get(held.pop(g)), out[b][1])
                    continue
                if g in held:
                    out[b][1].append(_slice.remote(held[g], [side_ref],
                                                   terminal, kwargs))
                held[g] = ref
                pending.append(g)
    except BaseException:
        for g in gens:
            ray.cancel(g)
        refs = [r for _, outs in out.values() for pair in outs for r in pair]
        if refs:
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
        raise
    return out


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


_STATS_SCHEMA = pa.schema([
    ("bucket_id", pa.int32()), ("rows_out", pa.int64()),
    ("in_partial_list", pa.int64()), ("in_full_list", pa.int64()),
    ("is_repeat_visit", pa.int64()), ("max_ts", pa.string()),
    ("per_sink", pa.string()), ("error_rows", pa.int64()),
])

#: additive per-bucket lineage counters (stats rows -> manifest records)
_COUNTS = ("rows_out", "in_partial_list", "in_full_list", "is_repeat_visit",
           "error_rows")

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
                            run_ts) -> pa.Table:
    """Write terminal: enrich a slice of scanned rows and write its
    per-(bucket, sink) parquet files directly, returning per-bucket
    lineage/stats rows.

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
    if n == 0:
        return _STATS_SCHEMA.empty_table()
    error_rows = 0
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
            error_rows += dropped
            if out is not None:
                outs.append(out)

    # dropped rows can't be attributed to a bucket (the failing rows
    # never got one); record them under bucket_id=-1 — the manifest
    # rollup surfaces them as unattributed error lineage rather than
    # silently losing them (even when EVERY row of the slice failed)
    err_row = [{
        "bucket_id": -1, "rows_out": 0, "in_partial_list": 0,
        "in_full_list": 0, "is_repeat_visit": 0, "max_ts": None,
        "per_sink": "{}", "error_rows": error_rows,
    }] if error_rows else []
    if not outs:
        return pa.Table.from_pylist(err_row, schema=_STATS_SCHEMA)
    t = pa.concat_tables(outs).combine_chunks()

    stats_rows = []
    # a slice is one bucket (its scan task read one bucket file), and
    # one bucket often maps to one sink (when n_sinks divides n_buckets,
    # hash % n_sinks is constant per bucket): _groups skips the filter
    for b, tb in _groups(t, "bucket_id"):
        bdir = os.path.join(out_dir, f"bucket_id={b}")
        tag = md5_lower64(
            f"{tb.column('turn_id')[0].as_py()}|"
            f"{tb.column('turn_id')[-1].as_py()}|{tb.num_rows}")
        per_sink = {}
        for s, sub in _groups(tb, "sink_id"):
            sdir = os.path.join(bdir, f"sink_id={s}")
            os.makedirs(sdir, exist_ok=True)
            fpath = os.path.join(sdir, f"part-{tag:016x}.parquet")
            _write_with_retry(sub.drop_columns(["bucket_id", "sink_id"]), fpath)
            per_sink[str(s)] = sub.num_rows
        max_ts = pc.max(tb.column("ts")).as_py()
        stats_rows.append({
            "bucket_id": b,
            "rows_out": tb.num_rows,
            **{c: int(pc.sum(pc.cast(tb.column(c), pa.int64())).as_py() or 0)
               for c in ("in_partial_list", "in_full_list", "is_repeat_visit")},
            "max_ts": max_ts.isoformat() if max_ts else None,
            "per_sink": json.dumps(per_sink),
            "error_rows": 0,
        })
    return pa.Table.from_pylist(stats_rows + err_row, schema=_STATS_SCHEMA)


def _harvest_wave(fx_dir: str, out_dir: str, wave: list[int],
                  cfg: PipelineConfig, run_ts: datetime, side_ref,
                  floors: dict[int, int] | None) -> tuple[dict, int]:
    """One wave through the write terminal: ({bucket: lineage record
    with the stage records of its scan task and its slice tasks},
    enrichment error rows no bucket could be attributed)."""
    stages = _run_stages(fx_dir, wave, cfg, side_ref,
                         _enrich_and_write_slice,
                         {"out_dir": out_dir, "cfg": cfg, "run_ts": run_ts},
                         floors)
    refs = [r for _, outs in stages.values() for pair in outs for r in pair]
    if refs:  # every slice has written or failed before any error raises
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
    recs, unattributed = {}, 0
    for b, (scan, outs) in stages.items():
        rec = dict.fromkeys(_COUNTS, 0)
        rec.update(per_sink_rows={}, max_ts=None)
        # bucket_id=-1 rows are unattributed enrichment errors (M3)
        for t in ray.get([t for t, _ in outs]):
            for row in t.to_pylist():
                if row["bucket_id"] == -1:
                    unattributed += row["error_rows"]
                    continue
                for k in _COUNTS:
                    rec[k] += row[k]
                for k, v in json.loads(row["per_sink"]).items():
                    rec["per_sink_rows"][k] = rec["per_sink_rows"].get(k, 0) + v
                rec["max_ts"] = max(filter(None, (rec["max_ts"],
                                                  row["max_ts"])),
                                    default=None)
        timing = np.sum(ray.get([t for _, t in outs]) or [[0.0, 0.0]], axis=0)
        rec["stages"] = {"scan": scan, "slices": {
            "tasks": len(outs), "wall_s": round(float(timing[0]), 4),
            "cpu_s": round(float(timing[1]), 4)}}
        recs[b] = rec
    return recs, unattributed


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
                wave_size: int = 8,
                resume: bool = True,
                should_continue=None) -> dict:
    """Run (or resume) the harvest over all buckets; returns a summary.

    Buckets are processed in waves of `wave_size`; after each wave the
    manifest records one lineage line per bucket.  On resume, completed
    buckets are skipped and partial output dirs of incomplete buckets
    are cleared before reprocessing (partition-atomic overwrite — the
    idempotency analog of Solr upsert-by-id).

    C5 source-side retry: a wave that raises (flaky reads included) is
    retried up to cfg.source_retry_attempts times with
    cfg.source_retry_backoff_s sleeps; on exhaustion the error
    propagates with every COMPLETED wave already persisted in the
    manifest, so the next invocation resumes from the watermark
    (reference: 60 s x <=5 on harvest BaseException,
    LogHarvesterTask.java:311-329).

    C4 kill switch: the run is drained cooperatively between waves when
    `should_continue()` returns False or the `<out_dir>/_KILL` file
    exists (reference: LogAggregator.active polled per page,
    v1/NodeCommunication.java:58-63).  A drained run reports
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
        done = set()
        todo = list(corpus_buckets)
    # clear partials from a previous killed run (full buckets only —
    # a delta bucket's dir holds committed prior output; idempotency
    # for a killed DELTA re-run comes from deterministic content-
    # derived part names, the same upsert-by-id guarantee as slices)
    for b in todo:
        shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, f"bucket_id={b}.inprogress"),
                      ignore_errors=True)

    side_ref = ray.put(load_side_tables(fx_dir))
    t_start = time.time()
    rows_in_total = 0
    run_unattributed = 0
    stopped_early = False
    kill_path = os.path.join(out_dir, "_KILL")

    waves: list[tuple[list[int], dict[int, int] | None]] = [
        (todo[i:i + wave_size], None)
        for i in range(0, len(todo), wave_size)]
    delta_order = sorted(delta)
    waves += [
        (w, {b: _floor_us(delta[b].get("max_ts")) for b in w})
        for w in (delta_order[i:i + wave_size]
                  for i in range(0, len(delta_order), wave_size))]
    delta_rows_out = 0
    for wave, floors in waves:
        # cooperative kill switch, polled between waves (the resume
        # unit): completed waves stay committed, nothing is torn
        if (should_continue is not None and not should_continue()) \
                or os.path.exists(kill_path):
            stopped_early = True
            break
        t0 = time.time()
        last_err: BaseException | None = None
        # 1 initial attempt + source_retry_attempts sleep-retries,
        # matching the reference's "sleep 60 s, retry <=5" semantics
        # (LogHarvesterTask.java:311-329)
        for attempt in range(1 + cfg.source_retry_attempts):
            try:
                wave_recs, unattributed_errors = _harvest_wave(
                    fx_dir, out_dir, wave, cfg, run_ts, side_ref, floors)
                last_err = None
                break
            except Exception as err:  # flaky source/transform: backoff
                last_err = err
                _LOG.warning(
                    "harvest wave %s attempt %d/%d failed: %r%s", wave,
                    attempt + 1, 1 + cfg.source_retry_attempts, err,
                    "" if attempt >= cfg.source_retry_attempts else
                    f" — retrying in {cfg.source_retry_backoff_s}s")
                # a partially-written FULL wave is cleared before the
                # retry (partition-atomic overwrite, same as resume); a
                # delta wave's dirs hold committed prior output, so
                # they are never cleared — its retried writes overwrite
                # their own content-derived file names idempotently
                if floors is None:
                    for b in wave:
                        shutil.rmtree(
                            os.path.join(out_dir, f"bucket_id={b}"),
                            ignore_errors=True)
                if attempt < cfg.source_retry_attempts:
                    time.sleep(cfg.source_retry_backoff_s)
        if last_err is not None:
            raise last_err  # completed waves persisted -> clean resume
        dt = time.time() - t0
        # rows_in: the rows the scan task read (the fragment's size)
        n_in = sum(r["stages"]["scan"]["rows_read"] for r in wave_recs.values())
        rows_in_total += n_in
        for b in sorted(wave_recs):
            rec = wave_recs[b]
            if floors is not None:
                # delta re-harvest: append the updated CUMULATIVE
                # record (rollups read last-wins via latest_complete);
                # rows_in advances to the grown fragment size so the
                # bucket is not re-detected until it grows again
                old = delta[b]
                delta_rows_out += rec["rows_out"]
                ps = dict(old.get("per_sink_rows", {}))
                for k, v in rec["per_sink_rows"].items():
                    ps[k] = ps.get(k, 0) + v
                rec = {**rec, **{k: old.get(k, 0) + rec[k] for k in _COUNTS},
                       "per_sink_rows": ps,
                       "max_ts": max(filter(None, (old.get("max_ts"),
                                                   rec["max_ts"])),
                                     default=None),
                       "delta_runs": old.get("delta_runs", 0) + 1}
            manifest.append({
                "bucket": b, "complete": True,
                "fragment": os.path.relpath(corpus_buckets[b], fx_dir),
                "wave": wave, "wave_rows_in": n_in,
                "rows_in": rec["stages"]["scan"]["rows_read"],
                "wave_duration_s": round(dt, 3),
                "run_ts": run_ts.isoformat(),
                **rec,
            })
        if unattributed_errors:
            run_unattributed += unattributed_errors
            manifest.append({"bucket": -1, "complete": False,
                             "wave": wave, "run_ts": run_ts.isoformat(),
                             "error_rows": unattributed_errors})

    all_recs = manifest.records()
    # last-wins per bucket: delta re-harvests append updated CUMULATIVE
    # records, so summing every complete record would double-count
    recs = list(manifest.latest_complete().values())
    total_out = sum(r["rows_out"] for r in recs)
    # error lineage: unattributed (-1) records are written ONLY after
    # their wave committed (every slice succeeded, complete records
    # appended in the same iteration), so those waves are never
    # reprocessed and every -1 record — this run's AND prior runs' —
    # represents permanently dropped rows that must stay visible in the
    # summary (M3: never silently lose them).  Completed bucket records
    # carry error_rows=0 by construction; summing them is a no-op kept
    # for shape-stability.
    total_errors = sum(r.get("error_rows", 0) for r in all_recs)
    summary = {
        "buckets": len(recs),
        "resumed_skipped": sorted(done),
        "rows_in_this_run": rows_in_total,
        "rows_out_total": total_out,
        "in_partial_list": sum(r["in_partial_list"] for r in recs),
        "in_full_list": sum(r["in_full_list"] for r in recs),
        "is_repeat_visit": sum(r["is_repeat_visit"] for r in recs),
        "max_ts": max((r["max_ts"] for r in recs if r["max_ts"]), default=None),
        "error_rows": total_errors,
        "error_rows_this_run": run_unattributed,
        "delta_buckets": sorted(delta),
        "delta_rows_out": delta_rows_out,
        "stopped_early": stopped_early,
        "duration_s": round(time.time() - t_start, 3),
    }
    return summary
