"""The flagship harvest pipeline: read -> clean -> window scan -> enrich.

End-to-end analog of LogHarvesterTask.harvest
(LogHarvesterTask.java:129-525), re-expressed as ONE Ray Data stage
list (build_pipeline) with a pluggable terminal:

    read_transcripts(one block per bucket file)   [S1/S2]
      -> clean_project + bucket_window_scan       [M1-M5, O1 sort + W1]
         + _encode_hop, one unfused task/bucket
      -> past_watermark filter (delta runs only)  [A1 watermark]
      -> streaming repartition to slices          [skew-splitting]
      -> enrich task per slice (_get_enricher)    [R1-R3, J1-J5, M4, S6]
         and either write per-(bucket, sink)
         parquet + return stats (run_harvest), or return enriched rows

Design notes (scale):
  - No all-to-all exchange: the corpus is conv-hash partitioned, so
    the order-dependent window scan runs per bucket block in place.
  - Side tables are ray.put once; every enrich task reads the same
    object-store copy through a worker-global cached Enricher.
  - Buckets (the generator's hash partitions; convs never span them)
    are the resume unit, processed in waves; each completed wave appends
    per-bucket lineage records to the checkpoint manifest.
"""

from __future__ import annotations

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

from ..config import PipelineConfig, DEFAULT_CONFIG, BUCKET_TASK_CPUS
from ..sources.readers import read_transcripts, load_side_tables
from ..stages.project import clean_project
from ..stages.window import bucket_window_scan
from ..stages.enrich import Enricher, DEFAULT_RUN_TS
from ..state.manifest import Manifest

_LOG = logging.getLogger(__name__)


def build_pipeline(fx_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                   buckets: list[int] | None = None,
                   run_ts: datetime = DEFAULT_RUN_TS,
                   side_ref=None, *, out_dir: str | None = None,
                   ts_floors: dict[int, str | None] | None = None,
                   ) -> ray.data.Dataset:
    """The flagship stage list over the given buckets (all by default).

    Without `out_dir` the lazy Dataset yields the enriched records;
    with it, each slice is enriched and written under `out_dir` and the
    Dataset yields per-slice stats rows (_STATS_SCHEMA).  `ts_floors`
    ({bucket: iso max_ts or None}) keeps only rows past each bucket's
    watermark, after the scan has seen the whole bucket."""
    if side_ref is None:
        side_ref = ray.put(load_side_tables(fx_dir))
    ds = read_transcripts(fx_dir, buckets=buckets, one_block_per_bucket=True)

    def clean_then_scan(batch, cfg=cfg):
        # defer_derived: turn_id/version_compliance are re-derived
        # by the Enricher AFTER the scan->slice plasma transit, so
        # ~30 B/row of derivable strings never cross the object
        # store; _encode_hop dictionary-encodes the repeated string
        # columns for the same reason (both are the 8->32 CPU
        # shared-memory ceiling lever — see _HOP_DICT_COLS)
        return _encode_hop(bucket_window_scan(
            clean_project(batch, cfg, defer_derived=True), cfg,
            check_bucket=True))

    # BUCKET_TASK_CPUS on the per-bucket scan prevents operator fusion
    # with the slice stage: fused, each task would process a WHOLE
    # bucket serially and the hot-conv bucket becomes the job's
    # critical path; unfused, scanned blocks redistribute across
    # the pool as ~64k-row slices (skew-splitting).  A fully-fused
    # read+scan+enrich+write single-task-per-bucket variant was
    # built and measured in round 3: it LOST everywhere — 3.7x
    # slower at 16 CPUs (308k vs 1138k turns/s, sf5) because the
    # hot bucket serializes the whole job — so slice-splitting
    # through one plasma hop is the keeper despite this box's slow
    # object store.
    ds = ds.map_batches(clean_then_scan, batch_size=None,
                        batch_format="pyarrow", zero_copy_batch=True,
                        num_cpus=BUCKET_TASK_CPUS)
    if ts_floors:
        ds = ds.map_batches(_past_watermark_fn(ts_floors, cfg),
                            batch_format="pyarrow", zero_copy_batch=True,
                            num_cpus=BUCKET_TASK_CPUS)
    # Ray distributes map work at BLOCK granularity: without this,
    # a whole bucket is ONE block, the terminal stage runs one
    # task per bucket (write_slice_rows then only batches WITHIN
    # that task), and the hot bucket serializes onto the critical
    # path.  Streaming repartition splits oversized scan-output
    # blocks into ~slice-row blocks with no shuffle, so enrich+
    # write fans out across the whole pool.  (Lowering
    # DataContext.target_max_block_size instead is WRONG: it also
    # splits blocks BETWEEN the fused read->scan UDFs, feeding the
    # window scan bucket fragments — measured repeat-visit counts
    # collapsed 238k -> 16k at sf5.)
    ds = ds.repartition(target_num_rows_per_block=cfg.write_slice_rows)
    kwargs = {"side_ref": side_ref, "cfg": cfg, "run_ts": run_ts}
    if out_dir is not None:
        terminal, kwargs["out_dir"] = _enrich_and_write_slice, out_dir
    else:
        terminal = _enrich_rows
    return ds.map_batches(terminal, batch_size=cfg.write_slice_rows,
                          batch_format="pyarrow", zero_copy_batch=True,
                          fn_kwargs=kwargs)


def _past_watermark_fn(ts_floors: dict[int, str | None],
                       cfg: PipelineConfig):
    """Incremental delta harvest filter: the window scan ran over the
    FULL bucket (repeat-visit flags of a new turn depend on its conv's
    prior turns), but only rows past the bucket's recorded watermark
    are enriched + written.  Appended rows at ts <= watermark (late
    data) are not re-harvested — exactly the reference's dateLogged-
    window semantics (LogHarvesterTask.java:189-204: harvest
    (logLastAggregated + 1ms, end])."""
    from ..functions.hashing import md5_lower64_array
    floors_us = np.full(cfg.n_buckets, np.iinfo(np.int64).min,
                        dtype=np.int64)
    for b, iso in ts_floors.items():
        if iso is not None:
            floors_us[b] = int(pa.scalar(datetime.fromisoformat(iso),
                                         type=pa.timestamp("us")).value)

    def past_watermark(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        conv = batch.column("conv_id")
        if pa.types.is_dictionary(conv.type):
            conv = pc.cast(conv, pa.string())  # hop dict form
        h64 = md5_lower64_array(conv)
        bkt = (h64 % np.uint64(cfg.n_buckets)).astype(np.int64)
        ts = pc.fill_null(
            batch.column("ts").combine_chunks().cast(pa.int64()),
            np.iinfo(np.int64).min).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ts > floors_us[bkt]))
    return past_watermark


# worker-process-global Enricher cache (workers are reused across tasks;
# construction is O(1) but the conv cache inside is worth keeping warm)
_WORKER_ENRICHERS: dict = {}


def _corpus_buckets(fx_dir: str) -> list[int]:
    """Bucket ids present in the CORPUS (from its part files) — never
    derived from PipelineConfig.n_buckets, which could silently drop
    (smaller) or fail on (larger) the actual partition count."""
    import glob
    import re as _re
    out = []
    for p in sorted(glob.glob(os.path.join(fx_dir, "transcripts",
                                           "part-*.parquet"))):
        m = _re.search(r"part-(\d+)\.parquet$", p)
        if m:
            out.append(int(m.group(1)))
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


# Columns dictionary-encoded across the ONE object-store transit of the
# flagship (window-scan output -> enrich/write slices).  conv_id repeats
# ~turns-per-conv times within a bucket block and role/tool are tiny
# vocabularies, so encoding cuts the hop from ~80 to ~56 B/row (-29%)
# — measured sf5 part-00: conv_id 15.9->5.2, role 9.8->4.0, tool
# 11.1->4.1 B/row.  On this box the object store saturates at
# ~100 MB/s shared (r1: 1.17M turns/s x 80 B plateau at BOTH 16 and 32
# CPUs), so high-parallelism throughput scales ~1/bytes; the decode
# back to plain strings happens in-task on the consumer side where it
# costs memcpy, not plasma bandwidth.  text is NOT encoded (unique per
# turn — a dictionary would only add overhead).
_HOP_DICT_COLS = ("conv_id", "role", "tool")


def _encode_hop(t: pa.Table) -> pa.Table:
    for c in _HOP_DICT_COLS:
        i = t.schema.get_field_index(c)
        if i >= 0 and not pa.types.is_dictionary(t.column(i).type):
            t = t.set_column(
                i, c, pc.dictionary_encode(t.column(i).combine_chunks()))
    return t


def _decode_hop(t: pa.Table) -> pa.Table:
    for c in _HOP_DICT_COLS:
        i = t.schema.get_field_index(c)
        if i >= 0 and pa.types.is_dictionary(t.column(i).type):
            t = t.set_column(i, c, pc.cast(t.column(i), pa.string()))
    return t


_STATS_SCHEMA = pa.schema([
    ("bucket_id", pa.int32()), ("rows_out", pa.int64()),
    ("in_partial_list", pa.int64()), ("in_full_list", pa.int64()),
    ("is_repeat_visit", pa.int64()), ("max_ts", pa.string()),
    ("per_sink", pa.string()), ("error_rows", pa.int64()),
])

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
    (build_pipeline without out_dir, and the registry's enrich
    queries)."""
    return _get_enricher(side_ref, cfg, run_ts, light)(_decode_hop(batch))


def _enrich_and_write_slice(batch: pa.Table, out_dir: str, side_ref, cfg,
                            run_ts) -> pa.Table:
    """Terminal fused stage: enrich a slice of scanned rows and write
    its per-(bucket, sink) parquet files directly, returning per-bucket
    lineage/stats rows.

    Writing inside the map task keeps the (4-5x wider) enriched data
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
    batch = _decode_hop(batch)  # in-task; plasma carried the dict form
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
        "per_sink": "", "error_rows": error_rows,
    }] if error_rows else []
    if not outs:
        return pa.Table.from_pylist(err_row, schema=_STATS_SCHEMA)
    t = pa.concat_tables(outs).combine_chunks()

    stats_rows = []
    bucket_col = t.column("bucket_id")
    bmm = pc.min_max(bucket_col)
    uniq_buckets = ([bmm["min"].as_py()]
                    if bmm["min"] == bmm["max"]
                    else pc.unique(bucket_col).to_pylist())
    for b in uniq_buckets:
        tb = (t if len(uniq_buckets) == 1
              else t.filter(pc.equal(bucket_col, b)))
        bdir = os.path.join(out_dir, f"bucket_id={b}")
        tag = md5_lower64(
            f"{tb.column('turn_id')[0].as_py()}|"
            f"{tb.column('turn_id')[-1].as_py()}|{tb.num_rows}")
        per_sink = {}
        sink_col = tb.column("sink_id")
        # single-sink fast path: after the per-bucket repartition a
        # slice is one bucket, and one bucket often maps to one sink
        # (when n_sinks divides n_buckets, hash % n_sinks is constant
        # per bucket) — skip the filter entirely then
        smm = pc.min_max(sink_col)
        uniq_sinks = ([smm["min"].as_py()]
                      if smm["min"] == smm["max"]
                      else pc.unique(sink_col).to_pylist())
        for s in uniq_sinks:
            sub = (tb if len(uniq_sinks) == 1
                   else tb.filter(pc.equal(sink_col, s)))
            sdir = os.path.join(bdir, f"sink_id={s}")
            os.makedirs(sdir, exist_ok=True)
            fpath = os.path.join(sdir, f"part-{tag:016x}.parquet")
            _write_with_retry(sub.drop_columns(["bucket_id", "sink_id"]), fpath)
            per_sink[str(s)] = sub.num_rows
        max_ts = pc.max(tb.column("ts")).as_py()
        stats_rows.append({
            "bucket_id": b,
            "rows_out": tb.num_rows,
            "in_partial_list": int(pc.sum(pc.cast(
                tb.column("in_partial_list"), pa.int64())).as_py() or 0),
            "in_full_list": int(pc.sum(pc.cast(
                tb.column("in_full_list"), pa.int64())).as_py() or 0),
            "is_repeat_visit": int(pc.sum(pc.cast(
                tb.column("is_repeat_visit"), pa.int64())).as_py() or 0),
            "max_ts": max_ts.isoformat() if max_ts else None,
            "per_sink": ",".join(f"{k}:{v}" for k, v in
                                 sorted(per_sink.items())),
            "error_rows": 0,
        })
    return pa.Table.from_pylist(stats_rows + err_row, schema=_STATS_SCHEMA)


def _fragment_rows(fx_dir: str, b: int) -> int:
    """Current row count of a bucket's input fragment — a parquet
    FOOTER read (no data IO), so growth detection over every completed
    bucket costs metadata only."""
    return pads.dataset(os.path.join(
        fx_dir, "transcripts", f"part-{b:02d}.parquet")).count_rows()


def _grown_buckets(fx_dir: str, latest: dict[int, dict]) -> dict[int, dict]:
    """Completed buckets whose input fragment has GROWN since their
    manifest record (the reference's incremental-harvest trigger:
    logLastAggregated < newest record, LogHarvesterTask.java:189-204).
    Records that predate rows_in tracking are never delta-eligible
    (full reprocessing would double-write; the operator can drop the
    manifest line to force one)."""
    out = {}
    for b, rec in latest.items():
        old = rec.get("rows_in")
        if old is None or b < 0:
            continue
        try:
            if _fragment_rows(fx_dir, b) > old:
                out[b] = rec
        except FileNotFoundError:
            continue  # removed bucket: reconcile's job, not delta's
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
    import json as _json
    try:
        with open(os.path.join(fx_dir, "meta.json")) as f:
            corpus_n = _json.load(f).get("n_buckets")
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

    waves: list[tuple[list[int], dict[int, str] | None]] = [
        (todo[i:i + wave_size], None)
        for i in range(0, len(todo), wave_size)]
    delta_order = sorted(delta)
    waves += [
        (w, {b: delta[b].get("max_ts") for b in w})
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
        frag_rows = {b: _fragment_rows(fx_dir, b) for b in wave}
        n_in = sum(frag_rows.values())
        rows_in_total += n_in
        last_err: BaseException | None = None
        # 1 initial attempt + source_retry_attempts sleep-retries,
        # matching the reference's "sleep 60 s, retry <=5" semantics
        # (LogHarvesterTask.java:311-329)
        for attempt in range(1 + cfg.source_retry_attempts):
            try:
                slice_rows = build_pipeline(
                    fx_dir, cfg, wave, run_ts, side_ref, out_dir=out_dir,
                    ts_floors=floors).take_all()
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
        # roll slice-level stats up to bucket-level lineage records;
        # bucket_id=-1 rows are unattributed enrichment errors (M3)
        unattributed_errors = sum(int(r["error_rows"]) for r in slice_rows
                                  if int(r["bucket_id"]) == -1)
        slice_rows = [r for r in slice_rows if int(r["bucket_id"]) != -1]
        agg: dict[int, dict] = {}
        for row in slice_rows:
            b = int(row["bucket_id"])
            rec = agg.setdefault(b, {
                "rows_out": 0, "per_sink_rows": {}, "in_partial_list": 0,
                "in_full_list": 0, "is_repeat_visit": 0, "max_ts": None,
                "error_rows": 0})
            rec["rows_out"] += int(row["rows_out"])
            rec["error_rows"] += int(row["error_rows"])
            for kv in (row["per_sink"] or "").split(","):
                if kv:
                    k, v = kv.split(":")
                    rec["per_sink_rows"][k] = rec["per_sink_rows"].get(k, 0) + int(v)
            rec["in_partial_list"] += int(row["in_partial_list"])
            rec["in_full_list"] += int(row["in_full_list"])
            rec["is_repeat_visit"] += int(row["is_repeat_visit"])
            if row["max_ts"] and (rec["max_ts"] is None
                                  or row["max_ts"] > rec["max_ts"]):
                rec["max_ts"] = row["max_ts"]
        for b in wave:  # buckets with zero surviving rows still complete
            agg.setdefault(b, {
                "rows_out": 0, "per_sink_rows": {}, "in_partial_list": 0,
                "in_full_list": 0, "is_repeat_visit": 0, "max_ts": None,
                "error_rows": 0})
        for b in sorted(agg):
            rec = agg[b]
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
                rec = {
                    "rows_out": old["rows_out"] + rec["rows_out"],
                    "per_sink_rows": ps,
                    "in_partial_list": old.get("in_partial_list", 0)
                    + rec["in_partial_list"],
                    "in_full_list": old.get("in_full_list", 0)
                    + rec["in_full_list"],
                    "is_repeat_visit": old.get("is_repeat_visit", 0)
                    + rec["is_repeat_visit"],
                    "max_ts": max(filter(None, (old.get("max_ts"),
                                                rec["max_ts"])),
                                  default=None),
                    "error_rows": old.get("error_rows", 0)
                    + rec["error_rows"],
                    "delta_runs": old.get("delta_runs", 0) + 1,
                }
            manifest.append({
                "bucket": b, "complete": True,
                "fragment": f"transcripts/part-{b:02d}.parquet",
                "wave": wave, "wave_rows_in": n_in,
                "rows_in": frag_rows[b],
                "wave_duration_s": round(dt, 3),
                "run_ts": run_ts.isoformat(),
                **rec,
            })
        if unattributed_errors:
            run_unattributed += int(unattributed_errors)
            manifest.append({"bucket": -1, "complete": False,
                             "wave": wave, "run_ts": run_ts.isoformat(),
                             "error_rows": int(unattributed_errors)})

    all_recs = manifest.records()
    # last-wins per bucket: delta re-harvests append updated CUMULATIVE
    # records, so summing every complete record would double-count
    recs = list(manifest.latest_complete().values())
    total_out = sum(r["rows_out"] for r in recs)
    # error lineage: unattributed (-1) records are written ONLY after
    # their wave committed (take_all succeeded, complete records
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
