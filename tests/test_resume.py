"""Kill-resume semantics (SURVEY §5 rebuild test plan): a run resumed
after losing a bucket reprocesses only that bucket; totals and routed
rows are identical to an uninterrupted run — no dupes, no gaps."""

import json
import shutil

import pyarrow.dataset as pads

from d1_log_aggregation_ray.pipelines.harvest import run_harvest


def _read_keys(out):
    t = pads.dataset(out, partitioning="hive").to_table(columns=["turn_id"])
    return sorted(t.column("turn_id").to_pylist())


def test_kill_resume_no_dupes_no_gaps(fx_dir, tmp_path):
    out = str(tmp_path / "out")
    s1 = run_harvest(fx_dir, out, resume=False)
    keys_full = _read_keys(out)

    # simulate a kill that lost bucket 5's manifest entry and left a
    # partial (here: truncated) output dir behind
    mpath = f"{out}/_manifest.jsonl"
    recs = [json.loads(l) for l in open(mpath) if l.strip()]
    with open(mpath, "w") as f:
        for r in recs:
            if r["bucket"] != 5:
                f.write(json.dumps(r) + "\n")
    shutil.rmtree(f"{out}/bucket_id=5")

    from d1_log_aggregation_ray.config import DEFAULT_CONFIG
    s2 = run_harvest(fx_dir, out, resume=True)
    assert s2["resumed_skipped"] == [b for b in range(DEFAULT_CONFIG.n_buckets)
                                     if b != 5]
    assert s2["rows_in_this_run"] < s1["rows_in_this_run"]
    assert _read_keys(out) == keys_full
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s2[k] == s1[k], k


def test_resume_complete_run_is_noop(fx_dir, tmp_path):
    out = str(tmp_path / "out")
    run_harvest(fx_dir, out, resume=False)
    from d1_log_aggregation_ray.config import DEFAULT_CONFIG
    s = run_harvest(fx_dir, out, resume=True)
    assert s["rows_in_this_run"] == 0
    assert s["resumed_skipped"] == list(range(DEFAULT_CONFIG.n_buckets))


def test_source_retry_recovers_flaky_wave(fx_dir, tmp_path, monkeypatch):
    """C5 source-side retry: a scan failure on a bucket's first
    attempt is retried with backoff and the run completes with correct
    totals (reference: 60 s x <=5 sleep-retry, LogHarvesterTask.java:
    311-329)."""
    import os
    import dataclasses
    import ray
    from d1_log_aggregation_ray.config import DEFAULT_CONFIG
    from d1_log_aggregation_ray.pipelines import harvest as hmod

    out = str(tmp_path / "out")
    ref = run_harvest(fx_dir, str(tmp_path / "ref"), resume=False)

    sentinel = str(tmp_path / "flake_once")
    open(sentinel, "w").close()
    real_scan = hmod.scan_bucket

    # the per-bucket scan task, failing once past the in-task read retry
    @ray.remote(num_cpus=1, num_returns="streaming")
    def flaky_scan(*args):
        if os.path.exists(sentinel):
            try:
                os.remove(sentinel)  # consume: only the 1st attempt fails
            except OSError:
                pass
            raise OSError("injected flaky source read")
        yield from real_scan(*args)

    monkeypatch.setattr(hmod, "_scan_bucket", flaky_scan)
    cfg = dataclasses.replace(DEFAULT_CONFIG, source_retry_backoff_s=0.05)
    s = run_harvest(fx_dir, out, cfg=cfg, resume=False)
    assert not os.path.exists(sentinel)  # the failure really fired
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s[k] == ref[k], k
    assert _read_keys(out) == _read_keys(str(tmp_path / "ref"))


def test_source_retry_exhaustion_raises_with_watermark(fx_dir, tmp_path,
                                                       monkeypatch):
    """A bucket whose source is down fails alone: it is retried
    source_retry_attempts times, every other bucket commits, then its
    error propagates and the next run resumes only that bucket."""
    import dataclasses
    import pytest
    import ray
    from d1_log_aggregation_ray.config import DEFAULT_CONFIG
    from d1_log_aggregation_ray.pipelines import harvest as hmod

    out = str(tmp_path / "out")
    real_scan = hmod.scan_bucket
    submits = []

    @ray.remote(num_cpus=1, num_returns="streaming")
    def dying_scan(path, *args):
        if path.endswith("part-09.parquet"):
            raise OSError("source down")
        yield from real_scan(path, *args)

    class CountingScan:
        def remote(self, path, *args):
            submits.append(path)
            return dying_scan.remote(path, *args)

    monkeypatch.setattr(hmod, "_scan_bucket", CountingScan())
    cfg = dataclasses.replace(DEFAULT_CONFIG, source_retry_attempts=3,
                              source_retry_backoff_s=0.01)
    with pytest.raises(OSError):
        run_harvest(fx_dir, out, cfg=cfg, resume=False)
    # 1 initial + 3 sleep-retries of bucket 9, one scan of every other
    assert sum(p.endswith("part-09.parquet") for p in submits) == 1 + 3
    assert len(submits) == 31 + 1 + 3
    monkeypatch.undo()
    s = run_harvest(fx_dir, out, resume=True)
    assert s["resumed_skipped"] == [b for b in range(32) if b != 9]
    ref = run_harvest(fx_dir, str(tmp_path / "ref"), resume=False)
    assert s["rows_out_total"] == ref["rows_out_total"]


def test_kill_switch_drains_and_resumes(fx_dir, tmp_path):
    """C4 cooperative kill switch, polled before each bucket's scan is
    submitted: after 8 buckets have started it says stop, the started
    ones finish and commit, and the resumed run completes the rest
    with totals equal to an uninterrupted run (reference:
    LogAggregator.active poll, v1/NodeCommunication.java:58-63)."""
    from d1_log_aggregation_ray.state.manifest import Manifest

    out = str(tmp_path / "out")
    polls = {"n": 0}

    def first_eight_only():
        polls["n"] += 1
        return polls["n"] <= 8

    s1 = run_harvest(fx_dir, out, resume=False,
                     should_continue=first_eight_only)
    assert s1["stopped_early"] is True
    assert polls["n"] == 9  # one poll per started bucket, then the stop
    assert s1["buckets"] == 8
    committed = sorted(Manifest(f"{out}/_manifest.jsonl").completed_buckets())
    assert len(committed) == 8
    s2 = run_harvest(fx_dir, out, resume=True)
    assert s2["stopped_early"] is False
    assert s2["resumed_skipped"] == committed
    ref = run_harvest(fx_dir, str(tmp_path / "ref"), resume=False)
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s2[k] == ref[k], k
    assert _read_keys(out) == _read_keys(str(tmp_path / "ref"))


def test_no_bucket_waits_for_another(fx_dir, tmp_path, monkeypatch):
    """Buckets commit one by one: while bucket 0's scan is held back
    for about 5 s, at least 8 other buckets commit their manifest
    records before it does, and the run's totals are unchanged."""
    import time
    import ray
    from d1_log_aggregation_ray.pipelines import harvest as hmod

    real_scan = hmod.scan_bucket

    @ray.remote(num_cpus=1, num_returns="streaming")
    def slow_scan(path, *args):
        if path.endswith("part-00.parquet"):
            time.sleep(5)
        yield from real_scan(path, *args)

    monkeypatch.setattr(hmod, "_scan_bucket", slow_scan)
    out = str(tmp_path / "out")
    s = run_harvest(fx_dir, out, resume=False)
    order = [json.loads(l)["bucket"] for l in open(f"{out}/_manifest.jsonl")]
    assert sorted(order) == list(range(32))
    assert order.index(0) >= 8, order
    monkeypatch.undo()
    ref = run_harvest(fx_dir, str(tmp_path / "ref"), resume=False)
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s[k] == ref[k], k


def test_reconcile_added_and_removed_buckets(fx_dir, tmp_path):
    """C2 analog: a bucket dropped from the corpus is unscheduled
    (manifest records + output dir removed); a bucket missing from the
    manifest is reported as added and picked up by the next run."""
    import os
    import shutil as sh
    from d1_log_aggregation_ray.pipelines.harvest import reconcile

    out = str(tmp_path / "out")
    run_harvest(fx_dir, out, resume=False)

    # corpus copy minus bucket 31 == "node removed from the registry"
    fx2 = str(tmp_path / "fx2")
    os.makedirs(os.path.join(fx2, "transcripts"))
    for p in os.listdir(os.path.join(fx_dir, "transcripts")):
        if p != "part-31.parquet":
            os.link(os.path.join(fx_dir, "transcripts", p),
                    os.path.join(fx2, "transcripts", p))
    r = reconcile(fx2, out)
    assert r["removed"] == [31] and r["added"] == []
    assert not os.path.exists(os.path.join(out, "bucket_id=31"))

    # drop bucket 7 from the manifest == "new node registered"
    mpath = os.path.join(out, "_manifest.jsonl")
    recs = [l for l in open(mpath) if '"bucket": 7,' not in l]
    with open(mpath, "w") as f:
        f.writelines(recs)
    sh.rmtree(os.path.join(out, "bucket_id=7"), ignore_errors=True)
    r2 = reconcile(fx2, out)
    assert r2["added"] == [7] and r2["removed"] == []


def test_kill_file_stops_run(fx_dir, tmp_path):
    """The `<out>/_KILL` file variant: pre-created -> no bucket runs."""
    import os
    out = str(tmp_path / "out")
    os.makedirs(out, exist_ok=True)
    open(os.path.join(out, "_KILL"), "w").close()
    s = run_harvest(fx_dir, out, resume=False)
    assert s["stopped_early"] is True and s["buckets"] == 0
    os.remove(os.path.join(out, "_KILL"))
    s2 = run_harvest(fx_dir, out, resume=True)
    assert s2["stopped_early"] is False
    assert s2["buckets"] == 32


def test_incremental_delta_harvest(fx_dir, tmp_path):
    """The reference's core watermark semantic (LogHarvesterTask.java:
    189-204,492-496): rows appended to an already-harvested bucket are
    picked up by the next run as a DELTA — only the new rows are
    enriched/written (no dupes, no re-write of prior output), the
    repeat-visit window still sees the conv's prior turns, the
    watermark advances, and the result equals a from-scratch run."""
    import os
    from datetime import timedelta

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from d1_log_aggregation_ray.pipelines.harvest import reconcile

    corpus = str(tmp_path / "corpus")
    shutil.copytree(fx_dir, corpus)
    out = str(tmp_path / "out")
    s1 = run_harvest(corpus, out, resume=False)
    keys1 = _read_keys(out)

    # append 3 turns to the conv that OWNS bucket 5's max ts: two
    # within the 30s repeat window (prove the delta scan saw the
    # conv's PRIOR turns — an isolated scan of just the new rows
    # could never flag the first one), one far later
    part = os.path.join(corpus, "transcripts", "part-05.parquet")
    t = pq.read_table(part)
    max_ts = pc.max(t.column("ts")).as_py()
    cid = t.filter(pc.equal(t.column("ts"), max_ts)
                   ).column("conv_id")[0].as_py()
    sub = t.filter(pc.equal(t.column("conv_id"), cid))
    next_idx = pc.max(sub.column("turn_idx")).as_py() + 1
    new_rows = pa.table({
        "conv_id": pa.array([cid] * 3),
        "turn_idx": pa.array(range(next_idx, next_idx + 3), pa.int32()),
        "role": pa.array(["assistant"] * 3),
        "text": pa.array([f"delta turn {i}" for i in range(3)]),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array([max_ts + timedelta(seconds=s)
                        for s in (10, 20, 3600)], pa.timestamp("us")),
    })
    pq.write_table(pa.concat_tables([t, new_rows]), part)

    rep = reconcile(corpus, out)
    assert rep == {"added": [], "removed": [], "grown": [5]}

    from d1_log_aggregation_ray.state.manifest import Manifest
    wm_before = Manifest(f"{out}/_manifest.jsonl").latest_complete()[5]["max_ts"]
    s2 = run_harvest(corpus, out, resume=True)
    assert s2["delta_buckets"] == [5]
    assert s2["delta_rows_out"] == 3          # ONLY the new rows written
    assert s2["rows_out_total"] == s1["rows_out_total"] + 3
    wm_after = Manifest(f"{out}/_manifest.jsonl").latest_complete()[5]["max_ts"]
    assert wm_after > wm_before               # bucket watermark advanced
    keys2 = _read_keys(out)
    assert len(keys2) == len(set(keys2)) == len(keys1) + 3  # no dupes

    # ground truth: a from-scratch harvest of the grown corpus must
    # match the incremental output row-for-row (incl. window flags)
    out_full = str(tmp_path / "out_full")
    s_full = run_harvest(corpus, out_full, resume=False)
    cols = ["turn_id", "sink_id", "is_repeat_visit", "in_partial_list",
            "in_full_list", "ts"]
    def _sorted_tbl(d):
        tb = pads.dataset(d, partitioning="hive").to_table(columns=cols)
        return tb.sort_by("turn_id")
    assert _sorted_tbl(out).equals(_sorted_tbl(out_full))
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s2[k] == s_full[k], k
    # the two in-window delta turns ARE repeat visits: prior-turn
    # continuity across the watermark worked (an isolated scan of only
    # the appended rows would have left the first one unflagged)
    tb = _sorted_tbl(out)
    mask = pc.is_in(tb.column("turn_id"),
                    value_set=pa.array([f"{cid}.{next_idx}",
                                        f"{cid}.{next_idx + 1}"]))
    flagged = tb.filter(mask)
    assert flagged.num_rows == 2
    assert pc.all(flagged.column("is_repeat_visit")).as_py() is True

    # a third resume is a no-op: rows_in advanced with the delta record
    s3 = run_harvest(corpus, out, resume=True)
    assert s3["delta_buckets"] == [] and s3["rows_in_this_run"] == 0
    assert _read_keys(out) == keys2


def test_read_task_retry_recovers_without_wave_restart(fx_dir, tmp_path,
                                                       monkeypatch):
    """C5 at TASK granularity: a transient in-task read failure is
    retried by Ray (max_retries + retry_exceptions on the per-bucket
    load task) — with the driver-side bucket retry DISABLED
    (source_retry_attempts=0), the run still completes with correct
    totals, proving recovery happened inside the task."""
    import dataclasses
    import os
    from d1_log_aggregation_ray.config import DEFAULT_CONFIG
    from d1_log_aggregation_ray.sources import readers

    ref = run_harvest(fx_dir, str(tmp_path / "ref"), resume=False)

    sentinel = str(tmp_path / "task_fault_once")
    open(sentinel, "w").close()
    monkeypatch.setattr(readers, "_FAULT_ONCE_PATH", sentinel)
    cfg = dataclasses.replace(DEFAULT_CONFIG, source_retry_attempts=0)
    out = str(tmp_path / "out")
    s = run_harvest(fx_dir, out, cfg=cfg, resume=False)
    assert not os.path.exists(sentinel)  # the fault really fired
    for k in ("rows_out_total", "in_partial_list", "in_full_list",
              "is_repeat_visit", "max_ts"):
        assert s[k] == ref[k], k
    assert _read_keys(out) == _read_keys(str(tmp_path / "ref"))
