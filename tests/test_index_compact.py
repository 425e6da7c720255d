"""Segmented minhash band index: day-N appends + size-coalescing
compaction (ops/dedup.append_minhash_index / compact_minhash_index).
Round-3 verdict item 6: 5 incremental runs -> compact -> survivors
identical, index file count bounded; plus crash-recovery and
idempotence of the marker protocol."""

import json
import os

import numpy as np
import pyarrow as pa

import ray.data

from d1_log_aggregation_ray.ops.dedup import (
    _COMPACT_MARKER, _index_parquet_files, append_minhash_index,
    build_minhash_index, compact_minhash_index,
    incremental_minhash_dedup)


def _docs(ids, texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts)}))


def _corpus(seed, n, start_id):
    rng = np.random.RandomState(seed)
    words = ("alpha beta gamma delta eps zeta eta theta iota kappa "
             "lam mu nu xi omic pi rho sigma tau ups").split()
    texts = [" ".join(rng.choice(words, size=15)) for _ in range(n)]
    return list(range(start_id, start_id + n)), texts


def _segmented_index(tmp_path, n_days=5):
    idx = str(tmp_path / "idx")
    ids0, t0 = _corpus(1, 40, 0)
    build_minhash_index(_docs(ids0, t0), idx)
    all_texts = list(t0)
    for day in range(2, n_days + 1):
        ids, tx = _corpus(day, 30, day * 1000)
        # each day repeats one earlier text so appends carry real keys
        tx[0] = all_texts[day]
        append_minhash_index(_docs(ids, tx), idx)
        all_texts += tx
    return idx, all_texts


def test_append_then_compact_preserves_survivors(tmp_path):
    idx, all_texts = _segmented_index(tmp_path)
    # day-final batch: two dups of indexed texts + three fresh docs
    ids, tx = _corpus(99, 5, 50_000)
    tx[0], tx[1] = all_texts[0], all_texts[-1]
    day = _docs(ids, tx)

    before = sorted(r["doc_id"] for r in
                    incremental_minhash_dedup(day, idx).take_all())
    n_files_before = len(_index_parquet_files(idx))
    assert n_files_before >= 5         # base + 4 daily segments

    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    assert rep["n_in_files"] == n_files_before
    n_files_after = len(_index_parquet_files(idx))
    assert n_files_after < n_files_before  # coalesced
    assert rep["n_out_files"] == n_files_after

    after = sorted(r["doc_id"] for r in
                   incremental_minhash_dedup(day, idx).take_all())
    assert after == before
    assert 50_000 not in after and 50_001 not in after  # dups caught
    assert len(after) == 3

    # second compact is a no-op (already one compacted segment)
    assert compact_minhash_index(idx)["action"] == "skip"


def test_compact_dedups_band_keys(tmp_path):
    """Appending the SAME corpus twice doubles the files but not the
    compacted key count: the merge collapses to globally-unique
    (part, band_key) rows."""
    idx = str(tmp_path / "idx")
    ids, tx = _corpus(7, 30, 0)
    build_minhash_index(_docs(ids, tx), idx)
    append_minhash_index(_docs([i + 100 for i in ids], tx), idx)
    import pyarrow.parquet as pq
    n_rows_raw = sum(pq.read_metadata(p).num_rows
                     for p in _index_parquet_files(idx))
    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    assert rep["n_keys"] == n_rows_raw // 2  # identical texts, same keys


def test_compact_crash_recovery_finishes_deletes(tmp_path):
    """Marker present + merged segment present = crash mid-delete:
    the rerun finishes the deletes and drops the marker, and the
    index stays correct."""
    idx, all_texts = _segmented_index(tmp_path, n_days=3)
    files = _index_parquet_files(idx)
    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    merged_top = {os.path.relpath(p, idx).split(os.sep)[0]
                  for p in _index_parquet_files(idx)}
    assert len(merged_top) == 1

    # simulate the crash: re-create a marker claiming the (existing)
    # merged segment plus one phantom input that was already deleted
    marker = {"merged": next(iter(merged_top)),
              "inputs": [os.path.relpath(files[0], idx)]}
    with open(os.path.join(idx, _COMPACT_MARKER), "w") as f:
        json.dump(marker, f)
    rep2 = compact_minhash_index(idx)
    assert rep2["action"] == "finish"
    assert not os.path.exists(os.path.join(idx, _COMPACT_MARKER))

    # stale marker (merged segment missing) is discarded, run proceeds
    with open(os.path.join(idx, _COMPACT_MARKER), "w") as f:
        json.dump({"merged": "seg-compact-missing", "inputs": []}, f)
    rep3 = compact_minhash_index(idx)
    assert rep3["action"] in ("skip", "merged")
    assert not os.path.exists(os.path.join(idx, _COMPACT_MARKER))


def test_compact_sweeps_orphaned_tmp_dirs(tmp_path):
    """A crash between marker write and segment rename leaves a dead
    `_tmp-*` dir (and possibly a leaked marker.tmp); the next compact
    sweeps both before doing anything else (review finding)."""
    idx, _ = _segmented_index(tmp_path, n_days=2)
    dead = os.path.join(idx, "_tmp-seg-compact-deadbeef")
    os.makedirs(dead)
    with open(os.path.join(dead, "junk.parquet"), "wb") as f:
        f.write(b"not parquet")
    with open(os.path.join(idx, _COMPACT_MARKER + ".tmp"), "w") as f:
        f.write("{}")
    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    assert not os.path.exists(dead)
    assert not os.path.exists(os.path.join(idx, _COMPACT_MARKER + ".tmp"))


def test_compact_sweep_spares_append_tmp_segment(tmp_path):
    """The orphan sweep is scoped to compaction's OWN tmp prefix
    (round-4 ADVICE): an append_minhash_index in-flight tmp segment
    (`_tmp-seg-<tag>`, no `compact` infix) present during a compact
    run must survive untouched — only `_tmp-seg-compact-*` is swept."""
    idx, _ = _segmented_index(tmp_path, n_days=2)
    live_append = os.path.join(idx, "_tmp-seg-0123456789abcdef")
    os.makedirs(live_append)
    with open(os.path.join(live_append, "part.parquet"), "wb") as f:
        f.write(b"in-flight append bytes")
    dead = os.path.join(idx, "_tmp-seg-compact-deadbeef")
    os.makedirs(dead)
    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    assert not os.path.exists(dead)
    assert os.path.isfile(os.path.join(live_append, "part.parquet"))


def test_compact_sweep_spares_tmp_dir_with_fresh_file(tmp_path):
    """A foreign `_tmp-*` dir is reclaimed by the newest mtime in its
    tree, not by the top dir's own mtime: a writer adding files deep
    inside never touches the top dir, so an aged top dir holding a
    fresh file is still live.  A tree that is old throughout goes."""
    idx, _ = _segmented_index(tmp_path, n_days=2)
    old = os.path.getmtime(idx) - 7200          # past the 1 h threshold
    live = os.path.join(idx, "_tmp-seg-live0123456789ab")
    dead = os.path.join(idx, "_tmp-seg-dead0123456789ab")
    for d in (live, dead):
        os.makedirs(os.path.join(d, "bucket=0"))
        with open(os.path.join(d, "bucket=0", "part.parquet"), "wb") as f:
            f.write(b"append bytes")
    os.utime(os.path.join(dead, "bucket=0", "part.parquet"), (old, old))
    for d in (live, dead):
        os.utime(os.path.join(d, "bucket=0"), (old, old))
        os.utime(d, (old, old))
    compact_minhash_index(idx)
    assert os.path.isfile(os.path.join(live, "bucket=0", "part.parquet"))
    assert not os.path.exists(dead)


def test_index_built_and_queried_on_different_pool_sizes(tmp_path,
                                                         monkeypatch):
    """The index stores band keys, never partition ids: built with 4
    CPUs (P = 8) and queried with 6 (P = 12), every exact copy of a
    prior doc still meets its prior bucket and is dropped."""
    from d1_log_aggregation_ray.functions import parts
    idx = str(tmp_path / "idx")
    ids, texts = _corpus(3, 400, 0)
    texts = [f"{t} doc{i}" for i, t in zip(ids, texts)]   # all distinct
    monkeypatch.setattr(parts, "_cpus", lambda: 4)
    build_minhash_index(_docs(ids, texts), idx, n_bands=1)
    monkeypatch.setattr(parts, "_cpus", lambda: 6)
    copies = _docs([10_000 + i for i in ids], texts)
    surv = incremental_minhash_dedup(copies, idx, n_bands=1).take_all()
    assert surv == []
