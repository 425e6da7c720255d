"""Benchmark-owned corpora.

The package generator writes the fixed seed-42 corpus; the harvest
workloads run on a copy whose conversation set depends on the
benchmark seed, and harvest_delta further splits that copy into a base
(newest turns held back) and the grown full corpus.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from d1_log_aggregation_ray.gen import fixtures

#: share of (non-hot) conversations the seed drops from the corpus copy
DROP_SHARE = 0.05
#: conversations at least this long are always kept, so the seed never
#: removes the generator's planted hot conversations (~4% and ~0.5% of
#: all turns) and the skew every run sees stays the same
HOT_TURNS = 1000
#: per-bucket share of valid turns harvest_delta holds back, drawn per
#: bucket from this range by the seed
HOLDBACK_RANGE = (0.04, 0.06)

_SIDE_FILES = ("conv_meta.parquet", "event_type_lookup.parquet",
               "node_registry.parquet", "range_list.parquet",
               "patterns_partial.txt", "patterns_full.txt")


def sf_dir(work: str, scale: float) -> str:
    """The scale-factor path the package's entry points take."""
    return os.path.join(work, f"sf{scale:g}")


def base_corpus(work: str, scale: float) -> str:
    """The package's fixed seed-42 corpus, generated (once per
    checkout) under `work` rather than the generator's default root,
    so the benchmark reads and writes only inside its checkout.  The
    registry queries resolve their corpus through the same module
    attribute."""
    fixtures.DATA_ROOT = os.path.join(work, "data")
    return fixtures.generate_fixtures(sf_dir(work, scale))


def oracle_tables(work: str, scale: float) -> str:
    """Make `oracle_sql_strings(sf_dir)` callable on the benchmark's
    scale-factor path.  It renders every registry oracle, and
    three training-data oracles read documents.parquet (lang) and
    embeddings.parquet (vec_id, embedding) while rendering; the
    transcript queries the benchmark checks never read them, so a
    one-row stand-in of each is enough.  Returns the path."""
    d = sf_dir(work, scale)
    os.makedirs(d, exist_ok=True)
    stubs = {
        "documents.parquet": pa.table({"doc_id": pa.array([0], pa.int64()),
                                       "lang": ["en"]}),
        "embeddings.parquet": pa.table({
            "vec_id": pa.array([0], pa.int64()),
            "embedding": pa.array([[1.0] * 8], pa.list_(pa.float32()))}),
    }
    for name, t in stubs.items():
        path = os.path.join(d, name)
        if not os.path.exists(path):
            pq.write_table(t, path)
    return d


def valid_mask(t: pa.Table) -> pa.ChunkedArray:
    """Rows a harvest must keep: non-null, non-empty conv_id (counted
    here independently of the package's clean_project)."""
    conv = t.column("conv_id")
    return pc.fill_null(pc.and_kleene(conv.is_valid(),
                                      pc.not_equal(conv, "")), False)


def parts(fx: str) -> list[str]:
    tdir = os.path.join(fx, "transcripts")
    return sorted(os.path.join(tdir, p) for p in os.listdir(tdir)
                  if p.startswith("part-") and p.endswith(".parquet"))


def _write_fixture(dst: str, src_fx: str, tables: dict[str, pa.Table],
                   meta_update: dict) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(os.path.join(dst, "transcripts"))
    for name in _SIDE_FILES:
        shutil.copyfile(os.path.join(src_fx, name), os.path.join(dst, name))
    with open(os.path.join(src_fx, "meta.json")) as f:
        meta = json.load(f)
    meta.update(meta_update)
    with open(os.path.join(dst, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(dst, "transcripts", name),
                       row_group_size=64 * 1024)


def _n_valid(tables: dict[str, pa.Table]) -> int:
    return sum(int(pc.sum(valid_mask(t)).as_py() or 0)
               for t in tables.values())


def seeded_tables(base_fx: str, seed: int) -> dict[str, pa.Table]:
    """Base corpus parts minus a seed-chosen DROP_SHARE of the
    conversations shorter than HOT_TURNS (corrupt rows are kept)."""
    tables = {os.path.basename(p): pq.read_table(p) for p in parts(base_fx)}
    counts = pa.concat_tables(
        [t.select(["conv_id"]).filter(valid_mask(t)) for t in tables.values()]
    ).column("conv_id").value_counts()
    convs = counts.field("values").to_numpy(zero_copy_only=False)
    lens = counts.field("counts").to_numpy()
    cand = np.sort(convs[lens < HOT_TURNS].astype(str))
    rng = np.random.default_rng(seed)
    drop = pa.array(rng.choice(cand, size=int(len(cand) * DROP_SHARE),
                               replace=False), pa.string())
    return {name: t.filter(pc.invert(pc.fill_null(
                pc.is_in(t.column("conv_id"), value_set=drop), False)))
            for name, t in tables.items()}


def build_seeded(base_fx: str, dst: str, seed: int) -> dict:
    """Write the seed's corpus copy; returns its valid-turn count."""
    tables = seeded_tables(base_fx, seed)
    n_valid = _n_valid(tables)
    _write_fixture(dst, base_fx, tables, {"n_valid": n_valid,
                                          "bench_seed": seed})
    return {"fx": dst, "n_valid": n_valid}


def holdback_mask(t: pa.Table, share: float) -> np.ndarray:
    """Rows of one bucket to hold back: the newest ~`share` of its
    valid, timestamped turns, with the cut-off moved down until the
    held set is closed under turn order (every later turn of a held
    turn's conversation is held too).

    Closure matters because the repeat-visit scan walks each
    conversation in turn order: a held turn that precedes a kept one
    would change the kept turn's flag in a from-scratch harvest, so
    base + delta could not equal it.  Held turns are all newer than
    every kept turn, so a watermark re-harvest re-reads exactly them.
    """
    ok = (valid_mask(t).to_numpy(zero_copy_only=False)
          & t.column("ts").is_valid().to_numpy(zero_copy_only=False))
    rows = np.nonzero(ok)[0]
    held = np.zeros(t.num_rows, dtype=bool)
    k = int(round(share * len(rows)))
    if k == 0:
        return held
    df = pd.DataFrame({
        "conv": t.column("conv_id").to_numpy(zero_copy_only=False)[rows],
        "turn": t.column("turn_idx").to_numpy(zero_copy_only=False)[rows],
        "ts": t.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)[rows],
    })
    # m = min ts over this and every later turn of the conversation;
    # a cut-off c in [m, ts) would hold this turn but keep a later one
    df = df.sort_values(["conv", "turn"], ascending=[True, False])
    df["m"] = df.groupby("conv", sort=False)["ts"].cummin()
    bad = df[df["m"] < df["ts"]]
    lo, hi = bad["m"].to_numpy(), bad["ts"].to_numpy()
    ts = np.sort(df["ts"].to_numpy())
    c = int(ts[len(ts) - k - 1]) if k < len(ts) else int(ts[0]) - 1
    while True:
        inside = (lo <= c) & (c < hi)
        if not inside.any():
            break
        c = int(lo[inside].min()) - 1
    t_ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    held[rows] = t_ts[rows] > c
    return held


def build_delta(base_fx: str, full_dst: str, base_dst: str,
                seed: int) -> dict:
    """Write the seed's grown corpus and its held-back base; returns
    valid-turn counts of both and the number of held-back turns."""
    tables = seeded_tables(base_fx, seed)
    rng = np.random.default_rng([seed, 1])
    base_tables = {}
    n_held = 0
    for name in sorted(tables):
        t = tables[name]
        held = holdback_mask(t, float(rng.uniform(*HOLDBACK_RANGE)))
        n_held += int(held.sum())
        base_tables[name] = t.filter(pa.array(~held))
    n_valid = _n_valid(tables)
    _write_fixture(full_dst, base_fx, tables, {"n_valid": n_valid,
                                               "bench_seed": seed})
    _write_fixture(base_dst, base_fx, base_tables,
                   {"n_valid": n_valid - n_held, "bench_seed": seed})
    return {"fx": full_dst, "base_fx": base_dst, "n_valid": n_valid,
            "n_held": n_held}
