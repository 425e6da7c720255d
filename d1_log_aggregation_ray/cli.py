"""CLI driver — the `ray job submit` entry point.

Replaces the reference's Quartz schedule manager + per-node jobs
(LogAggregationScheduleManager.java:270-353, LogAggregationHarvestJob):
one driver process owns the run; per-bucket leases/watermarks live in
the checkpoint manifest, so a killed run resumes with

    ray job submit -- python -m d1_log_aggregation_ray.cli harvest \
        --sf-dir /root/testdata/sf0.01 --out /tmp/harvest_out

Subcommands:
  harvest    run/resume the flagship pipeline
  reenrich   incremental re-enrichment for changed convs (C6)
  reconcile  diff corpus buckets vs the manifest, dropping stale
             partitions and reporting new ones (C2)
  query      run one named query and print row count + head

A running harvest drains cooperatively when `<out>/_KILL` exists (C4).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime

import ray


def _ensure_ray():
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)


def cmd_harvest(args) -> int:
    from .gen.fixtures import generate_fixtures
    from .pipelines.harvest import run_harvest
    _ensure_ray()
    fx = generate_fixtures(args.sf_dir)
    summary = run_harvest(fx, args.out, resume=not args.no_resume)
    print(json.dumps(summary))
    return 0


def cmd_reenrich(args) -> int:
    from .gen.fixtures import generate_fixtures
    from .pipelines.reenrich import reenrich_convs
    _ensure_ray()
    fx = generate_fixtures(args.sf_dir)
    res = reenrich_convs(args.out, fx, args.conv, datetime.now())
    print(json.dumps(res))
    return 0


def cmd_reconcile(args) -> int:
    from .gen.fixtures import generate_fixtures
    from .pipelines.harvest import reconcile
    fx = generate_fixtures(args.sf_dir)
    print(json.dumps(reconcile(fx, args.out)))
    return 0


def cmd_compact(args) -> int:
    from .sources.compact import compact_output
    _ensure_ray()
    man = compact_output(args.out).take_all()
    merged = [r for r in man if r["action"] == "merged"]
    print(json.dumps({"leaves": len(man), "merged": len(merged),
                      "rows_merged": sum(r["n_rows"] for r in merged)}))
    return 0


def cmd_export(args) -> int:
    from .gen.fixtures import generate_fixtures
    from .sources.export import export_conversations_jsonl
    _ensure_ray()
    fx = generate_fixtures(args.sf_dir)
    man = export_conversations_jsonl(fx, args.out).take_all()
    done = [r for r in man if not r["skipped"]]
    print(json.dumps({"shards": len(man), "written": len(done),
                      "n_convs": sum(r["n_convs"] for r in done),
                      "n_turns": sum(r["n_turns"] for r in done)}))
    return 0


def cmd_query(args) -> int:
    from .pipelines.queries import RAY_QUERIES
    _ensure_ray()
    res = RAY_QUERIES[args.name](args.sf_dir)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    print(f"rows={len(df)}")
    print(df.head(10))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="d1_log_aggregation_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    h = sub.add_parser("harvest")
    h.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    h.add_argument("--out", required=True)
    h.add_argument("--no-resume", action="store_true")
    h.set_defaults(fn=cmd_harvest)

    r = sub.add_parser("reenrich")
    r.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    r.add_argument("--out", required=True)
    r.add_argument("--conv", nargs="+", required=True)
    r.set_defaults(fn=cmd_reenrich)

    c = sub.add_parser("reconcile")
    c.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_reconcile)

    k = sub.add_parser("compact")
    k.add_argument("--out", required=True)
    k.set_defaults(fn=cmd_compact)

    e = sub.add_parser("export")
    e.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)

    q = sub.add_parser("query")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    rc = args.fn(args)
    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
