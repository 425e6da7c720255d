"""CLI driver smoke (C1 analog): the subcommand handlers run end to
end against the sf0.001 corpus.  Handlers are invoked directly (not
via main()) so the session-scoped Ray fixture is not shut down."""

import argparse
import json

from d1_log_aggregation_ray import cli


def test_cli_harvest_reconcile_query(fx_dir, tmp_path, capsys):
    out = str(tmp_path / "out")
    cli.cmd_harvest(argparse.Namespace(
        sf_dir="/root/testdata/sf0.001", out=out, no_resume=True))
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows_out_total"] == 5000 and not summary["stopped_early"]

    cli.cmd_reconcile(argparse.Namespace(
        sf_dir="/root/testdata/sf0.001", out=out))
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec == {"added": [], "removed": [], "grown": []}

    cli.cmd_query(argparse.Namespace(
        name="events_agg", sf_dir="/root/testdata/sf0.001"))
    q = capsys.readouterr().out
    assert "rows=" in q


def test_cli_compact_and_export(fx_dir, tmp_path, capsys):
    out = str(tmp_path / "out")
    cli.cmd_harvest(argparse.Namespace(
        sf_dir="/root/testdata/sf0.001", out=out, no_resume=True))
    capsys.readouterr()

    cli.cmd_compact(argparse.Namespace(out=out))
    comp = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert comp["leaves"] > 0 and comp["merged"] == 0  # single-slice leaves

    exp = str(tmp_path / "export")
    cli.cmd_export(argparse.Namespace(
        sf_dir="/root/testdata/sf0.001", out=exp))
    e = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert e["written"] == e["shards"] > 0 and e["n_turns"] > 0
