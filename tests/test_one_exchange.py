"""Every keyed shuffle in the package goes through functions/parts: with
Ray Data's own groupby, repartition and sum patched to raise, each
operator that once used one still matches its oracle; with
Dataset.union patched to raise, so does every two-sided join, which
hands its sides to exchange separately."""

import duckdb
import pytest

import ray.data

from test_oracle_parity import SF_DIR, TABLES, _check_query_vs_oracle


@pytest.fixture
def no_ray_shuffle(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Ray Data shuffle ran")
    for name in ("groupby", "repartition", "sum"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse)


@pytest.fixture
def no_union(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Dataset.union ran")
    monkeypatch.setattr(ray.data.Dataset, "union", refuse)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF_DIR}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", [
    "shuffle_shards", "source_stats", "pack_shards", "export_tar",
    "sorted_export", "funnel_counts", "funnel_window", "route_counts",
    "events_agg", "dedup_clusters"])
def test_query_matches_oracle_without_ray_shuffle(name, no_ray_shuffle,
                                                  con, fx_dir):
    _check_query_vs_oracle(name, SF_DIR, con)


@pytest.mark.parametrize("name", [
    "top_orders", "big_orders", "regional_revenue", "cust_no_orders",
    "order_fill", "order_fill_outer", "order_lines", "interval_join",
    "priority_semi", "dedup_ngram", "incremental_minhash"])
def test_join_matches_oracle_without_union(name, no_union, con, fx_dir):
    _check_query_vs_oracle(name, SF_DIR, con)


def test_compact_without_ray_shuffle(no_ray_shuffle, tmp_path):
    """The compacted segment keeps each unique key once (the
    test_index_compact oracle) in one file: a toy index is far below
    the 8 MiB file target."""
    from test_index_compact import _corpus, _docs
    import pyarrow.parquet as pq
    from d1_log_aggregation_ray.ops.dedup import (
        _index_parquet_files, append_minhash_index, build_minhash_index,
        compact_minhash_index)
    idx = str(tmp_path / "idx")
    ids, tx = _corpus(7, 30, 0)
    build_minhash_index(_docs(ids, tx), idx)
    append_minhash_index(_docs([i + 100 for i in ids], tx), idx)
    n_rows_raw = sum(pq.read_metadata(p).num_rows
                     for p in _index_parquet_files(idx))
    rep = compact_minhash_index(idx)
    assert rep["action"] == "merged"
    assert rep["n_keys"] == n_rows_raw // 2
    assert rep["n_out_files"] == 1
