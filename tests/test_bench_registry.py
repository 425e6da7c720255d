"""Registry consistency: bench.py and __ray_entry__ both run
RAY_QUERIES — a query missing its oracle/rows-only classification
should fail HERE, not in a full contract run."""

#: legitimately-no-oracle queries — EMPTY since round 4 (media_decode
#: gained a real stdlib decoder + analytic oracle); everything in
#: RAY_QUERIES must have an oracle_sql_strings entry
ROWS_ONLY: set[str] = set()


def test_every_query_has_oracle_or_rows_only_reason():
    from d1_log_aggregation_ray.pipelines.queries import (
        RAY_QUERIES, oracle_sql_strings)
    oracles = set(oracle_sql_strings("/root/testdata/sf0.001"))
    unknown = set(RAY_QUERIES) - oracles - ROWS_ONLY
    assert not unknown, (
        f"queries with neither an oracle nor a rows-only listing: "
        f"{sorted(unknown)}")
    stale = ROWS_ONLY & oracles
    assert not stale, f"rows-only set now HAS oracles: {sorted(stale)}"

