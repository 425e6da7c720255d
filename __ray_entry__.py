"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Transcript-family queries run over the deterministic generated corpus
(seed=42, /tmp/graft_data/<sf>/ — generated idempotently on first use);
their oracle SQL reads the same parquet by absolute path.
Training-data-family queries run over the pre-registered testdata
views (documents / embeddings / events).

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline (parse -> enrich -> window -> route) on the
    sf0.001 corpus; returns the enriched-record Dataset."""
    from d1_log_aggregation_ray.gen.fixtures import generate_fixtures
    from d1_log_aggregation_ray.pipelines.harvest import build_pipeline
    fx = generate_fixtures("/root/testdata/sf0.001")
    return build_pipeline(fx)


def queries() -> dict[str, Callable[[str], Any]]:
    from d1_log_aggregation_ray.pipelines.queries import RAY_QUERIES
    return dict(RAY_QUERIES)


def oracle_sql() -> dict[str, str]:
    """SQL oracles: EVERY query is checked (one oracle per registry
    entry; 154/154) —
    pure SQL for the relational/text family, ANALYTIC arithmetic SQL
    for the real-stdlib media decode/audit/dedup (geometry and
    corruption rules are planted, so the expected output is stated
    independently of the codecs), a generated DuckDB mirror for
    lang_id and LSH top-k (seeded hyperplanes inlined as literals),
    and pinned golden sets for the deterministic dedup families and
    the HLL sketch (tests/goldens/, regenerated by
    scripts/make_goldens.py, cross-validated by independent
    pure-python references in tests/test_independent_reference.py)."""
    from d1_log_aggregation_ray.pipelines.queries import oracle_sql_strings
    return oracle_sql_strings("/root/testdata/sf0.01")
