"""d1_log_aggregation_ray — a Ray-Data-native log/transcript aggregation engine.

A brand-new engine with the query/data-processing capabilities of
DataONE's CN log-aggregation service (DataONEorg/d1_log_aggregation,
surveyed in SURVEY.md), re-expressed over Parquet tables of multi-turn
conversation/agent transcripts:

    (conv_id: string, turn_idx: int32, role: string,
     text: string, tool: string, ts: timestamp[us])

Pipeline shape (reference: LogHarvesterTask.harvest,
LogHarvesterTask.java:129-525), one stage list in
pipelines.harvest.build_pipeline:

    read conv-hash bucket files -> clean/project + windowed
    repeat-visit scan (one task per bucket, no shuffle) -> slice
    -> regex parse + broadcast enrich + hash fan-out route (one task
    per slice) -> partitioned parquet sinks + lineage manifest

Everything is idiomatic Ray Data: `map_batches` over zero-copy Arrow
batches, a worker-cached Enricher called as a task, no exchange in the
flagship (the input is bucketed by conv hash), and partition-atomic
writes with a resumable checkpoint manifest.
"""

__version__ = "0.1.0"


def _install_empty_schema_warning_filter() -> None:
    """Suppress Ray's "RefBundle with a different schema" WARNING only
    when one side of the transition is an EMPTY schema.

    `functions.parts.exchange`, the package's one hash exchange, runs
    on Ray's sort-based groupby, which emits schemaless zero-row blocks
    whenever the shuffle has more output ranges than distinct partition
    ids (the partition column has ~2x CPUs values, while the sort
    produces one range per input block) — `exchange` never calls its
    `fn` for those blocks, so they cannot be typed from user code.  A
    transition between two NON-empty schemas is a real bug signal and
    still warns.
    """
    import logging

    class _EmptySchemaTransition(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            if "RefBundle with a different schema" not in msg:
                return True
            return not ("new schema: ." in msg
                        or "Previous schema: ," in msg)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaTransition())

    class _SchemaHashFallback(logging.Filter):
        """Ray's schema-DEDUPLICATION fast path hashes schemas into a
        set and logs a WARNING when a schema is unhashable (parquet
        pandas-metadata dicts), then falls back to the full unify —
        correct behavior, pure noise, and spammed once per shuffle
        aggregator per query.  Only that exact fallback message is
        dropped."""

        def filter(self, record: logging.LogRecord) -> bool:
            return ("Failed to hash the schemas (for deduplication)"
                    not in record.getMessage())

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_SchemaHashFallback())


_install_empty_schema_warning_filter()
