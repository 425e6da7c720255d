"""d1_log_aggregation_ray — a Ray-Data-native log/transcript aggregation engine.

A brand-new engine with the query/data-processing capabilities of
DataONE's CN log-aggregation service (DataONEorg/d1_log_aggregation,
surveyed in SURVEY.md), re-expressed over Parquet tables of multi-turn
conversation/agent transcripts:

    (conv_id: string, turn_idx: int32, role: string,
     text: string, tool: string, ts: timestamp[us])

Pipeline shape (reference: LogHarvesterTask.harvest,
LogHarvesterTask.java:129-525), one stage list in
pipelines.harvest._run_stages:

    read conv-hash bucket files -> clean/project + windowed
    repeat-visit scan (one task per bucket, no shuffle) -> slice
    -> regex parse + broadcast enrich + hash fan-out route (one task
    per slice) -> partitioned parquet sinks + lineage manifest

The flagship runs on raw Ray tasks: one streaming scan task per
bucket yields zero-copy Arrow slices, one task per slice calls a
worker-cached Enricher, there is no exchange (the input is bucketed by
conv hash), and writes are partition-atomic with a resumable
checkpoint manifest.  Registry queries return Ray Data Datasets, but
their per-bucket stages are raw Ray tasks too, one per file: the
bucket scans (`sources.readers.scan_buckets`, which every transcript
query reads through: the package has no other transcript reader),
the JSONL export and the sink compaction.  Keyed queries group through
`functions.parts.exchange`, a raw M x P Ray-task hash exchange that
runs eagerly and never emits an empty partition.
"""

__version__ = "0.1.0"


def _install_schema_hash_log_filter() -> None:
    """Ray's schema-DEDUPLICATION fast path hashes schemas into a set
    and logs a WARNING when a schema is unhashable (parquet
    pandas-metadata dicts), then falls back to the full unify —
    correct behavior, pure noise, and spammed once per unify.  Only
    that exact fallback message is dropped."""
    import logging

    class _SchemaHashFallback(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return ("Failed to hash the schemas (for deduplication)"
                    not in record.getMessage())

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_SchemaHashFallback())


_install_schema_hash_log_filter()
