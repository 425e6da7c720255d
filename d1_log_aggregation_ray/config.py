"""Pipeline configuration.

Mirrors the reference operating point (BASELINE.md):
  - repeat-visit window: 30 s with an exclusive +1 s interval end, i.e.
    a turn is a repeat iff prev < t < prev + 31 s (strict both sides;
    reference: LogEntrySolrItem.java:341-342,458-474 — the production
    semantic, chosen over ReadEventCounterCache.java:97-103 per SURVEY §5).
  - COUNTER gate: only a configured role set is flag-eligible
    (reference: eventsToCheck == {"read"}, LogHarvesterTask.java:140).
  - sink fan-out: hash(conv_id) % n_sinks (reference: Solr upsert sink,
    here K partitioned parquet sink directories).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Closed v1 role vocabulary — analog of the v1 Event enum
# (reference: LogEntrySolrItem.java:202-206: versionCompliance = "v1" iff
# the event string converts to the closed v1 enum, else "v2").
V1_ROLES = ("user", "assistant", "tool", "system")

# Sentinel dates (reference: LogHarvesterTask.java:102 DATE_UPDATE_INIT
# = 1900-01-01; dateAggregated = now at :355).
DATE_UPDATED_SENTINEL = "1900-01-01T00:00:00"


@dataclass(frozen=True)
class PipelineConfig:
    # repeat-visit: repeat iff prev < t < prev + interval_end_s
    repeat_visit_interval_end_s: int = 31  # 30 s window + 1 s exclusive end
    # roles eligible for COUNTER-style flagging (R1 gate)
    gate_roles: tuple[str, ...] = ("assistant",)
    # fan-out sinks (S6 analog)
    n_sinks: int = 8
    # number of hash buckets the generator partitions transcripts into;
    # convs never span buckets, so buckets are independent harvest units
    # (the "node" analog) and the unit of resume.
    n_buckets: int = 32
    # map_batches operating point
    batch_size: int | None = 8192
    # rows per terminal enrich+write slice (the skew-splitting unit: a
    # hot bucket parallelizes across slices instead of becoming one
    # straggler task)
    write_slice_rows: int = 65536
    v1_roles: tuple[str, ...] = field(default=V1_ROLES)
    # C5 source-side harvest retry, per bucket: a failed bucket (read or
    # transform error) is retried with backoff while the others run on;
    # on exhaustion the run raises once every other bucket has committed
    # its manifest record/watermark (reference: 60 s x <=5 sleep-retry
    # on harvest BaseException, per node, LogHarvesterTask.java:311-329)
    source_retry_attempts: int = 5
    source_retry_backoff_s: float = 60.0


DEFAULT_CONFIG = PipelineConfig()
