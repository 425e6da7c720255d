"""Enrichment stages: broadcast lookups, membership semi-join, synthetic
geo + geohash, constants, sink routing.

Reference analogs:
  - J1/J2/J3 sysmeta + format-type + access-policy joins
    (LogHarvesterTask.java:347-349; LogEntrySolrItem.java:215-265;
    LogAccessRestriction.java:41-89) -> vectorized broadcast hash join:
    pc.index_in against side arrays held in the Enricher.
  - J5 robot-IP semi-join with CIDR ranges (LogEntrySolrItem.java:388-442)
    -> exact-key is_in + interval hit via np.searchsorted over merged
    sorted [lo,hi] uint32 ranges (the CIDR -> (lo,hi) compilation).
  - J4 GeoIP stateful enrich (LogEntrySolrItem.java:274-320,
    GeoIPService.java:78-167) -> synthetic geo derived as a pure
    function of the 64-bit conv hash (same shape: point lookup into a
    preloaded structure), then geohash precision 9 with
    prefixes 1..9 (LogEntrySolrItem.java:304-314).
  - M4 constants/overwrites: nodeId overwritten with harvesting node
    (bug #4099 fix, LogHarvesterTask.java:346-356), dateUpdated sentinel
    1900-01-01 (:102), dateAggregated = run timestamp (:355 — here a
    deterministic run_ts parameter instead of wall-clock `now` so
    re-runs are idempotent and oracle-comparable).
  - S6 routing: sink_id = hash(conv_id) % n_sinks (content-hash fan-out
    to per-sink parquet dirs, replacing the Solr upsert sink).

The Enricher is the stateful stage, called as a plain task: each worker
process caches one instance (pipelines.harvest._get_enricher), whose
side tables come from a single ray.put broadcast, never per batch.  All
per-row work is pyarrow/numpy kernels; md5 + geohash run once per
*unique* conv_id per batch and scatter via index LUTs.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..config import PipelineConfig, DEFAULT_CONFIG, DATE_UPDATED_SENTINEL
from ..functions.hashing import md5_lower64
from ..functions.geohash import geohash_encode, geohash_encode_array
from ..sources.readers import SideTables
from .parse import regex_flags

DEFAULT_RUN_TS = datetime(2025, 6, 1)

# canonical enriched-record column order (LogEntrySolrItem analog, §1.1)
ENRICHED_COLUMNS = [
    "turn_id", "conv_id", "turn_idx", "role", "text", "tool", "ts",
    "version_compliance", "date_aggregated", "date_updated", "node_id",
    "format_id", "series_id", "size", "rights_holder", "read_permission",
    "tool_family", "country", "region", "city", "location",
    *[f"geohash_{i}" for i in range(1, 10)],
    "in_partial_list", "in_full_list", "is_repeat_visit",
    "bucket_id", "sink_id",
]


def geo_fields_for_hash(h: int) -> dict:
    """Synthetic geo from a 64-bit hash — pure arithmetic, reproducible
    in DuckDB SQL (md5_number_lower-based)."""
    lat = (h % 170000) / 1000.0 - 85.0
    lon = ((h // 170000) % 360000) / 1000.0 - 180.0
    gh = geohash_encode(lat, lon, 9)
    return {
        "country": f"country-{h % 40}",
        "region": f"region-{(h // 40) % 60}",
        "city": f"city-{(h // 2400) % 97}",
        "location": f"{lat:.4f}, {lon:.4f}",
        "geohash": gh,
    }


class Enricher:
    """Callable enrichment of a table of scanned turns.  O(1) to
    construct; the harvest keeps one per worker process and calls it
    once per slice (pipelines.harvest._get_enricher)."""

    def __init__(self, side: "SideTables | ray.ObjectRef",
                 cfg: PipelineConfig = DEFAULT_CONFIG,
                 run_ts: datetime = DEFAULT_RUN_TS,
                 light: bool = False):
        """light=True: flags + routing only (skip meta/geo/constants) —
        for aggregate-only consumers that would otherwise pay for ~25
        unused enrichment columns."""
        if isinstance(side, ray.ObjectRef):
            side = ray.get(side)
        self.light = light
        self.side = side
        self.cfg = cfg
        self.run_ts = run_ts
        self._gate_set = pa.array(list(cfg.gate_roles))
        # NOTE: __init__ must stay O(1).  All heavy lookup indexes
        # (member_sorted / meta_keys_sorted / meta_perm) are prebuilt in
        # the DRIVER by load_side_tables and resolved here with
        # vectorized np.searchsorted — a worker that builds a 300k-key
        # python dict takes seconds under a concurrent fleet start, and
        # per-batch pc.index_in/is_in rebuild their hash table on every
        # call (~40 ms/batch).  Both are avoided.
        # (the per-conv dict cache of earlier rounds is gone: with the
        # geo/membership resolution fully vectorized over the batch's
        # UNIQUE convs, recomputing is cheaper than the python dict
        # probe + scatter loops the cache itself required)
        # per-batch constants prebuilt once (TZ-independent epoch math —
        # datetime.timestamp() would use the machine's local zone)
        from ..functions.hashing import epoch_us
        self._run_ts_us = epoch_us(run_ts)
        self._sentinel_us = epoch_us(datetime.fromisoformat(DATE_UPDATED_SENTINEL))
        self._meta_size_arr = pa.array(side.meta_size)
        self._node_ids = pa.array([f"urn:node:SYNTH{b:02d}"
                                   for b in range(cfg.n_buckets)])

    # -- per-batch helpers -------------------------------------------------

    def _conv_luts(self, conv: pa.Array):
        """Per-unique-conv LUTs (hash, geo, membership, meta row),
        scattered to rows via dictionary indices.

        Everything except the md5 digests (inherently per-item) is
        vectorized over the batch's unique convs: membership + meta row
        via ONE searchsorted each on the driver-sorted fixed-width
        string arrays, hash-space interval membership via one
        searchsorted on the merged [lo,hi] ranges, geo fields as pure
        numpy arithmetic + C %-formatting, geohash via the vectorized
        bisection (functions/geohash.geohash_encode_array — bit-parity
        tested against the scalar encoder)."""
        if conv.null_count:
            raise ValueError(
                "Enricher requires cleaned input (null conv_id present) — "
                "run clean_project / the M2 validity filter first")
        enc = conv.dictionary_encode()
        uniq = enc.dictionary
        n = len(uniq)
        side = self.side
        uniq_list = uniq.to_pylist()
        h64 = np.fromiter((md5_lower64(s) for s in uniq_list),
                          dtype=np.uint64, count=n)
        mu = np.array(uniq_list, dtype=str) if n else np.empty(0, dtype=str)
        ms = side.member_sorted
        if len(ms) and n:
            pos = np.clip(np.searchsorted(ms, mu), 0, len(ms) - 1)
            member = ms[pos] == mu
        else:
            member = np.zeros(n, dtype=bool)
        lo, hi = side.range_lo, side.range_hi
        if len(lo) and n:
            h32 = h64 % np.uint64(2**32)
            p = np.searchsorted(lo, h32, side="right") - 1
            member |= (p >= 0) & (h32 <= hi[np.clip(p, 0, None)])
        meta_row = side.meta_rows(mu)
        lat = (h64 % np.uint64(170000)).astype(np.float64) / 1000.0 - 85.0
        lon = ((h64 // np.uint64(170000)) % np.uint64(360000)
               ).astype(np.float64) / 1000.0 - 180.0
        geo_cols = {
            "country": pa.array(np.char.add(
                "country-", (h64 % np.uint64(40)).astype(str))),
            "region": pa.array(np.char.add(
                "region-", ((h64 // np.uint64(40)) % np.uint64(60)).astype(str))),
            "city": pa.array(np.char.add(
                "city-", ((h64 // np.uint64(2400)) % np.uint64(97)).astype(str))),
            "location": pa.array(np.char.add(np.char.add(
                np.char.mod("%.4f", lat), ", "), np.char.mod("%.4f", lon))),
            "geohash": pa.array(geohash_encode_array(lat, lon, 9)),
        } if n else {
            k: pa.array([], type=pa.string())
            for k in ("country", "region", "city", "location", "geohash")}
        idx = np.asarray(pc.fill_null(enc.indices, 0)).astype(np.int64)
        return h64, geo_cols, member, meta_row, idx

    def __call__(self, batch: pa.Table) -> pa.Table:
        side, cfg = self.side, self.cfg
        n = batch.num_rows
        if "turn_id" not in batch.column_names:
            # harvest path defers the derivable M5/M1 columns past the
            # scan->slice object-store transit (see project.py)
            from .project import derived_columns
            batch = derived_columns(batch, cfg)
        conv = batch.column("conv_id").combine_chunks()

        # R1-R3: regex banks (vectorized union match)
        batch = regex_flags(batch, side.partial_union, side.full_union, cfg)

        h64_lut, geo_lut, member_lut, meta_lut, idx = self._conv_luts(conv)
        h64 = h64_lut[idx]

        # J5: membership semi-join (exact keys + hash-space intervals,
        # resolved once per unique conv in _conv_luts); promotes BOTH
        # flags for gated rows not already fully flagged (reference:
        # checks skipped when UA already matched both lists,
        # LogEntrySolrItem.java:388-394)
        gated = pc.fill_null(
            pc.is_in(batch.column("role"), value_set=self._gate_set), False)
        in_p = batch.column("in_partial_list")
        in_f = batch.column("in_full_list")
        member = pa.array(member_lut[idx])
        promote = pc.and_(pc.and_(gated, member),
                          pc.invert(pc.and_(in_p, in_f)))
        in_p = pc.or_(in_p, promote)
        in_f = pc.or_(in_f, promote)
        batch = batch.set_column(
            batch.schema.get_field_index("in_partial_list"),
            "in_partial_list", in_p)
        batch = batch.set_column(
            batch.schema.get_field_index("in_full_list"),
            "in_full_list", in_f)

        if self.light:
            sink = (h64 % np.uint64(cfg.n_sinks)).astype(np.int32)
            batch = batch.append_column("sink_id", pa.array(sink, type=pa.int32()))
            keep = [c for c in ("turn_id", "conv_id", "turn_idx",
                                "in_partial_list", "in_full_list",
                                "is_repeat_visit", "sink_id")
                    if c in batch.column_names]
            return batch.select(keep)

        # J1/J3: conv_meta broadcast join (null-tolerant; size default 0,
        # LogEntrySolrItem.java:251-256) — row indexes resolved per
        # unique conv in _conv_luts, scattered here, then one take()
        mrows = meta_lut[idx]
        midx = pa.array(mrows, mask=(mrows < 0))
        batch = batch.append_column("format_id", pc.take(side.meta_format_id, midx))
        batch = batch.append_column("series_id", pc.take(side.meta_series_id, midx))
        size = pc.fill_null(pc.take(self._meta_size_arr, midx), 0)
        batch = batch.append_column("size", pc.cast(size, pa.int64()))
        batch = batch.append_column("rights_holder",
                                    pc.take(side.meta_rights_holder, midx))
        batch = batch.append_column("read_permission",
                                    pc.take(side.meta_read_permission, midx))

        # J2: tool -> tool_family
        tidx = pc.index_in(batch.column("tool").combine_chunks(), side.tool_keys)
        batch = batch.append_column("tool_family", pc.take(side.tool_family, tidx))

        # M4: constants + node overwrite
        bucket = (h64 % np.uint64(cfg.n_buckets)).astype(np.int64)
        node_id = pc.take(self._node_ids, pa.array(bucket))
        batch = batch.append_column("node_id", node_id)
        batch = batch.append_column(
            "date_aggregated",
            pa.array(np.full(n, self._run_ts_us),
                     type=pa.int64()).cast(pa.timestamp("us")))
        batch = batch.append_column(
            "date_updated",
            pa.array(np.full(n, self._sentinel_us), type=pa.int64()).cast(pa.timestamp("us")))

        # J4: synthetic geo + geohash prefixes 1..9 — sliced on the
        # UNIQUE geohashes, then scattered to rows with one take() each
        idx_pa = pa.array(idx)
        for k in ("country", "region", "city", "location"):
            batch = batch.append_column(k, pc.take(geo_lut[k], idx_pa))
        gh_uniq = geo_lut["geohash"]
        for p in range(1, 10):
            batch = batch.append_column(
                f"geohash_{p}",
                pc.take(pc.utf8_slice_codeunits(gh_uniq, 0, p), idx_pa))

        # S6 routing
        batch = batch.append_column("bucket_id",
                                    pa.array(bucket.astype(np.int32), type=pa.int32()))
        sink = (h64 % np.uint64(cfg.n_sinks)).astype(np.int32)
        batch = batch.append_column("sink_id", pa.array(sink, type=pa.int32()))

        return batch.select([c for c in ENRICHED_COLUMNS
                             if c in batch.column_names])
