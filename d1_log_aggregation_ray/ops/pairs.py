"""Per-conversation sequential ops over transcript buckets: SFT
prompt/response pair extraction, conversation-level stats, and role-
alternation validation.

All three are SHUFFLE-FREE: they run as one vectorized scan per
conv-hash bucket under the same whole-bucket partitioning contract as
the repeat-visit window (stages/window.bucket_window_scan) — convs
never span buckets, so per-conv state never crosses a block boundary
and the only data movement is the parquet read itself.  At 100 TB the
bucket count scales with the corpus while each scan stays a sort +
O(n) pass of numpy kernels.

Reference provenance: the pairing walk generalizes the reference's
order-dependent per-key scan (LogEntrySolrItem.java:444-474 runs
sequential window state per ipAddress+pid after relying on entryId
order); conv_stats mirrors its per-harvest throughput/max-ts
aggregates (LogHarvesterTask.java:342-344,512-523) at conversation
granularity; the alternation check is the `isLaterOrSameAsLatestCachedTime`
ordering sentinel (ReadEventCounterCache.java:150-160) recast as a
per-conv protocol validator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PAIRS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("prompt", pa.string()), ("response", pa.string())])

_CONVSTATS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_turns", pa.int64()),
    ("n_assistant", pa.int64()), ("n_tool_calls", pa.int64()),
    ("n_chars", pa.int64()), ("dur_us", pa.int64())])

_VIOL_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_violations", pa.int64())])

_LAT_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("latency_us", pa.int64())])

_TRANS_SCHEMA = pa.schema([
    ("from_tool", pa.string()), ("to_tool", pa.string()),
    ("n", pa.int64())])

_CONVFP_SCHEMA = pa.schema([
    ("fp", pa.binary(16)), ("conv_id", pa.string())])

_DOC_ASM_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_turns", pa.int64()),
    ("doc", pa.large_string())])


def _valid_sorted(batch: pa.Table) -> pa.Table:
    """M2 validity filter + stable (conv_id, turn_idx) order."""
    conv = batch.column("conv_id")
    ok = pc.and_kleene(conv.is_valid(), pc.not_equal(conv, pa.scalar("")))
    batch = batch.filter(pc.fill_null(ok, False))
    return batch.combine_chunks().sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])


def _segments(batch: pa.Table):
    """(dictionary indices, segment-start row index per row)."""
    gidx = np.asarray(
        batch.column("conv_id").combine_chunks().dictionary_encode().indices)
    n = len(gidx)
    idx = np.arange(n, dtype=np.int64)
    is_start = np.r_[True, gidx[1:] != gidx[:-1]]
    seg_start = np.maximum.accumulate(np.where(is_start, idx, 0))
    return gidx, seg_start, is_start


def sft_pairs_scan(batch: pa.Table) -> pa.Table:
    """Pair each assistant turn with the nearest PRECEDING user turn in
    its conversation (the SFT prompt/response extraction).  Assistant
    turns with no prior user turn are dropped.  Vectorized: one
    maximum.accumulate carries the last-seen user row index forward;
    a carry from the previous conversation is always < this row's
    segment start, so the seg_start comparison resets it exactly.
    """
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _PAIRS_SCHEMA.empty_table()
    _, seg_start, _ = _segments(batch)
    role = batch.column("role")
    is_user = pc.fill_null(pc.equal(role, "user"), False).to_numpy(
        zero_copy_only=False)
    is_asst = pc.fill_null(pc.equal(role, "assistant"), False).to_numpy(
        zero_copy_only=False)
    idx = np.arange(n, dtype=np.int64)
    last_user = np.maximum.accumulate(np.where(is_user, idx, -1))
    keep = is_asst & (last_user >= seg_start)
    resp_i = idx[keep]
    prom_i = last_user[keep]
    text = batch.column("text")
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(resp_i)),
        "turn_idx": batch.column("turn_idx").take(pa.array(resp_i)),
        "prompt": text.take(pa.array(prom_i)),
        "response": text.take(pa.array(resp_i)),
    }).cast(_PAIRS_SCHEMA)


def conv_stats_scan(batch: pa.Table) -> pa.Table:
    """Per-conversation rollup: turn count, assistant-turn count,
    tool-call count (tool non-null and non-blank), total text chars
    (nulls count 0), and wall duration in microseconds over non-null
    timestamps (NULL when the conv has < 1 valid ts).  One reduceat
    pass per statistic."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _CONVSTATS_SCHEMA.empty_table()
    _, _, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)

    def seg_sum(vals: np.ndarray) -> np.ndarray:
        return np.add.reduceat(vals, starts)

    role = batch.column("role")
    is_asst = pc.fill_null(pc.equal(role, "assistant"), False).to_numpy(
        zero_copy_only=False).astype(np.int64)
    tool = batch.column("tool")
    has_tool = pc.fill_null(
        pc.and_kleene(tool.is_valid(), pc.not_equal(tool, pa.scalar(""))),
        False).to_numpy(zero_copy_only=False).astype(np.int64)
    chars = pc.fill_null(pc.utf8_length(batch.column("text")).cast(
        pa.int64()), 0).to_numpy(zero_copy_only=False)

    ts = batch.column("ts").combine_chunks()
    ts_ok = ts.is_valid().to_numpy(zero_copy_only=False)
    ts_us = ts.cast(pa.int64()).fill_null(0).to_numpy(zero_copy_only=False)
    big = np.int64(2**62)
    tmin = np.minimum.reduceat(np.where(ts_ok, ts_us, big), starts)
    tmax = np.maximum.reduceat(np.where(ts_ok, ts_us, -big), starts)
    any_ts = seg_sum(ts_ok.astype(np.int64)) > 0
    dur = pa.array(np.where(any_ts, tmax - tmin, 0), pa.int64(),
                   mask=~any_ts)

    counts = np.diff(np.r_[starts, n]).astype(np.int64)
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(starts)),
        "n_turns": pa.array(counts),
        "n_assistant": pa.array(seg_sum(is_asst)),
        "n_tool_calls": pa.array(seg_sum(has_tool)),
        "n_chars": pa.array(seg_sum(chars)),
        "dur_us": dur,
    }).cast(_CONVSTATS_SCHEMA)


def conv_text_scan(batch: pa.Table) -> pa.Table:
    """Assemble one training document per conversation: every turn's
    text (NULL -> '') joined by '\\n' in (conv_id, turn_idx) order —
    the canonical turns->document step that feeds the doc-level
    curation ops.  Runs shuffle-free under the whole-bucket contract;
    the concatenation is ONE vectorized pc.binary_join over a list
    view built from the segment offsets (no per-conversation python).
    large_string + int64 list offsets so a bucket whose total text
    exceeds 2 GiB still assembles (the int32 offset ceiling is the
    classic failure here)."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _DOC_ASM_SCHEMA.empty_table()
    _, _, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)
    offsets = pa.array(np.r_[starts, n].astype(np.int64), pa.int64())
    texts = pc.fill_null(
        batch.column("text").combine_chunks().cast(pa.large_string()), "")
    docs = pc.binary_join(pa.LargeListArray.from_arrays(offsets, texts),
                          pa.scalar("\n", pa.large_string()))
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(starts)),
        "n_turns": pa.array(np.diff(np.r_[starts, n]).astype(np.int64)),
        "doc": docs}).cast(_DOC_ASM_SCHEMA)


def turn_latency_scan(batch: pa.Table) -> pa.Table:
    """Assistant response latency: for each assistant turn with a
    preceding user turn in its conversation, ts(assistant) − ts(user)
    in microseconds (NULL when either timestamp is NULL).  Same
    carry-forward walk as the SFT pairing."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _LAT_SCHEMA.empty_table()
    _, seg_start, _ = _segments(batch)
    role = batch.column("role")
    is_user = pc.fill_null(pc.equal(role, "user"), False).to_numpy(
        zero_copy_only=False)
    is_asst = pc.fill_null(pc.equal(role, "assistant"), False).to_numpy(
        zero_copy_only=False)
    idx = np.arange(n, dtype=np.int64)
    last_user = np.maximum.accumulate(np.where(is_user, idx, -1))
    keep = is_asst & (last_user >= seg_start)
    resp_i = pa.array(idx[keep])
    prom_i = pa.array(last_user[keep])
    ts_us = batch.column("ts").combine_chunks().cast(pa.int64())
    lat = pc.subtract(ts_us.take(resp_i), ts_us.take(prom_i))
    return pa.table({
        "conv_id": batch.column("conv_id").take(resp_i),
        "turn_idx": batch.column("turn_idx").take(resp_i),
        "latency_us": lat,
    }).cast(_LAT_SCHEMA)


def tool_transitions_scan(batch: pa.Table) -> pa.Table:
    """PARTIAL per-bucket tool-bigram counts: over turns that carry a
    tool (non-null, non-blank) in turn order within each conversation,
    count (previous tool → tool) transitions.  Emits a tiny
    (from_tool, to_tool, n) partial per bucket — the caller sums
    partials in one small exchange (tool-vocabulary² keys, not rows)."""
    batch = _valid_sorted(batch)
    tool = batch.column("tool")
    ok = pc.fill_null(
        pc.and_kleene(tool.is_valid(), pc.not_equal(tool, pa.scalar(""))),
        False)
    batch = batch.filter(ok)
    n = batch.num_rows
    if n < 2:
        return _TRANS_SCHEMA.empty_table()
    gidx, _, _ = _segments(batch)
    idx = np.arange(n, dtype=np.int64)
    same = gidx[1:] == gidx[:-1]
    from_i = pa.array(idx[:-1][same])
    to_i = pa.array(idx[1:][same])
    tool = batch.column("tool").combine_chunks()
    local = pa.table({"from_tool": tool.take(from_i),
                      "to_tool": tool.take(to_i)})
    agg = local.group_by(["from_tool", "to_tool"]).aggregate(
        [([], "count_all")])
    return agg.rename_columns(
        ["n" if c == "count_all" else c for c in agg.column_names]).cast(
        _TRANS_SCHEMA)


_TRI_SCHEMA = pa.schema([
    ("t1", pa.string()), ("t2", pa.string()), ("t3", pa.string()),
    ("n", pa.int64())])


def tool_trigram_scan(batch: pa.Table) -> pa.Table:
    """PARTIAL per-bucket tool-TRIGRAM counts: consecutive length-3
    tool chains within a conversation's tool-carrying turns — the
    higher-order complement of the bigram transitions (tool_loops
    finds runs of ONE repeated tool; trigrams surface multi-tool
    cycles like grep→read→grep an agent is stuck in).  Same shape as
    tool_transitions_scan: a tiny (t1, t2, t3, n) partial per bucket,
    summed by the caller in one tool-vocabulary³-keyed exchange."""
    batch = _valid_sorted(batch)
    tool = batch.column("tool")
    ok = pc.fill_null(
        pc.and_kleene(tool.is_valid(), pc.not_equal(tool, pa.scalar(""))),
        False)
    batch = batch.filter(ok)
    n = batch.num_rows
    if n < 3:
        return _TRI_SCHEMA.empty_table()
    gidx, _, _ = _segments(batch)
    idx = np.arange(n, dtype=np.int64)
    same = (gidx[2:] == gidx[:-2]) & (gidx[1:-1] == gidx[:-2])
    i1 = pa.array(idx[:-2][same])
    i2 = pa.array(idx[1:-1][same])
    i3 = pa.array(idx[2:][same])
    tool = batch.column("tool").combine_chunks()
    local = pa.table({"t1": tool.take(i1), "t2": tool.take(i2),
                      "t3": tool.take(i3)})
    agg = local.group_by(["t1", "t2", "t3"]).aggregate([([], "count_all")])
    return agg.rename_columns(
        ["n" if c == "count_all" else c for c in agg.column_names]).cast(
        _TRI_SCHEMA)


def conv_fingerprint_scan(batch: pa.Table) -> pa.Table:
    """Conversation-level content fingerprint: assemble each conv's
    full transcript (`role:text` pieces joined by newline in turn
    order — the DuckDB `string_agg(..., chr(10) ORDER BY turn_idx)`
    formulation) entirely via Arrow list kernels, then 128-bit md5.
    Only 16-byte fingerprints + conv ids ride the dedup exchange,
    never transcript text."""
    from ..functions.hashing import md5_bytes_array
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _CONVFP_SCHEMA.empty_table()
    _, _, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)
    pieces = pc.binary_join_element_wise(
        pc.fill_null(batch.column("role"), "").combine_chunks(),
        pc.fill_null(batch.column("text"), "").combine_chunks(), ":")
    offsets = pa.array(np.r_[starts, n].astype(np.int32))
    full = pc.binary_join(pa.ListArray.from_arrays(offsets, pieces), "\n")
    return pa.table({
        "fp": md5_bytes_array(full),
        "conv_id": batch.column("conv_id").take(pa.array(starts)),
    }).cast(_CONVFP_SCHEMA)


_CUM_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("cum_chars", pa.int64())])


def cum_chars_scan(batch: pa.Table) -> pa.Table:
    """Running character total per conversation: for each turn,
    sum(length(text)) over this and all earlier turns of its conv in
    turn_idx order (NULL text counts 0) — the cumulative-window
    operator (SQL `SUM(...) OVER (PARTITION BY conv_id ORDER BY
    turn_idx ROWS UNBOUNDED PRECEDING)`), shuffle-free under the
    bucket contract.  One global cumsum; per-segment rebase via the
    exclusive prefix at each row's segment start."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _CUM_SCHEMA.empty_table()
    _, seg_start, _ = _segments(batch)
    ln = pc.fill_null(
        pc.utf8_length(batch.column("text")), 0).combine_chunks().cast(
        pa.int64()).to_numpy(zero_copy_only=False)
    cs = np.cumsum(ln)
    excl = cs - ln                       # exclusive prefix sum
    cum = cs - excl[seg_start]
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "cum_chars": pa.array(cum),
    }).cast(_CUM_SCHEMA)


def role_violations_scan(batch: pa.Table) -> pa.Table:
    """Per-conversation count of adjacent same-role turn pairs in
    turn_idx order (protocol-alternation violations; the ordering-
    sentinel analog).  A violation is attributed to the later turn."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _VIOL_SCHEMA.empty_table()
    gidx, _, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)
    ridx = np.asarray(
        batch.column("role").combine_chunks().dictionary_encode().indices)
    viol = np.zeros(n, dtype=np.int64)
    viol[1:] = ((gidx[1:] == gidx[:-1]) & (ridx[1:] == ridx[:-1])).astype(
        np.int64)
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(starts)),
        "n_violations": pa.array(np.add.reduceat(viol, starts)),
    }).cast(_VIOL_SCHEMA)


_REPAIR_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("role", pa.string())])


def role_repair_scan(batch: pa.Table) -> pa.Table:
    """Role-alternation protocol REPAIR — the fix to
    role_violations_scan's detect: keep the FIRST turn of every
    same-role run per conversation in turn order (equivalently, drop
    any turn whose role equals the immediately preceding turn's role),
    yielding a strictly alternating-role transcript ready for SFT
    pairing.  NULL roles compare as '' (mirrored by the oracle's
    COALESCE).  Shuffle-free under the whole-bucket contract; one
    dictionary-encode + one shifted compare per bucket."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _REPAIR_SCHEMA.empty_table()
    gidx, _, _ = _segments(batch)
    ridx = np.asarray(pc.fill_null(
        batch.column("role").combine_chunks(), "")
        .dictionary_encode().indices)
    keep = np.ones(n, dtype=bool)
    keep[1:] = (gidx[1:] != gidx[:-1]) | (ridx[1:] != ridx[:-1])
    mask = pa.array(keep)
    return pa.table({
        "conv_id": batch.column("conv_id").filter(mask),
        "turn_idx": batch.column("turn_idx").filter(mask),
        "role": batch.column("role").filter(mask),
    }).cast(_REPAIR_SCHEMA)


_MERGE_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("role", pa.string()), ("text", pa.large_string()),
    ("n_merged", pa.int64())])


def role_merge_scan(batch: pa.Table) -> pa.Table:
    """LOSSLESS role-alternation repair — role_repair_scan's sibling:
    instead of dropping the tail of a same-role run, CONCATENATE the
    run's texts ('\\n'-joined, NULL -> '') into one turn keyed by the
    run's first turn_idx — consecutive same-speaker messages become
    one message, the standard chat-log normalization before SFT
    pairing.  One vectorized pc.binary_join over run-offset list
    views (the conv_text_scan kernel at run granularity), shuffle-free
    under the whole-bucket contract; large_string offsets so a 2 GiB+
    bucket still assembles."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _MERGE_SCHEMA.empty_table()
    gidx, _, _ = _segments(batch)
    role_filled = pc.fill_null(batch.column("role").combine_chunks(), "")
    ridx = np.asarray(role_filled.dictionary_encode().indices)
    is_run_start = np.ones(n, dtype=bool)
    is_run_start[1:] = (gidx[1:] != gidx[:-1]) | (ridx[1:] != ridx[:-1])
    starts = np.flatnonzero(is_run_start)
    offsets = pa.array(np.r_[starts, n].astype(np.int64), pa.int64())
    texts = pc.fill_null(
        batch.column("text").combine_chunks().cast(pa.large_string()), "")
    merged = pc.binary_join(pa.LargeListArray.from_arrays(offsets, texts),
                            pa.scalar("\n", pa.large_string()))
    sel = pa.array(starts)
    return pa.table({
        "conv_id": batch.column("conv_id").take(sel),
        "turn_idx": batch.column("turn_idx").take(sel),
        # the run's coalesced role ('' for NULL), matching the
        # oracle's MIN(COALESCE(role, ''))
        "role": role_filled.take(sel),
        "text": merged,
        "n_merged": pa.array(np.diff(np.r_[starts, n]).astype(np.int64)),
    }).cast(_MERGE_SCHEMA)


_FORK_SCHEMA = pa.schema([
    ("h64", pa.uint64()), ("pfp", pa.string()), ("depth", pa.int64()),
    ("n_turns", pa.int64()), ("conv_id", pa.string())])

_FORK_OUT_SCHEMA = pa.schema([("conv_id", pa.string())])


def prefix_chain_scan(batch: pa.Table) -> pa.Table:
    """Chained per-conversation prefix fingerprints for fork dedup:
    h_k = md5hex(h_{k-1} + US + "role:text"_k) with h_0 = "" — one
    32-hex fingerprint per (conv, depth), LINEAR in transcript bytes
    (no cumulative-prefix materialization).  Emits one row per turn:
    (h64, pfp, depth, n_turns, conv_id), where h64 is the digest's low
    64 bits, so the dedup exchange keys on it with no second hash.

    md5 chaining is inherently per-item AND sequential within a conv
    (each digest feeds the next), so this is the one scan in the
    family with a per-row python loop — the same irreducible ~1 us/row
    md5 cost as the exact-dedup fingerprint path, with the rest of the
    row assembly staying in Arrow.  DuckDB-equivalent formulation: a
    recursive CTE chaining md5(concat(h, chr(31), piece)) over depth.
    """
    import hashlib
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _FORK_SCHEMA.empty_table()
    gidx, seg_start, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)
    seg = np.cumsum(is_start) - 1
    depth = np.arange(n, dtype=np.int64) - seg_start + 1
    seg_len = np.diff(np.r_[starts, n])
    n_turns = seg_len[seg]
    pieces = pc.binary_join_element_wise(
        pc.fill_null(batch.column("role"), "").combine_chunks(),
        pc.fill_null(batch.column("text"), "").combine_chunks(), ":")
    piece_py = pieces.to_pylist()
    md5 = hashlib.md5
    hs = [""] * n
    h64 = np.empty(n, dtype=np.uint64)
    prev = ""
    for i in range(n):
        if is_start[i]:
            prev = ""
        d = md5((prev + "\x1f" + piece_py[i]).encode("utf-8"))
        prev = d.hexdigest()
        hs[i] = prev
        h64[i] = int.from_bytes(d.digest()[8:], "little")
    return pa.table({
        "h64": pa.array(h64),
        "pfp": pa.array(hs, pa.string()),
        "depth": pa.array(depth),
        "n_turns": pa.array(n_turns),
        "conv_id": batch.column("conv_id"),
    }).cast(_FORK_SCHEMA)


def fork_dedup_partition(group: pa.Table) -> pa.Table:
    """Survivor scan for one fingerprint partition (any set of rows
    that holds every row of each pfp it holds): group rows by pfp
    (all rows of a group share the same depth — equal chains encode
    equal-length prefixes); a conversation's FULL row (depth ==
    n_turns) survives iff no other conv extends past it in this group
    (max n_turns == depth) and it is the min-conv_id full row (exact
    duplicates keep-first).  A conv that is a proper prefix of another
    is dropped; the extension is judged in its own full-hash group, so
    prefix chains A < B < C keep only C."""
    g = group.sort_by([("pfp", "ascending"), ("conv_id", "ascending")])
    enc = np.asarray(
        g.column("pfp").combine_chunks().dictionary_encode().indices)
    depth = g.column("depth").to_numpy(zero_copy_only=False)
    nt = g.column("n_turns").to_numpy(zero_copy_only=False)
    n = len(enc)
    is_start = np.r_[True, enc[1:] != enc[:-1]]
    seg = np.cumsum(is_start) - 1
    nseg = int(seg[-1]) + 1
    maxn = np.zeros(nseg, dtype=np.int64)
    np.maximum.at(maxn, seg, nt)
    full = nt == depth
    idx = np.arange(n, dtype=np.int64)
    first_full = np.full(nseg, n, dtype=np.int64)
    np.minimum.at(first_full, seg[full], idx[full])
    surv = full & (nt == maxn[seg]) & (idx == first_full[seg])
    return pa.table({
        "conv_id": g.column("conv_id").filter(pa.array(surv)),
    }).cast(_FORK_OUT_SCHEMA)


_CTX_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("context", pa.string()), ("response", pa.string())])

# context budget: the fixture corpus averages ~14 turns x ~35 chars/line,
# so a 300-char tail truncates the typical full-conversation context —
# both the truncated and the short-context branches are exercised at
# every sf (the realistic detail: training context windows are budgeted
# from the RIGHT, keeping the most recent turns)
CONTEXT_BUDGET_CHARS = 300


def context_windows_scan(batch: pa.Table,
                         max_chars: int = CONTEXT_BUDGET_CHARS) -> pa.Table:
    """Multi-turn training-context assembly: for each assistant turn,
    emit the concatenated transcript of ALL prior turns in its
    conversation ("role: text" lines joined by \\n), tail-truncated to
    max_chars (most-recent turns kept), plus the assistant text as the
    response.  First-turn assistants get NULL context (SQL: string_agg
    over an empty window frame).

    Shuffle-free under the whole-bucket contract.  Vectorization note:
    line strings and cumulative char offsets are built with one Arrow
    join + one cumsum; per-conversation prefix contexts are then O(1)
    slices of ONE bucket-level concatenated string (off[] indexes it),
    so the Python loop below does exactly one C-level slice per OUTPUT
    row — work is bounded by output size (<= n_assistant x max_chars),
    never by context length squared.  Generalizes the reference's
    order-dependent per-key accumulation walk
    (LogEntrySolrItem.java:444-474) to payload assembly."""
    batch = _valid_sorted(batch)
    n = batch.num_rows
    if n == 0:
        return _CTX_SCHEMA.empty_table()
    _, seg_start, _ = _segments(batch)
    role = pc.fill_null(batch.column("role"), "")
    text = batch.column("text")
    lines = pc.binary_join_element_wise(
        role, pc.fill_null(text, ""), ": ").to_pylist()
    big = "\n".join(lines)
    # off[i] = char offset in `big` just PAST line i's trailing \n;
    # line i starts at off[i-1]; len() (code points) matches both
    # python slicing and DuckDB right() semantics
    off = np.cumsum(np.fromiter((len(s) + 1 for s in lines),
                                dtype=np.int64, count=n))
    is_asst = pc.fill_null(
        pc.equal(batch.column("role"), "assistant"), False).to_numpy(
        zero_copy_only=False)
    idx = np.flatnonzero(is_asst)
    ctx: list[str | None] = []
    for i in idx:
        s = seg_start[i]
        if i == s:
            ctx.append(None)  # no prior turns: empty window frame
            continue
        conv0 = int(off[s - 1]) if s > 0 else 0
        end = int(off[i - 1]) - 1  # strip the trailing separator
        ctx.append(big[max(conv0, end - max_chars):end])
    take = pa.array(idx)
    return pa.table({
        "conv_id": batch.column("conv_id").take(take),
        "turn_idx": batch.column("turn_idx").take(take),
        "context": pa.array(ctx, pa.string()),
        "response": text.take(take),
    }).cast(_CTX_SCHEMA)


_LOOPS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("max_run", pa.int64())])


def tool_loops_scan(batch: pa.Table) -> pa.Table:
    """Agent-loop signal: per conversation, the LONGEST run of
    consecutive identical tool invocations (runs counted over the
    tool-bearing turns in turn order; intervening non-tool turns do
    not break a run — the gaps-and-islands formulation).  One row per
    conversation that calls any tool.  A max_run of 3+ is the classic
    stuck-agent retry loop; emitting the full distribution (not a
    thresholded flag) lets callers pick their own gate and gives the
    oracle the whole histogram to check.

    Shuffle-free whole-bucket scan; one lexsort-free vectorized pass
    (input arrives (conv, turn) sorted; the filter preserves order).
    Same per-key sequential-walk lineage as the reference's repeat-
    visit cache (ReadEventCounterCache.java:97-103) — state here is
    the run accumulator instead of the visit window."""
    batch = _valid_sorted(batch)
    tool = batch.column("tool")
    ok = pc.and_kleene(tool.is_valid(), pc.not_equal(tool, pa.scalar("")))
    batch = batch.filter(pc.fill_null(ok, False))
    n = batch.num_rows
    if n == 0:
        return _LOOPS_SCHEMA.empty_table()
    gidx, _, is_start = _segments(batch)
    tidx = np.asarray(
        batch.column("tool").combine_chunks().dictionary_encode().indices)
    new_run = is_start.copy()
    new_run[1:] |= tidx[1:] != tidx[:-1]
    run_starts = np.flatnonzero(new_run)
    run_lens = np.diff(np.r_[run_starts, n])
    conv_of_run = gidx[run_starts]
    nconv = int(gidx[-1]) + 1 if n else 0
    # conv codes are assigned in first-appearance order == sorted order
    max_run = np.zeros(nconv, dtype=np.int64)
    np.maximum.at(max_run, conv_of_run, run_lens)
    conv_first_row = np.flatnonzero(is_start)
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(conv_first_row)),
        "max_run": pa.array(max_run),
    }).cast(_LOOPS_SCHEMA)


_PATH_SCHEMA = pa.schema([("path", pa.string()), ("n_convs", pa.int64())])


def tool_path_scan(batch: pa.Table) -> pa.Table:
    """PARTIAL per-bucket tool-PATH frequencies: each conversation's
    full ordered tool chain joined into one 'a->b->c' string (the
    workflow signature), counted per distinct path.  The common-
    workflow mining complement of the bigram/trigram scans — those
    count local transitions, this counts whole trajectories.

    Assembly is the conv_fingerprint list-join shape (Arrow
    binary_join over per-conv segments, zero python per row).  Only
    (path, n) partials ride the exchange — path cardinality is the
    distinct-workflow vocabulary, orders of magnitude below conv
    count; a conversation with no tool turns emits nothing (mirrored
    by the oracle's inner GROUP BY over tool-bearing turns)."""
    batch = _valid_sorted(batch)
    tool = batch.column("tool")
    ok = pc.and_kleene(tool.is_valid(), pc.not_equal(tool, pa.scalar("")))
    batch = batch.filter(pc.fill_null(ok, False))
    n = batch.num_rows
    if n == 0:
        return _PATH_SCHEMA.empty_table()
    _, _, is_start = _segments(batch)
    starts = np.flatnonzero(is_start)
    offsets = pa.array(np.r_[starts, n].astype(np.int32))
    paths = pc.binary_join(pa.ListArray.from_arrays(
        offsets, batch.column("tool").combine_chunks()), "->")
    agg = pa.table({"path": paths}).group_by(["path"]).aggregate(
        [([], "count_all")])
    return agg.rename_columns(
        ["n_convs" if c == "count_all" else c
         for c in agg.column_names]).cast(_PATH_SCHEMA)


_TMPL_SCHEMA = pa.schema([
    ("h", pa.binary(16)), ("text", pa.string()), ("n", pa.int64())])


def assistant_template_scan(batch: pa.Table) -> pa.Table:
    """PARTIAL per-bucket assistant-reply template counts: (md5, text,
    n) per distinct non-empty assistant turn text.  Feeds the
    templated-reply detector (q_assistant_templates): boilerplate
    assistant responses ('I cannot help with that', canned apologies)
    show up as high-n rows and are a known SFT-quality hazard.

    The exchange is keyed on the 16-byte md5 (the dedup_exact rule:
    never group on the raw body); the text column rides alongside once
    per distinct template per bucket so the final top-k can emit it —
    bounded by template cardinality, not turn count."""
    from ..functions.hashing import md5_bytes_array
    batch = _valid_sorted(batch)
    role = batch.column("role")
    text = batch.column("text")
    ok = pc.and_kleene(
        pc.fill_null(pc.equal(role, "assistant"), False),
        pc.and_kleene(text.is_valid(), pc.not_equal(text, pa.scalar(""))))
    batch = batch.filter(pc.fill_null(ok, False))
    if batch.num_rows == 0:
        return _TMPL_SCHEMA.empty_table()
    agg = pa.table({
        "text": batch.column("text").combine_chunks(),
    }).group_by(["text"]).aggregate([([], "count_all")])
    txt = agg.column("text").combine_chunks()
    return pa.table({
        "h": md5_bytes_array(txt),
        "text": txt,
        "n": agg.column("count_all"),
    }).cast(_TMPL_SCHEMA)


_OOO_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_ooo", pa.int64())])


def ooo_turns_scan(batch: pa.Table) -> pa.Table:
    """Out-of-order timestamp detection per conversation: n_ooo =
    turns whose ts is EARLIER than the running max of all prior turns
    in the conversation (turn_idx order) — the data-quality sentinel
    a log pipeline runs on every ingest run (the reference guards
    the same invariant per key via
    `isLaterOrSameAsLatestCachedTime`, ReadEventCounterCache.java:
    150-160; here it's a corpus-wide audit instead of a cache guard).

    Null-ts turns are skipped (not comparable; mirrored by the
    oracle's ts IS NOT NULL).  One row per conv with >=1 timestamped
    turn.  The segmented exclusive prefix-max runs as two C-level
    pandas groupby kernels (cummax + shift) over the already-sorted
    bucket — exact for |ts| < 2^53 us (year 2255).  Shuffle-free
    whole-bucket scan."""
    import pandas as pd
    batch = _valid_sorted(batch)
    batch = batch.filter(batch.column("ts").combine_chunks().is_valid())
    n = batch.num_rows
    if n == 0:
        return _OOO_SCHEMA.empty_table()
    gidx, _, is_start = _segments(batch)
    ts = batch.column("ts").combine_chunks().cast(
        pa.int64()).to_numpy(zero_copy_only=False)
    s = pd.Series(ts)
    g = pd.Series(gidx)
    prev_max = s.groupby(g).cummax().groupby(g).shift(1)
    ooo = (s.astype("float64") < prev_max).to_numpy()
    nconv = int(gidx[-1]) + 1
    counts = np.zeros(nconv, dtype=np.int64)
    np.add.at(counts, gidx, ooo.astype(np.int64))
    starts = np.flatnonzero(is_start)
    return pa.table({
        "conv_id": batch.column("conv_id").take(pa.array(starts)),
        "n_ooo": pa.array(counts),
    }).cast(_OOO_SCHEMA)
