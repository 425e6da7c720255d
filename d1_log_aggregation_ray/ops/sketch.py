"""Mergeable sketches: HyperLogLog approximate distinct counting.

The guide-recommended pattern for aggregation at scale: each batch
emits ONE serialized sketch per key (a fixed 2^p-byte register array),
and a tiny second stage merges them — the shuffle moves kilobytes of
sketch instead of the raw key column.  Standard HLL (public algorithm,
Flajolet et al.) with the usual small-range linear-counting correction.

Everything is vectorized: value hashing is md5-per-UNIQUE-value with a
dictionary scatter (house pattern, functions/hashing.py), and the
per-key register update is one np.maximum.at scatter into a
(n_keys, 2^p) register matrix — no per-key pass over the batch.

Exact counterpart for verification: ops/relational.distinct_count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _rank_of_rest(h: np.ndarray, p: int) -> np.ndarray:
    """HLL rank: leading zeros of the (64-p)-bit remainder + 1, with a
    guard bit so the all-zero remainder gets the max rank.  Vectorized
    over rows; the bit loop is bounded by 64-p and early-exits."""
    rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))
    lz = np.zeros(len(h), dtype=np.uint8)
    v = rest.copy()
    mask_hi = np.uint64(1) << np.uint64(63)
    done = np.zeros(len(h), dtype=bool)
    for r in range(1, 64 - p + 2):
        is_set = (v & mask_hi) != 0
        newly = is_set & ~done
        lz[newly] = r
        done |= is_set
        if done.all():
            break
        v = v << np.uint64(1)
    return lz


class HLL:
    """Minimal vectorized HyperLogLog over uint64 hashes."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)
        if p >= 7:
            self.alpha = 0.7213 / (1 + 1.079 / self.m)
        else:
            self.alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(p, 0.7)

    def add_hashes(self, h: np.ndarray) -> None:
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        np.maximum.at(self.registers, idx, _rank_of_rest(h, self.p))

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        regs = self.registers.astype(np.float64)
        est = self.alpha * self.m * self.m / np.sum(2.0 ** -regs)
        zeros = int(np.sum(self.registers == 0))
        if est <= 2.5 * self.m and zeros:
            est = self.m * np.log(self.m / zeros)  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes, p: int = 12) -> "HLL":
        h = cls(p)
        h.registers = np.frombuffer(b, dtype=np.uint8).copy()
        return h


def _hash_column(arr: pa.Array) -> np.ndarray:
    """Stable, uniformly distributed 64-bit hashes of arbitrary values.

    md5-based (process-stable unlike python hash()), one digest per
    UNIQUE value + dictionary scatter — O(uniques) python, O(n)
    vectorized.  NOTE: a crc32 pair is NOT suitable here — crc is
    affine in its init value, so the two words are linearly related
    and the effective entropy is ~32 bits, which visibly biases HLL
    register ranks."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    uniq = pc.unique(arr)
    vals = uniq.to_pylist()
    lut = np.empty(max(len(vals), 1), dtype=np.uint64)
    for i, v in enumerate(vals):
        d = hashlib.md5(repr(v).encode("utf-8")).digest()
        lut[i] = int.from_bytes(d[:8], "little")
    idx = pc.index_in(arr, uniq).to_numpy(zero_copy_only=False)
    if arr.null_count:
        idx = np.where(np.isnan(idx), vals.index(None), idx)
    return lut[idx.astype(np.int64)]


#: count-min geometry: 4 rows x 2^14 slots = 512 KiB of int64 — the
#: FIXED memory bound that replaces the corpus-cardinality exact vocab
#: aggregate at 100 TB (error <= e/W * total_count per row, min over 4
#: independent rows)
CMS_D, CMS_W = 4, 1 << 14
#: odd multipliers (splitmix64/Murmur finalizer constants) — row i's
#: slot is the top 14 bits of h * mult_i under uint64 wraparound;
#: deterministic, so the sketch (and everything derived) pins exactly
_CMS_MULTS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                       0x94D049BB133111EB, 0xD6E8FEB86659FD93],
                      dtype=np.uint64)


def _cms_slots(h64: np.ndarray) -> np.ndarray:
    """(CMS_D, n) int64 slot indices from 64-bit token hashes."""
    with np.errstate(over="ignore"):
        return np.stack([((h64 * m) >> np.uint64(50)).astype(np.int64)
                         for m in _CMS_MULTS])


def heavy_tokens(ds: ray.data.Dataset, threshold: int,
                 id_col: str = "doc_id",
                 text_col: str = "text") -> ray.data.Dataset:
    """Approximate heavy hitters: (token, est) for every token whose
    count-min estimate of corpus-wide term frequency is >= threshold.
    Guaranteed SUPERSET of the exact heavy set (CMS never
    underestimates), with bounded overestimate — the fixed-memory
    alternative to the corpus-cardinality vocab_df aggregate.

    Scale shape (100 TB corpus):
      - stage 0: per-batch (token, tf) combiner rows — the narrow
        vocab-partial stream, materialized ONCE and consumed by both
        later stages (no input re-execution).
      - stage 1: each block scatters its partials into sparse
        (cell, count) rows; the merge is a hash-partition aggregate on
        the cell id, whose cardinality is FIXED (4 x 2^14) regardless
        of corpus size; the dense 512 KiB sketch assembles on the
        driver and broadcasts via one ray.put.
      - stage 2: one scan over the vocab partials queries the sketch
        (vectorized min over 4 gathers) and emits only candidates
        >= threshold; the final distinct pass exchanges candidates
        only.
    Deterministic (md5 token hashes + fixed multipliers) -> pinned
    golden; superset + overestimate properties are pytest-guarded
    against the exact operator."""
    from ..functions.hashing import md5_lower64_array
    from ..stages.aggregate import hash_partition_aggregate

    def tf_partial(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = t.drop_null()
        flat = pc.list_flatten(pc.split_pattern(t, " "))
        agg = pa.table({"token": flat}).group_by(["token"]).aggregate(
            [([], "count_all")])
        return pa.table({"token": agg.column("token"),
                         "tf": pc.cast(agg.column("count_all"),
                                       pa.int64())})

    narrow = ds.select_columns([text_col]).map_batches(
        tf_partial, batch_format="pyarrow",
        zero_copy_batch=True).materialize()

    def cells(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        h = md5_lower64_array(batch.column("token"))
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        slots = _cms_slots(h)  # (d, n)
        cell = (np.arange(CMS_D, dtype=np.int64)[:, None] * CMS_W
                + slots).reshape(-1)
        c = np.broadcast_to(tf, (CMS_D, len(tf))).reshape(-1)
        # collapse within the block so <= d*W rows leave it
        uc, inv = np.unique(cell, return_inverse=True)
        sums = np.zeros(len(uc), dtype=np.int64)
        np.add.at(sums, inv, c)  # integer-exact (float weights lose
        return pa.table({"cell": pa.array(uc),  # bits past 2^53)
                         "c": pa.array(sums)})

    merged = hash_partition_aggregate(
        narrow.map_batches(cells, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["cell"], [("c", "sum")], rename={"c_sum": "c"})
    sk = np.zeros(CMS_D * CMS_W, dtype=np.int64)
    for r in merged.take_all():
        sk[r["cell"]] = r["c"]
    sk_ref = ray.put(sk)

    def candidates(batch: pa.Table, *, sketch) -> pa.Table:
        s = ray.get(sketch) if isinstance(sketch, ray.ObjectRef) \
            else sketch
        if batch.num_rows == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "est": pa.array([], pa.int64())})
        h = md5_lower64_array(batch.column("token"))
        slots = _cms_slots(h)
        est = np.min(np.stack(
            [s[i * CMS_W + slots[i]] for i in range(CMS_D)]), axis=0)
        keep = est >= threshold
        return pa.table({
            "token": batch.column("token").combine_chunks().filter(
                pa.array(keep)),
            "est": pa.array(est[keep])})

    cand = narrow.map_batches(candidates, batch_format="pyarrow",
                              zero_copy_batch=True,
                              fn_kwargs={"sketch": sk_ref})
    # a token repeats across blocks with the SAME est: min == dedup
    return hash_partition_aggregate(
        cand, ["token"], [("est", "min")], rename={"est_min": "est"})


def approx_distinct(ds: ray.data.Dataset, key: str, distinct_col: str,
                    p: int = 12) -> ray.data.Dataset:
    """Per-key approximate distinct count (~1.04/sqrt(2^p) rel. error).

    Stage 1 (combiner): one HLL sketch per key per batch — the exchange
    carries 4 KiB blobs, never the raw column.  The whole batch's
    registers are built with a single scatter-max into a (n_keys, 2^p)
    matrix (flat index key_code * 2^p + register).  Stage 2: merge per
    key."""
    m = 1 << p

    def sketch_batch(batch: pa.Table) -> pa.Table:
        keys_col = batch.column(key)
        if isinstance(keys_col, pa.ChunkedArray):
            keys_col = keys_col.combine_chunks()
        hashes = _hash_column(batch.column(distinct_col))
        uniq = pc.unique(keys_col)
        code = pc.index_in(keys_col, uniq).to_numpy(zero_copy_only=False)
        if keys_col.null_count:
            code = np.where(np.isnan(code), uniq.to_pylist().index(None), code)
        code = code.astype(np.int64)
        nk = len(uniq)
        regs = np.zeros(nk * m, dtype=np.uint8)
        reg_idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
        np.maximum.at(regs, code * m + reg_idx, _rank_of_rest(hashes, p))
        regs = regs.reshape(nk, m)
        return pa.table({key: uniq,
                         "sketch": pa.array([regs[i].tobytes()
                                             for i in range(nk)],
                                            pa.binary())})

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge_group(group: pa.Table) -> pa.Table:
        """Merge ALL keys of a groupby partition in one vectorized
        pass: stack the partials into an (n, 2^p) matrix, register-max
        per key segment via np.maximum.reduceat, then one batched
        estimate — no per-key python loop (many keys at corpus scale
        mean exchange hands multi-row groups; this fn is also safe
        for the one-key-per-call contract)."""
        n = group.num_rows
        kcol = group.column(key).combine_chunks()
        blobs = group.column("sketch").to_pylist()
        regs = np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(n, m)
        enc = kcol.dictionary_encode()
        # null keys: a null index would surface as float64 NaN in
        # np.asarray (NaN != NaN splits the null group) and
        # dictionary.take on float codes raises — group nulls under a
        # one-past-the-dictionary code and emit them back as null
        null_code = len(enc.dictionary)
        code = pc.fill_null(enc.indices, null_code).to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(code, kind="stable")
        starts = np.flatnonzero(np.r_[True, code[order][1:]
                                      != code[order][:-1]])
        merged = np.maximum.reduceat(regs[order], starts, axis=0)
        # batched estimates (vectorized HLL math over all keys at once)
        alpha = HLL(p).alpha
        est = alpha * m * m / np.sum(2.0 ** -merged.astype(np.float64),
                                     axis=1)
        zeros = (merged == 0).sum(axis=1)
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            lin = m * np.log(m / np.maximum(zeros, 1))
        est = np.where(small, lin, est)
        sel = code[order][starts]
        idx = pa.array(np.where(sel == null_code, 0, sel),
                       mask=(sel == null_code))  # null index -> null key
        return pa.table({key: enc.dictionary.take(idx),
                         "n_distinct_approx": pa.array(
                             np.rint(est).astype(np.int64))})

    # hash-partition by key (corpus-cardinality keys; merge_group
    # handles every key of a partition in one vectorized pass)
    from ..functions.parts import exchange
    return exchange(sketches, key, merge_group)
