"""Text analysis over the `documents` table: token counting, quality
metrics, language ID, document fingerprinting.  All vectorized
pyarrow.compute / numpy inside map_batches — no per-row (or per-byte)
Python in any shipped kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_lower64_array

# stopword-hit language-ID heuristic (public frequency tables, rounded):
# scores by distinct common-word hits among the first 200 whitespace
# tokens, falls back to "und" (undetermined).  Dict order is the
# tie-break order (first language with the max hit count wins).
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "mit", "ein", "zu", "den"},
    "fr": {"le", "la", "et", "les", "des", "est", "pas", "pour", "une", "dans"},
    "es": {"el", "la", "de", "que", "los", "por", "con", "una", "para", "es"},
    "it": {"il", "di", "che", "per", "con", "una", "del", "sono", "non", "gli"},
}
_LANG_LIST = list(_LANG_STOPWORDS)
_STOP_VOCAB_LIST = sorted(set().union(*_LANG_STOPWORDS.values()))
_STOP_VOCAB = pa.array(_STOP_VOCAB_LIST, pa.string())
# (n_stopwords, n_langs) 0/1 membership — one scatter-add turns distinct
# (doc, stopword) pairs into per-language hit counts
_LANG_MATRIX = np.array([[int(w in _LANG_STOPWORDS[lang]) for lang in _LANG_LIST]
                         for w in _STOP_VOCAB_LIST], dtype=np.int64)
_LANG_ARR = np.array(_LANG_LIST)
_TOKEN_CAP = 200


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n_tokens = count of ' '-separated pieces (== len(text.split(' '))
    == DuckDB len(string_split(text, ' ')))."""
    text = batch.column(text_col)
    parts = pc.split_pattern(text, " ")
    return batch.append_column(
        "n_tokens", pc.cast(pc.list_value_length(parts), pa.int64()))


# BPE-style pre-tokenizer classes (GPT-2-ish, simplified to RE2-safe
# syntax shared by Arrow and DuckDB: no lookarounds): letter runs,
# single digits, non-alphanumeric punctuation runs.  Counts approximate
# a subword tokenizer's pre-token count.
_BPE_PATTERN = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]+"


def token_count_bpe_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n_pretokens = count of BPE-ish pre-tokenizer matches — one
    vectorized RE2 scan per batch (DuckDB mirror:
    len(regexp_extract_all(text, ...)))."""
    text = batch.column(text_col)
    return batch.append_column(
        "n_pretokens",
        pc.cast(pc.count_substring_regex(text, _BPE_PATTERN), pa.int64()))


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer quality metrics (exact-type columns so they are
    value-hash comparable with a SQL oracle): token count, char count,
    punctuation count, uppercase-letter count."""
    text = batch.column(text_col)
    batch = token_count_batch(batch, text_col)
    batch = batch.append_column(
        "n_chars_m", pc.cast(pc.utf8_length(text), pa.int64()))
    batch = batch.append_column(
        "n_punct", pc.cast(pc.count_substring_regex(text, r"[.!?,;:]"),
                           pa.int64()))
    batch = batch.append_column(
        "n_upper", pc.cast(pc.count_substring_regex(text, r"[A-Z]"),
                           pa.int64()))
    return batch


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-hit language ID, fully vectorized: one Arrow
    lower+regex-split per batch, flatten with parent indices, cap at
    the first 200 non-empty tokens, distinct (doc, stopword) pairs via
    np.unique, then a single scatter-add through the language
    membership matrix.  Semantics identical to the python reference
    ``set(t.lower().split()[:200])`` + first-max-wins (and to the
    DuckDB oracle in pipelines/queries)."""
    n = batch.num_rows
    if n == 0:
        return batch.append_column("lang_pred", pa.array([], pa.string()))
    text = batch.column(text_col).combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(text), r"\s+")
    flat = toks.flatten()
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    # python str.split() drops empty tokens (leading/trailing runs)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc = parent[keep]
    words = flat.filter(pa.array(keep))
    # rank among kept tokens per doc -> cap at the first _TOKEN_CAP
    starts = np.searchsorted(doc, np.arange(n))
    pos = np.arange(len(doc)) - starts[doc.astype(np.int64)]
    capm = pos < _TOKEN_CAP
    doc = doc[capm].astype(np.int64)
    words = words.filter(pa.array(capm))
    code = pc.fill_null(pc.index_in(words, _STOP_VOCAB), -1).to_numpy(
        zero_copy_only=False).astype(np.int64)
    hitm = code >= 0
    V = len(_STOP_VOCAB_LIST)
    pairs = np.unique(doc[hitm] * V + code[hitm])  # DISTINCT words only
    hits = np.zeros((n, len(_LANG_LIST)), dtype=np.int64)
    np.add.at(hits, pairs // V, _LANG_MATRIX[pairs % V])
    best = hits.argmax(axis=1)  # first max wins == dict-order tie-break
    best_hits = hits[np.arange(n), best]
    langs = np.where(best_hits > 0, _LANG_ARR[best], "und")
    return batch.append_column("lang_pred", pa.array(langs.tolist(),
                                                     pa.string()))


_ROLL_MOD = np.uint64((1 << 31) - 1)  # Mersenne: (byte+1)*pow fits uint64
_ROLL_BASES = (np.uint64(1_000_003), np.uint64(998_244_353))


def _rolling31(seg: np.ndarray, starts: np.ndarray, lens: np.ndarray,
               exp: np.ndarray, total: int, base: np.uint64) -> np.ndarray:
    """One 31-bit polynomial rolling hash over the concatenated byte
    buffer: per-byte terms (b+1)*base^(L-1-i) mod 2^31-1 summed per doc
    via cumsum differencing (so empty docs segment correctly; each term
    < 2^31 keeps the uint64 cumsum exact).  `seg` (uint64 bytes) and
    `exp` are base-independent — computed once by the caller and shared
    across lanes."""
    maxlen = int(lens.max())
    powt = np.empty(max(maxlen, 1), dtype=np.uint64)
    powt[0] = 1
    for j in range(1, maxlen):  # O(max doc len), not O(bytes)
        powt[j] = (powt[j - 1] * base) % _ROLL_MOD
    terms = ((seg + np.uint64(1)) * powt[exp]) % _ROLL_MOD
    csum = np.zeros(total + 1, dtype=np.uint64)
    np.cumsum(terms, out=csum[1:])
    return (csum[starts + lens] - csum[starts]) % _ROLL_MOD


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Content fingerprints: md5-based (portable to DuckDB
    md5_number_lower; per-unique-value digests + dictionary scatter)
    + a 62-bit rolling polynomial hash — two independent 31-bit
    Mersenne polynomials over different bases packed as hi<<31 | lo —
    computed entirely in numpy over the Arrow values buffer (zero-copy
    byte view).  Two 31-bit lanes keep every product inside uint64
    while preserving fingerprint-grade collision resistance (a single
    31-bit lane birthday-collides at ~50k docs)."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    fps = md5_lower64_array(text)  # nulls -> 0

    b = pc.fill_null(text.cast(pa.binary()), b"")  # null == empty -> hash 0
    if isinstance(b, pa.ChunkedArray):
        b = b.combine_chunks()
    offsets = np.frombuffer(b.buffers()[1], dtype=np.int32)[
        b.offset:b.offset + len(b) + 1].astype(np.int64)
    data = np.frombuffer(b.buffers()[2], dtype=np.uint8)
    lens = np.diff(offsets)
    total = int(offsets[-1] - offsets[0])
    if total:
        seg = data[offsets[0]:offsets[-1]].astype(np.uint64)
        starts = offsets[:-1] - offsets[0]
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        exp = np.repeat(lens, lens) - 1 - pos
        h1 = _rolling31(seg, starts, lens, exp, total, _ROLL_BASES[0])
        h2 = _rolling31(seg, starts, lens, exp, total, _ROLL_BASES[1])
        rolls = (h1 << np.uint64(31)) | h2
    else:
        rolls = np.zeros(len(b), dtype=np.uint64)

    batch = batch.append_column("fingerprint", pa.array(fps))
    batch = batch.append_column("rolling_hash", pa.array(rolls))
    return batch


def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals per document, exact-integer
    columns (hash-comparable with the SQL oracle):

      - n_tokens       total ' '-split tokens
      - n_dup_tokens   n_tokens - count(distinct token): mass of
                       repeated words (the duplicate-word fraction's
                       numerator, kept integral)
      - top_2gram_count  occurrences of the document's most frequent
                       word bigram (the top-n-gram-coverage numerator)

    High values of either signal boilerplate / degenerate generation —
    the standard repetition quality gates for LLM training corpora.

    Vectorized: one Arrow split + dictionary-encode per batch, then
    numpy lexsort/run-length over (doc, code) and (doc, pair-code)
    arrays — no per-row python.  A document is wholly contained in one
    row so the per-batch computation is globally exact.
    """
    n = batch.num_rows
    if n == 0:
        z = pa.array([], pa.int64())
        for name in ("n_tokens", "n_dup_tokens", "top_2gram_count"):
            batch = batch.append_column(name, z)
        return batch
    text = batch.column(text_col).combine_chunks()
    toks = pc.split_pattern(text, " ")
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    enc = flat.dictionary_encode()
    code = np.asarray(enc.indices).astype(np.int64)
    V = max(len(enc.dictionary), 1)

    # distinct tokens per doc: unique (doc, code) pairs -> bincount
    n_distinct = np.bincount(np.unique(parent * V + code) // V,
                             minlength=n)

    # most frequent bigram per doc: run lengths over sorted (doc, pair)
    top = np.zeros(n, dtype=np.int64)
    L = len(code) - 1
    if L > 0:
        same = parent[:L] == parent[1:]
        pd_ = parent[:L][same]
        pair = code[:L][same] * V + code[1:][same]
        if len(pd_):
            order = np.lexsort((pair, pd_))
            pd_, pair = pd_[order], pair[order]
            brk = np.ones(len(pd_) + 1, dtype=bool)
            brk[1:-1] = (pd_[1:] != pd_[:-1]) | (pair[1:] != pair[:-1])
            idx = np.flatnonzero(brk)
            run_len = np.diff(idx)
            np.maximum.at(top, pd_[idx[:-1]], run_len)

    batch = batch.append_column("n_tokens", pa.array(lens))
    batch = batch.append_column("n_dup_tokens", pa.array(lens - n_distinct))
    batch = batch.append_column("top_2gram_count", pa.array(top))
    return batch


def entropy_batch(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    """Per-document unigram token entropy (bits):
    H = log2(n) - (sum_t tf_t*log2(tf_t)) / n over ' '-split tokens —
    the standard degenerate-text / low-information quality signal
    (near-zero entropy = one token repeated; high = diverse text).

    Vectorized: one Arrow split + dictionary-encode, one lexsort
    run-length for per-(doc, token) tf, one weighted bincount for the
    per-doc sum.  Output is rounded half-away to 6 decimals in the
    same association order as the SQL oracle (log2(n) - SUM/n), so
    sum-order and log ulp differences cannot flip the hash gate."""
    batch = batch.filter(batch.column(text_col).is_valid())
    n = batch.num_rows
    if n == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "entropy": pa.array([], pa.float64())})
    toks = pc.split_pattern(batch.column(text_col).combine_chunks(), " ")
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    enc = flat.dictionary_encode()
    code = np.asarray(enc.indices).astype(np.int64)
    V = max(len(enc.dictionary), 1)
    key = np.sort(parent * V + code)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    tf = np.diff(np.r_[starts, len(key)]).astype(np.float64)
    doc = key[starts] // V
    s = np.bincount(doc, weights=tf * np.log2(tf), minlength=n)
    nn = lens.astype(np.float64)
    h = np.log2(nn) - s / nn
    h = np.floor(h * 1e6 + 0.5) / 1e6  # duckdb ROUND(x, 6), x >= 0
    return pa.table({
        id_col: pc.cast(batch.column(id_col), pa.int64()),
        "entropy": pa.array(h)})


def distinctive_terms(ds, id_col: str = "doc_id",
                      text_col: str = "text", k: int = 3):
    """Top-k most DISTINCTIVE terms per document: rank by global
    rarity (document frequency asc), then in-doc weight (term
    frequency desc), then term asc — the integer-exact tf-idf
    ordering (df is the idf denominator; integer keys keep the
    ranking bit-identical with the SQL `row_number()` oracle, where a
    float tf*log(N/df) score could flip on last-ulp differences
    between numpy and the SQL engine's log).

    Scale shape: join-free — two house hash-partition exchanges.
    A per-batch combiner collapses each block to distinct
    (doc, term, tf) rows (exact: a doc is wholly in one batch), the
    first exchange co-locates each TERM's rows (vocab is
    corpus-cardinality — never broadcast, never driver-merged) where
    one run-length scan computes global df and attaches it in place,
    and the second exchange co-locates each DOC's candidate rows for
    the final rank — with a per-doc top-k combiner before it (arrow
    C++ multi-key sort + segment rank), so at most k rows per doc per
    token-partition cross the doc exchange.  No driver state, nothing
    all-pairs.  (A Dataset.join on term was the first cut; the
    exchange volume is identical and the join's build side chokes on
    Ray's schema-less empty sort partitions, so two scans it is.)"""
    from ..functions.parts import exchange

    narrow = ds.select_columns([id_col, text_col])
    narrow = narrow.map_batches(
        lambda t: t.filter(t.column(text_col).is_valid()),
        batch_format="pyarrow", zero_copy_batch=True)

    def tf_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        text = batch.column(text_col).combine_chunks()
        toks = pc.split_pattern(text, " ")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = np.repeat(
            batch.column(id_col).to_numpy(zero_copy_only=False), lens)
        agg = pa.table({"token": flat, id_col: pa.array(ids)}).group_by(
            ["token", id_col]).aggregate([([], "count_all")])
        return pa.table({id_col: pc.cast(agg.column(id_col), pa.int64()),
                         "token": agg.column("token"),
                         "tf": pc.cast(agg.column("count_all"), pa.int64())})

    tf_ds = narrow.map_batches(tf_rows, batch_format="pyarrow",
                               zero_copy_batch=True)

    _SORT = [(id_col, "ascending"), ("df", "ascending"),
             ("tf", "descending"), ("token", "ascending")]

    def _keep_topk(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
        t = t.sort_by(_SORT)
        d = t.column(id_col).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        rank = np.arange(len(d)) - np.repeat(
            starts, np.diff(np.r_[starts, len(d)]))
        keep = rank < k
        return t.filter(pa.array(keep)), rank[keep]

    def term_scan(group: pa.Table) -> pa.Table:
        """All rows of a term live here; rows are distinct (doc, term)
        pairs, so the term's row count IS its global df.  Attach df,
        then keep only the per-doc top-k candidates this partition can
        contribute."""
        t = group.sort_by([("token", "ascending")])
        tok = t.column("token")
        # run lengths via the dictionary trick: first occurrence marks
        enc = tok.combine_chunks().dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        runs = np.diff(np.r_[starts, len(codes)])
        t = t.append_column("df", pa.array(np.repeat(runs, runs)))
        return _keep_topk(t)[0]

    def doc_scan(group: pa.Table) -> pa.Table:
        kept, rank = _keep_topk(group)
        return pa.table({id_col: kept.column(id_col),
                         "term": kept.column("token"),
                         "df": kept.column("df"),
                         "tf": kept.column("tf"),
                         "rank": pa.array(rank + 1, pa.int64())})

    return exchange(exchange(tf_ds, "token", term_scan), id_col, doc_scan)


def vocab_df_partial(batch: pa.Table, id_col: str = "doc_id",
                     text_col: str = "text") -> pa.Table:
    """Per-batch combiner for corpus vocabulary statistics: one
    (token, df, tf) partial row per distinct token in the batch, where
    df counts DOCUMENTS containing the token and tf counts total
    occurrences.  A document is wholly contained in one row, so
    summing batch-local df partials over the corpus gives the exact
    global document frequency — the IDF building block of quality
    scoring / stopword discovery at training-data scale.

    Vectorized: one split per batch, one flatten + repeat for the
    (token, doc) pair table, then two arrow C++ hash-aggregates.
    Tokenization matches token_count_batch (single-space split ==
    DuckDB string_split(text, ' '))."""
    text = batch.column(text_col).combine_chunks()
    toks = pc.split_pattern(text, " ")
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    ids = np.repeat(
        batch.column(id_col).to_numpy(zero_copy_only=False), lens)
    pairs = pa.table({"token": flat, id_col: pa.array(ids)})
    per_doc = pairs.group_by(["token", id_col]).aggregate(
        [([], "count_all")])
    agg = per_doc.group_by("token").aggregate(
        [([], "count_all"), ("count_all", "sum")])
    return pa.table({
        "token": agg.column("token"),
        "df": pc.cast(agg.column("count_all"), pa.int64()),
        "tf": pc.cast(agg.column("count_all_sum"), pa.int64()),
    })


#: control characters excluding the \s members (\t \n \r \x0B \x0C are
#: whitespace and handled by the collapse step)
_CTRL_PATTERN = r"[\x00-\x08\x0E-\x1F\x7F]"


def normalize_text_batch(batch: pa.Table,
                         text_col: str = "text") -> pa.Table:
    """Canonical text normalization (the first stage of any training
    corpus cleanup): strip non-whitespace control chars, collapse
    whitespace runs to one space, trim, unicode NFC — three vectorized
    Arrow kernels per batch, no python rows.  Spec order matters and
    is mirrored exactly by the DuckDB oracle
    (nfc_normalize(trim(regexp_replace(regexp_replace(...))))).
    Emits text_norm + n_chars_norm alongside the id column."""
    text = batch.column(text_col)
    t = pc.replace_substring_regex(text, _CTRL_PATTERN, "")
    t = pc.replace_substring_regex(t, r"\s+", " ")
    t = pc.utf8_trim(t, " ")
    # NFC: this pyarrow's utf8_normalize(form="NFC") does NOT compose
    # (utf8proc build returns e+U+0301 unchanged), so ASCII batches —
    # NFC-invariant by definition — take the zero-cost fast path and
    # only batches containing non-ASCII pay one unicodedata.normalize
    # (a C kernel) pass per row, the same per-item-kernel tradeoff as
    # md5_lower64_array.
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    if not pc.all(pc.string_is_ascii(t)).as_py():
        import unicodedata
        t = pa.array([None if s is None
                      else unicodedata.normalize("NFC", s)
                      for s in t.to_pylist()], pa.string())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "text_norm": t,
        "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64())})


def chunk_tokens_batch(batch: pa.Table, window: int = 64,
                       id_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """Fixed-token-window document chunking — the sequence-prep step
    that turns variable-length documents into training-sized pieces
    (every doc split into ceil(n_tokens/window) chunks of `window`
    ' '-separated tokens, last chunk short).  Emits one row per chunk:
    (doc_id, chunk_idx, n_chunk_tokens, chunk_text).

    Embarrassingly parallel: a doc's chunks are computed wholly inside
    its batch — map_batches with a changed row count, NO exchange.
    Fully vectorized: one split_pattern, offset arithmetic in numpy,
    and a single ListArray.from_arrays + binary_join to reassemble
    chunk texts — the flattened token values buffer is never copied
    per chunk.  ''.split(' ') == [''] so an empty doc yields exactly
    one chunk of '', matching DuckDB string_split semantics."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    parts = pc.split_pattern(text, " ")
    n = pc.list_value_length(parts).to_numpy(zero_copy_only=False
                                             ).astype(np.int64)
    flat = pc.list_flatten(parts)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    w = int(window)
    n_chunks = (n + w - 1) // w
    total_chunks = int(n_chunks.sum())
    doc_idx = np.repeat(np.arange(len(n)), n_chunks)
    # chunk index within its doc: global position minus the doc's
    # first-chunk global position
    first = np.cumsum(n_chunks) - n_chunks
    ci = np.arange(total_chunks) - np.repeat(first, n_chunks)
    chunk_len = np.minimum(w, n[doc_idx] - ci * w)
    doc_off = np.concatenate([[0], np.cumsum(n)])
    starts = doc_off[doc_idx] + ci * w
    # chunks tile each doc exactly and docs are contiguous in `flat`,
    # so the chunk starts ARE the list offsets
    offsets = np.empty(total_chunks + 1, np.int64)
    offsets[:-1] = starts
    offsets[-1] = doc_off[-1]
    lst = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()),
        pc.cast(flat, pa.large_string()))
    chunk_text = pc.binary_join(lst, pa.scalar(" ", pa.large_string()))
    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table({
        id_col: ids.take(pa.array(doc_idx, pa.int64())),
        "chunk_idx": pa.array(ci.astype(np.int64)),
        "n_chunk_tokens": pa.array(chunk_len.astype(np.int64)),
        "chunk_text": pc.cast(chunk_text, pa.string())})


def bpe_train(ds: ray.data.Dataset, n_merges: int = 60,
              max_words: int = 50_000, id_col: str = "doc_id",
              text_col: str = "text") -> "pa.Table":
    """BPE merge-table induction over the corpus: the tokenizer-
    training step of an LLM data pipeline, returning the ordered merge
    rules (rank, left, right, count).

    Honest distributed shape (how real BPE trainers work): the
    CORPUS-SCALE part is the word-frequency count — one per-batch
    combiner pass + the high-cardinality hash-partition aggregate
    (the vocab_df machinery) + a per-partition (tf, word) top-k so at
    most P x max_words count rows ever reach the driver — while the
    merge LOOP runs on the driver over the BOUNDED (word, tf) table
    (<= max_words rows; the loop's cost is independent of corpus
    size).  Spec, pinned for the independent test reference:
      * words = text.split(' ') pieces (house tokenization), weighted
        by total corpus frequency; empty pieces dropped;
      * a word starts as its unicode-character sequence (no
        end-of-word marker);
      * each round counts adjacent symbol pairs weighted by word
        frequency, merges the most frequent pair — ties break to the
        lexicographically smallest (left, right) — and stops early
        when no pair occurs >= 2 times;
      * incremental recount: only words containing the merged pair
        are rescanned (the classic trainer optimization).
    Deterministic at any parallelism: integer counts, total order on
    pairs."""
    from ..stages.aggregate import hash_partition_aggregate

    def word_tf(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col).combine_chunks()
        text = pc.fill_null(text, "")
        flat = pc.list_flatten(pc.split_pattern(text, " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        g = pa.table({"word": flat}).group_by(["word"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["word", "tf"])

    partials = ds.select_columns([text_col]).map_batches(
        word_tf, batch_format="pyarrow", zero_copy_batch=True)
    merged = hash_partition_aggregate(partials, ["word"],
                                      [("tf", "sum")],
                                      rename={"tf_sum": "tf"})

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= max_words:
            return batch
        # the SAME total order as the driver's global cut — (-tf, word
        # asc) — so a boundary tie can never keep a word the global
        # order would have dropped (layout-independence)
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        w = np.asarray(batch.column("word").to_pylist())
        idx = np.lexsort((w, -tf))[:max_words]
        return batch.take(pa.array(np.sort(idx)))

    rows = []
    for t in _iter_driver_tables(merged.map_batches(
            local_topk, batch_format="pyarrow")):
        rows.extend(zip(t.column("word").to_pylist(),
                        t.column("tf").to_pylist()))
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:max_words]

    # driver merge loop over the bounded vocab
    words = [tuple(w) for w, _ in rows]
    freqs = [int(c) for _, c in rows]
    pair_counts: dict = {}
    pair_words: dict = {}
    for wi, syms in enumerate(words):
        c = freqs[wi]
        for p in zip(syms, syms[1:]):
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(wi)
    out_rank, out_left, out_right, out_count = [], [], [], []
    for rank in range(n_merges):
        if not pair_counts:
            break
        mx = max(pair_counts.values())
        if mx < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == mx)
        out_rank.append(rank)
        out_left.append(best[0])
        out_right.append(best[1])
        out_count.append(mx)
        new_sym = best[0] + best[1]
        for wi in list(pair_words.get(best, ())):
            syms, c = words[wi], freqs[wi]
            for p in zip(syms, syms[1:]):
                pair_counts[p] -= c
                if pair_counts[p] <= 0:
                    del pair_counts[p]
                ws = pair_words.get(p)
                if ws is not None:
                    ws.discard(wi)
                    if not ws:
                        del pair_words[p]
            ns, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms)
                        and (syms[i], syms[i + 1]) == best):
                    ns.append(new_sym)
                    i += 2
                else:
                    ns.append(syms[i])
                    i += 1
            syms = tuple(ns)
            words[wi] = syms
            for p in zip(syms, syms[1:]):
                pair_counts[p] = pair_counts.get(p, 0) + c
                pair_words.setdefault(p, set()).add(wi)
    return pa.table({"rank": pa.array(out_rank, pa.int64()),
                     "left": pa.array(out_left, pa.string()),
                     "right": pa.array(out_right, pa.string()),
                     "count": pa.array(out_count, pa.int64())})


#: worker-global BPE encode memo: {merge-table fingerprint: {word: n}}
#: — one entry per DISTINCT word ever seen by this worker process, so
#: the python encode loop amortizes across batches (the minhash
#: _word_codes pattern); vocabulary-bounded, not corpus-bounded.
_BPE_ENC_MEMO: dict = {}


def _bpe_encode_len(word: str, ranks: dict, merges: list,
                    memo: dict) -> int:
    """Token count for one word under the trained merges — the GPT-2
    formulation: repeatedly merge ALL occurrences (left-to-right) of
    the minimum-rank adjacent pair.  Equivalent to the rank-order
    single-pass formulation (tests/bpe_reference.py) because a rule's
    operands can never reappear after its pass."""
    n = memo.get(word)
    if n is not None:
        return n
    syms = list(word)
    while len(syms) > 1:
        best = None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best is None or r < best):
                best = r
        if best is None:
            break
        left, right = merges[best]
        ns, i = [], 0
        while i < len(syms):
            if (i + 1 < len(syms) and syms[i] == left
                    and syms[i + 1] == right):
                ns.append(left + right)
                i += 2
            else:
                ns.append(syms[i])
                i += 1
        syms = ns
    memo[word] = len(syms)
    return len(syms)


def bpe_encode_counts(ds: ray.data.Dataset, merges: list,
                      id_col: str = "doc_id",
                      text_col: str = "text") -> ray.data.Dataset:
    """Tokenizer APPLY: per-doc token counts under a trained BPE merge
    table — the encode half of the tokenizer story (bpe_train is the
    other), the step that prices every document for packing/budgeting.

    Distributed shape: MAP-ONLY — the bounded merge table rides the
    task closure (<= n_merges rows, never the corpus).  Per batch the
    texts flatten to words once via Arrow split + list offsets (the
    doc association is a numpy repeat over the offsets), the python
    encode loop runs only per DISTINCT word per batch against the
    worker-global memo, and per-doc totals come from one scatter-add.
    NULL texts are excluded; empty split pieces dropped (the house
    tokenization, matching bpe_train's spec)."""
    merges = [(str(lt), str(rt)) for lt, rt in merges]
    ranks = {p: i for i, p in enumerate(merges)}
    # the memo key is the merge table itself (tiny): a hash would
    # risk a silent cross-table collision poisoning the counts
    fp = tuple(merges)

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col).combine_chunks()
        valid = text.is_valid().to_numpy(zero_copy_only=False)
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words)
        per_doc = pc.list_value_length(words).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(per_doc)), per_doc)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        doc_idx = doc_idx[keep.to_numpy(zero_copy_only=False)]
        enc = flat.dictionary_encode()
        memo = _BPE_ENC_MEMO.setdefault(fp, {})
        lens = np.fromiter(
            (_bpe_encode_len(w, ranks, merges, memo)
             for w in enc.dictionary.to_pylist()),
            np.int64, len(enc.dictionary))
        ntok = np.zeros(len(per_doc), np.int64)
        inv = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        np.add.at(ntok, doc_idx, lens[inv])
        mask = pa.array(valid)
        ids = batch.column(id_col).combine_chunks().filter(mask)
        return pa.table({id_col: ids,
                         "n_tokens": pa.array(ntok[valid])})

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)


def _iter_driver_tables(ds: ray.data.Dataset):
    """Collect a SMALL dataset's blocks on the driver through the
    schema-probe-safe block-ref path (functions/parts.arrow_block_refs
    — Dataset.to_arrow_refs() re-executes the plan when the schema
    cache misses)."""
    import ray

    from ..functions.parts import arrow_block_refs
    for ref in arrow_block_refs(ds):
        yield ray.get(ref)


def compression_ratio_batch(batch: pa.Table, id_col: str = "doc_id",
                            text_col: str = "text",
                            level: int = 6) -> pa.Table:
    """(id, raw_len, comp_len): zlib-compressed size per document —
    the Gopher-style repetitiveness signal (boilerplate and looped
    text compress far below ~0.4x; high-entropy gibberish barely
    compresses at all).  Integer outputs so the result is value-hash
    stable; consumers derive the ratio.

    The compress call is per-document Python, but the kernel is C
    (zlib) over an opaque byte payload — the multimodal-decode
    precedent: inherently per-item codec work, embarrassingly
    parallel, fused with the read.  Deterministic for a fixed level
    and the container's pinned zlib."""
    import zlib

    text = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    raw = [t.encode("utf-8") for t in text.to_pylist()]
    comp = [len(zlib.compress(b, level)) for b in raw]
    return pa.table({
        id_col: pc.cast(batch.column(id_col), pa.int64()),
        "raw_len": pa.array([len(b) for b in raw], pa.int64()),
        "comp_len": pa.array(comp, pa.int64())})
