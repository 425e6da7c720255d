"""Round-3 curation operators: n-gram decontamination, repetition
signals, exact distributed quantiles.  Each test checks the operator
against a hand-computed or independent pure-python reference (the
house rule from tests/test_independent_reference.py: goldens must not
come from the engine under test)."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from d1_log_aggregation_ray.ops.decontam import contamination_hits
from d1_log_aggregation_ray.ops.relational import value_quantiles
from d1_log_aggregation_ray.ops.text import repetition_batch
from d1_log_aggregation_ray.functions.hashing import md5_lower64


def _blocks(t: pa.Table, n: int) -> ray.data.Dataset:
    """`t` as a Dataset of exactly n row slices (the multi-block input
    a repartition(n) would give, without Ray's deprecated `free`)."""
    cuts = [t.num_rows * i // n for i in range(n + 1)]
    ds = ray.data.from_arrow([t.slice(a, b - a)
                              for a, b in zip(cuts, cuts[1:])])
    assert ds.num_blocks() == n
    return ds


def _bench_ids(ids, mod=100, lt=10):
    return {i for i in ids if md5_lower64(str(i)) % mod < lt}


def test_contamination_finds_planted_ngram_overlap():
    # find one bench id and one corpus id under the house hash split
    bench_id = next(i for i in range(1000)
                    if md5_lower64(str(i)) % 100 < 10)
    corpus = [i for i in range(1000) if md5_lower64(str(i)) % 100 >= 10]
    shared = " ".join(f"w{j}" for j in range(8))  # one exact 8-gram
    rows = {
        "doc_id": [bench_id, corpus[0], corpus[1], corpus[2]],
        "text": [
            "aa bb " + shared + " cc",
            "zz yy " + shared,             # contains the bench 8-gram
            shared + " " + shared,         # same gram twice -> 1 distinct
            "totally different words here with no overlap at all ok",
        ],
    }
    ds = ray.data.from_arrow(pa.table(rows))
    out = contamination_hits(ds, n=8).to_pandas().set_index("doc_id")
    assert set(out.index) == {corpus[0], corpus[1]}
    assert out.loc[corpus[0], "n_hits"] == 1
    assert out.loc[corpus[1], "n_hits"] == 1  # distinct grams, not hits


def test_contamination_counts_distinct_shared_grams():
    bench_id = next(i for i in range(1000)
                    if md5_lower64(str(i)) % 100 < 10)
    cid = next(i for i in range(1000) if md5_lower64(str(i)) % 100 >= 10)
    # bench doc of 10 tokens -> 3 distinct 8-grams; corpus doc repeats
    # the full 10-token span, sharing all 3
    span = " ".join(f"t{j}" for j in range(10))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [bench_id, cid],
        "text": [span, "x " + span + " y"],
    }))
    out = contamination_hits(ds, n=8).to_pandas()
    assert out.to_dict("records") == [{"doc_id": cid, "n_hits": 3}]


def test_contamination_empty_bench_is_empty_not_error():
    cid = next(i for i in range(1000) if md5_lower64(str(i)) % 100 >= 10)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [cid], "text": ["a b c d e f g h i j"]}))
    out = contamination_hits(ds, n=8).to_pandas()
    assert len(out) == 0


def test_contamination_no_cross_document_grams():
    # two bench docs of 4 tokens each: no single doc has an 8-gram, and
    # grams must NOT span the doc boundary
    b = sorted(_bench_ids(range(1000)))[:2]
    cid = next(i for i in range(1000) if md5_lower64(str(i)) % 100 >= 10)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [b[0], b[1], cid],
        "text": ["a b c d", "e f g h", "a b c d e f g h"],
    }))
    out = contamination_hits(ds, n=8).to_pandas()
    assert len(out) == 0


def test_repetition_hand_computed():
    t = pa.table({
        "doc_id": [0, 1, 2],
        "text": [
            "a b a b a",     # 5 tokens, 2 distinct, top bigram 'a b' x2
            "x y z",         # no repetition, every bigram unique
            "q",             # single token: no bigram
        ],
    })
    out = repetition_batch(t)
    assert out.column("n_tokens").to_pylist() == [5, 3, 1]
    assert out.column("n_dup_tokens").to_pylist() == [3, 0, 0]
    assert out.column("top_2gram_count").to_pylist() == [2, 1, 0]


def test_repetition_matches_python_reference():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
             for _ in range(200)]
    out = repetition_batch(pa.table({"text": texts}))
    for i, txt in enumerate(texts):
        w = txt.split(" ")
        assert out.column("n_tokens")[i].as_py() == len(w)
        assert out.column("n_dup_tokens")[i].as_py() == len(w) - len(set(w))
        pairs = list(zip(w, w[1:]))
        top = max((pairs.count(p) for p in set(pairs)), default=0)
        assert out.column("top_2gram_count")[i].as_py() == top


def test_pii_redact_hand_computed():
    from d1_log_aggregation_ray.ops.pii import pii_redact_batch
    t = pa.table({"text": [
        "mail a@b.com or c.d+x@e.org now",
        "host 10.0.0.1 bogus 1.2.3.4.5 has two overlapping matches",
        "call +1 555 123-4567 end",
        "user@1.2.3.4 is not an email but holds an ip",
        "nothing here",
    ]})
    out = pii_redact_batch(t)
    assert out.column("n_emails").to_pylist() == [2, 0, 0, 0, 0]
    # "1.2.3.4.5": RE2 matches leftmost "1.2.3.4" then ".5" fails \b —
    # exactly one match; the lone ip line has 2 (10.0.0.1 + 1.2.3.4)
    assert out.column("n_ipv4").to_pylist() == [0, 2, 0, 1, 0]
    assert out.column("n_phones").to_pylist() == [0, 0, 1, 0, 0]
    assert out.column("text_redacted").to_pylist() == [
        "mail <EMAIL> or <EMAIL> now",
        "host <IP> bogus <IP>.5 has two overlapping matches",
        "call <PHONE> end",
        "user@<IP> is not an email but holds an ip",
        "nothing here",
    ]


def test_pii_redact_python_reference():
    import re
    from d1_log_aggregation_ray.ops.pii import pii_redact_batch, \
        PII_PATTERNS
    rng = np.random.default_rng(11)
    frags = ["plain words", "a@b.io", "x.y@z.co next", "8.8.8.8",
             "+49 30 123456", "999.1.2.3", "not@an", "dot.", "+12"]
    texts = [" ".join(rng.choice(frags, size=int(rng.integers(1, 9))))
             for _ in range(300)]
    out = pii_redact_batch(pa.table({"text": texts}))
    for i, txt in enumerate(texts):
        cur = txt
        for j, (name, pat, tok) in enumerate(PII_PATTERNS):
            assert out.column("n_" + name)[i].as_py() == \
                len(re.findall(pat, cur)), (i, name)
            cur = re.sub(pat, tok, cur)
        assert out.column("text_redacted")[i].as_py() == cur


def _dup_ngram_python(rows, n=8):
    """Independent reference: distinct-gram sets per doc, dup = gram in
    >= 2 docs."""
    per_doc = {}
    for did, text in rows:
        w = text.split(" ")
        per_doc[did] = {tuple(w[i:i + n]) for i in range(len(w) - n + 1)}
    from collections import Counter
    cnt = Counter(g for gs in per_doc.values() for g in gs)
    return {d: (len(gs), sum(cnt[g] >= 2 for g in gs))
            for d, gs in per_doc.items() if gs}


def test_dup_ngram_stats_vs_python_reference():
    from d1_log_aggregation_ray.ops.decontam import duplicated_ngram_stats
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(30)]
    rows = []
    for d in range(80):
        rows.append((d, " ".join(rng.choice(vocab,
                                            size=int(rng.integers(3, 25))))))
    # plant exact shared passages
    shared = " ".join(f"s{j}" for j in range(12))
    rows.append((100, "pre " + shared))
    rows.append((101, shared + " post"))
    rows.append((102, shared))
    ds = _blocks(pa.table({
        "doc_id": [r[0] for r in rows],
        "text": [r[1] for r in rows]}), 5)
    out = duplicated_ngram_stats(ds, n=8).to_pandas().set_index("doc_id")
    ref = _dup_ngram_python(rows, n=8)
    assert set(out.index) == set(ref)
    for d, (ng, nd) in ref.items():
        assert out.loc[d, "n_grams"] == ng, d
        assert out.loc[d, "n_dup_grams"] == nd, d
    # the planted 12-token passage: every 8-gram of doc 102 is shared
    assert out.loc[102, "n_grams"] == 5
    assert out.loc[102, "n_dup_grams"] == 5


def _distinctive_python(rows, k=3):
    from collections import Counter
    tf = {d: Counter(t.split(" ")) for d, t in rows}
    df = Counter()
    for d, c in tf.items():
        df.update(set(c))
    out = {}
    for d, c in tf.items():
        ranked = sorted(c, key=lambda w: (df[w], -c[w], w))[:k]
        out[d] = [(w, df[w], c[w], i + 1) for i, w in enumerate(ranked)]
    return out


def test_distinctive_terms_vs_python_reference():
    from d1_log_aggregation_ray.ops.text import distinctive_terms
    rng = np.random.default_rng(9)
    vocab = [f"w{i:02d}" for i in range(25)]
    rows = [(d, " ".join(rng.choice(vocab,
                                    size=int(rng.integers(1, 30)))))
            for d in range(120)]
    ds = _blocks(pa.table({
        "doc_id": [r[0] for r in rows],
        "text": [r[1] for r in rows]}), 6)
    out = distinctive_terms(ds, k=3).to_pandas()
    ref = _distinctive_python(rows, k=3)
    got = {}
    for r in out.itertuples(index=False):
        got.setdefault(r.doc_id, []).append(
            (r.term, r.df, r.tf, r.rank))
    for d in got:
        got[d].sort(key=lambda x: x[3])
    assert got == ref


def test_value_quantiles_matches_disc_rule_across_batches():
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 50, size=5000).astype(np.int64)
    ds = _blocks(pa.table({"v": vals}), 7)
    qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
    out = value_quantiles(ds, "v", qs)
    s = np.sort(vals)
    expect = [int(s[max(math.ceil(q * len(s)) - 1, 0)]) for q in qs]
    assert out.column("value").to_pylist() == expect
    assert out.column("q").to_pylist() == qs


def test_normalize_text_parity_on_adversarial_strings():
    """Engine normalize vs DuckDB oracle expression on strings the
    ASCII corpus can't exercise: control chars, combining accents
    (NFC composition), tabs/newlines, leading/trailing runs."""
    import duckdb
    import pyarrow as pa
    from d1_log_aggregation_ray.ops.text import normalize_text_batch
    texts = [
        "plain words",
        "  leading and trailing   ",
        "tab\tand\nnewline\r\nmix",
        "ctrl\x01\x02chars\x7fhere",
        "combining é accent",   # NFC -> é
        "already é composed",
        "\x0b\x0cvertical\x0b\x0cws",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    eng = normalize_text_batch(t).to_pylist()
    con = duckdb.connect()
    con.register("docs", t)
    ora = con.execute(r"""
        SELECT doc_id,
               nfc_normalize(trim(regexp_replace(regexp_replace(
                 text, '[\x00-\x08\x0E-\x1F\x7F]', '', 'g'),
                 '\s+', ' ', 'g'), ' ')) AS text_norm,
               CAST(length(nfc_normalize(trim(regexp_replace(
                 regexp_replace(text, '[\x00-\x08\x0E-\x1F\x7F]',
                 '', 'g'), '\s+', ' ', 'g'), ' ')))
                 AS BIGINT) AS n_chars_norm
        FROM docs ORDER BY doc_id""").df().to_dict("records")
    assert eng == ora


def test_line_dedup_parity_on_planted_boilerplate():
    """Engine line_dedup vs the DuckDB oracle expression on a corpus
    the shared (single-line) oracle tables can't exercise: multi-line
    docs, a boilerplate line planted across docs, within-doc repeats,
    an all-boilerplate doc, empty lines, and a single-line doc.
    Split across several input blocks so the counting exchange and the
    broadcast probe both cross batch boundaries."""
    import duckdb
    BOILER = "accept cookies to continue"
    texts = [
        f"alpha one\n{BOILER}\ngamma three",
        f"{BOILER}\ndelta four",
        BOILER,                                # all-boilerplate doc
        f"{BOILER}\n{BOILER}",                 # within-doc repeat
        "unique line here",                    # untouched single-line
        "repeated inside\nrepeated inside",    # dup only within one doc
        "\n\ntwo empty lines lead",            # '' occurs 4x -> dup
        "tail empties\n\n",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    from d1_log_aggregation_ray.ops.lines import line_dedup
    ds = _blocks(t, 4)
    eng = (line_dedup(ds, threshold=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    ora = con.execute("""
        WITH lines AS (
          SELECT doc_id,
                 unnest(string_split(text, chr(10))) AS line,
                 generate_subscripts(string_split(text, chr(10)), 1)
                   AS ord
          FROM documents WHERE text IS NOT NULL
        ),
        linec AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
        j AS (SELECT l.doc_id, l.line, l.ord, (lc.c >= 2) AS dup
              FROM lines l JOIN linec lc USING (line))
        SELECT doc_id,
               coalesce(string_agg(CASE WHEN NOT dup THEN line END,
                                   chr(10) ORDER BY ord), '')
                 AS text_clean,
               CAST(count(*) AS BIGINT) AS n_lines,
               CAST(sum(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_dup_lines
        FROM j GROUP BY doc_id ORDER BY doc_id""").df()
    assert eng.to_dict("records") == ora.to_dict("records")
    # semantic spot checks independent of the oracle expression
    by_id = {r["doc_id"]: r for r in eng.to_dict("records")}
    assert by_id[0]["text_clean"] == "alpha one\ngamma three"
    assert by_id[2]["text_clean"] == "" and by_id[2]["n_dup_lines"] == 1
    assert by_id[3]["n_dup_lines"] == 2
    assert by_id[4]["text_clean"] == "unique line here"
    assert by_id[5]["n_dup_lines"] == 2      # within-doc repeats count


def test_token_rarity_parity_with_duckdb():
    """token_rarity vs the SQL formulation on a corpus with planted
    frequency structure: a stopword everywhere, singleton rare tokens,
    within-doc repeats, an empty-string doc (one '' token), split
    across blocks so token partials cross batch boundaries."""
    import duckdb
    texts = [
        "the cat sat",
        "the the dog",          # within-doc repeat of the stopword
        "the unique1 unique2",
        "zz",                   # singleton everything
        "",                     # one '' token
        "the cat",              # 'cat' now has corpus count 2
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    from d1_log_aggregation_ray.ops.decontam import token_rarity
    ds = _blocks(t, 3)
    eng = (token_rarity(ds).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    ora = con.execute("""
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS tok
          FROM documents WHERE text IS NOT NULL
        ),
        tc AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok)
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(sum(c) AS BIGINT) AS sum_tf,
               CAST(min(c) AS BIGINT) AS min_tf
        FROM toks JOIN tc USING (tok)
        GROUP BY doc_id ORDER BY doc_id""").df()
    assert eng.to_dict("records") == ora.to_dict("records")
    by_id = {r["doc_id"]: r for r in eng.to_dict("records")}
    # 'the' occurs 5x corpus-wide; doc 1 = the,the,dog -> 5+5+1
    assert by_id[1]["n_tokens"] == 3
    assert by_id[1]["sum_tf"] == 11 and by_id[1]["min_tf"] == 1
    assert by_id[3]["min_tf"] == 1 and by_id[3]["sum_tf"] == 1
    assert by_id[4]["n_tokens"] == 1          # '' counts as one token


def test_chunk_tokens_parity_with_duckdb():
    """chunk_tokens vs the SQL window formulation: exact-multiple
    docs, short docs, empty string (one '' chunk), consecutive
    spaces ('' tokens), split across blocks."""
    import duckdb
    texts = [
        "a b c d e f",          # exact multiple of 3
        "x y",                  # shorter than window
        "",                     # one empty chunk
        "p  q r s",             # double space -> '' token
        "one two three four five six seven",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    from d1_log_aggregation_ray.ops.text import chunk_tokens_batch
    ds = _blocks(t, 3)
    eng = (ds.map_batches(lambda b: chunk_tokens_batch(b, window=3),
                          batch_format="pyarrow").to_pandas()
           .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    ora = con.execute("""
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                 generate_subscripts(string_split(text, ' '), 1) AS i
          FROM documents WHERE text IS NOT NULL)
        SELECT doc_id, CAST((i-1)//3 AS BIGINT) AS chunk_idx,
               CAST(count(*) AS BIGINT) AS n_chunk_tokens,
               string_agg(tok, ' ' ORDER BY i) AS chunk_text
        FROM toks GROUP BY doc_id, (i-1)//3
        ORDER BY doc_id, chunk_idx""").df()
    assert eng.to_dict("records") == ora.to_dict("records")
    by = {(r["doc_id"], r["chunk_idx"]): r for r in eng.to_dict("records")}
    assert by[(0, 1)]["chunk_text"] == "d e f"
    assert by[(2, 0)]["chunk_text"] == "" and by[(2, 0)]["n_chunk_tokens"] == 1
    assert by[(3, 0)]["chunk_text"] == "p  q"      # '' token preserved
    assert by[(4, 2)]["chunk_text"] == "seven"


def test_bloom_decontam_superset_of_exact_and_deterministic():
    """Bloom hits must contain every exact hit (no false negatives),
    match the exact counts at a negligible FP operating point, and be
    partition-count independent."""
    from d1_log_aggregation_ray.ops.decontam import (
        bloom_contamination_hits, contamination_hits)
    ds1 = _blocks(pq.read_table(
        "/root/testdata/sf0.001/documents.parquet"), 3)
    ds2 = _blocks(pq.read_table(
        "/root/testdata/sf0.001/documents.parquet"), 11)
    exact = {r["doc_id"]: r["n_hits"]
             for r in contamination_hits(ds1).take_all()}
    bloom = {r["doc_id"]: r["n_hits"]
             for r in bloom_contamination_hits(ds1).take_all()}
    bloom2 = {r["doc_id"]: r["n_hits"]
              for r in bloom_contamination_hits(ds2).take_all()}
    assert bloom == bloom2                      # deterministic
    assert set(exact) <= set(bloom)             # no false negatives
    for d, n in exact.items():
        assert bloom[d] >= n
    # at 2^20 bits / k=4 over this corpus the FP rate is ~1e-6 —
    # expect bit-equality; a small excess would still be legal but
    # this pins the operating point
    assert bloom == exact


def test_bloom_build_probe_roundtrip():
    from d1_log_aggregation_ray.ops.decontam import (_bloom_build,
                                                     _bloom_probe)
    import numpy as np
    rng = np.random.RandomState(3)
    members = rng.randint(0, 2**63, size=1000).astype(np.uint64)
    others = rng.randint(0, 2**63, size=100000).astype(np.uint64)
    others = np.setdiff1d(others, members)
    B = _bloom_build(members, 1 << 16, 4)
    assert _bloom_probe(B, members, 1 << 16, 4).all()   # no f-negatives
    fp = _bloom_probe(B, others, 1 << 16, 4).mean()
    # 1000 * 4 / 65536 -> ~6% bits set; FP ~ (0.059)^4 ~ 1.2e-5
    assert fp < 1e-3


def test_curate_corpus_end_to_end_planted():
    """The flagship composition on a corpus with one planted case per
    stage: a quality-fail doc (too short), an exact duplicate pair
    (keep-min-id), and chunking of a long survivor.  Cross-checked
    against the composed DuckDB oracle."""
    import duckdb
    base = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa. quebec romeo "
            "sierra tango uniform victor whiskey xray yankee zulu one "
            "two three four five six seven eight nine ten eleven "
            "twelve. thirteen fourteen fifteen sixteen seventeen "
            "eighteen nineteen twenty.")
    texts = {
        0: base,                      # long doc -> several chunks
        1: "too short",               # fails the quality gate
        2: base.replace("alpha", "beta"),   # distinct survivor
        3: base.replace("alpha", "beta"),   # exact dup of 2 -> dropped
        4: "x " * 400,                # punct-free, passes gate
    }
    t = pa.table({"doc_id": pa.array(sorted(texts), pa.int64()),
                  "text": pa.array([texts[k] for k in sorted(texts)])})
    from d1_log_aggregation_ray.ops.curate import curate_corpus
    ds = _blocks(t, 3)
    eng = (curate_corpus(ds, n=8, bench_mod=100, bench_lt=0, window=16)
           .to_pandas().sort_values(["doc_id", "chunk_idx"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    ora = con.execute(r"""
        WITH norm AS (
          SELECT doc_id, nfc_normalize(trim(regexp_replace(
            regexp_replace(text, '[\x00-\x08\x0E-\x1F\x7F]', '', 'g'),
            '\s+', ' ', 'g'), ' ')) AS t
          FROM documents WHERE text IS NOT NULL
        ), clean AS (
          SELECT doc_id, t FROM norm
          WHERE len(string_split(t, ' ')) >= 5 AND length(t) >= 30
            AND length(regexp_replace(t, '[^.!?,;:]', '', 'g')) * 5
                <= len(string_split(t, ' '))
            AND length(t) <= 40 * len(string_split(t, ' '))
        ), survivors AS (
          SELECT min(doc_id) AS doc_id, t FROM clean GROUP BY t
        ), ctoks AS (
          SELECT doc_id, unnest(string_split(t, ' ')) AS tok,
                 generate_subscripts(string_split(t, ' '), 1) AS i
          FROM survivors)
        SELECT doc_id, CAST((i-1)//16 AS BIGINT) AS chunk_idx,
               CAST(count(*) AS BIGINT) AS n_chunk_tokens,
               string_agg(tok, ' ' ORDER BY i) AS chunk_text
        FROM ctoks GROUP BY doc_id, (i-1)//16
        ORDER BY doc_id, chunk_idx""").df()
    assert eng.to_dict("records") == ora.to_dict("records")
    docs = set(eng["doc_id"])
    assert docs == {0, 2, 4}       # 1 quality-fails, 3 dups onto 2
    assert (eng[eng.doc_id == 0].n_chunk_tokens.iloc[:-1] == 16).all()


def test_curate_corpus_decontamination_drops_hit_docs():
    """With a real benchmark slice (bench_lt > 0), a non-bench doc
    sharing an 8-gram with a bench doc must vanish from the output."""
    # md5_number_lower(id) % 100: 0 -> 62, 3 -> 36, 4 -> 53;
    # bench_lt=40 puts doc 3 (only) in the benchmark slice
    shared = ("one two three four five six seven eight common tail "
              "with more than thirty characters here.")
    clean = ("totally different words nine ten eleven twelve thirteen "
             "fourteen fifteen sixteen, nothing shared at all here.")
    t = pa.table({"doc_id": pa.array([0, 3, 4], pa.int64()),
                  "text": pa.array([shared, shared, clean])})
    from d1_log_aggregation_ray.ops.curate import curate_corpus
    out = curate_corpus(ray.data.from_arrow(t), n=8,
                        bench_mod=100, bench_lt=40,
                        window=64).to_pandas()
    # doc 3 is benchmark (excluded); doc 0 shares its 8-grams -> dropped;
    # doc 4 is clean -> survives
    assert set(out["doc_id"]) == {4}


def test_strip_dup_spans_planted():
    """Planted boilerplate 8-gram shared by two docs must vanish from
    both; unique text survives; short docs untouched; a doc made
    entirely of boilerplate survives as ''."""
    import ray.data
    from d1_log_aggregation_ray.ops.lines import strip_dup_spans

    boiler = " ".join(f"b{j}" for j in range(8))
    rows = {
        "doc_id": [0, 1, 2, 3],
        "text": [
            "u0 u1 " + boiler + " u2",
            boiler + " z0 z1 z2 z3 z4 z5 z6 z7",
            "short doc",                       # < 8 tokens: untouched
            boiler,                            # all boilerplate -> ''
        ],
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "text": pa.array(rows["text"])}))
    out = {r["doc_id"]: r for r in strip_dup_spans(
        ds, n=8).take_all()}
    assert out[0]["text_clean"] == "u0 u1 u2"
    assert out[0]["n_removed"] == 8
    # doc 1: the unique z-tail contains its own 8-gram but it is
    # unique to doc 1 -> kept; only the shared gram's cover drops
    assert out[1]["text_clean"] == "z0 z1 z2 z3 z4 z5 z6 z7"
    assert out[2]["text_clean"] == "short doc"
    assert out[2]["n_removed"] == 0
    assert out[3]["text_clean"] == ""
    assert out[3]["n_removed"] == 8
    # parallelism independence
    out2 = {r["doc_id"]: r for r in strip_dup_spans(
        _blocks(pa.table({
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "text": pa.array(rows["text"])}), 4),
        n=8).take_all()}
    assert all(out[k]["text_clean"] == out2[k]["text_clean"]
               for k in out)


def test_semantic_decontam_planted_and_reference():
    """Planted geometry: bench = e1; corpus vectors at known angles.
    cos >= 0.35 must flag exactly the near-parallel ones, with n_hits
    counting matching bench vectors — plus a pure-numpy reference on
    random vectors and parallelism independence."""
    import numpy as np

    from d1_log_aggregation_ray.ops.decontam import (
        semantic_contamination_hits)

    d = 8
    e1 = np.eye(d)[0]
    e2 = np.eye(d)[1]
    mk = lambda v: [float(x) for x in v]
    bench = pa.table({
        "vec_id": pa.array([100, 101], pa.int64()),
        "embedding": pa.array([mk(e1), mk(e1 * 3.0)]),  # same direction
    })
    corpus = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([
            mk(0.9 * e1 + 0.1 * e2),   # cos ~0.994 -> hits BOTH bench
            mk(0.2 * e1 + 0.9 * e2),   # cos ~0.217 -> no hit
            mk(e2),                    # orthogonal -> no hit
        ]),
    })
    out = {r["vec_id"]: r["n_hits"] for r in semantic_contamination_hits(
        ray.data.from_arrow(corpus), ray.data.from_arrow(bench),
        threshold=0.35).take_all()}
    assert out == {0: 2}

    rng = np.random.default_rng(3)
    c = rng.normal(size=(300, d))
    b = rng.normal(size=(7, d))
    cn = c / np.linalg.norm(c, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    hits = (cn @ bn.T >= 0.35).sum(axis=1)
    want = {i: int(h) for i, h in enumerate(hits) if h > 0}
    corpus2 = pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array([[float(x) for x in row] for row in c])})
    bench2 = pa.table({
        "vec_id": pa.array(range(7), pa.int64()),
        "embedding": pa.array([[float(x) for x in row] for row in b])})
    got = {r["vec_id"]: r["n_hits"] for r in semantic_contamination_hits(
        ray.data.from_arrow(corpus2), ray.data.from_arrow(bench2),
        threshold=0.35).take_all()}
    assert got == want
    got2 = {r["vec_id"]: r["n_hits"] for r in semantic_contamination_hits(
        _blocks(corpus2, 5),
        ray.data.from_arrow(bench2), threshold=0.35).take_all()}
    assert got2 == want


def test_semantic_decontam_fixture_gap_exceeds_float_rounding():
    """The driver's hash gate compares integer n_hits across engines;
    that is only stable if no (corpus, bench) cosine sits within
    cross-engine float rounding of the threshold.  Assert the minimum
    |cos - theta| gap on both test fixtures is >= 1e-5 (measured
    4e-5 / 1.1e-4), ~100x a float32-vs-float64 kernel discrepancy."""
    import numpy as np
    import pyarrow.parquet as pq

    from d1_log_aggregation_ray.pipelines.queries import _SEMDECON_T

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        t = pq.read_table(sf + "/embeddings.parquet")
        lab = np.asarray(t.column("label"))
        m = np.asarray(t.column("embedding").combine_chunks().flatten(),
                       dtype=np.float64).reshape(t.num_rows, -1)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = m[lab != 0] @ m[lab == 0].T
        assert float(np.abs(sims - _SEMDECON_T).min()) >= 1e-5


def test_source_overlap_planted_counts():
    """Planted duplicate prefixes: one prefix shared 2x2x1 across
    three sources plus a 3-copy run inside one source — count vectors,
    never pair expansion, must give exactly n_a*n_b / C(n,2)."""
    import pyarrow as pa
    import ray.data
    from d1_log_aggregation_ray.ops.dedup import source_overlap

    pref_a = "A" * 64
    pref_b = "B" * 64
    rows = (
        [("s1", pref_a + f"tail{i}") for i in range(2)]
        + [("s2", pref_a + f"x{i}") for i in range(2)]
        + [("s3", pref_a)]
        + [("s2", pref_b + f"y{i}") for i in range(3)]
        + [("s1", "unique text " + str(i)) for i in range(5)]
        + [(None, pref_a), ("s1", None)]   # dropped rows
    )
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "source": pa.array([s for s, _ in rows]),
        "text": pa.array([x for _, x in rows]),
    })
    got = {(r["src_a"], r["src_b"]): r["n_pairs"]
           for r in source_overlap(
               _blocks(t, 3)).take_all()}
    assert got == {
        ("s1", "s2"): 4,   # 2 x 2 on pref_a
        ("s1", "s3"): 2,   # 2 x 1
        ("s2", "s3"): 2,
        ("s1", "s1"): 1,   # C(2,2)=1 within s1 on pref_a
        ("s2", "s2"): 1 + 3,  # C(2,2) on pref_a + C(3,2) on pref_b
    }
