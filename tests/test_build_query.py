"""End-to-end build + query tests against an independent Python oracle."""

import json
import os
import re
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from groonga_ray import score as score_mod
from groonga_ray.build import BuildConfig, build_index
from groonga_ray.corpus import generate_code_corpus
from groonga_ray.index import IndexReader
from groonga_ray.search import MatchResult, op_and, op_and_not, op_or, term_match, top_k, wand_topk

N_ROWS = 1500
WORD = re.compile(r"[a-z0-9_]+")


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    corpus_dir = str(root / "corpus")
    files = generate_code_corpus(corpus_dir, n_rows=N_ROWS, n_files=4)
    index_dir = str(root / "index")
    cfg = BuildConfig(
        text_columns=("content",),
        n_buckets=8,
        chunk_postings=64,            # small chunks to exercise skip dirs
        hot_local_df=200,             # salt the keyword terms
        salt_group=1,                 # one salt per shard -> multiple parts
        target_rows_per_shard=400,    # several shards per file
    )
    meta = build_index(files, index_dir, cfg)
    return files, index_dir, cfg, meta


@pytest.fixture(scope="module")
def oracle(built):
    """Independent recount: per-term posting dict from the raw corpus."""
    files, *_ = built
    postings: dict[str, dict[int, list[int]]] = {}
    doclen: dict[int, int] = {}
    docid = 0
    rows = []
    for f in sorted(files):
        t = pq.read_table(f, columns=["repo", "path", "content"])
        rows.extend(zip(t.column("repo").to_pylist(), t.column("path").to_pylist(), t.column("content").to_pylist()))
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for repo, path, content in rows:
        docid += 1
        words = WORD.findall(content.lower())
        doclen[docid] = len(words)
        for p, w in enumerate(words):
            postings.setdefault(w, {}).setdefault(docid, []).append(p)
    return postings, doclen


def test_meta_counts(built):
    _, index_dir, _, meta = built
    assert meta["n_docs"] == N_ROWS
    st = meta["stats"]["sections"]["content"]
    assert st["n_docs"] == N_ROWS
    assert st["n_terms"] > 100


def test_postings_match_oracle(built, oracle):
    _, index_dir, cfg, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    # hot keyword, mid-df identifier, df=1 unique term
    for term in ["return", "def", "get_value", "uniq_00000042_42", "x", "y", "z"]:
        tid = si.term_id(term)
        want = postings.get(term)
        if want is None:
            assert tid is None, term
            continue
        assert tid is not None, term
        assert int(si.df[tid]) == len(want), term
        pl = si.postings(tid, with_positions=True)
        assert pl.docids.tolist() == sorted(want), term
        for j, d in enumerate(pl.docids.tolist()):
            got = pl.positions[pl.pos_offsets[j] : pl.pos_offsets[j + 1]].tolist()
            assert got == want[d], (term, d)


def test_hot_terms_salted(built):
    _, index_dir, cfg, _ = built
    r = IndexReader(index_dir)
    si = r.section("content")
    tid = si.term_id("return")
    rows = si.posting_rows(tid)
    assert len(rows) > 1, "hot term should be stored as multiple salted parts"
    # parts are docid-disjoint and ordered
    lasts = [max(row["clast"]) for row in rows]
    firsts = [row["cfirst"][0] for row in rows]
    assert all(lasts[i] < firsts[i + 1] for i in range(len(rows) - 1))


def test_posting_reads_are_term_pruned(built):
    """A single-term fetch must touch row groups covering that term, not
    whole buckets (bytes read scale with the term, not the corpus)."""
    import glob as _glob

    _, index_dir, _, _ = built
    r = IndexReader(index_dir)
    si = r.section("content")
    total_unc = 0
    for f in _glob.glob(os.path.join(index_dir, "sec=content", "postings", "bucket=*", "part.parquet")):
        meta = pq.ParquetFile(f).metadata
        total_unc += sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))
    tid = si.term_id("uniq_00000042_42")   # df=1 term
    si.posting_rows(tid)
    assert si.bytes_read > 0
    assert si.bytes_read < total_unc * 0.2, (si.bytes_read, total_unc)


def test_lexicon_reads_are_term_pruned(built):
    """A term lookup must fault in one lexicon shard's covering row
    group, not the vocabulary (lexicon bytes scale with terms touched)."""
    import glob as _glob

    _, index_dir, _, _ = built
    r = IndexReader(index_dir)
    si = r.section("content")
    total = 0
    for f in _glob.glob(os.path.join(index_dir, "sec=content", "lexicon", "bucket=*.parquet")):
        meta = pq.ParquetFile(f).metadata
        total += sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))
    tid = si.term_id("uniq_00000042_42")
    assert tid is not None
    assert int(si.df[tid]) == 1
    assert 0 < si.lex_bytes_read < total * 0.5, (si.lex_bytes_read, total)


def test_doclens_and_stats(built, oracle):
    _, index_dir, _, meta = built
    _, doclen = oracle
    r = IndexReader(index_dir)
    dl = r.doclens("content")
    for d in [1, 7, N_ROWS]:
        assert dl[d] == doclen[d]
    assert abs(r.avgdl("content") - np.mean(list(doclen.values()))) < 1e-6


def _bm25_oracle(postings, doclen, terms, n_docs, k=10):
    avgdl = np.mean(list(doclen.values()))
    scores: dict[int, float] = {}
    for t in terms:
        docs = postings.get(t, {})
        df = len(docs)
        if df == 0:
            continue
        for d, ps in docs.items():
            tf = np.array([len(ps)], np.float64)
            s = score_mod.bm25(tf, df, np.array([doclen[d]], np.float64), n_docs, avgdl)[0]
            scores[d] = scores.get(d, 0.0) + s
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return ranked


def test_bm25_single_term_topk(built, oracle):
    _, index_dir, _, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    for term in ["get_value", "parse_token", "def"]:
        if term not in postings:
            continue
        m = term_match(
            si, [(term, 0)], "bm25",
            n_docs=r.n_docs, avgdl=r.avgdl(), doclens=r.doclens(),
        )
        docids, scores = top_k(m, 10)
        want = _bm25_oracle(postings, doclen, [term], r.n_docs, 10)
        assert docids.tolist() == [d for d, _ in want], term
        np.testing.assert_allclose(scores, [s for _, s in want], rtol=1e-12)


def test_bm25_or_and_not(built, oracle):
    _, index_dir, _, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    kw = dict(n_docs=r.n_docs, avgdl=r.avgdl(), doclens=r.doclens())
    a = term_match(si, [("get_value", 0)], "bm25", **kw)
    b = term_match(si, [("set_index", 0)], "bm25", **kw)
    both = op_or(a, b)
    want = _bm25_oracle(postings, doclen, ["get_value", "set_index"], r.n_docs, 10)
    docids, scores = top_k(both, 10)
    assert docids.tolist() == [d for d, _ in want]

    inter = op_and(a, b)
    wa = set(postings["get_value"]) & set(postings["set_index"])
    assert set(inter.docids.tolist()) == wa

    diff = op_and_not(a, b)
    assert set(diff.docids.tolist()) == set(postings["get_value"]) - set(postings["set_index"])


def test_phrase_match(built, oracle):
    _, index_dir, _, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    # find a phrase that actually occurs: scan one doc's word stream
    files, *_ = built[:1]
    t = pq.read_table(sorted(built[0])[0], columns=["content"])
    words = WORD.findall(t.column("content")[0].as_py().lower())
    w1, w2 = words[3], words[4]
    m = term_match(
        si, [(w1, 0), (w2, 1)], "default",
        n_docs=r.n_docs, avgdl=r.avgdl(), doclens=r.doclens(),
    )
    # oracle: docs where w2 follows w1
    want = {}
    for d in set(postings[w1]) & set(postings[w2]):
        c = len(set(postings[w1][d]) & {p - 1 for p in postings[w2][d]})
        if c:
            want[d] = c
    assert dict(zip(m.docids.tolist(), m.scores.astype(int).tolist())) == want
    assert len(want) > 0


def test_prefix_and_escalation(built, oracle):
    _, index_dir, _, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    kw = dict(n_docs=r.n_docs, avgdl=r.avgdl(), doclens=r.doclens())
    # explicit prefix: uniq_000001* matches several unique terms
    m = term_match(si, [("uniq_000001", 0)], "default", prefix_last=True, **kw)
    want_docs = sorted(
        {d for t, ds in postings.items() if t.startswith("uniq_000001") for d in ds}
    )
    assert m.docids.tolist() == want_docs
    # zero-hit term escalates to prefix automatically (threshold 0)
    m2 = term_match(si, [("uniq_000001", 0)], "default", **kw)
    assert m2.docids.tolist() == want_docs


def test_wand_equals_exhaustive(built, oracle):
    _, index_dir, _, _ = built
    postings, doclen = oracle
    r = IndexReader(index_dir)
    si = r.section("content")
    kw = dict(n_docs=r.n_docs, avgdl=r.avgdl(), doclens=r.doclens())
    for terms, mode in [
        (["get_value", "set_index", "parse_token"], "or"),
        (["return", "def"], "or"),
        (["get_value", "return"], "and"),
    ]:
        terms = [t for t in terms if t in postings]
        ms = [term_match(si, [(t, 0)], "bm25", escalate=False, **kw) for t in terms]
        acc = ms[0]
        for m in ms[1:]:
            acc = (op_or if mode == "or" else op_and)(acc, m)
        want_d, want_s = top_k(acc, 10)
        got_d, got_s = wand_topk(
            si, terms, 10, "bm25", n_docs=r.n_docs, avgdl=r.avgdl(),
            doclens=r.doclens(), mode=mode,
        )
        assert got_d.tolist() == want_d.tolist(), (terms, mode)
        np.testing.assert_allclose(got_s, want_s, rtol=1e-12)


def test_resume_skips_and_identical(built, tmp_path):
    files, index_dir, cfg, meta = built
    # re-run: all shards must be skipped, meta identical counts
    meta2 = build_index(files, index_dir, cfg)
    assert meta2["n_docs"] == meta["n_docs"]
    man = json.load(open(os.path.join(index_dir, "sec=content", "runs", "shard=00000", "manifest.json")))
    assert man["fingerprint"]["config"] == cfg.fingerprint()

    # delete one shard's run + manifest → only that shard rebuilds, and
    # the final (per-bucket) lexicon is byte-identical
    def lex_bytes():
        import glob as _glob

        return [
            open(f, "rb").read()
            for f in sorted(
                _glob.glob(os.path.join(index_dir, "sec=content", "lexicon", "bucket=*.parquet"))
            )
        ]

    lex_before = lex_bytes()
    assert lex_before
    shutil.rmtree(os.path.join(index_dir, "sec=content", "runs", "shard=00001"))
    meta3 = build_index(files, index_dir, cfg)
    assert lex_bytes() == lex_before
    assert meta3["n_docs"] == meta["n_docs"]


def test_compute_rank_mapping(built):
    import duckdb

    from groonga_ray.docids import compute_rank_mapping

    files, *_ = built
    mapping = compute_rank_mapping(sorted(files), ["repo", "path"])
    got = mapping.to_pandas()
    want = duckdb.sql(
        f"""
        SELECT repo, path, row_number() OVER (ORDER BY repo, path) AS docid
        FROM read_parquet({sorted(files)!r}) ORDER BY repo, path
        """
    ).df()
    assert got["repo"].tolist() == want["repo"].tolist()
    assert got["path"].tolist() == want["path"].tolist()
    assert got["docid"].astype(int).tolist() == want["docid"].astype(int).tolist()


def test_sort_input_files_distributed(built, tmp_path):
    """Unsorted input -> sort_input_files -> build must equal the
    pre-sorted build (same lexicon/postings bytes, same stats): the
    distributed range-partitioned sort is the general-input docid path
    (VERDICT r2 item 5 — no driver-side key materialization)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from groonga_ray.docids import sort_input_files

    files, index_dir, cfg, meta = built
    # shuffle all rows into unsorted files (deterministic permutation)
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    rng = np.random.default_rng(7)
    perm = rng.permutation(tbl.num_rows)
    shuffled = tbl.take(pa.array(perm))
    unsorted_dir = tmp_path / "unsorted"
    unsorted_dir.mkdir()
    third = tbl.num_rows // 3
    for i in range(3):
        lo = i * third
        hi = tbl.num_rows if i == 2 else (i + 1) * third
        pq.write_table(shuffled.slice(lo, hi - lo), str(unsorted_dir / f"in-{i}.parquet"))

    out_dir = tmp_path / "sorted"
    sorted_files = sort_input_files(
        [str(unsorted_dir / f"in-{i}.parquet") for i in range(3)],
        ["repo", "path"],
        str(out_dir),
        n_ranges=5,
    )
    assert len(sorted_files) >= 1
    # global order across files == original sorted corpus order
    got = pa.concat_tables([pq.read_table(f, columns=["repo", "path"]) for f in sorted_files])
    want = tbl.select(["repo", "path"])
    order = pc.sort_indices(want, sort_keys=[("repo", "ascending"), ("path", "ascending")])
    want = want.take(order)
    assert got.column("repo").to_pylist() == want.column("repo").to_pylist()
    assert got.column("path").to_pylist() == want.column("path").to_pylist()

    # a build from the re-sorted files matches the pre-sorted build
    from groonga_ray.build import build_index as _build

    idx2 = str(tmp_path / "idx2")
    meta2 = _build(sorted_files, idx2, cfg)
    assert meta2["n_docs"] == meta["n_docs"]
    with open(os.path.join(index_dir, "stats.json")) as fh:
        s1 = json.load(fh)
    with open(os.path.join(idx2, "stats.json")) as fh:
        s2 = json.load(fh)
    for k in ("n_docs", "total_len"):
        assert s1.get(k) == s2.get(k), k


def test_sort_build_index_fused(built, tmp_path):
    """Fused sort+build (tokenize inside the sort's finalize tasks)
    must produce an index identical to sort_input_files -> build_index:
    same stats, same lexicon, same query results — and a rerun resumes
    (all manifests revalidate, no work repeated)."""
    import pyarrow as pa

    from groonga_ray.build import sort_build_index

    files, index_dir, cfg, meta = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    rng = np.random.default_rng(11)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    unsorted_dir = tmp_path / "unsorted"
    unsorted_dir.mkdir()
    half = tbl.num_rows // 2
    pq.write_table(shuffled.slice(0, half), str(unsorted_dir / "in-0.parquet"))
    pq.write_table(
        shuffled.slice(half, tbl.num_rows - half), str(unsorted_dir / "in-1.parquet")
    )

    sorted_dir = str(tmp_path / "fused_sorted")
    idx = str(tmp_path / "fused_idx")
    meta2 = sort_build_index(
        [str(unsorted_dir / "in-0.parquet"), str(unsorted_dir / "in-1.parquet")],
        ["repo", "path"],
        sorted_dir,
        idx,
        cfg,
    )
    assert meta2["n_docs"] == meta["n_docs"]
    with open(os.path.join(index_dir, "stats.json")) as fh:
        s1 = json.load(fh)
    with open(os.path.join(idx, "stats.json")) as fh:
        s2 = json.load(fh)
    assert s1 == s2

    # identical lexicon SEMANTICS (term/df/cf). The salt-part layout
    # (n_parts/parts/buckets) legitimately differs: it derives from
    # shard boundaries, which follow file boundaries, and the fused
    # sort writes range-sized files rather than the fixture's 4
    import glob as _glob
    import pyarrow.compute as _pcc

    def lex_semantics(d):
        t = pa.concat_tables(
            pq.read_table(f, columns=["term", "df", "cf"])
            for f in sorted(_glob.glob(os.path.join(d, "sec=content", "lexicon", "bucket=*.parquet")))
        )
        return t.take(_pcc.sort_indices(t, sort_keys=[("term", "ascending")]))

    assert lex_semantics(index_dir).equals(lex_semantics(idx))

    # identical query results through the engine
    from groonga_ray.engine import IndexedTable, select

    sorted_files = sorted(
        os.path.join(sorted_dir, f)
        for f in os.listdir(sorted_dir)
        if f.endswith(".parquet")
    )
    r1 = select(
        IndexedTable(index_dir, sorted(files)),
        query="query", match_columns="content", limit=10, sortby="-_score,_id",
        output_columns=("_id", "_score"),
    )["rows"]
    r2 = select(
        IndexedTable(idx, sorted_files),
        query="query", match_columns="content", limit=10, sortby="-_score,_id",
        output_columns=("_id", "_score"),
    )["rows"]
    assert r1.column("_id").to_pylist() == r2.column("_id").to_pylist()
    assert r1.column("_score").to_pylist() == r2.column("_score").to_pylist()

    # rerun = pure resume: marker + manifests revalidate
    meta3 = sort_build_index(
        [str(unsorted_dir / "in-0.parquet"), str(unsorted_dir / "in-1.parquet")],
        ["repo", "path"],
        sorted_dir,
        idx,
        cfg,
    )
    assert meta3["n_docs"] == meta2["n_docs"]
    assert meta3["timings"]["fused_sort_tokenize_sec"] < 2.0  # skipped, not re-sorted


def test_sort_build_index_partial_resume(built, tmp_path):
    """Resume from artifact damage at two points of the fused path:
    (a) a shard-run manifest vanishes (kill between range write and
    tokenize) -> only that shard re-tokenizes from the written range
    file; (b) a sorted range file AND the sort markers vanish -> the
    scatter re-runs and the index still converges to the same stats."""
    import glob as _glob
    import shutil

    import pyarrow as pa

    from groonga_ray.build import sort_build_index

    files, _, cfg, _ = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    rng = np.random.default_rng(17)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    u = tmp_path / "u"
    u.mkdir()
    pq.write_table(shuffled, str(u / "in.parquet"))
    sorted_dir, idx = str(tmp_path / "s"), str(tmp_path / "i")

    meta1 = sort_build_index([str(u / "in.parquet")], ["repo", "path"], sorted_dir, idx, cfg)
    with open(os.path.join(idx, "stats.json")) as fh:
        stats1 = json.load(fh)

    # (a) drop one shard-run manifest: rerun rebuilds just that shard
    mans = sorted(_glob.glob(os.path.join(
        _runs_base_of(cfg, idx), "sec=content", "runs", "shard=*", "manifest.json")))
    assert mans
    os.unlink(mans[0])
    meta2 = sort_build_index([str(u / "in.parquet")], ["repo", "path"], sorted_dir, idx, cfg)
    assert meta2["n_docs"] == meta1["n_docs"]
    with open(os.path.join(idx, "stats.json")) as fh:
        assert json.load(fh) == stats1

    # (b) drop a sorted range file + both sort markers: full re-sort,
    # same final stats
    sf = sorted(_glob.glob(os.path.join(sorted_dir, "sorted-*.parquet")))
    os.unlink(sf[0])
    for m in ("sort.done.json",):
        p = os.path.join(sorted_dir, m)
        if os.path.exists(p):
            os.unlink(p)
    shutil.rmtree(os.path.join(sorted_dir, "_sort_runs"), ignore_errors=True)
    meta3 = sort_build_index([str(u / "in.parquet")], ["repo", "path"], sorted_dir, idx, cfg)
    assert meta3["n_docs"] == meta1["n_docs"]
    with open(os.path.join(idx, "stats.json")) as fh:
        assert json.load(fh) == stats1


def test_sort_build_index_rescatter_drops_stale_ranges(built, tmp_path):
    """A fresh scatter (no valid sort markers) must not keep a leftover
    sorted range file because its row count matches the new plan: input
    rewritten under the same name and row count, with a term only the
    new text has, is searchable after the rebuild."""
    import shutil

    import pyarrow as pa

    from groonga_ray.build import sort_build_index
    from groonga_ray.engine import IndexedTable, select

    files, _, cfg, _ = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    u = tmp_path / "u"
    u.mkdir()
    src = str(u / "in.parquet")
    pq.write_table(tbl, src)
    sorted_dir, idx = str(tmp_path / "s"), str(tmp_path / "i")
    sort_build_index([src], ["repo", "path"], sorted_dir, idx, cfg)

    os.unlink(os.path.join(sorted_dir, "sort.done.json"))
    shutil.rmtree(os.path.join(sorted_dir, "_sort_runs"), ignore_errors=True)
    content = tbl.column("content").to_pylist()
    content[7] += " zzfreshterm"
    i = tbl.column_names.index("content")
    pq.write_table(tbl.set_column(i, "content", pa.array(content)), src)
    meta = sort_build_index([src], ["repo", "path"], sorted_dir, idx, cfg)
    assert meta["n_docs"] == tbl.num_rows

    sorted_files = [os.path.join(sorted_dir, f) for f in meta["sorted_files"]]
    res = select(
        IndexedTable(idx, sorted_files), query="zzfreshterm",
        match_columns="content", output_columns=("_id",),
    )
    assert res["hits"] == 1


def _runs_base_of(cfg, index_dir):
    from groonga_ray.build import runs_base

    return runs_base(cfg, index_dir)


def test_sort_build_index_multi_section(built, tmp_path):
    """Fused path with TWO text sections: per-section runs/doclens/
    lexicons all built from the same in-memory range slices."""
    import pyarrow as pa

    from dataclasses import replace

    from groonga_ray.build import sort_build_index
    from groonga_ray.engine import IndexedTable, select

    files, _, cfg, _ = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    # second section derived from path so content is deterministic
    tbl = tbl.append_column(
        "title", tbl.column("path").cast(pa.large_string())
    )
    rng = np.random.default_rng(5)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    unsorted_dir = tmp_path / "u"
    unsorted_dir.mkdir()
    pq.write_table(shuffled, str(unsorted_dir / "in.parquet"))

    cfg2 = replace(cfg, text_columns=("content", "title"))
    idx = str(tmp_path / "idx2sec")
    meta = sort_build_index(
        [str(unsorted_dir / "in.parquet")], ["repo", "path"],
        str(tmp_path / "s"), idx, cfg2,
    )
    assert set(meta["sections"]) == {"content", "title"}
    assert meta["stats"]["sections"]["title"]["n_docs"] == tbl.num_rows
    sorted_files = sorted(
        str(p) for p in (tmp_path / "s").glob("sorted-*.parquet")
    )
    t = IndexedTable(idx, sorted_files)
    # title section indexes the path strings; query one back
    some_path = tbl.column("path")[0].as_py()
    token = some_path.split("/")[-1].split(".")[0]
    res = select(t, query=token, match_columns="title", limit=5)
    assert res["hits"] >= 1


def test_sort_input_files_int_key(ray_session, tmp_path):
    """Numeric sort keys (e.g. doc_id) must range-sort correctly: the
    composite key encodes ints/floats order-preservingly (8-byte
    big-endian, sign flipped) — regression: int64 keys crashed the
    text-only cast."""
    import pyarrow as pa

    from groonga_ray.docids import sort_input_files

    rng = np.random.default_rng(21)
    ids = rng.permutation(5000).astype(np.int64) - 2500  # negatives too
    tbl = pa.table({"doc_id": pa.array(ids), "text": pa.array([f"t{i}" for i in ids])})
    src = tmp_path / "u.parquet"
    pq.write_table(tbl, str(src))
    out = sort_input_files([str(src)], ["doc_id"], str(tmp_path / "s"), n_ranges=7)
    got = pa.concat_tables([pq.read_table(f, columns=["doc_id"]) for f in out])
    vals = got.column("doc_id").to_pylist()
    assert vals == sorted(ids.tolist())


def test_scatter_orphan_runs_cleared(ray_session, tmp_path):
    """A kill mid-scatter leaves run files WITHOUT a marker; the rerun
    must clear them before re-scattering (regression: they were kept,
    double-counting their rows into the sorted output)."""
    import pyarrow as pa

    from groonga_ray.docids import sort_input_files

    tbl = pa.table({
        "k": pa.array([f"key{i:04d}" for i in np.random.default_rng(3).permutation(2000)]),
        "v": pa.array(np.arange(2000, dtype=np.int64)),
    })
    src = tmp_path / "in.parquet"
    pq.write_table(tbl, str(src))
    out_dir = tmp_path / "sorted"
    runs_dir = out_dir / "_sort_runs"
    runs_dir.mkdir(parents=True)
    # orphan run from a "killed" prior attempt: a full duplicate
    # scatter batch, bucket-tagged like the real one — and NO marker
    from groonga_ray.build import _write_run_bucket_rowgroups

    orphan = tbl.append_column("bucket", pa.array(np.zeros(2000, np.uint32)))
    _write_run_bucket_rowgroups(orphan, str(runs_dir / "run-orphan.parquet"))

    files = sort_input_files([str(src)], ["k"], str(out_dir), n_ranges=4)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 2000  # orphan rows must NOT leak in


def test_scatter_resume_checks_its_run_files(ray_session, tmp_path):
    """A run file lost after a completed scatter must not be resumed
    past: the marker's run list no longer matches, so the rerun
    re-scatters (regression: the resume listed whatever run files were
    left and silently dropped the lost file's rows)."""
    import pyarrow as pa

    from groonga_ray.docids import _scatter_to_runs

    tbl = pa.table({
        "k": pa.array([f"key{i:04d}" for i in np.random.default_rng(5).permutation(3000)]),
        "v": pa.array(np.arange(3000, dtype=np.int64)),
    })
    src = tmp_path / "in.parquet"
    pq.write_table(tbl, str(src))
    runs_dir = str(tmp_path / "runs")

    def run_rows(files):
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files)

    # 1 KB batches: one scatter batch per 1,024 rows, so several runs
    first = _scatter_to_runs([str(src)], ["k"], runs_dir, n_ranges=4, target_batch_bytes=1024)
    assert not first["resumed"] and len(first["run_files"]) >= 2
    assert run_rows(first["run_files"]) == 3000

    again = _scatter_to_runs([str(src)], ["k"], runs_dir, n_ranges=4, target_batch_bytes=1024)
    assert again["resumed"] and again["run_files"] == first["run_files"]

    os.unlink(first["run_files"][0])
    sc = _scatter_to_runs([str(src)], ["k"], runs_dir, n_ranges=4, target_batch_bytes=1024)
    assert not sc["resumed"]
    assert run_rows(sc["run_files"]) == 3000 == int(sc["range_counts"].sum())


def test_sort_build_index_resumes_a_finished_scatter(built, tmp_path, monkeypatch):
    """A kill after the scatter but before every range file is written
    leaves the runs and their marker: the rerun reuses them (no second
    scatter) and writes the missing range file from them."""
    import glob as _glob
    import shutil

    import pyarrow as pa

    import groonga_ray.docids as docids_mod
    from groonga_ray.build import sort_build_index

    files, _, cfg, _ = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    shuffled = tbl.take(pa.array(np.random.default_rng(23).permutation(tbl.num_rows)))
    u = tmp_path / "u"
    u.mkdir()
    pq.write_table(shuffled, str(u / "in.parquet"))
    sorted_dir, idx = str(tmp_path / "s"), str(tmp_path / "i")

    # keep the runs that a finished sort would delete
    rmtree = shutil.rmtree
    monkeypatch.setattr(
        shutil, "rmtree",
        lambda p, *a, **k: None if str(p).endswith("_sort_runs") else rmtree(p, *a, **k),
    )
    meta1 = sort_build_index([str(u / "in.parquet")], ["repo", "path"], sorted_dir, idx, cfg)
    with open(os.path.join(idx, "stats.json")) as fh:
        stats1 = json.load(fh)
    os.unlink(os.path.join(sorted_dir, "sort.done.json"))
    sf = sorted(_glob.glob(os.path.join(sorted_dir, "sorted-*.parquet")))
    os.unlink(sf[0])

    calls = []
    scatter = docids_mod._scatter_to_runs
    monkeypatch.setattr(
        docids_mod, "_scatter_to_runs",
        lambda *a, **k: calls.append(scatter(*a, **k)) or calls[-1],
    )
    meta2 = sort_build_index([str(u / "in.parquet")], ["repo", "path"], sorted_dir, idx, cfg)
    assert [c["resumed"] for c in calls] == [True]
    assert os.path.exists(sf[0])
    assert meta2["n_docs"] == meta1["n_docs"]
    with open(os.path.join(idx, "stats.json")) as fh:
        assert json.load(fh) == stats1


def test_composite_key_uint64_and_nulls(tmp_path):
    """uint64 keys >= 2^63 must sort AFTER small values (regression:
    int64 routing wrapped them below zero); numeric null keys raise."""
    import pyarrow as pa
    import pytest as _pytest

    from groonga_ray.docids import _composite_key

    t = pa.table({"k": pa.array([2**63 + 5, 0, 2**63, 7], pa.uint64())})
    keys = _composite_key(t, ["k"]).to_pylist()
    order = sorted(range(4), key=lambda i: keys[i])
    assert order == [1, 3, 2, 0]  # 0, 7, 2^63, 2^63+5

    tn = pa.table({"k": pa.array([1, None, 3], pa.int64())})
    with _pytest.raises(ValueError, match="null"):
        _composite_key(tn, ["k"])


def test_cli_build_sort_by(built, tmp_path):
    """CLI surface of the fused path: ``build --sort-by`` on unsorted
    input produces a queryable index (subprocess, owns its session)."""
    import subprocess
    import sys

    import pyarrow as pa

    files, _, _, _ = built
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(files)])
    rng = np.random.default_rng(13)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    src = tmp_path / "unsorted.parquet"
    pq.write_table(shuffled, str(src))
    idx = tmp_path / "cli_idx"
    r = subprocess.run(
        [sys.executable, "-m", "groonga_ray.cli", "build",
         "--index", str(idx), "--columns", "content",
         "--sort-by", "repo,path", "--buckets", "8",
         "--rows-per-shard", "400", "--num-cpus", "2", str(src)],
        input=None, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    meta = json.loads(r.stdout)
    assert meta["n_docs"] == tbl.num_rows
    assert (idx / "_sorted").is_dir()


def test_auto_rows_per_shard_from_metadata(tmp_path):
    """target_rows_per_shard=None derives the shard size from parquet
    footer statistics at the ~TARGET_SHARD_TEXT_BYTES text budget."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from groonga_ray.build import TARGET_SHARD_TEXT_BYTES, auto_rows_per_shard

    # ~6 KB of text per row -> expect ~ TARGET/6KB rows, clamped
    text = "word " * 1200
    t = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                  "content": pa.array([text] * 100)})
    f = str(tmp_path / "t.parquet")
    pq.write_table(t, f)
    rows = auto_rows_per_shard([f], ("content",))
    per_row = len(text)
    expect = TARGET_SHARD_TEXT_BYTES / per_row
    assert 0.5 * expect <= rows <= 2 * expect
    # tiny rows clamp at the 65536 ceiling
    t2 = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                   "content": pa.array(["ab"] * 100)})
    f2 = str(tmp_path / "t2.parquet")
    pq.write_table(t2, f2)
    assert auto_rows_per_shard([f2], ("content",)) == 65536


def test_auto_n_buckets_tracks_corpus_size(tmp_path):
    """n_buckets=None derives the bucket count so postings/bucket stays
    ~TARGET_BUCKET_POSTINGS; small corpora clamp at the 16 floor."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from groonga_ray.build import TARGET_BUCKET_POSTINGS, auto_n_buckets

    t = pa.table({"content": pa.array(["alpha beta gamma"] * 50)})
    f = str(tmp_path / "small.parquet")
    pq.write_table(t, f)
    assert auto_n_buckets([f], ("content",)) == 16

    # ~6 KB of text/row x 200k rows (one row group sampled, total rows
    # from metadata) -> ~200M postings -> ~16 buckets x 16M... scale up:
    text = "word " * 1200
    big = pa.table({"content": pa.array([text] * 2000)})
    fb = str(tmp_path / "big.parquet")
    pq.write_table(big, fb)
    # duplicate metadata rows by listing the file many times
    n = auto_n_buckets([fb] * 400, ("content",))
    est = 400 * 2000 * len(text) / 6.0 / TARGET_BUCKET_POSTINGS
    assert n & (n - 1) == 0           # power of two
    assert est / 4 <= n <= est * 4    # tracks the corpus estimate


def test_build_with_auto_buckets(ray_session, tmp_path):
    """End-to-end build with n_buckets=None (derived)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from groonga_ray.build import BuildConfig, build_index
    from groonga_ray.engine import IndexedTable, select

    t = pa.table({
        "doc_id": pa.array(range(1, 41), pa.int64()),
        "text": pa.array([f"spark window doc{i}" for i in range(40)]),
    })
    f = str(tmp_path / "docs.parquet")
    pq.write_table(t, f)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(text_columns=("text",), docid_column="doc_id",
                      n_buckets=None, target_rows_per_shard=16)
    meta = build_index([f], idx, cfg)
    assert meta["config"]["n_buckets"] == 16   # floor clamp
    res = select(IndexedTable(idx, [f], "doc_id"),
                 query="spark", match_columns="text", limit=-1)
    assert res["hits"] == 40
