"""Tests of the benchmark's own parts: the oracle, the corpus generator
and the tracing wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import corpus  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import Tracer  # noqa: E402

# (repo, path, content) in an order that is NOT (repo, path) order
TINY = [
    ("b", "x.py", "foo"),
    ("a", "2.py", "bar, BAR baz! café"),
    ("a", "1.py", "Foo bar foo_bar"),
]


@pytest.fixture()
def tiny(tmp_path):
    path = str(tmp_path / "tiny.parquet")
    pq.write_table(pa.table({
        "repo": [r for r, _, _ in TINY], "path": [p for _, p, _ in TINY],
        "commit": ["0" * 40] * 3, "lang": ["python"] * 3, "content": [c for _, _, c in TINY],
    }), path)
    o = Oracle([path], threads=1)
    yield o
    o.close()


def bm25(tf, df, dl, n, avgdl, k1=1.2, b=0.75):
    idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
    return idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))


def test_oracle_counts_by_hand(tiny):
    # docids by (repo, path): a/1.py=1, a/2.py=2, b/x.py=3
    # tokens: [foo, bar, foo_bar], [bar, bar, baz, caf], [foo]
    assert tiny.n_docs == 3
    assert tiny.total_tokens == 8
    assert tiny.avgdl == pytest.approx(8 / 3, rel=1e-15)
    assert tiny.n_terms == 5
    assert tiny.df(["foo", "bar", "foo_bar", "baz", "caf", "café", "nope"]) == {
        "foo": 2, "bar": 2, "foo_bar": 1, "baz": 1, "caf": 1, "café": 0, "nope": 0,
    }


def test_oracle_bm25_by_hand(tiny):
    avgdl = 8 / 3
    (r_or, r_and) = tiny.bm25_topk([("or", ["bar", "foo"]), ("and", ["bar", "foo"])], 10)
    s1 = bm25(1, 2, 3, 3, avgdl) + bm25(1, 2, 3, 3, avgdl)      # doc 1: bar + foo
    s2 = bm25(2, 2, 4, 3, avgdl)                                 # doc 2: bar twice
    s3 = bm25(1, 2, 1, 3, avgdl)                                 # doc 3: foo, short
    want = sorted([(1, s1), (2, s2), (3, s3)], key=lambda x: (-x[1], x[0]))
    assert r_or["hits"] == 3
    assert [d for d, _ in r_or["top"]] == [d for d, _ in want]
    for (_, got), (_, exp) in zip(r_or["top"], want):
        assert got == pytest.approx(exp, rel=1e-12)
    assert r_and["hits"] == 1 and r_and["top"][0][0] == 1


def test_oracle_phrases_and_prefixes(tiny):
    assert tiny.phrase_docs([("foo", "bar"), ("bar", "baz"), ("baz", "bar")]) == [{1}, {2}, set()]
    assert tiny.prefixes(10, 0, 1, 10) == [("foo_b", 1)]


def test_generator_depends_only_on_seed(tmp_path):
    a = corpus.generate(5, 300, n_terms=5000)
    b = corpus.generate(5, 300, n_terms=5000)
    c = corpus.generate(6, 300, n_terms=5000)
    assert a.equals(b)
    assert not a.equals(c)
    pa_, pb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    corpus.write(a, pa_)
    corpus.write(b, pb)
    assert pq.read_table(pa_).equals(pq.read_table(pb))
    assert "fid" not in pq.read_table(pa_).column_names


def test_generator_shape(tmp_path):
    t = corpus.generate(3, 2000, n_terms=20000)
    keys = list(zip(t.column("repo").to_pylist(), t.column("path").to_pylist()))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    fids = t.column("fid").to_pylist()
    assert len(set(fids)) == len(fids)
    path = str(tmp_path / "c.parquet")
    corpus.write(t, path)
    o = Oracle([path], threads=1)
    try:
        # each file identifier occurs in exactly its own file
        assert set(o.df(fids[:50]).values()) == {1}
        # df spans 1 to about N
        top = o.con.execute("SELECT max(df), min(df) FROM lex").fetchone()
        assert top[0] >= 0.9 * o.n_docs and top[1] == 1
        assert o.terms_in_band(10, 99, 5, 0)  # a populated middle band
        # prefixes expand to many terms
        n = o.con.execute("SELECT count(*) FROM lex WHERE starts_with(term, 'get_')").fetchone()[0]
        assert n >= 20
        # some non-ASCII text, split by the tokenizer rule
        assert o.con.execute("SELECT count(*) FROM docs WHERE list_contains(toks, 'caf')").fetchone()[0] > 0
    finally:
        o.close()


def test_tracer_spans_and_unwrap():
    class Layer:
        def work(self, x):
            return x * 2

    tr = Tracer()
    orig = Layer.work
    tr.wrap(Layer, "work", "layer.work")
    assert Layer().work(2) == 4 and not tr.spans            # disabled: nothing kept
    tr.enabled = True
    with tr.span("root", request=True):
        assert Layer().work(3) == 6
    assert [s[1] for s in tr.spans] == ["layer.work", "root"]
    child, root = tr.spans
    assert child[4] == root[0] and child[5] == root[5]
    assert 0.0 < tr.coverage({"root"}) <= 1.0
    tr.unwrap_all()
    assert Layer.work is orig


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    ray = pytest.importorskip("ray")
    d = tmp_path_factory.mktemp("idx")
    path = str(d / "c000.parquet")
    data = corpus.generate(9, 600, n_terms=8000)
    corpus.write(data, path)
    started = not ray.is_initialized()
    if started:
        ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from groonga_ray.build import BuildConfig, build_index

    idx = str(d / "idx")
    build_index([path], idx, BuildConfig(text_columns=("content",), n_buckets=4,
                                         target_rows_per_shard=200))
    yield path, idx, data
    if started:
        ray.shutdown()


def test_wrappers_leave_outputs_unchanged(small_index):
    import workloads as W
    from groonga_ray import codec, engine
    from groonga_ray.engine import IndexedTable, select
    from groonga_ray.index import SectionIndex, open_index

    path, idx, data = small_index
    fids = data.column("fid").to_pylist()
    queries = [
        (fids[7], "content"), ("self OR return", W.BM25_COLUMNS), ('"self return"', "content"),
        ("get_*", "content"), ("if def", W.BM25_COLUMNS),
    ]

    def answers():
        open_index.cache_clear()
        table = IndexedTable(idx, [path])
        out = []
        for q, mc in queries:
            r = select(table, query=q, match_columns=mc, output_columns=("_id", "_score", "path"), limit=10)
            out.append((r["hits"], r["rows"].to_pylist()))
        return out

    plain = answers()
    originals = (codec.decode_postings, SectionIndex.postings, engine.top_k, engine.fetch_docs)
    tr = Tracer()
    W.install_query_wrappers(tr)
    try:
        tr.enabled = True
        traced = answers()
    finally:
        tr.unwrap_all()
    assert traced == plain
    assert tr.total("index.posting_fetch") > 0 and tr.counters["codec.postings_decoded"] > 0
    assert (codec.decode_postings, SectionIndex.postings, engine.top_k, engine.fetch_docs) == originals
    assert answers() == plain


def test_bm25_check_pairs_ids_with_scores():
    import workloads as W

    q = W.Query("bm25", "a OR b", W.BM25_COLUMNS, {"hits": 3, "top": [(4, 3.0), (2, 2.0), (9, 1.0)]})

    def res(ids, scores):
        return {"hits": 3, "rows": pa.table({"_id": ids, "_score": scores})}

    W.check_select(q, res([4, 2, 9], [3.0, 2.0, 1.0]))
    with pytest.raises(W.CheckFailed):         # ids with each other's scores
        W.check_select(q, res([2, 4, 9], [3.0, 2.0, 1.0]))
    # an id outside the oracle's top 3 passes only tied with the 3rd
    W.check_select(q, res([4, 2, 7], [3.0, 2.0, 1.0]))
