"""BoundedCache (the one read-path cache) and reader freshness: LRU
order, item/byte bounds, counters, exact byte accounting under
concurrent use, a reader shared by many threads, and readers reopened
when the index on disk changes."""

import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from groonga_ray.build import BuildConfig, build_index, compact_index, delete_documents
from groonga_ray.cache import BoundedCache, file_stamp
from groonga_ray.engine import IndexedTable, select
from groonga_ray.index import MultiSectionIndex, open_index


def test_lru_order_and_item_bound():
    c = BoundedCache(max_items=3)
    for k in "abc":
        c.put(k, k.upper())
    assert c.get("a") == "A"             # a is now most recent
    c.put("d", "D")                      # evicts b, the least recent
    assert c.get("b") is None and len(c) == 3
    assert [c.get(k) for k in "acd"] == ["A", "C", "D"]
    assert c.stats()["evictions"] == 1


def test_byte_bound_and_too_large_entries():
    c = BoundedCache(max_bytes=100, sizeof=len)
    c.put("big", b"x" * 26)              # > max_bytes // 4: not stored
    assert c.get("big") is None and c.bytes == 0
    for i in range(5):
        c.put(i, b"x" * 25)
    assert c.bytes == 100 and len(c) == 4 and c.get(0) is None
    c.put(9, b"x" * 10)                  # evicts 1 (least recent) to fit
    assert c.bytes == 85 and c.get(1) is None


def test_replacing_a_key_corrects_bytes():
    c = BoundedCache(max_bytes=1000, sizeof=len)
    c.put("k", b"x" * 200)
    c.put("k", b"x" * 50)
    assert c.bytes == 50 and len(c) == 1
    c.put("k", b"x" * 300)               # too large now: the old entry goes too
    assert c.bytes == 0 and c.get("k") is None
    c.put("k", b"x" * 40)
    assert c.pop("k") == b"x" * 40 and c.bytes == 0
    assert c.pop("k", "gone") == "gone"


def test_counters_get_or_load_and_shrinking():
    c = BoundedCache(max_items=10)
    loads = []
    for k in [1, 2, 1, 1, 3]:                # loads.append returns None: a cached None
        assert c.get_or_load(k, loads.append) is None
    assert loads == [1, 2, 3]
    assert c.stats() == {"items": 3, "bytes": 0, "hits": 2, "misses": 3, "evictions": 0}
    c.max_items = 1                      # shrinking evicts at once
    assert len(c) == 1 and c.stats()["evictions"] == 2
    assert c.get_or_load(3, loads.append) is None and loads == [1, 2, 3]
    c.max_items = 0
    c.put(4, "v")
    assert len(c) == 0


def test_stamp_mismatch_reloads():
    c = BoundedCache(max_items=4)
    assert c.get_or_load("p", lambda k: k + "1", stamp=1) == "p1"
    assert c.get_or_load("p", lambda k: k + "2", stamp=1) == "p1"
    assert c.get_or_load("p", lambda k: k + "3", stamp=2) == "p3"
    assert len(c) == 1 and c.stats()["misses"] == 2


def test_file_stamp(tmp_path):
    p = tmp_path / "f"
    assert file_stamp(str(p)) is None
    p.write_bytes(b"abc")
    st = file_stamp(str(p))
    assert st[2] == 3
    tmp = tmp_path / "g"
    tmp.write_bytes(b"xyz")
    tmp.replace(p)                       # same size, new inode
    assert file_stamp(str(p)) != st


def test_eight_thread_hammer_keeps_bytes_exact():
    c = BoundedCache(max_bytes=4096, sizeof=len)
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(5000):
                k = int(rng.integers(200))
                op = rng.integers(4)
                if op == 0:
                    c.put(k, b"x" * int(rng.integers(1, 1024)))
                elif op == 1:
                    c.get_or_load(k, lambda key: b"y" * (key % 700 + 1))
                elif op == 2:
                    c.pop(k)
                else:
                    c.get(k)
        except Exception as e:            # noqa: BLE001 — reported below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    assert c.bytes == sum(len(v) for v in c.values()) <= 4096


# ------------------------------------------------------------ readers

def _corpus(path, n_docs, vocab, seed):
    rng = np.random.default_rng(seed)
    # Zipf-like term draw: a few long posting lists, many short ones
    p = 1.0 / np.arange(1, vocab + 1)
    words = rng.choice(vocab, size=(n_docs, 30), p=p / p.sum())
    text = [" ".join(f"w{w}" for w in row) for row in words]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(1, n_docs + 1), pa.int64()), "text": text}),
        path,
    )


CFG = BuildConfig(
    text_columns=("text",), docid_column="doc_id", n_buckets=4, target_rows_per_shard=500,
)


@pytest.fixture(scope="module")
def zipf_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("zipf")
    src = str(root / "docs.parquet")
    _corpus(src, 1500, 3000, seed=11)
    idx = str(root / "idx")
    build_index([src], idx, CFG)
    return IndexedTable(idx, [src], "doc_id")


QUERIES = [
    "w1", "w2 OR w40", "w3 w7", '"w1 w2"', "w12*", "w100 OR w250 OR w999",
    "w5 -w6", "w2999", "w0 OR w8", '"w4 w0"', "w33*", "w17 w18",
]


def _answer(table, q):
    r = select(table, query=q, match_columns="text", output_columns=("_id", "_score"), limit=10)
    return r["hits"], r["rows"].to_pylist()


def _section_indexes(reader):
    s = reader.section("text")
    return s.subs if isinstance(s, MultiSectionIndex) else [s]


def test_shared_reader_under_eight_threads(zipf_index):
    table = zipf_index
    open_index.cache_clear()
    reader = open_index(table.index_dir)
    for si in _section_indexes(reader):   # force constant eviction
        si.caches["postings"].max_bytes = 16 << 10
        si.caches["posting_row_groups"].max_items = 2
        si.caches["term_ids"].max_items = 8
    expected = {q: _answer(table, q) for q in QUERIES}
    per_thread = 250                       # 8 x 250 = 2,000 selects
    errors, mismatches = [], []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for i in rng.integers(len(QUERIES), size=per_thread):
                q = QUERIES[int(i)]
                if _answer(table, q) != expected[q]:
                    mismatches.append(q)
        except Exception as e:            # noqa: BLE001 — reported below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    assert not mismatches, mismatches[:3]
    assert open_index(table.index_dir) is reader
    for si in _section_indexes(reader):
        pl = si.caches["postings"]
        assert pl.stats()["evictions"] > 0
        assert pl.bytes == sum(
            p.docids.nbytes + p.tfs.nbytes
            + (p.positions.nbytes + p.pos_offsets.nbytes if p.positions is not None else 0)
            for p in pl.values()
        ) <= 16 << 10


def test_rebuild_in_place_is_seen_without_clearing(ray_session, tmp_path):
    """build_index into an existing directory: the next select sees
    the new corpus (the meta.json rewrite moves the index stamp)."""
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                             "text": ["alpha one", "alpha two", "gamma"]}), a)
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                             "text": ["beta one", "beta two", "beta three", "alpha", "x"]}), b)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(text_columns=("text",), docid_column="doc_id", n_buckets=2,
                      target_rows_per_shard=10)
    build_index([a], idx, cfg)
    ta = IndexedTable(idx, [a], "doc_id")
    assert select(ta, query="alpha", match_columns="text")["hits"] == 2
    assert select(ta, query="beta", match_columns="text")["hits"] == 0
    assert open_index(idx).n_docs == 3

    build_index([b], idx, cfg)
    tb = IndexedTable(idx, [b], "doc_id")
    assert open_index(idx).n_docs == 5
    assert select(tb, query="beta", match_columns="text")["hits"] == 3
    assert select(tb, query="alpha", match_columns="text")["hits"] == 1


def test_delete_then_compact_is_seen_without_a_select_between(ray_session, tmp_path):
    """delete_documents then compact_index with no select in between:
    the tombstone file comes and goes, but compaction rewrites
    meta.json, so the index stamp never returns to the reader's."""
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                             "text": ["alpha one", "alpha two", "alpha three", "gamma"]}), src)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(text_columns=("text",), docid_column="doc_id", n_buckets=2,
                      target_rows_per_shard=2)
    build_index([src], idx, cfg)
    table = IndexedTable(idx, [src], "doc_id")
    before = open_index(idx)
    assert select(table, query="alpha", match_columns="text")["hits"] == 3

    delete_documents(idx, [1, 3])
    compact_index(idx)
    assert open_index(idx) is not before
    r = select(table, query="alpha", match_columns="text", output_columns=("_id",))
    assert r["hits"] == 1
    assert r["rows"].column("_id").to_pylist() == [2]
