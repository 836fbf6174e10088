"""Batch query evaluation (per-process QueryEngine) + v1 envelope output."""

import pyarrow as pa
import pytest

from groonga_ray.build import BuildConfig, build_index
from groonga_ray.engine import IndexedTable, run_query_batch, select, select_v1

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def doc_table(ray_session, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("qbidx"))
    files = [f"{SF}/documents.parquet"]
    cfg = BuildConfig(text_columns=("text",), docid_column="doc_id",
                      n_buckets=8, target_rows_per_shard=200)
    build_index(files, index_dir, cfg)
    return IndexedTable(index_dir, files, "doc_id")


def test_run_query_batch_matches_select(doc_table):
    queries = pa.table(
        {
            "qid": pa.array([1, 2, 3], pa.int64()),
            "query": pa.array(["spark OR window", "fast +scan", '"spark window"']),
            "match_columns": pa.array(["text"] * 3),
            "scorer": pa.array(["bm25", "default", "default"]),
            "top_k": pa.array([5, 5, 5], pa.int64()),
        }
    )
    out = run_query_batch(doc_table, queries).to_pandas()
    for qid, q, sc in [(1, "spark OR window", "bm25"), (2, "fast +scan", "default"),
                       (3, '"spark window"', "default")]:
        sub = out[out.qid == qid].sort_values("rank")
        res = select(doc_table, query=q, match_columns="text", scorer=sc, limit=5)
        assert sub["doc_id"].tolist() == res["rows"].column("_id").to_pylist()
        assert sub["score"].tolist() == pytest.approx(res["rows"].column("_score").to_pylist())


def test_run_query_batch_empty_table(doc_table):
    """An empty query table must return an empty dataset, not crash
    on the zero-step block pre-slicing."""
    queries = pa.table(
        {
            "qid": pa.array([], pa.int64()),
            "query": pa.array([], pa.string()),
            "match_columns": pa.array([], pa.string()),
        }
    )
    assert run_query_batch(doc_table, queries).count() == 0


def test_select_v1_envelope(doc_table):
    env = select_v1(doc_table, query="spark", match_columns="text", limit=3,
                    output_columns=("_id", "_score", "lang"))
    assert isinstance(env[0], list) and len(env[0]) == 1 and env[0][0] > 3
    assert env[1][0] == ["_id", "UInt32"] and env[1][1] == ["_score", "Int32"]
    assert len(env) == 2 + 3
    for row in env[2:]:
        assert isinstance(row[1], int)   # Int32-truncated score
        assert row[2] in {"en", "de", "zh", "fr", "es"}


def test_cache_no_bypasses_result_cache(ray_session, doc_table):
    import pyarrow as pa

    from groonga_ray.engine import QueryEngine

    actor = QueryEngine(doc_table)
    q = pa.table(
        {
            "qid": pa.array([1, 2], pa.int64()),
            "query": pa.array(["spark", "spark"]),
            "match_columns": pa.array(["text", "text"]),
            "cache": pa.array(["yes", "no"]),
        }
    )
    out = actor(q).to_pandas()
    a = out[out.qid == 1][["doc_id", "score"]].values.tolist()
    b = out[out.qid == 2][["doc_id", "score"]].values.tolist()
    assert a == b                      # same answer either way
    assert len(actor._cache) == 1      # only the cached variant stored
