"""HTTP load / delete / defrag: the ingest-mutate loop over the
command server, exercising the LSM delta + tombstone machinery through
the protocol surface (proc_load lib/proc.c:1371, proc_delete,
do_htreq_post body-as-values src/groonga.c:1171-1293)."""

import json
import shutil
import urllib.error
import urllib.request

import pyarrow.parquet as pq
import pytest

from groonga_ray.build import BuildConfig, build_index
from groonga_ray.engine import IndexedTable
from groonga_ray.server import CommandServer

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def srv(ray_session, tmp_path):
    index_dir = str(tmp_path / "mutidx")
    src = str(tmp_path / "documents.parquet")
    shutil.copyfile(f"{SF}/documents.parquet", src)
    files = [src]
    build_index(
        files, index_dir,
        BuildConfig(text_columns=("text",), docid_column="doc_id", n_buckets=2),
    )
    server = CommandServer({"documents": IndexedTable(index_dir, files, "doc_id")})
    host, port = server.start()
    yield server, f"http://{host}:{port}", index_dir
    server.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return json.loads(r.read().decode("utf-8"))


def _post(base, path, body):
    req = urllib.request.Request(
        base + path, data=body.encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return json.loads(r.read().decode("utf-8"))
    except urllib.error.HTTPError as e:
        return json.loads(e.read().decode("utf-8"))


def _nhits(base, q):
    env = _get(base, f"/d/select?table=documents&query={q}&limit=0")
    return env[1][0][0][0]


def test_load_then_search(srv):
    _, base, _ = srv
    before = _nhits(base, "zanzibar")
    assert before == 0
    records = [
        {"doc_id": 501, "text": "zanzibar query engine", "lang": "en",
         "source": "web", "n_chars": 21},
        {"doc_id": 502, "text": "zanzibar window", "lang": "fr",
         "source": "web", "n_chars": 15},
    ]
    env = _post(base, "/d/load?table=documents", json.dumps(records))
    assert env[1] == 2
    assert _nhits(base, "zanzibar") == 2
    # the new rows also appear in filter scans over source files
    env = _get(base, "/d/select?table=documents"
                     "&filter=doc_id%3E%3D501&output_columns=_id&limit=-1")
    assert env[1][0][0][0] == 2


def test_load_rejects_stale_docids(srv):
    _, base, _ = srv
    env = _post(
        base, "/d/load?table=documents",
        json.dumps([{"doc_id": 10, "text": "dup", "lang": "en",
                     "source": "web", "n_chars": 3}]),
    )
    assert env[0][0] == -22 and "docids" in env[0][3]


def test_delete_by_id_key_filter_then_defrag(srv):
    _, base, index_dir = srv
    n0 = _nhits(base, "query")
    assert n0 > 0
    # find one matching doc, delete by id
    env = _get(base, "/d/select?table=documents&query=query"
                     "&output_columns=_id&limit=2")
    ids = [r[0] for r in env[1][0][2:]]
    assert _get(base, f"/d/delete?table=documents&id={ids[0]}")[1] is True
    assert _nhits(base, "query") == n0 - 1
    # delete by key (docid column value)
    assert _get(base, f"/d/delete?table=documents&key={ids[1]}")[1] is True
    assert _nhits(base, "query") == n0 - 2
    # delete by filter
    env = _get(base, "/d/select?table=documents&filter=lang%3D%3D%22de%22"
                     "&output_columns=_id&limit=0")
    n_de = env[1][0][0][0]
    assert n_de > 0
    assert _get(base, "/d/delete?table=documents&filter=lang%3D%3D%22de%22")[1] is True
    env = _get(base, "/d/select?table=documents&filter=lang%3D%3D%22de%22"
                     "&output_columns=_id&limit=0")
    assert env[1][0][0][0] == 0
    # defrag folds tombstones out; results unchanged
    n_before = _nhits(base, "query")
    assert _get(base, "/d/defrag?table=documents")[1] is True
    import os

    assert not os.path.exists(os.path.join(index_dir, "tombstones.parquet"))
    assert _nhits(base, "query") == n_before


def test_delete_then_defrag_with_no_select_between(srv):
    """The deleted doc stays gone when defrag follows the delete at
    once: the server's reader was opened before the delete and must
    not be served again after the compaction."""
    _, base, _ = srv
    env = _get(base, "/d/select?table=documents&query=query"
                     "&output_columns=_id&limit=1")
    n0, victim = env[1][0][0][0], env[1][0][2][0]
    assert _get(base, f"/d/delete?table=documents&id={victim}")[1] is True
    assert _get(base, "/d/defrag?table=documents")[1] is True
    env = _get(base, "/d/select?table=documents&query=query"
                     f"&output_columns=_id&limit={n0}")
    assert env[1][0][0][0] == n0 - 1
    assert victim not in [r[0] for r in env[1][0][2:]]


def test_load_values_param_get(srv):
    """values= as a CGI param works too (reference accepts both)."""
    import urllib.parse

    _, base, _ = srv
    vals = urllib.parse.quote(json.dumps(
        [{"doc_id": 600, "text": "xylophone", "lang": "en",
          "source": "web", "n_chars": 9}]
    ))
    env = _get(base, f"/d/load?table=documents&values={vals}")
    assert env[1] == 1
    assert _nhits(base, "xylophone") == 1
