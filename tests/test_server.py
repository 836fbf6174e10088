"""HTTP command-server tests: URI dispatch, v1 envelope, error rc
mapping, POST-as-query-string, labeled drilldowns, suggest and
shutdown — against a live ThreadingHTTPServer on an ephemeral port.

Reference: src/groonga.c:969-1307 (do_htreq_*), lib/ctx.c:1327-1416
(grn_ctx_qe_exec_uri)."""

import json
import time
import urllib.error
import urllib.request

import pyarrow as pa
import pytest

from groonga_ray.build import BuildConfig, build_index
from groonga_ray.engine import IndexedTable, select_v1
from groonga_ray.server import CommandServer

SF = "/root/testdata/sf0.001"
S = 1_000_000


@pytest.fixture(scope="module")
def srv(ray_session, tmp_path_factory):
    import ray.data

    from groonga_ray.pipelines import suggest as sg

    index_dir = str(tmp_path_factory.mktemp("srvidx"))
    files = [f"{SF}/documents.parquet"]
    cfg = BuildConfig(
        text_columns=("text",), docid_column="doc_id",
        n_buckets=4, target_rows_per_shard=200,
    )
    build_index(files, index_dir, cfg)
    table = IndexedTable(index_dir, files, "doc_id")

    ds_dir = str(tmp_path_factory.mktemp("srvsuggest") / "ds")
    events = pa.table(
        {
            "seq": pa.array([0, 0, 1, 1], pa.int64()),
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ord": pa.array([0, 1, 0, 1], pa.int64()),
            "time_us": pa.array([0, 2 * S, 10 * S, 12 * S], pa.int64()),
            "item": pa.array(["qu", "query plan", "qu", "query cache"], pa.string()),
            "is_submit": pa.array([0, 1, 0, 1], pa.int64()),
        }
    )
    sg.learn_to_dir(ray.data.from_arrow(events), ds_dir)

    server = CommandServer({"documents": table}, {"queries": ds_dir})
    host, port = server.start()
    yield table, f"http://{host}:{port}"
    server.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return r.status, json.loads(r.read().decode("utf-8"))


def _get_err(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.status, json.loads(r.read().decode("utf-8"))
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode("utf-8"))


def test_select_matches_select_v1(srv):
    table, base = srv
    status, env = _get(
        base,
        "/d/select?table=documents&query=query&output_columns=_id,_score&limit=5",
    )
    assert status == 200
    head, body = env[0], env[1]
    assert head[0] == 0 and head[2] >= 0  # rc, elapsed
    # the server mirrors grn_table_sort's descending-scan tie order
    # (equal scores in descending id order) — pass the same tie here
    direct = select_v1(
        table, query="query", output_columns=("_id", "_score"), limit=5,
        sort_tie="desc",
    )
    assert body[0] == direct  # single result set, identical envelope


def test_select_output_type_suffix_and_drilldown(srv):
    _, base = srv
    status, env = _get(
        base,
        "/d/select.json?table=documents&query=query&limit=2"
        "&drilldown=lang&drilldown_limit=3",
    )
    assert status == 200
    sets = env[1]
    assert len(sets) == 2
    main, drill = sets
    assert main[0][0] > 0  # nhits
    names = [c[0] for c in drill[1]]
    assert names[0] == "lang" and "_nsubrecs" in names
    assert len(drill) - 2 <= 3


def test_labeled_drilldowns_over_http(srv):
    _, base = srv
    status, env = _get(
        base,
        "/d/select?table=documents&query=query&limit=1"
        "&drilldowns%5Bby_lang%5D.keys=lang&drilldowns%5Bby_lang%5D.limit=2",
    )
    assert status == 200
    sets = env[1]
    labeled = sets[-1]
    assert isinstance(labeled, dict) and "by_lang" in labeled
    assert len(labeled["by_lang"]) - 2 <= 2


def test_output_type_tsv_select_and_status(srv):
    """TSV envelope + content serializer parity: the delimiter machine
    of lib/output.c (head line, '\\n' between depth-2 rows, '[\\t'/']'
    marks below, END footer) applied to the same v1 body the JSON
    path serializes."""
    table, base = srv
    with urllib.request.urlopen(
        base + "/d/select?table=documents&query=query&output_columns=_id,_score"
        "&limit=2&output_type=tsv",
        timeout=10,
    ) as r:
        assert r.status == 200
        assert r.headers["Content-Type"].startswith("text/tab-separated-values")
        text = r.read().decode("utf-8")
    assert text.endswith("\nEND")
    lines = text.split("\n")
    head = lines[0].split("\t")
    assert head[0] == "0" and float(head[2]) >= 0
    direct = select_v1(
        table, query="query", output_columns=("_id", "_score"), limit=2,
        sort_tie="desc",
    )
    nhits = direct[0][0]
    assert lines[1] == str(nhits)
    assert lines[2] == '[\t"_id"\t"UInt32"\t]\t[\t"_score"\t"Int32"\t]'
    for lineno, row in enumerate(direct[2:], start=3):
        assert lines[lineno] == "\t".join(str(v) for v in row)

    # .tsv path suffix on a map-shaped body (status)
    with urllib.request.urlopen(base + "/d/status.tsv", timeout=10) as r:
        st = r.read().decode("utf-8")
    assert st.endswith("\nEND") and "\t" in st.split("\n")[1]


def test_post_body_is_query_string(srv):
    table, base = srv
    req = urllib.request.Request(
        base + "/d/select?table=documents",
        data=b"query=query&limit=3&output_columns=_id",
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        env = json.loads(r.read().decode("utf-8"))
    body = env[1][0]
    direct = select_v1(
        table, query="query", output_columns=("_id",), limit=3, sort_tie="desc"
    )
    assert body == direct


def test_status_tokenize_normalize(srv):
    _, base = srv
    status, env = _get(base, "/d/status")
    assert status == 200
    st = env[1]
    assert st["tables"] == ["documents"] and isinstance(st["n_queries"], int)
    # what was served from cache: a repeated select hits the select cache
    q = "/d/select?table=documents&query=spark&output_columns=_id&limit=3"
    _get(base, q)
    before = st["caches"]["select_cache"]["hits"]
    _get(base, q)
    caches = _get(base, "/d/status")[1][1]["caches"]
    assert caches["select_cache"]["hits"] == before + 1
    assert caches["readers"]["items"] >= 1 and caches["postings"]["misses"] > 0
    assert set(caches["postings"]) == {"items", "bytes", "hits", "misses", "evictions"}

    status, env = _get(
        base, "/d/tokenize?tokenizer=TokenBigramSplitSymbolAlpha&string=abcd"
    )
    assert status == 200
    toks = env[1]
    assert [t["value"] for t in toks] == ["ab", "bc", "cd", "d"]
    assert [t["position"] for t in toks] == [0, 1, 2, 3]

    status, env = _get(base, "/d/normalize?string=AbC%20%20D")
    assert status == 200
    # the command keeps blanks unless REMOVE_BLANK (normalize/ascii.test)
    assert env[1] == {"normalized": "abc  d", "types": [], "checks": []}
    status, env = _get(
        base, "/d/normalize?string=AbC%20%20D&flags=REMOVE_BLANK%7CWITH_TYPES"
    )
    assert env[1]["normalized"] == "abcd"
    assert env[1]["types"] == ["alpha"] * 4


def test_error_envelopes(srv):
    _, base = srv
    status, env = _get_err(base, "/d/no_such_command")
    assert status == 400
    assert env[0][0] == -22 and "invalid command name" in env[0][3]

    status, env = _get_err(base, "/d/select?table=missing&query=x")
    assert status == 400 and env[0][0] == -22

    status, env = _get_err(base, "/not_d/select")
    assert status == 404


def test_suggest_over_http(srv):
    _, base = srv
    status, env = _get(
        base,
        "/d/suggest?table=queries&types=complete&query=qu&limit=5"
        "&frequency_threshold=1",
    )
    assert status == 200
    comp = env[1]["complete"]
    keys = [r[0] for r in comp[2:]]
    assert "query plan" in keys and "query cache" in keys


def test_register_command_and_shutdown(ray_session, tmp_path):
    server = CommandServer({})
    server.register_command("echo", lambda p: {"v": p.get("v")})
    host, port = server.start()
    base = f"http://{host}:{port}"
    _, env = _get(base, "/d/echo?v=42")
    assert env[1] == {"v": "42"}
    _, env = _get(base, "/d/shutdown")
    assert env[1] is True
    for _ in range(50):
        if not server._thread.is_alive():
            break
        time.sleep(0.1)
    assert not server._thread.is_alive()


def test_output_type_msgpack(srv):
    from groonga_ray.msgpackio import unpack
    _, base = srv
    q = ("/d/select?table=documents&query=query&output_columns=_id,_score"
         "&limit=2")
    with urllib.request.urlopen(base + q, timeout=10) as r:
        env_json = json.loads(r.read().decode("utf-8"))
    with urllib.request.urlopen(base + q + "&output_type=msgpack", timeout=10) as r:
        assert r.headers["Content-Type"].startswith("application/x-msgpack")
        env_mp = unpack(r.read())
    # identical body; head timings differ between the two requests
    assert env_mp[0][0] == env_json[0][0] == 0
    assert env_mp[1] == env_json[1]
    # .msgpack path suffix on a map-shaped body (status)
    with urllib.request.urlopen(base + "/d/status.msgpack", timeout=10) as r:
        st = unpack(r.read())
    assert st[0][0] == 0
    assert isinstance(st[1], dict) and "version" in st[1]
