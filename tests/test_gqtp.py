"""GQTP binary-protocol tests: framing, rc-in-header, envelope-less
bodies, multi-part requests, DDL + load + select round-trip, quit and
shutdown — against a live ThreadingTCPServer on an ephemeral port.

Reference: lib/grn_com.h:167-184 (header layout), lib/com.c:200-215
(GQTP reply: status=htons(rc), bare body), src/groonga.c:1979
(g_worker -> grn_ctx_send)."""

import json
import socket
import struct

import pyarrow as pa
import pytest

from groonga_ray.build import BuildConfig, build_index
from groonga_ray.engine import IndexedTable
from groonga_ray.gqtp import (
    FLAG_MORE,
    FLAG_QUIT,
    FLAG_TAIL,
    HEADER,
    PROTO_GQTP,
    GqtpClient,
    GqtpServer,
    recv_frame,
    send_frame,
)
from groonga_ray.server import CommandServer

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def gqtp(ray_session, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("gqtpidx"))
    files = [f"{SF}/documents.parquet"]
    cfg = BuildConfig(
        text_columns=("text",), docid_column="doc_id",
        n_buckets=4, target_rows_per_shard=200,
    )
    build_index(files, index_dir, cfg)
    table = IndexedTable(index_dir, files, "doc_id")
    cmd = CommandServer(
        {"documents": table}, data_dir=str(tmp_path_factory.mktemp("gqtpdata"))
    )
    server = GqtpServer(cmd)
    host, port = server.start()
    yield host, port
    server.stop()


def test_header_is_24_bytes():
    assert HEADER.size == 24
    frame = HEADER.pack(PROTO_GQTP, 2, 0, 0, FLAG_TAIL, 0, 5, 0, 0)
    proto, qtype, keylen, level, flags, status, size, opaque, cas = HEADER.unpack(frame)
    assert (proto, qtype, flags, size) == (PROTO_GQTP, 2, FLAG_TAIL, 5)


def test_status_and_select(gqtp):
    host, port = gqtp
    c = GqtpClient(host, port)
    try:
        rc, body = c.call("status")
        assert rc == 0
        assert body["n_queries"] >= 0 and "version" in body
        rc, body = c.call(
            "select --table documents --query text:@query --limit 2"
            " --output_columns doc_id,_score"
        )
        assert rc == 0
        # GQTP bodies are envelope-less: [[count],[cols],rows...], no [rc,...] head
        assert isinstance(body[0][0][0], int)
        cols = [c0 for c0, _t in body[0][1]]
        assert cols == ["doc_id", "_score"]
        assert len(body[0]) == 2 + 2
    finally:
        c.close()


def test_error_rc_in_header(gqtp):
    host, port = gqtp
    c = GqtpClient(host, port)
    try:
        rc, body = c.call("no_such_command")
        assert rc == -22  # GRN_INVALID_ARGUMENT
        assert body is None  # error body is empty; rc travels in the header
    finally:
        c.close()


def test_ddl_load_select_roundtrip(gqtp):
    host, port = gqtp
    c = GqtpClient(host, port)
    try:
        rc, body = c.call("table_create Memos TABLE_HASH_KEY ShortText")
        assert rc == 0 and body is True
        rc, body = c.call("column_create Memos content COLUMN_SCALAR Text")
        assert rc == 0 and body is True
        # load with inline JSON lines in one body (the .test layout)
        rc, body = c.call(
            'load --table Memos\n[\n{"_key": "m1", "content": "hello gqtp"},\n'
            '{"_key": "m2", "content": "bye"}\n]'
        )
        assert rc == 0 and body == 2
        rc, body = c.call(
            "select --table Memos --query content:@gqtp --output_columns _key"
        )
        assert rc == 0
        rows = body[0][2:]
        assert rows == [["m1"]]
    finally:
        c.close()


def test_multipart_request(gqtp):
    host, port = gqtp
    sock = socket.create_connection((host, port), timeout=10)
    try:
        part1 = b"select --table documents "
        part2 = b"--limit 1 --output_columns doc_id"
        send_frame(sock, part1, flags=FLAG_MORE)
        send_frame(sock, part2, flags=FLAG_TAIL)
        header, body = recv_frame(sock)
        assert header[5] == 0
        parsed = json.loads(body)
        assert parsed[0][1] == [["doc_id", "Int64"]] or parsed[0][1][0][0] == "doc_id"
    finally:
        sock.close()


def test_quit_closes_connection(gqtp):
    host, port = gqtp
    sock = socket.create_connection((host, port), timeout=10)
    send_frame(sock, b"quit", flags=FLAG_TAIL)
    header, body = recv_frame(sock)
    assert header[4] & FLAG_QUIT
    # server closes after quit: next recv sees EOF
    assert recv_frame(sock) is None
    sock.close()


def test_non_gqtp_bytes_rejected(gqtp):
    host, port = gqtp
    sock = socket.create_connection((host, port), timeout=10)
    try:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 8)
        # server drops the connection on a bad proto byte
        assert sock.recv(64) == b""
    finally:
        sock.close()


def test_three_command_frame_is_not_held_by_delayed_ack(gqtp):
    # one request, three reply frames: without TCP_NODELAY the second
    # and third wait ~40 ms for the client's delayed ACK
    import statistics
    import time

    host, port = gqtp
    sock = socket.create_connection((host, port), timeout=10)
    times = []
    try:
        for _ in range(10):
            t0 = time.perf_counter()
            send_frame(sock, b"status\nstatus\nstatus", flags=FLAG_TAIL)
            for _ in range(3):
                header, body = recv_frame(sock)
                assert header[5] == 0 and "version" in json.loads(body)
            times.append(time.perf_counter() - t0)
    finally:
        sock.close()
    assert statistics.median(times) < 0.020
