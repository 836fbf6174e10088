"""Memcached binary protocol tests (reference src/groonga.c:1317-1900
do_mbreq semantics) against a live server on an ephemeral port."""

import socket
import struct
import time

import pytest

from groonga_ray.memcached import HEADER, MAGIC_REQ, MAGIC_RES, MemcachedServer

OP_GET, OP_SET, OP_ADD, OP_REPLACE, OP_DELETE, OP_INCR, OP_DECR = range(7)
OP_QUIT = 0x07
OP_FLUSH = 0x08
OP_VERSION = 0x0B
OP_GETK = 0x0C
OP_APPEND = 0x0E
OP_STAT = 0x10
OP_SETQ = 0x11


@pytest.fixture(scope="module")
def mc():
    server = MemcachedServer()
    host, port = server.start()
    sock = socket.create_connection((host, port), timeout=10)
    yield sock
    sock.close()
    server.stop()


def _req(sock, op, key=b"", extras=b"", value=b"", cas=0):
    body = extras + key + value
    sock.sendall(
        HEADER.pack(MAGIC_REQ, op, len(key), len(extras), 0, 0, len(body), 0, cas)
        + body
    )


def _res(sock):
    raw = b""
    while len(raw) < HEADER.size:
        raw += sock.recv(HEADER.size - len(raw))
    magic, op, keylen, extralen, dt, status, size, opaque, cas = HEADER.unpack(raw)
    assert magic == MAGIC_RES
    body = b""
    while len(body) < size:
        body += sock.recv(size - len(body))
    return status, keylen, extralen, body, cas


def _set(sock, key, value, flags=0, expire=0, op=OP_SET, cas=0):
    _req(sock, op, key=key, extras=struct.pack("!II", flags, expire), value=value, cas=cas)


def test_set_get_roundtrip(mc):
    _set(mc, b"k1", b"hello", flags=0xDEAD)
    status, _, _, _, cas1 = _res(mc)
    assert status == 0 and cas1 > 0
    _req(mc, OP_GET, key=b"k1")
    status, keylen, extralen, body, cas = _res(mc)
    assert status == 0 and cas == cas1
    assert struct.unpack("!I", body[:4])[0] == 0xDEAD
    assert body[4:] == b"hello"


def test_getk_echoes_key(mc):
    _set(mc, b"k2", b"v2")
    _res(mc)
    _req(mc, OP_GETK, key=b"k2")
    status, keylen, extralen, body, _ = _res(mc)
    assert status == 0 and keylen == 2
    assert body[4:6] == b"k2" and body[6:] == b"v2"


def test_get_missing_is_enoent(mc):
    _req(mc, OP_GET, key=b"nope")
    status, _, _, _, _ = _res(mc)
    assert status == 1  # KEY_ENOENT


def test_add_existing_not_stored(mc):
    _set(mc, b"k3", b"a", op=OP_ADD)
    assert _res(mc)[0] == 0
    _set(mc, b"k3", b"b", op=OP_ADD)
    assert _res(mc)[0] == 5  # NOT_STORED


def test_replace_missing_not_stored(mc):
    _set(mc, b"k4", b"x", op=OP_REPLACE)
    assert _res(mc)[0] == 5


def test_cas_mismatch_not_stored(mc):
    _set(mc, b"k5", b"v1")
    _, _, _, _, cas = _res(mc)
    _set(mc, b"k5", b"v2", cas=cas + 999)
    assert _res(mc)[0] == 5
    # value unchanged (single correct reply; no reference double-send)
    _req(mc, OP_GET, key=b"k5")
    status, _, _, body, _ = _res(mc)
    assert body[4:] == b"v1"
    _set(mc, b"k5", b"v3", cas=cas)
    assert _res(mc)[0] == 0


def test_delete(mc):
    _set(mc, b"k6", b"gone")
    _res(mc)
    _req(mc, OP_DELETE, key=b"k6")
    status, _, extralen, _, _ = _res(mc)
    assert status == 0 and extralen == 4  # reference header quirk
    _req(mc, OP_GET, key=b"k6")
    assert _res(mc)[0] == 1


def test_incr_decr(mc):
    extras = struct.pack("!QQI", 5, 100, 0)  # delta=5 init=100 expire=0
    _req(mc, OP_INCR, key=b"ctr", extras=extras)
    status, _, _, body, _ = _res(mc)
    assert status == 0 and struct.unpack("!Q", body)[0] == 100  # created at init
    _req(mc, OP_INCR, key=b"ctr", extras=extras)
    assert struct.unpack("!Q", _res(mc)[3])[0] == 105
    _req(mc, OP_DECR, key=b"ctr", extras=struct.pack("!QQI", 30, 0, 0))
    assert struct.unpack("!Q", _res(mc)[3])[0] == 75


def test_incr_no_autocreate(mc):
    extras = struct.pack("!QQI", 1, 0, 0xFFFFFFFF)
    _req(mc, OP_INCR, key=b"missing_ctr", extras=extras)
    assert _res(mc)[0] == 1  # ENOENT


def test_append(mc):
    _set(mc, b"k7", b"ab")
    _res(mc)
    _req(mc, OP_APPEND, key=b"k7", value=b"cd")
    assert _res(mc)[0] == 0
    _req(mc, OP_GET, key=b"k7")
    assert _res(mc)[3][4:] == b"abcd"


def test_expire_relative(mc):
    _set(mc, b"k8", b"temp", expire=1)
    _res(mc)
    _req(mc, OP_GET, key=b"k8")
    assert _res(mc)[0] == 0
    time.sleep(1.2)
    _req(mc, OP_GET, key=b"k8")
    assert _res(mc)[0] == 1  # expired entries deleted on read


def test_flush_expires_everything(mc):
    _set(mc, b"k9", b"v")
    _res(mc)
    _req(mc, OP_FLUSH, extras=struct.pack("!I", 0))
    assert _res(mc)[0] == 0
    _req(mc, OP_GET, key=b"k9")
    assert _res(mc)[0] == 1


def test_version_and_stat(mc):
    _req(mc, OP_VERSION)
    status, _, _, body, _ = _res(mc)
    assert status == 0 and body
    _req(mc, OP_STAT)
    status, keylen, _, body, _ = _res(mc)
    assert status == 0 and body[:keylen] == b"pid"
    assert int(body[keylen:]) > 0


def test_quiet_set_no_reply_then_get(mc):
    _set(mc, b"kq", b"quietv", op=OP_SETQ)
    # no response for SETQ: next GET's reply is the next frame
    _req(mc, OP_GET, key=b"kq")
    status, _, _, body, _ = _res(mc)
    assert status == 0 and body[4:] == b"quietv"


def test_quit_closes(mc_host=None):
    server = MemcachedServer()
    host, port = server.start()
    sock = socket.create_connection((host, port), timeout=10)
    _req(sock, OP_QUIT)
    assert _res(sock)[0] == 0
    assert sock.recv(16) == b""
    sock.close()
    server.stop()


def test_pipelined_gets_are_not_held_by_delayed_ack(mc):
    # GETQ, GETQ, GET in one segment: three replies, the last two held
    # ~40 ms for the client's delayed ACK without TCP_NODELAY. NOOP
    # sends no reply here, so the batch ends with GET.
    import statistics

    OP_GETQ = 0x09
    for key in (b"pa", b"pb"):
        _set(mc, key, b"v-" + key)
        assert _res(mc)[0] == 0

    def frame(op, key):
        return HEADER.pack(MAGIC_REQ, op, len(key), 0, 0, 0, len(key), 0, 0) + key

    batch = frame(OP_GETQ, b"pa") + frame(OP_GETQ, b"pb") + frame(OP_GET, b"pa")
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        mc.sendall(batch)
        values = [_res(mc)[3][4:] for _ in range(3)]
        times.append(time.perf_counter() - t0)
        assert values == [b"v-pa", b"v-pb", b"v-pa"]
    assert statistics.median(times) < 0.020
