"""Memcached binary protocol server (``groonga --protocol memcached``).

Reference: src/groonga.c:1317-1900 (``do_mbreq`` + the ``Memcache``
table ``cache_init`` creates: key -> value/flags/expire/cas). The wire
header is the same 24-byte ``grn_com_header`` reinterpreted per the
memcached binary protocol: magic(0x80 req / 0x81 res), opcode, key
length u16be, extras length u8, data type u8, status u16be, total body
u32be, opaque u32, cas u64be.

Semantics mirrored from the reference:

- GET/GETK: expired entries are deleted on read and report ENOENT;
  success returns 4-byte flags extras (+ key for GETK) + value, cas in
  the header. GETQ/GETKQ reply identically but flagged MORE.
- SET/ADD/REPLACE: expire < 10^9 is relative to now
  (RELATIVE_TIME_THRESH); ADD on a live entry and REPLACE on a
  missing/expired one are NOT_STORED; every store bumps a global cas
  counter. The quiet variants never reply (GRN_MSG_MBRES's
  ``if (!quiet)`` guard — even on error).
- A cas-conditional SET whose cas mismatches replies NOT_STORED. (The
  reference then *also* overwrites the value and replies a second
  time — src/groonga.c:1578-1612 has no break after the NOT_STORED
  branch; we deviate to the single correct reply because a double
  response desyncs real memcached clients.)
- INCREMENT/DECREMENT: 20-byte extras (delta, init, expire);
  expire==0xffffffff means "don't auto-create"; the counter is a
  wrapped uint64; replies carry the 8-byte big-endian value.
- FLUSH re-stamps every entry's expire. NOOP sends no reply (the
  reference's case falls through silently). VERSION returns the
  package version; STAT returns a single ``pid`` stat.
- QUIT closes the connection after an (unquiet) SUCCESS.

The store is an in-memory dict guarded by a lock — the moral
equivalent of the reference's ``Memcache`` PAT table, sized for the
protocol's cache use case (the 100 TB corpus path is the Parquet
index, not this)."""

from __future__ import annotations

import socketserver
import struct
import threading
import time

from .gqtp import Server, _recv_exact

MAGIC_REQ = 0x80
MAGIC_RES = 0x81

RES_SUCCESS = 0x00
RES_KEY_ENOENT = 0x01
RES_KEY_EEXISTS = 0x02
RES_E2BIG = 0x03
RES_EINVAL = 0x04
RES_NOT_STORED = 0x05
RES_UNKNOWN_COMMAND = 0x81
RES_ENOMEM = 0x82

(CMD_GET, CMD_SET, CMD_ADD, CMD_REPLACE, CMD_DELETE, CMD_INCREMENT,
 CMD_DECREMENT, CMD_QUIT, CMD_FLUSH, CMD_GETQ, CMD_NOOP, CMD_VERSION,
 CMD_GETK, CMD_GETKQ, CMD_APPEND, CMD_PREPEND, CMD_STAT, CMD_SETQ,
 CMD_ADDQ, CMD_REPLACEQ, CMD_DELETEQ, CMD_INCREMENTQ, CMD_DECREMENTQ,
 CMD_QUITQ, CMD_FLUSHQ, CMD_APPENDQ, CMD_PREPENDQ) = range(0x1B)

HEADER = struct.Struct("!BBHBBHIIQ")
RELATIVE_TIME_THRESH = 1_000_000_000

VERSION = "5.0.4-ray"


class _Entry:
    __slots__ = ("value", "flags", "expire", "cas")

    def __init__(self, value: bytes, flags: int, expire: int, cas: int):
        self.value = value
        self.flags = flags
        self.expire = expire
        self.cas = cas


def _abs_expire(expire: int, now: float) -> int:
    if expire and expire < RELATIVE_TIME_THRESH:
        return int(now) + expire
    return expire


class MemcachedServer:
    """Memcached-binary-protocol front over an in-memory KV table."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._store: dict[bytes, _Entry] = {}
        self._lock = threading.Lock()
        self._cas = 0
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                while True:
                    raw = _recv_exact(self.request, HEADER.size)
                    if raw is None:
                        return
                    magic, op, keylen, extralen, dtype, status, size, opaque, cas = (
                        HEADER.unpack(raw)
                    )
                    if magic != MAGIC_REQ:
                        return
                    body = _recv_exact(self.request, size) if size else b""
                    if body is None:
                        return
                    if not outer._op(self.request, op, keylen, extralen, body, opaque, cas):
                        return

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- wire out
    @staticmethod
    def _res(
        sock, op: int, status: int, *, key: bytes = b"", extras: bytes = b"",
        value: bytes = b"", cas: int = 0, opaque: int = 0, extralen: int | None = None,
    ) -> None:
        body = extras + key + value
        # the reference stamps extra_size in the header even when the
        # extras bytes live in the body (incr) or are absent (delete)
        el = len(extras) if extralen is None else extralen
        sock.sendall(
            HEADER.pack(
                MAGIC_RES, op, len(key), el, 0, status, len(body), opaque, cas
            )
            + body
        )

    # ------------------------------------------------------------ dispatch
    def _op(
        self, sock, op: int, keylen: int, extralen: int, body: bytes,
        opaque: int, req_cas: int,
    ) -> bool:
        now = time.time()
        quiet = op in (
            CMD_SETQ, CMD_ADDQ, CMD_REPLACEQ, CMD_DELETEQ, CMD_INCREMENTQ,
            CMD_DECREMENTQ, CMD_QUITQ, CMD_FLUSHQ, CMD_APPENDQ, CMD_PREPENDQ,
        )

        if op in (CMD_GET, CMD_GETQ, CMD_GETK, CMD_GETKQ):
            key = body[extralen : extralen + keylen]
            with self._lock:
                e = self._store.get(key)
                if e is not None and e.expire and e.expire < now:
                    del self._store[key]
                    e = None
            if e is None:
                self._res(sock, op, RES_KEY_ENOENT, opaque=opaque)
            else:
                wkey = key if op in (CMD_GETK, CMD_GETKQ) else b""
                self._res(
                    sock, op, RES_SUCCESS, extras=struct.pack("!I", e.flags),
                    key=wkey, value=e.value, cas=e.cas, opaque=opaque,
                )
            return True

        if op in (CMD_SET, CMD_ADD, CMD_REPLACE, CMD_SETQ, CMD_ADDQ, CMD_REPLACEQ):
            flags, expire = struct.unpack("!II", body[:8])
            key = body[8 : 8 + keylen]
            value = body[8 + keylen :]
            expire = _abs_expire(expire, now)
            base = {CMD_SETQ: CMD_SET, CMD_ADDQ: CMD_ADD, CMD_REPLACEQ: CMD_REPLACE}.get(op, op)
            with self._lock:
                e = self._store.get(key)
                live = e is not None and not (e.expire and e.expire < now)
                if base == CMD_REPLACE and e is None:
                    status, cas = RES_NOT_STORED, 0
                elif base == CMD_REPLACE and not live:
                    del self._store[key]
                    status, cas = RES_NOT_STORED, 0
                elif base == CMD_ADD and live:
                    status, cas = RES_NOT_STORED, 0
                elif e is None and req_cas:
                    # cas given for a fresh key (reference: EINVAL)
                    status, cas = RES_EINVAL, 0
                elif e is not None and req_cas and req_cas != e.cas:
                    status, cas = RES_NOT_STORED, 0
                else:
                    self._cas += 1
                    cas = self._cas
                    self._store[key] = _Entry(value, flags, expire, cas)
                    status = RES_SUCCESS
            if not quiet:
                self._res(sock, op, status, cas=cas, opaque=opaque)
            return True

        if op in (CMD_DELETE, CMD_DELETEQ):
            key = body[extralen : extralen + keylen]
            with self._lock:
                existed = self._store.pop(key, None) is not None
            if not quiet:
                if existed:
                    self._res(sock, op, RES_SUCCESS, opaque=opaque, extralen=4)
                else:
                    self._res(sock, op, RES_KEY_ENOENT, opaque=opaque)
            return True

        if op in (CMD_INCREMENT, CMD_DECREMENT, CMD_INCREMENTQ, CMD_DECREMENTQ):
            delta, init, expire = struct.unpack("!QQI", body[:20])
            key = body[20 : 20 + keylen]
            auto_create = expire != 0xFFFFFFFF
            with self._lock:
                e = self._store.get(key)
                live = e is not None and not (e.expire and e.expire < now)
                if e is None and not auto_create:
                    if not quiet:
                        self._res(sock, op, RES_KEY_ENOENT, opaque=opaque)
                    return True
                if e is not None and not live and not auto_create:
                    if not quiet:
                        self._res(sock, op, RES_KEY_ENOENT, opaque=opaque)
                    return True
                if e is None or not live:
                    val = init
                    flags = 0
                else:
                    cur = int.from_bytes(e.value[:8].ljust(8, b"\0"), "little")
                    if op in (CMD_INCREMENT, CMD_INCREMENTQ):
                        val = (cur + delta) & 0xFFFFFFFFFFFFFFFF
                    else:
                        val = (cur - delta) & 0xFFFFFFFFFFFFFFFF
                    flags = e.flags
                exp = _abs_expire(expire if auto_create else 0, now)
                self._cas += 1
                # stored host-order like the reference's raw 8-byte write
                self._store[key] = _Entry(
                    val.to_bytes(8, "little"), flags, exp, self._cas
                )
            if not quiet:
                self._res(
                    sock, op, RES_SUCCESS, value=struct.pack("!Q", val),
                    opaque=opaque, extralen=8,
                )
            return True

        if op in (CMD_FLUSH, CMD_FLUSHQ):
            if extralen:
                (expire,) = struct.unpack("!I", body[:4])
                if expire < RELATIVE_TIME_THRESH:
                    expire = int(now) + expire if expire else int(now) - 1
            else:
                expire = int(now) - 1
            with self._lock:
                for e in self._store.values():
                    e.expire = expire
            if not quiet:
                self._res(sock, op, RES_SUCCESS, opaque=opaque, extralen=4)
            return True

        if op in (CMD_APPEND, CMD_PREPEND, CMD_APPENDQ, CMD_PREPENDQ):
            key = body[:keylen]
            value = body[keylen:]
            pre = op in (CMD_PREPEND, CMD_PREPENDQ)
            with self._lock:
                e = self._store.get(key)
                if e is None:
                    self._cas += 1
                    self._store[key] = _Entry(value, 0, 0, self._cas)
                else:
                    e.value = value + e.value if pre else e.value + value
            if not quiet:
                self._res(sock, op, RES_SUCCESS, opaque=opaque)
            return True

        if op == CMD_NOOP:
            return True  # reference sends nothing (src/groonga.c:1767)

        if op == CMD_VERSION:
            self._res(sock, op, RES_SUCCESS, value=VERSION.encode(), opaque=opaque)
            return True

        if op == CMD_STAT:
            import os

            self._res(
                sock, op, RES_SUCCESS, key=b"pid", value=str(os.getpid()).encode(),
                opaque=opaque,
            )
            return True

        if op in (CMD_QUIT, CMD_QUITQ):
            if not quiet:
                self._res(sock, op, RES_SUCCESS, opaque=opaque)
            return False

        self._res(sock, op, RES_UNKNOWN_COMMAND, opaque=opaque)
        return True

    # ------------------------------------------------------------- control
    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.address()

    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
