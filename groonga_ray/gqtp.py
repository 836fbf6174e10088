"""GQTP — Groonga's native binary query protocol.

Wire format (reference lib/grn_com.h:167-184 ``grn_com_header``): a
24-byte header followed by ``size`` body bytes::

    proto:u8 (0xc7)  qtype:u8  keylen:u16be  level:u8  flags:u8
    status:u16be  size:u32be  opaque:u32be  cas:u64be

Requests carry a command line (script syntax, e.g. ``select --table X``;
``load`` carries its JSON values on following lines of the same body).
Replies carry the raw result body — unlike HTTP there is no
``[[rc,start,elapsed],...]`` envelope; the rc travels in
``header.status`` (src/groonga.c:283 adds the envelope only in
standalone mode; lib/com.c:200-215 sends GQTP replies with
``status = htons(ctx->rc)`` and the bare output buffer).

Flags (include/groonga/groonga.h:1720-1724): MORE=0x01 accumulates a
multi-part request body, TAIL=0x02 marks the final part, QUIT=0x10
closes the connection (sent back on ``quit``).

The command set is the same protocol-independent
:meth:`~groonga_ray.server.CommandServer.dispatch` the HTTP server
uses — GQTP is a framing layer, exactly as in the reference where both
``h_worker`` and ``g_worker`` funnel into ``grn_ctx_send``
(src/groonga.c:1901/1979).
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading

HEADER = struct.Struct("!BBHBBHIIQ")
PROTO_GQTP = 0xC7

FLAG_MORE = 0x01
FLAG_TAIL = 0x02
FLAG_HEAD = 0x04
FLAG_QUIET = 0x08
FLAG_QUIT = 0x10

CONTENT_NONE = 0
CONTENT_TSV = 1
CONTENT_JSON = 2


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class Server(socketserver.ThreadingTCPServer):
    """The GQTP and memcached listener. Accepted connections set
    TCP_NODELAY: a reply of several sends is not held for the client's
    delayed ACK."""

    allow_reuse_address = True
    daemon_threads = True

    def get_request(self):
        conn, addr = super().get_request()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn, addr


def send_frame(
    sock: socket.socket,
    body: bytes,
    *,
    qtype: int = CONTENT_JSON,
    flags: int = FLAG_TAIL,
    status: int = 0,
) -> None:
    sock.sendall(
        HEADER.pack(PROTO_GQTP, qtype, 0, 0, flags, status & 0xFFFF, len(body), 0, 0)
        + body
    )


def recv_frame(sock: socket.socket):
    """Returns ``(header_fields, body)`` or None on EOF."""
    raw = _recv_exact(sock, HEADER.size)
    if raw is None:
        return None
    proto, qtype, keylen, level, flags, status, size, opaque, cas = HEADER.unpack(raw)
    if proto != PROTO_GQTP:
        raise ValueError(f"not a GQTP frame: proto=0x{proto:02x}")
    body = _recv_exact(sock, size) if size else b""
    if body is None:
        return None
    return (proto, qtype, keylen, level, flags, status, size, opaque, cas), body


class GqtpClient:
    """Minimal client for tests and interop checks (the analogue of
    ``groonga -p PORT HOST`` client mode, src/groonga.c:359 do_client)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def call(self, command: str) -> tuple[int, object]:
        """Send one command, return ``(rc, parsed_json_body)``."""
        send_frame(self.sock, command.encode("utf-8"), flags=FLAG_TAIL)
        got = recv_frame(self.sock)
        if got is None:
            raise ConnectionError("server closed connection")
        header, body = got
        status = header[5]
        rc = status - 0x10000 if status >= 0x8000 else status  # int16 wrap
        return rc, (json.loads(body) if body else None)

    def close(self) -> None:
        try:
            send_frame(self.sock, b"quit", flags=FLAG_TAIL)
            recv_frame(self.sock)
        except OSError:
            pass
        self.sock.close()


class GqtpServer:
    """Serve a :class:`~groonga_ray.server.CommandServer`'s command set
    over GQTP (``groonga --protocol gqtp`` analogue)."""

    def __init__(self, command_server, host: str = "127.0.0.1", port: int = 0):
        self.command_server = command_server
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                pending = b""
                while True:
                    try:
                        got = recv_frame(self.request)
                    except (ValueError, OSError):
                        return
                    if got is None:
                        return
                    header, body = got
                    flags = header[4]
                    pending += body
                    if flags & FLAG_MORE and not flags & FLAG_TAIL:
                        # multi-part request: acknowledge nothing, keep
                        # accumulating (grn_ctx_send QUIET path)
                        continue
                    text = pending.decode("utf-8", errors="replace")
                    pending = b""
                    if not outer._serve_one(self.request, text):
                        return

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def _serve_one(self, sock: socket.socket, text: str) -> bool:
        """Execute the accumulated request text; send one reply frame
        per command. Returns False when the connection should close."""
        from .conformance import parse_script

        stripped = text.strip()
        if stripped == "quit" or not stripped:
            send_frame(sock, b"", flags=FLAG_TAIL | FLAG_QUIT)
            return False
        try:
            commands = parse_script(text)
        except Exception:
            commands = [(stripped.split()[0], {}, False)]
        shutdown = False
        for name, params, _inc in commands:
            rc, body, err, wants_shutdown = self.command_server.dispatch(name, params)
            shutdown = shutdown or wants_shutdown
            payload = (
                json.dumps(body, ensure_ascii=False).encode("utf-8")
                if err is None and body is not None
                else b""
            )
            send_frame(sock, payload, flags=FLAG_TAIL, status=rc)
        if shutdown:
            threading.Thread(target=self.stop, daemon=True).start()
            return False
        return True

    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.address()

    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
