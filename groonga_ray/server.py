"""HTTP command server — the analogue of the reference's built-in HTTP
mode.

Reference: request handling src/groonga.c:969-1307 (``do_htreq_get`` /
``do_htreq_post``), URI → command dispatch lib/ctx.c:1327-1416
(``grn_ctx_qe_exec_uri``: ``/d/<command>?arg=value&...``, CGI-decoded
args bound to the command's vars, ``output_type`` consumed separately),
status line mapping src/groonga.c:726-737, and the command-version-1
JSON envelope ``[[rc, started, elapsed], body]`` (lib/output.c; error
form appends the message).

Scope: JSON output only (xml/tsv/msgpack are scoped out, SURVEY §2.1);
GET and POST-as-query-string. The server is a thin stdlib
``ThreadingHTTPServer`` over the engine: index state (lexicon, stats,
doclens, posting caches) is loaded once per process and shared by
request threads — the reference's thread-per-connection over a shared
mmap'd database (SURVEY §4). At scale the same class runs on every
node of a serving tier behind any HTTP balancer; the index directory
is immutable shared storage, so servers are stateless replicas.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import MappingProxyType
from urllib.parse import parse_qsl, urlsplit

import pyarrow as pa
import pyarrow.compute as pc

from .cache import BoundedCache

SUCCESS = 0
GRN_INVALID_ARGUMENT = -22  # include/groonga/groonga.h rc values
GRN_UNKNOWN_ERROR = -1


def _rebuild_index(index_dir: str, files: list, cfg, next_docid: int | None = None) -> None:
    """Rebuild ``index_dir`` anew in place, keeping the server's
    ``next_docid``; the new ``meta.json`` makes ``open_index`` reopen."""
    import os
    import shutil

    from .build import build_index, read_manifest, write_manifest

    shutil.rmtree(index_dir, ignore_errors=True)
    build_index(list(files), index_dir, cfg)
    if next_docid is not None:
        path = os.path.join(index_dir, "meta.json")
        write_manifest(path, {**read_manifest(path), "next_docid": next_docid})


def _split_cols(v: str | None, default=("_id", "_score")):
    """Split an output_columns spec on TOP-LEVEL commas only — commas
    inside function calls (``edit_distance(name, "x")``) belong to the
    expression (grn_obj_columns tokenizer, lib/db.c:11187)."""
    if not v:
        return tuple(default)
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    cur: list[str] = []
    for ch in v:
        if quote:
            cur.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            cur.append(ch)
        elif ch in "([":
            depth += 1
            cur.append(ch)
        elif ch in ")]":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return tuple(p.strip() for p in parts if p.strip())


def read_command_table(files, columns=None, cap: int = 2_000_000) -> pa.Table:
    """Whole-table read for COMMAND-SURFACE tables (DDL'd and loaded
    through ``/d/load`` — at most thousands of rows). The cap asserts
    this path can never silently absorb a corpus-scale registered
    table: those are served by the streaming engine scans."""
    import pyarrow.parquet as pq

    n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if n > cap:
        raise ValueError(
            f"command-surface full-table read of {n} rows (cap {cap}); "
            "corpus-scale tables must go through the streaming scan paths"
        )
    return pa.concat_tables(
        [pq.read_table(f, columns=columns) for f in files],
        promote_options="default",
    )


def grn_partial_sort(entries: list, after, offset: int, limit: int) -> list:
    """Exact replica of the reference's partial quicksort
    (grn_table_sort_reference, lib/db.c:10029-10060: ``pack`` +
    median-of-3 ``part`` + range-pruned recursion). Tie order among
    equal keys is NOT stable — it is the deterministic artifact of this
    algorithm, and select output depends on it (select/sort/index).

    ``entries`` must be in the table's cursor enumeration order (PAT:
    key order; array/hash: id order). ``after(a, b)`` returns True iff
    ``a`` must sort after ``b`` (compare_reference semantics: DESC keys
    compare with swapped operands). Returns entries[offset:offset+limit]
    of the partially sorted array."""
    n = len(entries)
    if n == 0 or limit <= 0:
        return []
    arr: list = [None] * n
    e_end = offset + limit

    def part(b: int, e: int):
        # part_reference, lib/db.c:9946-9979
        d = e - b
        if after(arr[b], arr[e]):
            arr[b], arr[e] = arr[e], arr[b]
        if d < 2:
            return None
        c = b + (d >> 1)
        if after(arr[b], arr[c]):
            arr[b], arr[c] = arr[c], arr[b]
        elif after(arr[c], arr[e]):
            arr[c], arr[e] = arr[e], arr[c]
        if d < 3:
            return None
        b += 1
        arr[b], arr[c] = arr[c], arr[b]
        c = b
        while True:
            b += 1
            while after(arr[c], arr[b]):
                b += 1
            e -= 1
            while after(arr[e], arr[c]):
                e -= 1
            if b >= e:
                break
            arr[b], arr[e] = arr[e], arr[b]
        arr[c], arr[e] = arr[e], arr[c]
        return e

    def sort(head: int, tail: int, frm: int, to: int) -> None:
        # sort_reference, lib/db.c:9983-9999
        if head < tail:
            c = part(head, tail)
            if c is not None:
                m = c - head + 1
                if frm < m - 1:
                    sort(head, c - 1, frm, to)
                if m < to:
                    sort(c + 1, tail, frm - m, to - m)

    # pack, lib/db.c:10002-10027: first entry is the pivot guess
    head, tail = 0, n - 1
    c0 = entries[0]
    for ent in entries[1:]:
        if after(c0, ent):
            arr[head] = ent
            head += 1
        else:
            arr[tail] = ent
            tail -= 1
    arr[head] = c0
    if n > 2:
        m = head + 1
        if offset < m - 1:
            sort(0, head - 1, offset, e_end)
        if m < e_end:
            sort(head + 1, n - 1, offset - m, e_end - m)
    return arr[offset:e_end]


def _table_envelope(tbl, score_int32=True) -> list:
    """One result set in the v1 shape ``[[nhits], [[name, type]...],
    rows...]`` (lib/output.c:1130-1180)."""
    from . import score as score_mod

    cols = []
    body_cols = []
    for name in tbl.column_names:
        col = tbl.column(name)
        if name == "_score" and score_int32 and pa.types.is_floating(col.type):
            cols.append(["_score", "Int32"])
            body_cols.append(score_mod.score_int32(col.to_numpy()).tolist())
        elif name == "_id":
            cols.append(["_id", "UInt32"])
            body_cols.append([int(v) for v in col.to_pylist()])
        else:
            cols.append([name, str(col.type)])
            body_cols.append(col.to_pylist())
    rows = [list(r) for r in zip(*body_cols)] if body_cols else []
    return [[tbl.num_rows], cols, *rows]


class _TSVWriter:
    """Replica of the reference's TSV content serializer — the same
    open/close/scalar event machine that drives the JSON writer, with
    the TSV delimiter rules (lib/output.c:35-62 put_delimiter,
    :71-134 array open/close, :136-201 map open/close, scalar cases).
    State: a stack of per-depth element counters (LEVELS); containers
    push a counter (arrays 0, maps 1), every element/close adds 2 to
    its parent's counter."""

    def __init__(self):
        self.buf: list[str] = []
        self.levels: list[int] = []

    # -- machine primitives
    def _delim(self) -> None:
        level = self.levels[-1] if self.levels else 0
        if level < 2:
            return
        if len(self.levels) <= 2:
            self.buf.append("\t" if (level & 3) == 3 else "\n")
        else:
            self.buf.append("\t")

    def _incr(self) -> None:
        if self.levels:
            self.levels[-1] += 2

    def _open(self, mark: str, init: int) -> None:
        self._delim()
        if len(self.levels) > 2:
            self.buf.append(mark + "\t")
        self.levels.append(init)

    def _close(self, mark: str) -> None:
        if len(self.levels) > 3:
            if self.levels[-1] >= 2:
                self.buf.append("\t")
            self.buf.append(mark)
        self.levels.pop()
        self._incr()

    def _scalar(self, v) -> None:
        self._delim()
        if v is None:
            pass  # TSV null is empty (lib/output.c:408-410)
        elif isinstance(v, bool):
            self.buf.append("true" if v else "false")
        elif isinstance(v, (int, float)):
            self.buf.append(json.dumps(v))
        else:
            # grn_text_esc: JSON-style quoted escape (lib/output.c:337)
            self.buf.append(json.dumps(str(v), ensure_ascii=False))
        self._incr()

    # -- generic walk (the grn_output_obj event stream)
    def emit(self, obj) -> None:
        if isinstance(obj, (list, tuple)):
            self._open("[", 0)
            for el in obj:
                self.emit(el)
            self._close("]")
        elif isinstance(obj, dict):
            self._open("{", 1)
            for k, v in obj.items():
                self._scalar(k)
                self.emit(v)
            self._close("}")
        else:
            self._scalar(obj)

    def result(self) -> str:
        return "".join(self.buf)


def tsv_envelope(rc, started, elapsed, body, err=None) -> str:
    """The TSV envelope (lib/output.c:1878-1893): tab-joined header
    line, the body event stream, then the END footer."""
    head = f"{rc}\t{started}\t{elapsed}"
    if err is not None:
        head += "\t" + json.dumps(str(err), ensure_ascii=False)
    out = head + "\n"
    if err is None and body is not None:
        w = _TSVWriter()
        w.emit(body)
        out += w.result()
    return out + "\nEND"


@dataclass
class TableDef:
    """The catalog entry of a table_create'd table for its whole life
    (the table object of proc_table_create / proc_column_create,
    lib/proc.c): pending until the first load materializes it into a
    real index (until then select returns an empty set), loaded after
    that, pending again after a truncate. Rename and remove move or
    drop this one object."""

    name: str
    flags: str = "TABLE_PAT_KEY"
    key_type: str = "ShortText"
    default_tokenizer: str = "TokenBigram"
    normalizer: str = ""
    token_filters: tuple = ()
    columns: dict = field(default_factory=dict)   # name -> type
    # sources with a text index column; empty on a loaded table means
    # every string column was indexed for scans and a multi-column
    # match has no index to drive it
    indexed: set = field(default_factory=set)
    geo_indexed: set = field(default_factory=set)  # GeoPoint sources with a geo index
    vector_columns: set = field(default_factory=set)  # COLUMN_VECTOR columns
    # index columns hosted here: name -> (data table, sources, is_geo)
    index_columns: dict = field(default_factory=dict)
    truncated_indexes: set = field(default_factory=set)  # hosted, emptied
    deleted_terms: set = field(default_factory=set)  # keys deleted while pending


class CommandServer:
    """``groonga --protocol http`` analogue: serve the registered
    command set over ``/d/<command>``.

    ``tables`` maps select's ``table=`` argument to
    :class:`~groonga_ray.engine.IndexedTable` handles; ``suggest_datasets``
    maps the suggest command's ``table=`` argument to learned dataset
    directories (plugins/suggest: the dataset name selects the
    item/pair tables)."""

    def __init__(
        self,
        tables: dict | None = None,
        suggest_datasets: dict[str, str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | None = None,
    ):
        self.tables = tables or {}
        self.suggest_datasets = suggest_datasets or {}
        self.data_dir = data_dir          # home of table_create'd tables
        # the catalog: one entry per table_create'd table, loaded or not
        # (a loaded one also has a handle in ``tables`` and its _id is
        # assigned by the server)
        self.defs: dict[str, TableDef] = {}
        self._sgg: dict[str, dict] = {}     # suggest dataset -> learn state
        self._obj_ids: dict = {}            # catalog object -> grn_obj id
        self._next_obj_id = 256
        self._copied: dict[str, str] = {}   # copy_path destination -> source
        self._alt_built: dict = {}          # sibling index dir -> build signature
        self._tsv_expander = False          # query_expanders/tsv registered
        # grn_cache: 100 entries by default, /d/cache_limit resizes it
        self._select_cache = BoundedCache(max_items=100)
        from .engine import set_query_expander_resolver

        set_query_expander_resolver(self._resolve_query_expander)
        self._commands = {
            "select": self._cmd_select,
            "status": self._cmd_status,
            "tokenize": self._cmd_tokenize,
            "normalize": self._cmd_normalize,
            "suggest": self._cmd_suggest,
            "shutdown": self._cmd_shutdown,
            "register": self._cmd_register,
            "table_list": self._cmd_table_list,
            "column_list": self._cmd_column_list,
            "load": self._cmd_load,
            "delete": self._cmd_delete,
            "defrag": self._cmd_defrag,
            "table_create": self._cmd_table_create,
            "column_create": self._cmd_column_create,
            "column_remove": self._cmd_column_remove,
            "table_remove": self._cmd_table_remove,
            "table_rename": self._cmd_table_rename,
            "table_tokenize": self._cmd_table_tokenize,
            "truncate": self._cmd_truncate,
            "suggest_create_dataset": self._cmd_suggest_create_dataset,
            "copy_path": self._cmd_copy_path,
            "define_selector": self._cmd_define_selector,
            "tokenizer_list": self._cmd_tokenizer_list,
            "normalizer_list": self._cmd_normalizer_list,
            "cache_limit": self._cmd_cache_limit,
            "log_level": self._cmd_log_level,
            "log_put": self._cmd_log_put,
            "log_reopen": lambda p: True,
            "clearlock": self._cmd_clearlock,
            "lock_clear": self._cmd_clearlock,
            "quit": lambda p: True,
            "request_cancel": self._cmd_request_cancel,
            "logical_count": self._cmd_logical_count,
            "logical_range_filter": self._cmd_logical_range_filter,
            "range_filter": self._cmd_range_filter,
            "column_rename": self._cmd_column_rename,
            "plugin_unregister": self._cmd_plugin_unregister,
            "dump": self._cmd_dump,
            "plugin_register": self._cmd_plugin_register,
            "ruby_eval": self._cmd_ruby_eval,
            "ruby_load": self._cmd_ruby_load,
        }
        # DDL journal: creation-order record of tables/columns/plugins,
        # exactly what proc_dump walks by object id (lib/proc.c:3296).
        self._ddl_tables: list[dict] = []
        self._ddl_cols: list[dict] = []
        self._plugins: list[str] = []
        self._mutate_lock = threading.Lock()
        self._started = time.time()
        self._n_queries = 0
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):  # quiet
                pass

            def do_GET(self):
                server._handle(self, self.path)

            def do_POST(self):
                # POST body: for load it is the JSON values payload
                # (do_htreq_post src/groonga.c:1171-1293 routes the body
                # to the load command's values); for every other command
                # it is a query-string continuation
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length).decode("utf-8") if length else ""
                path = self.path
                cmd = urlsplit(path).path
                if cmd.endswith(".json"):
                    cmd = cmd[: -len(".json")]
                if cmd == "/d/load" and body.lstrip()[:1] in ("[", "{"):
                    server._handle(self, path, body_values=body)
                    return
                if body:
                    path = path + ("&" if "?" in path else "?") + body
                server._handle(self, path)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def pending(self) -> "MappingProxyType[str, TableDef]":
        """The created tables that hold no records: never loaded, or
        truncated since."""
        return MappingProxyType(
            {n: td for n, td in self.defs.items() if n not in self.tables}
        )

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    # ------------------------------------------------------------- dispatch
    def register_command(self, name: str, fn) -> None:
        """Plugin surface: command procs registered at runtime
        (grn_proc registration, lib/proc.c:5600+)."""
        self._commands[name] = fn

    def _handle(
        self, req: BaseHTTPRequestHandler, rawpath: str, body_values: str | None = None
    ) -> None:
        started = time.time()
        parts = urlsplit(rawpath)
        path = parts.path
        params = {k: v for k, v in parse_qsl(parts.query, keep_blank_values=True)}
        if body_values is not None:
            params["values"] = body_values
        # output_type: json (default), tsv, or msgpack, from the query
        # arg or the /d/<command>.<type> path suffix (grn_ctx_qe_exec,
        # lib/ctx.c:1240-1256); xml stays out of scope
        output_type = params.pop("output_type", "json")
        params.pop("command_version", None)  # v1 only
        status = 200
        rc = SUCCESS
        body = None
        err = None
        shutdown = False
        if not path.startswith("/d/"):
            status, rc, err = 404, GRN_INVALID_ARGUMENT, f"not found: {path}"
        else:
            name = path[3:]
            for suffix in (".json", ".tsv", ".msgpack"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
                    output_type = suffix[1:]
            rc, body, err, shutdown = self.dispatch(name, params)
            if rc != SUCCESS:
                status = 400 if rc == GRN_INVALID_ARGUMENT else 500
        elapsed = time.time() - started
        # ONE envelope shape for every output type; the branches below
        # only serialize it (json / msgpack carry it verbatim, tsv's
        # delimiter machine renders the same head/body/err triple)
        head = [rc, round(started, 6), round(elapsed, 6)]
        if err is not None:
            env = [head + [err]]
        else:
            env = [head, body] if body is not None else [head]
        if output_type == "tsv":
            payload = tsv_envelope(
                rc, round(started, 6), round(elapsed, 6), body, err
            ).encode("utf-8")
            mime = "text/tab-separated-values"
        elif output_type == "msgpack":
            # packed binary of the identical element stream
            # (lib/output.c msgpack_pack_*; mime lib/ctx.c:1130)
            from .msgpackio import pack

            payload = pack(env)
            mime = "application/x-msgpack"
        else:
            payload = json.dumps(env, ensure_ascii=False).encode("utf-8")
            mime = "application/json"
        try:
            req.send_response(status)
            req.send_header("Content-Type", mime)
            req.send_header("Content-Length", str(len(payload)))
            req.end_headers()
            req.wfile.write(payload)
        except BrokenPipeError:
            pass
        if shutdown:
            threading.Thread(target=self.stop, daemon=True).start()

    def dispatch(self, name: str, params: dict):
        """Execute one command; protocol-independent core shared by the
        HTTP handler and the GQTP server.

        Returns ``(rc, body, err, shutdown)``: the Groonga rc, the
        result body (None on error), the error message (None on
        success), and whether the command requests server shutdown.
        """
        fn = self._commands.get(name)
        if fn is None:
            # invalid command name (lib/ctx.c:1392)
            return GRN_INVALID_ARGUMENT, None, f"invalid command name: {name}", False
        try:
            body = fn(params)
            self._n_queries += 1
            return SUCCESS, body, None, name == "shutdown"
        except (KeyError, ValueError) as e:
            return GRN_INVALID_ARGUMENT, None, str(e), False
        except Exception as e:  # noqa: BLE001 - envelope everything
            return GRN_UNKNOWN_ERROR, None, f"{type(e).__name__}: {e}", False

    # ------------------------------------------------------------- commands
    @staticmethod
    def _validate_pending_filter(td: "TableDef", flt: str) -> None:
        """Compile-time checks a select on an EMPTY (pending) table
        still performs: geo_in_rectangle corner bounds
        (lib/geo.c:1094-1166) and the selector-form index requirement."""
        from .geo import parse_geopoint, validate_rectangle
        from .script import parse_filter, split_filter

        ast = parse_filter(flt)

        def walk(n):
            if isinstance(n, tuple):
                if (
                    n[0] == "call" and n[1] == "geo_in_rectangle"
                    and isinstance(n[2], list) and len(n[2]) == 3
                    and n[2][1][0] == "str" and n[2][2][0] == "str"
                ):
                    tl_lat, tl_lon = (int(v[0]) for v in parse_geopoint(n[2][1][1]))
                    br_lat, br_lon = (int(v[0]) for v in parse_geopoint(n[2][2][1]))
                    validate_rectangle(tl_lat, tl_lon, br_lat, br_lon)
                for c in n[1:]:
                    walk(c)
            elif isinstance(n, list):
                for c in n:
                    walk(c)

        walk(ast)
        split_filter(ast, geo_columns=set(td.geo_indexed))

    def _invalidate(self) -> None:
        """After any catalog/data mutation: drop the select cache and
        the lazily resolved reference links (a reload swaps the
        referenced table's files, so cached links would be stale)."""
        from dataclasses import replace

        self._select_cache.clear()
        for n, t in list(self.tables.items()):
            td = self.defs.get(n)
            if td is not None and td.columns and t.refs:
                self.tables[n] = replace(t, refs=None)

    def _ddl_table(self, name: str | None) -> dict | None:
        """The journal entry of a created table (None for registered ones)."""
        return next((x for x in self._ddl_tables if x["name"] == name), None)

    def _table(self, params: dict):
        name = params.get("table")
        if not name:
            if len(self.tables) == 1:
                name = next(iter(self.tables))
            else:
                raise KeyError("table is required")
        if name not in self.tables:
            raise KeyError(f"unknown table: {name}")
        return self._resolve_refs(name, self.tables[name])

    def _resolve_refs(self, name: str, t, _seen: frozenset = frozenset()):
        """Attach reference-column links: a column whose declared type
        is another LOADED table references it by ``_key`` (the schema
        link grn_obj_get_range provides, lib/db.c) — this is what
        nested match / sub_filter / dotted projections traverse.
        Resolution is lazy (the referenced table may load after this
        one) and cached back into the catalog."""
        import pyarrow.parquet as pq
        from dataclasses import replace

        td = self.defs.get(name)
        decls = td.columns if td is not None else None
        if name in _seen:
            return t
        refs = dict(t.refs or {})
        changed = False
        # reverse links: an index column HOSTED here whose data table
        # is loaded — sub_filter(index_col, ...) scopes through it
        # (grn_accessor LOOKUP resolution, lib/proc.c:5269)
        for c in self._ddl_cols:
            if (
                c["table"] == name and c["is_index"]
                and c["type"] != name and c["name"] not in refs
                and c["type"] in self.tables
            ):
                src = (c["source"] or "").split(",")[0].strip()
                if not src or src == "_key":
                    continue
                data_t = self._resolve_refs(
                    c["type"], self.tables[c["type"]], _seen | {name}
                )
                refs[c["name"]] = (
                    list(data_t.source_files), src, data_t, "reverse",
                )
                changed = True
        if not decls:
            if changed:
                t = replace(t, refs=refs)
                self.tables[name] = t
            return t
        for col, typ in decls.items():
            if col in refs or typ == name:
                continue
            ref_t = self.tables.get(typ)
            if ref_t is None:
                continue
            ref_t = self._resolve_refs(typ, ref_t, _seen | {name})
            key_col = (
                "_key"
                if "_key" in pq.read_schema(ref_t.source_files[0]).names
                else "_id"
            )
            refs[col] = (list(ref_t.source_files), key_col, ref_t)
            changed = True
        if changed:
            t = replace(t, refs=refs)
            self.tables[name] = t
        return t

    def _lexicon_select(self, params: dict) -> list | None:
        """select over a never-loaded keyed table that is POPULATED by
        interning — index columns tokenizing into it or reference
        columns typed to it (grn_table_add during load, lib/db.c): the
        reference shows those records like any table (``select Terms``
        after loading the data table). Handles the plain read surface
        (_id/_key output, sortby on _id/_key, offset/limit); anything
        deeper returns None so the caller keeps the empty-table path."""
        name = params.get("table")
        t = self._ddl_table(name)
        if t is None or "NO_KEY" in (t["flags"] or ""):
            return None
        if any(params.get(k) for k in (
            "query", "filter", "match_columns", "drilldown", "scorer",
            "adjuster", "query_expander", "query_expansion",
        )):
            return None
        feeds = any(
            (c["table"] == name and c["is_index"] and c["type"] in self.tables)
            or (c["type"] == name and not c["is_index"]
                and c["table"] in self.tables)
            for c in self._ddl_cols
        )
        if not feeds:
            return None
        keys = self._derived_keys(t)            # intern (= _id) order
        own_cols = [
            c for c in self._ddl_cols if c["table"] == name
        ]
        col_vals: list[tuple[str, str, dict | object]] = []
        truncated = self.defs[name].truncated_indexes
        for c in own_cols:
            if c["is_index"]:
                counts = (
                    {} if c["name"] in truncated
                    else self._index_posting_counts(t, c)
                )
                col_vals.append((c["name"], "UInt32", counts))
            else:
                d = (
                    0 if c["type"].startswith(("Int", "UInt"))
                    else 0.0 if c["type"] in ("Float", "Time") else ""
                )
                col_vals.append((c["name"], c["type"], d))
        rows = [
            [i + 1, k] + [
                (v.get(k, 0) if isinstance(v, dict) else v)
                for _, _, v in col_vals
            ]
            for i, k in enumerate(keys)
        ]
        sort_specs = [
            s.strip() for s in
            (params.get("sortby") or params.get("sort_keys") or "").split(",")
            if s.strip()
        ]
        colpos = {cn: 2 + j for j, (cn, _, _) in enumerate(col_vals)}
        if any(s.lstrip("+-") not in ("_id", "_key") for s in sort_specs):
            # a sort key is an own data/index column: the reference
            # runs grn_table_sort_reference over the table's cursor
            # order (PAT: key order) — tie order is the quicksort's
            # (select/sort/index).
            keyspec = []
            for s in sort_specs:
                col = s.lstrip("+-")
                if col in ("_id", "_key"):
                    idx = 0 if col == "_id" else 1
                elif col in colpos:
                    idx = colpos[col]
                else:
                    return None
                keyspec.append((idx, s.startswith("-")))

            def _after(a, b):
                for idx, desc in keyspec:
                    va, vb = (b[idx], a[idx]) if desc else (a[idx], b[idx])
                    if va != vb:
                        try:
                            return va > vb
                        except TypeError:
                            return str(va) > str(vb)
                return False

            if "PAT_KEY" in t["flags"] or "DAT_KEY" in t["flags"]:
                cursor = sorted(
                    rows, key=lambda r: (isinstance(r[1], str), r[1])
                )
            else:
                cursor = rows
            n = len(rows)
            offset = int(params.get("offset") or 0)
            limit = (
                int(params["limit"])
                if params.get("limit") not in (None, "") else 10
            )
            if offset < 0:
                offset += n
            if limit < 0:
                limit += n + 1
            rows = grn_partial_sort(
                cursor, _after, max(offset, 0), max(limit, 0)
            )
        else:
            for spec in reversed(sort_specs):
                desc = spec.startswith("-")
                col = spec.lstrip("+-")
                if col == "_key":
                    rows.sort(key=lambda r: (isinstance(r[1], str), r[1]),
                              reverse=desc)
                elif col == "_id":
                    rows.sort(key=lambda r: r[0], reverse=desc)
            n = len(rows)
            offset = int(params.get("offset") or 0)
            limit = (
                int(params["limit"])
                if params.get("limit") not in (None, "") else 10
            )
            if offset < 0:
                offset += n
            if limit < 0:
                limit += n + 1
            rows = rows[max(offset, 0):max(offset, 0) + max(limit, 0)]
        out_cols = _split_cols(params.get("output_columns")) or [
            "_id", "_key", "*",
        ]
        hdr_types = {"_id": "UInt32", "_key": t.get("key_type") or "ShortText"}
        pos = {"_id": 0, "_key": 1}
        for j, (cn, ct, _) in enumerate(col_vals):
            hdr_types[cn] = ct
            pos[cn] = 2 + j
        header, idxs = [], []
        for c in out_cols:
            if c == "*":
                # every own data/index column in creation order
                for j, (cn, ct, _) in enumerate(col_vals):
                    header.append([cn, ct])
                    idxs.append(2 + j)
                continue
            if c not in hdr_types:
                return None
            header.append([c, hdr_types[c]])
            idxs.append(pos[c])
        body_rows = [[r[i] for i in idxs] for r in rows]
        return [[[n], header, *body_rows]]

    def _cmd_select(self, params: dict) -> list:
        """``/d/select`` (grn_select surface, lib/proc.c:876-1195).
        ``scorer`` is the score-updating expression like the reference
        (our engine's ``scorer_expr``); drilldown result sets follow
        the main set in the body."""
        from .engine import select

        td = self.defs.get(params.get("table"))
        if td is not None and td.name not in self.tables:
            lex_rows = self._lexicon_select(params)
            if lex_rows is not None:
                return lex_rows
            # created but never loaded: argument validation still runs
            # (the reference compiles the filter expression before
            # scanning — invalid geo args error even on empty tables)
            if params.get("filter"):
                self._validate_pending_filter(td, params["filter"])
            qe0 = params.get("query_expander") or params.get("query_expansion")
            if qe0:
                self._resolve_query_expander(qe0)  # raises on bad spec
            return [[[0], [["_id", "UInt32"], ["_score", "Int32"]]]]
        import re as _re

        flags_s = params.get("query_flags") or ""
        m_upd = _re.fullmatch(r"(\w+):=(.+)", (params.get("query") or "").strip())
        if m_upd and "ALLOW_UPDATE" in flags_s:
            # --query 'col:=v' --query_flags ALLOW_UPDATE assigns the
            # value to EVERY record the expression visits (GRN_OP_
            # ASSIGN in query syntax, lib/expr.c:5723; select/
            # query_flags/allow_update) and the records all match
            col, val = m_upd.group(1), m_upd.group(2)
            t0 = self._table(params)
            import pyarrow.parquet as _pq

            n = sum(_pq.ParquetFile(f).metadata.num_rows for f in t0.source_files)
            recs = json.dumps([{"_id": i + 1, col: val} for i in range(n)])
            self._cmd_load({"table": params["table"], "values": recs})
            params = {k: v for k, v in params.items() if k != "query"}
        use_cache = params.get("cache") != "no"
        cache_key = None
        if use_cache and self._select_cache.max_items > 0:
            cache_key = json.dumps(sorted(params.items()))
            hit = self._select_cache.get(cache_key)
            if hit is not None:
                return hit
        table = self._table(params)
        cast_fail = self._html_untag_cast_failure(params, table)
        if cast_fail is not None:
            return cast_fail
        if params.get("match_columns"):
            alt = self._alt_index_for(
                params.get("table"), params["match_columns"], table
            )
            if alt is not None:
                table = alt
        kwargs: dict = {}
        for k in ("query", "filter", "match_columns", "adjuster", "query_flags"):
            if params.get(k):
                kwargs[k] = params[k]
        if kwargs.get("filter") and "[" in kwargs["filter"]:
            kwargs["filter"] = self._resolve_record_literals(kwargs["filter"])
        if kwargs.get("filter") and "_key" in kwargs["filter"]:
            ddl_t0 = self._ddl_table(params.get("table"))
            if ddl_t0 is not None and (
                ddl_t0.get("normalizer")
                or "KEY_NORMALIZE" in (ddl_t0.get("flags") or "")
            ):
                # _key comparisons against a normalized key table
                # normalize the literal (grn_table_get interning —
                # load/utf8_4byte/normalize)
                import re as _re3
                import unicodedata as _ud3

                kwargs["filter"] = _re3.sub(
                    r'(_key\s*[=!]=\s*)"((?:[^"\\]|\\.)*)"',
                    lambda m: m.group(1) + json.dumps(
                        _ud3.normalize("NFKC", m.group(2)).lower()
                    ),
                    kwargs["filter"],
                )
        if params.get("scorer"):
            kwargs["scorer_expr"] = params["scorer"]
        if params.get("sortby"):
            kwargs["sortby"] = params["sortby"]
        elif not any(
            kwargs.get(k) for k in ("query", "filter", "match_columns")
        ):
            # a no-condition select outputs the table's own cursor
            # order — KEY order for PAT/DAT-keyed tables (grn_table
            # cursor default, lib/pat.c; visible when limit truncates:
            # suffix_search/patricia_trie_key_with_sis)
            tddl = self._ddl_table(params.get("table"))
            if tddl is not None and (
                "PAT_KEY" in (tddl["flags"] or "")
                or "DAT_KEY" in (tddl["flags"] or "")
            ):
                kwargs["sortby"] = "_key"
        kwargs["output_columns"] = _split_cols(params.get("output_columns"))
        for k in ("offset", "limit", "match_escalation_threshold"):
            if params.get(k) is not None and params.get(k) != "":
                kwargs[k] = int(params[k])
        specs: dict = {}
        n_plain = 0
        if params.get("drilldown"):
            # plain --drilldown a,b runs one INDEPENDENT single-key
            # drilldown per listed key, each its own result set
            # (lib/proc.c:705-780), sharing the drilldown_* options
            plain_opts: dict = {}
            if params.get("drilldown_sortby"):
                plain_opts["sortby"] = params["drilldown_sortby"]
            if params.get("drilldown_calc_target"):
                plain_opts["calc_target"] = params["drilldown_calc_target"]
            if params.get("drilldown_calc_types"):
                plain_opts["calc_types"] = tuple(
                    t.strip() for t in params["drilldown_calc_types"].split(",")
                )
            if params.get("drilldown_output_columns"):
                plain_opts["output_columns"] = [
                    c.strip()
                    for c in params["drilldown_output_columns"].split(",")
                    if c.strip()
                ]
            if params.get("drilldown_limit") not in (None, ""):
                plain_opts["limit"] = int(params["drilldown_limit"])
            for key in params["drilldown"].split(","):
                key = key.strip()
                if key:
                    specs[f"\x00plain{n_plain}"] = {"keys": [key], **plain_opts}
                    n_plain += 1
        specs.update(self._parse_labeled_drilldowns(params))
        created = td.columns if td is not None else {}
        for spec in specs.values():
            for key in spec.get("keys", ()):
                if created.get(key) in ("Text", "LongText"):
                    # grn_table_group rejects variable-size key types
                    # wider than ShortText (lib/db.c:3860)
                    raise ValueError(
                        f"cannot drilldown by {created.get(key)} column: <{key}>"
                    )
        if specs:
            kwargs["drilldowns"] = specs
        if (
            td is not None and not td.indexed
            and kwargs.get("query")
            and kwargs.get("match_columns")
        ):
            from .qlang import _split_depth0

            if len(_split_depth0(kwargs["match_columns"], "||")) > 1:
                # multi-column match with no index: nothing matches
                # (grn_table_select's sequential fallback is
                # single-column only, lib/expr.c:6103)
                kwargs.pop("query")
                kwargs.pop("match_columns")
                kwargs["filter"] = "1 == 0"
        qe = params.get("query_expander") or params.get("query_expansion")
        if qe:
            kwargs["query_expander"] = self._resolve_query_expander(qe)
        # grn_table_sort's descending scan puts score ties in
        # DESCENDING id order (select/match_columns/scorer/tf_at_most)
        kwargs["sort_tie"] = "desc"
        res = select(table, **kwargs)
        self._append_own_index_columns(params, res)
        self._render_weight_vectors(params, res)
        sets = [self._result_env(res)]
        if res.get("drilldowns") is not None:
            # plain drilldowns append one result set each, in key
            # order; labeled drilldowns are a map of result sets —
            # emitted (possibly empty) whenever any labeled spec was
            # requested (lib/proc.c:783)
            labeled_env = {}
            for label, t in res["drilldowns"].items():
                env = _table_envelope(t, score_int32=False)
                if label.startswith("\x00plain"):
                    sets.append(env)
                else:
                    labeled_env[label] = env
            if labeled_env or len(specs) > n_plain:
                sets.append(labeled_env)
        if cache_key is not None:
            self._select_cache.put(cache_key, sets)
        return sets

    def _html_untag_cast_failure(self, params: dict, table) -> list | None:
        """``html_untag(col)`` over a reference-typed column cannot
        cast the record to text (proc_html_untag → grn_obj_cast,
        lib/proc.c:5294): the reference errors with the record repr
        (select/function/html_untag/cast_failure)."""
        import re as _re

        m = _re.fullmatch(
            r"\s*html_untag\((\w+)\)\s*", params.get("output_columns") or ""
        )
        if not m:
            return None
        colname = m.group(1)
        cdef = next(
            (
                c for c in self._ddl_cols
                if c["table"] == params.get("table")
                and c["name"] == colname and not c["is_index"]
            ),
            None,
        )
        ref_t = cdef and self._ddl_table(cdef["type"])
        if ref_t is None or "NO_KEY" in (ref_t["flags"] or ""):
            return None
        kind = (
            "pat" if "PAT_KEY" in ref_t["flags"]
            else "dat" if "DAT_KEY" in ref_t["flags"] else "hash"
        )
        keys = self._derived_keys(ref_t)
        import pyarrow.parquet as _pq

        vals = pa.concat_tables(
            [
                _pq.read_table(f, columns=[colname])
                for f in table.source_files
            ],
            promote_options="default",
        ).column(colname).to_pylist()
        v = next((x for x in vals if x is not None), None)
        if v is None:
            return None
        raise ValueError(
            "failed to cast to text: "
            f'<#<record:{kind}:{ref_t["name"]} '
            f'id:{keys.index(v) + 1 if v in keys else 0} key:"{v}">>'
        )

    def _resolve_query_expander(self, spec: str) -> dict:
        """``--query_expander Synonyms.words`` (expand_query,
        lib/proc.c:330-430): the named table's ``_key`` column maps
        expandable terms to their substitution sub-queries."""
        if "." not in spec:
            if spec == "QueryExpanderTSV" and self._tsv_expander:
                return self._tsv_expander_dict()
            raise ValueError(f"query_expander must be Table.column: {spec!r}")
        import pyarrow.parquet as pq

        tname, col = spec.split(".", 1)
        st = self.tables.get(tname)
        if st is None:
            raise ValueError(f"unknown query expander table: {tname}")
        tb = pa.concat_tables(
            [pq.read_table(f, columns=["_key", col]) for f in st.source_files],
            promote_options="default",
        )
        from .normalize import normalize as _norm

        out: dict[str, str] = {}
        for k, v in zip(tb.column("_key").to_pylist(), tb.column(col).to_pylist()):
            if isinstance(v, list):
                # vector synonym column: elements OR-ed (expand_query
                # vector branch, lib/proc.c:376-398)
                v = "(" + " OR ".join(f"({e})" for e in v) + ")" if v else ""
            if not v:
                continue
            out[k] = v
            out.setdefault(_norm(k)[0], v)  # KEY_NORMALIZE lookup form
        return out

    @staticmethod
    def _parse_labeled_drilldowns(params: dict) -> dict:
        """``drilldowns[label].keys=a,b&drilldowns[label].limit=5`` →
        the engine's labeled-drilldown spec (the reference accepts both
        ``drilldowns[...]`` and legacy ``drilldown[...]`` prefixes,
        lib/proc.c:783-874)."""
        specs: dict[str, dict] = {}
        for k, v in params.items():
            for prefix in ("drilldowns[", "drilldown["):
                if k.startswith(prefix) and "]." in k:
                    label, _, attr = k[len(prefix):].partition("].")
                    spec = specs.setdefault(label, {})
                    if attr == "keys":
                        spec["keys"] = [c.strip() for c in v.split(",") if c.strip()]
                    elif attr in ("limit", "offset"):
                        spec[attr] = int(v)
                    elif attr == "calc_types":
                        spec["calc_types"] = tuple(t.strip() for t in v.split(","))
                    elif attr in ("sortby", "sort_keys"):
                        spec["sortby"] = v
                    elif attr == "calc_target":
                        spec["calc_target"] = v
                    elif attr == "output_columns":
                        spec["output_columns"] = [
                            c.strip() for c in v.split(",") if c.strip()
                        ]
                    break
        return specs

    def _append_own_index_columns(self, params: dict, res: dict) -> None:
        """``*`` on a table that hosts its OWN index columns renders
        them too, valued as the entry count of the row's source value
        (grn_obj_columns includes index columns; grn_output_obj over a
        COLUMN_INDEX shows the posting count — see also
        truncate/column/index)."""
        tname = params.get("table")
        own_idx = [
            c for c in self._ddl_cols
            if c["table"] == tname and c["is_index"] and c["type"] == tname
        ]
        if not own_idx:
            return
        oc = params.get("output_columns")
        if oc and "*" not in oc:
            return
        rows = res.get("rows")
        if rows is None:
            return
        t = self.tables.get(tname)
        if t is None:
            return
        import pyarrow.parquet as pq

        td = self.defs.get(tname)
        truncated = td.truncated_indexes if td is not None else ()
        for c in own_idx:
            if c["name"] in rows.column_names:
                continue
            src = (c["source"] or "").split(",")[0].strip()
            if not src or src not in rows.column_names:
                continue
            if c["name"] in truncated:
                counts = pa.array([0] * rows.num_rows, pa.int64())
            else:
                # entry count = occurrences of the row's value across
                # the stored records (vocabulary-sized value_counts)
                full = pa.concat_tables(
                    [pq.read_table(f, columns=[src]) for f in t.source_files],
                    promote_options="default",
                )
                vc = pc.value_counts(full.column(src).combine_chunks())
                cmap = {
                    d["values"]: d["counts"] for d in vc.to_pylist()
                }
                counts = pa.array(
                    [int(cmap.get(v, 0)) for v in rows.column(src).to_pylist()],
                    pa.int64(),
                )
            res["rows"] = rows = rows.append_column(c["name"], counts)

    def _render_weight_vectors(self, params: dict, res: dict) -> None:
        """A WITH_WEIGHT vector renders as a ``{"element": weight}``
        object (grn_output weighted vector, lib/output.c). Storage is
        the repeat encoding (weight+1 copies — see
        _normalize_weight_vectors), so the weight is count-1."""
        tname = params.get("table")
        wcols = {
            c["name"] for c in self._ddl_cols
            if c["table"] == tname and not c["is_index"]
            and "WITH_WEIGHT" in (c["flags"] or "")
        }
        rows = res.get("rows")
        if not wcols or rows is None:
            return
        for cn in wcols:
            if cn not in rows.column_names:
                continue
            col = rows.column(cn)
            if not (
                pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
            ):
                continue
            objs = []
            for lst in col.to_pylist():
                if lst is None:
                    objs.append(None)
                    continue
                counts: "OrderedDict[str, int]" = OrderedDict()
                for e in lst:
                    counts[e] = counts.get(e, 0) + 1
                objs.append({k: v - 1 for k, v in counts.items()})
            i = rows.column_names.index(cn)
            rows = rows.remove_column(i)
            # dict values ride as python objects through the envelope
            res["rows"] = rows
            res.setdefault("_obj_cols", {})[cn] = (i, objs)

    def _resolve_record_literals(self, flt: str) -> str:
        """Fold ``Table["key"].column`` record accessors in a filter to
        their constant values (the reference compiles these as constant
        subexpressions — grn_expr record literal, lib/expr.c). The
        subscript may be a string-literal concatenation."""
        import re as _re

        import pyarrow.parquet as pq

        pat = _re.compile(
            r'\b(\w+)\[((?:"(?:[^"\\]|\\.)*"|\s|\+)+)\]\.(\w+)'
        )

        def _subscript_value(expr: str) -> str | None:
            parts = _re.findall(r'"((?:[^"\\]|\\.)*)"', expr)
            rest = _re.sub(r'"(?:[^"\\]|\\.)*"', "", expr)
            if rest.strip().replace("+", "").strip():
                return None
            return "".join(parts)

        def repl(m: "_re.Match") -> str:
            tname, sub, col = m.group(1), m.group(2), m.group(3)
            t = self.tables.get(tname)
            if t is None:
                return m.group(0)
            key = _subscript_value(sub)
            if key is None:
                return m.group(0)
            td = self.defs.get(tname)
            if td is not None and (
                td.normalizer or "KEY_NORMALIZE" in (td.flags or "")
            ):
                import unicodedata as _ud

                key = _ud.normalize("NFKC", key).lower()
            val = None
            for f in t.source_files:
                tb = pq.read_table(f, columns=["_key", col])
                keys = tb.column("_key").to_pylist()
                if key in keys:
                    val = tb.column(col).to_pylist()[keys.index(key)]
                    break
            if val is None:
                val = ""
            if isinstance(val, str):
                return json.dumps(val)
            if isinstance(val, bool):
                return "true" if val else "false"
            return repr(val)

        return pat.sub(repl, flt)

    def _result_env(self, res: dict) -> list:
        env = _table_envelope(res["rows"])
        for cn, (i, objs) in (res.get("_obj_cols") or {}).items():
            # splice object-valued (weighted vector) columns back at
            # their original position
            env[1].insert(i, [cn, "ShortText"])
            for r in range(2, len(env)):
                env[r].insert(i, objs[r - 2] if r - 2 < len(objs) else None)
        env[0] = [res["hits"]]
        if len(env) == 2 and not env[1] and res.get("n_out", 0):
            # every projected column was dropped: the records still
            # render, as empty value lists (grn_output 0-col sets)
            env.extend([[] for _ in range(res["n_out"])])
        return env

    def _cmd_status(self, params: dict) -> dict:
        """``/d/status`` (proc_status, lib/proc.c:1240-1290)."""
        import groonga_ray

        from .index import cache_stats

        return {
            "uptime": int(time.time() - self._started),
            "starttime": int(self._started),
            "n_queries": self._n_queries,
            "version": getattr(groonga_ray, "__version__", "0"),
            "tables": sorted(self.tables),
            "suggest_datasets": sorted(self.suggest_datasets),
            "caches": {**cache_stats(), "select_cache": self._select_cache.stats()},
        }

    def _cmd_tokenize(self, params: dict) -> list:
        """``/d/tokenize?tokenizer=..&string=..&normalizer=..&flags=..
        &mode=ADD`` (proc_tokenize, lib/proc.c:3779-3894). Without a
        normalizer the text is tokenized raw, like the reference;
        ENABLE_TOKENIZED_DELIMITER activates U+FFFE splitting."""
        from .tokenize import tokenize

        from .normalize import CUSTOM_NORMALIZERS

        tokenizer = params.get("tokenizer") or "TokenBigram"
        string = params["string"]
        mode = (params.get("mode") or "ADD").lower()
        if mode not in ("add", "get"):
            raise ValueError(f"[tokenize] invalid mode: {params.get('mode')}")
        flags = {f.strip() for f in (params.get("flags") or "").split("|") if f.strip()}
        if flags - {"NONE", "ENABLE_TOKENIZED_DELIMITER"}:
            raise ValueError(f"[tokenize] invalid flag: {params.get('flags')}")
        norm_name = params.get("normalizer")
        if norm_name and norm_name not in (
            "NONE", "NormalizerAuto", "NormalizerNFKC51",
        ) and norm_name not in CUSTOM_NORMALIZERS:
            raise ValueError(f"[tokenize] unknown normalizer: {norm_name}")
        stream = tokenize(
            string, tokenizer, mode=mode,
            normalizer=params.get("normalizer") or None,
            enable_tokenized_delimiter="ENABLE_TOKENIZED_DELIMITER" in flags,
        )
        if params.get("token_filters"):
            from .tokenfilters import apply_chain_stream, build_chain

            chain = build_chain(
                {"token_filters": [
                    t.strip() for t in params["token_filters"].split(",") if t.strip()
                ]}
            )
            stream = apply_chain_stream(chain, stream, mode)
        return [
            {"value": t.term, "position": t.pos} for t in stream.tokens
        ]

    def _cmd_normalize(self, params: dict) -> dict:
        """``/d/normalize?normalizer=..&string=..&flags=WITH_TYPES|...``
        (proc_normalize, lib/proc.c:3896-3955). Blanks are kept unless
        REMOVE_BLANK; types/checks are emitted only when requested,
        matching the reference envelope exactly."""
        from .normalize import CUSTOM_NORMALIZERS, TYPE_NAMES, normalize_detailed

        norm_name = params.get("normalizer") or "NormalizerAuto"
        if norm_name not in (
            "NormalizerAuto", "NormalizerNFKC51",
        ) and norm_name not in CUSTOM_NORMALIZERS:
            raise ValueError(f"[normalize] unknown normalizer: {norm_name}")
        flags = {f.strip() for f in (params.get("flags") or "").split("|") if f.strip()}
        norm, classes, checks = normalize_detailed(
            params["string"],
            remove_blank="REMOVE_BLANK" in flags,
            remove_tokenized_delimiter="REMOVE_TOKENIZED_DELIMITER" in flags,
        )
        return {
            "normalized": norm,
            "types": [TYPE_NAMES[c] for c in classes] if "WITH_TYPES" in flags else [],
            "checks": checks if "WITH_CHECKS" in flags else [],
        }

    def _cmd_suggest_dirs(self, params: dict) -> dict:
        """suggest over a pre-learned on-disk dataset registered via the
        constructor's ``suggest_datasets`` (plugins/suggest command)."""
        from .pipelines.suggest import run_suggest

        name = params.get("table")
        if not name:
            if len(self.suggest_datasets) == 1:
                name = next(iter(self.suggest_datasets))
            else:
                raise KeyError("table is required")
        if name not in self.suggest_datasets:
            raise KeyError(f"unknown suggest dataset: {name}")
        kwargs: dict = {}
        if params.get("sortby"):
            kwargs["sortby"] = params["sortby"]
        kwargs["output_columns"] = _split_cols(
            params.get("output_columns"), default=("_key", "_score")
        )
        for k, conv in (
            ("offset", int),
            ("limit", int),
            ("frequency_threshold", int),
            ("conditional_probability_threshold", float),
        ):
            if params.get(k):
                kwargs[k] = conv(params[k])
        for k in ("prefix_search", "similar_search"):
            if params.get(k):
                kwargs[k] = params[k]
        out = run_suggest(
            self.suggest_datasets[name],
            params["types"],
            params.get("query", ""),
            **kwargs,
        )
        return {typ: _table_envelope(tbl, score_int32=False) for typ, tbl in out.items()}

    def _cmd_load(self, params: dict) -> list:
        """``/d/load?table=X`` with JSON values (POST body or
        ``values=`` param) — proc_load (lib/proc.c:1371-1390) over the
        LSM delta path: records land in a new Parquet file under the
        index's ``loads/`` dir and are indexed as an immutable delta
        segment (``build.add_documents``); the table handle is swapped
        to include the new source file so filters/scans see the rows.
        Requires a docid-column table (rank-based tables renumber on
        re-sort, so incremental load is rejected for them); docids must
        exceed the base's. Returns the loaded-record count like the reference."""
        import os

        import pyarrow.parquet as pq

        from . import build as build_mod
        from .engine import IndexedTable

        name = params.get("table")

        def _pairs(pairs):
            # a record with a DUPLICATE key is rejected whole
            # (grn_load's JSON parser errors the record —
            # load/array/duplicated_id_key)
            keys = [k for k, _ in pairs]
            if len(keys) != len(set(keys)):
                return {"\x00dup": True}
            return dict(pairs)

        try:
            records = json.loads(params["values"], object_pairs_hook=_pairs)
        except json.JSONDecodeError:
            # trailing garbage after the closing bracket is tolerated
            # (grn_load consumes one JSON value from the stream)
            records, _ = json.JSONDecoder().raw_decode(
                params["values"].lstrip()
            )
        if isinstance(records, dict):
            records = [records]
        records = [
            r for r in records
            if not (isinstance(r, dict) and r.get("\x00dup"))
        ]
        if params.get("columns"):
            cols_req = [
                c.strip() for c in params["columns"].split(",") if c.strip()
            ]
            td_chk = self.defs.get(name)
            # a loaded table with no declared columns takes any column
            if td_chk is not None and (td_chk.columns or name in self.pending):
                for c in cols_req:
                    if c not in td_chk.columns and c not in ("_id", "_key"):
                        raise ValueError(
                            f"[load] nonexistent column: <{c}>"
                        )
        records = self._records_to_dicts(records, params)
        # an explicit _id that can't cast drops the record (grn_load
        # logs and skips — load/array/invalid_id_value)
        kept = []
        for r in records:
            if isinstance(r, dict) and "_id" in r and not isinstance(
                r["_id"], bool
            ):
                try:
                    int(r["_id"])
                except (TypeError, ValueError):
                    continue
            kept.append(r)
        records = kept
        records = self._normalize_weight_vectors(records)
        sg = self._suggest_load(name, records, params)
        if sg is not None:
            return sg
        each = params.get("each")
        if each and "suggest_preparer" not in each:
            # --each 'col = expr': the expression runs per loaded
            # record with the record as context (grn_load's each expr,
            # lib/db.c:11451) — vectorized over the batch
            from .script import eval_filter, parse_assignment

            tgt, op_, rhs = parse_assignment(each)
            batch = pa.Table.from_pylist(records)
            vals = eval_filter(rhs, batch)
            if isinstance(vals, pa.Scalar):
                vals = [vals.as_py()] * len(records)
            elif isinstance(vals, (pa.Array, pa.ChunkedArray)):
                vals = vals.to_pylist()
            else:
                vals = list(vals)
            for r, v in zip(records, vals):
                if isinstance(v, float) and v == int(v):
                    v = int(v)
                r[tgt] = v
        if not records:
            return 0
        n_before_sis = len(records)
        records = self._sis_expand(name, records)
        sis_added = len(records) != n_before_sis
        if name in self.pending:
            n = self._materialize_load(name, records)
            return n_before_sis if sis_added else n
        t = self._table(params)
        if not t.docid_column:
            raise ValueError("load requires a docid-column table")
        if (name or next(iter(self.tables))) in self.defs:
            n = self._load_auto(name or next(iter(self.tables)), t, records)
            return n_before_sis if sis_added else n
        tbl = pa.Table.from_pylist(records)
        if t.docid_column not in tbl.column_names:
            raise ValueError(f"records must carry {t.docid_column}")
        with self._mutate_lock:
            loads_dir = os.path.join(t.index_dir, "loads")
            os.makedirs(loads_dir, exist_ok=True)
            path = os.path.join(loads_dir, f"load_{len(os.listdir(loads_dir)):05d}.parquet")
            pq.write_table(tbl, path)
            try:
                build_mod.add_documents(t.index_dir, [path])
            except Exception:
                os.unlink(path)
                raise
            new_t = IndexedTable(
                t.index_dir, list(t.source_files) + [path], t.docid_column, t.refs
            )
            if name:
                self.tables[name] = new_t
            else:
                self.tables[next(iter(self.tables))] = new_t
            self._invalidate()
        return tbl.num_rows

    def _build_geo_indexes(self, tdir: str, files: list, geo_cols: list) -> dict | None:
        """(Re)build the zkey-sorted geo index for each geo-indexed
        column (grn_geo's PAT-key index analogue, lib/geo.c:687)."""
        import os
        import shutil

        if not geo_cols:
            return None
        import pyarrow.parquet as pq

        from .geoindex import build_geo_index

        present = set(pq.read_schema(files[0]).names)
        out = {}
        for col in geo_cols:
            if col not in present:
                continue
            gdir = os.path.join(tdir, f"geoindex_{col}")
            shutil.rmtree(gdir, ignore_errors=True)
            build_geo_index(files, gdir, col, "_id")
            out[col] = gdir
        return out

    @staticmethod
    def _cast_value(v, typ: str):
        """grn_obj_cast analogue for loaded values against the declared
        column type (lib/db.c cast dispatch): bool → "true"/"false" as
        text, 1/0 as numbers, 1 microsecond as Time; numeric strings
        parse; Time is epoch seconds (stored float)."""
        if v is None:
            # a null GeoPoint stores the origin (grn_obj_cast NULL →
            # the type's zero value; geo renders "0x0")
            return "0x0" if typ.endswith("GeoPoint") else None
        if isinstance(v, dict):
            return v
        if isinstance(v, list):
            # vector values: the declared type describes the ELEMENT
            # type; an element that can't cast is DROPPED (grn_obj_cast
            # vector load skips invalid elements — load/invalid/
            # in_mid_brace/vector)
            if typ.startswith(("Int", "UInt")) or typ in ("Float", "Time"):
                out = []
                for e in v:
                    if isinstance(e, bool) or isinstance(e, (int, float)):
                        out.append(e)
                    elif isinstance(e, str):
                        try:
                            out.append(float(e) if typ in ("Float", "Time") else int(e))
                        except ValueError:
                            continue
                return out
            if typ.endswith("GeoPoint"):
                return [CommandServer._cast_value(e, typ) for e in v]
            return v
        if typ in ("ShortText", "Text", "LongText"):
            if isinstance(v, bool):
                return "true" if v else "false"
            return v if isinstance(v, str) else str(v)
        if typ == "Bool":
            return v != "" if isinstance(v, str) else bool(v)
        if typ.startswith(("Int", "UInt")):
            if isinstance(v, bool):
                return 1 if v else 0
            if isinstance(v, str):
                s = v.strip()
                return int(s) if s.lstrip("-").isdigit() else 0
            return int(v)
        if typ == "Float":
            if isinstance(v, bool):
                return 1.0 if v else 0.0
            try:
                return float(v)
            except (TypeError, ValueError):
                return 0.0
        if typ == "Time":
            if isinstance(v, bool):
                return 1e-06 if v else 0.0  # raw 1 μs (GRN_TIME unit)
            try:
                return float(v)
            except (TypeError, ValueError):
                from .utils import parse_time_text

                t = parse_time_text(v) if isinstance(v, str) else None
                return 0.0 if t is None else t
        if typ.endswith("GeoPoint"):
            if isinstance(v, str) and v:
                # out-of-range coordinates degrade to the origin
                # (grn_obj_cast geo validation, lib/db.c: |lat| <=
                # 90deg in msec, |lon| < 180deg in msec)
                try:
                    lat_s, lon_s = v.split("x" if "x" in v else ",", 1)
                    lat = float(lat_s) if "." in lat_s else int(lat_s)
                    lon = float(lon_s) if "." in lon_s else int(lon_s)
                    if "." in lat_s or "." in lon_s:
                        # degree form stores as msec integers
                        # (grn_obj_cast text->GeoPoint, lib/geo.c:1860)
                        lat = int(round(lat * 3600 * 1000))
                        lon = int(round(lon * 3600 * 1000))
                        if abs(lat) > 324000000 or abs(lon) >= 648000000:
                            return "0x0"
                        return f"{lat}x{lon}"
                    if abs(lat) > 324000000 or abs(lon) >= 648000000:
                        return "0x0"
                    if "," in v:
                        return f"{lat}x{lon}"
                except ValueError:
                    return "0x0"
                return v
            return "0x0"  # non-string casts degrade to the origin point
        return v

    _ARROW_TYPES = {
        "Int8": pa.int8(), "Int16": pa.int16(), "Int32": pa.int32(),
        "Int64": pa.int64(), "UInt8": pa.uint8(), "UInt16": pa.uint16(),
        "UInt32": pa.uint32(), "UInt64": pa.uint64(), "Float": pa.float64(),
        "Time": pa.float64(), "Bool": pa.bool_(),
    }

    def _apply_declared_types(self, name: str, tbl: pa.Table) -> pa.Table:
        """Cast stored columns to their declared types (column_create
        type=Int16 → arrow int16) so expressions see the real width —
        the reference VM's registers are typed by the column."""
        for col, typ in self._column_types(name).items():
            at = self._ARROW_TYPES.get(typ)
            if at is not None and col in tbl.column_names:
                i = tbl.column_names.index(col)
                cur = tbl.column(col).type
                # a COLUMN_VECTOR stores list<declared element type>
                tgt = pa.list_(at) if (
                    pa.types.is_list(cur) or pa.types.is_large_list(cur)
                ) else at
                try:
                    tbl = tbl.set_column(i, col, tbl.column(col).cast(tgt))
                except pa.ArrowInvalid:
                    pass
        return tbl

    def _from_pylist_typed(self, name: str, records: list) -> pa.Table:
        """Table.from_pylist that falls back to declared-type-aware
        column construction — inference overflows on UInt64 values past
        INT64_MAX (grn stores them fine)."""
        try:
            return pa.Table.from_pylist(records)
        except (OverflowError, pa.ArrowInvalid):
            types = self._column_types(name)
            cols: dict[str, list] = {}
            for r in records:
                for k in r:
                    cols.setdefault(k, [])
            arrays = {}
            for k in cols:
                vals = [r.get(k) for r in records]
                at = self._ARROW_TYPES.get(types.get(k))
                arrays[k] = pa.array(vals, at) if at is not None else pa.array(vals)
            return pa.table(arrays)

    def _column_types(self, name: str) -> dict:
        td = self.defs.get(name)
        return td.columns if td is not None else {}

    def _cast_records(self, name: str, records: list) -> list:
        td = self.defs.get(name)
        types = td.columns if td is not None else {}
        vectors = td.vector_columns if td is not None else ()
        pending = self.pending
        # key normalization follows the table's OWN declaration (the
        # TableDef's normalizer may have been copied from an index
        # lexicon for tokenizing, which does NOT normalize keys)
        ddl_t = self._ddl_table(name)
        key_norm = ddl_t is not None and bool(
            ddl_t.get("normalizer")
            or "KEY_NORMALIZE" in (ddl_t.get("flags") or "")
        )
        for r in records:
            if key_norm and isinstance(r.get("_key"), str):
                # a normalized key table interns the NORMALIZED key —
                # NFKC + lowercase, blanks kept (WITH_NORMALIZE flags=0,
                # lib/db.c:54)
                import unicodedata as _ud

                r["_key"] = _ud.normalize("NFKC", r["_key"]).lower()
            for k in vectors:
                # scalar into a COLUMN_VECTOR casts to a vector: "" and
                # null become empty; TEXT splits on whitespace into
                # elements ONLY for builtin-text element types — a
                # REFERENCE vector interns the whole string as one key
                # (grn_obj_cast bulk->vector, lib/db.c:11451 load path;
                # table_create/default_tokenizer/nonexistent)
                if k in r and not isinstance(r[k], (list, dict)):
                    v = r[k]
                    el_type = types.get(k, "")
                    ref_td = self._ddl_table(el_type)
                    if v in ("", None):
                        r[k] = []
                    elif isinstance(v, str) and ref_td is None:
                        r[k] = v.split()
                    elif isinstance(v, str) and ref_td is not None:
                        # reference vector: the lexicon's tokenizer
                        # splits the text into interned records; a
                        # tokenizer-less lexicon interns it whole
                        tokname = ref_td.get("default_tokenizer")
                        if tokname:
                            from .tokenize import tokenize as _tok2

                            nrm2 = ref_td.get("normalizer") or (
                                "NormalizerAuto"
                                if "KEY_NORMALIZE" in (ref_td.get("flags") or "")
                                else None
                            )
                            stream = _tok2(
                                v, tokname, mode="add", normalizer=nrm2
                            )
                            r[k] = [tk.term for tk in stream.tokens]
                        else:
                            r[k] = [v]
                    else:
                        r[k] = [v]
            for k, typ in types.items():
                if k in r:
                    r[k] = self._cast_value(r[k], typ)
                    # interning into a normalized key table stores the
                    # NORMALIZED key (KEY_NORMALIZE / --normalizer on
                    # the referenced table, grn_table_add with
                    # GRN_OBJ_KEY_NORMALIZE)
                    ref_td = pending.get(typ)
                    if ref_td is not None and ref_td.normalizer:
                        from .normalize import normalize as _nrm

                        if isinstance(r[k], str):
                            r[k] = _nrm(r[k])[0]
                        elif isinstance(r[k], list):
                            r[k] = [
                                _nrm(e)[0] if isinstance(e, str) else e
                                for e in r[k]
                            ]
                else:
                    # declared columns exist on every record (unset →
                    # null) so expressions/projections can reference
                    # them. An unset REFERENCE column holds record id 0
                    # (GRN_ID_NIL) which renders as the key-type zero
                    # (lib/output.c reference rendering)
                    r.setdefault(
                        k, [] if k in vectors else self._ref_default(typ)
                    )
        return records

    def _ref_default(self, typ: str):
        """Default (zero) value of an unset scalar column: the
        reference's ra arrays are zero-initialized, so unset values
        read as the type's zero — 0 / 0.0 / false / "" — and an unset
        reference column holds GRN_ID_NIL rendering as the referenced
        key type's zero."""
        if typ.startswith(("Int", "UInt")):
            return 0
        if typ in ("Float", "Time"):
            return 0.0
        if typ == "Bool":
            return False
        if typ in ("ShortText", "Text", "LongText"):
            return ""
        if typ.endswith("GeoPoint"):
            return "0x0"  # zero-initialized geo point renders "0x0"
        ref_td = self.defs.get(typ)
        if ref_td is None:
            return None
        key_type = ref_td.key_type
        if key_type.startswith(("Int", "UInt")):
            return 0
        if key_type in ("Float", "Time"):
            return 0.0
        if key_type in ("ShortText", "Text", "LongText"):
            return ""
        return None

    def _load_auto(self, name: str, t, records: list) -> int:
        """load on a server-created (auto-_id) table: reference update
        semantics (grn_load, lib/db.c:11451) — a record carrying ``_id``
        updates that row in place; on keyed tables a matching ``_key``
        updates its row keeping the ``_id``; everything else appends
        with the next id. Unspecified columns keep their old values.
        These tables are small command-surface artifacts, so the merge
        rewrites + rebuilds; big externally-registered tables keep the
        append-only LSM delta path."""
        import os

        import pyarrow.parquet as pq

        from .build import BuildConfig, read_manifest
        from .engine import IndexedTable

        records = self._cast_records(name, records)
        with self._mutate_lock:
            total = sum(
                pq.ParquetFile(f).metadata.num_rows for f in t.source_files
            )
            if total > 1_000_000:
                raise ValueError(
                    f"load-with-update rewrites the whole table ({total} "
                    f"rows) — this path is for command-created tables; "
                    f"corpus-scale tables must use the append-only delta "
                    f"path (build.add_documents)"
                )
            old = pa.concat_tables(
                [pq.read_table(f) for f in t.source_files], promote_options="default"
            )
            rows = old.to_pylist()
            for r in rows:
                r.pop("_dummy_text", None)
            by_id = {int(r["_id"]): r for r in rows}
            keyed = "_key" in old.column_names
            by_key = {r["_key"]: r for r in rows} if keyed else {}
            next_id = (max(by_id) + 1) if by_id else 1
            for rec in records:
                if rec.get("_id") is not None:
                    rid = int(rec["_id"])
                    tgt = by_id.get(rid)
                    if tgt is None:
                        tgt = {"_id": rid}
                        by_id[rid] = tgt
                        next_id = max(next_id, rid + 1)
                    tgt.update({k: v for k, v in rec.items() if k != "_id"})
                    if keyed and "_key" in rec:
                        by_key[rec["_key"]] = tgt
                elif keyed and rec.get("_key") is not None and rec["_key"] in by_key:
                    by_key[rec["_key"]].update(rec)
                else:
                    rec2 = dict(rec)
                    rec2["_id"] = next_id
                    next_id += 1
                    by_id[rec2["_id"]] = rec2
                    if keyed and rec2.get("_key") is not None:
                        by_key[rec2["_key"]] = rec2
            merged_rows = [by_id[i] for i in sorted(by_id)]
            meta = read_manifest(os.path.join(t.index_dir, "meta.json"))
            cfg = BuildConfig.from_fingerprint(meta["config"])
            tbl = self._from_pylist_typed(name, merged_rows)
            tbl = self._apply_declared_types(name, tbl)
            if "_dummy_text" in cfg.text_columns:
                tbl = tbl.append_column(
                    "_dummy_text", pa.array([""] * tbl.num_rows, pa.string())
                )
            tdir = os.path.dirname(t.index_dir)
            loads_dir = os.path.join(tdir, "loads")
            path = os.path.join(loads_dir, f"load_{len(os.listdir(loads_dir)):05d}.parquet")
            pq.write_table(tbl, path)
            _rebuild_index(t.index_dir, [path], cfg, next_id)
            td = self.defs[name]
            geo_indexes = self._build_geo_indexes(
                tdir, [path], sorted(td.geo_indexed)
            )
            self.tables[name] = IndexedTable(
                t.index_dir, [path], "_id", geo_indexes=geo_indexes,
                index_defs=self._index_defs_for(name),
                auto_indexed=not td.indexed,
            )
            self._invalidate()
        return len(records)

    def _index_defs_for(self, data_table: str) -> dict | None:
        """``"Lexicon.memo_index" -> [src cols]`` for every index
        column whose data table is ``data_table`` (match_columns can
        address the index object, lib/expr.c:6050)."""
        defs = {
            f"{lex}.{iname}": srcs
            for lex, td in self.defs.items()
            for iname, (dt, srcs, is_geo) in td.index_columns.items()
            if dt == data_table and not is_geo and srcs
        }
        return defs or None

    def _sis_expand(self, name: str, records: list) -> list:
        """KEY_WITH_SIS tables auto-intern every multibyte proper
        suffix of a newly added key as its own record (grn_pat_add SIS
        chain, lib/pat.c:841-868: chop one character at a time while
        the suffix still starts with a 0x80 byte, stopping at the first
        suffix that already exists). The created records carry default
        column values and count ids, but load reports only the
        explicitly loaded records."""
        td = self._ddl_table(name)
        if td is None or "KEY_WITH_SIS" not in (td["flags"] or ""):
            return records
        existing: set = set()
        t = self.tables.get(name)
        if t is not None:
            import pyarrow.parquet as _pq

            for f in t.source_files:
                existing.update(
                    _pq.read_table(f, columns=["_key"])["_key"].to_pylist()
                )
        out: list = []
        for r in records:
            out.append(r)
            k = r.get("_key") if isinstance(r, dict) else None
            if not isinstance(k, str) or not k or k in existing:
                continue
            existing.add(k)
            if k.encode("utf-8")[0] < 0x80:
                continue
            s = k
            while True:
                s = s[1:]
                if not s or s.encode("utf-8")[0] < 0x80 or s in existing:
                    break
                existing.add(s)
                out.append({"_key": s})
        return out

    @staticmethod
    def _normalize_weight_vectors(records: list) -> list:
        """WITH_WEIGHT vector values load as ``{"element": weight}``
        objects (grn_load weighted-vector form, lib/db.c:11451). Encode
        each element repeated (weight+1) times: the index's tf then
        equals weight+1, which is exactly what the reference's
        WITH_WEIGHT index contributes to adjuster/match scores
        (get_weight, lib/ii.c:5801-5833 — weight 0 scores 1)."""
        for r in records:
            for k, v in list(r.items()):
                if (
                    isinstance(v, dict) and v
                    and all(isinstance(w, int) for w in v.values())
                ):
                    out: list[str] = []
                    for elem, w in v.items():
                        out.extend([elem] * (int(w) + 1))
                    r[k] = out
        return records

    @staticmethod
    def _records_to_dicts(records: list, params: dict) -> list:
        """load's array-of-arrays form (grn_load, lib/db.c:11451): the
        column list comes from ``--columns`` or the first array."""
        if not records or not isinstance(records[0], list):
            return records
        cols_param = params.get("columns")
        if cols_param:
            cols = [c.strip() for c in cols_param.split(",")]
            data = records
        else:
            cols, data = records[0], records[1:]
            if not cols:
                # "[[]]" loads ONE all-defaults record: an empty first
                # array is a record, not a header (grn_load bracket
                # form, db.c:11451)
                return [dict() for _ in records]
        # a row with fewer values than the header is rejected and NOT
        # loaded (grn_load bracket form value-count check — the record
        # is skipped and consumes no id, db.c:11451 load path)
        return [dict(zip(cols, row)) for row in data if len(row) >= len(cols)]

    def _materialize_load(self, name: str, records: list) -> list:
        """First load of a table_create'd table: assign ``_id`` docids
        1..n, persist the records, build the base index with the
        table's tokenizer/filter config, and swap the catalog entry to
        a live IndexedTable."""
        import os
        import tempfile

        import pyarrow.parquet as pq

        from .build import BuildConfig, build_index, read_manifest, write_manifest
        from .engine import IndexedTable

        td = self.defs[name]
        records = self._cast_records(name, records)
        n_input = len(records)   # the load count includes updates
        if "NO_KEY" not in (td.flags or ""):
            # keys already interned through this table — tokens from
            # index columns it hosts, values from reference columns
            # typed to it — are REAL records; an explicit load upserts
            # onto them (grn_table_add returns the existing id —
            # delete/reference/cross, delete/reference/vector_type)
            tddl = self._ddl_table(name)
            feeds = tddl is not None and any(
                (
                    c["table"] == name and c["is_index"]
                    and c["type"] in self.tables
                )
                or (
                    c["type"] == name and not c["is_index"]
                    and c["table"] in self.tables
                )
                for c in self._ddl_cols
            )
            if feeds:
                derived = self._derived_keys(tddl)
                if derived:
                    # Table.from_pylist schemas off the FIRST record —
                    # the interned-key records carry every explicit
                    # column (None) so the load's columns survive
                    proto = {
                        k: None for r in records for k in r if k != "_id"
                    }
                    records = [
                        {**proto, "_key": k} for k in derived
                    ] + records
        if "NO_KEY" not in (td.flags or "") and any(
            "_key" in r for r in records
        ):
            # duplicate keys in one load UPDATE the earlier record
            # (grn_table_add returns the existing id; later values
            # overwrite, unspecified columns keep old values)
            merged: "OrderedDict[object, dict]" = OrderedDict()
            for r in records:
                k = r.get("_key")
                if k in merged:
                    merged[k].update(r)
                else:
                    merged[k] = r
            records = list(merged.values())
        if all("_id" in r for r in records) and records:
            # dump reload path: explicit dense 1-based ids are honored
            # (grn_load sets records by _id); anything else is rejected
            ids = sorted(int(r["_id"]) for r in records)
            if ids != list(range(1, len(records) + 1)):
                raise ValueError("explicit _id load must be dense 1..n")
            for r in records:
                r["_id"] = int(r["_id"])
        elif any("_id" in r for r in records):
            raise ValueError("_id is assigned by the server on load")
        else:
            for i, r in enumerate(records):
                r["_id"] = i + 1
        tbl = self._from_pylist_typed(name, records)
        tbl = self._apply_declared_types(name, tbl)
        with self._mutate_lock:
            if self.data_dir is None:
                self.data_dir = tempfile.mkdtemp(prefix="groonga_ray_srv_")
            tdir = os.path.join(self.data_dir, name)
            loads_dir = os.path.join(tdir, "loads")
            os.makedirs(loads_dir, exist_ok=True)
            path = os.path.join(loads_dir, "load_00000.parquet")
            pq.write_table(tbl, path)
            def _indexable(t):
                return (
                    pa.types.is_string(t)
                    or ((pa.types.is_list(t) or pa.types.is_large_list(t))
                        and pa.types.is_string(t.value_type))
                )

            geo_cols = sorted(
                c for c in td.geo_indexed if c in tbl.column_names
            )
            text_cols = sorted(
                c for c in td.indexed
                if c in tbl.column_names and _indexable(tbl.schema.field(c).type)
            )
            if not text_cols:
                # no index column declared: index every string column so
                # query search still works (scan semantics preserved)
                text_cols = [
                    f.name for f in tbl.schema
                    if _indexable(f.type) and f.name != "_key"
                    and f.name not in geo_cols
                    and not td.columns.get(f.name, "").endswith("GeoPoint")
                ]
            if not text_cols:
                # table with no text at all (e.g. numeric-only): index a
                # hidden empty section so the engine has docids/doclens;
                # filters and output expressions work as usual
                tbl = tbl.append_column(
                    "_dummy_text", pa.array([""] * tbl.num_rows, pa.string())
                )
                pq.write_table(tbl, path)
                text_cols = ["_dummy_text"]
            cfg = BuildConfig(
                text_columns=tuple(text_cols),
                tokenizer=td.default_tokenizer,
                token_filters=td.token_filters,
                stop_words=self._lexicon_stop_words(name, td),
                # a DECLARED index honors its lexicon's normalizer
                # (none = case-sensitive PAT keys); the auto-index-all
                # fallback normalizes so matches mimic the reference's
                # sequential scan (which normalizes both sides,
                # lib/operator.c:745)
                normalizer=(td.normalizer or "") if td.indexed else "NormalizerAuto",
                docid_column="_id",
                n_buckets=8,
            )
            build_index([path], os.path.join(tdir, "index"), cfg)
            # stamp the next free docid so follow-up loads (which read
            # meta["next_docid"] for server-assigned ids) continue here
            meta_path = os.path.join(tdir, "index", "meta.json")
            meta = read_manifest(meta_path)
            meta["next_docid"] = tbl.num_rows + 1
            write_manifest(meta_path, meta)
            geo_indexes = self._build_geo_indexes(tdir, [path], geo_cols)
            # with no declared text index, single-column match falls
            # back to a sequential scan, but a multi-column match has no
            # index to drive it and matches nothing (grn_table_select
            # without an index source, lib/expr.c:6103 → 0 hits)
            self.tables[name] = IndexedTable(
                os.path.join(tdir, "index"), [path], "_id",
                geo_indexes=geo_indexes,
                index_defs=self._index_defs_for(name),
                auto_indexed=not td.indexed,
            )
            self._invalidate()
        self._refresh_stop_words(name)
        return n_input

    def _refresh_stop_words(self, lex_name: str) -> None:
        """A load into a lexicon table re-resolves TokenFilterStopWord
        word sets for every data table it indexes (the reference reads
        ``is_stop_word`` live at query time; our query chain reads the
        index meta, so the meta updates in place)."""
        import os

        from .build import read_manifest, write_manifest

        td = self.defs.get(lex_name)
        if td is None or (
            "TokenFilterStopWord" not in (td.token_filters or ())
            and not td.deleted_terms
        ):
            return
        deleted = td.deleted_terms
        for c in self._ddl_cols:
            if c["table"] != lex_name or not c["is_index"]:
                continue
            t = self.tables.get(c["type"])
            if t is None:
                continue
            words = tuple(sorted(
                set(self._lexicon_stop_words(c["type"], td)) | deleted
            ))
            mpath = os.path.join(t.index_dir, "meta.json")
            if not os.path.exists(mpath):
                continue
            meta = read_manifest(mpath)
            if meta.get("config", {}).get("stop_words") != list(words):
                meta["config"]["stop_words"] = list(words)
                write_manifest(mpath, meta)
                self._invalidate()

    def _lexicon_stop_words(self, data_name: str, td) -> tuple:
        """TokenFilterStopWord's word set: the lexicon table's records
        whose ``is_stop_word`` is true (token_filters/stop_word —
        the filter reads the lexicon column at GET time)."""
        if "TokenFilterStopWord" not in (td.token_filters or ()):
            return ()
        import pyarrow.parquet as pq

        words: list[str] = []
        for c in self._ddl_cols:
            if not c["is_index"] or c["type"] != data_name:
                continue
            lex = self.tables.get(c["table"])
            if lex is None:
                continue
            for f in lex.source_files:
                schema = pq.read_schema(f)
                if "is_stop_word" not in schema.names or "_key" not in schema.names:
                    continue
                tb = pq.read_table(f, columns=["_key", "is_stop_word"])
                for k, sw in zip(
                    tb.column("_key").to_pylist(),
                    tb.column("is_stop_word").to_pylist(),
                ):
                    if sw:
                        words.append(k)
        return tuple(sorted(set(words)))

    def _cmd_delete(self, params: dict) -> bool:
        """``/d/delete?table=X&id=N | key=K | filter=EXPR`` —
        proc_delete (lib/proc.c): resolve the victim docids (key =
        equality on the docid column; filter = any script expression)
        and tombstone them (``build.delete_documents``). Deleting from
        a never-loaded LEXICON removes the term: its postings stop
        serving queries while the indexed documents stay
        (delete/index/have_tokenizer)."""
        from . import build as build_mod
        from .engine import select

        name0 = params.get("table")
        if name0 in self.pending:
            import re as _re2

            victims: list[str] = []
            if params.get("key"):
                victims = [params["key"]]
            elif params.get("filter"):
                m = _re2.fullmatch(
                    r'\s*_key\s*==\s*"((?:[^"\\]|\\.)*)"\s*',
                    params["filter"],
                )
                if not m:
                    raise ValueError(
                        f"[delete] unsupported lexicon filter: "
                        f"<{params['filter']}>"
                    )
                victims = [m.group(1)]
            td0 = self.pending[name0]
            if td0.normalizer or "KEY_NORMALIZE" in (td0.flags or ""):
                import unicodedata as _ud

                victims = [
                    _ud.normalize("NFKC", v).lower() for v in victims
                ]
            td0.deleted_terms.update(victims)
            self._refresh_stop_words(name0)
            self._invalidate()
            return True
        t = self._table(params)
        if params.get("id"):
            docids = [int(params["id"])]
        else:
            if params.get("key"):
                if not t.docid_column:
                    raise ValueError("key delete requires a docid-column table")
                kv = params["key"]
                import pyarrow.parquet as pq

                if "_key" in pq.read_schema(t.source_files[0]).names:
                    # keyed table: key addresses _key (proc_delete →
                    # grn_table_delete by key)
                    flt = f"_key == {json.dumps(kv)}"
                else:
                    lit = kv if kv.lstrip("-").isdigit() else json.dumps(kv)
                    flt = f"{t.docid_column} == {lit}"
            elif params.get("filter"):
                flt = params["filter"]
            else:
                raise ValueError("delete needs id, key or filter")
            res = select(t, filter=flt, output_columns=("_id",), limit=-1)
            docids = res["rows"].column("_id").to_pylist()
            if not docids:
                return True
        deleted_keys: list = []
        import pyarrow.parquet as _pq

        if any(
            c["type"] == name0 and not c["is_index"]
            for c in self._ddl_cols
        ) and "_key" in _pq.read_schema(t.source_files[0]).names:
            kt = read_command_table(t.source_files, columns=["_id", "_key"])
            dset = set(docids)
            deleted_keys = [
                k for i, k in zip(
                    kt.column("_id").to_pylist(), kt.column("_key").to_pylist()
                )
                if i in dset
            ]
        with self._mutate_lock:
            build_mod.delete_documents(t.index_dir, docids)
            self._invalidate()
        if deleted_keys:
            self._cascade_reference_delete(name0, set(deleted_keys))
        return True

    def _cascade_reference_delete(self, name0: str, gone: set) -> None:
        """Deleting a record clears references to it: vector reference
        columns lose the element, scalar references become NIL
        (grn_obj_remove's dependent walk, lib/db.c:8900;
        delete/reference/cross)."""
        import pyarrow.parquet as _pq

        for c in self._ddl_cols:
            if c["type"] != name0 or c["is_index"]:
                continue
            uname = c["table"]
            u = self.tables.get(uname)
            if u is None:
                continue
            sch = _pq.read_schema(u.source_files[0])
            if c["name"] not in sch.names or "_key" not in sch.names:
                continue
            ut = read_command_table(u.source_files, columns=["_key", c["name"]])
            ups = []
            for k, v in zip(
                ut.column("_key").to_pylist(),
                ut.column(c["name"]).to_pylist(),
            ):
                if isinstance(v, list) and any(x in gone for x in v):
                    ups.append(
                        {"_key": k, c["name"]: [x for x in v if x not in gone]}
                    )
                elif isinstance(v, str) and v in gone:
                    ups.append({"_key": k, c["name"]: ""})
            if ups:
                self._cmd_load(
                    {"table": uname, "values": json.dumps(ups)}
                )

    def _cmd_defrag(self, params: dict) -> bool:
        """``/d/defrag`` (proc_defrag analogue): fold tombstones out of
        the posting partitions via the distributed compaction job."""
        from . import build as build_mod

        t = self._table(params)
        with self._mutate_lock:
            build_mod.compact_index(t.index_dir)
            self._invalidate()
        return True

    # ------------------------------------------------- sharding commands
    # plugins/sharding/*.rb: a LOGICAL table "Logs" is the family of
    # physical tables "Logs_YYYYMMDD"; the commands enumerate the
    # shards in date order, prune whole shards outside the requested
    # range (logical_enumerator.rb), run the residual range/filter only
    # on boundary shards, and merge. Ray-native reading: the shards ARE
    # the partitions — a 100 TB deployment maps each day-partition to
    # its own Parquet dataset and these commands never touch shards
    # outside the range.

    def _logical_shards(self, logical: str, command: str) -> list[tuple[str, str]]:
        """Date-ordered (suffix, table_name) shard list; errors when no
        shard exists (logical_enumerator.rb initialize)."""
        import re

        pat = re.compile(re.escape(logical) + r"_(\d{8})$")
        out = [
            (m.group(1), n)
            for n in {*self.tables, *self.defs}
            if (m := pat.match(n))
        ]
        if not out:
            raise ValueError(
                f"[{command}] no shard exists: logical_table: <{logical}>"
            )
        out.sort()
        return out

    @staticmethod
    def _shard_day_bounds(suffix: str) -> tuple[float, float]:
        """[start, end) epoch seconds of the shard's day, localtime
        (logical_enumerator.rb shard ranges use day granularity)."""
        import datetime

        d = datetime.datetime.strptime(suffix, "%Y%m%d")
        return d.timestamp(), (d + datetime.timedelta(days=1)).timestamp()

    @staticmethod
    def _parse_range(params: dict, command: str):
        """(min_epoch, min_op, max_epoch, max_op) from min/max +
        borders; None epoch = unbounded."""
        from .utils import parse_time_text

        def _epoch(v):
            if not v:
                return None
            t = parse_time_text(v)
            if t is None:
                try:
                    t = float(v)
                except ValueError:
                    raise ValueError(f"[{command}] invalid time: <{v}>")
            return t

        def _border(v, name):
            if v in (None, "", "include"):
                return "include"
            if v == "exclude":
                return "exclude"
            raise ValueError(
                f'[{command}] {name} must be "include" or "exclude": <{v}>'
            )

        mn = _epoch(params.get("min"))
        mx = _epoch(params.get("max"))
        min_op = ">" if _border(params.get("min_border"), "min_border") == "exclude" else ">="
        max_op = "<" if _border(params.get("max_border"), "max_border") == "exclude" else "<="
        return mn, min_op, mx, max_op

    def _shard_residual(self, suffix, key, mn, min_op, mx, max_op):
        """Per-shard decision: None = shard disjoint from the range
        (skip), "" = fully covered (no range predicate), else the
        residual predicate string for this boundary shard."""
        lo, hi = self._shard_day_bounds(suffix)
        conds = []
        if mn is not None:
            if mn >= hi or (mn == hi and min_op == ">="):
                return None  # whole shard below min
            if not (mn < lo or (mn == lo and min_op == ">=")):
                conds.append(f"{key} {min_op} {mn!r}")
        if mx is not None:
            if mx < lo or (mx == lo and max_op == "<"):
                return None  # whole shard above max
            if not (mx >= hi):
                conds.append(f"{key} {max_op} {mx!r}")
        return " && ".join(conds)

    def _cmd_logical_count(self, params: dict) -> int:
        """``logical_count Logs timestamp --min ... --max ...``
        (plugins/sharding/logical_count.rb:1-60): sum of matching rows
        across the date shards, whole shards pruned by range."""
        from .engine import select

        logical = params.get("logical_table")
        key = params.get("shard_key") or "timestamp"
        mn, min_op, mx, max_op = self._parse_range(params, "logical_count")
        total = 0
        for suffix, name in self._logical_shards(logical, "logical_count"):
            if name in self.pending:
                continue  # created but empty
            residual = self._shard_residual(suffix, key, mn, min_op, mx, max_op)
            if residual is None:
                continue
            flt = params.get("filter") or ""
            if residual and flt:
                flt = f"({residual}) && ({flt})"
            else:
                flt = residual or flt
            t = self._resolve_refs(name, self.tables[name])
            res = select(t, filter=flt or None, output_columns=("_id",), limit=0)
            total += res["hits"]
        return total

    def _cmd_logical_range_filter(self, params: dict) -> list:
        """``logical_range_filter Logs timestamp --order ... --offset
        --limit`` (plugins/sharding/logical_range_filter.rb): stream
        shards in shard-key order with early exit once offset+limit
        rows are found — later shards are never read."""
        logical = params.get("logical_table")
        key = params.get("shard_key") or "timestamp"
        mn, min_op, mx, max_op = self._parse_range(params, "logical_range_filter")
        order = params.get("order") or "ascending"
        if order not in ("ascending", "descending"):
            raise ValueError(
                '[logical_range_filter] order must be "ascending" or '
                f'"descending": <{order}>'
            )
        offset = int(params.get("offset") or 0)
        limit = int(params.get("limit") if params.get("limit") not in (None, "") else 10)
        out_cols = params.get("output_columns") or "_key, *"
        shards = self._logical_shards(logical, "logical_range_filter")
        if order == "descending":
            shards = shards[::-1]
        needed = None if limit < 0 else offset + limit
        cols_def: list | None = None
        rows: list = []
        for suffix, name in shards:
            if needed is not None and len(rows) >= needed:
                break  # early exit: later shards never read
            if name in self.pending:
                continue
            residual = self._shard_residual(suffix, key, mn, min_op, mx, max_op)
            if residual is None:
                continue
            flt = params.get("filter") or ""
            if residual and flt:
                flt = f"({residual}) && ({flt})"
            else:
                flt = residual or flt
            sub = {
                "table": name,
                "output_columns": out_cols,
                "sortby": ("-" if order == "descending" else "") + key,
                "limit": str(needed - len(rows)) if needed is not None else "-1",
                "cache": "no",
            }
            if flt:
                sub["filter"] = flt
            sets = self._cmd_select(sub)
            st = sets[0]
            if cols_def is None:
                cols_def = st[1]
            rows.extend(st[2:])
        if cols_def is None:
            cols_def = []
        if limit < 0:
            # negative limit wraps against the post-offset match count
            # (logical_range_filter.rb:38-43: limit = n_records+limit+1;
            # -1 = all, -3 = all but the last two)
            rows = rows[offset:]
            rows = rows[: max(len(rows) + limit + 1, 0)]
        else:
            rows = rows[offset:offset + limit]
        return [cols_def, *rows]

    def _cmd_column_rename(self, params: dict) -> bool:
        """``column_rename TABLE NAME NEW_NAME`` (proc_column_rename,
        lib/proc.c): catalog rename; a loaded table's stored files
        rewrite their column name in place (command-sized tables)."""
        import os

        import pyarrow.parquet as pq

        tname = params.get("table")
        old = params.get("name")
        new = params.get("new_name")
        if not (tname and old and new):
            raise ValueError("[column][rename] table, name, new_name required")
        found = False
        for c in self._ddl_cols:
            if c["table"] == tname and c["name"] == old:
                c["name"] = new
                found = True
        if not found:
            raise ValueError(
                f"[column][rename] no such column: <{tname}.{old}>"
            )
        td = self.defs.get(tname)
        if td is not None and old in td.columns:
            td.columns[new] = td.columns.pop(old)
            if old in td.vector_columns:
                td.vector_columns.discard(old)
                td.vector_columns.add(new)
        t = self.tables.get(tname)
        if t is not None:
            for f in t.source_files:
                tbl = pq.read_table(f)
                if old in tbl.column_names:
                    tbl = tbl.rename_columns(
                        [new if n == old else n for n in tbl.column_names]
                    )
                    pq.write_table(tbl, f)
            # rebuild so index section names track the renamed column
            from .build import BuildConfig, read_manifest

            meta = read_manifest(os.path.join(t.index_dir, "meta.json"))
            cfg = BuildConfig.from_fingerprint(meta["config"])
            if old in cfg.text_columns:
                from dataclasses import replace as _replace

                cfg = _replace(
                    cfg,
                    text_columns=tuple(
                        new if c == old else c for c in cfg.text_columns
                    ),
                )
                _rebuild_index(t.index_dir, t.source_files, cfg)
            self._invalidate()
        return True

    def _cmd_range_filter(self, params: dict) -> list:
        """``range_filter TABLE COLUMN --min --min_border --max
        --max_border [--offset --limit --filter --output_columns]``
        (proc_range_filter, lib/proc.c:5404-5560): records in COLUMN
        order inside the range, streamed through the range index —
        body is [columns, rows...] with no hit count."""
        name = params.get("table")
        col = params.get("column") or ""
        if name not in self.tables and name not in self.defs:
            raise ValueError(f"[range_filter] unknown table: <{name}>")

        def _lit(v: str) -> str:
            try:
                float(v)
                return v
            except ValueError:
                return json.dumps(v)

        def _border(which: str) -> str:
            v = params.get(which) or "include"
            if v not in ("include", "exclude"):
                raise ValueError(
                    f"[range_filter] border must be include or exclude: <{v}>"
                )
            return v

        conds: list[str] = []
        if params.get("min") not in (None, ""):
            op = ">=" if _border("min_border") == "include" else ">"
            conds.append(f"{col} {op} {_lit(params['min'])}")
        if params.get("max") not in (None, ""):
            op = "<=" if _border("max_border") == "include" else "<"
            conds.append(f"{col} {op} {_lit(params['max'])}")
        if params.get("filter"):
            conds.append(f"({params['filter']})")
        offset = int(params.get("offset") or 0)
        limit = int(params.get("limit")) if params.get("limit") not in (None, "") else 10
        sub = {
            "table": name,
            "sortby": col,
            "output_columns": params.get("output_columns") or "_id, _key, *",
            "limit": "-1",
            "cache": "no",
        }
        if conds:
            sub["filter"] = " && ".join(conds)
        st = self._cmd_select(sub)[0]
        rows = st[2:]
        n = len(rows)
        # negative offset/limit wrap against the match count; out of
        # range errors (grn_output_range_normalize, lib/util.c:37-80)
        if offset < 0:
            if offset < -n:
                raise ValueError(f"[range_filter] too small offset: <{offset}>")
            offset += n
        elif offset > n:
            raise ValueError(f"[range_filter] too large offset: <{offset}>")
        if limit < 0:
            if limit < -(n + 1):
                raise ValueError(f"[range_filter] too small limit: <{limit}>")
            limit = n + limit + 1
        rows = rows[offset:offset + limit]
        return [st[1], *rows]

    def _cmd_plugin_unregister(self, params: dict) -> bool:
        """``plugin_unregister <name>`` (proc_plugin_unregister)."""
        pname = params.get("name") or params.get("path") or ""
        if pname in self._plugins:
            self._plugins.remove(pname)
        if pname.removesuffix(".so") == "query_expanders/tsv":
            self._tsv_expander = False
        self._invalidate()
        return True

    def _cmd_shutdown(self, params: dict) -> bool:
        """``/d/shutdown`` (proc_shutdown): acknowledge, then stop."""
        return True

    def _cmd_ruby_eval(self, params: dict) -> dict:
        """``ruby_eval <script>`` (plugins/ruby/eval.c:22-58): evaluate
        an mruby expression; an uncaught exception becomes the
        ``{"exception": {"message": ...}}`` body."""
        from . import mrb

        script = params.get("script") or ""
        try:
            return {"value": mrb.eval_expr(script, self)}
        except mrb.MrbError as e:
            return {"exception": {"message": str(e)}}

    def _cmd_ruby_load(self, params: dict) -> dict:
        """``ruby_load <path>`` (plugins/ruby/load.c:22-57): run a
        script file from the engine's ruby scripts dir; a missing file
        is the reference's fopen syscall error."""
        from . import mrb

        path = params.get("path") or ""
        try:
            return {"value": mrb.load_file(path, self)}
        except mrb.MrbError as e:
            return {"exception": {"message": str(e)}}

    # ----------------------------------------------------------- dump
    def _cmd_plugin_register(self, params: dict) -> bool:
        """``plugin_register <name>`` (proc_register → grn_plugin_
        register): journal the name for dump; python plugin modules
        load, reference plugin names whose semantics are built in
        (token_filters/*, sharding, ...) are accepted as no-ops."""
        import re as _re

        pname = params.get("name") or params.get("path") or ""
        if pname.removesuffix(".so") == "query_expanders/tsv":
            self._tsv_expander = True
        try:
            from . import plugin

            plugin.register(pname)
        except Exception:
            if not _re.fullmatch(r"[A-Za-z0-9_]+(/[A-Za-z0-9_]+)*", pname):
                raise
        if pname not in self._plugins:
            self._plugins.append(pname)
        return True

    @staticmethod
    def _dump_flags(flags: str) -> str:
        fl = [f.strip() for f in flags.split("|") if f.strip() and f.strip() != "PERSISTENT"]
        if "COLUMN_INDEX" in fl:
            # canonical index-flag order (SECTION|WEIGHT|POSITION)
            order = ["COLUMN_INDEX", "WITH_SECTION", "WITH_WEIGHT", "WITH_POSITION"]
            fl = [f for f in order if f in fl] + [f for f in fl if f not in order]
        return "|".join(fl)

    def _dump_table_line(self, t: dict) -> str:
        """table_create line (dump_table, lib/proc.c:3180-3270).
        The legacy KEY_NORMALIZE flag dumps as its modern spelling —
        ``--normalizer NormalizerAuto`` (dump migrates the flag,
        lib/proc.c:3214)."""
        flags = "|".join(
            f for f in t["flags"].split("|") if f != "KEY_NORMALIZE"
        )
        parts = ["table_create", t["name"], self._dump_flags(flags)]
        no_key = "NO_KEY" in t["flags"]
        if not no_key and t["key_type"]:
            parts.append(t["key_type"])
        if t["value_type"]:
            if no_key:
                parts.append("--value_type")
            parts.append(t["value_type"])
        if t["default_tokenizer"]:
            parts += ["--default_tokenizer", t["default_tokenizer"]]
        nrm = t["normalizer"] or (
            "NormalizerAuto" if "KEY_NORMALIZE" in t["flags"] else ""
        )
        if nrm:
            parts += ["--normalizer", nrm]
        if not no_key and t["token_filters"]:
            parts += ["--token_filters", t["token_filters"]]
        return " ".join(parts)

    def _dump_col_line(self, c: dict) -> str:
        parts = [
            "column_create", c["table"], c["name"],
            self._dump_flags(c["flags"]), c["type"],
        ]
        if c["is_index"] and c["source"]:
            # sources render trimmed and comma-joined (dump normalizes
            # the stored source list, lib/proc.c:2830)
            parts.append(
                ",".join(s.strip() for s in c["source"].split(",") if s.strip())
            )
        return " ".join(parts)

    def _dump_rows(self, t: dict) -> tuple[list[str], list[list]] | None:
        """(header, rows) for one table's load block, or None to skip
        (dump_records, lib/proc.c:2989-3051: empty tables and pure
        lexicons — index column but no data column — are skipped)."""
        name = t["name"]
        no_key = "NO_KEY" in t["flags"]
        own_cols = [
            c for c in self._ddl_cols if c["table"] == name and not c["is_index"]
        ]
        has_index = any(
            c["table"] == name and c["is_index"] for c in self._ddl_cols
        )
        if has_index and not own_cols:
            return None
        data_names = sorted(c["name"] for c in own_cols)
        weight_cols = {
            c["name"] for c in own_cols if "WITH_WEIGHT" in c["flags"]
        }
        header = (["_id"] if no_key else ["_key"]) + data_names
        rows: list[list] = []
        if name in self.tables:
            import pyarrow.parquet as pq

            tb = read_command_table(self.tables[name].source_files)
            if "_id" in tb.column_names:
                tb = tb.take(pc.sort_indices(tb, sort_keys=[("_id", "ascending")]))
            # logically deleted records don't dump (the tombstones are
            # the delete command's effect — delete/reference/cross)
            try:
                ts = self.tables[name].reader().tombstones
            except Exception:  # noqa: BLE001
                ts = None
            if ts is not None and len(ts) and "_id" in tb.column_names:
                import numpy as _np

                ids = tb.column("_id").to_numpy(
                    zero_copy_only=False
                ).astype(_np.uint64)
                pos = _np.clip(_np.searchsorted(ts, ids), 0, len(ts) - 1)
                tb = tb.filter(pa.array(ts[pos] != ids))
            defaults = {
                c["name"]: (
                    0 if c["type"].startswith(("Int", "UInt"))
                    else 0.0 if c["type"] in ("Float", "Time")
                    else [] if "COLUMN_VECTOR" in (c["flags"] or "")
                    else ""
                )
                for c in own_cols
            }
            for r in tb.to_pylist():
                row = []
                for h in header:
                    v = r.get(h)
                    if v is None and h in defaults:
                        v = defaults[h]
                    if h in weight_cols and isinstance(v, list):
                        # repeated-element encoding back to {elem: w}
                        # (elements were extended (w+1) times at load)
                        out, seen = [], {}
                        for e in v:
                            if e in seen:
                                seen[e] += 1
                            else:
                                seen[e] = 0
                                out.append(e)
                        v = [{e: seen[e]} for e in out]
                    if isinstance(v, float) and v == int(v) and abs(v) < 2**53:
                        v = int(v)
                    row.append(v)
                rows.append(row)
        else:
            # never loaded: keys may exist via lexicon auto-population
            # (indexing interns tokens) or reference-key interning
            keys = self._derived_keys_sorted(t)
            if not keys:
                return None
            defaults = {
                c["name"]: (
                    0 if c["type"].startswith(("Int", "UInt"))
                    else 0.0 if c["type"] in ("Float", "Time") else ""
                )
                for c in own_cols
            }
            rows = [[k] + [defaults[n] for n in data_names] for k in keys]
        return (header, rows) if rows else None

    def _derived_keys(self, t: dict) -> list:
        """Keys of a never-loaded keyed table: tokens interned by its
        index columns (ADD-mode tokenize of the source columns, in _id
        order) plus values interned through reference columns typed to
        it. HASH keys keep first-appearance (id) order; PAT/DAT sort."""
        import pyarrow.parquet as pq

        from .tokenize import tokenize as _tok

        name = t["name"]
        if "NO_KEY" in t["flags"]:
            return []
        nrm = t["normalizer"] or (
            "NormalizerAuto" if "KEY_NORMALIZE" in t["flags"] else ""
        )

        def _knorm(v):
            # KEY_NORMALIZE intern form: NFKC + lowercase, blanks kept
            if nrm and isinstance(v, str):
                import unicodedata

                return unicodedata.normalize("NFKC", v).lower()
            return v

        seen: dict = {}

        def _table_rows(tbl_name: str, cols: list[str]):
            st = self.tables.get(tbl_name)
            if st is None:
                return None
            tb = pa.concat_tables(
                [pq.read_table(f) for f in st.source_files],
                promote_options="default",
            )
            if "_id" in tb.column_names:
                tb = tb.take(pc.sort_indices(tb, sort_keys=[("_id", "ascending")]))
            return tb

        for c in self._ddl_cols:
            if c["table"] == name and c["is_index"]:
                data = c["type"]
                srcs = [s.strip() for s in c["source"].split(",") if s.strip()]
                tb = _table_rows(data, srcs)
                if tb is None:
                    continue
                for src in srcs:
                    col = "_key" if src == "_key" else src
                    if col not in tb.column_names:
                        continue
                    for v in tb.column(col).to_pylist():
                        if v is None:
                            continue
                        vals = v if isinstance(v, list) else [v]
                        for txt in vals:
                            if not isinstance(txt, str) or not t["default_tokenizer"]:
                                # no tokenizer: the whole value interns
                                # as one key (grn_token_cursor over a
                                # tokenizer-less lexicon)
                                seen.setdefault(_knorm(txt), None)
                                continue
                            stream = _tok(
                                txt,
                                t["default_tokenizer"],
                                mode="add",
                                normalizer=nrm or None,
                            )
                            stream = self._apply_lexicon_chain(t, stream)
                            for tk in stream.tokens:
                                seen.setdefault(tk.term, None)
            elif c["type"] == name and not c["is_index"]:
                tb = _table_rows(c["table"], [c["name"]])
                if tb is None or c["name"] not in tb.column_names:
                    continue
                for v in tb.column(c["name"]).to_pylist():
                    if v is None:
                        continue
                    for e in v if isinstance(v, list) else [v]:
                        seen.setdefault(_knorm(e), None)
        for gone in self.defs[name].deleted_terms:
            seen.pop(gone, None)
        return list(seen)

    def _index_posting_counts(self, t: dict, c: dict) -> dict:
        """Per-term posting counts of a lexicon's index column — what
        the reference renders when an index column appears in select
        output (grn_output_obj over a COLUMN_INDEX: the entry count).
        Counted as distinct (record, source) pairs containing the
        term."""
        import pyarrow.parquet as pq

        from .tokenize import tokenize as _tok

        data = c["type"]
        st = self.tables.get(data)
        if st is None:
            return {}
        srcs = [s.strip() for s in (c["source"] or "").split(",") if s.strip()]
        tb = read_command_table(st.source_files)
        # logically deleted records contribute no postings (the lexicon
        # keys survive the delete with zero entries — delete/index)
        try:
            ts = st.reader().tombstones
        except Exception:  # noqa: BLE001
            ts = None
        if ts is not None and len(ts) and "_id" in tb.column_names:
            import numpy as _np

            ids = tb.column("_id").to_numpy(zero_copy_only=False).astype(
                _np.uint64
            )
            pos = _np.searchsorted(ts, ids)
            pos = _np.clip(pos, 0, len(ts) - 1)
            alive = ts[pos] != ids
            tb = tb.filter(pa.array(alive))
        # The rendered value is grn_ii_estimate_size (lib/db.c:6954 →
        # lib/ii.c:4470-4494): 1 for an inline single posting, else
        # a[1] + size_in_buffer + 2.  Under the load-hook update path
        # (grn_ii_update_one, lib/ii.c:3725-3878) a[1] keeps the first
        # posting's position after the term graduates from inline to a
        # buffer (it is never cleared), and size_in_buffer counts
        # buffer recs — one per (record, section) updspec.  So for an
        # index populated by load: estimate = 1 when df==1&&tf==1,
        # else first_pos + n_postings + 2 (first_pos = 0 when the very
        # first updspec had tf>1 and skipped the inline step).
        nrm = t["normalizer"] or (
            "NormalizerAuto" if "KEY_NORMALIZE" in t["flags"] else None
        )
        cols = []
        for src in srcs:
            col = "_key" if src == "_key" else src
            if col in tb.column_names:
                cols.append(tb.column(col).to_pylist())
        # state: term -> ["inline", first_pos] | ["buffer", a1, nrecs]
        state: dict = {}
        for rid in range(tb.num_rows):
            for vals in cols:
                v = vals[rid]
                if v is None:
                    continue
                specs: dict = {}   # term -> (tf, first_pos), doc order
                for txt in v if isinstance(v, list) else [v]:
                    if not isinstance(txt, str) or not t["default_tokenizer"]:
                        if nrm and isinstance(txt, str):
                            import unicodedata

                            txt = unicodedata.normalize("NFKC", txt).lower()
                        if txt not in specs:
                            specs[txt] = (1, 0)
                        continue
                    stream = _tok(
                        txt,
                        t["default_tokenizer"],
                        mode="add",
                        normalizer=nrm,
                    )
                    stream = self._apply_lexicon_chain(t, stream)
                    for tk in stream.tokens:
                        tf, fp = specs.get(tk.term, (0, tk.pos))
                        specs[tk.term] = (tf + 1, fp)
                for term, (tf, fp) in specs.items():
                    st = state.get(term)
                    if st is None:
                        state[term] = (
                            ["inline", fp] if tf == 1 else ["buffer", 0, 1]
                        )
                    elif st[0] == "inline":
                        state[term] = ["buffer", st[1], 2]
                    else:
                        st[2] += 1
        return {
            term: 1 if st[0] == "inline" else st[1] + st[2] + 2
            for term, st in state.items()
        }

    def _apply_lexicon_chain(self, t: dict, stream):
        """ADD-mode token-filter chain of a lexicon table (stemming
        rewrites interned terms — token_filters/stem.c; stop words
        intern unchanged in ADD mode)."""
        tf = [
            x.strip() for x in (t.get("token_filters") or "").split(",")
            if x.strip()
        ]
        if not tf:
            return stream
        from .tokenfilters import apply_chain_stream, build_chain

        return apply_chain_stream(
            build_chain({"token_filters": tf}), stream, "add"
        )

    def _derived_keys_sorted(self, t: dict) -> list:
        """_derived_keys in the table type's cursor order: HASH keeps
        first-appearance (id) order; PAT/DAT sort by key."""
        keys = self._derived_keys(t)
        if "PAT_KEY" in t["flags"] or "DAT_KEY" in t["flags"]:
            keys = sorted(keys, key=lambda k: (isinstance(k, str), k))
        return keys

    def _cmd_dump(self, params: dict) -> str:
        """``dump [tables] [--dump_plugins/schema/records/indexes no]``
        (proc_dump, lib/proc.c:3492-3541): reloadable command stream —
        plugins, schema (reference-typed columns deferred past all
        table_creates), records as load blocks, index columns last."""

        def _yes(key: str) -> bool:
            return (params.get(key) or "yes") != "no"

        only = {
            s.strip()
            for s in (params.get("tables") or "").replace(",", " ").split()
            if s.strip()
        }
        sections: list[str] = []
        if _yes("dump_plugins") and self._plugins:
            sections.append("\n".join(f"plugin_register {p}" for p in self._plugins))
        if _yes("dump_schema"):
            pending_refs: list[dict] = []
            table_names = {t["name"] for t in self._ddl_tables}
            for t in self._ddl_tables:
                block = [self._dump_table_line(t)]
                for c in sorted(
                    (c for c in self._ddl_cols
                     if c["table"] == t["name"] and not c["is_index"]),
                    key=lambda c: c["name"],
                ):
                    # data columns dump in NAME order within a table
                    # (grn_obj hash-cursor order the reference shows)
                    if c["type"] in table_names:
                        pending_refs.append(c)
                    else:
                        block.append(self._dump_col_line(c))
                sections.append("\n".join(block))
            if pending_refs:
                sections.append(
                    "\n".join(self._dump_col_line(c) for c in pending_refs)
                )
        if _yes("dump_records"):
            for t in self._ddl_tables:
                if only and t["name"] not in only:
                    continue
                hr = self._dump_rows(t)
                if hr is None:
                    continue
                header, rows = hr
                lines = [f"load --table {t['name']}", "["]
                body = [json.dumps(header, ensure_ascii=False, separators=(",", ":"))]
                body += [
                    json.dumps(r, ensure_ascii=False, separators=(",", ":"))
                    for r in rows
                ]
                lines.append(",\n".join(body))
                lines.append("]")
                sections.append("\n".join(lines))
        if _yes("dump_indexes"):
            idx = [self._dump_col_line(c) for c in self._ddl_cols if c["is_index"]]
            if idx:
                sections.append("\n".join(idx))
        return "\n\n".join(sections)

    # -------------------------------------------------------- DDL commands
    def _cmd_table_create(self, params: dict) -> bool:
        """``/d/table_create?name=X&flags=...&key_type=...
        &default_tokenizer=...&normalizer=...&token_filters=a,b``
        (proc_table_create): registers a pending table; the first load
        materializes it as a real index with server-assigned ``_id``
        docids."""
        name = params["name"]
        if not name or name in self.tables or name in self.defs:
            raise ValueError(f"table already exists or bad name: {name!r}")
        # grn_table_create resolves tokenizer/normalizer/filter names at
        # DDL time and fails the whole create on an unknown name (the
        # sharding fixtures rely on this: an invalid default_tokenizer
        # means the lexicon table never exists)
        from .normalize import is_known_normalizer
        from .tokenize import is_known_tokenizer
        from .tokenfilters import TOKEN_FILTERS

        tok = params.get("default_tokenizer")
        if tok and not is_known_tokenizer(tok):
            # an unresolvable tokenizer is ACCEPTED and stored nil
            # (table_create/default_tokenizer/nonexistent) — the
            # lexicon behaves tokenizer-less
            tok = ""
            params = {**params, "default_tokenizer": ""}
        nrm = params.get("normalizer")
        if nrm and not is_known_normalizer(nrm):
            # an unresolvable normalizer name is ACCEPTED (the
            # reference stores a nil normalizer and the table behaves
            # un-normalized — column_create/index/source/* fixtures
            # misspell NormalizerAuto deliberately)
            nrm = ""
            params = {**params, "normalizer": ""}
        tf_raw = params.get("token_filters")
        tf_err = None
        tf_clean = ""
        if tf_raw:
            parts = tf_raw.split(",")
            bad = [tf for tf in parts if not tf.strip()]
            unknown = [
                tf.strip() for tf in parts
                if tf.strip() and tf.strip() not in TOKEN_FILTERS
            ]
            if bad:
                # empty name between/around commas errors — but the
                # table itself is already created by then
                # (grn_proc_table_set_token_filters runs AFTER
                # grn_table_create; table_create/token_filters/
                # leading_comma's dump shows the filterless table)
                tf_err = f"[table][create] empty token filter name: <{tf_raw}>"
            elif unknown:
                tf_err = f"[table][create] unknown token filter: <{unknown[0]}>"
            else:
                tf_clean = ",".join(tf.strip() for tf in parts)
        params = {**params, "token_filters": tf_clean}
        self._obj_id(("t", name))
        self._ddl_tables.append(
            {
                "name": name,
                "flags": params.get("flags") or "TABLE_HASH_KEY",
                "key_type": params.get("key_type") or "",
                "value_type": params.get("value_type") or "",
                "default_tokenizer": tok or "",
                "normalizer": nrm or "",
                "token_filters": params.get("token_filters") or "",
            }
        )
        self.defs[name] = TableDef(
            name=name,
            flags=params.get("flags") or "TABLE_PAT_KEY",
            key_type=params.get("key_type") or "ShortText",
            default_tokenizer=params.get("default_tokenizer") or "TokenBigram",
            normalizer=params.get("normalizer") or "",
            token_filters=tuple(
                t.strip() for t in (params.get("token_filters") or "").split(",")
                if t.strip()
            ),
        )
        self._invalidate()
        if tf_err:
            raise ValueError(tf_err)
        return True

    def _cmd_column_create(self, params: dict) -> bool:
        """``/d/column_create?table=X&name=c&type=T&flags=...&source=s``
        (proc_column_create). On a pending table: a COLUMN_INDEX flag
        marks its source column(s) as indexed text sections; otherwise
        records the scalar column. Built tables are immutable —
        schema comes from the Parquet sources (documented divergence)."""
        ok = self._column_create_inner(params)
        if ok:
            self._obj_id(("c", params.get("table"), params.get("name")))
            self._ddl_cols.append(
                {
                    "table": params.get("table"),
                    "name": params.get("name"),
                    "flags": params.get("flags") or "COLUMN_SCALAR",
                    "type": params.get("type") or "ShortText",
                    "source": params.get("source") or params.get("sources") or "",
                    "is_index": "COLUMN_INDEX" in (params.get("flags") or ""),
                }
            )
        return ok

    def _column_create_inner(self, params: dict) -> bool:
        name = params.get("table")
        td = self.pending.get(name or "")
        if "COLUMN_INDEX" in (params.get("flags") or ""):
            # reference form: the index column lives on a LEXICON table
            # (``table``), ``type`` names the data table and ``source``
            # its indexed column(s); the lexicon's tokenizer/normalizer
            # config governs the index. Also accept the direct form
            # (index declared on the data table itself).
            if name not in self.defs and name not in self.tables:
                # the lexicon table must already exist (grn_column_create
                # resolves ``table`` first; the sharding fixtures create
                # indexes on a Terms table whose table_create failed)
                raise ValueError(f"[column][create] table doesn't exist: <{name}>")
            data_td = self.pending.get(params.get("type") or "") or td
            if data_td is None:
                raise ValueError(
                    "column_create COLUMN_INDEX requires a pending data table"
                )
            # a GeoPoint-keyed lexicon table declares a GEO index over
            # the source column (grn_geo_select_in_rectangle's index,
            # lib/geo.c:687) — built as the zkey-sorted Parquet dataset
            is_geo = td is not None and td.key_type.endswith("GeoPoint")
            # a non-text, non-geo keyed lexicon (e.g. TABLE_PAT_KEY Time
            # over a timestamp column) is a RANGE index in the reference;
            # our Parquet layout already serves range scans, so record
            # provenance but don't mark the column for tokenization
            is_range = (
                td is not None
                and not is_geo
                and td.key_type not in ("ShortText", "Text", "LongText")
            )
            srcs = [
                s.strip()
                for s in (params.get("source") or params.get("sources") or "").split(",")
                if s.strip()
            ]
            # source validation (grn_obj_set_info GRN_INFO_SOURCE,
            # lib/db.c:8380): every source must be a real column (or
            # _key) of the data table; >1 source needs WITH_SECTION;
            # a reference-keyed lexicon only indexes columns OF that
            # reference type
            data_cols = dict(getattr(data_td, "columns", {}) or {})
            for c in self._ddl_cols:
                if c["table"] == (params.get("type") or name) and not c.get("is_index"):
                    data_cols.setdefault(c["name"], c.get("type"))
            iname = params.get("name")
            for s in srcs:
                if s == "_id" or (s != "_key" and data_cols and s not in data_cols):
                    raise ValueError(
                        f"[column][create][index] invalid source: <{s}>: "
                        f"<{name}.{iname}>"
                    )
            if len(srcs) > 1 and "WITH_SECTION" not in (params.get("flags") or ""):
                raise ValueError(
                    f"[column][create][index] multi column index needs "
                    f"WITH_SECTION flag: <{name}.{iname}>"
                )
            if td is not None and td.key_type in self.pending and not is_geo:
                ref_key = td.key_type
                for s in srcs:
                    styp = (
                        self.pending.get(params.get("type") or "").key_type
                        if s == "_key" and (params.get("type") or "") in self.pending
                        else data_cols.get(s)
                    )
                    if styp != ref_key:
                        raise ValueError(
                            f"[column][create][index] source type must be "
                            f"<{ref_key}>: <{styp}>: <{name}.{iname}>"
                        )
            if not is_range:
                for src in srcs:
                    (data_td.geo_indexed if is_geo else data_td.indexed).add(src)
            # provenance for column_remove (grn_obj_remove of an index
            # column drops the index, lib/db.c:8900)
            lex_td = self.defs.get(name)
            if lex_td is not None:
                lex_td.index_columns[params["name"]] = (
                    params.get("type") or name, srcs, is_geo
                )
            if td is not None and td is not data_td and not (is_geo or is_range):
                data_td.default_tokenizer = td.default_tokenizer
                # the KEY_NORMALIZE table flag is the legacy spelling
                # of --normalizer NormalizerAuto (grn_table_create,
                # lib/db.c GRN_OBJ_KEY_NORMALIZE)
                data_td.normalizer = td.normalizer or (
                    "NormalizerAuto" if "KEY_NORMALIZE" in td.flags else ""
                )
                data_td.token_filters = td.token_filters
            data_name = params.get("type") or name
            if data_name in self.tables:
                # OFFLINE build: the data table is already loaded, so
                # the new index builds now over the stored records
                # (grn_obj_set_info GRN_INFO_SOURCE triggers
                # grn_ii_build, lib/db.c:8380 → lib/ii.c)
                self._offline_index_build(data_name, td, srcs, is_geo)
            return True
        if td is None:
            raise ValueError(
                "column_create requires a pending (not yet loaded) table"
            )
        td.columns[params["name"]] = params.get("type") or "ShortText"
        if "COLUMN_VECTOR" in (params.get("flags") or ""):
            td.vector_columns.add(params["name"])
        return True

    def _cmd_column_remove(self, params: dict) -> bool:
        ok = self._column_remove_inner(params)
        if ok:
            t, n = params.get("table"), params.get("name")

            def _depends(c: dict) -> bool:
                # removing a data column also removes every index
                # column built over it (grn_obj_remove dependent walk,
                # lib/db.c:8900 — column_remove/*/with_index)
                return c["is_index"] and c["type"] == t and n in [
                    s.strip() for s in (c["source"] or "").split(",")
                ]

            dropped = [
                c for c in self._ddl_cols
                if (c["table"] == t and c["name"] == n) or _depends(c)
            ]
            self._ddl_cols = [
                c for c in self._ddl_cols if c not in dropped
            ]
            for c in dropped:
                td = self.defs.get(c["table"])
                if td is not None:
                    td.index_columns.pop(c["name"], None)
                    td.truncated_indexes.discard(c["name"])
        return ok

    def _column_remove_inner(self, params: dict) -> bool:
        """``/d/column_remove?table=X&name=c`` (proc_column_remove →
        grn_obj_remove): removing an INDEX column drops the index (the
        data stays); removing a data column drops it from the pending
        schema / declared types."""
        table, name = params.get("table"), params.get("name")
        td = self.defs.get(table or "")
        info = td.index_columns.pop(name, None) if td is not None else None
        if info is not None:
            data_name, srcs, is_geo = info
            dtd = self.defs.get(data_name)
            for src in srcs:
                if is_geo:
                    if dtd is not None:
                        dtd.geo_indexed.discard(src)
                    t = self.tables.get(data_name)
                    if t is not None and t.geo_indexes and src in t.geo_indexes:
                        gi = {k: v for k, v in t.geo_indexes.items() if k != src}
                        self.tables[data_name] = replace(
                            t, geo_indexes=gi or None
                        )
                elif dtd is not None and data_name in self.pending:
                    # a loaded table's built index keeps the section
                    dtd.indexed.discard(src)
            self._invalidate()
            return True
        if td is not None and name in td.columns:
            del td.columns[name]
            if table in self.pending:
                # a loaded table's stored files and index keep the column
                td.vector_columns.discard(name)
                td.indexed.discard(name)
            self._invalidate()
            return True
        raise ValueError(f"column_remove: unknown column {table}.{name}")

    def _cmd_table_remove(self, params: dict) -> bool:
        """``/d/table_remove?name=X`` (proc_table_remove). Removes the
        catalog entry; on-disk data of server-created tables is
        deleted, externally registered tables are only deregistered."""
        import os
        import shutil

        name = params.get("name") or params.get("table")
        # referenced-integrity walk (grn_obj_remove dependency check,
        # lib/db.c:8900): another table keyed on this table, or another
        # table's column typed as this table, blocks the removal.
        # Self-references don't (the object dies with its table).
        for t in self._ddl_tables:
            if t["name"] != name and t.get("key_type") == name:
                raise ValueError(
                    f"[table][remove] a table that references the table "
                    f"exists: <{t['name']}._key> -> <{name}>"
                )
        for c in self._ddl_cols:
            if c["table"] != name and not c.get("is_index") and c.get("type") == name:
                raise ValueError(
                    f"[table][remove] a column that references the table "
                    f"exists: <{c['table']}.{c['name']}> -> <{name}>"
                )
        self._ddl_tables = [t for t in self._ddl_tables if t["name"] != name]
        self._ddl_cols = [c for c in self._ddl_cols if c["table"] != name]
        td = self.defs.pop(name, None)
        t = self.tables.pop(name, None)
        if td is None and t is None:
            raise ValueError(f"unknown table: {name}")
        if t is not None and self.data_dir and t.index_dir.startswith(
            os.path.join(self.data_dir, "")
        ):
            shutil.rmtree(os.path.dirname(t.index_dir), ignore_errors=True)
        self._invalidate()
        return True

    def _alt_index_for(self, tname: str, mc: str, table):
        """When match_columns addresses an index column explicitly
        (``Lexicon1.memo_index.content``) and that lexicon's analyzer
        config differs from the one the data table's live index was
        built with (several lexicons may index one table with different
        tokenizers — grn_column_index resolves the NAMED index object,
        lib/expr.c:6050; select/match_columns/section/by_name/1_item/
        multiple_indexes), lazily build a sibling index with that
        lexicon's config and route the match through it."""
        import re as _re

        m = _re.fullmatch(
            r"(\w+)\.(\w+)((?:\.\w+)|(?:\[\d+\]))?(?:\s*\*\s*[\d.]+)?",
            mc.strip(),
        )
        if not m:
            return None
        lexname, iname = m.group(1), m.group(2)
        lex_td = self.pending.get(lexname)
        entry = lex_td.index_columns.get(iname) if lex_td is not None else None
        if entry is None:
            return None
        data, srcs, is_geo = entry
        if data != tname or is_geo or not srcs:
            return None
        import os

        from .build import BuildConfig, read_manifest

        meta = read_manifest(os.path.join(table.index_dir, "meta.json"))
        cur = BuildConfig.from_fingerprint(meta["config"])
        want_norm = lex_td.normalizer or (
            "NormalizerAuto" if "KEY_NORMALIZE" in lex_td.flags else ""
        )
        cols = tuple(
            "_key" if s == "_key" else s for s in srcs
        )
        if (
            cur.tokenizer == lex_td.default_tokenizer
            and (cur.normalizer or "") == (want_norm or "")
            and (cur.token_filters or ()) == (lex_td.token_filters or ())
            and all(c in cur.text_columns for c in cols)
        ):
            return None
        cfg = replace(
            cur,
            text_columns=cols,
            tokenizer=lex_td.default_tokenizer,
            token_filters=lex_td.token_filters,
            stop_words=self._lexicon_stop_words(tname, lex_td),
            normalizer=want_norm,
        )
        alt_dir = f"{table.index_dir}@{lexname}.{iname}"
        sig = (alt_dir, tuple(table.source_files), cfg.fingerprint())
        if self._alt_built.get(alt_dir) != sig:
            _rebuild_index(alt_dir, table.source_files, cfg)
            self._alt_built[alt_dir] = sig
        return replace(
            table,
            index_dir=alt_dir,
            index_defs={f"{lexname}.{iname}": list(srcs)},
            auto_indexed=False,
        )

    def _offline_index_build(
        self, data_name: str, lex_td, srcs: list, is_geo: bool
    ) -> None:
        """Rebuild a LOADED table's index to cover the newly declared
        sources with the lexicon's tokenizer/normalizer config."""
        import os

        import pyarrow.parquet as pq

        from .build import BuildConfig, read_manifest

        t = self.tables[data_name]
        td = self.defs.get(data_name)
        if is_geo:
            if td is not None:
                td.geo_indexed.update(srcs)
            geo_cols = sorted(set(t.geo_indexes or ()) | set(srcs))
            tdir = os.path.dirname(t.index_dir)
            geo_indexes = self._build_geo_indexes(
                tdir, list(t.source_files), geo_cols
            )
            self.tables[data_name] = replace(t, geo_indexes=geo_indexes)
            self._invalidate()
            return
        schema = pq.read_schema(t.source_files[0])
        cols = [
            "_key" if s == "_key" else s for s in srcs if s == "_key" or s in schema.names
        ]
        cols = [c for c in cols if c in schema.names]
        if not cols:
            return
        meta = read_manifest(os.path.join(t.index_dir, "meta.json"))
        old_cfg = BuildConfig.from_fingerprint(meta["config"])
        existing = [] if getattr(t, "auto_indexed", False) else [
            c for c in old_cfg.text_columns if c != "_dummy_text"
        ]
        cfg = replace(
            old_cfg,
            text_columns=tuple(dict.fromkeys(existing + cols)),
            tokenizer=lex_td.default_tokenizer,
            token_filters=lex_td.token_filters,
            stop_words=self._lexicon_stop_words(data_name, lex_td),
            normalizer=lex_td.normalizer or (
                "NormalizerAuto" if "KEY_NORMALIZE" in lex_td.flags else ""
            ),
        )
        _rebuild_index(t.index_dir, t.source_files, cfg, meta.get("next_docid"))
        if td is not None:
            td.indexed.update(cols)
        self.tables[data_name] = replace(
            t, auto_indexed=False, index_defs=self._index_defs_for(data_name)
        )
        self._invalidate()

    # ---- suggest dataset surface (plugins/suggest + the DDL the
    # groonga-suggest-create-dataset tool emits) -----------------------

    def _cmd_suggest_create_dataset(self, params: dict) -> bool:
        """grntest's ``#@suggest-create-dataset <name>`` directive:
        register the dataset's learn/query state (the reference runs
        groonga-suggest-create-dataset, which emits the item_/pair_/
        sequence_/event_/configuration DDL)."""
        name = params.get("name") or ""
        self._sgg[name] = {
            "items": OrderedDict(),   # norm key -> {"boost": i, "kana": [..]}
            "events": [],             # arrival order: (seq, time, item, type)
            "weight": 1,
        }
        return True

    def _suggest_norm(self, s: str) -> str:
        """Item keys intern through the KEY_NORMALIZE item table:
        NFKC + lowercase, blanks KEPT (key normalization runs without
        GRN_STRING_REMOVE_BLANK, lib/db.c grn_table_add)."""
        import unicodedata

        return unicodedata.normalize("NFKC", s).lower()

    def _suggest_load(self, name: str | None, records: list, params: dict):
        """Intercept loads into a suggest dataset's tables
        (configuration / item_<ds> / event_<ds>). Returns the loaded
        count, or None when the load isn't suggest-related."""
        sgg = self._sgg
        if not sgg or not name:
            return None
        if name == "configuration":
            for r in records:
                ds = r.get("_key")
                if ds in sgg and "weight" in r:
                    sgg[ds]["weight"] = int(r["weight"])
            return len(records)
        for ds, st in sgg.items():
            if name == f"item_{ds}":
                for r in records:
                    k = self._suggest_norm(str(r.get("_key", "")))
                    e = st["items"].setdefault(k, {"boost": 0, "kana": []})
                    if "boost" in r:
                        e["boost"] = int(r["boost"])
                    kana = r.get("kana")
                    if kana is not None:
                        e["kana"] = (
                            [str(x) for x in kana]
                            if isinstance(kana, list) else [str(kana)]
                        )
                st["learned"] = None
                return len(records)
            if name == f"event_{ds}":
                for r in records:
                    st["events"].append(
                        (
                            str(r.get("sequence", "")),
                            float(r.get("time", 0.0)),
                            str(r.get("item", "")),
                            r.get("type"),
                        )
                    )
                st["learned"] = None
                return len(records)
        return None

    def _suggest_learned(self, ds: str):
        """Replay the dataset's event log into (items, pairs) Arrow
        tables — the learner semantics live in pipelines.suggest
        (_replay_sequence / token interning); this is the command-sized
        in-process evaluation of the same math."""
        from .pipelines.suggest import (
            MIN_LEARN_DISTANCE_US,
            _replay_sequence,
            _split_tokens_with_stop,
        )

        st = self._sgg[ds]
        if st.get("learned") is not None:
            return st["learned"]
        w = st["weight"]
        # intern order: item loads first, then events/tokens on arrival.
        # items[k] = [freq, freq2, boost, kana, indexed] — indexed is
        # False for token-interned-only items (the reference's token
        # cursor add skips the _key index hooks, so the similar search
        # never sees them)
        items: "OrderedDict[str, list]" = OrderedDict()
        for k, info in st["items"].items():
            items[k] = [0, 0, info["boost"], info["kana"], True]
        by_seq: "OrderedDict[str, list]" = OrderedDict()
        for seq, tm, item, typ in st["events"]:
            k = self._suggest_norm(item)
            e = items.setdefault(k, [0, 0, 0, [], True])
            e[4] = True
            e[0] += w                      # freq
            if typ:
                e[1] += w                  # freq2 (submit)
                for tok in _split_tokens_with_stop(k):
                    items.setdefault(tok, [0, 0, 0, [], False])
            by_seq.setdefault(seq, []).append((tm, k, 1 if typ else 0))
        pairs: dict = {}
        for seq, evs in by_seq.items():
            g = pa.table(
                {
                    "doc_id": pa.array([0] * len(evs), pa.int64()),
                    "ord": pa.array(range(len(evs)), pa.int64()),
                    "time_us": pa.array(
                        [int(t * 1_000_000) for t, _, _ in evs], pa.int64()
                    ),
                    "item": pa.array([k for _, k, _ in evs], pa.string()),
                    "is_submit": pa.array([s for _, _, s in evs], pa.int64()),
                }
            )
            inc = _replay_sequence(g)
            for row in inc.to_pylist():
                key = (row["pre"], row["post"])
                p = pairs.setdefault(key, [0, 0, 0])
                p[0] += row["freq0"] * w
                p[1] += row["freq1"] * w
                p[2] += row["freq2"] * w
        keys = list(items)
        items_tbl = pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "freq": pa.array([items[k][0] for k in keys], pa.int64()),
                "freq2": pa.array([items[k][1] for k in keys], pa.int64()),
                "boost": pa.array([items[k][2] for k in keys], pa.int64()),
                "kana": pa.array(
                    [items[k][3] for k in keys], pa.list_(pa.string())
                ),
                "indexed": pa.array(
                    [items[k][4] for k in keys], pa.bool_()
                ),
            }
        )
        pkeys = list(pairs)
        pairs_tbl = pa.table(
            {
                "pre": pa.array([k[0] for k in pkeys], pa.string()),
                "post": pa.array([k[1] for k in pkeys], pa.string()),
                "freq0": pa.array([pairs[k][0] for k in pkeys], pa.int64()),
                "freq1": pa.array([pairs[k][1] for k in pkeys], pa.int64()),
                "freq2": pa.array([pairs[k][2] for k in pkeys], pa.int64()),
            }
        )
        st["learned"] = (items_tbl, pairs_tbl)
        return st["learned"]

    def _cmd_suggest(self, params: dict) -> dict:
        """``/d/suggest`` (plugins/suggest/suggest.c:548-627
        command_suggest): one result set per requested type."""
        from .pipelines.suggest import SuggestDataset

        table = params.get("table") or ""
        if not table.startswith("item_") or table[len("item_"):] not in self._sgg:
            # constructor-registered on-disk datasets
            return self._cmd_suggest_dirs(params)
        ds = table[len("item_"):]
        items_tbl, pairs_tbl = self._suggest_learned(ds)
        sd = SuggestDataset.from_tables(items_tbl, pairs_tbl)
        query = self._suggest_norm(params.get("query") or "")
        kwargs: dict = {}
        if params.get("frequency_threshold") not in (None, ""):
            kwargs["frequency_threshold"] = int(params["frequency_threshold"])
        if params.get("conditional_probability_threshold") not in (None, ""):
            kwargs["conditional_probability_threshold"] = float(
                params["conditional_probability_threshold"]
            )
        if params.get("prefix_search"):
            kwargs["prefix_search"] = params["prefix_search"]
        if params.get("similar_search"):
            kwargs["similar_search"] = params["similar_search"]
        if params.get("sortby"):
            kwargs["sortby"] = params["sortby"]
        if params.get("offset") not in (None, ""):
            kwargs["offset"] = int(params["offset"])
        if params.get("limit") not in (None, ""):
            kwargs["limit"] = int(params["limit"])
        out: dict = {}
        wanted = [t for t in (params.get("types") or "").split("|") if t]
        for typ in wanted:
            if typ == "complete":
                tbl = sd.complete(
                    query,
                    **{k: v for k, v in kwargs.items() if k != "similar_search"},
                )
            elif typ == "correct":
                tbl = sd.correct(
                    query,
                    **{k: v for k, v in kwargs.items() if k != "prefix_search"},
                )
            elif typ == "suggest":
                tbl = sd.suggest(
                    query,
                    **{
                        k: v for k, v in kwargs.items()
                        if k not in ("prefix_search", "similar_search")
                    },
                )
            else:
                continue
            rows = [
                [r["_key"], int(r["_score"])] for r in tbl.to_pylist()
            ]
            out[typ] = [
                [len(rows)],
                [["_key", "ShortText"], ["_score", "Int32"]],
                *rows,
            ]
        return out

    def _cmd_truncate(self, params: dict) -> bool:
        """``/d/truncate?target_name=X`` (proc_truncate): empty the
        table (schema survives, records go) or clear an index/data
        column. A ``Table.column`` target clears just that column."""
        import os
        import shutil

        name = params.get("target_name") or params.get("table") or ""
        if "." in name:
            tname, col = name.split(".", 1)
            if tname not in self.tables and tname not in self.defs:
                raise ValueError(f"[truncate] no such target: <{name}>")
            if any(
                c["table"] == tname and c["name"] == col and c["is_index"]
                for c in self._ddl_cols
            ):
                # index-column truncate: postings go, the lexicon keys
                # stay (grn_column_truncate on a COLUMN_INDEX)
                if tname in self.defs:
                    self.defs[tname].truncated_indexes.add(col)
                return True
            t = self.tables.get(tname)
            if t is not None:
                # data-column truncate: every value resets to the
                # type's zero (grn_column_truncate) — rewrite the
                # stored files and rebuild the index in place
                import pyarrow.parquet as pq

                from .build import BuildConfig, read_manifest

                typ = self._column_types(tname).get(col)
                default = self._ref_default(typ) if typ else ""
                changed = False
                for f in t.source_files:
                    tbl = pq.read_table(f)
                    if col not in tbl.column_names:
                        continue
                    i = tbl.column_names.index(col)
                    cur = tbl.column(col).type
                    if pa.types.is_list(cur) or pa.types.is_large_list(cur):
                        arr = pa.array([[]] * tbl.num_rows, cur)
                    else:
                        arr = pa.array([default] * tbl.num_rows).cast(cur)
                    pq.write_table(tbl.set_column(i, col, arr), f)
                    changed = True
                if changed:
                    meta = read_manifest(os.path.join(t.index_dir, "meta.json"))
                    cfg = BuildConfig.from_fingerprint(meta["config"])
                    _rebuild_index(t.index_dir, t.source_files, cfg, meta.get("next_docid"))
                    self._invalidate()
            return True
        if name not in self.defs:
            # externally registered tables have no catalog entry
            raise ValueError(f"[truncate] no such target: <{name}>")
        t = self.tables.pop(name, None)
        if t is None:
            return True  # pending: already empty
        if self.data_dir and t.index_dir.startswith(
            os.path.join(self.data_dir, "")
        ):
            shutil.rmtree(os.path.dirname(t.index_dir), ignore_errors=True)
        self._invalidate()
        return True

    def _cmd_table_rename(self, params: dict) -> bool:
        """``/d/table_rename?name=X&new_name=Y`` (proc_table_rename) —
        catalog rename; files stay in place."""
        name, new = params["name"], params["new_name"]
        if new in self.tables or new in self.defs:
            raise ValueError(f"table already exists: {new}")
        if name not in self.tables and name not in self.defs:
            raise ValueError(f"unknown table: {name}")
        if name in self.defs:
            self.defs[new] = self.defs.pop(name)
            self.defs[new].name = new
        if name in self.tables:
            self.tables[new] = self.tables.pop(name)
        for t in self._ddl_tables:
            if t["name"] == name:
                t["name"] = new
        for c in self._ddl_cols:
            if c["table"] == name:
                c["table"] = new
            if c["type"] == name:
                c["type"] = new
        self._invalidate()
        return True

    def _cmd_table_tokenize(self, params: dict) -> list:
        """``/d/table_tokenize?table=X&string=...&mode=GET`` —
        proc_table_tokenize (lib/proc.c:4220): tokenize with the
        table's configured tokenizer + token-filter chain."""
        import os

        from .tokenfilters import apply_chain_stream, build_chain
        from .tokenize import tokenize

        name = params.get("table")
        mode = (params.get("mode") or "GET").lower()
        if name in self.pending:
            td = self.pending[name]
            tok, tf, sw = td.default_tokenizer, td.token_filters, ()
        else:
            from .build import read_manifest

            t = self._table(params)
            cfg = read_manifest(os.path.join(t.index_dir, "meta.json"))["config"]
            tok = cfg.get("tokenizer", "TokenCodeWord")
            tf = tuple(cfg.get("token_filters", ()))
            sw = tuple(cfg.get("stop_words", ()))
        s = params["string"]
        if "ENABLE_TOKENIZED_DELIMITER" in (params.get("flags") or "") and "￾" in s:
            # grn_tokenizer_next_by_tokenized_delimiter (lib/tokenizer.c):
            # when U+FFFE appears, the tokenizer yields the normalized
            # text between delimiters verbatim (inner blanks survive —
            # REMOVE_BLANK is bypassed on this path)
            import unicodedata

            norm = unicodedata.normalize("NFKC", s).lower()
            vals = [seg for seg in norm.split("￾") if seg]
            return [
                {"value": v, "position": i} for i, v in enumerate(vals)
            ]
        stream = tokenize(s, tok, mode=mode)
        if tf:
            chain = build_chain({"token_filters": tf, "stop_words": sw})
            stream = apply_chain_stream(chain, stream, mode)
        toks = [{"value": t.term, "position": t.pos} for t in stream.tokens]
        if mode == "add" and (name in self.defs or name in self.tables):
            # ADD inserts each token into the lexicon table itself
            # (grn_token_cursor GRN_TOKEN_ADD → grn_pat_add)
            import json as _json

            existing = self._table_key_set(name)
            new = [
                {"_key": v}
                for v in dict.fromkeys(t["value"] for t in toks)
                if v not in existing
            ]
            if new:
                self._cmd_load({"table": name, "values": _json.dumps(new)})
        if mode == "get":
            # GET looks each token up in the lexicon table and yields
            # only the ones that exist (grn_token_cursor GRN_TOKEN_GET:
            # grn_pat_get, no add — absent terms produce no token);
            # TokenFilterStopWord then drops records whose
            # ``is_stop_word`` column is true (token_filters/stop_word.c)
            keys = self._table_key_set(name)
            toks = [t for t in toks if t["value"] in keys]
            if "TokenFilterStopWord" in tf:
                sws = self._flagged_key_set(name, "is_stop_word")
                toks = [t for t in toks if t["value"] not in sws]
        return toks

    def _table_key_set(self, name: str) -> set:
        """All ``_key`` values currently in a command-created table
        (small tables only — the command surface's load-sized bound)."""
        import pyarrow.parquet as pq

        t = self.tables.get(name)
        if t is None:
            return set()
        keys: set = set()
        for f in t.source_files:
            if "_key" in pq.read_schema(f).names:
                keys.update(pq.read_table(f, columns=["_key"])["_key"].to_pylist())
        return keys

    def _flagged_key_set(self, name: str, flag_col: str) -> set:
        """``_key`` values whose boolean ``flag_col`` is true."""
        import pyarrow.parquet as pq

        t = self.tables.get(name)
        if t is None:
            return set()
        out: set = set()
        for f in t.source_files:
            names = pq.read_schema(f).names
            if "_key" in names and flag_col in names:
                tb = pq.read_table(f, columns=["_key", flag_col])
                for k, v in zip(
                    tb["_key"].to_pylist(), tb[flag_col].to_pylist()
                ):
                    if v:
                        out.add(k)
        return out

    def _cmd_define_selector(self, params: dict) -> bool:
        """``/d/define_selector?name=X&table=...&query=...``
        (proc_define_selector): registers a new command that runs
        select with these parameters as defaults; request parameters
        override them."""
        frozen = {k: v for k, v in params.items() if k != "name"}
        name = params["name"]
        if not name or name in self._commands:
            raise ValueError(f"command already exists or bad name: {name!r}")

        def selector(p: dict, _frozen=frozen) -> list:
            merged = dict(_frozen)
            merged.update(p)
            return self._cmd_select(merged)

        self._commands[name] = selector
        return True

    # ------------------------------------------------------ admin commands
    # the reference's builtin tokenizer registration order (grn_db_init_
    # builtin_tokenizers, lib/tokenizers.c; TokenMecab first when built
    # with mecab — the suite's goldens are). Listed names are the
    # command-surface registry; TokenMecab itself raises at use time
    # (no morphological analyzer in this build).
    _BUILTIN_TOKENIZER_ORDER = [
        "TokenMecab", "TokenDelimit", "TokenUnigram", "TokenBigram",
        "TokenTrigram", "TokenBigramSplitSymbol",
        "TokenBigramSplitSymbolAlpha", "TokenBigramSplitSymbolAlphaDigit",
        "TokenBigramIgnoreBlank", "TokenBigramIgnoreBlankSplitSymbol",
        "TokenBigramIgnoreBlankSplitSymbolAlpha",
        "TokenBigramIgnoreBlankSplitSymbolAlphaDigit", "TokenDelimitNull",
        "TokenRegexp",
    ]

    def _cmd_tokenizer_list(self, params: dict) -> list:
        """``tokenizer_list`` (proc_tokenizer_list, lib/proc.c): the
        builtin registry in registration order, then plugin-registered
        extras (our TokenCodeWord and friends join via ``register``)."""
        from .tokenize import CUSTOM_TOKENIZERS

        extras = sorted(set(CUSTOM_TOKENIZERS) - set(self._BUILTIN_TOKENIZER_ORDER))
        return [{"name": n} for n in self._BUILTIN_TOKENIZER_ORDER + extras]

    def _cmd_normalizer_list(self, params: dict) -> list:
        from .normalize import CUSTOM_NORMALIZERS

        names = sorted(
            {"NormalizerAuto", "NormalizerNFKC51"} | set(CUSTOM_NORMALIZERS)
        )
        return [{"name": n} for n in names]

    def _cmd_cache_limit(self, params: dict) -> int:
        """``/d/cache_limit?max=N`` (proc_cache_limit): returns the
        previous max; with ``max`` sets a new one (0 disables)."""
        prev = self._select_cache.max_items
        if params.get("max") is not None and params.get("max") != "":
            mx = params["max"]
            if not mx.isdigit():
                raise ValueError(f"max must be a non-negative integer: {mx!r}")
            self._select_cache.max_items = int(mx)
        return prev

    def _cmd_log_level(self, params: dict) -> bool:
        """``/d/log_level?level=warning`` — maps to the package
        logger's level (proc_log_level)."""
        levels = {
            "emergency": logging.CRITICAL, "alert": logging.CRITICAL,
            "critical": logging.CRITICAL, "error": logging.ERROR,
            "warning": logging.WARNING, "notice": logging.INFO,
            "info": logging.INFO, "debug": logging.DEBUG, "dump": logging.DEBUG,
        }
        lv = params["level"].lower()
        if lv not in levels:
            raise ValueError(f"unknown log level: {lv}")
        logging.getLogger("groonga_ray").setLevel(levels[lv])
        return True

    def _cmd_log_put(self, params: dict) -> bool:
        """``/d/log_put?level=info&message=...`` (proc_log_put)."""
        lv = {"error": logging.ERROR, "warning": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}.get(
            (params.get("level") or "info").lower(), logging.INFO
        )
        logging.getLogger("groonga_ray").log(lv, params.get("message", ""))
        return True

    def _cmd_clearlock(self, params: dict) -> bool:
        """``/d/clearlock`` / ``/d/lock_clear``: always true — the
        index is immutable artifacts + manifests; there are no locks
        to clear (the reference clears stale io locks after crashes)."""
        return True

    def _cmd_request_cancel(self, params: dict) -> dict:
        """``/d/request_cancel?id=X``: requests here are synchronous —
        by the time a cancel arrives the request has completed, so
        ``canceled`` is always false (the reference flags an in-flight
        ctx, lib/request_canceler.c)."""
        return {"id": params.get("id"), "canceled": False}

    def _cmd_register(self, params: dict) -> bool:
        """``/d/register?path=<module-or-file>`` (proc_register →
        grn_plugin_register): load a Python plugin module into this
        server process. The module's ``plugin_register()`` hook may
        call ``server_ref.register_command`` via
        :data:`groonga_ray.plugin` registries. The reference's bundled
        ``query_expanders/tsv`` plugin is built in."""
        path = params.get("path") or params.get("name") or ""
        if path.removesuffix(".so") == "query_expanders/tsv":
            # plugins/query_expanders/tsv.c: registers QueryExpanderTSV
            # reading the synonyms TSV (GRN_QUERY_EXPANDER_TSV_
            # SYNONYMS_FILE, default <config>/synonyms.tsv)
            self._tsv_expander = True
            if path not in self._plugins:
                self._plugins.append(path)
            return True
        # same surface as plugin_register: python plugins load;
        # reference plugin names (token_filters/*, ...) whose semantics
        # are built in journal for dump and no-op
        return self._cmd_plugin_register({"name": path})

    def _cmd_copy_path(self, params: dict) -> bool:
        """grntest's ``#@copy-path src dst`` directive: record the
        fixture file under its destination label (the tsv query
        expander reads it)."""
        self._copied[params.get("dst", "")] = params.get("src_abs", "")
        return True

    def _tsv_expander_dict(self) -> dict:
        """Parse the copied synonyms.tsv (plugins/query_expanders/
        tsv.c:145-200): ``key TAB expansion...`` — multiple expansions
        wrap as ``((e1) OR (e2))``; ``#`` lines are comments."""
        import os

        path = None
        for dst, src in self._copied.items():
            if dst.endswith("synonyms.tsv"):
                path = src
        path = os.environ.get("GRN_QUERY_EXPANDER_TSV_SYNONYMS_FILE", path)
        out: dict[str, str] = {}
        if not path or not os.path.exists(path):
            return out
        with open(path, encoding="utf-8") as fh:
            for ln in fh:
                ln = ln.rstrip("\n")
                if not ln or ln.startswith("#"):
                    continue
                parts = ln.split("\t")
                if len(parts) < 2:
                    continue
                key, exps = parts[0], [p for p in parts[1:] if p]
                if not exps:
                    continue
                out[key] = (
                    "(" + " OR ".join(f"({e})" for e in exps) + ")"
                    if len(exps) > 1 else exps[0]
                )
        return out

    def _obj_id(self, key) -> int:
        """Sequential object ids from 256, in creation order — the
        reference's grn_obj ids that table_list/column_list render
        (lib/proc.c proc_table_list); path is db/db.%07x of the id."""
        if key not in self._obj_ids:
            self._obj_ids[key] = self._next_obj_id
            self._next_obj_id += 1
        return self._obj_ids[key]

    def _cmd_table_list(self, params: dict) -> list:
        """``/d/table_list`` (proc_table_list, lib/proc.c): one row per
        registered table — (id, name, path, flags, domain, range,
        default_tokenizer, normalizer), sorted by name."""
        header = [
            ["id", "UInt32"], ["name", "ShortText"], ["path", "ShortText"],
            ["flags", "ShortText"], ["domain", "ShortText"],
            ["range", "ShortText"], ["default_tokenizer", "ShortText"],
            ["normalizer", "ShortText"],
        ]
        rows = []
        ddl_names = {t["name"] for t in self._ddl_tables}
        for t in sorted(self._ddl_tables, key=lambda x: x["name"]):
            oid = self._obj_id(("t", t["name"]))
            flags = [
                f for f in (t["flags"] or "TABLE_HASH_KEY").split("|")
                if f and f != "KEY_NORMALIZE"
            ]
            if not any(f.startswith("TABLE_") for f in flags):
                flags.insert(0, "TABLE_HASH_KEY")
            nrm = t.get("normalizer") or (
                "NormalizerAuto" if "KEY_NORMALIZE" in (t["flags"] or "") else None
            )
            rows.append([
                oid, t["name"], f"db/db.{oid:07x}", "|".join(flags + ["PERSISTENT"]),
                t.get("key_type") or None, t.get("value_type") or None,
                t.get("default_tokenizer") or None, nrm or None,
            ])
        for i, name in enumerate(sorted(set(self.tables) - ddl_names)):
            # externally registered tables (no DDL provenance)
            t = self.tables[name]
            rows.append([
                1000 + i, name, t.index_dir, "TABLE_PAT_KEY|PERSISTENT",
                None, None, None, None,
            ])
        # no hit-count head: the body is [header, rows...] (lib/proc.c
        # proc_table_list output shape)
        return [header, *rows]

    def _cmd_column_list(self, params: dict) -> list:
        """``/d/column_list?table=<name>`` (proc_column_list): the
        ``_key`` pseudo column (id = the table's own id) then one row
        per column in creation order — (id, name, path, type
        var|fix|index, flags, domain, range, [sources])."""
        name = params.get("table")
        ddl_t = self._ddl_table(name)
        header = [
            ["id", "UInt32"], ["name", "ShortText"], ["path", "ShortText"],
            ["type", "ShortText"], ["flags", "ShortText"],
            ["domain", "ShortText"], ["range", "ShortText"],
            ["source", "ShortText"],
        ]
        if ddl_t is None:
            # externally registered table: derive from the parquet schema
            t = self._table(params)
            import pyarrow.parquet as pq

            schema = pq.read_schema(t.source_files[0])
            rows = [
                [i + 1, f.name, "", "var", "COLUMN_SCALAR|PERSISTENT",
                 name, str(f.type), []]
                for i, f in enumerate(schema)
                if f.name != "_dummy_text"
            ]
            return [header, *rows]
        rows = []
        flags_s = ddl_t["flags"] or "TABLE_HASH_KEY"
        if "TABLE_NO_KEY" not in flags_s:
            rows.append([
                self._obj_id(("t", name)), "_key", "", "", "COLUMN_SCALAR",
                name, ddl_t.get("key_type") or None, [],
            ])
        _VAR_TYPES = ("ShortText", "Text", "LongText")
        for c in sorted(
            (c for c in self._ddl_cols if c["table"] == name),
            key=lambda c: c["name"],
        ):
            oid = self._obj_id(("c", name, c["name"]))
            cflags = c["flags"] or "COLUMN_SCALAR"
            if c.get("is_index"):
                typ = "index"
                rng = c.get("type") or ""
                srcs = [
                    rng if s.strip() == "_key" else f"{rng}.{s.strip()}"
                    for s in (c.get("source") or "").split(",")
                    if s.strip()
                ]
                # canonical index-flag order (grn_column_create
                # normalizes to SECTION|WEIGHT|POSITION)
                fl = set(cflags.split("|"))
                cflags = "|".join(
                    f for f in (
                        "COLUMN_INDEX", "WITH_SECTION", "WITH_WEIGHT",
                        "WITH_POSITION",
                    ) if f in fl
                )
            else:
                typ = "var" if (c.get("type") in _VAR_TYPES or (
                    c.get("type") not in self._ARROW_TYPES
                    and not str(c.get("type", "")).endswith("GeoPoint")
                )) else "fix"
                rng = c.get("type") or ""
                srcs = []
            rows.append([
                oid, c["name"], f"db/db.{oid:07x}", typ,
                cflags + "|PERSISTENT", name, rng or None, srcs,
            ])
        return [header, *rows]


def serve(
    tables: dict | None = None,
    suggest_datasets: dict[str, str] | None = None,
    host: str = "127.0.0.1",
    port: int = 10041,  # the reference's default HTTP port
):
    """Blocking entry point (``groonga -d --protocol http`` analogue)."""
    srv = CommandServer(tables, suggest_datasets, host, port)
    srv.start()
    try:
        while srv._thread and srv._thread.is_alive():
            srv._thread.join(1)
    except KeyboardInterrupt:
        srv.stop()
    return srv
