"""The benchmark's three workloads: build, search and churn.

Each workload sets up the same work on every run (generate a seeded
corpus and compute the oracle's answers in a child process, build an
index), runs a main phase of whole
rounds whose number scales with ``seconds``, then a short tail that
touches the paths its main phase does not (HTTP, small add/delete
steps), so that every workload reports every end-to-end metric. All load
comes from one client thread in this process; HTTP uses one keep-alive
connection.

A traced run installs wrappers around the program's public functions
(see :mod:`spans`) and alternates traced and untraced rounds, so the
per-layer numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.parse
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import corpus
from oracle import Oracle
from procs import session_cpu_s
from spans import Tracer

TOP_K = 10
BM25_COLUMNS = "scorer_bm25(content)"
CLASSES = ("lookup", "bm25", "phrase", "prefix")

# corpus sizes (rows); the search corpus is larger so that the decoded
# postings of its query pool reach the 64 MB posting LRU's size
BUILD_DOCS = 10_000
SEARCH_DOCS = 16_000
CHURN_DOCS = 10_000
DELTA_DOCS = 1_000
DELETE_SHARE = 0.02          # of live docs, per churn cycle
SHARDS = 6                   # two stage-A waves of three tasks on four CPUs
PROBES_PER_CLASS = 32
HTTP_PER_CLASS = 8
PROBE_PASSES = 3             # the first pass reads cold, the rest hit caches
COMPACT_PROBES = 4           # per class, before and after compact_index
HEAD = 8                     # search: the repeating head of each class
BATCH_SIZE = 16
BATCH_PER_ROUND = 32
TAIL_ADDS = 4
TAIL_DELTA_DOCS = 100
TAIL_DELETE_SHARE = 0.002
# fixed work per --seconds (whole rounds, so a run's mix of cold and
# warm operations does not depend on how fast this host is that minute)
SEARCH_ROUNDS_PER_S = 25     # one query of each class per round
BUILDS_PER_S = 0.3
CYCLES_PER_S = 0.2

# distinct queries per class: the search pool covers the head and one
# walk of the tail at --seconds 10 (more distinct match operations than
# term_match's 1024-entry result cache); the small pool feeds probes and
# batches.
SEARCH_POOL = {c: 240 for c in CLASSES}
SMALL_POOL = {c: PROBES_PER_CLASS + 3 * BATCH_PER_ROUND // 4 for c in CLASSES}
# probe phrases leave out the ~30 hottest words (df > N/2), whose
# positional lists dominate a phrase's cost: with only 32 phrases per
# probe set, a few of them would otherwise decide the class median
PROBE_PHRASE_DF = 0.5

# operations that fail on every run because of a fault in the program;
# they count in ``failed`` and leave ``correct`` true. compare_bm25:
# compact_index changes BM25 scores (the scorer's df is the decoded
# posting count, which includes tombstoned postings until compaction).
KNOWN_FAULTS = frozenset({"compare_bm25"})


class CheckFailed(Exception):
    pass


def build_config(n_docs: int):
    from groonga_ray.build import BuildConfig

    return BuildConfig(
        text_columns=("content",), n_buckets=16,
        target_rows_per_shard=-(-n_docs // SHARDS), hot_local_df=2048, salt_group=2,
    )


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def layer_bytes(index_dir: str) -> dict[str, int]:
    """Bytes under the index per kind of file, over base and deltas."""
    out = defaultdict(int)
    for kind, pattern in (
        ("postings", "**/sec=*/postings"), ("lexicon", "**/sec=*/lexicon"),
        ("doclens", "**/doclens"), ("runs", "**/sec=*/runs"),
    ):
        for d in glob.glob(os.path.join(index_dir, pattern), recursive=True):
            out[kind] += dir_bytes(d)
    return out


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, np.float64), q)) if xs else float("nan")


class Run:
    """One workload execution: operation counts, samples and checks."""

    def __init__(self, seed: int, seconds: float, work: str, tracer: Tracer | None):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []     # (operation, message)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.qt = QueryTrace(self) if tracer is not None else None
        self.phases: dict[str, float] = {}
        self.final_index = ""
        self.last_cpu_s = 0.0

    @contextmanager
    def op(self, kind: str):
        """One attempted operation. A raised exception or a failed
        check inside marks it failed; the run goes on."""
        self.attempted += 1
        self.counts[kind] += 1
        try:
            yield
        except Exception as e:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            msg = f"{kind}: {type(e).__name__}: {e}"
            self.failures.append((kind, msg))
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"[perfbench] failed {msg}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        """No operation failed except the known program faults."""
        return all(kind in KNOWN_FAULTS for kind, _ in self.failures)

    @contextmanager
    def phase(self, name: str):
        """Wall time of one phase, for the summary on stderr."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = round(self.phases.get(name, 0.0) + time.perf_counter() - t0, 2)

    @staticmethod
    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise CheckFailed(msg)

    @contextmanager
    def traced(self, on: bool):
        """Turns recording on for a traced round."""
        if self.tracer is None or not on:
            yield
            return
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False


# ---------------------------------------------------------------- data

class Dataset:
    """A generated corpus written to Parquet under ``work``. Keeps the
    file identifiers, not the table."""

    def __init__(self, work: str, name: str, table: pa.Table):
        self.path = os.path.join(work, f"{name}.parquet")
        self.bytes = corpus.write(table, self.path)
        self.n_docs = table.num_rows
        self.fids = table.column("fid").to_pylist()


class Query:
    __slots__ = ("cls", "text", "columns", "expect")

    def __init__(self, cls: str, text: str, columns: str, expect: dict):
        self.cls, self.text, self.columns, self.expect = cls, text, columns, expect

    @property
    def output(self) -> tuple[str, ...]:
        return ("_id", "path", "repo") if self.cls == "lookup" else ("_id", "_score")


def query_pool(seed: int, table: pa.Table, orc: Oracle, per_class: dict[str, int], salt: int,
               phrase_df_hi: float = 1.0) -> dict[str, list[Query]]:
    """Seeded queries of the four classes with their oracle answers.
    Phrase words have a df between N/10 and ``phrase_df_hi`` * N."""
    rng = np.random.default_rng([seed, 3, salt])
    n = orc.n_docs
    hot_lo = max(2, n // 10)
    pool: dict[str, list[Query]] = {}

    fids, paths, repos = (table.column(c).to_pylist() for c in ("fid", "path", "repo"))
    rows = rng.choice(table.num_rows, per_class["lookup"], replace=False)
    pool["lookup"] = [
        Query("lookup", fids[r], "content", {"docid": int(r) + 1, "path": paths[r], "repo": repos[r]})
        for r in rows
    ]

    k = per_class["bm25"]
    hot = orc.terms_in_band(hot_lo, n, k, seed * 31 + salt)
    mid = orc.terms_in_band(10, hot_lo - 1, 2 * k, seed * 37 + salt)
    specs = []
    for i in range(k):
        h, m1, m2 = hot[i % len(hot)], mid[(2 * i) % len(mid)], mid[(2 * i + 1) % len(mid)]
        if i % 4 == 3:
            specs.append(("and", [h, hot[(i + 1) % len(hot)]]))
        elif i % 2:
            specs.append(("or", [h, m1, m2]))
        else:
            specs.append(("or", [h, m1]))
    answers = orc.bm25_topk(specs, TOP_K)
    pool["bm25"] = [
        Query("bm25", (" OR " if op == "or" else " ").join(terms), BM25_COLUMNS,
              {"terms": terms, **a})
        for (op, terms), a in zip(specs, answers)
    ]

    # phrases of two hot words: their positional postings are the
    # largest decoded lists
    pairs = orc.adjacent_pairs(per_class["phrase"], seed * 41 + salt, hot_lo, int(phrase_df_hi * n))
    ph_docs = orc.phrase_docs(pairs)
    pool["phrase"] = [
        Query("phrase", f'"{x} {y}"', "content", {"hits": len(d), "docs": d})
        for (x, y), d in zip(pairs, ph_docs)
    ]

    pool["prefix"] = [
        Query("prefix", p + "*", "content", {"hits": h})
        for p, h in orc.prefixes(per_class["prefix"], seed * 43 + salt, 5, n // 4)
    ]
    for cls in CLASSES:
        Run.check(len(pool[cls]) > 0, f"empty {cls} pool")
    return pool


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_select(q: Query, res: dict) -> None:
    """Compare one in-process ``select`` answer with the oracle's."""
    rows = res["rows"]
    ids = [int(x) for x in rows.column("_id").to_pylist()]
    e = q.expect
    if q.cls == "lookup":
        Run.check(res["hits"] == 1 and ids == [e["docid"]], f"lookup {q.text}: {ids} != {e['docid']}")
        Run.check(rows.column("path")[0].as_py() == e["path"] and rows.column("repo")[0].as_py() == e["repo"],
                  f"lookup {q.text}: wrong document")
    elif q.cls == "bm25":
        Run.check(res["hits"] == e["hits"], f"bm25 {q.text}: hits {res['hits']} != {e['hits']}")
        scores = rows.column("_score").to_pylist()
        top = e["top"]
        Run.check(len(ids) == len(top), f"bm25 {q.text}: {len(ids)} rows != {len(top)}")
        for s, (_, es) in zip(scores, top):
            Run.check(close(s, es), f"bm25 {q.text}: score {s} != {es}")
        want = dict(top)
        for d, s in zip(ids, scores):
            if d in want:
                Run.check(close(s, want[d]), f"bm25 {q.text}: doc {d} scored {s} != {want[d]}")
            else:
                # outside the oracle's top-k only by a tie with the k-th
                Run.check(close(s, top[-1][1]), f"bm25 {q.text}: doc {d} not in the top {TOP_K}")
    elif q.cls == "phrase":
        Run.check(res["hits"] == e["hits"], f"phrase {q.text}: hits {res['hits']} != {e['hits']}")
        Run.check(set(ids) <= e["docs"], f"phrase {q.text}: a hit lacks the adjacent tokens")
    else:
        Run.check(res["hits"] == e["hits"], f"prefix {q.text}: hits {res['hits']} != {e['hits']}")


def run_select(table, q: Query, limit: int = TOP_K) -> dict:
    from groonga_ray.engine import select

    return select(table, query=q.text, match_columns=q.columns,
                  output_columns=q.output, limit=limit)


# ------------------------------------------------------------- tracing

class QueryTrace:
    """Per-query counters read from the reader, for traced queries."""

    def __init__(self, run: Run):
        self.run = run
        self.n = defaultdict(int)           # traced queries per class
        self.lookup_bytes = 0
        self.lookup_postings = 0

    @staticmethod
    def _bytes(table) -> tuple[int, int]:
        from groonga_ray.index import MultiSectionIndex

        r = table.reader()
        b = lb = 0
        for s in r.sections.values():
            subs = s.subs if isinstance(s, MultiSectionIndex) else [s]
            for si in subs:
                b += si.bytes_read
                lb += si.lex_bytes_read
        return b, lb

    def select(self, table, q: Query) -> dict:
        """``select`` inside a request span, with the reader's byte
        counters read before and after."""
        tr = self.run.tracer
        b0, l0 = self._bytes(table)
        d0 = tr.counters["codec.postings_decoded"]
        with tr.span("select", request=True):
            res = run_select(table, q)
        b1, l1 = self._bytes(table)
        tr.count("index.posting_bytes", b1 - b0)
        tr.count("index.lexicon_bytes", l1 - l0)
        if q.cls == "lookup":
            self.lookup_bytes += b1 - b0
            self.lookup_postings += tr.counters["codec.postings_decoded"] - d0
        self.n[q.cls] += 1
        return res


def install_query_wrappers(tr: Tracer) -> None:
    from groonga_ray import codec, engine, search
    from groonga_ray.index import SectionIndex

    def decoded(pl):
        tr.count("codec.decode_calls")
        tr.count("codec.postings_decoded", len(pl))

    tr.wrap(engine, "parse_query", "qlang.parse")
    tr.wrap(SectionIndex, "term_id", "index.lexicon")
    tr.wrap(SectionIndex, "prefix_range", "index.lexicon")
    tr.wrap(SectionIndex, "posting_rows", "index.posting_fetch")
    tr.wrap(codec, "decode_postings", "codec.decode", on_result=decoded)
    tr.wrap(search, "_phrase_noccur", "search.phrase")
    tr.wrap(engine, "top_k", "search.topk")
    tr.wrap(engine, "fetch_docs", "engine.fetch_docs")

    # postings() calls served without a decode_postings call are
    # posting-cache hits
    original = SectionIndex.postings

    def postings(self, *a, **kw):
        if not tr.enabled:
            return original(self, *a, **kw)
        before = tr.counters["codec.decode_calls"]
        out = original(self, *a, **kw)
        tr.count("index.postings_calls")
        if tr.counters["codec.decode_calls"] == before:
            tr.count("index.postings_cache_hits")
        return out

    SectionIndex.postings = postings
    tr._patched.append((SectionIndex, "postings", original))


def query_layer_metrics(run: Run, qt: QueryTrace) -> dict[str, float]:
    tr = run.tracer
    nq = max(1, sum(qt.n.values()))
    per_q = lambda name: 1000.0 * tr.total(name) / nq  # noqa: E731
    calls = tr.counters["index.postings_calls"]
    return {
        "qlang.parse_ms": per_q("qlang.parse"),
        "index.lexicon_ms": per_q("index.lexicon"),
        "index.lexicon_bytes_per_query": tr.counters["index.lexicon_bytes"] / nq,
        "index.posting_fetch_ms": per_q("index.posting_fetch"),
        "index.posting_bytes_per_query": tr.counters["index.posting_bytes"] / nq,
        "index.read_amplification": qt.lookup_bytes / max(1, qt.lookup_postings),
        "index.posting_cache_hit_rate": tr.counters["index.postings_cache_hits"] / max(1, calls),
        "codec.decode_ms": per_q("codec.decode"),
        "codec.postings_decoded_per_query": tr.counters["codec.postings_decoded"] / nq,
        "search.phrase_ms": 1000.0 * tr.total("search.phrase") / max(1, qt.n["phrase"]),
        "search.topk_ms": per_q("search.topk"),
        "engine.fetch_docs_ms": per_q("engine.fetch_docs"),
    }


def build_layer_metrics(run: Run, index_dir: str, meta: dict, files: list[str]) -> dict[str, float]:
    """Stage times from ``meta["timings"]``, shard and bucket spread from
    the manifests, sizes from the files, and one shard and one bucket
    replayed in this process with their inner calls wrapped."""
    from groonga_ray import build as B
    from groonga_ray import codec
    from groonga_ray.docids import sorted_file_shards
    from groonga_ray.tokenize import WordTokenizer

    tm = meta["timings"]
    out = {
        "build.stage_a_s": tm["stage_a_sec"],
        "build.stage_b_s": tm["stage_b_sec"],
        "build.stage_c_s": tm["stage_c_sec"],
    }
    shard_m = [json.load(open(p)) for p in glob.glob(os.path.join(index_dir, "sec=content", "runs", "shard=*", "manifest.json"))]
    bucket_m = [json.load(open(p)) for p in glob.glob(os.path.join(index_dir, "sec=content", "postings", "bucket=*", "manifest.json"))]
    busy = sum(m["elapsed_sec"] for m in shard_m)
    out["build.shard_busy_s"] = busy
    out["build.stage_a_util"] = busy / max(1e-9, tm["stage_a_sec"] * run_cpus())
    se = [m["elapsed_sec"] for m in shard_m] or [0.0]
    be = [m.get("elapsed_sec", 0.0) for m in bucket_m] or [0.0]
    out["build.shard_skew"] = max(se) / max(1e-9, median(se))
    out["build.bucket_skew"] = max(be) / max(1e-9, median(be))
    sizes = layer_bytes(index_dir)
    out["index.postings_bytes"] = sizes["postings"]
    out["index.lexicon_bytes"] = sizes["lexicon"]
    out["index.doclens_bytes"] = sizes["doclens"]
    out["build.runs_bytes"] = sizes["runs"]
    out["build.tokens"] = sum(m["tokens"] for m in shard_m)
    out["build.terms"] = meta["stats"]["sections"]["content"]["n_terms"]
    n_post = 0
    for p in glob.glob(os.path.join(index_dir, "sec=content", "postings", "bucket=*", "part.parquet")):
        n_post += int(pa.compute.sum(pq.read_table(p, columns=["df"]).column("df")).as_py() or 0)
    out["build.postings"] = n_post

    # ---- replay shard 0 and the largest bucket in-process
    tr = Tracer()
    tr.enabled = True
    tr.wrap(B, "read_shard", "docids.read")
    tr.wrap(WordTokenizer, "tokenize_column", "tokenize")
    tr.wrap(B, "_tokenize_group_word", "build.tokenize_group")
    tr.wrap(codec, "encode_posting_table", "codec.encode")
    tr.wrap(B, "_write_run_bucket_rowgroups", "build.run_write")
    tr.wrap(codec, "bulk_decode_rows", "codec.merge_decode")
    tr.wrap(B, "_write_bucket_lexicon", "build.lexicon_write")
    replay = os.path.join(run.work, "replay")
    shutil.rmtree(replay, ignore_errors=True)
    try:
        cfg = B.BuildConfig.from_fingerprint(meta["config"])
        shard = sorted_file_shards(files, cfg.target_rows_per_shard, cfg.docid_offset)[0]
        man = B.build_shard_run(cfg, shard, "content", replay)
        tok_s = tr.total("tokenize")
        out["docids.read_ms"] = 1000 * tr.total("docids.read")
        out["tokenize.tokens_per_s"] = man["tokens"] / max(1e-9, tok_s)
        out["build.group_ms"] = 1000 * (tr.total("build.tokenize_group") - tok_s)
        out["codec.encode_ms"] = 1000 * tr.total("codec.encode")
        out["build.run_write_ms"] = 1000 * tr.total("build.run_write")
        bucket = max(bucket_m, key=lambda m: m.get("elapsed_sec", 0.0)).get("bucket", 0) if bucket_m else 0
        run_files = sorted(glob.glob(os.path.join(index_dir, "sec=content", "runs", "shard=*", "run.parquet")))
        t0 = time.perf_counter()
        group = B.RunReader(run_files).read_bucket(int(bucket))
        out["build.run_read_ms"] = 1000 * (time.perf_counter() - t0)
        B._merge_bucket_or_empty(cfg, "content", replay, int(bucket), group)
        out["codec.merge_decode_ms"] = 1000 * tr.total("codec.merge_decode")
        out["build.lexicon_write_ms"] = 1000 * tr.total("build.lexicon_write")
    finally:
        tr.unwrap_all()
        shutil.rmtree(replay, ignore_errors=True)
    return out


# ----------------------------------------------------------- operations

def run_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 4))


def timed_build(run: Run, files: list[str], index_dir: str, n_docs: int) -> tuple[dict, float]:
    """A fresh build_index of ``files``; returns (meta, seconds)."""
    from groonga_ray.build import build_index
    from groonga_ray.index import open_index

    shutil.rmtree(index_dir, ignore_errors=True)
    tr = run.tracer
    c0 = session_cpu_s()
    t0 = time.perf_counter()
    if tr is not None and tr.enabled:
        with tr.span("build_index", request=True):
            meta = build_index(files, index_dir, build_config(n_docs))
            stage_spans(tr, t0, meta)
    else:
        meta = build_index(files, index_dir, build_config(n_docs))
    dt = time.perf_counter() - t0
    run.last_cpu_s = session_cpu_s() - c0
    # build_index leaves open_index's cached reader of the same path in
    # place; queries after a rebuild go through a fresh reader, as in a
    # restarted query process
    open_index.cache_clear()
    return meta, dt


def stage_spans(tr: Tracer, t0: float, meta: dict) -> None:
    """Stage A, B and C as child spans, from the times build_index reports."""
    tm = meta["timings"]
    a = t0 + tm["stage_a_sec"]
    b = a + tm["stage_b_sec"]
    tr.add_span("build.stage_a", t0, a)
    tr.add_span("build.stage_b", a, b)
    tr.add_span("build.stage_c", b, b + tm["stage_c_sec"])


def check_build(run: Run, meta: dict, index_dir: str, want: dict) -> None:
    """``build_index``'s stats, and the df of the sampled band terms,
    against the oracle's (``Setup.expect``)."""
    from groonga_ray.index import IndexReader

    st = meta["stats"]["sections"]["content"]
    run.check(meta["n_docs"] == want["n_docs"], f"build: N {meta['n_docs']} != {want['n_docs']}")
    run.check(st["total_tokens"] == want["total_tokens"],
              f"build: tokens {st['total_tokens']} != {want['total_tokens']}")
    run.check(close(st["avgdl"], want["avgdl"]), f"build: avgdl {st['avgdl']} != {want['avgdl']}")
    run.check(st["n_terms"] == want["n_terms"], f"build: terms {st['n_terms']} != {want['n_terms']}")
    si = IndexReader(index_dir).section("content")
    for t, df in want["df"].items():
        tid = si.term_id(t)
        got = int(si.df[tid]) if tid is not None else 0
        run.check(got == df, f"build: df({t}) {got} != {df}")


def band_sample(orc: Oracle, seed: int, per_band: int = 4) -> list[str]:
    """Seeded terms from every df band, 1 to N."""
    n = orc.n_docs
    bands = [(1, 1), (2, 9), (10, 99), (100, 999), (1000, n)]
    out: list[str] = []
    for lo, hi in bands:
        if lo <= n:
            out += orc.terms_in_band(lo, min(hi, n), per_band, seed, pattern="^[a-z_0-9]")
    return out


def probe_set(pool: dict[str, list[Query]], k: int) -> list[Query]:
    """The first ``k`` queries of each class, interleaved."""
    return [pool[c][i] for i in range(k) for c in CLASSES if i < len(pool[c])]


def query(run: Run, table, q: Query, traced: bool, record: bool = True, check: bool = True):
    """One select as one operation; returns (hits, ids, scores), or None
    if it failed."""
    with run.op("query"):
        t0, c0 = time.perf_counter(), time.process_time()
        if traced:
            with run.traced(True):
                res = run.qt.select(table, q)
        else:
            res = run_select(table, q)
        cpu, dt = time.process_time() - c0, time.perf_counter() - t0
        if record and not traced:
            run.samples["query_ms"].append(1000 * cpu)
            run.samples[f"{q.cls}_ms"].append(1000 * cpu)
            run.samples["query_wall_ms"].append(1000 * dt)
        if check:
            check_select(q, res)
        rows = res["rows"]
        scores = rows.column("_score").to_pylist() if "_score" in rows.column_names else []
        return res["hits"], tuple(int(x) for x in rows.column("_id").to_pylist()), tuple(scores)
    return None


def probe_passes(run: Run, table, probes: list[Query], passes: int, check: bool = True,
                 record: bool = True) -> list:
    """``passes`` passes over the probe set; the first reads cold, the
    rest mostly hit the caches. In a traced run even passes (the cold
    one included) are traced. Returns the answers of the last pass."""
    out: list = []
    for p in range(passes):
        traced = run.tracer is not None and p % 2 == 0
        out = [query(run, table, q, traced, record=record, check=check) for q in probes]
    return out


class HttpClient:
    """One keep-alive HTTP/1.1 connection to a CommandServer."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def select(self, q: Query) -> dict:
        params = {
            "table": "Code", "query": q.text, "match_columns": q.columns,
            "output_columns": ",".join(q.output), "limit": str(TOP_K), "cache": "no",
        }
        self.conn.request("GET", "/d/select?" + urllib.parse.urlencode(params))
        resp = self.conn.getresponse()
        body = json.loads(resp.read())
        head, payload = body[0], body[1] if len(body) > 1 else None
        if head[0] != 0 or payload is None:
            raise CheckFailed(f"http {q.text}: rc {head}")
        res = payload[0]
        cols = [c[0] for c in res[1]]
        return {"hits": int(res[0][0]), "cols": cols, "rows": res[2:]}

    def close(self) -> None:
        self.conn.close()


def check_http(q: Query, got: dict, ref: dict) -> None:
    """HTTP rows against the in-process answer: same hits, same ids and
    Int32-truncated scores; rows tied at the lowest truncated score may
    differ at the cut."""
    ids = [int(x) for x in ref["rows"].column("_id").to_pylist()]
    Run.check(got["hits"] == ref["hits"], f"http {q.text}: hits {got['hits']} != {ref['hits']}")
    hid = [int(r[got["cols"].index("_id")]) for r in got["rows"]]
    Run.check(len(hid) == len(ids), f"http {q.text}: {len(hid)} rows != {len(ids)}")
    if "_score" not in got["cols"]:
        Run.check(hid == ids, f"http {q.text}: ids {hid} != {ids}")
        return
    hs = [int(r[got["cols"].index("_score")]) for r in got["rows"]]
    rs = [int(np.trunc(s)) for s in ref["rows"].column("_score").to_pylist()]
    Run.check(sorted(hs) == sorted(rs), f"http {q.text}: scores {hs} != {rs}")
    if rs:
        floor = min(rs)
        Run.check({d for d, s in zip(hid, hs) if s > floor} == {d for d, s in zip(ids, rs) if s > floor},
                  f"http {q.text}: ids above the lowest score differ")


def http_phase(run: Run, table, queries: list[Query]) -> None:
    """``queries`` once each over one keep-alive connection. In a traced
    run each request is followed by the same select in-process, for
    server.overhead_ms."""
    from groonga_ray.server import CommandServer

    srv = CommandServer(tables={"Code": table})
    host, port = srv.start()
    cli = HttpClient(host, port)
    refs = {q.text: run_select(table, q) for q in queries}
    try:
        for q in queries:
            with run.op("http"):
                t0 = time.perf_counter()
                got = cli.select(q)
                dt = time.perf_counter() - t0
                run.samples["http_ms"].append(1000 * dt)
                check_http(q, got, refs[q.text])
                if run.tracer is not None:
                    t1 = time.perf_counter()
                    run_select(table, q)
                    run.samples["server_overhead_ms"].append(1000 * (dt - (time.perf_counter() - t1)))
    finally:
        cli.close()
        srv.stop()


def batch_phase(run: Run, table, queries: list[Query], rounds: int, per_round: int) -> None:
    """``rounds`` timed ``run_query_batch`` executions (cache=no) after
    one untimed one, each over its own ``per_round`` queries, so every
    round reads cold whichever worker runs it. Rows must equal the
    in-process ``select`` of the same query."""
    from groonga_ray import engine
    from groonga_ray.engine import select

    need = (rounds + 1) * per_round
    qs = [queries[i % len(queries)] for i in range(need)]
    ref = {}
    for i, q in enumerate(qs):
        r = select(table, query=q.text, match_columns=q.columns, limit=TOP_K)
        ref[i] = list(zip(r["rows"].column("_id").to_pylist(), r["rows"].column("_score").to_pylist()))
    for r in range(rounds + 1):
        part = qs[r * per_round:(r + 1) * per_round]
        qid0 = r * per_round
        tbl = pa.table({
            "qid": pa.array(range(qid0, qid0 + len(part)), pa.int64()),
            "query": [q.text for q in part],
            "match_columns": [q.columns for q in part],
            "top_k": pa.array([TOP_K] * len(part), pa.int64()),
            "cache": ["no"] * len(part),
        })
        with run.op("batch"):
            t0 = time.perf_counter()
            mat = engine.run_query_batch(table, tbl, concurrency=run_cpus(), batch_size=BATCH_SIZE).materialize()
            rows = mat.take_all()
            dt = time.perf_counter() - t0
            if r:
                run.samples["batch_qps"].append(len(part) / dt)
            got = defaultdict(list)
            for row in sorted(rows, key=lambda x: (x["qid"], x["rank"])):
                got[row["qid"]].append((row["doc_id"], row["score"]))
            for i in range(qid0, qid0 + len(part)):
                Run.check(got.get(i, []) == ref[i], f"batch {qs[i].text}: rows differ from select")
            run.counts["batch_rows"] += len(part)
            if run.tracer is not None and r == rounds:
                blocks = mat.num_blocks()
                run.values["engine.batch_rows_per_task"] = len(part) / max(1, blocks)
                step = -(-len(part) // max(1, blocks))
                key = ("perfbench", table.index_dir)
                t1 = time.perf_counter()
                engine._query_batch_task(tbl.slice(0, step), table=table, cache_key=key)
                run.values["engine.batch_task_ms"] = 1000 * (time.perf_counter() - t1)
                engine._PROC_QUERY_ENGINES.pop(key, None)


def add_and_delete(run: Run, index_dir: str, delta: Dataset, live: np.ndarray,
                   rng: np.random.Generator, share: float) -> tuple[np.ndarray, np.ndarray]:
    """add_documents(delta), then delete_documents(a seeded ``share`` of
    the live docids). Returns (live docids, deleted docids)."""
    from groonga_ray.build import add_documents, delete_documents
    from groonga_ray.index import IndexReader

    with run.op("add"):
        first = int(IndexReader(index_dir).n_docs) + 1
        tr = run.tracer
        c0 = session_cpu_s()
        t0 = time.perf_counter()
        if tr is not None and tr.enabled:
            with tr.span("add_documents", request=True):
                meta = add_documents(index_dir, [delta.path])
                stage_spans(tr, t0, meta)
        else:
            meta = add_documents(index_dir, [delta.path])
        dt = time.perf_counter() - t0
        run.samples["ingest_docs_per_s"].append(delta.n_docs / dt)
        run.samples["ingest_docs_per_cpu_s"].append(delta.n_docs / (session_cpu_s() - c0))
        run.check(meta["n_docs"] == delta.n_docs, f"add: {meta['n_docs']} docs != {delta.n_docs}")
        live = np.concatenate([live, np.arange(first, first + delta.n_docs, dtype=np.int64)])
        if tr is not None:
            run.samples["build.delta_stage_a_s"].append(meta["timings"]["stage_a_sec"])
            run.samples["build.delta_stage_b_s"].append(meta["timings"]["stage_b_sec"])
    dead = np.empty(0, np.int64)
    with run.op("delete"):
        k = max(1, int(share * len(live)))
        dead = np.sort(rng.choice(live, k, replace=False))
        delete_documents(index_dir, dead.tolist())
        live = np.setdiff1d(live, dead)
    return live, dead


def delta_lookups(run: Run, table, delta: Dataset, first_docid: int, dead: set[int]) -> None:
    """Every identifier of ``delta`` is found, once, at its docid (or
    not at all once deleted): one OR query per 100 identifiers."""
    from groonga_ray.engine import select

    for a in range(0, delta.n_docs, 100):
        with run.op("delta_lookup"):
            fids = delta.fids[a:a + 100]
            want = {first_docid + a + i for i in range(len(fids))} - dead
            res = select(table, query=" OR ".join(fids), match_columns="content",
                         output_columns=("_id",), limit=-1)
            got = set(int(x) for x in res["rows"].column("_id").to_pylist())
            run.check(got == want, f"delta lookup: {len(got ^ want)} identifiers wrong")


def check_no_dead(run: Run, results: list, dead: set[int], what: str) -> None:
    for r in results:
        bad = dead.intersection(r[1]) if r else set()
        run.check(not bad, f"{what}: tombstoned docids returned {sorted(bad)[:5]}")


def same_answers(run: Run, probes: list[Query], before: list, after: list, bm25: bool) -> None:
    """Probe answers before and after compact_index: the same hit
    counts, ids and scores, for the BM25 probes (``bm25``) or for the
    others."""
    for q, b, a in zip(probes, before, after):
        if (q.cls == "bm25") != bm25:
            continue
        run.check(b is not None and a is not None, f"{q.cls} {q.text}: a probe failed")
        run.check(b[0] == a[0], f"{q.cls} {q.text}: hits {b[0]} -> {a[0]} across compact_index")
        run.check(b[1] == a[1], f"{q.cls} {q.text}: ids {b[1]} -> {a[1]} across compact_index")
        run.check(len(b[2]) == len(a[2]) and all(close(x, y) for x, y in zip(a[2], b[2])),
                  f"{q.cls} {q.text}: scores {b[2]} -> {a[2]} across compact_index")


def compact(run: Run, index_dir: str, table, probes: list[Query], dead: set[int]) -> None:
    """compact_index between two unrecorded probe passes whose answers
    must agree and hold no tombstoned docid."""
    from groonga_ray.build import compact_index

    before = probe_passes(run, table, probes, 1, check=False, record=False)
    parts = glob.glob(os.path.join(index_dir, "**", "postings", "bucket=*", "part.parquet"), recursive=True)
    mtimes = {p: os.stat(p).st_mtime_ns for p in parts}
    with run.op("compact"):
        t0 = time.perf_counter()
        res = compact_index(index_dir, concurrency=run_cpus())
        run.samples["compact_s"].append(time.perf_counter() - t0)
        changed = [p for p in parts if os.path.exists(p) and os.stat(p).st_mtime_ns != mtimes[p]]
        run.values["build.compact_files_rewritten"] = float(res["rewritten"])
        run.values["build.compact_bytes_rewritten"] = float(sum(os.path.getsize(p) for p in changed))
    after = probe_passes(run, table, probes, 1, check=False, record=False)
    with run.op("compare"):
        check_no_dead(run, before + after, dead, "compaction probes")
        same_answers(run, probes, before, after, bm25=False)
    with run.op("compare_bm25"):
        same_answers(run, probes, before, after, bm25=True)


# ------------------------------------------------------------- the tail

def tail(run: Run, index_dir: str, table_files: list[str], pool, live: np.ndarray, churn: bool) -> None:
    """HTTP over the workload's index, then (``churn``) small
    add/delete steps, so that every workload reports every end-to-end
    metric. A traced run also times run_query_batch and compact_index,
    which feed per-layer metrics only."""
    from groonga_ray.engine import IndexedTable

    table = IndexedTable(index_dir, list(table_files))
    probes = probe_set(pool, PROBES_PER_CLASS)
    with run.phase("http"):
        http_phase(run, table, probe_set(pool, HTTP_PER_CLASS))
    if run.tracer is not None:
        with run.phase("batch"):
            batch_phase(run, table, [q for c in CLASSES for q in pool[c][PROBES_PER_CLASS:]], 2, BATCH_PER_ROUND)
    run.final_index = index_dir
    if not churn:
        return
    rng = np.random.default_rng([run.seed, 9])
    files = list(table_files)
    dead: set[int] = set()
    with run.phase("tail_churn"):
        for k in range(TAIL_ADDS):
            delta = Dataset(run.work, f"z{k}", corpus.generate(run.seed, TAIL_DELTA_DOCS, tag=f"t{k}"))
            first = int(IndexedTable(index_dir, files).reader().n_docs) + 1
            live, d = add_and_delete(run, index_dir, delta, live, rng, TAIL_DELETE_SHARE)
            files.append(delta.path)
            dead |= set(int(x) for x in d)
            delta_lookups(run, IndexedTable(index_dir, files), delta, first, dead)
    if run.tracer is not None:
        with run.phase("compact"):
            compact(run, index_dir, IndexedTable(index_dir, files), probe_set(pool, COMPACT_PROBES), dead)


# ------------------------------------------------------------ workloads

class Setup:
    """What a workload's set-up computes apart from the program: the
    corpus, the query pool with its oracle answers and the build
    checks."""

    def __init__(self, work: str, seed: int, n_docs: int, per_class: dict[str, int], salt: int,
                 phrase_df_hi: float, warm_docs: int):
        table = corpus.generate(seed, n_docs)
        self.data = Dataset(work, "c000", table)
        # a small corpus of the same kind for the untimed warm-up build
        self.warm = Dataset(work, "warm", table.slice(0, warm_docs)) if warm_docs else None
        tmp = os.path.join(work, "duckdb_tmp")
        os.makedirs(tmp, exist_ok=True)
        orc = Oracle([self.data.path], threads=4, temp_dir=tmp)
        try:
            self.pool = query_pool(seed, table, orc, per_class, salt, phrase_df_hi)
            self.expect = {
                "n_docs": orc.n_docs, "total_tokens": orc.total_tokens, "avgdl": orc.avgdl,
                "n_terms": orc.n_terms, "df": orc.df(band_sample(orc, seed)),
            }
        finally:
            orc.close()


def setup_common(run: Run, n_docs: int, per_class: dict[str, int], salt: int,
                 phrase_df_hi: float = 1.0, warm_docs: int = 0) -> Setup:
    """:class:`Setup` in a child process, so that the generated table and
    the oracle's DuckDB tables stay out of the benchmark's peak memory
    (the memory watch counts this process and Ray's workers only). The
    arguments go in, and the result comes back, in one pickle file."""
    path = os.path.join(run.work, "setup.pickle")
    with open(path, "wb") as fh:
        pickle.dump((run.work, run.seed, n_docs, per_class, salt, phrase_df_hi, warm_docs), fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), path], check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def wl_build(run: Run) -> None:
    """Fresh builds of the build corpus, each checked against the
    oracle; then probe passes over the last one."""
    from groonga_ray.engine import IndexedTable

    t_setup = time.perf_counter()
    st = setup_common(run, BUILD_DOCS, SMALL_POOL, salt=1, phrase_df_hi=PROBE_PHRASE_DF,
                      warm_docs=BUILD_DOCS // 5)
    data, pool = st.data, st.pool
    # an untimed build with the same shard count starts and warms every
    # Ray worker the timed builds use
    timed_build(run, [st.warm.path], os.path.join(run.work, "idx_warm"), st.warm.n_docs)
    shutil.rmtree(os.path.join(run.work, "idx_warm"), ignore_errors=True)
    run.values["setup_s"] = time.perf_counter() - t_setup

    idx = os.path.join(run.work, "idx")
    times = {True: [], False: []}
    meta = None
    for i in range(max(2, round(BUILDS_PER_S * run.seconds))):
        traced = run.tracer is not None and i % 2 == 1
        with run.op("build"):
            with run.traced(traced):
                meta, dt = timed_build(run, [data.path], idx, BUILD_DOCS)
            times[traced].append(dt)
            if not traced:
                run.samples["build_docs_per_s"].append(BUILD_DOCS / dt)
                run.samples["build_docs_per_cpu_s"].append(BUILD_DOCS / run.last_cpu_s)
            run.samples["index_bytes_per_input_byte"].append(dir_bytes(idx) / data.bytes)
            check_build(run, meta, idx, st.expect)
    table = IndexedTable(idx, [data.path])
    probe_passes(run, table, probe_set(pool, PROBES_PER_CLASS), PROBE_PASSES)
    if run.tracer is not None and meta is not None:
        run.values.update(build_layer_metrics(run, idx, meta, [data.path]))
        run.values["trace.overhead"] = median(times[True]) / median(times[False])
    tail(run, idx, [data.path], pool, np.arange(1, BUILD_DOCS + 1, dtype=np.int64), churn=True)


def wl_search(run: Run) -> None:
    """A seeded stream of the four query classes, interleaved, through
    in-process select. Per class, every fourth query comes from a head
    of HEAD queries that repeat (cache hits); the rest walk the pool's
    tail once (cache misses), so the hit share is the same on every run."""
    from groonga_ray.engine import IndexedTable

    t_setup = time.perf_counter()
    st = setup_common(run, SEARCH_DOCS, SEARCH_POOL, salt=2)
    data, pool = st.data, st.pool
    idx = os.path.join(run.work, "idx")
    meta, dt = timed_build(run, [data.path], idx, SEARCH_DOCS)
    run.samples["build_docs_per_s"].append(SEARCH_DOCS / dt)
    run.samples["build_docs_per_cpu_s"].append(SEARCH_DOCS / run.last_cpu_s)
    run.samples["index_bytes_per_input_byte"].append(dir_bytes(idx) / data.bytes)
    with run.op("build"):
        check_build(run, meta, idx, st.expect)
    table = IndexedTable(idx, [data.path])
    for cls in CLASSES:                  # the head once, untimed
        for q in pool[cls][:HEAD]:
            run_select(table, q)
    run.values["setup_s"] = time.perf_counter() - t_setup

    rng = np.random.default_rng([run.seed, 5])
    nxt = {c: HEAD for c in CLASSES}
    times = {True: [], False: []}
    for rnd in range(max(16, round(SEARCH_ROUNDS_PER_S * run.seconds))):
        traced = run.tracer is not None and (rnd // 4) % 2 == 1
        t0 = time.perf_counter()
        for c in rng.permutation(len(CLASSES)):
            cls = CLASSES[c]
            if rnd % 4 == 0:
                q = pool[cls][(rnd // 4) % HEAD]
            else:
                q = pool[cls][nxt[cls]]
                nxt[cls] = nxt[cls] + 1 if nxt[cls] + 1 < len(pool[cls]) else HEAD
            query(run, table, q, traced)
        times[traced].append(time.perf_counter() - t0)
    if run.tracer is not None:
        run.values.update(build_layer_metrics(run, idx, meta, [data.path]))
        run.values["trace.overhead"] = median(times[True]) / median(times[False])
    tail(run, idx, [data.path], pool, np.arange(1, SEARCH_DOCS + 1, dtype=np.int64), churn=True)


def wl_churn(run: Run) -> None:
    """Cycles of add_documents, delete_documents, identifier lookups and
    probe passes over a base index, then compact_index."""
    from groonga_ray.engine import IndexedTable, select

    t_setup = time.perf_counter()
    st = setup_common(run, CHURN_DOCS, SMALL_POOL, salt=3, phrase_df_hi=PROBE_PHRASE_DF)
    data, pool = st.data, st.pool
    idx = os.path.join(run.work, "idx")
    meta, dt = timed_build(run, [data.path], idx, CHURN_DOCS)
    run.samples["build_docs_per_s"].append(CHURN_DOCS / dt)
    run.samples["build_docs_per_cpu_s"].append(CHURN_DOCS / run.last_cpu_s)
    run.values["setup_s"] = time.perf_counter() - t_setup

    rng = np.random.default_rng([run.seed, 7])
    probes = probe_set(pool, PROBES_PER_CLASS)
    files = [data.path]
    live = np.arange(1, CHURN_DOCS + 1, dtype=np.int64)
    dead_all: set[int] = set()
    # a fixed number of cycles, so every run ends with the same segment count
    n_cycles = max(2, round(CYCLES_PER_S * run.seconds))
    times = {True: [], False: []}
    for cycle in range(n_cycles):
        traced = run.tracer is not None and cycle % 2 == 1
        delta = Dataset(run.work, f"c{cycle + 1:03d}", corpus.generate(run.seed, DELTA_DOCS, tag=f"d{cycle}"))
        first = int(IndexedTable(idx, files).reader().n_docs) + 1
        t0 = time.perf_counter()
        with run.traced(traced):
            live, dead = add_and_delete(run, idx, delta, live, rng, DELETE_SHARE)
        times[traced].append(time.perf_counter() - t0)
        files.append(delta.path)
        dead_all |= set(int(x) for x in dead)
        table = IndexedTable(idx, files)
        delta_lookups(run, table, delta, first, dead_all)
        res = probe_passes(run, table, probes, PROBE_PASSES, check=False)
        with run.op("tombstones"):
            check_no_dead(run, res, dead_all, "churn probes")
            # a deleted document's own identifier finds nothing
            for d in [int(x) for x in dead if x <= CHURN_DOCS][:5]:
                r = select(table, query=data.fids[d - 1], match_columns="content", output_columns=("_id",))
                run.check(r["hits"] == 0, f"deleted doc {d} still found")
    table = IndexedTable(idx, files)
    compact(run, idx, table, probe_set(pool, COMPACT_PROBES), dead_all)
    input_bytes = sum(os.path.getsize(f) for f in files)
    total_docs = CHURN_DOCS + n_cycles * DELTA_DOCS
    run.samples["index_bytes_per_input_byte"].append(
        dir_bytes(idx) / (input_bytes * len(live) / total_docs))
    if run.tracer is not None:
        run.values.update(build_layer_metrics(run, idx, meta, [data.path]))
        run.values["trace.overhead"] = median(times[True]) / median(times[False])
    tail(run, idx, files, pool, live, churn=False)


WORKLOADS = {"build": wl_build, "search": wl_search, "churn": wl_churn}


if __name__ == "__main__":
    # the set-up child of setup_common; Setup is taken from the imported
    # module so that the pickled result names workloads.Setup
    import workloads

    with open(sys.argv[1], "rb") as fh:
        args = pickle.load(fh)
    with open(sys.argv[1], "wb") as fh:
        pickle.dump(workloads.Setup(*args), fh)
