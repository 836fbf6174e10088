"""Benchmark command: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload build|search|churn --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout of the repository. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Everything the run writes lives under
``.perfbench/`` in the checkout and is removed at exit, except the span
file of a traced run (``.perfbench/traces/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

from procs import descendants, vm_hwm_kb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CPUS = min(4, os.cpu_count() or 1)
OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray appends ~62 bytes
# of session and socket names to its temp dir
MAX_RAY_TEMP_LEN = 44

E2E = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("build_docs_per_cpu_s", "docs/cpu_s"),
    ("index_bytes_per_input_byte", "ratio"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("query_qps", "1/cpu_s"), ("http_p50_ms", "ms"), ("ingest_docs_per_cpu_s", "docs/cpu_s"),
]

LAYERS = [
    ("build.stage_a_s", "s"), ("build.stage_b_s", "s"), ("build.stage_c_s", "s"),
    ("build.shard_busy_s", "s"), ("build.stage_a_util", "ratio"), ("build.shard_skew", "ratio"),
    ("build.bucket_skew", "ratio"), ("docids.read_ms", "ms"), ("tokenize.tokens_per_s", "1/s"),
    ("build.group_ms", "ms"), ("codec.encode_ms", "ms"), ("build.run_write_ms", "ms"),
    ("build.run_read_ms", "ms"), ("codec.merge_decode_ms", "ms"), ("build.lexicon_write_ms", "ms"),
    ("index.postings_bytes", "bytes"), ("index.lexicon_bytes", "bytes"), ("index.doclens_bytes", "bytes"),
    ("build.runs_bytes", "bytes"), ("build.tokens", "count"), ("build.terms", "count"),
    ("build.postings", "count"), ("qlang.parse_ms", "ms"), ("index.lexicon_ms", "ms"),
    ("index.lexicon_bytes_per_query", "bytes"), ("index.posting_fetch_ms", "ms"),
    ("index.posting_bytes_per_query", "bytes"), ("index.read_amplification", "bytes/posting"),
    ("index.posting_cache_hit_rate", "ratio"), ("codec.decode_ms", "ms"),
    ("codec.postings_decoded_per_query", "count"), ("search.phrase_ms", "ms"), ("search.topk_ms", "ms"),
    ("engine.fetch_docs_ms", "ms"), ("server.overhead_ms", "ms"), ("engine.batch_rows_per_task", "count"),
    ("engine.batch_task_ms", "ms"), ("index.segments", "count"), ("build.delta_stage_a_s", "s"),
    ("build.delta_stage_b_s", "s"), ("build.compact_files_rewritten", "count"),
    ("build.compact_bytes_rewritten", "bytes"), ("build.compact_s", "s"), ("engine.batch_qps", "1/s"),
    ("build.docs_per_wall_s", "docs/s"), ("build.ingest_docs_per_wall_s", "docs/s"),
    ("query.wall_p50_ms", "ms"), ("query.lookup_p50_ms", "ms"), ("query.bm25_p50_ms", "ms"),
    ("query.phrase_p50_ms", "ms"), ("query.prefix_p50_ms", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
]


class RssWatch:
    """Peak resident memory of this process plus its Ray workers: the
    sum over processes of each one's high-water mark (VmHWM), scanned
    every two seconds so that workers that exit early still count. The
    set-up child that generates the corpus and runs the oracle is not a
    Ray worker and is left out."""

    def __init__(self) -> None:
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _workers() -> list[int]:
        """Descendants whose command line marks them as Ray workers."""
        out = []
        for pid in descendants():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmd = fh.read()
            except OSError:
                continue
            if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
                out.append(pid)
        return out

    def scan(self) -> None:
        for pid in [os.getpid()] + self._workers():
            hwm = vm_hwm_kb(pid)
            if hwm:
                self.peaks[pid] = max(self.peaks.get(pid, 0), hwm)

    def _loop(self) -> None:
        while not self._stop.wait(2.0):
            self.scan()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=10)
        self.scan()
        return sum(self.peaks.values()) / 1024.0


def ray_temp_dir() -> str | None:
    """Ray's session directory, inside the checkout when its path is
    short enough for Ray's sockets."""
    d = os.path.join(ROOT, f".pbr{os.getpid()}")
    return d if len(d) <= MAX_RAY_TEMP_LEN else None


def start_ray(work: str) -> None:
    import logging

    import ray
    from ray.data import DataContext

    tmp = ray_temp_dir()
    kw = {}
    if tmp:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    plasma = os.path.join(work, "plasma")
    os.makedirs(plasma, exist_ok=True)
    ray.init(
        address="local", num_cpus=CPUS, include_dashboard=False, logging_level="ERROR",
        log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
        _plasma_directory=plasma, **kw,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)


def stop_ray(started: set[int]) -> None:
    """ray.shutdown(), then wait until every process Ray started has
    ended (workers outlive the raylet briefly), killing stragglers.
    ``started`` holds Ray's own processes, recorded right after
    ray.init: once the raylet is gone its children are no longer this
    process's descendants."""
    import signal

    import ray

    if not ray.is_initialized():
        return
    children = set(descendants()) | started
    ray.shutdown()

    def alive() -> list[int]:
        out = []
        for pid in children:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().split(") ")[-1][:1] != "Z":
                        out.append(pid)
            except OSError:
                pass
        return out

    deadline = time.time() + 20
    while alive() and time.time() < deadline:
        time.sleep(0.2)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + 10
    while alive() and time.time() < deadline:
        time.sleep(0.2)


def e2e_metrics(run, rss_mb: float) -> dict[str, float]:
    from workloads import median, percentile

    s = run.samples
    q = s["query_ms"]
    out = {
        "setup_s": run.values["setup_s"],
        "peak_rss_mb": rss_mb,
        "build_docs_per_cpu_s": median(s["build_docs_per_cpu_s"]),
        "index_bytes_per_input_byte": median(s["index_bytes_per_input_byte"]),
        "query_p50_ms": percentile(q, 50),
        # p90: the highest percentile with ten samples beyond it in every
        # workload (a build run records ~380 query samples)
        "query_p90_ms": percentile(q, 90),
        "query_qps": 1000.0 * len(q) / sum(q) if q else float("nan"),
        "http_p50_ms": median(s["http_ms"]),
        "ingest_docs_per_cpu_s": median(s["ingest_docs_per_cpu_s"]),
    }
    return out


def layer_metrics(run, qt) -> dict[str, float]:
    from workloads import median, query_layer_metrics

    out = dict(run.values)
    out.update(query_layer_metrics(run, qt))
    out["server.overhead_ms"] = median(run.samples["server_overhead_ms"])
    out["engine.batch_qps"] = median(run.samples["batch_qps"])
    out["build.docs_per_wall_s"] = median(run.samples["build_docs_per_s"])
    out["build.ingest_docs_per_wall_s"] = median(run.samples["ingest_docs_per_s"])
    out["query.wall_p50_ms"] = median(run.samples["query_wall_ms"])
    for c in ("lookup", "bm25", "phrase", "prefix"):
        out[f"query.{c}_p50_ms"] = median(run.samples[f"{c}_ms"])
    out["build.compact_s"] = median(run.samples["compact_s"])
    out["build.delta_stage_a_s"] = median(run.samples["build.delta_stage_a_s"])
    out["build.delta_stage_b_s"] = median(run.samples["build.delta_stage_b_s"])
    out["trace.coverage"] = run.tracer.coverage({"select", "build_index", "add_documents"})
    meta_path = os.path.join(run.final_index, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            out["index.segments"] = 1 + len(json.load(fh).get("deltas", []))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="groonga_ray build/search/churn benchmark")
    ap.add_argument("--workload", required=True, choices=["build", "search", "churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "groonga_ray")):
        print(f"perfbench: no groonga_ray package next to {HERE}; run from a checkout", file=sys.stderr)
        return 2
    # the package must import in this process and in every Ray worker
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import workloads
    from spans import Tracer

    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"w{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.seed, args.seconds, work, tracer)
    rss = RssWatch()
    ray_procs: set[int] = set()
    result = None
    try:
        start_ray(work)
        ray_procs = set(descendants())
        rss.start()
        if tracer is not None:
            workloads.install_query_wrappers(tracer)
        t0 = time.perf_counter()
        workloads.WORKLOADS[args.workload](run)
        wall = time.perf_counter() - t0
        rss_mb = rss.stop()
        if tracer is not None:
            tracer.unwrap_all()
            metrics, names = layer_metrics(run, run.qt), LAYERS
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            tracer.dump(os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json"))
        else:
            metrics, names = e2e_metrics(run, rss_mb), E2E
        missing = [n for n, _ in names if not (n in metrics and metrics[n] == metrics[n])]
        if missing:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 1
        print(f"perfbench: {args.workload} seed={args.seed} wall={wall:.1f}s "
              f"phases={run.phases} ops={dict(run.counts)}",
              file=sys.stderr)
        result = {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in names},
        }
    finally:
        rss._stop.set()
        try:
            stop_ray(ray_procs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if ray_temp_dir():
                shutil.rmtree(ray_temp_dir(), ignore_errors=True)
    if run.failures:
        kinds = sorted({k for k, _ in run.failures})
        print(f"perfbench: {len(run.failures)} failed operations ({', '.join(kinds)}); "
              f"first: {run.failures[0][1]}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
