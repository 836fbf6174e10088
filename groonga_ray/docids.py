"""Deterministic global docid assignment.

The reference assigns dense 1-based record ids in load order
(grn_table_add, include/groonga/groonga.h:36-40); our rule (SURVEY.md
§1.1) is: ``docid = rank of (repo, path) in the global sort`` — the
same rank ``row_number() OVER (ORDER BY repo, path)`` computes in the
DuckDB oracle, so rank-identity is well-defined.

Two paths:

* :func:`sorted_file_shards` — metadata-only. When the input Parquet
  files are globally sorted by the key (our corpus writer guarantees
  it), per-shard docid bases are prefix sums of row counts read from
  file metadata. Zero data movement — this is the 10^12-row path, and
  it is what makes shards contiguous docid ranges (which the salted
  posting merge relies on).

* :func:`compute_rank_mapping` — general inputs. A range-partitioned
  rank: sample split boundaries, count rows per range (one cheap
  column-pruned pass), prefix-sum the counts, then rank within ranges.
  Any correct boundary sample yields the same ranks (keys are unique),
  so determinism does not depend on the sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow.parquet as pq


@dataclass
class Shard:
    """A contiguous row range of one input file.

    Shards may be finer than row groups: reading then slices the
    overlapping row groups. Shard size bounds each build task's peak
    memory footprint — size it so tokenize temporaries fit comfortably
    in a worker's heap (SURVEY.md §4, block/batch sizing).
    """

    shard_id: int
    file: str
    row_start: int   # absolute row offset within the file
    num_rows: int
    docid_base: int  # first docid of this shard (docids are 1-based)


def sorted_file_shards(
    files: list[str],
    target_rows_per_shard: int = 200_000,
    first_docid: int = 1,
) -> list[Shard]:
    """Split key-sorted files into contiguous row-range shards.

    docid of row r within a shard = ``shard.docid_base + r`` (rows keep
    file order, which is global key order by precondition). Uses only
    file metadata — no data pass.
    """
    shards: list[Shard] = []
    base = first_docid
    sid = 0
    for f in sorted(files):
        n = pq.ParquetFile(f).metadata.num_rows
        n_shards = max(1, -(-n // target_rows_per_shard))
        per = -(-n // n_shards)
        start = 0
        while start < n:
            count = min(per, n - start)
            shards.append(Shard(sid, f, start, count, base))
            base += count
            sid += 1
            start += count
    return shards


def read_shard(shard: Shard, columns: list[str] | None = None):
    """Read one shard's rows (pyarrow Table): reads the overlapping row
    groups only, then slices to the exact row range."""
    pf = pq.ParquetFile(shard.file)
    meta = pf.metadata
    cum = 0
    groups = []
    first_grp_start = 0
    for i in range(meta.num_row_groups):
        g = meta.row_group(i).num_rows
        if cum + g > shard.row_start and cum < shard.row_start + shard.num_rows:
            if not groups:
                first_grp_start = cum
            groups.append(i)
        cum += g
    tbl = pf.read_row_groups(groups, columns=columns)
    return tbl.slice(shard.row_start - first_grp_start, shard.num_rows)


def compute_rank_mapping(files: list[str], key_columns: list[str], n_ranges: int = 64):
    """General-input global rank: returns a pyarrow table
    ``(key..., docid)`` sorted by key. Small-input utility (the mapping
    is materialized); the scale path for unsorted inputs is
    :func:`sort_input_files` (distributed range-partitioned sort) +
    :func:`sorted_file_shards`.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if total > 5_000_000:
        raise ValueError(
            f"compute_rank_mapping materializes all keys on the driver "
            f"({total} rows); use sort_input_files + sorted_file_shards "
            f"for large unsorted inputs"
        )
    tables = [pq.read_table(f, columns=key_columns) for f in sorted(files)]
    keys = pa.concat_tables(tables)
    order = pc.sort_indices(keys, sort_keys=[(c, "ascending") for c in key_columns])
    ranked = keys.take(order)
    return ranked.append_column("docid", pa.array(np.arange(1, len(ranked) + 1, dtype=np.uint64)))


def _composite_key(tbl, key_columns: list[str]):
    """NUL-joined binary composite of the key columns whose BYTE order
    equals tuple order. Text keys cast directly (NUL sorts below every
    other byte). Integer and float keys encode as 8-byte big-endian
    with the sign bit flipped (floats: full bit-inversion for
    negatives — the standard IEEE-754 order-preserving transform);
    the fixed width keeps alignment, so embedded NULs can't confuse
    the field separator."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def enc(c: str):
        col = tbl.column(c)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if (pa.types.is_integer(t) or pa.types.is_floating(t)) and col.null_count:
            raise ValueError(
                f"sort key column {c!r} contains nulls — numeric sort keys "
                "must be non-null (a null has no defined rank)"
            )
        if pa.types.is_unsigned_integer(t):
            # unsigned: plain big-endian bytes ARE the order (no sign
            # bit to flip; routing through int64 would wrap >= 2^63)
            u = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            buf = pa.py_buffer(u.astype(">u8").tobytes())
            fsb = pa.Array.from_buffers(pa.binary(8), len(u), [None, buf])
            return fsb.cast(pa.large_binary())
        if pa.types.is_integer(t):
            a = col.to_numpy(zero_copy_only=False).astype(np.int64)
            u = a.view(np.uint64) ^ np.uint64(1 << 63)
            buf = pa.py_buffer(u.astype(">u8").tobytes())
            fsb = pa.Array.from_buffers(pa.binary(8), len(u), [None, buf])
            return fsb.cast(pa.large_binary())
        if pa.types.is_floating(t):
            a = col.to_numpy(zero_copy_only=False).astype(np.float64)
            u = a.view(np.uint64)
            neg = (u >> np.uint64(63)).astype(bool)
            u = np.where(neg, ~u, u ^ np.uint64(1 << 63))
            buf = pa.py_buffer(u.astype(">u8").tobytes())
            fsb = pa.Array.from_buffers(pa.binary(8), len(u), [None, buf])
            return fsb.cast(pa.large_binary())
        return pc.cast(col, pa.large_binary())

    cols = [enc(c) for c in key_columns]
    if len(cols) == 1:
        return cols[0]
    sep = pa.scalar(b"\x00", type=pa.large_binary())
    return pc.binary_join_element_wise(*cols, sep)


def sort_input_files(
    files: list[str],
    key_columns: list[str],
    out_dir: str,
    n_ranges: int | None = None,
    target_rows_per_range: int | None = None,
    row_group_rows: int = 8192,
    target_range_bytes: int = 1 << 30,
    target_batch_bytes: int = 128 << 20,
) -> list[str]:
    """Distributed range-partitioned sort of *unsorted* input files into
    key-sorted Parquet files whose lexical filename order is the global
    key order — ready for :func:`sorted_file_shards` (metadata-only
    docid bases). No driver materialization at any stage:

    1. **Sample** — a bounded key sample (column-pruned reads) picks
       ``n_ranges - 1`` composite-key split boundaries on the driver
       (a few KB). Any boundary choice yields the same final order.
    2. **Scatter** — ``map_batches`` over the full input tags each row
       with its range id and writes each output batch as one run file
       with *one row group per range* (same layout trick as the build's
       bucket runs: the partitioned write replaces a runtime shuffle,
       and Parquet column stats let stage 3 read exactly its rows).
    3. **Finalize** — one task per range: read that range's row groups
       from the runs, in-memory sort (bounded: ~total/n_ranges rows),
       write ``sorted-NNNNN.parquet``.

    Mirrors grn_ii_build's external sort-merge shape (lib/ii.c:8029:
    blocks → sorted runs → key-order merge) applied to docid
    assignment instead of terms.

    The fused cold path (:func:`groonga_ray.build.sort_build_index`)
    shares stages 1-2 (:func:`_scatter_to_runs`) and the per-range
    reader (:func:`_read_sorted_range`) but tokenizes each range
    in the same task that sorts it, eliminating the build's stage-A
    re-read of the freshly written corpus.
    """
    import shutil

    import ray

    os.makedirs(out_dir, exist_ok=True)
    runs_dir = os.path.join(out_dir, "_sort_runs")
    sc = _scatter_to_runs(
        files, key_columns, runs_dir,
        n_ranges=n_ranges, target_rows_per_range=target_rows_per_range,
        target_range_bytes=target_range_bytes,
        target_batch_bytes=target_batch_bytes,
    )
    run_files, n_ranges = sc["run_files"], sc["n_ranges"]

    @ray.remote
    def _finalize(range_id: int) -> str | None:
        tbl = _read_sorted_range(run_files, range_id, key_columns)
        if tbl is None:
            return None
        path = os.path.join(out_dir, f"sorted-{range_id:05d}.parquet")
        # row groups sized to the build's shard optimum (~8k rows):
        # sorted_file_shards slices at row granularity but read_shard
        # reads whole row groups, so oversized groups multiply stage-A
        # read volume (measured 5x at 64k-row groups vs 8k shards)
        pq.write_table(tbl, path, row_group_size=row_group_rows)
        return path

    fin = _finalize.options(
        memory=_range_task_memory(sc["per_row"], sc["target_rows_per_range"])
    )
    out = [p for p in ray.get([fin.remote(i) for i in range(n_ranges)]) if p]
    shutil.rmtree(runs_dir, ignore_errors=True)
    return sorted(out)


def _scatter_to_runs(
    files: list[str],
    key_columns: list[str],
    runs_dir: str,
    n_ranges: int | None = None,
    target_rows_per_range: int | None = None,
    target_range_bytes: int = 1 << 30,
    target_batch_bytes: int = 128 << 20,
) -> dict:
    """Stages 1+2 of the distributed sort: boundary sample + range
    scatter into bucket-row-grouped run files. Returns
    ``{resumed, run_files, n_ranges, per_row, target_rows_per_range,
    range_counts}`` — ``range_counts[i]`` (from run metadata only) lets
    callers prefix-sum global docid bases before any range is read;
    ``resumed`` is False when the runs were scattered afresh.

    Resumable: a ``scatter.done.json`` marker pins the input
    fingerprint (file names + row counts), the chosen boundaries and
    the counts; a rerun with a valid marker skips both stages, so the
    fused build's kill/resume never repeats the corpus-wide pass.
    """
    import base64
    import json
    import uuid

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    files = sorted(files)
    os.makedirs(runs_dir, exist_ok=True)
    marker = os.path.join(runs_dir, "scatter.done.json")

    file_rows = [(os.path.basename(f), pq.ParquetFile(f).metadata.num_rows) for f in files]
    total = sum(n for _, n in file_rows)
    # byte-aware sizing: a range is sorted IN MEMORY by one finalize
    # task and scatter batches are fully materialized per task, so both
    # must be sized by row WIDTH, not row count (text tables are
    # KB-wide; fixed 500k-row ranges put multi-GB tables in every
    # finalize worker at once on an 11 GB corpus)
    f0 = pq.ParquetFile(files[0])
    if f0.metadata.num_row_groups:
        rg0 = f0.read_row_group(0)
        per_row = max(16, rg0.nbytes / max(1, rg0.num_rows))
    else:
        per_row = 256
    if target_rows_per_range is None:
        if n_ranges is not None:
            # explicit range count: report the ACTUAL rows per range so
            # the finalize memory declaration matches reality
            target_rows_per_range = max(1, -(-total // n_ranges))
        else:
            target_rows_per_range = max(10_000, int(target_range_bytes / per_row))
    batch_rows = max(1024, int(target_batch_bytes / per_row))
    if n_ranges is None:
        n_ranges = max(1, min(4096, -(-total // target_rows_per_range)))
        # ranges bound finalize parallelism, not just memory: lift the
        # count to >=2 task waves across the cluster's cores (smaller
        # ranges only shrink each task's working set, never grow it)
        try:
            import ray as _ray

            ncpu = int(_ray.cluster_resources().get("CPU", 8))
        except Exception:
            ncpu = 8
        if total > 64 * ncpu * 1024:
            n_ranges = min(4096, max(n_ranges, 2 * ncpu))
            target_rows_per_range = max(1, -(-total // n_ranges))

    fingerprint = {
        "files": file_rows,
        "key_columns": list(key_columns),
        "n_ranges": n_ranges,
    }
    if os.path.exists(marker):
        try:
            with open(marker) as fh:
                m = json.load(fh)
        except (OSError, json.JSONDecodeError):
            m = None
        if m and m.get("fingerprint") == fingerprint:
            return {
                "resumed": True,
                "run_files": sorted(
                    os.path.join(runs_dir, f)
                    for f in os.listdir(runs_dir)
                    if f.endswith(".parquet")
                ),
                "n_ranges": n_ranges,
                "per_row": float(m["per_row"]),
                "target_rows_per_range": int(m["target_rows_per_range"]),
                "range_counts": np.array(m["range_counts"], np.int64),
            }
    # no valid marker: ANY leftover file is a stale or partial scatter
    # (a kill mid-stage-2 leaves completed run files WITHOUT a marker —
    # re-scattering next to them would double-count their rows), so
    # start clean unconditionally
    for f in os.listdir(runs_dir):
        os.unlink(os.path.join(runs_dir, f))

    # ---- stage 1: boundary sample (driver holds only the sample)
    sample_ds = ray.data.read_parquet(files, columns=key_columns)
    k = max(1, total // max(1, n_ranges * 64))

    def _sample(batch: pa.Table) -> pa.Table:
        return batch.take(np.arange(0, batch.num_rows, k, dtype=np.int64))

    sample = pa.concat_tables(
        ray.get(
            sample_ds.map_batches(
                _sample, batch_format="pyarrow", batch_size=64 * 1024
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    keys = _composite_key(sample, key_columns)
    keys = keys.take(pc.sort_indices(keys))
    if len(keys) and n_ranges > 1:
        idx = np.linspace(0, len(keys) - 1, n_ranges + 1).astype(np.int64)[1:-1]
        boundaries = [keys[int(i)].as_py() for i in idx]
    else:
        boundaries = []
    bnd_np = np.array(boundaries, dtype=object)

    # ---- stage 2: scatter (map_batches; one run file per output batch,
    # one row group per range inside it)
    def _scatter(batch: pa.Table) -> pa.Table:
        ck = _composite_key(batch, key_columns).to_numpy(zero_copy_only=False)
        rng = np.searchsorted(bnd_np, ck, side="right").astype(np.uint32)
        batch = batch.append_column("bucket", pa.array(rng))
        order = np.argsort(rng, kind="stable")
        batch = batch.take(order)
        path = os.path.join(runs_dir, f"run-{uuid.uuid4().hex}.parquet")
        from .build import _write_run_bucket_rowgroups

        _write_run_bucket_rowgroups(batch, path)
        return pa.table({"rows": pa.array([batch.num_rows], type=pa.int64())})

    ds = ray.data.read_parquet(files)
    ds.map_batches(
        _scatter, batch_format="pyarrow", batch_size=batch_rows
    ).materialize()

    run_files = sorted(
        os.path.join(runs_dir, f)
        for f in os.listdir(runs_dir)
        if f.endswith(".parquet")
    )
    # per-range row counts from run METADATA only (each row group holds
    # one bucket; its stats min == the bucket id)
    range_counts = np.zeros(n_ranges, np.int64)
    for rf in run_files:
        meta = pq.ParquetFile(rf).metadata
        bcol = [
            i for i in range(meta.num_columns)
            if meta.schema.column(i).path == "bucket"
        ][0]
        for i in range(meta.num_row_groups):
            st = meta.row_group(i).column(bcol).statistics
            if st is not None:
                range_counts[int(st.min)] += meta.row_group(i).num_rows

    tmp = marker + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(
            {
                "fingerprint": fingerprint,
                "boundaries_b64": [
                    base64.b64encode(b).decode() for b in boundaries
                ],
                "range_counts": range_counts.tolist(),
                "per_row": per_row,
                "target_rows_per_range": target_rows_per_range,
            },
            fh,
        )
    os.replace(tmp, marker)
    return {
        "resumed": False,
        "run_files": run_files,
        "n_ranges": n_ranges,
        "per_row": per_row,
        "target_rows_per_range": target_rows_per_range,
        "range_counts": range_counts,
    }


def _read_sorted_range(
    run_files: list[str], range_id: int, key_columns: list[str]
):
    """Read one range's rows from the scatter runs (stats-pruned row
    groups only) and return them key-sorted, bucket column dropped.
    ``None`` when the range is empty."""
    import pyarrow as pa
    import pyarrow.compute as pc

    parts = []
    for rf in run_files:
        pf = pq.ParquetFile(rf)
        meta = pf.metadata
        bcol = [
            i for i in range(meta.num_columns)
            if meta.schema.column(i).path == "bucket"
        ][0]
        grps = [
            i for i in range(meta.num_row_groups)
            if (st := meta.row_group(i).column(bcol).statistics) is not None
            and st.min <= range_id <= st.max
        ]
        if grps:
            t = pf.read_row_groups(grps)
            mask = pc.equal(t.column("bucket"), pa.scalar(range_id, pa.uint32()))
            t = t.filter(mask)
            if t.num_rows:
                parts.append(t.drop_columns(["bucket"]))
    if not parts:
        return None
    tbl = pa.concat_tables(parts, promote_options="default")
    order = pc.sort_indices(
        tbl.select(key_columns),
        sort_keys=[(c, "ascending") for c in key_columns],
    )
    return tbl.take(order)


def _range_task_memory(per_row: float, target_rows_per_range: int) -> int:
    """Memory declaration for a per-range task (parts + concat + take
    copy ≈ 3x the range bytes) so Ray's memory-aware scheduler bounds
    how many run at once — with num_cpus alone, every range runs
    concurrently and peak memory scales with n_ranges, not workers.
    Sized from the ACTUAL resolved rows-per-range (not the default
    1 GiB target): explicit small ranges must not serialize behind a
    3 GiB declaration, and the declaration must stay schedulable on
    hosts whose Ray memory resource is small."""
    import ray

    est_range_bytes = int(3 * per_row * target_rows_per_range)
    try:
        avail = int(ray.cluster_resources().get("memory", 0))
    except Exception:
        avail = 0
    if avail:
        est_range_bytes = min(est_range_bytes, avail // 2)
    return max(32 << 20, est_range_bytes)
