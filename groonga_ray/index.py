"""IndexReader: lexicon lookup, posting fetch, stats — the query-side
view of a built index.

Stands in for the reference's mmap'd lexicon (patricia trie, lib/pat.c)
+ chunk reader (grn_ii_cursor_open, lib/ii.c:4048-4141): the lexicon is
HASH-PARTITIONED into per-bucket term-sorted Parquet shards; an exact
lookup hashes to one shard and binary-searches its covering row group
(prefix search = per-shard range scans over row-group term statistics,
mirroring grn_pat_prefix_search semantics, lib/pat.c:968). Posting rows
live in term-sorted bucket Parquet files written with bounded row
groups; a term fetch binary-searches the per-row-group term statistics
and reads ONLY the covering row groups (parquet pushdown = the
reference's segment/chunk skip walk) — bytes read scale with the
term's postings, not the bucket, and no query engine ever materializes
the vocabulary.

Doc lengths are NOT materialized densely: :class:`DoclenStore` lazily
loads per-shard (docid, dl) files on first touch and answers vectorized
docid lookups — at 10^12 docs a dense array would be terabytes; the
store's footprint is bounded by the shards a query actually touches.

One IndexReader per index version per process, shared by every thread:
:func:`open_index` reopens it when the files on disk change, and all
of its caches are :class:`~groonga_ray.cache.BoundedCache` instances.
"""

from __future__ import annotations

import bisect
import glob
import json
import os
from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import codec
from .cache import BoundedCache, file_stamp


class _BucketFile:
    """Per-bucket parquet handle + row-group term-range directory
    (min/max term per row group, from column statistics — parsed once
    per reader, metadata only)."""

    def __init__(self, path: str):
        self.pf = pq.ParquetFile(path)
        meta = self.pf.metadata
        tcol = [
            i for i in range(meta.num_columns) if meta.schema.column(i).path == "term"
        ][0]
        mins, maxs, sizes, rows = [], [], [], [0]
        for i in range(meta.num_row_groups):
            st = meta.row_group(i).column(tcol).statistics
            mins.append(st.min if st is not None else "")
            maxs.append(st.max if st is not None else "\U0010ffff")
            sizes.append(meta.row_group(i).total_byte_size)
            rows.append(rows[-1] + meta.row_group(i).num_rows)
        self.rg_min = mins
        self.rg_max = maxs
        self.rg_bytes = sizes
        self.rg_row_base = np.asarray(rows, np.int64)   # cumulative rows per group
        self.num_rows = int(rows[-1])
        self.num_row_groups = meta.num_row_groups

    def groups_for_range(self, lo_term: str, hi_term: str | None) -> list[int]:
        """Row groups intersecting the term range [lo_term, hi_term]
        (terms are sorted across the file, so the covering groups are a
        contiguous range); hi_term=None means unbounded above."""
        lo = bisect.bisect_left(self.rg_max, lo_term)        # first group with max >= lo
        hi = (                                               # first group with min > hi
            bisect.bisect_right(self.rg_min, hi_term) if hi_term is not None else len(self.rg_min)
        )
        return list(range(lo, hi))


TID_SHIFT = 40                      # tid = (bucket << TID_SHIFT) | lexicon row
_TID_MASK = (1 << TID_SHIFT) - 1


class _LazyDf:
    """Dict-like per-tid document frequency over the hash-partitioned
    lexicon — lookups fault in one lexicon row group, never the vocab."""

    def __init__(self, si: "SectionIndex"):
        self.si = si

    def __getitem__(self, tid: int) -> int:
        return int(self.si._lex_row(tid)["df"])

    def __len__(self) -> int:
        return self.si.n_terms


class SectionIndex:
    """Lexicon + postings of one section (source column).

    The lexicon is hash-partitioned: ``lexicon/bucket=NNNN.parquet``
    holds the terms whose unsalted hash owns bucket NNNN, term-sorted
    with bounded row groups. A term lookup hashes to ONE shard and
    binary-searches its covering row group (faulting in ~LEXICON_
    ROW_GROUP rows); nothing ever loads the whole vocabulary — at
    web-scale vocab (10^8-10^9 terms) a flat in-memory lexicon is
    multi-GB per query process, the partitioned one is O(terms touched).
    Prefix/suffix/pattern scans stream row groups per shard under an
    LRU so their footprint stays bounded too.
    """

    def __init__(self, index_dir: str, section: str, n_buckets: int):
        self.dir = os.path.join(index_dir, f"sec={section}")
        self.section = section
        self.n_buckets = n_buckets
        self._lex_paths: dict[int, str] = {}
        for f in glob.glob(os.path.join(self.dir, "lexicon", "bucket=*.parquet")):
            b = int(os.path.basename(f).split("=")[1].split(".")[0])
            self._lex_paths[b] = f
        if not self._lex_paths and os.path.exists(os.path.join(self.dir, "postings")):
            raise ValueError(
                f"{self.dir}: no hash-partitioned lexicon (index built by an "
                "older layout?) — rebuild the index"
            )
        self._lex_files: dict[int, _BucketFile] = {}
        self.df = _LazyDf(self)
        self._n_terms: int | None = None
        self._bucket_files: dict[int, _BucketFile] = {}
        self.caches = {
            "lexicon_row_groups": BoundedCache(max_items=64),   # (bucket, rg) -> table
            "term_rows": BoundedCache(max_items=65536),         # tid -> lexicon row
            "term_ids": BoundedCache(max_items=65536),          # term -> tid | None
            "posting_row_groups": BoundedCache(max_items=64),   # (bucket, rg) -> table
            # decoded postings (hot query terms skip varbyte decode +
            # concat — the analogue of the reference's mmap'd buffers
            # staying in page cache; NOT the result cache, so --cache no
            # does not bypass it). Byte-bounded so a few mega-df terms
            # can't blow up the process heap.
            "postings": BoundedCache(max_bytes=64 << 20, sizeof=_posting_nbytes),
        }
        self.bytes_read = 0          # posting bytes fetched (test/observability)
        self.lex_bytes_read = 0      # lexicon bytes fetched

    # ---- lexicon shards ------------------------------------------
    def _lex_file(self, bucket: int) -> _BucketFile:
        bf = self._lex_files.get(bucket)
        if bf is None:
            bf = self._lex_files[bucket] = _BucketFile(self._lex_paths[bucket])
        return bf

    def _lex_rg(self, bucket: int, rg: int) -> pa.Table:
        return self.caches["lexicon_row_groups"].get_or_load((bucket, rg), self._read_lex_rg)

    def _read_lex_rg(self, key: tuple[int, int]) -> pa.Table:
        bucket, rg = key
        bf = self._lex_file(bucket)
        self.lex_bytes_read += bf.rg_bytes[rg]
        return bf.pf.read_row_groups([rg])

    @staticmethod
    def _row_dict(tbl: pa.Table, i: int) -> dict:
        return {
            "term": tbl.column("term")[i].as_py(),
            "df": tbl.column("df")[i].as_py(),
            "cf": tbl.column("cf")[i].as_py(),
            "buckets": np.asarray(tbl.column("buckets")[i].as_py(), np.int64),
            "parts": np.asarray(tbl.column("parts")[i].as_py(), np.int64),
        }

    def _lex_row(self, tid: int) -> dict:
        return self.caches["term_rows"].get_or_load(tid, self._read_lex_row)

    def _read_lex_row(self, tid: int) -> dict:
        b, lid = tid >> TID_SHIFT, tid & _TID_MASK
        bf = self._lex_file(b)
        rg = int(np.searchsorted(bf.rg_row_base, lid, side="right")) - 1
        return self._row_dict(self._lex_rg(b, rg), lid - int(bf.rg_row_base[rg]))

    @property
    def n_terms(self) -> int:
        if self._n_terms is None:
            self._n_terms = sum(
                self._lex_file(b).num_rows for b in self._lex_paths
            )
        return self._n_terms

    def all_tids(self):
        """Every tid, bucket by bucket (test/dump iteration)."""
        for b in sorted(self._lex_paths):
            for lid in range(self._lex_file(b).num_rows):
                yield (b << TID_SHIFT) | lid

    # ---- lexicon lookups -----------------------------------------
    def term_id(self, term: str) -> int | None:
        """Hash to the owning lexicon shard, binary-search its covering
        row group; None when absent."""
        return self.caches["term_ids"].get_or_load(term, self._find_term)

    def _find_term(self, term: str) -> int | None:
        from .utils import fnv1a

        b = int(fnv1a(pa.array([term], pa.large_string()))[0] % np.uint64(self.n_buckets))
        tid = None
        if b in self._lex_paths:
            bf = self._lex_file(b)
            for rg in bf.groups_for_range(term, term):
                tbl = self._lex_rg(b, rg)
                tcol = tbl.column("term").combine_chunks()
                lo = _searchsorted_str(tcol, term, "left")
                if lo < len(tcol) and tcol[lo].as_py() == term:
                    tid = (b << TID_SHIFT) | (int(bf.rg_row_base[rg]) + lo)
                    self.caches["term_rows"].put(tid, self._row_dict(tbl, lo))
                    break
        return tid

    def _range_scan(self, lo_term: str, hi_term: str | None) -> list[int]:
        """tids with lo_term <= term < hi_term across all lexicon
        shards (row-group stats pruning per shard)."""
        out: list[int] = []
        for b in sorted(self._lex_paths):
            bf = self._lex_file(b)
            for rg in bf.groups_for_range(lo_term, hi_term):
                tbl = self._lex_rg(b, rg)
                tcol = tbl.column("term").combine_chunks()
                lo = _searchsorted_str(tcol, lo_term, "left")
                hi = (
                    _searchsorted_str(tcol, hi_term, "left")
                    if hi_term is not None
                    else len(tcol)
                )
                base = (b << TID_SHIFT) | int(bf.rg_row_base[rg])
                out.extend(range(base + lo, base + hi))
        return out

    def prefix_range(self, prefix: str) -> list[int]:
        """tids of all terms with the given prefix (sorted-shard range
        scans — the patricia-trie prefix search equivalent)."""
        return self._range_scan(prefix, _prefix_upper(prefix))

    def term_at(self, tid: int) -> str:
        return self._lex_row(tid)["term"]

    def _full_scan_tids(self, match_fn) -> list[int]:
        """Stream every lexicon row group through a vectorized match
        kernel (vocab scan, memory bounded by one row group)."""
        out: list[int] = []
        for b in sorted(self._lex_paths):
            bf = self._lex_file(b)
            for rg in range(bf.num_row_groups):
                tbl = self._lex_rg(b, rg)
                mask = match_fn(tbl.column("term"))
                if isinstance(mask, pa.ChunkedArray):
                    mask = mask.combine_chunks()
                idx = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
                base = (b << TID_SHIFT) | int(bf.rg_row_base[rg])
                out.extend((base + int(i)) for i in idx)
        return out

    def matching_tids(self, pattern: str, mode: str = "substring") -> list[int]:
        """tids of lexicon terms containing/regex-matching ``pattern``
        — the TokenRegexp-index stand-in for REGEXP mode
        (lib/ii.c:6049-6118): the vocabulary scan is vectorized per
        lexicon row group (vocab ≪ corpus) and the resulting union of
        postings is the index prefilter."""
        if mode == "substring":
            return self._full_scan_tids(lambda t: pc.match_substring(t, pattern))
        return self._full_scan_tids(lambda t: pc.match_substring_regex(t, pattern))

    def suffix_tids(self, suffix: str) -> list[int]:
        """tids of terms ending with ``suffix`` — the patricia trie's
        SIS suffix links (GRN_OBJ_KEY_WITH_SIS, lib/pat.c:841-868)
        replaced by a streaming ends_with scan over the lexicon
        shards."""
        return self._full_scan_tids(lambda t: pc.ends_with(t, pattern=suffix))

    def df_estimate(self, tid: int) -> int:
        """The reference's df *estimate* (grn_ii_estimate_size,
        lib/ii.c:4470-4494): 1 for single-posting terms, df+2 for
        buffered terms (clean-build equivalence, SURVEY.md §2.4)."""
        d = int(self.df[tid])
        return 1 if d == 1 else d + 2

    # ---- postings ------------------------------------------------
    def _bucket_file(self, bucket: int) -> _BucketFile:
        bf = self._bucket_files.get(bucket)
        if bf is None:
            path = os.path.join(self.dir, "postings", f"bucket={bucket:04d}", "part.parquet")
            bf = self._bucket_files[bucket] = _BucketFile(path)
        return bf

    def _read_row_group(self, bucket: int, rg: int) -> pa.Table:
        return self.caches["posting_row_groups"].get_or_load((bucket, rg), self._read_posting_rg)

    def _read_posting_rg(self, key: tuple[int, int]) -> pa.Table:
        bucket, rg = key
        bf = self._bucket_file(bucket)
        self.bytes_read += bf.rg_bytes[rg]
        return bf.pf.read_row_groups([rg])

    def posting_rows(self, tid: int) -> list[dict]:
        """All part rows of a term, ordered by first docid (hot terms
        have several salted parts; cold terms exactly one). Reads only
        the row groups whose term range covers the term. Not cached: a
        cache here hit under 1% of lookups on the benchmark workloads,
        as the decoded ``postings`` cache above it serves the repeats."""
        lex = self._lex_row(tid)
        term = lex["term"]
        rows: list[dict] = []
        for b in np.unique(lex["buckets"]):
            bf = self._bucket_file(int(b))
            for rg in bf.groups_for_range(term, term):
                tbl = self._read_row_group(int(b), rg)
                tcol = tbl.column("term").combine_chunks()
                # rows are term-sorted: locate the term's row range
                lo = _searchsorted_str(tcol, term, "left")
                hi = _searchsorted_str(tcol, term, "right")
                for i in range(lo, hi):
                    rows.append({c: tbl.column(c)[i].as_py() for c in tbl.column_names})
        rows.sort(key=lambda r: r["cfirst"][0])
        return rows

    def postings(self, tid: int, min_docid: int | None = None, with_positions: bool = False) -> codec.PostingList:
        # cached PostingLists are shared read-only snapshots; all
        # consumers index into them (copies), never write in place
        key = (tid, with_positions)
        if min_docid is None:
            return self.caches["postings"].get_or_load(key, self._decode)
        return self._decode(key, min_docid)

    def _decode(self, key: tuple[int, bool], min_docid: int | None = None) -> codec.PostingList:
        tid, with_positions = key
        rows = self.posting_rows(tid)
        if not rows:
            return codec.PostingList(np.empty(0, np.uint64), np.empty(0, np.uint64))
        row = rows[0] if len(rows) == 1 else codec.concat_posting_rows(rows)
        return codec.decode_postings(row, min_docid=min_docid, with_positions=with_positions)


def _posting_nbytes(pl: codec.PostingList) -> int:
    nb = pl.docids.nbytes + pl.tfs.nbytes
    if pl.positions is not None:
        nb += pl.positions.nbytes + pl.pos_offsets.nbytes
    return nb


def _prefix_upper(prefix: str) -> str | None:
    """Smallest string greater than EVERY string starting with
    ``prefix`` (covers supplementary-plane continuations that
    ``prefix + '\\uffff'`` misses); None if no such string exists."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            nxt = c + 1
            if 0xD800 <= nxt <= 0xDFFF:     # skip the surrogate gap
                nxt = 0xE000
            return prefix[:i] + chr(nxt)
    return None


def _searchsorted_str(arr: pa.Array, value: str, side: str) -> int:
    lo, hi = 0, len(arr)
    while lo < hi:
        mid = (lo + hi) // 2
        v = arr[mid].as_py()
        if v < value or (side == "right" and v == value):
            lo = mid + 1
        else:
            hi = mid
    return lo


class _MultiDf:
    """dict-like df view over composite tids (sum across segments)."""

    def __init__(self, multi: "MultiSectionIndex"):
        self.multi = multi

    def __getitem__(self, ctid) -> int:
        return sum(int(self.multi.subs[i].df[t]) for i, t in ctid)


class MultiSectionIndex:
    """One section across the base index + LSM delta segments.

    The reference updates posting buffers in place
    (grn_ii_column_update, lib/ii.c:5120-5338); here increments land as
    immutable delta segments (each a full mini-index) whose docid
    ranges are strictly ABOVE the base's, so per-term postings across
    segments concatenate in docid order with no merge compare — the
    same invariant the salted hot-term parts rely on. A composite term
    id is the tuple of (segment, local_tid) pairs holding the term.
    """

    def __init__(self, subs: list[SectionIndex]):
        self.subs = subs
        self.df = _MultiDf(self)

    @property
    def bytes_read(self) -> int:
        return sum(s.bytes_read for s in self.subs)

    def term_id(self, term: str):
        parts = [
            (i, t) for i, si in enumerate(self.subs)
            if (t := si.term_id(term)) is not None
        ]
        return tuple(parts) if parts else None

    def term_at(self, ctid) -> str:
        i, t = ctid[0]
        return self.subs[i].term_at(t)

    def df_estimate(self, ctid) -> int:
        return sum(self.subs[i].df_estimate(t) for i, t in ctid)

    def _group_across(self, per_sub_tids) -> list:
        by_term: dict[str, list] = {}
        for i, tids in enumerate(per_sub_tids):
            for t in tids:
                by_term.setdefault(self.subs[i].term_at(t), []).append((i, t))
        return [tuple(v) for _, v in sorted(by_term.items())]

    def prefix_range(self, prefix: str) -> list:
        return self._group_across([si.prefix_range(prefix) for si in self.subs])

    def suffix_tids(self, suffix: str) -> list:
        return self._group_across([si.suffix_tids(suffix) for si in self.subs])

    def matching_tids(self, pattern: str, mode: str = "substring") -> list:
        return self._group_across([si.matching_tids(pattern, mode) for si in self.subs])

    def posting_rows(self, ctid) -> list[dict]:
        rows = [r for i, t in ctid for r in self.subs[i].posting_rows(t)]
        rows.sort(key=lambda r: r["cfirst"][0])
        return rows

    def postings(self, ctid, min_docid: int | None = None, with_positions: bool = False) -> codec.PostingList:
        pls = [
            self.subs[i].postings(t, min_docid=min_docid, with_positions=with_positions)
            for i, t in ctid
        ]
        pls = [p for p in pls if len(p)]
        if not pls:
            return codec.PostingList(np.empty(0, np.uint64), np.empty(0, np.uint64))
        if len(pls) == 1:
            return pls[0]
        docids = np.concatenate([p.docids for p in pls])
        tfs = np.concatenate([p.tfs for p in pls])
        positions = pos_offsets = None
        if with_positions and pls[0].positions is not None:
            positions = np.concatenate([p.positions for p in pls])
            pos_offsets = np.zeros(len(docids) + 1, np.int64)
            np.cumsum(tfs.astype(np.int64), out=pos_offsets[1:])
        return codec.PostingList(docids, tfs, positions, pos_offsets)


class DoclenStore:
    """Lazy per-shard docid -> token-count lookup (BM25 ``dl``).

    The build writes one (docid, dl) parquet per shard with contiguous,
    sorted docid ranges. The store reads only file-level docid
    statistics up front (metadata pass); shard arrays load on first
    touch. ``store[docids]`` is a vectorized gather grouped by shard —
    the dense-array replacement that stays bounded at 10^12 docs.
    """

    def __init__(self, files: list[str]):
        self.files = files
        lo, hi = [], []
        for f in files:
            meta = pq.ParquetFile(f).metadata
            col = [i for i in range(meta.num_columns) if meta.schema.column(i).path == "docid"][0]
            lo.append(min(meta.row_group(i).column(col).statistics.min for i in range(meta.num_row_groups)))
            hi.append(max(meta.row_group(i).column(col).statistics.max for i in range(meta.num_row_groups)))
        order = np.argsort(lo)
        self._lo = np.asarray(lo, np.uint64)[order]
        self._hi = np.asarray(hi, np.uint64)[order]
        self._files = [files[i] for i in order]
        self._loaded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._total: int | None = None
        self._dense: np.ndarray | None = None
        self._dense_tried = False

    # docid spans up to this many entries get ONE dense uint32 array
    # (O(1) fancy-index gather instead of per-shard searchsorted — the
    # BM25 dl lookup is ~30% of a short query). 2^25 entries = 128 MB
    # per store; bigger corpora keep the bounded shard-gather path.
    _DENSE_MAX = 1 << 25

    def _try_dense(self) -> None:
        self._dense_tried = True
        if not self._files:
            return
        base = int(self._lo.min())
        span = int(self._hi.max()) - base + 1
        if span <= 0 or span > self._DENSE_MAX:
            return
        dense = np.zeros(span, np.uint32)
        for i in range(len(self._files)):
            ids, dls = self._shard(i)
            dense[ids.astype(np.int64) - base] = dls
        self._dense_base = base        # before _dense: other threads test _dense
        self._dense = dense
        # the per-shard (docid, dl) arrays were only scaffolding for the
        # dense copy — keeping them would triple the footprint
        self._loaded.clear()

    def _shard(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        arr = self._loaded.get(i)
        if arr is None:
            tbl = pq.read_table(self._files[i])
            arr = (
                tbl.column("docid").to_numpy(zero_copy_only=False).astype(np.uint64),
                tbl.column("dl").to_numpy(zero_copy_only=False).astype(np.uint32),
            )
            self._loaded[i] = arr
        return arr

    def __getitem__(self, docids) -> np.ndarray:
        d = np.asarray(docids, np.uint64).ravel()
        out = np.zeros(len(d), np.uint32)
        if len(d) == 0:
            return out
        if not self._dense_tried:
            self._try_dense()
        if self._dense is not None:
            idx = d.astype(np.int64) - self._dense_base
            ok = (idx >= 0) & (idx < len(self._dense))
            out[ok] = self._dense[idx[ok]]
            return out
        fi = np.searchsorted(self._lo, d, side="right") - 1
        fi = np.clip(fi, 0, len(self._files) - 1)
        for i in np.unique(fi):
            m = fi == i
            ids, dls = self._shard(int(i))
            pos = np.searchsorted(ids, d[m])
            pos = np.clip(pos, 0, len(ids) - 1)
            hit = ids[pos] == d[m]
            vals = np.where(hit, dls[pos], 0).astype(np.uint32)
            out[m] = vals
        return out

    def all_docids(self) -> np.ndarray:
        """Every docid, streamed shard-by-shard (docid column only) —
        inherently corpus-sized; used by match-all queries only."""
        parts = [
            pq.read_table(f, columns=["docid"]).column("docid").to_numpy(zero_copy_only=False)
            for f in self._files
        ]
        return np.concatenate(parts).astype(np.uint64) if parts else np.empty(0, np.uint64)


class IndexReader:
    def __init__(self, index_dir: str):
        self.dir = index_dir
        with open(os.path.join(index_dir, "meta.json")) as fh:
            self.meta = json.load(fh)
        with open(os.path.join(index_dir, "stats.json")) as fh:
            self.stats = json.load(fh)
        self._delta_dirs = [
            os.path.join(index_dir, d) for d in self.meta.get("deltas", [])
        ]
        self._delta_metas = []
        for d in self._delta_dirs:
            with open(os.path.join(d, "meta.json")) as fh:
                self._delta_metas.append(json.load(fh))
        self.sections = {}
        for s in self.meta["sections"]:
            subs = [
                SectionIndex(d, s, int(m["config"]["n_buckets"]))
                for d, m in zip([index_dir] + self._delta_dirs, [self.meta] + self._delta_metas)
            ]
            self.sections[s] = MultiSectionIndex(subs) if len(subs) > 1 else subs[0]
        self._doclens: dict[str, DoclenStore] = {}
        # query text -> GET-mode tokens (engine._query_tokens): the
        # tokenizer and filter chain are fixed per reader
        self.query_tokens = BoundedCache(max_items=8192)
        self.n_docs = int(self.meta["n_docs"]) + sum(
            int(m["n_docs"]) for m in self._delta_metas
        )
        # tombstones: docids logically deleted (delete_documents) —
        # postings/stats stay until compaction, matches are filtered
        ts_path = os.path.join(index_dir, "tombstones.parquet")
        self.tombstones: np.ndarray | None = None
        if os.path.exists(ts_path):
            t = pq.read_table(ts_path).column("docid").to_numpy(zero_copy_only=False)
            if len(t):                      # empty set == no tombstones
                self.tombstones = np.sort(t.astype(np.uint64))

    def owned_caches(self):
        """(name, cache) of every cache this reader owns."""
        yield "query_tokens", self.query_tokens
        for s in self.sections.values():
            for si in s.subs if isinstance(s, MultiSectionIndex) else [s]:
                yield from si.caches.items()

    def filter_alive(self, result):
        """Drop tombstoned docids from a MatchResult (grn_ii delete
        semantics realized as read-time filtering, lib/ii.c:3880)."""
        if self.tombstones is None or getattr(result, "nhits", 0) == 0:
            return result
        from .search import MatchResult

        pos = np.searchsorted(self.tombstones, result.docids)
        pos = np.clip(pos, 0, len(self.tombstones) - 1)
        dead = self.tombstones[pos] == result.docids
        return MatchResult(result.docids[~dead], result.scores[~dead])

    def section(self, name: str | None = None) -> SectionIndex:
        if name is None:
            name = self.meta["sections"][0]
        return self.sections[name]

    def doclens(self, section: str | None = None) -> DoclenStore:
        """Lazy docid -> token count store (index with a docid array)."""
        if section is None:
            section = self.meta["sections"][0]
        if section not in self._doclens:
            files = []
            for d in [self.dir] + self._delta_dirs:
                files.extend(
                    sorted(glob.glob(os.path.join(d, "doclens", f"sec={section}", "*.parquet")))
                )
            self._doclens[section] = DoclenStore(files)
        return self._doclens[section]

    def all_docids(self, section: str | None = None) -> np.ndarray:
        return self.doclens(section).all_docids()

    @cached_property
    def query_chain(self) -> list:
        """GET-mode token-filter chain from the build config (stop-word
        drop + stemming applied to query tokens, token_cursor
        lib/token_cursor.c:123-178)."""
        from .tokenfilters import build_chain

        return build_chain(self.meta.get("config", {}))

    def avgdl(self, section: str | None = None) -> float:
        if section is None:
            section = self.meta["sections"][0]
        metas = [self.meta] + self._delta_metas
        tokens = sum(int(m["stats"]["sections"][section]["total_tokens"]) for m in metas)
        docs = sum(int(m["stats"]["sections"][section]["n_docs"]) for m in metas)
        return tokens / docs if docs else 0.0


_READERS = BoundedCache(max_items=8)        # index dir -> reader at its stamp


def index_stamp(index_dir: str) -> tuple:
    """Version of the index on disk: every mutation rewrites
    ``meta.json`` (builds, deltas, config edits, compaction) or the
    tombstone file (deletes), so the stamp never returns to a value a
    cached reader holds."""
    return (
        file_stamp(os.path.join(index_dir, "meta.json")),
        file_stamp(os.path.join(index_dir, "tombstones.parquet")),
    )


def open_index(index_dir: str) -> IndexReader:
    """The process's shared reader of ``index_dir`` as it is on disk
    now; a new one opens when :func:`index_stamp` moves."""
    return _READERS.get_or_load(index_dir, IndexReader, stamp=index_stamp(index_dir))


open_index.cache_clear = _READERS.clear


def cache_stats() -> dict[str, dict]:
    """Counters of the open readers and of every cache they own,
    summed per cache name."""
    out = {"readers": _READERS.stats()}
    for reader in _READERS.values():
        for name, cache in reader.owned_caches():
            acc = out.setdefault(name, {})
            for k, v in cache.stats().items():
                acc[k] = acc.get(k, 0) + v
    return out
