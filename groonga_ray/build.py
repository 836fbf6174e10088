"""Ray-Data-native inverted-index build pipeline.

The reference's offline build (grn_ii_build, lib/ii.c:8029: scan →
per-16MB-block tokenize+encode sorted runs → k-way merge by term into
chunks) becomes a two-stage Ray Data pipeline with per-partition
checkpoints:

Stage A (map side, no shuffle) — a Dataset of shard descriptors is
  mapped through an actor pool (``map_batches(_ShardIndexer)``): each
  shard (a contiguous, docid-ranged slice of the key-sorted input)
  is read with column pruning, tokenized vectorized, locally
  (term,docid)-sorted and encoded into a *segment run* — the analogue
  of grn_ii_buffer_flush's temp-file block (lib/ii.c:7310), except the
  run is already in final posting encoding. Runs and per-shard doc
  lengths are written atomically with a manifest; a restarted build
  skips shards whose manifest validates (per-partition lineage).

Stage B (the exchange) — each run file is written sorted by bucket
  with ONE PARQUET ROW GROUP PER BUCKET, so the partitioned write *is*
  the map-side shuffle: the per-bucket merge task reads only its row
  group from each run (parquet statistics pruning), bulk-decodes all
  runs of a term at once (vectorized across rows) and re-encodes into
  canonical chunks (the analogue of grn_ii_buffer_merge/chunk_flush,
  lib/ii.c:7743/7547). Because shards are contiguous docid ranges,
  runs concatenate in docid order — no k-way compare is needed. No
  all-to-all operator appears anywhere in the build; data moves once,
  through the filesystem/object store, already bucket-partitioned.
  (At 10^12-row scale the #shards x #buckets row-group matrix is
  bounded by merging in waves of shards; buckets scale with the
  cluster.)

Skew — hot terms (keywords like ``return`` with df ≈ N, FIXTURES.md
  skew knobs) are salted at stage A: their bucket is
  ``hash(term + '#' + salt)`` with ``salt = shard_id // salt_group``,
  so no single stage-B group ever holds a hot term's full posting
  list. A hot term's rows within one salt group are chunk-directory
  concatenated (lossless, no decode) into a single ``part`` row; parts
  across salt groups are never merged (the analogue of Groonga's
  CHUNK_SPLIT multi-chunk form, lib/ii.c:59-60) and the lexicon
  records every (bucket, part) location; the query side concatenates
  parts by first-docid order.
  Hotness is decided per shard by local df (a term globally hot at
  10^12 scale is locally hot in every shard) or a static broadcast set.

Sections — the reference's WITH_SECTION flag (multi-column index,
  lib/grn_ii.h:31-40) is realized as one posting dataset per source
  column under ``sec=<column>/``; scores accumulate across sections at
  query time exactly like grn_table_add_subrec (lib/db.c:2136-2158).

Layout::

    index_dir/
      meta.json
      sec=<col>/runs/shard=NNNNN/run.parquet + manifest.json
      sec=<col>/postings/bucket=NNNN/part.parquet + manifest.json
      sec=<col>/lexicon/bucket=NNNN.parquet   (hash-partitioned vocab)
      doclens/shard=NNNNN.parquet      (docid, dl per section)
      stats.json                        (N, avgdl/section, totals)
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from . import codec
from .docids import Shard, read_shard, sorted_file_shards
from .tokenize import WordTokenizer, tokenize
from .utils import atomic_write_table, file_fingerprint, fnv1a, read_manifest, write_manifest

RUN_EXTRA_FIELDS = [("bucket", pa.uint32()), ("shard", pa.uint32()), ("hot", pa.bool_())]

# rows per row group in final posting files: small enough that a
# single-term fetch touches ~1/NROWGROUPS of a bucket, large enough to
# keep parquet metadata overhead negligible
POSTING_ROW_GROUP = 256


@dataclass
class BuildConfig:
    text_columns: tuple[str, ...] = ("content",)
    tokenizer: str = "TokenCodeWord"         # vectorized word tokenizer (scale path)
    with_positions: bool = True
    # None = derive from the input so postings/bucket stays ~constant
    # (~16M — the regime the 1M-doc record ran in; 4x the postings per
    # bucket measured >=2.3x super-linear stage-B cost). Explicit
    # values are honored unchanged. At 100 TB the derived count grows
    # with the corpus instead of the per-bucket merge growing without
    # bound — buckets are the unit of stage-B parallelism AND memory.
    n_buckets: int | None = 32
    chunk_postings: int = codec.CHUNK_POSTINGS
    hot_local_df: int = 65536                # per-shard df above which a term is salted
    hot_df_ratio: float = 0.25               # ...or above this fraction of the shard's rows
    tokenize_rows_per_batch: int = 512       # stage-A sub-slice (bounds peak memory)
    hot_terms: tuple[str, ...] = ()          # static hot set (broadcast)
    token_filters: tuple[str, ...] = ()      # chain, e.g. ("TokenFilterStem",)
    normalizer: str = "NormalizerAuto"       # "" = raw (case-sensitive) lexicon
    stop_words: tuple[str, ...] = ()         # TokenFilterStopWord set (GET-mode drop)
    salt_group: int = 4                      # shards per hot-term salt part
    # None = derive from the input's parquet metadata so a shard holds
    # ~TARGET_SHARD_TEXT_BYTES of text (~8M tokens — the measured
    # throughput optimum; see SCALING.md round-3 shard-size law).
    # Explicit values are honored unchanged.
    target_rows_per_shard: int | None = None
    stage_b_concurrency: int = 64            # bucket-merge pool cap (scaling
                                             # is bucket-bound: keep >= n_buckets
                                             # so merge width follows the cluster)
    docid_column: str | None = None          # pre-assigned docids (e.g. documents.doc_id)
    docid_offset: int = 1                    # docids are 1-based when assigned by rank
    merge_slice_postings: int = 4_000_000    # peak decoded postings per merge slice
                                             # (memory bound; output-identical knob)
    layout_version: int = 3                  # bump on on-disk layout changes (cache invalidation)
    runs_root: str | None = None             # node-local fast storage for the
                                             # intermediate segment runs (the
                                             # shuffle files of this build —
                                             # Spark-style local shuffle dirs).
                                             # None = inside index_dir. Runs
                                             # are re-creatable from source
                                             # (manifest fingerprints force a
                                             # shard re-run if lost), so tmpfs
                                             # / local NVMe is safe and avoids
                                             # dirty-page writeback stalls.

    def fingerprint(self) -> dict:
        # runs_root is a placement knob, not a semantic one — identical
        # builds with different scratch dirs must share fingerprints
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in self.__dict__.items()
            if k != "runs_root"
        }

    @staticmethod
    def from_fingerprint(d: dict) -> "BuildConfig":
        kw = {}
        for k, v in d.items():
            kw[k] = tuple(v) if isinstance(v, list) else v
        return BuildConfig(**kw)


def runs_base(cfg: BuildConfig, index_dir: str) -> str:
    """Directory holding the intermediate segment runs for this build.

    Defaults to index_dir (runs co-located with the index). With
    cfg.runs_root set, runs land under a path keyed by the absolute
    index_dir — the node-local-scratch pattern (shuffle intermediates
    on fast local storage, final index on durable storage)."""
    if not cfg.runs_root:
        return index_dir
    import hashlib as _h

    key = _h.sha1(os.path.abspath(index_dir).encode()).hexdigest()[:16]
    return os.path.join(cfg.runs_root, f"runs_{key}")


# ------------------------------------------------------------------ stage A

def _tokenize_column(cfg: BuildConfig, col: pa.Array, wt: WordTokenizer, chain: list | None = None):
    """Returns (terms, row_idx, positions, n_tokens_per_row)."""
    from .tokenfilters import apply_chain, apply_chain_stream

    if cfg.tokenizer == "TokenCodeWord":
        tb = wt.tokenize_column(col)
        if chain:
            terms, kidx = apply_chain(chain, tb.terms, "add")
            return terms, tb.row_idx[kidx], tb.positions[kidx], tb.n_tokens_per_row
        return tb.terms, tb.row_idx, tb.positions, tb.n_tokens_per_row
    # ngram family: per-row state machine (conformance path, not the
    # 100TB hot path — document the cost; still batched per shard)
    terms: list[str] = []
    row_idx: list[int] = []
    positions: list[int] = []
    n_per_row = np.zeros(len(col), np.int64)
    for i, v in enumerate(col):
        text = v.as_py()
        if not text:
            continue
        stream = tokenize(
            text, cfg.tokenizer, mode="add",
            normalizer=cfg.normalizer or None,
        )
        if chain:
            stream = apply_chain_stream(chain, stream, "add")
        for t in stream.tokens:
            terms.append(t.term)
            row_idx.append(i)
            positions.append(t.pos)
        n_per_row[i] = stream.tokens[-1].pos + 1 if stream.tokens else 0
    return (
        pa.array(terms, type=pa.large_string()),
        np.array(row_idx, np.int64),
        np.array(positions, np.uint32),
        n_per_row,
    )


def _tokenize_uvector(col) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray]:
    """TokenUvector (lib/tokenizers.c:28-98): a vector column's elements
    are the tokens, position = element ordinal. Fully columnar — list
    offsets become (row_idx, position) with no per-row loop."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    terms = pc.list_flatten(col).cast(pa.large_string())
    row_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    starts = np.cumsum(lens) - lens
    positions = (np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)).astype(
        np.uint32
    )
    return terms, row_idx, positions, lens


def _marker_rows(
    terms: pa.Array, buckets: np.ndarray, shard_id: int,
    dfs: np.ndarray, cfs: np.ndarray,
) -> pa.Table:
    """Chunk-less POSTING_SCHEMA rows + bucket/shard/hot columns:
    hot-shard announcements consumed (and dropped) by the bucket merge.
    They carry the hot rows' real df/cf so the OWNING (unsalted) bucket
    can build the term's full lexicon entry — totals plus the routing
    of every salted part — without any cross-bucket exchange. A marker
    is recognized by its empty chunk directory (``cn`` == [])."""
    n = len(terms)
    empty_u32 = pa.array([[]] * n, pa.list_(pa.uint32()))
    empty_u64 = pa.array([[]] * n, pa.list_(pa.uint64()))
    empty_bin = pa.array([b""] * n, pa.large_binary())
    tbl = pa.table(
        {
            "term": terms.cast(pa.large_string()),
            "df": pa.array(dfs.astype(np.uint64), pa.uint64()),
            "cf": pa.array(cfs.astype(np.uint64), pa.uint64()),
            "cn": empty_u32,
            "cfirst": empty_u64,
            "clast": empty_u64,
            "cmaxtf": empty_u32,
            "cdoff": empty_u32,
            "ctoff": empty_u32,
            "cpoff": empty_u32,
            "docs": empty_bin,
            "tfs": empty_bin,
            "poss": empty_bin,
        },
        schema=codec.POSTING_SCHEMA,
    )
    tbl = tbl.append_column("bucket", pa.array(buckets, pa.uint32()))
    tbl = tbl.append_column("shard", pa.array(np.full(n, shard_id, np.uint32)))
    tbl = tbl.append_column("hot", pa.array(np.ones(n, bool)))
    return tbl


def _rank_terms(terms: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode then remap codes to lexicographic rank.
    Returns (rank_per_token, sorted_unique_terms)."""
    dict_arr = pc.dictionary_encode(terms)
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = dict_arr.dictionary
    order = pc.sort_indices(uniq)  # rank -> code
    order_np = order.to_numpy(zero_copy_only=False).astype(np.int64)
    rank_of_code = np.empty(len(uniq), np.int64)
    rank_of_code[order_np] = np.arange(len(uniq))
    sorted_terms = uniq.take(order)
    return rank_of_code[codes], sorted_terms.cast(pa.large_string())


def _group_tokens_strings(terms, row_idx, positions, docid_of_row):
    """Group an exploded token stream into (term, docid)->tf+positions
    via string ranks (ngram/conformance path)."""
    tok_docids = docid_of_row[row_idx]
    rank, sorted_terms = _rank_terms(terms)
    order = np.lexsort((positions, tok_docids, rank))
    s_rank = rank[order]
    s_docid = tok_docids[order]
    s_pos = positions[order].astype(np.uint64)
    grp_start = np.empty(len(order), bool)
    grp_start[0] = True
    grp_start[1:] = (s_rank[1:] != s_rank[:-1]) | (s_docid[1:] != s_docid[:-1])
    starts = np.flatnonzero(grp_start)
    tf = np.diff(np.append(starts, len(order))).astype(np.uint64)
    g_docid = s_docid[starts]
    g_rank = s_rank[starts]
    pos_offsets = np.zeros(len(starts) + 1, np.int64)
    np.cumsum(tf.astype(np.int64), out=pos_offsets[1:])
    term_start = np.empty(len(starts), bool)
    term_start[0] = True
    term_start[1:] = g_rank[1:] != g_rank[:-1]
    term_offsets = np.append(np.flatnonzero(term_start), len(starts)).astype(np.int64)
    return sorted_terms, term_offsets, g_docid, tf, pos_offsets, s_pos


def _grouping_order(h: np.ndarray) -> np.ndarray:
    """Deterministic order that groups equal 64-bit hashes while
    preserving input order within a group.

    numpy's stable sort on 8-byte ints is timsort; introsort on a
    unique composite key (hash's top 32 bits | index) is ~2.5x
    faster and equivalent for grouping. Distinct hashes sharing
    their top 32 bits interleave their groups — the caller's
    docid-monotonicity check detects that and falls back to the
    exact string path, so collisions only cost speed.
    """
    comp = (h & np.uint64(0xFFFFFFFF00000000)) | np.arange(len(h), dtype=np.uint64)
    return np.argsort(comp)


def _tokenize_group_word(
    cfg: BuildConfig, col: pa.Array, docid_of_row: np.ndarray, wt: WordTokenizer,
    chain: list | None = None,
):
    """Scale-path tokenize+group: the column is processed in small row
    slices (bounded peak footprint — decisive where first-touch page
    faults are slow), tokens are grouped per slice by (term-hash,
    docid), and slices merge with a single small pair-level stable sort
    (docid order is preserved because slices are docid-contiguous).

    Terms are identified by 64-bit FNV within the shard; group purity
    is verified (docids strictly increasing per group) and the rare
    collision falls back to the exact string path. Returns
    ``(terms, term_offsets, docids, tf, pos_offsets, positions,
    n_tokens_per_row)`` with terms in hash order (stage B re-sorts by
    string; the lexicon is sorted in stage C).
    """
    n_rows = len(col)
    S = cfg.tokenize_rows_per_batch
    pair_hash, pair_docid, pair_tf, pos_segs = [], [], [], []
    term_of_hash: dict[int, str] = {}
    n_tokens = np.zeros(n_rows, np.int64)
    n_truncated = 0
    for a in range(0, n_rows, S):
        sub = col.slice(a, min(S, n_rows - a))
        tb = wt.tokenize_column(sub)
        n_truncated += tb.n_truncated_rows
        n_tokens[a : a + len(sub)] = tb.n_tokens_per_row
        b_terms, b_rows, b_pos = tb.terms, tb.row_idx, tb.positions
        if chain:
            from .tokenfilters import apply_chain

            b_terms, kidx = apply_chain(chain, tb.terms, "add")
            if len(kidx) != len(tb.row_idx):
                b_rows = tb.row_idx[kidx]
                b_pos = tb.positions[kidx]
        if len(b_rows) == 0:
            continue
        # hash the slice VOCABULARY (dictionary-encode is one C++
        # hash pass), then gather — fnv1a over every token instance
        # was ~30% of shard wall time
        denc = pc.dictionary_encode(
            b_terms.combine_chunks()
            if isinstance(b_terms, pa.ChunkedArray) else b_terms
        )
        vocab = denc.dictionary
        vh = fnv1a(vocab)
        th = vh[denc.indices.to_numpy(zero_copy_only=False)]
        docs = docid_of_row[a + b_rows]
        # tokens stream out of tokenize_column in (row, ordinal) order
        # and docids are nondecreasing in row order, so ONE stable-
        # equivalent sort by hash keeps (docid, pos) sorted inside
        # every term group — a single pass instead of a 3-key lexsort
        order = _grouping_order(th)
        h_s = th[order]
        d_s = docs[order]
        p_s = b_pos[order].astype(np.uint64)
        gs = np.empty(len(order), bool)
        gs[0] = True
        gs[1:] = (h_s[1:] != h_s[:-1]) | (d_s[1:] != d_s[:-1])
        starts = np.flatnonzero(gs)
        pair_hash.append(h_s[starts])
        pair_docid.append(d_s[starts])
        pair_tf.append(np.diff(np.append(starts, len(order))).astype(np.int64))
        pos_segs.append(p_s)
        for hsh, term in zip(vh.tolist(), vocab.to_pylist()):
            prev = term_of_hash.setdefault(hsh, term)
            if prev != term:
                # exact full-hash collision between distinct terms —
                # the only collision class the docid-monotonicity
                # check below cannot see (terms in disjoint docs)
                return None
    if not pair_hash:
        return None
    H = np.concatenate(pair_hash)
    D = np.concatenate(pair_docid)
    TF = np.concatenate(pair_tf)
    P = np.concatenate(pos_segs)
    pair_pos_off = np.zeros(len(H) + 1, np.int64)
    np.cumsum(TF, out=pair_pos_off[1:])

    order = _grouping_order(H)
    Hs = H[order]
    Ds = D[order]
    TFs = TF[order]
    # gather each pair's position run into the new order
    lens = TFs
    out_off = np.zeros(len(order) + 1, np.int64)
    np.cumsum(lens, out=out_off[1:])
    total = int(out_off[-1])
    gather = np.arange(total, dtype=np.int64)
    gather += np.repeat(pair_pos_off[:-1][order] - out_off[:-1], lens)
    Ps = P[gather]

    term_start = np.empty(len(Hs), bool)
    term_start[0] = True
    term_start[1:] = Hs[1:] != Hs[:-1]
    term_offsets = np.append(np.flatnonzero(term_start), len(Hs)).astype(np.int64)
    # collision checks (the string path is the fallback for both):
    # (a) equal full hashes for distinct terms merge into one segment
    #     -> docids repeat -> not strictly increasing;
    # (b) distinct full hashes sharing their top 32 bits (the
    #     _grouping_order sort key) interleave as ALTERNATING segments
    #     -> adjacent segments share their top 32 bits.
    d64 = Ds.astype(np.int64)
    mono_bad = np.flatnonzero((np.diff(d64) <= 0) & ~term_start[1:])
    if len(mono_bad):
        return None  # (a): caller uses the exact string path
    seg_h = Hs[term_start]
    if len(seg_h) > 1 and bool(
        ((seg_h[1:] >> np.uint64(32)) == (seg_h[:-1] >> np.uint64(32))).any()
    ):
        return None  # (b)
    terms = pa.array(
        [term_of_hash[h] for h in Hs[term_start].tolist()], type=pa.large_string()
    )
    return terms, term_offsets, Ds, TFs.astype(np.uint64), out_off, Ps, n_tokens, n_truncated


def build_shard_run(
    cfg: BuildConfig, shard: Shard, section: str, index_dir: str,
    data: "pa.Table | None" = None,
) -> dict:
    """Tokenize + encode one shard of one section into a segment run.

    Returns the manifest payload (also written to disk). Idempotent:
    validates and reuses an existing manifest.

    ``data``: the shard's rows already in memory (exactly
    ``read_shard(shard, ...)``'s rows, extra columns allowed) — the
    fused sort+build path passes the just-sorted range slice so stage A
    never re-reads the corpus it just wrote. Manifest fingerprints are
    identical either way, so resume may freely mix both paths; but
    those rows were just (re)written, so a run left by earlier rows
    under the same file name and row range is rebuilt, not reused.
    """
    run_dir = os.path.join(runs_base(cfg, index_dir), f"sec={section}", "runs", f"shard={shard.shard_id:05d}")
    man_path = os.path.join(run_dir, "manifest.json")
    fp = {
        "file": shard.file,
        "rows": [shard.row_start, shard.num_rows],
        # docid_base participates: a changed input upstream can shift
        # this shard's docid range while its (file, rows) stay
        # identical — reusing the run then serves postings whose
        # docids are offset against the corpus rows
        "base": shard.docid_base,
        "config": cfg.fingerprint(),
    }
    existing = read_manifest(man_path) if data is None else None
    if existing and existing.get("fingerprint") == fp:
        existing["skipped"] = True
        return existing

    t0 = time.time()
    cols = [section] + ([cfg.docid_column] if cfg.docid_column else [])
    if data is None:
        data = read_shard(shard, columns=cols)
    else:
        data = data.select([c for c in cols if c in data.column_names])
    col = data.column(section)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if cfg.tokenizer != "TokenUvector" and not (
        pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
    ):
        col = col.cast(pa.large_string())
    wt = WordTokenizer()
    chain = None
    if cfg.token_filters:
        from .tokenfilters import build_chain

        chain = build_chain(cfg.fingerprint())

    if cfg.docid_column:
        docid_of_row = data.column(cfg.docid_column).to_numpy(zero_copy_only=False).astype(np.uint64)
        # rows must be docid-sorted within the shard for run contiguity
        if len(docid_of_row) > 1 and not np.all(np.diff(docid_of_row.astype(np.int64)) > 0):
            raise ValueError("docid column must be strictly increasing within a shard")
    else:
        docid_of_row = (shard.docid_base + np.arange(data.num_rows, dtype=np.uint64)).astype(np.uint64)

    grouped = None
    n_truncated = 0
    _ct = col.type
    _is_vec = pa.types.is_list(_ct) or pa.types.is_large_list(_ct)
    if cfg.tokenizer == "TokenCodeWord" and not _is_vec:
        res = _tokenize_group_word(cfg, col, docid_of_row, wt, chain)
        if res is not None:
            terms_arr, term_offsets, g_docid, tf, pos_offsets, s_pos, n_tokens, n_truncated = res
            grouped = True
    if grouped is None:
        if cfg.tokenizer == "TokenUvector" or _is_vec:
            # vector columns: elements are the tokens (uvector path,
            # lib/tokenizers.c:26-99 — the reference's no-tokenizer
            # vector index keys whole elements)
            terms, row_idx, positions, n_tokens = _tokenize_uvector(col)
        else:
            terms, row_idx, positions, n_tokens = _tokenize_column(cfg, col, wt, chain)
        if len(terms) == 0:
            grouped = False
        else:
            terms_arr, term_offsets, g_docid, tf, pos_offsets, s_pos = _group_tokens_strings(
                terms, row_idx, positions, docid_of_row
            )
            grouped = True

    if not grouped:
        run_table = codec.POSTING_SCHEMA.empty_table()
        for name, typ in RUN_EXTRA_FIELDS:
            run_table = run_table.append_column(name, pa.array([], type=typ))
    else:
        sorted_terms = terms_arr
        run_table = codec.encode_posting_table(
            sorted_terms,
            term_offsets,
            g_docid,
            tf,
            pos_offsets if cfg.with_positions else None,
            s_pos if cfg.with_positions else None,
            chunk_postings=cfg.chunk_postings,
        )

        # bucket + salt
        local_df = np.diff(term_offsets)
        h = fnv1a(sorted_terms)
        # a globally hot term is locally hot in every shard; the ratio
        # keeps the threshold meaningful however small shards are
        hot_threshold = min(cfg.hot_local_df, max(16, int(cfg.hot_df_ratio * data.num_rows)))
        hot = local_df > hot_threshold
        if cfg.hot_terms:
            hot |= pc.is_in(sorted_terms, value_set=pa.array(cfg.hot_terms)).to_numpy(
                zero_copy_only=False
            )
        bucket = (h % np.uint64(cfg.n_buckets)).astype(np.uint32)
        marker_tbl = None
        if hot.any():
            salt = np.uint64(shard.shard_id // cfg.salt_group)
            hot_terms_arr = sorted_terms.filter(pa.array(hot))
            h_hot = fnv1a(
                pa.array(
                    [f"{t}#{salt}" for t in hot_terms_arr.to_pylist()],
                    type=pa.large_string(),
                )
            )
            bucket[hot] = (h_hot % np.uint64(cfg.n_buckets)).astype(np.uint32)
            # marker rows (empty postings, real df/cf) announce "term t
            # is hot in this shard" to the term's UNSALTED bucket, so
            # (a) the cold merge splits a mixed term's cold rows around
            # its hot shards, keeping every part's docid range disjoint
            # (the salted-parts invariant), and (b) the owning bucket
            # reconstructs the term's full lexicon entry. Dropped at
            # merge; never written to part.parquet.
            marker_tbl = _marker_rows(
                hot_terms_arr,
                (h[hot] % np.uint64(cfg.n_buckets)).astype(np.uint32),
                shard.shard_id,
                run_table.column("df").to_numpy(zero_copy_only=False)[hot],
                run_table.column("cf").to_numpy(zero_copy_only=False)[hot],
            )
        run_table = run_table.append_column("bucket", pa.array(bucket, pa.uint32()))
        run_table = run_table.append_column(
            "shard", pa.array(np.full(run_table.num_rows, shard.shard_id, np.uint32))
        )
        run_table = run_table.append_column("hot", pa.array(hot))
        if marker_tbl is not None:
            run_table = pa.concat_tables([run_table, marker_tbl]).combine_chunks()
        # sort by bucket so the writer can emit one row group per bucket
        order = np.argsort(
            run_table.column("bucket").to_numpy(zero_copy_only=False), kind="stable"
        )
        run_table = run_table.take(pa.array(order))

    _write_run_bucket_rowgroups(run_table, os.path.join(run_dir, "run.parquet"))
    # doc lengths for BM25 (one file per shard+section)
    dl_table = pa.table(
        {
            "docid": pa.array(docid_of_row, pa.uint64()),
            "dl": pa.array(n_tokens.astype(np.uint32), pa.uint32()),
        }
    )
    atomic_write_table(
        dl_table, os.path.join(index_dir, "doclens", f"sec={section}", f"shard={shard.shard_id:05d}.parquet")
    )
    manifest = {
        "fingerprint": fp,
        "shard_id": shard.shard_id,
        "rows": int(data.num_rows),
        "tokens": int(n_tokens.sum()),
        "terms": int(run_table.num_rows),
        "docid_base": int(docid_of_row[0]) if len(docid_of_row) else 0,
        "truncated_rows": int(n_truncated),
        "elapsed_sec": round(time.time() - t0, 3),
        "skipped": False,
    }
    write_manifest(man_path, manifest)
    return manifest


class _ShardIndexer:
    """Stage-A worker: processes a stream of shard work items. Used as
    a plain map_batches callable (task-based, not an actor pool): Ray
    tasks run on the session's persistent worker processes, so imports
    and malloc pools stay warm across builds — measured ~2 s faster per
    build than an actor pool, which forks fresh processes per
    execution. Stage A holds no expensive per-worker state, so tasks
    lose nothing."""

    def __init__(self, cfg: BuildConfig, sections: tuple[str, ...], index_dir: str, shards):
        self.cfg = cfg
        self.sections = sections
        self.index_dir = index_dir
        self.shards = {s.shard_id: s for s in shards}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for sid in batch.column("shard_id").to_pylist():
            shard = self.shards[sid]
            for section in self.sections:
                m = build_shard_run(self.cfg, shard, section, self.index_dir)
                out.append(
                    {
                        "shard_id": sid,
                        "section": section,
                        "rows": m["rows"],
                        "tokens": m["tokens"],
                        "terms": m["terms"],
                        "skipped": bool(m.get("skipped", False)),
                        "elapsed_sec": float(m["elapsed_sec"]),
                    }
                )
        return pa.Table.from_pylist(out)


# ------------------------------------------------------------------ stage B

def _write_run_bucket_rowgroups(table: pa.Table, path: str) -> None:
    """Write a run file with one row group per distinct bucket value
    (rows must already be bucket-sorted). Parquet column statistics
    then let the per-bucket merge read exactly its rows — the
    partitioned write replaces a runtime shuffle."""
    import tempfile

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        with pq.ParquetWriter(tmp, table.schema) as writer:
            if table.num_rows:
                buckets = table.column("bucket").to_numpy(zero_copy_only=False)
                starts = np.flatnonzero(
                    np.concatenate([[True], buckets[1:] != buckets[:-1]])
                )
                bounds = np.append(starts, len(buckets))
                for a, b in zip(bounds[:-1], bounds[1:]):
                    writer.write_table(table.slice(int(a), int(b - a)))
            else:
                writer.write_table(table)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class RunReader:
    """Per-actor cache of run-file handles + a bucket -> row-group map
    built from parquet column statistics (each run has one row group
    per bucket). Metadata is parsed once per actor, not once per
    (bucket, file)."""

    def __init__(self, run_files: list[str]):
        self.files: list[tuple[pq.ParquetFile, dict[int, list[int]]]] = []
        for f in run_files:
            pf = pq.ParquetFile(f)
            meta = pf.metadata
            # parquet LEAF column index of `bucket` (nested list columns
            # occupy their own leaf slots, so arrow field index is wrong)
            bcol = [
                i for i in range(meta.num_columns)
                if meta.schema.column(i).path == "bucket"
            ][0]
            by_bucket: dict[int, list[int]] = {}
            for i in range(meta.num_row_groups):
                st = meta.row_group(i).column(bcol).statistics
                if st is None:
                    continue
                by_bucket.setdefault(int(st.min), []).append(i)
            self.files.append((pf, by_bucket))

    def read_bucket(self, bucket: int) -> pa.Table | None:
        parts = []
        for pf, by_bucket in self.files:
            groups = by_bucket.get(bucket)
            if groups:
                parts.append(pf.read_row_groups(groups))
        if not parts:
            return None
        return pa.concat_tables(parts).combine_chunks()

    def read_buckets(self, buckets: list[int]) -> pa.Table | None:
        """Read several buckets' row groups with ONE read call per run
        file. A build does runs x buckets row-group reads (e.g. 200 x
        64 = 12,800 ~50 KB reads); batching a task's whole bucket slice
        per file turns that into runs x tasks larger sequential reads —
        decisive on kernels where many concurrent small reads contend."""
        want = set(buckets)
        parts = []
        for pf, by_bucket in self.files:
            groups = sorted(g for b, gs in by_bucket.items() if b in want for g in gs)
            if groups:
                parts.append(pf.read_row_groups(groups))
        if not parts:
            return None
        return pa.concat_tables(parts).combine_chunks()


def _merge_bucket_or_empty(
    cfg: BuildConfig, section: str, index_dir: str, bucket: int, group: pa.Table | None
) -> dict:
    """Merge one bucket from an already-read (possibly empty) group of
    run rows into final posting rows; write them + manifest. Idempotent.
    Non-hot terms are bulk-decoded and re-encoded once; hot terms pass
    through as parts (chunk directories untouched)."""
    if group is None:
        group = (
            codec.POSTING_SCHEMA.empty_table()
            .append_column("bucket", pa.array([], pa.uint32()))
            .append_column("shard", pa.array([], pa.uint32()))
            .append_column("hot", pa.array([], pa.bool_()))
        )
    return _merge_bucket_table(group, cfg, section, index_dir, bucket)


def _merge_bucket_table(
    group: pa.Table, cfg: BuildConfig, section: str, index_dir: str, bucket: int
) -> dict:
    out_dir = os.path.join(index_dir, f"sec={section}", "postings", f"bucket={bucket:04d}")
    man_path = os.path.join(out_dir, "manifest.json")

    hot_mask = np.asarray(group.column("hot").to_numpy(zero_copy_only=False), bool)
    df_all = group.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    shard_all = group.column("shard").to_numpy(zero_copy_only=False).astype(np.int64)
    terms_all = group.column("term")
    if isinstance(terms_all, pa.ChunkedArray):
        terms_all = terms_all.combine_chunks()

    # hot-shard markers (empty-chunk announcements from stage A): shards
    # where a term went hot; its cold rows here must split around them
    # so every part of the term covers a docid range disjoint from the
    # hot parts, and the lexicon entry (this bucket owns every marked
    # term) needs their df/cf + reconstructed salted routing
    cn_col = group.column("cn")
    if isinstance(cn_col, pa.ChunkedArray):
        cn_col = cn_col.combine_chunks()
    cn_len = pc.list_value_length(cn_col).to_numpy(zero_copy_only=False)
    marker_mask = hot_mask & (cn_len == 0)
    cf_all = group.column("cf").to_numpy(zero_copy_only=False).astype(np.int64)
    markers: dict[str, np.ndarray] = {}
    marker_stats: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    if marker_mask.any():
        by_term: dict[str, list] = {}
        for i in np.flatnonzero(marker_mask):
            by_term.setdefault(terms_all[int(i)].as_py(), []).append(
                (int(shard_all[i]), int(df_all[i]), int(cf_all[i]))
            )
        for t, triples in by_term.items():
            triples.sort()
            sh, dfv, cfv = (np.asarray(x, np.int64) for x in zip(*triples))
            markers[t] = sh
            marker_stats[t] = (sh, dfv, cfv)

    # ---- cold group plan (no decode yet): ordered rows + group splits
    n_cold_groups = 0
    cold = None
    cold_idx = np.flatnonzero(~hot_mask)
    if len(cold_idx):
        cold = group.take(pa.array(cold_idx))
        terms = cold.column("term")
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        rank, sorted_terms = _rank_terms(terms)
        # vectorized list-first: flatten + offsets (cold rows always
        # carry ≥1 chunk, so offsets[:-1] indexes each row's head)
        _cf = cold.column("cfirst")
        if isinstance(_cf, pa.ChunkedArray):
            _cf = _cf.combine_chunks()
        _off = _cf.offsets.to_numpy(zero_copy_only=False)[:-1]
        cfirst0 = _cf.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)[_off]
        order = np.lexsort((cfirst0, rank))
        # group boundaries over ordered rows: term changes, plus — for
        # terms hot in some other shard — any gap containing a hot shard
        o_rank = rank[order]
        o_shard = shard_all[cold_idx][order]
        row_term_start = np.empty(len(order), bool)
        row_term_start[0] = True
        row_term_start[1:] = o_rank[1:] != o_rank[:-1]
        if markers:
            m_terms = pa.array(sorted(markers), type=sorted_terms.type)
            m_rank = pc.index_in(m_terms, value_set=sorted_terms)
            for t, r in zip(m_terms.to_pylist(), m_rank.to_pylist()):
                if r is None:
                    continue
                lo = int(np.searchsorted(o_rank, r, side="left"))
                hi = int(np.searchsorted(o_rank, r, side="right"))
                if hi - lo > 1:
                    sh = o_shard[lo:hi]
                    ms = markers[t]
                    a = np.searchsorted(ms, sh[:-1], side="right")
                    b = np.searchsorted(ms, sh[1:], side="left")
                    row_term_start[lo + 1 : hi][a != b] = True
        term_row_idx = np.flatnonzero(row_term_start)
        n_cold_groups = len(term_row_idx)
        group_terms = terms.take(pa.array(order[term_row_idx]))
        o_df = df_all[cold_idx][order]
        cold_group_df = np.add.reduceat(o_df, term_row_idx)
        cold_group_cf = np.add.reduceat(cf_all[cold_idx][order], term_row_idx)
        part_vals = np.zeros(n_cold_groups, np.uint32)
        if markers:
            # marked terms get shard-anchored part ids (unique + docid-
            # ascending across this term's cold AND hot parts)
            marked = pc.is_in(
                group_terms, value_set=pa.array(sorted(markers), type=group_terms.type)
            ).to_numpy(zero_copy_only=False)
            part_vals[marked] = (o_shard[term_row_idx][marked] + 1).astype(np.uint32)
        cold_lex_tbl = pa.table(
            {
                "term": group_terms,
                "df": pa.array(cold_group_df.astype(np.uint64), pa.uint64()),
                "cf": pa.array(cold_group_cf.astype(np.uint64), pa.uint64()),
                "part": pa.array(part_vals, pa.uint32()),
            }
        )
    else:
        cold_lex_tbl = None

    # ---- hot group plan: one part per salt group, split at shard
    # discontinuities (different salt groups can hash into the same
    # bucket and interleave with the term's parts elsewhere; a gap may
    # hold the term's cold rows) — every part covers a contiguous run
    # of shards, i.e. a contiguous docid range
    n_hot_groups = 0
    hot_tbl = None
    hot_idx = np.flatnonzero(hot_mask & (cn_len > 0))
    if len(hot_idx):
        hot_tbl = group.take(pa.array(hot_idx))
        shard_col = shard_all[hot_idx]
        terms_col = hot_tbl.column("term")
        if isinstance(terms_col, pa.ChunkedArray):
            terms_col = terms_col.combine_chunks()
        h_rank, _ = _rank_terms(terms_col)
        h_order = np.lexsort((shard_col, h_rank))
        ho_rank = h_rank[h_order]
        ho_shard = shard_col[h_order]
        ho_salt = ho_shard // cfg.salt_group
        h_group_start = np.empty(len(h_order), bool)
        h_group_start[0] = True
        h_group_start[1:] = (
            (ho_rank[1:] != ho_rank[:-1])
            | (ho_salt[1:] != ho_salt[:-1])
            | (ho_shard[1:] != ho_shard[:-1] + 1)
        )
        h_starts = np.flatnonzero(h_group_start)
        n_hot_groups = len(h_starts)
        hot_group_terms = terms_col.take(pa.array(h_order[h_starts]))
        hot_parts = (ho_shard[h_starts] + 1).astype(np.uint32)
        hot_group_df = np.add.reduceat(df_all[hot_idx][h_order], h_starts)

    # ---- interleave the two term-sorted group lists and STREAM the
    # output in bounded slices: a bucket merge must never materialize
    # the whole bucket's decoded postings (at 10^12 docs a bucket is
    # arbitrarily large; peak memory here is O(MERGE_SLICE_POSTINGS)
    # per task regardless)
    if n_cold_groups + n_hot_groups:
        desc_term = pa.concat_arrays(
            ([group_terms.cast(pa.large_string())] if n_cold_groups else [])
            + ([hot_group_terms.cast(pa.large_string())] if n_hot_groups else [])
        )
        desc_part = np.concatenate(
            ([part_vals.astype(np.int64)] if n_cold_groups else [])
            + ([hot_parts.astype(np.int64)] if n_hot_groups else [])
        )
        desc_kind = np.concatenate(
            [np.zeros(n_cold_groups, np.int8), np.ones(n_hot_groups, np.int8)]
        )
        desc_df = np.concatenate(
            ([cold_group_df] if n_cold_groups else [])
            + ([hot_group_df] if n_hot_groups else [])
        )
        d_order = pc.sort_indices(
            pa.table({"term": desc_term, "part": pa.array(desc_part)}),
            sort_keys=[("term", "ascending"), ("part", "ascending")],
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        s_kind = desc_kind[d_order]
        s_df = desc_df[d_order]
        # slice boundaries on cumulative postings
        cum = np.cumsum(s_df)
        G = len(d_order)
        cuts = [0]
        while cuts[-1] < G:
            nxt = int(np.searchsorted(cum, (cum[cuts[-1] - 1] if cuts[-1] else 0) + cfg.merge_slice_postings, side="left")) + 1
            cuts.append(min(max(nxt, cuts[-1] + 1), G))
        # within the merged order each kind's groups stay in their own
        # sorted order ((term, part) keys are unique), so every slice
        # covers a CONTIGUOUS range of cold groups and of hot groups
        kind_ord = np.cumsum(s_kind == 0) - (s_kind == 0)   # cold ordinal at each slot
        kind_ord_h = np.cumsum(s_kind == 1) - (s_kind == 1)
        n_rows_total = 0
    else:
        cuts = [0, 0]
        n_rows_total = 0

    schema = codec.POSTING_SCHEMA.append(pa.field("part", pa.uint32()))
    os.makedirs(out_dir, exist_ok=True)
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    os.close(fd)
    try:
        writer = pq.ParquetWriter(tmp, schema)
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            if s1 <= s0:
                continue
            sl_kind = s_kind[s0:s1]
            c_lo = int(kind_ord[s0:s1][sl_kind == 0].min()) if (sl_kind == 0).any() else 0
            c_hi = c_lo + int((sl_kind == 0).sum())
            h_lo = int(kind_ord_h[s0:s1][sl_kind == 1].min()) if (sl_kind == 1).any() else 0
            h_hi = h_lo + int((sl_kind == 1).sum())
            sub_tables = []
            if c_hi > c_lo:
                a = term_row_idx[c_lo]
                b = term_row_idx[c_hi] if c_hi < n_cold_groups else len(order)
                rows_sel = order[a:b]
                docids, tfs, positions, row_offsets = codec.bulk_decode_rows(
                    cold, rows_sel, with_positions=cfg.with_positions
                )
                starts_rel = term_row_idx[c_lo:c_hi] - a
                term_offsets = np.append(
                    row_offsets[starts_rel], row_offsets[-1]
                ).astype(np.int64)
                pos_offsets = None
                if positions is not None:
                    pos_offsets = np.zeros(len(docids) + 1, np.int64)
                    np.cumsum(tfs.astype(np.int64), out=pos_offsets[1:])
                enc = codec.encode_posting_table(
                    group_terms.slice(c_lo, c_hi - c_lo),
                    term_offsets,
                    docids,
                    tfs,
                    pos_offsets,
                    positions,
                    chunk_postings=cfg.chunk_postings,
                )
                enc = enc.append_column(
                    "part", pa.array(part_vals[c_lo:c_hi], pa.uint32())
                )
                sub_tables.append(enc)
            n_cold_slice = c_hi - c_lo
            if h_hi > h_lo:
                a2 = h_starts[h_lo]
                b2 = h_starts[h_hi] if h_hi < n_hot_groups else len(h_order)
                hcat = codec.concat_posting_table_groups(
                    hot_tbl, h_order[a2:b2], h_group_start[a2:b2]
                )
                hcat = hcat.append_column(
                    "part", pa.array(hot_parts[h_lo:h_hi], pa.uint32())
                )
                sub_tables.append(hcat)
            both = (
                pa.concat_tables(sub_tables).combine_chunks()
                if len(sub_tables) > 1
                else sub_tables[0]
            )
            # interleave cold/hot rows back into (term, part) order
            perm = np.where(
                sl_kind == 0,
                kind_ord[s0:s1] - c_lo,
                n_cold_slice + (kind_ord_h[s0:s1] - h_lo),
            )
            both = both.take(pa.array(perm))
            writer.write_table(both, row_group_size=POSTING_ROW_GROUP)
            n_rows_total += both.num_rows
        writer.close()
        os.replace(tmp, os.path.join(out_dir, "part.parquet"))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

    lex = _write_bucket_lexicon(
        cfg, section, index_dir, bucket, cold_lex_tbl, marker_stats
    )
    manifest = {
        "bucket": bucket,
        "terms": n_rows_total,
        "lexicon_terms": lex.num_rows,
        "input_rows": group.num_rows,
        "config": cfg.fingerprint(),
    }
    write_manifest(man_path, manifest)
    return manifest


LEXICON_ROW_GROUP = 4096


def _write_bucket_lexicon(
    cfg: BuildConfig,
    section: str,
    index_dir: str,
    bucket: int,
    cold_lex_tbl: pa.Table | None,
    marker_stats: dict,
) -> pa.Table:
    """The lexicon shard OWNED by this bucket: one row per term whose
    UNSALTED hash lands here, carrying total df/cf and the routing of
    every posting part — cold parts live in this bucket; hot (salted)
    parts are reconstructed from the stage-A markers (same shard-run
    split rule as the salted merge, so the routing matches what those
    buckets actually wrote). Hash-partitioned replacement for the
    reference's single shared lexicon (grn_pat, lib/pat.c): no global
    sort, no driver aggregation, build AND query touch one shard per
    term lookup.
    """
    # marker-derived (hot) entries: FEW terms by construction, so the
    # per-term loop is off the hot path; cold entries stay columnar
    m_terms: list[str] = []
    m_dfs: list[int] = []
    m_cfs: list[int] = []
    m_buckets: list[int] = []
    m_parts: list[int] = []
    for t, (sh, dfv, cfv) in marker_stats.items():
        salt = sh // cfg.salt_group
        cut = np.flatnonzero((np.diff(sh) != 1) | (np.diff(salt) != 0)) + 1
        starts_ = np.concatenate([[0], cut]).astype(np.int64)
        ends_ = np.concatenate([cut, [len(sh)]]).astype(np.int64)
        for s, e in zip(starts_, ends_):
            b = int(
                fnv1a(pa.array([f"{t}#{int(salt[s])}"], pa.large_string()))[0]
                % np.uint64(cfg.n_buckets)
            )
            m_terms.append(t)
            m_dfs.append(int(dfv[s:e].sum()))
            m_cfs.append(int(cfv[s:e].sum()))
            m_buckets.append(b)
            m_parts.append(int(sh[s]) + 1)

    chunks_term: list[pa.Array] = []
    chunks_df: list[np.ndarray] = []
    chunks_cf: list[np.ndarray] = []
    chunks_bucket: list[np.ndarray] = []
    chunks_part: list[np.ndarray] = []
    if cold_lex_tbl is not None and cold_lex_tbl.num_rows:
        tcol = cold_lex_tbl.column("term")
        chunks_term.append(
            tcol.combine_chunks() if isinstance(tcol, pa.ChunkedArray) else tcol
        )
        chunks_df.append(cold_lex_tbl.column("df").to_numpy(zero_copy_only=False))
        chunks_cf.append(cold_lex_tbl.column("cf").to_numpy(zero_copy_only=False))
        chunks_bucket.append(np.full(cold_lex_tbl.num_rows, bucket, np.int64))
        chunks_part.append(
            cold_lex_tbl.column("part").to_numpy(zero_copy_only=False).astype(np.int64)
        )
    if m_terms:
        chunks_term.append(pa.array(m_terms, pa.large_string()))
        chunks_df.append(np.asarray(m_dfs, np.uint64))
        chunks_cf.append(np.asarray(m_cfs, np.uint64))
        chunks_bucket.append(np.asarray(m_buckets, np.int64))
        chunks_part.append(np.asarray(m_parts, np.int64))

    path = os.path.join(index_dir, f"sec={section}", "lexicon", f"bucket={bucket:04d}.parquet")
    if not chunks_term:
        lex = pa.table(
            {
                "term": pa.array([], pa.large_string()),
                "df": pa.array([], pa.uint64()),
                "cf": pa.array([], pa.uint64()),
                "n_parts": pa.array([], pa.uint32()),
                "buckets": pa.array([], pa.list_(pa.uint32())),
                "parts": pa.array([], pa.list_(pa.uint32())),
            }
        )
        atomic_write_table(lex, path, row_group_size=LEXICON_ROW_GROUP)
        return lex

    term_arr = (
        chunks_term[0]
        if len(chunks_term) == 1
        else pa.concat_arrays([a.cast(pa.large_string()) for a in chunks_term])
    )
    part_np = np.concatenate(chunks_part)
    rank, sorted_terms = _rank_terms(term_arr)
    order = np.lexsort((part_np, rank))
    o_rank = rank[order]
    starts = np.flatnonzero(
        np.concatenate([[True], o_rank[1:] != o_rank[:-1]])
    )
    n_parts = np.diff(np.append(starts, len(order)))
    df_np = np.concatenate(chunks_df).astype(np.uint64)[order]
    cf_np = np.concatenate(chunks_cf).astype(np.uint64)[order]
    lex_offsets = np.zeros(len(starts) + 1, np.int32)
    np.cumsum(n_parts, out=lex_offsets[1:])
    lex = pa.table(
        {
            "term": sorted_terms,
            "df": pa.array(np.add.reduceat(df_np, starts), pa.uint64()),
            "cf": pa.array(np.add.reduceat(cf_np, starts), pa.uint64()),
            "n_parts": pa.array(n_parts.astype(np.uint32), pa.uint32()),
            "buckets": pa.ListArray.from_arrays(
                pa.array(lex_offsets, pa.int32()),
                pa.array(
                    np.concatenate(chunks_bucket)[order].astype(np.uint32), pa.uint32()
                ),
            ),
            "parts": pa.ListArray.from_arrays(
                pa.array(lex_offsets, pa.int32()),
                pa.array(part_np[order].astype(np.uint32), pa.uint32()),
            ),
        }
    )
    atomic_write_table(lex, path, row_group_size=LEXICON_ROW_GROUP)
    return lex


# ------------------------------------------------------------------ driver

# ~8M tokens of text per shard (≈6 bytes/token): the measured build
# throughput optimum — large enough to amortize per-shard overhead and
# minimize stage-B row-group reads, small enough that a shard's pair
# buffers fit one worker's heap (SCALING.md round-3 shard-size law)
TARGET_SHARD_TEXT_BYTES = 48 << 20


TARGET_BUCKET_POSTINGS = 16_000_000


def auto_n_buckets(
    input_files: list[str], text_columns: tuple[str, ...]
) -> int:
    """Derive the bucket count so each bucket merges
    ~TARGET_BUCKET_POSTINGS postings (~1 posting per ~6 text bytes
    with the word tokenizer). Power of two in [16, 4096], estimated
    from one row group's logical text bytes scaled by the metadata row
    count — deterministic given the inputs."""
    files = sorted(input_files)
    f = pq.ParquetFile(files[0])
    cols = [c for c in text_columns if c in f.schema_arrow.names]
    if f.metadata.num_row_groups == 0 or not cols:
        return 64
    rg = f.read_row_group(0, columns=cols)
    if rg.num_rows == 0:
        return 64
    per_row = sum(rg.column(c).nbytes for c in cols) / rg.num_rows
    total_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in files)
    est_postings = total_rows * per_row / 6.0
    import math

    want = max(16, min(4096, est_postings / TARGET_BUCKET_POSTINGS))
    return 1 << int(round(math.log2(want)))


def auto_rows_per_shard(
    input_files: list[str], text_columns: tuple[str, ...]
) -> int:
    """Derive rows/shard so a shard carries ~TARGET_SHARD_TEXT_BYTES
    of indexed text. Measures logical string bytes from ONE row group
    of the first file (parquet's total_uncompressed_size is
    post-encoding — dictionary/RLE collapse repetitive text — so the
    footer alone under-counts). Deterministic given the inputs."""
    f = pq.ParquetFile(sorted(input_files)[0])
    cols = [c for c in text_columns if c in f.schema_arrow.names]
    if f.metadata.num_row_groups == 0 or not cols:
        return 8192
    rg = f.read_row_group(0, columns=cols)
    rows = rg.num_rows
    text_bytes = sum(rg.column(c).nbytes for c in cols)
    if rows == 0 or text_bytes == 0:
        return 8192
    per_row = text_bytes / rows
    return int(min(65536, max(1024, TARGET_SHARD_TEXT_BYTES / per_row)))


def build_index(
    input_files: list[str],
    index_dir: str,
    cfg: BuildConfig | None = None,
    concurrency: int | None = None,
) -> dict:
    """Run the full build. Resumable: re-running after a crash skips
    shards and re-merges only buckets (bucket merge is idempotent)."""
    cfg = cfg or BuildConfig()
    if cfg.target_rows_per_shard is None or cfg.n_buckets is None:
        from dataclasses import replace

        cfg = replace(
            cfg,
            target_rows_per_shard=(
                cfg.target_rows_per_shard
                if cfg.target_rows_per_shard is not None
                else auto_rows_per_shard(input_files, cfg.text_columns)
            ),
            n_buckets=(
                cfg.n_buckets
                if cfg.n_buckets is not None
                else auto_n_buckets(input_files, cfg.text_columns)
            ),
        )
    t0 = time.time()
    os.makedirs(index_dir, exist_ok=True)
    shards = sorted_file_shards(input_files, cfg.target_rows_per_shard, cfg.docid_offset)
    if concurrency is None:
        concurrency = max(2, min(len(shards), int(ray.cluster_resources().get("CPU", 4)) - 1))

    sections = tuple(cfg.text_columns)

    # ---- stage A: shard -> segment runs (tasks on warm workers, no
    # shuffle; concurrency is bounded by the session CPU allotment)
    work = ray.data.from_items([{"shard_id": s.shard_id} for s in shards])
    manifests = work.map_batches(
        _ShardIndexer(cfg, sections, index_dir, shards),
        batch_size=1,
        batch_format="pyarrow",
        concurrency=min(concurrency, len(shards)),
        num_cpus=1,
    ).take_all()
    stage_a_sec = time.time() - t0

    # prune run dirs beyond the current shard count: a previous build of
    # this index_dir against a larger input leaves stale shard runs that
    # the merge glob would otherwise fold in (their fingerprints never
    # re-validate because their shard ids aren't in this plan)
    import shutil as _shutil

    for section in sections:
        for d in glob.glob(os.path.join(runs_base(cfg, index_dir), f"sec={section}", "runs", "shard=*")):
            if int(os.path.basename(d).split("=")[1]) >= len(shards):
                _shutil.rmtree(d, ignore_errors=True)
        for f in glob.glob(
            os.path.join(index_dir, "doclens", f"sec={section}", "shard=*.parquet")
        ):
            if int(os.path.basename(f).split("=")[1].split(".")[0]) >= len(shards):
                os.unlink(f)

    # ---- stage B: per-bucket merge over bucket-row-grouped runs (the
    # partitioned stage-A write already did the exchange; each bucket
    # task reads only its row groups via parquet statistics pruning)
    t1 = time.time()
    for section in sections:
        run_files = sorted(
            glob.glob(os.path.join(runs_base(cfg, index_dir), f"sec={section}", "runs", "shard=*", "run.parquet"))
        )
        run_fp = file_fingerprint(run_files)
        todo = []
        for b in range(cfg.n_buckets):
            man = read_manifest(
                os.path.join(index_dir, f"sec={section}", "postings", f"bucket={b:04d}", "manifest.json")
            )
            if not (man and man.get("runs_fingerprint") == run_fp):
                todo.append(b)
        if todo:
            # task-based: one task merges a slice of buckets with ONE
            # RunReader (metadata parsed once per task, warm workers)
            def merge_some(batch: pa.Table, section=section) -> pa.Table:
                t_start = time.time()
                runs = RunReader(run_files)
                out = []
                want = batch.column("bucket").to_pylist()
                slice_tbl = runs.read_buckets(want)
                bcol = (
                    slice_tbl.column("bucket").to_numpy(zero_copy_only=False)
                    if slice_tbl is not None else None
                )
                for b in want:
                    t_b = time.time()
                    group = (
                        slice_tbl.filter(pa.array(bcol == b))
                        if slice_tbl is not None else None
                    )
                    m = _merge_bucket_or_empty(cfg, section, index_dir, b, group)
                    m["elapsed_sec"] = round(time.time() - t_b, 3)
                    m["task_started_after_sec"] = round(t_b - t_start, 3)
                    m["runs_fingerprint"] = run_fp
                    write_manifest(
                        os.path.join(
                            index_dir, f"sec={section}", "postings",
                            f"bucket={b:04d}", "manifest.json",
                        ),
                        m,
                    )
                    out.append({"bucket": b, "terms": m["terms"]})
                return pa.Table.from_pylist(out)

            # fixed small slices (not one fixed partition per worker):
            # each task amortizes its RunReader + batched row-group read
            # over a few buckets, and the surplus tasks load-balance
            # bucket-size skew dynamically. A FIXED slice size also
            # keeps per-bucket overhead identical at every pool width —
            # a one-wave split would make narrow pools amortize more
            # per task than wide ones and skew scaling comparisons.
            slice_buckets = min(4, len(todo))
            n_tasks = min(
                concurrency, cfg.stage_b_concurrency,
                -(-len(todo) // max(1, slice_buckets)),
            )
            ray.data.from_items([{"bucket": b} for b in todo]).map_batches(
                merge_some,
                batch_size=slice_buckets,
                batch_format="pyarrow",
                concurrency=n_tasks,
                num_cpus=1,
            ).take_all()
    stage_b_sec = time.time() - t1

    # ---- stage C: stats only. The lexicon is hash-partitioned and was
    # written per bucket inside stage B (_write_bucket_lexicon) — no
    # driver-side vocabulary aggregation (the previous global concat
    # was the driver-OOM point at web-scale vocab); doc counts/token
    # totals come from the O(n_shards) stage-A manifests, term counts
    # from O(n_buckets) parquet footers.
    t2 = time.time()
    stats: dict = {"sections": {}, "n_docs": 0}
    for section in sections:
        sec_manifests = [m for m in manifests if m["section"] == section]
        n_docs = sum(int(m["rows"]) for m in sec_manifests)
        total_dl = sum(int(m["tokens"]) for m in sec_manifests)
        n_terms = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(
                os.path.join(index_dir, f"sec={section}", "lexicon", "bucket=*.parquet")
            )
        )
        stats["sections"][section] = {
            "n_terms": n_terms,
            "n_docs": n_docs,
            "total_tokens": total_dl,
            "avgdl": (total_dl / n_docs) if n_docs else 0.0,
        }
        stats["n_docs"] = max(stats["n_docs"], n_docs)
    stage_c_sec = time.time() - t2

    total_rows = sum(m["rows"] for m in manifests if m["section"] == sections[0])
    # vector (list) sections index whole elements as terms — query
    # text must look up as ONE term, not tokenizer output (the
    # reference's no-tokenizer vector lexicon, lib/tokenizers.c:26-99)
    uvector_sections = []
    try:
        schema = pq.read_schema(input_files[0])
        for s in sections:
            if s in schema.names and (
                pa.types.is_list(schema.field(s).type)
                or pa.types.is_large_list(schema.field(s).type)
            ):
                uvector_sections.append(s)
    except OSError:
        pass
    meta = {
        "config": cfg.fingerprint(),
        "sections": list(sections),
        "uvector_sections": uvector_sections,
        "input_fingerprint": file_fingerprint(input_files),
        "n_shards": len(shards),
        "n_docs": total_rows,
        "stats": stats,
        "timings": {
            "stage_a_sec": round(stage_a_sec, 3),
            "stage_b_sec": round(stage_b_sec, 3),
            "stage_c_sec": round(stage_c_sec, 3),
            "total_sec": round(time.time() - t0, 3),
        },
        "docs_per_sec": round(total_rows / max(1e-9, time.time() - t0), 1),
    }
    with open(os.path.join(index_dir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=1)
    write_manifest(os.path.join(index_dir, "meta.json"), meta)
    return meta


# --------------------------------------------------- fused sort+build

def sort_build_index(
    input_files: list[str],
    key_columns: list[str],
    sorted_dir: str,
    index_dir: str,
    cfg: BuildConfig | None = None,
    concurrency: int | None = None,
    row_group_rows: int = 8192,
) -> dict:
    """Cold path for UNSORTED input: distributed range sort fused with
    stage-A tokenization. One task per key range sorts its rows, writes
    the corpus file the engine will serve from, and immediately
    tokenizes the in-memory table into that range's shard runs — the
    unfused path (``sort_input_files`` then ``build_index``) pays a
    full corpus write + re-read between those two steps (measured 270 s
    sort vs 156 s build at 4M docs; the re-read was pure overhead).

    Everything reuses the existing machinery, so artifacts are
    IDENTICAL to the unfused path: per-range row counts come from run
    metadata (``_scatter_to_runs``), the shard plan mirrors
    ``sorted_file_shards`` over the future files byte-for-byte, and
    ``build_shard_run`` writes the same manifests. The trailing
    ``build_index`` call re-validates those manifests (cheap skips) and
    runs stage B — so kill/resume works at ANY point: mid-scatter
    (scatter.done.json marker), mid-fused-finalize (atomic range files;
    missing shard runs are rebuilt from the written file), or
    mid-merge (bucket manifests), with no artifact divergence.

    Scale envelope: the 4096-range cap bounds one job at ~4 TB of
    in-memory rows (1 GiB ranges), and peak DISK is ~3x the corpus
    (source + scatter runs + sorted output coexist until the runs are
    deleted after the last finalize — an 8M-doc probe on this sandbox's
    60 GB free confirmed the 3x sum is the binding constraint, not
    memory). For a 100-TB ingest, don't raise the cap — compose: split
    the corpus into ~TB segments, fused-build each as its own delta
    (``add_documents``-style disjoint docid ranges), and serve through
    the LSM read-merge; segments build in parallel across the cluster,
    each keeps this function's memory/disk/resume story intact, and
    source segments can be dropped as soon as their sorted output
    lands.
    """
    import shutil

    from .docids import _range_task_memory, _read_sorted_range, _scatter_to_runs

    cfg = cfg or BuildConfig()
    if cfg.docid_column:
        raise ValueError(
            "sort_build_index assigns docids positionally from the sort; "
            "docid_column inputs are already ranked — use build_index"
        )
    if cfg.target_rows_per_shard is None or cfg.n_buckets is None:
        from dataclasses import replace

        cfg = replace(
            cfg,
            target_rows_per_shard=(
                cfg.target_rows_per_shard
                if cfg.target_rows_per_shard is not None
                else auto_rows_per_shard(input_files, cfg.text_columns)
            ),
            n_buckets=(
                cfg.n_buckets
                if cfg.n_buckets is not None
                else auto_n_buckets(input_files, cfg.text_columns)
            ),
        )
    t0 = time.time()
    os.makedirs(sorted_dir, exist_ok=True)
    os.makedirs(index_dir, exist_ok=True)
    done_marker = os.path.join(sorted_dir, "sort.done.json")
    input_fp = [
        (os.path.basename(f), pq.ParquetFile(f).metadata.num_rows)
        for f in sorted(input_files)
    ]

    def _marker_valid() -> list[str] | None:
        if not os.path.exists(done_marker):
            return None
        try:
            with open(done_marker) as fh:
                m = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if m.get("input") != [list(x) for x in input_fp] and m.get("input") != input_fp:
            return None
        paths = []
        for name, rows in m.get("outputs", []):
            p = os.path.join(sorted_dir, name)
            if not os.path.exists(p) or pq.ParquetFile(p).metadata.num_rows != rows:
                return None
            paths.append(p)
        return sorted(paths)

    sorted_files = _marker_valid()
    if sorted_files is None:
        runs_dir = os.path.join(sorted_dir, "_sort_runs")
        # range count sets the FUSED task pool's parallelism (one task
        # sorts + tokenizes one range), so unlike the plain sort —
        # where ranges only bound finalize memory — aim for ≥4 waves
        # across the cluster's cores, while keeping the per-task
        # working set (~3x range bytes) well under worker memory
        f0 = pq.ParquetFile(sorted(input_files)[0])
        if f0.metadata.num_row_groups:
            rg0 = f0.read_row_group(0)
            per_row_est = max(16, rg0.nbytes / max(1, rg0.num_rows))
        else:
            per_row_est = 256
        total_rows = sum(n for _, n in input_fp)
        try:
            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            ncpu = 8
        mem_bytes = total_rows * per_row_est
        n_ranges = int(min(
            4096,
            max(1, -(-mem_bytes // (1 << 30)), 4 * ncpu, -(-total_rows // 2_000_000)),
        ))
        # don't shatter a small corpus into sub-shard ranges
        n_ranges = max(1, min(n_ranges, total_rows // max(1, cfg.target_rows_per_shard) or 1))
        sc = _scatter_to_runs(input_files, key_columns, runs_dir, n_ranges=n_ranges)
        if not sc["resumed"]:
            # a fresh scatter may draw other boundaries over other
            # input: a leftover range file whose row count happens to
            # match the new plan would be kept by _finalize_fused
            for f in os.listdir(sorted_dir):
                if f.startswith("sorted-") and f.endswith(".parquet"):
                    os.unlink(os.path.join(sorted_dir, f))
        counts = sc["range_counts"]

        # shard plan over the FUTURE sorted files — must mirror
        # sorted_file_shards exactly (same per-file slicing loop) so a
        # resumed unfused build_index over the written files produces
        # identical shards and every manifest revalidates
        target = cfg.target_rows_per_shard
        plans: list[tuple[int, str, list[Shard]]] = []
        base, sid = cfg.docid_offset, 0
        for i, n in enumerate(counts.tolist()):
            if n == 0:
                continue
            path = os.path.join(sorted_dir, f"sorted-{i:05d}.parquet")
            n_shards = max(1, -(-n // target))
            per = -(-n // n_shards)
            shards, start = [], 0
            while start < n:
                cnt = min(per, n - start)
                shards.append(Shard(sid, path, start, cnt, base))
                base += cnt
                sid += 1
                start += cnt
            plans.append((i, path, shards))

        run_files = sc["run_files"]
        sections = tuple(cfg.text_columns)

        @ray.remote
        def _finalize_fused(range_id: int, path: str, shards: list) -> int:
            tbl = None
            if not (
                os.path.exists(path)
                and pq.ParquetFile(path).metadata.num_rows
                == sum(s.num_rows for s in shards)
            ):
                tbl = _read_sorted_range(run_files, range_id, key_columns)
                if tbl is None:  # counts said non-empty; defensive
                    return 0
                import tempfile

                fd, tmp = tempfile.mkstemp(dir=sorted_dir, suffix=".tmp")
                os.close(fd)
                try:
                    pq.write_table(tbl, tmp, row_group_size=row_group_rows)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            off = 0
            for s in shards:
                sl = tbl.slice(off, s.num_rows) if tbl is not None else None
                for section in sections:
                    build_shard_run(cfg, s, section, index_dir, data=sl)
                off += s.num_rows
            return sum(s.num_rows for s in shards)

        fin = _finalize_fused.options(
            memory=_range_task_memory(sc["per_row"], sc["target_rows_per_range"])
        )
        ray.get([fin.remote(i, p, sh) for i, p, sh in plans])
        tmp = done_marker + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(
                {
                    "input": input_fp,
                    "outputs": [
                        (os.path.basename(p), sum(s.num_rows for s in sh))
                        for _, p, sh in plans
                    ],
                },
                fh,
            )
        os.replace(tmp, done_marker)
        shutil.rmtree(runs_dir, ignore_errors=True)
        sorted_files = sorted(p for _, p, _ in plans)
    fused_sec = time.time() - t0

    meta = build_index(sorted_files, index_dir, cfg, concurrency)
    meta["timings"]["fused_sort_tokenize_sec"] = round(fused_sec, 3)
    meta["timings"]["cold_total_sec"] = round(time.time() - t0, 3)
    meta["sorted_files"] = [os.path.basename(f) for f in sorted_files]
    write_manifest(os.path.join(index_dir, "meta.json"), meta)
    return meta


# ------------------------------------------------------- incremental

def add_documents(index_dir: str, new_files: list[str], cfg: BuildConfig | None = None) -> dict:
    """Incremental update as an LSM delta segment.

    The reference inserts postings into live buffers
    (grn_ii_column_update, lib/ii.c:5120-5338) and splits/flushes when
    full; in an immutable-artifact design the increment becomes a NEW
    mini-index under ``delta=NNN/`` built by the same resumable
    two-stage pipeline and merged at READ time (docid ranges are
    disjoint and ascending, so per-term postings concatenate — see
    MultiSectionIndex). Compaction (``compact_index``) folds deltas and
    tombstones back into a clean base when read amplification grows.

    New docids: for rank-based tables, ranks continue after the base
    (docid_offset); for docid-column tables the new files' docids must
    all exceed the base's (asserted from metadata).

    Visibility: the manifest rewrite changes the index stamp, so
    ``open_index`` opens a new reader that sees the delta; a
    QueryEngine built before the update keeps its old reader + result
    cache until ``run_query_batch`` keys a new one on the new stamp
    (same contract as the reference's grn_cache until invalidation).
    """
    meta_path = os.path.join(index_dir, "meta.json")
    meta = read_manifest(meta_path)
    base_cfg = BuildConfig.from_fingerprint(meta["config"])
    cfg = cfg or base_cfg
    if cfg.target_rows_per_shard is None:
        # the base's resolved shard size (auto-derivation happens once,
        # at base build time)
        from dataclasses import replace

        cfg = replace(cfg, target_rows_per_shard=base_cfg.target_rows_per_shard)
    if cfg.fingerprint() != base_cfg.fingerprint():
        # tokenization/layout must match the base or terms won't align
        raise ValueError("delta config must equal the base build config")
    deltas = list(meta.get("deltas", []))
    if "next_docid" in meta:
        next_docid = int(meta["next_docid"])
    else:
        # actual max existing docid + 1, from doclen file statistics
        # (metadata only — docid columns need not be dense)
        hi = 0
        for f in glob.glob(os.path.join(index_dir, "doclens", "sec=*", "*.parquet")):
            m = pq.ParquetFile(f).metadata
            col = [i for i in range(m.num_columns) if m.schema.column(i).path == "docid"][0]
            hi = max(hi, max(m.row_group(i).column(col).statistics.max for i in range(m.num_row_groups)))
        next_docid = hi + 1
    delta_name = f"delta={len(deltas):03d}"
    delta_dir = os.path.join(index_dir, delta_name)

    import dataclasses

    delta_cfg = dataclasses.replace(cfg)
    delta_hi = None
    if cfg.docid_column is None:
        delta_cfg.docid_offset = next_docid
    else:
        # VALIDATE BEFORE BUILDING (a rejected input must not leave an
        # orphaned delta dir whose stale shard runs a retry would glob):
        # min/max over EVERY row group's statistics — files need not be
        # docid-sorted across row groups
        lo = None
        delta_hi = 0
        for f in new_files:
            m = pq.ParquetFile(f).metadata
            col = [
                i for i in range(m.num_columns)
                if m.schema.column(i).path == cfg.docid_column
            ][0]
            for rg in range(m.num_row_groups):
                st = m.row_group(rg).column(col).statistics
                lo = int(st.min) if lo is None else min(lo, int(st.min))
                delta_hi = max(delta_hi, int(st.max))
        if lo is None or lo < next_docid:
            raise ValueError(f"delta docids must start at >= {next_docid}, got {lo}")
    delta_meta = build_index(new_files, delta_dir, delta_cfg)

    meta["deltas"] = deltas + [delta_name]
    # next free docid: past the delta's actual MAX (sparse docid columns
    # may reach far above base+count), or base+rows for rank tables
    meta["next_docid"] = (
        delta_hi + 1 if delta_hi is not None else next_docid + int(delta_meta["n_docs"])
    )
    write_manifest(meta_path, meta)
    return delta_meta


def delete_documents(index_dir: str, docids) -> int:
    """Logical delete via tombstones (grn_ii delete, lib/ii.c:3880-3994,
    realized as read-time filtering): matches drop deleted docs
    immediately; postings/stats stay until compaction."""
    from .utils import atomic_write_table

    path = os.path.join(index_dir, "tombstones.parquet")
    new = np.asarray(sorted(set(int(d) for d in docids)), np.uint64)
    if os.path.exists(path):
        old = pq.read_table(path).column("docid").to_numpy(zero_copy_only=False).astype(np.uint64)
        new = np.unique(np.concatenate([old, new]))
    atomic_write_table(pa.table({"docid": pa.array(new, pa.uint64())}), path)
    return int(len(new))


def _row_docid_ranges(tbl: pa.Table):
    """(first_docid, last_docid) per posting row from the cfirst/clast
    chunk-summary columns — no posting decode (chunks are docid-ordered
    within a row, so first chunk's cfirst / last chunk's clast bound
    the row)."""
    def _edge(colname: str, last: bool):
        col = tbl.column(colname)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        off = col.offsets.to_numpy(zero_copy_only=False)
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        idx = (off[1:] - 1) if last else off[:-1]
        return flat[idx]

    return _edge("cfirst", last=False), _edge("clast", last=True)


def _compact_one_file(part: str, dead: np.ndarray) -> int:
    """Rewrite one posting partition without its tombstoned docids;
    returns 1 when the file changed. Rows keep their part ids, so the
    docid-disjoint parts invariant is preserved (each surviving row's
    range is a subset of its original).

    Cost is proportional to the rows the tombstones can actually
    touch, not the partition: a cfirst/clast pre-pass (two small
    columns, no posting bytes) finds rows whose docid range intersects
    the dead set — single-df and narrow-range terms (the bulk of any
    vocabulary) skip decode entirely; untouched rows carry over
    verbatim and only the touched survivors re-encode."""
    pf = pq.ParquetFile(part)
    if pf.metadata.num_rows == 0 or len(dead) == 0:
        return 0
    head = pf.read(columns=["cfirst", "clast"])
    row_first, row_last = _row_docid_ranges(head)
    # row intersects dead iff some dead id in [first, last]
    di = np.searchsorted(dead, row_first, side="left")
    has = (di < len(dead)) & (dead[np.minimum(di, len(dead) - 1)] <= row_last)
    touched = np.flatnonzero(has)
    if touched.size == 0:
        return 0

    tbl = pq.read_table(part)
    docids, tfs, positions, row_offsets = codec.bulk_decode_rows(
        tbl, touched, with_positions=True
    )
    pos_idx = np.searchsorted(dead, docids)
    pos_idx = np.clip(pos_idx, 0, len(dead) - 1)
    keep = dead[pos_idx] != docids
    if keep.all():
        return 0
    # re-encode the TOUCHED rows' surviving postings
    terms = tbl.column("term")
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    df_per_row = np.diff(row_offsets)          # per touched row
    row_of_posting = np.repeat(np.arange(len(touched)), df_per_row)
    k_rows = row_of_posting[keep]
    new_df = np.bincount(k_rows, minlength=len(touched))
    live_local = np.flatnonzero(new_df > 0)
    live_rows = touched[live_local]            # global row ids
    term_offsets = np.zeros(len(live_local) + 1, np.int64)
    np.cumsum(new_df[live_local], out=term_offsets[1:])
    if positions is not None:
        tf64 = tfs.astype(np.int64)
        pos_starts = np.cumsum(tf64) - tf64
        keep_tf = tf64[keep]
        out_off = np.zeros(len(keep_tf) + 1, np.int64)
        np.cumsum(keep_tf, out=out_off[1:])
        gather = (
            np.arange(int(out_off[-1]), dtype=np.int64)
            - np.repeat(out_off[:-1], keep_tf)
            + np.repeat(pos_starts[keep], keep_tf)
        )
        new_pos = positions[gather]
        new_pos_off = out_off
    else:
        new_pos = new_pos_off = None
    enc = codec.encode_posting_table(
        terms.take(pa.array(live_rows)),
        term_offsets,
        docids[keep],
        tfs[keep],
        new_pos_off,
        new_pos,
    )
    part_col = tbl.column("part")
    if isinstance(part_col, pa.ChunkedArray):
        part_col = part_col.combine_chunks()
    enc = enc.append_column("part", part_col.take(pa.array(live_rows)))

    # untouched rows carry over verbatim; restore term-major,
    # first-docid-minor order so term runs stay contiguous and parts
    # stay docid-ordered within a term
    untouched = np.flatnonzero(~has)
    rest = tbl.take(pa.array(untouched)).select(enc.column_names)
    merged = pa.concat_tables([rest, enc], promote_options="default")
    m_first, _ = _row_docid_ranges(merged)
    order = pc.sort_indices(
        pa.table({"t": merged.column("term"), "f": pa.array(m_first, pa.uint64())}),
        sort_keys=[("t", "ascending"), ("f", "ascending")],
    )
    merged = merged.take(order)
    atomic_write_table(merged, part, row_group_size=POSTING_ROW_GROUP)
    return 1


def compact_index(index_dir: str, concurrency: int = 8) -> dict:
    """Fold tombstones out of every posting partition (decode → filter
    → re-encode, one Ray task slice per partition; the tombstone set is
    broadcast via the object store) and drop the tombstone file. Delta
    segments stay separate partitions (their postings are already
    optimal; only deletes require rewriting). Returns rewrite counts.

    Stats note: lexicon df/cf and doclen/avgdl still describe the
    pre-delete corpus until a rebuild — the same staleness window the
    reference has between delete and index re-optimization."""
    ts_path = os.path.join(index_dir, "tombstones.parquet")
    if not os.path.exists(ts_path):
        return {"rewritten": 0}
    dead = np.sort(
        pq.read_table(ts_path).column("docid").to_numpy(zero_copy_only=False).astype(np.uint64)
    )
    meta = read_manifest(os.path.join(index_dir, "meta.json"))
    dirs = [index_dir] + [os.path.join(index_dir, d) for d in meta.get("deltas", [])]
    parts: list[str] = []
    for d in dirs:
        sub_meta = read_manifest(os.path.join(d, "meta.json"))
        for section in sub_meta["sections"]:
            parts.extend(sorted(
                glob.glob(os.path.join(d, f"sec={section}", "postings", "bucket=*", "part.parquet"))
            ))
    if ray.is_initialized() and len(parts) > 1:
        dead_ref = ray.put(dead)

        def rewrite_some(batch: pa.Table) -> pa.Table:
            dd = ray.get(dead_ref)
            n = sum(_compact_one_file(p, dd) for p in batch.column("path").to_pylist())
            return pa.table({"rewritten": pa.array([n], pa.int64())})

        n_tasks = min(concurrency, len(parts))
        out = ray.data.from_items([{"path": p} for p in parts]).map_batches(
            rewrite_some,
            batch_size=max(1, -(-len(parts) // n_tasks)),
            batch_format="pyarrow",
            concurrency=n_tasks,
            num_cpus=1,
        ).take_all()
        rewritten = sum(r["rewritten"] for r in out)
    else:
        rewritten = sum(_compact_one_file(p, dead) for p in parts)
    # a new meta.json before the tombstones go: else the index stamp
    # returns to its pre-delete value and open_index keeps that reader
    write_manifest(os.path.join(index_dir, "meta.json"), meta)
    os.unlink(ts_path)
    return {"rewritten": rewritten}


# --------------------------------------------------------- maintenance

def truncate_index(index_dir: str) -> None:
    """Remove every index artifact (proc_truncate, lib/proc.c:3691):
    the directory stays, a subsequent build starts clean."""
    import shutil

    for entry in glob.glob(os.path.join(index_dir, "*")):
        if os.path.isdir(entry):
            shutil.rmtree(entry)
        else:
            os.unlink(entry)


def check_index(index_dir: str) -> dict:
    """Structural validation (the `check` command, lib/proc.c:3585,
    repurposed for this layout). Verifies, per section:

    * every bucket manifest exists and matches the build config,
    * posting rows are term-sorted within each partition (row-group
      statistics monotone),
    * each term's parts are pairwise docid-disjoint (the salted-parts
      invariant WAND/chunk-skip rely on), streamed row group by row
      group — never the whole bucket in memory,
    * lexicon df totals equal the posting rows' df totals per bucket.

    Returns {"ok": bool, "issues": [...], "sections": {...}} — read-only.
    """
    meta = read_manifest(os.path.join(index_dir, "meta.json"))
    cfg_fp = meta["config"]
    issues: list[str] = []
    sections: dict[str, dict] = {}
    for section in meta["sections"]:
        n_rows = 0
        df_postings = 0
        for part in sorted(
            glob.glob(os.path.join(index_dir, f"sec={section}", "postings", "bucket=*", "part.parquet"))
        ):
            bdir = os.path.dirname(part)
            bucket = int(os.path.basename(bdir).split("=")[1])
            man = read_manifest(os.path.join(bdir, "manifest.json"))
            if not man:
                issues.append(f"{section}/bucket={bucket}: missing manifest")
            elif man.get("config") != cfg_fp:
                issues.append(f"{section}/bucket={bucket}: manifest config mismatch")
            pf = pq.ParquetFile(part)
            md = pf.metadata
            tcol = [i for i in range(md.num_columns) if md.schema.column(i).path == "term"][0]
            prev_max = ""
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(tcol).statistics
                if st is not None and st.min < prev_max:
                    issues.append(f"{section}/bucket={bucket}: row group {rg} not term-sorted")
                if st is not None:
                    prev_max = st.max
            # stream rows: per-term part disjointness + df totals
            carry_term = None
            carry_last = -1
            for rg in range(md.num_row_groups):
                tbl = pf.read_row_groups([rg], columns=["term", "df", "cfirst", "clast"])
                n_rows += tbl.num_rows
                df_postings += int(pc.sum(tbl.column("df")).as_py() or 0)
                terms = tbl.column("term").to_pylist()
                firsts = [c[0] if c else None for c in tbl.column("cfirst").to_pylist()]
                lasts = [max(c) if c else None for c in tbl.column("clast").to_pylist()]
                for t, fi, la in zip(terms, firsts, lasts):
                    if fi is None:
                        continue
                    if t == carry_term and fi <= carry_last:
                        issues.append(
                            f"{section}/bucket={bucket}: term {t!r} parts overlap "
                            f"(first {fi} <= prev last {carry_last})"
                        )
                    if t == carry_term:
                        carry_last = max(carry_last, la)
                    else:
                        carry_term, carry_last = t, la
        df_lex = 0
        n_lex_terms = 0
        for lexf in glob.glob(os.path.join(index_dir, f"sec={section}", "lexicon", "bucket=*.parquet")):
            t = pq.read_table(lexf, columns=["df"])
            n_lex_terms += t.num_rows
            df_lex += int(pc.sum(t.column("df")).as_py() or 0)
        if df_lex != df_postings:
            issues.append(
                f"{section}: lexicon df total {df_lex} != posting df total {df_postings}"
            )
        # cross-bucket disjointness: a multi-part term's parts may live
        # in different buckets; walk them via the lexicon routing
        from .index import IndexReader

        si = IndexReader(index_dir).section(section)
        n_multi = 0
        for lexf in sorted(
            glob.glob(os.path.join(index_dir, f"sec={section}", "lexicon", "bucket=*.parquet"))
        ):
            t = pq.read_table(lexf, columns=["term", "n_parts"])
            np_col = t.column("n_parts").to_numpy(zero_copy_only=False)
            for i in np.flatnonzero(np_col > 1):
                term = t.column("term")[int(i)].as_py()
                rows = si.posting_rows(si.term_id(term))
                lasts = [max(r["clast"]) for r in rows if r["clast"]]
                firsts = [r["cfirst"][0] for r in rows if r["cfirst"]]
                if any(lasts[j] >= firsts[j + 1] for j in range(len(firsts) - 1)):
                    issues.append(f"{section}: term {term!r} parts not docid-disjoint")
                n_multi += 1
                if n_multi >= 10000:
                    break
            if n_multi >= 10000:
                break
        sections[section] = {
            "posting_rows": n_rows,
            "lexicon_terms": n_lex_terms,
            "df_total": df_postings,
            "multipart_terms_checked": n_multi,
        }
    return {"ok": not issues, "issues": issues, "sections": sections}
