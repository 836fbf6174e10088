"""The ``select`` surface: query → match → score → sort/limit →
projection → drilldown, mirroring grn_select's stage order
(lib/proc.c:876-1195, parameter surface proc.c:6758-6783).

An :class:`IndexedTable` bundles a built index with its document store
(the source Parquet files). Query evaluation happens driver-side over
decoded posting arrays (the result-set scale is top-k / matched docs,
not the corpus); document fetch and drilldowns column-prune the source
Parquet. Batch query evaluation over a query *table* is
:func:`run_query_batch` — map_batches tasks over a per-process
:class:`QueryEngine` that holds the IndexReader once.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import codec, score as score_mod
from .cache import BoundedCache, file_stamp
from .index import IndexReader, index_stamp, open_index
from .qlang import (
    AdjustNode,
    AndNode,
    MatchSpec,
    NearNode,
    NoMatchNode,
    NotNode,
    OrNode,
    PhraseNode,
    RangeNode,
    SimilarNode,
    TermNode,
    parse_match_columns,
    parse_query,
)
from .search import (
    MatchResult,
    op_adjust,
    op_and,
    op_and_not,
    op_or,
    term_match,
    top_k,
)
from .tokenize import WordTokenizer


@lru_cache(maxsize=1024)
def _schema_names_cached(path: str, stamp: tuple | None) -> frozenset:
    return frozenset(pq.read_schema(path).names)


def _schema_names_of(path: str) -> frozenset:
    """Parquet schema names, cached per file stamp — the query hot
    path resolves output columns per request and must not re-read file
    footers; the stamp keeps command-surface tables (rewritten in place
    by load/DDL) correct."""
    return _schema_names_cached(path, file_stamp(path))


@dataclass
class IndexedTable:
    index_dir: str
    source_files: list[str]
    docid_column: str | None = None   # None -> docid = 1-based rank in file order
    # reference columns for sub_filter(col, "..."): col -> (referenced
    # table's files, its key column) — the schema link grn_obj_get_range
    # provides in the reference (lib/proc.c:5198)
    refs: dict | None = None
    # geo-indexed columns: col -> zkey-sorted geo index dir (the
    # WGS84GeoPoint PAT-key index, lib/geo.c:687) — filters route
    # geo_in_rectangle/in_circle on these columns to mesh-cover scans
    geo_indexes: dict | None = None
    # named index columns: "Lexicon.memo_index" -> ordered source
    # column list, so match_columns can address the index object
    # directly ("Lexicon.memo_index[0]", ".title", or bare = all
    # sections — grn_column_index accessor, lib/expr.c:6050)
    index_defs: dict | None = None
    # True when the index was built WITHOUT a user-declared index
    # column (server convenience index): substring/prefix operators
    # must behave like the reference's SEQUENTIAL scan, not an index
    # walk over grouped-alpha tokens
    auto_indexed: bool = False

    def reader(self) -> IndexReader:
        return open_index(self.index_dir)


# ------------------------------------------------------------- match eval

def _with_pseudo(tbl: "pa.Table | None", docids, scores) -> pa.Table:
    """Attach _id/_score pseudo columns to a (possibly empty/None)
    fetched batch without tripping Arrow's 0-row append check."""
    cols = {c: tbl.column(c) for c in tbl.column_names} if tbl is not None else {}
    cols["_id"] = pa.array(docids, pa.uint64())
    cols["_score"] = pa.array(scores, pa.float64())
    return pa.table(cols)


def _expand_index_sections(spec: MatchSpec, table: "IndexedTable") -> None:
    """Rewrite index-object accessors in match_columns sections to
    their source data columns: ``Lexicon.memo_index`` → every source
    section, ``[i]`` → the i-th source, ``.col`` → that source
    (grn_column_index / accessor resolution, lib/expr.c:6050-6160;
    WITH_SECTION source order lib/ii.c section ids)."""
    if not table.index_defs:
        return
    import re as _re

    out: list[tuple[str, float, str | None]] = []
    for col, w, sc in spec.sections:
        m = _re.match(r"^(\w+\.\w+)(?:\[(\d+)\]|\.(\w+))?$", col)
        defs = table.index_defs.get(m.group(1)) if m else None
        if defs is None:
            out.append((col, w, sc))
        elif m.group(2) is not None:
            i = int(m.group(2))
            if i < len(defs):
                out.append((defs[i], w, sc))
        elif m.group(3):
            out.append((m.group(3), w, sc))
        else:
            out.extend((s, w, sc) for s in defs)
    spec.sections = out


class _NeutralMatch:
    """Sentinel: a term whose tokens ALL dropped at the token-filter
    stage (an all-stop-word query term). The reference's expression
    builder emits no match op for it, so surrounding ANDs ignore it
    (token_filters/stop_word/skip)."""


NEUTRAL = _NeutralMatch()


def _eval_match_node(
    node, reader: IndexReader, spec: MatchSpec, table: "IndexedTable | None" = None
) -> MatchResult:
    """One term/phrase node across all match sections, scores summed
    (WITH_SECTION accumulation, lib/db.c:2136-2158). A dotted section
    ``col.sub`` matches THROUGH a reference column (nested index,
    grn_column_index over reference paths, lib/db.c:8800): ``col._key``
    matches the stored key text itself; ``col.sub`` runs the match on
    the referenced table's index and semi-joins the matched keys back."""
    results = []
    tokens_dropped = False   # a GET chain removed every token
    for col, weight, sec_scorer in spec.sections:
        scorer = sec_scorer or spec.scorer
        if isinstance(node, (TermNode, PhraseNode)) and getattr(node, "section", None):
            if node.section != col:
                continue
        if "." in col:
            base, sub = col.split(".", 1)
            if sub == "_key" and base in reader.sections:
                col = base  # reference column stores the key bytes
            elif table is not None and table.refs and base in table.refs:
                m = _nested_ref_match(node, table, base, sub, spec)
                if m is not None:
                    if weight != 1.0:
                        m = MatchResult(m.docids, m.scores * weight)
                    results.append(m)
                continue
            else:
                continue
        si = reader.section(col)
        kw = dict(
            n_docs=reader.n_docs,
            avgdl=reader.avgdl(col),
            doclens=reader.doclens(col),
            weight=weight,
        )
        if isinstance(node, NearNode):
            from .search import near_match

            tokens = _query_tokens(node.text, reader)
            if not tokens:
                continue
            m = near_match(si, tokens, node.max_interval, scorer=scorer, **kw)
        elif isinstance(node, SimilarNode):
            from .search import similar_match

            m = similar_match(
                si, node.text,
                similarity_threshold=getattr(node, "threshold", 0), **kw,
            )
        elif isinstance(node, TermNode):
            if col in reader.meta.get("uvector_sections", ()):
                # vector section: the whole query text is ONE term
                tokens = [(node.text, 0)]
            else:
                tokens = _query_tokens(node.text, reader)
            if not tokens:
                if node.text.strip():
                    tokens_dropped = True
                continue
            m = term_match(
                reader.section(col), tokens, scorer,
                prefix_last=(node.mode == "prefix"),
                escalation_threshold=spec.escalation_threshold, **kw,
            )
        else:  # PhraseNode
            if col in reader.meta.get("uvector_sections", ()):
                # phrase over a vector section: each whitespace-
                # separated piece is one element, in order
                tokens = [(t, i) for i, t in enumerate(node.text.split())]
            else:
                tokens = _query_tokens(node.text, reader)
            if not tokens:
                continue
            m = term_match(reader.section(col), tokens, scorer,
                           escalation_threshold=spec.escalation_threshold, **kw)
        results.append(m)
    # explicit col: override searched a section not in match_columns
    if isinstance(node, (TermNode, PhraseNode)) and getattr(node, "section", None):
        sec = node.section
        if sec in reader.sections and all(c != sec for c, _, _ in spec.sections):
            si = reader.section(sec)
            kw = dict(
                n_docs=reader.n_docs, avgdl=reader.avgdl(sec),
                doclens=reader.doclens(sec), weight=1.0,
            )
            if sec in reader.meta.get("uvector_sections", ()):
                tokens = [(node.text, 0)]
            else:
                tokens = _query_tokens(node.text, reader)
            if tokens:
                m = term_match(
                    si, tokens, spec.scorer,
                    prefix_last=(isinstance(node, TermNode) and node.mode == "prefix"),
                    escalation_threshold=spec.escalation_threshold,
                    **kw,
                )
                results.append(m)
    if not results:
        if tokens_dropped:
            return NEUTRAL
        return MatchResult.empty()
    acc = results[0]
    for m in results[1:]:
        acc = op_or(acc, m)
    return acc


_WT = WordTokenizer()


def _query_tokens(text: str, reader: IndexReader) -> list[tuple[str, int]]:
    """GET-mode tokenization of query text with the INDEX's configured
    tokenizer + token-filter chain (token_cursor GET mode: a TokenBigram
    table keeps symbol-run tokens, so escaped specials match literally;
    stop words drop, stems map; surviving tokens keep their original
    ordinals so phrase offsets hold). Memoized on the reader, whose
    tokenizer and chain are fixed (the vectorized tokenizer's constant
    overhead is ~25% of a short query's latency; batches repeat terms)."""
    return list(reader.query_tokens.get_or_load(text, lambda _: tuple(_tokenize_query(text, reader))))


def _tokenize_query(text: str, reader: IndexReader) -> list[tuple[str, int]]:
    cfg = reader.meta.get("config", {})
    tokenizer = cfg.get("tokenizer", "TokenCodeWord")
    if tokenizer == "TokenCodeWord":
        toks = [(t, i) for i, t in enumerate(_WT.tokenize_text(text))]
    else:
        from .tokenize import tokenize as _tok

        normalizer = cfg.get("normalizer", "NormalizerAuto") or None
        toks = [(t.term, t.pos) for t in _tok(text, tokenizer, mode="get", normalizer=normalizer).tokens]
    if not reader.query_chain or not toks:
        return toks
    from .tokenfilters import apply_chain

    terms, idx = apply_chain(
        reader.query_chain, pa.array([t for t, _ in toks], type=pa.large_string()), "get"
    )
    pos = [toks[i][1] for i in idx.tolist()]
    return list(zip(terms.to_pylist(), pos))


def _collect_query_keywords(query: str) -> list[str]:
    """Match terms of a --query string (for snippet/highlight output
    functions — grn_proc_syntax_expand analogue of keyword collection)."""
    try:
        ast = parse_query(query)
    except Exception:
        return []
    kws: list[str] = []

    def walk(n):
        if isinstance(n, (TermNode, PhraseNode)):
            kws.extend(_WT.tokenize_text(n.text))
        for attr in ("children", "positive", "negative", "base", "adjust"):
            v = getattr(n, attr, None)
            if isinstance(v, list):
                for c in v:
                    walk(c)
            elif v is not None and hasattr(v, "__dataclass_fields__"):
                walk(v)

    walk(ast)
    seen: set[str] = set()
    out = []
    for k in kws:
        if k not in seen:
            seen.add(k)
            out.append(k)
    return out


def _regex_literals(pattern: str) -> list[str]:
    """Extract word-char literal runs a regex REQUIRES in every match
    (conservative: alternation disables extraction; a char under a
    quantifier is dropped; classes/escapes/metachars break runs). Each
    literal must appear as a substring of some index token, which is
    what makes the lexicon-scan prefilter exact-superset."""
    lits: list[str] = []
    cur: list[str] = []
    i, n = 0, len(pattern)
    in_class = False
    group_marks: list[int] = []            # lits length at each open paren

    def flush(drop_last: bool = False):
        nonlocal cur
        s = "".join(cur[:-1] if drop_last else cur)
        if len(s) >= 2:
            lits.append(s.lower())
        cur = []

    while i < n:
        c = pattern[i]
        if in_class:
            if c == "\\":
                i += 1
            elif c == "]":
                in_class = False
            i += 1
            continue
        if c == "|":
            return []                      # alternation: nothing is required
        if c == "\\":
            flush()
            i += 2
            continue
        if c == "[":
            flush()
            in_class = True
            i += 1
            continue
        if c == "(":
            flush()
            group_marks.append(len(lits))
            i += 1
            continue
        if c == ")":
            flush()
            mark = group_marks.pop() if group_marks else 0
            if i + 1 < n and pattern[i + 1] in "?*{":
                del lits[mark:]            # quantified group: contents optional
            i += 1
            continue
        if c in "?*{":
            flush(drop_last=True)          # preceding atom is optional/repeated
            if c == "{":
                while i < n and pattern[i] != "}":
                    i += 1
            i += 1
            continue
        if c == "+":
            # one-or-more: the atom itself IS required; keep the run
            i += 1
            flush()
            continue
        if c.isalnum() or c == "_":
            cur.append(c)
            i += 1
            continue
        flush()
        i += 1
    flush()
    return lits


def _regexp_match(
    pattern: str, col: str, reader: IndexReader, table: "IndexedTable"
) -> "MatchResult | DeferredPred":
    """REGEXP mode (grn_ii_select GRN_OP_REGEXP, lib/ii.c:6049-6118):
    required literals prefilter through the index — lexicon terms
    containing each literal (vectorized vocabulary scan, the TokenRegexp
    bigram-index stand-in), postings unioned per literal, AND across
    literals — then candidates are verified with the real regex over a
    docid-pruned fetch. With no usable literal the match degrades to the
    streaming sequential scan (returned as a deferred predicate)."""
    from .search import term_match, union_postings

    pred = DeferredPred(("@~", ("col", col), ("str", pattern)), (col,))
    if not table.auto_indexed and reader.meta.get("config", {}).get(
        "normalizer"
    ):
        # a DECLARED normalized lexicon indexes normalized text: the
        # pattern matches the NORMALIZED form (grn_ii_select REGEXP
        # tokenizes the pattern through the same normalizer,
        # lib/ii.c:6049). Escapes like \A / \W keep their case. The
        # sequential fallback pred keeps the raw pattern (it matches
        # raw text).
        import re as _re2

        pattern = _re2.sub(
            r"(\\.)|([A-Z]+)",
            lambda m: m.group(1) or m.group(2).lower(),
            pattern,
        )
    lits = _regex_literals(pattern)
    if not lits or col not in reader.sections:
        return pred
    si = reader.section(col)
    acc: MatchResult | None = None
    if reader.meta.get("config", {}).get("tokenizer") == "TokenRegexp":
        # the section IS a TokenRegexp bigram index: each required
        # literal GET-tokenizes to positioned bigrams and prefilters as
        # a phrase match — the reference's actual REGEXP index walk
        # (grn_ii_select GRN_OP_REGEXP over a TokenRegexp lexicon,
        # lib/ii.c:6049-6118) rather than the vocabulary-scan stand-in
        from .tokenize import regexp_tokenize

        kw = dict(
            n_docs=reader.n_docs, avgdl=reader.avgdl(col),
            doclens=reader.doclens(col), weight=1.0,
        )
        for lit in lits:
            ts = regexp_tokenize(lit, mode="get")
            tokens = [(t.term, t.pos) for t in ts.tokens]
            if not tokens:
                continue
            m = term_match(si, tokens, "default", prefix_last=ts.force_prefix, **kw)
            acc = m if acc is None else op_and(acc, m)
            if acc.nhits == 0:
                return MatchResult.empty()
        if acc is None:
            return pred
    else:
        # the vocabulary-scan prefilter is only EXACT-SUPERSET when
        # every word-char run of a document is a substring of one of
        # its tokens — true for the word tokenizer (tokens are maximal
        # [a-z0-9_]+ runs), NOT for ngram families (a literal longer
        # than the gram, or spanning an alpha/digit boundary, matches
        # no token). There, an empty lexicon scan proves nothing:
        # degrade to the sequential predicate.
        exact_superset = reader.meta.get("config", {}).get("tokenizer") == "TokenCodeWord"
        for lit in lits:
            tids = si.matching_tids(lit, "substring")
            if not tids:
                return MatchResult.empty() if exact_superset else pred
            pls = [si.postings(t) for t in tids]
            pl = union_postings(pls)
            m = MatchResult(pl.docids.copy(), np.zeros(len(pl.docids), np.float64))
            acc = m if acc is None else op_and(acc, m)
            if acc.nhits == 0:
                return MatchResult.empty() if exact_superset else pred
    # verify candidates with the actual regex, scoring occurrence count
    # (noccur) in the same single docid-pruned fetch
    if acc.nhits == 0:
        return acc
    tbl = fetch_docs(table, acc.docids, [col])
    target = tbl.column(col)
    if not table.auto_indexed and reader.meta.get("config", {}).get(
        "normalizer"
    ):
        target = pc.utf8_lower(target)
    counts = pc.fill_null(
        pc.count_substring_regex(target, pattern), 0
    ).to_numpy(zero_copy_only=False)
    keep = counts > 0
    return MatchResult(acc.docids[keep], counts[keep].astype(np.float64))


@dataclass
class DeferredPred:
    """A scalar-column predicate NOT yet evaluated. The planner applies
    it to an index-produced match set via docid-pruned fetches (the
    reference's grn_table_select applying sequential scan_info units
    against the current result set, lib/expr.c:5038/4673); only a
    predicate with no index part anywhere above it pays a corpus scan
    (and that scan streams — never a whole-corpus driver read)."""

    ast: object                    # script-AST tuple
    columns: tuple[str, ...]


def _pred_columns(ast) -> tuple[str, ...]:
    cols: set[str] = set()

    def collect(n):
        if isinstance(n, tuple):
            if n[0] == "col":
                cols.add(n[1])
            for child in n[1:]:
                if isinstance(child, tuple):
                    collect(child)
                elif isinstance(child, list):
                    for c in child:
                        collect(c)

    collect(ast)
    return tuple(sorted(cols))


def _pred_of_range(node: RangeNode) -> DeferredPred:
    try:
        value: object = float(node.value)
        if float(node.value).is_integer() and "." not in node.value:
            value = int(node.value)
        lit = ("num", value)
    except ValueError:
        lit = ("str", node.value)
    return DeferredPred((node.op, ("col", node.column), lit), (node.column,))


def _pred_and(a: DeferredPred, b: DeferredPred) -> DeferredPred:
    return DeferredPred(("and", a.ast, b.ast), tuple(sorted(set(a.columns) | set(b.columns))))


def _apply_pred_to(table: "IndexedTable", pred: DeferredPred, result: MatchResult) -> MatchResult:
    """Filter a match set by the predicate: fetch ONLY the matched
    docids' rows (docid-range-pruned read) and mask — bytes read scale
    with the match, not the corpus."""
    from .script import eval_filter

    if result.nhits == 0:
        return result
    real = [c for c in pred.columns if c not in ("_id", "_score")]
    fetched = fetch_docs(table, result.docids, real) if real else None
    # pseudo columns resolve from the match set itself (_id accessor,
    # lib/expr.c GRN_OP_GET_VALUE on the accessor path)
    cols = {c: fetched.column(c) for c in real} if fetched is not None else {}
    if "_id" in pred.columns:
        cols["_id"] = pa.array(result.docids, pa.uint64())
    if "_score" in pred.columns:
        cols["_score"] = pa.array(result.scores, pa.float64())
    tbl = pa.table(cols)
    mask = eval_filter(pred.ast, tbl)
    mask = _vector_truthy(mask)
    if isinstance(mask, (pa.Array, pa.ChunkedArray)):
        mask = pc.fill_null(mask, False)
        mask_np = np.asarray(mask.to_numpy(zero_copy_only=False), bool)
    else:
        mask_np = np.asarray(mask, bool)
    return MatchResult(result.docids[mask_np], result.scores[mask_np])


# corpora under this row count scan on the driver (streaming, per row
# group); above it the scan fans out as a Ray Data job over the files
SCAN_DISTRIBUTED_ROWS = 4_000_000


def _vector_truthy(mask):
    """A vector-valued filter result is TRUE for every row — even an
    empty vector (grn_obj_is_true on a vector bulk)."""
    t = getattr(mask, "type", None)
    if t is not None and (pa.types.is_list(t) or pa.types.is_large_list(t)):
        return pa.array(np.ones(len(mask), bool))
    return mask


def _scan_pred(table: "IndexedTable", pred: DeferredPred) -> MatchResult:
    """Evaluate a predicate with no index support: a streaming, column-
    pruned scan over the source files that returns ONLY matching docids
    (grn_table_select_sequential analogue). Small corpora scan on the
    driver row-group by row-group (bounded memory); large ones fan out
    as a Ray Data map_batches over per-file tasks."""
    import ray

    files = sorted(table.source_files)
    bases = []
    base = 1
    total = 0
    for f in files:
        n = pq.ParquetFile(f).metadata.num_rows
        bases.append(base)
        base += n
        total += n

    if total > SCAN_DISTRIBUTED_ROWS and ray.is_initialized():
        import ray.data

        items = [
            {"file": f, "base": b, "docid_column": table.docid_column or "",
             "ast": __import__("json").dumps(_ast_to_json(pred.ast)),
             "columns": list(pred.columns)}
            for f, b in zip(files, bases)
        ]

        def scan_file(batch: pa.Table) -> pa.Table:
            out = []
            for row in batch.to_pylist():
                ids = _scan_one_file(
                    row["file"], int(row["base"]), row["docid_column"] or None,
                    _ast_from_json(__import__("json").loads(row["ast"])), row["columns"],
                )
                out.append(ids)
            all_ids = np.concatenate(out) if out else np.empty(0, np.uint64)
            return pa.table({"docid": pa.array(all_ids, pa.uint64())})

        ds = ray.data.from_items(items).map_batches(
            scan_file, batch_size=1, batch_format="pyarrow"
        )
        docids = np.concatenate(
            [b.column("docid").to_numpy(zero_copy_only=False) for b in ds.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, np.uint64)]
        ).astype(np.uint64)
    else:
        parts = [
            _scan_one_file(f, b, table.docid_column, pred.ast, list(pred.columns))
            for f, b in zip(files, bases)
        ]
        docids = np.concatenate(parts) if parts else np.empty(0, np.uint64)
    docids = np.sort(docids)
    # sequential-select matches carry score 1 (res_add with score 1,
    # grn_table_select_sequential); a bare LITERAL filter contributes
    # its numeric value as the score ("29" → 29, lib/expr_executor.c
    # constant-expression result cast to Int32 score)
    score = 1.0
    if pred.ast[0] in ("str", "num") and not isinstance(pred.ast[1], bool):
        try:
            score = float(pred.ast[1])
        except (TypeError, ValueError):
            score = 1.0
    return MatchResult(docids, np.full(len(docids), score, np.float64))


def _scan_one_file(path: str, base: int, docid_column: str | None, ast, columns: list[str]) -> np.ndarray:
    """Row-group-streaming predicate scan of one file -> matching docids."""
    from .script import eval_filter

    need = sorted(set(columns) | ({docid_column} if docid_column else set()))
    pf = pq.ParquetFile(path)
    out = []
    row_base = base
    for rg in range(pf.metadata.num_row_groups):
        tbl = pf.read_row_group(rg, columns=need)
        mask = eval_filter(ast, tbl)
        mask = _vector_truthy(mask)
        if isinstance(mask, (pa.Array, pa.ChunkedArray)):
            mask = pc.fill_null(mask, False)
            m = np.asarray(mask.to_numpy(zero_copy_only=False), bool)
        elif isinstance(mask, pa.Scalar):
            m = np.full(tbl.num_rows, bool(mask.as_py()))
        else:
            m = np.asarray(mask, bool)
        if m.ndim == 0:
            # constant predicate (--filter true): broadcast to all rows
            m = np.full(tbl.num_rows, bool(m))
        if docid_column:
            ids = tbl.column(docid_column).to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            ids = np.arange(row_base, row_base + tbl.num_rows, dtype=np.uint64)
        out.append(ids[m])
        row_base += tbl.num_rows
    return np.concatenate(out) if out else np.empty(0, np.uint64)


def _ast_to_json(n):
    if isinstance(n, tuple):
        return ["__t__"] + [_ast_to_json(c) for c in n]
    if isinstance(n, list):
        return ["__l__"] + [_ast_to_json(c) for c in n]
    if isinstance(n, (pa.Array, pa.ChunkedArray)):
        # in_set value sets (sub_filter) ship as plain lists
        return ["__l__"] + list(n.to_pylist())
    return n


def _ast_from_json(n):
    if isinstance(n, list):
        if n and n[0] == "__t__":
            return tuple(_ast_from_json(c) for c in n[1:])
        if n and n[0] == "__l__":
            return [_ast_from_json(c) for c in n[1:]]
    return n


def _sub_filter_keys(files: list[str], key_col: str, filter_str: str) -> pa.Array:
    """Keys of the referenced table's rows matching the sub filter —
    a streaming, column-pruned row-group scan (the referenced side of a
    sub_filter is a dimension table: small enough to broadcast; a fact-
    sized right side belongs in a proper join, not sub_filter)."""
    from .script import eval_filter, parse_filter

    ast = parse_filter(filter_str)
    cols = sorted(set(_pred_columns(ast)) | {key_col})
    chunks: list[pa.Array] = []
    for f in sorted(files):
        pf = pq.ParquetFile(f)
        for rg in range(pf.metadata.num_row_groups):
            tbl = pf.read_row_group(rg, columns=cols)
            mask = eval_filter(ast, tbl)
            if isinstance(mask, (pa.Array, pa.ChunkedArray)):
                mask = pc.fill_null(mask, False)
            keys = tbl.column(key_col).filter(mask)
            if isinstance(keys, pa.ChunkedArray):
                keys = keys.combine_chunks()
            chunks.append(keys)
    if not chunks:
        return pa.array([], pa.int64())
    return pa.concat_arrays(chunks)


# --------------------------------------------------- nested ref columns

def _ref_entry(table: "IndexedTable", col: str):
    """refs[col] → (files, key_col, ref IndexedTable | None). The third
    element (when present) is the referenced table's own handle, which
    nested-index match needs (grn_column_index through a reference
    path, lib/db.c:8800)."""
    v = (table.refs or {}).get(col)
    if v is None:
        return None
    files, key_col = list(v[0]), v[1]
    ref_t = v[2] if len(v) > 2 else None
    return files, key_col, ref_t


def _nested_ref_match(node, table: "IndexedTable", base: str, sub: str, spec) -> MatchResult | None:
    """Match ``base.sub``: run the node on the REFERENCED table's index
    section ``sub``, then semi-join the matched keys' scores back
    through this table's ``base`` values (scalar or vector). The
    reference resolves this with the referenced table's index plus the
    reverse COLUMN_INDEX (nested index, lib/expr.c:4360 scan_info +
    lib/db.c:8800); here the matched key set is query-selective and
    broadcast-small, so the reverse step is a streamed semi-join."""
    import copy

    ent = _ref_entry(table, base)
    if ent is None or ent[2] is None:
        return None
    files, key_col, ref_t = ent
    sub_node = copy.copy(node)
    if hasattr(sub_node, "section"):
        sub_node.section = None
    sub_spec = MatchSpec([(sub, 1.0, None)])
    sub_spec.scorer = spec.scorer
    sub_spec.escalation_threshold = spec.escalation_threshold
    ref_reader = ref_t.reader()
    if "." not in sub and sub not in ref_reader.sections:
        return None
    m = _eval_match_node(sub_node, ref_reader, sub_spec, ref_t)
    if m.nhits == 0:
        return MatchResult.empty()
    keys_tbl = fetch_docs(ref_t, m.docids, [key_col])
    keys = keys_tbl.column(key_col)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return _ref_forward_join(table, base, keys, m.scores)


def _ref_forward_join(
    table: "IndexedTable", col: str, keys: pa.Array, key_scores: np.ndarray
) -> MatchResult:
    """Streamed semi-join: rows of this table whose ``col`` value (or
    any vector element) is in ``keys``; each row scores the sum of its
    matched keys' scores (nested accumulation, lib/db.c:2136-2158).
    Column-pruned row-group scan — bytes read scale with ONE column,
    and the key set rides along broadcast-style."""
    files = sorted(table.source_files)
    out_ids: list[np.ndarray] = []
    out_scores: list[np.ndarray] = []
    base_rank = 1
    for f in files:
        pf = pq.ParquetFile(f)
        need = [col] + ([table.docid_column] if table.docid_column else [])
        rg_start = base_rank
        for rg in range(pf.metadata.num_row_groups):
            tbl = pf.read_row_group(rg, columns=sorted(set(need)))
            arr = tbl.column(col)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            nrows = len(arr)
            if table.docid_column:
                ids = tbl.column(table.docid_column).to_numpy(
                    zero_copy_only=False
                ).astype(np.uint64)
            else:
                ids = np.arange(rg_start, rg_start + nrows, dtype=np.uint64)
            rg_start += nrows
            row_scores = np.zeros(nrows, np.float64)
            try:
                if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
                    flat = pc.list_flatten(arr)
                    parent = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
                    idx = pc.index_in(flat, value_set=keys.cast(flat.type))
                    idx_np = pc.fill_null(idx, -1).to_numpy(zero_copy_only=False)
                    hitm = idx_np >= 0
                    np.add.at(row_scores, parent[hitm], key_scores[idx_np[hitm]])
                else:
                    idx = pc.index_in(arr, value_set=keys.cast(arr.type))
                    idx_np = pc.fill_null(idx, -1).to_numpy(zero_copy_only=False)
                    hitm = idx_np >= 0
                    row_scores[hitm] = key_scores[idx_np[hitm]]
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                pass  # incomparable types: no matches from this group
            keep = row_scores > 0
            if keep.any():
                out_ids.append(ids[keep])
                out_scores.append(row_scores[keep])
        base_rank = rg_start
    if not out_ids:
        return MatchResult.empty()
    ids = np.concatenate(out_ids)
    scores = np.concatenate(out_scores)
    order = np.argsort(ids)
    return MatchResult(ids[order], scores[order])


def _strip_key_suffix(ast):
    """Rewrite ``("col", "x._key")`` → ``("col", "x")``: a reference
    column STORES the referenced key, so ``x._key`` reads the column
    value itself (grn_obj accessor `column._key`, lib/db.c:8203)."""
    if isinstance(ast, tuple):
        if (
            ast[0] == "col" and isinstance(ast[1], str)
            and ast[1].endswith("._key") and ast[1].count(".") == 1
        ):
            return ("col", ast[1][: -len("._key")])
        return tuple(
            _strip_key_suffix(c) if isinstance(c, (tuple, list)) else c
            for c in ast
        )
    if isinstance(ast, list):
        return [_strip_key_suffix(c) for c in ast]
    return ast


def _strip_ref_prefix(ast, prefix: str):
    """Rewrite ``("col", "owner.x")`` → ``("col", "x")`` throughout."""
    if isinstance(ast, tuple):
        if ast[0] == "col" and isinstance(ast[1], str) and ast[1].startswith(prefix):
            return ("col", ast[1][len(prefix):])
        return tuple(
            _strip_ref_prefix(c, prefix) if isinstance(c, (tuple, list)) else c
            for c in ast
        )
    if isinstance(ast, list):
        return [_strip_ref_prefix(c, prefix) for c in ast]
    return ast


def _ref_pred_keys(files: list[str], key_col: str, ast) -> pa.Array:
    """Keys of the referenced table's rows satisfying the predicate —
    the referenced-side evaluation of a nested filter (streamed,
    column-pruned row-group scan like _sub_filter_keys)."""
    from .script import eval_filter

    cols = sorted(set(_pred_columns(ast)) | {key_col})
    chunks: list[pa.Array] = []
    for f in sorted(files):
        pf = pq.ParquetFile(f)
        avail = set(pf.schema_arrow.names)
        use = [c for c in cols if c in avail]
        for rg in range(pf.metadata.num_row_groups):
            tbl = pf.read_row_group(rg, columns=use)
            mask = eval_filter(ast, tbl)
            if isinstance(mask, (pa.Array, pa.ChunkedArray)):
                mask = pc.fill_null(mask, False)
            keys = tbl.column(key_col).filter(mask)
            if isinstance(keys, pa.ChunkedArray):
                keys = keys.combine_chunks()
            chunks.append(keys)
    if not chunks:
        return pa.array([], pa.large_string())
    return pa.concat_arrays(chunks)


def _ref_map_column(table: "IndexedTable", base: str, sub: str, values) -> pa.Array:
    """Projection through a reference: map this table's ``base`` values
    (keys of the referenced table) to the referenced table's ``sub``
    column (accessor chains, lib/db.c:11187-11260). The referenced side
    is a broadcast-small dimension table."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if sub == "_key":
        return values  # the stored value IS the referenced key
    ent = _ref_entry(table, base)
    if ent is None:
        raise ValueError(f"no reference target declared for column {base!r}")
    files, key_col, ref_t = ent
    if "." in sub and ref_t is not None:
        b2, s2 = sub.split(".", 1)
        if ref_t.refs and b2 in ref_t.refs:
            mapped = _ref_map_column(table, base, b2, values)
            return _ref_map_column(ref_t, b2, s2, mapped)
    need = [key_col, sub]
    mapping = pa.concat_tables(
        pq.read_table(f, columns=[c for c in need if c in _schema_names_of(f)])
        for f in sorted(files)
    )
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    mkeys = mapping.column(key_col)
    if isinstance(mkeys, pa.ChunkedArray):
        mkeys = mkeys.combine_chunks()
    vals = mapping.column(sub)
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    if pa.types.is_list(values.type) or pa.types.is_large_list(values.type):
        # vector reference column: map each ELEMENT, keep the shape —
        # arbitrarily nested (blogs.entries.content renders a vector
        # of vectors; accessor over a vector reference renders a
        # vector, lib/db.c:11187)
        shape: list[tuple[bool, pa.Array]] = []
        cur = values
        while pa.types.is_list(cur.type) or pa.types.is_large_list(cur.type):
            if isinstance(cur, pa.ChunkedArray):
                cur = cur.combine_chunks()
            shape.append((pa.types.is_large_list(cur.type), cur.offsets))
            cur = pc.list_flatten(cur)
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        idx = pc.index_in(cur.cast(mkeys.type), value_set=mkeys)
        mapped = pc.take(vals, idx)
        for is_large, offs in reversed(shape):
            if isinstance(mapped, pa.ChunkedArray):
                mapped = mapped.combine_chunks()
            mapped = (
                pa.LargeListArray.from_arrays(offs, mapped)
                if is_large else pa.ListArray.from_arrays(offs, mapped)
            )
        return mapped
    idx = pc.index_in(values.cast(mkeys.type), value_set=mkeys)
    return pc.take(vals, idx)


def _as_match(x, table: "IndexedTable") -> MatchResult:
    if isinstance(x, _NeutralMatch):
        return MatchResult.empty()
    return _scan_pred(table, x) if isinstance(x, DeferredPred) else x


def _eval_node(node, reader, spec, table: "IndexedTable") -> MatchResult:
    return _as_match(_eval_node_lazy(node, reader, spec, table), table)


def _eval_node_lazy(node, reader, spec, table: "IndexedTable"):
    """Evaluate a query AST node to a MatchResult OR a DeferredPred.
    Predicates stay deferred until an AND gives them a bounded match
    set to filter; only a predicate that reaches the top (or an OR/
    ADJUST operand) unbounded pays a scan."""
    if isinstance(node, (NearNode, SimilarNode)):
        return _eval_match_node(node, reader, spec, table)
    if isinstance(node, NoMatchNode):
        return MatchResult.empty()
    if isinstance(node, (TermNode, PhraseNode)):
        sec = getattr(node, "section", None)
        if isinstance(node, TermNode) and node.mode == "regexp":
            return _regexp_match(node.text, sec or spec.sections[0][0], reader, table)
        if isinstance(node, TermNode) and node.mode == "suffix" and sec:
            # col:$value — SUFFIX mode runs as a (normalized) scan on
            # the stored column (exec_text_operator GRN_OP_SUFFIX,
            # lib/operator.c; a bigram content index can't serve it)
            return DeferredPred(("@$", ("col", sec), ("str", node.text)), (sec,))
        if (
            isinstance(node, TermNode) and sec and node.text == ""
            and node.mode == "match" and not getattr(node, "explicit", False)
        ):
            # col:"" — equality with the empty string; the lexicon has
            # no empty term, so this is always the sequential equality
            # scan (select/index/equal/empty_string)
            return _pred_of_range(RangeNode(sec, "==", ""))
        if sec and "." not in sec and (
            sec not in reader.sections or table.auto_indexed
        ):
            if isinstance(node, TermNode) and node.mode == "prefix":
                # col:^v without a declared index = sequential prefix
                return DeferredPred(("@^", ("col", sec), ("str", node.text)), (sec,))
            if isinstance(node, TermNode) and getattr(node, "explicit", False):
                # col:@v without a declared index = sequential substring
                return DeferredPred(("@", ("col", sec), ("str", node.text)), (sec,))
            if sec in reader.sections:
                # bare col:value on an auto-indexed column still keys
                # on the stored value (equality via the index is fine)
                return _eval_match_node(node, reader, spec, table)
            # col:value on an unindexed scalar column = equality filter
            # (grn_table_select key search, lib/db.c:2641)
            return _pred_of_range(RangeNode(sec, "==", node.text))
        return _eval_match_node(node, reader, spec, table)
    if isinstance(node, AndNode):
        parts = [_eval_node_lazy(c, reader, spec, table) for c in node.children]
        parts = [p for p in parts if not isinstance(p, _NeutralMatch)]
        if not parts:
            return NEUTRAL
        matches = [p for p in parts if isinstance(p, MatchResult)]
        preds = [p for p in parts if isinstance(p, DeferredPred)]
        if not matches:
            acc_p = preds[0]
            for p in preds[1:]:
                acc_p = _pred_and(acc_p, p)
            return acc_p
        matches.sort(key=lambda m: m.nhits)
        acc = matches[0]
        for m in matches[1:]:
            acc = op_and(acc, m)
        for p in preds:
            acc = _apply_pred_to(table, p, acc)
        return acc
    if isinstance(node, OrNode):
        acc = MatchResult.empty()
        pred_or: DeferredPred | None = None
        for c in node.children:
            r = _eval_node_lazy(c, reader, spec, table)
            if isinstance(r, _NeutralMatch):
                continue
            if isinstance(r, DeferredPred):
                pred_or = r if pred_or is None else DeferredPred(
                    ("or", pred_or.ast, r.ast),
                    tuple(sorted(set(pred_or.columns) | set(r.columns))),
                )
            else:
                acc = op_or(acc, r)
        if pred_or is not None:
            acc = op_or(acc, _scan_pred(table, pred_or))
        return acc
    if isinstance(node, NotNode):
        neg = _eval_node_lazy(node.negative, reader, spec, table)
        pos = (
            _all_docs(reader)
            if node.positive is None
            else _eval_node_lazy(node.positive, reader, spec, table)
        )
        if isinstance(neg, _NeutralMatch):
            return pos
        if isinstance(pos, _NeutralMatch):
            pos = _all_docs(reader)
        if isinstance(neg, DeferredPred):
            inv = DeferredPred(("not", neg.ast), neg.columns)
            if isinstance(pos, DeferredPred):
                return _pred_and(pos, inv)
            return _apply_pred_to(table, inv, pos)
        return op_and_not(_as_match(pos, table), neg)
    if isinstance(node, AdjustNode):
        adj = _eval_node(node.adjust, reader, spec, table)
        if node.base is None:
            return adj
        base = _eval_node(node.base, reader, spec, table)
        return op_adjust(base, adj)
    if isinstance(node, RangeNode):
        return _pred_of_range(node)
    raise TypeError(f"unknown node {node!r}")


def _all_docs(reader: IndexReader) -> MatchResult:
    # every known docid, streamed shard-by-shard from the doclen files
    # (docid column only) — inherently result-set == corpus, so only
    # match-all / pure-negation queries pay it
    docids = np.sort(reader.all_docids())
    # match-all records carry score 1 (res_add base, like the
    # sequential --filter true baseline; select/query_flags/
    # allow_leading_not pins the NOT-over-all case)
    return MatchResult(docids, np.ones(len(docids), np.float64))


# ------------------------------------------------------------- doc store

# observability: posting-independent doc-store bytes fetched (tests
# assert reads scale with the match, not the corpus)
FETCH_BYTES = 0


@lru_cache(maxsize=4096)
def _rowgroup_ranges(path: str, docid_column: str | None, base: int) -> tuple:
    """Per-row-group (first_docid, last_docid, byte_size) of one file —
    metadata only (column statistics for docid tables, prefix sums of
    row-group row counts for rank tables)."""
    meta = pq.ParquetFile(path).metadata
    out = []
    if docid_column:
        col_idx = [
            i for i in range(meta.num_columns)
            if meta.schema.column(i).path == docid_column
        ][0]
        for i in range(meta.num_row_groups):
            st = meta.row_group(i).column(col_idx).statistics
            out.append((int(st.min), int(st.max), meta.row_group(i).total_byte_size))
    else:
        b = base
        for i in range(meta.num_row_groups):
            n = meta.row_group(i).num_rows
            out.append((b, b + n - 1, meta.row_group(i).total_byte_size))
            b += n
    return tuple(out)


@lru_cache(maxsize=4096)
def _rg_col_bytes(path: str) -> tuple:
    """Per-row-group {top-level column -> compressed bytes} (metadata)."""
    meta = pq.ParquetFile(path).metadata
    out = []
    for i in range(meta.num_row_groups):
        d: dict[str, int] = {}
        for j in range(meta.num_columns):
            c = meta.row_group(i).column(j)
            name = c.path_in_schema.split(".")[0]
            d[name] = d.get(name, 0) + c.total_compressed_size
        out.append(d)
    return tuple(out)


def _file_docid_ranges(table: IndexedTable) -> list[tuple[str, int, int]]:
    """Per-file [first_docid, last_docid] from metadata only."""
    ranges = []
    base = 1
    for f in sorted(table.source_files):
        meta = pq.ParquetFile(f).metadata
        if table.docid_column:
            rgs = _rowgroup_ranges(f, table.docid_column, 0)
            ranges.append((f, min(r[0] for r in rgs), max(r[1] for r in rgs)))
        else:
            ranges.append((f, base, base + meta.num_rows - 1))
            base += meta.num_rows
    return ranges


def fetch_docs(table: IndexedTable, docids: np.ndarray, columns: list[str]) -> pa.Table:
    """Fetch document rows by docid — column-pruned, file-pruned AND
    row-group-pruned: only row groups whose docid range contains a
    requested docid are read (the doc store is the corpus; bytes read
    must scale with the request). Preserves the order of ``docids``."""
    global FETCH_BYTES
    need = [c for c in columns if c != "_id" and c != "_score"]
    if not need:
        return pa.table({})
    src_cols = sorted(set(need + ([table.docid_column] if table.docid_column else [])))
    if len(docids) == 0:
        tbl = pq.read_table(sorted(table.source_files)[0], columns=src_cols)
        return tbl.slice(0, 0).select(need)
    sorted_ids = np.sort(np.asarray(docids, np.uint64))
    lo, hi = int(sorted_ids[0]), int(sorted_ids[-1])
    parts = []
    part_ids = []
    for f, flo, fhi in _file_docid_ranges(table):
        if fhi < lo or flo > hi:
            continue
        rgs = _rowgroup_ranges(f, table.docid_column, flo)
        take = [
            i for i, (rlo, rhi, _) in enumerate(rgs)
            if np.searchsorted(sorted_ids, rlo, "left") < np.searchsorted(sorted_ids, rhi, "right")
        ]
        if not take:
            continue
        pf = pq.ParquetFile(f)
        part = pf.read_row_groups(take, columns=src_cols)
        col_bytes = _rg_col_bytes(f)
        FETCH_BYTES += sum(col_bytes[i].get(c, 0) for i in take for c in src_cols)
        parts.append(part)
        if table.docid_column:
            part_ids.append(
                part.column(table.docid_column).to_numpy(zero_copy_only=False).astype(np.uint64)
            )
        else:
            # rank docids: row groups are docid-contiguous ranges
            part_ids.append(
                np.concatenate(
                    [np.arange(rgs[i][0], rgs[i][1] + 1, dtype=np.uint64) for i in take]
                )
            )
    tbl = pa.concat_tables(parts)
    all_ids = np.concatenate(part_ids)
    order = np.argsort(all_ids)
    pos = order[np.searchsorted(all_ids[order], docids)]
    return tbl.take(pa.array(pos)).select(need)


# ------------------------------------------------------------------ select

def _expand_query_ast(node, expander: dict):
    """--query_expander (lib/proc.c:330-430): rewrite matching terms
    with their substitution query before evaluation."""
    if isinstance(node, (TermNode, PhraseNode)) and getattr(node, "mode", "match") in (
        "match", "prefix"
    ):
        key = node.text
        if key not in expander:
            # synonym tables normalize their keys (KEY_NORMALIZE)
            from .normalize import normalize as _norm

            key = _norm(key)[0]
        if key in expander:
            sub = parse_query(expander[key])
            if getattr(node, "mode", "match") == "prefix" and isinstance(
                sub, TermNode
            ) and sub.mode == "match":
                # 'mroon*' expands the word and keeps the prefix op
                # (expand_query token walk, lib/proc.c:383)
                sub.mode = "prefix"
            return sub
    for attr in ("children",):
        if hasattr(node, attr):
            setattr(node, attr, [_expand_query_ast(c, expander) for c in getattr(node, attr)])
    for attr in ("positive", "negative", "base", "adjust"):
        if hasattr(node, attr) and getattr(node, attr) is not None:
            setattr(node, attr, _expand_query_ast(getattr(node, attr), expander))
    return node


def _unsigned_shift(tbl: pa.Table, target: str, bi: np.ndarray, oi: np.ndarray) -> np.ndarray:
    """``col >>>= n`` at the column's declared integer width."""
    width = 64
    if target in tbl.column_names:
        t = tbl.column(target).type
        if pa.types.is_integer(t):
            width = t.bit_width
    mask = np.uint64(2**width - 1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return ((bi.astype(np.uint64) & mask) >> oi.astype(np.uint64)).astype(
        np.int64
    ).astype(np.float64)


def _eval_scorer_expr(expr: str, docids, scores, table: IndexedTable) -> tuple:
    """--scorer per-record expression (lib/proc.c:1126-1150), e.g.
    ``_score = -n_chars``, ``_score *= 2``, ``col &= mask``, or a full
    script expression (``_score = n_chars > 300 ? _score * 2 :
    _score``). The target may be ``_score`` or any column (the full
    GRN_OP_ASSIGN family incl. bit/shift compounds). Returns
    ``(target, values)`` aligned to ``docids``; parsed and evaluated by
    the script-syntax engine, vectorized over the matched rows only
    (docid-pruned fetch)."""
    from .script import eval_filter, parse_assignment

    target, op, rhs = parse_assignment(expr)
    names = [c for c in _pred_columns(rhs) if c != "_score"]
    fetch_names = sorted(set(names) | ({target} if target != "_score" and op != "=" else set()))
    cols: dict[str, pa.Array] = {"_score": pa.array(scores, pa.float64())}
    if fetch_names:
        fetched = fetch_docs(table, docids, fetch_names)
        for c in fetch_names:
            cols[c] = fetched.column(c)
    tbl = pa.table(cols)
    out = eval_filter(rhs, tbl)
    # integer expressions stay int64 for a non-_score target — float64
    # mantissa loss flips INT64_MAX-scale values (the reference's VM
    # registers are typed)
    int_ok = target != "_score"
    if isinstance(out, pa.Scalar):
        dt = (
            np.int64 if int_ok and pa.types.is_integer(out.type) else np.float64
        )
        out_np = np.full(len(docids), out.as_py(), dt)
    else:
        arr = out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out
        if int_ok and pa.types.is_integer(arr.type):
            out_np = arr.to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            out_np = np.asarray(
                arr.to_numpy(zero_copy_only=False), np.float64
            )
    if op == "=":
        return target, out_np
    if target == "_score":
        base = np.asarray(scores, np.float64)
    else:
        base = np.asarray(
            tbl.column(target).to_numpy(zero_copy_only=False), np.float64
        )
    bi, oi = base.astype(np.int64), out_np.astype(np.int64)
    vals = {
        "+=": lambda: base + out_np,
        "-=": lambda: base - out_np,
        "*=": lambda: base * out_np,
        "/=": lambda: (
            np.trunc(base / out_np)
            if target in tbl.column_names
            and pa.types.is_integer(tbl.column(target).type)
            else base / out_np
        ),
        "%=": lambda: base - np.trunc(base / out_np) * out_np,
        "&=": lambda: (bi & oi).astype(np.float64),
        "|=": lambda: (bi | oi).astype(np.float64),
        "^=": lambda: (bi ^ oi).astype(np.float64),
        "<<=": lambda: (bi << oi).astype(np.float64),
        ">>=": lambda: (bi >> oi).astype(np.float64),
        ">>>=": lambda: _unsigned_shift(tbl, target, bi, oi),
    }[op]()
    return target, vals


_ADJUSTER_RE = None


def _apply_adjuster(adjuster: str, result: MatchResult, reader: IndexReader) -> MatchResult:
    """--adjuster ``col @ "term" * factor [+ ...]``
    (grn_select_apply_adjuster, lib/proc.c:516-548): add factor * tf to
    matching documents' scores; never adds documents."""
    import re as _re

    global _ADJUSTER_RE
    if _ADJUSTER_RE is None:
        _ADJUSTER_RE = _re.compile(r'(\w+)\s*@\s*"([^"]+)"(?:\s*\*\s*([0-9.]+))?')
    # factors must be +-separated (grn_parser: adjuster is a sum of
    # weighted matches — a missing + is a syntax error, rc -63)
    for part in adjuster.split("+"):
        if part.strip() and not _re.fullmatch(
            r'\s*\w+\s*@\s*"[^"]+"(?:\s*\*\s*[0-9.]+)?\s*', part
        ):
            raise ValueError(f"Syntax error: <{adjuster}>")
    for col, term, factor in _ADJUSTER_RE.findall(adjuster):
        f = float(factor) if factor else 1.0
        si = reader.section(col)
        tid = si.term_id(term)
        if tid is None:
            continue
        pl = si.postings(tid)
        bump = MatchResult(pl.docids.copy(), pl.tfs.astype(np.float64) * f)
        result = op_adjust(result, bump)
    return result


def _term_extract_match(table: "IndexedTable", col: str, text: str) -> MatchResult:
    """``col *T "text"`` (grn_ii_term_extract over a key table,
    lib/ii.c:5966-6046): longest-prefix walk of the normalized text
    over the table's value set; rows whose value was extracted match.
    The value set is vocabulary-sized (a key table), so collecting it
    is a dimension-table read, not a corpus materialization."""
    import unicodedata

    import pyarrow.parquet as pq2

    vals: set[str] = set()
    for f in table.source_files:
        t = pq2.read_table(f, columns=[col])
        vals.update(
            v for v in t.column(col).to_pylist() if isinstance(v, str)
        )
    norm = unicodedata.normalize("NFKC", text).lower()
    # values compare normalized (KEY_NORMALIZE tables store normalized
    # keys; plain columns normalize at match time like the reference's
    # lexicon lookup)
    by_norm: dict[str, list[str]] = {}
    for v in vals:
        if v:
            by_norm.setdefault(
                unicodedata.normalize("NFKC", v).lower(), []
            ).append(v)
    by_first: dict[str, list[str]] = {}
    for nv in by_norm:
        by_first.setdefault(nv[0], []).append(nv)
    for lst in by_first.values():
        lst.sort(key=len, reverse=True)
    matched: set[str] = set()
    i, n = 0, len(norm)
    while i < n:
        best = None
        for k in by_first.get(norm[i], ()):
            if norm.startswith(k, i):
                best = k
                break
        if best:
            matched.update(by_norm[best])
            i += len(best)
        else:
            i += 1
    pred = DeferredPred(("in_set", ("col", col), matched), (col,))
    return _scan_pred(table, pred)


def _reverse_sub_filter_keys(
    files: list[str], source_col: str, filter_str: str
) -> pa.Array:
    """sub_filter through an INDEX-column accessor (the reverse
    direction, grn_accessor_resolve over a GRN_ACCESSOR_LOOKUP,
    lib/proc.c:5269): run the sub filter on the index's DATA table and
    return the matching rows' source values — the host table's keys."""
    from .script import eval_filter, parse_filter

    ast = parse_filter(filter_str)
    cols = sorted(set(_pred_columns(ast)) | {source_col})
    chunks: list[pa.Array] = []
    for f in sorted(files):
        pf = pq.ParquetFile(f)
        for rg in range(pf.metadata.num_row_groups):
            tbl = pf.read_row_group(rg, columns=cols)
            mask = eval_filter(ast, tbl)
            if isinstance(mask, (pa.Array, pa.ChunkedArray)):
                mask = pc.fill_null(mask, False)
            vals = tbl.column(source_col).filter(mask)
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            if pa.types.is_list(vals.type) or pa.types.is_large_list(vals.type):
                vals = pc.list_flatten(vals)
            chunks.append(vals)
    if not chunks:
        return {}
    # vectorized count per distinct source value (each index-table row
    # matching the sub filter contributes 1 to its source value's score)
    vc = pc.value_counts(pa.chunked_array(chunks))
    return {
        v: float(c)
        for v, c in zip(
            vc.field("values").to_pylist(), vc.field("counts").to_pylist()
        )
        if v is not None
    }


def _sub_select_keys(ref_t, files: list[str], key_col: str, sub: str) -> dict:
    """Key → score of the referenced table's rows matching a sub
    filter. Plain predicates run as the streaming scan
    (_sub_filter_keys, score 1); a sub filter that itself needs the
    search engine — query(), nested sub_filter(), match-mode operators
    — runs as a full select on the referenced table's own index, and
    its SCORES ride along (run_sub_filter executes a complete
    grn_table_select whose subrecord scores accumulate through
    grn_accessor_resolve's res_add, lib/proc.c:5168-5293)."""
    needs_engine = any(
        tok in sub for tok in ("query(", "sub_filter(", "*N", "*S", "*T")
    )
    if ref_t is None or not needs_engine:
        keys = _sub_filter_keys(list(files), key_col, sub)
        return {k: 1.0 for k in keys.to_pylist()}
    res = select(
        ref_t, filter=sub, output_columns=(key_col, "_score"), limit=-1,
        sortby="_id",
    )
    rows = res["rows"]
    return dict(
        zip(rows.column(key_col).to_pylist(),
            (float(s) for s in rows.column("_score").to_pylist()))
    )


def _sub_filter_path_keys(table: "IndexedTable", path: str, sub: str) -> pa.Array:
    """sub_filter over a dotted accessor (``files.author``): resolve
    hop by hop — the predicate runs on the table the LAST segment
    references, then key sets join back up the chain (grn_accessor
    chain resolution, lib/proc.c:5269-5293). Every hop is a
    dimension-table scan."""
    base, _, rest = path.partition(".")
    ent = _ref_entry(table, base)
    if ent is None:
        raise ValueError(
            f"sub_filter: no reference target declared for column {base!r} "
            "(set IndexedTable.refs[col] = (files, key_column))"
        )
    files, key_col, ref_t = ent[:3]
    if not rest:
        if len(ent) >= 4 and ent[3] == "reverse":
            return _reverse_sub_filter_keys(list(files), key_col, sub)
        return _sub_select_keys(ref_t, list(files), key_col, sub)
    inner = _sub_filter_path_keys(ref_t, rest, sub)
    seg = rest.split(".", 1)[0]
    seg_ent = (ref_t.refs or {}).get(seg) if ref_t is not None else None
    if seg_ent is not None and len(seg_ent) >= 4 and seg_ent[3] == "reverse":
        # the inner hop was an index-column accessor: its keys ARE
        # ref_t's keys — join back on the key column itself
        seg = key_col
    out: dict = {}
    inner_vals = np.fromiter(inner.values(), np.float64, len(inner))
    inner_arr = pa.array(list(inner.keys()))  # built ONCE, cast per type below
    kset_by_type: dict = {}
    for f in sorted(files):
        pf = pq.ParquetFile(f)
        for rg in range(pf.metadata.num_row_groups):
            tbl = pf.read_row_group(
                rg, columns=sorted({key_col, seg})
            )
            col = tbl.column(seg)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            # vectorized join-back: index_in against the inner key set,
            # per-row sums via list_parent_indices for list columns;
            # only rows with a positive score enter the (small) result
            is_list = pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
            vt = col.type.value_type if is_list else col.type
            if vt not in kset_by_type:
                try:
                    kset_by_type[vt] = inner_arr.cast(vt)
                except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
                    kset_by_type[vt] = None
            kset = kset_by_type[vt]
            if kset is None:
                continue  # type mismatch: zero contributions (see above)
            totals = np.zeros(tbl.num_rows, np.float64)
            if is_list:
                parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
                iv = pc.index_in(col.flatten(), value_set=kset).to_numpy(
                    zero_copy_only=False
                ).astype(np.float64)
                known = ~np.isnan(iv)
                contrib = np.zeros(len(iv), np.float64)
                if len(inner_vals):
                    contrib[known] = inner_vals[iv[known].astype(np.int64)]
                np.add.at(totals, parent, contrib)
            else:
                iv = pc.index_in(col, value_set=kset).to_numpy(
                    zero_copy_only=False
                ).astype(np.float64)
                known = ~np.isnan(iv)
                if len(inner_vals):
                    totals[known] = inner_vals[iv[known].astype(np.int64)]
            hit = np.nonzero(totals > 0)[0]
            if len(hit):
                hkeys = tbl.column(key_col).take(pa.array(hit)).to_pylist()
                for k, s in zip(hkeys, totals[hit]):
                    out[k] = out.get(k, 0.0) + float(s)
    return out


def _match_pred_tree(n, reader):
    """Map a residual filter AST that is a pure boolean tree of
    `col @ "text"` units over DECLARED-index sections to qlang match
    nodes (set-wise evaluation with score accumulation). Returns None
    when any leaf isn't an indexed match."""
    from .qlang import AndNode, NotNode, OrNode, TermNode

    if n[0] == "and":
        l, r = _match_pred_tree(n[1], reader), _match_pred_tree(n[2], reader)
        return AndNode([l, r]) if l is not None and r is not None else None
    if n[0] == "or":
        l, r = _match_pred_tree(n[1], reader), _match_pred_tree(n[2], reader)
        return OrNode([l, r]) if l is not None and r is not None else None
    if n[0] == "and_not":
        l, r = _match_pred_tree(n[1], reader), _match_pred_tree(n[2], reader)
        return (
            NotNode(positive=l, negative=r)
            if l is not None and r is not None else None
        )
    if (
        n[0] == "@" and n[1][0] == "col" and n[2][0] == "str"
        and n[1][1] in reader.sections
    ):
        return TermNode(n[2][1], section=n[1][1], explicit=True)
    return None


#: single-slot registry: the command server installs its query-expander
#: resolver (name -> {term: expansion}) so query()'s third argument can
#: resolve named expanders (plugins/query_expanders, lib/proc.c:330)
_QUERY_EXPANDER_RESOLVER: list = [None]


def set_query_expander_resolver(fn) -> None:
    _QUERY_EXPANDER_RESOLVER[0] = fn


def _eval_filter(filter_str: str, reader: IndexReader, table: IndexedTable, spec: MatchSpec) -> MatchResult:
    """--filter script expression: index-capable `col @ "text"` units
    run through the posting lists; the residual predicate runs as a
    vectorized column scan (grn_table_select_index vs _sequential,
    lib/expr.c:5038/4673)."""
    from .script import eval_filter, parse_filter, split_filter

    ast = _strip_key_suffix(parse_filter(filter_str))
    plan = split_filter(ast, geo_columns=set(table.geo_indexes or ()))
    acc: MatchResult | None = None
    for unit in plan.geo:
        # geo selector via the mesh-cover index scan (grn_geo_select_
        # in_rectangle/in_circle, lib/geo.c:687-1016); score 1 per match
        # like res_add with score=1
        from .geoindex import open_geo_index

        gi = open_geo_index(table.geo_indexes[unit[1]])
        if unit[0] == "rect":
            docids = gi.search_rectangle(unit[2], unit[3])
        else:
            docids = gi.search_circle(unit[2], unit[3], unit[4])
        m = MatchResult(docids, np.ones(len(docids), np.float64))
        acc = m if acc is None else op_and(acc, m)
    for mc, q, *extra in plan.subqueries:
        # query("cols", "q"[, expander]) — nested sub-select as a
        # predicate (lib/proc.c:5138-5268); in a `== true` boolean
        # context the membership result scores 1
        boolctx = [extra[0]] if extra else []
        expander_name = extra[1] if len(extra) > 1 else None
        sub_spec = parse_match_columns(mc)
        sub_spec.scorer = spec.scorer
        _expand_index_sections(sub_spec, table)
        q_ast = parse_query(q)
        if expander_name:
            if _QUERY_EXPANDER_RESOLVER[0] is None:
                raise ValueError(
                    f"query(): no query expander registry for "
                    f"{expander_name!r}"
                )
            q_ast = _expand_query_ast(
                q_ast, _QUERY_EXPANDER_RESOLVER[0](expander_name)
            )
        m = _eval_node(q_ast, reader, sub_spec, table)
        if boolctx and boolctx[0]:
            m = MatchResult(m.docids, np.ones(len(m.docids), np.float64))
        acc = m if acc is None else op_and(acc, m)
    for col, text, *mode_rest in plan.matches:
        mode = mode_rest[0] if mode_rest else "match"
        if mode in ("near", "similar"):
            # col *N "a b" / col *S "text" (GRN_OP_NEAR / GRN_OP_SIMILAR
            # through grn_table_select's index path, lib/expr.c:4360).
            # Without a DECLARED index there is no sequential fallback
            # (grn_table_select_sequential: "not implemented operator
            # assigned", rc -38)
            if table.auto_indexed or col.split(".", 1)[0] not in reader.sections:
                raise ValueError("not implemented operator assigned")
            from .qlang import NearNode, SimilarNode

            node = (
                NearNode(text, max_interval=10) if mode == "near"
                else SimilarNode(text)
            )
            sub_spec = parse_match_columns(col)
            sub_spec.scorer = spec.scorer
            m = _eval_match_node(node, reader, sub_spec, table)
            acc = m if acc is None else op_and(acc, m)
            continue
        if mode == "term_extract":
            # col *T "text" (grn_ii_term_extract, lib/ii.c:5966): rows
            # whose value appears in the text by longest-prefix walk.
            # The value set is key/vocabulary sized (a dimension table)
            # — collected once, no corpus materialization.
            m = _term_extract_match(table, col, text)
            acc = m if acc is None else op_and(acc, m)
            continue
        if "." in col:
            base, sub = col.split(".", 1)
            if sub == "_key" and base in reader.sections:
                col = base  # reference column stores the key bytes
            else:
                # nested index match through the reference column
                # (select/index/nested, lib/db.c:8800)
                from .qlang import TermNode

                m = _nested_ref_match(TermNode(text), table, base, sub, spec)
                if m is None:
                    raise ValueError(
                        f"{col}: no reference target declared for {base!r}"
                    )
                acc = m if acc is None else op_and(acc, m)
                continue
        if table.auto_indexed or col not in reader.sections:
            # no DECLARED index on this column: col @ "x" is the
            # reference's sequential substring scan (normalized both
            # sides) — the auto-built index's grouped-alpha tokens
            # can't serve partial-word substrings
            pred = DeferredPred(("@", ("col", col), ("str", text)), (col,))
            m = _apply_pred_to(table, pred, acc) if acc is not None else _scan_pred(
                table, pred
            )
            acc = m
            continue
        si = reader.section(col)
        kw = dict(
            n_docs=reader.n_docs, avgdl=reader.avgdl(col),
            doclens=reader.doclens(col), weight=1.0,
        )
        if col in reader.meta.get("uvector_sections", ()):
            # vector section: the whole filter text is ONE element term
            tokens = [(text, 0)]
        else:
            tokens = _query_tokens(text, reader)
        m = term_match(si, tokens, spec.scorer, **kw)
        acc = m if acc is None else op_and(acc, m)
    pending_preds: list[DeferredPred] = []
    for col, pat in plan.regexps:
        r = _regexp_match(pat, col, reader, table)
        if isinstance(r, DeferredPred):
            pending_preds.append(r)
        else:
            acc = r if acc is None else op_and(acc, r)
    subf_scores: list[tuple[str, dict]] = []
    for col, sub in plan.sub_filters:
        # sub_filter(col, "f"): select on the table col REFERENCES,
        # resolve the matching keys back as `col in keys` (run_sub_
        # filter + grn_accessor_resolve, lib/proc.c:5168-5293). The
        # referenced side is a dimension table — broadcast-small; its
        # key set rides the predicate instead of a shuffle join.
        base = col.split(".", 1)[0]
        ent0 = (table.refs or {}).get(base)
        if ent0 is None:
            raise ValueError(
                f"sub_filter: no reference target declared for column {base!r} "
                "(set IndexedTable.refs[col] = (files, key_column))"
            )
        if len(ent0) >= 4 and ent0[3] == "reverse":
            # index-column accessor: filter the index's data table,
            # matched rows' source values are THIS table's keys
            smap = _reverse_sub_filter_keys(list(ent0[0]), ent0[1], sub)
            tgt = "_key"
        else:
            if "." in col:
                smap = _sub_filter_path_keys(table, col, sub)
            else:
                ref_files, key_col = ent0[:2]
                smap = _sub_select_keys(
                    ent0[2] if len(ent0) > 2 else None,
                    list(ref_files), key_col, sub,
                )
            tgt = base
        pending_preds.append(
            DeferredPred(
                ("in_set", ("col", tgt), pa.array(list(smap))), (tgt,)
            )
        )
        if any(v != 1.0 for v in smap.values()):
            subf_scores.append((tgt, smap))
    if plan.predicate is not None and not table.auto_indexed:
        # a residual that is a pure boolean tree of INDEXED `col @
        # "text"` units evaluates set-wise with score accumulation —
        # grn_table_select builds temporary result sets per scan-info
        # segment and res_add sums scores (select/score/
        # need_temporary_table; lib/expr.c:4360 scan_info)
        tree = _match_pred_tree(plan.predicate, reader)
        if tree is not None:
            m = _eval_node(tree, reader, spec, table)
            acc = m if acc is None else op_and(acc, m)
            plan.predicate = None  # consumed
    if plan.predicate is not None:
        pred = DeferredPred(plan.predicate, _pred_columns(plan.predicate))
        dotted = {c.split(".", 1)[0] for c in pred.columns if "." in c}
        if len(dotted) == 1 and all("." in c for c in pred.columns):
            # predicate entirely over one reference path (e.g.
            # owner.birthday >= a && owner.birthday < b): evaluate it on
            # the REFERENCED table, then keep `base in keys` here —
            # sub_filter semantics (lib/proc.c:5269-5293); valid because
            # the reference is scalar-or-vector keyed and conjunction
            # distributes over the key join
            base = next(iter(dotted))
            ent = _ref_entry(table, base)
            if ent is not None:
                files, key_col, _ref_t = ent
                sub_ast = _strip_ref_prefix(plan.predicate, base + ".")
                keys = _ref_pred_keys(files, key_col, sub_ast)
                pred = DeferredPred(("in_set", ("col", base), keys), (base,))
        pending_preds.append(pred)
    for pred in pending_preds:
        if acc is None:
            # no index part anywhere: streaming scan (never a whole-
            # corpus driver materialization)
            acc = _scan_pred(table, pred)
        else:
            # bounded by the index match: evaluate the residual ONLY
            # over the matched docids (docid-pruned fetch)
            acc = _apply_pred_to(table, pred, acc)
    if (
        acc is not None and subf_scores and len(acc.docids)
        and np.all(acc.scores == 1.0)
    ):
        # sub_filter scores accumulate into the outer records
        # (grn_accessor_resolve res_add sums subrecord scores,
        # lib/proc.c:5269-5293)
        fetched = fetch_docs(
            table, acc.docids, sorted({t for t, _ in subf_scores})
        )
        total = np.zeros(len(acc.docids), np.float64)
        for tgt, smap in subf_scores:
            # vectorized map-and-sum: index_in against the score keys,
            # list columns flatten once with parent rows from offsets
            vals = np.fromiter(smap.values(), np.float64, len(smap))
            col = fetched.column(tgt)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            is_list = pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
            try:
                keys = pa.array(list(smap.keys())).cast(
                    col.type.value_type if is_list else col.type
                )
            except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
                # key/column type mismatch: no value can match — the
                # dict-get path contributed 0.0 here, preserve that
                # degrade-to-zero behavior instead of failing the select
                continue
            if is_list:
                parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
                flat = col.flatten()
                idx = pc.index_in(flat, value_set=keys)
                iv = idx.to_numpy(zero_copy_only=False).astype(np.float64)
                known = ~np.isnan(iv)
                contrib = np.zeros(len(iv), np.float64)
                contrib[known] = vals[iv[known].astype(np.int64)]
                np.add.at(total, parent, contrib)
            else:
                idx = pc.index_in(col, value_set=keys)
                iv = idx.to_numpy(zero_copy_only=False).astype(np.float64)
                known = ~np.isnan(iv)
                contrib = np.zeros(len(iv), np.float64)
                contrib[known] = vals[iv[known].astype(np.int64)]
                total += contrib
        acc = MatchResult(acc.docids, total)
    return acc if acc is not None else MatchResult.empty()


def select(
    table: IndexedTable,
    query: str | None = None,
    filter: str | None = None,
    match_columns: str | None = None,
    scorer: str | None = None,
    scorer_expr: str | None = None,
    adjuster: str | None = None,
    query_expander: dict | None = None,
    sortby: str = "-_score",
    output_columns: tuple[str, ...] = ("_id", "_score"),
    offset: int = 0,
    limit: int = 10,
    drilldown: str | None = None,
    drilldown_limit: int = 10,
    drilldown_calc_types: tuple[str, ...] = (),
    drilldown_calc_target: str | None = None,
    drilldown_sortby: str = "-_nsubrecs",
    drilldowns: dict | None = None,
    match_escalation_threshold: int = 0,
    query_flags: str | None = None,
    sort_tie: str = "asc",
) -> dict:
    """Returns {"hits": int, "rows": pa.Table, "drilldown": pa.Table?,
    "drilldowns": {label: pa.Table}?}.

    Mirrors grn_select's parameter surface and stage order
    (lib/proc.c:876-1195): match -> adjuster -> scorer expr -> sort ->
    projection -> drilldown. ``limit=-1`` returns all rows (negative
    offset/limit wrap, lib/util.c:37-80). ``drilldown`` takes one or
    more comma-separated keys (multi-key packing, lib/db.c:3555-3811);
    ``drilldowns`` is the labeled form (--drilldowns[label].keys ...,
    lib/proc.c:783-874): ``{label: {"keys": [...], "limit": int,
    "sortby": str, "calc_types": (...), "calc_target": str}}``.
    """
    from .qlang import parse_query_flags, strip_pragmas

    reader = table.reader()
    spec = parse_match_columns(match_columns) if match_columns else MatchSpec(
        [(reader.meta["sections"][0], 1.0, None)]
    )
    _expand_index_sections(spec, table)
    if scorer:
        spec.scorer = scorer
    spec.escalation_threshold = match_escalation_threshold

    allow_pragma, allow_column, allow_leading_not = parse_query_flags(query_flags)
    default_op = "and"
    if query and allow_pragma:
        query, pragma = strip_pragmas(query)
        if pragma.escalation_threshold is not None:
            spec.escalation_threshold = pragma.escalation_threshold
        if pragma.default_op is not None:
            default_op = pragma.default_op

    if query:
        ast = parse_query(
            query, allow_column=allow_column, default_op=default_op,
            allow_leading_not=allow_leading_not,
        )
        if query_expander:
            ast = _expand_query_ast(ast, query_expander)
        result = _eval_node(ast, reader, spec, table)
    else:
        result = _all_docs(reader)

    if filter:
        fres = _eval_filter(filter, reader, table, spec)
        result = op_and(result, fres) if query else fres

    if reader.tombstones is not None:
        result = reader.filter_alive(result)

    if adjuster and result.nhits:
        result = _apply_adjuster(adjuster, result, reader)
    computed_cols: dict[str, np.ndarray] = {}
    computed_base: np.ndarray | None = None
    if scorer_expr and result.nhits:
        tgt, vals = _eval_scorer_expr(scorer_expr, result.docids, result.scores, table)
        if tgt == "_score":
            result = MatchResult(result.docids, vals)
        else:
            # assignment to a regular column (the reference VM writes
            # through to the column; here the computed values override
            # the stored ones for this result's projection)
            computed_cols[tgt] = vals
            computed_base = result.docids.copy()

    nhits = result.nhits
    if limit < 0:
        limit = nhits
    # ---- sort (grn_table_sort, lib/db.c:10371-10530; key-spec parser
    # db.c:11327-11387 — mixed pseudo (_score/_id) and column keys)
    if sortby in ("-_score", ""):
        docids, scores = top_k(result, limit, offset, tie=sort_tie)
    elif sortby == "_id":
        order = np.argsort(result.docids)[offset : offset + limit]
        docids, scores = result.docids[order], result.scores[order]
    elif sortby == "-_id":
        order = np.argsort(result.docids)[::-1][offset : offset + limit]
        docids, scores = result.docids[order], result.scores[order]
    else:
        import re as _re

        from .qlang import _split_depth0

        # comma-split at paren depth 0: expression keys like
        # geo_distance(point, "0x0") carry commas (sort-key parser,
        # lib/db.c:11327)
        keys = [k.strip() for k in _split_depth0(sortby, ",") if k.strip()]
        cols = [k.lstrip("+-") for k in keys]
        plain = [
            c for c in cols
            if c in ("_score", "_id") or _re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", c)
        ]
        expr_keys = [c for c in cols if c not in plain]
        expr_asts = {}
        expr_deps: set[str] = set()
        if expr_keys:
            # expression sort keys (e.g. geo_distance(pt, "NxM")) — the
            # reference's grn_table_sort value-expr keys, incl the geo
            # sort key form (lib/db.c:10371; geo keys lib/geo.c:287)
            from .script import parse_filter as _pf

            for c in expr_keys:
                expr_asts[c] = _pf(c)
                expr_deps.update(
                    x for x in _pred_columns(expr_asts[c]) if x not in ("_id", "_score")
                )
        doc_cols = sorted(
            set(c for c in plain if c not in ("_score", "_id")) | expr_deps
        )
        doc_tbl = fetch_docs(table, result.docids, doc_cols) if doc_cols else None
        sort_cols: dict[str, pa.Array] = {}
        for c in cols:
            if c == "_score":
                sort_cols[c] = pa.array(result.scores, pa.float64())
            elif c == "_id":
                sort_cols[c] = pa.array(result.docids, pa.uint64())
            elif c in expr_asts:
                from .script import eval_filter as _ef

                batch = _with_pseudo(doc_tbl, result.docids, result.scores)
                v = _ef(expr_asts[c], batch)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(result.docids))
                elif isinstance(v, np.ndarray):
                    v = pa.array(v)
                sort_cols[c] = v
            else:
                sort_cols[c] = doc_tbl.column(c)
        # docid asc is the implicit final tiebreak (deterministic order)
        if "_id" not in sort_cols:
            sort_cols["_id"] = pa.array(result.docids, pa.uint64())
            keys.append("_id")
            cols.append("_id")
        sort_keys = [
            (c, "descending" if k.startswith("-") else "ascending")
            for k, c in zip(keys, cols)
        ]
        order = pc.sort_indices(pa.table(sort_cols), sort_keys=sort_keys).to_numpy()[
            offset : offset + limit
        ]
        docids, scores = result.docids[order], result.scores[order]

    # ---- projection ("*" = all doc-store columns, grn_obj_columns
    # lib/db.c:11187-11260)
    if "*" in output_columns:
        first = pq.ParquetFile(sorted(table.source_files)[0])
        # internal columns (_dummy_text) are hidden; columns already
        # named explicitly are not repeated. Name-sorted: the reference
        # iterates the DB's column catalog, a name-keyed PAT
        # (grn_obj_columns → grn_table_columns, lib/db.c:11187)
        named = set(output_columns) - {"*"}
        # pseudo columns (leading underscore: _id/_key/_score, plus our
        # internal _dummy_text) never come from `*` — grn_table_columns
        # enumerates only data columns (lib/db.c:11187); users cannot
        # create `_`-prefixed columns in the reference
        all_cols = sorted(
            n for n in first.schema_arrow.names
            if n not in named and not n.startswith("_")
        )
        # expand in place: `*, _key` renders data columns THEN _key
        # (grn_obj_columns appends at the `*` position)
        expanded: list[str] = []
        for c in output_columns:
            if c == "*":
                expanded.extend(all_cols)
            else:
                expanded.append(c)
        output_columns = tuple(expanded)
    out: dict[str, pa.Array] = {}
    import re as _re

    def _is_plain(c: str) -> bool:
        return bool(_re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", c))

    def _is_dotted(c: str) -> bool:
        return bool(_re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z0-9_.]+", c))

    _schema_names = _schema_names_of(sorted(table.source_files)[0])
    # a named column that doesn't exist is silently dropped from the
    # output (grn_obj_columns skips unresolvable names, lib/db.c:11187
    # — e.g. `_key` on a TABLE_NO_KEY table)
    output_columns = tuple(
        c for c in output_columns
        if not (_is_plain(c) and c not in _schema_names
                and c not in ("_id", "_score", "_score_int")
                and c not in computed_cols)
    )
    plain = [
        c for c in output_columns
        if c not in ("_id", "_score", "_score_int")
        and c not in computed_cols and _is_plain(c)
    ]
    dotted = [
        c for c in output_columns
        if _is_dotted(c) and (
            (table.refs and c.split(".", 1)[0] in table.refs)
            or (c.endswith("._key") and c.split(".", 1)[0] in _schema_names)
        )
    ]
    # a dotted accessor that doesn't resolve to a reference path is
    # silently dropped, like unknown plain names (`_key.garbage`,
    # `nonexistent.nested` — grn_obj_columns skips, lib/db.c:11187)
    output_columns = tuple(
        c for c in output_columns if not _is_dotted(c) or c in dotted
    )
    exprs = [
        c for c in output_columns
        if not _is_plain(c) and c not in dotted and c != "*"
    ]
    expr_deps: set[str] = set()
    expr_asts: dict[str, object] = {}
    snippet_like: dict[str, tuple[str, str]] = {}
    hl_full: dict[str, tuple] = {}
    if exprs:
        from .script import parse_filter as _pf

        for c in exprs:
            mf = _re.fullmatch(r"highlight_full\((.+)\)", c.strip(), _re.DOTALL)
            if mf:
                from .functions import parse_call_args

                args = parse_call_args(mf.group(1))
                # (column, normalizer, use_html_escape,
                #  [keyword, open, close]...) — proc_highlight_full
                # validates the shape (lib/proc.c:5684)
                if (
                    len(args) < 6
                    or (len(args) - 3) % 3 != 0
                    or args[0][0] != "ident"
                    or args[1][0] != "str"
                    or args[2][0] != "bool"
                ):
                    # malformed call: the value is null per record
                    # (proc_highlight_full arg validation returns null,
                    # lib/proc.c:5684)
                    hl_full[c] = None
                    continue
                nrm_name = str(args[1][1])
                if nrm_name:
                    from .normalize import CUSTOM_NORMALIZERS
                    from .tokenize import TOKENIZERS

                    known = nrm_name in (
                        "NormalizerAuto", "NormalizerNFKC100",
                        "NormalizerNFKC51",
                    ) or nrm_name in CUSTOM_NORMALIZERS
                    if not known:
                        # a tokenizer (or other proc) in the normalizer
                        # slot errors (proc_highlight_full,
                        # lib/proc.c:5727)
                        raise ValueError(
                            f"[highlight_full] not normalizer: "
                            f"#<proc:tokenizer {nrm_name} "
                            f"arguments:[$1, $2, $3]>"
                        )
                kw_specs = [
                    (str(args[i][1]), str(args[i + 1][1]), str(args[i + 2][1]))
                    for i in range(3, len(args), 3)
                ]
                hl_full[c] = (str(args[0][1]), nrm_name, bool(args[2][1]), kw_specs)
                expr_deps.add(str(args[0][1]))
                continue
            m = _re.fullmatch(r"(snippet_html|highlight_html)\((.+)\)", c.strip())
            if m:
                # keyword-bearing output functions (lib/proc.c:3998,
                # 4457): keywords come from the query's match terms;
                # the argument may be a column, a string literal, or
                # any script expression (e.g. title + " " + content)
                snippet_like[c] = (m.group(1), m.group(2))
                inner = m.group(2)
                if _re.fullmatch(r"\w+", inner):
                    expr_deps.add(inner)
                elif not (inner[0] in "'\"" and inner[-1] in "'\""):
                    expr_deps.update(
                        x for x in _pred_columns(_pf(inner))
                        if x not in ("_id", "_score")
                    )
                continue
            ast = _pf(c)
            expr_asts[c] = ast
            expr_deps.update(x for x in _pred_columns(ast) if x not in ("_id", "_score"))
    doc_cols = sorted(set(plain) | expr_deps | {c.split(".", 1)[0] for c in dotted})
    fetched = fetch_docs(table, docids, doc_cols) if doc_cols else None
    kw_terms: list[str] | None = None
    for c in output_columns:
        if c in computed_cols:
            idx = np.searchsorted(computed_base, docids)
            out[c] = pa.array(computed_cols[c][idx])
        elif c == "_id":
            out["_id"] = pa.array(docids, pa.uint64())
        elif c == "_score":
            out["_score"] = pa.array(scores, pa.float64())
        elif c == "_score_int":
            out["_score_int"] = pa.array(score_mod.score_int32(scores), pa.int32())
        elif c in dotted:
            base, sub = c.split(".", 1)
            out[c] = _ref_map_column(table, base, sub, fetched.column(base))
        elif c in hl_full:
            spec_hl = hl_full[c]
            if spec_hl is None:
                # malformed call renders null per record
                out[c] = pa.array([None] * len(docids), pa.string())
            elif isinstance(spec_hl, str):
                # not-a-normalizer: the error text is the value
                out[c] = pa.array([spec_hl] * len(docids), pa.string())
            else:
                from .functions import highlight_full as _hlf

                src_col, nrm, esc, kw_specs = spec_hl
                out[c] = _hlf(
                    fetched.column(src_col).combine_chunks(), nrm, esc,
                    kw_specs,
                )
        elif c in snippet_like:
            from . import functions as _fn

            if kw_terms is None:
                kw_terms = _collect_query_keywords(query) if query else []
            fn_name, col_name = snippet_like[c]
            fn = _fn.snippet_html if fn_name == "snippet_html" else _fn.highlight_html
            if _re.fullmatch(r"\w+", col_name):
                arg = fetched.column(col_name)
            elif col_name[0] in "'\"" and col_name[-1] in "'\"":
                arg = pa.array([col_name[1:-1]] * len(docids), pa.string())
            else:
                from .script import eval_filter as _ef2
                from .script import parse_filter as _pf2

                batch = _with_pseudo(fetched, docids, scores)
                arg = _ef2(_pf2(col_name), batch)
                if isinstance(arg, pa.Scalar):
                    arg = pa.array([arg.as_py()] * len(docids), pa.string())
                if isinstance(arg, pa.ChunkedArray):
                    arg = arg.combine_chunks()
            out[c] = fn(arg, kw_terms)
        elif c in expr_asts:
            from .script import eval_filter as _ef

            batch = _with_pseudo(fetched, docids, scores)
            val = _ef(expr_asts[c], batch)
            if isinstance(val, pa.Scalar):
                val = pa.array([val.as_py()] * len(docids))
            out[c] = val
        else:
            out[c] = fetched.column(c)
    rows = pa.table(out)

    result_dict = {"hits": nhits, "rows": rows, "n_out": len(docids)}
    if drilldown:
        result_dict["drilldown"] = _run_drilldown(
            table, result, [k.strip() for k in drilldown.split(",")],
            drilldown_limit, drilldown_sortby, drilldown_calc_types,
            drilldown_calc_target,
        )
    if drilldowns is not None:
        out: dict[str, pa.Table] = {}
        for label, spec in drilldowns.items():
            keys = spec["keys"]
            if isinstance(keys, str):
                keys = [k.strip() for k in keys.split(",")]
            if not keys:
                # empty keys: the reference silently omits the labeled
                # drilldown from the output map (lib/proc.c:806)
                continue
            out[label] = _run_drilldown(
                table, result, list(keys),
                spec.get("limit", 10), spec.get("sortby"),
                tuple(spec.get("calc_types", ())), spec.get("calc_target"),
                spec.get("output_columns"),
            )
        result_dict["drilldowns"] = out
    return result_dict


def _dd_resolve(name: str, keys: list[str], cols: dict) -> list[str]:
    """Resolve a drilldown output/sort accessor to grouped-table
    columns: ``_key`` → the group key(s), ``_key[i]`` → the i-th key of
    a multi-key drilldown, ``_value.col`` / ``col._key`` → the key
    sub-value column (lib/proc.c:705-780 accessor forms)."""
    if name.startswith("_value."):
        name = name[len("_value."):]
    if name.endswith("._key"):
        name = name[: -len("._key")]
    if name.startswith("_key[") and name.endswith("]"):
        i = int(name[5:-1])
        return [keys[i]] if i < len(keys) else []
    if name == "_key" and name not in cols:
        return list(keys)
    return [name] if name in cols else []


def _run_drilldown(
    table: IndexedTable,
    result: MatchResult,
    keys: list[str],
    limit: int,
    sortby: str | None,
    calc_types: tuple[str, ...],
    calc_target: str | None,
    output_columns: list[str] | None = None,
) -> pa.Table:
    """Group the FULL result set by one or more doc columns
    (grn_table_group, lib/db.c:3812-3895; multi-key packing
    lib/db.c:3555-3811) with optional MAX/MIN/SUM/AVG calc types on a
    calc target (lib/rset.c:19-200), then sort by the drilldown sort
    spec (drilldown_sortby, lib/proc.c:705-780: _nsubrecs, _key or any
    output column, +/- prefixed; ``sortby=None`` keeps the reference's
    grn_hash insertion order). ``output_columns`` projects with the
    ``_key[i]`` / ``_value.col`` accessor forms."""
    need = list(keys) + ([calc_target] if calc_target else [])
    dd_tbl = fetch_docs(table, result.docids, need)
    for vk in keys:
        # vector drilldown key: each element is its own group member
        # (grn_table_group on a vector column iterates elements,
        # lib/db.c:3812 GRN_OBJ_VECTOR branch); explode the rows,
        # repeating the scalar columns per element
        if not pa.types.is_list(dd_tbl.column(vk).type):
            continue
        lst = dd_tbl.column(vk).combine_chunks()
        parents = pc.list_parent_indices(lst)
        dd_tbl = pa.table(
            {
                c: pc.list_flatten(lst)
                if c == vk
                else dd_tbl.column(c).take(parents)
                for c in dd_tbl.column_names
            }
        )
    aggs = [("_one", "sum")]
    dd_tbl = dd_tbl.append_column("_one", pa.array(np.ones(dd_tbl.num_rows, np.int64)))
    calc_map = {"MAX": "max", "MIN": "min", "SUM": "sum", "AVG": "mean"}
    for ct in calc_types:
        aggs.append((calc_target, calc_map[ct.upper()]))
    # single-threaded group-by keeps first-occurrence order — the
    # reference's grn_hash insertion order, which IS the drilldown
    # output order when no sort spec is given
    grouped = dd_tbl.group_by(keys, use_threads=False).aggregate(aggs)
    # arrow names aggregates "<col>_<agg>"; map to _nsubrecs/_max/...
    out_cols = {k: grouped.column(k) for k in keys}
    out_cols["_nsubrecs"] = grouped.column("_one_sum")
    for ct in calc_types:
        src = f"{calc_target}_{calc_map[ct.upper()]}"
        dst = "_avg" if ct.upper() == "AVG" else f"_{ct.lower()}"
        out_cols[dst] = grouped.column(src)
    # _id = group insertion order (1-based), addressable in sort specs
    out_cols["_id"] = pa.array(np.arange(1, grouped.num_rows + 1, dtype=np.int32))
    grouped = pa.table(out_cols)
    if sortby:
        # sort: user spec first, group keys ascending as the tiebreak
        sort_keys = []
        for part in sortby.split(","):
            part = part.strip()
            if not part:
                continue
            direction = "descending" if part.startswith("-") else "ascending"
            sort_keys.extend(
                (c, direction) for c in _dd_resolve(part.lstrip("+-"), keys, out_cols)
            )
        seen = [n for n, _ in sort_keys]
        sort_keys.extend((k, "ascending") for k in keys if k not in seen)
        if "_id" not in seen:
            sort_keys.append(("_id", "ascending"))
        order = pc.sort_indices(grouped, sort_keys=sort_keys)
        grouped = grouped.take(order)
    n = grouped.num_rows
    eff = max(0, n + limit + 1) if limit < 0 else limit
    grouped = grouped.slice(0, eff)
    if output_columns:
        cols = {c: None for c in grouped.column_names}
        names, arrays = [], []
        for name in output_columns:
            resolved = _dd_resolve(name, keys, cols)
            if not resolved and len(keys) == 1 and table.refs and keys[0] in table.refs:
                # a column OF the referenced table: the group key is a
                # reference id, so ``label`` reads Tags[key].label
                # (accessor chains through the key table, lib/proc.c:747)
                col = _ref_column_lookup(table, keys[0], name, grouped.column(keys[0]))
                if col is not None:
                    names.append(name)
                    arrays.append(col)
                    continue
            for c in resolved:
                names.append(name.removeprefix("_value.") if len(resolved) == 1 else c)
                arrays.append(grouped.column(c))
        return pa.table(arrays, names=names)
    return grouped.drop_columns(["_id"])


def _ref_column_lookup(
    table: IndexedTable, ref_col: str, name: str, keys_arr
) -> pa.Array | None:
    """Map group keys (values of a reference column) to ``name`` in the
    referenced table via its key column — the drilldown accessor walk
    through a reference type (lib/proc.c:747). The read goes through
    the capped command-surface helper: referenced tables are DDL'd
    lookup tables, never corpus-scale."""
    from .server import read_command_table

    files, key_col, _ref_t = table.refs[ref_col]
    try:
        # the cap's ValueError propagates: a corpus-scale read here is
        # a bug to surface, not a lookup miss
        ref_tbl = read_command_table(files, columns=[key_col, name])
    except (pa.ArrowInvalid, KeyError, OSError):
        return None
    mapping = dict(
        zip(ref_tbl.column(key_col).to_pylist(), ref_tbl.column(name).to_pylist())
    )
    return pa.array([mapping.get(k) for k in keys_arr.to_pylist()])


# ------------------------------------------------------- batch queries

class QueryEngine:
    """Per-process batch query evaluator, driven by
    :func:`_query_batch_task`: the IndexReader (lexicon, stats, doclens,
    posting caches) is loaded ONCE in ``__init__``; each ``__call__``
    evaluates a batch of query rows ``(qid, query, match_columns,
    scorer, top_k)`` and emits ``(qid, rank, doc_id, score)`` — the
    reference's per-worker mmap'd index (thread-per-request over shared
    mmap, SURVEY.md §4)."""

    def __init__(self, table: IndexedTable):
        self.table = table
        self.reader = table.reader()  # loads lexicon + stats once
        # LRU output cache keyed on the full request — the reference's
        # grn_cache keyed on the whole arg string (lib/proc.c:986-996)
        self._cache = BoundedCache(max_items=256)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"qid": [], "rank": [], "doc_id": [], "score": []}
        get = lambda col, i, default: (
            batch.column(col)[i].as_py() if col in batch.column_names else default
        )
        for i in range(batch.num_rows):
            qid = get("qid", i, i)
            kw = dict(
                query=get("query", i, None),
                match_columns=get("match_columns", i, None),
                scorer=get("scorer", i, None),
                limit=int(get("top_k", i, 10)),
            )
            if str(get("cache", i, "yes")).lower() == "no":
                # --cache no (proc_select cache flag, lib/proc.c:986):
                # bypass the result cache for this request
                res = select(self.table, **kw)
            else:
                res = self._cache.get_or_load(
                    tuple(sorted(kw.items())), lambda _: select(self.table, **kw)
                )
            ids = res["rows"].column("_id").to_pylist()
            out["qid"] += [qid] * len(ids)
            out["rank"] += range(1, len(ids) + 1)
            out["doc_id"] += map(int, ids)
            out["score"] += map(float, res["rows"].column("_score").to_pylist())
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.int64()),
                "rank": pa.array(out["rank"], pa.int32()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )


# per-worker-process QueryEngine cache for task-based batch dispatch:
# the engine state (lexicon, stats, posting LRUs, result cache) loads
# once per process and SURVIVES across Dataset executions — an actor
# pool pays ~1s of pool spin-up on every execution, while Ray reuses
# idle worker processes so this cache is usually already warm. Keyed
# on the index stamp so a rebuilt/delta'd/deleted-from index gets a
# fresh engine; bounded to the 2 most recent indexes per process.
_PROC_QUERY_ENGINES = BoundedCache(max_items=2)


def _query_batch_task(batch: pa.Table, *, table, cache_key) -> pa.Table:
    return _PROC_QUERY_ENGINES.get_or_load(cache_key, lambda _: QueryEngine(table))(batch)


def run_query_batch(table: IndexedTable, queries, concurrency: int = 2, batch_size: int = 64):
    """Evaluate a Dataset/table of query rows over the index.

    Dispatches as TASKS over a per-process cached engine (load-once
    semantics of the stateful-stage pattern without the per-execution
    actor-pool spin-up); ``concurrency`` only sizes the block
    pre-slicing for driver-side Arrow inputs."""
    import ray.data

    # the full table identity, not just the index dir: two
    # IndexedTables over the same index with different source files /
    # docid column must NOT share a cached engine
    cache_key = (
        table.index_dir, tuple(table.source_files), table.docid_column,
        index_stamp(table.index_dir),
    )

    if hasattr(queries, "map_batches"):
        ds = queries
    else:
        # one Arrow table would become ONE block -> one task gets all
        # the work; pre-slice into enough blocks to spread the load
        # without a shuffle. 2 blocks per requested concurrency:
        # per-task dispatch costs ~tens of ms, so fewer, fatter tasks
        # beat fine-grained balancing for sub-ms queries
        n = queries.num_rows
        if n == 0:
            return ray.data.from_arrow(queries)
        n_blocks = max(1, min(concurrency * 2, -(-n // max(1, batch_size))))
        step = -(-n // n_blocks)
        ds = ray.data.from_arrow(
            [queries.slice(i, step) for i in range(0, n, step)]
        )
    return ds.map_batches(
        _query_batch_task,
        fn_kwargs=dict(table=table, cache_key=cache_key),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    )


def select_v1(table: IndexedTable, **kwargs) -> list:
    """Command-version-1 envelope ``[[nhits], [cols], rows...]`` with
    the Int32 _score truncation (lib/output.c:569-570, 1165-1167) —
    for conformance diffing against reference-style outputs."""
    from . import score as score_mod

    res = select(table, **kwargs)
    rows = res["rows"]
    cols = []
    body_cols = []
    for name in rows.column_names:
        if name == "_score":
            cols.append(["_score", "Int32"])
            body_cols.append(score_mod.score_int32(rows.column(name).to_numpy()).tolist())
        elif name == "_id":
            cols.append(["_id", "UInt32"])
            body_cols.append([int(v) for v in rows.column(name).to_pylist()])
        else:
            cols.append([name, str(rows.column(name).type)])
            body_cols.append(rows.column(name).to_pylist())
    if body_cols:
        body = [list(r) for r in zip(*body_cols)]
    else:
        # an all-whitespace projection still renders one (empty) row
        # per output record (grn_output 0-column result sets)
        body = [[] for _ in range(res.get("n_out", 0))]
    return [[res["hits"]], cols, *body]


# ------------------------------------------------------------- token dump

def dump_tokens(index_dir: str, section: str):
    """The whole index exploded back to (docid, term, pos) rows — a Ray
    Dataset pipeline over the posting files (used by the conformance
    gate: must equal the SQL tokenization of the source)."""
    import ray.data

    files = sorted(
        glob.glob(os.path.join(index_dir, f"sec={section}", "postings", "bucket=*", "part.parquet"))
    )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "term": pa.array([], pa.large_string()),
                 "pos": pa.array([], pa.int64())}
            )
        order = np.arange(batch.num_rows)
        docids, tfs, positions, row_offsets = codec.bulk_decode_rows(
            batch, order, with_positions=True
        )
        tf64 = tfs.astype(np.int64)
        terms = batch.column("term")
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        df = np.diff(row_offsets)
        term_per_posting = np.repeat(np.arange(batch.num_rows), df)
        term_per_token = term_per_posting.repeat(tf64)
        doc_per_token = np.repeat(docids, tf64)
        return pa.table(
            {
                "doc_id": pa.array(doc_per_token.astype(np.int64)),
                "term": terms.take(pa.array(term_per_token)),
                "pos": pa.array(positions.astype(np.int64) + 1),  # 1-based for SQL parity
            }
        )

    return ray.data.read_parquet(files, partitioning=None).map_batches(
        explode, batch_format="pyarrow"
    )
