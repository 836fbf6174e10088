"""Seeded code-corpus generator owned by the benchmark.

Rows are ``(repo, path, commit, lang, content)`` sorted by
``(repo, path)``, so a row's 1-based rank is its docid.

The content is drawn so the index sees what real source code gives it:

* a Zipf-skewed vocabulary: the hottest words occur in nearly every
  file, the tail in one, and every band in between is populated;
* identifiers built from shared sub-words (``get_buffer_size``,
  ``parsetoken``), so a prefix such as ``get_b*`` expands to many terms;
* one unique file identifier per row (``fid<seedtag><row>``), so a
  lookup has exactly one answer;
* a small share of non-ASCII comment text (accented Latin, Greek, CJK),
  which the word tokenizer treats as separators.

Everything depends only on the arguments: the same seed gives
byte-identical tables.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# keywords and common words take the hottest ranks
HOT_WORDS = (
    "self return def if else for in import from class the none true false "
    "and or not is with as try except raise while break continue pass "
    "lambda yield const let var function new this null void int char "
    "struct static public private package func go err nil fn mut impl use "
    "pub match string bool float double long unsigned include define "
    "ifdef endif assert print printf len range list dict set map append "
    "value key data result args kwargs options config path name type size "
    "count index item items error test todo fixme note see param returns "
    "a an to of on at by be it we this that"
).split()

SUBWORDS = (
    "get set parse read write load init make build find index query token "
    "buffer node tree list map hash cache file path config error value key "
    "item data user http json str int len size count next prev open close "
    "start stop run exec test check update delete insert merge sort split "
    "join scan fetch send recv push pop lock unlock alloc free copy move "
    "encode decode flush sync async wait emit handle event state stream "
    "block chunk frame page row col field record schema table column "
    "segment shard bucket posting lexicon doc term score rank limit offset"
).split()

# lowercase only: none of these lower-cases into ASCII, so the word
# tokenizer and the SQL oracle split them identically
NON_ASCII = (
    "naïve café über straße façade déjà λ μετρική 日本語 コメント 注釈 "
    "中文 검색 索引 ñandú smörgåsbord"
).split()

PUNCT = ("(", ")", "=", ":", ".", ",", "{", "}", "[", "]", "->", "\n", "\n    ", "#", "+", "*")

REPOS = 48
EXTS = (("py", "python"), ("js", "javascript"), ("go", "go"), ("rs", "rust"),
        ("c", "c"), ("java", "java"), ("ts", "typescript"), ("rb", "ruby"))
DIRS = ("src", "lib", "core", "util", "api", "cmd", "internal", "tests")


@lru_cache(maxsize=2)
def vocabulary(seed: int, n_terms: int) -> np.ndarray:
    """Term strings in popularity order (rank 0 is the hottest).
    Cached: the churn workload draws every delta from one vocabulary."""
    rng = np.random.default_rng([seed, 1])
    n_sub = len(SUBWORDS)
    n_id = n_terms - len(HOT_WORDS)
    # identifiers: two or three sub-words, snake_case or glued, 10% with
    # a number. Draw surplus candidates as integer keys and keep the
    # first occurrence of each, in draw order.
    k = 2 * n_id + 1000
    a = rng.integers(0, n_sub, k)
    b = rng.integers(0, n_sub, k)
    c = np.where(rng.random(k) < 0.7, rng.integers(0, n_sub, k), n_sub)
    glued = (rng.random(k) < 0.25).astype(np.int64)
    num = np.where(rng.random(k) < 0.1, rng.integers(0, 100, k), 100)
    key = (((a * n_sub + b) * (n_sub + 1) + c) * 2 + glued) * 101 + num
    _, first = np.unique(key, return_index=True)
    first.sort()
    seen = set(HOT_WORDS)
    out: list[str] = []
    for i in first:
        sep = "" if glued[i] else "_"
        t = SUBWORDS[a[i]] + sep + SUBWORDS[b[i]]
        if c[i] < n_sub:
            t += sep + SUBWORDS[c[i]]
        if num[i] < 100:
            t += str(num[i])
        if t not in seen:
            seen.add(t)
            out.append(t)
            if len(out) == n_id:
                break
    if len(out) < n_id:
        raise ValueError(f"vocabulary: only {len(out)} distinct identifiers for {n_id}")
    return np.array(list(HOT_WORDS) + out, dtype=object)


def zipf_ranks(rng: np.random.Generator, n: int, n_terms: int, s: float) -> np.ndarray:
    """``n`` draws of a rank in [0, n_terms) from a bounded power law,
    density ~ 1/(r+1)^s (inverse-CDF of the continuous form)."""
    u = rng.random(n)
    a = 1.0 - s
    x = np.power((np.power(float(n_terms + 1), a) - 1.0) * u + 1.0, 1.0 / a)
    return np.minimum(x.astype(np.int64) - 1, n_terms - 1)


def generate(seed: int, n_docs: int, n_terms: int = 150_000, mean_tokens: int = 260,
             zipf_s: float = 1.07, tag: str = "") -> pa.Table:
    """The corpus for ``seed``: ``n_docs`` rows sorted by (repo, path).

    ``tag`` keeps the file identifiers and paths of separately generated
    batches (the churn workload's deltas) disjoint from each other.
    """
    rng = np.random.default_rng([seed, 2, len(tag), *tag.encode()])
    vocab = vocabulary(seed, n_terms)

    # tokens per doc: lognormal around mean_tokens, clipped
    lens = np.clip(rng.lognormal(np.log(mean_tokens) - 0.32, 0.8, n_docs), 8, 12 * mean_tokens)
    lens = lens.astype(np.int64)
    total = int(lens.sum())
    ranks = zipf_ranks(rng, total, n_terms, zipf_s)
    # code shape: a punctuation piece after ~40% of words. Pieces are
    # codes into (vocab + PUNCT), gathered in one Arrow take.
    has_p = rng.random(total) < 0.4
    punct = n_terms + rng.integers(0, len(PUNCT), total)
    pieces_per_word = 1 + has_p.astype(np.int64)
    piece_idx = np.cumsum(pieces_per_word) - pieces_per_word
    n_pieces = int(pieces_per_word.sum())
    codes = np.empty(n_pieces, np.int64)
    codes[piece_idx] = ranks
    codes[piece_idx[has_p] + 1] = punct[has_p]
    dictionary = pa.array(list(vocab) + list(PUNCT), pa.string())
    word_off = np.concatenate([[0], np.cumsum(lens)])
    piece_off = np.concatenate([piece_idx, [n_pieces]])[word_off]

    # the unique file identifier and, for ~2% of files, non-ASCII text
    salt = int(rng.integers(0, 36 ** 4))
    seedtag = np.base_repr(salt, 36).lower().rjust(4, "0")
    fids = [f"fid{seedtag}{tag}{i:07d}" for i in range(n_docs)]
    non_ascii = rng.random(n_docs) < 0.02
    na_words = np.array(NON_ASCII, dtype=object)
    heads = []
    for i in range(n_docs):
        h = f"# file-id: {fids[i]}\n"
        if non_ascii[i]:
            pick = na_words[rng.integers(0, len(na_words), 4)]
            h += "# " + " ".join(pick) + "\n"
        heads.append(h)

    body = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(piece_off, pa.int32()), dictionary.take(pa.array(codes))),
        " ",
    )
    content = pc.binary_join_element_wise(pa.array(heads, pa.string()), body, "")

    ext_i = rng.integers(0, len(EXTS), n_docs)
    repo_i = rng.integers(0, REPOS, n_docs)
    dir_i = rng.integers(0, len(DIRS), n_docs)
    name_r = zipf_ranks(rng, n_docs, n_terms, zipf_s)
    repos = [f"org{r % 7}/repo{r:03d}" for r in repo_i]
    paths = [
        f"{DIRS[d]}/{vocab[n]}_{tag}{i}.{EXTS[e][0]}"
        for i, (d, n, e) in enumerate(zip(dir_i, name_r, ext_i))
    ]
    langs = [EXTS[e][1] for e in ext_i]
    hexes = rng.integers(0, 1 << 62, (n_docs, 3), dtype=np.int64)
    commits = [f"{a:016x}{b:016x}{c:08x}"[:40] for a, b, c in hexes]
    tbl = pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": content,
        "fid": pa.array(fids, pa.string()),
    })
    order = pc.sort_indices(tbl, sort_keys=[("repo", "ascending"), ("path", "ascending")])
    return tbl.take(order)


def write(tbl: pa.Table, path: str, row_group_rows: int = 2048) -> int:
    """Write the corpus as Parquet (without the in-memory ``fid``
    column); returns the file's size in bytes."""
    pq.write_table(tbl.drop_columns(["fid"]), path, row_group_size=row_group_rows, compression="zstd")
    return os.path.getsize(path)
