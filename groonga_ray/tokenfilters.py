"""Token-filter chain: composable filters between tokenizer output and
lexicon intern.

Semantics source (reimplemented, not ported): the reference's token
cursor applies registered token filters to every emitted token
(lib/token_cursor.c:123-178); TokenFilterStopWord drops stop-word
tokens in GET (query) mode only — stop words ARE indexed, the lexicon
``is_stop_word`` flag gates query-side skipping
(plugins/token_filters/stop_word.c:26-126); TokenFilterStem replaces
each token with its stem in both ADD and GET modes
(plugins/token_filters/stem.c:27-230 — that plugin wraps libstemmer;
here the stemmer is a from-scratch implementation of the public Porter
algorithm, M.F. Porter 1980, "An algorithm for suffix stripping").

Filters operate VECTORIZED over whole Arrow term arrays (the build hot
path hands them a few hundred thousand tokens per batch): stemming
memoizes per unique dictionary value, the stop-word test is one
``is_in`` kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ------------------------------------------------------------- porter

_VOWELS = frozenset("aeiou")


def _is_cons(w: str, i: int) -> bool:
    c = w[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(w, i - 1)
    return True


def _measure(w: str) -> int:
    """m in the paper's [C](VC){m}[V] decomposition."""
    m = 0
    prev_vowel = False
    for i in range(len(w)):
        v = not _is_cons(w, i)
        if prev_vowel and not v:
            m += 1
        prev_vowel = v
    return m


def _has_vowel(w: str) -> bool:
    return any(not _is_cons(w, i) for i in range(len(w)))


def _double_cons(w: str) -> bool:
    return len(w) >= 2 and w[-1] == w[-2] and _is_cons(w, len(w) - 1)


def _cvc(w: str) -> bool:
    return (
        len(w) >= 3
        and _is_cons(w, len(w) - 3)
        and not _is_cons(w, len(w) - 2)
        and _is_cons(w, len(w) - 1)
        and w[-1] not in "wxy"
    )


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def porter_stem(word: str) -> str:
    """Porter 1980 suffix stripping; words of length <= 2 unchanged."""
    w = word
    if len(w) <= 2:
        return w

    # step 0 (snowball english): strip possessive apostrophes
    for suf in ("'s'", "'s", "'"):
        if w.endswith(suf):
            w = w[: -len(suf)]
            break
    if len(w) <= 2:
        return w

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        flag = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suf, rep in _STEP2:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break

    # step 3
    for suf, rep in _STEP3:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break

    # step 4
    for suf in _STEP4:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 1:
                if suf == "ion" and (not stem or stem[-1] not in "st"):
                    break
                w = stem
            break

    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _cvc(stem)):
            w = stem

    # step 5b
    if _measure(w) > 1 and _double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


# ------------------------------------------------------------- filters

class TokenFilterStopWord:
    """GET-mode stop-word drop. ADD mode indexes stop words unchanged
    (the reference marks lexicon entries ``is_stop_word`` and skips
    them only while building the query token list)."""

    def __init__(self, stop_words):
        self.stop = pa.array(sorted(set(stop_words)), type=pa.large_string())

    def apply(self, terms: pa.Array, mode: str):
        if mode != "get" or len(self.stop) == 0:
            return terms, None
        mask = pc.invert(pc.is_in(terms.cast(pa.large_string()), value_set=self.stop))
        return terms, np.asarray(mask.to_numpy(zero_copy_only=False), bool)


def _stem_token(t: str) -> str:
    # libstemmer needs lowercase input; the reference lowercases
    # all-upper tokens and restores case after
    # (plugins/token_filters/stem.c stem_token all_upper)
    return porter_stem(t.lower()).upper() if t.isupper() else porter_stem(t)


class TokenFilterStem:
    """Porter-stem every token (ADD and GET). Vectorized by stemming
    only the unique dictionary values of the batch, memoized across
    batches (a reader's query chain lives as long as the reader)."""

    def __init__(self):
        # token -> stem, looked up once per distinct token of every
        # batch: functools' LRU in C, since a lock and a Python call
        # per token (BoundedCache) measurably slow a stemmed build; a
        # default-size shard of a code corpus holds ~160k distinct
        # tokens, and an LRU smaller than that re-stems most of them
        self._stem = lru_cache(maxsize=1 << 18)(_stem_token)

    def apply(self, terms: pa.Array, mode: str):
        if len(terms) == 0:
            return terms, None
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        dict_arr = pc.dictionary_encode(terms)
        if isinstance(dict_arr, pa.ChunkedArray):
            dict_arr = dict_arr.combine_chunks()
        stemmed = list(map(self._stem, dict_arr.dictionary.to_pylist()))
        new_dict = pa.array(stemmed, type=pa.large_string())
        out = new_dict.take(dict_arr.indices)
        return out, None


TOKEN_FILTERS: dict[str, "object"] = {}


def register_token_filter(name: str, factory) -> None:
    """Plugin surface (grn_token_filter_register,
    include/groonga/token_filter.h:32): ``factory(config_dict) ->
    filter`` with ``apply(terms, mode) -> (terms, keep_mask|None)``."""
    TOKEN_FILTERS[name] = factory


register_token_filter(
    "TokenFilterStopWord", lambda cfg: TokenFilterStopWord(cfg.get("stop_words", ()))
)
register_token_filter("TokenFilterStem", lambda cfg: TokenFilterStem())


def build_chain(config: dict) -> list:
    """Instantiate the configured filter chain (order preserved). A
    non-empty ``stop_words`` set implies the stop-word drop even
    without a declared TokenFilterStopWord — deleted lexicon terms ride
    this (grn_ii term deletion: the posting list stops serving)."""
    chain = [
        TOKEN_FILTERS[name](config) for name in config.get("token_filters", ())
    ]
    if config.get("stop_words") and "TokenFilterStopWord" not in config.get(
        "token_filters", ()
    ):
        chain.append(TokenFilterStopWord(config["stop_words"]))
    return chain


def apply_chain(chain: list, terms: pa.Array, mode: str):
    """Run the chain over a term array. Returns ``(terms, idx)`` where
    ``idx`` maps surviving tokens back to input positions (identity
    when nothing was dropped)."""
    idx = np.arange(len(terms), dtype=np.int64)
    for f in chain:
        terms, mask = f.apply(terms, mode)
        if mask is not None and not mask.all():
            terms = terms.filter(pa.array(mask))
            idx = idx[mask]
    return terms, idx


def apply_chain_stream(chain: list, stream, mode: str):
    """Chain application for the per-doc TokenStream (ngram/conformance
    path): terms map through the chain; dropped tokens vanish but keep
    the position numbering of survivors."""
    if not chain or not stream.tokens:
        return stream
    terms = pa.array([t.term for t in stream.tokens], type=pa.large_string())
    new_terms, idx = apply_chain(chain, terms, mode)
    new_list = new_terms.to_pylist()
    kept = []
    for j, i in enumerate(idx.tolist()):
        tok = stream.tokens[i]
        tok.term = new_list[j]
        kept.append(tok)
    stream.tokens = kept
    return stream
