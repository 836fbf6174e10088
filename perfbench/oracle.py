"""Independent answers for the benchmark, computed in DuckDB from the
Parquet files alone.

Nothing here imports the program under test. The oracle applies the
rule the program documents for its word tokenizer (``lower``, then
split on ``[^a-z0-9_]+``, empty pieces dropped) and assigns docids as
the 1-based rank in (file, repo, path) order, which for one sorted file
is the (repo, path) rank. BM25 follows the formula the program
documents: k1 = 1.2, b = 0.75,
``idf = ln(1 + (N - df + 0.5) / (df + 0.5))``.
"""

from __future__ import annotations

import duckdb

K1 = 1.2
B = 0.75
TOKENS_SQL = "list_filter(regexp_split_to_array(lower(content), '[^a-z0-9_]+'), x -> x <> '')"


class Oracle:
    """Token, posting and document statistics of a set of Parquet files."""

    def __init__(self, files: list[str], threads: int = 4, temp_dir: str | None = None):
        self.con = duckdb.connect()
        self.con.execute(f"SET threads = {int(threads)}")
        self.con.execute("SET memory_limit = '2GB'")
        self.con.execute("SET preserve_insertion_order = false")
        if temp_dir:
            self.con.execute(f"SET temp_directory = '{temp_dir}'")
        parts = " UNION ALL ".join(
            f"SELECT {i} AS f, repo, path, content FROM read_parquet('{p}')"
            for i, p in enumerate(files)
        )
        self.con.execute(
            f"CREATE TABLE docs AS SELECT row_number() OVER (ORDER BY f, repo, path) AS docid, "
            f"repo, path, {TOKENS_SQL} AS toks FROM ({parts})"
        )
        self.con.execute(
            "CREATE TABLE tok AS SELECT docid, unnest(toks) AS term, "
            "unnest(range(len(toks))) AS pos FROM docs"
        )
        self.con.execute("CREATE TABLE dl AS SELECT docid, len(toks) AS dl FROM docs")
        self.con.execute(
            "CREATE TABLE post AS SELECT term, docid, count(*) AS tf FROM tok GROUP BY term, docid"
        )
        self.con.execute(
            "CREATE TABLE lex AS SELECT term, count(*) AS df, sum(tf) AS cf FROM post GROUP BY term"
        )
        n, total = self.con.execute("SELECT count(*), sum(dl) FROM dl").fetchone()
        self.n_docs = int(n)
        self.total_tokens = int(total or 0)
        self.avgdl = self.total_tokens / self.n_docs if self.n_docs else 0.0
        self.n_terms = int(self.con.execute("SELECT count(*) FROM lex").fetchone()[0])

    def close(self) -> None:
        self.con.close()

    # ---- statistics --------------------------------------------------
    def df(self, terms: list[str]) -> dict[str, int]:
        rows = self.con.execute(
            "SELECT term, df FROM lex WHERE term IN (SELECT unnest(?))", [list(terms)]
        ).fetchall()
        out = {t: 0 for t in terms}
        out.update({t: int(d) for t, d in rows})
        return out

    def terms_in_band(self, lo: int, hi: int, k: int, seed: int, pattern: str = "^[a-z]") -> list[str]:
        """``k`` terms with lo <= df <= hi, chosen by ``seed``."""
        rows = self.con.execute(
            "SELECT term FROM lex WHERE df BETWEEN ? AND ? AND regexp_matches(term, ?) "
            "ORDER BY hash(term || ?), term LIMIT ?",
            [lo, hi, pattern, str(seed), k],
        ).fetchall()
        return [r[0] for r in rows]

    def adjacent_pairs(self, k: int, seed: int, min_df: int, max_df: int) -> list[tuple[str, str]]:
        """``k`` distinct adjacent token pairs from the text, both tokens
        with a df in [min_df, max_df] and the two tokens different."""
        rows = self.con.execute(
            """
            WITH t AS (
              SELECT a.term AS x, b.term AS y
              FROM tok a JOIN tok b ON a.docid = b.docid AND b.pos = a.pos + 1
              JOIN lex la ON la.term = a.term JOIN lex lb ON lb.term = b.term
              WHERE a.term <> b.term AND la.df BETWEEN ? AND ? AND lb.df BETWEEN ? AND ?
                AND a.docid % 7 = 0
            )
            SELECT DISTINCT x, y FROM t ORDER BY hash(x || ' ' || y || ?), x, y LIMIT ?
            """,
            [min_df, max_df, min_df, max_df, str(seed), k],
        ).fetchall()
        return [(x, y) for x, y in rows]

    def prefixes(self, k: int, seed: int, min_terms: int, max_hits: int) -> list[tuple[str, int]]:
        """``k`` identifier prefixes (a sub-word, ``_`` and one letter)
        that expand to at least ``min_terms`` terms and match at most
        ``max_hits`` documents, with their hit counts."""
        rows = self.con.execute(
            """
            WITH p AS (
              SELECT regexp_extract(term, '^([a-z]+_[a-z])', 1) AS pre, term FROM lex
            ), c AS (
              SELECT pre FROM p WHERE pre <> '' GROUP BY pre HAVING count(*) >= ?
            ), h AS (
              SELECT p.pre, count(DISTINCT post.docid) AS hits
              FROM p JOIN c USING (pre) JOIN post USING (term) GROUP BY p.pre
            )
            SELECT pre, hits FROM h WHERE hits <= ? ORDER BY hash(pre || ?), pre LIMIT ?
            """,
            [min_terms, max_hits, str(seed), k],
        ).fetchall()
        return [(p, int(h)) for p, h in rows]

    def bm25_topk(self, queries: list[tuple[str, list[str]]], k: int) -> list[dict]:
        """For each ``(op, terms)`` with op "or"/"and": hit count and the
        top ``k`` (docid, score) by score desc, docid asc."""
        rows = [(qi, op, t) for qi, (op, terms) in enumerate(queries) for t in terms]
        if not rows:
            return []
        self.con.execute("CREATE OR REPLACE TEMP TABLE q (qid INTEGER, op VARCHAR, term VARCHAR)")
        self.con.executemany("INSERT INTO q VALUES (?, ?, ?)", rows)
        sql = f"""
        WITH nq AS (SELECT qid, any_value(op) AS op, count(DISTINCT term) AS nt FROM q GROUP BY qid),
        s AS (
          SELECT q.qid, p.docid,
                 sum(ln(1 + ({self.n_docs} - l.df + 0.5) / (l.df + 0.5))
                     * p.tf * ({K1} + 1)
                     / (p.tf + {K1} * (1 - {B} + {B} * d.dl / {self.avgdl!r}))) AS score,
                 count(*) AS m
          FROM (SELECT DISTINCT qid, term FROM q) q
          JOIN post p ON p.term = q.term JOIN lex l ON l.term = q.term JOIN dl d ON d.docid = p.docid
          GROUP BY q.qid, p.docid
        ),
        hit AS (
          SELECT s.* FROM s JOIN nq USING (qid) WHERE nq.op = 'or' OR s.m = nq.nt
        ),
        ranked AS (
          SELECT qid, docid, score, count(*) OVER (PARTITION BY qid) AS hits,
                 row_number() OVER (PARTITION BY qid ORDER BY score DESC, docid) AS r
          FROM hit
        )
        SELECT qid, hits, docid, score FROM ranked WHERE r <= {int(k)} ORDER BY qid, r
        """
        out = [{"hits": 0, "top": []} for _ in queries]
        for qid, hits, docid, score in self.con.execute(sql).fetchall():
            out[qid]["hits"] = int(hits)
            out[qid]["top"].append((int(docid), float(score)))
        return out

    def phrase_docs(self, pairs: list[tuple[str, str]]) -> list[set[int]]:
        """Documents in which ``y`` directly follows ``x``, per pair."""
        if not pairs:
            return []
        self.con.execute("CREATE OR REPLACE TEMP TABLE ph (qid INTEGER, x VARCHAR, y VARCHAR)")
        self.con.executemany("INSERT INTO ph VALUES (?, ?, ?)", [(i, x, y) for i, (x, y) in enumerate(pairs)])
        rows = self.con.execute(
            """
            SELECT DISTINCT ph.qid, a.docid
            FROM ph JOIN tok a ON a.term = ph.x
            JOIN tok b ON b.docid = a.docid AND b.pos = a.pos + 1 AND b.term = ph.y
            """
        ).fetchall()
        out: list[set[int]] = [set() for _ in pairs]
        for qid, d in rows:
            out[qid].add(int(d))
        return out
