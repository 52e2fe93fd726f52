"""The 20-item metric benchmark: items, a brute-force oracle, and frozen expectations.

The oracle reimplements run-both-and-compare directly on sqlite3 with its own
normalization; it shares no code with the library being tested.
"""

from __future__ import annotations

import math
import os
import sqlite3
from urllib.parse import quote

# (db, gold, pred) triples
METRIC_ITEMS = [
    ("shop", "SELECT name FROM products WHERE category = 'kitchen'",
             "SELECT name FROM products WHERE category = 'kitchen'"),
    ("shop", "SELECT name FROM products WHERE price > 10",
             "SELECT p.name FROM products AS p WHERE p.price > 10"),
    ("shop", "SELECT COUNT(*) FROM orders",
             "SELECT SUM(1) FROM orders"),
    ("shop", "SELECT name FROM products WHERE price > 10",
             "SELECT name FROM products WHERE price > 20"),
    ("shop", "SELECT name FROM products",
             "SELEC name FROM products"),
    ("shop", "SELECT name FROM products",
             "SELECT title FROM no_table"),
    ("shop", "SELECT name FROM products WHERE category = 'kitchen'",
             "SELECT name FROM products WHERE category = 'nope'"),
    ("shop", "SELECT x FROM missing_table",
             "SELECT 1"),
    ("shop", "SELECT name FROM products ORDER BY price DESC",
             "SELECT name FROM products ORDER BY price DESC"),
    ("shop", "SELECT name FROM products ORDER BY price DESC",
             "SELECT name FROM products ORDER BY price ASC"),
    ("shop", "SELECT customer FROM orders",
             "SELECT DISTINCT customer FROM orders"),
    ("library", "SELECT title FROM books WHERE year < 1900",
                "SELECT title FROM books WHERE year < 1900"),
    ("library", "SELECT b.title FROM books AS b JOIN loans AS l "
                "ON b.book_id = l.book_id WHERE l.returned = 0",
                "SELECT books.title FROM loans JOIN books "
                "ON books.book_id = loans.book_id WHERE loans.returned = 0"),
    ("library", "SELECT author, COUNT(*) FROM books GROUP BY author",
                "SELECT author, COUNT(*) FROM books GROUP BY author"),
    ("library", "SELECT title FROM books WHERE year < 1900",
                "SELECT title FROM books WHERE year > 1900"),
    ("shop", "SELECT price * 2 FROM products WHERE product_id = 1",
             "SELECT CAST(price * 2 AS REAL) FROM products WHERE product_id = 1"),
    ("shop", "SELECT name FROM products WHERE price > 1000",
             "SELECT name FROM products WHERE price > 1000"),
    ("library", "SELECT member FROM loans",
                "DELETE FROM loans"),
    ("library", "SELECT member FROM loans WHERE returned = 1",
                "SELECT member FROM loans WHERE returned = 1 ORDER BY member DESC"),
    ("shop", "SELECT quantity FROM orders WHERE customer = 'ana'",
             "SELECT quantity FROM orders WHERE customer = 'ana' AND quantity > 0"),
]

# computed by oracle_exec_match before the build and pinned here
EXPECTED_EX = [
    True, True, True, False, False, False, False, False, True, False,
    False, True, True, True, False, True, False, False, True, True,
]


def _oracle_run(db_path: str, sql: str):
    # percent-quoted, so that a '?' or '#' in the path cannot end the file name
    conn = sqlite3.connect(f"file:{quote(os.path.abspath(db_path))}?mode=ro", uri=True)
    try:
        return ("ok", conn.execute(sql).fetchall())
    except Exception as exc:
        return ("err", str(exc))
    finally:
        conn.close()


def _oracle_has_top_order_by(sql: str) -> bool:
    depth = 0
    upper = sql.upper()
    for i in range(len(upper)):
        c = upper[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and upper[i:i + 8] == "ORDER BY":
            return True
    return False


def _oracle_norm(value):
    if value is None:
        return ("null",)
    if isinstance(value, (int, float)):
        return ("num", value)
    return ("str", str(value).strip())


def _oracle_same(a, b) -> bool:
    """Integers (and whole floats against integers) exactly, other floats within 1e-9."""
    if a[0] != b[0]:
        return False
    if a[0] != "num":
        return a == b
    x, y = a[1], b[1]
    if isinstance(x, float) and (isinstance(y, float) or not x.is_integer()) \
            or isinstance(y, float) and not y.is_integer():
        return math.isclose(x, y, rel_tol=1e-9)
    return x == y


def _oracle_rows_same(p, g) -> bool:
    return len(p) == len(g) and all(map(_oracle_same, p, g))


def oracle_exec_match(pred_sql: str, gold_sql: str, db_path: str) -> bool:
    gold_status, gold_rows = _oracle_run(db_path, gold_sql)
    pred_status, pred_rows = _oracle_run(db_path, pred_sql)
    if gold_status != "ok" or not gold_rows:
        return False
    if pred_status != "ok" or not pred_rows:
        return False
    a = [tuple(_oracle_norm(v) for v in row) for row in gold_rows]
    b = [tuple(_oracle_norm(v) for v in row) for row in pred_rows]
    if len(a) != len(b):
        return False
    if _oracle_has_top_order_by(gold_sql):
        return all(map(_oracle_rows_same, a, b))
    # brute force: each gold row takes the first unused predicted row it equals
    unused = list(b)
    for row in a:
        match = next((i for i, p in enumerate(unused) if _oracle_rows_same(p, row)), None)
        if match is None:
            return False
        del unused[match]
    return True
