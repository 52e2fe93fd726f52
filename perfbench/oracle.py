"""Result comparison kept apart from the program under test.

Integers and text compare exactly and floats with ``math.isclose``. Row order
matters only when the gold query has a top-level ORDER BY; otherwise both
sides are sorted before rows are paired.
"""

from __future__ import annotations

import math
import re

_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)
_TYPE_RANK = {int: 0, float: 0, str: 1}


def top_level_order_by(sql: str) -> bool:
    depth, outer = 0, []
    for ch in sql:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            outer.append(ch)
    return bool(_ORDER_BY.search("".join(outer)))


def _key(row):
    return tuple((_TYPE_RANK[type(v)], v) for v in row)


def canonical(rows, ordered: bool = False) -> list[tuple]:
    rows = [tuple(r) for r in rows]
    if ordered:
        return rows
    try:
        return sorted(rows)
    except TypeError:  # mixed types in one column
        return sorted(rows, key=_key)


def _same_value(a, b) -> bool:
    if type(a) is float or type(b) is float:
        return (type(a) in (int, float) and type(b) in (int, float)
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0))
    return type(a) is type(b) and a == b


def verdict(pred, gold, ordered: bool) -> bool:
    """True when the two answers are equal under the benchmark's EX semantics."""
    if len(pred) != len(gold):
        return False
    pred, gold = canonical(pred, ordered), canonical(gold, ordered)
    return all(_same_row(p, g) for p, g in zip(pred, gold))


def _same_row(p, g) -> bool:
    if p == g and list(map(type, p)) == list(map(type, g)):
        return True
    return len(p) == len(g) and all(map(_same_value, p, g))
