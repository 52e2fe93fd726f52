"""Scoring of predicted SQL: execution accuracy, exact match, efficiency, reports."""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .clauses import UnsupportedSyntax, has_top_level_order_by, parse_to_clause_set
from .codec import encode
from .execution import DEFAULT_TIMEOUT, ExecStatus, ExecutionOutcome, execute_sql

VES_REPEATS = 5
# Floats that are not whole numbers compare within this relative tolerance.
FLOAT_REL_TOL = 1e-9

# run_timer(db_path, sql) -> seconds for one execution
RunTimer = Callable[[str, str], float]


class ErrorClass(str, Enum):
    NONE = "NONE"
    GOLD_ERROR = "GOLD_ERROR"
    EXECUTION_ERROR = "EXECUTION_ERROR"
    SCHEMA_LINKING_ERROR = "SCHEMA_LINKING_ERROR"
    EMPTY_RESULT = "EMPTY_RESULT"
    WRONG_RESULT = "WRONG_RESULT"


@dataclass
class ItemScore:
    task_id: str
    ex: bool
    em: Optional[bool]
    ves_ratio: Optional[float]
    error_class: ErrorClass
    pred_status: ExecStatus
    gold_status: ExecStatus
    difficulty: str = "unlabeled"

    def __post_init__(self):
        if (self.ves_ratio is not None) != self.ex:
            raise ValueError("ves_ratio must be present exactly when ex is true")
        if (self.error_class is ErrorClass.NONE) != self.ex:
            raise ValueError("error_class must be NONE exactly when ex is true")


def _run_both(pred_sql: str, gold_sql: str, db_path: str, timeout: float):
    gold_out = execute_sql(db_path, gold_sql, timeout=timeout)
    return execute_sql(db_path, pred_sql, timeout=timeout), gold_out


def _normalize_value(value) -> tuple:
    """(kind, sort key, value) of one cell; rows are sorted by kind and key alone.

    Integers and integral floats key by their exact value. Other floats key
    rounded to 11 significant digits, so values within ``FLOAT_REL_TOL`` of
    each other sort together; equality is then decided by ``_same_value``.
    """
    if value is None:
        return (0, 0, None)
    if isinstance(value, (int, float)):
        exact = isinstance(value, int) or value.is_integer()
        return (1, value if exact else float(f"{value:.10e}"), value)
    if isinstance(value, bytes):
        return (3, value, value)
    text = str(value).strip()
    return (2, text, text)


def _same_number(a, b) -> bool:
    """Ints, and an int against an integral float, compare exactly; other floats within tolerance."""
    if a == b:
        return True
    exact = (isinstance(a, int) and (isinstance(b, int) or b.is_integer())
             or isinstance(b, int) and a.is_integer())
    return not exact and math.isclose(a, b, rel_tol=FLOAT_REL_TOL)


def _same_value(a: tuple, b: tuple) -> bool:
    if a[0] != b[0]:
        return False
    return _same_number(a[2], b[2]) if a[0] == 1 else a[1] == b[1]


def _normalize_rows(rows: list[tuple], order_sensitive: bool) -> list:
    """Rows of normalized values in comparison order; unordered results sort by kind and key."""
    normalized = [tuple(map(_normalize_value, row)) for row in rows]
    if order_sensitive:
        return normalized
    return sorted(normalized, key=lambda row: tuple(v[:2] for v in row))


def rows_equal(a: Iterable[Sequence], b: Iterable[Sequence],
               order_sensitive: bool = False) -> bool:
    """True when two result sets hold the same rows: a multiset, or a list when ordered.

    Text is trimmed and null is distinct from the empty string. Identical
    results take an exact path; otherwise the normalized rows are compared
    pair by pair in canonical order.
    """
    a, b = [tuple(r) for r in a], [tuple(r) for r in b]
    if len(a) != len(b):
        return False
    if a == b if order_sensitive else Counter(a) == Counter(b):
        return True
    return all(len(x) == len(y) and all(map(_same_value, x, y))
               for x, y in zip(_normalize_rows(a, order_sensitive),
                               _normalize_rows(b, order_sensitive)))


def _results_match(pred_out: ExecutionOutcome, gold_out: ExecutionOutcome,
                   gold_sql: str) -> bool:
    return (gold_out.status is ExecStatus.OK and pred_out.status is ExecStatus.OK
            and rows_equal(pred_out.rows, gold_out.rows,
                           order_sensitive=has_top_level_order_by(gold_sql)))


def exec_match(pred_sql: str, gold_sql: str, db_path: str,
               timeout: float = DEFAULT_TIMEOUT) -> bool:
    """True iff both queries execute and return identical normalized result sets.

    An empty or blank prediction is a miss, and neither query runs.
    Comparison is an unordered multiset unless the gold query has a top-level
    ORDER BY.
    """
    if not pred_sql or not pred_sql.strip():
        return False
    pred_out, gold_out = _run_both(pred_sql, gold_sql, db_path, timeout)
    return _results_match(pred_out, gold_out, gold_sql)


def _default_run_timer(db_path: str, sql: str) -> float:
    start = time.perf_counter()
    execute_sql(db_path, sql)
    return time.perf_counter() - start


def ves_ratio(pred_sql: str, gold_sql: str, db_path: str,
              run_timer: Optional[RunTimer] = None) -> float:
    """sqrt of the median per-pair ratio gold time / pred time over ``VES_REPEATS`` pairs.

    Gold and pred are timed in turn, so a drift in host speed hits both sides
    of a pair alike. There is no warm-up: ``score_item`` calls this right
    after its EX executions of the same two queries. Only meaningful for
    result-matching predictions; the caller gates on ex. The timing function
    is injectable so tests stay deterministic.
    """
    timer = run_timer or _default_run_timer
    ratios = []
    for _ in range(VES_REPEATS):
        gold_t = timer(db_path, gold_sql)
        pred_t = timer(db_path, pred_sql)
        ratios.append(1.0 if gold_t <= 0 and pred_t <= 0 else gold_t / max(pred_t, 1e-9))
    return statistics.median(ratios) ** 0.5


@dataclass(frozen=True)
class ExVerdict:
    """EX of a state's final SQL against its own gold, and the database it ran on.

    ``db_stamp`` is ``execution.db_stamp`` of the database file, taken before the
    queries ran; the verdict holds while the file has it and the gold is unchanged.
    """

    ex: bool
    db_stamp: tuple[int, int, int]


def exact_match(pred_sql: str, gold_sql: str) -> Optional[bool]:
    """Clause-set equality; None when either side falls outside the EM grammar.

    A query nested too deeply to canonicalize within the recursion limit is
    outside the grammar too, although SQLite may still run it.
    """
    try:
        pred = parse_to_clause_set(pred_sql)
        gold = parse_to_clause_set(gold_sql)
    except (UnsupportedSyntax, RecursionError):
        return None
    return pred == gold


def classify_error(pred_outcome: ExecutionOutcome, gold_outcome: ExecutionOutcome,
                   ex: bool) -> ErrorClass:
    """Machine-checkable failure taxonomy for one scored item."""
    if ex:
        return ErrorClass.NONE
    if gold_outcome.status is not ExecStatus.OK:
        return ErrorClass.GOLD_ERROR
    if pred_outcome.status is ExecStatus.SCHEMA_ERROR:
        return ErrorClass.SCHEMA_LINKING_ERROR
    if pred_outcome.status in (ExecStatus.SYNTAX_ERROR, ExecStatus.TIMEOUT,
                               ExecStatus.DENIED, ExecStatus.OTHER_ERROR):
        return ErrorClass.EXECUTION_ERROR
    if pred_outcome.status is ExecStatus.EMPTY_RESULT:
        return ErrorClass.EMPTY_RESULT
    return ErrorClass.WRONG_RESULT


def score_item(task_id: str, pred_sql: str, gold_sql: str, db_path: str,
               timeout: float = DEFAULT_TIMEOUT, difficulty: str = "unlabeled",
               with_ves: bool = True, run_timer: Optional[RunTimer] = None) -> ItemScore:
    pred_out, gold_out = _run_both(pred_sql, gold_sql, db_path, timeout)
    ex = _results_match(pred_out, gold_out, gold_sql)
    em = exact_match(pred_sql, gold_sql) if pred_sql.strip() else False
    error_class = classify_error(pred_out, gold_out, ex)
    ratio = None
    if ex:
        ratio = (ves_ratio(pred_sql, gold_sql, db_path, run_timer=run_timer)
                 if with_ves else 1.0)
    return ItemScore(
        task_id=task_id,
        ex=ex,
        em=em,
        ves_ratio=ratio,
        error_class=error_class,
        pred_status=pred_out.status,
        gold_status=gold_out.status,
        difficulty=difficulty,
    )


@dataclass
class EvalReport:
    items: list[ItemScore]
    n: int
    ex_pct: Optional[float]
    em_pct: Optional[float]
    em_coverage_pct: Optional[float]
    ves: Optional[float]
    per_difficulty: dict[str, dict]
    error_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {**encode(self), "items": [
            {**encode(s), "review_semantic_correct": s.error_class is ErrorClass.WRONG_RESULT}
            for s in self.items]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        def pct(value):
            return "n/a" if value is None else f"{value:.2f}"

        lines = [
            f"items: {self.n}",
            f"EX: {pct(self.ex_pct)}   EM: {pct(self.em_pct)} "
            f"(coverage {pct(self.em_coverage_pct)}%)   VES: {pct(self.ves)}",
            "",
            f"{'difficulty':<14}{'n':>6}{'EX':>10}{'EM':>10}{'VES':>10}",
        ]
        for label in sorted(self.per_difficulty):
            row = self.per_difficulty[label]
            lines.append(f"{label:<14}{row['n']:>6}{pct(row['ex_pct']):>10}"
                         f"{pct(row['em_pct']):>10}{pct(row['ves']):>10}")
        lines.append("")
        lines.append("error classes:")
        for name in sorted(self.error_counts):
            lines.append(f"  {name:<22}{self.error_counts[name]}")
        return "\n".join(lines)


def _aggregate(scores: Sequence[ItemScore]) -> dict:
    n = len(scores)
    if n == 0:
        return {"n": 0, "ex_pct": None, "em_pct": None,
                "em_coverage_pct": None, "ves": None}
    ex_pct = 100.0 * sum(1.0 for s in scores if s.ex) / n
    ves = 100.0 * sum(s.ves_ratio if s.ex else 0.0 for s in scores) / n
    with_em = [s for s in scores if s.em is not None]
    em_pct = (100.0 * sum(1.0 for s in with_em if s.em) / len(with_em)
              if with_em else None)
    coverage = 100.0 * len(with_em) / n
    return {"n": n, "ex_pct": ex_pct, "em_pct": em_pct,
            "em_coverage_pct": coverage, "ves": ves}


def build_report(item_scores: Sequence[ItemScore]) -> EvalReport:
    """Aggregate metrics overall and per difficulty label, plus the error histogram."""
    scores = list(item_scores)
    per_difficulty = {label: _aggregate([s for s in scores if s.difficulty == label])
                      for label in sorted({s.difficulty for s in scores})}
    return EvalReport(items=scores, per_difficulty=per_difficulty,
                      error_counts=Counter(s.error_class.value for s in scores),
                      **_aggregate(scores))
