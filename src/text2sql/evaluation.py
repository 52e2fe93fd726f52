"""Scoring of predicted SQL: execution accuracy, exact match, efficiency, reports."""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .clauses import UnsupportedSyntax, parse_to_clause_set
from .execution import (
    DEFAULT_TIMEOUT,
    ExecStatus,
    ExecutionOutcome,
    OutcomeSummary,
    execute_sql,
    has_top_level_order_by,
    rows_equal,
)

VES_REPEATS = 5

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
    pred_outcome: OutcomeSummary
    gold_outcome: OutcomeSummary
    difficulty: str = "unlabeled"

    def __post_init__(self):
        if (self.ves_ratio is not None) != self.ex:
            raise ValueError("ves_ratio must be present exactly when ex is true")
        if (self.error_class is ErrorClass.NONE) != self.ex:
            raise ValueError("error_class must be NONE exactly when ex is true")


def _run_both(pred_sql: str, gold_sql: str, db_path: str, timeout: float):
    gold_out = execute_sql(db_path, gold_sql, timeout=timeout)
    if pred_sql and pred_sql.strip():
        pred_out = execute_sql(db_path, pred_sql, timeout=timeout)
    else:
        pred_out = ExecutionOutcome(status=ExecStatus.SYNTAX_ERROR,
                                    error_message="empty prediction",
                                    exception_class="EmptyPrediction")
    return pred_out, gold_out


def _results_match(pred_out: ExecutionOutcome, gold_out: ExecutionOutcome,
                   gold_sql: str, dedupe: bool = False) -> bool:
    if gold_out.status is not ExecStatus.OK:
        return False
    if pred_out.status is not ExecStatus.OK:
        return False
    order_sensitive = has_top_level_order_by(gold_sql)
    return rows_equal(pred_out.rows, gold_out.rows,
                      order_sensitive=order_sensitive, dedupe=dedupe)


def exec_match(pred_sql: str, gold_sql: str, db_path: str,
               timeout: float = DEFAULT_TIMEOUT, dedupe: bool = False) -> bool:
    """True iff both queries execute and return identical normalized result sets.

    Comparison is an unordered multiset unless the gold query has a top-level
    ORDER BY; ``dedupe`` switches to set semantics.
    """
    pred_out, gold_out = _run_both(pred_sql, gold_sql, db_path, timeout)
    return _results_match(pred_out, gold_out, gold_sql, dedupe=dedupe)


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

    ``db_stamp`` is ``(st_ino, st_size, st_mtime_ns)`` of the database file,
    taken before the queries ran; the verdict holds while the file still
    has it.
    """

    ex: bool
    db_stamp: tuple[int, int, int]


def db_stamp(db_path: str) -> Optional[tuple[int, int, int]]:
    """The identity of a database file a verdict is tied to; None when it is gone."""
    try:
        info = os.stat(db_path)
    except OSError:
        return None
    return (info.st_ino, info.st_size, info.st_mtime_ns)


def score_ex(pred_sql: str, gold_sql: str, db_path: str,
             timeout: float = DEFAULT_TIMEOUT) -> Optional[ExVerdict]:
    """The EX verdict of ``pred_sql`` against ``gold_sql``; None when the file is gone."""
    stamp = db_stamp(db_path)
    if stamp is None:
        return None
    return ExVerdict(bool(pred_sql) and exec_match(pred_sql, gold_sql, db_path, timeout),
                     stamp)


def exact_match(pred_sql: str, gold_sql: str) -> Optional[bool]:
    """Clause-set equality; None when either side falls outside the EM grammar."""
    try:
        pred = parse_to_clause_set(pred_sql)
        gold = parse_to_clause_set(gold_sql)
    except UnsupportedSyntax:
        return None
    return pred == gold


def classify_error(pred_outcome: ExecutionOutcome, gold_outcome: ExecutionOutcome,
                   ex: bool, em: Optional[bool] = None) -> ErrorClass:
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
               with_ves: bool = True, run_timer: Optional[RunTimer] = None,
               dedupe: bool = False) -> ItemScore:
    pred_out, gold_out = _run_both(pred_sql, gold_sql, db_path, timeout)
    ex = _results_match(pred_out, gold_out, gold_sql, dedupe=dedupe)
    em = exact_match(pred_sql, gold_sql) if pred_sql.strip() else False
    error_class = classify_error(pred_out, gold_out, ex, em)
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
        pred_outcome=OutcomeSummary.from_outcome(pred_out),
        gold_outcome=OutcomeSummary.from_outcome(gold_out),
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
        return {
            "n": self.n,
            "ex_pct": self.ex_pct,
            "em_pct": self.em_pct,
            "em_coverage_pct": self.em_coverage_pct,
            "ves": self.ves,
            "per_difficulty": self.per_difficulty,
            "error_counts": self.error_counts,
            "items": [
                {
                    "task_id": s.task_id,
                    "ex": s.ex,
                    "em": s.em,
                    "ves_ratio": s.ves_ratio,
                    "error_class": s.error_class.value,
                    "difficulty": s.difficulty,
                    "review_semantic_correct": s.error_class is ErrorClass.WRONG_RESULT,
                    "pred_status": s.pred_outcome.status.value,
                    "gold_status": s.gold_outcome.status.value,
                }
                for s in self.items
            ],
        }

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
    overall = _aggregate(scores)
    per_difficulty = {}
    for label in sorted({s.difficulty for s in scores}):
        per_difficulty[label] = _aggregate([s for s in scores if s.difficulty == label])
    error_counts: dict[str, int] = {}
    for s in scores:
        error_counts[s.error_class.value] = error_counts.get(s.error_class.value, 0) + 1

    return EvalReport(
        items=scores,
        n=overall["n"],
        ex_pct=overall["ex_pct"],
        em_pct=overall["em_pct"],
        em_coverage_pct=overall["em_coverage_pct"] if scores else None,
        ves=overall["ves"],
        per_difficulty=per_difficulty,
        error_counts=error_counts,
    )
