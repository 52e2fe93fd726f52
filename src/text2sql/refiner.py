"""Execute-and-fix loop: run a candidate SQL and prompt for corrections."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .backend import ChatRequest, ChatResponse
from .decomposer import extract_last_sql
from .execution import (
    DEFAULT_TIMEOUT,
    ExecStatus,
    ExecutionOutcome,
    OutcomeSummary,
    execute_sql,
)
from .prompts import REFINER_TEMPLATE, fill

MAX_ROUNDS = 3

EMPTY_RESULT_ERROR = "empty result set"
EMPTY_RESULT_CLASS = "EmptyResult"


@dataclass(frozen=True)
class RefineAttempt:
    round: int
    input_sql: str
    outcome: OutcomeSummary
    corrected_sql: Optional[str] = None


def build_refiner_prompt(question: str, evidence: str, schema_text: str,
                         fk_text: str, old_sql: str,
                         outcome: ExecutionOutcome) -> ChatRequest:
    if outcome.status is ExecStatus.OK:
        raise ValueError("refiner prompt requires a failed outcome")
    if outcome.status is ExecStatus.EMPTY_RESULT:
        sqlite_error, exception_class = EMPTY_RESULT_ERROR, EMPTY_RESULT_CLASS
    else:
        sqlite_error = outcome.error_message
        exception_class = outcome.exception_class
    user_text = fill(
        REFINER_TEMPLATE,
        query=question,
        evidence=evidence,
        desc_str=schema_text,
        fk_str=fk_text,
        sql=old_sql,
        sqlite_error=sqlite_error,
        exception_class=exception_class,
    )
    return ChatRequest(user_text=user_text)


def refine_loop(complete: Callable[[ChatRequest], ChatResponse],
                db_path: str, question: str, evidence: str,
                schema_text: str, fk_text: str, initial_sql: str,
                max_rounds: int = MAX_ROUNDS, timeout: float = DEFAULT_TIMEOUT,
                clock: Callable[[], float] = time.monotonic
                ) -> tuple[str, list[RefineAttempt]]:
    """Execute, and while faulty, ask for corrections up to ``max_rounds`` times.

    Every outcome except OK with rows calls for a correction, which
    ``complete`` is asked for. Returns the last candidate SQL whether or not it
    ultimately succeeded. A response from which no correction can be parsed
    ends the loop with the prior candidate. BackendUnavailable propagates to
    the caller.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    attempts: list[RefineAttempt] = []
    sql = initial_sql
    while True:
        rnd = len(attempts) + 1
        start = clock()
        outcome = execute_sql(db_path, sql, timeout=timeout)
        summary = OutcomeSummary.from_outcome(outcome, clock() - start)
        if outcome.status is ExecStatus.OK or rnd > max_rounds:
            attempts.append(RefineAttempt(round=rnd, input_sql=sql, outcome=summary))
            return sql, attempts
        request = build_refiner_prompt(question, evidence, schema_text, fk_text,
                                       sql, outcome)
        corrected = extract_last_sql(complete(request).text)
        attempts.append(RefineAttempt(round=rnd, input_sql=sql, outcome=summary,
                                      corrected_sql=corrected))
        if corrected is None:
            return sql, attempts
        sql = corrected
