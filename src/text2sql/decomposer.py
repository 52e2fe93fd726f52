"""Chain-of-thought SQL generation: few-shot prompt and sub-question/sub-SQL parsing."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .backend import ChatRequest
from .prompts import (DECOMPOSER_NEW_ITEM, DECOMPOSER_PREAMBLE, DECOMPOSER_SHOTS,
                      SECTION_SEPARATOR, fill)

logger = logging.getLogger(__name__)

MAX_EXPECTED_STEPS = 5

_FENCE_RE = re.compile(r"```[ \t]*(?:sql)?[ \t]*\r?\n(.*?)```",
                       re.DOTALL | re.IGNORECASE)
_HEADER_RE = re.compile(r"^[ \t]*Sub[ -]?question\s*\d+\s*:[ \t]*(.*)$",
                        re.IGNORECASE | re.MULTILINE)
_BARE_SQL_RE = re.compile(r"(?:^|\n)[ \t]*((?:SELECT|WITH)\b.*)\Z",
                          re.IGNORECASE | re.DOTALL)


class NoSqlFound(Exception):
    """The model response contains no recoverable SQL statement."""


@dataclass(frozen=True)
class DecompositionStep:
    sub_question: str
    sub_sql: str


@dataclass(frozen=True)
class DecompositionResult:
    steps: tuple[DecompositionStep, ...]

    @property
    def final_sql(self) -> str:
        return self.steps[-1].sub_sql


def build_decomposer_prompt(schema_text: str, fk_text: str, question: str,
                            evidence: str = "", shots: int = 2) -> ChatRequest:
    if shots not in (0, 1, 2):
        raise ValueError("shots must be 0, 1, or 2")
    new_item = fill(DECOMPOSER_NEW_ITEM, desc_str=schema_text, fk_str=fk_text,
                    query=question, evidence=evidence)
    return ChatRequest(user_text=SECTION_SEPARATOR.join(
        [DECOMPOSER_PREAMBLE, *DECOMPOSER_SHOTS[:shots], new_item]))


def extract_sql_blocks(text: str) -> list[tuple[int, int, str]]:
    """All fenced SQL blocks as (start, end, trimmed interior) in document order."""
    return [(m.start(), m.end(), m.group(1).strip()) for m in _FENCE_RE.finditer(text)]


def recover_trailing_sql(text: str) -> str | None:
    """Unfenced fallback: a trailing region starting with SELECT or WITH."""
    matches = list(_BARE_SQL_RE.finditer(text))
    if not matches:
        return None
    candidate = matches[-1].group(1).strip()
    return candidate or None


def extract_last_sql(text: str) -> str | None:
    """Last SQL statement in a response; used for refiner corrections too."""
    blocks = extract_sql_blocks(text)
    if blocks:
        return blocks[-1][2] or None
    return recover_trailing_sql(text)


def parse_decomposition(response_text: str) -> DecompositionResult:
    """Extract ordered (sub-question, sub-SQL) steps; the last SQL is the answer.

    Responses without "Sub question N:" headers are accepted: each fenced SQL
    block becomes one anonymous step, and as a last resort a trailing bare
    SELECT/WITH statement counts as a single step.
    """
    blocks = extract_sql_blocks(response_text)
    headers = list(_HEADER_RE.finditer(response_text))

    steps: list[DecompositionStep] = []
    if headers and blocks:
        for idx, header in enumerate(headers):
            region_end = (headers[idx + 1].start() if idx + 1 < len(headers)
                          else len(response_text))
            for start, end, sql in blocks:
                if header.end() <= start and end <= region_end and sql:
                    steps.append(DecompositionStep(
                        sub_question=header.group(1).strip(), sub_sql=sql))
                    break
    if not steps and blocks:
        steps = [DecompositionStep(sub_question="", sub_sql=sql)
                 for _, _, sql in blocks if sql]
    if not steps:
        recovered = recover_trailing_sql(response_text)
        if recovered:
            steps = [DecompositionStep(sub_question="", sub_sql=recovered)]
    if not steps:
        raise NoSqlFound("no fenced SQL block or bare SELECT statement in response")

    if len(steps) > MAX_EXPECTED_STEPS:
        logger.warning("decomposition has %d steps; expected at most %d",
                       len(steps), MAX_EXPECTED_STEPS)
    return DecompositionResult(steps=tuple(steps))
