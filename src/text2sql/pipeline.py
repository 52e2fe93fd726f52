"""End-to-end question pipeline, batch runner with resume, and instruction export."""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .backend import BackendUnavailable, ChatResponse
from .codec import decoder, encode
from .datasets import DatabaseRegistry, MissingDatabase, Task
from .decomposer import (
    DecompositionStep,
    NoSqlFound,
    build_decomposer_prompt,
    parse_decomposition,
)
from .evaluation import ExVerdict, exec_match, outcome_matches
from .execution import DEFAULT_TIMEOUT, ExecutionOutcome, db_stamp
from .refiner import MAX_ROUNDS, RefineAttempt, refine_loop
from .schema import render_foreign_keys, render_schema_description, render_table_blocks
from .selector import (
    AllTablesDropped,
    AppliedPruning,
    NoJsonFound,
    apply_pruning,
    build_selector_prompt,
    needs_pruning,
    parse_pruning_decision,
    pruned_schema,
)

logger = logging.getLogger(__name__)

SELECTOR = "selector"
DECOMPOSER = "decomposer"
REFINER = "refiner"

# run_question records a transient backend failure with one of these prefixes;
# a resumed batch runs such tasks again and skips every other journaled state.
RETRIED_ERRORS = ("backend failure:", "refiner backend failure:")


class MissingGold(Exception):
    """Instruction export needs a gold query that is not available."""


@dataclass(frozen=True)
class PipelineConfig:
    shots: int = 2
    max_rounds: int = MAX_ROUNDS
    timeout: float = DEFAULT_TIMEOUT
    parallelism: int = 1

    def __post_init__(self):
        if self.shots not in (0, 1, 2):
            raise ValueError(f"shots must be 0, 1, or 2, got {self.shots!r}")
        for name in ("max_rounds", "parallelism", "timeout"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass
class LlmCall:
    agent: str
    prompt: str
    system: str
    response: str
    prompt_tokens: int
    completion_tokens: int
    latency: float


@dataclass
class PipelineState:
    """One question's trace; its fields, recursively, are the keys of a journal line."""

    task: Task
    final_sql: str = ""
    pruning: Optional[AppliedPruning] = None
    steps: list[DecompositionStep] = field(default_factory=list)
    refine_attempts: list[RefineAttempt] = field(default_factory=list)
    llm_calls: list[LlmCall] = field(default_factory=list)
    error: Optional[str] = None
    elapsed: float = 0.0
    ex_verdict: Optional[ExVerdict] = None
    # The refiner's outcome of final_sql, for scoring and ``ask --execute``. It
    # is not init, so the codec never writes its rows to a journal or a trace.
    outcome: Optional[ExecutionOutcome] = field(default=None, init=False, repr=False,
                                                 compare=False)


def scored_ex(state: PipelineState, db_path: str, gold: str,
              timeout: float = DEFAULT_TIMEOUT) -> bool:
    """The EX of the state's final SQL against ``gold``: journaled while it holds, else scored now.

    A verdict was scored against the state's own gold SQL, so it holds while
    that gold equals ``gold`` and the database file keeps the stamp it had.
    """
    verdict = state.ex_verdict
    if verdict is not None and state.task.gold_sql == gold and verdict.db_stamp == db_stamp(db_path):
        return verdict.ex
    return exec_match(state.final_sql, gold, db_path, timeout=timeout)


class Pipeline:
    """Runs the selector -> decomposer -> refiner sequence per question."""

    def __init__(self, backend, registry: DatabaseRegistry,
                 config: PipelineConfig = PipelineConfig(),
                 clock: Callable[[], float] = time.monotonic):
        self.backend = backend
        self.registry = registry
        self.config = config
        self.clock = clock

    def _complete(self, agent: str, request, calls: list[LlmCall]) -> ChatResponse:
        response = self.backend.complete(request)
        calls.append(LlmCall(
            agent=agent,
            prompt=request.user_text,
            system=request.system_text,
            response=response.text,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            latency=response.latency,
        ))
        return response

    def run_question(self, task: Task) -> PipelineState:
        start = self.clock()
        state = PipelineState(task=task)
        config = self.config
        try:
            schema = self.registry.get_schema(task.db_id)
            db_path = self.registry.path(task.db_id)
            working = schema

            full_description = render_schema_description(schema)
            if needs_pruning(full_description, self.backend.context_window):
                request = build_selector_prompt(schema, task.question, task.evidence)
                response = self._complete(SELECTOR, request, state.llm_calls)
                try:
                    decision = parse_pruning_decision(response.text, schema)
                    state.pruning = apply_pruning(schema, decision)
                except (NoJsonFound, AllTablesDropped) as exc:
                    logger.warning("selector failed for task %s (%s); "
                                   "using the full schema", task.task_id, exc)
                else:
                    working = pruned_schema(schema, state.pruning.selection)

            desc_str = render_table_blocks(working)
            fk_str = render_foreign_keys(working)

            request = build_decomposer_prompt(desc_str, fk_str, task.question,
                                              task.evidence, shots=config.shots)
            response = self._complete(DECOMPOSER, request, state.llm_calls)
            decomposition = parse_decomposition(response.text)
            state.steps = list(decomposition.steps)

            def refine(request) -> ChatResponse:
                try:  # a failure ends the loop as a reply with no SQL does
                    return self._complete(REFINER, request, state.llm_calls)
                except BackendUnavailable as exc:
                    state.error = f"refiner backend failure: {exc}"
                    return ChatResponse("")

            state.final_sql, state.refine_attempts, state.outcome = refine_loop(
                refine, db_path, task.question, task.evidence,
                desc_str, fk_str, decomposition.final_sql,
                max_rounds=config.max_rounds, timeout=config.timeout, clock=self.clock)
        except NoSqlFound as exc:
            state.error = f"decomposer produced no SQL: {exc}"
        except BackendUnavailable as exc:
            state.error = f"backend failure: {exc}"
        except Exception as exc:  # per-task isolation: nothing escapes a worker
            logger.exception("task %s failed", task.task_id)
            state.error = f"{type(exc).__name__}: {exc}"
        state.elapsed = self.clock() - start
        return state

    def _run_and_score(self, task: Task) -> PipelineState:
        """``run_question``, then the EX verdict of its final SQL when the task has gold.

        The verdict judges the refiner's outcome of the final SQL and runs only
        the gold; a state with no outcome has no final SQL, a miss. The stamp is
        taken before the question, so it predates every execution the verdict
        rests on. Scoring runs on the worker but outside the question's own time.
        """
        gold = task.gold_sql
        try:
            db_path = self.registry.path(task.db_id)
        except MissingDatabase:  # run_question records it
            db_path = None
        stamp = db_stamp(db_path) if gold and db_path else None  # None: the file is gone
        state = self.run_question(task)
        outcome, state.outcome = state.outcome, None  # no state keeps rows past here
        if stamp is not None:
            try:
                ex = outcome is not None and outcome_matches(outcome, gold, db_path,
                                                             self.config.timeout)
                state.ex_verdict = ExVerdict(ex, stamp)
            except Exception:  # no verdict: the readers score the state themselves
                logger.exception("scoring task %s failed", task.task_id)
        return state

    def run_batch(self, tasks: Sequence[Task], journal_path: Optional[str] = None,
                  progress: Optional[Callable[[int, int, PipelineState], None]] = None,
                  ) -> list[PipelineState]:
        """Run tasks with per-task isolation; completed work is never redone.

        Results come back in input order regardless of completion order, each
        with its EX verdict when its task has gold SQL. With a journal path,
        finished states are appended as JSON lines. A rerun reuses the state
        journaled for a task id when it asked the same question (database,
        question and evidence; its gold may differ) and did not fail on the
        backend (``RETRIED_ERRORS``); any other task runs, and its new state is
        appended after the old one.
        """
        journal = Journal(journal_path) if journal_path else None
        asks = {t.task_id: (t.db_id, t.question, t.evidence) for t in tasks}
        done = {task_id: state
                for task_id, state in (journal.load() if journal else {}).items()
                if asks.get(task_id) == (state.task.db_id, state.task.question,
                                         state.task.evidence)
                and not (state.error or "").startswith(RETRIED_ERRORS)}

        pending = [t for t in tasks if t.task_id not in done]
        results: dict[str, PipelineState] = dict(done)
        completed = len(done)
        total = len(tasks)

        if pending:
            with ThreadPoolExecutor(max_workers=self.config.parallelism) as pool:
                futures = {pool.submit(self._run_and_score, t): t for t in pending}
                for future in as_completed(futures):
                    state = future.result()
                    results[state.task.task_id] = state
                    if journal:
                        journal.append(state)
                    completed += 1
                    if progress:
                        progress(completed, total, state)
        return [results[t.task_id] for t in tasks]


def load_states(lines: Iterable[str], source) -> dict[str, PipelineState]:
    """The last state per task id of journal ``lines``; lines that do not decode are skipped."""
    states: dict[str, PipelineState] = {}
    skipped = 0
    decode = decoder(PipelineState)
    for line in lines:
        if not line.strip():
            continue
        try:
            state = decode(json.loads(line))
        except (TypeError, ValueError):  # JSONDecodeError is a ValueError
            skipped += 1
            continue
        states[state.task.task_id] = state
    if skipped:
        logger.warning("skipped %d journal line(s) that do not decode in %s", skipped, source)
    return states


class Journal:
    """Append-only JSONL trace store keyed by task id; the resume point for batches."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._lock = threading.Lock()

    def load(self) -> dict[str, PipelineState]:
        """The last state per task id; lines that do not decode are skipped."""
        if not self.path.exists():
            return {}
        with open(self.path, encoding="utf-8-sig") as handle:
            return load_states(handle, self.path)

    def append(self, state: PipelineState) -> None:
        line = (json.dumps(state, default=encode, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                if handle.tell():  # a line torn by a crash mid-append is ended first
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
                handle.flush()


@dataclass
class InstructionRecord:
    agent_task: str
    prompt: str
    target_response: str
    db_id: str
    difficulty: str
    passed: bool = True
    note: str = ""


REFINER_TARGET_NOTE = "target is the post-correction response"


def export_instruction_data(states: Iterable[PipelineState],
                            registry: DatabaseRegistry,
                            gold_lookup: Optional[Mapping[str, str]] = None,
                            timeout: float = DEFAULT_TIMEOUT) -> list[InstructionRecord]:
    """One record per agent call, for states whose final SQL execution-matches gold.

    The gold is ``gold_lookup``'s, else the journaled task's, and the filter is
    ``scored_ex`` against it. Raises MissingGold when a state has no gold query
    to filter against.
    """
    records: list[InstructionRecord] = []
    for state in states:
        task = state.task
        gold = (gold_lookup or {}).get(task.task_id) or task.gold_sql
        if not gold:
            raise MissingGold(f"no gold SQL for task {task.task_id}")
        if not state.final_sql:
            continue
        if not scored_ex(state, registry.path(task.db_id), gold, timeout):
            continue
        for call in state.llm_calls:
            records.append(InstructionRecord(
                agent_task=call.agent,
                prompt=call.prompt,
                target_response=call.response,
                db_id=task.db_id,
                difficulty=task.difficulty,
                passed=True,
                note=REFINER_TARGET_NOTE if call.agent == REFINER else "",
            ))
    return records
