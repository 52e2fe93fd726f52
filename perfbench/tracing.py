"""In-memory span tracer installed around the program's public functions.

Each wrapped function records a span (id, name, start, end, parent, phase,
site) at the name its calling module imported it under, so the call sites stay
the program's own. Spans are kept in a list and written to one JSON file when
the run ends. The wrappers are installed only for the traced run.

A span is appended as a tuple when its call returns, so the list holds only
atomic values that the cyclic garbage collector stops scanning; with mutable
records the collector's passes over a growing list cost more than the spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from text2sql import cli, datasets, evaluation, pipeline, refiner, selector
from text2sql.datasets import DatabaseRegistry
from text2sql.pipeline import Journal, Pipeline

ID, NAME, START, END, PARENT, PHASE, SITE = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self.phase = None
        self._phase_span = None
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def phase_span(self, phase: str):
        """A top-level span for one command; spans of its worker threads hang below it."""
        self.phase = phase
        self._phase_span = span_id = next(self._ids)
        start = self.clock()
        try:
            yield
        finally:
            self.spans.append((span_id, f"cmd.{phase}", start, self.clock(), None, phase, ""))
            self.phase = self._phase_span = None

    def wrap(self, owner, attr: str, name: str, site: str = "", on_result=None):
        original = getattr(owner, attr)
        spans, clock, ids = self.spans, self.clock, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._phase_span
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent, self.phase, site))
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, backend_class) -> None:
        counts = self.counts

        def rows_fetched(_args, outcome):
            counts["execution.calls"] += 1
            counts["execution.rows"] += len(outcome.rows) if outcome.rows is not None else 0

        def kept_columns(args, pruned):
            source = args[0]
            counts["selector.kept_columns"] += sum(len(c) for c in pruned.selection.values())
            counts["selector.all_columns"] += sum(len(t.columns) for t in source.tables)

        def corrections(_args, result):
            counts["refiner.corrections"] += sum(1 for a in result[1] if a.corrected_sql)

        w = self.wrap
        w(cli, "load_benchmark", "datasets.load_benchmark")
        w(DatabaseRegistry, "get_schema", "datasets.get_schema")
        w(datasets, "introspect", "schema.introspect")
        for fn in ("render_schema_description", "render_table_blocks", "render_foreign_keys"):
            w(pipeline, fn, "schema.render", site="pipeline")
        for fn in ("render_table_blocks", "render_foreign_keys"):
            w(selector, fn, "schema.render", site="selector")
        w(pipeline, "needs_pruning", "selector.gate")
        w(pipeline, "build_selector_prompt", "selector.prompt")
        w(pipeline, "parse_pruning_decision", "selector.parse")
        w(pipeline, "apply_pruning", "selector.apply", on_result=kept_columns)
        w(pipeline, "build_decomposer_prompt", "decomposer.prompt")
        w(pipeline, "parse_decomposition", "decomposer.parse")
        w(pipeline, "refine_loop", "refiner.loop", on_result=corrections)
        w(refiner, "execute_sql", "execution.execute_sql", site="refiner", on_result=rows_fetched)
        w(evaluation, "execute_sql", "execution.execute_sql", site="evaluation",
          on_result=rows_fetched)
        w(cli, "exec_match", "cli.bench_ex_pass")
        w(pipeline, "exec_match", "evaluation.exec_match", site="export")
        w(cli, "score_item", "evaluation.score_item")
        w(evaluation, "ves_ratio", "evaluation.ves")
        w(evaluation, "rows_equal", "evaluation.rows_equal")
        w(evaluation, "exact_match", "clauses.exact_match")
        w(Journal, "append", "pipeline.journal_append")
        w(Journal, "load", "pipeline.journal_load")
        w(cli, "export_instruction_data", "pipeline.export")
        w(cli, "_load_predictions", "cli.load_predictions")
        w(Pipeline, "run_question", "pipeline.run_question")
        w(backend_class, "complete", "backend.complete")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "phase", "site")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, handle)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, *, questions: int, eval_items: int, benches: int,
                  exports: int, prompt_tokens: Counter, journal_bytes: int,
                  overhead_us: float) -> dict:
    """Per-layer figures from the spans and counts of the traced rounds."""
    spans = tracer.spans
    counts = tracer.counts
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    def durations(name, pred=lambda s: True):
        return [s[END] - s[START] for s in by_name[name] if pred(s)]

    has_introspect = {s[PARENT] for s in by_name["schema.introspect"]}
    get_schema = by_name["datasets.get_schema"]
    cold = [s[END] - s[START] for s in get_schema if s[ID] in has_introspect]
    warm = [s[END] - s[START] for s in get_schema if s[ID] not in has_introspect]
    run_q = by_name["pipeline.run_question"]
    refiner_calls = sorted(durations("execution.execute_sql", lambda s: s[SITE] == "refiner"))
    q = max(questions, 1)

    def pct(values, p):
        if not values:
            return 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[p - 1] \
            if len(values) > 1 else values[0]

    ms, us = 1e3, 1e6
    m = {
        "datasets.load_benchmark_ms": (_mean(durations("datasets.load_benchmark")) * ms, "ms"),
        "datasets.get_schema_cold_ms": (_mean(cold) * ms, "ms"),
        "datasets.get_schema_warm_us": (_mean(warm) * us, "us"),
        "schema.introspect_ms": (sum(durations("schema.introspect")) / max(benches, 1) * ms, "ms"),
        "schema.render_ms_per_question": (sum(durations("schema.render")) / q * ms, "ms"),
        "schema.render_calls_per_question": (len(by_name["schema.render"]) / q, "count"),
        "selector.fired_per_question": (len(by_name["selector.prompt"]) / q, "count"),
        "selector.prompt_ms": (_mean(durations("selector.prompt")) * ms, "ms"),
        "selector.parse_ms": (_mean(durations("selector.parse")) * ms, "ms"),
        "selector.apply_ms": (_mean(durations("selector.apply")) * ms, "ms"),
        "selector.kept_column_ratio": (
            counts["selector.kept_columns"] / counts["selector.all_columns"]
            if counts["selector.all_columns"] else 1.0, "ratio"),
        "decomposer.prompt_ms": (_mean(durations("decomposer.prompt")) * ms, "ms"),
        "decomposer.parse_ms": (_mean(durations("decomposer.parse")) * ms, "ms"),
        "backend.calls_per_question": (len(by_name["backend.complete"]) / q, "calls"),
        "backend.complete_us": (_mean(durations("backend.complete")) * us, "us"),
        "refiner.loop_ms": (_mean(durations("refiner.loop")) * ms, "ms"),
        "refiner.rounds_per_question": (counts["refiner.corrections"] / q, "count"),
        "execution.calls_per_question.bench": (
            len(durations("execution.execute_sql", lambda s: s[PHASE] == "bench")) / q,
            "count"),
        "execution.calls_per_item.eval": (
            len(durations("execution.execute_sql", lambda s: s[PHASE] == "eval"))
            / max(eval_items, 1), "count"),
        "execution.call_ms_p50": (pct(refiner_calls, 50) * ms, "ms"),
        "execution.call_ms_p90": (pct(refiner_calls, 90) * ms, "ms"),
        "execution.rows_fetched_per_call": (
            counts["execution.rows"] / max(counts["execution.calls"], 1), "rows"),
        "execution.overhead_us": (overhead_us, "us"),
        "clauses.exact_match_ms": (_mean(durations("clauses.exact_match")) * ms, "ms"),
        "evaluation.score_item_ms": (_mean(durations("evaluation.score_item")) * ms, "ms"),
        "evaluation.ves_ms_per_item": (
            sum(durations("evaluation.ves")) / max(eval_items, 1) * ms, "ms"),
        "evaluation.rows_equal_ms": (_mean(durations("evaluation.rows_equal")) * ms, "ms"),
        "pipeline.run_question_self_ms": (
            _mean([s[END] - s[START] - child_time[s[ID]] for s in run_q]) * ms, "ms"),
        "trace.question_span_coverage_pct": (
            100 * sum(child_time[s[ID]] for s in run_q)
            / max(sum(s[END] - s[START] for s in run_q), 1e-12), "%"),
        "pipeline.journal_append_ms": (_mean(durations("pipeline.journal_append")) * ms, "ms"),
        "pipeline.journal_bytes_per_question": (journal_bytes / q, "bytes"),
        "pipeline.journal_load_ms": (
            _mean(durations("pipeline.journal_load", lambda s: s[PHASE] == "export")) * ms, "ms"),
        "pipeline.export_ms": (sum(durations("pipeline.export")) / max(exports, 1) * ms, "ms"),
        "cli.bench_ex_pass_ms": (sum(durations("cli.bench_ex_pass")) / max(benches, 1) * ms, "ms"),
        "cli.load_predictions_ms": (_mean(durations("cli.load_predictions")) * ms, "ms"),
    }
    for agent in ("selector", "decomposer", "refiner"):
        m[f"backend.prompt_tokens.{agent}"] = (prompt_tokens[agent] / q, "tokens")
    return m
