"""Command-line interface: ask one question, run benches, evaluate, export SFT data."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

import click

from .backend import (
    DEFAULT_API_KEY_ENV,
    DEFAULT_CONTEXT_WINDOW,
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_MODEL,
    HttpBackend,
    ScriptedBackend,
)
from .codec import encode
from .datasets import (
    DatabaseRegistry,
    MalformedItem,
    MissingDatabase,
    Task,
    load_benchmark,
)
# exec_match has no caller here: it stays as cli.exec_match for the benchmark's tracer
from .evaluation import build_report, exec_match, score_item  # noqa: F401
from .pipeline import (
    RETRIED_ERRORS,
    Journal,
    MissingGold,
    Pipeline,
    PipelineConfig,
    export_instruction_data,
    load_states,
    scored_ex,
)

ENV_PREFIX = "TEXT2SQL_"

# Each setting's default, whose type is the type the setting is read as.
_DEFAULTS = {
    "backend": "http",
    "endpoint": "",
    "model": DEFAULT_MODEL,
    "api_key_env": DEFAULT_API_KEY_ENV,
    "script_path": "",
    "script_strict": False,
    "context_window": DEFAULT_CONTEXT_WINDOW,
    "max_output_tokens": DEFAULT_MAX_OUTPUT_TOKENS,
    **dataclasses.asdict(PipelineConfig()),
}


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, value):
    """``value`` read as the type of the key's default, or a usage error.

    A bool is not a number, a number with a fractional part is not an int,
    a string key takes a string, or null (unset) where its default is empty,
    and a bool is spelled as one of ``_BOOL_WORDS``.
    """
    kind = type(_DEFAULTS[key])
    if type(value) is kind or (value is None and _DEFAULTS[key] == ""):
        return value
    if kind is bool:
        word = str(value).strip().lower()
        if word in _BOOL_WORDS:
            return _BOOL_WORDS[word]
    elif kind in (int, float) and not isinstance(value, bool) and not (
            kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise click.UsageError(f"setting {key!r} must be {kind.__name__}, got {value!r}")


def resolve_settings(config_path: Optional[str], flags: dict) -> dict:
    """Merged settings with flag > environment > file > default precedence."""
    settings = dict(_DEFAULTS)
    if config_path:
        try:
            with open(config_path, encoding="utf-8-sig") as handle:
                file_settings = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_settings, dict):
            raise click.UsageError("config file must contain a JSON object")
        for key, value in file_settings.items():
            if key not in settings:
                raise click.UsageError(f"unknown setting {key!r} in config file {config_path}")
            settings[key] = _coerce(key, value)
    for key in settings:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            settings[key] = _coerce(key, env_value)
    for key, value in flags.items():
        if value is not None:
            settings[key] = _coerce(key, value)
    pipeline_config(settings)
    return settings


def build_backend(settings: dict):
    """The backend the settings name; a value it refuses is a usage error."""
    try:
        if settings["backend"] == "script":
            if not settings["script_path"]:
                raise click.UsageError("scripted backend requires --script")
            return ScriptedBackend.from_file(settings["script_path"],
                                             strict=settings["script_strict"],
                                             context_window=settings["context_window"])
        if settings["backend"] == "http":
            if not settings["endpoint"]:
                raise click.UsageError("http backend requires an endpoint "
                                       "(--endpoint, TEXT2SQL_ENDPOINT, or config file)")
            return HttpBackend(endpoint=settings["endpoint"], model=settings["model"],
                               api_key_env=settings["api_key_env"],
                               context_window=settings["context_window"],
                               max_output_tokens=settings["max_output_tokens"])
    except ValueError as exc:
        raise click.UsageError(f"bad setting: {exc}") from None
    raise click.UsageError(f"unknown backend {settings['backend']!r}")


def pipeline_config(settings: dict) -> PipelineConfig:
    """The pipeline's settings; a value it refuses is a usage error."""
    try:
        return PipelineConfig(**{f.name: settings[f.name]
                                 for f in dataclasses.fields(PipelineConfig)})
    except ValueError as exc:
        raise click.UsageError(f"bad setting: {exc}") from None


def _benchmark(name: str, items_path: str, db_root: str):
    """``load_benchmark``, with a bad items file as a usage error."""
    try:
        return load_benchmark(name, items_path, db_root)
    except (MalformedItem, MissingDatabase) as exc:
        raise click.UsageError(f"bad items file {items_path}: {exc}") from None


def _write(path, chunks: Iterable[str]) -> None:
    """Write an output file chunk by chunk, creating its directory as a journal append does."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


def _backend_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True),
                     default=None, help="JSON config file."),
        click.option("--backend", type=click.Choice(["http", "script"]), default=None),
        click.option("--endpoint", default=None),
        click.option("--model", default=None),
        click.option("--script", "script_path", type=click.Path(exists=True),
                     default=None, help="Scripted-backend fixture file."),
        click.option("--shots", type=click.Choice(["0", "1", "2"]), default=None),
        click.option("--max-rounds", "max_rounds", type=int, default=None),
        click.option("--json", "json_output", is_flag=True,
                     help="Machine-readable output on stdout."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Multi-agent text-to-SQL pipeline and its evaluation harness."""


@main.command("ask")
@click.option("--db", "db_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--question", required=True)
@click.option("--evidence", default="")
@click.option("--execute", "execute_flag", is_flag=True,
              help="Also run the final SQL and print its rows.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the full pipeline trace as JSON.")
@_backend_options
def cmd_ask(db_path, question, evidence, execute_flag, trace_path, config_path,
            backend, endpoint, model, script_path, shots, max_rounds, json_output):
    """Translate one natural-language question against one database file."""
    settings = resolve_settings(config_path, {
        "backend": backend, "endpoint": endpoint, "model": model,
        "script_path": script_path, "shots": shots, "max_rounds": max_rounds,
    })
    llm = build_backend(settings)
    registry = DatabaseRegistry()
    db_id = Path(db_path).stem
    registry.register(db_id, db_path)
    pipe = Pipeline(llm, registry, pipeline_config(settings))

    task = Task(task_id="0", db_id=db_id, question=question, evidence=evidence)
    state = pipe.run_question(task)

    if trace_path:
        _write(trace_path, [json.dumps(state, default=encode, indent=2, sort_keys=True)])
    if state.error:
        click.echo(f"error: {state.error}", err=True)

    rows = None
    if execute_flag and state.outcome and state.outcome.rows is not None:
        rows = [list(r) for r in state.outcome.rows]  # the refiner's own run of the final SQL

    if json_output:
        click.echo(json.dumps({"sql": state.final_sql, "rows": rows,
                               "error": state.error}, sort_keys=True))
    else:
        click.echo(state.final_sql)
        if rows is not None:
            for row in rows:
                click.echo("\t".join(str(v) for v in row))
    sys.exit(0 if state.final_sql else 1)


@main.command("bench")
@click.option("--benchmark", "benchmark_name", required=True,
              type=click.Choice(["bird", "spider"]))
@click.option("--items", "items_path", required=True, type=click.Path(exists=True))
@click.option("--db-root", "db_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--journal", "journal_path", required=True, type=click.Path())
@click.option("--parallelism", type=int, default=None)
@click.option("--limit", type=click.IntRange(min=1), default=None,
              help="Only run the first N items.")
@_backend_options
def cmd_bench(benchmark_name, items_path, db_root, journal_path, parallelism,
              limit, config_path, backend, endpoint, model, script_path, shots,
              max_rounds, json_output):
    """Run a benchmark batch with a resumable journal."""
    settings = resolve_settings(config_path, {
        "backend": backend, "endpoint": endpoint, "model": model,
        "script_path": script_path, "shots": shots, "max_rounds": max_rounds,
        "parallelism": parallelism,
    })
    bench = _benchmark(benchmark_name, items_path, db_root)
    tasks = bench.tasks[:limit]
    llm = build_backend(settings)
    pipe = Pipeline(llm, bench.registry(), pipeline_config(settings))

    def progress(done, total, state):
        label = "error" if state.error else "ok"
        click.echo(f"[{done}/{total}] {state.task.task_id}: {label}", err=True)

    states = pipe.run_batch(tasks, journal_path=journal_path, progress=progress)

    # the states come back in task order; each is scored against the gold in --items
    with_gold = [(t, s) for t, s in zip(tasks, states) if t.gold_sql]
    failures = sum(1 for s in states if (s.error or "").startswith(RETRIED_ERRORS))
    summary = {"n": len(states), "journal": journal_path, "ex_pct": None,
               "backend_failures": failures}
    if with_gold:
        summary["ex_pct"] = 100.0 * sum(
            scored_ex(s, bench.registry().path(t.db_id), t.gold_sql, settings["timeout"])
            for t, s in with_gold) / len(with_gold)
    if json_output:
        click.echo(json.dumps(summary, sort_keys=True))
    elif summary["ex_pct"] is not None:
        click.echo(f"EX: {summary['ex_pct']:.2f} over {len(with_gold)} items "
                   f"-> {journal_path}")
    else:
        click.echo(f"{len(states)} items -> {journal_path}")
    if failures:
        click.echo(f"{failures} question(s) failed on the backend; rerunning the same "
                   f"command resumes them", err=True)
        sys.exit(1)


def _load_predictions(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise click.UsageError(f"cannot read predictions: {exc}")
    if not text.strip():
        raise click.UsageError("predictions file is empty")
    try:
        data = json.loads(text)
    except ValueError:  # a journal of several lines
        data = None
    # a journal line is an object too, but its "task" is an object
    if isinstance(data, dict) and not isinstance(data.get("task"), dict):
        for task_id, sql in data.items():
            if not isinstance(sql, str):
                raise click.UsageError(f"predictions file: task {task_id!r}: "
                                       f"expected SQL text, got {json.dumps(sql)}")
        return data
    lines = text.split("\n")  # read_text ended each line with "\n", as reading a file does
    del text  # only the lines are held while they decode
    predictions = {task_id: state.final_sql
                   for task_id, state in load_states(lines, path).items()}
    if not predictions:
        raise click.UsageError("predictions file contains no predictions")
    return predictions


@main.command("eval")
@click.option("--predictions", "predictions_path", required=True,
              type=click.Path(exists=True))
@click.option("--benchmark", "benchmark_name", required=True,
              type=click.Choice(["bird", "spider"]))
@click.option("--items", "items_path", required=True, type=click.Path(exists=True))
@click.option("--db-root", "db_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_prefix", default="eval_report",
              help="Prefix for the .json and .txt report files.")
@click.option("--ves/--no-ves", "with_ves", default=True)
@click.option("--timeout", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--json", "json_output", is_flag=True)
def cmd_eval(predictions_path, benchmark_name, items_path, db_root, out_prefix,
             with_ves, timeout, config_path, json_output):
    """Score a predictions file (task_id -> SQL, or a trace journal) against gold."""
    settings = resolve_settings(config_path, {"timeout": timeout})
    predictions = _load_predictions(predictions_path)
    bench = _benchmark(benchmark_name, items_path, db_root)

    scores = []
    for task in bench.tasks:
        if not task.gold_sql:
            raise click.UsageError(f"task {task.task_id} has no gold SQL to score against")
        pred = predictions.get(task.task_id, "")
        scores.append(score_item(
            task.task_id, pred, task.gold_sql,
            bench.registry().path(task.db_id),
            timeout=settings["timeout"], difficulty=task.difficulty,
            with_ves=with_ves))
    report = build_report(scores)

    json_path = Path(f"{out_prefix}.json")
    text_path = Path(f"{out_prefix}.txt")
    report_json, report_text = report.to_json(), report.to_text()
    _write(json_path, [report_json])
    _write(text_path, [report_text, "\n"])
    click.echo(f"report written to {json_path} and {text_path}", err=True)
    click.echo(report_json if json_output else report_text)


@main.command("export-sft")
@click.option("--journal", "journal_path", required=True, type=click.Path(exists=True))
@click.option("--benchmark", "benchmark_name", required=True,
              type=click.Choice(["bird", "spider"]))
@click.option("--items", "items_path", required=True, type=click.Path(exists=True))
@click.option("--db-root", "db_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--timeout", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--json", "json_output", is_flag=True)
def cmd_export_sft(journal_path, benchmark_name, items_path, db_root, out_path,
                   timeout, config_path, json_output):
    """Filter a trace journal to instruction records for supervised fine-tuning."""
    settings = resolve_settings(config_path, {"timeout": timeout})
    bench = _benchmark(benchmark_name, items_path, db_root)
    gold_lookup = {t.task_id: t.gold_sql for t in bench.tasks if t.gold_sql}
    states = list(Journal(journal_path).load().values())
    try:
        for state in states:  # a task --items lacks finds its database as an item's does
            if state.final_sql:
                bench.registry().register_under(Path(db_root), state.task.db_id,
                                                f"task {state.task.task_id}")
        records = export_instruction_data(states, bench.registry(),
                                          gold_lookup=gold_lookup,
                                          timeout=settings["timeout"])
    except (MissingDatabase, MissingGold) as exc:
        raise click.UsageError(str(exc))

    _write(out_path, (json.dumps(record, default=encode, sort_keys=True) + "\n"
                      for record in records))

    counts: dict[str, int] = {}
    for record in records:
        counts[record.difficulty] = counts.get(record.difficulty, 0) + 1
    if json_output:
        click.echo(json.dumps({"records": len(records), "per_difficulty": counts,
                               "out": out_path}, sort_keys=True))
    else:
        click.echo(f"{len(records)} records -> {out_path}")
        for label in sorted(counts):
            click.echo(f"  {label}: {counts[label]}")


if __name__ == "__main__":
    main()
