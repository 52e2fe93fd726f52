from __future__ import annotations

from pathlib import Path

from text2sql.decomposer import build_decomposer_prompt
from text2sql.execution import ExecStatus, ExecutionOutcome
from text2sql.prompts import fill
from text2sql.refiner import build_refiner_prompt
from text2sql.schema import render_foreign_keys, render_table_blocks
from text2sql.selector import (
    apply_pruning,
    build_selector_prompt,
    parse_pruning_decision,
    pruned_schema,
)

GOLDEN = Path(__file__).parent / "data" / "golden"

QUESTION = ("What is the gender of the youngest client who opened account "
            "in the lowest average salary branch?")
EVIDENCE = "Later birthdate refers to younger age; A11 refers to average salary"
ANSWER = """{
    "account": "keep_all",
    "client": "keep_all",
    "loan": "drop_all",
    "district": ["district_id", "A11", "A2", "A4", "A6", "A7"]
}"""


def pruned_texts(banking_schema):
    decision = parse_pruning_decision(ANSWER, banking_schema)
    pruned = pruned_schema(banking_schema, apply_pruning(banking_schema, decision).selection)
    return render_table_blocks(pruned), render_foreign_keys(pruned)


def test_selector_prompt_snapshot(banking_schema):
    prompt = build_selector_prompt(banking_schema, QUESTION, EVIDENCE).user_text
    assert prompt == (GOLDEN / "selector_prompt.txt").read_text(encoding="utf-8")


def test_decomposer_prompt_snapshot(banking_schema):
    desc, fk = pruned_texts(banking_schema)
    prompt = build_decomposer_prompt(desc, fk, QUESTION, EVIDENCE, shots=2).user_text
    assert prompt == (GOLDEN / "decomposer_prompt.txt").read_text(encoding="utf-8")


def test_refiner_prompt_snapshot(banking_schema):
    desc, fk = pruned_texts(banking_schema)
    outcome = ExecutionOutcome(status=ExecStatus.SCHEMA_ERROR,
                               error_message="no such column: T1.gendr",
                               exception_class="OperationalError")
    prompt = build_refiner_prompt(QUESTION, EVIDENCE, desc, fk,
                                  "SELECT T1.`gendr` FROM client AS T1",
                                  outcome).user_text
    assert prompt == (GOLDEN / "refiner_prompt.txt").read_text(encoding="utf-8")


def test_fill_is_brace_safe():
    template = "keep {slot} but not {other} or {braces}"
    filled = fill(template, slot="{nested}")
    assert filled == "keep {nested} but not {other} or {braces}"


def test_refiner_prompt_shows_the_old_sql_as_written(banking_schema):
    desc, fk = pruned_texts(banking_schema)
    outcome = ExecutionOutcome(status=ExecStatus.SYNTAX_ERROR,
                               error_message="near x: syntax error",
                               exception_class="OperationalError")
    old_sql = "SELECT '{sqlite_error}' FROM t"
    prompt = build_refiner_prompt(QUESTION, EVIDENCE, desc, fk, old_sql, outcome).user_text
    assert f"[old SQL]\n```sql\n{old_sql}\n```" in prompt
    assert "'near x: syntax error'" not in prompt


def test_decomposer_prompt_keeps_slot_markers_in_schema_text():
    prompt = build_decomposer_prompt("# Table: t\n[(note, {query})]", "", "How many?",
                                     shots=0).user_text
    assert "[(note, {query})]" in prompt
    assert prompt.count("How many?") == 1
