"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import os
import time

import pytest
from click.testing import CliRunner

from dbfixtures import BANKING_DESCRIPTIONS
from metric_fixture import EXPECTED_EX, METRIC_ITEMS, oracle_exec_match
from propchecks import (
    check_pruning_enforcement,
    check_pruning_idempotence,
    make_invariant_check,
)

from text2sql.backend import ScriptedBackend
from text2sql.cli import main
from text2sql.clauses import parse_to_clause_set, render_sql
from text2sql.datasets import DatabaseRegistry, Task
from text2sql.decomposer import build_decomposer_prompt
from text2sql.evaluation import (
    ErrorClass,
    build_report,
    exact_match,
    exec_match,
    score_item,
)
from text2sql.execution import ExecStatus, ExecutionOutcome
from text2sql.pipeline import Journal, Pipeline, PipelineConfig, export_instruction_data
from text2sql.refiner import build_refiner_prompt
from text2sql.selector import build_selector_prompt

from test_prompts import EVIDENCE, GOLDEN, QUESTION, pruned_texts

FINAL_GENDER_SQL = (
    "SELECT T1.`gender`\n"
    "    FROM client AS T1\n"
    "    INNER JOIN district AS T2\n"
    "    ON T1.`district_id` = T2.`district_id`\n"
    "    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC\n"
    "    LIMIT 1"
)


def report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


class TestCriterion1WorkedExampleReplay:
    def test_replay(self, banking_bird_root, scripted_banking_path, tmp_path):
        start = time.monotonic()
        db_file = str(banking_bird_root / "banking_system" / "banking_system.sqlite")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "backend": "script",
            "script_path": str(scripted_banking_path),
            "script_strict": True,
            "context_window": 256,
        }), encoding="utf-8")
        trace = tmp_path / "trace.json"

        result = CliRunner().invoke(main, [
            "ask", "--db", db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", str(config),
            "--trace", str(trace), "--json",
        ])
        elapsed = time.monotonic() - start

        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["sql"] == FINAL_GENDER_SQL  # byte-equal final SQL

        state = json.loads(trace.read_text(encoding="utf-8"))
        assert state["pruning"]["verdicts"] == {
            "account": "keep_all",
            "client": "keep_all",
            "loan": "drop_all",
            "district": ["district_id", "A11", "A2", "A4", "A6", "A7"],
        }
        assert sorted(state["pruning"]["selection"]) == ["account", "client", "district"]
        assert len(state["pruning"]["selection"]["district"]) == 6
        assert elapsed < 5.0
        report("1 worked-example replay", f"{elapsed:.2f}s")


class TestCriterion2PromptSnapshots:
    def test_selector(self, banking_schema):
        prompt = build_selector_prompt(banking_schema, QUESTION, EVIDENCE).user_text
        assert prompt == (GOLDEN / "selector_prompt.txt").read_text(encoding="utf-8")
        report("2a selector prompt snapshot")

    def test_decomposer(self, banking_schema):
        desc, fk = pruned_texts(banking_schema)
        prompt = build_decomposer_prompt(desc, fk, QUESTION, EVIDENCE, shots=2).user_text
        assert prompt == (GOLDEN / "decomposer_prompt.txt").read_text(encoding="utf-8")
        report("2b decomposer prompt snapshot")

    def test_refiner(self, banking_schema):
        desc, fk = pruned_texts(banking_schema)
        outcome = ExecutionOutcome(status=ExecStatus.SCHEMA_ERROR,
                                   error_message="no such column: T1.gendr",
                                   exception_class="OperationalError")
        prompt = build_refiner_prompt(QUESTION, EVIDENCE, desc, fk,
                                      "SELECT T1.`gendr` FROM client AS T1",
                                      outcome).user_text
        assert prompt == (GOLDEN / "refiner_prompt.txt").read_text(encoding="utf-8")
        report("2c refiner prompt snapshot")


class TestCriterion3AlgorithmInvariants:
    def test_two_hundred_scenarios(self, banking_db):
        start = time.monotonic()
        registry = DatabaseRegistry()
        registry.register("banking_system", str(banking_db), BANKING_DESCRIPTIONS)
        registry.get_schema("banking_system")
        make_invariant_check(registry, max_examples=200)()
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report("3 algorithm invariants, 200 scripted scenarios", f"{elapsed:.2f}s")


class TestCriterion4PruningRules:
    def test_randomized_schemas(self):
        start = time.monotonic()
        check_pruning_enforcement()
        check_pruning_idempotence()
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report("4 pruning rules on randomized schemas", f"{elapsed:.2f}s")


class TestCriterion5MetricOracles:
    def test_metrics(self, shop_db, library_db):
        start = time.monotonic()
        db_paths = {"shop": str(shop_db), "library": str(library_db)}

        # EX agrees with the brute-force oracle on all 20 items
        scores = []
        for idx, (db, gold, pred) in enumerate(METRIC_ITEMS):
            oracle = oracle_exec_match(pred, gold, db_paths[db])
            assert oracle is EXPECTED_EX[idx], f"oracle drift on item {idx + 1}"
            assert exec_match(pred, gold, db_paths[db]) is oracle, f"item {idx + 1}"
            scores.append(score_item(str(idx), pred, gold, db_paths[db],
                                     run_timer=lambda db_, sql: 1.0))

        # VES with an injected identity clock equals EX x 100 exactly
        rep = build_report(scores)
        assert rep.ves == rep.ex_pct == 50.0

        # EM canonicalization idempotent and alias/value-insensitive
        em_pairs = [
            ("SELECT a FROM t", "SELECT a FROM t", True),
            ("SELECT T1.a FROM t AS T1", "SELECT X.a FROM t AS X", True),
            ("SELECT a FROM t WHERE b = 3", "SELECT a FROM t WHERE b = 99", True),
            ("SELECT a FROM t WHERE p = 1 AND q = 2",
             "SELECT a FROM t WHERE q = 2 AND p = 1", True),
            ("SELECT a, b FROM t", "SELECT b, a FROM t", True),
            ("SELECT a FROM t", "SELECT a FROM t ORDER BY a", False),
            ("SELECT COUNT(x) FROM t", "SELECT SUM(x) FROM t", False),
            ("SELECT t.a FROM t JOIN u ON t.i = u.i",
             "SELECT t.a FROM t JOIN u ON u.i = t.i", True),
            ("SELECT a FROM t WHERE x != 1", "SELECT a FROM t WHERE x <> 5", True),
            ("SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 99", True),
        ]
        assert len(em_pairs) == 10
        for pred, gold, expected in em_pairs:
            assert exact_match(pred, gold) is expected, (pred, gold)
            for sql in (pred, gold):
                cs = parse_to_clause_set(sql)
                assert parse_to_clause_set(render_sql(cs)) == cs

        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report("5 metric oracles on 20-item fixture", f"{elapsed:.2f}s")


class TestCriterion6ErrorTaxonomy:
    def test_each_label_produced(self, shop_db):
        db = str(shop_db)
        cases = {
            ErrorClass.NONE: ("SELECT name FROM products",
                              "SELECT name FROM products"),
            ErrorClass.GOLD_ERROR: ("SELECT 1",
                                    "SELECT x FROM dropped_table"),
            ErrorClass.EXECUTION_ERROR: ("SELEC name FROM products",
                                         "SELECT name FROM products"),
            ErrorClass.SCHEMA_LINKING_ERROR: ("SELECT ghost FROM products",
                                              "SELECT name FROM products"),
            ErrorClass.EMPTY_RESULT: ("SELECT name FROM products WHERE price < 0",
                                      "SELECT name FROM products"),
            ErrorClass.WRONG_RESULT: ("SELECT name FROM products WHERE price > 20",
                                      "SELECT name FROM products"),
        }
        for expected, (pred, gold) in cases.items():
            score = score_item("x", pred, gold, db, with_ves=False)
            assert score.error_class is expected, (expected, score.error_class)
        report("6 error taxonomy, all six labels exact")


class TestCriterion7InstructionExport:
    def test_filter_rule(self, banking_db, scripted_banking_path, tmp_path):
        registry = DatabaseRegistry()
        registry.register("banking_system", str(banking_db), BANKING_DESCRIPTIONS)

        def run(task_id, gold):
            backend = ScriptedBackend.from_file(str(scripted_banking_path),
                                                strict=True, context_window=256)
            pipe = Pipeline(backend, registry, PipelineConfig())
            return pipe.run_question(Task(
                task_id=task_id, db_id="banking_system", question=QUESTION,
                evidence=EVIDENCE, gold_sql=gold, difficulty="simple"))

        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append(run("0", "SELECT 'F'"))   # passes: replay answer returns F
        journal.append(run("1", "SELECT 'F'"))   # passes
        journal.append(run("2", "SELECT 'M'"))   # fails the execution-match filter

        states = [journal.load()[task_id] for task_id in ("0", "1", "2")]
        records = export_instruction_data(states, registry)
        # two passing states, each with a selector and a decomposer call
        assert len(records) == 4
        per_agent = {}
        for record in records:
            per_agent[record.agent_task] = per_agent.get(record.agent_task, 0) + 1
            assert record.passed
        assert per_agent == {"selector": 2, "decomposer": 2}
        report("7 instruction export filter", "2 passing x 2 calls = 4 records")


LIVE_ENDPOINT = os.environ.get("TEXT2SQL_ENDPOINT", "")
LIVE_READY = LIVE_ENDPOINT and all(
    os.environ.get(name) for name in ("TEXT2SQL_SMOKE_ITEMS",
                                      "TEXT2SQL_SMOKE_DB_ROOT"))


class TestCriterion8LiveSmoke:
    @pytest.mark.skipif(not LIVE_READY,
                        reason="set TEXT2SQL_ENDPOINT, TEXT2SQL_SMOKE_ITEMS, "
                               "TEXT2SQL_SMOKE_DB_ROOT (and LLM_API_KEY) "
                               "to run the live smoke test")
    def test_live_smoke(self, tmp_path):
        from text2sql.backend import HttpBackend
        from text2sql.datasets import load_benchmark

        items = os.environ["TEXT2SQL_SMOKE_ITEMS"]
        db_root = os.environ["TEXT2SQL_SMOKE_DB_ROOT"]
        bench = load_benchmark("bird", items, db_root)
        tasks = bench.tasks[:10]
        backend = HttpBackend(LIVE_ENDPOINT,
                              model=os.environ.get("TEXT2SQL_MODEL", "gpt-4"))
        pipe = Pipeline(backend, bench.registry(), PipelineConfig(parallelism=2))

        start = time.monotonic()
        states = pipe.run_batch(tasks, journal_path=str(tmp_path / "smoke.jsonl"))
        elapsed = time.monotonic() - start
        assert elapsed < 600.0

        completed = [s for s in states if s.final_sql]
        assert completed, "no item completed end-to-end"
        refined = any(
            any(c.agent == "refiner" for c in s.llm_calls) for s in states)
        assert refined, "no refiner activation observed"
        hits = sum(
            1 for s in completed
            if s.task.gold_sql and exec_match(
                s.final_sql, s.task.gold_sql, bench.registry().path(s.task.db_id)))
        assert hits > 0, "EX was zero on the smoke sample"
        report("8 live smoke", f"{hits}/{len(tasks)} EX hits in {elapsed:.0f}s")
