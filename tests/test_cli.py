from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from metric_fixture import METRIC_ITEMS

from text2sql import cli, datasets, evaluation, refiner, schema
from text2sql.backend import DEFAULT_MAX_OUTPUT_TOKENS
from text2sql.cli import build_backend, main, resolve_settings
from text2sql.codec import encode
from text2sql.pipeline import Journal

GOLDEN_LINE = Path(__file__).parent / "data" / "golden" / "journal_line.jsonl"

QUESTION = ("What is the gender of the youngest client who opened account "
            "in the lowest average salary branch?")
EVIDENCE = "Later birthdate refers to younger age; A11 refers to average salary"

FINAL_GENDER_SQL = (
    "SELECT T1.`gender`\n"
    "    FROM client AS T1\n"
    "    INNER JOIN district AS T2\n"
    "    ON T1.`district_id` = T2.`district_id`\n"
    "    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC\n"
    "    LIMIT 1"
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def banking_db_file(banking_bird_db):
    return str(banking_bird_db)


@pytest.fixture()
def script_config(tmp_path, scripted_banking_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": "script",
        "script_path": str(scripted_banking_path),
        "script_strict": True,
        "context_window": 256,
    }), encoding="utf-8")
    return str(config)


@pytest.fixture()
def bird_items_file(tmp_path):
    items = [
        {"question_id": 0, "db_id": "banking_system", "question": QUESTION,
         "evidence": EVIDENCE, "SQL": "SELECT 'F'", "difficulty": "simple"},
        {"question_id": 1, "db_id": "banking_system", "question": QUESTION,
         "evidence": EVIDENCE, "SQL": "SELECT 'M'", "difficulty": "moderate"},
        {"question_id": 2, "db_id": "banking_system", "question": QUESTION,
         "evidence": EVIDENCE, "SQL": "SELECT 'F'", "difficulty": "challenging"},
    ]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(items), encoding="utf-8")
    return str(path)


class TestAsk:
    def test_prints_final_sql(self, runner, banking_db_file, script_config):
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", script_config,
        ])
        assert result.exit_code == 0, result.output
        assert result.output.rstrip("\n") == FINAL_GENDER_SQL

    def test_execute_prints_rows(self, runner, banking_db_file, script_config):
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", script_config, "--execute",
        ])
        assert result.exit_code == 0
        assert result.output.rstrip("\n").endswith("F")

    def ask_execute(self, runner, monkeypatch, args):
        """The rows ``ask --execute --json`` prints, and the SQL of each execute_sql call."""
        runs = []
        for module in (cli, refiner, evaluation):  # each module that binds the primitive
            if hasattr(module, "execute_sql"):
                monkeypatch.setattr(module, "execute_sql", lambda *a, run=module.execute_sql,
                                    **kw: runs.append(a[1]) or run(*a, **kw))
        result = runner.invoke(main, ["ask", "--execute", "--json", *args])
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout)["rows"], runs

    def test_execute_prints_the_refiners_run(self, runner, banking_db_file, script_config,
                                             monkeypatch):
        rows, runs = self.ask_execute(runner, monkeypatch, [
            "--db", banking_db_file, "--question", QUESTION, "--evidence", EVIDENCE,
            "--config", script_config])
        assert rows == [["F"]]
        assert runs == [FINAL_GENDER_SQL]  # the refiner's run; nothing runs again

    def test_execute_after_a_refiner_failure_runs_the_sql(self, runner, banking_db_file,
                                                          tmp_path, monkeypatch):
        # an empty result calls the refiner, whose script has no reply
        empty = "SELECT gender FROM client WHERE gender = 'Q'"
        script = tmp_path / "script.txt"
        script.write_text("### MATCH: decompose the question into subquestions\n"
                          f"```sql\n{empty}\n```\n", encoding="utf-8")
        rows, runs = self.ask_execute(runner, monkeypatch, [
            "--db", banking_db_file, "--question", "q", "--backend", "script",
            "--script", str(script)])
        assert rows == []
        assert runs == [empty]  # the refiner's run of the SQL it stopped on

    def test_trace_carries_pruning_decision(self, runner, banking_db_file,
                                            script_config, tmp_path):
        trace = tmp_path / "trace.json"
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", script_config,
            "--trace", str(trace),
        ])
        assert result.exit_code == 0
        state = json.loads(trace.read_text(encoding="utf-8"))
        assert state["pruning"]["verdicts"]["loan"] == "drop_all"
        assert state["final_sql"] == FINAL_GENDER_SQL

    def test_trace_into_a_new_directory(self, runner, banking_db_file, script_config,
                                        tmp_path):
        trace = tmp_path / "new" / "dir" / "trace.json"
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", script_config, "--trace", str(trace),
        ])
        assert result.exit_code == 0, result.output
        assert result.stdout.strip() == FINAL_GENDER_SQL
        assert json.loads(trace.read_text(encoding="utf-8"))["final_sql"] == FINAL_GENDER_SQL

    def test_json_output(self, runner, banking_db_file, script_config):
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", QUESTION,
            "--evidence", EVIDENCE, "--config", script_config, "--json",
        ])
        payload = json.loads(result.output)
        assert payload["sql"] == FINAL_GENDER_SQL

    def test_missing_db_is_usage_error(self, runner, script_config):
        result = runner.invoke(main, [
            "ask", "--db", "/no/such.sqlite", "--question", "q",
            "--config", script_config,
        ])
        assert result.exit_code == 2

    def test_failed_pipeline_exits_one(self, runner, banking_db_file, tmp_path):
        script = tmp_path / "bad_script.txt"
        script.write_text("### MATCH: decompose the question into subquestions\n"
                          "no sql in this reply\n", encoding="utf-8")
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", "q",
            "--backend", "script", "--script", str(script),
        ])
        assert result.exit_code == 1

    def test_http_without_endpoint_is_usage_error(self, runner, banking_db_file):
        result = runner.invoke(main, [
            "ask", "--db", banking_db_file, "--question", "q",
            "--backend", "http",
        ])
        assert result.exit_code == 2


class TestSettings:
    def write_config(self, tmp_path, script_config, **overrides):
        settings = json.loads(Path(script_config).read_text(encoding="utf-8"))
        path = tmp_path / "overridden.json"
        path.write_text(json.dumps({**settings, **overrides}), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("overrides, env, key", [
        ({"timeout": "soon"}, {}, "timeout"),
        ({"shots": 5}, {}, "shots"),
        ({"max_rounds": 0}, {}, "max_rounds"),
        ({"parallelism": 0}, {}, "parallelism"),
        ({}, {"TEXT2SQL_PARALLELISM": "abc"}, "parallelism"),
        ({"context_window": None}, {}, "context_window"),
        ({"max_rounds": 2.7}, {}, "max_rounds"),
        ({"shots": True}, {}, "shots"),
        ({"timeout": True}, {}, "timeout"),
        ({"script_strict": "maybe"}, {}, "script_strict"),
        ({"context_window": 0}, {}, "context_window"),
        ({"prune_fraction": 0.5}, {}, "prune_fraction"),
        ({"model": 5}, {}, "model"),
        ({"script_path": False}, {}, "script_path"),
        ({"backend": "http", "endpoint": "llm.example.com/v1/chat"}, {}, "endpoint"),
        ({"model": None}, {}, "model"),
        ({"api_key_env": None}, {}, "api_key_env"),
        ({"backend": None}, {}, "backend"),
    ])
    def test_bad_value_exits_two(self, runner, banking_bird_root, bird_items_file,
                                 script_config, tmp_path, overrides, env, key):
        journal = tmp_path / "journal.jsonl"
        result = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", self.write_config(tmp_path, script_config, **overrides),
        ], env=env)
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not journal.exists()

    def test_bad_timeout_flag_exits_two_on_eval(self, runner, banking_bird_root,
                                                bird_items_file, tmp_path):
        predictions = tmp_path / "predictions.json"
        predictions.write_text(json.dumps({"0": "SELECT 'F'"}), encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--predictions", str(predictions), "--benchmark", "bird",
            "--items", bird_items_file, "--db-root", str(banking_bird_root),
            "--out", str(tmp_path / "report"), "--timeout", "0",
        ])
        assert result.exit_code == 2, result.output
        assert "timeout" in result.output

    def test_types_follow_the_defaults(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": None, "timeout": 5, "script_strict": "yes",
                                      "parallelism": 2.0}), encoding="utf-8")
        monkeypatch.setenv("TEXT2SQL_MAX_ROUNDS", "4")
        settings = resolve_settings(str(config), {"shots": "1"})
        assert settings["endpoint"] is None
        assert settings["timeout"] == 5.0 and isinstance(settings["timeout"], float)
        assert settings["script_strict"] is True
        assert settings["parallelism"] == 2 and isinstance(settings["parallelism"], int)
        assert (settings["max_rounds"], settings["shots"]) == (4, 1)
        assert settings["max_output_tokens"] == DEFAULT_MAX_OUTPUT_TOKENS

    def test_build_backend_carries_model_and_token_budget(self, monkeypatch):
        monkeypatch.setenv("TEXT2SQL_MAX_OUTPUT_TOKENS", "77")
        backend = build_backend(resolve_settings(None, {"endpoint": "http://llm.test",
                                                        "model": "m"}))
        assert (backend.model, backend.max_output_tokens) == ("m", 77)


class TestBench:
    def test_three_item_fixture_end_to_end(self, runner, banking_bird_root,
                                           bird_items_file, script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        result = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config, "--json",
        ])
        assert result.exit_code == 0, result.output
        assert len(Journal(str(journal)).load()) == 3
        summary = json.loads(result.stdout.splitlines()[-1])
        assert summary["n"] == 3
        # items 0 and 2 carry gold matching the scripted answer ('F')
        assert abs(summary["ex_pct"] - 200.0 / 3) < 1e-9

    def test_resume_skips_done(self, runner, banking_bird_root, bird_items_file,
                               script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config, "--limit", "2",
        ])
        assert first.exit_code == 0
        before = journal.read_text(encoding="utf-8")
        second = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config,
        ])
        assert second.exit_code == 0
        after = journal.read_text(encoding="utf-8")
        assert after.startswith(before)
        assert len(Journal(str(journal)).load()) == 3

    def test_a_backend_failure_exits_one_and_is_counted(self, runner, banking_bird_root,
                                                         bird_items_file, script_config,
                                                         tmp_path):
        items = json.loads(Path(bird_items_file).read_text(encoding="utf-8"))
        # the selector's needle in the question: the strict script matches two entries
        items[1]["question"] += " Discard any table schema."
        Path(bird_items_file).write_text(json.dumps(items), encoding="utf-8")
        journal = tmp_path / "journal.jsonl"
        args = ["bench", "--benchmark", "bird", "--items", bird_items_file,
                "--db-root", str(banking_bird_root), "--journal", str(journal),
                "--config", script_config]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 1, result.output
        summary = json.loads(result.stdout.splitlines()[-1])
        assert summary["backend_failures"] == 1
        assert abs(summary["ex_pct"] - 200.0 / 3) < 1e-9
        assert Journal(str(journal)).load()["1"].error.startswith("backend failure:")
        assert "1 question(s) failed on the backend; rerunning" in result.stderr
        text = runner.invoke(main, args)  # a resume runs the failed question, and fails again
        assert text.exit_code == 1
        assert text.stdout.startswith("EX: 66.67 over 3 items")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, runner, banking_bird_root,
                                              bird_items_file, script_config, tmp_path,
                                              limit):
        journal = tmp_path / "journal.jsonl"
        result = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config, "--limit", limit,
        ])
        assert result.exit_code == 2, result.output
        assert "--limit" in result.output
        assert not journal.exists()

    def test_second_run_reads_the_schema_cache(self, runner, banking_bird_root,
                                               bird_items_file, script_config, tmp_path,
                                               monkeypatch):
        introspected = []
        real = datasets.introspect
        monkeypatch.setattr(datasets, "introspect",
                            lambda *a, **k: introspected.append(a[0]) or real(*a, **k))
        outputs = []
        for run in ("first", "second"):
            result = runner.invoke(main, [
                "bench", "--benchmark", "bird", "--items", bird_items_file,
                "--db-root", str(banking_bird_root), "--journal",
                str(tmp_path / f"{run}.jsonl"), "--config", script_config, "--json",
            ])
            assert result.exit_code == 0, result.output
            outputs.append(json.loads(result.stdout.splitlines()[-1])["ex_pct"])
            assert len(introspected) == 1
        assert outputs[0] == outputs[1]


class TestEval:
    def write_benchmark(self, tmp_path, shop_db, library_db):
        root = tmp_path / "root"
        for name, src in (("shop", shop_db), ("library", library_db)):
            db_dir = root / name
            db_dir.mkdir(parents=True)
            (db_dir / f"{name}.sqlite").write_bytes(src.read_bytes())
        items = [
            {"question_id": i, "db_id": db, "question": f"q{i}", "evidence": "",
             "SQL": gold, "difficulty": "simple"}
            for i, (db, gold, _pred) in enumerate(METRIC_ITEMS)
        ]
        items_path = tmp_path / "items.json"
        items_path.write_text(json.dumps(items), encoding="utf-8")
        predictions = {str(i): pred for i, (_db, _gold, pred) in enumerate(METRIC_ITEMS)}
        pred_path = tmp_path / "preds.json"
        pred_path.write_text(json.dumps(predictions), encoding="utf-8")
        return root, items_path, pred_path

    def test_gold_predictions_score_hundred(self, runner, tmp_path, shop_db, library_db):
        root, items_path, _ = self.write_benchmark(tmp_path, shop_db, library_db)
        golds = {str(i): gold for i, (_db, gold, _p) in enumerate(METRIC_ITEMS)
                 if i not in (7, 16)}  # skip the deliberate gold-error items
        items = json.loads(items_path.read_text())
        items = [it for it in items if str(it["question_id"]) in golds]
        items_path.write_text(json.dumps(items), encoding="utf-8")
        pred_path = tmp_path / "gold_preds.json"
        pred_path.write_text(json.dumps(golds), encoding="utf-8")
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--predictions", str(pred_path), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
            "--out", str(out), "--no-ves",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ex_pct"] == 100.0

    def test_report_into_a_new_directory(self, runner, tmp_path, shop_db, library_db):
        root, items_path, pred_path = self.write_benchmark(tmp_path, shop_db, library_db)
        out = tmp_path / "new" / "dir" / "report"
        result = runner.invoke(main, [
            "eval", "--predictions", str(pred_path), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
            "--out", str(out), "--no-ves", "--json",
        ])
        assert result.exit_code == 0, result.output
        assert (json.loads((out.parent / "report.json").read_text())
                == json.loads(result.stdout))
        assert (out.parent / "report.txt").exists()

    def test_mixed_fixture_matches_hand_tally(self, runner, tmp_path, shop_db, library_db):
        root, items_path, pred_path = self.write_benchmark(tmp_path, shop_db, library_db)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--predictions", str(pred_path), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
            "--out", str(out), "--no-ves", "--json",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n"] == 20
        assert report["ex_pct"] == 50.0  # hand tally: 10 of 20

    def test_memory_error_in_a_prediction_still_writes_a_report(
            self, runner, tmp_path, shop_db, library_db, fetch_exhausts):
        root, items_path, _ = self.write_benchmark(tmp_path, shop_db, library_db)
        predictions = {str(i): gold for i, (_db, gold, _p) in enumerate(METRIC_ITEMS)}
        predictions["0"] += " " + fetch_exhausts
        pred_path = tmp_path / "exhausting.json"
        pred_path.write_text(json.dumps(predictions), encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--predictions", str(pred_path), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
            "--out", str(tmp_path / "report"), "--no-ves",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        [item] = [it for it in report["items"] if it["task_id"] == "0"]
        assert (item["pred_status"], item["error_class"]) == ("OTHER_ERROR", "EXECUTION_ERROR")

    def test_empty_predictions_exit_two(self, runner, tmp_path, shop_db, library_db):
        root, items_path, _ = self.write_benchmark(tmp_path, shop_db, library_db)
        empty = tmp_path / "empty.json"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--predictions", str(empty), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
        ])
        assert result.exit_code == 2

    def test_non_string_prediction_names_its_task(self, runner, tmp_path, shop_db,
                                                   library_db):
        root, items_path, _ = self.write_benchmark(tmp_path, shop_db, library_db)
        pred_path = tmp_path / "preds.json"
        pred_path.write_text(json.dumps({"0": "SELECT 1", "1": None}), encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--predictions", str(pred_path), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(root),
        ])
        assert result.exit_code == 2
        assert "predictions file: task '1': expected SQL text, got null" in result.output
        assert "Traceback" not in result.output

    def test_journal_as_predictions(self, runner, banking_bird_root, bird_items_file,
                                    script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config,
        ])
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--predictions", str(journal), "--benchmark", "bird",
            "--items", bird_items_file, "--db-root", str(banking_bird_root),
            "--out", str(out), "--no-ves",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["ex_pct"] - 200.0 / 3) < 1e-9

    def test_journal_predictions_are_read_once(self, tmp_path, monkeypatch, caplog):
        line = GOLDEN_LINE.read_text(encoding="utf-8").strip()
        later = json.loads(line)
        later["final_sql"] = "SELECT 2"
        other = json.loads(line)
        other["task"]["task_id"] = "other"
        # a byte-order mark, CRLF and CR line ends, a blank line, a torn last line
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(("\ufeff" + line + "\r\n\r\n" + json.dumps(later) + "\r"
                             + json.dumps(other) + "\n" + line[:40]).encode("utf-8"))
        with caplog.at_level("WARNING"):
            expected = {task_id: state.final_sql
                        for task_id, state in Journal(str(journal)).load().items()}

        def read_again(self):
            raise AssertionError("the predictions file was read twice")
        monkeypatch.setattr(Journal, "load", read_again)
        with caplog.at_level("WARNING"):
            assert cli._load_predictions(str(journal)) == expected
        assert expected == {later["task"]["task_id"]: "SELECT 2", "other": other["final_sql"]}
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"skipped 1 journal line(s) that do not decode in {journal}"] * 2


def test_eval_and_export_read_no_description_csv(runner, banking_bird_root, bird_items_file,
                                                script_config, tmp_path, monkeypatch):
    journal = tmp_path / "journal.jsonl"
    result = runner.invoke(main, [
        "bench", "--benchmark", "bird", "--items", bird_items_file,
        "--db-root", str(banking_bird_root), "--journal", str(journal),
        "--config", script_config,
    ])
    assert result.exit_code == 0, result.output

    def refuse(db_dir):
        raise AssertionError("description CSVs were read")
    monkeypatch.setattr(schema, "load_column_descriptions", refuse)
    common = ["--benchmark", "bird", "--items", bird_items_file,
              "--db-root", str(banking_bird_root)]
    result = runner.invoke(main, ["eval", "--predictions", str(journal), *common,
                                  "--out", str(tmp_path / "report"), "--no-ves"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["export-sft", "--journal", str(journal), *common,
                                  "--out", str(tmp_path / "records.jsonl")])
    assert result.exit_code == 0, result.output


class TestExportSft:
    def test_counts_match_grouped_tally(self, runner, banking_bird_root,
                                        bird_items_file, script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", bird_items_file,
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config,
        ])
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "export-sft", "--journal", str(journal), "--benchmark", "bird",
            "--items", bird_items_file, "--db-root", str(banking_bird_root),
            "--out", str(out), "--json",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout.splitlines()[-1])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        # items 0 and 2 pass, each fired selector + decomposer
        assert summary["records"] == len(lines) == 4
        assert summary["per_difficulty"] == {"simple": 2, "challenging": 2}

    def test_records_into_a_new_directory(self, runner, banking_bird_root,
                                          bird_items_file, script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        common = ["--benchmark", "bird", "--items", bird_items_file,
                  "--db-root", str(banking_bird_root)]
        runner.invoke(main, ["bench", *common, "--journal", str(journal),
                             "--config", script_config])
        out = tmp_path / "new" / "dir" / "records.jsonl"
        result = runner.invoke(main, ["export-sft", "--journal", str(journal), *common,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 4

    def two_database_journal(self, runner, banking_bird_root, script_config, tmp_path):
        """A root holding d1 and d2 (both the banking database), a journal of one
        question on each, and an items file that names only d1's."""
        root = tmp_path / "root"
        for db_id in ("d1", "d2"):
            shutil.copytree(banking_bird_root / "banking_system", root / db_id)
            (root / db_id / "banking_system.sqlite").rename(root / db_id / f"{db_id}.sqlite")
        items = [{"question_id": i, "db_id": db_id, "question": QUESTION,
                  "evidence": EVIDENCE, "SQL": "SELECT 'F'", "difficulty": "simple"}
                 for i, db_id in enumerate(("d1", "d2"))]
        both, d1_only = tmp_path / "both.json", tmp_path / "d1.json"
        both.write_text(json.dumps(items), encoding="utf-8")
        d1_only.write_text(json.dumps(items[:1]), encoding="utf-8")
        journal = tmp_path / "journal.jsonl"
        result = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", str(both), "--db-root", str(root),
            "--journal", str(journal), "--config", script_config,
        ])
        assert result.exit_code == 0, result.output
        return root, d1_only, journal

    def export(self, runner, root, items, journal, out):
        return runner.invoke(main, [
            "export-sft", "--journal", str(journal), "--benchmark", "bird",
            "--items", str(items), "--db-root", str(root), "--out", str(out), "--json",
        ])

    def test_task_the_items_lack_reads_its_database_under_the_root(
            self, runner, banking_bird_root, script_config, tmp_path):
        root, items, journal = self.two_database_journal(runner, banking_bird_root,
                                                         script_config, tmp_path)
        out = tmp_path / "records.jsonl"
        result = self.export(runner, root, items, journal, out)
        assert result.exit_code == 0, result.output
        # both questions pass against the gold, each fired selector + decomposer
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted(r["db_id"] for r in records) == ["d1", "d1", "d2", "d2"]

    def test_task_the_items_lack_without_a_database_exits_two(
            self, runner, banking_bird_root, script_config, tmp_path):
        root, items, journal = self.two_database_journal(runner, banking_bird_root,
                                                         script_config, tmp_path)
        shutil.rmtree(root / "d2")
        out = tmp_path / "records.jsonl"
        result = self.export(runner, root, items, journal, out)
        assert result.exit_code == 2, result.output
        assert "task 1: no database file for 'd2'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_missing_gold_exit_two(self, runner, banking_bird_root, script_config,
                                   tmp_path):
        items = [{"question_id": 0, "db_id": "banking_system",
                  "question": QUESTION, "evidence": "", "SQL": "SELECT 'F'"}]
        items_path = tmp_path / "dev.json"
        items_path.write_text(json.dumps(items), encoding="utf-8")
        journal = tmp_path / "journal.jsonl"
        runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", str(items_path),
            "--db-root", str(banking_bird_root), "--journal", str(journal),
            "--config", script_config,
        ])
        # rewrite the journal with a task id the benchmark does not know
        states = list(Journal(str(journal)).load().values())
        states[0].task.task_id = "999"
        states[0].task.gold_sql = None
        journal.write_text(json.dumps(states[0], default=encode) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "export-sft", "--journal", str(journal), "--benchmark", "bird",
            "--items", str(items_path), "--db-root", str(banking_bird_root),
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert result.exit_code == 2


class TestBadItemsFile:
    """Each command turns an items file it cannot load into one usage line."""

    def run_each_command(self, runner, root, script_config, tmp_path, items, expect=""):
        items_path = tmp_path / "dev.json"
        items_path.write_text(items, encoding="utf-8")
        common = ["--benchmark", "bird", "--items", str(items_path), "--db-root", str(root)]
        for args in (
                ["bench", *common, "--journal", str(tmp_path / "j.jsonl"),
                 "--config", script_config],
                ["eval", "--predictions", str(GOLDEN_LINE), *common,
                 "--out", str(tmp_path / "report")],
                ["export-sft", "--journal", str(GOLDEN_LINE), *common,
                 "--out", str(tmp_path / "r.jsonl")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args[0], result.output)
            assert "bad items file" in result.output
            assert expect in result.output
            assert "Traceback" not in result.output

    def test_item_that_is_not_an_object(self, runner, banking_bird_root, script_config,
                                        tmp_path):
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path, "[1]")

    def test_item_naming_a_missing_database(self, runner, banking_bird_root, script_config,
                                            tmp_path):
        items = [{"question_id": 0, "db_id": "no_such_db", "question": QUESTION,
                  "SQL": "SELECT 1"}]
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path,
                              json.dumps(items))

    def test_database_id_that_is_not_a_string(self, runner, banking_bird_root,
                                              script_config, tmp_path):
        items = [{"question_id": 0, "db_id": 5, "question": QUESTION, "SQL": "SELECT 1"}]
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path,
                              json.dumps(items), expect="item 0: db_id: ")

    def test_unparseable_file(self, runner, banking_bird_root, script_config, tmp_path):
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path,
                              '[{"db_id": "banking_system",')

    @pytest.mark.parametrize("bad", [
        {"SQL": 5},
        {"question_id": True},
        {"difficulty": 3},
    ])
    def test_value_of_the_wrong_type(self, runner, banking_bird_root, script_config,
                                     tmp_path, bad):
        items = [{"question_id": 0, "db_id": "banking_system", "question": QUESTION,
                  "SQL": "SELECT 1", "difficulty": "simple"},
                 {"question_id": 1, "db_id": "banking_system", "question": QUESTION,
                  "SQL": "SELECT 1", **bad}]
        [field] = bad
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path,
                              json.dumps(items), expect=f"item 1: {field}: ")

    @pytest.mark.parametrize("ids, task_id", [
        ((7, 7), "7"),
        ((7, "7"), "7"),
        ((None, 0), "0"),  # a null id falls back to the item's index
    ])
    def test_task_id_used_twice(self, runner, banking_bird_root, script_config,
                                tmp_path, ids, task_id):
        items = [{"question_id": qid, "db_id": "banking_system", "question": QUESTION,
                  "SQL": FINAL_GENDER_SQL} for qid in ids]
        self.run_each_command(runner, banking_bird_root, script_config, tmp_path,
                              json.dumps(items),
                              expect=f"item 1: task id '{task_id}' is used twice")


class TestByteOrderMark:
    """A leading byte-order mark, as Windows editors write, is dropped from each input file."""

    @pytest.mark.parametrize("which", ["items", "config", "predictions", "script"])
    def test_a_leading_bom_is_dropped(self, runner, banking_bird_root, bird_items_file,
                                      script_config, tmp_path, which):
        config = json.loads(Path(script_config).read_text(encoding="utf-8"))
        files = {
            "items": Path(bird_items_file).read_text(encoding="utf-8"),
            "predictions": json.dumps({"0": "SELECT 'F'", "1": "SELECT 'F'",
                                       "2": "SELECT 'F'"}),
            "script": Path(config["script_path"]).read_text(encoding="utf-8"),
        }
        paths = {name: tmp_path / f"{name}.in" for name in (*files, "config")}
        files["config"] = json.dumps({**config, "script_path": str(paths["script"])})
        for name, text in files.items():
            paths[name].write_text(("\ufeff" if name == which else "") + text,
                                   encoding="utf-8")
        common = ["--benchmark", "bird", "--items", str(paths["items"]),
                  "--db-root", str(banking_bird_root), "--json"]
        bench = runner.invoke(main, ["bench", *common, "--config", str(paths["config"]),
                                     "--journal", str(tmp_path / "journal.jsonl")])
        assert bench.exit_code == 0, bench.output
        assert abs(json.loads(bench.stdout)["ex_pct"] - 200.0 / 3) < 1e-9
        scored = runner.invoke(main, ["eval", *common, "--predictions", str(paths["predictions"]),
                                      "--out", str(tmp_path / "report"), "--no-ves"])
        assert scored.exit_code == 0, scored.output
        assert abs(json.loads(scored.stdout)["ex_pct"] - 200.0 / 3) < 1e-9


def _no_sql(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SQL was executed")
    monkeypatch.setattr(evaluation, "execute_sql", refuse)
    monkeypatch.setattr(refiner, "execute_sql", refuse)


class TestJournaledVerdict:
    """``bench`` journals an EX verdict that ``bench`` and ``export-sft`` reuse."""

    @pytest.fixture()
    def db_root(self, banking_bird_root, tmp_path):
        root = tmp_path / "root"
        shutil.copytree(banking_bird_root, root)
        return root

    def bench(self, runner, db_root, items, config, journal):
        result = runner.invoke(main, [
            "bench", "--benchmark", "bird", "--items", items, "--db-root", str(db_root),
            "--journal", str(journal), "--config", config, "--json",
        ])
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout.splitlines()[-1])

    def export(self, runner, db_root, items, journal, out):
        result = runner.invoke(main, [
            "export-sft", "--journal", str(journal), "--benchmark", "bird",
            "--items", items, "--db-root", str(db_root), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return out.read_text(encoding="utf-8")

    def without_verdicts(self, journal, tmp_path):
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        for state in lines:
            state.pop("ex_verdict")
        bare = tmp_path / "bare.jsonl"
        bare.write_text("".join(json.dumps(s) + "\n" for s in lines), encoding="utf-8")
        return bare

    def test_bench_journals_a_verdict_per_state(self, runner, db_root, bird_items_file,
                                                script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        self.bench(runner, db_root, bird_items_file, script_config, journal)
        db = db_root / "banking_system" / "banking_system.sqlite"
        info = os.stat(db)
        states = Journal(str(journal)).load()
        assert [states[k].ex_verdict.ex for k in "012"] == [True, False, True]
        assert {states[k].ex_verdict.db_stamp for k in "012"} == {
            (info.st_ino, info.st_size, info.st_mtime_ns)}

    def test_export_uses_verdicts_without_running_sql(self, runner, db_root, bird_items_file,
                                                      script_config, tmp_path, monkeypatch):
        journal = tmp_path / "journal.jsonl"
        self.bench(runner, db_root, bird_items_file, script_config, journal)
        rescored = self.export(runner, db_root, bird_items_file,
                               self.without_verdicts(journal, tmp_path), tmp_path / "a.jsonl")
        _no_sql(monkeypatch)
        trusted = self.export(runner, db_root, bird_items_file, journal, tmp_path / "b.jsonl")
        assert trusted == rescored
        assert len(trusted.splitlines()) == 4

    @pytest.mark.parametrize("change", ["utime", "replace"])
    def test_changed_database_falls_back(self, runner, db_root, bird_items_file,
                                         script_config, tmp_path, monkeypatch, change):
        journal = tmp_path / "journal.jsonl"
        self.bench(runner, db_root, bird_items_file, script_config, journal)
        before = self.export(runner, db_root, bird_items_file, journal, tmp_path / "a.jsonl")
        db = db_root / "banking_system" / "banking_system.sqlite"
        if change == "utime":
            info = os.stat(db)
            os.utime(db, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))
        else:
            copy = tmp_path / "copy.sqlite"
            shutil.copyfile(db, copy)
            os.replace(copy, db)
        runs = []
        original = evaluation.execute_sql
        monkeypatch.setattr(evaluation, "execute_sql",
                            lambda *a, **kw: runs.append(a[1]) or original(*a, **kw))
        after = self.export(runner, db_root, bird_items_file, journal, tmp_path / "b.jsonl")
        assert after == before
        assert len(runs) == 6  # gold and final SQL of each of the three states

    def test_resumed_bench_counts_journaled_verdicts(self, runner, db_root, bird_items_file,
                                                     script_config, tmp_path, monkeypatch):
        journal = tmp_path / "journal.jsonl"
        first = self.bench(runner, db_root, bird_items_file, script_config, journal)
        _no_sql(monkeypatch)
        again = self.bench(runner, db_root, bird_items_file, script_config, journal)
        assert again["ex_pct"] == first["ex_pct"]
        assert abs(again["ex_pct"] - 200.0 / 3) < 1e-9

    def corrected_items(self, bird_items_file, tmp_path):
        """The items file with item 0's gold changed, so its journaled answer is now wrong."""
        items = json.loads(Path(bird_items_file).read_text(encoding="utf-8"))
        items[0]["SQL"] = "SELECT 'M'"
        path = tmp_path / "corrected.json"
        path.write_text(json.dumps(items), encoding="utf-8")
        return str(path)

    def test_resumed_bench_scores_against_the_items_gold(self, runner, db_root,
                                                         bird_items_file, script_config,
                                                         tmp_path):
        journal = tmp_path / "journal.jsonl"
        self.bench(runner, db_root, bird_items_file, script_config, journal)
        again = self.bench(runner, db_root, self.corrected_items(bird_items_file, tmp_path),
                           script_config, journal)
        assert abs(again["ex_pct"] - 100.0 / 3) < 1e-9

    def test_export_scores_against_the_items_gold(self, runner, db_root, bird_items_file,
                                                  script_config, tmp_path):
        journal = tmp_path / "journal.jsonl"
        self.bench(runner, db_root, bird_items_file, script_config, journal)
        before = self.export(runner, db_root, bird_items_file, journal, tmp_path / "a.jsonl")
        after = self.export(runner, db_root, self.corrected_items(bird_items_file, tmp_path),
                            journal, tmp_path / "b.jsonl")
        assert len(before.splitlines()) == 4
        assert after.splitlines() == before.splitlines()[2:]  # only item 2's records


class TestEarlierJournal:
    """A journal line pinned from an earlier release still feeds eval and export-sft."""

    @pytest.fixture()
    def golden_items(self, tmp_path):
        task = json.loads(GOLDEN_LINE.read_text(encoding="utf-8"))["task"]
        items = [{"question_id": task["task_id"], "db_id": task["db_id"],
                  "question": task["question"], "evidence": task["evidence"],
                  "SQL": task["gold_sql"], "difficulty": task["difficulty"]}]
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(items), encoding="utf-8")
        return str(path)

    def test_eval(self, runner, banking_bird_root, golden_items, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--predictions", str(GOLDEN_LINE), "--benchmark", "bird",
            "--items", golden_items, "--db-root", str(banking_bird_root),
            "--out", str(out), "--no-ves",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "report.json").read_text())["ex_pct"] == 100.0

    def test_eval_skips_undecodable_line_with_one_warning(self, runner, banking_bird_root,
                                                          golden_items, tmp_path, caplog):
        bogus = json.loads(GOLDEN_LINE.read_text(encoding="utf-8"))
        bogus["refine_attempts"][0]["outcome"]["status"] = "BOGUS"
        journal = tmp_path / "journal.jsonl"
        journal.write_text(GOLDEN_LINE.read_text(encoding="utf-8") + json.dumps(bogus) + "\n",
                           encoding="utf-8")
        with caplog.at_level("WARNING"):
            result = runner.invoke(main, [
                "eval", "--predictions", str(journal), "--benchmark", "bird",
                "--items", golden_items, "--db-root", str(banking_bird_root),
                "--out", str(tmp_path / "report"), "--no-ves",
            ])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "report.json").read_text())["ex_pct"] == 100.0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "skipped 1 journal line(s)" in warnings[0]

    def test_export_sft(self, runner, banking_bird_root, golden_items, tmp_path):
        out = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "export-sft", "--journal", str(GOLDEN_LINE), "--benchmark", "bird",
            "--items", golden_items, "--db-root", str(banking_bird_root),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        records = [json.loads(r) for r in out.read_text().splitlines()]
        assert [r["agent_task"] for r in records] == ["selector", "decomposer", "refiner"]
