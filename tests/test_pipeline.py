from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import shutil
import sqlite3
import threading
import types
from pathlib import Path

import pytest
import requests

from text2sql import evaluation, pipeline, refiner
from text2sql.backend import BackendUnavailable, ChatResponse, HttpBackend, ScriptedBackend
from text2sql.codec import decoder, encode
from text2sql.datasets import DatabaseRegistry, Task
from text2sql.execution import DEFAULT_TIMEOUT, ExecStatus, db_stamp
from text2sql.pipeline import (
    Journal,
    MissingGold,
    Pipeline,
    PipelineConfig,
    PipelineState,
    export_instruction_data,
    scored_ex,
)
from text2sql.refiner import MAX_ROUNDS
from text2sql.schema import render_foreign_keys, render_table_blocks

GOLDEN_LINE = Path(__file__).parent / "data" / "golden" / "journal_line.jsonl"

FINAL_GENDER_SQL = (
    "SELECT T1.`gender`\n"
    "    FROM client AS T1\n"
    "    INNER JOIN district AS T2\n"
    "    ON T1.`district_id` = T2.`district_id`\n"
    "    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC\n"
    "    LIMIT 1"
)

QUESTION = "What is the gender of the youngest client who opened account in the lowest average salary branch?"
EVIDENCE = "Later birthdate refers to younger age; A11 refers to average salary"


def line(state: PipelineState) -> str:
    """A state as the journal writes it."""
    return json.dumps(state, default=encode, sort_keys=True)


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


@pytest.fixture()
def registry(banking_bird_db):
    reg = DatabaseRegistry()
    reg.register("banking_system", str(banking_bird_db))
    return reg


@pytest.fixture()
def scripted_backend(scripted_banking_path):
    def make(context_window=256, strict=True):
        return ScriptedBackend.from_file(str(scripted_banking_path), strict=strict,
                                         context_window=context_window)
    return make


def banking_task(task_id="0", gold=None):
    return Task(task_id=task_id, db_id="banking_system", question=QUESTION,
                evidence=EVIDENCE, gold_sql=gold, difficulty="simple")


def count_runs(monkeypatch) -> list[tuple[str, str]]:
    """(module, sql) of each ``execute_sql`` call the refiner or the scoring makes."""
    runs = []

    def counting(name, run):
        def execute_sql(db_path, sql, **kwargs):
            runs.append((name, sql))
            return run(db_path, sql, **kwargs)
        return execute_sql
    for name, module in (("refiner", refiner), ("evaluation", evaluation)):
        monkeypatch.setattr(module, "execute_sql", counting(name, module.execute_sql))
    return runs


class TestPipelineConfig:
    @pytest.mark.parametrize("key, value", [
        ("shots", 3), ("shots", -1), ("max_rounds", 0), ("parallelism", 0),
        ("timeout", 0.0), ("timeout", -1.0),
    ])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            PipelineConfig(**{key: value})

    def test_defaults_are_the_agents_own(self):
        assert PipelineConfig() == PipelineConfig(
            shots=2, max_rounds=MAX_ROUNDS, timeout=DEFAULT_TIMEOUT, parallelism=1)


class TestRunQuestion:
    def test_worked_example_replay(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(context_window=256), registry,
                        PipelineConfig(), clock=fake_clock())
        state = pipe.run_question(banking_task())
        assert state.error is None
        assert state.pruning is not None
        assert state.pruning.verdicts == {
            "account": "keep_all", "client": "keep_all",
            "loan": "drop_all",
            "district": ["district_id", "A11", "A2", "A4", "A6", "A7"],
        }
        assert len(state.pruning.selection["district"]) == 6
        assert "loan" not in state.pruning.selection
        assert len(state.steps) == 3
        assert state.final_sql == FINAL_GENDER_SQL
        # refiner executed once, found OK rows, made no correction
        assert len(state.refine_attempts) == 1
        assert state.refine_attempts[0].corrected_sql is None

    def test_selector_bypass_below_threshold(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(context_window=32768), registry,
                        PipelineConfig())
        state = pipe.run_question(banking_task())
        assert state.pruning is None
        assert {c.agent for c in state.llm_calls} == {"decomposer"}
        assert state.final_sql == FINAL_GENDER_SQL

    def test_stage_order(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(256), registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        agents = [c.agent for c in state.llm_calls]
        assert agents == ["selector", "decomposer"]

    def test_trace_completeness(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(256), registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        for call in state.llm_calls:
            assert call.prompt
            assert call.response

    def test_replay_byte_identical(self, registry, scripted_backend):
        states = []
        for _ in range(2):
            pipe = Pipeline(scripted_backend(256), registry,
                            PipelineConfig(), clock=fake_clock())
            states.append(line(pipe.run_question(banking_task())))
        assert states[0] == states[1]

    def test_state_round_trip(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(256), registry,
                        PipelineConfig(), clock=fake_clock())
        state = pipe.run_question(banking_task())
        revived = decoder(PipelineState)(json.loads(line(state)))
        assert revived == state
        assert line(revived) == line(state)
        # the refiner's rows stay off the line, and off the state read back
        assert state.outcome.rows and "outcome" not in json.loads(line(state))
        assert revived.outcome is None

    def test_decomposer_failure_recorded(self, registry):
        backend = ScriptedBackend([("decompose the question into subquestions",
                                    "I cannot answer.")],
                                  context_window=32768)
        pipe = Pipeline(backend, registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        assert state.error is not None
        assert state.final_sql == ""

    def test_selector_parse_failure_falls_back_to_full_schema(self, registry):
        backend = ScriptedBackend([
            ("Discard any table schema", "no json here, sorry"),
            ("decompose the question into subquestions",
             "```sql\nSELECT gender FROM client\n```"),
        ], context_window=256)
        pipe = Pipeline(backend, registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        assert state.error is None
        assert state.pruning is None
        assert state.final_sql == "SELECT gender FROM client"

    def test_a_reply_dropping_every_table_of_a_small_db_keeps_the_full_schema(self, school_db):
        registry = DatabaseRegistry()
        registry.register("school", str(school_db))
        schema = registry.get_schema("school")
        assert len(schema.tables) == 2  # too few for the three-table restoration
        backend = ScriptedBackend([
            ("Discard any table schema",
             json.dumps({t.name: "drop_all" for t in schema.tables})),
            ("decompose the question into subquestions",
             "```sql\nSELECT sname FROM satscores\n```"),
        ], context_window=16)
        state = Pipeline(backend, registry, PipelineConfig()).run_question(
            Task(task_id="0", db_id="school", question="Which schools took the SAT?"))
        assert state.error is None
        assert state.pruning is None
        assert [call.agent for call in state.llm_calls] == [pipeline.SELECTOR, pipeline.DECOMPOSER]
        decomposer_prompt = state.llm_calls[1].prompt
        assert render_table_blocks(schema) in decomposer_prompt
        assert render_foreign_keys(schema) in decomposer_prompt

    def test_backend_miss_contained(self, registry):
        backend = ScriptedBackend([], context_window=32768)
        pipe = Pipeline(backend, registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        assert state.error is not None

    def test_cut_off_body_is_a_backend_failure(self, registry):
        def post(*args, **kwargs):
            raise requests.exceptions.ChunkedEncodingError("connection broken")
        backend = HttpBackend("http://llm.test/v1/chat", sleep=lambda s: None,
                              session=types.SimpleNamespace(post=post))
        state = Pipeline(backend, registry, PipelineConfig()).run_question(banking_task())
        # a resume runs the question again (RETRIED_ERRORS)
        assert state.error.startswith("backend failure:")

    def test_unknown_db_contained(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(), registry, PipelineConfig())
        state = pipe.run_question(Task(task_id="9", db_id="ghost", question="q"))
        assert state.error is not None


class TestRunBatch:
    def test_input_order_with_parallelism(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(32768, strict=False), registry,
                        PipelineConfig(parallelism=4))
        tasks = [banking_task(task_id=str(i)) for i in range(10)]
        states = pipe.run_batch(tasks)
        assert [s.task.task_id for s in states] == [str(i) for i in range(10)]

    def test_calls_in_flight_peak_at_parallelism(self, registry, scripted_backend):
        backend = scripted_backend(32768, strict=False)
        complete = backend.complete
        lock = threading.Lock()
        pair = threading.Barrier(2, timeout=5.0)  # each call waits until a second one is in flight
        active = peak = 0

        def overlapping(request):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                pair.wait()
                return complete(request)
            finally:
                with lock:
                    active -= 1

        backend.complete = overlapping
        pipe = Pipeline(backend, registry, PipelineConfig(parallelism=2))
        states = pipe.run_batch([banking_task(str(i)) for i in range(8)])
        assert [s.error for s in states] == [None] * 8
        assert [c.agent for s in states for c in s.llm_calls] == ["decomposer"] * 8
        assert peak == 2

    def test_batch_of_one_equals_run_question(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(256), registry,
                        PipelineConfig(), clock=fake_clock())
        single = pipe.run_question(banking_task())
        pipe2 = Pipeline(scripted_backend(256), registry,
                         PipelineConfig(), clock=fake_clock())
        batch = pipe2.run_batch([banking_task()])
        assert line(batch[0]) == line(single)

    def test_journal_resume_skips_done(self, registry, scripted_backend, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        pipe = Pipeline(scripted_backend(32768, strict=False), registry,
                        PipelineConfig())
        tasks = [banking_task(task_id=str(i)) for i in range(4)]
        pipe.run_batch(tasks[:2], journal_path=str(journal_path))
        assert len(Journal(str(journal_path)).load()) == 2

        calls = []
        backend = scripted_backend(32768, strict=False)
        original = backend.complete
        backend.complete = lambda req: calls.append(1) or original(req)
        pipe2 = Pipeline(backend, registry, PipelineConfig())
        states = pipe2.run_batch(tasks, journal_path=str(journal_path))
        assert len(states) == 4
        # only the two pending tasks hit the backend again
        assert len(calls) == 2

    def test_resume_reruns_backend_failures_only(self, registry, scripted_backend,
                                                 tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        tasks = [banking_task(task_id=str(i)) for i in range(3)]
        down = ScriptedBackend([], context_window=32768)
        refiner_down = ScriptedBackend([("decompose the question into subquestions",
                                         "```sql\nSELECT gendr FROM client\n```")],
                                       context_window=32768)
        no_sql = ScriptedBackend([("decompose the question into subquestions",
                                   "I cannot answer.")], context_window=32768)
        for backend, task in zip((down, refiner_down, no_sql), tasks):
            Pipeline(backend, registry, PipelineConfig()).run_batch(
                [task], journal_path=journal_path)
        errors = [state.error for state in Journal(journal_path).load().values()]
        assert errors[0].startswith("backend failure:")
        assert errors[1].startswith("refiner backend failure:")
        assert errors[2].startswith("decomposer produced no SQL")

        calls = []
        backend = scripted_backend(32768, strict=False)
        original = backend.complete
        backend.complete = lambda req: calls.append(1) or original(req)
        states = Pipeline(backend, registry, PipelineConfig()).run_batch(
            tasks, journal_path=journal_path)
        assert len(calls) == 2  # tasks 0 and 1 rerun; the model failure of 2 stands
        assert [s.final_sql for s in states[:2]] == [FINAL_GENDER_SQL] * 2
        reloaded = Journal(journal_path).load()
        assert [reloaded[t.task_id].error for t in tasks] == [None, None, errors[2]]

    @pytest.mark.parametrize("change", [
        {"question": "How many clients are there?"}, {"evidence": ""}, {"db_id": "banking_copy"},
    ])
    def test_resume_reruns_a_task_that_asks_another_question(self, registry, scripted_backend,
                                                             tmp_path, change):
        registry.register("banking_copy", registry.path("banking_system"))
        journal = str(tmp_path / "journal.jsonl")
        Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig()).run_batch(
            [banking_task(gold="SELECT 'F'")], journal_path=journal)

        calls = []
        backend = scripted_backend(32768, strict=False)
        original = backend.complete
        backend.complete = lambda req: calls.append(1) or original(req)
        asked = dataclasses.replace(banking_task(gold="SELECT 'F'"), **change)
        [state] = Pipeline(backend, registry, PipelineConfig()).run_batch(
            [asked], journal_path=journal)
        assert calls  # the journaled answer is to another question
        assert state.task == asked
        assert Journal(journal).load()["0"].task == asked

    def test_resume_reuses_a_state_whose_gold_changed(self, registry, scripted_backend,
                                                      tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        [first] = pipe.run_batch([banking_task(gold="SELECT 'M'")], journal_path=journal)

        calls = []
        backend = scripted_backend(32768, strict=False)
        backend.complete = lambda req: calls.append(1)
        corrected = dataclasses.replace(banking_task(gold="SELECT 'F'"), difficulty="hard")
        [state] = Pipeline(backend, registry, PipelineConfig()).run_batch(
            [corrected], journal_path=journal)
        assert calls == []
        assert line(state) == line(first)
        assert scored_ex(state, registry.path("banking_system"), "SELECT 'F'") is True

    def test_resume_after_a_torn_line_keeps_every_new_state(self, registry,
                                                            scripted_backend, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        tasks = [banking_task(task_id=str(i)) for i in range(4)]
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        pipe.run_batch(tasks[:2], journal_path=str(journal_path))
        whole = journal_path.read_bytes()
        journal_path.write_bytes(whole[:len(whole) - 40])  # a crash mid-append of task 1

        pipe.run_batch(tasks, journal_path=str(journal_path))
        assert sorted(Journal(str(journal_path)).load()) == ["0", "1", "2", "3"]

    def test_per_task_isolation(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(32768, strict=False), registry,
                        PipelineConfig())
        tasks = [banking_task("0"),
                 Task(task_id="1", db_id="ghost", question="q"),
                 banking_task("2")]
        states = pipe.run_batch(tasks)
        assert states[0].error is None
        assert states[1].error is not None
        assert states[2].error is None

    def test_verdicts_do_not_depend_on_parallelism(self, registry, scripted_backend):
        tasks = [banking_task(str(i), gold="SELECT 'F'" if i % 3 else "SELECT 'M'")
                 for i in range(9)] + [banking_task("9")]
        verdicts = []
        for workers in (1, 2):
            pipe = Pipeline(scripted_backend(32768, strict=False), registry,
                            PipelineConfig(parallelism=workers))
            verdicts.append([s.ex_verdict for s in pipe.run_batch(tasks)])
        assert verdicts[0] == verdicts[1]
        assert [v.ex for v in verdicts[0][:9]] == [i % 3 != 0 for i in range(9)]
        assert verdicts[0][9] is None  # no gold, no verdict

    def test_verdict_holds_only_with_its_gold_and_file(self, registry, scripted_backend,
                                                       monkeypatch):
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        [state] = pipe.run_batch([banking_task(gold="SELECT 'M'")])
        db_path = registry.path("banking_system")
        gold = "SELECT 'M'"
        runs = count_runs(monkeypatch)
        assert scored_ex(state, db_path, gold) is False
        state.ex_verdict = dataclasses.replace(state.ex_verdict, ex=True)
        assert scored_ex(state, db_path, gold) is True  # the journaled answer, not a new one
        assert runs == []
        stale = dataclasses.replace(state.ex_verdict, db_stamp=(0, 0, 0))
        assert scored_ex(dataclasses.replace(state, ex_verdict=stale), db_path, gold) is False
        assert sorted(runs) == sorted([("evaluation", gold), ("evaluation", FINAL_GENDER_SQL)])
        assert scored_ex(state, db_path, "SELECT 'F'") is True  # the gold was corrected
        state.task = banking_task(gold=None)
        assert scored_ex(state, db_path, gold) is False
        assert len(runs) == 6

    def test_a_question_runs_its_final_sql_once(self, registry, scripted_backend,
                                                monkeypatch):
        runs = count_runs(monkeypatch)
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        [state] = pipe.run_batch([banking_task(gold="SELECT 'F'")])
        assert state.ex_verdict.ex is True
        assert runs == [("refiner", FINAL_GENDER_SQL), ("evaluation", "SELECT 'F'")]
        assert state.outcome is None  # the batch keeps no rows

    def test_a_refiner_failure_scores_both_queries(self, registry, monkeypatch):
        empty = "SELECT gender FROM client WHERE gender = 'Q'"  # calls the refiner, which fails
        backend = ScriptedBackend([("decompose the question into subquestions",
                                    f"```sql\n{empty}\n```")], context_window=32768)
        runs = count_runs(monkeypatch)
        pipe = Pipeline(backend, registry, PipelineConfig())
        [state] = pipe.run_batch([banking_task(gold="SELECT 'F'")])
        assert state.error.startswith("refiner backend failure")
        assert state.ex_verdict.ex is False
        assert runs == [("refiner", empty), ("evaluation", "SELECT 'F'")]  # the refiner's outcome

    def test_a_refiner_failure_keeps_the_rounds_it_ran(self, registry, monkeypatch, tmp_path):
        broken = "SELECT gendr FROM client"
        empty = "SELECT gender FROM client WHERE gender = 'Q'"
        replies = iter([f"```sql\n{broken}\n```", f"```sql\n{empty}\n```"])

        def complete(request):  # decomposer, refiner round 1, then a failure in round 2
            reply = next(replies, None)
            if reply is None:
                raise BackendUnavailable("HTTP 429: retries exhausted")
            return ChatResponse(reply)
        backend = types.SimpleNamespace(complete=complete, context_window=32768)
        runs = count_runs(monkeypatch)
        journal = str(tmp_path / "journal.jsonl")
        Pipeline(backend, registry, PipelineConfig()).run_batch(
            [banking_task(gold="SELECT 'F'")], journal_path=journal)
        state = Journal(journal).load()["0"]
        assert state.error.startswith("refiner backend failure: HTTP 429")
        assert state.final_sql == empty
        assert [(a.input_sql, a.outcome.status, a.corrected_sql)
                for a in state.refine_attempts] == [
            (broken, ExecStatus.SCHEMA_ERROR, empty), (empty, ExecStatus.EMPTY_RESULT, None)]
        assert [c.agent for c in state.llm_calls] == ["decomposer", "refiner"]
        assert state.ex_verdict.ex is False
        assert runs == [("refiner", broken), ("refiner", empty), ("evaluation", "SELECT 'F'")]

    def test_a_write_during_the_question_voids_the_verdict(self, banking_bird_db, scripted_backend,
                                                           tmp_path, monkeypatch):
        shutil.copytree(banking_bird_db.parent, tmp_path / "banking_system")
        db = tmp_path / "banking_system" / banking_bird_db.name
        registry = DatabaseRegistry()
        registry.register("banking_system", str(db))
        original = pipeline.refine_loop

        def refine_then_write(*args, **kwargs):
            result = original(*args, **kwargs)
            with contextlib.closing(sqlite3.connect(db)) as conn:  # grows the file
                conn.execute("CREATE TABLE pad (x)")
                conn.execute("INSERT INTO pad VALUES (zeroblob(65536))")
                conn.commit()
            return result
        monkeypatch.setattr(pipeline, "refine_loop", refine_then_write)
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        [state] = pipe.run_batch([banking_task(gold="SELECT 'F'")])
        assert state.ex_verdict.db_stamp != db_stamp(str(db))
        runs = count_runs(monkeypatch)
        assert scored_ex(state, str(db), "SELECT 'F'") is True
        assert len(runs) == 2  # scored again

    def test_progress_counts_only_the_batch(self, registry, scripted_backend, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        pipe = Pipeline(scripted_backend(32768, strict=False), registry, PipelineConfig())
        pipe.run_batch([banking_task(str(i)) for i in range(5)], journal_path=journal)
        seen = []
        states = pipe.run_batch([banking_task(i) for i in ("0", "7", "8")], journal_path=journal,
                                progress=lambda done, total, state: seen.append((done, total)))
        assert [s.task.task_id for s in states] == ["0", "7", "8"]
        assert seen == [(2, 3), (3, 3)]

    def test_progress_stream(self, registry, scripted_backend):
        seen = []
        pipe = Pipeline(scripted_backend(32768, strict=False), registry,
                        PipelineConfig())
        pipe.run_batch([banking_task(str(i)) for i in range(3)],
                       progress=lambda done, total, state: seen.append((done, total)))
        assert seen[-1] == (3, 3)
        assert len(seen) == 3


class TestJournal:
    def test_golden_line_round_trips_byte_identical(self):
        text = GOLDEN_LINE.read_text(encoding="utf-8").rstrip("\n")
        state = decoder(PipelineState)(json.loads(text))
        # the line predates the EX verdict; it reads back as null, in key order
        head, sep, tail = text.partition(', "final_sql": ')
        assert line(state) == head + ', "ex_verdict": null' + sep + tail
        assert state.ex_verdict is None
        outcome = state.refine_attempts[-1].outcome
        assert outcome.status is ExecStatus.OK
        assert outcome.row_count == 25
        assert len(outcome.rows_preview) == 20
        assert outcome.rows_preview[-1] == (20, "0xcafe")
        assert state.steps[-1].sub_sql == state.refine_attempts[0].input_sql

    def test_undecodable_lines_skipped_with_one_warning(self, registry, scripted_backend,
                                                       tmp_path, caplog):
        pipe = Pipeline(scripted_backend(32768), registry, PipelineConfig())
        good = json.loads(line(pipe.run_question(banking_task("0"))))
        bogus = json.loads(json.dumps(good))
        bogus["task"]["task_id"] = "1"
        bogus["refine_attempts"][0]["outcome"]["status"] = "BOGUS"
        wrong_type = json.loads(json.dumps(good))
        wrong_type["task"]["task_id"] = "2"
        wrong_type["refine_attempts"][0]["outcome"]["row_count"] = "many"
        journal_path = tmp_path / "journal.jsonl"
        journal_path.write_text("".join(json.dumps(d) + "\n"
                                        for d in (good, bogus, wrong_type)) + "{torn",
                                encoding="utf-8")
        with caplog.at_level("WARNING"):
            states = Journal(str(journal_path)).load()
        assert list(states) == ["0"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "skipped 3 journal line(s)" in warnings[0]

    def test_state_of_a_reply_without_token_counts_round_trips(self, registry, tmp_path):
        class Reply:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": "```sql\nSELECT 'F'\n```"}}],
                        "usage": {"prompt_tokens": None, "completion_tokens": "3"}}
        session = types.SimpleNamespace(post=lambda *args, **kwargs: Reply())
        backend = HttpBackend("http://llm.test/v1/chat", session=session)
        state = Pipeline(backend, registry, PipelineConfig()).run_question(banking_task())
        assert state.error is None and len(state.llm_calls) == 1
        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append(state)
        assert journal.load() == {"0": state}


class TestInstructionExport:
    def run_state(self, registry, scripted_backend, gold=None):
        pipe = Pipeline(scripted_backend(256), registry,
                        PipelineConfig())
        return pipe.run_question(banking_task(gold=gold))

    def test_passing_state_emits_one_record_per_call(self, registry, scripted_backend):
        state = self.run_state(registry, scripted_backend,
                               gold="SELECT 'F'")  # matches the replay answer
        records = export_instruction_data([state], registry)
        assert len(records) == len(state.llm_calls) == 2
        assert {r.agent_task for r in records} == {"selector", "decomposer"}
        assert all(r.passed for r in records)
        assert all(r.difficulty == "simple" for r in records)

    def test_failing_state_filtered_out(self, registry, scripted_backend):
        state = self.run_state(registry, scripted_backend, gold="SELECT 'M'")
        assert export_instruction_data([state], registry) == []

    def test_bypassed_selector_not_exported(self, registry, scripted_backend):
        pipe = Pipeline(scripted_backend(32768), registry,
                        PipelineConfig())
        state = pipe.run_question(banking_task(gold="SELECT 'F'"))
        records = export_instruction_data([state], registry)
        assert {r.agent_task for r in records} == {"decomposer"}

    def test_missing_gold_raises(self, registry, scripted_backend):
        state = self.run_state(registry, scripted_backend, gold=None)
        with pytest.raises(MissingGold):
            export_instruction_data([state], registry)

    def test_refiner_calls_exported_with_note(self, registry):
        backend = ScriptedBackend([
            ("decompose the question into subquestions",
             "```sql\nSELECT gendr FROM client\n```"),
            ("fix up SQL", "```sql\nSELECT gender FROM client\n```"),
        ], context_window=32768)
        pipe = Pipeline(backend, registry, PipelineConfig())
        task = banking_task(gold="SELECT gender FROM client")
        state = pipe.run_question(task)
        assert state.final_sql == "SELECT gender FROM client"
        records = export_instruction_data([state], registry)
        by_agent = {r.agent_task: r for r in records}
        assert set(by_agent) == {"decomposer", "refiner"}
        assert by_agent["refiner"].note
        assert by_agent["decomposer"].note == ""

    def test_gold_lookup_fallback(self, registry, scripted_backend):
        state = self.run_state(registry, scripted_backend, gold=None)
        records = export_instruction_data([state], registry,
                                          gold_lookup={"0": "SELECT 'F'"})
        assert len(records) == 2


class TestBestEffortFinals:
    def test_refiner_script_miss_keeps_candidate(self, registry):
        backend = ScriptedBackend([
            ("decompose the question into subquestions",
             "```sql\nSELECT gendr FROM client\n```"),
        ], context_window=32768)
        pipe = Pipeline(backend, registry, PipelineConfig())
        state = pipe.run_question(banking_task())
        assert state.error is not None
        assert state.final_sql == "SELECT gendr FROM client"
