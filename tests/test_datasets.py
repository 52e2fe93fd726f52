from __future__ import annotations

import json

import pytest

from text2sql.codec import decoder, encode
from text2sql.datasets import (
    DatabaseRegistry,
    MalformedItem,
    MissingDatabase,
    Task,
    load_benchmark,
)
from text2sql.execution import ExecStatus, execute_sql
from text2sql.schema import load_column_descriptions


def write_items(path, items):
    path.write_text(json.dumps(items), encoding="utf-8")
    return path


BIRD_ITEMS = [
    {"question_id": 0, "db_id": "banking_system",
     "question": "What is the gender of the youngest client?",
     "evidence": "Later birthdate refers to younger age",
     "SQL": "SELECT gender FROM client ORDER BY birth_date DESC LIMIT 1",
     "difficulty": "simple"},
    {"question_id": 1, "db_id": "banking_system",
     "question": "How many clients are there?",
     "evidence": "",
     "SQL": "SELECT COUNT(*) FROM client",
     "difficulty": "moderate"},
    {"question_id": 2, "db_id": "banking_system",
     "question": "List loan amounts.",
     "evidence": "amount is in loan",
     "SQL": "SELECT amount FROM loan",
     "difficulty": "challenging"},
]


class TestLoadBird:
    def test_three_item_fixture(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", BIRD_ITEMS)
        bench = load_benchmark("bird", str(items), str(banking_bird_root))
        assert [t.task_id for t in bench.tasks] == ["0", "1", "2"]
        assert bench.tasks[0].evidence == "Later birthdate refers to younger age"
        assert bench.tasks[0].difficulty == "simple"
        assert bench.tasks[0].gold_sql.startswith("SELECT gender")

    def test_descriptions_reach_schema(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", BIRD_ITEMS[:1])
        bench = load_benchmark("bird", str(items), str(banking_bird_root))
        schema = bench.registry().get_schema("banking_system")
        assert schema.table("account").column("account_id").description == \
            "the id of the account"

    def test_gold_sanity_all_execute_ok(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", BIRD_ITEMS)
        bench = load_benchmark("bird", str(items), str(banking_bird_root))
        for task in bench.tasks:
            outcome = execute_sql(bench.registry().path(task.db_id), task.gold_sql)
            assert outcome.status is ExecStatus.OK, task.task_id

    def test_load_is_pure_and_ordered(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", BIRD_ITEMS)
        first = load_benchmark("bird", str(items), str(banking_bird_root))
        second = load_benchmark("bird", str(items), str(banking_bird_root))
        assert first.tasks == second.tasks

    def test_missing_database(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [
            {"question_id": 0, "db_id": "ghost_db", "question": "q", "SQL": "SELECT 1"}])
        with pytest.raises(MissingDatabase):
            load_benchmark("bird", str(items), str(banking_bird_root))

    def test_malformed_item(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [{"db_id": "banking_system"}])
        with pytest.raises(MalformedItem):
            load_benchmark("bird", str(items), str(banking_bird_root))

    def test_null_ids_fall_back_to_the_index(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [
            {"question_id": None, "db_id": "banking_system", "question": "q"},
            {"question_id": None, "db_id": "banking_system", "question": "q"}])
        bench = load_benchmark("bird", str(items), str(banking_bird_root))
        assert [t.task_id for t in bench.tasks] == ["0", "1"]

    def test_empty_database_id_is_malformed(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [{"db_id": "", "question": "q"}])
        with pytest.raises(MalformedItem):
            load_benchmark("bird", str(items), str(banking_bird_root))


class TestLoadSpider:
    def test_evidence_always_empty(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [
            {"db_id": "banking_system", "question": "count clients",
             "query": "SELECT COUNT(*) FROM client"},
        ])
        bench = load_benchmark("spider", str(items), str(banking_bird_root))
        assert bench.tasks[0].evidence == ""
        assert bench.tasks[0].difficulty == "unlabeled"
        assert bench.tasks[0].gold_sql == "SELECT COUNT(*) FROM client"

    def test_unknown_benchmark_name(self, banking_bird_root, tmp_path):
        items = write_items(tmp_path / "dev.json", [])
        with pytest.raises(ValueError):
            load_benchmark("wikisql", str(items), str(banking_bird_root))


class TestDescriptions:
    def test_csv_loading(self, banking_bird_root):
        descriptions = load_column_descriptions(banking_bird_root / "banking_system")
        assert descriptions["client"]["gender"] == "gender"
        assert descriptions["district"]["A11"] == "average salary"

    def test_absent_directory_degrades(self, tmp_path):
        assert load_column_descriptions(tmp_path) == {}

    def test_registration_without_a_mapping_reads_the_directory_beside_the_file(
            self, banking_bird_root):
        registry = DatabaseRegistry()
        registry.register("banking_system",
                          str(banking_bird_root / "banking_system" / "banking_system.sqlite"))
        schema = registry.get_schema("banking_system")
        assert schema.table("district").column("A11").description == "average salary"

    def test_stray_bytes_tolerated(self, tmp_path):
        desc_dir = tmp_path / "database_description"
        desc_dir.mkdir()
        (desc_dir / "t.csv").write_bytes(
            b"original_column_name,column_name,column_description\n"
            b"a,a,caf\xe9 notes\n")
        descriptions = load_column_descriptions(tmp_path)
        assert "a" in descriptions["t"]

    def test_byte_order_mark_dropped(self, tmp_path):
        desc_dir = tmp_path / "database_description"
        desc_dir.mkdir()
        (desc_dir / "district.csv").write_bytes(
            b"\xef\xbb\xbforiginal_column_name,column_name,column_description\n"
            b"A11,A11,average salary\n")
        assert load_column_descriptions(tmp_path) == {"district": {"A11": "average salary"}}


class TestTask:
    def test_question_required(self):
        with pytest.raises(ValueError):
            Task(task_id="0", db_id="x", question="")

    def test_round_trip(self):
        task = Task(task_id="7", db_id="shop", question="q", evidence="e",
                    gold_sql="SELECT 1", difficulty="simple")
        assert decoder(Task)(json.loads(json.dumps(task, default=encode))) == task

