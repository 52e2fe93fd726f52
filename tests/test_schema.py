from __future__ import annotations

import math
import sqlite3

import pytest

from text2sql.execution import execute_sql
from text2sql.schema import (
    DEFAULT_SAMPLE_K,
    ColumnSchema,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
    UnknownColumn,
    UnreadableDatabase,
    estimate_tokens,
    introspect,
    render_foreign_keys,
    render_schema_description,
    render_table_blocks,
)
from text2sql.selector import pruned_schema


def make_db(tmp_path, name, script):
    path = tmp_path / name
    conn = sqlite3.connect(path)
    conn.executescript(script)
    conn.commit()
    conn.close()
    return path


class TestIntrospect:
    def test_three_table_fixture(self, tmp_path):
        path = make_db(tmp_path, "mini.sqlite", """
            CREATE TABLE district (district_id INTEGER PRIMARY KEY, A11 INTEGER);
            CREATE TABLE account (
                account_id INTEGER PRIMARY KEY,
                district_id INTEGER REFERENCES district(district_id)
            );
            CREATE TABLE client (
                client_id INTEGER PRIMARY KEY,
                gender TEXT,
                district_id INTEGER REFERENCES district(district_id)
            );
        """)
        schema = introspect(str(path))
        assert len(schema.tables) == 3
        assert len(schema.foreign_keys) == 2
        assert schema.db_id == "mini"

    def test_banking_fixture_tables_and_keys(self, banking_schema):
        assert [t.name for t in banking_schema.tables] == ["account", "client", "loan", "district"]
        pairs = {(fk.from_table, fk.to_table) for fk in banking_schema.foreign_keys}
        assert ("client", "district") in pairs
        assert ("account", "district") in pairs

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        sqlite3.connect(path).close()
        schema = introspect(str(path))
        assert schema.tables == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableDatabase):
            introspect(str(tmp_path / "nope.sqlite"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.sqlite"
        path.write_bytes(b"definitely not a database" * 100)
        with pytest.raises(UnreadableDatabase):
            introspect(str(path))

    def test_query_past_its_deadline_is_unreadable(self, tmp_path, monkeypatch):
        path = make_db(tmp_path, "slow.sqlite", "CREATE TABLE t (name TEXT);"
                       "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                       "WHERE x < 5000) INSERT INTO t SELECT 'n' || x FROM c;")
        monkeypatch.setattr("text2sql.schema.execute_sql",
                            lambda db_path, sql: execute_sql(db_path, sql, timeout=-1.0))
        with pytest.raises(UnreadableDatabase, match="TIMEOUT"):
            introspect(str(path))

    def test_counts_match_catalog_oracle(self, school_db):
        # independent recount straight from the engine catalog
        conn = sqlite3.connect(school_db)
        oracle_tables = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%'")]
        oracle_columns = {
            t: len(conn.execute(f'PRAGMA table_info("{t}")').fetchall())
            for t in oracle_tables
        }
        conn.close()

        schema = introspect(str(school_db))
        assert [t.name for t in schema.tables] == oracle_tables
        assert {t.name: len(t.columns) for t in schema.tables} == oracle_columns

    def test_unmatched_description_warns(self, banking_db, caplog):
        descriptions = {"client": {"gender": "gender", "no_such": "ghost column"}}
        with caplog.at_level("WARNING"):
            schema = introspect(str(banking_db), descriptions)
        assert schema.table("client").column("gender").description == "gender"
        assert any("no_such" in message for message in caplog.messages)

    def test_descriptions_match_case_insensitively(self, banking_db):
        descriptions = {"CLIENT": {"GENDER": "sex of the client"}}
        schema = introspect(str(banking_db), descriptions)
        assert schema.table("client").column("gender").description == "sex of the client"


def examples(schema, table, column):
    return schema.table(table).column(column).value_examples


class TestSampleColumnValues:
    def test_gender_by_frequency(self, banking_schema):
        # 3 x M, 2 x F in the fixture
        assert examples(banking_schema, "client", "gender") == ("'M'", "'F'")

    def test_empty_table(self, tmp_path):
        path = make_db(tmp_path, "zero.sqlite", "CREATE TABLE t (name TEXT);")
        schema = introspect(str(path))
        assert examples(schema, "t", "name") == ()

    def test_unknown_column(self, banking_schema):
        with pytest.raises(UnknownColumn):
            examples(banking_schema, "client", "no_such")

    def test_numeric_affine_columns_skipped(self, banking_schema):
        assert examples(banking_schema, "district", "A11") == ()
        assert examples(banking_schema, "district", "A2") == ()

    def test_charter_flag_matches_frequency_oracle(self, school_db):
        # frozen from a GROUP BY/COUNT oracle run on the fixture: 1 x3, 0 x2
        schema = introspect(str(school_db))
        assert examples(schema, "frpm", "Charter School (Y/N)") == ("1", "0")

    def test_url_dominated_column_skipped(self, tmp_path):
        path = make_db(tmp_path, "urls.sqlite", """
            CREATE TABLE sites (home TEXT);
            INSERT INTO sites VALUES ('https://a.example/x');
            INSERT INTO sites VALUES ('http://b.example/y');
            INSERT INTO sites VALUES ('plain');
        """)
        schema = introspect(str(path))
        assert examples(schema, "sites", "home") == ()

    def test_email_dominated_column_skipped(self, tmp_path):
        path = make_db(tmp_path, "mail.sqlite", """
            CREATE TABLE folk (mail TEXT);
            INSERT INTO folk VALUES ('a@x.org');
            INSERT INTO folk VALUES ('b@y.org');
        """)
        schema = introspect(str(path))
        assert examples(schema, "folk", "mail") == ()

    def test_long_values_skip_column(self, tmp_path):
        path = make_db(tmp_path, "long.sqlite", f"""
            CREATE TABLE notes (body TEXT);
            INSERT INTO notes VALUES ('{"y" * 80}');
        """)
        schema = introspect(str(path))
        assert examples(schema, "notes", "body") == ()

    def test_at_most_k_distinct_and_all_present(self, tmp_path):
        rows = ", ".join(f"('day {i}')" for i in range(DEFAULT_SAMPLE_K + 3))
        path = make_db(tmp_path, "days.sqlite", f"""
            CREATE TABLE log (day TEXT);
            INSERT INTO log VALUES {rows}, ('day 1');
        """)
        values = examples(introspect(str(path)), "log", "day")
        assert len(values) == DEFAULT_SAMPLE_K
        assert len(set(values)) == len(values)
        assert values[0] == "'day 1'"  # the one value seen twice ranks first
        conn = sqlite3.connect(path)
        present = {repr(r[0]) for r in conn.execute("SELECT day FROM log")}
        conn.close()
        assert set(values) <= present


class TestRendering:
    def test_account_block_shape(self, banking_schema):
        text = render_table_blocks(banking_schema)
        assert "# Table: account" in text
        assert "    (frequency, frequency of the acount. Value examples: " \
               "['POPLATEK MESICNE', 'POPLATEK PO OBRATU', 'POPLATEK TYDNE'].)," in text
        assert "    (gender, gender. Value examples: ['M', 'F'].)," in text
        # numeric-affine columns render without a value-examples clause
        assert "    (account_id, the id of the account.)," in text

    def test_single_table_selection(self, banking_schema):
        pruned = pruned_schema(banking_schema, {"district": ["district_id", "A11"]})
        text = render_schema_description(pruned)
        assert text.count("# Table:") == 1
        assert text.rstrip().endswith("[Foreign keys]")

    def test_deterministic(self, banking_schema):
        first = render_schema_description(banking_schema)
        second = render_schema_description(banking_schema)
        assert first == second

    def test_round_trip_names_exist(self, banking_schema):
        import re
        text = render_table_blocks(banking_schema)
        tables = re.findall(r"^# Table: (.+)$", text, re.MULTILINE)
        assert all(banking_schema.has_table(t) for t in tables)
        for table_name, block in zip(tables, text.split("# Table: ")[1:]):
            for line in block.splitlines():
                match = re.match(r"\s+\((\w+),", line)
                if match:
                    assert banking_schema.has_column(table_name, match.group(1))

    def test_pruning_monotonicity(self, banking_schema):
        full = len(render_schema_description(banking_schema))
        selections = [
            {"account": ["account_id"], "client": ["gender"], "district": ["district_id"]},
            {t.name: [c.name for c in t.columns] for t in banking_schema.tables},
            {"loan": ["loan_id", "status"]},
        ]
        for selection in selections:
            pruned = pruned_schema(banking_schema, selection)
            assert len(render_schema_description(pruned)) <= full

    def test_foreign_key_closure(self, banking_schema):
        def fks(selection):
            return render_foreign_keys(pruned_schema(banking_schema, selection))
        text = fks({"client": ["client_id", "district_id"], "district": ["district_id"]})
        assert text == "client.`district_id` = district.`district_id`"
        # dropping the referenced column kills the key
        assert fks({"client": ["client_id"], "district": ["district_id"]}) == ""

    def test_selection_with_unknown_name_rejected(self, banking_schema):
        pruned = pruned_schema(banking_schema, {"ghost": ["x"], "client": ["ghost", "gender"]})
        text = render_table_blocks(pruned)
        assert text.count("# Table:") == 1
        assert "ghost" not in text and "(gender, " in text


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_hundred_bytes(self):
        assert estimate_tokens("x" * 100) == 25

    def test_rendered_schema_matches_recount(self, banking_schema):
        text = render_schema_description(banking_schema)
        # independent recount by the same ceiling(bytes/4) rule
        assert estimate_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)
        assert estimate_tokens(text) == 419  # frozen for this fixture


class TestTypeInvariants:
    def test_duplicate_table_names_rejected(self):
        t = TableSchema("t", (ColumnSchema("a"),))
        with pytest.raises(ValueError):
            DatabaseSchema("db", (t, t), ())

    def test_foreign_key_endpoints_checked(self):
        t = TableSchema("t", (ColumnSchema("a"),))
        with pytest.raises(ValueError):
            DatabaseSchema("db", (t,), (ForeignKey("t", "a", "ghost", "b"),))

    def test_empty_column_name_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema("")

    def test_long_value_example_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema("a", value_examples=("x" * 51,))
