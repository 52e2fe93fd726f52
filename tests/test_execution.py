from __future__ import annotations

import gc
import hashlib
import os
import sqlite3
import sys
import threading
import time

import pytest

from text2sql import execution
from text2sql.clauses import has_top_level_order_by
from text2sql.evaluation import rows_equal
from text2sql.execution import ExecStatus, ExecutionOutcome, execute_sql
from text2sql.schema import introspect


class TestExecuteSql:
    def test_ok_with_rows(self, banking_db):
        outcome = execute_sql(str(banking_db), "SELECT gender FROM client LIMIT 1")
        assert outcome.status is ExecStatus.OK
        assert len(outcome.rows) == 1

    def test_schema_error_names_missing_table(self, banking_db):
        outcome = execute_sql(str(banking_db), "SELECT * FROM no_such_table")
        assert outcome.status is ExecStatus.SCHEMA_ERROR
        assert "no_such_table" in outcome.error_message
        assert outcome.exception_class == "OperationalError"
        assert outcome.rows is None

    def test_schema_error_missing_column(self, banking_db):
        outcome = execute_sql(str(banking_db), "SELECT ghost FROM client")
        assert outcome.status is ExecStatus.SCHEMA_ERROR

    def test_syntax_error(self, banking_db):
        outcome = execute_sql(str(banking_db), "SELEC gender FROM client")
        assert outcome.status is ExecStatus.SYNTAX_ERROR

    def test_empty_result(self, banking_db):
        outcome = execute_sql(str(banking_db),
                              "SELECT * FROM client WHERE gender = 'X'")
        assert outcome.status is ExecStatus.EMPTY_RESULT
        assert outcome.rows == ()

    def test_other_error_on_write(self, banking_db):
        before = hashlib.sha256(banking_db.read_bytes()).hexdigest()
        outcome = execute_sql(str(banking_db), "DELETE FROM loan")
        assert outcome.status is ExecStatus.DENIED
        assert hashlib.sha256(banking_db.read_bytes()).hexdigest() == before

    def test_gold_matches_direct_execution_oracle(self, banking_db):
        gold = ("SELECT T1.`gender` FROM client AS T1 INNER JOIN district AS T2 "
                "ON T1.`district_id` = T2.`district_id` "
                "ORDER BY T2.`A11` ASC, T1.`birth_date` DESC LIMIT 1")
        outcome = execute_sql(str(banking_db), gold)
        conn = sqlite3.connect(banking_db)
        oracle = conn.execute(gold).fetchall()
        conn.close()
        assert outcome.status is ExecStatus.OK
        assert [list(r) for r in outcome.rows] == [list(r) for r in oracle]
        assert outcome.rows == (("F",),)

    def test_empty_sql_rejected(self, banking_db, tmp_path):
        for sql in ("", "   ", "\n\t"):
            outcome = execute_sql(str(banking_db), sql)
            assert outcome.status is ExecStatus.SYNTAX_ERROR
            assert (outcome.error_message, outcome.exception_class) == (
                "empty statement", "EmptyStatement")
        # refused before a connection opens, so a missing file does not matter
        missing = execute_sql(str(tmp_path / "missing.sqlite"), " ")
        assert missing.status is ExecStatus.SYNTAX_ERROR

    def test_timeout_within_bound(self, banking_db):
        runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
                   "SELECT count(*) FROM c")
        start = time.monotonic()
        outcome = execute_sql(str(banking_db), runaway, timeout=0.3)
        elapsed = time.monotonic() - start
        assert outcome.status is ExecStatus.TIMEOUT
        assert elapsed <= 0.3 + 0.5

    def test_never_mutates_database(self, banking_db, tmp_path):
        battery = [
            "SELECT * FROM client",
            "DELETE FROM loan",
            "UPDATE client SET gender = 'X'",
            "DROP TABLE district",
            "INSERT INTO loan VALUES (9, 1, 'x', 1, 1, 1, 'A')",
            "CREATE TABLE evil (a)",
            "SELEC nonsense",
        ]
        before = hashlib.sha256(banking_db.read_bytes()).hexdigest()
        for sql in battery:
            execute_sql(str(banking_db), sql)
        after = hashlib.sha256(banking_db.read_bytes()).hexdigest()
        assert before == after

    def test_classification_total_on_garbage(self, banking_db):
        weird = [
            "PRAGMA table_info(client)",
            "SELECT 1; SELECT 2",
            "EXPLAIN SELECT 1",
            "SELECT zeroblob(10)",
            "/* nothing */ SELECT 1",
            "SELECT 'a' || x'00'",
        ]
        for sql in weird:
            outcome = execute_sql(str(banking_db), sql)
            assert isinstance(outcome.status, ExecStatus)

    def test_unreadable_db_is_other_error(self, tmp_path):
        outcome = execute_sql(str(tmp_path / "missing.sqlite"), "SELECT 1")
        assert outcome.status is ExecStatus.OTHER_ERROR

    def test_memory_error_is_other_error(self, banking_db, fetch_exhausts):
        outcome = execute_sql(str(banking_db), "SELECT * FROM client " + fetch_exhausts)
        assert outcome.status is ExecStatus.OTHER_ERROR
        assert outcome.exception_class == "MemoryError"
        assert outcome.rows is None
        assert execute_sql(str(banking_db), "SELECT 1").rows == ((1,),)


class TestReadOnlyPath:
    @pytest.mark.parametrize("dirname", ["a?b", "a#b"])
    def test_uri_characters_in_directory_name(self, tmp_path, dirname):
        db_dir = tmp_path / dirname
        db_dir.mkdir()
        db = db_dir / "db.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("CREATE TABLE t (x); INSERT INTO t VALUES (1), (2);")
        conn.close()
        before = sorted(tmp_path.rglob("*"))

        outcome = execute_sql(str(db), "SELECT x FROM t ORDER BY x")
        assert outcome.status is ExecStatus.OK
        assert outcome.rows == ((1,), (2,))
        assert execute_sql(str(db), "CREATE TABLE evil (y)").status is ExecStatus.DENIED
        assert [t.name for t in introspect(str(db)).tables] == ["t"]
        assert sorted(tmp_path.rglob("*")) == before


def _make_db(path, values):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (x)")
    conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
    conn.commit()
    conn.close()
    return str(path)


def _open_files(path):
    """This process's descriptors open on ``path``, or on a file deleted from it."""
    fds = "/proc/self/fd"
    targets = []
    for fd in os.listdir(fds):
        try:
            targets.append(os.readlink(os.path.join(fds, fd)))
        except OSError:  # the descriptor listdir itself used is gone
            continue
    return [t for t in targets if t == path or t == path + " (deleted)"]


class TestGuardedConnection:
    @pytest.mark.parametrize("probe,created", [
        ("VACUUM INTO '{tmp}/x.db'", "x.db"),
        ("ATTACH DATABASE '{tmp}/y.db' AS a", "y.db"),
    ])
    def test_file_writing_statements_denied(self, tmp_path, probe, created):
        db = _make_db(tmp_path / "db.sqlite", [1, 2])
        outcome = execute_sql(db, probe.format(tmp=tmp_path))
        assert outcome.status is ExecStatus.DENIED
        assert outcome.rows is None
        assert not (tmp_path / created).exists()

    @pytest.mark.parametrize("probe", [
        "BEGIN",
        "CREATE TEMP TABLE t(x)",
        "PRAGMA reverse_unordered_selects=1",
        "PRAGMA writable_schema=1",
        "PRAGMA query_only=0",
    ])
    def test_state_changing_statements_leave_no_state(self, tmp_path, probe):
        db = _make_db(tmp_path / "db.sqlite", [1, 2, 3])
        before = execute_sql(db, "SELECT x FROM t")
        assert before.rows == ((1,), (2,), (3,))
        assert execute_sql(db, probe).status is ExecStatus.DENIED
        assert execute_sql(db, "SELECT x FROM t").rows == before.rows
        # no read transaction pinned a snapshot: a later commit is seen
        writer = sqlite3.connect(db)
        writer.execute("INSERT INTO t VALUES (4)")
        writer.commit()
        writer.close()
        assert execute_sql(db, "SELECT x FROM t").rows == ((1,), (2,), (3,), (4,))

    @pytest.mark.parametrize("probe", [
        'PRAGMA table_info("t")',
        "PRAGMA TABLE_INFO(t)",
        'PRAGMA foreign_key_list("u")',
        # these two pragmas read no more than the table definitions show
        "SELECT sql FROM sqlite_master",
    ])
    def test_schema_reading_pragmas_allowed(self, tmp_path, probe):
        db = _make_db(tmp_path / "db.sqlite", [1])
        writer = sqlite3.connect(db)
        writer.execute("CREATE TABLE u (y REFERENCES t(x))")
        writer.close()
        assert execute_sql(db, probe).status is ExecStatus.OK

    @pytest.mark.parametrize("probe", [
        'PRAGMA table_xinfo("t")',
        "SELECT * FROM pragma_table_xinfo('t')",
        'PRAGMA index_list("t")',
        "PRAGMA database_list",
        # not ASCII: a Kelvin sign folds to "k" in Python but names no pragma
        'PRAGMA foreign_\u212aey_list("t")',
    ])
    def test_other_reading_pragmas_denied(self, tmp_path, probe):
        db = _make_db(tmp_path / "db.sqlite", [1])
        assert execute_sql(db, probe).status is ExecStatus.DENIED

    def test_what_sqlite_itself_refuses_is_denied(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", [1])
        # extension loading is off, so SQLite refuses the call before the authorizer sees it
        outcome = execute_sql(db, "SELECT load_extension('x')")
        assert outcome.status is ExecStatus.DENIED
        assert outcome.error_message == execution._DENIED_MESSAGE

    def test_select_after_timeout_is_ok(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", [1])
        runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
                   "SELECT x FROM c")
        assert execute_sql(db, runaway, timeout=0.05).status is ExecStatus.TIMEOUT
        outcome = execute_sql(db, "SELECT 1")
        assert outcome.status is ExecStatus.OK
        assert outcome.rows == ((1,),)
        # the stopped statement holds no lock that would keep a writer out
        writer = sqlite3.connect(db, timeout=0.5)
        writer.execute("INSERT INTO t VALUES (2)")
        writer.commit()
        writer.close()

    def test_replaced_database_returns_new_rows(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", [1])
        assert execute_sql(db, "SELECT x FROM t").rows == ((1,),)
        os.replace(_make_db(tmp_path / "new.sqlite", [7, 8]), db)
        assert execute_sql(db, "SELECT x FROM t ORDER BY x").rows == ((7,), (8,))

    def test_absolute_path_runs_from_a_removed_working_directory(self, tmp_path,
                                                                  monkeypatch):
        db = _make_db(tmp_path / "db.sqlite", [1, 2])
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        outcome = execute_sql(db, "SELECT x FROM t ORDER BY x")
        assert outcome.status is ExecStatus.OK
        assert outcome.rows == ((1,), (2,))

    def test_hard_link_shares_the_connection(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", [1])
        link = tmp_path / "link.sqlite"
        os.link(db, link)
        assert execute_sql(db, "SELECT x FROM t").rows == ((1,),)
        guarded = execution._slot.guarded
        assert execute_sql(str(link), "SELECT x FROM t").rows == ((1,),)
        assert execution._slot.guarded is guarded

    def test_relative_path_names_the_file_of_the_working_directory(self, tmp_path,
                                                                   monkeypatch):
        for name, values in (("a", [1]), ("b", [2, 3])):
            (tmp_path / name).mkdir()
            _make_db(tmp_path / name / "db.sqlite", values)
        monkeypatch.chdir(tmp_path / "a")
        assert execute_sql("db.sqlite", "SELECT x FROM t").rows == ((1,),)
        monkeypatch.chdir(tmp_path / "b")
        assert execute_sql("db.sqlite", "SELECT x FROM t ORDER BY x").rows == ((2,), (3,))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_connections_are_closed(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", [1])
        gc.disable()  # the close may not wait for the cycle collector
        try:
            thread = threading.Thread(target=execute_sql, args=(db, "SELECT x FROM t"))
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert _open_files(db) == []
            execute_sql(db, "SELECT x FROM t")
            os.replace(_make_db(tmp_path / "new.sqlite", [2]), db)
            execute_sql(db, "SELECT x FROM t")
            assert _open_files(db) == [db]
        finally:
            gc.enable()

    def test_concurrent_threads_get_their_rows(self, tmp_path):
        db = _make_db(tmp_path / "db.sqlite", range(100))
        barrier = threading.Barrier(4)
        results = {}

        def work(k):
            barrier.wait()
            results[k] = [execute_sql(db, f"SELECT x FROM t WHERE x % 4 = {k} "
                                          "ORDER BY x").rows for _ in range(25)]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            expected = tuple((x,) for x in range(k, 100, 4))
            assert results[k] == [expected] * 25

    def test_no_thread_started_per_call(self, banking_db, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Timer", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        other = _make_db(tmp_path / "db.sqlite", [1])
        for db in (str(banking_db), other, str(banking_db)):
            assert execute_sql(db, "SELECT 1").status is ExecStatus.OK


class TestOutcomeInvariants:
    def test_rows_only_with_ok_like_status(self):
        with pytest.raises(ValueError):
            ExecutionOutcome(status=ExecStatus.SYNTAX_ERROR, rows=())
        with pytest.raises(ValueError):
            ExecutionOutcome(status=ExecStatus.OK, rows=None)
        with pytest.raises(ValueError):
            ExecutionOutcome(status=ExecStatus.EMPTY_RESULT, rows=((1,),))


class TestNormalizeRows:
    def test_empty(self):
        assert rows_equal([], ())

    def test_order_insensitive_default(self):
        assert rows_equal([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])

    def test_order_sensitive_mode(self):
        assert not rows_equal([(1,), (2,)], [(2,), (1,)], order_sensitive=True)
        assert rows_equal([(1,), (2,)], [(1,), (2,)], order_sensitive=True)

    def test_multiset_vs_set(self):
        assert not rows_equal([(1,), (1,)], [(1,)])

    def test_numeric_tolerance(self):
        assert rows_equal([(1.0 + 1e-12,)], [(1.0,)])
        assert not rows_equal([(1.0000001,)], [(1.0,)])
        assert not rows_equal([(1.1,)], [(1.0,)])
        assert rows_equal([(2,)], [(2.0,)])

    def test_integers_compare_exactly(self):
        assert not rows_equal([(10000000,)], [(10000001,)])
        assert not rows_equal([(2**53 + 1,)], [(2**53,)])
        assert not rows_equal([(20000003,)], [(20000000.0,)])
        assert rows_equal([(12345678901234,)], [(12345678901234.0,)])

    def test_float_sum_equals_its_decimal(self):
        assert rows_equal([(0.1 + 0.2,)], [(0.3,)])
        assert rows_equal([(0.1 + 0.2, "x")], [(0.3, "x")], order_sensitive=True)

    def test_near_equal_floats_sorting_apart(self):
        # each side sorts its near-equal floats in the other order
        gold = [(0.1 + 0.2, "x"), (0.3, "y")]
        pred = [(0.3, "x"), (0.1 + 0.2, "y")]
        assert rows_equal(pred, gold)
        assert rows_equal([(2.5000000000000004, 1.0), (2.5, 3.0)],
                          [(2.5, 1.0), (2.5, 3.0)])
        assert not rows_equal([(0.3, "x"), (0.3, "x")], gold)

    def test_near_equal_floats_collapse_under_dedupe(self):
        assert not rows_equal([(0.3,), (0.1 + 0.2,)], [(0.3,)])

    def test_null_distinct_from_empty_string(self):
        assert not rows_equal([(None,)], [("",)])

    def test_text_trimmed(self):
        assert rows_equal([(" a ",)], [("a",)])

    def test_equivalent_queries_equal_multisets(self, banking_db):
        a = execute_sql(str(banking_db), "SELECT gender FROM client WHERE district_id = 2")
        b = execute_sql(str(banking_db),
                        "SELECT c.gender FROM client AS c WHERE c.district_id = 1 + 1")
        assert a.status is ExecStatus.OK
        assert rows_equal(a.rows, b.rows)


class TestTopLevelOrderBy:
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t ORDER BY a LIMIT 5", True),
        ("SELECT a FROM t", False),
        ("SELECT a FROM t WHERE x IN (SELECT b FROM u ORDER BY b)", False),
        ("SELECT a, (SELECT max(b) FROM u ORDER BY b) FROM t", False),
        ("SELECT a FROM t WHERE note = 'order by x'", False),
        ("SELECT a FROM t -- order by a\n", False),
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
        ("SELECT a FROM t ORDER/**/BY a", True),
        ("SELECT a FROM t ORDER -- c\nBY a", True),
        ("SELECT a FROM t /* ORDER BY a", False),
        ('SELECT a FROM t "ORDER" BY a', False),
        ("SELECT rank() OVER (ORDER BY a) FROM t", False),
        ("SELECT [order by] FROM t", False),
    ])
    def test_detection(self, sql, expected):
        assert has_top_level_order_by(sql) is expected
