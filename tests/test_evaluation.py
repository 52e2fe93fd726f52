from __future__ import annotations

import pytest

from metric_fixture import EXPECTED_EX, METRIC_ITEMS, oracle_exec_match

from text2sql import evaluation
from text2sql.evaluation import (
    VES_REPEATS,
    ErrorClass,
    ItemScore,
    build_report,
    classify_error,
    exact_match,
    exec_match,
    score_item,
    ves_ratio,
)
from text2sql.execution import ExecStatus, ExecutionOutcome, OutcomeSummary


@pytest.fixture(scope="module")
def db_paths(shop_db, library_db):
    return {"shop": str(shop_db), "library": str(library_db)}


class TestExecMatch:
    def test_identity(self, db_paths):
        sql = "SELECT name FROM products"
        assert exec_match(sql, sql, db_paths["shop"]) is True

    def test_qualified_vs_bare_column(self, shop_db):
        assert exec_match("SELECT products.name FROM products",
                          "SELECT name FROM products", str(shop_db)) is True

    def test_syntax_error_false(self, db_paths):
        assert exec_match("SELEC 1", "SELECT name FROM products",
                          db_paths["shop"]) is False

    def test_matches_oracle_on_all_items(self, db_paths):
        for idx, (db, gold, pred) in enumerate(METRIC_ITEMS):
            expected = oracle_exec_match(pred, gold, db_paths[db])
            assert expected is EXPECTED_EX[idx], f"oracle drift on item {idx + 1}"
            assert exec_match(pred, gold, db_paths[db]) is expected, f"item {idx + 1}"

    def test_symmetry_on_orderless_equivalents(self, db_paths):
        a = "SELECT name FROM products WHERE price > 10"
        b = "SELECT p.name FROM products AS p WHERE p.price > 10"
        assert exec_match(a, b, db_paths["shop"]) == exec_match(b, a, db_paths["shop"])

    def test_dedupe_mode(self, db_paths):
        gold = "SELECT customer FROM orders"
        pred = "SELECT DISTINCT customer FROM orders"
        assert exec_match(pred, gold, db_paths["shop"]) is False
        assert exec_match(pred, gold, db_paths["shop"], dedupe=True) is True


class TestVes:
    def test_identity_clock_ratio_one(self, db_paths):
        ratio = ves_ratio("SELECT 1", "SELECT 1", db_paths["shop"],
                          run_timer=lambda db, sql: 1.0)
        assert ratio == 1.0

    def test_pred_four_times_slower(self, db_paths):
        def clock(db, sql):
            return 4.0 if "slow" in sql else 1.0
        ratio = ves_ratio("SELECT 1 AS slow", "SELECT 1", db_paths["shop"],
                          run_timer=clock)
        assert ratio == 0.5

    def test_non_matching_contributes_zero(self, db_paths):
        score = score_item("x", "SELECT name FROM products WHERE price > 20",
                           "SELECT name FROM products WHERE price > 10",
                           db_paths["shop"], run_timer=lambda db, sql: 1.0)
        assert score.ves_ratio is None
        assert build_report([score]).ves == 0.0

    def test_gold_and_pred_timed_in_turn_without_warmup(self, db_paths):
        calls = []
        times = {"gold": [1.0, 9.0, 1.0, 8.0, 1.0], "pred": [1.0, 1.0, 4.0, 1.0, 4.0]}

        def timer(db, sql):
            calls.append(sql)
            return times[sql].pop(0)
        ratio = ves_ratio("pred", "gold", db_paths["shop"], run_timer=timer)
        assert calls == ["gold", "pred"] * VES_REPEATS
        assert ratio == 1.0  # per-pair ratios 1, 9, 0.25, 8 and 0.25; their median is 1

    def test_ex_runs_are_the_warmup(self, db_paths, monkeypatch):
        runs = []
        original = evaluation.execute_sql
        monkeypatch.setattr(evaluation, "execute_sql",
                            lambda db, sql, **kw: runs.append(sql) or original(db, sql, **kw))
        score = score_item("x", "SELECT p.name FROM products AS p", "SELECT name FROM products",
                           db_paths["shop"])
        assert score.ex
        gold, pred = "SELECT name FROM products", "SELECT p.name FROM products AS p"
        assert runs == [gold, pred] * (1 + VES_REPEATS)

    def test_real_timer_positive(self, db_paths):
        ratio = ves_ratio("SELECT name FROM products", "SELECT name FROM products",
                          db_paths["shop"])
        assert ratio > 0.0


class TestExactMatch:
    PAIRS = [
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

    @pytest.mark.parametrize("pred,gold,expected", PAIRS)
    def test_crafted_pairs(self, pred, gold, expected):
        assert exact_match(pred, gold) is expected

    def test_unsupported_syntax_absent(self):
        assert exact_match("WITH c AS (SELECT 1) SELECT * FROM c", "SELECT 1") is None

    def test_ex_unaffected_by_em_absence(self, db_paths):
        # EM-unsupported but executable prediction still scores EX
        score = score_item("t", "SELECT member FROM loans GROUP BY member "
                                "HAVING COUNT(*) FILTER (WHERE 1) > 0",
                           "SELECT member FROM loans", db_paths["library"],
                           with_ves=False)
        assert score.em is None or isinstance(score.em, bool)


class TestClassifyError:
    def ok(self, rows=((1,),)):
        return ExecutionOutcome(status=ExecStatus.OK, rows=rows)

    def failed(self, status, msg=""):
        return ExecutionOutcome(status=status, error_message=msg)

    def empty(self):
        return ExecutionOutcome(status=ExecStatus.EMPTY_RESULT, rows=())

    def test_none_when_ex(self):
        assert classify_error(self.ok(), self.ok(), ex=True) is ErrorClass.NONE

    def test_gold_error(self):
        label = classify_error(self.ok(), self.failed(ExecStatus.SCHEMA_ERROR), ex=False)
        assert label is ErrorClass.GOLD_ERROR

    def test_schema_linking(self):
        label = classify_error(self.failed(ExecStatus.SCHEMA_ERROR,
                                           "no such column: gendr"),
                               self.ok(), ex=False)
        assert label is ErrorClass.SCHEMA_LINKING_ERROR

    @pytest.mark.parametrize("status", [ExecStatus.SYNTAX_ERROR, ExecStatus.TIMEOUT,
                                        ExecStatus.DENIED, ExecStatus.OTHER_ERROR])
    def test_execution_error(self, status):
        assert classify_error(self.failed(status), self.ok(),
                              ex=False) is ErrorClass.EXECUTION_ERROR

    def test_empty_result(self):
        assert classify_error(self.empty(), self.ok(),
                              ex=False) is ErrorClass.EMPTY_RESULT

    def test_wrong_result(self):
        assert classify_error(self.ok(rows=((2,),)), self.ok(),
                              ex=False) is ErrorClass.WRONG_RESULT


class TestScoreItem:
    def test_wrong_result_flagged_for_review(self, db_paths):
        score = score_item("x", "SELECT name FROM products WHERE price > 20",
                           "SELECT name FROM products WHERE price > 10",
                           db_paths["shop"], with_ves=False)
        assert score.error_class is ErrorClass.WRONG_RESULT
        [item] = build_report([score]).to_dict()["items"]
        assert item["review_semantic_correct"] is True

    def test_ves_present_iff_ex(self, db_paths):
        hit = score_item("a", "SELECT name FROM products", "SELECT name FROM products",
                         db_paths["shop"], run_timer=lambda db, sql: 1.0)
        miss = score_item("b", "SELEC", "SELECT name FROM products",
                          db_paths["shop"], with_ves=False)
        assert hit.ves_ratio == 1.0
        assert miss.ves_ratio is None

    def test_invariants_enforced(self):
        summary = OutcomeSummary(status=ExecStatus.OK, row_count=1)
        with pytest.raises(ValueError):
            ItemScore("t", ex=True, em=None, ves_ratio=None,
                      error_class=ErrorClass.NONE,
                      pred_outcome=summary, gold_outcome=summary)
        with pytest.raises(ValueError):
            ItemScore("t", ex=False, em=None, ves_ratio=None,
                      error_class=ErrorClass.NONE,
                      pred_outcome=summary, gold_outcome=summary)


class TestBuildReport:
    def scores(self, db_paths, pattern):
        out = []
        for idx, (matched, difficulty) in enumerate(pattern):
            out.append(score_item(
                str(idx),
                "SELECT name FROM products" if matched
                else "SELECT name FROM products WHERE price > 9999",
                "SELECT name FROM products",
                db_paths["shop"], with_ves=False, difficulty=difficulty))
        return out

    def test_all_matching_is_hundred(self, db_paths):
        report = build_report(self.scores(db_paths, [(True, "simple")] * 3))
        assert report.ex_pct == 100.0

    def test_two_of_four_hand_tally(self, db_paths):
        report = build_report(self.scores(
            db_paths, [(True, "simple"), (False, "simple"),
                       (True, "moderate"), (False, "moderate")]))
        assert report.ex_pct == 50.0
        assert report.per_difficulty["simple"]["ex_pct"] == 50.0
        assert report.per_difficulty["moderate"]["ex_pct"] == 50.0

    def test_empty_report(self):
        report = build_report([])
        assert report.n == 0
        assert report.ex_pct is None
        assert "n/a" in report.to_text()

    def test_aggregates_recomputable_from_rows(self, db_paths):
        scores = self.scores(db_paths, [(True, "simple"), (False, "challenging"),
                                        (True, "moderate")])
        report = build_report(scores)
        recomputed = 100.0 * sum(1.0 for s in report.items if s.ex) / report.n
        assert report.ex_pct == recomputed
        assert sum(report.error_counts.values()) == report.n

    def test_renderings(self, db_paths):
        report = build_report(self.scores(db_paths, [(True, "simple")]))
        assert '"ex_pct": 100.0' in report.to_json()
        assert "EX: 100.00" in report.to_text()
