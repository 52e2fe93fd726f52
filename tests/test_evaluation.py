from __future__ import annotations

from pathlib import Path

import pytest

from metric_fixture import EXPECTED_EX, METRIC_ITEMS, oracle_exec_match

from text2sql import evaluation
from text2sql.evaluation import (
    VES_REPEATS,
    ErrorClass,
    ItemScore,
    build_report,
    exact_match,
    exec_match,
    judge,
    score_item,
    ves_ratio,
)
from text2sql.execution import ExecStatus, ExecutionOutcome


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

    @pytest.mark.parametrize("pred", ["", "  "])
    def test_empty_prediction_runs_no_sql(self, db_paths, monkeypatch, pred):
        def refuse(*args, **kwargs):
            raise AssertionError("SQL was executed")
        monkeypatch.setattr(evaluation, "execute_sql", refuse)
        assert exec_match(pred, "SELECT name FROM products", db_paths["shop"]) is False


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
        # a compound's ORDER BY names a result column, whichever core comes first
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1",
         "SELECT b FROM u UNION SELECT a FROM t ORDER BY 1", True),
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY a",
         "SELECT b FROM u UNION SELECT a FROM t ORDER BY b", True),
        ("SELECT a, COUNT(*) FROM t GROUP BY a UNION SELECT b, y FROM u ORDER BY COUNT(*)",
         "SELECT a, COUNT(*) FROM t GROUP BY a UNION SELECT b, y FROM u ORDER BY 2", True),
        ("SELECT a, x FROM t UNION SELECT b, y FROM u ORDER BY x",
         "SELECT a, x FROM t UNION SELECT b, y FROM u ORDER BY a", False),
        # SQLite refuses a term that names no result column
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY c",
         "SELECT a FROM t UNION SELECT b FROM u ORDER BY c", None),
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


def _outcome(status: ExecStatus, rows=((1,),)) -> ExecutionOutcome:
    if status is ExecStatus.OK:
        return ExecutionOutcome(status, rows=rows)
    if status is ExecStatus.EMPTY_RESULT:
        return ExecutionOutcome(status, rows=())
    return ExecutionOutcome(status, error_message="failed")


# Each prediction against a gold that returned ((1,),), with the class it gets;
# against any other gold outcome every prediction is a GOLD_ERROR.
_AGAINST_OK_GOLD = [
    ("OK-equal", _outcome(ExecStatus.OK), ErrorClass.NONE),
    ("OK-unequal", _outcome(ExecStatus.OK, rows=((2,),)), ErrorClass.WRONG_RESULT),
    *[(status.value, _outcome(status), expected) for status, expected in [
        (ExecStatus.SYNTAX_ERROR, ErrorClass.EXECUTION_ERROR),
        (ExecStatus.SCHEMA_ERROR, ErrorClass.SCHEMA_LINKING_ERROR),
        (ExecStatus.EMPTY_RESULT, ErrorClass.EMPTY_RESULT),
        (ExecStatus.TIMEOUT, ErrorClass.EXECUTION_ERROR),
        (ExecStatus.DENIED, ErrorClass.EXECUTION_ERROR),
        (ExecStatus.OTHER_ERROR, ErrorClass.EXECUTION_ERROR)]],
]


class TestClassifyError:
    """``judge``, the one EX rule: every EX and error class comes from it."""

    def ok(self, rows=((1,),)):
        return ExecutionOutcome(status=ExecStatus.OK, rows=rows)

    def failed(self, status, msg=""):
        return ExecutionOutcome(status=status, error_message=msg)

    def empty(self):
        return ExecutionOutcome(status=ExecStatus.EMPTY_RESULT, rows=())

    def test_none_when_ex(self):
        assert judge(self.ok(), self.ok(), "SELECT 1") is ErrorClass.NONE

    def test_gold_error(self):
        label = judge(self.ok(), self.failed(ExecStatus.SCHEMA_ERROR), "SELECT 1")
        assert label is ErrorClass.GOLD_ERROR

    def test_schema_linking(self):
        label = judge(self.failed(ExecStatus.SCHEMA_ERROR, "no such column: gendr"),
                      self.ok(), "SELECT 1")
        assert label is ErrorClass.SCHEMA_LINKING_ERROR

    @pytest.mark.parametrize("status", [ExecStatus.SYNTAX_ERROR, ExecStatus.TIMEOUT,
                                        ExecStatus.DENIED, ExecStatus.OTHER_ERROR])
    def test_execution_error(self, status):
        assert judge(self.failed(status), self.ok(), "SELECT 1") is ErrorClass.EXECUTION_ERROR

    def test_empty_result(self):
        assert judge(self.empty(), self.ok(), "SELECT 1") is ErrorClass.EMPTY_RESULT

    def test_wrong_result(self):
        assert judge(self.ok(rows=((2,),)), self.ok(), "SELECT 1") is ErrorClass.WRONG_RESULT

    @pytest.mark.parametrize("gold", list(ExecStatus), ids=lambda s: f"gold-{s.value}")
    @pytest.mark.parametrize("pred,expected", [row[1:] for row in _AGAINST_OK_GOLD],
                             ids=[row[0] for row in _AGAINST_OK_GOLD])
    def test_every_status_pair(self, pred, gold, expected):
        label = judge(pred, _outcome(gold), "SELECT x FROM t")
        assert label is (expected if gold is ExecStatus.OK else ErrorClass.GOLD_ERROR)


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

    def test_memory_error_scores_as_an_execution_error(self, db_paths, fetch_exhausts):
        gold = "SELECT name FROM products"
        pred = score_item("p", gold + fetch_exhausts, gold, db_paths["shop"], with_ves=False)
        assert pred.error_class is ErrorClass.EXECUTION_ERROR
        assert pred.pred_status is ExecStatus.OTHER_ERROR
        bad_gold = score_item("g", gold, gold + fetch_exhausts, db_paths["shop"],
                              with_ves=False)
        assert bad_gold.error_class is ErrorClass.GOLD_ERROR

    def test_long_and_chain_scores(self, db_paths):
        # SQLite runs 990 ANDed terms, so EM must flatten them without recursing per term.
        sql = "SELECT name FROM products WHERE " + " AND ".join(["price > 0"] * 990)
        score = score_item("and", sql, sql, db_paths["shop"], with_ves=False)
        assert score.ex and score.em is True

    def test_too_deep_for_em_is_outside_the_grammar(self, db_paths):
        sql = "SELECT name FROM products WHERE price > " + " + ".join(["0"] * 3000)
        score = score_item("deep", sql, sql, db_paths["shop"], with_ves=False)
        assert score.em is None

    def test_invariants_enforced(self):
        ok = ExecStatus.OK
        with pytest.raises(ValueError):
            ItemScore("t", ex=True, em=None, ves_ratio=None,
                      error_class=ErrorClass.NONE, pred_status=ok, gold_status=ok)
        with pytest.raises(ValueError):
            ItemScore("t", ex=False, em=None, ves_ratio=None,
                      error_class=ErrorClass.NONE, pred_status=ok, gold_status=ok)


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


GOLDEN_REPORT = Path(__file__).parent / "data" / "golden" / "eval_report"


class TestGoldenReport:
    """The report of the 20 metric items plus an empty prediction, as ``eval`` writes it.

    The timer makes each run cost its SQL's length, so VES is fixed and not 1.
    """

    def report(self, db_paths):
        items = METRIC_ITEMS + [("shop", "SELECT name FROM products", "")]
        return build_report([
            score_item(str(idx), pred, gold, db_paths[db],
                       difficulty=("simple", "moderate")[idx % 2],
                       run_timer=lambda db, sql: len(sql) / 1000)
            for idx, (db, gold, pred) in enumerate(items)])

    def test_json_is_byte_identical(self, db_paths):
        golden = GOLDEN_REPORT.with_suffix(".json").read_text(encoding="utf-8")
        assert self.report(db_paths).to_json() == golden

    def test_text_is_byte_identical(self, db_paths):
        golden = GOLDEN_REPORT.with_suffix(".txt").read_text(encoding="utf-8")
        assert self.report(db_paths).to_text() + "\n" == golden
