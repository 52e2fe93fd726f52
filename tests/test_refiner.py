from __future__ import annotations

import pytest

from text2sql import refiner
from text2sql.backend import ChatResponse, ScriptedBackend
from text2sql.execution import (
    ROWS_PREVIEW_LIMIT,
    ExecStatus,
    ExecutionOutcome,
    execute_sql,
)
from text2sql.refiner import build_refiner_prompt, refine_loop


def outcome_of(status, rows=None, message="", exc_class=""):
    return ExecutionOutcome(status=status, rows=rows, error_message=message,
                            exception_class=exc_class)


class TestDiagnose:
    """Which outcomes make the loop ask the model for a correction."""

    @staticmethod
    def needs_fix(monkeypatch, outcome) -> bool:
        monkeypatch.setattr(refiner, "execute_sql", lambda *args, **kwargs: outcome)
        requests = []
        reply = ChatResponse(text="no SQL in this reply")
        refine_loop(lambda request: requests.append(request) or reply,
                    "unused.sqlite", "q", "", "s", "f", "SELECT 1")
        return bool(requests)

    def test_ok_with_rows_never_refined(self, monkeypatch):
        ok = outcome_of(ExecStatus.OK, rows=((1,), (2,), (3,)))
        assert self.needs_fix(monkeypatch, ok) is False

    def test_empty_result_needs_fix(self, monkeypatch):
        empty = outcome_of(ExecStatus.EMPTY_RESULT, rows=())
        assert self.needs_fix(monkeypatch, empty) is True

    @pytest.mark.parametrize("status", [
        ExecStatus.SYNTAX_ERROR, ExecStatus.SCHEMA_ERROR,
        ExecStatus.TIMEOUT, ExecStatus.OTHER_ERROR,
    ])
    def test_failures_need_fix(self, monkeypatch, status):
        assert self.needs_fix(monkeypatch, outcome_of(status)) is True


class TestRefinerPrompt:
    def test_schema_error_message_verbatim(self):
        outcome = outcome_of(ExecStatus.SCHEMA_ERROR,
                             message="no such column: T1.gendr",
                             exc_class="OperationalError")
        request = build_refiner_prompt("q?", "hint", "<schema>", "<fk>",
                                       "SELECT gendr FROM client", outcome)
        text = request.user_text
        assert "[SQLite error]\nno such column: T1.gendr\n" in text
        assert "[Exception class]\nOperationalError\n" in text
        assert "SELECT gendr FROM client" in text

    def test_ends_with_correct_sql_header(self):
        outcome = outcome_of(ExecStatus.SYNTAX_ERROR, message="x")
        request = build_refiner_prompt("q", "", "s", "f", "SELECT", outcome)
        assert request.user_text.endswith("[correct SQL]")

    def test_empty_result_slots(self):
        outcome = outcome_of(ExecStatus.EMPTY_RESULT, rows=())
        text = build_refiner_prompt("q", "", "s", "f", "SELECT 1", outcome).user_text
        assert "[SQLite error]\nempty result set\n" in text
        assert "[Exception class]\nEmptyResult\n" in text

    def test_rejects_ok_outcome(self):
        with pytest.raises(ValueError):
            build_refiner_prompt("q", "", "s", "f", "SELECT 1",
                                 outcome_of(ExecStatus.OK, rows=((1,),)))

    def test_snapshot_stable(self):
        outcome = outcome_of(ExecStatus.SYNTAX_ERROR, message="m", exc_class="E")
        first = build_refiner_prompt("q", "e", "s", "f", "SELECT", outcome).user_text
        second = build_refiner_prompt("q", "e", "s", "f", "SELECT", outcome).user_text
        assert first == second


class TestRefineLoop:
    def test_ok_first_try(self, banking_db):
        backend = ScriptedBackend([])  # must never be called
        final, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                         "SELECT gender FROM client")
        assert final == "SELECT gender FROM client"
        assert len(attempts) == 1
        assert attempts[0].outcome.status is ExecStatus.OK
        assert attempts[0].corrected_sql is None

    def test_misspelled_column_fixed_in_one_round(self, banking_db):
        backend = ScriptedBackend([
            ("no such column", "Fixed:\n```sql\nSELECT gender FROM client\n```"),
        ])
        final, attempts, outcome = refine_loop(backend.complete, str(banking_db), "q", "",
                                               "s", "f", "SELECT gendr FROM client")
        assert final == "SELECT gender FROM client"
        assert len(attempts) == 2
        assert attempts[0].corrected_sql == "SELECT gender FROM client"
        # verified by an execution oracle, not by trusting the loop
        oracle = execute_sql(str(banking_db), final)
        assert oracle.status is ExecStatus.OK
        assert outcome == oracle  # the outcome returned is the final SQL's own run

    def test_same_broken_sql_every_round(self, banking_db):
        broken = "SELECT nothing FROM nowhere"
        backend = ScriptedBackend([("fix up SQL", f"```sql\n{broken}\n```")])
        final, attempts, outcome = refine_loop(backend.complete, str(banking_db), "q", "",
                                               "s", "f", broken, max_rounds=3)
        assert final == broken
        assert len(attempts) == 3 + 1
        assert attempts[-1].outcome.status is outcome.status is not ExecStatus.OK

    def test_a_correction_followed_by_an_empty_fence_is_taken(self, banking_db):
        backend = ScriptedBackend([
            ("no such column", "```sql\nSELECT gender FROM client\n```\n```sql\n```"),
        ])
        final, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                         "SELECT gendr FROM client")
        assert final == "SELECT gender FROM client"
        assert attempts[0].corrected_sql == "SELECT gender FROM client"
        assert attempts[-1].outcome.status is ExecStatus.OK

    def test_unparseable_correction_returns_prior(self, banking_db):
        backend = ScriptedBackend([("fix up SQL", "sorry, cannot help")])
        initial = "SELECT ghost FROM client"
        final, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                         initial)
        assert final == initial
        assert len(attempts) == 1
        assert attempts[0].corrected_sql is None

    def test_empty_result_triggers_refine(self, banking_db):
        backend = ScriptedBackend([
            ("empty result set", "```sql\nSELECT gender FROM client\n```"),
        ])
        final, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                         "SELECT gender FROM client WHERE gender = 'Q'")
        assert final == "SELECT gender FROM client"
        assert attempts[0].outcome.status is ExecStatus.EMPTY_RESULT

    def test_stop_on_success_mid_loop(self, banking_db):
        backend = ScriptedBackend([
            ("no such column", "```sql\nSELECT gender FROM client\n```"),
        ])
        final, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                         "SELECT wrong FROM client", max_rounds=5)
        assert attempts[-1].outcome.status is ExecStatus.OK
        assert len(attempts) == 2  # no attempt follows an OK outcome

    def test_attempt_rounds_are_sequential(self, banking_db):
        backend = ScriptedBackend([("fix up SQL", "```sql\nSELECT x FROM y\n```")])
        _, attempts, _ = refine_loop(backend.complete, str(banking_db), "q", "", "s", "f",
                                     "SELECT nope FROM client", max_rounds=2)
        assert [a.round for a in attempts] == list(range(1, len(attempts) + 1))

    def test_attempt_keeps_a_summary_not_the_rows(self, banking_db):
        sql = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
               "WHERE i < 25) SELECT i, X'CAFE' FROM n")
        _, attempts, outcome = refine_loop(ScriptedBackend([]).complete, str(banking_db),
                                           "q", "", "s", "f", sql)
        summary = attempts[0].outcome
        assert summary.row_count == 25
        assert len(summary.rows_preview) == ROWS_PREVIEW_LIMIT == 20
        assert summary.rows_preview[0] == (1, "0xcafe")
        assert len(outcome.rows) == 25  # the caller gets every row

    def test_max_rounds_validated(self, banking_db):
        with pytest.raises(ValueError):
            refine_loop(ScriptedBackend([]).complete, str(banking_db), "q", "", "s", "f",
                        "SELECT 1", max_rounds=0)
