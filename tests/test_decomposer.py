from __future__ import annotations

from pathlib import Path

import pytest

from text2sql.decomposer import (
    NoSqlFound,
    build_decomposer_prompt,
    extract_last_sql,
    parse_decomposition,
)
from text2sql.schema import estimate_tokens

BANKING_SCRIPT = Path(__file__).parent / "data" / "scripted_banking.txt"
BANKING_ANSWER = BANKING_SCRIPT.read_text(encoding="utf-8").split(
    "### MATCH: decompose the question into subquestions\n")[1].rstrip("\n")

FINAL_GENDER_SQL = (
    "SELECT T1.`gender`\n"
    "    FROM client AS T1\n"
    "    INNER JOIN district AS T2\n"
    "    ON T1.`district_id` = T2.`district_id`\n"
    "    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC\n"
    "    LIMIT 1"
)


class TestPrompt:
    def test_two_shots_contains_both_examples(self):
        request = build_decomposer_prompt("<desc>", "<fk>", "q", "e", shots=2)
        text = request.user_text
        assert "List school names of charter schools" in text
        assert "What is the gender of the youngest client" in text
        assert text.endswith("generate the SQL after thinking step by step:")

    def test_zero_shot_is_constraints_plus_item(self):
        text = build_decomposer_prompt("<desc>", "<fk>", "q", "e", shots=0).user_text
        assert "[Constraints]" in text
        assert "Question Solved." not in text
        assert "<desc>" in text and "<fk>" in text

    def test_one_shot_is_schools_example(self):
        text = build_decomposer_prompt("<desc>", "<fk>", "q", "e", shots=1).user_text
        assert "List school names of charter schools" in text
        assert "youngest client" not in text

    def test_token_monotonicity(self):
        lengths = [
            estimate_tokens(build_decomposer_prompt("d", "f", "q", "e", shots=k).user_text)
            for k in (0, 1, 2)
        ]
        assert lengths[0] < lengths[1] < lengths[2]

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            build_decomposer_prompt("d", "f", "q", "e", shots=3)

    def test_slots_filled(self):
        text = build_decomposer_prompt("DESC_BLOCK", "FK_BLOCK", "THE QUESTION",
                                       "THE EVIDENCE", shots=0).user_text
        assert "[Question]\nTHE QUESTION\n[Evidence]\nTHE EVIDENCE" in text


class TestParseDecomposition:
    def test_banking_worked_answer(self):
        result = parse_decomposition(BANKING_ANSWER)
        assert len(result.steps) == 3
        assert result.steps[0].sub_question.startswith(
            "What is the district_id of the branch")
        assert result.final_sql == FINAL_GENDER_SQL
        assert result.final_sql == result.steps[-1].sub_sql

    def test_single_fenced_block(self):
        result = parse_decomposition("```sql\nSELECT 1\n```")
        assert len(result.steps) == 1
        assert result.final_sql == "SELECT 1"

    def test_no_sql_raises(self):
        with pytest.raises(NoSqlFound):
            parse_decomposition("I am unable to answer that question.")

    def test_order_preserved(self):
        result = parse_decomposition(BANKING_ANSWER)
        positions = [BANKING_ANSWER.index(s.sub_sql) for s in result.steps]
        assert positions == sorted(positions)

    def test_sql_text_untouched(self):
        sql = "SELECT  a ,\n\tb FROM t  WHERE x = 'odd  spacing'"
        result = parse_decomposition(f"Sub question 1: things?\nSQL\n```sql\n{sql}\n```")
        assert result.steps[0].sub_sql == sql

    def test_unfenced_trailing_select_recovered(self):
        result = parse_decomposition("The final query is:\nSELECT a FROM t WHERE x = 1")
        assert result.final_sql == "SELECT a FROM t WHERE x = 1"

    def test_fence_without_language_tag(self):
        result = parse_decomposition("```\nSELECT 2\n```")
        assert result.final_sql == "SELECT 2"

    def test_crlf_fences(self):
        result = parse_decomposition("```sql\r\nSELECT 3\r\n```")
        assert result.final_sql == "SELECT 3"

    def test_more_than_five_steps_accepted_with_warning(self, caplog):
        blocks = "\n".join(f"```sql\nSELECT {i}\n```" for i in range(7))
        with caplog.at_level("WARNING"):
            result = parse_decomposition(blocks)
        assert len(result.steps) == 7
        assert result.final_sql == "SELECT 6"
        assert any("7 steps" in m for m in caplog.messages)

    def test_header_without_block_skipped(self):
        text = ("Sub question 1: no sql for this one\n"
                "Sub question 2: real\n```sql\nSELECT 9\n```")
        result = parse_decomposition(text)
        assert len(result.steps) == 1
        assert result.final_sql == "SELECT 9"


class TestExtractLastSql:
    def test_last_block_wins(self):
        text = "```sql\nSELECT 1\n```\ntext\n```sql\nSELECT 2\n```"
        assert extract_last_sql(text) == "SELECT 2"

    def test_none_when_nothing(self):
        assert extract_last_sql("nope") is None

    def test_recovers_bare_with_clause(self):
        assert extract_last_sql("WITH c AS (SELECT 1) SELECT * FROM c").startswith("WITH")

    @pytest.mark.parametrize("text, sql", [
        ("```sql\nSELECT gender FROM client\n```\n```sql\n```", "SELECT gender FROM client"),
        ("```sql\n```\nSELECT 1", "SELECT 1"),
    ])
    def test_an_empty_fence_is_skipped_as_parse_decomposition_skips_it(self, text, sql):
        assert extract_last_sql(text) == sql
        assert parse_decomposition(text).final_sql == sql
