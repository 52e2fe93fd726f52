from __future__ import annotations

import json

import pytest

from text2sql.schema import ColumnSchema, DatabaseSchema, TableSchema, render_schema_description
from text2sql.selector import (
    AllTablesDropped,
    NoJsonFound,
    apply_pruning,
    build_selector_prompt,
    needs_pruning,
    parse_pruning_decision,
    pruned_schema,
    PruningDecision,
)

CANNED_PRUNING_ANSWER = """```json
{
    "account": "keep_all",
    "client": "keep_all",
    "loan": "drop_all",
    "district": ["district_id", "A11", "A2", "A4", "A6", "A7"]
}
```
Question Solved."""


def tiny_schema(n_tables=2):
    tables = tuple(
        TableSchema(f"t{i}", (ColumnSchema("id", "INTEGER", is_primary_key=True),
                              ColumnSchema("v", "TEXT")))
        for i in range(n_tables)
    )
    return DatabaseSchema("tiny", tables, ())


class TestNeedsPruning:
    def test_threshold_rule(self):
        window = 32768
        # threshold is 0.8 * window = 26214.4 tokens; one token per 4 bytes
        big = "x" * (26215 * 4)
        small = "x" * (26214 * 4)
        assert needs_pruning(big, window) is True
        assert needs_pruning(small, window) is False

    def test_empty_schema_text(self):
        assert needs_pruning("", 32768) is False

    def test_banking_fixture_below_default_window(self, banking_schema):
        text = render_schema_description(banking_schema)
        assert needs_pruning(text, 32768) is False
        # a small window forces the selector on
        assert needs_pruning(text, 256) is True


class TestSelectorPrompt:
    def test_contains_instructions_and_one_shot(self, banking_schema):
        request = build_selector_prompt(banking_schema, "What is the gender?",
                                        "A11 refers to average salary")
        text = request.user_text
        assert "Ensure that at least 3 tables are included in the final output JSON" in text
        assert '[DB_ID] banking_system' in text
        assert '"district": ["district_id", "A11", "A2", "A4", "A6", "A7"]' in text
        assert text.endswith("[Answer]")

    def test_empty_evidence_section_present(self, banking_schema):
        request = build_selector_prompt(banking_schema, "q", "")
        assert "[Evidence]\n\n[Answer]" in request.user_text

    def test_snapshot_stable(self, banking_schema):
        first = build_selector_prompt(banking_schema, "q", "e").user_text
        second = build_selector_prompt(banking_schema, "q", "e").user_text
        assert first == second


class TestParsePruningDecision:
    def test_canned_pruning_answer(self, banking_schema):
        decision = parse_pruning_decision(CANNED_PRUNING_ANSWER, banking_schema)
        assert decision.verdicts == {
            "account": "keep_all",
            "client": "keep_all",
            "loan": "drop_all",
            "district": ["district_id", "A11", "A2", "A4", "A6", "A7"],
        }

    def test_prose_and_fences_ignored(self, banking_schema):
        wrapped = "Sure! Here is the answer you asked for:\n" + CANNED_PRUNING_ANSWER + "\nHope it helps."
        bare = json.dumps({"account": "keep_all", "client": "drop_all",
                           "loan": "drop_all", "district": "keep_all"})
        assert parse_pruning_decision(wrapped, banking_schema).verdicts["loan"] == "drop_all"
        assert parse_pruning_decision(bare, banking_schema).verdicts["client"] == "drop_all"

    def test_unknown_column_dropped_with_warning(self, banking_schema):
        response = json.dumps({"district": ["district_id", "A99"]})
        decision = parse_pruning_decision(response, banking_schema)
        assert decision.verdicts["district"] == ["district_id"]
        assert any("A99" in w for w in decision.warnings)

    def test_unknown_table_dropped(self, banking_schema):
        decision = parse_pruning_decision(json.dumps({"ghost": "keep_all"}), banking_schema)
        assert "ghost" not in decision.verdicts
        assert decision.warnings

    def test_no_json(self, banking_schema):
        with pytest.raises(NoJsonFound):
            parse_pruning_decision("no structured answer here", banking_schema)

    def test_column_list_case_insensitive(self, banking_schema):
        decision = parse_pruning_decision(json.dumps({"district": ["DISTRICT_ID", "a11"]}),
                                          banking_schema)
        assert decision.verdicts["district"] == ["district_id", "A11"]


class TestApplyPruning:
    def test_canned_pruning_decision(self, banking_schema):
        decision = parse_pruning_decision(CANNED_PRUNING_ANSWER, banking_schema)
        pruned = apply_pruning(banking_schema, decision)
        assert set(pruned.selection) == {"account", "client", "district"}
        assert pruned.selection["district"] == ["district_id", "A2", "A4", "A6", "A7", "A11"]
        assert len(pruned.selection["account"]) == 4
        fk_pairs = {(fk.from_table, fk.to_table)
                    for fk in pruned_schema(banking_schema, pruned.selection).foreign_keys}
        assert fk_pairs == {("account", "district"), ("client", "district")}

    def test_keep_all_identity(self, banking_schema):
        decision = PruningDecision({t.name: "keep_all" for t in banking_schema.tables})
        pruned = apply_pruning(banking_schema, decision)
        assert pruned_schema(banking_schema, pruned.selection) == banking_schema

    def test_padding_to_six_columns(self, banking_schema):
        # district has 13 columns; listing 2 must pad to 6.
        # hand replay of the rule: explicit {A11, A13} + pk district_id,
        # then pads A2, A4, A5 in declaration order.
        decision = PruningDecision({"account": "drop_all", "loan": "drop_all",
                                    "district": ["A11", "A13"]})
        pruned = apply_pruning(banking_schema, decision)
        assert pruned.selection["district"] == ["district_id", "A2", "A4", "A5", "A11", "A13"]

    def test_primary_key_always_retained(self, banking_schema):
        decision = PruningDecision({"district": ["A2", "A4", "A5", "A6", "A7", "A8", "A9"]})
        pruned = apply_pruning(banking_schema, decision)
        assert "district_id" in pruned.selection["district"]

    def test_three_table_restoration(self, banking_schema):
        decision = PruningDecision({t.name: "drop_all" for t in banking_schema.tables})
        pruned = apply_pruning(banking_schema, decision)
        assert list(pruned.selection) == ["account", "client", "loan"]

    def test_small_db_all_dropped_raises(self):
        schema = tiny_schema(2)
        decision = PruningDecision({"t0": "drop_all", "t1": "drop_all"})
        with pytest.raises(AllTablesDropped):
            apply_pruning(schema, decision)

    def test_small_db_keeps_what_survives(self):
        schema = tiny_schema(2)
        decision = PruningDecision({"t0": "drop_all"})
        pruned = apply_pruning(schema, decision)
        assert list(pruned.selection) == ["t1"]

    def test_containment(self, banking_schema):
        decision = PruningDecision({"account": ["frequency"], "loan": "drop_all"})
        pruned = apply_pruning(banking_schema, decision)
        for table, cols in pruned.selection.items():
            assert banking_schema.has_table(table)
            for col in cols:
                assert banking_schema.has_column(table, col)

    def test_idempotent_on_pruned_schema(self, banking_schema):
        first = apply_pruning(banking_schema,
                              PruningDecision({"loan": "drop_all",
                                               "district": ["A11", "A2"]}))
        kept = pruned_schema(banking_schema, first.selection)
        again = apply_pruning(kept, PruningDecision({t: "keep_all" for t in first.selection}))
        assert pruned_schema(kept, again.selection) == kept
