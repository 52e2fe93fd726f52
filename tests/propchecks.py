"""Hypothesis-driven property checks shared by the unit and acceptance suites."""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from text2sql.backend import ScriptedBackend
from text2sql.datasets import DatabaseRegistry, Task
from text2sql.execution import ExecStatus
from text2sql.pipeline import Pipeline, PipelineConfig
from text2sql.schema import (
    ColumnSchema,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
    render_schema_description,
)
from text2sql.selector import AllTablesDropped, PruningDecision, apply_pruning, pruned_schema

# ---------------------------------------------------------------------------
# randomized schemas (<= 12 tables, <= 20 columns each) and pruning decisions


@st.composite
def schemas(draw):
    n_tables = draw(st.integers(min_value=1, max_value=12))
    tables = []
    for t in range(n_tables):
        n_cols = draw(st.integers(min_value=1, max_value=20))
        pk_index = draw(st.integers(min_value=-1, max_value=n_cols - 1))
        columns = tuple(
            ColumnSchema(name=f"c{c}", is_primary_key=(c == pk_index))
            for c in range(n_cols)
        )
        tables.append(TableSchema(name=f"t{t}", columns=columns))
    fks = []
    n_fks = draw(st.integers(min_value=0, max_value=min(6, n_tables)))
    for _ in range(n_fks):
        src = tables[draw(st.integers(0, n_tables - 1))]
        dst = tables[draw(st.integers(0, n_tables - 1))]
        fks.append(ForeignKey(
            src.name, src.columns[draw(st.integers(0, len(src.columns) - 1))].name,
            dst.name, dst.columns[draw(st.integers(0, len(dst.columns) - 1))].name,
        ))
    return DatabaseSchema("random_db", tuple(tables), tuple(fks))


@st.composite
def schema_and_decision(draw):
    db = draw(schemas())
    verdicts = {}
    for table in db.tables:
        kind = draw(st.sampled_from(["keep_all", "drop_all", "columns", "omit"]))
        if kind == "omit":
            continue
        if kind == "columns":
            names = [c.name for c in table.columns]
            verdicts[table.name] = draw(st.lists(
                st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        else:
            verdicts[table.name] = kind
    return db, PruningDecision(verdicts=verdicts)


@settings(max_examples=200, deadline=None)
@given(schema_and_decision())
def check_pruning_enforcement(pair):
    db, decision = pair
    # the exact table rule: the survivors and, on a database of 3 or more
    # tables, the first max(0, 3 - survivors) dropped tables in declaration order
    dropped = [t.name for t in db.tables if decision.verdicts.get(t.name) == "drop_all"]
    survivors = len(db.tables) - len(dropped)
    restored = dropped[:max(0, 3 - survivors)] if len(db.tables) >= 3 else []
    kept_tables = [t.name for t in db.tables if t.name not in dropped or t.name in restored]
    try:
        pruned = apply_pruning(db, decision)
    except AllTablesDropped:
        assert not kept_tables
        return
    selection = pruned.selection
    assert list(selection) == kept_tables

    # the exact column rule: a keep_all (or restored) table keeps every column;
    # a column list keeps its columns, the primary keys, and then the first
    # remaining columns in declaration order up to min(6, n)
    for name, cols in selection.items():
        names = [c.name for c in db.table(name).columns]
        verdict = decision.verdicts.get(name, "keep_all")
        if not isinstance(verdict, list):
            assert cols == names
            continue
        kept = set(verdict) | set(db.table(name).primary_key_names())
        rest = [n for n in names if n not in kept]
        kept.update(rest[:max(0, min(6, len(names)) - len(kept))])
        assert cols == [n for n in names if n in kept]

    # foreign-key closure on the pruned schema
    kept = {t: {c.lower() for c in cols} for t, cols in selection.items()}
    for fk in pruned_schema(db, selection).foreign_keys:
        assert fk.from_column.lower() in kept[fk.from_table]
        assert fk.to_column.lower() in kept[fk.to_table]


@settings(max_examples=100, deadline=None)
@given(schema_and_decision())
def check_pruning_idempotence(pair):
    db, decision = pair
    try:
        pruned = apply_pruning(db, decision)
    except AllTablesDropped:
        return
    kept = pruned_schema(db, pruned.selection)
    again = apply_pruning(kept, PruningDecision({t: "keep_all" for t in pruned.selection}))
    assert pruned_schema(kept, again.selection) == kept


# ---------------------------------------------------------------------------
# Algorithm-1 invariants over randomized scripted scenarios

GOOD_SQL = "SELECT gender FROM client"
EMPTY_SQL = "SELECT gender FROM client WHERE gender = 'ZZ'"
BROKEN_SQL = "SELECT ghost_column FROM client"

QUESTION = "What is the gender of the youngest client?"


@st.composite
def scenarios(draw):
    return {
        "prune": draw(st.booleans()),
        "n_steps": draw(st.integers(min_value=1, max_value=5)),
        "initial_kind": draw(st.sampled_from(["good", "empty", "broken"])),
        "fix_kind": draw(st.sampled_from(["good", "same_broken", "no_sql", "backend_down"])),
        "max_rounds": draw(st.integers(min_value=1, max_value=4)),
        "drop_loan": draw(st.booleans()),
    }


def scenario_backend(scenario, context_window):
    sql_of = {"good": GOOD_SQL, "empty": EMPTY_SQL, "broken": BROKEN_SQL}
    final = sql_of[scenario["initial_kind"]]

    verdict = {"account": "keep_all", "client": "keep_all",
               "loan": "drop_all" if scenario["drop_loan"] else "keep_all",
               "district": ["district_id", "A11"]}
    selector_response = "```json\n" + json.dumps(verdict) + "\n```"

    parts = []
    for i in range(scenario["n_steps"] - 1):
        parts.append(f"Sub question {i + 1}: step {i + 1}\nSQL\n"
                     f"```sql\nSELECT client_id FROM client -- step {i + 1}\n```\n")
    parts.append(f"Sub question {scenario['n_steps']}: final\nSQL\n"
                 f"```sql\n{final}\n```\n")
    decomposer_response = "\n".join(parts)

    entries = [
        ("Discard any table schema", selector_response),
        ("decompose the question into subquestions", decomposer_response),
    ]
    if scenario["fix_kind"] == "good":
        entries.append(("fix up SQL", f"```sql\n{GOOD_SQL}\n```"))
    elif scenario["fix_kind"] == "same_broken":
        entries.append(("fix up SQL", f"```sql\n{final}\n```"))
    elif scenario["fix_kind"] == "no_sql":
        entries.append(("fix up SQL", "cannot repair this query"))
    # backend_down: no refiner entry, so every refiner request is a ScriptMiss
    return ScriptedBackend(entries, strict=True, context_window=context_window)


def check_one_scenario(scenario, registry: DatabaseRegistry):
    schema = registry.get_schema("banking_system")
    rendered = render_schema_description(schema)
    tokens = math.ceil(len(rendered.encode("utf-8")) / 4)
    if scenario["prune"]:
        context_window = max(1, int(tokens / 0.8) - 8)
    else:
        context_window = int(tokens / 0.8) + 64

    backend = scenario_backend(scenario, context_window)
    config = PipelineConfig(max_rounds=scenario["max_rounds"])
    pipe = Pipeline(backend, registry, config)
    state = pipe.run_question(Task(task_id="0", db_id="banking_system",
                                   question=QUESTION))

    # a refiner backend failure ends the loop on the last candidate it ran
    if scenario["fix_kind"] == "backend_down" and scenario["initial_kind"] != "good":
        assert state.error.startswith("refiner backend failure:"), state.error
    else:
        assert state.error is None, state.error

    # selector bypass rule: pruning appears in the trace iff the size gate fired
    assert (state.pruning is not None) == scenario["prune"]

    # stage order: selector? -> decomposer -> refiner*
    agents = [c.agent for c in state.llm_calls]
    expected_prefix = (["selector"] if scenario["prune"] else []) + ["decomposer"]
    assert agents[:len(expected_prefix)] == expected_prefix
    assert all(a == "refiner" for a in agents[len(expected_prefix):])

    # decomposer contract: the initial refine candidate is the last sub-SQL
    assert len(state.steps) == scenario["n_steps"]
    last_sub_sql = state.steps[-1].sub_sql
    assert state.refine_attempts[0].input_sql == last_sub_sql

    # termination: round cap bounds the attempt list
    assert 1 <= len(state.refine_attempts) <= scenario["max_rounds"] + 1

    # stop on success: nothing follows an OK outcome
    for attempt in state.refine_attempts[:-1]:
        assert attempt.outcome.status is not ExecStatus.OK
        assert attempt.corrected_sql is not None
    if state.refine_attempts[-1].outcome.status is ExecStatus.OK:
        assert state.refine_attempts[-1].corrected_sql is None

    # non-interference: an immediately-OK candidate is returned untouched
    if scenario["initial_kind"] == "good":
        assert len(state.refine_attempts) == 1
        assert state.final_sql == last_sub_sql

    # the returned SQL is the last candidate the loop produced, with its outcome
    assert state.final_sql == state.refine_attempts[-1].input_sql
    assert state.outcome.status is state.refine_attempts[-1].outcome.status


def make_invariant_check(registry: DatabaseRegistry, max_examples: int = 200):
    @settings(max_examples=max_examples, deadline=None)
    @given(scenario=scenarios())
    def check(scenario):
        check_one_scenario(scenario, registry)
    return check
