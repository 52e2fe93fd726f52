from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from text2sql.codec import decoder, encode
from text2sql.datasets import Task, _CacheHeader, _CachedSchema
from text2sql.decomposer import DecompositionStep
from text2sql.evaluation import ExVerdict
from text2sql.execution import ExecStatus, OutcomeSummary
from text2sql.pipeline import Journal, LlmCall, PipelineState
from text2sql.refiner import RefineAttempt
from text2sql.schema import (
    MAX_LITERAL_LEN,
    ColumnSchema,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from text2sql.selector import AppliedPruning


def written(obj) -> dict:
    return json.loads(json.dumps(obj, default=encode))


SCHEMA = DatabaseSchema("shop", (
    TableSchema("customer", (ColumnSchema("id", "the key", ("1", "2"), True),
                             ColumnSchema("name", value_examples=("'Ann'",)))),
    TableSchema("orders", (ColumnSchema("id", is_primary_key=True), ColumnSchema("customer_id"))),
), (ForeignKey("orders", "customer_id", "customer", "id"),))
CACHED = {"header": {"format": 3, "db_stamp": [1, 2, 3], "descriptions_sha256": "ab",
                     "sample_k": 5, "max_literal_len": 50},
          "schema": written(SCHEMA)}
STATE = written(PipelineState(
    task=Task("7", "shop", "How many?", gold_sql="SELECT 1"),
    final_sql="SELECT 1",
    pruning=AppliedPruning({"customer": "keep_all", "orders": ["id"]},
                           {"customer": ["id", "name"], "orders": ["id"]}),
    steps=[DecompositionStep("q", "SELECT 1")],
    refine_attempts=[RefineAttempt(1, "SELECT 1", OutcomeSummary(
        ExecStatus.OK, 1, ((1, "a"),), elapsed=0.5))],
    llm_calls=[LlmCall("decomposer", "p", "", "r", 10, 2, 0.25)],
    ex_verdict=ExVerdict(True, (1, 2, 3)),
))
CALL = written(LlmCall("decomposer", "p", "", "r", 10, 2, 0.25))


@dataclasses.dataclass
class _Tuples:
    triple: tuple[int, int, int] = (0, 0, 0)
    pair: tuple[int, str] = (0, "")
    many: tuple[int, ...] = ()


def replaced(value: dict, path: tuple, new) -> dict:
    """A copy of ``value`` with the item at ``path`` set to ``new``, or deleted for MISSING."""
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if new is dataclasses.MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value


# (type, the written value, the path to the value replaced, its replacement, the
# error, the words the message must hold: the keys from the top down)
REFUSED = [
    # a bool for an int or a float
    (LlmCall, CALL, ("prompt_tokens",), True, TypeError, "prompt_tokens: expected <class 'int'>"),
    (LlmCall, CALL, ("latency",), False, TypeError,
     "latency: expected (<class 'int'>, <class 'float'>)"),
    (_CachedSchema, CACHED, ("header", "sample_k"), True, TypeError, "header: sample_k: expected"),
    (_CachedSchema, CACHED, ("header", "db_stamp", 1), False, TypeError, "header: db_stamp:"),
    (PipelineState, STATE, ("llm_calls", 0, "latency"), True, TypeError,
     "llm_calls: latency: expected"),
    (PipelineState, STATE, ("refine_attempts", 0, "outcome", "row_count"), True, TypeError,
     "refine_attempts: outcome: row_count:"),
    (PipelineState, STATE, ("elapsed",), "1", TypeError, "elapsed: expected"),
    # an int for a bool
    (_CachedSchema, CACHED, ("schema", "tables", 0, "columns", 0, "is_primary_key"), 1,
     TypeError, "schema: tables: columns: is_primary_key: expected <class 'bool'>, got 1"),
    (PipelineState, STATE, ("ex_verdict", "ex"), 0, TypeError, "ex_verdict: ex: expected"),
    # a wrong container kind
    (_CachedSchema, CACHED, ("schema", "tables"), {}, TypeError,
     "schema: tables: expected <class 'list'>"),
    (_CachedSchema, CACHED, ("schema", "tables", 0, "columns", 1, "value_examples"), "'Ann'",
     TypeError, "schema: tables: columns: value_examples: expected <class 'list'>"),
    (_CachedSchema, CACHED, ("schema",), [], TypeError, "schema: expected <class 'dict'>"),
    (PipelineState, STATE, ("pruning", "verdicts"), [], TypeError, "pruning: verdicts: expected"),
    (PipelineState, STATE, ("pruning", "selection", "orders"), "id", TypeError,
     "pruning: selection: expected <class 'list'>"),
    (PipelineState, STATE, ("refine_attempts", 0, "outcome", "rows_preview"), [{"a": 1}],
     TypeError, "refine_attempts: outcome: rows_preview: expected <class 'list'>"),
    (PipelineState, STATE, ("steps",), {"q": "SELECT 1"}, TypeError, "steps: expected"),
    (PipelineState, STATE, (), [STATE], TypeError, "expected <class 'dict'>"),
    # a union keeps its order and refuses what fits none of its types
    (PipelineState, STATE, ("pruning", "verdicts", "orders"), ["id", 1], TypeError,
     "pruning: verdicts: expected str | list[str], got ['id', 1]"),
    (PipelineState, STATE, ("task", "gold_sql"), 1, TypeError, "task: gold_sql: expected"),
    # a bad enum value
    (PipelineState, STATE, ("refine_attempts", 0, "outcome", "status"), "FINE", ValueError,
     "refine_attempts: outcome: status: 'FINE' is not a valid ExecStatus"),
    (PipelineState, STATE, ("refine_attempts", 0, "outcome", "status"), ["OK"], ValueError,
     "refine_attempts: outcome: status:"),
    # a missing key with no default
    (PipelineState, STATE, ("task",), {"task_id": "7", "question": "q"}, TypeError,
     "task: db_id: missing"),
    # a constructor's own check, named by the key of the record it guards
    (_CachedSchema, CACHED, ("schema", "tables", 1, "name"), "customer", ValueError,
     "schema: duplicate table names"),
    (_CachedSchema, CACHED, ("schema", "tables", 0, "columns", 0, "value_examples"),
     ["x" * (MAX_LITERAL_LEN + 1)], ValueError, "schema: tables: columns: value example longer"),
    (_CachedSchema, CACHED, ("schema", "foreign_keys", 0, "to_column"), "ghost", ValueError,
     "schema: foreign key endpoint customer.ghost does not exist"),
    (PipelineState, STATE, ("task", "question"), "", ValueError, "task: task db_id and question"),
    # a fixed-length tuple: its length and one type per position
    (ExVerdict, {"ex": True, "db_stamp": [1, 2, 3]}, ("db_stamp",), [1, 2], TypeError,
     "db_stamp: expected 3 items, got [1, 2]"),
    (_Tuples, {"pair": [1, "a"]}, ("pair", 1), 2, TypeError, "pair: expected <class 'str'>, got 2"),
    (ExVerdict, {"ex": True, "db_stamp": [1, 2, 3]}, ("db_stamp",), [1], TypeError,
     "db_stamp: expected 3 items, got [1]"),
    (PipelineState, STATE, ("ex_verdict", "db_stamp"), [1, 2, 3, 4], TypeError,
     "ex_verdict: db_stamp: expected 3 items"),
    (_CachedSchema, CACHED, ("header", "db_stamp"), [1, 2, 3, 4], TypeError,
     "header: db_stamp: expected 3 items"),
]


@pytest.mark.parametrize("tp, value, path, new, error, message", REFUSED,
                         ids=[f"{r[0].__name__}-{'.'.join(map(str, r[2]))}"
                              f"-{r[3]!r:.20}" for r in REFUSED])
def test_refused_at_every_depth(tp, value, path, new, error, message):
    read = decoder(tp)
    read(value)  # the value before the change decodes
    with pytest.raises(error) as refused:
        read(replaced(value, path, new) if path else new)
    assert message in str(refused.value)


def test_decoder_refuses_a_bool_for_a_number():
    read = decoder(LlmCall)
    for key in ("prompt_tokens", "latency"):
        with pytest.raises(TypeError, match=f"^{key}: "):
            read(replaced(CALL, (key,), True))
    assert read(replaced(CALL, ("latency",), 1)).latency == 1
    assert decoder(ExVerdict)({"ex": False, "db_stamp": [1, 2, 3]}).ex is False


def test_decoder_takes_dataclasses_only():
    for tp in (int, tuple[int, str], Optional[Task], list[Task]):
        with pytest.raises(TypeError, match="not a dataclass"):
            decoder(tp)

    @dataclasses.dataclass
    class Spanned:  # json.loads builds no class outside JSON's
        when: range

    with pytest.raises(TypeError, match="no decoder for <class 'range'>"):
        decoder(Spanned)


class TestFixedLengthTuple:
    def test_length_and_positions_are_checked(self):
        read = decoder(_Tuples)
        assert read({"triple": [1, 2, 3]}).triple == (1, 2, 3)
        assert read({"pair": [1, "a"]}).pair == (1, "a")
        for value in ([1, 2], [1, 2, 3, 4], []):
            with pytest.raises(TypeError, match="^triple: expected 3 items"):
                read({"triple": value})
        with pytest.raises(TypeError, match="^pair: "):
            read({"pair": ["a", 1]})

    def test_an_ellipsis_stays_homogeneous(self):
        read = decoder(_Tuples)
        assert read({"many": [1, 2, 3, 4, 5]}).many == (1, 2, 3, 4, 5)
        assert read({"many": []}).many == ()
        with pytest.raises(TypeError, match="^many: "):
            read({"many": [1, "a"]})

    def test_journal_load_skips_a_line_whose_stamp_has_the_wrong_length(self, tmp_path):
        lines = [STATE, replaced(replaced(STATE, ("task", "task_id"), "8"),
                                 ("ex_verdict", "db_stamp"), [1, 2])]
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
        assert list(Journal(str(path)).load()) == ["7"]


class TestKeys:
    def test_unknown_keys_are_ignored_at_every_depth(self):
        value = replaced(CACHED, ("schema", "tables", 0, "columns", 0, "declared_type"), "INT")
        value = replaced(value, ("schema", "db_path"), "/gone.sqlite")
        value["written_by"] = "a newer version"
        assert decoder(_CachedSchema)(value) == decoder(_CachedSchema)(CACHED)

    def test_a_missing_key_takes_its_default(self):
        column = decoder(ColumnSchema)({"name": "id"})
        assert column == ColumnSchema("id", "", (), False)
        state = decoder(PipelineState)({"task": STATE["task"]})
        assert state == PipelineState(task=decoder(Task)(STATE["task"]))
        # a default factory gives each record its own list
        assert state.steps is not decoder(PipelineState)({"task": STATE["task"]}).steps


@dataclasses.dataclass
class _Cached:
    kept: int
    cache: Optional[list] = dataclasses.field(default=None, init=False)


def test_a_field_outside_init_is_neither_written_nor_read():
    record = _Cached(1)
    record.cache = [2]
    assert json.loads(json.dumps(record, default=encode)) == {"kept": 1}
    read = decoder(_Cached)({"kept": 1, "cache": [3]})
    assert (read.kept, read.cache) == (1, None)


# ---------------------------------------------------------------------------
# round trips of generated values through json.dumps(default=encode) and decoder

names = st.text(min_size=1, max_size=8)
texts = st.text(max_size=20)
floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def database_schemas(draw):
    tables = []
    for table in draw(st.lists(names, min_size=1, max_size=5, unique=True)):
        columns = tuple(
            ColumnSchema(column, draw(texts),
                         tuple(draw(st.lists(st.text(max_size=MAX_LITERAL_LEN), max_size=4,
                                             unique=True))),
                         draw(st.booleans()))
            for column in draw(st.lists(names, min_size=1, max_size=6, unique=True)))
        tables.append(TableSchema(table, columns))
    ends = st.sampled_from([(t.name, c.name) for t in tables for c in t.columns])
    fks = tuple(ForeignKey(*draw(ends), *draw(ends)) for _ in range(draw(st.integers(0, 3))))
    return DatabaseSchema(draw(names), tuple(tables), fks)


cells = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
outcomes = st.builds(
    OutcomeSummary, st.sampled_from(ExecStatus), st.none() | st.integers(0, 10**6),
    st.none() | st.lists(st.lists(cells, max_size=3).map(tuple), max_size=3).map(tuple),
    texts, texts, floats)
pipeline_states = st.builds(
    PipelineState,
    task=st.builds(Task, texts, names, names, texts, st.none() | texts, texts),
    final_sql=texts,
    pruning=st.none() | st.builds(
        AppliedPruning,
        st.dictionaries(names, st.sampled_from(["keep_all", "drop_all"]) | st.lists(names)),
        st.dictionaries(names, st.lists(names)), st.lists(texts)),
    steps=st.lists(st.builds(DecompositionStep, texts, texts), max_size=3),
    refine_attempts=st.lists(st.builds(RefineAttempt, st.integers(1, 5), texts, outcomes,
                                       st.none() | texts), max_size=3),
    llm_calls=st.lists(st.builds(LlmCall, names, texts, texts, texts, st.integers(0),
                                 st.integers(0), floats), max_size=3),
    error=st.none() | texts,
    elapsed=floats,
    ex_verdict=st.none() | st.builds(ExVerdict, st.booleans(),
                                     st.tuples(st.integers(), st.integers(), st.integers())),
)


@settings(max_examples=100, deadline=None)
@given(database_schemas())
def test_a_database_schema_round_trips(schema):
    text = json.dumps(schema, default=encode)
    assert decoder(DatabaseSchema)(json.loads(text)) == schema


@settings(max_examples=100, deadline=None)
@given(pipeline_states)
def test_a_pipeline_state_round_trips(state):
    text = json.dumps(state, default=encode, sort_keys=True)
    revived = decoder(PipelineState)(json.loads(text))
    assert revived == state
    assert json.dumps(revived, default=encode, sort_keys=True) == text


# ---------------------------------------------------------------------------
# one refusal in a generated value is named by the record keys down to it

JSON_VALUES = (None, True, 1, 1.5, "x", [], {})
# a one-field change the record's own constructor refuses, and the refusal; it is
# named by the keys down to that record, never by the key of the field changed
LONG_EXAMPLE = "x" * (MAX_LITERAL_LEN + 1)
CONSTRUCTOR_CHECKS = {
    Task: ("question", "", "task db_id and question must be nonempty"),
    ColumnSchema: ("value_examples", [LONG_EXAMPLE],
                   f"value example longer than {MAX_LITERAL_LEN} chars: {LONG_EXAMPLE!r}"),
}


def _records(tp, value, path: tuple):
    """(type, path, value) of each record that a field of type ``tp`` holds."""
    if value is None:
        return
    if dataclasses.is_dataclass(tp):
        yield tp, path, value
        return
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # an Optional record, as no union holds two
        for option in filter(dataclasses.is_dataclass, args):
            yield from _records(option, value, path)
    elif origin in (list, tuple) and args:
        for i, item in enumerate(value):
            yield from _records(args[0], item, path + (i,))


def _sites(tp, value: dict, path=(), keys=()):
    """(path to change, replacement, the message) of each one-value change ``tp`` refuses.

    The message is given whole for a missing key or a constructor's check, and
    as its start (up to ``expected``) for a value of another JSON type.
    """
    if tp in CONSTRUCTOR_CHECKS:
        name, new, text = CONSTRUCTOR_CHECKS[tp]
        yield path + (name,), new, ": ".join(keys + (text,))
    hints = typing.get_type_hints(tp)
    for f in dataclasses.fields(tp):
        if not f.init:
            continue
        at, named = path + (f.name,), keys + (f.name,)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            yield at, dataclasses.MISSING, ": ".join(named + ("missing",))
        kind = hints[f.name]
        if kind in (str, int, float, bool):
            for new in JSON_VALUES:
                if not (new.__class__ is kind or (kind is float and new.__class__ is int)):
                    yield at, new, ": ".join(named + ("expected",))
        for sub_tp, sub_path, sub in _records(kind, value.get(f.name), at):
            yield from _sites(sub_tp, sub, sub_path, named)


cached_schemas = st.builds(
    _CachedSchema,
    st.builds(_CacheHeader, st.integers(),
              st.tuples(st.integers(), st.integers(), st.integers()), texts,
              st.integers(), st.integers()),
    database_schemas())


@settings(max_examples=50, deadline=None)
@given(st.one_of(pipeline_states, cached_schemas))
def test_a_refusal_is_named_by_the_keys_down_to_it(record):
    tp, value = type(record), written(record)
    for path, new, message in _sites(tp, value):
        with pytest.raises((TypeError, ValueError)) as refused:
            decoder(tp)(replaced(value, path, new))
        if message.endswith(": expected"):
            assert str(refused.value).startswith(message + " ")
        else:
            assert str(refused.value) == message
