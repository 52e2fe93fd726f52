"""Schema pruning agent: size gate, prompt, decision parsing, and enforcement rules."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional

from .backend import ChatRequest
from .prompts import SELECTOR_TEMPLATE, fill
from .schema import (
    DatabaseSchema,
    TableSchema,
    estimate_tokens,
    render_foreign_keys,
    render_table_blocks,
)

logger = logging.getLogger(__name__)

PRUNE_FRACTION = 0.8
MIN_COLUMNS_PER_TABLE = 6
MIN_TABLES = 3

KEEP_ALL = "keep_all"
DROP_ALL = "drop_all"


_DECODER = json.JSONDecoder()


class NoJsonFound(Exception):
    """The selector response contains no parseable JSON object."""


class AllTablesDropped(Exception):
    """The pruning decision would leave no tables at all."""


@dataclass
class PruningDecision:
    """Validated per-table verdicts: keep_all, drop_all, or a column list."""

    verdicts: dict[str, str | list[str]]
    warnings: list[str] = field(default_factory=list)


@dataclass
class AppliedPruning:
    """A decision after enforcement: the ``pruning`` record of a journal line."""

    verdicts: dict[str, str | list[str]]
    selection: dict[str, list[str]]
    warnings: list[str] = field(default_factory=list)


def pruned_schema(db: DatabaseSchema, selection: dict[str, list[str]]) -> DatabaseSchema:
    """The part of ``db`` that ``selection`` keeps, as a standalone schema.

    Names match case-insensitively; a foreign key survives when both of its
    endpoint columns do.
    """
    keep = {t.lower(): {c.lower() for c in cols} for t, cols in selection.items()}
    tables = []
    for t in db.tables:
        cols = keep.get(t.name.lower())
        if cols is not None:
            tables.append(TableSchema(name=t.name, columns=tuple(
                c for c in t.columns if c.name.lower() in cols)))
    foreign_keys = tuple(
        fk for fk in db.foreign_keys
        if fk.from_column.lower() in keep.get(fk.from_table.lower(), ())
        and fk.to_column.lower() in keep.get(fk.to_table.lower(), ()))
    return DatabaseSchema(db_id=db.db_id, tables=tuple(tables),
                          foreign_keys=foreign_keys, db_path=db.db_path)


def needs_pruning(rendered_schema: str, backend_context_window: int) -> bool:
    """True when the schema text takes more than ``PRUNE_FRACTION`` of the context window."""
    return estimate_tokens(rendered_schema) > PRUNE_FRACTION * backend_context_window


def build_selector_prompt(db: DatabaseSchema, question: str,
                          evidence: str = "") -> ChatRequest:
    user_text = fill(
        SELECTOR_TEMPLATE,
        db_id=db.db_id,
        desc_str=render_table_blocks(db),
        fk_str=render_foreign_keys(db),
        query=question,
        evidence=evidence,
    )
    return ChatRequest(user_text=user_text)


def _find_json_object(text: str) -> Optional[dict]:
    """The first ``{`` in ``text`` at which a whole JSON object can be decoded."""
    start = text.find("{")
    while start >= 0:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    return None


def parse_pruning_decision(response_text: str, db: DatabaseSchema) -> PruningDecision:
    """Extract and validate the JSON verdict object from a selector response.

    Unknown tables and columns are dropped with warnings; tables missing from
    the response default to keep_all.
    """
    raw = _find_json_object(response_text)
    if raw is None:
        raise NoJsonFound("selector response contains no JSON object")

    warnings: list[str] = []
    verdicts: dict[str, str | list[str]] = {}
    for key, value in raw.items():
        if not db.has_table(str(key)):
            warnings.append(f"unknown table {key!r} dropped from decision")
            continue
        table = db.table(str(key))
        if isinstance(value, str):
            verdict = value.strip().lower()
            if verdict not in (KEEP_ALL, DROP_ALL):
                warnings.append(f"unrecognized verdict {value!r} for table "
                                f"{table.name}; treating as keep_all")
                verdict = KEEP_ALL
            verdicts[table.name] = verdict
        elif isinstance(value, list):
            cols: dict[str, None] = {}  # ordered set of canonical names
            for item in value:
                if isinstance(item, str) and table.has_column(item):
                    cols[table.column(item).name] = None
                else:
                    warnings.append(f"unknown column {item!r} dropped from "
                                    f"table {table.name}")
            if cols:
                verdicts[table.name] = list(cols)
            else:
                warnings.append(f"no valid columns listed for table {table.name}; "
                                f"treating as keep_all")
                verdicts[table.name] = KEEP_ALL
        else:
            warnings.append(f"unrecognized verdict {value!r} for table "
                            f"{table.name}; treating as keep_all")
            verdicts[table.name] = KEEP_ALL

    survivors = sum(1 for t in db.tables
                    if verdicts.get(t.name, KEEP_ALL) != DROP_ALL)
    if survivors == 0 and len(db.tables) < MIN_TABLES:
        raise AllTablesDropped("decision drops every table")

    for w in warnings:
        logger.warning("%s", w)
    return PruningDecision(verdicts=verdicts, warnings=warnings)


def apply_pruning(db: DatabaseSchema, decision: PruningDecision) -> AppliedPruning:
    """Materialize a decision, enforcing the hard retention guarantees.

    Rules: kept tables always retain their primary-key columns and at least
    min(6, all) columns (padded primary keys first, then declaration order);
    when fewer than 3 tables survive on a database with 3 or more, dropped
    tables are restored in declaration order; foreign keys are filtered to
    surviving endpoints.
    """
    verdicts = {t.name: decision.verdicts.get(t.name, KEEP_ALL) for t in db.tables}
    surviving = [t for t in db.tables if verdicts[t.name] != DROP_ALL]

    if len(db.tables) >= MIN_TABLES and len(surviving) < MIN_TABLES:
        for t in db.tables:
            if t not in surviving:
                verdicts[t.name] = KEEP_ALL
                surviving.append(t)
            if len(surviving) >= MIN_TABLES:
                break
        surviving = [t for t in db.tables if verdicts[t.name] != DROP_ALL]

    if not surviving:
        raise AllTablesDropped("pruning would leave zero tables")

    selection: dict[str, list[str]] = {}
    for t in surviving:
        verdict = verdicts[t.name]
        if verdict == KEEP_ALL:
            selection[t.name] = [c.name for c in t.columns]
            continue
        kept = {c.lower() for c in verdict}
        kept.update(name.lower() for name in t.primary_key_names())
        floor = min(MIN_COLUMNS_PER_TABLE, len(t.columns))
        padding = t.primary_key_names() + [c.name for c in t.columns
                                           if not c.is_primary_key]
        for name in padding:
            if len(kept) >= floor:
                break
            kept.add(name.lower())
        selection[t.name] = [c.name for c in t.columns if c.name.lower() in kept]

    return AppliedPruning(verdicts=decision.verdicts, selection=selection,
                          warnings=decision.warnings)
