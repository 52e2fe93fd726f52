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
    return DatabaseSchema(db_id=db.db_id, tables=tuple(tables), foreign_keys=foreign_keys)


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
    """Resolve the JSON verdict object of a selector response against ``db``.

    This half owns name resolution only: names take their canonical spelling,
    unknown tables and columns are dropped with warnings, and a verdict other
    than keep_all, drop_all or a list naming a known column becomes keep_all.
    """
    raw = _find_json_object(response_text)
    if raw is None:
        raise NoJsonFound("selector response contains no JSON object")

    warnings: list[str] = []
    verdicts: dict[str, str | list[str]] = {}
    for key, value in raw.items():
        if not db.has_table(key):
            warnings.append(f"unknown table {key!r} dropped from decision")
            continue
        table = db.table(key)
        if isinstance(value, list):
            cols: dict[str, None] = {}  # ordered set of canonical names
            for item in value:
                if isinstance(item, str) and table.has_column(item):
                    cols[table.column(item).name] = None
                else:
                    warnings.append(f"unknown column {item!r} dropped from "
                                    f"table {table.name}")
            if cols:
                verdicts[table.name] = list(cols)
                continue
            warnings.append(f"no valid columns listed for table {table.name}; "
                            f"treating as keep_all")
            verdict = KEEP_ALL
        else:
            verdict = value.strip().lower() if isinstance(value, str) else value
            if verdict not in (KEEP_ALL, DROP_ALL):
                warnings.append(f"unrecognized verdict {value!r} for table "
                                f"{table.name}; treating as keep_all")
                verdict = KEEP_ALL
        verdicts[table.name] = verdict

    for w in warnings:
        logger.warning("%s", w)
    return PruningDecision(verdicts=verdicts, warnings=warnings)


def apply_pruning(db: DatabaseSchema, decision: PruningDecision) -> AppliedPruning:
    """Materialize a decision in one pass; this half owns every retention rule.

    An omitted table is keep_all. On a database with at least ``MIN_TABLES``
    tables, the first ``MIN_TABLES`` minus the survivors of the dropped tables
    are restored in declaration order. A column list keeps its columns and the
    primary keys, padded in declaration order up to min(6, all) columns. This
    is the one source of ``AllTablesDropped``: no table is kept.
    """
    verdicts = [(t, decision.verdicts.get(t.name, KEEP_ALL)) for t in db.tables]
    restore = (MIN_TABLES - sum(verdict != DROP_ALL for _, verdict in verdicts)
               if len(db.tables) >= MIN_TABLES else 0)

    selection: dict[str, list[str]] = {}
    for t, verdict in verdicts:
        if verdict == DROP_ALL:
            if restore <= 0:
                continue
            restore, verdict = restore - 1, KEEP_ALL
        if verdict == KEEP_ALL:
            selection[t.name] = [c.name for c in t.columns]
            continue
        kept = {c.lower() for c in verdict}
        kept.update(c.name.lower() for c in t.columns if c.is_primary_key)
        for c in t.columns:
            if len(kept) >= min(MIN_COLUMNS_PER_TABLE, len(t.columns)):
                break
            kept.add(c.name.lower())
        selection[t.name] = [c.name for c in t.columns if c.name.lower() in kept]

    if not selection:
        raise AllTablesDropped("pruning would leave zero tables")
    return AppliedPruning(verdicts=decision.verdicts, selection=selection,
                          warnings=decision.warnings)
