"""SQLite schema introspection, cell-value sampling, and prompt-ready schema text."""

from __future__ import annotations

import csv
import functools
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .execution import execute_sql

logger = logging.getLogger(__name__)

MAX_LITERAL_LEN = 50
DEFAULT_SAMPLE_K = 5
DESCRIPTION_DIR = "database_description"


class UnreadableDatabase(Exception):
    """Database file is missing, corrupt, not a SQLite database, or too slow to read."""


class UnknownColumn(Exception):
    """Requested table or column does not exist in the schema."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    description: str = ""
    value_examples: tuple[str, ...] = ()
    is_primary_key: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("column name must be nonempty")
        if len(set(self.value_examples)) != len(self.value_examples):
            raise ValueError(f"duplicate value examples for column {self.name!r}")
        for lit in self.value_examples:
            if len(lit) > MAX_LITERAL_LEN:
                raise ValueError(f"value example longer than {MAX_LITERAL_LEN} chars: {lit!r}")


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name!r}")

    @functools.cached_property
    def _by_lower(self) -> dict[str, ColumnSchema]:
        # reversed, so the first of two names equal but for case wins
        return {c.name.lower(): c for c in reversed(self.columns)}

    def column(self, name: str) -> ColumnSchema:
        try:
            return self._by_lower[name.lower()]
        except KeyError:
            raise UnknownColumn(f"{self.name}.{name}") from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_lower

    def primary_key_names(self) -> list[str]:
        return [c.name for c in self.columns if c.is_primary_key]


@dataclass(frozen=True)
class ForeignKey:
    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple[TableSchema, ...]
    foreign_keys: tuple[ForeignKey, ...]

    def __post_init__(self):
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in database {self.db_id!r}")
        for fk in self.foreign_keys:
            for tbl, col in ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column)):
                if not self.has_column(tbl, col):
                    raise ValueError(f"foreign key endpoint {tbl}.{col} does not exist")

    @functools.cached_property
    def _by_lower(self) -> dict[str, TableSchema]:
        return {t.name.lower(): t for t in reversed(self.tables)}

    def table(self, name: str) -> TableSchema:
        try:
            return self._by_lower[name.lower()]
        except KeyError:
            raise UnknownColumn(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._by_lower

    def has_column(self, table: str, column: str) -> bool:
        t = self._by_lower.get(table.lower())
        return t is not None and t.has_column(column)

    # The prompt text of this schema, rendered on first use: the schema is
    # immutable, and every question on a database shares its full schema.
    @functools.cached_property
    def _table_blocks(self) -> str:
        return "\n".join(map(_table_block, self.tables))

    @functools.cached_property
    def _foreign_key_lines(self) -> str:
        return "\n".join(f"{fk.from_table}.`{fk.from_column}` = {fk.to_table}.`{fk.to_column}`"
                         for fk in self.foreign_keys)


def _is_numeric_affine(declared_type: str) -> bool:
    """True when SQLite gives the declared type INTEGER, REAL or NUMERIC affinity."""
    t = (declared_type or "").upper()
    if "INT" in t:
        return True
    return bool(t) and not any(mark in t for mark in ("CHAR", "CLOB", "TEXT", "BLOB"))


def render_literal(value) -> str:
    """One cell value as prompt text, truncated to the literal length cap."""
    if isinstance(value, str):
        rendered = repr(value)
    elif isinstance(value, float) and math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        rendered = f"{value:.1f}"
    else:
        rendered = str(value)
    return rendered[:MAX_LITERAL_LEN]


def _looks_like_url(s: str) -> bool:
    return "://" in s

def _looks_like_email(s: str) -> bool:
    at = s.find("@")
    return at > 0 and "." in s[at + 1 :]


def _sample_values(db_path: str, table: str, column: str,
                   declared_type: str) -> list[str]:
    """The ``DEFAULT_SAMPLE_K`` most frequent distinct non-null values, as literals.

    Returns [] for columns the prompt should not show cell values for:
    numeric-affine declared types, value sets dominated by URLs/emails, or
    values longer than the literal cap.
    """
    if _is_numeric_affine(declared_type):
        return []
    groups = _rows(db_path,
                   f'SELECT "{_q(column)}", COUNT(*) AS n FROM "{_q(table)}" '
                   f'WHERE "{_q(column)}" IS NOT NULL '
                   f'GROUP BY "{_q(column)}" ORDER BY n DESC LIMIT 256')
    if not groups:
        return []
    raw_strings = [v for v, _ in groups if isinstance(v, str)]
    if raw_strings:
        odd = sum(1 for s in raw_strings if _looks_like_url(s) or _looks_like_email(s))
        if odd * 2 > len(raw_strings):
            return []
        if max(len(s) for s in raw_strings) > MAX_LITERAL_LEN:
            return []
    ranked = sorted(groups, key=lambda g: (-g[1], render_literal(g[0])))
    out: list[str] = []
    for value, _count in ranked:
        lit = render_literal(value)
        if lit not in out:
            out.append(lit)
        if len(out) >= DEFAULT_SAMPLE_K:
            break
    return out


def _q(identifier: str) -> str:
    return identifier.replace('"', '""')


def _rows(db_path: str, sql: str) -> tuple:
    """The rows of one introspection query, run by ``execute_sql`` under its deadline."""
    outcome = execute_sql(db_path, sql)
    if outcome.rows is None:
        raise UnreadableDatabase(f"cannot read {db_path}: {outcome.status.value}: "
                                 f"{outcome.error_message}")
    return outcome.rows


def description_files(db_dir: Path) -> list[os.DirEntry]:
    """``<db_dir>/database_description/*.csv`` by name; none without the directory."""
    try:
        with os.scandir(db_dir / DESCRIPTION_DIR) as entries:
            return sorted((e for e in entries if e.name.endswith(".csv")), key=lambda e: e.name)
    except OSError:
        return []


def load_column_descriptions(db_dir: Path) -> dict[str, dict[str, str]]:
    """Per-table column descriptions from a database's description CSV files.

    Each ``<table>.csv`` carries at least the original column name, a friendly
    name, and a description; the first nonempty of description/friendly name is
    used. Files are read as UTF-8, a leading byte-order mark dropped, with lossy
    replacement since benchmark CSVs contain stray bytes.
    """
    out: dict[str, dict[str, str]] = {}
    for entry in description_files(db_dir):
        table = Path(entry.name).stem
        columns: dict[str, str] = {}
        with open(entry.path, encoding="utf-8-sig", errors="replace", newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                row = { (k or "").strip().lower(): (v or "").strip()
                        for k, v in row.items() }
                original = row.get("original_column_name", "")
                if not original:
                    continue
                description = (row.get("column_description", "")
                               or row.get("column_name", ""))
                if description:
                    columns[original] = description
        if columns:
            out[table] = columns
    return out


def introspect(db_path: str) -> DatabaseSchema:
    """Read tables, columns, keys, and sample values from a SQLite benchmark database.

    Column descriptions come from the ``database_description/`` CSVs beside the
    file; they are matched case-insensitively and unmatched entries are dropped
    with a warning. Each query runs through ``execute_sql``, so each has its
    ``DEFAULT_TIMEOUT``; a missing, corrupt or too slow file raises
    ``UnreadableDatabase``.
    """
    desc_lookup = {(table.lower(), col.lower()): text
                   for table, cols in load_column_descriptions(Path(db_path).parent).items()
                   for col, text in cols.items()}
    matched: set[tuple[str, str]] = set()
    tables = []
    for (tname,) in _rows(db_path, "SELECT name FROM sqlite_master "
                                   "WHERE type='table' AND name NOT LIKE 'sqlite_%'"):
        cols = []
        for _cid, cname, ctype, _notnull, _dflt, pk in _rows(
                db_path, f'PRAGMA table_info("{_q(tname)}")'):
            key = (tname.lower(), cname.lower())
            desc = desc_lookup.get(key, "")
            if key in desc_lookup:
                matched.add(key)
            cols.append(ColumnSchema(
                name=cname,
                description=desc,
                value_examples=tuple(_sample_values(db_path, tname, cname, ctype or "")),
                is_primary_key=pk > 0,
            ))
        tables.append(TableSchema(name=tname, columns=tuple(cols)))

    by_name = {t.name.lower(): t for t in tables}
    fks = []
    for t in tables:
        for row in _rows(db_path, f'PRAGMA foreign_key_list("{_q(t.name)}")'):
            ref_table, from_col, to_col = row[2:5]
            ref = by_name.get((ref_table or "").lower())
            if ref is None or not t.has_column(from_col):
                logger.warning("dropping unresolvable foreign key %s.%s -> %s.%s",
                               t.name, from_col, ref_table, to_col)
                continue
            if to_col is None:
                pk_names = ref.primary_key_names()
                if not pk_names:
                    logger.warning("dropping foreign key with no target column: %s.%s -> %s",
                                   t.name, from_col, ref_table)
                    continue
                to_col = pk_names[0]
            if not ref.has_column(to_col):
                logger.warning("dropping foreign key to missing column %s.%s", ref_table, to_col)
                continue
            fks.append(ForeignKey(t.name, t.column(from_col).name,
                                  ref.name, ref.column(to_col).name))

    for key in set(desc_lookup) - matched:
        logger.warning("column description for %s.%s matches no column; dropped", key[0], key[1])

    return DatabaseSchema(db_id=Path(db_path).stem, tables=tuple(tables),
                          foreign_keys=tuple(fks))


def _table_block(table: TableSchema) -> str:
    entries = []
    for col in table.columns:
        desc = col.description or col.name
        if col.value_examples:
            examples = ", ".join(col.value_examples)
            entries.append(f"    ({col.name}, {desc}. Value examples: [{examples}].)")
        else:
            entries.append(f"    ({col.name}, {desc}.)")
    return "\n".join([f"# Table: {table.name}", "[", ",\n".join(entries), "]"])


def render_table_blocks(db: DatabaseSchema) -> str:
    """The ``# Table:`` blocks used as the schema section of agent prompts."""
    return db._table_blocks


def render_foreign_keys(db: DatabaseSchema) -> str:
    """Foreign-key lines; a pruned schema keeps only keys whose endpoints survive."""
    return db._foreign_key_lines


def render_schema_description(db: DatabaseSchema) -> str:
    """Full schema description: table blocks plus the foreign-key section."""
    return (render_table_blocks(db)
            + "\n[Foreign keys]\n"
            + render_foreign_keys(db))


def estimate_tokens(text: str) -> int:
    """Token-count estimate for prompt budgeting: ceil(utf8_bytes / 4)."""
    return math.ceil(len(text.encode("utf-8")) / 4)
