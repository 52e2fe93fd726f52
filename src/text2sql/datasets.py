"""Benchmark item loading and the database registry shared by pipeline workers."""

from __future__ import annotations

import csv
import json
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .schema import DatabaseSchema, introspect

logger = logging.getLogger(__name__)

BIRD = "bird"
SPIDER = "spider"
DESCRIPTION_DIR = "database_description"


class MissingDatabase(Exception):
    """A benchmark item names a database with no file under the database root."""


class MalformedItem(Exception):
    """A benchmark item is missing a required field."""


@dataclass
class Task:
    task_id: str
    db_id: str
    question: str
    evidence: str = ""
    gold_sql: Optional[str] = None
    difficulty: str = "unlabeled"

    def __post_init__(self):
        if not self.question:
            raise ValueError("task question must be nonempty")


class DatabaseRegistry:
    """db_id -> database file plus a cache of introspected schemas.

    Schemas are introspected once and shared; they are immutable, so any number
    of workers may read them while each worker opens its own connections.
    """

    def __init__(self):
        self._paths: dict[str, str] = {}
        self._descriptions: dict[str, Mapping[str, Mapping[str, str]]] = {}
        self._schemas: dict[str, DatabaseSchema] = {}
        self._lock = threading.Lock()

    def register(self, db_id: str, path: str,
                 descriptions: Optional[Mapping[str, Mapping[str, str]]] = None) -> None:
        self._paths[db_id] = str(path)
        if descriptions:
            self._descriptions[db_id] = descriptions

    def db_ids(self) -> list[str]:
        return sorted(self._paths)

    def path(self, db_id: str) -> str:
        if db_id not in self._paths:
            raise MissingDatabase(f"database {db_id!r} is not registered")
        return self._paths[db_id]

    def get_schema(self, db_id: str) -> DatabaseSchema:
        with self._lock:
            if db_id not in self._schemas:
                self._schemas[db_id] = introspect(
                    self.path(db_id), self._descriptions.get(db_id))
            return self._schemas[db_id]


@dataclass
class Benchmark:
    name: str
    tasks: list[Task]
    db_root: str
    _registry: DatabaseRegistry = field(default=None, repr=False)

    def registry(self) -> DatabaseRegistry:
        return self._registry


def _database_file(db_root: Path, db_id: str) -> Path:
    return db_root / db_id / f"{db_id}.sqlite"


def load_column_descriptions(db_dir: Path) -> dict[str, dict[str, str]]:
    """Per-table column descriptions from a database's description CSV files.

    Each ``<table>.csv`` carries at least the original column name, a friendly
    name, and a description; the first nonempty of description/friendly name is
    used. Files are read as UTF-8 with lossy replacement since benchmark CSVs
    contain stray bytes.
    """
    out: dict[str, dict[str, str]] = {}
    desc_dir = db_dir / DESCRIPTION_DIR
    if not desc_dir.is_dir():
        return out
    for csv_path in sorted(desc_dir.glob("*.csv")):
        table = csv_path.stem
        columns: dict[str, str] = {}
        with open(csv_path, encoding="utf-8", errors="replace", newline="") as handle:
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


def load_benchmark(name: str, items_path: str, db_root: str) -> Benchmark:
    """Load a benchmark item file and register every referenced database."""
    if name not in (BIRD, SPIDER):
        raise ValueError(f"unknown benchmark {name!r}")
    items_file = Path(items_path)
    root = Path(db_root)
    if not items_file.exists():
        raise FileNotFoundError(items_path)
    if not root.is_dir():
        raise FileNotFoundError(db_root)

    with open(items_file, encoding="utf-8", errors="replace") as handle:
        items = json.load(handle)
    if not isinstance(items, list):
        raise MalformedItem("items file must contain a JSON array")

    sql_field = "SQL" if name == BIRD else "query"
    tasks: list[Task] = []
    registry = DatabaseRegistry()
    for idx, item in enumerate(items):
        for required in ("db_id", "question"):
            if not item.get(required):
                raise MalformedItem(f"item {idx} is missing {required!r}")
        db_id = item["db_id"]
        db_file = _database_file(root, db_id)
        if not db_file.exists():
            raise MissingDatabase(f"item {idx}: no database file at {db_file}")
        if db_id not in registry.db_ids():
            registry.register(db_id, str(db_file),
                              load_column_descriptions(root / db_id))
        tasks.append(Task(
            task_id=str(item.get("question_id", idx)),
            db_id=db_id,
            question=item["question"],
            evidence=item.get("evidence", "") if name == BIRD else "",
            gold_sql=item.get(sql_field),
            difficulty=item.get("difficulty", "unlabeled") if name == BIRD else "unlabeled",
        ))
    return Benchmark(name=name, tasks=tasks, db_root=str(root), _registry=registry)
