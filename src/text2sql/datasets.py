"""Benchmark item loading and the database registry shared by pipeline workers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .codec import decoder, encode
from .execution import db_stamp
from .schema import DEFAULT_SAMPLE_K, MAX_LITERAL_LEN, DatabaseSchema, description_files, introspect

logger = logging.getLogger(__name__)

BIRD = "bird"
SPIDER = "spider"
# Bumped whenever introspection, the schema types or the header's key change
# what a file holds. 2: descriptions are keyed by the files' stamps. 3: a CSV's
# leading byte-order mark is dropped.
SCHEMA_CACHE_FORMAT = 3


class MissingDatabase(Exception):
    """A benchmark item or a journaled task names a database with no file under the root."""


class MalformedItem(Exception):
    """Not a JSON array of objects, or an item that misfits ``_Item`` or reuses a task id."""


@dataclass
class Task:
    task_id: str
    db_id: str
    question: str
    evidence: str = ""
    gold_sql: Optional[str] = None
    difficulty: str = "unlabeled"

    def __post_init__(self):
        if not self.db_id or not self.question:
            raise ValueError("task db_id and question must be nonempty")


@dataclass(frozen=True)
class _CacheHeader:
    """What a cached schema was introspected from; a hit needs all of it unchanged."""

    format: int
    db_stamp: tuple[int, int, int]
    descriptions_sha256: str
    sample_k: int
    max_literal_len: int


@dataclass(frozen=True)
class _CachedSchema:
    header: _CacheHeader
    schema: DatabaseSchema


def _cache_file(db_path: str) -> Path:
    """``$XDG_CACHE_HOME/text2sql/schemas/<sha256 of the resolved path>.json``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    digest = hashlib.sha256(os.fsencode(Path(db_path).resolve())).hexdigest()
    return root / "text2sql" / "schemas" / f"{digest}.json"


def _cache_header(db_path: str) -> _CacheHeader:
    """The key of ``db_path``'s schema as it would be introspected now.

    The description CSVs beside the database are keyed by their stamps, so a
    hit parses no CSV.
    """
    key = [(entry.name, db_stamp(entry.path))
           for entry in description_files(Path(db_path).parent)]
    text = json.dumps(key, sort_keys=True)
    return _CacheHeader(SCHEMA_CACHE_FORMAT, db_stamp(db_path),
                        hashlib.sha256(text.encode()).hexdigest(),
                        DEFAULT_SAMPLE_K, MAX_LITERAL_LEN)


def _read_cache(cache_file: Path, header: _CacheHeader, db_path: str) -> Optional[DatabaseSchema]:
    """The cached schema when its header equals ``header``; None on any miss."""
    try:
        cached = decoder(_CachedSchema)(json.loads(cache_file.read_text(encoding="utf-8")))
    except (OSError, ValueError, TypeError):
        return None
    if cached.header != header:
        return None
    if cached.schema.db_id != Path(db_path).stem:  # the same file under another link name
        return dataclasses.replace(cached.schema, db_id=Path(db_path).stem)
    return cached.schema


def _write_cache(cache_file: Path, cached: _CachedSchema) -> None:
    """Replace the file atomically, so a reader sees the old file or the new one."""
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_file.parent, prefix=cache_file.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(cached, default=encode, separators=(",", ":")))
        os.replace(tmp, cache_file)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DatabaseRegistry:
    """db_id -> database file plus the schemas loaded so far.

    Each schema is loaded once per registry, under a lock of its own database,
    so different databases load at the same time. A load reads the on-disk
    schema cache and introspects only on a miss. Schemas are immutable, so
    any number of workers may read them while each opens its own connections.
    """

    def __init__(self):
        self._paths: dict[str, str] = {}
        self._schemas: dict[str, DatabaseSchema] = {}
        self._once: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()  # guards _once and _cache_write_failed
        self._cache_write_failed = False

    def register(self, db_id: str, path: str) -> None:
        self._paths[db_id] = str(path)

    def register_under(self, db_root: Path, db_id: str, where: str) -> None:
        """Register ``db_id``, if new, at its file under ``db_root``; MissingDatabase cites ``where``."""
        if db_id not in self._paths:
            db_file = db_root / db_id / f"{db_id}.sqlite"
            if not db_file.exists():
                raise MissingDatabase(f"{where}: no database file for {db_id!r} at {db_file}")
            self._paths[db_id] = str(db_file)

    def db_ids(self) -> list[str]:
        return sorted(self._paths)

    def path(self, db_id: str) -> str:
        if db_id not in self._paths:
            raise MissingDatabase(f"database {db_id!r} is not registered")
        return self._paths[db_id]

    def get_schema(self, db_id: str) -> DatabaseSchema:
        schema = self._schemas.get(db_id)
        if schema is None:
            db_path = self.path(db_id)
            with self._lock:
                once = self._once.setdefault(db_id, threading.Lock())
            with once:
                schema = self._schemas.get(db_id)
                if schema is None:
                    schema = self._schemas[db_id] = self._load(db_path)
        return schema

    def _load(self, db_path: str) -> DatabaseSchema:
        try:
            cache_file = _cache_file(db_path)
        except (OSError, RuntimeError):  # no home directory, or a symlink loop
            return introspect(db_path)
        header = _cache_header(db_path)  # stamped before anything is read
        schema = _read_cache(cache_file, header, db_path)
        if schema is None:
            schema = introspect(db_path)
            try:
                _write_cache(cache_file, _CachedSchema(header, schema))
            except (OSError, ValueError, TypeError) as exc:
                with self._lock:
                    first, self._cache_write_failed = not self._cache_write_failed, True
                if first:
                    logger.warning("schema cache not written, so the next run "
                                   "introspects again: %s", exc)
        return schema


@dataclass
class Benchmark:
    tasks: list[Task]
    _registry: DatabaseRegistry = field(default=None, repr=False)

    def registry(self) -> DatabaseRegistry:
        return self._registry


@dataclass
class _Item:
    """One entry of an items file, in either layout: BIRD's ``SQL`` or Spider's ``query``."""

    db_id: str
    question: str
    question_id: int | str | None = None
    evidence: str = ""
    difficulty: str = "unlabeled"
    SQL: Optional[str] = None
    query: Optional[str] = None


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

    with open(items_file, encoding="utf-8-sig", errors="replace") as handle:
        try:
            items = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MalformedItem(f"items file is not JSON: {exc}") from None
    if not isinstance(items, list):
        raise MalformedItem("items file must contain a JSON array")

    read_item = decoder(_Item)
    tasks: list[Task] = []
    registry = DatabaseRegistry()
    task_ids: set[str] = set()
    for idx, value in enumerate(items):
        try:
            item = read_item(value)
            task = Task(
                task_id=str(idx if item.question_id is None else item.question_id),
                db_id=item.db_id,
                question=item.question,
                evidence=item.evidence if name == BIRD else "",
                gold_sql=item.SQL if name == BIRD else item.query,
                difficulty=item.difficulty if name == BIRD else "unlabeled",
            )
        except (TypeError, ValueError) as exc:
            raise MalformedItem(f"item {idx}: {exc}") from None
        if task.task_id in task_ids:  # every command keys its states by task id
            raise MalformedItem(f"item {idx}: task id {task.task_id!r} is used twice")
        task_ids.add(task.task_id)
        registry.register_under(root, task.db_id, f"item {idx}")
        tasks.append(task)
    return Benchmark(tasks=tasks, _registry=registry)
