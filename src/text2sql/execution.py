"""Guarded read-only SQL execution with timeout and outcome classification."""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

DEFAULT_TIMEOUT = 30.0
ROWS_PREVIEW_LIMIT = 20


class ExecStatus(str, Enum):
    OK = "OK"
    SYNTAX_ERROR = "SYNTAX_ERROR"
    SCHEMA_ERROR = "SCHEMA_ERROR"
    EMPTY_RESULT = "EMPTY_RESULT"
    TIMEOUT = "TIMEOUT"
    DENIED = "DENIED"
    OTHER_ERROR = "OTHER_ERROR"


@dataclass(frozen=True)
class ExecutionOutcome:
    status: ExecStatus
    rows: Optional[tuple] = None
    error_message: str = ""
    exception_class: str = ""

    def __post_init__(self):
        has_rows = self.rows is not None
        if has_rows != (self.status in (ExecStatus.OK, ExecStatus.EMPTY_RESULT)):
            raise ValueError(f"rows present does not match status {self.status}")
        if self.status is ExecStatus.EMPTY_RESULT and self.rows:
            raise ValueError("EMPTY_RESULT outcome carries rows")


@dataclass(frozen=True)
class OutcomeSummary:
    """The recorded form of an outcome, as traces and scores keep it.

    ``rows_preview`` holds at most ``ROWS_PREVIEW_LIMIT`` rows, with blobs
    turned into ``0x`` hex so the summary is JSON-safe as it stands.
    """

    status: ExecStatus
    row_count: Optional[int] = None
    rows_preview: Optional[tuple[tuple, ...]] = None
    error_message: str = ""
    exception_class: str = ""
    elapsed: float = 0.0

    @classmethod
    def from_outcome(cls, outcome: ExecutionOutcome, elapsed: float) -> "OutcomeSummary":
        count = preview = None
        if outcome.rows is not None:
            count = len(outcome.rows)
            preview = tuple(tuple("0x" + v.hex() if isinstance(v, bytes) else v
                                  for v in row)
                            for row in outcome.rows[:ROWS_PREVIEW_LIMIT])
        return cls(outcome.status, count, preview, outcome.error_message,
                   outcome.exception_class, elapsed)


def db_stamp(db_path: str) -> Optional[tuple[int, int, int]]:
    """The identity of a database file: ``(st_ino, st_size, st_mtime_ns)``; None when it is gone.

    A journaled EX verdict and a cached schema each hold while the file keeps
    the stamp they were made with; a cached schema also needs the stamps of
    its description files.
    """
    try:
        info = os.stat(db_path)
    except OSError:
        return None
    return (info.st_ino, info.st_size, info.st_mtime_ns)


# Authorizer actions a query may take, and the two pragmas that read what
# sqlite_master already shows; anything else (a write, BEGIN, ATTACH, another
# PRAGMA, VACUUM, CREATE TEMP ...) is refused before the statement runs.
_READ_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})
_READ_PRAGMAS = frozenset({"table_info", "foreign_key_list"})
_DENIED_MESSAGE = "not authorized: only read-only SELECT statements may run"
# The deadline is checked every this many virtual-machine steps.
_PROGRESS_STEPS = 1000


class _Guarded:
    """An open guarded connection and the key it was opened for.

    A ``sqlite3.Connection`` is part of a reference cycle through its
    statement cache, so only the cycle collector would free one that is
    dropped. Closing it here releases its file and SQLite's memory as soon as
    the slot lets go: on a change of database, or when the thread ends.
    """

    def __init__(self, key: tuple, conn: sqlite3.Connection):
        self.key = key
        self.conn = conn

    def __del__(self):
        self.conn.close()


class _Slot(threading.local):
    """This thread's guarded connection and the guard state of its current call."""

    guarded: Optional[_Guarded] = None
    deadline = 0.0
    timed_out = False
    denied = False


_slot = _Slot()


def _authorize(action, name, *_) -> int:
    if action in _READ_ACTIONS or (action == sqlite3.SQLITE_PRAGMA and name.isascii()
                                   and name.lower() in _READ_PRAGMAS):
        return sqlite3.SQLITE_OK
    _slot.denied = True
    return sqlite3.SQLITE_DENY


def _past_deadline() -> bool:
    if time.monotonic() < _slot.deadline:
        return False
    _slot.timed_out = True
    return True


def _connection(db_path: str) -> sqlite3.Connection:
    """The guarded connection of this thread to ``db_path``, reopened when the file changed.

    The key is the file's device and inode, which the open connection keeps
    from reuse: a file replaced at the same path gets a new connection (the
    old one is closed), and two names of one file share one.
    """
    info = os.stat(db_path)
    key = (info.st_dev, info.st_ino)
    if _slot.guarded is None or _slot.guarded.key != key:
        _slot.guarded = None
        uri = Path(db_path).resolve().as_uri() + "?mode=ro"  # percent-quoted
        conn = sqlite3.connect(uri, uri=True, isolation_level=None)
        conn.set_authorizer(_authorize)
        conn.set_progress_handler(_past_deadline, _PROGRESS_STEPS)
        _slot.guarded = _Guarded(key, conn)
    return _slot.guarded.conn


_SCHEMA_ERROR_MARKS = ("no such table", "no such column", "ambiguous column name")


def _classify_error(exc: BaseException) -> ExecStatus:
    if _slot.timed_out:
        return ExecStatus.TIMEOUT
    if _slot.denied:
        return ExecStatus.DENIED
    if isinstance(exc, sqlite3.OperationalError):
        if str(exc) == "not authorized":  # refused by SQLite before the authorizer was asked
            return ExecStatus.DENIED
        msg = str(exc).lower()
        if any(mark in msg for mark in _SCHEMA_ERROR_MARKS):
            return ExecStatus.SCHEMA_ERROR
        if "syntax error" in msg:
            return ExecStatus.SYNTAX_ERROR
        return ExecStatus.OTHER_ERROR
    return ExecStatus.OTHER_ERROR


def execute_sql(db_path: str, sql: str, timeout: float = DEFAULT_TIMEOUT) -> ExecutionOutcome:
    """Run one read-only statement; every failure mode, blank SQL too, is encoded in the outcome.

    The statement runs on this thread's guarded connection: the authorizer
    refuses any action but reading (DENIED), and a progress handler stops it
    once ``timeout`` seconds have passed (TIMEOUT).
    """
    if not sql or not sql.strip():  # opens no connection
        return ExecutionOutcome(ExecStatus.SYNTAX_ERROR, error_message="empty statement",
                                exception_class="EmptyStatement")
    try:
        conn = _connection(db_path)
    except (sqlite3.Error, OSError) as exc:
        return ExecutionOutcome(
            status=ExecStatus.OTHER_ERROR,
            error_message=str(exc),
            exception_class=type(exc).__name__,
        )
    _slot.deadline = time.monotonic() + timeout
    _slot.timed_out = _slot.denied = False
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        rows = tuple(cursor.fetchall())  # no row_factory: each row is a tuple
    except (sqlite3.Error, sqlite3.Warning, ValueError, OverflowError, MemoryError) as exc:
        status = _classify_error(exc)
        return ExecutionOutcome(
            status=status,
            error_message=_DENIED_MESSAGE if status is ExecStatus.DENIED else str(exc),
            exception_class=type(exc).__name__,
        )
    finally:
        # resets the statement, so no read transaction stays open between calls
        cursor.close()
    status = ExecStatus.OK if rows else ExecStatus.EMPTY_RESULT
    return ExecutionOutcome(status=status, rows=rows)
