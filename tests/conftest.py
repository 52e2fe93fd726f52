from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dbfixtures import (  # noqa: E402
    BANKING_DESCRIPTIONS,
    build_banking_bird_layout,
    build_banking_db,
    build_library_db,
    build_school_db,
    build_shop_db,
)

from text2sql.schema import introspect  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """The schema cache of fixtures wider than one test is not the user's either."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("session_cache_home")))
        yield


@pytest.fixture(autouse=True)
def schema_cache_home(tmp_path_factory, monkeypatch) -> Path:
    """Each test gets an empty schema cache of its own, never the user's."""
    home = tmp_path_factory.mktemp("cache_home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture(scope="session")
def banking_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("banking") / "banking_system.sqlite"
    return build_banking_db(path)


@pytest.fixture(scope="session")
def banking_schema(banking_db):
    return introspect(str(banking_db), BANKING_DESCRIPTIONS)


@pytest.fixture(scope="session")
def banking_bird_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("bird_root")
    build_banking_bird_layout(root)
    return root


@pytest.fixture(scope="session")
def shop_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("shop") / "shop.sqlite"
    return build_shop_db(path)


@pytest.fixture(scope="session")
def library_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("library") / "library.sqlite"
    return build_library_db(path)


@pytest.fixture(scope="session")
def school_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("school") / "school_scores.sqlite"
    return build_school_db(path)


@pytest.fixture()
def scripted_banking_path() -> Path:
    return DATA_DIR / "scripted_banking.txt"


EXHAUST = "/* exhaust */"


@pytest.fixture()
def fetch_exhausts(monkeypatch) -> str:
    """Fetching the rows of SQL that contains the returned marker raises MemoryError.

    ``execution._connection`` is patched to hand out a stub connection around
    the real one, so every other statement runs as before.
    """
    from text2sql import execution

    class Cursor:
        def __init__(self, cursor):
            self.cursor, self.sql = cursor, ""

        def execute(self, sql):
            self.sql = sql
            return self.cursor.execute(sql)

        def fetchall(self):
            if EXHAUST in self.sql:
                raise MemoryError
            return self.cursor.fetchall()

        def close(self):
            self.cursor.close()

    class Connection:
        def __init__(self, conn):
            self.conn = conn

        def cursor(self):
            return Cursor(self.conn.cursor())

    real = execution._connection
    monkeypatch.setattr(execution, "_connection", lambda db_path: Connection(real(db_path)))
    return EXHAUST
