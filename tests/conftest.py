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
