"""The on-disk schema cache behind DatabaseRegistry.get_schema, and its once-guard."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from dbfixtures import BANKING_DESCRIPTIONS

from text2sql import datasets
from text2sql.codec import encode
from text2sql.datasets import DatabaseRegistry, load_benchmark, load_column_descriptions
from text2sql.execution import db_stamp
from text2sql.schema import introspect, render_schema_description

DB_ID = "banking_system"
# The banking fixture's cache file, with its descriptions, as written when
# introspection still opened a connection of its own, in format 1. Its stamp
# and path, the only fields that depend on the machine, are zeroed.
GOLDEN_CACHE = Path(__file__).parent / "data" / "golden" / "banking_schema_cache.json"


@pytest.fixture()
def introspected(monkeypatch) -> list[str]:
    """The database paths ``datasets.introspect`` was called with, in order."""
    calls = []
    real = datasets.introspect

    def counting(db_path, *args, **kwargs):
        calls.append(db_path)
        return real(db_path, *args, **kwargs)
    monkeypatch.setattr(datasets, "introspect", counting)
    return calls


@pytest.fixture()
def db(banking_db, tmp_path):
    """A copy of the banking database that a test may change."""
    path = tmp_path / "banking_system.sqlite"
    shutil.copyfile(banking_db, path)
    return path


def load(path, descriptions=BANKING_DESCRIPTIONS):
    """The schema as a fresh registry, like a new process, gets it."""
    registry = DatabaseRegistry()
    registry.register(DB_ID, str(path), descriptions)
    return registry.get_schema(DB_ID)


def cache_files(home):
    return sorted((home / "text2sql" / "schemas").glob("*"))


class TestHit:
    def test_hit_equals_introspection(self, db, introspected, schema_cache_home):
        load(db)
        hit = load(db)
        assert len(introspected) == 1
        fresh = introspect(str(db), BANKING_DESCRIPTIONS)
        assert hit == fresh
        assert json.dumps(hit, default=encode) == json.dumps(fresh, default=encode)
        assert render_schema_description(hit) == render_schema_description(fresh)

    def test_one_file_named_by_the_resolved_path(self, db, schema_cache_home, monkeypatch):
        monkeypatch.chdir(db.parent)
        load(db.name)
        digest = hashlib.sha256(os.fsencode(db.resolve())).hexdigest()
        assert [p.name for p in cache_files(schema_cache_home)] == [f"{digest}.json"]

    def test_another_spelling_of_the_path_hits_with_its_own_path(
            self, db, introspected, monkeypatch):
        load(db)
        monkeypatch.chdir(db.parent)
        hit = load(db.name)
        assert len(introspected) == 1
        assert hit == introspect(db.name, BANKING_DESCRIPTIONS)

    def test_file_of_the_earlier_introspection_hits(self, db, introspected):
        cached = json.loads(GOLDEN_CACHE.read_text(encoding="utf-8"))
        cached["header"]["db_stamp"] = list(db_stamp(str(db)))
        # the body and a mapping's description digest are as that code wrote them
        cached["header"]["format"] = datasets.SCHEMA_CACHE_FORMAT
        cache_file = datasets._cache_file(str(db))
        cache_file.parent.mkdir(parents=True)
        cache_file.write_text(json.dumps(cached), encoding="utf-8")
        hit = load(db)
        assert introspected == []
        fresh = introspect(str(db), BANKING_DESCRIPTIONS)
        assert json.dumps(hit, default=encode) == json.dumps(fresh, default=encode)

    def test_relative_cache_home_falls_back_to_dot_cache(self, db, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        load(db)
        assert len(cache_files(tmp_path / "home" / ".cache")) == 1

    def test_no_home_directory_means_no_cache(self, db, introspected, monkeypatch):
        def no_home():
            raise RuntimeError("Could not determine home directory.")
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(Path, "home", no_home)
        assert load(db) == load(db)
        assert len(introspected) == 2


def touch(db):
    info = os.stat(db)
    os.utime(db, ns=(info.st_atime_ns, info.st_mtime_ns + 1_000_000_000))


def replace_with_a_copy(db):
    """The same bytes and mtime under a new inode."""
    copy = db.with_name("copy.sqlite")
    shutil.copy2(db, copy)
    os.replace(copy, db)


def update_in_place(db):
    conn = sqlite3.connect(db)
    with conn:
        conn.execute("UPDATE client SET gender = 'X' WHERE gender = 'M'")
    conn.close()


class TestInvalidation:
    @pytest.mark.parametrize("change", [touch, replace_with_a_copy, update_in_place])
    def test_changed_file_is_introspected_again(self, db, change, introspected,
                                                schema_cache_home):
        load(db)
        before = db_stamp(str(db))
        change(db)
        after = db_stamp(str(db))
        assert after != before
        schema = load(db)
        assert len(introspected) == 2
        assert schema == introspect(str(db), BANKING_DESCRIPTIONS)
        assert len(cache_files(schema_cache_home)) == 1  # replaced, not added
        load(db)
        assert len(introspected) == 2

    def test_update_in_place_keeps_inode_and_size(self, db):
        before = db_stamp(str(db))
        update_in_place(db)
        after = db_stamp(str(db))
        assert after[:2] == before[:2]
        assert "'X'" in load(db).table("client").column("gender").value_examples

    def test_changed_description_csv_is_introspected_again(
            self, banking_bird_root, tmp_path, introspected):
        root = tmp_path / "root"
        shutil.copytree(banking_bird_root, root)
        items = tmp_path / "dev.json"
        items.write_text(json.dumps([{"question_id": 0, "db_id": DB_ID,
                                      "question": "How many clients?"}]))

        def schema():
            return load_benchmark("bird", str(items), str(root)).registry().get_schema(DB_ID)
        schema()
        schema()
        assert len(introspected) == 1
        csv_path = root / DB_ID / "database_description" / "client.csv"
        csv_path.write_text(csv_path.read_text().replace("birth date", "day of birth"))
        assert schema().table("client").column("birth_date").description == "day of birth"
        assert len(introspected) == 2


@pytest.fixture()
def parsed(monkeypatch) -> list[Path]:
    """The directories ``datasets.load_column_descriptions`` was called with, in order."""
    calls = []
    real = datasets.load_column_descriptions

    def counting(db_dir):
        calls.append(db_dir)
        return real(db_dir)
    monkeypatch.setattr(datasets, "load_column_descriptions", counting)
    return calls


@pytest.fixture()
def bird_db(banking_bird_root, tmp_path):
    """A copy of the BIRD-layout banking database and its description CSVs."""
    shutil.copytree(banking_bird_root / DB_ID, tmp_path / DB_ID)
    return tmp_path / DB_ID / f"{DB_ID}.sqlite"


def description_csv(db, table):
    return db.parent / "database_description" / f"{table}.csv"


class TestDescriptionFiles:
    """A database registered without descriptions is keyed by its CSVs' stamps."""

    def reload_after(self, db, change, introspected):
        """The schema after ``change``, asserting that the change was a miss."""
        before = load(db, None)
        change()
        after = load(db, None)
        assert len(introspected) == 2
        assert after != before
        assert after == introspect(str(db), load_column_descriptions(db.parent))
        load(db, None)
        assert len(introspected) == 2
        return after

    def test_a_hit_parses_no_csv(self, bird_db, parsed, introspected):
        schema = load(bird_db, None)
        assert parsed == [bird_db.parent]
        assert schema.table("client").column("birth_date").description == "birth date"
        assert load(bird_db, None) == schema
        assert len(parsed) == len(introspected) == 1

    def test_csv_edited_to_the_same_size(self, bird_db, introspected):
        path = description_csv(bird_db, "client")

        def edit():
            info = os.stat(path)
            path.write_bytes(path.read_bytes().replace(b"birth date", b"BIRTH DATE"))
            os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 1_000_000_000))
            after = os.stat(path)
            assert (after.st_ino, after.st_size) == (info.st_ino, info.st_size)
        schema = self.reload_after(bird_db, edit, introspected)
        assert schema.table("client").column("birth_date").description == "BIRTH DATE"

    def test_csv_added_for_a_table_that_had_none(self, bird_db, introspected):
        path = description_csv(bird_db, "loan")
        text = path.read_text()
        path.unlink()
        schema = self.reload_after(bird_db, lambda: path.write_text(text), introspected)
        assert schema.table("loan").column("status").description == \
            "the id number identifying the loan data"

    def test_csv_deleted(self, bird_db, introspected):
        schema = self.reload_after(bird_db, description_csv(bird_db, "client").unlink,
                                   introspected)
        assert schema.table("client").column("birth_date").description == ""
        assert schema.table("account").column("account_id").description == \
            "the id of the account"

    def test_directory_removed(self, bird_db, introspected):
        def remove():
            shutil.rmtree(bird_db.parent / "database_description")
        schema = self.reload_after(bird_db, remove, introspected)
        assert schema == introspect(str(bird_db))

    @pytest.mark.parametrize("descriptions", [None, BANKING_DESCRIPTIONS],
                             ids=["files", "mapping"])
    def test_file_of_format_1_is_a_miss_and_is_rewritten(
            self, bird_db, descriptions, introspected, schema_cache_home):
        cached = json.loads(GOLDEN_CACHE.read_text(encoding="utf-8"))
        assert cached["header"]["format"] == 1
        cached["header"]["db_stamp"] = list(db_stamp(str(bird_db)))
        [client] = [t for t in cached["schema"]["tables"] if t["name"] == "client"]
        [birth_date] = [c for c in client["columns"] if c["name"] == "birth_date"]
        birth_date["description"] = "stale"
        cache_file = datasets._cache_file(str(bird_db))
        cache_file.parent.mkdir(parents=True)
        cache_file.write_text(json.dumps(cached), encoding="utf-8")
        schema = load(bird_db, descriptions)
        assert len(introspected) == 1
        assert schema.table("client").column("birth_date").description == "birth date"
        assert cache_files(schema_cache_home) == [cache_file]
        header = json.loads(cache_file.read_text(encoding="utf-8"))["header"]
        assert header["format"] == datasets.SCHEMA_CACHE_FORMAT
        assert load(bird_db, descriptions) == schema
        assert len(introspected) == 1


def only_file(home):
    (path,) = cache_files(home)
    return path


class TestBadFiles:
    @pytest.mark.parametrize("spoil", [
        lambda text: text[:len(text) // 2],
        lambda text: "\x00\xff garbage",
        lambda text: "[]",
        lambda text: '{"header": 1, "schema": 2}',
        lambda text: text.replace(f'"format":{datasets.SCHEMA_CACHE_FORMAT}', '"format":0'),
        lambda text: text.replace('"sample_k":', '"sample_k":1'),
    ], ids=["truncated", "garbage", "list", "wrong_types", "old_format", "other_sample_k"])
    def test_spoiled_file_is_a_miss_and_is_rewritten(self, db, spoil, introspected,
                                                     schema_cache_home):
        fresh = load(db)
        path = only_file(schema_cache_home)
        good = path.read_text(encoding="utf-8")
        path.write_text(spoil(good), encoding="utf-8", errors="surrogateescape")
        assert load(db) == fresh
        assert len(introspected) == 2
        assert path.read_text(encoding="utf-8") == good
        load(db)
        assert len(introspected) == 2

    def test_unwritable_cache_misses_with_one_warning(self, banking_db, shop_db, tmp_path,
                                                      monkeypatch, introspected, caplog):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
        registry = DatabaseRegistry()
        registry.register(DB_ID, str(banking_db), BANKING_DESCRIPTIONS)
        registry.register("shop", str(shop_db))
        with caplog.at_level(logging.WARNING, logger="text2sql.datasets"):
            schemas = [registry.get_schema(DB_ID), registry.get_schema("shop")]
        assert schemas == [introspect(str(banking_db), BANKING_DESCRIPTIONS),
                           introspect(str(shop_db))]
        assert len(caplog.records) == 1
        assert "schema cache not written" in caplog.records[0].getMessage()
        load(banking_db)
        assert len(introspected) == 3


class TestOnceGuard:
    def test_two_databases_load_at_the_same_time(self, banking_db, shop_db, monkeypatch):
        # each introspection waits until the other one has started
        meeting = threading.Barrier(2, timeout=5)
        real = datasets.introspect

        def introspect_together(*args, **kwargs):
            meeting.wait()
            return real(*args, **kwargs)
        monkeypatch.setattr(datasets, "introspect", introspect_together)
        registry = DatabaseRegistry()
        registry.register(DB_ID, str(banking_db), BANKING_DESCRIPTIONS)
        registry.register("shop", str(shop_db))
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(registry.get_schema, d) for d in (DB_ID, "shop")]
            schemas = [f.result(timeout=10) for f in futures]
        assert [s.db_id for s in schemas] == [DB_ID, "shop"]

    def test_each_database_is_introspected_once_by_many_threads(self, db, shop_db,
                                                                monkeypatch):
        threads, rounds = 8, 4
        calls = []
        real = datasets.introspect

        def slow_introspect(*args, **kwargs):
            calls.append(args[0])
            time.sleep(0.05)  # the other threads arrive while this one runs
            return real(*args, **kwargs)
        monkeypatch.setattr(datasets, "introspect", slow_introspect)
        registry = DatabaseRegistry()
        registry.register(DB_ID, str(db), BANKING_DESCRIPTIONS)
        registry.register("shop", str(shop_db))
        start = threading.Barrier(threads, timeout=5)

        def get(i):
            start.wait()
            return [registry.get_schema((DB_ID, "shop")[(i + r) % 2]) for r in range(rounds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(get, i) for i in range(threads)]
                seen = [s for f in futures for s in f.result(timeout=10)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted([str(db), str(shop_db)])
        assert len({id(s) for s in seen}) == 2
