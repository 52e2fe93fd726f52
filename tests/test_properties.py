from __future__ import annotations

import pytest

from propchecks import (
    check_pruning_enforcement,
    check_pruning_idempotence,
    make_invariant_check,
)

from text2sql.datasets import DatabaseRegistry


@pytest.fixture(scope="module")
def banking_registry(banking_bird_db):
    registry = DatabaseRegistry()
    registry.register("banking_system", str(banking_bird_db))
    registry.get_schema("banking_system")
    return registry


def test_pruning_enforcement_rules():
    check_pruning_enforcement()


def test_pruning_idempotence():
    check_pruning_idempotence()


def test_algorithm_invariants_scripted_scenarios(banking_registry):
    make_invariant_check(banking_registry)()
