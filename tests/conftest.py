"""Shared test fixtures."""
from __future__ import annotations

import pytest

from qfhe import analysis


@pytest.fixture(autouse=True)
def _cold_key_stack_caches():
    """Each test starts and ends with the key stack's caches empty.

    ``analysis._fixed_key_op`` keeps the twins of each angle-free gate, so a
    mutant of ``rewrite.twin``, of a ``GateSpec`` or of ``analysis._key_op``
    would meet twins another test built; ``analysis._masks`` is emptied too,
    so the stacks of the guard-raised sizes some tests run are not kept.
    """
    analysis._fixed_key_op.cache_clear()
    analysis._masks.cache_clear()
    yield
    analysis._fixed_key_op.cache_clear()
    analysis._masks.cache_clear()
