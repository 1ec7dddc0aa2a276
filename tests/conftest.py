"""Shared test fixtures."""
from __future__ import annotations

import pytest

from qfhe import analysis, rewrite


def _clear() -> None:
    rewrite._fixed.cache_clear()
    analysis._masks.cache_clear()


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts and ends with the twin cache and the key stack's mask cache empty.

    ``rewrite._fixed`` keeps each angle-free gate's four twins and the key
    stack's table of them, so a mutant of ``rewrite._rule``, of a
    ``GateSpec`` or of ``analysis._key_op`` would meet twins another test
    built. h lifts to u, so even a mutant of u's parity column would meet
    stale h twins. ``analysis._masks`` is emptied too, so the stacks of the
    guard-raised sizes some tests run are not kept.
    """
    _clear()
    yield
    _clear()
