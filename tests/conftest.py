"""Shared test fixtures."""
from __future__ import annotations

import pytest

from qfhe import analysis, rewrite


def _clear() -> None:
    analysis._fixed_key_op.cache_clear()
    analysis._masks.cache_clear()
    rewrite._fixed_twin.cache_clear()


@pytest.fixture(autouse=True)
def _cold_twin_caches():
    """Each test starts and ends with the twin caches and the key stack's caches empty.

    ``analysis._fixed_key_op`` and ``rewrite._fixed_twin`` keep the twins of
    each angle-free gate, so a mutant of ``rewrite.twin``, of a ``GateSpec``
    or of ``analysis._key_op`` would meet twins another test built. h lifts
    to u, so even a mutant of u's parity column would meet stale h twins.
    ``analysis._masks`` is emptied too, so the stacks of the guard-raised
    sizes some tests run are not kept.
    """
    _clear()
    yield
    _clear()
