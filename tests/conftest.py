"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lang.interp import CompiledKali
from repro.machine.cost import IDEAL, IPSC2, NCUBE7
from repro.meshes.regular import five_point_grid
from repro.runtime.cache import CLOSED_FORM
from tests import kali_goldens


@pytest.fixture(autouse=True)
def _kali_goldens(monkeypatch):
    """Hold every pinned Kali run to its golden outcome (see
    ``tests/kali_goldens.py``)."""
    monkeypatch.setattr(CompiledKali, "run", kali_goldens.checked(CompiledKali.run))


@pytest.fixture(autouse=True)
def _fresh_closed_form_memo():
    """Start and leave every test with an empty process-wide closed-form
    memo: tests that count or tamper with ``compile_plan`` calls must
    see their own loops compiled, and a tampered schedule must not
    reach a later test."""
    CLOSED_FORM.clear()
    yield
    CLOSED_FORM.clear()


@pytest.fixture
def small_mesh():
    """A 8x8 five-point grid (64 nodes) — fast but non-trivial."""
    return five_point_grid(8, 8)


@pytest.fixture
def medium_mesh():
    """A 32x32 five-point grid (1024 nodes)."""
    return five_point_grid(32, 32)


@pytest.fixture(params=[IDEAL, NCUBE7, IPSC2], ids=["ideal", "ncube", "ipsc"])
def any_machine(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20260705)
