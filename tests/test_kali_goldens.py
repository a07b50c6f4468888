"""The Kali goldens reach the example programs, and a moved outcome fails.

Every other ``compile_kali`` program in ``tests/`` is checked where its
own test runs it (``conftest.py``); the example scripts have no test of
their own, so they run here.  ``examples/kali/*.kali`` run through the
CLI in ``test_cli.py``.
"""

import pathlib
import runpy

import pytest

from repro.lang import compile_kali
from tests import kali_goldens
from tests.test_kali_programs import TestFigure1, run

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize("script", ["kali_source_jacobi.py", "jacobi_convergence.py"])
def test_example_reproduces_its_golden(script, capsys):
    before = len(kali_goldens.CHECKED)
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert len(kali_goldens.CHECKED) == before + 1


def test_a_moved_outcome_fails(monkeypatch):
    if kali_goldens.RECORDING is not None:
        pytest.skip("record mode checks nothing")
    run(TestFigure1.SRC, nprocs=4)
    key = kali_goldens.CHECKED[-1]
    monkeypatch.setitem(kali_goldens.GOLDENS, key, "0" * 16)
    with pytest.raises(AssertionError, match="golden outcome"):
        run(TestFigure1.SRC, nprocs=4)


def test_disk_tier_runs_are_not_pinned(tmp_path):
    before = len(kali_goldens.CHECKED)
    compile_kali(TestFigure1.SRC).run(nprocs=4, schedule_cache_dir=str(tmp_path))
    assert len(kali_goldens.CHECKED) == before
