"""Smoke runs of the demo scripts: each must exit 0 with its default arguments, and 2 on a bad one."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["run_pipeline.py", "security_sweep.py", "multiparty_demo.py"])
def test_script_exits_0(name, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == 0


def _run_sweep(argv, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", ["security_sweep.py", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "security_sweep.py"), run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("argv", [
    ["--states", "0"], ["--circuits", "0"], ["--states", "0", "--circuits", "0"], ["--states", "two"],
    ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--seed", "1.5"],
    ["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-9"], ["--tol", "x"],
])
def test_security_sweep_exits_2_on_a_value_it_cannot_check(argv, monkeypatch, capsys):
    # zero states and circuits would check nothing and still print PASS
    assert _run_sweep(argv, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {argv[0].split('=')[0]}: must be " in err


def test_security_sweep_takes_the_smallest_counts_and_the_largest_seed(monkeypatch, capsys):
    argv = ["--states", "1", "--circuits", "1", "--seed", str(2 ** 64 - 1), "--tol", "1e-9"]
    assert _run_sweep(argv, monkeypatch) == 0
    assert capsys.readouterr().out.endswith("result: PASS (tolerance 1e-09)\n")
