"""Smoke runs of the demo scripts: each must exit 0 with its default arguments, and 2 on a bad one."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, argv, monkeypatch) -> int:
    """The script's exit code, run as ``python scripts/NAME.py ARGV`` runs it: its folder first on sys.path."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("name", ["run_pipeline.py", "security_sweep.py", "multiparty_demo.py"])
def test_script_exits_0(name, monkeypatch):
    assert _run(name, [], monkeypatch) == 0


@pytest.mark.parametrize("name", ["run_pipeline.py", "multiparty_demo.py"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_demo_exits_2_on_a_seed_outside_64_bits(name, seed, monkeypatch, capsys):
    # RandomSource takes seeds in [0, 2^64); the demos refuse any other while parsing, before a step runs
    assert _run(name, ["--seed", seed], monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --seed: must be an integer in [0, 2^64), got '{seed}'" in err


@pytest.mark.parametrize("argv", [
    ["--states", "0"], ["--circuits", "0"], ["--states", "0", "--circuits", "0"], ["--states", "two"],
    ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--seed", "1.5"],
    ["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-9"], ["--tol", "x"],
])
def test_security_sweep_exits_2_on_a_value_it_cannot_check(argv, monkeypatch, capsys):
    # zero states and circuits would check nothing and still print PASS
    assert _run("security_sweep.py", argv, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {argv[0].split('=')[0]}: must be " in err


def test_security_sweep_takes_the_smallest_counts_and_the_largest_seed(monkeypatch, capsys):
    argv = ["--states", "1", "--circuits", "1", "--seed", str(2 ** 64 - 1), "--tol", "1e-9"]
    assert _run("security_sweep.py", argv, monkeypatch) == 0
    assert capsys.readouterr().out.endswith("result: PASS (tolerance 1e-09)\n")
