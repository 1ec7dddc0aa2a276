"""Smoke runs of the demo scripts: each must exit 0 with its default arguments."""
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
