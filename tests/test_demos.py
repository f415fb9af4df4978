"""Every narrative script under demos/ runs to completion in a fresh
interpreter, with its temporary files under the test's own directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import checkout_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         env=checkout_env(TMPDIR=str(tmp_path)),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-4000:]
