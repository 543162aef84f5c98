import subprocess
import sys
from pathlib import Path

import pytest

# conftest.py puts the source tree on PYTHONPATH, which the children inherit.
_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # Run from an empty directory, so a demo that wrote files beside it would show.
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.strip()
    assert list(tmp_path.iterdir()) == []
