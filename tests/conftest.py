import os
from pathlib import Path

import pytest

from torelli_euler import bernoulli_table

# Tests that start `python -m torelli_euler` need the source tree on the
# child's path too, whether or not the package is installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def table600():
    return bernoulli_table(600)


@pytest.fixture(scope="session")
def table60():
    return bernoulli_table(60)
