import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make helpers importable

from qnnwitness.fixtures import fixture_schedule
from qnnwitness.hamiltonian import ChunkParams, Schedule


@pytest.fixture(scope="session")
def table2():
    return fixture_schedule("table2")


@pytest.fixture(scope="session")
def table3():
    return fixture_schedule("table3")


@pytest.fixture()
def zero_schedule():
    chunk = ChunkParams.uniform(2, 0.0, 0.0, 0.0)
    return Schedule(2, 1.58, (chunk,) * 4)
