import pytest

from allocperc import geometry

pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with the thread's kept builds empty, so a spy never
    meets lists or rows that the test before it left warm."""
    vars(geometry._kept).clear()
