import pytest

from allocperc import allocation

pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with the thread's lists memo empty, so a spy never
    meets lists that the test before it left warm."""
    vars(allocation._memo).clear()
