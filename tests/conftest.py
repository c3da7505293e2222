import pytest

from allocperc import allocation, booleanmodel


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with both thread memos empty, so a spy never meets
    lists or rows that the test before it left warm."""
    allocation._memo.lists = None
    booleanmodel._memo.pairs = None
