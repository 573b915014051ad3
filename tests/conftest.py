"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool asked for, in order.

    Each pool is a serial stand-in that runs its jobs in this process, so
    a test can count the pools a run opens without forking any.
    """
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked
