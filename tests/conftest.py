"""Shared fixtures."""

import concurrent.futures
import os

import pytest


@pytest.fixture
def pool_requests(monkeypatch):
    """The ``max_workers`` of every process pool started, on a machine of
    four cores; the pools run their items in this process."""
    requests = []

    class InlinePool:
        def __init__(self, max_workers):
            requests.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return requests
