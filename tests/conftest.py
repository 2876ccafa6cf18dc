"""Guards that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    # a prime stream's producer thread is joined when the stream ends or is
    # dropped; one still alive here has leaked, whatever test started it
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not leaked, f"threads still alive after the test: {leaked}"
