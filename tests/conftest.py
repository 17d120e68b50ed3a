"""Checks that every test of the suite keeps."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more threads than it started with.

    The Monte Carlo's job runner joins every helper thread it starts before
    it returns or raises; this holds that contract over the whole suite, not
    only in the tests that count threads themselves.
    """
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, "a thread started by the test outlives it"
