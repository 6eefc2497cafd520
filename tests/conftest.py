"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture()
def default_limit():
    """The default integer string limit of 4300 digits, whatever this process
    started with (``PYTHONINTMAXSTRDIGITS=0`` lifts it)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
