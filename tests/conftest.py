"""Fixtures that more than one test module takes: two cases of `cases.py` as Datasets."""

import pytest

from exactroc import Dataset
from cases import C


@pytest.fixture
def counterexample():
    # one positive and one negative sharing a single score
    return Dataset([C], [C])


@pytest.fixture
def mixed():
    # MIXED_CSV's rows
    return Dataset(["0.5", "0.9"], ["0.5", "0.1"])
