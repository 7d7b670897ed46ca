"""Assertions shared by more than one test module."""

import dataclasses

import numpy as np

from repro.boosting.simulation import BoostingRunResult


def assert_runs_equal(got: BoostingRunResult, want: BoostingRunResult) -> None:
    """Every field equal, arrays element for element."""
    for field in dataclasses.fields(BoostingRunResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
