"""Run the executable examples embedded in public docstrings."""

from __future__ import annotations

import doctest

import pytest

import repro.cluster
import repro.core.fsjoin

MODULES = [
    repro.cluster,
    repro.core.fsjoin,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its docstring examples"
    assert result.failed == 0
