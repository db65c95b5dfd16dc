"""Packaging metadata agrees with what CI actually exercises."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_python_floor_matches_ci_matrix():
    """``requires-python`` names the lowest version the CI matrix runs.

    The serving layer calls ``bisect_left(..., key=...)`` (3.10+), so a
    floor below the matrix would install cleanly and fail at the first
    probe.  Read with regexes: ``tomllib`` is 3.11+.
    """
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M)
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^\s*python-version:\s*\[([^\]]*)\]", workflow, re.M)
    versions = re.findall(r'"([\d.]+)"', matrix)
    assert versions, matrix
    assert _version(floor) == min(_version(v) for v in versions)
