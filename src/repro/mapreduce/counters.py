"""Hadoop-style hierarchical counters.

Jobs increment named counters (grouped, like Hadoop's counter groups); the
runtime aggregates them across tasks and exposes them on the job result.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


def _int_dict() -> Dict[str, int]:
    """Module-level factory so :class:`Counters` stays picklable (a lambda
    default factory would break shipping task counters across processes)."""
    return defaultdict(int)


class Counters:
    """A two-level ``group → name → count`` counter map."""

    def __init__(self) -> None:
        self._groups: Dict[str, Dict[str, int]] = defaultdict(_int_dict)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``group:name``."""
        self._groups[group][name] += amount

    def get(self, group: str, name: str) -> int:
        """Current value of ``group:name`` (0 if never incremented)."""
        return self._groups.get(group, {}).get(name, 0)

    def group(self, group: str) -> Dict[str, int]:
        """A copy of all counters in ``group``."""
        return dict(self._groups.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold ``other``'s counts into this instance."""
        for group, names in other._groups.items():
            target = self._groups[group]
            for name, value in names.items():
                target[name] += value

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Nested plain-dict snapshot (for assertions and reports)."""
        return {group: dict(names) for group, names in self._groups.items()}
