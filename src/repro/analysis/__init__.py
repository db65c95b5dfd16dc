"""Measurement helpers for the paper's comparative claims.

* :mod:`repro.analysis.loadbalance` — reduce-load skew metrics (Table I's
  load-balancing column, Fig. 11's pivot comparison).
* :mod:`repro.analysis.duplication` — duplication factors (Table I's
  duplication-free column).
* :mod:`repro.analysis.report` — plain-text table rendering.
"""

from repro.analysis.loadbalance import LoadBalanceReport, load_balance_report
from repro.analysis.duplication import DuplicationReport, duplication_report
from repro.analysis.explain import explain
from repro.analysis.report import (
    format_phase_breakdown,
    format_table,
    phase_breakdown,
)

__all__ = [
    "LoadBalanceReport",
    "load_balance_report",
    "DuplicationReport",
    "duplication_report",
    "explain",
    "format_table",
    "format_phase_breakdown",
    "phase_breakdown",
]
