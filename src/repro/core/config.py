"""Configuration objects for FS-Join."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from typing import Optional

from repro.core.pivots import PivotMethod
from repro.errors import ConfigError
from repro.mapreduce.executors import ExecutorKind
from repro.similarity.functions import SimilarityFunction


class JoinMethod(str, enum.Enum):
    """Per-fragment join algorithm (paper Section V-A "Join Algorithms")."""

    LOOP = "loop"
    INDEX = "index"
    PREFIX = "prefix"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FilterConfig:
    """Which of the paper's four filters the fragment join applies.

    StrL-Filter (Lemma 1) is the baseline filter the paper always keeps on
    in Table IV; the three segment-aware filters (Lemmas 2–4) are FS-Join's
    novel contributions and can be toggled for the ablation.

    ``early_verify`` enables PPJoin-style positional upper-bounding inside
    the fragment join's segment merges: the merge is abandoned as soon as
    the remaining suffixes cannot reach the smallest intersection that
    would survive the post-intersection filters.  It acts only where a
    merge runs — the loop join, and prefix-join pairs whose segments are
    not both inside their safe prefix; the index join and whole-prefix
    pairs take the count from the scan and merge nothing.  Join results
    are provably unchanged (the bound only fires on pairs the filters
    would prune anyway); the flag exists so the saved token comparisons
    can be measured.
    """

    strl: bool = True
    segl: bool = True
    segi: bool = True
    segd: bool = True
    early_verify: bool = True

    @staticmethod
    def only(*names: str) -> "FilterConfig":
        """A config with just the named filters on, e.g. ``only("strl", "segd")``;
        ``only()`` turns all four off."""
        valid = {"strl", "segl", "segi", "segd"}
        unknown = set(names) - valid
        if unknown:
            raise ConfigError(f"unknown filter names: {sorted(unknown)}")
        return FilterConfig(**{name: name in names for name in valid})


@dataclass(frozen=True)
class FSJoinConfig:
    """All knobs of an FS-Join run.

    Attributes:
        theta: Similarity threshold in (0, 1].
        func: Similarity function (Jaccard/Dice/Cosine).
        n_vertical: Number of vertical partitions (fragments); the paper
            uses the number of reduce tasks, its pivot count is
            ``n_vertical − 1``.
        pivot_method: How vertical pivots are chosen (Section IV).
        join_method: Per-fragment join algorithm.
        filters: Which filters to apply inside fragments.
        n_horizontal: Number of *base* horizontal (length) partitions; 1
            disables horizontal partitioning (the paper's FS-Join-V).
        pivot_seed: Seed for the Random pivot method.
        executor: Task-execution backend used when ``FSJoin`` (self-join
            or R-S) builds its own cluster
            (``serial``/``thread``/``process``); ``None``
            inherits the :class:`~repro.mapreduce.runtime.ClusterSpec`
            default.  Ignored when an explicit cluster is passed in.
    """

    theta: float
    func: SimilarityFunction = SimilarityFunction.JACCARD
    n_vertical: int = 30
    pivot_method: PivotMethod = PivotMethod.EVEN_TF
    join_method: JoinMethod = JoinMethod.PREFIX
    filters: FilterConfig = field(default_factory=FilterConfig)
    n_horizontal: int = 1
    pivot_seed: int = 0
    executor: Optional[ExecutorKind] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")
        if self.n_vertical < 1:
            raise ConfigError("n_vertical must be >= 1")
        if self.n_horizontal < 1:
            raise ConfigError("n_horizontal must be >= 1 (1 = no horizontal partitioning)")
        # Coerce loose string arguments into the enums.
        object.__setattr__(self, "func", SimilarityFunction(self.func))
        object.__setattr__(self, "join_method", JoinMethod(self.join_method))
        object.__setattr__(self, "pivot_method", PivotMethod(self.pivot_method))
        if self.executor is not None:
            try:
                object.__setattr__(self, "executor", ExecutorKind(self.executor))
            except ValueError:
                valid = ", ".join(k.value for k in ExecutorKind)
                raise ConfigError(
                    f"unknown executor {self.executor!r} (choose from: {valid})"
                ) from None

    @property
    def uses_horizontal(self) -> bool:
        return self.n_horizontal > 1
