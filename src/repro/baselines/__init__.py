"""Baseline algorithms the paper compares FS-Join against.

* :mod:`repro.baselines.naive` — exact all-pairs join (test oracle only).
* :mod:`repro.baselines.ppjoin` — in-memory PPJoin (prefix + length +
  positional filtering); both a second oracle and the verification kernel
  inside RIDPairsPPJoin's reducers.
* :mod:`repro.baselines.ridpairs` — RIDPairsPPJoin [Vernica et al., 18].
* :mod:`repro.baselines.vsmart` — V-Smart-Join Online-Aggregation [13].
* :mod:`repro.baselines.massjoin` — MassJoin Merge / Merge+Light [4].

Every MapReduce baseline exposes ``run(records) -> PipelineResult`` with the
same result format as FS-Join, so benches and tests treat all algorithms
uniformly.
"""

from repro.baselines.naive import naive_rs_join, naive_self_join
from repro.baselines.allpairs import allpairs
from repro.baselines.ppjoin import ppjoin, ppjoin_plus, ppjoin_self_join
from repro.baselines.ridpairs import RIDPairsPPJoin
from repro.baselines.vsmart import VSmartJoin
from repro.baselines.massjoin import MassJoin

__all__ = [
    "naive_self_join",
    "naive_rs_join",
    "allpairs",
    "ppjoin",
    "ppjoin_plus",
    "ppjoin_self_join",
    "RIDPairsPPJoin",
    "VSmartJoin",
    "MassJoin",
]
