"""Extensions beyond the paper — its Section 6 future-work list, built.

* :mod:`~repro.extensions.objectives` — pluggable mapping objectives
  ("heuristics for different optimization goals");
* :mod:`~repro.extensions.consolidation` — the min-hosts mapper the
  paper names explicitly (registered as ``"consolidation"``);
* :mod:`~repro.extensions.selector` — heuristic-pool selection
  ("a pool of different heuristics that might be selected according
  to the emulated scenario"): a feature rule and a portfolio runner.

The label-setting router (:mod:`repro.routing.labels`) and multi-tenant
shared state (``hmn_map(..., state=...)``) are further extensions that
live with the components they extend.  Admission control over a shared
cluster is :mod:`repro.service` (``repro.api.replay_admissions``,
``repro.api.open_service``).
"""

from repro.extensions.exact import exact_map
from repro.extensions.consolidation import consolidation_map, run_draining, run_packing
from repro.extensions.remap import (
    RemapSummary,
    evacuate_host,
    evacuate_switch,
    extend_mapping,
)
from repro.extensions.objectives import (
    HostsUsed,
    LoadBalance,
    NetworkFootprint,
    Objective,
    Weighted,
)
from repro.extensions.selector import (
    PortfolioResult,
    instance_features,
    portfolio_map,
    recommend_mapper,
)

__all__ = [
    "Objective",
    "LoadBalance",
    "HostsUsed",
    "NetworkFootprint",
    "Weighted",
    "consolidation_map",
    "exact_map",
    "extend_mapping",
    "evacuate_host",
    "evacuate_switch",
    "RemapSummary",
    "run_packing",
    "run_draining",
    "portfolio_map",
    "PortfolioResult",
    "recommend_mapper",
    "instance_features",
]
