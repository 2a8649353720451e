"""The paper's contributions: distributed wavelet thresholding.

* :mod:`repro.core.partitioning` — locality-preserving error-tree splits;
* :mod:`repro.core.dp_framework` — the DP parallelization framework
  (Algorithm 1) and DMHaarSpace;
* :mod:`repro.core.dindirect` — DIndirectHaar (Algorithm 2, distributed);
* :mod:`repro.core.dgreedy` — DGreedyAbs / DGreedyRel (Algorithms 3-6);
* :mod:`repro.core.conventional_dist` — CON, Send-V, Send-Coef, H-WTopk;
* :mod:`repro.core.thresholding` — the :func:`build_synopsis` facade.
"""

from repro.core.conventional_dist import (
    con_synopsis,
    h_wtopk_synopsis,
    send_coef_synopsis,
    send_v_synopsis,
)
from repro.core.dgreedy import d_greedy_abs, d_greedy_rel
from repro.core.dindirect import d_indirect_haar
from repro.core.dp_framework import (
    LayeredDPDriver,
    dm_haar_space,
    resolve_layer_plan,
)
from repro.core.layer_planner import (
    WorkModel,
    plan_layers_auto,
    predict_plan_seconds,
)
from repro.core.partitioning import (
    Layer,
    LayerPlan,
    SubtreeSpec,
    dp_layers,
    local_to_global,
    parse_layer_plan,
    root_base_partition,
)
from repro.core.thresholding import ALGORITHMS, build_synopsis

__all__ = [
    "ALGORITHMS",
    "Layer",
    "LayerPlan",
    "LayeredDPDriver",
    "SubtreeSpec",
    "WorkModel",
    "build_synopsis",
    "con_synopsis",
    "d_greedy_abs",
    "d_greedy_rel",
    "d_indirect_haar",
    "dm_haar_space",
    "dp_layers",
    "h_wtopk_synopsis",
    "local_to_global",
    "parse_layer_plan",
    "plan_layers_auto",
    "predict_plan_seconds",
    "resolve_layer_plan",
    "root_base_partition",
    "send_coef_synopsis",
    "send_v_synopsis",
]
