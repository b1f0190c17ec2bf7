"""Model-parameter extraction from simulated profiles (Section 5.4.5).

The paper estimates best group sizes by profiling ``Baseline`` (for
``T_stall`` and ``T_compute``) and each interleaved implementation at
group size 1 (for ``T_switch``), then applying Inequality 1. This module
automates that procedure against the simulator, so Figure 7's analytical
estimates come from measurement, not hard-coded constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import HASWELL
from repro.interleaving.model import (
    InterleavingParams,
    estimate_group_size,
    params_from_profiles,
)

from repro.analysis.experiments import measure_binary_search
from repro.perf import default_runner

__all__ = ["GroupSizeEstimate", "estimate_best_group_sizes", "switch_points_for"]


@dataclass(frozen=True)
class GroupSizeEstimate:
    """Inequality-1 estimate for one technique."""

    technique: str
    params: InterleavingParams
    estimate: int
    lfb_capped: bool


def switch_points_for(size_bytes: int, element_size: int = 4) -> int:
    """Memory accesses per search = binary-search iterations."""
    return max(1, math.ceil(math.log2(size_bytes // element_size)))


def estimate_best_group_sizes(
    *,
    size_bytes: int = 256 << 20,
    n_lookups: int | None = None,
) -> dict[str, GroupSizeEstimate]:
    """Profile Baseline and each technique at G=1; apply Inequality 1.

    The four profiles run as one sweep, spelled the way Figure 7's grid
    spells its points, so a result cache answers the three G=1 profiles
    Figure 7 has just measured instead of simulating them again.
    """
    techniques = ("GP", "AMAC", "CORO")
    baseline, *profiles = default_runner().map(
        measure_binary_search,
        [{"size_bytes": size_bytes, "technique": "Baseline"}]
        + [
            {"size_bytes": size_bytes, "technique": technique, "group_size": 1}
            for technique in techniques
        ],
        common={"n_lookups": n_lookups},
    )
    switch_points = baseline.n_lookups * switch_points_for(size_bytes)
    lfbs = HASWELL.n_line_fill_buffers
    estimates: dict[str, GroupSizeEstimate] = {}
    for technique, g1 in zip(techniques, profiles):
        params = params_from_profiles(baseline.tmam, g1.tmam, switch_points)
        uncapped = estimate_group_size(baseline.tmam, g1.tmam, switch_points)
        estimates[technique] = GroupSizeEstimate(
            technique=technique,
            params=params,
            estimate=min(uncapped, lfbs),
            lfb_capped=uncapped > lfbs,
        )
    return estimates
