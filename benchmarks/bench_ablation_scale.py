"""Ablation — shape stability across scenario scales.

The reproduction runs at a reduced population scale; this ablation checks
that the headline concentration metrics (the claims every other figure
builds on) are stable as the synthetic population grows, i.e. that the
reported shapes are not artefacts of one particular scale.
"""

from __future__ import annotations

import numpy as np

from repro.fediverse import ScenarioConfig, ScenarioGenerator
from repro.reporting import format_percentage, format_table
from repro.stats.distributions import pareto_share
from repro.stats.summary import gini_coefficient

from benchmarks.conftest import emit

SCALES = (0.5, 1.0, 2.0)


def test_ablation_scale_stability(benchmark):
    def run():
        results = {}
        for scale in SCALES:
            config = ScenarioConfig.tiny(seed=17).scaled(scale)
            scenario = ScenarioGenerator(config).generate()
            users = np.bincount(scenario.user_instance, minlength=scenario.n_instances).tolist()
            results[scale] = {
                "instances": scenario.n_instances,
                "users": scenario.n_users,
                "top10_user_share": pareto_share(users, 0.10),
                "gini": gini_coefficient(users),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            scale,
            results[scale]["instances"],
            results[scale]["users"],
            format_percentage(results[scale]["top10_user_share"]),
            round(results[scale]["gini"], 2),
        ]
        for scale in SCALES
    ]
    emit(
        "Ablation — concentration metrics across scenario scales",
        format_table(["scale", "instances", "users", "top-10% user share", "user Gini"], rows),
    )

    shares = [results[scale]["top10_user_share"] for scale in SCALES]
    ginis = [results[scale]["gini"] for scale in SCALES]
    # concentration is visible at every scale and grows (towards the paper's
    # 4,328-instance values) as the population grows — it is not an artefact
    # of one particular scenario size
    assert all(share > 0.15 for share in shares)
    assert all(g > 0.35 for g in ginis)
    assert shares == sorted(shares)
    assert ginis == sorted(ginis)
