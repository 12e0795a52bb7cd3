"""Tests for the synthetic Twitter baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.datasets.graphs import largest_connected_component_fraction
from repro.datasets.twitter import (
    TWITTER_2007_MEAN_DOWNTIME,
    TwitterBaselines,
    _choice_rows,
    build_twitter_follower_graph,
    twitter_daily_downtime,
)
from reference.twitter import build_twitter_follower_graph as reference_follower_graph


class TestDowntimeBaseline:
    def test_mean_matches_published_value(self):
        series = twitter_daily_downtime(300, seed=1)
        assert np.mean(series) == pytest.approx(TWITTER_2007_MEAN_DOWNTIME, rel=0.05)

    def test_values_are_valid_fractions(self):
        series = twitter_daily_downtime(200, seed=2)
        assert all(0.0 <= value <= 0.95 for value in series)

    def test_custom_mean(self):
        series = twitter_daily_downtime(200, seed=3, mean_downtime=0.05)
        assert np.mean(series) == pytest.approx(0.05, rel=0.1)

    def test_reproducible(self):
        assert twitter_daily_downtime(50, seed=9) == twitter_daily_downtime(50, seed=9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            twitter_daily_downtime(0)
        with pytest.raises(ConfigurationError):
            twitter_daily_downtime(10, mean_downtime=1.5)


class TestFollowerGraphBaseline:
    def test_size_and_connectivity(self):
        graph = build_twitter_follower_graph(n_users=1200, seed=4)
        assert graph.number_of_nodes() == 1200
        # the paper's Twitter LCC covers ~95% of accounts
        assert largest_connected_component_fraction(graph) > 0.9

    def test_heavy_tailed_in_degree(self):
        graph = build_twitter_follower_graph(n_users=1500, seed=5)
        in_degrees = sorted((d for _, d in graph.in_degree()), reverse=True)
        assert in_degrees[0] > 10 * np.median([d for d in in_degrees if d > 0])

    def test_robust_to_removing_top_decile(self):
        graph = build_twitter_follower_graph(n_users=1000, seed=6)
        ranked = sorted(graph.degree(), key=lambda kv: kv[1], reverse=True)
        survivors = graph.copy()
        survivors.remove_nodes_from([node for node, _ in ranked[:100]])
        fraction = largest_connected_component_fraction(survivors)
        # the paper reports ~80% of users still connected after removing the top 10%
        assert fraction > 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            build_twitter_follower_graph(n_users=5)
        with pytest.raises(ConfigurationError):
            build_twitter_follower_graph(n_users=100, mean_out_degree=0)


class TestFollowerGraphMatchesReference:
    """The block-drawn graph equals the per-user ``rng.choice`` loop exactly."""

    @pytest.mark.parametrize(
        "n_users, seed",
        # 10 and 12 users: rows of up to n-1 targets, so re-draws are certain
        [(10, 0), (12, 3), (40, 1), (300, 5), (1500, 6), (5000, 2015)],
    )
    def test_identical_node_order_and_edge_lists(self, n_users, seed):
        expected = reference_follower_graph(n_users=n_users, seed=seed)
        graph = build_twitter_follower_graph(n_users=n_users, seed=seed)
        assert list(graph.nodes) == list(expected.nodes)
        assert list(graph.edges) == list(expected.edges)
        assert list(graph.in_edges) == list(expected.in_edges)

    def test_rows_replay_generator_choice_through_redraws(self):
        # one index holds half the mass: every row of 30+ out of 50 repeats
        # it in its first round, and most need several re-draw rounds
        probabilities = np.full(50, 0.5 / 49)
        probabilities[7] = 0.5
        sizes = [5, 30, 1, 49, 12, 3, 50, 2]
        rng = np.random.default_rng(3)
        expected = [rng.choice(50, k, replace=False, p=probabilities) for k in sizes]
        block_rng = np.random.default_rng(3)
        rows = _choice_rows(block_rng, probabilities, sizes)
        assert [row.tolist() for row in rows] == [row.tolist() for row in expected]
        assert block_rng.bit_generator.state == rng.bit_generator.state


class TestBundle:
    def test_generate(self):
        baselines = TwitterBaselines.generate(days=60, n_users=500, seed=11)
        assert len(baselines.daily_downtime) == 60
        assert baselines.follower_graph.number_of_nodes() == 500
        assert baselines.mean_downtime == pytest.approx(TWITTER_2007_MEAN_DOWNTIME, rel=0.05)
