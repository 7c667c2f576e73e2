import numpy as np
import pytest

from dioidclust import Network, nonreciprocal, reciprocal, semi_reciprocal, validate_ultrametric
from dioidclust.oracle import (
    MAX_ORACLE_NODES,
    brute_minimax_cost,
    brute_nonreciprocal,
    brute_reciprocal,
    brute_semi_reciprocal,
    brute_single_linkage,
)

from conftest import sweep8_network, random_network


def test_same_node_costs_zero(sweep8):
    assert brute_minimax_cost(sweep8, "x3", "x3") == 0.0
    with pytest.raises(ValueError, match="max_nodes must be >= 1, got 0"):
        brute_minimax_cost(sweep8, "x3", "x3", max_nodes=0)


def test_sweep8_outer_cycle_reaches_everything_cheaply(sweep8):
    assert brute_minimax_cost(sweep8, "x", "xp") == 1.0
    assert brute_minimax_cost(sweep8, "xp", "x") == 1.0


def test_sweep8_bounded_chains():
    net = sweep8_network()
    # From x to x3: the 3-node chain [x, x1, x3] costs 3, the 4-node
    # [x, x1, x2, x3] costs 2; bounds count nodes including endpoints.
    assert brute_minimax_cost(net, "x", "x3", max_nodes=3) == 3.0
    assert brute_minimax_cost(net, "x", "x3", max_nodes=4) == 2.0
    assert brute_minimax_cost(net, "x1", "x3", max_nodes=2) == 3.0
    assert brute_minimax_cost(net, "x1", "x3", max_nodes=3) == 2.0


def test_bounded_cost_is_monotone_in_max_nodes(rng):
    for _ in range(10):
        net = random_network(rng)
        for src in net.labels:
            for dst in net.labels:
                costs = [
                    brute_minimax_cost(net, src, dst, max_nodes=m)
                    for m in range(1, net.n + 1)
                ]
                assert costs == sorted(costs, reverse=True)
                assert costs[-1] == brute_minimax_cost(net, src, dst)


def test_unreachable_pair_is_infinite():
    net = Network(("p", "q"), np.array([[0.0, 2.0], [np.inf, 0.0]]))
    assert brute_minimax_cost(net, "q", "p") == np.inf


def test_cycle4_brute_methods_match_dioid(cycle4):
    assert np.array_equal(brute_reciprocal(cycle4).dist, reciprocal(cycle4).dist)
    assert np.array_equal(brute_nonreciprocal(cycle4).dist, nonreciprocal(cycle4).dist)


def test_sweep8_semi_reciprocal_sweep():
    net = sweep8_network()
    expected = {2: 4.0, 3: 3.0, 4: 2.0, 5: 1.0}
    for t, value in expected.items():
        u = brute_semi_reciprocal(net, t)
        assert u.value("x", "xp") == value


def test_random_networks_match_dioid(rng):
    for _ in range(15):
        net = random_network(rng)
        assert np.array_equal(brute_reciprocal(net).dist, reciprocal(net).dist)
        assert np.array_equal(brute_nonreciprocal(net).dist, nonreciprocal(net).dist)
        t = int(rng.integers(2, 8))
        assert np.array_equal(brute_semi_reciprocal(net, t).dist, semi_reciprocal(net, t).dist)


def test_quasi_inverse_entries_are_directed_chain_costs(rng):
    from dioidclust import quasi_inverse

    for _ in range(10):
        net = random_network(rng)
        closure = quasi_inverse(net.dissim)
        for i, src in enumerate(net.labels):
            for j, dst in enumerate(net.labels):
                assert closure[i, j] == brute_minimax_cost(net, src, dst)


def test_brute_outputs_are_valid_ultrametrics(rng):
    for _ in range(5):
        net = random_network(rng)
        for u in (brute_reciprocal(net), brute_nonreciprocal(net), brute_semi_reciprocal(net, 3)):
            assert validate_ultrametric(u.dist, 0.0).is_valid


def test_size_guard_refuses_large_networks(rng):
    net = random_network(rng, n=MAX_ORACLE_NODES + 1)
    with pytest.raises(ValueError, match="refuses"):
        brute_reciprocal(net)
    with pytest.raises(ValueError, match="refuses"):
        brute_minimax_cost(net, "n0", "n1")


def test_clustering_oracles_refuse_invalid_networks():
    negative = Network(("a", "b", "c"), [[0, -1, 1], [1, 0, 1], [1, 1, 0]])
    diagonal = Network(("a", "b"), [[5, 1], [1, 0]])
    oracles = (brute_reciprocal, brute_nonreciprocal, lambda net: brute_semi_reciprocal(net, 2), brute_single_linkage)
    for net, finding in ((negative, r"negative entry at \(a, b\): -1$"), (diagonal, r"nonzero diagonal at \(a, a\): 5$")):
        for oracle in oracles:
            with pytest.raises(ValueError, match="^network violates dissimilarity invariants: " + finding):
                oracle(net)
    assert brute_minimax_cost(diagonal, "a", "b") == 1.0  # chain costs stay general


def test_single_linkage_three_node_chain():
    a = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [5.0, 2.0, 0.0]])
    net = Network(("n1", "n2", "n3"), a)
    u = brute_single_linkage(net)
    assert u.value("n1", "n3") == 2.0


def test_single_linkage_rejects_asymmetric(cycle4):
    with pytest.raises(ValueError, match="symmetric"):
        brute_single_linkage(cycle4)


def test_single_linkage_fixes_ultrametrics():
    u = np.array([
        [0.0, 3.0, 5.0],
        [3.0, 0.0, 5.0],
        [5.0, 5.0, 0.0],
    ])
    net = Network(("p", "q", "r"), u)
    assert np.array_equal(brute_single_linkage(net).dist, u)


def test_semi_reciprocal_rejects_bad_t(cycle4):
    with pytest.raises(ValueError, match="t >= 2"):
        brute_semi_reciprocal(cycle4, 1)
