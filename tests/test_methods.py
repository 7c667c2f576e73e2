import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioidclust import (
    MethodSpec,
    MethodSpecError,
    Network,
    convex_combination,
    dioid_power,
    graft_rnr,
    graft_rr_invalid,
    graft_rrmax,
    intermediate,
    nonreciprocal,
    quasi_inverse,
    reciprocal,
    run_method,
    semi_reciprocal,
    single_linkage,
    validate_ultrametric,
)
from dioidclust.methods import GraftCounterexample, run_methods

from conftest import cycle4_network, sweep8_network, method_battery, random_network


def off_diag(n):
    return ~np.eye(n, dtype=bool)


# ---- paper fixtures ---------------------------------------------------------

def test_cycle4_reciprocal_values(cycle4):
    u = reciprocal(cycle4)
    assert u.value("c", "d") == 2.0
    assert u.value("a", "b") == 3.0
    for x, y in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert u.value(x, y) == 5.0


def test_cycle4_nonreciprocal_all_ones(cycle4):
    u = nonreciprocal(cycle4)
    assert (u.dist[off_diag(4)] == 1.0).all()


def test_cycle4_insensitive_to_absent_edge_value():
    for absent in (6.0, 100.0):
        net = cycle4_network(absent)
        assert reciprocal(net).value("a", "b") == 3.0
        assert (nonreciprocal(net).dist[off_diag(4)] == 1.0).all()
        g = graft_rnr(net, 4.0)
        assert g.value("c", "d") == 1.0 and g.value("a", "c") == 5.0


def test_two_node_network_merges_at_max():
    net = Network(("p", "q"), np.array([[0.0, 2.0], [5.0, 0.0]]))
    assert reciprocal(net).value("p", "q") == 5.0


def test_sweep8_reciprocal_and_semi_reciprocal_sweep():
    for absent in (5.0, 100.0):
        net = sweep8_network(absent)
        assert reciprocal(net).value("x", "xp") == 4.0
        assert nonreciprocal(net).value("x", "xp") == 1.0
        for t, expected in ((2, 4.0), (3, 3.0), (4, 2.0), (5, 1.0), (9, 1.0)):
            assert semi_reciprocal(net, t).value("x", "xp") == expected


def test_cycle4_graft_rnr(cycle4):
    u = graft_rnr(cycle4, 4.0)
    assert u.value("c", "d") == 1.0
    assert u.value("a", "b") == 1.0
    for x, y in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert u.value(x, y) == 5.0


def test_graft_rnr_extreme_betas(cycle4):
    upper = reciprocal(cycle4).dist
    lower = nonreciprocal(cycle4).dist
    assert np.array_equal(graft_rnr(cycle4, 5.0).dist, lower)  # beta >= max of reciprocal
    assert np.array_equal(graft_rnr(cycle4, 1.5).dist, upper)  # beta below min off-diagonal


def test_cycle4_graft_rrmax(cycle4):
    u = graft_rrmax(cycle4, 4.0)
    assert u.value("c", "d") == 2.0
    assert u.value("a", "b") == 3.0
    for x, y in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert u.value(x, y) == 4.0
    assert np.array_equal(graft_rrmax(cycle4, 9.0).dist, reciprocal(cycle4).dist)


def test_graft_bounds(rng):
    for _ in range(20):
        net = random_network(rng, n_range=(2, 9))
        lower = nonreciprocal(net).dist
        upper = reciprocal(net).dist
        beta = float(rng.uniform(0.05, 1.2))
        for u in (graft_rnr(net, beta), graft_rrmax(net, beta)):
            assert (lower <= u.dist).all() and (u.dist <= upper).all()


def test_cycle4_graft_rr_invalid_counterexample(cycle4):
    bad = graft_rr_invalid(cycle4, 4.0)
    assert not bad.is_ultrametric
    assert bad.matrix[0, 1] == 3.0  # kept reciprocal value for (a, b)
    assert bad.matrix[0, 2] == 1.0 and bad.matrix[2, 1] == 1.0
    triples = {(x, via, y) for x, via, y, _, _ in bad.report.violations}
    assert ("a", "c", "b") in triples


def test_graft_rr_invalid_is_valid_on_easy_cases(cycle4, rng):
    # symmetric network: both branches coincide
    sym = random_network(rng, n=5, symmetric=True)
    assert graft_rr_invalid(sym, 0.5).is_ultrametric
    # beta above every reciprocal value: pure reciprocal output
    big = graft_rr_invalid(cycle4, 9.0)
    assert big.is_ultrametric
    assert np.array_equal(big.matrix, reciprocal(cycle4).dist)


# ---- convex combinations ----------------------------------------------------

def test_convex_cycle4_half_half_matches_oracle_frozen_fixture(cycle4):
    spec = MethodSpec(
        "convex",
        weights=(0.5, 0.5),
        constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal")),
    )
    u = convex_combination(cycle4, spec)
    # Frozen from the brute-force single-linkage oracle: the combined
    # matrix has (a,b)=2, (c,d)=1.5 and every cross pair stuck at 3.
    assert u.value("a", "b") == 2.0
    assert u.value("c", "d") == 1.5
    for x, y in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert u.value(x, y) == 3.0


def test_convex_degenerate_weights_reduce_to_constituent(cycle4):
    spec = MethodSpec(
        "convex",
        weights=(1.0, 0.0),
        constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal")),
    )
    assert np.array_equal(convex_combination(cycle4, spec).dist, reciprocal(cycle4).dist)


def test_convex_identical_constituents_change_nothing(cycle4):
    spec = MethodSpec(
        "convex",
        weights=(0.25, 0.75),
        constituents=(MethodSpec("nonreciprocal"), MethodSpec("nonreciprocal")),
    )
    assert np.array_equal(convex_combination(cycle4, spec).dist, nonreciprocal(cycle4).dist)


def test_convex_zero_weight_skips_infinite_constituent():
    a = np.array([
        [0.0, 1.0, np.inf],
        [1.0, 0.0, np.inf],
        [np.inf, np.inf, 0.0],
    ])
    net = Network(("p", "q", "r"), a)
    # single-linkage on this symmetric forest has +inf entries; with weight 0
    # they must not poison the reciprocal side.
    spec = MethodSpec(
        "convex",
        weights=(1.0, 0.0),
        constituents=(MethodSpec("reciprocal"), MethodSpec("single-linkage")),
    )
    u = convex_combination(net, spec)
    assert u.value("p", "q") == 1.0
    assert u.value("p", "r") == np.inf


def test_convex_weight_validation():
    r, nr = MethodSpec("reciprocal"), MethodSpec("nonreciprocal")
    with pytest.raises(MethodSpecError, match="sum to 1"):
        MethodSpec("convex", weights=(0.5, 0.6), constituents=(r, nr))
    with pytest.raises(MethodSpecError, match=r"\[0, 1\]"):
        MethodSpec("convex", weights=(1.5, -0.5), constituents=(r, nr))
    with pytest.raises(MethodSpecError, match="two constituents"):
        MethodSpec("convex", weights=(1.0,), constituents=(r,))
    with pytest.raises(MethodSpecError, match="not admissible"):
        MethodSpec(
            "convex",
            weights=(0.5, 0.5),
            constituents=(r, MethodSpec("graft-rr-invalid", beta=1.0)),
        )


def test_convex_flat_differs_from_nested_recursion():
    # Counterexample pinning why the flat k-way sum is its own method: a
    # nested binary combination of the same constituents lands elsewhere.
    u1 = np.array([[0.0, 10.0, 2.0], [10.0, 0.0, 10.0], [2.0, 10.0, 0.0]])
    u2 = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 10.0], [10.0, 10.0, 0.0]])
    u3 = np.array([[0.0, 10.0, 10.0], [10.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    flat = quasi_inverse(0.5 * u1 + 0.25 * u2 + 0.25 * u3)
    nested = quasi_inverse(0.5 * u1 + 0.5 * quasi_inverse(0.5 * u2 + 0.5 * u3))
    assert flat[0, 2] == 6.0
    assert nested[0, 2] == 3.75
    # both restorations are nonetheless valid ultrametrics
    assert validate_ultrametric(flat, 0.0).is_valid
    assert validate_ultrametric(nested, 0.0).is_valid


def test_convex_three_way_and_nested_specs_are_valid(cycle4):
    flat = MethodSpec(
        "convex",
        weights=(0.5, 0.25, 0.25),
        constituents=(
            MethodSpec("reciprocal"),
            MethodSpec("nonreciprocal"),
            MethodSpec("semi-reciprocal", t=3),
        ),
    )
    nested = MethodSpec(
        "convex",
        weights=(0.5, 0.5),
        constituents=(
            MethodSpec("reciprocal"),
            MethodSpec(
                "convex",
                weights=(0.5, 0.5),
                constituents=(MethodSpec("nonreciprocal"), MethodSpec("semi-reciprocal", t=3)),
            ),
        ),
    )
    lower = nonreciprocal(cycle4).dist
    upper = reciprocal(cycle4).dist
    for spec in (flat, nested):
        u = run_method(cycle4, spec)
        assert validate_ultrametric(u.dist, 1e-9).is_valid
        assert (lower - 1e-9 <= u.dist).all() and (u.dist <= upper + 1e-9).all()


# ---- single linkage ---------------------------------------------------------

def test_single_linkage_three_node_chain():
    a = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [5.0, 2.0, 0.0]])
    u = single_linkage(Network(("n1", "n2", "n3"), a))
    assert u.value("n1", "n3") == 2.0


def test_single_linkage_rejects_asymmetric(cycle4):
    with pytest.raises(ValueError, match="symmetric"):
        single_linkage(cycle4)


def test_single_linkage_equals_other_methods_on_symmetric(rng):
    for _ in range(10):
        net = random_network(rng, symmetric=True)
        sl = single_linkage(net).dist
        assert np.array_equal(reciprocal(net).dist, sl)
        assert np.array_equal(nonreciprocal(net).dist, sl)
        assert np.array_equal(semi_reciprocal(net, 3).dist, sl)
        assert np.array_equal(intermediate(net, 2, 3).dist, sl)


def test_single_linkage_of_ultrametric_is_identity(cycle4):
    u = reciprocal(cycle4)
    again = single_linkage(Network(u.labels, u.dist))
    assert np.array_equal(again.dist, u.dist)


# ---- equivalence identities -------------------------------------------------

def test_semi_reciprocal_boundary_parameters(rng):
    for _ in range(15):
        net = random_network(rng, n_range=(2, 10))
        assert np.array_equal(semi_reciprocal(net, 2).dist, reciprocal(net).dist)
        nr = nonreciprocal(net).dist
        for t in (net.n, net.n + 1, net.n + 5):
            assert np.array_equal(semi_reciprocal(net, t).dist, nr)


def test_intermediate_boundary_parameters(rng):
    for _ in range(15):
        net = random_network(rng, n_range=(2, 10))
        assert np.array_equal(intermediate(net, 1, 1).dist, reciprocal(net).dist)
        assert np.array_equal(
            intermediate(net, net.n - 1, net.n - 1).dist, nonreciprocal(net).dist
        )
        t = int(rng.integers(2, 6))
        assert np.array_equal(
            intermediate(net, t - 1, t - 1).dist, semi_reciprocal(net, t).dist
        )


def test_intermediate_swaps_with_transposition(rng):
    for _ in range(10):
        net = random_network(rng)
        transposed = Network(net.labels, net.dissim.T.copy())
        t_fwd, t_bwd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        assert np.array_equal(
            intermediate(net, t_fwd, t_bwd).dist,
            intermediate(transposed, t_bwd, t_fwd).dist,
        )


def test_intermediate_output_is_exactly_symmetric(rng):
    for k in range(60):
        net = random_network(rng, n_range=(2, 9))
        if k % 2:
            # integer weights (ties) with absent edges (+inf, forests)
            a = rng.integers(1, 4, (net.n, net.n)).astype(float)
            a[rng.random(a.shape) < 0.4] = np.inf
            np.fill_diagonal(a, 0.0)
            net = Network(net.labels, a)
        for t_fwd in range(1, net.n + 1):
            for t_bwd in range(1, net.n + 1):
                u = intermediate(net, t_fwd, t_bwd).dist
                assert np.array_equal(u, u.T), (t_fwd, t_bwd)


@st.composite
def hop_networks(draw):
    """Networks of 0 to 8 nodes with integer weights (so ties) and +inf (so forests)."""
    n = draw(st.integers(0, 8))
    cells = st.sampled_from([1.0, 2.0, 3.0, 5.0, np.inf])
    a = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    return Network(tuple(f"n{i}" for i in range(n)), a)


@settings(max_examples=150, deadline=None)
@given(hop_networks())
def test_every_budget_runs_the_one_hop_closure(net):
    a, cap = net.dissim, max(net.n - 1, 1)
    forward = dioid_power(a, cap)
    nr = nonreciprocal(net).dist
    assert np.array_equal(nr, np.maximum(forward, forward.T))
    for t in (max(net.n, 2), net.n + 3):
        assert np.array_equal(semi_reciprocal(net, t).dist, nr)
    # Against the route that squares to every budget and always closes.
    for t_fwd in (1, 2, cap, cap + 1):
        for t_bwd in (1, 2, cap, cap + 1):
            joined = np.maximum(dioid_power(a, min(t_fwd, cap)), dioid_power(a, min(t_bwd, cap)).T)
            u = intermediate(net, t_fwd, t_bwd).dist
            assert np.array_equal(u, quasi_inverse(joined)), (t_fwd, t_bwd)
            if min(t_fwd, t_bwd) >= cap:
                assert np.array_equal(u, nr)
    symmetric = np.maximum(a, a.T)
    assert np.array_equal(single_linkage(Network(net.labels, symmetric)).dist, quasi_inverse(symmetric))


def test_semi_reciprocal_monotone_in_t(rng):
    for _ in range(10):
        net = random_network(rng, n_range=(3, 9))
        previous = semi_reciprocal(net, 2).dist
        for t in range(3, net.n + 2):
            current = semi_reciprocal(net, t).dist
            assert (current <= previous).all()
            previous = current


def test_parameter_validation():
    with pytest.raises(MethodSpecError, match="t >= 2"):
        MethodSpec("semi-reciprocal", t=1)
    with pytest.raises(MethodSpecError, match="t_fwd >= 1"):
        MethodSpec("intermediate", t_fwd=0, t_bwd=2)
    with pytest.raises(MethodSpecError, match="t_fwd >= 1"):
        MethodSpec("intermediate", t_fwd=True, t_bwd=2)
    with pytest.raises(MethodSpecError, match="t_bwd >= 1"):
        MethodSpec("intermediate", t_fwd=2, t_bwd=True)
    with pytest.raises(MethodSpecError, match="beta > 0"):
        MethodSpec("graft-rnr", beta=0.0)
    with pytest.raises(MethodSpecError, match="beta > 0"):
        MethodSpec("graft-rnr", beta=True)
    numpy_beta = MethodSpec("graft-rnr", beta=np.int64(2))
    assert type(numpy_beta.beta) is float and numpy_beta.describe() == "graft-rnr:2"
    pair = (MethodSpec("reciprocal"), MethodSpec("nonreciprocal"))
    for weights in ((True, False), ("0.5", " 0.5 ")):
        with pytest.raises(MethodSpecError, match="weights must be numbers"):
            MethodSpec("convex", weights=weights, constituents=pair)
    with pytest.raises(MethodSpecError, match="not accepted"):
        MethodSpec("reciprocal", t=3)
    with pytest.raises(MethodSpecError, match="unknown method kind"):
        MethodSpec("fancy")


# ---- axioms and the sandwich ------------------------------------------------

def test_sandwich_on_random_networks(rng):
    for _ in range(25):
        net = random_network(rng, n_range=(2, 12))
        lower = nonreciprocal(net).dist
        upper = reciprocal(net).dist
        assert (lower <= upper).all()
        for spec in method_battery():
            u = run_method(net, spec)
            tol = 0.0 if spec.exact else 1e-9
            assert (lower - tol <= u.dist).all(), spec.describe()
            assert (u.dist <= upper + tol).all(), spec.describe()


def test_axiom_of_value_on_two_node_networks(rng):
    for _ in range(25):
        alpha, beta_v = rng.uniform(0.1, 5, 2)
        net = Network(("p", "q"), np.array([[0.0, alpha], [beta_v, 0.0]]))
        expected = max(alpha, beta_v)
        for spec in method_battery():
            u = run_method(net, spec)
            tol = 0.0 if spec.exact else 1e-9
            assert abs(u.dist[0, 1] - expected) <= tol, spec.describe()
            assert abs(u.dist[1, 0] - expected) <= tol, spec.describe()


def scaled_copy(net, factor):
    return Network(net.labels, net.dissim * factor)


def merged_copy(net, rng):
    """Random surjection onto fewer nodes; dissimilarity is the preimage minimum."""
    m = int(rng.integers(1, net.n + 1))
    assignment = list(rng.integers(0, m, net.n))
    for block in range(m):  # force surjectivity
        if block not in assignment:
            assignment[int(rng.integers(0, net.n))] = block
    assignment = [int(v) for v in assignment]
    m = len(set(assignment))
    relabel = {old: new for new, old in enumerate(sorted(set(assignment)))}
    assignment = [relabel[v] for v in assignment]
    a = np.full((m, m), np.inf)
    for i in range(net.n):
        for j in range(net.n):
            y, z = assignment[i], assignment[j]
            a[y, z] = min(a[y, z], net.dissim[i, j])
    reduced = Network(tuple(f"m{k}" for k in range(m)), a)
    return reduced, assignment


def test_axiom_of_transformation_scaling(rng):
    for _ in range(15):
        net = random_network(rng, n_range=(2, 8))
        factor = float(rng.uniform(0.2, 0.95))
        smaller = scaled_copy(net, factor)
        for spec in method_battery():
            u_big = run_method(net, spec).dist
            u_small = run_method(smaller, spec).dist
            tol = 0.0 if spec.exact else 1e-9
            assert (u_small <= u_big + tol).all(), spec.describe()


def test_axiom_of_transformation_node_merging(rng):
    for _ in range(15):
        net = random_network(rng, n_range=(2, 8))
        reduced, assignment = merged_copy(net, rng)
        for spec in method_battery():
            u_x = run_method(net, spec).dist
            u_y = run_method(reduced, spec).dist
            tol = 0.0 if spec.exact else 1e-9
            for i in range(net.n):
                for j in range(net.n):
                    assert u_y[assignment[i], assignment[j]] <= u_x[i, j] + tol, spec.describe()


def test_every_method_output_is_a_valid_ultrametric(rng):
    for _ in range(10):
        net = random_network(rng, n_range=(2, 10))
        for spec in method_battery():
            u = run_method(net, spec)
            tol = 0.0 if spec.exact else 1e-9
            report = validate_ultrametric(u.dist, tol, labels=u.labels)
            assert report.is_valid, (spec.describe(), report.lines())


# ---- dispatch and provenance ------------------------------------------------

def test_run_method_dispatch_and_provenance(cycle4):
    u = run_method(cycle4, MethodSpec("semi-reciprocal", t=3))
    assert u.provenance.method == "semi-reciprocal:3"
    assert u.provenance.n == 4
    assert np.array_equal(u.dist, semi_reciprocal(cycle4, 3).dist)
    bad = run_method(cycle4, MethodSpec("graft-rr-invalid", beta=4.0))
    assert isinstance(bad, GraftCounterexample)
    # Results come back in spec order; equal flat specs share one run.
    graft, upper, again = run_methods(cycle4, [MethodSpec("graft-rnr", beta=4.0), MethodSpec("reciprocal"),
                                               MethodSpec("graft-rnr", beta=4.0)])
    assert again is graft and upper.provenance.method == "reciprocal"
    assert np.array_equal(graft.dist, graft_rnr(cycle4, 4.0).dist)


def test_methods_reject_invalid_networks():
    broken = Network(("p", "q"), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError, match="invariants"):
        reciprocal(broken)


def test_single_node_network_is_trivial():
    net = Network(("only",), np.zeros((1, 1)))
    for spec in method_battery() + [MethodSpec("single-linkage")]:
        u = run_method(net, spec)
        assert u.dist.shape == (1, 1) and u.dist[0, 0] == 0.0
        assert u.provenance.method == spec.describe()


def test_every_method_runs_on_the_empty_network():
    net = Network((), np.zeros((0, 0)))
    for spec in method_battery() + [MethodSpec("single-linkage")]:
        u = run_method(net, spec)
        assert u.dist.shape == (0, 0) and u.provenance.method == spec.describe()
    assert graft_rr_invalid(net, 1.0).is_ultrametric


def test_single_linkage_reports_an_invalid_network_before_an_asymmetric_one():
    broken = Network(("p", "q"), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError, match="invariants"):
        single_linkage(broken)


def test_disconnected_network_keeps_infinite_entries():
    a = np.array([
        [0.0, 1.0, np.inf],
        [2.0, 0.0, np.inf],
        [np.inf, np.inf, 0.0],
    ])
    net = Network(("p", "q", "r"), a)
    u = reciprocal(net)
    assert u.value("p", "q") == 2.0
    assert u.value("p", "r") == np.inf
    assert validate_ultrametric(u.dist, 0.0).is_valid
