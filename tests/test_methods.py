import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioidclust.methods

from dioidclust import (
    MethodSpec,
    MethodSpecError,
    Network,
    Ultrametric,
    UsesTable,
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
from dioidclust.methods import GraftCounterexample, parse_method_spec, run_methods

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


def test_graft_rr_invalid_matrix_is_read_only(cycle4):
    bad = graft_rr_invalid(cycle4, 4.0)
    assert bad.matrix.flags.writeable is False
    with pytest.raises(ValueError):
        bad.matrix[0, 1] = 0.5
    assert bad.matrix[0, 1] == 3.0


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
    with pytest.raises(MethodSpecError, match="3 weights for 2 constituents"):
        MethodSpec("convex", weights=(0.5, 0.25, 0.25), constituents=(r, nr))
    with pytest.raises(MethodSpecError, match="expected a convex spec, got reciprocal"):
        convex_combination(cycle4_network(), r)
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
    # describe() could not write these budgets back, in full digits.
    for budget in (10**5000, -(10**5000)):
        with pytest.raises(MethodSpecError, match="semi-reciprocal t has too many digits to write"):
            MethodSpec("semi-reciprocal", t=budget)
        with pytest.raises(MethodSpecError, match="intermediate t_bwd has too many digits to write"):
            MethodSpec("intermediate", t_fwd=2, t_bwd=budget)
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


def _count_results(monkeypatch) -> list:
    """Record each Ultrametric that methods builds, in order."""
    built, real = [], dioidclust.methods.Ultrametric

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dioidclust.methods, "Ultrametric", counted)
    return built


def test_parts_stay_matrices_one_result_per_returned_method(cycle4, monkeypatch):
    # Parts, the grafts' two extremes and the convex constituents, are never results.
    text = "convex:0.5*reciprocal+0.5*semi-reciprocal:3"
    built = _count_results(monkeypatch)
    graft = graft_rnr(cycle4, 4.0)
    assert len(built) == 1 and built[0] is graft and graft.provenance.method == "graft-rnr:4"
    built.clear()
    convex = run_method(cycle4, parse_method_spec(text))
    assert len(built) == 1 and built[0] is convex and convex.provenance.method == text


def test_compare_shaped_run_builds_one_result_per_distinct_returned_spec(cycle4, monkeypatch):
    specs = [parse_method_spec(text) for text in ("reciprocal", "graft-rnr:4", "graft-rrmax:4",
                                                  "convex:0.5*reciprocal+0.5*nonreciprocal")]
    built = _count_results(monkeypatch)
    results = run_methods(cycle4, [*specs, MethodSpec("nonreciprocal"), MethodSpec("reciprocal")])
    assert len(built) == 5 and all(r is u for r, u in zip(results, [*built, built[0]], strict=True))
    assert [u.provenance.method for u in built] == [
        "reciprocal", "graft-rnr:4", "graft-rrmax:4", "convex:0.5*reciprocal+0.5*nonreciprocal", "nonreciprocal"]


def test_methods_reject_invalid_networks():
    broken = Network(("p", "q"), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError, match=r"invariants: negative entry at \(q, p\): -0.5$"):
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
    with pytest.raises(ValueError, match=r"invariants: negative entry at \(q, p\): -0.5$"):
        single_linkage(broken)
    with pytest.raises(ValueError, match="needs a symmetric network"):
        single_linkage(Network(("p", "q"), np.array([[0.0, 0.5], [1.0, 0.0]])))


def test_single_linkage_refuses_an_asymmetric_network_before_any_closure(monkeypatch):
    calls = []
    monkeypatch.setattr(dioidclust.methods, "_hop_closures", lambda a, pairs: calls.append(set(pairs)))
    net = Network(("p", "q"), np.array([[0.0, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="needs a symmetric network"):
        single_linkage(net)
    with pytest.raises(ValueError, match="needs a symmetric network"):
        convex_combination(net, parse_method_spec("convex:0.5*reciprocal+0.5*single-linkage"))
    assert calls == []


def test_single_linkage_checks_a_valid_symmetric_network_once(monkeypatch):
    import dioidclust.methods

    checks, check = [], dioidclust.methods._require_valid
    monkeypatch.setattr(dioidclust.methods, "_require_valid", lambda net: checks.append(net) or check(net))
    net = Network(("p", "q", "r"), np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]))
    assert single_linkage(net).value("p", "r") == 2.0
    assert checks == [net]


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


def test_only_a_directed_closure_runs_floyd_warshall(sweeps, rng):
    # A sweep run in place on its own operands is the Floyd-Warshall closure; a product
    # sweeps into a fresh matrix. Every symmetric closure takes the tree kernel.
    net = random_network(rng, n=8)
    symmetric = random_network(rng, n=8, symmetric=True)
    runs = [(net, "reciprocal", 0), (net, "semi-reciprocal:3", 0), (net, "intermediate:2,4", 0),
            (symmetric, "single-linkage", 0), (net, "convex:0.5*reciprocal+0.5*semi-reciprocal:3", 0),
            (net, "nonreciprocal", 1), (symmetric, "nonreciprocal", 0)]
    for network, text, count in runs:
        sweeps.clear()
        run_method(network, parse_method_spec(text))
        assert sum(sweeps) == count, text


def test_one_run_methods_call_closes_a_network_once(sweeps, rng):
    # Every budget at the clamp of 127 hops takes the chain's one Floyd-Warshall closure.
    net = random_network(rng, n=128)
    specs = [parse_method_spec(text) for text in ("nonreciprocal", "semi-reciprocal:200", "intermediate:127,3",
                                                  "intermediate:99999999999999999999,3")]
    alone = [run_method(net, spec).dist for spec in specs]
    sweeps.clear()
    together = run_methods(net, specs)
    assert sweeps.count(True) == 1 and sweeps.count(False) == 2  # and A^2, A * A^2 for the budget 3
    for spec, u, v in zip(specs, together, alone):
        assert u.dist.view(np.uint64).tolist() == v.view(np.uint64).tolist(), spec.describe()


def test_every_sweep_runs_in_one_public_product_or_closure_call(monkeypatch, sweeps, rng):
    # A hook on dioid's own dioid_product and quasi_inverse, as an outside tracer sets one,
    # sees every product and every Floyd-Warshall closure: the hop powers', dioid_power's and
    # the validation square's, all swept on ranks, included.
    import dioidclust.dioid as dioid

    depth, inside = [0], []

    def hook(fn):
        def hooked(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return hooked

    for name in ("dioid_product", "quasi_inverse"):
        monkeypatch.setattr(dioid, name, hook(getattr(dioid, name)))
    sweep = dioid._min_max_sweep
    monkeypatch.setattr(dioid, "_min_max_sweep", lambda *args: inside.append(depth[0]) or sweep(*args))
    net = random_network(rng, n=32)
    run_methods(net, [parse_method_spec(text) for text in ("nonreciprocal", "semi-reciprocal:5", "intermediate:31,3")])
    dioid_power(net.dissim, 6)
    assert not validate_ultrametric(net.dissim, 0.0).is_valid  # one square of the entries' ranks
    assert True in sweeps and False in sweeps and inside == [1] * len(sweeps)


def test_direct_hop_call_keeps_no_squares():
    import tracemalloc

    # A directed path changes until A^(n-1), so keeping its squares would keep six of them. A
    # direct call and the CLI's run_method keep none, within dioid_power's own bound of eight matrices.
    n = 64
    a = 1000.0 + np.arange(n * n, dtype=float).reshape(n, n)  # every entry distinct
    np.fill_diagonal(a, 0.0)
    a[np.arange(n - 1), np.arange(1, n)] = np.arange(1, n)
    net = Network(tuple(str(i) for i in range(n)), a)
    for run in (lambda: semi_reciprocal(net, n - 2), lambda: run_method(net, MethodSpec("semi-reciprocal", t=n - 2))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * a.nbytes


def test_one_run_methods_call_shares_one_power_chain(sweeps, rng, monkeypatch):
    import dioidclust.dioid

    net = random_network(rng, n=12)
    specs = [parse_method_spec(text) for text in ("semi-reciprocal:3", "semi-reciprocal:6", "intermediate:2,4")]
    alone = [run_method(net, spec).dist for spec in specs]
    calls, hop_powers = [], dioidclust.dioid._hop_powers
    monkeypatch.setattr(dioidclust.dioid, "_hop_powers", lambda a, hops: calls.append(set(hops)) or hop_powers(a, hops))
    sweeps.clear()
    together = run_methods(net, specs)
    # A^2, A^4 and A * A^4 for the budgets 2, 5, 2 and 4, all below the clamp at 11 hops.
    assert len(sweeps) <= 3 and not any(sweeps) and calls == [{2, 4, 5}]
    for spec, u, v in zip(specs, together, alone):
        assert u.dist.view(np.uint64).tolist() == v.view(np.uint64).tolist(), spec.describe()
    # Nothing outlives the call: a later call builds its powers again.
    sweeps.clear()
    semi_reciprocal(net, 6)
    assert sweeps == [False] * 3  # A^2, A^4 and A * A^4


def test_equal_budget_pairs_close_once(rng, monkeypatch):
    import dioidclust.dioid

    net = random_network(rng, n=12)
    assert not net.is_symmetric()
    specs = [parse_method_spec(text) for text in ("reciprocal", "semi-reciprocal:2", "intermediate:1,1")]
    alone = [run_method(net, spec).dist for spec in specs]
    calls, prim = [], dioidclust.dioid._prim_closure
    monkeypatch.setattr(dioidclust.dioid, "_prim_closure", lambda a: calls.append(len(a)) or prim(a))
    together = run_methods(net, specs)
    assert calls == [12]  # the one (1, 1) pair, closed once for all three
    for spec, u, v in zip(specs, together, alone):
        assert u.dist.view(np.uint64).tolist() == v.view(np.uint64).tolist(), spec.describe()


@pytest.mark.parametrize("n", [1, 2])
def test_two_nodes_or_fewer_take_no_closure(n, sweeps, monkeypatch):
    import dioidclust.dioid

    # A is its own closure at n <= 2, so every budget maps to A and every pair to max(A, Aᵀ).
    a = np.array([[-0.0, 2.0], [3.0, 0.0]])[:n, :n]
    net = Network(tuple("pq"[:n]), a)
    calls, prim = [], dioidclust.dioid._prim_closure
    monkeypatch.setattr(dioidclust.dioid, "_prim_closure", lambda a: calls.append(len(a)) or prim(a))
    texts = ("nonreciprocal", "semi-reciprocal:5", "intermediate:1,9", "reciprocal")
    specs = [parse_method_spec(text) for text in texts]
    results = run_methods(net, specs)
    assert calls == [] and sweeps == []
    expected = np.maximum(a, a.T).view(np.uint64).tolist()
    assert expected[0][0] == np.array(-0.0).view(np.uint64)
    for spec, u in zip(specs, results):
        assert u.dist.view(np.uint64).tolist() == expected, spec.describe()


def test_concurrent_calls_on_one_network_agree(rng):
    from concurrent.futures import ThreadPoolExecutor

    net = random_network(rng, n=24)
    spec_lists = [[parse_method_spec(f"semi-reciprocal:{t}"), parse_method_spec("intermediate:2,5")] for t in range(2, 10)]
    serial = [[u.dist.tobytes() for u in run_methods(net, specs)] for specs in spec_lists]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda specs: [u.dist.tobytes() for u in run_methods(net, specs)], spec_lists))
    assert threaded == serial



@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("kind", ["Network", "Ultrametric", "UsesTable", "GraftCounterexample"])
def test_array_holding_values_compare_by_identity(kind, n):
    # Their ndarray fields have no truth value at n >= 2, so equality is identity at every n.
    labels, m = tuple("pq"[:n]), np.ones((n, n)) - np.eye(n)
    build = {"Network": lambda: Network(labels, m.copy()),
             "Ultrametric": lambda: Ultrametric(labels, m.copy()),
             "UsesTable": lambda: UsesTable(labels, m.copy()),
             "GraftCounterexample": lambda: GraftCounterexample(labels, m.copy(), 1.0, validate_ultrametric(m, 0.0))}[kind]
    x, y = build(), build()
    assert x == x and not x != x
    assert x != y and not x == y
    assert len({x, y}) == 2 and hash(x) == hash(x)
