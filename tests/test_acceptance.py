"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Tolerances are pinned here: exact equality for every pure min/max
method, 1e-9 wherever convex combinations mix in ordinary arithmetic, and
5e-4 for the published three-decimal sector-table resolutions.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from dioidclust import (
    MethodSpec,
    Network,
    cut_at_resolution,
    dioid_power,
    dioid_product,
    from_dendrogram,
    from_uses_table,
    graft_rnr,
    graft_rr_invalid,
    intermediate,
    load_uses_table,
    nonreciprocal,
    reciprocal,
    run_method,
    semi_reciprocal,
    single_linkage,
    to_dendrogram,
    validate_ultrametric,
)
from dioidclust.exports import dendrogram_json, newick
from dioidclust.oracle import brute_nonreciprocal, brute_reciprocal, brute_semi_reciprocal

from conftest import DATA, cycle4_network, sweep8_network, method_battery, random_network

CONVEX_TOL = 1e-9
SECTOR_TOL = 5e-4


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    stamp = f"({elapsed:.2f}s)"
    if budget is not None and elapsed > budget:
        print(f"criterion {number:02d} FAIL: {description} {stamp} exceeded {budget}s")
        raise AssertionError(f"runtime bound exceeded: {elapsed:.2f}s > {budget}s")
    print(f"criterion {number:02d} PASS: {description} {stamp}")


def spec_tolerance(spec):
    return 0.0 if spec.exact else CONVEX_TOL


def test_criterion_01_cycle4_exactness():
    with criterion(1, "directed 4-cycle fixture exactness (reciprocal/nonreciprocal/graft)", budget=1.0):
        net = cycle4_network()
        r = reciprocal(net)
        assert r.value("c", "d") == 2.0 and r.value("a", "b") == 3.0
        for pair in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            assert r.value(*pair) == 5.0
        nr = nonreciprocal(net)
        assert (nr.dist[~np.eye(4, dtype=bool)] == 1.0).all()
        g = graft_rnr(net, 4.0)
        assert g.value("c", "d") == 1.0 and g.value("a", "b") == 1.0
        for pair in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            assert g.value(*pair) == 5.0


def test_criterion_02_sweep8_semi_reciprocal_sweep():
    with criterion(2, "8-node loop-budget sweep 4/3/2/1", budget=1.0):
        net = sweep8_network()
        for t, expected in ((2, 4.0), (3, 3.0), (4, 2.0), (5, 1.0), (6, 1.0), (9, 1.0)):
            assert semi_reciprocal(net, t).value("x", "xp") == expected


def test_criterion_03_invalid_graft_counterexample():
    with criterion(3, "invalid R/R grafting breaks the strong triangle inequality"):
        bad = graft_rr_invalid(cycle4_network(), 4.0)
        assert not bad.is_ultrametric
        assert bad.matrix[0, 1] == 3.0
        assert bad.matrix[0, 2] == 1.0 and bad.matrix[2, 1] == 1.0
        entries = {(x, via, y): (got, bound) for x, via, y, got, bound in bad.report.violations}
        assert entries[("a", "c", "b")] == (3.0, 1.0)


def test_criterion_04_sandwich_bounds():
    with criterion(4, "sandwich bounds on 200 random networks, all methods", budget=30.0):
        rng = np.random.default_rng(4)
        specs = method_battery()
        for _ in range(200):
            net = random_network(rng, n_range=(2, 12))
            lower = nonreciprocal(net).dist
            upper = reciprocal(net).dist
            for spec in specs:
                u = run_method(net, spec).dist
                tol = spec_tolerance(spec)
                assert (lower - tol <= u).all() and (u <= upper + tol).all(), spec.describe()


def test_criterion_05_oracle_equivalence():
    with criterion(5, "oracle equivalence on 100 random networks, n <= 7, t in [2, 7]", budget=60.0):
        rng = np.random.default_rng(5)
        for _ in range(100):
            net = random_network(rng, n_range=(2, 7))
            assert np.array_equal(brute_reciprocal(net).dist, reciprocal(net).dist)
            assert np.array_equal(brute_nonreciprocal(net).dist, nonreciprocal(net).dist)
            for t in range(2, 8):
                assert np.array_equal(
                    brute_semi_reciprocal(net, t).dist, semi_reciprocal(net, t).dist
                ), f"t={t}"


def test_criterion_06_axioms():
    with criterion(6, "axiom of value (50 two-node nets) and transformation (50 nets)"):
        rng = np.random.default_rng(6)
        specs = method_battery()
        for _ in range(50):
            alpha, beta = rng.uniform(0.05, 3.0, 2)
            two = Network(("p", "q"), np.array([[0.0, alpha], [beta, 0.0]]))
            for spec in specs:
                u = run_method(two, spec).dist
                tol = spec_tolerance(spec)
                assert abs(u[0, 1] - max(alpha, beta)) <= tol, spec.describe()
        for _ in range(50):
            net = random_network(rng, n_range=(2, 7))
            factor = float(rng.uniform(0.2, 0.95))
            shrunk = Network(net.labels, net.dissim * factor)
            merged, assignment = _merge_nodes(net, rng)
            for spec in specs:
                tol = spec_tolerance(spec)
                original = run_method(net, spec).dist
                assert (run_method(shrunk, spec).dist <= original + tol).all(), spec.describe()
                reduced = run_method(merged, spec).dist
                for i in range(net.n):
                    for j in range(net.n):
                        assert reduced[assignment[i], assignment[j]] <= original[i, j] + tol


def _merge_nodes(net, rng):
    m = int(rng.integers(1, net.n + 1))
    assignment = [int(v) for v in rng.integers(0, m, net.n)]
    for block in range(m):
        if block not in assignment:
            assignment[int(rng.integers(0, net.n))] = block
    relabel = {old: new for new, old in enumerate(sorted(set(assignment)))}
    assignment = [relabel[v] for v in assignment]
    m = len(set(assignment))
    a = np.full((m, m), np.inf)
    for i in range(net.n):
        for j in range(net.n):
            a[assignment[i], assignment[j]] = min(
                a[assignment[i], assignment[j]], net.dissim[i, j]
            )
    return Network(tuple(f"m{k}" for k in range(m)), a), assignment


def test_criterion_07_validity_and_idempotency():
    with criterion(7, "every method output is a valid, dioid-idempotent ultrametric"):
        rng = np.random.default_rng(7)
        nets = [cycle4_network(), sweep8_network()] + [
            random_network(rng, n_range=(2, 10)) for _ in range(30)
        ]
        for net in nets:
            for spec in method_battery():
                u = run_method(net, spec).dist
                tol = spec_tolerance(spec)
                assert validate_ultrametric(u, tol).is_valid, spec.describe()
                assert np.array_equal(dioid_product(u, u), u), spec.describe()


def test_criterion_08_equivalence_identities():
    with criterion(8, "parameter-boundary identities and symmetric-network collapse"):
        rng = np.random.default_rng(8)
        for _ in range(40):
            net = random_network(rng, n_range=(2, 10))
            r = reciprocal(net).dist
            nr = nonreciprocal(net).dist
            assert np.array_equal(semi_reciprocal(net, 2).dist, r)
            for t in (net.n, net.n + 2):
                assert np.array_equal(semi_reciprocal(net, t).dist, nr)
            assert np.array_equal(intermediate(net, 1, 1).dist, r)
            assert np.array_equal(intermediate(net, net.n - 1, net.n - 1).dist, nr)
        for _ in range(15):
            net = random_network(rng, n_range=(2, 10), symmetric=True)
            sl = single_linkage(net).dist
            for spec in method_battery(include_convex=True):
                u = run_method(net, spec).dist
                tol = spec_tolerance(spec)
                assert (np.abs(u - sl) <= tol).all() if tol else np.array_equal(u, sl)


def test_criterion_09_stabilization():
    with criterion(9, "dioid powers stabilize: A^(n-1) == A^n on every test network"):
        rng = np.random.default_rng(9)
        nets = [cycle4_network(), sweep8_network()] + [
            random_network(rng, n_range=(2, 12)) for _ in range(40)
        ]
        for net in nets:
            for matrix in (net.dissim, np.maximum(net.dissim, net.dissim.T)):
                n = net.n
                assert np.array_equal(dioid_power(matrix, n - 1), dioid_power(matrix, n))


def test_criterion_10_round_trips_and_goldens():
    with criterion(10, "dendrogram round-trips plus byte-exact Newick/JSON goldens"):
        rng = np.random.default_rng(10)
        nets = [cycle4_network(), sweep8_network()] + [
            random_network(rng, n_range=(2, 9)) for _ in range(10)
        ]
        for net in nets:
            for spec in method_battery():
                u = run_method(net, spec)
                d = to_dendrogram(u)
                assert np.array_equal(from_dendrogram(d).dist, u.dist), spec.describe()
                assert to_dendrogram(from_dendrogram(d)) == d
        u3 = reciprocal(cycle4_network())
        d3 = to_dendrogram(u3)
        assert newick(d3) == (DATA / "golden_cycle4_reciprocal.nwk").read_text()
        assert dendrogram_json(u3, d3) == (DATA / "golden_cycle4_reciprocal.json").read_text()
        u5 = semi_reciprocal(sweep8_network(), 3)
        d5 = to_dendrogram(u5)
        assert newick(d5) == (DATA / "golden_sweep8_sr3.nwk").read_text()
        assert dendrogram_json(u5, d5) == (DATA / "golden_sweep8_sr3.json").read_text()


def test_criterion_11_performance_smoke():
    with criterion(11, "reciprocal clustering of a random 300-node network", budget=10.0):
        rng = np.random.default_rng(11)
        n = 300
        a = 1.0 - rng.random((n, n))
        np.fill_diagonal(a, 0.0)
        net = Network(tuple(f"v{i}" for i in range(n)), a)
        u = reciprocal(net)
        assert u.dist.shape == (n, n)
        assert validate_ultrametric(u.dist, 0.0).is_valid


def _find_sector_table():
    candidates = []
    env = os.environ.get("DIOIDCLUST_BEA_USES")
    if env:
        candidates.append(Path(env))
    candidates.append(DATA / "bea_uses_2011.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def _resolutions(dendrogram):
    return [event.resolution for event in dendrogram.merges]


def test_criterion_12_sector_table_conditional():
    path = _find_sector_table()
    if path is None:
        print(
            "criterion 12 SKIP: sector uses table not bundled; place the 61-sector "
            "uses CSV at tests/data/bea_uses_2011.csv or point DIOIDCLUST_BEA_USES at it"
        )
        pytest.skip("sector uses table not available")
    with criterion(12, f"published sector-table merge resolutions ({path.name})"):
        net = from_uses_table(load_uses_table(path))
        needed = {"MP", "AS", "OG", "PC", "CO"}
        if not needed <= set(net.labels):
            pytest.skip("sector table does not use the expected two-letter codes")
        d_r = to_dendrogram(reciprocal(net))
        first = d_r.merges[0]
        assert abs(first.resolution - 0.887) <= SECTOR_TOL
        assert first.blocks == (("AS", "MP"),)
        res_r = _resolutions(d_r)
        for target in (0.959, 0.969):
            assert any(abs(r - target) <= SECTOR_TOL for r in res_r), target
        d_nr = to_dendrogram(nonreciprocal(net))
        first_nr = d_nr.merges[0]
        assert abs(first_nr.resolution - 0.885) <= SECTOR_TOL
        assert first_nr.blocks == (("CO", "OG", "PC"),)
        res_sr = _resolutions(to_dendrogram(semi_reciprocal(net, 3)))
        for target in (0.909, 0.917):
            assert any(abs(r - target) <= SECTOR_TOL for r in res_sr), target
