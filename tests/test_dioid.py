import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioidclust import Network, dioid_power, dioid_product, quasi_inverse
from dioidclust.dioid import _hop_powers, _in_input_order, _min_max_sweep, _ranked
from dioidclust.oracle import brute_minimax_cost

from conftest import cycle4_network, random_network


def brute_product(a, b):
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = min(max(a[i, k], b[k, j]) for k in range(n))
    return out


def dioid_matrices(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(np.array)
    )


def test_identity_is_two_sided(rng):
    a = random_network(rng, n=5).dissim
    ident = np.full((5, 5), np.inf)
    np.fill_diagonal(ident, 0.0)
    assert np.array_equal(dioid_product(ident, a), a)
    assert np.array_equal(dioid_product(a, ident), a)


def test_product_2x2_by_hand():
    a = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert np.array_equal(dioid_product(a, a), a)
    # entry (0, 1): min(max(0, 2), max(2, 0)) = 2
    assert dioid_product(a, a)[0, 1] == 2.0


def test_cycle4_symmetrized_square_entry_matches_brute():
    a = cycle4_network().dissim
    sym = np.maximum(a, a.T)
    squared = dioid_product(sym, sym)
    assert np.array_equal(squared, brute_product(sym, sym))
    assert squared[0, 2] == 5.0  # a-b-c and a-d-c chains both cost 5


def test_product_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dioid_product(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
        dioid_product(np.zeros((2, 3)), np.zeros((3, 3)))


def test_product_rejects_negative_and_nan():
    with pytest.raises(ValueError, match="negative"):
        dioid_product(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="NaN"):
        dioid_product(np.array([[0.0, np.nan], [1.0, 0.0]]), np.zeros((2, 2)))


def test_product_handles_infinities():
    a = np.array([[0.0, np.inf], [np.inf, 0.0]])
    b = np.array([[0.0, 3.0], [4.0, 0.0]])
    assert np.array_equal(dioid_product(a, b), b)


@settings(max_examples=40, deadline=None)
@given(dioid_matrices())
def test_product_matches_bruteforce(a):
    assert np.array_equal(dioid_product(a, a), brute_product(a, a))


@settings(max_examples=25, deadline=None)
@given(dioid_matrices(max_n=5), st.integers(0, 10**6))
def test_associativity(a, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(0, 10, a.shape)
    c = rng.uniform(0, 10, a.shape)
    left = dioid_product(dioid_product(a, b), c)
    right = dioid_product(a, dioid_product(b, c))
    assert np.array_equal(left, right)


def test_monotonicity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0, 5, (n, n))
        b = rng.uniform(0, 5, (n, n))
        a2 = a + rng.uniform(0, 2, (n, n))
        b2 = b + rng.uniform(0, 2, (n, n))
        assert (dioid_product(a, b) <= dioid_product(a2, b2)).all()


def test_power_one_is_identity_map(rng):
    a = random_network(rng, n=4).dissim
    assert np.array_equal(dioid_power(a, 1), a)


def test_power_requires_positive_integer():
    a = np.zeros((2, 2))
    with pytest.raises(ValueError):
        dioid_power(a, 0)
    with pytest.raises(ValueError):
        dioid_power(a, -3)
    with pytest.raises(ValueError):
        dioid_power(a, 1.5)


def test_power_matches_sequential_products(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        # general nonnegative matrices, diagonal not necessarily zero
        a = rng.uniform(0, 5, (n, n))
        seq = a
        for k in range(2, 9):
            seq = dioid_product(seq, a)
            assert np.array_equal(dioid_power(a, k), seq), k


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from(["reals", "ties", "ultrametric", "diagonal"]))
@example(1, 0, "reals")
@example(2, 0, "reals")
def test_one_chain_gives_every_power_bit_for_bit(n, seed, kind):
    # Each A^k of one _hop_powers call is dioid_power's, ±0.0 cells included: integer ties and
    # ultrametrics stabilize early (an ultrametric squares to itself), reals later. A budget at
    # or above the clamp n-1 is the closure, which only a zero diagonal has.
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 4, (n, n)).astype(float) if kind == "ties" else 1.0 - rng.random((n, n))
    a[rng.random((n, n)) < 0.2] = np.inf
    if kind == "ultrametric":
        a = np.minimum(a, a.T)
        np.fill_diagonal(a, 0.0)
        a = quasi_inverse(a)
    if kind != "diagonal":  # "diagonal" keeps positive diagonal cells, so powers need not stabilize at n-1
        np.fill_diagonal(a, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    before = a.copy()
    top = max(n - 2, 1) if kind == "diagonal" else n + 2
    hops = {1, *rng.integers(1, top + 1, size=rng.integers(1, 5)).tolist()}
    if kind != "diagonal":  # budgets past any clamp, as nonreciprocal and huge t state them
        hops |= {math.inf, 10**30}
    powers = _hop_powers(a, hops)
    assert sorted(powers) == sorted(hops) and powers[1] is a
    for k in hops:
        power = dioid_power(a, max(n - 1, 1) if k in (math.inf, 10**30) else k)
        assert powers[k].view(np.uint64).tolist() == power.view(np.uint64).tolist(), k
    assert a.view(np.uint64).tolist() == before.view(np.uint64).tolist()


def test_chain_builds_each_square_once(sweeps):
    a = np.array([np.roll([0.0, 1.0] + [9.0] * 7, i) for i in range(9)])  # a directed 9-cycle: stable from A^8
    four = _hop_powers(a, {4})[4]
    assert sweeps == [False] * 2 and np.array_equal(four, dioid_power(a, 4))  # A^2, A^4
    sweeps.clear()
    powers = _hop_powers(a, {4, 5, 6})
    assert sweeps == [False] * 4  # A^2, A^4, then A * A^4 and A^2 * A^4 on the squares already built
    assert all(np.array_equal(powers[k], dioid_power(a, k)) for k in (4, 5, 6))
    sweeps.clear()
    powers = _hop_powers(a, {1, 8, 20})  # 8 is the clamp, n-1
    assert powers[1] is a and powers[8] is powers[20] and sweeps == [True]  # one Floyd-Warshall, on ranks
    assert np.array_equal(powers[8], dioid_power(a, 8))
    assert dioid_power(a, 1) is not a and np.array_equal(dioid_power(a, 1), a)


def bits(m):
    return m.view(np.uint64).tolist()


def swept_product(a, b):
    """The reference product: the k-sweep over the values themselves, from +inf."""
    return _min_max_sweep(np.full(a.shape, np.inf), a, b)


def swept_closure(a):
    closure = a.copy()
    return _min_max_sweep(closure, closure, closure)


@st.composite
def operand_pairs(draw):
    """Two n x n matrices, n up to 10: reals in (0, 1] or integers 1-3 (so ties),
    +inf cells at random, and each diagonal cell 0.0, -0.0 or positive."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())
    pair = []
    for _ in range(2):
        a = rng.integers(1, 4, (n, n)).astype(float) if ties else 1.0 - rng.random((n, n))
        a[rng.random((n, n)) < 0.2] = np.inf
        np.fill_diagonal(a, np.where(rng.random(n) < 0.8, rng.choice([0.0, -0.0], n), np.diagonal(a)))
        pair.append(a)
    return pair


@settings(max_examples=150, deadline=None)
@given(operand_pairs())
def test_rank_space_kernels_match_the_float_sweep_bit_for_bit(pair):
    # Products, hop and direct powers and the directed closure run on ranks; the reference
    # sweeps the values. ±0.0 diagonals of the two operands meet in every combination.
    a, b = pair
    n = len(a)
    assert bits(dioid_product(a, b)) == bits(swept_product(a, b))
    assert bits(dioid_product(a, a)) == bits(swept_product(a, a))
    powers, power = _hop_powers(a, range(2, n - 1)), a  # every budget below the clamp, n-1
    for k in range(2, n + 2):
        power = swept_product(power, a)
        assert bits(powers.get(k, power)) == bits(power) == bits(dioid_power(a, k)), k
    zero = a.copy()
    np.fill_diagonal(zero, np.copysign(0.0, np.diagonal(a)))
    assert bits(quasi_inverse(zero)) == bits(_hop_powers(zero, {n + 1})[n + 1]) == bits(swept_closure(zero))


def test_ranks_widen_past_65536_distinct_values():
    values, ranks = _ranked(np.array([[-0.0, np.inf], [0.0, np.inf]]))
    assert bits(values) == bits(np.array([0.0, np.inf])) and ranks.tolist() == [[0, 1], [0, 1]]
    assert _ranked(np.arange(1 << 16, dtype=float))[1].dtype == np.uint16
    assert _ranked(np.arange((1 << 16) + 1, dtype=float))[1].dtype == np.uint32


def test_kernels_past_65536_distinct_values_match_the_float_sweep():
    rng = np.random.default_rng(257)
    n = 257
    a, b = 1.0 - rng.random((2, n, n))  # every off-diagonal entry of a distinct: 65,793 values with 0.0
    b[rng.random((n, n)) < 0.01] = np.inf
    for m in (a, b):
        np.fill_diagonal(m, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    values, ranks = _ranked(a)
    assert values.size > 1 << 16 and ranks.dtype == np.uint32
    assert bits(dioid_product(a, b)) == bits(swept_product(a, b))
    assert bits(quasi_inverse(a)) == bits(swept_closure(a))
    assert bits(dioid_power(a, 3)) == bits(swept_product(swept_product(a, a), a))


def test_power_keeps_no_squares_it_has_used():
    import tracemalloc

    # A directed path changes until A^(n-1), so A^63 walks six squares; the loop needs four arrays
    # live at once beside the input (base, its square, the result and one product buffer).
    n = 64
    a = np.full((n, n), 9.0)
    np.fill_diagonal(a, 0.0)
    a[np.arange(n - 1), np.arange(1, n)] = 1.0
    tracemalloc.start()
    try:
        dioid_power(a, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * a.nbytes


def test_ultrametric_square_is_itself():
    u = np.array([
        [0.0, 3.0, 5.0, 5.0],
        [3.0, 0.0, 5.0, 5.0],
        [5.0, 5.0, 0.0, 2.0],
        [5.0, 5.0, 2.0, 0.0],
    ])
    assert np.array_equal(dioid_power(u, 2), u)


def test_cycle4_symmetrized_cube_is_reciprocal_ultrametric():
    a = cycle4_network().dissim
    cube = dioid_power(np.maximum(a, a.T), 3)
    expected = np.array([
        [0.0, 3.0, 5.0, 5.0],
        [3.0, 0.0, 5.0, 5.0],
        [5.0, 5.0, 0.0, 2.0],
        [5.0, 5.0, 2.0, 0.0],
    ])
    assert np.array_equal(cube, expected)


def test_quasi_inverse_two_nodes_is_input():
    a = np.array([[0.0, 4.0], [7.0, 0.0]])
    assert np.array_equal(quasi_inverse(a), a)


def test_quasi_inverse_cycle4_uses_cheap_loop():
    closure = quasi_inverse(cycle4_network().dissim)
    assert closure[0, 2] == 1.0  # a -> b -> c rides the cost-1 cycle
    assert (closure[~np.eye(4, dtype=bool)] == 1.0).all()


def test_quasi_inverse_requires_zero_diagonal():
    with pytest.raises(ValueError, match="zero diagonal"):
        quasi_inverse(np.array([[1.0, 2.0], [2.0, 0.0]]))


def test_quasi_inverse_is_idempotent(rng):
    for _ in range(20):
        a = random_network(rng).dissim
        closure = quasi_inverse(a)
        assert np.array_equal(dioid_product(closure, closure), closure)


def closure_inputs(rng):
    """Zero-diagonal matrices on which the closure must equal A^(n-1).

    Uniform reals; small integer weights, so many entries tie; and
    integer weights with +inf between three fixed groups of nodes and at
    random inside them, so closures keep +inf entries (forests). Each
    kind comes asymmetric and symmetrized, for n up to 40.
    """
    for _ in range(20):
        yield random_network(rng, n_range=(2, 9)).dissim
    for n in (2, 3, 4, 7, 12, 20, 40):
        for symmetric in (False, True):
            ties = rng.integers(1, 4, (n, n)).astype(float)
            forest = rng.integers(1, 6, (n, n)).astype(float)
            group = np.arange(n) % 3
            forest[group[:, None] != group[None, :]] = np.inf
            forest[rng.random((n, n)) < 0.5] = np.inf
            for a in (ties, forest):
                if symmetric:
                    a = np.maximum(a, a.T)
                np.fill_diagonal(a, 0.0)
                yield a


def test_quasi_inverse_stabilizes_at_n_minus_one(rng):
    forests = 0
    for a in closure_inputs(rng):
        n = a.shape[0]
        p = dioid_power(a, n - 1)
        assert np.array_equal(p, dioid_power(a, n))
        assert np.array_equal(quasi_inverse(a), p)
        forests += bool(np.isinf(p).any())
    assert forests >= 10


@st.composite
def closure_matrices(draw):
    """Zero-diagonal matrices up to 7 nodes: integer weights (so ties), zeros
    and +inf off the diagonal, asymmetric or symmetrized."""
    n = draw(st.integers(1, 7))
    cells = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, np.inf])
    a = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    return a


@settings(max_examples=150, deadline=None)
@given(closure_matrices())
def test_quasi_inverse_matches_power_and_oracle_pair_by_pair(a):
    # No runtime check guards the kernel, so this test is what vouches for it.
    n = a.shape[0]
    closure = quasi_inverse(a)
    assert np.array_equal(closure, dioid_power(a, max(n - 1, 1)))
    net = Network(tuple(f"n{i}" for i in range(n)), a)
    for i, src in enumerate(net.labels):
        for j, dst in enumerate(net.labels):
            assert closure[i, j] == brute_minimax_cost(net, src, dst), (src, dst)


def test_product_and_closure_keep_quadratic_scratch(rng):
    # The product and the asymmetric closure run one k-sweep, the symmetric closure Prim:
    # O(n^2) scratch, never an (n x n x n) broadcast nor a copy of the input per step.
    n = 128
    a = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    symmetric = np.maximum(a, a.T)
    for kernel in (lambda: dioid_product(a, a), lambda: quasi_inverse(a), lambda: quasi_inverse(symmetric)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * a.itemsize, peak


def test_cycle4_nonreciprocal_merges_everything_at_one():
    a = cycle4_network().dissim
    forward = dioid_power(a, 3)
    merged = np.maximum(forward, dioid_power(a.T, 3))
    off = ~np.eye(4, dtype=bool)
    assert (merged[off] == 1.0).all()
    assert (np.diagonal(merged) == 0.0).all()



@st.composite
def symmetric_closure_inputs(draw):
    """Symmetric zero-diagonal matrices of 0 to 60 nodes: reals or small integers
    (so ties), +inf forests, and +0.0 or -0.0 on the diagonal."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(1, 4, (n, n)).astype(float) if draw(st.booleans()) else 1.0 - rng.random((n, n))
    if draw(st.booleans()):
        group = np.arange(n) % int(rng.integers(1, 4))
        a[group[:, None] != group[None, :]] = np.inf
        a[rng.random((n, n)) < 0.5] = np.inf
    a = np.minimum(a, a.T)
    np.fill_diagonal(a, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    return a


@settings(max_examples=200, deadline=None)
@given(symmetric_closure_inputs())
def test_symmetric_closure_matches_floyd_warshall_bit_for_bit(a):
    closure, swept = quasi_inverse(a), a.copy()
    _min_max_sweep(swept, swept, swept)
    assert closure.view(np.uint64).tolist() == swept.view(np.uint64).tolist()
    n = a.shape[0]
    if n <= 8:
        net = Network(tuple(f"n{i}" for i in range(n)), a)
        for i, src in enumerate(net.labels):
            for j, dst in enumerate(net.labels):
                if i != j:
                    assert closure[i, j] == brute_minimax_cost(net, src, dst), (src, dst)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2**32 - 1), st.booleans())
def test_tree_order_matrix_matches_the_leaf_order_recurrence(n, seed, ties):
    # The reference builds u(p, q) = max(u(p, q-1), near[q-1]) one leaf at a time, then
    # scatters it to input order; +inf entries part trees.
    rng = np.random.default_rng(seed)
    near = rng.integers(1, 4, max(n - 1, 0)).astype(float) if ties else 1.0 - rng.random(max(n - 1, 0))
    near[rng.random(len(near)) < 0.2] = np.inf
    order = rng.permutation(n)
    ordered = np.zeros((n, n))
    for q in range(1, n):
        ordered[q, :q] = ordered[:q, q] = np.maximum(ordered[q - 1, :q], near[q - 1])
    expected = np.empty((n, n))
    expected[np.ix_(order, order)] = ordered
    assert bits(_in_input_order(order, near)) == bits(expected)
    assert bits(_in_input_order(tuple(order.tolist()), near.tolist())) == bits(expected)


def test_a_negative_zero_off_the_diagonal_is_kept_by_value_only():
    # validate_network refuses such zeros, so only a direct call meets them. Floyd-Warshall's
    # sign of zero then follows its sweep order: its result is not even bitwise symmetric.
    a = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    swept = a.copy()
    _min_max_sweep(swept, swept, swept)
    assert not np.array_equal(swept.view(np.uint64), swept.T.view(np.uint64))
    closure = quasi_inverse(a)
    assert np.array_equal(closure, swept)
    assert np.array_equal(closure, np.zeros((3, 3)))
