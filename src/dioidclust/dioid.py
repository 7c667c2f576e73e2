"""Matrix operations in the (min, max) dioid algebra.

The algebra works on the nonnegative reals extended with +inf. "Addition"
is the minimum, with +inf as its neutral element, and "multiplication" is
the maximum, with 0 as its neutral element. The matrix product is

    (A (x) B)[i, j] = min_k max(A[i, k], B[k, j])

so the k-th power of a zero-diagonal dissimilarity matrix holds, at entry
(i, j), the minimax (bottleneck) cost over directed chains from i to j
using at most k hops. Powers of such a matrix are entrywise nonincreasing
and stabilize at the (n-1)-th power, which carries the minimax chain cost
over chains of unrestricted length; quasi_inverse computes it directly,
from Prim's visit order when the matrix is symmetric and by Floyd-Warshall
otherwise. Functions here check their inputs, not their outputs: each
clustering result is checked once, downstream, and the tests hold both
closure kernels to each other, to dioid_power and to the brute-force oracle.

Products, powers and Floyd-Warshall closures run in rank space. min and max
only ever select entries, so a kernel run on the ranks of a matrix's
distinct values (see _ranked) and mapped back through those values gives
the same bits as one run on the values, while it moves two bytes an entry
(four past 65,536 distinct values) instead of eight. _min_max_sweep is the
one (min, max) kernel: every product and every Floyd-Warshall closure is
one sweep of it over ranks. -0.0 and 0.0 share a rank; each kernel restores
the signed zeros of its diagonal as the sweep over the values sets them
(see _from_ranks), and a zero off the diagonal, which validate_network
refuses, comes back as 0.0. Rank matrices are _Ranks, which dioid_product
and quasi_inverse take as they are, so every product, whoever asks for it,
is one dioid_product call, and every Floyd-Warshall closure one
quasi_inverse call: a hook on either sees all of them.

Bounded-hop powers run one binary exponentiation over the squaring
sequence A, A^2, A^4, ... of A's ranks, which drops each square once the
next is built. dioid_power asks it for one power; _hop_powers, for every
hop budget of a run_methods call at once, so those budgets share one
ranking, one squaring sequence and one closure. Only this module knows
where powers stabilize, at max(n-1, 1) hops, and _hop_closures closes each
distinct (forward, backward) budget pair of a run_methods call once.

+inf is the IEEE infinity, never a large sentinel. min/max never create
new values, so equality comparisons between dioid matrices are exact, and a
power is the same bits whichever route built it. Every function here is
pure, and matrices are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dioid_product",
    "dioid_power",
    "quasi_inverse",
]

def _as_dioid_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Validate a square matrix over the nonnegative reals with +inf."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if np.isnan(arr).any():
        i, j = np.argwhere(np.isnan(arr))[0]
        raise ValueError(f"{name} has NaN at ({i}, {j})")
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError(f"{name} has negative entry {arr[i, j]} at ({i}, {j})")
    return arr


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, which are ints in Python."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _min_max_sweep(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out = min(out, max(left[:, k], right[k, :])) for k in order, in place; returns out as a plain ndarray.

    One n x n scratch buffer of out's dtype, which the kernels here make a
    rank dtype. With out, left and right one zero-diagonal matrix, this is
    the (min, max) Floyd-Warshall closure. The sweep runs on plain views,
    so slicing per k pays no subclass overhead.
    """
    out, left, right = np.asarray(out), np.asarray(left), np.asarray(right)
    step = np.empty_like(out)
    for k in range(out.shape[0]):
        np.maximum(left[:, k, None], right[None, k, :], out=step)
        np.minimum(out, step, out=out)
    return out


class _Ranks(np.ndarray):
    """A matrix of ranks into one increasing values array (see _ranked), which the caller keeps.

    dioid_product of two _Ranks against one values array, and quasi_inverse
    of the ranks of a zero-diagonal matrix, run in rank space and return
    _Ranks; only this module makes them.
    """


def _ranked(a: np.ndarray) -> tuple[np.ndarray, _Ranks]:
    """(values, ranks): a's distinct values in increasing order, and a with each entry's index among them.

    The ranks are uint16 for at most 65,536 distinct values (+inf counts as
    one), else uint32. -0.0 and 0.0 share one rank, whose value is 0.0. One
    argsort and one scatter, not np.unique, whose inverse is 1-D in numpy 1.x
    and shaped like its input in 2.x, and which is slower on small matrices.
    """
    flat = a.ravel()
    order = flat.argsort()
    ordered = flat[order]
    first = np.empty(flat.size, dtype=bool)  # True where a run of equal values starts
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    del ordered  # the peak was order, ordered and values: each up to eight bytes an entry
    values += 0.0  # -0.0 + 0.0 is 0.0
    ranks = np.empty(flat.size, dtype=np.uint16 if values.size <= 1 << 16 else np.uint32)
    first[:1] = False  # so the running count of run starts is each sorted entry's rank
    ranks[order] = np.add.accumulate(first, dtype=ranks.dtype)
    return values, ranks.reshape(a.shape).view(_Ranks)


def _from_ranks(values: np.ndarray, ranks: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """values[ranks], with each diagonal cell where ``zeros`` holds a zero set to that zero, sign and all.

    With no zero off the diagonal, a kernel's diagonal cell is 0 exactly
    where ``zeros`` is, and the sweep over the values gives it that zero's
    sign: A's own diagonal for powers and closures of A, and for a product
    the larger of its operands' diagonal cells, as np.maximum picks between
    -0.0 and 0.0.
    """
    out = values[ranks]
    np.copyto(out.reshape(-1)[:: len(out) + 1], zeros, where=zeros == 0)
    return out


def _rank_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The dioid product of two rank matrices of one dtype, swept from that dtype's largest value, which no rank exceeds."""
    return _min_max_sweep(np.full(left.shape, np.iinfo(left.dtype).max, dtype=left.dtype), left, right)


def dioid_product(a, b) -> np.ndarray:
    """Dioid matrix product: out[i, j] = min_k max(a[i, k], b[k, j]).

    Both operands are ranked against one values array (a once, when b is a),
    and the closure's k-sweep runs out of place on the ranks, from the rank
    dtype's largest value: O(n^3) work in O(n^2) scratch of two or four
    bytes an entry. The result is the sweep over the values, bit for bit,
    signed zeros on the diagonal included (see _from_ranks). Two _Ranks
    against one values array, as the binary powers and _square_by_rank pass
    them, are multiplied as they are, and their product is _Ranks.
    """
    if isinstance(a, _Ranks):
        return _rank_product(a, b).view(_Ranks)
    a = _as_dioid_matrix(a, "left operand")
    b = _as_dioid_matrix(b, "right operand")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    values, ranks = _ranked(a if b is a else np.stack((a, b)))
    left, right = (ranks, ranks) if b is a else ranks
    return _from_ranks(values, _rank_product(left, right), np.maximum(np.diagonal(a), np.diagonal(b)))


def _binary_powers(ranks: _Ranks, hops) -> dict[int, _Ranks]:
    """{k: the ranks of A^k} for A's ranks and each k >= 1 in hops, over one squaring sequence A, A^2, A^4, ...

    The set bits of every k are taken from the lowest, each against the one
    current square, which is built only while some k has a bit left and is
    dropped once the next is built. Once a square repeats, it is idempotent
    (base^j == base for every j >= 1), so the rest of each factorization
    collapses into one more factor of it, taken by one more pass of the loop.
    """
    powers, left, base = {}, {k: k for k in hops}, ranks
    while True:
        for k, bits in left.items():
            if bits & 1:
                powers[k] = dioid_product(powers[k], base) if k in powers else base
        left = {k: bits >> 1 for k, bits in left.items() if bits >> 1}
        if not left:
            return powers
        squared = dioid_product(base, base)
        if np.array_equal(squared, base):
            left = dict.fromkeys(left, 1)
        else:
            base = squared


def _hop_powers(a: np.ndarray, hops) -> dict[int, np.ndarray]:
    """{k: A^k} for a zero-diagonal matrix A and each hop budget k >= 1 in hops, keyed as given.

    Budgets come as stated, math.inf or any integer, and with cap =
    max(n-1, 1), where powers have stabilized, one rule maps each: A itself
    when k is 1 or cap is 1 (so for every budget when n <= 2, where A is its
    own closure); A's closure when k >= cap > 1, one array for all such
    budgets: quasi_inverse's Prim kernel for a symmetric A, and for any
    other one quasi_inverse call on A's ranks; a power otherwise.
    Read the results, never write them. A is ranked once, and only if some
    budget needs its ranks; the budgets between take one binary
    exponentiation over one squaring sequence (see _binary_powers), which
    keeps no square it has used, so besides the powers at most two squares
    and one product buffer are live, whatever the budgets.
    """
    cap = max(len(a) - 1, 1)
    closed = [k for k in hops if k >= cap > 1]
    between = [k for k in hops if 1 < k < cap]
    directed = bool(closed) and not (a == a.T).all()
    powers = {k: a for k in hops if k == 1 or cap == 1}
    if between or directed:
        values, ranks = _ranked(a)
        for k, power in _binary_powers(ranks, between).items():
            powers[k] = _from_ranks(values, power, np.diagonal(a))
    if closed:
        closure = _from_ranks(values, quasi_inverse(ranks), np.diagonal(a)) if directed else quasi_inverse(a)
        powers.update(dict.fromkeys(closed, closure))
    return powers


def _hop_closures(a: np.ndarray, pairs) -> dict[tuple, np.ndarray]:
    """{(fwd, bwd): the closure of max(A^fwd, (A^bwd)ᵀ)} for each budget pair in pairs, keyed as given.

    All budgets come from one _hop_powers call, and each distinct pair
    closes once. With both budgets at or past max(n-1, 1), both powers are
    A's closure C, and max(C, Cᵀ) is nonreciprocal: no outer closure runs.
    Any other join B is closed as min(B, Bᵀ), on quasi_inverse's tree kernel:
    closure(B) is symmetric and at most B, so it equals closure(min(B, Bᵀ)).
    """
    cap, closures = max(len(a) - 1, 1), {}
    powers = _hop_powers(a, {hops for pair in pairs for hops in pair})
    for fwd, bwd in pairs:
        joined = np.maximum(powers[fwd], powers[bwd].T)
        closures[fwd, bwd] = joined if min(fwd, bwd) >= cap else quasi_inverse(np.minimum(joined, joined.T))
    return closures


def dioid_power(a, k: int) -> np.ndarray:
    """k-th dioid power of a square matrix, k >= 1: a fresh array.

    Binary exponentiation over the squaring sequence A, A^2, A^4, ... of
    A's ranks, with an early exit once the current square repeats (see
    _binary_powers), so the cost is O(n^3 log k) worst case and usually far
    less on matrices that stabilize early. Each square is dropped once the
    next is built, so four n x n rank arrays (base, its square, the result
    and one product buffer) are live at most, whatever k is.
    """
    a = _as_dioid_matrix(a)
    if not is_integer(k):
        raise ValueError(f"power must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    k = int(k)
    if k == 1:
        return a.copy()
    values, ranks = _ranked(a)
    return _from_ranks(values, _binary_powers(ranks, [k])[k], np.diagonal(a))


def _square_by_rank(a: np.ndarray) -> np.ndarray:
    """The (min, max) square of a square matrix of any non-NaN reals, negatives and -inf included.

    min and max only select, so one dioid_product of a's ranks, mapped back
    through its values, gives the square of the values, which dioid_product
    refuses for a negative entry. A -0.0 comes back as 0.0.
    """
    values, ranks = _ranked(a)
    return values[dioid_product(ranks, ranks)]


def _in_input_order(order, near) -> np.ndarray:
    """The ultrametric of leaves ``order`` (input indices, in tree order) with neighbour entries ``near``.

    u(order[p], order[q]) = max(near[p], ..., near[q-1]) for p < q: each
    leaf's row, in input order, holds the neighbour entries right of its
    position in tree order and takes their running maximum; one gather puts
    the columns in input order, and the larger of the matrix and its
    transpose fills in the entries left of each position. O(n^2) work in a
    fixed number of numpy steps; the diagonal is 0.0.
    """
    index = np.arange(len(order))
    position = np.empty_like(index)  # each leaf's place in tree order
    position[np.asarray(order, dtype=np.intp)] = index
    right = np.where(index > position[:, None], np.concatenate(([0.0], near)), 0.0)
    np.maximum.accumulate(right, axis=1, out=right)
    right = right.take(position, axis=1)
    return np.maximum(right, right.T)


def _prim_closure(a: np.ndarray) -> np.ndarray:
    """Minimax closure of a symmetric zero-diagonal matrix, from Prim's visit order.

    Prim visits node v_k at key d_k, its least link to the nodes visited
    before; a +inf key ends a tree, and the next one starts at the lowest
    node not visited. Prim takes a link above delta only once it has
    visited every delta-component it has entered, so each single-linkage
    cluster is one run of the order and u(v_i, v_j) = max(d_{i+1}, ...,
    d_j) (see _in_input_order). O(n^2) work in n numpy steps; visited nodes
    are masked by +inf, never by a copy of a.
    """
    n = a.shape[0]
    order, near = [], []
    key, visited = np.full(n, np.inf), np.zeros(n)  # visited: +inf once visited, else 0
    for _ in range(n):
        v = int(key.argmin())
        near.append(key.item(v))
        if near[-1] == np.inf:  # the tree is complete: restart at the lowest node not visited
            v = int(visited.argmin())
        order.append(v)
        visited[v] = key[v] = np.inf
        np.minimum(key, np.maximum(a[v], visited), out=key)
    closure = _in_input_order(order, near[1:])
    closure.reshape(-1)[:: n + 1] = np.diagonal(a)
    return closure


def quasi_inverse(a) -> np.ndarray:
    """Minimax chain-cost closure of a zero-diagonal matrix: A^(n-1).

    Entry (i, j) is the least possible bottleneck (maximum link value)
    over directed chains from i to j of any length. A symmetric matrix
    (equal to its transpose) is single linkage, closed in O(n^2) from
    Prim's visit order (Gower & Ross 1969). Any other runs the (min, max)
    Floyd-Warshall recurrence, the minimax form of Hu's maximum capacity
    route recurrence, in place on A's ranks: after step k, C[i, j] is the
    best bottleneck over chains whose intermediate nodes lie in {0, ..., k}.
    That is O(n^3) work in one n x n scratch buffer of ranks. _hop_powers
    passes A's ranks, which are closed on a copy and returned as _Ranks.

    Both equal the dioid power bit for bit, since min and max only ever
    select entries of A, so no product checks the result at run time; the
    diagonal is A's own, -0.0 cells included. One caveat: a -0.0 off the
    diagonal (validate_network refuses such zeros) is kept by value only,
    as 0.0 or -0.0, and the float sweep's sign of zero there follows its
    sweep order.
    """
    if isinstance(a, _Ranks):
        closure = np.array(a)
        return _min_max_sweep(closure, closure, closure).view(_Ranks)
    a = _as_dioid_matrix(a)
    if np.diagonal(a).any():
        i = int(np.nonzero(np.diagonal(a))[0][0])
        raise ValueError(f"quasi-inverse needs a zero diagonal, got {a[i, i]} at ({i}, {i})")
    if (a == a.T).all():
        return _prim_closure(a)
    values, closure = _ranked(a)
    return _from_ranks(values, _min_max_sweep(closure, closure, closure), np.diagonal(a))
