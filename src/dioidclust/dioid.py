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

Bounded-hop powers run one binary exponentiation over the squaring
sequence A, A^2, A^4, ... dioid_power drops each square once the next is
built; a caller that needs several powers of one matrix keeps a
PowerChain, which builds each square once and keeps it, so each new power
costs at most its set bits in products.

All entries are ordinary float64 values; +inf is represented by the IEEE
infinity, never by a large sentinel. min/max never create new values, so
equality comparisons between dioid matrices are exact, and a power is the
same bits whichever chain built it. Every function here is pure; matrices
are safe to share across threads, a PowerChain is not.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "PowerChain",
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
    """out = min(out, max(left[:, k], right[k, :])) for k in order, in place.

    One n x n scratch buffer. With out, left and right one zero-diagonal
    matrix, this is the (min, max) Floyd-Warshall closure.
    """
    step = np.empty_like(out)
    for k in range(out.shape[0]):
        np.maximum(left[:, k, None], right[None, k, :], out=step)
        np.minimum(out, step, out=out)
    return out


def dioid_product(a, b) -> np.ndarray:
    """Dioid matrix product: out[i, j] = min_k max(a[i, k], b[k, j]).

    The closure's k-sweep run out of place from an all-+inf matrix: O(n^3)
    work in O(n^2) scratch.
    """
    a = _as_dioid_matrix(a, "left operand")
    b = _as_dioid_matrix(b, "right operand")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _min_max_sweep(np.full(a.shape, np.inf), a, b)


def _squaring(a: np.ndarray):
    """Yield A, A^2, A^4, ..., each square built when asked for; None follows the first one that repeats."""
    base = a
    while True:
        yield base
        squared = dioid_product(base, base)
        if np.array_equal(squared, base):
            yield None
            return
        base = squared


def _checked_exponent(k) -> int:
    if not is_integer(k):
        raise ValueError(f"power must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    return int(k)


def _binary_power(squares, k: int) -> np.ndarray:
    """A^k from the squaring sequence ``squares`` (see _squaring): the set bits of k from the lowest.

    A square is asked for only while bits remain. Once a square repeats,
    the base is idempotent (base^j == base for every j >= 1), so the rest
    of the factorization collapses into one extra product.
    """
    result, base = None, next(squares)
    while True:
        if k & 1:
            result = base if result is None else dioid_product(result, base)
        k >>= 1
        if not k:
            return result
        following = next(squares)
        if following is None:
            return base if result is None else dioid_product(result, base)
        base = following


class PowerChain:
    """Dioid powers of one matrix that share its squaring sequence A, A^2, A^4, ...

    ``power(k)`` runs ``dioid_power``'s binary exponentiation over squares
    that the chain keeps: each is built once, on first need, so a new k
    costs at most one product per set bit beyond the squares already
    built. The chain holds about log2(k) n x n squares for the largest k
    asked, until it is dropped; powers are not kept. The arrays returned
    may be the chain's own squares: read them, never write them. A chain
    serves one thread.
    """

    def __init__(self, a):
        self.a = _as_dioid_matrix(a)
        self._built: list[np.ndarray | None] = []  # A^(2^i) so far, then None after one that repeats
        self._source = _squaring(self.a)

    def _squares(self):
        for i in itertools.count():
            if i == len(self._built):
                self._built.append(next(self._source))
            yield self._built[i]

    def power(self, k: int) -> np.ndarray:
        """A^k, k >= 1; O(n^3 log k) worst case, and usually far less on matrices that stabilize early."""
        return _binary_power(self._squares(), _checked_exponent(k))


def dioid_power(a, k: int) -> np.ndarray:
    """k-th dioid power of a square matrix, k >= 1: a fresh array.

    Binary exponentiation over the squaring sequence A, A^2, A^4, ... with
    an early exit once the current square repeats (see _binary_power), so
    the cost is O(n^3 log k) worst case and usually far less on matrices
    that stabilize early. Each square is dropped once the next is built,
    so four n x n arrays (base, its square, the result and one product
    buffer) are live at most, whatever k is.
    """
    a = _as_dioid_matrix(a)
    result = _binary_power(_squaring(a), _checked_exponent(k))
    return result.copy() if result is a else result


def _in_leaf_order(near: np.ndarray | list[float], n: int) -> np.ndarray:
    """The n x n ultrametric, in leaf order, whose neighbour entries are ``near`` (+inf ones part trees)."""
    ordered = np.zeros((n, n))
    for q in range(1, n):  # u(p, q) = max(u(p, q-1), u(q-1, q)), written to row and column q
        ordered[q, :q] = ordered[:q, q] = np.maximum(ordered[q - 1, :q], near[q - 1])
    return ordered


def _in_input_order(order, near) -> np.ndarray:
    """The ultrametric of leaves ``order`` (input indices, in tree order) with neighbour entries ``near``."""
    n = len(order)
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.asarray(order, dtype=np.intp)] = np.arange(n)
    return _in_leaf_order(near, n).take(inverse, axis=0).take(inverse, axis=1)


def _prim_closure(a: np.ndarray) -> np.ndarray:
    """Minimax closure of a symmetric zero-diagonal matrix, from Prim's visit order.

    Prim visits node v_k at key d_k, its least link to the nodes visited
    before; a +inf key ends a tree, and the next one starts at the lowest
    node not visited. Prim takes a link above delta only once it has
    visited every delta-component it has entered, so each single-linkage
    cluster is one run of the order and u(v_i, v_j) = max(d_{i+1}, ...,
    d_j): the leaf-order recurrence. O(n^2) work in n numpy steps; visited
    nodes are masked by +inf, never by a copy of a.
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
    np.fill_diagonal(closure, np.diagonal(a))
    return closure


def quasi_inverse(a) -> np.ndarray:
    """Minimax chain-cost closure of a zero-diagonal matrix: A^(n-1).

    Entry (i, j) is the least possible bottleneck (maximum link value)
    over directed chains from i to j of any length. A symmetric matrix
    (equal to its transpose) is single linkage, closed in O(n^2) from
    Prim's visit order (Gower & Ross 1969). Any other runs the (min, max)
    Floyd-Warshall recurrence, the minimax form of Hu's maximum capacity
    route recurrence: after step k, C[i, j] is the best bottleneck over
    chains whose intermediate nodes lie in {0, ..., k}. That is O(n^3)
    work in one n x n scratch buffer.

    Both equal the dioid power bit for bit, since min and max only ever
    select entries of A, so no product checks the result at run time; the
    diagonal is A's own, -0.0 cells included. One caveat: where a -0.0
    lies off the diagonal (validate_network refuses such zeros), the two
    kernels agree by value only, as Floyd-Warshall's sign of zero then
    follows its sweep order.
    """
    a = _as_dioid_matrix(a)
    if np.diagonal(a).any():
        i = int(np.nonzero(np.diagonal(a))[0][0])
        raise ValueError(f"quasi-inverse needs a zero diagonal, got {a[i, i]} at ({i}, {i})")
    if np.array_equal(a, a.T):
        return _prim_closure(a)
    closure = a.copy()
    return _min_max_sweep(closure, closure, closure)
