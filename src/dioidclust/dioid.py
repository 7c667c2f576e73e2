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

All entries are ordinary float64 values; +inf is represented by the IEEE
infinity, never by a large sentinel. min/max never create new values, so
equality comparisons between dioid matrices are exact. Every function here
is pure; matrices are safe to share across threads.
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


def dioid_power(a, k: int) -> np.ndarray:
    """k-th dioid power of a square matrix, k >= 1.

    Binary exponentiation over the squaring sequence A, A^2, A^4, ... with
    an early exit once the current square repeats (an idempotent base
    absorbs every remaining factor), so the cost is O(n^3 log k) worst
    case and usually far less on matrices that stabilize early.
    """
    a = _as_dioid_matrix(a)
    if not is_integer(k):
        raise ValueError(f"power must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    result: np.ndarray | None = None
    base = a
    remaining = int(k)
    while True:
        if remaining & 1:
            result = base.copy() if result is None else dioid_product(result, base)
        remaining >>= 1
        if not remaining:
            break
        squared = dioid_product(base, base)
        if np.array_equal(squared, base):
            # base is idempotent: base^j == base for every j >= 1, so the
            # rest of the factorization collapses into one extra product.
            result = base.copy() if result is None else dioid_product(result, base)
            break
        base = squared
    assert result is not None
    return result


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
