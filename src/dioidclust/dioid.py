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
sequence A, A^2, A^4, ... dioid_power drops each square once the next is
built; a caller that needs several powers of one matrix, or its powers and
its closure, keeps a PowerChain, which ranks the matrix once and builds
each square, and its Floyd-Warshall closure, once, keeping them as ranks.

+inf is the IEEE infinity, never a large sentinel. min/max never create
new values, so equality comparisons between dioid matrices are exact, and a
power is the same bits whichever chain built it. Every function here is
pure; matrices are safe to share across threads, a PowerChain is not.
"""

from __future__ import annotations

import itertools
from functools import cached_property

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
    against one values array, as the power chains and _square_by_rank pass
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


def _squaring(ranks: np.ndarray):
    """Yield the ranks of A, A^2, A^4, ..., each square built when asked for; None follows the first one that repeats."""
    base = ranks
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
    """Dioid powers and the closure of one matrix, sharing its ranking and its squaring sequence A, A^2, A^4, ...

    The matrix is ranked once, on first need (see _ranked). ``power(k)``
    runs ``dioid_power``'s binary exponentiation over squares that the chain
    keeps as ranks: each is built once, on first need, so a new k costs at
    most one product per set bit beyond the squares already built.
    ``closure()`` is ``quasi_inverse(A)``: that call itself on each call
    for a symmetric matrix, and for any other one quasi_inverse call on
    the chain's ranks, whose Floyd-Warshall closure the chain keeps. Until
    it is dropped, the chain holds about log2(k) squares for the largest k
    asked, and that closure, at two bytes an entry (four past 65,536
    distinct values): a quarter of their float64 size. On a directed path,
    whose squares change up to A^(n-1), that peaks near eleven float64
    matrices at n=600 with every entry distinct, so a caller that needs one
    power takes dioid_power, which keeps no square it has used. Each result
    is a fresh float64 array but power(1), which is the chain's own matrix:
    read it, never write it. A chain serves one thread.
    """

    def __init__(self, a):
        self.a = _as_dioid_matrix(a)
        self._built: list[np.ndarray | None] = []  # A^(2^i) so far, then None after one that repeats

    @cached_property
    def _ranking(self) -> tuple[np.ndarray, np.ndarray]:
        return _ranked(self.a)

    @cached_property
    def _source(self):
        return _squaring(self._ranking[1])

    @cached_property
    def _directed(self) -> bool:
        """A has a zero diagonal and differs from its transpose: quasi_inverse would run Floyd-Warshall."""
        return not np.diagonal(self.a).any() and not (self.a == self.a.T).all()

    @cached_property
    def _floyd_warshall(self) -> _Ranks:
        return quasi_inverse(self._ranking[1])

    def _squares(self):
        for i in itertools.count():
            if i == len(self._built):
                self._built.append(next(self._source))
            yield self._built[i]

    def power(self, k: int) -> np.ndarray:
        """A^k, k >= 1; O(n^3 log k) worst case, and usually far less on matrices that stabilize early."""
        k = _checked_exponent(k)
        if k == 1:
            return self.a
        return _from_ranks(self._ranking[0], _binary_power(self._squares(), k), np.diagonal(self.a))

    def closure(self) -> np.ndarray:
        """quasi_inverse(A); see there. A directed closure is swept once, on the chain's ranks."""
        if not self._directed:
            return quasi_inverse(self.a)
        return _from_ranks(self._ranking[0], self._floyd_warshall, np.diagonal(self.a))


def dioid_power(a, k: int) -> np.ndarray:
    """k-th dioid power of a square matrix, k >= 1: a fresh array.

    Binary exponentiation over the squaring sequence A, A^2, A^4, ... of
    A's ranks, with an early exit once the current square repeats (see
    _binary_power), so the cost is O(n^3 log k) worst case and usually far
    less on matrices that stabilize early. Each square is dropped once the
    next is built, so four n x n rank arrays (base, its square, the result
    and one product buffer) are live at most, whatever k is.
    """
    a = _as_dioid_matrix(a)
    k = _checked_exponent(k)
    if k == 1:
        return a.copy()
    values, ranks = _ranked(a)
    return _from_ranks(values, _binary_power(_squaring(ranks), k), np.diagonal(a))


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
    That is O(n^3) work in one n x n scratch buffer of ranks. A PowerChain
    of A runs it once for all the budgets it serves, passing its ranks,
    which are closed on a copy and returned as _Ranks.

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
