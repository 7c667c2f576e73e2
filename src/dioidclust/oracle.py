"""Brute-force reference implementations by exhaustive chain enumeration.

Everything here evaluates the defining minimax formulas literally over
simple chains, in pure Python, with no dependence on the dioid matrix
route it is used to cross-check. Removing a loop from a chain never
increases its maximum link cost nor its node count, so simple chains are
sufficient. Enumeration is factorial: inputs are capped at 8 nodes.
The clustering oracles refuse a network that validate_network reports
invalid, as the methods do; brute_minimax_cost takes any network.
"""

from __future__ import annotations

import math

import numpy as np

from .hierarchy import Provenance, Ultrametric
from .network import Network, _require_valid

__all__ = [
    "brute_minimax_cost",
    "brute_nonreciprocal",
    "brute_reciprocal",
    "brute_semi_reciprocal",
    "brute_single_linkage",
    "MAX_ORACLE_NODES",
]

MAX_ORACLE_NODES = 8


def _guard(n: int) -> None:
    if n > MAX_ORACLE_NODES:
        raise ValueError(
            f"brute-force oracle refuses {n} nodes (cap {MAX_ORACLE_NODES}); "
            "enumeration is factorial"
        )


def _min_chain_cost(cost, src: int, dst: int, max_nodes: int) -> float:
    """Least possible maximum link cost over simple chains src -> dst.

    Chains may touch at most max_nodes nodes, endpoints included. The
    search prunes any prefix whose running maximum already matches or
    exceeds the best complete chain found.
    """
    n = len(cost)
    if src == dst:
        return 0.0
    if max_nodes < 2:
        return math.inf
    best = math.inf
    visited = [False] * n
    visited[src] = True

    def walk(node: int, used: int, running: float) -> None:
        nonlocal best
        direct = max(running, cost[node][dst])
        if direct < best:
            best = direct
        if used + 1 >= max_nodes:
            return
        for step in range(n):
            if visited[step] or step == dst:
                continue
            through = max(running, cost[node][step])
            if through >= best:
                continue
            visited[step] = True
            walk(step, used + 1, through)
            visited[step] = False

    walk(src, 1, 0.0)
    return best


def _as_costs(matrix: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in matrix]


def _valid_costs(net: Network) -> list[list[float]]:
    """The costs of a network within the size cap that validate_network accepts."""
    _guard(net.n)
    _require_valid(net)
    return _as_costs(net.dissim)


def brute_minimax_cost(net: Network, src: str, dst: str, max_nodes: int | None = None) -> float:
    """Directed minimax chain cost between two nodes by enumeration.

    max_nodes bounds the chain length in nodes including both endpoints;
    None means unbounded (equivalently n, since simple chains suffice).
    Unreachable pairs cost +inf; a node reaches itself at 0.
    """
    _guard(net.n)
    if max_nodes is None:
        max_nodes = net.n
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    return _min_chain_cost(
        _as_costs(net.dissim), net.index(src), net.index(dst), min(max_nodes, net.n)
    )


def _pairwise(cost, n: int, max_nodes: int) -> list[list[float]]:
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i][j] = _min_chain_cost(cost, i, j, max_nodes)
    return out


def _wrap(net: Network, rows, method: str) -> Ultrametric:
    return Ultrametric(net.labels, np.array(rows), provenance=Provenance(method=method, n=net.n))


def brute_reciprocal(net: Network) -> Ultrametric:
    """Reciprocal ultrametric straight from its definition.

    Symmetrize each link to the larger of its two directions, then take
    minimax chain costs in the symmetrized costs.
    """
    n = net.n
    cost = _valid_costs(net)
    sym = [[max(cost[i][j], cost[j][i]) for j in range(n)] for i in range(n)]
    return _wrap(net, _pairwise(sym, n, n), "oracle:reciprocal")


def brute_nonreciprocal(net: Network) -> Ultrametric:
    """Nonreciprocal ultrametric: the larger of the two directed chain costs."""
    n = net.n
    cost = _valid_costs(net)
    directed = _pairwise(cost, n, n)
    rows = [
        [max(directed[i][j], directed[j][i]) for j in range(n)]
        for i in range(n)
    ]
    return _wrap(net, rows, "oracle:nonreciprocal")


def brute_semi_reciprocal(net: Network, t: int) -> Ultrametric:
    """Semi-reciprocal ultrametric by two-stage enumeration.

    Stage one: best directed cost between every pair over secondary chains
    of at most t nodes, symmetrized to the larger direction. Stage two:
    minimax main-chain costs in that matrix, unbounded length.
    """
    if not isinstance(t, int) or t < 2:
        raise ValueError(f"semi-reciprocal needs integer t >= 2, got {t!r}")
    n = net.n
    cost = _valid_costs(net)
    limited = _pairwise(cost, n, min(t, n))
    sym = [[max(limited[i][j], limited[j][i]) for j in range(n)] for i in range(n)]
    return _wrap(net, _pairwise(sym, n, n), f"oracle:semi-reciprocal:{t}")


def brute_single_linkage(net: Network) -> Ultrametric:
    """Minimax chain costs of a symmetric network by enumeration."""
    cost = _valid_costs(net)
    if not net.is_symmetric():
        raise ValueError("brute single linkage needs a symmetric network")
    return _wrap(net, _pairwise(cost, net.n, net.n), "oracle:single-linkage")
