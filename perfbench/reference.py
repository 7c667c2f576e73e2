"""Exact reference results the benchmark checks the library against.

These are written independently of the library's power route: closures
are a (min, max) Floyd–Warshall, and bounded-hop powers are sums of
outer max-products. min and max never create new values, so every
result here is bit-identical to any correct implementation; only convex
combinations involve ordinary arithmetic, and they are summed in the same
order the library documents.

Networks of at most 8 nodes are checked against `dioidclust.oracle`
instead, which enumerates chains by brute force.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ORACLE_MAX_NODES = 8


def read_network(path: Path, fmt: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and dissimilarities of a dense-CSV or edge-list file."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "dense-csv":
        return parse_matrix_csv(text)
    labels: list[str] = []
    index: dict[str, int] = {}
    edges = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        src, dst, weight = (part.strip() for part in line.split("\t"))
        for name in (src, dst):
            if name not in index:
                index[name] = len(labels)
                labels.append(name)
        edges.append((index[src], index[dst], _cell(weight)))
    matrix = np.full((len(labels), len(labels)), np.inf)
    np.fill_diagonal(matrix, 0.0)
    for i, j, weight in edges:
        matrix[i, j] = weight
    return tuple(labels), matrix


def parse_matrix_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    labels = tuple(cell.strip() for cell in rows[0][1:])
    matrix = np.array([[_cell(cell) for cell in row[1:]] for row in rows[1:]], dtype=float)
    return labels, matrix


def _cell(text: str) -> float:
    text = text.strip()
    return math.inf if text == "" or text.lower() == "inf" else float(text)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(min, max) product as the entrywise minimum of n outer max-products."""
    out = np.full(a.shape, np.inf)
    for k in range(a.shape[0]):
        np.minimum(out, np.maximum.outer(a[:, k], b[k]), out=out)
    return out


def power(a: np.ndarray, hops: int) -> np.ndarray:
    """Minimax chain costs over chains of at most `hops` links."""
    result = a
    for _ in range(hops - 1):
        result = product(result, a)
    return result


def closure(a: np.ndarray) -> np.ndarray:
    """Minimax chain costs over chains of any length (zero diagonal assumed)."""
    c = np.array(a, dtype=float)
    for k in range(c.shape[0]):
        np.minimum(c, np.maximum.outer(c[:, k], c[k]), out=c)
    return c


def split_spec(spec: str) -> tuple[str, str]:
    kind, _, arg = spec.partition(":")
    return kind, arg


def convex_terms(arg: str) -> list[tuple[float, str]]:
    """(weight, constituent) pairs of a convex spec without nested parentheses."""
    terms = []
    for term in arg.split("+"):
        weight, sub = term.split("*", 1)
        terms.append((float(weight), sub))
    return terms


class References:
    """Reference ultrametrics per (input file, method), computed once each."""

    def __init__(self, root: Path):
        self.root = root
        self._networks: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        self._results: dict[tuple[str, str], np.ndarray] = {}

    def network(self, net) -> tuple[tuple[str, ...], np.ndarray]:
        if net.path not in self._networks:
            self._networks[net.path] = read_network(self.root / net.path, net.fmt)
        return self._networks[net.path]

    def ultrametric(self, net, spec: str) -> np.ndarray:
        key = (net.path, spec)
        if key not in self._results:
            labels, a = self.network(net)
            if len(labels) <= ORACLE_MAX_NODES:
                self._results[key] = self._oracle(net, labels, a, spec)
            else:
                self._results[key] = self._dioid(net, a, spec)
        return self._results[key]

    def connected(self, net) -> bool:
        """Every ordered pair has a finite directed chain cost."""
        return bool(np.isfinite(closure(self.network(net)[1])).all())

    def _splice(self, net, kind: str, arg: str) -> np.ndarray:
        beta = float(arg)
        lower = self.ultrametric(net, "nonreciprocal")
        upper = self.ultrametric(net, "reciprocal")
        if kind == "graft-rnr":
            return np.where(upper <= beta, lower, upper)
        return np.where(upper <= beta, upper, np.maximum(beta, lower))

    def _convex_sum(self, net, arg: str) -> np.ndarray:
        n = len(self.network(net)[0])
        combined = np.zeros((n, n))
        for weight, sub in convex_terms(arg):
            if weight != 0.0:
                combined = combined + weight * self.ultrametric(net, sub)
        return combined

    def _dioid(self, net, a: np.ndarray, spec: str) -> np.ndarray:
        kind, arg = split_spec(spec)
        if kind == "reciprocal":
            return closure(np.maximum(a, a.T))
        if kind == "nonreciprocal":
            forward = closure(a)
            return np.maximum(forward, forward.T)
        if kind == "single-linkage":
            return closure(a)
        if kind == "semi-reciprocal":
            limited = power(a, int(arg) - 1)
            return closure(np.maximum(limited, limited.T))
        if kind == "intermediate":
            t_fwd, t_bwd = (int(x) for x in arg.split(","))
            return closure(np.maximum(power(a, t_fwd), power(a, t_bwd).T))
        if kind in ("graft-rnr", "graft-rrmax"):
            return self._splice(net, kind, arg)
        if kind == "convex":
            return closure(self._convex_sum(net, arg))
        raise ValueError(f"no reference for method {spec!r}")

    def _oracle(self, net, labels, a: np.ndarray, spec: str) -> np.ndarray:
        from dioidclust import oracle
        from dioidclust.network import Network

        network = Network(labels, a)
        kind, arg = split_spec(spec)
        if kind == "reciprocal":
            return oracle.brute_reciprocal(network).dist
        if kind == "nonreciprocal":
            return oracle.brute_nonreciprocal(network).dist
        if kind == "single-linkage":
            return oracle.brute_single_linkage(network).dist
        if kind == "semi-reciprocal":
            return oracle.brute_semi_reciprocal(network, int(arg)).dist
        if kind == "intermediate":
            t_fwd, t_bwd = (int(x) for x in arg.split(","))
            forward = _brute_pairwise(network, t_fwd + 1)
            backward = _brute_pairwise(network, t_bwd + 1)
            return _brute_pairwise(Network(labels, np.maximum(forward, backward.T)), None)
        if kind in ("graft-rnr", "graft-rrmax"):
            return self._splice(net, kind, arg)
        if kind == "convex":
            return oracle.brute_single_linkage(Network(labels, self._convex_sum(net, arg))).dist
        raise ValueError(f"no oracle for method {spec!r}")


def _brute_pairwise(network, max_nodes: int | None) -> np.ndarray:
    from dioidclust.oracle import brute_minimax_cost

    labels = network.labels
    return np.array(
        [[brute_minimax_cost(network, x, y, max_nodes) for y in labels] for x in labels]
    )
