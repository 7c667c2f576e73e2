"""Admissible hierarchical clustering methods for asymmetric networks.

Every method is a pure map from a Network to an Ultrametric, computed with
powers in the (min, max) dioid:

* reciprocal            closure of the max-symmetrized dissimilarities;
  the uniformly maximal admissible method.
* nonreciprocal         max of the forward and backward chain-cost
  closures; the uniformly minimal admissible method.
* semi-reciprocal(t)    closure of the symmetrized (t-1)-hop chain costs;
  cyclic influence through loops of at most t nodes per direction.
* intermediate(t, t')   like semi-reciprocal but with direction-dependent
  hop budgets t and t'.
* grafting              entrywise splice of the reciprocal and
  nonreciprocal outputs at a threshold beta.
* convex combination    weighted average of constituent outputs, restored
  to an ultrametric by a single-linkage closure.
* single linkage        the unique admissible method on symmetric inputs.

Each output lands entrywise between the nonreciprocal (lower) and
reciprocal (upper) ultrametrics. All functions are pure and safe to run
concurrently on a shared Network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dioid import dioid_power, elementwise_max, is_integer, quasi_inverse, symmetrize_max
from .hierarchy import Provenance, Ultrametric, UltrametricReport, validate_ultrametric
from .network import Network, format_value

__all__ = [
    "GraftCounterexample",
    "MethodSpec",
    "MethodSpecError",
    "ADMISSIBLE_KINDS",
    "convex_combination",
    "graft_rnr",
    "graft_rr_invalid",
    "graft_rrmax",
    "intermediate",
    "nonreciprocal",
    "reciprocal",
    "run_method",
    "semi_reciprocal",
    "single_linkage",
]

WEIGHT_SUM_TOLERANCE = 1e-12

ADMISSIBLE_KINDS = (
    "reciprocal",
    "nonreciprocal",
    "semi-reciprocal",
    "intermediate",
    "graft-rnr",
    "graft-rrmax",
    "convex",
    "single-linkage",
)
ALL_KINDS = ADMISSIBLE_KINDS + ("graft-rr-invalid",)


class MethodSpecError(ValueError):
    """Invalid method description or parameters."""


@dataclass(frozen=True)
class MethodSpec:
    """A clustering method selection with its parameters.

    Exactly the parameters the kind requires may be present: ``t`` for
    semi-reciprocal (>= 2), ``t_fwd``/``t_bwd`` for intermediate (>= 1),
    ``beta`` (> 0) for the grafting kinds, ``weights``/``constituents``
    for convex combinations (weights in [0, 1] summing to 1, constituents
    admissible).
    """

    kind: str
    t: int | None = None
    t_fwd: int | None = None
    t_bwd: int | None = None
    beta: float | None = None
    weights: tuple[float, ...] = ()
    constituents: tuple["MethodSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise MethodSpecError(f"unknown method kind {self.kind!r}")
        wants_t = self.kind == "semi-reciprocal"
        wants_tt = self.kind == "intermediate"
        wants_beta = self.kind in ("graft-rnr", "graft-rrmax", "graft-rr-invalid")
        wants_convex = self.kind == "convex"
        if (self.t is not None) != wants_t:
            raise MethodSpecError(f"parameter t is {'required' if wants_t else 'not accepted'} by {self.kind}")
        if ((self.t_fwd is not None) != wants_tt) or ((self.t_bwd is not None) != wants_tt):
            raise MethodSpecError(
                f"parameters t_fwd/t_bwd are {'required' if wants_tt else 'not accepted'} by {self.kind}"
            )
        if (self.beta is not None) != wants_beta:
            raise MethodSpecError(f"parameter beta is {'required' if wants_beta else 'not accepted'} by {self.kind}")
        if bool(self.weights or self.constituents) != wants_convex:
            raise MethodSpecError(
                f"weights/constituents are {'required' if wants_convex else 'not accepted'} by {self.kind}"
            )
        if wants_t:
            if not is_integer(self.t) or self.t < 2:
                raise MethodSpecError(f"semi-reciprocal needs integer t >= 2, got {self.t!r}")
        if wants_tt:
            for name, val in (("t_fwd", self.t_fwd), ("t_bwd", self.t_bwd)):
                if not is_integer(val) or val < 1:
                    raise MethodSpecError(f"intermediate needs integer {name} >= 1, got {val!r}")
        if wants_beta:
            if not isinstance(self.beta, (int, float)) or not math.isfinite(self.beta) or self.beta <= 0:
                raise MethodSpecError(f"grafting needs finite beta > 0, got {self.beta!r}")
        if wants_convex:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            object.__setattr__(self, "constituents", tuple(self.constituents))
            if len(self.constituents) < 2:
                raise MethodSpecError("convex combination needs at least two constituents")
            if len(self.weights) != len(self.constituents):
                raise MethodSpecError(
                    f"{len(self.weights)} weights for {len(self.constituents)} constituents"
                )
            for w in self.weights:
                if not math.isfinite(w) or w < 0 or w > 1:
                    raise MethodSpecError(f"weights must lie in [0, 1], got {w!r}")
            total = math.fsum(self.weights)
            if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                raise MethodSpecError(f"weights must sum to 1, got {total!r}")
            for sub in self.constituents:
                if sub.kind == "graft-rr-invalid":
                    raise MethodSpecError("graft-rr-invalid is not admissible and cannot be combined")

    @property
    def exact(self) -> bool:
        """True when the method uses only min/max, so comparisons are exact."""
        if self.kind == "convex":
            return False
        return True

    def describe(self) -> str:
        """Canonical method string; round-trips through the CLI grammar."""
        if self.kind == "semi-reciprocal":
            return f"semi-reciprocal:{self.t}"
        if self.kind == "intermediate":
            return f"intermediate:{self.t_fwd},{self.t_bwd}"
        if self.kind in ("graft-rnr", "graft-rrmax", "graft-rr-invalid"):
            return f"{self.kind}:{format_value(self.beta)}"
        if self.kind == "convex":
            terms = []
            for w, sub in zip(self.weights, self.constituents):
                text = sub.describe()
                if sub.kind == "convex":
                    text = f"({text})"
                terms.append(f"{format_value(w)}*{text}")
            return "convex:" + "+".join(terms)
        return self.kind


@dataclass(frozen=True)
class GraftCounterexample:
    """Invalidly grafted matrix plus the proof it need not be an ultrametric."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    beta: float
    report: UltrametricReport

    @property
    def is_ultrametric(self) -> bool:
        return self.report.is_valid


def _require_valid(net: Network) -> None:
    a = net.dissim
    if (a < 0).any() or np.diagonal(a).any():
        raise ValueError("network violates dissimilarity invariants; run validate_network")


def _wrap(net: Network, matrix: np.ndarray, method: str) -> Ultrametric:
    return Ultrametric(net.labels, matrix, provenance=Provenance(method=method, n=net.n))


def _trivial(net: Network, method: str) -> Ultrametric:
    return _wrap(net, np.zeros((1, 1)), method)


def reciprocal(net: Network) -> Ultrametric:
    """Cluster through chains of low dissimilarity in both directions at once."""
    _require_valid(net)
    if net.n == 1:
        return _trivial(net, "reciprocal")
    closure = quasi_inverse(symmetrize_max(net.dissim))
    return _wrap(net, closure, "reciprocal")


def nonreciprocal(net: Network) -> Ultrametric:
    """Cluster through possibly different forward and backward chains."""
    _require_valid(net)
    if net.n == 1:
        return _trivial(net, "nonreciprocal")
    forward = quasi_inverse(net.dissim)
    return _wrap(net, elementwise_max(forward, forward.T), "nonreciprocal")


def semi_reciprocal(net: Network, t: int) -> Ultrametric:
    """Cluster through influence loops of at most t nodes in each direction.

    t=2 reproduces reciprocal clustering; t >= n reproduces nonreciprocal.
    """
    spec = MethodSpec("semi-reciprocal", t=t)
    _require_valid(net)
    if net.n == 1:
        return _trivial(net, spec.describe())
    hops = min(t - 1, net.n - 1)
    limited = dioid_power(net.dissim, hops)
    closure = quasi_inverse(symmetrize_max(limited))
    return _wrap(net, closure, spec.describe())


def intermediate(net: Network, t_fwd: int, t_bwd: int) -> Ultrametric:
    """Semi-reciprocal clustering with direction-dependent hop budgets.

    Forward secondary chains may use at most t_fwd hops and backward ones
    t_bwd; budgets above n-1 are clamped (powers have stabilized there).
    The inner maximum is asymmetric but the closure is symmetric.
    """
    spec = MethodSpec("intermediate", t_fwd=t_fwd, t_bwd=t_bwd)
    _require_valid(net)
    if net.n == 1:
        return _trivial(net, spec.describe())
    forward = dioid_power(net.dissim, min(t_fwd, net.n - 1))
    backward = dioid_power(net.dissim, min(t_bwd, net.n - 1))
    closure = quasi_inverse(elementwise_max(forward, backward.T))
    return _wrap(net, closure, spec.describe())


def single_linkage(net: Network) -> Ultrametric:
    """Minimax chain-cost closure of a symmetric network."""
    _require_valid(net)
    if not net.is_symmetric():
        raise ValueError(
            "single linkage needs a symmetric network; use reciprocal, "
            "nonreciprocal, or another asymmetric method instead"
        )
    if net.n == 1:
        return _trivial(net, "single-linkage")
    return _wrap(net, quasi_inverse(net.dissim), "single-linkage")


def graft_rnr(net: Network, beta: float) -> Ultrametric:
    """Nonreciprocal values where the reciprocal value is within beta, else reciprocal.

    Tight clusters may form through one-directional loops while looser
    ones still require bidirectional influence.
    """
    spec = MethodSpec("graft-rnr", beta=beta)
    lower = nonreciprocal(net).dist
    upper = reciprocal(net).dist
    grafted = np.where(upper <= beta, lower, upper)
    return _wrap(net, grafted, spec.describe())


def graft_rrmax(net: Network, beta: float) -> Ultrametric:
    """Reciprocal values within beta; above it, nonreciprocal saturated up to beta."""
    spec = MethodSpec("graft-rrmax", beta=beta)
    lower = nonreciprocal(net).dist
    upper = reciprocal(net).dist
    grafted = np.where(upper <= beta, upper, np.maximum(beta, lower))
    return _wrap(net, grafted, spec.describe())


def graft_rr_invalid(net: Network, beta: float) -> GraftCounterexample:
    """The invalid splice: reciprocal within beta, nonreciprocal above it.

    This composition generally breaks the strong triangle inequality, so
    the result is a demonstrator carrying its own validity report rather
    than an Ultrametric; dendrogram emission is refused downstream.
    """
    MethodSpec("graft-rr-invalid", beta=beta)
    lower = nonreciprocal(net).dist
    upper = reciprocal(net).dist
    grafted = np.where(upper <= beta, upper, lower)
    grafted.flags.writeable = False
    report = validate_ultrametric(grafted, 0.0, labels=net.labels)
    return GraftCounterexample(net.labels, grafted, float(beta), report)


def convex_combination(net: Network, spec: MethodSpec) -> Ultrametric:
    """Weighted average of constituent ultrametrics, single-linkage restored.

    The entrywise weighted sum of ultrametrics can violate the strong
    triangle inequality; one dioid closure (single linkage, the unique
    admissible method on symmetric inputs) restores it while deviating as
    little as possible. Zero-weight constituents are skipped so their
    +inf entries never poison the sum.
    """
    if spec.kind != "convex":
        raise MethodSpecError(f"expected a convex spec, got {spec.kind}")
    _require_valid(net)
    if net.n == 1:
        return _trivial(net, spec.describe())
    combined = np.zeros((net.n, net.n))
    for weight, sub in zip(spec.weights, spec.constituents):
        if weight == 0.0:
            continue
        combined = combined + weight * run_method(net, sub).dist
    closure = quasi_inverse(combined)
    return _wrap(net, closure, spec.describe())


def run_method(net: Network, spec: MethodSpec) -> Ultrametric | GraftCounterexample:
    """Dispatch a MethodSpec; output carries provenance (method string and n)."""
    if spec.kind == "reciprocal":
        return reciprocal(net)
    if spec.kind == "nonreciprocal":
        return nonreciprocal(net)
    if spec.kind == "semi-reciprocal":
        return semi_reciprocal(net, spec.t)
    if spec.kind == "intermediate":
        return intermediate(net, spec.t_fwd, spec.t_bwd)
    if spec.kind == "single-linkage":
        return single_linkage(net)
    if spec.kind == "graft-rnr":
        return graft_rnr(net, spec.beta)
    if spec.kind == "graft-rrmax":
        return graft_rrmax(net, spec.beta)
    if spec.kind == "graft-rr-invalid":
        return graft_rr_invalid(net, spec.beta)
    if spec.kind == "convex":
        return convex_combination(net, spec)
    raise MethodSpecError(f"unknown method kind {spec.kind!r}")
