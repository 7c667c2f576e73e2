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

One dioid helper computes five of them as the closure of max(A^t, (A^t')ᵀ):
reciprocal is (t, t') = (1, 1), semi-reciprocal(t) is (t-1, t-1),
nonreciprocal is (inf, inf) and single linkage is reciprocal on a symmetric
network; the grafts splice its (inf, inf) and (1, 1) closures. Budgets are
passed as stated, and only dioid knows where powers stabilize:
dioid._hop_powers maps one at or past n-1 to the directed closure
(Floyd–Warshall on an asymmetric network), dioid._hop_closures runs no outer
closure with both budgets there, and equal budget pairs close once.
Every outer closure, and the one that restores a convex combination, is of
a symmetric matrix, so quasi_inverse runs it on Prim's visit order in O(n^2).

Each output lands entrywise between the nonreciprocal (lower) and
reciprocal (upper) ultrametrics. All functions are pure and safe to run
concurrently on a shared Network.

The method-spec text grammar (``GRAMMAR``, ``parse_method_spec``) lives
here beside ``MethodSpec.describe()``. One table names each kind's
parameters and the hop budget pairs it reads; the spec checks, the parser,
``describe()`` and ``run_methods`` all read it. ``run_methods`` is the one
evaluator, and every public method is one call of it: it checks the network
once, runs each distinct method once, takes all hop closures from one
dioid._hop_closures call, and keeps convex parts as matrices: one result per
distinct returned spec, checked once per result, not once per use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .dioid import _hop_closures, is_integer, quasi_inverse
from .hierarchy import Provenance, Ultrametric, UltrametricReport, validate_ultrametric
from .network import Network, _require_valid, format_value

__all__ = [
    "GRAMMAR",
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
    "parse_method_spec",
    "reciprocal",
    "run_method",
    "run_methods",
    "semi_reciprocal",
    "single_linkage",
]

WEIGHT_SUM_TOLERANCE = 1e-12
MAX_CONVEX_DEPTH = 500

# Each kind's parameter names and the (forward, backward) budget pairs of the
# hop closures it reads (dioid._hop_closures closes each distinct pair once),
# as the paper states them, never clamped (math.inf is the unbounded budget):
# the grafts read the nonreciprocal (lower), then the reciprocal (upper) pair.
_EXTREMES = ((math.inf, math.inf), (1, 1))
_KINDS = {
    "reciprocal": ((), lambda spec: ((1, 1),)),
    "nonreciprocal": ((), lambda spec: ((math.inf, math.inf),)),
    "semi-reciprocal": (("t",), lambda spec: ((spec.t - 1, spec.t - 1),)),
    "intermediate": (("t_fwd", "t_bwd"), lambda spec: ((spec.t_fwd, spec.t_bwd),)),
    "graft-rnr": (("beta",), lambda spec: _EXTREMES),
    "graft-rrmax": (("beta",), lambda spec: _EXTREMES),
    "convex": (("weights", "constituents"), lambda spec: ()),
    "single-linkage": ((), lambda spec: ((1, 1),)),
    "graft-rr-invalid": (("beta",), lambda spec: _EXTREMES),
}
ADMISSIBLE_KINDS = tuple(kind for kind in _KINDS if kind != "graft-rr-invalid")

GRAMMAR = f"""method spec grammar:
  reciprocal | nonreciprocal | single-linkage
  semi-reciprocal:<t>                integer t >= 2
  intermediate:<t>,<t'>              integers t, t' >= 1
  graft-rnr:<beta>                   beta > 0
  graft-rrmax:<beta>                 beta > 0
  graft-rr-invalid:<beta>            beta > 0 (counterexample demonstrator)
  convex:<w>*<spec>+<w>*<spec>[+..]  weights in [0,1] summing to 1;
                                     nested convex specs in parentheses,
                                     at most {MAX_CONVEX_DEPTH} convex levels deep"""

# Only ASCII digits, points and exponents: int() and float() also take
# underscores, other scripts' digits, "inf" and "nan", none of which
# describe() writes back. A number is matched whole or not at all, so an
# exponent's sign is never read as the "+" between convex terms.
_INTEGER = re.compile(r"[0-9]+(?![\w.])")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?![\w.])")
_KIND = re.compile(r"[\w-]+")
_SPACE = re.compile(r"\s*")


class MethodSpecError(ValueError):
    """Invalid method description or parameters."""


def _is_real(value) -> bool:
    """True for Python and numpy ints and floats; False for bools, strings and the rest."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _param_text(value) -> str:
    """Hop budgets in full digits, however large; beta as format_value writes it."""
    return str(int(value)) if is_integer(value) else format_value(value)


@dataclass(frozen=True, eq=False, repr=False)
class MethodSpec:
    """A clustering method selection with its parameters.

    Exactly the parameters the kind requires may be present: ``t`` for
    semi-reciprocal (>= 2), ``t_fwd``/``t_bwd`` for intermediate (>= 1),
    ``beta`` (> 0) for the grafting kinds, ``weights``/``constituents``
    for convex combinations (weights in [0, 1] summing to 1, constituents
    admissible). Beta and weights take Python or numpy numbers, not bools,
    and are stored as floats. ``==``, ``hash`` and ``repr`` read the
    fields of a flat spec and the describe() text of a convex one, so
    they cost no Python recursion at any depth.
    """

    kind: str
    t: int | None = None
    t_fwd: int | None = None
    t_bwd: int | None = None
    beta: float | None = None
    weights: tuple[float, ...] = ()
    constituents: tuple["MethodSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MethodSpecError(f"unknown method kind {self.kind!r}")
        wanted = _KINDS[self.kind][0]
        for name in ("t", "t_fwd", "t_bwd", "beta", "weights", "constituents"):
            value = getattr(self, name)
            given = value is not None and not (name in ("weights", "constituents") and len(value) == 0)
            if given != (name in wanted):
                raise MethodSpecError(
                    f"parameter {name} is {'required' if name in wanted else 'not accepted'} by {self.kind}"
                )
        for name, least in (("t", 2), ("t_fwd", 1), ("t_bwd", 1)):
            if name not in wanted:
                continue
            val = getattr(self, name)
            try:  # describe() writes a budget in full digits, which Python limits
                shown = _param_text(val) if is_integer(val) else repr(val)
            except ValueError as exc:
                raise MethodSpecError(f"{self.kind} {name} has too many digits to write: {exc}") from None
            if not is_integer(val) or val < least:
                raise MethodSpecError(f"{self.kind} needs integer {name} >= {least}, got {shown}")
        if "beta" in wanted:
            if not _is_real(self.beta) or not math.isfinite(self.beta) or self.beta <= 0:
                raise MethodSpecError(f"grafting needs finite beta > 0, got {self.beta!r}")
            object.__setattr__(self, "beta", float(self.beta))
        if self.kind == "convex":
            for w in self.weights:
                if not _is_real(w) or not math.isfinite(w) or w < 0 or w > 1:
                    raise MethodSpecError(f"weights must be numbers in [0, 1], got {w!r}")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            object.__setattr__(self, "constituents", tuple(self.constituents))
            if len(self.constituents) < 2:
                raise MethodSpecError("convex combination needs at least two constituents")
            if len(self.weights) != len(self.constituents):
                raise MethodSpecError(
                    f"{len(self.weights)} weights for {len(self.constituents)} constituents"
                )
            total = math.fsum(self.weights)
            if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                raise MethodSpecError(f"weights must sum to 1, got {total!r}")
            for sub in self.constituents:
                if sub.kind == "graft-rr-invalid":
                    raise MethodSpecError("graft-rr-invalid is not admissible and cannot be combined")

    def _key(self):
        return self.describe() if self.kind == "convex" else (self.kind, self.t, self.t_fwd, self.t_bwd, self.beta)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, MethodSpec) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"MethodSpec({self.describe()!r})"

    @property
    def exact(self) -> bool:
        """True when the method uses only min/max, so comparisons are exact."""
        return self.kind != "convex"

    def describe(self) -> str:
        """Canonical method string; parse_method_spec reads it back to an equal spec.

        That holds up to MAX_CONVEX_DEPTH convex levels, past which the
        parser refuses the text. Rendered left to right from an explicit
        stack of pending text and specs, so convex nesting costs no Python
        recursion.
        """
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
            elif item.kind == "convex":
                todo = []
                for w, sub in zip(item.weights, item.constituents):
                    todo += ["+" if todo else "convex:", f"{format_value(w)}*"]
                    todo += ["(", sub, ")"] if sub.kind == "convex" else [sub]
                stack += reversed(todo)
            else:
                names = _KINDS[item.kind][0]
                pieces.append(item.kind + (":" if names else "")
                              + ",".join(_param_text(getattr(item, name)) for name in names))
        return "".join(pieces)


def parse_method_spec(text: str) -> MethodSpec:
    """Parse a method spec string; see GRAMMAR for the accepted forms.

    One recursive-descent pass, left to right: spec := "("* kind [":" params] ")"*
    with as many ")" as "(", convex params := weight "*" spec ("+" weight "*" spec)*,
    and whitespace allowed between any two tokens.
    """
    pos = 0

    def error(problem: str) -> MethodSpecError:
        return MethodSpecError(f"{problem} (column {pos + 1} of {text!r})\n{GRAMMAR}")

    def skip(char: str) -> bool:
        """Step over whitespace, then over char if it comes next."""
        nonlocal pos
        pos = _SPACE.match(text, pos).end()
        found = text.startswith(char, pos)
        pos += found
        return found

    def token(pattern: re.Pattern, problem: str) -> str:
        nonlocal pos
        pos = _SPACE.match(text, pos).end()
        if not (found := pattern.match(text, pos)):
            raise error(problem)
        pos = found.end()
        return found.group()

    def integer(name: str) -> int:
        nonlocal pos
        digits = token(_INTEGER, f"{name} must be an integer in ASCII digits")
        try:
            return int(digits)
        except ValueError as exc:  # past Python's limit on text-to-int digits
            pos -= len(digits)
            raise error(f"{name} has too many digits: {exc}") from None

    def spec(depth: int) -> MethodSpec:  # depth: the number of enclosing convex levels
        opens = 0  # counted, not recursed: thousands of wrapping "(" must parse
        while skip("("):
            opens += 1
        kind = token(_KIND, "expected a method kind")
        if kind not in _KINDS:
            raise error(f"unknown method kind {kind!r}")
        names = _KINDS[kind][0]
        if kind == "convex" and depth and not opens:
            raise error("a nested convex spec needs parentheses")
        if kind == "convex" and depth == MAX_CONVEX_DEPTH:
            raise error(f"convex specs nest at most {MAX_CONVEX_DEPTH} levels deep")
        if names and not skip(":"):
            raise error(f"{kind} needs ':' and then {' and '.join(names)}")
        weights, constituents, params = [], [], {}
        if kind == "convex":
            while not weights or skip("+"):
                weights.append(float(token(_DECIMAL, "a weight must be a decimal number")))
                if not skip("*"):
                    raise error("expected '*' between a weight and its spec")
                constituents.append(spec(depth + 1))
        else:
            for name in names:
                if params and not skip(","):
                    raise error(f"{kind} needs {' and '.join(names)}, separated by ','")
                params[name] = (float(token(_DECIMAL, "beta must be a decimal number")) if name == "beta"
                                else integer(name))
        if not all(skip(")") for _ in range(opens)):
            raise error("unbalanced parentheses: expected ')'")
        try:
            return MethodSpec(kind, weights=tuple(weights), constituents=tuple(constituents), **params)
        except MethodSpecError as exc:
            raise error(str(exc)) from None

    parsed = spec(0)
    if pos < len(text.rstrip()):
        raise error("unbalanced parentheses: ')' closes nothing" if skip(")") else "unexpected text after the spec")
    return parsed


@dataclass(frozen=True, eq=False)
class GraftCounterexample:
    """Invalidly grafted matrix plus the proof it need not be an ultrametric."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    beta: float
    report: UltrametricReport

    @property
    def is_ultrametric(self) -> bool:
        return self.report.is_valid


def reciprocal(net: Network) -> Ultrametric:
    """Cluster through chains of low dissimilarity in both directions at once."""
    return run_method(net, MethodSpec("reciprocal"))


def nonreciprocal(net: Network) -> Ultrametric:
    """Cluster through possibly different forward and backward chains: no hop bound."""
    return run_method(net, MethodSpec("nonreciprocal"))


def semi_reciprocal(net: Network, t: int) -> Ultrametric:
    """Cluster through influence loops of at most t nodes in each direction.

    t=2 reproduces reciprocal clustering; t >= n is nonreciprocal, run as one closure.
    """
    return run_method(net, MethodSpec("semi-reciprocal", t=t))


def intermediate(net: Network, t_fwd: int, t_bwd: int) -> Ultrametric:
    """Semi-reciprocal clustering with direction-dependent hop budgets.

    Forward secondary chains may use at most t_fwd hops and backward ones
    t_bwd. The inner maximum is asymmetric but the closure is symmetric.
    """
    return run_method(net, MethodSpec("intermediate", t_fwd=t_fwd, t_bwd=t_bwd))


def single_linkage(net: Network) -> Ultrametric:
    """Minimax chain-cost closure of a symmetric network: reciprocal clustering there."""
    return run_method(net, MethodSpec("single-linkage"))


def graft_rnr(net: Network, beta: float) -> Ultrametric:
    """Nonreciprocal values where the reciprocal value is within beta, else reciprocal.

    Tight clusters may form through one-directional loops while looser
    ones still require bidirectional influence.
    """
    return run_method(net, MethodSpec("graft-rnr", beta=beta))


def graft_rrmax(net: Network, beta: float) -> Ultrametric:
    """Reciprocal values within beta; above it, nonreciprocal saturated up to beta."""
    return run_method(net, MethodSpec("graft-rrmax", beta=beta))


def graft_rr_invalid(net: Network, beta: float) -> GraftCounterexample:
    """The invalid splice: reciprocal within beta, nonreciprocal above it.

    This composition generally breaks the strong triangle inequality, so
    the result is a demonstrator carrying its own validity report rather
    than an Ultrametric; dendrogram emission is refused downstream.
    """
    return run_method(net, MethodSpec("graft-rr-invalid", beta=beta))


def _graft(spec: MethodSpec, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Splice the nonreciprocal (lower) and reciprocal (upper) outputs at spec.beta."""
    within = upper <= spec.beta
    if spec.kind == "graft-rnr":
        return np.where(within, lower, upper)
    if spec.kind == "graft-rrmax":
        return np.where(within, upper, np.maximum(spec.beta, lower))
    return np.where(within, upper, lower)


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
    return run_method(net, spec)


def _convex(spec: MethodSpec, parts: list[np.ndarray]) -> np.ndarray:
    """Sum the nonzero-weight parts in order from zeros, then close."""
    combined = np.zeros(parts[0].shape)
    for weight, part in zip([w for w in spec.weights if w != 0.0], parts):
        combined = combined + weight * part
    return quasi_inverse(combined)


def _parts(spec: MethodSpec) -> tuple[MethodSpec, ...]:
    """A convex spec's nonzero-weight constituents, in the order _convex sums them; other kinds have none."""
    return tuple(sub for w, sub in zip(spec.weights, spec.constituents) if w != 0.0)


def _run(spec: MethodSpec, parts: list, closures: dict) -> np.ndarray:
    """spec's output matrix, from the outputs of _parts(spec) and the hop closures by budget pair.

    Equal pairs share one closure: reciprocal, semi-reciprocal:2,
    intermediate:1,1, single linkage and every graft read the (1, 1) one.
    """
    if spec.kind == "convex":
        return _convex(spec, parts)
    read = [closures[pair] for pair in _KINDS[spec.kind][1](spec)]
    return _graft(spec, *read) if spec.kind.startswith("graft") else read[0]


def _result(net: Network, spec: MethodSpec, matrix: np.ndarray) -> Ultrametric | GraftCounterexample:
    """The one object returned for spec's output: named by describe(), or the invalid graft with its report."""
    if spec.kind != "graft-rr-invalid":
        return Ultrametric(net.labels, matrix, provenance=Provenance(method=spec.describe(), n=net.n))
    matrix.flags.writeable = False
    return GraftCounterexample(net.labels, matrix, spec.beta, validate_ultrametric(matrix, 0.0, labels=net.labels))


def run_methods(net: Network, specs: list[MethodSpec]) -> list[Ultrametric | GraftCounterexample]:
    """Run each spec on net; each distinct method runs once within the call.

    net is checked once, then refused if asymmetric with single linkage among
    the specs, before any kernel runs. Specs are ordered from an explicit
    stack, convex parts first, so nesting costs no Python recursion. All hop
    closures come from one _hop_closures call on the budget pairs _KINDS
    lists, each closed once, and none outlives the call; only dioid knows
    where powers stabilize. Parts stay matrices: each distinct returned spec
    becomes one result, named by describe() and shared by equal flat specs,
    checked once per result, not once per use.
    """
    def key(spec):  # convex specs by identity: their hash renders their whole text, so a chain would cost its square
        return id(spec) if spec.kind == "convex" else spec

    _require_valid(net)
    order, seen, stack = [], set(), [(spec, False) for spec in reversed(specs)]
    while stack:
        spec, ready = stack.pop()
        if ready:
            order.append(spec)
        elif key(spec) not in seen:
            seen.add(key(spec))
            stack += [(spec, True)] + [(part, False) for part in reversed(_parts(spec))]
    if any(spec.kind == "single-linkage" for spec in order) and not net.is_symmetric():
        raise ValueError("single linkage needs a symmetric network; use reciprocal, "
                         "nonreciprocal, or another asymmetric method instead")
    closures = _hop_closures(net.dissim, {pair for spec in order for pair in _KINDS[spec.kind][1](spec)})
    memo = {}
    for spec in order:
        memo[key(spec)] = _run(spec, [memo[key(part)] for part in _parts(spec)], closures)
    returned = {key(spec): spec for spec in specs}
    results = {k: _result(net, spec, memo[k]) for k, spec in returned.items()}
    return [results[key(spec)] for spec in specs]


def run_method(net: Network, spec: MethodSpec) -> Ultrametric | GraftCounterexample:
    """Dispatch a MethodSpec; output carries provenance (method string and n)."""
    return run_methods(net, [spec])[0]
