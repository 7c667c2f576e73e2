import warnings
from pathlib import Path

import numpy as np
import pytest

from dioidclust import MethodSpec, Network

# Hypothesis's pytest plugin imports this module when a test fails, to
# report the failing example; its import of libcst warns that
# mypy_extensions.TypedDict is deprecated. Under -W error that warning
# would end the run in INTERNALERROR instead of reporting the failure, so
# the module is imported here once, with only that message ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

DATA = Path(__file__).parent / "data"

CYCLE4_LABELS = ("a", "b", "c", "d")
SWEEP8_LABELS = ("x", "x1", "x2", "x3", "x4", "x5", "x6", "xp")

# Directed 4-cycle of cost 1 with heavier back edges; the workhorse example.
CYCLE4_EDGES = {
    ("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "a"): 1,
    ("b", "a"): 3, ("c", "b"): 5, ("d", "c"): 2, ("a", "d"): 5,
}

# 8-node network whose (x, xp) value sweeps 4, 3, 2, 1 as the loop budget grows.
SWEEP8_EDGES = {
    ("x", "x1"): 1, ("x1", "x2"): 1, ("x2", "x4"): 1, ("x3", "x4"): 2,
    ("x4", "xp"): 1, ("xp", "x5"): 1, ("x5", "x6"): 1, ("x6", "x"): 1,
    ("x1", "x3"): 3, ("x2", "x3"): 2, ("x5", "x3"): 2,
    ("x3", "xp"): 4, ("xp", "x3"): 4, ("x", "x3"): 4, ("x3", "x"): 4,
    ("x3", "x6"): 2,
}


def network_from_edges(labels, edges, absent):
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    a = np.full((n, n), float(absent))
    np.fill_diagonal(a, 0.0)
    for (src, dst), w in edges.items():
        a[idx[src], idx[dst]] = float(w)
    return Network(labels, a)


def cycle4_network(absent=6.0):
    return network_from_edges(CYCLE4_LABELS, CYCLE4_EDGES, absent)


def sweep8_network(absent=5.0):
    return network_from_edges(SWEEP8_LABELS, SWEEP8_EDGES, absent)


def random_network(rng, n=None, n_range=(2, 7), symmetric=False):
    """Uniform (0, 1] off-diagonal dissimilarities, zero diagonal."""
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    a = 1.0 - rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    if symmetric:
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
    return Network(tuple(f"n{i}" for i in range(n)), a)


def method_battery(include_convex=True):
    """One spec per implemented admissible method family, spread over parameters."""
    specs = [
        MethodSpec("reciprocal"),
        MethodSpec("nonreciprocal"),
        MethodSpec("semi-reciprocal", t=2),
        MethodSpec("semi-reciprocal", t=3),
        MethodSpec("semi-reciprocal", t=5),
        MethodSpec("intermediate", t_fwd=1, t_bwd=1),
        MethodSpec("intermediate", t_fwd=1, t_bwd=3),
        MethodSpec("intermediate", t_fwd=2, t_bwd=1),
        MethodSpec("intermediate", t_fwd=3, t_bwd=2),
        MethodSpec("graft-rnr", beta=0.5),
        MethodSpec("graft-rnr", beta=2.0),
        MethodSpec("graft-rrmax", beta=0.5),
        MethodSpec("graft-rrmax", beta=2.0),
    ]
    if include_convex:
        specs.append(MethodSpec(
            "convex",
            weights=(0.5, 0.5),
            constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal")),
        ))
        specs.append(MethodSpec(
            "convex",
            weights=(0.3, 0.7),
            constituents=(MethodSpec("reciprocal"), MethodSpec("semi-reciprocal", t=3)),
        ))
    return specs


@pytest.fixture
def cycle4():
    return cycle4_network()


@pytest.fixture
def sweep8():
    return sweep8_network()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def sweeps(monkeypatch):
    """Every (min, max) sweep run while the test runs, in order: True for a
    Floyd-Warshall closure, run in place on its own operand, False for a
    product, swept into a fresh matrix. Every product and every directed
    closure, whoever asks for it, is one such sweep over ranks."""
    import dioidclust.dioid

    runs, sweep = [], dioidclust.dioid._min_max_sweep
    monkeypatch.setattr(dioidclust.dioid, "_min_max_sweep",
                        lambda out, left, right: runs.append(out is left) or sweep(out, left, right))
    return runs
