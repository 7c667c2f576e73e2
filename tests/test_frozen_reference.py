"""Every admissible method held to the frozen copy of the library.

``perfbench/baseline/dioidclust`` is the library as it stood when the
benchmark was defined, and it is never changed after. It computes every
closure the paper's way, as the dioid power A^(n-1), and it shares no
kernel with ``src/dioidclust``. It is loaded here in process under the
name ``dioidclust_frozen`` and only read.

Results must agree bit for bit (values compared by ``.view(np.uint64)``),
whether a spec runs alone or beside the others in one ``run_methods`` call,
and Newick and JSON bytes must be equal, as must the partitions
``cut_at_resolution`` gives at 0 and at every finite level of a result, and
the exit code, stdout and stderr of ``compare``. The networks drawn are ones
that ``validate_network`` accepts, since the frozen copy accepts some that
are now refused; errors are never compared. Their labels are in input order
or shuffled, so string order can be unrelated to input order.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dioidclust import (MethodSpec, Network, cut_at_resolution, exports, run_method, save_network, to_dendrogram,
                        validate_network)
from dioidclust.cli import main
from dioidclust.methods import run_methods

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline" / "dioidclust"


def _load_frozen():
    if "dioidclust_frozen" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "dioidclust_frozen", BASELINE / "__init__.py", submodule_search_locations=[str(BASELINE)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its relative imports resolve through this entry
        spec.loader.exec_module(module)
    return sys.modules["dioidclust_frozen"]


frozen = _load_frozen()
frozen_exports = importlib.import_module("dioidclust_frozen.exports")
frozen_main = importlib.import_module("dioidclust_frozen.cli").main


@st.composite
def valid_networks(draw):
    """Networks of 2 to 40 nodes: reals or integer ties, +inf forests, symmetric or not, ±0.0 diagonal cells.

    One node is left out: the frozen copy answers a fresh +0.0 there, whatever the sign of the diagonal.
    """
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(1, 5, (n, n)).astype(float)
    else:
        a = 1.0 - rng.random((n, n))
    if draw(st.booleans()):
        group = np.arange(n) % int(rng.integers(1, 4))
        a[group[:, None] != group[None, :]] = np.inf
        a[rng.random((n, n)) < 0.3] = np.inf
    if draw(st.booleans()):
        a = np.minimum(a, a.T)
    np.fill_diagonal(a, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    labels = tuple(f"n{i}" for i in range(n))
    if draw(st.booleans()):  # shuffled: string order unrelated to input order
        labels = tuple(draw(st.permutations(labels)))
    net = Network(labels, a)
    assert validate_network(net).is_valid
    return net


def _specs(draw, symmetric):
    t = draw(st.integers(2, 6))
    t_fwd, t_bwd = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    beta = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
    w = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    specs = [
        MethodSpec("reciprocal"),
        MethodSpec("nonreciprocal"),
        MethodSpec("semi-reciprocal", t=t),
        MethodSpec("intermediate", t_fwd=t_fwd, t_bwd=t_bwd),
        MethodSpec("graft-rnr", beta=beta),
        MethodSpec("graft-rrmax", beta=beta),
        MethodSpec("convex", weights=(w, 1.0 - w),
                   constituents=(MethodSpec("reciprocal"), MethodSpec("semi-reciprocal", t=t))),
        MethodSpec("convex", weights=(1.0 - w, w),
                   constituents=(MethodSpec("graft-rnr", beta=beta), MethodSpec("nonreciprocal"))),
    ]
    return specs + [MethodSpec("single-linkage")] if symmetric else specs


def _frozen_spec(spec):
    """The same spec built with the frozen copy's class."""
    return frozen.MethodSpec(spec.kind, t=spec.t, t_fwd=spec.t_fwd, t_bwd=spec.t_bwd, beta=spec.beta,
                             weights=spec.weights, constituents=tuple(_frozen_spec(s) for s in spec.constituents))


@settings(max_examples=100, deadline=None)
@given(valid_networks(), st.data())
def test_every_admissible_kind_matches_the_frozen_reference(net, data):
    old_net = frozen.Network(net.labels, net.dissim.copy())
    specs = _specs(data.draw, net.is_symmetric())
    for spec, shared in zip(specs, run_methods(net, specs)):  # one call: every hop power from one _hop_powers call
        new, old = run_method(net, spec), frozen.run_method(old_net, _frozen_spec(spec))
        assert new.dist.view(np.uint64).tolist() == old.dist.view(np.uint64).tolist(), spec.describe()
        assert shared.dist.view(np.uint64).tolist() == old.dist.view(np.uint64).tolist(), spec.describe()
        new_tree, old_tree = to_dendrogram(new), frozen.to_dendrogram(old)
        assert exports.newick(new_tree) == frozen_exports.newick(old_tree), spec.describe()
        assert exports.dendrogram_json(new, new_tree) == frozen_exports.dendrogram_json(old, old_tree), spec.describe()
        for delta in sorted({0.0, *new.dist[np.isfinite(new.dist)].tolist()}):
            new_cut, old_cut = cut_at_resolution(new, delta), frozen.cut_at_resolution(old, delta)
            assert (new_cut.resolution, new_cut.blocks) == (old_cut.resolution, old_cut.blocks), spec.describe()


def _run(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    return entry(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(valid_networks(), st.data())
def test_compare_output_matches_the_frozen_reference(tmp_path_factory, net, data):
    # Labels of mixed widths, so the pair column pads its cells to different lengths.
    widths = data.draw(st.lists(st.integers(0, 9), min_size=net.n, max_size=net.n))
    labeled = Network(tuple("v" * w + str(i) for i, w in enumerate(widths)), net.dissim)
    path = tmp_path_factory.mktemp("compare") / "net.csv"
    path.write_text(save_network(labeled))
    argv = ["compare", "--input", str(path)]
    for spec in _specs(data.draw, net.is_symmetric()):
        argv += ["--method", spec.describe()]
    assert _run(main, argv) == _run(frozen_main, argv)
