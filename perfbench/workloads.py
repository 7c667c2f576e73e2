"""Workloads: seeded input generators and the CLI jobs run over them.

Each workload writes its input files from the seed and returns a fixed,
ordered job list. The library only ever sees those files, through
`dioidclust.cli.main(argv)`. Why each workload exists is recorded next to
its definition in WHY.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dioidclust.network import format_value
from reference import References

DEFAULT_SEED = 1

WHY = {  # the same text as each workload's "why" in BENCHMARK.json
    "dense-closure": (
        "4 dense 256-node networks, reciprocal and nonreciprocal cluster jobs: "
        "the closure kernel is most of each job; no bounded-hop powers"
    ),
    "hop-compare": (
        "6 dense 128-node networks, one 6-method compare each: "
        "bounded-hop powers beside closures, repeated extremes and the compare table"
    ),
    "small-batch": (
        "about 320 small jobs on 3-96 node dense and sparse inputs over every method family: "
        "fixed per-job costs dominate, not the kernel"
    ),
}

# sha256 digests of the generated inputs and of the first pass's artifacts
# for DEFAULT_SEED; a run with that seed that reproduces neither is wrong.
RECORDED = {
    "dense-closure": {
        "inputs": "dcb08aef6fbc4d8aa1e278da4a346347fb7512c32734f405577c6b31db09b58a",
        "artifacts": "4449526239eadd2d57331d0860526672b934183e425cb3e8ff47a49ce05f0604",
    },
    "hop-compare": {
        "inputs": "ca3923861db7bc69c0fc990eaa7928a71f3e772380980334dcf83b9e989a1307",
        "artifacts": "98bfe83a8692d8dbc0b419ceb1ac0c1fe44a53209440ea9e65dcb9100e96e0b9",
    },
    "small-batch": {
        "inputs": "d227193053af2639bf5f835c45e1f04573c2513ff50c7267a03800ba7c908881",
        "artifacts": "4b0dac7ff38f9651893d1ceb5010cf2de938f5974af8c94bd7f1618178355785",
    },
}

_OUTPUT_FILES = {"newick": "tree.nwk", "json": "tree.json", "csv": "matrix.csv"}


@dataclass(frozen=True)
class Net:
    """An input file, relative to the checkout root."""

    path: str
    fmt: str  # "dense-csv" or "edge-list"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checker needs to know about it."""

    name: str
    command: str  # cluster | cut | validate | compare
    net: Net
    methods: tuple[str, ...] = ()
    emits: tuple[str, ...] = ()  # cluster: artifact formats; cut: "text" or "json"
    delta: float | None = None
    goldens: tuple[tuple[str, str], ...] = ()  # (emitted format, file under tests/data)

    def outputs(self, outdir: Path) -> dict[str, Path]:
        if self.command == "cut":
            return {"cut": outdir / ("cut.json" if self.emits == ("json",) else "cut.txt")}
        return {fmt: outdir / _OUTPUT_FILES[fmt] for fmt in self.emits}

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.command, "--input", self.net.path, "--format", self.net.fmt]
        for method in self.methods:
            argv += ["--method", method]
        if self.command == "cluster":
            for fmt, path in self.outputs(outdir).items():
                argv += ["--emit", fmt, "--output", str(path)]
        elif self.command == "cut":
            argv += ["--delta", format_value(self.delta), "--emit", self.emits[0]]
            argv += ["--output", str(self.outputs(outdir)["cut"])]
        return argv


@dataclass
class Workload:
    name: str
    why: str
    jobs: list[Job]
    inputs_digest: str


CYCLE4 = Net("tests/data/cycle4.csv", "dense-csv")
CYCLE4_TSV = Net("tests/data/cycle4.tsv", "edge-list")
SWEEP8 = Net("tests/data/sweep8.csv", "dense-csv")

# Run untimed before every measurement (warm-up and golden check) and
# inside every traced pass, so each layer is exercised on every workload.
FIXTURE_JOBS = (
    Job(
        "cycle4-reciprocal", "cluster", CYCLE4, ("reciprocal",), ("newick", "json"),
        goldens=(("newick", "golden_cycle4_reciprocal.nwk"), ("json", "golden_cycle4_reciprocal.json")),
    ),
    Job(
        "cycle4-graft-rnr", "cluster", CYCLE4, ("graft-rnr:4",), ("json",),
        goldens=(("json", "golden_cycle4_graft_rnr4.json"),),
    ),
    Job(
        "sweep8-semi-reciprocal", "cluster", SWEEP8, ("semi-reciprocal:3",), ("newick", "json"),
        goldens=(("newick", "golden_sweep8_sr3.nwk"), ("json", "golden_sweep8_sr3.json")),
    ),
    Job("cycle4-edges-cut", "cut", CYCLE4_TSV, ("nonreciprocal",), ("json",), delta=2.0),
    Job("sweep8-validate", "validate", SWEEP8),
)

def _dense_text(rng: random.Random, n: int, prefix: str, symmetric: bool = False) -> str:
    labels = [f"{prefix}{i}" for i in range(n)]
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or (symmetric and j < i):
                continue
            rows[i][j] = 1.0 - rng.random()  # uniform on (0, 1]
            if symmetric:
                rows[j][i] = rows[i][j]
    lines = ["," + ",".join(labels)]
    lines += [labels[i] + "," + ",".join(format_value(v) for v in rows[i]) for i in range(n)]
    return "\n".join(lines) + "\n"


def _edge_text(rng: random.Random, n: int, prefix: str, components: int) -> str:
    """Sparse digraph: a directed cycle per component, one random extra
    out-edge per node, and each edge mirrored with probability 0.35, so
    unlisted pairs are +inf and results are forests when components > 1."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    while True:  # component sizes of at least 3
        cuts = sorted(rng.sample(range(3, n - 2), components - 1))
        if all(hi - lo >= 3 for lo, hi in zip([0] + cuts, cuts + [n])):
            break
    groups = [nodes[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    edges: dict[tuple[int, int], float] = {}
    for group in groups:
        for k, src in enumerate(group):
            edges[(src, group[(k + 1) % len(group)])] = 1.0 - rng.random()
            dst = rng.choice(group)
            if dst != src and (src, dst) not in edges:
                edges[(src, dst)] = 1.0 - rng.random()
    for src, dst in list(edges):
        if (dst, src) not in edges and rng.random() < 0.35:
            edges[(dst, src)] = 1.0 - rng.random()
    order = list(edges)
    rng.shuffle(order)
    return "".join(f"{prefix}{i}\t{prefix}{j}\t{format_value(edges[(i, j)])}\n" for i, j in order)


def _median_level(u: np.ndarray) -> float:
    """A merge resolution of u in the middle of its finite levels."""
    levels = np.unique(u[np.isfinite(u) & (u > 0)])
    return float(levels[len(levels) // 2]) if len(levels) else 1.0


class _Writer:
    def __init__(self, root: Path, inputs: Path):
        self.root, self.inputs = root, inputs
        self.digest = hashlib.sha256()
        inputs.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, fmt: str, text: str) -> Net:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        data = text.encode("utf-8")
        self.digest.update(f"{name} {len(data)}\n".encode() + data)
        return Net(path.relative_to(self.root).as_posix(), fmt)


def _dense_closure(rng: random.Random, out: _Writer, refs: References) -> list[Job]:
    jobs = []
    for k in range(4):
        net = out.write(f"dense{k}.csv", "dense-csv", _dense_text(rng, 256, "n"))
        for method in ("reciprocal", "nonreciprocal"):
            jobs.append(Job(f"dense{k}-{method}", "cluster", net, (method,), ("newick", "json")))
    return jobs


def _hop_compare(rng: random.Random, out: _Writer, refs: References) -> list[Job]:
    jobs = []
    for k in range(6):
        net = out.write(f"hop{k}.csv", "dense-csv", _dense_text(rng, 128, "h"))
        beta = format_value(_median_level(refs.ultrametric(net, "reciprocal")))
        methods = (
            "semi-reciprocal:3",
            "semi-reciprocal:6",
            "intermediate:2,4",
            f"graft-rnr:{beta}",
            f"graft-rrmax:{beta}",
            "convex:0.5*reciprocal+0.5*semi-reciprocal:3",
        )
        jobs.append(Job(f"hop{k}-compare", "compare", net, methods))
    return jobs


def _small_batch(rng: random.Random, out: _Writer, refs: References) -> list[Job]:
    # Sizes, component counts and method parameters follow fixed schedules;
    # the seed draws only the values, the edges and the job order. So every
    # seed gives the same mix of job sizes.
    sizes = [16 + 80 * i // 23 for i in range(24)]
    nets = []
    for k, n in enumerate([3, 7] + sizes):
        symmetric = k % 6 == 5
        nets.append((out.write(f"small{k}.csv", "dense-csv", _dense_text(rng, n, "d", symmetric)), symmetric))
    for k, n in enumerate([6, 8] + sizes):
        text = _edge_text(rng, n, "v", 1 + k % (2 if n < 16 else 3))
        nets.append((out.write(f"sparse{k}.tsv", "edge-list", text), False))

    hops = itertools.cycle([2, 3, 4, 5, 6])
    budgets = itertools.cycle([(1, 3), (2, 4), (3, 2), (4, 5), (5, 1)])
    convex = itertools.cycle(["convex:0.5*reciprocal+0.5*semi-reciprocal:3", "convex:0.25*nonreciprocal+0.75*reciprocal"])
    families = itertools.cycle([
        lambda b: "reciprocal",
        lambda b: "nonreciprocal",
        lambda b: f"semi-reciprocal:{next(hops)}",
        lambda b: "intermediate:{},{}".format(*next(budgets)),
        lambda b: f"graft-rnr:{b}",
        lambda b: f"graft-rrmax:{b}",
        lambda b: next(convex),
    ])
    cut_emits = itertools.cycle(["text", "json"])
    jobs = list(FIXTURE_JOBS)
    for k, (net, symmetric) in enumerate(nets):
        beta = format_value(_median_level(refs.ultrametric(net, "reciprocal")))
        stem = Path(net.path).stem
        for slot in range(5):
            method = "single-linkage" if symmetric and slot == 0 else next(families)(beta)
            jobs.append(Job(f"{stem}-{slot}", "cluster", net, (method,), ("newick", "json", "csv")))
        if k % 2:
            jobs.append(Job(f"{stem}-validate", "validate", net))
        else:
            method = next(families)(beta)
            delta = _median_level(refs.ultrametric(net, method))
            jobs.append(Job(f"{stem}-cut", "cut", net, (method,), (next(cut_emits),), delta=delta))
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"dense-closure": _dense_closure, "hop-compare": _hop_compare, "small-batch": _small_batch}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, root: Path, inputs: Path, refs: References) -> Workload:
    """Write the workload's inputs under `inputs` and return its jobs."""
    rng = random.Random(f"{name}:{seed}")
    out = _Writer(root, inputs)
    jobs = _BUILDERS[name](rng, out, refs)
    return Workload(name, WHY[name], jobs, out.digest.hexdigest())
