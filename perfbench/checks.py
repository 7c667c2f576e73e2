"""Output checks, run outside the timed window.

Every distinct output of a job is checked once against the reference
result for its input and method (`reference.References`):

* fixture jobs match the `tests/data` goldens byte for byte;
* every matrix is exactly symmetric with a zero diagonal, and equals the
  reference exactly (convex combinations within 1e-9);
* for exact methods, every finite value is an input entry (grafting at
  beta may also produce beta);
* JSON merges replay to the JSON matrix, the CSV matrix equals it, and
  Newick leaves are the labels, one tree per forest root;
* cut partitions, validate reports and compare tables equal what the
  reference implies;
* per network, nonreciprocal <= every method's result <= reciprocal.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from reference import References, parse_matrix_csv, split_spec

CONVEX_TOLERANCE = 1e-9
_NEWICK_LEAF = re.compile(r"[(,]([^(),:;]+):")


class Checker:
    def __init__(self, root: Path, refs: References):
        self.root = root
        self.refs = refs
        self.matrices: dict[tuple[str, str], list[np.ndarray]] = {}

    def check(self, job, artifacts: dict[str, bytes | None], code: int) -> list[str]:
        """Problems found in one job's outputs; empty when they are correct."""
        if code != 0:
            return [f"exit code {code}: {(artifacts.get('stderr') or b'').decode()[-300:]!r}"]
        missing = [key for key, data in artifacts.items() if data is None]
        if missing:
            return [f"missing outputs {missing}"]
        problems = [
            f"{fmt} differs from golden {golden}"
            for fmt, golden in job.goldens
            if artifacts[fmt] != (self.root / "tests" / "data" / golden).read_bytes()
        ]
        check = getattr(self, "_" + job.command)
        try:
            problems += check(job, {k: v.decode("utf-8") for k, v in artifacts.items()})
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    def sandwich_problems(self) -> dict[str, list[str]]:
        """Per network path: results outside [nonreciprocal, reciprocal]."""
        problems: dict[str, list[str]] = {}
        for (path, method), found in self.matrices.items():
            lower = self.matrices.get((path, "nonreciprocal"))
            upper = self.matrices.get((path, "reciprocal"))
            for m in found:
                tol = 0.0 if _exact(method) else CONVEX_TOLERANCE
                if lower and not (lower[0] <= m + tol).all():
                    problems.setdefault(path, []).append(f"{method} below nonreciprocal")
                if upper and not (m <= upper[0] + tol).all():
                    problems.setdefault(path, []).append(f"{method} above reciprocal")
        return problems

    def _cluster(self, job, out: dict[str, str]) -> list[str]:
        labels, a = self.refs.network(job.net)
        method = job.methods[0]
        expected = self.refs.ultrametric(job.net, method)
        problems = []
        matrix = None
        if "json" in out:
            doc = json.loads(out["json"])
            if tuple(doc["labels"]) != labels:
                problems.append("json labels differ from the input's")
            matrix = np.array([[math.inf if v == "inf" else float(v) for v in row] for row in doc["matrix"]])
            problems += _matrix_problems("json", matrix, expected, method, a)
            replayed, replay_problems = _replay(labels, doc["merges"])
            problems += replay_problems
            if not np.array_equal(replayed, matrix):
                problems.append("json merges do not replay to the json matrix")
        if "csv" in out:
            csv_labels, csv_matrix = parse_matrix_csv(out["csv"])
            if csv_labels != labels:
                problems.append("csv labels differ from the input's")
            problems += _matrix_problems("csv", csv_matrix, expected, method, a)
            matrix = csv_matrix if matrix is None else matrix
        roots = _roots(expected)
        if "newick" in out:
            problems += _newick_problems(out["newick"], labels, roots)
        if matrix is not None:
            self.matrices.setdefault((job.net.path, method), []).append(matrix)
        if f"nodes: {len(labels)}\n" not in out["stdout"]:
            problems.append("merge summary does not state the node count")
        warning = (
            f"warning: network is not minimax-connected; dendrogram is a forest with {roots} roots\n"
            if roots > 1 else ""
        )
        if out["stderr"] != warning:
            problems.append(f"unexpected stderr {out['stderr'][:200]!r}")
        return problems

    def _cut(self, job, out: dict[str, str]) -> list[str]:
        labels, _ = self.refs.network(job.net)
        expected = self.refs.ultrametric(job.net, job.methods[0])
        text = out["cut"]
        if job.emits == ("json",):
            doc = json.loads(text)
            resolution, blocks = doc["resolution"], [tuple(b) for b in doc["blocks"]]
        else:
            head, _, body = text.rstrip("\n").partition(": ")
            resolution = float(head)
            blocks = [tuple(b.strip("{}").split(",")) for b in body.split(" ")]
        problems = []
        if resolution != job.delta:
            problems.append(f"cut resolution {resolution!r} is not {job.delta!r}")
        if blocks != _partition(labels, expected <= job.delta):
            problems.append(f"cut at {job.delta!r} differs from the reference partition")
        return problems

    def _validate(self, job, out: dict[str, str]) -> list[str]:
        labels, _ = self.refs.network(job.net)
        connectivity = (
            "all directed chain costs finite"
            if self.refs.connected(job.net)
            else "NOT connected (dendrograms will be forests)"
        )
        expected = f"network: {len(labels)} nodes, valid\n  minimax connectivity: {connectivity}\n"
        return [] if out["stdout"] == expected else [f"validate report differs: {out['stdout'][:200]!r}"]

    def _compare(self, job, out: dict[str, str]) -> list[str]:
        labels, a = self.refs.network(job.net)
        lines = out["stdout"].splitlines()
        if lines[0].split() != ["pair", *job.methods, "sandwich"]:
            return [f"compare header differs: {lines[0][:200]!r}"]
        n = len(labels)
        iu, ju = np.triu_indices(n, k=1)
        rows = [line.split() for line in lines[1:]]
        if [r[0] for r in rows] != [f"{labels[i]},{labels[j]}" for i, j in zip(iu, ju)]:
            return ["compare rows do not list every pair once, in order"]
        problems = []
        if any(r[-1] != "ok" for r in rows):
            problems.append("compare reports sandwich violations")
        values = np.array([[float(cell) for cell in r[1:-1]] for r in rows])
        for col, method in enumerate(job.methods):
            got = np.zeros((n, n))
            got[iu, ju] = values[:, col]
            got = got + got.T
            problems += _matrix_problems(f"column {method}", got, self.refs.ultrametric(job.net, method), method, a)
        if out["stderr"]:
            problems.append(f"unexpected stderr {out['stderr'][:200]!r}")
        return problems


def _exact(method: str) -> bool:
    return split_spec(method)[0] != "convex"


def _matrix_problems(what: str, m: np.ndarray, expected: np.ndarray, method: str, a: np.ndarray) -> list[str]:
    if m.shape != expected.shape:
        return [f"{what}: shape {m.shape}, expected {expected.shape}"]
    problems = []
    if not np.array_equal(m, m.T):
        problems.append(f"{what}: not symmetric")
    if np.diagonal(m).any():
        problems.append(f"{what}: nonzero diagonal")
    if _exact(method):
        if not np.array_equal(m, expected):
            problems.append(f"{what}: differs from the reference {method}")
        allowed = a[np.isfinite(a)]
        kind, arg = split_spec(method)
        if kind == "graft-rrmax":
            allowed = np.append(allowed, float(arg))
        finite = m[np.isfinite(m)]
        if not np.isin(finite, allowed).all():
            problems.append(f"{what}: values that are not input entries")
    else:
        same_inf = np.array_equal(np.isinf(m), np.isinf(expected))
        finite = np.isfinite(expected)
        if not same_inf or not (np.abs(m[finite] - expected[finite]) <= CONVEX_TOLERANCE).all():
            problems.append(f"{what}: differs from the reference {method} by more than {CONVEX_TOLERANCE}")
    return problems


def _replay(labels, merges) -> tuple[np.ndarray, list[str]]:
    """Ultrametric implied by a merge list, and any structural problems."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    u = np.full((n, n), np.inf)
    np.fill_diagonal(u, 0.0)
    cluster = np.arange(n)
    problems = []
    last = -math.inf
    for event in merges:
        r = float(event["resolution"])
        if not r > last:
            problems.append(f"merge resolutions not increasing at {r!r}")
        last = r
        for block in event["blocks"]:
            idx = np.array([index[x] for x in block])
            parts = np.unique(cluster[idx])
            if len(parts) < 2 or np.isin(cluster, parts).sum() != len(idx):
                problems.append(f"block at {r!r} is not a union of two or more clusters")
            sub = u[np.ix_(idx, idx)]
            sub[np.isinf(sub)] = r
            u[np.ix_(idx, idx)] = sub
            cluster[idx] = parts[0]
    return u, problems


def _roots(u: np.ndarray) -> int:
    return int(np.unique(np.isfinite(u), axis=0).shape[0])


def _partition(labels, linked: np.ndarray) -> list[tuple[str, ...]]:
    """Blocks of a transitive relation, sorted as the library sorts them."""
    seen = np.zeros(len(labels), dtype=bool)
    blocks = []
    for i in range(len(labels)):
        if not seen[i]:
            members = np.nonzero(linked[i])[0]
            seen[members] = True
            blocks.append(tuple(sorted(labels[j] for j in members)))
    return sorted(blocks, key=lambda b: b[0])


def _newick_problems(text: str, labels, roots: int) -> list[str]:
    leaves = []
    trees = [line for line in text.splitlines() if line]
    for line in trees:
        if not line.endswith(";"):
            return ["newick tree does not end with ';'"]
        leaves += [line[:-1]] if "(" not in line else _NEWICK_LEAF.findall(line)
    problems = []
    if sorted(leaves) != sorted(labels):
        problems.append("newick leaves are not the labels, each once")
    if len(trees) != roots:
        problems.append(f"newick has {len(trees)} trees for {roots} roots")
    return problems
