#!/usr/bin/env python3
"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. A reduced pass of each workload finishes with no failed job.
2. A corrupted artifact (one matrix entry changed) is counted as failed.
3. Two traced runs of the same jobs give identical counts.
4. After tracing, every name in the package is the original object again.
5. The baseline worker imports the frozen copy and runs the jobs cleanly.
"""

from __future__ import annotations

import json
import shutil
import sys
import types

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import References  # noqa: E402

from dioidclust import cli  # noqa: E402

REDUCED = {"dense-closure": 2, "hop-compare": 1, "small-batch": 40}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def package_bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "dioidclust" or name.startswith("dioidclust.")
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


def traced_counts(jobs, work) -> dict[str, float]:
    runner = run.Runner(cli, work)
    tracer = spans.Tracer()
    for job in jobs:
        runner.run(job, tracer)
    expect(tracer.spans and all(s.end >= s.start for s in tracer.spans), f"traced pass of {len(jobs)} jobs recorded spans")
    metrics = spans.layer_metrics(tracer.spans)
    return {k: v for k, v in metrics.items() if spans.unit(k) in ("count", "MB", "ratio")}


def corrupt_one_entry(runner: run.Runner) -> str:
    for (name, _), (job, _code, where, _missing) in runner.stored.items():
        if job.command == "cluster" and (where / "json").exists():
            doc = json.loads((where / "json").read_text())
            doc["matrix"][0][1] = 0.123456789 if doc["matrix"][0][1] != 0.123456789 else 0.5
            (where / "json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            return name
    raise SystemExit("selftest FAILED: no json artifact to corrupt")


def main() -> int:
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    before = package_bindings()
    try:
        for name, size in REDUCED.items():
            refs = References(run.ROOT)
            wl = workloads.build(name, workloads.DEFAULT_SEED, run.ROOT, work / name / "inputs", refs)
            runner = run.Runner(cli, work / name)
            for job in list(workloads.FIXTURE_JOBS) + wl.jobs[:size]:
                runner.run(job)
            failed, problems = runner.evaluate(checks.Checker(run.ROOT, refs))
            expect(failed == 0 and not problems, f"reduced {name}: {len(runner.keys)} jobs, 0 failed {problems[:3]}")

        corrupted = corrupt_one_entry(runner)
        failed, problems = runner.evaluate(checks.Checker(run.ROOT, refs))
        expect(failed >= 1 and any(p.startswith(corrupted) for p in problems), f"corrupted {corrupted} json counted as failed")

        jobs = list(workloads.FIXTURE_JOBS) + wl.jobs[:REDUCED["small-batch"]]
        first = traced_counts(jobs, work / "trace1")
        second = traced_counts(jobs, work / "trace2")
        expect(first == second, f"two traced runs give identical counts ({len(first)} metrics)")
        expect(first["dioid.dioid_product.calls"] > 0 and first["hierarchy.validate_ultrametric.calls"] > 0, "counts are nonzero")

        baseline = run.Baseline(work)
        try:
            seconds = [baseline.run(job) for job in jobs[:10]]
        finally:
            baseline.close()
        expect(not baseline.problems and all(t > 0 for t in seconds), "baseline worker ran 10 jobs with exit code 0")
        expect(baseline.proc.returncode == 0, "baseline worker exited cleanly")

        tracer = spans.Tracer()
        with tracer:
            expect(package_bindings() != before, "tracing replaces the package's functions")
        expect(package_bindings() == before, "after tracing every function is the original object")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
