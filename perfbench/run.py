#!/usr/bin/env python3
"""Benchmark of the dioidclust command line, end to end and per layer.

Run from the root of a dioidclust checkout; the library is imported from
./src and the fixtures are read from ./tests/data:

    python3 perfbench/run.py --workload dense-closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run is a closed loop: one client in this process runs one job at a time
by calling `dioidclust.cli.main(argv)` on generated input files, and the
next job starts when the previous one has returned. With --trace 0 each
job runs twice, back to back: on the checkout's library and on the frozen
copy in perfbench/baseline, which runs in a worker process. The loop runs
one full pass over the workload's jobs and then goes on until --seconds
have gone by, and the run reports the end-to-end metrics: the set-up time
and the ratios of the two times of each pair, which cancel the host's
drift. With --trace 1 it runs one untraced and one traced pass of the
checkout's library instead (--seconds is not used) and reports the
per-layer metrics. Outputs are checked after the timed window. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Results and spans are also written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One client, one thread: numpy's BLAS would otherwise start a thread per
# core at import, and the set-up time would then depend on whether the
# host's other cores are free. The benchmark's subprocesses inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
SETUP_LAUNCHES = 20


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]}, {m["name"]: m["unit"] for m in doc["per_layer"]})


class Runner:
    """Runs jobs one at a time and keeps one copy of each distinct output."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.out = work / "out"
        self.store = work / "store"
        self.keys: list[tuple[str, str]] = []  # per job run: (job name, digest of exit code and outputs)
        self.stored: dict[tuple[str, str], tuple[object, int, Path, list[str]]] = {}

    def run(self, job, tracer=None) -> tuple[float, float]:
        """Run a job; returns its time and the time spent capturing its outputs."""
        outdir = self.out / job.name
        outdir.mkdir(parents=True, exist_ok=True)
        argv = job.argv(outdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = len(self.keys)
        with tracer if tracer is not None else contextlib.nullcontext():
            start = perf_counter()
            try:
                code = self.cli.main(argv, stdout=stdout, stderr=stderr)
            except Exception:  # a crashing job is a failed job, not a failed benchmark
                code = -1
                stderr.write(traceback.format_exc())
            seconds = perf_counter() - start
        capture = perf_counter()
        self.keys.append(self._capture(job, outdir, code, stdout.getvalue(), stderr.getvalue()))
        return seconds, perf_counter() - capture

    def _capture(self, job, outdir: Path, code: int, stdout: str, stderr: str) -> tuple[str, str]:
        files = {"stdout": stdout.encode("utf-8"), "stderr": stderr.encode("utf-8")}
        paths = job.outputs(outdir)
        for name, path in paths.items():
            files[name] = path.read_bytes() if path.exists() else None
        digest = hashlib.sha256(f"exit {code}\n".encode())
        for name in sorted(files):
            data = files[name]
            digest.update(f"{name} {-1 if data is None else len(data)}\n".encode() + (data or b""))
        key = (job.name, digest.hexdigest())
        if key not in self.stored:
            where = self.store / job.name / key[1][:16]
            where.mkdir(parents=True)
            for name, data in files.items():
                if data is not None:
                    (where / name).write_bytes(data)
            self.stored[key] = (job, code, where, [n for n, d in files.items() if d is None])
        for path in paths.values():
            path.unlink(missing_ok=True)
        return key

    def loop(self, jobs, seconds: float, baseline: "Baseline", setup: "SetupClock") -> tuple[list[tuple[int, float, float]], float]:
        """Closed loop of pairs: each job runs on the checkout's library and
        on the baseline, back to back, the order flipping from pair to pair
        and from pass to pass. Runs one full pass over `jobs`, then goes on
        until `seconds` of window have gone by. The set-up launches that are
        due are made between pairs.

        Returns (job index, seconds, baseline seconds) per pair and the
        window, which excludes output capture and set-up launches.
        """
        pairs: list[tuple[int, float, float]] = []
        paused = 0.0
        start = perf_counter()
        while len(pairs) < len(jobs) or perf_counter() - start - paused < seconds:
            k = len(pairs)
            job = jobs[k % len(jobs)]
            if (k + k // len(jobs)) % 2:
                base = baseline.run(job)
                job_seconds, capture = self.run(job)
            else:
                job_seconds, capture = self.run(job)
                base = baseline.run(job)
            pairs.append((k % len(jobs), job_seconds, base))
            paused += capture
            paused += setup.catch_up(perf_counter() - start - paused)
        window = perf_counter() - start - paused
        setup.catch_up(None)
        return pairs, window

    def evaluate(self, checker) -> tuple[int, list[str]]:
        """Check every distinct output once; returns the failed job runs and the problems."""
        bad: dict[tuple[str, str], list[str]] = {}
        for key, (job, code, where, missing) in self.stored.items():
            artifacts = {p.name: p.read_bytes() for p in where.iterdir()}
            artifacts.update({name: None for name in missing})
            found = checker.check(job, artifacts, code)
            if found:
                bad[key] = found
        for path, found in checker.sandwich_problems().items():
            for key, (job, *_rest) in self.stored.items():
                if job.net.path == path and job.command == "cluster":
                    bad.setdefault(key, []).extend(found)
        first: dict[str, str] = {}
        failed = 0
        for key in self.keys:
            if first.setdefault(*key) != key[1]:
                bad.setdefault(key, []).append("output differs from the job's first run")
            failed += key in bad
        problems = [f"{name}: {p}" for (name, _), found in bad.items() for p in found]
        return failed, problems

    def artifacts_digest(self, jobs) -> str:
        first: dict[str, str] = {}
        for key in self.keys:
            first.setdefault(*key)
        return hashlib.sha256("".join(f"{job.name} {first[job.name]}\n" for job in jobs).encode()).hexdigest()


class Baseline:
    """The frozen copy of the library in perfbench/baseline, in a worker process.

    Its jobs are timed in the worker exactly as Runner times the checkout's
    jobs. Their outputs are not checked, only their exit codes, and they
    are deleted after each job as the checkout's are.
    """

    def __init__(self, work: Path):
        self.out = work / "baseline-out"
        self.problems: list[str] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "baseline" / "worker.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            package = Path(json.loads(self.proc.stdout.readline())["package"])
            expected = ROOT / "perfbench" / "baseline" / "dioidclust"
            if package != expected.resolve():
                raise RuntimeError(f"baseline worker imported {package}, not {expected}")
        except BaseException:
            self.close()
            raise

    def run(self, job) -> float:
        outdir = self.out / job.name
        outdir.mkdir(parents=True, exist_ok=True)
        self.proc.stdin.write(json.dumps(job.argv(outdir)) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["code"] != 0:
            self.problems.append(f"{job.name}: baseline exit code {reply['code']}")
        for path in job.outputs(outdir).values():
            path.unlink(missing_ok=True)
        return reply["seconds"]

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SetupClock:
    """Seconds from launching a fresh interpreter to `import dioidclust.cli` done.

    The host's speed changes every few seconds, so the launches are spread
    evenly over the timed window instead of being made in one burst.
    """

    def __init__(self, launches: int, seconds: float):
        self.launches, self.every = launches, seconds / launches
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, "-c", "import dioidclust.cli"]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # untimed: warms the file cache

    def catch_up(self, elapsed: float | None) -> float:
        """Makes the launches due `elapsed` seconds into the window, or all
        that are left for None; returns the time they took."""
        start = perf_counter()
        while len(self.times) < self.launches and (elapsed is None or elapsed >= len(self.times) * self.every):
            launched = perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.times.append(perf_counter() - launched)
        return perf_counter() - start


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(args) -> int:
    import checks
    import spans
    import workloads
    from reference import References

    from dioidclust import cli

    end_to_end, per_layer = declared_metrics()
    info = machine()
    info["loadavg_start"] = os.getloadavg()
    name, trace = args.workload, bool(args.trace)
    work = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        refs = References(ROOT)
        wl = workloads.build(name, args.seed, ROOT, work / "inputs", refs)
        runner = Runner(cli, work)
        for job in workloads.FIXTURE_JOBS:  # warm-up, checked like every other run
            runner.run(job)
        notes: dict[str, str] = {}
        details: dict[str, object] = {}
        baseline_problems: list[str] = []
        if trace:
            # Each job runs once untraced and once traced, back to back, in
            # alternating order, so drift and warm-up cancel from the overhead.
            tracer = spans.Tracer()
            untraced, traced = [], []
            for k, job in enumerate(list(workloads.FIXTURE_JOBS) + wl.jobs):
                for traced_run in (False, True) if k % 2 == 0 else (True, False):
                    seconds, _ = runner.run(job, tracer if traced_run else None)
                    (traced if traced_run else untraced).append(seconds)
            layer = spans.layer_metrics(tracer.spans)
            layer["trace.jobs"] = len(traced)
            layer["trace.overhead"] = sum(traced) / sum(untraced) - 1
            metrics = {k: (layer[k], per_layer[k]) for k in per_layer}
            samples_of = {k: len(traced) for k in per_layer}
            notes["all layer totals"] = ", ".join(f"{k}={v:.6g} {spans.unit(k)}" for k, v in layer.items())
            notes["per-job means"] = ", ".join(
                f"{k}={v / len(traced):.6g} {spans.unit(k)}" for k, v in layer.items()
                if spans.unit(k) in ("s", "count", "MB") and not k.startswith("trace.")
            )
            gaps = statistics.quantiles([t / u - 1 for t, u in zip(traced, untraced)], n=4)
            notes["self times"] = (
                f"layer self times sum to each traced job's time within {spans.job_closure_gap(tracer.spans):.3g} s; "
                f"jobs_per_s untraced {len(untraced) / sum(untraced):.6g}, traced {len(traced) / sum(traced):.6g}, "
                f"overhead {layer['trace.overhead']:+.4f}; per job traced/untraced - 1 has quartiles "
                + ", ".join(f"{g:+.4f}" for g in gaps)
            )
            _write_json(OUT / f"spans-{name}-seed{args.seed}.json", [s.row() for s in tracer.spans])
        else:
            setup_clock = SetupClock(SETUP_LAUNCHES, args.seconds)
            baseline = Baseline(work)
            try:
                for job in workloads.FIXTURE_JOBS:  # warm-up of the baseline
                    baseline.run(job)
                pairs, window = runner.loop(wl.jobs, args.seconds, baseline, setup_clock)
            finally:
                baseline.close()
            baseline_problems = baseline.problems
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup = setup_clock.times
            # Both times of a pair see the same state of the host, which
            # drifts by tens of percent over minutes; their ratio does not.
            times = [t for _, t, _ in pairs]
            base = [b for _, _, b in pairs]
            values = {
                "setup_s": statistics.median(setup),
                "job_time_ratio.p50": statistics.median(t / b for t, b in zip(times, base)),
                "total_time_ratio": sum(times) / sum(base),
                "peak_rss_mb": peak_mb,
            }
            metrics = {k: (values[k], end_to_end[k]) for k in end_to_end}
            samples_of = {k: len(pairs) for k in end_to_end}
            samples_of.update({"setup_s": len(setup), "peak_rss_mb": 1})
            for label, ts in (("", times), ("baseline ", base)):
                p90 = statistics.quantiles(ts, n=10, method="inclusive")[-1]
                beyond = sum(t > p90 for t in ts)
                notes[f"{label}job_s"] = (
                    f"p50 {statistics.median(ts):.6g} s, p90 {p90:.6g} s with {beyond} of {len(ts)} beyond it"
                    + ("" if beyond >= 10 else " (fewer than 10, so not a stable percentile)")
                    + f"; jobs_per_s {len(ts) / sum(ts):.6g}"
                )
            notes["window"] = f"{window:.3f} s, {len(pairs)} pairs over {len(wl.jobs)} jobs"
            details["job_seconds"] = [[wl.jobs[i].name, t, b] for i, t, b in pairs]
        failed, problems = runner.evaluate(checks.Checker(ROOT, refs))
        problems += baseline_problems
        attempted = len(runner.keys)
        artifacts = runner.artifacts_digest(wl.jobs)
        recorded = workloads.RECORDED[name] if args.seed == workloads.DEFAULT_SEED else None
        mismatch = recorded is not None and (recorded["inputs"], recorded["artifacts"]) != (wl.inputs_digest, artifacts)
        if mismatch:
            problems.append(f"digests differ from those recorded for seed {args.seed}: {recorded}")
        correct = failed == 0 and not mismatch and not baseline_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()

    print(f"dioidclust benchmark: workload {name}, seed {args.seed}, trace {int(trace)}")
    print(f"why: {wl.why}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    print("note: wall times on a small shared machine drift by tens of percent; the declared job metrics are "
          "ratios to the frozen baseline, run back to back, so the drift cancels")
    print(f"inputs sha256 {wl.inputs_digest}")
    state = "not recorded for this seed" if recorded is None else ("MISMATCH" if mismatch else "matches the recorded digest")
    print(f"artifacts sha256 {artifacts} ({state})")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit:6s} n={samples_of[key]}")
    for key, text in notes.items():
        print(f"{key}: {text}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _write_json(
        OUT / f"result-{name}-seed{args.seed}-trace{int(trace)}.json",
        {**result, "workload": name, "seed": args.seed, "machine": info, "notes": notes,
         "inputs_sha256": wl.inputs_digest, "artifacts_sha256": artifacts, "problems": problems, **details},
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="dense-closure, hop-compare, small-batch or all")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    required = ["BENCHMARK.json", "src/dioidclust/cli.py", "tests/data/cycle4.csv", "tests/data/cycle4.tsv", "tests/data/sweep8.csv"]
    missing = [p for p in required if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a dioidclust checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
