#!/usr/bin/env python3
"""Runs CLI jobs on the frozen baseline copy of dioidclust beside this file.

    python3 perfbench/baseline/worker.py

The package in `dioidclust/` here is a verbatim copy of `src/dioidclust`
at the commit that defined the benchmark, and it is never changed after.
The benchmark runs every timed job on it too, right before or after the
same job on the checkout's library, so the two times of a pair see the
same state of the host.

Protocol: the first line on stdout is a JSON object naming the imported
package's directory. Then, for each line on stdin holding a JSON list of
CLI arguments, the worker runs `dioidclust.cli.main(argv)` and answers
with one JSON line: the exit code and the job's wall time in seconds,
timed the same way as the benchmark times the checkout's jobs. It exits
at the end of stdin.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if sys.path[0] != str(HERE):
    sys.path.insert(0, str(HERE))

from dioidclust import cli  # noqa: E402


def main() -> int:
    print(json.dumps({"package": str(Path(cli.__file__).resolve().parent)}), flush=True)
    for line in sys.stdin:
        argv = json.loads(line)
        start = perf_counter()
        try:
            code = cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        except Exception:  # reported as a failed baseline job, not a dead worker
            code = -1
        seconds = perf_counter() - start
        print(json.dumps({"code": code, "seconds": seconds}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
