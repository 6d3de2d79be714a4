"""Record the reference answers that runs at the default seed are compared with.

    python3 perfbench/record_reference.py [blockmap plmap subshift]

Runs every input of each workload's corpus once at ``ops.DEFAULT_SEED`` and
writes ``perfbench/reference/<workload>.json.gz``.  Record only from a
commit whose answers are trusted (the stored files were taken at the commit
that introduced the benchmark); nothing is written if an op fails its
invariant checks.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (pins BLAS threads first)


def record(workload: str) -> int:
    from perfbench import ops
    make_cases, _, run, collect, _ = ops.WORKLOADS[workload]
    work = bench.WORK_DIR / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        cases = make_cases(ops.DEFAULT_SEED, str(work / "in"),
                           bench.CORPUS[workload])
        records, _ = bench.closed_loop(cases, run, work / "ops",
                                       count=len(cases))
        failures, _ = bench.check_records(workload, records, None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        answers = {str(case.index): collect(case, str(outdir), result)
                   for case, outdir, result, _, _ in records}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    path = bench.REFERENCE_DIR / f"{workload}.json.gz"
    payload = json.dumps({"seed": ops.DEFAULT_SEED, "cases": answers},
                         sort_keys=True).encode("utf-8")
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as handle:
        handle.write(payload)
    print(f"{path.name}: {len(answers)} inputs, {path.stat().st_size} bytes")
    return 0


def main(argv: list[str]) -> int:
    problem = bench.use_checkout_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    workloads = argv or sorted(bench.CORPUS)
    return max(record(w) for w in workloads)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
