"""Closed-loop benchmark of the tractable-dyn CLI and library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload blockmap --seed 1 --seconds 36 --trace 0

One client in one process runs ops back to back, each op starting when the
last one ends.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs each op untraced and traced, interleaved, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before anything can import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tractable_dyn"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# Inputs per workload: whole cycles of the schedule, more than one run
# reaches, so a run rarely repeats an input.
CORPUS = {"blockmap": 96, "plmap": 39, "subshift": 69}
SETUP_RUNS = 7
SETUP_CHILD = "import tractable_dyn.cli as c; c.build_parser()"
TAIL_BEYOND = 10


def use_checkout_sources() -> str | None:
    """Put the checkout's src/ first on the import path; say what is wrong."""
    if not (PACKAGE / "__init__.py").is_file():
        return f"no tractable_dyn sources under {SRC}"
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tractable_dyn
    if Path(tractable_dyn.__file__).resolve().parent != PACKAGE.resolve():
        return f"imported tractable_dyn from {tractable_dyn.__file__}"
    return None


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the package and build the
    CLI parser, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _run_op(run, case, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        result, error = run(case, str(outdir)), None
    except Exception as exc:  # an op that raises is a failed op
        result, error = {"rc": []}, f"{type(exc).__name__}: {exc}"
    return case, outdir, result, error, time.perf_counter() - start


def closed_loop(cases, run, outroot: Path, seconds: float | None = None,
                count: int | None = None):
    """Run ops back to back for ``seconds`` or for exactly ``count`` ops."""
    records = []
    start = time.perf_counter()
    while (count is None and time.perf_counter() - start < seconds) \
            or (count is not None and len(records) < count):
        i = len(records)
        records.append(_run_op(run, cases[i % len(cases)], outroot / f"op{i}"))
    return records, time.perf_counter() - start


def paired_loop(cases, run, outroot: Path, seconds: float, tracer):
    """Run each op untraced and traced, back to back, for ``seconds``.

    Pairs alternate which side goes first, so a slow spell of the machine
    lands on both sides and cancels out of the tracing overhead.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(traced)
        case = cases[i % len(cases)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
                try:
                    traced.append(_run_op(run, case, outroot / "traced" / f"op{i}"))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(_run_op(run, case, outroot / "untraced" / f"op{i}"))
    return untraced, traced


def load_reference(workload: str, seed: int):
    from perfbench.ops import DEFAULT_SEED
    path = REFERENCE_DIR / f"{workload}.json.gz"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def check_records(workload: str, records, reference) -> tuple[list, list]:
    """(failures, statistical verdicts) for the ops of one phase."""
    from perfbench import ops
    _, _, _, collect, check = ops.WORKLOADS[workload]
    failures, verdicts = [], []
    for seq, (case, outdir, result, error, _) in enumerate(records):
        if error is None and any(rc != 0 for rc in result["rc"]):
            error = f"exit codes {result['rc']}"
        if error is None:
            try:
                got = collect(case, str(outdir), result)
                problems = check(case, str(outdir), got)
                verdicts.extend(ops.statistical_passes(workload, got))
                if reference is not None and str(case.index) in reference:
                    problems += ops.compare(reference[str(case.index)], got)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems[:3])
        if error is not None:
            failures.append(f"op {seq} (input {case.index}, {case.kind}, "
                            f"size {case.size}): {error}")
    return failures, verdicts


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def ops_per_s_at_mix(records, weights: dict) -> float:
    """Ops per second at the workload's fixed input mix.

    Each schedule shape run in the window counts with its share of the
    schedule (``weights``) and with the median time of its ops in the run.
    A plain count of ops in the window would move with where in the
    schedule the window ends and with any slow spell of the machine that
    happens to fall on one heavy op.
    """
    times: dict = {}
    for case, _, _, _, seconds in records:
        times.setdefault(case.shape, []).append(seconds)
    ops = sum(weights[shape] for shape in times)
    busy = sum(weights[shape] * statistics.median(t) for shape, t in times.items())
    return ops / busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("blockmap", "plmap", "subshift"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = use_checkout_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import ops, tracing

    env = environment()
    make_cases, make_warmup, run, _, _ = ops.WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        cases = make_cases(args.seed, str(work / "in"), CORPUS[args.workload])
        warmup = make_warmup(str(work / "in"))
        setup_times = measure_setup()
        warm_records, _ = closed_loop([warmup], run, work / "warmup", count=1)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            untraced, records = paired_loop(cases, run, work, args.seconds, tracer)
            wall = sum(r[4] for r in records)
            untraced_wall = sum(r[4] for r in untraced)
            phases = [untraced, records]
        else:
            records, wall = closed_loop(cases, run, work / "ops",
                                        seconds=args.seconds)
            phases = [records]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference = load_reference(args.workload, args.seed)
        failures, verdicts = check_records(args.workload, warm_records, None)
        attempted = len(warm_records)
        for phase in phases:
            phase_failures, phase_verdicts = check_records(
                args.workload, phase, reference)
            failures += phase_failures
            verdicts += phase_verdicts
            attempted += len(phase)

        times = [r[4] for r in records]
        value, percentile, beyond = tail(times)
        detail = {"workload": args.workload, "seed": args.seed,
                  "ops": len(times), "wall_s": wall,
                  "tail_percentile": percentile, "tail_ops_beyond": beyond,
                  "failed_frac": len(failures) / attempted,
                  "statistical_checks_failed":
                      sum(1 for v in verdicts if not v),
                  "statistical_checks": len(verdicts),
                  "setup_runs_s": setup_times,
                  "op_times": [[r[0].index, r[0].kind, r[0].size, r[4]]
                               for r in records]}
        correct = not failures
        if args.trace:
            op_bytes = sum(ops.output_bytes(str(r[1])) for r in records)
            overhead = wall / untraced_wall - 1.0
            metrics = tracing.per_layer_metrics(tracer, len(records), op_bytes,
                                                overhead)
            coverage = tracing.coverage_problems(tracer, args.workload)
            correct = correct and not coverage
            detail["coverage_problems"] = coverage
            detail["growth_self_s_by_size"] = tracing.growth_table(
                tracer, {i: r[0].size for i, r in enumerate(records)})
        else:
            metrics = {
                "op_s_p50": (statistics.median(times), "s"),
                "op_s_tail": (value, "s"),
                "ops_per_s": (ops_per_s_at_mix(
                    records, collections.Counter(c.shape for c in cases)), "1/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }

        OUT_DIR.mkdir(exist_ok=True)
        saved = {"env": env, "detail": detail, "failures": failures,
                 "metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}}
        if tracer is not None:
            saved["span_fields"] = ["name", "start", "end", "parent", "op"]
            saved["spans"] = tracer.spans
        out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(saved))

        print("env " + json.dumps(env))
        for line in failures[:20]:
            print("FAILED " + line)
        if args.trace:
            for problem in detail["coverage_problems"]:
                print("COVERAGE " + problem)
            for layer, row in detail["growth_self_s_by_size"].items():
                print(f"growth {layer} " + " ".join(
                    f"{size}:{seconds:.4g}s" for size, seconds in row.items()))
        if args.trace:
            shape = (f"{len(times)} ops traced in {wall:.2f} s, interleaved "
                     f"with the same ops untraced in {untraced_wall:.2f} s")
        else:
            shape = (f"{len(times)} ops in {wall:.2f} s; op_s_tail is "
                     f"p{percentile:.1f} with {beyond} ops beyond")
        print(f"workload {args.workload} seed {args.seed}: {shape}; failed_frac "
              f"{detail['failed_frac']:.4g} ratio ({len(failures)} of "
              f"{attempted}); statistical checks failed "
              f"{detail['statistical_checks_failed']} of {len(verdicts)}")
        for name, (v, unit) in metrics.items():
            print(f"{name} {v!r} {unit}")
        print(f"details in {out_path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
