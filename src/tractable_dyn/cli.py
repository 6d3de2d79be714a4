"""Command-line front end.

Four subcommands cover the toolkit's file-level workflows:

* ``relation-analyze``   basic sets of a relation file;
* ``subshift-report``    tractability report of a stochastic cover, with an
                         optional simulated genericity section;
* ``blockmap-approx``    shift-like rounding of a sliding block code, with an
                         optional shadowing trace;
* ``plmap-approx``       simplicial rounding / analysis of a piecewise-linear
                         interval map, with optional SVG plot.

Every command is deterministic given its inputs, flags, and seed.  Reports
are JSON (rationals as "p/q" strings); ``--format csv`` emits flat tables of
the per-command numbers; ``--format svg`` is accepted by plmap-approx only.
Output goes to stdout unless ``--out`` names a file, in which case the file
is written atomically (temp file then rename).

Exit codes: 0 success, 2 invalid input or an unwritable output, 3
enumeration cap exceeded, 4 numerical or internal-consistency failure.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import math
import os
import sys
import tempfile

from . import markov, plot, shiftlike, simplicial1d, two_alphabet
from .config import resolve_cell_cap
from .errors import (CapExceededError, CorrespondenceError, DomainError,
                     NumericalError, ValidationError)
from .rationals import format_rational, parse_rational
from .relation import (basic_sets, decomposition_json, relation_from_json,
                       restrict_to_infinite_domain)

_EPILOG = """\
conventions:
  Words over an alphabet of N symbols are written with digit characters
  (0-9, then a-z); the leftmost character is symbol 0 of the word.  For
  N > 36 a word is its symbols as decimal integers joined by dots, e.g.
  "0.39.7" for symbols 0, 39 and 7.
"""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tractable-dyn-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _positive(name: str):
    def check(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1")
        return value
    return check


def cmd_relation_analyze(args) -> int:
    relation = relation_from_json(_load_json(args.input))
    restricted, kept = restrict_to_infinite_domain(relation)
    if not kept:
        raise DomainError(
            "empty domain: every element is eventually starved of successors "
            "(the relation is acyclic)")
    decomp = basic_sets(restricted)
    kept_set = set(kept)
    removed = [e for e in relation.elements if e not in kept_set]
    report = decomposition_json(decomp)
    report.update({
        "elements": list(relation.elements),
        "kept": list(kept),
        "removed": removed,
    })
    if args.format == "csv":
        rows = []
        transient = set(decomp.transient)
        for i, label in enumerate(restricted.elements):
            c = decomp.class_of(i)
            rows.append([label,
                         c if c is not None else "",
                         int(c is not None and decomp.terminal_flags[c]),
                         int(i in transient)])
        _write_text(args.out, _csv_text(
            ["element", "class", "terminal", "transient"], rows))
    else:
        _write_text(args.out, _json_text(report))
    return 0


def _load_cover(path: str) -> markov.StochasticCover:
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"relation", "matrix"}:
        raise ValidationError(
            'cover file must be {"relation": <file or object>, "matrix": [[...]]}')
    relation_part = data["relation"]
    if isinstance(relation_part, str):
        resolved = os.path.join(os.path.dirname(os.path.abspath(path)),
                                relation_part)
        relation = relation_from_json(_load_json(resolved))
    else:
        relation = relation_from_json(relation_part)
    # The file holds the dense matrix; a flat list would read as edge weights.
    matrix = data["matrix"]
    if isinstance(matrix, list) and not (matrix and isinstance(matrix[0], list)):
        raise ValidationError("matrix is not an array of numbers: no rows")
    return markov.validate_cover(relation, matrix)


def cmd_subshift_report(args) -> int:
    cover = _load_cover(args.input)
    initial = markov.Distribution.uniform(cover.size)
    report = markov.tractability_report_subshift(cover, initial)
    if args.simulate:
        spec = markov.MarkovMeasureSpec(cover, initial)
        path = markov.sample_path(spec, args.simulate, args.seed)
        genericity = markov.genericity_check(cover, report.decomposition,
                                             path, args.words)
        report = dataclasses.replace(report, genericity=genericity)
    if args.format == "csv":
        rows = []
        decomp = report.decomposition
        for pos, c in enumerate(decomp.terminal_classes()):
            for i in decomp.classes[c]:
                rows.append([c, cover.relation.elements[i],
                             f"{report.stationary[pos].weights[i]:.17g}"])
        _write_text(args.out, _csv_text(["class", "element", "weight"], rows))
    else:
        _write_text(args.out, _json_text(report.to_json_dict()))
    return 0


def _star_cylinder_csv(analysis: two_alphabet.Analysis,
                       max_length: int) -> str:
    """Ergodic cylinder measures of all fine words up to a length, as the
    finished ``class,word,measure`` table, for a model with one nu weight
    on every fine symbol (shift-like models weigh each 1/N^k).

    Integers over one common denominator per class (Henrici's rule): with
    nu = 1 / D and v_B(i) = b_i / E, the word t_0 .. t_(L-1) weighs
    b_(J t_0) / (E D^L).  The walk is depth first, the children of t being
    the J-fiber over gamma(t) in increasing order; each distinct (numerator,
    length) of a class is reduced and formatted once, and the words of the
    last length are written from their parent in one join.
    """
    model = analysis.model
    limit = resolve_cell_cap()
    common_nu, a = model.scaled_nu
    if any(weight != 1 for weight in a):
        raise ValidationError(
            "cylinder tables need the same nu on every fine symbol")
    kstar, j_map, gamma = model.kstar, model.j_map, model.gamma
    fibers = [model.fiber(s) for s in range(len(model.k))]
    fiber_labels = [[kstar[t] for t in fiber] for fiber in fibers]
    gcd = math.gcd
    lines = ["class,word,measure"]
    count = 0
    for pair, v_b in zip(analysis.terminal_pairs, analysis.stationary):
        head = f"{pair.base_class_index},"
        common_v, b = two_alphabet.scaled_weights(v_b)
        # denominators[L] = E D^L, grown as the walk gets deeper.
        denominators = [common_v, common_v * common_nu]
        measures: dict[tuple[int, int], str] = {}

        def measure(num: int, length: int) -> str:
            text = measures.get((num, length))
            if text is None:
                while len(denominators) <= length:
                    denominators.append(denominators[-1] * common_nu)
                den = denominators[length]
                g = gcd(num, den)
                text = (str(num // g) if den == g
                        else f"{num // g}/{den // g}")
                measures[num, length] = text
            return text

        stack = [(t, b[j_map[t]], 1, kstar[t])
                 for t in sorted(pair.star_members, reverse=True)]
        while stack:
            t, num, length, label = stack.pop()
            lines.append(f"{head}{label},{measure(num, length)}")
            s = gamma[t]
            length += 1
            count += 1 + len(fibers[s]) * (length == max_length)
            if count > limit:
                raise CapExceededError(
                    f"cylinder table would exceed the cell cap {limit}")
            if length < max_length:
                stack.extend((t2, num, length, label + "." + kstar[t2])
                             for t2 in reversed(fibers[s]))
            elif length == max_length:
                prefix = head + label + "."
                tail = "," + measure(num, length)
                lines.append(prefix + (tail + "\n" + prefix).join(
                    fiber_labels[s]) + tail)
    lines.append("")
    return "\n".join(lines)


def cmd_blockmap_approx(args) -> int:
    code = shiftlike.code_from_json(_load_json(args.input))
    if (args.prefix is None) != (args.trace is None):
        raise ValidationError("--prefix and --trace must be given together")
    system = shiftlike.derive_gamma(code, args.n)
    report = shiftlike.tractability_report_shiftlike(system)
    # Every output is built before any file is written, so a failed run
    # (a capped table, a bad prefix) leaves none.
    if args.format == "csv":
        text = _star_cylinder_csv(report.analysis, args.words)
    else:
        text = _json_text(report.to_json_dict())
    if args.prefix is not None:
        prefix = shiftlike.Word.from_string(code.n_symbols, args.prefix)
        coding_f = shiftlike.code_R(code, prefix, args.depth,
                                    n=system.n, k=system.k)
        shadow = shiftlike.decode_H(system, coding_f)
        coding_g = shiftlike.code_R(system, shadow, args.depth)
        rows = [[step, wf.to_string(), wg.to_string(),
                 int(wf.value == wg.value)]
                for step, (wf, wg) in enumerate(zip(coding_f, coding_g))]
        trace_text = _csv_text(["step", "f_word", "g_word", "match"], rows)

    if args.out_system:
        _write_text(args.out_system,
                    _json_text(shiftlike.system_to_json(system)))
    if args.prefix is not None:
        _write_text(args.trace, trace_text)
    _write_text(args.out, text)
    return 0


def _interpolant(samples: dict):
    points = sorted((parse_rational(x), parse_rational(y))
                    for x, y in samples.items())
    if len(points) < 2:
        raise ValidationError("need at least two sample points")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValidationError("sample points must have distinct x values")

    def f(x: float) -> float:
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        i = bisect.bisect_right(xs, x) - 1
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])

    slopes = [abs((y2 - y1) / (x2 - x1))
              for (x1, y1), (x2, y2) in zip(points, points[1:])]
    return f, points, max(slopes)


def cmd_plmap_approx(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise ValidationError("input must be a JSON object")

    repair_report = None
    roundoff_report = None
    if set(data) == {"K", "Kstar", "vmap"}:
        parts = simplicial1d.system_parts_from_json(data)
        if args.repair:
            system, repair_report = simplicial1d.nondegenerate_repair(*parts)
        else:
            system = simplicial1d.build_system(*parts)
    elif set(data) == {"K", "samples", "lip"}:
        k = simplicial1d.complex_from_json(data["K"])
        if not isinstance(data["samples"], dict):
            raise ValidationError("'samples' must be an object of x: f(x)")
        f, points, max_slope = _interpolant(data["samples"])
        lip = simplicial1d.parse_lipschitz(data["lip"])
        if lip < max_slope:
            raise ValidationError(
                f"lip = {lip} is below the sampled slope {max_slope}")
        if (points[0][0], points[-1][0]) != (k.lo, k.hi):
            raise ValidationError("samples must cover the whole space")
        system, roundoff_report = simplicial1d.roundoff(f, k, lip)
    else:
        raise ValidationError(
            "input must have fields {K, Kstar, vmap} (simplicial system) "
            "or {K, samples, lip} (sampled map with Lipschitz bound)")

    report = simplicial1d.tractability_report_pl(system)
    out = report.to_json_dict()
    if repair_report is not None:
        out["repair"] = {
            "changed": repair_report.changed,
            "reassigned": repair_report.reassigned,
            "inserted": repair_report.inserted,
            "sup_change": format_rational(repair_report.sup_change),
            "bound": format_rational(repair_report.bound),
            "note": "repaired map moves g by at most 4 mesh(K)",
        }
    if roundoff_report is not None:
        out["roundoff"] = {
            "mesh": format_rational(roundoff_report.mesh),
            "error_bound": format_rational(roundoff_report.error_bound),
            "repaired": roundoff_report.repaired,
            "parts_per_edge": list(roundoff_report.parts_per_edge),
        }
    if args.simulate:
        outcomes = []
        for pair in report.analysis.terminal_pairs:
            result = simplicial1d.decode_orbit_histogram(
                report, pair.star_members, segments=args.simulate,
                depth=args.depth, bins=10, seed=args.seed)
            outcomes.append({
                "class": pair.base_class_index,
                "segments": result.segments,
                "depth": result.depth,
                "bins": result.bins,
                "max_dev": result.max_deviation,
                "threshold": result.threshold,
                "pass": result.passed,
            })
        out["birkhoff"] = outcomes

    if args.out_system:
        _write_text(args.out_system,
                    _json_text(simplicial1d.system_to_json(system)))
    if args.out_plot:
        _write_text(args.out_plot, plot.system_svg(system, report))

    if args.format == "svg":
        _write_text(args.out, plot.system_svg(system, report))
    elif args.format == "csv":
        rows = []
        for measure in out["measures"]:
            for entry in measure["density"]:
                rows.append([";".join(measure["class"]),
                             entry["interval"][0], entry["interval"][1],
                             entry["weight"], entry["density"]])
        _write_text(args.out, _csv_text(
            ["class", "interval_lo", "interval_hi", "weight", "density"],
            rows))
    else:
        _write_text(args.out, _json_text(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractable-dyn",
        description="Tractability analysis of finite-relation, shift-like, "
                    "and piecewise-linear dynamical systems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv"), seed=False):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="64-bit simulation seed (default 0)")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("relation-analyze",
                       help="basic sets of a relation file")
    common(p)
    p.set_defaults(func=cmd_relation_analyze)

    p = sub.add_parser("subshift-report",
                       help="tractability report of a stochastic cover")
    common(p, seed=True)
    p.add_argument("--simulate", type=_positive("--simulate"), default=None,
                   metavar="T", help="sample a path of length T and attach "
                                     "a genericity section")
    p.add_argument("--words", type=_positive("--words"), default=2,
                   metavar="L", help="word length cap for genericity "
                                     "(default 2)")
    p.set_defaults(func=cmd_subshift_report)

    p = sub.add_parser("blockmap-approx",
                       help="shift-like rounding of a sliding block code")
    common(p)
    p.add_argument("--n", type=_positive("--n"), required=True,
                   help="output word length of the rounded table")
    p.add_argument("--depth", type=_positive("--depth"), default=6,
                   metavar="P", help="steps in the shadowing trace "
                                     "(default 6)")
    p.add_argument("--words", type=_positive("--words"), default=2,
                   metavar="L", help="max word length for --format csv "
                                     "cylinder tables (default 2)")
    p.add_argument("--prefix", default=None,
                   help="orbit prefix to shadow (digit string)")
    p.add_argument("--trace", default=None,
                   help="CSV file for the shadowing trace")
    p.add_argument("--out-system", default=None,
                   help="write the derived gamma-table file here")
    p.set_defaults(func=cmd_blockmap_approx)

    p = sub.add_parser("plmap-approx",
                       help="simplicial analysis of a piecewise-linear map")
    common(p, formats=("json", "csv", "svg"), seed=True)
    p.add_argument("--repair", action="store_true",
                   help="repair a degenerate vertex map instead of rejecting")
    p.add_argument("--simulate", type=_positive("--simulate"), default=None,
                   metavar="T", help="decode T symbolic segments per "
                                     "terminal class (Birkhoff check)")
    p.add_argument("--depth", type=_positive("--depth"), default=40,
                   metavar="P", help="decoding depth for --simulate "
                                     "(default 40)")
    p.add_argument("--out-system", default=None,
                   help="write the (repaired/rounded) system file here")
    p.add_argument("--out-plot", default=None,
                   help="write an SVG plot of g here")
    p.set_defaults(func=cmd_plmap_approx)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, CorrespondenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
