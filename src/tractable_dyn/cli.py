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
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import markov, plot, shiftlike, simplicial1d, two_alphabet
from .config import resolve_cell_cap
from .errors import (CapExceededError, DomainError, TractableDynError,
                     ValidationError)
from .rationals import format_rational, parse_rational, scale_to_integers
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
    except ValueError as exc:
        # Bytes that are not UTF-8, or an integer past Python's 4300 digits.
        raise ValidationError(f"cannot read {path}: {exc}") from exc


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


# A cover file's matrix is read from its bytes as its nonzero cells when it
# is a plain n x n array of JSON numbers; anything else takes the json.load
# path, whose messages are the reference.
_WS = json.decoder.WHITESPACE.match
_DECODER = json.JSONDecoder()
_NUMBER = re.compile(
    rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?(?![-+.0-9eE])")
_MATRIX_END = re.compile(rb"\][ \t\n\r]*\]")
# Byte classes: 0 whitespace, 1 "[", 2 "]", 3 ",", 8 "0", 9 ".", 10 the
# other number characters, 255 anything else.
_CLASS_OF = {char: cls for cls, chars in (
    (0, b" \t\n\r"), (1, b"["), (2, b"]"), (3, b","), (8, b"0"), (9, b"."),
    (10, b"123456789+-eE")) for char in chars}
_BYTE_CLASS = bytes(_CLASS_OF.get(char, 255) for char in range(256))
_CHUNK = 1 << 18


def _scan_matrix(data: bytes, start: int):
    """The cells of the matrix at ``data[start]`` and the index just past
    it, or None if it is not a plain rows x columns array of numbers.

    Whole rows are read in chunks of about ``_CHUNK`` bytes.  Each chunk's
    skeleton (its brackets and commas, one symbol per number, no
    whitespace) must repeat the unit ``,[x,...,x]``.  A number spelt ``0``
    or ``0.0`` is a zero cell; only the others are matched as JSON numbers
    and converted by ``float``, as ``json`` converts them.
    """
    found = data[start:start + 1] == b"[" and _MATRIX_END.search(data, start)
    if not found:
        return None
    stop = found.end() - 1
    unit = None
    rows, flat, positions = 0, [], []
    a = start + 1
    while a < stop:
        b = data.find(b"]", a + _CHUNK, stop) + 1 or stop
        classes = data[a:b].translate(_BYTE_CLASS)
        if b"\xff" in classes:
            return None
        # Three bytes of whitespace after the chunk keep the look-ahead in it.
        cls = np.frombuffer(classes + bytes(3), np.uint8)
        number = cls >= 8
        first = number[:-3] & ~np.concatenate(([False], number[:-4]))
        # A zero cell is a "0" followed by a non-number or by ".0" and a
        # non-number.
        dot = cls[1:-2] == 9
        zero = (cls[:-3] == 8) & (~number[1:-2] | dot)
        zero &= ~dot | (cls[2:-1] == 8) & ~number[3:]
        # Symbols: brackets and commas as their class, 4 for a zero number,
        # 12 for any other number, 0 for everything else.
        symbols = cls[:-3] * (cls[:-3] < 4) + first * (
            np.uint8(12) - zero * np.uint8(8))
        skeleton = symbols[symbols != 0]
        if unit is None:
            closes = np.flatnonzero(skeleton == 2)
            if not len(closes) or closes[0] < 2:
                return None
            unit = np.array([3, 1] + [4, 3] * (closes[0] // 2 - 1) + [4, 2],
                            np.uint8)
            skeleton = np.concatenate((unit[:1], skeleton))
        if len(skeleton) % len(unit) or not (
                skeleton.reshape(-1, len(unit)) & 7 == unit).all():
            return None
        cells = np.flatnonzero(skeleton == 12)
        row, offset = np.divmod(cells, len(unit))
        flat.append((rows + row) * (len(unit) // 2 - 1) + offset // 2 - 1)
        positions.extend((np.flatnonzero(first & ~zero) + a).tolist())
        rows += len(skeleton) // len(unit)
        a = b
    matches = [_NUMBER.match(data, p) for p in positions]
    if not all(matches):
        return None
    values = np.array([float(m[0]) for m in matches])
    if not np.isfinite(values).all():
        return None  # json reads a huge integer as an int, which overflows
    nonzero = values != 0
    return markov.CoverCells((rows, len(unit) // 2 - 1),
                             np.concatenate(flat)[nonzero],
                             values[nonzero]), stop + 1


def _scan_cover(path: str):
    """The relation value and the matrix cells of a cover file, or None if
    the file is not one ASCII object holding just those two keys (the last
    value of a repeated key counts, as in ``json``), with a plain matrix."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    if not data.isascii():
        return None
    text = data.decode("ascii")
    parts = {}
    try:
        pos = _WS(text).end()
        if text[pos:pos + 1] != "{":
            return None
        pos = _WS(text, pos + 1).end()
        while True:
            if text[pos:pos + 1] != '"':
                return None
            key, pos = json.decoder.scanstring(text, pos + 1)
            pos = _WS(text, pos).end()
            if text[pos:pos + 1] != ":":
                return None
            pos = _WS(text, pos + 1).end()
            if key == "matrix":
                scanned = _scan_matrix(data, pos)
                if scanned is None:
                    return None
                parts[key], pos = scanned
            else:
                parts[key], pos = _DECODER.raw_decode(text, pos)
            pos = _WS(text, pos).end()
            if text[pos:pos + 1] != ",":
                break
            pos = _WS(text, pos + 1).end()
    except ValueError:
        return None
    if (text[pos:pos + 1] != "}" or _WS(text, pos + 1).end() != len(text)
            or set(parts) != {"relation", "matrix"}):
        return None
    return parts["relation"], parts["matrix"]


def _load_cover(path: str) -> markov.StochasticCover:
    scanned = _scan_cover(path)
    if scanned is None:
        data = _load_json(path)
        if not isinstance(data, dict) or set(data) != {"relation", "matrix"}:
            raise ValidationError(
                'cover file must be {"relation": <file or object>, "matrix": [[...]]}')
        scanned = data["relation"], data["matrix"]
    relation_part, matrix = scanned
    if isinstance(relation_part, str):
        resolved = os.path.join(os.path.dirname(os.path.abspath(path)),
                                relation_part)
        relation = relation_from_json(_load_json(resolved))
    else:
        relation = relation_from_json(relation_part)
    if isinstance(matrix, list):
        # The file holds the dense matrix; a flat list would read as edge
        # weights, and numpy would read booleans and numeric strings.
        if not (matrix and isinstance(matrix[0], list)):
            raise ValidationError("matrix is not an array of numbers: no rows")
        for j, row in enumerate(matrix):
            for i, cell in enumerate(row if isinstance(row, list) else ()):
                if isinstance(cell, (bool, str)):
                    raise ValidationError(
                        "matrix is not an array of numbers: "
                        f"matrix[{j}][{i}] is {json.dumps(cell)}")
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
        common_v, ints = scale_to_integers(v_b.values())
        b = dict(zip(v_b, ints))
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


def _sample(value) -> tuple:
    """A sample coordinate as given: exact, and the float f works with."""
    exact = parse_rational(value)
    try:
        return exact, float(exact)
    except OverflowError:
        raise ValidationError(
            f"sample value {value!r} is too large for a float") from None


def _interpolant(samples: dict):
    pairs = sorted((_sample(x), _sample(y)) for x, y in samples.items())
    if len(pairs) < 2:
        raise ValidationError("need at least two sample points")
    points = [(x, y) for (x, _), (y, _) in pairs]
    xs = [x for (_, x), _ in pairs]
    ys = [y for _, (_, y) in pairs]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except TractableDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ValidationError)
                else 3 if isinstance(exc, CapExceededError) else 4)


if __name__ == "__main__":
    sys.exit(main())
