"""Seeded fuzzing of the CLI over every golden input.

Three oracles run ``cli.main`` in process on the inputs and flags of the
``test_golden`` cases:

- **Rewrites.**  A rewrite changes how an input is spelt but not what it
  means: object keys shuffled, relation edge lists shuffled, cover cells
  respelt (``repr``, ``%.17e``; a zero as ``0``, ``0.0``, ``-0`` or ``0e0``),
  and the whitespace between tokens, rows included, compact, indented or
  random.  Every rewrite must give the golden bytes: stdout and every file
  the case writes.
- **Relabelling.**  Renaming the elements of a relation or cover input must
  give the renamed report: the same classes as label sets, the same order
  between them and the same weights.
- **Mutations.**  A mutant applies one to three seeded edits to an input's
  JSON (replace a value by an atom, delete, duplicate, nest, scale, swap or
  stringify).  Every mutant must exit 0, 2, 3 or 4, within 10 s, and no
  exception may escape ``cli.main``.

The tier-1 test runs 2000 mutants.  A larger budget runs as
``PYTHONPATH=src:tests python -c "import test_fuzz; test_fuzz.fuzz(1, 20000)"``,
which prints the count of each exit code.
"""

import contextlib
import copy
import io
import json
import random
import signal
import tempfile
import time
from collections import Counter
from pathlib import Path

from tractable_dyn import cli
from test_golden import CASES, GOLDEN, INPUTS

INPUT_NAMES = sorted(path.name for path in INPUTS.glob("*.json"))


def _input_name(template):
    return Path(template[template.index("--input") + 1]).name


def _argv(template, in_dir, out_dir, input_path=None):
    argv = [arg.format(**{"in": in_dir, "out": out_dir}) for arg in template]
    if input_path is not None:
        argv[argv.index("--input") + 1] = str(input_path)
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _load(name):
    return json.loads((INPUTS / name).read_text(encoding="utf-8"))


# --- meaning-preserving rewrites ---

_GAPS = ["", " ", "\n", "\t", "  ", "\r\n", "\n    ", " \n\t "]


def rewrite(value, rng):
    """The JSON text of ``value`` spelt anew, with the same meaning."""
    style = rng.choice(("compact", "indented", "random"))

    def gap(depth):
        if style == "compact":
            return ""
        if style == "indented":
            return "\n" + "  " * depth
        return rng.choice(_GAPS)

    def space():
        if style == "random":
            return rng.choice(_GAPS)
        return " " if style == "indented" else ""

    def cell(x):
        if x == 0:
            return rng.choice(("0", "0.0", "-0", "0e0"))
        return rng.choice((repr(float(x)), "%.17e" % x))

    def text(value, depth, key=None):
        if isinstance(value, dict):
            items = list(value.items())
            rng.shuffle(items)
            body = ",".join(f"{gap(depth + 1)}{json.dumps(k)}{space()}:"
                            f"{space()}{text(v, depth + 1, k)}"
                            for k, v in items)
            return "{" + body + gap(depth) + "}"
        if isinstance(value, list):
            if key == "edges":
                value = rng.sample(value, len(value))
            if key == "matrix":
                parts = ["[" + ",".join(space() + cell(x) for x in row)
                         + space() + "]" for row in value]
            else:
                parts = [text(v, depth + 1) for v in value]
            return "[" + ",".join(gap(depth + 1) + part
                                  for part in parts) + gap(depth) + "]"
        return json.dumps(value)

    return gap(0) + text(value, 0) + gap(0)


def test_rewrites_give_the_golden_bytes(tmp_path):
    rng = random.Random(2024)
    for round_ in range(4):
        in_dir = tmp_path / f"in{round_}"
        in_dir.mkdir()
        for input_name in INPUT_NAMES:
            (in_dir / input_name).write_text(rewrite(_load(input_name), rng),
                                             encoding="utf-8")
        for name, template, files in CASES:
            out_dir = tmp_path / f"{name}-{round_}"
            out_dir.mkdir()
            code, stdout, _ = _run(_argv(template, in_dir, out_dir))
            case = GOLDEN / name
            assert code == int((case / "exit_code").read_text()), name
            assert stdout.encode() == (case / "stdout").read_bytes(), (
                name, (in_dir / _input_name(template)).read_text())
            for f in files:
                assert (out_dir / f).read_bytes() == (case / f).read_bytes(), \
                    (name, f)


def test_rewrites_cover_every_spelling():
    rng = random.Random(7)
    texts = [rewrite(_load(name), rng) for _ in range(6)
             for name in ("cover.json", "rand_cover.json")]
    joined = "".join(texts)
    for spelling in ("0.5", "5.00000000000000000e-01", "-0,", "0e0", "0.0"):
        assert spelling in joined, spelling
    assert any("\n" not in t and " " not in t for t in texts)
    # Every golden input is the input of some case.
    assert {_input_name(t) for _, t, _ in CASES} == set(INPUT_NAMES)


# --- element relabelling ---

# The JSON golden cases whose input names elements.
RELABEL_CASES = [case for case in CASES
                 if case[0] in ("relation_json", "rand_relation_a_json",
                                "rand_relation_b_json", "subshift_simulate",
                                "rand_subshift_simulate")]


def _relabel_relation(relation, mapping):
    return {"elements": [mapping[e] for e in relation["elements"]],
            "edges": [[mapping[a], mapping[b]] for a, b in relation["edges"]]}


def canonical(report, name):
    """The content of a relation or subshift report that a renaming keeps,
    with every label read through ``name``: classes as label sets, the
    order and the tested class through those sets, weights by label."""
    classes = [frozenset(map(name, c)) for c in report["basic_sets"]]

    def walk(value, key=None):
        if key == "order":
            return frozenset((classes[a], classes[b]) for a, b in value)
        if key == "terminal_class":
            return classes[value]
        if isinstance(value, dict):
            return frozenset((name(k), walk(v, k)) for k, v in value.items())
        if isinstance(value, list):
            items = [walk(v) for v in value]
            return tuple(items) if key == "elements" else frozenset(items)
        return name(value) if isinstance(value, str) else value

    return walk(report)


def test_relabelled_inputs_give_relabelled_reports(tmp_path):
    rng = random.Random(4242)
    assert {_input_name(t) for _, t, _ in RELABEL_CASES} == {
        "relation.json", "rand_relation_a.json", "rand_relation_b.json",
        "cover.json", "rand_cover.json"}
    for name, template, _ in RELABEL_CASES:
        for round_ in range(3):
            data = _load(_input_name(template))
            relation = data["relation"] if "relation" in data else data
            if isinstance(relation, str):
                relation = _load(relation)
            # New labels in a random order, some of them not ASCII.
            labels = relation["elements"]
            fresh = [rng.choice(("q", "Z", "é", "x_", "→")) + str(k)
                     for k in rng.sample(range(10**6), len(labels))]
            mapping = dict(zip(labels, fresh))
            renamed = _relabel_relation(relation, mapping)
            if "relation" in data:
                data = dict(data, relation=renamed)
            else:
                data = renamed
            path = tmp_path / f"{name}-{round_}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            code, stdout, _ = _run(_argv(template, INPUTS, tmp_path, path))
            assert code == 0
            golden = json.loads((GOLDEN / name / "stdout").read_bytes())
            back = {new: old for old, new in mapping.items()}
            assert canonical(json.loads(stdout), lambda s: back.get(s, s)) \
                == canonical(golden, lambda s: s), name


# --- mutations ---

class Raw(str):
    """JSON text written as it stands: a number ``json.dumps`` cannot
    write, or a NaN or an infinity."""


ATOMS = [0, 1, -1, 2, 3, 0.5, -0.25, 1e308, 5e-324, 10**40, 10**400,
         Raw("1" + "0" * 5000), Raw("1e400"), Raw("-1e400"), Raw("NaN"),
         Raw("-Infinity"), "1/0", "", "0", "1/2", "-1", "1e5000", "x", "0.1",
         "I1", None, True, False, [], {}, [[]], [0, 1], {"x": 1}]


def dumps(value):
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + dumps(v)
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


def _slots(value, out):
    """Every (container, key) of the tree, depth first."""
    keys = (list(value) if isinstance(value, dict)
            else range(len(value)) if isinstance(value, list) else ())
    for key in keys:
        out.append((value, key))
        _slots(value[key], out)
    return out


def mutate(data, rng):
    """``data`` after one seeded edit; the root itself may be replaced."""
    root = [data]
    container, key = rng.choice(_slots(root, []))
    value = container[key]
    op = rng.choice(("replace", "delete", "duplicate", "nest", "scale",
                     "swap", "stringify"))
    if op == "replace" or container is root and op in ("delete", "swap"):
        container[key] = copy.deepcopy(rng.choice(ATOMS))
    elif op == "delete":
        del container[key]
    elif op == "duplicate":
        if isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
        else:
            container[f"{key}2"] = copy.deepcopy(value)
    elif op == "nest":
        container[key] = rng.choice(([value], {"x": value}))
    elif op == "scale":
        if isinstance(value, int) and not isinstance(value, bool):
            container[key] = value * rng.choice((10**40, -1, 3, 0))
        elif isinstance(value, float):
            container[key] = value * rng.choice((1e40, -1, 0.5, 3, 1e-30, 0))
        elif isinstance(value, str):
            container[key] = value + "0" * rng.choice((1, 40, 400, 5000))
        else:
            container[key] = copy.deepcopy(rng.choice(ATOMS))
    elif op == "swap":
        other = rng.choice(list(container) if isinstance(container, dict)
                           else range(len(container)))
        container[key], container[other] = container[other], container[key]
    else:
        container[key] = (str(value) if isinstance(value, (int, float))
                          else dumps(value))
    return root[0]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def fuzz(seed, count, workdir=None, seconds=10):
    """Run ``count`` seeded mutants through ``cli.main``; return the count
    of each (subcommand, exit code), or raise AssertionError naming the
    mutants that exited otherwise, overran ``seconds`` or raised."""
    rng = random.Random(seed)
    bases = [(template, _load(_input_name(template)))
             for _, template, _ in CASES]
    codes, failures = Counter(), []
    previous = signal.signal(signal.SIGALRM, _alarm)
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(tempfile.TemporaryDirectory())
        workdir = Path(workdir)
        (workdir / "relation.json").write_bytes(
            (INPUTS / "relation.json").read_bytes())
        path = workdir / "mutant.json"
        try:
            for index in range(count):
                template, data = rng.choice(bases)
                data = copy.deepcopy(data)
                for _ in range(rng.randint(1, 3)):
                    data = mutate(data, rng)
                text = dumps(data)
                path.write_text(text, encoding="utf-8")
                signal.setitimer(signal.ITIMER_REAL, seconds)
                try:
                    code = _run(_argv(template, INPUTS, workdir, path))[0]
                except _Timeout:
                    code = f"timeout after {seconds} s"
                except Exception as exc:  # every escape is a finding
                    code = f"{type(exc).__name__}: {exc}"[:300]
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                codes[template[0], code] += 1
                if code not in (0, 2, 3, 4):
                    failures.append((index, template[0], code, text[:300]))
        finally:
            signal.signal(signal.SIGALRM, previous)
    assert not failures, failures[:10]
    print(dict(codes))
    return codes


def test_mutants_exit_cleanly(tmp_path):
    start = time.perf_counter()
    codes = fuzz(1606, 2000, tmp_path)
    elapsed = time.perf_counter() - start
    assert sum(codes.values()) == 2000
    for command in ("relation-analyze", "subshift-report", "blockmap-approx",
                    "plmap-approx"):
        assert codes[command, 0] >= 10 and codes[command, 2] >= 100, command
    assert elapsed < 5.0, f"{elapsed:.2f} s"
