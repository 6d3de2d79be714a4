"""Byte-for-byte golden outputs of the CLI on the README inputs and on a
seeded random corpus.

Each case runs one CLI command on the files in ``tests/golden/inputs`` and
compares its exit code, stdout and every output file it writes with the
bytes stored under ``tests/golden/<case>/``.  The same cases run once
in-process and once in a ``python -O`` subprocess, so the outputs and the
internal invariants hold in optimised mode too.

The ``rand_*`` cases read inputs that ``_random_inputs`` draws from fixed
seeds: relations with starved tails, self-loops and chains of classes, a
cover with transient elements, block codes with two or more terminal
classes and a PL map with two terminal classes.

To record the golden files again (only when an output is meant to change):
``PYTHONPATH=src python tests/test_golden.py [case ...]`` (every case when
none is named; the random inputs are redrawn first, to the same bytes).
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tractable_dyn
from tractable_dyn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# (case name, argv with {in}/{out} standing for the input and output
# directories, output files the command writes)
CASES = [
    ("relation_json", ["relation-analyze", "--input", "{in}/relation.json"],
     []),
    ("relation_csv", ["relation-analyze", "--input", "{in}/relation.json",
                      "--format", "csv"], []),
    ("subshift_simulate", ["subshift-report", "--input", "{in}/cover.json",
                           "--simulate", "200", "--words", "1",
                           "--seed", "4"], []),
    ("blockmap_system", ["blockmap-approx", "--input", "{in}/code.json",
                         "--n", "1", "--out-system", "{out}/system.json"],
     ["system.json"]),
    ("blockmap_trace", ["blockmap-approx", "--input", "{in}/code.json",
                        "--n", "1", "--prefix", "011010011",
                        "--trace", "{out}/trace.csv"], ["trace.csv"]),
    ("blockmap_csv", ["blockmap-approx", "--input", "{in}/code.json",
                      "--n", "1", "--format", "csv", "--words", "3"], []),
    ("plmap_vmap", ["plmap-approx", "--input", "{in}/system.json",
                    "--simulate", "2000", "--depth", "25",
                    "--out-plot", "{out}/picture.svg"], ["picture.svg"]),
    ("plmap_samples", ["plmap-approx", "--input", "{in}/sampled.json",
                       "--simulate", "2000", "--depth", "25",
                       "--out-system", "{out}/system.json"], ["system.json"]),
    ("plmap_repair", ["plmap-approx", "--input", "{in}/degenerate.json",
                      "--repair", "--out-system", "{out}/system.json"],
     ["system.json"]),
    ("plmap_samples_repaired", ["plmap-approx", "--input",
                                "{in}/sampled_wide.json", "--simulate", "300",
                                "--depth", "12", "--out-system",
                                "{out}/system.json"], ["system.json"]),
    ("plmap_two_terminal", ["plmap-approx", "--input", "{in}/system_b.json",
                            "--simulate", "2000", "--depth", "25"], []),
    ("plmap_svg", ["plmap-approx", "--input", "{in}/system.json",
                   "--format", "svg"], []),
    ("plmap_csv", ["plmap-approx", "--input", "{in}/system_b.json",
                   "--format", "csv"], []),
    ("rand_relation_a_json", ["relation-analyze", "--input",
                              "{in}/rand_relation_a.json"], []),
    ("rand_relation_a_csv", ["relation-analyze", "--input",
                             "{in}/rand_relation_a.json", "--format", "csv"],
     []),
    ("rand_relation_b_json", ["relation-analyze", "--input",
                              "{in}/rand_relation_b.json"], []),
    ("rand_relation_b_csv", ["relation-analyze", "--input",
                             "{in}/rand_relation_b.json", "--format", "csv"],
     []),
    ("rand_subshift_simulate", ["subshift-report", "--input",
                                "{in}/rand_cover.json", "--simulate", "3000",
                                "--words", "2", "--seed", "11"], []),
    ("rand_subshift_csv", ["subshift-report", "--input",
                           "{in}/rand_cover.json", "--format", "csv"], []),
    ("rand_blockmap_json", ["blockmap-approx", "--input",
                            "{in}/rand_code_a.json", "--n", "2"], []),
    ("rand_blockmap_csv", ["blockmap-approx", "--input",
                           "{in}/rand_code_a.json", "--n", "2",
                           "--format", "csv", "--words", "3"], []),
    ("rand_blockmap_trace", ["blockmap-approx", "--input",
                             "{in}/rand_code_a.json", "--n", "2",
                             "--prefix", "0110100110010110011", "--depth",
                             "5", "--trace", "{out}/trace.csv",
                             "--out-system", "{out}/system.json"],
     ["trace.csv", "system.json"]),
    ("rand_blockmap_n3_csv", ["blockmap-approx", "--input",
                              "{in}/rand_code_b.json", "--n", "1",
                              "--format", "csv", "--words", "3"], []),
    ("rand_plmap_json", ["plmap-approx", "--input", "{in}/rand_pl.json",
                         "--simulate", "500", "--depth", "12",
                         "--seed", "5"], []),
    ("rand_plmap_csv", ["plmap-approx", "--input", "{in}/rand_pl.json",
                        "--format", "csv"], []),
]
IDS = [name for name, _, _ in CASES]


def _argv(template, out_dir):
    return [arg.format(**{"in": INPUTS, "out": out_dir}) for arg in template]


def _check(name, files, code, stdout, out_dir):
    case = GOLDEN / name
    assert code == int((case / "exit_code").read_text())
    assert stdout == (case / "stdout").read_bytes()
    for f in files:
        assert (Path(out_dir) / f).read_bytes() == (case / f).read_bytes(), f


def _run_subprocess(template, out_dir, *flags):
    src = str(Path(tractable_dyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "tractable_dyn.cli",
         *_argv(template, out_dir)],
        capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout


@pytest.mark.parametrize("name,template,files", CASES, ids=IDS)
def test_golden_in_process(name, template, files, tmp_path, capsysbinary):
    code = main(_argv(template, tmp_path))
    _check(name, files, code, capsysbinary.readouterr().out, tmp_path)


@pytest.mark.parametrize("name,template,files", CASES, ids=IDS)
def test_golden_under_python_O(name, template, files, tmp_path):
    code, stdout = _run_subprocess(template, tmp_path, "-O")
    _check(name, files, code, stdout, tmp_path)


def _random_relation(rng, n_classes, tails):
    """Labelled edges: cycles of 1-4 elements (a lone element has a
    self-loop), chained by edges from class to class, plus transient
    elements feeding the classes and starved tails hanging off them."""
    edges = set()
    classes = []
    count = 0
    for _ in range(n_classes):
        size = rng.randint(1, 4)
        members = list(range(count, count + size))
        count += size
        for a, b in zip(members, members[1:] + members[:1]):
            edges.add((a, b))
        for _ in range(rng.randint(0, size)):
            edges.add((rng.choice(members), rng.choice(members)))
        classes.append(members)
    for c in range(1, n_classes):
        if rng.random() < 0.6:
            edges.add((rng.choice(classes[rng.randrange(c)]),
                       rng.choice(classes[c])))
    for _ in range(n_classes):
        edges.add((count, rng.choice(rng.choice(classes))))
        if rng.random() < 0.5:
            edges.add((count, count - 1))
        count += 1
    for _ in range(tails):
        prev = rng.randrange(count)
        for _ in range(rng.randint(1, 3)):
            edges.add((prev, count))
            prev = count
            count += 1
    order = list(range(count))
    rng.shuffle(order)
    labels = [f"v{order[i]:02d}" for i in range(count)]
    pairs = sorted([labels[a], labels[b]] for a, b in edges)
    rng.shuffle(pairs)
    return {"elements": sorted(labels), "edges": pairs}


def _random_cover(rng):
    """A relation with transient elements and a column-stochastic matrix
    whose entries are multiples of 1/8 (exact in binary)."""
    relation = _random_relation(rng, 4, 0)
    labels = relation["elements"]
    index = {label: i for i, label in enumerate(labels)}
    succ = [[] for _ in labels]
    for a, b in relation["edges"]:
        succ[index[a]].append(index[b])
    matrix = [[0.0] * len(labels) for _ in labels]
    for i, targets in enumerate(succ):
        targets.sort()
        cuts = sorted(rng.sample(range(1, 8), len(targets) - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [8])]
        for j, part in zip(targets, parts):
            matrix[j][i] = part / 8
    return {"relation": relation, "matrix": matrix}


def _random_code(rng, n_symbols, window, n, transient):
    """A block code whose rounding at n has two or more terminal classes,
    and also a transient element (``transient``) or else a terminal class
    of two or more elements."""
    import tractable_dyn as td
    from oracles import closure_decomposition

    coarse = n_symbols ** n
    while True:
        phi = [rng.randrange(n_symbols) for _ in range(n_symbols ** window)]
        system = td.derive_gamma(td.SlidingBlockCode(n_symbols, window,
                                                     tuple(phi)), n)
        edges = {(t % coarse, image) for t, image in enumerate(system.gamma)}
        classes, flags, rest, _ = closure_decomposition(coarse, edges)
        terminal = [c for c, flag in zip(classes, flags) if flag]
        if len(terminal) >= 2 and (
                bool(rest) if transient else max(map(len, terminal)) >= 2):
            return {"N": n_symbols, "m": window, "phi": phi}


def _random_pl(rng):
    """A PL map on [0, 4] with two terminal classes."""
    import tractable_dyn as td

    cuts = [Fraction(i, 4) for i in range(1, 4)]
    while True:
        fine = []
        for lo in range(4):
            fine.append(Fraction(lo))
            fine.extend(lo + c for c in sorted(rng.sample(cuts,
                                                          rng.randint(1, 2))))
        fine.append(Fraction(4))
        pos = rng.randint(0, 4)
        images = [pos]
        for _ in range(len(fine) - 1):
            pos = 1 if pos == 0 else 3 if pos == 4 else pos + rng.choice((-1, 1))
            images.append(pos)
        data = {"K": {"vertices": [str(i) for i in range(5)]},
                "Kstar": {"vertices": [str(x) for x in fine]},
                "vmap": {str(x): str(i) for x, i in zip(fine, images)}}
        try:
            report = td.tractability_report_pl(
                td.simplicial1d.system_from_json(data))
        except td.TractableDynError:
            continue
        if len(report.analysis.terminal_pairs) == 2:
            return data


def _random_inputs() -> dict:
    """File name -> JSON data of every random input, from fixed seeds."""
    return {
        "rand_relation_a.json": _random_relation(random.Random(101), 4, 2),
        "rand_relation_b.json": _random_relation(random.Random(102), 9, 4),
        "rand_cover.json": _random_cover(random.Random(103)),
        "rand_code_a.json": _random_code(random.Random(104), 2, 3, 2, True),
        "rand_code_b.json": _random_code(random.Random(105), 3, 2, 1, False),
        "rand_pl.json": _random_pl(random.Random(106)),
    }


def _record(names):
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    for file_name, data in _random_inputs().items():
        (INPUTS / file_name).write_text(json.dumps(data) + "\n")
    for name, template, files in CASES:
        if names and name not in names:
            continue
        case = GOLDEN / name
        case.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as out_dir:
            code, stdout = _run_subprocess(template, out_dir)
            (case / "exit_code").write_text(f"{code}\n")
            (case / "stdout").write_bytes(stdout)
            for f in files:
                (case / f).write_bytes((Path(out_dir) / f).read_bytes())
        print(f"recorded {name}: exit {code}")


if __name__ == "__main__":
    _record(set(sys.argv[1:]))
