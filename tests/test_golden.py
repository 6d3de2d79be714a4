"""Byte-for-byte golden outputs of the CLI on the README inputs.

Each case runs one CLI command on the files in ``tests/golden/inputs`` and
compares its exit code, stdout and every output file it writes with the
bytes stored under ``tests/golden/<case>/``.  The same cases run once
in-process and once in a ``python -O`` subprocess, so the outputs and the
internal invariants hold in optimised mode too.

To record the golden files again (only when an output is meant to change):
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import subprocess
import sys
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
    ("plmap_two_terminal", ["plmap-approx", "--input", "{in}/system_b.json",
                            "--simulate", "2000", "--depth", "25"], []),
    ("plmap_svg", ["plmap-approx", "--input", "{in}/system.json",
                   "--format", "svg"], []),
    ("plmap_csv", ["plmap-approx", "--input", "{in}/system_b.json",
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


def _record():
    import tempfile

    for name, template, files in CASES:
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
    _record()
