"""One op per workload, its answer checks, and the comparable form of its output.

An op is one user job: the CLI calls of the workload, run in-process through
``tractable_dyn.cli.main``, plus the library calls named by the workload.
``run`` does only the op; ``collect`` and ``check`` read what it wrote once
the timed phase is over.  Library functions are always reached as module
attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from tractable_dyn import cli, simplicial1d

from . import graphs, inputs

DEFAULT_SEED = 1
FLOAT_REL_TOL = 1e-9
SUBSHIFT_WEIGHT_TOL = 1e-12


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, name))
               for name in os.listdir(outdir))


# --------------------------------------------------------------------------
# blockmap
# --------------------------------------------------------------------------

def run_blockmap(case, outdir: str) -> dict:
    p = case.params
    argv = ["blockmap-approx", "--input", case.files["input"],
            "--n", str(p["n"]), "--prefix", p["prefix"],
            "--trace", os.path.join(outdir, "trace.csv"),
            "--out-system", os.path.join(outdir, "system.json")]
    if p["csv"]:
        argv += ["--format", "csv", "--words", "3",
                 "--out", os.path.join(outdir, "cylinders.csv")]
    else:
        argv += ["--out", os.path.join(outdir, "report.json")]
    return {"rc": [cli.main(argv)]}


def collect_blockmap(case, outdir: str, result: dict) -> dict:
    out = {"system": _load(os.path.join(outdir, "system.json")),
           "trace": _csv_rows(_read(os.path.join(outdir, "trace.csv")))}
    if case.params["csv"]:
        out["cylinders"] = _digest(_read(os.path.join(outdir, "cylinders.csv")))
    else:
        out["report"] = _load(os.path.join(outdir, "report.json"))
    return out


def _word_label(value: int, n_symbols: int, length: int) -> str:
    digits = []
    for _ in range(length):
        digits.append(inputs.DIGITS[value % n_symbols])
        value //= n_symbols
    return "".join(digits)


def check_blockmap(case, outdir: str, got: dict) -> list[str]:
    p = case.params
    problems = []
    rows = got["trace"]
    if rows[0] != ["step", "f_word", "g_word", "match"]:
        problems.append(f"trace header {rows[0]}")
    if len(rows) != inputs.TRACE_DEPTH + 2:
        problems.append(f"trace has {len(rows) - 1} steps")
    if any(row[3] != "1" for row in rows[1:]):
        problems.append("shadowing trace has a step with match != 1")
    if p["csv"]:
        # Length-1 cylinders of each terminal class carry its whole mass.
        totals: dict[str, Fraction] = {}
        for cls, word, measure in _csv_rows(_read(
                os.path.join(outdir, "cylinders.csv")))[1:]:
            if "." not in word and len(word) == p["n"] + max(p["m"] - 1, 1):
                totals[cls] = totals.get(cls, Fraction(0)) + Fraction(measure)
        if not totals or any(t != 1 for t in totals.values()):
            problems.append(f"length-1 cylinder masses {totals}")
        return problems
    report = got["report"]
    for measure in report["stationary"]:
        total = sum(Fraction(w) for w in measure["weights"].values())
        if total != 1:
            problems.append(f"exact weights of {measure['class'][:3]} sum to {total}")
    phi = _load(case.files["input"])["phi"]
    size, edges = inputs.shiftlike_coarse_edges(p["N"], p["m"], p["n"], phi)
    _, terminal = graphs.basic_sets(size, edges)
    expected = [[_word_label(i, p["N"], p["n"]) for i in c] for c in terminal]
    if report["terminal"] != expected:
        problems.append("terminal classes differ from the benchmark's SCC")
    return problems


# --------------------------------------------------------------------------
# subshift
# --------------------------------------------------------------------------

def run_subshift(case, outdir: str) -> dict:
    n = case.size
    rc1 = cli.main(["relation-analyze", "--input", case.files["raw"],
                    "--out", os.path.join(outdir, "relation.json")])
    rc2 = cli.main(["subshift-report", "--input", case.files["cover"],
                    "--simulate", str(10 * n), "--words", "1",
                    "--seed", str(case.params["sim_seed"]),
                    "--out", os.path.join(outdir, "report.json")])
    return {"rc": [rc1, rc2]}


def collect_subshift(case, outdir: str, result: dict) -> dict:
    return {"relation": _load(os.path.join(outdir, "relation.json")),
            "report": _load(os.path.join(outdir, "report.json"))}


def _labelled_classes(labels, classes):
    return [[labels[i] for i in c] for c in classes]


def check_subshift(case, outdir: str, got: dict) -> list[str]:
    problems = []
    raw = _load(case.files["raw"])
    labels = raw["elements"]
    index = {x: i for i, x in enumerate(labels)}
    edges = [(index[a], index[b]) for a, b in raw["edges"]]
    kept = graphs.prune_starved(len(labels), edges)
    rel = got["relation"]
    if rel["kept"] != [labels[i] for i in kept]:
        problems.append("relation-analyze kept set differs from the oracle")
    renumber = {old: new for new, old in enumerate(kept)}
    kept_edges = [(renumber[a], renumber[b]) for a, b in edges
                  if a in renumber and b in renumber]
    kept_labels = [labels[i] for i in kept]
    cyclic, terminal = graphs.basic_sets(len(kept), kept_edges)
    if rel["basic_sets"] != _labelled_classes(kept_labels, cyclic):
        problems.append("relation-analyze basic sets differ from the oracle")
    if rel["terminal"] != _labelled_classes(kept_labels, terminal):
        problems.append("relation-analyze terminal classes differ from the oracle")

    core = _load(os.path.join(os.path.dirname(case.files["cover"]),
                              _load_relation_name(case.files["cover"])))
    cindex = {x: i for i, x in enumerate(core["elements"])}
    cedges = [(cindex[a], cindex[b]) for a, b in core["edges"]]
    cyclic, terminal = graphs.basic_sets(len(core["elements"]), cedges)
    report = got["report"]
    if report["basic_sets"] != _labelled_classes(core["elements"], cyclic):
        problems.append("subshift-report basic sets differ from the oracle")
    if report["terminal"] != _labelled_classes(core["elements"], terminal):
        problems.append("subshift-report terminal classes differ from the oracle")
    for entry in report["stationary"]:
        total = sum(entry["weights"].values())
        if abs(total - 1.0) > SUBSHIFT_WEIGHT_TOL:
            problems.append(f"stationary weights sum to {total!r}")
    return problems


def _load_relation_name(cover_path: str) -> str:
    # The cover file starts with its relation reference; avoid parsing the
    # dense matrix just to read it.
    with open(cover_path, "r", encoding="utf-8") as handle:
        head = handle.read(256)
    return json.loads(head[head.index(":") + 1:head.index(",")])


# --------------------------------------------------------------------------
# plmap
# --------------------------------------------------------------------------

class FineRelation:
    """Fine-edge relation of a system file, computed without the library."""

    def __init__(self, data):
        coarse = [Fraction(v) for v in data["K"]["vertices"]]
        fine = [Fraction(v) for v in data["Kstar"]["vertices"]]
        vmap = {Fraction(k): Fraction(v) for k, v in data["vmap"].items()}
        position = {v: i for i, v in enumerate(coarse)}
        images = [position[vmap[w]] for w in fine]
        self.j_edge = [bisect.bisect_right(coarse, w) - 1 for w in fine[:-1]]
        self.image = [min(a, b) for a, b in zip(images, images[1:])]
        fiber: dict[int, list[int]] = {}
        for j, base in enumerate(self.j_edge):
            fiber.setdefault(base, []).append(j)
        self.succ = [fiber.get(self.image[j], []) for j in range(len(self.image))]

    def word_count(self, length: int) -> int:
        counts = [1] * len(self.succ)
        for _ in range(length - 1):
            counts = [sum(counts[j2] for j2 in row) for row in self.succ]
        return sum(counts)

    def refine_depth(self) -> int:
        depth = 1
        while depth < inputs.MAX_REFINE_DEPTH and \
                self.word_count(depth + 1) <= inputs.MAX_REFINE_CELLS:
            depth += 1
        return depth

    def words(self, seed: int, count: int) -> list[list[int]]:
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            word = [rng.randrange(len(self.succ))]
            for _ in range(rng.randint(3, 9)):
                word.append(rng.choice(self.succ[word[-1]]))
            out.append(word)
        return out


def run_plmap(case, outdir: str) -> dict:
    system_path = os.path.join(outdir, "system.json")
    argv = ["plmap-approx", "--input", case.files["input"],
            "--simulate", str(inputs.SIMULATE), "--depth", str(inputs.DEPTH),
            "--seed", str(case.params["sim_seed"]),
            "--out-plot", os.path.join(outdir, "plot.svg"),
            "--out-system", system_path,
            "--out", os.path.join(outdir, "report.json")]
    if case.params["repair"]:
        argv.append("--repair")
    rc = cli.main(argv)
    if rc != 0:
        return {"rc": [rc]}
    data = _load(system_path)
    system = simplicial1d.system_from_json(data)
    fine = FineRelation(data)
    depth = fine.refine_depth()
    _, mesh = simplicial1d.refine(system, depth)
    intervals = [simplicial1d.code_H_1d(system, word)
                 for word in fine.words(case.params["word_seed"],
                                        inputs.CODE_WORDS)]
    return {"rc": [rc], "depth": depth, "cells": mesh.cells,
            "mesh_d": str(mesh.mesh_d), "bound": str(mesh.bound),
            "code_H": [[str(lo), str(hi)] for lo, hi in intervals]}


def collect_plmap(case, outdir: str, result: dict) -> dict:
    return {"report": _load(os.path.join(outdir, "report.json")),
            "system": _load(os.path.join(outdir, "system.json")),
            "plot": _digest(_read(os.path.join(outdir, "plot.svg"))),
            "refine": {k: result[k] for k in ("depth", "cells", "mesh_d", "bound")},
            "code_H": result["code_H"]}


def check_plmap(case, outdir: str, got: dict) -> list[str]:
    problems = []
    for weights in got["report"]["stationary"]:
        total = sum(Fraction(w) for w in weights.values())
        if total != 1:
            problems.append(f"exact weights sum to {total}")
    fine = FineRelation(got["system"])
    refine = got["refine"]
    if refine["cells"] != fine.word_count(refine["depth"]):
        problems.append(f"refine gave {refine['cells']} cells, expected "
                        f"{fine.word_count(refine['depth'])}")
    if Fraction(refine["mesh_d"]) > Fraction(refine["bound"]):
        problems.append("refined mesh exceeds its bound")
    for lo, hi in got["code_H"]:
        if not Fraction(lo) < Fraction(hi):
            problems.append(f"empty coded interval [{lo}, {hi}]")
    return problems


def statistical_passes(workload: str, got: dict) -> list[bool]:
    """Birkhoff / genericity verdicts: recorded, gated only against a reference."""
    if workload == "plmap":
        return [b["pass"] for b in got["report"].get("birkhoff", [])]
    if workload == "subshift":
        return [got["report"]["genericity"]["pass"]]
    return []


# --------------------------------------------------------------------------
# reference comparison
# --------------------------------------------------------------------------

def compare(ref, got, path: str = "") -> list[str]:
    """Differences of ``got`` from ``ref``; keys only in ``got`` are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(compare(value, got[key], f"{path}/{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for pos, (a, b) in enumerate(zip(ref, got)):
            out.extend(compare(a, b, f"{path}[{pos}]"))
        return out
    if isinstance(ref, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if ref == got or abs(ref - got) <= FLOAT_REL_TOL * max(abs(ref), abs(got)):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


WORKLOADS = {
    "blockmap": (inputs.blockmap_cases, inputs.blockmap_warmup,
                 run_blockmap, collect_blockmap, check_blockmap),
    "plmap": (inputs.plmap_cases, inputs.plmap_warmup,
              run_plmap, collect_plmap, check_plmap),
    "subshift": (inputs.subshift_cases, inputs.subshift_warmup,
                 run_subshift, collect_subshift, check_subshift),
}
