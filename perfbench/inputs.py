"""Seeded input generators for the three workloads.

Every input is built here from ``random.Random``, never by library helpers,
and written as JSON under the run's work directory.  A workload is a fixed,
stratified schedule of input shapes (sizes, class structure, flags); the
seed chooses the content of each shape.  Keeping the shapes fixed is what
makes two runs with different seeds cost about the same: where random
content would change the amount of work by a large factor (the number or
size of terminal classes), candidates are redrawn until the class structure
computed by ``graphs`` matches the schedule entry.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import graphs

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"  # the CLI's word symbols


@dataclass
class Case:
    """One input of a workload and the flags of the op that uses it."""

    index: int
    kind: str
    size: int                   # growth-table bucket
    files: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    shape: tuple = ()           # its schedule entry


def _dump(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --------------------------------------------------------------------------
# blockmap: sliding block codes
# --------------------------------------------------------------------------

README_CODE = {"N": 2, "m": 2, "phi": [0, 0, 1, 1]}

# (N, m, n, phi kind, csv).  |K*| = N^(n+k) with k = max(m-1, 1).  "perm"
# codes are right-permutive, so their coarse relation is one terminal class
# of all N^n words; "rand" codes are redrawn until their largest terminal
# class lies in the window of _RAND_CLASS_WINDOW.  The cycle is built from
# four cost groups: tiny (under 0.1 s), middle (about 0.3 s), upper (four
# (2,3,6) perm codes, about 1 s) and one |K*| = 729 code.  With 45 to 80
# ops in a run the median op falls inside the middle group and the tail op
# (the 11th slowest) inside the upper group, for every seed.
_BLOCKMAP_CYCLE = (
    (2, 2, 1, "readme", False),
    (2, 4, 5, "perm", False),
    (2, 3, 6, "perm", False),
    (2, 2, 5, "perm", False),
    (3, 3, 3, "rand", True),
    (2, 3, 4, "rand", True),
    (2, 4, 5, "rand", False),
    (2, 3, 6, "perm", False),
    (2, 4, 4, "rand", True),
    (3, 3, 3, "perm", False),
    (3, 2, 3, "rand", True),
    (2, 3, 6, "perm", False),
    (2, 3, 5, "rand", False),
    (2, 4, 5, "perm", False),
    (2, 3, 6, "perm", False),
)
BLOCKMAP_SCHEDULE = (_BLOCKMAP_CYCLE + ((3, 4, 3, "rand", False),)
                     + _BLOCKMAP_CYCLE + ((3, 3, 4, "perm", False),))

_RAND_CLASS_WINDOW = (0.6, 1.0)   # largest terminal class / N^n
TRACE_DEPTH = 6                   # the CLI default for --depth


def _perm_phi(rng: random.Random, n_symbols: int, window: int) -> list[int]:
    """phi(x_0..x_{m-1}) = x_{m-1} + h(x_0..x_{m-2}) mod N."""
    low = n_symbols ** (window - 1)
    h = [rng.randrange(n_symbols) for _ in range(low)]
    return [(h[v % low] + v // low) % n_symbols for v in range(n_symbols ** window)]


def shiftlike_coarse_edges(n_symbols: int, window: int, n: int,
                           phi) -> tuple[int, list[tuple[int, int]]]:
    """Coarse relation of the rounded code: first n symbols -> image word."""
    k = max(window - 1, 1)
    width = n + k
    coarse = n_symbols ** n
    wmod = n_symbols ** window
    edges = set()
    for value in range(n_symbols ** width):
        image = 0
        rest = value
        for pos in range(n):
            image += phi[rest % wmod] * n_symbols ** pos
            rest //= n_symbols
        edges.add((value % coarse, image))
    return coarse, sorted(edges)


def _blockmap_case(rng: random.Random, index: int, entry, directory: str) -> Case:
    n_symbols, window, n, kind, csv = entry
    if kind == "readme":
        code = dict(README_CODE)
    elif kind == "perm":
        code = {"N": n_symbols, "m": window,
                "phi": _perm_phi(rng, n_symbols, window)}
    else:
        lo, hi = _RAND_CLASS_WINDOW
        while True:
            phi = [rng.randrange(n_symbols) for _ in range(n_symbols ** window)]
            size, edges = shiftlike_coarse_edges(n_symbols, window, n, phi)
            _, terminal = graphs.basic_sets(size, edges)
            largest = max(len(c) for c in terminal)
            if lo * size <= largest <= hi * size:
                break
        code = {"N": n_symbols, "m": window, "phi": phi}
    k = max(window - 1, 1)
    prefix_len = n + k + TRACE_DEPTH * (window - 1) + rng.randrange(4)
    prefix = "".join(DIGITS[rng.randrange(n_symbols)] for _ in range(prefix_len))
    path = os.path.join(directory, f"code{index}.json")
    _dump(path, code)
    return Case(index, kind, n_symbols ** (n + k),
                files={"input": path},
                params={"n": n, "prefix": prefix, "csv": csv,
                        "N": n_symbols, "m": window},
                shape=entry)


def blockmap_cases(seed: int, directory: str, count: int) -> list[Case]:
    rng = random.Random(f"blockmap-{seed}")
    cases = []
    for index in range(count):
        entry = BLOCKMAP_SCHEDULE[index % len(BLOCKMAP_SCHEDULE)]
        cases.append(_blockmap_case(rng, index, entry, directory))
    return cases


def blockmap_warmup(directory: str) -> Case:
    rng = random.Random("blockmap-warmup")
    return _blockmap_case(rng, -1, (2, 2, 4, "perm", True), directory)


# --------------------------------------------------------------------------
# subshift: large sparse relations and their uniform covers
# --------------------------------------------------------------------------

# (shape, n, parameter).  "planted": cyclic blocks of 1..64 elements joined
# by a DAG, about one block in ten terminal, all terminal blocks of the given
# size.  "rand3": a random 3-out core whose giant class has about the given
# number of elements, fed by transient elements.  The cycle is built from
# three cost groups: 16 cheap planted n=250 entries (about 0.2 s), four
# planted n=500 entries (about 0.8 s) and three heavy ones, the two rand3
# shapes and planted n=1000 (1 to 4 s).  A run holds 35 or more ops, so the
# median op falls inside the cheap group and the tail op (the 11th slowest)
# inside the n=500 group, whatever the seed.
_P250 = ("planted", 250, 16)
_P500 = ("planted", 500, 24)
SUBSHIFT_SCHEDULE = (
    _P250, _P500, _P250, _P250, ("rand3", 250, 150), _P250, _P250, _P500,
    _P250, _P250, ("planted", 1000, 16), _P250, _P250, _P500, _P250, _P250,
    ("rand3", 250, 200), _P250, _P250, _P500, _P250, _P250, _P250,
)


def _planted_core(rng: random.Random, n: int, terminal_size: int):
    sizes = []
    total = 0
    n_terminal = 0
    while total < n:
        terminal = n_terminal * 10 < len(sizes) + 1 and n - total >= terminal_size
        size = terminal_size if terminal else min(rng.randint(1, 64), n - total)
        sizes.append((size, terminal))
        total += size
        n_terminal += terminal
    # The last block in DAG order must be terminal so every block reaches one.
    last_terminal = max(i for i, (_, t) in enumerate(sizes) if t)
    sizes.append(sizes.pop(last_terminal))
    perm = list(range(n))
    rng.shuffle(perm)
    blocks = []
    pos = 0
    for size, terminal in sizes:
        blocks.append((perm[pos:pos + size], terminal))
        pos += size
    edges = set()
    for b, (members, terminal) in enumerate(blocks):
        cycle = members[:]
        rng.shuffle(cycle)
        for a, c in zip(cycle, cycle[1:] + cycle[:1]):
            edges.add((a, c))
        for a in members:
            for _ in range(rng.randint(0, 2)):
                edges.add((a, rng.choice(members)))
        if not terminal:
            later = blocks[b + 1:]
            for _ in range(rng.randint(1, 3)):
                target_members, _ = rng.choice(later)
                edges.add((rng.choice(members), rng.choice(target_members)))
    return sorted(edges)


def _rand3_core(rng: random.Random, n: int, giant: int):
    lo, hi = int(0.9 * giant), giant
    while True:
        core = list(range(n))
        rng.shuffle(core)
        inner, outer = core[:giant], core[giant:]
        edges = set()
        for a in inner:
            for c in rng.sample(inner, 3):
                edges.add((a, c))
        placed = inner[:]
        for a in outer:
            for c in rng.sample(placed, min(3, len(placed))):
                edges.add((a, c))
            placed.append(a)
        _, terminal = graphs.basic_sets(n, edges)
        if len(terminal) == 1 and lo <= len(terminal[0]) <= hi:
            return sorted(edges)


def _write_cover(path: str, relation_name: str, n: int, edges) -> None:
    """Uniform cover, streamed row by row: matrix[j][i] = 1/outdeg(i)."""
    succ = graphs.successor_lists(n, edges)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            preds[j].append(i)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"relation": ' + json.dumps(relation_name) + ', "matrix": [')
        for j in range(n):
            row = ["0"] * n
            for i in preds[j]:
                row[i] = repr(1.0 / len(succ[i]))
            handle.write(("," if j else "") + "[" + ",".join(row) + "]")
        handle.write("]}")


def _subshift_case(rng: random.Random, index: int, entry, directory: str) -> Case:
    shape, n, param = entry
    edges = (_planted_core(rng, n, param) if shape == "planted"
             else _rand3_core(rng, n, param))
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    relation = {"elements": labels,
                "edges": [[labels[a], labels[b]] for a, b in edges]}
    # Starved tails: short chains that end without a successor.
    raw_labels = labels[:]
    raw_edges = list(relation["edges"])
    for t in range(rng.randint(2, 4)):
        prev = labels[rng.randrange(n)]
        for step in range(rng.randint(1, 3)):
            name = f"tail{t}.{step}"
            raw_labels.insert(rng.randrange(len(raw_labels) + 1), name)
            raw_edges.append([prev, name])
            prev = name
    rng.shuffle(raw_edges)
    raw_path = os.path.join(directory, f"raw{index}.json")
    rel_name = f"rel{index}.json"
    cover_path = os.path.join(directory, f"cover{index}.json")
    _dump(raw_path, {"elements": raw_labels, "edges": raw_edges})
    _dump(os.path.join(directory, rel_name), relation)
    _write_cover(cover_path, rel_name, n, edges)
    return Case(index, shape, n,
                files={"raw": raw_path, "cover": cover_path},
                params={"sim_seed": rng.randrange(1 << 32)}, shape=entry)


def subshift_cases(seed: int, directory: str, count: int) -> list[Case]:
    rng = random.Random(f"subshift-{seed}")
    return [_subshift_case(rng, index,
                           SUBSHIFT_SCHEDULE[index % len(SUBSHIFT_SCHEDULE)],
                           directory)
            for index in range(count)]


def subshift_warmup(directory: str) -> Case:
    rng = random.Random("subshift-warmup")
    return _subshift_case(rng, -1, ("planted", 60, 8), directory)


# --------------------------------------------------------------------------
# plmap: piecewise-linear interval maps
# --------------------------------------------------------------------------

README_TENT = {
    "K": {"vertices": ["0", "1", "2"]},
    "Kstar": {"vertices": ["0", "1/2", "1", "3/2", "2"]},
    "vmap": {"0": "1", "1/2": "0", "1": "1", "3/2": "2", "2": "1"},
}
EXAMPLE_B = {
    "K": {"vertices": ["0", "1", "2", "3"]},
    "Kstar": {"vertices": ["0", "1/2", "1", "3/2", "2", "5/2", "3"]},
    "vmap": {"0": "1", "1/2": "0", "1": "1", "3/2": "2", "2": "3",
             "5/2": "2", "3": "3"},
}

# (kind, coarse edges, terminal classes).  "vmap" and "repair" systems are
# redrawn until their coarse relation (before repair) has exactly that many
# terminal classes, because each terminal class costs one decoded Birkhoff
# check of 10^4 windows.  Most entries have two terminal classes and few
# coarse edges, so they cost about the same and hold both the median and
# the tail op of a run.
PLMAP_SCHEDULE = (
    ("tent", 2, 2),
    ("vmap", 4, 1),
    ("vmap", 8, 2),
    ("sampled", 4, None),
    ("exampleB", 3, 2),
    ("vmap", 16, 2),
    ("repair", 8, 1),
    ("vmap", 64, 1),
    ("vmap", 12, 2),
    ("repair", 16, 2),
    ("vmap", 32, 2),
    ("vmap", 128, 1),
    ("vmap", 6, 2),
)

_CUTS = [Fraction(i, 8) for i in range(1, 8)]
_LENGTHS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
SIMULATE = 10000
DEPTH = 40
MAX_REFINE_CELLS = 2000
MAX_REFINE_DEPTH = 12
CODE_WORDS = 12


def _pl_coarse_edges(images, parts) -> list[tuple[int, int]]:
    edges = set()
    j = 0
    for i, p in enumerate(parts):
        for _ in range(p):
            lo, hi = images[j], images[j + 1]
            if lo != hi:
                edges.add((i, min(lo, hi)))
            j += 1
    return sorted(edges)


def _random_vmap(rng: random.Random, n_edges: int, terminal: int, lazy: bool):
    """Vertices, fine vertices and a +-1 image walk (0 steps when lazy)."""
    while True:
        vertices = [Fraction(0)]
        for _ in range(n_edges):
            vertices.append(vertices[-1] + rng.choice(_LENGTHS))
        parts = [rng.randint(2, 3) for _ in range(n_edges)]
        fine = []
        for (lo, hi), p in zip(zip(vertices, vertices[1:]), parts):
            fine.append(lo)
            for cut in sorted(rng.sample(_CUTS, p - 1)):
                fine.append(lo + (hi - lo) * cut)
        fine.append(vertices[-1])
        pos = rng.randint(0, n_edges)
        images = [pos]
        for _ in range(len(fine) - 1):
            if lazy and rng.random() < 0.2:
                step = 0
            elif pos == 0:
                step = 1
            elif pos == n_edges:
                step = -1
            else:
                step = rng.choice((-1, 1))
            pos += step
            images.append(pos)
        if lazy and all(a != b for a, b in zip(images, images[1:])):
            continue
        _, classes = graphs.basic_sets(n_edges, _pl_coarse_edges(images, parts))
        if len(classes) == terminal:
            return vertices, fine, images


def _sampled(rng: random.Random, n_edges: int):
    """Samples of a random self-map of [0, n_edges] at half steps.

    The samples walk by at most 1 per half step, so the Lipschitz bound is at
    most 2 and the rounded subdivision has at most 8 fine edges per coarse
    edge.
    """
    points = [Fraction(i, 2) for i in range(2 * n_edges + 1)]
    values = [Fraction(rng.randint(0, 2 * n_edges), 2)]
    for _ in points[1:]:
        step = Fraction(rng.randint(-2, 2), 2)
        values.append(min(max(values[-1] + step, Fraction(0)), Fraction(n_edges)))
    slope = max(abs(b - a) * 2 for a, b in zip(values, values[1:]))
    return {
        "K": {"vertices": [str(i) for i in range(n_edges + 1)]},
        "samples": {_fmt(x): _fmt(y) for x, y in zip(points, values)},
        "lip": _fmt(max(slope, Fraction(1))),
    }


def _plmap_case(rng: random.Random, index: int, entry, directory: str) -> Case:
    kind, n_edges, terminal = entry
    repair = kind == "repair"
    if kind == "tent":
        data = README_TENT
    elif kind == "exampleB":
        data = EXAMPLE_B
    elif kind == "sampled":
        data = _sampled(rng, n_edges)
    else:
        vertices, fine, images = _random_vmap(rng, n_edges, terminal, repair)
        data = {
            "K": {"vertices": [_fmt(v) for v in vertices]},
            "Kstar": {"vertices": [_fmt(v) for v in fine]},
            "vmap": {_fmt(w): _fmt(vertices[i]) for w, i in zip(fine, images)},
        }
    path = os.path.join(directory, f"pl{index}.json")
    _dump(path, data)
    return Case(index, kind, n_edges, files={"input": path},
                params={"repair": repair, "sim_seed": rng.randrange(1 << 32),
                        "word_seed": rng.randrange(1 << 32)},
                shape=entry)


def plmap_cases(seed: int, directory: str, count: int) -> list[Case]:
    rng = random.Random(f"plmap-{seed}")
    return [_plmap_case(rng, index, PLMAP_SCHEDULE[index % len(PLMAP_SCHEDULE)],
                        directory)
            for index in range(count)]


def plmap_warmup(directory: str) -> Case:
    rng = random.Random("plmap-warmup")
    return _plmap_case(rng, -1, ("vmap", 3, 1), directory)
