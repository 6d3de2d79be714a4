"""Piecewise-linear interval dynamics via simplicial maps, in exact rationals.

A 1-D interval complex K is a strictly increasing list of rational vertices;
its simplices are the vertices and the closed edges between neighbours.  A
simplicial system is a proper subdivision K* of K (every K edge split at
least once) together with a non-degenerate vertex map into V(K); the induced
map g is affine on each K* edge and sends it onto a full K edge.  Because
every K* vertex interior to a K edge keeps both barycentric coordinates at
least theta, each local inverse of g contracts the barycentric metric d_K by
the factor (1 - theta), and iterated inverse images of K* edges shrink
geometrically.  That yields:

* exact symbolic coding: a word of K* edges pins a nested rational interval
  of d_K-length at most 2 (1-theta)^(word length);
* the Lebesgue distribution data nu(t) = |t| / |J(t)|, which presents g as a
  two-alphabet model whose ergodic Markov measures push forward to the
  piecewise-constant invariant densities of g;
* quantitative rounding: any Lipschitz self-map can be approximated by such
  a g within 2 mesh(K), with a further 4 mesh(K) slack if degeneracies of
  the rounded vertex map must be repaired.

All geometry in this module is exact: results are fractions.Fraction, and
g and its local inverses run only on the system's integer chart, as integer
affine ratios, so no gcd is taken until a result is returned (``pl_eval``,
the one Fraction evaluator of g, is kept for callers).  Floating point
appears only in the norm-bound spot check, in Markov sampling, and in the
screen that bins decoded windows: it evaluates them in float beside a proven
error bound and hands every window it cannot settle to the exact chain, so
each bin count is exact.  Forward float iteration of g is deliberately
avoided (binary orbits of tent-like maps collapse); orbit statistics are
gathered by sampling symbolic paths and decoding them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import markov, two_alphabet
from .config import resolve_cell_cap
from .errors import (CapExceededError, CorrespondenceError, DegenerateMapError,
                     MapRangeError, NotTerminalError, NumericalError,
                     SubdivisionError, ValidationError, WordError)
from .rationals import format_rational, parse_rational, solve_linear_exact
from .relation import tractability_json


@dataclass(frozen=True)
class IntervalComplex:
    """Strictly increasing rational vertices; edges join neighbours."""

    vertices: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(Fraction(v) for v in self.vertices))
        if len(self.vertices) < 2:
            raise ValidationError("an interval complex needs at least 2 vertices")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not a < b:
                raise ValidationError("vertices must be strictly increasing")

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    @property
    def lo(self) -> Fraction:
        return self.vertices[0]

    @property
    def hi(self) -> Fraction:
        return self.vertices[-1]

    def edge(self, i: int) -> tuple[Fraction, Fraction]:
        if not (0 <= i < self.n_edges):
            raise ValidationError(f"edge index {i} out of range")
        return self.vertices[i], self.vertices[i + 1]

    def edge_length(self, i: int) -> Fraction:
        a, b = self.edge(i)
        return b - a

    def mesh(self) -> Fraction:
        return max(self.edge_length(i) for i in range(self.n_edges))

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def vertex_index(self, x) -> int | None:
        x = Fraction(x)
        i = bisect.bisect_left(self.vertices, x)
        if i < len(self.vertices) and self.vertices[i] == x:
            return i
        return None

    def locate_edge(self, x) -> int:
        """Index of an edge containing x (left edge at interior vertices)."""
        x = Fraction(x)
        if not self.contains(x):
            raise ValidationError(f"{x} lies outside [{self.lo}, {self.hi}]")
        i = bisect.bisect_right(self.vertices, x) - 1
        return min(max(i, 0), self.n_edges - 1)


def barycentric(complex_: IntervalComplex, x) -> dict[int, Fraction]:
    """Barycentric coordinates of x: weights on at most two vertices.

    At a vertex the carrier is the vertex itself, so the single coordinate
    is 1; inside an edge both endpoint coordinates are positive.
    """
    x = Fraction(x)
    vertex = complex_.vertex_index(x)
    if vertex is not None:
        return {vertex: Fraction(1)}
    i = complex_.locate_edge(x)
    a, b = complex_.edge(i)
    length = b - a
    return {i: (b - x) / length, i + 1: (x - a) / length}


def metric_d(complex_: IntervalComplex, x, y) -> Fraction:
    """The barycentric L1 metric: 2|x-y|/|edge| inside a common edge."""
    bx = barycentric(complex_, x)
    by = barycentric(complex_, y)
    keys = set(bx) | set(by)
    return sum((abs(bx.get(i, Fraction(0)) - by.get(i, Fraction(0)))
                for i in keys), start=Fraction(0))


def _normalize_vmap(kstar: IntervalComplex, k: IntervalComplex,
                    vmap) -> tuple[int, ...]:
    if isinstance(vmap, Mapping):
        parsed = {Fraction(parse_rational(key)): parse_rational(value)
                  for key, value in vmap.items()}
        missing = [v for v in kstar.vertices if v not in parsed]
        if missing:
            raise ValidationError(
                f"vertex map missing images for {[str(v) for v in missing]}")
        extra = [key for key in parsed if kstar.vertex_index(key) is None]
        if extra:
            raise ValidationError(
                f"vertex map has unknown vertices {[str(v) for v in extra]}")
        values = [parsed[v] for v in kstar.vertices]
    else:
        values = [parse_rational(v) for v in vmap]
        if len(values) != len(kstar.vertices):
            raise ValidationError("vertex map must cover every fine vertex")
    images = []
    for value in values:
        idx = k.vertex_index(value)
        if idx is None:
            raise ValidationError(f"image {value} is not a coarse vertex")
        images.append(idx)
    return tuple(images)


def _check_subdivision(k: IntervalComplex, kstar: IntervalComplex):
    if (kstar.lo, kstar.hi) != (k.lo, k.hi):
        raise SubdivisionError("fine and coarse complexes span different intervals")
    coarse = set(k.vertices)
    fine = set(kstar.vertices)
    if not coarse <= fine:
        missing = sorted(coarse - fine)
        raise SubdivisionError(
            f"coarse vertices missing from the subdivision: "
            f"{[str(v) for v in missing]}")
    for a, b in zip(k.vertices, k.vertices[1:]):
        # Both complexes end at b or beyond, so a fine vertex follows a.
        if not kstar.vertices[bisect.bisect_right(kstar.vertices, a)] < b:
            raise SubdivisionError(
                f"edge [{a}, {b}] is not split: subdivision is not proper")


@dataclass(frozen=True)
class IntegerChart:
    """A simplicial system in the integer coordinate x = scale * t.

    ``scale`` is the lcm of the vertex denominators, so every fine and coarse
    vertex is an integer.  Fine edge j runs from ``x[j]`` to ``x[j + 1]``
    (``length[j]`` > 0) and g maps it onto the coarse edge from P_j to
    P_{j+1} (signed ``rise[j]`` = P_{j+1} - P_j, negative when g reverses
    orientation there).  Its local inverse is y -> (length[j] y + offset[j])
    / rise[j] with offset[j] = x[j] rise[j] - length[j] P_j.

    A chain of local inverses is kept as an unreduced integer triple
    (n, b, d) meaning y -> (n y + b) / d; composing branch j on the right
    gives (n length[j], n offset[j] + b rise[j], d rise[j]).  A point X / D
    (D > 0) on fine edge j, x[j] D <= X <= x[j + 1] D, steps forward by g to
    (rise[j] X - offset[j] D) / (length[j] D).
    """

    scale: int
    x: tuple[int, ...]
    coarse_x: tuple[int, ...]
    length: tuple[int, ...]
    rise: tuple[int, ...]
    offset: tuple[int, ...]
    j_edge: tuple[int, ...]       # coarse edge containing each fine edge
    image_edge: tuple[int, ...]   # coarse edge each fine edge maps onto
    theta: Fraction

    def coarse_length(self, i: int) -> int:
        return self.coarse_x[i + 1] - self.coarse_x[i]

    def pull_back(self, branches: Sequence[int]) -> tuple[int, int, int]:
        """The chain (n, b, d) of local inverses along branches, first
        outermost."""
        length, rise, offset = self.length, self.rise, self.offset
        n, b, d = 1, 0, 1
        for j in branches:
            n, b, d = n * length[j], n * offset[j] + b * rise[j], d * rise[j]
        return n, b, d


def _integer_chart(k: IntervalComplex, kstar: IntervalComplex,
                   vertex_images: Sequence[int]) -> IntegerChart:
    scale = math.lcm(*(v.denominator for v in k.vertices + kstar.vertices))
    x = tuple(v.numerator * (scale // v.denominator) for v in kstar.vertices)
    coarse_x = tuple(v.numerator * (scale // v.denominator)
                     for v in k.vertices)
    j_edge = tuple(bisect.bisect_right(coarse_x, a) - 1 for a in x[:-1])
    length, rise, offset, image_edge = [], [], [], []
    for j in range(len(x) - 1):
        p0 = coarse_x[vertex_images[j]]
        p1 = coarse_x[vertex_images[j + 1]]
        length.append(x[j + 1] - x[j])
        rise.append(p1 - p0)
        offset.append(x[j] * (p1 - p0) - (x[j + 1] - x[j]) * p0)
        image_edge.append(min(vertex_images[j], vertex_images[j + 1]))

    # theta: least positive coarse barycentric coordinate of a fine vertex
    # interior to a coarse edge.
    coarse_set = set(coarse_x)
    weights = [Fraction(min(coarse_x[i + 1] - w, w - coarse_x[i]),
                        coarse_x[i + 1] - coarse_x[i])
               for w, i in zip(x[1:-1], j_edge[1:]) if w not in coarse_set]
    if not weights:
        raise SubdivisionError("no interior fine vertices; subdivision improper")
    return IntegerChart(scale=scale, x=x, coarse_x=coarse_x,
                        length=tuple(length), rise=tuple(rise),
                        offset=tuple(offset), j_edge=j_edge,
                        image_edge=tuple(image_edge), theta=min(weights))


@dataclass(frozen=True)
class SimplicialSystem1D:
    """Proper subdivision plus a non-degenerate simplicial vertex map."""

    k: IntervalComplex
    kstar: IntervalComplex
    vertex_images: tuple[int, ...]  # coarse vertex index per fine vertex

    @cached_property
    def chart(self) -> IntegerChart:
        """The integer chart, built on first use and kept with the system."""
        return _integer_chart(self.k, self.kstar, self.vertex_images)

    def image_value(self, fine_vertex: int) -> Fraction:
        return self.k.vertices[self.vertex_images[fine_vertex]]

    def j_edge(self, star_edge: int) -> int:
        """Coarse edge containing a fine edge."""
        self.kstar.edge(star_edge)  # range check
        return self.chart.j_edge[star_edge]

    def k_edge_label(self, i: int) -> str:
        return f"I{i + 1}"

    def star_edge_label(self, star_edge: int) -> str:
        base = self.j_edge(star_edge)
        # Fine edges of one coarse edge are consecutive, so the rank is the
        # distance to the first of them.
        rank = star_edge - bisect.bisect_left(self.chart.j_edge, base)
        return f"I{base + 1}.{rank + 1}"


def build_system(k: IntervalComplex, kstar: IntervalComplex,
                 vmap) -> SimplicialSystem1D:
    """Validate subdivision, properness and non-degeneracy, and build.

    The vertex map may be a mapping from fine vertices (rationals or "p/q"
    strings) to coarse vertices, or a sequence aligned with the fine vertex
    list.  Adjacent fine vertices must have distinct, adjacent coarse images;
    use nondegenerate_repair for maps that collapse edges.
    """
    _check_subdivision(k, kstar)
    return _system(k, kstar, _normalize_vmap(kstar, k, vmap))


def _system(k: IntervalComplex, kstar: IntervalComplex,
            images: Sequence[int]) -> SimplicialSystem1D:
    """Build from coarse-vertex indices, checking non-degeneracy only: the
    callers have checked the subdivision."""
    for j, (p0, p1) in enumerate(zip(images, images[1:])):
        if abs(p0 - p1) != 1:
            w0, w1 = kstar.edge(j)
            if p0 == p1:
                raise DegenerateMapError(
                    f"edge [{w0}, {w1}] collapses to vertex {k.vertices[p0]}")
            raise DegenerateMapError(
                f"edge [{w0}, {w1}] maps onto non-adjacent vertices "
                f"{k.vertices[p0]}, {k.vertices[p1]}")
    return SimplicialSystem1D(k, kstar, tuple(images))


def pl_eval(system: SimplicialSystem1D, x) -> Fraction:
    """Exact value of g at a rational point."""
    x = Fraction(x)
    j = system.kstar.locate_edge(x)
    w0, w1 = system.kstar.edge(j)
    p0, p1 = system.image_value(j), system.image_value(j + 1)
    return p0 + (x - w0) * (p1 - p0) / (w1 - w0)


def theta(system: SimplicialSystem1D) -> Fraction:
    """Least positive coarse barycentric coordinate of the fine vertices.

    Only vertices interior to a coarse edge contribute; properness guarantees
    at least one, and the value lies in (0, 1/2].  Computed once, with the
    integer chart.
    """
    return system.chart.theta


@dataclass(frozen=True)
class NormBoundResult:
    bound: float
    max_ratio: float
    samples: int


def column_stochastic_norm_bound(matrix, theta_value,
                                 samples: int = 1000,
                                 seed: int = 2026) -> NormBoundResult:
    """Spot-check the L1 contraction of a column-stochastic matrix.

    On the subspace of coordinate-sum-zero vectors, a non-negative matrix
    with unit column sums in which every column pair shares a row with both
    entries >= theta contracts the L1 norm by (1 - theta/d), d+1 being the
    number of columns.  The bound is exercised on all signed basis
    differences plus ``samples`` random centred vectors.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("matrix must be two-dimensional")
    rows, cols = arr.shape
    if cols < 2:
        raise ValidationError("need at least two columns (d >= 1)")
    if np.any(arr < -1e-12):
        raise ValidationError("matrix entries must be non-negative")
    sums = arr.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValidationError("columns must sum to 1")
    theta_float = float(theta_value)
    if not (0 < theta_float <= 1):
        raise ValidationError("theta must lie in (0, 1]")
    for j1 in range(cols):
        for j2 in range(j1 + 1, cols):
            shared = np.any((arr[:, j1] >= theta_float - 1e-12)
                            & (arr[:, j2] >= theta_float - 1e-12))
            if not shared:
                raise ValidationError(
                    f"columns {j1}, {j2} share no row with entries >= theta")
    d = cols - 1
    bound = 1.0 - theta_float / d

    max_ratio = 0.0
    tested = 0
    for j1 in range(cols):
        for j2 in range(cols):
            if j1 == j2:
                continue
            a = np.zeros(cols)
            a[j1], a[j2] = 1.0, -1.0
            ratio = float(np.abs(arr @ a).sum()) / 2.0
            max_ratio = max(max_ratio, ratio)
            tested += 1
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < samples:
        a = rng.uniform(-1.0, 1.0, cols)
        a -= a.mean()
        norm = float(np.abs(a).sum())
        if norm < 1e-9:
            continue
        ratio = float(np.abs(arr @ a).sum()) / norm
        max_ratio = max(max_ratio, ratio)
        produced += 1
        tested += 1
    if max_ratio > bound + 1e-12:
        raise NumericalError(
            f"L1 ratio {max_ratio:.17g} exceeds the bound {bound:.17g}")
    return NormBoundResult(bound=bound, max_ratio=max_ratio, samples=tested)


def _check_star_word(system: SimplicialSystem1D, word) -> tuple[int, ...]:
    try:
        word = tuple(map(operator.index, word))
    except TypeError:
        raise WordError("fine edge indices must be integers") from None
    if not word:
        raise WordError("empty fine-edge word")
    for j in word:
        if not (0 <= j < system.kstar.n_edges):
            raise WordError(f"fine edge index {j} out of range")
    chart = system.chart
    for j1, j2 in zip(word, word[1:]):
        if chart.j_edge[j2] != chart.image_edge[j1]:
            raise WordError(
                f"({system.star_edge_label(j1)}, {system.star_edge_label(j2)}) "
                "is not an edge of the fine relation")
    return word


def code_H_1d(system: SimplicialSystem1D, word) -> tuple[Fraction, Fraction]:
    """Exact interval of points whose itinerary starts with the given word.

    The word lists fine edges with each consecutive pair compatible (the next
    edge lies in the image of the previous one).  Pulling the last edge back
    through the chain of local inverses gives a rational interval inside the
    word's first edge whose d_K-length is at most 2 (1-theta)^len(word).
    """
    word = _check_star_word(system, word)
    chart = system.chart
    x, rise, offset, length = chart.x, chart.rise, chart.offset, chart.length
    # The interval is [lo / d, hi / d] in chart coordinates, d > 0.
    n, b, d = chart.pull_back(word[:-1])
    lo, hi = n * x[word[-1]] + b, n * x[word[-1] + 1] + b
    if d < 0:
        lo, hi, d = -hi, -lo, -d
    if not x[word[0]] * d <= lo <= hi <= x[word[0] + 1] * d:
        raise NumericalError("coded interval leaves the word's first edge")
    d_length = Fraction(2 * (hi - lo),
                        d * chart.coarse_length(chart.j_edge[word[0]]))
    if d_length > 2 * (1 - chart.theta) ** len(word):
        raise NumericalError("coded interval exceeds the contraction bound")
    # The itinerary really is the word: step g forward exactly (integers, so
    # no orbit collapse) on endpoints and midpoint.
    for point, den in ((lo, d), (lo + hi, 2 * d), (hi, d)):
        for j in word:
            if not x[j] * den <= point <= x[j + 1] * den:
                raise CorrespondenceError(
                    f"itinerary of {Fraction(point, den * chart.scale)} "
                    "leaves the coded word")
            point, den = rise[j] * point - offset[j] * den, length[j] * den
    return Fraction(lo, d * chart.scale), Fraction(hi, d * chart.scale)


@dataclass(frozen=True)
class MeshReport:
    depth: int
    cells: int
    mesh_d: Fraction
    bound: Fraction

    @property
    def tight(self) -> bool:
        return self.mesh_d == self.bound


def refine(system: SimplicialSystem1D,
           depth: int) -> tuple[IntervalComplex, MeshReport]:
    """The depth-th inverse-image subdivision and its d_K mesh.

    Depth 0 (and 1) reproduce the fine complex; depth n tiles the space by
    the coded intervals of all fine words of length n, whose d_K mesh is at
    most 2 (1-theta)^n.  The number of cells is guarded by the cell cap.
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    length = max(depth, 1)
    limit = resolve_cell_cap()
    chart = system.chart
    x, lengths, rise, offset = chart.x, chart.length, chart.rise, chart.offset
    fibers: list[list[int]] = [[] for _ in range(system.k.n_edges)]
    for j, base in enumerate(chart.j_edge):
        fibers[base].append(j)
    successors = [fibers[i] for i in chart.image_edge]

    # A cell is [lo / den, hi / den] in chart coordinates, den > 0; root is
    # the word's first edge.  The chain y -> (n y + b) / d maps a fine edge's
    # successors, in order, left to right when d > 0 and right to left when
    # d < 0, so pushing them reversed or as they are pops the cells in
    # spatial order.
    cells: list[tuple[int, int, int, int]] = []
    stack = [(j, 1, 1, 0, 1, j) for j in reversed(range(len(lengths)))]
    while stack:
        j, at, n, b, d, root = stack.pop()
        if at == length:
            lo, hi = n * x[j] + b, n * x[j + 1] + b
            if d < 0:
                lo, hi, d = -hi, -lo, -d
            cells.append((lo, hi, d, root))
            if len(cells) > limit:
                raise CapExceededError(
                    f"refinement would exceed the cell cap {limit}")
            continue
        n, b, d = n * lengths[j], n * offset[j] + b * rise[j], d * rise[j]
        stack.extend((j2, at + 1, n, b, d, root) for j2 in
                     (reversed(successors[j]) if d > 0 else successors[j]))

    cursor, cursor_den = chart.coarse_x[0], 1
    mesh_num, mesh_den = 0, 1
    for lo, hi, d, root in cells:
        if lo * cursor_den != cursor * d:
            raise NumericalError("decoded cells do not tile the space")
        cursor, cursor_den = hi, d
        num = 2 * (hi - lo)
        den = d * chart.coarse_length(chart.j_edge[root])
        if num * mesh_den > mesh_num * den:
            mesh_num, mesh_den = num, den
    if cursor != chart.coarse_x[-1] * cursor_den:
        raise NumericalError("decoded cells do not reach the end of the space")

    mesh_d = Fraction(mesh_num, mesh_den)
    bound = 2 * (1 - chart.theta) ** depth
    if mesh_d > bound:
        raise NumericalError(f"refined mesh {mesh_d} exceeds its bound {bound}")
    # The cells tile the space, so their left ends and the right end of the
    # space are the vertices.
    vertices = [Fraction(lo, d * chart.scale) for lo, _, d, _ in cells]
    vertices.append(system.k.hi)
    report = MeshReport(depth=depth, cells=len(cells), mesh_d=mesh_d,
                        bound=bound)
    return IntervalComplex(tuple(vertices)), report


def lebesgue_distribution_data(system: SimplicialSystem1D) -> list[Fraction]:
    """nu(t) = |t| / |J(t)|: the Lebesgue weight of each fine edge in its
    coarse edge.  Fiber sums are exactly 1."""
    chart = system.chart
    return [Fraction(ell, chart.coarse_length(base))
            for ell, base in zip(chart.length, chart.j_edge)]


def to_two_alphabet(system: SimplicialSystem1D) -> two_alphabet.TwoAlphabetModel:
    """Present the system on the alphabets of fine and coarse edges."""
    kstar_labels = [system.star_edge_label(j)
                    for j in range(system.kstar.n_edges)]
    k_labels = [system.k_edge_label(i) for i in range(system.k.n_edges)]
    return two_alphabet.build_model(
        kstar=kstar_labels,
        k=k_labels,
        j_map=list(system.chart.j_edge),
        gamma=list(system.chart.image_edge),
        nu=lebesgue_distribution_data(system),
    )


@dataclass(frozen=True)
class RepairReport:
    changed: bool
    reassigned: int
    inserted: int
    sup_change: Fraction
    bound: Fraction


def nondegenerate_repair(k: IntervalComplex, kstar: IntervalComplex,
                         vmap) -> tuple[SimplicialSystem1D, RepairReport]:
    """Break collapsed runs of a vertex map without moving it far.

    The input must be simplicial up to collapses: adjacent fine vertices map
    to equal or adjacent coarse vertices.  Every maximal run of >= 2 vertices
    sharing one image v is rewritten to alternate between v and a fixed
    coarse neighbour of v, starting and ending at v; runs of even length
    first gain the midpoint of their leading edge so the alternation can
    close.  Neighbouring images are adjacent to v, so the result is
    non-degenerate, and no image moves by more than one coarse edge: the map
    changes by at most 4 mesh(K) in the sup metric (at most mesh(K) for this
    construction).
    """
    _check_subdivision(k, kstar)
    return _repair(k, kstar, _normalize_vmap(kstar, k, vmap))


def _repair(k: IntervalComplex, kstar: IntervalComplex,
            images: Sequence[int]) -> tuple[SimplicialSystem1D, RepairReport]:
    """nondegenerate_repair on coarse-vertex indices over a checked
    subdivision."""
    for j, (p0, p1) in enumerate(zip(images, images[1:])):
        if abs(p0 - p1) > 1:
            w0, w1 = kstar.edge(j)
            raise DegenerateMapError(
                f"edge [{w0}, {w1}] maps onto non-adjacent "
                "vertices; cannot repair a torn map")

    new_verts: list[Fraction] = []
    new_images: list[int] = []
    reassigned = inserted = 0
    sup_change = Fraction(0)
    for v, run in itertools.groupby(zip(kstar.vertices, images),
                                    key=lambda pair: pair[1]):
        run_verts = [w for w, _ in run]
        if len(run_verts) % 2 == 0:
            run_verts.insert(1, (run_verts[0] + run_verts[1]) / 2)
            inserted += 1
        u = v - 1 if v >= 1 else v + 1
        reassigned += len(run_verts) // 2
        new_verts.extend(run_verts)
        new_images.extend(u if offset % 2 else v
                          for offset in range(len(run_verts)))
        # Each run vertex moves from v to v or u, and both maps are affine
        # between repaired vertices: the largest vertex move is the sup.
        if len(run_verts) > 1:
            sup_change = max(sup_change, abs(k.vertices[v] - k.vertices[u]))

    system = _system(k, IntervalComplex(tuple(new_verts)), new_images)
    bound = 4 * k.mesh()
    if sup_change > bound:
        raise NumericalError(
            f"repair moves the map by {sup_change}, above the bound {bound}")
    report = RepairReport(changed=(reassigned + inserted) > 0,
                          reassigned=reassigned, inserted=inserted,
                          sup_change=sup_change, bound=bound)
    return system, report


@dataclass(frozen=True)
class RoundoffReport:
    mesh: Fraction
    error_bound: Fraction
    repaired: bool
    repair: RepairReport | None
    parts_per_edge: tuple[int, ...]


def parse_lipschitz(value) -> Fraction:
    """A Lipschitz bound as a Fraction: a finite float (taken exactly), an
    int, a Fraction or a "p/q" string; anything else is a ValidationError."""
    if not isinstance(value, float):
        return parse_rational(value)
    if not math.isfinite(value):
        raise ValidationError(f"Lipschitz bound must be finite, not {value}")
    return Fraction(value)


def roundoff(f: Callable[[float], float], k: IntervalComplex,
             lipschitz) -> tuple[SimplicialSystem1D, RoundoffReport]:
    """Round a Lipschitz self-map of the interval to a simplicial system.

    ``f`` is sampled at rational points (as floats) and ``lipschitz`` bounds
    its variation.  A subdivision fine enough for every cell image to fit a
    derived-star neighbourhood is chosen, each cell is assigned the minimal
    coarse simplex whose neighbourhood contains its image, and cell images
    pick the nearest vertex of that simplex.  The result is within
    2 mesh(K) of f in the sup metric; if the rounded vertex map collapses
    edges it is repaired, adding at most 4 mesh(K).  The subdivision's cell
    count is guarded by the cell cap before any cell is made.
    """
    lip = parse_lipschitz(lipschitz)
    if lip <= 0:
        raise ValidationError("Lipschitz bound must be positive")

    edges = list(zip(k.vertices, k.vertices[1:]))
    mids = [(a + b) / 2 for a, b in edges]
    parts = [1] * k.n_edges
    if len(mids) >= 2:
        # Cells no longer than the Lebesgue number over 2 lip.
        delta = min(m2 - m1 for m1, m2 in zip(mids, mids[1:])) / (2 * lip)
        parts = [max(1, -(-(b - a) // delta)) for a, b in edges]
    limit = resolve_cell_cap()
    if sum(parts) > limit:
        raise CapExceededError(
            f"roundoff subdivision would exceed the cell cap {limit}")
    cells = [k.lo]
    for (a, b), count in zip(edges, parts):
        step = (b - a) / count
        cells.extend(a + piece * step for piece in range(1, count + 1))

    lo_f, hi_f = float(k.lo), float(k.hi)

    def sample(x: Fraction) -> float:
        value = float(f(float(x)))
        if not (lo_f - 1e-9 <= value <= hi_f + 1e-9):
            raise MapRangeError(
                f"f({float(x):.17g}) = {value:.17g} leaves the space")
        return value

    # In the derived subdivision the open star of coarse vertex i runs
    # between the float midpoints of edges i - 1 and i, that of edge i
    # between the midpoints of edges i - 1 and i + 1; both are unbounded
    # past the ends of the space.
    float_mids = [float(m) for m in mids]
    float_vertices = [float(v) for v in k.vertices]

    def nearest_vertex(img_lo: float, img_hi: float, target: float) -> int:
        """The vertex nearest target of the first vertex star, else the first
        edge star, that holds [img_lo, img_hi] clipped to the space.

        With ``below`` midpoints under img_lo and ``upto`` at or under
        img_hi, vertex star i holds it iff upto <= i <= below and edge star
        i iff upto - 1 <= i <= below.
        """
        below = bisect.bisect_left(float_mids, max(img_lo, lo_f))
        upto = bisect.bisect_right(float_mids, min(img_hi, hi_f))
        if upto <= below:
            return upto
        if upto > below + 1:
            raise NumericalError(
                "no simplex neighbourhood contains a cell image; "
                "Lipschitz bound too small?")
        nearer_left = (abs(target - float_vertices[below])
                       <= abs(target - float_vertices[below + 1]))
        return below if nearer_left else below + 1

    # Derived subdivision: cell vertices keep their sample's simplex, cell
    # midpoints get the simplex of the whole cell's image bound.
    fine_vertices: list[Fraction] = []
    images: list[int] = []
    for a, b in zip(cells, cells[1:]):
        value = sample(a)
        fine_vertices.append(a)
        images.append(nearest_vertex(value, value, value))
        mid = (a + b) / 2
        value = sample(mid)
        half_span = float(lip * (b - a) / 2)
        fine_vertices.append(mid)
        images.append(nearest_vertex(value - half_span, value + half_span,
                                     value))
    value = sample(k.hi)
    fine_vertices.append(k.hi)
    images.append(nearest_vertex(value, value, value))

    # Every coarse vertex is a cell vertex and every cell gains its midpoint,
    # so the subdivision is proper by construction.
    fine = IntervalComplex(tuple(fine_vertices))
    repair = None
    if any(p0 == p1 for p0, p1 in zip(images, images[1:])):
        system, repair = _repair(k, fine, images)
    else:
        system = _system(k, fine, images)
    mesh = k.mesh()
    return system, RoundoffReport(
        mesh=mesh, error_bound=2 * mesh + (repair.bound if repair else 0),
        repaired=repair is not None, repair=repair,
        parts_per_edge=tuple(parts))


def class_support(system: SimplicialSystem1D,
                   members: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Merged closed interval components of a set of coarse edges."""
    members = sorted(members)
    components = []
    start = prev = members[0]
    for i in members[1:]:
        if i == prev + 1:
            prev = i
            continue
        components.append((system.k.vertices[start], system.k.vertices[prev + 1]))
        start = prev = i
    components.append((system.k.vertices[start], system.k.vertices[prev + 1]))
    return components


@dataclass(frozen=True)
class PLReport:
    """Tractability summary of a piecewise-linear simplicial system."""

    system: SimplicialSystem1D
    analysis: two_alphabet.Analysis
    theta: Fraction
    background: tuple[float, ...]
    absorption: dict[int, float]

    def to_json_dict(self) -> dict:
        system = self.system
        decomp = self.analysis.correspondence.base_decomposition

        def interval_json(component):
            return [format_rational(component[0]), format_rational(component[1])]

        supports = {c: class_support(system, decomp.classes[c])
                    for c in range(len(decomp.classes))}
        measures = []
        for pair, v_b in zip(self.analysis.terminal_pairs,
                             self.analysis.stationary):
            density = []
            for i in sorted(pair.base_members):
                weight = v_b[i]
                density.append({
                    "interval": interval_json(system.k.edge(i)),
                    "weight": format_rational(weight),
                    "density": format_rational(
                        weight / system.k.edge_length(i)),
                })
            measures.append({
                "class": [system.k_edge_label(i)
                          for i in sorted(pair.base_members)],
                "support": [interval_json(c)
                            for c in supports[pair.base_class_index]],
                "density": density,
                "background_mass": self.absorption[pair.base_class_index],
            })

        shared = []
        for c1 in range(len(decomp.classes)):
            for c2 in range(c1 + 1, len(decomp.classes)):
                points = sorted(
                    {a1 for s1 in supports[c1] for a1 in s1}
                    & {a2 for s2 in supports[c2] for a2 in s2})
                if points:
                    shared.append({
                        "classes": [list(decomp.class_labels(c1)),
                                    list(decomp.class_labels(c2))],
                        "points": [format_rational(p) for p in points],
                        "note": ("supports touch; the map-level basic set "
                                 "containing them may be strictly larger "
                                 "than either coarse class suggests"),
                    })
        visible_not_terminal = []
        terminal_indices = set(decomp.terminal_classes())
        for c in range(len(decomp.classes)):
            if c in terminal_indices:
                continue
            touching = [t for t in sorted(terminal_indices)
                        if any(set(s1) & set(s2)
                               for s1 in supports[c] for s2 in supports[t])]
            if touching:
                visible_not_terminal.append({
                    "class": list(decomp.class_labels(c)),
                    "touches_terminal": [list(decomp.class_labels(t))
                                         for t in touching],
                    "note": ("visible but not terminal: this non-terminal "
                             "class abuts a terminal support, so at the map "
                             "level the touched basic set can be visible "
                             "without being terminal; not resolved at the "
                             "interval level"),
                })

        out = tractability_json(
            decomp, self.analysis.decay,
            "distinct supports meet in at most finitely many points")
        out.update({
            "space": [format_rational(system.k.lo), format_rational(system.k.hi)],
            "theta": format_rational(self.theta),
            "stationary": [
                {system.k_edge_label(i): format_rational(v)
                 for i, v in sorted(v_b.items())}
                for v_b in self.analysis.stationary],
            "measures": measures,
            "background": {system.k_edge_label(i): w
                           for i, w in enumerate(self.background)},
            "caveats": {
                "shared_support_boundaries": shared,
                "visible_but_not_terminal": visible_not_terminal,
            },
            "genericity": None,
        })
        return out


def _exact_absorption(analysis: two_alphabet.Analysis,
                     background: Sequence[Fraction]) -> dict[int, Fraction]:
    """Exact share of the background absorbed by each terminal class.

    With Q the exact coarse cover from nu restricted to the transient
    elements, x = (I - Q)^-1 w_T is the mass that ever passes through each
    of them (Kemeny-Snell); class c absorbs its own background plus the
    mass that steps from a transient element into it.
    """
    model = analysis.model
    decomp = analysis.correspondence.base_decomposition
    transient = decomp.transient
    position = {i: p for p, i in enumerate(transient)}
    matrix = [{p: 1} for p in range(len(transient))]
    for i, j, w in zip(model.j_map, model.gamma, model.nu):
        if i in position and j in position:
            row, q = matrix[position[j]], position[i]
            row[q] = row.get(q, 0) - w
    visits = solve_linear_exact(matrix, [background[i] for i in transient])
    owner = {i: c for c in decomp.terminal_classes() for i in decomp.classes[c]}
    shares = {c: sum((background[i] for i in decomp.classes[c]),
                     start=Fraction(0))
              for c in decomp.terminal_classes()}
    for i, j, w in zip(model.j_map, model.gamma, model.nu):
        if i in position and j in owner:
            shares[owner[j]] += w * visits[position[i]]
    return shares


def tractability_report_pl(system: SimplicialSystem1D,
                           background=None) -> PLReport:
    """Exact tractability report for a simplicial system.

    ``background`` weights the coarse edges (positive, summing to 1; uniform
    by default), each a Fraction, an int, a "p/q" string or a float (other
    numbers are converted to float); the report includes the share of background mass absorbed
    into each terminal class.  The shares come from iterating the float cover
    until transient mass falls below 1e-13; where that takes more than 100000
    steps, they are solved exactly from the fundamental matrix instead and
    reported as floats.  Stationary data is exact and the projected stationarity
    identity is verified with zero tolerance.
    """
    analysis = two_alphabet.analyze(to_two_alphabet(system))
    decomp = analysis.correspondence.base_decomposition

    n = system.k.n_edges
    values = ([Fraction(1, n)] * n if background is None else
              [parse_rational(x) if isinstance(x, (str, int, Fraction))
               else float(x) for x in background])
    if len(values) != n:
        raise ValidationError("background must weight every coarse edge")
    weights = np.array(values, dtype=float)
    if not np.all(weights > 0):
        raise ValidationError("background weights must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValidationError("background weights must sum to 1")

    # Background mass absorbed by each terminal class.
    transient = list(decomp.transient)
    current = weights.copy()
    steps = 0
    while transient and float(current[transient].sum()) > 1e-13:
        if steps == 100000:
            exact = _exact_absorption(analysis, [Fraction(x) for x in values])
            absorption = {c: float(share) for c, share in exact.items()}
            break
        current = analysis.g_cover.matrix @ current
        steps += 1
    else:
        absorption = {c: float(current[list(decomp.classes[c])].sum())
                      for c in decomp.terminal_classes()}

    return PLReport(system=system, analysis=analysis, theta=theta(system),
                    background=tuple(float(w) for w in weights),
                    absorption=absorption)


# The float screen of decoded windows.  Chart coordinates up to
# _SCREEN_MAX_X are exact doubles, as are their sums and differences; past
# it every window is decoded exactly.  _SCREEN_SLACK is the constant c of
# the error bound in _screen_windows.
_SCREEN_MAX_X = 2 ** 50
_SCREEN_SLACK = 8.0


def _screen_windows(system: SimplicialSystem1D, path: Sequence[int],
                    depth: int, segments: int, breakpoints: np.ndarray,
                    labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin every decoded window in float where a proven error bound allows.

    Window i's midpoint is the midpoint of fine edge path[i + depth] pulled
    back through branches path[i + depth - 1], ..., path[i]; branch j is
    y -> x[j] + s[j] (y - P[j]) with s[j] = length[j] / rise[j] and P[j] the
    coarse image of fine vertex j.  All windows advance together, innermost
    branch first.

    Let u = 2^-53 and X the largest |chart coordinate|, at most
    _SCREEN_MAX_X, so coordinates, lengths and rises are exact doubles and
    the first midpoint is exact.  Along a G* path the exact y lies in the
    coarse edge branch j maps onto, so |s[j] (y - P[j])| <= length[j] <= 2X
    and the exact image lies within X of 0.  One step, evaluated as
    x[j] + s' (y - P[j]) with s' = fl(s[j]) and three roundings, then turns
    an error e on y into at most |s'| (1 + 5.1 u) e + 7.1 u X.  The bound
    carried beside y, e <- fl(|s'| (1 + 2^-48)) e + c u X with c = 8, stays
    above that after its own three roundings.  One more c u X covers the
    rounding of y -/+ e and of the float breakpoints, each at most u X.

    A window is settled when [y - e, y + e] lies strictly between two
    consecutive breakpoints and the gap between them lies in the support;
    its bin is that gap's label.  ``labels`` holds one label per gap (a bin,
    or -1 off the support, also before the first and past the last
    breakpoint).  Returns (label, settled) per window.
    """
    chart = system.chart
    steps = np.asarray(path, dtype=np.intp)
    x = np.array(chart.x, dtype=float)
    image = np.array([chart.coarse_x[v] for v in system.vertex_images],
                     dtype=float)
    slope = np.array(chart.length, dtype=float) / np.array(chart.rise,
                                                           dtype=float)
    growth = np.abs(slope) * (1.0 + 2.0 ** -48)
    slack = _SCREEN_SLACK * 2.0 ** -53 * max(abs(chart.coarse_x[0]),
                                             abs(chart.coarse_x[-1]))

    j = steps[depth:depth + segments]
    y = (x[j] + x[j + 1]) * 0.5
    e = np.zeros(segments)
    for k in range(depth - 1, -1, -1):
        j = steps[k:k + segments]
        y = x[j] + slope[j] * (y - image[j])
        e = growth[j] * e + slack
    e += slack
    gap = np.searchsorted(breakpoints, y - e, side="left")
    label = labels[gap]
    settled = (gap == np.searchsorted(breakpoints, y + e, side="right")) \
        & (label >= 0)
    return label, settled


@dataclass(frozen=True)
class BirkhoffResult:
    segments: int
    depth: int
    bins: int
    max_deviation: float
    threshold: float
    passed: bool


def decode_orbit_histogram(report: PLReport, star_class,
                           segments: int, depth: int, bins: int,
                           seed: int) -> BirkhoffResult:
    """Birkhoff consistency of decoded symbolic orbits against the density.

    Samples one Markov path of the fine cover G* (nu on each J-fiber, built
    here from the model) started in the ergodic measure of a terminal fine
    class, decodes every length-``depth`` window to the midpoint of its
    interval (pulling back through local inverses, never iterating g
    forward), and compares the bin histogram of those midpoints on the class
    support against the invariant density, at the statistical threshold
    5/sqrt(segments).  All windows are binned at once in float beside a
    proven error bound (``_screen_windows``); each window whose bound
    straddles a piece end or a bin boundary, and every window when the chart
    exceeds exact doubles, is decoded by its exact integer chain.  So the
    counts equal those of exact decoding.
    """
    if segments < 1 or depth < 1 or bins < 1:
        raise ValidationError("segments, depth and bins must be positive")
    system = report.system
    model = report.analysis.model
    members = tuple(sorted(int(t) for t in star_class))
    matches = [(pair, v_b) for pair, v_b in zip(report.analysis.terminal_pairs,
                                                report.analysis.stationary)
               if tuple(sorted(pair.star_members)) == members]
    if not matches:
        raise NotTerminalError("star_class must be a terminal fine class")
    pair, v_b = matches[0]

    initial = np.zeros(system.kstar.n_edges)
    for t in pair.star_members:
        initial[t] = float(v_b[model.j_map[t]] * model.nu[t])
    # The G* cover: column t1 is nu on the fiber over gamma(t1).
    nu = [float(x) for x in model.nu]
    columns = [[nu[t] for t in model.fiber(s)] for s in range(len(model.k))]
    gstar = report.analysis.correspondence.star_decomposition.relation
    cover = markov.cover_from_columns(gstar, (columns[s] for s in model.gamma))
    spec = markov.MarkovMeasureSpec(cover,
                                    markov.Distribution.from_weights(initial))
    path = markov.sample_path(spec, segments + depth, seed)

    # Support geometry in a concatenated length coordinate, all in chart
    # units: piece p covers [piece_lo[p], piece_hi[p]] and starts at
    # piece_start[p] in the concatenation.
    chart = system.chart
    base_members = sorted(pair.base_members)
    piece_lo = [chart.coarse_x[i] for i in base_members]
    piece_hi = [chart.coarse_x[i + 1] for i in base_members]
    piece_start = []
    total = 0
    for i in base_members:
        piece_start.append(total)
        total += chart.coarse_length(i)

    # Bin q covers [total q / bins, total (q + 1) / bins]; scaled by bins,
    # every bound is an integer.
    bin_mass = [Fraction(0)] * bins
    for q in range(bins):
        for i, start in zip(base_members, piece_start):
            length = chart.coarse_length(i)
            overlap = (min(total * (q + 1), (start + length) * bins)
                       - max(total * q, start * bins))
            if overlap > 0:
                bin_mass[q] += Fraction(overlap, length * bins) * v_b[i]
    if sum(bin_mass) != 1:
        raise NumericalError(f"bin masses sum to {sum(bin_mass)}, not 1")

    def bin_of(mid: int, den: int) -> int | None:
        """Bin of the chart point mid / den (den > 0); None off the support."""
        p = bisect.bisect_right(piece_lo, mid // den) - 1
        if p < 0 or mid > piece_hi[p] * den:
            return None
        coord = mid + (piece_start[p] - piece_lo[p]) * den
        return min(coord * bins // (den * total), bins - 1)

    counts = [0] * bins
    pending = range(segments)
    if max(abs(chart.coarse_x[0]), abs(chart.coarse_x[-1])) <= _SCREEN_MAX_X:
        # bin_of is constant between consecutive breakpoints: the piece ends
        # and the bin boundaries, pulled back from the concatenation.
        breakpoints = set(piece_lo) | set(piece_hi)
        for q in range(1, bins):
            cut = Fraction(total * q, bins)
            breakpoints.update(lo + cut - start for lo, start, hi in
                               zip(piece_lo, piece_start, piece_hi)
                               if start < cut < start + hi - lo)
        breakpoints = sorted(Fraction(v) for v in breakpoints)
        labels = [-1]
        for a, c in zip(breakpoints, breakpoints[1:]):
            gap_mid = (a + c) / 2
            q = bin_of(gap_mid.numerator, gap_mid.denominator)
            labels.append(-1 if q is None else q)
        labels.append(-1)
        label, settled = _screen_windows(
            system, path, depth, segments,
            np.array([float(v) for v in breakpoints]), np.array(labels))
        counts = np.bincount(label[settled], minlength=bins).tolist()
        pending = np.flatnonzero(~settled).tolist()

    # A window the screen leaves open is decoded exactly: the chain of local
    # inverses along path[i:i + depth] at the midpoint of path[i + depth].
    for i in pending:
        n, b, d = chart.pull_back(path[i:i + depth])
        j = path[i + depth]
        mid, den = n * (chart.x[j] + chart.x[j + 1]) + 2 * b, 2 * d
        if den < 0:
            mid, den = -mid, -den
        q = bin_of(mid, den)
        if q is None:
            raise NumericalError(f"decoded point {Fraction(mid, den * chart.scale)}"
                                 " left the class support")
        counts[q] += 1

    max_dev = max(abs(counts[q] / segments - float(bin_mass[q]))
                  for q in range(bins))
    threshold = 5.0 / segments ** 0.5
    return BirkhoffResult(segments=segments, depth=depth, bins=bins,
                          max_deviation=max_dev, threshold=threshold,
                          passed=max_dev <= threshold)


def complex_from_json(data) -> IntervalComplex:
    if not isinstance(data, dict) or set(data) != {"vertices"}:
        raise ValidationError('complex must be {"vertices": [...]}')
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise ValidationError("'vertices' must be a list")
    return IntervalComplex(tuple(parse_rational(v) for v in vertices))


def complex_to_json(complex_: IntervalComplex) -> dict:
    return {"vertices": [format_rational(v) for v in complex_.vertices]}


def system_from_json(data) -> SimplicialSystem1D:
    if not isinstance(data, dict):
        raise ValidationError("system file must be a JSON object")
    required = {"K", "Kstar", "vmap"}
    missing = required - set(data)
    if missing:
        raise ValidationError(f"system file missing fields: {sorted(missing)}")
    unknown = set(data) - required
    if unknown:
        raise ValidationError(f"unknown system fields: {sorted(unknown)}")
    k = complex_from_json(data["K"])
    kstar = complex_from_json(data["Kstar"])
    if not isinstance(data["vmap"], dict):
        raise ValidationError("'vmap' must be an object")
    return build_system(k, kstar, data["vmap"])


def system_to_json(system: SimplicialSystem1D) -> dict:
    return {
        "K": complex_to_json(system.k),
        "Kstar": complex_to_json(system.kstar),
        "vmap": {format_rational(w): format_rational(system.image_value(j))
                 for j, w in enumerate(system.kstar.vertices)},
    }
