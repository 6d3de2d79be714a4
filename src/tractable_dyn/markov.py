"""Stochastic covers of finite relations and their ergodic Markov measures.

A stochastic cover of a relation G on K puts a positive weight on each edge
of G, so that the weights leaving each element sum to 1.  A cover holds one
float64 weight per edge, in the sorted (i, j) order of the relation's edge
list: the weights of the edges leaving i are one contiguous slice, in the
order of ``relation.successors(i)``.  Every pass below reads that vector,
so a cover costs O(E) memory for E edges.  The dense column-stochastic
matrix, ``matrix[j][i]`` = weight of i -> j, is the cover file format that
``validate_cover`` reads, and ``StochasticCover.matrix`` builds it on
demand.  A cover drives a Markov chain whose sample paths are the words of
G, and its structure certifies tractability of the induced subshift:

* every terminal basic set B carries a unique stationary vector v_B, strictly
  positive on B (Frobenius theory on the irreducible block);
* the associated shift-ergodic Markov measure has the cylinder weights
  ``mu⟨s_0 .. s_n⟩ = initial(s_0) * prod weight(s_t -> s_{t+1})``;
* mass on transient elements decays geometrically, witnessed by an explicit
  (n, rho) certificate;
* a path chosen by any positive-initial Markov measure is almost surely
  generic for the measure of the terminal class it enters.

Floating point is used throughout this module (the exact-rational analogues
live with the callers that need them).  Cylinder weights of long words
underflow near 1e-308, which is why genericity is checked with empirical
word frequencies rather than raw products.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CoverError, DomainError, ElementMismatchError,
                     NotStationaryError, NotTerminalError, NumericalError,
                     ValidationError)
from .rationals import as_indices
from .relation import (BasicSetDecomposition, FiniteRelation,
                       _strong_components, _terminal_class_at, basic_sets,
                       check_word, tractability_json)

_MASK64 = (1 << 64) - 1

COLUMN_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
DECOMPOSE_TOL = 1e-9

# Uniforms per numpy pass in sample_path.
_DRAW_BLOCK = 1 << 16


def _unit_float(bits: int) -> float:
    # 53 high bits -> double in [0, 1)
    return (bits >> 11) * (2.0 ** -53)


@dataclass(frozen=True, eq=False)
class StochasticCover:
    """Weights on a relation's edges, one per edge in sorted (i, j) order.

    ``weights[e]`` is the weight of the e-th edge of ``relation.edges``.  The
    cover holds its own read-only float64 copy of them.  The constructor
    checks nothing: ``validate_cover`` does, and every cover the library
    builds goes through it.
    """

    relation: FiniteRelation
    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float, copy=True)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return len(self.relation.elements)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``matrix[j, i]`` = weight of i -> j, built on each read
        as a new read-only array."""
        dense = np.zeros((self.size, self.size))
        dense.T.flat[self.relation._edge_codes] = self.weights  # codes i n + j
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True, eq=False)
class Distribution:
    """Non-negative weights summing to 1 over an indexed element set."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           np.array(self.weights, dtype=float, copy=True))
        self.weights.setflags(write=False)

    @classmethod
    def from_weights(cls, weights) -> "Distribution":
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("distribution weights must be a vector")
        if not np.all(arr >= 0):
            raise ValidationError("distribution weights must be non-negative")
        if abs(float(arr.sum()) - 1.0) > COLUMN_SUM_TOL:
            raise ValidationError(
                f"distribution sums to {arr.sum():.17g}, expected 1")
        return cls(arr)

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Distribution":
        w = np.zeros(size)
        w[index] = 1.0
        return cls.from_weights(w)

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls.from_weights(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class MarkovMeasureSpec:
    """A cover plus an initial distribution: a Markov measure on sample paths."""

    cover: StochasticCover
    initial: Distribution

    def __post_init__(self):
        if len(self.initial.weights) != self.cover.size:
            raise ElementMismatchError(
                "initial distribution length does not match the cover")


@dataclass(frozen=True)
class DecayCertificate:
    """Transient mass bound: (P^(n k))_{transient, s} <= rho^k for all s, k >= 1."""

    n: int
    rho: float


class CoverCells(NamedTuple):
    """The nonzero cells of a dense cover matrix ``matrix[j][i]`` = weight
    of i -> j: the matrix shape, each cell's row-major position
    j * columns + i, and its value."""

    shape: tuple[int, ...]
    flat: np.ndarray
    values: np.ndarray


def validate_cover(relation: FiniteRelation, weights) -> StochasticCover:
    """Check a cover's support and column sums, returning the cover.

    ``weights`` is a vector of one weight per edge, in the sorted (i, j)
    order of ``relation.edges``; or the dense ``matrix[j][i]`` = weight of
    i -> j of a cover file; or that matrix's ``CoverCells``.  A dense matrix
    is reduced to its nonzero cells by ``np.flatnonzero``.  Every weight
    must lie in [0, 1], be positive exactly on the edges, and the weights
    leaving each element must sum to 1 within 1e-12.  A support error names
    the first bad cell in (i, j) scan order.  Input that is not a
    rectangular array of numbers is a CoverError.
    """
    size = len(relation.elements)
    codes = relation._edge_codes
    if not isinstance(weights, CoverCells):
        try:
            arr = np.asarray(weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CoverError(f"matrix is not an array of numbers: {exc}") from None
        except OverflowError:  # an integer past the float range
            raise CoverError("matrix entries must lie in [0, 1]") from None
        if arr.ndim == 1:
            if arr.shape != codes.shape:
                raise CoverError(
                    f"weights shape {arr.shape} does not match {len(codes)} edges")
            return _cover_from_cells(relation, arr)
        flat = np.flatnonzero(arr)
        weights = CoverCells(arr.shape, flat, arr.ravel()[flat])
    if weights.shape != (size, size):
        raise CoverError(
            f"matrix shape {weights.shape} does not match {size} elements")
    targets, sources = np.divmod(weights.flat, size)
    return _cover_from_cells(relation, weights.values, sources * size + targets)


def _cover_from_cells(relation: FiniteRelation, values: np.ndarray,
                      cells: np.ndarray | None = None) -> StochasticCover:
    """The cell check behind ``validate_cover``: ``values[k]`` is the weight
    of the k-th edge or, given ``cells``, of the cell with code ``cells[k]``
    = i size + j, where only nonzero cells are listed."""
    if not ((values >= 0).all() and (values <= 1 + COLUMN_SUM_TOL).all()):
        raise CoverError("matrix entries must lie in [0, 1]")
    size = len(relation.elements)
    codes = relation._edge_codes
    weights, first_off = values, None
    if cells is not None:
        where = np.searchsorted(codes, cells)
        on_edge = where < len(codes)
        on_edge[on_edge] = codes[where[on_edge]] == cells[on_edge]
        weights = np.zeros(len(codes))
        weights[where[on_edge]] = values[on_edge]
        off_edge = np.flatnonzero(~on_edge)
        if len(off_edge):
            first_off = off_edge[cells[off_edge].argmin()]
    zero = codes[weights == 0]
    if first_off is not None and (not len(zero) or cells[first_off] < zero[0]):
        i, j = divmod(int(cells[first_off]), size)
        raise CoverError(
            f"non-edge ({relation.elements[i]}, {relation.elements[j]}) "
            f"has weight {values[first_off]:.17g}")
    if len(zero):
        i, j = divmod(int(zero[0]), size)
        raise CoverError(
            f"edge ({relation.elements[i]}, {relation.elements[j]}) "
            "has zero weight")
    # Each column's weights are added in row order, as a dense column sum.
    sums = np.bincount(codes // size, weights=weights, minlength=size)
    bad = [i for i in range(size) if abs(sums[i] - 1.0) > COLUMN_SUM_TOL]
    if bad:
        raise CoverError(
            "columns do not sum to 1: "
            + ", ".join(f"{relation.elements[i]} -> {sums[i]:.17g}" for i in bad))
    return StochasticCover(relation, weights)


def cover_from_columns(relation: FiniteRelation, columns) -> StochasticCover:
    """The cover with weight ``columns[i][p]`` on the edge i -> successors(i)[p],
    checked by ``validate_cover``."""
    return validate_cover(relation, np.fromiter(
        itertools.chain.from_iterable(columns), dtype=float,
        count=len(relation.edges)))


def uniform_cover(relation: FiniteRelation) -> StochasticCover:
    """Equal weight on each outgoing edge."""
    columns = []
    for i, label in enumerate(relation.elements):
        succ = relation.successors(i)
        if not succ:
            raise DomainError(f"element {label!r} has no outgoing edge")
        columns.append([1.0 / len(succ)] * len(succ))
    return cover_from_columns(relation, columns)


def transient_decay(cover: StochasticCover,
                    decomposition: BasicSetDecomposition) -> DecayCertificate:
    """Geometric decay certificate for the total transient mass.

    n is the smallest number of steps after which every element has some word
    into a terminal class; rho is the worst-case transient mass of P^n.  When
    nothing is transient the certificate is the trivial (1, 0).

    The transient mass is a row vector pushed along the edge list, starting
    from the indicator of the transient elements: one step is
    ``mass[i] = sum of weight(i -> j) * mass[j]`` over the edges i -> j, one
    ``np.bincount`` in the sorted edge order (for each i, the j ascend), so
    the same cover gives the same bits on any machine.  rho is the largest
    entry after n steps, and the bound rho^k is checked for k = 2..5 with
    float slack 1e-9.  That costs O(n E) for E edges, and no n x n array is
    made.
    """
    if decomposition.relation is not cover.relation and \
            decomposition.relation.elements != cover.relation.elements:
        raise ElementMismatchError("decomposition does not match the cover")
    transient = set(decomposition.transient)
    if not transient:
        return DecayCertificate(n=1, rho=0.0)

    # BFS over reversed edges from the terminal block.
    size = cover.size
    dist = [-1 if i in transient else 0 for i in range(size)]
    frontier = [i for i in range(size) if dist[i] == 0]
    while frontier:
        nxt = []
        for j in frontier:
            for i in cover.relation.predecessors(j):
                if dist[i] == -1:
                    dist[i] = dist[j] + 1
                    nxt.append(i)
        frontier = nxt
    unreachable = [cover.relation.elements[i] for i in range(size)
                   if dist[i] == -1]
    if unreachable:
        raise DomainError(
            "no word into a terminal class from: " + ", ".join(unreachable))
    n = max(1, max(dist))

    sources, targets = np.divmod(cover.relation._edge_codes, size)

    def push(mass: np.ndarray) -> np.ndarray:
        # n steps of mass <- mass P: after the k-th call, mass[s] is the
        # transient mass of P^(n k) started at s.
        for _ in range(n):
            mass = np.bincount(sources, weights=mass[targets] * cover.weights,
                               minlength=size)
        return mass

    mass = np.zeros(size)
    mass[list(transient)] = 1.0
    mass = push(mass)
    rho = float(mass.max())

    # The bound propagates exactly in theory; allow only float slack.
    for k in range(2, 6):
        mass = push(mass)
        worst = float(mass.max())
        if worst > rho ** k + 1e-9:
            raise NumericalError(
                f"decay certificate failed at k={k}: {worst} > {rho}^{k}")
    return DecayCertificate(n=n, rho=rho)


def _check_terminal_class(cover: StochasticCover, class_members) -> tuple[int, ...]:
    members = tuple(sorted(set(as_indices(
        class_members, "class members must be integer element indices"))))
    size = cover.size
    if not members:
        raise NotTerminalError("empty class")
    for i in members:
        if not (0 <= i < size):
            raise NotTerminalError(f"element index {i} out of range")
    relation = cover.relation
    local = {i: p for p, i in enumerate(members)}
    for i in members:
        for j in relation.successors(i):
            if j not in local:
                raise NotTerminalError(
                    f"edge leaves the class: ({relation.elements[i]}, "
                    f"{relation.elements[j]})")
    succ = [[local[j] for j in relation.successors(i)] for i in members]
    if len(_strong_components(succ)) != 1:
        raise NotTerminalError("class is not strongly connected")
    return members


def stationary_distribution(cover: StochasticCover,
                            terminal_class) -> Distribution:
    """Unique stationary distribution supported on a terminal class.

    Solves the balance equations directly.  If the solve fails or its answer
    is not strictly positive with residual <= 1e-12, the fallback averages
    the powers of the block applied to the uniform start u.  After T steps
    that Cesaro average has residual ||P^T u - u|| / T, so with T <= 200000
    the fallback succeeds only when u is within about 2e-7 of stationary;
    otherwise it runs 400000 block matvecs and raises NumericalError.  The
    result is deterministic and satisfies ``||P v - v||_inf <= 1e-12``.
    """
    members = _check_terminal_class(cover, terminal_class)
    idx = np.array(members)
    c = len(members)
    # The class is closed, so its edges are those with a source inside.
    sources, targets = np.divmod(cover.relation._edge_codes, cover.size)
    inside = np.isin(sources, idx)
    block = np.zeros((c, c))
    block[idx.searchsorted(targets[inside]),
          idx.searchsorted(sources[inside])] = cover.weights[inside]

    v_block = None
    try:
        system = block - np.eye(c)
        system[-1, :] = 1.0
        rhs = np.zeros(c)
        rhs[-1] = 1.0
        candidate = np.linalg.solve(system, rhs)
        if np.all(candidate > 0) and \
                float(np.abs(block @ candidate - candidate).max()) <= STATIONARY_TOL:
            v_block = candidate
    except np.linalg.LinAlgError:
        pass

    if v_block is None:
        # Cesaro averages of the powers applied to the uniform vector.
        current = np.full(c, 1.0 / c)
        total = np.zeros(c)
        average = current
        for step in range(1, 200001):
            total += current
            current = block @ current
            average = total / step
            if float(np.abs(block @ average - average).max()) <= STATIONARY_TOL:
                break
        v_block = average / average.sum()
        if float(np.abs(block @ v_block - v_block).max()) > STATIONARY_TOL:
            raise NumericalError(
                "stationary distribution did not reach residual 1e-12")

    full = np.zeros(cover.size)
    full[idx] = v_block
    return Distribution.from_weights(full)


def decompose_stationary(cover: StochasticCover,
                         stationary,
                         decomposition: BasicSetDecomposition | None = None
                         ) -> dict[int, float]:
    """Express a stationary vector as a mixture of the terminal-class ones.

    Returns ``{class_index: weight}`` over the terminal classes of the
    decomposition.  Verifies that the input is stationary, puts (numerically)
    no mass on transient elements, and is reproduced by the mixture within
    1e-9.
    """
    v = stationary.weights if isinstance(stationary, Distribution) \
        else np.asarray(stationary, dtype=float)
    if len(v) != cover.size:
        raise ElementMismatchError("vector length does not match the cover")
    sources, targets = np.divmod(cover.relation._edge_codes, cover.size)
    moved = np.bincount(targets, cover.weights * v[sources], cover.size)
    residual = float(np.abs(moved - v).max())
    if residual > DECOMPOSE_TOL:
        raise NotStationaryError(
            f"stationarity residual {residual:.3e} exceeds 1e-9")
    if decomposition is None:
        decomposition = basic_sets(cover.relation)

    transient_mass = float(v[list(decomposition.transient)].sum()) \
        if decomposition.transient else 0.0
    if transient_mass > DECOMPOSE_TOL:
        raise NotStationaryError(
            f"transient elements carry mass {transient_mass:.3e}")

    weights: dict[int, float] = {}
    reconstruction = np.zeros(cover.size)
    for c in decomposition.terminal_classes():
        members = decomposition.classes[c]
        mass = float(v[list(members)].sum())
        weights[c] = mass
        if mass > 0:
            v_b = stationary_distribution(cover, members)
            reconstruction += mass * v_b.weights
    mismatch = float(np.abs(reconstruction - v).max())
    if mismatch > DECOMPOSE_TOL:
        raise NumericalError(
            f"mixture reconstruction off by {mismatch:.3e} (> 1e-9)")
    return weights


def cylinder_measure(spec: MarkovMeasureSpec, word) -> float:
    """Measure of the cylinder of a finite word; 0 for non-words."""
    word = tuple(word)
    if not word:
        raise ValidationError("empty word has no cylinder")
    size = spec.cover.size
    for s in word:
        if not (0 <= s < size):
            raise ValidationError(f"symbol {s} out of range")
    codes = spec.cover.relation._edge_codes
    value = float(spec.initial.weights[word[0]])
    for a, b in zip(word, word[1:]):
        if not spec.cover.relation.has_edge(a, b):
            return 0.0
        value *= float(spec.cover.weights[codes.searchsorted(a * size + b)])
    return value


def ergodic_measure_spec(cover: StochasticCover,
                         decomposition: BasicSetDecomposition,
                         terminal_class) -> MarkovMeasureSpec:
    """The shift-ergodic Markov measure attached to one terminal class."""
    members = tuple(sorted(set(as_indices(
        terminal_class, "class members must be integer element indices"))))
    matching = [c for c in decomposition.terminal_classes()
                if decomposition.classes[c] == members]
    if not matching:
        raise NotTerminalError(
            f"{members} is not a terminal class of the decomposition")
    return MarkovMeasureSpec(cover, stationary_distribution(cover, members))


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 draws start, ..., start + count - 1 from ``seed`` as unit
    floats.

    splitmix64 is counter-based: draw i (from 0) mixes seed + (i + 1) gamma
    mod 2^64, so a run of draws is one pass of wrapping ``uint64``
    arithmetic, bit-identical to stepping the generator's state one draw at
    a time.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return _unit_float(z)


def sample_path(spec: MarkovMeasureSpec, length: int, seed: int) -> list[int]:
    """Deterministic Markov path via splitmix64 and inverse-CDF sampling.

    Identical (spec, length, seed) always yields the identical path.  The
    uniforms come from ``_uniforms``, one numpy pass per ``_DRAW_BLOCK``
    draws, so memory beyond the path stays bounded.  Each step takes the
    first successor of its element, in element order, whose running sum of
    edge weights exceeds the draw: a bisection over the prefix sums of the
    element's weight slice, summed left to right (``itertools.accumulate``)
    once per visited element.
    When rounding leaves the draw above every sum, the last successor is
    taken.  So the result is bit-reproducible across platforms, and a step
    costs a bisection, not its element's out-degree.
    """
    if length < 1:
        raise ValidationError("path length must be >= 1")
    relation, weights = spec.cover.relation, spec.cover.weights
    size = spec.cover.size
    columns: list[tuple[list[int], list[float]] | None] = [None] * size

    def cdf(index, column) -> tuple[list[int], list[float]]:
        # The index list repeats its last entry for draws past every sum.
        if not index:
            raise NumericalError("cannot sample from an all-zero column")
        return index + index[-1:], list(itertools.accumulate(column))

    bisect_right = bisect.bisect_right
    draws = itertools.chain.from_iterable(
        _uniforms(seed, start, min(_DRAW_BLOCK, length - start)).tolist()
        for start in range(0, length, _DRAW_BLOCK))
    positive = np.flatnonzero(spec.initial.weights > 0).tolist()
    index, sums = cdf(positive, spec.initial.weights[positive].tolist())
    current = index[bisect_right(sums, next(draws))]
    path = [current]
    append = path.append
    for u in draws:
        column = columns[current]
        if column is None:
            targets = relation.successors(current)
            start = relation._edge_codes.searchsorted(current * size)
            column = columns[current] = cdf(
                list(targets), weights[start:start + len(targets)].tolist())
        index, sums = column
        current = index[bisect_right(sums, u)]
        append(current)
    return path


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the statistical cylinder-frequency test on one path."""

    path_length: int
    word_length_cap: int
    terminal_class: int | None
    max_deviation: float
    threshold: float
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "T": self.path_length,
            "L": self.word_length_cap,
            "terminal_class": self.terminal_class,
            "max_dev": self.max_deviation,
            "threshold": self.threshold,
            "pass": self.passed,
            "note": self.note,
        }


def genericity_check(cover: StochasticCover,
                     decomposition: BasicSetDecomposition,
                     path,
                     word_length_cap: int) -> GenericityReport:
    """Statistical certificate that a path is generic for its endset measure.

    Empirical frequencies of every word of length <= word_length_cap are
    compared against the ergodic cylinder weights of the terminal class the
    path has entered; the test passes when the worst deviation stays below
    5 / sqrt(T).  A path that never entered a terminal class is reported as
    failed rather than raised.
    """
    path = check_word(cover.relation, path)
    t = len(path)
    size = cover.size
    if word_length_cap < 1:
        raise ValidationError("word length cap must be >= 1")
    needed = 10 * size ** word_length_cap
    if t < needed:
        raise ValidationError(
            f"path length {t} below required {needed} for L={word_length_cap}")
    threshold = 5.0 / (t ** 0.5)

    # endset_certificate without checking the path a second time.
    terminal = _terminal_class_at(decomposition, path[-1])
    if terminal is None:
        return GenericityReport(t, word_length_cap, None, float("inf"),
                                threshold, False,
                                "path never entered a terminal class")
    spec = ergodic_measure_spec(cover, decomposition,
                                decomposition.classes[terminal])

    # Window s_0 .. s_(L-1) gets the code sum s_i size^(L-1-i): codes follow
    # the lexicographic order of itertools.product, and size^L <= t / 10
    # keeps them inside int64.
    symbols = np.asarray(path, dtype=np.int64)
    codes = np.zeros(t, dtype=np.int64)
    max_dev = 0.0
    for length in range(1, word_length_cap + 1):
        windows = t - length + 1
        codes = codes[:windows] * size + symbols[length - 1:]
        counts = np.bincount(codes, minlength=size ** length).tolist()
        words = itertools.product(range(size), repeat=length)
        for word, count in zip(words, counts):
            expected = cylinder_measure(spec, word)
            observed = count / windows
            max_dev = max(max_dev, abs(observed - expected))

    return GenericityReport(t, word_length_cap, terminal, max_dev, threshold,
                            max_dev <= threshold)


@dataclass(frozen=True)
class SubshiftReport:
    """Tractability summary of the subshift induced by a stochastic cover."""

    cover: StochasticCover
    decomposition: BasicSetDecomposition
    stationary: tuple[Distribution, ...]  # one per terminal class, in order
    decay: DecayCertificate
    genericity: GenericityReport | None = None

    def to_json_dict(self) -> dict:
        rel = self.cover.relation
        decomp = self.decomposition
        stationary = []
        for pos, c in enumerate(decomp.terminal_classes()):
            weights = {rel.elements[i]: float(self.stationary[pos].weights[i])
                       for i in decomp.classes[c]}
            stationary.append({
                "class": list(decomp.class_labels(c)),
                "weights": weights,
            })
        out = tractability_json(decomp, self.decay,
                                "supports are pairwise disjoint")
        out.update({
            "elements": list(rel.elements),
            "stationary": stationary,
            "genericity": (self.genericity.to_json_dict()
                           if self.genericity else None),
        })
        return out


def tractability_report_subshift(cover: StochasticCover,
                                 initial: Distribution) -> SubshiftReport:
    """Full tractability report for the subshift of a cover.

    The initial distribution plays the role of the background measure and
    must be strictly positive, so that every basic set is charged.
    """
    if len(initial.weights) != cover.size:
        raise ElementMismatchError("initial distribution does not match cover")
    if np.any(initial.weights <= 0):
        raise ValidationError("background initial distribution must be positive")
    decomposition = basic_sets(cover.relation)
    stationary = tuple(stationary_distribution(cover, decomposition.classes[c])
                       for c in decomposition.terminal_classes())
    decay = transient_decay(cover, decomposition)
    return SubshiftReport(cover, decomposition, stationary, decay)
