"""Brute-force reference computations kept independent of the library.

The closure helpers work on plain index edge sets with O(n^3) passes, so
results are easy to audit and slow on purpose.  The sampling, decoding,
refinement and word-coding references below are the straightforward
versions of the library's integer-chart loops: a dense scan of every column
entry, and exact ``Fraction`` affine maps (``AffineMap``, ``local_inverse``,
``star_edge_image``) composed and inverted step by step.  These three are
the ``Fraction`` referee for the integer chart and live only here.
``dense_transient_decay`` is the decay certificate from dense matrix
powers, where the library pushes one mass vector along the edge list, and
``exact_transient_mass`` is that mass over ``Fraction``.  The
block-code image uses a fresh power per symbol, and ``splitmix64`` steps
the generator's state one draw at a time.  The uniform cover and the
decoder's float G* cover are filled cell by cell in loops over the
successors, where the library writes every weight in one assignment
through the sorted edge codes.  The cover-support scan,
the G and G* definitions, the fiber sums, the dense balance check and the
stationarity identity are the cell-by-cell loops that the library replaced
with a boolean mask and with passes over the J-fibers.  The exact solver is dense
Gauss-Jordan elimination over ``Fraction``, which the library replaced with
certified solves modulo primes.  The genericity check counts windows as
tuple slices in a dict, and the cylinder table multiplies one ``Fraction``
per word, where the library counts codes with ``np.bincount`` and keeps
integers over one common denominator.  ``code_H_1d`` checks a coded
itinerary by iterating g in ``Fraction`` through ``pl_eval_vmap``, a
bisection over the fine vertices, where the library steps g forward in
chart integers.  ``FrozensetRelation`` is the
relation stored as a frozenset of edge tuples and re-sorted into successor
tables, with its Tarjan pass and decomposition, its restriction,
composition and inverse, and the G and G* that the two-alphabet model built
as edge sets; the library now keeps sorted successor tuples and takes G*
from the J-fibers.  ``shiftlike_two_alphabet`` builds the shift-like model
from one ``Word`` per fine word.  ``nondegenerate_repair`` walks the runs
of a vertex map with a while-loop, and ``roundoff`` finds each cell's
simplex by scanning every vertex star and then every edge star
(``neighbourhood_bounds``); both turn coarse-vertex indices back into
vertex values for ``build_system``, where the library bisects the float
midpoints and builds from the indices.  The repair measures its sup change
by evaluating both vertex maps with ``pl_eval_vmap`` at every repaired
vertex, where the library compares the vertex images of each run.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

import tractable_dyn as td
from tractable_dyn import markov


def reachability(n, edges):
    """Boolean closure: reach[i][j] iff a path of length >= 1 goes i -> j."""
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for m in range(n):
        row_m = reach[m]
        for i in range(n):
            if reach[i][m]:
                row_i = reach[i]
                for j in range(n):
                    if row_m[j]:
                        row_i[j] = True
    return reach


def prune_starved(n, edges):
    """Delete zero-outdegree vertices until stable; returns surviving indices."""
    alive = set(range(n))
    live_edges = set(edges)
    while True:
        sources = {i for i, _ in live_edges}
        dead = {i for i in alive if i not in sources}
        if not dead:
            return sorted(alive), sorted(live_edges)
        alive -= dead
        live_edges = {(i, j) for i, j in live_edges
                      if i in alive and j in alive}


def closure_decomposition(n, edges):
    """Cyclic SCCs, terminal flags, transient set, and reachability order.

    Returns (classes, flags, transient, order) with classes sorted by their
    smallest member, matching the library's presentation.
    """
    reach = reachability(n, edges)
    assigned = set()
    classes = []
    for i in range(n):
        if i in assigned or not reach[i][i]:
            continue
        cls = tuple(sorted(
            j for j in range(n)
            if reach[i][j] and reach[j][i] and reach[j][j]))
        classes.append(cls)
        assigned.update(cls)
    classes.sort(key=min)

    flags = []
    for cls in classes:
        members = set(cls)
        flags.append(all(j in members for i, j in edges if i in members))

    terminal_members = set()
    for cls, flag in zip(classes, flags):
        if flag:
            terminal_members.update(cls)
    transient = tuple(i for i in range(n) if i not in terminal_members)

    order = set()
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a != b and any(reach[i][j] for i in ca for j in cb):
                order.add((a, b))
    return tuple(classes), tuple(flags), transient, frozenset(order)


def check_cover_support(relation, matrix):
    """Scan every cell in (i, j) order; raise CoverError at the first mismatch.

    Cell (i, j) is ``matrix[j][i]``: it must be positive on an edge and zero
    off one.  The messages are the library's.
    """
    size = len(relation.elements)
    for i in range(size):
        for j in range(size):
            has_edge = (i, j) in relation.edges
            if has_edge and matrix[j][i] <= 0:
                raise td.CoverError(
                    f"edge ({relation.elements[i]}, {relation.elements[j]}) "
                    "has zero weight")
            if not has_edge and matrix[j][i] != 0:
                raise td.CoverError(
                    f"non-edge ({relation.elements[i]}, {relation.elements[j]}) "
                    f"has weight {matrix[j][i]:.17g}")


def uniform_cover_matrix(relation):
    """Equal weight on each outgoing edge, one cell at a time."""
    size = len(relation.elements)
    matrix = np.zeros((size, size))
    for i in range(size):
        succ = relation.successors(i)
        for j in succ:
            matrix[j, i] = 1.0 / len(succ)
    return matrix


def dense_transient_decay(cover, decomposition):
    """The decay certificate from dense powers: the BFS depth n, then rho
    as the largest column sum over the transient rows of
    ``matrix_power(P, n)``, checked against rho^k for k = 1..5 by the
    indicator row times P^n, k times."""
    transient = set(decomposition.transient)
    if not transient:
        return markov.DecayCertificate(n=1, rho=0.0)
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
    assert -1 not in dist
    n = max(1, max(dist))
    power = np.linalg.matrix_power(cover.matrix, n)
    rows = sorted(transient)
    rho = float(power[rows, :].sum(axis=0).max())
    mass = np.zeros(size)
    mass[rows] = 1.0
    for k in range(1, 6):
        mass = mass @ power
        assert float(mass.max()) <= rho ** k + 1e-9
    return markov.DecayCertificate(n=n, rho=rho)


def exact_transient_mass(cover, transient, steps):
    """The transient mass of P^steps started at each element, over Fraction:
    the float weights taken exactly, one edge at a time."""
    relation = cover.relation
    weights = [[Fraction(float(cover.matrix[j, i]))
                for j in relation.successors(i)]
               for i in range(cover.size)]
    mass = [Fraction(int(i in transient)) for i in range(cover.size)]
    for _ in range(steps):
        mass = [sum((w * mass[j] for j, w in
                     zip(relation.successors(i), weights[i])), Fraction(0))
                for i in range(cover.size)]
    return mass


def check_transient_decay(cover):
    """Assert that the library's decay certificate of a cover has the
    oracle's n, a rho within 1e-12 rho of the dense one, and a rho within
    2 n (d_max + 1) 2^-53 of the exact transient mass, relatively; return
    the certificate."""
    decomposition = td.basic_sets(cover.relation)
    cert = td.transient_decay(cover, decomposition)
    dense = dense_transient_decay(cover, decomposition)
    assert cert.n == dense.n
    assert abs(cert.rho - dense.rho) <= 1e-12 * cert.rho
    if decomposition.transient:
        exact = max(exact_transient_mass(cover, set(decomposition.transient),
                                         cert.n))
        d_max = max(len(cover.relation.successors(i))
                    for i in range(cover.size))
        bound = 2 * cert.n * (d_max + 1) * Fraction(1, 2 ** 53) * exact
        assert abs(Fraction(cert.rho) - exact) <= bound
    return cert


def decoder_gstar_matrix(model):
    """The float G* cover of the decoder by a double loop over the fibers:
    column t1 is float(nu) on the fiber over gamma(t1)."""
    nu = [float(x) for x in model.nu]
    matrix = np.zeros((len(nu), len(nu)))
    for t1, s in enumerate(model.gamma):
        for t2 in model.fiber(s):
            matrix[t2, t1] = nu[t2]
    return matrix


def gstar_cover(model):
    """G* edges and its weights by the |K*|^2 definition: t1 -> t2 when t2
    lies over gamma(t1), with weight nu(t2)."""
    ns = len(model.kstar)
    edges = {(t1, t2) for t1 in range(ns) for t2 in range(ns)
             if model.j_map[t2] == model.gamma[t1]}
    matrix = [[model.nu[t2] if (t1, t2) in edges else 0 for t1 in range(ns)]
              for t2 in range(ns)]
    return frozenset(edges), matrix


def gstar_float_cover(model):
    """The float G* cover, validated against the edges of ``gstar_cover``."""
    edges, matrix = gstar_cover(model)
    return td.validate_cover(td.FiniteRelation(model.kstar, edges),
                             [[float(x) for x in row] for row in matrix])


def g_matrix(model, weight=Fraction):
    """G matrix by the |K|^2 x |K*| scan: entry (s2, s1) adds weight(nu(t)),
    in K* order, over the fine symbols t over s1 that map onto s2.  The
    default is exact; ``weight=float`` rounds as the float cover does."""
    ns, nk = len(model.kstar), len(model.k)
    matrix = [[weight(0)] * nk for _ in range(nk)]
    for s2 in range(nk):
        for s1 in range(nk):
            for t in range(ns):
                if model.j_map[t] == s1 and model.gamma[t] == s2:
                    matrix[s2][s1] += weight(model.nu[t])
    return matrix


def fiber_sums(n_base, j_map, nu):
    """Total nu over each J-fiber, by the |K| x |K*| scan."""
    totals = []
    for i in range(n_base):
        fiber = [t for t in range(len(j_map)) if j_map[t] == i]
        totals.append(sum(nu[t] for t in fiber))
    return totals


def dense_balance_failures(matrix, vector):
    """Rows where the dense exact product matrix @ vector differs from vector.

    With the G* matrix of ``gstar_cover`` and a lifted vector, this is the
    |K*|^2 lifted-stationarity check.
    """
    n = len(vector)
    return [row for row in range(n)
            if sum(matrix[row][col] * vector[col] for col in range(n))
            != vector[row]]


def solve_linear_exact(matrix, rhs):
    """Dense Gauss-Jordan elimination over Fraction, pivot by pivot."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise td.NumericalError("singular rational system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def stationary_exact(block):
    """Stationary vector by the c-1 balance rows plus normalization."""
    c = len(block)
    rows = [[block[r][i] - (1 if r == i else 0) for i in range(c)]
            for r in range(c - 1)]
    rows.append([Fraction(1)] * c)
    return solve_linear_exact(rows, [Fraction(0)] * (c - 1) + [Fraction(1)])


def stationary_identity_max_error(model, pair, v_b):
    """The projected stationarity identity, by a |K| x |class| scan."""
    star_members = set(pair.star_members)
    worst = Fraction(0)
    for s in range(len(model.k)):
        total = sum((Fraction(v_b.get(model.j_map[t], 0)) * model.nu[t]
                     for t in star_members if model.gamma[t] == s),
                    start=Fraction(0))
        expected = Fraction(v_b.get(s, 0))
        worst = max(worst, abs(total - expected))
    return worst


def cylinder_csv(analysis, max_length):
    """``blockmap-approx --format csv --words max_length`` output, by a
    depth-first walk that multiplies one Fraction per word (no cell cap)."""
    model = analysis.model
    successors = analysis.correspondence.star_decomposition.relation.successors
    lines = ["class,word,measure"]
    for pair, v_b in zip(analysis.terminal_pairs, analysis.stationary):
        stack = [((t,), Fraction(v_b[model.j_map[t]]) * model.nu[t])
                 for t in sorted(pair.star_members, reverse=True)]
        while stack:
            word, weight = stack.pop()
            row = [pair.base_class_index,
                   ".".join(model.kstar[t] for t in word),
                   td.rationals.format_rational(weight)]
            lines.append(",".join(str(cell) for cell in row))
            if len(word) == max_length:
                continue
            for t2 in reversed(successors(word[-1])):
                stack.append((word + (t2,), weight * model.nu[t2]))
    return "\n".join(lines) + "\n"


def genericity_check(cover, decomposition, path, word_length_cap):
    """``markov.genericity_check`` counting each window as a tuple slice in
    a dict, words enumerated by repeated extension."""
    path = td.relation.check_word(cover.relation, path)
    t = len(path)
    size = cover.size
    threshold = 5.0 / (t ** 0.5)
    terminal = td.endset_certificate(cover.relation, decomposition, path)
    if terminal is None:
        return td.GenericityReport(t, word_length_cap, None, float("inf"),
                                   threshold, False,
                                   "path never entered a terminal class")
    spec = td.ergodic_measure_spec(cover, decomposition,
                                   decomposition.classes[terminal])
    max_dev = 0.0
    for length in range(1, word_length_cap + 1):
        windows = t - length + 1
        counts = {}
        for start in range(windows):
            key = path[start:start + length]
            counts[key] = counts.get(key, 0) + 1
        words = [(s,) for s in range(size)]
        for _ in range(length - 1):
            words = [w + (s,) for w in words for s in range(size)]
        for word in words:
            expected = td.cylinder_measure(spec, word)
            observed = counts.get(word, 0) / windows
            max_dev = max(max_dev, abs(observed - expected))
    return td.GenericityReport(t, word_length_cap, terminal, max_dev,
                               threshold, max_dev <= threshold)


def block_code_image(code, word):
    """``SlidingBlockCode.apply`` with the place value N**pos per symbol."""
    base = code.n_symbols
    window_mod = base ** code.window
    out = 0
    rest = word.value
    for pos in range(word.length - code.window + 1):
        out += code.phi[rest % window_mod] * base ** pos
        rest //= base
    return td.Word(base, word.length - code.window + 1, out)


def splitmix64(state):
    """One step of the splitmix64 generator: (state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & markov._MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & markov._MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & markov._MASK64
    z = z ^ (z >> 31)
    return state, z


def sample_path(spec, length, seed):
    """Inverse-CDF Markov path scanning every entry of each column."""
    state = seed & markov._MASK64
    matrix = spec.cover.matrix
    size = spec.cover.size

    def draw(weights, state):
        state, bits = splitmix64(state)
        u = markov._unit_float(bits)
        acc = 0.0
        last_positive = None
        for j in range(size):
            w = float(weights[j])
            if w > 0:
                last_positive = j
                acc += w
                if u < acc:
                    return j, state
        if last_positive is None:
            raise td.NumericalError("cannot sample from an all-zero column")
        return last_positive, state

    current, state = draw(spec.initial.weights, state)
    path = [current]
    for _ in range(length - 1):
        current, state = draw(matrix[:, current], state)
        path.append(current)
    return path


@dataclass(frozen=True)
class AffineMap:
    """Exact rational affine map t -> scale * t + offset."""

    scale: Fraction
    offset: Fraction

    @classmethod
    def identity(cls):
        return cls(Fraction(1), Fraction(0))

    def __call__(self, x):
        return self.scale * x + self.offset

    def compose(self, inner):
        """self after inner."""
        return AffineMap(self.scale * inner.scale,
                         self.scale * inner.offset + self.offset)

    def inverse(self):
        return AffineMap(1 / self.scale, -self.offset / self.scale)

    def interval_image(self, lo, hi):
        a, b = self(lo), self(hi)
        return (a, b) if a <= b else (b, a)


def star_edge_image(system, star_edge):
    """Coarse edge that a fine edge of the system maps onto."""
    return min(system.vertex_images[star_edge],
               system.vertex_images[star_edge + 1])


def local_inverse(system, star_edge):
    """Affine inverse of g from the image coarse edge onto the fine edge."""
    w0, w1 = system.kstar.edge(star_edge)
    p0 = system.image_value(star_edge)
    p1 = system.image_value(star_edge + 1)
    scale = (w1 - w0) / (p1 - p0)
    return AffineMap(scale, w0 - scale * p0)


def pl_eval_vmap(k, kstar, images, x):
    """The piecewise-linear extension of a vertex map given as coarse-vertex
    indices (it may collapse edges), by bisection over the fine vertices."""
    x = Fraction(x)
    j = kstar.locate_edge(x)
    w0, w1 = kstar.edge(j)
    p0 = k.vertices[images[j]]
    p1 = k.vertices[images[j + 1]]
    return p0 + (x - w0) * (p1 - p0) / (w1 - w0)


def code_H_1d(system, word):
    """code_H_1d with its itinerary check iterating g in Fractions through
    ``pl_eval_vmap``."""
    word = td.simplicial1d._check_star_word(system, word)
    chart = system.chart
    n, b, d = 1, 0, 1
    for j in word[:-1]:
        n, b, d = (n * chart.length[j], n * chart.offset[j] + b * chart.rise[j],
                   d * chart.rise[j])
    lo, hi = sorted(Fraction(n * chart.x[v] + b, d * chart.scale)
                    for v in (word[-1], word[-1] + 1))
    first_lo, first_hi = system.kstar.edge(word[0])
    if not first_lo <= lo <= hi <= first_hi:
        raise td.NumericalError("coded interval leaves the word's first edge")
    base = chart.j_edge[word[0]]
    d_length = 2 * (hi - lo) / system.k.edge_length(base)
    if d_length > 2 * (1 - chart.theta) ** len(word):
        raise td.NumericalError("coded interval exceeds the contraction bound")
    for x in (lo, (lo + hi) / 2, hi):
        for j in word:
            a, b = system.kstar.edge(j)
            if not a <= x <= b:
                raise td.CorrespondenceError(
                    f"itinerary of {x} leaves the coded word")
            x = pl_eval_vmap(system.k, system.kstar, system.vertex_images, x)
    return lo, hi


def code_interval(system, word):
    """Interval of a fine-edge word: the last edge pulled back in Fractions."""
    lo, hi = system.kstar.edge(word[-1])
    for j in reversed(word[:-1]):
        lo, hi = local_inverse(system, j).interval_image(lo, hi)
    return lo, hi


def refine(system, depth):
    """Depth-th inverse-image subdivision and its d_K mesh, in Fractions."""
    n_star = system.kstar.n_edges
    length = max(depth, 1)
    successors = [[j2 for j2 in range(n_star)
                   if system.j_edge(j2) == star_edge_image(system, j)]
                  for j in range(n_star)]
    intervals = []
    stack = [(j, 1, AffineMap.identity(), j)
             for j in reversed(range(n_star))]
    while stack:
        j, at, chain, root = stack.pop()
        if at == length:
            lo, hi = chain.interval_image(*system.kstar.edge(j))
            intervals.append((lo, hi, root))
            continue
        extended = chain.compose(local_inverse(system, j))
        for j2 in reversed(successors[j]):
            stack.append((j2, at + 1, extended, root))

    intervals.sort(key=lambda item: item[0])
    cursor = system.k.lo
    mesh_d = Fraction(0)
    for lo, hi, root in intervals:
        assert lo == cursor, "cells do not tile the space"
        cursor = hi
        base = system.j_edge(root)
        mesh_d = max(mesh_d, 2 * (hi - lo) / system.k.edge_length(base))
    assert cursor == system.k.hi, "cells do not reach the end of the space"
    vertices = sorted({system.k.lo} | {hi for _, hi, _ in intervals})
    report = td.MeshReport(depth=depth, cells=len(intervals), mesh_d=mesh_d,
                           bound=2 * (1 - td.theta(system)) ** depth)
    return td.IntervalComplex(tuple(vertices)), report


def decode_orbit_histogram(report, star_class, segments, depth, bins, seed):
    """Birkhoff histogram of decoded windows, sliding a Fraction AffineMap."""
    system = report.system
    model = report.analysis.model
    members = tuple(sorted(star_class))
    pair, v_b = next(
        (pair, v_b) for pair, v_b in zip(report.analysis.terminal_pairs,
                                         report.analysis.stationary)
        if tuple(sorted(pair.star_members)) == members)

    initial = np.zeros(system.kstar.n_edges)
    for t in pair.star_members:
        initial[t] = float(v_b[model.j_map[t]] * model.nu[t])
    spec = td.MarkovMeasureSpec(gstar_float_cover(model),
                                td.Distribution.from_weights(initial))
    path = sample_path(spec, segments + depth, seed)

    pieces = []  # (start_in_concat, edge_lo, edge_len, density)
    offset = Fraction(0)
    for i in sorted(pair.base_members):
        lo, hi = system.k.edge(i)
        pieces.append((offset, lo, hi - lo, v_b[i] / (hi - lo)))
        offset += hi - lo
    total = offset

    def concat_coordinate(x):
        for start, lo, length, _ in pieces:
            if lo <= x <= lo + length:
                return start + (x - lo)
        raise AssertionError(f"decoded point {x} left the class support")

    bin_mass = [Fraction(0)] * bins
    for b in range(bins):
        lo_c = total * b / bins
        hi_c = total * (b + 1) / bins
        for start, _, length, density in pieces:
            overlap = min(hi_c, start + length) - max(lo_c, start)
            if overlap > 0:
                bin_mass[b] += overlap * density
    assert sum(bin_mass) == 1

    maps = [local_inverse(system, j) for j in range(system.kstar.n_edges)]
    window = AffineMap.identity()
    for i in range(depth):
        window = window.compose(maps[path[i]])
    counts = [0] * bins
    for i in range(segments):
        lo, hi = window.interval_image(*system.kstar.edge(path[i + depth]))
        coord = concat_coordinate((lo + hi) / 2)
        counts[min(int(coord * bins / total), bins - 1)] += 1
        if i + 1 < segments:
            window = maps[path[i]].inverse().compose(window).compose(
                maps[path[i + depth]])

    max_dev = max(abs(counts[b] / segments - float(bin_mass[b]))
                  for b in range(bins))
    threshold = 5.0 / segments ** 0.5
    return td.BirkhoffResult(segments=segments, depth=depth, bins=bins,
                             max_deviation=max_dev, threshold=threshold,
                             passed=max_dev <= threshold)


@dataclass(frozen=True)
class FrozensetRelation:
    """A relation as a frozenset of index pairs, adjacency built on demand."""

    elements: tuple
    edges: frozenset

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise td.ValidationError("element labels must be distinct")
        n = len(self.elements)
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise td.ValidationError(
                    f"edge ({i}, {j}) out of range for {n} elements")

    @cached_property
    def _adjacency(self):
        """Sorted successor and predecessor tuples per element."""
        succ = [[] for _ in self.elements]
        pred = [[] for _ in self.elements]
        for i, j in sorted(self.edges):
            succ[i].append(j)
            pred[j].append(i)
        return tuple(map(tuple, succ)), tuple(map(tuple, pred))

    def successors(self, i):
        return self._adjacency[0][i]

    def predecessors(self, j):
        return self._adjacency[1][j]

    def has_edge(self, i, j):
        return (i, j) in self.edges


def frozenset_strong_components(relation):
    """Iterative Tarjan over the sorted successor tables, with on-stack
    flags, components in reverse topological order."""
    succ = relation._adjacency[0]
    n = len(relation.elements)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for pos in range(child_pos, len(succ[node])):
                nxt = succ[node][pos]
                if index_of[nxt] == -1:
                    work.append((node, pos + 1))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index_of[nxt])
            if recurse:
                continue
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def frozenset_basic_sets(relation):
    """(classes, terminal_flags, transient, order) of a full-domain
    relation, from the condensation of ``frozenset_strong_components``."""
    n = len(relation.elements)
    succ = relation._adjacency[0]
    components = frozenset_strong_components(relation)
    component_of = [0] * n
    for k, comp in enumerate(components):
        for i in comp:
            component_of[i] = k
    cyclic = [k for k, comp in enumerate(components)
              if len(comp) > 1 or relation.has_edge(comp[0], comp[0])]
    cyclic.sort(key=lambda k: components[k][0])
    class_of_component = [None] * len(components)
    for c, k in enumerate(cyclic):
        class_of_component[k] = c
    leaves = [False] * len(components)
    for i, j in relation.edges:
        if component_of[i] != component_of[j]:
            leaves[component_of[i]] = True
    flags = tuple(not leaves[k] for k in cyclic)
    terminal_members = {i for c, k in enumerate(cyclic) if flags[c]
                        for i in components[k]}
    transient = tuple(i for i in range(n) if i not in terminal_members)
    reach = [0] * len(components)
    upto = [0] * len(components)
    for k, comp in enumerate(components):
        bits = 0
        for i in comp:
            for j in succ[i]:
                if component_of[j] != k:
                    bits |= upto[component_of[j]]
        reach[k] = bits
        c = class_of_component[k]
        upto[k] = bits if c is None else bits | 1 << c
    order = frozenset((a, b) for a, k in enumerate(cyclic)
                      for b in range(len(cyclic)) if reach[k] >> b & 1)
    classes = tuple(tuple(components[k]) for k in cyclic)
    return classes, flags, transient, order


def frozenset_restrict(relation):
    """Drop starved elements until none is left; reindex the rest."""
    succ, pred = relation._adjacency
    n = len(relation.elements)
    degree = [len(s) for s in succ]
    alive = [True] * n
    starved = [i for i in range(n) if degree[i] == 0]
    while starved:
        j = starved.pop()
        alive[j] = False
        for i in pred[j]:
            degree[i] -= 1
            if degree[i] == 0:
                starved.append(i)
    kept = tuple(i for i in range(n) if alive[i])
    labels = tuple(relation.elements[i] for i in kept)
    renumber = {old: new for new, old in enumerate(kept)}
    return FrozensetRelation(labels, frozenset(
        (renumber[i], renumber[j]) for i, j in relation.edges
        if alive[i] and alive[j])), labels


def frozenset_compose(first, second):
    by_source = {}
    for i, j in second.edges:
        by_source.setdefault(i, set()).add(j)
    return FrozensetRelation(first.elements, frozenset(
        (i, k) for i, j in first.edges for k in by_source.get(j, ())))


def frozenset_inverse(relation):
    return FrozensetRelation(relation.elements,
                             frozenset((j, i) for i, j in relation.edges))


def frozenset_induced_relations(model):
    """G = {(J t, gamma t)} and G* = {(t1, t2): t2 over gamma(t1)} as
    frozenset relations."""
    g = FrozensetRelation(model.k, frozenset(zip(model.j_map, model.gamma)))
    gstar = FrozensetRelation(model.kstar, frozenset(
        (t1, t2) for t1, s in enumerate(model.gamma)
        for t2 in model.fiber(s)))
    return g, gstar


def shiftlike_two_alphabet(system):
    """The shift-like model with one ``Word`` per fine and coarse word."""
    width = system.n + system.k
    fine = td.all_words(system.n_symbols, width)
    coarse = td.all_words(system.n_symbols, system.n)
    nu = Fraction(1, system.n_symbols ** system.k)
    return td.build_model(
        kstar=[w.to_string() for w in fine],
        k=[w.to_string() for w in coarse],
        j_map=[w.prefix(system.n).value for w in fine],
        gamma=[system.gamma[w.value] for w in fine],
        nu=[nu] * len(fine),
    )


def nondegenerate_repair(k, kstar, vmap):
    """Repair by a while-loop over runs, built through ``build_system`` from
    the repaired images turned back into coarse vertex values."""
    from tractable_dyn.simplicial1d import _check_subdivision, _normalize_vmap

    _check_subdivision(k, kstar)
    images = list(_normalize_vmap(kstar, k, vmap))
    verts = list(kstar.vertices)
    for j in range(len(verts) - 1):
        if abs(images[j] - images[j + 1]) > 1:
            raise td.DegenerateMapError(
                f"edge [{verts[j]}, {verts[j + 1]}] maps onto non-adjacent "
                "vertices; cannot repair a torn map")

    new_verts, new_images = [], []
    reassigned = inserted = 0
    pos = 0
    while pos < len(verts):
        end = pos
        while end + 1 < len(verts) and images[end + 1] == images[pos]:
            end += 1
        run_length = end - pos + 1
        if run_length == 1:
            new_verts.append(verts[pos])
            new_images.append(images[pos])
            pos += 1
            continue
        v = images[pos]
        u = v - 1 if v >= 1 else v + 1
        run_verts = verts[pos:end + 1]
        if run_length % 2 == 0:
            midpoint = (run_verts[0] + run_verts[1]) / 2
            run_verts = [run_verts[0], midpoint] + run_verts[1:]
            inserted += 1
        for offset, w in enumerate(run_verts):
            new_verts.append(w)
            new_images.append(v if offset % 2 == 0 else u)
            if offset % 2 == 1:
                reassigned += 1
        pos = end + 1

    repaired_star = td.IntervalComplex(tuple(new_verts))
    system = td.build_system(k, repaired_star,
                             [k.vertices[i] for i in new_images])
    sup_change = Fraction(0)
    for w in repaired_star.vertices:
        before = pl_eval_vmap(k, kstar, images, w)
        after = pl_eval_vmap(k, repaired_star, new_images, w)
        sup_change = max(sup_change, abs(before - after))
    bound = 4 * k.mesh()
    if sup_change > bound:
        raise td.NumericalError(
            f"repair moves the map by {sup_change}, above the bound {bound}")
    report = td.RepairReport(changed=(reassigned + inserted) > 0,
                             reassigned=reassigned, inserted=inserted,
                             sup_change=sup_change, bound=bound)
    return system, report


def neighbourhood_bounds(k):
    """Open star intervals of the vertices and edges of the derived
    subdivision, as float pairs with infinities at the ends of the space."""
    mids = [float((a + b) / 2) for a, b in
            (k.edge(i) for i in range(k.n_edges))]
    inf = float("inf")
    vertex_bounds = [(mids[i - 1] if i >= 1 else -inf,
                      mids[i] if i < len(mids) else inf)
                     for i in range(len(k.vertices))]
    edge_bounds = [(mids[i - 1] if i >= 1 else -inf,
                    mids[i + 1] if i + 1 < len(mids) else inf)
                   for i in range(k.n_edges)]
    return vertex_bounds, edge_bounds


def roundoff(f, k, lipschitz):
    """Roundoff that finds each cell's simplex by scanning every vertex star
    and then every edge star, and builds or repairs through vertex values."""
    from tractable_dyn.config import resolve_cell_cap

    lip = td.simplicial1d.parse_lipschitz(lipschitz)
    if lip <= 0:
        raise td.ValidationError("Lipschitz bound must be positive")
    mids = [(a + b) / 2 for a, b in (k.edge(i) for i in range(k.n_edges))]
    parts = [1] * k.n_edges
    if len(mids) >= 2:
        lebesgue = min(m2 - m1 for m1, m2 in zip(mids, mids[1:]))
        delta = lebesgue / (2 * lip)
        parts = [max(1, -(-k.edge_length(i) // delta))
                 for i in range(k.n_edges)]
    limit = resolve_cell_cap()
    if sum(parts) > limit:
        raise td.CapExceededError(
            f"roundoff subdivision would exceed the cell cap {limit}")
    sub_vertices = [k.lo]
    for i in range(k.n_edges):
        a, b = k.edge(i)
        for piece in range(1, int(parts[i]) + 1):
            sub_vertices.append(a + piece * (b - a) / parts[i])
    cells = td.IntervalComplex(tuple(sub_vertices))
    lo_f, hi_f = float(k.lo), float(k.hi)

    def sample(x):
        value = float(f(float(x)))
        if not (lo_f - 1e-9 <= value <= hi_f + 1e-9):
            raise td.MapRangeError(
                f"f({float(x):.17g}) = {value:.17g} leaves the space")
        return value

    vertex_bounds, edge_bounds = neighbourhood_bounds(k)

    def nearest_vertex(img_lo, img_hi, target):
        img_lo, img_hi = max(img_lo, lo_f), min(img_hi, hi_f)
        for i, (left, right) in enumerate(vertex_bounds):
            if left < img_lo and img_hi < right:
                return i
        for i, (left, right) in enumerate(edge_bounds):
            if left < img_lo and img_hi < right:
                left_v, right_v = float(k.vertices[i]), float(k.vertices[i + 1])
                return i if abs(target - left_v) <= abs(target - right_v) \
                    else i + 1
        raise td.NumericalError(
            "no simplex neighbourhood contains a cell image; "
            "Lipschitz bound too small?")

    fine_vertices, images = [], []
    for i in range(cells.n_edges):
        a, b = cells.edge(i)
        value = sample(a)
        fine_vertices.append(a)
        images.append(nearest_vertex(value, value, value))
        mid = (a + b) / 2
        value = sample(mid)
        half_span = float(lip * (b - a) / 2)
        fine_vertices.append(mid)
        images.append(nearest_vertex(value - half_span, value + half_span,
                                     value))
    value = sample(cells.hi)
    fine_vertices.append(cells.hi)
    images.append(nearest_vertex(value, value, value))

    fine = td.IntervalComplex(tuple(fine_vertices))
    mesh = k.mesh()
    parts = tuple(int(p) for p in parts)
    values = [k.vertices[i] for i in images]
    if any(images[j] == images[j + 1] for j in range(fine.n_edges)):
        system, repair = nondegenerate_repair(k, fine, values)
        return system, td.RoundoffReport(
            mesh=mesh, error_bound=2 * mesh + repair.bound, repaired=True,
            repair=repair, parts_per_edge=parts)
    return td.build_system(k, fine, values), td.RoundoffReport(
        mesh=mesh, error_bound=2 * mesh, repaired=False, repair=None,
        parts_per_edge=parts)
