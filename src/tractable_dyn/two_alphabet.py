"""Two-alphabet presentations of symbolic systems.

A finer alphabet K* refines a coarser one K through two maps: J sends each
fine symbol to the coarse symbol it lies over, and gamma sends it to the
coarse symbol it maps onto.  Together with distribution data nu (positive
weights with unit sum over each J-fiber) this induces:

* a relation G on K      -- (s1, s2) when some fine symbol lies over s1 and
                            maps onto s2;
* a relation G* on K*    -- (t1, t2) when t2 lies over gamma(t1), so the
                            successors of t1 are the J-fiber over gamma(t1):
                            G* is stored as those fiber tuples, shared
                            between the fine symbols with one image;
* a stochastic cover of G.  G* needs no stored cover: its column for t1 is
  nu on the J-fiber over gamma(t1), built from the fibers where it is used.

Basic sets of G and G* correspond one-to-one, terminal ones match, and over
a terminal class the whole J-fiber belongs to the fine class.  Stationary
vectors lift as v*(t) = v(J(t)) * nu(t).  These facts are cross-checked here
by computing both decompositions independently; a mismatch is an internal
error, never silently repaired.  nu is rational, so every identity is exact
and checked with zero tolerance, in O(|K*|) passes over the J-fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import markov
from .errors import CorrespondenceError, NotTerminalError, ValidationError
from .rationals import (as_index, as_indices, parse_rational,
                        scale_to_integers, stationary_exact)
from .relation import BasicSetDecomposition, FiniteRelation, basic_sets


@dataclass(frozen=True)
class TwoAlphabetModel:
    """Alphabets K* and K with fiber map J, dynamics gamma, and weights nu."""

    kstar: tuple[str, ...]
    k: tuple[str, ...]
    j_map: tuple[int, ...]      # K index per K* element
    gamma: tuple[int, ...]      # K index per K* element
    nu: tuple[Fraction, ...]

    @cached_property
    def _fibers(self) -> dict[int, tuple[int, ...]]:
        """K* indices over each K index, in increasing order, built once."""
        fibers: dict[int, list[int]] = {i: [] for i in range(len(self.k))}
        for t, i in enumerate(self.j_map):
            fibers[i].append(t)
        return {i: tuple(fiber) for i, fiber in fibers.items()}

    @cached_property
    def scaled_nu(self) -> tuple[int, tuple[int, ...]]:
        """(D, a) with D the lcm of nu's denominators and a[t] = nu(t) D,
        built once."""
        common, ints = scale_to_integers(self.nu)
        return common, tuple(ints)

    def fiber(self, k_index: int) -> tuple[int, ...]:
        return self._fibers.get(k_index, ())

    @cached_property
    def _relations(self) -> tuple[FiniteRelation, FiniteRelation]:
        """G on K and G* on K*, built once (see ``induced_relations``).

        G's successors of i are the gamma images of the fiber over i; G*'s
        successor tuple of t is the fiber tuple over gamma(t) itself, shared
        by every t with the same image, so no edge tuple is made.
        """
        fibers = [self.fiber(i) for i in range(len(self.k))]
        gamma = self.gamma
        g = FiniteRelation.from_successors(self.k, [
            tuple(sorted({gamma[t] for t in fiber})) for fiber in fibers])
        gstar = FiniteRelation.from_successors(
            self.kstar, [fibers[s] for s in gamma])
        return g, gstar


def _per_kstar(values, kstar, what: str) -> list:
    """One entry per K* element, from a sequence in K* order."""
    if isinstance(values, dict):
        raise ValidationError(f"{what} must be a sequence in K* order, "
                              "not a dict")
    raw = list(values)
    if len(raw) != len(kstar):
        raise ValidationError(f"{what} must have one entry per K* element")
    return raw


def _as_index_map(values, kstar, k, what: str) -> tuple[int, ...]:
    k_index = {label: i for i, label in enumerate(k)}
    raw = _per_kstar(values, kstar, what)
    out = []
    for pos, target in enumerate(raw):
        if isinstance(target, str):
            if target not in k_index:
                raise ValidationError(
                    f"{what}[{kstar[pos]!r}] = {target!r} is not a K element")
            out.append(k_index[target])
        else:
            try:
                target = as_index(target)
            except TypeError:
                raise ValidationError(
                    f"{what}[{kstar[pos]!r}] = {target!r} is neither a K "
                    "label nor an integer index into K") from None
            if not (0 <= target < len(k)):
                raise ValidationError(f"{what} index {target} out of range")
            out.append(target)
    return tuple(out)


def build_model(kstar, k, j_map, gamma, nu) -> TwoAlphabetModel:
    """Validate and build a model.

    ``j_map``, ``gamma`` and ``nu`` are sequences in K* order (a dict is a
    ValidationError); J and gamma entries are K labels or integer indices
    into K (a bool or a float is a ValidationError).
    nu entries are rational: Fractions, ints or "p/q" strings (anything else
    is a ValidationError).  Each must be positive, and each J-fiber must sum
    to 1 exactly.
    """
    kstar = tuple(kstar)
    k = tuple(k)
    if len(set(kstar)) != len(kstar) or len(set(k)) != len(k):
        raise ValidationError("alphabet labels must be distinct")
    if not kstar or not k:
        raise ValidationError("alphabets must be non-empty")
    j_idx = _as_index_map(j_map, kstar, k, "J")
    gamma_idx = _as_index_map(gamma, kstar, k, "gamma")
    if set(j_idx) != set(range(len(k))):
        missing = [k[i] for i in range(len(k)) if i not in set(j_idx)]
        raise ValidationError(f"J is not surjective; nothing lies over {missing}")

    model = TwoAlphabetModel(kstar, k, j_idx, gamma_idx, tuple(
        parse_rational(x) for x in _per_kstar(nu, kstar, "nu")))
    # Over D > 0, the lcm of nu's denominators, a[t] = nu(t) D has the sign
    # of nu(t), and a fiber sums to 1 exactly when its a[t] sum to D.
    common, a = model.scaled_nu
    sums = [0] * len(k)
    for label, i, weight in zip(kstar, j_idx, a):
        if weight <= 0:
            raise ValidationError(f"nu[{label!r}] must be positive")
        sums[i] += weight
    for label, total in zip(k, sums):
        if total != common:
            raise ValidationError(f"nu over the fiber of {label!r} sums to "
                                  f"{Fraction(total, common)}, expected 1")
    return model


def induced_relations(model: TwoAlphabetModel
                      ) -> tuple[FiniteRelation, FiniteRelation]:
    """The coarse relation G on K and the fine relation G* on K*, built
    once per model: every call returns the same two objects."""
    return model._relations


def induced_covers(model: TwoAlphabetModel) -> markov.StochasticCover:
    """Floating-point stochastic cover of G, validated against G.

    Each edge J(t) -> gamma(t) adds float(nu(t)) = a_t / D (one correctly
    rounded division, as ``Fraction.__float__`` does) over its fine symbols
    in K* order.
    """
    common, a = model.scaled_nu
    cells: dict[tuple[int, int], float] = {}
    for cell, weight in zip(zip(model.j_map, model.gamma), a):
        cells[cell] = cells.get(cell, 0.0) + weight / common
    g = induced_relations(model)[0]
    return markov.cover_from_columns(g, (
        [cells[i, j] for j in g.successors(i)] for i in range(len(model.k))))


@dataclass(frozen=True)
class CorrespondencePair:
    """One matched pair of basic sets (fine class over coarse class)."""

    base_class_index: int
    star_members: tuple[int, ...]
    base_members: tuple[int, ...]
    terminal: bool


@dataclass(frozen=True)
class Correspondence:
    model: TwoAlphabetModel
    base_decomposition: BasicSetDecomposition
    star_decomposition: BasicSetDecomposition
    pairs: tuple[CorrespondencePair, ...]


def basic_set_correspondence(model: TwoAlphabetModel) -> Correspondence:
    """Match fine and coarse basic sets, cross-checking both decompositions.

    Both decompositions are computed independently and the structural facts
    (gamma maps each fine class into a single coarse class; the induced map
    is a bijection; terminality matches; over a terminal coarse class the
    fine class is the whole J-preimage) are verified.  Any failure raises
    CorrespondenceError: it indicates an internal inconsistency, not bad
    user input.
    """
    g, gstar = induced_relations(model)
    base = basic_sets(g)
    star = basic_sets(gstar)

    if len(base.classes) != len(star.classes):
        raise CorrespondenceError(
            f"class counts differ: {len(base.classes)} coarse vs "
            f"{len(star.classes)} fine")

    pairs = []
    used_base = set()
    for cs, star_members in enumerate(star.classes):
        images = {model.gamma[t] for t in star_members}
        base_classes = {base.class_of(i) for i in images}
        if None in base_classes or len(base_classes) != 1:
            raise CorrespondenceError(
                f"fine class {cs} maps into {base_classes}, expected one class")
        cb = base_classes.pop()
        if cb in used_base:
            raise CorrespondenceError(
                f"two fine classes map into coarse class {cb}")
        used_base.add(cb)
        if star.terminal_flags[cs] != base.terminal_flags[cb]:
            raise CorrespondenceError(
                f"terminality mismatch between fine class {cs} "
                f"and coarse class {cb}")
        terminal = base.terminal_flags[cb]
        if terminal:
            fiber = {t for i in base.classes[cb] for t in model.fiber(i)}
            if fiber != set(star_members):
                raise CorrespondenceError(
                    f"terminal fine class {cs} is not the full J-preimage "
                    f"of coarse class {cb}")
        pairs.append(CorrespondencePair(
            base_class_index=cb,
            star_members=tuple(star_members),
            base_members=tuple(base.classes[cb]),
            terminal=terminal,
        ))
    if used_base != set(range(len(base.classes))):
        raise CorrespondenceError("correspondence is not onto the coarse classes")

    pairs.sort(key=lambda p: p.base_class_index)
    return Correspondence(model, base, star, tuple(pairs))


def base_class_stationary(model: TwoAlphabetModel,
                          base_members) -> dict[int, Fraction]:
    """Exact stationary vector of the coarse cover on a terminal class.

    Returns {K index: weight} with weights summing to 1.  One pass over the
    J-fibers of the class builds the class block of the coarse cover as
    sparse rows (row j maps i to the weight of i -> j) and the mass each
    member leaks out of the class, so the cost is the class's fibers.
    Weights are summed as the integers a = nu D and divided by D once per
    entry.
    """
    common, a = model.scaled_nu
    members = tuple(sorted(set(as_indices(
        base_members, "class members must be integer indices into K"))))
    position = {i: p for p, i in enumerate(members)}
    scaled: list[dict[int, int]] = [{} for _ in members]
    for p, i in enumerate(members):
        leak = 0
        for t in model.fiber(i):
            q = position.get(model.gamma[t])
            if q is None:
                leak += a[t]
            else:
                scaled[q][p] = scaled[q].get(p, 0) + a[t]
        if leak != 0:
            raise NotTerminalError(f"class loses mass {Fraction(leak, common)}"
                                   f" from {model.k[i]!r}")
    block = [{p: Fraction(w, common) for p, w in row.items()}
             for row in scaled]
    return dict(zip(members, stationary_exact(block)))


def _gamma_mass(model: TwoAlphabetModel, weights, members) -> list[Fraction]:
    """out[s] = sum of weights[t] over members t with gamma(t) = s, one pass.

    With weights v(J t) nu(t) this is (G v)(s); for a fine vector w it gives
    (G* w)(t) = nu(t) * out[J t].
    """
    out = [Fraction(0)] * len(model.k)
    for t in members:
        out[model.gamma[t]] += weights[t]
    return out


def lift_stationary(model: TwoAlphabetModel, stationary) -> list[Fraction]:
    """Lift a coarse stationary vector to the fine cover: v*(t) = v(J t) nu(t).

    Entries are rational (Fractions, ints or "p/q" strings; anything else is
    a ValidationError).  Both identities are exact: G v = v, else
    ValidationError, and G* v* = v*, read from v* as nu(t) * (mass of v* on
    gamma^-1(J t)) = v*(t), else CorrespondenceError.
    """
    v = list(stationary)
    if len(v) != len(model.k):
        raise ValidationError("stationary vector length does not match K")
    v = [parse_rational(x) for x in v]

    lifted = [v[i] * nu for i, nu in zip(model.j_map, model.nu)]
    mass = _gamma_mass(model, lifted, range(len(model.kstar)))
    for s, (pushed, value) in enumerate(zip(mass, v)):
        if pushed != value:
            raise ValidationError(
                f"input vector is not stationary at {model.k[s]!r}: "
                f"(G v) = {pushed}, v = {value}")
    for t, (i, nu) in enumerate(zip(model.j_map, model.nu)):
        if nu * mass[i] != lifted[t]:
            raise CorrespondenceError(
                f"exact lifted stationarity fails at {model.kstar[t]!r}")
    return lifted


def stationary_identity_max_error(model: TwoAlphabetModel,
                                  pair: CorrespondencePair,
                                  v_b: dict[int, Fraction]) -> Fraction:
    """Worst error in the projected stationarity identity over K.

    For every coarse symbol s, the lifted weights of the fine symbols in the
    class that map onto s must reproduce v_B(s).  The error is an exact
    Fraction, 0 when the identity holds.  It is computed in integers over
    the one denominator E D (nu = a / D, v_B = b / E): the class pushes
    b_(J t) a_t onto gamma(t), and that mass is compared with b_s D.
    """
    common_nu, a = model.scaled_nu
    common_v, ints = scale_to_integers(v_b.values())
    b = dict(zip(v_b, ints))
    mass = [0] * len(model.k)
    for t in pair.star_members:
        mass[model.gamma[t]] += b.get(model.j_map[t], 0) * a[t]
    worst = max(abs(pushed - b.get(s, 0) * common_nu)
                for s, pushed in enumerate(mass))
    return Fraction(worst, common_v * common_nu)


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one exact two-alphabet model, computed once.

    ``model`` is the analysed model.  ``correspondence`` matches the basic
    sets of G and G*, each decomposition computed independently and
    cross-checked.  ``g_cover`` is the stochastic cover of G on K from
    ``induced_covers`` (G* is nu on the J-fibers; nothing stores it).
    ``decay`` certifies the decay of transient mass under ``g_cover``.
    ``stationary`` holds one exact stationary vector {K index: weight} per
    terminal pair, in the order of ``terminal_pairs``; each satisfies the
    projected stationarity identity with zero error.
    """

    model: TwoAlphabetModel
    correspondence: Correspondence
    g_cover: markov.StochasticCover
    decay: markov.DecayCertificate
    stationary: tuple[dict[int, Fraction], ...]

    @property
    def terminal_pairs(self) -> tuple[CorrespondencePair, ...]:
        """Terminal pairs in coarse class order, aligned with ``stationary``."""
        return tuple(p for p in self.correspondence.pairs if p.terminal)


def analyze(model: TwoAlphabetModel) -> Analysis:
    """Correspondence, G cover, decay and exact stationary vectors of a model.

    The exact stationary vector of every terminal pair is checked against
    the projected stationarity identity with zero tolerance; a nonzero error
    raises CorrespondenceError.
    """
    correspondence = basic_set_correspondence(model)
    g_cover = induced_covers(model)
    decay = markov.transient_decay(g_cover, correspondence.base_decomposition)
    stationary = []
    for pair in correspondence.pairs:
        if not pair.terminal:
            continue
        v_b = base_class_stationary(model, pair.base_members)
        error = stationary_identity_max_error(model, pair, v_b)
        if error != 0:
            raise CorrespondenceError(
                f"exact stationary identity fails by {error} on class "
                f"{pair.base_class_index}")
        stationary.append(v_b)
    return Analysis(model, correspondence, g_cover, decay, tuple(stationary))


def ergodic_cylinder_measure_star(model: TwoAlphabetModel,
                                  star_class,
                                  word):
    """Cylinder weight of the ergodic measure lifted to a terminal fine class.

    The weight of ⟨t_0 .. t_n⟩ is v_B(J(t_0)) * nu(t_0) * ... * nu(t_n) when
    the word is a G* word starting inside the class, and 0 otherwise, as an
    exact Fraction.  Each call recomputes the correspondence.
    """
    message = "class members and word symbols must be integer indices into K*"
    members = tuple(sorted(set(as_indices(star_class, message))))
    word = as_indices(word, message)
    correspondence = basic_set_correspondence(model)
    pair = next((p for p in correspondence.pairs
                 if tuple(sorted(p.star_members)) == members), None)
    if pair is None:
        raise NotTerminalError(f"{members} is not a fine basic set")
    if not pair.terminal:
        raise NotTerminalError(
            "ergodic cylinder measures exist only over terminal classes")

    if not word:
        raise ValidationError("empty word has no cylinder")
    for t in word:
        if not (0 <= t < len(model.kstar)):
            raise ValidationError(f"symbol index {t} out of range")

    if word[0] not in set(pair.star_members) or any(
            model.j_map[t2] != model.gamma[t1]
            for t1, t2 in zip(word, word[1:])):
        return Fraction(0)

    value = base_class_stationary(model, pair.base_members)[
        model.j_map[word[0]]]
    for t in word:
        value *= model.nu[t]
    return value

