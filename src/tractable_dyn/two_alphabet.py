"""Two-alphabet presentations of symbolic systems.

A finer alphabet K* refines a coarser one K through two maps: J sends each
fine symbol to the coarse symbol it lies over, and gamma sends it to the
coarse symbol it maps onto.  Together with distribution data nu (positive
weights with unit sum over each J-fiber) this induces:

* a relation G on K      -- (s1, s2) when some fine symbol lies over s1 and
                            maps onto s2;
* a relation G* on K*    -- (t1, t2) when t2 lies over gamma(t1);
* stochastic covers of both, with the K*-cover column for t1 supported on
  the J-fiber over gamma(t1) and weighted by nu.

Basic sets of G and G* correspond one-to-one, terminal ones match, and over
a terminal class the whole J-fiber belongs to the fine class.  Stationary
vectors lift as v*(t) = v(J(t)) * nu(t).  These facts are cross-checked here
by computing both decompositions independently; a mismatch is an internal
error, never silently repaired.

All arithmetic stays in exact rationals whenever nu is rational, so the
lifted stationary identities can be verified with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import markov
from .errors import CorrespondenceError, NotTerminalError, ValidationError
from .rationals import format_rational, parse_rational, stationary_exact
from .relation import BasicSetDecomposition, FiniteRelation, basic_sets

FIBER_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TwoAlphabetModel:
    """Alphabets K* and K with fiber map J, dynamics gamma, and weights nu."""

    kstar: tuple[str, ...]
    k: tuple[str, ...]
    j_map: tuple[int, ...]      # K index per K* element
    gamma: tuple[int, ...]      # K index per K* element
    nu: tuple[Fraction | float, ...]

    @property
    def exact(self) -> bool:
        return all(isinstance(x, Fraction) for x in self.nu)

    @cached_property
    def _fibers(self) -> dict[int, tuple[int, ...]]:
        """K* indices over each K index, in increasing order, built once."""
        fibers: dict[int, list[int]] = {i: [] for i in range(len(self.k))}
        for t, i in enumerate(self.j_map):
            fibers[i].append(t)
        return {i: tuple(fiber) for i, fiber in fibers.items()}

    def fiber(self, k_index: int) -> tuple[int, ...]:
        return self._fibers.get(k_index, ())


def _as_index_map(values, kstar, k, what: str) -> tuple[int, ...]:
    k_index = {label: i for i, label in enumerate(k)}
    if isinstance(values, dict):
        missing = [s for s in kstar if s not in values]
        if missing:
            raise ValidationError(f"{what} missing entries for {missing}")
        extra = [s for s in values if s not in kstar]
        if extra:
            raise ValidationError(f"{what} has unknown keys {extra}")
        raw = [values[s] for s in kstar]
    else:
        raw = list(values)
        if len(raw) != len(kstar):
            raise ValidationError(f"{what} must have one entry per K* element")
    out = []
    for pos, target in enumerate(raw):
        if isinstance(target, str):
            if target not in k_index:
                raise ValidationError(
                    f"{what}[{kstar[pos]!r}] = {target!r} is not a K element")
            out.append(k_index[target])
        else:
            target = int(target)
            if not (0 <= target < len(k)):
                raise ValidationError(f"{what} index {target} out of range")
            out.append(target)
    return tuple(out)


def build_model(kstar, k, j_map, gamma, nu) -> TwoAlphabetModel:
    """Validate and build a model.

    nu entries may be Fractions (or rational strings / ints), in which case
    fiber sums must equal 1 exactly, or floats, checked within 1e-12.
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

    if isinstance(nu, dict):
        missing = [s for s in kstar if s not in nu]
        if missing:
            raise ValidationError(f"nu missing entries for {missing}")
        raw_nu = [nu[s] for s in kstar]
    else:
        raw_nu = list(nu)
        if len(raw_nu) != len(kstar):
            raise ValidationError("nu must have one entry per K* element")
    values: list[Fraction | float] = []
    for pos, x in enumerate(raw_nu):
        if isinstance(x, float):
            value: Fraction | float = x
        else:
            value = parse_rational(x)
        if value <= 0:
            raise ValidationError(f"nu[{kstar[pos]!r}] must be positive")
        values.append(value)

    for i in range(len(k)):
        fiber = [t for t in range(len(kstar)) if j_idx[t] == i]
        total = sum(values[t] for t in fiber)
        if all(isinstance(values[t], Fraction) for t in fiber):
            if total != 1:
                raise ValidationError(
                    f"nu over the fiber of {k[i]!r} sums to {total}, expected 1")
        elif abs(float(total) - 1.0) > FIBER_SUM_TOL:
            raise ValidationError(
                f"nu over the fiber of {k[i]!r} sums to {float(total):.17g}")

    return TwoAlphabetModel(kstar, k, j_idx, gamma_idx, tuple(values))


def induced_relations(model: TwoAlphabetModel
                      ) -> tuple[FiniteRelation, FiniteRelation]:
    """The coarse relation G on K and the fine relation G* on K*."""
    g_edges = {(model.j_map[t], model.gamma[t])
               for t in range(len(model.kstar))}
    gstar_edges = {(t1, t2)
                   for t1, s in enumerate(model.gamma)
                   for t2 in model.fiber(s)}
    g = FiniteRelation(model.k, frozenset(g_edges))
    gstar = FiniteRelation(model.kstar, frozenset(gstar_edges))
    return g, gstar


def exact_cover_matrices(model: TwoAlphabetModel
                         ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Rational cover matrices for G and G* (requires exact nu)."""
    if not model.exact:
        raise ValidationError("model has floating nu; exact covers unavailable")
    nk, ns = len(model.k), len(model.kstar)
    g_matrix = [[Fraction(0)] * nk for _ in range(nk)]
    for t in range(ns):
        g_matrix[model.gamma[t]][model.j_map[t]] += model.nu[t]
    gstar_matrix = [[Fraction(0)] * ns for _ in range(ns)]
    for t1, s in enumerate(model.gamma):
        for t2 in model.fiber(s):
            gstar_matrix[t2][t1] = model.nu[t2]
    return g_matrix, gstar_matrix


def induced_covers(model: TwoAlphabetModel
                   ) -> tuple[markov.StochasticCover, markov.StochasticCover]:
    """Floating-point stochastic covers of G and G*."""
    g, gstar = induced_relations(model)
    nk, ns = len(model.k), len(model.kstar)
    g_matrix = np.zeros((nk, nk))
    for t in range(ns):
        g_matrix[model.gamma[t], model.j_map[t]] += float(model.nu[t])
    nu = np.array([float(x) for x in model.nu])
    gstar_matrix = np.zeros((ns, ns))
    for t1, s in enumerate(model.gamma):
        fiber = list(model.fiber(s))
        gstar_matrix[fiber, t1] = nu[fiber]
    return markov.validate_cover(g, g_matrix), markov.validate_cover(gstar, gstar_matrix)


@dataclass(frozen=True)
class CorrespondencePair:
    """One matched pair of basic sets (fine class over coarse class)."""

    star_class_index: int
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
            star_class_index=cs,
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

    Returns {K index: weight} with weights summing to 1.  Requires exact nu.
    Only the class block of the coarse cover is built.
    """
    if not model.exact:
        raise ValidationError("model has floating nu; exact covers unavailable")
    members = tuple(sorted(set(int(i) for i in base_members)))
    position = {i: p for p, i in enumerate(members)}
    block = [[Fraction(0)] * len(members) for _ in members]
    leak = dict.fromkeys(members, Fraction(0))
    for t, (i, j) in enumerate(zip(model.j_map, model.gamma)):
        if i in position and j in position:
            block[position[j]][position[i]] += model.nu[t]
        elif i in position:
            leak[i] += model.nu[t]
    for i in members:
        if leak[i] != 0:
            raise NotTerminalError(
                f"class loses mass {leak[i]} from {model.k[i]!r}")
    v = stationary_exact(block)
    return {member: value for member, value in zip(members, v)}


def lift_stationary(model: TwoAlphabetModel, stationary):
    """Lift a coarse stationary vector to the fine cover: v*(t) = v(J t) nu(t).

    Works on Fractions (identities exact) or floats (input residual must be
    within 1e-9, and the lifted residual is verified within 1e-9 as well).
    """
    v = list(stationary)
    if len(v) != len(model.k):
        raise ValidationError("stationary vector length does not match K")
    exact = model.exact and all(isinstance(x, (Fraction, int)) for x in v)

    g_cover, gstar_cover = induced_covers(model)
    v_float = np.array([float(x) for x in v])
    residual = float(np.abs(g_cover.matrix @ v_float - v_float).max())
    if residual > 1e-9:
        raise ValidationError(
            f"input stationarity residual {residual:.3e} exceeds 1e-9")

    lifted = [(Fraction(v[model.j_map[t]]) * model.nu[t]) if exact
              else float(v[model.j_map[t]]) * float(model.nu[t])
              for t in range(len(model.kstar))]

    if exact:
        _, gstar_matrix = exact_cover_matrices(model)
        for t2 in range(len(model.kstar)):
            balance = sum(gstar_matrix[t2][t1] * lifted[t1]
                          for t1 in range(len(model.kstar)))
            if balance != lifted[t2]:
                raise CorrespondenceError(
                    f"exact lifted stationarity fails at {model.kstar[t2]!r}")
    else:
        lifted_float = np.array([float(x) for x in lifted])
        residual = float(
            np.abs(gstar_cover.matrix @ lifted_float - lifted_float).max())
        if residual > 1e-9:
            raise CorrespondenceError(
                f"lifted stationarity residual {residual:.3e} exceeds 1e-9")
    return lifted


def stationary_identity_max_error(model: TwoAlphabetModel,
                                  pair: CorrespondencePair,
                                  v_b: dict[int, Fraction]):
    """Worst error in the projected stationarity identity over K.

    For every coarse symbol s, the lifted weights of the fine symbols in the
    class that map onto s must reproduce v_B(s).  Exact inputs give an exact
    Fraction error (0 when the identity holds).
    """
    star_members = set(pair.star_members)
    worst = Fraction(0)
    for s in range(len(model.k)):
        total = sum((Fraction(v_b.get(model.j_map[t], 0)) * model.nu[t]
                     for t in star_members if model.gamma[t] == s),
                    start=Fraction(0))
        expected = Fraction(v_b.get(s, 0))
        worst = max(worst, abs(total - expected))
    return worst


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one exact two-alphabet model, computed once.

    ``model`` is the analysed model.  ``correspondence`` matches the basic
    sets of G and G*, each decomposition computed independently and
    cross-checked.  ``g_cover`` and ``gstar_cover`` are the float stochastic
    covers of G on K and of G* on K*.  ``decay`` certifies the decay of
    transient mass under ``g_cover``.  ``stationary`` holds one exact
    stationary vector {K index: weight} per terminal pair, in the order of
    ``terminal_pairs``; each satisfies the projected stationarity identity
    with zero error.
    """

    model: TwoAlphabetModel
    correspondence: Correspondence
    g_cover: markov.StochasticCover
    gstar_cover: markov.StochasticCover
    decay: markov.DecayCertificate
    stationary: tuple[dict[int, Fraction], ...]

    @property
    def terminal_pairs(self) -> tuple[CorrespondencePair, ...]:
        """Terminal pairs in coarse class order, aligned with ``stationary``."""
        return tuple(p for p in self.correspondence.pairs if p.terminal)


def analyze(model: TwoAlphabetModel) -> Analysis:
    """Correspondence, covers, decay and exact stationary vectors of a model.

    Requires exact nu.  The exact stationary vector of every terminal pair
    is checked against the projected stationarity identity with zero
    tolerance; a nonzero error raises CorrespondenceError.
    """
    correspondence = basic_set_correspondence(model)
    g_cover, gstar_cover = induced_covers(model)
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
    return Analysis(model, correspondence, g_cover, gstar_cover, decay,
                    tuple(stationary))


def ergodic_cylinder_measure_star(model: TwoAlphabetModel,
                                  star_class,
                                  word):
    """Cylinder weight of the ergodic measure lifted to a terminal fine class.

    The weight of ⟨t_0 .. t_n⟩ is v_B(J(t_0)) * nu(t_0) * ... * nu(t_n) when
    the word is a G* word starting inside the class, and 0 otherwise.  Exact
    models yield Fractions.
    """
    correspondence = basic_set_correspondence(model)
    members = tuple(sorted(set(int(t) for t in star_class)))
    matches = [p for p in correspondence.pairs
               if tuple(sorted(p.star_members)) == members]
    if not matches:
        raise NotTerminalError(f"{members} is not a fine basic set")
    pair = matches[0]
    if not pair.terminal:
        raise NotTerminalError(
            "ergodic cylinder measures exist only over terminal classes")

    word = tuple(int(t) for t in word)
    if not word:
        raise ValidationError("empty word has no cylinder")
    for t in word:
        if not (0 <= t < len(model.kstar)):
            raise ValidationError(f"symbol index {t} out of range")

    zero: Fraction | float = Fraction(0) if model.exact else 0.0
    if word[0] not in set(pair.star_members):
        return zero
    for t1, t2 in zip(word, word[1:]):
        if model.j_map[t2] != model.gamma[t1]:
            return zero

    if model.exact:
        v_b = base_class_stationary(model, pair.base_members)
        value: Fraction | float = v_b[model.j_map[word[0]]]
        for t in word:
            value *= model.nu[t]
        return value
    g_cover, _ = induced_covers(model)
    v_b_float = markov.stationary_distribution(g_cover, pair.base_members)
    value = float(v_b_float.weights[model.j_map[word[0]]])
    for t in word:
        value *= float(model.nu[t])
    return value


def model_from_json(data) -> TwoAlphabetModel:
    if not isinstance(data, dict):
        raise ValidationError("model file must be a JSON object")
    required = {"Kstar", "K", "J", "gamma", "nu"}
    missing = required - set(data)
    if missing:
        raise ValidationError(f"model file missing fields: {sorted(missing)}")
    unknown = set(data) - required
    if unknown:
        raise ValidationError(f"unknown model fields: {sorted(unknown)}")
    return build_model(data["Kstar"], data["K"], data["J"], data["gamma"],
                       data["nu"])


def model_to_json(model: TwoAlphabetModel) -> dict:
    return {
        "Kstar": list(model.kstar),
        "K": list(model.k),
        "J": {model.kstar[t]: model.k[model.j_map[t]]
              for t in range(len(model.kstar))},
        "gamma": {model.kstar[t]: model.k[model.gamma[t]]
                  for t in range(len(model.kstar))},
        "nu": {model.kstar[t]: (format_rational(x) if isinstance(x, Fraction)
                                else float(x))
               for t, x in enumerate(model.nu)},
    }
