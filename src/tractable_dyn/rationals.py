"""Exact rational helpers: "p/q" (de)serialization and exact linear solves.

Every system is given as sparse rows: row i is a mapping {column: value},
and an absent column is zero.  There are two integer cores, and both return
integer numerators over one common denominator only once they satisfy the
system exactly in integers (``_satisfies``):

- ``_solve`` is fraction-free Gauss-Jordan elimination (Bareiss 1968):
  every division is exact, so the integers never leave the Hadamard bound,
  and a column with no pivot proves the system singular.
- ``_solve_lifted`` is for systems already known to be nonsingular.  Floats
  propose and integers certify: each step is one float64 LAPACK solve of
  A y = r, and z = round(2^k y) lifts the answer by k bits against an exact
  integer residual r <- 2^k r - A z (Dixon 1982, in the numeric form of Wan
  2006).  The entries are rebuilt by continued fractions.  When the float
  guide fails, it returns None.

``_solve_nonsingular`` is the rule for a system proven nonsingular: lift,
and eliminate only where the float guide fails.  ``stationary_exact`` proves
it, in integers and in O(E), when every weight is positive and the support
is strongly connected, so Perron-Frobenius applies (see its docstring);
``simplicial1d`` proves it for the absorption system D (I - Q) of transient
mass that decays.  ``solve_linear_exact`` and ``stationary_exact`` are the
``Fraction`` adapters: each scales every row to integers once, and rejects
an entry that is not a finite rational.  ``solve_linear_exact`` always uses
``_solve``, because only it proves singularity.  A nonsingular system has
one solution, so either core gives the vector that elimination over
``Fraction`` gives, whatever the float rounding or BLAS threading, and
identities that hold exactly in theory can be asserted with zero tolerance.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import index, mul
from typing import Mapping, Sequence

import numpy as np

from .config import resolve_cell_cap
from .errors import CapExceededError, NumericalError, ValidationError
from .relation import _strong_components

# max(len(whole), 1) + len(fraction) + |exponent| bounds the digits of a
# decimal's value: only an exponent or a long literal can pass the limit.
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*\Z")


def _quoted(text: str) -> str:
    """repr(text), or for a text longer than 64 characters the repr of its
    first 40 and its length, so that an error message stays short."""
    if len(text) <= 64:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Accept Fraction, int, or a "p/q" / "p" / decimal string; a bool is
    not a number.  A decimal whose value could have more digits than
    ``sys.get_int_max_str_digits()`` is rejected before it is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        decimal = (("e" in value or "E" in value or len(value) > limit)
                   and _DECIMAL.match(value))
        try:
            if decimal and limit and max(len(decimal[1]), 1) + len(
                    decimal[2] or "") + abs(int(decimal[3] or 0)) > limit:
                raise ValidationError(f"rational literal {_quoted(value)} "
                                      f"has more than {limit} digits")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"not a rational literal: {_quoted(value)}") from exc
    raise ValidationError(f"not a rational literal: {value!r}")


def as_index(value) -> int:
    """``operator.index(value)``, and a TypeError for a bool too."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an index")
    return index(value)


def as_indices(values, message: str, error=ValidationError) -> tuple[int, ...]:
    """``as_index`` of each value, else ``error(message)``."""
    try:
        return tuple(map(as_index, values))
    except TypeError:
        raise error(message) from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _rational(x, name: str, *index) -> int | Fraction:
    """x as an int or a Fraction; a string is read by ``parse_rational``.
    A bool, a NaN, an infinity or anything else that is not a finite
    rational is a ValidationError naming the entry ``name[index]...``."""
    try:
        if isinstance(x, (str, bool)):
            return parse_rational(x)
        return x if isinstance(x, (int, Fraction)) else Fraction(x)
    except (ValidationError, TypeError, ValueError, OverflowError):
        entry = name + "".join(f"[{i!r}]" for i in index)
        raise ValidationError(
            f"{entry} = {_quoted(str(x))} is not a finite rational") from None


def scale_to_integers(values) -> tuple[int, list[int]]:
    """(L, [x L for x in values]) with L the lcm of their denominators."""
    common = math.lcm(*(x.denominator for x in values))
    return common, [x.numerator * (common // x.denominator) for x in values]


def _dot(row: Mapping[int, int], x: list[int]) -> int:
    """The exact product of a sparse integer row with x."""
    return sum(map(mul, row.values(), map(x.__getitem__, row)))


def _satisfies(rows, rhs: list[int], common: int, x: list[int]) -> bool:
    """A (x / common) == b exactly, over the entries of sparse integer rows."""
    return all(_dot(row, x) == b * common for row, b in zip(rows, rhs))


def _solve(rows: list[dict[int, int]], rhs: list[int]
           ) -> tuple[int, list[int]]:
    """(L, x) with A (x / L) = b, for a square system of integer rows, by
    fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Once the pivot of column k has cleared that column, every entry of
    [A | b] right of it is a minor of order k + 1 (Sylvester's identity), so
    each update divides exactly by the pivot before it and no entry outgrows
    the Hadamard bound.  At the end column n holds p x, with p the last
    pivot (det A up to sign).  A column with no pivot proves A singular
    (NumericalError).  The n (n + 1) dense cells are counted against the
    cell cap before any is allocated, and the answer is returned only once
    ``_satisfies`` holds.
    """
    n = len(rows)
    limit = resolve_cell_cap()
    if n * (n + 1) > limit:
        raise CapExceededError(
            f"{n} x {n + 1} solver cells exceed the cell cap {limit}")
    aug = [[row.get(j, 0) for j in range(n)] + [b]
           for row, b in zip(rows, rhs)]
    previous = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            raise NumericalError("singular rational system")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        head, top = aug[k][k], aug[k][k:]
        for row in aug[:k] + aug[k + 1:]:
            factor = row[k]
            row[k:] = [(head * a - factor * b) // previous
                       for a, b in zip(row[k:], top)]
        previous = head
    sign = 1 if previous > 0 else -1
    common, x = sign * previous, [sign * row[n] for row in aug]
    if not _satisfies(rows, rhs, common, x):
        raise NumericalError("exact solve fails its own system")
    return common, x


def _convergent(num: int, den: int, bound: int) -> tuple[int, int]:
    """The last continued-fraction convergent p/q of num/den (den > 0) with
    q <= bound, or (1, 0) when bound < 1."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        quotient, rest = divmod(num, den)
        if quotient * q1 + q0 > bound:
            break
        p0, q0, p1, q1 = p1, q1, quotient * p1 + p0, quotient * q1 + q0
        num, den = den, rest
    return p1, q1


def _rebuild(numer: list[int], bits: int, eta: int
             ) -> tuple[int, list[int]] | None:
    """(L, [x L]) for the entries x within eta / 2^bits of u / 2^bits, u in
    ``numer``, or None if one is not found.

    Entries share most of their denominator, so each entry is first tried
    over the lcm L of the denominators so far (the nearest num / L); only
    when that misses is it rebuilt on its own as the last convergent of
    u / 2^bits whose denominator is at most sqrt(2^bits / (2 eta)).  Two
    fractions with such denominators differ by at least 2 eta / 2^bits, so
    that convergent is the entry whenever eta bounds the error.
    """
    bound = math.isqrt((1 << bits) // (2 * eta))
    common, entries = 1, []
    for u in numer:
        num, den = (u * common + (1 << bits - 1)) >> bits, common
        if abs(u * common - (num << bits)) > eta * common:
            num, den = _convergent(u, 1 << bits, bound)
            if den == 0 or abs(u * den - (num << bits)) > eta * den:
                return None
            common = math.lcm(common, den)
        entries.append((num, den))
    return common, [num * (common // den) for num, den in entries]


def _solve_lifted(rows: list[dict[int, int]], rhs: list[int]
                  ) -> tuple[int, list[int]] | None:
    """(L, x) with A (x / L) = b for a nonsingular square system of integer
    rows, by float-guided lifting (Dixon 1982; Wan 2006), or None when the
    float guide fails.

    Each step solves A y = r in float64 (LAPACK, each row scaled by a power
    of two to a largest entry in [1/2, 1)), takes z = round(2^k y) and
    updates r <- 2^k r - A z exactly over the sparse rows, N <- 2^k N + z
    and D <- 2^k D, so that x = (N + A^-1 r) / D throughout.  k is one bit
    short of what y's float residual vouches for, and at least large enough
    that the rounding of z cannot stop the residual from halving.  After
    each step ``_rebuild`` guesses x from N / D, and a guess is returned only
    once ``_satisfies`` holds exactly.  None is returned, for the caller to
    fall back on ``_solve``, when an entry or residual leaves the float
    range, the float solve fails or vouches for fewer than 8 bits, the scaled
    residual does not halve, or D passes twice the bits of the Hadamard
    bound with no certified guess.
    """
    n = len(rows)
    row_index = np.repeat(np.arange(n), [len(row) for row in rows])
    cols = np.array([j for row in rows for j in row], dtype=np.intp)
    bits, numer, residual = 0, [0] * n, list(rhs)
    try:
        values = np.array([a for row in rows for a in row.values()],
                          dtype=float)
        b = np.array(rhs, dtype=float)
        largest = np.abs(b)
        np.maximum.at(largest, row_index, np.abs(values))
        exponents = np.frexp(largest)[1]
        # Row i of [A | b] has at most len(row) + 1 entries, each below
        # 2^exponents[i]: this bounds log2 of its Hadamard bound.
        counts = np.bincount(row_index, minlength=n)
        limit = int(np.sum(exponents + np.log2(counts + 1) / 2)) + 1
        scale = np.ldexp(1.0, -exponents)
        values *= scale[row_index]
        matrix = np.zeros((n, n))
        matrix[row_index, cols] = values
        norm = np.bincount(row_index, np.abs(values), minlength=n).max(
            initial=0)
        r = b * scale
        while any(residual):
            with np.errstate(all="ignore"):
                y = np.linalg.solve(matrix, r)
                size, gain = np.abs(r).max(), np.abs(y).max()
                # The float residual, plus its own rounding and that of A,
                # bounds |r - A y|.
                error = (np.abs(r - np.bincount(row_index, values * y[cols],
                                                minlength=n)).max()
                         + 2.0**-50 * (norm * gain + size))
                step = math.frexp(size / error)[1] - 2
            # A guide worth fewer than 8 bits a step is near singular, and
            # _solve proves or refutes that exactly.
            if step < 8:
                return None
            # Rounding z adds up to |A| / 2 to the residual.
            step = max(step, math.frexp(norm / size)[1] + 2)
            z = list(map(int, np.rint(np.ldexp(y, step)).tolist()))
            numer = [(u << step) + t for u, t in zip(numer, z)]
            bits += step
            # The new error is A^-1 r' = 2^k (A^-1 r - y) + (2^k y - z): about
            # gain / size times 2^k |r - A y|, plus 1/2, with room to spare.
            eta = math.ceil(4 * gain / size * error * 2.0**step) + 1
            candidate = _rebuild(numer, bits, eta)
            if candidate is not None and _satisfies(rows, rhs, *candidate):
                return candidate
            if bits > 2 * limit + eta.bit_length() + 64:
                return None
            residual = [(u << step) - _dot(row, z)
                        for row, u in zip(rows, residual)]
            r = np.array(residual, dtype=float) * scale
            if not np.abs(r).max() <= size * 2.0**(step - 1):
                return None
    except (OverflowError, np.linalg.LinAlgError):
        return None
    return 1 << bits, numer


def _solve_nonsingular(rows: list[dict[int, int]], rhs: list[int]
                       ) -> tuple[int, list[int]]:
    """``_solve_lifted`` for a square system of integer rows proven
    nonsingular, or ``_solve`` where its float guide fails."""
    return _solve_lifted(rows, rhs) or _solve(rows, rhs)


def _check_shape(rows: Sequence[Mapping[int, object]], name: str) -> None:
    """Every column index of a square system is an integer (not a bool) in
    0 .. n - 1."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j in row:
            if (isinstance(j, bool) or not isinstance(j, (int, np.integer))
                    or not 0 <= j < n):
                raise ValidationError(f"a column index lies outside "
                                      f"0..{n - 1}: {name}[{i}] has {j!r}")


def solve_linear_exact(matrix: Sequence[Mapping[int, Fraction]],
                       rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system exactly.

    ``matrix[i]`` maps each column j to A[i][j]; an absent column is zero.
    Each row and its right-hand side are scaled to integers once and solved
    by ``_solve``.  Raises ValidationError if the system is not square and
    NumericalError if it is singular.
    """
    if len(rhs) != len(matrix):
        raise ValidationError(f"{len(rhs)} right-hand sides for {len(matrix)} rows")
    _check_shape(matrix, "matrix")
    scaled = [scale_to_integers([*(_rational(x, "matrix", i, j)
                                   for j, x in row.items()),
                                 _rational(r, "rhs", i)])
              for i, (row, r) in enumerate(zip(matrix, rhs))]
    common, x = _solve([dict(zip(row, ints)) for row, (_, ints)
                        in zip(matrix, scaled)], [ints[-1] for _, ints in scaled])
    return [Fraction(v, common) for v in x]


def stationary_exact(block: Sequence[Mapping[int, Fraction]]) -> list[Fraction]:
    """Unique stationary vector of an irreducible column-stochastic block.

    ``block[j]`` maps each i to the transition weight i -> j; an absent i is
    zero.  Row j of P - I is scaled to integers once, by the lcm s_j of its
    denominators; over L = lcm(s_j), column i of P sums to 1 exactly when
    the scaled rows, each times L / s_j, sum to 0 there.  The first c-1
    balance rows plus normalization form the system that is solved.

    When every weight is positive and the support is strongly connected,
    Perron-Frobenius makes that system nonsingular: 1 is a simple eigenvalue
    of P, so P - I has rank c-1 and, its rows summing to zero, any c-1 of
    them are independent; their kernel is spanned by a positive vector,
    which the all-ones row does not annihilate.  The system then goes to
    ``_solve_nonsingular``; every other block goes to ``_solve``, which
    proves singularity where it holds.
    Positivity and P v = v over every balance row are then checked in
    integers.
    """
    _check_shape(block, "block")
    c = len(block)
    if not c:
        raise ValidationError("block has no states")
    balance, scales = [], []
    positive = True
    for j, row in enumerate(block):
        ratios = [_rational(x, "block", j, i).as_integer_ratio()
                  for i, x in row.items()]
        scale = math.lcm(*[den for _, den in ratios])
        entries = {i: num * (scale // den)
                   for i, (num, den) in zip(row, ratios) if num}
        positive = positive and min(entries.values(), default=1) > 0
        entries[j] = entries.get(j, 0) - scale
        balance.append(entries)
        scales.append(scale)
    common = math.lcm(*scales)
    col_sums = [0] * c
    for entries, scale in zip(balance, scales):
        factor = common // scale
        for i, a in entries.items():
            col_sums[i] += a * factor
    for i, col_sum in enumerate(col_sums):
        if col_sum != 0:
            total = Fraction(col_sum + common, common)
            raise ValidationError(f"column {i} sums to {total}, expected 1")
    rows, rhs = balance[:-1] + [dict.fromkeys(range(c), 1)], [0] * (c - 1) + [1]
    # balance[j] holds the predecessors of j: one strong component is a
    # strongly connected support.
    den, v = (_solve_nonsingular
              if positive and len(_strong_components(balance)) == 1
              else _solve)(rows, rhs)
    if any(x <= 0 for x in v):
        raise NumericalError("stationary vector not positive; block reducible?")
    # The solver certified every other balance row.
    if not _satisfies(balance[-1:], [0], den, v):
        raise NumericalError("exact stationary vector fails its balance")
    return [Fraction(x, den) for x in v]
