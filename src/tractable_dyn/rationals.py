"""Exact rational helpers: "p/q" (de)serialization and exact linear solves.

Every system is given as sparse rows: row i is a mapping {column: value},
and an absent column is zero.  There are two integer cores, and both return
integer numerators over one common denominator only once they satisfy the
system exactly in integers (``_satisfies``):

- ``_solve`` solves rows of integers modulo 31-bit primes by Gauss-Jordan
  elimination, joins the residues by the Chinese remainder theorem and
  rebuilds each entry by rational reconstruction (Wang 1981).  It proves a
  system singular when the skipped primes pass the Hadamard bound.
- ``_solve_lifted`` is for systems already known to be nonsingular.  Floats
  propose and integers certify: each step is one float64 LAPACK solve of
  A y = r, and z = round(2^k y) lifts the answer by k bits against an exact
  integer residual r <- 2^k r - A z (Dixon 1982, in the numeric form of Wan
  2006).  The entries are rebuilt by continued fractions.  When the float
  guide fails, it returns None and the caller uses ``_solve``.

``solve_linear_exact`` and ``stationary_exact`` are the ``Fraction``
adapters: each scales every row to integers once.  ``solve_linear_exact``
always uses ``_solve``, because only it proves singularity.
``stationary_exact`` uses ``_solve_lifted`` when it can prove, in integers
and in O(E), that its system is nonsingular: every weight is positive and
the support is strongly connected, so Perron-Frobenius applies (see its
docstring).  A nonsingular system has one solution, so either core gives
the vector that elimination over ``Fraction`` gives, whatever the float
rounding or BLAS threading, and identities that hold exactly in theory can
be asserted with zero tolerance.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

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


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _rational(x) -> int | Fraction:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def scale_to_integers(values) -> tuple[int, list[int]]:
    """(L, [x L for x in values]) with L the lcm of their denominators."""
    common = math.lcm(*(x.denominator for x in values))
    return common, [x.numerator * (common // x.denominator) for x in values]


# Primes below 2^31, largest first, found on demand and kept (the sequence
# is fixed, so every caller shares it): residues stay below 2^31, so every
# product of two fits in int64.
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 7; bases 2, 3, 5, 7 are exact below 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(index: int) -> int:
    """The index-th prime below 2^31, counting down from 2^31 - 1."""
    candidate = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
    while len(_PRIMES) <= index:
        if _is_prime(candidate):
            _PRIMES.append(candidate)
        candidate -= 2
    return _PRIMES[index]


def _solve_mod(aug: np.ndarray, p: int) -> np.ndarray | None:
    """Solve the augmented system [A | b] modulo p by Gauss-Jordan.

    ``aug`` holds the integer system reduced mod p as int64 (it is
    overwritten).  Returns x with A x = b (mod p), or None when A is singular
    mod p, that is when p divides det A.
    """
    n = aug.shape[0]
    for col in range(n):
        candidates = np.flatnonzero(aug[col:, col])
        if candidates.size == 0:
            return None
        pivot = col + int(candidates[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        row = aug[col, col:] * pow(int(aug[col, col]), -1, p) % p
        aug[col, col:] = row
        factors = aug[:, col].copy()
        factors[col] = 0
        rows = np.flatnonzero(factors)
        if rows.size:
            aug[rows, col:] = (aug[rows, col:]
                               - factors[rows, None] * row) % p
    return aug[:, n]


def _candidate(residues: list[int], modulus: int
               ) -> tuple[int, list[int]] | None:
    """(L, [x L]) for the entries x rebuilt from their residues, or None if
    one fails.

    Entries share most of their denominator, so each entry is first tried
    as (L u mod modulus) / L with L the lcm of the denominators so far; only
    when that numerator is too large is the entry reconstructed on its own,
    by Wang's extended Euclid (unique when 2 bound^2 < modulus).
    """
    bound, half = math.isqrt((modulus - 1) // 2), modulus // 2
    common, entries = 1, []
    for u in residues:
        num, den = u * common % modulus, common
        if num > half:
            num -= modulus
        if abs(num) > bound:
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
                return None
            num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
            common = math.lcm(common, den)
        entries.append((num, den))
    return common, [num * (common // den) for num, den in entries]


def _dot(row: Mapping[int, int], x: list[int]) -> int:
    """The exact product of a sparse integer row with x."""
    return sum(map(mul, row.values(), map(x.__getitem__, row)))


def _satisfies(rows, rhs: list[int], common: int, x: list[int]) -> bool:
    """A (x / common) == b exactly, over the entries of sparse integer rows."""
    return all(_dot(row, x) == b * common for row, b in zip(rows, rhs))


def _solve(rows: list[dict[int, int]], rhs: list[int]
           ) -> tuple[int, list[int]]:
    """(L, x) with A (x / L) = b, for a square system of integer rows.

    A prime that divides det A is skipped.  Cramer's rule and the Hadamard
    bound H of the rows bound the loop: once the modulus exceeds 2 H^2
    reconstruction cannot fail, and once the skipped primes multiply past H
    the determinant is zero (NumericalError).
    """
    n = len(rows)
    # |det A| and every |det A_j| (Cramer) are at most hadamard.
    hadamard = math.isqrt(math.prod(sum(a * a for a in row.values()) + b * b
                                    for row, b in zip(rows, rhs)))

    # The system stays sparse: each prime reduces the entries (then b) and
    # scatters them into the one dense array that _solve_mod overwrites.
    row_index = np.repeat(np.arange(n), [len(row) for row in rows])
    cols = np.array([j for row in rows for j in row], dtype=np.intp)
    entries = [a for row in rows for a in row.values()] + rhs
    stored = len(entries) - n
    small = all(abs(v) < 2**63 for v in entries)
    entries = np.array(entries, dtype=np.int64 if small else object)
    aug = np.empty((n, n + 1), dtype=np.int64)

    modulus, residues = 1, [0] * n
    skipped, index = 1, 0
    while skipped <= hadamard:
        p = _prime(index)
        index += 1
        reduced = entries % p
        aug.fill(0)
        aug[row_index, cols] = reduced[:stored]
        aug[:, n] = reduced[stored:]
        x = _solve_mod(aug, p)
        if x is None:
            skipped *= p
            continue
        # CRT: the new residues agree with the old ones mod modulus.
        inverse = pow(modulus % p, -1, p)
        old = np.array([u % p for u in residues], dtype=np.int64)
        step = (x - old) % p * inverse % p
        residues = [u + modulus * int(t) for u, t in zip(residues, step)]
        modulus *= p
        candidate = _candidate(residues, modulus)
        if candidate is not None and _satisfies(rows, rhs, *candidate):
            return candidate
        if modulus > 2 * hadamard**2:
            raise NumericalError(
                "rational reconstruction failed past the Hadamard bound")
    raise NumericalError("singular rational system")


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

    As in ``_candidate``, each entry is first tried over the lcm L of the
    denominators so far (the nearest num / L); only when that misses is it
    rebuilt on its own as the last convergent of u / 2^bits whose
    denominator is at most sqrt(2^bits / (2 eta)).  Two fractions with such
    denominators differ by at least 2 eta / 2^bits, so that convergent is
    the entry whenever eta bounds the error.
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
            # A step of _solve_mod gains 31 bits and takes about ten times
            # as long as a LAPACK solve of the same size: a guide worth
            # fewer than 8 bits a step is left to _solve.
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


def _check_shape(rows: Sequence[Mapping[int, object]]) -> None:
    """Every column index of a square system lies in 0 .. n - 1."""
    if any(row and not 0 <= min(row) <= max(row) < len(rows) for row in rows):
        raise ValidationError(f"a column index lies outside 0..{len(rows) - 1}")


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
    _check_shape(matrix)
    scaled = [scale_to_integers([*map(_rational, row.values()), _rational(r)])
              for row, r in zip(matrix, rhs)]
    common, x = _solve([dict(zip(row, ints)) for row, (_, ints)
                        in zip(matrix, scaled)], [ints[-1] for _, ints in scaled])
    return [Fraction(v, common) for v in x]


def _strongly_connected(sources: list[dict[int, int]]) -> bool:
    """Whether the digraph with an edge i -> j for each i in sources[j] is
    strongly connected: vertex 0 reaches every vertex and every vertex
    reaches 0, by two breadth-first searches in O(E)."""
    n = len(sources)
    targets: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(sources):
        for i in row:
            targets[i].append(j)
    for adjacency in (sources, targets):
        seen, frontier = {0}, {0}
        while frontier:
            frontier = set().union(*map(adjacency.__getitem__, frontier)) - seen
            seen |= frontier
        if len(seen) < n:
            return False
    return n > 0


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
    ``_solve_lifted``; every other block, and any block whose float guide
    fails, goes to ``_solve``, which proves singularity where it holds.
    Positivity and P v = v over every balance row are then checked in
    integers.
    """
    _check_shape(block)
    c = len(block)
    balance, scales = [], []
    positive = True
    for j, row in enumerate(block):
        ratios = [_rational(x).as_integer_ratio() for x in row.values()]
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
    solved = (_solve_lifted(rows, rhs)
              if positive and _strongly_connected(balance) else None)
    den, v = solved if solved is not None else _solve(rows, rhs)
    if any(x <= 0 for x in v):
        raise NumericalError("stationary vector not positive; block reducible?")
    # The solver certified every other balance row.
    if not _satisfies(balance[-1:], [0], den, v):
        raise NumericalError("exact stationary vector fails its balance")
    return [Fraction(x, den) for x in v]
