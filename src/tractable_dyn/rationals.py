"""Exact rational helpers: "p/q" (de)serialization and exact linear solves.

Every system is given as sparse rows: row i is a mapping {column: value},
and an absent column is zero.  The integer core ``_solve`` solves rows of
integers modulo 31-bit primes by Gauss-Jordan elimination, joins the
residues by the Chinese remainder theorem, rebuilds each entry by rational
reconstruction (Wang 1981) and returns integer numerators over one common
denominator once they satisfy the system exactly.  ``solve_linear_exact``
and ``stationary_exact`` are its ``Fraction`` adapters: each scales every
row to integers once.  A nonsingular system has one solution, so the result
is the vector that elimination over ``Fraction`` gives, and identities that
hold exactly in theory can be asserted with zero tolerance.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

# max(len(whole), 1) + len(fraction) + |exponent| bounds the digits of a
# decimal's value: only an exponent or a long literal can pass the limit.
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*\Z")


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
                raise ValidationError(
                    f"rational literal {value!r} has more than {limit} digits")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {value!r}") from exc
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


def _satisfies(rows, rhs: list[int], common: int, x: list[int]) -> bool:
    """A (x / common) == b exactly, over the entries of sparse integer rows."""
    return all(sum(a * x[j] for j, a in row.items()) == b * common
               for row, b in zip(rows, rhs))


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


def stationary_exact(block: Sequence[Mapping[int, Fraction]]) -> list[Fraction]:
    """Unique stationary vector of an irreducible column-stochastic block.

    ``block[j]`` maps each i to the transition weight i -> j; an absent i is
    zero.  Row j of P - I is scaled to integers once, by the lcm s_j of its
    denominators; over L = lcm(s_j), column i of P sums to 1 exactly when
    the scaled rows, each times L / s_j, sum to 0 there.  The first c-1
    balance rows plus normalization go to ``_solve``: irreducibility makes
    that system nonsingular and its solution strictly positive.  Positivity
    and P v = v over every balance row are then checked in integers.
    """
    _check_shape(block)
    c = len(block)
    balance, scales = [], []
    for j, row in enumerate(block):
        scale, ints = scale_to_integers(list(map(_rational, row.values())))
        entries = dict(zip(row, ints))
        entries[j] = entries.get(j, 0) - scale
        balance.append(entries)
        scales.append(scale)
    common = math.lcm(*scales)
    col_sums = [0] * c
    for entries, scale in zip(balance, scales):
        for i, a in entries.items():
            col_sums[i] += a * (common // scale)
    for i, col_sum in enumerate(col_sums):
        if col_sum != 0:
            total = Fraction(col_sum + common, common)
            raise ValidationError(f"column {i} sums to {total}, expected 1")
    den, v = _solve(balance[:-1] + [dict.fromkeys(range(c), 1)],
                    [0] * (c - 1) + [1])
    if any(x <= 0 for x in v):
        raise NumericalError("stationary vector not positive; block reducible?")
    if not _satisfies(balance, [0] * c, den, v):
        raise NumericalError("exact stationary vector fails its balance")
    return [Fraction(x, den) for x in v]
