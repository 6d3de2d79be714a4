"""Exact rational helpers: "p/q" (de)serialization and exact linear solves.

Every system is given as sparse rows: row i is a mapping {column: value},
and an absent column is zero.  Square rational systems, and with them the
stationary vectors of column-stochastic rational blocks, are solved modulo
31-bit primes by integer Gauss-Jordan elimination.  The residues are joined
by the Chinese remainder theorem, each entry is rebuilt by rational
reconstruction (Wang 1981), and a candidate is returned only once it
satisfies the system exactly in integer arithmetic.  A nonsingular system
has one solution, so the result is the same ``Fraction`` vector that
elimination over ``Fraction`` gives, and identities that hold exactly in
theory can be asserted with zero tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError


def parse_rational(value) -> Fraction:
    """Accept Fraction, int, or a "p/q" / "p" string; a bool is not a
    number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {value!r}") from exc
    raise ValidationError(f"not a rational literal: {value!r}")


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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


def _reconstruct(u: int, modulus: int, bound: int) -> Fraction | None:
    """The fraction n/d = u (mod modulus) with |n|, d <= bound, if any.

    Wang's extended-Euclid reconstruction; unique when 2 bound^2 < modulus.
    """
    r0, r1 = modulus, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _candidate(residues: list[int], modulus: int) -> list[Fraction] | None:
    """Rebuild every entry from its residue, or None if one fails.

    Entries share most of their denominator, so each entry is first tried
    as (L u mod modulus) / L with L the lcm of the denominators so far; only
    when that numerator is too large is the entry reconstructed on its own.
    """
    bound = math.isqrt((modulus - 1) // 2)
    half = modulus // 2
    common = 1
    out = []
    for u in residues:
        scaled = u * common % modulus
        if scaled > half:
            scaled -= modulus
        if abs(scaled) <= bound:
            out.append(Fraction(scaled, common))
            continue
        value = _reconstruct(u, modulus, bound)
        if value is None:
            return None
        common = math.lcm(common, value.denominator)
        out.append(value)
    return out


def _satisfies(rows, rhs: list[int], x: list[Fraction]) -> bool:
    """A x == b exactly, over the entries of sparse integer rows."""
    common, scaled = scale_to_integers(x)
    return all(sum(a * scaled[j] for j, a in row.items()) == b * common
               for row, b in zip(rows, rhs))


def solve_linear_exact(matrix: Sequence[Mapping[int, Fraction]],
                       rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system exactly.

    ``matrix[i]`` maps each column j to A[i][j]; an absent column is zero.
    Each row is scaled to integers, the system is solved modulo primes below
    2^31 (a prime that divides the determinant is skipped), the residues are
    joined by CRT and rebuilt by rational reconstruction, and the first
    candidate that satisfies every equation exactly is returned.  Cramer's
    rule and the Hadamard bound H of the scaled system bound the loop: once
    the modulus exceeds 2 H^2 reconstruction cannot fail, and once the
    skipped primes multiply past H the determinant is zero.

    Raises NumericalError if the matrix is singular.
    """
    n = len(matrix)
    rows: list[dict[int, int]] = []
    b: list[int] = []
    hadamard_sq = 1
    for row, r in zip(matrix, rhs):
        _, ints = scale_to_integers(
            [_rational(x) for x in row.values()] + [_rational(r)])
        rows.append(dict(zip(row, ints[:-1])))
        b.append(ints[-1])
        hadamard_sq *= sum(a * a for a in ints)
    # |det A| and every |det A_j| (Cramer) are at most hadamard.
    hadamard = math.isqrt(hadamard_sq)

    # The system stays sparse: each prime reduces the entries (then b) and
    # scatters them into the one dense array that _solve_mod overwrites.
    row_index = np.array([i for i, row in enumerate(rows) for _ in row],
                         dtype=np.intp)
    cols = np.array([j for row in rows for j in row], dtype=np.intp)
    entries = [a for row in rows for a in row.values()] + b
    stored = len(entries) - n
    small = all(abs(v) < 2**63 for v in entries)
    if small:
        entries = np.array(entries, dtype=np.int64)
    aug = np.empty((n, n + 1), dtype=np.int64)

    modulus, residues = 1, [0] * n
    skipped, index = 1, 0
    while skipped <= hadamard:
        p = _prime(index)
        index += 1
        reduced = (entries % p if small
                   else np.array([v % p for v in entries], dtype=np.int64))
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
        if candidate is not None and _satisfies(rows, b, candidate):
            return candidate
        if modulus > 2 * hadamard**2:
            raise NumericalError(
                "rational reconstruction failed past the Hadamard bound")
    raise NumericalError("singular rational system")


def stationary_exact(block: Sequence[Mapping[int, Fraction]]) -> list[Fraction]:
    """Unique stationary vector of an irreducible column-stochastic block.

    ``block[j]`` maps each i to the transition weight i -> j; an absent i is
    zero.  Columns must sum to 1 exactly.  The first c-1 balance equations
    plus normalization determine the vector; irreducibility makes the reduced
    system nonsingular and the result strictly positive.  The integer balance
    rows and the all-ones row go to ``solve_linear_exact`` as they are, and
    P v = v is then checked exactly over the entries of every balance row.
    """
    c = len(block)
    col_sums = [Fraction(0)] * c
    balance: list[dict[int, int]] = []
    for j, row in enumerate(block):
        values = [_rational(x) for x in row.values()]
        for i, x in zip(row, values):
            col_sums[i] += x
        # Row j of P - I, scaled to integers.
        scale, ints = scale_to_integers(values)
        entries = dict(zip(row, ints))
        entries[j] = entries.get(j, 0) - scale
        balance.append(entries)
    for i, col_sum in enumerate(col_sums):
        if col_sum != 1:
            raise ValidationError(f"column {i} sums to {col_sum}, expected 1")
    v = solve_linear_exact(balance[:-1] + [dict.fromkeys(range(c), 1)],
                           [0] * (c - 1) + [1])
    if any(x <= 0 for x in v):
        raise NumericalError("stationary vector not positive; block reducible?")
    if not _satisfies(balance, [0] * c, v):
        raise NumericalError("exact stationary vector fails its balance")
    return v
