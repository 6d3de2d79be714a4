"""Exact rational helpers: "p/q" (de)serialization and small linear solves.

Stationary vectors of column-stochastic rational matrices are computed by
Gaussian elimination over Fraction, so identities that hold exactly in theory
can be asserted with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NumericalError, ValidationError


def parse_rational(value) -> Fraction:
    """Accept Fraction, int, or a "p/q" / "p" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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


def solve_linear_exact(matrix: Sequence[Sequence[Fraction]],
                       rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system by Gaussian elimination.

    Raises NumericalError if the matrix is singular.
    """
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NumericalError("singular rational system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def stationary_exact(block: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Unique stationary vector of an irreducible column-stochastic block.

    ``block[j][i]`` is the transition weight i -> j.  Columns must sum to 1
    exactly.  The first c-1 balance equations plus normalization determine the
    vector; irreducibility makes the reduced system nonsingular and the result
    strictly positive.
    """
    c = len(block)
    for i in range(c):
        col_sum = sum(block[j][i] for j in range(c))
        if col_sum != 1:
            raise ValidationError(f"column {i} sums to {col_sum}, expected 1")
    rows = [[block[r][i] - (1 if r == i else 0) for i in range(c)]
            for r in range(c - 1)]
    rows.append([Fraction(1)] * c)
    rhs = [Fraction(0)] * (c - 1) + [Fraction(1)]
    v = solve_linear_exact(rows, rhs)
    if any(x <= 0 for x in v):
        raise NumericalError("stationary vector not positive; block reducible?")
    residual = [sum(block[j][i] * v[i] for i in range(c)) - v[j]
                for j in range(c)]
    if any(r != 0 for r in residual):
        raise NumericalError("exact stationary vector fails its balance")
    return v
