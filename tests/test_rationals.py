"""Certified exact solves against dense Gauss-Jordan over Fraction.

``rationals.solve_linear_exact`` solves by fraction-free elimination, and
``stationary_exact`` by float-guided lifting wherever it can prove its block
nonsingular; both certify the answer exactly, so their answers must equal
the ``oracles`` elimination ``Fraction`` for ``Fraction``, and their error
paths must match the old ones.  The multi-modular solver that elimination
replaced is ``oracles.modular_solve``, and ``_solve`` must equal it.
The library takes sparse rows; every case here is written densely, as the
oracle takes it, and handed to the library through ``sparse``.
"""

import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tractable_dyn as td
from tractable_dyn import rationals
import oracles


def sparse(rows):
    """Dense rows as the {column: value} rows the library takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def split(rng, total, parts):
    """``parts`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_block(rng, size, max_den, period=1, extra=2):
    """An irreducible column-stochastic block with denominators <= max_den.

    A random Hamiltonian cycle makes the block irreducible; extra edges go
    only from one residue class mod ``period`` to the next, so a period > 1
    gives a periodic block.
    """
    order = list(range(size))
    rng.shuffle(order)
    phase = {s: k % period for k, s in enumerate(order)}
    targets = {s: {order[(k + 1) % size]} for k, s in enumerate(order)}
    for s in range(size):
        fits = [t for t in range(size) if phase[t] == (phase[s] + 1) % period]
        targets[s].update(rng.sample(fits, min(len(fits), rng.randint(0, extra))))
    block = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        succ = sorted(targets[i])
        den = rng.randint(len(succ), max(len(succ), max_den))
        for j, w in zip(succ, split(rng, den, len(succ))):
            block[j][i] = Fraction(w, den)
    return block


def perm_phi(rng, n_symbols, window):
    """A right-permutive rule: phi = last symbol + h(earlier symbols) mod N."""
    low = n_symbols ** (window - 1)
    h = [rng.randrange(n_symbols) for _ in range(low)]
    return tuple((h[v % low] + v // low) % n_symbols
                 for v in range(n_symbols ** window))


def class_block(model, members):
    """The coarse-cover block of a terminal class, as base_class_stationary builds it."""
    position = {i: p for p, i in enumerate(members)}
    block = [[Fraction(0)] * len(members) for _ in members]
    for i, j, w in zip(model.j_map, model.gamma, model.nu):
        if i in position and j in position:
            block[position[j]][position[i]] += w
    return block


def test_stationary_matches_oracle_on_random_blocks():
    rng = random.Random(1606)
    sizes = list(range(1, 13)) + [rng.randint(13, 60) for _ in range(10)] + [60]
    for size in sizes:
        max_den = rng.choice([2, 10, 1000, 10**6])
        block = random_block(rng, size, max_den)
        assert rationals.stationary_exact(sparse(block)) == \
            oracles.stationary_exact(block), (size, max_den)


def test_stationary_matches_oracle_on_periodic_blocks():
    rng = random.Random(2606)
    for period, size in [(2, 2), (2, 8), (3, 9), (3, 30), (4, 40), (5, 60)]:
        block = random_block(rng, size, 10**6, period=period)
        v = rationals.stationary_exact(sparse(block))
        assert v == oracles.stationary_exact(block), (period, size)
        assert sum(v) == 1


def test_stationary_matches_oracle_on_right_permutive_classes():
    rng = random.Random(3606)
    for n_symbols, window, n in [(2, 2, 3), (2, 3, 4), (2, 4, 5), (3, 2, 3),
                                 (3, 3, 3)]:
        code = td.SlidingBlockCode(n_symbols, window, perm_phi(rng, n_symbols,
                                                               window))
        model = td.shiftlike.to_two_alphabet(td.derive_gamma(code, n))
        pairs = [p for p in td.basic_set_correspondence(model).pairs
                 if p.terminal]
        assert len(pairs) == 1 and len(pairs[0].base_members) == n_symbols ** n
        block = class_block(model, pairs[0].base_members)
        assert rationals.stationary_exact(sparse(block)) == \
            oracles.stationary_exact(block)


def test_solve_matches_oracle_on_random_systems():
    rng = random.Random(4606)
    for _ in range(40):
        n = rng.randint(1, 12)
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))
                   if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
                  for _ in range(n)]
        rhs = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50))
               for _ in range(n)]
        try:
            expected = oracles.solve_linear_exact(matrix, rhs)
        except td.NumericalError:
            with pytest.raises(td.NumericalError, match="singular"):
                rationals.solve_linear_exact(sparse(matrix), rhs)
            continue
        assert rationals.solve_linear_exact(sparse(matrix), rhs) == expected


def test_solve_with_entries_beyond_int64():
    big = Fraction(3**80, 7**30)
    matrix = [[big, Fraction(1, 2**70)], [Fraction(5), -big]]
    rhs = [Fraction(1), Fraction(2**100)]
    assert rationals.solve_linear_exact(sparse(matrix), rhs) == \
        oracles.solve_linear_exact(matrix, rhs)


def test_explicit_zero_entries_change_nothing():
    matrix = [[Fraction(2, 3), Fraction(0), Fraction(1, 5)],
              [Fraction(0), Fraction(7), Fraction(-1, 2)],
              [Fraction(1), Fraction(1, 9), Fraction(0)]]
    rhs = [Fraction(1), Fraction(0), Fraction(-4, 3)]
    rows = sparse(matrix)
    rows[0][1] = Fraction(0)
    rows[2][2] = 0
    assert rationals.solve_linear_exact(rows, rhs) == \
        oracles.solve_linear_exact(matrix, rhs)
    block = [[Fraction(1, 2), Fraction(1, 3), Fraction(0)],
             [Fraction(1, 2), Fraction(0), Fraction(1)],
             [Fraction(0), Fraction(2, 3), Fraction(0)]]
    rows = sparse(block)
    rows[2][0] = Fraction(0)
    assert rationals.stationary_exact(rows) == oracles.stationary_exact(block)


def test_singular_system_raises():
    with pytest.raises(td.NumericalError, match="singular rational system"):
        rationals.solve_linear_exact(sparse([[1, 2], [2, 4]]), [1, 2])
    with pytest.raises(td.NumericalError, match="singular rational system"):
        rationals.solve_linear_exact(sparse([[0, 0], [0, 1]]), [0, 1])


def test_prime_dividing_the_determinant_is_skipped():
    p = oracles.prime(0)
    aug = np.array([[p, 1, 1], [0, 1, 2]], dtype=np.int64) % p
    assert oracles.solve_mod(aug, p) is None
    aug = np.array([[p, 1, 1], [0, 1, 2]], dtype=np.int64) % oracles.prime(1)
    assert oracles.solve_mod(aug, oracles.prime(1)) is not None
    # det = p: the modular oracle skips the first prime and the second one
    # certifies; the library's elimination gives the same answer.
    assert rationals.solve_linear_exact(sparse([[p, 1], [0, 1]]), [1, 2]) == \
        [Fraction(-1, p), Fraction(2)]


def test_bad_column_sum_message():
    block = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)]]
    with pytest.raises(td.ValidationError,
                       match=r"^column 1 sums to 2/3, expected 1$"):
        rationals.stationary_exact(sparse(block))
    with pytest.raises(td.ValidationError,
                       match=r"^column 0 sums to 0, expected 1$"):
        rationals.stationary_exact(sparse([[Fraction(0), Fraction(1)],
                                           [Fraction(0), Fraction(0)]]))


def test_two_closed_classes_raise():
    # States 0 and 1 each absorb; 2 splits between them.  The balance
    # system is singular, and elimination finds a column with no pivot.
    block = [[Fraction(1), Fraction(0), Fraction(1, 3)],
             [Fraction(0), Fraction(1), Fraction(2, 3)],
             [Fraction(0), Fraction(0), Fraction(0)]]
    with pytest.raises(td.NumericalError, match="singular"):
        rationals.stationary_exact(sparse(block))
    # Two closed random classes side by side, with large denominators.
    rng = random.Random(5606)
    first, second = random_block(rng, 20, 10**6), random_block(rng, 25, 10**6)
    block = ([row + [Fraction(0)] * 25 for row in first]
             + [[Fraction(0)] * 20 + row for row in second])
    start = time.perf_counter()
    with pytest.raises(td.NumericalError, match="singular"):
        rationals.stationary_exact(sparse(block))
    assert time.perf_counter() - start < 2.0


def test_transient_state_raises_not_positive():
    block = [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]
    with pytest.raises(td.NumericalError, match="not positive"):
        rationals.stationary_exact(sparse(block))


def test_irreducible_blocks_take_the_lifted_path(monkeypatch):
    # The blocks of the three oracle tests above, plus right-permutive
    # classes of the sizes the blockmap workload solves.
    blocks = []
    rng = random.Random(1606)
    sizes = list(range(1, 13)) + [rng.randint(13, 60) for _ in range(10)] + [60]
    for size in sizes:
        max_den = rng.choice([2, 10, 1000, 10**6])
        blocks.append(random_block(rng, size, max_den))
    rng = random.Random(2606)
    for period, size in [(2, 2), (2, 8), (3, 9), (3, 30), (4, 40), (5, 60)]:
        blocks.append(random_block(rng, size, 10**6, period=period))
    for seed, shapes in [(3606, [(2, 2, 3), (2, 3, 4), (2, 4, 5), (3, 2, 3),
                                 (3, 3, 3)]),
                         (8606, [(2, 2, 5), (2, 3, 6), (3, 3, 3), (3, 3, 4)])]:
        rng = random.Random(seed)
        for n_symbols, window, n in shapes:
            code = td.SlidingBlockCode(n_symbols, window,
                                       perm_phi(rng, n_symbols, window))
            model = td.shiftlike.to_two_alphabet(td.derive_gamma(code, n))
            pair, = [p for p in td.basic_set_correspondence(model).pairs
                     if p.terminal]
            blocks.append(class_block(model, pair.base_members))
    assert {27, 32, 64, 81} <= {len(b) for b in blocks}

    def refuse(rows, rhs):
        raise AssertionError("the modular solver was reached")

    with monkeypatch.context() as patch:
        patch.setattr(rationals, "_solve", refuse)
        vectors = [rationals.stationary_exact(sparse(b)) for b in blocks]
    for block, v in zip(blocks, vectors):
        assert v == oracles.stationary_exact(block), len(block)


def test_blocks_outside_the_lifting_proof_reach_the_modular_solver(monkeypatch):
    calls = []
    solve = rationals._solve

    def counting(rows, rhs):
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(rationals, "_solve", counting)
    tiny, far = Fraction(1, 10**30), Fraction(1, 2**1101)
    half = Fraction(1, 2)
    solvable = {
        # Column sums are 1, but a weight is negative.
        "negative weight": [[-half, Fraction(1, 3)],
                            [Fraction(3, 2), Fraction(2, 3)]],
        # Row 0 scales to the integers -1 and 2^1101.
        "entry past the float range": [[1 - far, Fraction(1)],
                                       [far, Fraction(0)]],
        # Two pairs of states joined by weights 10^-30: P - I has an
        # eigenvalue near -10^-30, past what float64 can resolve.
        "ill-conditioned": [[half, half - tiny, tiny, 0],
                            [half - tiny, half, 0, tiny],
                            [tiny, 0, half, half - tiny],
                            [0, tiny, half - tiny, half]],
    }
    for name, block in solvable.items():
        calls.clear()
        assert rationals.stationary_exact(sparse(block)) == \
            oracles.stationary_exact(block), name
        assert calls, name
    rng = random.Random(5606)
    first, second = random_block(rng, 20, 10**6), random_block(rng, 25, 10**6)
    failing = [
        ([[Fraction(1), Fraction(0), Fraction(1, 3)],
          [Fraction(0), Fraction(1), Fraction(2, 3)],
          [Fraction(0), Fraction(0), Fraction(0)]], "singular rational system"),
        ([row + [Fraction(0)] * 25 for row in first]
         + [[Fraction(0)] * 20 + row for row in second],
         "singular rational system"),
        ([[Fraction(1), half], [Fraction(0), half]], "not positive"),
    ]
    for block, message in failing:
        calls.clear()
        with pytest.raises(td.NumericalError, match=message):
            rationals.stationary_exact(sparse(block))
        assert calls == [len(block)]


def test_lifted_solver_matches_the_modular_solver_on_signed_systems():
    # Strictly diagonally dominant rows are nonsingular and well conditioned,
    # so the float guide must carry each system, negative entries and
    # answers included, to the answer of the elimination in `_solve`.
    rng = random.Random(9606)
    for _ in range(30):
        n = rng.randint(1, 40)
        rows = [{j: rng.randint(-50, 50)
                 for j in rng.sample(range(n), min(n, 3))} for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = rng.choice([-1, 1]) * (
                sum(abs(a) for j, a in row.items() if j != i) + rng.randint(1, 9))
        rhs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        lifted = rationals._solve_lifted(rows, rhs)
        assert lifted is not None, n
        common, x = rationals._solve(rows, rhs)
        assert [Fraction(v, lifted[0]) for v in lifted[1]] == \
            [Fraction(v, common) for v in x]


def solved_or_message(solve, rows, rhs):
    """A solver's answer as Fractions, or the message of its NumericalError."""
    try:
        common, x = solve(rows, rhs)
    except td.NumericalError as exc:
        return str(exc)
    return [Fraction(v, common) for v in x]


def test_elimination_matches_the_modular_oracle():
    rng = random.Random(10606)
    systems = []
    # Random sparse systems of up to 40 unknowns, a few of them singular.
    for _ in range(64):
        n = rng.randint(1, 40)
        rows = [{j: rng.choice((-1, 1)) * rng.randint(1, 9) for j in range(n)
                 if rng.random() < 0.4} for _ in range(n)]
        systems.append((rows, [rng.randint(-99, 99) for _ in range(n)]))
    # Rank-deficient: one row a combination of two others, with a
    # consistent and an inconsistent right-hand side.
    for _ in range(6):
        n = rng.randint(3, 20)
        rows = [{j: rng.randint(-9, 9) for j in range(n)} for _ in range(n)]
        rhs = [rng.randint(-99, 99) for _ in range(n)]
        a, b, c = rng.sample(range(n), 3)
        rows[c] = {j: 2 * rows[a][j] - 3 * rows[b][j] for j in range(n)}
        rhs[c] = 2 * rhs[a] - 3 * rhs[b] + rng.choice((0, 1))
        systems.append((rows, rhs))
    # Blocks with two closed classes: the stationary system is singular.
    first, second = random_block(rng, 7, 100), random_block(rng, 9, 10**6)
    block = ([row + [Fraction(0)] * 9 for row in first]
             + [[Fraction(0)] * 7 + row for row in second])
    balance = []
    for j, row in enumerate(block[:-1]):
        _, ints = rationals.scale_to_integers(row[:j] + [row[j] - 1]
                                              + row[j + 1:])
        balance.append({i: a for i, a in enumerate(ints) if a})
    systems.append((balance + [dict.fromkeys(range(16), 1)], [0] * 15 + [1]))
    # Near-singular: the last row is 10^k times the sum of the others plus
    # one unit, so det A is tiny against the entries.
    for k in (6, 12, 30):
        n = rng.randint(2, 12)
        rows = [{j: rng.randint(-9, 9) for j in range(n)} for _ in range(n - 1)]
        last = {j: 10**k * sum(row[j] for row in rows) for j in range(n)}
        last[rng.randrange(n)] += 1
        systems.append((rows + [last], [rng.randint(-9, 9) for _ in range(n)]))
    # Signed entries past int64, and in two systems one entry past the
    # float range.
    for bits, n in ((70, 8), (70, 3), (1100, 3), (1100, 2)):
        rows = [{j: rng.choice((-1, 1)) * rng.getrandbits(70)
                 for j in range(n) if rng.random() < 0.7} for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = rng.getrandbits(70) | 1
        rows[0][n - 1] = -rng.getrandbits(bits)
        systems.append((rows, [rng.choice((-1, 1)) * rng.getrandbits(70)
                               for _ in range(n)]))
    # Signed, strictly diagonally dominant systems.
    for _ in range(6):
        n = rng.randint(1, 40)
        rows = [{j: rng.randint(-50, 50)
                 for j in rng.sample(range(n), min(n, 3))} for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = rng.choice([-1, 1]) * (
                sum(abs(a) for j, a in row.items() if j != i) + rng.randint(1, 9))
        systems.append((rows, [rng.randint(-10**6, 10**6) for _ in range(n)]))
    outcomes = [solved_or_message(oracles.modular_solve, rows, rhs)
                for rows, rhs in systems]
    for (rows, rhs), expected in zip(systems, outcomes):
        assert solved_or_message(rationals._solve, rows, rhs) == expected
    singular = outcomes.count("singular rational system")
    assert 8 <= singular and len(systems) - singular >= 60


class UnreadRow(dict):
    """A row that fails the test if the solver reads a cell of it."""

    def get(self, *args):
        raise AssertionError("a cell was read")


def test_solver_cells_count_against_the_cell_cap(monkeypatch):
    rows, rhs = [{0: 2, 1: 1}, {1: 3}, {2: 1}, {0: 1, 3: 5}], [1, 2, 3, 4]
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "20")
    assert solved_or_message(rationals._solve, rows, rhs) == \
        solved_or_message(oracles.modular_solve, rows, rhs)
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "19")
    with pytest.raises(td.CapExceededError,
                       match=r"^4 x 5 solver cells exceed the cell cap 19$"):
        rationals._solve([UnreadRow(row) for row in rows], rhs)
    with pytest.raises(td.CapExceededError):
        rationals.solve_linear_exact(rows, rhs)
    # A block outside the lifting proof reaches the same cap.
    with pytest.raises(td.CapExceededError):
        rationals.stationary_exact(sparse(
            [[Fraction(1, 2), 0, 0, Fraction(1, 4)],
             [Fraction(1, 2), Fraction(1), 0, 0],
             [0, 0, Fraction(1), Fraction(1, 4)],
             [0, 0, 0, Fraction(1, 2)]]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   True, False, "x", None, "1/0"])
def test_bad_entries_raise_validation_errors_naming_them(value):
    shown = f"'{value}'"
    block = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
             {0: Fraction(1, 2), 1: value}]
    with pytest.raises(td.ValidationError,
                       match=rf"^block\[1\]\[1\] = {re.escape(shown)} is "
                             "not a finite rational$"):
        rationals.stationary_exact(block)
    matrix, rhs = [{0: 1, 1: value}, {1: 2}], [1, 2]
    with pytest.raises(td.ValidationError,
                       match=r"^matrix\[0\]\[1\] = .* is not a finite"):
        rationals.solve_linear_exact(matrix, rhs)
    with pytest.raises(td.ValidationError,
                       match=r"^rhs\[1\] = .* is not a finite rational$"):
        rationals.solve_linear_exact([{0: 1}, {1: 2}], [1, value])


@pytest.mark.parametrize("key", ["a", 0.0, 1.5, None, True, (0,)])
def test_column_keys_must_be_integers(key):
    with pytest.raises(td.ValidationError,
                       match=r"column index lies outside 0\.\.1: "
                             rf"block\[1\] has {re.escape(repr(key))}$"):
        rationals.stationary_exact([{0: Fraction(1)}, {key: Fraction(1)}])
    with pytest.raises(td.ValidationError, match=r"matrix\[0\] has"):
        rationals.solve_linear_exact([{key: 1}, {1: 1}], [1, 2])


def test_numpy_integer_keys_and_entries_are_exact():
    matrix = [{np.int64(0): np.int64(2), 1: 1}, {np.int32(1): 3}]
    assert rationals.solve_linear_exact(matrix, [1, np.int64(2)]) == \
        [Fraction(1, 6), Fraction(2, 3)]


def test_an_empty_block_raises():
    with pytest.raises(td.ValidationError, match="^block has no states$"):
        rationals.stationary_exact([])
    assert rationals.solve_linear_exact([], []) == []


def seeded_block(rng, size):
    """Column i has the edge i -> i + 1 (mod size) and two random edges,
    with weights 1 to 5 over their sum."""
    block = [{} for _ in range(size)]
    for i in range(size):
        targets = sorted({(i + 1) % size, rng.randrange(size),
                          rng.randrange(size)})
        weights = [rng.randint(1, 5) for _ in targets]
        for j, w in zip(targets, weights):
            block[j][i] = Fraction(w, sum(weights))
    return block


def test_random_512_block_within_budget():
    block = seeded_block(random.Random(5), 512)
    start = time.perf_counter()
    v = rationals.stationary_exact(block)
    elapsed = time.perf_counter() - start
    assert sum(v) == 1
    matrix = [[row.get(i, 0) for i in range(len(block))] for row in block]
    assert oracles.dense_balance_failures(matrix, v) == []
    assert elapsed < 10.0, f"over budget: {elapsed:.2f}s"


def test_shiftlike_report_on_256_element_class_within_budget():
    system = td.derive_gamma(td.SlidingBlockCode(2, 3, (0, 0, 1, 1, 0, 0, 1, 1)), 8)
    start = time.perf_counter()
    report = td.tractability_report_shiftlike(system)
    elapsed = time.perf_counter() - start
    assert [len(p.base_members) for p in report.analysis.terminal_pairs] == [256]
    assert elapsed < 5.0, f"over budget: {elapsed:.2f}s"


def test_class_stationary_peak_memory_stays_off_dense_blocks():
    # A 1024-element terminal class: a dense c x c block of Python objects
    # alone would take 8 MiB of pointers before the solver copies it.
    system = td.derive_gamma(td.SlidingBlockCode(2, 3, (0, 0, 1, 1, 0, 0, 1, 1)), 10)
    model = td.shiftlike.to_two_alphabet(system)
    pairs = [p for p in td.basic_set_correspondence(model).pairs if p.terminal]
    assert [len(p.base_members) for p in pairs] == [1024]
    tracemalloc.start()
    try:
        v_b = td.two_alphabet.base_class_stationary(model, pairs[0].base_members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(v_b.values()) == 1
    assert peak < 26 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_bools(value):
    with pytest.raises(td.ValidationError, match="not a rational literal"):
        rationals.parse_rational(value)


@pytest.mark.parametrize("matrix, rhs, message", [
    ([{0: 1}], [1, 2], "2 right-hand sides for 1 rows"),
    ([{0: 1}, {1: 1}], [1], "1 right-hand sides for 2 rows"),
    ([{0: 1, 2: 1}, {1: 1}], [1, 2], r"column index lies outside 0\.\.1"),
    ([{-1: 1}, {1: 1}], [1, 2], r"column index lies outside 0\.\.1"),
])
def test_mis_shaped_systems_raise_validation_errors(matrix, rhs, message):
    with pytest.raises(td.ValidationError, match=message):
        rationals.solve_linear_exact(matrix, rhs)


@pytest.mark.parametrize("block", [
    [{0: Fraction(1, 2), 1: Fraction(1, 2)}],
    [{0: Fraction(1, 2), -1: Fraction(1, 2)}, {1: Fraction(1)}],
])
def test_block_columns_outside_the_block_raise(block):
    with pytest.raises(td.ValidationError, match="column index lies outside"):
        rationals.stationary_exact(block)


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__lt__", "__le__",
               "__gt__", "__ge__")


def test_exact_solves_use_no_fraction_arithmetic(monkeypatch, example_b):
    rng = random.Random(7606)
    blocks = ([random_block(rng, size, 10**6) for size in (1, 2, 9, 40)]
              + [random_block(rng, 12, 10**6, period=3)])
    systems = []
    while len(systems) < 10:
        n = rng.randint(1, 10)
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))
                   for _ in range(n)] for _ in range(n)]
        rhs = [Fraction(rng.randint(-99, 99), rng.randint(1, 50))
               for _ in range(n)]
        try:
            systems.append((matrix, rhs, oracles.solve_linear_exact(matrix, rhs)))
        except td.NumericalError:
            continue
    shift = td.shiftlike.to_two_alphabet(td.derive_gamma(
        td.SlidingBlockCode(2, 3, perm_phi(rng, 2, 3)), 3))
    classes = [(model, pair.base_members) for model in
               (shift, td.simplicial1d.to_two_alphabet(example_b))
               for pair in td.basic_set_correspondence(model).pairs
               if pair.terminal]
    rows = [sparse(block) for block in blocks]
    sparse_systems = [(sparse(matrix), rhs) for matrix, rhs, _ in systems]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in an exact solve")

    with monkeypatch.context() as patch:
        for name in _ARITHMETIC:
            patch.setattr(Fraction, name, forbidden)
        with pytest.raises(AssertionError):
            Fraction(1, 2) + 1
        stationary = [rationals.stationary_exact(block) for block in rows]
        solved = [rationals.solve_linear_exact(matrix, rhs)
                  for matrix, rhs in sparse_systems]
        class_vectors = [td.two_alphabet.base_class_stationary(model, members)
                         for model, members in classes]
    assert Fraction(1, 2) + 1 == Fraction(3, 2)
    assert stationary == [oracles.stationary_exact(b) for b in blocks]
    assert solved == [expected for _, _, expected in systems]
    assert len(classes) == 3
    for (model, members), v_b in zip(classes, class_vectors):
        members = sorted(members)
        expected = oracles.stationary_exact(class_block(model, members))
        assert v_b == dict(zip(members, expected))


@pytest.mark.parametrize("text", [
    "1e5000", "-1e5000", "1e-5000", "1.5E+4300", "0." + "0" * 4299 + "1",
    "1e100000000", "1" + "0" * 4300])
def test_literals_past_the_digit_limit_are_rejected(text):
    start = time.perf_counter()
    with pytest.raises(td.ValidationError, match="more than 4300 digits"):
        rationals.parse_rational(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, value", [
    ("1e4299", Fraction(10**4299)), ("1e-4299", Fraction(1, 10**4299)),
    (" 2.5e3 ", Fraction(2500)), ("-0.125", Fraction(-1, 8)),
    ("3/4", Fraction(3, 4)), ("0e4000", Fraction(0))])
def test_literals_within_the_digit_limit_parse_and_print(text, value):
    parsed = rationals.parse_rational(text)
    assert parsed == value
    assert rationals.parse_rational(rationals.format_rational(parsed)) == value


def test_an_exponent_past_the_digit_limit_is_not_a_literal():
    with pytest.raises(td.ValidationError, match="not a rational literal"):
        rationals.parse_rational("1e" + "9" * 5000)
