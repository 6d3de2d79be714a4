"""Release gate: one test per acceptance criterion.

Each test prints a single CRITERION line (visible under ``pytest -v -s``)
with its runtime, and fails if the stated budget is exceeded.  Numbered to
match the release checklist; run the whole file for a sign-off record.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import tractable_dyn as td
from tractable_dyn import Word
from oracles import (closure_decomposition, g_matrix, gstar_cover,
                     gstar_float_cover, local_inverse, star_edge_image)


@contextlib.contextmanager
def criterion(num, budget, summary):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:02d} FAIL "
              f"({time.perf_counter() - start:.2f}s) {summary}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION {num:02d} PASS ({elapsed:.2f}s) {summary}")
    assert elapsed < budget, f"over budget: {elapsed:.2f}s >= {budget}s"


def full_shift_relation():
    return td.FiniteRelation(("s0", "s1"),
                             frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))


def random_model(rng, max_base=4, max_fine=8):
    n_base = rng.randint(1, max_base)
    n_fine = rng.randint(n_base, max_fine)
    j_map = list(range(n_base)) + [rng.randrange(n_base)
                                   for _ in range(n_fine - n_base)]
    rng.shuffle(j_map)
    gamma = [rng.randrange(n_base) for _ in range(n_fine)]
    nu = [F(0)] * n_fine
    for i in range(n_base):
        fiber = [t for t in range(n_fine) if j_map[t] == i]
        weights = [rng.randint(1, 5) for _ in fiber]
        for t, w in zip(fiber, weights):
            nu[t] = F(w, sum(weights))
    return td.build_model(tuple(f"t{i}" for i in range(n_fine)),
                          tuple(f"s{i}" for i in range(n_base)),
                          j_map, gamma, nu)


def random_full_domain_cover(rng, n):
    edges = set()
    for i in range(n):
        out = rng.sample(range(n), rng.randint(1, n))
        edges.update((i, j) for j in out)
    relation = td.FiniteRelation(tuple(f"s{i}" for i in range(n)),
                                 frozenset(edges))
    matrix = np.zeros((n, n))
    for i in range(n):
        succ = sorted(j for (a, j) in edges if a == i)
        weights = [rng.uniform(0.1, 1.0) for _ in succ]
        total = sum(weights)
        for j, w in zip(succ, weights):
            matrix[j, i] = w / total
    return td.validate_cover(relation, matrix)


def test_01_tent_pair_end_to_end(example_a):
    with criterion(1, 1.0, "tent pair: diagonal relation, theta 1/2, "
                           "Lebesgue stationary"):
        model = td.simplicial1d.to_two_alphabet(example_a)
        base, _ = td.induced_relations(model)
        edges = {(base.elements[i], base.elements[j]) for i, j in base.edges}
        assert edges == {("I1", "I1"), ("I2", "I2")}
        assert td.pl_eval(example_a, F(1, 4)) == F(1, 2)
        assert td.pl_eval(example_a, F(5, 4)) == F(3, 2)
        assert td.theta(example_a) == F(1, 2)
        data = td.tractability_report_pl(example_a).to_json_dict()
        assert data["theta"] == "1/2"
        assert data["basic_sets"] == [["I1"], ["I2"]]
        assert data["terminal"] == [["I1"], ["I2"]]
        assert data["stationary"] == [{"I1": "1"}, {"I2": "1"}]
        supports = [entry["support"] for entry in data["measures"]]
        assert supports == [[["0", "1"]], [["1", "2"]]]
        densities = [d["density"] for entry in data["measures"]
                     for d in entry["density"]]
        assert densities == ["1", "1"]


def test_02_absorbing_intervals_end_to_end(example_b):
    with criterion(2, 1.0, "three intervals: middle class visible but "
                           "not terminal, decay (1, 1/2)"):
        data = td.tractability_report_pl(example_b).to_json_dict()
        assert data["basic_sets"] == [["I1"], ["I2"], ["I3"]]
        assert data["terminal"] == [["I1"], ["I3"]]
        assert data["transient"] == ["I2"]
        flagged = data["caveats"]["visible_but_not_terminal"]
        assert [entry["class"] for entry in flagged] == [["I2"]]
        assert data["decay"] == {"n": 1, "rho": 0.5}
        model = td.simplicial1d.to_two_alphabet(example_b)
        g_cover = td.induced_covers(model)
        cert = td.transient_decay(g_cover, td.basic_sets(g_cover.relation))
        assert (cert.n, cert.rho) == (1, 0.5)


def test_03_inverse_branches_contract(random_pl_system):
    with criterion(3, 10.0, "20 systems x 100 rational pairs, zero "
                            "tolerance contraction"):
        rng = random.Random(101)
        for _ in range(20):
            system = random_pl_system(rng)
            factor = 1 - td.theta(system)
            for _ in range(100):
                j = rng.randrange(system.kstar.n_edges)
                lo, hi = system.k.edge(star_edge_image(system, j))
                x1 = lo + (hi - lo) * F(rng.randint(0, 128), 128)
                x2 = lo + (hi - lo) * F(rng.randint(0, 128), 128)
                branch = local_inverse(system, j)
                assert td.metric_d(system.k, branch(x1), branch(x2)) <= \
                    factor * td.metric_d(system.k, x1, x2)


def test_04_mesh_decay(example_a, example_b, random_pl_system):
    with criterion(4, 10.0, "mesh <= 2(1-theta)^n for n <= 10, equality "
                            "on the dyadic tent pair"):
        rng = random.Random(404)
        systems = [example_a, example_b]
        systems += [random_pl_system(rng, max_parts=2) for _ in range(10)]
        for system in systems:
            factor = 1 - td.theta(system)
            for depth in range(11):
                _, report = td.refine(system, depth)
                assert report.mesh_d <= 2 * factor ** depth
        for depth in range(1, 11):
            _, report = td.refine(example_a, depth)
            assert report.mesh_d == 2 * F(1, 2) ** depth


def test_05_cylinder_pushforward(example_a, example_b):
    with criterion(5, 30.0, "cylinder measure equals decoded interval "
                            "mass, all words to depth 6"):
        checked = 0
        for system in (example_a, example_b):
            model = td.simplicial1d.to_two_alphabet(system)
            _, star = td.induced_relations(model)
            succ = {t: sorted(j for i, j in star.edges if i == t)
                    for t in range(len(star.elements))}
            star_cover = gstar_float_cover(model)
            point_specs = [
                td.MarkovMeasureSpec(
                    star_cover,
                    td.Distribution.point_mass(len(model.kstar), t))
                for t in range(len(model.kstar))]
            for pair in td.basic_set_correspondence(model).pairs:
                if not pair.terminal:
                    continue
                v_b = td.two_alphabet.base_class_stationary(
                    model, pair.base_members)
                frontier = [(t,) for t in pair.star_members]
                for _ in range(6):
                    for word in frontier:
                        mu = td.ergodic_cylinder_measure_star(
                            model, pair.star_members, word)
                        lo, hi = td.code_H_1d(system, word)
                        j0 = model.j_map[word[0]]
                        # ergodic mass: stationary density times length
                        assert mu == \
                            v_b[j0] * (hi - lo) / system.k.edge_length(j0)
                        # started at the first fine edge: plain proportion
                        started = td.cylinder_measure(
                            point_specs[word[0]], list(word))
                        exact = (hi - lo) / system.kstar.edge_length(word[0])
                        assert abs(started - float(exact)) <= 1e-12
                        checked += 1
                    frontier = [w + (t,) for w in frontier
                                for t in succ[w[-1]]]
        assert checked == 2 * 2 * (2 + 4 + 8 + 16 + 32 + 64)


def legal_tracks(system, depth):
    n, k = system.n, system.k
    tracks = [[Word(2, n + k, v)] for v in range(2 ** (n + k))]
    for _ in range(depth):
        tracks = [t + [Word(2, n + k, system.gamma[t[-1].value] + (j << n))]
                  for t in tracks for j in range(2 ** k)]
    return tracks


def test_06_coding_conjugacy_round_trips():
    with criterion(6, 60.0, "decode/encode identities: 16 tables "
                            "exhaustive, 600 random larger tables"):
        for table in itertools.product(range(2), repeat=4):
            system = td.ShiftLikeSystem(2, 1, 1, table)
            for depth in range(7):
                for track in legal_tracks(system, depth):
                    x = td.decode_H(system, track)
                    assert td.code_R(system, x, depth) == track
                for value in range(2 ** (2 + depth)):
                    x = Word(2, 2 + depth, value)
                    track = td.code_R(system, x, depth)
                    assert td.decode_H(system, track) == x

        rng = random.Random(606)
        for n, k in ((1, 2), (2, 1), (2, 2)):
            fine = 2 ** (n + k)
            for _ in range(200):
                table = tuple(rng.randrange(2 ** n) for _ in range(fine))
                system = td.ShiftLikeSystem(2, n, k, table)
                for track in legal_tracks(system, 1):
                    x = td.decode_H(system, track)
                    assert td.code_R(system, x, 1) == track
                for value in range(2 ** (n + 2 * k)):
                    x = Word(2, n + 2 * k, value)
                    assert td.decode_H(system, td.code_R(system, x, 1)) == x
                for _ in range(12):
                    depth = rng.randint(2, 6)
                    length = n + k + depth * k
                    x = Word(2, length, rng.getrandbits(length))
                    track = td.code_R(system, x, depth)
                    assert td.decode_H(system, track) == x
                    track = [Word(2, n + k, rng.randrange(fine))]
                    for _ in range(depth):
                        track.append(Word(
                            2, n + k,
                            table[track[-1].value]
                            + (rng.randrange(2 ** k) << n)))
                    x = td.decode_H(system, track)
                    assert td.code_R(system, x, depth) == track


def test_07_shadowing_is_exact():
    with criterion(7, 30.0, "100 random block codes, orbit words match "
                            "for 50 steps on 10 prefixes"):
        rng = random.Random(707)
        for _ in range(100):
            m = rng.randint(1, 3)
            phi = tuple(rng.randrange(2) for _ in range(2 ** m))
            code = td.SlidingBlockCode(2, m, phi)
            n = rng.randint(1, 2)
            system = td.derive_gamma(code, n)
            for _ in range(10):
                x = Word(2, 120, rng.getrandbits(120))
                y = td.shadow_Q(code, system, x, 50)
                assert td.code_R(code, x, 50, n=n, k=system.k) == \
                    td.code_R(system, y, 50)


def test_08_stationary_identities(example_a, example_b):
    with criterion(8, 10.0, "exact balance and lift on every terminal "
                            "class; float residuals 1e-12 / 1e-9"):
        rng = random.Random(808)
        models = [td.simplicial1d.to_two_alphabet(example_a),
                  td.simplicial1d.to_two_alphabet(example_b),
                  td.shiftlike.to_two_alphabet(
                      td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1)))]
        models += [random_model(rng) for _ in range(20)]
        for model in models:
            gbase = g_matrix(model)
            _, gstar = gstar_cover(model)
            n_base, n_star = len(model.k), len(model.kstar)
            for pair in td.basic_set_correspondence(model).pairs:
                if not pair.terminal:
                    continue
                v_b = td.two_alphabet.base_class_stationary(
                    model, pair.base_members)
                assert sum(v_b.values()) == 1
                assert all(v > 0 for v in v_b.values())
                full = [v_b.get(i, F(0)) for i in range(n_base)]
                assert all(
                    sum(gbase[j][i] * full[i] for i in range(n_base))
                    == full[j] for j in range(n_base))
                assert td.two_alphabet.stationary_identity_max_error(
                    model, pair, v_b) == 0
                star = td.lift_stationary(model, full)
                assert all(
                    sum(gstar[j][i] * star[i] for i in range(n_star))
                    == star[j] for j in range(n_star))
                gs = np.array([[float(x) for x in row] for row in gstar])
                vs = np.array([float(x) for x in star])
                assert np.abs(gs @ vs - vs).max() <= 1e-9

        for _ in range(20):
            cover = random_full_domain_cover(rng, rng.randint(2, 6))
            decomposition = td.basic_sets(cover.relation)
            for c in decomposition.terminal_classes():
                v = td.stationary_distribution(
                    cover, decomposition.classes[c])
                residual = np.abs(cover.matrix @ v.weights - v.weights).max()
                assert residual <= 1e-12


def test_09_decomposition_matches_oracles():
    with criterion(9, 30.0, "500 random relations vs closure oracle; "
                            "200 random models vs independent SCC"):
        rng = random.Random(909)
        checked = 0
        while checked < 500:
            n = rng.randint(1, 8)
            edges = {(i, j) for i in range(n) for j in range(n)
                     if rng.random() < 0.3}
            relation = td.FiniteRelation(
                tuple(f"e{i}" for i in range(n)), frozenset(edges))
            kept_relation, kept = td.restrict_to_infinite_domain(relation)
            if not kept:
                continue
            d = td.basic_sets(kept_relation)
            classes, flags, transient, order = closure_decomposition(
                len(kept), kept_relation.edges)
            assert d.classes == classes
            assert d.terminal_flags == flags
            assert d.transient == transient
            assert d.order == order
            checked += 1

        for _ in range(200):
            model = random_model(rng)
            correspondence = td.basic_set_correspondence(model)
            g, gstar = td.induced_relations(model)
            base_classes, base_flags, _, _ = closure_decomposition(
                len(model.k), g.edges)
            star_classes, star_flags, _, _ = closure_decomposition(
                len(model.kstar), gstar.edges)
            assert tuple(p.base_members for p in correspondence.pairs) == \
                base_classes
            assert sorted(p.star_members for p in correspondence.pairs) == \
                sorted(star_classes)
            for pair in correspondence.pairs:
                assert pair.terminal == base_flags[pair.base_class_index]
                assert pair.terminal == star_flags[
                    star_classes.index(pair.star_members)]
                if pair.terminal:
                    fiber = {t for t in range(len(model.kstar))
                             if model.j_map[t] in set(pair.base_members)}
                    assert fiber == set(pair.star_members)


def test_10_statistical_genericity(example_a, relation_b, cover_b):
    with criterion(10, 300.0, "frequency test at T=10^4 and decoded "
                              "orbit histograms, >= 99/100 seeds each"):
        decomposition_b = td.basic_sets(relation_b)
        spec_b = td.MarkovMeasureSpec(cover_b,
                                      td.Distribution.point_mass(3, 1))
        passes_b = sum(
            td.genericity_check(cover_b, decomposition_b,
                                td.sample_path(spec_b, 10_000, seed),
                                2).passed
            for seed in range(100))

        full = full_shift_relation()
        cover_f = td.uniform_cover(full)
        spec_f = td.MarkovMeasureSpec(cover_f, td.Distribution.uniform(2))
        decomposition_f = td.basic_sets(full)
        passes_f = sum(
            td.genericity_check(cover_f, decomposition_f,
                                td.sample_path(spec_f, 10_000, seed),
                                3).passed
            for seed in range(100))

        report_a = td.tractability_report_pl(example_a)
        passes_h = sum(
            td.decode_orbit_histogram(report_a, (0, 1), segments=10_000,
                                      depth=40, bins=10, seed=seed).passed
            for seed in range(100))

        assert passes_b >= 99, f"absorbing chain: {passes_b}/100"
        assert passes_f >= 99, f"full shift: {passes_f}/100"
        assert passes_h >= 99, f"decoded histogram: {passes_h}/100"
