import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tractable_dyn as td
from tractable_dyn import markov
import oracles
from oracles import (closure_decomposition, dense_balance_failures,
                     fiber_sums, g_matrix, gstar_cover, gstar_float_cover,
                     stationary_identity_max_error)


def identity_model(n=3):
    labels = tuple(f"s{i}" for i in range(n))
    return td.build_model(labels, labels, labels, labels, [1] * n)


def shift_pair_model():
    """Two-letter words over {0,1}, J = first letter, gamma = second."""
    return td.shiftlike.to_two_alphabet(td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1)))


def random_model(rng, max_base=4, max_fine=8):
    n_base = rng.randint(1, max_base)
    n_fine = rng.randint(n_base, max_fine)
    base = tuple(f"s{i}" for i in range(n_base))
    fine = tuple(f"t{i}" for i in range(n_fine))
    j_map = list(range(n_base)) + [rng.randrange(n_base)
                                   for _ in range(n_fine - n_base)]
    rng.shuffle(j_map)
    gamma = [rng.randrange(n_base) for _ in range(n_fine)]
    nu = [Fraction(0)] * n_fine
    for i in range(n_base):
        fiber = [t for t in range(n_fine) if j_map[t] == i]
        weights = [rng.randint(1, 5) for _ in fiber]
        for t, w in zip(fiber, weights):
            nu[t] = Fraction(w, sum(weights))
    return td.build_model(fine, base, j_map, gamma, nu)


# --- construction ---


def test_identity_model_builds():
    model = identity_model()
    assert all(isinstance(x, Fraction) for x in model.nu)
    assert model.nu == (Fraction(1),) * 3


def test_fiber_sum_must_be_one():
    with pytest.raises(td.ValidationError):
        td.build_model(("a", "b"), ("s",), ("s", "s"), ("s", "s"),
                       [Fraction(1, 3), Fraction(1, 3)])


def test_float_nu_is_rejected():
    with pytest.raises(td.ValidationError):
        td.build_model(("a", "b"), ("s",), ("s", "s"), ("s", "s"), [0.5, 0.5])


def test_fiber_sum_check_matches_the_scan():
    rng = random.Random(31)
    rejected = 0
    for _ in range(60):
        model = random_model(rng)
        nu = list(model.nu)
        if rng.random() < 0.5:
            t = rng.randrange(len(nu))
            nu[t] += Fraction(rng.choice((-1, 1)), rng.randint(7, 50))
            nu[t] = abs(nu[t])
        totals = fiber_sums(len(model.k), model.j_map, nu)
        bad = [i for i, total in enumerate(totals) if total != 1]
        if not bad:
            assert td.build_model(model.kstar, model.k, model.j_map,
                                  model.gamma, nu).nu == tuple(nu)
            continue
        with pytest.raises(td.ValidationError,
                           match=f"fiber of '{model.k[bad[0]]}' sums to "
                                 f"{totals[bad[0]]}, expected 1"):
            td.build_model(model.kstar, model.k, model.j_map, model.gamma, nu)
        rejected += 1
    assert rejected >= 15


def test_fiber_sum_just_above_one_keeps_its_message():
    nu = [Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 30)]
    total = Fraction(1) + Fraction(1, 10 ** 30)
    with pytest.raises(td.ValidationError) as info:
        td.build_model(("a", "b", "c"), ("s", "u"), ("s", "s", "u"),
                       ("s", "u", "u"), nu + [1])
    assert str(info.value) == (
        f"nu over the fiber of 's' sums to {total}, expected 1")
    assert str(total) == "1000000000000000000000000000001/" + "1" + "0" * 30


@pytest.mark.parametrize("field", ["j_map", "gamma", "nu"])
def test_dict_arguments_are_rejected(field):
    args = {"kstar": ("a", "b"), "k": ("s",), "j_map": ("s", "s"),
            "gamma": ("s", "s"), "nu": [Fraction(1, 2), Fraction(1, 2)]}
    td.build_model(**args)
    args[field] = dict(zip(args["kstar"], args[field]))
    with pytest.raises(td.ValidationError, match="not a dict"):
        td.build_model(**args)


def test_j_must_be_surjective():
    with pytest.raises(td.ValidationError):
        td.build_model(("a",), ("s", "u"), ("s",), ("s",), [1])


@pytest.mark.parametrize("change, message", [
    ({"j_map": ["s"]}, "J must have one entry per K* element"),
    ({"gamma": ["s", "u", "s"]}, "gamma must have one entry per K* element"),
    ({"nu": [1]}, "nu must have one entry per K* element"),
    ({"j_map": ["s", "x"]}, "J['b'] = 'x' is not a K element"),
    ({"gamma": [0, "x"]}, "gamma['b'] = 'x' is not a K element"),
    ({"gamma": ["s", 2]}, "gamma index 2 out of range"),
    ({"j_map": [-1, 1]}, "J index -1 out of range"),
    ({"kstar": ("a", "a")}, "alphabet labels must be distinct"),
    ({"k": ("s", "s")}, "alphabet labels must be distinct"),
    ({"kstar": (), "j_map": [], "gamma": [], "nu": []},
     "alphabets must be non-empty"),
    ({"k": ()}, "alphabets must be non-empty"),
    ({"nu": [0, 1]}, "nu['a'] must be positive"),
    ({"nu": [1, "-1"]}, "nu['b'] must be positive"),
    # Every weight is checked for its sign before any fiber for its sum.
    ({"kstar": ("a", "b", "c"), "j_map": ["s", "s", "u"],
      "gamma": ["s", "s", "u"], "nu": [Fraction(1, 3), Fraction(1, 3), -1]},
     "nu['c'] must be positive"),
    # J and gamma are read before nu, and J before gamma.
    ({"j_map": ["s", "x"], "gamma": ["s", 2], "nu": [0, 1]},
     "J['b'] = 'x' is not a K element"),
    ({"gamma": ["s", 2], "nu": [0, 1]}, "gamma index 2 out of range"),
])
def test_malformed_models_are_rejected(change, message):
    args = {"kstar": ("a", "b"), "k": ("s", "u"), "j_map": ["s", "u"],
            "gamma": ["s", "u"], "nu": [1, 1]}
    args.update(change)
    with pytest.raises(td.ValidationError) as info:
        td.build_model(**args)
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["j_map", "gamma"])
@pytest.mark.parametrize("index", [1.7, 1.0, True, None, np.float64(1)])
def test_indices_must_be_labels_or_integers(field, index):
    args = {"kstar": ("a", "b"), "k": ("s", "u"), "j_map": ["s", "u"],
            "gamma": ["s", "u"], "nu": [1, 1]}
    args[field] = ["s", index]
    with pytest.raises(td.ValidationError,
                       match=rf"^{'J' if field == 'j_map' else 'gamma'}"
                             r"\['b'\] = .* is neither a K label nor an "
                             "integer index into K$"):
        td.build_model(**args)
    # Labels, ints and numpy integers name the same elements.
    for value in ("u", 1, np.int64(1)):
        args[field][1] = value
        assert getattr(td.build_model(**args), field) == (0, 1)


def corrupt(rng, args):
    """One random defect in build_model's arguments, or none."""
    args = dict(args)
    kstar, k = list(args["kstar"]), list(args["k"])
    t = rng.randrange(len(kstar))
    field = rng.choice(["j_map", "gamma", "nu"])
    entries = list(args[field])
    choice = rng.randrange(10)
    if choice == 0:
        entries[t] = rng.choice(["x", -1, len(k), 1.0, True, None])
    elif choice == 1:
        entries[t] = k[entries[t]] if field != "nu" else str(entries[t])
    elif choice == 2:
        entries[t] = np.int64(entries[t]) if field != "nu" else \
            -entries[t] * rng.randint(0, 1)
    elif choice == 3:
        entries[t] = entries[t] + Fraction(1, 7) if field == "nu" else \
            rng.randrange(len(k))
    elif choice == 4:
        entries.pop(t)
    elif choice == 5:
        kstar[t] = kstar[0] if t else kstar[-1]
    elif choice == 6:
        args["k"] = k + [k[0]] if rng.random() < 0.5 else k + ["new"]
    args[field] = entries
    args["kstar"] = kstar
    return args


def test_build_model_matches_the_fraction_oracle():
    rng = random.Random(37)
    rejected = 0
    for _ in range(400):
        model = random_model(rng)
        args = corrupt(rng, {"kstar": model.kstar, "k": model.k,
                             "j_map": model.j_map, "gamma": model.gamma,
                             "nu": model.nu})
        outcomes = []
        for build in (td.build_model, oracles.build_model):
            try:
                outcomes.append(build(**args))
            except td.ValidationError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        rejected += isinstance(outcomes[0], tuple)
    assert 150 <= rejected <= 350


def test_word_pair_model_builds():
    model = shift_pair_model()
    assert model.kstar == ("00", "10", "01", "11")
    assert model.k == ("0", "1")
    assert model.nu == (Fraction(1, 2),) * 4


# --- induced relations and covers ---


def test_identity_model_induces_identity_relations():
    g, gstar = td.induced_relations(identity_model())
    assert g.edges == frozenset({(0, 0), (1, 1), (2, 2)})
    assert gstar.edges == frozenset({(0, 0), (1, 1), (2, 2)})


def test_shift_model_relations_are_de_bruijn():
    model = shift_pair_model()
    g, gstar = td.induced_relations(model)
    assert g.edges == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    expected = {(t1, t2) for t1 in range(4) for t2 in range(4)
                if model.j_map[t2] == model.gamma[t1]}
    assert gstar.edges == frozenset(expected)
    # overlap condition: the last letter of t1 is the first letter of t2
    assert (model.kstar.index("01"), model.kstar.index("10")) in gstar.edges
    assert (model.kstar.index("01"), model.kstar.index("01")) not in gstar.edges


def test_gamma_intertwines_the_relations():
    rng = random.Random(7)
    for _ in range(40):
        model = random_model(rng)
        g, gstar = td.induced_relations(model)
        for t1, t2 in gstar.edges:
            assert (model.gamma[t1], model.gamma[t2]) in g.edges


def test_relations_are_built_once_per_model():
    model = shift_pair_model()
    g, gstar = td.induced_relations(model)
    again = td.induced_relations(model)
    assert again[0] is g and again[1] is gstar
    correspondence = td.basic_set_correspondence(model)
    assert correspondence.base_decomposition.relation is g
    assert correspondence.star_decomposition.relation is gstar


def test_identity_model_covers_are_identity_matrices():
    model = identity_model()
    assert np.array_equal(td.induced_covers(model).matrix, np.eye(3))
    assert np.array_equal(gstar_float_cover(model).matrix, np.eye(3))


def test_example_a_cover_is_identity(example_a):
    model = td.simplicial1d.to_two_alphabet(example_a)
    g_cover = td.induced_covers(model)
    assert np.array_equal(g_cover.matrix, np.eye(2))


def test_example_b_cover_column(example_b):
    model = td.simplicial1d.to_two_alphabet(example_b)
    g_cover = td.induced_covers(model)
    assert list(g_cover.matrix[:, 1]) == [0.0, 0.5, 0.5]


def test_exact_matrices_have_unit_columns():
    rng = random.Random(13)
    for _ in range(25):
        model = random_model(rng)
        g_exact = g_matrix(model)
        _, gstar_exact = gstar_cover(model)
        for col in range(len(model.k)):
            assert sum(row[col] for row in g_exact) == 1
        for col in range(len(model.kstar)):
            assert sum(row[col] for row in gstar_exact) == 1


def test_gstar_from_fibers_matches_the_pairwise_definition():
    rng = random.Random(19)
    for _ in range(25):
        model = random_model(rng, max_base=5, max_fine=12)
        edges, _ = gstar_cover(model)
        _, gstar = td.induced_relations(model)
        assert gstar.edges == edges
        # A float sum of nu can miss the float of the exact sum by an ulp
        # (1/11 + 4/11 gives 0.4545454545454546, float(5/11) is
        # 0.45454545454545453), so the bits are pinned by the float scan.
        matrix = td.induced_covers(model).matrix
        assert matrix.tolist() == g_matrix(model, float)
        np.testing.assert_array_max_ulp(
            matrix, np.array(g_matrix(model), dtype=float), maxulp=16)
        for i in range(len(model.k)):
            assert model.fiber(i) == tuple(
                t for t, j in enumerate(model.j_map) if j == i)
        assert model.fiber(len(model.k)) == ()


def test_gstar_cover_fill_matches_the_fiber_loop():
    rng = random.Random(23)
    models = [random_model(rng, max_base=5, max_fine=12) for _ in range(15)]
    for n_symbols in (2, 3):
        for window in (1, 2, 3):
            phi = tuple(rng.randrange(n_symbols)
                        for _ in range(n_symbols ** window))
            models.append(td.shiftlike.to_two_alphabet(td.derive_gamma(
                td.SlidingBlockCode(n_symbols, window, phi), 2)))
    for model in models:
        _, gstar = td.induced_relations(model)
        nu = [float(x) for x in model.nu]
        matrix = markov.cover_from_columns(gstar, (
            [nu[t] for t in gstar.successors(t1)]
            for t1 in range(len(nu)))).matrix
        assert matrix.flags.c_contiguous
        assert matrix.tobytes() == oracles.decoder_gstar_matrix(model).tobytes()


def test_analyze_peak_memory_stays_off_the_dense_fine_matrix():
    # |K*| = 4096: one dense float |K*|^2 matrix alone would take 128 MiB.
    system = td.derive_gamma(td.SlidingBlockCode(2, 3, (0,) * 8), 10)
    model = td.shiftlike.to_two_alphabet(system)
    assert len(model.kstar) == 4096
    tracemalloc.start()
    try:
        td.two_alphabet.analyze(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_induced_covers_stay_off_the_dense_coarse_matrix():
    # |K| = 4096: one dense float |K|^2 matrix alone would take 128 MiB.
    model = td.shiftlike.to_two_alphabet(td.derive_gamma(
        td.SlidingBlockCode(2, 3, (0, 0, 1, 1, 0, 0, 1, 1)), 12))
    assert len(model.k) == 4096
    tracemalloc.start()
    try:
        td.induced_covers(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_relations_of_codes_match_the_frozenset_oracle():
    # Random codes, and codes that mostly copy their first symbol, which
    # split into several classes.
    rng = random.Random(41)
    several = 0
    for n_symbols, window, n in [(2, 2, 1), (2, 2, 4), (2, 3, 2), (2, 3, 5),
                                 (2, 4, 3), (3, 2, 1), (3, 2, 3), (3, 3, 2),
                                 (3, 4, 1), (3, 4, 2)]:
        for copy in (0.0, 0.9):
            phi = tuple(v % n_symbols if rng.random() < copy
                        else rng.randrange(n_symbols)
                        for v in range(n_symbols ** window))
            model = td.shiftlike.to_two_alphabet(td.derive_gamma(
                td.SlidingBlockCode(n_symbols, window, phi), n))
            for got, want in zip(td.induced_relations(model),
                                 oracles.frozenset_induced_relations(model)):
                assert got.edges == want.edges
                assert len(got.edges) == len(want.edges)
                for i in range(len(got.elements)):
                    assert got.successors(i) == want.successors(i)
                    assert got.predecessors(i) == want.predecessors(i)
                d = td.basic_sets(got)
                assert (d.classes, d.terminal_flags, d.transient,
                        d.order) == oracles.frozenset_basic_sets(want)
            g, gstar = td.induced_relations(model)
            assert all(gstar.successors(t) is model.fiber(s)
                       for t, s in enumerate(model.gamma))
            several += len(td.basic_sets(g).classes) >= 2
    assert several >= 5


def test_correspondence_peak_memory_stays_off_edge_tuples():
    # |K*| = 6561 with 177147 G* edges; the model is built outside the
    # traced region, G and G* and both decompositions inside it.
    rng = random.Random(43)
    phi = tuple(rng.randrange(3) for _ in range(3 ** 4))
    model = td.shiftlike.to_two_alphabet(
        td.derive_gamma(td.SlidingBlockCode(3, 4, phi), 5))
    assert len(model.kstar) == 6561
    tracemalloc.start()
    try:
        correspondence = td.basic_set_correspondence(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(td.induced_relations(model)[1].edges) == 177147
    assert correspondence.pairs
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# --- basic-set correspondence ---


def test_identity_model_pairs_each_element_with_itself():
    correspondence = td.basic_set_correspondence(identity_model())
    assert [(p.star_members, p.base_members, p.terminal)
            for p in correspondence.pairs] == [
        ((0,), (0,), True), ((1,), (1,), True), ((2,), (2,), True)]


def test_shift_model_single_terminal_pair():
    correspondence = td.basic_set_correspondence(shift_pair_model())
    pair, = correspondence.pairs
    assert pair.star_members == (0, 1, 2, 3)
    assert pair.base_members == (0, 1)
    assert pair.terminal


def test_correspondence_against_independent_scc():
    rng = random.Random(19)
    for _ in range(60):
        model = random_model(rng)
        correspondence = td.basic_set_correspondence(model)
        g, gstar = td.induced_relations(model)

        base_classes, base_flags, _, _ = closure_decomposition(
            len(model.k), g.edges)
        star_classes, star_flags, _, _ = closure_decomposition(
            len(model.kstar), gstar.edges)

        assert tuple(p.base_members for p in correspondence.pairs) == base_classes
        assert sorted(p.star_members for p in correspondence.pairs) == \
            sorted(star_classes)
        for pair in correspondence.pairs:
            assert pair.terminal == base_flags[pair.base_class_index]
            assert pair.terminal == star_flags[
                star_classes.index(pair.star_members)]
            # the image of the fine class is exactly the coarse class
            assert {model.gamma[t] for t in pair.star_members} == \
                set(pair.base_members)
            if pair.terminal:
                fiber = {t for t in range(len(model.kstar))
                         if model.j_map[t] in set(pair.base_members)}
                assert fiber == set(pair.star_members)


# --- stationary lifting ---


def test_lift_on_identity_model_is_identity():
    lifted = td.lift_stationary(identity_model(), [1, 0, 0])
    assert lifted == [Fraction(1), Fraction(0), Fraction(0)]


def test_lift_uniform_on_word_pairs():
    lifted = td.lift_stationary(shift_pair_model(),
                                [Fraction(1, 2), Fraction(1, 2)])
    assert lifted == [Fraction(1, 4)] * 4


def test_lift_point_mass_spreads_over_the_fiber(example_b):
    model = td.simplicial1d.to_two_alphabet(example_b)
    lifted = td.lift_stationary(model, [1, 0, 0])
    assert lifted[:2] == [Fraction(1, 2), Fraction(1, 2)]
    assert all(x == 0 for x in lifted[2:])


def test_lift_rejects_non_stationary_input():
    with pytest.raises(td.ValidationError):
        td.lift_stationary(shift_pair_model(), [Fraction(1), Fraction(0)])


def test_lift_rejects_float_entries():
    with pytest.raises(td.ValidationError):
        td.lift_stationary(shift_pair_model(), [0.5, 0.5])


def test_lift_rejects_a_rational_vector_within_float_tolerance():
    eps = Fraction(1, 10 ** 12)
    with pytest.raises(td.ValidationError):
        td.lift_stationary(shift_pair_model(),
                           [Fraction(1, 2) + eps, Fraction(1, 2) - eps])


def test_fiber_marginalization():
    rng = random.Random(23)
    seen = 0
    for _ in range(40):
        model = random_model(rng)
        correspondence = td.basic_set_correspondence(model)
        for pair in correspondence.pairs:
            if not pair.terminal:
                continue
            v_b = td.two_alphabet.base_class_stationary(model, pair.base_members)
            full = [v_b.get(i, Fraction(0)) for i in range(len(model.k))]
            lifted = td.lift_stationary(model, full)
            for i in range(len(model.k)):
                fiber_sum = sum(lifted[t] for t in range(len(model.kstar))
                                if model.j_map[t] == i)
                assert fiber_sum == full[i]
            seen += 1
    assert seen >= 40


def test_stationary_identity_exact_on_terminal_pairs():
    rng = random.Random(29)
    for _ in range(30):
        model = random_model(rng)
        for pair in td.basic_set_correspondence(model).pairs:
            if not pair.terminal:
                continue
            v_b = td.two_alphabet.base_class_stationary(model, pair.base_members)
            assert td.two_alphabet.stationary_identity_max_error(
                model, pair, v_b) == 0


def test_perturbed_stationary_vector_fails_the_identity(monkeypatch):
    rng = random.Random(31)
    perturbed = 0
    for _ in range(30):
        model = random_model(rng)
        for pair in td.basic_set_correspondence(model).pairs:
            if not pair.terminal:
                continue
            v_b = td.two_alphabet.base_class_stationary(model, pair.base_members)
            i = rng.choice(pair.base_members)
            bad = dict(v_b)
            bad[i] += Fraction(1, rng.randint(2, 9))
            error = td.two_alphabet.stationary_identity_max_error(
                model, pair, bad)
            assert error == stationary_identity_max_error(model, pair, bad)
            # A one-element class maps its whole mass onto itself, so only
            # there does the identity survive the change.
            assert (error == 0) == (len(pair.base_members) == 1)
            perturbed += error != 0
    assert perturbed >= 10
    # analyze raises on the error it computes.
    model = shift_pair_model()
    monkeypatch.setattr(td.two_alphabet, "base_class_stationary",
                        lambda model, members: {0: Fraction(2, 3),
                                                1: Fraction(1, 3)})
    with pytest.raises(td.CorrespondenceError,
                       match="identity fails by 1/6 on class 0"):
        td.analyze(model)


def random_rationals(rng, count):
    return [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(count)]


def test_exact_identities_match_the_dense_and_scan_oracles():
    rng = random.Random(37)
    terminal = non_terminal = raised = 0
    for _ in range(100):
        model = random_model(rng, max_base=5, max_fine=10)
        nk, ns = len(model.k), len(model.kstar)
        g_exact = g_matrix(model)
        _, gstar_exact = gstar_cover(model)
        for pair in td.basic_set_correspondence(model).pairs:
            if pair.terminal:
                v_b = td.two_alphabet.base_class_stationary(
                    model, pair.base_members)
                terminal += 1
            else:
                non_terminal += 1
            candidates = [dict(zip(pair.base_members,
                                   random_rationals(rng, nk)))]
            if pair.terminal:
                candidates.append(v_b)
            for v in candidates:
                assert td.two_alphabet.stationary_identity_max_error(
                    model, pair, v) == stationary_identity_max_error(
                    model, pair, v)
                full = [v.get(i, Fraction(0)) for i in range(nk)]
                if dense_balance_failures(g_exact, full):
                    raised += 1
                    with pytest.raises(td.ValidationError):
                        td.lift_stationary(model, full)
                    continue
                lifted = td.lift_stationary(model, full)
                assert lifted == [full[i] * nu for i, nu
                                  in zip(model.j_map, model.nu)]
                assert dense_balance_failures(gstar_exact, lifted) == []
        # The lift check on any fine vector: nu(t) * (mass on
        # gamma^-1(J t)) fails exactly where the dense G* balance fails.
        w = random_rationals(rng, ns)
        mass = td.two_alphabet._gamma_mass(model, w, range(ns))
        assert [t for t in range(ns)
                if model.nu[t] * mass[model.j_map[t]] != w[t]] == \
            dense_balance_failures(gstar_exact, w)
    assert terminal >= 40 and non_terminal >= 20 and raised >= 20


# --- ergodic cylinder measures ---


def test_singleton_fiber_constant_word_has_full_measure():
    model = identity_model(1)
    assert td.ergodic_cylinder_measure_star(model, (0,), (0, 0, 0)) == 1


def test_word_pair_cylinders_are_eighths():
    model = shift_pair_model()
    pair, = td.basic_set_correspondence(model).pairs
    legal = 0
    for t1 in range(4):
        for t2 in range(4):
            value = td.ergodic_cylinder_measure_star(
                model, pair.star_members, (t1, t2))
            if model.j_map[t2] == model.gamma[t1]:
                assert value == Fraction(1, 8)
                legal += 1
            else:
                assert value == 0
    assert legal == 8


def test_cylinder_star_does_not_truncate():
    model = td.build_model(("a", "b"), ("s",), ("s", "s"), ("s", "s"),
                           [Fraction(1, 2), Fraction(1, 2)])
    assert td.ergodic_cylinder_measure_star(
        model, (0, np.int64(1)), (np.int64(0), 1)) == Fraction(1, 4)
    for members, word in [((0.5, 1.9), (0, 1)), ((0, 1), (0.2, 1.4)),
                          ((0, True), (0, 1)), ((0, 1), (0, False)),
                          (("0", 1), (0, 1))]:
        with pytest.raises(td.ValidationError, match="integer indices"):
            td.ergodic_cylinder_measure_star(model, members, word)


def test_cylinder_zero_outside_the_class(example_b):
    model = td.simplicial1d.to_two_alphabet(example_b)
    correspondence = td.basic_set_correspondence(model)
    terminal = [p for p in correspondence.pairs if p.terminal]
    first = terminal[0]
    outside = next(t for t in range(len(model.kstar))
                   if t not in set(first.star_members))
    assert td.ergodic_cylinder_measure_star(
        model, first.star_members, (outside,)) == 0


def test_class_stationary_names_the_mass_a_class_loses(example_b):
    model = td.simplicial1d.to_two_alphabet(example_b)
    with pytest.raises(td.NotTerminalError,
                       match=r"^class loses mass 1/2 from 'I2'$"):
        td.two_alphabet.base_class_stationary(model, [1])


def test_cylinder_measure_star_rejects_leaky_class(example_b):
    model = td.simplicial1d.to_two_alphabet(example_b)
    correspondence = td.basic_set_correspondence(model)
    leaky = next(p for p in correspondence.pairs if not p.terminal)
    with pytest.raises(td.NotTerminalError):
        td.ergodic_cylinder_measure_star(model, leaky.star_members, (0,))


def test_cylinder_star_matches_float_markov_measure():
    model = shift_pair_model()
    pair, = td.basic_set_correspondence(model).pairs
    v_b = td.two_alphabet.base_class_stationary(model, pair.base_members)
    lifted = td.lift_stationary(
        model, [v_b.get(i, Fraction(0)) for i in range(len(model.k))])
    spec = td.MarkovMeasureSpec(
        gstar_float_cover(model), td.Distribution.from_weights([float(x) for x in lifted]))
    words = [(t,) for t in range(4)]
    for _ in range(2):
        words += [w + (t,) for w in words for t in range(4)
                  if model.j_map[t] == model.gamma[w[-1]]]
    for word in words:
        if len(word) > 3:
            continue
        exact = td.ergodic_cylinder_measure_star(model, pair.star_members, word)
        assert float(exact) == pytest.approx(
            td.cylinder_measure(spec, word), abs=1e-12)
