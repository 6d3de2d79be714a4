import math
import random
from fractions import Fraction

import pytest

import tractable_dyn as td
from oracles import AffineMap, local_inverse, star_edge_image

F = Fraction


def cx(*vertices):
    return td.IntervalComplex(tuple(F(v) for v in vertices))


# --- complexes, coordinates, metric ---


def test_complex_needs_increasing_vertices():
    with pytest.raises(td.ValidationError):
        cx(0)
    with pytest.raises(td.ValidationError):
        cx(0, 1, 1)
    with pytest.raises(td.ValidationError):
        cx(0, 2, 1)


def test_complex_geometry_helpers():
    k = cx(0, F(1, 2), 2)
    assert k.n_edges == 2
    assert k.mesh() == F(3, 2)
    assert k.edge(1) == (F(1, 2), F(2))
    assert k.locate_edge(F(0)) == 0
    assert k.locate_edge(F(1, 2)) == 1
    assert k.locate_edge(F(2)) == 1
    assert k.vertex_index(F(1, 2)) == 1


def test_barycentric_coordinates():
    k = cx(0, 1, 2)
    assert td.barycentric(k, F(1, 2)) == {0: F(1, 2), 1: F(1, 2)}
    assert td.barycentric(k, F(1)) == {1: F(1)}
    assert td.barycentric(k, F(7, 4)) == {1: F(1, 4), 2: F(3, 4)}


def test_barycentric_rejects_outside_points():
    with pytest.raises(td.ValidationError):
        td.barycentric(cx(0, 1), F(3, 2))


def test_metric_pinned_values():
    k = cx(0, 1, 2)
    assert td.metric_d(k, F(1, 4), F(3, 4)) == 1
    assert td.metric_d(k, F(1, 2), F(3, 2)) == 1
    assert td.metric_d(k, F(0), F(2)) == 2
    # within one edge the metric is twice the length ratio
    assert td.metric_d(k, F(1, 8), F(5, 8)) == 2 * F(1, 2)


def test_metric_axioms_on_random_points():
    k = cx(0, F(1, 3), 1, F(5, 2))
    rng = random.Random(2)
    span = k.hi - k.lo
    points = [k.lo + span * F(rng.randint(0, 64), 64) for _ in range(30)]
    for x in points:
        assert td.metric_d(k, x, x) == 0
    for x, y, z in zip(points, points[1:], points[2:]):
        assert td.metric_d(k, x, y) == td.metric_d(k, y, x) > 0 or x == y
        assert td.metric_d(k, x, z) <= td.metric_d(k, x, y) + td.metric_d(k, y, z)


def test_affine_map_algebra():
    double = AffineMap(F(2), F(1))
    half = double.inverse()
    assert double(F(3)) == 7
    assert half(F(7)) == 3
    assert double.compose(half)(F(5)) == 5
    assert double.interval_image(F(0), F(1)) == (F(1), F(3))
    flip = AffineMap(F(-1), F(1))
    assert flip.interval_image(F(0), F(1)) == (F(0), F(1))


# --- system construction ---


def test_example_a_structure(example_a):
    assert [example_a.star_edge_label(j) for j in range(4)] == \
        ["I1.1", "I1.2", "I2.1", "I2.2"]
    assert [example_a.k_edge_label(i) for i in range(2)] == ["I1", "I2"]
    assert [example_a.j_edge(j) for j in range(4)] == [0, 0, 1, 1]
    assert [star_edge_image(example_a, j) for j in range(4)] == [0, 0, 1, 1]


def test_example_b_structure(example_b):
    assert [example_b.j_edge(j) for j in range(6)] == [0, 0, 1, 1, 2, 2]
    assert [star_edge_image(example_b, j) for j in range(6)] == [0, 0, 1, 2, 2, 2]


def test_build_rejects_collapsed_edges():
    with pytest.raises(td.DegenerateMapError):
        td.build_system(cx(0, 1), cx(0, F(1, 2), 1),
                        {F(0): F(0), F(1, 2): F(0), F(1): F(1)})


def test_build_rejects_torn_edges():
    with pytest.raises(td.DegenerateMapError):
        td.build_system(cx(0, 1, 2), cx(0, F(1, 2), 1, F(3, 2), 2),
                        {F(0): F(0), F(1, 2): F(2), F(1): F(1),
                         F(3, 2): F(0), F(2): F(1)})


def test_build_rejects_non_vertex_images():
    with pytest.raises(td.ValidationError):
        td.build_system(cx(0, 1), cx(0, F(1, 2), 1),
                        {F(0): F(0), F(1, 2): F(3, 4), F(1): F(0)})


def test_build_rejects_improper_subdivisions():
    # span mismatch
    with pytest.raises(td.SubdivisionError):
        td.build_system(cx(0, 1), cx(0, F(1, 2), 2),
                        {F(0): F(0), F(1, 2): F(1), F(2): F(0)})
    # missing coarse vertex
    with pytest.raises(td.SubdivisionError):
        td.build_system(cx(0, 1, 2), cx(0, F(1, 2), 2),
                        {F(0): F(0), F(1, 2): F(1), F(2): F(0)})
    # a coarse edge left unsplit
    with pytest.raises(td.SubdivisionError):
        td.build_system(cx(0, 1), cx(0, 1),
                        {F(0): F(0), F(1): F(1)})


def test_vmap_accepts_rational_strings():
    system = td.build_system(cx(0, 1), cx(0, F(1, 2), 1),
                             {"0": "1", "1/2": "0", "1": "1"})
    assert td.pl_eval(system, F(1, 2)) == 0


# --- evaluation, theta, contraction ---


def test_pl_eval_example_a(example_a):
    assert td.pl_eval(example_a, F(1, 4)) == F(1, 2)
    assert td.pl_eval(example_a, F(0)) == 1
    assert td.pl_eval(example_a, F(1, 2)) == 0
    assert td.pl_eval(example_a, F(2)) == 1
    assert td.pl_eval(example_a, F(7, 4)) == F(3, 2)


def test_theta_of_the_worked_examples(example_a, example_b):
    assert td.theta(example_a) == F(1, 2)
    assert td.theta(example_b) == F(1, 2)


def test_theta_uneven_split():
    system = td.build_system(cx(0, 1), cx(0, F(1, 3), 1),
                             {F(0): F(0), F(1, 3): F(1), F(1): F(0)})
    assert td.theta(system) == F(1, 3)


def test_theta_range_on_random_systems(random_pl_system):
    rng = random.Random(41)
    for _ in range(25):
        value = td.theta(random_pl_system(rng))
        assert 0 < value <= F(1, 2)


def test_local_inverses_contract(random_pl_system):
    """Inverse branches shrink the barycentric metric by at least 1 - theta."""
    rng = random.Random(43)
    for _ in range(10):
        system = random_pl_system(rng)
        factor = 1 - td.theta(system)
        for _ in range(40):
            j = rng.randrange(system.kstar.n_edges)
            lo, hi = system.k.edge(star_edge_image(system, j))
            x1 = lo + (hi - lo) * F(rng.randint(0, 128), 128)
            x2 = lo + (hi - lo) * F(rng.randint(0, 128), 128)
            branch = local_inverse(system, j)
            assert td.metric_d(system.k, branch(x1), branch(x2)) <= \
                factor * td.metric_d(system.k, x1, x2)


def test_norm_bound_two_state_matrices():
    result = td.column_stochastic_norm_bound(
        [[0.75, 0.25], [0.25, 0.75]], 0.25)
    assert result.bound == pytest.approx(0.75)
    assert result.max_ratio <= result.bound + 1e-12
    equal = td.column_stochastic_norm_bound([[0.5, 0.5], [0.5, 0.5]], 0.5)
    assert equal.max_ratio == pytest.approx(0.0, abs=1e-15)


def test_norm_bound_rejects_columns_without_shared_mass():
    with pytest.raises((td.ValidationError, td.NumericalError)):
        td.column_stochastic_norm_bound([[1.0, 0.0], [0.0, 1.0]], 0.25)


# --- symbolic coding ---


def test_code_word_pinned_interval(example_a):
    assert td.code_H_1d(example_a, (0, 0)) == (F(1, 4), F(1, 2))
    assert td.code_H_1d(example_a, (0,)) == (F(0), F(1, 2))


def test_code_word_rejects_non_words(example_a):
    with pytest.raises(td.WordError):
        td.code_H_1d(example_a, (0, 2))


def test_code_word_lengths_shrink_geometrically(random_pl_system):
    rng = random.Random(47)
    for _ in range(8):
        system = random_pl_system(rng)
        factor = 1 - td.theta(system)
        successors = [
            [j2 for j2 in range(system.kstar.n_edges)
             if system.j_edge(j2) == star_edge_image(system, j)]
            for j in range(system.kstar.n_edges)]
        for _ in range(15):
            word = [rng.randrange(system.kstar.n_edges)]
            for _ in range(rng.randint(0, 7)):
                word.append(rng.choice(successors[word[-1]]))
            lo, hi = td.code_H_1d(system, word)
            assert lo < hi
            assert td.metric_d(system.k, lo, hi) <= 2 * factor ** len(word)


# --- refinement ---


@pytest.mark.parametrize("depth,cells,mesh", [
    (0, 4, F(1)),
    (1, 4, F(1)),
    (2, 8, F(1, 2)),
    (3, 16, F(1, 4)),
    (10, 2048, F(1, 512)),
])
def test_refine_example_a_pinned(example_a, depth, cells, mesh):
    refined, report = td.refine(example_a, depth)
    assert report.cells == cells
    assert report.mesh_d == mesh
    assert report.bound == 2 * F(1, 2) ** depth
    # the bound is attained from depth 1 on; at depth 0 it is just 2*mesh
    assert report.tight == (depth >= 1)
    assert refined.n_edges == cells
    assert (refined.lo, refined.hi) == (F(0), F(2))


def test_refine_mesh_bound_random(random_pl_system):
    rng = random.Random(53)
    for _ in range(6):
        system = random_pl_system(rng, max_parts=2)
        factor = 1 - td.theta(system)
        for depth in range(0, 6):
            _, report = td.refine(system, depth)
            assert report.mesh_d <= 2 * factor ** depth


def test_refine_cap(example_a, monkeypatch):
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "1000")
    with pytest.raises(td.CapExceededError):
        td.refine(example_a, 14)


# --- distribution data, repair, roundoff ---


def test_lebesgue_data_example_a(example_a):
    assert td.lebesgue_distribution_data(example_a) == [F(1, 2)] * 4


def test_lebesgue_data_uneven():
    system = td.build_system(cx(0, 1), cx(0, F(1, 4), 1),
                             {F(0): F(0), F(1, 4): F(1), F(1): F(0)})
    assert td.lebesgue_distribution_data(system) == [F(1, 4), F(3, 4)]


def test_lebesgue_data_fiber_sums(random_pl_system):
    rng = random.Random(59)
    for _ in range(10):
        system = random_pl_system(rng)
        nu = td.lebesgue_distribution_data(system)
        for i in range(system.k.n_edges):
            fiber = [nu[j] for j in range(system.kstar.n_edges)
                     if system.j_edge(j) == i]
            assert sum(fiber) == 1


def test_repair_even_run_inserts_a_vertex():
    k = cx(0, 1, 2)
    kstar = cx(0, F(1, 2), 1, F(3, 2), 2)
    vmap = {F(0): F(1), F(1, 2): F(1), F(1): F(0),
            F(3, 2): F(1), F(2): F(2)}
    system, report = td.nondegenerate_repair(k, kstar, vmap)
    assert report.changed
    assert report.inserted == 1
    assert report.reassigned == 1
    assert report.sup_change <= report.bound == 4 * k.mesh()
    assert system.kstar.vertices == (F(0), F(1, 4), F(1, 2), F(1),
                                     F(3, 2), F(2))
    assert [system.image_value(i) for i in range(6)] == \
        [F(1), F(0), F(1), F(0), F(1), F(2)]


def test_repair_odd_run_rewrites_in_place():
    k = cx(0, 1, 2)
    kstar = cx(0, F(1, 2), 1, F(3, 2), 2)
    vmap = {F(0): F(1), F(1, 2): F(1), F(1): F(1),
            F(3, 2): F(2), F(2): F(1)}
    system, report = td.nondegenerate_repair(k, kstar, vmap)
    assert report.changed
    assert report.inserted == 0
    assert report.reassigned == 1
    assert [system.image_value(i) for i in range(5)] == \
        [F(1), F(0), F(1), F(2), F(1)]


def test_repair_leaves_valid_maps_alone(example_a):
    vmap = {x: example_a.image_value(i)
            for i, x in enumerate(example_a.kstar.vertices)}
    system, report = td.nondegenerate_repair(example_a.k, example_a.kstar, vmap)
    assert not report.changed
    assert report.inserted == report.reassigned == 0
    assert system.kstar.vertices == example_a.kstar.vertices


def test_repair_cannot_fix_tears():
    with pytest.raises(td.DegenerateMapError):
        td.nondegenerate_repair(
            cx(0, 1, 2), cx(0, F(1, 2), 1, F(3, 2), 2),
            {F(0): F(0), F(1, 2): F(2), F(1): F(1),
             F(3, 2): F(1), F(2): F(2)})


def test_roundoff_constant_function():
    system, report = td.roundoff(lambda x: 1.0, cx(0, 1, 2), 1.0)
    assert report.repaired
    assert report.error_bound == 6 * report.mesh == 6
    assert report.parts_per_edge == (2, 2)
    td.theta(system)


def test_roundoff_keeps_a_nondegenerate_tent():
    system, report = td.roundoff(lambda x: 1 - abs(1 - 2 * x), cx(0, 1), 2)
    assert not report.repaired
    assert report.repair is None
    assert report.error_bound == 2
    assert system.kstar.vertices == (0, F(1, 2), 1)
    assert system.vertex_images == (0, 1, 0)


def test_roundoff_requires_positive_lipschitz():
    with pytest.raises(td.ValidationError):
        td.roundoff(lambda x: 1.0, cx(0, 1, 2), 0.0)


def test_roundoff_range_check():
    with pytest.raises(td.MapRangeError):
        td.roundoff(lambda x: 5.0, cx(0, 1, 2), 1.0)


def test_roundoff_tracks_a_piecewise_linear_target(example_b):
    target = example_b

    def f(x):
        return float(td.pl_eval(target, Fraction(x)))

    system, report = td.roundoff(f, target.k, 2.0)
    assert report.mesh == 1
    assert report.error_bound in (2.0, 6.0)
    rng = random.Random(61)
    worst = 0.0
    for _ in range(1000):
        x = Fraction(rng.randint(0, 3 * 512), 512)
        worst = max(worst, abs(float(td.pl_eval(target, x))
                               - float(td.pl_eval(system, x))))
    assert worst <= report.error_bound + 1e-9


# --- reports ---


def test_report_support_of_a_class_with_a_gap():
    system = td.build_system(
        cx(0, 1, 2, 3), cx(0, F(1, 2), 1, F(3, 2), 2, F(5, 2), 3),
        {F(0): 2, F(1, 2): 3, F(1): 2, F(3, 2): 1, F(2): 0, F(5, 2): 1,
         F(3): 0})
    data = td.tractability_report_pl(system).to_json_dict()
    assert data["terminal"] == [["I1", "I3"]]
    assert [entry["support"] for entry in data["measures"]] == \
        [[["0", "1"], ["2", "3"]]]


def test_report_example_a(example_a):
    data = td.tractability_report_pl(example_a).to_json_dict()
    assert data["space"] == ["0", "2"]
    assert data["theta"] == "1/2"
    assert data["basic_sets"] == [["I1"], ["I2"]]
    assert data["terminal"] == [["I1"], ["I2"]]
    assert data["transient"] == []
    assert data["order"] == []
    assert data["stationary"] == [{"I1": "1"}, {"I2": "1"}]
    assert data["decay"] == {"n": 1, "rho": 0.0}
    supports = [entry["support"] for entry in data["measures"]]
    assert supports == [[["0", "1"]], [["1", "2"]]]
    densities = [d["density"] for entry in data["measures"]
                 for d in entry["density"]]
    assert densities == ["1", "1"]
    assert data["background"] == {"I1": 0.5, "I2": 0.5}
    masses = [entry["background_mass"] for entry in data["measures"]]
    assert masses == [pytest.approx(0.5), pytest.approx(0.5)]
    assert all(block["holds"] for block in data["trac"].values())
    shared = data["caveats"]["shared_support_boundaries"]
    assert [entry["points"] for entry in shared] == [["1"]]
    assert data["caveats"]["visible_but_not_terminal"] == []
    assert data["genericity"] is None


def test_report_example_b(example_b):
    data = td.tractability_report_pl(example_b).to_json_dict()
    assert data["basic_sets"] == [["I1"], ["I2"], ["I3"]]
    assert data["terminal"] == [["I1"], ["I3"]]
    assert data["transient"] == ["I2"]
    assert data["order"] == [[1, 2]]
    assert data["decay"] == {"n": 1, "rho": 0.5}
    assert data["stationary"] == [{"I1": "1"}, {"I3": "1"}]
    supports = [entry["support"] for entry in data["measures"]]
    assert supports == [[["0", "1"]], [["2", "3"]]]
    flagged, = data["caveats"]["visible_but_not_terminal"]
    assert flagged["class"] == ["I2"]
    masses = [entry["background_mass"] for entry in data["measures"]]
    assert masses[0] == pytest.approx(1 / 3, abs=1e-9)
    assert masses[1] == pytest.approx(2 / 3, abs=1e-9)


def test_report_rejects_bad_background(example_a):
    with pytest.raises(td.ValidationError):
        td.tractability_report_pl(example_a, background=[0.5, 0.6])
    with pytest.raises(td.ValidationError):
        td.tractability_report_pl(example_a, background=[1.0, 0.0])
    with pytest.raises(td.ValidationError, match="positive"):
        td.tractability_report_pl(example_a, background=[float("nan"), 1.0])


def test_report_rejects_unabsorbed_transient_mass():
    # I2 leaks only through a fine edge of length 1e-6, so transient mass
    # is far from absorbed when the iteration stops; the shares are then
    # solved exactly: all of I2's third of the mass ends in I1.
    eps = F(1, 10**6)
    system = td.build_system(
        cx(0, 1, 2, 3),
        cx(0, F(1, 2), 1, 1 + eps, 2, F(5, 2), 3),
        {F(0): F(0), F(1, 2): F(1), F(1): F(0), 1 + eps: F(1),
         F(2): F(2), F(5, 2): F(3), F(3): F(2)})
    report = td.tractability_report_pl(system)
    decomp = report.analysis.correspondence.base_decomposition
    shares = {decomp.class_labels(c): report.absorption[c]
              for c in decomp.terminal_classes()}
    assert shares == {("I1",): float(F(2, 3)), ("I3",): float(F(1, 3))}


def test_exact_absorption_agrees_with_the_converged_loop(example_a, example_b):
    from tractable_dyn.simplicial1d import _exact_absorption

    for system in (example_a, example_b):
        report = td.tractability_report_pl(system)
        n = system.k.n_edges
        exact = _exact_absorption(report.analysis, [F(1, n)] * n)
        assert sum(exact.values()) == 1
        assert set(exact) == set(report.absorption)
        for c, share in exact.items():
            assert report.absorption[c] == pytest.approx(float(share), abs=1e-12)


def test_birkhoff_histogram_smoke(example_a):
    result = td.decode_orbit_histogram(
        td.tractability_report_pl(example_a), (0, 1), segments=2000,
        depth=25, bins=10, seed=7)
    assert result.segments == 2000
    assert result.threshold == pytest.approx(5 / math.sqrt(2000))
    assert result.max_deviation <= result.threshold
    assert result.passed


def test_birkhoff_histogram_rejects_leaky_class(example_b):
    with pytest.raises(td.NotTerminalError):
        td.decode_orbit_histogram(
            td.tractability_report_pl(example_b), (2,), segments=1000,
            depth=10, bins=10, seed=1)


def test_plot_smoke(example_a):
    from tractable_dyn.plot import system_svg

    report = td.tractability_report_pl(example_a)
    text = system_svg(example_a, report)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "I1" in text


# --- serialization ---


def test_complex_json_round_trip():
    k = cx(0, F(1, 3), 2)
    data = td.simplicial1d.complex_to_json(k)
    assert td.simplicial1d.complex_from_json(data) == k


def test_system_json_round_trip(example_b):
    data = td.simplicial1d.system_to_json(example_b)
    again = td.simplicial1d.system_from_json(data)
    assert again.k == example_b.k
    assert again.kstar == example_b.kstar
    assert again.vertex_images == example_b.vertex_images


def test_system_json_rejects_missing_fields():
    with pytest.raises(td.ValidationError):
        td.simplicial1d.system_from_json({"K": ["0", "1"]})
