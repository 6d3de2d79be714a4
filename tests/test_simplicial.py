import bisect
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import tractable_dyn as td
import oracles
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


@pytest.mark.parametrize("word", [[0.9, 1.7], ["a"], [0, F(1)], [None]])
def test_code_word_rejects_non_integer_symbols(example_a, word):
    # int() would truncate [0.9, 1.7] to the word [0, 1].
    with pytest.raises(td.WordError, match="must be integers"):
        td.code_H_1d(example_a, word)


def test_code_word_takes_integer_like_symbols(example_a):
    assert td.code_H_1d(example_a, np.array([0, 0])) == (F(1, 4), F(1, 2))
    assert td.code_H_1d(example_a, [np.int64(0), 1]) == \
        td.code_H_1d(example_a, (0, 1))


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


def _outcome(function, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return function(*args)
    except td.TractableDynError as exc:
        return type(exc), str(exc)


def _random_coarse(rng):
    vertices = [F(rng.randint(-2, 2))]
    for _ in range(rng.randint(1, 4)):
        vertices.append(vertices[-1] + F(rng.randint(1, 4), rng.choice((1, 2))))
    return cx(*vertices)


def _random_repair_input(rng):
    """A coarse complex, a subdivision (now and then not proper) and a lazy
    walk of images with collapses, now and then a tear or a value that is
    no coarse vertex; the map is a dict of strings or a list."""
    k = _random_coarse(rng)
    fine = [k.lo]
    for a, b in zip(k.vertices, k.vertices[1:]):
        least = 0 if rng.random() < 0.03 else 1
        cuts = {a + (b - a) * F(rng.randint(1, 7), 8)
                for _ in range(rng.randint(least, 4))}
        fine.extend(sorted(cuts))
        fine.append(b)
    pos = rng.randrange(len(k.vertices))
    images = []
    for _ in fine:
        images.append(k.vertices[pos])
        r = rng.random()
        step = 0 if r < 0.45 else rng.choice((-1, 1)) if r < 0.98 \
            else rng.choice((-2, 2))
        pos = min(max(pos + step, 0), k.n_edges)
    if rng.random() < 0.02:
        images[rng.randrange(len(images))] += F(1, 3)
    if rng.random() < 0.5:
        return k, cx(*fine), {str(x): str(y) for x, y in zip(fine, images)}
    return k, cx(*fine), images


def test_repair_matches_the_run_loop_oracle():
    rng = random.Random(1601)
    outcomes = set()
    for _ in range(600):
        args = _random_repair_input(rng)
        got = _outcome(td.nondegenerate_repair, *args)
        assert got == _outcome(oracles.nondegenerate_repair, *args), args
        if isinstance(got[0], td.SimplicialSystem1D):
            assert type(got[0].vertex_images) is tuple
            outcomes.add((got[1].inserted > 0, got[1].reassigned > 0))
        else:
            outcomes.add(got[0])
    assert outcomes >= {(True, True), (False, True), (False, False),
                        td.DegenerateMapError, td.SubdivisionError,
                        td.ValidationError}


def _random_roundoff_input(rng):
    """A coarse complex, a Lipschitz bound and a float map.

    The map interpolates a random walk whose slopes reach up to 1.5 times
    the bound and which may leave the space by up to 1e-9 (``f.outside``
    records that a sample did).  At a hashed share of its sample points it
    returns the snap target nearest that value instead (at one in a
    hundred, any target): a float coarse midpoint, a midpoint plus or minus
    a cell's half span (so a cell image ends exactly on it), a coarse
    vertex, or a point outside the space within (or, rarely, beyond) the
    1e-9 slack.
    """
    k = _random_coarse(rng)
    lip = rng.choice((F(1, 2), 1, F(3, 2), 2, 2.0, F(7, 4)))
    lo, hi = float(k.lo), float(k.hi)
    mids = [(a + b) / 2 for a, b in zip(k.vertices, k.vertices[1:])]
    gap = min((m2 - m1 for m1, m2 in zip(mids, mids[1:])), default=None)
    spans = {0.0}
    for a, b in zip(k.vertices, k.vertices[1:]):
        parts = 1 if gap is None else max(1, -(-(b - a) * 2 * F(lip) // gap))
        spans.add(float(F(lip) * (b - a) / parts / 2))
    targets = [float(m) + sign * h for m in mids for h in spans
               for sign in (-1, 1)]
    targets += [float(v) for v in k.vertices]
    targets += [lo - 5e-10, hi + 5e-10, lo - 1e-9, hi + 1e-9]
    if rng.random() < 0.05:
        targets.append(hi + 3e-9)
    xs = sorted({lo, hi, *(rng.uniform(lo, hi) for _ in range(4))})
    ys = [rng.uniform(lo, hi)]
    steep = rng.choice((0.5, 1.0, 1.5))
    for x1, x2 in zip(xs, xs[1:]):
        step = rng.uniform(-1, 1) * steep * float(lip) * (x2 - x1)
        ys.append(min(max(ys[-1] + step, lo - 1e-9), hi + 1e-9))
    snap_share = rng.choice((0.0, 0.2, 0.6))
    seed = rng.randrange(1 << 30)

    def f(x):
        i = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        y = ys[i] + t * (ys[i + 1] - ys[i])
        pick = random.Random(f"{seed}:{x!r}")
        if pick.random() < snap_share:
            y = min(targets, key=lambda target: abs(target - y))
        elif pick.random() < 0.01:
            y = pick.choice(targets)
        if not lo <= y <= hi:
            f.outside = True
        return y
    f.outside = False
    return f, k, lip


def test_roundoff_matches_the_linear_scan_oracle():
    rng = random.Random(1602)
    outcomes = set()
    for _ in range(600):
        args = _random_roundoff_input(rng)
        got = _outcome(td.roundoff, *args)
        assert got == _outcome(oracles.roundoff, *args), args[1:]
        if isinstance(got[0], td.SimplicialSystem1D):
            outcomes.add(got[1].repaired)
            outcomes.add("outside" if args[0].outside else "inside")
        else:
            outcomes.add(got[0])
    assert outcomes >= {True, False, "outside", "inside", td.MapRangeError,
                        td.DegenerateMapError}


def test_roundoff_snaps_images_on_a_float_midpoint():
    # Cell vertices mapped exactly onto the midpoint 1/2 of [0, 1] lie in
    # no vertex star and pick the nearer end of edge [0, 1], its left end.
    args = (lambda x: 0.5, cx(0, 1, 2), 1)
    assert _outcome(td.roundoff, *args) == _outcome(oracles.roundoff, *args)
    system, report = td.roundoff(*args)
    assert report.repaired
    assert system.vertex_images[0] == 0


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


def _leaky_system():
    # I2 leaks only through a fine edge of length 1e-6, so transient mass
    # is far from absorbed after 100000 steps.
    eps = F(1, 10**6)
    return td.build_system(
        cx(0, 1, 2, 3),
        cx(0, F(1, 2), 1, 1 + eps, 2, F(5, 2), 3),
        {F(0): F(0), F(1, 2): F(1), F(1): F(0), 1 + eps: F(1),
         F(2): F(2), F(5, 2): F(3), F(3): F(2)})


def test_background_forms_give_identical_reports(example_b):
    # The leaky system takes the exact fallback, example b the float loop.
    for system in (example_b, _leaky_system()):
        reports = {json.dumps(td.tractability_report_pl(
            system, background=form).to_json_dict(), sort_keys=True)
            for form in ([F(1, 4), F(1, 2), F(1, 4)], [0.25, 0.5, 0.25],
                         ["1/4", "1/2", "1/4"], ("1/4", 0.5, F(1, 4)),
                         np.array([0.25, 0.5, 0.25], dtype=np.float32))}
        assert len(reports) == 1
        assert '"I2": 0.5' in reports.pop()


@pytest.mark.parametrize("background, message", [
    (["1/2", "3/5"], "must sum to 1"),
    ([F(3, 2), F(-1, 2)], "must be positive"),
    ([float("-inf"), 1.0], "must be positive"),
    ([float("inf"), 0.5], "must sum to 1"),
    ([1.0], "must weight every coarse edge"),
    (["1/2", "x"], "not a rational literal"),
])
def test_report_background_errors(example_a, background, message):
    with pytest.raises(td.ValidationError, match=message):
        td.tractability_report_pl(example_a, background=background)


def test_report_rejects_unabsorbed_transient_mass():
    # Transient mass is far from absorbed when the iteration stops; the
    # shares are then solved exactly: all of I2's third of the mass ends in
    # I1.
    report = td.tractability_report_pl(_leaky_system())
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
