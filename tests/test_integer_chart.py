"""The integer-chart loops agree exactly with their Fraction references.

``decode_orbit_histogram``, ``refine``, ``code_H_1d`` and ``sample_path``
are compared with the step-by-step versions in ``oracles`` on the worked
examples, the random systems of ``conftest``, systems with vertex
denominators 3, 5 and 7, and systems shaped like the ``plmap`` benchmark
schedule (random vertex maps, repaired lazy maps, rounded sampled maps).
The decoder's float screen must equal, bit for bit, the screen that gathered
its tables at every step, and ``refine``, which composes every chain over
one denominator, must equal the depth-first walk over one denominator per
cell: its report, and a complex that shows what the ``Fraction``-vertex
complex of that walk shows.
The system reader, which finds vertices through each complex's map from
vertex to index, is compared with the bisecting reader in ``oracles`` on the
same systems, each also corrupted in seven ways.
"""

import bisect
import dataclasses
import json
import math
import random
import tracemalloc
import types
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tractable_dyn as td
from tractable_dyn import cli, markov, simplicial1d

import oracles


def _system(k, kstar, images):
    return td.build_system(td.IntervalComplex(tuple(k)),
                           td.IntervalComplex(tuple(kstar)),
                           [k[i] for i in images])


def thirds_and_fifths():
    """Denominators 3 and 5 (scale 15); edges 0 and 3 reverse orientation."""
    return _system([F(0), F(2, 3), F(7, 5)],
                   [F(0), F(1, 5), F(2, 3), F(1), F(6, 5), F(7, 5)],
                   [1, 0, 1, 2, 1, 2])


def _walk(rng, n_edges, steps, lazy=False):
    pos = rng.randint(0, n_edges)
    images = [pos]
    for _ in range(steps):
        if lazy and rng.random() < 0.2:
            step = 0
        elif pos == 0:
            step = 1
        elif pos == n_edges:
            step = -1
        else:
            step = rng.choice((-1, 1))
        pos += step
        images.append(pos)
    return images


def _split(rng, vertices, cuts):
    fine = []
    for lo, hi in zip(vertices, vertices[1:]):
        fine.append(lo)
        for cut in sorted(rng.sample(cuts, rng.randint(1, 2))):
            fine.append(lo + (hi - lo) * cut)
    fine.append(vertices[-1])
    return fine


def mixed_denominators(rng, n_edges):
    """Coarse lengths over 1, 3, 5 and cuts over 3, 5, 7."""
    vertices = [F(0)]
    for _ in range(n_edges):
        vertices.append(vertices[-1] + F(rng.randint(1, 4), rng.choice((1, 3, 5))))
    cuts = [F(1, 3), F(2, 3), F(2, 5), F(3, 5), F(1, 7), F(4, 7)]
    fine = _split(rng, vertices, cuts)
    return _system(vertices, fine, _walk(rng, n_edges, len(fine) - 1))


_LENGTHS = [F(1), F(3, 2), F(2), F(5, 2)]
_EIGHTHS = [F(i, 8) for i in range(1, 8)]


def schedule_shape(rng, kind, n_edges):
    """A system like one entry of the plmap benchmark schedule."""
    if kind == "sampled":
        points = [F(i, 2) for i in range(2 * n_edges + 1)]
        values = [F(rng.randint(0, 2 * n_edges), 2)]
        for _ in points[1:]:
            values.append(min(max(values[-1] + F(rng.randint(-2, 2), 2), F(0)),
                              F(n_edges)))

        def f(t):
            i = min(int(2 * t), 2 * n_edges - 1)
            a, b = float(values[i]), float(values[i + 1])
            return a + (b - a) * (2 * t - i)
        k = td.IntervalComplex(tuple(F(i) for i in range(n_edges + 1)))
        return td.roundoff(f, k, 2)[0]
    vertices = [F(0)]
    for _ in range(n_edges):
        vertices.append(vertices[-1] + rng.choice(_LENGTHS))
    fine = _split(rng, vertices, _EIGHTHS)
    if kind == "repair":
        images = _walk(rng, n_edges, len(fine) - 1, lazy=True)
        return td.nondegenerate_repair(
            td.IntervalComplex(tuple(vertices)), td.IntervalComplex(tuple(fine)),
            [vertices[i] for i in images])[0]
    return _system(vertices, fine, _walk(rng, n_edges, len(fine) - 1))


def systems(example_a, example_b, random_pl_system):
    rng = random.Random(20261017)
    out = [example_a, example_b, thirds_and_fifths()]
    out += [random_pl_system(rng) for _ in range(6)]
    out += [mixed_denominators(rng, n) for n in (1, 2, 3, 5)]
    for kind, n_edges in (("vmap", 4), ("vmap", 8), ("sampled", 4),
                          ("vmap", 16), ("repair", 8), ("vmap", 12),
                          ("repair", 16), ("vmap", 32), ("vmap", 6)):
        out.append(schedule_shape(rng, kind, n_edges))
    return out


@pytest.fixture
def all_systems(example_a, example_b, random_pl_system):
    return systems(example_a, example_b, random_pl_system)


def _words(system, rng, count):
    chart = system.chart
    fibers = {}
    for j, base in enumerate(chart.j_edge):
        fibers.setdefault(base, []).append(j)
    words = []
    for _ in range(count):
        word = [rng.randrange(system.kstar.n_edges)]
        for _ in range(rng.randint(0, 9)):
            word.append(rng.choice(fibers[chart.image_edge[word[-1]]]))
        words.append(word)
    return words


def test_test_systems_cover_reversal_and_lcm_scaling(all_systems):
    charts = [s.chart for s in all_systems]
    assert any(r < 0 for c in charts for r in c.rise)
    assert any(c.scale % 15 == 0 for c in charts)
    assert thirds_and_fifths().chart.scale == 15


def test_chart_matches_fraction_geometry(all_systems):
    for system in all_systems:
        chart = system.chart
        assert [F(v, chart.scale) for v in chart.x] == list(system.kstar.vertices)
        assert [F(v, chart.scale) for v in chart.coarse_x] == list(system.k.vertices)
        for j in range(system.kstar.n_edges):
            branch = oracles.local_inverse(system, j)
            for y in system.k.edge(oracles.star_edge_image(system, j)):
                t = F(chart.length[j] * y * chart.scale + chart.offset[j],
                      chart.rise[j] * chart.scale)
                assert t == branch(y)
            a, _ = system.kstar.edge(j)
            assert chart.j_edge[j] == system.k.locate_edge(a)
            assert chart.image_edge[j] == oracles.star_edge_image(system, j)


def test_theta_and_labels_match_their_definitions(all_systems):
    for system in all_systems:
        weights = []
        for w in system.kstar.vertices:
            if system.k.vertex_index(w) is None:
                a, b = system.k.edge(system.k.locate_edge(w))
                weights.append(min((b - w) / (b - a), (w - a) / (b - a)))
        assert td.theta(system) == min(weights)
        j_edge = [system.k.locate_edge(system.kstar.vertices[j])
                  for j in range(system.kstar.n_edges)]
        labels = [f"I{j_edge[j] + 1}."
                  f"{sum(1 for i in range(j) if j_edge[i] == j_edge[j]) + 1}"
                  for j in range(system.kstar.n_edges)]
        assert [system.star_edge_label(j)
                for j in range(system.kstar.n_edges)] == labels
        assert list(td.simplicial1d.to_two_alphabet(system).kstar) == labels


def test_decay_of_the_g_cover_matches_the_oracles(all_systems):
    leaky = 0
    for system in all_systems:
        cover = td.induced_covers(simplicial1d.to_two_alphabet(system))
        leaky += oracles.check_transient_decay(cover).rho > 0
    assert leaky >= 2


def test_code_H_1d_matches_reference(all_systems):
    rng = random.Random(7)
    for system in all_systems:
        for word in _words(system, rng, 12):
            assert td.code_H_1d(system, word) == \
                oracles.code_interval(system, word)


def _outcome(function, *args):
    """A function's result, or the type and message of what it raised."""
    try:
        return function(*args)
    except td.TractableDynError as exc:
        return type(exc), str(exc)


def _checks_a_shared_vertex(system, word):
    """Whether code_H_1d's itinerary check meets a fine vertex shared by
    two fine edges: an end, or the midpoint, of the word's interval, or an
    iterate of one, checked against the next edge of the word."""
    lo, hi = oracles.code_H_1d(system, word)
    shared = set(system.kstar.vertices[1:-1])
    for x in (lo, (lo + hi) / 2, hi):
        for _ in word:
            if x in shared:
                return True
            x = td.pl_eval(system, x)
    return False


def test_code_H_1d_matches_the_fraction_itinerary_oracle(all_systems):
    rng = random.Random(1701)
    pool = all_systems + [schedule_shape(rng, kind, n_edges)
                          for kind in ("vmap", "repair", "sampled")
                          for n_edges in (3, 6, 10)]
    words = on_shared_vertex = 0
    for system in pool:
        for word in _words(system, rng, 40):
            assert td.code_H_1d(system, word) == \
                oracles.code_H_1d(system, word)
            words += 1
            on_shared_vertex += _checks_a_shared_vertex(system, word)
    assert words >= 1000
    assert on_shared_vertex >= 100


def test_code_H_1d_failures_match_the_fraction_itinerary_oracle(all_systems):
    # A chart whose image edges are redrawn at random admits non-words, so
    # both versions fail, and must fail alike, at the first-edge check or
    # the itinerary check.
    rng = random.Random(1702)
    outcomes = set()
    for system in all_systems:
        chart = system.chart
        n_coarse = len(chart.coarse_x) - 1
        broken = td.SimplicialSystem1D(system.k, system.kstar,
                                       system.vertex_images)
        vars(broken)["chart"] = dataclasses.replace(
            chart, image_edge=tuple(rng.randrange(n_coarse)
                                    for _ in chart.image_edge))
        for word in _words(broken, rng, 30):
            got = _outcome(td.code_H_1d, broken, word)
            assert got == _outcome(oracles.code_H_1d, broken, word)
            outcomes.add(got if isinstance(got[0], type) else "coded")
    assert {o if o == "coded" else o[0] for o in outcomes} == \
        {"coded", td.NumericalError, td.CorrespondenceError}


def _fraction_free_bisect():
    """A stand-in for simplicial1d's ``bisect`` that refuses to search a
    sequence holding Fractions."""
    def guard(search):
        def guarded(seq, *args, **kwargs):
            if any(isinstance(v, F) for v in seq):
                raise AssertionError(f"{search.__name__} over Fractions")
            return search(seq, *args, **kwargs)
        return guarded
    return types.SimpleNamespace(bisect_left=guard(bisect.bisect_left),
                                 bisect_right=guard(bisect.bisect_right))


def test_internal_paths_never_bisect_in_fractions(all_systems, monkeypatch,
                                                  tmp_path):
    # IntervalComplex.locate_edge is the Fraction bisection behind pl_eval.
    def refuse(self, x):
        raise AssertionError("locate_edge called")
    monkeypatch.setattr(td.IntervalComplex, "locate_edge", refuse)
    monkeypatch.setattr(simplicial1d, "bisect", _fraction_free_bisect())
    with pytest.raises(AssertionError):
        simplicial1d.bisect.bisect_left([F(0), F(1)], F(1, 2))
    with pytest.raises(AssertionError):
        td.pl_eval(all_systems[0], 0)
    rng = random.Random(1703)
    for seed, system in enumerate(all_systems):
        for word in _words(system, rng, 5):
            td.code_H_1d(system, word)
        report = td.tractability_report_pl(system)
        pair = report.analysis.terminal_pairs[0]
        td.decode_orbit_histogram(report, pair.star_members, segments=100,
                                  depth=20, bins=5, seed=seed)
    # Every window decoded by its exact chain, not by the float screen.
    monkeypatch.setattr(simplicial1d, "_SCREEN_SLACK", 2.0 ** 60)
    td.decode_orbit_histogram(report, pair.star_members, segments=100,
                              depth=20, bins=5, seed=0)
    k = td.IntervalComplex(tuple(F(i) for i in range(4)))
    kstar = td.IntervalComplex(tuple(F(i, 4) for i in range(13)))
    _, repair = td.nondegenerate_repair(
        k, kstar, [0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 2, 1, 1])
    assert repair.changed and repair.sup_change == 1
    _, roundoff = td.roundoff(lambda t: 1.5 + 1.4 * math.sin(2 * t), k, 3)
    assert roundoff.repaired and roundoff.repair.changed
    # Reading systems: from JSON, from a mapping vertex map, and by the CLI.
    for system in all_systems:
        data = json.loads(json.dumps(simplicial1d.system_to_json(system)))
        again = simplicial1d.system_from_json(data)
        assert again.vertex_images == system.vertex_images
        vmap = {w: system.image_value(j)
                for j, w in enumerate(again.kstar.vertices)}
        assert td.build_system(again.k, again.kstar, vmap) == system
    path = Path(__file__).parent / "golden" / "inputs" / "system.json"
    assert cli.main(["plmap-approx", "--input", str(path), "--simulate", "500",
                     "--out", str(tmp_path / "report.json")]) == 0


def _reader_cases(all_systems):
    """(K, K*, vmap) of each test system and of seeded schedule shapes:
    each system as it is (vertex map as a mapping and as a sequence) and
    corrupted once in each of seven ways."""
    rng = random.Random(1805)
    pool = list(all_systems) + [schedule_shape(rng, kind, rng.randint(1, 12))
                                for kind in ("vmap", "repair", "sampled")
                                for _ in range(14)]
    for system in pool:
        k, kstar = system.k, system.kstar
        # Keys and images as JSON strings or as Fractions.
        key, value = (rng.choice((str, F)) for _ in range(2))
        images = [value(system.image_value(j))
                  for j in range(len(kstar.vertices))]
        vmap = dict(zip(map(key, kstar.vertices), images))
        yield k, kstar, vmap
        yield k, kstar, images
        # A fine key dropped.
        gone = rng.choice(list(vmap))
        yield k, kstar, {w: v for w, v in vmap.items() if w != gone}
        # An unknown key: the midpoint of a fine edge.
        a, b = kstar.edge(rng.randrange(kstar.n_edges))
        yield k, kstar, {**vmap, key((a + b) / 2): value(k.lo)}
        # An image that is not a coarse vertex.
        a, b = k.edge(rng.randrange(k.n_edges))
        yield k, kstar, {**vmap, rng.choice(list(vmap)): value((a + b) / 2)}
        # A coarse vertex dropped from K*.
        gone = rng.choice(k.vertices[1:-1] or k.vertices)
        yield (k, td.IntervalComplex(tuple(w for w in kstar.vertices
                                           if w != gone)), vmap)
        # A coarse edge left unsplit.
        a, b = k.edge(rng.randrange(k.n_edges))
        yield (k, td.IntervalComplex(tuple(w for w in kstar.vertices
                                           if not a < w < b)), vmap)
        # K and K* spanning different intervals.
        if rng.random() < 0.5:
            yield td.IntervalComplex(k.vertices + (k.hi + 1,)), kstar, vmap
        else:
            yield k, td.IntervalComplex((kstar.lo - 1,) + kstar.vertices), vmap
        # A sequence vertex map one image short or one too long.
        yield k, kstar, (images[:-1] if rng.random() < 0.5
                         else images + [value(k.lo)])


# What each corruption trips: the K* checks, then the vertex map checks.
_READER_ERRORS = ("span different intervals", "missing from the subdivision",
                  "is not split", "vertex map missing images",
                  "has unknown vertices", "is not a coarse vertex",
                  "must cover every fine vertex")


def test_reader_matches_the_bisecting_oracle(all_systems):
    outcomes = Counter()
    for k, kstar, vmap in _reader_cases(all_systems):
        got = _outcome(simplicial1d._vertex_images, k, kstar, vmap)
        assert got == _outcome(oracles.vertex_images, k, kstar, vmap)
        outcomes[next(m for m in _READER_ERRORS if m in got[1])
                 if isinstance(got[0], type) else "images"] += 1
        for complex_ in (k, kstar):
            ends = complex_.vertices
            for x in ends + tuple((a + b) / 2 for a, b in zip(ends, ends[1:])):
                assert complex_.vertex_index(x) == \
                    oracles.vertex_index(complex_, x)
    assert sum(outcomes.values()) >= 500
    assert set(outcomes) == {"images", *_READER_ERRORS}


def _rescaled(system, a, b):
    """The system carried by t -> a t + b, with the same vertex images."""
    k = td.IntervalComplex(tuple(a * v + b for v in system.k.vertices))
    kstar = td.IntervalComplex(tuple(a * v + b for v in system.kstar.vertices))
    return td.build_system(k, kstar,
                           [k.vertices[i] for i in system.vertex_images])


def test_rescaling_moves_intervals_and_keeps_everything_else(all_systems,
                                                             monkeypatch):
    # a = 7/3 and b = -5/11 change the lcm scale of every chart.
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "20000")
    a, b = F(7, 3), F(-5, 11)
    rng = random.Random(1704)
    for system in all_systems:
        moved = _rescaled(system, a, b)
        assert moved.chart.scale != system.chart.scale
        assert td.theta(moved) == td.theta(system)
        for depth in range(5):
            mesh = td.refine(system, depth)[1]
            assert td.refine(moved, depth)[1].mesh_d == mesh.mesh_d
            if mesh.cells > 2000:
                break
        report, moved_report = (td.tractability_report_pl(s)
                                for s in (system, moved))
        assert moved_report.analysis.stationary == report.analysis.stationary
        assert [m["background_mass"] for m in
                moved_report.to_json_dict()["measures"]] == \
            [m["background_mass"] for m in report.to_json_dict()["measures"]]
        for word in _words(system, rng, 10):
            lo, hi = td.code_H_1d(system, word)
            assert td.code_H_1d(moved, word) == (a * lo + b, a * hi + b)


def test_refine_matches_reference(all_systems, monkeypatch):
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "20000")
    for system in all_systems:
        for depth in range(5):
            got = td.refine(system, depth)
            if got[1].cells > 2000:
                break
            assert got == oracles.refine(system, depth)
            assert list(got[0].vertices) == \
                oracles.refine_vertices(system, depth)


def test_decode_matches_reference(all_systems):
    compared = 0
    for seed, system in enumerate(all_systems):
        report = td.tractability_report_pl(system)
        for pair in report.analysis.terminal_pairs:
            args = (report, pair.star_members)
            kwargs = dict(segments=300, depth=40, bins=7, seed=seed)
            assert td.decode_orbit_histogram(*args, **kwargs) == \
                oracles.decode_orbit_histogram(*args, **kwargs)
            compared += 1
    assert compared >= len(all_systems)


def two_blocks(left, right):
    """Coarse edges [0, 1] and [1, 2], each mapped onto itself: two terminal
    classes, fine edges {0, 1} and {2, 3, 4}, with cuts over the
    denominators left and right."""
    half, third = F(left // 2, left), F(right // 3, right)
    return _system([F(0), F(1), F(2)],
                   [F(0), half, F(1), 1 + third, 2 - third, F(2)],
                   [1, 0, 1, 2, 1, 2])


def _decode_both(system, **kwargs):
    report = td.tractability_report_pl(system)
    for pair in report.analysis.terminal_pairs:
        args = (report, pair.star_members)
        yield (td.decode_orbit_histogram(*args, **kwargs),
               oracles.decode_orbit_histogram(*args, **kwargs))


def test_decode_exact_fallback_matches_reference(all_systems, monkeypatch):
    # A slack of 2^60 widens every float error bound past the whole space,
    # so the screen settles no window and each one is decoded exactly.
    monkeypatch.setattr(simplicial1d, "_SCREEN_SLACK", 2.0 ** 60)
    screen = simplicial1d._screen_windows
    settled = []

    def spy(*args):
        label, ok = screen(*args)
        settled.append(int(ok.sum()))
        return label, ok
    monkeypatch.setattr(simplicial1d, "_screen_windows", spy)
    for seed, system in enumerate(all_systems):
        for got, want in _decode_both(system, segments=200, depth=25,
                                      bins=7, seed=seed):
            assert got == want
    assert settled and not any(settled)


def test_decode_beyond_double_range_matches_reference():
    # Denominators 2^31 - 1 and 2^31 - 19 put the chart scale above 2^60,
    # past exact doubles, so every window is decoded exactly.
    system = two_blocks(2**31 - 1, 2**31 - 19)
    assert system.chart.scale > 2**60
    compared = 0
    for got, want in _decode_both(system, segments=300, depth=40, bins=9,
                                  seed=11):
        assert got == want
        compared += 1
    assert compared == 2


def test_decode_point_off_the_support_still_raises(monkeypatch):
    # Feed the decoder of class {0, 1} a path of class {2, 3, 4}: every
    # decoded point lies in [1, 2], off the class support [0, 1].
    def other_class(spec, length, seed):
        return [2 + i % 3 for i in range(length)]
    monkeypatch.setattr(markov, "sample_path", other_class)
    monkeypatch.setattr(oracles, "sample_path", other_class)
    system = two_blocks(2, 3)
    report = td.tractability_report_pl(system)
    pair = next(p for p in report.analysis.terminal_pairs
                if 0 in p.star_members)
    args = (report, pair.star_members)
    kwargs = dict(segments=50, depth=10, bins=4, seed=0)
    with pytest.raises(td.NumericalError) as got:
        td.decode_orbit_histogram(*args, **kwargs)
    with pytest.raises(AssertionError) as want:
        oracles.decode_orbit_histogram(*args, **kwargs)
    assert str(got.value) == str(want.value)


def test_screen_defers_every_window_on_a_breakpoint(all_systems):
    # With every window's exact midpoint made a breakpoint, no float error
    # bound may settle any window; with only the ends of the space as
    # breakpoints, every window settles in the one gap.
    rng = random.Random(5)
    depth, segments = 30, 60
    for system in all_systems:
        chart = system.chart
        path = _legal_path(rng, system, segments + depth)
        mids = sorted({sum(oracles.code_interval(system, path[i:i + depth + 1]))
                       * chart.scale / 2 for i in range(segments)})
        labels = np.array([-1] + [0] * (len(mids) - 1) + [-1])
        _, settled = simplicial1d._screen_windows(
            system, path, depth, segments,
            np.array([float(m) for m in mids]), labels)
        assert not settled.any()
        ends = np.array([float(chart.coarse_x[0]), float(chart.coarse_x[-1])])
        label, settled = simplicial1d._screen_windows(
            system, path, depth, segments, ends, np.array([-1, 0, -1]))
        assert settled.all() and not label.any()


def _legal_path(rng, system, length):
    chart = system.chart
    fibers = {}
    for j, base in enumerate(chart.j_edge):
        fibers.setdefault(base, []).append(j)
    path = [rng.randrange(system.kstar.n_edges)]
    while len(path) < length:
        path.append(rng.choice(fibers[chart.image_edge[path[-1]]]))
    return path


def _assert_screens_agree(*args):
    got = simplicial1d._screen_windows(*args)
    want = oracles.screen_windows(*args)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


def _screen_cases(system, rng, monkeypatch):
    """The screen's arguments in a decode of each terminal class, then on
    random legal paths against breakpoints drawn in the space, some of
    them exact window midpoints, and against the ends y - e or y + e of the
    oracle's windows, which any change in the bits of y or e would move."""
    calls = []
    screen = simplicial1d._screen_windows

    def spy(*args):
        calls.append(args)
        return screen(*args)
    with monkeypatch.context() as patch:
        patch.setattr(simplicial1d, "_screen_windows", spy)
        report = td.tractability_report_pl(system)
        for pair in report.analysis.terminal_pairs:
            td.decode_orbit_histogram(report, pair.star_members,
                                      segments=500, depth=40, bins=7,
                                      seed=rng.randrange(2**32))
    yield from calls
    chart = system.chart
    lo, hi = chart.coarse_x[0], chart.coarse_x[-1]
    for _ in range(3):
        depth, segments = rng.randint(1, 40), rng.randint(1, 300)
        path = _legal_path(rng, system, segments + depth)
        points = {F(rng.randint(lo * 64, hi * 64), 64) for _ in range(6)}
        points |= {sum(oracles.code_interval(system, path[i:i + depth + 1]))
                   * chart.scale / 2 for i in rng.sample(range(segments),
                                                         min(segments, 4))}
        breakpoints = np.array(sorted(float(p) for p in points))
        labels = np.array([rng.randrange(-1, 5)
                           for _ in range(len(breakpoints) + 1)])
        yield system, path, depth, segments, breakpoints, labels
        y, e = oracles.screen_points(system, path, depth, segments)
        ends = np.sort(np.where(np.arange(segments) % 2, y - e, y + e))
        yield system, path, depth, segments, ends, np.zeros(segments + 1, int)


def test_screen_matches_the_per_step_gathering_oracle(all_systems,
                                                     monkeypatch):
    rng = random.Random(1721)
    outcomes = set()
    for system in all_systems:
        for args in _screen_cases(system, rng, monkeypatch):
            _, settled = _assert_screens_agree(*args)
            outcomes.update(settled.tolist())
    assert outcomes == {False, True}


def test_screen_matches_the_oracle_just_under_its_chart_limit(monkeypatch):
    # Scale (2^24 - 3)(2^25 - 39) puts the space's right end, 2 scale,
    # just under _SCREEN_MAX_X, so the screen still runs on every window.
    system = two_blocks(2**24 - 3, 2**25 - 39)
    end = system.chart.coarse_x[-1]
    assert simplicial1d._SCREEN_MAX_X // 2 < end <= simplicial1d._SCREEN_MAX_X
    rng = random.Random(1722)
    calls = 0
    for args in _screen_cases(system, rng, monkeypatch):
        _assert_screens_agree(*args)
        calls += 1
    assert calls == 2 + 2 * 3


def _complex_outcomes(complex_):
    """What a complex shows: its form, vertices and geometry, and the type
    and message of each error its edge lookups raise."""
    vertices = complex_.vertices
    errors = []
    for call, arg in (("edge", complex_.n_edges), ("edge", -1),
                      ("locate_edge", complex_.hi + 1),
                      ("locate_edge", complex_.lo - 1)):
        with pytest.raises(td.ValidationError) as info:
            getattr(complex_, call)(arg)
        errors.append(str(info.value))
    inside = [complex_.locate_edge(v) for v in vertices] + \
        [complex_.locate_edge((a + b) / 2) for a, b in zip(vertices, vertices[1:])]
    return (repr(complex_), vertices, [type(v) for v in vertices],
            complex_.position, complex_.n_edges, complex_.lo, complex_.hi,
            complex_.mesh(), inside, errors)


def test_refined_complex_matches_the_eager_oracle(all_systems, monkeypatch):
    # Each probe reads a fresh refinement, so each one builds its vertices.
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "20000")
    pool = all_systems + [mixed_denominators(random.Random(n), n)
                          for n in (2, 4)]
    pool.append(two_blocks(2**31 - 1, 2**31 - 19))
    for system in pool:
        for depth in range(6):
            got, mesh = td.refine(system, depth)
            old, old_mesh = oracles.refine_dfs(system, depth)
            assert mesh == old_mesh
            want = td.IntervalComplex(old.vertices)
            assert got == want and want == got and hash(got) == hash(want)
            assert (got.numerators, got.scale) == (want.numerators, want.scale)
            fresh = td.refine(system, depth)[0]
            assert _complex_outcomes(fresh) == _complex_outcomes(old)
            assert set(_complex_outcomes(got)[2]) == {F}
            assert fresh.vertex_index(old.vertices[-2]) == old.n_edges - 1
            with pytest.raises(AttributeError):
                fresh.cells
            if mesh.cells > 2000:
                break


def test_refine_cap_matches_the_depth_first_oracle(all_systems, monkeypatch):
    # A cap of one cell under the count fails on the first level (depth 0
    # and 1) or on a deeper one; a cap at the count passes.
    for system in all_systems[:8]:
        for depth in (0, 1, 3):
            monkeypatch.delenv("TRACTABLE_DYN_CELL_CAP", raising=False)
            cells = td.refine(system, depth)[1].cells
            for cap in (cells - 1, cells):
                monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", str(cap))
                assert _outcome(lambda: td.refine(system, depth)[1]) == \
                    _outcome(lambda: oracles.refine_dfs(system, depth)[1])


def test_complex_constructor_errors_match_the_fraction_oracle():
    for vertices in ((), (F(1),), (F(0), F(0)), (F(0), F(2), F(1)),
                     (0, F(1, 3), F(1, 3)), (F(5), 4), ("1/2", 0.5)):
        got, want = (_outcome(cls, vertices) for cls in
                     (td.IntervalComplex, oracles.IntervalComplex))
        assert got == want and got[0] is td.ValidationError


def test_refine_rejects_an_empty_cell(example_a):
    # Move fine vertex 2 onto vertex 1: cells still tile, but cell 1 is a
    # point, so its vertices would not increase strictly.
    chart = example_a.chart
    broken = td.SimplicialSystem1D(example_a.k, example_a.kstar,
                                   example_a.vertex_images)
    x = list(chart.x)
    x[2] = x[1]
    vars(broken)["chart"] = dataclasses.replace(chart, x=tuple(x))
    with pytest.raises(td.NumericalError, match="a decoded cell is empty"):
        td.refine(broken, 1)


@given(st.integers(0, 2**32), st.sampled_from(["conftest", "mixed", "vmap"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chart_loops_match_references_on_drawn_systems(
        random_pl_system, seed, family):
    rng = random.Random(seed)
    if family == "conftest":
        system = random_pl_system(rng)
    elif family == "mixed":
        system = mixed_denominators(rng, rng.randint(1, 4))
    else:
        system = schedule_shape(rng, "vmap", rng.randint(2, 8))
    for word in _words(system, rng, 4):
        assert td.code_H_1d(system, word) == oracles.code_interval(system, word)
    assert td.refine(system, 3) == oracles.refine(system, 3)
    report = td.tractability_report_pl(system)
    pair = rng.choice(report.analysis.terminal_pairs)
    args = (report, pair.star_members)
    kwargs = dict(segments=200, depth=rng.randint(1, 40),
                  bins=rng.randint(1, 12), seed=seed)
    assert td.decode_orbit_histogram(*args, **kwargs) == \
        oracles.decode_orbit_histogram(*args, **kwargs)


@pytest.mark.parametrize("n_edges", [64, 128])
def test_decode_matches_reference_on_large_schedule_shapes(n_edges):
    system = schedule_shape(random.Random(n_edges), "vmap", n_edges)
    report = td.tractability_report_pl(system)
    pair = report.analysis.terminal_pairs[0]
    args = (report, pair.star_members)
    kwargs = dict(segments=2000, depth=40, bins=10, seed=n_edges)
    assert td.decode_orbit_histogram(*args, **kwargs) == \
        oracles.decode_orbit_histogram(*args, **kwargs)


def test_decoder_gstar_cover_matches_the_fiber_loop(all_systems, monkeypatch):
    matrices = []
    sample_path = markov.sample_path

    def recording(spec, length, seed):
        matrices.append(spec.cover.matrix)
        return sample_path(spec, length, seed)

    monkeypatch.setattr(markov, "sample_path", recording)
    for system in all_systems:
        report = td.tractability_report_pl(system)
        pair = report.analysis.terminal_pairs[0]
        td.decode_orbit_histogram(report, pair.star_members, segments=10,
                                  depth=2, bins=2, seed=0)
        matrix = matrices.pop()
        assert matrix.flags.c_contiguous
        assert matrix.tobytes() == \
            oracles.decoder_gstar_matrix(report.analysis.model).tobytes()


def test_decode_stays_off_a_dense_gstar_matrix():
    # |K*| = 2560: one dense float |K*|^2 matrix alone would take 50 MiB.
    system = schedule_shape(random.Random(1024), "vmap", 1024)
    report = td.tractability_report_pl(system)
    assert system.kstar.n_edges == 2560
    pair = report.analysis.terminal_pairs[0]
    tracemalloc.start()
    try:
        td.decode_orbit_histogram(report, pair.star_members, segments=10 ** 4,
                                  depth=40, bins=10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _sparse_cover(rng, size, out_degree):
    edges = set()
    for i in range(size):
        for j in rng.sample(range(size), out_degree):
            edges.add((i, j))
    relation = td.FiniteRelation(tuple(map(str, range(size))), frozenset(edges))
    matrix = np.zeros((size, size))
    for i, j in edges:
        matrix[j, i] = rng.random() + 0.01
    matrix /= matrix.sum(axis=0)
    return td.validate_cover(relation, matrix)


def test_sample_path_matches_dense_scan(all_systems):
    rng = random.Random(3)
    specs = []
    for system in all_systems[:6]:
        cover = oracles.gstar_float_cover(
            td.simplicial1d.to_two_alphabet(system))
        specs.append(td.MarkovMeasureSpec(cover,
                                          td.Distribution.uniform(cover.size)))
    for size, out_degree in ((5, 1), (40, 3), (150, 7)):
        cover = _sparse_cover(rng, size, out_degree)
        weights = np.zeros(size)
        weights[size // 2:] = 1.0 / (size - size // 2)
        specs.append(td.MarkovMeasureSpec(cover,
                                          td.Distribution.from_weights(weights)))
    runs = [(seed, spec, 3000) for seed, spec in enumerate(specs)]
    # Seeds 2^63 and 2^64 - 1 wrap the uint64 counter at the first draw; the
    # last path runs past the first block of draws.
    runs += [(2**63, specs[0], 3000), (2**64 - 1, specs[-1], 3000),
             (len(specs), specs[-2], markov._DRAW_BLOCK + 7)]
    for seed, spec, length in runs:
        assert td.sample_path(spec, length, seed) == \
            oracles.sample_path(spec, length, seed)


def test_sample_path_rounding_fallback_matches_dense_scan(monkeypatch):
    # Ten weights of 0.1 sum to 1 - 2^-53 in floats; a draw at that value
    # passes every partial sum and falls back to the last positive entry.
    # The library draws the whole path from _uniforms, the oracle draw by
    # draw through _unit_float; both are pinned to that value.
    top = 1.0 - 2.0 ** -53
    monkeypatch.setattr(markov, "_uniforms",
                        lambda seed, start, count: np.full(count, top))
    monkeypatch.setattr(markov, "_unit_float", lambda bits: top)
    relation = td.FiniteRelation(tuple(map(str, range(12))),
                                 frozenset((i, j) for i in range(12)
                                           for j in range(1, 11)))
    cover = td.StochasticCover(relation, np.full(120, 0.1))
    spec = td.MarkovMeasureSpec(cover, td.Distribution.uniform(12))
    path = td.sample_path(spec, 20, 5)
    assert path == oracles.sample_path(spec, 20, 5)
    assert path[1:] == [10] * 19
