"""Presentations of one system give predictable answers: the PL reflection.

Conjugating a simplicial system by t -> -t negates and reverses K and K*
and sets g'(t) = -g(-t), so coarse edge i becomes edge n - 1 - i and fine
edge j becomes edge n* - 1 - j.  Every exact answer must follow that
relabelling: theta, the exact stationary vectors, the refinements (their
mesh, cell count and negated, reversed vertices) and the coded intervals
of mirrored words.  The float absorption shares come from a different
summation order, so they agree within 1e-12.  ``refine`` chooses the order
of each cell's children from the orientation of its chain of inverses;
the reflection reverses every orientation, so a wrong choice shows here.
"""

import random
from fractions import Fraction as F

import tractable_dyn as td

from test_integer_chart import _words, mixed_denominators, schedule_shape, systems


def reflected(system):
    """The system conjugated by t -> -t."""
    n, m = system.k.n_edges, system.kstar.n_edges
    k = td.IntervalComplex(tuple(-v for v in reversed(system.k.vertices)))
    kstar = td.IntervalComplex(tuple(-w for w in reversed(system.kstar.vertices)))
    images = [n - system.vertex_images[m - j] for j in range(m + 1)]
    return td.build_system(k, kstar, [k.vertices[i] for i in images])


def _pool(example_a, example_b, random_pl_system):
    rng = random.Random(2611)
    pool = systems(example_a, example_b, random_pl_system)
    pool += [random_pl_system(rng, 4, 4) for _ in range(6)]
    pool += [mixed_denominators(rng, rng.randint(1, 4)) for _ in range(3)]
    pool += [schedule_shape(rng, kind, rng.randint(2, 10))
             for kind in ("vmap", "repair", "sampled")]
    return pool


def _measures(report, mirror):
    """Each terminal class's measure keyed by its coarse edges, carried
    through ``mirror`` (an edge map) with its density pieces mirrored."""
    n = report.system.k.n_edges
    decomp = report.analysis.correspondence.base_decomposition
    out = {}
    for pair, measure in zip(report.analysis.terminal_pairs,
                             report.to_json_dict()["measures"]):
        pieces = []
        for piece in measure["density"]:
            a, b = map(F, piece["interval"])
            if mirror:
                a, b = -b, -a
            pieces.append((a, b, piece["weight"], piece["density"]))
        edges = frozenset(n - 1 - i if mirror else i
                          for i in decomp.classes[pair.base_class_index])
        out[edges] = (sorted(pieces), measure["background_mass"])
    return out


def test_reflection_conjugates_every_exact_answer(example_a, example_b,
                                                  random_pl_system,
                                                  monkeypatch):
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "20000")
    rng = random.Random(2612)
    reversing = refined = 0
    for system in _pool(example_a, example_b, random_pl_system):
        mirror = reflected(system)
        n, m = system.k.n_edges, system.kstar.n_edges
        assert td.theta(mirror) == td.theta(system)
        chart, mirror_chart = system.chart, mirror.chart
        assert [n - 1 - i for i in reversed(chart.j_edge)] == \
            list(mirror_chart.j_edge)
        assert [n - 1 - i for i in reversed(chart.image_edge)] == \
            list(mirror_chart.image_edge)
        reversing += any(r < 0 for r in chart.rise)

        report, mirror_report = (td.tractability_report_pl(s)
                                 for s in (system, mirror))
        assert sorted(sorted((n - 1 - i, w) for i, w in v.items())
                      for v in report.analysis.stationary) == \
            sorted(sorted(v.items()) for v in mirror_report.analysis.stationary)
        want, got = _measures(report, True), _measures(mirror_report, False)
        assert set(got) == set(want)
        for edges, (pieces, mass) in want.items():
            assert got[edges][0] == pieces
            assert abs(got[edges][1] - mass) <= 1e-12

        for depth in range(6):
            fine, mesh = td.refine(system, depth)
            mirror_fine, mirror_mesh = td.refine(mirror, depth)
            assert (mirror_mesh.cells, mirror_mesh.mesh_d) == \
                (mesh.cells, mesh.mesh_d)
            assert mirror_fine.vertices == \
                tuple(-v for v in reversed(fine.vertices))
            refined += 1
            if mesh.cells > 2000:
                break

        for word in _words(system, rng, 10):
            lo, hi = td.code_H_1d(system, word)
            assert td.code_H_1d(mirror, [m - 1 - j for j in word]) == (-hi, -lo)
    assert reversing >= 10 and refined >= 100
