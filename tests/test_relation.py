import copy
import dataclasses
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractable_dyn as td
import oracles
from oracles import closure_decomposition, prune_starved


def rel(labels, edges):
    return td.FiniteRelation.from_labels(tuple(labels), edges)


@st.composite
def relations(draw, max_elements=6):
    n = draw(st.integers(min_value=1, max_value=max_elements))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.frozensets(pair, max_size=n * n))
    return td.FiniteRelation(tuple(f"e{i}" for i in range(n)), frozenset(edges))


# --- compose / inverse ---


def test_compose_identity_is_neutral():
    identity = rel("ab", [("a", "a"), ("b", "b")])
    r = rel("ab", [("a", "b")])
    assert td.compose(identity, r).edges == r.edges
    assert td.compose(r, identity).edges == r.edges


def test_compose_chains_single_path():
    r = rel("abc", [("a", "b")])
    s = rel("abc", [("b", "c")])
    assert td.compose(r, s).edges == frozenset({(0, 2)})
    # first argument applies first, so the flipped order has no match
    assert td.compose(s, r).edges == frozenset()


@given(relations(), relations())
def test_compose_matches_set_comprehension(r, s):
    if len(r.elements) != len(s.elements):
        with pytest.raises(td.ElementMismatchError):
            td.compose(r, s)
        return
    expected = {(i, k) for i, j in r.edges for j2, k in s.edges if j == j2}
    assert td.compose(r, s).edges == frozenset(expected)


@given(relations(), relations(), relations())
def test_compose_associative(r, s, t):
    n = len(r.elements)
    if len(s.elements) != n or len(t.elements) != n:
        return
    lhs = td.compose(td.compose(r, s), t)
    rhs = td.compose(r, td.compose(s, t))
    assert lhs.edges == rhs.edges


@given(relations())
def test_inverse_is_an_involution(r):
    assert td.inverse(td.inverse(r)) == r
    assert td.inverse(r).edges == frozenset((j, i) for i, j in r.edges)


# --- restriction to the infinite domain ---


def test_restrict_starves_a_lone_arrow():
    r = rel("ab", [("a", "b")])
    kept_relation, kept = td.restrict_to_infinite_domain(r)
    assert kept == ()
    assert kept_relation.elements == ()


def test_restrict_keeps_a_cycle_drops_the_pendant():
    r = rel("abx", [("a", "b"), ("b", "a"), ("a", "x")])
    kept_relation, kept = td.restrict_to_infinite_domain(r)
    assert kept == ("a", "b")
    assert kept_relation.edges == frozenset({(0, 1), (1, 0)})


def test_restrict_leaves_full_domain_alone(relation_b):
    kept_relation, kept = td.restrict_to_infinite_domain(relation_b)
    assert kept == relation_b.elements
    assert kept_relation == relation_b


@given(relations())
def test_restrict_matches_iterated_pruning(r):
    n = len(r.elements)
    kept_relation, kept = td.restrict_to_infinite_domain(r)
    alive, live_edges = prune_starved(n, r.edges)
    assert kept == tuple(r.elements[i] for i in alive)
    relabel = {old: new for new, old in enumerate(alive)}
    assert kept_relation.edges == frozenset(
        (relabel[i], relabel[j]) for i, j in live_edges)


# --- basic sets ---


def test_basic_sets_two_self_loops():
    r = rel(("I1", "I2"), [("I1", "I1"), ("I2", "I2")])
    d = td.basic_sets(r)
    assert d.classes == ((0,), (1,))
    assert d.terminal_flags == (True, True)
    assert d.transient == ()
    assert d.order == frozenset()


def test_basic_sets_absorbing_example(relation_b):
    d = td.basic_sets(relation_b)
    assert d.classes == ((0,), (1,), (2,))
    assert d.terminal_flags == (True, False, True)
    assert d.transient == (1,)
    assert d.order == frozenset({(1, 2)})
    assert d.terminal_classes() == (0, 2)
    assert d.class_labels(1) == ("I2",)


def test_basic_sets_rejects_starved_elements():
    with pytest.raises(td.DomainError):
        td.basic_sets(rel("ab", [("a", "b")]))


def test_basic_sets_against_closure_oracle_seeded():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 8)
        edges = {(i, j) for i in range(n) for j in range(n)
                 if rng.random() < 0.3}
        r = td.FiniteRelation(tuple(f"e{i}" for i in range(n)),
                              frozenset(edges))
        kept_relation, kept = td.restrict_to_infinite_domain(r)
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


def layered_relation(rng, n):
    """Full-domain relation on n elements: small cyclic classes joined by
    chains of non-cyclic elements, every edge pointing to a later block, and
    the labels shuffled.  The last block is a cycle, so nothing starves."""
    blocks = []
    size = 0
    while size < n:
        length = min(rng.randint(1, 4), n - size)
        kind = "cycle" if size + length == n or rng.random() < 0.5 else "chain"
        blocks.append((kind, list(range(size, size + length))))
        size += length
    edges = set()
    for b, (kind, members) in enumerate(blocks):
        later = [i for _, m in blocks[b + 1:] for i in m]
        if kind == "cycle":
            edges.update(zip(members, members[1:] + members[:1]))
            edges.update((rng.choice(members), rng.choice(members))
                         for _ in range(rng.randint(0, 2)))
            exits = rng.choice((0, 1, 1, 2)) if later else 0
        else:
            edges.update(zip(members, members[1:]))
            exits = rng.randint(1, 2)
            edges.add((members[-1], rng.choice(later)))
        edges.update((rng.choice(members), rng.choice(later))
                     for _ in range(exits) if later)
    perm = list(range(n))
    rng.shuffle(perm)
    return td.FiniteRelation(tuple(f"e{i}" for i in range(n)),
                             frozenset((perm[i], perm[j]) for i, j in edges))


def test_basic_sets_order_passes_through_non_cyclic_elements():
    # a -> x -> y -> b with a loop at a and at b; x, y lie on no cycle.
    r = rel("axyb", [("a", "a"), ("a", "x"), ("x", "y"), ("y", "b"),
                     ("b", "b")])
    d = td.basic_sets(r)
    assert d.classes == ((0,), (3,))
    assert d.terminal_flags == (False, True)
    assert d.transient == (0, 1, 2)
    assert d.order == frozenset({(0, 1)})
    assert [d.class_of(i) for i in range(4)] == [0, None, None, 1]


def test_basic_sets_against_closure_oracle_layered():
    rng = random.Random(29)
    many_classes = 0
    for _ in range(40):
        n = rng.randint(20, 60)
        r = layered_relation(rng, n)
        d = td.basic_sets(r)
        classes, flags, transient, order = closure_decomposition(n, r.edges)
        assert d.classes == classes
        assert d.terminal_flags == flags
        assert d.transient == transient
        assert d.order == order
        member_class = {i: c for c, cls in enumerate(classes) for i in cls}
        assert [d.class_of(i) for i in range(n)] == [
            member_class.get(i) for i in range(n)]
        many_classes += len(classes) >= 5 and len(order) >= 5
    assert many_classes >= 30


@given(relations())
def test_adjacency_tables_match_edge_scans(r):
    n = len(r.elements)
    for i in range(n):
        assert r.successors(i) == tuple(sorted(j for a, j in r.edges if a == i))
        assert r.predecessors(i) == tuple(
            sorted(a for a, j in r.edges if j == i))


def test_sparse_relation_at_8000_elements_within_budget():
    # Three out-edges from each of 7500 core elements, plus a 500-element
    # chain entered from the core that ends without a successor, so the
    # restriction starves one chain element at a time.
    rng = random.Random(3)
    n, core = 8000, 7500
    edges = {(i, j) for i in range(core) for j in rng.sample(range(core), 3)}
    edges.update((i, i + 1) for i in range(core, n - 1))
    edges.update((rng.randrange(core), core) for _ in range(3))
    r = td.FiniteRelation(tuple(f"x{i}" for i in range(n)), frozenset(edges))
    start = time.perf_counter()
    kept_relation, kept = td.restrict_to_infinite_domain(r)
    d = td.basic_sets(kept_relation)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"over budget: {elapsed:.2f}s"
    assert kept == r.elements[:core]
    (giant,) = [c for c in d.classes if len(c) > core // 2]
    inside = set(giant)
    assert all(set(kept_relation.successors(i)) <= inside for i in giant)
    assert d.terminal_flags[d.class_of(giant[0])]


def chained_relation(rng, n):
    """Edges on n shuffled elements in blocks: cycles with extra inner
    edges, self-loops, singletons on no cycle and starved elements.  Edges
    between blocks only point forward, so the classes form chains."""
    blocks, size = [], 0
    while size < n:
        length = min(rng.choice((1, 1, 2, 3, 5, 8)), n - size)
        blocks.append(list(range(size, size + length)))
        size += length
    edges = set()
    for b, members in enumerate(blocks):
        later = [i for m in blocks[b + 1:] for i in m]
        roll = rng.random()
        if len(members) > 1 or roll < 0.4:
            edges.update(zip(members, members[1:] + members[:1]))
            edges.update((rng.choice(members), rng.choice(members))
                         for _ in range(rng.randint(0, len(members))))
        elif roll < 0.8 and not later:
            continue  # a starved singleton
        for _ in range(rng.choice((0, 1, 1, 2, 3)) if later else 0):
            edges.add((rng.choice(members), rng.choice(later)))
    perm = list(range(n))
    rng.shuffle(perm)
    return frozenset((perm[i], perm[j]) for i, j in edges)


@pytest.mark.parametrize("seed,n", [(1, 1), (2, 7), (3, 40), (4, 300),
                                    (5, 2000)])
def test_relation_matches_the_frozenset_oracle(seed, n):
    rng = random.Random(seed)
    labels = tuple(f"x{i}" for i in range(n))
    for _ in range(6 if n < 1000 else 2):
        edges = chained_relation(rng, n)
        r = td.FiniteRelation(labels, edges)
        o = oracles.FrozensetRelation(labels, edges)
        assert r.edges == frozenset(edges) and len(r.edges) == len(edges)
        assert list(r.edges) == sorted(edges)
        for i in range(n):
            assert r.successors(i) == o.successors(i)
            assert r.predecessors(i) == o.predecessors(i)
        probes = list(edges)[:200] + [(rng.randrange(n), rng.randrange(n))
                                      for _ in range(200)]
        probes += [(-1, 0), (n, 0), (0, n), ("a", 0), (0,)]
        for pair in probes:
            assert (pair in r.edges) == (pair in o.edges), pair
            if len(pair) == 2 and all(isinstance(x, int) and 0 <= x < n
                                       for x in pair):
                assert r.has_edge(*pair) == o.has_edge(*pair)
        kept_r, kept = td.restrict_to_infinite_domain(r)
        kept_o, kept_labels = oracles.frozenset_restrict(o)
        assert kept == kept_labels
        assert kept_r.edges == kept_o.edges
        if kept:
            d = td.basic_sets(kept_r)
            assert (d.classes, d.terminal_flags, d.transient, d.order) == (
                oracles.frozenset_basic_sets(kept_o))
        other = chained_relation(rng, n)
        assert td.compose(r, td.FiniteRelation(labels, other)).edges == (
            oracles.frozenset_compose(
                o, oracles.FrozensetRelation(labels, other)).edges)
        assert td.inverse(r).edges == oracles.frozenset_inverse(o).edges
        assert td.inverse(r) == td.FiniteRelation(
            labels, oracles.frozenset_inverse(o).edges)


def test_decomposition_on_chains_of_classes_and_non_cyclic_singletons():
    rng = random.Random(17)
    seen_chain = seen_singleton = 0
    for _ in range(30):
        n = rng.randint(10, 60)
        kept_r, _ = td.restrict_to_infinite_domain(
            td.FiniteRelation(tuple(map(str, range(n))),
                              chained_relation(rng, n)))
        if not kept_r.elements:
            continue
        d = td.basic_sets(kept_r)
        in_class = {i for c in d.classes for i in c}
        seen_singleton += any(i not in in_class
                              for i in range(len(kept_r.elements)))
        seen_chain += any((a, b) in d.order and (b, c) in d.order
                          for a in range(len(d.classes))
                          for b in range(len(d.classes))
                          for c in range(len(d.classes)))
    assert seen_chain >= 10 and seen_singleton >= 10


def test_edges_view_is_read_only_and_exact():
    r = td.FiniteRelation(("a", "b", "c"), [(2, 0), (0, 1), (0, 1), (1, 1)])
    assert len(r.edges) == 3
    assert list(r.edges) == [(0, 1), (1, 1), (2, 0)]
    assert r.edges == frozenset({(0, 1), (1, 1), (2, 0)})
    assert frozenset({(0, 1), (1, 1), (2, 0)}) == r.edges
    assert r.edges != frozenset({(0, 1), (1, 1)})
    with pytest.raises(AttributeError):
        r.edges.add((0, 0))
    assert hash(r) == hash(td.FiniteRelation(("a", "b", "c"),
                                             {(0, 1), (1, 1), (2, 0)}))
    with pytest.raises(td.ValidationError, match="out of range"):
        td.FiniteRelation(("a",), [(0, 1)])
    with pytest.raises(td.ValidationError, match="distinct"):
        td.FiniteRelation(("a", "a"), [])


def test_relation_is_immutable():
    r = td.FiniteRelation(("a", "b"), [(0, 1), (1, 0)])
    h = hash(r)
    for name, value in (("edges", frozenset()), ("elements", ("c", "d")),
                        ("_succ", ((), ())), ("_codes", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.edges
    with pytest.raises(AttributeError):
        r.extra = 1
    codes = r._edge_codes
    with pytest.raises(ValueError):
        codes[0] = 5
    assert r.edges == frozenset({(0, 1), (1, 0)}) and hash(r) == h
    assert r.has_edge(0, 1) and r.predecessors(0) == (1,)
    for clone in (copy.copy(r), copy.deepcopy(r),
                  pickle.loads(pickle.dumps(r))):
        assert clone == r and clone.edges == r.edges


def test_from_successors_keeps_shared_tuples():
    shared = (0, 1)
    r = td.FiniteRelation.from_successors(("a", "b", "c"),
                                          [shared, shared, (2,)])
    assert r.successors(0) is shared and r.successors(1) is shared
    assert r == td.FiniteRelation(("a", "b", "c"),
                                  [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    d = td.basic_sets(r)
    assert d.classes == ((0, 1), (2,)) and d.terminal_flags == (True, True)
    for bad in ([(1, 0), (), ()], [(0, 3), (), ()], [(-1,), (), ()],
                [(0, 0), (), ()], [[0], (), ()], [(), ()]):
        with pytest.raises(td.ValidationError):
            td.FiniteRelation.from_successors(("a", "b", "c"), bad)


# --- path checks ---


def test_check_word_names_the_first_bad_pair_and_symbol():
    r = rel("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert td.relation.check_word(r, [0, 1, 2, 0, 1]) == (0, 1, 2, 0, 1)
    with pytest.raises(td.WordError, match=r"^\(b, a\) is not an edge$"):
        td.relation.check_word(r, [0, 1, 0, 0, 2])
    with pytest.raises(td.WordError, match=r"^symbol 5 out of range$"):
        td.relation.check_word(r, [0, 1, 5, -1])
    with pytest.raises(td.WordError, match=r"^symbol -1 out of range$"):
        td.relation.check_word(r, [0, -1, 5])
    with pytest.raises(td.WordError, match=r"^\(a, a\) is not an edge$"):
        td.relation.check_word(rel("a", []), [0, 0])
    assert td.relation.check_word(rel("a", []), [0]) == (0,)


def test_check_word_matches_stepwise_membership():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 12)
        edges = chained_relation(rng, n)
        r = td.FiniteRelation(tuple(map(str, range(n))), edges)
        word = [rng.randrange(n) for _ in range(rng.randint(1, 30))]
        bad = next((p for p in range(len(word) - 1)
                    if (word[p], word[p + 1]) not in edges), None)
        if bad is None:
            assert td.relation.check_word(r, word) == tuple(word)
        else:
            with pytest.raises(td.WordError) as info:
                td.relation.check_word(r, word)
            assert str(info.value) == (
                f"({word[bad]}, {word[bad + 1]}) is not an edge")


# --- endset certificates ---


def test_endset_determined_by_absorbing_step(relation_b):
    d = td.basic_sets(relation_b)
    assert td.endset_certificate(relation_b, d, (1, 2)) == 2
    assert td.endset_certificate(relation_b, d, (1, 1)) is None


def test_endset_stable_under_extension(relation_b):
    d = td.basic_sets(relation_b)
    rng = random.Random(5)
    for _ in range(50):
        word = [1]
        for _ in range(rng.randint(1, 12)):
            word.append(rng.choice(sorted(relation_b.successors(word[-1]))))
        cert = td.endset_certificate(relation_b, d, word)
        if cert is not None:
            longer = word + [rng.choice(sorted(relation_b.successors(word[-1])))]
            assert td.endset_certificate(relation_b, d, longer) == cert


def test_endset_rejects_non_words(relation_b):
    d = td.basic_sets(relation_b)
    with pytest.raises(td.WordError):
        td.endset_certificate(relation_b, d, (0, 1))


# --- serialization ---


def test_relation_json_round_trip(relation_b):
    data = td.relation_to_json(relation_b)
    assert td.relation_from_json(data) == relation_b


def test_relation_json_names_the_duplicate_edge(relation_b):
    data = td.relation_to_json(relation_b)
    data["edges"].append(list(data["edges"][0]))
    with pytest.raises(td.ValidationError,
                       match=r"^duplicate edge: \('I1', 'I1'\)$"):
        td.relation_from_json(data)


@pytest.mark.parametrize("mutation", [
    {"unknown": 1},
    {"edges": [["I1", "I1"], ["I1", "I1"]]},
    {"edges": [["I1", "nope"]]},
])
def test_relation_json_rejects_bad_input(relation_b, mutation):
    data = td.relation_to_json(relation_b)
    data.update(mutation)
    with pytest.raises(td.ValidationError):
        td.relation_from_json(data)
