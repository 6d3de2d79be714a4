import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractable_dyn as td
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
    table = r.successor_table()
    for i in range(n):
        assert r.successors(i) == tuple(sorted(j for a, j in r.edges if a == i))
        assert r.predecessors(i) == tuple(
            sorted(a for a, j in r.edges if j == i))
        assert table[i] == list(r.successors(i))
    table[0].append(-1)  # a fresh copy each call
    assert r.successor_table()[0] == list(r.successors(0))


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
