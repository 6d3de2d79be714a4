"""Finite relations and their basic-set decompositions.

A relation G on a finite set K is the combinatorial skeleton of a dynamical
system: its sample paths (sequences with every consecutive pair an edge) form
a subshift, and the recurrent structure of that subshift is fully described
by the strongly connected components of G that contain a cycle.  On a finite
set the orbit relation (union of all positive powers of G) already equals the
chain relation, so no epsilon-chain machinery is needed: everything below is
plain graph theory, kept deterministic so reports serialize byte-for-byte.

Conventions
-----------
* Elements are labelled strings; edges are stored as index pairs ``(i, j)``
  meaning i -> j.
* ``compose(first, second)`` applies ``first`` and then ``second`` (i.e. the
  set-map composition ``second ∘ first``).
* Classes in a decomposition are ordered by their smallest element index and
  each class lists its members in increasing index order.

Cost
----
A relation builds its successor and predecessor tables once, on first use,
so every pass below runs in O(n + E).  The order between classes is read
off the condensation DAG (one node per strong component) that Tarjan's
pass emits in reverse topological order: each component's set of reachable
classes is the union of its successors' sets, kept as an int bitset.  No
transitive closure over elements is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, ElementMismatchError, ValidationError, WordError


@dataclass(frozen=True)
class FiniteRelation:
    """A directed relation on an ordered finite set of labelled elements."""

    elements: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("element labels must be distinct")
        n = len(self.elements)
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({i}, {j}) out of range for {n} elements")

    @classmethod
    def from_labels(cls, elements, labelled_edges) -> "FiniteRelation":
        elements = tuple(elements)
        index = {label: i for i, label in enumerate(elements)}
        edges = set()
        for a, b in labelled_edges:
            if a not in index or b not in index:
                raise ValidationError(f"edge ({a!r}, {b!r}) uses unknown labels")
            edges.add((index[a], index[b]))
        return cls(elements, frozenset(edges))

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, ...], ...],
                                  tuple[tuple[int, ...], ...]]:
        """Sorted successor and predecessor tuples per element, built once."""
        succ: list[list[int]] = [[] for _ in self.elements]
        pred: list[list[int]] = [[] for _ in self.elements]
        for i, j in sorted(self.edges):
            succ[i].append(j)
            pred[j].append(i)
        return tuple(map(tuple, succ)), tuple(map(tuple, pred))

    def successors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[0][i]

    def predecessors(self, j: int) -> tuple[int, ...]:
        return self._adjacency[1][j]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def successor_table(self) -> list[list[int]]:
        return [list(succ) for succ in self._adjacency[0]]

    def edge_labels(self) -> list[tuple[str, str]]:
        return sorted((self.elements[i], self.elements[j]) for i, j in self.edges)


@dataclass(frozen=True)
class BasicSetDecomposition:
    """Basic sets (cyclic strong components) of a full-domain relation.

    ``classes`` are the equivalence classes of elements that lie on a cycle,
    under mutual reachability.  ``terminal_flags[c]`` is True when no edge
    leaves ``classes[c]``.  ``transient`` lists every element outside all
    terminal classes, including members of non-terminal classes.  ``order``
    holds pairs ``(a, b)`` of distinct class indices with class b reachable
    from class a.
    """

    relation: FiniteRelation
    classes: tuple[tuple[int, ...], ...]
    terminal_flags: tuple[bool, ...]
    transient: tuple[int, ...]
    order: frozenset[tuple[int, int]]

    @cached_property
    def _class_index(self) -> dict[int, int]:
        return {i: c for c, members in enumerate(self.classes) for i in members}

    def class_of(self, element: int) -> int | None:
        return self._class_index.get(element)

    def terminal_classes(self) -> tuple[int, ...]:
        return tuple(c for c, t in enumerate(self.terminal_flags) if t)

    def class_labels(self, c: int) -> tuple[str, ...]:
        return tuple(self.relation.elements[i] for i in self.classes[c])


def _require_same_elements(first: FiniteRelation, second: FiniteRelation):
    if first.elements != second.elements:
        raise ElementMismatchError(
            "relations are on different element lists: "
            f"{first.elements} vs {second.elements}")


def compose(first: FiniteRelation, second: FiniteRelation) -> FiniteRelation:
    """Relational composition in application order: first, then second."""
    _require_same_elements(first, second)
    by_source: dict[int, set[int]] = {}
    for i, j in second.edges:
        by_source.setdefault(i, set()).add(j)
    edges = {(i, k) for i, j in first.edges for k in by_source.get(j, ())}
    return FiniteRelation(first.elements, frozenset(edges))


def inverse(relation: FiniteRelation) -> FiniteRelation:
    return FiniteRelation(relation.elements,
                          frozenset((j, i) for i, j in relation.edges))


def restrict_to_infinite_domain(
        relation: FiniteRelation) -> tuple[FiniteRelation, tuple[str, ...]]:
    """Iteratively drop elements with no outgoing edge; reindex the rest.

    Returns the restricted relation together with the kept labels (in their
    original order).  A relation with no cycles collapses to the empty
    relation, signalling an empty sample-path space.
    """
    succ, pred = relation._adjacency
    n = len(relation.elements)
    degree = [len(s) for s in succ]
    alive = [True] * n
    starved = [i for i in range(n) if degree[i] == 0]
    while starved:
        j = starved.pop()
        alive[j] = False
        for i in pred[j]:
            degree[i] -= 1
            if degree[i] == 0:
                starved.append(i)
    kept = tuple(i for i in range(n) if alive[i])
    labels = tuple(relation.elements[i] for i in kept)
    renumber = {old: new for new, old in enumerate(kept)}
    new_edges = frozenset((renumber[i], renumber[j]) for i, j in relation.edges
                          if alive[i] and alive[j])
    return FiniteRelation(labels, new_edges), labels


def _strong_components(relation: FiniteRelation) -> list[list[int]]:
    """Tarjan's algorithm, iterative, deterministic component order.

    Components come out in reverse topological order of the condensation:
    every component reachable from another is emitted before it.
    """
    succ = relation._adjacency[0]
    n = len(relation.elements)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for pos in range(child_pos, len(succ[node])):
                nxt = succ[node][pos]
                if index_of[nxt] == -1:
                    work.append((node, pos + 1))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index_of[nxt])
            if recurse:
                continue
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def basic_sets(relation: FiniteRelation) -> BasicSetDecomposition:
    """Decompose a full-domain relation into its basic sets.

    Requires every element to have an outgoing edge (apply
    ``restrict_to_infinite_domain`` first if necessary); an empty relation is
    rejected for the same reason.
    """
    n = len(relation.elements)
    succ = relation._adjacency[0]
    starved = [relation.elements[i] for i in range(n) if not succ[i]]
    if n == 0:
        raise DomainError("empty relation has no basic sets")
    if starved:
        raise DomainError(
            "elements without outgoing edges (restrict first): "
            + ", ".join(starved))

    components = _strong_components(relation)
    component_of = [0] * n
    for k, comp in enumerate(components):
        for i in comp:
            component_of[i] = k
    cyclic_components = [k for k, comp in enumerate(components)
                         if len(comp) > 1 or relation.has_edge(comp[0], comp[0])]
    cyclic_components.sort(key=lambda k: components[k][0])
    class_of_component: list[int | None] = [None] * len(components)
    for c, k in enumerate(cyclic_components):
        class_of_component[k] = c

    leaves = [False] * len(components)
    for i, j in relation.edges:
        if component_of[i] != component_of[j]:
            leaves[component_of[i]] = True
    terminal_flags = tuple(not leaves[k] for k in cyclic_components)

    terminal_members = {i for c, k in enumerate(cyclic_components)
                        if terminal_flags[c] for i in components[k]}
    transient = tuple(i for i in range(n) if i not in terminal_members)

    # reach[k]: bitset of the classes reachable from component k by a
    # nonempty path; upto[k] adds k's own class.  Successor components were
    # emitted earlier, so their bitsets are complete when k is reached.
    reach = [0] * len(components)
    upto = [0] * len(components)
    for k, comp in enumerate(components):
        bits = 0
        for i in comp:
            for j in succ[i]:
                if component_of[j] != k:
                    bits |= upto[component_of[j]]
        reach[k] = bits
        c = class_of_component[k]
        upto[k] = bits if c is None else bits | 1 << c
    order = set()
    for a, k in enumerate(cyclic_components):
        digits = bin(reach[k])[:1:-1]  # digits[b] is bit b
        order.update((a, b) for b, digit in enumerate(digits) if digit == "1")

    return BasicSetDecomposition(
        relation=relation,
        classes=tuple(tuple(components[k]) for k in cyclic_components),
        terminal_flags=terminal_flags,
        transient=transient,
        order=frozenset(order),
    )


def decomposition_json(decomposition: BasicSetDecomposition) -> dict:
    """The basic_sets, terminal, transient and order keys of every report."""
    return {
        "basic_sets": [list(decomposition.class_labels(c))
                       for c in range(len(decomposition.classes))],
        "terminal": [list(decomposition.class_labels(c))
                     for c in decomposition.terminal_classes()],
        "transient": [decomposition.relation.elements[i]
                      for i in decomposition.transient],
        "order": sorted([a, b] for a, b in decomposition.order),
    }


def tractability_json(decomposition: BasicSetDecomposition, decay,
                      disjoint_note: str) -> dict:
    """The decomposition keys plus "decay" and the "trac" block.

    ``decay`` is a transient-mass certificate (``n`` and ``rho``);
    ``disjoint_note`` says why the report's supports are almost disjoint.
    """
    out = decomposition_json(decomposition)
    out["decay"] = {"n": decay.n, "rho": decay.rho}
    out["trac"] = {
        "finitely_many_basic_sets": {
            "holds": True, "count": len(decomposition.classes)},
        "ergodic_measures_full_mass": {
            "holds": True,
            "count": len(out["terminal"]),
            "decay": {"n": decay.n, "rho": decay.rho}},
        "supports_in_visible_basic_sets": {
            "holds": True, "visible": [list(c) for c in out["terminal"]]},
        "supports_almost_disjoint": {"holds": True, "note": disjoint_note},
    }
    return out


def check_word(relation: FiniteRelation, word) -> tuple[int, ...]:
    """Validate a sample-path word (sequence of element indices)."""
    word = tuple(word)
    if not word:
        raise WordError("empty word")
    n = len(relation.elements)
    for s in word:
        if not (0 <= s < n):
            raise WordError(f"symbol {s} out of range")
    for a, b in zip(word, word[1:]):
        if not relation.has_edge(a, b):
            raise WordError(
                f"({relation.elements[a]}, {relation.elements[b]}) is not an edge")
    return word


def endset_certificate(relation: FiniteRelation,
                       decomposition: BasicSetDecomposition,
                       word) -> int | None:
    """Terminal class certified by a finite word, if any.

    Once a word reaches a terminal class it can never leave, so membership of
    the last symbol already determines the endset of every infinite extension.
    Returns the terminal class index, or None when the word has not entered a
    terminal class yet.
    """
    return _terminal_class_at(decomposition, check_word(relation, word)[-1])


def _terminal_class_at(decomposition: BasicSetDecomposition,
                       element: int) -> int | None:
    """The terminal class containing an element, or None."""
    c = decomposition.class_of(element)
    if c is not None and decomposition.terminal_flags[c]:
        return c
    return None


def relation_from_json(data) -> FiniteRelation:
    """Parse the external relation format, rejecting malformed input."""
    if not isinstance(data, dict):
        raise ValidationError("relation file must be a JSON object")
    unknown = set(data) - {"elements", "edges"}
    if unknown:
        raise ValidationError(f"unknown relation fields: {sorted(unknown)}")
    elements = data.get("elements")
    edges = data.get("edges")
    if (not isinstance(elements, list)
            or not all(isinstance(e, str) for e in elements)):
        raise ValidationError("'elements' must be a list of strings")
    if not isinstance(edges, list):
        raise ValidationError("'edges' must be a list of label pairs")
    seen = set()
    pairs = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, str) for x in item)):
            raise ValidationError(f"bad edge entry: {item!r}")
        pair = (item[0], item[1])
        if pair in seen:
            raise ValidationError(f"duplicate edge: {pair}")
        seen.add(pair)
        pairs.append(pair)
    return FiniteRelation.from_labels(elements, pairs)


def relation_to_json(relation: FiniteRelation) -> dict:
    return {
        "elements": list(relation.elements),
        "edges": [[a, b] for a, b in relation.edge_labels()],
    }
