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
* Elements are labelled strings; an edge is an index pair ``(i, j)``
  meaning i -> j.
* ``compose(first, second)`` applies ``first`` and then ``second`` (i.e. the
  set-map composition ``second ∘ first``).
* Classes in a decomposition are ordered by their smallest element index and
  each class lists its members in increasing index order.

Cost
----
A relation is a frozen dataclass of its labels and one sorted tuple of
successor indices per element, which is what every pass below reads, so
each runs in O(n + E).  Callers that already hold successor lists (the
two-alphabet G* is its J-fibers) hand them over without making an edge
tuple.  Everything else is a ``cached_property`` built on first use:
``edges``, a read-only set view over the successor tuples whose ``len`` is
exact and O(1), which iterates in sorted order and answers membership by
bisection; the predecessor tuples; and the sorted int64 edge codes
i n + j, which path checks search and whose order is the order of a
``markov`` cover's weights.
The order between classes is read off the condensation DAG (one node per
strong component) that Tarjan's pass emits in reverse topological order:
each component's set of reachable classes is the union of its successors'
sets, kept as an int bitset.  No transitive closure over elements is built.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ElementMismatchError, ValidationError, WordError


class EdgeView(Set):
    """The edges ``(i, j)`` of a relation, read from its successor tuples."""

    __slots__ = ("_succ", "_count")

    def __init__(self, succ: tuple[tuple[int, ...], ...], count: int):
        self._succ = succ
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for i, targets in enumerate(self._succ):
            for j in targets:
                yield i, j

    def __contains__(self, pair) -> bool:
        try:
            i, j = pair
            if not 0 <= i < len(self._succ):
                return False
            targets = self._succ[i]
            at = bisect_left(targets, j)
        except (TypeError, ValueError):
            return False
        return at < len(targets) and targets[at] == j

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"EdgeView({sorted(self)!r})"


@dataclass(frozen=True)
class FiniteRelation:
    """A directed relation on an ordered finite set of labelled elements.

    ``FiniteRelation(elements, edges)`` takes index pairs ``(i, j)``;
    ``from_successors`` takes one successor collection per element.  A
    relation is immutable once built: it is hashed, and decompositions and
    covers hold it.
    """

    elements: tuple[str, ...]
    _succ: tuple[tuple[int, ...], ...]

    def __init__(self, elements, edges=()):
        elements = tuple(elements)
        n = len(elements)
        succ: list[set[int]] = [set() for _ in elements]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(
                    f"edge ({i}, {j}) out of range for {n} elements")
            succ[i].add(j)
        self._store(elements, tuple(tuple(sorted(s)) for s in succ))

    @classmethod
    def from_successors(cls, elements, successors) -> "FiniteRelation":
        """The relation with ``successors[i]`` as the targets of element i.

        Each entry must be a tuple of strictly increasing indices in range.
        It is stored as given, so a tuple shared between elements stays
        shared and is checked once.
        """
        elements, succ = tuple(elements), tuple(successors)
        n = len(elements)
        if len(succ) != n:
            raise ValidationError(
                f"{len(succ)} successor tuples for {n} elements")
        checked = set()
        for i, targets in enumerate(succ):
            if id(targets) in checked:
                continue
            checked.add(id(targets))
            if not isinstance(targets, tuple) or targets and (
                    targets[0] < 0 or targets[-1] >= n
                    or any(map(operator.ge, targets, targets[1:]))):
                raise ValidationError(
                    f"successors of {elements[i]!r} must be a tuple of "
                    f"increasing indices below {n}")
        relation = cls.__new__(cls)
        relation._store(elements, succ)
        return relation

    def _store(self, elements, succ):
        if len(set(elements)) != len(elements):
            raise ValidationError("element labels must be distinct")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_succ", succ)

    def __reduce__(self):
        return type(self).from_successors, (self.elements, self._succ)

    @classmethod
    def from_labels(cls, elements, labelled_edges) -> "FiniteRelation":
        elements = tuple(elements)
        index = {label: i for i, label in enumerate(elements)}
        edges = []
        for a, b in labelled_edges:
            if a not in index or b not in index:
                raise ValidationError(f"edge ({a!r}, {b!r}) uses unknown labels")
            edges.append((index[a], index[b]))
        return cls(elements, edges)

    def __repr__(self) -> str:
        return (f"FiniteRelation(elements={self.elements!r}, "
                f"edges={self.edges!r})")

    @cached_property
    def edges(self) -> EdgeView:
        return EdgeView(self._succ, sum(map(len, self._succ)))

    @cached_property
    def _pred(self) -> tuple[tuple[int, ...], ...]:
        """Sorted predecessor tuples per element."""
        pred: list[list[int]] = [[] for _ in self.elements]
        for i, targets in enumerate(self._succ):
            for j in targets:
                pred[j].append(i)
        return tuple(map(tuple, pred))

    @cached_property
    def _edge_codes(self) -> np.ndarray:
        """Sorted read-only int64 codes i * n + j of the edges."""
        n = len(self.elements)
        sources = np.repeat(np.arange(n, dtype=np.int64),
                            [len(targets) for targets in self._succ])
        targets = np.fromiter(itertools.chain.from_iterable(self._succ),
                              dtype=np.int64, count=len(self.edges))
        codes = sources * n + targets
        codes.flags.writeable = False
        return codes

    def successors(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def predecessors(self, j: int) -> tuple[int, ...]:
        return self._pred[j]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

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
    then = second._succ
    return FiniteRelation.from_successors(first.elements, (
        tuple(sorted({k for j in targets for k in then[j]}))
        for targets in first._succ))


def inverse(relation: FiniteRelation) -> FiniteRelation:
    return FiniteRelation.from_successors(relation.elements, relation._pred)


def restrict_to_infinite_domain(
        relation: FiniteRelation) -> tuple[FiniteRelation, tuple[str, ...]]:
    """Iteratively drop elements with no outgoing edge; reindex the rest.

    Returns the restricted relation together with the kept labels (in their
    original order).  A relation with no cycles collapses to the empty
    relation, signalling an empty sample-path space.
    """
    succ, pred = relation._succ, relation._pred
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
    kept = [i for i in range(n) if alive[i]]
    labels = tuple(relation.elements[i] for i in kept)
    # Renumbering keeps the order, so the successor tuples stay sorted.
    renumber = [-1] * n
    for new, old in enumerate(kept):
        renumber[old] = new
    return FiniteRelation.from_successors(labels, (
        tuple(renumber[j] for j in succ[i] if alive[j]) for i in kept)), labels


def _strong_components(succ) -> list[list[int]]:
    """Tarjan's algorithm, iterative, deterministic component order.

    ``succ`` holds one successor sequence per element.  Components come out
    in reverse topological order of the condensation: every component
    reachable from another is emitted before it.  An emitted element gets
    the index n, above every live index, so no on-stack flags are needed.
    """
    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    depth = [0] * n       # position of each element on the Tarjan stack
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        depth[root] = len(stack)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, targets = work[-1]
            for nxt in targets:
                seen = index_of[nxt]
                if seen == -1:
                    index_of[nxt] = low[nxt] = counter
                    counter += 1
                    depth[nxt] = len(stack)
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if seen < low[node]:
                    low[node] = seen
            else:
                work.pop()
                lowest = low[node]
                if lowest == index_of[node]:
                    component = stack[depth[node]:]
                    del stack[depth[node]:]
                    for member in component:
                        index_of[member] = n
                    component.sort()
                    components.append(component)
                elif lowest < low[work[-1][0]]:
                    low[work[-1][0]] = lowest
    return components


def basic_sets(relation: FiniteRelation) -> BasicSetDecomposition:
    """Decompose a full-domain relation into its basic sets.

    Requires every element to have an outgoing edge (apply
    ``restrict_to_infinite_domain`` first if necessary); an empty relation is
    rejected for the same reason.
    """
    n = len(relation.elements)
    succ = relation._succ
    starved = [relation.elements[i] for i in range(n) if not succ[i]]
    if n == 0:
        raise DomainError("empty relation has no basic sets")
    if starved:
        raise DomainError(
            "elements without outgoing edges (restrict first): "
            + ", ".join(starved))

    components = _strong_components(succ)
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

    # One pass over the condensation.  reach[k]: bitset of the classes
    # reachable from component k by a nonempty path; upto[k] adds k's own
    # class.  Successor components were emitted earlier, so their bitsets
    # are complete when k is reached.  A successor tuple shared by several
    # members (G* shares its J-fibers) is read once per component.
    leaves = [False] * len(components)
    reach = [0] * len(components)
    upto = [0] * len(components)
    for k, comp in enumerate(components):
        bits = 0
        read = set()
        for i in comp:
            targets = succ[i]
            if id(targets) in read:
                continue
            read.add(id(targets))
            for j in targets:
                other = component_of[j]
                if other != k:
                    leaves[k] = True
                    bits |= upto[other]
        reach[k] = bits
        c = class_of_component[k]
        upto[k] = bits if c is None else bits | 1 << c
    terminal_flags = tuple(not leaves[k] for k in cyclic_components)

    in_terminal = [False] * n
    for c, k in enumerate(cyclic_components):
        if terminal_flags[c]:
            for i in components[k]:
                in_terminal[i] = True
    transient = tuple(i for i in range(n) if not in_terminal[i])

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


def _first_non_edge(relation: FiniteRelation, word: tuple) -> int | None:
    """Position p of the first pair (word[p], word[p+1]) that is not an edge,
    or None, for a word of symbols in range.

    One ``np.searchsorted`` of the pair codes a n + b against the
    relation's sorted edge codes, in place of a lookup per step.
    """
    if len(word) < 2:
        return None
    codes = relation._edge_codes
    if not len(codes):
        return 0
    symbols = np.array(word, dtype=np.int64)
    pairs = symbols[:-1] * len(relation.elements) + symbols[1:]
    at = np.minimum(np.searchsorted(codes, pairs), len(codes) - 1)
    found = codes[at] == pairs
    return None if found.all() else int(np.argmin(found))


def check_word(relation: FiniteRelation, word) -> tuple[int, ...]:
    """Validate a sample-path word (sequence of element indices)."""
    word = tuple(word)
    if not word:
        raise WordError("empty word")
    n = len(relation.elements)
    if min(word) < 0 or max(word) >= n:
        bad = next(s for s in word if not 0 <= s < n)
        raise WordError(f"symbol {bad} out of range")
    p = _first_non_edge(relation, word)
    if p is not None:
        raise WordError(f"({relation.elements[word[p]]}, "
                        f"{relation.elements[word[p + 1]]}) is not an edge")
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
