"""Graph routines written independently of the library under test.

They serve two purposes: the input generators use them to pick inputs with
a known structure (so every seed gives a mix of equal cost), and the answer
checks use them as an oracle that needs no stored reference.  Everything is
O(elements + edges).
"""

from __future__ import annotations


def successor_lists(n: int, edges) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    for row in succ:
        row.sort()
    return succ


def prune_starved(n: int, edges) -> list[int]:
    """Indices that keep an infinite forward orbit, in increasing order."""
    succ = successor_lists(n, edges)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        preds[j].append(i)
    out_deg = [len(s) for s in succ]
    dead = [i for i in range(n) if out_deg[i] == 0]
    is_dead = [False] * n
    for i in dead:
        is_dead[i] = True
    while dead:
        j = dead.pop()
        for i in preds[j]:
            if not is_dead[i]:
                out_deg[i] -= 1
                if out_deg[i] == 0:
                    is_dead[i] = True
                    dead.append(i)
    return [i for i in range(n) if not is_dead[i]]


def strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; each component is returned sorted."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0 and index[node] == -1:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            children = succ[node]
            while pos < len(children):
                nxt = children[pos]
                pos += 1
                if index[nxt] == -1:
                    work[-1] = (node, pos)
                    work.append((nxt, 0))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp.append(member)
                        if member == node:
                            break
                    out.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return out


def basic_sets(n: int, edges) -> tuple[list[list[int]], list[list[int]]]:
    """(cyclic classes, terminal classes), each ordered by smallest member."""
    succ = successor_lists(n, edges)
    cyclic = [c for c in strong_components(succ)
              if len(c) > 1 or c[0] in succ[c[0]]]
    cyclic.sort(key=lambda c: c[0])
    terminal = []
    for comp in cyclic:
        inside = set(comp)
        if all(j in inside for i in comp for j in succ[i]):
            terminal.append(comp)
    return cyclic, terminal
