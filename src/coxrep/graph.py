"""Coxeter diagrams, rooted spanning trees, the tree order and chord circuits.

The diagram of a Coxeter matrix has the generators as vertices and an edge
labelled m_st for every pair with m_st >= 3.  A rooted spanning tree induces
a partial order (ancestor-with-smaller-depth) on the vertices; adding a
chord creates a unique circuit whose minimal vertex is its entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class NotSymmetric(ValueError):
    pass


class BadDiagonal(ValueError):
    pass


class InfiniteLabel(ValueError):
    """Label missing, < 2, or an infinity marker: the system is not 2-spherical."""


class Disconnected(ValueError):
    pass


class NotAChord(ValueError):
    pass


class DifferentDiagram(ValueError):
    pass


def _edge_key(s: int, t: int) -> tuple[int, int]:
    return (s, t) if s < t else (t, s)


@dataclass(frozen=True)
class Diagram:
    """Edge-labelled graph of a 2-spherical irreducible Coxeter matrix."""

    labels: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]         # sorted pairs (s, t), s < t, m >= 3

    @property
    def rank(self) -> int:
        return len(self.labels)

    def edge_label(self, s: int, t: int) -> int:
        return self.m[s][t]

    def is_edge(self, s: int, t: int) -> bool:
        return s != t and self.m[s][t] >= 3

    def neighbors(self, s: int) -> list[int]:
        return [t for t in range(self.rank) if self.is_edge(s, t)]

    def vertex_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labelled {label!r}") from None

    def __str__(self) -> str:
        parts = [f"{self.labels[s]}-{self.labels[t]}:{self.m[s][t]}"
                 for s, t in self.edges]
        return f"Diagram({', '.join(parts) or self.labels[0]})"


def validate(matrix: Sequence[Sequence[int]],
             labels: Sequence[str] | None = None) -> Diagram:
    """Check the Coxeter matrix axioms and return the labelled diagram.

    Rejects non-symmetric matrices, diagonals != 1, labels < 2 off the
    diagonal (taken as infinity markers), and disconnected diagrams.
    """
    m = tuple(tuple(int(v) for v in row) for row in matrix)
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise NotSymmetric("matrix must be square and non-empty")
    for s in range(n):
        if m[s][s] != 1:
            raise BadDiagonal(f"m[{s}][{s}] = {m[s][s]}, expected 1")
        for t in range(s + 1, n):
            if m[s][t] != m[t][s]:
                raise NotSymmetric(f"m[{s}][{t}] != m[{t}][{s}]")
            if m[s][t] < 2:
                raise InfiniteLabel(
                    f"m[{s}][{t}] = {m[s][t]}: labels must be finite and >= 2")
    edges = tuple((s, t) for s in range(n) for t in range(s + 1, n) if m[s][t] >= 3)
    _, depth = breadth_first(
        n, 0, lambda s: [t for t in range(n) if t != s and m[s][t] >= 3])
    if min(depth) < 0:
        raise Disconnected("diagram is not connected")
    if labels is None:
        labels = tuple(f"s{i + 1}" for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct and match the rank")
    return Diagram(labels, m, edges)


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree of a diagram, with depths and chord list."""

    diagram: Diagram
    root: int
    parent: tuple[int | None, ...]
    depth: tuple[int, ...]
    tree_edges: frozenset[tuple[int, int]]
    chords: tuple[tuple[int, int], ...]

    def is_tree_edge(self, s: int, t: int) -> bool:
        return _edge_key(s, t) in self.tree_edges

    def path_to_root(self, s: int) -> list[int]:
        path = [s]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def with_root(self, new_root: int) -> "SpanningTree":
        return _tree_from_edge_set(self.diagram, new_root, self.tree_edges)

    def __str__(self) -> str:
        labels = self.diagram.labels
        es = ", ".join(f"{labels[s]}-{labels[t]}" for s, t in sorted(self.tree_edges))
        return f"SpanningTree(root={labels[self.root]}, edges=[{es}])"


def breadth_first(n: int, root: int, neighbors: Callable[[int], Iterable[int]]
                  ) -> tuple[list[int | None], list[int]]:
    """Parents and depths of a breadth-first search from the root, visiting
    each vertex's neighbors in the order given; unreached vertices keep
    parent None and depth -1."""
    parent: list[int | None] = [None] * n
    depth = [-1] * n
    depth[root] = 0
    queue = [root]
    for v in queue:
        for w in neighbors(v):
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                parent[w] = v
                queue.append(w)
    return parent, depth


def _tree_from_edge_set(diagram: Diagram, root: int,
                        edge_set: Iterable[tuple[int, int]]) -> SpanningTree:
    n = diagram.rank
    edge_set = frozenset(_edge_key(s, t) for s, t in edge_set)
    for s, t in edge_set:
        if not diagram.is_edge(s, t):
            raise ValueError(f"({s}, {t}) is not a diagram edge")
    parent, depth = breadth_first(
        n, root, lambda v: [w for w in range(n) if _edge_key(v, w) in edge_set])
    if any(d < 0 for d in depth):
        raise ValueError("edge set does not span the diagram")
    if len(edge_set) != n - 1:
        raise ValueError("a spanning tree needs exactly rank-1 edges")
    chords = tuple(sorted(e for e in diagram.edges if e not in edge_set))
    return SpanningTree(diagram, root, tuple(parent), tuple(depth),
                        edge_set, chords)


def spanning_tree(diagram: Diagram, root: int | str) -> SpanningTree:
    """Breadth-first spanning tree from the root, neighbor ties broken by
    ascending vertex index (deterministic), read off that one search."""
    if isinstance(root, str):
        root = diagram.vertex_index(root)
    n = diagram.rank
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    parent, depth = breadth_first(n, root, diagram.neighbors)
    if any(d < 0 for d in depth):
        raise Disconnected("diagram is not connected")
    edges = frozenset(_edge_key(v, p) for v, p in enumerate(parent) if p is not None)
    return SpanningTree(diagram, root, tuple(parent), tuple(depth), edges,
                        tuple(e for e in diagram.edges if e not in edges))


def spanning_tree_from_edges(diagram: Diagram, root: int | str,
                             edges: Iterable[tuple[int, int]]) -> SpanningTree:
    """Spanning tree with explicitly chosen edges (CLI tree override)."""
    if isinstance(root, str):
        root = diagram.vertex_index(root)
    return _tree_from_edge_set(diagram, root, edges)


def precedes(tree: SpanningTree, s: int, t: int) -> bool:
    """Tree order: s precedes t when they lie on one branch with s closer
    to the root, i.e. s is on the tree path from t to the root.  Reflexive."""
    if tree.depth[s] > tree.depth[t]:
        return False
    v: int | None = t
    while v is not None and tree.depth[v] >= tree.depth[s]:
        if v == s:
            return True
        v = tree.parent[v]
    return False


@dataclass(frozen=True)
class ChordCircuit:
    """The unique circuit closed by one chord: the tree path between its
    endpoints plus the chord, with the tree-minimal vertex marked."""

    chord: tuple[int, int]
    path: tuple[int, ...]      # [s, ..., t] consecutive pairs are tree edges
    entry_index: int           # 0-based position of the entry vertex in path


def chord_circuit(tree: SpanningTree, chord: tuple[int, int]) -> ChordCircuit:
    """Circuit created by a chord, and its entry (the ≼-minimal path vertex)."""
    chord = _edge_key(*chord)
    if chord not in tree.chords:
        raise NotAChord(f"{chord} is not a chord of the tree")
    s, t = chord
    up_s = tree.path_to_root(s)
    up_t = tree.path_to_root(t)
    ancestors_t = {v: i for i, v in enumerate(up_t)}
    meet_i = next(i for i, v in enumerate(up_s) if v in ancestors_t)
    meet = up_s[meet_i]
    path = up_s[:meet_i + 1] + up_t[:ancestors_t[meet]][::-1]
    entry_index = path.index(meet)
    # the entry must be the unique path vertex preceding every other
    entries = [i for i, v in enumerate(path)
               if all(precedes(tree, v, w) for w in path)]
    assert entries == [entry_index], "circuit entry is not unique"
    return ChordCircuit(chord, tuple(path), entry_index)
