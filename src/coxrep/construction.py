"""Reflection representations from a rooted spanning tree and parameters.

Given a diagram with a rooted spanning tree, a choice of admissible root
of the order polynomial for every edge, and a nonzero scalar for every
chord, the generators act on the basis (a_s) by

    zeta_s(a_s) = -a_s
    zeta_t(a_s) = a_s                          (commuting pairs)
    zeta_s(a_t) = alpha_e a_s + a_t            (tree edge, s below t... s ≼ t)
    zeta_t(a_s) = a_s + a_t
    zeta_s(a_t) = l_e a_s + a_t                (chord, stored direction)
    zeta_t(a_s) = l_e' a_t + a_s               (l_e * l_e' = alpha_e)

Root and tree changes produce equivalent representations; the diagonal
intertwiners are constructed here explicitly, transporting chord scalars
along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import linalg
from .cartanpoly import admissible_root_indices
from .cyclotomic import FieldContext, FieldElement, field_context
from .graph import (
    Diagram,
    DifferentDiagram,
    SpanningTree,
    breadth_first,
    chord_circuit,
    precedes,
    spanning_tree,
    spanning_tree_from_edges,
    swap_sequence,
)

Matrix = tuple[tuple[FieldElement, ...], ...]


class IncompleteParameters(ValueError):
    pass


class ZeroChordParameter(ValueError):
    pass


def conductor_for(diagram: Diagram) -> int:
    """Conductor of the ambient field: lcm of 2*m_e over the edges.

    The doubled labels make 2*cos(pi/m_e) representable, which the
    geometric parameter values require.
    """
    n = 1
    for s, t in diagram.edges:
        n = math.lcm(n, 2 * diagram.edge_label(s, t))
    return n


@dataclass(frozen=True, eq=False)
class ParameterSystem:
    """Per-edge root choices plus chord scalars.

    alpha_index maps each diagram edge (s, t), s < t, to the admissible
    index k (gcd(k, m_e) = 1, k <= m_e/2) selecting alpha_e =
    4*cos^2(k*pi/m_e).  chord_l maps each chord to the nonzero scalar l
    for the low-to-high direction; the reverse scalar alpha_e / l is
    always derived, which enforces the defining product constraint.
    """

    ctx: FieldContext
    alpha_index: Mapping[tuple[int, int], int]
    chord_l: Mapping[tuple[int, int], FieldElement]

    def alpha(self, diagram: Diagram, s: int, t: int) -> FieldElement:
        key = (s, t) if s < t else (t, s)
        m = diagram.edge_label(s, t)
        k = self.alpha_index[key]
        return 2 + self.ctx.cos_element(k, m)

    def path_product(self, diagram: Diagram, path: Sequence[int]) -> FieldElement:
        """Product of alpha over the consecutive pairs of a path of diagram
        edges; the empty product (a path of one vertex) is 1."""
        acc = self.ctx.one
        for s, t in zip(path, path[1:]):
            acc = acc * self.alpha(diagram, s, t)
        return acc

    def chord_pair(self, diagram: Diagram, s: int, t: int
                   ) -> tuple[FieldElement, FieldElement]:
        """(l for direction s->t, l for direction t->s)."""
        key = (s, t) if s < t else (t, s)
        forward = self.chord_l[key]
        backward = self.alpha(diagram, s, t) / forward
        return (forward, backward) if s < t else (backward, forward)

    def with_alpha(self, edge: tuple[int, int], k: int) -> "ParameterSystem":
        new = dict(self.alpha_index)
        new[edge] = k
        return ParameterSystem(self.ctx, new, dict(self.chord_l))

    def with_chord(self, edge: tuple[int, int], l: FieldElement) -> "ParameterSystem":
        new = dict(self.chord_l)
        new[edge] = l
        return ParameterSystem(self.ctx, dict(self.alpha_index), new)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSystem):
            return NotImplemented
        return (self.ctx is other.ctx
                and dict(self.alpha_index) == dict(other.alpha_index)
                and dict(self.chord_l) == dict(other.chord_l))

    def validate_for(self, tree: SpanningTree) -> None:
        diagram = tree.diagram
        for s, t in diagram.edges:
            if (s, t) not in self.alpha_index:
                raise IncompleteParameters(f"edge ({s}, {t}) has no root choice")
            m = diagram.edge_label(s, t)
            k = self.alpha_index[(s, t)]
            if k not in admissible_root_indices(m):
                raise IncompleteParameters(
                    f"index {k} is not admissible for label {m}")
        for chord in tree.chords:
            l = self.chord_l.get(chord)
            if l is None:
                raise IncompleteParameters(f"chord {chord} has no scalar")
            if l.is_zero():
                raise ZeroChordParameter(f"chord {chord} has zero scalar")


def geometric_parameters(tree: SpanningTree) -> ParameterSystem:
    """The parameter system of the classical geometric representation.

    Every edge takes the k = 1 root 4*cos^2(pi/m).  For a chord, the
    product of 2*cos(pi/m) over all circuit edges (chord included) is
    split between the two directions by the prefix/suffix alpha products
    around the circuit entry; an endpoint entry makes its side's product
    empty (= 1).
    """
    diagram = tree.diagram
    ctx = field_context(conductor_for(diagram))
    alpha_index = {edge: 1 for edge in diagram.edges}
    chord_l: dict[tuple[int, int], FieldElement] = {}
    params = ParameterSystem(ctx, alpha_index, chord_l)
    for chord in tree.chords:
        circuit = chord_circuit(tree, chord)
        path = circuit.path
        b = ctx.cos_element(1, 2 * diagram.edge_label(*chord))
        for i in range(len(path) - 1):
            b = b * ctx.cos_element(1, 2 * diagram.edge_label(path[i], path[i + 1]))
        chord_l[chord] = b / params.path_product(diagram, path[:circuit.entry_index + 1])
    return params


@dataclass(frozen=True)
class CartanMatrixData:
    """Cartan matrix entries (c[s][t] with s(a_t) = a_t - c_st a_s) and
    its determinant, the discriminant of the representation."""

    entries: Matrix
    discriminant: FieldElement


@dataclass(frozen=True, eq=False)
class ReflectionRep:
    """Generator matrices over an exact cyclotomic field, with provenance."""

    ctx: FieldContext
    diagram: Diagram
    tree: SpanningTree
    params: ParameterSystem
    generators: tuple[Matrix, ...]

    @property
    def rank(self) -> int:
        return self.diagram.rank

    @property
    def root(self) -> int:
        return self.tree.root

    def word_matrix(self, word: Sequence[int]) -> list[list[FieldElement]]:
        """The product of the generators along the word; I for the empty word."""
        if not word:
            return linalg.identity(self.ctx, self.rank)
        acc = [list(row) for row in self.generators[word[0]]]
        for s in word[1:]:
            acc = linalg.mat_mul(self.ctx, acc, self.generators[s])
        return acc

    def word_trace(self, word: Sequence[int]) -> FieldElement:
        return linalg.trace(self.ctx, self.word_matrix(word))

    def __str__(self) -> str:
        return (f"ReflectionRep(rank={self.rank}, N={self.ctx.N}, "
                f"root={self.diagram.labels[self.root]})")


def cartan_rows(tree: SpanningTree, params: ParameterSystem
                ) -> list[list[FieldElement]]:
    diagram = tree.diagram
    ctx = params.ctx
    n = diagram.rank
    two = ctx.from_rational(2)
    rows = [[ctx.zero] * n for _ in range(n)]
    for s in range(n):
        rows[s][s] = two
    for s, t in diagram.edges:
        alpha = params.alpha(diagram, s, t)
        if tree.is_tree_edge(s, t):
            low, high = (s, t) if precedes(tree, s, t) else (t, s)
            rows[low][high] = -alpha
            rows[high][low] = -ctx.one
        else:
            forward, backward = params.chord_pair(diagram, s, t)
            rows[s][t] = -forward
            rows[t][s] = -backward
    return rows


def build(tree: SpanningTree, params: ParameterSystem) -> ReflectionRep:
    """The reflection representation determined by the tree and parameters."""
    params.validate_for(tree)
    ctx = params.ctx
    n = tree.diagram.rank
    rows = cartan_rows(tree, params)
    generators = []
    for s in range(n):
        mat = linalg.identity(ctx, n)
        for t in range(n):
            mat[s][t] = (ctx.one if s == t else ctx.zero) - rows[s][t]
        generators.append(linalg.mat_freeze(mat))
    return ReflectionRep(ctx, tree.diagram, tree, params, tuple(generators))


def geometric_representation(diagram: Diagram, root: int | str = 0) -> ReflectionRep:
    tree = spanning_tree(diagram, root)
    return build(tree, geometric_parameters(tree))


def cartan_matrix(rep: ReflectionRep) -> CartanMatrixData:
    """Cartan matrix read off the generator matrices, and its determinant."""
    n = rep.rank
    ctx = rep.ctx
    rows = []
    for s in range(n):
        gen_row = rep.generators[s][s]
        rows.append(tuple((ctx.one if s == t else ctx.zero) - gen_row[t]
                          for t in range(n)))
    entries = tuple(rows)
    disc = linalg.determinant(ctx, entries)
    return CartanMatrixData(entries, disc)


# ---------------------------------------------------------------------------
# equivalences: root change and tree change
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Intertwiner:
    """Diagonal change of basis g with source_gen * g = g * target_gen.

    Conjugating the target representation by g recovers the source:
    source(w) = g target(w) g^-1 for every word w.
    """

    source: ReflectionRep
    target: ReflectionRep
    diagonal: tuple[FieldElement, ...]

    @property
    def matrix(self) -> list[list[FieldElement]]:
        ctx = self.source.ctx
        n = len(self.diagonal)
        out = linalg.identity(ctx, n)
        for i, v in enumerate(self.diagonal):
            out[i][i] = v
        return out

    def verify(self) -> bool:
        return linalg.is_intertwiner(self.source.ctx, self.source.generators,
                                     self.target.generators, self.matrix)


def _transport_chords(params: ParameterSystem,
                      scale: Sequence[FieldElement]) -> ParameterSystem:
    """Chord scalars of the representation expressed in the rescaled basis
    a_s -> scale_s * a_s; tree-edge choices are untouched."""
    new_chords = {}
    for (u, v), l in params.chord_l.items():
        new_chords[(u, v)] = l * scale[v] / scale[u]
    return ParameterSystem(params.ctx, dict(params.alpha_index), new_chords)


def _component_scales(tree: SpanningTree, old_root: int, new_root: int,
                      alpha: FieldElement) -> list[FieldElement]:
    """Single root step old->new across a tree edge: the old root's side of
    the split tree rescales by alpha, the other side by 1."""
    n = tree.diagram.rank
    # a search from old_root that never enters new_root stays on its side
    _, depth = breadth_first(n, old_root, lambda v: [
        w for w in range(n) if tree.is_tree_edge(v, w) and new_root not in (v, w)])
    return [alpha if d >= 0 else alpha.ctx.one for d in depth]


def root_change_intertwiner(rep: ReflectionRep, new_root: int | str) -> Intertwiner:
    """Move the tree root along the tree path, composing the one-step
    diagonal intertwiners; chord scalars transport by the scale ratios."""
    diagram = rep.diagram
    if isinstance(new_root, str):
        new_root = diagram.vertex_index(new_root)
    ctx = rep.ctx
    n = rep.rank
    total = [ctx.one] * n
    params = rep.params
    tree = rep.tree
    # tree path from the current root to the new root
    up_new = tree.path_to_root(new_root)
    path = list(reversed(up_new))       # [root, ..., new_root]
    current_root = tree.root
    for step_target in path[1:]:
        alpha = params.alpha(diagram, current_root, step_target)
        scales = _component_scales(tree, current_root, step_target, alpha)
        params = _transport_chords(params, scales)
        total = [a * b for a, b in zip(total, scales)]
        current_root = step_target
    target = build(tree.with_root(new_root), params)
    return Intertwiner(rep, target, tuple(total))


def _single_swap(rep: ReflectionRep, add: tuple[int, int],
                 remove: tuple[int, int]) -> Intertwiner:
    """Exchange a chord for a tree edge at a root placed on the chord.

    Requires rep's root to be an endpoint of `add`.  Along the circuit
    [s_1 = root, ..., s_q], cut at the removed edge (s_m, s_m+1): vertices
    reached through s_j with j <= m keep their basis vector; those beyond
    the cut rescale by the suffix alpha product times the closing scalar.
    """
    tree = rep.tree
    diagram = rep.diagram
    ctx = rep.ctx
    params = rep.params
    circuit = chord_circuit(tree, add)
    path = list(circuit.path)
    if path[-1] == tree.root:
        path.reverse()
    assert path[0] == tree.root, "swap root must be an endpoint of the added edge"
    q = len(path)
    positions = {v: i for i, v in enumerate(path)}
    m_index = None
    for i in range(q - 1):
        if {path[i], path[i + 1]} == set(remove):
            m_index = i
            break
    if m_index is None:
        raise ValueError("removed edge does not lie on the circuit")
    # scalar closing the circuit, direction last -> first
    l_to_root = params.chord_pair(diagram, path[-1], path[0])[0]
    lam = [ctx.one if j <= m_index else params.path_product(diagram, path[j:]) * l_to_root
           for j in range(q)]
    scales = [ctx.one] * diagram.rank
    for v in range(diagram.rank):
        w = v
        while w not in positions:
            w = tree.parent[w]
        scales[v] = lam[positions[w]]
    # parameters of the swapped tree in the rescaled basis
    new_chords = dict(_transport_chords(params, scales).chord_l)
    del new_chords[add]
    sm, sm1 = path[m_index], path[m_index + 1]
    alpha_removed = params.alpha(diagram, sm, sm1)
    l_down = alpha_removed * lam[m_index + 1]    # direction s_m -> s_m+1
    if sm < sm1:
        new_chords[(sm, sm1)] = l_down
    else:
        new_chords[(sm1, sm)] = alpha_removed / l_down
    new_params = ParameterSystem(ctx, dict(params.alpha_index), new_chords)
    new_edges = (tree.tree_edges - {remove if remove[0] < remove[1]
                                    else (remove[1], remove[0])}) | {add}
    new_tree = spanning_tree_from_edges(diagram, tree.root, new_edges)
    target = build(new_tree, new_params)
    return Intertwiner(rep, target, tuple(scales))


def tree_change_intertwiner(rep: ReflectionRep, new_tree: SpanningTree) -> Intertwiner:
    """Change of spanning tree, via root moves and single edge exchanges."""
    if new_tree.diagram != rep.diagram:
        raise DifferentDiagram("target tree belongs to a different diagram")
    ctx = rep.ctx
    n = rep.rank
    original_root = rep.tree.root
    total = [ctx.one] * n
    current = rep
    for add, remove in swap_sequence(rep.tree, new_tree):
        step = root_change_intertwiner(current, add[0])
        total = [a * b for a, b in zip(total, step.diagonal)]
        current = step.target
        step = _single_swap(current, add, remove)
        total = [a * b for a, b in zip(total, step.diagonal)]
        current = step.target
    step = root_change_intertwiner(current, original_root)
    total = [a * b for a, b in zip(total, step.diagonal)]
    current = step.target
    assert current.tree.tree_edges == new_tree.tree_edges
    return Intertwiner(rep, current, tuple(total))
