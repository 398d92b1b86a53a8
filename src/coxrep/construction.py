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

Every generator is I - e_s * (Cartan row s), so a change of basis between
two representations on one diagram is diagonal: scaling a_s by scale_s
turns c_st into c_st * scale_t / scale_s.  One walk down a rooted tree
finds the scales that give the tree's convention; it yields the tree
products, the chord scalars of the geometric representation and of the
adapted dual, the intertwiners of root and tree changes, and the decision
whether two representations are equivalent.
Parameters hold their diagram, and so their field, and fit only its trees;
a representation reads its diagram off its tree, its field off its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from . import linalg
from .cartanpoly import admissible_root_indices
from .cyclotomic import FieldContext, FieldElement, field_context
from .graph import Diagram, DifferentDiagram, SpanningTree, spanning_tree

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


@dataclass(frozen=True)
class ParameterSystem:
    """Per-edge root choices plus chord scalars on one diagram, whose
    conductor (conductor_for) fixes the field.

    alpha_index maps each diagram edge (s, t), s < t, to the admissible
    index k (gcd(k, m_e) = 1, k <= m_e/2) selecting alpha_e =
    4*cos^2(k*pi/m_e), made on the first read of any alpha.  chord_l maps
    each chord to the nonzero scalar l for the low-to-high direction; the
    reverse scalar alpha_e / l is always derived, which enforces the
    defining product constraint; chord_pair inverts l on each call, and
    build is its one caller, so the built generators hold both scalars.
    """

    diagram: Diagram
    alpha_index: Mapping[tuple[int, int], int]
    chord_l: Mapping[tuple[int, int], FieldElement]

    @cached_property
    def ctx(self) -> FieldContext:
        return field_context(conductor_for(self.diagram))

    @cached_property
    def _alphas(self) -> dict[tuple[int, int], FieldElement]:
        return {(s, t): 2 + self.ctx.cos_element(k, self.diagram.edge_label(s, t))
                for (s, t), k in self.alpha_index.items()}

    def alpha(self, s: int, t: int) -> FieldElement:
        return self._alphas[(s, t) if s < t else (t, s)]

    def chord_pair(self, s: int, t: int) -> tuple[FieldElement, FieldElement]:
        """(l for direction s->t, l for direction t->s)."""
        key = (s, t) if s < t else (t, s)
        forward = self.chord_l[key]
        backward = self.alpha(s, t) * forward.invert()
        return (forward, backward) if s < t else (backward, forward)

    def with_alpha(self, edge: tuple[int, int], k: int) -> "ParameterSystem":
        new = dict(self.alpha_index)
        new[edge] = k
        return ParameterSystem(self.diagram, new, dict(self.chord_l))

    def with_chord(self, edge: tuple[int, int], l: FieldElement) -> "ParameterSystem":
        new = dict(self.chord_l)
        new[edge] = l
        return ParameterSystem(self.diagram, dict(self.alpha_index), new)

    def validate_for(self, tree: SpanningTree) -> None:
        diagram = self.diagram
        if tree.diagram != diagram:
            raise DifferentDiagram("the tree belongs to a different diagram")
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


def geometric_parameters(tree: SpanningTree,
                         chord_l: Mapping[tuple[int, int], FieldElement] | None = None
                         ) -> ParameterSystem:
    """The parameter system of the classical geometric representation.

    Every edge takes the k = 1 root 4*cos^2(pi/m), and the chord scalars
    are those of the symmetric geometric Cartan matrix
    c_st = -2*cos(pi/m_st) rescaled to the tree's convention.  Scalars
    given in chord_l, keyed by chords of the tree, are kept: the tree walk
    runs only when some chord is left out, and only for those chords.
    """
    diagram = tree.diagram
    ctx = field_context(conductor_for(diagram))
    chords = dict(chord_l or {})
    missing = [chord for chord in tree.chords if chord not in chords]
    if missing:
        _, geometric = tree_rescaling(
            tree, lambda s, t: -ctx.cos_element(1, 2 * diagram.edge_label(s, t)),
            ctx.one, missing)
        chords.update(geometric)
    return ParameterSystem(diagram, {edge: 1 for edge in diagram.edges}, chords)


@dataclass(frozen=True)
class CartanMatrixData:
    """Cartan matrix entries (c[s][t] with s(a_t) = a_t - c_st a_s), with
    its determinant, the discriminant of the representation, and its rank,
    both from one elimination made when either is first read."""

    entries: Matrix

    @cached_property
    def _eliminated(self) -> tuple[FieldElement, int]:
        return linalg.determinant_and_rank(self.entries[0][0].ctx, self.entries)

    @property
    def discriminant(self) -> FieldElement:
        return self._eliminated[0]

    @property
    def rank(self) -> int:
        return self._eliminated[1]


@dataclass(frozen=True, eq=False)
class ReflectionRep:
    """Generator matrices over an exact cyclotomic field, with provenance."""

    tree: SpanningTree
    params: ParameterSystem
    generators: tuple[Matrix, ...]

    @property
    def ctx(self) -> FieldContext:
        return self.params.ctx

    @property
    def diagram(self) -> Diagram:
        return self.tree.diagram

    @property
    def rank(self) -> int:
        return self.diagram.rank

    @property
    def root(self) -> int:
        return self.tree.root

    @cached_property
    def generator_rows(self) -> Matrix:
        """linalg.generator_rows, read once; ValueError for another shape."""
        rows = linalg.generator_rows(self.ctx, self.generators)
        if rows is None:
            raise ValueError("a generator is not I - e_s (x) c_s with c_ss = 2")
        return rows

    @cached_property
    def tree_products(self) -> tuple[FieldElement, ...]:
        """The products of the alphas from the root down to each vertex:
        the scales of tree_rescaling for c(v, parent) = -alpha."""
        alpha = self.params.alpha
        return tuple(tree_rescaling(self.tree, lambda s, t: -alpha(s, t), self.ctx.one, ())[0])

    def word_matrix(self, word: Sequence[int]) -> list[list[FieldElement]]:
        """The product of the generators along the word, made from its right
        end, each factor read only where it differs from I; I for the empty word."""
        if not word:
            return linalg.identity(self.ctx, self.rank)
        acc = [list(row) for row in self.generators[word[-1]]]
        for s in reversed(word[:-1]):
            acc = linalg.near_identity_mul(self.ctx, self.generators[s], acc)
        return acc

    def word_trace(self, word: Sequence[int]) -> FieldElement:
        """The trace of the word matrix, without its last product: with A
        the product of all but the last generator M, tr(A M) is tr A plus
        A_jk (M - I)_kj over the nonzero entries of M - I; the rank for
        the empty word."""
        ctx = self.ctx
        if not word:
            return ctx.from_rational(self.rank)
        a = self.word_matrix(word[:-1])
        one = ctx.one
        acc = linalg.trace(ctx, a)
        for k, row in enumerate(self.generators[word[-1]]):
            for j, e in enumerate(row):
                if j == k:
                    if e == one:
                        continue
                    e = e - one
                elif not e:
                    continue
                acc = acc + a[j][k] * e
        return acc

    def __str__(self) -> str:
        return (f"ReflectionRep(rank={self.rank}, N={self.ctx.N}, "
                f"root={self.diagram.labels[self.root]})")


def _reflected_rows(tree: SpanningTree, params: ParameterSystem) -> list[list[FieldElement]]:
    """Row s of generator s, e_s - (Cartan row s): -1 on the diagonal and
    -c_st as the parameters hold it, alpha and 1 on a tree edge (the alpha
    on the row of the endpoint nearer the root) and the chord pair."""
    diagram = tree.diagram
    n = diagram.rank
    one, zero = params.ctx.one, params.ctx.zero
    minus_one = -one
    rows = [[minus_one if t == s else zero for t in range(n)] for s in range(n)]
    for s, t in diagram.edges:
        if tree.is_tree_edge(s, t):
            low, high = (s, t) if tree.parent[t] == s else (t, s)
            rows[low][high] = params.alpha(s, t)
            rows[high][low] = one
        else:
            rows[s][t], rows[t][s] = params.chord_pair(s, t)
    return rows


def cartan_rows(tree: SpanningTree, params: ParameterSystem
                ) -> list[list[FieldElement]]:
    """The Cartan rows c_s: e_s minus row s of generator s."""
    return [[1 - x if t == s else -x for t, x in enumerate(row)]
            for s, row in enumerate(_reflected_rows(tree, params))]


def build(tree: SpanningTree, params: ParameterSystem) -> ReflectionRep:
    """The reflection representation determined by the tree and parameters:
    generator s is the identity with row s replaced by e_s - (Cartan row s),
    written straight from the parameters (linalg.identity_with_rows)."""
    params.validate_for(tree)
    rows = _reflected_rows(tree, params)
    return ReflectionRep(tree, params, linalg.identity_with_rows(params.ctx, rows))


def geometric_representation(diagram: Diagram, root: int | str = 0) -> ReflectionRep:
    tree = spanning_tree(diagram, root)
    return build(tree, geometric_parameters(tree))


def cartan_matrix(rep: ReflectionRep) -> CartanMatrixData:
    """Cartan matrix read off the generator matrices: generator s is
    I - e_s * (Cartan row s) (ReflectionRep.generator_rows)."""
    return CartanMatrixData(tuple(tuple(-x for x in row) for row in rep.generator_rows))


# ---------------------------------------------------------------------------
# equivalences: root change, tree change and the equivalence decision
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
        """Exact check of source_gen * g = g * target_gen (linalg.intertwines)."""
        return linalg.intertwines(self.source.ctx, self.source.generator_rows,
                                  self.target.generator_rows, self.matrix)


def tree_rescaling(tree: SpanningTree, c: Callable[[int, int], FieldElement],
                   one: FieldElement, chords: Sequence[tuple[int, int]] | None = None
                   ) -> tuple[list[FieldElement], dict[tuple[int, int], FieldElement]]:
    """The basis scales and the scalars of the given chords (all of the
    tree's by default; either direction) that put the Cartan entries
    c(s, t) of a representation on the tree's diagram into the tree's
    convention; only the entries on diagram edges are read.

    Rescaling the basis a_s -> scale_s * a_s turns c_st into
    c_st * scale_t / scale_s.  Walking the tree parents before children,
    scale_root = 1 and scale_v = -c_(v,parent) * scale_parent give every
    tree edge the entry -1 from its deeper endpoint; the chord (s, t) then
    has the scalar l = -c_st * scale_t / scale_s, each scale_s inverted once.
    """
    scale = [one] * tree.diagram.rank
    for v in sorted(range(tree.diagram.rank), key=tree.depth.__getitem__):
        p = tree.parent[v]
        if p is not None:
            scale[v] = -c(v, p) * scale[p]
    inverses: dict[int, FieldElement] = {}
    scalars = {}
    for s, t in (tree.chords if chords is None else chords):
        if s not in inverses:
            inverses[s] = scale[s].invert()
        scalars[(s, t)] = -c(s, t) * scale[t] * inverses[s]
    return scale, scalars


def tree_change_intertwiner(rep: ReflectionRep, new_tree: SpanningTree) -> Intertwiner:
    """The diagonal intertwiner to the representation on new_tree (rooted
    at new_tree.root, with rep's alpha indices), 1 at the new root."""
    if new_tree.diagram != rep.diagram:
        raise DifferentDiagram("target tree belongs to a different diagram")
    c = cartan_matrix(rep).entries
    scale, chords = tree_rescaling(new_tree, lambda s, t: c[s][t], rep.ctx.one)
    params = ParameterSystem(rep.diagram, dict(rep.params.alpha_index), chords)
    return Intertwiner(rep, build(new_tree, params), tuple(scale))


def equivalence_intertwiner(rep: ReflectionRep, other: ReflectionRep
                            ) -> Intertwiner | None:
    """The intertwiner from rep to other (rep(s) g = g other(s)), 1 at
    other's root, or None when the two are inequivalent.

    g maps e_s, which spans the -1 eigenspace of other(s), into that of
    rep(s), also spanned by e_s; so g is diagonal, and the tree edges of
    other.tree fix it up to a scalar as rep's rescaling to that tree.  The
    pair is equivalent exactly when the alpha indices agree, the rescaling
    gives other's chord scalars, and g passes the exact check.
    """
    if other.diagram != rep.diagram:
        raise DifferentDiagram("representations live on different diagrams")
    alpha1, alpha2 = rep.params.alpha_index, other.params.alpha_index
    if any(alpha1[e] != alpha2[e] for e in rep.diagram.edges):
        return None
    c = cartan_matrix(rep).entries
    scale, chords = tree_rescaling(other.tree, lambda s, t: c[s][t], rep.ctx.one)
    if any(other.params.chord_l[e] != l for e, l in chords.items()):
        return None
    moved = Intertwiner(rep, other, tuple(scale))
    return moved if moved.verify() else None


def root_change_intertwiner(rep: ReflectionRep, new_root: int | str) -> Intertwiner:
    """The tree change to rep's tree rooted at new_root."""
    if isinstance(new_root, str):
        new_root = rep.diagram.vertex_index(new_root)
    return tree_change_intertwiner(rep, rep.tree.with_root(new_root))
