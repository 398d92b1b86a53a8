"""Invariant sesquilinear forms and the dual (contragredient) representation.

The space of forms invariant under a built representation, sesquilinear
with respect to a field automorphism, has dimension at most one.  Existence
is decided by a constructive criterion on the parameters (the automorphism
squares to the identity, fixes every edge coefficient, and balances every
chord against the tree products of its endpoints); the same dimension is
recomputed independently from the invariance system, by a modular rank
bound closed by the exactly checked Gram matrix or by exact elimination,
and the CLI and the test suite compare the two.  When the form exists its
Gram matrix is assembled in closed form from the tree products, which,
with the adapted dual's chord entries, come from construction.tree_rescaling.
The invariance system has n unknowns, as an invariant G has column s equal
to lambda_s c_s^T; the reduction holds mod every odd prime too, so its
route is that of the n^2 unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .construction import CartanMatrixData, ReflectionRep, cartan_matrix, tree_rescaling
from .cyclotomic import FieldContext, FieldElement

Matrix = Sequence[Sequence[FieldElement]]


class NoInvariantForm(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Galois automorphism of the ambient real cyclotomic field."""

    ctx: FieldContext
    index: int          # canonical: min(j mod N, N - j mod N)

    @classmethod
    def identity(cls, ctx: FieldContext) -> "Automorphism":
        return cls(ctx, 1)

    @classmethod
    def from_index(cls, ctx: FieldContext, j: int) -> "Automorphism":
        return cls(ctx, ctx.galois_index(j))

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.ctx.galois(self.index, x)

    def apply_matrix(self, m: Matrix) -> list[list[FieldElement]]:
        return [[self(x) for x in row] for row in m]

    @property
    def is_identity(self) -> bool:
        return self.index == 1

    def squared(self) -> "Automorphism":
        return Automorphism(self.ctx, self.ctx.galois_index(self.index * self.index))

    def is_involution(self) -> bool:
        return self.squared().is_identity

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.ctx is other.ctx and self.index == other.index

    def __repr__(self) -> str:
        return f"Automorphism(j={self.index}, N={self.ctx.N})"


def involutive_automorphisms(ctx: FieldContext) -> list[Automorphism]:
    """All Galois automorphisms with square the identity, identity first."""
    import math

    out = []
    seen = set()
    for j in range(1, ctx.N + 1):
        if math.gcd(j, ctx.N) != 1:
            continue
        canon = ctx.galois_index(j)
        if canon in seen:
            continue
        seen.add(canon)
        candidate = Automorphism(ctx, canon)
        if candidate.is_involution():
            out.append(candidate)
    out.sort(key=lambda a: a.index)
    return out


def tree_product(rep: ReflectionRep, s: int) -> FieldElement:
    """Product of the edge coefficients along the tree path from the root
    to s; the empty product (s = root) is 1 (ReflectionRep.tree_products)."""
    return rep.tree_products[s]


@dataclass(frozen=True)
class FormExistence:
    exists: bool
    obstruction: Optional[str] = None        # "not_involution" | "moves_alpha" | "chord_balance"
    detail: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.exists


def form_exists(rep: ReflectionRep, theta: Automorphism) -> FormExistence:
    """Constructive criterion for a nonzero invariant theta-sesquilinear form.

    Checks, in order: theta is an involution; theta fixes every chosen edge
    coefficient; and every chord (s, t) balances, theta(l_st) P_s = l_ts P_t
    with P the tree products and l_st, the scalar of s -> t, entry (s, t)
    of generator s: the balance around the chord's circuit, times the
    nonzero tree product of its entry.
    """
    params, gens = rep.params, rep.generators
    if not theta.is_involution():
        return FormExistence(False, "not_involution", (theta.index,))
    for edge in rep.diagram.edges:
        alpha = params.alpha(*edge)
        if theta(alpha) != alpha:
            return FormExistence(False, "moves_alpha", edge)
    products = rep.tree_products
    for s, t in rep.tree.chords:
        if theta(gens[s][s][t]) * products[s] != gens[t][t][s] * products[t]:
            return FormExistence(False, "chord_balance", (s, t))
    return FormExistence(True)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Gram matrix of the invariant form in the adapted basis, normalized
    so the root diagonal entry is 2."""

    entries: tuple[tuple[FieldElement, ...], ...]
    theta: Automorphism

    def is_zero(self) -> bool:
        return linalg.is_zero_matrix(self.entries)

    def is_theta_hermitian(self) -> bool:
        """theta(G)^T = G, exactly."""
        return linalg.mat_eq(linalg.transpose(self.theta.apply_matrix(self.entries)),
                             self.entries)


def build_form(rep: ReflectionRep, theta: Automorphism,
               existence: Optional[FormExistence] = None) -> GramMatrix:
    """Assemble the Gram matrix: diagonal twice the tree product, tree edges
    minus the deeper endpoint's tree product, chords from the chord scalars;
    `existence` is the criterion's verdict, when the caller has it already."""
    if existence is None:
        existence = form_exists(rep, theta)
    if not existence:
        raise NoInvariantForm(
            f"no invariant form: {existence.obstruction} at {existence.detail}")
    ctx = rep.ctx
    n = rep.rank
    products = rep.tree_products
    gram = [[ctx.zero] * n for _ in range(n)]
    for s in range(n):
        gram[s][s] = 2 * products[s]
    for s, t in rep.diagram.edges:
        if rep.tree.is_tree_edge(s, t):
            high = t if rep.tree.parent[t] == s else s
            gram[s][t] = gram[t][s] = -products[high]
        else:
            forward = rep.generators[s][s][t]
            gram[s][t] = -theta(forward) * products[s]
            gram[t][s] = -forward * products[s]
    return GramMatrix(linalg.mat_freeze(gram), theta)


def gram_intertwines(rep: ReflectionRep, gram: GramMatrix) -> bool:
    """Exact check that G is nonzero and M^T G = G theta(M) for every
    generator M, by linalg.intertwines."""
    rows = rep.generator_rows
    return linalg.intertwines(rep.ctx, rows, gram.theta.apply_matrix(rows), gram.entries,
                              transposed=True)


def verify_invariance(rep: ReflectionRep, gram: GramMatrix) -> bool:
    """Exact check: M^T G theta(M) = G for every generator, plus
    theta-hermitian symmetry theta(G)^T = G.  A generator
    M = I - e_s (x) c_s with c_ss = 2 (ReflectionRep.generator_rows) is an
    involution, and so is theta(M), so the first is M^T G = G theta(M),
    the check of gram_intertwines.  The zero matrix passes vacuously;
    callers should treat it as degenerate, not as a form."""
    return gram.is_theta_hermitian() and (gram.is_zero() or gram_intertwines(rep, gram))


def gram_cartan_relation(rep: ReflectionRep, gram: GramMatrix) -> bool:
    """Bilinear case factorization: G = diag(beta_ss / 2) * Cartan, exactly."""
    if not gram.theta.is_identity:
        raise ValueError("the factorization check applies to the bilinear case")
    data = cartan_matrix(rep)
    n = rep.rank
    half = [gram.entries[i][i] * Fraction(1, 2) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if gram.entries[i][j] != half[i] * data.entries[i][j]:
                return False
    return True


def form_space_dimension(rep: ReflectionRep, theta: Automorphism,
                         witness: Optional[bool] = None) -> tuple[int, str]:
    """Dimension of the space of invariant theta-sesquilinear forms, and
    the route that decided it (see linalg.reduced_dimension).

    G is invariant when M^T G theta(M) = G for every generator M.  The
    generators are involutions, so theta(M)^2 = theta(M^2) = I and the
    condition is the intertwining system M^T G = G theta(M).  A rank over
    F_p bounds the dimension from above, independently of the constructive
    criterion; the criterion's Gram matrix, when it claims a form, counts
    for the lower bound 1 only if it passes an exact check.  A wrong
    "form" verdict therefore cannot raise the lower bound, and a wrong "no
    form" verdict leaves the bounds apart, so the dimension falls back to
    exact elimination and still disagrees with the criterion.  A caller
    that has checked the criterion's Gram matrix already passes the verdict
    of gram_intertwines on it as `witness` (False when the criterion finds
    no form); without it the criterion and the check run here.  With
    M^T = I - c_s^T (x) e_s and theta(M) = I - e_s (x) theta(c_s),
    G e_s = lambda_s c_s^T: n unknowns, one equation
    c_ts lambda_t = theta(c_st) lambda_s per s != t where c_ts or c_st is
    nonzero, passed as (y_ts, theta(y_st)) for the rows y_s = -c_s, so
    theta maps only those entries.  As c_ss = 2 is a unit mod every odd
    prime, the nullity mod p, and so the route, is that of the n^2-unknown
    system.
    """
    if witness is None:
        existence = form_exists(rep, theta)
        witness = bool(existence) and \
            gram_intertwines(rep, build_form(rep, theta, existence))
    y, n = rep.generator_rows, rep.rank
    return linalg.reduced_dimension(rep.ctx, n, {
        (s, t): (y[t][s], theta(y[s][t])) for s in range(n) for t in range(n)
        if s != t and (y[t][s] or y[s][t])}, int(witness))


# ---------------------------------------------------------------------------
# dual representation
# ---------------------------------------------------------------------------

class AdaptedBasisMismatch(ArithmeticError):
    """The closed-form adapted generators fail the exact intertwining check."""


@dataclass(frozen=True, eq=False)
class DualRep:
    """Action on the dual space, with the adapted basis when it exists.

    dual_generators act on dual-basis coordinates (transposes of the
    primal involutions).  adapted_rows are the images of the Cartan rows;
    scaled by the tree products they give the adapted basis, and when the
    discriminant is nonzero the generators rewritten in that basis are
    again a reflection representation on the same spanning tree,
    I - e_s * (row s of P^-1 C^T P) with P = diag(scalings): its tree
    entries are those of the primal, and each chord's two scalars are
    swapped and rescaled by a tree-product ratio (dual_representation).
    """

    primal: ReflectionRep
    dual_generators: tuple
    cartan: CartanMatrixData
    scalings: tuple                     # tree products, one per vertex
    degenerate: bool
    adapted_generators: Optional[tuple]  # None when degenerate

    @property
    def ctx(self) -> FieldContext:
        return self.primal.ctx

    @property
    def adapted_rows(self) -> Matrix:
        """A'_i, dual-basis coordinates."""
        return self.cartan.entries

    @property
    def discriminant(self) -> FieldElement:
        return self.cartan.discriminant

    def adapted_rank(self) -> int:
        """Rank of the adapted rows, the rank of C from the elimination that
        gave the discriminant."""
        return self.cartan.rank


def adapted_generators(rep: ReflectionRep, chord_entries: dict) -> tuple:
    """The dual generators in the adapted basis B = C^T P, P = diag(tree
    products), given entry (s, t) of row s for each chord in each direction.

    The dual generator D_s = I - (column s of C^T) e_s^T, and column s of
    C^T is B e_s / p_s, so B^-1 D_s B = I - e_s (row s of B) / p_s: row s
    has entries delta_sj - c_js p_j / p_s, every other row is that of I.
    On the tree that row is row s of generator s: -1 at s, 1 at the tree
    parent (c_(parent, s) = -alpha_e and p_s = alpha_e p_parent) and
    alpha_e at each tree child (c_(child, s) = -1 and p_child = alpha_e p_s).
    Only a chord (s, t) needs a ratio, -c_ts p_t / p_s: the scalar that
    tree_rescaling gives the chord for the transposed Cartan entries.
    """
    rows = [list(gen[s]) for s, gen in enumerate(rep.generators)]
    for (s, t), x in chord_entries.items():
        rows[s][t] = x
    return linalg.identity_with_rows(rep.ctx, rows)


def dual_representation(rep: ReflectionRep) -> DualRep:
    """Contragredient action plus the adapted basis data.

    Generators are involutions, so inverse-transpose is plain transpose.
    The candidate adapted basis vectors are the Cartan rows scaled by tree
    products; they form a basis exactly when the discriminant is nonzero,
    and the degenerate case is flagged with the rank evidence instead.
    One tree_rescaling of the transposed Cartan entries gives the tree
    products p as its scales and, only when the discriminant is nonzero,
    each chord's adapted entries -c_ts p_t / p_s and -c_st p_s / p_t as its
    scalars.  The adapted generators come in closed form (adapted_generators)
    and are accepted only by the exact check D_s B = B A'_s for every s,
    which fixes them since B is invertible; a failure raises
    AdaptedBasisMismatch.  It reads each A'_s from its row s once the other
    rows are checked to be the identity's (linalg.generator_rows), and
    compares the rank-one differences D_s - I and A'_s - I (linalg.intertwines).
    """
    ctx = rep.ctx
    n = rep.rank
    duals = tuple(linalg.mat_freeze(linalg.transpose(g)) for g in rep.generators)
    data = cartan_matrix(rep)
    rows = data.entries
    degenerate = data.discriminant.is_zero()
    chords = () if degenerate else [e for c in rep.tree.chords for e in (c, c[::-1])]
    scale, chord_entries = tree_rescaling(rep.tree, lambda s, t: rows[t][s], ctx.one, chords)
    products = tuple(scale)
    adapted = None
    if not degenerate:
        adapted = adapted_generators(rep, chord_entries)
        adapted_rows = linalg.generator_rows(ctx, adapted)
        basis_cols = [[products[j] * rows[j][i] for j in range(n)] for i in range(n)]
        if adapted_rows is None or not linalg.intertwines(
                ctx, rep.generator_rows, adapted_rows, basis_cols, transposed=True):
            raise AdaptedBasisMismatch(
                "adapted generators fail the exact check D_s B = B A'_s")
    return DualRep(rep, duals, data, products, degenerate, adapted)


def dual_chord_coefficients_match(dual: DualRep) -> bool:
    """Check the chord coefficients of the adapted dual action.

    For a chord (s, t), the generator t sends A_s to
    A_s + (prod(s) / prod(t)) * l * A_t where l is the scalar attached to
    the s->t direction (the one carried by the Cartan entry c_st): the
    dual action swaps a chord's two scalars, rescaled by the tree-product
    ratio.  The reverse scalar is alpha_e / l, so with p the tree products
    both entries are compared cross-multiplied, gen_t[t][s] p_t = p_s l and
    gen_s[s][t] p_s l = p_t alpha_e, with no inversion.  True when every
    chord matches exactly.
    """
    rep = dual.primal
    if dual.degenerate:
        raise ValueError("no adapted basis in the degenerate case")
    p = dual.scalings
    for s, t in rep.tree.chords:
        forward = rep.params.chord_l[(s, t)]
        alpha = rep.params.alpha(s, t)
        gen_t = dual.adapted_generators[t]
        gen_s = dual.adapted_generators[s]
        if gen_t[t][s] * p[t] != p[s] * forward or \
                gen_s[s][t] * p[s] * forward != p[t] * alpha:
            return False
    return True
