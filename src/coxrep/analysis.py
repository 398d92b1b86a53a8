"""Reflection-pair analytics and representation-level verification.

A reflection is held as its exact rank-one factorization M = I + a (x) phi
with phi(a) = -2, so the pair coefficients phi_r(a_s) and phi_s(a_r) are
dot products.  Everything else is an exact cross-check: pair orders are
decided both by polynomial classification of the Cartan coefficient and by
literal powers of the 2 x 2 matrix by which rs acts on the plane of the
directing vectors, the quadratic factor of each characteristic
polynomial, read off the nonzero block of rs - I (2 x 2 for built
generators), is compared against the closed form in the Cartan
coefficient, the commutant dimension is certified by two bounds that
must meet, and circuit traces against the closed-form trace.
Disagreement between redundant routes raises, since it can only mean an
arithmetic bug.  A matrix commuting with every I - e_s (x) c_s is
diagonal, so the commutant system has n unknowns; the reduction holds
mod every odd prime too, so its route is that of the n^2 unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from . import linalg
from .cartanpoly import OrderClass, classify_pair
from .construction import ReflectionRep, equivalence_intertwiner
from .cyclotomic import FieldContext, FieldElement, prime_factors
from .graph import chord_circuit

Matrix = Sequence[Sequence[FieldElement]]


class OrderMismatch(ArithmeticError):
    """Polynomial classification and matrix powers disagree."""


class EquivalenceViolation(ArithmeticError):
    """The unipotency conditions failed to have consistent truth values."""


@dataclass(frozen=True, eq=False)
class ReflectionData:
    """A verified reflection M = I + directing (x) form: the directing
    vector spans the image of M - I and has first nonzero coordinate 1,
    the form's kernel is the fixed hyperplane, and form . directing = -2."""

    ctx: FieldContext
    matrix: Matrix
    directing: tuple[FieldElement, ...]
    form: tuple[FieldElement, ...]


def _minus_identity(matrix: Matrix) -> list[list[FieldElement]]:
    return [[x - 1 if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(matrix)]


def _dot(ctx: FieldContext, u: Sequence[FieldElement],
         v: Sequence[FieldElement]) -> FieldElement:
    """The sum of the products of nonzero pairs (linalg.element_sum)."""
    return linalg.element_sum(ctx, (x * y for x, y in zip(u, v) if x and y))


def is_reflection(ctx: FieldContext, matrix: Matrix) -> Optional[ReflectionData]:
    """ReflectionData when M - I is nonzero and equals directing (x) form,
    entry by entry, with form . directing = -2; None otherwise.  Then
    M^2 = I + (2 + form . directing)(M - I) = I, and these are exactly the
    involutions with M - I of rank one.  The directing vector is the first
    nonzero column of M - I scaled to first nonzero coordinate 1, at row
    i0, and the form is row i0 of M - I.  A column with one nonzero entry
    scales to the unit vector e_i0 with no inversion: a built generator
    reports its basis vector that way."""
    shifted = _minus_identity(matrix)
    col = next((col for col in zip(*shifted) if any(col)), None)
    if col is None:
        return None
    support = [i for i, x in enumerate(col) if x]
    i0 = support[0]
    if len(support) == 1:
        zero = ctx.zero
        directing = tuple(ctx.one if i == i0 else zero for i in range(len(col)))
    else:
        inv = col[i0].invert()
        directing = tuple(x * inv for x in col)
    form = tuple(shifted[i0])
    if not all(all(x == d * f for x, f in zip(row, form)) if d else not any(row)
               for d, row in zip(directing, shifted)):
        return None
    if _dot(ctx, form, directing) != -2:
        return None
    return ReflectionData(ctx, linalg.mat_freeze(matrix), directing, form)


def _directing_dependent(r: ReflectionData, s: ReflectionData) -> bool:
    # both have first nonzero coordinate 1: parallel exactly when equal
    return r.directing == s.directing


def pair_coefficients(r: ReflectionData, s: ReflectionData
                      ) -> Optional[tuple[FieldElement, FieldElement]]:
    """The two cross-coefficients (c(r,a;s,b), c(s,b;r,a)) when the
    directing vectors are independent, None when they are parallel:
    r(b) = b + (form_r . b) a, so they are form_r . b and form_s . a."""
    if _directing_dependent(r, s):
        return None
    return _dot(r.ctx, r.form, s.directing), _dot(r.ctx, s.form, r.directing)


def cartan_coefficient(r: ReflectionData, s: ReflectionData) -> FieldElement:
    """Product of the two cross-coefficients; 4 for parallel directing
    vectors (the product is then unipotent)."""
    coeffs = pair_coefficients(r, s)
    if coeffs is None:
        return r.ctx.from_rational(4)
    return coeffs[0] * coeffs[1]


def _matrix_order_check(ctx: FieldContext, t: Matrix, n: int) -> bool:
    """Exact power check on the 2 x 2 matrix T of a pair product (see
    product_analysis): det T = 1, T^n = I and T^(n/q) != I for each prime
    q | n.  With det T = 1, adj(T^h) is the inverse of T^h, so for
    h = floor(n/2), T^n = I exactly when T^(n-h) = adj(T^h); n/q <= h.
    Each power is made once, over the squares T^(2^i), i < bitlength(h).
    Without det T = 1, T = 2I would pass n = 2; the T of a pair has
    det T = pq - (C - 1) = 1."""
    def mul(a: Matrix, b: Matrix) -> Matrix:
        return tuple(tuple(x * b[0][j] + y * b[1][j] for j in range(2)) for x, y in a)

    (a, b), (c, d) = t
    if a * d - b * c != 1:
        return False
    h = n // 2
    squares = [t]
    for _ in range(h.bit_length() - 1):
        squares.append(mul(squares[-1], squares[-1]))
    eye = ((1, 0), (0, 1))

    def power(k: int) -> Matrix:
        factors = [sq for i, sq in enumerate(squares) if k >> i & 1]
        return reduce(mul, factors) if factors else eye

    powers = {k: power(k) for k in {h} | {n // q for q in prime_factors(n)}}
    (a, b), (c, d) = powers[h]
    rest = mul(powers[h], t) if n % 2 else powers[h]
    return rest == ((d, -b), (-c, a)) and eye not in [powers[n // q] for q in prime_factors(n)]


def _is_unipotent(ctx: FieldContext, product: Matrix) -> bool:
    shifted = _minus_identity(product)
    acc = shifted
    # exact for any factor, and powers of one matrix commute; rs - I is near
    # zero, not near I, and its zero rows add only the -1 diagonal of (rs - I) - I
    for _ in range(len(product) - 1):
        acc = linalg.near_identity_mul(ctx, shifted, acc)
    return linalg.is_zero_matrix(acc) and not linalg.is_identity(ctx, product)


@dataclass(frozen=True, eq=False)
class ProductAnalysis:
    """A pair product's order class, Cartan coefficient C and rank-two
    quadratic X^2 - (e1 + 2) X + (e1 + e2 + 1), which the analysis has
    found equal to X^2 - (C - 2) X + 1; char_poly, the quadratic times
    (X - 1)^(n-2), is expanded only when read."""

    order_class: OrderClass
    quadratic: tuple[FieldElement, ...]
    dimension: int
    closed_form_matches: Optional[bool]   # None when directing vectors are parallel
    coefficient: FieldElement

    @property
    def char_poly(self) -> tuple[FieldElement, ...]:
        return _times_x_minus_one(self.quadratic, self.dimension - 2)


def product_analysis(r: ReflectionData, s: ReflectionData,
                     max_order: int | None = None) -> ProductAnalysis:
    """Order class of the pair product, cross-validated by matrix powers,
    with its characteristic polynomial (X-1)^(n-2) q(X), q read off the
    nonzero block of M = rs - I (_pair_block), checked against the closed
    form (X-1)^(n-2) (X^2 - (C-2) X + 1) in the Cartan coefficient C
    (C = 4 for parallel directing vectors, where the product has passed
    the unipotency check, the one use of the n x n product).  K[X] has no
    zero divisors, so the two agree exactly when q = X^2 - (C-2) X + 1,
    and only the quadratics are compared.  The powers are 2 x 2: with p,
    q the pair coefficients, rs = I + U W for U = [a_r, a_s],
    W = [phi_r + p phi_s; phi_s], and (rs) U = U T,
    T = [[C - 1, -p], [q, -1]].  For C != 4, det(W U) = 4 - C is nonzero,
    the space is im U + ker W, and rs fixes ker W, so (rs)^k = I exactly
    when T^k = I; a finite class with C = 4 raises."""
    ctx = r.ctx
    n = len(r.matrix)
    coeffs = pair_coefficients(r, s)
    if coeffs is None:
        order_class = OrderClass.unipotent()
        coefficient = ctx.from_rational(4)
    else:
        order_class = classify_pair(coeffs[0], coeffs[1], max_order)
        coefficient = coeffs[0] * coeffs[1]
    # independent route: exact matrix powers
    if order_class.kind in ("commuting", "finite"):
        expected = order_class.finite_order
        t = ((coefficient - 1, -coeffs[0]), (coeffs[1], -ctx.one))
        if coefficient == 4 or not _matrix_order_check(ctx, t, expected):
            raise OrderMismatch(
                f"classified order {expected} but matrix powers disagree")
    elif order_class.kind == "unipotent":
        if not _is_unipotent(ctx, linalg.near_identity_mul(ctx, r.matrix, s.matrix)):
            raise OrderMismatch("classified unipotent but (rs - I)^n != 0")
    quadratic = _pair_quadratic(ctx, _pair_block(r, s))
    if quadratic != (ctx.one, 2 - coefficient, ctx.one):     # X^2 - (C-2) X + 1
        raise OrderMismatch("characteristic polynomial differs from closed form")
    return ProductAnalysis(order_class, quadratic, n,
                           None if coeffs is None else True, coefficient)


def _pair_block(r: ReflectionData, s: ReflectionData) -> list[list[FieldElement]]:
    """The square block of rs on S, the union of supp(a_r) and supp(a_s),
    each entry the sum of r_ik s_kj over the nonzero terms.  A row of
    r - I vanishes outside supp(a_r), and rs - I = (r - I) s + (s - I), so
    rs - I is zero outside the rows in S: its trace and principal minors
    are those of the block minus I.  For built generators it is 2 x 2."""
    support = sorted({i for data in (r, s) for i, x in enumerate(data.directing) if x})
    cols = [[row[j] for row in s.matrix] for j in support]
    return [[_dot(r.ctx, r.matrix[i], col) for col in cols] for i in support]


def _times_x_minus_one(poly: Sequence[FieldElement], k: int) -> tuple[FieldElement, ...]:
    """poly * (X - 1)^k, coefficients lowest first."""
    acc = tuple(poly)
    for _ in range(k):
        acc = (-acc[0], *(a - b for a, b in zip(acc, acc[1:])), acc[-1])
    return acc


def _pair_quadratic(ctx: FieldContext, product: Matrix) -> tuple[FieldElement, ...]:
    """The quadratic factor X^2 - (e1 + 2) X + (e1 + e2 + 1) of det(XI - rs),
    coefficients lowest first, from a square block of rs that holds every
    nonzero row of M = rs - I (the block of _pair_block, or all of rs),
    where M has rank at most 2: its characteristic polynomial is
    Y^(n-2) (Y^2 - e1 Y + e2) with e1 = tr M, e2 the sum of the principal
    2 x 2 minors of M, and Y = X - 1.  A minor through a zero row of M
    vanishes, so only the nonzero rows enter e2."""
    m = _minus_identity(product)
    e1 = linalg.trace(ctx, m)
    rows = [i for i in range(len(m)) if any(m[i])]
    e2 = linalg.element_sum(ctx, (m[i][i] * m[j][j] - m[i][j] * m[j][i]
                                  for i in rows for j in rows if i < j))
    # (X-1)^2 - e1 (X-1) + e2 = X^2 - (e1 + 2) X + (e1 + e2 + 1)
    return (e1 + e2 + 1, -(e1 + 2), ctx.one)


@dataclass(frozen=True)
class UnipotentReport:
    """Truth values of the four unipotency conditions for a reflection pair."""

    unipotent: bool                 # (rs - I)^n = 0, rs != I
    coefficient_is_four: bool
    plane_meets_both_hyperplanes: bool
    hyperplanes_equal: bool
    directing_independent: bool

    def as_dict(self) -> dict:
        return {
            "unipotent": self.unipotent,
            "coefficient_is_four": self.coefficient_is_four,
            "plane_meets_both_hyperplanes": self.plane_meets_both_hyperplanes,
            "hyperplanes_equal": self.hyperplanes_equal,
            "directing_independent": self.directing_independent,
        }


def unipotent_equivalences(r: ReflectionData, s: ReflectionData) -> UnipotentReport:
    """Evaluate the four unipotency conditions exactly and enforce the
    expected equivalence pattern (all four for independent directing
    vectors; the two hyperplane conditions drop in the parallel case)."""
    ctx = r.ctx
    if linalg.mat_eq(r.matrix, s.matrix):
        raise ValueError("the two reflections must be distinct")
    product = linalg.near_identity_mul(ctx, r.matrix, s.matrix)
    cond1 = _is_unipotent(ctx, product)
    cond2 = cartan_coefficient(r, s) == 4
    independent = not _directing_dependent(r, s)
    # condition 3: a nonzero x = xa*a + xb*b with form_r . x = form_s . x = 0,
    # the system [[-2, p], [q, -2]] in the dot products p = form_r . b and
    # q = form_s . a: solvable exactly when pq = 4, then p != 0 and (p, 2)
    # spans the solutions; parallel directing vectors can still give x = 0
    p, q = _dot(ctx, r.form, s.directing), _dot(ctx, s.form, r.directing)
    cond3 = p * q == 4 and any(p * a + 2 * b for a, b in zip(r.directing, s.directing))
    # condition 4: equal fixed hyperplanes, the kernels of the two nonzero
    # forms: the 2 x 2 minors through a nonzero coordinate of form_r vanish
    i0 = next(i for i, x in enumerate(r.form) if x)
    cond4 = all(r.form[i0] * y == s.form[i0] * x for x, y in zip(r.form, s.form))
    if cond1 != cond2:
        raise EquivalenceViolation("unipotency and coefficient-4 disagree")
    if independent and not (cond1 == cond3 == cond4):
        raise EquivalenceViolation(
            "conditions 1-4 must agree for independent directing vectors")
    if not independent and (cond3 or cond4):
        raise EquivalenceViolation(
            "parallel directing vectors force distinct hyperplanes")
    return UnipotentReport(cond1, cond2, cond3, cond4, independent)


@dataclass(frozen=True)
class PairCheck:
    s: int
    t: int
    expected: int
    computed: Optional[int]     # None for infinite/indeterminate
    passed: bool
    # the pair's ProductAnalysis; None on the diagonal and when a
    # generator is not a reflection
    analysis: ProductAnalysis | None = None

    def as_dict(self) -> dict:
        return {"pair": [self.s, self.t], "expected": self.expected,
                "computed": self.computed, "passed": self.passed}


@dataclass(frozen=True)
class GoodMorphismReport:
    checks: tuple[PairCheck, ...]
    passed: bool

    def as_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}


def verify_good_morphism(rep: ReflectionRep,
                         matrix: Sequence[Sequence[int]] | None = None,
                         max_order: int | None = None) -> GoodMorphismReport:
    """Per-pair table comparing expected orders m_st with computed orders.

    Failures are recorded, not raised: a report with failing rows is data
    about the input.  Each pair's check keeps its ProductAnalysis for the
    caller.  An OrderMismatch, two exact routes disagreeing, is an internal
    error and propagates.
    """
    m = matrix if matrix is not None else rep.diagram.m
    ctx = rep.ctx
    n = rep.rank
    checks = []
    reflections = [is_reflection(ctx, g) for g in rep.generators]
    for s in range(n):
        for t in range(s, n):
            if s == t:
                # a reflection squares to I: form . directing = -2
                g = rep.generators[s]
                ok = reflections[s] is not None or \
                    linalg.is_identity(ctx, linalg.near_identity_mul(ctx, g, g))
                checks.append(PairCheck(s, t, 1, 1 if ok else None, ok))
                continue
            expected = m[s][t]
            if reflections[s] is None or reflections[t] is None:
                checks.append(PairCheck(s, t, expected, None, False))
                continue
            analysis = product_analysis(reflections[s], reflections[t], max_order)
            computed = analysis.order_class.finite_order
            ok = computed == expected
            checks.append(PairCheck(s, t, expected, computed, ok, analysis))
    return GoodMorphismReport(tuple(checks), all(c.passed for c in checks))


def commutant_dimension(rep: ReflectionRep) -> tuple[int, str]:
    """Dimension of {X : X zeta_s = zeta_s X for all s}, and the route that
    decided it (see linalg.reduced_dimension): a rank over F_p bounds it
    from above, and 1 from below, as I commutes with every zeta_s.  With
    zeta_s = I - e_s (x) c_s, X e_s = lambda_s e_s and c_s X = lambda_s c_s:
    n unknowns, one equation c_st lambda_t = c_st lambda_s per s != t with
    c_st != 0, passed as (y_st, y_st) for the rows y_s = -c_s.  As c_ss = 2
    is a unit mod every odd prime, the nullity mod p, and so the route, is
    that of the n^2-unknown system."""
    y, n = rep.generator_rows, rep.rank
    return linalg.reduced_dimension(rep.ctx, n, {(s, t): (y[s][t], y[s][t]) for s in range(n)
                                                 for t in range(n) if s != t and y[s][t]}, 1)


@dataclass(frozen=True, eq=False)
class CircuitTrace:
    word: tuple[int, ...]
    trace: FieldElement
    formula_trace: Optional[FieldElement]   # closed form; None with inner chords
    chordless: bool
    shortcut_word: Optional[tuple[int, ...]] = None   # inner-chord case only
    shortcut_trace: Optional[FieldElement] = None

    @property
    def matches(self) -> Optional[bool]:
        if self.formula_trace is None:
            return None
        return self.trace == self.formula_trace


def chordless_circuit_word(rep: ReflectionRep, chord: tuple[int, int]
                           ) -> tuple[int, ...]:
    """Circuit word of a chord with inner chords shortcut away.

    Repeatedly replaces the segment between two non-consecutive circuit
    vertices joined by a diagram edge with that edge; only chords can
    join non-consecutive vertices of a tree path, so the result is a
    cycle word whose only closing edge is the chord itself.  The trace of
    this word depends on the chord's closing scalar with degree one and
    an invertible coefficient, which is what makes it a separator.
    """
    diagram = rep.diagram
    path = list(chord_circuit(rep.tree, chord).path)
    while True:
        last = len(path) - 1
        inner = next(((i, j) for i in range(last) for j in range(i + 2, last + 1)
                      if (i, j) != (0, last) and diagram.is_edge(path[i], path[j])),
                     None)
        if inner is None:
            return tuple(path)
        path = path[:inner[0] + 1] + path[inner[1]:]


def circuit_trace(rep: ReflectionRep, chord: tuple[int, int]) -> CircuitTrace:
    """Trace of the ordered product of the circuit closed by a chord.

    For a circuit without inner chords the trace has the closed form

        n - 2m + sum(alpha over circuit edges)
          + (directed coefficient product around the cycle)

    where a tree edge contributes alpha when traversed away from the
    circuit entry and 1 when traversed toward it, and the chord
    contributes the closing scalar from the far endpoint back to the
    start.  When the entry is the starting endpoint this is the familiar
    (prod of all circuit-tree alphas) * l' term; the direction-aware
    product is what the exact expansion of the cyclic product of
    rank-one-perturbed involutions yields in general.  The closed form is
    asserted equal to the direct matrix product trace.  For circuits with
    inner chords only the direct trace is reported.
    """
    path = chord_circuit(rep.tree, chord).path
    ctx = rep.ctx
    word = tuple(path)
    direct = rep.word_trace(word)
    # an inner chord, a diagram edge joining non-consecutive circuit
    # vertices, is exactly what the shortcut removes
    shortcut = chordless_circuit_word(rep, chord)
    if shortcut != word:
        return CircuitTrace(word, direct, None, False,
                            shortcut, rep.word_trace(shortcut))
    m = len(path)
    params = rep.params
    alpha_sum = params.alpha(path[0], path[-1])
    directed_prod = ctx.one
    for i in range(m - 1):
        a = params.alpha(path[i], path[i + 1])
        alpha_sum = alpha_sum + a
        if rep.tree.parent[path[i + 1]] == path[i]:
            directed_prod = directed_prod * a
    closing = rep.generators[path[-1]][path[-1]][path[0]]
    formula = rep.rank - 2 * m + alpha_sum + directed_prod * closing
    if formula != direct:
        raise OrderMismatch("circuit trace disagrees with the closed form")
    return CircuitTrace(word, direct, formula, True)


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """The kind is "equivalent", with the diagonal intertwiner that is 1
    at the second representation's root; "distinct", with the first word
    of the family whose traces differ and the two traces; or
    "inconclusive": proven inequivalent, but no word of the family
    separates the two."""

    kind: str                   # "distinct" | "equivalent" | "inconclusive"
    word: Optional[tuple[int, ...]] = None
    traces: Optional[tuple[FieldElement, FieldElement]] = None
    intertwiner: Optional[list] = None

    def __str__(self) -> str:
        return self.kind


def character_word_family(rep: ReflectionRep) -> list[tuple[int, ...]]:
    """Pair words on the edges plus a circuit word per chord.

    Edge pair traces separate the per-edge coefficients; the trace of the
    chordless shortcut circuit of a chord is degree one in that chord's
    closing scalar with an invertible coefficient, so a change in any
    single parameter moves some trace in the family.
    """
    words: list[tuple[int, ...]] = [(s, t) for s, t in rep.diagram.edges]
    for chord in rep.tree.chords:
        words.append(chordless_circuit_word(rep, chord))
    return words


def characters_distinguish(rep1: ReflectionRep, rep2: ReflectionRep
                           ) -> EquivalenceVerdict:
    """Decide equivalence by the tree rescaling (equivalence_intertwiner);
    only for an inequivalent pair are traces compared over the word
    family, to find a separating word.  "inconclusive" means the pair is
    proven inequivalent but every word of the family has equal traces."""
    moved = equivalence_intertwiner(rep1, rep2)
    if moved is not None:
        return EquivalenceVerdict("equivalent", intertwiner=moved.matrix)
    for word in character_word_family(rep1):
        t1 = rep1.word_trace(word)
        t2 = rep2.word_trace(word)
        if t1 != t2:
            return EquivalenceVerdict("distinct", word, (t1, t2))
    return EquivalenceVerdict("inconclusive")
