"""Reference routes kept as test oracles: the power-basis arithmetic that
the cosine basis of `coxrep.cyclotomic` replaced (the schoolbook product
reduced by psi through synthetic division, the Galois action by powers of
an image, the p-adic inverse on power-basis coordinates, the cosine walk,
and the image of c modulo a split prime), the extended Euclid over
Fraction lists that `FieldElement.invert` replaced, polynomial division with
remainder by a monic polynomial, the circuit formula for the geometric
chord scalars that `geometric_parameters` replaced, the pairwise inner-chord
scan that `circuit_trace` replaced, the equivalence decision by traces
and the exact n^2-unknown solve that `characters_distinguish` replaced, the
conjugation by a Faddeev-LeVerrier inverse and the closed form with one
inversion per vertex that the adapted dual generators replaced, the
`FieldElement` recurrence for cosines that `cos_element` replaced, the
division form of the dual chord check, the matrix-vector route to the
pair coefficients and the square-and-nullspace reflection test that the
rank-one factorization replaced, the table of every Cartan coefficient of
finite order that `classify_pair` looked its order up in before it read
the order off `FieldContext.cos_index`, the routes the rank-one reductions
replaced (is_intertwiner, the intertwining check by matrix products;
intertwiner_dimension, the certified dimension of the
n^2-unknown system; matrix_order_check, the pair-order check by n x n
matrix powers), the nullspace route to the third unipotency condition
that its closed form replaced, and helpers only tests call: a
generator's checked ReflectionData, the parse of a representation
document's generator matrices, Horner evaluation of an IntPolynomial, a
circuit's entry vertex and the full characteristic polynomial of a pair
product; the sparse fold table, rows b_d to b_(N/2) of (index, value)
pairs, that the packed rows of canonical indices replaced; and the tree
products as products of the alphas along each root path, and the form
criterion's chord balance around each circuit's entry, that the one walk
down the tree (construction.tree_rescaling) replaced."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from coxrep import cyclotomic, linalg
from coxrep.analysis import (
    EquivalenceVerdict,
    ReflectionData,
    _dot,
    _minus_identity,
    _pair_quadratic,
    _times_x_minus_one,
    character_word_family,
    is_reflection,
)
from coxrep.cartanpoly import order_poly_roots
from coxrep.construction import ReflectionRep, cartan_matrix, conductor_for
from coxrep.cyclotomic import (
    DivisionByZero,
    FieldElement,
    IntPolynomial,
    field_context,
    prime_factors,
)
from coxrep.forms import FormExistence
from coxrep.graph import ChordCircuit, SpanningTree, chord_circuit
from coxrep.io import InputError, scalar_from_json


def poly_divmod(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Quotient and remainder of a by a monic b, in exact Fraction
    arithmetic; both are integral since b is monic."""
    if not b.is_monic():
        raise ValueError("the divisor must be monic")
    rem = [Fraction(c) for c in a.coeffs]
    div = b.coeffs
    dd = len(div) - 1
    lead = div[-1]
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        f = rem[i] / lead
        if f:
            quo[i - dd] = f
            for j, c in enumerate(div):
                rem[i - dd + j] -= f * c
    return IntPolynomial(quo), IntPolynomial(rem)


def euclid_inverse(x: FieldElement) -> FieldElement:
    """Multiplicative inverse via the extended Euclid algorithm mod the
    minimal polynomial, over Fraction lists (remainders kept monic to bound
    growth)."""
    if x.is_zero():
        raise DivisionByZero("cannot invert zero")
    if x.is_rational():
        return x.ctx.from_rational(1 / x.as_fraction())
    r0 = [Fraction(c) for c in x.ctx.min_poly.coeffs]
    r1 = [Fraction(v) for v in x.power_num]
    while r1 and r1[-1] == 0:
        r1.pop()
    t0: list[Fraction] = []
    t1: list[Fraction] = [Fraction(1)]
    while len(r1) > 1:
        # divide r0 by r1
        rem = list(r0)
        q: list[Fraction] = [Fraction(0)] * max(len(rem) - len(r1) + 1, 1)
        lead = r1[-1]
        for i in range(len(rem) - 1, len(r1) - 2, -1):
            f = rem[i] / lead
            if f:
                q[i - len(r1) + 1] = f
                for jj, cc in enumerate(r1):
                    rem[i - len(r1) + 1 + jj] -= f * cc
        while rem and rem[-1] == 0:
            rem.pop()
        # t = t0 - q*t1
        t = list(t0) + [Fraction(0)] * max(0, len(q) + len(t1) - 1 - len(t0))
        for i, qq in enumerate(q):
            if qq:
                for jj, tt in enumerate(t1):
                    t[i + jj] -= qq * tt
        while t and t[-1] == 0:
            t.pop()
        r0, r1, t0, t1 = r1, rem, t1, t
        if r1:
            lc = r1[-1]
            if lc != 1:
                r1 = [c / lc for c in r1]
                t1 = [c / lc for c in t1]
    if not r1:
        raise ArithmeticError("element not invertible; minimal polynomial not irreducible?")
    # r1 == [1]; t1 * (num polynomial) == 1 mod psi, so inverse = den * t1
    return x.ctx.from_coeffs([c * x.den for c in t1])


def geometric_chord_scalar(tree: SpanningTree, chord: tuple[int, int]) -> FieldElement:
    """The geometric representation's scalar for a chord (s, t), s < t, by
    its circuit: the product of 2*cos(pi/m) over the circuit, chord
    included, divided by the product of the k = 1 alphas 4*cos^2(pi/m)
    along the tree path from s to the circuit entry."""
    diagram = tree.diagram
    ctx = field_context(conductor_for(diagram))
    circuit = chord_circuit(tree, chord)
    path = circuit.path

    def two_cos(s: int, t: int) -> FieldElement:
        return ctx.cos_element(1, 2 * diagram.edge_label(s, t))

    b = two_cos(*chord)
    for s, t in zip(path, path[1:]):
        b = b * two_cos(s, t)
    to_entry = path[:circuit.entry_index + 1]
    for s, t in zip(to_entry, to_entry[1:]):
        b = b / (2 + ctx.cos_element(1, diagram.edge_label(s, t)))
    return b


def has_inner_chord(rep: ReflectionRep, chord: tuple[int, int]) -> bool:
    """Whether a diagram edge joins two non-consecutive vertices of the
    chord's circuit, by scanning every pair of circuit vertices."""
    path = chord_circuit(rep.tree, chord).path
    consecutive = {frozenset(pair) for pair in zip(path, path[1:])}
    consecutive.add(frozenset((path[0], path[-1])))
    return any(rep.diagram.is_edge(s, t) and frozenset((s, t)) not in consecutive
               for s, t in itertools.combinations(path, 2))


def equivalence_by_solve(rep1: ReflectionRep, rep2: ReflectionRep) -> EquivalenceVerdict:
    """Traces over the word family first; when all agree, the exact solve
    of A_s g = g B_s, equivalent on the first basis matrix with a nonzero
    determinant and inconclusive when there is none."""
    for word in character_word_family(rep1):
        t1, t2 = rep1.word_trace(word), rep2.word_trace(word)
        if t1 != t2:
            return EquivalenceVerdict("distinct", word, (t1, t2))
    for candidate in linalg.intertwiner_space(rep1.ctx, rep1.generators, rep2.generators):
        if not linalg.determinant_and_rank(rep1.ctx, candidate)[0].is_zero():
            return EquivalenceVerdict("equivalent", intertwiner=candidate)
    return EquivalenceVerdict("inconclusive")


def _path_product(rep: ReflectionRep, path) -> FieldElement:
    acc = rep.ctx.one
    for s, t in zip(path, path[1:]):
        acc = acc * rep.params.alpha(s, t)
    return acc


def root_path_product(rep: ReflectionRep, s: int) -> FieldElement:
    """The tree product of s: the product of the alphas along the tree path
    from s to the root, 1 at the root."""
    return _path_product(rep, rep.tree.path_to_root(s))


def form_exists_by_circuits(rep: ReflectionRep, theta) -> FormExistence:
    """The form criterion with each chord balanced around its circuit: theta
    of the scalar of s -> t times the product of the alphas from s to the
    circuit's entry against the scalar of t -> s times the product from
    the entry to t."""
    params, gens = rep.params, rep.generators
    if not theta.is_involution():
        return FormExistence(False, "not_involution", (theta.index,))
    for edge in rep.diagram.edges:
        alpha = params.alpha(*edge)
        if theta(alpha) != alpha:
            return FormExistence(False, "moves_alpha", edge)
    for chord in rep.tree.chords:
        circuit = chord_circuit(rep.tree, chord)
        path = circuit.path
        s, t = path[0], path[-1]
        prefix = _path_product(rep, path[:circuit.entry_index + 1])
        suffix = _path_product(rep, path[circuit.entry_index:])
        if theta(gens[s][s][t]) * prefix != gens[t][t][s] * suffix:
            return FormExistence(False, "chord_balance", chord)
    return FormExistence(True)


def adapted_by_conjugation(rep: ReflectionRep) -> tuple:
    """The dual generators in the adapted basis B = C^T diag(tree products),
    as B^-1 D_s B with B^-1 from linalg.inverse; the discriminant must be
    nonzero."""
    ctx = rep.ctx
    n = rep.rank
    rows = cartan_matrix(rep).entries
    products = [root_path_product(rep, s) for s in range(n)]
    basis = [[products[j] * rows[j][i] for j in range(n)] for i in range(n)]
    basis_inv = linalg.inverse(ctx, basis)
    return tuple(
        linalg.mat_freeze(linalg.mat_mul(
            ctx, linalg.mat_mul(ctx, basis_inv, linalg.transpose(g)), basis))
        for g in rep.generators)


def cosines_by_field_recurrence(ctx, j: int) -> list[tuple[int, ...]]:
    """The integer power-basis coordinates of 2cos(2 pi i/N) for i <= j, by
    the three-term recurrence b_(i+1) = c b_i - b_(i-1) in full field
    arithmetic."""
    c = ctx.from_rational(-ctx.min_poly.coeffs[0]) if ctx.degree == 1 \
        else ctx.from_coeffs([0, 1])
    prev, cur = ctx.from_rational(2), c
    out = [prev.power_num, cur.power_num]
    while len(out) <= j:
        prev, cur = cur, c * cur - prev
        out.append(cur.power_num)
    return out[:j + 1]


@functools.lru_cache(maxsize=None)
def sparse_fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The sparse fold table that the packed canonical rows replaced: entry
    m - d holds the nonzero coordinates of b_m as (index, value) pairs, for
    every m from the degree d to N/2.  The first row is read off
    z^-d Phi_N(z) = 0, each later one is b_1 b_(m-1) - b_(m-2) with
    b_1 b_i = b_(i+1) + b_(i-1) and b_0 = 2, and b_d folds by the first."""
    d = field_context(n).degree
    rows: list[tuple[tuple[int, int], ...]] = []

    def basis(j):
        return ((j, 1),) if j else ((0, 2),)

    for m in range(d, n // 2 + 1):
        if not rows:
            a = cyclotomic.cyclotomic_polynomial(n).coeffs
            rows.append(((0, -2),) if n <= 2 else
                        tuple((i, -a[d + i]) for i in range(d) if a[d + i]))
            continue
        terms = [(i - 1, v) if i > 1 else (0, 2 * v) for i, v in rows[-1] if i]
        terms += [(i + 1, v) for i, v in rows[-1]]
        terms += [(i, -v) for i, v in (rows[-2] if len(rows) > 1 else basis(d - 1))]
        acc: dict[int, int] = {}
        for i, v in terms:
            for k, f in ((i, 1),) if i < d else rows[0]:
                acc[k] = acc.get(k, 0) + v * f
        rows.append(tuple((i, v) for i, v in sorted(acc.items()) if v))
    return tuple(rows)


def sparse_cosine(ctx, m: int) -> list[int]:
    """The `degree` coordinates of b_m, any m: b_(m mod N) = b_(N - m mod N),
    a basis vector below the degree and a sparse table row from it on."""
    n, d = ctx.N, ctx.degree
    m %= n
    m = min(m, n - m)
    out = [0] * d
    for i, f in sparse_fold_rows(n)[m - d] if m >= d else ((m, 1 if m else 2),):
        out[i] += f
    return out


def sparse_fold(ctx, coeffs) -> list[int]:
    """The `degree` coordinates of sum coeffs[m] b_m, coeffs[0] the
    coordinate of 1, each b_m from m = 1 on by ``sparse_cosine``."""
    out = [coeffs[0]] + [0] * (ctx.degree - 1)
    for m, v in enumerate(coeffs):
        if v and m:
            out = [u + v * f for u, f in zip(out, sparse_cosine(ctx, m))]
    return out


# -- the power-basis arithmetic that the cosine basis replaced ---------------

def convolve(a, b) -> list[int]:
    """The schoolbook product of two coordinate vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def reduce_product(ctx, conv: list[int]) -> list[int]:
    """The `degree` power-basis coordinates of a coordinate convolution: a
    longer one is reduced modulo the monic minimal polynomial psi (in
    place) by synthetic division, a shorter one padded with zeros."""
    d = ctx.degree
    terms = [(i, v) for i, v in enumerate(ctx.min_poly.coeffs[:-1]) if v]
    for top in range(len(conv) - 1, d - 1, -1):
        co = conv[top]
        if co:
            low = top - d
            for i, v in terms:
                conv[low + i] -= co * v
    return conv[:d] + [0] * (d - len(conv))


def _from_power(ctx, num, den: int = 1) -> FieldElement:
    return ctx.from_coeffs([Fraction(v, den) for v in num])


def power_product(x: FieldElement, y: FieldElement) -> FieldElement:
    """x * y as the schoolbook product of power-basis coordinates reduced
    by psi."""
    conv = convolve(x.power_num, y.power_num)
    return _from_power(x.ctx, reduce_product(x.ctx, conv), x.den * y.den)


def power_cosines(ctx, j: int) -> list[tuple[int, ...]]:
    """The power-basis coordinates of 2cos(2 pi i/N) for i <= j, by the
    walk b_(i+1) = c b_i - b_(i-1) on integer coordinates: multiplying by
    c shifts b_i up one place, and the one coordinate that leaves the
    basis is reduced by psi."""
    d = ctx.degree
    out = [(2,) + (0,) * (d - 1), tuple(reduce_product(ctx, [0, 1]))]
    while len(out) <= j:
        prev, cur = out[-2:]
        shifted = [-prev[0], *(a - b for a, b in zip(cur, prev[1:])), cur[-1]]
        out.append(tuple(reduce_product(ctx, shifted)))
    return out[:j + 1]


def power_cos_element(ctx, k: int, m: int) -> FieldElement:
    """2cos(2 pi k/m), m | N, read off the power-basis walk."""
    j = (k % m) * (ctx.N // m)
    j = min(j, ctx.N - j)
    return _from_power(ctx, power_cosines(ctx, j)[j])


def power_galois(ctx, j: int, x: FieldElement) -> FieldElement:
    """sigma_j(x) = sum p_i g^i for the power-basis coordinates p_i of x and
    g = 2cos(2 pi j/N), the powers of g by power-basis products."""
    j = ctx.galois_index(j)
    g = power_cosines(ctx, j)[j]
    powers = [(1,) + (0,) * (ctx.degree - 1)]
    for _ in range(ctx.degree - 1):
        powers.append(tuple(reduce_product(ctx, convolve(powers[-1], g))))
    num = [sum(v * power[i] for v, power in zip(x.power_num, powers))
           for i in range(ctx.degree)]
    return _from_power(ctx, num, x.den)


def power_invert(x: FieldElement) -> FieldElement:
    """The inverse found on power-basis coordinates: inverted modulo
    (psi, p) at the first split prime where it is a unit, Newton-lifted
    with products reduced by psi, and accepted by the exact product."""
    if x.is_zero():
        raise DivisionByZero("cannot invert zero")
    if x.is_rational():
        return x.ctx.from_rational(1 / x.as_fraction())
    ctx = x.ctx
    d = ctx.degree
    num = list(x.power_num)

    def mul(a, b):
        return reduce_product(ctx, convolve(a, b))

    for k in itertools.count():
        q = ctx.modular_image(k)[0]
        y = cyclotomic._inverse_mod(num, ctx.min_poly.coeffs, q)
        if y is not None:
            break
    y = list(y)
    while True:
        found = cyclotomic._reconstruct(y, q)
        if found is not None and mul(num, list(found[0])) == [found[1]] + [0] * (d - 1):
            return _from_power(ctx, [v * x.den for v in found[0]], found[1])
        q *= q
        error = [-v % q for v in mul(num, y)]
        error[0] = (error[0] + 2) % q
        y = [v % q for v in mul(y, error)]


def power_image(ctx, k: int, x: FieldElement) -> int:
    """x mod the k-th split prime p through c -> c_p, on power-basis
    coordinates: sum p_i c_p^i / den."""
    p, images = ctx.modular_image(k)
    c = images[1] if ctx.degree > 1 else -ctx.min_poly.coeffs[0]
    return sum(v * pow(c, i, p) for i, v in enumerate(x.power_num)) * pow(x.den, -1, p) % p


def adapted_by_inversions(rep: ReflectionRep) -> tuple:
    """The dual generators in the adapted basis as the identity with row s
    equal to delta_sj - c_js p_j / p_s, inverting every tree product."""
    ctx = rep.ctx
    n = rep.rank
    rows = cartan_matrix(rep).entries
    products = [root_path_product(rep, s) for s in range(n)]
    out = []
    for s in range(n):
        mat = linalg.identity(ctx, n)
        inv = products[s].invert()
        mat[s] = [mat[s][j] - rows[j][s] * products[j] * inv for j in range(n)]
        out.append(linalg.mat_freeze(mat))
    return tuple(out)


def chord_check_by_division(dual) -> bool:
    """The dual chord check with the expected entries divided out:
    gen_t[t][s] = p_s l / p_t and gen_s[s][t] = p_t l' / p_s, l' = alpha / l."""
    rep = dual.primal
    for s, t in rep.tree.chords:
        forward, backward = rep.params.chord_pair(s, t)
        expected_ts = dual.scalings[s] * forward / dual.scalings[t]
        expected_st = dual.scalings[t] * backward / dual.scalings[s]
        if dual.adapted_generators[t][t][s] != expected_ts or \
                dual.adapted_generators[s][s][t] != expected_st:
            return False
    return True


def rep_reflection(rep: ReflectionRep, s: int) -> ReflectionData:
    data = is_reflection(rep.ctx, rep.generators[s])
    if data is None:
        raise ArithmeticError(f"generator {s} is not a reflection")
    return data


def rep_matrices_from_json(obj) -> dict[str, list[list[FieldElement]]]:
    """Parse the generator matrices of a serialized representation back into
    exact elements (round-trip support)."""
    ctx = field_context(int(obj["conductor"]))
    return {name: matrix_from_json(ctx, mat)
            for name, mat in obj["generators"].items()}


def matrix_from_json(ctx, obj) -> list[list[FieldElement]]:
    if not isinstance(obj, (list, tuple)):
        raise InputError("matrix must be a list of rows")
    return [[scalar_from_json(ctx, v) for v in row] for row in obj]


def evaluate(poly: IntPolynomial, x):
    """Horner evaluation; works for Fraction, float and FieldElement."""
    acc = None
    for c in reversed(poly.coeffs):
        acc = c if acc is None else acc * x + c
    if isinstance(x, FieldElement):
        if acc is None:
            return x.ctx.zero
        if not isinstance(acc, FieldElement):
            return x.ctx.from_rational(acc)
    elif acc is None:
        return type(x)(0)
    return acc


def entry_vertex(circuit: ChordCircuit) -> int:
    return circuit.path[circuit.entry_index]


def pair_char_poly(ctx, product) -> tuple[FieldElement, ...]:
    """det(XI - rs), coefficients lowest first, for a product of two
    reflections: X - rs for n = 1, otherwise (X-1)^(n-2) times the
    rank-two quadratic of analysis._pair_quadratic."""
    n = len(product)
    if n == 1:
        return (-product[0][0], ctx.one)
    return _times_x_minus_one(_pair_quadratic(ctx, product), n - 2)


def reflection_by_nullspace(ctx, matrix):
    """(directing, hyperplane basis) when M^2 = I and M - I has rank one,
    by the square product and a nullspace of n - 1 vectors; None
    otherwise.  The directing vector is the first nonzero column of M - I
    scaled to first nonzero coordinate 1."""
    if not linalg.is_identity(ctx, linalg.mat_mul(ctx, matrix, matrix)):
        return None
    shifted = _minus_identity(matrix)
    hyperplane = linalg.nullspace(ctx, shifted)
    if len(hyperplane) != len(matrix) - 1:
        return None
    col = next(col for col in zip(*shifted) if any(col))
    inv = next(x for x in col if x).invert()
    return tuple(x * inv for x in col), hyperplane


def _coefficient_of(vec, direction) -> FieldElement:
    """The scalar mu with vec = mu * direction; vec must be proportional."""
    pivot = next(i for i, x in enumerate(direction) if not x.is_zero())
    mu = vec[pivot] / direction[pivot]
    for a, b in zip(vec, direction):
        if a != mu * b:
            raise ArithmeticError("vector is not proportional to the direction")
    return mu


def pair_coefficients_by_images(r: ReflectionData, s: ReflectionData
                                ) -> tuple[FieldElement, FieldElement]:
    """(mu, nu) with r(b) - b = mu a and s(a) - a = nu b, from the
    matrix-vector products r b and s a; the directing vectors a, b must
    be independent."""
    ctx = r.ctx

    def coefficient(data, other):
        image = linalg.mat_mul(ctx, data.matrix, [[x] for x in other.directing])
        diff = [x - y for (x,), y in zip(image, other.directing)]
        if all(x.is_zero() for x in diff):
            return ctx.zero
        return _coefficient_of(diff, data.directing)

    return coefficient(r, s), coefficient(s, r)


def is_intertwiner(ctx, gens_a, gens_b, w) -> bool:
    """Exact check that w is nonzero and A_s w = w B_s for every s, A_s w
    by the near-identity product and w B_s by mat_mul; nothing is assumed
    of A_s and B_s."""
    return not linalg.is_zero_matrix(w) and all(
        linalg.mat_eq(linalg.near_identity_mul(ctx, a, w), linalg.mat_mul(ctx, w, b))
        for a, b in zip(gens_a, gens_b))


def intertwiner_dimension(ctx, gens_a, gens_b, witness=None) -> tuple[int, str]:
    """Dimension of {g : A_s g = g B_s for all s} and the route that
    decided it, from the n^2-unknown system: n^2 minus its rank modulo a
    split prime bounds it from above, a witness passing is_intertwiner
    from below by 1; a prime that divides a denominator is skipped, a
    second prime is tried when the bounds stay apart, and then exact
    elimination decides."""
    n = len(gens_a[0])
    lower = int(witness is not None and is_intertwiner(ctx, gens_a, gens_b, witness))

    def residues(mats, k):
        """The matrices' entries mod the k-th split prime (FieldElement.residue),
        or None when it divides a denominator."""
        out = [[[x.residue(k) for x in row] for row in m] for m in mats]
        return None if any(None in row for m in out for row in m) else out

    k = tried = 0
    while tried < 2:
        p = ctx.modular_image(k)[0]
        images_a = residues(gens_a, k)
        images_b = images_a if gens_b is gens_a else residues(gens_b, k)
        k += 1
        if images_a is None or images_b is None:
            continue
        tried += 1
        rows = map(dict, map(enumerate, linalg._sylvester_rows(0, images_a, images_b)))
        if n * n - linalg._rank_mod(rows, p, n * n - lower) == lower:
            return lower, f"mod {p}"
    rows = linalg._sylvester_rows(ctx.zero, gens_a, gens_b)
    return n * n - len(linalg.eliminate(ctx, rows)[1]), "exact"


def plane_meets_both_hyperplanes_by_nullspace(r: ReflectionData, s: ReflectionData) -> bool:
    """Condition 3 of analysis.unipotent_equivalences by a nullspace: a
    nonzero x = xa a_r + xb a_s with form_r . x = form_s . x = 0, each
    basis vector of the solutions of the 2 x 2 system checked for x != 0
    (parallel directing vectors can give x = 0)."""
    ctx = r.ctx
    rows = [[_dot(ctx, data.form, r.directing), _dot(ctx, data.form, s.directing)]
            for data in (r, s)]
    return any(any(not (xa * a + xb * b).is_zero() for a, b in zip(r.directing, s.directing))
               for xa, xb in linalg.nullspace(ctx, rows))


def matrix_order_check(ctx, product, n: int) -> bool:
    """product^n = I and product^(n/q) != I for each prime q | n, by
    square-and-multiply over n x n near-identity products."""
    squares = [product]
    for _ in range(n.bit_length() - 1):
        squares.append(linalg.near_identity_mul(ctx, squares[-1], squares[-1]))

    def power(k: int):
        return functools.reduce(functools.partial(linalg.near_identity_mul, ctx),
                                [sq for i, sq in enumerate(squares) if k >> i & 1])

    return linalg.is_identity(ctx, power(n)) and not any(
        linalg.is_identity(ctx, power(n // q)) for q in prime_factors(n))


def order_table(ctx) -> dict[FieldElement, int]:
    """Every Cartan coefficient of finite order n >= 3 in the field, mapped
    to n: the rationals 1, 2, 3 (n = 3, 4, 6), the roots of order_poly(n)
    for n | N, and 4 - root for odd n | N (order 2n)."""
    table = {ctx.from_rational(c): n for c, n in ((1, 3), (2, 4), (3, 6))}
    for n in range(3, ctx.N + 1):
        if ctx.N % n == 0:
            for root in order_poly_roots(ctx, n):
                table[root] = n
                if n % 2:
                    # 4 - 4cos^2(k pi/n) = 4cos^2((2k + n) pi/(2n))
                    table[4 - root] = 2 * n
    return table
