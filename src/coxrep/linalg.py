"""Exact linear algebra over a real cyclotomic field context.

Matrices are lists (or tuples) of rows of FieldElement.  Characteristic
polynomials, determinants and inverses go through Faddeev-LeVerrier, which
only ever divides by small integers and by the determinant; rank and
nullspace use fraction-free elimination, with no field inversions.  The
commands need only the determinant; charpoly and inverse are the references
the tests check the rank-one closed forms against (the rank-two pair
quadratic of analysis.product_analysis, forms.adapted_generators and the
diagonal inverse of cli's equiv).

There are two product kernels.  near_identity_mul and mul_near_identity
compute M A and A M as A + (M - I) A and A + A (M - I): they read only the
nonzero entries of M - I, skip the zero entries of A, and make one field
product and one sum per remaining term; nothing is assumed of M.  The
squares of generators, the pair products rs, the unipotency check and
the word matrices go through them.

mat_mul is the dense kernel; in the commands only the Faddeev-LeVerrier
sequence behind the determinant uses it.  Each row of A and each column of
B is brought to a common denominator, and each nonzero entry's integer
cosine coordinates are packed once into one Python int as a symmetric
Laurent polynomial (cyclotomic._pack_symmetric, Kronecker substitution),
in signed slots wide enough that no output coefficient can overflow.  Each
output cell is then one big-integer sum of products, whose coefficients of
z^0, z^1, ... are the coordinates of 1, b_1, ..., folded by
FieldContext._fold and normalized once, in the canonical (num, den) form:
exactly the term-by-term product.

The systems A_s X = X B_s of the commands (commutant, invariant forms)
have generators that differ from I in one row or one column, read by
generator_rows, which checks that shape.  A_s - I and B_s - I are rank
one, so intertwines checks a witness by one row and one column per s,
and reduced_dimension solves n unknowns, not n^2.  Its dimensions are
certified: the rank modulo a split prime bounds the dimension from
above, an exactly checked witness from below, and exact elimination
decides only when the two bounds stay apart.  The n^2-unknown rows
(_sylvester_rows) give the exact bases of intertwiner_space, which the
tests use as the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from .cyclotomic import FieldContext, FieldElement, _pack_symmetric, _slot_bytes, _unpack

Matrix = Sequence[Sequence[FieldElement]]


def identity(ctx: FieldContext, n: int) -> list[list[FieldElement]]:
    """Fresh rows that share one zero and one one: elements are immutable."""
    one, zero = ctx.one, ctx.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_freeze(m: Matrix) -> tuple[tuple[FieldElement, ...], ...]:
    return tuple(tuple(row) for row in m)


def _over_common_denominator(entries: Iterable[FieldElement]
                             ) -> tuple[int, list[tuple[int, Sequence[int]]]]:
    """The lcm D of the denominators of the nonzero entries, and for each of
    them its index and its coordinates times D, up to its effective degree
    (one coordinate for a rational)."""
    nonzero = [(t, x.num, x.den) for t, x in enumerate(entries) if any(x.num)]
    den = math.lcm(*[x_den for _, _, x_den in nonzero])
    scaled = []
    for t, num, x_den in nonzero:
        top = len(num) if any(num[1:]) else 1
        while not num[top - 1]:
            top -= 1
        f = den // x_den
        scaled.append((t, num[:top] if f == 1 else [v * f for v in num[:top]]))
    return den, scaled


def mat_mul(ctx: FieldContext, a: Matrix, b: Matrix) -> list[list[FieldElement]]:
    """The product A B: each cell one integer sum of packed products,
    folded and normalized once (see the module docstring)."""
    rows = [_over_common_denominator(row) for row in a]
    cols = [_over_common_denominator(col) for col in zip(*b)]
    coords_a = [c for _, row in rows for _, c in row]
    coords_b = [c for _, col in cols for _, c in col]
    len_a = max(map(len, coords_a), default=1)
    len_b = max(map(len, coords_b), default=1)
    bits_a = max(map(abs, chain.from_iterable(coords_a)), default=0).bit_length()
    bits_b = max(map(abs, chain.from_iterable(coords_b)), default=0).bit_length()
    # a cell coefficient sums at most len(b) * (2 min(len_a, len_b) - 1)
    # products, each below 2^(bits_a + bits_b) in size
    step = _slot_bytes(bits_a + bits_b + (len(b) * (2 * min(len_a, len_b) - 1)).bit_length())
    packed_b: list[list[tuple[int, int]]] = [[] for _ in b]
    for j, (_, col) in enumerate(cols):
        for t, c in col:
            packed_b[t].append((j, _pack_symmetric(c, step, len_b)))
    center = len_a + len_b - 2             # the slot of z^0 in a product
    zero = ctx.zero
    out = []
    for den_a, row in rows:
        acc = [0] * len(cols)
        for t, c in row:
            pa = _pack_symmetric(c, step, len_a)
            for j, pb in packed_b[t]:
                acc[j] += pa * pb
        out.append([FieldElement(ctx, ctx._fold(_unpack(v, step, center + 1, center)),
                                 den_a * den_b) if v else zero
                    for (den_b, _), v in zip(cols, acc)])
    return out


def near_identity_mul(ctx: FieldContext, m: Matrix, a: Matrix) -> list[list[FieldElement]]:
    """The product M A, as A + (M - I) A: row i of A gains e * (row k of A)
    for each nonzero entry e of M - I at (i, k), and zero entries of that
    row are skipped (see the module docstring)."""
    one = ctx.one
    out = [list(row) for row in a]
    for i, row in enumerate(m):
        acc = out[i]
        for k, e in enumerate(row):
            if k == i:
                if e == one:
                    continue
                e = e - one
            elif not e:
                continue
            for j, y in enumerate(a[k]):
                if y:
                    acc[j] = acc[j] + e * y
    return out


def mul_near_identity(ctx: FieldContext, a: Matrix, m: Matrix) -> list[list[FieldElement]]:
    """The product A M, as (M^T A^T)^T by near_identity_mul: it reads only
    the nonzero entries of M - I."""
    return transpose(near_identity_mul(ctx, transpose(m), transpose(a)))


def mat_scale(a: Matrix, s) -> list[list[FieldElement]]:
    return [[x * s for x in row] for row in a]


def transpose(a: Matrix) -> list[list[FieldElement]]:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)) \
        and len(a) == len(b) and all(len(ra) == len(rb) for ra, rb in zip(a, b))


def is_identity(ctx: FieldContext, a: Matrix) -> bool:
    one, zero = ctx.one, ctx.zero
    return all(x == (one if i == j else zero)
               for i, row in enumerate(a) for j, x in enumerate(row))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def trace(ctx: FieldContext, a: Matrix) -> FieldElement:
    acc = ctx.zero
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def _faddeev_leverrier(ctx: FieldContext, a: Matrix
                       ) -> tuple[list[FieldElement], list[list[FieldElement]]]:
    """The coefficients c_0, ..., c_(n-1), 1 of det(XI - A) and the Horner
    sum B = A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I, with A B = -c_0 I.

    B is the matrix the sequence multiplies by A last, so it costs no
    product of its own; it is I when n <= 1.
    """
    n = len(a)
    coeffs_desc = [ctx.one]          # X^n coefficient
    horner = None
    mk = [list(row) for row in a]
    for k in range(1, n + 1):
        ck = trace(ctx, mk) * Fraction(-1, k)
        coeffs_desc.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            horner = mk
            mk = mat_mul(ctx, a, mk)
    return coeffs_desc[::-1], horner or identity(ctx, n)


def charpoly(ctx: FieldContext, a: Matrix) -> list[FieldElement]:
    """Characteristic polynomial det(XI - A) by Faddeev-LeVerrier.

    Returns coefficients lowest degree first, length n+1, monic.  Only
    divides by the integers 1..n, so everything stays exact.  Commands
    reach it only through determinant; the pair products of verify use the
    rank-two quadratic of analysis._pair_quadratic, which the tests check
    against this.
    """
    return _faddeev_leverrier(ctx, a)[0]


def determinant(ctx: FieldContext, a: Matrix) -> FieldElement:
    n = len(a)
    if n == 0:
        return ctx.one
    c0 = charpoly(ctx, a)[0]
    return c0 if n % 2 == 0 else -c0


def inverse(ctx: FieldContext, a: Matrix) -> list[list[FieldElement]]:
    """Inverse -B / c_0 from the Faddeev-LeVerrier sequence (Cayley-Hamilton),
    with a single field inversion (of c_0 = +-det).

    No command calls it: the adapted dual generators and the inverse of
    the diagonal equivalence intertwiner have closed forms.  It is the
    reference the tests check those against.
    """
    poly, horner = _faddeev_leverrier(ctx, a)
    if poly[0].is_zero():
        raise ZeroDivisionError("matrix is singular")
    return mat_scale(horner, -poly[0].invert())


def primitive_factor(entries: Iterable[FieldElement]) -> Fraction | int:
    """The rational lcm(denominators) / gcd(numerator coordinates): scaling
    the entries by it leaves integral coordinates with gcd 1 (1 when the
    entries are already so, or all zero)."""
    den, content = 1, 0
    for x in entries:
        den = math.lcm(den, x.den)
        content = math.gcd(content, *x.num)
    return Fraction(den, content) if content > 1 or den > 1 else 1


def _row_primitive(row: list[FieldElement]) -> list[FieldElement]:
    """Scale a row by a rational D/C so integer contents stay small: each
    nonzero entry becomes num*D over den*C, with one normalization."""
    factor = Fraction(primitive_factor(row))
    if factor == 1:
        return row
    d, c = factor.numerator, factor.denominator
    return [x if x.is_zero() else FieldElement(x.ctx, [v * d for v in x.num], x.den * c)
            for x in row]


def _pivot_cost(x: FieldElement) -> tuple[int, int]:
    return (x.effective_degree, sum(1 for v in x.num if v))


def eliminate(ctx: FieldContext, rows: Matrix
              ) -> tuple[list[list[FieldElement]], list[int]]:
    """Fraction-free forward elimination (no field inversions).

    Returns the echelon rows and pivot column indices.  Pivot rows are
    chosen to prefer low-degree (ideally rational) pivots.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, m):
            x = rows[i][col]
            if not x.is_zero():
                cost = _pivot_cost(x)
                if best is None or cost < best[0]:
                    best = (cost, i)
                    if cost[0] == 0:
                        break
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, m):
            x = rows[i][col]
            if x.is_zero():
                continue
            rows[i] = _row_primitive(
                [pivot * a - x * b for a, b in zip(rows[i], rows[r])])
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(ctx: FieldContext, a: Matrix) -> int:
    return len(eliminate(ctx, a)[1])


def nullspace(ctx: FieldContext, a: Matrix) -> list[list[FieldElement]]:
    """Exact basis of the right nullspace {x : a.x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = eliminate(ctx, a)
    rows = rows[:len(pivots)]
    # normalize pivot rows (one inversion per pivot) then back-eliminate
    for k in range(len(pivots) - 1, -1, -1):
        inv = rows[k][pivots[k]].invert()
        rows[k] = [x * inv for x in rows[k]]
        for i in range(k):
            f = rows[i][pivots[k]]
            if not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ctx.zero] * ncols
        vec[fc] = ctx.one
        for k, pc in enumerate(pivots):
            vec[pc] = -rows[k][fc]
        basis.append(vec)
    return basis


def nullity(ctx: FieldContext, a: Matrix) -> int:
    if not a:
        return 0
    return len(a[0]) - rank(ctx, a)


def _sylvester_rows(zero, gens_a: Sequence[Matrix],
                    gens_b: Sequence[Matrix]) -> list[list]:
    """Rows of the system A_s X = X B_s for all s, unknown X_kj in column
    k*n + j, over whatever ring `zero` belongs to: FieldElement entries, or
    integers standing for residues mod p.  Zero rows are dropped; a system
    with none left keeps one zero row, so the solvers still see the n^2
    unknowns (the whole space)."""
    n = len(gens_a[0])
    zero_row = [zero] * (n * n)
    rows = []
    for ma, mb in zip(gens_a, gens_b):
        for i in range(n):
            for j in range(n):
                row = list(zero_row)
                for k in range(n):
                    if ma[i][k]:
                        row[k * n + j] = row[k * n + j] + ma[i][k]
                    if mb[k][j]:
                        row[i * n + k] = row[i * n + k] - mb[k][j]
                if any(row):
                    rows.append(row)
    return rows or [zero_row]


def intertwiner_space(ctx: FieldContext, gens_a: Sequence[Matrix],
                      gens_b: Sequence[Matrix]) -> list[list[list[FieldElement]]]:
    """Basis of {g : A_s g = g B_s for all s}, as n x n matrices.

    Solves the n^2-unknown linear system exactly; a nonzero invertible
    solution conjugates the B generators into the A generators.  No
    command uses it: equivalence is decided by the tree rescaling
    (construction.equivalence_intertwiner), and this solve is the exact
    reference the tests check that decision against.
    """
    n = len(gens_a[0])
    basis = nullspace(ctx, _sylvester_rows(ctx.zero, gens_a, gens_b))
    return [[vec[i * n:(i + 1) * n] for i in range(n)] for vec in basis]


def _images_mod(mats: Sequence[Matrix], p: int, images: Sequence[int]):
    """The matrices with each entry mapped to F_p by the ring map that sends
    the basis to `images` (FieldContext.modular_image), or None when p
    divides a denominator."""
    out = []
    for m in mats:
        image = []
        for row in m:
            cells = []
            for x in row:
                if x.den % p == 0:
                    return None
                v = sum(a * b for a, b in zip(x.num, images) if a)
                cells.append(v * pow(x.den, -1, p) % p if x.den != 1 else v % p)
            image.append(cells)
        out.append(image)
    return out


def _rank_mod(rows: Iterable[Sequence[int]], p: int, cap: int) -> int:
    """Rank over F_p of integer rows, or cap once the rank reaches it.

    Rows are sparse {column: residue} dicts, each reduced against the
    pivot rows found so far (leading coefficient 1, keyed by the leading
    column); one that does not reduce to zero becomes a pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for dense in rows:
        vec = {j: v % p for j, v in enumerate(dense) if v % p}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in vec.items()}
                if len(pivots) >= cap:
                    return cap
                break
            f = vec[lead]
            for j, v in pivot.items():
                w = (vec.get(j, 0) - f * v) % p
                if w:
                    vec[j] = w
                else:
                    vec.pop(j, None)
    return len(pivots)


def generator_rows(ctx: FieldContext, mats: Sequence[Matrix]
                   ) -> Optional[tuple[tuple[FieldElement, ...], ...]]:
    """The rows y_s = -c_s of M_s = I + e_s (x) y_s, or None unless there are
    n matrices, each I outside row s, with M_s[s][s] = -1 (y_ss = -2)."""
    n, minus_two = len(mats), ctx.from_rational(-2)
    eye = mat_freeze(identity(ctx, n))
    if any(len(m) != n or m[s][s] != -1 or
           any(tuple(row) != eye[i] for i, row in enumerate(m) if i != s)
           for s, m in enumerate(mats)):
        return None
    return tuple(tuple(m[s][:s]) + (minus_two,) + tuple(m[s][s + 1:])
                 for s, m in enumerate(mats))


def intertwines(ctx: FieldContext, rows_a: Matrix, rows_b: Matrix, w: Matrix,
                transposed: bool = False) -> bool:
    """Exact check that w is nonzero and A_s w = w B_s for every s, for
    B_s = I + e_s (x) b_s and A_s = I + e_s (x) a_s, or I + a_s (x) e_s when
    `transposed`, with rows from generator_rows (entry s is -2).  Both sides
    differ from w by rank one: u (x) r = k (x) b_s with k = w e_s, and
    u = e_s, r = a_s w, or u = a_s, r = row s of w.  As u_s b_ss != 0, row
    and column s decide it: u_s r = k_s b_s and r_s u = b_ss k give
    u_s b_ss (u_i r_j - k_i b_sj) = 0 for all i, j."""
    if is_zero_matrix(w):
        return False
    for s, (a, b) in enumerate(zip(rows_a, rows_b)):
        k = [row[s] for row in w]
        if transposed:
            u, r = a, w[s]
        else:
            u = [ctx.one if i == s else ctx.zero for i in range(len(w))]
            r = [sum((x * row[j] for x, row in zip(a, w) if x and row[j]), ctx.zero)
                 for j in range(len(w))]
        if any(u[s] * x != k[s] * y for x, y in zip(r, b)) or \
                any(r[s] * x != b[s] * y for x, y in zip(u, k)):
            return False
    return True


def reduced_dimension(ctx: FieldContext, pairing: Matrix, rows: Matrix,
                      lower: int) -> tuple[int, str]:
    """Dimension of {X : A_s X = X B_s for all s} and the route that
    decided it, "mod <p>" or "exact", for A_s = I + u_s (x) v_s and
    B_s = I + e_s (x) y_s, given pairing_st = v_s . u_t and rows_s = y_s.
    With u_s and y_s nonzero, X e_s = lambda_s u_s and v_s X = lambda_s y_s:
    n unknowns, one row pairing_st lambda_t - rows_st lambda_s per s != t
    that is not zero (the callers' row s = t vanishes, as
    pairing_ss = rows_ss = -2).  n minus the rank mod a split prime bounds
    the dimension from above, `lower` (1 for a witness that passed
    intertwines) from below; when they differ a second prime is tried (a
    prime dividing a denominator is skipped), then exact elimination."""
    n = len(rows)

    def system(zero, pairing: Matrix, rows: Matrix) -> list[list]:
        """The rows that are not zero, over the ring of `zero`; one zero row
        when none is left, so the solvers still see the n unknowns."""
        out = []
        for s in range(n):
            for t in range(n):
                if s != t and (pairing[s][t] or rows[s][t]):
                    out.append([zero] * n)
                    out[-1][t], out[-1][s] = pairing[s][t], -rows[s][t]
        return out or [[zero] * n]

    k = tried = 0
    while tried < 2:
        p, basis = ctx.modular_image(k)
        k += 1
        images = _images_mod([rows] if pairing is rows else [pairing, rows], p, basis)
        if images is None:
            continue
        tried += 1
        rank_p = _rank_mod(system(0, images[0], images[-1]), p, n - lower)
        if n - rank_p == lower:
            return lower, f"mod {p}"
    return nullity(ctx, system(ctx.zero, pairing, rows)), "exact"
