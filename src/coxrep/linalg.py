"""Exact linear algebra over a real cyclotomic field context.

Matrices are lists (or tuples) of rows of FieldElement.  Rank, nullspace
and the determinant come from one fraction-free elimination, with no field
inversion in the loop; the determinant takes at most one at the end.
charpoly and inverse (Faddeev-LeVerrier) and the plain product mat_mul
are references: no command calls them, and the tests check the
elimination determinant, the near-identity kernel and the rank-one closed
forms against them (the rank-two pair quadratic of
analysis.product_analysis, forms.adapted_generators and the diagonal
inverse of cli's equiv).

near_identity_mul computes M A as A + (M - I) A: it reads only the
nonzero entries of M - I, skips the zero entries of A, and makes one field
product and one sum per remaining term; nothing is assumed of M.  The
word matrices, multiplied from the right end, the square of a generator
that is no reflection and the unipotency check of a pair go through it;
the other pair checks of verify read only the block of rs on the
directing vectors' supports (analysis._pair_block).

The systems A_s X = X B_s of the commands (commutant, invariant forms)
have generators that differ from I in one row or one column, read by
generator_rows, which checks that shape.  A_s - I and B_s - I are rank
one, so intertwines checks a witness by one row and one column per s, and
the callers reduce each system to n unknowns, one equation
a lambda_t = b lambda_s per s != t.  reduced_dimension certifies its
dimension: the rank of the residues mod a split prime (FieldElement.residue)
bounds it from above, an exactly checked witness from below, and one exact
elimination decides only when the two bounds stay apart.  The n^2-unknown
rows (_sylvester_rows) give intertwiner_space, the tests' exact reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import FieldContext, FieldElement

Matrix = Sequence[Sequence[FieldElement]]


def identity(ctx: FieldContext, n: int) -> list[list[FieldElement]]:
    """Fresh rows that share one zero and one one: elements are immutable."""
    one, zero = ctx.one, ctx.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_freeze(m: Matrix) -> tuple[tuple[FieldElement, ...], ...]:
    return tuple(tuple(row) for row in m)


def identity_with_rows(ctx: FieldContext, rows: Matrix
                       ) -> tuple[tuple[tuple[FieldElement, ...], ...], ...]:
    """Matrix s is the identity with row s replaced by rows[s], frozen; its
    other rows are those of one shared identity (elements are immutable)."""
    eye = mat_freeze(identity(ctx, len(rows)))
    return tuple(eye[:s] + (tuple(row),) + eye[s + 1:] for s, row in enumerate(rows))


def mat_mul(ctx: FieldContext, a: Matrix, b: Matrix) -> list[list[FieldElement]]:
    """The product A B, one field product and sum per pair of nonzero
    entries (the reference; see the module docstring)."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), ctx.zero) for col in cols]
            for row in a]


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


def element_sum(ctx: FieldContext, terms: Iterable[FieldElement]) -> FieldElement:
    """The sum of the terms, started from the first of them: a zero element
    is made only when there is none."""
    terms = iter(terms)
    first = next(terms, None)
    return ctx.zero if first is None else sum(terms, first)


def trace(ctx: FieldContext, a: Matrix) -> FieldElement:
    return element_sum(ctx, (a[i][i] for i in range(len(a))))


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
    divides by the integers 1..n, so everything stays exact.  No command
    calls it: the pair products of verify use the rank-two quadratic of
    analysis._pair_quadratic, and the tests check that and determinant
    against this.
    """
    return _faddeev_leverrier(ctx, a)[0]


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


def _row_primitive(row: list[FieldElement]) -> tuple[list[FieldElement], Fraction]:
    """The row scaled by the rational f = D/C of primitive_factor, so integer
    contents stay small (each nonzero entry becomes num*D over den*C, with
    one normalization), and f."""
    factor = Fraction(primitive_factor(row))
    if factor == 1:
        return row, factor
    d, c = factor.numerator, factor.denominator
    return [x if x.is_zero() else FieldElement(x.ctx, [v * d for v in x.num], x.den * c)
            for x in row], factor


def _pivot_cost(x: FieldElement) -> tuple[int, int]:
    return (x.effective_degree, sum(1 for v in x.num if v))


def _echelon(ctx: FieldContext, rows: Matrix
             ) -> tuple[list[list[FieldElement]], list[int], list[int], Fraction]:
    """Fraction-free forward elimination (no field inversions).

    Returns the echelon rows, the pivot columns, the number of rows each
    pivot multiplied, and the sign of the row exchanges over the product of
    the _row_primitive factors.  Pivot rows are chosen to prefer low-degree
    (ideally rational) pivots.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    uses: list[int] = []
    scale = Fraction(1)
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
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            scale = -scale
        pivot = rows[r][col]
        used = 0
        for i in range(r + 1, m):
            x = rows[i][col]
            if x.is_zero():
                continue
            rows[i], factor = _row_primitive(
                [pivot * a - x * b for a, b in zip(rows[i], rows[r])])
            scale /= factor
            used += 1
        pivots.append(col)
        uses.append(used)
        r += 1
        if r == m:
            break
    return rows, pivots, uses, scale


def eliminate(ctx: FieldContext, rows: Matrix
              ) -> tuple[list[list[FieldElement]], list[int]]:
    """The echelon rows and pivot column indices of a fraction-free forward
    elimination (_echelon: no field inversions)."""
    return _echelon(ctx, rows)[:2]


def determinant_and_rank(ctx: FieldContext, a: Matrix) -> tuple[FieldElement, int]:
    """det A and the rank of the square matrix A from one elimination.

    _echelon (Bareiss 1968, with primitive rows in place of exact division)
    multiplies each row below pivot p_k by p_k, uses_k times in all, scales
    rows by rationals f and exchanges rows; the echelon diagonal is the
    pivots, so det A = +-prod p_k^(1 - uses_k) / prod f.  That takes at
    most one field inversion, of the product of the pivots used more than
    once, and none when it is rational; det A = 0 when a column has no
    pivot.
    """
    rows, pivots, uses, scale = _echelon(ctx, a)
    if len(pivots) < len(a):
        return ctx.zero, len(pivots)
    kept = repeated = ctx.one
    for row, col, used in zip(rows, pivots, uses):
        if used == 0:
            kept = kept * row[col]
        elif used > 1:
            repeated = repeated * row[col] ** (used - 1)
    return kept * scale / repeated, len(pivots)


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


def _rank_mod(rows: Iterable[dict[int, int]], p: int, cap: int) -> int:
    """Rank over F_p of sparse integer rows {column: value}, or cap once
    the rank reaches it.

    Each row, reduced mod p, is reduced against the pivot rows found so far
    (leading coefficient 1, keyed by the leading column); one that does not
    reduce to zero becomes a pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {j: v % p for j, v in row.items() if v % p}
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
    if any(len(m) != n or m[s][s] != -1 for s, m in enumerate(mats)) or \
            identity_with_rows(ctx, [m[s] for s, m in enumerate(mats)]) != \
            tuple(map(mat_freeze, mats)):
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
    zero, one = ctx.zero, ctx.one
    for s, (a, b) in enumerate(zip(rows_a, rows_b)):
        k = [row[s] for row in w]
        if transposed:
            u, r = a, w[s]
        else:
            u = [one if i == s else zero for i in range(len(w))]
            r = [sum((x * row[j] for x, row in zip(a, w) if x and row[j]), zero)
                 for j in range(len(w))]
        if any(u[s] * x != k[s] * y for x, y in zip(r, b)) or \
                any(r[s] * x != b[s] * y for x, y in zip(u, k)):
            return False
    return True


def reduced_dimension(ctx: FieldContext, n: int,
                      rows: dict[tuple[int, int], tuple[FieldElement, FieldElement]],
                      lower: int) -> tuple[int, str]:
    """Dimension of {X : A_s X = X B_s for all s} and the route that
    decided it, "mod <p>" or "exact", from the n unknowns lambda_s its
    callers reduce it to: rows[s, t] = (a, b) for each s != t whose
    equation a lambda_t = b lambda_s is not 0 = 0.  n minus the rank mod a
    split prime, each distinct entry reduced once, bounds it from above,
    `lower` (1 for a witness that passed intertwines) from below; when they
    differ a second prime is tried (one dividing a denominator is skipped),
    then n minus the pivots of one exact elimination decides."""
    entries = {x for pair in rows.values() for x in pair}
    k = tried = 0
    while tried < 2:
        p = ctx.modular_image(k)[0]
        images = {x: x.residue(k) for x in entries}
        k += 1
        if None in images.values():
            continue
        tried += 1
        equations = ({t: images[a], s: -images[b]} for (s, t), (a, b) in rows.items())
        if n - _rank_mod(equations, p, n - lower) == lower:
            return lower, f"mod {p}"
    exact = [[ctx.zero] * n for _ in rows]
    for row, ((s, t), (a, b)) in zip(exact, rows.items()):
        row[t], row[s] = a, -b
    return n - len(eliminate(ctx, exact)[1]), "exact"
