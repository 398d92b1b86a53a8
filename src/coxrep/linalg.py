"""Exact linear algebra over a real cyclotomic field context.

Matrices are lists (or tuples) of rows of FieldElement.  Characteristic
polynomials, determinants and inverses go through Faddeev-LeVerrier, which
only ever divides by small integers and by the determinant; rank and
nullspace use fraction-free elimination, with no field inversions.

One row builder serves every system A_s X = X B_s (commutant, intertwiners,
invariant forms).  Its bases are exact.  Its dimensions are certified: the
rank modulo a split prime bounds the dimension from above, an exactly
checked witness bounds it from below, and exact elimination decides only
when the two bounds stay apart.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import FieldContext, FieldElement, _normalize

Matrix = Sequence[Sequence[FieldElement]]


def identity(ctx: FieldContext, n: int) -> list[list[FieldElement]]:
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_freeze(m: Matrix) -> tuple[tuple[FieldElement, ...], ...]:
    return tuple(tuple(row) for row in m)


def mat_mul(ctx: FieldContext, a: Matrix, b: Matrix) -> list[list[FieldElement]]:
    n, k, p = len(a), len(b), len(b[0])
    out = [[ctx.zero] * p for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            v = row[t]
            if v.is_zero():
                continue
            brow = b[t]
            for j in range(p):
                w = brow[j]
                if not w.is_zero():
                    acc[j] = acc[j] + v * w
    return out


def mat_vec(ctx: FieldContext, a: Matrix, x: Sequence[FieldElement]) -> list[FieldElement]:
    out = []
    for row in a:
        acc = ctx.zero
        for v, xi in zip(row, x):
            if not (v.is_zero() or xi.is_zero()):
                acc = acc + v * xi
        out.append(acc)
    return out


def mat_scale(a: Matrix, s) -> list[list[FieldElement]]:
    return [[x * s for x in row] for row in a]


def transpose(a: Matrix) -> list[list[FieldElement]]:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)) \
        and len(a) == len(b) and all(len(ra) == len(rb) for ra, rb in zip(a, b))


def is_identity(ctx: FieldContext, a: Matrix) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(n):
            if a[i][j] != (ctx.one if i == j else ctx.zero):
                return False
    return True


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def trace(ctx: FieldContext, a: Matrix) -> FieldElement:
    acc = ctx.zero
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def charpoly(ctx: FieldContext, a: Matrix) -> list[FieldElement]:
    """Characteristic polynomial det(XI - A) by Faddeev-LeVerrier.

    Returns coefficients lowest degree first, length n+1, monic.  Only
    divides by the integers 1..n, so everything stays exact.
    """
    n = len(a)
    coeffs_desc = [ctx.one]          # X^n coefficient
    mk = [list(row) for row in a]
    for k in range(1, n + 1):
        ck = trace(ctx, mk) * Fraction(-1, k)
        coeffs_desc.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            mk = mat_mul(ctx, a, mk)
    return list(reversed(coeffs_desc))


def determinant(ctx: FieldContext, a: Matrix) -> FieldElement:
    n = len(a)
    if n == 0:
        return ctx.one
    c0 = charpoly(ctx, a)[0]
    return c0 if n % 2 == 0 else -c0


def inverse(ctx: FieldContext, a: Matrix) -> list[list[FieldElement]]:
    """Inverse via Cayley-Hamilton; a single field inversion (of det)."""
    n = len(a)
    poly = charpoly(ctx, a)  # [c_0, ..., c_{n-1}, 1]
    if poly[0].is_zero():
        raise ZeroDivisionError("matrix is singular")
    acc = identity(ctx, n)   # Horner: A^{n-1} + c_{n-1} A^{n-2} + ... + c_1 I
    for k in range(n - 1, 0, -1):
        acc = mat_mul(ctx, a, acc)
        for i in range(n):
            acc[i][i] = acc[i][i] + poly[k]
    scale = -poly[0].invert()
    return mat_scale(acc, scale)


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
    return [x if x.is_zero() else
            FieldElement(x.ctx, *_normalize([v * d for v in x.num], x.den * c),
                         _normalized=True)
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
    solution conjugates the B generators into the A generators.
    """
    n = len(gens_a[0])
    basis = nullspace(ctx, _sylvester_rows(ctx.zero, gens_a, gens_b))
    return [[vec[i * n:(i + 1) * n] for i in range(n)] for vec in basis]


def is_intertwiner(ctx: FieldContext, gens_a: Sequence[Matrix],
                   gens_b: Sequence[Matrix], w: Matrix) -> bool:
    """Exact check that w is nonzero and A_s w = w B_s for every s."""
    return not is_zero_matrix(w) and all(
        mat_eq(mat_mul(ctx, a, w), mat_mul(ctx, w, b)) for a, b in zip(gens_a, gens_b))


def _images_mod(mats: Sequence[Matrix], p: int, powers: Sequence[int]):
    """The matrices with each entry mapped to F_p by c -> c_p, or None when
    p divides a denominator."""
    out = []
    for m in mats:
        image = []
        for row in m:
            cells = []
            for x in row:
                if x.den % p == 0:
                    return None
                v = sum(a * b for a, b in zip(x.num, powers) if a)
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


def intertwiner_dimension(ctx: FieldContext, gens_a: Sequence[Matrix],
                          gens_b: Sequence[Matrix],
                          witness: Optional[Matrix] = None) -> tuple[int, str]:
    """Dimension of {g : A_s g = g B_s for all s}, and the route that
    decided it: "mod <p>" or "exact".

    The rank over F_p of the system intertwiner_space solves, for a split
    prime p (FieldContext.modular_image), is at most its rank over the
    field, so n^2 minus it bounds the dimension from above.  The witness,
    accepted only after the exact check of is_intertwiner, bounds it from
    below by 1; without one the lower bound is 0.  When the bounds meet
    they give the dimension.  Otherwise one more prime is tried (primes
    that divide a denominator are skipped), and then exact elimination
    decides.
    """
    n = len(gens_a[0])
    lower = int(witness is not None and is_intertwiner(ctx, gens_a, gens_b, witness))
    k = tried = 0
    while tried < 2:
        p, powers = ctx.modular_image(k)
        k += 1
        images_a = _images_mod(gens_a, p, powers)
        images_b = images_a if gens_b is gens_a else _images_mod(gens_b, p, powers)
        if images_a is None or images_b is None:
            continue
        tried += 1
        rank_p = _rank_mod(_sylvester_rows(0, images_a, images_b), p, n * n - lower)
        if n * n - rank_p == lower:
            return lower, f"mod {p}"
    return nullity(ctx, _sylvester_rows(ctx.zero, gens_a, gens_b)), "exact"
