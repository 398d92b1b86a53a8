"""The fold table of packed rows of canonical indices against the sparse
table it replaced (tests/oracles.py): every row, the fold of coefficients
up to 2^200 at any index (so that the limb path runs), cosines and their
indices, and the Galois action, at even conductors (24, 1260, 2310 and
2p = 202) and odd ones (15, 105 and p = 101); the same rows and folds
when the table starts at a slot too narrow for them, so that it widens;
and no row built by the index lookup."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from oracles import power_galois, sparse_cosine, sparse_fold

from coxrep.cyclotomic import FieldContext, FieldElement, _unpack, field_context

EVEN = (24, 1260, 2310, 202)
ODD = (15, 105, 101)
CONDUCTORS = EVEN + ODD


def _top(n):
    """The last canonical index: N/4 for even N, N/2 for odd N, rounded
    down."""
    return n // 4 if n % 2 == 0 else n // 2


def _packed_rows(ctx):
    rows = ctx._rows(_top(ctx.N))           # built first: it may widen the slots
    return [_unpack(row, ctx._slot_bits // 8, ctx.degree) for row in rows]


def _sparse_rows(ctx):
    return [sparse_cosine(ctx, k) for k in range(ctx.degree, _top(ctx.N) + 1)]


@pytest.mark.parametrize("n", CONDUCTORS + (1, 2, 3, 4, 6, 8))
def test_one_row_per_canonical_index_from_the_degree(n):
    """One row for N = 2p = 202, 172 for N = 1260 (b_144 to b_315)."""
    ctx = FieldContext(n)
    rows = _packed_rows(ctx)
    assert len(rows) == max(0, _top(n) - ctx.degree + 1)
    assert rows == _sparse_rows(ctx)


@pytest.mark.parametrize("n", (15, 105, 1260, 2310))
def test_a_narrow_slot_widens_to_the_same_rows(n):
    ctx = FieldContext(n)
    ctx._slot_bits = 8
    assert _packed_rows(ctx) == _sparse_rows(ctx)
    # the rows of 2310 have coordinates up to 14, past the 2^2 that a row
    # of 8-bit slots may hold; the others stay within 2
    assert (ctx._slot_bits > 8) == (n == 2310)


# small, at the edge of one packed sum at 8- and 64-bit slots, and limbs
_coefficient = (st.integers(-3, 3) | st.integers(-100, 100) | st.integers(-2 ** 64, 2 ** 64)
                | st.integers(-2 ** 200, 2 ** 200))


@st.composite
def _coefficients(draw, n):
    """Dense coefficients of a product (length up to 2d - 1), or a few
    nonzero ones anywhere below 2N + 3, each small or up to 2^200."""
    d = field_context(n).degree
    if draw(st.booleans()):
        return draw(st.lists(_coefficient, min_size=1, max_size=2 * d - 1))
    coeffs = [0] * draw(st.integers(1, 2 * n + 3))
    for m in draw(st.lists(st.integers(0, len(coeffs) - 1), max_size=20)):
        coeffs[m] = draw(_coefficient)
    return coeffs


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_fold_matches_the_sparse_table(n, data):
    ctx = field_context(n)
    coeffs = data.draw(_coefficients(n))
    folded = ctx._fold(list(coeffs))
    assert folded == (sparse_fold(ctx, coeffs) if len(coeffs) > ctx.degree else coeffs)
    assert len(ctx._fold_rows) <= _top(n) - ctx.degree + 1


@pytest.mark.parametrize("n", (15, 1260))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_the_fold_at_a_narrow_slot(n, data):
    """At 8-bit slots one packed sum holds less than 2^5 in coefficients
    and the limbs are narrow, and a fold of many terms too wide for one
    sum widens the table before it sums them."""
    ctx = FieldContext(n)
    ctx._slot_bits = 8
    coeffs = data.draw(_coefficients(n))
    many = data.draw(st.booleans())
    if many:
        wide = data.draw(st.integers(2 ** 100, 2 ** 200)) * data.draw(st.sampled_from((1, -1)))
        coeffs += [wide] * (3 * n)
    assert ctx._fold(list(coeffs)) == (sparse_fold(ctx, coeffs) if len(coeffs) > ctx.degree
                                       else coeffs)
    assert ctx._slot_bits > 8 or not many


def test_one_packed_sum_stays_within_its_slots():
    """At 8-bit slots a row coordinate 2 times a coefficient 100 would leave
    its slot: the coefficient is split into limbs."""
    ctx = FieldContext(1260)
    ctx._slot_bits = 8
    k = next(k for k in range(ctx.degree, _top(1260) + 1) if 2 in map(abs, sparse_cosine(ctx, k)))
    coeffs = [0] * k + [100]
    assert ctx._fold(coeffs) == sparse_fold(ctx, coeffs) and ctx._slot_bits == 8


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cosines_and_their_indices(n):
    """cos_element(k, N) is the sparse b_k, and cos_index reads back the one
    j <= N/2 with b_j = x, for x = +-b_k and for two sums that are no
    cosine."""
    ctx = field_context(n)
    half = n // 2
    ks = range(-1, n + 2) if n <= 1260 else sorted({*range(-1, 300), *range(half - 300, half + 2),
                                                    *range(n - 3, n + 2), 577, 1000, 1155})
    cosines = {j: sparse_cosine(ctx, j) for j in range(half + 1)}
    for k in ks:
        x = ctx.cos_element(k, n)
        assert list(x.num) + [0] * (ctx.degree - len(x.num)) == sparse_cosine(ctx, k)
        for y in (x, -x, 2 * x, x + 1):
            coords = list(y.num) + [0] * (ctx.degree - len(y.num))
            expected = next((j for j, c in cosines.items() if c == coords and y.den == 1), None)
            assert ctx.cos_index(y) == expected, (k, y)
    assert ctx.cos_index(ctx.zero) == (n // 4 if n % 4 == 0 else None)
    assert len(ctx._fold_rows) == max(0, _top(n) - ctx.degree + 1)


@pytest.mark.parametrize("n", (105, 1260, 2310))
def test_cos_index_builds_no_row(n):
    """Once cos_element has read a dense b_j, d <= j < N/4 (N/2 for odd N),
    cos_index of b_j, -b_j and b_j + 1 leaves the table as it is: the
    lookup is by residue, and the exact check reads only row j.  b_j + p,
    p the split prime, has the residue of b_j and is no cosine."""
    ctx = FieldContext(n)
    half, j = n // 2, (ctx.degree + _top(n)) // 2
    x = ctx.cos_element(j, n)
    assert sum(map(bool, x.num)) > 2
    built = len(ctx._fold_rows)
    cosines = {k: sparse_cosine(ctx, k) for k in range(half + 1)}
    for y in (x, -x, x + 1, x + ctx.modular_image(0)[0]):
        coords = list(y.num) + [0] * (ctx.degree - len(y.num))
        assert ctx.cos_index(y) == next((k for k, c in cosines.items() if c == coords), None)
        assert len(ctx._fold_rows) == built
    assert ctx.cos_index(x) == j and ctx.cos_index(-x) == (half - j if n % 2 == 0 else None)


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_galois_action_matches_the_sparse_table(n, data):
    ctx = field_context(n)
    num = data.draw(st.lists(_coefficient, min_size=ctx.degree, max_size=ctx.degree))
    x = FieldElement(ctx, num)
    j = data.draw(st.sampled_from([j for j in range(1, n) if math.gcd(j, n) == 1]))
    images = [0] * n
    images[0] = num[0]
    for k, v in enumerate(num[1:], 1):
        images[j * k % n] += v
    assert ctx.galois(j, x) == FieldElement(ctx, sparse_fold(ctx, images))
    if n in (15, 24):
        assert ctx.galois(j, x) == power_galois(ctx, j, x)
