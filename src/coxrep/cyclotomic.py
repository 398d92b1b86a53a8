"""Exact arithmetic in the real cyclotomic field Q(2*cos(2*pi/N)).

Elements are integer coordinate vectors over one positive denominator in
the cosine basis {1, b_1, ..., b_(d-1)}, b_k = 2*cos(2*pi*k/N) and d the
degree.  The basis is a Z-basis of the ring of integers Z[c], c = b_1, and
unitriangular to the power basis of c: b_k = D_k(c) with D_k monic of
degree k (D_0 = 2, D_1 = X, D_(k+1) = X D_k - D_(k-1)).  So the content,
the denominator, rationality, the effective degree and the sign of the top
coordinate are those of the power-basis coordinates, while small values
keep small coordinates.  Every operation is exact and in integers, with
the standard library only; the one float, the nearest float that
``approximate`` gives for display, comes from one integer true division,
and no decision reads it.  Every element is brought to canonical form in
one place, the ``FieldElement`` constructor, and the coordinates of that
form end at the last nonzero one: zero is (0,), a rational is one
coordinate and b_j, 0 < j < d, is j zeros and a one.  Each arithmetic
operation makes at most one element, and none when an operand decides
the result (x + 0, x * 1, x * 0): an int or Fraction operand is read as
one coordinate over its denominator, and subtraction is one pass.

A product costs its nonzero terms or the length of its operands,
whichever is less (``FieldContext._product``).  Sparse operands, such as
the alpha values 2 + b_j and the chord scalars, are multiplied term by
term by b_i b_j = b_(i+j) + b_|i-j|.  Dense ones, read as symmetric
Laurent polynomials x = a_0 + sum a_k (z^k + z^-k) in a primitive N-th
root of unity z, make one Kronecker-packed big-integer product
(``_pack_symmetric``, ``_unpack``) whose coefficient of z^m is the
coordinate of b_m.  Either way, ``FieldContext._fold`` reduces each
index m >= d to +-b_k for its canonical index k, at most N/4 (N/2 for
odd N): a coordinate below d, else a row of a table of one packed integer
per canonical index, read off the palindromic z^-d Phi_N(z) and built by
b_(k+1) = b_1 b_k - b_(k-1) only as far as it is read.  The Galois action
sends b_k to b_(tk mod N), 2*cos(2*pi*k/m) is a basis vector or a table
row, and ``FieldContext.cos_index`` looks a cosine up by its residue modulo
a split prime among those of b_0, ..., b_(N/2), then checks it exactly.

The power basis is kept at the boundary and in ``invert`` only:
``from_coeffs`` (and so ``io.scalar_from_json``) takes power-basis
coordinates and ``power_num`` (``io.scalar_to_json``, ``__str__``) gives
them back, each conversion O(d) packed big-integer steps.
``FieldElement.residue``, the ring map Z[c] -> F_p through the basis
images of ``FieldContext.modular_image`` at split primes p, is the ground
of the modular rank bounds in ``linalg`` and of ``cos_index``.  ``invert``
works in the field of conductor N/g, g the gcd of N and the indices of the
nonzero coordinates: it takes p only, inverts the power-basis image modulo
(psi, p), converts the inverse back, lifts it p-adically, accepts it by the
exact product and maps it back by b_i -> b_(g i).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


class ContextMismatch(ValueError):
    """Two elements from different field contexts were combined."""


class DivisionByZero(ZeroDivisionError):
    """Inversion of the zero element."""


class NonDivisorOrder(ValueError):
    """cos_element was asked for an order that does not divide the conductor."""


class NotCoprime(ValueError):
    """Galois index not coprime to the conductor."""


# ---------------------------------------------------------------------------
# integer/rational polynomials
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored as ints, lowest degree first with the trailing
    zeros trimmed; the zero polynomial has an empty coefficient tuple.  An
    integral Fraction is taken as its numerator; any other raises ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coeffs = []
        for c in coefficients:
            if not isinstance(c, int):
                if Fraction(c).denominator != 1:
                    raise ValueError(f"coefficient {c} is not an integer")
                c = int(c)
            coeffs.append(c)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(out)

    def shifted_argument(self, offset: int) -> "IntPolynomial":
        """Return p(X + offset) expanded exactly."""
        x_shift = IntPolynomial([offset, 1])
        acc = IntPolynomial([])
        for c in reversed(self.coeffs):
            acc = acc * x_shift + IntPolynomial([c])
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({[str(c) for c in self.coeffs]})"


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n: int) -> int:
    primes = prime_factors(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, deterministic for
    n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_prime_above(n: int, floor: int) -> int:
    """The least prime p > floor with p = 1 (mod n)."""
    p = floor + 1 + (-floor) % n
    while not is_prime(p):
        p += n
    return p


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, in integer arithmetic only.

    Phi_n(x) = Phi_r(x^(n/r)) for r = rad(n), and Phi_r is the product of
    (x^d - 1)^mu(r/d) over d | r.  Each factor is sparse, so multiplying
    or dividing by it is one pass over the coefficients; the divisions run
    as power series modulo x^(phi(r)+1), which is exact because the
    product is a polynomial of degree phi(r) (Arnold and Monagan 2011).
    """
    if n < 1:
        raise ValueError("n must be positive")
    primes = prime_factors(n)
    r = math.prod(primes)
    size = euler_phi(r) + 1
    coeffs = [1] + [0] * (size - 1)
    divisors = [(1, 1)]             # (d, mu(d)) over the d | r
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    for d, mu in divisors:
        e = r // d                  # the factor (x^e - 1)^mu(r/e)
        # a_i <- a_(i-e) - a_i multiplies by x^e - 1 when run downward, and
        # divides by it (q_i = q_(i-e) - a_i) when run upward
        for i in (range(size - 1, -1, -1) if mu == 1 else range(size)):
            coeffs[i] = (coeffs[i - e] if i >= e else 0) - coeffs[i]
    spread = [0] * ((size - 1) * (n // r) + 1)
    spread[::n // r] = coeffs
    return IntPolynomial(spread)


def minimal_poly_real_cyclotomic(n: int) -> IntPolynomial:
    """Monic integer polynomial whose roots are 2*cos(2*pi*k/n), gcd(k, n) = 1:
    the minimal polynomial ``field_context(n).min_poly``."""
    return field_context(n).min_poly


# ---------------------------------------------------------------------------
# packed coordinates and the change of basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _bias(step: int, count: int) -> int:
    """2^(8 step - 1) in each of `count` slots of `step` bytes."""
    return int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")


def _slot_bytes(bits: int) -> int:
    """The bytes of a signed slot that holds any integer below 2^bits in
    size."""
    return bits // 8 + 1


def _pack(slots: Sequence[int], step: int) -> int:
    """Kronecker substitution: slot i of `step` bytes holds slots[i], each
    below 2^(8 step - 1) in size."""
    if len(slots) == 1:
        return slots[0]
    raw = b"".join([v.to_bytes(step, "little", signed=True) for v in slots])
    bias = _bias(step, len(slots))
    # a two's complement slot xor 2^(8 step - 1) is the slot plus that bias
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _pack_symmetric(coords: Sequence[int], step: int) -> int:
    """The packing of a_0 + sum a_k (z^k + z^-k): slot L - 1 + k holds
    a_|k| for |k| < L = len(coords)."""
    return _pack([*coords[:0:-1], *coords], step)


# struct codes of the signed little-endian slots that are machine integers
_MACHINE_SLOTS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _slots(value: int, step: int, count: int) -> Sequence[int]:
    """The `count` slots of `step` bytes of a packed value, each below
    2^(8 step - 1) in size; a memoryview of machine integers where they
    fit."""
    bias = _bias(step, count)
    raw = ((value + bias) ^ bias).to_bytes(step * count, "little")
    code = _MACHINE_SLOTS.get(step)
    if code:
        return memoryview(raw).cast(code)
    return [int.from_bytes(raw[o:o + step], "little", signed=True)
            for o in range(0, step * count, step)]


def _unpack(value: int, step: int, count: int, skip: int = 0) -> list[int]:
    """Slots skip, ..., skip + count - 1 of a packed value that has no
    slots beyond them (``_slots``), as a list."""
    if skip:
        value = ((value + _bias(step, skip + count)) >> (8 * step * skip)) - _bias(step, count)
    slots = _slots(value, step, count)
    return slots if type(slots) is list else slots.tolist()


def _trimmed(coords: Sequence[int]) -> int:
    """The number of coordinates up to the last nonzero one, at least 1."""
    n = len(coords)
    while n > 1 and not coords[n - 1]:
        n -= 1
    return n


def _cosine_to_power(coords: Sequence[int]) -> list[int]:
    """The power-basis coordinates of a_0 + sum a_k D_k(X), up to the last
    nonzero one, by Clenshaw's recurrence on packed integers:
    y_k = a_k + X y_(k+1) - y_(k+2), the sum a_0 + X y_1 - 2 y_2.  A slot of
    y_k is at most the sum of the sizes of a_k and the slots of y_(k+1) and
    y_(k+2): below max |a_k| 2^(n+2) in all."""
    n = _trimmed(coords)
    step = _slot_bytes(max(map(abs, coords[:n])).bit_length() + n + 2)
    width = 8 * step
    y1 = y2 = 0
    for v in reversed(coords[1:n]):
        y1, y2 = v + (y1 << width) - y2, y1
    return _unpack(coords[0] + (y1 << width) - 2 * y2, step, n)


def _power_to_cosine(coeffs: Sequence[int]) -> list[int]:
    """The cosine coordinates of sum p_k c^k, up to the last nonzero one, by
    Horner's rule on the symmetric packing: multiplying by c = z + 1/z adds
    the packing shifted up one slot to it shifted down (exactly: slot 0
    stays empty until the last step).  A slot at most doubles and gains
    max |p_k| per step: below max |p_k| 2^n in all."""
    n = _trimmed(coeffs)
    step = _slot_bytes(max(map(abs, coeffs[:n])).bit_length() + n)
    width = 8 * step
    unit = 1 << (width * (n - 1))           # z^0 sits in slot n - 1
    v = 0
    for c in reversed(coeffs[:n]):
        v = (v << width) + (v >> width) + c * unit
    return _unpack(v, step, n, n - 1)


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

def _normalize(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    num = num[:_trimmed(num)]
    if den < 0:
        num = [-v for v in num]
        den = -den
    if den != 1:
        g = den
        for v in num:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            num = [v // g for v in num]
            den //= g
    if not num[-1]:
        den = 1
    return tuple(num), den


def _inverse_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...] | None:
    """The residues mod p, lowest degree first, of the t with t*a = 1 modulo
    (m, p) for a monic m, by the extended Euclid over F_p; None when a is
    not a unit there."""
    r0, r1 = [v % p for v in m], [v % p for v in a]
    t0, t1 = [], [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) < 2:
            break
        inv = pow(r1[-1], -1, p)
        t = t0 + [0] * (len(r0) - len(r1) + len(t1) - len(t0))
        while len(r0) >= len(r1):       # r0 <- r0 - f x^k r1, t <- t - f x^k t1
            f = r0[-1] * inv % p
            k = len(r0) - len(r1)
            r0 = r0[:k] + [(x - f * y) % p for x, y in zip(r0[k:-1], r1)]
            t[k:k + len(t1)] = [(x - f * y) % p for x, y in zip(t[k:k + len(t1)], t1)]
        r0, r1, t0, t1 = r1, r0, t1, t
    if not r1:
        return None
    inv = pow(r1[0], -1, p)
    return tuple(v * inv % p for v in t1)


def _reconstruct(residues: Sequence[int], q: int) -> tuple[tuple[int, ...], int] | None:
    """Integers u_i and D > 0 with u_i = D*y_i (mod q) and 2 D |u_i| < q,
    proposed from the residues y_i, or None.  Each residue times the D of
    those before becomes the fraction r/t before the largest quotient of
    the extended Euclid on q and it (Monagan 2004), and D takes on |t|.  If
    u/D is the answer and q > 2 U D (max(U, D) + 1), U = max |u_i|, each
    fraction is in the remainder sequence (Wang 1981) with the largest
    quotient, so the proposal is u/D."""
    den = 1
    for y in residues:
        r0, r1, t0, t1 = q, den * y % q, 0, 1
        most, r, t = 0, 0, 1
        while r1 and r0 > most:         # no later quotient exceeds r0
            f = r0 // r1
            if f > most:
                most, r, t = f, r1, t1
            r0, r1, t0, t1 = r1, r0 - f * r1, t1, t0 - f * t1
        den *= abs(t)
        if 2 * den * r >= q:
            return None
    u = tuple(v - q if 2 * v > q else v for v in (den * y % q for y in residues))
    return (u, den) if all(2 * den * abs(v) < q for v in u) else None


class FieldContext:
    """Arithmetic context for Q(2*cos(2*pi/N)); immutable and shareable.

    Construct through :func:`field_context`, which caches one instance per
    conductor so identity comparison is meaningful.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        self.N = n
        self.degree = euler_phi(n) // 2 if n > 2 else 1
        # The caches keep integers, never a FieldElement: an element refers
        # to its context, so one held here would make a reference cycle,
        # and a context dropped from field_context's cache would then wait,
        # caches and all, for the cycle collector.
        # the fold table (_rows), and the index j of the residue of each
        # b_j, j <= N/2, modulo the first split prime (cos_index)
        self._fold_rows: list[int] = []
        self._cos_residues: dict[int, int] = {}
        self._slot_bits = 64
        self._min_poly: IntPolynomial | None = None
        self._approx_cache: dict[int, list[int]] = {}
        self._modular: list[tuple[int, tuple[int, ...]]] = []

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N}, degree={self.degree})"

    @property
    def min_poly(self) -> IntPolynomial:
        """The minimal polynomial psi of c, made on first use: for N >= 3,
        z^-d Phi_N(z) = a_d + sum a_(d+i) (z^i + z^-i), Phi_N = sum a_i z^i
        palindromic of degree 2d, written in c; X -+ 2 for N = 1, 2."""
        if self._min_poly is None:
            self._min_poly = IntPolynomial(
                _cosine_to_power(cyclotomic_polynomial(self.N).coeffs[self.degree:])
                if self.N > 2 else [-2 if self.N == 1 else 2, 1])
        return self._min_poly

    # -- constructors -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,), 1, _normalized=True)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,), 1, _normalized=True)

    def from_rational(self, value: Fraction | int) -> "FieldElement":
        q = value if type(value) is int else Fraction(value)
        return FieldElement(self, (q.numerator,), q.denominator, _normalized=True)

    def from_coeffs(self, coefficients: Sequence[Fraction | int]) -> "FieldElement":
        """Element from power-basis coordinates (length <= degree)."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = _power_to_cosine([c.numerator * (den // c.denominator) for c in coeffs] or [0])
        return FieldElement(self, num, den)

    @property
    def generator(self) -> "FieldElement":
        """The element c = 2*cos(2*pi/N), the basis vector b_1 (for degree
        1, N in {1, 2, 3, 4, 6}, the rational c)."""
        return self.cos_element(1, self.N)

    # -- special values ----------------------------------------------------

    def cos_element(self, k: int, m: int) -> "FieldElement":
        """2*cos(2*pi*k/m) = +-b_j, j the canonical index of kN/m (m | N): a
        basis vector below the degree, else a fold-table row (``_fold_into``)."""
        if m < 1 or self.N % m != 0:
            raise NonDivisorOrder(f"order {m} does not divide conductor {self.N}")
        sign, j = self._canonical(k % m * (self.N // m))
        if j >= self.degree:
            return FieldElement(self, self._fold_into([0] * self.degree, [(j, sign)]))
        return FieldElement(self, (0,) * j + (sign,) if j else (2 * sign,), _normalized=True)

    def cos_index(self, x: "FieldElement") -> int | None:
        """The j with 0 <= j <= N/2 and x == cos_element(j, N), or None.  The
        residue of an integral x (``FieldElement.residue(0)``) is looked up
        among those of b_0, ..., b_(N/2), made once by
        b_(j+1) = c_p b_j - b_(j-1) with c_p the residue of c, and distinct
        as z has order N; the candidate is accepted only by the exact
        comparison, which folds a table row only when its canonical index
        is at least the degree."""
        if x.ctx is not self:
            raise ContextMismatch("element belongs to a different context")
        if x.den != 1:
            return None
        index = self._cos_residues
        if not index:
            p, c = self.modular_image(0)[0], self.generator.residue(0)
            prev, cur = 2, c
            for j in range(self.N // 2 + 1):
                index[prev] = j
                prev, cur = cur, (c * cur - prev) % p
        j = index.get(x.residue(0))
        return j if j is not None and x == self.cos_element(j, self.N) else None

    # -- the fold of b_m, m >= degree ------------------------------------------

    def _canonical(self, m: int) -> tuple[int, int]:
        """The sign s and canonical index k with b_m = s b_k, k at most N/4
        (N/2 for odd N): b_m = b_(m mod N) = b_(N - m mod N), and for even N
        with 4k > N, b_k = -b_(N/2-k), as z^(N/2) = -1."""
        n = self.N
        m %= n
        if 2 * m > n:
            m = n - m
        if 4 * m > n and n % 2 == 0:
            return -1, n // 2 - m
        return 1, m

    def _rows(self, top: int) -> list[int]:
        """The fold table as far as the canonical top, built only as far as
        `_fold_into`, its one reader, reads it: entry k - degree packs
        coordinate i of b_k in slot i of `_slot_bits` = w bits.  Row d is
        -a_d - sum a_(d+i) b_i off z^-d Phi_N(z) = 0; row k + 1 is
        b_1 b_k - b_(k-1): row k shifted up one slot and down one, its
        slot 1 again (b_1 b_1 = b_2 + 2), minus row k - 1, with slot d
        folded by row d.  Rows within 2^(w/4) keep those sums below
        2^(w-1); a mask test checks each new row, and one that fails
        rebuilds the table at twice the width."""
        rows = self._fold_rows
        d = self.degree
        while len(rows) <= top - d:
            w = self._slot_bits
            ones = ((1 << (w * d)) - 1) // ((1 << w) - 1)     # 1 in each slot
            bias, outside = ones << (w // 4), ~(((2 << (w // 4)) - 1) * ones)
            low, sign, overflow = (1 << w) - 1, 1 << (w - 1), 1 << (w * d)
            while len(rows) <= top - d:
                if not rows:
                    coords = [-a for a in cyclotomic_polynomial(self.N).coeffs[d:2 * d]]
                    if max(map(abs, coords)) >> (w - 1):
                        self._widen()
                        break
                    row = _pack(coords, w // 8)
                else:
                    cur = rows[-1]
                    # b_(k-1); for k = d, b_(d-1), a unit vector or b_0 = 2
                    prev = rows[-2] if len(rows) > 1 else 1 << (w * (d - 1)) if d > 1 else 2
                    first = ((cur & low) ^ sign) - sign
                    down = (cur - first) >> w
                    top_slot = (cur + (overflow >> w >> 1)) >> (w * (d - 1))
                    row = ((cur << w) + down + (((down & low) ^ sign) - sign) - prev
                           + top_slot * (rows[0] - overflow))
                if (row + bias) & outside:
                    self._widen()
                    break
                rows.append(row)
        return rows

    def _widen(self) -> None:
        """Double the table's slot width; its rows are rebuilt as read."""
        self._slot_bits *= 2
        self._fold_rows.clear()

    def _fold(self, coeffs: list[int]) -> list[int]:
        """The coordinates, at most `degree`, of sum coeffs[m] b_m, with
        coeffs[0] the coordinate of 1."""
        d = self.degree
        if len(coeffs) <= d:
            return coeffs
        return self._fold_into(coeffs[:d], enumerate(coeffs[d:], d))

    def _fold_into(self, out: list[int], terms: Iterable[tuple[int, int]]) -> list[int]:
        """out, `degree` coordinates, plus those of sum v b_m over the (m, v)
        in terms, each b_m = s b_k for its canonical k (b_0 = 2): coordinate
        k, or table row k in one packed sum, one multiply-add per row and
        one unpack.  Rows within 2^(w/4) keep a slot below 2^(w-1) while the
        |v| sum stays below 2^(w-1-w/4); past that, coefficients are split
        into limbs of l = w - 1 - w/4 - bitlength(T) bits for T rows, a sum
        each."""
        d = self.degree
        high = []
        for m, v in terms:
            if v:
                sign, m = self._canonical(m)
                if m >= d:
                    high.append((m, sign * v))
                elif m:
                    out[m] += sign * v
                else:
                    out[0] += 2 * sign * v
        if not high:
            return out
        rows = self._fold_rows
        top = max(high)[0]
        if top - d >= len(rows):
            self._rows(top)
        acc = total = 0
        for k, v in high:
            acc += v * rows[k - d]
            total += abs(v)
        width = self._slot_bits
        if total >> (width - 1 - width // 4) == 0:
            return list(map(operator.add, out, _slots(acc, width // 8, d))) if acc else out
        while (bits := width - 1 - width // 4 - len(high).bit_length()) < 1:
            self._widen()
            self._rows(top)
            width = self._slot_bits
        mask = (1 << bits) - 1
        for shift in range(0, max(abs(v) for _, v in high).bit_length(), bits):
            acc = 0
            for k, v in high:
                limb = (abs(v) >> shift) & mask
                acc += (limb if v > 0 else -limb) * rows[k - d]
            if acc:
                out = [u + (s << shift) for u, s in zip(out, _slots(acc, width // 8, d))]
        return out

    def _product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The coordinates of the product of two integral elements, by the
        kernel that costs less for these operands; both give the same
        coefficients to the fold.  The term kernel costs about 0.13 us per
        pair of nonzero coordinates, the packed one about 0.52 us per
        coordinate of the two operands (N = 336 and 1260, 8-bit
        coordinates, CPython 3.11 on a 2-core x86-64 VM; 0.62 us at N = 84
        and more at lower degree, where the fixed cost of packing weighs
        more), so the term kernel is taken while the pairs are at most 4
        times the coordinates: the measured crossover lay between 4 and
        5.5 times at d = 12 to 144."""
        a, b = a[:_trimmed(a)], b[:_trimmed(b)]
        if (len(a) - a.count(0)) * (len(b) - b.count(0)) <= 4 * (len(a) + len(b)):
            return self._term_product(a, b)
        return self._packed_product(a, b)

    def _term_product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The product of trimmed coordinates, one step per pair of nonzero
        terms u b_i, v b_j, by b_i b_j = b_(i+j) + b_|i-j| (b_0 = 2, while
        coordinate 0 is the coefficient of 1), then the fold."""
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, v) for j, v in enumerate(b) if v]
        for i, u in [(i, u) for i, u in enumerate(a) if u]:
            for j, v in terms:
                w = u * v
                out[i + j] += w
                if i and j:
                    out[abs(i - j)] += w if i != j else 2 * w
        return self._fold(out)

    def _packed_product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The product of trimmed coordinates: one packed product of their
        symmetric Laurent polynomials, whose coefficients of z^0, z^1, ...
        are the coordinates of 1, b_1, ..., then the fold."""
        top = len(a) + len(b) - 2
        # a coefficient is at most (2 sum |a_k|)(2 sum |b_k|) in size
        step = _slot_bytes(sum(map(abs, a)).bit_length() + sum(map(abs, b)).bit_length() + 2)
        value = _pack_symmetric(a, step) * _pack_symmetric(b, step)
        return self._fold(_unpack(value, step, top + 1, top))

    # -- reduction modulo split primes ---------------------------------------

    def modular_image(self, k: int) -> tuple[int, tuple[int, ...]]:
        """The k-th split prime p (k = 0, 1, ...) and the images mod p of the
        basis 1, b_1, ..., b_(degree-1).

        The primes are those above 2^31 with p = 1 (mod N), ascending.  F_p
        then holds a primitive N-th root of unity z, and b_j -> z^j + z^-j
        extends to a ring map from the elements whose denominator p does not
        divide onto F_p: it sends c to c_p = z + 1/z, a root of psi mod p.
        """
        while len(self._modular) <= k:
            qs = prime_factors(self.N)
            p = _split_prime_above(self.N, self._modular[-1][0] if self._modular
                                   else 2 ** 31)
            z = next(z for z in (pow(a, (p - 1) // self.N, p) for a in range(2, p))
                     if all(pow(z, self.N // q, p) != 1 for q in qs))
            z_inv = pow(z, -1, p)
            images, up, down = [1], 1, 1
            for _ in range(self.degree - 1):
                up, down = up * z % p, down * z_inv % p
                images.append((up + down) % p)
            self._modular.append((p, tuple(images)))
        return self._modular[k]

    # -- Galois action -----------------------------------------------------

    def galois_index(self, j: int) -> int:
        """Canonical representative of the automorphism c -> 2*cos(2*pi*j/N).

        j and N - j induce the same map on the real subfield, so the
        canonical index is the smaller of the two residues.
        """
        if self.N == 1:
            return 1
        if math.gcd(j, self.N) != 1:
            raise NotCoprime(f"index {j} not coprime to conductor {self.N}")
        j %= self.N
        if self.N == 2:
            return 1
        return min(j, self.N - j)

    def galois(self, j: int, x: "FieldElement") -> "FieldElement":
        """The automorphism b_k -> b_(jk mod N), each image folded
        (``_fold_into``)."""
        if x.ctx is not self:
            raise ContextMismatch("element belongs to a different context")
        j = self.galois_index(j)
        if j == 1 or x.is_rational():
            return x
        out = [x.num[0]] + [0] * (self.degree - 1)
        images = ((j * k, v) for k, v in enumerate(x.num) if k)
        return FieldElement(self, self._fold_into(out, images), x.den)

    # -- numerics ----------------------------------------------------------

    def _cosines(self, precision_bits: int) -> list[int]:
        """2^precision_bits times 1, b_1, ..., b_(degree-1), each within 2
        of the exact value.  The recurrence b_(k+1) = c b_k - b_(k-1) runs
        in integers with 2 log2(N) + 8 guard bits: an error made at one of
        its fewer than N/2 steps reaches a later b_k at most
        1/sin(2 pi/N) <= N/2 times over."""
        guard = 2 * self.N.bit_length() + 8
        scale = precision_bits + guard
        c = _two_cos_fixed(self.N, scale)
        prev, cur = 2 << scale, c
        out = [1 << precision_bits]
        for _ in range(self.degree - 1):
            out.append(cur >> guard)
            prev, cur = cur, ((c * cur) >> scale) - prev
        return out


@lru_cache(maxsize=64)
def _pi_fixed(w: int) -> int:
    """pi * 2^w by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), two
    terms a step, each floored."""
    one = 1 << w

    def atan_inv(x: int) -> int:      # atan(1/x) = sum (-1)^k / ((2k+1) x^(2k+1))
        total, power, k = 0, one // x, 1
        while power:
            total += power // k - power // (x * x * (k + 2))
            power //= x ** 4
            k += 4
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _two_cos_fixed(n: int, bits: int) -> int:
    """2*cos(2*pi/n) * 2^bits within one unit, in integers.  pi comes from
    ``_pi_fixed``, made once per working width; the angle
    2 pi/n < 2^(4 - bitlength(n)) is halved r times, to below
    2^(4 - isqrt(bits/2)), its cosine summed from the Taylor series, and
    doubled back r times by cos 2x = 2 cos^2 x - 1, all floored in fixed
    point with 2r + 32 guard bits.  A doubling multiplies an error by at
    most 4 and adds one unit, which the 2r bits absorb; for bits below
    10^5 the floors of the series, about one per term, and of pi err by
    less than 2^30 of the remaining units in all."""
    r = max(0, math.isqrt(bits // 2) - n.bit_length())
    w = bits + 32 + 2 * r
    one = 1 << w
    theta = 2 * _pi_fixed(w) // (n << r)
    square = theta * theta >> w
    total, term, k = one, one, 0
    while term:                       # term = theta^k / k!
        k += 2
        term = (term * square >> w) // (k * (k - 1))
        total += term if k % 4 == 0 else -term
    for _ in range(r):
        total = (total * total >> (w - 1)) - one
    return (total + (1 << (30 + 2 * r))) >> (31 + 2 * r)


@lru_cache(maxsize=None)
def field_context(n: int) -> FieldContext:
    """Shared context for conductor n (one instance per conductor)."""
    return FieldContext(n)


class FieldElement:
    """Immutable element of a real cyclotomic field.

    Stored as an integer coordinate vector over a single positive
    denominator, normalized so gcd(content, den) = 1 and the vector ends at
    its last nonzero coordinate (zero is (0,)): an element is rational
    exactly when it has one coordinate.  The constructor is the one place
    that normalizes: it takes integer coordinates over any nonzero
    denominator, and an integral one (den 1) needs no gcd.  `_normalized`,
    private to this module, skips that for values already in canonical
    form: rationals, zero, one, negations, and the sums and multiples by
    an integer that the arithmetic shows to be canonical.  `num` holds
    cosine-basis coordinates; `power_num` converts them to the power basis.

    Each of +, -, * and == makes at most one element.  An int or Fraction
    operand is read as one coordinate over its denominator, never built as
    an element; x - y and k - x are one pass, with no negated operand; and
    an operand that decides the result is returned itself, as elements are
    immutable: x + 0, 0 + x, x * 1 and x * 0 (the zero operand) make no
    element, x * -1 makes the one negation, and x == k makes none.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, num: Sequence[int], den: int = 1,
                 _normalized: bool = False):
        if not _normalized:
            num, den = _normalize(num, den)
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num[-1]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return len(self.num) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True when the element lies in Z[c] (integer coordinates)."""
        return self.den == 1

    def residue(self, k: int) -> int | None:
        """The image in F_p under the ring map of the k-th split prime p
        (FieldContext.modular_image), or None when p divides den."""
        p, images = self.ctx.modular_image(k)
        if self.den % p == 0:
            return None
        return sum(map(operator.mul, self.num, images)) * pow(self.den, -1, p) % p

    @property
    def power_num(self) -> tuple[int, ...]:
        """The `degree` integer power-basis coordinates of num (over den)."""
        coeffs = self.num if self.is_rational() else tuple(_cosine_to_power(self.num))
        return coeffs + (0,) * (self.ctx.degree - len(coeffs))

    @property
    def effective_degree(self) -> int:
        return len(self.num) - 1

    # -- arithmetic -----------------------------------------------------------

    def _operand(self, other):
        """The coordinates and denominator of an element of this context, an
        int or a Fraction, with no element made; None for any other type."""
        if type(other) is FieldElement:
            if other.ctx is not self.ctx:
                raise ContextMismatch("elements from different field contexts")
            return other.num, other.den
        if type(other) is int:
            return (other,), 1
        if type(other) is not Fraction:
            if not isinstance(other, (int, Fraction)):
                return None
            other = Fraction(other)
        return (other.numerator,), other.denominator

    def _linear(self, other, a: int, b: int):
        """a*self + b*other for signs a and b, in one pass; an element
        operand itself when self is zero and b = 1, and self when other is
        zero and a = 1.  An integer k keeps the denominator D and is
        canonical as it stands: k D changes only coordinate 0, so the gcd of
        the coordinates with D is unchanged."""
        o = self._operand(other)
        if o is None:
            return NotImplemented
        num, den = o
        x, d = self.num, self.den
        if not x[-1] and type(other) is FieldElement:
            return other if b == 1 else -other
        if len(num) == 1 and den == 1:
            if not num[0]:
                return self if a == 1 else -self
            head = a * x[0] + b * num[0] * d
            if len(x) == 1:
                return FieldElement(self.ctx, (head,), d if head else 1, _normalized=True)
            rest = x[1:] if a == 1 else [-v for v in x[1:]]
            return FieldElement(self.ctx, (head, *rest), d, _normalized=True)
        g = math.gcd(d, den)
        fa, fb = den // g * a, d // g * b
        return FieldElement(self.ctx, [u * fa + v * fb for u, v in
                                       itertools.zip_longest(x, num, fillvalue=0)],
                            d * (den // g))

    def __add__(self, other):
        return self._linear(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._linear(other, 1, -1)

    def __rsub__(self, other):
        return self._linear(other, -1, 1)

    def __neg__(self):
        if not self.num[-1]:
            return self
        return FieldElement(self.ctx, tuple(-v for v in self.num), self.den,
                            _normalized=True)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        num, den = o
        if len(num) > 1 and len(self.num) > 1:
            return FieldElement(self.ctx, self.ctx._product(self.num, num), self.den * den)
        if not self.num[-1]:
            return self
        if len(num) == 1:       # self times p/q
            x, p, q = self, num[0], den
            if not p:
                return other if type(other) is FieldElement else self.ctx.zero
        else:                   # other times self, a nonzero rational
            x, p, q = other, self.num[0], self.den
        if p == q:
            return x
        if p == -q:
            return -x
        g = math.gcd(p, x.den)
        if q == 1:              # p/g is prime to den/g, and den to the content
            return FieldElement(self.ctx, tuple([v * (p // g) for v in x.num]),
                                x.den // g, _normalized=True)
        return FieldElement(self.ctx, [v * (p // g) for v in x.num], x.den // g * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if type(other) is not FieldElement:
            other = FieldElement(self.ctx, *o, _normalized=True)
        return self * other.invert()

    def __rtruediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self.invert() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.invert() ** (-k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self) -> "FieldElement":
        """Multiplicative inverse, found modulo a split prime and lifted in
        the subfield that the indices of the element show to hold it.

        With the element num/den, num in Z[c], let g be the gcd of N and the
        indices k >= 1 of the nonzero coordinates.  b_(g i) at conductor N is
        b_i at conductor N/g, so num is the image of num[::g] (canonical
        there: g i < d gives i < d/g <= phi(N/g)/2) under the injective ring
        map b_i -> b_(g i).  In that field (this one for g = 1) the
        power-basis image of num is inverted modulo (psi, p) by an integer
        extended Euclid, for the first split prime p of
        FieldContext.modular_image at which it is a unit, and brought back
        to the cosine basis (both conversions exact, the result then reduced
        mod p).  Newton's iteration y <- y(2 - num*y), each product reduced
        mod q, squares the modulus q = p^(2^k) (von zur Gathen and Gerhard,
        Modern Computer Algebra, ch. 9).  At each q, _reconstruct proposes
        num^-1 = u/D; it is taken only when the exact product num*u equals
        D, and mapped back by one ``_fold_into`` of its terms (g i, v): the
        map is a ring map, so num*u = D holds here too.  Z[c] is the ring of
        integers, so D divides the norm of num, and a large enough q
        proposes the inverse: the loop ends, with no fallback.
        """
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        if self.is_rational():
            return self.ctx.from_rational(1 / self.as_fraction())
        g = math.gcd(self.ctx.N, *(k for k, v in enumerate(self.num) if k and v))
        ctx = self.ctx if g == 1 else field_context(self.ctx.N // g)
        num = self.num[::g]
        for k in itertools.count():
            q = ctx.modular_image(k)[0]
            y = _inverse_mod(_cosine_to_power(num), ctx.min_poly.coeffs, q)
            if y is not None:
                break
        y = [v % q for v in _power_to_cosine(y)]
        while True:
            found = _reconstruct(y, q)
            if found is not None and \
                    ctx._product(num, found[0]) == [found[1]] + [0] * (ctx.degree - 1):
                u, den = found
                if g > 1:
                    u = self.ctx._fold_into([u[0]] + [0] * (self.ctx.degree - 1),
                                            ((g * i, v) for i, v in enumerate(u[1:], 1)))
                return FieldElement(self.ctx, [v * self.den for v in u], den)
            q *= q
            error = [-v % q for v in ctx._product(num, y)]
            error[0] = (error[0] + 2) % q
            y = [v % q for v in ctx._product(y, error)]

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is FieldElement:
            return other.ctx is self.ctx and self.num == other.num and self.den == other.den
        o = self._operand(other)
        return NotImplemented if o is None else (self.num, self.den) == o

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.num, self.den))

    # -- numerics -------------------------------------------------------------

    def approximate(self) -> float:
        """The nearest float, or +-inf beyond the float range.

        A rational is num_0 / den itself.  Otherwise acc, num times the
        context's fixed-point cosines at 2^work, is within 2 sum |num| units
        of 2^work num; work grows until that bound is 2^-84 of |acc|, and one
        correctly rounded integer division, acc / (den << work), gives the
        float, the nearest unless the value is within 2^-84 of a tie.  The
        context keeps only the cosines of the precision it accepts, and a
        rational builds none.
        """
        num = self.num
        acc, work = num[0], 0
        if len(num) > 1:
            cache = self.ctx._approx_cache
            error = 2 * sum(map(abs, num))
            work = error.bit_length() + 84
            while True:
                work = -(-work // 64) * 64
                cosines = cache.get(work) or self.ctx._cosines(work)
                acc = sum(v * b for v, b in zip(num, cosines) if v)
                if abs(acc) >= error << 84:
                    break
                work += max(64, error.bit_length() + 84 - abs(acc).bit_length())
            cache[work] = cosines
        try:
            return acc / (self.den << work)
        except OverflowError:
            return math.inf if acc > 0 else -math.inf

    def __float__(self) -> float:
        return self.approximate()

    # -- display ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldElement({self}, N={self.ctx.N})"

    def __str__(self) -> str:
        terms = []
        num = self.power_num
        for i in range(len(num) - 1, -1, -1):
            v = num[i]
            if not v:
                continue
            var = "" if i == 0 else ("c" if i == 1 else f"c^{i}")
            mag = abs(v)
            body = f"{mag}" if (i == 0 or mag != 1) else ""
            sep = "*" if body and var else ""
            sign = ("-" if v < 0 else "") if not terms else (" - " if v < 0 else " + ")
            terms.append(f"{sign}{body}{sep}{var}")
        if not terms:
            return "0"
        poly = "".join(terms)
        if self.den == 1:
            return poly
        if len([v for v in num if v]) > 1:
            return f"({poly})/{self.den}"
        return f"{poly}/{self.den}"
