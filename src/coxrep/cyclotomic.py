"""Exact arithmetic in the real cyclotomic field Q(2*cos(2*pi/N)).

Elements are rational coordinate vectors in the power basis of
c = 2*cos(2*pi/N), reduced modulo the minimal polynomial of c.  Every
operation is exact; floating point only enters through ``approximate``,
which exists for display and cross-checking, never for decisions.
``FieldContext.modular_image`` maps c into F_p for split primes p, the
ground of the modular rank bounds in ``linalg``.
"""

from __future__ import annotations

import math
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
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with the trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coeffs = [Fraction(c) for c in coefficients]
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

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

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

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial | int | Fraction") -> "IntPolynomial":
        if isinstance(other, (int, Fraction)):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
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

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float and FieldElement."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if isinstance(x, FieldElement):
            if acc is None:
                return x.ctx.zero
            if not isinstance(acc, FieldElement):
                return x.ctx.from_rational(acc)
        elif acc is None:
            return type(x)(0)
        return acc

    def shifted_argument(self, offset: int) -> "IntPolynomial":
        """Return p(X + offset) expanded exactly."""
        x_shift = IntPolynomial([offset, 1])
        acc = IntPolynomial([])
        for c in reversed(self.coeffs):
            acc = acc * x_shift + IntPolynomial([c])
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({self!s})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            mag = abs(c)
            body = f"{mag}" if (i == 0 or mag != 1) else ""
            sep = "*" if (body and term) else ""
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            parts.append(f"{sign}{body}{sep}{term}" if (body or term) else f"{sign}{mag}")
        return "".join(parts)


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


@lru_cache(maxsize=None)
def minimal_poly_real_cyclotomic(n: int) -> IntPolynomial:
    """Monic integer polynomial whose roots are 2*cos(2*pi*k/n), gcd(k, n) = 1.

    For n >= 3 the n-th cyclotomic polynomial is palindromic of even degree
    2d, so z^-d * Phi_n(z) rewrites exactly as a degree-d polynomial in
    y = z + 1/z; that polynomial is returned.  It is summed in integers
    from the D_j with D_j(z + 1/z) = z^j + z^-j, by the three-term
    recurrence D_0 = 2, D_1 = y, D_(j+1) = y*D_j - D_(j-1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPolynomial([-2, 1])
    if n == 2:
        return IntPolynomial([2, 1])
    a = [int(c) for c in cyclotomic_polynomial(n).coeffs]
    d = len(a) // 2
    assert len(a) == 2 * d + 1 and a == a[::-1], \
        "cyclotomic polynomial must be palindromic"
    result = [a[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for i in range(1, d + 1):
        for k, v in enumerate(cur):
            result[k] += a[d + i] * v
        nxt = [0] + cur
        for k, v in enumerate(prev):
            nxt[k] -= v
        prev, cur = cur, nxt
    assert result[d] == 1
    return IntPolynomial(result)


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-v for v in num]
        den = -den
    g = den
    for v in num:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        num = [v // g for v in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


class FieldContext:
    """Arithmetic context for Q(2*cos(2*pi/N)); immutable and shareable.

    Construct through :func:`field_context`, which caches one instance per
    conductor so identity comparison is meaningful.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        self.N = n
        self.min_poly = minimal_poly_real_cyclotomic(n)
        self.degree = self.min_poly.degree
        assert self.degree == (euler_phi(n) // 2 if n > 2 else 1)
        psi = tuple(int(c) for c in self.min_poly.coeffs)
        self._psi = psi
        d = self.degree
        # reduction rows: integer coordinates of c^(d+e) for e = 0..d-2
        rows: list[tuple[int, ...]] = []
        cur = [-psi[i] for i in range(d)]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(d):
                    cur[i] += top * rows[0][i]
            rows.append(tuple(cur))
        self._red = tuple(rows)
        # The caches keep integer coordinates, never a FieldElement: an
        # element refers to its context, so one held here would make a
        # reference cycle, and a context dropped from field_context's cache
        # would then wait, caches and all, for the cycle collector.
        self._cos_cache: dict[int, tuple[int, ...]] = {}
        self._galois_pow_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._approx_cache: dict[int, object] = {}
        self._modular: list[tuple[int, tuple[int, ...]]] = []

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N}, degree={self.degree})"

    # -- constructors -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree, 1, _normalized=True)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1, _normalized=True)

    def from_rational(self, value: Fraction | int) -> "FieldElement":
        q = Fraction(value)
        num = [q.numerator] + [0] * (self.degree - 1)
        return FieldElement(self, *_normalize(num, q.denominator))

    def from_coeffs(self, coefficients: Sequence[Fraction | int]) -> "FieldElement":
        """Element from power-basis coordinates (length <= degree)."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = [int(c * den) for c in coeffs]
        return FieldElement(self, *_normalize(num, den))

    @property
    def generator(self) -> "FieldElement":
        """The element c = 2*cos(2*pi/N)."""
        if self.degree == 1:
            # rational field (N in {1, 2, 3, 4, 6}); c is the root of the
            # linear minimal polynomial
            return self.from_rational(-self.min_poly.coeffs[0])
        return self.from_coeffs([0, 1])

    # -- special values ----------------------------------------------------

    def cos_element(self, k: int, m: int) -> "FieldElement":
        """The element 2*cos(2*pi*k/m); requires m | N."""
        if m < 1 or self.N % m != 0:
            raise NonDivisorOrder(f"order {m} does not divide conductor {self.N}")
        j = (k % m) * (self.N // m)
        j = min(j, self.N - j) if j else 0  # cosine parity: 2cos(2pi j/N) = 2cos(2pi (N-j)/N)
        if j not in self._cos_cache:
            # iterative three-term recurrence, reduced in the field at every
            # step; every value lies in Z[c], so its denominator is 1
            c = self.generator
            prev, cur = self.from_rational(2), c
            self._cos_cache.setdefault(0, prev.num)
            for i in range(1, j + 1):
                if i > 1:
                    prev, cur = cur, c * cur - prev
                self._cos_cache.setdefault(i, cur.num)
        return FieldElement(self, self._cos_cache[j], 1, _normalized=True)

    def _reduce_product(self, conv: list[int]) -> list[int]:
        d = self.degree
        for idx in range(len(conv) - 1, d - 1, -1):
            co = conv[idx]
            if co:
                row = self._red[idx - d]
                for i in range(d):
                    conv[i] += co * row[i]
        return conv[:d]

    # -- reduction modulo split primes ---------------------------------------

    def modular_image(self, k: int) -> tuple[int, tuple[int, ...]]:
        """The k-th split prime p (k = 0, 1, ...) and the powers c_p^i mod p,
        i < degree, of the image c_p of c.

        The primes are those above 2^31 with p = 1 (mod N), ascending.  F_p
        then holds a primitive N-th root of unity z, and c_p = z + 1/z is a
        root of the minimal polynomial mod p, so c -> c_p extends to a ring
        map from the elements whose denominator p does not divide onto F_p.
        """
        qs = prime_factors(self.N)
        while len(self._modular) <= k:
            p = _split_prime_above(self.N, self._modular[-1][0] if self._modular
                                   else 2 ** 31)
            z = next(z for z in (pow(a, (p - 1) // self.N, p) for a in range(2, p))
                     if all(pow(z, self.N // q, p) != 1 for q in qs))
            c = (z + pow(z, -1, p)) % p
            value = 0
            for coeff in reversed(self._psi):
                value = (value * c + coeff) % p
            assert value == 0, f"c_p is not a root of the minimal polynomial mod {p}"
            powers = [1]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * c % p)
            self._modular.append((p, tuple(powers)))
        return self._modular[k]

    # -- Galois action -----------------------------------------------------

    def galois_index(self, j: int) -> int:
        """Canonical representative of the automorphism c -> 2*cos(2*pi*j/N).

        j and N - j induce the same map on the real subfield, so the
        canonical index is the smaller of the two residues.
        """
        if self.N == 1:
            return 1
        j %= self.N
        if math.gcd(j, self.N) != 1:
            raise NotCoprime(f"index {j} not coprime to conductor {self.N}")
        if self.N == 2:
            return 1
        return min(j, self.N - j)

    def _galois_powers(self, j: int) -> tuple[tuple[int, ...], ...]:
        """Integer coordinates of the powers 1, g, ..., g^(degree-1) of the
        image g = 2*cos(2*pi*j/N) of c (g lies in Z[c])."""
        j = self.galois_index(j)
        cached = self._galois_pow_cache.get(j)
        if cached is not None:
            return cached
        image = self.cos_element(j, self.N)
        powers = [self.one]
        for _ in range(self.degree - 1):
            powers.append(powers[-1] * image)
        self._galois_pow_cache[j] = tuple(g.num for g in powers)
        return self._galois_pow_cache[j]

    def galois(self, j: int, x: "FieldElement") -> "FieldElement":
        if x.ctx is not self:
            raise ContextMismatch("element belongs to a different context")
        j = self.galois_index(j)
        if j == 1 or x.is_rational():
            return x
        num = [0] * self.degree
        for v, power in zip(x.num, self._galois_powers(j)):
            if v:
                for i, w in enumerate(power):
                    num[i] += v * w
        return FieldElement(self, *_normalize(num, x.den))

    # -- numerics ----------------------------------------------------------

    def _generator_approx(self, precision_bits: int):
        cached = self._approx_cache.get(precision_bits)
        if cached is None:
            import mpmath

            with mpmath.workprec(precision_bits):
                cached = 2 * mpmath.cos(2 * mpmath.pi / self.N)
            self._approx_cache[precision_bits] = cached
        return cached


@lru_cache(maxsize=None)
def field_context(n: int) -> FieldContext:
    """Shared context for conductor n (one instance per conductor)."""
    return FieldContext(n)


class FieldElement:
    """Immutable element of a real cyclotomic field.

    Stored as an integer coordinate vector over a single positive
    denominator, normalized so gcd(content, den) = 1.
    """

    __slots__ = ("ctx", "num", "den", "_float")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int = 1,
                 _normalized: bool = False):
        if not _normalized:
            num, den = _normalize(list(num), den)
        self.ctx = ctx
        self.num = num
        self.den = den
        self._float = None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True when the element lies in Z[c] (integer power-basis coordinates)."""
        return self.den == 1

    @property
    def effective_degree(self) -> int:
        for i in range(len(self.num) - 1, -1, -1):
            if self.num[i]:
                return i
        return 0

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ContextMismatch("elements from different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = math.gcd(self.den, o.den)
        fa, fb = o.den // g, self.den // g
        num = [a * fa + b * fb for a, b in zip(self.num, o.num)]
        return FieldElement(self.ctx, *_normalize(num, self.den * fa))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-v for v in self.num), self.den,
                            _normalized=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.is_rational() or b.is_rational():
            if b.is_rational():
                a, b = b, a
            q = a.num[0]
            if q == 0:
                return self.ctx.zero
            num = [q * v for v in b.num]
            return FieldElement(self.ctx, *_normalize(num, a.den * b.den))
        da, db = a.effective_degree, b.effective_degree
        conv = [0] * (da + db + 1)
        bn = b.num
        for i in range(da + 1):
            av = a.num[i]
            if av:
                for j in range(db + 1):
                    bv = bn[j]
                    if bv:
                        conv[i + j] += av * bv
        d = self.ctx.degree
        if len(conv) > d:
            conv = self.ctx._reduce_product(conv)
        else:
            conv += [0] * (d - len(conv))
        return FieldElement(self.ctx, *_normalize(conv, a.den * b.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

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
        """Multiplicative inverse via the extended Euclid algorithm mod the
        minimal polynomial (remainders kept monic to bound growth)."""
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        if self.is_rational():
            return self.ctx.from_rational(1 / self.as_fraction())
        r0 = [Fraction(c) for c in self.ctx._psi]
        r1 = [Fraction(v) for v in self.num]
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
        return self.ctx.from_coeffs([c * self.den for c in t1])

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ctx is not self.ctx:
            return False
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.num, self.den))

    # -- numerics -------------------------------------------------------------

    def approximate(self, precision_bits: int = 53):
        """Real approximation with |error| < 2^-precision_bits (mpmath float)."""
        import mpmath

        # terms v_i * c^i reach 2^(bits(v) + degree) and may cancel
        work = (precision_bits + 16 + self.ctx.degree.bit_length() * 4
                + max(abs(v).bit_length() for v in self.num) + self.ctx.degree)
        with mpmath.workprec(work):
            cval = self.ctx._generator_approx(work)
            acc = mpmath.mpf(0)
            for v in reversed(self.num):
                acc = acc * cval + v
            acc = acc / self.den
        with mpmath.workprec(precision_bits):
            return +acc

    def __float__(self) -> float:
        if self._float is None:
            if self.is_rational():
                self._float = self.num[0] / self.den
            else:
                self._float = float(self.approximate(64))
        return self._float

    # -- display ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldElement({self}, N={self.ctx.N})"

    def __str__(self) -> str:
        terms = []
        for i in range(len(self.num) - 1, -1, -1):
            v = self.num[i]
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
        if len([v for v in self.num if v]) > 1:
            return f"({poly})/{self.den}"
        return f"{poly}/{self.den}"
