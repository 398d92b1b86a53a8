"""Exact arithmetic in the real cyclotomic field Q(2*cos(2*pi/N)).

Elements are rational coordinate vectors in the power basis of
c = 2*cos(2*pi/N), reduced modulo the minimal polynomial psi of c.  Every
operation is exact; floating point only enters through ``approximate``,
which exists for display and cross-checking, never for decisions.  Every
element is brought to canonical form in one place, the ``FieldElement``
constructor, and every product of coordinate vectors is finished by one
reduction, ``FieldContext._reduce_product``, a synthetic division by psi.
psi is the field's only reduction data: ``FieldContext.modular_image``
maps c to a root of psi mod p in F_p for split primes p, the ground of the
modular rank bounds in ``linalg`` and of ``invert``, which inverts modulo
(psi, p); the inverse, lifted p-adically and rationally reconstructed, is
accepted only by the exact product.
"""

from __future__ import annotations

import itertools
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
    a = cyclotomic_polynomial(n).coeffs
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

def _normalize(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
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
    return tuple(v * inv % p for v in t1) + (0,) * (len(m) - 1 - len(t1))


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
        self.min_poly = minimal_poly_real_cyclotomic(n)
        self.degree = self.min_poly.degree
        assert self.degree == (euler_phi(n) // 2 if n > 2 else 1)
        self._psi = self.min_poly.coeffs
        # psi's nonzero terms below its leading 1; when 4 | N, -c is a
        # conjugate of c, psi is even or odd, and half its terms are zero
        self._psi_terms = tuple((i, v) for i, v in enumerate(self._psi[:-1]) if v)
        # The caches keep integer coordinates, never a FieldElement: an
        # element refers to its context, so one held here would make a
        # reference cycle, and a context dropped from field_context's cache
        # would then wait, caches and all, for the cycle collector.
        self._zero_num = (0,) * self.degree            # coordinates of 0, 1
        self._one_num = (1,) + self._zero_num[1:]
        self._cos_cache: list[tuple[int, ...]] = []     # 2cos(2 pi j/N), j < len
        self._galois_pow_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._approx_cache: dict[int, object] = {}
        self._modular: list[tuple[int, tuple[int, ...]]] = []

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N}, degree={self.degree})"

    # -- constructors -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self._zero_num, 1, _normalized=True)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self._one_num, 1, _normalized=True)

    def from_rational(self, value: Fraction | int) -> "FieldElement":
        if type(value) is int:
            return FieldElement(self, (value,) + self._zero_num[1:], 1, _normalized=True)
        q = Fraction(value)
        num = [q.numerator] + [0] * (self.degree - 1)
        return FieldElement(self, num, q.denominator)

    def from_coeffs(self, coefficients: Sequence[Fraction | int]) -> "FieldElement":
        """Element from power-basis coordinates (length <= degree)."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return FieldElement(self, num + [0] * (self.degree - len(num)), den)

    @property
    def generator(self) -> "FieldElement":
        """The element c = 2*cos(2*pi/N): the coordinates of x reduced by
        psi, which for degree 1 (N in {1, 2, 3, 4, 6}) is x - c."""
        return FieldElement(self, tuple(self._reduce_product([0, 1])), 1, _normalized=True)

    # -- special values ----------------------------------------------------

    def cos_element(self, k: int, m: int) -> "FieldElement":
        """The element 2*cos(2*pi*k/m); requires m | N."""
        if m < 1 or self.N % m != 0:
            raise NonDivisorOrder(f"order {m} does not divide conductor {self.N}")
        j = (k % m) * (self.N // m)
        j = min(j, self.N - j) if j else 0  # cosine parity: 2cos(2pi j/N) = 2cos(2pi (N-j)/N)
        cache = self._cos_cache
        if j >= len(cache):
            # three-term recurrence b_(i+1) = c b_i - b_(i-1) on the integer
            # coordinates, resumed where the cache ends: multiplying by c
            # shifts b_i up one place, and the one coordinate that leaves
            # the basis is reduced by psi (for degree 1, psi = x - c); every
            # value lies in Z[c], so its denominator is 1
            if not cache:
                cache += [(2,) + (0,) * (self.degree - 1), self.generator.num]
            prev, cur = cache[-2:]
            while len(cache) <= j:
                shifted = [-prev[0], *(a - b for a, b in zip(cur, prev[1:])), cur[-1]]
                prev, cur = cur, tuple(self._reduce_product(shifted))
                cache.append(cur)
        return FieldElement(self, cache[j], 1, _normalized=True)

    def _reduce_product(self, conv: list[int]) -> list[int]:
        """The `degree` coordinates of a coordinate convolution: a longer one
        is reduced modulo the monic minimal polynomial psi (in place) by
        synthetic division, a shorter one padded with zeros."""
        d = self.degree
        terms = self._psi_terms
        for top in range(len(conv) - 1, d - 1, -1):
            co = conv[top]
            if co:
                low = top - d
                for i, v in terms:
                    conv[low + i] -= co * v
        return conv[:d] + [0] * (d - len(conv))

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
        if math.gcd(j, self.N) != 1:
            raise NotCoprime(f"index {j} not coprime to conductor {self.N}")
        j %= self.N
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
        return FieldElement(self, num, x.den)

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
    denominator, normalized so gcd(content, den) = 1.  The constructor is
    the one place that normalizes: it takes integer coordinates over any
    nonzero denominator.  `_normalized`, private to this module, skips that
    for values already in canonical form: integers, zero, one, the
    generator, negations, cached cosines and the den-1 values of the p-adic
    lift in `invert`.
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
        if type(other) is FieldElement:
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
        return FieldElement(self.ctx, num, self.den * fa)

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
            return FieldElement(self.ctx, num, a.den * b.den)
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
        return FieldElement(self.ctx, self.ctx._reduce_product(conv), a.den * b.den)

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
        """Multiplicative inverse, found modulo a split prime and lifted.

        With the element num/den, num in Z[c], num is inverted modulo
        (psi, p) by an integer extended Euclid, for the first split prime p
        of FieldContext.modular_image at which it is a unit.  Newton's
        iteration y <- y(2 - num*y), each product reduced mod q, squares the
        modulus q = p^(2^k) (von zur Gathen and Gerhard, Modern Computer
        Algebra, ch. 9).  At each q, _reconstruct proposes num^-1 = u/D; it
        is taken only when the exact product num*u equals D.  Z[c] is the
        ring of integers, so D divides the norm of num, and a large enough q
        proposes the inverse: the loop ends, with no fallback.
        """
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        if self.is_rational():
            return self.ctx.from_rational(1 / self.as_fraction())
        ctx = self.ctx

        def integral(coords):
            return FieldElement(ctx, tuple(coords), 1, _normalized=True)

        num = integral(self.num)
        for k in itertools.count():
            q = ctx.modular_image(k)[0]
            y = _inverse_mod(self.num, ctx._psi, q)
            if y is not None:
                break
        y = integral(y)
        while True:
            found = _reconstruct(y.num, q)
            if found is not None and num * integral(found[0]) == found[1]:
                return FieldElement(ctx, [v * self.den for v in found[0]], found[1])
            q *= q
            y = integral(v % q for v in (y * integral(v % q for v in (2 - num * y).num)).num)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not FieldElement:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ctx.from_rational(other)
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
        if not self.is_rational():
            return float(self.approximate(64))
        try:
            return self.num[0] / self.den
        except OverflowError:  # beyond the float range: ±inf, as approximate()
            return math.inf if self.num[0] > 0 else -math.inf

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
