"""Polynomials whose roots are the admissible Cartan coefficients.

A pair of reflections whose product has finite order n >= 3 has Cartan
coefficient 4*cos^2(k*pi/n) for some k coprime to n.  ``order_poly(n)`` is
the monic integer polynomial with exactly those roots; ``order_poly_full(n)``
takes all 1 <= k <= floor(n/2), i.e. products whose order divides n.  The
classifier reads the order off C - 2 = 2*cos(2*pi*k/n): a rational, or
+-b_j = +-2*cos(2*pi*j/N), whose index ``FieldContext.cos_index`` finds
by its residue modulo a split prime and confirms exactly.  That is
complete by the conductor theorem (Washington, *Introduction to Cyclotomic
Fields*): if 2*cos(2*pi*k/n), gcd(k, n) = 1, lies in Q(zeta_N)+, then n is
in {1, 2, 3, 4, 6}, or n | N, or n = 2m with m odd and m | N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import (
    FieldContext,
    FieldElement,
    IntPolynomial,
    NonDivisorOrder,
    minimal_poly_real_cyclotomic,
)


@dataclass(frozen=True)
class OrderClass:
    """Order classification of a reflection pair product.

    kind is one of "commuting" (order 2), "finite" (finite order n >= 3,
    carried in ``order``), "unipotent" (infinite order, coefficient 4) or
    "indeterminate".
    """

    kind: str
    order: int | None = None

    def __post_init__(self):
        if self.kind not in ("commuting", "finite", "unipotent", "indeterminate"):
            raise ValueError(f"unknown order class {self.kind!r}")
        if self.kind == "finite":
            if self.order is None or self.order < 3:
                raise ValueError("finite class requires an order >= 3")
        elif self.order is not None:
            raise ValueError("only the finite class carries an order")

    @classmethod
    def commuting(cls) -> "OrderClass":
        return cls("commuting")

    @classmethod
    def finite(cls, n: int) -> "OrderClass":
        return cls("finite", n)

    @classmethod
    def unipotent(cls) -> "OrderClass":
        return cls("unipotent")

    @classmethod
    def indeterminate(cls) -> "OrderClass":
        return cls("indeterminate")

    @property
    def finite_order(self) -> int | None:
        """The order of the product when finite: 2, n, or None."""
        if self.kind == "commuting":
            return 2
        if self.kind == "finite":
            return self.order
        return None

    def __str__(self) -> str:
        return f"finite({self.order})" if self.kind == "finite" else self.kind


@lru_cache(maxsize=None)
def order_poly(n: int) -> IntPolynomial:
    """Monic integer polynomial with roots 4*cos^2(k*pi/n), gcd(k, n) = 1.

    Computed exactly by shifting the minimal polynomial of 2*cos(2*pi/n)
    by 2, since 4*cos^2(k*pi/n) = 2 + 2*cos(2*pi*k/n).
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    poly = minimal_poly_real_cyclotomic(n).shifted_argument(-2)
    assert poly.is_monic()
    return poly


@lru_cache(maxsize=None)
def order_poly_full(n: int) -> IntPolynomial:
    """Monic integer polynomial with roots 4*cos^2(k*pi/n), 1 <= k <= n/2.

    Equals the product of order_poly(d) over the divisors d >= 2 of n; each
    k contributes the root for the reduced fraction k/n.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    acc = IntPolynomial([1])
    for d in range(2, n + 1):
        if n % d == 0:
            acc = acc * order_poly(d)
    assert acc.degree == n // 2
    return acc


def admissible_root_indices(n: int) -> tuple[int, ...]:
    """The k with 1 <= k <= n/2 and gcd(k, n) = 1, ascending."""
    return tuple(k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1)


def order_poly_roots(ctx: FieldContext, n: int) -> list[FieldElement]:
    """Exact roots of order_poly(n) as field elements, ascending k."""
    if n < 3:
        raise ValueError("order must be at least 3")
    if ctx.N % n != 0:
        raise NonDivisorOrder(f"order {n} does not divide conductor {ctx.N}")
    return [2 + ctx.cos_element(k, n) for k in admissible_root_indices(n)]


def classify_pair(c_rs: FieldElement, c_sr: FieldElement,
                  max_order: int | None = None) -> OrderClass:
    """Classify the product order of a reflection pair from its two Cartan
    cross-coefficients, exactly.  A finite order above ``max_order``, when
    one is given, is reported as indeterminate."""
    if c_sr.ctx is not c_rs.ctx:
        raise ValueError("coefficients from different field contexts")
    if c_rs.is_zero() and c_sr.is_zero():
        return OrderClass.commuting()
    coefficient = c_rs * c_sr
    if coefficient == 4:
        return OrderClass.unipotent()
    # C = 2 + 2cos(2 pi k/n); a one-sided zero gives C = 0, which is none
    # of these: the product is then (-1)*unipotent, never of finite order
    x, ctx, n = coefficient - 2, coefficient.ctx, None
    if x.is_rational():
        n = {-1: 3, 0: 4, 1: 6}.get(x.as_fraction())
    elif (j := ctx.cos_index(x)) is not None:
        n = ctx.N // math.gcd(j, ctx.N)
    elif (j := ctx.cos_index(-x)) is not None:
        # -b_j = 2cos(pi (N - 2j)/N), of order 2N/gcd(N - 2j, 2N), which is
        # 2N/gcd(j, N) for odd N; for even N it is b_(N/2 - j), found above
        n = 2 * ctx.N // math.gcd(j, ctx.N)
    if n is None or (max_order is not None and n > max_order):
        return OrderClass.indeterminate()
    return OrderClass.finite(n)
