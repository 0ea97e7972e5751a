"""Exact evaluators for the quantitative Betti bounds, plus a univariate
sign-condition counter.

Every evaluator works in arbitrary-precision integers; binomials with an
oversized lower index evaluate to zero, matching the summation convention.
The univariate counter isolates nothing explicitly: distinct real roots of
the product polynomial are counted exactly with a Sturm chain over rationals,
and the cell count of the induced partition of the line follows.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb

from .errors import ZeroPolynomialError, _fractions, _refuse_past_cap, _require_at_least

# The most decimal digits a bound value may have, and the bit length of
# 10 ** MAX_BOUND_DIGITS: 2 ** (_CAP_BITS - 1) < 10 ** MAX_BOUND_DIGITS < 2 ** _CAP_BITS.
MAX_BOUND_DIGITS = 1_000_000
_CAP_BITS = 3_321_929


def _require_positive(**params):
    for name, value in params.items():
        _require_at_least(name, value, 1)


def _sign_condition_sum(top, d, k):
    """The double sum of both sign-condition bounds, summed over i first:
    C(top, j) 6^j d (2d-1)^(k-1) appears once for each i in 0..k-j, so the
    sum is d (2d-1)^(k-1) times the sum over j = 0..k of (k-j+1) C(top, j) 6^j."""
    unit = d * (2 * d - 1) ** (k - 1)
    return unit * sum((k - j + 1) * comb(top, j) * 6**j for j in range(k + 1))


def bound_closed(s, d, k):
    """Betti bound for a closed sign-condition set:
    sum_{i=0}^{k} sum_{j=0}^{k-i} C(s+1, j) 6^j d (2d-1)^(k-1)."""
    _require_positive(s=s, d=d, k=k)
    return _sign_condition_sum(s + 1, d, k)


def bound_general(s, d, k):
    """Betti bound for an arbitrary sign-condition set:
    sum_{i=0}^{k} sum_{j=0}^{k-i} C(2ks+1, j) 6^j d (2d-1)^(k-1)."""
    _require_positive(s=s, d=d, k=k)
    return _sign_condition_sum(2 * k * s + 1, d, k)


def bound_sign_components(s, d, k):
    """Bound on the total number of connected components over all realizable
    sign conditions: sum_{1<=j<=k} C(s, j) 4^j d (2d-1)^(k-1)."""
    _require_positive(s=s, d=d, k=k)
    unit = d * (2 * d - 1) ** (k - 1)
    return sum(comb(s, j) * 4**j * unit for j in range(1, k + 1))


def bound_reeb(s, d, n, m, c):
    """Parametric Reeb-space bound (s*d) ** ((n+m) ** c).

    The exponent constant c is caller-supplied; no specific value is claimed,
    so comparisons against computed Betti totals are reported, never asserted.
    A value with more than MAX_BOUND_DIGITS decimal digits raises
    BudgetExceededError, stage "bound digits", and is refused before the
    power is taken: base ** e with base >= 2 has more than e / 4 digits, so
    the exponent is built factor by factor only up to 4 * MAX_BOUND_DIGITS,
    and then the base's bit length brackets base ** e between powers of two
    on either side of 10 ** MAX_BOUND_DIGITS.  Only a value inside that
    bracket is computed and compared exactly.
    """
    _require_positive(s=s, d=d, n=n, m=m, c=c)
    base = s * d
    if base == 1:
        return 1
    exponent = 1
    for _ in range(c):
        exponent *= n + m
        if exponent > 4 * MAX_BOUND_DIGITS:
            break
    bits = base.bit_length()
    if exponent <= 4 * MAX_BOUND_DIGITS and (bits - 1) * exponent < _CAP_BITS:
        value = base**exponent
        if bits * exponent < _CAP_BITS or value < 10**MAX_BOUND_DIGITS:
            return value
    _refuse_past_cap(None, MAX_BOUND_DIGITS, "bound digits", "bound digits")  # always raises


def _strip(poly):
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _poly_rem(a, b):
    """Remainder of a by b over the rationals; b is stripped and nonzero."""
    a = list(a)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        coeff = a[-1] * inv
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= coeff * y
        a = _strip(a[:-1])
    return a


def _poly_derivative(a):
    return _strip([i * c for i, c in enumerate(a)][1:])


def _sign_variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)


def count_distinct_real_roots(poly):
    """Number of distinct real roots of a nonzero rational polynomial.

    Sturm's theorem on p itself (Basu, Pollack and Roy, *Algorithms in Real
    Algebraic Geometry*, Thm 2.50): the variation difference of the signed
    remainder sequence of p and p' at -infinity and +infinity.  It needs no
    squarefree step: the sequence ends at gcd(p, p'), which divides every
    member, so at any point that is not a root it scales all signs alike.
    A constant has the sequence (p) alone, and no root.
    """
    poly = _strip(_fractions("coefficient", poly))
    if not poly:
        raise ZeroPolynomialError("the zero polynomial has no root structure")
    chain = [poly, _poly_derivative(poly)]
    while chain[-1]:
        chain.append([-c for c in _poly_rem(chain[-2], chain[-1])])
    chain.pop()

    at_minus = []
    at_plus = []
    for f in chain:
        lead = f[-1]
        degree = len(f) - 1
        at_plus.append(1 if lead > 0 else -1)
        at_minus.append((1 if lead > 0 else -1) * (-1) ** degree)
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def univariate_sign_components(polys):
    """Total number of connected components over all realizable sign
    conditions of a family of univariate polynomials.

    The distinct real roots of the product cut the line into cells on which
    every sign vector is constant, and adjacent cells always differ in some
    sign, so the total is 2r + 1 for r distinct roots.
    """
    if not polys:
        raise ZeroPolynomialError("at least one polynomial is required")
    product = [Fraction(1)]
    for poly in polys:
        poly = _strip(_fractions("coefficient", poly))
        if not poly:
            raise ZeroPolynomialError("the zero polynomial is not allowed")
        product = _poly_mul(product, poly)
    roots = count_distinct_real_roots(product)
    return 2 * roots + 1


def bound_report(name, value, **params):
    """Report document with the value as a decimal string.

    ``str(Decimal(value))`` is exact for an integer and, unlike ``str(value)``,
    has no limit on the number of digits.
    """
    return {
        "bound_name": name,
        "params": dict(sorted(params.items())),
        "value": str(Decimal(value)),
    }
