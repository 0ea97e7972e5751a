import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebforge import (
    BudgetExceededError,
    InvalidParamsError,
    ZeroPolynomialError,
    bound_closed,
    bound_general,
    bound_reeb,
    bound_sign_components,
    count_distinct_real_roots,
    univariate_sign_components,
)
from reebforge.bounds import _CAP_BITS, MAX_BOUND_DIGITS, bound_report

from .oracles import sign_condition_double_sum

X = [0, 1]  # the polynomial X in ascending coefficients


def test_bound_closed_hand_values():
    # s=1, d=2, k=1: C(2,0)*2 + C(2,1)*6*2 + C(2,0)*2 = 2 + 24 + 2.
    assert bound_closed(1, 2, 1) == 28
    assert bound_closed(1, 1, 1) <= bound_closed(1, 2, 1)


def test_bound_general_hand_values():
    # s=1, d=2, k=1: 2 + 36 + 2.
    assert bound_general(1, 2, 1) == 40
    # s=1, d=1, k=1: the unit term d(2d-1)^(k-1) is 1, so the double sum is
    # C(3,0)*1 + C(3,1)*6*1 + C(3,0)*1 = 1 + 18 + 1.
    assert bound_general(1, 1, 1) == 20


def test_bound_sign_components_hand_values():
    assert bound_sign_components(1, 1, 1) == 4
    assert bound_sign_components(2, 1, 1) == 8
    assert bound_sign_components(1, 2, 1) == 8


def test_bound_reeb_hand_values():
    assert bound_reeb(2, 2, 1, 1, 1) == 16
    assert bound_reeb(1, 1, 3, 4, 5) == 1
    assert bound_reeb(2, 3, 2, 1, 2) == 6**9 == 10077696


def test_sign_condition_bounds_equal_the_double_sum_on_a_grid():
    # One sum over j with weight k - j + 1, against the double sum term by term.
    for s in range(1, 7):
        for d in range(1, 7):
            for k in range(1, 7):
                assert bound_closed(s, d, k) == sign_condition_double_sum(s + 1, d, k)
                assert bound_general(s, d, k) == sign_condition_double_sum(2 * k * s + 1, d, k)


def test_general_dominates_closed_on_grid():
    for s in range(1, 4):
        for d in range(1, 4):
            for k in range(1, 4):
                assert bound_general(s, d, k) >= bound_closed(s, d, k)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, d, k: bound_closed(s, d, k),
        lambda s, d, k: bound_general(s, d, k),
        lambda s, d, k: bound_sign_components(s, d, k),
    ],
)
def test_bounds_monotone_in_each_parameter(evaluate):
    grid = range(1, 4)
    for s in grid:
        for d in grid:
            for k in grid:
                base = evaluate(s, d, k)
                assert evaluate(s + 1, d, k) >= base
                assert evaluate(s, d + 1, k) >= base
                assert evaluate(s, d, k + 1) >= base


def test_bound_reeb_monotone():
    base = bound_reeb(2, 2, 2, 2, 2)
    assert bound_reeb(3, 2, 2, 2, 2) >= base
    assert bound_reeb(2, 3, 2, 2, 2) >= base
    assert bound_reeb(2, 2, 3, 2, 2) >= base
    assert bound_reeb(2, 2, 2, 3, 2) >= base
    assert bound_reeb(2, 2, 2, 2, 3) >= base


def test_invalid_params():
    for bad in (0, -1, "2"):
        with pytest.raises(InvalidParamsError):
            bound_closed(bad, 1, 1)
        with pytest.raises(InvalidParamsError):
            bound_reeb(1, 1, 1, 1, bad)


def test_root_counts():
    assert count_distinct_real_roots(X) == 1
    assert count_distinct_real_roots([-1, 0, 1]) == 2  # X^2 - 1
    assert count_distinct_real_roots([1, 0, 1]) == 0  # X^2 + 1
    assert count_distinct_real_roots([1, -2, 1]) == 1  # (X-1)^2, a double root
    assert count_distinct_real_roots([0, 0, 0, 1]) == 1  # X^3
    assert count_distinct_real_roots([6, -5, 1]) == 2  # (X-2)(X-3)
    assert count_distinct_real_roots([5]) == 0


def times(a, b):
    """The product of two coefficient lists, ascending."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def factored_polynomials(draw):
    """(coefficients, distinct real roots) of a nonzero constant times
    products of (X - r)^m, m <= 3, and of X^2 + a, a > 0, which has none."""
    roots = draw(st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4))
    squares = draw(st.lists(st.fractions(min_value=Fraction(1, 7), max_value=5), max_size=2))
    poly = [draw(rationals.filter(bool))]
    for r, m in roots:
        for _ in range(m):
            poly = times(poly, [-r, 1])
    for a in squares:
        poly = times(poly, [a, 0, 1])
    return poly, len({r for r, _ in roots})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(factored_polynomials())
def test_root_count_is_the_number_of_distinct_roots(drawn):
    # Sturm's chain runs on p itself; repeated roots count once.
    poly, distinct = drawn
    assert count_distinct_real_roots(poly) == distinct
    assert univariate_sign_components([poly]) == 2 * distinct + 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_distinct_real_roots([0.1, 1]),
        lambda: count_distinct_real_roots(["1/2", 1]),
        lambda: count_distinct_real_roots([True, 1]),
        lambda: univariate_sign_components([[0.5, 1.0]]),
    ],
    ids=["float", "str", "bool", "sign_components_float"],
)
def test_root_counters_take_only_rational_coefficients(call):
    # A float would be read as its binary fraction and a string parsed, so
    # each is refused, as a bool is, rather than coerced.
    with pytest.raises(InvalidParamsError, match="coefficient must be a rational"):
        call()


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        count_distinct_real_roots([0, 0])
    with pytest.raises(ZeroPolynomialError):
        univariate_sign_components([X, [0]])
    with pytest.raises(ZeroPolynomialError):
        univariate_sign_components([])


def test_sign_component_counts():
    assert univariate_sign_components([X]) == 3
    assert univariate_sign_components([X, [-1, 1]]) == 5  # {X, X-1}
    assert univariate_sign_components([[-1, 0, 1]]) == 5  # {X^2 - 1}
    assert univariate_sign_components([[1, 0, 1], X]) == 3  # X^2+1 never vanishes
    assert univariate_sign_components([[7]]) == 1


def test_actual_counts_never_exceed_the_bound():
    families = [
        ([X], 1, 1),
        ([X, [-1, 1]], 2, 1),
        ([[-1, 0, 1]], 1, 2),
        ([[2, -3, 1], [0, 1], [-4, 0, 1]], 3, 2),
        ([[1, 0, 1]], 1, 2),
    ]
    for polys, s, d in families:
        actual = univariate_sign_components(polys)
        assert actual <= bound_sign_components(s, d, 1)


def test_flag_manifold_reference_constants():
    # Documented reference values for a family of quotient spaces: the total
    # Betti number of the flag side is n!, of the group side 2**n, and the
    # former overtakes the latter from n = 4 on.
    for n in range(4, 8):
        assert math.factorial(n) >= 2**n
    assert math.factorial(4) == 24
    assert 2**4 == 16
    # Both reference totals stay below the parametric bound for plausible
    # parameters; this is a comparison, not an assertion of the constant c.
    assert math.factorial(4) <= bound_reeb(2, 2, 4, 4, 1)


def test_bound_report_uses_decimal_strings():
    report = bound_report("reeb", bound_reeb(3, 3, 3, 3, 3), s=3, d=3, n=3, m=3, c=3)
    assert report["value"] == str(9 ** (6**3))
    assert isinstance(report["value"], str)
    assert report["bound_name"] == "reeb"
    assert report["params"] == {"c": 3, "d": 3, "m": 3, "n": 3, "s": 3}


def test_bound_report_writes_values_past_the_int_str_limit():
    # (10 * 10) ** (6 ** 5) = 10 ** 15552 has 15,553 digits, more than
    # str(int) converts by default.
    value = bound_reeb(10, 10, 3, 3, 5)
    report = bound_report("reeb", value, s=10, d=10, n=3, m=3, c=5)
    assert report["value"] == "1" + "0" * 15552


def test_bound_reeb_digit_counts_below_the_cap():
    # (10 * 10) ** (6 ** c) = 10 ** (2 * 6 ** c) has 2 * 6 ** c + 1 digits.
    for c, digits in ((5, 15_553), (6, 93_313), (7, 559_873)):
        value = bound_reeb(10, 10, 3, 3, c)
        assert value == 10 ** (2 * 6**c)
        assert digits == 2 * 6**c + 1 <= MAX_BOUND_DIGITS
    assert len(bound_report("reeb", bound_reeb(10, 10, 3, 3, 6))["value"]) == 93_313


@pytest.mark.parametrize("c", [8, 100, 10**12])
def test_bound_reeb_refuses_values_past_the_digit_cap_at_once(c):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        bound_reeb(10, 10, 3, 3, c)
    assert time.perf_counter() - start < 1.0
    exc = info.value
    assert (exc.stage, exc.cap, exc.count) == ("bound digits", MAX_BOUND_DIGITS, None)
    assert str(exc) == f"bound digits exceed the cap of {MAX_BOUND_DIGITS}"


def test_bound_reeb_digit_cap_is_exact_at_the_boundary():
    # 10 ** 999_999 has exactly MAX_BOUND_DIGITS digits; 10 ** 1_000_000 has
    # one more.  Both exponents fall between the bit-length brackets, so the
    # values are compared exactly.
    assert (10**MAX_BOUND_DIGITS).bit_length() == _CAP_BITS
    assert bound_reeb(10, 1, 999_998, 1, 1) == 10**999_999
    with pytest.raises(BudgetExceededError):
        bound_reeb(10, 1, 999_999, 1, 1)


def test_bound_reeb_of_base_one_is_one_for_any_exponent():
    assert bound_reeb(1, 1, 3, 3, 40) == 1
    assert bound_reeb(1, 1, 3, 3, 10**18) == 1

