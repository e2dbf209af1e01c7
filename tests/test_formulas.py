from fractions import Fraction
from math import comb

import pytest

from multilin.errors import PreconditionError
from multilin.formulas import (
    HOLDS,
    STRICT,
    VIOLATED,
    alpha_alt_closed,
    alpha_bound,
    box_exponent,
    fp_by_scan,
    fp_number,
    gq_number,
    has_plane_isotropy,
    stratum_inequality_check,
    turan_by_scan,
    turan_number,
)


def test_alpha_bound_examples():
    assert alpha_bound(5, 2, 2) == 3
    assert alpha_bound(7, 3, 1) == 5
    assert alpha_bound(4, 7, 3) == 4  # d > n: binomial vanishes


def test_alpha_bound_bilinear_closed_form():
    for m in range(2, 11):
        for n in range(2, 101):
            assert alpha_bound(n, 2, m) == (2 * n + m) // (m + 2)


def test_alpha_bound_bisection_matches_the_scan_down_from_n():
    for n in range(1, 61):
        for d in range(1, 9):
            for m in range(1, 8):
                scan = next(s for s in range(n, -1, -1) if s * (n - s) >= m * comb(s, d))
                assert alpha_bound(n, d, m) == scan


def test_huge_arguments_are_decided_without_forming_huge_numbers(deadline):
    assert alpha_bound(10**9, 3, 1) == 77458
    assert alpha_alt_closed(10**9, 3, 2).value == 54772
    assert fp_number(3, 1, 10**6, char_zero=True) == (166667166667, "char0:generic")
    # C(k + 1, d) is over 2^(k / 2) here; the quotient is 0 by its bound alone
    assert turan_number(10**7, 10**6, 2 * 10**6) == (1, "generic")
    assert turan_number(10**12, 3, 5) == (299999999999, "generic")
    assert not has_plane_isotropy(5, 10**11, 2)
    assert box_exponent(5, 10**10, 1).admissible is False


def test_alpha_alt_closed_generic_equals_bound():
    for n in range(2, 20):
        for d in range(2, 5):
            for m in (2, 3, 5):
                got = alpha_alt_closed(n, d, m)
                assert got.value == alpha_bound(n, d, m)
                assert got.branch == "generic"


def test_alpha_alt_closed_exceptional_rows():
    assert alpha_alt_closed(7, 3, 1, True) == (4, "exceptional:(3,7)")
    assert alpha_alt_closed(6, 4, 1, True) == (4, "exceptional:d=n-2-even")
    # a single alternating form has even rank r: its radical and a
    # Lagrangian of the quotient give an isotropic subspace of n - r/2
    for n in range(2, 21):
        assert alpha_alt_closed(n, 2, 1, True).value == (n + 1) // 2
    # generic m = 1 row away from the exceptions
    assert alpha_alt_closed(8, 3, 1, True) == (5, "generic")


def test_alpha_alt_closed_requires_char_zero_for_m1():
    with pytest.raises(PreconditionError):
        alpha_alt_closed(5, 2, 1)


def test_fp_number_examples():
    assert fp_number(2, 2, 3).value == 5
    assert fp_number(2, 1, 3, True).value == 5
    assert fp_number(3, 2, 3).value == 4
    with pytest.raises(PreconditionError):
        fp_number(3, 1, 3)


def test_fp_number_exceptional_shift():
    # the uncorrected display lands on an exceptional row at these points
    assert fp_number(3, 1, 5, True) == (8, "char0:exceptional-shift")
    assert fp_number(4, 1, 5, True) == (7, "char0:exceptional-shift")
    # and the corrected values satisfy the defining minimization
    assert fp_by_scan(3, 1, 5, True, n_max=10) == 8
    assert fp_by_scan(4, 1, 5, True, n_max=10) == 7


def test_fp_roundtrip_small():
    for d in range(1, 5):
        for m in range(1, 4):
            for k in range(1, 10):
                value = fp_number(d, m, k, m == 1).value
                if value <= 25:
                    assert value == fp_by_scan(d, m, k, m == 1, n_max=25)


def test_turan_examples():
    assert turan_number(7, 3, 4, True) == (1, "exceptional:(3,7)")
    assert turan_number(4, 2, 1).value == 5
    # every form on F^5 has a 3-dimensional isotropic subspace, so (5,2,2)
    # is generic: (k+1)(n-k-1) // C(k+1, 2) + 1 = 3, in any characteristic
    assert turan_number(5, 2, 2, True) == (3, "generic")
    assert turan_number(5, 2, 2) == (3, "generic")
    assert turan_number(4, 2, 2, True).value == 1  # d=2 exceptional case
    with pytest.raises(PreconditionError):
        turan_number(4, 2, 2)  # exceptional without char 0
    assert turan_number(3, 2, 5).value == 1  # k >= n is trivial


def test_turan_diverges_below_the_floor():
    # k below min(d-1, n): no codomain dimension forces the index that low
    with pytest.raises(PreconditionError):
        turan_number(5, 4, 2)
    assert turan_by_scan(5, 4, 2, True, r_max=200) is None


def test_turan_roundtrip_small():
    for n in range(1, 16):
        for d in (2, 3):
            for k in range(1, 16):
                try:
                    value = turan_number(n, d, k, True).value
                except PreconditionError:
                    value = None
                assert value == turan_by_scan(n, d, k, True, r_max=d * n + 5)


def test_gq_examples():
    assert gq_number(5, 2).value == 7
    assert gq_number(3, 3).value == 1
    assert gq_number(6, 3).value == 10
    for n in range(2, 50):
        assert gq_number(n, 2).value == 2 * n - 3


def test_gq_matches_turan_at_codimension_one():
    # the defining identity GQ = T(n, d, d-1)
    for d in range(2, 6):
        for n in range(d, 25):
            assert gq_number(n, d).value == turan_number(n, d, d - 1, True).value


def test_stratum_inequality_examples():
    assert stratum_inequality_check(2, 10, 4, 2, 2) == STRICT
    # equality case: k(n-k) == m C(k,d) -> plain 'holds'
    # (n=5, k=2, d=2, m=6: 2*3 = 6 = 6*C(2,2))
    assert stratum_inequality_check(6, 5, 2, 2, 2) == HOLDS
    with pytest.raises(PreconditionError):
        stratum_inequality_check(1, 10, 4, 2, 2)  # m < 2
    with pytest.raises(PreconditionError):
        stratum_inequality_check(2, 10, 9, 2, 2)  # n + l - 2k < 0


def test_stratum_inequality_no_violations_small_grid():
    for n in range(3, 26):
        for k in range(2, n):
            for d in range(2, k + 1):
                ckd = comb(k, d)
                m_max = (k * (n - k)) // ckd
                for l in range(d, k + 1):
                    if n + l - 2 * k < 0:
                        continue
                    for m in range(2, m_max + 1):
                        assert stratum_inequality_check(m, n, k, d, l) != VIOLATED


def test_plane_isotropy_predicate():
    assert has_plane_isotropy(4, 2, 2)  # boundary: 4 >= 4
    assert not has_plane_isotropy(3, 2, 2)
    # monotone in n
    hit = False
    for n in range(1, 30):
        now = has_plane_isotropy(n, 3, 2)
        if hit:
            assert now
        hit = hit or now
    with pytest.raises(PreconditionError):
        has_plane_isotropy(4, 2, 1)


def test_box_exponent():
    exp, ok = box_exponent(3, 2, 1)
    assert exp == Fraction(5, 3) and ok
    exp, ok = box_exponent(2, 2, 1)
    assert exp == Fraction(3, 2) and not ok
    exp, ok = box_exponent(4, 2, 0)
    assert exp == Fraction(2) and ok
