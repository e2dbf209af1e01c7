"""Closed-form evaluators for the extremal quantities of alternating and
general multilinear maps over algebraically closed fields.

Everything here is exact integer arithmetic; the floor/ceiling boundaries
are precisely where these quantities live, so no floats appear anywhere.

The m = 1 closed forms are only valid in characteristic zero; callers must
set ``char_zero=True`` explicitly to use them, otherwise the evaluators
refuse rather than silently overclaim.

Each extremal number comes back as a :class:`ClosedForm`: its value and
the branch of the formula that produced it, which ``multilin formula``
emits as the document's ``value`` and ``branch``.  ``box_exponent``
returns a :class:`BoxExponent`, the exponent with its admissibility.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from .errors import InvariantViolation, PreconditionError
from .tensor import comb_bits


class ClosedForm(NamedTuple):
    value: int
    branch: str


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _at_least(a: int, m: int, s: int, d: int) -> bool:
    """a >= m * C(s, d) for a >= 0, with C(s, d) formed only when its lower
    bound 2^b (``tensor.comb_bits``) leaves the comparison open."""
    bits = comb_bits(s, d)
    if bits >= 0 and bits + m.bit_length() - 1 >= a.bit_length():
        return False  # m * C(s, d) >= 2^(bit length of a) > a
    return a >= m * comb(s, d)


def alpha_bound(n: int, d: int, m: int) -> int:
    """Largest s in [0, n] with s(n-s) >= m * C(s, d).

    This is the dimension-count threshold; for m >= 2 over algebraically
    closed fields it equals the isotropy index of alternating maps.  The
    inequality holds for s < d, and on d <= s <= n the ratio
    s(n-s) / C(s, d) never increases (consecutive terms have ratio
    (n-s-1)(s+1-d) / (s(n-s)) <= 1), so it holds exactly on a prefix of
    [0, n], found by bisection.
    """
    if n < 1 or d < 1 or m < 1:
        raise PreconditionError("need n, d, m >= 1")
    lo, hi = 0, n  # the inequality holds at lo; hi bounds the answer
    while lo < hi:
        s = (lo + hi + 1) // 2
        if _at_least(s * (n - s), m, s, d):
            lo = s
        else:
            hi = s - 1
    return lo


def _exceptional_row(n: int, d: int) -> Optional[tuple]:
    """The exceptional row of the m = 1 table at (n, d), as (name, index),
    or None: there the characteristic-0 isotropy index sits below the
    generic count."""
    if d == 2:
        # a form's rank r is even: its radical and a Lagrangian of the
        # quotient span an isotropic subspace of dimension n - r/2
        return "d=2", (n + 1) // 2
    if (d, n) == (3, 7):
        return "(3,7)", 4
    if d == n - 2 and d % 2 == 0:
        return "d=n-2-even", n - 2
    return None


def alpha_alt_closed(n: int, d: int, m: int, char_zero: bool = False) -> ClosedForm:
    """Isotropy index of Alt^d(F^n, F^m) over an algebraically closed F.

    For m >= 2 this is ``alpha_bound`` with no exceptions.  For m = 1 the
    formula is only established in characteristic 0 and has three
    exceptional rows; without ``char_zero`` the m = 1 case is refused.
    """
    if n < 1 or d < 1 or m < 1:
        raise PreconditionError("need n, d, m >= 1")
    if m >= 2:
        return ClosedForm(alpha_bound(n, d, m), "generic")
    if not char_zero:
        raise PreconditionError(
            "m = 1 closed form is asserted only in characteristic 0; "
            "pass char_zero=True"
        )
    row = _exceptional_row(n, d)
    if row is None:
        return ClosedForm(alpha_bound(n, d, 1), "generic")
    return ClosedForm(row[1], f"exceptional:{row[0]}")


# ---------------------------------------------------------------------------
# derived extremal numbers
# ---------------------------------------------------------------------------


def fp_number(d: int, m: int, k: int, char_zero: bool = False) -> ClosedForm:
    """Least n such that every alternating map (F^n)^d -> F^m has a
    k-dimensional isotropic subspace (F algebraically closed).

    m >= 2: ceil(m * C(k,d) / k) + k, exactly.  m = 1 (characteristic 0):
    2k - 1 for d = 2; otherwise ceil(C(k,d)/k) + k, corrected upward when that
    value lands on one of the exceptional rows of the m = 1 table, whose
    isotropy index sits below the generic count (the uncorrected display
    would overshoot the index at d = 3, k = 5 and at k = d + 1 for even d).
    """
    if d < 1 or m < 1 or k < 1:
        raise PreconditionError("need d, m, k >= 1")
    if m >= 2:
        return ClosedForm(_ceil_div(m * comb(k, d), k) + k, "generic")
    if not char_zero:
        raise PreconditionError(
            "m = 1 closed form is asserted only in characteristic 0; "
            "pass char_zero=True"
        )
    if d == 2:
        return ClosedForm(2 * k - 1, "char0:d=2")
    n = _ceil_div(comb(k, d), k) + k
    branch = "char0:generic"
    for _ in range(3):
        if alpha_alt_closed(n, d, 1, char_zero=True).value >= k:
            return ClosedForm(n, branch)
        n += 1  # landed on an exceptional row; threshold moves up
        branch = "char0:exceptional-shift"
    raise InvariantViolation("exceptional rows are isolated")  # pragma: no cover


def turan_number(n: int, d: int, k: int, char_zero: bool = False) -> ClosedForm:
    """Least codomain dimension r forcing the isotropy index of
    Alt^d(F^n, F^r) down to at most k (F algebraically closed).

    Outside the three exceptional cases the value is
    max(0, floor((k+1)(n-k-1) / C(k+1, d))) + 1 for any characteristic;
    in the exceptional cases the value 1 is established only in
    characteristic 0.  For k below min(d-1, n) no codomain dimension works
    (every alternating map has an isotropic subspace of that dimension),
    which is reported as a precondition error rather than a value.
    """
    if n < 1 or k < 1 or d < 2:
        raise PreconditionError("need n, k >= 1 and d >= 2")
    if k >= n:
        # the index never exceeds n, so r = 1 already qualifies
        return ClosedForm(1, "trivial")
    if k + 1 < d:  # C(k + 1, d) = 0
        raise PreconditionError(
            "no finite value: every alternating map has an isotropic "
            f"subspace of dimension min(d-1, n) = {min(d - 1, n)} > k = {k}"
        )
    row = _exceptional_row(n, d)
    if row is not None and row[1] <= k:
        if not char_zero:
            raise PreconditionError(
                f"exceptional case ({row[0]}) requires characteristic 0; "
                "pass char_zero=True"
            )
        return ClosedForm(1, f"exceptional:{row[0]}")
    a = (k + 1) * (n - k - 1)  # >= 0, as k < n
    value = a // comb(k + 1, d) + 1 if _at_least(a, 1, k + 1, d) else 1
    return ClosedForm(value, "generic")


def gq_number(n: int, d: int) -> ClosedForm:
    """Least codomain dimension forcing the isotropy index of order-d
    alternating maps on F^n down to d - 1: max(0, d(n-d)) + 1."""
    if n < 1 or d < 1:
        raise PreconditionError("need n, d >= 1")
    return ClosedForm(max(0, d * (n - d)) + 1, "generic")


# definitional scans: the independent oracles for the round-trip checks


def turan_by_scan(
    n: int, d: int, k: int, char_zero: bool = False, r_max: int = 10_000
) -> Optional[int]:
    """min r >= 1 with alpha_alt_closed(n, d, r) <= k by direct scan;
    None if no r up to r_max qualifies."""
    for r in range(1, r_max + 1):
        if alpha_alt_closed(n, d, r, char_zero).value <= k:
            return r
    return None


def fp_by_scan(
    d: int, m: int, k: int, char_zero: bool = False, n_max: int = 10_000
) -> Optional[int]:
    """min n >= 1 with alpha_alt_closed(n, d, m) >= k by direct scan;
    None if no n up to n_max qualifies."""
    for n in range(1, n_max + 1):
        if alpha_alt_closed(n, d, m, char_zero).value >= k:
            return n
    return None


# ---------------------------------------------------------------------------
# inequality and predicate checks
# ---------------------------------------------------------------------------

HOLDS = "holds"
STRICT = "strict"
VIOLATED = "violated"


def stratum_inequality_check(m: int, n: int, k: int, d: int, l: int) -> str:
    """Checks l(n + l - 2k) >= m * C(l, d) under the hypotheses
    n + l - 2k >= 0, n > k >= l >= d >= 2, m >= 2, k(n-k) >= m * C(k, d).

    Returns 'strict' when the strict-hypothesis form applies and holds
    strictly, 'holds' for plain inequality, 'violated' never (a violation
    would falsify the dimension bound this feeds)."""
    if not (
        n + l - 2 * k >= 0
        and n > k >= l >= d >= 2
        and m >= 2
        and k * (n - k) >= m * comb(k, d)
    ):
        raise PreconditionError("hypotheses not satisfied")
    lhs = l * (n + l - 2 * k)
    rhs = m * comb(l, d)
    if lhs < rhs:
        return VIOLATED
    if k * (n - k) > m * comb(k, d):
        return STRICT if lhs > rhs else VIOLATED
    return HOLDS


def has_plane_isotropy(n: int, d: int, m: int) -> bool:
    """Whether every multilinear map (F^n)^d -> F^m over an algebraically
    closed F admits a d-tuple of 2-dimensional isotropic subspaces:
    equivalent to d(n-2) >= m * 2^(d-1)."""
    if n < 1 or d < 1 or m < 2:
        raise PreconditionError("need n, d >= 1 and m >= 2")
    a = d * (n - 2)
    # m * 2^(d-1) > a once 2^(d-1) is: the power is formed only when small
    return a >= 0 and a.bit_length() > d - 1 and a >= m << (d - 1)


class BoxExponent(NamedTuple):
    exponent: Fraction
    admissible: bool


def box_exponent(n: int, d: int, m: int) -> BoxExponent:
    """Edge-count exponent d - m/n of the algebraic box-free construction,
    with its admissibility condition d(n-1) > (2^d - 1) m."""
    if n < 1 or d < 1 or m < 0:
        raise PreconditionError("need n, d >= 1 and m >= 0")
    a = d * (n - 1)
    # (2^d - 1) m > a once 2^(d-1) is: the power is formed only when small
    admissible = a > 0 if m == 0 else a.bit_length() >= d and a > ((1 << d) - 1) * m
    return BoxExponent(Fraction(d * n - m, n), admissible)
