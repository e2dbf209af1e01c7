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


class ClosedForm(NamedTuple):
    value: int
    branch: str


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def alpha_bound(n: int, d: int, m: int) -> int:
    """Largest s in [0, n] with s(n-s) >= m * C(s, d).

    This is the dimension-count threshold; for m >= 2 over algebraically
    closed fields it equals the isotropy index of alternating maps.
    """
    if n < 1 or d < 1 or m < 1:
        raise PreconditionError("need n, d, m >= 1")
    for s in range(n, -1, -1):
        if s * (n - s) >= m * comb(s, d):
            return s
    raise InvariantViolation("s = 0 always qualifies")  # pragma: no cover


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
    if d == 2:
        # a form's rank r is even: its radical and a Lagrangian of the
        # quotient span an isotropic subspace of dimension n - r/2
        return ClosedForm((n + 1) // 2, "exceptional:d=2")
    if (d, n) == (3, 7):
        return ClosedForm(4, "exceptional:(3,7)")
    if d == n - 2 and d % 2 == 0:
        return ClosedForm(n - 2, "exceptional:d=n-2-even")
    return ClosedForm(alpha_bound(n, d, 1), "generic")


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


def _turan_exceptional(n: int, d: int, k: int) -> Optional[str]:
    if d == 2 and (n + 1) // 2 <= k:
        return "d=2"
    if (d, n) == (3, 7) and 4 <= k:
        return "(3,7)"
    if d == n - 2 and n % 2 == 0 and n - 2 <= k:
        return "d=n-2-even"
    return None


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
    if comb(k + 1, d) == 0:
        raise PreconditionError(
            "no finite value: every alternating map has an isotropic "
            f"subspace of dimension min(d-1, n) = {min(d - 1, n)} > k = {k}"
        )
    which = _turan_exceptional(n, d, k)
    if which is not None:
        if not char_zero:
            raise PreconditionError(
                f"exceptional case ({which}) requires characteristic 0; "
                "pass char_zero=True"
            )
        return ClosedForm(1, f"exceptional:{which}")
    value = max(0, (k + 1) * (n - k - 1) // comb(k + 1, d)) + 1
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
    return d * (n - 2) >= m * 2 ** (d - 1)


class BoxExponent(NamedTuple):
    exponent: Fraction
    admissible: bool


def box_exponent(n: int, d: int, m: int) -> BoxExponent:
    """Edge-count exponent d - m/n of the algebraic box-free construction,
    with its admissibility condition d(n-1) > (2^d - 1) m."""
    if n < 1 or d < 1 or m < 0:
        raise PreconditionError("need n, d >= 1 and m >= 0")
    return BoxExponent(
        Fraction(d * n - m, n), d * (n - 1) > (2**d - 1) * m
    )
