"""Zero-set counting and analytic rank of multilinear maps over F_q.

The analytic rank of T: (F_q^N)^d -> F_q^m is dN - log_q |Z_T| where Z_T
is the set of argument tuples mapped to zero.  It is stored exactly as the
pair (dN, |Z_T|) and compared through integer inequalities; the decimal
log is presentation only.  The partition rank is never computed, only its
coordinate-decomposition bound m.

|Z_T| is counted over projective points: every slot but one is fixed to a
canonical point (first nonzero coordinate one), contracted in place, and
the last slot's zeros are read off the rank of the remaining m x N
matrix.  Rank is invariant under scaling an argument, and a zero argument
zeroes the matrix, so the (q-1)^(d-1) scalings of each fixed tuple and the
tuples with a zero argument are counted in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

from .errors import DEFAULT_CAP, InvariantViolation, PreconditionError, check_cap
from .grassmann import Subspace, span_points, rank as matrix_rank
from .tensor import Tensor, _contract_first, _contract_slot, all_vectors


def zero_count(
    T: Tensor, cap: int = DEFAULT_CAP, method: str = "kernel", kernel_slot: int = 0
) -> int:
    """Exact |{(x_1..x_d) : T(x_1..x_d) = 0}|.

    'kernel' fixes all slots but one and adds q^(N - rank) for the induced
    m x N matrix, over projective points only: a zero argument makes the
    matrix zero, and scaling an argument by c != 0 scales the matrix.  With
    N_q = q^N and s = d - 1 fixed slots,

        |Z| = (N_q^s - (N_q - 1)^s) N_q + (q - 1)^s sum q^(N - rank),

    the sum running over the P^s tuples of canonical points, P =
    (N_q - 1)/(q - 1).  The cap is charged with those P^s rank calls.
    'raw' scans every vector tuple, with no rank call and no projective
    reduction.  Both give the same count, and any choice of kernel slot
    does too (multilinearity).
    """
    if not isinstance(T, Tensor):
        raise PreconditionError("zero counting needs a dense multilinear tensor")
    field = T.field
    q, n, d, m = field.q, T.n, T.d, T.m
    if n == 0:
        return 1
    if method == "raw":
        check_cap(q ** (d * n), cap, "raw zero-set scan")
        vectors = list(all_vectors(field, n))
        count = 0

        def rec(flat, order):
            nonlocal count
            if order == 0:
                if all(c == 0 for c in flat):
                    count += 1
                return
            for v in vectors:
                rec(_contract_first(field, flat, m, n, order, v), order - 1)

        rec(T.coeffs, d)
        return count
    if method != "kernel":
        raise PreconditionError(f"unknown method {method!r}")
    if not 0 <= kernel_slot < d:
        raise PreconditionError("kernel slot out of range")
    s = d - 1
    nq = q**n
    check_cap(((nq - 1) // (q - 1)) ** s, cap, "zero-set kernel scan")
    points = list(span_points(field, Subspace.full(field, n).rows)) if s else []
    # the fixed slots, highest first, so the lower slot indices stay put
    slots = [j for j in reversed(range(d)) if j != kernel_slot]
    total = 0

    def rec(flat, depth):
        nonlocal total
        if depth == s:
            rows = [flat[o * n : (o + 1) * n] for o in range(m)]
            total += q ** (n - matrix_rank(field, rows))
            return
        for v in points:
            rec(_contract_slot(field, flat, m, n, d - depth, v, slots[depth]), depth + 1)

    rec(T.coeffs, 0)
    return (nq**s - (nq - 1) ** s) * nq + (q - 1) ** s * total


@dataclass(frozen=True)
class RankReport:
    """Exact analytic-rank data: AR = dn - log_q(zero_count)."""

    q: int
    dn: int  # d * (domain dimension)
    zero_count: int
    bound_m: int

    @property
    def ar_leq_m(self) -> bool:
        return self.zero_count >= self.q ** (self.dn - self.bound_m)

    @property
    def ar_nonnegative(self) -> bool:
        return self.zero_count <= self.q**self.dn

    @property
    def ar_decimal(self) -> float:
        return self.dn - log(self.zero_count) / log(self.q)

    def to_dict(self) -> dict:
        return {
            "zero_count": str(self.zero_count),
            "dn1": self.dn,
            "ar_leq_m": self.ar_leq_m,
            "ar_decimal": self.ar_decimal,
        }


def analytic_rank(T: Tensor, cap: int = DEFAULT_CAP) -> RankReport:
    """Zero count plus the exact analytic-rank inequalities.  The report is
    checked against 0 <= AR <= m before being returned; a failure would
    falsify the partition-rank bound and is raised as a hard error."""
    zc = zero_count(T, cap)
    report = RankReport(q=T.field.q, dn=T.d * T.n, zero_count=zc, bound_m=T.m)
    if not report.ar_nonnegative:
        raise InvariantViolation("zero count exceeds the domain size")
    if not report.ar_leq_m:
        raise InvariantViolation(
            f"analytic rank above m: |Z| = {zc} < q^(dn - m) "
            f"= {T.field.q ** (report.dn - T.m)}"
        )
    return report
