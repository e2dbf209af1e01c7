"""Zero-set counting and analytic rank of multilinear maps over F_q.

The analytic rank of T: (F_q^N)^d -> F_q^m is dN - log_q |Z_T| where Z_T
is the set of argument tuples mapped to zero.  It is stored exactly as the
pair (dN, |Z_T|) and compared through integer inequalities; the decimal
log is presentation only.  The partition rank is never computed, only its
coordinate-decomposition bound m.

|Z_T| is counted over projective points: some slots are fixed to
canonical points (first nonzero coordinate one) and contracted in place,
and the zeros of the free slots are read off ranks.  Rank is invariant
under scaling an argument, and a zero argument zeroes what is left, so the
(q-1)^s scalings of each fixed s-tuple and the tuples with a zero argument
are counted in closed form.  Two leaves read the free slots:

- with one free slot, the rank of the remaining m x N matrix gives its
  q^(N - rank) zeros;
- with two free slots (when m < N), the bias identity behind analytic
  rank (Gowers-Wolf 2011; Lovett 2019) sums the additive character over
  the codomain: q^m |zeros| = sum over lambda in F^m of
  q^(2N - rank M_lambda), with M_lambda = sum_o lambda_o M_o the N x N
  matrix of lambda . T.  Again by scaling, lambda runs over zero and the
  (q^m - 1)/(q - 1) projective points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log

from .errors import DEFAULT_CAP, InvariantViolation, PreconditionError, check_cap
from .grassmann import projective_points, rank as matrix_rank
from .tensor import Tensor, _contract_first, _contract_slot


def zero_count(
    T: Tensor, cap: int = DEFAULT_CAP, method: str = "kernel", kernel_slot: int = 0
) -> int:
    """Exact |{(x_1..x_d) : T(x_1..x_d) = 0}|.

    'kernel' fixes s slots at canonical projective points and counts the
    zeros of the f = d - s free slots by rank.  A zero argument makes what
    is left zero, and scaling an argument by c != 0 scales it, so with
    N_q = q^N,

        |Z| = (N_q^s - (N_q - 1)^s) N_q^f + (q - 1)^s sum Z_f,

    the sum running over the P^s tuples of canonical points, P =
    (N_q - 1)/(q - 1), and Z_f counting the zeros of the free slots.  The
    route follows from the shape alone:

    - m < N and d >= 2: f = 2, ``kernel_slot`` and its neighbour.  The
      character sum over the codomain gives q^m Z_f = q^(2N) + (q - 1)
      sum q^(2N - rank M_lambda) over the (q^m - 1)/(q - 1) projective
      lambda in F^m, M_lambda the N x N matrix of lambda . T.  The total
      is divided by q^m once; a remainder is an ``InvariantViolation``.
      That is P^(d-2) (q^m - 1)/(q - 1) rank calls.
    - otherwise f = 1, ``kernel_slot``: Z_f = q^(N - rank) for the m x N
      matrix left, P^(d-1) rank calls.  At m = N both routes make as
      many calls, and this one ranks smaller matrices.

    The cap is charged with the route's rank calls.  'raw' scans every
    vector tuple, with no rank call and no projective reduction.  Both
    give the same count, and any choice of kernel slot does too
    (multilinearity).
    """
    if not isinstance(T, Tensor):
        raise PreconditionError("zero counting needs a dense multilinear tensor")
    field = T.field
    q, n, d, m = field.q, T.n, T.d, T.m
    if n == 0:
        return 1
    if method == "raw":
        check_cap(q ** (d * n), cap, "raw zero-set scan")
        vectors = list(itertools.product(field.elements(), repeat=n))
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
    nq = q**n
    pairs = d >= 2 and m < n
    free = {kernel_slot}
    if pairs:
        free.add(kernel_slot + 1 if kernel_slot + 1 < d else kernel_slot - 1)
    # the fixed slots, highest first, so the lower slot indices stay put
    slots = [j for j in reversed(range(d)) if j not in free]
    s = len(slots)
    leaf_calls = (q**m - 1) // (q - 1) if pairs else 1
    check_cap(((nq - 1) // (q - 1)) ** s * leaf_calls, cap, "zero-set kernel scan")
    points = projective_points(field, n, cap) if s else []

    if pairs:
        block = n * n
        # each canonical lambda leads with a one: start from that matrix
        combos = [
            [(o * block, c) for o, c in enumerate(lam) if c]
            for lam in projective_points(field, m, cap)
        ]
        axpy, _ = field.row_ops()

        def leaf(flat):
            """q^m times the zeros of the two free slots."""
            acc = 0
            for (lead, _), *rest in combos:
                M = flat[lead : lead + block]
                for start, c in rest:
                    M = axpy(M, c, flat[start : start + block])
                rows = [M[i : i + n] for i in range(0, block, n)]
                acc += q ** (2 * n - matrix_rank(field, rows))
            return nq * nq + (q - 1) * acc

    else:

        def leaf(flat):
            """The zeros of the free slot."""
            rows = [flat[i : i + n] for i in range(0, m * n, n)]
            return q ** (n - matrix_rank(field, rows))

    total = 0

    def rec(flat, depth):
        nonlocal total
        if depth == s:
            total += leaf(flat)
            return
        for v in points:
            rec(_contract_slot(field, flat, m, n, d - depth, v, slots[depth]), depth + 1)

    rec(T.coeffs, 0)
    if pairs:
        if total % q**m:
            raise InvariantViolation(f"character sum {total} is not a multiple of q^m = {q**m}")
        total //= q**m
    return (nq**s - (nq - 1) ** s) * nq ** len(free) + (q - 1) ** s * total


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
