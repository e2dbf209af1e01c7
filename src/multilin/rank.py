"""Zero-set counting and analytic rank of multilinear maps over F_q.

The analytic rank of T: (F_q^N)^d -> F_q^m is dN - log_q |Z_T| where Z_T
is the set of argument tuples mapped to zero.  It is stored exactly as the
pair (dN, |Z_T|) and compared through integer inequalities; the decimal
log is presentation only.  The partition rank is never computed, only its
coordinate-decomposition bound m.

|Z_T| is counted over projective points: some slots are fixed to
canonical points (first nonzero coordinate one) and contracted in place,
and the zeros of the free slots are read off kernel dimensions.  A
kernel is invariant under scaling an argument, and a zero argument zeroes
what is left, so the (q-1)^s scalings of each fixed s-tuple and the tuples
with a zero argument are counted in closed form.  Two leaves read the free
slots:

- with one free slot, the kernel dimension k of the remaining m x N
  matrix gives its q^k zeros;
- with two free slots (when m < N), the bias identity behind analytic
  rank (Gowers-Wolf 2011; Lovett 2019) sums the additive character over
  the codomain: q^m |zeros| = sum over lambda in F^m of q^(N + k_lambda),
  k_lambda the kernel dimension of M_lambda = sum_o lambda_o M_o, the
  N x N matrix of lambda . T.  Again by scaling, lambda runs over zero and
  the (q^m - 1)/(q - 1) projective points.

A fixed slot's P children are the ``grassmann.point_rows`` of its N unit
contractions, streamed.  A kernel dimension is N less a rank, or, where
the leaves are many enough to pay for it, the popcount of an AND of
zero-set masks off the table of P(F^N), ``grassmann.zero_set_table``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log

from .errors import DEFAULT_CAP, InvariantViolation, PreconditionError, check_cap
from .grassmann import leaf_form, point_rows, rank as matrix_rank, zero_set_table
from .tensor import Tensor, _contract_first, _contract_slot


def zero_count(
    T: Tensor, cap: int = DEFAULT_CAP, method: str = "kernel", kernel_slot: int = 0
) -> int:
    """Exact |{(x_1..x_d) : T(x_1..x_d) = 0}|.

    'kernel' fixes s slots at canonical projective points and counts the
    zeros of the f = d - s free slots from kernel dimensions.  A zero
    argument makes what is left zero, and scaling an argument by c != 0
    scales it, so with N_q = q^N,

        |Z| = (N_q^s - (N_q - 1)^s) N_q^f + (q - 1)^s sum Z_f,

    the sum running over the P^s tuples of canonical points, P =
    (N_q - 1)/(q - 1), and Z_f counting the zeros of the free slots.  The
    route follows from the shape alone:

    - m < N and d >= 2: f = 2, ``kernel_slot`` and its neighbour.  The
      character sum over the codomain gives q^m Z_f = q^(2N) + (q - 1)
      sum q^(N + k_lambda) over the (q^m - 1)/(q - 1) projective lambda in
      F^m, k_lambda the kernel dimension of the N x N matrix M_lambda of
      lambda . T.  The total is divided by q^m once; a remainder is an
      ``InvariantViolation``.  That is P^(d-2) (q^m - 1)/(q - 1) leaves.
    - otherwise f = 1, ``kernel_slot``: Z_f = q^k for the kernel dimension
      k of the m x N matrix left, P^(d-1) leaves.  At m = N both routes
      have as many leaves, and this one reads smaller matrices.

    A fixed slot's P children are the ``grassmann.point_rows`` of its N
    unit contractions, one axpy each.  A leaf's k is N less a rank, unless
    the shape has at least 2P leaves and P^2 fits the cap: then it is read
    off the shared table of P(F^N), ``grassmann.zero_set_table``, whose P
    entries are thus at most half the leaves.  Elsewhere the table would
    cost more than it saves.  Either way the cap is charged the route's
    leaves, before anything is formed.
    'raw' scans every vector tuple, with no kernel and no projective
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
        vectors = list(itertools.product(field.elements(), repeat=n))

        def children(flat, order):
            return (_contract_first(field, flat, m, n, order, v) for v in vectors)

        return _leaf_sum(T.coeffs, d, children, lambda flat: not any(flat))
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
    npts = (nq - 1) // (q - 1)
    leaves = npts**s * ((q**m - 1) // (q - 1) if pairs else 1)
    check_cap(leaves, cap, "zero-set kernel scan")
    table = zero_set_table(field, n, cap) if 2 * npts <= leaves else None
    units = [tuple(field.one if j == i else 0 for j in range(n)) for i in range(n)]

    def children(flat, level):
        """The P contractions of the fixed slot ``level`` slots above the
        leaves, at the canonical points in order, streamed."""
        slot, order = slots[s - level], len(free) + level
        return point_rows(field, [_contract_slot(field, flat, m, n, order, e, slot) for e in units])

    def kernel_dim(flat):
        """The kernel dimension of the matrix of n-entry rows in flat."""
        rows = [flat[i : i + n] for i in range(0, len(flat), n)]
        if table is None:
            return n - matrix_rank(field, rows)
        return table.dimension(leaf_form(field, rows))

    if pairs:
        starts = range(0, m * n * n, n * n)

        def leaf(flat):
            """q^m times the zeros of the two free slots: the M_lambda are
            the ``point_rows`` of the m matrices M_o, or flat itself at
            m = 1, where lambda = 1 is the one point."""
            Ms = point_rows(field, [flat[i : i + n * n] for i in starts]) if m > 1 else (flat,)
            acc = sum(q ** (n + kernel_dim(M)) for M in Ms)
            return nq * nq + (q - 1) * acc

    else:

        def leaf(flat):
            """The zeros of the free slot."""
            return q ** kernel_dim(flat)

    total = _leaf_sum(T.coeffs, s, children, leaf)
    if pairs:
        if total % q**m:
            raise InvariantViolation(f"character sum {total} is not a multiple of q^m = {q**m}")
        total //= q**m
    return (nq**s - (nq - 1) ** s) * nq ** len(free) + (q - 1) ** s * total


def _leaf_sum(flat, levels: int, children, leaf) -> int:
    """The sum of ``leaf`` over the nodes ``levels`` steps of
    ``children(node, levels left)`` below flat.  A module function, not a
    closure that calls itself: such a closure is a reference cycle, which
    would keep a call's tables alive until the next cyclic collection."""
    if levels == 0:
        return leaf(flat)
    nodes = children(flat, levels)
    if levels == 1:
        return sum(map(leaf, nodes))
    return sum(_leaf_sum(child, levels - 1, children, leaf) for child in nodes)


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
