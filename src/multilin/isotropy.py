"""Isotropic-subspace searches and incidence point counts over F_q.

``alpha_alt`` computes the largest dimension of a subspace on which an
alternating map vanishes, by depth-first flag extension: every subspace of
dimension d-1 is isotropic outright (alternation kills argument tuples
with a linear dependence), so the search seeds its frontier there and
grows flags upward.  At a node with basis rows R the admissible extension
vectors are exactly the joint kernel of the linear maps
x -> T(b_{i_1}, ..., b_{i_{d-1}}, x) over the (d-1)-subsets of R, so
candidates are generated, not tested: the kernel is intersected with the
canonical coset representatives modulo the current subspace, and each new
subspace is visited once.  A candidate is zero at the current pivots and
leads with a one, so it joins the RREF basis by clearing its pivot column
from the old rows, with no fresh elimination.  Every frontier row and
every candidate is a canonical projective point, so the order-d
contraction T(v, ...) is computed once per point and kept for the whole
search; the lower-order contractions stay per node.  Row operations run
on the field's row kernel (:meth:`multilin.field.Field.row_ops`).

``alpha_alt_by_scan`` is the independent oracle: a plain top-down
Grassmannian scan that shares no code path with the DFS.

``alpha_hom`` and the 2-dimensional tuple enumeration search d-tuples of
subspaces slot by slot, pruning through partial contractions; the final
slot is read off a joint kernel instead of being scanned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .errors import (
    DEFAULT_CAP,
    CapExceededError,
    InvariantViolation,
    PreconditionError,
    check_cap,
)
from .field import Field
from .grassmann import (
    Subspace,
    enumerate_grassmannian,
    gauss_binom,
    kernel_basis,
    rref,
    span_points,
)
from .tensor import (
    AltTensor,
    Tensor,
    _contract_first,
    alt_restricts_zero,
    expand,
    restrict_zero,
)

# Tensor-count ceiling for exhaustive scans over whole map spaces.
DEFAULT_TENSOR_CAP = 1 << 20


@dataclass(frozen=True)
class IsotropyResult:
    """Search outcome: the index found, a witness tuple of subspaces, and
    whether the search ran to completion (False when capped)."""

    index: int
    witness: tuple
    exhausted: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "exhausted": self.exhausted,
            "witness": [w.to_dict() for w in self.witness],
        }


# ---------------------------------------------------------------------------
# alternating maps: DFS over flags
# ---------------------------------------------------------------------------


class _AltSearch:
    def __init__(self, T: AltTensor, cap: int):
        self.field = T.field
        self.n = T.n
        self.d = T.d
        self.m = T.m
        self.dense = expand(T).coeffs
        self.cap = cap
        self.visits = 0
        self.exhausted = True
        self.best_k = -1
        self.best_rows: Optional[tuple] = None
        self.upper = self.n - 1  # T is nonzero when the search runs
        self.seen = {}
        self.first = {}  # canonical point v -> T(v, ...), shared, never mutated

    def found(self, rows: tuple) -> bool:
        """Record a discovered isotropic subspace; True when done."""
        if len(rows) > self.best_k:
            self.best_k = len(rows)
            self.best_rows = rows
        return self.best_k >= self.upper

    def spend(self) -> bool:
        """Account one subspace visit; True when the budget ran out."""
        self.visits += 1
        if self.visits > self.cap:
            self.exhausted = False
            return True
        return False

    def joint_kernel(self, partial: dict, rows: tuple) -> list:
        """Kernel of x -> T(subset, x) over all (d-1)-subsets of rows."""
        blocks = (
            partial[subset]
            for subset in itertools.combinations(range(len(rows)), self.d - 1)
        )
        return _last_slot_kernel(self.field, blocks, self.m, self.n)

    def contract(self, v: tuple) -> tuple:
        """T(v, ...), the order-d contraction, computed once per point:
        every frontier row and every candidate is a canonical projective
        point, so at most (q^n - 1)/(q - 1) are stored."""
        block = self.first.get(v)
        if block is None:
            block = tuple(
                _contract_first(self.field, self.dense, self.m, self.n, self.d, v)
            )
            self.first[v] = block
        return block

    def extend_partial(self, partial: dict, rows: tuple, v) -> dict:
        """Contractions for subsets that include the new row."""
        field, m, n, d = self.field, self.m, self.n, self.d
        k = len(rows)
        out = dict(partial)
        for size in range(0, d - 1):
            for subset in itertools.combinations(range(k), size):
                out[subset + (k,)] = (
                    self.contract(v)
                    if size == 0
                    else _contract_first(field, partial[subset], m, n, d - size, v)
                )
        return out

    def candidates(self, kernel: list, rows: tuple, pivots: tuple) -> Iterator[tuple]:
        """Canonical representatives of the lines of kernel / span(rows):
        zero at the pivot columns of the current subspace, first nonzero
        coordinate one."""
        field = self.field
        axpy, _ = field.row_ops()
        # reduce the kernel basis modulo the current rows, then echelonize
        reduced = []
        for v in kernel:
            for row, pc in zip(rows, pivots):
                c = v[pc]
                if c:
                    v = axpy(v, field.neg(c), row)
            if any(v):
                reduced.append(v)
        comp, _ = rref(field, reduced)
        return span_points(field, comp)

    def dfs(self, rows: tuple, pivots: tuple, partial: dict) -> bool:
        """Extend the isotropic subspace with basis ``rows``; True = stop."""
        kernel = self.joint_kernel(partial, rows)
        if len(kernel) <= len(rows):
            return False  # kernel is exactly the subspace: no extension
        k = len(rows)
        seen = self.seen.setdefault(k + 1, set())
        for v in self.candidates(kernel, rows, pivots):
            if self.spend():
                return True
            new_rows, new_pivots = _rref_insert(self.field, rows, pivots, v)
            if new_rows in seen:
                continue
            seen.add(new_rows)
            if self.found(new_rows):
                return True
            if self.dfs(new_rows, new_pivots, self.extend_partial(partial, rows, v)):
                return True
        return False


def _rref_insert(field: Field, rows: tuple, pivots: tuple, v: tuple):
    """rref(rows + [v]) for RREF ``rows`` and a vector v that is zero at
    their pivots and leads with a one: v joins at its pivot's place and its
    pivot column is cleared from the old rows."""
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None or v[c] != field.one or any(v[pc] for pc in pivots):
        raise InvariantViolation("candidate is not reduced modulo the subspace")
    axpy, _ = field.row_ops()
    at = sum(1 for pc in pivots if pc < c)
    new_rows = [
        tuple(axpy(row, field.neg(row[c]), v)) if row[c] else row for row in rows
    ]
    new_rows.insert(at, v)
    return tuple(new_rows), pivots[:at] + (c,) + pivots[at:]


def alpha_alt(T: AltTensor, cap: int = DEFAULT_CAP) -> IsotropyResult:
    """Largest k with a k-dimensional subspace on which T vanishes, with a
    witness; ``exhausted`` is False when the visit cap cut the search."""
    if not isinstance(T, AltTensor):
        raise PreconditionError("alpha_alt needs an alternating tensor")
    field, n, d = T.field, T.n, T.d
    if T.is_zero():
        return IsotropyResult(n, (Subspace.full(field, n),), True)
    search = _AltSearch(T, cap)
    start_k = min(d - 1, n)
    # the search budget (spend) governs; the lazy generator needs no pre-check
    for W in enumerate_grassmannian(field, n, start_k, cap=1 << 62):
        if search.found(W.rows):  # every frontier subspace is isotropic
            break
        if search.spend():
            break
        partial = {(): search.dense}
        for i in range(start_k):
            partial = search.extend_partial(partial, W.rows[:i], W.rows[i])
        if search.dfs(W.rows, W.pivots, partial):
            break  # either the ceiling n-1 was reached or the budget ran out
    rows = search.best_rows
    witness = Subspace(field, n, rows, rref(field, rows)[1])
    if not alt_restricts_zero(T, witness):  # independent re-check
        raise InvariantViolation("witness fails restriction check")
    return IsotropyResult(search.best_k, (witness,), search.exhausted)


def alpha_alt_by_scan(T: AltTensor, cap: int = DEFAULT_CAP) -> IsotropyResult:
    """Oracle route: scan Grassmannians top-down and return the first
    dimension admitting an isotropic subspace."""
    if not isinstance(T, AltTensor):
        raise PreconditionError("alpha_alt_by_scan needs an alternating tensor")
    field, n = T.field, T.n
    for k in range(n, -1, -1):
        for W in enumerate_grassmannian(field, n, k, cap=cap):
            if alt_restricts_zero(T, W):
                return IsotropyResult(k, (W,), True)
    raise InvariantViolation("the zero subspace is always isotropic")


# ---------------------------------------------------------------------------
# general multilinear maps: slot-by-slot tuple search
# ---------------------------------------------------------------------------


def _last_slot_kernel(field: Field, blocks, m: int, n: int) -> list:
    """Kernel of the last slot: common kernel of the m x n matrices left
    by contracting every other slot, one per block, stacked into rows."""
    rows = []
    for block in blocks:
        rows.extend(block[o * n : (o + 1) * n] for o in range(m))
    return kernel_basis(field, rows, n)


def _subspaces_within(field: Field, n: int, basis: list, k: int) -> Iterator[Subspace]:
    """k-subspaces of span(basis), as subspaces of F^n."""
    dim = len(basis)
    if dim < k:
        return
    axpy, _ = field.row_ops()
    zero = (0,) * n
    for sel in enumerate_grassmannian(field, dim, k, cap=DEFAULT_CAP):
        vectors = []
        for coefs in sel.rows:
            v = zero
            for c, bvec in zip(coefs, basis):
                if c:
                    v = axpy(v, c, bvec)
            vectors.append(v)
        yield Subspace.span(field, n, vectors)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, cap: int):
        self.left = cap

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise CapExceededError("tuple search exceeded its cap")


def _tuple_search(
    field: Field,
    n: int,
    m: int,
    blocks,
    s: int,
    k: int,
    gr_list,
    budget: _Budget,
    collect: bool,
) -> Iterator[tuple]:
    """Yield s-tuples of k-subspaces annihilating every block (order s)."""
    if all(c == 0 for block in blocks for c in block):
        budget.spend()
        for tail in itertools.product(gr_list, repeat=s):
            yield tail
        return
    if s == 1:
        budget.spend()
        kernel = _last_slot_kernel(field, blocks, m, n)
        for V in _subspaces_within(field, n, kernel, k):
            yield (V,)
        return
    for V in gr_list:
        budget.spend()
        new_blocks = [
            _contract_first(field, block, m, n, s, row)
            for block in blocks
            for row in V.rows
        ]
        for tail in _tuple_search(
            field, n, m, new_blocks, s - 1, k, gr_list, budget, collect
        ):
            yield (V,) + tail
            if not collect:
                return


@dataclass(frozen=True)
class HomIsotropyResult:
    found: bool
    witness: Optional[tuple]
    exhausted: bool

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "exhausted": self.exhausted,
            "witness": [w.to_dict() for w in self.witness] if self.witness else None,
        }


def alpha_hom(T: Tensor, k: int, cap: int = DEFAULT_CAP) -> HomIsotropyResult:
    """Whether some d-tuple of k-subspaces annihilates T, with the first
    witness in search order.  Optimized (and exercised) for k = 2."""
    if not isinstance(T, Tensor):
        raise PreconditionError("alpha_hom needs a dense multilinear tensor")
    field, n = T.field, T.n
    if not 0 <= k <= n:
        raise PreconditionError(f"need 0 <= k <= n, got k={k}")
    if k == 0:
        zero = Subspace.zero(field, n)
        return HomIsotropyResult(True, (zero,) * T.d, True)
    check_cap(gauss_binom(n, k, field.q), cap, "slot candidate list")
    gr_list = list(enumerate_grassmannian(field, n, k, cap=cap))
    budget = _Budget(cap)
    try:
        for tup in _tuple_search(
            field, n, T.m, [T.coeffs], T.d, k, gr_list, budget, collect=False
        ):
            if not restrict_zero(T, tup):  # independent re-check
                raise InvariantViolation("witness fails restriction check")
            return HomIsotropyResult(True, tup, True)
    except CapExceededError:
        return HomIsotropyResult(False, None, False)
    return HomIsotropyResult(False, None, True)


def isotropic_plane_tuples(T: Tensor, cap: int = DEFAULT_CAP) -> list:
    """All d-tuples of 2-dimensional subspaces annihilating T, sorted into
    canonical order.  Exact: the pruning never drops a tuple."""
    if not isinstance(T, Tensor):
        raise PreconditionError("plane-tuple enumeration needs a dense tensor")
    field, n = T.field, T.n
    check_cap(gauss_binom(n, 2, field.q) ** T.d, cap, "plane-tuple enumeration")
    gr_list = list(enumerate_grassmannian(field, n, 2, cap=cap))
    budget = _Budget(cap)
    out = list(
        _tuple_search(field, n, T.m, [T.coeffs], T.d, 2, gr_list, budget, collect=True)
    )
    out.sort(key=lambda tup: tuple(V.rows for V in tup))
    return out


def count_plane_tuples(T: Tensor, limit: Optional[int] = None, cap: int = DEFAULT_CAP) -> int:
    """|D| for D the set of plane tuples annihilating T, without listing.
    When ``limit`` is given, counting stops at limit + 1."""
    if not isinstance(T, Tensor):
        raise PreconditionError("plane-tuple counting needs a dense tensor")
    field, n, m = T.field, T.n, T.m
    q = field.q
    total = gauss_binom(n, 2, q)
    bail = limit if limit is not None else None
    gr_list = list(enumerate_grassmannian(field, n, 2, cap=cap))
    budget = _Budget(cap)

    def rec(blocks, s):
        if all(c == 0 for block in blocks for c in block):
            return total**s
        if s == 1:
            kernel = _last_slot_kernel(field, blocks, m, n)
            return gauss_binom(len(kernel), 2, q)
        count = 0
        for V in gr_list:
            budget.spend()
            count += rec(
                [
                    _contract_first(field, block, m, n, s, row)
                    for block in blocks
                    for row in V.rows
                ],
                s - 1,
            )
            if bail is not None and count > bail:
                return count
        return count

    return rec([T.coeffs], T.d)


# ---------------------------------------------------------------------------
# minima over whole map spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldAlphaResult:
    """Minimum isotropy index over a space of alternating maps.  When
    ``exhaustive`` is False the value is only an upper bound for the true
    minimum (sampling mode)."""

    value: int
    exhaustive: bool
    tensors_scanned: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "exhaustive": self.exhaustive,
            "tensors_scanned": self.tensors_scanned,
        }


def alpha_field_alt(
    field: Field,
    n: int,
    d: int,
    m: int,
    cap: int = DEFAULT_CAP,
    tensor_cap: int = DEFAULT_TENSOR_CAP,
    samples: Optional[int] = None,
    seed: int = 0,
) -> FieldAlphaResult:
    """min over T in Alt^d(F^n, F^m) of alpha_alt(T): exact when the full
    coefficient space fits ``tensor_cap``, otherwise a sampled upper bound
    (requires an explicit ``samples`` count)."""
    ncoef = m * comb(n, d)
    floor_value = min(d - 1, n)
    total = field.q**ncoef
    if samples is None:
        check_cap(total, tensor_cap, "exhaustive tensor scan")
        best = n
        scanned = 0
        for coeffs in itertools.product(field.elements(), repeat=ncoef):
            scanned += 1
            result = alpha_alt(AltTensor(field, n, d, m, coeffs), cap)
            if not result.exhausted:
                raise CapExceededError("inner isotropy search capped")
            best = min(best, result.index)
            if best <= floor_value:
                break  # the index never drops below min(d-1, n)
        return FieldAlphaResult(best, True, scanned)
    from .prng import SplitMix64

    rng = SplitMix64(seed)
    best = n
    for i in range(samples):
        T = AltTensor(field, n, d, m, tuple(rng.below(field.q) for _ in range(ncoef)))
        result = alpha_alt(T, cap)
        if not result.exhausted:
            raise CapExceededError("inner isotropy search capped")
        best = min(best, result.index)
        if best <= floor_value:
            return FieldAlphaResult(best, False, i + 1)
    return FieldAlphaResult(best, False, samples)


# ---------------------------------------------------------------------------
# incidence point counts
# ---------------------------------------------------------------------------


def count_alt_incidence(field: Field, n: int, d: int, m: int, k: int) -> int:
    """|{(V, [T]) : V a k-subspace, T alternating nonzero up to scalar,
    T vanishes on V}| over F_q, by the fiber product formula: the maps
    vanishing on a fixed V form a subspace of codimension m * C(k, d)."""
    q = field.q
    fiber_dim = m * (comb(n, d) - comb(k, d))
    return gauss_binom(n, k, q) * ((q**fiber_dim - 1) // (q - 1))


def count_hom_incidence(field: Field, n: int, d: int, m: int) -> int:
    """|{(U_1..U_d, [T]) : U_i 2-dimensional, T multilinear nonzero up to
    scalar, T vanishes on the product}|, fiber exponent m (n^d - 2^d)."""
    q = field.q
    fiber_dim = m * (n**d - 2**d)
    return gauss_binom(n, 2, q) ** d * ((q**fiber_dim - 1) // (q - 1))


def count_alt_incidence_raw(
    field: Field, n: int, d: int, m: int, k: int, cap: int = DEFAULT_CAP
) -> int:
    """Raw enumeration cross-check of :func:`count_alt_incidence`."""
    q = field.q
    ncoef = m * comb(n, d)
    reps = (q**ncoef - 1) // (q - 1)
    check_cap(reps * gauss_binom(n, k, q), cap, "raw incidence scan")
    subs = list(enumerate_grassmannian(field, n, k, cap=cap))
    count = 0
    for coeffs in span_points(field, Subspace.full(field, ncoef).rows):
        T = AltTensor(field, n, d, m, coeffs)
        count += sum(1 for V in subs if alt_restricts_zero(T, V))
    return count


def count_hom_incidence_raw(
    field: Field, n: int, d: int, m: int, cap: int = DEFAULT_CAP
) -> int:
    """Raw enumeration cross-check of :func:`count_hom_incidence`."""
    q = field.q
    ncoef = m * n**d
    reps = (q**ncoef - 1) // (q - 1)
    check_cap(reps * gauss_binom(n, 2, q) ** d, cap, "raw incidence scan")
    subs = list(enumerate_grassmannian(field, n, 2, cap=cap))
    count = 0
    for coeffs in span_points(field, Subspace.full(field, ncoef).rows):
        T = Tensor(field, n, d, m, coeffs)
        count += sum(
            1
            for tup in itertools.product(subs, repeat=d)
            if restrict_zero(T, tup)
        )
    return count
