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
from the old rows, with no fresh elimination.  Every contraction is an
interior product on T's coefficient list (``tensor.alt_contract``), and
every frontier row and every candidate is a canonical projective point,
so the order-d contraction T(..., v) is computed once per point and kept
for the whole search; the lower-order contractions stay per node.  Row
operations run on the field's row kernel (:meth:`multilin.field.Field.row_ops`).

The search stops as soon as the index is decided.  Every isotropic
subspace containing W lies in the joint kernel K(W), so a node whose
kernel is no larger than the best dimension found, k, is not extended.
After a frontier subtree raises k, a top-down certificate scans
Gr(k+1, n) for an isotropic subspace, but only when that Grassmannian has
no more subspaces than the frontier Gr(d-1, n), whose walk it would cut
short (a closed-form rule, with no setting).  One row-prefix walk seeds
the DFS at Gr(d-1, n) and makes this scan: it chooses the RREF rows one
at a time, in the enumeration's order, keeping the contractions of the
rows chosen so far; a row outside the joint kernel of the earlier rows'
(d-1)-subsets rules out all of its completions, and the cap is charged
their number in one step, so each scanned subspace is still one visit and
no subspace is built.  Hyperplanes are not scanned: T vanishes on
ker phi iff phi ^ T = 0, a linear condition on phi
(``tensor.alt_wedge_rows``).  With no such phi, Gr(n-1, n) is charged in
one step; otherwise the first isotropic hyperplane in the enumeration's
order, and its place there, are read off the null space, and the charge
up to that place is one step.  Either way the charge ends where the
scan's would.  If none is isotropic, k is the index and the search ends;
if one is, the DFS goes on, so the witness is always the DFS's first
subspace of the final dimension.

``alpha_field_alt`` searches only one map per scalar class: multiples
share their index, and the one whose leading coefficient is the element
encoded 1 comes first in product order.  The exhaustive scan draws only
those maps, each with its place in product order.  Each
search gets the running minimum as a ceiling and stops once it has shown
the map cannot go below it.  Its witness W, of dimension at least the
minimum, is kept: a later map that vanishes on W has index at least
dim W, so it cannot lower the minimum and is not searched (nor can it
hit the search cap).  The test reads W's d x d minors, computed once by
``tensor.alt_minors`` when W is kept, against the map's coefficients, as
:func:`alt_restricts_zero` does; the pool's rules are given at
:func:`alpha_field_alt`.

``alpha_alt_by_scan`` is the independent oracle: a plain top-down
Grassmannian scan that shares no code path with the DFS.

``alpha_hom``, the plane-tuple enumeration, the plane-tuple count and
the hypergraph build of :mod:`multilin.boxfree` share one slot walk: it
runs the first d - 1 slots over a list of subspace bases, stops at a
prefix on which T vanishes (every later slot is then free), and reads the
last slot off the joint kernel of the prefix's contractions instead of
scanning it.  Contractions are memoised per tuple of basis rows, so each
point tuple is contracted once per walk; a (d-1)-tuple's nonzero rows are
kept in ``grassmann.leaf_form``, and the leaves below one node are handed
out as one group, which reads each leaf's kernel dimension k one way.
Where the walk's G^(d-1) leaves, G the bases, pay for the P^2 entries of
the zero-set table, P = |P(F^n)| (only at d >= 3 for n >= 2), and P^d
fits the cap, k is read with no elimination: each functional's zero set
is a bitmask over ``grassmann.projective_points`` read off the table that
``grassmann.zero_set_table`` keeps per (F_q, n) for the zero counts too,
a block's mask is the AND of its rows' sets, a leaf's kernel points the
AND of its blocks' masks, and the popcount (q^k - 1)/(q - 1) gives k.
Otherwise a leaf stacks its rows and k is n less their ``leaf_rank``.
The count adds [k, 2]_q, the build reads vertex indices off the set bits
or the stack's ``leaf_points``, and the listings the stack's
``leaf_subspaces`` (on masks, only where k is large enough).  The cap is
charged one unit per node of the walk, and the plane-tuple listing is
charged each tuple it lists as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, prod
from typing import Iterator, Optional

from .errors import (
    DEFAULT_CAP,
    CapExceededError,
    InvariantViolation,
    PreconditionError,
    check_cap,
    check_cap_bits,
)
from .field import Field
from .grassmann import (
    Subspace,
    enumerate_grassmannian,
    gauss_binom,
    iter_projective_points,
    kernel_basis,
    leaf_form,
    leaf_points,
    leaf_rank,
    leaf_subspaces,
    rref,
    rref_choices,
    span_points,
    zero_set_table,
)
from .tensor import (
    AltTensor,
    Tensor,
    _contract_first,
    alt_contract,
    alt_minors,
    alt_restricts_zero,
    alt_wedge_rows,
    check_shape,
    field_dot,
    restrict_zero,
)

# Tensor-count ceiling for exhaustive scans over whole map spaces.
DEFAULT_TENSOR_CAP = 1 << 20


@dataclass(frozen=True)
class IsotropyResult:
    """Search outcome: the index found, a witness tuple of subspaces, and
    whether the search ran to completion (False when capped).  ``visits``
    counts the subspaces visited (the cap's unit); it stays out of the
    document."""

    index: int
    witness: tuple
    exhausted: bool
    visits: int

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
    """One search for the isotropy index of a nonzero alternating map.

    With a ``ceiling`` the caller wants the index only when it is below
    the ceiling: the search may stop at any isotropic subspace of that
    dimension, and its witness is then not the DFS's first one."""

    def __init__(self, T: AltTensor, cap: int, ceiling: Optional[int] = None):
        self.T, self.field, self.n, self.d, self.m = T, T.field, T.n, T.d, T.m
        self.cap = cap
        self.visits = 0
        self.exhausted = True
        self.best_k = -1
        self.best_rows: Optional[tuple] = None
        self.ceiling = ceiling
        self.upper = self.n - 1  # T is nonzero when the search runs
        if ceiling is not None:
            self.upper = min(self.upper, ceiling)
        self.frontier = gauss_binom(self.n, self.d - 1, self.field.q)
        self.seen = {}
        self.first = {}  # canonical point v -> T(..., v), shared, never mutated

    def run(self) -> None:
        """Seed the DFS at every (d-1)-subspace in canonical order; after a
        frontier subtree raises the index found, try the certificate."""
        certified = -1
        # no row prefix of a (d-1)-subspace has a (d-1)-subset: nothing is pruned
        for rows, pivots, partial in self.isotropic(self.d - 1):
            if self.found(rows):  # every frontier subspace is isotropic
                return
            if self.spend():
                return
            if self.dfs(rows, pivots, partial):
                return  # either the ceiling was reached or the budget ran out
            if self.best_k > certified:
                done = self.certify()
                certified = self.best_k
                if done:
                    return

    def found(self, rows: tuple) -> bool:
        """Record a discovered isotropic subspace; True when done."""
        if len(rows) > self.best_k:
            self.best_k = len(rows)
            self.best_rows = rows
        return self.best_k >= self.upper

    def spend(self, count: int = 1) -> bool:
        """Account ``count`` subspace visits; True when the budget ran out.
        A charge past the cap ends where charging one visit at a time would
        have stopped: at cap + 1."""
        self.visits += count
        if self.visits > self.cap:
            self.visits = self.cap + 1
            self.exhausted = False
            return True
        return False

    def certify(self) -> bool:
        """Top-down certificate, tried while Gr(best_k + 1, n) has no more
        subspaces than the frontier: scan it for an isotropic subspace, one
        visit per scanned subspace.  If there is none, best_k is the index.
        A hit lets the DFS go on, except under a ceiling, where it is
        recorded and the next dimension is tried.  True when the search is
        done."""
        field, n = self.field, self.n
        while gauss_binom(n, self.best_k + 1, field.q) <= self.frontier:
            rows = self.first_isotropic(self.best_k + 1)
            if rows is None:
                return True  # none is isotropic, or the budget ran out
            if self.ceiling is None:
                return False  # the DFS goes on, to report its own first witness
            if self.found(rows):
                return True
        return False

    def first_isotropic(self, k: int) -> Optional[tuple]:
        """RREF rows of the first isotropic k-subspace in
        :func:`enumerate_grassmannian`'s order, charging one visit per
        subspace up to and including it; None when there is none or the
        budget ran out.  Hyperplanes are not scanned: see
        :meth:`first_hyperplane`."""
        if k == self.n - 1:
            return self.first_hyperplane()
        hit = next(self.isotropic(k), None)
        return None if hit is None or self.spend() else hit[0]

    def first_hyperplane(self) -> Optional[tuple]:
        """:meth:`first_isotropic` at k = n - 1, read off the functionals
        phi with phi ^ T = 0, the kernel of ``alt_wedge_rows``: T vanishes
        on ker phi iff phi ^ T = 0.  With none, all of Gr(n-1, n) is charged
        in one step.  :func:`enumerate_grassmannian` lists ker phi in the
        block of its non-pivot column c, the last nonzero coordinate of phi;
        blocks come by c descending, q^c hyperplanes each, and within one,
        with phi_c = -1, in the product order of phi_0, ..., phi_{c-1}, the
        entries of its RREF rows in column c.  So the first hit has the
        largest c, and then the least entries: phi reduced modulo the RREF
        of the null vectors that vanish from column c on.  One charge up to
        its place ends where the scan's charges would."""
        field, n, q = self.field, self.n, self.field.q
        null = kernel_basis(field, alt_wedge_rows(self.T), n)
        if not null:
            self.spend(gauss_binom(n, n - 1, q))
            return None
        axpy, scale = field.row_ops()
        last = [max(j for j, x in enumerate(v) if x) for v in null]
        c = max(last)
        lead = null[last.index(c)]
        phi = scale(field.neg(field.inv(lead[c])), lead)
        below, pivots = rref(field, [axpy(v, v[c], phi) for v in null])
        for row, p in zip(below, pivots):
            if phi[p]:
                phi = axpy(phi, field.neg(phi[p]), row)
        place = sum(q**j for j in range(c + 1, n)) + 1
        place += sum(phi[p] * q ** (c - 1 - p) for p in range(c))
        if self.spend(place):
            return None
        return tuple(
            tuple(field.one if j == p else phi[p] if j == c else 0 for j in range(n))
            for p in range(n)
            if p != c
        )

    def isotropic(self, k: int) -> Iterator[tuple]:
        """Every isotropic k-subspace as (rows, pivots, partial), ``partial``
        the contractions of the rows' subsets, in
        :func:`enumerate_grassmannian`'s order: given the pivots, the rows
        are chosen one at a time in product order, and each row prefix is
        contracted once for all its completions.  For isotropic span(R),
        span(R + [v]) is isotropic iff T(S, v) = 0 for every (d-1)-subset S
        of R; when it is not, no completion of R + [v] is, and the cap is
        charged all of them at once.  The caller charges each subspace it
        takes; the walk ends when the budget runs out."""
        field, n = self.field, self.n
        for pivots in itertools.combinations(range(n), k):
            # a row's choices are the product of its columns
            columns = rref_choices(field, n, pivots)
            counts = [prod(map(len, row)) for row in columns]
            # the completions of a choice of row i: the later rows' choices
            later = [prod(counts[i + 1 :]) for i in range(k)]
            yield from self._completions(pivots, columns, later, (), {(): self.T.coeffs})
            if not self.exhausted:
                return

    def _completions(self, pivots, columns, later, rows, partial) -> Iterator[tuple]:
        """:meth:`isotropic` below the row prefix ``rows``, ``partial`` its
        contractions (a method: a recursive closure is a reference cycle)."""
        i = len(rows)
        if i == len(pivots):
            yield rows, pivots, partial
            return
        field, m, n = self.field, self.m, self.n
        subsets = list(itertools.combinations(range(i), self.d - 1))
        for v in itertools.product(*columns[i]):
            if subsets and any(
                any(alt_contract(field, partial[S], m, n, 1, v)) for S in subsets
            ):
                if self.spend(later[i]):
                    return
                continue
            extended = self.extend_partial(partial, rows, v)
            yield from self._completions(pivots, columns, later, rows + (v,), extended)
            if not self.exhausted:
                return

    def joint_kernel(self, partial: dict, rows: tuple) -> list:
        """Kernel of x -> T(subset, x) over all (d-1)-subsets of rows."""
        n = self.n
        stack = [
            partial[subset][o * n : (o + 1) * n]
            for subset in itertools.combinations(range(len(rows)), self.d - 1)
            for o in range(self.m)
        ]
        return kernel_basis(self.field, stack, n)

    def contract(self, v: tuple) -> tuple:
        """The interior product T(..., v), computed once per point: every
        frontier row and every candidate is a canonical projective point,
        so at most (q^n - 1)/(q - 1) are stored."""
        block = self.first.get(v)
        if block is None:
            block = tuple(alt_contract(self.field, self.T.coeffs, self.m, self.n, self.d, v))
            self.first[v] = block
        return block

    def extend_partial(self, partial: dict, rows: tuple, v) -> dict:
        """Contractions for subsets S that include the new row, each T(S, x)
        up to a sign fixed by |S|, which no kernel or zero test reads."""
        field, m, n, d = self.field, self.m, self.n, self.d
        k = len(rows)
        out = dict(partial)
        for size in range(0, d - 1):
            for subset in itertools.combinations(range(k), size):
                out[subset + (k,)] = (
                    self.contract(v)
                    if size == 0
                    else alt_contract(field, partial[subset], m, n, d - size, v)
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
        if len(kernel) <= max(len(rows), self.best_k):
            return False  # every isotropic U containing the subspace lies in the kernel
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
    field, n = T.field, T.n
    if T.is_zero():
        return IsotropyResult(n, (Subspace.full(field, n),), True, 0)
    search = _AltSearch(T, cap)
    search.run()
    witness = _checked_witness(T, search)
    return IsotropyResult(search.best_k, (witness,), search.exhausted, search.visits)


def _checked_witness(T: AltTensor, search: _AltSearch) -> Subspace:
    """The search's witness, re-checked by the independent evaluator."""
    rows = search.best_rows
    witness = Subspace(T.field, T.n, rows, rref(T.field, rows)[1])
    if not alt_restricts_zero(T, witness):
        raise InvariantViolation("witness fails restriction check")
    return witness


def alpha_alt_by_scan(T: AltTensor, cap: int = DEFAULT_CAP) -> IsotropyResult:
    """Oracle route: scan Grassmannians top-down and return the first
    dimension admitting an isotropic subspace."""
    if not isinstance(T, AltTensor):
        raise PreconditionError("alpha_alt_by_scan needs an alternating tensor")
    field, n = T.field, T.n
    visits = 0
    for k in range(n, -1, -1):
        for W in enumerate_grassmannian(field, n, k, cap=cap):
            visits += 1
            if alt_restricts_zero(T, W):
                return IsotropyResult(k, (W,), True, visits)
    raise InvariantViolation("the zero subspace is always isotropic")


# ---------------------------------------------------------------------------
# general multilinear maps: one slot walk for tuples of subspaces
# ---------------------------------------------------------------------------


def _leaf_rows(field: Field, block, m: int, n: int):
    """The nonzero rows of an m x n block, in :func:`leaf_form`."""
    rows = (block[o * n : (o + 1) * n] for o in range(m))
    return leaf_form(field, tuple(r for r in rows if any(r)))


class _SlotWalk:
    """Walk the first d - 1 slots of T over ``bases``, a list of row
    tuples.  Iterating yields (prefix, leaves), ``prefix`` holding indices
    into ``bases`` in lexicographic order.

    A prefix's blocks are T contracted against every choice of one row
    from each of its bases.  ``leaves`` is None when they all vanish, so
    every later slot is free.  Otherwise the prefix has d - 2 entries and
    ``leaves`` holds its children (:class:`_Leaves`): leaf i appends base i,
    and its last slot's kernel is that of the blocks of the prefix's keys
    contracted against base i's rows.  At d = 1 the root is the one leaf.
    Blocks are memoised per tuple of rows: when every row is a canonical
    projective point (RREF rows are) there are at most P^(d-1) of them; a
    (d-1)-tuple's block is kept as its nonzero rows in ``leaf_form``.
    When ``masked`` the leaves are decided from block masks read off the
    shared zero-set table of P(F^n), :func:`grassmann.zero_set_table`.

    The cap is charged one unit per node, the root and every leaf
    included, and :meth:`charge` lets a caller charge more to the same
    budget.  A group of leaves is charged in one step: when the cap falls
    inside it, only the leaves before that point are handed out, and the
    walk raises once the caller asks for more, where charging one leaf at a
    time would have raised."""

    def __init__(self, T: Tensor, bases: list, cap: int):
        self.T, self.field, self.n = T, T.field, T.n
        self.bases, self.cap = bases, cap
        self.nodes = 0
        self.memo = {(): T.coeffs}
        self.blocks = {}  # (d-2)-tuple of rows -> {last row: leaf rows}
        self.masks = {}  # (d-2)-tuple of rows -> block masks over self.rows
        # Leaves are masked where their G^(d-1) count pays for the table's
        # P^2 entries (never at d <= 2, n >= 2) and the masks fit the cap: at
        # most P^(d-1) blocks of P bits, every row a canonical point.
        npts = gauss_binom(T.n, 1, T.field.q)
        self.masked = npts**2 <= len(bases) ** (T.d - 1) and npts**T.d <= cap
        self.table = zero_set_table(T.field, T.n, cap) if self.masked else None
        if self.masked:  # the bases' distinct rows, and each base's places among them
            place = {}
            self.at = [tuple(place.setdefault(r, len(place)) for r in rows) for rows in bases]
            self.rows = list(place)

    def charge(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.cap:
            raise CapExceededError("slot walk exceeded its cap")

    def __iter__(self) -> Iterator[tuple]:
        return self._walk((), [()])

    def _walk(self, prefix, keys):
        T, memo = self.T, self.memo
        self.charge()
        if T.d == 1:
            yield prefix, (_RootLeaf(self, prefix, keys, 1) if any(T.coeffs) else None)
            return
        if not any(map(any, (memo[key] for key in keys))):
            yield prefix, None
            return
        order = T.d - len(prefix)
        if order > 2:
            for i, rows in enumerate(self.bases):
                child = [key + (r,) for key in keys for r in rows]
                for key in child:
                    if key not in memo:
                        memo[key] = _contract_first(
                            self.field, memo[key[:-1]], T.m, self.n, order, key[-1]
                        )
                yield from self._walk(prefix + (i,), child)
            return
        size = min(len(self.bases), self.cap - self.nodes)
        self.nodes += size
        yield prefix, _Leaves(self, prefix, keys, size)
        if size < len(self.bases):
            raise CapExceededError("slot walk exceeded its cap")

    def leaf(self, known: dict, key: tuple, r) -> tuple:
        """The leaf rows of block (key, r), memoised in ``known``."""
        rows = known.get(r)
        if rows is None:
            T = self.T
            block = _contract_first(self.field, self.memo[key], T.m, self.n, 2, r)
            rows = known[r] = _leaf_rows(self.field, block, T.m, self.n)
        return rows

    @cached_property
    def bit(self) -> dict:
        """Each point of P(F^n), in leaf form, to its place in
        :func:`grassmann.projective_points` (its bit in a zero-set mask)."""
        points = leaf_form(self.field, iter_projective_points(self.field, self.n))
        return dict(zip(points, range(len(points))))

    def key_masks(self, key: tuple) -> list:
        """Per distinct base row r, the mask of block (key, r): the AND of
        its nonzero rows' zero sets.  Memoised with the block."""
        masks = self.masks.get(key)
        if masks is None:
            known = self.blocks.setdefault(key, {})
            kernel, leaf = self.table.kernel, self.leaf
            masks = self.masks[key] = [kernel(leaf(known, key, r)) for r in self.rows]
        return masks


class _Leaves:
    """The leaves below one node of the walk at order 2: the first
    ``size`` children, charged by the walk.  When the walk is masked,
    Zb(r), the AND of the masks of blocks (key, r) over the node's keys,
    is formed once per distinct base row r, and leaf i's kernel points are
    the AND of Zb over base i's rows; otherwise a leaf stacks its rows."""

    def __init__(self, walk: _SlotWalk, prefix: tuple, keys: list, size: int):
        self.walk, self.prefix, self.keys, self.size = walk, prefix, keys, size
        self.known = [walk.blocks.setdefault(key, {}) for key in keys]
        self.kernels = self._kernels() if walk.masked else None

    def _kernels(self) -> list:
        """Each leaf's mask of kernel points."""
        walk = self.walk
        zb = None
        for key in self.keys:
            masks = walk.key_masks(key)
            zb = masks if zb is None else [a & b for a, b in zip(zb, masks)]
        kernels = []
        for at in walk.at[: self.size]:
            x = walk.table.full
            for j in at:
                x &= zb[j]
            kernels.append(x)
        return kernels

    def head(self, i: int) -> tuple:
        """Leaf i's prefix: every slot but the last."""
        return self.prefix + (i,)

    def stack(self, i: int) -> list:
        """The nonzero rows of leaf i's blocks, in leaf form; its last
        slot's kernel is theirs."""
        leaf, rows = self.walk.leaf, self.walk.bases[i]
        stack = []
        for key, known in zip(self.keys, self.known):
            for r in rows:
                stack += leaf(known, key, r)
        return stack

    def count(self, count: int, sizes: list, limit: Optional[int]) -> int:
        """``count`` plus sizes[k] per leaf, k its kernel dimension by
        popcount when masked and by ``leaf_rank`` otherwise, stopping after
        the leaf that takes it past ``limit``."""
        field, n = self.walk.field, self.walk.n
        if self.kernels is not None:
            dims = map(self.walk.table.dim.__getitem__, map(int.bit_count, self.kernels))
        else:
            stacks = map(self.stack, range(self.size))
            dims = (n - leaf_rank(field, stack) if stack else n for stack in stacks)
        for k in dims:
            count += sizes[k]
            if limit is not None and count > limit:
                break
        return count

    def points(self) -> Iterator[tuple]:
        """(head, places in P(F^n) of the last slot's kernel points) per
        leaf: the set bits of its mask when masked, else its
        ``leaf_points`` looked up in the walk's ``bit``."""
        walk = self.walk
        if self.kernels is not None:
            for i, x in enumerate(self.kernels):
                places = []
                while x:
                    low = x & -x
                    places.append(low.bit_length() - 1)
                    x ^= low
                yield self.head(i), places
            return
        bit = walk.bit
        for i in range(self.size):
            stack = self.stack(i)
            if stack:
                yield self.head(i), map(bit.__getitem__, leaf_points(walk.field, stack, walk.n))
            else:
                yield self.head(i), range(len(bit))

    def subspaces(self, k: int) -> Iterator[tuple]:
        """(head, the k-subspaces of the last slot's kernel as RREF rows in
        leaf form) per leaf, None in place of the subspaces when the last
        slot is free.  When masked, the leaves whose kernel has dimension
        below k are skipped, and only the others stack their rows."""
        walk = self.walk
        if self.kernels is None:
            for i in range(self.size):
                stack = self.stack(i)
                found = leaf_subspaces(walk.field, stack, walk.n, k) if stack else None
                yield self.head(i), found
            return
        full, dim = walk.table.full, walk.table.dim
        for i, x in enumerate(self.kernels):
            if x == full:
                yield self.head(i), None
            elif dim[x.bit_count()] >= k:
                yield self.head(i), leaf_subspaces(walk.field, self.stack(i), walk.n, k)


class _RootLeaf(_Leaves):
    """The walk's one leaf at d = 1: the root, whose rows are T's own."""

    def _kernels(self) -> list:
        return [self.walk.table.kernel(self.stack(0))]

    def head(self, i: int) -> tuple:
        return self.prefix

    def stack(self, i: int) -> list:
        T = self.walk.T
        return list(_leaf_rows(T.field, T.coeffs, T.m, T.n))


def _isotropic_tuples(
    T: Tensor, subs: list, k: int, cap: int, charged: bool = False
) -> Iterator[tuple]:
    """d-tuples of k-subspaces annihilating T, in walk order; ``subs`` is
    every k-subspace.  A free prefix's tails run over ``subs`` in product
    order, a kernel leaf's last slot over the k-subspaces of its kernel,
    looked up in ``subs`` by their RREF rows in leaf form.  When
    ``charged``, each tuple listed is charged to the walk's cap as well,
    and free tails all at once before they are listed."""
    walk = _SlotWalk(T, [V.rows for V in subs], cap)
    by_rows = {leaf_form(T.field, V.rows): V for V in subs}
    for prefix, leaves in walk:
        for head, found in [(prefix, None)] if leaves is None else leaves.subspaces(k):
            tup = tuple(subs[i] for i in head)
            if found is None:
                if charged:
                    walk.charge(len(subs) ** (T.d - len(head)))
                for tail in itertools.product(subs, repeat=T.d - len(head)):
                    yield tup + tail
                continue
            for rows in found:
                if charged:
                    walk.charge()
                yield tup + (by_rows[rows],)


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
    subs = list(enumerate_grassmannian(field, n, k, cap=cap))
    try:
        tup = next(_isotropic_tuples(T, subs, k, cap), None)
    except CapExceededError:
        return HomIsotropyResult(False, None, False)
    if tup is None:
        return HomIsotropyResult(False, None, True)
    if not restrict_zero(T, tup):  # independent re-check
        raise InvariantViolation("witness fails restriction check")
    return HomIsotropyResult(True, tup, True)


def isotropic_plane_tuples(T: Tensor, cap: int = DEFAULT_CAP) -> list:
    """All d-tuples of 2-dimensional subspaces annihilating T, sorted into
    canonical order.  Exact: the pruning never drops a tuple.  The cap is
    charged the slot walk's nodes plus the tuples listed, a free prefix's
    tails in one step before they are listed; a cap below G^(d-1), for G
    planes, is refused before the planes are listed."""
    if not isinstance(T, Tensor):
        raise PreconditionError("plane-tuple enumeration needs a dense tensor")
    # the listing is charged at least G^(d-1), G the number of planes: a
    # node at order o that is not free has G children (leaves at o = 2),
    # and a free prefix at order o is charged its G^o tails
    check_cap(gauss_binom(T.n, 2, T.field.q) ** (T.d - 1), cap, "plane-tuple enumeration")
    planes = list(enumerate_grassmannian(T.field, T.n, 2, cap=cap))
    out = list(_isotropic_tuples(T, planes, 2, cap, charged=True))
    out.sort(key=lambda tup: tuple(V.rows for V in tup))
    return out


def count_plane_tuples(T: Tensor, limit: Optional[int] = None, cap: int = DEFAULT_CAP) -> int:
    """|D| for D the set of plane tuples annihilating T, without listing:
    each free prefix of the slot walk adds its free tails and each leaf the
    [k, 2]_q planes of its k-dimensional kernel, read off its zero-set
    mask's popcount where the walk masks and off the leaf's rank
    otherwise, with no kernel vector built.  When ``limit`` is given,
    counting stops after the leaf whose planes take the count past it, so
    a result above ``limit`` is only a lower bound."""
    if not isinstance(T, Tensor):
        raise PreconditionError("plane-tuple counting needs a dense tensor")
    field, n = T.field, T.n
    planes = list(enumerate_grassmannian(field, n, 2, cap=cap))
    sizes = [gauss_binom(k, 2, field.q) for k in range(n + 1)]
    count = 0
    for prefix, leaves in _SlotWalk(T, [V.rows for V in planes], cap):
        if leaves is None:
            count += len(planes) ** (T.d - len(prefix))
        else:
            count = leaves.count(count, sizes, limit)
        if limit is not None and count > limit:
            break
    return count


# ---------------------------------------------------------------------------
# minima over whole map spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldAlphaResult:
    """Minimum isotropy index over a space of alternating maps.  When
    ``exhaustive`` is False the value is only an upper bound for the true
    minimum (sampling mode).  ``searched`` counts the maps whose index was
    searched and ``certified`` those a kept witness decided; both stay out
    of the document."""

    value: int
    exhaustive: bool
    tensors_scanned: int
    searched: int
    certified: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "exhaustive": self.exhaustive,
            "tensors_scanned": self.tensors_scanned,
        }


def _vanishing_test(field: Field, n: int, d: int, m: int, rows: tuple):
    """Whether a coefficient tuple of Alt^d(F^n, F^m) vanishes on
    span(rows): for every output and every d-subset of the rows, the sum of
    coefficient times minor is zero (:func:`alt_restricts_zero`'s test).
    The minors are computed here, once; a test reads only the coefficients
    at the nonzero ones."""
    ntup = comb(n, d)
    terms = []
    for minors in alt_minors(field, n, rows, d):
        at = [pos for pos, x in enumerate(minors) if x]
        weights = [minors[pos] for pos in at]
        terms += [([o * ntup + pos for pos in at], weights) for o in range(m)]
    dot = field_dot(field)

    def vanishes(coeffs) -> bool:
        get = coeffs.__getitem__
        for at, weights in terms:
            if dot(map(get, at), weights):
                return False
        return True

    return vanishes


def _leading_one_maps(field: Field, ncoef: int) -> Iterator[tuple]:
    """Each coefficient tuple whose first nonzero entry is encoded 1, one
    per scalar class of nonzero maps, as (place, coeffs) in product order,
    ``place`` its 1-based place among all q^ncoef tuples.  Encoded 1 is the
    smallest nonzero code, so that multiple comes first in its class (it is
    not field.one, which is p^(e-1) in extension fields).  The tuples led
    by i zeros come after the q^(ncoef-1-i) with more, the zero map
    first."""
    q = field.q
    for i in range(ncoef - 1, -1, -1):
        head = (0,) * i + (1,)
        tails = itertools.product(field.elements(), repeat=ncoef - 1 - i)
        for place, tail in enumerate(tails, q ** (ncoef - 1 - i) + 1):
            yield place, head + tail


def alpha_field_alt(
    field: Field,
    n: int,
    d: int,
    m: int,
    cap: int = DEFAULT_CAP,
    samples: Optional[int] = None,
    seed: int = 0,
) -> FieldAlphaResult:
    """min over T in Alt^d(F^n, F^m) of alpha_alt(T): exact when the full
    coefficient space fits ``DEFAULT_TENSOR_CAP``, otherwise a sampled upper
    bound (requires an explicit ``samples`` count, from one up to
    ``DEFAULT_TENSOR_CAP``).  Maps with more than ``DEFAULT_CAP``
    coefficients are refused, and so is a huge space before its size is
    formed.

    Each search's witness W has dim W >= the running minimum, so a later
    map that vanishes on W cannot lower it and is not searched.  Witnesses
    are kept in a pool, tested most recent certifier first.  A test costs
    less than one subspace visit, so a map is given at most
    1 + (certified + visits) // searched tests, ``visits`` those of all
    searches so far, and the pool is cut to that length.  W joins only
    when the maps vanishing on it, m * (C(n, d) - C(dim W, d)) dimensions
    of them, are more than one scalar class."""
    ncoef = AltTensor.coeff_count_capped(n, d, m, DEFAULT_CAP)  # checks the shape
    if samples is not None:
        if samples < 1:
            raise PreconditionError(f"need samples >= 1, got {samples}")
        check_cap(samples, DEFAULT_TENSOR_CAP, "sampled tensor scan")
    if not ncoef:  # n <= d - 1: the zero map alone, its index n the floor
        return FieldAlphaResult(n, samples is None, 1, 0, 0)
    floor_value = min(d - 1, n)
    if samples is None:
        what = "exhaustive tensor scan"
        check_cap_bits(ncoef * (field.q.bit_length() - 1), DEFAULT_TENSOR_CAP, what)
        check_cap(field.q**ncoef, DEFAULT_TENSOR_CAP, what)
        maps = _leading_one_maps(field, ncoef)
        scanned = field.q**ncoef
    else:
        from .prng import SplitMix64

        rng = SplitMix64(seed)
        maps = enumerate(
            (tuple(rng.below(field.q) for _ in range(ncoef)) for _ in range(samples)), 1
        )
        scanned = samples
    best = n  # the zero map's index
    searched = certified = visits = 0
    pool = []  # vanishing tests of witnesses, the most recent certifier first
    for place, coeffs in maps:
        if not any(coeffs):
            continue  # a sampled zero map
        del pool[1 + (certified + visits) // max(searched, 1) :]
        hit = next((i for i, vanishes in enumerate(pool) if vanishes(coeffs)), None)
        if hit is not None:
            pool.insert(0, pool.pop(hit))
            certified += 1
            continue  # alpha >= dim W >= best: the minimum stays
        T = AltTensor(field, n, d, m, coeffs)
        search = _AltSearch(T, cap, ceiling=best)
        search.run()
        if not search.exhausted:
            raise CapExceededError("inner isotropy search capped")
        _checked_witness(T, search)
        searched += 1
        visits += search.visits
        best = min(best, search.best_k)
        if best <= floor_value:
            scanned = place
            break  # the index never drops below min(d-1, n)
        if ncoef - m * comb(search.best_k, d) >= 2:
            pool.insert(0, _vanishing_test(field, n, d, m, search.best_rows))
    return FieldAlphaResult(best, samples is None, scanned, searched, certified)


# ---------------------------------------------------------------------------
# incidence point counts
# ---------------------------------------------------------------------------


def check_incidence(n: int, d: int, m: int, k: int = 2) -> None:
    """Reject a bad map shape or a subspace dimension k outside 0..n."""
    check_shape(n, d, m)
    if not 0 <= k <= n:
        raise PreconditionError(f"need 0 <= k <= n, got k={k}, n={n}")


def count_alt_incidence(field: Field, n: int, d: int, m: int, k: int) -> int:
    """|{(V, [T]) : V a k-subspace, T alternating nonzero up to scalar,
    T vanishes on V}| over F_q, by the fiber product formula: the maps
    vanishing on a fixed V form a subspace of codimension m * C(k, d).
    It is at least q^alt_incidence_dim when nonzero."""
    check_incidence(n, d, m, k)
    if k == n:
        return 0  # no nonzero map vanishes on F^n; C(n, d) is not formed
    q = field.q
    fiber_dim = m * (comb(n, d) - comb(k, d))
    if not fiber_dim:
        return 0  # no nonzero map vanishes on V; the subspace count is not formed
    return gauss_binom(n, k, q) * ((q**fiber_dim - 1) // (q - 1))


def count_hom_incidence(field: Field, n: int, d: int, m: int) -> int:
    """|{(U_1..U_d, [T]) : U_i 2-dimensional, T multilinear nonzero up to
    scalar, T vanishes on the product}|, fiber exponent m (n^d - 2^d).  It
    is at least q^hom_incidence_dim when nonzero."""
    check_incidence(n, d, m)
    q = field.q
    fiber_dim = m * (n**d - 2**d)
    return gauss_binom(n, 2, q) ** d * ((q**fiber_dim - 1) // (q - 1))


def count_alt_incidence_raw(
    field: Field, n: int, d: int, m: int, k: int, cap: int = DEFAULT_CAP
) -> int:
    """Raw enumeration cross-check of :func:`count_alt_incidence`."""
    check_incidence(n, d, m, k)
    q = field.q
    # q^(ncoef - 1) maps up to scalar or more, times [n, k]_q >= q^(k(n-k))
    # subspaces: a huge scan is refused before q^ncoef is formed, and one
    # with ncoef >= 2^t (AltTensor.coeff_bits) before C(n, d) is
    t = max(0, min(AltTensor.coeff_bits(n, d, m), 64))
    check_cap_bits(((1 << t) - 1) * (q.bit_length() - 1), cap, "raw incidence scan")
    ncoef = m * comb(n, d)
    bits = (max(ncoef - 1, 0) + k * (n - k)) * (q.bit_length() - 1)
    check_cap_bits(bits, cap, "raw incidence scan")
    reps = (q**ncoef - 1) // (q - 1)
    check_cap(reps * gauss_binom(n, k, q), cap, "raw incidence scan")
    subs = list(enumerate_grassmannian(field, n, k, cap=cap))
    count = 0
    for coeffs in iter_projective_points(field, ncoef):
        T = AltTensor(field, n, d, m, coeffs)
        count += sum(1 for V in subs if alt_restricts_zero(T, V))
    return count


def count_hom_incidence_raw(
    field: Field, n: int, d: int, m: int, cap: int = DEFAULT_CAP
) -> int:
    """Raw enumeration cross-check of :func:`count_hom_incidence`."""
    check_incidence(n, d, m)
    q = field.q
    ncoef = m * n**d
    # as in count_alt_incidence_raw, with [n, 2]_q^d >= q^(2d(n-2)) tuples
    bits = (ncoef - 1 + 2 * d * (n - 2)) * (q.bit_length() - 1)
    check_cap_bits(bits, cap, "raw incidence scan")
    reps = (q**ncoef - 1) // (q - 1)
    check_cap(reps * gauss_binom(n, 2, q) ** d, cap, "raw incidence scan")
    subs = list(enumerate_grassmannian(field, n, 2, cap=cap))
    count = 0
    for coeffs in iter_projective_points(field, ncoef):
        T = Tensor(field, n, d, m, coeffs)
        count += sum(
            1
            for tup in itertools.product(subs, repeat=d)
            if restrict_zero(T, tup)
        )
    return count
