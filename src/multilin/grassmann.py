"""Subspaces of F_q^n in canonical form, Grassmannian enumeration, and
exact counting of intersection strata.

A subspace is stored as its reduced row echelon basis, which is the unique
canonical representative: two Subspace values are equal iff they are equal
as subspaces iff their basis matrices coincide.  Enumeration is ordered by
pivot-column set (lexicographic) and then by the free entries in row-major
element order, so every count here is reproducible bit for bit.

Strata of pairs are counted by intersection dimension against one fixed
first factor, multiplied by the Grassmannian size: the general linear
group acts transitively on k-subspaces, so the fixed-factor count does
not depend on the choice.  The full pair scan stays as the oracle, and
both routes agree wherever both run.

Rows are eliminated here alone: ``leaf_form`` packs rows into ints over
F_2, where ``leaf_rank`` and ``leaf_kernel`` run one XOR elimination that
keeps the basis reduced and keyed by pivot bit (the M4RI representation
of Albrecht, Bard and Hart, ACM TOMS 2010), and leaves other rows to the
list ``rref``.  ``rank`` and ``kernel_basis`` are those on converted rows;
RREF is unique, so ``kernel_basis_by_rref``, the list route, is their
oracle.  ``leaf_points`` and ``leaf_subspaces`` list the kernel's
projective points and its k-subspaces in leaf form, so over F_2 the rows
stay packed to the caller.

Rows are combined here alone, by ``row_combinations``: a lead row plus
every combination of the given rows, streamed in product order of the
coefficients with one addition per entry (XOR of packed ints over F_2,
one axpy otherwise), so a search that stops early forms only what it
read.  Listed with lead zero it is a table indexed by the coefficient
vector, over F_2 M4RI's Four-Russians table.
``span_points`` (the canonical points of a span) and ``point_rows`` (rows
combined at each point of ``projective_points``, the one listing of
P(F^n)) are its blocks by leading row, ascending and descending.
``ZeroSetTable`` holds the zero set of every functional as a bitmask over
P(F^n), formed in one pass (the table of the packed point columns over
F_2, ``point_rows`` of them otherwise), so a stack's kernel points are an
AND of lookups and its kernel dimension a popcount, with no elimination.
The table is a property of (F_q, n): ``zero_set_table`` forms it on first
use and keeps it (for the last eight (F_q, n) read), so every zero count
and slot walk over F^n shares one.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DEFAULT_CAP, PreconditionError, check_cap, check_cap_bits
from .field import Field

# ---------------------------------------------------------------------------
# exact linear algebra over a Field
# ---------------------------------------------------------------------------


def rref(field: Field, rows: Sequence[Sequence[int]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns) with zero
    rows dropped, pivot entries one, zeros above and below pivots."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    axpy, scale = field.row_ops()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        if pv != field.one:
            work[r] = scale(field.inv(pv), work[r])
        row_r = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = axpy(work[i], field.neg(work[i][c]), row_r)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    """Rank of the rows."""
    return leaf_rank(field, leaf_form(field, rows))


def kernel_basis(field: Field, rows: Sequence[Sequence[int]], n: int) -> list:
    """Basis of {x in F^n : row . x = 0 for each row}: for each non-pivot
    column f of the RREF of the rows, the vector with a one at f, the
    negated column f at the pivots and zeros elsewhere."""
    return leaf_kernel(field, leaf_form(field, rows), n)


def kernel_basis_by_rref(field: Field, rows: Sequence[Sequence[int]], n: int) -> list:
    """:func:`kernel_basis` through the list :func:`rref`, for any field."""
    red, pivots = rref(field, [r for r in rows if any(r)])
    _, scale = field.row_ops()
    minus_one = field.neg(field.one)
    neg_red = [scale(minus_one, row) for row in red]
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = field.one
        for row, pc in zip(neg_red, pivots):
            v[pc] = row[f]
        basis.append(tuple(v))
    return basis


def leaf_form(field: Field, rows: Sequence[Sequence[int]]) -> Sequence:
    """The rows as :func:`leaf_rank` and :func:`leaf_kernel` read them:
    packed ints (:func:`gf2_pack`) over F_2, tuples otherwise, so that a
    row in leaf form is a key of :class:`ZeroSetTable`."""
    if field.q == 2:
        return tuple(map(gf2_pack, rows))
    return tuple(map(tuple, rows))


def leaf_rank(field: Field, form: Sequence) -> int:
    """Rank of rows in :func:`leaf_form`."""
    if field.q == 2:
        return len(gf2_basis(form))
    return len(rref(field, form)[0])


def leaf_kernel(field: Field, form: Sequence, n: int) -> list:
    """:func:`kernel_basis` of rows in :func:`leaf_form`."""
    if field.q == 2:
        return [gf2_unpack(v, n) for v in gf2_kernel(gf2_basis(form), n)]
    return kernel_basis_by_rref(field, form, n)


def leaf_points(field: Field, form: Sequence, n: int) -> Iterable:
    """Canonical projective points of the kernel of rows in
    :func:`leaf_form`, in leaf form and in :func:`span_points` order of the
    kernel's RREF.  Over F_2 they are XOR combinations of the packed
    kernel's echelon rows, never unpacked."""
    if field.q == 2:
        return span_points(field, gf2_rows(gf2_basis(gf2_kernel(gf2_basis(form), n))))
    return span_points(field, rref(field, kernel_basis_by_rref(field, form, n))[0])


def leaf_subspaces(field: Field, form: Sequence, n: int, k: int) -> Iterator[tuple]:
    """The k-subspaces of the kernel of rows in :func:`leaf_form`, each as
    its RREF rows in leaf form.  They come in the order of their
    coefficients against the :func:`leaf_kernel` basis, which run over
    Gr(k, F^dim) in :func:`enumerate_grassmannian`'s order.  Over F_2 each
    coefficient row is one lookup in the basis's :func:`row_combinations`
    table, and the k rows are reduced by :func:`gf2_basis`."""
    if field.q == 2:
        basis = gf2_basis(form)
        if n - len(basis) < k:
            return
        table = list(row_combinations(field, 0, gf2_kernel(basis, n)))
        for coefs in _coefficient_subspaces(field, n - len(basis), k):
            yield tuple(gf2_rows(gf2_basis([table[c] for c in coefs])))
        return
    kernel = kernel_basis_by_rref(field, form, n)
    if len(kernel) < k:
        return
    axpy, _ = field.row_ops()
    zero = (0,) * n
    for coefs in _coefficient_subspaces(field, len(kernel), k):
        vectors = []
        for row in coefs:
            v = zero
            for c, bvec in zip(row, kernel):
                if c:
                    v = axpy(v, c, bvec)
            vectors.append(v)
        yield rref(field, vectors)[0]


@functools.lru_cache(maxsize=None)
def _coefficient_subspaces(field: Field, dim: int, k: int) -> tuple:
    """The RREF rows of every k-subspace of F^dim, in
    :func:`enumerate_grassmannian`'s order and in :func:`leaf_form`; kept
    per (field, dim, k), as :func:`multilin.tensor.increasing_tuples` is per
    shape.  A caller listing the k-subspaces of F^n already holds more."""
    return tuple(
        tuple(leaf_form(field, S.rows))
        for S in enumerate_grassmannian(field, dim, k, cap=DEFAULT_CAP)
    )


# Packed F_2 rows: a row of n bits is an int whose bit n - 1 - j is column
# j, so a row's pivot (its first nonzero column) is its highest set bit and
# adding rows is XOR.


def gf2_pack(row: Sequence[int]) -> int:
    """The packed int of a row of F_2 elements."""
    x = 0
    for a in row:
        x = x << 1 | a
    return x


def gf2_unpack(x: int, n: int) -> tuple:
    """The row of n F_2 elements packed in x."""
    return tuple(x >> b & 1 for b in range(n - 1, -1, -1))


def gf2_basis(rows: Iterable[int]) -> dict:
    """Reduced row echelon basis of the span of packed F_2 rows, as
    {pivot bit: row}: no row has a bit set at another row's pivot.  Each
    row is cleared at the pivots it meets, and a new pivot is cleared from
    the rows already kept; the rank is the basis's size."""
    basis = {}
    for x in rows:
        for b, row in basis.items():
            if x >> b & 1:
                x ^= row
        if x:
            h = x.bit_length() - 1
            for b, row in basis.items():
                if row >> h & 1:
                    basis[b] = row ^ x
            basis[h] = x
    return basis


def gf2_kernel(basis: dict, n: int) -> list:
    """:func:`kernel_basis` over F_2^n of the rows whose :func:`gf2_basis`
    is given, packed: per free column, from the left, the vector with that
    bit and the pivot bits of the rows that have it."""
    out = []
    for b in range(n - 1, -1, -1):
        if b in basis:
            continue
        v = 1 << b
        for p, row in basis.items():
            if row >> b & 1:
                v |= 1 << p
        out.append(v)
    return out


def gf2_rows(basis: dict) -> list:
    """The rows of a :func:`gf2_basis` in RREF order: by pivot column, that
    is, by pivot bit from the highest."""
    return [basis[b] for b in sorted(basis, reverse=True)]


def row_combinations(field: Field, lead, rows: Sequence) -> Iterator:
    """lead + sum_j c_j rows[j] for every c in F^len(rows), streamed in
    product order of c (rows[0]'s coefficient slowest), so entry x of
    ``list(row_combinations(field, zero, rows))`` is the combination whose
    coefficients are the base-q digits of x.  The rows' form picks the
    addition: packed ints over F_2 (:func:`gf2_pack`) are added by XOR,
    element rows by one axpy into a list.  The lead is in the rows' form
    (the lead itself comes back as given), or 0 for the zero lead of
    either form.  Each coefficient of rows[0] adds its multiple to the
    lead once, and the rest of the rows are combined onto that sum, so
    every entry but the lead costs one addition, and a consumer that stops
    early has paid only for the entries it read."""
    if not rows:
        yield lead
        return
    row, rest = rows[0], rows[1:]
    if isinstance(row, int):
        yield from row_combinations(field, lead, rest)
        yield from row_combinations(field, lead ^ row, rest)
        return
    if lead == 0:
        lead = (0,) * len(row)
    yield from row_combinations(field, lead, rest)
    axpy, _ = field.row_ops()
    for c in field.elements()[1:]:
        yield from row_combinations(field, axpy(lead, c, row), rest)


def span_points(field: Field, rows: Sequence) -> Iterator:
    """Canonical projective points of span(rows), for rows in reduced row
    echelon form: row i plus any combination of the rows after it has its
    first nonzero entry, a one, at row i's pivot.  Points come by leading
    row, then by the later rows' coefficients in product order, as
    :func:`row_combinations` blocks, streamed; packed F_2 rows give packed
    points, element rows tuples."""
    for i, lead in enumerate(rows):
        block = row_combinations(field, lead, rows[i + 1 :])
        yield from block if isinstance(lead, int) else map(tuple, block)


def projective_points(field: Field, dim: int, cap: int = DEFAULT_CAP) -> list:
    """Canonical representatives of P(F^dim): first nonzero coordinate one,
    in lexicographic vector order.  A point with more leading zeros comes
    first, and points with the same leading one are ordered by their tails,
    so (0,)*i + (one,) + tail runs i downwards with tails in product order;
    the cap is charged the (q^dim - 1)/(q - 1) points listed, which are at
    least q^(dim - 1)."""
    q = field.q
    check_cap_bits((dim - 1) * (q.bit_length() - 1), cap, "projective point listing")
    check_cap((q**dim - 1) // (q - 1), cap, "projective point listing")
    return list(iter_projective_points(field, dim))


def iter_projective_points(field: Field, dim: int) -> Iterator[tuple]:
    """:func:`projective_points` streamed, for scans that charge the cap."""
    one = field.one
    for i in range(dim - 1, -1, -1):
        head = (0,) * i + (one,)
        for tail in itertools.product(field.elements(), repeat=dim - 1 - i):
            yield head + tail


def point_rows(field: Field, rows: Sequence[Sequence[int]]) -> list:
    """The list sum_j p_j rows[j] for each point p of
    :func:`projective_points` (field, len(rows)), in that order: the points
    led at column i, i downwards, are e_i plus every combination of the
    later columns in product order, the :func:`row_combinations` of
    rows[i + 1:] led by rows[i]."""
    out = []
    for i in range(len(rows) - 1, -1, -1):
        out += row_combinations(field, rows[i], rows[i + 1 :])
    return out


class ZeroSetTable:
    """The zero set over P(F^n) of every functional, as an int mask whose
    bit i is point i of :func:`projective_points`.  It is formed in one
    pass, by :func:`zero_set_table` alone.  Over F_2 it is the
    :func:`row_combinations` table of the packed point columns, whose entry
    f is the set where the functional packed as f is nonzero.  Otherwise
    f . v = v . f, so the zero set of a canonical functional f is where
    f's :func:`point_rows` of the point columns vanishes.  A row in
    :func:`leaf_form` is keyed to its mask the first time it is seen,
    through its multiple led by one.  The table holds P masks of P bits,
    P = |P(F^n)|, and at most q^n keys.

    :meth:`kernel` ANDs the masks of a stack of rows, giving the points of
    their kernel, and ``dim`` maps its popcount, (q^k - 1)/(q - 1), to
    the kernel's dimension k."""

    __slots__ = ("field", "full", "dim", "masks")

    def __init__(self, field: Field, n: int):
        q = field.q
        points = list(iter_projective_points(field, n))
        self.field = field
        self.full = full = (1 << len(points)) - 1
        self.dim = {(q**k - 1) // (q - 1): k for k in range(n + 1)}
        if q == 2:
            columns = [gf2_pack(v[j] for v in reversed(points)) for j in range(n)]
            self.masks = {f: full ^ x for f, x in enumerate(row_combinations(field, 0, columns))}
            return
        columns = [[v[j] for v in points] for j in range(n)]
        self.masks = {(0,) * n: full}
        for f, values in zip(points, point_rows(field, columns)):
            self.masks[f] = int("".join(["0" if x else "1" for x in reversed(values)]), 2)

    def kernel(self, form: Iterable) -> int:
        """The mask of the points on which every row of ``form``, in
        :func:`leaf_form`, vanishes."""
        x = self.full
        masks = self.masks
        for row in form:
            mask = masks.get(row)
            if mask is None:
                field = self.field
                lead = next(c for c in row if c)
                mask = masks[row] = masks[tuple(field.row_ops()[1](field.inv(lead), row))]
            x &= mask
        return x

    def dimension(self, form: Iterable) -> int:
        """The dimension of the kernel of the rows of ``form``."""
        return self.dim[self.kernel(form).bit_count()]


def zero_set_table(field: Field, n: int, cap: int = DEFAULT_CAP) -> Optional[ZeroSetTable]:
    """The :class:`ZeroSetTable` of P(F^n), or None when its P^2 bits pass
    the cap, formed on first use and kept per (field, n) for every zero
    count and slot walk over F^n.  A table holds P^2 bits and up to q^n
    row keys, so only the last eight (field, n) read are kept."""
    if gauss_binom(n, 1, field.q) ** 2 > cap:
        return None
    return _zero_set_table(field, n)


@functools.lru_cache(maxsize=8)
def _zero_set_table(field: Field, n: int) -> ZeroSetTable:
    return ZeroSetTable(field, n)


class Subspace:
    """A k-dimensional subspace of F^n, basis in reduced row echelon form."""

    __slots__ = ("field", "n", "k", "rows", "pivots")

    def __init__(self, field: Field, n: int, rows: tuple, pivots: tuple):
        self.field = field
        self.n = n
        self.k = len(rows)
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, field: Field, n: int, vectors: Sequence[Sequence[int]]):
        for v in vectors:
            if len(v) != n:
                raise PreconditionError("spanning vector has wrong length")
        rows, pivots = rref(field, vectors)
        return cls(field, n, rows, pivots)

    @classmethod
    def zero(cls, field: Field, n: int):
        return cls(field, n, (), ())

    @classmethod
    def full(cls, field: Field, n: int):
        one = field.one
        rows = tuple(
            tuple(one if j == i else 0 for j in range(n)) for i in range(n)
        )
        return cls(field, n, rows, tuple(range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Subspace(n={self.n}, k={self.k}, rows={self.rows})"

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, field: Field, data: dict):
        rows, pivots = rref(field, data["rows"])
        if len(rows) != data["k"]:
            raise PreconditionError("serialized basis is not independent")
        return cls(field, data["n"], rows, pivots)


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------


def gauss_binom(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q, exact."""
    if n < 0 or k < 0:
        raise PreconditionError("negative arguments")
    if k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def gauss_binom_capped(n: int, k: int, q: int, cap: int) -> int:
    """[n choose k]_q, the size of Gr(k, F_q^n), refused past the cap.  A
    huge count is refused before it is formed, by the bound [n, k]_q >=
    q^(k(n-k)) (the subspaces with pivots in the first k columns)."""
    what = f"Gr({k}, F_{q}^{n})"
    if 0 <= k <= n:
        check_cap_bits(k * (n - k) * (q.bit_length() - 1), cap, what)
    count = gauss_binom(n, k, q)
    check_cap(count, cap, what)
    return count


def rref_choices(field: Field, n: int, pivots: Sequence[int]) -> list:
    """Per RREF row of a subspace of F^n with these pivot columns, the
    values each entry can take: one at the row's pivot, zero before it and
    at the other pivots, any element elsewhere.  The product of the rows'
    products lists the subspaces in :func:`enumerate_grassmannian`'s order."""
    one, zero, anything = (field.one,), (0,), field.elements()
    return [
        [one if j == p else zero if j < p or j in pivots else anything for j in range(n)]
        for p in pivots
    ]


def enumerate_grassmannian(
    field: Field, n: int, k: int, cap: int = DEFAULT_CAP
) -> Iterator[Subspace]:
    """Yield all k-subspaces of F^n in canonical order."""
    if not 0 <= k <= n:
        raise PreconditionError(f"need 0 <= k <= n, got k={k}, n={n}")
    gauss_binom_capped(n, k, field.q, cap)
    for pivots in itertools.combinations(range(n), k):
        rows = [itertools.product(*row) for row in rref_choices(field, n, pivots)]
        for chosen in itertools.product(*rows):
            yield Subspace(field, n, chosen, pivots)


def intersection_dim(U: Subspace, V: Subspace) -> int:
    """dim(U cap V) = dim U + dim V - rank of the stacked bases."""
    if U.field != V.field or U.n != V.n:
        raise PreconditionError("subspaces live in different ambient spaces")
    return U.k + V.k - rank(U.field, list(U.rows) + list(V.rows))


def stratum_dim(n: int, k: int, l: int) -> int:
    """Dimension of the stratum of k-subspace pairs meeting in dimension l."""
    return 2 * k * (n - k + l) - l * (n + l)


def stratum_profile(
    field: Field, n: int, k: int, cap: int = DEFAULT_CAP, method: str = "fixed"
) -> dict:
    """Counts of ordered pairs (U, V) in Gr(k)^2 by intersection dimension.

    method 'fixed' counts against one fixed U and multiplies by |Gr|
    (valid by transitivity); 'pairs' scans the full square, the oracle.
    """
    if method not in ("fixed", "pairs"):
        raise PreconditionError(f"unknown method {method!r}")
    total = gauss_binom_capped(n, k, field.q, cap)
    lo = max(0, 2 * k - n)
    profile = {l: 0 for l in range(lo, k + 1)}
    if method == "pairs":
        check_cap(total * total, cap, "stratum pair scan")
        subs = list(enumerate_grassmannian(field, n, k, cap))
        for U in subs:
            for V in subs:
                profile[intersection_dim(U, V)] += 1
    else:
        for V in enumerate_grassmannian(field, n, k, cap):
            # against U0 = span(e_1..e_k): dim(U0 cap V) = k - rank(V[:, k:])
            block = [row[k:] for row in V.rows]
            profile[k - rank(field, block)] += 1
        for l in profile:
            profile[l] *= total
    return profile


def stratum_count(field: Field, n: int, k: int, l: int, cap: int = DEFAULT_CAP) -> int:
    """|{(U, V) in Gr(k)^2 : dim(U cap V) = l}| over F_q, exact."""
    if not max(0, 2 * k - n) <= l <= k:
        raise PreconditionError(
            f"l={l} outside admissible range [{max(0, 2 * k - n)}, {k}]"
        )
    return stratum_profile(field, n, k, cap)[l]


# ---------------------------------------------------------------------------
# closed-form dimension formulas for the two incidence varieties
# ---------------------------------------------------------------------------


def alt_incidence_dim(n: int, d: int, m: int, k: int) -> int:
    """Dimension of the incidence variety of pairs (V, [T]) with V a
    k-subspace isotropic for the alternating map T; -1 when it is empty,
    that is, when no nonzero map vanishes on a k-subspace (always at k = n,
    where C(n, d) is not formed)."""
    if k == n:
        return -1
    fiber = m * (comb(n, d) - comb(k, d))
    return (n - k) * k + fiber - 1 if fiber else -1


def hom_incidence_dim(n: int, d: int, m: int) -> int:
    """Dimension of the incidence variety of tuples (U_1..U_d, [T]) with T
    multilinear vanishing on the product of the 2-dimensional U_i."""
    return 2 * d * (n - 2) + m * (n**d - 2**d) - 1


# ---------------------------------------------------------------------------
# exact interpolation (degree read-off for point-count polynomials)
# ---------------------------------------------------------------------------


def interpolated_degree(samples: Sequence[tuple]) -> int:
    """Degree of the polynomial of degree < len(samples) through the given
    (x, y) points (-1 for the zero polynomial); the caller must supply at
    least degree + 1 of them.  In Newton form sum_j c_j prod_{i<j} (x - x_i)
    term j has degree j and leading coefficient c_j, the j-th divided
    difference, so the degree is the last j with c_j != 0."""
    xs = [Fraction(x) for x, _ in samples]
    newton = [Fraction(y) for _, y in samples]
    npts = len(xs)
    if len(set(xs)) != npts:
        raise PreconditionError("interpolation nodes must be distinct")
    for j in range(1, npts):
        for i in range(npts - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - j])
    return max((j for j, c in enumerate(newton) if c), default=-1)
