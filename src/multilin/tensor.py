"""Multilinear and alternating maps (F^n)^d -> F^m.

A ``Tensor`` stores all m * n^d coefficients, index order
(output coordinate, i_1, ..., i_d) row-major.  An ``AltTensor`` stores one
coefficient per strictly increasing index tuple i_1 < ... < i_d (m * C(n,d)
total), which encodes alternation exactly -- including characteristic 2,
where mere antisymmetry would be weaker.  Both kinds share one body (the
field, the shape, the coefficient tuple, equality, ``zero`` and
``to_dict``); each kind class gives only its ``kind``, its coefficient
count and a lower bound on it, and ``KINDS`` maps each kind name to its
class.

An alternating map is read only as its coefficient list, contracted by
interior products (``alt_contract``); ``expand`` derives its dense Tensor.

Coefficients and vector entries are field element integers (see
:mod:`multilin.field`); vectors are tuples of length n.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb
from typing import Iterator, Sequence

from .errors import DEFAULT_CAP, PreconditionError, check_cap, check_cap_bits
from .field import Field, embedding_map
from .prng import SplitMix64


@functools.lru_cache(maxsize=None)
def increasing_tuples(n: int, d: int) -> tuple:
    """All strictly increasing d-tuples over range(n), lexicographic."""
    return tuple(itertools.combinations(range(n), d))


def check_shape(n: int, d: int, m: int) -> None:
    """Reject map shapes outside n >= 0, d >= 1, m >= 1."""
    if n < 0 or d < 1 or m < 1:
        raise PreconditionError("need n >= 0, d >= 1, m >= 1")


def _contract_first(field: Field, flat, m: int, n: int, d: int, v) -> list:
    """Contract the first argument slot against vector v."""
    return _contract_slot(field, flat, m, n, d, v, 0)


def _contract_slot(field: Field, flat, m: int, n: int, d: int, v, slot: int) -> list:
    """Contract argument slot ``slot`` against vector v: one axpy per
    nonzero coordinate of v over a slice of the flat tensor.

    Entry (g, j, r) of the flat tensor sits at (g*n + j)*right + r, with
    g over the m*n^slot outer indices and r over the right = n^(d-1-slot)
    inner ones.  Coordinate j's terms are contiguous runs of length right,
    one per g, or strided runs of length m*n^slot, one per r; the longer
    runs are taken, so each slice feeds the row kernel as much as it can."""
    axpy, _ = field.row_ops()
    groups = m * n**slot
    right = n ** (d - 1 - slot)
    terms = [(j, w) for j, w in enumerate(v) if w]
    if right >= groups:
        out = []
        for g in range(groups):
            acc = [0] * right
            for j, w in terms:
                start = (g * n + j) * right
                acc = axpy(acc, w, flat[start : start + right])
            out.extend(acc)
        return out
    step = n * right
    out = [0] * (groups * right)
    for r in range(right):
        acc = [0] * groups
        for j, w in terms:
            acc = axpy(acc, w, flat[j * right + r :: step])
        out[r::right] = acc
    return out


def comb_bits(n: int, d: int) -> int:
    """A lower bound on C(n, d).bit_length() - 1, so C(n, d) >= 2^b when
    b >= 0 and C(n, d) = 0 when b = -1, read off n and d without forming
    C(n, d): with t = min(d, n - d), C(n, d) = C(n, t) >= (n // t)^t."""
    t = min(d, n - d)
    return t * ((n // max(t, 1)).bit_length() - 1) if t >= 0 else -1


class _Map:
    """The body both map kinds share: a field, the shape (n, d, m) and a
    tuple of coefficients, m times the kind's count per output coordinate.
    A kind class gives only its ``kind``, that count, ``_per_output(n,
    d)``, and ``_per_output_bits(n, d)``, a lower bound on its bit length
    less one; maps of different kinds never compare equal."""

    __slots__ = ("field", "n", "d", "m", "coeffs")

    @classmethod
    def coeff_count(cls, n: int, d: int, m: int) -> int:
        """Number of stored coefficients of the shape, after its check."""
        check_shape(n, d, m)
        return m * cls._per_output(n, d)

    @classmethod
    def coeff_bits(cls, n: int, d: int, m: int) -> int:
        """A lower bound on the bit length less one of :meth:`coeff_count`
        (-1 when the count is 0), read off the shape without forming the
        count."""
        check_shape(n, d, m)
        bits = cls._per_output_bits(n, d)
        return bits + m.bit_length() - 1 if bits >= 0 else -1

    @classmethod
    def coeff_count_capped(cls, n: int, d: int, m: int, cap: int) -> int:
        """:meth:`coeff_count`, refused past the cap.  A huge count is
        refused before it is formed, by :meth:`coeff_bits`."""
        what = f"{cls.kind} map (F^{n})^{d} -> F^{m}"
        check_cap_bits(cls.coeff_bits(n, d, m), cap, what)
        count = cls.coeff_count(n, d, m)
        check_cap(count, cap, what)
        return count

    def __init__(self, field: Field, n: int, d: int, m: int, coeffs: Sequence[int]):
        count = self.coeff_count(n, d, m)
        coeffs = tuple(coeffs)
        if len(coeffs) != count:
            raise PreconditionError(f"expected {count} coefficients, got {len(coeffs)}")
        self.field = field
        self.n = n
        self.d = d
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field: Field, n: int, d: int, m: int):
        return cls(field, n, d, m, (0,) * cls.coeff_count(n, d, m))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.field, self.n, self.d, self.m, self.coeffs)
            == (other.field, other.n, other.d, other.m, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field, self.n, self.d, self.m, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}(q={self.field.q}, n={self.n}, d={self.d}, m={self.m})"

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "coeffs": list(self.coeffs),
        }


class Tensor(_Map):
    """Order-d multilinear map as a dense coefficient hypermatrix."""

    __slots__ = ()

    kind = "hom"

    _per_output = staticmethod(pow)  # n^d

    @staticmethod
    def _per_output_bits(n: int, d: int) -> int:
        return d * (n.bit_length() - 1) if n else -1


class AltTensor(_Map):
    """Order-d alternating multilinear map on strictly increasing tuples."""

    __slots__ = ()

    kind = "alt"

    _per_output = staticmethod(comb)  # C(n, d)

    _per_output_bits = staticmethod(comb_bits)


# kind -> map class, as named in documents and by the CLI's --kind
KINDS = {cls.kind: cls for cls in (Tensor, AltTensor)}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def tensor_eval(T: Tensor, vectors: Sequence[Sequence[int]]) -> tuple:
    """T(v_1, ..., v_d) as a vector in F^m."""
    if len(vectors) != T.d:
        raise PreconditionError(f"expected {T.d} argument vectors")
    for v in vectors:
        if len(v) != T.n:
            raise PreconditionError("argument vector has wrong length")
    flat = T.coeffs
    d = T.d
    for v in vectors[:-1]:
        flat = _contract_first(T.field, flat, T.m, T.n, d, v)
        d -= 1
    return tuple(_contract_first(T.field, flat, T.m, T.n, 1, vectors[-1]))


@functools.lru_cache(maxsize=None)
def field_dot(field: Field):
    """``dot(xs, ws)``, the sum of x * w over two iterables of elements
    taken in pairs, built once per field."""
    if field.e == 1:
        p = field.p
        return lambda xs, ws: sum(map(operator.mul, xs, ws)) % p
    add = operator.xor if field.p == 2 else field.add
    mul = field.mul
    return lambda xs, ws: functools.reduce(add, map(mul, xs, ws), 0)


@functools.lru_cache(maxsize=None)
def _laplace_terms(n: int, j: int) -> tuple:
    """Per increasing j-tuple I over range(n), in :func:`increasing_tuples`
    order, the Laplace expansion of a j x j minor along its last row, as
    (columns, at): the columns of I and, per column, the place of the
    minor without it in the (j-1)-minors followed by their negatives, the
    negated copy when the term's sign (-1)^(j+t) is odd, t the column's
    1-based place in I."""
    where = {idx: pos for pos, idx in enumerate(increasing_tuples(n, j - 1))}
    shift = len(where)
    return tuple(
        (idx, tuple(where[idx[:t] + idx[t + 1 :]] + (shift if (j - 1 - t) % 2 else 0)
                    for t in range(j)))
        for idx in increasing_tuples(n, j)
    )


def alt_minors(field: Field, n: int, rows: Sequence[Sequence[int]], d: int) -> Iterator[list]:
    """The d x d minors of every d-subset of ``rows`` (vectors in F^n), one
    list per subset in ``itertools.combinations`` order, over the
    increasing d-tuples of columns in :func:`increasing_tuples` order.
    A single row's minors are its entries; a longer row prefix's follow
    from its own prefix's by Laplace expansion along the last row, once per
    prefix, and are shared by every subset that extends it."""
    dot = field_dot(field)
    memo = {(i,): row for i, row in enumerate(rows)}
    for subset in itertools.combinations(range(len(rows)), d):
        for j in range(2, d + 1):
            key = subset[:j]
            if key not in memo:
                prev, row = memo[key[:-1]], rows[key[-1]]
                signed = list(prev) + [field.neg(x) for x in prev]
                memo[key] = [
                    dot(map(row.__getitem__, cols), map(signed.__getitem__, at))
                    for cols, at in _laplace_terms(n, j)
                ]
        yield memo[subset]


def alt_wedge_rows(T: AltTensor) -> list:
    """The linear map phi -> phi ^ T on functionals phi in F^n, as rows:
    one per output o and increasing (d+1)-tuple J, whose product with phi is
    the coefficient at J of T_o ^ phi.  That coefficient is the (d+1)-minor
    over J with phi as its last row, developed along it, T_o's coefficients
    standing in for the d-minors.  T vanishes on ker phi (phi nonzero) iff
    phi ^ T = 0: with phi first in a dual basis, T = phi ^ a + b, b free of
    phi, and phi ^ T = phi ^ b is zero iff b, the restriction, is."""
    n, d, field = T.n, T.d, T.field
    ntup = comb(n, d)
    out = []
    for o in range(T.m):
        block = T.coeffs[o * ntup : (o + 1) * ntup]
        signed = list(block) + [field.neg(x) for x in block]
        for cols, at in _laplace_terms(n, d + 1):
            row = [0] * n
            for j, pos in zip(cols, at):
                row[j] = signed[pos]
            out.append(row)
    return out


def alt_eval(T: AltTensor, vectors: Sequence[Sequence[int]]) -> tuple:
    """Alternating evaluation: sum over increasing tuples of coefficient
    times the minor determinant of the argument matrix."""
    if len(vectors) != T.d:
        raise PreconditionError(f"expected {T.d} argument vectors")
    for v in vectors:
        if len(v) != T.n:
            raise PreconditionError("argument vector has wrong length")
    (minors,) = alt_minors(T.field, T.n, vectors, T.d)
    dot, ntup = field_dot(T.field), len(minors)
    return tuple(dot(T.coeffs[o * ntup : (o + 1) * ntup], minors) for o in range(T.m))


@functools.lru_cache(maxsize=None)
def _interior_gathers(n: int, d: int, m: int, signed: bool) -> tuple:
    """Per coordinate c, the places of iota_{e_c} T's coefficients, for T an
    order-d form, in T's coefficients followed (when ``signed``) by their
    negatives and one zero: T_o at J + {c} with the sign of its term in
    :func:`_laplace_terms`, read by output tuple J, or the zero when c is
    in J."""
    ntup, nout = comb(n, d), comb(n, d - 1)
    size = m * ntup
    places = [[2 * size if signed else size] * (m * nout) for _ in range(n)]
    for pos, (cols, at) in enumerate(_laplace_terms(n, d)):
        for c, place in zip(cols, at):
            odd, J = divmod(place, nout)
            for o in range(m):
                places[c][o * nout + J] = o * ntup + pos + (size if odd and signed else 0)
    return tuple(map(tuple, places))


def alt_contract(field: Field, coeffs, m: int, n: int, d: int, v) -> list:
    """The interior product T(..., v), v in the last slot, of an order-d
    alternating form given by its m * C(n, d) coefficients: its order-(d-1)
    form, one axpy per nonzero v_c over a fixed signed gather.  The first
    slot would give (-1)^(d-1) times it."""
    axpy, scale = field.row_ops()
    signed = field.p != 2 and d > 1  # in characteristic 2, or at d = 1, every sign is +1
    coeffs = list(coeffs) + (scale(field.neg(field.one), coeffs) if signed else []) + [0]
    acc = [0] * (m * comb(n, d - 1))
    for w, places in zip(v, _interior_gathers(n, d, m, signed)):
        if w:
            acc = axpy(acc, w, map(coeffs.__getitem__, places))
    return acc


def expand(T: AltTensor) -> Tensor:
    """Dense Tensor with the same evaluations, entry (o, i_1, ..., i_d) being
    T_o(e_{i_1}, ..., e_{i_d}): d interior products, e_{i_1} first.  It is
    the public bridge to :class:`Tensor`; the library reads alternating
    maps only as coefficient lists."""
    field, n, d, m = T.field, T.n, T.d, T.m
    units = [tuple(field.one if j == c else 0 for j in range(n)) for c in range(n)]
    forms = [T.coeffs]
    for order in range(d, 0, -1):
        forms = [alt_contract(field, f, m, n, order, e) for f in forms for e in units]
    flat = [f[o] for o in range(m) for f in forms]
    if d * (d - 1) // 2 % 2:  # the sign of reversing d slots
        flat = field.row_ops()[1](field.neg(field.one), flat)
    return Tensor(field, n, d, m, flat)


# ---------------------------------------------------------------------------
# restriction to subspaces
# ---------------------------------------------------------------------------


def _rows_of(space) -> tuple:
    rows = getattr(space, "rows", None)
    if rows is None:
        rows = tuple(space)
    return rows


def restrict_zero(T: Tensor, spaces: Sequence) -> bool:
    """True iff T vanishes on V_1 x ... x V_d.  By multilinearity it is
    enough to test all tuples of basis vectors."""
    if len(spaces) != T.d:
        raise PreconditionError(f"expected {T.d} subspaces")
    blocks = [T.coeffs]
    order = T.d
    for space in spaces:
        rows = _rows_of(space)
        for r in rows:
            if len(r) != T.n:
                raise PreconditionError("subspace ambient dimension mismatch")
        if not rows:
            return True  # zero subspace annihilates everything
        blocks = [
            _contract_first(T.field, b, T.m, T.n, order, r)
            for b in blocks
            for r in rows
        ]
        order -= 1
    return all(c == 0 for b in blocks for c in b)


def alt_restricts_zero(T: AltTensor, space) -> bool:
    """True iff the alternating map vanishes on the subspace: for every
    output and every d-subset of its basis rows, the sum of coefficient
    times minor is zero.  Subspaces of dimension below d are isotropic
    automatically (alternation kills any tuple with a linear dependence)."""
    rows = _rows_of(space)
    if len(rows) < T.d:
        return True
    if any(len(r) != T.n for r in rows):
        raise PreconditionError("argument vector has wrong length")
    dot, ntup = field_dot(T.field), comb(T.n, T.d)
    blocks = [T.coeffs[o * ntup : (o + 1) * ntup] for o in range(T.m)]
    return not any(
        dot(block, minors)
        for minors in alt_minors(T.field, T.n, rows, T.d)
        for block in blocks
    )


# ---------------------------------------------------------------------------
# base change and sampling
# ---------------------------------------------------------------------------


def base_change(T, target: Field):
    """Same tensor with coefficients embedded into an extension field."""
    phi = embedding_map(T.field, target)
    cls = type(T)
    return cls(target, T.n, T.d, T.m, tuple(phi(c) for c in T.coeffs))


def random_tensor(
    field: Field, n: int, d: int, m: int, kind: str = "hom", seed: int = 0
):
    """Uniform coefficients from the seeded splitmix64 stream, drawn in
    storage order.  Same seed gives a bit-identical tensor everywhere.  A
    shape with more than ``DEFAULT_CAP`` coefficients is refused before
    any is drawn."""
    cls = KINDS.get(kind)
    if cls is None:
        raise PreconditionError(f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    count = cls.coeff_count_capped(n, d, m, DEFAULT_CAP)
    rng = SplitMix64(seed)
    coeffs = tuple(rng.below(field.q) for _ in range(count))
    return cls(field, n, d, m, coeffs)


def tensor_from_dict(data: dict) -> "Tensor | AltTensor":
    """Inverse of ``to_dict``; rejects shapes that are not integers and
    coefficients that are not field elements, integers in range(q)."""
    try:
        field = Field.from_dict(data["field"])
        cls = KINDS.get(data.get("kind"))
        n, d, m, coeffs = data["n"], data["d"], data["m"], list(data["coeffs"])
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed tensor document: {exc!r}") from exc
    if cls is None:
        raise PreconditionError(f"unknown tensor kind {data.get('kind')!r}")
    if any(type(x) is not int for x in (n, d, m)):
        raise PreconditionError(f"n, d and m must be integers, got {n!r}, {d!r}, {m!r}")
    if cls.coeff_bits(n, d, m) >= len(coeffs).bit_length():  # before the count is formed
        raise PreconditionError(
            f"the declared {cls.kind} shape has more than the document's "
            f"{len(coeffs)} coefficients"
        )
    q = field.q
    for c in coeffs:
        if type(c) is not int or not 0 <= c < q:
            raise PreconditionError(f"coefficient {c!r} is not an element of F_{q}")
    return cls(field, n, d, m, coeffs)
