"""Exact arithmetic in finite fields F_{p^e}, including extension towers.

Elements are represented as plain integers in ``range(q)``: the integer of
an element is its rank in the canonical enumeration order, which sorts
coefficient vectors (c_0, ..., c_{e-1}) of the polynomial residue
c_0 + c_1 x + ... lexicographically with the low-degree coefficient
compared first.  Equivalently, ``index = sum(c_i * p**(e-1-i))``.  Two
elements are equal iff their integers are equal, so canonical uniqueness
is free, and serialized coefficient indices need no translation table.

Prime fields compute with plain modular arithmetic.  Every extension
field, whatever its order, computes through the same discrete-log arrays,
built on first use from a multiplicative generator g: ``log`` (with
``log[0]`` a sentinel 2(q-1)) and ``alog``, which is zero from index
2(q-1) on, so ``alog[log[a] + log[b]]`` is a*b with no zero branch.  In
characteristic 2 the canonical index is the coefficient bit vector, so
addition is XOR of indices; for odd p, addition reads the Zech logarithm
``zech[k] = log(1 + g^k)`` (Lidl-Niederreiter, *Finite Fields*, 10.2), as
a + b = g^(log a + zech[log b - log a]).  Row operations on lists of
elements go through one kernel per field, built on first use
(:meth:`Field.row_ops`) on the same arrays: a single ``% p`` per entry for
prime fields, the log arrays with XOR or Zech addition otherwise.

A characteristic p, degree e or order q from outside is checked before
any work that grows with it, in one function for p and e; orders above
``ORDER_CAP`` (2^20) are refused.

All operations are pure; a Field is immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import InvariantViolation, PreconditionError

# Orders above this would make downstream enumeration meaningless.
ORDER_CAP = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (enough below 2**20)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; polynomials are tuples, low degree first
# ---------------------------------------------------------------------------


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _poly_trim(tuple((x + y) % p for x, y in zip(a, b)))


def _poly_sub(a, b, p):
    return _poly_add(a, tuple(-c % p for c in b), p)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    """Remainder of a modulo ``mod``, whose leading coefficient may be any
    nonzero residue."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) > dm:
        coef = a[-1] * inv_lead % p
        if coef:
            for i in range(dm + 1):
                a[len(a) - 1 - dm + i] = (a[len(a) - 1 - dm + i] - coef * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a, b, mod, p):
    return _poly_mod(_poly_mul(a, b, p), mod, p)


def _poly_powmod(a, n, mod, p):
    result = (1,)
    base = _poly_mod(a, mod, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly, p) -> bool:
    """Rabin's criterion: f of degree e is irreducible over F_p iff
    x^(p^e) = x mod f and gcd(x^(p^(e/t)) - x, f) = 1 for each prime t | e."""
    e = len(poly) - 1
    if e < 1 or poly[-1] % p == 0:
        return False
    if e == 1:
        return True
    x = (0, 1)
    xq = _poly_powmod(x, p**e, poly, p)
    if _poly_sub(xq, x, p):
        return False
    for t in _prime_factors(e):
        xr = _poly_powmod(x, p ** (e // t), poly, p)
        g = _poly_gcd(_poly_sub(xr, x, p), poly, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------


def _check_order(p, e) -> None:
    """Reject a characteristic p or degree e that is not an integer, p
    outside 2..ORDER_CAP or not prime, e < 1 and p^e above ORDER_CAP.
    The bounds come before the primality test and the power, so no input
    starts unbounded work: p >= 2, so p^e exceeds the cap once 2^e does."""
    if type(p) is not int or type(e) is not int:
        raise PreconditionError(f"p and e must be integers, got {p!r} and {e!r}")
    if not 2 <= p <= ORDER_CAP or not is_prime(p):
        raise PreconditionError(f"characteristic {p} is not a prime in 2..{ORDER_CAP}")
    if e < 1:
        raise PreconditionError(f"extension degree must be >= 1, got {e}")
    if e >= ORDER_CAP.bit_length() or p**e > ORDER_CAP:
        raise PreconditionError(f"field order {p}^{e} exceeds scope cap {ORDER_CAP}")


class Field:
    """The field F_{p^e} with an explicit monic irreducible modulus.

    ``modulus`` is the full coefficient list of the degree-e modulus, low
    degree first, ending in 1.  Use :func:`field_make` to construct one
    with the canonical (lexicographically smallest) modulus.
    """

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "one",
        "_weights",
        "_log",
        "_alog",
        "_zech",
        "_row_ops",
        "_hash",
    )

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        _check_order(p, e)
        q = p**e
        modulus = tuple(modulus)
        if any(type(c) is not int for c in modulus):
            raise PreconditionError(f"modulus entries must be integers, got {list(modulus)!r}")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise PreconditionError("modulus must be monic of degree e")
        if not _is_irreducible(modulus, p):
            raise PreconditionError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        # index of the constant polynomial 1 (c_0 is the most significant digit)
        self.one = p ** (e - 1)
        self._weights = tuple(p ** (e - 1 - i) for i in range(e))
        self._log = None
        self._alog = None
        self._zech = None
        self._row_ops = None
        self._hash = hash((p, e, modulus))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e}, q={self.q})"

    # -- element encoding ---------------------------------------------------

    def coeffs(self, a: int) -> tuple:
        """Coefficient vector (c_0, ..., c_{e-1}) of element ``a``."""
        if self.e == 1:
            return (a % self.p,)
        out = []
        for w in self._weights:
            out.append(a // w)
            a %= w
        return tuple(out)

    def element(self, coeffs: Sequence[int]) -> int:
        """Element with the given coefficient vector (low degree first)."""
        if len(coeffs) > self.e:
            raise PreconditionError("coefficient vector longer than degree")
        a = 0
        for c, w in zip(coeffs, self._weights):
            a += (c % self.p) * w
        return a

    def scalar(self, c: int) -> int:
        """Image of the prime-field residue ``c`` in this field."""
        return (c % self.p) * self._weights[0]

    def elements(self) -> range:
        """All q elements in canonical enumeration order."""
        return range(self.q)

    # -- log tables ------------------------------------------------------------

    def _tables(self):
        """``(log, alog, zech)`` of an extension field, built on first use.

        ``log[0]`` is the sentinel 2(q-1) and ``alog`` (length 4(q-1) + 1)
        is zero from index 2(q-1) on, so a sum of two logs indexes the
        product, zero included.  ``zech[k] = log(1 + g^k)`` has period
        q - 1 over 2(q-1) entries, so any difference of two logs of
        nonzero elements, or of a log sum and a log, indexes it (negative
        ones from the end); it is None in characteristic 2."""
        if self._log is None:
            q = self.q
            top = q - 1
            p, mod = self.p, self.modulus
            targets = [top // t for t in _prime_factors(top)]
            gen = None
            for g in range(1, q):
                x = _poly_trim(self.coeffs(g))
                if all(_poly_powmod(x, n, mod, p) != (1,) for n in targets):
                    gen = x
                    break
            if gen is None:  # pragma: no cover
                raise InvariantViolation("no multiplicative generator found")
            alog = [0] * (4 * top + 1)
            log = [2 * top] * q
            cur = (1,)
            for i in range(top):
                a = self.element(cur)
                alog[i] = alog[i + top] = a
                log[a] = i
                cur = _poly_mulmod(cur, gen, mod, p)
            if log[0] != 2 * top or log.count(2 * top) != 1:
                raise InvariantViolation(
                    f"the powers of {gen} do not reach every nonzero element"
                )
            if p != 2:
                # 1 + x is (x + one) % q: ``one`` is the leading digit
                self._zech = [log[(alog[k] + self.one) % q] for k in range(2 * top)]
            self._alog = alog
            self._log = log
        return self._log, self._alog, self._zech

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        if self._log is None:
            self._tables()
        la = self._log[a]
        return self._alog[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._log is None:
            self._tables()
        return self._alog[self._log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._log is None:
            self._tables()
        return self._alog[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is None:
            self._tables()
        return self._alog[self.q - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return self.one
            if n < 0:
                raise PreconditionError("inverse of zero")
            return 0
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if self._log is None:
            self._tables()
        return self._alog[(self._log[a] * n) % (self.q - 1)]

    # -- hot-path accessors ----------------------------------------------------

    def add_func(self):
        """Two-argument add closure bound to the field's arithmetic."""
        if self.e == 1:
            p = self.p
            return lambda a, b: (a + b) % p
        return self.add

    def row_ops(self):
        """The row kernel ``(axpy, scale)``, built on first use and cached:
        ``axpy(acc, f, row)`` returns the list acc + f*row and
        ``scale(f, row)`` the list f*row, elementwise over equal-length
        rows of elements.  Every row operation of the package goes through
        these two, so each field pays its backend dispatch once per row."""
        if self._row_ops is None:
            self._row_ops = self._build_row_ops()
        return self._row_ops

    def _build_row_ops(self):
        if self.e == 1:
            p = self.p

            def axpy(acc, f, row):
                return [(a + f * x) % p for a, x in zip(acc, row)]

            def scale(f, row):
                return [f * x % p for x in row]

            return axpy, scale

        log, alog, zech = self._tables()

        def scale(f, row):
            lf = log[f]
            return [alog[lf + log[x]] for x in row]

        if self.p == 2:

            def axpy(acc, f, row):
                lf = log[f]
                return [a ^ alog[lf + log[x]] for a, x in zip(acc, row)]

        else:

            def axpy(acc, f, row):
                if not f:
                    return list(acc)
                lf = log[f]
                # a + f*x = g^(la + zech[lf + log x - la]) for a, x nonzero
                return [
                    (alog[(la := log[a]) + zech[lf + log[x] - la]] if a else alog[lf + log[x]])
                    if x
                    else a
                    for a, x in zip(acc, row)
                ]

        return axpy, scale

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, data: dict) -> "Field":
        return cls(data["p"], data["e"], data["modulus"])


@functools.lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> Field:
    """Field of order p^e with the lexicographically smallest monic
    irreducible modulus (coefficients compared low-degree first), so all
    downstream counts are bit-reproducible without a polynomial table."""
    _check_order(p, e)
    if e == 1:
        return Field(p, 1, (0, 1))
    # a zero constant term makes x a factor, so c_0 starts at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        poly = tail + (1,)
        if _is_irreducible(poly, p):
            return Field(p, e, poly)
    raise InvariantViolation("no irreducible polynomial found")  # pragma: no cover


def field_of_order(q: int) -> Field:
    """Canonical field with q = p^e elements; error if q is not a prime power."""
    if not 2 <= q <= ORDER_CAP:
        raise PreconditionError(f"field order {q} is outside 2..{ORDER_CAP}")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise PreconditionError(f"{q} is not a prime power")
    return field_make(p, e)


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _embedding(src: Field, dst: Field) -> tuple:
    """The images in dst of all elements of src, by code: the generator of
    src goes to the first root of src's modulus in dst's element order.
    Under the order cap a proper subfield has at most 2^10 elements."""

    def at(x: int, coeffs) -> int:  # sum c_i x^i in dst, by Horner
        acc = 0
        for c in reversed(coeffs):
            acc = dst.add(dst.mul(acc, x), dst.scalar(c))
        return acc

    root = next((x for x in dst.elements() if at(x, src.modulus) == 0), None)
    if root is None:  # pragma: no cover - subfield always yields roots
        raise InvariantViolation("source modulus has no root in target")
    return tuple(at(root, src.coeffs(a)) for a in src.elements())


def is_extension(src: Field, dst: Field) -> bool:
    return src.p == dst.p and dst.e % src.e == 0


def embedding_map(src: Field, dst: Field):
    """Callable a -> embed(a, src, dst), cached per field pair."""
    if not is_extension(src, dst):
        raise PreconditionError(
            f"F_{src.p}^{src.e} does not embed in F_{dst.p}^{dst.e}"
        )
    if src == dst:
        return lambda a: a
    return _embedding(src, dst).__getitem__


def embed(a: int, src: Field, dst: Field) -> int:
    """Ring-homomorphic image of ``a`` under the canonical embedding
    F_{p^e} -> F_{p^(e*r)} (source generator goes to the root of the
    source modulus with the lexicographically smallest coefficient
    vector)."""
    return embedding_map(src, dst)(a)
