"""Exact arithmetic in finite fields F_{p^e}, including extension towers.

Elements are represented as plain integers in ``range(q)``: the integer of
an element is its rank in the canonical enumeration order, which sorts
coefficient vectors (c_0, ..., c_{e-1}) of the polynomial residue
c_0 + c_1 x + ... lexicographically with the low-degree coefficient
compared first.  Equivalently, ``index = sum(c_i * p**(e-1-i))``.  Two
elements are equal iff their integers are equal, so canonical uniqueness
is free, and serialized coefficient indices need no translation table.

Prime fields compute with plain modular arithmetic.  Extension fields of
order up to 256 build dense add/mul/neg/inv tables on first use; larger
extensions multiply through discrete-log tables built from a generator.
Row operations on lists of elements go through one kernel per field,
built on first use (:meth:`Field.row_ops`): a single ``% p`` per entry for
prime fields, XOR against a multiplication-table row in characteristic 2
(the canonical index is the coefficient bit vector), the add table for
odd-characteristic tables, and the log tables above the table limit.

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

# Extension fields up to this order get dense q-by-q operation tables.
_TABLE_LIMIT = 256


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
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        coef = a[-1] % p
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
        "_add_table",
        "_neg_table",
        "_mul_table",
        "_inv_table",
        "_log",
        "_alog",
        "_row_ops",
        "_hash",
    )

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise PreconditionError(f"characteristic {p} is not prime")
        if e < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > ORDER_CAP:
            raise PreconditionError(f"field order {q} exceeds scope cap {ORDER_CAP}")
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
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        self._log = None
        self._alog = None
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

    # -- table construction ---------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        pa = _poly_trim(self.coeffs(a))
        pb = _poly_trim(self.coeffs(b))
        return self.element(_poly_mulmod(pa, pb, self.modulus, self.p))

    def _log_tables(self):
        if self._log is None:
            q = self.q
            targets = [(q - 1) // t for t in _prime_factors(q - 1)]
            gen = None
            for g in range(1, q):
                if all(self._raw_pow(g, n) != self.one for n in targets):
                    gen = g
                    break
            if gen is None:  # pragma: no cover
                raise InvariantViolation("no multiplicative generator found")
            alog = [0] * (2 * (q - 1))
            log = [0] * q
            cur = self.one
            for i in range(q - 1):
                alog[i] = cur
                alog[i + q - 1] = cur
                log[cur] = i
                cur = self._raw_mul(cur, gen)
            self._log = log
            self._alog = alog
        return self._log, self._alog

    def _raw_pow(self, a: int, n: int) -> int:
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return result

    def _ensure_tables(self):
        if self._mul_table is None:
            q = self.q
            log, alog = self._log_tables()
            mul = [[0] * q for _ in range(q)]
            for a in range(1, q):
                la = log[a]
                row = mul[a]
                for b in range(1, q):
                    row[b] = alog[la + log[b]]
            inv = [0] * q
            for a in range(1, q):
                inv[a] = alog[q - 1 - log[a]]
            add = [[self._digit_add(a, b) for b in range(q)] for a in range(q)]
            neg = [self._digit_neg(a) for a in range(q)]
            self._mul_table = mul
            self._inv_table = inv
            self._add_table = add
            self._neg_table = neg

    def _digit_add(self, a: int, b: int) -> int:
        out = 0
        p = self.p
        for w in self._weights:
            out += ((a // w + b // w) % p) * w
            a %= w
            b %= w
        return out

    def _digit_neg(self, a: int) -> int:
        out = 0
        p = self.p
        for w in self._weights:
            out += (-(a // w) % p) * w
            a %= w
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.q <= _TABLE_LIMIT:
            if self._add_table is None:
                self._ensure_tables()
            return self._add_table[a][b]
        return self._digit_add(a, b)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.q <= _TABLE_LIMIT:
            if self._neg_table is None:
                self._ensure_tables()
            return self._neg_table[a]
        return self._digit_neg(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self.q <= _TABLE_LIMIT:
            if self._mul_table is None:
                self._ensure_tables()
            return self._mul_table[a][b]
        if a == 0 or b == 0:
            return 0
        log, alog = self._log_tables()
        return alog[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _TABLE_LIMIT:
            if self._inv_table is None:
                self._ensure_tables()
            return self._inv_table[a]
        log, alog = self._log_tables()
        return alog[self.q - 1 - log[a]]

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
        log, alog = self._log_tables()
        return alog[(log[a] * n) % (self.q - 1)]

    # -- hot-path accessors ----------------------------------------------------

    def mul_func(self):
        """Two-argument multiply closure bound to the fastest backend."""
        if self.e == 1:
            p = self.p
            return lambda a, b: (a * b) % p
        if self.q <= _TABLE_LIMIT:
            self._ensure_tables()
            table = self._mul_table
            return lambda a, b: table[a][b]
        return self.mul

    def add_func(self):
        """Two-argument add closure bound to the fastest backend."""
        if self.e == 1:
            p = self.p
            return lambda a, b: (a + b) % p
        if self.q <= _TABLE_LIMIT:
            self._ensure_tables()
            table = self._add_table
            return lambda a, b: table[a][b]
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

        elif self.q <= _TABLE_LIMIT:
            self._ensure_tables()
            mul = self._mul_table

            if self.p == 2:
                # the canonical index is the coefficient bit vector, so
                # addition is XOR of indices
                def axpy(acc, f, row):
                    mf = mul[f]
                    return [a ^ mf[x] for a, x in zip(acc, row)]

            else:
                add = self._add_table

                def axpy(acc, f, row):
                    mf = mul[f]
                    return [add[a][mf[x]] for a, x in zip(acc, row)]

            def scale(f, row):
                mf = mul[f]
                return [mf[x] for x in row]

        else:
            log, alog = self._log_tables()
            add = self._digit_add

            def axpy(acc, f, row):
                if not f:
                    return list(acc)
                lf = log[f]
                return [add(a, alog[lf + log[x]]) if x else a for a, x in zip(acc, row)]

            def scale(f, row):
                if not f:
                    return [0] * len(row)
                lf = log[f]
                return [alog[lf + log[x]] if x else 0 for x in row]

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
    if not is_prime(p):
        raise PreconditionError(f"characteristic {p} is not prime")
    if e < 1:
        raise PreconditionError(f"extension degree must be >= 1, got {e}")
    if p**e > ORDER_CAP:
        raise PreconditionError(f"field order {p**e} exceeds scope cap {ORDER_CAP}")
    if e == 1:
        return Field(p, 1, (0, 1))
    for tail in itertools.product(range(p), repeat=e):
        poly = tail + (1,)
        if _is_irreducible(poly, p):
            return Field(p, e, poly)
    raise InvariantViolation("no irreducible polynomial found")  # pragma: no cover


def field_of_order(q: int) -> Field:
    """Canonical field with q = p^e elements; error if q is not a prime power."""
    if q < 2:
        raise PreconditionError(f"{q} is not a prime power")
    p = None
    for f in range(2, q + 1):
        if q % f == 0:
            p = f
            break
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


class _Embedding:
    __slots__ = ("src", "dst", "powers", "_map")

    def __init__(self, src: Field, dst: Field):
        root = None
        for cand in dst.elements():
            # evaluate the source modulus at cand via Horner
            acc = dst.scalar(src.modulus[-1])
            for c in reversed(src.modulus[:-1]):
                acc = dst.add(dst.mul(acc, cand), dst.scalar(c))
            if acc == 0:
                root = cand  # first hit = lexicographically smallest root
                break
        if root is None:  # pragma: no cover - subfield always yields roots
            raise InvariantViolation("source modulus has no root in target")
        powers = [dst.one]
        for _ in range(1, src.e):
            powers.append(dst.mul(powers[-1], root))
        self.src = src
        self.dst = dst
        self.powers = powers
        self._map = {}

    def __call__(self, a: int) -> int:
        out = self._map.get(a)
        if out is None:
            dst = self.dst
            out = 0
            for c, rho in zip(self.src.coeffs(a), self.powers):
                if c:
                    out = dst.add(out, dst.mul(dst.scalar(c), rho))
            self._map[a] = out
        return out


@functools.lru_cache(maxsize=None)
def _embedding(src: Field, dst: Field) -> _Embedding:
    return _Embedding(src, dst)


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
    return _embedding(src, dst)


def embed(a: int, src: Field, dst: Field) -> int:
    """Ring-homomorphic image of ``a`` under the canonical embedding
    F_{p^e} -> F_{p^(e*r)} (source generator goes to the root of the
    source modulus with the lexicographically smallest coefficient
    vector)."""
    return embedding_map(src, dst)(a)
