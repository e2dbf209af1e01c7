import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from multilin import field as field_module
from multilin.errors import InvariantViolation, PreconditionError
from multilin.field import (
    Field,
    _is_irreducible,
    _poly_mulmod,
    _poly_powmod,
    _poly_trim,
    embed,
    field_make,
    field_of_order,
    is_prime,
)
from multilin.rank import zero_count
from multilin.tensor import random_tensor

# every prime power up to 64
SMALL_ORDERS = [
    4, 8, 9, 16, 25, 27, 32, 49, 64,
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
]


def test_canonical_moduli():
    assert field_make(2).modulus == (0, 1)
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    # lex comparison is low-degree first: x^3 + x^2 + 1 beats x^3 + x + 1
    assert field_make(2, 3).modulus == (1, 0, 1, 1)
    # odd orders beyond the trial-division sweep below, where a Rabin gcd
    # step that divides by a non-monic remainder goes wrong (values checked
    # with sympy)
    assert field_make(3, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    assert field_make(3, 9).modulus == (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)
    assert field_make(3, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)
    assert field_make(5, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    assert field_make(7, 5).modulus == (1, 0, 0, 0, 3, 1)


def test_field_make_validation():
    with pytest.raises(PreconditionError):
        field_make(4)
    with pytest.raises(PreconditionError):
        field_make(2, 0)
    with pytest.raises(PreconditionError):
        field_make(2, 21)  # 2^21 above the scope cap
    with pytest.raises(PreconditionError):
        Field(2, 2, (0, 0, 1))  # x^2 is reducible


def test_enumeration_order_is_lex_on_coefficients():
    F4 = field_make(2, 2)
    assert [F4.coeffs(a) for a in F4.elements()] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    F9 = field_make(3, 2)
    coeffs = [F9.coeffs(a) for a in F9.elements()]
    assert coeffs == sorted(coeffs)
    assert len(set(coeffs)) == 9


def test_f4_multiplication_table():
    F4 = field_make(2, 2)
    x = F4.element([0, 1])
    assert F4.mul(x, x) == F4.element([1, 1])  # x^2 = x + 1
    assert F4.mul(x, F4.element([1, 1])) == F4.one  # x(x+1) = x^2 + x = 1


def test_prime_field_inverse():
    F5 = field_make(5)
    assert F5.inv(2) == 3
    assert all(F5.mul(a, F5.inv(a)) == 1 for a in range(1, 5))
    with pytest.raises(PreconditionError):
        F5.inv(0)


def test_wilson_product_f9():
    F9 = field_make(3, 2)
    prod = F9.one
    for a in range(1, 9):
        prod = F9.mul(prod, a)
    assert prod == F9.neg(F9.one)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    F = field_of_order(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == 0
    # triples: associativity and distributivity
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("q", [4, 9, 8, 27, 25])
def test_frobenius(q):
    F = field_of_order(q)
    p = F.p
    frob = lambda a: F.pow(a, p)
    for a, b in itertools.product(range(q), repeat=2):
        assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
        assert frob(F.mul(a, b)) == F.mul(frob(a), frob(b))


@pytest.mark.parametrize("p,e,r", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 2, 2), (2, 4, 2)])
def test_embed_is_injective_homomorphism(p, e, r):
    src = field_make(p, e)
    dst = field_make(p, e * r)
    images = [embed(a, src, dst) for a in range(src.q)]
    assert len(set(images)) == src.q
    assert embed(src.one, src, dst) == dst.one
    assert embed(0, src, dst) == 0
    for a, b in itertools.product(range(src.q), repeat=2):
        assert embed(src.add(a, b), src, dst) == dst.add(images[a], images[b])
        assert embed(src.mul(a, b), src, dst) == dst.mul(images[a], images[b])
    # the image is exactly the fixed field of the q-power Frobenius
    fixed = [a for a in range(dst.q) if dst.pow(a, src.q) == a]
    assert sorted(images) == fixed


# the images of F_a's elements in F_b, by code, under the canonical embedding
EMBED_PINS = {
    (2, 16): (0, 8),
    (4, 16): (0, 5, 8, 13),
    (3, 9): (0, 3, 6),
    (9, 729): (0, 45, 63, 243, 288, 306, 486, 531, 549),
}


@pytest.mark.parametrize("a, b", sorted(EMBED_PINS))
def test_embed_images_are_pinned(a, b):
    src, dst = field_of_order(a), field_of_order(b)
    assert tuple(embed(x, src, dst) for x in range(a)) == EMBED_PINS[a, b]


def test_embed_rejects_non_extension():
    with pytest.raises(PreconditionError):
        embed(1, field_make(2, 2), field_make(2, 3))
    with pytest.raises(PreconditionError):
        embed(1, field_make(2), field_make(3))


def test_fixed_points_count_in_extension():
    F4 = field_make(2, 2)
    F16 = field_make(2, 4)
    assert sum(1 for a in range(16) if F16.pow(a, 4) == a) == 4
    assert sum(1 for a in range(F4.q) if F4.pow(a, 2) == a) == 2


def test_serialization_roundtrip():
    for q in (2, 4, 9, 27):
        F = field_of_order(q)
        again = Field.from_dict(F.to_dict())
        assert again == F
        assert F.to_dict()["modulus"][-1] == 1


def test_scalar_and_element_encoding():
    F8 = field_make(2, 3)
    assert F8.scalar(1) == F8.one
    for a in range(8):
        assert F8.element(F8.coeffs(a)) == a


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@given(st.integers(min_value=0, max_value=26), st.integers(min_value=0, max_value=26), st.integers(min_value=0, max_value=26))
@settings(max_examples=60, deadline=None)
def test_f27_axioms_sampled(a, b, c):
    F = field_make(3, 3)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_large_extension_log_arithmetic():
    # a large extension field: x generates the multiplicative group
    F = field_make(2, 10)
    one = F.one
    assert F.mul(one, one) == one
    x = F.element([0, 1])
    acc = one
    for _ in range(F.q - 1):
        acc = F.mul(acc, x)
    assert acc == one  # x^(q-1) = 1
    assert F.mul(x, F.inv(x)) == one
    assert F.pow(x, F.q - 1) == one


# Independent oracle: coefficient-vector arithmetic, digit-wise mod p for
# addition and polynomial multiplication modulo the field's modulus, with
# no log tables.  Every extension order up to 256 is checked on all pairs.
ORACLE_EXHAUSTIVE = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256]
ORACLE_SAMPLED = [289, 343, 512, 625, 729, 1024]


def coeff_add(F, a, b):
    return F.element([(x + y) % F.p for x, y in zip(F.coeffs(a), F.coeffs(b))])


def coeff_neg(F, a):
    return F.element([-x % F.p for x in F.coeffs(a)])


def coeff_mul(F, a, b):
    pa, pb = _poly_trim(F.coeffs(a)), _poly_trim(F.coeffs(b))
    return F.element(_poly_mulmod(pa, pb, F.modulus, F.p))


def coeff_pow(F, a, n):
    return F.element(_poly_powmod(_poly_trim(F.coeffs(a)), n, F.modulus, F.p))


def check_against_oracle(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == coeff_add(F, a, b), (F.q, a, b)
        assert F.mul(a, b) == coeff_mul(F, a, b), (F.q, a, b)
    for a in {a for pair in pairs for a in pair}:
        assert F.neg(a) == coeff_neg(F, a), (F.q, a)
        if a:
            assert coeff_mul(F, a, F.inv(a)) == F.one, (F.q, a)
            assert F.pow(a, -1) == F.inv(a)
        for n in (0, 1, 2, 3, F.p, F.q - 1, F.q + 1, 3 * F.q + 5):
            assert F.pow(a, n) == coeff_pow(F, a, n), (F.q, a, n)


@pytest.mark.parametrize("q", ORACLE_EXHAUSTIVE)
def test_arithmetic_matches_coefficient_oracle_exhaustive(q):
    F = field_of_order(q)
    assert F.e > 1
    check_against_oracle(F, list(itertools.product(range(q), repeat=2)))


@pytest.mark.parametrize("q", ORACLE_SAMPLED)
def test_arithmetic_matches_coefficient_oracle_sampled(q):
    F = field_of_order(q)
    rng = random.Random(q)
    draw = lambda: rng.choice([0, F.one, rng.randrange(q)])  # noqa: E731
    pairs = [(draw(), draw()) for _ in range(1500)]
    check_against_oracle(F, pairs + [(a, coeff_neg(F, a)) for a, _ in pairs[:200]])


# Independent oracle for irreducibility: plain trial division by every
# monic polynomial of degree 1 .. e/2, with its own long division.
IRREDUCIBILITY_ORDERS = [
    (p, e)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
    for e in range(2, 8)
    if p**e <= 5000
]


def divides(g, f, p):
    """Whether the monic g divides f over F_p (both low degree first)."""
    rem = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = rem[top]
        if c:
            for i, gi in enumerate(g):
                rem[top - len(g) + 1 + i] = (rem[top - len(g) + 1 + i] - c * gi) % p
    return not any(rem)


def irreducible_by_trial_division(f, p):
    e = len(f) - 1
    for k in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if divides(tail + (1,), f, p):
                return False
    return True


@pytest.mark.parametrize("p, e", IRREDUCIBILITY_ORDERS)
def test_is_irreducible_matches_trial_division(p, e):
    first = None
    for tail in itertools.product(range(p), repeat=e):
        f = tail + (1,)
        expect = irreducible_by_trial_division(f, p)
        assert _is_irreducible(f, p) == expect, f
        if expect and first is None:
            first = f
    # the canonical modulus is the first irreducible in lex order
    assert field_make(p, e).modulus == first


def test_f15625_arithmetic_is_a_field():
    # 1 + 3x^4 + x^5 + x^6 = (x - 2)(x^2 - x + 2)(x^3 - x^2 + x + 1) over F_5
    with pytest.raises(PreconditionError, match="reducible"):
        Field(5, 6, (1, 0, 0, 0, 3, 1, 1))
    F = field_make(5, 6)
    rng = random.Random(15625)
    for a in [1, 2, F.one, F.q - 1] + [rng.randrange(1, F.q) for _ in range(500)]:
        assert F.mul(a, F.inv(a)) == F.one, a
        assert coeff_mul(F, a, F.inv(a)) == F.one, a
    # c*x*y with c != 0 vanishes on the two axes: 2q - 1 zeros
    T = random_tensor(F, 1, 2, 1, "hom", seed=0)
    assert T.coeffs[0] and zero_count(T) == 2 * F.q - 1


def test_log_tables_refuse_a_reducible_modulus(monkeypatch):
    # Field() refuses reducible moduli; with that check bypassed, the log
    # tables must still not be built on a ring that is not a field
    monkeypatch.setattr(field_module, "_is_irreducible", lambda poly, p: True)
    F = Field(5, 2, (4, 0, 1))  # x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(InvariantViolation):
        F.mul(F.one, F.one)
