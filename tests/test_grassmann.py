import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multilin.errors import CapExceededError, PreconditionError
from multilin.field import field_make, field_of_order
from multilin.grassmann import (
    Subspace,
    alt_incidence_dim,
    enumerate_grassmannian,
    gauss_binom,
    hom_incidence_dim,
    intersection_dim,
    interpolated_degree,
    kernel_basis,
    rank,
    rref,
    rref_choices,
    stratum_count,
    stratum_dim,
    stratum_profile,
)

F2 = field_make(2)
F3 = field_make(3)


def test_gauss_binom_values():
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(2, 1, 2) == 3
    assert gauss_binom(3, 2, 7) == 57
    assert gauss_binom(5, 0, 3) == 1
    assert gauss_binom(3, 4, 2) == 0
    with pytest.raises(PreconditionError):
        gauss_binom(-1, 0, 2)


def test_enumeration_counts_and_distinctness():
    for q in (2, 3, 4):
        F = field_of_order(q)
        for n in range(0, 5):
            for k in range(0, n + 1):
                subs = list(enumerate_grassmannian(F, n, k))
                assert len(subs) == gauss_binom(n, k, q)
                assert len(set(subs)) == len(subs)


def test_enumeration_yields_rref():
    for S in enumerate_grassmannian(F3, 4, 2):
        rows, pivots = rref(F3, S.rows)
        assert rows == S.rows and pivots == S.pivots


def test_enumeration_order_pin():
    # pivot sets lexicographic, then free entries in element order
    got = [S.rows for S in enumerate_grassmannian(F2, 2, 1)]
    assert got == [((1, 0),), ((1, 1),), ((0, 1),)]
    first = next(iter(enumerate_grassmannian(F3, 4, 2)))
    assert first.rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_zero_and_full_subspace():
    assert len(list(enumerate_grassmannian(F2, 3, 0))) == 1
    full = Subspace.full(F2, 3)
    assert full.k == 3
    assert Subspace.span(F2, 3, full.rows + ((1, 1, 1),)) == full


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_grassmannian(F2, 20, 10, cap=1000))


def test_span_canonicalizes():
    a = Subspace.span(F3, 3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.span(F3, 3, [(2, 2, 0), (1, 2, 1)])
    assert a == b
    assert a.k == 2


def test_intersection_dim():
    U = Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    V = Subspace.span(F3, 3, [(0, 1, 0), (0, 0, 1)])
    assert intersection_dim(U, V) == 1
    assert intersection_dim(U, U) == 2
    L1 = Subspace.span(F2, 2, [(1, 0)])
    L2 = Subspace.span(F2, 2, [(0, 1)])
    assert intersection_dim(L1, L2) == 0
    with pytest.raises(PreconditionError):
        intersection_dim(U, Subspace.span(F3, 4, [(1, 0, 0, 0)]))


def test_kernel_basis():
    basis = kernel_basis(F2, [(1, 1, 0), (0, 0, 1)], 3)
    assert len(basis) == 1
    assert basis[0] == (1, 1, 0)
    assert rank(F2, [(1, 1, 0), (0, 0, 1)]) == 2


def test_stratum_partition_and_methods_agree():
    for q, n, k in [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 3, 2)]:
        F = field_of_order(q)
        pairs = stratum_profile(F, n, k, method="pairs")
        fixed = stratum_profile(F, n, k, method="fixed")
        total = gauss_binom(n, k, q)
        assert pairs == fixed
        assert sum(pairs.values()) == total * total
        assert pairs[k] == total  # the diagonal


def test_stratum_count_examples():
    assert stratum_count(F2, 2, 1, 1) == 3
    with pytest.raises(PreconditionError):
        stratum_count(F2, 2, 1, 2)  # l out of admissible range


def test_stratum_counts_match_product_identity():
    # independent route: choose the intersection, then the complements
    def closed_form(n, k, l, q):
        return (
            gauss_binom(n, k, q)
            * gauss_binom(k, l, q)
            * gauss_binom(n - k, k - l, q)
            * q ** ((k - l) ** 2)
        )

    for q in (2, 3, 4):
        F = field_of_order(q)
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                profile = stratum_profile(F, n, k, method="fixed")
                for l, count in profile.items():
                    assert count == closed_form(n, k, l, q), (q, n, k, l)


def test_stratum_dim_formula():
    assert stratum_dim(2, 1, 1) == 1
    assert stratum_dim(2, 1, 0) == 2
    assert stratum_dim(4, 2, 0) == 8
    assert stratum_dim(4, 2, 1) == 7
    assert stratum_dim(4, 2, 2) == 4


def test_stratum_degree_matches_dimension():
    # exact Lagrange interpolation over enough prime powers
    qs = (2, 3, 4, 5, 7)
    profiles = {
        q: stratum_profile(field_of_order(q), 3, 2, method="fixed") for q in qs
    }
    for l in (1, 2):
        samples = [(q, profiles[q][l]) for q in qs]
        assert interpolated_degree(samples) == stratum_dim(3, 2, l)


def test_incidence_dim_formulas():
    assert alt_incidence_dim(4, 2, 1, 2) == 8
    assert hom_incidence_dim(3, 2, 1) == 8
    # boundary: k = n makes the fiber empty; the formula still evaluates
    assert alt_incidence_dim(3, 2, 1, 3) == -1


def test_interpolation_exactness():
    # y = x^3 - 2x through 5 points
    samples = [(x, x**3 - 2 * x) for x in (0, 1, 2, 3, 4)]
    assert interpolated_degree(samples) == 3
    assert interpolated_degree([(1, 5), (2, 5), (3, 5)]) == 0
    assert interpolated_degree([(1, 0), (2, 0)]) == -1
    with pytest.raises(PreconditionError):
        interpolated_degree([(1, 1), (1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpolated_degree_of_random_polynomials(data):
    j = data.draw(st.integers(0, 6), label="degree")
    lead = data.draw(st.integers(1, 40) | st.integers(-40, -1), label="leading coefficient")
    coeffs = data.draw(st.lists(st.integers(-40, 40), min_size=j, max_size=j)) + [lead]
    xs = data.draw(
        st.lists(st.integers(-30, 30), min_size=j + 1, max_size=j + 4, unique=True), label="xs"
    )
    samples = [(x, sum(c * x**i for i, c in enumerate(coeffs))) for x in xs]
    assert interpolated_degree(samples) == j
    assert interpolated_degree([(x, 0) for x in xs]) == -1


def test_rref_choices_list_the_grassmannian():
    F = field_of_order(3)
    choices = rref_choices(F, 4, (0, 2))
    assert [[len(c) for c in row] for row in choices] == [[1, 3, 1, 3], [1, 1, 1, 3]]
    assert [tuple(c) for c in choices[0]] == [(F.one,), (0, 1, 2), (0,), (0, 1, 2)]
    subs = [S.rows for S in enumerate_grassmannian(F, 4, 2) if S.pivots == (0, 2)]
    rows = [itertools.product(*row) for row in choices]
    assert subs == list(itertools.product(*rows))


vec3 = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(3)])


@given(st.lists(vec3, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(vectors):
    rows, pivots = rref(F3, vectors)
    again, again_pivots = rref(F3, rows)
    assert again == rows and again_pivots == pivots


@given(st.lists(vec3, min_size=1, max_size=3), st.integers(min_value=1, max_value=2))
@settings(max_examples=60, deadline=None)
def test_span_is_scale_invariant(vectors, scale):
    scaled = [tuple(F3.mul(scale, x) for x in v) for v in vectors]
    assert Subspace.span(F3, 3, vectors) == Subspace.span(F3, 3, scaled)


def test_subspace_serialization():
    S = Subspace.span(F3, 3, [(1, 2, 0), (0, 0, 1)])
    again = Subspace.from_dict(F3, S.to_dict())
    assert again == S
