import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import multilin.rank
from multilin.errors import CapExceededError, InvariantViolation
from multilin.field import field_make, field_of_order
from multilin.grassmann import ZeroSetTable, point_rows, projective_points, zero_set_table
from multilin.rank import analytic_rank, zero_count
from multilin.tensor import Tensor, _contract_slot, random_tensor

F2 = field_make(2)
F3 = field_make(3)


def test_zero_count_identity_form():
    # x . y on F_2^2: x = 0 gives 4 pairs, each nonzero x a 2-element kernel
    T = Tensor(F2, 2, 2, 1, (1, 0, 0, 1))
    assert zero_count(T) == 10
    assert zero_count(T, method="raw") == 10


def test_zero_count_rank_one_form():
    T = Tensor(F2, 1, 2, 1, (1,))
    assert zero_count(T) == 3  # only (1, 1) is nonzero


def test_zero_count_zero_tensor():
    Z = Tensor.zero(F2, 2, 2, 1)
    assert zero_count(Z) == 2**4


def test_kernel_equals_raw_exhaustive():
    for m in (1, 2):
        for bits in range(2 ** (m * 4)):
            coeffs = [(bits >> i) & 1 for i in range(m * 4)]
            T = Tensor(F2, 2, 2, m, coeffs)
            assert zero_count(T) == zero_count(T, method="raw")


def test_kernel_equals_raw_odd_characteristic():
    for s in range(4):
        T = random_tensor(F3, 2, 2, 2, "hom", seed=555_000 + s)
        assert zero_count(T) == zero_count(T, method="raw")
        T = random_tensor(F3, 2, 3, 1, "hom", seed=556_000 + s)
        assert zero_count(T) == zero_count(T, method="raw")


def test_kernel_slot_invariance():
    for i, (q, d, n, m) in enumerate(itertools.product((2, 3), (2, 3), (2,), (1, 2))):
        T = random_tensor(field_make(q), n, d, m, "hom", seed=400 + i)
        counts = {zero_count(T, kernel_slot=s) for s in range(d)}
        assert len(counts) == 1


@pytest.mark.parametrize("q, n, d, m", [
    (3, 2, 3, 1), (3, 2, 4, 1), (4, 2, 3, 1), (3, 3, 2, 2), (5, 3, 2, 1),  # character
    (3, 2, 3, 2), (4, 2, 3, 3), (3, 1, 4, 1), (5, 2, 1, 1),  # matrix: m = N, m > N, d = 1
])
def test_both_leaves_match_raw_on_every_slot(q, n, d, m):
    T = random_tensor(field_of_order(q), n, d, m, "hom", seed=31)
    raw = zero_count(T, method="raw")
    assert [zero_count(T, kernel_slot=k) for k in range(d)] == [raw] * d


def test_analytic_rank_zero_tensor():
    report = analytic_rank(Tensor.zero(F2, 2, 2, 1))
    assert report.ar_decimal == 0.0
    assert report.zero_count == 16


def test_analytic_rank_identity_form():
    report = analytic_rank(Tensor(F2, 2, 2, 1, (1, 0, 0, 1)))
    assert report.zero_count == 10
    assert abs(report.ar_decimal - 0.678) < 0.001
    assert report.ar_leq_m and report.ar_nonnegative


def test_rank_bound_on_random_samples():
    for i, (q, d, N, m) in enumerate(
        itertools.product((2, 3), (2, 3), (2, 3), (1, 2))
    ):
        F = field_make(q)
        T = random_tensor(F, N, d, m, "hom", seed=900 + i)
        zc = zero_count(T)
        assert zc >= q ** (d * N - m)  # AR <= m as an integer inequality
        report = analytic_rank(T)
        assert report.ar_decimal <= T.m + 1e-9


def test_ar_zero_iff_zero_map():
    for n, d in [(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)]:
        for bits in range(2 ** (n**d)):
            coeffs = [(bits >> i) & 1 for i in range(n**d)]
            T = Tensor(F2, n, d, 1, coeffs)
            assert (zero_count(T) == 2 ** (d * n)) == T.is_zero()


def test_report_serialization():
    report = analytic_rank(Tensor(F2, 2, 2, 1, (1, 0, 0, 1)))
    data = report.to_dict()
    assert data["zero_count"] == "10"
    assert data["dn1"] == 4
    assert data["ar_leq_m"] is True


def test_zero_count_cap():
    T = Tensor.zero(F3, 4, 3, 1)
    with pytest.raises(CapExceededError):
        zero_count(T, cap=10)


def test_zero_count_cap_charges_projective_tuples():
    # m < N: P^(d-2) (q^m-1)/(q-1) = 4 rank calls on 2 x 2 matrices, P = 4
    T = random_tensor(F3, 2, 3, 1, "hom", seed=3)
    assert zero_count(T, cap=4) == zero_count(T, method="raw")
    with pytest.raises(CapExceededError):
        zero_count(T, cap=3)
    # m >= N: P^(d-1) = 16 rank calls on the m x N matrices
    T = random_tensor(F3, 2, 3, 2, "hom", seed=3)
    assert zero_count(T, cap=16) == zero_count(T, method="raw")
    with pytest.raises(CapExceededError):
        zero_count(T, cap=15)


def test_zero_count_cap_refuses_before_any_work(monkeypatch):
    # (7,4,4,1): P^2 = 400^2 = 160,000 rank calls, P^3 = 6.4e7 before
    def no_work(*args):
        raise AssertionError("contracted before the cap was checked")

    monkeypatch.setattr(multilin.rank, "_contract_slot", no_work)
    T = Tensor.zero(field_make(7), 4, 4, 1)
    with pytest.raises(CapExceededError):
        zero_count(T, cap=159_999)


def test_character_sum_checks_its_division(monkeypatch):
    # a full-rank 2 x 2 reading of every M_lambda leaves
    # 3^4 + 2 * 3^0 = 83 per tuple, not a multiple of q^m = 3
    monkeypatch.setattr(multilin.rank, "matrix_rank", lambda field, rows: 4)
    with pytest.raises(InvariantViolation, match="not a multiple of q"):
        zero_count(Tensor.zero(F3, 2, 3, 1))


FIELDS = {q: field_of_order(q) for q in (3, 4, 5, 9)}


def _zero_slice(coeffs, n, d, slot, index):
    """Zero every coefficient whose argument in ``slot`` is ``index``."""
    stride = n ** (d - 1 - slot)
    return [
        0 if (pos % n**d) // stride % n == index else c
        for pos, c in enumerate(coeffs)
    ]


@st.composite
def small_maps(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    # m < N (with d >= 2) takes the character leaf, the rest the matrix
    # leaf; half the draws go to each
    character = draw(st.booleans())
    shapes = [
        (n, d, m)
        for n in (1, 2, 3)
        for d in (1, 2, 3, 4)
        for m in (1, 2, 3)
        if q ** (n * d) <= 6561 and (d >= 2 and m < n) == character
    ]
    n, d, m = draw(st.sampled_from(shapes))
    size = m * n**d
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    shape = draw(st.sampled_from(("random", "zero", "slice")))
    if shape == "zero":
        coeffs = [0] * size
    elif shape == "slice":
        slot = draw(st.integers(0, d - 1))
        coeffs = _zero_slice(coeffs, n, d, slot, draw(st.integers(0, n - 1)))
    return Tensor(FIELDS[q], n, d, m, coeffs)


@given(small_maps())
@settings(max_examples=100, deadline=None)
def test_kernel_equals_raw_on_every_slot(T):
    # q - 1 > 1 here, so a wrong (q-1)^s factor cannot hide
    raw = zero_count(T, method="raw")
    for k in range(T.d):
        assert zero_count(T, kernel_slot=k) == raw


@given(st.lists(st.integers(0, 288), min_size=1, max_size=2))
@settings(max_examples=4, deadline=None)
def test_kernel_equals_raw_log_field(coeffs):
    T = Tensor(field_of_order(289), 1, 2, len(coeffs), coeffs)
    raw = zero_count(T, method="raw")
    assert [zero_count(T, kernel_slot=k) for k in range(2)] == [raw, raw]


@pytest.fixture
def tables(monkeypatch):
    """The shared zero-set tables ``zero_count`` reads, as (field order,
    n): one entry per request it makes that returns the table."""
    read = []

    def spy(field, n, cap):
        table = zero_set_table(field, n, cap)
        if table is not None:
            read.append((field.q, n))
        return table

    monkeypatch.setattr(multilin.rank, "zero_set_table", spy)
    return read


# shapes with at least 2P leaves (P = |P(F^N)|): the rule reads their
# kernels off the zero-set table
@pytest.mark.parametrize("q, n, d, m", [
    (3, 2, 4, 1), (2, 3, 3, 2), (3, 3, 3, 2), (4, 2, 3, 2), (7, 2, 3, 2), (8, 2, 3, 2),
])
def test_table_shapes_match_raw_on_every_slot(tables, q, n, d, m):
    T = random_tensor(field_of_order(q), n, d, m, "hom", seed=41)
    raw = zero_count(T, method="raw")
    assert [zero_count(T, kernel_slot=k) for k in range(d)] == [raw] * d
    assert tables == [(q, n)] * d


@pytest.mark.parametrize(
    "q, n, d, m", [(7, 3, 3, 1), (289, 2, 2, 1), (3, 2, 3, 1), (5, 2, 1, 1), (2, 3, 3, 1)]
)
def test_shapes_with_fewer_than_2p_leaves_keep_the_rank_leaf(tables, q, n, d, m):
    T = random_tensor(field_of_order(q), n, d, m, "hom", seed=41)
    count = zero_count(T)
    assert tables == []
    if q ** (n * d) <= 10**4:
        assert count == zero_count(T, method="raw")


def test_a_fixed_slot_contracts_once_per_unit_vector(tables, monkeypatch):
    # (7,3,3,1) takes the rank route (P = 57 leaves, under 2P); its fixed
    # slot's 57 children are combinations of n = 3 unit contractions
    T = random_tensor(field_of_order(7), 3, 3, 1, "hom", seed=41)
    expected = [zero_count(T, kernel_slot=k) for k in range(3)]
    assert expected == [expected[0]] * 3
    calls = []

    def spy(*args):
        calls.append(1)
        return _contract_slot(*args)

    monkeypatch.setattr(multilin.rank, "_contract_slot", spy)
    assert zero_count(T) == expected[0]
    assert len(calls) == 3
    assert tables == []


@pytest.mark.parametrize("q, n, d, slot", [(3, 2, 3, 0), (4, 3, 3, 1), (5, 2, 4, 3), (2, 3, 2, 1)])
def test_point_rows_of_unit_contractions_are_the_point_contractions(q, n, d, slot):
    F = field_of_order(q)
    T = random_tensor(F, n, d, 2, "hom", seed=7)
    units = [tuple(F.one if j == i else 0 for j in range(n)) for i in range(n)]
    rows = [_contract_slot(F, T.coeffs, 2, n, d, e, slot) for e in units]
    expected = [_contract_slot(F, T.coeffs, 2, n, d, v, slot) for v in projective_points(F, n)]
    assert list(point_rows(F, rows)) == expected


def test_zero_count_least_cap_on_both_leaves(tables):
    # table: P = 4, P^2 = 16 leaves of the (3,2,3,2) matrix route
    T = random_tensor(F3, 2, 3, 2, "hom", seed=5)
    assert zero_count(T, cap=16) == zero_count(T, method="raw")
    assert tables == [(3, 2)]
    with pytest.raises(CapExceededError):
        zero_count(T, cap=15)
    # rank: P = 7 leaves of the (2,3,3,1) character route, under 2P
    T = random_tensor(F2, 3, 3, 1, "hom", seed=5)
    assert zero_count(T, cap=7) == zero_count(T, method="raw")
    assert tables == [(3, 2)]
    with pytest.raises(CapExceededError):
        zero_count(T, cap=6)


def test_a_table_that_passes_the_cap_falls_back_to_ranks(tables):
    # (5,3,3,2), an analytic-rank benchmark class (its raw scan takes
    # seconds): 31 * 6 = 186 leaves, but the table's P^2 = 961 passes a cap
    # of 186, so that least cap still answers, by ranks, on every slot
    T = random_tensor(field_of_order(5), 3, 3, 2, "hom", seed=5)
    by_rank = [zero_count(T, cap=186, kernel_slot=k) for k in range(3)]
    assert tables == []
    assert [zero_count(T, kernel_slot=k) for k in range(3)] == by_rank
    assert tables == [(5, 3)] * 3
    with pytest.raises(CapExceededError):
        zero_count(T, cap=185)


def test_character_sum_checks_its_division_on_a_table_shape(monkeypatch, tables):
    # (3,2,4,1) reads the table; a kernel of dimension -2 leaves
    # 3^4 + 2 * 3^0 = 83 per tuple, not a multiple of q^m = 3
    monkeypatch.setattr(ZeroSetTable, "dimension", lambda self, form: -2)
    with pytest.raises(InvariantViolation, match="not a multiple of q"):
        zero_count(Tensor.zero(F3, 2, 4, 1))
    assert tables == [(3, 2)]


@pytest.mark.parametrize("q, n, d, m", [(5, 3, 3, 2), (7, 3, 3, 1), (3, 2, 3, 1)])
def test_zero_count_leaves_no_reference_cycle(q, n, d, m):
    # a cycle would keep the call's table and contractions alive until the
    # next cyclic collection, which a later call would then pay for
    T = random_tensor(field_of_order(q), n, d, m, "hom", seed=1)
    methods = ["kernel", "raw"] if q ** (n * d) < 10_000 else ["kernel"]
    gc.collect()
    gc.disable()
    try:
        for method in methods:
            zero_count(T, method=method)
            assert gc.collect() == 0
    finally:
        gc.enable()
