"""The per-field row kernel and the row operations built on it, against
naive per-element references written with the scalar Field methods."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multilin.errors import InvariantViolation
from multilin.field import field_of_order
from multilin.grassmann import (
    Subspace,
    enumerate_grassmannian,
    gf2_basis,
    gf2_pack,
    gf2_unpack,
    kernel_basis,
    kernel_basis_by_rref,
    leaf_form,
    leaf_kernel,
    leaf_points,
    leaf_rank,
    leaf_subspaces,
    point_rows,
    projective_points,
    rank,
    row_combinations,
    rref,
    span_points,
    zero_set_table,
)
from multilin.isotropy import _rref_insert

# prime fields, and extension fields in characteristic 2 (XOR addition, 512
# included) and odd characteristic (Zech-logarithm addition)
FIELDS = [field_of_order(q) for q in (2, 3, 4, 5, 8, 9, 25, 27, 289, 512)]


def naive_axpy(F, acc, f, row):
    return [F.add(a, F.mul(f, x)) for a, x in zip(acc, row)]


def naive_rref(F, rows):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def naive_kernel(F, rows, n):
    red, pivots = naive_rref(F, rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = F.one
            for row, pc in zip(red, pivots):
                v[pc] = F.neg(row[f])
            basis.append(tuple(v))
    return basis


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    F = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_cols))
    # zeros are drawn often, so rank drops and zero rows show up
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows)
    )
    return F, ncols, rows


@given(matrices(max_rows=2), st.data())
@settings(max_examples=150, deadline=None)
def test_axpy_and_scale_match_elementwise_ops(case, data):
    F, ncols, rows = case
    zero = [0] * ncols
    acc, row = (rows + [zero, zero])[:2]
    f = data.draw(st.one_of(st.just(0), st.integers(0, F.q - 1)))
    axpy, scale = F.row_ops()
    assert axpy(acc, f, row) == naive_axpy(F, acc, f, row)
    assert axpy(tuple(acc), f, tuple(row)) == naive_axpy(F, acc, f, row)
    assert scale(f, row) == [F.mul(f, x) for x in row]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_and_kernel_match_naive_elimination(case):
    F, ncols, rows = case
    assert rref(F, rows) == naive_rref(F, rows)
    assert kernel_basis(F, rows, ncols) == naive_kernel(F, [r for r in rows if any(r)], ncols)


@st.composite
def sparse_matrices(draw, orders, max_n=12):
    """A field of one of the given orders and 0-16 rows over F^n, n in
    0..max_n, drawn sparse, with zero rows and repeats of earlier rows mixed
    in."""
    F = field_of_order(draw(st.sampled_from(orders)))
    n = draw(st.integers(0, max_n))
    row = st.lists(st.sampled_from((0, 0) + tuple(range(1, F.q))), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=16))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else [0] * n
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return F, n, rows[:16]


@given(sparse_matrices(orders=(2,)))
@settings(max_examples=300, deadline=None)
def test_packed_f2_elimination_matches_the_list_route(case):
    F, n, rows = case
    assert kernel_basis(F, rows, n) == kernel_basis_by_rref(F, rows, n)
    assert rank(F, rows) == len(rref(F, rows)[0]) == len(gf2_basis(map(gf2_pack, rows)))
    assert [gf2_unpack(gf2_pack(r), n) for r in rows] == [tuple(r) for r in rows]


@given(sparse_matrices(orders=(2, 3, 4, 5)), st.data())
@settings(max_examples=300, deadline=None)
def test_leaf_form_rank_and_kernel_match_the_list_route(case, data):
    F, n, rows = case
    # leaf rows are converted in blocks and stacked, as the slot walk does
    cut = data.draw(st.integers(0, len(rows)))
    form = list(leaf_form(F, rows[:cut])) + list(leaf_form(F, rows[cut:]))
    assert leaf_rank(F, form) == len(rref(F, rows)[0])
    assert leaf_kernel(F, form, n) == kernel_basis_by_rref(F, rows, n)


def subspaces_within(F, n, basis, k):
    """The RREF rows of the k-subspaces of span(basis), each spanned by the
    combinations of the basis with the coefficient rows of one subspace of
    Gr(k, F^dim), in enumeration order."""
    if len(basis) < k:
        return []
    out = []
    for sel in enumerate_grassmannian(F, len(basis), k):
        vectors = []
        for coefs in sel.rows:
            v = [0] * n
            for c, row in zip(coefs, basis):
                v = naive_axpy(F, v, c, row)
            vectors.append(v)
        out.append(Subspace.span(F, n, vectors).rows)
    return out


def stacked_blocks(F, rows, data):
    """The rows in leaf form, converted in blocks cut at drawn places and
    stacked, as the slot walk stacks its memoised leaf rows."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    bounds = [0, *cuts, len(rows)]
    return [r for a, b in zip(bounds, bounds[1:]) for r in leaf_form(F, rows[a:b])]


# kernels small enough to list: F_2^n up to n = 7, F_3..F_5 up to n = 4
@given(
    st.one_of(sparse_matrices(orders=(2,), max_n=7), sparse_matrices(orders=(3, 4, 5), max_n=4)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_leaf_points_and_subspaces_match_the_list_route(case, data):
    F, n, rows = case
    form = stacked_blocks(F, rows, data)
    kernel = kernel_basis_by_rref(F, rows, n)
    points = span_points(F, rref(F, kernel)[0])
    assert list(leaf_points(F, form, n)) == list(leaf_form(F, list(points)))
    k = data.draw(st.integers(0, 3))
    expected = [tuple(leaf_form(F, rows)) for rows in subspaces_within(F, n, kernel, k)]
    assert list(leaf_subspaces(F, form, n, k)) == expected


@given(matrices(max_rows=4, max_cols=5), st.data())
@settings(max_examples=150, deadline=None)
def test_rref_insert_equals_rref_of_the_extended_rows(case, data):
    F, ncols, rows = case
    red, pivots = rref(F, rows)
    # reduce a random vector modulo span(red); insert its canonical line
    w = data.draw(st.lists(st.integers(0, F.q - 1), min_size=ncols, max_size=ncols))
    for row, pc in zip(red, pivots):
        w = naive_axpy(F, w, F.neg(w[pc]), row)
    if not any(w):
        return
    lead = next(x for x in w if x)
    v = tuple(F.mul(F.inv(lead), x) for x in w)
    assert _rref_insert(F, red, pivots, v) == rref(F, list(red) + [v])


def test_rref_insert_rejects_a_vector_not_reduced_modulo_the_rows():
    F = field_of_order(3)
    red, pivots = rref(F, [(1, 0, 2)])
    for v in [(0, 0, 0), (1, 1, 0), (0, 2, 1)]:  # zero, at a pivot, leads with 2
        with pytest.raises(InvariantViolation):
            _rref_insert(F, red, pivots, v)


def naive_span_points(F, rows):
    """Oracle: row i plus each combination of the rows after it, row i
    ascending, the coefficients in product order (the first slowest)."""
    out = []
    for i, lead in enumerate(rows):
        for coefs in itertools.product(F.elements(), repeat=len(rows) - i - 1):
            v = list(lead)
            for c, row in zip(coefs, rows[i + 1 :]):
                v = naive_axpy(F, v, c, row)
            out.append(tuple(v))
    return out


@given(st.one_of(matrices(max_rows=4, max_cols=5), sparse_matrices(orders=(2,), max_n=9)))
@settings(max_examples=150, deadline=None)
def test_span_points_are_the_canonical_points_of_the_span(case):
    F, ncols, rows = case
    red, _ = rref(F, rows)
    if F.q ** len(red) > 2000:
        return
    points = list(span_points(F, red))
    expected = set()
    for coefs in itertools.product(F.elements(), repeat=len(red)):
        v = [0] * ncols
        for c, row in zip(coefs, red):
            v = naive_axpy(F, v, c, row)
        lead = next((x for x in v if x), None)
        if lead == F.one:
            expected.add(tuple(v))
    assert len(points) == len(expected) and set(points) == expected
    # by leading row, then by the later rows' coefficients in product order
    assert points == naive_span_points(F, red)
    if F.q == 2:
        assert list(span_points(F, [gf2_pack(r) for r in red])) == list(map(gf2_pack, points))


@given(matrices(max_rows=4, max_cols=5), st.data())
@settings(max_examples=150, deadline=None)
def test_row_combinations_match_a_naive_loop_for_any_lead(case, data):
    F, ncols, rows = case
    if F.q ** len(rows) > 2000:
        return
    lead = data.draw(st.lists(st.integers(0, F.q - 1), min_size=ncols, max_size=ncols))
    expected = []
    for coefs in itertools.product(F.elements(), repeat=len(rows)):
        v = lead
        for c, row in zip(coefs, rows):
            v = naive_axpy(F, v, c, row)
        expected.append(v)
    assert list(map(list, row_combinations(F, tuple(lead), rows))) == expected
    # with lead zero, in the rows' form, entry x has the base-q digits of x
    # as its coefficients
    table = list(map(list, row_combinations(F, (0,) * ncols, rows)))
    assert table == [[F.sub(a, b) for a, b in zip(v, lead)] for v in expected]
    if rows:  # a lead of 0 is the zero row of element rows, at any q
        assert list(map(list, row_combinations(F, 0, rows))) == table
    if F.q == 2:
        packed = row_combinations(F, gf2_pack(lead), [gf2_pack(r) for r in rows])
        assert list(packed) == [gf2_pack(v) for v in expected]
        table = list(row_combinations(F, 0, [gf2_pack(r) for r in rows]))
        assert table == [gf2_pack(v) ^ gf2_pack(lead) for v in expected]


TABLE_FIELDS = {q: field_of_order(q) for q in (2, 3, 4, 5, 7, 8, 9)}


@st.composite
def functional_stacks(draw):
    """A field, n <= 4 and up to 2n rows over F^n in leaf form, with zero
    rows and scalar multiples of earlier rows mixed in, so m > n and
    repeated kernels show up."""
    F = TABLE_FIELDS[draw(st.sampled_from(sorted(TABLE_FIELDS)))]
    n = draw(st.integers(1, 4))
    entry = st.sampled_from((0, 0) + tuple(range(1, F.q)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2 * n))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            c = draw(st.integers(1, F.q - 1))
            rows.append([F.mul(c, x) for x in draw(st.sampled_from(rows))])
        else:
            rows.append([0] * n)
    return F, n, rows


@given(functional_stacks())
@settings(max_examples=300, deadline=None)
def test_zero_set_table_matches_leaf_points_and_leaf_rank(case):
    F, n, rows = case
    table = zero_set_table(F, n)
    form = leaf_form(F, rows)
    place = dict(zip(leaf_form(F, projective_points(F, n)), itertools.count()))
    expected = sum(1 << place[v] for v in leaf_points(F, form, n))
    assert table.kernel(form) == expected
    assert table.dimension(form) == n - leaf_rank(F, form)


@pytest.mark.parametrize("q", [2, 3])
def test_zero_set_table_of_the_empty_projective_space(q):
    # P(F^0) has no points, so the one functional vanishes on none of them
    F = field_of_order(q)
    form = leaf_form(F, [()])
    assert list(point_rows(F, [])) == []
    assert zero_set_table(F, 0).kernel(form) == 0
    assert zero_set_table(F, 0).dimension(form) == 0


def test_point_rows_form_only_the_rows_read(monkeypatch):
    # P(F_7^6) has 19,608 points; the first row read is rows[5] itself,
    # so a stream pays no axpy for it, where a list pays one per point
    F = field_of_order(7)
    rows = [[(3 * i + j) % 7 for j in range(4)] for i in range(6)]
    axpy, scale = F.row_ops()
    calls = []

    def counted(acc, f, row):
        calls.append(1)
        return axpy(acc, f, row)

    monkeypatch.setattr(F, "_row_ops", (counted, scale))
    assert next(iter(point_rows(F, rows))) == rows[5]
    assert len(calls) < 10


@given(matrices(max_rows=4, max_cols=4))
@settings(max_examples=100, deadline=None)
def test_point_rows_are_the_combinations_at_each_canonical_point(case):
    F, ncols, rows = case
    if not rows or F.q ** len(rows) > 3000:
        return
    expected = []
    for p in projective_points(F, len(rows)):
        v = [0] * ncols
        for c, row in zip(p, rows):
            v = naive_axpy(F, v, c, row)
        expected.append(v)
    assert list(point_rows(F, rows)) == expected
