import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilin.boxfree import (
    Hypergraph,
    admissible,
    box_copies,
    box_pipeline,
    build_hypergraph,
    copies_span_annihilated_tuples,
    delete_and_verify,
    edge_lower_bound,
    freeness_check,
    pigeonhole_search,
    plane_tuple_bound,
    projective_points,
)
from multilin.errors import DEFAULT_CAP, CapExceededError, InvariantViolation, PreconditionError
from multilin.field import field_make, field_of_order
from multilin.grassmann import enumerate_grassmannian, iter_projective_points
from multilin.isotropy import count_plane_tuples, isotropic_plane_tuples
from multilin.prng import SplitMix64
from multilin.tensor import Tensor, random_tensor, tensor_eval

F2 = field_make(2)
F3 = field_make(3)


# ---------------------------------------------------------------------------
# brute-force references for the fast kernels
# ---------------------------------------------------------------------------


def pair_scan_boxes(H):
    """Oracle: every coordinate-disjoint pair of sorted edges e < f whose
    2^d corners are all edges, as ((e_1, f_1), ..., (e_d, f_d)), in scan
    order; each box appears once per such pair."""
    edges = H.sorted_edges()
    out = []
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if any(a == b for a, b in zip(e, f)):
                continue
            if all(
                corner in H.edges
                for corner in itertools.product(*zip(e, f))
            ):
                out.append(tuple(zip(e, f)))
    return out


def brute_force_projective_points(field, dim):
    """Oracle: walk all q^dim vectors in lexicographic order and keep those
    whose first nonzero coordinate is one."""
    out = []
    for v in itertools.product(field.elements(), repeat=dim):
        first = next((c for c in v if c), None)
        if first == field.one:
            out.append(v)
    return out


def brute_force_edges(T):
    """Oracle: the projective zero tuples of T.  Every prefix of d - 1
    points is evaluated by tensor_eval against each unit vector in the last
    slot, and every last point is read off those values by linearity."""
    F = T.field
    points = projective_points(F, T.n)
    units = [[F.one if j == i else 0 for j in range(T.n)] for i in range(T.n)]
    edges = set()
    for head in itertools.product(range(len(points)), repeat=T.d - 1):
        args = [points[i] for i in head]
        columns = [tensor_eval(T, args + [u]) for u in units]
        for i, v in enumerate(points):
            value = [0] * T.m
            for c, column in zip(v, columns):
                for o in range(T.m):
                    value[o] = F.add(value[o], F.mul(c, column[o]))
            if not any(value):
                edges.add(head + (i,))
    return frozenset(edges)


def identity_form(F):
    """x . y on F^3: its hypergraph is the point-line incidence graph of
    the projective plane over F, which has no 4-cycle."""
    return Tensor(F, 3, 2, 1, [int(i == j) for i in range(3) for j in range(3)])


@st.composite
def hypergraphs(draw):
    d = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(0, 4 if d < 4 else 3), min_size=d, max_size=d))
    parts = tuple(tuple((i,) for i in range(s)) for s in sizes)
    if 0 in sizes:
        return Hypergraph(d=d, parts=parts, edges=frozenset())
    edge = st.tuples(*[st.integers(0, s - 1) for s in sizes])
    return Hypergraph(d=d, parts=parts, edges=frozenset(draw(st.sets(edge, max_size=60))))


def test_projective_points_counts():
    for q, dim in [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2)]:
        F = field_make(2, 2) if q == 4 else field_make(q)
        pts = projective_points(F, dim)
        assert len(pts) == (q**dim - 1) // (q - 1)
        assert len(set(pts)) == len(pts)
        for v in pts:
            first = next(c for c in v if c)
            assert first == F.one


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 49])
def test_projective_points_match_the_lexicographic_walk(q):
    F = field_of_order(q)
    for dim in range(0, 4):
        assert projective_points(F, dim) == brute_force_projective_points(F, dim)
        assert list(iter_projective_points(F, dim)) == projective_points(F, dim)


def test_projective_points_cap_charges_the_points():
    for q, dim in [(2, 4), (4, 3), (49, 3)]:
        F = field_of_order(q)
        P = (q**dim - 1) // (q - 1)
        assert len(projective_points(F, dim, cap=P)) == P
        with pytest.raises(CapExceededError):
            projective_points(F, dim, cap=P - 1)


def test_build_zero_tensor_is_complete():
    H = build_hypergraph(Tensor.zero(F2, 2, 2, 1))
    assert len(H.parts[0]) == 3
    assert H.edge_count == 9
    free, witness = freeness_check(H)
    assert not free and witness is not None


def test_build_identity_form_edges():
    # projective pairs with x . y = 0 over F_2^2: exactly 3
    H = build_hypergraph(Tensor(F2, 2, 2, 1, (1, 0, 0, 1)))
    assert H.edge_count == 3
    assert freeness_check(H)[0]


def test_part_sizes():
    T = random_tensor(F2, 4, 2, 1, "hom", seed=3)
    H = build_hypergraph(T)
    assert all(len(part) == 15 for part in H.parts)


def test_edge_lower_bound_values():
    # q=2, d=2, N=4, m=1: (2^7 - 2 * 2^4) / 1 = 96
    T = random_tensor(F2, 4, 2, 1, "hom", seed=3)
    result = edge_lower_bound(T)
    assert result.bound == 96
    assert result.ok
    Z = Tensor.zero(F2, 4, 2, 1)
    full = edge_lower_bound(Z)
    assert full.edge_count == 15**2
    # large m makes the bound negative (vacuous)
    small = edge_lower_bound(Tensor.zero(F2, 2, 2, 3))
    assert small.bound < 0 and small.ok


def test_edge_bound_holds_on_many_random_tensors():
    # the bound follows from the zero-count inequality, so it can never fail
    for seed in range(100):
        T = random_tensor(F2, 4, 2, 1, "hom", seed=60_000 + seed)
        assert edge_lower_bound(T).ok


def test_empty_hypergraph_is_free():
    H = Hypergraph(d=2, parts=((), ()), edges=frozenset())
    assert freeness_check(H) == (True, None)


def test_plane_tuple_bound_and_admissibility():
    assert plane_tuple_bound(F2, 3, 2, 1) == 76
    assert admissible(3, 2, 1)
    assert not admissible(2, 2, 3)
    with pytest.raises(PreconditionError):
        pigeonhole_search(F2, 2, 2, 3)


def test_pigeonhole_search_exhaustive_mode():
    T, info = pigeonhole_search(F2, 3, 2, 1, seed=42)
    assert info["exhaustive"] and info["met"]
    assert info["tuple_count"] <= info["tuple_bound"] == 76
    assert len(isotropic_plane_tuples(T)) == info["tuple_count"]
    # reproducible for a fixed seed
    T2, info2 = pigeonhole_search(F2, 3, 2, 1, seed=42)
    assert T2 == T and info2 == info


def test_pigeonhole_search_sampling_mode():
    T, info = pigeonhole_search(F2, 3, 2, 1, seed=1, tensor_cap=10, max_trials=50)
    assert not info["exhaustive"]
    assert info["tuple_count"] <= 76 and info["met"]


def test_pigeonhole_search_sampling_mode_reports_the_best_trial():
    # seed 53: the first sampled map annihilates 441 plane tuples and the
    # next three 77 each, all above the bound 76, so no trial meets it
    T, info = pigeonhole_search(F2, 3, 2, 1, seed=53, max_trials=4, tensor_cap=1)
    rng = SplitMix64(53)
    exact = [
        count_plane_tuples(Tensor(F2, 4, 2, 1, [rng.below(2) for _ in range(16)]))
        for _ in range(4)
    ]
    assert info["tuple_count"] == min(exact) == count_plane_tuples(T)
    assert not info["met"] and info["trials"] == 4
    with pytest.raises(PreconditionError):
        pigeonhole_search(F2, 3, 2, 1, tensor_cap=1, max_trials=0)


def test_delete_and_verify_zero_tensor():
    Z = Tensor.zero(F2, 2, 2, 1)
    H = build_hypergraph(Z)
    tuples = isotropic_plane_tuples(Z)
    H2, deleted = delete_and_verify(Z, H, tuples)
    assert H2.edge_count == 0
    assert deleted == 9
    assert freeness_check(H2)[0]


def test_delete_and_verify_refuses_a_plane_tuple_the_map_does_not_annihilate():
    # x_0 y_0 vanishes on U x V iff x_0 does on U or y_0 on V; the zero
    # map's plane pairs include one where neither does
    T = Tensor(F2, 3, 2, 1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    H = build_hypergraph(T)
    mine = isotropic_plane_tuples(T)
    other = next(t for t in isotropic_plane_tuples(Tensor.zero(F2, 3, 2, 1)) if t not in mine)
    with pytest.raises(InvariantViolation, match="not annihilated"):
        delete_and_verify(T, H, mine + [other])
    H2, deleted = delete_and_verify(T, H, mine)
    assert deleted > 0 and H2.edge_count == H.edge_count - deleted


def test_pipeline_certificate():
    result = box_pipeline(F2, 3, 2, 1, seed=42)
    cert = result.certificate
    assert cert.tuple_bound == 76 and cert.tuple_bound_ok
    assert cert.edge_bound == Fraction(96) and cert.edge_bound_ok
    assert cert.freeness_verified
    assert cert.edge_count_before - cert.deleted_count == cert.edge_count_after
    assert cert.deleted_count <= 9 * cert.plane_tuple_count  # (q+1)^d budget
    data = cert.to_dict()
    assert data["edge_bound_num"] == "96"
    assert data["freeness_verified"] is True


def test_every_box_spans_an_annihilated_tuple():
    result = box_pipeline(F2, 3, 2, 1, seed=42)
    assert copies_span_annihilated_tuples(result.tensor, result.before, result.tuples)
    # and after deletion the hypergraph carries no boxes at all
    assert box_copies(result.after) == []


def test_hypergraph_serialization_roundtrip():
    H = build_hypergraph(Tensor(F2, 2, 2, 1, (1, 0, 0, 1)))
    again = Hypergraph.from_dict(H.to_dict())
    assert again == H
    text = H.to_text("# 2 1 2 1")
    lines = text.strip().splitlines()
    assert lines[0] == "# 2 1 2 1"
    assert len(lines) == 1 + H.edge_count


def test_hypergraph_text_roundtrip():
    from multilin.boxfree import hypergraph_from_text

    H = build_hypergraph(Tensor(F2, 2, 2, 1, (1, 0, 0, 1)))
    again = hypergraph_from_text(H.to_text("# 2 1 2 1"))
    assert again == H
    for bad in ("0 1\n1 0\n", "# 0 1 2 1\n", "# 2 -5 2 1\n", "# 2 1 2 1\n0 3\n"):
        with pytest.raises(PreconditionError):
            hypergraph_from_text(bad)


def test_pipeline_other_seed_still_verifies():
    result = box_pipeline(F2, 3, 2, 1, seed=7)
    assert result.certificate.freeness_verified
    assert result.certificate.tuple_bound_ok


def test_pipeline_odd_characteristic_sampling():
    # the coefficient space exceeds the exhaustive ceiling, so the search
    # samples; the certificate must still verify everything it reports
    assert plane_tuple_bound(F3, 3, 2, 1) == 208
    result = box_pipeline(F3, 3, 2, 1, seed=11, max_trials=64)
    cert = result.certificate
    assert not cert.search_exhaustive
    assert cert.tuple_bound_ok and cert.plane_tuple_count <= 208
    assert cert.edge_bound_ok and cert.freeness_verified
    assert len(result.before.parts[0]) == 40  # (3^4 - 1) / 2


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_link_scan_matches_pair_scan_oracle(H):
    witnesses = pair_scan_boxes(H)
    assert freeness_check(H) == (
        (False, witnesses[0]) if witnesses else (True, None)
    )
    # each box once, pairs sorted, in the order the pair scan first meets it
    first_seen = list(dict.fromkeys(
        tuple(tuple(sorted(pair)) for pair in w) for w in witnesses
    ))
    assert box_copies(H) == first_seen


def test_box_copies_lists_each_box_once():
    # C(3, 2)^d boxes in the complete hypergraph on 3 points per part
    for d, count in [(2, 9), (3, 27)]:
        boxes = box_copies(build_hypergraph(Tensor.zero(F2, 2, d, 1)))
        assert len(boxes) == len(set(boxes)) == count
        assert all(x < y for box in boxes for x, y in box)


def test_box_copies_cap_counts_listed_boxes():
    H = build_hypergraph(Tensor.zero(F2, 2, 2, 1))
    # 9 edges, 9 pairs sharing a tail, 9 boxes
    assert len(box_copies(H, cap=27)) == 9
    with pytest.raises(CapExceededError):
        box_copies(H, cap=26)
    assert not freeness_check(H, cap=18)[0]
    with pytest.raises(CapExceededError):
        freeness_check(H, cap=17)


@pytest.mark.parametrize("q, N, d, m", [
    (3, 3, 2, 1), (3, 3, 3, 1), (5, 3, 2, 2),  # prime fields
    (4, 3, 2, 1), (9, 2, 3, 1),  # extension fields
    (3, 4, 3, 1), (4, 3, 3, 2), (2, 3, 4, 2),  # blocks with m >= 2
])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_build_matches_brute_force_evaluation(q, N, d, m, data, eliminating):
    # every shape here reads its leaves off zero-set masks at the default
    # cap; the eliminating walk is checked too
    F = field_of_order(q)
    coeffs = data.draw(
        st.lists(st.integers(0, q - 1), min_size=m * N**d, max_size=m * N**d)
    )
    T = Tensor(F, N, d, m, coeffs)
    edges = brute_force_edges(T)
    assert build_hypergraph(T).edges == edges
    with eliminating():
        assert build_hypergraph(T).edges == edges


@pytest.mark.parametrize("d, m", [(d, m) for d in (2, 3, 4) for m in (1, 2, 3)])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_build_over_f2_matches_brute_force_evaluation(d, m, data):
    # the packed leaf: zeros often, so kernels are large and prefixes vanish
    N = 3
    bits = st.sampled_from((0, 0, 0, 1))
    coeffs = data.draw(st.lists(bits, min_size=m * N**d, max_size=m * N**d))
    T = Tensor(field_of_order(2), N, d, m, coeffs)
    assert build_hypergraph(T).edges == brute_force_edges(T)


@pytest.mark.parametrize("q, m", [(2, 1), (3, 2), (4, 1)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_build_matches_brute_force_on_maps_vanishing_after_the_first_slot(q, m, data):
    # T(x, y, z) = l(x) B(y, z): T vanishes on every first point x with
    # l(x) = 0, so the walk stops there and the build takes every tail
    F = field_of_order(q)
    N = 3
    elems = st.integers(0, q - 1)
    l = data.draw(st.lists(elems, min_size=N, max_size=N))
    B = data.draw(st.lists(elems, min_size=m * N * N, max_size=m * N * N))
    coeffs = [
        F.mul(l[i], B[o * N * N + r])
        for o in range(m)
        for i in range(N)
        for r in range(N * N)
    ]
    T = Tensor(F, N, 3, m, coeffs)
    assert build_hypergraph(T).edges == brute_force_edges(T)


@pytest.mark.parametrize("m", [1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_f2_build_and_plane_tuples_match_direct_evaluation_on_f2_5(m, data):
    # the packed leaf on F_2^5, d = 2: kernels of dimension up to four, and
    # each plane pair kept iff T vanishes on every pair of basis rows (RREF
    # rows are projective points, so the zero point pairs decide it)
    N, d = 5, 2
    bits = st.sampled_from((0, 0, 0, 1))
    coeffs = data.draw(st.lists(bits, min_size=m * N**d, max_size=m * N**d))
    T = Tensor(F2, N, d, m, coeffs)
    edges = brute_force_edges(T)
    assert build_hypergraph(T).edges == edges
    points = projective_points(F2, N)
    zeros = {(points[i], points[j]) for i, j in edges}
    planes = list(enumerate_grassmannian(F2, N, 2))
    brute = [
        (U.rows, V.rows)
        for U, V in itertools.product(planes, repeat=2)
        if all(pair in zeros for pair in itertools.product(U.rows, V.rows))
    ]
    assert [(U.rows, V.rows) for U, V in isotropic_plane_tuples(T)] == sorted(brute)


@settings(max_examples=3, deadline=None)
@given(coeffs=st.lists(st.integers(0, 288), min_size=4, max_size=4))
def test_build_matches_brute_force_on_log_field(coeffs):
    T = Tensor(field_of_order(289), 2, 2, 1, coeffs)
    assert build_hypergraph(T).edges == brute_force_edges(T)


@pytest.mark.parametrize("q", [11, 13, 49])
def test_projective_plane_verifies_under_default_cap(q):
    H = build_hypergraph(identity_form(field_of_order(q)))
    assert H.edge_count == (q * q + q + 1) * (q + 1)
    assert freeness_check(H, DEFAULT_CAP) == (True, None)


def test_hypergraph_from_dict_rejects_bad_edges():
    parts = [[[1, 0], [0, 1], [1, 1]]] * 2
    good = {"d": 2, "parts": parts, "edges": [[0, 1], [2, 2]]}
    assert Hypergraph.from_dict(good).edge_count == 2
    for bad in (
        {"d": 2, "parts": parts, "edges": [[0, 7], [9, 1], [0, 1]]},  # out of part
        {"d": 2, "parts": parts, "edges": [[0, -1]]},
        {"d": 2, "parts": parts, "edges": [[0, 1, 2]]},  # arity 3
        {"d": 2, "parts": parts, "edges": [[0, True]]},
        {"d": 3, "parts": parts, "edges": []},  # 2 parts for d = 3
        {"d": 0, "parts": [], "edges": []},
        {"d": 2, "parts": parts},
        {"d": 2, "parts": parts, "edges": [5]},
        [],
    ):
        with pytest.raises(PreconditionError):
            Hypergraph.from_dict(bad)
