import hashlib
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilin import grassmann, isotropy
from multilin.boxfree import build_hypergraph
from multilin.errors import DEFAULT_CAP, CapExceededError
from multilin.field import field_make, field_of_order
from multilin.formulas import alpha_alt_closed, alpha_bound
from multilin.grassmann import (
    Subspace,
    alt_incidence_dim,
    enumerate_grassmannian,
    gauss_binom,
    projective_points,
    rank,
)
from multilin.isotropy import (
    alpha_alt,
    alpha_alt_by_scan,
    alpha_field_alt,
    HomIsotropyResult,
    alpha_hom,
    count_alt_incidence,
    count_alt_incidence_raw,
    count_hom_incidence,
    count_hom_incidence_raw,
    count_plane_tuples,
    isotropic_plane_tuples,
)
from multilin.prng import SplitMix64
from multilin.rank import zero_count
from multilin.tensor import (
    AltTensor,
    Tensor,
    alt_restricts_zero,
    alt_wedge_rows,
    base_change,
    random_tensor,
    restrict_zero,
    tensor_eval,
)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)

# nondegenerate symplectic form e1^e2 + e3^e4 on F_2^4: increasing pairs
# (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
SYMPLECTIC = AltTensor(F2, 4, 2, 1, (1, 0, 0, 0, 0, 1))


def test_alpha_alt_zero_tensor():
    result = alpha_alt(AltTensor.zero(F3, 3, 2, 1))
    assert result.index == 3 and result.exhausted
    assert result.witness[0].k == 3


def test_alpha_alt_symplectic():
    result = alpha_alt(SYMPLECTIC)
    assert result.index == 2
    assert alt_restricts_zero(SYMPLECTIC, result.witness[0])


def test_alpha_alt_matches_scan_oracle_on_all_64():
    values = {}
    for bits in range(64):
        coeffs = tuple((bits >> i) & 1 for i in range(6))
        T = AltTensor(F2, 4, 2, 1, coeffs)
        dfs = alpha_alt(T)
        scan = alpha_alt_by_scan(T)
        assert dfs.index == scan.index
        assert alt_restricts_zero(T, dfs.witness[0])
        values[dfs.index] = values.get(dfs.index, 0) + 1
    # zero map gives 4; the 28 nondegenerate forms give 2; the rest 3
    assert values == {4: 1, 3: 35, 2: 28}


def test_alpha_alt_floor_on_random_samples():
    cnt = 0
    for q, n, d, m in itertools.product((2, 3), (2, 4, 5), (2, 3, 4), (1, 2)):
        F = field_make(q)
        for s in range(2):
            T = random_tensor(F, n, d, m, "alt", seed=31_000 + cnt)
            cnt += 1
            result = alpha_alt(T)
            assert result.exhausted
            assert result.index >= min(d - 1, n)


def test_alpha_alt_extension_monotone():
    for seed in range(20):
        T = random_tensor(F2, 4, 2, 1, "alt", seed=77_000 + seed)
        assert alpha_alt(T).index <= alpha_alt(base_change(T, F4)).index


def test_alpha_alt_extension_monotone_cubic():
    F8 = field_make(2, 3)
    for seed in range(5):
        T = random_tensor(F2, 4, 2, 1, "alt", seed=78_000 + seed)
        assert alpha_alt(T).index <= alpha_alt(base_change(T, F8)).index


def test_alpha_alt_matches_scan_oracle_smaller_spaces():
    # exhaustive over every alternating bilinear map on F_2^2 and F_2^3
    for n in (2, 3):
        ncoef = n * (n - 1) // 2
        for bits in range(2**ncoef):
            coeffs = tuple((bits >> i) & 1 for i in range(ncoef))
            T = AltTensor(F2, n, 2, 1, coeffs)
            assert alpha_alt(T).index == alpha_alt_by_scan(T).index


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_alpha_alt_matches_scan_oracle_at_order_three(q):
    # random maps and sparse ones (a single nonzero coefficient per output),
    # whose high index makes the DFS grow flags past the frontier
    F = field_of_order(q)
    for n, m, seed in itertools.product((3, 4, 5), (1, 2), (0, 1)):
        T = random_tensor(F, n, 3, m, "alt", seed=4_000 + 100 * q + 10 * n + 2 * m + seed)
        sparse = AltTensor(
            F, n, 3, m,
            [c if i % comb(n, 3) == seed else 0 for i, c in enumerate(T.coeffs)],
        )
        for S in (T, sparse):
            dfs = alpha_alt(S)
            assert dfs.exhausted
            assert dfs.index == alpha_alt_by_scan(S).index
            assert dfs.witness[0].k == dfs.index
            assert alt_restricts_zero(S, dfs.witness[0])


# (q, n, d, m, seed, cap) -> (index, exhausted, witness rows): the DFS visit
# order fixes which isotropic subspace is reported first, and with it the
# CLI documents, so these are pinned, capped searches included.
WITNESS_PINS = {
    (2, 6, 3, 1, 1, DEFAULT_CAP): (4, True, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (3, 5, 3, 2, 2, DEFAULT_CAP): (3, True, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 2, 2))),
    (4, 5, 3, 2, 3, DEFAULT_CAP): (3, True, (
        (2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (8, 4, 3, 1, 7, DEFAULT_CAP): (3, True, (
        (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 7))),
    (9, 4, 2, 1, 5, DEFAULT_CAP): (3, True, (
        (3, 0, 0, 0), (0, 3, 0, 1), (0, 0, 3, 3))),
    (7, 4, 2, 1, 2, DEFAULT_CAP): (2, True, ((1, 0, 0, 0), (0, 1, 0, 2))),
    (3, 5, 3, 2, 3, 40): (3, False, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (2, 6, 3, 1, 8, 25): (4, False, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    # the top-down certificate finds an isotropic subspace before the DFS
    # does; the DFS's own first witness must still be the one reported
    (2, 6, 3, 2, 5, DEFAULT_CAP): (4, True, (
        (1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 1))),
    (2, 6, 4, 1, 2, DEFAULT_CAP): (5, True, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0), (0, 0, 0, 1, 1, 0),
        (0, 0, 0, 0, 0, 1))),
    (5, 4, 3, 2, 0, DEFAULT_CAP): (3, True, ((1, 0, 0, 0), (0, 1, 2, 0), (0, 0, 0, 1))),
    (5, 4, 3, 2, 8, DEFAULT_CAP): (3, True, ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))),
}


# the same keys -> subspaces visited, the cap's unit: a capped search ends at cap + 1
VISIT_PINS = {
    (2, 6, 3, 1, 1, DEFAULT_CAP): 72,
    (2, 6, 3, 1, 8, 25): 26,
    (2, 6, 3, 2, 5, DEFAULT_CAP): 469,
    (2, 6, 4, 1, 2, DEFAULT_CAP): 25,
    (3, 5, 3, 2, 2, DEFAULT_CAP): 123,
    (3, 5, 3, 2, 3, 40): 41,
    (4, 5, 3, 2, 3, DEFAULT_CAP): 343,
    (5, 4, 3, 2, 0, DEFAULT_CAP): 66,
    (5, 4, 3, 2, 8, DEFAULT_CAP): 109,
    (7, 4, 2, 1, 2, DEFAULT_CAP): 409,
    (8, 4, 3, 1, 7, DEFAULT_CAP): 2,
    (9, 4, 2, 1, 5, DEFAULT_CAP): 3,
}


@pytest.mark.parametrize("key", sorted(WITNESS_PINS))
def test_alpha_alt_witness_pins(key):
    q, n, d, m, seed, cap = key
    T = random_tensor(field_of_order(q), n, d, m, "alt", seed=seed)
    result = alpha_alt(T, cap)
    assert (result.index, result.exhausted, result.witness[0].rows) == WITNESS_PINS[key]
    assert result.visits == VISIT_PINS[key]


def test_alpha_alt_cap_reports_not_exhausted():
    T = random_tensor(F3, 5, 2, 1, "alt", seed=5)
    result = alpha_alt(T, cap=3)
    assert not result.exhausted
    assert result.index >= 1  # best found so far is still a valid bound
    assert alt_restricts_zero(T, result.witness[0])


def _certificate_spy(monkeypatch):
    """Count the top-down certificates that decided the index (no isotropic
    subspace one dimension up, budget not spent)."""
    decided = []
    certify = isotropy._AltSearch.certify

    def spy(search):
        done = certify(search)
        if done and search.exhausted and search.best_k < search.upper:
            decided.append((search.n, search.d, search.best_k))
        return done

    monkeypatch.setattr(isotropy._AltSearch, "certify", spy)
    return decided


# d -> shapes (n, m) whose maps mostly have an index k with Gr(k+1, n) no
# larger than the frontier Gr(d-1, n), so the certificate decides them;
# (4, 3, 1) maps have index n - 1, so there the certificate finds a hit
CERTIFIED_SHAPES = {2: [(4, 1)], 3: [(4, 1), (5, 2)], 4: [(5, 5)]}


@pytest.mark.parametrize("d", sorted(CERTIFIED_SHAPES))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_alpha_alt_with_certificate_matches_scan_oracle(monkeypatch, q, d):
    decided = _certificate_spy(monkeypatch)
    F = field_of_order(q)
    for n, m in CERTIFIED_SHAPES[d]:
        for seed in range(1 if q**n > 10_000 else 3):  # the oracle scans Gr(n-1, n)
            T = random_tensor(F, n, d, m, "alt", seed=9_000 + 100 * q + 10 * n + seed)
            result = alpha_alt(T)
            assert result.exhausted
            assert result.index == alpha_alt_by_scan(T).index
            assert result.witness[0].k == result.index
            assert alt_restricts_zero(T, result.witness[0])
    assert decided  # the certificate ran, and settled at least one map


def test_certificate_cut_by_the_cap_keeps_the_dfs_witness(monkeypatch):
    decided = _certificate_spy(monkeypatch)
    T = random_tensor(F3, 5, 3, 2, "alt", seed=3)
    full = alpha_alt(T)
    assert decided and full.exhausted
    # the decisive certificate charges all 121 hyperplanes, and is the last
    # work: a cap anywhere in that block cuts it, one visit past the cap
    block = gauss_binom(5, 4, 3)
    assert full.visits > block
    for cap in range(full.visits - block, full.visits):
        cut = alpha_alt(T, cap)
        assert (cut.exhausted, cut.visits) == (False, cap + 1)
        assert (cut.index, cut.witness) == (full.index, full.witness)
    assert alt_restricts_zero(T, full.witness[0])


def _first_isotropic_by_loop(T, k):
    """The per-subspace oracle of the certificate's scan: the first
    isotropic k-subspace's rows and 1-based position in the enumeration,
    or None and the Grassmannian's size."""
    pos = 0
    for pos, U in enumerate(enumerate_grassmannian(T.field, T.n, k), 1):
        if alt_restricts_zero(T, U):
            return U.rows, pos
    return None, pos


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_certificate_scan_matches_the_per_subspace_loop(data):
    # random and sparse maps; every k whose Grassmannian the certificate may
    # scan, under a cap drawn past the oracle's visits or inside them
    q = data.draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    d = data.draw(st.sampled_from((2, 3, 4)))
    n = data.draw(st.integers(d, 5 if q <= 3 else 4))
    m = data.draw(st.sampled_from((1, 2)))
    F = field_of_order(q)
    size = m * comb(n, d)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    if data.draw(st.booleans(), label="sparse"):
        keep = data.draw(st.sets(st.integers(0, size - 1), max_size=2))
        coeffs = [c if i in keep else 0 for i, c in enumerate(coeffs)]
    T = AltTensor(F, n, d, m, coeffs)
    for k in range(n + 1):
        if gauss_binom(n, k, q) > gauss_binom(n, d - 1, q):
            continue
        rows, pos = _first_isotropic_by_loop(T, k)
        cap = data.draw(st.integers(0, pos + 1), label="cap")
        search = isotropy._AltSearch(T, cap)
        got = search.first_isotropic(k)
        if pos <= cap:
            assert (got, search.visits, search.exhausted) == (rows, pos, True)
        else:
            assert (got, search.visits, search.exhausted) == (None, cap + 1, False)


# (q, n, d, m, seed, cap) -> (index, exhausted, visits, witness rows).  The
# frontier, the DFS and the certificate share one visit budget, so each cap
# is chosen to cut the search in one place: a frontier subspace, a DFS
# subtree, a certificate row charged with all its completions at once, or
# the certificate's hit.
WALK_PINS = {
    (2, 5, 3, 1, 1, DEFAULT_CAP): (4, True, 353, (
        (1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
    (2, 5, 3, 1, 1, 194): (3, False, 195, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0))),
    (2, 5, 3, 1, 1, 192): (3, False, 193, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0))),
    (2, 5, 3, 1, 1, 17): (3, False, 18, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0))),
    (2, 5, 3, 1, 1, 33): (3, False, 34, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0))),
    (2, 6, 3, 2, 0, 491): (3, False, 492, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0))),
    (2, 6, 3, 2, 0, 285): (3, False, 286, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0))),
    (2, 6, 3, 2, 0, 634): (4, False, 635, (
        (1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 1))),
    (2, 6, 4, 1, 1, 569): (4, False, 570, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0))),
    (2, 6, 4, 1, 1, 567): (4, False, 568, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0))),
    (2, 6, 4, 1, 1, 21): (4, False, 22, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0))),
    (2, 5, 2, 2, 0, 12): (2, False, 13, ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0))),
    (2, 5, 2, 2, 0, 14): (2, False, 15, ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0))),
    (2, 5, 2, 2, 0, 39): (3, False, 40, ((1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1))),
    (3, 5, 3, 1, 0, DEFAULT_CAP): (4, True, 525, (
        (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 2, 0), (0, 0, 0, 0, 1))),
    (3, 5, 3, 1, 0, 311): (3, False, 312, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 3, 1, 0, 312): (3, False, 313, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 3, 1, 0, 46): (3, False, 47, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 3, 1, 0, 100): (3, False, 101, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 2, 1, 1, 10): (3, False, 11, ((1, 0, 0, 0, 0), (0, 1, 0, 2, 0), (0, 0, 1, 1, 2))),
    (3, 5, 2, 1, 1, 87): (3, False, 88, ((1, 0, 0, 0, 0), (0, 1, 0, 2, 0), (0, 0, 1, 1, 2))),
    (4, 4, 2, 1, 0, 44): (2, False, 45, ((2, 0, 0, 0), (0, 2, 0, 2))),
    (4, 4, 2, 1, 0, 90): (2, False, 91, ((2, 0, 0, 0), (0, 2, 0, 2))),
    (5, 4, 3, 2, 0, 60): (2, False, 61, ((1, 0, 0, 0), (0, 1, 0, 0))),
    (2, 6, 2, 2, 0, DEFAULT_CAP): (3, True, 550, (
        (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 0))),
    (2, 6, 2, 2, 0, 273): (3, False, 274, (
        (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 0))),
}


@pytest.mark.parametrize("key", sorted(WALK_PINS))
def test_alpha_alt_walk_pins(key):
    q, n, d, m, seed, cap = key
    T = random_tensor(field_of_order(q), n, d, m, "alt", seed=seed)
    result = alpha_alt(T, cap)
    got = (result.index, result.exhausted, result.visits, result.witness[0].rows)
    assert got == WALK_PINS[key]


def _capped_runs():
    """(index, exhausted, visits, witness rows) of alpha_alt on seeded maps,
    uncapped and under caps spread over each search's visits.  The last two
    shapes charge failing certificate row prefixes with all their
    completions (the later rows' choice counts), and their caps fall on
    and inside those charges."""
    lines = []
    for q, n, d, m, seeds, steps in [
        (2, 5, 3, 1, (0, 1, 2), 12), (2, 6, 3, 1, (0, 1, 2), 12), (2, 6, 4, 1, (0, 1, 2), 12),
        (3, 5, 3, 1, (0, 1, 2), 12), (3, 5, 2, 1, (0, 1, 2), 12), (4, 4, 2, 1, (0, 1, 2), 12),
        (3, 4, 3, 2, (0, 1, 2), 12), (2, 5, 2, 2, (0, 1, 2), 12),
        (2, 6, 3, 2, (0, 2), 40), (2, 7, 4, 1, (1, 2), 40),
    ]:
        for seed in seeds:
            T = random_tensor(field_of_order(q), n, d, m, "alt", seed=seed)
            visits = alpha_alt(T).visits
            for cap in sorted({DEFAULT_CAP, *range(1, visits + 2, max(1, visits // steps))}):
                r = alpha_alt(T, cap)
                lines.append(f"{q} {n} {d} {m} {seed} {cap}: "
                             f"{r.index} {r.exhausted} {r.visits} {r.witness[0].rows}")
    return lines


def test_alpha_alt_capped_runs_are_pinned():
    # recorded when each failing row prefix was charged q^(its free entries after it)
    lines = _capped_runs()
    assert len(lines) == 482
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0523f6fc23a66beb35bf99ee933beec7d709a78ba942c0873ba2fd6a6cf2fe71"


def _walked_dimensions(monkeypatch):
    """The dimensions k whose Gr(k, n) the row-prefix walk is asked for."""
    walked = []
    isotropic = isotropy._AltSearch.isotropic
    monkeypatch.setattr(
        isotropy._AltSearch, "isotropic", lambda s, k: walked.append(k) or isotropic(s, k)
    )
    return walked


# (q, n, d, m, seed, cap) -> (index, exhausted, visits, witness rows),
# recorded while hyperplanes were still scanned.  Each map has index n - 2
# and no isotropic hyperplane, so the search ends on one charge of all of
# Gr(n - 1, n): the caps fall before it, at its first step, inside it, one
# short of its end, at its end and past it.
HYPERPLANE_PINS = {
    (2, 6, 3, 1, 1, DEFAULT_CAP): (4, True, 72, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 8): (4, False, 9, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 9): (4, False, 10, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 41): (4, False, 42, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 71): (4, False, 72, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 72): (4, True, 72, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (2, 6, 3, 1, 1, 73): (4, True, 72, (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))),
    (3, 5, 3, 2, 3, DEFAULT_CAP): (3, True, 123, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (3, 5, 3, 2, 3, 1): (2, False, 2, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
    (3, 5, 3, 2, 3, 2): (3, False, 3, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (3, 5, 3, 2, 3, 63): (3, False, 64, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (3, 5, 3, 2, 3, 122): (3, False, 123, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (3, 5, 3, 2, 3, 123): (3, True, 123, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (3, 5, 3, 2, 3, 124): (3, True, 123, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))),
    (4, 5, 3, 2, 3, DEFAULT_CAP): (3, True, 343, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (4, 5, 3, 2, 3, 1): (2, False, 2, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0))),
    (4, 5, 3, 2, 3, 2): (3, False, 3, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (4, 5, 3, 2, 3, 173): (3, False, 174, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (4, 5, 3, 2, 3, 342): (3, False, 343, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (4, 5, 3, 2, 3, 343): (3, True, 343, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
    (4, 5, 3, 2, 3, 344): (3, True, 343, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 2))),
}


@pytest.mark.parametrize("key", sorted(HYPERPLANE_PINS))
def test_hyperplane_certificate_pins(monkeypatch, key):
    q, n, d, m, seed, cap = key
    T = random_tensor(field_of_order(q), n, d, m, "alt", seed=seed)
    assert rank(T.field, alt_wedge_rows(T)) == n  # no phi with phi ^ T = 0
    walked = _walked_dimensions(monkeypatch)
    result = alpha_alt(T, cap)
    got = (result.index, result.exhausted, result.visits, result.witness[0].rows)
    assert got == HYPERPLANE_PINS[key]
    assert n - 1 not in walked  # decided by the rank, not by the scan


# (q, n, d, m, coefficients, cap) -> as above, recorded the same way: each
# map has an isotropic hyperplane, placed in the enumeration after a
# frontier subtree stopped at n - 2, and the DFS goes on to its own first
# witness; the caps fall inside the charge up to that place, one short of
# the whole search and at it
ISOTROPIC_HYPERPLANE_PINS = {
    (2, 5, 3, 1, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0), DEFAULT_CAP): (4, True, 518, (
        (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
    (2, 5, 3, 1, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 259): (3, False, 260, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (2, 5, 3, 1, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 517): (3, False, 518, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (2, 5, 3, 1, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 518): (4, True, 518, (
        (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
    (3, 5, 3, 2, (0, 0, 1, 1, 0, 0, 0, 0, 0, 2) + (0,) * 10, DEFAULT_CAP): (4, True, 166, (
        (1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))),
    (3, 5, 3, 2, (0, 0, 1, 1, 0, 0, 0, 0, 0, 2) + (0,) * 10, 83): (3, False, 84, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 3, 2, (0, 0, 1, 1, 0, 0, 0, 0, 0, 2) + (0,) * 10, 165): (3, False, 166, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))),
    (3, 5, 3, 2, (0, 0, 1, 1, 0, 0, 0, 0, 0, 2) + (0,) * 10, 166): (4, True, 166, (
        (1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))),
}


@pytest.mark.parametrize(
    "key", list(ISOTROPIC_HYPERPLANE_PINS), ids=range(len(ISOTROPIC_HYPERPLANE_PINS))
)
def test_isotropic_hyperplane_pins(monkeypatch, key):
    q, n, d, m, coeffs, cap = key
    T = AltTensor(field_of_order(q), n, d, m, coeffs)
    assert rank(T.field, alt_wedge_rows(T)) < n  # some hyperplane is isotropic
    walked = _walked_dimensions(monkeypatch)
    result = alpha_alt(T, cap)
    got = (result.index, result.exhausted, result.visits, result.witness[0].rows)
    assert got == ISOTROPIC_HYPERPLANE_PINS[key]
    assert n - 1 not in walked  # the first hit is read off the null space


@pytest.mark.parametrize("q, n, d, m", [
    (2, 5, 3, 1), (3, 4, 3, 2), (4, 4, 2, 1), (2, 6, 4, 1), (5, 3, 3, 1), (3, 3, 1, 1),
])
def test_frontier_walk_is_the_grassmannian_in_order(q, n, d, m):
    # at k = d - 1 no row prefix has a (d-1)-subset, so the walk prunes and
    # charges nothing: it is Gr(d-1, n) in enumeration order, each subspace
    # with the contractions that extending its rows one by one builds
    T = random_tensor(field_of_order(q), n, d, m, "alt", seed=7)
    search = isotropy._AltSearch(T, DEFAULT_CAP)
    walked = list(search.isotropic(d - 1))
    subs = list(enumerate_grassmannian(T.field, n, d - 1))
    assert [(rows, pivots) for rows, pivots, _ in walked] == [(W.rows, W.pivots) for W in subs]
    assert search.visits == 0
    for (_, _, partial), W in zip(walked, subs):
        expected = {(): T.coeffs}
        for i in range(d - 1):
            expected = search.extend_partial(expected, W.rows[:i], W.rows[i])
        assert partial == expected


def test_certificate_keeps_visits_below_the_frontier():
    # (3,6,3,1) seed 1 has index 4, and the certificate rules out the
    # 364 hyperplanes; without it the DFS walks all 11,011 frontier planes
    T = random_tensor(F3, 6, 3, 1, "alt", seed=1)
    result = alpha_alt(T)
    assert result.index == 4 and result.exhausted
    assert result.visits < gauss_binom(6, 2, 3) == 11_011
    assert "visits" not in result.to_dict()


def test_alpha_field_alt_exhaustive_values():
    # every nonzero alternating bilinear form on F_2^3 has a radical line,
    # so every form has an isotropic plane: the minimum is 2
    result = alpha_field_alt(F2, 3, 2, 1)
    assert result.value == 2 and result.exhaustive
    # F_2^4: the nondegenerate symplectic forms floor the minimum at 2,
    # below the dimension-count bound alpha_bound(4,2,1) = 3
    result = alpha_field_alt(F2, 4, 2, 1)
    assert result.value == 2 and result.exhaustive
    assert result.value <= alpha_bound(4, 2, 1)


# (value, tensors_scanned, searched, certified), recorded before the scan
# drew only the maps led by encoded 1: (3, 2, 3) breaks at the floor early,
# and at (n, d) = (2, 3) the zero map is the only one
@pytest.mark.parametrize("q, n, d, m, expected", [
    (2, 4, 2, 1, (2, 64, 6, 57)),
    (3, 4, 3, 1, (3, 81, 4, 36)),
    (5, 3, 2, 1, (2, 125, 6, 25)),
    (2, 3, 2, 1, (2, 8, 3, 4)),
    (2, 3, 2, 3, (1, 85, 8, 76)),
    (3, 3, 2, 3, (1, 820, 14, 441)),
    (2, 2, 3, 1, (2, 1, 0, 0)),
    (3, 2, 3, 2, (2, 1, 0, 0)),
])
def test_alpha_field_alt_pins(q, n, d, m, expected):
    result = alpha_field_alt(field_of_order(q), n, d, m)
    assert result.exhaustive
    assert (result.value, result.tensors_scanned, result.searched, result.certified) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_alpha_field_alt_codimension_one_minimum_is_quick(deadline, q):
    # each (9,8,1) search contracts the 9 coefficients of one map, not the
    # 9^8 entries of its dense expansion
    result = alpha_field_alt(field_of_order(q), 9, 8, 1)
    assert result.exhaustive
    assert result.value == 8 == alpha_alt_closed(9, 8, 1, char_zero=True).value


def _field_min_by_scan(F, n, d, m):
    """The exhaustive minimum as a plain loop over every map in product
    order, each index from the scan oracle: (minimum, maps scanned)."""
    floor_value = min(d - 1, n)
    best, scanned = n, 0
    for coeffs in itertools.product(F.elements(), repeat=m * comb(n, d)):
        scanned += 1
        best = min(best, alpha_alt_by_scan(AltTensor(F, n, d, m, coeffs)).index)
        if best <= floor_value:
            break
    return best, scanned


@pytest.mark.parametrize("q, n, d, m", [
    (4, 3, 2, 3),  # the floor break falls at map 4,369
    (4, 2, 2, 1),
    (8, 2, 2, 1),
    (9, 2, 2, 1),
])
def test_alpha_field_alt_matches_the_scan_loop(monkeypatch, q, n, d, m):
    # in these extension fields the element encoded 1 is not field.one, and
    # the scan searches only maps whose leading coefficient is encoded 1
    F = field_of_order(q)
    assert F.one != 1
    searched = []
    run = isotropy._AltSearch.run
    monkeypatch.setattr(isotropy._AltSearch, "run", lambda s: searched.append(1) or run(s))
    result = alpha_field_alt(F, n, d, m)
    assert result.exhaustive
    assert (result.value, result.tensors_scanned) == _field_min_by_scan(F, n, d, m)
    maps = itertools.product(F.elements(), repeat=m * comb(n, d))
    scanned = itertools.islice(maps, result.tensors_scanned)
    assert len(searched) == result.searched
    assert result.searched + result.certified == sum(
        next((c for c in cs if c), 0) == 1 for cs in scanned
    )


@pytest.mark.parametrize("q, n, d, m, samples, seed, expected", [
    (7, 4, 3, 1, None, 0, (3, 2401)),
    (2, 5, 3, 1, None, 0, (4, 1024)),
    (4, 3, 2, 3, None, 0, (1, 4369)),
    (2, 6, 2, 1, None, 0, (3, 32768)),
    (2, 6, 3, 1, 300, 1, (4, 300)),
    (3, 5, 3, 1, 200, 2, (4, 200)),
    (5, 4, 2, 2, 200, 3, (2, 200)),
    (4, 4, 2, 1, 300, 4, (2, 300)),
])
def test_alpha_field_alt_minima_with_kept_witnesses(q, n, d, m, samples, seed, expected):
    # the values the scan gave before it kept witnesses; in each run a kept
    # witness decides some map, which is then not searched
    result = alpha_field_alt(field_of_order(q), n, d, m, samples=samples, seed=seed)
    assert result.exhaustive == (samples is None)
    assert (result.value, result.tensors_scanned) == expected
    assert result.certified > 0
    assert "searched" not in result.to_dict() and "certified" not in result.to_dict()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_witness_vanishing_test_matches_alt_restricts_zero(data):
    # the pool's test reads each witness's minors, computed once, off the
    # coefficient tuple; zero-heavy maps and witnesses near dimension d
    # make both answers common
    F = data.draw(st.sampled_from([F2, F3, F4, field_make(7)]))
    n = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(1, min(n, 4)))
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(max(d - 1, 0), n))
    elem = st.one_of(st.just(0), st.integers(0, F.q - 1))
    coeffs = tuple(data.draw(st.lists(elem, min_size=m * comb(n, d), max_size=m * comb(n, d))))
    drawn = [tuple(data.draw(st.lists(elem, min_size=n, max_size=n))) for _ in range(k)]
    rows = Subspace.span(F, n, drawn).rows
    T = AltTensor(F, n, d, m, coeffs)
    assert isotropy._vanishing_test(F, n, d, m, rows)(coeffs) == alt_restricts_zero(T, rows)


def test_alpha_field_alt_trivial_when_d_exceeds_n():
    result = alpha_field_alt(F2, 2, 3, 1)
    assert result.value == 2 and result.exhaustive


def test_field_min_inequality_chain():
    # finite-field minimum <= dimension-count bound (the closure value for
    # m >= 2), and the minimum never drops under a quadratic extension;
    # whether the extension reaches the closure value is reported by the
    # numbers themselves, never asserted for a fixed small r
    n, d, m = 3, 2, 2
    base = alpha_field_alt(F2, n, d, m)
    bound = alpha_bound(n, d, m)
    assert base.exhaustive
    assert base.value <= bound
    from math import comb
    import itertools as it

    ncoef = m * comb(n, d)
    ext_min = min(
        alpha_alt(base_change(AltTensor(F2, n, d, m, coeffs), F4)).index
        for coeffs in it.product(range(2), repeat=ncoef)
    )
    assert base.value <= ext_min <= n


def test_alpha_field_alt_sampling_mode_is_upper_bound():
    exact = alpha_field_alt(F2, 3, 2, 1)
    sampled = alpha_field_alt(F2, 3, 2, 1, samples=10, seed=4)
    assert not sampled.exhaustive
    assert sampled.value >= exact.value


def test_alpha_hom_zero_tensor():
    result = alpha_hom(Tensor.zero(F2, 3, 2, 1), 2)
    assert result.found and result.exhausted
    assert all(V.k == 2 for V in result.witness)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_alpha_hom_at_k_zero_is_the_zero_tuple(d):
    # Gr(0, n) is the zero subspace alone, on which every map vanishes
    for q in (2, 3):
        F = field_of_order(q)
        for n in range(4):
            zero = Subspace.zero(F, n)
            for T in (Tensor.zero(F, n, d, 2), random_tensor(F, n, d, 2, seed=n)):
                result = alpha_hom(T, 0)
                assert (result.found, result.exhausted) == (True, True)
                assert result.witness == (zero,) * d


def test_alpha_hom_identity_form_has_no_plane_pair():
    identity = Tensor(F2, 3, 2, 1, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    result = alpha_hom(identity, 2)
    assert not result.found and result.exhausted


def test_alpha_hom_witness_verified():
    T = random_tensor(F2, 4, 2, 2, "hom", seed=12)
    result = alpha_hom(T, 1)
    if result.found:
        assert restrict_zero(T, result.witness)


def _brute_tuples(T, k):
    subs = list(enumerate_grassmannian(T.field, T.n, k))
    return sorted(
        tuple(V.rows for V in tup)
        for tup in itertools.product(subs, repeat=T.d)
        if restrict_zero(T, tup)
    )


def test_plane_tuples_match_brute_force_exhaustively():
    # every bilinear map on F_2^3 against the unpruned 49-pair scan
    for bits in range(512):
        coeffs = tuple((bits >> i) & 1 for i in range(9))
        T = Tensor(F2, 3, 2, 1, coeffs)
        fast = [tuple(V.rows for V in tup) for tup in isotropic_plane_tuples(T)]
        assert fast == _brute_tuples(T, 2)


def test_order_three_tuple_counts_match_brute_force():
    subs = list(enumerate_grassmannian(F2, 3, 2))
    for s in range(4):
        T = random_tensor(F2, 3, 3, 1, "hom", seed=444_000 + s)
        brute = sum(
            1 for tup in itertools.product(subs, repeat=3) if restrict_zero(T, tup)
        )
        assert count_plane_tuples(T) == brute
        assert len(isotropic_plane_tuples(T)) == brute


def _brute_plane_tuples(T):
    """Oracle: the plane d-tuples on which T vanishes, sorted, as RREF rows.
    By multilinearity T vanishes on U_1 x ... x U_d iff it vanishes on every
    tuple of basis rows; each row tuple is evaluated once, by tensor_eval."""
    planes = list(enumerate_grassmannian(T.field, T.n, 2))
    zero = {}

    def vanishes(rows):
        if rows not in zero:
            zero[rows] = not any(tensor_eval(T, rows))
        return zero[rows]

    return sorted(
        rows
        for rows in itertools.product([V.rows for V in planes], repeat=T.d)
        if all(map(vanishes, itertools.product(*rows)))
    )


# (q, N, d) for the property test: each brute scan stays under 30k tuples
BRUTE_SHAPES = [(q, N, d) for q in (2, 3, 4, 5) for N in (2, 3) for d in (2, 3)]
BRUTE_SHAPES += [(2, 3, 4), (3, 3, 4)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plane_tuple_count_and_list_match_brute_force(data):
    # count mode and list mode of the one slot walk against the unpruned
    # product scan, on the eliminating leaves (d <= 2, and the one plane of
    # F^2) and the zero-set masks (d >= 3, N = 3);
    # small fields, zero-heavy coefficients and maps l(x) B(y, ...) make
    # prefixes on which T vanishes common
    q, N, d = data.draw(st.sampled_from(BRUTE_SHAPES))
    m = data.draw(st.sampled_from((1, 2)))
    F = field_of_order(q)
    elems = st.one_of(st.just(0), st.integers(0, q - 1))
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(elems, min_size=m * N**d, max_size=m * N**d))
    else:
        l = data.draw(st.lists(elems, min_size=N, max_size=N))
        rest = m * N ** (d - 1)
        B = data.draw(st.lists(elems, min_size=rest, max_size=rest))
        coeffs = [
            F.mul(l[i], B[o * N ** (d - 1) + r])
            for o in range(m)
            for i in range(N)
            for r in range(N ** (d - 1))
        ]
    T = Tensor(F, N, d, m, coeffs)
    brute = _brute_plane_tuples(T)
    listed = isotropic_plane_tuples(T)
    assert [tuple(V.rows for V in tup) for tup in listed] == brute
    assert count_plane_tuples(T) == len(listed) == len(brute)


def test_slot_walk_cap_charges_one_unit_per_node():
    # the identity form on F_2^3 vanishes on no plane, so the walk visits
    # the root and one leaf per plane: 8 nodes
    identity = Tensor(F2, 3, 2, 1, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    assert count_plane_tuples(identity, cap=8) == 0
    with pytest.raises(CapExceededError):
        count_plane_tuples(identity, cap=7)
    assert alpha_hom(identity, 2, cap=8) == HomIsotropyResult(False, None, True)
    assert alpha_hom(identity, 2, cap=7) == HomIsotropyResult(False, None, False)


# ---------------------------------------------------------------------------
# the slot walk over F_2, on packed leaf rows
# ---------------------------------------------------------------------------


def f2_walk_map(N, d, m, seed):
    """A map on (F_2^N)^d.  Seeds 0 and 1 keep the coefficients with every
    index in the last two at zero, so T vanishes on span(e_{N-1}, e_N)^d,
    and set the others with probability 1/2 and 1/4.  Seed 2 keeps only
    first index 0: T = x_1 B(y, ...) vanishes once the first plane lies
    in x_1 = 0, so the walk has free leaves."""
    rng = SplitMix64(seed)

    def keep(idx):
        if seed == 2:
            return idx[0] == 0 and rng.below(2) == 0
        return min(idx) < N - 2 and rng.below(2 + 2 * seed) == 0

    coeffs = [int(keep(idx)) for _ in range(m) for idx in itertools.product(range(N), repeat=d)]
    return Tensor(F2, N, d, m, coeffs)


# (N, d, m, seed) -> (plane-tuple count, the least cap under which
# count_plane_tuples finishes, the least cap under which alpha_hom(T, 2)
# is exhausted, its witness rows), as computed by the list-kernel walk
F2_WALK_PINS = {
    (4, 2, 1, 0): (177, 36, 35, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)))),
    (4, 2, 1, 1): (177, 36, 35, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)))),
    (4, 2, 1, 2): (441, 36, 35, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 1, 0, 0), (0, 0, 1, 0)))),
    (4, 2, 2, 0): (11, 36, 35, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 1)))),
    (4, 2, 2, 1): (6, 36, 35, (((1, 0, 0, 0), (0, 0, 1, 1)), ((0, 1, 0, 0), (0, 0, 0, 1)))),
    (4, 2, 2, 2): (273, 36, 35, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 1), (0, 1, 0, 1)))),
    (4, 2, 3, 0): (1, 36, 36, (((0, 0, 1, 0), (0, 0, 0, 1)), ((0, 0, 1, 0), (0, 0, 0, 1)))),
    (4, 2, 3, 1): (3, 36, 35, (((1, 0, 0, 0), (0, 0, 1, 1)), ((0, 1, 0, 0), (0, 0, 0, 1)))),
    (4, 2, 3, 2): (245, 36, 35, (((0, 1, 0, 0), (0, 0, 1, 0)), ((1, 0, 0, 0), (0, 1, 0, 0)))),
    (3, 3, 1, 0): (4, 57, 7, (((1, 0, 0), (0, 1, 0)), ((1, 0, 1), (0, 1, 0)), ((1, 0, 1), (0, 1, 0)))),
    (3, 3, 1, 1): (16, 57, 7, (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 1, 2): (67, 50, 7, (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)), ((1, 1, 0), (0, 0, 1)))),
    (3, 3, 2, 0): (1, 57, 57, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 2, 1): (1, 57, 57, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 2, 2): (49, 50, 50, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 3, 3, 0): (1, 57, 57, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 3, 1): (1, 57, 57, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 3, 2): (49, 50, 50, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 4, 1, 0): (1, 400, 400, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 4, 1, 1): (2, 400, 286, (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 1), (0, 1, 0)))),
    (3, 4, 1, 2): (343, 344, 344, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 4, 2, 0): (1, 400, 400, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 4, 2, 1): (1, 400, 400, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 4, 2, 2): (343, 344, 344, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 4, 3, 0): (1, 400, 400, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 4, 3, 1): (1, 400, 400, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 4, 3, 2): (343, 344, 344, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
}


@pytest.mark.parametrize("key", sorted(F2_WALK_PINS))
def test_f2_walk_count_and_list_match_brute_force(key):
    T = f2_walk_map(*key)
    brute = _brute_tuples(T, 2)
    listed = isotropic_plane_tuples(T)
    assert [tuple(V.rows for V in tup) for tup in listed] == brute
    assert count_plane_tuples(T) == len(listed) == len(brute) == F2_WALK_PINS[key][0]


@pytest.mark.parametrize("key", sorted(F2_WALK_PINS))
def test_f2_alpha_hom_witness_is_pinned(key):
    result = alpha_hom(f2_walk_map(*key), 2)
    assert result.found and result.exhausted
    assert tuple(V.rows for V in result.witness) == F2_WALK_PINS[key][3]


@pytest.mark.parametrize("key", sorted(F2_WALK_PINS))
def test_f2_walk_cap_charge_is_pinned_on_both_sides(key):
    # the packed leaf charges the cap as the list kernel did: one unit per node
    T = f2_walk_map(*key)
    _, count_cap, hom_cap, _ = F2_WALK_PINS[key]
    count_plane_tuples(T, cap=count_cap)
    with pytest.raises(CapExceededError):
        count_plane_tuples(T, cap=count_cap - 1)
    assert alpha_hom(T, 2, cap=hom_cap).exhausted
    if hom_cap - 1 < gauss_binom(T.n, 2, 2):  # the plane list alone exceeds it
        with pytest.raises(CapExceededError):
            alpha_hom(T, 2, cap=hom_cap - 1)
    else:
        assert not alpha_hom(T, 2, cap=hom_cap - 1).exhausted


def test_listing_charges_walk_nodes_plus_tuples_listed():
    # the listing's cap is charged the walk's nodes (the count's least cap
    # here, as each exceeds the plane list) plus one unit per tuple listed
    for key, (count, count_cap, _, _) in sorted(F2_WALK_PINS.items()):
        T = f2_walk_map(*key)
        assert len(isotropic_plane_tuples(T, cap=count_cap + count)) == count
        with pytest.raises(CapExceededError):
            isotropic_plane_tuples(T, cap=count_cap + count - 1)


def test_listing_refuses_free_tails_before_listing_them():
    # a zero map's walk is its root, and its G^d free tails are charged in
    # one step before the first one is listed
    Z = Tensor.zero(F3, 4, 3, 1)
    G = gauss_binom(4, 2, 3)
    planes = list(enumerate_grassmannian(F3, 4, 2))
    tuples = isotropy._isotropic_tuples(Z, planes, 2, G**3, charged=True)
    with pytest.raises(CapExceededError):
        next(tuples)
    assert count_plane_tuples(Z, cap=G) == G**3  # the count charges nodes alone
    Z = Tensor.zero(F2, 3, 2, 1)
    assert len(isotropic_plane_tuples(Z, cap=1 + 7**2)) == 7**2
    with pytest.raises(CapExceededError):
        isotropic_plane_tuples(Z, cap=7**2)
    # the identity form's walk: the root and one leaf per plane, no tuple
    identity = Tensor(F2, 3, 2, 1, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    assert isotropic_plane_tuples(identity, cap=8) == []
    with pytest.raises(CapExceededError):
        isotropic_plane_tuples(identity, cap=7)


# ---------------------------------------------------------------------------
# the slot walk over F_3 and F_4
# ---------------------------------------------------------------------------


def q_walk_map(q, N, d, m, seed):
    """A map on (F_q^N)^d shaped as :func:`f2_walk_map`, each kept
    coefficient a nonzero element drawn from the seed's stream."""
    rng = SplitMix64(seed)

    def entry(idx):
        if seed == 2:
            keep = idx[0] == 0 and rng.below(2) == 0
        else:
            keep = min(idx) < N - 2 and rng.below(2 + 2 * seed) == 0
        return 1 + rng.below(q - 1) if keep else 0

    coeffs = [entry(idx) for _ in range(m) for idx in itertools.product(range(N), repeat=d)]
    return Tensor(field_of_order(q), N, d, m, coeffs)


# (q, N, d, m, seed) -> the same four values as F2_WALK_PINS, recorded on
# the walk that eliminated every leaf (list rref) before leaves at d >= 3
# were decided from zero-set masks; the d = 2 entries, whose leaves still
# eliminate, were recorded before the table was shared (at d = 2, m = 1
# seed 1 draws the zero map, whose least count cap is the plane list's,
# not the walk's nodes)
Q_WALK_PINS = {
    (3, 3, 2, 1, 0): (4, 14, 13, (((1, 0, 0), (0, 1, 2)), ((1, 0, 0), (0, 1, 2)))),
    (3, 3, 2, 1, 2): (25, 14, 13, (((1, 0, 0), (0, 1, 0)), ((1, 0, 1), (0, 1, 0)))),
    (3, 3, 2, 2, 0): (1, 14, 14, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 2, 2, 1): (25, 14, 13, (((1, 0, 0), (0, 1, 0)), ((1, 0, 1), (0, 1, 0)))),
    (3, 3, 2, 2, 2): (13, 14, 14, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)))),
    (4, 3, 2, 1, 0): (5, 22, 21, (((2, 0, 0), (0, 2, 1)), ((2, 0, 0), (0, 0, 2)))),
    (4, 3, 2, 1, 2): (41, 22, 21, (((2, 0, 0), (0, 2, 0)), ((2, 0, 3), (0, 2, 0)))),
    (4, 3, 2, 2, 0): (1, 22, 22, (((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 2, 2, 1): (41, 22, 21, (((2, 0, 0), (0, 2, 0)), ((2, 0, 1), (0, 2, 0)))),
    (4, 3, 2, 2, 2): (21, 22, 22, (((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)))),
    (3, 3, 3, 1, 0): (2, 183, 140, (((1, 0, 0), (0, 0, 1)), ((1, 2, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 3, 1, 1): (4, 183, 13, (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)), ((1, 0, 0), (0, 1, 1)))),
    (3, 3, 3, 1, 2): (169, 170, 170, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 3, 3, 2, 0): (1, 183, 183, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 3, 2, 1): (1, 183, 183, (((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 3, 2, 2): (169, 170, 170, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (3, 4, 3, 1, 0): (220, 17031, 130, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 1, 0), (0, 1, 0, 1)), ((1, 1, 2, 0), (0, 0, 0, 1)))),
    (3, 4, 3, 1, 1): (466, 17031, 130, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 2, 0)), ((1, 2, 0, 1), (0, 0, 1, 2)))),
    (3, 4, 3, 1, 2): (253162, 15341, 130, (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (0, 0, 0, 1)))),
    (3, 3, 4, 1, 0): (2, 2380, 1827, (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 2), (0, 1, 2)), ((0, 1, 0), (0, 0, 1)))),
    (3, 3, 4, 1, 1): (2, 2380, 2332, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1)), ((1, 0, 2), (0, 1, 0)), ((1, 0, 2), (0, 1, 0)))),
    (3, 3, 4, 1, 2): (2197, 2198, 2198, (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)))),
    (4, 3, 3, 1, 0): (4, 463, 196, (((2, 0, 2), (0, 2, 0)), ((2, 1, 0), (0, 0, 2)), ((2, 0, 2), (0, 2, 3)))),
    (4, 3, 3, 1, 1): (1, 463, 463, (((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 3, 1, 2): (441, 442, 442, (((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)))),
    (4, 3, 3, 2, 0): (1, 463, 463, (((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 3, 2, 1): (1, 463, 463, (((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 3, 2, 2): (441, 442, 442, (((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)))),
    (4, 4, 3, 1, 0): (837, 127807, 770, (((2, 0, 0, 0), (0, 2, 0, 2)), ((2, 0, 0, 3), (0, 2, 0, 3)), ((2, 0, 2, 1), (0, 2, 1, 0)))),
    (4, 4, 3, 1, 1): (2029, 127807, 357, (((2, 0, 0, 0), (0, 2, 0, 0)), ((2, 0, 0, 0), (0, 2, 0, 0)), ((2, 0, 0, 0), (0, 0, 2, 0)))),
    (4, 4, 3, 1, 2): (2796381, 120310, 357, (((2, 0, 0, 0), (0, 2, 0, 0)), ((2, 0, 0, 0), (0, 2, 0, 0)), ((0, 2, 0, 0), (0, 0, 0, 2)))),
    (4, 3, 4, 1, 0): (1, 9724, 9724, (((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 4, 1, 1): (42, 9724, 9264, (((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)), ((0, 2, 0), (0, 0, 2)))),
    (4, 3, 4, 1, 2): (9261, 9262, 9262, (((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)))),
}


@pytest.mark.parametrize("key", sorted(Q_WALK_PINS))
def test_q_walk_count_and_list_are_pinned(key):
    T = q_walk_map(*key)
    count, count_cap, _, _ = Q_WALK_PINS[key]
    assert count_plane_tuples(T) == count
    if gauss_binom(T.n, 2, T.field.q) ** T.d <= 30_000:
        listed = isotropic_plane_tuples(T)
        assert [tuple(V.rows for V in tup) for tup in listed] == _brute_plane_tuples(T)
        assert len(listed) == count
    if count <= 30_000:  # the listing is charged the walk's nodes plus its tuples
        assert len(isotropic_plane_tuples(T, cap=count_cap + count)) == count
        with pytest.raises(CapExceededError):
            isotropic_plane_tuples(T, cap=count_cap + count - 1)


@pytest.mark.parametrize("key", sorted(Q_WALK_PINS))
def test_q_alpha_hom_witness_is_pinned(key):
    result = alpha_hom(q_walk_map(*key), 2)
    assert result.found and result.exhausted
    assert tuple(V.rows for V in result.witness) == Q_WALK_PINS[key][3]


@pytest.mark.parametrize("key", sorted(Q_WALK_PINS))
def test_q_walk_cap_charge_is_pinned_on_both_sides(key):
    # the mask leaves charge the cap as the eliminating walk did, and a
    # count cut by its limit stops after the same leaf
    T = q_walk_map(*key)
    count, count_cap, hom_cap, _ = Q_WALK_PINS[key]
    assert count_plane_tuples(T, cap=count_cap) == count
    with pytest.raises(CapExceededError):
        count_plane_tuples(T, cap=count_cap - 1)
    assert alpha_hom(T, 2, cap=hom_cap).exhausted
    if hom_cap - 1 < gauss_binom(T.n, 2, T.field.q):  # the plane list alone exceeds it
        with pytest.raises(CapExceededError):
            alpha_hom(T, 2, cap=hom_cap - 1)
    else:
        assert not alpha_hom(T, 2, cap=hom_cap - 1).exhausted


def _walk_trace(T, cap, masked):
    """Per node of the slot walk over T's planes that yields: its prefix,
    and for a group of leaves the group's plane-tuple count and each
    leaf's kernel points and nonempty kernel lines; then whether the walk
    raised under ``cap``.  The leaves are decided from zero-set masks when
    ``masked`` and by elimination otherwise."""
    planes = [V.rows for V in enumerate_grassmannian(T.field, T.n, 2)]
    walk = isotropy._SlotWalk(T, planes, DEFAULT_CAP if masked else 0)
    assert walk.masked == masked
    # lowered after the route is chosen: a cap below P^d never masks, so
    # no other caller can cut a masked walk at these sizes
    walk.cap = cap
    sizes = [gauss_binom(k, 2, T.field.q) for k in range(T.n + 1)]
    trace = []
    try:
        for prefix, leaves in walk:
            if leaves is None:
                trace.append((prefix, None))
                continue
            kernels = [(head, sorted(places)) for head, places in leaves.points()]
            lines = [(head, found if found is None else list(found))
                     for head, found in leaves.subspaces(1)]
            lines = [line for line in lines if line[1] != []]
            trace.append((prefix, leaves.count(0, sizes, None), kernels, lines))
    except CapExceededError:
        return trace, True
    return trace, False


# (q, N, d, m, seed) -> the least count cap, the walk's node count
WALK_CUT_NODES = {
    **{(2,) + key: pin[1] for key, pin in F2_WALK_PINS.items() if key[1] >= 3 and pin[1] <= 100},
    **{key: pin[1] for key, pin in Q_WALK_PINS.items() if key[2] >= 3 and pin[1] <= 500},
}


@pytest.mark.parametrize("key", sorted(WALK_CUT_NODES))
def test_mask_and_eliminating_leaves_agree_under_caps_across_the_walk(key):
    # both routes hand out the same leaves before the cap and raise at the
    # same point, with the same kernels, lines and counts
    T = f2_walk_map(*key[1:]) if key[0] == 2 else q_walk_map(*key)
    nodes = WALK_CUT_NODES[key]
    for cap in sorted({*range(1, nodes, max(1, nodes // 30)), nodes - 1, nodes, nodes + 1}):
        assert _walk_trace(T, cap, True) == _walk_trace(T, cap, False)


@pytest.mark.parametrize("q, N, d, masked", [(2, 4, 3, True), (7, 3, 2, False), (8, 3, 2, False), (53, 3, 2, False)])
def test_walks_mask_where_their_leaves_pay_for_the_table(q, N, d, masked):
    # the box pipeline's benchmark classes, and the F_53 planes whose P^2 =
    # 8.2M table fits the default cap: at d = 2 a walk's G leaves are
    # fewer than the table's P^2 entries, plane walks and point walks alike
    F = field_of_order(q)
    T = random_tensor(F, N, d, 1, "hom", seed=0)
    points = [(v,) for v in projective_points(F, N)]
    assert isotropy._SlotWalk(T, points, DEFAULT_CAP).masked == masked
    if q < 53:
        planes = [V.rows for V in enumerate_grassmannian(F, N, 2)]
        assert isotropy._SlotWalk(T, planes, DEFAULT_CAP).masked == masked


# ---------------------------------------------------------------------------
# the zero-set table shared per (F_q, n)
# ---------------------------------------------------------------------------


def _table_readers(T):
    """Per name, a run of one reader of the shared table under a cap,
    returning its value; alpha_hom returns its witness and whether it was
    exhausted, which is its refusal."""
    def hom(k):
        def run(cap):
            result = alpha_hom(T, k, cap=cap)
            witness = result.witness and tuple(V.rows for V in result.witness)
            return result.found, result.exhausted, witness
        return run

    readers = {
        "count": lambda cap: count_plane_tuples(T, cap=cap),
        "count limit 2": lambda cap: count_plane_tuples(T, limit=2, cap=cap),
        "list": lambda cap: [tuple(V.rows for V in tup) for tup in isotropic_plane_tuples(T, cap=cap)],
        "build": lambda cap: sorted(build_hypergraph(T, cap=cap).edges),
        "alpha_hom 1": hom(1),
        "alpha_hom 2": hom(2),
    }
    for slot in range(T.d):
        readers[f"zero_count slot {slot}"] = lambda cap, slot=slot: zero_count(T, cap=cap, kernel_slot=slot)
    return readers


def _outcome(run, cap):
    try:
        return "done", run(cap)
    except CapExceededError as error:
        return "refused", str(error)


def _finished(outcome):
    return outcome[0] == "done" and (not isinstance(outcome[1], tuple) or outcome[1][1])


@pytest.mark.parametrize("key", [(3, 3, 2, 1, 0), (4, 3, 2, 1, 2), (3, 3, 3, 1, 1), (3, 2, 3, 2, 0)])
def test_cache_state_cannot_change_a_result(key):
    # each reader at the default cap (the d = 3 walks mask), its least cap and one
    # below, run cold after the cache is cleared and then warm, gives the
    # same values, witnesses and refusals
    T = q_walk_map(*key)
    for name, run in _table_readers(T).items():
        hi = 1
        while not _finished(_outcome(run, hi)):
            hi *= 2
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _finished(_outcome(run, mid)) else (mid + 1, hi)
        for cap, finished in [(DEFAULT_CAP, True), (lo, True), (lo - 1, False)]:
            grassmann._zero_set_table.cache_clear()
            cold = _outcome(run, cap)
            assert _finished(cold) == finished, (name, cap)
            assert _outcome(run, cap) == cold, (name, cap)


def test_one_table_per_field_and_dimension(monkeypatch):
    formed = []

    class Spy(grassmann.ZeroSetTable):
        __slots__ = ()

        def __init__(self, field, n):
            formed.append((field.q, n))
            super().__init__(field, n)

    monkeypatch.setattr(grassmann, "ZeroSetTable", Spy)
    grassmann._zero_set_table.cache_clear()
    try:
        for key in [(3, 3, 2, 1, 0), (3, 3, 2, 2, 2), (3, 3, 3, 1, 1)]:
            T = q_walk_map(*key)
            count_plane_tuples(T)
            count_plane_tuples(T, limit=1)
            isotropic_plane_tuples(T)
            build_hypergraph(T)
            alpha_hom(T, 1)
            alpha_hom(T, 2)
        T = random_tensor(F3, 3, 3, 3, "hom", seed=1)  # zero_count's table shape
        assert [zero_count(T, kernel_slot=k) for k in range(3)] == [zero_count(T)] * 3
        assert formed == [(3, 3)]
    finally:
        grassmann._zero_set_table.cache_clear()


def test_alpha_hom_matches_brute_force_random():
    for i, (q, n, d, m, k) in enumerate(
        [(3, 3, 2, 1, 2), (2, 4, 2, 2, 2), (2, 3, 2, 1, 1), (2, 3, 3, 1, 2)]
    ):
        F = field_make(q)
        for s in range(5):
            T = random_tensor(F, n, d, m, "hom", seed=777_000 + 100 * i + s)
            result = alpha_hom(T, k)
            assert result.found == bool(_brute_tuples(T, k))


def test_plane_tuples_zero_tensor_is_full_square():
    Z = Tensor.zero(F2, 3, 2, 1)
    tuples = isotropic_plane_tuples(Z)
    assert len(tuples) == gauss_binom(3, 2, 2) ** 2 == 49
    assert count_plane_tuples(Z) == 49


def test_plane_tuples_empty_for_identity():
    identity = Tensor(F2, 3, 2, 1, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    assert isotropic_plane_tuples(identity) == []


def test_plane_tuples_regression_seed42():
    # frozen counts for the seed-42 map over F_2 and its quadratic extension
    T = random_tensor(F2, 3, 2, 1, "hom", seed=42)
    over_f2 = isotropic_plane_tuples(T)
    over_f4 = isotropic_plane_tuples(base_change(T, F4))
    assert len(over_f2) == 3
    assert len(over_f4) == 5
    # growth consistent with the extension inequality direction
    assert len(over_f2) <= len(over_f4)
    for tup in over_f2:
        assert restrict_zero(T, tup)
    # growth floor: with ambient 3 the tuple variety has dimension
    # 2d(n-1) - m 2^d = 0, so the count stays at least q^0 = 1 per extension
    growth_exponent = 2 * 2 * (2 - 1) - 1 * 2**2
    assert growth_exponent == 0
    assert len(over_f2) >= 1 and len(over_f4) >= 1


def test_plane_tuples_match_count_with_limit():
    T = random_tensor(F2, 3, 2, 1, "hom", seed=42)
    assert count_plane_tuples(T) == 3
    assert count_plane_tuples(T, limit=1) >= 2  # early abort overshoots


def test_count_alt_incidence_fiber_formula():
    assert count_alt_incidence(F2, 3, 2, 1, 1) == 49
    assert count_alt_incidence_raw(F2, 3, 2, 1, 1) == 49
    assert count_alt_incidence(F2, 3, 2, 1, 2) == 21
    assert count_alt_incidence_raw(F2, 3, 2, 1, 2) == 21
    # k = n: no nonzero map vanishes everywhere
    assert count_alt_incidence(F2, 3, 2, 1, 3) == 0


def test_count_hom_incidence_fiber_formula():
    # ambient 2: the fiber exponent n^d - 2^d vanishes, so the count is 0
    assert count_hom_incidence(F2, 2, 2, 1) == 0
    assert count_hom_incidence(F2, 3, 2, 1) == 1519
    assert count_hom_incidence_raw(F2, 3, 2, 1) == 1519


def test_raw_incidence_scans_refuse_a_huge_map_space_unformed(deadline):
    # q^(ncoef) has billions of bits at n = 3000: refused by its bit bound
    with pytest.raises(CapExceededError, match="needs at least 2\\^"):
        count_alt_incidence_raw(F2, 3000, 3, 1, 3000)
    with pytest.raises(CapExceededError, match="needs at least 2\\^"):
        count_hom_incidence_raw(F2, 3000, 3, 1)


def test_incidence_counts_are_zero_when_no_map_is_left(deadline):
    # Alt^d(F^n) = 0 for n < d: the count is 0, with no [n, k]_q formed
    assert count_alt_incidence(F2, 3000, 3001, 1, 1500) == 0
    assert alt_incidence_dim(3000, 3001, 1, 1500) == -1


def test_incidence_counts_at_k_equals_n_are_zero_unformed(deadline):
    # no nonzero map vanishes on all of F^n; C(10^8, 5 * 10^7) is never formed
    n, d = 10**8, 5 * 10**7
    assert count_alt_incidence(F2, n, d, 1, n) == 0
    assert alt_incidence_dim(n, d, 1, n) == -1
    with pytest.raises(CapExceededError, match="needs at least 2\\^"):
        count_alt_incidence_raw(F2, n, d, 1, n)
    # the small case agrees with the raw scan
    assert count_alt_incidence(F3, 3, 2, 2, 3) == count_alt_incidence_raw(F3, 3, 2, 2, 3) == 0


def test_incidence_counts_scale_with_field():
    q = 3
    F = field_make(q)
    got = count_alt_incidence(F, 3, 2, 1, 1)
    lines = gauss_binom(3, 1, q)
    fiber = (q**3 - 1) // (q - 1)
    assert got == lines * fiber


def test_plane_tuple_cap():
    Z = Tensor.zero(F3, 4, 2, 1)
    with pytest.raises(CapExceededError):
        isotropic_plane_tuples(Z, cap=10)


def test_plane_pair_boundary_parameters_per_extension():
    # at n=4, d=2, m=2 the closed-field predicate d(n-2) >= m 2^(d-1) sits
    # exactly on its boundary; the finite-field searches report per
    # extension, and a pair found over F_q persists over F_{q^2}
    from multilin.formulas import has_plane_isotropy

    assert has_plane_isotropy(4, 2, 2)
    for seed in range(6):
        T = random_tensor(F2, 4, 2, 2, "hom", seed=55_000 + seed)
        lo = alpha_hom(T, 2)
        hi = alpha_hom(base_change(T, F4), 2)
        assert lo.exhausted and hi.exhausted
        if lo.found:
            assert hi.found  # isotropic tuples survive base change
