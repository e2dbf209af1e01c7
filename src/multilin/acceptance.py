"""The acceptance suite: every release-gating check, one entry per
criterion, runnable from pytest (tests/test_acceptance.py) and from the
CLI (``multilin selftest``).

Each criterion function takes the master seed and returns a deterministic
detail dict; it raises AssertionError on failure.  Nothing here measures
time into the structured output, so two runs with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import comb

from . import boxfree, formulas, grassmann, isotropy, rank
from .errors import PreconditionError
from .field import field_make, field_of_order
from .tensor import AltTensor, Tensor, base_change, random_tensor

DEFAULT_SEED = 42

# stated per-criterion budgets (seconds); selftest reports against these
BUDGETS = {
    "bgh-agreement": 1,
    "exceptional-table": 5,
    "definitional-roundtrips": 5,
    "stratum-inequality": 30,
    "grassmannian-counts": 60,
    "incidence-counts": 60,
    "isotropy-oracle": 60,
    "extension-monotonicity": 120,
    "analytic-rank": 60,
    "box-pipeline": 120,
    "determinism": 360,
}


def crit_bgh_agreement(seed: int) -> dict:
    """alpha_bound(n, 2, m) equals the bilinear closed form
    floor((2n + m) / (m + 2)) for 2 <= m <= 10, 2 <= n <= 200."""
    checked = 0
    for m in range(2, 11):
        for n in range(2, 201):
            expect = (2 * n + m) // (m + 2)
            got = formulas.alpha_bound(n, 2, m)
            assert got == expect, f"alpha_bound({n},2,{m}) = {got} != {expect}"
            checked += 1
    return {"checked": checked}


def crit_exceptional_table(seed: int) -> dict:
    """The m = 1 characteristic-0 table: 4 at (7,3), n-2 at (6,4),
    ceil(n/2) at (n,2) for n <= 20 (an alternating form has even rank r,
    and its radical with a Lagrangian of the quotient is isotropic of
    dimension n - r/2)."""
    assert formulas.alpha_alt_closed(7, 3, 1, True).value == 4
    assert formulas.alpha_alt_closed(6, 4, 1, True).value == 4
    for n in range(2, 21):
        got = formulas.alpha_alt_closed(n, 2, 1, True)
        assert got.value == (n + 1) // 2, f"(n={n}, d=2): {got}"
    return {"checked": 2 + 19}


def crit_definitional_roundtrips(seed: int) -> dict:
    """turan_number and fp_number agree with direct scans of their defining
    minimizations; gq_number(n, 2) = 2n - 3."""
    turan_checked = 0
    for n in range(1, 31):
        for d in range(2, 6):
            for k in range(1, 31):
                try:
                    value = formulas.turan_number(n, d, k, True).value
                except PreconditionError:
                    value = None
                scan = formulas.turan_by_scan(n, d, k, True, r_max=d * n + 5)
                assert value == scan, f"turan({n},{d},{k}): {value} != {scan}"
                turan_checked += 1
    fp_checked = 0
    for d in range(1, 6):
        for m in range(1, 7):
            for k in range(1, 31):
                value = formulas.fp_number(d, m, k, m == 1).value
                scan = formulas.fp_by_scan(d, m, k, m == 1, n_max=30)
                if value <= 30:
                    assert value == scan, f"fp({d},{m},{k}): {value} != {scan}"
                else:
                    assert scan is None, f"fp({d},{m},{k}) scan found {scan} <= 30"
                fp_checked += 1
    for n in range(2, 101):
        assert formulas.gq_number(n, 2).value == 2 * n - 3
    return {"turan": turan_checked, "fp": fp_checked, "gq": 99}


def crit_stratum_inequality(seed: int) -> dict:
    """No violations of l(n + l - 2k) >= m C(l, d) over the admissible grid
    with n <= 60; strictness whenever k(n-k) > m C(k, d)."""
    checked = 0
    strict = 0
    for n in range(3, 61):
        for k in range(2, n):
            for d in range(2, k + 1):
                ckd = comb(k, d)
                m_max = (k * (n - k)) // ckd
                if m_max < 2:
                    continue
                for l in range(d, k + 1):
                    if n + l - 2 * k < 0:
                        continue
                    for m in range(2, m_max + 1):
                        result = formulas.stratum_inequality_check(m, n, k, d, l)
                        assert result != formulas.VIOLATED, (m, n, k, d, l)
                        if k * (n - k) > m * ckd:
                            assert result == formulas.STRICT, (m, n, k, d, l)
                            strict += 1
                        checked += 1
    return {"checked": checked, "strict": strict}


_STRATUM_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def crit_grassmannian_counts(seed: int) -> dict:
    """Enumeration cardinalities match the Gaussian binomial; the stratum
    counts partition the square; their q-degrees match the closed-form
    stratum dimension for n <= 4, k = 2."""
    enum_checked = 0
    for q in (2, 3, 4):
        F = field_of_order(q)
        for n in range(0, 6):
            for k in range(0, n + 1):
                subs = list(grassmann.enumerate_grassmannian(F, n, k))
                expect = grassmann.gauss_binom(n, k, q)
                assert len(subs) == expect and len(set(subs)) == expect, (q, n, k)
                enum_checked += 1
    for q in (2, 3):
        F = field_of_order(q)
        for n in (2, 3, 4):
            pairs = grassmann.stratum_profile(F, n, 2, method="pairs")
            fixed = grassmann.stratum_profile(F, n, 2, method="fixed")
            total = grassmann.gauss_binom(n, 2, q)
            assert pairs == fixed, (q, n)
            assert sum(pairs.values()) == total * total, (q, n)
    degree_checked = 0
    for n in (2, 3, 4):
        npts = 2 * 2 * (n - 2) + 1  # degree bound 2k(n-k) for k = 2
        qs = _STRATUM_PRIME_POWERS[:npts]
        profiles = {
            q: grassmann.stratum_profile(field_of_order(q), n, 2, method="fixed")
            for q in qs
        }
        for l in range(max(0, 4 - n), 3):
            samples = [(q, profiles[q][l]) for q in qs]
            got = grassmann.interpolated_degree(samples)
            expect = grassmann.stratum_dim(n, 2, l)
            assert got == expect, f"n={n} l={l}: degree {got} != {expect}"
            degree_checked += 1
    return {"enumerations": enum_checked, "degrees": degree_checked}


def crit_incidence_counts(seed: int) -> dict:
    """Fiber-formula incidence counts equal raw enumeration at the small
    point, and their q-degrees match the closed-form dimensions."""
    F2 = field_make(2)
    for k in (1, 2):
        formula = isotropy.count_alt_incidence(F2, 3, 2, 1, k)
        raw = isotropy.count_alt_incidence_raw(F2, 3, 2, 1, k)
        assert formula == raw, (k, formula, raw)
    # q-degree of the alternating incidence count at (n=3, d=2, m=1, k=1)
    dim_alt = grassmann.alt_incidence_dim(3, 2, 1, 1)
    qs = _STRATUM_PRIME_POWERS[: dim_alt + 1]
    samples = [
        (q, isotropy.count_alt_incidence(field_of_order(q), 3, 2, 1, 1)) for q in qs
    ]
    got = grassmann.interpolated_degree(samples)
    assert got == dim_alt, f"alt incidence degree {got} != {dim_alt}"
    # q-degree of the tuple incidence count at (n=3, d=2, m=1)
    dim_hom = grassmann.hom_incidence_dim(3, 2, 1)
    qs = _STRATUM_PRIME_POWERS[: dim_hom + 1]
    samples = [
        (q, isotropy.count_hom_incidence(field_of_order(q), 3, 2, 1)) for q in qs
    ]
    got = grassmann.interpolated_degree(samples)
    assert got == dim_hom, f"tuple incidence degree {got} != {dim_hom}"
    return {"raw_checks": 2, "alt_dim": dim_alt, "hom_dim": dim_hom}


def crit_isotropy_oracle(seed: int) -> dict:
    """Pruned DFS equals the full-Grassmannian-scan oracle on all 64
    alternating maps over F_2^4 (d=2, m=1); the index is at least
    min(d-1, n) on 500 random maps across small parameters."""
    F2 = field_make(2)
    for bits in range(64):
        coeffs = tuple((bits >> i) & 1 for i in range(6))
        T = AltTensor(F2, 4, 2, 1, coeffs)
        dfs = isotropy.alpha_alt(T)
        scan = isotropy.alpha_alt_by_scan(T)
        assert dfs.exhausted
        assert dfs.index == scan.index, (coeffs, dfs.index, scan.index)
    combos = [
        (q, n, d, m)
        for q in (2, 3)
        for n in range(1, 6)
        for d in range(2, 5)
        for m in (1, 2)
    ]
    floor_hits = 0
    for i in range(500):
        q, n, d, m = combos[i % len(combos)]
        T = random_tensor(
            field_make(q), n, d, m, "alt", seed=seed * 1_000_003 + i
        )
        result = isotropy.alpha_alt(T)
        assert result.exhausted
        lower = min(d - 1, n)
        assert result.index >= lower, (q, n, d, m, i, result.index)
        if result.index == lower:
            floor_hits += 1
    return {"oracle_tensors": 64, "random_tensors": 500, "floor_hits": floor_hits}


def crit_extension_monotonicity(seed: int) -> dict:
    """alpha_alt never drops under base change to the quadratic extension,
    on 100 random alternating maps over F_2."""
    F2 = field_make(2)
    F4 = field_make(2, 2)
    gains = 0
    for i in range(100):
        n = 2 + (i % 3)  # n in {2, 3, 4}
        m = 1 + (i % 2)
        T = random_tensor(F2, n, 2, m, "alt", seed=seed * 2_000_003 + i)
        lo = isotropy.alpha_alt(T)
        hi = isotropy.alpha_alt(base_change(T, F4))
        assert lo.exhausted and hi.exhausted
        assert lo.index <= hi.index, (n, m, i, lo.index, hi.index)
        if hi.index > lo.index:
            gains += 1
    return {"tensors": 100, "strict_gains": gains}


def crit_analytic_rank(seed: int) -> dict:
    """|Z_T| >= q^(dN - m) on 200 random maps; AR(0) = 0; the kernel
    optimization equals raw enumeration exhaustively at q=2, N=2, d=2."""
    combos = [
        (q, d, N, m)
        for q in (2, 3)
        for d in (2, 3)
        for N in (2, 3)
        for m in (1, 2)
    ]
    for i in range(200):
        q, d, N, m = combos[i % len(combos)]
        F = field_make(q)
        T = random_tensor(F, N, d, m, "hom", seed=seed * 3_000_003 + i)
        zc = rank.zero_count(T)
        assert zc >= q ** (d * N - m), (q, d, N, m, i, zc)
        report = rank.analytic_rank(T)
        assert report.ar_leq_m and report.ar_nonnegative
    F2 = field_make(2)
    zero_report = rank.analytic_rank(Tensor.zero(F2, 2, 2, 1))
    assert zero_report.zero_count == 2**4 and zero_report.ar_decimal == 0.0
    exhaustive = 0
    for m in (1, 2):
        for bits in range(2 ** (m * 4)):
            coeffs = [(bits >> i) & 1 for i in range(m * 4)]
            T = Tensor(F2, 2, 2, m, coeffs)
            assert rank.zero_count(T) == rank.zero_count(T, method="raw")
            exhaustive += 1
    return {"random_tensors": 200, "exhaustive_kernel_checks": exhaustive}


def crit_box_pipeline(seed: int) -> dict:
    """The full construction at q=2, d=2, n=3, m=1: admissibility, the
    pigeonhole bound 76, a qualifying map, the edge bound 96, verified
    freeness, and the span property of every complete sub-box."""
    F2 = field_make(2)
    assert boxfree.admissible(3, 2, 1)
    bound = boxfree.plane_tuple_bound(F2, 3, 2, 1)
    assert bound == 76, bound
    result = boxfree.box_pipeline(F2, 3, 2, 1, seed=seed)
    cert = result.certificate
    assert cert.tuple_bound_ok and cert.plane_tuple_count <= 76
    assert cert.edge_bound == 96 and cert.edge_bound_ok
    assert cert.freeness_verified
    free, _ = boxfree.freeness_check(result.after)
    assert free
    assert boxfree.copies_span_annihilated_tuples(
        result.tensor, result.before, result.tuples
    )
    return {
        "tuple_count": cert.plane_tuple_count,
        "edges_before": cert.edge_count_before,
        "edges_after": cert.edge_count_after,
        "trials": cert.trials,
    }


CORE_CRITERIA = [
    ("bgh-agreement", crit_bgh_agreement),
    ("exceptional-table", crit_exceptional_table),
    ("definitional-roundtrips", crit_definitional_roundtrips),
    ("stratum-inequality", crit_stratum_inequality),
    ("grassmannian-counts", crit_grassmannian_counts),
    ("incidence-counts", crit_incidence_counts),
    ("isotropy-oracle", crit_isotropy_oracle),
    ("extension-monotonicity", crit_extension_monotonicity),
    ("analytic-rank", crit_analytic_rank),
    ("box-pipeline", crit_box_pipeline),
]


def run_criterion(name: str, func, seed: int, timings: dict | None = None) -> dict:
    """Run one criterion into its report entry: a failed assertion marks it
    failed with the message as detail.  Its time goes to ``timings``."""
    import time

    entry = {"id": name}
    start = time.perf_counter()
    try:
        entry["detail"] = func(seed)
        entry["passed"] = True
    except AssertionError as exc:
        entry["detail"] = {"error": str(exc)}
        entry["passed"] = False
    if timings is not None:
        timings[name] = time.perf_counter() - start
    return entry


def run_core(seed: int = DEFAULT_SEED, timings: dict | None = None) -> dict:
    """Run criteria 1-10 and return the structured report.  Timings go to
    the side-channel dict (never into the report, which must be
    byte-stable across identical runs)."""
    report = [run_criterion(name, func, seed, timings) for name, func in CORE_CRITERIA]
    return {"seed": seed, "criteria": report}


def _other_hash_seed() -> str:
    """A PYTHONHASHSEED unlike this process's: 0, which turns hash
    randomisation off, unless this process runs at 0, then 1."""
    current = os.environ.get("PYTHONHASHSEED", "")
    return "1" if current.isdigit() and int(current) == 0 else "0"


def crit_determinism(seed: int, first: dict | None = None) -> dict:
    """The core suite serializes to the same bytes in this process and in
    a fresh one run under another PYTHONHASHSEED, so no output leans on
    str hashing or set order (the report carries no timestamps or
    timings).  ``first`` is the report of a run already made here; the
    suite is run once more, in the subprocess, which imports this package."""
    if first is None:
        first = run_core(seed)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = _other_hash_seed()
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import json, sys\n"
        "from multilin.acceptance import run_core\n"
        "print(json.dumps(run_core(int(sys.argv[1])), sort_keys=True))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(seed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=BUDGETS["determinism"],
    )
    assert proc.returncode == 0, f"core suite rerun failed: {proc.stderr[-2000:]}"
    assert json.dumps(first, sort_keys=True) == proc.stdout.strip(), (
        "core suite output differs between runs under different hash seeds"
    )
    return {"reruns": 1}


ALL_CRITERIA = CORE_CRITERIA + [("determinism", crit_determinism)]
