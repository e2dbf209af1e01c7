"""The benchmark's workloads: seeded instance batches, the timed solve of
one instance, its canonical output, and the correctness gate.

Every solve goes through ``multilin`` top-level exports only, looked up
on the module at call time, so the tracer's rebinding reaches it and a
refactor behind the public API does not break the benchmark.  The gate
runs outside the timed window and uses an independent route for every
answer: the Grassmannian scan oracle for ``alpha_alt``, a second kernel
slot for zero counts, and the stage identities of the box pipeline.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Cls:
    """An instance class: ``count`` seeded maps at (q, n, d, m)."""

    kind: str
    q: int
    n: int
    d: int
    m: int
    count: int = 1

    @property
    def label(self):
        return f"{self.kind}:q{self.q}n{self.n}d{self.d}m{self.m}"


@dataclass(frozen=True)
class Instance:
    cls: Cls
    seed: int
    tensor: object  # None for the exhaustive minimum, which takes no map


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _no_span(name, **attrs):
    return contextlib.nullcontext()


class Workload:
    """Base: subclasses give the classes, the solve, the canonical output
    and the gate."""

    name = ""
    classes = ()
    largest = ""  # label of the class whose solve time is ``largest_s``

    def __init__(self, classes=None, largest=None):
        if classes is not None:
            self.classes = tuple(classes)
        if largest is not None:
            self.largest = largest

    def fields(self, ml):
        """Construct each field once and force its lazy operation tables."""
        out = {}
        for c in self.classes:
            if c.q not in out:
                F = ml.field_of_order(c.q)
                F.inv(F.one)  # builds the dense or log tables on first use
                F.mul(F.one, F.one)
                out[c.q] = F
        return out

    def make_tensor(self, ml, F, c, seed):
        return ml.random_tensor(F, c.n, c.d, c.m, kind="hom", seed=seed)

    def accept(self, ml, c, T):
        """Whether a drawn map belongs to the class (all do by default)."""
        return True

    def instances(self, ml, fields, rng):
        out = []
        for c in self.classes:
            for _ in range(c.count):
                while True:
                    seed = rng.next_u64()
                    T = self.make_tensor(ml, fields[c.q], c, seed)
                    if self.accept(ml, c, T):
                        break
                out.append(Instance(c, seed, T))
        return out

    def solve(self, ml, inst, span=_no_span):
        raise NotImplementedError

    def canonical(self, inst, out):
        raise NotImplementedError

    def check(self, ml, inst, out):
        """Failure messages for one solved instance (empty when correct)."""
        raise NotImplementedError

    def digest(self, inst, out):
        return _digest(self.canonical(inst, out))


def _rows(subspace):
    return [list(r) for r in subspace.rows]


class Isotropy(Workload):
    """``alpha_alt`` DFS on seeded alternating maps, plus one exhaustive
    minimum over a whole map space (many tiny searches on the same layer)."""

    name = "isotropy"
    classes = (
        Cls("alt", 2, 6, 3, 1, count=3),
        Cls("alt", 3, 5, 3, 2, count=6),
        Cls("min", 7, 4, 3, 1),
        Cls("alt", 4, 5, 3, 2, count=3),
    )
    largest = "alt:q4n5d3m2"

    def make_tensor(self, ml, F, c, seed):
        if c.kind == "min":
            return None
        return ml.random_tensor(F, c.n, c.d, c.m, kind="alt", seed=seed)

    def solve(self, ml, inst, span=_no_span):
        c = inst.cls
        if c.kind == "min":
            return ml.alpha_field_alt(ml.field_of_order(c.q), c.n, c.d, c.m)
        return ml.alpha_alt(inst.tensor)

    def canonical(self, inst, out):
        if inst.cls.kind == "min":
            return [out.value, out.exhaustive, out.tensors_scanned]
        return [out.index, out.exhausted, [_rows(w) for w in out.witness]]

    def check(self, ml, inst, out):
        c = inst.cls
        if c.kind == "min":
            return self._check_minimum(ml, c, out)
        errors = []
        if not out.exhausted:
            errors.append("search hit its cap")
        oracle = ml.alpha_alt_by_scan(inst.tensor)
        if oracle.index != out.index:
            errors.append(f"index {out.index} != scan oracle {oracle.index}")
        (W,) = out.witness
        if W.k != out.index or not ml.alt_restricts_zero(inst.tensor, W):
            errors.append("witness is not an isotropic subspace of the index dimension")
        return errors

    def _check_minimum(self, ml, c, out):
        """Recompute the minimum with the scan oracle over every map."""
        F = ml.field_of_order(c.q)
        ncoef = c.m * comb(c.n, c.d)
        floor = min(c.d - 1, c.n)
        best, scanned = c.n, 0
        for coeffs in itertools.product(F.elements(), repeat=ncoef):
            scanned += 1
            best = min(best, ml.alpha_alt_by_scan(ml.AltTensor(F, c.n, c.d, c.m, coeffs)).index)
            if best <= floor:
                break
        errors = []
        if not out.exhaustive:
            errors.append("exhaustive minimum reported as sampled")
        if (out.value, out.tensors_scanned) != (best, scanned):
            errors.append(
                f"minimum {out.value} over {out.tensors_scanned} maps != "
                f"scan oracle {best} over {scanned}"
            )
        return errors


class AnalyticRank(Workload):
    """``analytic_rank`` on dense maps: q^((d-1)n) tiny rank calls each,
    over all three field backends (prime, table, log for q > 256)."""

    name = "analytic-rank"
    classes = (
        Cls("hom", 4, 3, 3, 2, count=3),
        Cls("hom", 9, 2, 3, 2, count=3),
        Cls("hom", 5, 3, 3, 2, count=6),
        Cls("hom", 289, 2, 2, 1),
        Cls("hom", 7, 3, 3, 1, count=3),
    )
    largest = "hom:q7n3d3m1"

    def solve(self, ml, inst, span=_no_span):
        return ml.analytic_rank(inst.tensor)

    def canonical(self, inst, out):
        return str(out.zero_count)

    def check(self, ml, inst, out):
        T = inst.tensor
        errors = []
        other = ml.zero_count(T, kernel_slot=T.d - 1)
        if other != out.zero_count:
            errors.append(f"zero count {out.zero_count} != {other} on slot {T.d - 1}")
        if not (out.ar_leq_m and out.ar_nonnegative):
            errors.append("0 <= AR <= m fails")
        return errors


class BoxFree(Workload):
    """The box-free construction stages on seeded dense maps over F_q^N.
    The N=3, d=2 classes are projective planes: maps are drawn until one
    annihilates no plane tuple, so every edge survives and the freeness
    pair scan dominates."""

    name = "boxfree"
    classes = (
        Cls("hom", 2, 4, 3, 1, count=3),
        Cls("plane", 7, 3, 2, 1, count=6),
        Cls("plane", 8, 3, 2, 1, count=3),
    )
    largest = "plane:q8n3d2m1"

    def accept(self, ml, c, T):
        return c.kind != "plane" or ml.count_plane_tuples(T) == 0

    def solve(self, ml, inst, span=_no_span):
        T = inst.tensor
        with span("build"):
            H = ml.build_hypergraph(T)
        with span("edge_bound"):
            bound = ml.edge_lower_bound(T, H)
        with span("count_tuples"):
            count = ml.count_plane_tuples(T)
        with span("list_tuples"):
            tuples = ml.isotropic_plane_tuples(T)
        with span("delete_and_verify"):
            H2, deleted = ml.delete_and_verify(T, H, tuples)
        return H, bound, count, tuples, H2, deleted

    def canonical(self, inst, out):
        H, bound, count, tuples, H2, deleted = out
        return {
            "edges_before": H.edge_count,
            "edge_bound": [bound.bound.numerator, bound.bound.denominator],
            "plane_tuples": count,
            "tuples": _digest([[_rows(V) for V in tup] for tup in tuples]),
            "deleted": deleted,
            "edges_after": [list(e) for e in H2.sorted_edges()],
        }

    def check(self, ml, inst, out):
        H, bound, count, tuples, H2, deleted = out
        errors = []
        if len(tuples) != count:
            errors.append(f"{len(tuples)} listed plane tuples != count {count}")
        if not bound.ok:
            errors.append("edge count below the analytic-rank bound")
        if H.edge_count != H2.edge_count + deleted or not H2.edges <= H.edges:
            errors.append("edges before != edges after + deleted")
        if inst.cls.kind == "plane" and (count or H2.edge_count != H.edge_count):
            errors.append("projective-plane instance lost edges")
        return errors


WORKLOADS = {w.name: w for w in (Isotropy(), AnalyticRank(), BoxFree())}
