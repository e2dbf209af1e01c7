"""Box-free hypergraph construction from multilinear maps over F_q.

A map T: (F_q^(n+1))^d -> F_q^m induces a d-partite d-uniform hypergraph
on d copies of the projective space P^n(F_q) whose edges are the
projective zero tuples of T.  Any complete d-partite sub-box with two
vertices per part spans a d-tuple of 2-dimensional subspaces annihilating
T, so deleting all edges inside products of such tuples leaves a box-free
hypergraph.  This module builds the hypergraph, finds a map with few
annihilated plane tuples by a seeded pigeonhole scan, performs the
deletion, and verifies freeness, recording every exact count in a
certificate.

The parts are listed by :func:`multilin.grassmann.projective_points`,
whose order fixes the vertex indices.  The build is the plane-tuple slot
walk of :mod:`multilin.isotropy` run over single points: each prefix of
d - 1 points is contracted once, and the zero points of the last slot are
the kernel's points.  At d >= 3, when P^d fits the cap for P points,
their vertex indices are the set bits of the leaf's zero-set mask, read
off the table of P(F^n) kept per (F_q, n); at d <= 2 they are read by
:func:`multilin.grassmann.leaf_points` in leaf form and indexed by the
points in that form (packed over F_2, so no row is unpacked).
Freeness is checked by link intersection: two part-0 vertices can only
lie in a common box through link elements (the other d - 1 coordinates
of an edge) they share, so the scan pairs edges with a shared tail and
recurses on the intersection of the two links.  Its cap charge is the
number of such pairs, counted before the scan.

The certificate never asserts the asymptotic edge-retention claim: at
small q the deletion budget (q+1)^d |D| can exceed the edge count, so
only the exact inequalities and verified freeness are recorded.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DEFAULT_CAP,
    InvariantViolation,
    PreconditionError,
    check_cap,
)
from .field import Field
from .formulas import box_exponent
from .grassmann import (
    Subspace,
    gauss_binom,
    gauss_binom_capped,
    projective_points,
    span_points,
)
from .isotropy import (
    DEFAULT_TENSOR_CAP,
    _SlotWalk,
    count_plane_tuples,
    isotropic_plane_tuples,
)
from .prng import SplitMix64
from .tensor import Tensor
from .rank import zero_count


@dataclass(frozen=True)
class Hypergraph:
    """d-partite d-uniform hypergraph; parts hold projective points as
    canonical vectors, edges reference vertex indices per part."""

    d: int
    parts: tuple
    edges: frozenset

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "parts": [[list(v) for v in part] for part in self.parts],
            "edges": [list(e) for e in self.sorted_edges()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Hypergraph":
        """Inverse of ``to_dict``; rejects a document whose edges do not
        have arity d or index a vertex outside their part."""
        try:
            d, raw_parts, raw_edges = data["d"], data["parts"], data["edges"]
            parts = tuple(tuple(tuple(v) for v in part) for part in raw_parts)
            edges = frozenset(tuple(e) for e in raw_edges)
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed hypergraph document: {exc}") from exc
        if type(d) is not int or d < 1 or len(parts) != d:
            raise PreconditionError(
                f"need an integer d >= 1 and d parts, got d={d!r} and {len(parts)} parts"
            )
        for e in edges:
            if len(e) != d or any(
                type(i) is not int or not 0 <= i < len(part)
                for i, part in zip(e, parts)
            ):
                raise PreconditionError(f"bad edge {list(e)!r}")
        return cls(d=d, parts=parts, edges=edges)

    def to_text(self, header: str = "") -> str:
        """Plain edge list, one 'v1 v2 ... vd' line per edge."""
        lines = [header] if header else []
        lines.extend(" ".join(str(i) for i in e) for e in self.sorted_edges())
        return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    """Parse the plain edge-list format: a '# d n q m' header line, then
    one 'v1 v2 ... vd' line of vertex indices per edge.  Parts are the
    canonical projective points of P^n(F_q); ``Hypergraph.from_dict``
    checks d and the edges."""
    from .field import field_of_order

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise PreconditionError("missing '# d n q m' header line")
    try:
        d, n, q, m = (int(tok) for tok in lines[0][1:].split())
        edges = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise PreconditionError(f"malformed header or edge line: {exc}") from None
    if n < 0:
        raise PreconditionError(f"need n >= 0 in header {lines[0]!r}")
    points = projective_points(field_of_order(q), n + 1)
    return Hypergraph.from_dict({"d": d, "parts": [points] * d, "edges": edges})


def build_hypergraph(T: Tensor, cap: int = DEFAULT_CAP) -> Hypergraph:
    """Hypergraph on d copies of P^(n)(F_q) (ambient dimension T.n) whose
    edges are exactly the projective zero tuples of T.

    The plane-tuple slot walk runs over single points: each prefix of
    d - 1 points is contracted once, and the last slot's zero points are
    the projective points of its kernel, whose vertex indices the walk
    reads off its zero-set mask (d >= 3) or its ``leaf_points`` (d <= 2).
    A prefix on which T already vanishes takes every tail."""
    if not isinstance(T, Tensor):
        raise PreconditionError("the hypergraph needs a dense multilinear tensor")
    d = T.d
    points = projective_points(T.field, T.n, cap)
    npts = len(points)
    check_cap(npts**d, cap, "edge enumeration")
    edges = []
    for prefix, leaves in _SlotWalk(T, [(v,) for v in points], cap):
        if leaves is None:
            tails = itertools.product(range(npts), repeat=d - len(prefix))
            edges.extend(prefix + tail for tail in tails)
            continue
        for head, places in leaves.points():
            edges.extend(head + (v,) for v in places)
    return Hypergraph(d=d, parts=(tuple(points),) * d, edges=frozenset(edges))


@dataclass(frozen=True)
class EdgeBound:
    """Exact edge count against the analytic-rank lower bound
    (q^(dN - m) - d q^((d-1)N)) / (q-1)^d, N the ambient dimension."""

    edge_count: int
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.edge_count >= self.bound


def edge_lower_bound(T: Tensor, H: Optional[Hypergraph] = None, cap: int = DEFAULT_CAP) -> EdgeBound:
    if H is None:
        H = build_hypergraph(T, cap)
    q, N, d, m = T.field.q, T.n, T.d, T.m
    bound = Fraction(q ** (d * N - m) - d * q ** ((d - 1) * N), (q - 1) ** d)
    result = EdgeBound(H.edge_count, bound)
    if not result.ok:
        # would contradict the zero-count bound AR <= m; re-derive for the report
        raise InvariantViolation(
            f"edge count {H.edge_count} below bound {bound}; "
            f"zero count was {zero_count(T, cap)}"
        )
    return result


def _link_boxes(edges: list, k: int):
    """Yield the complete 2-per-part sub-boxes of a set of k-tuples, given
    sorted, each once as ((x_1, y_1), ..., (x_k, y_k)) with x_i < y_i.

    Boxes come in the order of (x_1, ..., x_k, y_1, ..., y_k), which is
    the order in which a scan over sorted edge pairs e < f first meets
    each box (at e = x, f = y).  For each first coordinate a, an inverse
    index gives the first coordinates b > a sharing a link element (the
    rest of an edge) with a; a pair sharing at least 2^(k-1) of them
    recurses on the intersection of the two links, and the boxes of all
    such b are merged in order.  For k = 2 this is the classical
    O(sum deg^2) 4-cycle search."""
    if k == 1:
        for x, y in itertools.combinations([e[0] for e in edges], 2):
            yield ((x, y),)
        return
    links = {}
    owners = {}
    for e in edges:
        links.setdefault(e[0], []).append(e[1:])
        owners.setdefault(e[1:], []).append(e[0])
    passed = dict.fromkeys(owners, 0)  # owners of t already taken as a
    need = 2 ** (k - 1)
    for a, link in links.items():
        later = []  # per link element t of a: the owners b > a of t
        for t in link:
            i = passed[t] + 1
            passed[t] = i
            later.append(owners[t][i:])
        hits = Counter(itertools.chain.from_iterable(later))
        shared = {b: [] for b, count in hits.items() if count >= need}
        if not shared:
            continue
        for t, bs in zip(link, later):
            for b in bs:
                if b in shared:
                    shared[b].append(t)
        streams = [
            _keyed_boxes(b, _link_boxes(common, k - 1))
            for b, common in shared.items()
        ]
        for xs, b, ys in heapq.merge(*streams):
            yield ((a, b),) + tuple(zip(xs, ys))


def _keyed_boxes(b, boxes):
    """Boxes of the link intersection with b, keyed (x-corner, b, y-corner)
    so that the streams of all b merge into scan order."""
    for box in boxes:
        xs, ys = zip(*box)
        yield xs, b, ys


def _link_scan_charge(edges: list, d: int) -> int:
    """Steps the link scan may take: one per edge, plus one per pair of
    edges sharing their last d - j coordinates, j = 1 .. d - 1 (every pair
    the scan forms at depth j is among them).  At most the
    (d - 1) C(E, 2) + E pairs of a full pair scan."""
    charge = len(edges)
    for j in range(1, d):
        tails = Counter(e[j:] for e in edges)
        charge += sum(c * (c - 1) // 2 for c in tails.values())
    return charge


def freeness_check(H: Hypergraph, cap: int = DEFAULT_CAP):
    """Search for a complete sub-box with two vertices per part by link
    intersection.  Returns (True, None) or (False, witness), the witness
    being the box a scan over sorted edge pairs would meet first, as d
    sorted vertex pairs.  The cap bounds the pairs of edges with a shared
    tail, counted before the scan starts."""
    edges = H.sorted_edges()
    check_cap(_link_scan_charge(edges, H.d), cap, "freeness link scan")
    witness = next(_link_boxes(edges, H.d), None)
    return witness is None, witness


def box_copies(H: Hypergraph, cap: int = DEFAULT_CAP) -> list:
    """All complete 2-per-part sub-boxes, each once, as tuples of sorted
    vertex-index pairs in ``freeness_check``'s scan order.  The cap bounds
    the link scan's charge plus one step per box listed."""
    edges = H.sorted_edges()
    charge = _link_scan_charge(edges, H.d)
    check_cap(charge, cap, "box enumeration")
    out = list(itertools.islice(_link_boxes(edges, H.d), cap - charge + 1))
    check_cap(charge + len(out), cap, "box enumeration")
    return out


# ---------------------------------------------------------------------------
# the pigeonhole search and the deletion certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCertificate:
    """Exact bookkeeping of one construction run; all quantities integers
    (the edge lower bound is a fraction with denominator (q-1)^d)."""

    q: int
    n: int  # projective dimension; ambient is n + 1
    d: int
    m: int
    seed: int
    edge_count_before: int
    edge_count_after: int
    deleted_count: int
    plane_tuple_count: int
    tuple_bound: int
    tuple_bound_ok: bool
    edge_bound: Fraction
    edge_bound_ok: bool
    freeness_verified: bool
    search_exhaustive: bool
    trials: int

    def to_dict(self) -> dict:
        return {
            "params": {
                "q": self.q,
                "n": self.n,
                "d": self.d,
                "m": self.m,
                "seed": str(self.seed),
            },
            "edge_count_before": str(self.edge_count_before),
            "edge_count_after": str(self.edge_count_after),
            "deleted_count": str(self.deleted_count),
            "plane_tuple_count": str(self.plane_tuple_count),
            "tuple_bound": str(self.tuple_bound),
            "tuple_bound_ok": self.tuple_bound_ok,
            "edge_bound_num": str(self.edge_bound.numerator),
            "edge_bound_den": str(self.edge_bound.denominator),
            "edge_bound_ok": self.edge_bound_ok,
            "freeness_verified": self.freeness_verified,
            "search_exhaustive": self.search_exhaustive,
            "trials": self.trials,
        }


def plane_tuple_bound(field: Field, n: int, d: int, m: int) -> int:
    """floor(q^(-m 2^d) |Gr(2, F^(n+1))|^d): some map meets this count by
    averaging over the projectivized map space."""
    q = field.q
    return gauss_binom(n + 1, 2, q) ** d // q ** (m * 2**d)


def admissible(n: int, d: int, m: int) -> bool:
    """Hypothesis for the sparse-tuple guarantee: m(2^d - 1) < (n-1)d."""
    return box_exponent(n, d, m).admissible


def _tensor_from_index(field: Field, n1: int, d: int, m: int, idx: int) -> Tensor:
    q = field.q
    count = m * n1**d
    coeffs = []
    for _ in range(count):
        coeffs.append(idx % q)
        idx //= q
    return Tensor(field, n1, d, m, coeffs)


def pigeonhole_search(
    field: Field,
    n: int,
    d: int,
    m: int,
    seed: int = 0,
    max_trials: int = 512,
    tensor_cap: int = DEFAULT_TENSOR_CAP,
    cap: int = DEFAULT_CAP,
):
    """Find T over F_q^(n+1) whose annihilated plane-tuple count is within
    the pigeonhole bound.

    When the whole coefficient space fits ``tensor_cap`` the scan order is
    a seeded permutation of all maps, so a qualifying map is certain to be
    found (exhaustive mode).  Otherwise ``max_trials`` seeded samples are
    drawn and the best map is returned along with whether it met the bound.

    Returns (tensor, info dict with tuple_count / bound / exhaustive /
    trials / met).
    """
    if n < 2 or d < 2:
        raise PreconditionError("need n >= 2 and d >= 2")
    if not admissible(n, d, m):
        raise PreconditionError(
            f"inadmissible parameters: m(2^d - 1) >= (n-1)d at n = {n}, d = {d}, m = {m}"
        )
    n1 = n + 1
    q = field.q
    # every trial lists the planes of F^(n+1) first: refuse them past the
    # cap before the map space's size is formed or a map is drawn
    gauss_binom_capped(n1, 2, q, cap)
    bound = plane_tuple_bound(field, n, d, m)
    ncoef = m * n1**d
    rng = SplitMix64(seed)
    # q^ncoef >= 2^(ncoef (bitlen(q) - 1)) rules out a huge space unformed
    exhaustive = ncoef * (q.bit_length() - 1) < tensor_cap.bit_length() and q**ncoef <= tensor_cap
    if exhaustive:
        order = rng.shuffle(list(range(q**ncoef)))
        maps = (_tensor_from_index(field, n1, d, m, idx) for idx in order)
    elif max_trials < 1:
        raise PreconditionError(f"need max_trials >= 1, got {max_trials}")
    else:
        maps = (
            Tensor(field, n1, d, m, tuple(rng.below(q) for _ in range(ncoef)))
            for _ in range(max_trials)
        )
    # an exhaustive scan counts each map only as far as the bound; a sampled
    # one counts the first map exactly and each later one only as far as it
    # could beat the best, so every count that is kept is exact
    best_T = best_count = None
    for trials, T in enumerate(maps, start=1):
        limit = bound if exhaustive else None if best_count is None else best_count - 1
        count = count_plane_tuples(T, limit=limit, cap=cap)
        if best_count is None or count < best_count:
            best_T, best_count = T, count
        if count <= bound:
            break
    if exhaustive and best_count > bound:
        raise InvariantViolation(
            "no map met the pigeonhole bound despite the averaging guarantee"
        )
    return best_T, {
        "tuple_count": best_count,
        "tuple_bound": bound,
        "exhaustive": exhaustive,
        "trials": trials,
        "met": best_count <= bound,
    }


def delete_and_verify(
    T: Tensor,
    H: Hypergraph,
    tuples: Sequence[tuple],
    cap: int = DEFAULT_CAP,
):
    """Remove every edge inside P(V_1) x ... x P(V_d) for some annihilated
    plane tuple, then verify the result is box-free (a failure would break
    the span argument and raises).  Returns (hypergraph, deleted_count)."""
    field = T.field
    index_maps = [{v: i for i, v in enumerate(part)} for part in H.parts]
    plane_indices = {}  # (slot, plane rows) -> vertex indices of its points
    deleted = set()
    for tup in tuples:
        point_lists = []
        for slot, V in enumerate(tup):
            key = (slot, V.rows)
            if key not in plane_indices:
                plane_indices[key] = [
                    index_maps[slot][p] for p in span_points(field, V.rows)
                ]
            point_lists.append(plane_indices[key])
        for combo in itertools.product(*point_lists):
            if combo in H.edges:
                deleted.add(combo)
    remaining = H.edges - deleted
    H2 = Hypergraph(d=H.d, parts=H.parts, edges=frozenset(remaining))
    free, witness = freeness_check(H2, cap)
    if not free:
        raise InvariantViolation(
            f"deletion left a complete sub-box: {witness}; this would "
            "falsify the span argument"
        )
    return H2, len(deleted)


def copies_span_annihilated_tuples(
    T: Tensor, H: Hypergraph, tuples: Sequence[tuple], cap: int = DEFAULT_CAP
) -> bool:
    """Key step of the deletion argument: every complete 2-per-part sub-box
    of the undeleted hypergraph spans a d-tuple of planes annihilating T,
    and that tuple appears in the enumerated list."""
    field = T.field
    tuple_set = {tuple(V.rows for V in tup) for tup in tuples}
    for copy in box_copies(H, cap):
        spans = []
        for t, (i, j) in enumerate(copy):
            V = Subspace.span(
                field, T.n, [H.parts[t][i], H.parts[t][j]]
            )
            if V.k != 2:  # pragma: no cover - distinct projective points
                raise InvariantViolation("sub-box pair is projectively equal")
            spans.append(V)
        if tuple(V.rows for V in spans) not in tuple_set:
            return False
    return True


@dataclass(frozen=True)
class PipelineResult:
    tensor: Tensor
    before: Hypergraph
    after: Hypergraph
    tuples: tuple
    certificate: BoxCertificate


def box_pipeline(
    field: Field,
    n: int,
    d: int,
    m: int,
    seed: int = 0,
    max_trials: int = 512,
    cap: int = DEFAULT_CAP,
) -> PipelineResult:
    """Full construction: search a sparse map, build the hypergraph, check
    the edge lower bound, delete annihilated products, verify freeness."""
    T, info = pigeonhole_search(field, n, d, m, seed, max_trials, cap=cap)
    H = build_hypergraph(T, cap)
    bound = edge_lower_bound(T, H, cap)
    tuples = isotropic_plane_tuples(T, cap)
    if len(tuples) != info["tuple_count"]:  # pragma: no cover
        raise InvariantViolation("tuple enumeration disagrees with the count")
    H2, deleted = delete_and_verify(T, H, tuples, cap)
    cert = BoxCertificate(
        q=field.q,
        n=n,
        d=d,
        m=m,
        seed=seed,
        edge_count_before=H.edge_count,
        edge_count_after=H2.edge_count,
        deleted_count=deleted,
        plane_tuple_count=len(tuples),
        tuple_bound=info["tuple_bound"],
        tuple_bound_ok=info["met"],
        edge_bound=bound.bound,
        edge_bound_ok=bound.ok,
        freeness_verified=True,
        search_exhaustive=info["exhaustive"],
        trials=info["trials"],
    )
    return PipelineResult(T, H, H2, tuple(tuples), cert)
