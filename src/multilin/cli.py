"""Command-line surface: every operation behind one entry point.

Each command has one subcommand per operation (``isotropy alt``, ``rank
zeros``, ``formula gq``, ...) that declares exactly the flags it reads, so
the parser itself refuses any other flag, and ``--help`` after an
operation lists its flags.  Every operation emits a single JSON document
(stdout or --out) with the envelope {"command", "params", "timestamp",
...payload}, where params records the flags that name the instance.
Counts that can exceed 2^53 are serialized as decimal strings.  Identical
argv and seed give byte-identical output except for the timestamp field.

Exit codes: 0 success, 2 precondition violated (an unknown, missing or bad
flag, an input file that cannot be read or parsed, an output path that
cannot be written), 3 enumeration cap exceeded, 4 invariant violation
(e.g. a freeness failure, which would falsify a verified argument), 1
selftest failure.  Files are read only through ``_read`` and written, like
stdout, only through ``_write``; output paths are checked before the work
starts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import acceptance, boxfree, formulas, grassmann, isotropy, rank
from .errors import DEFAULT_CAP, CapExceededError, InvariantViolation, PreconditionError
from .field import field_make, field_of_order
from .tensor import KINDS, base_change, comb_bits, random_tensor, tensor_from_dict


class _Parser(argparse.ArgumentParser):
    """A usage error is a precondition error: exit 2, nothing on stdout."""

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def _cap(args) -> int:
    """--cap, else ISOTROPY_CAP, else the default; a given cap must be a
    positive integer."""
    cap = args.cap
    source = "--cap"
    if cap is None:
        env = os.environ.get("ISOTROPY_CAP")
        if not env:
            return DEFAULT_CAP
        source = "ISOTROPY_CAP"
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(
                f"ISOTROPY_CAP must be a positive integer, got {env!r}"
            ) from None
    if cap < 1:
        raise PreconditionError(f"{source} must be a positive integer, got {cap}")
    return cap


def _params(args, names: str) -> dict:
    return {name: getattr(args, name) for name in names.split()}


def _read(path: str) -> str:
    """Text of the file at ``path``; an unreadable file is a precondition
    error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise PreconditionError(f"{path} is not a text file") from None


def _read_json(path: str, text: str | None = None):
    """The JSON document in the file at ``path`` (``text`` if it was
    already read); malformed JSON is a precondition error."""
    try:
        return json.loads(_read(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not a JSON document: {exc}") from None


def _check_writable(path: str | None) -> None:
    """Fail before any work when the file at ``path`` could not be
    written; the file itself is created only by ``_write``."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not os.path.isdir(folder) or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise PreconditionError(f"cannot write {path}: not a writable file path")


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when ``path``
    is None; an unwritable path is a precondition error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}") from None


def _load_tensor(args, kind: str):
    """The map of the given kind an operation reads, over the degree-r
    extension of its field (r from --r), and the params that name it.  The
    map is the --tensor file, or is generated from --q --n --d --m --seed;
    those flags parse to None so that they can be refused next to
    --tensor."""
    given = _params(args, "q n d m seed")
    if args.tensor:
        if any(value is not None for value in given.values()):
            raise PreconditionError("give either --tensor or generation parameters, not both")
        T = tensor_from_dict(_read_json(args.tensor))
        if T.kind != kind:
            raise PreconditionError(f"this operation needs a {kind!r} tensor, got {T.kind!r}")
        params = {"tensor": args.tensor}
    else:
        for name in ("q", "n", "d", "m"):
            if given[name] is None:
                raise PreconditionError(f"--{name} is required")
        params = {**given, "seed": given["seed"] or 0}
        T = random_tensor(field_of_order(args.q), args.n, args.d, args.m, kind, params["seed"])
    return _extend(T, args.r), {**params, "r": args.r}


def _extend(T, r: int):
    """T over the degree-r extension of its field."""
    if r < 1:
        raise PreconditionError("--r must be a positive integer")
    if r > 1:
        T = base_change(T, field_make(T.field.p, T.field.e * r))
    return T


def _decimal(count) -> str:
    """``str(count)``, for an int or a Fraction; a count past the
    interpreter's int-to-str limit (4300 digits by default; it also guards
    the JSON reader) is a precondition error."""
    try:
        return str(count)
    except ValueError:
        raise _over_digit_limit() from None


def _refuse_past_digit_limit(q: int, exponent: int) -> None:
    """Refuse a count known to be at least q^exponent when that has more
    digits than the int-to-str limit, before the count is formed."""
    limit = sys.get_int_max_str_digits()
    # log10(q) > 1/4, so an exponent past 4 * limit is refused without
    # converting it to a float, which a huge one would overflow
    if limit and min(exponent, 4 * limit) * math.log10(q) > limit:
        raise _over_digit_limit()


def _over_digit_limit() -> PreconditionError:
    limit = sys.get_int_max_str_digits()
    return PreconditionError(f"count has over {limit} digits, the int-to-str limit")


def _emit(args, params: dict, payload: dict) -> int:
    """Write the operation's document to --out or stdout; exit code 0."""
    operation = getattr(args, "operation", None)
    stamped = {
        "command": f"{args.command}-{operation}" if operation else args.command,
        "params": params,
        **payload,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write(args.out, json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# formula
# ---------------------------------------------------------------------------


def _generic(value) -> dict:
    return {"value": value, "branch": "generic"}


def _box_exponent(args) -> dict:
    exponent, admissible = formulas.box_exponent(args.n, args.d, args.m)
    return {**_generic(_decimal(exponent)), "admissible": admissible}


def _fp(args) -> dict:
    # the value is at least m C(k, d) / k: a huge one is refused unformed
    bits = comb_bits(args.k, args.d)
    if bits >= 0:
        _refuse_past_digit_limit(2, bits + args.m.bit_length() - args.k.bit_length() - 1)
    return formulas.fp_number(args.d, args.m, args.k, args.char_zero)._asdict()


# quantity -> (the flags it reads, evaluator of the document's value fields)
FORMULAS = {
    "alpha-bound": ("n d m", lambda a: _generic(formulas.alpha_bound(a.n, a.d, a.m))),
    "alpha-alt": (
        "n d m char_zero",
        lambda a: formulas.alpha_alt_closed(a.n, a.d, a.m, a.char_zero)._asdict(),
    ),
    "fp": ("d m k char_zero", _fp),
    "turan": (
        "n d k char_zero",
        lambda a: formulas.turan_number(a.n, a.d, a.k, a.char_zero)._asdict(),
    ),
    "gq": ("n d", lambda a: formulas.gq_number(a.n, a.d)._asdict()),
    "iso2": ("n d m", lambda a: _generic(formulas.has_plane_isotropy(a.n, a.d, a.m))),
    "box-exponent": ("n d m", _box_exponent),
}


def cmd_formula(args) -> int:
    flags, evaluate = FORMULAS[args.quantity]
    # every flag read, but --char-zero only when given
    params = {name: value for name in flags.split() if (value := getattr(args, name)) is not False}
    payload = evaluate(args)
    _decimal(payload["value"])  # the JSON writer refuses an int past the digit limit
    return _emit(args, params, {"quantity": args.quantity, **payload})


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------


def cmd_isotropy_alt(args) -> int:
    cap = _cap(args)
    T, params = _load_tensor(args, "alt")
    return _emit(args, params, isotropy.alpha_alt(T, cap).to_dict())


def cmd_isotropy_hom(args) -> int:
    cap = _cap(args)
    T, params = _load_tensor(args, "hom")
    return _emit(args, {**params, "k": args.k}, isotropy.alpha_hom(T, args.k, cap).to_dict())


def cmd_isotropy_planes(args) -> int:
    cap = _cap(args)
    T, params = _load_tensor(args, "hom")
    tuples = isotropy.isotropic_plane_tuples(T, cap)
    payload = {"count": str(len(tuples)), "tuples": [[V.to_dict() for V in tup] for tup in tuples]}
    return _emit(args, params, payload)


def cmd_isotropy_field_min(args) -> int:
    cap = _cap(args)
    if args.samples is None and args.seed is not None:
        raise PreconditionError("--seed is read only with --samples")
    params, seed = _params(args, "q n d m"), args.seed or 0
    if args.samples is not None:
        params.update(samples=args.samples, seed=seed)
    result = isotropy.alpha_field_alt(
        field_of_order(args.q), args.n, args.d, args.m, cap, samples=args.samples, seed=seed
    )
    return _emit(args, params, result.to_dict())


# incidence operation -> (the flags it reads, its count, the raw cross-check,
# the dimension of its incidence variety, and b with dim >= 2^b - 1 when the
# count is nonzero: for n >= 3 the fiber m(n^d - 2^d) is at least 2^(d-1), and
# for k < n m(C(n, d) - C(k, d)) >= C(n - 1, r) >= 2^r, r = min(d - 1, n - d))
INCIDENCES = {
    "incidence-alt": (
        "q n d m k",
        isotropy.count_alt_incidence,
        isotropy.count_alt_incidence_raw,
        grassmann.alt_incidence_dim,
        lambda n, d, m, k: max(0, min(d - 1, n - d)) if k < n else 0,
    ),
    "incidence-hom": (
        "q n d m",
        isotropy.count_hom_incidence,
        isotropy.count_hom_incidence_raw,
        grassmann.hom_incidence_dim,
        lambda n, d, m: d - 1 if n >= 3 else 0,
    ),
}


def cmd_isotropy_incidence(args) -> int:
    flags, count, count_raw, dim, dim_bits = INCIDENCES[args.operation]
    cap = _cap(args)
    params = _params(args, flags)
    F = field_of_order(args.q)
    shape = list(params.values())[1:]  # the flags after --q
    isotropy.check_incidence(*shape)
    # a nonzero count is at least q^dim; a huge dim is refused by its bit
    # bound before n^d or C(n, d) is formed
    _refuse_past_digit_limit(args.q, (1 << min(dim_bits(*shape), 64)) - 1)
    _refuse_past_digit_limit(args.q, dim(*shape))
    payload = {"count": _decimal(count(F, *shape))}
    if args.raw:
        payload["raw_count"] = _decimal(count_raw(F, *shape, cap))
    return _emit(args, params, payload)


# ---------------------------------------------------------------------------
# rank / grassmann
# ---------------------------------------------------------------------------


def cmd_rank_zeros(args) -> int:
    cap = _cap(args)
    T, params = _load_tensor(args, "hom")
    return _emit(args, params, {"zero_count": str(rank.zero_count(T, cap, method=args.method))})


def cmd_rank_ar(args) -> int:
    cap = _cap(args)
    T, params = _load_tensor(args, "hom")
    return _emit(args, params, rank.analytic_rank(T, cap).to_dict())


def cmd_grassmann_count(args) -> int:
    field_of_order(args.q)  # q must be a prime power
    n, k = args.n, args.k
    if 0 <= k <= n:
        _refuse_past_digit_limit(args.q, k * (n - k))  # [n, k]_q >= q^(k(n-k))
    count = grassmann.gauss_binom(n, k, args.q)
    return _emit(args, _params(args, "q n k"), {"count": _decimal(count)})


def cmd_grassmann_enum(args) -> int:
    cap = _cap(args)
    subs = list(grassmann.enumerate_grassmannian(field_of_order(args.q), args.n, args.k, cap))
    payload = {"count": str(len(subs)), "subspaces": [S.to_dict() for S in subs]}
    return _emit(args, _params(args, "q n k"), payload)


def cmd_grassmann_strata(args) -> int:
    cap = _cap(args)
    F = field_of_order(args.q)
    if args.format == "csv":
        if args.l is not None:
            raise PreconditionError("--format csv writes the whole profile; --l is not read")
        profile = grassmann.stratum_profile(F, args.n, args.k, cap)
        lines = ["l,count"] + [f"{l},{c}" for l, c in sorted(profile.items())]
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    if args.l is not None:
        count = grassmann.stratum_count(F, args.n, args.k, args.l, cap)
        payload = {"l": args.l, "count": str(count)}
    else:
        profile = grassmann.stratum_profile(F, args.n, args.k, cap)
        payload = {"profile": {str(l): str(c) for l, c in sorted(profile.items())}}
    return _emit(args, _params(args, "q n k l"), payload)


# ---------------------------------------------------------------------------
# boxfree
# ---------------------------------------------------------------------------


def cmd_boxfree_gen(args) -> int:
    cap = _cap(args)
    if args.hypergraph is None and args.format is not None:
        raise PreconditionError("--format is read only with --hypergraph")
    F = field_of_order(args.q)
    result = boxfree.box_pipeline(
        F, args.n, args.d, args.m, seed=args.seed, max_trials=args.max_trials, cap=cap
    )
    payload = {"certificate": result.certificate.to_dict()}
    if args.hypergraph:
        if args.format == "text":
            text = result.after.to_text(f"# {args.d} {args.n} {args.q} {args.m}")
        else:
            text = json.dumps(result.after.to_dict())
        _write(args.hypergraph, text)
        payload["hypergraph_file"] = args.hypergraph
    return _emit(args, _params(args, "q n d m seed"), payload)


def cmd_boxfree_verify(args) -> int:
    """Freeness of a stored hypergraph (JSON, or the text edge list)."""
    cap = _cap(args)
    raw = _read(args.hypergraph_in)
    if raw.lstrip().startswith("#"):
        H = boxfree.hypergraph_from_text(raw)
    else:
        H = boxfree.Hypergraph.from_dict(_read_json(args.hypergraph_in, raw))
    free, witness = boxfree.freeness_check(H, cap)
    payload = {
        "free": free,
        "witness": [list(pair) for pair in witness] if witness else None,
        "edge_count": str(H.edge_count),
    }
    _emit(args, {"in": args.hypergraph_in}, payload)
    return 0 if free else 4


# ---------------------------------------------------------------------------
# tensor / selftest
# ---------------------------------------------------------------------------


def cmd_tensor_random(args) -> int:
    T = random_tensor(field_of_order(args.q), args.n, args.d, args.m, args.kind, args.seed)
    T = _extend(T, args.r)
    if args.out:
        _write(args.out, json.dumps(T.to_dict(), indent=2, sort_keys=True))
        args.out = None  # the envelope goes to stdout
        payload = {"written": True}
    else:
        payload = {"tensor": T.to_dict()}
    return _emit(args, _params(args, "q n d m seed r"), payload)


def cmd_tensor_show(args) -> int:
    T = tensor_from_dict(_read_json(args.tensor))
    payload = {
        "kind": T.kind,
        "q": T.field.q,
        "n": T.n,
        "d": T.d,
        "m": T.m,
        "coeff_count": len(T.coeffs),
        "nonzero_count": sum(1 for c in T.coeffs if c),
    }
    return _emit(args, {"tensor": args.tensor}, payload)


def cmd_selftest(args) -> int:
    timings = {}
    report = acceptance.run_core(args.seed, timings)
    report["criteria"].append(
        acceptance.run_criterion(
            "determinism",
            lambda seed: acceptance.crit_determinism(seed, first=report),
            args.seed,
            timings,
        )
    )
    all_passed = all(c["passed"] for c in report["criteria"])
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        budget = acceptance.BUDGETS.get(c["id"])
        t = timings.get(c["id"], 0.0)
        print(
            f"{status} {c['id']:28s} {t:7.2f}s (budget {budget}s)",
            file=sys.stderr,
        )
    payload = {"criteria": report["criteria"], "all_passed": all_passed}
    _emit(args, {"seed": args.seed}, payload)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


HELP = {
    "q": "field order (prime power)",
    "n": "ambient dimension",
    "d": "order of the map",
    "m": "codomain dimension",
    "k": "subspace dimension",
}


def _ints(parser, names: str, required: bool = True) -> None:
    for name in names.split():
        parser.add_argument(f"--{name}", type=int, required=required, help=HELP.get(name))


def _operation(operations, name: str, func, help: str, cap: bool = True):
    """The subparser of one operation, with --out and, where the operation
    reads a cap, --cap."""
    parser = operations.add_parser(name, help=help, description=help)
    parser.add_argument("--out", help="write the JSON document here instead of stdout")
    if cap:
        parser.add_argument("--cap", type=int, help="enumeration cap (overrides ISOTROPY_CAP)")
    parser.set_defaults(func=func)
    return parser


def _tensor_source(operations, name: str, func, help: str):
    """An operation on --tensor or on a generated map."""
    parser = _operation(operations, name, func, help)
    parser.add_argument("--tensor", help="tensor JSON file")
    _ints(parser, "q n d m", required=False)
    parser.add_argument("--seed", type=int, help="splitmix64 seed (default 0)")
    parser.add_argument(
        "--r",
        type=int,
        default=1,
        help="search over the degree-r extension of the tensor's field (default 1)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multilin",
        description="Exact isotropy, rank, and box-free computations for "
        "multilinear maps over finite fields.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def operations(command, help, dest="operation"):
        return commands.add_parser(command, help=help).add_subparsers(dest=dest, required=True)

    ops = operations("formula", "closed-form extremal quantities", dest="quantity")
    for quantity, (flags, _) in FORMULAS.items():
        p = _operation(ops, quantity, cmd_formula, f"the {quantity} closed form", cap=False)
        for name in flags.split():
            if name == "char_zero":
                p.add_argument("--char-zero", action="store_true", help="assume characteristic 0")
            else:
                p.add_argument(f"--{name}", type=int, required=True)

    ops = operations("isotropy", "isotropic-subspace searches and counts")
    _tensor_source(ops, "alt", cmd_isotropy_alt, "isotropy index of an alternating map")
    p = _tensor_source(ops, "hom", cmd_isotropy_hom, "a k-subspace tuple a map annihilates")
    _ints(p, "k")
    _tensor_source(ops, "planes", cmd_isotropy_planes, "every plane tuple a map annihilates")
    p = _operation(ops, "field-min", cmd_isotropy_field_min, "least isotropy index over F_q")
    _ints(p, "q n d m")
    p.add_argument("--samples", type=int, help="sample this many maps instead of scanning all")
    p.add_argument("--seed", type=int, help="splitmix64 seed of the samples (default 0)")
    for name, (flags, *_) in INCIDENCES.items():
        p = _operation(ops, name, cmd_isotropy_incidence, "number of (subspaces, map) zero pairs")
        _ints(p, flags)
        p.add_argument("--raw", action="store_true", help="also count by raw enumeration")

    ops = operations("rank", "zero-set counts and analytic rank")
    p = _tensor_source(ops, "zeros", cmd_rank_zeros, "number of zeros of a map")
    p.add_argument("--method", choices=("kernel", "raw"), default="kernel")
    _tensor_source(ops, "ar", cmd_rank_ar, "analytic rank of a map")

    ops = operations("grassmann", "subspace enumeration and strata")
    p = _operation(ops, "count", cmd_grassmann_count, "number of k-subspaces", cap=False)
    _ints(p, "q n k")
    p = _operation(ops, "enum", cmd_grassmann_enum, "every k-subspace")
    _ints(p, "q n k")
    p = _operation(ops, "strata", cmd_grassmann_strata, "k-subspaces by intersection dimension")
    _ints(p, "q n k")
    p.add_argument("--l", type=int, help="intersection dimension (default: the whole profile)")
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json (the default) or the csv profile table",
    )

    ops = operations("boxfree", "box-free hypergraph construction")
    p = _operation(ops, "gen", cmd_boxfree_gen, "build and certify a box-free hypergraph")
    _ints(p, "q")
    p.add_argument("--n", type=int, required=True, help="projective dimension (ambient n+1)")
    _ints(p, "d m")
    p.add_argument("--seed", type=int, default=0, help="splitmix64 seed (default 0)")
    p.add_argument("--max-trials", type=int, default=512, help="sampled map trials (default 512)")
    p.add_argument("--hypergraph", help="write the box-free hypergraph here")
    p.add_argument(
        "--format",
        choices=("json", "text"),
        help="format of the --hypergraph file: json (the default) or text",
    )
    p = _operation(ops, "verify", cmd_boxfree_verify, "check that a stored hypergraph is box-free")
    p.add_argument("--hypergraph-in", required=True, help="hypergraph JSON or text file")

    ops = operations("tensor", "generate and inspect tensors")
    p = _operation(ops, "random", cmd_tensor_random, "a seeded random map", cap=False)
    _ints(p, "q n d m")
    p.add_argument("--kind", choices=tuple(KINDS), default="hom", help="default hom")
    p.add_argument("--seed", type=int, default=0, help="splitmix64 seed (default 0)")
    p.add_argument("--r", type=int, default=1, help="over the degree-r extension (default 1)")
    p = _operation(ops, "show", cmd_tensor_show, "shape and kind of a tensor file", cap=False)
    p.add_argument("--tensor", required=True, help="tensor JSON file")

    p = _operation(commands, "selftest", cmd_selftest, "run the acceptance suite", cap=False)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for path in (args.out, getattr(args, "hypergraph", None)):
            _check_writable(path)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
