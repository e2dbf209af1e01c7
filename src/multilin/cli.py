"""Command-line surface: every operation behind one entry point.

All subcommands emit a single JSON document (stdout or --out) with the
envelope {"command", "params", "timestamp", ...payload}.  Counts that can
exceed 2^53 are serialized as decimal strings.  Identical argv and seed
give byte-identical output except for the timestamp field.

Exit codes: 0 success, 2 precondition violated (a missing or bad flag,
an input flag the operation would not read, an input file that cannot be
read or parsed, an output path that cannot be written), 3 enumeration cap
exceeded, 4 invariant violation (e.g. a freeness failure, which would
falsify a verified argument), 1 selftest failure.  Files are read only
through ``_read`` and written, like stdout, only through ``_write``;
output paths are checked before the work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import acceptance, boxfree, formulas, grassmann, isotropy, rank
from .errors import DEFAULT_CAP, CapExceededError, InvariantViolation, PreconditionError
from .field import field_make, field_of_order
from .tensor import base_change, random_tensor, tensor_from_dict


def _cap(args) -> int:
    """--cap, else ISOTROPY_CAP, else the default; a given cap must be a
    positive integer."""
    cap = getattr(args, "cap", None)
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


# defaults of flags that some operations do not read: the flags parse to
# None, so that _refuse sees them there, and the default is filled in
# where an operation reads them
DEFAULTS = {"kind": "hom", "seed": 0, "r": 1, "max_trials": 512}


def _value(args, name):
    """The flag's value, or its default when it was not given."""
    value = getattr(args, name, None)
    return DEFAULTS.get(name) if value is None else value


def _add_common(parser):
    parser.add_argument("--out", help="write the JSON document here instead of stdout")
    parser.add_argument("--cap", type=int, help="enumeration cap (overrides ISOTROPY_CAP)")


def _add_tensor_source(parser, kind_choice=True):
    parser.add_argument("--tensor", help="tensor JSON file")
    parser.add_argument("--q", type=int, help="field order (prime power)")
    parser.add_argument("--n", type=int, help="ambient dimension")
    parser.add_argument("--d", type=int, help="order of the map")
    parser.add_argument("--m", type=int, help="codomain dimension")
    if kind_choice:
        parser.add_argument("--kind", choices=("hom", "alt"), help="tensor kind (default hom)")
    parser.add_argument("--seed", type=int, help="splitmix64 seed (default 0)")
    parser.add_argument(
        "--r",
        type=int,
        help="search over the degree-r extension of the tensor's field (default 1)",
    )


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise PreconditionError(f"--{name.replace('_', '-')} is required")


def _refuse(args, name: str) -> None:
    """Reject a flag that the operation would not read."""
    if getattr(args, name) is not None:
        raise PreconditionError(
            f"'{args.command} {args.operation}' does not read --{name.replace('_', '-')}"
        )


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


def _load_tensor(args, kind=None):
    given = getattr(args, "kind", None)
    if kind and given not in (None, kind):
        raise PreconditionError(
            f"'{args.command} {args.operation}' needs a {kind!r} tensor, not --kind {given}"
        )
    if args.tensor:
        generation = ("q", "n", "d", "m", "seed", "kind")
        if any(getattr(args, name, None) is not None for name in generation):
            raise PreconditionError(
                "give either --tensor or generation parameters, not both"
            )
        T = tensor_from_dict(_read_json(args.tensor))
    else:
        _require(args, "q", "n", "d", "m")
        T = random_tensor(
            field_of_order(args.q),
            args.n,
            args.d,
            args.m,
            kind or _value(args, "kind"),
            _value(args, "seed"),
        )
    if kind and T.kind != kind:
        raise PreconditionError(f"this operation needs a {kind!r} tensor, got {T.kind!r}")
    return _extend(args, T)


def _extend(args, T):
    """T over the degree-r extension of its field, r from --r."""
    r = _value(args, "r")
    if r < 1:
        raise PreconditionError("--r must be a positive integer")
    if r > 1:
        T = base_change(T, field_make(T.field.p, T.field.e * r))
    return T


def _emit(args, payload: dict) -> None:
    stamped = {**payload, "timestamp": datetime.now(timezone.utc).isoformat()}
    _write(args.out, json.dumps(stamped, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# formula
# ---------------------------------------------------------------------------


def _generic(value) -> dict:
    return {"value": value, "branch": "generic"}


def _box_exponent(args) -> dict:
    exponent, admissible = formulas.box_exponent(args.n, args.d, args.m)
    return {**_generic(str(exponent)), "admissible": admissible}


# quantity -> (the flags it needs, evaluator of the document's value fields)
FORMULAS = {
    "alpha-bound": (("n", "d", "m"), lambda a: _generic(formulas.alpha_bound(a.n, a.d, a.m))),
    "alpha-alt": (
        ("n", "d", "m"),
        lambda a: formulas.alpha_alt_closed(a.n, a.d, a.m, a.char_zero)._asdict(),
    ),
    "fp": (("d", "m", "k"), lambda a: formulas.fp_number(a.d, a.m, a.k, a.char_zero)._asdict()),
    "turan": (
        ("n", "d", "k"),
        lambda a: formulas.turan_number(a.n, a.d, a.k, a.char_zero)._asdict(),
    ),
    "gq": (("n", "d"), lambda a: formulas.gq_number(a.n, a.d)._asdict()),
    "iso2": (("n", "d", "m"), lambda a: _generic(formulas.has_plane_isotropy(a.n, a.d, a.m))),
    "box-exponent": (("n", "d", "m"), _box_exponent),
}


def cmd_formula(args) -> int:
    needs, evaluate = FORMULAS[args.quantity]
    _require(args, *needs)
    params = {name: getattr(args, name) for name in ("n", "d", "m", "k") if getattr(args, name)}
    if args.char_zero:
        params["char_zero"] = True
    _emit(
        args,
        {"command": "formula", "quantity": args.quantity, "params": params, **evaluate(args)},
    )
    return 0


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------


# isotropy flag -> the operations that read it; the others refuse it
# (field-min reads --seed only to sample, and alt and hom take only a
# --kind that names their own kind)
ISOTROPY_READERS = {
    "k": ("hom", "incidence-alt"),
    "samples": ("field-min",),
    "raw": ("incidence-alt", "incidence-hom"),
    "seed": ("alt", "hom", "field-min", "planes"),
    "r": ("alt", "hom", "planes"),
    "kind": ("alt", "hom", "planes"),
}


def cmd_isotropy(args) -> int:
    cap = _cap(args)
    op = args.operation
    for name, readers in ISOTROPY_READERS.items():
        if op not in readers:
            _refuse(args, name)
    if op in ("hom", "incidence-alt"):
        _require(args, "k")
    if op == "field-min" and args.samples is None:
        _refuse(args, "seed")
    if op in ("field-min", "incidence-alt", "incidence-hom"):
        _refuse(args, "tensor")
        _require(args, "q", "n", "d", "m")
    if op == "alt":
        T = _load_tensor(args, kind="alt")
        result = isotropy.alpha_alt(T, cap)
        payload = result.to_dict()
    elif op == "hom":
        T = _load_tensor(args, kind="hom")
        result = isotropy.alpha_hom(T, args.k, cap)
        payload = result.to_dict()
    elif op == "field-min":
        F = field_of_order(args.q)
        result = isotropy.alpha_field_alt(
            F, args.n, args.d, args.m, cap, samples=args.samples, seed=_value(args, "seed")
        )
        payload = result.to_dict()
    elif op == "incidence-alt":
        F = field_of_order(args.q)
        payload = {"count": str(isotropy.count_alt_incidence(F, args.n, args.d, args.m, args.k))}
        if args.raw:
            payload["raw_count"] = str(
                isotropy.count_alt_incidence_raw(F, args.n, args.d, args.m, args.k, cap)
            )
    elif op == "incidence-hom":
        F = field_of_order(args.q)
        payload = {"count": str(isotropy.count_hom_incidence(F, args.n, args.d, args.m))}
        if args.raw:
            payload["raw_count"] = str(
                isotropy.count_hom_incidence_raw(F, args.n, args.d, args.m, cap)
            )
    elif op == "planes":
        T = _load_tensor(args)
        tuples = isotropy.isotropic_plane_tuples(T, cap)
        payload = {
            "count": str(len(tuples)),
            "tuples": [[V.to_dict() for V in tup] for tup in tuples],
        }
    else:  # pragma: no cover
        raise PreconditionError(f"unknown operation {op}")
    payload["command"] = f"isotropy-{op}"
    payload["params"] = _source_params(args)
    _emit(args, payload)
    return 0


def _source_params(args) -> dict:
    out = {}
    for name in ("q", "n", "d", "m", "k", "seed", "samples", "r"):
        v = _value(args, name)
        if v is not None:
            out[name] = v
    if getattr(args, "tensor", None):
        out["tensor"] = args.tensor
    return out


# ---------------------------------------------------------------------------
# rank / grassmann
# ---------------------------------------------------------------------------


def cmd_rank(args) -> int:
    cap = _cap(args)
    T = _load_tensor(args, kind="hom")
    if args.operation == "zeros":
        payload = {"zero_count": str(rank.zero_count(T, cap, method=args.method))}
    else:
        payload = rank.analytic_rank(T, cap).to_dict()
    payload["command"] = f"rank-{args.operation}"
    payload["params"] = _source_params(args)
    _emit(args, payload)
    return 0


def cmd_grassmann(args) -> int:
    cap = _cap(args)
    F = field_of_order(args.q)
    params = {"q": args.q, "n": args.n, "k": args.k}
    if args.operation != "strata":
        _refuse(args, "l")
        _refuse(args, "format")
    if args.operation == "count":
        payload = {"count": str(grassmann.gauss_binom(args.n, args.k, args.q))}
    elif args.operation == "enum":
        subs = list(grassmann.enumerate_grassmannian(F, args.n, args.k, cap))
        payload = {
            "count": str(len(subs)),
            "subspaces": [S.to_dict() for S in subs],
        }
    elif args.format == "csv":  # strata table
        if args.l is not None:
            raise PreconditionError("--format csv writes the whole profile; --l is not read")
        profile = grassmann.stratum_profile(F, args.n, args.k, cap)
        lines = ["l,count"] + [f"{l},{c}" for l, c in sorted(profile.items())]
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    else:  # strata
        params["l"] = args.l
        if args.l is not None:
            count = grassmann.stratum_count(F, args.n, args.k, args.l, cap)
            payload = {"l": args.l, "count": str(count)}
        else:
            profile = grassmann.stratum_profile(F, args.n, args.k, cap)
            payload = {"profile": {str(l): str(c) for l, c in sorted(profile.items())}}
    payload["command"] = f"grassmann-{args.operation}"
    payload["params"] = params
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# boxfree
# ---------------------------------------------------------------------------


def cmd_boxfree(args) -> int:
    cap = _cap(args)
    if args.operation == "gen":
        _refuse(args, "hypergraph_in")
        _require(args, "q", "n", "d", "m")
        if args.hypergraph is None:
            _refuse(args, "format")
        F = field_of_order(args.q)
        seed = _value(args, "seed")
        result = boxfree.box_pipeline(
            F, args.n, args.d, args.m, seed=seed, max_trials=_value(args, "max_trials"), cap=cap
        )
        if args.hypergraph:
            if args.format == "text":
                text = result.after.to_text(f"# {args.d} {args.n} {args.q} {args.m}")
            else:
                text = json.dumps(result.after.to_dict())
            _write(args.hypergraph, text)
        payload = {
            "command": "boxfree-gen",
            "params": {"q": args.q, "n": args.n, "d": args.d, "m": args.m, "seed": seed},
            "certificate": result.certificate.to_dict(),
        }
        if args.hypergraph:
            payload["hypergraph_file"] = args.hypergraph
        _emit(args, payload)
        return 0
    # verify: freeness of a stored hypergraph (JSON, or the text edge list)
    for name in ("q", "n", "d", "m", "seed", "max_trials", "hypergraph", "format"):
        _refuse(args, name)
    _require(args, "hypergraph_in")
    raw = _read(args.hypergraph_in)
    if raw.lstrip().startswith("#"):
        H = boxfree.hypergraph_from_text(raw)
    else:
        H = boxfree.Hypergraph.from_dict(_read_json(args.hypergraph_in, raw))
    free, witness = boxfree.freeness_check(H, cap)
    payload = {
        "command": "boxfree-verify",
        "params": {"in": args.hypergraph_in},
        "free": free,
        "witness": [list(pair) for pair in witness] if witness else None,
        "edge_count": str(H.edge_count),
    }
    _emit(args, payload)
    return 0 if free else 4


# ---------------------------------------------------------------------------
# tensor / selftest
# ---------------------------------------------------------------------------


def cmd_tensor(args) -> int:
    if args.operation == "random":
        _refuse(args, "tensor")
        _require(args, "q", "n", "d", "m")
        F = field_of_order(args.q)
        kind, seed = _value(args, "kind"), _value(args, "seed")
        T = _extend(args, random_tensor(F, args.n, args.d, args.m, kind, seed))
        if args.out:
            _write(args.out, json.dumps(T.to_dict(), indent=2, sort_keys=True))
            args.out = None  # the envelope goes to stdout
            payload = {"written": True}
        else:
            payload = {"tensor": T.to_dict()}
        _emit(args, {"command": "tensor-random", "params": _source_params(args), **payload})
        return 0
    T = _load_tensor(args)
    payload = {
        "command": "tensor-show",
        "params": {"tensor": args.tensor},
        "kind": T.kind,
        "q": T.field.q,
        "n": T.n,
        "d": T.d,
        "m": T.m,
        "coeff_count": len(T.coeffs),
        "nonzero_count": sum(1 for c in T.coeffs if c),
    }
    _emit(args, payload)
    return 0


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
    payload = {
        "command": "selftest",
        "params": {"seed": args.seed},
        "criteria": report["criteria"],
        "all_passed": all_passed,
    }
    _emit(args, payload)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multilin",
        description="Exact isotropy, rank, and box-free computations for "
        "multilinear maps over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="closed-form extremal quantities")
    p.add_argument("quantity", choices=tuple(FORMULAS))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--char-zero", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("isotropy", help="isotropic-subspace searches and counts")
    p.add_argument(
        "operation",
        choices=("alt", "hom", "field-min", "incidence-alt", "incidence-hom", "planes"),
    )
    _add_tensor_source(p)
    p.add_argument("--k", type=int, help="target subspace dimension")
    p.add_argument("--samples", type=int, help="sampling mode for field-min")
    p.add_argument(
        "--raw",
        action="store_true",
        default=None,
        help="also run the raw enumeration cross-check (incidence counts)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser("rank", help="zero-set counts and analytic rank")
    p.add_argument("operation", choices=("zeros", "ar"))
    _add_tensor_source(p, kind_choice=False)
    p.add_argument("--method", choices=("kernel", "raw"), default="kernel")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("grassmann", help="subspace enumeration and strata")
    p.add_argument("operation", choices=("enum", "count", "strata"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, help="intersection dimension (strata)")
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        help="strata output: json (the default) or the csv profile table",
    )
    _add_common(p)
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("boxfree", help="box-free hypergraph construction")
    p.add_argument("operation", choices=("gen", "verify"))
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int, help="projective dimension (ambient n+1)")
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, help="splitmix64 seed (gen; default 0)")
    p.add_argument("--max-trials", type=int, help="sampled map trials (gen; default 512)")
    p.add_argument("--hypergraph", help="write the box-free hypergraph here (gen)")
    p.add_argument("--hypergraph-in", help="hypergraph JSON to verify")
    p.add_argument(
        "--format",
        choices=("json", "text"),
        help="format of the --hypergraph file: json (the default) or text",
    )
    _add_common(p)
    p.set_defaults(func=cmd_boxfree)

    p = sub.add_parser("tensor", help="generate and inspect tensors")
    p.add_argument("operation", choices=("random", "show"))
    _add_tensor_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
