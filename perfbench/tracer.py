"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer rebinds layer functions in every ``multilin`` module namespace
that holds them (callers bind names such as ``isotropy.rref`` or
``rank._contract_last`` at import time, so wrapping only the definition
site would miss most calls).  Hot boundaries are aggregated into a call
count plus self time per layer; only instance and stage boundaries are
kept as individual spans.  Field arithmetic is counted, never spanned:
a span per ``Field.mul`` call would cost more than the work it measures.
Calls and counts are of outermost calls only: a wrapped function called
from inside another wrapped function of the same layer (or, for field
arithmetic, from inside any other counted op) is not counted again, so
a refactor that only inlines such a delegation leaves the counts alone.

A layer whose names are all gone from the library (a refactor moved or
deleted them) reports ``None`` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

# Layer name -> (defining module, attribute) pairs.  Every binding of the
# same function object in any multilin module is wrapped.
LAYERS = {
    "grassmann.rref": [("multilin.grassmann", "rref")],
    "grassmann.kernel": [("multilin.grassmann", "kernel_basis")],
    "grassmann.enum": [("multilin.grassmann", "enumerate_grassmannian")],
    "tensor.contract": [
        ("multilin.tensor", "_contract_first"),
        ("multilin.tensor", "_contract_slot"),
        ("multilin.rank", "_contract_last"),
    ],
    "tensor.eval": [("multilin.tensor", "tensor_eval")],
    "tensor.expand": [("multilin.tensor", "expand")],
    "isotropy.alpha_alt": [("multilin.isotropy", "alpha_alt")],
    "isotropy.plane_tuples": [
        ("multilin.isotropy", "count_plane_tuples"),
        ("multilin.isotropy", "isotropic_plane_tuples"),
    ],
    "rank.zero_count": [("multilin.rank", "zero_count")],
    "boxfree.build": [("multilin.boxfree", "build_hypergraph")],
    "boxfree.delete": [("multilin.boxfree", "delete_and_verify")],
    "boxfree.freeness": [("multilin.boxfree", "freeness_check")],
}

# Counted, never spanned.
COUNTED = {"rank.zero_count.rank_calls": [("multilin.grassmann", "rank")]}

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "pow")
FIELD_FUNCS = ("mul_func", "add_func")


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start):
        self.start = start
        self.child = 0.0


def _outermost_counter(counts, name):
    """A wrapper factory whose wrappers add 1 to ``counts[name]`` per call,
    except for calls made from inside another call it wrapped: a
    ``Field.sub`` that delegates to ``add`` and ``neg`` counts once."""
    counts.setdefault(name, 0)
    busy = [False]

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                busy[0] = False

        return wrapper

    return wrap


class Tracer:
    """Aggregating span recorder.

    ``enter``/``exit`` bracket one span; a span's self time is its
    duration minus the time covered by its direct child spans, so the
    self times of all spans add up to the traced wall time.  A span
    nested in an open span of the same name (``_contract_slot`` handing
    slot 0 to ``_contract_first``) adds its self time but no call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.depth = {}  # name -> open spans of that name
        self.spans = []  # (span_id, parent_id, name, start, end, attrs)
        self._open_ids = []
        self._next_id = 0
        self.installed = set()  # layer / counter names whose names were found
        self._undo = []

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append(_Frame(self.clock()))

    def exit(self, name):
        frame = self.stack.pop()
        dur = self.clock() - frame.start
        if self.stack:
            self.stack[-1].child += dur
        self.depth[name] -= 1
        if not self.depth[name]:
            self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        return frame.start, dur

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """An individually recorded span (instance or stage boundary)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._open_ids[-1] if self._open_ids else None
        self._open_ids.append(span_id)
        self.enter(name)
        try:
            yield
        finally:
            start, dur = self.exit(name)
            self._open_ids.pop()
            self.spans.append((span_id, parent, name, start, start + dur, attrs))

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call is one aggregated span of layer ``name``."""
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(name)
                    self.count(items)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, modname, attr, make_wrapper):
        """Replace every binding of ``modname.attr`` in multilin modules.
        Returns False when the name no longer exists."""
        mod = sys.modules.get(modname)
        target = getattr(mod, attr, None) if mod is not None else None
        if target is None or not callable(target):
            return False
        wrapper = make_wrapper(target)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "multilin" or name.startswith("multilin.")):
                continue
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, target))
        return True

    def _install_field(self):
        field_mod = sys.modules.get("multilin.field")
        cls = getattr(field_mod, "Field", None)
        if cls is None:
            return
        # One counter for the methods and the closures: an op counts once,
        # however many other ops it calls on the way.
        wrap = _outermost_counter(self.counts, "field.ops")
        found = False
        for attr in FIELD_OPS:
            fn = cls.__dict__.get(attr)
            if fn is None:
                continue
            setattr(cls, attr, wrap(fn))
            self._undo.append((cls, attr, fn))
            found = True
        for attr in FIELD_FUNCS:
            orig = cls.__dict__.get(attr)
            if orig is None:
                continue

            def make(orig=orig):
                @functools.wraps(orig)
                def func_wrapper(field):
                    op = orig(field)
                    if getattr(op, "__self__", None) is field:
                        return op  # a bound method, already counted above
                    return wrap(op)

                return func_wrapper

            setattr(cls, attr, make())
            self._undo.append((cls, attr, orig))
            found = True
        if found:
            self.installed.add("field.ops")

    def install(self):
        """Wrap every layer name that still exists."""
        hooks = {
            "isotropy.plane_tuples": self._on_plane_tuples,
            "boxfree.freeness": self._on_freeness,
            "boxfree.delete": self._on_delete,
        }
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                if self._rebind_everywhere(
                    modname,
                    attr,
                    lambda fn, layer=layer: self.timed(layer, fn, hooks.get(layer)),
                ):
                    self.installed.add(layer)
        for counter, targets in COUNTED.items():
            wrap = _outermost_counter(self.counts, counter)
            for modname, attr in targets:
                if self._rebind_everywhere(modname, attr, wrap):
                    self.installed.add(counter)
        self._install_field()

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- result hooks ----------------------------------------------------------

    def _on_plane_tuples(self, args, result):
        T = args[0]
        from multilin import gauss_binom

        found = result if isinstance(result, int) else len(result)
        self.count("isotropy.plane_tuples.found", found)
        self.count("isotropy.plane_tuples.space", gauss_binom(T.n, 2, T.field.q) ** T.d)

    def _on_freeness(self, args, result):
        edges = args[0].edge_count
        self.count("boxfree.freeness.pairs_computed", edges * (edges - 1) // 2)

    def _on_delete(self, args, result):
        self.count("boxfree.edges_before", args[1].edge_count)
        self.count("boxfree.edges_after", result[0].edge_count)

    # -- report ------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric name -> value (None when the layer's names are gone)."""

        def count(key):
            return self.counts.get(key, 0)

        def ratio(num, den):
            return count(num) / count(den) if count(den) else 0.0

        def self_time(layer):
            return layer, self.self_s.get(layer, 0.0)

        # metric -> (layer whose names it needs, value)
        spec = {"field.ops": ("field.ops", count("field.ops"))}
        for layer in ("grassmann.rref", "grassmann.kernel", "tensor.contract",
                      "tensor.eval", "tensor.expand", "isotropy.alpha_alt"):
            spec[layer + ".calls"] = (layer, self.calls.get(layer, 0))
            spec[layer + ".self_s"] = self_time(layer)
        tuples = "isotropy.plane_tuples"
        spec.update({
            "grassmann.enum.subspaces": ("grassmann.enum", count("grassmann.enum.items")),
            "grassmann.enum.self_s": self_time("grassmann.enum"),
            tuples + ".self_s": self_time(tuples),
            tuples + ".found": (tuples, count(tuples + ".found")),
            tuples + ".hit_ratio": (tuples, ratio(tuples + ".found", tuples + ".space")),
            "rank.zero_count.self_s": self_time("rank.zero_count"),
            "rank.zero_count.rank_calls":
                ("rank.zero_count.rank_calls", count("rank.zero_count.rank_calls")),
            "boxfree.build.self_s": self_time("boxfree.build"),
            "boxfree.delete.self_s": self_time("boxfree.delete"),
            "boxfree.freeness.self_s": self_time("boxfree.freeness"),
            "boxfree.freeness.pairs_computed":
                ("boxfree.freeness", count("boxfree.freeness.pairs_computed")),
            "boxfree.retained_ratio":
                ("boxfree.delete", ratio("boxfree.edges_after", "boxfree.edges_before")),
        })
        return {
            name: value if layer in self.installed else None
            for name, (layer, value) in spec.items()
        }
