"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces every public module-level function of the
wittcert modules, at every module that binds it (the defining module, modules
that imported it by name, and the package namespace), with a wrapper that
counts calls and accumulates inclusive and self time.  Self time is a span's
duration minus the time covered by its child spans.  A few wrappers also
look at arguments or results, for the counters that need them (Hilbert
symbols by completion kind, factorization sizes, search outcomes).

Spans are aggregated in memory per function and per (caller, callee) pair;
`snapshot()` returns the aggregate and `layer_metrics()` turns one into the
per-layer figures.
A function that no longer exists is simply not wrapped, and its metrics read
zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("arith", "localfields", "dyadic", "forms", "extensions",
           "involutions", "similitude", "codecs", "cli")
# Public methods worth a span of their own: (module, class, method).
METHODS = (("dyadic", "DyadicModel", "ternary_isotropic"),
           ("dyadic", "DyadicModel", "is_square"))

HILBERT_KINDS = ("real", "complex", "odd", "odd_ext", "dyadic", "dyadic_ext")
SEARCHERS = ("similitude.lemma_beta_search", "similitude.lemma24_certificate")


def _hilbert_kind(args, kwargs) -> str:
    E = args[2] if len(args) > 2 else kwargs.get("E")
    base = getattr(E, "base", None)
    p = getattr(base, "p", None)
    ext = bool(getattr(E, "gens", ()))
    if p is None:
        return "complex" if ext else "real"
    if p == 2:
        return "dyadic_ext" if ext else "dyadic"
    return "odd_ext" if ext else "odd"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()   # (caller, callee) -> calls
        self.counters: Counter = Counter()
        self.factor_args: set[int] = set()
        self.factor_max_bits = 0
        self._stack: list[list] = []      # [name, child_time, per-callee calls]
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {}
        for m in MODULES:
            try:
                modules[m] = importlib.import_module(f"wittcert.{m}")
            except ImportError:
                continue
        observers = self._observers()
        wrappers = {}
        for m, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{m}.{attr}", obj, observers)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "wittcert" or name.startswith("wittcert.")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for m, cls_name, meth in METHODS:
            cls = getattr(modules.get(m), cls_name, None)
            fn = getattr(cls, meth, None)
            if inspect.isfunction(fn):
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{m}.{meth}", fn, observers))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, observers: dict):
        if inspect.isgeneratorfunction(fn):
            counters = self.counters

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[name + ".items"] += 1
                    yield item
            return gen_wrapper

        observe = observers.get(name)
        stack, depth = self._stack, self._depth
        calls, incl, self_time, edges = self.calls, self.incl, self.self_time, self.edges

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_time[name] += dt - frame[1]
                if not depth[name]:
                    incl[name] += dt
                if parent is not None:
                    parent[1] += dt
                    edges[parent[0], name] += 1
            if observe is not None:
                observe(args, kwargs, result, parent, frame, dt)
            return result
        return wrapper

    def _observers(self) -> dict:
        counters = self.counters

        def factorize(args, kwargs, result, parent, frame, dt):
            n = abs(args[0] if args else kwargs["n"])
            self.factor_args.add(n)
            self.factor_max_bits = max(self.factor_max_bits, n.bit_length())

        def hilbert(args, kwargs, result, parent, frame, dt):
            counters["hilbert." + _hilbert_kind(args, kwargs)] += 1

        def note_child(key):
            # Count a callee inside the activation of the search that called it.
            def observe(args, kwargs, result, parent, frame, dt):
                if parent is not None and parent[0] in SEARCHERS:
                    if parent[2] is None:
                        parent[2] = Counter()
                    parent[2][key] += 1
                    if key == "norm" and result is False:
                        counters["rejected_norm"] += 1
            return observe

        def beta_search(args, kwargs, result, parent, frame, dt):
            tried = frame[2]["index"] if frame[2] else 0
            found = result is not None
            counters["rejected_index"] += tried - found
            counters["accepted"] += found

        def certificate(args, kwargs, result, parent, frame, dt):
            degree = getattr(getattr(result, "tower", None), "degree", None)
            counters[f"tower_degree.{degree}" if degree else "exhausted"] += 1
            # Stage two: every hyperbolicity test after the one for Q(sqrt d1)
            # judges a second generator d2.
            stage2 = (frame[2]["hyperbolic"] if frame[2] else 0) - 1
            if stage2 > 0:
                counters["rejected_index"] += stage2 - (degree == 4)
                counters["accepted"] += degree == 4

        def verify(args, kwargs, result, parent, frame, dt):
            if self._depth["similitude.lemma24_certificate"]:
                counters["verify_in_search_s"] += dt

        return {
            "arith.factorize": factorize,
            "localfields.hilbert_symbol": hilbert,
            "extensions.norm_member": note_child("norm"),
            "extensions.witt_index_over": note_child("index"),
            "extensions.is_hyperbolic_over": note_child("hyperbolic"),
            "similitude.lemma_beta_search": beta_search,
            "similitude.lemma24_certificate": certificate,
            "similitude.verify_certificate": verify,
        }

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "edges": {f"{a} -> {b}": n for (a, b), n in self.edges.items()},
            "counters": dict(self.counters),
            "factorize_distinct": len(self.factor_args),
            "factorize_max_bits": self.factor_max_bits,
        }


def merge(total: dict, part: dict) -> None:
    """Add the snapshot of one process into another's (cli children).
    Distinct factorize arguments are counted per process, as each process
    has its own caches."""
    for key in ("calls", "incl_s", "self_s", "edges", "counters"):
        bucket = total[key]
        for k, v in part[key].items():
            bucket[k] = bucket.get(k, 0) + v
    total["factorize_distinct"] += part["factorize_distinct"]
    total["factorize_max_bits"] = max(total["factorize_max_bits"], part["factorize_max_bits"])


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer figures, named as in BENCHMARK.json."""
    calls, incl, self_s = snap["calls"], snap["incl_s"], snap["self_s"]
    counters, edges = snap["counters"], snap["edges"]
    out: dict[str, float] = {}
    n_factor = calls.get("arith.factorize", 0)
    out["arith.factorize.calls"] = n_factor
    out["arith.factorize.self_s"] = self_s.get("arith.factorize", 0.0)
    out["arith.factorize.max_bits"] = snap["factorize_max_bits"]
    out["arith.factorize.distinct_ratio"] = (snap["factorize_distinct"] / n_factor) if n_factor else 0.0
    out["arith.padic_valuation.calls"] = calls.get("arith.padic_valuation", 0)
    out["arith.is_prime.calls"] = calls.get("arith.is_prime", 0)
    out["localfields.hilbert_symbol.calls"] = calls.get("localfields.hilbert_symbol", 0)
    for kind in HILBERT_KINDS:
        out[f"localfields.hilbert_symbol.calls.{kind}"] = counters.get("hilbert." + kind, 0)
    out["localfields.hilbert_symbol.self_s"] = self_s.get("localfields.hilbert_symbol", 0.0)
    n_fca = calls.get("localfields.form_class_at", 0)
    out["localfields.form_class_at.calls"] = n_fca
    out["localfields.form_class_at.self_s"] = self_s.get("localfields.form_class_at", 0.0)
    direct = edges.get("localfields.form_class_at -> localfields.hilbert_symbol", 0)
    out["localfields.symbols_per_form_class"] = direct / n_fca if n_fca else 0.0
    out["localfields.local_aniso_dim.calls"] = calls.get("localfields.local_aniso_dim", 0)
    for fn in ("build_model", "ternary_isotropic"):
        out[f"dyadic.{fn}.calls"] = calls.get(f"dyadic.{fn}", 0)
        out[f"dyadic.{fn}.self_s"] = self_s.get(f"dyadic.{fn}", 0.0)
    for fn in ("witt_decompose", "in_In", "in_G", "is_isometric", "is_isotropic"):
        out[f"forms.{fn}.calls"] = calls.get(f"forms.{fn}", 0)
        out[f"forms.{fn}.incl_s"] = incl.get(f"forms.{fn}", 0.0)
    out["extensions.aniso_dim_over.calls"] = calls.get("extensions.aniso_dim_over", 0)
    out["extensions.aniso_dim_over.incl_s"] = incl.get("extensions.aniso_dim_over", 0.0)
    out["extensions.places_over.calls"] = calls.get("extensions.places_over", 0)
    out["extensions.norm_member.calls"] = calls.get("extensions.norm_member", 0)
    out["similitude.candidates_tried"] = counters.get("similitude.candidate_classes.items", 0)
    out["similitude.rejected_norm"] = counters.get("rejected_norm", 0)
    out["similitude.rejected_index"] = counters.get("rejected_index", 0)
    for degree in (1, 2, 4):
        out[f"similitude.tower_degree.{degree}"] = counters.get(f"tower_degree.{degree}", 0)
    # The search verifies its own certificate before returning it; that
    # nested verification counts as verification, not search.
    out["similitude.verify_s"] = incl.get("similitude.verify_certificate", 0.0)
    out["similitude.search_s"] = (incl.get("similitude.lemma24_certificate", 0.0)
                                  - counters.get("verify_in_search_s", 0.0))
    return out
