"""Run the `verify` CLI in this interpreter with its library layers traced.

Usage: python3 perfbench/traced.py <verify arguments>

`conjchern` must be importable (run.py sets PYTHONPATH to the checkout's
`src`).  Before the CLI starts, every public function of each layer module,
plus the kernel methods listed in METHODS, is replaced by a wrapper that
counts calls and times them.  The wrapper is installed on every module and
class attribute that binds the original object, so names imported with
`from .x import f` and aliases such as `__rmul__ = __mul__` are traced too.

The CLI's report goes to stdout unchanged.  The trace goes to stderr as one
JSON object on the last line.  Times are in nanoseconds; run.py converts.

Span accounting: each wrapped call of a layer module is a frame.  A frame's
self time is its duration minus the durations of the frames directly nested
in it, so every instant inside the library is charged to the innermost open
frame's layer.  `report.timed_check` is timed but is no frame: the check body
it runs belongs to the layer that called it.  A function's inclusive time
counts only its outermost activations, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

LAYERS = ("poly", "dickson", "chern", "steenrod", "cyclo", "relations")

# Kernel methods traced in addition to each layer's public functions.
# CycInt and fp.check_modulus are left alone on purpose: at millions of
# calls per run the trace would mostly measure itself.
METHODS = {
    "poly": {"Poly": ("__mul__", "__pow__", "compose")},
    "steenrod": {"CohClass": ("__mul__",)},
    "cyclo": {"CycMatrix": ("kron", "__eq__")},
}


def _poly_terms(result) -> int:
    return len(result.terms)


def _graded_terms(result) -> int:
    return sum(len(part.terms) for part in result.parts.values())


# Spans that report the size of their result, as a term count.
RESULT_TERMS = {
    "dickson.f_n_product": _poly_terms,
    "chern.total_conj_chern": _graded_terms,
}


def _term_pairs(args) -> int:
    """Monomial pairs a Poly product visits: len(a) * len(b), or len(a) for a scalar."""
    a, b = args[0], args[1]
    other = b.terms if hasattr(b, "terms") else None
    if other is None:
        return len(a.terms) if isinstance(b, int) else 0
    return len(a.terms) * len(other)


class Tracer:
    def __init__(self):
        self.spans = {}  # key -> [calls, top-level calls, inclusive ns]
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.covered_ns = 0  # time inside some outermost library frame
        self.term_pairs = 0
        self.terms = {}  # key -> largest result term count seen
        self._stack = []  # one child-time accumulator per open library frame

    def wrap(self, layer: str, key: str, fn, frame: bool = True):
        span = self.spans.setdefault(key, [0, 0, 0])
        depth = [0]
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        sizer = RESULT_TERMS.get(key)
        pairs = key == "poly.Poly.__mul__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span[0] += 1
            top = depth[0] == 0
            if top:
                span[1] += 1
            depth[0] += 1
            if frame:
                child = [0]
                stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                if top:
                    span[2] += elapsed
                if frame:
                    stack.pop()
                    self_ns[layer] += elapsed - child[0]
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        self.covered_ns += elapsed
            if pairs and result is not NotImplemented:
                self.term_pairs += _term_pairs(args)
            if sizer is not None:
                self.terms[key] = max(self.terms.get(key, 0), sizer(result))
            return result

        return wrapper


def _package_modules():
    import conjchern

    modules = [conjchern]
    for info in pkgutil.iter_modules(conjchern.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"conjchern.{info.name}"))
    return modules


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _owners(modules):
    """Every namespace that can bind a library function: modules and their classes."""
    for module in modules:
        yield module
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def install(tracer: Tracer):
    """Wrap the targets and rebind every attribute that holds one.

    Returns the cached originals (for cache_info) and the list of places
    that still reference an original after patching; that list must be empty.
    """
    modules = _package_modules()
    by_module = {m.__name__: m for m in modules}
    targets = {}  # id(original) -> (original, wrapper)
    cached = {layer: [] for layer in LAYERS}
    for layer in LAYERS:
        module = by_module[f"conjchern.{layer}"]
        found = list(_public_functions(module))
        for cls_name, names in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            found += [(f"{cls_name}.{n}", vars(cls)[n]) for n in names]
        for name, fn in found:
            targets[id(fn)] = (fn, tracer.wrap(layer, f"{layer}.{name}", fn))
            if hasattr(fn, "cache_info"):
                cached[layer].append(fn)
    timed_check = by_module["conjchern.report"].timed_check
    targets[id(timed_check)] = (
        timed_check,
        tracer.wrap("report", "report.timed_check", timed_check, frame=False),
    )

    for owner in _owners(modules):
        for name, value in list(vars(owner).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, name, hit[1])
    return cached, _still_bound(modules, targets)


def _still_bound(modules, targets) -> list:
    """Names, containers and default arguments that still hold an original."""
    def is_original(value):
        hit = targets.get(id(value))
        return hit is not None and hit[0] is value

    left = []
    for owner in _owners(modules):
        label = getattr(owner, "__qualname__", owner.__name__)
        for name, value in vars(owner).items():
            if is_original(value):
                left.append(f"{label}.{name}")
            elif isinstance(value, (tuple, list, set, frozenset)):
                if any(is_original(v) for v in value):
                    left.append(f"{label}.{name}[...]")
            elif isinstance(value, dict):
                if any(is_original(v) for v in value.values()):
                    left.append(f"{label}.{name}{{...}}")
            func = getattr(value, "__func__", value)
            defaults = (getattr(func, "__defaults__", None) or ()) + tuple(
                (getattr(func, "__kwdefaults__", None) or {}).values()
            )
            if inspect.isfunction(func) and any(is_original(d) for d in defaults):
                left.append(f"{label}.{name}(defaults)")
    return left


def main(argv) -> int:
    tracer = Tracer()
    cached, still_bound = install(tracer)
    from conjchern import cli

    start = time.perf_counter_ns()
    code = cli.main(argv)
    wall_ns = time.perf_counter_ns() - start
    sys.stdout.flush()

    caches = {}
    for layer, fns in cached.items():
        infos = [fn.cache_info() for fn in fns]
        caches[layer] = {
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
        }
    trace = {
        "wall_ns": wall_ns,
        "covered_ns": tracer.covered_ns,
        "spans": tracer.spans,
        "self_ns": tracer.self_ns,
        "term_pairs": tracer.term_pairs,
        "terms": tracer.terms,
        "caches": caches,
        "still_bound": still_bound,
        "module_file": cli.__file__,
    }
    sys.stderr.write("\n" + json.dumps(trace, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
