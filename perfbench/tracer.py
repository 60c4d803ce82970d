"""Layer tracing from outside the program.

The tracer replaces module-level functions of autratio with timing
wrappers, in the benchmark process only and only while ``installed``.  Every
binding of a wrapped function is replaced (``from .x import f`` copies the
name into other modules), and internal calls that go through module globals
see the wrapper too.  Nothing under ``src/`` changes.

Each op opens a root span; a wrapped call opens a child span with name,
start, end, parent and the op's request id.  Calls made millions of times
per op (the per-prime kernels) and other leaf calls are not given spans:
their count, total time and item count are summed on the enclosing span.
A span's self time is its duration minus its child spans and its summed
leaf calls; a layer's self time is the sum over its spans and leaf calls.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Wrapped calls: (module, attribute, kind).  "span" gives one span per call,
# "leaf" sums count and time on the enclosing span, "gen" does the same for
# a generator function, timing each resumption.  Leaf and gen functions
# must not call another wrapped function, so their time is pure self time.
WRAPPED = (
    ("approximate", "approx_ray", "span"),
    ("approximate", "verify_certificate", "span"),
    ("subsum", "greedy_select", "span"),
    ("subsum", "_continue_fixed_point", "span"),
    ("primes", "PrimeStream.extend_to", "span"),
    ("autorder", "_f_log_bounds", "span"),
    ("oracle", "aut_order_bruteforce", "span"),
    ("search", "find_exact", "span"),
    ("search", "render_table", "span"),
    ("groups", "parse_group", "span"),
    ("fixedlog", "ln_fraction_bounds", "leaf"),
    ("fixedlog", "log_ratio_term_bounds", "leaf"),
    ("fixedlog", "term_block_fp60", "leaf"),
    ("autorder", "aut_order", "leaf"),
    ("groups", "factorize", "leaf"),
    ("search", "enumerate_groups", "gen"),
)

LAYERS = ("primes", "fixedlog", "subsum", "approximate", "autorder", "oracle", "search", "groups")

# leaf calls whose first argument's length is the work done (primes per block)
_ITEMS = {"fixedlog.term_block_fp60"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "leaf", "error")

    def __init__(self, sid, name, start, parent, request):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.leaf: dict[str, list] = {}
        self.error = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request = -1
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent, self._request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def begin_op(self, request: int) -> Span:
        self._request = request
        return self._open("op")

    def end_op(self, span: Span) -> None:
        self._close(span)

    def _add_leaf(self, owner: Span | None, name: str, seconds: float, items: int) -> None:
        if owner is None:
            return  # called outside any op (setup or checks): not traced
        entry = owner.leaf.get(name)
        if entry is None:
            owner.leaf[name] = [1, seconds, items]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += items

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        counts_items = name in _ITEMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                items = len(args[0]) if counts_items else 0
                self._add_leaf(self._stack[-1] if self._stack else None, name, dt, items)

        return wrapper

    def _gen_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = self._stack[-1] if self._stack else None
            gen = fn(*args, **kwargs)
            seconds = 0.0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        seconds += perf_counter() - t0
                        return
                    seconds += perf_counter() - t0
                    yield item
            finally:
                self._add_leaf(owner, name, seconds, 0)

        return wrapper

    def install(self, *callers) -> None:
        """Wrap every binding of the WRAPPED functions in the loaded autratio
        modules and in ``callers``, the benchmark modules that call them."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "autratio" or n.startswith("autratio."))
        ] + list(callers)
        for mod_name, attr, kind in WRAPPED:
            module = sys.modules["autratio." + mod_name]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            make = {"span": self._span_wrapper, "leaf": self._leaf_wrapper, "gen": self._gen_wrapper}[kind]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, make(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = make(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds, items, errors;
        per layer: self seconds.  Root op spans count toward no layer."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        funcs: dict[str, dict] = {}

        def entry(name):
            return funcs.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "items": 0, "errors": 0}
            )

        for s in self.spans:
            leaf_total = 0.0
            for name, (calls, seconds, items) in s.leaf.items():
                e = entry(name)
                e["calls"] += calls
                e["seconds"] += seconds
                e["self_seconds"] += seconds
                e["items"] += items
                leaf_total += seconds
            if s.name == "op":
                continue
            dur = s.end - s.start
            e = entry(s.name)
            e["calls"] += 1
            e["seconds"] += dur
            e["self_seconds"] += dur - child_time.get(s.id, 0.0) - leaf_total
            e["errors"] += s.error is not None
        layers = {layer: 0.0 for layer in LAYERS}
        for name, e in funcs.items():
            layers[name.split(".")[0]] += e["self_seconds"]
        return {"functions": funcs, "layer_self_seconds": layers}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "error": s.error,
                    "leaf": {k: {"calls": c, "seconds": t, "items": i} for k, (c, t, i) in s.leaf.items()},
                }) + "\n")
