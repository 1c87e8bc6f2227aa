"""Per-layer tracing of the cubestable package, installed from outside it.

The tracer replaces chosen functions of ``cubestable.*`` with timing
wrappers at run time; nothing under ``src/`` is edited.  The package binds
many names with ``from .core import wht``, so every module-level binding
of a traced function is patched, not just the defining one, and
:meth:`Tracer.install` fails if any binding is left unpatched.

Each thread keeps its own span stack, so the self time of a span (its
duration minus the time of its direct child spans on the same thread) is
correct inside the 8-worker thread pools that ``verify`` starts.  A span
in a pool thread is not a child of the caller's span: the caller's
``parallel_map`` span counts the wait for its workers as self time.

Aggregates (calls, total and self seconds per key) and counters are kept
per thread and merged at the end.  Individual spans are kept in memory
only for sites called at most a few thousand times per run, and written
out with the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

# key(args, kwargs, state) -> span key; it may also bump counters.
KeyFn = Callable[[tuple, dict, "_ThreadState"], str]


def _n_bucket(n: int) -> str:
    return "n_le6" if n <= 6 else "n_ge7"


def _wht_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    f = args[0]
    key = "core.wht." + _n_bucket(f.n)
    # wht caches the spectrum on the table; only an uncached call runs the
    # n * 2**(n-1) butterflies of the transform.
    if getattr(f, "_spectrum", None) is None:
        st.add(key + ".butterfly_ops", f.n << (f.n - 1) if f.n else 0)
    return key


def _inverse_wht_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    key = "core.inverse_wht." + _n_bucket(args[0].n)
    parent = st.stack[-1][1]
    if parent.startswith("kfunctions.enumerate_spectral."):
        st.add(parent + ".leaves", 1)
    return key


def _values_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    return "core.TruthTable.values." + _n_bucket(args[0].n)


def _canonical_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    return "group.canonical_form." + ("n_le4" if args[0].n <= 4 else "n_ge5")


def _spectral_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    return f"kfunctions.enumerate_spectral.n{args[0]}k{args[1]}"


def _scan_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    _, _, start, stop = args
    st.add("kfunctions.enumerate_truth_tables.tables_scanned", stop - start)
    return "kfunctions.scan_range"


def _criterion_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    return f"verify.c{args[0]:02d}"


def _pass_key(args: tuple, kwargs: dict, st: "_ThreadState") -> str:
    threads = kwargs["threads"] if "threads" in kwargs else args[1]
    return f"verify.pass.threads{threads}"


@dataclass(frozen=True)
class Site:
    """One traced function: where it lives and how its spans are keyed."""

    module: str
    attr: str  # "Class.method" for a method
    name: str
    key: KeyFn | None = None
    keep_spans: bool = True
    iterates: bool = False


#: Every traced function.  Hot sites (hundreds of thousands of calls) keep
#: aggregates only.  ``iterates`` marks functions that return a generator;
#: time spent resuming it is charged to the function's span key.
SITES = [
    Site("cli", "main", "cli.main"),
    Site("serialize", "function_to_json", "serialize.function_to_json"),
    Site("serialize", "function_from_json", "serialize.function_from_json"),
    Site("core", "wht", "core.wht", _wht_key, keep_spans=False),
    Site("core", "inverse_wht", "core.inverse_wht", _inverse_wht_key, keep_spans=False),
    Site("core", "TruthTable.values", "core.TruthTable.values", _values_key),
    Site("core", "evaluate_sparse", "core.evaluate_sparse", keep_spans=False),
    Site("kfunctions", "enumerate_spectral", "kfunctions.enumerate_spectral",
         _spectral_key, iterates=True),
    Site("kfunctions", "enumerate_truth_tables", "kfunctions.enumerate_truth_tables",
         iterates=True),
    Site("kfunctions", "_scan_range", "kfunctions.scan_range", _scan_key),
    Site("kfunctions", "uniform_flip_count", "kfunctions.uniform_flip_count",
         keep_spans=False),
    Site("group", "canonical_form", "group.canonical_form", _canonical_key),
    Site("group", "apply", "group.apply"),
    Site("scenery", "exact_scenery", "scenery.exact_scenery"),
    Site("sos", "sos_count", "sos.sos_count"),
    Site("sos", "check_bounds", "sos.check_bounds"),
    Site("constructions", "lift_pair", "constructions.lift_pair"),
    Site("verify", "run_criterion", "verify.criterion", _criterion_key),
    Site("verify", "run_criteria", "verify.pass", _pass_key),
    Site("_util", "parallel_map", "util.parallel_map"),
]


class _ThreadState:
    __slots__ = ("ident", "stack", "stats", "counts", "spans")

    def __init__(self, ident: int):
        self.ident = ident
        # Frames are [child seconds, key]; the root frame is never popped.
        self.stack: list[list] = [[0.0, "root"]]
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`
    and read :meth:`aggregate` and :attr:`spans`."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._maxima: dict[str, int] = {}
        self.bindings: list[str] = []
        #: Identifier of the request in flight; every span records it.
        self.request = -1
        self.origin = time.perf_counter()

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _wrap(self, fn: Callable, site: Site) -> Callable:
        # Hot path: runs once per traced call, up to ~10**6 times per run,
        # so everything it needs is bound to a local first.
        tls = self._tls
        new_state = self._state
        perf = time.perf_counter
        tracer = self
        origin = self.origin
        name, key_fn, keep = site.name, site.key, site.keep_spans
        iterates = site.iterates

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            key = name if key_fn is None else key_fn(args, kwargs, st)
            stack = st.stack
            frame = [0.0, key]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[0] += dur
                rec = st.stats.get(key)
                if rec is None:
                    rec = st.stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if keep:
                    st.spans.append((tracer.request, st.ident, key, parent[1],
                                     t0 - origin, t1 - origin))
            if iterates and isinstance(result, types.GeneratorType):
                return tracer._resume(result, key)
            return result

        return wrapper

    def _resume(self, inner, key: str):
        """Re-yield ``inner``, charging each resume to ``key`` and counting
        the items it yields as ``<key>.hits``."""
        perf = time.perf_counter
        try:
            while True:
                st = self._state()
                frame = [0.0, key]
                st.stack.append(frame)
                t0 = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dur = perf() - t0
                    st.stack.pop()
                    st.stack[-1][0] += dur
                    rec = st.stats.setdefault(key, [0, 0.0, 0.0])
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                st.add(key + ".hits", 1)
                yield item
        finally:
            inner.close()

    def _parallel_map(self, original: Callable) -> Callable:
        """parallel_map that also records how many distinct threads ran
        its tasks, as the maximum over calls."""

        def parallel_map(fn, items, threads):
            seen: set[int] = set()

            def task(item):
                seen.add(threading.get_ident())
                return fn(item)

            try:
                return original(task, items, threads)
            finally:
                with self._lock:
                    old = self._maxima.get("util.parallel_map.workers", 0)
                    self._maxima["util.parallel_map.workers"] = max(old, len(seen))

        return parallel_map

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cubestable" or n.startswith("cubestable."))
                   and m is not None]
        for site in SITES:
            owner = sys.modules[f"cubestable.{site.module}"]
            if "." in site.attr:
                cls_name, meth = site.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, site))
                continue
            original = getattr(owner, site.attr)
            inner = original
            if site.name == "util.parallel_map":
                inner = self._parallel_map(original)
            wrapper = self._wrap(inner, site)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {site.name} found")
        # Nothing may still reach an original through a module global.
        originals = {id(orig) for _, _, orig in self._patches}
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{attr} left unpatched")
        #: Every patched binding, as module.attr (or Class.method).
        self.bindings = [f"{o.__name__}.{a}" for o, a, _ in self._patches]

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, list], dict[str, int]]:
        """Merged ({key: [calls, total_s, self_s]}, {counter: value})."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = dict(self._maxima)
        for st in self._states:
            for key, (calls, total, own) in st.stats.items():
                rec = stats.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
        return stats, counts

    @property
    def spans(self) -> list[dict]:
        out = []
        for st in self._states:
            for req, ident, key, parent, t0, t1 in st.spans:
                out.append({"request": req, "thread": ident, "name": key,
                            "parent": parent, "start_s": t0, "end_s": t1})
        out.sort(key=lambda s: s["start_s"])
        return out
