"""Per-layer tracing installed from outside the package.

The wrappers replace the bindings the package itself calls through, so no
source file changes:

- `verify` and `cli` import `constant_speed` and `speed_profile` by name,
  so those names are replaced in `speed`, `verify` and `cli` alike;
- `speed` reaches `arith.tower_residues` as a module attribute;
- `primes` calls `is_prime` as a module global;
- `arith` calls the builtin `pow`; a counting `pow` bound into the module's
  globals shadows it.

Spans nest on a stack. A span's self time is its duration minus the time of
its child spans. Spans are aggregated per name in memory (a sweep makes
millions of `pow` calls) and reported when the run ends.
"""

from __future__ import annotations

import builtins
import time
from dataclasses import dataclass

from congspeed import arith, classes, cli, decadic, primes, speed, verify

SPEED_SPANS = ("speed.constant_speed", "speed.speed_profile")
SEARCH = "primes.search"
_MISSING = object()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "child_s", "last_table")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.last_table = None  # (b_max, digits) of the previous table in a speed span


class Tracer:
    """Aggregated spans and work counts for one traced pass."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: dict[str, SpanStats] = {}
        self.pow_calls = 0
        self.pow_s = 0.0
        self.pow_mod_bits = 0
        self.table_cells = 0
        self.max_digits = 0
        self.doublings = 0
        self.extensions = 0
        self.speed_tables = 0
        self.speed_queries = 0
        self.candidates = 0
        self.prime_hits = 0
        self.oracle_checks = 0
        self.oracle_check_s = 0.0
        self.class_spec_misses = 0
        self.root_residue_misses = 0
        self._saved: list[tuple] = []
        self._cache_mark = (0, 0)

    # -- spans -------------------------------------------------------------

    def _in(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    def _speed_frame(self):
        for f in reversed(self.stack):
            if f.name in SPEED_SPANS:
                return f
        return None

    def _cache_misses(self) -> tuple[int, int]:
        return (classes.class_spec.cache_info().misses,
                decadic.root_residue.cache_info().misses)

    def _enter(self, name: str) -> _Frame:
        if not self.stack:
            self._cache_mark = self._cache_misses()
        if name in SPEED_SPANS and self._speed_frame() is None:
            self.speed_queries += 1
        frame = _Frame(name)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, dt: float) -> None:
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += dt
        else:
            spec, root = self._cache_misses()
            self.class_spec_misses += spec - self._cache_mark[0]
            self.root_residue_misses += root - self._cache_mark[1]
        stats = self.spans.setdefault(frame.name, SpanStats())
        stats.calls += 1
        stats.total_s += dt
        stats.self_s += dt - frame.child_s

    def span(self, name: str, fn):
        """fn wrapped in a span called name."""
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, time.perf_counter() - t0)
        return wrapper

    # -- layer-specific wrappers --------------------------------------------

    def _pow(self, base, exp, mod=None):
        t0 = time.perf_counter()
        r = builtins.pow(base, exp, mod)
        dt = time.perf_counter() - t0
        self.pow_calls += 1
        self.pow_s += dt
        if mod is not None:
            self.pow_mod_bits += mod.bit_length()
        if self.stack:
            self.stack[-1].child_s += dt
        return r

    def _tables(self, fn):
        inner = self.span("arith.tower_residues", fn)

        def wrapper(a, b_max, digits):
            self.table_cells += b_max * (b_max + 1) // 2
            self.max_digits = max(self.max_digits, digits)
            frame = self._speed_frame()
            if frame is not None:
                self.speed_tables += 1
                last = frame.last_table
                if last is not None:
                    if digits > last[1]:
                        self.doublings += 1
                    elif b_max > last[0]:
                        self.extensions += 1
                frame.last_table = (b_max, digits)
            return inner(a, b_max, digits)
        return wrapper

    def _is_prime(self, fn):
        inner = self.span("primes.is_prime", fn)

        def wrapper(x):
            r = inner(x)
            if self._in(SEARCH):
                self.candidates += 1
                self.prime_hits += bool(r)
            return r
        return wrapper

    def _constant_speed(self, fn):
        inner = self.span("speed.constant_speed", fn)

        def wrapper(*args, **kwargs):
            if not self._in(SEARCH):
                return inner(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.oracle_checks += 1
                self.oracle_check_s += time.perf_counter() - t0
        return wrapper

    # -- installation -------------------------------------------------------

    def _bind(self, module, name, value) -> None:
        self._saved.append((module, name, module.__dict__.get(name, _MISSING)))
        setattr(module, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        const = self._constant_speed(speed.constant_speed)
        profile = self.span("speed.speed_profile", speed.speed_profile)
        self._bind(arith, "pow", self._pow)
        self._bind(arith, "tower_residues", self._tables(arith.tower_residues))
        for module in (speed, verify, cli):
            self._bind(module, "constant_speed", const)
            self._bind(module, "speed_profile", profile)
        self._bind(classes, "speed_by_formula",
                   self.span("classes.speed_by_formula", classes.speed_by_formula))
        self._bind(classes, "speed_by_membership",
                   self.span("classes.speed_by_membership", classes.speed_by_membership))
        self._bind(primes, "is_prime", self._is_prime(primes.is_prime))
        self._bind(primes, "smallest_prime_with_speed",
                   self.span(SEARCH, primes.smallest_prime_with_speed))
        self._bind(verify, "sweep", self.span("verify.sweep", verify.sweep))
        self._bind(cli, "main", self.span("cli.main", cli.main))
        self._bind(cli, "_load_cache", self.span("cli.load_cache", cli._load_cache))
        self._bind(cli, "_append_cache", self.span("cli.append_cache", cli._append_cache))

    def uninstall(self) -> None:
        for module, name, old in reversed(self._saved):
            if old is _MISSING:
                delattr(module, name)
            else:
                setattr(module, name, old)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- report -------------------------------------------------------------

    def _s(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        tables = self._s("arith.tower_residues")
        search = self._s(SEARCH)
        cache_load = self._s("cli.load_cache")
        cache_append = self._s("cli.append_cache")
        self_speed = sum(self._s(n).self_s for n in SPEED_SPANS)
        return {
            "arith.pow_calls": (self.pow_calls, "count"),
            "arith.pow_s": (self.pow_s, "s"),
            "arith.pow_mod_bits_mean": (self.pow_mod_bits / self.pow_calls if self.pow_calls else 0.0, "bits"),
            "arith.tables": (tables.calls, "count"),
            "arith.table_s": (tables.total_s, "s"),
            "arith.table_cells": (self.table_cells, "count"),
            "speed.queries": (self.speed_queries, "count"),
            "speed.tables_per_query": (self.speed_tables / self.speed_queries if self.speed_queries else 0.0, "ratio"),
            "speed.precision_doublings": (self.doublings, "count"),
            "speed.height_extensions": (self.extensions, "count"),
            "speed.max_digits": (self.max_digits, "digits"),
            "speed.self_s": (self_speed, "s"),
            "classes.formula_calls": (self._s("classes.speed_by_formula").calls, "count"),
            "classes.formula_s": (self._s("classes.speed_by_formula").total_s, "s"),
            "classes.membership_calls": (self._s("classes.speed_by_membership").calls, "count"),
            "classes.membership_s": (self._s("classes.speed_by_membership").total_s, "s"),
            "classes.class_spec_misses": (self.class_spec_misses, "count"),
            "decadic.root_residue_misses": (self.root_residue_misses, "count"),
            "primes.searches": (search.calls, "count"),
            "primes.candidates": (self.candidates, "count"),
            "primes.is_prime_s": (self._s("primes.is_prime").total_s, "s"),
            "primes.prime_ratio": (self.prime_hits / self.candidates if self.candidates else 0.0, "ratio"),
            "primes.oracle_checks": (self.oracle_checks, "count"),
            "primes.oracle_check_s": (self.oracle_check_s, "s"),
            "primes.enum_s": (search.self_s, "s"),
            "verify.sweep_self_s": (self._s("verify.sweep").self_s, "s"),
            "cli.cache_loads": (cache_load.calls, "count"),
            "cli.cache_s": (cache_load.total_s + cache_append.total_s, "s"),
            "cli.cache_appends": (cache_append.calls, "count"),
            "cli.self_s": (self._s("cli.main").self_s, "s"),
        }
