"""Span wrappers for the traced benchmark run.

Every wrapper is installed from here; nothing under ``src/`` is edited.
A wrapper replaces a function or method on its defining module or class
and on every other ``depthzero`` module that imported the same object
(``from .cyclo import sum_of_roots`` leaves a second binding in
``charformula``).  Wrappers wrap the public name, so they sit outside any
``lru_cache`` and caching keeps working under tracing.

Spans are aggregated in memory per metric group and returned by
:meth:`Tracer.summary` when the run ends:

* ``calls``: number of calls (for a generator, of items produced);
* ``s``: time covered by the outermost span of the group, so nested or
  recursive calls are not counted twice;
* ``self_s``: span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

TIMED, COUNTED = "timed", "counted"

# (metric group, module, attributes, mode); "Class.method" names a method.
# A timed generator function is timed step by step (see Tracer.generator).
SPANS = [
    ("charformula.theta", "charformula", ["theta"], TIMED),
    ("charformula.orbit_sum", "charformula", ["orbit_character_sum"], TIMED),
    ("charformula.denominator", "charformula", ["weyl_denominator_exponent"], TIMED),
    ("charformula.rho_shift_solve", "charformula", ["rho_shift_solve"], TIMED),
    ("charformula.make_context", "charformula", ["make_context"], COUNTED),
    ("characters.eval_exponent", "characters",
     ["DepthZeroCharacter.eval_exponent", "CoverCharacter.eval_exponent"], TIMED),
    ("characters.enumerate", "characters",
     ["enumerate_characters", "enumerate_regular_characters"], TIMED),
    ("tori.weyl_apply", "tori", ["weyl_apply"], TIMED),
    ("tori.weyl_group_ops", "tori", ["weyl_compose", "weyl_inverse"], TIMED),
    ("tori.pair_model", "tori",
     ["pair_from_quad", "quad_from_pair", "pair_galois", "quad_galois",
      "pair_norm", "project_to_coinvariants"], TIMED),
    ("tori.tate_cohomology", "tori", ["tate_cohomology"], TIMED),
    ("tori.iter_strongly_regular", "tori", ["iter_strongly_regular"], TIMED),
    ("cyclo.sum_of_roots", "cyclo", ["sum_of_roots"], TIMED),
    ("cyclo.mul", "cyclo", ["CycInt.__mul__", "CycInt.__rmul__"], TIMED),
    ("cyclo.eq", "cyclo", ["CycInt.__eq__"], COUNTED),
    ("ffield.build", "ffield", ["FieldTower.build"], TIMED),
    ("ffield.walk", "ffield", ["_build_tables"], TIMED),
    ("ffield.cache", "ffield", ["_load_cache"], TIMED),
    ("ffield.add", "ffield", ["FieldTower.add"], COUNTED),
    ("localmodel.leading_diff", "localmodel", ["leading_diff"], TIMED),
    ("localmodel.eta_exponent", "localmodel", ["eta_exponent"], COUNTED),
    ("localmodel.uv_ops", "localmodel", ["uv_mul", "uv_inv", "uv_pow", "uv_galois"], COUNTED),
    ("dualgroup.sp_mul", "dualgroup", ["sp_mul"], TIMED),
    ("dualgroup.checks", "dualgroup",
     ["build_pinning", "reflection_square_check", "coroot_conjugation_check",
      "reflection_sign_table", "longest_lift_square_check", "coxeter_lift_fourth_check",
      "lift_independence_check", "weyl_action_checks", "cover_class_values"], TIMED),
    ("snf.smith_normal_form", "snf", ["smith_normal_form"], TIMED),
    ("uniqueness.threshold_scan", "uniqueness", ["threshold_scan"], TIMED),
    ("uniqueness.rigidity", "uniqueness", ["restriction_rigidity_check"], TIMED),
    ("uniqueness.excluded_count", "uniqueness",
     ["excluded_count", "excluded_count_inclusion_exclusion"], TIMED),
    ("driver.check", "driver", ["run_task"], TIMED),
    ("driver.emit", "driver", ["emit_report"], TIMED),
]


class Tracer:
    """In-memory span aggregates for one traced pass."""

    def __init__(self):
        self._stack = []  # child seconds of each open span, innermost last
        self.stats = {}  # group -> [calls, outermost seconds, self seconds]
        self._depth = {}  # group -> open spans of that group
        self.denominator_keys = set()
        self.builds = []  # (p, e, level, seed, entries, tracemalloc peak bytes)
        self.cache = {"hits": 0, "misses": 0}
        self.walked_entries = 0  # Zech entries of tables built by the walk
        self.checks = []  # (check id, seconds)

    # -- wrappers -----------------------------------------------------------

    def _enter(self, group):
        self._stack.append(0.0)
        self._depth[group] += 1

    def _exit(self, group, stats, elapsed):
        child = self._stack.pop()
        self._depth[group] -= 1
        stats[0] += 1
        stats[2] += elapsed - child
        if self._depth[group] == 0:
            stats[1] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def _stats(self, group):
        self._depth.setdefault(group, 0)
        return self.stats.setdefault(group, [0, 0.0, 0.0])

    def timed(self, group, fn, after=None):
        stats = self._stats(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(group)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(group, stats, clock() - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, group, fn):
        stats = self._stats(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, group, fn):
        """Times each step of the generator, not the consumer's loop body."""
        stats = self._stats(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter(group)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(group, stats, clock() - start)
                yield item

        return wrapper

    # -- per-group extras ---------------------------------------------------

    def _after_denominator(self, args, kwargs, result):
        ctx, rep = args
        self.denominator_keys.add((ctx.kind, ctx.q, ctx.eta_branch, rep))

    def _after_check(self, args, kwargs, result):
        _record, seconds = result
        self.checks.append((args[0]["id"], seconds))

    def _after_walk(self, args, kwargs, result):
        self.walked_entries += len(result[2])

    def _after_cache(self, args, kwargs, result):
        self.cache["misses" if result is None else "hits"] += 1

    def _build_with_peak(self, build):
        """FieldTower.build under tracemalloc, which runs only inside it."""

        def measured(cls, *args, **kwargs):
            tracemalloc.start()
            try:
                tower = build(cls, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.builds.append((tower.p, tower.e, tower.max_level, tower.seed,
                                len(tower.zech), peak))
            return tower

        return measured

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding listed in SPANS; call after importing depthzero."""
        afters = {
            "charformula.denominator": self._after_denominator,
            "driver.check": self._after_check,
            "ffield.cache": self._after_cache,
            "ffield.walk": self._after_walk,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "depthzero" or name.startswith("depthzero.")]
        for group, module_name, attrs, mode in SPANS:
            module = sys.modules[f"depthzero.{module_name}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        inner = raw.__func__
                        if group == "ffield.build":
                            inner = self._build_with_peak(inner)
                        setattr(cls, method, classmethod(self._wrap(group, inner, mode, afters)))
                    else:
                        setattr(cls, method, self._wrap(group, raw, mode, afters))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(group, original, mode, afters)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _wrap(self, group, fn, mode, afters):
        if mode == COUNTED:
            return self.counted(group, fn)
        if inspect.isgeneratorfunction(fn):
            return self.generator(group, fn)
        return self.timed(group, fn, afters.get(group))

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "denominator_distinct": len(self.denominator_keys),
            "builds": self.builds,
            "cache": self.cache,
            "walked_entries": self.walked_entries,
            "checks": self.checks,
        }
