"""Per-layer call counts and self time, taken from outside tradekit.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every name in the ``tradekit`` modules and classes that refers to the
original, so a call through ``verify.rank_of_columns`` or
``BooleanElement.__rmul__`` is counted like a direct one.  Self time is a
call's duration minus the time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = ("combinatorics", "linalg", "boolean_algebra", "trades", "specht", "verify", "cli")

# (module, qualified name, extra counters reported besides calls and self_s)
LAYERS = [
    ("combinatorics", "colex_rank", ()),
    ("combinatorics", "colex_tuples", ()),
    ("linalg", "RationalMatrix.rank", ("cells",)),
    ("linalg", "RationalMatrix.matvec", ()),
    ("linalg", "IntegerEchelon.add", ("useful_ratio",)),
    ("linalg", "IntegerEchelon.contains", ()),
    ("linalg", "rank_of_columns", ()),
    ("boolean_algebra", "build_matrix", ("cells",)),
    ("boolean_algebra", "predicted_rank", ()),
    ("boolean_algebra", "element_to_vector", ()),
    ("boolean_algebra", "BooleanElement.__mul__", ()),
    ("boolean_algebra", "deletion_sum", ()),
    ("trades", "total_trade", ()),
    ("trades", "minimal_trade", ()),
    ("trades", "is_t_trade", ()),
    ("trades", "total_trade_specs", ("items",)),
    ("trades", "total_trade_basis", ()),
    ("specht", "standard_tableaux", ()),
    ("specht", "straighten", ("terms_out", "errors")),
    ("specht", "trade_map_expr", ()),
    ("verify", "check_inclusion_rank", ()),
    ("verify", "check_total_trade_dim", ()),
    ("verify", "check_kernel_decomposition", ()),
    ("verify", "check_intersection_rank", ()),
    ("verify", "check_combination_rank", ()),
    ("verify", "check_trade_basis", ()),
    ("verify", "literal_basis_audit", ()),
    ("verify", "check_graver_jurkat", ()),
    ("verify", "check_orbit_witness", ()),
    ("verify", "check_lambda_closed_form", ()),
    ("verify", "orbit_span", ("rank_sum",)),
    ("verify", "orbit_decomposition", ()),
    ("verify", "run_suite", ()),
    ("verify", "render_reports", ()),
    ("cli", "main", ()),
]


# Counters taken from a call's arguments and result, by qualified name.
_EXTRA_COUNTS = {
    "RationalMatrix.rank": lambda args, result: {"cells": args[0].nrows * args[0].ncols},
    "build_matrix": lambda args, result: {"cells": result.nrows * result.ncols},
    "IntegerEchelon.add": lambda args, result: {"useful": int(bool(result))},
    "orbit_span": lambda args, result: {"rank_sum": result.rank},
    "straighten": lambda args, result: {"terms_out": len(result.terms())},
}


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.stats = {f"{m}.{q}": _Stat() for m, q, _ in LAYERS}
        # Time taken by wrapped callees, one accumulator per open call.
        self._child = [0.0]

    def _wrap_function(self, name: str, qualname: str, fn):
        stat = self.stats[name]
        child = self._child
        clock = time.perf_counter
        extra = _EXTRA_COUNTS.get(qualname)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - child.pop()
                child[-1] += elapsed
            if extra is not None:
                for key, value in extra(args, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # Each resumption is timed as one span, so the consumer's code
        # between items is not charged to the generator.
        stat = self.stats[name]
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stat.self_s += elapsed - child.pop()
                    child[-1] += elapsed
                stat.counts["items"] = stat.counts.get("items", 0) + 1
                yield item

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"tradekit.{m}") for m in MODULES]
        modules.append(sys.modules["tradekit"])
        classes = {
            id(cls): cls
            for m in modules
            for cls in vars(m).values()
            if inspect.isclass(cls) and cls.__module__.startswith("tradekit")
        }
        targets = modules + list(classes.values())
        for module, qualname, _ in LAYERS:
            owner = importlib.import_module(f"tradekit.{module}")
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            name = f"{module}.{qualname}"
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_function(name, qualname, original)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <layer>.calls, .self_s and the extras."""
        out: dict[str, float] = {}
        for module, qualname, extras in LAYERS:
            name = f"{module}.{qualname}"
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            for extra in extras:
                if extra == "useful_ratio":
                    useful = stat.counts.get("useful", 0)
                    out[f"{name}.useful_ratio"] = useful / stat.calls if stat.calls else 0.0
                elif extra == "errors":
                    out[f"{name}.errors"] = stat.errors
                else:
                    out[f"{name}.{extra}"] = stat.counts.get(extra, 0)
        return out

    def self_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())
