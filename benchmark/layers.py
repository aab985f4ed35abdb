"""Layer tracing for the benchmark, from outside the package.

``install()`` replaces each traced function of ``ice_colors`` with a wrapper
at every attribute that binds it: in the module that defines it, in every
module that imported it by name, and on the package itself.  Functions that
a later version of the package no longer has are skipped, so their metrics
read zero.

Layer-boundary calls become spans (name, start, end, parent, time covered
by wrapped calls inside).  Hot leaf functions keep only call counts and
their total time.  A span's self time is its duration minus the covered
time.  ``op_metrics`` turns one operation's record into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter

# (defining module, attribute, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("lattice", "count_table", "lattice.count_table"),
    ("pn", "pn_consistent", "pn.pn_consistent"),
    ("pn", "pn_from_counts", "pn.pn_from_counts"),
    ("pn", "symmetry_check", "pn.symmetry_check"),
    ("tpoly", "pn_via_T", "tpoly.pn_via_T"),
    ("tpoly", "t_eval_coalesced", "tpoly.t_eval_coalesced"),
    ("exact", "interpolate", "exact.interpolate"),
    ("theta", "partition_brute", "theta.partition_brute"),
    ("theta", "partition_filali", "theta.partition_filali"),
    ("verify", "lattice_suite", "verify.lattice_suite"),
    ("verify", "identity_suite", "verify.identity_suite"),
    ("verify", "filali_suite", "verify.filali_suite"),
    ("verify", "specialization_suite", "verify.specialization_suite"),
)

# (defining module, attribute, leaf name); a dotted attribute is a method.
LEAVES = (
    ("lattice", "stats", "lattice.stats"),
    ("lattice", "heights", "lattice.heights"),
    ("lattice", "vertex_census", "lattice.vertex_census"),
    ("tpoly", "t_eval_distinct", "tpoly.t_eval_distinct"),
    ("exact", "det_exact", "exact.det_exact"),
    ("exact", "Poly.__mul__", "exact.poly_mul"),
    ("exact", "Poly.exact_div", "exact.exact_div"),
    ("theta", "theta", "theta.theta"),
    ("theta", "state_weight", "theta.state_weight"),
    ("verify", "state_violations", "verify.state_violations"),
)

# State generators, timed per step.  enumerate_states delegates to
# _states_for_turns, which count_table also walks directly; an inner walk
# inside an outer one is neither timed nor counted twice.
WALKS = (
    ("lattice", "enumerate_states"),
    ("lattice", "_states_for_turns"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, covered]
        self.stack: list[int] = []
        self.leaf_depth = 0
        self.active: set[str] = set()
        self.time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _cover(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, self.stack[-1] if self.stack else None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            outer_leaves, self.leaf_depth = self.leaf_depth, 0
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                record[2] = clock()
                self.stack.pop()
                self.leaf_depth = outer_leaves
                if not outer_leaves:
                    self._cover(record[2] - record[1])
        return wrapper

    def _enter(self, name: str) -> float:
        self.active.add(name)
        self.leaf_depth += 1
        return clock()

    def _leave(self, name: str, start: float) -> None:
        elapsed = clock() - start
        self.active.discard(name)
        self.leaf_depth -= 1
        self.time[name] = self.time.get(name, 0.0) + elapsed
        if not self.leaf_depth:
            self._cover(elapsed)

    def leaf(self, name, fn, error=None, error_counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            if name in self.active:
                return fn(*args, **kwargs)
            start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                if error is not None and isinstance(err, error):
                    self.count(error_counter)
                raise
            finally:
                self._leave(name, start)
        return wrapper

    def walk(self, name, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            try:
                while True:
                    if name in self.active:
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                    else:
                        start = self._enter(name)
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                        finally:
                            self._leave(name, start)
                        self.count(counter)
                    yield item
            finally:
                steps.close()
        return wrapper

    def counting_make(self, fn, error):
        """Wrap resample(make, ...) so that every NearSingularError raised
        by ``make`` counts as one retry."""
        @functools.wraps(fn)
        def wrapper(make, *args, **kwargs):
            def counted():
                try:
                    return make()
                except error:
                    self.count("theta.near_singular_resamples")
                    raise
            return fn(counted, *args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "time": self.time,
                       "calls": self.calls, "counts": self.counts}, handle)


def _module(name: str):
    try:
        return importlib.import_module(f"ice_colors.{name}")
    except ImportError:
        return None


def _rebind(original, wrapper) -> None:
    """Point every ice_colors attribute that holds ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ice_colors"
                               or mod_name.startswith("ice_colors.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _lookup(mod_name: str, attr: str):
    """(owner, function) for ``attr`` of the module, or None."""
    owner = _module(mod_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, fn)


def install() -> Tracer:
    tracer = Tracer()
    exact = _module("exact")
    theta_mod = _module("theta")
    errors = {"tpoly.t_eval_distinct": (getattr(exact, "SingularInputError", None),
                                        "tpoly.singular_samples")}
    on_result = {
        "lattice.count_table": lambda args, table: tracer.count(
            "lattice.cells", len(getattr(table, "counts", ()))),
        "tpoly.t_eval_coalesced": lambda args, value: tracer.count(
            "tpoly.useful_samples", getattr(args[0] if args else None, "samples", 0)),
    }
    for mod_name, attr, name in SPANS:
        found = _lookup(mod_name, attr)
        if found:
            _rebind(found[1], tracer.span(name, found[1], on_result.get(name)))
    for mod_name, attr, name in LEAVES:
        found = _lookup(mod_name, attr)
        if not found:
            continue
        owner, fn = found
        wrapper = tracer.leaf(name, fn, *errors.get(name, (None, None)))
        if isinstance(owner, type):
            for cls_key, value in list(vars(owner).items()):
                if value is fn:  # e.g. Poly.__rmul__ is Poly.__mul__
                    setattr(owner, cls_key, wrapper)
        else:
            _rebind(fn, wrapper)
    for mod_name, attr in WALKS:
        found = _lookup(mod_name, attr)
        if found:
            _rebind(found[1], tracer.walk("lattice.enumerate_states",
                                          "lattice.states", found[1]))
    near_singular = getattr(theta_mod, "NearSingularError", None)
    found = _lookup("theta", "resample")
    if found and near_singular is not None:
        _rebind(found[1], tracer.counting_make(found[1], near_singular))
    return tracer


# ---------------------------------------------------------------------------
# per-operation metrics, computed by the parent from a dumped record


def op_metrics(record: dict) -> dict[str, float]:
    spans = record["spans"]
    time_of, calls, counts = record["time"], record["calls"], record["counts"]

    def outermost(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    def span_s(name: str) -> float:
        return sum(s[2] - s[1] for i, s in enumerate(spans)
                   if s[0] == name and outermost(i))

    def self_s(*names: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in spans if s[0] in names)

    def span_calls(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    attempted = calls.get("tpoly.t_eval_distinct", 0)
    useful = counts.get("tpoly.useful_samples", 0)
    return {
        "lattice.count_table_s": span_s("lattice.count_table"),
        "lattice.count_table_self_s": self_s("lattice.count_table"),
        "lattice.stats_s": time_of.get("lattice.stats", 0.0),
        "lattice.stats_calls": calls.get("lattice.stats", 0),
        "lattice.heights_s": time_of.get("lattice.heights", 0.0),
        "lattice.heights_calls": calls.get("lattice.heights", 0),
        "lattice.vertex_census_s": time_of.get("lattice.vertex_census", 0.0),
        "lattice.enumerate_states_s": time_of.get("lattice.enumerate_states", 0.0),
        "lattice.states": counts.get("lattice.states", 0),
        "lattice.cells": counts.get("lattice.cells", 0),
        "pn.pn_from_counts_s": span_s("pn.pn_from_counts"),
        "pn.pn_from_counts_calls": span_calls("pn.pn_from_counts"),
        "pn.pn_consistent_self_s": self_s("pn.pn_consistent"),
        "pn.symmetry_check_s": span_s("pn.symmetry_check"),
        "tpoly.pn_via_T_s": span_s("tpoly.pn_via_T"),
        "tpoly.t_eval_coalesced_calls": span_calls("tpoly.t_eval_coalesced"),
        "tpoly.t_eval_distinct_s": time_of.get("tpoly.t_eval_distinct", 0.0),
        "tpoly.t_eval_distinct_calls": attempted,
        "tpoly.singular_samples": counts.get("tpoly.singular_samples", 0),
        "tpoly.sample_yield": useful / attempted if attempted else 1.0,
        "exact.det_exact_s": time_of.get("exact.det_exact", 0.0),
        "exact.det_exact_calls": calls.get("exact.det_exact", 0),
        "exact.interpolate_s": span_s("exact.interpolate"),
        "exact.interpolate_calls": span_calls("exact.interpolate"),
        "exact.poly_mul_s": time_of.get("exact.poly_mul", 0.0),
        "exact.poly_mul_calls": calls.get("exact.poly_mul", 0),
        "exact.exact_div_s": time_of.get("exact.exact_div", 0.0),
        "theta.theta_s": time_of.get("theta.theta", 0.0),
        "theta.theta_calls": calls.get("theta.theta", 0),
        "theta.state_weight_s": time_of.get("theta.state_weight", 0.0),
        "theta.partition_brute_s": span_s("theta.partition_brute"),
        "theta.partition_filali_s": span_s("theta.partition_filali"),
        "theta.near_singular_resamples": counts.get("theta.near_singular_resamples", 0),
        "verify.lattice_suite_s": span_s("verify.lattice_suite"),
        "verify.identity_suite_s": span_s("verify.identity_suite"),
        "verify.filali_suite_s": span_s("verify.filali_suite"),
        "verify.specialization_suite_s": span_s("verify.specialization_suite"),
        "verify.state_violations_calls": calls.get("verify.state_violations", 0),
        "cli.run_self_s": self_s("cli.main", "cli.run"),
    }
