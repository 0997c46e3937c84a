"""Every span name that perfbench reads names a function or method its tracer wraps.

perfbench/tracing.py wraps the public functions of the traced fenet modules
and the public methods defined in their classes, and names each span
`module.function` or `module.Class.method`. A per-layer metric whose span
name no longer resolves (a renamed function, a method moved into a private
base class) reads 0 on every run, and the traced check only asks each count
to repeat. This test reads the names from perfbench's own tables and from
what `layer_metrics` in perfbench/run.py looks up; nothing runs a workload.
"""

import importlib
import inspect
import os
import sys

import pytest

from fenet import filters as flt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def perfbench_run():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(PERFBENCH)


class _Lookups(dict):
    """An empty aggregate that remembers every span name looked up in it."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def get(self, name, default=None):
        self.seen.add(name)
        return default


def _names_layer_metrics_reads(run, monkeypatch):
    seen = set()
    monkeypatch.setattr(run.tracing, "aggregate", lambda spans, run_id: _Lookups(seen))

    def count_under(spans, run_id, name, ancestor):
        seen.update((name, ancestor))
        return 0

    monkeypatch.setattr(run.tracing, "count_under", count_under)
    run.layer_metrics([], 0, _Lookups(seen), 1)
    return seen


def _traced_function(span):
    """The span's name as the tracer gives it to the wrapped function or method."""
    if span.startswith("filters.apply.") and span[len("filters.apply."):] in flt.KINDS:
        return "filters.apply"
    for part in ("_input", "_params"):
        if span.startswith("nn.") and span.endswith(".backward" + part):
            return span[: -len(part)]
    return span


def _wrapped_by_tracer(name, traced_modules):
    """True if tracing.Tracer.install wraps a function or method under this name."""
    short, *attrs = name.split(".")
    if short not in traced_modules or not 1 <= len(attrs) <= 2 or any(a.startswith("_") for a in attrs):
        return False
    mod = importlib.import_module(f"fenet.{short}")
    obj = vars(mod).get(attrs[0])
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    if len(attrs) == 1:
        return inspect.isfunction(obj)
    # the tracer wraps only methods defined in the class itself, not inherited ones
    return inspect.isclass(obj) and inspect.isfunction(vars(obj).get(attrs[1]))


def test_every_span_name_perfbench_reads_is_a_traced_fenet_function(perfbench_run, monkeypatch):
    run, tracing = perfbench_run, perfbench_run.tracing
    read = _names_layer_metrics_reads(run, monkeypatch)
    names = read | set(tracing.NAMERS) | set(tracing.COUNTERS)
    for kind in run.FILTER_KINDS:
        assert f"filters.apply.{kind}" in read
    for layer in run.NN_LAYERS:
        assert {f"nn.{layer}.forward", f"nn.{layer}.backward_input", f"nn.{layer}.backward_params"} <= read
    unresolved = sorted(n for n in names if not _wrapped_by_tracer(_traced_function(n), tracing.TRACED_MODULES))
    assert unresolved == [], f"span names that no traced fenet function or method carries: {unresolved}"


def test_the_span_check_rejects_what_the_tracer_would_not_name():
    traced = ("filters", "nn", "attacks")
    assert _wrapped_by_tracer("nn.Conv2D.backward", traced)
    assert _wrapped_by_tracer("filters.apply", traced)
    for name in ("nn.Conv2D.params", "nn.Dense.init_params", "nn.Network.backprop", "nn._xent",
                 "attacks.AttackConfig", "attacks.clamp01", "ensemble.certify_submodel", "nn.Conv2D.forward.x"):
        assert not _wrapped_by_tracer(name, traced), name
