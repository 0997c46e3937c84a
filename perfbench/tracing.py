"""In-memory spans around fenet's public functions and methods.

`Tracer.install()` replaces every public function and every public method
of the traced fenet modules with a wrapper that records a span: name,
start, end, parent span and run id. Names imported into another fenet
module (`from .attacks import run_attack_batch`) are rebound too, so
every call path is seen. Nothing under src/ is edited; `uninstall()`
puts the originals back.

A few spans carry counts computed from their arguments or results
(images in a batch, Conv2D flops from shapes, bytes of a model file),
so ratios are measured where the work happens.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

TRACED_MODULES = ("filters", "nn", "attacks", "ensemble", "sensitivity", "data", "model_io")

# Span record fields, kept as a list per span for low overhead.
NAME, START, END, PARENT, RUN, COUNTS = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _backward_name(base):
    def namer(args, kwargs):
        params = _arg(args, kwargs, 4, "need_params", True)
        return f"{base}_params" if params else f"{base}_input"
    return namer


def _conv_macs(layer, n_out_cells):
    """Multiply-adds of one pass over `n_out_cells` output values."""
    return n_out_cells * layer.in_shape[2] * layer.kh * layer.kw


def _conv_forward_counts(args, kwargs, out):
    return {"flop": 2 * _conv_macs(args[0], out[0].size)}


def _conv_backward_counts(args, kwargs, out):
    gy = _arg(args, kwargs, 2, "gy")
    passes = bool(_arg(args, kwargs, 3, "need_input", True)) + bool(_arg(args, kwargs, 4, "need_params", True))
    return {"flop": 2 * _conv_macs(args[0], gy.size) * passes}


def _file_bytes(pos):
    def counts(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}
    return counts


def _images(args, kwargs, out):
    return {"images": len(out)}


NAMERS = {
    "filters.apply": lambda args, kwargs: f"filters.apply.{_arg(args, kwargs, 0, 'spec').kind}",
}

COUNTERS = {
    "filters.apply_batch": _images,
    "nn.Network.forward_batch": _images,
    "nn.Network.grad_input_batch": _images,
    "nn.Conv2D.forward": _conv_forward_counts,
    "nn.Conv2D.backward_input": _conv_backward_counts,
    "nn.Conv2D.backward_params": _conv_backward_counts,
    "attacks.run_attack_batch": lambda a, k, out: {"images": len(out), "flipped": sum(r.success for r in out)},
    "ensemble.Ensemble.classify_batch": _images,
    "sensitivity.sample_sensitivities": lambda a, k, out: {"samples": len(out)},
    "model_io.save_network": _file_bytes(1),
    "model_io.load_network": _file_bytes(0),
}


class Tracer:
    """Records nested spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name):
        namer = NAMERS.get(name)
        if name.endswith(".backward") and name.startswith("nn."):
            namer = _backward_name(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            rec = tracer._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            counter = COUNTERS.get(label)
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fenet.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, mattr, self._wrap(meth, f"{short}.{attr}.{mattr}"))
        # Rebind every module-level reference, including `from x import f` copies.
        for mod in [m for n, m in sys.modules.items() if n == "fenet" or n.startswith("fenet.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def count_under(spans, run_id, name, ancestor):
    """Spans called `name` in one run that have a span called `ancestor` above them."""
    n = 0
    for rec in spans:
        if rec[RUN] != run_id or rec[NAME] != name:
            continue
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        n += parent >= 0
    return n


def aggregate(spans, run_id):
    """Per-name totals for one run: calls, s (inclusive), self_s, durations, counts."""
    child = {}
    for rec in spans:
        if rec[RUN] == run_id and rec[PARENT] >= 0:
            child[rec[PARENT]] = child.get(rec[PARENT], 0.0) + (rec[END] - rec[START])
    out = {}
    for i, rec in enumerate(spans):
        if rec[RUN] != run_id:
            continue
        dur = rec[END] - rec[START]
        row = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": [], "counts": {}})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child.get(i, 0.0)
        row["durs"].append(dur)
        for key, val in (rec[COUNTS] or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out
