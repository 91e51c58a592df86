"""Run one ``qla`` command with every public function of the package traced.

Usage::

    PYTHONPATH=src python bench/tracer.py SPANS.json -- check --n 3

The tracer works from outside the program.  It imports ``qla.cli``, replaces
each public function of each ``qla`` module by a recording wrapper in every
``qla`` namespace that bound it (so a span knows which module called it), and
wraps a few ``Mat``/``BiMat`` methods.  The hot scalar operations
(``Scalar.__mul__``/``__add__`` and ``poly_gcd``) only count calls: a span
per scalar operation would cost more than the operation.

Spans are kept in memory as ``(name, start, end, parent, caller, extra)``
tuples, with ``parent`` the index of the enclosing span (-1 for the root
``cli.main`` span).  When the command ends the tracer writes the raw spans
and a per-name summary (calls, inclusive time, self time) to SPANS.json and
exits with the command's exit code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import traceback
from pathlib import Path

_perf = time.perf_counter

# Methods traced as spans, by class, with the span name they record.
_METHOD_SPANS = {
    ("tensors", "Mat"): ("inverse", "__matmul__"),
    ("tensors", "BiMat"): ("tilde", "to4dict"),
}
# Scalar-layer callables that are only counted.
_COUNTED_METHODS = {"__mul__": "scalars.mul", "__rmul__": "scalars.mul",
                    "__add__": "scalars.add", "__radd__": "scalars.add"}
_COUNTED_FUNCTIONS = {"poly_gcd": "scalars.gcd"}


class Tracer:
    """Span recorder shared by every wrapper of one traced command."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, caller: str):
        spans, stack = self.spans, self.stack
        sized = name == "tensors.contract"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            extra = None
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    extra = [args[0], sum(len(op) for op in args[1:]), len(result)]
                return result
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, caller, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import qla.cli  # noqa: F401  (loads every qla module)

        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("qla.") and mod is not None
        }
        for short, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                for caller, other in modules.items():
                    if vars(other).get(fname) is not fn:
                        continue
                    if short == "scalars":
                        if fname in _COUNTED_FUNCTIONS:
                            setattr(other, fname, self.counter(_COUNTED_FUNCTIONS[fname], fn))
                        continue
                    setattr(other, fname, self.span(f"{short}.{fname}", fn, caller))
        for (short, cls_name), methods in _METHOD_SPANS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                name = f"{short}.{cls_name}.{meth}"
                setattr(cls, meth, self.span(name, vars(cls)[meth], cls_name))
        scalar_cls = modules["scalars"].Scalar
        originals = {meth: vars(scalar_cls)[meth] for meth in _COUNTED_METHODS}
        wrapped: dict[int, object] = {}
        for meth, fn in originals.items():
            # __rmul__ is __mul__ (and __radd__ is __add__): share one counter.
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.counter(_COUNTED_METHODS[meth], fn)
            setattr(scalar_cls, meth, wrapped[id(fn)])

    def summary(self) -> dict:
        """Per-name calls, inclusive time (outermost spans) and self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _caller, _extra in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        for idx, (name, start, end, parent, _caller, _extra) in enumerate(spans):
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
            if not _inside(spans, parent, name):
                entry["total_s"] += end - start
        contract = {"calls": 0, "in_nnz": 0, "out_nnz": 0, "max_out_nnz": 0, "braid_s": 0.0}
        for name, start, end, _parent, caller, extra in spans:
            if name != "tensors.contract":
                continue
            pattern, in_nnz, out_nnz = extra
            contract["calls"] += 1
            contract["in_nnz"] += in_nnz
            contract["out_nnz"] += out_nnz
            contract["max_out_nnz"] = max(contract["max_out_nnz"], out_nnz)
            if caller == "qla_core" and pattern == "xy,yz,zw->xw":
                contract["braid_s"] += end - start
        return {"names": names, "counts": dict(self.counts), "contract": contract}


def _inside(spans: list, parent: int, name: str) -> bool:
    """True when some enclosing span has the same name (recursion)."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- QLA-ARGS...", file=sys.stderr)
        return 2
    out_path, qla_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    tracer.install()
    import qla.cli

    start = _perf()
    try:
        code = qla.cli.main(qla_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the command crashed: report it as `python -m qla.cli` would
        traceback.print_exc()
        code = 1
    wall = _perf() - start
    sys.stdout.flush()
    payload = {"argv": qla_args, "exit": code, "wall_s": wall, **tracer.summary(),
               "spans": tracer.spans}
    out_path.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
