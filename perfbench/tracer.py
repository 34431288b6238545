"""Span tracing of looptopo's public functions, installed from outside the package.

The tracer replaces each traced function by a timing wrapper in every
looptopo namespace that holds it, because callers bind names at import time
(``data.visibilities_closed_form_batch``, ``regularizer.forward``,
``cli.load_checkpoint`` and so on). A wrapper records calls, total time and
the time of traced calls made inside it, so that self time is the span's
duration minus its child spans. Spans are aggregated in memory per function.
"""

import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "looptopo"


def _rows(arr, width=None):
    a = np.asarray(arr)
    if width:
        return a.size // width
    return 1 if a.ndim < 2 else a.shape[0]


def _loss_and_grad_flops(args, kwargs, result):
    """Matmul FLOPs of one loss_and_grad call, computed from the shapes.

    Forward multiplies every layer, the weight gradients multiply every layer
    again, and the upstream gradient multiplies every layer but the first.
    """
    model, x = args[0], args[1]
    batch = _rows(x)
    dims = [model.config.input_dim, *model.config.hidden_widths, model.config.output_dim]
    macs = [dims[i] * dims[i + 1] for i in range(len(dims) - 1)]
    return {"flops": 2 * batch * (2 * sum(macs) + sum(macs[1:]))}


#: Extra counts per traced function, computed from its arguments and result.
COUNTERS = {
    "forward_model.visibilities_closed_form_batch":
        lambda a, k, r: {"rows": _rows(a[0])},
    "serialization.write_array_bin": lambda a, k, r: {"bytes": np.asarray(a[0]).nbytes},
    "serialization.read_array_bin": lambda a, k, r: {"bytes": r.nbytes},
    "mlp.loss_and_grad": _loss_and_grad_flops,
    "mlp.forward": lambda a, k, r: {"rows": _rows(a[1])},
    "mlp.load_checkpoint": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "embeddings.gamma_g_inv": lambda a, k, r: {"rows": _rows(a[0], 8)},
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self):
        return self.total_s - self.child_s


class Tracer:
    """Install with ``with tracer:``; totals accumulate over every install.
    The package's modules must be imported before the first install."""

    def __init__(self, span_names):
        self.span_names = tuple(span_names)
        self.stats = {name: SpanStats() for name in self.span_names}
        self.not_found = []
        self._stack = []
        self._patches = None

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        return wrapper

    def _plan(self):
        """(module, attribute, original, wrapper) for every binding of every
        traced function, found once; names not found go to ``not_found``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        plan = []
        for name in self.span_names:
            module_name, fn_name = name.rsplit(".", 1)
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.not_found.append(name)
                continue
            wrapper = self._wrap(name, original)
            plan += [(m, attr, original, wrapper) for m in modules
                     for attr, value in list(vars(m).items()) if value is original]
        return plan

    def __enter__(self):
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    def value(self, name, quantity):
        """One per-layer quantity of a span: calls, s, self_s, a count, or
        gflops_computed (computed FLOPs over self time)."""
        st = self.stats[name]
        if quantity == "calls":
            return st.calls
        if quantity == "s":
            return st.total_s
        if quantity == "self_s":
            return st.self_s
        if quantity == "gflops_computed":
            return st.counts.get("flops", 0) / st.self_s / 1e9 if st.self_s > 0 else 0.0
        return st.counts.get(quantity, 0)
