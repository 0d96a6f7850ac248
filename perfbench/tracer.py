"""Spans around icam's public functions, installed from outside the package.

Every binding of a traced function is replaced, including copies made by
`from .model import forward_trace`, so a call is seen whichever module it
goes through. A function the package no longer has is reported absent.
Spans stay in memory as (op, id, parent, function, start, end) tuples;
`summary` turns them into per-function calls, self time and total time.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _uniform_draws(args, kwargs):
    """generate_set(image, config): C*H*W noise + H*W mask draws each."""
    image = np.asarray(args[0] if args else kwargs["image"])
    config = args[1] if len(args) > 1 else kwargs["config"]
    c, h, w = image.shape[-3:]
    return {"prng.uniform_draws": config.n * (c * h * w + h * w)}


def _conv_work(args, kwargs):
    """forward_trace(model, image): conv MACs and float64 im2col bytes."""
    model = args[0] if args else kwargs["model"]
    image = np.asarray(args[1] if len(args) > 1 else kwargs["image"])
    batch = int(np.prod(image.shape[:-3], dtype=np.int64))
    cin = model.spec.input_shape[0]
    macs = cols = 0
    for block, (cout, oh, ow) in zip(model.spec.blocks,
                                     model.spec.block_shapes()):
        k = cin * block.kernel_size * block.kernel_size
        macs += cout * oh * ow * k
        cols += k * oh * ow * 8
        cin = cout
    return {"model.conv_macs": batch * macs, "model.im2col_bytes": batch * cols}


COUNT_HOOKS = {("perturb", "generate_set"): _uniform_draws,
               ("model", "forward_trace"): _conv_work}


class Tracer:
    """Wraps every binding of the traced functions; `on`/`off` swap them."""

    def __init__(self, traced):
        self.traced = list(traced)
        self.spans = []
        self.counts = {}        # counter name -> total over traced ops
        self.op = 0
        self._stack = [0]
        self._next_id = 1
        self._bindings = []     # (module, attribute, original, wrapper)
        self.absent = []
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "icam"
                                      or name.startswith("icam."))]
        for idx, (mod, fn) in enumerate(self.traced):
            home = sys.modules.get(f"icam.{mod}")
            orig = getattr(home, fn, None)
            if not callable(orig):
                self.absent.append(f"{mod}.{fn}")
                continue
            wrapper = self._wrap(idx, orig, COUNT_HOOKS.get((mod, fn)))
            self._bindings += [(m, attr, orig, wrapper)
                               for m in mods for attr, value in vars(m).items()
                               if value is orig]

    def on(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def off(self):
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)

    def _wrap(self, idx, fn, count_hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, \
            time.perf_counter

        def traced(*args, **kwargs):
            if count_hook is not None:
                try:
                    work = count_hook(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    work = {}   # signature changed: count nothing, never fail
                for key, n in work.items():
                    counts[key] = counts.get(key, 0) + n
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.op, sid, parent, idx, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per traced function: calls, self seconds, total seconds."""
        covered = {}
        for _, _, parent, _, t0, t1 in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        out = {f"{m}.{f}": [0, 0.0, 0.0] for m, f in self.traced}
        for _, sid, _, idx, t0, t1 in self.spans:
            m, f = self.traced[idx]
            row = out[f"{m}.{f}"]
            row[0] += 1
            row[1] += (t1 - t0) - covered.get(sid, 0.0)
            row[2] += t1 - t0
        return out
