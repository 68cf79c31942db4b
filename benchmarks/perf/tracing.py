"""In-memory span tracing for the perf benchmark's traced runs.

The tracer wraps public callables of the program from outside — instance
attributes, class attributes and module attributes — and edits nothing under
``src/``. Each wrapped call records a span ``{name, start, end, parent, id}``
and adds its duration to its parent's child time, so a layer's *self* time is
its span's duration minus the part of that interval its child spans cover.

Calls made once per request (buffer observe, pool acquire/release, session
steps, label simulations) are aggregated only: their count and self time are
kept, their individual spans are not, which bounds memory on long runs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: Spans beyond this many are counted but not kept.
MAX_SPANS = 200_000


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------- wrapping
    def wrap(self, name: str, fn, keep: bool = True):
        """Return ``fn`` wrapped so each call is recorded under ``name``."""
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((name, start, end, parent, span_id))
                    else:
                        self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = True) -> None:
        """Replace ``owner.attr`` (a class, module or instance attribute)
        with a traced wrapper; :meth:`restore` puts the original back."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), keep))
        self._undo.append((owner, attr, had_own, original))

    def restore(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -------------------------------------------------------------- readout
    def write_spans(self, path: Path) -> None:
        """Dump the kept spans (times relative to the first span) as JSON."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = {
            "dropped": self.dropped,
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p, "id": i}
                for n, s, e, p, i in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def install_layers(tracer: Tracer) -> None:
    """Wrap the class- and module-level entry points of every layer.

    Instance-level targets (a workload's controller, surrogate modules and
    drift detector) are wrapped by the workload, which owns those objects.
    """
    import repro.baseline.controller as baseline_controller
    import repro.core as core
    import repro.core.controller as core_controller
    import repro.core.dataset as core_dataset
    from repro.baseline.analytic import BatchAnalyticModel
    from repro.batching.buffer import BatchingBuffer
    from repro.batching.continuous import ContinuousSession
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serving.engine import ServingEngine
    from repro.serving.fleet import FleetEngine
    from repro.serving.pool import WarmPool
    from repro.serving.prewarm import PrewarmPolicy

    patch = tracer.patch
    # arrival / core / nn
    patch(core_controller, "latest_window", "core.window")
    patch(core, "label_windows", "core.label")
    patch(core, "train_surrogate", "core.train")
    patch(core, "estimate_gamma", "core.gamma")
    patch(Tensor, "backward", "nn.train.backward")
    patch(Adam, "step", "nn.train.optim")
    # batching / serverless simulation core
    patch(core_dataset, "simulate", "batching.simulate", keep=False)
    patch(BatchingBuffer, "observe", "batching.buffer.observe", keep=False)
    patch(ContinuousSession, "step", "batching.continuous.step", keep=False)
    # baseline
    patch(baseline_controller, "fit_map_kpc", "baseline.fit_kpc")
    patch(BatchAnalyticModel, "evaluate_grid", "baseline.solve")
    # serving
    patch(ServingEngine, "run", "serving.engine.run")
    patch(FleetEngine, "run", "serving.engine.run")
    patch(WarmPool, "acquire", "serving.pool.acquire", keep=False)
    patch(WarmPool, "release", "serving.pool.release", keep=False)
    patch(PrewarmPolicy, "plan", "serving.prewarm.plan")


# --------------------------------------------------------------------------
# Surrogate modules: names, and FLOPs / bytes computed from tensor shapes
# --------------------------------------------------------------------------

#: The surrogate's timed modules, in forward order.
NN_MODULES = (
    "seq_embed", "pos_enc",
    "enc0.attn", "enc0.ff", "enc0.norm",
    "enc1.attn", "enc1.ff", "enc1.norm",
    "fusion_attn", "feat_embed", "head",
)

_F64 = 8  # bytes per element; the nn package computes in float64


def _rows(shape) -> int:
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _linear(rows: int, n_in: int, n_out: int) -> tuple[int, int]:
    flops = 2 * rows * n_in * n_out + rows * n_out
    moved = _F64 * (rows * n_in + n_in * n_out + n_out + rows * n_out)
    return flops, moved


def module_cost(module, shape: tuple) -> tuple[int, int]:
    """(FLOPs, bytes moved) of one forward call on an input of ``shape``.

    Computed from the shapes, not measured: each operand is counted as read
    once and each result as written once.
    """
    from repro.nn.attention import MultiHeadAttention
    from repro.nn.layers import FeedForward, LayerNorm
    from repro.nn.transformer import PositionalEncoding

    if isinstance(module, FeedForward):
        rows = _rows(shape)
        hidden = module.fc1.out_features
        f1, b1 = _linear(rows, module.fc1.in_features, hidden)
        f2, b2 = _linear(rows, hidden, module.fc2.out_features)
        return f1 + rows * hidden + f2, b1 + 2 * _F64 * rows * hidden + b2
    if isinstance(module, MultiHeadAttention):
        d = module.embed_dim
        batch = shape[0]
        seq = shape[1] if len(shape) == 3 else 1
        fp, bp = _linear(batch * seq, d, d)
        scores = batch * module.num_heads * seq * seq
        flops = 4 * fp + 2 * scores * module.head_dim * 2 + 5 * scores
        moved = 4 * bp + _F64 * 4 * scores
        return flops, moved
    if isinstance(module, LayerNorm):
        n = _rows(shape) * shape[-1]
        return 7 * n, _F64 * (2 * n + 2 * shape[-1])
    if isinstance(module, PositionalEncoding):
        n = _rows(shape) * shape[-1]
        return n, _F64 * 3 * n
    raise TypeError(f"no cost model for {type(module).__name__}")


def surrogate_modules(model) -> list[tuple[str, object]]:
    """``(name, module)`` for every timed module of a DeepBATSurrogate; the
    two norms of an encoder layer share one name."""
    out = [("seq_embed", model.seq_embed), ("pos_enc", model.pos_enc)]
    for i, layer in enumerate(model.encoder.layers):
        out += [(f"enc{i}.attn", layer.attn), (f"enc{i}.ff", layer.ff),
                (f"enc{i}.norm", layer.norm1), (f"enc{i}.norm", layer.norm2)]
    out += [("fusion_attn", model.fusion_attn), ("feat_embed", model.feat_embed),
            ("head", model.head)]
    return out


def instrument_surrogate(tracer: Tracer, model, cost: dict) -> None:
    """Wrap each timed module's ``forward`` on this model instance and
    accumulate its computed ``(FLOPs, bytes)`` into ``cost[name]``."""
    for name, module in surrogate_modules(model):
        timed = tracer.wrap(f"nn.{name}", module.forward)

        def forward(x, *args, _timed=timed, _module=module, _name=name, **kwargs):
            flops, moved = module_cost(_module, x.shape)
            acc = cost.setdefault(_name, [0, 0])
            acc[0] += flops
            acc[1] += moved
            return _timed(x, *args, **kwargs)

        module.forward = forward
    tracer.patch(model, "predict", "nn.predict")
