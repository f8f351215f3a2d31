"""Outside-in tracer: spans recorded by wrappers around avlab's public functions.

The wrappers are installed only around the units of a traced run and
removed again before anything else happens, so end-to-end timings never
pay for them.  A span is ``(name, start_ns, end_ns, parent span, unit)``;
spans stay in memory and are written out when the run ends.  Self times
come from the spans: a span's duration minus the durations of its
children.

Ops of ``tinynet.tensor`` are grouped into ``conv3d``, ``conv1d``,
``pool3d``, ``pool1d`` and ``elementwise`` (every other op, including
``matmul`` and the reductions).  Each op output that carries a backward
closure counts as one tape node, and that closure is wrapped so its run
under ``Tensor.backward`` becomes a ``<group>.bwd`` span charged to the
same op group and detector layer as the forward call.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

OP_GROUPS = {
    "conv3d": "conv3d",
    "conv1d": "conv1d",
    "adaptive_avg_pool3d": "pool3d",
    "adaptive_avg_pool1d": "pool1d",
}
ELEMENTWISE_OPS = (
    "add", "sub", "mul", "matmul", "relu", "sigmoid", "exp", "log", "sqrt", "clip",
    "tsum", "mean", "reshape", "transpose", "softmax", "bce_loss",
)
GROUPS = ("conv3d", "conv1d", "pool3d", "pool1d", "elementwise")
LAYERS = ("visual.0", "visual.1", "visual.2", "audio", "attn", "fc")

# (module, attribute, span name) of the functions that get a plain span.
FUNCTIONS = (
    ("avlab.avdata", "synth_real_pair", "avdata.synth"),
    ("avlab.avdata", "synth_fake_pair", "avdata.synth"),
    ("avlab.avdata", "make_pairs", "avdata.make_pairs"),
    ("avlab.avdata", "save_pair", "avdata.save_pair"),
    ("avlab.avdata", "load_pair", "avdata.load_pair"),
    ("avlab.avdata", "AVPair.validate", "avdata.validate"),
    ("avlab.pseudofake", "apply_manipulation", "pseudofake.apply"),
    ("avlab.trainloop", "train", "trainloop.train"),
    ("avlab.tinynet.optim", "Adam.step", "tinynet.adam"),
    ("avlab.tinynet.tensor", "Tensor.backward", "tinynet.backward"),
    ("avlab.tinynet.gradcheck", "run_suite", "gradcheck.run_suite"),
    ("avlab.tinynet.gradcheck", "check_op", "gradcheck.check_op"),
    ("avlab.detector", "full_model_gradcheck", "gradcheck.model"),
    ("avlab.detector", "Detector.forward", "detector.forward"),
    ("avlab.detector", "Detector.extract_visual", "detector.visual"),
    ("avlab.detector", "Detector.extract_audio", "detector.audio"),
    ("avlab.detector", "Detector.classify", "detector.head"),
    ("avlab.detector", "distance_map", "detector.head"),
    ("avlab.detector", "attention_map", "detector.head"),
    ("avlab.detector", "Detector.score_batch", "detector.score_batch"),
    ("avlab.detector", "save_checkpoint", "detector.save_checkpoint"),
    ("avlab.detector", "load_checkpoint", "detector.load_checkpoint"),
    ("avlab.evalkit", "auc", "evalkit.auc"),
    ("avlab.cli", "main", "cli.main"),
    ("avlab.cli", "cmd_synth", "cli.synth"),
    ("avlab.cli", "cmd_augment", "cli.augment"),
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, as parallel lists to keep the per-call cost low
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.unit: list[int] = []
        self.layer: dict[int, str] = {}  # span -> detector layer it ran under
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._layers: list[str] = []
        self._unit = -1
        self._patches: list[tuple[object, str, object]] = []
        self._layer_of = weakref.WeakKeyDictionary()

    # ----------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.unit.append(self._unit)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def spanned(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    @contextmanager
    def unit_span(self, unit: int):
        """Root span of one traced unit; its self time is the benchmark's own."""
        self._unit = unit
        i = self.open(self.name_id("bench.unit"))
        try:
            yield
        finally:
            self.close(i)
            self._unit = -1

    # --------------------------------------------------------- install

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)``.

        A plain function is also replaced wherever another avlab module
        holds it under a ``from module import name`` binding.
        """
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        new = make(original)
        if "." in attr:
            self._patch(owner, leaf, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "avlab" or mod_name.startswith("avlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, new)

    @contextmanager
    def installed(self):
        """Wrap avlab's public functions for the duration of the block."""
        from avlab import detector
        from avlab.tinynet import layers

        try:
            for module, attr, name in FUNCTIONS:
                self._wrap(module, attr, functools.partial(self.spanned, name=name))
            for op in (*OP_GROUPS, *ELEMENTWISE_OPS):
                self._wrap("avlab.tinynet.tensor", op,
                           functools.partial(self._op, group=OP_GROUPS.get(op, "elementwise")))
            self._wrap("avlab.tinynet.gradcheck", "numerical_grad", self._numerical_grad)
            self._wrap("avlab.tinynet.tensor", "track_kinks", self._track_kinks)
            self._wrap("avlab.trainloop", "augment_sample", self._augment)
            self._wrap("avlab.evalkit", "evaluate", self._evaluate)
            self._wrap("avlab.container", "write_container", functools.partial(self._container, kind="write"))
            self._wrap("avlab.container", "read_container", functools.partial(self._container, kind="read"))
            self._wrap("avlab.detector", "Detector.__init__", self._register_layers)
            for cls in (layers.Conv3d, layers.Conv1d, layers.Linear, detector._ResBlock3d):
                self._patch(cls, "__call__", self._in_layer(cls.__call__))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # ------------------------------------------------- special wrappers

    def _op(self, fn, group: str):
        nid = self.name_id(f"tinynet.{group}")
        bwd_nid = self.name_id(f"tinynet.{group}.bwd")
        counts, layers, span_layer = self.counts, self._layers, self.layer
        is_conv = group in ("conv3d", "conv1d")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = layers[-1] if layers else None
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if layer is not None:
                span_layer[i] = layer
            counts[f"tinynet.{group}.calls"] += 1
            flop = 0
            if is_conv:
                x, w = args[0], args[1]
                flop = 2 * out.data.size * w.data[0].size
                counts[f"tinynet.{group}.fwd_flop"] += flop
                flop *= int(x.requires_grad) + int(w.requires_grad)
            self._tag_tape(out, args, bwd_nid, group, layer, flop)
            return out

        return wrapper

    def _tag_tape(self, out, args, bwd_nid: int, group: str, layer, flop: int) -> None:
        # Walk back from the output to the op's inputs and wrap every closure
        # this call created that no inner op wrapper has claimed.
        stop = {id(a) for a in args}
        todo = [out]
        while todo:
            node = todo.pop()
            closure = getattr(node, "_backward", None)
            if closure is None or id(node) in stop or getattr(closure, "_traced", False):
                continue
            node._backward = self._closure(closure, bwd_nid, group, layer, flop)
            flop = 0  # the op's own closure sits on its output, the first node visited
            self.counts["tinynet.tape_nodes"] += 1
            todo.extend(node._parents)

    def _closure(self, closure, nid: int, group: str, layer, flop: int):
        counts, span_layer = self.counts, self.layer
        flop_key = f"tinynet.{group}.bwd_flop"

        def backward(g):
            # bookkeeping first, so the walk's self time does not absorb it
            if flop:
                counts[flop_key] += flop
            i = self.open(nid)
            if layer is not None:
                span_layer[i] = layer
            try:
                closure(g)
            finally:
                self.close(i)

        backward._traced = True
        return backward

    def _register_layers(self, init):
        layer_of = self._layer_of

        @functools.wraps(init)
        def wrapper(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for i, (_, layer) in enumerate(model.visual_layers):
                layer_of[layer] = f"visual.{i}"
            for layer in model.audio_layers:
                layer_of[layer] = "audio"
            for layer in (model.proj_v, model.proj_a):
                if layer is not None:
                    layer_of[layer] = "attn"
            layer_of[model.fc1] = layer_of[model.fc2] = "fc"

        return wrapper

    def _in_layer(self, call):
        layer_of, stack = self._layer_of, self._layers

        @functools.wraps(call)
        def wrapper(layer, *args, **kwargs):
            prefix = layer_of.get(layer)
            if prefix is None:
                return call(layer, *args, **kwargs)
            stack.append(prefix)
            try:
                return call(layer, *args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def _numerical_grad(self, fn):
        counts = self.counts
        spanned = self.spanned(fn, "gradcheck.numerical_grad")

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted():
                counts["gradcheck.fd_evals"] += 1
                return f()

            return spanned(counted, *args, **kwargs)

        return wrapper

    def _track_kinks(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["gradcheck.probe_attempts"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _augment(self, fn):
        counts = self.counts
        spanned = self.spanned(fn, "trainloop.augment")

        @functools.wraps(fn)
        def wrapper(pair, donors, cfg, rng, counters=None):
            counters = {} if counters is None else counters
            made, rejected = counters.get("pseudofake", 0), counters.get("rejected", 0)
            out = spanned(pair, donors, cfg, rng, counters)
            counts["trainloop.augment_calls"] += 1
            counts["trainloop.pseudofakes"] += counters.get("pseudofake", 0) - made
            counts["trainloop.gate_passed"] += (
                counters.get("pseudofake", 0) - made + counters.get("rejected", 0) - rejected
            )
            return out

        return wrapper

    def _evaluate(self, fn):
        counts = self.counts
        spanned = self.spanned(fn, "evalkit.evaluate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = spanned(*args, **kwargs)
            counts["evalkit.windows"] += sum(len(v.scores) for v in report.videos)
            return report

        return wrapper

    def _container(self, fn, kind: str):
        counts = self.counts
        spanned = self.spanned(fn, f"container.{kind}")

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = spanned(path, *args, **kwargs)
            counts[f"container.bytes_{'written' if kind == 'write' else 'read'}"] += os.path.getsize(path)
            counts["container.files"] += 1
            return out

        return wrapper

    # ------------------------------------------------------------ output

    def self_times(self) -> list[int]:
        """Self time in ns of every span: its duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        """Write every span as gzip'd JSON: a name table and one row per span."""
        t0 = self.start[0] if self.start else 0
        rows = [
            [n, s - t0, e - t0, p, u]
            for n, s, e, p, u in zip(self.name, self.start, self.end, self.parent, self.unit)
        ]
        doc = {"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent", "unit"],
               "layers": {str(k): v for k, v in self.layer.items()}, "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ------------------------------------------------------------------ metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics of the traced units, as totals per unit.

    Times are in ms: inclusive span time for a layer's entry points, self
    time where spans of one kind nest (ops, and the ``*.self_ms`` metrics).
    Ratios and percentiles are over all traced units together.
    """
    names, name, parent = tr.names, tr.name, tr.parent
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    own = tr.self_times()
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        self_ns[key] += own[i]
        p = parent[i]
        if p < 0 or name[p] != nid:
            incl[key] += dur[i]
        layer = tr.layer.get(i)
        if layer is not None:
            layer_ns[f"{layer}.{'bwd' if key.endswith('.bwd') else 'fwd'}"] += own[i]

    # training steps: Detector.forward start to the end of the next Adam.step,
    # and the wait from that end to the next forward, per trainloop.train span
    fwd_id, adam_id, bwd_id = (tr.name_id(k) for k in ("detector.forward", "tinynet.adam", "tinynet.backward"))
    train_id = tr.name_id("trainloop.train")
    steps: list[int] = []
    wait = train_fwd = train_bwd = 0
    last: dict[int, tuple[int, int]] = {}  # train span -> (last forward start, last adam end)
    for i, nid in enumerate(name):
        p = parent[i]
        if p < 0 or name[p] != train_id:
            continue
        fwd_start, adam_end = last.get(p, (None, None))
        if nid == fwd_id:
            train_fwd += dur[i]
            if adam_end is not None:
                wait += tr.start[i] - adam_end
            last[p] = (tr.start[i], adam_end)
        elif nid == adam_id:
            if fwd_start is not None:
                steps.append(tr.end[i] - fwd_start)
            last[p] = (fwd_start, tr.end[i])
        elif nid == bwd_id:
            train_bwd += dur[i]

    c = tr.counts
    ms = 1e-6 / units
    out = {
        "avdata.synth_ms": incl["avdata.synth"] * ms,
        "avdata.pairs": calls["avdata.synth"] / units,
        "avdata.validate_ms": incl["avdata.validate"] * ms,
        "container.write_ms": incl["container.write"] * ms,
        "container.read_ms": incl["container.read"] * ms,
        "container.bytes_written": c["container.bytes_written"] / units,
        "container.bytes_read": c["container.bytes_read"] / units,
        "container.files": c["container.files"] / units,
        "pseudofake.apply_ms": incl["pseudofake.apply"] * ms,
        "pseudofake.apply_calls": calls["pseudofake.apply"] / units,
        "trainloop.augment_ms": incl["trainloop.augment"] * ms,
        "trainloop.augment_calls": c["trainloop.augment_calls"] / units,
        "trainloop.pseudofake_ratio": _ratio(c["trainloop.pseudofakes"], c["trainloop.gate_passed"]),
        "trainloop.steps": len(steps) / units,
        "trainloop.step_ms_p50": _quantile(steps, 0.5) * 1e-6,
        "trainloop.step_ms_p90": _quantile(steps, 0.9) * 1e-6,
        "trainloop.data_wait_ms": wait * ms,
        "trainloop.fwd_ms": train_fwd * ms,
        "trainloop.bwd_ms": train_bwd * ms,
        "trainloop.self_ms": self_ns["trainloop.train"] * ms,
    }
    for g in GROUPS:
        out[f"tinynet.{g}.calls"] = c[f"tinynet.{g}.calls"] / units
        out[f"tinynet.{g}.fwd_ms"] = self_ns[f"tinynet.{g}"] * ms
        out[f"tinynet.{g}.bwd_ms"] = self_ns[f"tinynet.{g}.bwd"] * ms
    for g in ("conv3d", "conv1d"):
        out[f"tinynet.{g}.gflop"] = c[f"tinynet.{g}.fwd_flop"] * 1e-9 / units
        out[f"tinynet.{g}.fwd_gflops"] = _ratio(c[f"tinynet.{g}.fwd_flop"], self_ns[f"tinynet.{g}"])
    # flop per ns is GFLOP/s
    out["tinynet.conv3d.bwd_gflops"] = _ratio(c["tinynet.conv3d.bwd_flop"], self_ns["tinynet.conv3d.bwd"])
    out.update({
        "tinynet.tape_nodes": c["tinynet.tape_nodes"] / units,
        "tinynet.backward_walk_ms": self_ns["tinynet.backward"] * ms,
        "tinynet.adam_ms": incl["tinynet.adam"] * ms,
        "gradcheck.fd_evals": c["gradcheck.fd_evals"] / units,
        "gradcheck.ops_ms": incl["gradcheck.check_op"] * ms,
        "gradcheck.model_ms": incl["gradcheck.model"] * ms,
        "gradcheck.probe_ratio": _ratio(calls["gradcheck.model"], c["gradcheck.probe_attempts"]),
        "detector.visual_ms": incl["detector.visual"] * ms,
        "detector.audio_ms": incl["detector.audio"] * ms,
        "detector.head_ms": incl["detector.head"] * ms,
        "detector.score_batch_ms": incl["detector.score_batch"] * ms,
        "detector.score_batch_calls": calls["detector.score_batch"] / units,
    })
    for p in LAYERS:
        out[f"detector.layer.{p}.fwd_ms"] = layer_ns[f"{p}.fwd"] * ms
        out[f"detector.layer.{p}.bwd_ms"] = layer_ns[f"{p}.bwd"] * ms
    out.update({
        "evalkit.evaluate_ms": incl["evalkit.evaluate"] * ms,
        "evalkit.windows": c["evalkit.windows"] / units,
        "evalkit.self_ms": self_ns["evalkit.evaluate"] * ms,
        "evalkit.auc_ms": incl["evalkit.auc"] * ms,
        "cli.synth_ms": incl["cli.synth"] * ms,
        "cli.augment_ms": incl["cli.augment"] * ms,
        "cli.self_ms": (self_ns["cli.main"] + self_ns["cli.synth"] + self_ns["cli.augment"]) * ms,
    })
    return out


def _quantile(values: list[int], q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
