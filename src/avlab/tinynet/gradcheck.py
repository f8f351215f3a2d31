"""Finite-difference verification of every differentiable op.

Analytic gradients are compared against central differences computed
in float64; a probe re-runs only the op calls downstream of the
perturbed tensor.  ``run_suite`` returns the max relative error per op over
a number of random instances; the CLI ``gradcheck`` subcommand prints
the table and the acceptance tests pin thresholds to it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from ..rng import substream
from . import tensor as T
from .tensor import Tensor

FD_STEP = 1e-3
OPS_TOLERANCE = 1e-4
# The full-model check (``detector.full_model_gradcheck``) uses a finer step,
# and redraws probe points closer than the margin to a relu/sqrt/clip kink.
MODEL_FD_STEP = 1e-5
MODEL_KINK_MARGIN = 5e-4
MODEL_TOLERANCE = 1e-3


def numerical_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f()`` w.r.t. ``x``,
    mutating ``x`` in place element by element.  The probes of ``f`` run
    under ``no_grad``, since nothing walks their tape."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    with T.no_grad():
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f()
            flat[j] = orig - h
            fm = f()
            flat[j] = orig
            gf[j] = (fp - fm) / (2.0 * h)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return math.inf  # so a NaN gradient never passes
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-6)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def replayed_losses(loss, tensors: list[Tensor]) -> list:
    """Per tensor, a probe returning ``float(loss().data)`` that re-runs only the op calls downstream of it.

    The calls come from one recorded tape-free pass of ``loss()``; the others'
    recorded outputs stand in, and each call goes through its name in
    ``tensor``, where a wrapper sees it.  Each tensor's first probe also runs
    the full ``loss()`` and raises RuntimeError unless both agree bit for bit,
    as they do when every dependency on the tensor passes through the ops.
    """
    with T.no_grad(), T.record() as calls:
        root = loss()
    return [_replay(loss, calls, root, k, t) for k, t in enumerate(tensors)]


def _replay(loss, calls: list[tuple], root: Tensor, k: int, t: Tensor):
    # The plan: every call taking t, or an earlier planned call's output, as an argument.
    # Each keeps its own argument list and keyword dict; its slots name the entries a
    # probe fills with fresh outputs.  The recorded calls keep every object alive, so ids stay unique.
    steps = []
    source = {id(t): None}  # id -> the planned call whose output it is; t itself is perturbed in place
    for name, args, kwargs, out in calls:
        args, kwargs = list(args), dict(kwargs)
        slots = [(box, key, source[id(v)]) for box, items in ((args, enumerate(args)), (kwargs, kwargs.items()))
                 for key, v in items if id(v) in source]
        if slots:
            source[id(out)] = len(steps)
            steps.append((name, args, kwargs, [s for s in slots if s[2] is not None]))
    last = source.get(id(root))
    checked = False

    def probe() -> float:
        nonlocal checked
        outs = []
        for name, args, kwargs, slots in steps:
            for box, key, i in slots:
                box[key] = outs[i]
            outs.append(getattr(T, name)(*args, **kwargs))
        value = float((root if last is None else outs[last]).data)
        if not checked:
            checked = True
            full = float(loss().data)
            if value.hex() != full.hex():
                raise RuntimeError(f"replayed loss {value!r} differs from loss() {full!r} when tensor {k} "
                                   f"of shape {t.shape} is perturbed: loss() uses it outside the recorded ops")
        return value

    return probe


def max_grad_error(loss, tensors: list[Tensor], h: float = FD_STEP) -> float:
    """Max relative error between each tensor's backprop ``.grad`` and the central
    differences over its ``.data`` of ``loss() -> Tensor``, a deterministic scalar,
    probed through :func:`replayed_losses`."""
    loss().backward()
    probes = replayed_losses(loss, tensors)
    return max(rel_error(t.grad, numerical_grad(f, t.data, h)) for t, f in zip(tensors, probes))


def probe_sum(out: Tensor) -> Tensor:
    """Deterministic strictly-positive functional of ``out``; keeps the
    scalar loss sensitive to every output element."""
    pattern = np.cos(np.arange(out.data.size) * 0.7) + 1.5
    return T.tsum(T.mul(out, Tensor(pattern.reshape(out.data.shape).astype(out.data.dtype))))


def check_op(build, inputs: list[np.ndarray]) -> float:
    """Max relative error over all inputs of ``build``.

    ``build(tensors) -> Tensor`` must return a scalar loss and be
    deterministic; ``inputs`` are float64 arrays used as requires-grad
    leaves.
    """
    leaves = [Tensor(arr, requires_grad=True) for arr in inputs]
    return max_grad_error(lambda: build(leaves), leaves)


def _away_from_zero(x: np.ndarray, margin: float = 0.2) -> np.ndarray:
    # keep relu kinks farther from zero than the FD step
    return x + np.sign(x + 1e-12) * margin


def run_suite(seed: int = 0, instances: int = 20, include_model: bool = True) -> dict[str, float]:
    """Finite-difference check of every op; returns {op: max rel err}."""
    from .. import detector

    if instances < 1:
        raise ConfigError(f"gradcheck needs instances >= 1, got {instances}")
    if seed < 0:
        raise ConfigError(f"gradcheck needs seed >= 0, got {seed}")
    results: dict[str, float] = {}

    def record(name, err):
        results[name] = max(results.get(name, 0.0), err)

    for inst in range(instances):
        rng = substream(seed, "gradcheck", inst)
        n = rng.standard_normal
        # (name, op, inputs), inputs drawn in this order; built per instance, so the ops
        # are looked up by name in ``tensor`` when the suite runs, where a wrapper sees them
        cases = [
            ("conv3d", lambda x, w: T.conv3d(x, w, (1, 2, 2), (1, 1, 1)),
             [n((2, 3, 5, 6, 6)), 0.5 * n((4, 3, 3, 3, 3))]),
            ("conv1d", lambda x, w: T.conv1d(x, w, 2, 2), [n((2, 3, 17)), 0.5 * n((4, 3, 5))]),
            ("relu", T.relu, [_away_from_zero(n((3, 7)))]),
            ("sigmoid", T.sigmoid, [n((3, 7))]),
            ("softmax", T.softmax, [n((3, 7))]),
            ("adaptive_avg_pool3d", lambda x: T.adaptive_avg_pool3d(x, (3, 1, 1)), [n((2, 3, 7, 6, 5))]),
            ("adaptive_avg_pool1d", lambda x: T.adaptive_avg_pool1d(x, 4), [n((2, 3, 11))]),
            ("matmul", T.matmul, [n((3, 4)), n((4, 5))]),
            ("add_broadcast", T.add, [n((3, 4)), n((4,))]),
            ("mul", T.mul, [n((3, 4)), n((3, 4))]),
            ("l2_distance", detector.distance_map, [n((2, 4, 3)), n((2, 4, 3))]),
        ]
        for name, op, inputs in cases:
            record(name, check_op(lambda ts, op=op: probe_sum(op(*ts)), inputs))

        y = (rng.uniform(size=(6,)) < 0.5).astype(np.float64)
        record("bce_loss", check_op(
            lambda ts: T.bce_loss(ts[0], y), [rng.uniform(0.1, 0.9, size=(6,))]))

    if include_model:
        for inst in range(instances):
            record("detector_full", detector.full_model_gradcheck(seed=seed, instance=inst))
    return results


def _tolerance(name: str) -> float:
    return MODEL_TOLERANCE if name == "detector_full" else OPS_TOLERANCE


def format_report(results: dict[str, float]) -> str:
    width = max(len(k) for k in results)
    lines = []
    for name in sorted(results):
        tol = _tolerance(name)
        status = "ok" if results[name] < tol else "FAIL"
        lines.append(f"{name:<{width}}  max rel err {results[name]:.3e}  (tol {tol:.0e})  {status}")
    return "\n".join(lines)


def suite_passed(results: dict[str, float]) -> bool:
    return all(err < _tolerance(name) for name, err in results.items())
