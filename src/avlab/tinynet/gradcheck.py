"""Finite-difference verification of every differentiable op.

Analytic gradients are compared against central differences computed
in float64.  ``run_suite`` returns the max relative error per op over
a number of random instances; the CLI ``gradcheck`` subcommand prints
the table and the acceptance tests pin thresholds to it.
"""

from __future__ import annotations

import functools
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


def max_grad_error(loss, tensors: list[Tensor], h: float = FD_STEP) -> float:
    """Max relative error between each tensor's backprop ``.grad`` and the central
    differences over its ``.data`` of ``loss() -> Tensor``, a deterministic scalar."""
    loss().backward()
    return max(rel_error(t.grad, numerical_grad(lambda: float(loss().data), t.data, h)) for t in tensors)


@functools.lru_cache(maxsize=128)
def _probe_pattern(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    pattern = (np.cos(np.arange(math.prod(shape)) * 0.7) + 1.5).reshape(shape).astype(dtype)
    pattern.flags.writeable = False
    return pattern


def probe_sum(out: Tensor) -> Tensor:
    """Deterministic strictly-positive functional of ``out``; keeps the
    scalar loss sensitive to every output element.  The pattern is cached
    read-only per (shape, dtype)."""
    return T.tsum(T.mul(out, Tensor(_probe_pattern(out.data.shape, out.data.dtype))))


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

        record("conv3d", check_op(
            lambda ts: probe_sum(T.conv3d(ts[0], ts[1], (1, 2, 2), (1, 1, 1))),
            [rng.standard_normal((2, 3, 5, 6, 6)), 0.5 * rng.standard_normal((4, 3, 3, 3, 3))]))

        record("conv1d", check_op(
            lambda ts: probe_sum(T.conv1d(ts[0], ts[1], 2, 2)),
            [rng.standard_normal((2, 3, 17)), 0.5 * rng.standard_normal((4, 3, 5))]))

        record("relu", check_op(
            lambda ts: probe_sum(T.relu(ts[0])), [_away_from_zero(rng.standard_normal((3, 7)))]))

        record("sigmoid", check_op(
            lambda ts: probe_sum(T.sigmoid(ts[0])), [rng.standard_normal((3, 7))]))

        record("softmax", check_op(
            lambda ts: probe_sum(T.softmax(ts[0], axis=1)), [rng.standard_normal((3, 7))]))

        record("adaptive_avg_pool3d", check_op(
            lambda ts: probe_sum(T.adaptive_avg_pool3d(ts[0], (3, 1, 1))),
            [rng.standard_normal((2, 3, 7, 6, 5))]))

        record("adaptive_avg_pool1d", check_op(
            lambda ts: probe_sum(T.adaptive_avg_pool1d(ts[0], 4)),
            [rng.standard_normal((2, 3, 11))]))

        record("matmul", check_op(
            lambda ts: probe_sum(T.matmul(ts[0], ts[1])),
            [rng.standard_normal((3, 4)), rng.standard_normal((4, 5))]))

        record("add_broadcast", check_op(
            lambda ts: probe_sum(T.add(ts[0], ts[1])),
            [rng.standard_normal((3, 4)), rng.standard_normal((4,))]))

        record("mul", check_op(
            lambda ts: probe_sum(T.mul(ts[0], ts[1])),
            [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]))

        record("l2_distance", check_op(
            lambda ts: probe_sum(detector.distance_map(*ts)),
            [rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 3))]))

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
