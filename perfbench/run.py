"""Outside-in benchmark of avlab.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {train,score,dataset,gradcheck} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Runs one workload in this process on inputs made from ``--seed``, with
BLAS pinned to one thread and no worker pool.  Human-readable lines go
to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, timed with no wrappers
installed:

* ``items_per_s`` - items per unit / median unit time, where an item is
  a training sample (train), a scored window (score), a pair written by
  synth and augment (dataset) or a gradcheck instance (gradcheck);
* ``setup_s`` - time from the start of this script through the import
  of avlab, plus the median of three set-ups, each making the inputs and
  running one warm-up unit;
* ``peak_rss_mb`` - peak resident memory of this process.

Times are wall time, except on dataset, where every time (units and
``setup_s``) is user CPU time (see ``workloads.Dataset.user_clock``).
The three warm-up units use the same seed, and their outputs must be
identical.  Units then repeat until ``--seconds`` have passed.

``--trace 1`` reports the per-layer metrics that ``BENCHMARK.json``
lists.  It alternates untraced and traced units with the same seed, and
``trace.overhead_frac`` compares their shortest unit times.  The number
of pairs follows from ``--seconds`` and the workload's nominal unit time,
so counts repeat exactly for one seed.  A traced unit must give the same
outputs as its untraced twin.  The spans are written to
``.bench_out/trace-<workload>.json.gz``.

With no ``src/avlab`` in the checkout the script exits with code 2 and
prints no result.
"""

import os
import resource
import time


def _user_time() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


_START = {time.perf_counter: time.perf_counter(), _user_time: _user_time()}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["AVLAB_NUM_WORKERS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train", "score", "dataset", "gradcheck")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


class Runner:
    """Runs units of one workload and keeps the check tally."""

    def __init__(self, workload):
        self.wl = workload
        self.clock = _user_time if workload.user_clock else time.perf_counter
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed, {label}: {'; '.join(problems)}", file=sys.stderr)

    def timed(self, j: int, tracer=None):
        """Run unit ``j``, traced if ``tracer`` is given.

        Returns (seconds by ``self.clock``, wall seconds, output), the
        output None if the unit raised.
        """
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t, wall = self.clock(), time.perf_counter()
            try:
                with tracer.unit_span(j) if tracer else contextlib.nullcontext():
                    out = self.wl.unit(j)
            except Exception:  # noqa: BLE001 - a failing unit is counted, not fatal
                traceback.print_exc()
                out = None
            return self.clock() - t, time.perf_counter() - wall, out

    def checked(self, label: str, out, twin=None) -> None:
        """Check ``out``; with ``twin``, it must also match that fingerprint."""
        if out is None:
            self.record(label, ["unit raised"])
            return
        problems = self.wl.check(out)
        if twin is not None and self.wl.fingerprint(out) != twin:
            problems.append("outputs differ from the same unit run before")
        self.record(label, problems)


def run_untraced(runner: Runner, seconds: float, t_import: float) -> dict:
    wl = runner.wl
    setups, reference = [], None
    for k in range(SETUP_REPEATS):
        t = runner.clock()
        wl.setup()
        inputs_s = runner.clock() - t
        warm_s, _, out = runner.timed(-1)
        if out is None:
            raise RuntimeError("warm-up unit raised")
        setups.append(inputs_s + warm_s)
        runner.checked(f"warm-up {k}", out, twin=reference)
        if reference is None:
            reference = wl.fingerprint(out)
        wl.release(out)

    times = []
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < seconds:
        dt, _, out = runner.timed(j)
        if out is not None:
            times.append(dt)
        runner.checked(f"unit {j}", out)
        if out is not None:
            wl.release(out)
        j += 1

    if not times:
        times = [float("inf")]
    median = statistics.median(times)
    print(f"{wl.name}: {j} timed units, {wl.items()} {wl.item} each; unit "
          f"{'user CPU' if wl.user_clock else 'wall'} time min {min(times) * 1e3:.1f} ms, "
          f"median {median * 1e3:.1f} ms, max {max(times) * 1e3:.1f} ms; "
          f"items/s at the median {wl.items() / median:.6g}")
    print("unit_s: " + json.dumps(times))
    print(f"setup: import {t_import:.3f} s, set-ups " + ", ".join(f"{t:.3f}" for t in setups) + " s")
    return {
        "items_per_s": {"value": wl.items() / median, "unit": "1/s"},
        "setup_s": {"value": t_import + statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    from tracer import Tracer, layer_metrics

    wl = runner.wl
    wl.setup()
    _, _, out = runner.timed(-1)
    if out is None:
        raise RuntimeError("warm-up unit raised")
    runner.checked("warm-up", out)
    wl.release(out)

    pairs = max(1, round(seconds / (2.5 * wl.nominal_unit_s)))
    tr = Tracer()
    plain, traced, traced_wall = [], [], []
    for j in range(pairs):
        dt, _, out = runner.timed(j)
        plain.append(dt)
        runner.checked(f"unit {j}", out)
        twin = None if out is None else wl.fingerprint(out)
        if out is not None:
            wl.release(out)

        dt, wall, out = runner.timed(j, tracer=tr)
        traced.append(dt)
        traced_wall.append(wall)
        runner.checked(f"traced unit {j}", out, twin=twin)
        if out is not None:
            wl.release(out)

    metrics = layer_metrics(tr, pairs)
    metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
    # The root spans are checked against the independently clocked unit
    # times; the root's own self time is what no wrapped function covers.
    root = tr.name_id("bench.unit")
    root_ns = unwrapped_ns = 0
    for n, s, e, own in zip(tr.name, tr.start, tr.end, tr.self_times()):
        if n == root:
            root_ns += e - s
            unwrapped_ns += own
    print(f"{wl.name}: {pairs} traced units, {len(tr.name)} spans; the unit spans cover "
          f"{root_ns * 1e-9 / sum(traced_wall):.4f} of the traced units' wall time, and "
          f"{unwrapped_ns / root_ns:.4f} of that lies outside every wrapped avlab function; "
          f"overhead {metrics['trace.overhead_frac']:+.3f}")
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{wl.name}.json.gz")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "avlab" / "__init__.py").is_file():
        print(f"error: no avlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import avlab

    if Path(avlab.__file__).resolve().parent != (src / "avlab").resolve():
        print(f"error: imported avlab from {avlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = OUT / f"tmp-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload](args.seed, args.smoke, scratch))
    t_import = runner.clock() - _START[runner.clock]
    env = _environment()
    print("env: " + json.dumps(env, sort_keys=True))

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds)
        else:
            metrics = run_untraced(runner, args.seconds, t_import)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {runner.failed / runner.attempted:.6g} ratio")
    if not args.trace:
        print(f"  {runner.wl.throughput_name:<36} {metrics['items_per_s']['value']:.6g} 1/s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
