"""Interleaved A/B timing of two revisions on one benchmark workload.

Usage, from anywhere inside a checkout::

    python3 tools/ab.py REV_A REV_B --workload {train,score,dataset,gradcheck} \\
        [--rounds N] [--seed S] [--out FILE]

Each revision is exported with ``git archive`` into a temporary directory
and served by one long-lived worker process, which imports that tree's
``src/avlab`` and ``perfbench/workloads.py``, runs the workload's set-up and
one warm-up unit, then runs one unit per request.  Round ``j`` times unit
``j`` (the same inputs) on both sides, A first in even rounds and B first
in odd ones, so a drift of the host's speed falls on both sides alike.
At round ``rounds // 2`` both workers stop and are spawned again in the
swapped order (A's worker first in the first half, B's in the second), so
each revision serves half the rounds from each spawn slot and a bias of
the slot falls on both sides alike too.
Units are timed inside the worker, with BLAS pinned to one thread, and
checked outside the timed region; the worker also counts the minor page
faults (``ru_minflt``) each timed unit takes, which show heap churn: memory
the allocator handed back to the kernel and the next unit faulted in again.
After its last unit each worker sends its peak resident memory
(``ru_maxrss``, set-up and warm-up included, like ``perfbench/run.py``'s
``peak_rss_mb``), so a memory claim can be checked in both orders too.
The clock is the one ``perfbench/run.py`` uses: user CPU time for a
workload that sets ``user_clock`` (dataset, whose file creation costs a
system time that follows the host's disk more than avlab), wall time for
the others.

The ratio of a round is B's unit time over A's: below 1 means B was
faster.  The script prints, and writes as JSON to ``--out`` if given (the
last stdout line is the same JSON object), the median ratio, a bootstrap
95% interval of that median, the interquartile range of the round ratios
and how many rounds each side won; each side's ``minflt_median`` and
``minflt_max`` are its minor faults per unit, and ``maxrss_mb`` the larger
peak resident memory of its two workers; ``halves`` holds each half's median
ratio and win counts, which agree when the spawn slot does not matter.
Resolution comes from many short interleaved rounds: one round's ratio
spreads by several percent.

The tool acts only on its own processes; it sets no CPU affinity,
frequency governor or other machine setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "score", "dataset", "gradcheck")
BOOTSTRAP_SAMPLES = 2000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="also write the JSON result here")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error(f"--rounds must be >= 1, got {args.rounds}")
    return args


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract ``rev``'s committed files into ``dest``; returns its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _user_time() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def serve(conn, tree: str, workload: str, seed: int, scratch: str) -> None:
    """Worker: set up ``workload`` from ``tree``, then time one unit per received index until
    None, on which it sends its peak resident memory in MB and exits."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, False, Path(scratch))
    wl.setup()
    clock = _user_time if wl.user_clock else time.perf_counter
    j = -1  # the warm-up unit; the driver drops its time
    while j is not None:
        gc.collect()
        faults = _minor_faults()
        t = clock()
        out = wl.unit(j)
        dt = clock() - t
        faults = _minor_faults() - faults
        problems = wl.check(out)
        wl.release(out)
        conn.send((dt, faults, problems))
        j = conn.recv()
    conn.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _quantiles(values):
    return [float(q) for q in np.quantile(values, (0.25, 0.5, 0.75))]


def summarize(times_a: list[float], times_b: list[float]) -> dict:
    """Median B/A round ratio, its bootstrap 95% interval, the round IQR and the win counts."""
    ratios = np.asarray(times_b) / np.asarray(times_a)
    picks = np.random.default_rng(0).integers(0, len(ratios), (BOOTSTRAP_SAMPLES, len(ratios)))
    lo, hi = np.quantile(np.median(ratios[picks], axis=1), (0.025, 0.975))
    q25, median, q75 = _quantiles(ratios)
    return {
        "median_ratio": median,
        "ci95": [float(lo), float(hi)],
        "ratio_iqr": q75 - q25,
        "b_wins": int((ratios < 1).sum()),
        "a_wins": int((ratios > 1).sum()),
        "ratios": ratios.tolist(),
    }


def _start(ctx, side: str, trees: dict, args) -> tuple:
    """Start the worker of ``side``; returns (side, conn, proc)."""
    tree, scratch = trees[side]
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=serve, args=(child, str(tree), args.workload, args.seed, str(scratch)), daemon=True)
    proc.start()
    child.close()
    return side, parent, proc


def _stop(workers) -> dict:
    """Stop the workers; returns each side's peak resident memory in MB, for the workers that sent it."""
    maxrss = {}
    for side, conn, proc in workers:
        try:
            conn.send(None)
            if conn.poll(30):
                maxrss[side] = conn.recv()
        except (OSError, EOFError):  # the worker is gone already
            pass
        proc.join(timeout=30)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    return maxrss


def run(args) -> dict:
    ctx = multiprocessing.get_context("spawn")
    half = args.rounds // 2
    # (spawn order, first round, end round) per half; with one round there is one half
    halves = [h for h in ((("a", "b"), 0, half), (("b", "a"), half, args.rounds)) if h[1] < h[2]]
    with tempfile.TemporaryDirectory(prefix="avlab-ab-") as tmp:
        sides, trees = {}, {}
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            tree, scratch = Path(tmp) / side, Path(tmp) / f"{side}-scratch"
            scratch.mkdir()
            trees[side] = (tree, scratch)
            sides[side] = {"rev": rev, "commit": export(rev, tree), "times": [], "faults": [], "maxrss": [],
                           "failed": 0}
        for order, start, end in halves:
            workers = []
            try:
                for side in order:
                    workers.append(_start(ctx, side, trees, args))
                workers.sort()  # the rounds address them A, B
                for side, conn, _ in workers:  # the warm-up units
                    _, _, problems = conn.recv()
                    sides[side]["failed"] += bool(problems)
                for j in range(start, end):
                    for side, conn, _ in workers if j % 2 == 0 else workers[::-1]:
                        conn.send(j)
                        dt, faults, problems = conn.recv()
                        sides[side]["times"].append(dt)
                        sides[side]["faults"].append(faults)
                        sides[side]["failed"] += bool(problems)
                        if problems:
                            print(f"check failed, {side} round {j}: {'; '.join(problems)}", file=sys.stderr)
            finally:
                for side, mb in _stop(workers).items():
                    sides[side]["maxrss"].append(mb)
    result = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds}
    for side, info in sides.items():
        q25, median, q75 = _quantiles(info["times"])
        result[side] = {"rev": info["rev"], "commit": info["commit"], "unit_s_median": median,
                        "unit_s_quartiles": [q25, q75], "failed": info["failed"],
                        "minflt_median": statistics.median_low(info["faults"]), "minflt_max": max(info["faults"]),
                        "maxrss_mb": max(info["maxrss"])}
    result.update(summarize(sides["a"]["times"], sides["b"]["times"]))
    result["halves"] = []
    for order, start, end in halves:
        ratios = np.asarray(result["ratios"][start:end])
        result["halves"].append({"rounds": [start, end], "spawned_first": order[0],
                                 "median_ratio": float(np.median(ratios)),
                                 "b_wins": int((ratios < 1).sum()), "a_wins": int((ratios > 1).sum())})
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    result = run(args)
    a, b = result["a"], result["b"]
    print(f"{args.workload}: {args.rounds} rounds; unit median A {a['unit_s_median'] * 1e3:.1f} ms "
          f"({a['rev']}), B {b['unit_s_median'] * 1e3:.1f} ms ({b['rev']})")
    print(f"B/A time ratio: median {result['median_ratio']:.4f}, 95% interval "
          f"[{result['ci95'][0]:.4f}, {result['ci95'][1]:.4f}], round IQR {result['ratio_iqr']:.4f}; "
          f"B faster in {result['b_wins']}, A faster in {result['a_wins']}")
    print(f"minor faults per unit, median (max): A {a['minflt_median']} ({a['minflt_max']}), "
          f"B {b['minflt_median']} ({b['minflt_max']}); peak RSS: A {a['maxrss_mb']:.1f} MB, "
          f"B {b['maxrss_mb']:.1f} MB")
    for h in result["halves"]:
        print(f"rounds {h['rounds'][0]}-{h['rounds'][1] - 1}, {h['spawned_first'].upper()} spawned first: "
              f"median {h['median_ratio']:.4f}; B faster in {h['b_wins']}, A faster in {h['a_wins']}")
    if a["failed"] or b["failed"]:
        print(f"failed checks: A {a['failed']}, B {b['failed']}")
    text = json.dumps(result, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 1 if a["failed"] or b["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
