"""The benchmark's four workloads.

Each workload builds its inputs from the run seed in ``setup``, runs one
timed ``unit`` at a time, and checks a unit's outputs in ``check``
(outside the timed region).  ``fingerprint`` reduces a unit's outputs to
something that must be identical when the same unit runs twice in one
build.  Unit ``j`` uses the seed ``unit_seed(seed, j)``; the warm-up unit
of the set-up is ``j = -1``.

Sizes (``smoke=False``):

* train     - ``trainloop.train`` for one epoch on 400 in-memory pairs, the
              c07 recipe (50% global_desync fakes, replace pseudo-fakes at
              p=0.5, batch 8, T'=8, C'=16, 16x3x32x32 clips, 1600 samples).
* score     - ``evalkit.evaluate(checkpoint_path, ...)`` over both eval
              splits of 30 long videos each (t_v=64, t_a=6400), 16-frame
              windows, batch 16.
* dataset   - ``avlab synth`` (train split of 200 local_desync pairs, eval
              splits of 20) then ``avlab augment`` with all four kinds, run
              in-process through ``cli.main``, then every written pair read
              back with ``load_pair`` and validated.
* gradcheck - ``gradcheck.run_suite(instances=1, include_model=True)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

from avlab import avdata, cli, evalkit, trainloop
from avlab.pseudofake import apply_manipulation
from avlab.rng import derive_seed
from avlab.tinynet import gradcheck


def unit_seed(seed: int, j: int) -> int:
    return seed * 1_000_003 + j + 1


def _pair_bytes(pair) -> bytes:
    return pair.visual.data.tobytes() + pair.audio.data.tobytes() + pair.label.encode()


class Workload:
    name = ""
    item = ""  # what one item of items_per_s is
    throughput_name = ""  # items_per_s under this workload's own name
    nominal_unit_s = 1.0  # unit wall time at the baseline; sizes the traced run
    user_clock = False  # time units by user CPU time instead of wall time

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch

    def setup(self) -> None:
        pass

    def unit(self, j: int):
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def check(self, out) -> list[str]:
        return []

    def fingerprint(self, out):
        return out

    def release(self, out) -> None:
        pass


class Train(Workload):
    name, item, nominal_unit_s = "train", "samples", 1.5
    throughput_name = "train_samples_per_s"

    def setup(self):
        self.pairs = None  # let the previous set-up's pairs go before making new ones
        self.n = 16 if self.smoke else 400
        self.cfg = trainloop.RunConfig(epochs=1)
        self.pairs = avdata.make_pairs(
            self.cfg.synth, self.n, 0.5, "global_desync",
            seed=derive_seed(self.seed, "train-data"), id_prefix="train",
        )

    def unit(self, j):
        cfg = self.cfg.copy()
        cfg.seed = unit_seed(self.seed, j)
        cfg.checkpoint_dir = str(self.scratch / f"train-{j}")
        trainloop.train(cfg, self.pairs)
        return Path(cfg.checkpoint_dir)

    def items(self):
        return self.n * self.cfg.epochs

    def check(self, out):
        lines = (out / "metrics.jsonl").read_text().splitlines()
        problems = []
        if len(lines) != self.cfg.epochs:
            problems.append(f"metrics.jsonl has {len(lines)} records for {self.cfg.epochs} epochs")
        losses = [json.loads(line)["loss"] for line in lines]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite epoch loss in {losses}")
        return problems

    def fingerprint(self, out):
        return (out / "checkpoint.avtc").read_bytes(), (out / "metrics.jsonl").read_bytes()

    def release(self, out):
        shutil.rmtree(out, ignore_errors=True)


def _pairwise_auc(videos) -> float:
    fakes = [v.video_score for v in videos if v.label == "fake"]
    reals = [v.video_score for v in videos if v.label == "real"]
    total = sum(1.0 if f > r else 0.5 if f == r else 0.0 for f in fakes for r in reals)
    return total / (len(fakes) * len(reals))


class Score(Workload):
    name, item, nominal_unit_s = "score", "windows", 0.4
    throughput_name = "score_windows_per_s"
    window = 16

    def setup(self):
        self.sets = None
        self.n = 4 if self.smoke else 30
        synth = avdata.SynthConfig(t_v=64, t_a=6400)
        fine_chunk = trainloop.EvalSpec().fine_chunk
        self.sets = {
            split: evalkit.make_split(synth, split, self.n, seed=derive_seed(self.seed, "eval", split),
                                      fine_chunk=fine_chunk)
            for split in evalkit.SPLITS
        }
        self.windows_per_video = synth.t_v // self.window
        cfg = trainloop.RunConfig(epochs=1, seed=self.seed, checkpoint_dir=str(self.scratch / "score-model"))
        train_set = avdata.make_pairs(cfg.synth, 16 if self.smoke else 64, 0.5, "global_desync",
                                      seed=derive_seed(self.seed, "train-data"), id_prefix="train")
        trainloop.train(cfg, train_set)
        self.checkpoint = Path(cfg.checkpoint_dir) / "checkpoint.avtc"

    def unit(self, j):
        policy = evalkit.SubsequencePolicy(length=self.window)
        return {
            split: evalkit.evaluate(self.checkpoint, eval_set, policy, batch_size=16)
            for split, eval_set in self.sets.items()
        }

    def items(self):
        return len(self.sets) * self.n * self.windows_per_video

    def check(self, reports):
        problems = []
        for split, report in reports.items():
            if len(report.videos) != self.n:
                problems.append(f"{split}: {len(report.videos)} videos, expected {self.n}")
            for v in report.videos:
                if len(v.scores) != self.windows_per_video:
                    problems.append(f"{split}/{v.video_id}: {len(v.scores)} windows")
                if not all(0.0 < s < 1.0 for s in v.scores):
                    problems.append(f"{split}/{v.video_id}: score outside (0, 1)")
            if abs(report.auc - _pairwise_auc(report.videos)) > 1e-9:
                problems.append(f"{split}: AUC {report.auc} differs from the pairwise AUC")
        return problems

    def fingerprint(self, reports):
        return {split: (r.auc, [v.scores for v in r.videos]) for split, r in reports.items()}


KIND_POLICY = {"replace": 0.25, "repeat": 0.25, "flip": 0.25, "translate": 0.25}
# 16x1x16x16 clips (22 KB a pair) keep a unit's writes near 10 MB, so the
# per-pair code paths set its pace rather than page-cache writeback.
CLIP = ("--set", "synth.c_v=1", "--set", "synth.h=16", "--set", "synth.w=16")


class Dataset(Workload):
    name, item, nominal_unit_s = "dataset", "pairs", 0.5
    throughput_name = "dataset_pairs_per_s"
    # Every time of this workload, set-up included, is user CPU time.  On the
    # shared ext4 disk (online discard) of a 2-vCPU VM, creating one file,
    # even an empty one, cost from 0.05 to 0.75 ms of system time, changing
    # over minutes with what else ran on the machine; a unit creates about
    # 500 files, so in wall or user+system time the host's file-system state
    # set the figure more than avlab did.  The traced run's wall-clock
    # ``container.*_ms`` metrics still show avlab's own file-system work.
    user_clock = True

    def setup(self):
        self.train_n = 8 if self.smoke else 200
        self.eval_n = 2 if self.smoke else 20

    def unit(self, j):
        out = self.scratch / f"dataset-{j}"
        seed = str(unit_seed(self.seed, j))
        with contextlib.redirect_stdout(io.StringIO()):
            rc_synth = cli.main([
                "synth", "--out", str(out / "data"), "--seed", seed, *CLIP,
                "--set", "train_data.fake_mode=local_desync",
                "--set", f"train_data.n={self.train_n}", "--set", f"eval_data.n={self.eval_n}",
            ])
            rc_augment = cli.main([
                "augment", "--data", str(out / "data" / "train"), "--out", str(out / "aug"),
                "--seed", seed, *CLIP, "--set", f"kind_policy={json.dumps(KIND_POLICY)}",
            ])
        pairs = {}
        for path in sorted(out.rglob("pair-*.avtc")):
            pair = avdata.load_pair(path)
            pair.validate()
            pairs[path.relative_to(out).as_posix()] = pair
        return out, rc_synth, rc_augment, pairs

    def items(self):
        return 2 * self.train_n + 2 * self.eval_n

    def check(self, result):
        out, rc_synth, rc_augment, pairs = result
        problems = []
        if (rc_synth, rc_augment) != (0, 0):
            problems.append(f"exit codes synth={rc_synth} augment={rc_augment}")
        if len(pairs) != self.items():
            problems.append(f"read back {len(pairs)} pairs, expected {self.items()}")
        # Every augmented pair must equal its source with the manipulations
        # that augment recorded for it applied, byte for byte.
        sources = {k: p for k, p in pairs.items() if k.startswith("data/train/")}
        by_id = {p.meta.source_id: p for p in sources.values()}
        for key, src in sources.items():
            aug = pairs.get("aug/" + key.rsplit("/", 1)[1])
            if aug is None:
                problems.append(f"augment wrote no output for {key}")
                continue
            expected = src  # augment passes fakes through and leaves some reals unchanged
            if src.label == "real" and (aug.meta.visual_manipulations or aug.meta.audio_manipulations):
                visual, audio = src.visual, src.audio
                for spec in aug.meta.visual_manipulations:
                    donor = by_id[spec.donor_id].visual if spec.kind == "replace" else None
                    visual = apply_manipulation(visual, spec, donor)
                for spec in aug.meta.audio_manipulations:
                    donor = by_id[spec.donor_id].audio if spec.kind == "replace" else None
                    audio = apply_manipulation(audio, spec, donor)
                expected = avdata.AVPair(visual=visual, audio=audio, label="fake")
            if _pair_bytes(expected) != _pair_bytes(aug):
                problems.append(f"{key}: augmented pair differs from its recorded manipulations")
        specs = json.loads((out / "aug" / "specs.json").read_text())
        if len(specs) != self.train_n:
            problems.append(f"specs.json has {len(specs)} records for {self.train_n} pairs")
        return problems

    def fingerprint(self, result):
        h = hashlib.sha256()
        for key, pair in sorted(result[3].items()):
            h.update(key.encode())
            h.update(_pair_bytes(pair))
        return h.hexdigest()

    def release(self, result):
        shutil.rmtree(result[0], ignore_errors=True)


class Gradcheck(Workload):
    name, item, nominal_unit_s = "gradcheck", "instances", 4.0
    throughput_name = "gradcheck_instances_per_s"

    def unit(self, j):
        return gradcheck.run_suite(seed=unit_seed(self.seed, j), instances=1, include_model=True)

    def items(self):
        return 1

    def check(self, results):
        problems = [] if gradcheck.suite_passed(results) else [gradcheck.format_report(results)]
        if "detector_full" not in results or len(results) < 13:
            problems.append(f"suite checked only {sorted(results)}")
        return problems


WORKLOADS = {w.name: w for w in (Train, Score, Dataset, Gradcheck)}
