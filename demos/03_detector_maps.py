"""Forward pass anatomy: features, distance map, attention map, verdict.

Uses an untrained detector; the point is the shapes and the map
semantics, not the accuracy.
"""

import numpy as np

from avlab import Detector, DetectorConfig, SynthConfig, substream, synth_fake_pair, synth_real_pair


def infer_one(model, pair):
    """Score and maps of one pair: ``infer`` on a batch of one."""
    (y,), (m,), (a,) = model.infer(pair.visual.data[None], pair.audio.data[None])
    return y, m, a


def show_pair(model, name, pair):
    y, m, a = infer_one(model, pair)
    print(f"{name}: fake probability {y:.3f}")
    print("  distance  map:", np.round(m, 3))
    print("  attention map:", np.round(a, 3), f"(sum {a.sum():.6f})")


def main():
    cfg = SynthConfig()
    model = Detector(DetectorConfig(), seed=0)
    print(f"detector: T'={model.config.t_prime}, C'={model.config.c_prime}, "
          f"{sum(t.data.size for _, t in model.params())} parameters\n")

    real = synth_real_pair(cfg, substream(1, "demo", 0))
    fake = synth_fake_pair(cfg, "local_desync", substream(1, "demo", 1))
    show_pair(model, "real pair ", real)
    show_pair(model, "local fake", fake)

    print("\nT'=1 collapses the map to one global distance:")
    tiny = Detector(DetectorConfig(t_prime=1), seed=0)
    y, m, a = infer_one(tiny, real)
    print(f"  distance map shape {m.shape}, attention {a} (softmax over one position)")

    print("\nattention can be disabled for the ablation baseline (uniform map):")
    flat = Detector(DetectorConfig(attention=False), seed=0)
    _, _, a = infer_one(flat, real)
    print("  map:", np.round(a, 3))


if __name__ == "__main__":
    main()
