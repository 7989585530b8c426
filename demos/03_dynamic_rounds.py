"""Dynamic round selection on a trained two-round model.

Round 1 is always transmitted. If the round-1 decoder's confidence clears
the threshold the prediction is taken as final; otherwise round 2 is
transmitted and the second decoder re-predicts from both blocks together.
This demo calibrates the threshold from held-out confidences, runs the
protocol, and pulls the resulting delay/accuracy trade apart.

Run 02_train_desk_scale.py first to leave a bundle in demos/output/;
without one, a quick single-epoch model is trained on the spot.

Run:  python3 demos/03_dynamic_rounds.py
"""

from pathlib import Path

import numpy as np

from mrmtl.channel import ChannelConfig
from mrmtl.dataset import make_synthetic
from mrmtl.models import ArchitectureConfig, TrainConfig, load_bundle, train_mrmtl
from mrmtl.protocol import (
    apply_threshold,
    calibrate_threshold,
    evaluate_rounds,
    operating_point,
)

BUNDLE = Path(__file__).parent / "output" / "mrmtl"

dataset = make_synthetic(num_classes=10, per_class=40, seed=0)
if BUNDLE.is_dir():
    model, manifest = load_bundle(BUNDLE)
    channel_cfg = ChannelConfig(**manifest["channel"])
    print(f"loaded bundle: {BUNDLE}")
else:
    print("no bundle found, training a quick stand-in (one epoch)")
    channel_cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
    model, _ = train_mrmtl(dataset, ArchitectureConfig(nc=4), channel_cfg,
                           TrainConfig(epochs=1, batch_size=32, seed=0))

# --- calibrate the threshold --------------------------------------------
# Round-1 confidences split by whether round 1 was right; the threshold
# sits midway between the two conditional means.
stats = calibrate_threshold(model, dataset.test, channel_cfg,
                            np.random.default_rng(11), num_bins=20)
print(f"\nmean round-1 confidence when right: {stats.mean_conf_correct:.4f} "
      f"({stats.n_correct} samples)")
print(f"mean round-1 confidence when wrong: {stats.mean_conf_incorrect:.4f} "
      f"({stats.n_incorrect} samples)")
print(f"calibrated threshold: {stats.delta_star:.4f}")

# --- run the protocol ----------------------------------------------------
cache = evaluate_rounds(model, dataset.test, channel_cfg,
                        np.random.default_rng(12))
point = operating_point(cache, stats.delta_star)
print(f"\nprotocol over {len(cache)} test samples "
      f"(nc1={cache.nc1}, nc2={cache.nc2}):")
print(f"  accuracy:        {point['accuracy']:.4f}")
print(f"  average delay:   {point['avg_delay']:.4f} symbols")
print(f"  escalation rate: {point['escalation_rate']:.4f}")

print("\nfirst five decisions:")
for t in apply_threshold(cache, stats.delta_star)[:5]:
    route = "escalated" if t.escalated else "stayed   "
    mark = "right" if t.final_predicted == t.true_label else "wrong"
    print(f"  sample {t.sample_index}: round-1 conf {t.round1.confidence:.3f} "
          f"-> {route} final {t.final_predicted} ({mark}, {t.delay} symbols)")

# --- where delay and accuracy come from ---------------------------------
d = point["delay_decomposition"]
a = point["accuracy_decomposition"]
print(f"\ndelay   = {d['p_stay']:.3f} * {d['delay_stay']} "
      f"+ {d['p_escalate']:.3f} * {d['delay_escalate']} "
      f"= {d['expected_delay']:.4f}")
print(f"accuracy = {a['p_stay']:.3f} * {a['accuracy_given_stay']:.4f} "
      f"+ {a['p_escalate']:.3f} * {a['accuracy_given_escalate']:.4f} "
      f"= {a['expected_accuracy']:.4f}")

# --- the two endpoints ---------------------------------------------------
# Threshold 0 never escalates (pure round 1); anything above 1 always
# does (pure round 2). The protocol interpolates between those systems.
lo = operating_point(cache, 0.0)
hi = operating_point(cache, 1.01)
print(f"\nthreshold 0.00: accuracy {lo['accuracy']:.4f}, "
      f"delay {lo['avg_delay']:.1f}")
print(f"threshold 1.01: accuracy {hi['accuracy']:.4f}, "
      f"delay {hi['avg_delay']:.1f}")
