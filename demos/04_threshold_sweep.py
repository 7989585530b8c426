"""Trace the whole delay/accuracy curve in one evaluation pass.

evaluate_rounds() runs both decoder heads once per sample under frozen
channel draws; sweep_from_cache() then resolves every threshold on the
grid against that cache, so a 51-point sweep costs the same as a single
run. This is the sweep `mrmtl evaluate` writes into its report. Here it
lands in a CSV plus standalone SVG charts under demos/output/sweep/.

Run 02_train_desk_scale.py first to leave a bundle in demos/output/;
without one, a quick single-epoch model is trained on the spot.

Run:  python3 demos/04_threshold_sweep.py
"""

from pathlib import Path

import numpy as np

from mrmtl import charts
from mrmtl.analysis import write_sweep_csv
from mrmtl.channel import ChannelConfig
from mrmtl.dataset import make_synthetic
from mrmtl.models import ArchitectureConfig, TrainConfig, load_bundle, train_mrmtl
from mrmtl.protocol import default_delta_grid, evaluate_rounds, sweep_from_cache

OUT = Path(__file__).parent / "output"
BUNDLE = OUT / "mrmtl"

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

cache = evaluate_rounds(model, dataset.test, channel_cfg, np.random.default_rng(12))
rows = sweep_from_cache(cache, default_delta_grid())

print(f"\n{len(rows)} thresholds over {len(dataset.test)} samples\n")
print("  delta   accuracy   avg delay   escalation")
for row in rows[::10]:
    print(f"  {row['delta']:5.2f}   {row['accuracy']:8.4f}   "
          f"{row['avg_delay']:9.4f}   {row['escalation_rate']:10.4f}")

# delay grows with the threshold; more samples pay for the second round
assert all(b["avg_delay"] >= a["avg_delay"] for a, b in zip(rows, rows[1:]))

sweep_dir = OUT / "sweep"
sweep_dir.mkdir(parents=True, exist_ok=True)
csv_path = sweep_dir / "sweep.csv"
write_sweep_csv(rows, csv_path)
print(f"\nsweep written: {csv_path}")
for path in charts.emit_sweep_charts(rows, sweep_dir):
    print(f"chart written: {path}")
