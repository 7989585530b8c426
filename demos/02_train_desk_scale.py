"""Train the two-round system and its single-round baselines, small enough
to watch.

Uses the synthetic class-pattern dataset so the whole run finishes in a
couple of minutes on one core. The two-round model is trained on the joint
loss, the baselines on a single head each, all over the same 10 dB AWGN
channel. The trained two-round model is saved as a bundle that the other
demos pick up.

Run:  python3 demos/02_train_desk_scale.py
"""

from pathlib import Path

from mrmtl.channel import ChannelConfig
from mrmtl.dataset import dataset_fingerprint, make_synthetic
from mrmtl.models import (
    ArchitectureConfig,
    TrainConfig,
    save_bundle,
    train_mrmtl,
    train_srstl,
)

OUT = Path(__file__).parent / "output"

dataset = make_synthetic(num_classes=10, per_class=40, seed=0)
print(f"synthetic dataset: {len(dataset.train)} train / {len(dataset.test)} test")

arch = ArchitectureConfig(nc=4)
channel_cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
train_cfg = TrainConfig(epochs=5, batch_size=32, lr=1e-3, loss_weight=0.5,
                        seed=0)

print(f"\ntwo-round model, {arch.nc} symbols per round, "
      f"loss weight {train_cfg.loss_weight}")
model, log = train_mrmtl(dataset, arch, channel_cfg, train_cfg)
for entry in log:
    print(f"  epoch {entry['epoch']}: loss {entry['train_loss']:.4f}  "
          f"round-1 acc {entry['test_accuracy_round1']:.3f}  "
          f"round-2 acc {entry['test_accuracy_round2']:.3f}")

print(f"\nsingle-round baseline, {arch.nc} symbols")
_, base_log = train_srstl(dataset, arch, channel_cfg, train_cfg)
print(f"  final test acc {base_log[-1]['test_accuracy']:.3f}")

print(f"\nsingle-round baseline, {arch.nc1 + arch.nc2} symbols "
      "(same budget as both rounds together)")
_, wide_log = train_srstl(dataset, ArchitectureConfig(nc=arch.nc1 + arch.nc2),
                          channel_cfg, train_cfg)
print(f"  final test acc {wide_log[-1]['test_accuracy']:.3f}")

bundle_dir = OUT / "mrmtl"
save_bundle(model, bundle_dir, arch, channel_cfg, train_cfg,
            dataset_fingerprint(dataset), log)
print(f"\nbundle saved: {bundle_dir}")
print("next: python3 demos/03_dynamic_rounds.py")
