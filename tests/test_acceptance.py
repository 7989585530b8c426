"""Release acceptance suite.

Each test exercises one shipping criterion end to end and records a single
[PASS]/[FAIL] verdict line. The lines are echoed in the terminal summary
(see the pytest_terminal_summary hook in conftest.py), so a plain
``pytest -v`` run shows every verdict; run with ``-s`` to see them inline.

The full-dataset criterion is opt-in: set MRMTL_FULL_RUN=1 (and point
MRMTL_DATA_DIR at the CIFAR-10 binary batches) to include it.
"""

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import gradcheck, relative_error
from test_protocol import random_cache

from mrmtl import cli, nn
from mrmtl.channel import ChannelConfig, draw_channel, noise_variance
from mrmtl.dataset import load_cifar10, make_synthetic
from mrmtl.models import (
    ArchitectureConfig,
    Model,
    TrainConfig,
    mrmtl_loss,
    mrmtl_loss_and_grads,
    train_mrmtl,
    train_srstl,
)
from mrmtl.protocol import (
    apply_threshold,
    average_delay,
    calibrate_threshold,
    default_delta_grid,
    escalation_rate,
    evaluate_rounds,
    operating_point,
    sweep_from_cache,
    task_accuracy,
    threshold_midpoint,
)


@pytest.fixture
def verdict(request):
    """One [PASS]/[FAIL] line per criterion, kept for the terminal summary."""

    def record(num: int, label: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        print(line, flush=True)
        request.config.acceptance_lines.append(line)
        assert ok, line

    return record


@pytest.fixture(scope="module")
def head_cache(mrmtl_small, split_small):
    """Both decoder heads evaluated once over the shared random split."""
    cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
    return evaluate_rounds(mrmtl_small, split_small, cfg,
                           np.random.default_rng(7))


# ---------------------------------------------------------------------------
# criterion 1: the two-branch expectations reproduce the measured totals


def test_criterion_1_decomposition_identities(verdict, head_cache,
                                              mrmtl_small, split_small):
    # the totals counted from the cache equal the trace statistics exactly,
    # and the two-branch expectations reproduce them to rounding
    worst = 0.0
    exact = True
    caches = [random_cache(n=230, seed=s) for s in range(5)] + [head_cache]
    for cache in caches:
        for delta in (0.0, 0.15, 0.3, 0.5, 0.7, 0.9, 1.0, 1.01):
            traces = apply_threshold(cache, delta)
            point = operating_point(cache, delta)
            exact = exact and (point["accuracy"] == task_accuracy(traces)
                               and point["avg_delay"] == average_delay(traces)
                               and point["escalation_rate"] == escalation_rate(traces))
            d = point["delay_decomposition"]
            a = point["accuracy_decomposition"]
            worst = max(
                worst,
                abs(d["expected_delay"] - average_delay(traces)),
                abs(a["expected_accuracy"] - task_accuracy(traces)),
                abs(d["p_escalate"] - escalation_rate(traces)),
                abs(d["p_stay"] + d["p_escalate"] - 1.0),
            )

    # the calibrated threshold is exactly the midpoint of the conditional
    # confidence means, not merely close to it
    stats = calibrate_threshold(mrmtl_small, split_small,
                                ChannelConfig(kind="awgn", snr_db=10.0, seed=0),
                                np.random.default_rng(3))
    midpoint_exact = stats.delta_star == threshold_midpoint(
        stats.mean_conf_correct, stats.mean_conf_incorrect)
    verdict(1, "cache counts equal the trace statistics, two-branch delay and "
               "accuracy identities hold, calibrated threshold is the exact midpoint",
            worst < 1e-12 and exact and midpoint_exact,
            f"worst abs err {worst:.2e} over {8 * len(caches)} runs")


# ---------------------------------------------------------------------------
# criterion 2: midpoint threshold rule at the reference operating points


def test_criterion_2_midpoint_reference_points(verdict):
    # regression vectors: (mean conf when right, mean conf when wrong) -> delta
    cases = [
        ((0.8206, 0.6463), 0.7335),
        ((0.7489, 0.4798), 0.6143),
    ]
    worst = max(abs(threshold_midpoint(c, w) - want) for (c, w), want in cases)
    verdict(2, "midpoint thresholds match reference operating points",
            worst < 1e-4, f"worst abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: threshold endpoints collapse to the single-head systems


def test_criterion_3_endpoint_equivalence(verdict, head_cache):
    t0 = time.time()
    n = len(head_cache)
    r1_acc = int(np.sum(head_cache.round1_pred == head_cache.true_labels)) / n
    r2_acc = int(np.sum(head_cache.round2_pred == head_cache.true_labels)) / n

    stay = apply_threshold(head_cache, 0.0)
    esc = apply_threshold(head_cache, 1.01)
    checks = {
        "stay accuracy": task_accuracy(stay) == r1_acc,
        "stay delay": average_delay(stay) == float(head_cache.nc1),
        "stay rate": escalation_rate(stay) == 0.0,
        "stay skips round 2": all(t.round2 is None for t in stay),
        "escalate accuracy": task_accuracy(esc) == r2_acc,
        "escalate delay": average_delay(esc) == float(head_cache.nc1 + head_cache.nc2),
        "escalate rate": escalation_rate(esc) == 1.0,
    }
    elapsed = time.time() - t0
    bad = [k for k, ok in checks.items() if not ok]
    verdict(3, "threshold endpoints equal the single-head systems bit for bit",
            not bad and elapsed < 60.0,
            f"{elapsed:.1f}s" + (f"; failed: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 4: delay is monotone in delta and escalation sets are nested


def test_criterion_4_monotone_delay_nested_sets(verdict, head_cache):
    t0 = time.time()
    grid = default_delta_grid()
    rows = sweep_from_cache(head_cache, grid)
    delays = [r["avg_delay"] for r in rows]
    rates = [r["escalation_rate"] for r in rows]
    monotone = (all(b >= a for a, b in zip(delays, delays[1:]))
                and all(b >= a for a, b in zip(rates, rates[1:])))

    sets = [{t.sample_index for t in apply_threshold(head_cache, d) if t.escalated}
            for d in grid]
    nested = all(a <= b for a, b in zip(sets, sets[1:]))
    spans = sets[0] == set() and sets[-1] == set(range(len(head_cache)))
    elapsed = time.time() - t0
    verdict(4, "delay monotone and escalation sets nested across the grid",
            monotone and nested and spans and elapsed < 60.0,
            f"{len(grid)} thresholds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: finite differences confirm every layer kind and the joint loss


def _kind_nets(seed: int) -> dict:
    """One small network per layer kind, each with a logits head.

    The pooled branch uses a linear conv so pooling picks among smooth,
    continuous values, and relu layers always see continuous inputs; exact
    kink or tie points then have probability zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    return {
        "conv2d": (nn.Network([
            nn.Conv2D(2, 3, 3, "relu", rng=rng),
            nn.Flatten(),
            nn.Dense(48, 4, "linear", rng=rng)], (2, 4, 4)), 4),
        "maxpool2d": (nn.Network([
            nn.Conv2D(1, 2, 3, "linear", rng=rng),
            nn.MaxPool2D(2),
            nn.Flatten(),
            nn.Dense(8, 3, "linear", rng=rng)], (1, 4, 4)), 3),
        "dropout": (nn.Network([
            nn.Dense(5, 6, "relu", rng=rng),
            nn.Dropout(0.3),
            nn.Dense(6, 4, "linear", rng=rng)], (5,)), 4),
        "flatten": (nn.Network([
            nn.Flatten(),
            nn.Dense(18, 4, "linear", rng=rng)], (2, 3, 3)), 4),
        "dense": (nn.Network([
            nn.Dense(5, 6, "relu", rng=rng),
            nn.Dense(6, 5, "linear", rng=rng),
            nn.Dense(5, 4, "linear", rng=rng)], (5,)), 4),
    }


def _tiny_joint_model(seed: int) -> Model:
    ss = np.random.SeedSequence([seed, 55])
    r_e1, r_e2, r_d1, r_d2 = [np.random.default_rng(k) for k in ss.spawn(4)]

    def encoder(rng):
        return nn.Network([
            nn.Conv2D(2, 2, 3, "relu", rng=rng),
            nn.MaxPool2D(2),
            nn.Flatten(),
            nn.Dense(8, 2, "linear", rng=rng),
        ], (2, 4, 4))

    def decoder(in_size, rng):
        return nn.Network([
            nn.Dense(in_size, 4, "relu", rng=rng),
            nn.Dropout(0.1),
            nn.Dense(4, 3, "linear", rng=rng),
        ], (in_size,))

    model = Model(
        encoder1=encoder(r_e1), encoder2=encoder(r_e2),
        decoder1=decoder(2, r_d1), decoder2=decoder(4, r_d2),
        loss_weight=0.5, nc1=2, nc2=2,
    )
    # move every parameter to a generic point: a zero bias whose relu input
    # was dropped sits exactly on the kink, where one-sided differences
    # disagree with the (correct) zero subgradient
    jitter = np.random.default_rng(seed + 1000)
    for net in (model.encoder1, model.encoder2, model.decoder1, model.decoder2):
        for _, param in net.param_items():
            param += jitter.normal(0.0, 0.02, size=param.shape)
    return model


def _joint_fd_worst(seed: int, h: float = 1e-6) -> float:
    """Exhaustive finite differences over every joint-model parameter."""
    model = _tiny_joint_model(seed)
    data = np.random.default_rng(seed + 2000)
    x = data.random((3, 2, 4, 4))
    labels = data.integers(0, 3, size=3)
    cfg = ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0)
    draw_rng = np.random.default_rng(seed + 2500)
    d1 = draw_channel(cfg, 3, 2, draw_rng)
    d2 = draw_channel(cfg, 3, 2, draw_rng)

    def eval_rng():
        # identical dropout masks on every evaluation
        return np.random.default_rng(seed + 3000)

    nets = {"encoder1": model.encoder1, "encoder2": model.encoder2,
            "decoder1": model.decoder1, "decoder2": model.decoder2}
    mrmtl_loss_and_grads(model, x, labels, d1, d2, eval_rng())
    grads = {f"{prefix}.{name}": g.copy()
             for prefix, net in nets.items() for name, g in net.grad_items()}

    worst = 0.0
    for prefix, net in nets.items():
        for name, param in net.param_items():
            flat = param.reshape(-1)
            gflat = grads[f"{prefix}.{name}"].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = mrmtl_loss(model, x, labels, d1, d2, train=True,
                                rng=eval_rng())[0]
                flat[i] = orig - h
                down = mrmtl_loss(model, x, labels, d1, d2, train=True,
                                  rng=eval_rng())[0]
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                worst = max(worst, relative_error(gflat[i], fd))
    return worst


def test_criterion_5_gradient_checks(verdict):
    # When a pre-activation happens to land within one step of a relu kink
    # (or a pooling tie), central differences straddle the corner and
    # disagree with the correct one-sided gradient. Shrinking the step
    # restores a smooth neighborhood; a genuine gradient bug keeps failing
    # at every step size, so the retry cannot mask one.
    t0 = time.time()
    seeds = range(20)
    worst_kind = {}
    for seed in seeds:
        for kind, (net, k) in _kind_nets(seed).items():
            data = np.random.default_rng(seed + 500)
            x = data.random((3, *net.input_shape))
            labels = data.integers(0, k, size=3)
            report = gradcheck(net, x, labels, tolerance=1e-4, seed=seed)
            if not report.passed:
                report = gradcheck(net, x, labels, tolerance=1e-4,
                                   step=1e-7, seed=seed)
            worst_kind[kind] = max(worst_kind.get(kind, 0.0), report.worst)

    joint_worsts = []
    for seed in seeds:
        w = _joint_fd_worst(seed)
        if w >= 1e-4:
            w = _joint_fd_worst(seed, h=1e-7)
        joint_worsts.append(w)
    worst = max(max(worst_kind.values()), max(joint_worsts))
    elapsed = time.time() - t0
    verdict(5, "gradients match finite differences for every layer kind "
               "and the joint two-round loss",
            worst < 1e-4 and elapsed < 120.0,
            f"{len(seeds)} seeds, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: channel draws have the advertised statistics


def test_criterion_6_channel_statistics(verdict):
    awgn = draw_channel(ChannelConfig(kind="awgn", snr_db=10.0, seed=0),
                        1000, 1000, np.random.default_rng(60))
    want_var = noise_variance(10.0)
    var_err = abs(float(np.var(awgn.noise)) - want_var) / want_var
    gain_exact = bool(np.all(awgn.gain == 1.0))

    ray = draw_channel(ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0),
                       1_000_000, 1, np.random.default_rng(61))
    h = ray.gain
    h2_err = abs(float(np.mean(h * h)) - 1.0)
    want_mean = float(np.sqrt(np.pi / 4.0))
    h1_err = abs(float(np.mean(h)) - want_mean) / want_mean

    ok = var_err < 0.01 and gain_exact and h2_err < 0.01 and h1_err < 0.01
    verdict(6, "channel noise variance and fading moments within 1%",
            ok, f"noise var err {var_err:.2%}, E[h^2] err {h2_err:.2%}, "
                f"E[h] err {h1_err:.2%}, 1e6 draws each")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale training shows the expected orderings


def test_criterion_7_desk_scale_trends(verdict):
    t0 = time.time()
    ds = make_synthetic(10, 40, 0)
    ch = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
    tc = TrainConfig(epochs=5, batch_size=32, lr=1e-3, loss_weight=0.5, seed=0)

    _, mlog = train_mrmtl(ds, ArchitectureConfig(nc=4), ch, tc)
    _, slog_nc = train_srstl(ds, ArchitectureConfig(nc=4), ch, tc)
    _, slog_2nc = train_srstl(ds, ArchitectureConfig(nc=8), ch, tc)

    r1 = mlog[-1]["test_accuracy_round1"]
    r2 = mlog[-1]["test_accuracy_round2"]
    s1 = slog_nc[-1]["test_accuracy"]
    s2 = slog_2nc[-1]["test_accuracy"]
    elapsed = time.time() - t0
    ok = (r2 >= r1 - 0.02 and s2 >= s1 - 0.02
          and r1 > 0.1 and r2 > 0.1 and elapsed < 600.0)
    verdict(7, "desk-scale trends: round 2 tracks round 1, doubled budget "
               "tracks single, both heads beat chance",
            ok, f"r1={r1:.3f} r2={r2:.3f} srstl nc={s1:.3f} 2nc={s2:.3f}, "
                f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8 (opt-in): full-dataset orderings


def test_criterion_8_full_dataset_orderings(verdict, request):
    """Round 2 beats round 1, the clean channel beats the fading one, and
    the calibrated operating point lands strictly between the pure-round
    delays. Absolute accuracy values are configuration-dependent and are
    deliberately not asserted."""
    if not os.environ.get("MRMTL_FULL_RUN"):
        line = ("[SKIP] criterion 8: full-dataset orderings "
                "(set MRMTL_FULL_RUN=1 and MRMTL_DATA_DIR to enable)")
        print(line, flush=True)
        request.config.acceptance_lines.append(line)
        pytest.skip("full-dataset run disabled; set MRMTL_FULL_RUN=1")

    data_dir = os.environ.get("MRMTL_DATA_DIR")
    if not data_dir:
        pytest.fail("MRMTL_FULL_RUN is set but MRMTL_DATA_DIR is not")
    t0 = time.time()
    ds = load_cifar10(data_dir)
    epochs = int(os.environ.get("MRMTL_FULL_EPOCHS", "20"))
    arch = ArchitectureConfig(nc=5)
    tc = TrainConfig(epochs=epochs, batch_size=32, lr=1e-3, loss_weight=0.5,
                     seed=0)

    results = {}
    for kind in ("awgn", "rayleigh"):
        ch = ChannelConfig(kind=kind, snr_db=10.0, seed=0)
        model, log = train_mrmtl(ds, arch, ch, tc)
        stats = calibrate_threshold(model, ds.test, ch,
                                    np.random.default_rng(8))
        traces = apply_threshold(
            evaluate_rounds(model, ds.test, ch, np.random.default_rng(9)),
            stats.delta_star)
        results[kind] = {
            "r1": log[-1]["test_accuracy_round1"],
            "r2": log[-1]["test_accuracy_round2"],
            "delay": average_delay(traces),
        }

    a, r = results["awgn"], results["rayleigh"]
    lo, hi = float(arch.nc1), float(arch.nc1 + arch.nc2)
    checks = {
        "round 2 > round 1 (awgn)": a["r2"] > a["r1"],
        "round 2 > round 1 (rayleigh)": r["r2"] > r["r1"],
        "awgn > rayleigh (round 2)": a["r2"] > r["r2"],
        "delay strictly interior (awgn)": lo < a["delay"] < hi,
        "delay strictly interior (rayleigh)": lo < r["delay"] < hi,
    }
    elapsed = time.time() - t0
    bad = [k for k, ok in checks.items() if not ok]
    verdict(8, "full-dataset orderings: round 2 beats round 1, clean channel "
               "beats fading, calibrated delay strictly interior",
            not bad,
            f"awgn r1={a['r1']:.3f} r2={a['r2']:.3f} delay={a['delay']:.2f}; "
            f"rayleigh r1={r['r1']:.3f} r2={r['r2']:.3f} delay={r['delay']:.2f}; "
            f"{epochs} epochs, {elapsed:.0f}s"
            + (f"; failed: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 9: deterministic runs leave byte-identical artifacts


def test_criterion_9_deterministic_artifacts(verdict, tmp_path):
    t0 = time.time()
    base = tmp_path / "run"
    cfg = {
        "dataset": {"kind": "synthetic", "num_classes": 10, "per_class": 5,
                    "seed": 1},
        "channel": {"kind": "awgn", "snr_db": 10.0, "seed": 3},
        "arch": {"nc": 2},
        "training": {"epochs": 1, "batch_size": 16, "lr": 1e-3,
                     "loss_weight": 0.5},
        "protocol": {"delta": "auto",
                     "grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
                     "num_bins": 20, "calibration_split": "test"},
        "output_dir": str(base),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_once() -> dict:
        assert cli.main(["train", "--config", str(cfg_path), "--mode", "mrmtl",
                         "--seed", "5"]) == 0
        assert cli.main(["evaluate", "--config", str(cfg_path), "--seed", "5"]) == 0
        return {str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()}

    first = run_once()
    shutil.rmtree(base)
    second = run_once()

    mismatched = []
    if sorted(first) != sorted(second):
        mismatched.append("file sets differ")
    for name in first:
        a, b = first[name], second.get(name)
        if name.endswith("report.json"):
            da, db = json.loads(a), json.loads(b)
            da.pop("generated_at"), db.pop("generated_at")
            if da != db:
                mismatched.append(name)
        elif a != b:
            mismatched.append(name)

    elapsed = time.time() - t0
    verdict(9, "repeated deterministic runs leave byte-identical artifacts "
               "(timestamps aside)",
            not mismatched and elapsed < 600.0,
            f"{len(first)} files compared, {elapsed:.0f}s"
            + (f"; mismatched: {mismatched}" if mismatched else ""))
