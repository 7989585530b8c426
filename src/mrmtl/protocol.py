"""Confidence-thresholded dynamic round selection.

The receiver decodes Round 1, compares the top softmax probability against a
threshold delta, and requests the Round-2 transmission only when confidence
falls short (strictly below; equality stays in Round 1). Per-sample delay is
nc1 channel uses without escalation and nc1 + nc2 with it.

run_protocol() is the deployed receiver: Encoder 2 and Decoder 2 run only on
the samples that escalate, so a confident sample costs one round of work.
Threshold studies instead need both heads on every sample: evaluate_rounds()
runs both rounds over the whole set and caches the outputs, and
apply_threshold(), operating_point() and sweep_from_cache() resolve any delta
against the cache without touching the channel again. run_protocol(),
evaluate_rounds(), calibrate_threshold() and training's test pass
(models.mrmtl_head_accuracies) share one chunk loop, _receive(), and its
channel-draw layout over batch-invariant inference, so a run_protocol trace
equals apply_threshold(evaluate_rounds(...), delta) under the same entry rng
state, and each sweep row equals a run_protocol call.

_receive() returns the RoundCache, with each head's predictions and Round
1's confidences, that all of them read. The report's numbers are
operating_point()'s counts over the cache; the trace statistics re-derive
them from a trace list, as `mrmtl report` does.

An inference encoder reads no rng and no channel, so Round 1's symbols depend
only on the images and Encoder 1's parameters. calibrate_threshold() keeps
the power-normalized Round-1 symbols of the split it saw, one entry per
Encoder 1, keyed by a SHA-256 digest of the images and of that encoder's
parameters. A later evaluate_rounds() or run_protocol() call whose images and
parameters hash to the same digest reuses them instead of encoding the split
again; any change to either, in place or not, misses. The entry dies with its
encoder, so a freshly loaded model always encodes.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelDraw, apply_channel, draw_channel
from .dataset import Split
from .models import DecoderOutput, Model, _decode1, _decode2, _symbols, _transmit_batch

# Inference walks a split in unshuffled chunks of this many samples
# (_receive), so its draws depend only on rng state and order.
CHUNK = 64

# The most thresholds delta_grid() builds: step 1e-4 over [0, 1].
MAX_GRID_POINTS = 10_001

# The most histogram bins calibrate_threshold() takes: width 1e-4 over [0, 1].
MAX_NUM_BINS = 10_000

# calibrate_threshold()'s Round-1 symbols, one entry per Encoder 1:
# encoder -> (images shape, digest of images and parameters, (N, nc1) symbols).
_SYMBOLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class CalibrationError(RuntimeError):
    """Calibration set cannot support the conditional-mean estimate."""


@dataclass(frozen=True)
class ProtocolTrace:
    """Everything the protocol decided about one sample."""

    sample_index: int
    round1: DecoderOutput
    escalated: bool
    round2: DecoderOutput | None
    final_predicted: int
    true_label: int
    delay: int


@dataclass
class RoundCache:
    """Per-sample outputs of both decoder heads under frozen channel draws."""

    true_labels: np.ndarray    # (N,) int
    round1_probs: np.ndarray   # (N, K)
    round1_pred: np.ndarray    # (N,) int
    round1_conf: np.ndarray    # (N,)
    round2_probs: np.ndarray   # (N, K)
    round2_pred: np.ndarray    # (N,) int
    nc1: int
    nc2: int

    def __len__(self) -> int:
        return self.true_labels.shape[0]

    def head_accuracies(self) -> tuple[float, float]:
        """Each head's accuracy over every sample, Round 1's then Round 2's."""
        return tuple(int(np.count_nonzero(pred == self.true_labels)) / len(self)
                     for pred in (self.round1_pred, self.round2_pred))


@dataclass(frozen=True)
class CalibrationStats:
    """Conditional confidence statistics of the Round-1 head.

    delta_star is the midpoint of the two conditional means. separated
    flags the expected ordering (correct above incorrect); a violation is
    reported, not raised.
    """

    mean_conf_correct: float
    mean_conf_incorrect: float
    delta_star: float
    histogram_correct: np.ndarray
    histogram_incorrect: np.ndarray
    bin_edges: np.ndarray
    n_correct: int
    n_incorrect: int
    separated: bool


def _digest(images: np.ndarray, encoder) -> bytes:
    """SHA-256 over the images and the encoder's parameters: name, shape,
    dtype and bytes of each array."""
    h = hashlib.sha256()
    for name, a in [("images", images), *encoder.param_items()]:
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.shape} {a.dtype.str};".encode())
        h.update(a.data)
    return h.digest()


def _round1_symbols(encoder, images: np.ndarray, bounds, keep: bool) -> np.ndarray:
    """Encoder 1's power-normalized symbols for every image, one chunk at a time.

    Taken from _SYMBOLS when its entry for this encoder has the same images
    shape and digest; the digest is computed only then, or to keep a new
    entry when keep is set.
    """
    entry = _SYMBOLS.get(encoder)
    digest = None
    if entry is not None and entry[0] == images.shape:
        digest = _digest(images, encoder)
        if digest == entry[1]:
            return entry[2]
    symbols = np.concatenate([_symbols(encoder, images[lo:hi]) for lo, hi in bounds])
    if keep:
        symbols.flags.writeable = False
        _SYMBOLS[encoder] = (images.shape, digest or _digest(images, encoder), symbols)
    return symbols


def _receive(model: Model, split: Split, channel_cfg: ChannelConfig, chunk_rngs,
             delta: float, keep: bool = False) -> RoundCache:
    """Decoder-head outputs for every sample, one CHUNK at a time.

    Round 1 runs on every sample. Round 2 runs only on the samples whose
    Round-1 confidence is below delta, the escalation rule of
    apply_threshold: delta = inf runs it everywhere, delta = 0 nowhere. Rows
    of the Round-2 probabilities that did not run hold NaN.

    Round 1's symbols come from _round1_symbols, which keeps them in
    _SYMBOLS when keep is set. The caller supplies the chunks' rngs, one per
    chunk from chunk_rngs(n). Each chunk draws its Round-1 channel, then (if
    any sample escalates) its Round-2 channel for the whole chunk, from its rng;
    under rng.spawn nothing else reads that rng, so every draw a sample sees
    is the one a full pass gives it, whichever samples escalate; inference
    is batch invariant (mrmtl.nn.layers), so its probabilities are too.
    """
    n = len(split)
    if n == 0:
        raise ValueError("empty sample set")
    bounds = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    symbols = _round1_symbols(model.encoder1, split.images, bounds, keep)
    k = model.decoder1.output_shape[0]
    probs1 = np.empty((n, k))
    conf1 = np.empty(n)
    probs2 = np.full((n, k), np.nan)
    for (lo, hi), crng in zip(bounds, chunk_rngs(len(bounds))):
        draw1 = draw_channel(channel_cfg, hi - lo, model.nc1, crng)
        r1 = apply_channel(symbols[lo:hi], draw1)
        probs1[lo:hi] = _decode1(model, r1)
        conf1[lo:hi] = probs1[lo:hi].max(axis=1)
        rows = np.flatnonzero(conf1[lo:hi] < delta)
        if rows.size == 0:
            continue
        draw2 = draw_channel(channel_cfg, hi - lo, model.nc2, crng)
        draw2 = ChannelDraw(gain=draw2.gain[rows], noise=draw2.noise[rows])
        r2, _ = _transmit_batch(model.encoder2, split.images[lo:hi][rows], draw2, False, None)
        probs2[lo + rows] = _decode2(model, r1[rows], r2)
    return RoundCache(true_labels=split.labels, round1_probs=probs1,
                      round1_pred=probs1.argmax(axis=1), round1_conf=conf1,
                      round2_probs=probs2, round2_pred=probs2.argmax(axis=1),
                      nc1=model.nc1, nc2=model.nc2)


def evaluate_rounds(model: Model, split: Split, channel_cfg: ChannelConfig,
                    rng) -> RoundCache:
    """Run both heads over every sample once and cache the outputs."""
    return _receive(model, split, channel_cfg, rng.spawn, np.inf)


def apply_threshold(cache: RoundCache, delta: float) -> list[ProtocolTrace]:
    """Resolve the escalation rule against cached outputs for one delta."""
    traces = []
    for i in range(len(cache)):
        conf = float(cache.round1_conf[i])
        escalated = conf < delta
        r1 = DecoderOutput(
            probs=cache.round1_probs[i],
            predicted=int(cache.round1_pred[i]),
            confidence=conf,
        )
        r2 = None
        if escalated:
            r2 = DecoderOutput(
                probs=cache.round2_probs[i],
                predicted=int(cache.round2_pred[i]),
                confidence=float(cache.round2_probs[i].max()),
            )
        traces.append(ProtocolTrace(
            sample_index=i,
            round1=r1,
            escalated=escalated,
            round2=r2,
            final_predicted=r2.predicted if escalated else r1.predicted,
            true_label=int(cache.true_labels[i]),
            delay=cache.nc1 + (cache.nc2 if escalated else 0),
        ))
    return traces


def run_protocol(model: Model, split: Split, delta: float, channel_cfg: ChannelConfig,
                 rng) -> list[ProtocolTrace]:
    """Dynamic round selection over a sample set at one threshold.

    Round 2 is sent and decoded only for the samples that escalate. The
    traces read Round-2 rows of escalated samples alone, so the rows that
    never ran are not seen.
    """
    return apply_threshold(_receive(model, split, channel_cfg, rng.spawn, delta), delta)


# ---------------------------------------------------------------------------
# summary statistics over traces


def _require_traces(traces) -> list:
    traces = list(traces)
    if not traces:
        raise ValueError("empty trace list")
    return traces


def average_delay(traces) -> float:
    """Mean channel uses per sample."""
    traces = _require_traces(traces)
    return sum(t.delay for t in traces) / len(traces)


def task_accuracy(traces) -> float:
    """Fraction of samples whose final prediction matches the true label."""
    traces = _require_traces(traces)
    return sum(1 for t in traces if t.final_predicted == t.true_label) / len(traces)


def escalation_rate(traces) -> float:
    traces = _require_traces(traces)
    return sum(1 for t in traces if t.escalated) / len(traces)


# ---------------------------------------------------------------------------
# threshold selection


def threshold_midpoint(mean_conf_correct: float, mean_conf_incorrect: float) -> float:
    """Midpoint of the conditional confidence means."""
    return (mean_conf_correct + mean_conf_incorrect) / 2.0


def calibrate_threshold(model: Model, split: Split, channel_cfg: ChannelConfig, rng,
                        num_bins: int = 50) -> CalibrationStats:
    """Estimate the escalation threshold from Round-1 behavior alone.

    Runs Round-1 inference over the calibration set, splits confidences by
    whether the prediction was correct, and returns the conditional means,
    their midpoint, and fixed-width histograms over [0, 1]. The Round-1
    draws equal those of evaluate_rounds under the same entry rng state.

    The split's power-normalized Round-1 symbols are kept in _SYMBOLS for
    model.encoder1, replacing its previous entry, under a SHA-256 digest of
    split.images and of the encoder's parameters. evaluate_rounds() and
    run_protocol() reuse them while both still hash the same; the entry dies
    with the encoder.
    """
    if not 1 <= num_bins <= MAX_NUM_BINS:
        raise ValueError(f"num_bins must lie in [1, {MAX_NUM_BINS}]")
    cache = _receive(model, split, channel_cfg, rng.spawn, 0.0, keep=True)
    conf = cache.round1_conf
    correct = cache.round1_pred == cache.true_labels
    n_correct = int(np.count_nonzero(correct))
    n_incorrect = len(cache) - n_correct
    if n_correct == 0:
        raise CalibrationError("no correctly classified samples in the calibration set")
    if n_incorrect == 0:
        raise CalibrationError("no incorrectly classified samples in the calibration set")
    mean_c = float(conf[correct].mean())
    mean_i = float(conf[~correct].mean())
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    hist_c, _ = np.histogram(conf[correct], bins=edges)
    hist_i, _ = np.histogram(conf[~correct], bins=edges)
    return CalibrationStats(
        mean_conf_correct=mean_c,
        mean_conf_incorrect=mean_i,
        delta_star=threshold_midpoint(mean_c, mean_i),
        histogram_correct=hist_c,
        histogram_incorrect=hist_i,
        bin_edges=edges,
        n_correct=n_correct,
        n_incorrect=n_incorrect,
        separated=mean_c >= mean_i,
    )


# ---------------------------------------------------------------------------
# operating points and threshold sweeps


def operating_point(cache: RoundCache, delta: float) -> dict:
    """Accuracy, average delay and escalation rate at one threshold, and the
    first two as two-branch expectations over staying in Round 1 or escalating.
    Integer counts over the predictions apply_threshold() selects, so each total
    equals its trace statistic bit for bit; an empty branch's accuracy is 0.0."""
    n = len(cache)
    if n == 0:
        raise ValueError("empty cache")
    escalated = cache.round1_conf < delta
    esc = int(np.count_nonzero(escalated))
    stay = n - esc
    correct_esc = int(np.count_nonzero(escalated & (cache.round2_pred == cache.true_labels)))
    correct_stay = int(np.count_nonzero(~escalated & (cache.round1_pred == cache.true_labels)))
    acc_stay = correct_stay / stay if stay else 0.0
    acc_esc = correct_esc / esc if esc else 0.0
    nc1, nc2 = cache.nc1, cache.nc2
    branches = {"p_stay": stay / n, "p_escalate": esc / n}
    return {
        "accuracy": (correct_stay + correct_esc) / n,
        "avg_delay": (n * nc1 + esc * nc2) / n,
        "escalation_rate": esc / n,
        "delay_decomposition": {
            **branches,
            "delay_stay": nc1,
            "delay_escalate": nc1 + nc2,
            "expected_delay": nc1 * (stay / n) + (nc1 + nc2) * (esc / n),
        },
        "accuracy_decomposition": {
            **branches,
            "accuracy_given_stay": acc_stay,
            "accuracy_given_escalate": acc_esc,
            "expected_accuracy": acc_stay * (stay / n) + acc_esc * (esc / n),
        },
    }


def sweep_from_cache(cache: RoundCache, delta_grid) -> list[dict]:
    """Evaluate every grid delta against one set of cached outputs: each row
    is operating_point()'s accuracy, delay and escalation rate, so it matches a
    dedicated run_protocol call on the same draws bit for bit."""
    grid = [float(d) for d in delta_grid]
    if not grid:
        raise ValueError("empty delta grid")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be sorted ascending")
    points = [operating_point(cache, delta) for delta in grid]
    return [{"delta": delta, "accuracy": p["accuracy"], "avg_delay": p["avg_delay"],
             "escalation_rate": p["escalation_rate"]} for delta, p in zip(grid, points)]


def delta_grid(start: float, stop: float, step: float) -> list[float]:
    """Thresholds start to stop inclusive at the given step, rounded to 10
    decimals so that 0.7 is written as 0.7, not 0.7000000000000001.

    The point count is checked against MAX_GRID_POINTS before any list is
    built, so a step too fine for the range fails at once.
    """
    if not all(np.isfinite(v) for v in (start, stop, step)):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    count = np.floor((stop - start) / step + 1e-9)
    if not count < MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points; use a coarser step")
    return [round(start + i * step, 10) for i in range(int(count) + 1)]


def default_delta_grid(step: float = 0.02) -> list[float]:
    """Thresholds 0 to 1 inclusive at the given step."""
    return delta_grid(0.0, 1.0, step)
