"""Dynamic round selection: thresholding, statistics, calibration, sweeps."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import random_split, small_mrmtl
from mrmtl import protocol
from mrmtl.channel import ChannelConfig
from mrmtl.dataset import Split
from mrmtl.models import (
    ArchitectureConfig,
    Model,
    TrainConfig,
    build_decoder,
    build_encoder,
    load_bundle,
    save_bundle,
)
from mrmtl.protocol import (
    CalibrationError,
    RoundCache,
    apply_threshold,
    average_delay,
    calibrate_threshold,
    default_delta_grid,
    delta_grid,
    escalation_rate,
    evaluate_rounds,
    operating_point,
    run_protocol,
    sweep_from_cache,
    task_accuracy,
    threshold_midpoint,
)


def crafted_cache(confs, r1_pred, r2_pred, labels, nc1=5, nc2=5, num_classes=10):
    """Cache with exact round-1 confidences: probs[pred] = conf, rest uniform."""
    confs = np.asarray(confs, dtype=np.float64)
    n = confs.shape[0]
    p1 = np.empty((n, num_classes))
    for i in range(n):
        p1[i] = (1.0 - confs[i]) / (num_classes - 1)
        p1[i, r1_pred[i]] = confs[i]
    p2 = np.full((n, num_classes), 0.05)
    for i in range(n):
        p2[i, r2_pred[i]] = 1.0 - 0.05 * (num_classes - 1)
    return RoundCache(
        true_labels=np.asarray(labels, dtype=np.int64),
        round1_probs=p1,
        round1_pred=p1.argmax(axis=1),
        round1_conf=p1.max(axis=1),
        round2_probs=p2,
        round2_pred=p2.argmax(axis=1),
        nc1=nc1,
        nc2=nc2,
    )


def random_cache(n=200, num_classes=10, seed=0, nc1=5, nc2=16):
    rng = np.random.default_rng(seed)
    p1 = rng.random((n, num_classes))
    p1 /= p1.sum(axis=1, keepdims=True)
    p2 = rng.random((n, num_classes))
    p2 /= p2.sum(axis=1, keepdims=True)
    return RoundCache(
        true_labels=rng.integers(0, num_classes, n),
        round1_probs=p1,
        round1_pred=p1.argmax(axis=1),
        round1_conf=p1.max(axis=1),
        round2_probs=p2,
        round2_pred=p2.argmax(axis=1),
        nc1=nc1,
        nc2=nc2,
    )


class TestThresholdRule:
    def test_worked_example(self):
        # three samples at confidences 0.5 / 0.8 / 0.9 with threshold 0.7 and
        # five channel uses per round: only the first escalates
        cache = crafted_cache([0.5, 0.8, 0.9], [1, 2, 3], [4, 5, 6], [4, 2, 3])
        traces = apply_threshold(cache, 0.7)
        assert [t.escalated for t in traces] == [True, False, False]
        assert [t.delay for t in traces] == [10, 5, 5]
        assert abs(average_delay(traces) - 20.0 / 3.0) < 1e-12
        assert [t.final_predicted for t in traces] == [4, 2, 3]
        assert task_accuracy(traces) == 1.0

    def test_equality_stays_in_round_one(self):
        cache = crafted_cache([0.7, 0.7 - 1e-12], [0, 0], [1, 1], [0, 0])
        traces = apply_threshold(cache, 0.7)
        assert traces[0].escalated is False
        assert traces[1].escalated is True

    def test_zero_threshold_never_escalates(self):
        cache = random_cache(seed=1)
        traces = apply_threshold(cache, 0.0)
        assert not any(t.escalated for t in traces)
        assert all(t.delay == cache.nc1 for t in traces)
        assert all(t.round2 is None for t in traces)
        assert [t.final_predicted for t in traces] == list(cache.round1_pred)

    def test_above_one_threshold_always_escalates(self):
        cache = random_cache(seed=2)
        traces = apply_threshold(cache, 1.01)
        assert all(t.escalated for t in traces)
        assert all(t.delay == cache.nc1 + cache.nc2 for t in traces)
        assert [t.final_predicted for t in traces] == list(cache.round2_pred)

    def test_escalation_sets_are_nested(self):
        cache = random_cache(seed=3)
        grids = sorted(set(np.round(np.linspace(0, 1.01, 12), 3)))
        previous = set()
        for delta in grids:
            current = {t.sample_index for t in apply_threshold(cache, delta) if t.escalated}
            assert previous <= current
            previous = current

    def test_trace_fields(self):
        cache = crafted_cache([0.4], [2], [7], [7])
        (trace,) = apply_threshold(cache, 0.5)
        assert trace.sample_index == 0
        assert trace.round1.predicted == 2
        assert trace.round2.predicted == 7
        assert trace.final_predicted == 7
        assert trace.true_label == 7
        assert trace.delay == 10


class TestSummaryStatistics:
    def test_decompositions_recover_totals(self):
        cache = random_cache(seed=4)
        # the last two thresholds equal a sample's confidence, which stays
        for delta in (0.0, 0.15, 0.3, 0.6, 1.01, cache.round1_conf[0], cache.round1_conf[1]):
            traces = apply_threshold(cache, delta)
            point = operating_point(cache, delta)
            assert point["accuracy"] == task_accuracy(traces)
            assert point["avg_delay"] == average_delay(traces)
            assert point["escalation_rate"] == escalation_rate(traces)
            dd = point["delay_decomposition"]
            ad = point["accuracy_decomposition"]
            assert abs(dd["expected_delay"] - average_delay(traces)) < 1e-12
            assert abs(ad["expected_accuracy"] - task_accuracy(traces)) < 1e-12
            assert abs(dd["p_stay"] + dd["p_escalate"] - 1.0) < 1e-15
            assert dd["p_escalate"] == escalation_rate(traces)

    def test_empty_branch_reports_zero_conditional(self):
        cache = random_cache(seed=5)
        ad = operating_point(cache, 0.0)["accuracy_decomposition"]
        assert ad["p_escalate"] == 0.0
        assert ad["accuracy_given_escalate"] == 0.0

    def test_head_accuracies_count_each_head(self):
        cache = crafted_cache([0.5, 0.8, 0.9, 0.2], [1, 2, 3, 0], [4, 5, 3, 0], [4, 2, 3, 1])
        assert cache.head_accuracies() == (2 / 4, 2 / 4)
        cache = crafted_cache([0.5, 0.8], [1, 2], [1, 9], [1, 2])
        assert cache.head_accuracies() == (1.0, 0.5)

    def test_empty_traces_rejected(self):
        for fn in (average_delay, task_accuracy, escalation_rate):
            with pytest.raises(ValueError):
                fn([])
        with pytest.raises(ValueError, match="empty"):
            operating_point(random_cache(n=0), 0.5)


class TestMidpoint:
    def test_identity_at_equal_means(self):
        for m in (0.0, 0.25, 0.731, 1.0):
            assert threshold_midpoint(m, m) == m

    def test_simple_midpoint(self):
        assert threshold_midpoint(0.75, 0.25) == 0.5


class TestSweeps:
    def test_rows_match_dedicated_threshold_runs_exactly(self):
        cache = random_cache(seed=7)
        grid = [0.0, 0.1, 0.35, 0.7, 0.95, 1.01]
        for row in sweep_from_cache(cache, grid):
            traces = apply_threshold(cache, row["delta"])
            assert row["accuracy"] == task_accuracy(traces)
            assert row["avg_delay"] == average_delay(traces)
            assert row["escalation_rate"] == escalation_rate(traces)

    def test_delay_is_monotone_in_threshold(self):
        cache = random_cache(seed=8)
        rows = sweep_from_cache(cache, default_delta_grid())
        delays = [r["avg_delay"] for r in rows]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_grid_validation(self):
        cache = random_cache(seed=9)
        with pytest.raises(ValueError, match="empty"):
            sweep_from_cache(cache, [])
        with pytest.raises(ValueError, match="sorted"):
            sweep_from_cache(cache, [0.5, 0.2])

    def test_default_grid(self):
        grid = default_delta_grid()
        assert len(grid) == 51
        assert grid[0] == 0.0
        assert abs(grid[-1] - 1.0) < 1e-9
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_delta_grid_rejects_non_finite_and_too_fine(self):
        for args in [(0.0, np.inf, 0.1), (-np.inf, 1.0, 0.1), (0.0, 1.0, np.nan)]:
            with pytest.raises(ValueError, match="finite"):
                delta_grid(*args)
        # 1e12 points would exhaust memory; the count is refused before any
        # list is built
        with pytest.raises(ValueError, match="points"):
            delta_grid(0.0, 1.0, 1e-12)
        assert len(delta_grid(0.0, 1.0, 1e-4)) == protocol.MAX_GRID_POINTS

    def test_sweep_from_cache_matches_run_protocol(self, awgn_cfg):
        model = small_mrmtl()
        split = random_split(n=96)
        grid = [0.0, 0.4, 0.8]
        cache = evaluate_rounds(model, split, awgn_cfg, np.random.default_rng(42))
        rows = sweep_from_cache(cache, grid)
        for delta, row in zip(grid, rows):
            traces = run_protocol(model, split, delta, awgn_cfg, np.random.default_rng(42))
            assert row["accuracy"] == task_accuracy(traces)
            assert row["avg_delay"] == average_delay(traces)
            assert row["escalation_rate"] == escalation_rate(traces)


class TestEvaluateRounds:
    def test_empty_inputs_rejected(self, awgn_cfg):
        model = small_mrmtl()
        empty = random_split(n=0)
        for fn in (evaluate_rounds, calibrate_threshold):
            with pytest.raises(ValueError, match="empty"):
                fn(model, empty, awgn_cfg, np.random.default_rng(0))

    def test_probabilities_are_normalized(self, awgn_cfg):
        model = small_mrmtl()
        cache = evaluate_rounds(model, random_split(n=10), awgn_cfg,
                                np.random.default_rng(8))
        assert np.allclose(cache.round1_probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(cache.round2_probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(cache.round1_pred, cache.round1_probs.argmax(axis=1))
        assert np.array_equal(cache.round1_conf, cache.round1_probs.max(axis=1))


class TestCalibration:
    def test_statistics_shape_and_midpoint(self, awgn_cfg):
        model = small_mrmtl()
        split = random_split(n=150)
        stats = calibrate_threshold(model, split, awgn_cfg, np.random.default_rng(9))
        assert stats.n_correct + stats.n_incorrect == 150
        assert int(stats.histogram_correct.sum()) == stats.n_correct
        assert int(stats.histogram_incorrect.sum()) == stats.n_incorrect
        assert stats.bin_edges.shape == (51,)
        assert stats.delta_star == threshold_midpoint(stats.mean_conf_correct,
                                                      stats.mean_conf_incorrect)
        assert 0.0 <= stats.delta_star <= 1.0

    def test_round1_pass_matches_evaluate_rounds(self, awgn_cfg):
        # calibration and full evaluation share the chunk/spawn layout, so
        # their round-1 draws coincide under the same entry rng state
        model = small_mrmtl()
        split = random_split(n=150)
        cache = evaluate_rounds(model, split, awgn_cfg, np.random.default_rng(10))
        stats = calibrate_threshold(model, split, awgn_cfg, np.random.default_rng(10))
        correct = cache.round1_pred == cache.true_labels
        assert stats.n_correct == int(np.count_nonzero(correct))
        assert stats.mean_conf_correct == float(cache.round1_conf[correct].mean())
        assert stats.mean_conf_incorrect == float(cache.round1_conf[~correct].mean())

    @staticmethod
    def _one_image_split(model, cfg):
        """Eight copies of one image and the noise-free round-1 verdict on it."""
        images = np.repeat(random_split(n=8).images[:1], 8, axis=0)
        cache = evaluate_rounds(model, Split(images=images, labels=np.zeros(8, np.int64)),
                                cfg, np.random.default_rng(0))
        assert np.all(cache.round1_pred == cache.round1_pred[0])
        return images, int(cache.round1_pred[0])

    def test_all_correct_raises(self):
        # identical inputs and a noise-free channel give one shared verdict;
        # labeling every sample with it leaves the incorrect partition empty
        model = small_mrmtl()
        cfg = ChannelConfig(kind="awgn", snr_db=np.inf, seed=0)
        images, verdict = self._one_image_split(model, cfg)
        same = Split(images=images, labels=np.full(8, verdict))
        with pytest.raises(CalibrationError, match="no incorrectly"):
            calibrate_threshold(model, same, cfg, np.random.default_rng(1))

    def test_all_incorrect_raises(self):
        model = small_mrmtl()
        cfg = ChannelConfig(kind="awgn", snr_db=np.inf, seed=0)
        images, verdict = self._one_image_split(model, cfg)
        wrong = Split(images=images, labels=np.full(8, (verdict + 1) % 10))
        with pytest.raises(CalibrationError, match="no correctly"):
            calibrate_threshold(model, wrong, cfg, np.random.default_rng(1))

    def test_bad_bin_count_rejected(self, awgn_cfg):
        model = small_mrmtl()
        for num_bins in (0, protocol.MAX_NUM_BINS + 1):
            with pytest.raises(ValueError, match="num_bins"):
                calibrate_threshold(model, random_split(n=8), awgn_cfg,
                                    np.random.default_rng(0), num_bins=num_bins)

    def test_accepts_srstl_model(self, awgn_cfg):
        from conftest import small_srstl

        stats = calibrate_threshold(small_srstl(), random_split(n=64), awgn_cfg,
                                    np.random.default_rng(11))
        assert stats.n_correct + stats.n_incorrect == 64


@pytest.fixture(scope="module")
def mrmtl_32() -> Model:
    """The deployed 3x32x32 architecture."""
    return Model(encoder1=build_encoder(4, 1), encoder2=build_encoder(4, 2),
                 decoder1=build_decoder(4, 4, 3), decoder2=build_decoder(8, 4, 4),
                 loss_weight=0.5, nc1=4, nc2=4)


@pytest.fixture(scope="module")
def mrmtl_8() -> Model:
    """The 3x8x8 test architecture: its late conv layers see a few patch rows
    per image, where a GEMM's rounding is most sensitive to its row count."""
    return small_mrmtl()


@pytest.fixture(params=[pytest.param(("mrmtl_8", 29), id="8x8-n29"),
                        pytest.param(("mrmtl_8", 92), id="8x8-n92"),
                        pytest.param(("mrmtl_32", 70), id="32x32-n70")])
def gated(request) -> tuple[Model, Split]:
    """A model and a split whose size is not a multiple of protocol.CHUNK."""
    name, n = request.param
    model = request.getfixturevalue(name)
    return model, random_split(n=n, shape=model.encoder1.input_shape)


class TestGatedRoundTwo:
    """run_protocol runs Round 2 only on escalated samples, and its traces
    equal the full two-round pass resolved by apply_threshold."""

    @staticmethod
    def _deltas(cache) -> list[float]:
        """0 and 1.01, quartiles of the Round-1 confidence, and the smallest
        delta at which a chunk of several samples escalates one alone."""
        conf = cache.round1_conf
        quartiles = np.quantile(conf, [0.25, 0.5, 0.75])
        for c in np.unique(conf):
            lone = float(np.nextafter(c, np.inf))
            if any(np.count_nonzero(chunk < lone) == 1 < chunk.size
                   for chunk in np.split(conf, range(protocol.CHUNK, conf.size, protocol.CHUNK))):
                break
        else:
            raise AssertionError("no delta escalates a lone sample")
        return [0.0, lone, *(float(q) for q in quartiles), 1.01]

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_traces_equal_full_pass(self, gated, kind):
        model, split = gated
        cfg = ChannelConfig(kind=kind, snr_db=10.0, seed=0)
        cache = evaluate_rounds(model, split, cfg, np.random.default_rng(21))
        escalated_counts = set()
        for delta in self._deltas(cache):
            want = apply_threshold(cache, delta)
            got = run_protocol(model, split, delta, cfg, np.random.default_rng(21))
            assert len(got) == len(want)
            escalated_counts.add(sum(t.escalated for t in got))
            for g, w in zip(got, want):
                assert g.sample_index == w.sample_index
                assert g.round1.probs.tobytes() == w.round1.probs.tobytes()
                assert g.round1.confidence == w.round1.confidence
                assert g.round1.predicted == w.round1.predicted
                assert g.escalated == w.escalated
                assert g.final_predicted == w.final_predicted
                assert g.true_label == w.true_label
                assert g.delay == w.delay
                if w.escalated:
                    assert g.round2.probs.tobytes() == w.round2.probs.tobytes()
                    assert g.round2.confidence == w.round2.confidence
                    assert g.round2.predicted == w.round2.predicted
                else:
                    assert g.round2 is None
        assert {0, len(split)} <= escalated_counts and len(escalated_counts) > 4

    def test_round_two_sees_escalated_rows_only(self, gated, monkeypatch, rayleigh_cfg):
        model, split = gated
        seen = {"encoder2": [], "decoder2": []}
        for name, rows in seen.items():
            net = getattr(model, name)

            def counting(x, *args, _forward=net.forward, _rows=rows, **kwargs):
                _rows.append(x.shape[0])
                return _forward(x, *args, **kwargs)

            monkeypatch.setattr(net, "forward", counting)
        cache = evaluate_rounds(model, split, rayleigh_cfg, np.random.default_rng(22))
        assert sum(seen["encoder2"]) == sum(seen["decoder2"]) == len(split)
        for delta in self._deltas(cache):
            for rows in seen.values():
                rows.clear()
            traces = run_protocol(model, split, delta, rayleigh_cfg,
                                  np.random.default_rng(22))
            # one call per chunk with an escalated sample, on exactly those
            chunks = (traces[lo:lo + protocol.CHUNK]
                      for lo in range(0, len(traces), protocol.CHUNK))
            want = [k for k in (sum(t.escalated for t in c) for c in chunks) if k]
            assert seen["encoder2"] == seen["decoder2"] == want


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A saved 3x8x8 MRMTL bundle: each load_bundle is a fresh, uncalibrated model."""
    path = tmp_path_factory.mktemp("memo_bundle")
    return save_bundle(small_mrmtl(seed=3), path, ArchitectureConfig(nc=4),
                       ChannelConfig(seed=0), TrainConfig(epochs=0), "random")


@pytest.fixture
def symbols(monkeypatch):
    """An empty protocol._SYMBOLS for one test."""
    memo = weakref.WeakKeyDictionary()
    monkeypatch.setattr(protocol, "_SYMBOLS", memo)
    return memo


def encoder1_rows(monkeypatch, model) -> list[int]:
    """The row count of every Encoder-1 forward from now on."""
    rows = []
    forward = model.encoder1.forward

    def counting(x, *args, **kwargs):
        rows.append(x.shape[0])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(model.encoder1, "forward", counting)
    return rows


def outputs(call: str, model, split, cfg, delta: float) -> list:
    """Every field of evaluate_rounds' cache, or of run_protocol's traces,
    as bytes or plain values, for bit-for-bit comparison."""
    rng = np.random.default_rng(31)
    if call == "evaluate_rounds":
        cache = evaluate_rounds(model, split, cfg, rng)
        values = (getattr(cache, f.name) for f in dataclasses.fields(cache))
        return [v.tobytes() if isinstance(v, np.ndarray) else v for v in values]
    return [(t.sample_index, t.round1.probs.tobytes(), t.round1.confidence,
             t.round1.predicted, t.escalated,
             None if t.round2 is None else (t.round2.probs.tobytes(), t.round2.predicted),
             t.final_predicted, t.true_label, t.delay)
            for t in run_protocol(model, split, delta, cfg, rng)]


@pytest.mark.parametrize("call", ["evaluate_rounds", "run_protocol"])
class TestRoundOneMemo:
    """calibrate_threshold keeps its Round-1 symbols for the next call on the
    same split; every result equals a fresh, uncalibrated load's bit for bit."""

    @staticmethod
    def _calibrate(model, split, rayleigh_cfg) -> float:
        stats = calibrate_threshold(model, split, rayleigh_cfg, np.random.default_rng(30))
        return stats.delta_star

    def test_same_split_hits(self, bundle, symbols, monkeypatch, rayleigh_cfg, call):
        model, _ = load_bundle(bundle)
        split = random_split(n=150)
        delta = self._calibrate(model, split, rayleigh_cfg)
        rows = encoder1_rows(monkeypatch, model)
        got = outputs(call, model, split, rayleigh_cfg, delta)
        assert rows == []
        want = outputs(call, load_bundle(bundle)[0], split, rayleigh_cfg, delta)
        assert got == want
        if call == "run_protocol":
            assert 0 < sum(t[4] for t in got) < len(split)

    def test_images_changed_in_place_miss(self, bundle, symbols, monkeypatch,
                                          rayleigh_cfg, call):
        model, _ = load_bundle(bundle)
        split = random_split(n=150)
        delta = self._calibrate(model, split, rayleigh_cfg)
        split.images[70, 1, 2, 3] += 0.25
        rows = encoder1_rows(monkeypatch, model)
        got = outputs(call, model, split, rayleigh_cfg, delta)
        assert sum(rows) == len(split)
        assert got == outputs(call, load_bundle(bundle)[0], split, rayleigh_cfg, delta)

    def test_encoder_weight_changed_in_place_misses(self, bundle, symbols, monkeypatch,
                                                    rayleigh_cfg, call):
        model, _ = load_bundle(bundle)
        fresh, _ = load_bundle(bundle)
        split = random_split(n=150)
        delta = self._calibrate(model, split, rayleigh_cfg)
        for m in (model, fresh):
            m.encoder1.param_items()[0][1].flat[5] += 0.25
        rows = encoder1_rows(monkeypatch, model)
        got = outputs(call, model, split, rayleigh_cfg, delta)
        assert sum(rows) == len(split)
        assert got == outputs(call, fresh, split, rayleigh_cfg, delta)

    def test_other_split_of_the_same_shape_misses(self, bundle, symbols, monkeypatch,
                                                  rayleigh_cfg, call):
        model, _ = load_bundle(bundle)
        delta = self._calibrate(model, random_split(n=150, seed=1), rayleigh_cfg)
        split = random_split(n=150, seed=2)
        rows = encoder1_rows(monkeypatch, model)
        got = outputs(call, model, split, rayleigh_cfg, delta)
        assert sum(rows) == len(split)
        assert got == outputs(call, load_bundle(bundle)[0], split, rayleigh_cfg, delta)

    def test_uncalibrated_calls_keep_and_hash_nothing(self, bundle, symbols, monkeypatch,
                                                      awgn_cfg, call):
        digests = []
        digest = protocol._digest

        def counting(*args):
            digests.append(args)
            return digest(*args)

        monkeypatch.setattr(protocol, "_digest", counting)
        model, _ = load_bundle(bundle)
        outputs(call, model, random_split(n=150), awgn_cfg, 0.5)
        assert len(symbols) == 0 and digests == []


def test_memo_entry_dies_with_its_encoder(bundle, symbols, awgn_cfg):
    model, _ = load_bundle(bundle)
    calibrate_threshold(model, random_split(n=70), awgn_cfg, np.random.default_rng(0))
    assert list(symbols) == [model.encoder1]
    del model
    gc.collect()
    assert len(symbols) == 0
