"""Span recording for the traced benchmark run, attached to mrmtl from outside.

A span is a dict with a name, perf_counter start and end, the id of the span
that was open when it started (-1 for none), the id of the step, chunk or
harness unit that was current, and an optional image count. Spans are kept
in memory and written out once, when the run ends.

Nothing under src/ knows about this module: `instrument` swaps module
attributes and Network instance methods for timing wrappers, and undoes
every swap on exit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()
        self.unit = 0

    @property
    def top_name(self) -> str | None:
        return self._stack[-1]["name"] if self._stack else None

    def open(self, name: str, new_unit: bool = False, n: int | None = None) -> dict:
        if new_unit:
            self.unit += 1
        span = {"id": next(self._ids), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else -1,
                "unit": self.unit, "start": time.perf_counter()}
        if n is not None:
            span["n"] = n
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)

    def cancel(self, span: dict) -> None:
        """Drop an open span; its closed children move up to its parent."""
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} cancelled out of order")
        for s in self.spans:
            if s["parent"] == span["id"]:
                s["parent"] = span["parent"]

    @contextlib.contextmanager
    def span(self, name: str, new_unit: bool = False):
        s = self.open(name, new_unit)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


def durations(spans) -> dict[int, float]:
    return {s["id"]: s["end"] - s["start"] for s in spans}


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = durations(spans)
    out = dict(own)
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= own[s["id"]]
    return out


def self_time_table(spans) -> list[tuple[str, int, float, float]]:
    """(name, calls, total_s, self_s) per span name, largest self time first."""
    own = durations(spans)
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        r = rows[s["name"]]
        r[0] += 1
        r[1] += own[s["id"]]
        r[2] += selfs[s["id"]]
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])


# ---------------------------------------------------------------------------
# attaching spans to mrmtl


def _wrap_network(tracer: Tracer, net, role: str, wrapped: list) -> None:
    """Instance-level spans around Network.forward/backward, with batch sizes."""
    forward, backward = net.forward, net.backward

    def traced_forward(x, train=False, rng=None):
        s = tracer.open(f"nn.{role}.{'forward_train' if train else 'forward'}",
                        n=int(x.shape[0]))
        try:
            return forward(x, train, rng)
        finally:
            tracer.close(s)

    def traced_backward(dout):
        s = tracer.open(f"nn.{role}.backward", n=int(dout.shape[0]))
        try:
            return backward(dout)
        finally:
            tracer.close(s)

    net.forward = traced_forward
    net.backward = traced_backward
    wrapped.append(weakref.ref(net))


@contextlib.contextmanager
def instrument(tracer: Tracer, nets: dict | None = None):
    """Install spans at every layer boundary the workloads cross.

    nets maps role names (encoder1, ...) to networks that already exist.
    Networks built or loaded while installed are wrapped as they appear.
    Every patch is reverted on exit.
    """
    from mrmtl import analysis, charts, models, nn, protocol

    patches: list[tuple[object, str, object]] = []
    wrapped: list = []

    def patch(obj, attr: str, new) -> None:
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def spanned(obj, attr: str, name: str) -> None:
        patch(obj, attr, tracer.wrap(getattr(obj, attr), name))

    roles = {"encoder": itertools.cycle(["encoder1", "encoder2"]),
             "decoder": itertools.cycle(["decoder1", "decoder2"])}

    def building(kind: str, build):
        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            with tracer.span("models.build"):
                net = build(*args, **kwargs)
            _wrap_network(tracer, net, next(roles[kind]), wrapped)
            return net
        return traced_build

    load_checkpoint = nn.load_checkpoint

    def traced_load_checkpoint(path):
        with tracer.span("nn.checkpoint.load"):
            net, header = load_checkpoint(path)
        _wrap_network(tracer, net, header["metadata"].get("part", "net"), wrapped)
        return net, header

    batches = models.batches

    def traced_batches(*args, **kwargs):
        # One span per training step (or per test-pass chunk inside
        # mrmtl_head_accuracies), opened before the batch is fetched so the
        # step's data time sits inside it.
        name = ("models.eval_chunk" if tracer.top_name == "models.head_accuracies"
                else "models.train_step")
        gen = batches(*args, **kwargs)
        while True:
            step = tracer.open(name, new_unit=True)
            data = tracer.open("dataset.batches")
            try:
                item = next(gen)
            except StopIteration:
                tracer.close(data)
                tracer.cancel(step)
                return
            tracer.close(data)
            try:
                yield item
            finally:
                tracer.close(step)

    try:
        for role, net in (nets or {}).items():
            _wrap_network(tracer, net, role, wrapped)
        patch(models, "batches", traced_batches)
        for mod in (models, protocol):
            spanned(mod, "draw_channel", "channel.draw")
        spanned(models, "power_norm_forward", "channel.power_norm")
        spanned(models, "power_norm_backward", "channel.power_norm")
        patch(models, "build_encoder", building("encoder", models.build_encoder))
        patch(models, "build_decoder", building("decoder", models.build_decoder))
        spanned(nn.Adam, "step", "nn.adam.step")
        spanned(nn, "save_checkpoint", "nn.checkpoint.save")
        patch(nn, "load_checkpoint", traced_load_checkpoint)
        spanned(models, "train_mrmtl", "models.train_mrmtl")
        spanned(models, "mrmtl_head_accuracies", "models.head_accuracies")
        spanned(models, "save_bundle", "models.save_bundle")
        spanned(models, "load_bundle", "models.load_bundle")
        for name in ("calibrate_threshold", "evaluate_rounds", "run_protocol",
                     "apply_threshold", "sweep_from_cache"):
            spanned(protocol, name, f"protocol.{name}")
        for name in ("apply_threshold", "sweep_from_cache"):
            spanned(analysis, name, f"protocol.{name}")
        for name in ("build_report", "emit_report", "read_traces_csv"):
            spanned(analysis, name, f"analysis.{name}")
        spanned(charts, "emit_sweep_charts", "charts.emit_sweep_charts")
        yield tracer
    finally:
        for obj, attr, old in reversed(patches):
            setattr(obj, attr, old)
        for ref in wrapped:
            net = ref()
            if net is not None:
                net.__dict__.pop("forward", None)
                net.__dict__.pop("backward", None)
