"""Tests of the perf benchmark's own parts: tracer, inputs, stored weights."""

import dataclasses

import numpy as np
import pytest

import run
import workloads
from spinann import benchmark as letters
from spinann import trainer
from tracing import TRACE_POINTS, Tracer


class ShortTrain(workloads.Train):
    """The train workload's path through the trainer, on a short schedule."""

    window = 1

    def op(self, i):
        base, _, refine = letters.recognizer_configs(workloads.TRAIN_SEED)
        dataset = self.corpus.dataset
        kind = trainer.TransferKind.stt_snn(n_nodes=64)
        floated = letters.train(
            dataset, 5, kind, dataclasses.replace(base, epochs=60))
        return letters.finalize(floated, dataset, levels=workloads.LEVELS,
                                cfg=dataclasses.replace(refine, epochs=20))

    def check(self, out):
        return None if workloads.on_grid(out) else "off grid"


def _small(cls, window):
    wl = cls()
    wl.window = wl.min_ops = window
    return wl


@pytest.mark.parametrize("make", [
    lambda: _small(workloads.Recognize, 3),
    lambda: _small(workloads.MonteCarlo, 1),
    lambda: ShortTrain(),
], ids=["recognize", "montecarlo", "train"])
def test_traced_and_untraced_runs_give_equal_fingerprints(make):
    plain = run.end_to_end(make(), 5, 0.0)
    traced = run.traced(make(), 5, Tracer())
    assert plain.correct and traced.correct
    assert traced.fingerprints == plain.fingerprints
    assert traced.attempted == 2 * make().window
    for point in TRACE_POINTS:
        assert f"{point.name}.calls" in traced.metrics
        assert f"{point.name}.self_s" in traced.metrics
    assert traced.metrics["benchmark.load_corpus.calls"][0] == 1


def test_tracer_restores_originals_and_nests_spans():
    from spinann.crossbar import CrossbarArray

    originals = (CrossbarArray.weighted_sum, trainer.activation)
    wl = _small(workloads.Recognize, 1)
    wl.setup()
    wl.prepare(0)
    with Tracer() as tracer:
        wl.op(0)
    assert (CrossbarArray.weighted_sum, trainer.activation) == originals
    totals = tracer.totals()
    assert totals["network.forward"][0] == 26
    assert totals["crossbar.weighted_sum"][0] == 2 * 26
    parents = {tracer.spans[p][0] for *_, p in tracer.spans if p >= 0}
    assert parents == {"benchmark.evaluate", "network.forward"}
    assert all(self_s >= 0.0 for _, self_s in totals.values())


def test_train_stage_spans_and_epochs():
    tracer = Tracer()
    metrics = run.traced(ShortTrain(), 0, tracer).metrics
    rows = sum(len(r.history) for name in ("trainer.train", "trainer.finalize")
               for r in tracer.returns[name])
    assert metrics["trainer.epochs"][0] == rows > 0
    assert metrics["trainer.stage_base_s"][0] > 0.0
    assert metrics["trainer.stage_harden_s"][0] > 0.0
    assert metrics["trainer.stage_refine_s"][0] == 0.0
    assert metrics["device.transfer.calls"][0] == 64
    assert metrics["trainer.activation.calls"][0] > 0


class TestNoisyGlyphs:
    def base(self):
        return np.stack([g.bitmap for g in letters.load_corpus().glyphs])

    def test_deterministic_per_seed(self):
        base = self.base()
        a = workloads.noisy_glyph_sets(base, 5, workloads.FLIP_PROB, 3)
        b = workloads.noisy_glyph_sets(base, 5, workloads.FLIP_PROB, 3)
        c = workloads.noisy_glyph_sets(base, 5, workloads.FLIP_PROB, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert set(np.unique(a)) <= {0.0, 1.0}
        flipped = np.mean(a != base)
        assert 0.01 < flipped < 0.05

    def test_never_inkless(self):
        # A one-pixel glyph at this flip rate loses its only ink in about
        # one draw in 700, so some of these 26,000 draws must be redrawn.
        base = np.zeros((26, 16, 16))
        base[:, 7, 7] = 1.0
        sets = workloads.noisy_glyph_sets(base, 1000, 1 / 256, 0)
        assert sets.any(axis=(2, 3)).all()


def test_stored_weights_load_on_grid_and_read_all_letters():
    result = trainer.load_weights(workloads.WEIGHTS_FILE)
    assert workloads.on_grid(result)
    wl = workloads.Recognize()
    wl.setup()
    assert wl.setup_check() is None
