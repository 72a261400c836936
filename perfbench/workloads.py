"""The benchmark's three workloads: inputs, one operation, output checks.

Each workload is driven by one caller in a closed loop: an operation
starts when the previous one returns. The harness calls `spinann`
through module attributes (`letters.evaluate`, `hw.build_network`, ...)
so that the traced run's wrappers see those calls too.

Every workload keeps the outputs of its first `window` operations. Those
outputs, which depend only on the workload seed, give the quality
metrics and the fingerprints; later operations only add timing samples
and are checked for failures.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from spinann import benchmark as letters
from spinann import network as hw
from spinann import trainer

# Training seed of the `train` workload and of the stored recognizer.
# Most seeds raise TrainingError (1, 2, 3, 5, 7 and 23 among them); 17 is
# the recipe's default and 11, which also converges, is held out for
# checking claims.
TRAIN_SEED = 17
HELD_OUT_TRAIN_SEED = 11
LEVELS = 32
SIGMA = 0.05
MC_TRIALS = 200
MC_MIN_YIELD = 0.95
FLIP_PROB = 0.03
WEIGHTS_FILE = Path(__file__).resolve().parent / "data" / "recognizer_seed17.json"


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def on_grid(result) -> bool:
    """Both weight matrices lie on the `LEVELS`-level conductance grid."""
    return all(
        np.abs(trainer.quantize_weights(w, LEVELS)[0] - w).max() < 1e-12
        for w in (result.w1, result.w2)
    )


def energy_pj(network, features: np.ndarray) -> float:
    """Mean simulated energy of one recognition, picojoules."""
    return 1e12 * float(np.mean([network.forward(f)[1].total
                                 for f in features]))


def noisy_glyph_sets(base: np.ndarray, n_sets: int, flip_prob: float,
                     seed: int) -> np.ndarray:
    """`n_sets` copies of the bitmaps `base` with pixels flipped at random.

    Each pixel flips with probability `flip_prob`. A bitmap left without
    ink is drawn again, because feature extraction rejects it.
    """
    gen = np.random.default_rng(seed)
    out = np.empty((n_sets, *base.shape), dtype=base.dtype)
    for k in range(n_sets):
        drawn = np.where(gen.random(base.shape) < flip_prob, 1 - base, base)
        inkless = ~drawn.any(axis=(1, 2))
        while inkless.any():
            again = gen.random((int(inkless.sum()), *base.shape[1:]))
            drawn[inkless] = np.where(again < flip_prob,
                                      1 - base[inkless], base[inkless])
            inkless = ~drawn.any(axis=(1, 2))
        out[k] = drawn
    return out


class Train:
    """`train_recognizer(corpus, seed=17)`: base, harden and refine stages."""

    name = "train"
    window = 1
    min_ops = 2

    def setup(self) -> None:
        self.corpus = letters.load_corpus()

    def prepare(self, seed: int) -> None:
        """The training input is the corpus and the fixed recipe seed."""

    def setup_check(self) -> str | None:
        return None

    def op(self, i: int):
        return letters.train_recognizer(self.corpus, seed=TRAIN_SEED)

    def items(self, out) -> int:
        return 1

    def check(self, out) -> str | None:
        if not on_grid(out):
            return "weights off the conductance grid"
        read = letters.evaluate(hw.build_network(out), self.corpus)
        if not read.correct.all():
            return f"hardware reads {int(read.correct.sum())}/26"
        return None

    def fingerprints(self, outs) -> dict[str, str]:
        return {"weights_sha256": sha256([outs[0].w1, outs[0].w2])}

    def quality(self, outs) -> dict[str, float]:
        network = hw.build_network(outs[0])
        read = letters.evaluate(network, self.corpus)
        return {
            "accuracy": read.accuracy,
            "margin": read.min_margin,
            "sim_energy_pj": energy_pj(network, self.corpus.features),
        }


class _Recognizer:
    """Shared set-up: the stored seed-17 recognizer mapped onto crossbars."""

    def setup(self) -> None:
        self.corpus = letters.load_corpus()
        self.network = hw.build_network(trainer.load_weights(WEIGHTS_FILE))

    def setup_check(self) -> str | None:
        """The noiseless corpus must read 26/26 on the loaded network."""
        read = letters.evaluate(self.network, self.corpus)
        if not read.correct.all():
            return f"clean corpus reads {int(read.correct.sum())}/26"
        return None


class MonteCarlo(_Recognizer):
    """`monte_carlo` at sigma=5% on the nominal recognizer.

    Operation i draws its trials from a seed spawned from the workload
    seed and i, so the window's `window * MC_TRIALS` trials are distinct.
    """

    name = "montecarlo"
    window = 20
    min_ops = 20

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def op(self, i: int):
        op_seed = int(np.random.SeedSequence([self.seed, i])
                      .generate_state(1)[0])
        return letters.monte_carlo(self.network, self.corpus, MC_TRIALS,
                                   sigma=SIGMA, seed=op_seed)

    def items(self, out) -> int:
        return out.trials

    def check(self, out) -> str | None:
        if out.fully_correct_fraction < MC_MIN_YIELD:
            return f"yield {out.fully_correct_fraction} < {MC_MIN_YIELD}"
        return None

    def fingerprints(self, outs) -> dict[str, str]:
        return {"min_margins_sha256": sha256(o.min_margins for o in outs)}

    def quality(self, outs) -> dict[str, float]:
        accuracies = np.concatenate([o.accuracies for o in outs])
        margins = np.concatenate([o.min_margins for o in outs])
        # The 5th percentile is the tail that matters, but on 4000 trials
        # it still moves by a fifth from seed to seed; the median is the
        # steady figure for comparing commits.
        return {
            "accuracy": float(np.mean(accuracies == 1.0)),
            "margin": float(np.median(margins)),
            "margin_p5": float(np.percentile(margins, 5)),
            "sim_energy_pj": energy_pj(self.network, self.corpus.features),
        }


class Recognize(_Recognizer):
    """26 noisy glyphs per operation: `extract_features` each, then
    `evaluate` on the nominal recognizer."""

    name = "recognize"
    window = 200
    min_ops = 200

    def prepare(self, seed: int) -> None:
        base = np.stack([g.bitmap for g in self.corpus.glyphs])
        self.glyph_sets = noisy_glyph_sets(base, self.window, FLIP_PROB, seed)

    def op(self, i: int):
        bitmaps = self.glyph_sets[i % self.window]
        features = np.stack([letters.extract_features(b) for b in bitmaps])
        return features, letters.evaluate(
            self.network, dataclasses.replace(self.corpus, features=features))

    def items(self, out) -> int:
        return len(out[0])

    def check(self, out) -> str | None:
        n = len(self.corpus.letters)
        if out[1].raw_matrix.shape != (n, n):
            return f"response matrix {out[1].raw_matrix.shape}"
        return None

    def fingerprints(self, outs) -> dict[str, str]:
        return {"raw_matrices_sha256": sha256(r.raw_matrix for _, r in outs)}

    def quality(self, outs) -> dict[str, float]:
        return {
            "accuracy": float(np.mean([r.correct for _, r in outs])),
            "margin": float(np.median([r.margins for _, r in outs])),
            "sim_energy_pj": energy_pj(
                self.network, np.concatenate([f for f, _ in outs])),
        }


WORKLOADS = {w.name: w for w in (Train, MonteCarlo, Recognize)}
