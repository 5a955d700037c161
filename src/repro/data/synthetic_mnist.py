"""Synthetic stand-in for the MNIST dataset.

The paper evaluates FEI on MNIST (70 000 gray-scale 28x28 images of
hand-written digits; 60 000 train / 10 000 test).  MNIST itself is not
available offline, so this module generates a deterministic synthetic
look-alike: each of the 10 classes is rendered from a fixed digit glyph
prototype, then perturbed per-sample with random translation, intensity
scaling, and pixel noise.

For a *linear* model (multinomial logistic regression, as used in the
paper) the resulting task has the properties the evaluation relies on:

* 784-dimensional inputs in ``[0, 1]`` and 10 balanced classes,
* classes are mostly linearly separable but overlap enough that accuracy
  climbs gradually over many SGD rounds (so the K/E/T convergence
  trade-offs of Fig. 4 are visible),
* i.i.d. sampling across edge servers, matching the paper's uniform
  60 000-sample allocation over 20 servers.

Generation uses the CPU budget (:mod:`repro.perf.cpu`) and gives the
same bits at any budget.  The calling thread makes every draw from a
split's generator, in stream order, and writes each class's noise
straight into its rows.  A second thread shapes each class as its draws
finish (and, for :func:`load_synthetic_mnist`, first generates the test
split).  The permutation is applied in place, so no split is ever held
twice.
"""

from __future__ import annotations

import queue
from typing import Callable, TypeVar

import numpy as np

from repro.data.dataset import Dataset
from repro.perf.cpu import run_beside

__all__ = [
    "IMAGE_SIDE",
    "N_FEATURES",
    "N_CLASSES",
    "render_glyph",
    "generate_synthetic_mnist",
    "load_synthetic_mnist",
]

IMAGE_SIDE = 28
N_FEATURES = IMAGE_SIDE * IMAGE_SIDE
N_CLASSES = 10

# 7x5 bitmap prototypes for the digits 0-9 ('#' = ink).  These mimic a
# seven-segment-like hand-written style; they only need to be mutually
# distinguishable under noise, not beautiful.
_GLYPHS: dict[int, tuple[str, ...]] = {
    0: (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    1: ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    2: (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    3: (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    4: ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    5: ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    6: (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    7: ("#####", "    #", "   # ", "  #  ", "  #  ", " #   ", " #   "),
    8: (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    9: (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
}

_GLYPH_ROWS = 7
_GLYPH_COLS = 5
# Upsampling factors chosen so the rendered glyph occupies the centre of the
# 28x28 canvas with a margin that leaves room for +-3 pixel translations.
_SCALE_Y = 3
_SCALE_X = 4
_MAX_SHIFT = 3

R = TypeVar("R")


def render_glyph(digit: int) -> np.ndarray:
    """Render the clean 28x28 prototype image for ``digit``.

    Returns a float32 array with values in ``{0.0, 1.0}`` (ink mask) of
    shape ``(28, 28)``.
    """
    if digit not in _GLYPHS:
        raise ValueError(f"digit must be in 0..9; got {digit}")
    bitmap = np.array(
        [[1.0 if ch == "#" else 0.0 for ch in row] for row in _GLYPHS[digit]],
        dtype=np.float32,
    )
    scaled = np.kron(bitmap, np.ones((_SCALE_Y, _SCALE_X), dtype=np.float32))
    canvas = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=np.float32)
    top = (IMAGE_SIDE - scaled.shape[0]) // 2
    left = (IMAGE_SIDE - scaled.shape[1]) // 2
    canvas[top : top + scaled.shape[0], left : left + scaled.shape[1]] = scaled
    return canvas


# Rows of float64 noise per draw: the normals reach the images as
# float32 through a few-MB buffer, never as a whole class at float64.
_NOISE_ROWS = 256


class _Split:
    """One generated set: its buffers and its random streams.

    Its buffers are allocated here, on the calling thread, so none of
    the set's memory sits in a helper thread's malloc arena.
    """

    def __init__(
        self, n_samples: int, seed: int, noise_std: float, label_noise: float
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive; got {n_samples}")
        if not 0.0 <= label_noise < 1.0:
            raise ValueError(f"label_noise must be in [0, 1); got {label_noise}")
        self.seed = seed
        self.noise_std = noise_std
        self.label_noise = label_noise
        self.rng = np.random.default_rng(seed)
        self.images = np.empty((n_samples, IMAGE_SIDE, IMAGE_SIDE), dtype=np.float32)
        self.labels = np.empty(n_samples, dtype=np.int64)
        self.perm: np.ndarray | None = None

    def draw(self, hand_off: Callable[[tuple], object]) -> None:
        """Every draw of the set, in stream order.

        Per class: the shifts, the intensity and the noise, which goes
        straight into the class's rows as float32.  ``hand_off`` then
        gets what :func:`_shape` needs to finish those rows.  After the
        classes: the label noise (its own stream) and the permutation.
        """
        rng = self.rng
        n_samples = len(self.labels)
        per_class = np.full(N_CLASSES, n_samples // N_CLASSES, dtype=np.int64)
        per_class[: n_samples % N_CLASSES] += 1
        cursor = 0
        for digit, count in enumerate(per_class.tolist()):
            if count == 0:
                continue
            stop = cursor + count
            shifts_y = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=count)
            shifts_x = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=count)
            intensity = rng.uniform(0.6, 1.0, size=(count, 1, 1)).astype(np.float32)
            # One stream, drawn in pieces: the same normals as one call.
            for row in range(cursor, stop, _NOISE_ROWS):
                rows = min(_NOISE_ROWS, stop - row)
                self.images[row : row + rows] = rng.normal(
                    0.0, self.noise_std, size=(rows, IMAGE_SIDE, IMAGE_SIDE)
                )
            self.labels[cursor:stop] = digit
            hand_off((digit, self.images[cursor:stop], shifts_y, shifts_x, intensity))
            cursor = stop

        if self.label_noise > 0:
            # Dedicated stream so changing label_noise never perturbs the
            # images or the sample order drawn from the main stream.
            label_rng = np.random.default_rng([self.seed, 0x1AB31])
            flip = label_rng.random(n_samples) < self.label_noise
            self.labels[flip] = label_rng.integers(
                0, N_CLASSES, size=int(flip.sum())
            )
        self.perm = rng.permutation(n_samples)

    def shuffle(self) -> Dataset:
        """The drawn and shaped set in permuted order, permuted in place."""
        features = self.images.reshape(len(self.labels), N_FEATURES)
        _permute_rows(features, self.perm)
        return Dataset(features, self.labels[self.perm], N_CLASSES)

    def generate(self) -> Dataset:
        """Draw, shape and shuffle the set on this thread alone."""
        self.draw(_shape)
        return self.shuffle()


def _shape(job: tuple) -> None:
    """Finish one class's noise rows into images.

    Adds each sample's glyph, rolled by its shift (grouped by offset)
    and scaled by its intensity, then clips to ``[0, 1]``.  Float32
    addition commutes, so adding the glyph to the noise gives the bits
    of adding the noise to the glyph.
    """
    digit, rows, shifts_y, shifts_x, intensity = job
    base = render_glyph(digit)
    for dy in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
        for dx in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
            picked = np.flatnonzero((shifts_y == dy) & (shifts_x == dx))
            if picked.size:
                rows[picked] += np.roll(base, (dy, dx), axis=(0, 1)) * intensity[picked]
    np.clip(rows, 0.0, 1.0, out=rows)


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> None:
    """``rows[:] = rows[perm]``, one cycle of ``perm`` at a time, so the
    set is never held twice: one row is all it holds on the side."""
    order = perm.tolist()
    placed = bytearray(len(order))
    held = np.empty_like(rows[0])
    for start in range(len(order)):
        if placed[start]:
            continue
        held[...] = rows[start]
        here, there = start, order[start]
        while there != start:
            rows[here] = rows[there]
            placed[here] = 1
            here, there = there, order[there]
        rows[here] = held
        placed[here] = 1


def _generate(split: _Split, beside: Callable[[], R]) -> tuple[Dataset, R]:
    """``split`` and ``beside()``: the split's draws run on this thread
    while a second one runs ``beside`` and then shapes each class the
    draws hand it (:func:`~repro.perf.cpu.run_beside`)."""
    jobs: queue.SimpleQueue = queue.SimpleQueue()

    def draw() -> None:
        try:
            split.draw(jobs.put)
        finally:
            jobs.put(None)

    def shape() -> R:
        result = beside()
        for job in iter(jobs.get, None):
            _shape(job)
        return result

    _, result = run_beside(draw, shape)
    return split.shuffle(), result


def generate_synthetic_mnist(
    n_samples: int,
    seed: int = 0,
    noise_std: float = 0.25,
    label_noise: float = 0.08,
) -> Dataset:
    """Generate a synthetic-MNIST dataset of ``n_samples`` samples.

    Classes are balanced (up to rounding) and the sample order is shuffled.

    Args:
        n_samples: total number of images to generate.
        seed: seed for the deterministic generator.
        noise_std: standard deviation of the additive pixel noise.  The
            default 0.25 makes the task hard enough for a linear model that
            accuracy improves over hundreds of rounds, as in the paper's
            Fig. 4.
        label_noise: fraction of samples whose label is re-drawn uniformly
            at random.  This makes the task *non-separable*, like real
            MNIST under logistic regression: without it the synthetic task
            is linearly separable, the minimum loss is ~0, the stochastic
            gradients vanish at the optimum (``sigma^2 = 0``), and the
            paper's variance (``A1``) and drift (``A2``) terms would be
            degenerate.  The default 0.08 caps achievable accuracy around
            the ~92-93 % that logistic regression reaches on MNIST.

    Returns:
        A :class:`~repro.data.dataset.Dataset` with 784 features per sample.
    """
    split = _Split(n_samples, seed, noise_std, label_noise)
    return _generate(split, lambda: None)[0]


def load_synthetic_mnist(
    n_train: int = 60_000,
    n_test: int = 10_000,
    seed: int = 0,
    noise_std: float = 0.25,
    label_noise: float = 0.08,
) -> tuple[Dataset, Dataset]:
    """Generate the (train, test) pair matching the paper's MNIST split.

    Train and test sets are generated from independent random streams of
    the same seed so they are disjoint draws of the same distribution.
    The test set is generated beside the training set's draws.
    """
    train = _Split(n_train, seed, noise_std, label_noise)
    test = _Split(n_test, seed + 1, noise_std, label_noise)
    return _generate(train, test.generate)
