"""Deterministic randomness: seeded generator state and the one draw primitive.

All randomness in the package flows through random_draw on an explicit
RngState.  The generator state is fully determined by (seed, substream key,
draw count), which makes every run bit-reproducible and lets independent
components (trials, sources, the event scheduler) own non-overlapping
substreams derived from the one global seed.
"""

from __future__ import annotations

import hashlib
import math
import random

from .errors import ConfigError

PROB_TOL = 1e-9  # discrete distributions must sum to 1 within this


def _mix_seed(seed: int, key: tuple) -> int:
    """Derive an independent child seed from (seed, key), stably across runs."""
    material = repr((int(seed), key)).encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


class RngState:
    """Deterministic pseudo-random generator state.

    Wraps a Mersenne Twister seeded from (seed, key).  The visible state is
    fully determined by the seed, the substream key, and the number of draws
    made so far.  substream() derives an independent generator for a child
    component; the derivation is pure, so sequential and parallel users of
    sibling substreams see identical streams.
    """

    __slots__ = ("seed", "key", "draws", "_rng")

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(key)
        self.draws = 0
        self._rng = random.Random(_mix_seed(self.seed, self.key))

    def substream(self, *key) -> "RngState":
        """Independent child stream for a component (object id, trial index, ...)."""
        return RngState(self.seed, self.key + tuple(key))

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()

    def __repr__(self):
        return f"RngState(seed={self.seed}, key={self.key!r}, draws={self.draws})"


def random_draw(values, dist, rng: RngState):
    """Draw one value; advances rng deterministically.

    Two forms:
      * discrete: values is a sequence, dist a same-length sequence of
        probabilities (each >= 0, summing to 1 within 1e-9);
      * continuous: values is a (lo, hi) pair of finite bounds and dist is
        the string "uniform".

    Malformed input, NaN and infinities included, raises ConfigError.
    """
    if isinstance(dist, str):
        if dist != "uniform":
            raise ConfigError(f"random_draw: unknown distribution {dist!r}")
        try:
            lo, hi = values
        except (TypeError, ValueError):
            raise ConfigError("random_draw: uniform draw needs a (lo, hi) interval") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and hi >= lo):
            raise ConfigError(f"random_draw: need finite bounds lo <= hi, got ({lo}, {hi})")
        value = lo + (hi - lo) * rng.random()
    else:
        values = list(values)
        if not values:
            raise ConfigError("random_draw: empty value set")
        probs = list(dist)
        if len(probs) != len(values):
            raise ConfigError("random_draw: values and probabilities differ in length")
        if any(p < 0 for p in probs):
            raise ConfigError("random_draw: negative probability")
        total = sum(probs)
        if not abs(total - 1.0) <= PROB_TOL:  # written so that a NaN total fails too
            raise ConfigError(f"random_draw: probabilities sum to {total!r}, not 1")
        u = rng.random() * total
        acc = 0.0
        value = values[-1]  # guard against roundoff at u ~ total
        for v, p in zip(values, probs):
            acc += p
            if u < acc:
                value = v
                break
    return value
