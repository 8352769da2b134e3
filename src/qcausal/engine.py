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
from bisect import bisect_right
from itertools import accumulate

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
    sibling substreams see identical streams.  The generator is seeded on
    the first draw, so a stream that only derives substreams (a refined
    trial's) never pays for it; the draws are the same either way.
    """

    __slots__ = ("seed", "key", "draws", "_rng")

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(key)
        self.draws = 0
        self._rng = None

    def substream(self, *key) -> "RngState":
        """Independent child stream for a component (object id, trial index, ...)."""
        return RngState(self.seed, self.key + tuple(key))

    def random(self) -> float:
        self.draws += 1
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(_mix_seed(self.seed, self.key))
        return rng.random()

    def __repr__(self):
        return f"RngState(seed={self.seed}, key={self.key!r}, draws={self.draws})"


def _running_sums(dist) -> tuple[list[float], float]:
    """Running sums of a discrete distribution, left-to-right, and sum() of
    it, after checking each p >= 0 and the sum is 1.  The sums compare as a
    running total started at 0.0 would: 0.0 + p is p, up to a zero's sign."""
    probs = list(dist)
    if probs and min(probs) < 0:
        raise ConfigError("random_draw: negative probability")
    total = sum(probs)
    if not abs(total - 1.0) <= PROB_TOL:  # written so that a NaN total fails too
        raise ConfigError(f"random_draw: probabilities sum to {total!r}, not 1")
    return list(accumulate(probs)), total


class Cumulative:
    """A discrete distribution checked and summed once, for repeated draws.

    A caller that draws over the same probabilities again and again (a
    memoised candidate list) builds its Cumulative once and hands it to
    random_draw in place of the list; the draw is then the one a plain list
    gives, bit for bit, without re-checking and re-summing.
    """

    __slots__ = ("sums", "total")

    def __init__(self, dist):
        sums, self.total = _running_sums(dist)
        self.sums = tuple(sums)

    def __eq__(self, other):
        if not isinstance(other, Cumulative):
            return NotImplemented
        return self.sums == other.sums and self.total == other.total


def random_draw(values, dist, rng: RngState):
    """Draw one value; advances rng deterministically.

    Two forms:
      * discrete: values is a sequence, dist a same-length sequence of
        probabilities (each >= 0, summing to 1 within 1e-9) or their
        Cumulative form;
      * continuous: values is a (lo, hi) pair of finite bounds and dist is
        the string "uniform".

    A discrete draw picks the first value whose running sum exceeds
    u * total, found by bisection over the running sums; the last value
    when roundoff leaves u * total at or above every sum.

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
        return lo + (hi - lo) * rng.random()
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if not values:
        raise ConfigError("random_draw: empty value set")
    if isinstance(dist, Cumulative):
        sums, total = dist.sums, dist.total
    else:
        sums, total = _running_sums(dist)
    if len(sums) != len(values):
        raise ConfigError("random_draw: values and probabilities differ in length")
    i = bisect_right(sums, rng.random() * total)
    return values[i] if i < len(values) else values[-1]  # guard against roundoff at u ~ total
