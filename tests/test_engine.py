"""Deterministic RNG: seeded substreams and random_draw."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import engine
from qcausal.engine import Cumulative, RngState, _mix_seed, random_draw
from qcausal.errors import ConfigError


def test_rng_same_seed_same_sequence():
    a = RngState(42)
    b = RngState(42)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_rng_different_seeds_diverge():
    a = RngState(1)
    b = RngState(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_rng_draw_counter():
    rng = RngState(0)
    assert rng.draws == 0
    for _ in range(7):
        rng.random()
    assert rng.draws == 7


def test_lazy_seeding_draws_what_eager_seeding_drew():
    # the generator is seeded on the first draw, from the same mixed seed
    root = RngState(2026)
    for key in [(), ("events",), ("source", 3)] + [(i,) for i in range(47)]:
        stream = root.substream(*key)
        eager = random.Random(_mix_seed(2026, key))
        assert [stream.random() for _ in range(100)] == [eager.random() for _ in range(100)]


def test_a_stream_never_drawn_from_is_never_seeded(monkeypatch):
    mixed = []

    def counted(seed, key):
        mixed.append(key)
        return _mix_seed(seed, key)

    monkeypatch.setattr(engine, "_mix_seed", counted)
    trial = RngState(7).substream(12)  # a refined trial's parent stream
    events, source = trial.substream("events"), trial.substream("source")
    assert mixed == [] and trial.draws == 0
    drawn = [source.random() for _ in range(3)] + [events.random()]
    # only the streams drawn from were seeded, and they draw as if the
    # parent had been seeded too
    assert mixed == [(12, "source"), (12, "events")] and trial.draws == 0
    reference = random.Random(_mix_seed(7, (12, "source")))
    assert drawn[:3] == [reference.random() for _ in range(3)]
    assert drawn[3] == random.Random(_mix_seed(7, (12, "events"))).random()


def test_lazy_seeding_keeps_repr_and_draw_count():
    rng = RngState(3, ("x", 1))
    assert repr(rng) == "RngState(seed=3, key=('x', 1), draws=0)"
    rng.random(), rng.random()
    assert repr(rng) == "RngState(seed=3, key=('x', 1), draws=2)" and rng.draws == 2


def test_substream_derivation_is_pure():
    # Deriving a child before or after parent draws must give the same stream.
    root = RngState(9)
    early = root.substream("obj", 3)
    for _ in range(100):
        root.random()
    late = root.substream("obj", 3)
    assert [early.random() for _ in range(10)] == [late.random() for _ in range(10)]


def test_substreams_are_independent():
    root = RngState(9)
    a = root.substream("a")
    b = root.substream("b")
    seq_a = [a.random() for _ in range(8)]
    seq_b = [b.random() for _ in range(8)]
    assert seq_a != seq_b
    # Child draws do not perturb the parent.
    fresh = RngState(9)
    assert [root.random() for _ in range(8)] == [fresh.random() for _ in range(8)]


def test_substream_key_nesting():
    root = RngState(5)
    assert root.substream("x", 1).key == ("x", 1)
    assert root.substream("x").substream(1).key == ("x", 1)
    one = root.substream("x", 1)
    two = root.substream("x").substream(1)
    assert [one.random() for _ in range(4)] == [two.random() for _ in range(4)]


def test_rng_uniformity_smoke():
    rng = RngState(123)
    xs = [rng.random() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.01  # se ~ 0.002
    assert all(0.0 <= x < 1.0 for x in xs)


def test_random_draw_discrete_certain():
    rng = RngState(0)
    for _ in range(50):
        assert random_draw(["only"], [1.0], rng) == "only"
    assert random_draw(["a", "b"], [0.0, 1.0], rng) == "b"
    assert random_draw(["a", "b"], [1.0, 0.0], rng) == "a"


def test_random_draw_discrete_frequencies():
    rng = RngState(7)
    n = 40000
    hits = sum(random_draw([1, 0], [0.25, 0.75], rng) for _ in range(n))
    assert abs(hits / n - 0.25) < 0.01  # se ~ 0.002


def test_random_draw_uniform_interval():
    rng = RngState(3)
    xs = [random_draw((2.0, 5.0), "uniform", rng) for _ in range(1000)]
    assert all(2.0 <= x < 5.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 3.5) < 0.1


def test_random_draw_is_deterministic():
    xs = [random_draw(["p", "m"], [0.5, 0.5], RngState(11, ("t", i))) for i in range(64)]
    ys = [random_draw(["p", "m"], [0.5, 0.5], RngState(11, ("t", i))) for i in range(64)]
    assert xs == ys
    assert set(xs) == {"p", "m"}


def test_random_draw_validation():
    rng = RngState(0)
    with pytest.raises(ConfigError):
        random_draw([], [], rng)
    with pytest.raises(ConfigError):
        random_draw([1, 2], [0.5], rng)
    with pytest.raises(ConfigError):
        random_draw([1, 2], [0.7, 0.7], rng)  # sums to 1.4
    with pytest.raises(ConfigError):
        random_draw([1, 2], [-0.1, 1.1], rng)
    with pytest.raises(ConfigError):
        random_draw((0.0, 1.0), "gaussian", rng)
    with pytest.raises(ConfigError):
        random_draw((1.0, 0.0), "uniform", rng)
    nan, inf = math.nan, math.inf
    for probs in ([nan, nan], [nan, 1.0], [inf, 0.0], [1.0, inf], [0.5, -inf]):
        with pytest.raises(ConfigError):
            random_draw(["a", "b"], probs, rng)
    for interval in ((0.0, inf), (-inf, 0.0), (nan, 1.0), (0.0, nan)):
        with pytest.raises(ConfigError):
            random_draw(interval, "uniform", rng)
    assert rng.draws == 0  # rejected before anything is drawn


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
@settings(max_examples=100)
def test_random_draw_respects_support(weights):
    # Whatever the weights, the drawn value is always one of the values.
    total = sum(weights)
    if total == 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    probs = [w / total for w in weights]
    values = list(range(len(probs)))
    rng = RngState(1)
    for _ in range(10):
        assert random_draw(values, probs, rng) in values


# --- the cumulative form: bisection over running sums ------------------------------

class _FixedRng:
    """Stands in for an RngState whose next draws are given."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0)


def _loop_draw(values, probs, r):
    """The left-to-right selection loop random_draw used before bisection."""
    u = r * sum(probs)
    acc = 0.0
    value = values[-1]
    for v, p in zip(values, probs):
        acc += p
        if u < acc:
            value = v
            break
    return value


def _assert_draws_like_the_loop(probs, rs):
    values = list(range(len(probs)))
    cumulative = Cumulative(probs)
    for r in rs:
        expected = _loop_draw(values, probs, r)
        assert random_draw(values, probs, _FixedRng(r)) == expected, r
        assert random_draw(values, cumulative, _FixedRng(r)) == expected, r


def test_cumulative_draw_at_a_partial_sum():
    # every partial sum is exact here, and u on one selects the next value
    probs = [0.25, 0.25, 0.5]
    assert random_draw("abc", probs, _FixedRng(0.25)) == "b"
    assert random_draw("abc", probs, _FixedRng(0.5)) == "c"
    assert random_draw("abc", probs, _FixedRng(0.0)) == "a"
    _assert_draws_like_the_loop(probs, [0.0, 0.25, 0.5, math.nextafter(0.25, 0.0), math.nextafter(0.5, 0.0)])


def test_cumulative_draw_just_below_the_total():
    # the guard: u at or above every running sum selects the last value
    top = math.nextafter(1.0, 0.0)
    probs = [0.1] * 10
    assert Cumulative(probs).sums[-1] < 1.0  # the running sums do not land on 1.0
    _assert_draws_like_the_loop(probs, [top, 1.0, 0.9, 0.99999999])
    assert random_draw(list(range(10)), Cumulative(probs), _FixedRng(1.0)) == 9


def test_cumulative_draw_skips_zero_probability_entries():
    probs = [0.0, 0.5, 0.0, 0.0, 0.5, 0.0]
    below = math.nextafter(0.5, 0.0), math.nextafter(1.0, 0.0)
    _assert_draws_like_the_loop(probs, [0.0, 0.25, 0.5, 0.75, 1.0, *below])
    values = list(range(len(probs)))
    assert random_draw(values, probs, _FixedRng(0.0)) == 1
    assert random_draw(values, probs, _FixedRng(0.5)) == 4


def test_cumulative_draw_over_a_128_entry_fan():
    from qcausal.experiments.doubleslit import DEFAULT_GEOMETRY, coherent_pdf

    probs = [float(p) for p in coherent_pdf(DEFAULT_GEOMETRY)]
    assert len(probs) == 128
    cumulative = Cumulative(probs)
    # u on and either side of every running sum, and a stream of real draws
    rs = [r for s in cumulative.sums for r in (s, math.nextafter(s, 0.0), math.nextafter(s, 2.0))]
    rs = [r / cumulative.total for r in rs if r < cumulative.total]
    stream = RngState(17)
    rs += [stream.random() for _ in range(2000)]
    _assert_draws_like_the_loop(probs, rs)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_cumulative_draw_equals_the_loop(weights, rs):
    total = sum(weights)
    if total == 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    _assert_draws_like_the_loop([w / total for w in weights], rs)


def test_cumulative_form_is_checked_once_like_a_list():
    nan, inf = math.nan, math.inf
    for probs in ([], [0.7, 0.7], [-0.1, 1.1], [nan, nan], [inf, 0.0], [0.5, -inf]):
        with pytest.raises(ConfigError):
            Cumulative(probs)
    with pytest.raises(ConfigError, match="differ in length"):
        random_draw([1, 2, 3], Cumulative([0.5, 0.5]), RngState(0))
    assert Cumulative([0.5, 0.5]) == Cumulative((0.5, 0.5)) != Cumulative([0.25, 0.75])
