"""Deterministic RNG: seeded substreams and random_draw."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.engine import RngState, random_draw
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
