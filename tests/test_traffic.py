import random

import pytest

from dcnbench.traffic import PatternKind, TrafficPattern, pattern_destination


def test_tornado_formula():
    # floor((N-1)/2) offset
    assert pattern_destination(TrafficPattern.tornado(), 0, 8) == 3
    assert pattern_destination(TrafficPattern.tornado(), 5, 8) == 0
    assert pattern_destination(TrafficPattern.tornado(), 0, 16) == 7
    assert pattern_destination(TrafficPattern.tornado(), 0, 9) == 4


def test_bit_complement():
    assert pattern_destination(TrafficPattern.complement(), 3, 16) == 12
    assert pattern_destination(TrafficPattern.complement(), 0, 16) == 15


def test_bit_reverse():
    assert pattern_destination(TrafficPattern.reverse(), 5, 16) == 10
    assert pattern_destination(TrafficPattern.reverse(), 1, 16) == 8
    # palindromic addresses map to themselves; such hosts simply do not send
    assert pattern_destination(TrafficPattern.reverse(), 6, 16) == 6


def test_bit_patterns_reject_non_power_of_two():
    with pytest.raises(ValueError):
        pattern_destination(TrafficPattern.complement(), 0, 20)
    with pytest.raises(ValueError):
        pattern_destination(TrafficPattern.reverse(), 0, 12)


def test_uniform_random_excludes_self():
    rng = random.Random(3)
    pattern = TrafficPattern.uniform()
    for _ in range(500):
        dst = pattern_destination(pattern, 4, 9, rng=rng)
        assert 0 <= dst < 9
        assert dst != 4


def test_uniform_random_is_roughly_uniform():
    rng = random.Random(11)
    counts = [0] * 8
    pattern = TrafficPattern.uniform()
    for _ in range(7000):
        counts[pattern_destination(pattern, 0, 8, rng=rng)] += 1
    assert counts[0] == 0
    for c in counts[1:]:
        assert 850 <= c <= 1150


def test_permutation_mapping():
    pattern = TrafficPattern.permutation({0: 2, 2: 0})
    assert pattern_destination(pattern, 0, 4) == 2
    assert pattern_destination(pattern, 1, 4) is None
    assert pattern.kind is PatternKind.PERMUTATION


def test_src_range_checked():
    with pytest.raises(ValueError):
        pattern_destination(TrafficPattern.tornado(), 9, 8)


@pytest.mark.parametrize("pattern, src, n, bits", [
    (TrafficPattern.complement(), 0, 6, 3),  # used to return 7
    (TrafficPattern.reverse(), 1, 6, 3),  # used to return 4
    (TrafficPattern.complement(), 0, 8, -1),  # used to raise "negative shift count"
    (TrafficPattern.reverse(), 0, 8, 0),
    (TrafficPattern.permutation({0: 9}), 0, 4, None),  # used to return 9
    (TrafficPattern.permutation({0: -1}), 0, 4, None),
])
def test_destination_never_leaves_host_range(pattern, src, n, bits):
    with pytest.raises(ValueError):
        pattern_destination(pattern, src, n, bits=bits)


def test_explicit_bits_may_address_a_subset():
    # a bits-wide address space inside n hosts stays within 0..n-1
    assert pattern_destination(TrafficPattern.complement(), 5, 6, bits=2) == 2
    assert pattern_destination(TrafficPattern.reverse(), 1, 6, bits=2) == 2
    assert pattern_destination(TrafficPattern.complement(), 3, 8, bits=3) == 4
