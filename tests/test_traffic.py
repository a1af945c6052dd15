import random
from typing import Optional

import pytest

from dcnbench.traffic import PatternKind, TrafficPattern, pattern_destination


def reference_destination(
    pattern: TrafficPattern,
    src: int,
    n: int,
    bits: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[int]:
    """The straightforward form of :func:`pattern_destination`: one Enum
    member lookup per test and a per-bit loop for bit reverse. The package's
    version must give the same results and the same errors."""

    def address_bits(pattern_name: str) -> int:
        if bits is None:
            derived = n.bit_length() - 1
            if (1 << derived) != n:
                raise ValueError(f"{pattern_name} traffic needs a power-of-two host count, got {n}")
            return derived
        if bits < 1 or (1 << bits) > n:
            raise ValueError(f"{pattern_name} traffic on {bits} bits leaves hosts 0..{n - 1}")
        return bits

    if n < 2:
        raise ValueError("need at least two hosts")
    if not 0 <= src < n:
        raise ValueError(f"src {src} out of range [0, {n})")
    kind = pattern.kind
    if kind is PatternKind.UNIFORM_RANDOM:
        if rng is None:
            raise ValueError("uniform random pattern needs an rng")
        dst = rng.randrange(n - 1)
        return dst + 1 if dst >= src else dst
    if kind is PatternKind.TORNADO:
        return (src + (n - 1) // 2) % n
    if kind is PatternKind.BIT_COMPLEMENT:
        width = address_bits("bit complement")
        return (~src) & ((1 << width) - 1)
    if kind is PatternKind.BIT_REVERSE:
        width = address_bits("bit reverse")
        out = 0
        for i in range(width):
            if src >> i & 1:
                out |= 1 << (width - 1 - i)
        return out
    if kind is PatternKind.PERMUTATION:
        if pattern.mapping is None:
            raise ValueError("permutation pattern needs a mapping")
        dst = pattern.mapping.get(src)
        if dst is not None and not 0 <= dst < n:
            raise ValueError(f"permutation maps {src} to {dst}, outside [0, {n})")
        return dst
    raise ValueError(f"unknown pattern {pattern}")


def outcome(call, *args, **kwargs):
    """The result of ``call``, or the type and message of the ValueError it raised."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


GRID_PATTERNS = [
    TrafficPattern.uniform(),
    TrafficPattern.complement(),
    TrafficPattern.reverse(),
    TrafficPattern.tornado(),
    TrafficPattern.permutation({0: 1, 1: 0, 2: 7, 3: 1024, 5: -1}),
    TrafficPattern(PatternKind.PERMUTATION),  # no mapping
]


@pytest.mark.parametrize("pattern, with_rng", [
    *[(p, True) for p in GRID_PATTERNS],
    (TrafficPattern.uniform(), False),
], ids=lambda v: v.kind.value if isinstance(v, TrafficPattern) else f"rng={v}")
def test_matches_the_reference_over_the_grid(pattern, with_rng):
    # n in 0..1024 (powers of two and not), bits None or 0..11 (in range,
    # over n and below 1), src in range, just outside it, and above the
    # bits-wide address space
    for n in range(1025):
        srcs = {-1, 0, n - 1, n, (n * 7919 + 13) % (n + 1)}
        for bits in [None, *range(12)]:
            seed = n * 13 + (bits or 0)
            got_rng = random.Random(seed) if with_rng else None
            want_rng = random.Random(seed) if with_rng else None
            for src in sorted(srcs):
                got = outcome(pattern_destination, pattern, src, n, bits=bits, rng=got_rng)
                want = outcome(reference_destination, pattern, src, n, bits=bits, rng=want_rng)
                assert got == want, (pattern.kind, src, n, bits)


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


@pytest.mark.parametrize("bits", [True, False, 2.0, "2"])
@pytest.mark.parametrize("pattern", [TrafficPattern.complement(), TrafficPattern.reverse()],
                         ids=lambda p: p.kind.value)
def test_bits_must_be_an_int(pattern, bits):
    # True once passed as a 1-bit width and 2.0 raised a bare TypeError
    with pytest.raises(ValueError, match=f"traffic needs an integer bits, got {bits!r}$"):
        pattern_destination(pattern, 1, 8, bits=bits)


def test_explicit_bits_may_address_a_subset():
    # a bits-wide address space inside n hosts stays within 0..n-1
    assert pattern_destination(TrafficPattern.complement(), 5, 6, bits=2) == 2
    assert pattern_destination(TrafficPattern.reverse(), 1, 6, bits=2) == 2
    # a src above the bits-wide address space: only its low bits are
    # reversed, 0b01 of 5 (0b101) and of 9 (0b1001); a sentinel bit set over
    # the unmasked 9 would reverse 0b101 and give 5
    assert pattern_destination(TrafficPattern.reverse(), 5, 6, bits=2) == 2
    assert pattern_destination(TrafficPattern.reverse(), 9, 16, bits=2) == 2
    assert pattern_destination(TrafficPattern.complement(), 3, 8, bits=3) == 4
