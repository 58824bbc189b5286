"""Participation sets, their wire encodings, and verification predicates.

A collective signature documents exactly which witnesses contributed. A set
is held by its absent lists, so that decoding a signature, verifying it and
evaluating its predicate take time in the absent witnesses, not the roster;
the present sets are built only when read. On the wire a set is whichever
of absent-list / present-list / bitmap is smallest; verifiers evaluate
arbitrary predicates over it.
"""

from __future__ import annotations

import bisect
import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .group import Reader

VARIANT_ABSENT = 0
VARIANT_PRESENT = 1
VARIANT_BITMAP = 2

MAX_PREDICATE_DEPTH = 16

# the set bits of each byte value, LSB first, and each byte value inverted
_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_INVERTED = bytes(255 - b for b in range(256))


class ParticipationError(ValueError):
    """Malformed participation encoding or predicate."""


def _complement(indices: frozenset[int], count: int) -> frozenset[int]:
    """The slots of `range(count)` not in `indices`."""
    return frozenset(range(count)).difference(indices)


def _check_range(indices: frozenset[int], count: int) -> None:
    for idx in indices:
        if not 0 <= idx < count:
            raise ParticipationError(f"participant index {idx} out of range")


def _check_subset(inner: frozenset[int], outer: frozenset[int]) -> None:
    if not inner <= outer:
        raise ParticipationError("response participants must be a subset of commit participants")


@dataclass(frozen=True, init=False)
class ParticipationSet:
    """Who took part in a signing round, out of `count` roster slots.

    `commit_absent` covers the commit phase; `response_absent` the response
    phase. In restart mode the two coincide; in no-restart mode witnesses
    lost between the phases are absent only from the response phase.

    A set is built from its present sets, `ParticipationSet(count,
    response_present, commit_present)`, the commit set defaulting to the
    response set, or from its absent sets (`response_absent=`,
    `commit_absent=`). A present set passed next to the absent set of the
    same phase replaces it, which is what `dataclasses.replace(pset,
    response_present=...)` relies on; the present form takes time in
    `count`, the absent form in the absent sets. The present sets are kept
    once built.
    """

    count: int
    response_absent: frozenset[int]
    commit_absent: frozenset[int]

    def __init__(self, count: int, response_present: Iterable[int] | None = None,
                 commit_present: Iterable[int] | None = None, *,
                 response_absent: Iterable[int] | None = None,
                 commit_absent: Iterable[int] | None = None):
        cache = self.__dict__  # the frozen dataclass allows writes to it
        if response_present is None and commit_present is None:
            if response_absent is None:
                raise TypeError("a participation set needs its response set, present or absent")
            response_absent = frozenset(response_absent)
            _check_range(response_absent, count)
            commit_absent = response_absent if commit_absent is None else frozenset(commit_absent)
            _check_subset(commit_absent, response_absent)
        else:
            response_present = (frozenset(response_present) if response_present is not None
                                else _complement(frozenset(response_absent), count))
            if commit_present is None:
                commit_present = (response_present if commit_absent is None
                                  else _complement(frozenset(commit_absent), count))
            commit_present = frozenset(commit_present)
            _check_range(commit_present, count)
            _check_subset(response_present, commit_present)
            response_absent = _complement(response_present, count)
            # response <= commit, so equal sizes mean equal sets
            commit_absent = (response_absent if len(commit_present) == len(response_present)
                             else _complement(commit_present, count))
            cache["response_present"] = response_present
            cache["commit_present"] = commit_present
        cache["count"] = count
        cache["response_absent"] = response_absent
        cache["commit_absent"] = commit_absent

    @cached_property
    def response_present(self) -> frozenset[int]:
        return _complement(self.response_absent, self.count)

    @cached_property
    def commit_present(self) -> frozenset[int]:
        if self.commit_absent == self.response_absent:
            return self.response_present
        return _complement(self.commit_absent, self.count)

    @property
    def dropped_after_commit(self) -> frozenset[int]:
        return self.response_absent - self.commit_absent


def encode_index_set(absent: Iterable[int], count: int) -> bytes:
    """Encode the set of `count` slots less `absent` with the byte-minimal
    variant, in time proportional to the list it writes.

    Tie order prefers absent-list, then bitmap, then present-list. Layout:
    variant tag (1) | count/length (4, big-endian) | payload.
    """
    absent = frozenset(absent)
    for idx in absent:
        if not 0 <= idx < count:
            raise ParticipationError(f"index {idx} out of range for count {count}")
    absent_size = 4 * len(absent)
    present_size = 4 * count - absent_size
    bitmap_size = (count + 7) // 8
    if bitmap_size < absent_size and bitmap_size <= present_size:
        buf = bytearray(b"\xff" * bitmap_size)  # LSB-first within each byte
        if count % 8:
            buf[-1] = (1 << count % 8) - 1
        for i in absent:
            buf[i >> 3] &= ~(1 << (i & 7))
        return bytes([VARIANT_BITMAP]) + bitmap_size.to_bytes(4, "big") + bytes(buf)
    if absent_size <= present_size:
        variant, listed = VARIANT_ABSENT, sorted(absent)
    else:
        variant, listed = VARIANT_PRESENT, sorted(_complement(absent, count))
    return (bytes([variant]) + len(listed).to_bytes(4, "big")
            + struct.pack(f">{len(listed)}I", *listed))


def decode_index_set(r: Reader) -> frozenset[int]:
    """Read a participation set at the reader's offset, out of
    `r.witness_count` roster slots, and hand back its absent set: an absent
    list is read in time proportional to its length."""
    count = r.witness_count
    if len(r.data) - r.off < 5:
        raise ParticipationError("truncated participation encoding")
    variant, n = r.u8(), r.u32()
    if variant in (VARIANT_ABSENT, VARIANT_PRESENT):
        if len(r.data) - r.off < 4 * n:
            raise ParticipationError("truncated index list")
        indices = struct.unpack(f">{n}I", r.take(4 * n))
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ParticipationError("index list not strictly sorted")
        if indices and indices[-1] >= count:
            i = indices[bisect.bisect_left(indices, count)]
            raise ParticipationError(f"index {i} out of range for count {count}")
        listed = frozenset(indices)
        return listed if variant == VARIANT_ABSENT else _complement(listed, count)
    if variant == VARIANT_BITMAP:
        if n != (count + 7) // 8:
            raise ParticipationError("bitmap length does not match witness count")
        if len(r.data) - r.off < n:
            raise ParticipationError("truncated bitmap")
        bitmap = r.take(n)
        tail = count % 8
        if tail and bitmap[-1] >> tail:
            raise ParticipationError("bitmap has bits set beyond witness count")
        absent = bitmap.translate(_INVERTED)
        if tail:
            absent = absent[:-1] + bytes([absent[-1] & ((1 << tail) - 1)])
        return frozenset(8 * k + j for k, byte in enumerate(absent) if byte
                         for j in _BITS[byte])
    raise ParticipationError(f"unknown participation variant {variant}")


def encode_smallest(pset: ParticipationSet) -> bytes:
    return encode_index_set(pset.response_absent, pset.count)


def decode(data: bytes, count: int) -> ParticipationSet:
    r = Reader(data, count)
    absent = decode_index_set(r)
    if r.off != len(data):
        raise ParticipationError("trailing bytes after participation encoding")
    return ParticipationSet(count, response_absent=absent)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Threshold:
    minimum: int


@dataclass(frozen=True)
class WeightedThreshold:
    minimum_weight: int


@dataclass(frozen=True)
class Mandatory:
    index: int


@dataclass(frozen=True)
class AllOf:
    parts: tuple


@dataclass(frozen=True)
class AnyOf:
    parts: tuple


@dataclass(frozen=True)
class Group:
    members: frozenset[int]
    inner: object


def evaluate(predicate, pset: ParticipationSet, weights: Sequence[int] | None = None,
             total_weight: int | None = None) -> bool:
    """Evaluate a predicate over the response-phase participants.

    The verdict is worked out from the absent set, in time proportional to
    the absent witnesses and the predicate's size. `weights` holds one
    weight per roster slot (1 each when omitted) and is read only by a
    `WeightedThreshold`; a caller that keeps `sum(weights)` passes it as
    `total_weight`, or it is summed when such a predicate needs it.
    """
    return _eval(predicate, None, pset.response_absent, pset.count, weights,
                 total_weight, 0)


def _eval(pred, members: frozenset[int] | None, absent: frozenset[int], count: int,
          weights: Sequence[int] | None, total_weight: int | None, depth: int) -> bool:
    """`members` is the group a predicate counts within, None for the whole
    roster; `absent` is the part of it that did not respond."""
    if depth > MAX_PREDICATE_DEPTH:
        raise ParticipationError("predicate nesting too deep")
    if isinstance(pred, Threshold):
        return (count if members is None else len(members)) - len(absent) >= pred.minimum
    if isinstance(pred, WeightedThreshold):
        return (_present_weight(members, absent, count, weights, total_weight)
                >= pred.minimum_weight)
    if isinstance(pred, Mandatory):
        if not 0 <= pred.index < count:
            raise ParticipationError(f"predicate index {pred.index} out of roster range")
        return pred.index not in absent and (members is None or pred.index in members)
    if isinstance(pred, AllOf):
        return all(_eval(p, members, absent, count, weights, total_weight, depth + 1)
                   for p in pred.parts)
    if isinstance(pred, AnyOf):
        return any(_eval(p, members, absent, count, weights, total_weight, depth + 1)
                   for p in pred.parts)
    if isinstance(pred, Group):
        for i in pred.members:
            if not 0 <= i < count:
                raise ParticipationError(f"predicate group member {i} out of roster range")
        inner = pred.members if members is None else pred.members & members
        return _eval(pred.inner, inner, absent & inner, count, weights, total_weight,
                     depth + 1)
    raise ParticipationError(f"unknown predicate {pred!r}")


def _present_weight(members: frozenset[int] | None, absent: frozenset[int], count: int,
                    weights: Sequence[int] | None, total_weight: int | None) -> int:
    if weights is None:
        return (count if members is None else len(members)) - len(absent)
    beyond = range(len(weights), count) if members is None else members
    for i in beyond:
        if i >= len(weights) and i not in absent:
            raise ParticipationError(f"predicate weight index {i} out of range")
    if members is not None:
        return sum(weights[i] for i in members if i not in absent)
    if total_weight is None:
        total_weight = sum(weights[:count])
    return total_weight - sum(weights[i] for i in absent)


def predicate_to_json(pred) -> dict:
    if isinstance(pred, Threshold):
        return {"type": "threshold", "min": pred.minimum}
    if isinstance(pred, WeightedThreshold):
        return {"type": "weighted-threshold", "min-weight": pred.minimum_weight}
    if isinstance(pred, Mandatory):
        return {"type": "mandatory", "index": pred.index}
    if isinstance(pred, AllOf):
        return {"type": "all-of", "parts": [predicate_to_json(p) for p in pred.parts]}
    if isinstance(pred, AnyOf):
        return {"type": "any-of", "parts": [predicate_to_json(p) for p in pred.parts]}
    if isinstance(pred, Group):
        return {"type": "group", "members": sorted(pred.members),
                "inner": predicate_to_json(pred.inner)}
    raise ParticipationError(f"unknown predicate {pred!r}")


def predicate_from_json(obj: dict, depth: int = 0):
    if depth > MAX_PREDICATE_DEPTH:
        raise ParticipationError("predicate nesting too deep")
    kind = obj.get("type")
    if kind == "threshold":
        return Threshold(int(obj["min"]))
    if kind == "weighted-threshold":
        return WeightedThreshold(int(obj["min-weight"]))
    if kind == "mandatory":
        return Mandatory(int(obj["index"]))
    if kind == "all-of":
        return AllOf(tuple(predicate_from_json(p, depth + 1) for p in obj["parts"]))
    if kind == "any-of":
        return AnyOf(tuple(predicate_from_json(p, depth + 1) for p in obj["parts"]))
    if kind == "group":
        return Group(frozenset(int(i) for i in obj["members"]),
                     predicate_from_json(obj["inner"], depth + 1))
    raise ParticipationError(f"unknown predicate type {kind!r}")


def load_predicate(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return predicate_from_json(json.load(fh))
