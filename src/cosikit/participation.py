"""Participation sets, their wire encodings, and verification predicates.

A collective signature documents exactly which witnesses contributed. The
set is encoded on the wire as whichever of absent-list / present-list /
bitmap is smallest; verifiers evaluate arbitrary predicates over the set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .group import Reader

VARIANT_ABSENT = 0
VARIANT_PRESENT = 1
VARIANT_BITMAP = 2

MAX_PREDICATE_DEPTH = 16


class ParticipationError(ValueError):
    """Malformed participation encoding or predicate."""


@dataclass(frozen=True)
class ParticipationSet:
    """Who took part in a signing round, out of `count` roster slots.

    `commit_present` covers the commit phase; `response_present` the response
    phase. In restart mode the two coincide; in no-restart mode witnesses
    lost between the phases appear only in `commit_present`.
    """

    count: int
    response_present: frozenset[int]
    commit_present: frozenset[int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.commit_present is None:
            object.__setattr__(self, "commit_present", self.response_present)
        for idx in self.commit_present:
            if not 0 <= idx < self.count:
                raise ParticipationError(f"participant index {idx} out of range")
        if not self.response_present <= self.commit_present:
            raise ParticipationError("response participants must be a subset of commit participants")

    @property
    def response_absent(self) -> frozenset[int]:
        return frozenset(range(self.count)) - self.response_present

    @property
    def dropped_after_commit(self) -> frozenset[int]:
        return self.commit_present - self.response_present


def encode_index_set(present: Iterable[int], count: int) -> bytes:
    """Encode a present-set with the byte-minimal variant.

    Tie order prefers absent-list, then bitmap, then present-list. Layout:
    variant tag (1) | count/length (4, big-endian) | payload.
    """
    present = frozenset(present)
    for idx in present:
        if not 0 <= idx < count:
            raise ParticipationError(f"index {idx} out of range for count {count}")
    absent = sorted(set(range(count)) - present)
    sizes = {
        VARIANT_ABSENT: 4 * len(absent),
        VARIANT_BITMAP: (count + 7) // 8,
        VARIANT_PRESENT: 4 * len(present),
    }
    preference = {VARIANT_ABSENT: 0, VARIANT_BITMAP: 1, VARIANT_PRESENT: 2}
    variant = min(sizes, key=lambda v: (sizes[v], preference[v]))
    if variant == VARIANT_ABSENT:
        payload = b"".join(i.to_bytes(4, "big") for i in absent)
        n = len(absent)
    elif variant == VARIANT_PRESENT:
        payload = b"".join(i.to_bytes(4, "big") for i in sorted(present))
        n = len(present)
    else:
        buf = bytearray((count + 7) // 8)
        for i in present:
            buf[i // 8] |= 1 << (i % 8)  # LSB-first within each byte
        payload = bytes(buf)
        n = len(payload)
    return bytes([variant]) + n.to_bytes(4, "big") + payload


def decode_index_set(r: Reader) -> frozenset[int]:
    """Read a present-set at the reader's offset, out of `r.witness_count`
    roster slots."""
    count = r.witness_count
    if len(r.data) - r.off < 5:
        raise ParticipationError("truncated participation encoding")
    variant, n = r.u8(), r.u32()
    if variant in (VARIANT_ABSENT, VARIANT_PRESENT):
        if len(r.data) - r.off < 4 * n:
            raise ParticipationError("truncated index list")
        indices = [r.u32() for _ in range(n)]
        for a, b in zip(indices, indices[1:]):
            if a >= b:
                raise ParticipationError("index list not strictly sorted")
        for i in indices:
            if i >= count:
                raise ParticipationError(f"index {i} out of range for count {count}")
        listed = frozenset(indices)
        return frozenset(range(count)) - listed if variant == VARIANT_ABSENT else listed
    if variant == VARIANT_BITMAP:
        if n != (count + 7) // 8:
            raise ParticipationError("bitmap length does not match witness count")
        if len(r.data) - r.off < n:
            raise ParticipationError("truncated bitmap")
        bitmap = r.take(n)
        present = set()
        for i in range(count):
            if bitmap[i // 8] & (1 << (i % 8)):
                present.add(i)
        # bits beyond `count` must be zero
        for i in range(count, n * 8):
            if bitmap[i // 8] & (1 << (i % 8)):
                raise ParticipationError("bitmap has bits set beyond witness count")
        return frozenset(present)
    raise ParticipationError(f"unknown participation variant {variant}")


def encode_smallest(pset: ParticipationSet) -> bytes:
    return encode_index_set(pset.response_present, pset.count)


def decode(data: bytes, count: int) -> ParticipationSet:
    r = Reader(data, count)
    present = decode_index_set(r)
    if r.off != len(data):
        raise ParticipationError("trailing bytes after participation encoding")
    return ParticipationSet(count=count, response_present=present)


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


Predicate = Threshold | WeightedThreshold | Mandatory | AllOf | AnyOf | Group


def evaluate(predicate, pset: ParticipationSet,
             weights: Sequence[int] | None = None) -> bool:
    """Evaluate a predicate over the response-phase participants."""
    return _eval(predicate, pset.response_present, pset.count, weights, 0)


def _eval(pred, present: frozenset[int], count: int,
          weights: Sequence[int] | None, depth: int) -> bool:
    if depth > MAX_PREDICATE_DEPTH:
        raise ParticipationError("predicate nesting too deep")
    if isinstance(pred, Threshold):
        return len(present) >= pred.minimum
    if isinstance(pred, WeightedThreshold):
        if weights is None:
            weights = [1] * count
        for i in present:
            if i >= len(weights):
                raise ParticipationError(f"predicate weight index {i} out of range")
        return sum(weights[i] for i in present) >= pred.minimum_weight
    if isinstance(pred, Mandatory):
        if not 0 <= pred.index < count:
            raise ParticipationError(f"predicate index {pred.index} out of roster range")
        return pred.index in present
    if isinstance(pred, AllOf):
        return all(_eval(p, present, count, weights, depth + 1) for p in pred.parts)
    if isinstance(pred, AnyOf):
        return any(_eval(p, present, count, weights, depth + 1) for p in pred.parts)
    if isinstance(pred, Group):
        for i in pred.members:
            if not 0 <= i < count:
                raise ParticipationError(f"predicate group member {i} out of roster range")
        return _eval(pred.inner, present & pred.members, count, weights, depth + 1)
    raise ParticipationError(f"unknown predicate {pred!r}")


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
