"""Witness rosters, compact anchors, key trees, and roster evolution.

The roster is the static trust anchor: an ordered list of witness ids and
self-signed public keys with a designated leader. A verifier holds either
the roster or its compact anchor, which commits to it by an aggregate key
plus a Merkle key-tree root. Each anchor hands out the aggregate key of a
signature's present witnesses (`present_key`). Roster changes are
collectively signed by the old roster and verified as a forward chain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import merkle
from .group import (
    Group,
    GroupElement,
    SelfSignedKey,
    Signature,
    group_by_name,
    possession_failing,
)

# Fraction of the old roster that must cosign a roster change: strictly more
# than two thirds.
def change_threshold(n: int) -> int:
    return n * 2 // 3 + 1


class RosterError(ValueError):
    pass


def aggregate_elements(group: Group, elems: Iterable[GroupElement]) -> GroupElement:
    """Group product; the empty product is the identity."""
    acc = group.identity
    for e in elems:
        acc = acc * e
    return acc


def adjust_key_for_absent(full: GroupElement,
                          absent_keys: Iterable[GroupElement]) -> GroupElement:
    acc = full
    for key in absent_keys:
        acc = acc * key.inverse()
    return acc


@dataclass(frozen=True)
class RosterEntry:
    witness_id: bytes
    key: SelfSignedKey
    weight: int = 1
    endpoint: str | None = None

    def __post_init__(self):
        if self.weight < 0:
            raise RosterError("weight must be non-negative")


@dataclass(frozen=True)
class WitnessRoster:
    """An ordered, validated witness list with a designated leader.

    Besides its full aggregate key, a roster keeps the present key of one
    absent set in one slot: the last non-empty set that `present_key` was
    asked for, with that set's key. A signature's absent witnesses
    (crashed, lying, or the leader of a replaced view) tend to stay absent
    round after round, so a recurring set reuses one element: the group
    counts that element's powers and, once they have paid for one, keeps a
    table on it. A set verified once or twice builds nothing. A different
    set replaces the slot with a new element, which counts from zero. Deep
    copies of the roster copy the slot and share what its key keeps.
    """

    version: int
    entries: tuple[RosterEntry, ...]
    leader_index: int

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def group(self) -> Group:
        return self.entries[0].key.public.group

    def public_key(self, index: int) -> GroupElement:
        return self.entries[index].key.public

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(e.weight for e in self.entries)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.weights)

    def aggregate_key(self) -> GroupElement:
        return self._aggregate_key

    @cached_property
    def _aggregate_key(self) -> GroupElement:
        # Stored in the instance dict, which the frozen dataclass allows, so
        # that every full-roster verification powers this one element.
        return aggregate_elements(self.group, (e.key.public for e in self.entries))

    def present_key(self, absent: frozenset[int]) -> GroupElement:
        """Aggregate key of the witnesses not in `absent`.

        With no one absent it is the full key. Otherwise the slot keeps it
        for as long as the same set is asked for again. A new set's key
        divides the absent keys out of the full key when fewer witnesses are
        absent than present, and otherwise multiplies the present keys; it
        then replaces the slot. An index outside the roster, or a set of
        every witness, raises.
        """
        count = len(self.entries)
        for i in absent:
            if not 0 <= i < count:
                raise RosterError(f"roster index {i} out of range")
        if not absent:
            return self.aggregate_key()
        slot = self.__dict__.get("_absent_slot")
        if slot is not None and slot[0] == absent:
            return slot[1]
        if len(absent) == count:
            raise RosterError("cannot aggregate an empty key set")
        if 2 * len(absent) < count:
            key = adjust_key_for_absent(self.aggregate_key(),
                                        (self.public_key(i) for i in sorted(absent)))
        else:
            key = aggregate_elements(self.group, (self.public_key(i) for i in range(count)
                                                  if i not in absent))
        # One assignment: threads that race here each store a correct key,
        # and whichever lands last is kept.
        self.__dict__["_absent_slot"] = (absent, key)
        return key

    def to_json_obj(self) -> dict:
        return {
            "version": self.version,
            "leader": self.leader_index,
            "group": self.group.name,
            "entries": [
                {
                    "id-hex": e.witness_id.hex(),
                    "key-hex": e.key.public.encode().hex(),
                    "proof-hex": e.key.proof.encode().hex(),
                    "weight": e.weight,
                    **({"endpoint": e.endpoint} if e.endpoint else {}),
                }
                for e in self.entries
            ],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def digest(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes()).digest()


def build_roster(entries: Sequence[RosterEntry], leader_index: int,
                 version: int = 0) -> WitnessRoster:
    """Validate ids and possession proofs, then freeze the roster."""
    if not entries:
        raise RosterError("roster must have at least one entry")
    if not 0 <= leader_index < len(entries):
        raise RosterError("leader index out of range")
    seen = set()
    for e in entries:
        if e.witness_id in seen:
            raise RosterError(f"duplicate witness id {e.witness_id.hex()}")
        seen.add(e.witness_id)
        # Anyone can prove possession of the identity (R = g^v, s = v), and
        # so answer for such a witness in every round.
        if e.key.public == e.key.public.group.identity:
            raise RosterError(f"identity public key for witness {e.witness_id.hex()}")
    bad = possession_failing([e.key for e in entries])
    if bad:
        raise RosterError(f"possession proof failed for witness {entries[bad[0]].witness_id.hex()}")
    return WitnessRoster(version=version, entries=tuple(entries), leader_index=leader_index)


def roster_from_json_obj(obj: dict) -> WitnessRoster:
    group = group_by_name(obj["group"])
    entries = []
    for item in obj["entries"]:
        key = SelfSignedKey(
            public=group.decode_element(bytes.fromhex(item["key-hex"])),
            proof=Signature.decode(group, bytes.fromhex(item["proof-hex"])),
        )
        entries.append(RosterEntry(
            witness_id=bytes.fromhex(item["id-hex"]),
            key=key,
            weight=int(item.get("weight", 1)),
            endpoint=item.get("endpoint"),
        ))
    return build_roster(entries, leader_index=int(obj["leader"]),
                        version=int(obj["version"]))


def load_roster(path: str) -> WitnessRoster:
    with open(path, "r", encoding="utf-8") as fh:
        return roster_from_json_obj(json.load(fh))


def save_roster(roster: WitnessRoster, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(roster.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Key tree: Merkle commitment to the roster's public keys
# ---------------------------------------------------------------------------

def build_key_tree(roster: WitnessRoster) -> merkle.MerkleTree:
    """The Merkle tree whose leaf i is witness i's encoded public key."""
    return merkle.MerkleTree([e.key.public.encode() for e in roster.entries])


def verify_key(root: bytes, index: int, key: GroupElement,
               proof: merkle.InclusionProof) -> bool:
    return merkle.verify_inclusion(root, key.encode(), proof, index=index)


# ---------------------------------------------------------------------------
# Compact anchors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProvenKey:
    index: int
    key: GroupElement
    proof: merkle.InclusionProof


@dataclass(frozen=True)
class CompactAnchor:
    """Aggregate key + key-tree root in place of the full roster, with the
    roster's weights, one per witness."""

    group: Group
    aggregate_key: GroupElement
    key_tree_root: bytes
    weights: tuple[int, ...]
    total_weight: int

    def __len__(self) -> int:
        return len(self.weights)

    def present_key(self, absent: frozenset[int],
                    proven_keys: Iterable[ProvenKey]) -> GroupElement:
        """Aggregate key of the witnesses not in `absent`.

        The caller supplies key-tree inclusion proofs covering either the
        absent set (keys are divided out of the anchor's aggregate) or the
        present set (keys are multiplied together), whichever list it holds.
        """
        proven = {pk.index: pk for pk in proven_keys}
        for pk in proven.values():
            if not 0 <= pk.index < len(self):
                raise RosterError(f"proven key index {pk.index} out of range")
            if not verify_key(self.key_tree_root, pk.index, pk.key, pk.proof):
                raise RosterError(f"key inclusion proof failed for index {pk.index}")
        covered = frozenset(proven)
        if absent <= covered:
            return adjust_key_for_absent(self.aggregate_key,
                                         (proven[i].key for i in sorted(absent)))
        present = frozenset(range(len(self))) - absent
        if present <= covered:
            return aggregate_elements(self.group, (proven[i].key for i in sorted(present)))
        missing = (absent - covered) if len(absent) <= len(present) else (present - covered)
        raise RosterError(f"key proofs cover neither the present nor the absent set "
                          f"(missing {sorted(missing)})")


def compact_certificate(roster: WitnessRoster) -> CompactAnchor:
    """The roster's compact anchor. It holds the roster's own aggregate key
    and weights tuple, so a verify against either powers the same element."""
    return CompactAnchor(group=roster.group, aggregate_key=roster.aggregate_key(),
                         key_tree_root=build_key_tree(roster).root,
                         weights=roster.weights, total_weight=roster.total_weight)


# ---------------------------------------------------------------------------
# Roster evolution: collectively-signed change records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RosterChangeRecord:
    old_version: int
    new_roster: WitnessRoster
    signature: "object"  # multisig.CollectiveSignature

    def statement(self) -> bytes:
        return change_statement(self.old_version, self.new_roster)


def change_statement(old_version: int, new_roster: WitnessRoster) -> bytes:
    head = b"cosi/roster-change/v1" + old_version.to_bytes(8, "big") \
        + new_roster.version.to_bytes(8, "big")
    return head + new_roster.digest()


def make_change_record(old_roster: WitnessRoster, new_roster: WitnessRoster,
                       sign: Callable[[bytes], "object"]) -> RosterChangeRecord:
    """Have the old roster cosign the transition to the new roster.

    `sign` runs a signing round over the old roster and returns the
    collective signature for the given statement bytes.
    """
    if new_roster.version != old_roster.version + 1:
        raise RosterError("roster versions must be strictly sequential")
    statement = change_statement(old_roster.version, new_roster)
    signature = sign(statement)
    record = RosterChangeRecord(
        old_version=old_roster.version,
        new_roster=new_roster,
        signature=signature,
    )
    _check_record(old_roster, record)
    return record


def _check_record(current: WitnessRoster, record: RosterChangeRecord) -> None:
    from . import multisig  # local import: multisig depends on this module
    from .participation import Threshold

    if record.old_version != current.version:
        raise RosterError(f"chain gap: record starts at version {record.old_version}, "
                          f"roster is at {current.version}")
    # the signed version, which the statement binds
    if record.new_roster.version != current.version + 1:
        raise RosterError("roster versions must be strictly sequential")
    predicate = Threshold(change_threshold(len(current)))
    result = multisig.verify_collective(current, record.statement(),
                                        record.signature, predicate)
    if not result.ok:
        raise RosterError(f"change record signature rejected: {result.reason}")


def verify_roster_chain(start: WitnessRoster,
                        records: Sequence[RosterChangeRecord]) -> WitnessRoster:
    """Walk a change chain forward, validating each record under its predecessor."""
    current = start
    for record in records:
        _check_record(current, record)
        current = record.new_roster
    return current
