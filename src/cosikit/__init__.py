"""cosi-kit: collective witness-cosigning toolkit.

Schnorr multisignature aggregation over deterministic spanning trees with
exception handling, verification predicates, key trees, a deterministic
network simulator with baseline schemes, and a batching timestamp authority.
"""

from .group import (
    ED25519,
    TOY,
    DecodeError,
    GroupElement,
    KeyPair,
    Scalar,
    SelfSignedKey,
    Signature,
    challenge_hash,
    group_by_id,
    group_by_name,
    keygen,
    prove_possession,
    schnorr_sign,
    schnorr_verify,
)
from .multisig import (
    MODE_NAMES,
    MODE_NO_RESTART,
    MODE_RESTART,
    CollectiveSignature,
    CommitException,
    CommitTree,
    aggregate_public_key,
    collective_challenge,
    response_share,
    verify_collective,
)
from .participation import (
    AllOf,
    AnyOf,
    Group,
    Mandatory,
    ParticipationSet,
    Threshold,
    WeightedThreshold,
    evaluate,
)
from .roster import (
    CompactAnchor,
    RosterEntry,
    WitnessRoster,
    adjust_key_for_absent,
    aggregate_elements,
    build_key_tree,
    build_roster,
    compact_certificate,
)
from .topology import build_bary_tree, prune_and_reconnect, tree_for

__version__ = "0.1.0"
