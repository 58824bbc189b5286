import ast
import collections
import copy
import hashlib
import itertools
import random
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NO_PATH, assert_cuts_rejected, audit_path, make_toy_roster, swap_generator

from cosikit import engine, merkle, multisig, simnet, wire
from cosikit.engine import (
    Announce,
    Challenge,
    Commit,
    Refuse,
    Response,
    RestartChallenge,
    RestartCommit,
    Send,
    SigningNode,
    ViewChange,
    make_hash_chain_hook,
    make_timestamp_window_hook,
    view_change_threshold,
    view_leader,
    view_vote_statement,
)
from cosikit.group import ED25519, TOY, DecodeError, Ed25519Group, KeyPair, Reader, Signature, \
    schnorr_sign
from cosikit.merkle import DigestTree, fold_proof
from cosikit.multisig import MODE_NO_RESTART, MODE_RESTART, CommitException
from cosikit.participation import Threshold
from cosikit.simnet import FailureAction, SimConfig
from cosikit.timestamp import GENESIS_HASH, TimestampRecord
from cosikit.topology import tree_for
from cosikit.wire import StampReply, StampRequest, decode_frame_body, encode_message, frame_size

# each message type's two forms, the no-restart one first
COMMITS, CHALLENGES = (Commit, RestartCommit), (Challenge, RestartChallenge)


def make_node(index, roster, secrets, hook=None, seed=0):
    kp = KeyPair.from_secret(TOY, secrets[index])
    return SigningNode(index, roster, kp, random.Random(seed + index), validation_hook=hook)


def announce_for(roster, branching=2, statement=b"s", view=0, rnd=0, attempt=0,
                 mode=MODE_RESTART, timing=engine.STATEMENT_AT_ANNOUNCE, sender=0):
    topo = tree_for(len(roster), branching, view_leader(roster, view))
    return Announce(view=view, round=rnd, attempt=attempt, mode=mode, timing=timing,
                    branching=branching, timeout_ms=800, topology_digest=topo.digest(),
                    failed=frozenset(), sender=sender, statement=statement)


# -- unit-level witness behavior -------------------------------------------------

def test_leaf_witness_commit_is_own_commit():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    node = make_node(2, roster, secrets)
    effects = node.handle_message(announce_for(roster), now=0.0)
    sends = [e for e in effects if isinstance(e, Send)]
    assert len(sends) == 1 and sends[0].dest == 0
    msg = sends[0].msg
    assert isinstance(msg, RestartCommit)
    # leaf: aggregate equals own commit
    assert msg.aggregate == node.rounds[(0, 0, 0)].own_commit
    assert msg.absent == frozenset()


def test_interior_witness_waits_for_children():
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)  # children 3, 4 in the 7-node binary tree
    effects = node.handle_message(announce_for(roster), now=0.0)
    sends = [e for e in effects if isinstance(e, Send)]
    assert {s.dest for s in sends} == {3, 4}  # forwards the announce
    assert all(isinstance(s.msg, Announce) for s in sends)
    assert not any(isinstance(s.msg, COMMITS) for s in sends)


def test_witness_bridges_with_the_announced_timeout():
    """A witness times its phases by the announce it received: bridging past
    a dead child, it re-announces the leader's timeout_ms and waits that long
    for the grandchild's commit, whatever its own defaults. At 1001 ms the
    timeout rebuilt from `rtt_hint` would re-announce 1000."""
    secrets = list(range(1, 9))
    roster = make_toy_roster(secrets)  # 0 -> 1, 2; 1 -> 3, 4; 3 -> 7
    for rtt_hint, timeout_ms in ((0.0123, 49), (0.250251, 1001)):
        nodes = [make_node(i, roster, secrets) for i in range(8)]
        config = engine.RoundConfig(round_number=0, mode=MODE_NO_RESTART, branching=2,
                                    rtt_hint=rtt_hint)
        announce = next(e.msg for e in nodes[0].start_round(config, b"s", 0.0)
                        if isinstance(e, Send) and e.dest == 1)
        assert announce.timeout_ms == timeout_ms
        forwarded = {e.dest: e.msg for e in nodes[1].handle_message(announce, 0.0)
                     if isinstance(e, Send)}
        assert sorted(forwarded) == [3, 4]
        [commit] = nodes[4].handle_message(forwarded[4], 0.0)
        assert nodes[1].handle_message(commit.msg, 0.0) == []
        effects = nodes[1].on_timer(("commit", 0, 0, 0), 1.0)  # 3 never commits
        assert [(e.dest, e.msg.sender, e.msg.timeout_ms) for e in effects
                if isinstance(e, Send)] == [(7, 1, announce.timeout_ms)]
        assert [e for e in effects if isinstance(e, engine.SetTimer)] == [
            engine.SetTimer(("commit", 0, 0, 0), announce.timeout_ms / 1000)]


def test_challenge_before_commit_is_ignored():
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)
    node.handle_message(announce_for(roster), now=0.0)
    challenge = RestartChallenge(view=0, round=0, attempt=0, sender=0,
                                 challenge=TOY.scalar(3), aggregate_commit=TOY.generator,
                                 statement=None)
    assert node.handle_message(challenge, now=0.1) == []


def test_stale_view_messages_dropped():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)
    node.current_view = 2
    assert node.handle_message(announce_for(roster, view=0), now=0.0) == []


@pytest.mark.parametrize("bad, cause", [
    ({"branching": 0}, "branching factor must be >= 1"),
    ({"failed": frozenset({7})}, "failed indices out of range"),
    ({"failed": frozenset({0})}, "leader is in the failure set"),
])
def test_announce_without_a_tree_is_dropped(caplog, bad, cause):
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)
    assert node.handle_message(replace(announce_for(roster), **bad), now=0.0) == []
    assert node.rounds == {}
    assert cause in caplog.text
    # the witness still serves the next, well-formed announce
    assert node.handle_message(announce_for(roster), now=0.1)


@pytest.mark.parametrize("field", ["mode", "timing"])
def test_announce_with_unknown_mode_or_timing_dropped(field, caplog):
    # with timing 2, a witness whose hook refuses every statement ran no hook
    # yet answered the challenge over the announced statement
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    node = make_node(2, roster, secrets, hook=lambda stmt, ctx: False)
    announce = replace(announce_for(roster, statement=b"bad"), **{field: 2})
    assert node.handle_message(announce, now=0.0) == []
    assert node.rounds == {}
    assert "unknown mode or statement timing" in caplog.text


def test_announce_with_a_wrong_topology_digest_dropped(caplog):
    """A witness opens no session when the tree it derives from the announce
    is not the tree whose digest the announce carries."""
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)
    announce = announce_for(roster)
    other = announce_for(roster, branching=3).topology_digest  # the digest of another tree
    assert other != announce.topology_digest
    assert node.handle_message(replace(announce, topology_digest=other), now=0.0) == []
    assert node.rounds == {}
    assert "announce topology digest mismatch" in caplog.text
    # the witness still serves the announce that names its tree
    assert node.handle_message(announce, now=0.1)


def _mid_round():
    """A 7-node toy no-restart round over a late-bound statement, stopped
    mid-round, with every frame sent so far by (sender, receiver, type).

    The tree is 0 -> 1, 2; 1 -> 3, 4; 2 -> 5, 6. The commits of 5 and 6 never
    reach node 2, so the leader's commit timer bridges to them, and they
    commit to it; node 2 waits on, its own commit unbuilt. Node 4's hook
    refuses the statement, and node 1 waits for 3's response, which is held
    back, as is the leader's challenge to 6; 5 has answered, so the leader
    waits for 1 and 6."""
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    nodes = [make_node(i, roster, secrets, hook=(lambda s, now: False) if i == 4 else None)
             for i in range(7)]
    held = {(5, 2, Commit), (6, 2, Commit), (3, 1, Response), (0, 6, Challenge)}
    sent, queue = {}, collections.deque()

    def run(src, effects):
        queue.extend((src, e) for e in effects if isinstance(e, Send))
        while queue:
            src, e = queue.popleft()
            sent[src, e.dest, type(e.msg)] = e.msg
            if (src, e.dest, type(e.msg)) not in held:
                queue.extend((e.dest, f) for f in nodes[e.dest].handle_message(e.msg, 0.0)
                             if isinstance(f, Send))

    config = engine.RoundConfig(round_number=0, mode=MODE_NO_RESTART, branching=2,
                                statement_timing=engine.STATEMENT_AT_CHALLENGE)
    run(0, nodes[0].start_round(config, b"s", 0.0))
    run(0, nodes[0].on_timer(("commit", 0, 0, 0), 1.0))
    return nodes, sent


# (receiving node, what it gets), each a frame or timer it must ignore
_IGNORED = {
    "unknown session": (1, lambda sent: replace(sent[0, 1, Challenge], round=99)),
    "finished session's commit": (5, lambda sent: sent[3, 1, Commit]),
    "finished session's response": (5, lambda sent: sent[5, 0, Response]),
    "finished session's refusal": (5, lambda sent: sent[4, 1, Refuse]),
    "re-announce before the commit is built": (2, lambda sent: sent[0, 2, Announce]),
    "announce naming the receiver failed": (1, lambda sent: replace(
        sent[0, 1, Announce], attempt=1, failed=frozenset({1}),
        topology_digest=tree_for(7, 2, 0, frozenset({1})).digest())),
    "duplicate commit": (1, lambda sent: sent[3, 1, Commit]),
    "duplicate refusal": (1, lambda sent: sent[4, 1, Refuse]),
    "duplicate response": (0, lambda sent: sent[5, 0, Response]),
    "late challenge without a statement": (
        6, lambda sent: replace(sent[0, 6, Challenge], statement=None)),
    "timer for an unknown session": (1, lambda sent: ("commit", 0, 99, 0)),
}


@pytest.mark.parametrize("case", list(_IGNORED))
def test_frames_a_node_must_ignore_leave_it_unchanged(case):
    nodes, sent = _mid_round()
    assert nodes[2].rounds[(0, 0, 0)].summary is None  # node 2 is still collecting
    assert nodes[5].rounds[(0, 0, 0)].phase == engine.PHASE_DONE
    receiver, build = _IGNORED[case]
    node, got = nodes[receiver], build(sent)

    def state():
        return copy.deepcopy((node.rounds, node.nonce_log, node.subtree_keys,
                              node.view_votes, node.current_view))
    before = state()
    if isinstance(got, tuple):
        assert node.on_timer(got, 2.0) == []
    else:
        assert node.handle_message(got, 2.0) == []
    assert state() == before


@pytest.mark.parametrize("bad, cause", [
    ({"mode": 5}, "unknown signature mode 5"),
    ({"statement_timing": 2}, "unknown statement timing 2"),
    ({"max_restarts": -1}, "max_restarts must be >= 0"),
])
def test_round_config_rejects_unknown_values(bad, cause):
    # a leader would send an announce that every witness drops, and its
    # commit timer would then fail on the mode
    with pytest.raises(ValueError, match=cause):
        engine.RoundConfig(round_number=0, **bad)


def test_frame_index_sets_bounded_by_roster():
    roster = make_toy_roster([1, 2, 3])
    frame = bytearray(encode_message(
        replace(announce_for(roster), failed=frozenset({2})), TOY)[4:])
    assert decode_frame_body(bytes(frame), TOY, 3).failed == frozenset({2})
    at = frame.index((2).to_bytes(4, "big") + (0).to_bytes(4, "big"))  # failed, sender
    count_at = at - 2
    with pytest.raises(ValueError, match="out of range"):
        decode_frame_body(bytes(frame[:at] + (3).to_bytes(4, "big") + frame[at + 4:]),
                          TOY, 3)
    with pytest.raises(ValueError, match="records for 3 witnesses"):
        decode_frame_body(bytes(frame[:count_at] + (4).to_bytes(2, "big")
                                + frame[count_at + 2:]), TOY, 3)


def _routed_messages(sender):
    """One message of each type that names its sender, sent by `sender`."""
    elem = KeyPair.from_secret(TOY, 3).public
    head = dict(view=0, round=1, attempt=0, sender=sender)
    return {
        Announce: Announce(mode=0, timing=0, branching=2, timeout_ms=800,
                           topology_digest=b"\x01" * 32, failed=frozenset(),
                           statement=None, **head),
        Commit: Commit(aggregate=elem, commit=elem, tree_hash=b"\x01" * 32,
                       absent=frozenset(), failed=frozenset(), refused=frozenset(),
                       summaries=(), **head),
        Challenge: Challenge(challenge=TOY.scalar(6), aggregate_commit=elem,
                             commit_root=b"\x04" * 32, statement=None,
                             proof=NO_PATH, **head),
        RestartCommit: RestartCommit(aggregate=elem, absent=frozenset(), failed=frozenset(),
                                     refused=frozenset(), **head),
        RestartChallenge: RestartChallenge(challenge=TOY.scalar(6), aggregate_commit=elem,
                                           statement=None, **head),
        Response: Response(aggregate_response=TOY.scalar(9), absent=frozenset(),
                           failed=frozenset(), refused=frozenset(), exceptions=(), **head),
        Refuse: Refuse(reason=engine.REFUSE_STALE, **head),
        ViewChange: ViewChange(proposed_view=1, signer=sender,
                               signature=Signature(TOY.generator, TOY.scalar(2))),
    }


@pytest.mark.parametrize("cls", list(_routed_messages(0)), ids=lambda c: c.__name__)
def test_frame_sender_is_a_roster_index(cls):
    # a sender past the roster would be adopted as a parent and dialled
    n = 3
    last = _routed_messages(n - 1)[cls]
    assert decode_frame_body(encode_message(last, TOY)[4:], TOY, n) == last
    with pytest.raises(DecodeError, match="witness index 3 out of range"):
        decode_frame_body(encode_message(_routed_messages(n)[cls], TOY)[4:], TOY, n)


def _set_byte(body, at, value):
    return body[:at] + bytes([value]) + body[at + 1:]


@pytest.mark.parametrize("case", ["short-root", "long-root", "opt-flag", "ok-flag",
                                  "descending-set", "repeated-index"])
def test_decoders_accept_only_what_encoders_write(case):
    """Each frame here is one an encoder could not have written from a
    well-formed message."""
    challenge = _routed_messages(2)[Challenge]
    if case in ("short-root", "long-root"):
        root = b"\x04" * (31 if case == "short-root" else 33)
        body = encode_message(replace(challenge, commit_root=root), TOY)[4:]
    elif case == "opt-flag":
        body = encode_message(replace(challenge, statement=b"late"), TOY)[4:]
        at = 1 + 14 + TOY.scalar_size + TOY.element_size + 32  # after the root
        assert body[at] == 1
        body = _set_byte(body, at, 2)
    elif case == "ok-flag":
        body = _set_byte(encode_message(StampReply(ok=True, payload=b"r"), TOY)[4:], 1, 2)
    else:
        response = replace(_routed_messages(2)[Response], absent=frozenset({3, 4}))
        body = encode_message(response, TOY)[4:]
        at = body.index((3).to_bytes(4, "big") + (4).to_bytes(4, "big"))
        swapped = (4).to_bytes(4, "big") + ((3 if case == "descending-set" else 4)
                                           .to_bytes(4, "big"))
        body = body[:at] + swapped + body[at + 8:]
    with pytest.raises(DecodeError):
        decode_frame_body(body, TOY, 7)


def test_second_conflicting_challenge_refused():
    secrets = [3, 4]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets, seed=7)
    node.handle_message(announce_for(roster), now=0.0)
    st = node.rounds[(0, 0, 0)]
    c1 = multisig.collective_challenge(st.summary.aggregate, b"s")
    ch = RestartChallenge(view=0, round=0, attempt=0, sender=0, challenge=c1,
                          aggregate_commit=st.summary.aggregate, statement=None)
    first = node.handle_message(ch, now=0.1)
    assert any(isinstance(e, Send) and isinstance(e.msg, Response) for e in first)
    conflicting = replace(ch, challenge=c1 + TOY.scalar(1))
    effects = node.handle_message(conflicting, now=0.2)
    assert any(isinstance(e, Send) and isinstance(e.msg, Refuse) for e in effects)
    # the same challenge again just resends the stored response
    again = node.handle_message(ch, now=0.3)
    assert any(isinstance(e, Send) and isinstance(e.msg, Response) for e in again)


def test_interior_node_refuses_a_second_challenge_while_its_child_answers():
    """Node 1 of the chain 0 -> 1 -> 2 has answered a challenge and waits
    for node 2's response: a different challenge is refused as stale and
    uses no second nonce, and the same challenge from another sender moves
    the node's response there, sent once when node 2 answers."""
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    node, child = (make_node(i, roster, secrets, seed=7) for i in (1, 2))

    def sends(effects):
        return [e for e in effects if isinstance(e, Send)]
    (to_child,) = sends(node.handle_message(announce_for(roster, branching=1), now=0.0))
    (to_node,) = sends(child.handle_message(to_child.msg, now=0.0))
    node.handle_message(to_node.msg, now=0.1)
    st = node.rounds[(0, 0, 0)]
    ch = _challenge_for(st)
    (to_child,) = sends(node.handle_message(ch, now=0.2))
    assert (to_child.dest, type(to_child.msg)) == (2, RestartChallenge)
    assert len(node.nonce_log) == 1
    conflicting = replace(ch, challenge=ch.challenge + TOY.scalar(1))
    effects = node.handle_message(conflicting, now=0.3)
    assert [(e.dest, type(e.msg), e.msg.reason) for e in effects] == [
        (0, Refuse, engine.REFUSE_STALE)]
    assert len(node.nonce_log) == 1 and node.rounds[(0, 0, 0)] is st
    assert node.handle_message(replace(ch, sender=2), now=0.4) == []
    (answer,) = sends(child.handle_message(to_child.msg, now=0.5))
    effects = sends(node.handle_message(answer.msg, now=0.6))
    assert [(e.dest, type(e.msg)) for e in effects] == [(2, Response)]
    assert len(node.nonce_log) == 1


def _challenge_for(st, statement=b"s"):
    """The restart challenge that answers round state `st`'s commit."""
    key = st.key
    return RestartChallenge(
        view=key[0], round=key[1], attempt=key[2], sender=0,
        challenge=multisig.collective_challenge(st.summary.aggregate, statement),
        aggregate_commit=st.summary.aggregate, statement=None)


def test_new_session_discards_unanswered_nonce():
    secrets = [3, 4]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets, seed=7)
    node.handle_message(announce_for(roster, rnd=0), now=0.0)  # session A: commit out
    # built while A is live: opening B finishes A, refused as stale
    challenge_a = _challenge_for(node.rounds[(0, 0, 0)])
    node.handle_message(announce_for(roster, rnd=1), now=0.1)  # session B
    assert node.rounds[(0, 0, 0)].phase == engine.PHASE_REFUSED
    assert node.handle_message(challenge_a, now=0.2) == []
    assert node.nonce_log == []
    # a re-announce of A refuses it as stale and opens no session
    again = node.handle_message(announce_for(roster, rnd=0), now=0.25)
    assert [(type(e.msg), e.msg.reason) for e in again] == [(Refuse, engine.REFUSE_STALE)]
    assert node.handle_message(challenge_a, now=0.3) == []
    st = node.rounds[(0, 1, 0)]
    challenge_b = _challenge_for(st)
    effects = node.handle_message(challenge_b, now=0.4)
    assert [(e.dest, type(e.msg)) for e in effects] == [(0, Response)]
    share = effects[0].msg.aggregate_response
    # r = v - c*x, so g^r * X^c is the commit B drew
    key_term = roster.public_key(1) ** challenge_b.challenge
    assert TOY.generator ** share * key_term == st.own_commit
    assert [entry[:3] for entry in node.nonce_log] == [(0, 1, 0)]


def test_interior_commit_finished_after_newer_session_cannot_answer():
    secrets = [1, 2, 3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets)  # children 3, 4 in the 7-node binary tree
    node.handle_message(announce_for(roster, rnd=0), now=0.0)  # A waits for 3 and 4
    session_a = node.rounds[(0, 0, 0)]
    node.handle_message(announce_for(roster, rnd=1), now=0.1)  # B opens first
    effects = []
    for child in (3, 4):
        leaf = make_node(child, roster, secrets)
        for send in leaf.handle_message(announce_for(roster, rnd=0, sender=1), now=0.2):
            effects += node.handle_message(send.msg, now=0.3)
    # A's commit could never be answered: node 1 refuses it as stale instead
    assert [(e.dest, type(e.msg), e.msg.reason) for e in effects] == [
        (0, Refuse, engine.REFUSE_STALE)]
    assert node.rounds[(0, 0, 0)].phase == engine.PHASE_REFUSED
    assert node.handle_message(_challenge_for(session_a), now=0.4) == []
    assert node.nonce_log == []


def test_leader_new_round_discards_unanswered_nonce():
    secrets = [3, 4]
    roster = make_toy_roster(secrets)
    leader, witness = make_node(0, roster, secrets), make_node(1, roster, secrets)
    cfg = engine.RoundConfig(round_number=0, branching=2)
    first = leader.start_round(cfg, b"s", now=0.0)  # round 0 waits for witness 1
    second = leader.start_round(replace(cfg, round_number=1), b"s", now=0.1)
    pending = [e for e in first + second if isinstance(e, Send)]
    done = []
    while pending:
        send = pending.pop(0)
        node = leader if send.dest == 0 else witness
        for eff in node.handle_message(send.msg, now=0.2):
            if isinstance(eff, Send):
                pending.append(eff)
            elif isinstance(eff, engine.RoundDone):
                done.append(eff.result)
    assert [(r.round, r.ok) for r in done] == [(0, False), (1, True)]
    assert done[0].reason == "nonce discarded for a newer session"
    assert [entry[:3] for entry in leader.nonce_log] == [(0, 1, 0)]
    assert [entry[:3] for entry in witness.nonce_log] == [(0, 1, 0)]
    assert multisig.verify_collective(roster, b"s", done[1].signature, Threshold(2)).ok
    # round 0's failed session stays, and a challenge for it is ignored: its
    # nonce is gone
    before = copy.deepcopy(leader.rounds)
    assert leader.handle_message(_challenge_for(leader.rounds[(0, 0, 0)]), now=0.3) == []
    assert leader.rounds == before and len(leader.nonce_log) == 1


def test_restarting_an_older_round_keeps_its_own_statement():
    """A leader that starts round 1 while round 0 waits for a response
    restarts round 0 with round 0's statement: each round carries its own
    data from attempt to attempt."""
    secrets = list(range(1, 8))
    roster = make_toy_roster(secrets)  # 0 -> 1, 2; 1 -> 3, 4; 2 -> 5, 6
    nodes = [make_node(i, roster, secrets) for i in range(7)]
    config = engine.RoundConfig(round_number=0, branching=2)
    pending = nodes[0].start_round(config, b"A", now=0.0)
    while pending:
        eff = pending.pop(0)
        if isinstance(eff, Send) and not (isinstance(eff.msg, Response)
                                          and eff.msg.sender == 2):
            pending += nodes[eff.dest].handle_message(eff.msg, now=0.1)
    assert nodes[0].rounds[(0, 0, 0)].challenged is not None  # 2's response is lost
    nodes[0].start_round(replace(config, round_number=1), b"B", now=0.2)
    sends = [e for e in nodes[0].on_timer(("response", 0, 0, 0), now=1.0)
             if isinstance(e, Send)]
    assert {(e.dest, e.msg.attempt, e.msg.statement) for e in sends} == {
        (1, 1, b"A"), (5, 1, b"A"), (6, 1, b"A")}


def test_view_schedule_starts_at_roster_leader():
    secrets = [3, 4, 5, 6, 7]
    roster = make_toy_roster(secrets, leader_index=2)
    assert [view_leader(roster, v) for v in range(6)] == [2, 3, 4, 0, 1, 2]
    nodes = [make_node(i, roster, secrets) for i in range(5)]
    cfg = engine.RoundConfig(round_number=0, branching=2)
    pending = [e for e in nodes[2].start_round(cfg, b"led by 2", now=0.0)
               if isinstance(e, Send)]
    assert {e.msg.sender for e in pending} == {2}
    done = []
    while pending:
        send = pending.pop(0)
        effects = nodes[send.dest].handle_message(send.msg, now=0.1)
        if isinstance(send.msg, Announce):
            assert effects, f"witness {send.dest} dropped the announce"
        pending += [e for e in effects if isinstance(e, Send)]
        done += [e.result for e in effects if isinstance(e, engine.RoundDone)]
    assert [(r.view, r.ok) for r in done] == [(0, True)]
    assert multisig.verify_collective(roster, b"led by 2", done[0].signature,
                                      Threshold(5)).ok


# -- lying leader ------------------------------------------------------------------

def _lying_leader_challenge(mode, timing, signed, hook=None):
    """Witness 1 of a two-node roster after an announce of b"honest"; returns
    it with a challenge whose scalar is computed over `signed`."""
    secrets = [3, 4]
    roster = make_toy_roster(secrets)
    node = make_node(1, roster, secrets, hook=hook, seed=7)
    at_announce = timing == engine.STATEMENT_AT_ANNOUNCE
    node.handle_message(announce_for(roster, statement=b"honest" if at_announce else None,
                                     mode=mode, timing=timing), now=0.0)
    st = node.rounds[(0, 0, 0)]
    leader_commit = TOY.generator ** TOY.scalar(5)
    aggregate = leader_commit * st.summary.aggregate
    head = dict(view=0, round=0, attempt=0, sender=0, aggregate_commit=aggregate,
                statement=None if at_announce else b"honest")
    if mode == MODE_RESTART:
        return node, RestartChallenge(
            challenge=multisig.collective_challenge(aggregate, signed), **head)
    tree = DigestTree([multisig.commit_leaf_digest(leader_commit), st.summary.tree_hash])
    return node, Challenge(challenge=multisig.collective_challenge(aggregate, signed, tree.root),
                           commit_root=tree.root, proof=tree.prove(1), **head)


@pytest.mark.parametrize("timing", [engine.STATEMENT_AT_ANNOUNCE,
                                    engine.STATEMENT_AT_CHALLENGE])
@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_lying_leader_challenge_refused(mode, timing):
    node, forged = _lying_leader_challenge(mode, timing, b"forged")
    effects = node.handle_message(forged, now=0.1)
    assert [(e.dest, type(e.msg)) for e in effects] == [(0, Refuse)]
    assert node.nonce_log == []
    # control: the challenge over the announced statement is answered
    node, honest = _lying_leader_challenge(mode, timing, b"honest")
    effects = node.handle_message(honest, now=0.1)
    assert [(e.dest, type(e.msg)) for e in effects] == [(0, Response)]
    assert len(node.nonce_log) == 1


def test_re_announce_after_refusal_keeps_its_reason():
    node, forged = _lying_leader_challenge(MODE_NO_RESTART, engine.STATEMENT_AT_ANNOUNCE,
                                           b"forged")
    announce = announce_for(node.roster, statement=b"honest", mode=MODE_NO_RESTART)
    effects = node.handle_message(forged, now=0.1) + node.handle_message(announce, now=0.2)
    assert [(e.dest, e.msg.reason) for e in effects] == [(0, engine.REFUSE_PROOF)] * 2


# -- validation hooks --------------------------------------------------------------

def test_hook_refusal_on_announce():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    node = make_node(2, roster, secrets, hook=lambda stmt, ctx: False)
    effects = node.handle_message(announce_for(roster), now=0.0)
    assert len(effects) == 1
    send = effects[0]
    assert isinstance(send.msg, Refuse) and send.dest == 0
    assert send.msg.reason == engine.REFUSE_STATEMENT


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_hook_refusal_on_late_bound_statement(mode):
    """A witness whose hook refuses the statement a challenge binds late
    refuses it and releases no response, even for the challenge over it."""
    seen = []
    node, challenge = _lying_leader_challenge(
        mode, engine.STATEMENT_AT_CHALLENGE, b"honest",
        hook=lambda statement, now: seen.append((statement, now)) and False)
    effects = node.handle_message(challenge, now=0.1)
    assert seen == [(b"honest", 0.1)]
    assert [(e.dest, type(e.msg), e.msg.reason) for e in effects] == [
        (0, Refuse, engine.REFUSE_STATEMENT)]
    assert node.nonce_log == []
    assert node.handle_message(challenge, now=0.2) == []  # asked again: still silent
    assert node.nonce_log == []


def chain_record(seq: int, prev_hash: bytes, payload: bytes) -> bytes:
    """A record `make_hash_chain_hook` reads: seq | prev-hash | payload."""
    return seq.to_bytes(8, "big") + prev_hash + payload


def test_hash_chain_hook():
    hook = make_hash_chain_hook()
    first = chain_record(1, b"\x00" * 32, b"payload-1")
    assert hook(first, 0.0)
    second = chain_record(2, hashlib.sha256(first).digest(), b"payload-2")
    assert hook(second, 0.0)
    # the record last accepted, presented again (a restarted round)
    assert hook(second, 0.0)
    # but not another record at its sequence number, nor the one before it
    assert not hook(chain_record(2, hashlib.sha256(first).digest(), b"payload-2b"), 0.0)
    assert not hook(first, 0.0)
    # wrong previous hash
    third = chain_record(3, b"\x11" * 32, b"payload-3")
    assert not hook(third, 0.0)
    assert hook(chain_record(3, hashlib.sha256(second).digest(), b"payload-3"), 0.0)


@pytest.mark.parametrize("fault", [FailureAction(3, "response", "lie"),
                                   FailureAction(3, "challenge", "crash")],
                         ids=["liar", "crash"])
@pytest.mark.parametrize("timing", [engine.STATEMENT_AT_ANNOUNCE, engine.STATEMENT_AT_CHALLENGE],
                         ids=["at-announce", "at-challenge"])
@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART], ids=["restart", "no-restart"])
def test_hash_chain_round_signs_as_accept_all_does(mode, timing, fault):
    """A restart re-presents the chained record the witnesses accepted in the
    failed attempt: they accept it again, so the round signs on the attempt
    that `accept-all` signs on, 2 in restart mode and 1 in no-restart mode,
    with only the faulty witness out and no one refused."""
    results = [run_cosi(seed=1, n=7, branching=2, mode=mode, statement_timing=timing,
                        validation_policy=policy, failures=(fault,),
                        statement=chain_record(1, b"\x00" * 32, b"payload")).results[0]
               for policy in ("hash-chain", "accept-all")]
    for result in results:
        assert result.ok and result.attempts == (2 if mode == MODE_RESTART else 1)
        assert result.failed == {3} and result.refused == frozenset()


def test_timestamp_window_hook():
    hook = make_timestamp_window_hook(skew=10.0)
    now = 1_000_000.0
    good = TimestampRecord(1, int(now) - 5, b"\x00" * 32, GENESIS_HASH).pack()
    stale = TimestampRecord(1, int(now) - 20, b"\x00" * 32, GENESIS_HASH).pack()
    assert hook(good, now)
    assert not hook(stale, now)
    assert not hook(b"junk", now)


# -- engine through the simulator ---------------------------------------------------

def run_cosi(**kwargs):
    cfg = SimConfig(scheme="cosi", **kwargs)
    out = simnet.run_sim_detailed(cfg)
    return out


def test_three_witnesses_no_failures():
    out = run_cosi(seed=1, n=3, branching=2)
    result = out.results[0]
    assert result.ok and result.attempts == 1
    pset = result.signature.participation
    assert pset.response_present == frozenset({0, 1, 2})
    assert multisig.verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(3)).ok


def test_commit_phase_failure_restarts():
    out = run_cosi(seed=2, n=3, branching=2,
                   failures=(FailureAction(2, "announce", "crash"),))
    result = out.results[0]
    assert result.ok and result.attempts == 2
    assert result.signature.participation.response_present == frozenset({0, 1})
    assert 2 in result.failed


def test_response_phase_dropout_no_restart():
    out = run_cosi(seed=3, n=3, branching=2, mode=MODE_NO_RESTART,
                   failures=(FailureAction(2, "challenge", "crash"),))
    result = out.results[0]
    assert result.ok and result.attempts == 1
    assert [e.index for e in result.signature.exceptions] == [2]
    assert multisig.verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(2)).ok


def test_omitted_commit_bridges_to_children():
    # node 1 stays alive but its commit never arrives: in no-restart mode the
    # leader bridges straight to 1's children, who still participate
    out = run_cosi(seed=4, n=7, branching=2, mode=MODE_NO_RESTART,
                   failures=(FailureAction(1, "commit", "crash"),))
    result = out.results[0]
    assert result.ok
    present = result.signature.participation.response_present
    assert 1 not in present
    assert {3, 4} <= present
    assert result.signature.exceptions == ()  # commit-phase absence, no exception


def test_lying_child_excluded_and_exclusion_propagated():
    out = run_cosi(seed=5, n=7, branching=2,
                   failures=(FailureAction(3, "response", "lie"),))
    result = out.results[0]
    assert result.ok and result.attempts == 2
    assert 3 in result.failed
    assert 3 not in result.signature.participation.response_present


def test_lying_child_no_restart_becomes_exception():
    # in the prod group every partial is checked through the half-length split
    for group_name in ("toy", "prod"):
        out = run_cosi(seed=6, n=7, branching=2, mode=MODE_NO_RESTART, group_name=group_name,
                       failures=(FailureAction(3, "response", "lie"),))
        result = out.results[0]
        assert result.ok and result.attempts == 1
        assert [e.index for e in result.signature.exceptions] == [3]
        assert multisig.verify_collective(out.roster, result.statement,
                                          result.signature, Threshold(6)).ok


@pytest.mark.parametrize("forgery", ["exception-without-dropout", "absent-at-commit",
                                     "proof-off-the-tree"])
def test_parent_rejects_a_response_whose_exception_reports_do_not_hold(forgery, caplog):
    """7 witnesses, branching 2, no-restart: node 1 (children 3 and 4) rewrites
    its response's dropout reports; the leader rejects it, makes node 1 an
    exception and bridges to 1's contributors."""
    failures = ((FailureAction(3, "announce", "crash"),) if forgery == "absent-at-commit"
                else ())
    sim = simnet.CosiSim(SimConfig(seed=3, n=7, branching=2, mode=MODE_NO_RESTART,
                                   failures=failures))
    send = sim.send

    def forging_send(src, dst, msg, when):
        if src == 1 and dst == 0 and isinstance(msg, Response):
            # a commit exception for node 3 whose proof folds to no tree hash
            # of node 1's, reported with node 3 absent, or alone
            bogus = (CommitException(3, sim.group.generator, NO_PATH),)
            absent = msg.absent if forgery == "exception-without-dropout" else frozenset({3})
            msg = replace(msg, absent=absent, exceptions=bogus)
        send(src, dst, msg, when)

    sim.send = forging_send
    _, result = sim.run_round(0)
    assert "node 0: invalid partial response from 1" in caplog.text
    assert result.ok and [e.index for e in result.signature.exceptions] == [1]
    assert multisig.verify_collective(sim.roster, result.statement, result.signature,
                                      Threshold(1)).ok


def test_no_restart_challenge_without_a_commit_root_fails_to_decode():
    """A no-restart challenge's commit root is a plain digest: a frame that
    holds the one flag byte that once stood for a missing root, or a flag
    and a length before the root, does not decode."""
    _, challenge = _lying_leader_challenge(MODE_NO_RESTART, engine.STATEMENT_AT_ANNOUNCE,
                                           b"honest")
    body = encode_message(challenge, TOY)[4:]
    assert decode_frame_body(body, TOY, 2) == challenge
    at = body.index(challenge.commit_root)
    for root in (b"\x00", b"\x01" + (32).to_bytes(4, "big") + challenge.commit_root):
        with pytest.raises(DecodeError):
            decode_frame_body(body[:at] + root + body[at + 32:], TOY, 2)


def test_interior_drop_bridges_responses():
    out = run_cosi(seed=7, n=15, branching=2, mode=MODE_NO_RESTART,
                   failures=(FailureAction(1, "challenge", "crash"),))
    result = out.results[0]
    assert result.ok
    assert [e.index for e in result.signature.exceptions] == [1]
    # node 1's whole subtree still contributed
    present = result.signature.participation.response_present
    assert {3, 4, 7, 8, 9, 10} <= present


def test_dead_interior_and_its_leaf_become_exceptions():
    # 1 (children 3, 4) and its leaf 3 both die before responding: the leader
    # bridges to 3 and 4, and proves 3's commit through 1's summary of it
    out = run_cosi(seed=8, n=7, branching=2, mode=MODE_NO_RESTART,
                   failures=(FailureAction(1, "response", "crash"),
                             FailureAction(3, "response", "crash")))
    result = out.results[0]
    assert result.ok
    assert [e.index for e in result.signature.exceptions] == [1, 3]
    assert multisig.verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(5)).ok


def test_dead_interior_grandchild_with_subtree_fails_round():
    # in 15 nodes 3 has children 7 and 8, whose commits nobody reachable can prove
    out = run_cosi(seed=8, n=15, branching=2, mode=MODE_NO_RESTART,
                   failures=(FailureAction(1, "response", "crash"),
                             FailureAction(3, "response", "crash")))
    result = out.results[0]
    assert not result.ok
    assert result.reason == "witness 3 and its subtree data are unreachable"


def test_round_outputs_verify_across_failure_matrix():
    for n, mode in itertools.product((3, 7), (MODE_RESTART, MODE_NO_RESTART)):
        for position in range(1, n):
            phase = "challenge" if mode == MODE_NO_RESTART else "announce"
            out = run_cosi(seed=50 + position, n=n, branching=2, mode=mode,
                           failures=(FailureAction(position, phase, "crash"),))
            result = out.results[0]
            assert result.ok, (n, mode, position, result.reason)
            check = multisig.verify_collective(out.roster, result.statement,
                                               result.signature, Threshold(1))
            assert check.ok, (n, mode, position)


@pytest.mark.parametrize("refuser", [1, 5], ids=["interior", "leaf"])
@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_parent_handles_a_refusal_in_the_response_phase(mode, refuser):
    """A statement bound at challenge is refused after the commit phase; the
    parent takes that refusal in place of the witness's response."""
    sim = simnet.CosiSim(SimConfig(seed=3, n=7, branching=2, mode=mode,
                                   statement_timing=engine.STATEMENT_AT_CHALLENGE))
    sim.nodes[refuser].hook = lambda statement, now: False
    _, result = sim.run_round(0)
    assert result.ok and result.refused == {refuser}
    sig = result.signature
    if mode == MODE_RESTART:
        assert result.attempts == 2 and sig.exceptions == ()
        present = sig.participation.response_present
        assert refuser not in present
        assert refuser != 1 or {3, 4} <= present
    else:
        assert result.attempts == 1
        assert [e.index for e in sig.exceptions] == [refuser]
    assert multisig.verify_collective(sim.roster, result.statement, sig, Threshold(6)).ok
    assert [entry for entry in sim.nodes[refuser].nonce_log
            if entry[4] == sig.challenge.value] == []


def test_nonce_freshness_across_restarts():
    out = run_cosi(seed=8, n=7, branching=2,
                   failures=(FailureAction(5, "announce", "crash"),))
    assert out.results[0].ok and out.results[0].attempts == 2
    for node in out.nodes:
        by_nonce = {}
        for view, rnd, attempt, nonce, challenge in node.nonce_log:
            by_nonce.setdefault(nonce, set()).add(challenge)
        for nonce, challenges in by_nonce.items():
            assert len(challenges) <= 1, f"nonce reused for different challenges"


def test_restart_budget_exhausted_fails_the_round():
    out = run_cosi(seed=2, n=7, branching=2, max_restarts=0,
                   failures=(FailureAction(1, "commit", "crash"),))
    [result] = out.results
    assert not result.ok and result.reason.endswith("restart budget exhausted")
    assert result.attempts == 1 and 1 in result.failed


def test_leader_below_min_participants_fails():
    out = run_cosi(seed=9, n=4, branching=3, min_participants=4, max_restarts=1,
                   failures=(FailureAction(3, "announce", "crash"),))
    result = out.results[0]
    assert not result.ok
    assert "participation" in result.reason or "restart budget" in result.reason


@pytest.mark.parametrize("phase, answered", [("commit", 0), ("response", 1)])
def test_participation_below_leader_threshold_fails_the_round(phase, answered):
    """With all seven witnesses required, a no-restart witness that crashes
    at commit fails the round at the leader's commit-phase guard, before the
    leader answers its own challenge, and one that crashes at response at
    its response-phase guard, after; each names the crashed witness."""
    sim = simnet.CosiSim(SimConfig(seed=1, n=7, branching=2, mode=MODE_NO_RESTART,
                                   min_participants=7,
                                   failures=(FailureAction(3, phase, "crash"),)))
    _, result = sim.run_round(0)
    assert not result.ok and result.reason == "participation below leader threshold"
    assert result.failed == {3} and result.refused == frozenset()
    assert len(sim.nodes[0].nonce_log) == answered


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART], ids=["restart", "no-restart"])
def test_leader_self_check_fails_a_round_with_an_accepted_lie(monkeypatch, mode):
    """A prod round at N=4, B=3 whose leaf 2 lies at response: with the
    partial-response check patched to find no liar, the leader takes the
    lie into its aggregate, and its own check of the assembled signature
    fails the round, with no signature."""
    sim = simnet.CosiSim(SimConfig(seed=1, n=4, branching=3, group_name="prod", mode=mode,
                                   failures=(FailureAction(2, "response", "lie"),)))
    monkeypatch.setattr(Ed25519Group, "failing", lambda self, items: [])
    _, result = sim.run_round(0)
    assert not result.ok and result.signature is None
    assert result.reason == "assembled signature failed self-check: challenge mismatch"


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
@pytest.mark.parametrize("phase", ["commit", "response"])
def test_omitted_message_leaves_only_its_sender_out(mode, phase):
    # node 1 (children 4, 5, 6) stays alive but one of its messages never
    # arrives: the round still signs with everyone else
    out = run_cosi(seed=5, n=13, branching=3, mode=mode,
                   failures=(FailureAction(1, phase, "omit"),))
    result = out.results[0]
    assert result.ok and result.failed == frozenset({1})
    assert result.attempts == (2 if mode == MODE_RESTART else 1)
    assert result.signature.participation.response_present == frozenset(range(13)) - {1}
    assert multisig.verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(12)).ok


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
@pytest.mark.parametrize("kind", [Commit, Response])
def test_reports_outside_senders_subtree_dropped(mode, kind, caplog):
    # node 1 names the leader and its sibling 2 as failed; the leader drops
    # the message and its phase timer treats node 1 as silent
    if kind is Commit and mode == MODE_RESTART:
        kind = RestartCommit
    sim = simnet.CosiSim(SimConfig(seed=3, n=13, branching=3, mode=mode))
    send = sim.send

    def lying_send(src, dst, msg, when):
        if src == 1 and isinstance(msg, kind):
            msg = replace(msg, failed=msg.failed | {0, 2})
        send(src, dst, msg, when)

    sim.send = lying_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    assert result.signature.participation.response_present == frozenset(range(13)) - {1}
    assert f"dropping {kind.__name__} from 1: it reports nodes outside its subtree" \
        in caplog.text


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
@pytest.mark.parametrize("forgery", ["sibling-subtree", "sender", "absent"])
def test_summaries_outside_senders_subtree_dropped(mode, forgery, caplog):
    # 7 witnesses, branching 2: node 1 has children 3 and 4, node 2 has 5 and
    # 6. Node 1's commit carries the head of a node outside its subtree, or a
    # head whose absent set names a node outside that head's subtree; the
    # leader drops it rather than store a head that a no-restart bridge would
    # trust. A restart commit has no summaries, so there node 1 sends the
    # no-restart form, carrying the forged head, and the leader drops it for
    # its form.
    sim = simnet.CosiSim(SimConfig(seed=4, n=7, branching=2, mode=mode))
    send = sim.send

    def forging_send(src, dst, msg, when):
        if src == 1 and isinstance(msg, COMMITS):
            if mode == MODE_RESTART:  # the no-restart form, with a head for child 3
                msg = _in_other_form(msg)
                real = engine.SubtreeSummary(index=3, commit=msg.commit, aggregate=msg.aggregate,
                                             tree_hash=bytes(32), absent=frozenset())
            else:
                real = msg.summaries[0]
            forged = {"sibling-subtree": replace(real, index=5),
                      "sender": replace(real, index=1),
                      "absent": replace(real, absent=frozenset({5}))}
            msg = replace(msg, summaries=msg.summaries + (forged[forgery],))
        send(src, dst, msg, when)

    sim.send = forging_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    assert result.signature.participation.response_present == frozenset(range(7)) - {1}
    why = ("it reports nodes outside its subtree" if mode == MODE_NO_RESTART
           else "it has the other mode's form")
    assert f"dropping Commit from 1: {why}" in caplog.text


@pytest.mark.parametrize("forgery", ["duplicate", "nested"])
def test_commit_with_overlapping_heads_dropped(forgery, caplog):
    # 15 witnesses, branching 2: node 1 has children 3 and 4, and 3 has 7 and
    # 8. Node 1's no-restart commit carries 3's head twice, or 3's head and a
    # head for 7, inside 3's subtree. Contributors head disjoint subtrees;
    # overlapping heads would let node 1's tree lengthen the paths its parent
    # builds through it past what the parent's own parent accepts.
    sim = simnet.CosiSim(SimConfig(seed=4, n=15, branching=2, mode=MODE_NO_RESTART))
    send = sim.send

    def forging_send(src, dst, msg, when):
        if src == 1 and isinstance(msg, Commit):
            head = msg.summaries[0]
            assert head.index == 3
            extra = head if forgery == "duplicate" else replace(head, index=7)
            msg = replace(msg, summaries=msg.summaries + (extra,))
        send(src, dst, msg, when)

    sim.send = forging_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    assert result.signature.participation.response_present == frozenset(range(15)) - {1}
    assert "dropping Commit from 1: its heads overlap" in caplog.text


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_only_no_restart_rounds_ship_commit_tree_data(mode):
    """Only a no-restart round binds a commit root, so only there do commits
    carry their contributors' heads and challenges carry audit paths; a
    restart round sends the restart forms, which have neither. Node 1
    (children 4, 5 and 6) crashes before its response, so a restart round
    restarts and a no-restart round bridges."""
    sim = simnet.CosiSim(SimConfig(seed=5, n=13, branching=3, mode=mode,
                                   failures=(FailureAction(1, "response", "crash"),)))
    sent = []
    send = sim.send

    def recording_send(src, dst, msg, when):
        sent.append(msg)
        send(src, dst, msg, when)

    sim.send = recording_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    commits = [m for m in sent if isinstance(m, COMMITS)]
    challenges = [m for m in sent if isinstance(m, CHALLENGES)]
    forms = {type(m) for m in commits + challenges}
    if mode == MODE_RESTART:
        assert result.attempts == 2
        assert {m.attempt for m in commits} == {m.attempt for m in challenges} == {0, 1}
        assert forms == {RestartCommit, RestartChallenge}
    else:
        assert result.attempts == 1
        assert forms == {Commit, Challenge}
        assert {m.sender for m in commits if m.summaries} == {1, 2, 3}
        assert all(m.proof.step_count for m in challenges)


def _in_other_form(msg):
    """A commit or challenge in the other mode's form: a restart form gains
    made-up commit-tree fields, and a no-restart form loses its own."""
    head = dict(view=msg.view, round=msg.round, attempt=msg.attempt, sender=msg.sender)
    if isinstance(msg, RestartCommit):
        return Commit(aggregate=msg.aggregate, commit=msg.aggregate, tree_hash=bytes(32),
                      absent=msg.absent, failed=msg.failed, refused=msg.refused,
                      summaries=(), **head)
    if isinstance(msg, Commit):
        return RestartCommit(aggregate=msg.aggregate, absent=msg.absent, failed=msg.failed,
                             refused=msg.refused, **head)
    if isinstance(msg, RestartChallenge):
        return Challenge(challenge=msg.challenge, aggregate_commit=msg.aggregate_commit,
                         commit_root=bytes(32), statement=msg.statement,
                         proof=audit_path((0, bytes(32))), **head)
    return RestartChallenge(challenge=msg.challenge, aggregate_commit=msg.aggregate_commit,
                            statement=msg.statement, **head)


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_commit_of_the_other_modes_form_dropped(mode, caplog):
    """Node 1 (children 3 and 4) sends its commit in the other mode's form;
    the leader drops it and its commit timer counts node 1 out. A restart
    round restarts without node 1, and a no-restart round bridges to 3 and
    4."""
    sim = simnet.CosiSim(SimConfig(seed=4, n=7, branching=2, mode=mode))
    send = sim.send

    def converting_send(src, dst, msg, when):
        if src == 1 and isinstance(msg, COMMITS):
            msg = _in_other_form(msg)
        send(src, dst, msg, when)

    sim.send = converting_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    assert result.attempts == (2 if mode == MODE_RESTART else 1)
    assert result.signature.participation.response_present == frozenset(range(7)) - {1}
    sent = "Commit" if mode == MODE_RESTART else "RestartCommit"
    assert f"dropping {sent} from 1: it has the other mode's form" in caplog.text


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_challenge_of_the_other_modes_form_dropped(mode, caplog):
    """The leader's challenge to node 1 (children 3 and 4) comes in the other
    mode's form: node 1 drops it and answers nothing, so the leader's
    response timer counts node 1 out. A restart round restarts without it,
    and a no-restart round makes it an exception and bridges to 3 and 4."""
    sim = simnet.CosiSim(SimConfig(seed=4, n=7, branching=2, mode=mode))
    send = sim.send

    def converting_send(src, dst, msg, when):
        if (src, dst) == (0, 1) and isinstance(msg, CHALLENGES):
            msg = _in_other_form(msg)
        send(src, dst, msg, when)

    sim.send = converting_send
    _, result = sim.run_round(0)
    assert result.ok and result.failed == frozenset({1})
    if mode == MODE_RESTART:
        assert result.attempts == 2
        assert result.signature.participation.response_present == frozenset(range(7)) - {1}
    else:
        assert result.attempts == 1
        assert [e.index for e in result.signature.exceptions] == [1]
        assert multisig.verify_collective(sim.roster, result.statement, result.signature,
                                          Threshold(6)).ok
    sent = "Challenge" if mode == MODE_RESTART else "RestartChallenge"
    assert f"dropping {sent} from 0: it has the other mode's form" in caplog.text
    assert all(entry[:3] != (0, 0, 0) for entry in sim.nodes[1].nonce_log)


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_finished_session_drops_the_other_modes_form(mode, caplog):
    """A session that node 1 has finished answers a repeated challenge, and
    drops the same challenge, or its own commit, in the other mode's form."""
    sim = simnet.CosiSim(SimConfig(seed=4, n=7, branching=2, mode=mode))
    sent = []
    send = sim.send

    def recording_send(src, dst, msg, when):
        sent.append((src, dst, msg))
        send(src, dst, msg, when)

    sim.send = recording_send
    _, result = sim.run_round(0)
    assert result.ok
    node = sim.nodes[1]
    assert node.rounds[(0, 0, 0)].phase == engine.PHASE_DONE
    challenge = next(m for src, dst, m in sent if (src, dst) == (0, 1)
                     and isinstance(m, CHALLENGES))
    commit = next(m for src, _, m in sent if src == 1 and isinstance(m, COMMITS))
    [answer] = [e.msg for e in node.handle_message(challenge, 1.0)]
    assert isinstance(answer, Response)
    caplog.clear()
    for msg in (challenge, commit):
        assert node.handle_message(_in_other_form(msg), 1.0) == []
        assert (f"dropping {type(_in_other_form(msg)).__name__} from {msg.sender}: "
                "it has the other mode's form") in caplog.text


def test_restart_round_builds_no_commit_tree(monkeypatch):
    """A restart round hashes no commit leaf and folds no tree hash; a
    no-restart round, the control, does both."""
    calls = {"commit_leaf_digest": 0, "digest_root": 0}
    for module in (engine, multisig, merkle):
        for name in calls:
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, _real=real, _name=name):
                    calls[_name] += 1
                    return _real(*args)
                monkeypatch.setattr(module, name, counted)
    for mode in (MODE_RESTART, MODE_NO_RESTART):
        for name in calls:
            calls[name] = 0
        out = simnet.run_sim_detailed(SimConfig(seed=5, n=40, branching=3, mode=mode))
        assert out.results[0].ok
        if mode == MODE_RESTART:
            assert calls == {"commit_leaf_digest": 0, "digest_root": 0}
        else:
            assert calls["commit_leaf_digest"] >= 40 and calls["digest_root"] > 0


# -- view changes -------------------------------------------------------------------

def test_view_change_threshold_formula():
    assert view_change_threshold(4) == 3  # 2f+1 of 3f+1 with f=1
    assert view_change_threshold(7) == 5
    assert view_change_threshold(10) == 7


def test_view_change_votes_activate():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(11)
    node = make_node(1, roster, secrets)  # leads view 1
    due = engine.RoundConfig(round_number=5, branching=3)
    assert node.round_due(due, b"due", 0.0) == [
        engine.SetTimer(("progress", 0, 5), 2.0)]
    votes = []
    for signer in (2, 3):
        kp = KeyPair.from_secret(TOY, secrets[signer])
        sig = schnorr_sign(kp, view_vote_statement(roster, 1), rng)
        votes.append(ViewChange(proposed_view=1, signer=signer, signature=sig))
    assert all(isinstance(e, Send) for e in node.on_timer(("progress", 0, 5), 2.0))
    assert node.handle_message(votes[0], 2.1) == []
    assert node.current_view == 0  # two votes are below 2f+1 = 3
    effects = node.handle_message(votes[1], 2.1)
    assert node.current_view == 1
    # the round due starts at once, with view 0's leader, who did not vote,
    # counted as failed
    assert [(e.dest, e.msg.view, e.msg.round, e.msg.failed, e.msg.statement)
            for e in effects if isinstance(e, Send)] == [
        (d, 1, 5, frozenset({0}), b"due") for d in (2, 3)]


def test_deep_copied_node_drives_its_own_view():
    """A copied node's due round is its own: the copy activates view 1 and
    starts the round as its leader, and the original is left as it was."""
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(11)
    original = make_node(1, roster, secrets)  # leads view 1
    due = engine.RoundConfig(round_number=0, branching=3)
    original.round_due(due, b"due", 0.0)
    clone = copy.deepcopy(original)
    effects = []
    for signer in (0, 2, 3):
        kp = KeyPair.from_secret(TOY, secrets[signer])
        sig = schnorr_sign(kp, view_vote_statement(roster, 1), rng)
        effects = clone.handle_message(ViewChange(proposed_view=1, signer=signer,
                                                  signature=sig), 2.1)
    assert clone.current_view == 1 and list(clone.rounds) == [(1, 0, 0)]
    assert [(e.dest, e.msg.view, e.msg.round) for e in effects if isinstance(e, Send)] == [
        (0, 1, 0), (2, 1, 0), (3, 1, 0)]
    assert original.current_view == 0 and original.rounds == {}
    assert original._due == (due, b"due")


def test_copies_of_messages_and_of_a_node_mid_round():
    """Wire messages, round states and scalars are slotted frozen
    dataclasses, which some Python 3.10 releases could not copy. A copy of
    each wire message type equals the original, and node 1, copied as the
    leader's challenge reaches it, answers its round as node 1 did: it
    challenges its children, rejects liar 4 and sends up the same response."""
    sim = simnet.CosiSim(SimConfig(seed=31, n=13, branching=3, mode=MODE_NO_RESTART,
                                   failures=(FailureAction(4, "response", "lie"),)))
    group = sim.roster.group
    samples, to_node1, from_node1, clone = {}, [], [], None
    send, deliver = sim.send, sim._deliver

    def recording_send(src, dst, msg, when):
        samples.setdefault(type(msg), msg)
        if src == 1 and isinstance(msg, (Challenge, Response)):
            from_node1.append(msg)
        send(src, dst, msg, when)

    def copying_deliver(dst, msg):  # messages as they arrive, the liar's lie included
        nonlocal clone
        if dst == 1 and isinstance(msg, (Challenge, Response)):
            if clone is None:
                clone = copy.deepcopy(sim.nodes[1])
            to_node1.append(msg)
        deliver(dst, msg)

    sim.send, sim._deliver = recording_send, copying_deliver
    _, result = sim.run_round(0)
    assert result.ok and [e.index for e in result.signature.exceptions] == [4]
    vote = schnorr_sign(KeyPair.from_secret(group, 5), b"vote", random.Random(1))
    samples.update({
        Refuse: Refuse(view=0, round=0, attempt=0, sender=2, reason=engine.REFUSE_STALE),
        ViewChange: ViewChange(proposed_view=1, signer=2, signature=vote),
        StampRequest: StampRequest(digest=bytes(32)),
        StampReply: StampReply(ok=True, payload=b"receipt"),
        RestartCommit: _routed_messages(2)[RestartCommit],
        RestartChallenge: _routed_messages(2)[RestartChallenge],
    })
    assert set(samples) == set(wire._MESSAGE_TYPES.values())
    assert set(get_args(engine.Message)) == set(samples) - {StampRequest, StampReply}
    assert any(m.exceptions for m in from_node1 if isinstance(m, Response))
    for msg in samples.values():
        assert copy.copy(msg) == msg
        assert copy.deepcopy(msg) == msg
        assert encode_message(copy.deepcopy(msg), group) == encode_message(msg, group)
        # a copied group is the group, so sizing a copy adds no layout cache entry
        size, split = frame_size(msg, group), len(type(msg).layout._split)
        assert frame_size(copy.deepcopy(msg), copy.deepcopy(group)) == size
        assert len(type(msg).layout._split) == split

    effects = []
    for msg in to_node1:
        effects += clone.handle_message(msg, 0.0)
    assert [encode_message(e.msg, group) for e in effects if isinstance(e, Send)] == [
        encode_message(m, group) for m in from_node1]
    # two steps in node 1's four-input tree, two in the leader's
    assert [m.proof.step_count for m in from_node1 if isinstance(m, Challenge)] == [4, 4, 4]


def test_deep_copied_node_keeps_its_subtree_keys_rows(monkeypatch):
    """A node copied after two prod rounds keeps the rows its subtree keys
    built in the second, so the copy's next round begins no row from a key:
    it calls `_doubled` on none of them."""
    sim = simnet.CosiSim(SimConfig(seed=5, n=13, branching=3, group_name="prod"))
    for rnd in range(2):
        assert sim.run_round(rnd)[1].ok
    parents = [i for i, node in enumerate(sim.nodes) if node.subtree_keys]
    assert parents
    for i in parents:
        sim.nodes[i] = copy.deepcopy(sim.nodes[i])
    keys = [key for i in parents for key in sim.nodes[i].subtree_keys.values()]
    assert all(len(key._pre) == 3 for key in keys)
    # Every key exists before the counting starts, so no point counted
    # below shares an id with one.
    doubled = collections.Counter()
    real = Ed25519Group._doubled
    monkeypatch.setattr(Ed25519Group, "_doubled",
                        lambda self, p, n: doubled.update([id(p)]) or real(self, p, n))
    assert sim.run_round(2)[1].ok
    assert doubled and not any(doubled[id(key.raw)] for key in keys)


def test_whole_subtree_participation_holds_the_shared_empty_set(round_states):
    """A node whose whole subtree took part holds the one shared empty set as
    its commit-phase absences; one that lost a child holds its own set."""
    sim = simnet.CosiSim(SimConfig(seed=3, n=13, branching=3,
                                   failures=(FailureAction(4, "commit", "crash"),)))
    _, result = sim.run_round(0)
    assert result.ok and result.attempts == 2
    states = [(i, st) for i, st in round_states(sim) if i != 4]
    assert sorted(i for i, _ in states) == sorted(list(set(range(13)) - {4}) * 2)
    for i, st in states:
        subtree = st.topology.descendants(i)
        assert (st.absent is engine._NOBODY) == (4 not in subtree)
        assert st.absent == subtree & {4}
        assert st.summary.absent is st.absent
        kept = sim.nodes[i].rounds[st.key]
        if st.key[2] == 1:
            assert kept.summary is st.summary
        elif i == 0:  # the leader's superseded attempt
            assert isinstance(kept, engine._RoundState)
        else:  # superseded with its commit out: finished, refused as stale
            assert kept.phase == engine.PHASE_REFUSED
            assert kept.answer.reason == engine.REFUSE_STALE


def test_own_summary_equals_the_record_its_parent_keeps(round_states):
    """A no-restart node's own summary is the record its parent (or the node
    that bridged to it) keeps for it, past a dark interior node and an
    interior liar."""
    sim = simnet.CosiSim(SimConfig(seed=3, n=13, branching=3, mode=MODE_NO_RESTART,
                                   failures=(FailureAction(1, "announce", "crash"),
                                             FailureAction(2, "response", "lie"))))
    _, result = sim.run_round(0)
    assert result.ok and result.failed == {1, 2}
    states = {(i, st.key): st for i, st in round_states(sim)}
    checked = set()
    for (i, key), st in states.items():
        if st.parent is not None:
            assert states[(st.parent, key)].records[i] == st.summary
            checked.add(i)
    assert checked == set(range(13)) - {0, 1}
    assert states[(0, (0, 0, 0))].records.keys() == {2, 3, 4, 5, 6}
    assert engine._NO_SUMMARIES == {}  # the leaves' shared table, never written


def test_restart_parent_sends_its_children_one_challenge(round_states):
    """In restart mode a parent sends every child one challenge object: the
    one it answered, with itself as sender."""
    sim = simnet.CosiSim(SimConfig(seed=3, n=13, branching=3,
                                   statement_timing=engine.STATEMENT_AT_CHALLENGE))
    sent = {}
    send = sim.send

    def record(src, dst, msg, when):
        if isinstance(msg, RestartChallenge):
            sent.setdefault(src, []).append(msg)
        send(src, dst, msg, when)

    sim.send = record
    _, result = sim.run_round(0)
    assert result.ok and sent.keys() == {0, 1, 2, 3}
    states = dict(round_states(sim))
    for src, msgs in sent.items():
        st = states[src]
        assert len(msgs) == 3 and all(m is msgs[0] for m in msgs)
        assert msgs[0] == replace(st.challenged, sender=src)
        assert msgs[0].statement == b"cosi-round-0"
        if src != 0:
            assert st.challenged is sent[0][0]


# What a finished session answers, as SHA-256 over every reply below; the
# digests were taken before finished sessions were cut down to `_Finished`,
# and retaken when commit-tree nodes became binary digest trees and the leader
# stopped answering an echo of its own announce, and when restart commits took
# their own form (the earlier replies, each restart commit re-encoded in that
# form, hash to the restart digests).
FINISHED_REPLIES = {
    (MODE_RESTART, engine.STATEMENT_AT_ANNOUNCE):
        "b4259dc8210a65c8c29c95731dd040b79c379ab06daa8fb8f0bb0d27b07e38f1",
    (MODE_RESTART, engine.STATEMENT_AT_CHALLENGE):
        "89e0e2818773b2f729640fcf7a78f8757a4967f0370717b6cac8baaae878ef4d",
    (MODE_NO_RESTART, engine.STATEMENT_AT_ANNOUNCE):
        "8b12aacec7414505d59df6aa6f040acbf7235487396f7e4bdaeb269b8c9225cc",
    (MODE_NO_RESTART, engine.STATEMENT_AT_CHALLENGE):
        "b2c11dbfb031a4d8bf1bf33a838750e93b332323b78655f0dfb9bb39b2297e8f",
}


@pytest.mark.parametrize("timing", [engine.STATEMENT_AT_ANNOUNCE,
                                    engine.STATEMENT_AT_CHALLENGE])
@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_finished_session_answers_late_frames_as_it_did(mode, timing):
    """A node that finished a session, done or refused, answers a repeated
    announce, a repeated challenge and a conflicting challenge for it: a done
    one with the commit it sent, carrying its final failed and refused sets,
    the response it sent, and `REFUSE_STALE`; a refused one with its refusal,
    and nothing. Leaf 5 refuses every statement and leaf 7 lies, so the
    restart rounds take three or two attempts. A witness whose commit for an
    attempt is out when the next attempt's announce reaches it refuses the
    superseded one as stale without a word: it answers a re-announce with
    `REFUSE_STALE` and a challenge with nothing, as it did before such a
    session was finished. The replies' bytes are pinned, those to superseded
    sessions left out, as the pins were taken while such a session stayed
    unfinished."""
    sim = simnet.CosiSim(SimConfig(seed=6, n=13, branching=3, mode=mode,
                                   statement_timing=timing,
                                   failures=(FailureAction(7, "response", "lie"),)))
    sim.nodes[5].hook = lambda statement, now: False
    sent = []
    send = sim.send

    def record(src, dst, msg, when):
        sent.append((src, dst, msg))
        send(src, dst, msg, when)

    sim.send = record
    _, result = sim.run_round(0)
    assert result.ok and result.failed == {7} and result.refused == {5}
    if mode == MODE_NO_RESTART:
        assert result.attempts == 1
    else:  # a refusal at announce restarts before the liar is found
        assert result.attempts == (3 if timing == engine.STATEMENT_AT_ANNOUNCE else 2)
    replies, phases, superseded = [], [], 0
    for node in sim.nodes:
        for key, st in sorted(node.rounds.items()):
            if st.phase not in (engine.PHASE_DONE, engine.PHASE_REFUSED):
                continue
            phases.append(st.phase)
            of_key = [(src, dst, m) for src, dst, m in sent
                      if (m.view, m.round, m.attempt) == key]
            ann = next(m for src, dst, m in of_key if isinstance(m, Announce)
                       and node.index in (src, dst))
            ups = [m for src, _, m in of_key if src == node.index
                   and isinstance(m, (*COMMITS, Response, Refuse))]
            challenges = [m for src, dst, m in of_key if isinstance(m, CHALLENGES)
                          and node.index in (src, dst)]
            log = list(node.nonce_log)
            effects = node.handle_message(ann, 1.0)
            refusal = next((m for m in ups if isinstance(m, Refuse)), None)
            stale = st.phase == engine.PHASE_REFUSED and refusal is None
            if stale:
                assert isinstance(ups[-1], COMMITS) and key[2] < result.attempts - 1
                refusal = Refuse(view=key[0], round=key[1], attempt=key[2],
                                 sender=node.index, reason=engine.REFUSE_STALE)
            if st.phase == engine.PHASE_REFUSED:
                assert effects == [Send(ann.sender, refusal)]
            elif node.index == 0:  # an echo of the leader's own announce
                assert effects == []
            else:
                [(dest, reply)] = [(e.dest, e.msg) for e in effects]
                assert dest == ann.sender and isinstance(reply, COMMITS)
                commit = [m for m in ups if isinstance(m, COMMITS)][-1]
                answer = [m for m in ups if isinstance(m, Response)][-1]
                assert reply == replace(commit, failed=answer.failed, refused=answer.refused)
            if challenges:
                ch = challenges[0]
                again = node.handle_message(ch, 1.0)
                conflicting = node.handle_message(
                    replace(ch, challenge=ch.challenge + TOY.scalar(1)), 1.0)
                if st.phase == engine.PHASE_REFUSED:
                    assert again == conflicting == []
                else:
                    answer = [m for m in ups if isinstance(m, Response)]
                    assert again == [Send(ch.sender, m) for m in answer[-1:]]
                    assert conflicting == [Send(ch.sender, Refuse(
                        view=key[0], round=key[1], attempt=key[2], sender=node.index,
                        reason=engine.REFUSE_STALE))]
                effects += again + conflicting
            assert node.nonce_log == log
            if stale:
                superseded += 1
                continue
            replies += [node.index.to_bytes(4, "big") + e.dest.to_bytes(4, "big")
                        + encode_message(e.msg, TOY) for e in effects]
    # only a refusal at announce restarts an attempt from its commit phase
    assert (superseded > 0) == (mode == MODE_RESTART and timing == engine.STATEMENT_AT_ANNOUNCE)
    assert engine.PHASE_DONE in phases and engine.PHASE_REFUSED in phases
    assert hashlib.sha256(b"".join(replies)).hexdigest() == FINISHED_REPLIES[(mode, timing)]


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
def test_leader_ignores_an_echo_of_its_own_announce(mode):
    """Node 2 sends the announce it forwards back to the leader, once, while
    the round runs and again after it: the leader adopts no parent for its
    own session, so it still builds the challenge and the round signs, and
    its finished session answers the late echo with nothing."""
    sim = simnet.CosiSim(SimConfig(seed=4, n=7, branching=2, mode=mode))
    send, echoes = sim.send, []

    def echoing_send(src, dst, msg, when):
        send(src, dst, msg, when)
        if src == 2 and isinstance(msg, Announce) and not echoes:
            echoes.append(msg)
            send(2, 0, msg, when)

    sim.send = echoing_send
    _, result = sim.run_round(0)
    assert echoes and result is not None and result.ok and result.attempts == 1
    assert multisig.verify_collective(sim.roster, result.statement, result.signature,
                                      Threshold(7)).ok
    leader = sim.nodes[0]
    assert leader.rounds[(0, 0, 0)].parent is None
    assert leader.handle_message(echoes[0], 5.0) == []


def test_nodes_of_a_session_share_its_key_and_config(round_states):
    """The witnesses of a session hold one key tuple and one `RoundConfig`
    for it, derived from its announce, and a finished session's record is
    filed under that key."""
    sim = simnet.CosiSim(SimConfig(seed=5, n=64, branching=4))
    for r in range(2):
        assert sim.run_round(r)[1].ok
    witnesses = [st for i, st in round_states(sim) if i != 0]
    for r in range(2):
        of_round = [st for st in witnesses if st.key[1] == r]
        assert len(of_round) == 63
        assert len({id(st.key) for st in of_round}) == 1
        assert len({id(st.config) for st in of_round}) == 1
        assert of_round[0].config.round_number == r
        for node in sim.nodes[1:]:
            [(key, done)] = [(k, d) for k, d in node.rounds.items() if k[1] == r]
            assert isinstance(done, engine._Finished)
            assert key is done.key is of_round[0].key

def test_progress_timer_votes_only_without_round_state():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    due = engine.RoundConfig(round_number=0, branching=3)
    stalled, served = make_node(3, roster, secrets), make_node(3, roster, secrets)
    for node in (stalled, served):
        assert node.round_due(due, b"s", 0.0) == [
            engine.SetTimer(("progress", 0, 0), 2.0)]
    served.handle_message(announce_for(roster, branching=3), 0.5)
    assert served.on_timer(("progress", 0, 0), 2.0) == []
    assert served.current_view == 0 and served.view_votes == {}
    effects = stalled.on_timer(("progress", 0, 0), 2.0)
    assert [(e.dest, e.msg.proposed_view, e.msg.signer) for e in effects] == [
        (0, 1, 3), (1, 1, 3), (2, 1, 3)]
    assert list(stalled.view_votes[1]) == [3]
    stalled.current_view = 1  # a timer from a superseded view never votes
    assert stalled.on_timer(("progress", 0, 0), 3.0) == []


def test_leader_of_a_wrapped_view_keeps_itself_out_of_its_failed_set():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(16)
    node = make_node(1, roster, secrets)
    node.current_view = 4  # views 0-3 were led by 0, 1, 2 and 3; view 4 by 0
    node.round_due(engine.RoundConfig(round_number=0, branching=3), b"s", 0.0)
    node.on_timer(("progress", 4, 0), 2.0)  # its own vote for view 5
    effects = []
    for signer in (0, 2):  # two deposed leaders that are alive, since they vote
        kp = KeyPair.from_secret(TOY, secrets[signer])
        sig = schnorr_sign(kp, view_vote_statement(roster, 5), rng)
        effects = node.handle_message(ViewChange(proposed_view=5, signer=signer,
                                                 signature=sig), 2.1)
    assert node.current_view == 5 and node.is_leader()
    # only view 3's silent leader is left out, and never node 1 itself
    assert [(e.dest, e.msg.view, e.msg.failed) for e in effects
            if isinstance(e, Send)] == [(0, 5, frozenset({3})), (2, 5, frozenset({3}))]


def test_progress_timer_waits_out_the_leaders_recovery():
    """Behind dead interior nodes a witness hears of the round only once the
    leader routes around them, so its timer outlasts that: N=16, B=3 is a
    tree of height 3 with a 0.8 s budget per level."""
    node = simnet.CosiSim(SimConfig(n=16, branching=3, scheme="cosi")).nodes[5]
    waits = [node.round_due(engine.RoundConfig(round_number=0, branching=3, mode=mode,
                                               max_restarts=restarts), b"s", 0.0)[0].delay
             for mode, restarts in ((MODE_RESTART, 2), (MODE_RESTART, 0),
                                    (MODE_NO_RESTART, 2))]
    # two restarts of 4 levels' budget; none; the root's and two nested
    # bridgings' budgets; each with a hop per level
    assert waits == pytest.approx([2 * 3.2 + 0.6, 2.0, 4.0 + 0.6])


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART])
@pytest.mark.parametrize("n, branching, dark", [
    (16, 3, (1, 2, 3)),  # 12 of 16 cut off, more than the 2f+1 = 11 that change view
    (15, 2, (1, 3)),  # 3 under 1: two restarts, or two nested bridgings
])
def test_dark_interior_nodes_leave_the_view_alone(monkeypatch, mode, n, branching, dark):
    """Witnesses behind dark interior nodes are cut off from a live leader
    until it routes around them; they wait for that and do not vote."""
    cfg = SimConfig(seed=32, n=n, branching=branching, scheme="cosi", rounds=3, mode=mode,
                    view_change=True,
                    failures=tuple(FailureAction(i, "announce", "crash") for i in dark))
    out, sent = _messages_sent(monkeypatch, cfg)
    assert [(r.ok, r.view) for r in out.results] == [(True, 0)] * 3
    assert not any(isinstance(msg, ViewChange) for msg in sent)
    plain = simnet.run_sim(replace(cfg, view_change=False))
    assert [(m.latency, m.total_msgs, m.total_bytes_sent) for m in out.metrics] == [
        (m.latency, m.total_msgs, m.total_bytes_sent) for m in plain]


def test_dead_leader_of_the_next_view_is_replaced_in_the_same_round():
    """Nodes 0 and 1 lead views 0 and 1 and are both dark: a node that
    activates view 1 waits for its round afresh and votes again, so round 0
    signs in view 2."""
    cfg = SimConfig(seed=5, n=7, branching=2, scheme="cosi", rounds=2, view_change=True,
                    failures=(FailureAction(0, "announce", "crash"),
                              FailureAction(1, "announce", "crash")))
    out = simnet.run_sim_detailed(cfg)
    assert [(r.ok, r.view, r.attempts, r.failed) for r in out.results] == [
        (True, 2, 1, frozenset({0, 1}))] * 2


def _messages_sent(monkeypatch, cfg):
    sent = []
    transmit = simnet.VirtualNet.transmit

    def recording(net, src, dst, size, depart, deliver, *args):
        sent.append(args[-1])
        transmit(net, src, dst, size, depart, deliver, *args)

    monkeypatch.setattr(simnet.VirtualNet, "transmit", recording)
    return simnet.run_sim_detailed(cfg), sent


def test_live_leader_keeps_view_zero_with_view_change_on(monkeypatch):
    cfg = SimConfig(seed=31, n=16, branching=3, scheme="cosi", rounds=3, view_change=True)
    out, sent = _messages_sent(monkeypatch, cfg)
    assert [(r.ok, r.view, r.attempts) for r in out.results] == [(True, 0, 1)] * 3
    assert all(n.current_view == 0 for n in out.nodes)
    assert not any(isinstance(msg, ViewChange) for msg in sent)
    plain = simnet.run_sim(replace(cfg, view_change=False))
    assert [(m.latency, m.total_msgs, m.total_bytes_sent) for m in out.metrics] == [
        (m.latency, m.total_msgs, m.total_bytes_sent) for m in plain]


def test_crashed_leader_replaced_once_for_later_rounds(monkeypatch):
    cfg = SimConfig(seed=7, n=64, branching=4, scheme="cosi", rounds=3, view_change=True,
                    failures=(FailureAction(0, "announce", "crash"),))
    out, sent = _messages_sent(monkeypatch, cfg)
    assert [(r.ok, r.view, r.attempts) for r in out.results] == [(True, 1, 1)] * 3
    assert all(r.failed == frozenset({0}) for r in out.results)
    votes = [msg for msg in sent if isinstance(msg, ViewChange)]
    assert {v.proposed_view for v in votes} == {1} and len(votes) == 63 * 63  # dead 0 too
    # rounds 2 and 3 run in view 1 from the start: no timeout, no restart
    assert [m.total_msgs for m in out.metrics[1:]] == [248, 248]


def test_activation_drops_vote_tables_up_to_the_new_view():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(15)
    node = make_node(3, roster, secrets)

    def vote(view, signer):
        kp = KeyPair.from_secret(TOY, secrets[signer])
        sig = schnorr_sign(kp, view_vote_statement(roster, view), rng)
        return node.handle_message(ViewChange(proposed_view=view, signer=signer,
                                              signature=sig), 0.0)

    for view, signer in ((1, 0), (2, 0), (3, 0), (2, 1), (1, 1)):
        assert vote(view, signer) == []
    assert vote(2, 2) == []  # no round is due at node 3, so nothing starts
    assert node.current_view == 2
    assert sorted(node.view_votes) == [3]
    assert vote(1, 2) == []  # at or below the current view: rejected on arrival
    assert sorted(node.view_votes) == [3]


def test_invalid_vote_signature_ignored():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    node = make_node(0, roster, secrets)
    bogus = ViewChange(proposed_view=1, signer=2,
                       signature=Signature(TOY.generator, TOY.scalar(2)))
    assert node.handle_message(bogus, 0.0) == []
    assert node.view_votes.get(1) is None


def test_duplicate_votes_counted_once():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(12)
    node = make_node(0, roster, secrets)
    kp = KeyPair.from_secret(TOY, secrets[1])
    sig = schnorr_sign(kp, view_vote_statement(roster, 1), rng)
    vote = ViewChange(proposed_view=1, signer=1, signature=sig)
    node.handle_message(vote, 0.0)
    node.handle_message(vote, 0.0)
    assert len(node.view_votes[1]) == 1


def test_higher_view_wins():
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    rng = random.Random(13)
    node = make_node(3, roster, secrets)
    for view in (1, 2):
        for signer in (0, 1, 2):
            kp = KeyPair.from_secret(TOY, secrets[signer])
            sig = schnorr_sign(kp, view_vote_statement(roster, view), rng)
            node.handle_message(ViewChange(proposed_view=view, signer=signer,
                                           signature=sig), 0.0)
    assert node.current_view == 2
    assert view_leader(roster, node.current_view) == 2


def test_view_safety_exhaustive_n4():
    # with f=1 byzantine (may vote both views), two views cannot both reach
    # the 2f+1 threshold in one epoch: enumerate every vote assignment
    threshold = view_change_threshold(4)
    for byzantine in range(4):
        honest = [i for i in range(4) if i != byzantine]
        for choices in itertools.product((None, "a", "b"), repeat=3):
            votes_a = {byzantine} | {h for h, c in zip(honest, choices) if c == "a"}
            votes_b = {byzantine} | {h for h, c in zip(honest, choices) if c == "b"}
            assert not (len(votes_a) >= threshold and len(votes_b) >= threshold)


def test_scripted_view_change_round():
    cfg = SimConfig(seed=14, n=4, branching=3, scheme="cosi", view_change=True,
                    failures=(FailureAction(0, "announce", "crash"),))
    out = simnet.run_sim_detailed(cfg)
    result = out.results[0]
    assert result.ok and result.view == 1
    assert len(result.signature.participation.response_present) == 3
    assert multisig.verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(3)).ok


# -- message codec -------------------------------------------------------------------

def test_message_codec_roundtrips():
    roster = make_toy_roster([3, 4, 5])
    topo = tree_for(3, 2, 0)
    elem = KeyPair.from_secret(TOY, 7).public
    msgs = [
        announce_for(roster, statement=None),
        announce_for(roster, statement=b"with statement"),
        Commit(view=1, round=2, attempt=1, sender=4, aggregate=elem, commit=elem,
               tree_hash=b"\x01" * 32, absent=frozenset({5}), failed=frozenset(),
               refused=frozenset({9}),
               summaries=(engine.SubtreeSummary(
                   index=5, commit=elem, aggregate=elem, tree_hash=b"\x02" * 32,
                   absent=frozenset({8})),)),
        Challenge(view=0, round=1, attempt=0, sender=2, challenge=TOY.scalar(6),
                  aggregate_commit=elem, commit_root=b"\x04" * 32,
                  statement=b"late",
                  proof=audit_path((1, b"\x05" * 32))),
        RestartCommit(view=1, round=2, attempt=1, sender=4, aggregate=elem,
                      absent=frozenset({5}), failed=frozenset(), refused=frozenset({9})),
        RestartChallenge(view=0, round=1, attempt=0, sender=2, challenge=TOY.scalar(6),
                         aggregate_commit=elem, statement=b"late"),
        Response(view=0, round=1, attempt=2, sender=3,
                 aggregate_response=TOY.scalar(9), absent=frozenset({4}),
                 failed=frozenset({4}), refused=frozenset(),
                 exceptions=(CommitException(
                     4, elem, audit_path((0, b"\x06" * 32))),)),
        Refuse(view=0, round=0, attempt=0, sender=1, reason=engine.REFUSE_STATEMENT),
        ViewChange(proposed_view=3, signer=2,
                   signature=Signature(TOY.generator, TOY.scalar(2))),
        StampRequest(digest=b"\x06" * 32),
        StampReply(ok=True, payload=b"receipt bytes"),
    ]
    for msg in msgs:
        frame = encode_message(msg, TOY)
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        assert frame_size(msg, TOY) == len(frame)
        back = decode_frame_body(frame[4:], TOY, 16)
        assert back == msg


def test_frame_bytes_pinned():
    """Challenge and Response frames, and the restart commit and challenge
    forms, keep their byte layout."""
    e3 = KeyPair.from_secret(TOY, 3).public
    e5 = KeyPair.from_secret(TOY, 5).public

    def d(b):
        return bytes([b]) * 32

    challenge = Challenge(view=1, round=7, attempt=1, sender=2, challenge=TOY.scalar(6),
                          aggregate_commit=e3, commit_root=d(4), statement=None,
                          proof=audit_path((1, d(5)), (0, d(6)), (1, d(7))))
    response = Response(
        view=1, round=7, attempt=1, sender=3, aggregate_response=TOY.scalar(9),
        absent=frozenset({3, 5}), failed=frozenset({5}), refused=frozenset(),
        exceptions=(CommitException(3, e3, audit_path((0, d(8)), (1, d(9)), (0, d(10)))),
                    CommitException(5, e5, audit_path((1, d(11))))))
    # recorded bytes: a change here is a wire-format change. The challenge's
    # commit root is a plain digest, 5 bytes shorter than the flag and length
    # that once came before it.
    pinned = {
        challenge: ("0000009903000000010000000700010000000206000800040404040404040404"
                    "0404040404040404040404040404040404040404040404000003010505050505"
                    "0505050505050505050505050505050505050505050505050505050006060606"
                    "0606060606060606060606060606060606060606060606060606060601070707"
                    "0707070707070707070707070707070707070707070707070707070707"),
        response: ("000000b904000000010000000700010000000309000002000000030000000500"
                   "0100000005000000020000000308000003000808080808080808080808080808"
                   "0808080808080808080808080808080808080109090909090909090909090909"
                   "09090909090909090909090909090909090909000a0a0a0a0a0a0a0a0a0a0a0a"
                   "0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0000000509000001010b0b0b"
                   "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"),
        # tag 9 | header | aggregate | absent {3, 5} | failed {5} | refused {}
        RestartCommit(view=1, round=7, attempt=1, sender=3, aggregate=e3,
                      absent=frozenset({3, 5}), failed=frozenset({5}), refused=frozenset()):
            "0000002309000000010000000700010000000308000002000000030000000500010000000500"
            "00",
        # tag 10 | header | challenge | aggregate commit | statement b"late"
        RestartChallenge(view=1, round=7, attempt=1, sender=2, challenge=TOY.scalar(6),
                         aggregate_commit=e3, statement=b"late"):
            "0000001c0a00000001000000070001000000020600080001000000046c617465",
    }
    for msg, frame_hex in pinned.items():
        frame = encode_message(msg, TOY)
        assert frame.hex() == frame_hex
        assert frame_size(msg, TOY) == len(frame)
        assert decode_frame_body(frame[4:], TOY, 16) == msg


_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)
_DIGEST = st.binary(min_size=32, max_size=32)
_WITNESSES = 64  # the roster size that drawn frames are decoded against
_INDEX = st.integers(0, _WITNESSES - 1)
_INDEX_SET = st.frozensets(_INDEX, max_size=6)
_OPT_BYTES = st.none() | st.binary(max_size=48)
_PROOF = st.lists(st.tuples(st.integers(0, 1), _DIGEST), max_size=6).map(
    lambda steps: audit_path(*steps))


def _message_strategies(group):
    """One strategy per wire message type and per record type, over `group`'s
    elements and scalars."""
    elem = st.sampled_from([group.generator ** k for k in (1, 2, 5)])
    scalar = st.integers(0, group.order - 1).map(group.scalar)
    header = dict(view=_U32, round=_U32, attempt=_U16, sender=_INDEX)
    summary = st.builds(engine.SubtreeSummary, index=_INDEX, commit=elem, aggregate=elem,
                        tree_hash=_DIGEST, absent=_INDEX_SET)
    exception = st.builds(CommitException, _INDEX, elem, _PROOF)
    return {
        engine.SubtreeSummary: summary,
        CommitException: exception,
        Announce: st.builds(Announce, mode=st.integers(0, 255), timing=st.integers(0, 255),
                            branching=_U16, timeout_ms=_U32, topology_digest=_DIGEST,
                            failed=_INDEX_SET, statement=_OPT_BYTES, **header),
        Commit: st.builds(Commit, aggregate=elem, commit=elem, tree_hash=_DIGEST,
                          absent=_INDEX_SET, failed=_INDEX_SET, refused=_INDEX_SET,
                          summaries=st.lists(summary, max_size=3).map(tuple), **header),
        Challenge: st.builds(Challenge, challenge=scalar, aggregate_commit=elem,
                             commit_root=_DIGEST, statement=_OPT_BYTES,
                             proof=_PROOF, **header),
        RestartCommit: st.builds(RestartCommit, aggregate=elem, absent=_INDEX_SET,
                                 failed=_INDEX_SET, refused=_INDEX_SET, **header),
        RestartChallenge: st.builds(RestartChallenge, challenge=scalar, aggregate_commit=elem,
                                    statement=_OPT_BYTES, **header),
        Response: st.builds(Response, aggregate_response=scalar, absent=_INDEX_SET,
                            failed=_INDEX_SET, refused=_INDEX_SET,
                            exceptions=st.lists(exception, max_size=3).map(tuple), **header),
        Refuse: st.builds(Refuse, reason=st.integers(0, 255), **header),
        ViewChange: st.builds(ViewChange, proposed_view=_U32, signer=_INDEX,
                              signature=st.builds(Signature, elem, scalar)),
        StampRequest: st.builds(StampRequest, digest=_DIGEST),
        StampReply: st.builds(StampReply, ok=st.booleans(), payload=st.binary(max_size=64)),
    }


_MESSAGES = {group.name: _message_strategies(group) for group in (TOY, ED25519)}


@pytest.mark.parametrize("group", [TOY, ED25519], ids=lambda g: g.name)
@pytest.mark.parametrize("cls", list(wire._MESSAGE_TYPES.values()), ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frame_size_matches_encoding(group, cls, data):
    """The simulator charges `frame_size`; it must be the encoded frame's
    length. The frame decodes back to the message."""
    msg = data.draw(_MESSAGES[group.name][cls])
    frame = encode_message(msg, group)
    assert frame_size(msg, group) == len(frame)
    assert decode_frame_body(frame[4:], group, _WITNESSES) == msg


@pytest.mark.parametrize("cls", list(wire._MESSAGE_TYPES.values()), ids=lambda c: c.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_strict_prefix_of_a_frame_rejected(cls, data):
    """A drawn toy frame of each message class decodes, and every strict
    prefix of it, and it with one byte appended, is a DecodeError."""
    body = encode_message(data.draw(_MESSAGES["toy"][cls]), TOY)[4:]
    assert_cuts_rejected(lambda d: decode_frame_body(d, TOY, _WITNESSES), body)


@pytest.mark.parametrize("cls", [engine.SubtreeSummary, CommitException],
                         ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_record_layout_round_trips_on_its_own(cls, data):
    """A record's layout writes `size` bytes, which read back to the record
    and nothing else: every cut and an appended byte are rejected."""
    rec = data.draw(_MESSAGES["toy"][cls])
    raw = cls.layout.encode(rec)
    assert cls.layout.size((rec,), TOY) == len(raw)

    def decode(d):
        r = Reader(d, _WITNESSES)
        out = cls.layout.decode(r, TOY)
        r.done()
        return out

    assert decode(raw) == rec
    assert_cuts_rejected(decode, raw)


def test_wire_imports_only_group_and_merkle():
    """The frame layer sits below the signature layer: `multisig` imports the
    commit-exception record from `wire`, never the other way round."""
    tree = ast.parse(Path(wire.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("cosikit"):
            imported.add(node.module.partition(".")[2] or "cosikit")
        elif isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[2] or "cosikit" for alias in node.names
                         if alias.name.split(".")[0] == "cosikit"}
    assert imported == {"group", "merkle"}


def test_each_layout_names_its_fields_in_order():
    """Every message and record class states each field's kind on the field,
    so its layout is its fields in declaration order."""
    for cls in [*wire._MESSAGE_TYPES.values(), wire.SubtreeSummary, CommitException]:
        assert [name for name, _ in cls.layout.fields] == [f.name for f in fields(cls)], cls


def test_mutated_pinned_frames_decode_only_to_themselves():
    """Each byte of the frames that `test_frame_bytes_pinned` pins, set to
    each small value and each one-bit flip: a frame that still decodes
    re-encodes to its own bytes."""
    e3 = KeyPair.from_secret(TOY, 3).public
    e5 = KeyPair.from_secret(TOY, 5).public

    def d(b):
        return bytes([b]) * 32

    challenge = Challenge(view=1, round=7, attempt=1, sender=2, challenge=TOY.scalar(6),
                          aggregate_commit=e3, commit_root=d(4), statement=None,
                          proof=audit_path((1, d(5)), (0, d(6)), (1, d(7))))
    response = Response(
        view=1, round=7, attempt=1, sender=3, aggregate_response=TOY.scalar(9),
        absent=frozenset({3, 5}), failed=frozenset({5}), refused=frozenset(),
        exceptions=(CommitException(3, e3, audit_path((0, d(8)), (1, d(9)), (0, d(10)))),
                    CommitException(5, e5, audit_path((1, d(11))))))
    accepted = 0
    for msg in (challenge, response):
        body = encode_message(msg, TOY)[4:]
        for at in range(len(body)):
            for value in {*range(17), 255, *(body[at] ^ 1 << k for k in range(8))}:
                if value == body[at]:
                    continue
                mutated = _set_byte(body, at, value)
                try:
                    back = decode_frame_body(mutated, TOY, 16)
                except DecodeError:
                    continue
                accepted += 1
                assert encode_message(back, TOY)[4:] == mutated, (msg.tag, at, value)
    assert accepted > 0


def test_codec_rejects_garbage():
    with pytest.raises(ValueError):
        decode_frame_body(b"", TOY, 16)
    with pytest.raises(ValueError):
        decode_frame_body(b"\xff\x00\x01", TOY, 16)
    good = encode_message(StampRequest(digest=b"\x00" * 32), TOY)
    with pytest.raises(ValueError):
        decode_frame_body(good[4:] + b"\x00", TOY, 16)


@pytest.mark.parametrize("field", ["commit", "aggregate", "summary-commit",
                                   "summary-aggregate", "exception"])
def test_frame_rejects_mixed_order_element(field, mixed_generator):
    """An Ed25519 element outside the prime-order subgroup fails the frame
    wherever it sits; the frame with G there decodes."""
    g, h = ED25519.generator, ED25519.generator ** 2

    def at(name):
        return g if field == name else h

    if field == "exception":
        proof = audit_path((0, b"\x08" * 32))
        msg = Response(view=0, round=1, attempt=0, sender=2,
                       aggregate_response=ED25519.scalar(9), absent=frozenset({3}),
                       failed=frozenset(), refused=frozenset(),
                       exceptions=(CommitException(3, g, proof),))
    else:
        summary = engine.SubtreeSummary(
            index=3, commit=at("summary-commit"), aggregate=at("summary-aggregate"),
            tree_hash=b"\x02" * 32, absent=frozenset())
        msg = Commit(view=0, round=1, attempt=0, sender=1, aggregate=at("aggregate"),
                     commit=at("commit"), tree_hash=b"\x01" * 32, absent=frozenset(),
                     failed=frozenset(), refused=frozenset(), summaries=(summary,))
    body = encode_message(msg, ED25519)[4:]
    assert decode_frame_body(body, ED25519, 7) == msg
    with pytest.raises(DecodeError, match="prime-order subgroup"):
        decode_frame_body(swap_generator(body, mixed_generator), ED25519, 7)


def test_every_cut_of_a_record_frame_rejected():
    elem = KeyPair.from_secret(TOY, 3).public
    proof = audit_path((1, b"\x04" * 32), (0, b"\x05" * 32), (1, b"\x06" * 32))
    response = Response(view=0, round=1, attempt=0, sender=2,
                        aggregate_response=TOY.scalar(9), absent=frozenset({3, 5}),
                        failed=frozenset({6}), refused=frozenset(),
                        exceptions=(CommitException(5, elem, proof),
                                    CommitException(3, elem, proof)))
    summary = engine.SubtreeSummary(
        index=3, commit=elem, aggregate=elem, tree_hash=b"\x02" * 32, absent=frozenset({6}))
    commit = Commit(view=0, round=1, attempt=0, sender=1, aggregate=elem, commit=elem,
                    tree_hash=b"\x01" * 32, absent=frozenset({6}), failed=frozenset(),
                    refused=frozenset(), summaries=(summary, replace(summary, index=5)))
    for msg in (response, commit):
        body = encode_message(msg, TOY)[4:]
        assert decode_frame_body(body, TOY, 7) == msg
        assert_cuts_rejected(lambda d: decode_frame_body(d, TOY, 7), body)


@pytest.mark.parametrize("kind", ["response", "commit"])
@pytest.mark.parametrize("patch", ["count", "out_of_range"])
def test_frame_records_checked_before_any_element_decode(monkeypatch, kind, patch):
    elem = KeyPair.from_secret(TOY, 3).public
    if kind == "response":
        proof = audit_path((0, b"\x08" * 32))
        msg = Response(view=0, round=1, attempt=0, sender=2,
                       aggregate_response=TOY.scalar(9), absent=frozenset({3, 5}),
                       failed=frozenset(), refused=frozenset(),
                       # arrival order, not index order
                       exceptions=(CommitException(5, elem, proof),
                                   CommitException(3, elem, proof)))
        empty = replace(msg, exceptions=())
        last_len = 4 + TOY.element_size + len(proof.encode())
    else:
        summary = engine.SubtreeSummary(
            index=3, commit=elem, aggregate=elem, tree_hash=b"\x02" * 32,
            absent=frozenset())
        msg = Commit(view=0, round=1, attempt=0, sender=1, aggregate=elem, commit=elem,
                     tree_hash=b"\x01" * 32, absent=frozenset(), failed=frozenset(),
                     refused=frozenset(), summaries=(summary, replace(summary, index=5)))
        empty = replace(msg, summaries=())
        last_len = len(engine.SubtreeSummary.layout.encode(summary))
    data = bytearray(encode_message(msg, TOY)[4:])
    count_at = len(encode_message(empty, TOY)) - 4 - 2  # the count ends the empty frame
    last_at = len(data) - last_len

    calls = []
    decode = type(TOY).decode_element

    def counted(self, raw):
        calls.append(raw)
        return decode(self, raw)

    monkeypatch.setattr(type(TOY), "decode_element", counted)
    assert decode_frame_body(encode_message(empty, TOY)[4:], TOY, 7) == empty
    header = len(calls)  # elements outside the records: none in a Response
    calls.clear()
    assert decode_frame_body(bytes(data), TOY, 7) == msg
    per_record = (len(calls) - header) // 2
    assert per_record > 0
    calls.clear()
    if patch == "count":
        data[count_at:count_at + 2] = (65535).to_bytes(2, "big")
        decoded = header  # no record is decoded
    else:
        data[last_at:last_at + 4] = (7).to_bytes(4, "big")
        decoded = header + per_record  # the bad record's elements are not
    with pytest.raises(ValueError):
        decode_frame_body(bytes(data), TOY, 7)
    assert len(calls) == decoded


# -- the commit tree, rebuilt apart from cosikit -------------------------------------

# The toy group (2 generating the order-11 subgroup of Z_23*, elements as two
# little-endian bytes) and the Merkle domain tags, copied from the protocol's
# documentation so that a fault in cosikit's own hashing cannot hide itself.
_TOY_P, _TOY_G = 23, 2
_TAG_LEAF, _TAG_NODE = b"cosi/merkle/leaf/v1", b"cosi/merkle/node/v1"


def _oracle_root(digests):
    """Binary Merkle root over digests; an odd level duplicates its last."""
    level = list(digests)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256(_TAG_NODE + level[i] + level[i + 1]).digest()
                 for i in range(0, len(level), 2)]
    return level[0]


def _oracle_fold(digest, proof_bytes):
    """The root an audit path's wire bytes lift `digest` to: a u16 step count,
    then per step a side byte (1: the sibling sits on the right) and a digest."""
    count = int.from_bytes(proof_bytes[:2], "big")
    assert len(proof_bytes) == 2 + 33 * count
    for k in range(count):
        side, sibling = proof_bytes[2 + 33 * k], proof_bytes[3 + 33 * k:35 + 33 * k]
        pair = digest + sibling if side == 1 else sibling + digest
        digest = hashlib.sha256(_TAG_NODE + pair).digest()
    return digest


def test_commit_root_matches_an_oracle_built_from_hashlib():
    """A no-restart toy round at N=13, B=3 whose interior node 1 lies: the
    signed commit root is the binary digest tree over each node's own commit
    leaf, then its children's tree hashes in index order, rebuilt from each
    node's nonce and the breadth-first tree; node 1's exception proof folds
    its commit up to that root."""
    n, b = 13, 3
    sim = simnet.CosiSim(SimConfig(seed=11, n=n, branching=b, mode=MODE_NO_RESTART,
                                   failures=(FailureAction(1, "response", "lie"),)))
    _, result = sim.run_round(0)
    sig = result.signature
    assert result.ok and [e.index for e in sig.exceptions] == [1]

    def leaf(i):
        [(*_, nonce, _)] = sim.nodes[i].nonce_log
        element = pow(_TOY_G, nonce, _TOY_P).to_bytes(2, "little")
        return hashlib.sha256(_TAG_LEAF + element).digest()

    def tree_hash(i):
        children = [c for c in range(n) if c and (c - 1) // b == i]
        return _oracle_root([leaf(i)] + [tree_hash(c) for c in children])

    assert sig.commit_root == tree_hash(0)
    [exc] = sig.exceptions
    assert hashlib.sha256(_TAG_LEAF + exc.commit.encode()).digest() == leaf(1)
    assert _oracle_fold(leaf(1), exc.proof.encode()) == sig.commit_root
    # its own four-input tree, then the leader's
    assert exc.proof.step_count == 4


def _exception_frames(sim):
    """Records every Response with exceptions that the simulator sends."""
    frames, send = [], sim.send

    def recording_send(src, dst, msg, when):
        if isinstance(msg, Response) and msg.exceptions:
            frames.append(msg)
        send(src, dst, msg, when)

    sim.send = recording_send
    return frames


@pytest.mark.parametrize("case", ["chain", "bridged-grandchild"])
def test_deepest_honest_proofs_decode(case):
    """A proof's step count is bounded by the roster size, and the deepest
    honest proofs stay within it: at branching 1 and N=64 the last node's
    exception climbs 63 one-step levels; node 5, a liar bridged past its lying
    parent 1, is proved within 1's tree and then the leader's. Every frame
    and the signature that carry them decode against the roster."""
    if case == "chain":
        cfg = SimConfig(seed=3, n=64, branching=1, mode=MODE_NO_RESTART,
                        failures=(FailureAction(63, "response", "lie"),))
        depths = {63: 63}
    else:
        cfg = SimConfig(seed=32, n=13, branching=3, mode=MODE_NO_RESTART,
                        failures=(FailureAction(1, "response", "lie"),
                                  FailureAction(5, "response", "lie")))
        depths = {1: 4, 5: 4}
    sim = simnet.CosiSim(cfg)
    frames = _exception_frames(sim)
    _, result = sim.run_round(0)
    sig = result.signature
    assert result.ok and {e.index: e.proof.step_count for e in sig.exceptions} == depths
    assert frames
    for msg in frames:
        assert decode_frame_body(encode_message(msg, TOY)[4:], TOY, cfg.n) == msg
    assert multisig.CollectiveSignature.from_bytes(sig.to_bytes(), cfg.n) == sig
    assert multisig.verify_collective(sim.roster, result.statement, sig,
                                      Threshold(cfg.n - len(depths))).ok


def test_interior_liar_with_an_overlong_exception_proof_is_rejected():
    """Node 5, a leaf, commits to its parent 2 with a forged tree hash: the
    fold of its commit along N-1 made-up steps, which node 2 takes into its
    own tree. Node 2 then reports 5 dropped and proves 5's commit along those
    steps and its own, N steps that fold to 2's tree hash. Composed with the
    leader's two, the path would outgrow any frame or signature the roster
    may decode, so the leader rejects 2's partial, bridges to 5, and signs
    without 2 alone."""
    n = 6
    sim = simnet.CosiSim(SimConfig(seed=5, n=n, branching=2, mode=MODE_NO_RESTART))
    forged = audit_path(*[(k % 2, bytes([k]) * 32) for k in range(n - 1)])
    send = sim.send

    def colluding_send(src, dst, msg, when):
        if (src, dst) == (5, 2) and isinstance(msg, Commit):
            # 5 takes the forged hash for its own, so it accepts the
            # challenges whose paths lift that hash
            st = sim.nodes[5].rounds[(0, 0, 0)]
            forged_hash = fold_proof(multisig.commit_leaf_digest(msg.commit), forged)
            st.summary = replace(st.summary, tree_hash=forged_hash)
            msg = replace(msg, tree_hash=forged_hash)
        elif (src, dst) == (5, 2) and isinstance(msg, Response):
            return  # node 2 reports 5 dropped
        elif (src, dst) == (2, 0) and isinstance(msg, Response):
            [exc] = msg.exceptions
            assert exc.index == 5 and exc.proof.step_count == 1
            long = CommitException(5, exc.commit, forged.compose(exc.proof))
            assert long.proof.step_count == n
            msg = replace(msg, exceptions=(long,))
        send(src, dst, msg, when)

    sim.send = colluding_send
    _, result = sim.run_round(0)
    sig = result.signature
    assert result.ok and 2 in result.failed and 5 not in result.failed
    assert [e.index for e in sig.exceptions] == [2]
    assert all(e.proof.step_count < n for e in sig.exceptions)
    assert multisig.CollectiveSignature.from_bytes(sig.to_bytes(), n) == sig
    assert multisig.verify_collective(sim.roster, result.statement, sig, Threshold(n - 1)).ok
