import dataclasses
import hashlib
import random
import sys
import threading
import time
import tracemalloc

import pytest

from conftest import assert_cuts_rejected, make_roster, make_toy_roster, manual_round, tabled

from cosikit import merkle
from cosikit.group import ED25519, _TABLE_USES
from cosikit.merkle import InclusionProof, MerkleTree, empty_tree_root, leaf_hash
from cosikit.multisig import MODE_NO_RESTART, CommitTree, verify_commit_inclusion
from cosikit.participation import Threshold
from cosikit.roster import ProvenKey, RosterError, build_key_tree, compact_certificate
from cosikit.timestamp import (
    GENESIS_HASH,
    RECEIPT_MAGIC,
    GlobalStampTree,
    StampReceipt,
    TimestampAuthority,
    TimestampError,
    TimestampRecord,
    time_check,
    unpack_record,
    verify_receipt,
    verify_record_chain,
)
from cosikit.topology import tree_for


def h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@pytest.fixture
def authority_env():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    calls = {"n": 0}

    def signer(statement: bytes):
        calls["n"] += 1
        return manual_round(roster, secrets, statement,
                            rng=random.Random(1000 + calls["n"]))

    return roster, TimestampAuthority(signer)


def test_record_pack_roundtrip():
    rec = TimestampRecord(7, 123456, b"\x01" * 32, b"\x02" * 32)
    assert unpack_record(rec.pack()) == rec
    assert len(rec.pack()) == 80
    with pytest.raises(TimestampError):
        unpack_record(rec.pack() + b"\x00")
    bad = TimestampRecord(7, 123456, b"\x01" * 31, b"\x02" * 32)
    for _ in range(2):  # a failed pack caches nothing
        with pytest.raises(TimestampError):
            bad.pack()


def test_single_hash_round(authority_env):
    roster, authority = authority_env
    digest = h(b"doc")
    authority.submit(digest)
    record, receipts = authority.round_close(clock=500.0)
    assert record.merkle_root == leaf_hash(digest)
    assert record.prev_record_hash == GENESIS_HASH
    receipt = receipts[digest]
    assert receipt.proof.encode() == b"\x00\x00"
    assert verify_receipt(roster, digest, receipt, Threshold(2)).ok


def test_four_hash_round(authority_env):
    roster, authority = authority_env
    digests = [h(bytes([i])) for i in range(4)]
    for d in digests:
        authority.submit(d)
    record, receipts = authority.round_close(clock=501.0)
    assert len(receipts) == 4
    for d in digests:
        assert verify_receipt(roster, d, receipts[d], Threshold(2)).ok
    # a tampered leaf fails
    bogus = h(b"not submitted")
    assert not verify_receipt(roster, bogus, receipts[digests[0]], Threshold(2)).ok


def test_receipt_bytes_pinned(authority_env):
    # recorded before receipts shared their audit steps and packed record
    _, authority = authority_env
    digests = [h(bytes([i])) for i in range(5)]
    for d in digests:
        authority.submit(d)
    _, receipts = authority.round_close(clock=500.0)
    blobs = [receipts[d].to_bytes() for d in digests]
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == (
        "b376524b6c613402a908b3592ba05c3e285a1d3f8a1937bf0046cff34c71ff79")
    assert blobs[3].hex() == (
        "54535231000000000000000100000000000001f42af5b4bab74866cddd59acc93d3b242b"
        "71c3e61c9cde6f23753b1a34f25850930000000000000000000000000000000000000000"
        "0000000000000000000000000000001143534731020000000900000000000000000000"
        "0065000300f35f2ca2eeea0bc6019a1298b1d58805ff33f2d690e9a11ce2b8a40d4e66cb"
        "2300290830ee9e5d5e97c8eb1d2a59e5870828f79c8dcedc33c95184888f65a188cd0114"
        "be08408615b14f002d0a8cab4bdf89995272764577318ab3b88e6c07be50cd")
    for blob in blobs:
        assert StampReceipt.from_bytes(blob, 3).to_bytes() == blob


def reference_receipt_bytes(receipt):
    sig, proof = receipt.signature.to_bytes(), receipt.proof.encode()
    return (RECEIPT_MAGIC + receipt.record.pack() + len(sig).to_bytes(4, "big") + sig
            + len(proof).to_bytes(4, "big") + proof)


def test_receipts_of_interleaved_batches_encode_field_by_field(authority_env):
    _, authority = authority_env
    batches = []
    for b, size in enumerate((5, 3)):
        digests = [h(bytes([b, i])) for i in range(size)]
        for d in digests:
            authority.submit(d)
        _, receipts = authority.round_close(clock=530.0 + b)
        batches.append([receipts[d] for d in digests])
    first, second = batches
    assert first[0].record != second[0].record
    assert first[0].signature != second[0].signature
    # a receipt that pairs one batch's record with the other's signature
    mixed = StampReceipt(first[0].record, second[0].signature, second[0].proof)
    interleaved = [first[0], second[0], first[1], mixed, second[1], first[2],
                   mixed, first[3], second[2], first[4], first[0]]
    for receipt in interleaved:
        blob = receipt.to_bytes()
        assert blob == reference_receipt_bytes(receipt)
        assert receipt.to_bytes() is blob  # the receipt's own bytes, not a new encoding
        assert StampReceipt.from_bytes(blob, 3).to_bytes() == blob


def assert_frozen(obj):
    for field in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, getattr(obj, field.name))


BULK_BATCHES = {
    **{f"distinct-{size}": [h(b"bulk/%d/%d" % (size, i)) for i in range(size)]
       for size in (1, 2, 3, 7, 64, 1000)},
    "repeated": [h(b"a"), h(b"b"), h(b"a"), h(b"c"), h(b"b"), h(b"a"), h(b"d")],
}


@pytest.mark.parametrize("batch", list(BULK_BATCHES.values()), ids=list(BULK_BATCHES))
def test_bulk_built_receipts_match_constructed_ones(authority_env, batch):
    _, authority = authority_env
    for d in batch:
        authority.submit(d)
    record, receipts = authority.round_close(clock=540.0)
    tree = MerkleTree(batch)
    last = {d: i for i, d in enumerate(batch)}  # a repeated hash keeps its last leaf
    assert list(receipts) == list(dict.fromkeys(batch))
    signature = receipts[batch[0]].signature
    for d, i in last.items():
        receipt, proof = receipts[d], tree.prove(i)
        built = StampReceipt(record, signature, proof)
        assert type(receipt) is StampReceipt and type(receipt.proof) is InclusionProof
        assert receipt == built and hash(receipt) == hash(built)
        assert repr(receipt) == repr(built)
        assert receipt.proof == proof and hash(receipt.proof) == hash(proof)
        assert receipt.record is record and receipt.signature is signature
        assert_frozen(receipt)
        assert_frozen(receipt.proof)


def test_empty_round(authority_env):
    roster, authority = authority_env
    record, receipts = authority.round_close(clock=502.0)
    assert receipts == {}
    assert record.merkle_root == empty_tree_root()


def test_round_numbers_and_chaining(authority_env):
    roster, authority = authority_env
    records = []
    for i in range(3):
        authority.submit(h(bytes([i])))
        record, _ = authority.round_close(clock=503.0 + i)
        records.append(record)
    assert [r.round_number for r in records] == [1, 2, 3]
    assert verify_record_chain(records)
    mutated = list(records)
    mutated[1] = TimestampRecord(records[1].round_number, records[1].wall_time + 1,
                                 records[1].merkle_root, records[1].prev_record_hash)
    assert not verify_record_chain(mutated)


def test_completeness_every_hash_in_one_receipt(authority_env):
    roster, authority = authority_env
    digests = [h(bytes([i, i])) for i in range(9)]
    for d in digests:
        authority.submit(d)
    _, receipts = authority.round_close(clock=504.0)
    assert sorted(receipts) == sorted(digests)
    indices = {receipts[d].proof.leaf_index for d in digests}
    assert indices == set(range(9))


def test_failed_round_retains_queue():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    state = {"fail": True}

    def flaky(statement: bytes):
        if state["fail"]:
            return None
        return manual_round(roster, secrets, statement, rng=random.Random(7))

    authority = TimestampAuthority(flaky)
    first = h(b"queued")
    authority.submit(first)
    with pytest.raises(TimestampError):
        authority.round_close(clock=505.0)
    state["fail"] = False
    second = h(b"later")
    authority.submit(second)
    record, receipts = authority.round_close(clock=506.0)
    assert record.round_number == 1  # the failed attempt consumed no round number
    assert set(receipts) == {first, second}
    assert verify_receipt(roster, first, receipts[first], Threshold(2)).ok


def test_hashes_submitted_during_round_closes_land_in_one_batch_each():
    """Four threads submit 3,000 hashes each while round_close runs again and
    again, every third signing failing, so its batch goes back ahead of
    what came in meanwhile: each hash is in exactly one signed batch, and each
    thread's hashes keep their order within and across batches. The closing
    loop paces the threads: each submits its hashes in chunks of 100 and,
    after a chunk, waits until a non-empty batch has been signed since that
    chunk began, so at least 29 batches are signed however fast the threads
    run, and they keep submitting while round_close runs."""
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    signature = manual_round(roster, secrets, b"any record", rng=random.Random(9))
    calls = [0]

    def signer(statement: bytes):
        calls[0] += 1
        return None if calls[0] % 3 == 1 else signature

    authority = TimestampAuthority(signer)
    submitted = [[h(b"%d/%d" % (t, i)) for i in range(3000)] for t in range(4)]
    signed = threading.Condition()
    batches = []

    def submit_all(hashes):
        for start in range(0, len(hashes), 100):
            with signed:
                seen = len([b for b in batches if b])
            for i, d in enumerate(hashes[start:start + 100]):
                authority.submit(d)
                if i % 10 == 0:
                    time.sleep(0)  # let the other threads, and round_close, in
            with signed:
                assert signed.wait_for(lambda: len([b for b in batches if b]) > seen,
                                       timeout=30)

    threads = [threading.Thread(target=submit_all, args=(hashes,)) for hashes in submitted]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads) or authority.pending_count:
            try:
                batch = list(authority.round_close(clock=600.0)[1])
            except TimestampError:
                continue
            with signed:
                batches.append(batch)
                signed.notify_all()
    finally:
        sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    stamped = [d for batch in batches for d in batch]
    assert len(stamped) == len(set(stamped)) == 12000
    assert set(stamped) == {d for hashes in submitted for d in hashes}
    assert len([b for b in batches if b]) > 10 and calls[0] > len(batches)
    position = {d: i for i, d in enumerate(stamped)}
    for hashes in submitted:
        assert [position[d] for d in hashes] == sorted(position[d] for d in hashes)


def test_signer_exception_chained_and_batch_requeued():
    boom = RuntimeError("boom")

    def broken(statement: bytes):
        raise boom

    authority = TimestampAuthority(broken)
    authority.submit(h(b"queued"))
    with pytest.raises(TimestampError) as info:
        authority.round_close(clock=507.0)
    assert info.value.__cause__ is boom
    assert authority.pending_count == 1
    assert authority.next_round == 1


def test_hash_submitted_during_a_failed_round_follows_the_retained_batch():
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    batch = [h(b"first"), h(b"second"), h(b"third")]
    late = h(b"submitted while signing")
    state = {"fail": True}

    def signer(statement: bytes):
        if state["fail"]:
            state["late_submit"] = authority.submit(late)
            return None
        return manual_round(roster, secrets, statement, rng=random.Random(8))

    authority = TimestampAuthority(signer)
    for d in batch:
        assert authority.submit(d) is None
    with pytest.raises(TimestampError):
        authority.round_close(clock=508.0)
    assert state["late_submit"] is None
    assert authority.pending_count == 4
    state["fail"] = False
    record, receipts = authority.round_close(clock=509.0)
    assert record.merkle_root == MerkleTree(batch + [late]).root
    assert [receipts[d].proof.leaf_index for d in batch + [late]] == [0, 1, 2, 3]
    assert verify_receipt(roster, late, receipts[late], Threshold(3)).ok


def test_receipt_rejected_against_wrong_round(authority_env):
    roster, authority = authority_env
    d1, d2 = h(b"a"), h(b"b")
    authority.submit(d1)
    _, first = authority.round_close(clock=507.0)
    authority.submit(d2)
    _, second = authority.round_close(clock=508.0)
    swapped = StampReceipt(record=second[d2].record, signature=second[d2].signature,
                           proof=first[d1].proof)
    assert not verify_receipt(roster, d1, swapped, Threshold(2)).ok


def test_receipt_predicate_diagnostic(authority_env):
    roster, authority = authority_env
    d = h(b"strict")
    authority.submit(d)
    _, receipts = authority.round_close(clock=509.0)
    res = verify_receipt(roster, d, receipts[d], Threshold(4))
    assert not res.ok and res.crypto_ok and not res.predicate_ok


def test_receipt_chain_linkage(authority_env):
    roster, authority = authority_env
    d1, d2 = h(b"r1"), h(b"r2")
    authority.submit(d1)
    rec1, _ = authority.round_close(clock=510.0)
    authority.submit(d2)
    rec2, receipts2 = authority.round_close(clock=511.0)
    ok = verify_receipt(roster, d2, receipts2[d2], Threshold(2), prev_record=rec1)
    assert ok.ok
    bad = verify_receipt(roster, d2, receipts2[d2], Threshold(2), prev_record=rec2)
    assert not bad.ok


def test_receipt_file_roundtrip(authority_env):
    roster, authority = authority_env
    d = h(b"file")
    authority.submit(d)
    _, receipts = authority.round_close(clock=512.0)
    blob = receipts[d].to_bytes()
    assert blob[:4] == b"TSR1"
    back = StampReceipt.from_bytes(blob, len(roster))
    assert back.record == receipts[d].record
    assert verify_receipt(roster, d, back, Threshold(2)).ok
    with pytest.raises(TimestampError):
        StampReceipt.from_bytes(blob + b"\x00", len(roster))


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_receipt_decoded_from_any_buffer(authority_env, kind):
    _, authority = authority_env
    digests = [h(bytes([i])) for i in range(5)]
    for d in digests:
        authority.submit(d)
    _, receipts = authority.round_close(clock=513.0)
    receipt = receipts[digests[4]]
    back = StampReceipt.from_bytes(kind(receipt.to_bytes()), 3)
    assert type(back.to_bytes()) is bytes
    assert back == receipt and hash(back) == hash(receipt)
    assert back.proof == receipt.proof and back.proof.leaf_index == 4


def test_receipt_with_a_bad_proof_rejected(authority_env):
    _, authority = authority_env
    digests = [h(bytes([i])) for i in range(5)]
    for d in digests:
        authority.submit(d)
    _, receipts = authority.round_close(clock=514.0)
    blob, proof = receipts[digests[2]].to_bytes(), receipts[digests[2]].proof.data
    at = len(blob) - len(proof)  # where the proof's step count starts
    bad_side = bytearray(blob)
    bad_side[at + 2 + 33] = 2  # the second step's side byte
    with pytest.raises(ValueError, match="bad audit step side"):
        StampReceipt.from_bytes(bad_side, 3)
    bad_count = bytearray(blob)
    bad_count[at + 1] += 1  # one step more than the proof holds
    with pytest.raises(ValueError, match="bad inclusion proof length"):
        StampReceipt.from_bytes(bad_count, 3)
    # one step more than the proof's count, with the receipt's length field to match
    longer = (blob[:at - 4] + (len(proof) + 33).to_bytes(4, "big") + proof
              + bytes([merkle.SIBLING_RIGHT]) + bytes(32))
    with pytest.raises(ValueError, match="bad inclusion proof length"):
        StampReceipt.from_bytes(longer, 3)


def test_round_close_holds_each_audit_path_once():
    # A round's receipts are their wire bytes, so a round and the encoding
    # of every receipt leave behind those bytes and a small constant per
    # receipt: its slots, its bytes object's header, its dict entry and its
    # place in the list of encodings. A second copy of each 398-byte path (a
    # proof object per leaf) would exceed this bound.
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    signature = manual_round(roster, secrets, b"statement")
    authority = TimestampAuthority(lambda statement: signature)
    for i in range(4096):
        authority.submit(h(i.to_bytes(4, "big")))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, receipts = authority.round_close(clock=515.0)
        blobs = [receipt.to_bytes() for receipt in receipts.values()]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(receipts) == 4096
    wire = sum(map(len, blobs))
    assert len(receipts[h(bytes(4))].proof.data) == 2 + 12 * 33
    assert wire < held <= wire + 4096 * 200


def test_every_cut_of_a_receipt_rejected():
    secrets = [3, 4, 5, 6, 7, 8, 9]
    roster = make_toy_roster(secrets)
    authority = TimestampAuthority(lambda statement: manual_round(
        roster, secrets, statement, response_absent={3, 6}, mode=MODE_NO_RESTART))
    digests = [h(bytes([i])) for i in range(5)]
    for d in digests:
        authority.submit(d)
    _, receipts = authority.round_close(clock=520.0)
    receipt = receipts[digests[2]]
    assert len(receipt.signature.exceptions) == 2 and receipt.proof.step_count == 3
    blob = receipt.to_bytes()
    assert StampReceipt.from_bytes(blob, 7).to_bytes() == blob
    assert_cuts_rejected(lambda d: StampReceipt.from_bytes(d, 7), blob)


def test_time_check(authority_env):
    roster, authority = authority_env
    nonce = h(b"fresh nonce")
    authority.submit(nonce)
    record, receipts = authority.round_close(clock=1000.0)
    receipt = receipts[nonce]
    assert time_check(nonce, receipt, roster, Threshold(2),
                      local_clock=1030.0, tolerance=60.0)
    # boundary: exactly delta is accepted, delta+1 is not
    assert time_check(nonce, receipt, roster, Threshold(2),
                      local_clock=1060.0, tolerance=60.0)
    assert not time_check(nonce, receipt, roster, Threshold(2),
                          local_clock=1061.0, tolerance=60.0)
    # a replayed receipt cannot vouch for a nonce it never committed
    other_nonce = h(b"new nonce")
    assert not time_check(other_nonce, receipt, roster, Threshold(2),
                          local_clock=1030.0, tolerance=60.0)


def test_receipt_with_an_absent_witness_verifies_under_a_compact_anchor():
    """A compact anchor knows only the aggregate key and the key-tree root,
    so it needs the absent witness's proven key to reach the present key."""
    secrets = [3, 4, 5, 6]
    roster = make_toy_roster(secrets)
    authority = TimestampAuthority(lambda statement: manual_round(
        roster, secrets, statement, absent={3}, rng=random.Random(11)))
    nonce = h(b"absent witness")
    authority.submit(nonce)
    record, receipts = authority.round_close(clock=1000.0)
    receipt = receipts[nonce]
    assert receipt.signature.participation.response_absent == {3}
    anchor = compact_certificate(roster)
    proofs = [ProvenKey(3, roster.public_key(3), build_key_tree(roster).prove(3))]
    assert verify_receipt(roster, nonce, receipt, Threshold(3)).ok
    assert verify_receipt(anchor, nonce, receipt, Threshold(3), key_proofs=proofs).ok
    assert time_check(nonce, receipt, anchor, Threshold(3), local_clock=1030.0,
                      key_proofs=proofs)
    assert not time_check(nonce, receipt, anchor, Threshold(3), local_clock=1061.0,
                          key_proofs=proofs)
    # without the proof the present key cannot be reached
    with pytest.raises(RosterError, match=r"missing \[3\]"):
        verify_receipt(anchor, nonce, receipt, Threshold(3))
    with pytest.raises(RosterError, match=r"missing \[3\]"):
        time_check(nonce, receipt, anchor, Threshold(3), local_clock=1030.0)


# -- receipts under an Ed25519 roster key's fixed-base table ----------------------

def prod_receipts(seed: int, n: int = 4, count: int = 8):
    """An Ed25519 roster, every witness signing, and one batch's receipts."""
    rng = random.Random(seed)
    secrets = [ED25519.random_scalar(rng).value for _ in range(n)]
    roster = make_roster(ED25519, secrets, rng=rng)
    authority = TimestampAuthority(
        lambda statement: manual_round(roster, secrets, statement, rng=rng))
    for i in range(count):
        authority.submit(h(i.to_bytes(4, "big")))
    _, receipts = authority.round_close(clock=700.0)
    return roster, receipts


def test_prod_receipt_tampering_rejected_under_a_tabled_key():
    roster, receipts = prod_receipts(71)
    digest, receipt = next(iter(receipts.items()))
    record, sig, proof = receipt.record, receipt.signature, receipt.proof
    one = ED25519.scalar(1)
    tampered = [
        StampReceipt(dataclasses.replace(record, wall_time=record.wall_time + 1), sig, proof),
        StampReceipt(record, dataclasses.replace(sig, challenge=sig.challenge + one), proof),
        StampReceipt(record, dataclasses.replace(sig, response=sig.response + one), proof),
    ]
    for anchor in (roster, compact_certificate(roster)):
        for _ in range(_TABLE_USES):
            assert verify_receipt(anchor, digest, receipt, Threshold(4)).ok
        assert len(roster.aggregate_key()._pre) == 37
        for bad in tampered:
            result = verify_receipt(anchor, digest, bad, Threshold(4))
            assert not result.ok and result.reason == "challenge mismatch"


def test_prod_receipt_verifications_keep_one_table_per_roster():
    # The verifications below `_TABLE_USES` power the roster key by the
    # ladder and the one that reaches it builds its table, about 0.6 MB; the
    # next 182 walk that table and retain nothing. A table per call, kept,
    # would exceed the bound.
    roster, receipts = prod_receipts(72)
    digest, receipt = next(iter(receipts.items()))
    tabled(ED25519.generator)
    tracemalloc.start()
    try:
        for _ in range(_TABLE_USES):
            assert verify_receipt(roster, digest, receipt, Threshold(4)).ok
        after_build = tracemalloc.get_traced_memory()[0]
        for _ in range(200 - _TABLE_USES):
            assert verify_receipt(roster, digest, receipt, Threshold(4)).ok
        held = tracemalloc.get_traced_memory()[0] - after_build
    finally:
        tracemalloc.stop()
    assert len(roster.aggregate_key()._pre) == 37
    assert held < 300_000


# -- scalable mode ----------------------------------------------------------------

def test_scalable_single_node_reduces_to_local_tree():
    topo = tree_for(1, 2, 0)
    hashes = [h(b"x"), h(b"y")]
    tree = GlobalStampTree(topo, {0: hashes})
    local = merkle.MerkleTree(hashes)
    assert tree.root == local.root
    for i in range(2):
        assert merkle.verify_inclusion(tree.root, hashes[i], tree.prove_request(0, i))


def test_scalable_seven_witnesses():
    topo = tree_for(7, 2, 0)
    queues = {i: [h(bytes([i]))] for i in range(7)}
    tree = GlobalStampTree(topo, queues)
    for i in range(7):
        proof = tree.prove_request(i, 0)
        assert merkle.verify_inclusion(tree.root, queues[i][0], proof)
    # composition associativity: local proof + witness path == direct proof
    for i in range(7):
        local = tree.local_trees[i].prove(0)
        up = tree.prove(i)
        assert local.compose(up) == tree.prove_request(i, 0)
        folded = merkle.fold_proof(merkle.leaf_hash(queues[i][0]), local.compose(up))
        assert folded == tree.root


@pytest.mark.parametrize("n, branching, failed", [(1, 2, ()), (7, 2, ()), (13, 3, (2,)),
                                                  (20, 4, (1, 7))])
def test_commit_tree_and_stamp_tree_share_one_rule(n, branching, failed):
    """Given the same digest at every node, the commit tree and the global
    stamp tree are one tree: the same root and the same proof for each node.
    An Ed25519 commit's encoding is 32 bytes, so a stamp queue holding only
    it has the commit's leaf digest as its local root."""
    topo = tree_for(n, branching, 0, failed=set(failed))
    commits = {i: ED25519.generator ** (i + 2) for i in topo.members}
    commit_tree = CommitTree(topo, commits)
    stamp_tree = GlobalStampTree(topo, {i: [c.encode()] for i, c in commits.items()})
    assert commit_tree.root == stamp_tree.root
    for i in topo.members:
        assert commit_tree.prove(i) == stamp_tree.prove(i)
        assert verify_commit_inclusion(stamp_tree.root, commits[i], stamp_tree.prove(i))


def test_scalable_empty_witness_queues():
    topo = tree_for(3, 2, 0)
    queues = {0: [h(b"only")], 1: [], 2: []}
    tree = GlobalStampTree(topo, queues)
    assert merkle.verify_inclusion(tree.root, queues[0][0], tree.prove_request(0, 0))


def test_scalable_rebuild_after_topology_change():
    # a parent crash mid-round reshapes the tree; rebuilding from the same
    # queues keeps every request provable (the service re-queues and retries)
    queues = {i: [h(bytes([i, 7]))] for i in range(7)}
    before = GlobalStampTree(tree_for(7, 2, 0), queues)
    after = GlobalStampTree(tree_for(7, 2, 0, failed={1}), queues)
    assert before.root != after.root
    for i in range(7):
        if i == 1:
            continue
        proof = after.prove_request(i, 0)
        assert merkle.verify_inclusion(after.root, queues[i][0], proof)
