"""Correctness checks computed apart from cosikit.

Every check here uses plain integers and hashlib only, with the constants and
domain tags copied from the protocol's documentation, so a fault in cosikit's
own arithmetic, hashing or encoding cannot also hide itself from the check.
Each function returns a list of problems; an empty list means the output
checks out.
"""

from __future__ import annotations

import hashlib

# Group orders: the toy group is the order-11 subgroup of Z_23* generated by 2;
# the production group is the prime-order subgroup of Ed25519.
TOY_ORDER = 11
TOY_MODULUS = 23
TOY_GENERATOR = 2
ED25519_ORDER = 2**252 + 27742317777372353535851937790883648493

TAG_CHALLENGE_PLAIN = b"cosi/challenge/plain/v1"
TAG_MERKLE_LEAF = b"cosi/merkle/leaf/v1"
TAG_MERKLE_NODE = b"cosi/merkle/node/v1"
TAG_STAMP_RECORD = b"cosi/stamp-record/v1"


def response_identity(response: int, challenge: int, nonces: dict[int, int],
                      secrets: dict[int, int], responders, order: int) -> list[str]:
    """The aggregate response must equal sum(v_i - c*x_i) mod q over the
    responders, with each v_i taken from the node's own nonce record."""
    missing = [i for i in responders if i not in nonces]
    if missing:
        return [f"no nonce recorded for responders {sorted(missing)[:8]}"]
    expect = sum(nonces[i] - challenge * secrets[i] for i in responders) % order
    if expect != response:
        return [f"aggregate response {response} != sum of shares {expect}"]
    return []


def toy_challenge(nonces, statement: bytes) -> int:
    """Restart-mode challenge over the toy group: H(tag | V | statement) mod q
    with V = 2^(sum of nonces) mod 23, encoded as two little-endian bytes."""
    agg = pow(TOY_GENERATOR, sum(nonces) % TOY_ORDER, TOY_MODULUS)
    digest = hashlib.sha512(TAG_CHALLENGE_PLAIN + agg.to_bytes(2, "little")
                            + statement).digest()
    return int.from_bytes(digest, "little") % TOY_ORDER


def toy_round(challenge: int, response: int, nonces, secrets,
              statement: bytes) -> list[str]:
    """Recompute the challenge, then check g^r * K^c == V in the toy group."""
    problems = []
    expect_c = toy_challenge(nonces, statement)
    if expect_c != challenge:
        problems.append(f"challenge {challenge} != recomputed {expect_c}")
    agg_commit = pow(TOY_GENERATOR, sum(nonces) % TOY_ORDER, TOY_MODULUS)
    agg_key = pow(TOY_GENERATOR, sum(secrets) % TOY_ORDER, TOY_MODULUS)
    lhs = pow(TOY_GENERATOR, response, TOY_MODULUS) * pow(agg_key, challenge, TOY_MODULUS)
    if lhs % TOY_MODULUS != agg_commit:
        problems.append("g^r * K^c does not equal the aggregate commit")
    return problems


def bary_depth(n: int, branching: int) -> int:
    """Depth of a complete breadth-first B-ary tree with n nodes: the least d
    with 1 + B + ... + B^d >= n."""
    depth, capacity, level = 0, 1, 1
    while capacity < n:
        level *= branching
        capacity += level
        depth += 1
    return depth


def round_shape(total_msgs: int, latency: float, n: int, branching: int,
                rtt: float) -> list[str]:
    """An all-present round sends one message per tree edge in each of the four
    phases, and cannot finish before two round trips per tree level."""
    problems = []
    if total_msgs != 4 * (n - 1):
        problems.append(f"{total_msgs} messages, expected 4(N-1) = {4 * (n - 1)}")
    floor = 2 * bary_depth(n, branching) * rtt
    if latency < floor:
        problems.append(f"simulated latency {latency} below 2*depth*rtt = {floor}")
    return problems


def merkle_root(leaves) -> bytes:
    """Binary Merkle root with tagged leaf and node hashes; a level with an
    odd count duplicates its last node."""
    level = [hashlib.sha256(TAG_MERKLE_LEAF + leaf).digest() for leaf in leaves]
    if not level:
        raise ValueError("empty batch")
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256(TAG_MERKLE_NODE + level[i] + level[i + 1]).digest()
                 for i in range(0, len(level), 2)]
    return level[0]


def record_hash(round_number: int, wall_time: int, root: bytes, prev: bytes) -> bytes:
    packed = (round_number.to_bytes(8, "big") + wall_time.to_bytes(8, "big")
              + root + prev)
    return hashlib.sha256(TAG_STAMP_RECORD + packed).digest()


def stamp_batch(batch, root: bytes, receipt_digests) -> list[str]:
    """The record's root must be the batch's Merkle root, and every submitted
    hash must get exactly one receipt."""
    problems = []
    if merkle_root(batch) != root:
        problems.append("record root differs from the recomputed Merkle root")
    digests = list(receipt_digests)
    if len(digests) != len(batch) or set(digests) != set(batch):
        problems.append(f"{len(digests)} receipts for {len(batch)} submitted hashes")
    return problems


def record_chain(records) -> list[str]:
    """records: (round, wall_time, root, prev_hash) tuples in order. Each must
    name the hash of the one before and count rounds one by one."""
    problems = []
    for prev, cur in zip(records, records[1:]):
        if cur[3] != record_hash(*prev):
            problems.append(f"record {cur[0]} does not chain to record {prev[0]}")
        if cur[0] != prev[0] + 1:
            problems.append(f"record {cur[0]} follows record {prev[0]}")
    return problems
