"""The benchmark's workloads, written against cosikit's public functions.

A workload is driven in units. One unit is one timed operation (a signing
round, or a timestamp batch), the untimed correctness checks on its output,
and one timed batch of verifications that each decode from bytes. The
worker owns timing; this module owns inputs, operations and checks.

Calls into cosikit go through module attributes (``multisig.verify_collective``
and so on), so the tracer's patches see them.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import replace

from cosikit import engine, multisig, participation, simnet, timestamp

import checks


class LogCounter(logging.Handler):
    """Captures cosikit's warnings instead of printing them: rejected partial
    responses by sender, and every other warning verbatim."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.rejected: list[int] = []
        self.other: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        if "invalid partial response" in str(record.msg):
            self.rejected.append(record.args[1])
        else:
            self.other.append(record.getMessage())

    def reset(self) -> None:
        self.rejected.clear()
        self.other.clear()


def capture_cosikit_log() -> LogCounter:
    counter = LogCounter()
    log = logging.getLogger("cosikit")
    log.addHandler(counter)
    log.propagate = False
    return counter


def round_nonces(sim, result, indices) -> dict[int, int]:
    """Each node's nonce for the round's final attempt, from its nonce log."""
    key = (result.view, result.round, result.attempts - 1)
    c = result.signature.challenge.value
    out = {}
    for i in indices:
        for entry in reversed(sim.nodes[i].nonce_log):
            if entry[:3] == key and entry[4] == c:
                out[i] = entry[3]
                break
    return out


def response_identity(sim, result, order: int) -> list[str]:
    sig = result.signature
    responders = sig.participation.response_present
    secrets = {i: sim.nodes[i].keypair.secret.value for i in responders}
    return checks.response_identity(sig.response.value, sig.challenge.value,
                                    round_nonces(sim, result, responders), secrets,
                                    responders, order)


class CosiWorkload:
    """One simulated signing round per unit, then repeated verification of
    the signature it produced."""

    name = ""
    group_name = ""
    order = 0
    n = 0
    branching = 0
    mode = multisig.MODE_RESTART
    liars: tuple[int, ...] = ()
    verify_batch = 0
    # Units per run, unless the run's time bound comes first. A count rather
    # than the clock ends a run, so that runs take the same samples and build
    # up the same state.
    units = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.round_index = 0

    def config(self) -> simnet.SimConfig:
        return simnet.SimConfig(
            seed=self.seed, n=self.n, branching=self.branching,
            group_name=self.group_name, mode=self.mode,
            failures=tuple(simnet.FailureAction(i, "response", "lie") for i in self.liars))

    @property
    def present(self) -> frozenset[int]:
        return frozenset(range(self.n)) - frozenset(self.liars)

    def setup(self) -> None:
        self.log = capture_cosikit_log()
        self.sim = simnet.CosiSim(self.config())
        self.roster = self.sim.roster
        self.predicate = participation.Threshold(len(self.present))

    def prepare(self) -> None:
        """Bind this round's statement the way acceptance criterion 10 does."""
        statement = hashlib.sha256(
            f"perfbench/{self.name}/{self.seed}/{self.round_index}".encode()).digest()
        self.sim.cfg = replace(self.sim.cfg, statement=statement)
        self.log.reset()

    def operate(self):
        metrics, result = self.sim.run_round(self.round_index)
        self.round_index += 1
        if result is None or not result.ok:
            raise RuntimeError(f"round failed: {result.reason if result else 'no result'}")
        self.last_metrics = metrics
        return metrics, result

    def check(self, out) -> list[str]:
        metrics, result = out
        sig = result.signature
        problems = response_identity(self.sim, result, self.order)
        problems += self._check_participation(sig)
        if multisig.verify_collective(self.roster, self.tampered(result), sig,
                                      self.predicate).ok:
            problems.append("signature accepted on a tampered statement")
        return problems + self._check_specific(metrics, result)

    def tampered(self, result) -> bytes:
        return result.statement + b"!"

    def _check_participation(self, sig) -> list[str]:
        problems = []
        pset = sig.participation
        if pset.response_present != self.present:
            problems.append(f"present set is missing {sorted(self.present - pset.response_present)[:8]}"
                            f" and adds {sorted(pset.response_present - self.present)[:8]}")
        if pset.commit_present != frozenset(range(self.n)):
            problems.append("not every witness committed")
        exceptions = sorted(e.index for e in sig.exceptions)
        if exceptions != sorted(self.liars):
            problems.append(f"exceptions {exceptions} differ from liars {sorted(self.liars)}")
        if sorted(self.log.rejected) != sorted(self.liars):
            problems.append(f"rejected partials from {sorted(self.log.rejected)}, "
                            f"expected one per liar {sorted(self.liars)}")
        if self.log.other:
            problems.append(f"unexpected cosikit warnings: {self.log.other[:3]}")
        return problems

    def _check_specific(self, metrics, result) -> list[str]:
        return []

    def verify_items(self, out) -> list:
        _, result = out
        item = (result.signature.to_bytes(), result.statement)
        return [item] * self.verify_batch

    def verify(self, item) -> bool:
        data, statement = item
        sig = multisig.CollectiveSignature.from_bytes(data, self.n)
        return multisig.verify_collective(self.roster, statement, sig, self.predicate).ok


class CosiToy(CosiWorkload):
    """Toy-group arithmetic is nearly free, so the round measures topology,
    engine and simulator work."""

    name = "cosi-toy"
    group_name = "toy"
    order = checks.TOY_ORDER
    n = 1024
    branching = 16
    mode = multisig.MODE_RESTART
    verify_batch = 400
    # Every node keeps up to 16 round states, each with its own topology, so
    # memory climbs by about 59 MB per round until 16 rounds are kept; six
    # rounds (plus the warm-up) keep a run near 440 MB.
    units = 6

    def tampered(self, result) -> bytes:
        """With q = 11 one tampered statement in 11 hashes to the same
        challenge and rightly verifies; the oracle picks one that does not."""
        nonces = round_nonces(self.sim, result, result.signature.participation.commit_present)
        c = result.signature.challenge.value
        statement = result.statement + b"!"
        while checks.toy_challenge(nonces.values(), statement) == c:
            statement += b"!"
        return statement

    def _check_specific(self, metrics, result) -> list[str]:
        sig = result.signature
        pset = sig.participation
        nonces = round_nonces(self.sim, result, pset.commit_present)
        secrets = [self.sim.nodes[i].keypair.secret.value for i in pset.response_present]
        problems = checks.toy_round(sig.challenge.value, sig.response.value,
                                    list(nonces.values()), secrets, result.statement)
        return problems + checks.round_shape(metrics.total_msgs, metrics.latency,
                                             self.n, self.branching, self.sim.cfg.rtt)


class CosiProd(CosiWorkload):
    """Ed25519 arithmetic dominates; the liars make every signature carry the
    same commit exceptions, so verification decodes and folds them."""

    name = "cosi-prod"
    group_name = "prod"
    order = checks.ED25519_ORDER
    n = 128
    branching = 8
    mode = multisig.MODE_NO_RESTART
    # 5 is interior (its subtree is bridged), 40 and 77 are leaves.
    liars = (5, 40, 77)
    verify_batch = 40
    units = 12


class StampProd:
    """Batching timestamp authority over a 16-witness Ed25519 signer, as
    `cosi run-leader` runs it: restart mode, statement bound at challenge."""

    name = "stamp-prod"
    n = 16
    branching = 3
    hashes = 20_000
    verify_batch = 60
    units = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.batch_index = 0
        self.sign_round = 0
        self.records: list = []

    def setup(self) -> None:
        self.log = capture_cosikit_log()
        self.sim = simnet.CosiSim(simnet.SimConfig(
            seed=self.seed, n=self.n, branching=self.branching, group_name="prod",
            mode=multisig.MODE_RESTART, statement_timing=engine.STATEMENT_AT_CHALLENGE))
        self.roster = self.sim.roster
        self.predicate = participation.Threshold(self.n)
        self.authority = timestamp.TimestampAuthority(self._sign)

    def _sign(self, statement: bytes):
        self.sim.cfg = replace(self.sim.cfg, statement=statement)
        self.last_metrics, result = self.sim.run_round(self.sign_round)
        self.sign_round += 1
        self.last_round = result
        return result.signature if result is not None and result.ok else None

    def prepare(self) -> None:
        prefix = f"perfbench/{self.name}/{self.seed}/{self.batch_index}/".encode()
        self.batch = [hashlib.sha256(prefix + i.to_bytes(4, "big")).digest()
                      for i in range(self.hashes)]
        self.clock = simnet.SimConfig.start_time + 10 * self.batch_index
        self.log.reset()

    def operate(self):
        for digest in self.batch:
            self.authority.submit(digest)
        record, receipts = self.authority.round_close(self.clock)
        blobs = [receipt.to_bytes() for receipt in receipts.values()]
        self.batch_index += 1
        return record, receipts, blobs

    def check(self, out) -> list[str]:
        record, receipts, blobs = out
        self.records.append(record)
        problems = checks.stamp_batch(self.batch, record.merkle_root, receipts.keys())
        if len(blobs) != len(self.batch):
            problems.append(f"{len(blobs)} receipts serialized for {len(self.batch)} hashes")
        problems += checks.record_chain([
            (r.round_number, r.wall_time, r.merkle_root, r.prev_record_hash)
            for r in self.records[-2:]])
        result = self.last_round
        sig = result.signature
        if sig is not receipts[self.batch[0]].signature:
            problems.append("receipt carries another signature than the round produced")
        responders = sig.participation.response_present
        if responders != frozenset(range(self.n)):
            problems.append("not every witness responded")
        problems += response_identity(self.sim, result, checks.ED25519_ORDER)
        if self.log.rejected or self.log.other:
            problems.append(f"unexpected cosikit warnings: {self.log.other[:3]}")
        problems += self._negative_controls(receipts, blobs)
        return problems

    @property
    def _prev_record(self):
        """The record before the latest one, which verifiers chain it to."""
        return self.records[-2] if len(self.records) > 1 else None

    def _negative_controls(self, receipts, blobs) -> list[str]:
        problems = []
        prev = self._prev_record
        digest = self.batch[0]
        receipt = receipts[digest]
        tampered_digest = bytes([digest[0] ^ 1]) + digest[1:]
        if timestamp.verify_receipt(self.roster, tampered_digest, receipt,
                                    self.predicate, prev).ok:
            problems.append("receipt accepted for a tampered digest")
        # Offset 19 is the low byte of the record's wall time (after the 4-byte
        # magic and 8-byte round number), which the signature covers.
        blob = bytearray(blobs[0])
        blob[19] ^= 1
        forged = timestamp.StampReceipt.from_bytes(bytes(blob), self.n)
        if timestamp.verify_receipt(self.roster, digest, forged, self.predicate, prev).ok:
            problems.append("receipt accepted with a tampered record")
        return problems

    def verify_items(self, out) -> list:
        _, _, blobs = out
        prev = self._prev_record
        picks = random.Random(f"{self.seed}/{self.batch_index}").sample(
            range(len(self.batch)), self.verify_batch)
        return [(blobs[k], self.batch[k], prev) for k in picks]

    def verify(self, item) -> bool:
        blob, digest, prev = item
        receipt = timestamp.StampReceipt.from_bytes(blob, self.n)
        return timestamp.verify_receipt(self.roster, digest, receipt,
                                        self.predicate, prev).ok


WORKLOADS = {w.name: w for w in (CosiToy, CosiProd, StampProd)}
