"""Operator CLI and framed-TCP runner.

Subcommands: keygen, roster-init, run-witness, run-leader (timestamp
service), sign, verify, stamp, stamp-verify, simulate, tree-dump.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 protocol
failure. Transport is length-prefixed frames over plain TCP; witness
authenticity comes from the signatures themselves, so there is no TLS.
Each node's runtime is one asyncio event loop on the thread that drives
it: the loop serves inbound frames, dials one connection per outgoing
message and runs the engine's timers.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import logging
import os
import random
import socket
import sys
import time
from dataclasses import replace

from . import engine, multisig, simnet, timestamp
from .engine import (
    RoundConfig,
    RoundDone,
    Send,
    SetTimer,
    SigningNode,
    StampReply,
    StampRequest,
    decode_frame_body,
    encode_message,
)
from .group import KeyPair, Signature, SelfSignedKey, group_by_name, keygen as gen_key, prove_possession
from .multisig import CollectiveSignature
from .participation import Threshold, load_predicate
from .roster import RosterEntry, WitnessRoster, build_roster, load_roster, save_roster
from .timestamp import StampReceipt, TimestampAuthority, verify_receipt
from .topology import tree_for

logger = logging.getLogger("cosikit.cli")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PROTOCOL = 3

class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Key and roster files
# ---------------------------------------------------------------------------

def save_keyfile(path: str, group_name: str, keypair: KeyPair,
                 ssk: SelfSignedKey, witness_id: bytes) -> None:
    obj = {
        "group": group_name,
        "id-hex": witness_id.hex(),
        "secret-hex": keypair.secret.encode().hex(),
        "public-hex": keypair.public.encode().hex(),
        "proof-hex": ssk.proof.encode().hex(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_keyfile(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    group = group_by_name(obj["group"])
    secret = group.decode_scalar(bytes.fromhex(obj["secret-hex"]))
    keypair = KeyPair.from_secret(group, secret.value)
    ssk = SelfSignedKey(public=keypair.public,
                        proof=Signature.decode(group, bytes.fromhex(obj["proof-hex"])))
    return obj, group, keypair, ssk


# ---------------------------------------------------------------------------
# Framed-TCP runtime hosting one SigningNode
# ---------------------------------------------------------------------------

def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"bad address {addr!r}, expected host:port")
    return host, int(port)


def _frame_length(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length == 0 or length > 64 * 1024 * 1024:
        raise ConnectionError(f"bad frame length {length}")
    return length


def read_frame(sock: socket.socket) -> bytes | None:
    header = _read_exact(sock, 4)
    if header is None:
        return None
    body = _read_exact(sock, _frame_length(header))
    if body is None:
        raise ConnectionError("truncated frame")
    return body


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


async def _read_frame_async(reader: asyncio.StreamReader) -> bytes | None:
    """read_frame for a stream: None at a clean EOF between frames."""
    header = None
    try:
        header = await reader.readexactly(4)
        return await reader.readexactly(_frame_length(header))
    except asyncio.IncompleteReadError as exc:
        if header is None and not exc.partial:
            return None
        raise ConnectionError("truncated frame") from None


class NodeRuntime:
    """Hosts a SigningNode on one asyncio event loop.

    The loop runs only inside drain, serve_forever and run_leader_round, on
    the calling thread; in between, arrivals wait in socket buffers. Inbound
    frames go straight to the node, and stamp requests straight to `stamps`;
    each Send is a task that opens one connection and writes one frame, each
    SetTimer is a `call_later`, and a RoundDone resolves the future that
    run_leader_round waits on.
    """

    def __init__(self, node: SigningNode, roster: WitnessRoster, listen: str):
        self.node = node
        self.roster = roster
        self.group = roster.group
        self.listen_addr = _parse_addr(listen)
        self.loop = asyncio.new_event_loop()
        self.result = None
        self.stamps: TimestampAuthority | None = None  # set while serving timestamps
        # failed dials per destination index
        self.dial_failures: dict[int, int] = {}
        self._stamp_conns: dict[bytes, list[asyncio.StreamWriter]] = {}
        self._server = None
        self._dials: set[asyncio.Task] = set()  # the loop holds tasks weakly
        self._stopped = self.loop.create_future()  # cancelled by shutdown
        self._round_done = self.loop.create_future()

    # -- network --

    def start_server(self) -> None:
        self._server = self.loop.run_until_complete(
            asyncio.start_server(self._serve_conn, *self.listen_addr))

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while (frame := await _read_frame_async(reader)) is not None:
                msg = decode_frame_body(frame, self.group, len(self.roster))
                if isinstance(msg, StampRequest):
                    if self.stamps is None:  # not serving timestamps
                        writer.write(encode_message(StampReply(ok=False, payload=b""),
                                                    self.group))
                        return
                    # hold the connection open for the round's reply
                    self._stamp_conns.setdefault(msg.digest, []).append(writer)
                    self.stamps.submit(msg.digest)
                    while await asyncio.wait_for(reader.read(4096), 300):
                        pass
                    return
                self._react(self.node.handle_message, msg)
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            logger.warning("dropped connection from %s: %r",
                           writer.get_extra_info("peername"), exc)
        except asyncio.CancelledError:
            pass  # shutdown; re-raised, Python 3.11's start_server logs it as an error
        finally:
            writer.close()

    async def _dial(self, dest: int, msg) -> None:
        endpoint = self.roster.entries[dest].endpoint
        if endpoint is None:
            logger.error("no endpoint for witness %d", dest)
            return
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_connection(*_parse_addr(endpoint)), 5)
            writer.write(encode_message(msg, self.group))
            writer.close()
            await asyncio.wait_for(writer.wait_closed(), 5)
        except (OSError, asyncio.TimeoutError) as exc:
            self.dial_failures[dest] = self.dial_failures.get(dest, 0) + 1
            logger.warning("dial to witness %d (%s) failed: %r", dest, endpoint, exc)

    def reply_stamp(self, digest: bytes, receipt_bytes: bytes, ok: bool = True) -> None:
        frame = encode_message(StampReply(ok=ok, payload=receipt_bytes), self.group)
        for writer in self._stamp_conns.pop(digest, []):
            writer.write(frame)
            writer.close()

    # -- event loop --

    def _apply(self, effects: list) -> None:
        for eff in effects:
            if isinstance(eff, Send):
                task = self.loop.create_task(self._dial(eff.dest, eff.msg))
                self._dials.add(task)
                task.add_done_callback(self._dials.discard)
            elif isinstance(eff, SetTimer):
                self.loop.call_later(eff.delay, self._react, self.node.on_timer, eff.key)
            elif isinstance(eff, RoundDone):
                self.result = eff.result
                if not self._round_done.done():
                    self._round_done.set_result(None)
            # view activation is surfaced through node.current_view

    def _react(self, handler, payload) -> None:
        self._apply(handler(payload, time.time()))

    def _run(self, timeout: float | None = None, *until: asyncio.Future) -> bool:
        """Run the loop until a future in `until` resolves, shutdown is
        called or `timeout` seconds pass; False means the timeout passed."""
        if self.loop.is_closed():
            return True
        try:
            done, _ = self.loop.run_until_complete(asyncio.wait(
                {self._stopped, *until}, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED))
        finally:
            if self._stopped.done():  # shutdown came from another thread
                self.shutdown()
        return bool(done)

    def drain(self, duration: float) -> None:
        """Process whatever arrives within `duration`; never raises."""
        self._run(duration)

    def serve_forever(self) -> None:
        self._run()

    def run_leader_round(self, config: RoundConfig, statement,
                         timeout: float = 120.0):
        self.result = None
        self._round_done = self.loop.create_future()
        self._apply(self.node.start_round(config, statement, time.time()))
        if not self._run(timeout, self._round_done):
            raise TimeoutError("timed out waiting for round completion")
        return self.result

    def shutdown(self) -> None:
        """Close the listener, open connections and the loop. Called while
        another thread runs the loop, it stops that thread's drain,
        serve_forever or round, which then closes the runtime."""
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self._stopped.cancel)
        elif not self.loop.is_closed():
            self.loop.run_until_complete(self._cancel_all())
            self.loop.close()

    async def _cancel_all(self) -> None:
        if self._server is not None:
            self._server.close()
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # closed transports release their sockets


def _build_runtime(args) -> tuple[NodeRuntime, WitnessRoster, int]:
    roster = load_roster(args.roster)
    _, group, keypair, _ = load_keyfile(args.key)
    if group is not roster.group:
        raise UsageError("key file group does not match roster group")
    index = next((i for i, e in enumerate(roster.entries)
                  if e.key.public == keypair.public), None)
    if index is None:
        raise UsageError("key file does not match any roster entry")
    listen = args.listen or roster.entries[index].endpoint
    if listen is None:
        raise UsageError("no listen address (use --listen or roster endpoints)")
    hook = engine.make_validation_hook(args.policy) if getattr(args, "policy", None) else None
    node = SigningNode(index, roster, keypair, random.SystemRandom(),
                       validation_hook=hook)
    return NodeRuntime(node, roster, listen), roster, index


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    group = group_by_name(args.group)
    rng = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    keypair = gen_key(group, rng)
    ssk = prove_possession(keypair, rng)
    witness_id = bytes.fromhex(args.id) if args.id \
        else hashlib.sha256(keypair.public.encode()).digest()[:8]
    save_keyfile(args.out, args.group, keypair, ssk, witness_id)
    print(f"wrote {args.out} (public {keypair.public.encode().hex()})")
    return EXIT_OK


def cmd_roster_init(args) -> int:
    entries = []
    endpoints = args.endpoints.split(",") if args.endpoints else []
    group_name = None
    for i, path in enumerate(args.keys):
        obj, group, keypair, ssk = load_keyfile(path)
        if group_name is None:
            group_name = obj["group"]
        elif obj["group"] != group_name:
            raise UsageError("key files use different groups")
        entries.append(RosterEntry(
            witness_id=bytes.fromhex(obj["id-hex"]),
            key=ssk,
            weight=1,
            endpoint=endpoints[i] if i < len(endpoints) else None,
        ))
    roster = build_roster(entries, leader_index=args.leader, version=args.version)
    save_roster(roster, args.out)
    print(f"wrote {args.out} ({len(entries)} witnesses, leader {args.leader})")
    return EXIT_OK


def _predicate_from_args(args):
    if getattr(args, "predicate", None):
        return load_predicate(args.predicate)
    if getattr(args, "threshold", None) is not None:
        return Threshold(args.threshold)
    return Threshold(1)


def cmd_run_witness(args) -> int:
    runtime, roster, index = _build_runtime(args)
    try:
        runtime.start_server()
        print(f"witness {index} listening on {args.listen or roster.entries[index].endpoint}")
        runtime.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        runtime.shutdown()
    return EXIT_OK


def _round_config(args, round_number: int,
                  timing: int = engine.STATEMENT_AT_ANNOUNCE) -> RoundConfig:
    """The round that the `--mode`, `--branching`, ... flags ask for."""
    return RoundConfig(round_number=round_number, mode=multisig.MODE_NAMES[args.mode],
                       statement_timing=timing, branching=args.branching,
                       max_restarts=args.max_restarts,
                       min_participants=args.min_participants, rtt_hint=args.rtt)


def cmd_sign(args) -> int:
    runtime, roster, index = _build_runtime(args)
    try:
        if index != roster.leader_index:
            raise UsageError("the signing key must belong to the roster leader")
        with open(args.statement_file, "rb") as fh:
            statement = fh.read()
        runtime.start_server()
        # round numbers default to wall time so a fresh leader process never
        # collides with witness state left over from an earlier round
        round_number = args.round if args.round is not None else int(time.time())
        result = runtime.run_leader_round(_round_config(args, round_number), statement,
                                          timeout=args.timeout)
    except TimeoutError:
        print("round timed out", file=sys.stderr)
        return EXIT_PROTOCOL
    finally:
        runtime.shutdown()
    if result is None or not result.ok:
        print(f"round failed: {result.reason if result else 'no result'}",
              file=sys.stderr)
        return EXIT_PROTOCOL
    with open(args.out, "wb") as fh:
        fh.write(result.signature.to_bytes())
    pset = result.signature.participation
    print(f"signature written to {args.out} "
          f"(present {pset.count - len(pset.response_absent)}/{pset.count})")
    return EXIT_OK


def cmd_verify(args) -> int:
    roster = load_roster(args.roster)
    with open(args.statement_file, "rb") as fh:
        statement = fh.read()
    with open(args.sig, "rb") as fh:
        sig = CollectiveSignature.from_bytes(fh.read(), len(roster))
    result = multisig.verify_collective(roster, statement, sig, _predicate_from_args(args))
    print(result.diagnostics())
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def cmd_run_leader(args) -> int:
    """Timestamp service: batch stamp requests each period and cosign the
    round record with a late-bound statement."""
    runtime, roster, index = _build_runtime(args)
    rounds = itertools.count(args.round_base if args.round_base is not None
                             else int(time.time()))

    def signer(statement: bytes):
        config = _round_config(args, next(rounds), engine.STATEMENT_AT_CHALLENGE)
        result = runtime.run_leader_round(config, lambda: statement,
                                          timeout=args.timeout)
        if result is None or not result.ok:
            # round_close chains this as the cause of its TimestampError
            raise RuntimeError(result.reason if result else "no result")
        return result.signature

    authority = TimestampAuthority(signer)
    try:
        if index != roster.leader_index:
            raise UsageError("the leader key must belong to the roster leader")
        runtime.stamps = authority
        runtime.start_server()
        print(f"timestamp leader up; round every {args.period}s")
        while True:
            runtime.drain(args.period)
            if authority.pending_count:
                try:
                    record, receipts = authority.round_close(time.time())
                except timestamp.TimestampError as exc:
                    logger.warning("round failed: %s: %s", exc, exc.__cause__)
                    # Refuse the batch now, rather than retry it every
                    # period while its clients wait out their timeouts.
                    for digest in authority.drop_pending():
                        runtime.reply_stamp(digest, b"", ok=False)
                    continue
                for digest, receipt in receipts.items():
                    runtime.reply_stamp(digest, receipt.to_bytes())
                print(f"round {record.round_number}: {len(receipts)} receipts")
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        runtime.shutdown()


def cmd_stamp(args) -> int:
    roster = load_roster(args.roster)
    if args.hash:
        digest = bytes.fromhex(args.hash)
    else:
        with open(args.file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
    if len(digest) != 32:
        raise UsageError("hash must be 32 bytes of hex")
    with socket.create_connection(_parse_addr(args.connect), timeout=args.timeout) as sock:
        sock.sendall(encode_message(StampRequest(digest=digest), roster.group))
        frame = read_frame(sock)
    if frame is None:
        print("no reply from stamp server", file=sys.stderr)
        return EXIT_PROTOCOL
    reply = decode_frame_body(frame, roster.group, len(roster))
    if not isinstance(reply, StampReply) or not reply.ok:
        print("stamp request rejected", file=sys.stderr)
        return EXIT_PROTOCOL
    with open(args.out, "wb") as fh:
        fh.write(reply.payload)
    print(f"receipt written to {args.out}")
    return EXIT_OK


def cmd_stamp_verify(args) -> int:
    roster = load_roster(args.roster)
    with open(args.receipt, "rb") as fh:
        receipt = StampReceipt.from_bytes(fh.read(), len(roster))
    digest = bytes.fromhex(args.hash)
    result = verify_receipt(roster, digest, receipt, _predicate_from_args(args))
    print(result.diagnostics())
    if result.ok:
        print(f"round {receipt.record.round_number} at t={receipt.record.wall_time}")
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def cmd_simulate(args) -> int:
    configs = simnet.load_sweep(args.sweep)
    if args.seed is not None:
        configs = [replace(cfg, seed=args.seed) for cfg in configs]
    all_metrics = []
    for cfg in configs:
        all_metrics.extend(simnet.run_sim(cfg))
    report = simnet.emit_report(all_metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out} ({len(all_metrics)} rows)")
    else:
        sys.stdout.write(report)
    return EXIT_OK


def cmd_tree_dump(args) -> int:
    failed = frozenset(int(x) for x in args.fail.split(",") if x) if args.fail \
        else frozenset()
    if args.roster:
        roster = load_roster(args.roster)
        topo = tree_for(len(roster), args.branching, roster.leader_index, failed)
    else:
        topo = tree_for(args.n, args.branching, args.leader, failed)
    print(topo.dump())
    print(f"depth {topo.depth}, {len(topo.members)} members")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cosi",
                                     description="collective witness-cosigning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a witness keypair")
    p.add_argument("--group", choices=("prod", "toy"), default="prod")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--id", help="witness id (hex); defaults to a key fingerprint")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("roster-init", help="assemble a roster file from key files")
    p.add_argument("--keys", nargs="+", required=True)
    p.add_argument("--leader", type=int, default=0)
    p.add_argument("--version", type=int, default=0)
    p.add_argument("--endpoints", help="comma-separated host:port per witness")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_roster_init)

    def _node_args(p):
        p.add_argument("--roster", required=True)
        p.add_argument("--key", required=True)
        p.add_argument("--listen")

    def _round_args(p):
        _node_args(p)
        p.add_argument("--mode", choices=sorted(multisig.MODE_NAMES), default="restart")
        p.add_argument("--branching", type=int, default=3)
        p.add_argument("--max-restarts", type=int, default=2)
        p.add_argument("--min-participants", type=int, default=1)
        p.add_argument("--rtt", type=float, default=0.05)
        p.add_argument("--timeout", type=float, default=60.0)

    p = sub.add_parser("run-witness", help="serve as a cosigning witness")
    _node_args(p)
    p.add_argument("--policy", choices=sorted(engine.HOOKS), default="accept-all")
    p.set_defaults(fn=cmd_run_witness)

    p = sub.add_parser("sign", help="run one collective signing round as leader")
    _round_args(p)
    p.add_argument("--statement-file", required=True)
    p.add_argument("--round", type=int, help="round number (default: wall time)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sign)

    p = sub.add_parser("verify", help="verify a collective signature")
    p.add_argument("--roster", required=True)
    p.add_argument("--statement-file", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--predicate", help="JSON predicate file")
    p.add_argument("--threshold", type=int)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("run-leader", help="run the batching timestamp authority")
    _round_args(p)
    p.add_argument("--period", type=float, default=10.0)
    p.add_argument("--round-base", type=int,
                   help="first round number (default: wall time)")
    p.set_defaults(fn=cmd_run_leader)

    p = sub.add_parser("stamp", help="submit a hash for timestamping")
    p.add_argument("--roster", required=True)
    p.add_argument("--connect", required=True)
    p.add_argument("--hash", help="32-byte hex digest to stamp")
    p.add_argument("--file", help="file to hash and stamp")
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(fn=cmd_stamp)

    p = sub.add_parser("stamp-verify", help="verify a timestamp receipt")
    p.add_argument("--roster", required=True)
    p.add_argument("--receipt", required=True)
    p.add_argument("--hash", required=True)
    p.add_argument("--predicate")
    p.add_argument("--threshold", type=int)
    p.set_defaults(fn=cmd_stamp_verify)

    p = sub.add_parser("simulate", help="run deterministic protocol simulations")
    p.add_argument("--sweep", required=True, help="sweep configuration JSON")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.add_argument("--seed", type=int, help="override every entry's seed")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("tree-dump", help="print the deterministic spanning tree")
    p.add_argument("--n", type=int)
    p.add_argument("--roster")
    p.add_argument("--branching", type=int, default=3)
    p.add_argument("--leader", type=int, default=0)
    p.add_argument("--fail", help="comma-separated failed indices")
    p.set_defaults(fn=cmd_tree_dump)

    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to `sys.stderr` as it is at that moment, so a
    handler installed while stderr was redirected never writes to a stream
    closed since."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


def main(argv=None) -> int:
    root = logging.getLogger()
    if not any(isinstance(h, _StderrHandler) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s"))
        root.addHandler(handler)
    root.setLevel(os.environ.get("COSI_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tree-dump" and not (args.n or args.roster):
        parser.error("tree-dump needs --n or --roster")
    if args.command == "stamp" and not (args.hash or args.file):
        parser.error("stamp needs --hash or --file")
    try:
        return args.fn(args)
    except (UsageError, OSError, ValueError, engine.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
