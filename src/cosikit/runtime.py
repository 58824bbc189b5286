"""Framed-TCP runtime hosting one SigningNode.

Transport is `wire`'s length-prefixed frames over plain TCP; witness
authenticity comes from the signatures themselves, so there is no TLS. Each
node's runtime is one asyncio event loop on the thread that drives it: the
loop serves inbound frames, dials one connection per outgoing message and
runs the engine's timers. The node's effects reach the runtime through
`engine.apply_effects`, as they reach the simulator.
"""

from __future__ import annotations

import asyncio
import logging
import time

from .engine import RoundConfig, SigningNode, apply_effects
from .timestamp import TimestampAuthority
from .wire import StampReply, StampRequest, decode_frame_body, encode_message, read_frame_async

logger = logging.getLogger("cosikit.runtime")


class UsageError(Exception):
    """A bad argument or configuration value, such as an address."""


def parse_addr(addr: str | None) -> tuple[str, int]:
    host, _, port = (addr or "").rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"bad address {addr!r}, expected host:port")
    return host, int(port)


class NodeRuntime:
    """Hosts a SigningNode on one asyncio event loop.

    The loop runs only inside drain, serve_forever and run_leader_round, on
    the calling thread; in between, arrivals wait in socket buffers. Inbound
    frames go straight to the node, stamp requests straight to `stamps`, and
    a stamp reply, which only a client reads, is dropped with a warning.
    Each message the node sends is a task that opens one connection and
    writes one frame, each timer is a `call_later`, and a finished round
    resolves the future that run_leader_round waits on. A peer whose roster
    endpoint is missing, malformed or unreachable counts in `dial_failures`.
    The roster and group are the node's.
    """

    def __init__(self, node: SigningNode, listen: str):
        self.node = node
        self.listen_addr = parse_addr(listen)
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
            while (frame := await read_frame_async(reader)) is not None:
                msg = decode_frame_body(frame, self.node.group, len(self.node.roster))
                if isinstance(msg, StampRequest):
                    if self.stamps is None:  # not serving timestamps
                        writer.write(encode_message(StampReply(ok=False, payload=b""),
                                                    self.node.group))
                        return
                    # hold the connection open for the round's reply
                    self._stamp_conns.setdefault(msg.digest, []).append(writer)
                    self.stamps.submit(msg.digest)
                    while await asyncio.wait_for(reader.read(4096), 300):
                        pass
                    return
                if isinstance(msg, StampReply):  # a client's frame, not a peer's
                    logger.warning("node %d: dropping StampReply from %s", self.node.index,
                                   writer.get_extra_info("peername"))
                    continue
                self._react(self.node.handle_message, msg)
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            logger.warning("dropped connection from %s: %r",
                           writer.get_extra_info("peername"), exc)
        except asyncio.CancelledError:
            pass  # shutdown; re-raised, Python 3.11's start_server logs it as an error
        finally:
            writer.close()

    async def _dial(self, dest: int, msg) -> None:
        endpoint = self.node.roster.entries[dest].endpoint
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_connection(*parse_addr(endpoint)), 5)
            writer.write(encode_message(msg, self.node.group))
            writer.close()
            await asyncio.wait_for(writer.wait_closed(), 5)
        except (OSError, UsageError, asyncio.TimeoutError) as exc:
            self.dial_failures[dest] = self.dial_failures.get(dest, 0) + 1
            logger.warning("dial to witness %d (%s) failed: %r", dest, endpoint, exc)

    def reply_stamp(self, digest: bytes, receipt_bytes: bytes, ok: bool = True) -> None:
        frame = encode_message(StampReply(ok=ok, payload=receipt_bytes), self.node.group)
        for writer in self._stamp_conns.pop(digest, []):
            writer.write(frame)
            writer.close()

    # -- the host methods `apply_effects` calls; view activation is
    # surfaced through node.current_view --

    def send(self, src: int, dest: int, msg, now: float) -> None:
        task = self.loop.create_task(self._dial(dest, msg))
        self._dials.add(task)
        task.add_done_callback(self._dials.discard)

    def set_timer(self, node: int, key: tuple, delay: float, now: float) -> None:
        self.loop.call_later(delay, self._react, self.node.on_timer, key)

    def round_done(self, node: int, result, now: float) -> None:
        self.result = result
        if not self._round_done.done():
            self._round_done.set_result(None)

    # -- event loop --

    def _react(self, handler, *args) -> None:
        now = time.time()
        apply_effects(self, self.node.index, handler(*args, now), now)

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
        self._react(self.node.start_round, config, statement)
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
