"""The frame format: every message class, its layout, and the frame codec.

A frame is length (4, big-endian) | tag (1) | body; the engine's round
messages and the runtime's stamp frames share one tag space. A message class
states each field's wire kind once, on the field (`view: Annotated[int,
U32]`), and `message` builds its layout from its fields in declaration order;
encoding, `frame_size` and decoding all read that one layout. The records a
message carries are declared the same way: `SubtreeSummary`, and
`CommitException`, whose layout a collective signature writes its exceptions
in too. Decoders accept only what the encoders write, so an accepted frame
re-encodes to its own bytes. `read_frame` and `read_frame_async` read frames
from a socket or a stream. This module imports only `group` and `merkle`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Annotated, Callable, NamedTuple, Optional, get_type_hints

from .group import DecodeError, GroupElement, Reader, Scalar, Signature
from .merkle import DIGEST_SIZE, STEP_SIZE, InclusionProof

if TYPE_CHECKING:  # the simulator loads this module, and needs neither
    import asyncio
    import socket

# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """How one field is written: `encode(value)`, `decode(reader, group)`,
    and its size, `width(group)` for every value or else `size(value, group)`."""

    encode: Callable
    decode: Callable
    width: Optional[Callable] = None
    size: Optional[Callable] = None


def _fixed(width: Callable, read: Callable, encode: Callable = lambda v: v.encode()) -> _Kind:
    """A kind `width(group)` bytes wide, decoded by `read(group, raw)`."""
    return _Kind(encode, lambda r, g: read(g, r.take(width(g))), width)


def _int(n: int, read: Callable = lambda g, raw: int.from_bytes(raw, "big")) -> _Kind:
    """An unsigned big-endian integer of `n` bytes."""
    return _fixed(lambda g: n, read, lambda v: v.to_bytes(n, "big"))


def _digest(value: bytes) -> bytes:
    # the decoder reads exactly DIGEST_SIZE bytes, so no other length is written
    if len(value) != DIGEST_SIZE:
        raise ValueError(f"a digest is {DIGEST_SIZE} bytes, not {len(value)}")
    return value


def _read_flag(group, raw: bytes) -> bool:
    if raw[0] > 1:
        raise DecodeError(f"flag byte {raw[0]} is neither 0 nor 1")
    return raw[0] == 1


# The one empty index set, shared by every message, record and round state
# that names nobody, as most absence, failure, refusal and pending sets do:
# each fresh empty frozenset takes 216 bytes, and a node keeps
# `engine.ROUND_STATES_KEPT` rounds of state. A round state's index sets are
# frozensets, rebound rather than mutated, and pass through `_frozen` wherever
# they may come out empty.
_NOBODY: frozenset[int] = frozenset()


def _frozen(indices) -> frozenset[int]:
    return frozenset(indices) if indices else _NOBODY


def _read_index_set(r: Reader, group) -> frozenset[int]:
    indices = [r.index() for _ in range(r.count())]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DecodeError("index set not strictly ascending")
    return _frozen(indices)


def _records(layout: _Layout) -> _Kind:
    """A u16 record count, at most the roster size (`Reader.count`), then
    each record by `layout`, in the order held."""
    return _Kind(
        lambda v: len(v).to_bytes(2, "big") + b"".join([layout.encode(rec) for rec in v]),
        lambda r, g: tuple([layout.decode(r, g) for _ in range(r.count())]),
        size=lambda v, g: 2 + layout.size(v, g))


U8, U16, U32 = _int(1), _int(2), _int(4)
INDEX = U32._replace(decode=lambda r, g: r.index())  # below the roster size
FLAG = _int(1, _read_flag)
DIGEST = _fixed(lambda g: DIGEST_SIZE, lambda g, raw: raw, _digest)
ELEMENT = _fixed(lambda g: g.element_size, lambda g, raw: g.decode_element(raw))
SCALAR = _fixed(lambda g: g.scalar_size, lambda g, raw: g.decode_scalar(raw))
SIGNATURE = _fixed(lambda g: g.element_size + g.scalar_size, Signature.decode)
# a u16 count, at most the roster size, then the indices strictly ascending
INDEX_SET = _Kind(lambda v: len(v).to_bytes(2, "big")
                  + b"".join([i.to_bytes(4, "big") for i in sorted(v)]),
                  _read_index_set, size=lambda v, g: 2 + 4 * len(v))
BYTES = _Kind(lambda v: len(v).to_bytes(4, "big") + v, lambda r, g: r.take(r.u32()),
              size=lambda v, g: 4 + len(v))
# a flag byte, 0 for None; after a 1, length-prefixed bytes
OPT_BYTES = _Kind(lambda v: b"\x00" if v is None else b"\x01" + BYTES.encode(v),
                  lambda r, g: BYTES.decode(r, g) if FLAG.decode(r, g) else None,
                  size=lambda v, g: 1 if v is None else 5 + len(v))


def read_commit_proof(r: Reader) -> InclusionProof:
    """The commit-tree proof at the reader's offset, in frames and signatures
    alike: a u16 step count, at most the roster size (`Reader.count`), then
    the steps, each a side byte of 0 or 1 and a digest. An honest path has
    fewer steps than witnesses: each node on it with k contributors adds
    ceil(log2(k + 1)) <= k steps, and no witness contributes to two nodes,
    nor the leader to any."""
    start = r.off
    r.take(r.count() * STEP_SIZE)
    return InclusionProof.decode(r.data[start:r.off])


PROOF = _Kind(lambda v: v.encode(), lambda r, g: read_commit_proof(r),
              size=lambda v, g: len(v.data))


class _Layout:
    """A wire type's fields in order, as (name, kind) pairs, and the class
    `cls` that decoding builds from them."""

    def __init__(self, *fields: tuple, cls):
        self.fields = fields
        self._get = [(attrgetter(name), kind) for name, kind in fields]
        self._make = cls
        self._split: dict = {}  # group -> (sum of the fixed widths, variable fields)

    def encode(self, obj) -> bytes:
        return b"".join([kind.encode(get(obj)) for get, kind in self._get])

    def size(self, objs, group) -> int:
        """The bytes that encoding each of `objs` writes, counted without
        encoding: the fixed widths are summed once per group."""
        try:
            fixed, variable = self._split[group]
        except KeyError:
            fixed, variable = self._split[group] = (
                sum(kind.width(group) for _, kind in self._get if kind.width),
                [(get, kind.size) for get, kind in self._get if not kind.width])
        total = fixed * len(objs)
        for get, size in variable:
            for obj in objs:
                total += size(get(obj), group)
        return total

    def decode(self, r: Reader, group):
        return self._make(*[kind.decode(r, group) for _, kind in self._get])


# tag byte -> message class, filled by `message`
_MESSAGE_TYPES: dict[int, type] = {}


def message(cls=None, *, tag: Optional[int] = None):
    """Make `cls` a frozen, slotted dataclass whose `layout` is its fields in
    declaration order, each with the kind its annotation carries
    (`Annotated[type, KIND]`). With `tag`, a frame whose tag byte is `tag`
    decodes to it."""

    def build(cls):
        cls = dataclass(frozen=True, slots=True)(cls)
        hints = get_type_hints(cls, include_extras=True)
        cls.layout = _Layout(*[(f.name, hints[f.name].__metadata__[0]) for f in fields(cls)],
                             cls=cls)
        if tag is not None:
            cls.tag = tag
            _MESSAGE_TYPES[tag] = cls
        return cls

    return build if cls is None else build(cls)


# ---------------------------------------------------------------------------
# Messages; a frame's tag byte is its message class's `tag`
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Routed:
    """The header of a message within a round: its session and its sender."""

    view: Annotated[int, U32]
    round: Annotated[int, U32]
    attempt: Annotated[int, U16]
    sender: Annotated[int, INDEX]


@message(tag=1)
class Announce:
    view: Annotated[int, U32]
    round: Annotated[int, U32]
    attempt: Annotated[int, U16]
    mode: Annotated[int, U8]
    timing: Annotated[int, U8]
    branching: Annotated[int, U16]
    timeout_ms: Annotated[int, U32]
    topology_digest: Annotated[bytes, DIGEST]
    failed: Annotated[frozenset[int], INDEX_SET]
    sender: Annotated[int, INDEX]
    statement: Annotated[Optional[bytes], OPT_BYTES] = None


@message
class SubtreeSummary:
    """The head of one commit-tree node, the same in memory and on the wire: a
    node keeps its own and its contributors', and a no-restart commit carries
    its contributors', for the recipient to build exceptions and bridge past."""

    index: Annotated[int, INDEX]
    commit: Annotated[Optional[GroupElement], ELEMENT]  # its own; none in restart mode
    aggregate: Annotated[GroupElement, ELEMENT]  # its subtree aggregate commit
    tree_hash: Annotated[Optional[bytes], DIGEST]  # none in restart mode: no commit tree
    absent: Annotated[frozenset[int], INDEX_SET]  # commit-phase absences within its subtree


@message(tag=2)
class Commit(_Routed):  # a no-restart commit
    aggregate: Annotated[GroupElement, ELEMENT]  # subtree aggregate commit
    commit: Annotated[GroupElement, ELEMENT]  # sender's individual commit
    tree_hash: Annotated[bytes, DIGEST]
    absent: Annotated[frozenset[int], INDEX_SET]  # commit-phase absences in its subtree
    failed: Annotated[frozenset[int], INDEX_SET]
    refused: Annotated[frozenset[int], INDEX_SET]
    summaries: Annotated[tuple[SubtreeSummary, ...], _records(SubtreeSummary.layout)]


@message(tag=9)
class RestartCommit(_Routed):  # all that a restart node reads of a child's subtree
    aggregate: Annotated[GroupElement, ELEMENT]
    absent: Annotated[frozenset[int], INDEX_SET]
    failed: Annotated[frozenset[int], INDEX_SET]
    refused: Annotated[frozenset[int], INDEX_SET]


@message(tag=3)
class Challenge(_Routed):  # a no-restart challenge
    challenge: Annotated[Scalar, SCALAR]
    aggregate_commit: Annotated[GroupElement, ELEMENT]
    commit_root: Annotated[bytes, DIGEST]
    statement: Annotated[Optional[bytes], OPT_BYTES]
    proof: Annotated[InclusionProof, PROOF]  # the recipient's subtree hash up to the root


@message(tag=10)
class RestartChallenge(_Routed):
    challenge: Annotated[Scalar, SCALAR]
    aggregate_commit: Annotated[GroupElement, ELEMENT]
    statement: Annotated[Optional[bytes], OPT_BYTES]


@message
class CommitException:
    """A witness that committed but never responded: its individual commit,
    and the audit path anchoring that commit under a commit-tree root. A
    Response carries these records, and a collective signature writes them
    the same way."""

    index: Annotated[int, INDEX]
    commit: Annotated[GroupElement, ELEMENT]
    proof: Annotated[InclusionProof, PROOF]


@message(tag=4)
class Response(_Routed):
    aggregate_response: Annotated[Scalar, SCALAR]
    absent: Annotated[frozenset[int], INDEX_SET]  # response-phase dropouts in its subtree
    failed: Annotated[frozenset[int], INDEX_SET]
    refused: Annotated[frozenset[int], INDEX_SET]
    # proofs anchored at the sender's hash
    exceptions: Annotated[tuple[CommitException, ...], _records(CommitException.layout)]


@message(tag=5)
class Refuse(_Routed):
    reason: Annotated[int, U8]


@message(tag=6)
class ViewChange:
    proposed_view: Annotated[int, U32]
    signer: Annotated[int, INDEX]
    signature: Annotated[Signature, SIGNATURE]


@message(tag=7)
class StampRequest:  # a timestamp client's, to the runtime
    digest: Annotated[bytes, DIGEST]


@message(tag=8)
class StampReply:
    ok: Annotated[bool, FLAG]
    payload: Annotated[bytes, BYTES]


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def encode_message(msg, group) -> bytes:
    """Length-prefixed frame: length (4, big-endian) | tag (1) | body."""
    body = msg.layout.encode(msg)
    return (1 + len(body)).to_bytes(4, "big") + bytes([msg.tag]) + body


def frame_size(msg, group) -> int:
    """`len(encode_message(msg, group))`, counted from the message's layout
    without building the frame."""
    return 5 + msg.layout.size((msg,), group)


def decode_frame_body(data: bytes, group, witness_count: int):
    """Decode the tag+body part of a frame (without the length prefix).

    `witness_count` is the roster size. A record count above it is rejected
    before any record is decoded, and a witness index at or past it (a
    sender's too) before any group element that follows it.
    """
    r = Reader(data, witness_count)
    tag = r.u8()
    cls = _MESSAGE_TYPES.get(tag)
    if cls is None:
        raise DecodeError(f"unknown message tag {tag}")
    msg = cls.layout.decode(r, group)
    r.done()
    return msg


def _frame_length(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length == 0 or length > 64 * 1024 * 1024:
        raise ConnectionError(f"bad frame length {length}")
    return length


def read_frame(sock: socket.socket) -> bytes | None:
    """The tag+body of the next frame on `sock`: None at a clean EOF between
    frames."""
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


async def read_frame_async(reader: asyncio.StreamReader) -> bytes | None:
    """read_frame for a stream: None at a clean EOF between frames."""
    header = None
    try:
        header = await reader.readexactly(4)
        return await reader.readexactly(_frame_length(header))
    except EOFError as exc:  # asyncio.IncompleteReadError
        if header is None and not exc.partial:
            return None
        raise ConnectionError("truncated frame") from None
