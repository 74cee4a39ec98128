"""Additive and XOR secret shares, the wire codec and the dealer's PRG.

A shared input is the value at its holder and zero at the peer
(`share_input`). Each input has one holder: P0's sensor window and P1's
model weights. Masking an input with a pseudo-random zero sharing, as
CrypTen does (Knott et al., NeurIPS 2021), hides nothing between two
parties: such a sharing hides a value only from a party that lacks one of
its seeds, which needs three parties or more. With two, each party can
compute the other's zero share, so its view of a run with the mask is its
view without it plus shares it computes itself. Privacy comes instead from
the masks on every message, which are dealer randomness that the receiver
lacks: Beaver's a and b, gtz's word a, the select's a and r, and the held
linear layer's a0 and b. A select of gtz's own operand reuses gtz's a,
whose single opening of x - a serves both, and masks only its bit with a
fresh r; a select of any other operand draws its own a, since the two
openings of one a would differ by the operands' difference. The holder's
share is the value itself, so protocols which take one party's input in
the clear (the model holder's weights in `arith.conv2d` / `arith.matmul`)
read it there. It is the caller's tensor, not a copy; no op writes share
words in place.

The dealer's share material comes from a ChaCha20 keystream used as a
counter-mode PRG (`Prg`: 32-byte key; 16-byte nonce = 8-byte domain hash ||
8 zero bytes, which `cryptography` reads as a 4-byte little-endian block
counter || 12-byte nonce, so the hash's first 4 bytes set the stream's
starting block; kept, as any other layout would change every mask).

`words_to_bytes(t, w)` / `bytes_to_words(buf, shape, w)` are the one wire
codec, for parties and dealer alike: whole words at w = 64, each word's low
w / 8 bytes at other multiples of 8, one bit per element packed 8 per byte
at w = 1; a buffer not `packed_len(shape, w)` long raises `ProtocolError`.
`open_shares` opens shares in one exchange, each at its width, rebuilt by
its own algebra (^ for a BinShare, + for an ArithShare) mod 2^w, as is a
directed `reveal`. A protocol kept in flight (`PendingBit`, the comparison's
bit) puts its next opening into the frame of each later call, so
independent openings share rounds.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .ring import WORD_BITS, RingTensor, ShapeMismatch, zeros
from .transport import ProtocolError, Role, Session

SEED_BYTES = 32
_ZEROS = memoryview(bytes(1 << 20))  # read-only plaintext of the keystream, 1 MB per update
_CASTS = {8: "<u1", 16: "<u2", 32: "<u4", WORD_BITS: "<u8"}  # wire widths that one numpy cast packs


def packed_len(shape, w: int = WORD_BITS) -> int:
    """Bytes of a tensor of `shape` on the wire at width w."""
    if w != 1 and (w % 8 or not 8 <= w <= WORD_BITS):
        raise ValueError(f"cannot open {w} bits: expected 1 or a multiple of 8 up to 64")
    n = math.prod(shape)
    return -(-n // 8) if w == 1 else w // 8 * n


def words_to_bytes(t: RingTensor, w: int = WORD_BITS) -> bytes:
    """The low w bits of each word of t, as they go on the wire."""
    packed_len((), w)  # refuses a width the codec cannot pack
    if w == 1:
        return np.packbits(t.data.astype(np.uint8) & 1, bitorder="little").tobytes()
    if w in _CASTS:  # a narrowing cast keeps the low bits
        return t.data.astype(_CASTS[w], copy=False).tobytes()
    return np.ascontiguousarray(t.data, "<u8").view(np.uint8).reshape(-1, 8)[:, : w // 8].tobytes()


def bytes_to_words(buf, shape, w: int = WORD_BITS) -> RingTensor:
    """Words of `shape` from buf as `words_to_bytes(t, w)` packed them,
    zero-extended; ProtocolError unless buf is packed_len(shape, w) bytes."""
    want = packed_len(shape, w)
    if len(buf) != want:
        raise ProtocolError(f"{len(buf)} bytes for {w}-bit words of shape {shape}: expected {want}")
    n = math.prod(shape)
    if w == 1:
        arr = np.unpackbits(np.frombuffer(buf, np.uint8), count=n, bitorder="little")
    elif w in _CASTS:
        arr = np.frombuffer(buf, _CASTS[w])
    else:
        arr = np.zeros((n, 8), np.uint8)
        arr[:, : w // 8] = np.frombuffer(buf, np.uint8).reshape(n, w // 8)
        arr = arr.view("<u8")
    return RingTensor(arr.astype(np.uint64).reshape(shape))


class Prg:
    """Deterministic byte stream: ChaCha20(seed, domain) in counter mode."""

    def __init__(self, seed: bytes, domain: bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError("seed must be 32 bytes")
        nonce = hashlib.blake2b(domain, digest_size=8).digest() + bytes(8)
        self._enc = Cipher(algorithms.ChaCha20(seed, nonce), mode=None).encryptor()

    def draw_bytes(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def draw_words(self, shape) -> RingTensor:
        """The next 8 bytes of the stream per word, little-endian: zeros from
        the shared `_ZEROS` encrypted straight into the output array, so
        the array is the one allocation and nothing is copied."""
        n = math.prod(shape)
        arr = np.empty(n, dtype="<u8")
        buf = arr.view(np.uint8)
        for off in range(0, buf.size, len(_ZEROS)):
            part = buf[off : off + len(_ZEROS)]
            self._enc.update_into(_ZEROS[: part.size], part)
        return RingTensor(arr.astype(np.uint64, copy=False).reshape(shape))

    def draw_bits(self, shape) -> RingTensor:
        return RingTensor(self.draw_words(shape).data & np.uint64(1))


def fresh_seed() -> bytes:
    return secrets.token_bytes(SEED_BYTES)


# ---------------------------------------------------------------------------
# share containers


@dataclass
class ArithShare:
    """One party's additive share: sum of both tensors is the secret (mod 2^64).

    A share made by `share_input` also records the party that supplied the
    secret (`held_by`), at which `t` is the secret itself. Every other op
    returns a share without it, because its result is no longer one party's
    input."""

    owner: Role
    t: RingTensor
    held_by: Role | None = None

    @property
    def shape(self):
        return self.t.shape

    def _check(self, other: "ArithShare"):
        if not isinstance(other, ArithShare):
            raise TypeError(f"cannot combine an ArithShare with a {type(other).__name__}")
        if self.owner is not other.owner:
            raise ValueError("mixing shares of different parties")

    def __add__(self, other: "ArithShare") -> "ArithShare":
        self._check(other)
        return ArithShare(self.owner, self.t + other.t)

    def __sub__(self, other: "ArithShare") -> "ArithShare":
        self._check(other)
        return ArithShare(self.owner, self.t - other.t)

    def __neg__(self) -> "ArithShare":
        return ArithShare(self.owner, -self.t)


@dataclass
class BinShare:
    """One party's XOR share: xor of both tensors is the secret bit pattern."""

    owner: Role
    t: RingTensor

    @property
    def shape(self):
        return self.t.shape

    def __xor__(self, other: "BinShare") -> "BinShare":
        if not isinstance(other, BinShare):
            raise TypeError(f"cannot combine a BinShare with a {type(other).__name__}")
        if self.owner is not other.owner:
            raise ValueError("mixing shares of different parties")
        return BinShare(self.owner, self.t ^ other.t)

    def shift_left(self, k: int) -> "BinShare":
        return BinShare(self.owner, self.t.shift_left(k))

    def and_public(self, mask: RingTensor) -> "BinShare":
        return BinShare(self.owner, self.t & mask)

    def xor_public(self, mask: RingTensor) -> "BinShare":
        """The one rule for a public term of a XOR sharing (an AND gate's
        e & f): only P0 folds it in, else it would cancel."""
        if self.owner is Role.P0:
            return BinShare(self.owner, self.t ^ mask)
        return self


def share_input(role: Role, x: RingTensor | None, holder: Role, shape) -> ArithShare:
    """Non-interactive input sharing; only the holder passes x. The holder's
    share is x itself (the caller's tensor, not a copy) and the peer's is
    zero; both are marked as held by `holder`."""
    if role is holder:
        if x is None or x.shape != tuple(shape):
            raise ShapeMismatch(f"holder must supply tensor of shape {shape}")
        return ArithShare(role, x, holder)
    return ArithShare(role, zeros(shape), holder)


def share_public(value: RingTensor, role: Role) -> ArithShare:
    """Degenerate sharing of a public constant: P0 holds it, P1 holds zero.
    The one rule for a public term of an additive sharing (a constant, a
    Beaver product's e*d, max pooling's pad word): added at both parties, it
    would count twice."""
    return ArithShare(role, value if role is Role.P0 else zeros(value.shape))


def _opening(tag: str, shares: list, widths: list | None) -> tuple:
    """(tag, shares, widths, parts): an opening, each share packed at its
    width. Packing reads every share and refuses a bad width before sending."""
    widths = widths or [WORD_BITS] * len(shares)
    return tag, shares, widths, [words_to_bytes(s.t, w) for s, w in zip(shares, widths, strict=True)]


def _reconstruct(share: ArithShare | BinShare, theirs, w: int) -> RingTensor:
    """`share` opened with the peer's share packed at width w: ^ for a
    BinShare (so a PendingBit too), + for an ArithShare, mod 2^w."""
    other = bytes_to_words(theirs, share.shape, w)
    v = share.t ^ other if isinstance(share, BinShare) else share.t + other
    return v if w == WORD_BITS else RingTensor(v.data & np.uint64((1 << w) - 1))


def _exchange(session: Session, openings: list) -> list:
    """Open every opening in one exchange, a merged frame if there are
    several; returns each one's public RingTensors."""
    got = memoryview(session.exchange([tag for tag, _, _, _ in openings],
                                      [b"".join(parts) for _, _, _, parts in openings]))
    out, off = [], 0
    for _, shares, widths, parts in openings:
        out.append([])
        for s, w, part in zip(shares, widths, parts):
            out[-1].append(_reconstruct(s, got[off : off + len(part)], w))
            off += len(part)
    return out


def open_shares(session: Session, tag: str, shares: list, widths: list | None = None) -> list:
    """Open shares in one exchange; returns their public RingTensors, each
    reconstructed by its own algebra (+ for an ArithShare, ^ for a BinShare)
    and reduced mod 2^w. Both reduce mod any power of two, so each share
    crosses the wire packed at w, its entry in `widths` (64 by default).

    The next opening of every protocol in flight in the session (see
    `PendingBit`) rides in the same frame and round."""
    mine = _opening(tag, shares, widths)  # a pending bit among the shares runs its own openings first
    riders = list(session.in_flight)
    opened = _exchange(session, [mine] + [r.step for r in riders])
    for r, got in zip(riders, opened[1:]):
        r.advance(got)
    return opened[0]


class PendingBit(BinShare):
    """A XOR-shared bit (0/1 words) whose protocol is still in flight.

    `steps(*args)` makes a generator that yields one opening at a time as
    (tag, shares, widths), receives the opened tensors, and returns the
    bit's BinShare. The bit waits in the session's `in_flight` list and
    runs nothing, fetches nothing and packs nothing until its first opening
    is needed: each later `open_shares` of the session carries its next
    opening, so its rounds ride work that does not read the bit, and
    reading `t`, as `select`, `reveal` and every share op do, runs the
    openings left alone, one round each. Either way it starts with no
    arguments; a consumer that reaches it first may `start` it with its
    own, as `arith.select` does when `operand`, the share the protocol
    compares, is its own operand. Both parties run the same program, so
    they agree on which openings share a frame; if they do not, the
    exchange raises ProtocolError."""

    def __init__(self, session: Session, shape, steps, operand=None):
        self.owner, self._shape, self.operand = session.role, tuple(shape), operand
        self._session, self._make_steps, self._steps, self._step, self._bit = session, steps, None, None, None
        session.in_flight.append(self)

    @property
    def shape(self):
        return self._shape

    @property
    def started(self) -> bool:
        return self._steps is not None

    def start(self, *args):
        """Make the steps from `args` and pack the first opening."""
        self._steps = self._make_steps(*args)
        self._step = _opening(*next(self._steps))

    @property
    def step(self) -> tuple:
        """The next opening, packed; the first need of it starts the bit."""
        if not self.started:
            self.start()
        return self._step

    @property
    def t(self) -> RingTensor:
        while self._bit is None:
            self.advance(_exchange(self._session, [self.step])[0])
        return self._bit.t

    def advance(self, opened: list):
        """Hand the protocol its opened tensors; it prepares its next
        opening, or finishes and leaves the session's `in_flight` list."""
        try:
            self._step = _opening(*self._steps.send(opened))
        except StopIteration as done:
            self._bit, self._step = done.value, None
            self._session.in_flight.remove(self)


def reveal(session: Session, share: ArithShare | BinShare, to: str = "both",
           tag: str = "reveal") -> RingTensor | None:
    """Reconstruct a shared tensor, an ArithShare or a BinShare, by its own
    algebra. to='both' opens it in one symmetric round; a directed reveal
    (to='p0' or 'p1') sends only the counterpart's share."""
    if to == "both":
        return open_shares(session, tag, [share])[0]
    if to not in ("p0", "p1"):
        raise ValueError(f"reveal to {to!r}: expected 'both', 'p0' or 'p1'")
    mine = share.t  # a pending bit finishes its own openings first
    if session.role is (Role.P0 if to == "p0" else Role.P1):
        return _reconstruct(share, session.recv_from_peer(tag), WORD_BITS)
    session.send_to_peer(tag, words_to_bytes(mine))
    return None
