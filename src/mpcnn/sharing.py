"""Additive and XOR secret shares with pseudorandom zero-sharing.

Share material comes from a ChaCha20 keystream used as a counter-mode PRG
(32-byte key, 16-byte nonce = 8-byte domain tag || 8-byte stream id). The two
parties hold the same pair of session seeds arranged with opposite signs, so
their zero-share streams cancel: P0 draws PRG(s0) - PRG(s1) while P1 draws
PRG(s1) - PRG(s0). Sharing an input is then non-interactive: the holder adds
the value onto its zero share, and its share also keeps the value itself, so
that protocols which take one party's input in the clear (the model holder's
weights in `arith.conv2d` / `arith.matmul`) can use it.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .ring import RingTensor, ShapeMismatch, WORD_BITS
from .transport import Role, Session

SEED_BYTES = 32


def words_to_bytes(t: RingTensor) -> bytes:
    return t.data.astype("<u8").tobytes()


def bytes_to_words(buf: bytes, shape) -> RingTensor:
    arr = np.frombuffer(buf, dtype="<u8").astype(np.uint64)
    return RingTensor(arr.reshape(shape))


class Prg:
    """Deterministic byte stream: ChaCha20(seed, domain) in counter mode."""

    def __init__(self, seed: bytes, domain: bytes):
        if len(seed) != SEED_BYTES:
            raise ValueError("seed must be 32 bytes")
        nonce = hashlib.blake2b(domain, digest_size=8).digest() + bytes(8)
        self._enc = Cipher(algorithms.ChaCha20(seed, nonce), mode=None).encryptor()
        self.words_drawn = 0

    def draw_bytes(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def draw_words(self, shape) -> RingTensor:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(self.draw_bytes(8 * n), dtype="<u8").astype(np.uint64)
        self.words_drawn += n
        return RingTensor(arr.reshape(shape))

    def draw_bits(self, shape) -> RingTensor:
        return RingTensor(self.draw_words(shape).data & np.uint64(1))


def fresh_seed() -> bytes:
    return secrets.token_bytes(SEED_BYTES)


@dataclass
class PrzsSeedPair:
    """Both session seeds, ordered (P0's, P1's). Streams advance in lockstep."""

    seed_a: bytes
    seed_b: bytes

    def stream(self, role: Role, domain: bytes = b"przs") -> "PrzsStream":
        return PrzsStream(self, role, domain)


class PrzsStream:
    def __init__(self, seeds: PrzsSeedPair, role: Role, domain: bytes):
        self.role = role
        self._a = Prg(seeds.seed_a, domain)
        self._b = Prg(seeds.seed_b, domain)

    def draw(self, shape) -> RingTensor:
        a = self._a.draw_words(shape)
        b = self._b.draw_words(shape)
        return a - b if self.role is Role.P0 else b - a


def przs_setup(session: Session) -> PrzsSeedPair:
    """Exchange session seeds; both parties end with the same ordered pair."""
    mine = fresh_seed()
    theirs = session.exchange("przs.setup", mine)
    if session.role is Role.P0:
        return PrzsSeedPair(mine, theirs)
    return PrzsSeedPair(theirs, mine)


# ---------------------------------------------------------------------------
# share containers


@dataclass
class ArithShare:
    """One party's additive share: sum of both tensors is the secret (mod 2^64).

    A share made by `share_input` also records the party that supplied the
    secret (`held_by`), and at that party `clear` is the secret itself. Every
    other op returns a share with neither, because its result is no longer
    one party's input."""

    owner: Role
    t: RingTensor
    held_by: Role | None = None
    clear: RingTensor | None = None

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

    def reshape(self, *shape) -> "ArithShare":
        return ArithShare(self.owner, self.t.reshape(*shape))


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
        """Only P0 folds in a public pattern, else it would cancel."""
        if self.owner is Role.P0:
            return BinShare(self.owner, self.t ^ mask)
        return self


def share_input(przs: PrzsStream, x: RingTensor | None, holder: Role, shape) -> ArithShare:
    """Non-interactive input sharing; only the holder passes x. Both parties'
    shares are marked as held by `holder`, and the holder's share keeps x
    (the caller's tensor, not a copy) as its `clear` value."""
    z = przs.draw(shape)
    if przs.role is holder:
        if x is None or x.shape != tuple(shape):
            raise ShapeMismatch(f"holder must supply tensor of shape {shape}")
        return ArithShare(przs.role, z + x, holder, x)
    return ArithShare(przs.role, z, holder)


def share_public(value: RingTensor, role: Role) -> ArithShare:
    """Degenerate sharing of a public constant: P0 holds it, P1 holds zero."""
    from .ring import zeros

    return ArithShare(role, value if role is Role.P0 else zeros(value.shape))


def reveal(session: Session, share: ArithShare, to: str = "both", tag: str = "reveal") -> RingTensor | None:
    """Reconstruct a shared tensor. to='both' is one symmetric round; a directed
    reveal sends only the counterpart's share."""
    if to == "both":
        other = session.exchange(tag, words_to_bytes(share.t))
        return share.t + bytes_to_words(other, share.shape)
    target = Role.P0 if to == "p0" else Role.P1
    if session.role is target:
        other = session.recv_from_peer(tag)
        return share.t + bytes_to_words(other, share.shape)
    session.send_to_peer(tag, words_to_bytes(share.t))
    return None


def reveal_bin(session: Session, share: BinShare, tag: str = "reveal.bin") -> RingTensor:
    other = session.exchange(tag, words_to_bytes(share.t))
    return share.t ^ bytes_to_words(other, share.shape)


# -- local (non-interactive) share algebra --


def add_public(a: ArithShare, c: RingTensor) -> ArithShare:
    """Only P0 adds the constant; adding at both parties would double it."""
    if a.owner is Role.P0:
        return ArithShare(a.owner, a.t + c)
    return a


def mul_public(a: ArithShare, c) -> ArithShare:
    """Multiply by a public word (int) or elementwise public tensor; both
    parties scale, reconstruction distributes."""
    if isinstance(c, RingTensor):
        return ArithShare(a.owner, a.t * c)
    with np.errstate(over="ignore"):
        return ArithShare(a.owner, RingTensor(a.t.data * np.uint64(c & ((1 << WORD_BITS) - 1))))
