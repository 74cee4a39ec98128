"""Interactive protocols over shares: Beaver multiplication, the model
holder's linear layers, share conversions and comparison.

Round structure (one round = one parallel phase, independent of tensor size):

  beaver_mul                     1   (e and d open together)
  conv2d / matmul                1   (P0's masked input and P1's masked
                                      weight cross in one swap)
  and_gate                       1
  b2a                            1   (all masked bits open together, packed
                                      8 per byte)
  a2b                            7   (1 masked-word opening + 6 AND phases
                                      of the carry-lookahead prefix tree)
  gtz                            8   (1 masked-word opening + 6 AND phases
                                      of the carry-out tree + 1-bit b2a)
  relu                           9   (gtz + one multiplication)
  mux                            1

conv2d and matmul are the client-server linear layer of Delphi (Mishra et
al., USENIX Security 2020), with the dealer in place of homomorphic
encryption: the weight is P1's own input, used in the clear at P1, so only
P0's input share is masked. Each party runs one ring product per layer.

The a2b conversion masks the arithmetic value with one dealt word pair (an
additive and a XOR sharing of the same uniform word), opens the difference
(uniform, so it reveals nothing), and adds the public difference back onto
the XOR-shared mask inside a carry-lookahead adder; only the adder's AND
gates are interactive, giving exactly log2(64) = 6 AND phases. gtz opens the
same masked difference but needs only the sum's top bit, so it computes only
the carry into bit 63: a bit-sliced prefix tree over lanes 0..62 whose
groups halve at each of its 6 levels (118 bit-ANDs per element, against
a2b's 768).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dealer import HeldTriple, TripleSource
from .ring import (
    ConvGeometry,
    FixedPointConfig,
    RingTensor,
    ShapeMismatch,
    WORD_BITS,
    conv2d_ring,
    matmul_ring,
)
from .sharing import ArithShare, BinShare, PrzsStream, bytes_to_words, words_to_bytes
from .transport import Role, Session


@dataclass
class ProtocolCtx:
    """Party-local context threading one session's channels, randomness and
    fixed-point configuration through every op."""

    session: Session
    triples: TripleSource
    przs: PrzsStream
    cfg: FixedPointConfig = field(default_factory=FixedPointConfig)

    @property
    def role(self) -> Role:
        return self.session.role

    def arith(self, t: RingTensor) -> ArithShare:
        return ArithShare(self.role, t)

    def bin(self, t: RingTensor) -> BinShare:
        return BinShare(self.role, t)


def open_values(ctx: ProtocolCtx, tag: str, tensors: list) -> list:
    """Open several share tensors in one phase; returns public RingTensors."""
    payload = b"".join(words_to_bytes(t.t) for t in tensors)
    got = ctx.session.exchange(tag, payload)
    out, off = [], 0
    for t in tensors:
        n = 8 * t.t.size
        other = bytes_to_words(got[off : off + n], t.shape)
        if isinstance(t, BinShare):
            out.append(t.t ^ other)
        else:
            out.append(t.t + other)
        off += n
    return out


# ---------------------------------------------------------------------------
# multiplication family
#
# beaver_mul, both operands shared: z = c + e*b + a*d (+ e*d at P0), with
# e = x - a and d = y - b opened in both directions.
#
# conv2d / matmul, weight W held by P1 (f is the ring conv or matmul): P0
# sends m = x0 - a0 and P1 sends d = W - b in one swap; P0 outputs
# f(a0, d) + c0 and P1 outputs f(m + x1, W) + c1, which sum to f(x, W)
# because c0 + c1 = f(a0, b). m is masked by a0, which only P0 and the
# dealer know, and d by b, which only P1 and the dealer know.


class WeightNotHeld(ValueError):
    """A linear layer's weight is not P1's own input (made by `share_input`
    with holder P1)."""


def beaver_mul(ctx: ProtocolCtx, x: ArithShare, y: ArithShare, tag: str = "mul.open") -> ArithShare:
    """Elementwise ring product of two shared tensors (no truncation)."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    t = ctx.triples.arith(x.shape)
    e, d = open_values(ctx, tag, [x - ctx.arith(t.a), y - ctx.arith(t.b)])
    z = t.c + (e * t.b) + (t.a * d)
    if ctx.role is Role.P0:
        z = z + (e * d)
    return ctx.arith(z)


def _check_held(ctx: ProtocolCtx, w: ArithShare, tag: str):
    if w.held_by is not Role.P1 or (ctx.role is Role.P1 and w.clear is None):
        raise WeightNotHeld(f"{tag}: the weight must be P1's input, shared with share_input")


def _held_linear(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, t: HeldTriple, f, tag: str) -> ArithShare:
    """f(x, W) for shared x and P1's weight W, from one held correlation t
    (a0 and c0 at P0, b and c1 at P1); no truncation. One round."""
    if ctx.role is Role.P0:
        got = ctx.session.exchange(tag, words_to_bytes(x.t - t.mask), 8 * w.t.size)
        return ctx.arith(f(t.mask, bytes_to_words(got, w.shape)) + t.c)
    got = ctx.session.exchange(tag, words_to_bytes(w.clear - t.mask), 8 * x.t.size)
    return ctx.arith(f(bytes_to_words(got, x.shape) + x.t, w.clear) + t.c)


def conv2d(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, geom: ConvGeometry,
           tag: str = "conv.open") -> ArithShare:
    """2D convolution of a shared input by P1's kernel (no truncation)."""
    _check_held(ctx, w, tag)
    if w.shape != geom.weight_shape():
        raise ShapeMismatch(f"kernel {w.shape} vs geometry {geom.weight_shape()}")
    t = ctx.triples.conv(x.shape, geom)
    return _held_linear(ctx, x, w, t, lambda a, b: conv2d_ring(a, b, geom), tag)


def matmul(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, tag: str = "matmul.open") -> ArithShare:
    """Matrix product of a shared (m, k) input by P1's (k, n) weight (no
    truncation)."""
    _check_held(ctx, w, tag)
    m, k = x.shape
    k2, n = w.shape
    if k != k2:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    t = ctx.triples.matmul(m, k, n)
    return _held_linear(ctx, x, w, t, matmul_ring, tag)


def trunc_share(ctx: ProtocolCtx, x: ArithShare, bits: int | None = None) -> ArithShare:
    """Local fixed-point rescale: each party arithmetic-shifts its own share.
    Known additive error of at most 1 LSB per party; a wrap-scale error occurs
    with probability |value| / 2^64 and is accepted (documented)."""
    s = ctx.cfg.frac_bits if bits is None else bits
    return ctx.arith(x.t.shift_right_arith(s))


def mul_trunc(ctx: ProtocolCtx, x: ArithShare, y: ArithShare, tag: str = "mul.open") -> ArithShare:
    return trunc_share(ctx, beaver_mul(ctx, x, y, tag))


# ---------------------------------------------------------------------------
# boolean ops


def and_gate(ctx: ProtocolCtx, x: BinShare, y: BinShare, tag: str = "and.open") -> BinShare:
    """Bitwise AND over XOR shares with a boolean triple; one opening phase."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    t = ctx.triples.bool_(x.shape)
    e, f = open_values(ctx, tag, [x ^ ctx.bin(t.a), y ^ ctx.bin(t.b)])
    z = t.c ^ (t.b & e) ^ (t.a & f)
    if ctx.role is Role.P0:
        z = z ^ (e & f)
    return ctx.bin(z)


def _stack_bin(parts: list) -> BinShare:
    owner = parts[0].owner
    return BinShare(owner, RingTensor(np.stack([p.t.data for p in parts])))


def _carry_add_public(ctx: ProtocolCtx, r: BinShare, d: RingTensor, tag: str) -> BinShare:
    """r + d mod 2^64 over XOR shares of r with d public: carry-lookahead with
    local generate/propagate and exactly log2(64) interactive AND levels."""
    g = r.and_public(d)  # generate: r & d, local against a public word
    p = r.xor_public(d)  # propagate: r ^ d
    G, P = g, p
    for k in range(6):  # Kogge-Stone distances 1, 2, 4, 8, 16, 32
        dist = 1 << k
        pair = and_gate(
            ctx,
            _stack_bin([P, P]),
            _stack_bin([G.shift_left(dist), P.shift_left(dist)]),
            tag=tag,
        )
        pg = BinShare(pair.owner, RingTensor(pair.t.data[0]))
        pp = BinShare(pair.owner, RingTensor(pair.t.data[1]))
        G = G ^ pg
        P = pp
    carry = G.shift_left(1)
    return p ^ carry


def _mask_open(ctx: ProtocolCtx, x: ArithShare, tag: str) -> tuple[BinShare, RingTensor]:
    """Open d = x - r for one dealt mask pair r (uniform, so the opening is
    noise); returns the XOR share of r and the public d. One round."""
    pairs = ctx.triples.maskpairs(x.shape)
    (d,) = open_values(ctx, tag, [x - ctx.arith(pairs.arith)])
    return ctx.bin(pairs.bin), d


def a2b(ctx: ProtocolCtx, x: ArithShare, tag_prefix: str = "a2b") -> BinShare:
    """Arithmetic share -> XOR share of the same 64-bit pattern.

    Opens x - r for a dealer-issued word r known in both sharings, then adds
    the public difference onto the XOR-shared r in the boolean adder.
    1 opening round + 6 AND phases."""
    r, d = _mask_open(ctx, x, f"{tag_prefix}.mask")
    return _carry_add_public(ctx, r, d, tag=f"{tag_prefix}.and")


def _bits_to_arith(ctx: ProtocolCtx, bits: BinShare, tag: str) -> ArithShare:
    """Single-bit B2A: mask each bit with a dealer pair, open, unmask locally.
    <b> = <r> + z - 2 z <r> with z = b xor r public. The XOR shares may
    carry junk above bit 0 that cancels between the parties; only the low
    bits are opened, packed 8 per byte."""
    pairs = ctx.triples.bitpairs(bits.shape)
    mine = ((bits.t.data ^ pairs.bin.data) & np.uint64(1)).astype(np.uint8).reshape(-1)
    payload = np.packbits(mine, bitorder="little").tobytes()
    got = ctx.session.exchange(tag, payload)
    if len(got) != len(payload):
        raise ShapeMismatch(f"{tag}: peer opened {len(got)} bytes, expected {len(payload)}")
    theirs = np.unpackbits(np.frombuffer(got, dtype=np.uint8), count=mine.size, bitorder="little")
    zb = (mine ^ theirs).astype(np.uint64).reshape(bits.shape)  # 0/1 words
    with np.errstate(over="ignore"):
        share = pairs.arith.data * (np.uint64(1) - np.uint64(2) * zb)
    if ctx.role is Role.P0:
        share = share + zb
    return ctx.arith(RingTensor(share))


def b2a(ctx: ProtocolCtx, x: BinShare, tag_prefix: str = "b2a") -> ArithShare:
    """XOR share -> arithmetic share: sum of 2^b times the b-th bit, all 64
    masked bits opened together in one round."""
    bit_axis = np.arange(WORD_BITS, dtype=np.uint64)
    bits = BinShare(x.owner, RingTensor((x.t.data[..., None] >> bit_axis) & np.uint64(1)))
    arith_bits = _bits_to_arith(ctx, bits, f"{tag_prefix}.open")
    with np.errstate(over="ignore"):
        word = np.add.reduce(arith_bits.t.data << bit_axis, axis=-1, dtype=np.uint64)
    return ctx.arith(RingTensor(word))


# ---------------------------------------------------------------------------
# comparison and selection


def _bit_slice(words: np.ndarray) -> np.ndarray:
    """(..., n) words -> (..., 64, ceil(n/64)) rows: bit k of word j in row l
    is bit l of element 64j + k; padding elements are zero. Each block of 64
    elements is a 64x64 bit transpose, done in six rounds of masked block
    swaps: shifts only, so independent of host byte order."""
    lead = words.shape[:-1]
    pad = -words.shape[-1] % 64
    padded = np.concatenate([words, np.zeros(lead + (pad,), np.uint64)], axis=-1)
    a = np.ascontiguousarray(np.swapaxes(padded.reshape(lead + (-1, 64)), -1, -2))
    w = a.shape[-1]
    j, m = 32, (1 << 32) - 1  # m selects the low j bits of every 2j-bit field
    while j:  # swap the off-diagonal j x j blocks of every 2j x 2j block
        v = a.reshape(lead + (64 // (2 * j), 2, j, w))
        lo, hi = v[..., 0, :, :], v[..., 1, :, :]
        t = (lo >> np.uint64(j)) ^ hi
        t &= np.uint64(m)
        hi ^= t
        lo ^= t << np.uint64(j)
        j //= 2
        m ^= m << j
    return a


def _msb_add_public(ctx: ProtocolCtx, r: BinShare, d: RingTensor, tag: str) -> BinShare:
    """XOR share (0/1 words) of the top bit of r + d mod 2^64, d public.

    The top bit is r63 ^ d63 ^ c63, where c63 is the carry out of lanes 0..62.
    Lanes are bit-sliced 64 elements per word (XOR shares allow any local bit
    permutation), and a prefix tree pairs adjacent groups at each level:
    G = G_hi ^ (P_hi & G_lo), P = P_hi & P_lo, with an odd top group passing
    through. Groups go 63 -> 32 -> 16 -> 8 -> 4 -> 2 -> 1, one AND phase
    each. The lowest group's P is never read, so it is never computed: 118
    bit-ANDs per element in all."""
    n = d.data.size
    g = r.and_public(d).t.data.reshape(-1)  # generate: r & d
    p = r.xor_public(d).t.data.reshape(-1)  # propagate: r ^ d
    gs, ps = _bit_slice(np.stack([g, p]))
    G, P = gs[:63], ps[1:63]  # P[i] belongs to group i + 1
    while len(G) > 1:
        m, h = len(G), len(G) // 2
        z = and_gate(
            ctx,
            BinShare(r.owner, RingTensor(np.concatenate([P[0 : 2 * h - 1 : 2], P[2 : 2 * h - 1 : 2]]))),
            BinShare(r.owner, RingTensor(np.concatenate([G[0 : 2 * h : 2], P[1 : 2 * h - 2 : 2]]))),
            tag=tag,
        ).t.data
        G_next, P_next = G[1 : 2 * h : 2] ^ z[:h], z[h:]
        if m % 2:
            G_next = np.concatenate([G_next, G[m - 1 :]])
            P_next = np.concatenate([P_next, P[m - 2 :]])
        G, P = G_next, P_next
    top = ps[63] ^ G[0]  # (W,) words, element 64j + k at bit k of word j
    bits = (top[:, None] >> np.arange(WORD_BITS, dtype=np.uint64)) & np.uint64(1)
    return BinShare(r.owner, RingTensor(bits.reshape(-1)[:n].reshape(d.shape)))


def gtz(ctx: ProtocolCtx, x: ArithShare) -> ArithShare:
    """1 iff the shared value is strictly positive (gtz(0) = 0), as the msb of
    -x: one masked opening of -x, the 6-level carry-out tree for bit 63, and
    a 1-bit b2a. Unscaled 0/1 output; exact. 8 rounds."""
    r, d = _mask_open(ctx, -x, "gtz.mask")
    return _bits_to_arith(ctx, _msb_add_public(ctx, r, d, tag="gtz.and"), "gtz.b2a")


def mux(ctx: ProtocolCtx, cond: ArithShare, x: ArithShare, y: ArithShare) -> ArithShare:
    """Oblivious select cond*x + (1-cond)*y; cond holds exact 0/1 words."""
    return y + beaver_mul(ctx, cond, x - y, tag="mux.open")


def relu(ctx: ProtocolCtx, x: ArithShare) -> ArithShare:
    """max(x, 0) as x * (x > 0); exact (the bit is unscaled, no truncation)."""
    return beaver_mul(ctx, x, gtz(ctx, x), tag="relu.open")


def extract_bits(ctx: ProtocolCtx, x: ArithShare, positions) -> ArithShare:
    """Unscaled 0/1 arithmetic shares of selected bit positions (last axis):
    one a2b plus one batched single-bit B2A."""
    v = a2b(ctx, x, tag_prefix="bits.a2b")
    pos = np.asarray(positions, dtype=np.uint64)
    bits = BinShare(v.owner, RingTensor((v.t.data[..., None] >> pos) & np.uint64(1)))
    return _bits_to_arith(ctx, bits, "bits.b2a")


def msb_onehot(ctx: ProtocolCtx, x: ArithShare) -> ArithShare:
    """Indicator vector (last axis, 64 wide) of the highest set bit of each
    word: a2b, a downward prefix-OR tree, then per-bit B2A. Drives the
    magnitude-normalized initial guesses of the Newton iterations."""
    v = a2b(ctx, x, tag_prefix="msb.a2b")
    for k in range(6):
        shifted = v.shift_right(1 << k)
        v = v ^ shifted ^ and_gate(ctx, v, shifted, tag="msb.or")
    onehot = v ^ v.shift_right(1)
    bit_axis = np.arange(WORD_BITS, dtype=np.uint64)
    bits = BinShare(onehot.owner, RingTensor((onehot.t.data[..., None] >> bit_axis) & np.uint64(1)))
    return _bits_to_arith(ctx, bits, "msb.b2a")


def const_floor(ctx: ProtocolCtx, x: ArithShare, d: int) -> ArithShare:
    """floor(value / d) * scale for public power-of-two d, exact: clears the
    fraction through the binary domain where the arithmetic shift is local
    over XOR shares (sign bits of the shares xor to the secret's sign)."""
    if d <= 0 or d & (d - 1):
        raise ValueError(f"divisor must be a positive power of two, got {d}")
    if d == 1:
        return x
    k = d.bit_length() - 1
    bx = a2b(ctx, x, tag_prefix="floor.a2b")
    q = BinShare(bx.owner, bx.t.shift_right_arith(k + ctx.cfg.frac_bits))
    q_arith = b2a(ctx, q, tag_prefix="floor.b2a")
    return ArithShare(x.owner, q_arith.t.shift_left(ctx.cfg.frac_bits))
