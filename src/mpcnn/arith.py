"""Interactive protocols over shares: Beaver multiplication, the model
holder's linear layers, share conversions, comparison and selection.

Round structure (one round = one parallel phase, independent of tensor size):

  beaver_mul                     1   (e and d open together)
  conv2d / matmul                1   (P0's masked input and P1's masked
                                      weight cross in one swap)
  and_gate                       1   (with a boolean triple the caller
                                      fetched)
  a2b                            7   (1 masked-word opening + 6 AND phases
                                      of the carry-lookahead prefix tree)
  gtz                        <= 6   (1 masked-word opening + 5 AND phases
                                      of the carry-out tree, at the default
                                      comparison domain cmp_bits = 31;
                                      7 with 6 phases at cmp_bits = 63.
                                      Each phase rides the session's next
                                      opening, adding no round; those left
                                      when the bit is read run alone)
  select                         1   (the masked word and the masked bit
                                      open together)
  mux                            1   (one select)

A ReLU is select(gtz(x), x), 7 rounds: the select reads the bit at once, so
all 6 of gtz's phases run alone. `models.ReLU` writes it on the engine
surface as mul_raw(x, gtz(x)). A SiLU is 7 rounds too: gtz's phases ride
its 4 products (see `approx.sec_silu`).

Every opening goes through `sharing.open_shares` with its width: whole 8 B
words (Beaver products, AND levels, a2b's masked word, the select's masked
word), the 4 B comparison masks of gtz (l + 1 bits, below), and the select's
masked bit, packed 8 per byte. Only the held linear layers' swap, in which
the two parties send different tensors, frames its own exchange, and so
carries no phase of a comparison in flight.

conv2d and matmul are the client-server linear layer of Delphi (Mishra et
al., USENIX Security 2020), with the dealer in place of homomorphic
encryption: the weight is P1's own input, used in the clear at P1, so only
P0's input share is masked. Each party runs one ring product per layer.

The a2b conversion masks the arithmetic value with one dealt word pair (an
additive and a XOR sharing of the same uniform word), opens the difference
(uniform, so it reveals nothing), and adds the public difference back onto
the XOR-shared mask inside a carry-lookahead adder; only the adder's AND
gates are interactive, giving exactly log2(64) = 6 AND phases. Like gtz, it
fetches its word pair and all six levels' triples in one dealer round trip
and hands each level's triple to `and_gate`, which fetches nothing itself.
No model calls a2b: it stays for its tests and for the benchmark's tracer,
which wraps it by name.

gtz is the bounded-input comparison of Catrina and de Hoogh (SCN 2010) on
the same mask pairs. For |x| < 2^l (l = cmp_bits of the config), -x fits
the signed ring Z_2^(l+1), so gtz(x) is its top bit, bit l. Additive shares
reduce modulo any power of two, so gtz opens only the low l + 1 bits of
-x - r (4 B per element at l = 31, 8 B at l = 63) and computes only the
carry into bit l: a bit-sliced prefix tree over lanes 0..l-1 whose groups
halve at each level (55 bit-ANDs per element in 5 levels at l = 31, 118 in
6 at l = 63, against a2b's 768). At l = 63 this is msb(-x), exact on every
word. It fetches its mask pair and all levels' triples in one dealer round
trip and returns the bit XOR-shared, with its openings still in flight
(`sharing.PendingBit`): the comparison is written as steps, one per
opening, and each later `open_shares` of the session carries its next step
in the same frame. This is circuit-depth scheduling as in ABY (Demmler et
al., NDSS 2015) and MP-SPDZ (Keller, CCS 2020), confined to the one op whose
rounds have independent work to hide behind: nothing else changes, and the
masks, shares and outputs are those of running each opening alone.

select multiplies a shared word by a XOR-shared bit in one round: ABY3's
bit injection (Mohassel-Rindal, CCS 2018) fused with the product, with the
dealer in place of OT. So a comparison bit is never converted on its own:
every consumer (ReLU, the SiLU select, the max-pool mux) spends one round
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dealer import TripleSource, TripleSpec
from .ring import (
    ConvGeometry,
    FixedPointConfig,
    RingTensor,
    ShapeMismatch,
    WORD_BITS,
    conv2d_ring,
    matmul_ring,
)
from .sharing import (ArithShare, BinShare, PendingBit, PrzsStream, bytes_to_words, open_shares, packed_len,
                      words_to_bytes)
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


def beaver_mul(ctx: ProtocolCtx, x: ArithShare, y: ArithShare) -> ArithShare:
    """Elementwise ring product of two shared tensors (no truncation)."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    t = ctx.triples.arith(x.shape)
    e, d = open_shares(ctx.session, "mul.open", [x - ctx.arith(t.a), y - ctx.arith(t.b)])
    z = t.c + (e * t.b) + (t.a * d)
    if ctx.role is Role.P0:
        z = z + (e * d)
    return ctx.arith(z)


def _check_held(ctx: ProtocolCtx, w: ArithShare, tag: str):
    if w.held_by is not Role.P1 or (ctx.role is Role.P1 and w.clear is None):
        raise WeightNotHeld(f"{tag}: the weight must be P1's input, shared with share_input")


def _held_linear(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, t: tuple, f, tag: str) -> ArithShare:
    """f(x, W) for shared x and P1's weight W, from one held correlation t
    (a0 and c0 at P0, b and c1 at P1); no truncation. One round."""
    if ctx.role is Role.P0:
        got = ctx.session.exchange(tag, words_to_bytes(x.t - t.mask), packed_len(w.shape))
        return ctx.arith(f(t.mask, bytes_to_words(got, w.shape)) + t.c)
    got = ctx.session.exchange(tag, words_to_bytes(w.clear - t.mask), packed_len(x.shape))
    return ctx.arith(f(bytes_to_words(got, x.shape) + x.t, w.clear) + t.c)


def conv2d(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, geom: ConvGeometry) -> ArithShare:
    """2D convolution of a shared input by P1's kernel (no truncation)."""
    _check_held(ctx, w, "conv.open")
    if w.shape != geom.weight_shape():
        raise ShapeMismatch(f"kernel {w.shape} vs geometry {geom.weight_shape()}")
    t = ctx.triples.take(TripleSpec("conv", x.shape, geom=geom))
    return _held_linear(ctx, x, w, t, lambda a, b: conv2d_ring(a, b, geom), "conv.open")


def matmul(ctx: ProtocolCtx, x: ArithShare, w: ArithShare) -> ArithShare:
    """Matrix product of a shared (m, k) input by P1's (k, n) weight (no
    truncation)."""
    _check_held(ctx, w, "matmul.open")
    m, k = x.shape
    k2, n = w.shape
    if k != k2:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    t = ctx.triples.take(TripleSpec("matmul", (m, k), mat=(m, k, n)))
    return _held_linear(ctx, x, w, t, matmul_ring, "matmul.open")


# ---------------------------------------------------------------------------
# boolean ops


def _and_open(ctx: ProtocolCtx, x: BinShare, y: BinShare, t: tuple) -> list:
    """The shares an AND opens: x ^ a and y ^ b."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    return [x ^ ctx.bin(t.a), y ^ ctx.bin(t.b)]


def _and_close(ctx: ProtocolCtx, t: tuple, e: RingTensor, f: RingTensor) -> BinShare:
    """x & y from the opened e = x ^ a and f = y ^ b."""
    z = t.c ^ (t.b & e) ^ (t.a & f)
    if ctx.role is Role.P0:
        z = z ^ (e & f)
    return ctx.bin(z)


def and_gate(ctx: ProtocolCtx, x: BinShare, y: BinShare, t: tuple, tag: str = "and.open") -> BinShare:
    """Bitwise AND over XOR shares with a boolean triple t of their shape,
    which the caller fetched; one opening phase."""
    return _and_close(ctx, t, *open_shares(ctx.session, tag, _and_open(ctx, x, y, t)))


def _carry_add_public(ctx: ProtocolCtx, r: BinShare, d: RingTensor, levels: list, tag: str) -> BinShare:
    """r + d mod 2^64 over XOR shares of r with d public: carry-lookahead with
    local generate/propagate and exactly log2(64) interactive AND levels, one
    dealt (2, *shape) boolean triple per level."""
    p = r.xor_public(d)  # propagate: r ^ d
    G, P = r.and_public(d), p  # generate: r & d, local against a public word
    for k, t in enumerate(levels):  # Kogge-Stone distances 1, 2, 4, 8, 16, 32
        dist = 1 << k
        z = and_gate(ctx, ctx.bin(RingTensor(np.stack([P.t.data] * 2))),
                     ctx.bin(RingTensor(np.stack([G.shift_left(dist).t.data, P.shift_left(dist).t.data]))),
                     t, tag).t.data
        G, P = G ^ ctx.bin(RingTensor(z[0])), ctx.bin(RingTensor(z[1]))
    return p ^ G.shift_left(1)


def a2b(ctx: ProtocolCtx, x: ArithShare) -> BinShare:
    """Arithmetic share -> XOR share of the same 64-bit pattern.

    Opens x - r for a dealer-issued word r known in both sharings, then adds
    the public difference onto the XOR-shared r in the boolean adder.
    1 opening round + 6 AND phases, with the word pair and every level's
    triple fetched in one dealer round trip."""
    pairs, *levels = ctx.triples.take_many(
        [TripleSpec("maskpair", x.shape)] + [TripleSpec("bool", (2, *x.shape))] * 6)
    (d,) = open_shares(ctx.session, "a2b.mask", [x - ctx.arith(pairs.arith)])
    return _carry_add_public(ctx, ctx.bin(pairs.bin), d, levels, "a2b.and")


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


def _tree_shapes(n: int, lanes: int) -> list:
    """Shapes of the AND openings of `_msb_add_public`'s levels on n
    elements and `lanes` lanes: at m groups a level ANDs h = m // 2 G-pairs
    and h - 1 P-pairs, each a row of ceil(n / 64) words."""
    shapes, m = [], lanes
    while m > 1:
        h = m // 2
        shapes.append((2 * h - 1, -(-n // WORD_BITS)))
        m -= h
    return shapes


def _msb_add_public(ctx: ProtocolCtx, r: BinShare, d: RingTensor, levels: list, lanes: int, tag: str):
    """Steps (see `sharing.PendingBit`) that return the XOR share (0/1
    words) of bit `lanes` of r + d, d public, with one dealt boolean triple
    per level (shapes from `_tree_shapes`) and one AND opening each.

    That bit is r_l ^ d_l ^ c_l, where c_l is the carry out of lanes
    0..l-1 (l = lanes). Lanes are bit-sliced 64 elements per word (XOR
    shares allow any local bit permutation), and a prefix tree pairs
    adjacent groups at each level: G = G_hi ^ (P_hi & G_lo), P = P_hi &
    P_lo, with an odd top group passing through. At l = 31 groups go 31 ->
    16 -> 8 -> 4 -> 2 -> 1, one AND phase each; at l = 63 they go 63 -> 32
    -> ... -> 1 in 6. The lowest group's P is never read, so it is never
    computed: 55 bit-ANDs per element at l = 31, 118 at l = 63."""
    n = d.data.size
    g = r.and_public(d).t.data.reshape(-1)  # generate: r & d
    p = r.xor_public(d).t.data.reshape(-1)  # propagate: r ^ d
    gs, ps = _bit_slice(np.stack([g, p]))
    G, P = gs[:lanes], ps[1:lanes]  # P[i] belongs to group i + 1
    for t in levels:
        m, h = len(G), len(G) // 2
        e, f = yield tag, _and_open(
            ctx,
            BinShare(r.owner, RingTensor(np.concatenate([P[0 : 2 * h - 1 : 2], P[2 : 2 * h - 1 : 2]]))),
            BinShare(r.owner, RingTensor(np.concatenate([G[0 : 2 * h : 2], P[1 : 2 * h - 2 : 2]]))),
            t,
        ), None
        z = _and_close(ctx, t, e, f).t.data
        G_next, P_next = G[1 : 2 * h : 2] ^ z[:h], z[h:]
        if m % 2:
            G_next = np.concatenate([G_next, G[m - 1 :]])
            P_next = np.concatenate([P_next, P[m - 2 :]])
        G, P = G_next, P_next
    top = ps[lanes] ^ G[0]  # (W,) words, element 64j + k at bit k of word j
    bits = (top[:, None] >> np.arange(WORD_BITS, dtype=np.uint64)) & np.uint64(1)
    return BinShare(r.owner, RingTensor(bits.reshape(-1)[:n].reshape(d.shape)))


def gtz(ctx: ProtocolCtx, x: ArithShare) -> BinShare:
    """1 iff the shared value is strictly positive (gtz(0) = 0), XOR-shared
    as 0/1 words; exact for |x| < 2^l, l = ctx.cfg.cmp_bits, and on every
    word at l = 63.

    In that domain -x fits Z_2^(l+1) as a signed word, so gtz is its bit l.
    (This is Catrina and de Hoogh's NOT of bit l of 2^l - x: adding 2^l
    flips exactly bit l mod 2^(l+1), so the offset and the NOT cancel.)
    One opening of the low l + 1 bits of -x - r, then the carry-out tree on
    l lanes, with the mask pair (its correction in l + 1 bits) and every
    level's triple fetched in one dealer round trip now. The openings stay
    in flight: the bit comes back as a `sharing.PendingBit`, each of the
    session's later openings carries the next one, and reading the bit runs
    those left alone. 6 rounds if it is read at once at l = 31, 7 at
    l = 63."""
    lanes = ctx.cfg.cmp_bits
    pairs, *levels = ctx.triples.take_many(
        [TripleSpec("maskpair", x.shape, width=lanes + 1)]
        + [TripleSpec("bool", s) for s in _tree_shapes(x.t.size, lanes)])
    return PendingBit(ctx.session, x.shape, _gtz_steps(ctx, x, pairs, levels, lanes))


def _gtz_steps(ctx: ProtocolCtx, x: ArithShare, pairs, levels: list, lanes: int):
    """gtz's openings as steps: the mask, then one per level of the tree."""
    (d,) = yield "gtz.mask", [-x - ctx.arith(pairs.arith)], [lanes + 1]
    return (yield from _msb_add_public(ctx, ctx.bin(pairs.bin), d, levels, lanes, "gtz.and"))


def select(ctx: ProtocolCtx, bit: BinShare, x: ArithShare, tag: str = "select.open") -> ArithShare:
    """x * bit for a XOR-shared bit (0/1 words, as gtz gives); exact, no
    truncation. One round.

    With a dealt select correlation (word a, bit r, and additive shares of r
    and a*r), the parties open e = x - a and z = bit ^ r together; then
    bit = z + r - 2zr, so x * bit = z*x + (1 - 2z)(e*r + a*r), which each
    party evaluates on its own shares of x, r and a*r. e is masked by a
    and z by r, both uniform and known to neither party."""
    if not isinstance(bit, BinShare) or not isinstance(x, ArithShare):
        raise TypeError(f"select takes a BinShare bit and an ArithShare, not {type(bit).__name__} "
                        f"and {type(x).__name__}")
    if bit.shape != x.shape:
        raise ShapeMismatch(f"{bit.shape} vs {x.shape}")
    bit = ctx.bin(bit.t)  # a comparison in flight finishes first and frees its triples
    t = ctx.triples.take(TripleSpec("select", x.shape))
    e, z = open_shares(ctx.session, tag, [x - ctx.arith(t.a), bit ^ ctx.bin(t.r_bin)], [WORD_BITS, 1])
    sign = RingTensor(np.uint64(1) - np.uint64(2) * z.data)  # 1 - 2z: 1 or -1
    return ctx.arith(z * x.t + sign * (e * t.r + t.ar))


def mux(ctx: ProtocolCtx, cond: BinShare, x: ArithShare, y: ArithShare) -> ArithShare:
    """Oblivious select cond*x + (1-cond)*y for a XOR-shared 0/1 cond."""
    return y + select(ctx, cond, x - y, tag="mux.open")

