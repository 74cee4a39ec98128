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
  gtz                        <= 5   (1 masked-word opening + 4 AND phases
                                      of the carry-out tree, whose first
                                      level is local, at the default
                                      comparison domain cmp_bits = 31;
                                      6 with 5 phases at cmp_bits = 63.
                                      Each phase rides the session's next
                                      opening, adding no round; those left
                                      when the bit is read run alone)
  select                         1   (the masked word and the masked bit
                                      open together; the bit alone if
                                      gtz opened the word)
  mux                            1   (one select)

A ReLU is select(gtz(x), x), 6 rounds: the select reads the bit at once, so
all 5 of gtz's phases run alone. `models.ReLU` writes it on the engine
surface as mul_raw(x, gtz(x)), and a max-pool level as b + mul_raw(d,
gtz(d)) with d = a - b (`engine.tournament_max`). There x is opened once:
gtz's masked word is x - a for the select's own a, opened whole, and the
select's round opens only its masked bit, so each party sends 8n + 328 *
ceil(n / 64) + ceil(n / 8) B at l = 31 in place of gtz's 4n + 328 *
ceil(n / 64) and the select's 8n + ceil(n / 8). A SiLU is 6 rounds too:
gtz's phases ride its 4 products (see `approx.sec_silu`), and its select
multiplies other operands, so it opens its own masked word.

Every opening goes through `sharing.open_shares` with its width: whole 8 B
words (Beaver products, AND levels, a2b's masked word, the select's masked
word and gtz's when a select reuses it), the 4 B comparison masks of gtz
(l + 1 bits, below), and the select's masked bit, packed 8 per byte. Only
the held linear layers' swap, in which the two parties send different
tensors, frames its own exchange, and so carries no phase of a comparison
in flight.

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
a mask of the same kind. For |x| < 2^l (l = cmp_bits of the config), -x fits
the signed ring Z_2^(l+1), so gtz(x) is its top bit, bit l. Additive shares
reduce modulo any power of two, so gtz opens only the low l + 1 bits of
x - a (4 B per element at l = 31, 8 B at l = 63) for a dealt word a, and
adds d = a - x to XOR shares of r = -a: it computes only the carry into
bit l, a bit-sliced prefix tree over lanes 0..l-1 whose groups halve at
each level. At l = 63 this is msb(-x), exact on every word. As in
ABY2.0 (Patra et al., USENIX Security 2021), products of masks are dealt
rather than computed online: the comparison mask comes with XOR shares of
r_(2k+1) & r_(2k) for each pair of lanes, so the tree's first level,
whose operands are r and the public d, is local; and each later level
opens a pair's P_hi once for both of its products, with a fan-out triple
(`dealer.fan_out`). Each party opens 41 bits per element in 4 AND levels
at l = 31 and 88 in 5 at l = 63, where a tree of plain AND gates would open
110 in 5 and 236 in 6. It returns the bit XOR-shared, with its openings
still in flight, and fetches its mask and all levels' triples in one dealer
round trip when the first of them is needed
(`sharing.PendingBit`): the comparison is written as steps, one per
opening, and each later `open_shares` of the session carries its next step
in the same frame. This is circuit-depth scheduling as in ABY (Demmler et
al., NDSS 2015) and MP-SPDZ (Keller, CCS 2020), confined to the one op whose
rounds have independent work to hide behind: nothing else changes, and the
masks, shares and outputs are those of running each opening alone.

select multiplies a shared word by a XOR-shared bit in one round: ABY3's
bit injection (Mohassel-Rindal, CCS 2018) fused with the product, with the
dealer in place of OT. So a comparison bit is never converted on its own:
every consumer (ReLU, the SiLU select, each max-pool level) spends one
round on it. When the select's operand is the comparison's own and it
reaches the bit before anything starts it, the two share one dealt word a
(`dealer`'s 'cmpselect' row), as ABY2.0 masks a wire once for every gate
it feeds: the select's round opens only the masked bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dealer import TripleSource, TripleSpec, fan_out
from .ring import (
    ConvGeometry,
    FixedPointConfig,
    RingTensor,
    ShapeMismatch,
    WORD_BITS,
    bit_slice,
    conv2d_ring,
    matmul_ring,
)
from .sharing import (ArithShare, BinShare, PendingBit, bytes_to_words, open_shares, packed_len, share_public,
                      words_to_bytes)
from .transport import Role, Session


@dataclass
class ProtocolCtx:
    """Party-local context threading one session's channels, dealt
    randomness and fixed-point configuration through every op. Inputs are
    shared with `sharing.share_input(ctx.role, ...)`, which draws nothing."""

    session: Session
    triples: TripleSource
    cfg: FixedPointConfig = field(default_factory=FixedPointConfig)

    @property
    def role(self) -> Role:
        return self.session.role

    @property
    def przs(self) -> Role:
        """`role` under its former name: the benchmark still calls
        `share_input(ctx.przs, ...)`."""
        return self.role

    def arith(self, t: RingTensor) -> ArithShare:
        return ArithShare(self.role, t)

    def bin(self, t: RingTensor) -> BinShare:
        return BinShare(self.role, t)


# ---------------------------------------------------------------------------
# multiplication family
#
# beaver_mul, both operands shared: z = c + e*b + a*d + e*d, with e = x - a
# and d = y - b opened in both directions and the public e*d added once
# (`sharing.share_public`).
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
    return ctx.arith(t.c + e * t.b + t.a * d) + share_public(e * d, ctx.role)


def _check_held(ctx: ProtocolCtx, w: ArithShare, tag: str):
    if w.held_by is not Role.P1:
        raise WeightNotHeld(f"{tag}: the weight must be P1's input, shared with share_input")


def _held_linear(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, t: tuple, f, tag: str) -> ArithShare:
    """f(x, W) for shared x and P1's weight W, from one held correlation t
    (a0 and c0 at P0, b and c1 at P1); no truncation. One round."""
    if ctx.role is Role.P0:
        got = ctx.session.exchange(tag, words_to_bytes(x.t - t.mask), packed_len(w.shape))
        return ctx.arith(f(t.mask, bytes_to_words(got, w.shape)) + t.c)
    got = ctx.session.exchange(tag, words_to_bytes(w.t - t.mask), packed_len(x.shape))  # P1's share is W itself
    return ctx.arith(f(bytes_to_words(got, x.shape) + x.t, w.t) + t.c)


def conv2d(ctx: ProtocolCtx, x: ArithShare, w: ArithShare, geom: ConvGeometry) -> ArithShare:
    """2D convolution of a shared input by P1's kernel (no truncation)."""
    _check_held(ctx, w, "conv.open")
    if w.shape != geom.weight_shape() or x.t.data.ndim != 3 or x.shape[0] != geom.in_channels:
        raise ShapeMismatch(f"input {x.shape} and kernel {w.shape} vs geometry {geom}")
    geom.out_hw(*x.shape[1:])  # a kernel with no window is refused before the dealer is asked
    t = ctx.triples.take(TripleSpec("conv", x.shape, geom=geom))
    return _held_linear(ctx, x, w, t, lambda a, b: conv2d_ring(a, b, geom), "conv.open")


def matmul(ctx: ProtocolCtx, x: ArithShare, w: ArithShare) -> ArithShare:
    """Matrix product of a shared (m, k) input by P1's (k, n) weight (no
    truncation)."""
    _check_held(ctx, w, "matmul.open")
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    (m, k), n = x.shape, w.shape[1]
    t = ctx.triples.take(TripleSpec("matmul", (m, k), mat=(m, k, n)))
    return _held_linear(ctx, x, w, t, matmul_ring, "matmul.open")


# ---------------------------------------------------------------------------
# boolean ops


def _and_close(ctx: ProtocolCtx, t: tuple, e: RingTensor, f: RingTensor) -> BinShare:
    """x & y from the opened e = x ^ a and f = y ^ b."""
    return ctx.bin(t.c ^ (t.b & e) ^ (t.a & f)).xor_public(e & f)


def and_gate(ctx: ProtocolCtx, x: BinShare, y: BinShare, t: tuple, tag: str = "and.open") -> BinShare:
    """Bitwise AND over XOR shares with a boolean triple t of their shape,
    which the caller fetched; one opening phase."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    return _and_close(ctx, t, *open_shares(ctx.session, tag, [x ^ ctx.bin(t.a), y ^ ctx.bin(t.b)]))


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


def _tree_shapes(n: int, lanes: int) -> list:
    """Spec shapes of the fan-out triples of `_msb_add_public`'s interactive
    levels (2 and up) on n elements and `lanes` lanes. Level 1 is local and
    leaves ceil(lanes / 2) groups; at m groups a level pairs h = m // 2 and
    ANDs each pair's P_hi with its G_lo and, but for the lowest pair, its
    P_lo: 2h - 1 products, from h + (2h - 1) = 3h - 1 opened rows of
    ceil(n / 64) words."""
    shapes, m = [], lanes - lanes // 2
    while m > 1:
        h = m // 2
        shapes.append((2 * h - 1, -(-n // WORD_BITS)))
        m -= h
    return shapes


def _msb_add_public(ctx: ProtocolCtx, r: BinShare, s: BinShare, d: RingTensor, levels: list, lanes: int, tag: str):
    """Steps (see `sharing.PendingBit`) that return the XOR share (0/1
    words) of bit `lanes` of r + d, d public, given XOR shares s of r's
    lane pairs (`dealer.lane_pairs`) and one dealt fan-out triple per
    interactive level (shapes from `_tree_shapes`), with one opening each.

    That bit is r_l ^ d_l ^ c_l, where c_l is the carry out of lanes
    0..l-1 (l = lanes). Lanes are bit-sliced 64 elements per word (XOR
    shares allow any local bit permutation), and a prefix tree pairs
    adjacent groups at each level: G = G_hi ^ (P_hi & G_lo), P = P_hi &
    P_lo, with an odd top group passing through. The lowest group's P is
    never read, so it is never computed.

    Level 1 pairs single lanes, whose g = r & d and p = r ^ d are linear in
    r since d is public. With s_k = r_(2k+1) & r_(2k) dealt, its products
    are too: G_k = g_(2k+1) ^ d_(2k) & (s_k ^ d_(2k+1) & r_(2k)) and P_k =
    s_k ^ d_(2k+1) & r_(2k) ^ p_(2k+1) & d_(2k), so it opens nothing. At
    each later level every P_hi feeds two products, so it opens once
    (`dealer.fan_out`). At l = 31 groups go 31 -> 16 locally, then 8 -> 4
    -> 2 -> 1, one AND phase each; at l = 63 they go 63 -> 32, then 16 ->
    ... -> 1 in 5."""
    n = d.data.size
    rs, ds = bit_slice(np.stack([r.t.data.reshape(-1), d.data.reshape(-1)]), lanes + 1)
    g = rs & ds  # generate: r & d
    p = ctx.bin(RingTensor(rs)).xor_public(RingTensor(ds)).t.data  # propagate: r ^ d
    lo, hi = slice(0, lanes // 2 * 2, 2), slice(1, lanes // 2 * 2, 2)
    u = s.t.data ^ (ds[hi] & rs[lo])  # s_k ^ d_(2k+1) & r_(2k)
    G, P = g[hi] ^ (ds[lo] & u), (u ^ (p[hi] & ds[lo]))[1:]  # P[i] belongs to group i + 1
    if lanes % 2:
        G, P = np.concatenate([G, g[lanes - 1 : lanes]]), np.concatenate([P, p[lanes - 1 : lanes]])
    for t in levels:
        m, h = len(G), len(G) // 2
        e, f = yield tag, [
            ctx.bin(RingTensor(P[0 : 2 * h - 1 : 2])) ^ ctx.bin(t.a),
            ctx.bin(RingTensor(np.concatenate([G[0 : 2 * h : 2], P[1 : 2 * h - 2 : 2]]))) ^ ctx.bin(t.b),
        ], None
        z = _and_close(ctx, t._replace(a=fan_out(t.a)), fan_out(e), f).t.data
        G_next, P_next = G[1 : 2 * h : 2] ^ z[:h], z[h:]
        if m % 2:
            G_next = np.concatenate([G_next, G[m - 1 :]])
            P_next = np.concatenate([P_next, P[m - 2 :]])
        G, P = G_next, P_next
    top = p[lanes] ^ G[0]  # (W,) words, element 64j + k at bit k of word j
    bits = (top[:, None] >> np.arange(WORD_BITS, dtype=np.uint64)) & np.uint64(1)
    return ctx.bin(RingTensor(bits.reshape(-1)[:n].reshape(d.shape)))


def gtz(ctx: ProtocolCtx, x: ArithShare) -> BinShare:
    """1 iff the shared value is strictly positive (gtz(0) = 0), XOR-shared
    as 0/1 words; exact for |x| < 2^l, l = ctx.cfg.cmp_bits, and on every
    word at l = 63.

    In that domain -x fits Z_2^(l+1) as a signed word, so gtz is its bit l.
    (This is Catrina and de Hoogh's NOT of bit l of 2^l - x: adding 2^l
    flips exactly bit l mod 2^(l+1), so the offset and the NOT cancel.)
    One opening of the low l + 1 bits of x - a, then the carry-out tree on
    l lanes, which adds d = a - x to the XOR-shared r = -a. The bit comes
    back as a `sharing.PendingBit` and fetches nothing yet: when its first
    opening is needed it fetches the comparison mask (a, r's low l + 1 bits
    and r's lane pairs) and every interactive level's fan-out triple in one
    dealer round trip. Each of the session's later openings carries its
    next one, and reading the bit runs those left alone. 5 rounds if it is
    read at once at l = 31, 6 at l = 63; each party sends 4n + 328 *
    ceil(n / 64) bytes at l = 31 and 8n + 704 * ceil(n / 64) at l = 63. A
    `select` of the bit by x itself that reaches it first starts it on the
    fused row instead, whose opening is all 64 bits of x - a (see
    `select`)."""
    return PendingBit(ctx.session, x.shape, functools.partial(_gtz_steps, ctx, x), operand=x)


def _gtz_steps(ctx: ProtocolCtx, x: ArithShare, fused: dict | None = None):
    """gtz's openings as steps: the mask, then one per interactive level.
    Given a dict `fused`, it takes the select's correlation on its own word
    a ('cmpselect'), opens all of x - a, and leaves the row and the opened
    x - a in `fused` for the select."""
    lanes = ctx.cfg.cmp_bits
    kind, width = ("cmpmask", lanes + 1) if fused is None else ("cmpselect", WORD_BITS)
    mask, *levels = ctx.triples.take_many(
        [TripleSpec(kind, x.shape, width=lanes + 1)]
        + [TripleSpec("fanout", s) for s in _tree_shapes(x.t.size, lanes)])
    (e,) = yield "gtz.mask", [x - ctx.arith(mask.a)], [width]
    if fused is not None:
        fused.update(row=mask, e=e)
    return (yield from _msb_add_public(ctx, ctx.bin(mask.bin), ctx.bin(mask.pairs), -e, levels, lanes, "gtz.and"))


def select(ctx: ProtocolCtx, bit: BinShare, x: ArithShare, tag: str = "select.open") -> ArithShare:
    """x * bit for a XOR-shared bit (0/1 words, as gtz gives); exact, no
    truncation. One round.

    With a dealt select correlation (word a, bit r, and additive shares of r
    and a*r), the parties open e = x - a and z = bit ^ r together; then
    bit = z + r - 2zr, so x * bit = z*x + (1 - 2z)(e*r + a*r), which each
    party evaluates on its own shares of x, r and a*r. e is masked by a
    and z by r, both uniform and known to neither party.

    If the bit is gtz(x) of this very x and has not started, gtz's own
    opening of x - a serves as e: it starts on the 'cmpselect' row, whose
    select correlation shares gtz's a, and opens all 64 bits of x - a, and
    the select's round opens z alone. A bit that has started, as one riding
    other openings or one read before, or the bit of another operand, gets
    a fresh correlation: reusing gtz's a on another y would open y - x."""
    if not isinstance(bit, BinShare) or not isinstance(x, ArithShare):
        raise TypeError(f"select takes a BinShare bit and an ArithShare, not {type(bit).__name__} "
                        f"and {type(x).__name__}")
    if bit.shape != x.shape:
        raise ShapeMismatch(f"{bit.shape} vs {x.shape}")
    if isinstance(bit, PendingBit) and bit.operand is x and not bit.started:
        fused = {}
        bit.start(fused)
        bit = ctx.bin(bit.t)
        t, e = fused["row"], fused["e"]
        (z,) = open_shares(ctx.session, tag, [bit ^ ctx.bin(t.r_bin)], [1])
    else:
        bit = ctx.bin(bit.t)  # a comparison in flight finishes first and frees its triples
        t = ctx.triples.take(TripleSpec("select", x.shape))
        e, z = open_shares(ctx.session, tag, [x - ctx.arith(t.a), bit ^ ctx.bin(t.r_bin)], [WORD_BITS, 1])
    sign = RingTensor(np.uint64(1) - np.uint64(2) * z.data)  # 1 - 2z: 1 or -1
    return ctx.arith(z * x.t + sign * (e * t.r + t.ar))


def mux(ctx: ProtocolCtx, cond: BinShare, x: ArithShare, y: ArithShare) -> ArithShare:
    """Oblivious select cond*x + (1-cond)*y for a XOR-shared 0/1 cond. No
    model calls mux (max-pool is b + d * gtz(d)): it stays for its tests
    and for the benchmark's tracer, which wraps it by name."""
    return y + select(ctx, cond, x - y, tag="mux.open")
