"""Interactive share protocols: multiplication, conversions, comparison."""

import numpy as np
import pytest

from mpcnn import arith, sharing
from mpcnn.dealer import TripleSpec
from mpcnn.engine import (
    PlainEngine,
    SecureEngine,
    e_concat,
    e_reshape,
    e_stack,
    e_sum,
    e_take,
    e_upsample2x,
    maxpool2d,
    tournament_max,
)
from mpcnn.ring import (
    ComparisonDomainError,
    ConvGeometry,
    FixedPointConfig,
    RingRangeError,
    RingTensor,
    ShapeMismatch,
    bit_slice,
    conv2d_ring,
    decode,
    encode,
    from_words,
    gtz_plain,
    matmul_ring,
    pool_windows,
    zeros,
)
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import ArithShare, BinShare, open_shares, reveal, share_input, share_public
from mpcnn.transport import Role

from conftest import CHI2_CUT, byte_chi2, run_tcp_with_dealer

CFG = FixedPointConfig(16)  # comparison domain |x| < 2^31
FULL = FixedPointConfig(16, cmp_bits=63)  # gtz exact on every word
RNG = np.random.default_rng(1234)


@pytest.fixture(scope="module")
def rt():
    with LocalRuntime() as runtime:
        yield runtime


def shared_pair(ctx, x: RingTensor, holder=Role.P0):
    return share_input(ctx.role, x if ctx.role is holder else None, holder, x.shape)


def bin_shared(ctx, bits: np.ndarray) -> BinShare:
    """A XOR sharing of 0/1 words: P0 holds them, P1 zeros."""
    return BinShare(ctx.role, RingTensor(bits if ctx.role is Role.P0 else np.zeros_like(bits)))


def run_secure(rt, fn, cfg=CFG):
    """fn(ctx) on both parties; returns P0's result."""
    vals = rt.run_session(fn, fn, cfg=cfg)
    return vals[Role.P0]


def rand_words(shape):
    return RingTensor(RNG.integers(0, 1 << 64, size=shape, dtype=np.uint64))


def rand_fixed(shape, lo=-64.0, hi=64.0):
    return encode(RNG.uniform(lo, hi, size=shape), CFG)


def held_linear_both(rt, op, x, w):
    """op(ctx, x shared by P0, w shared by P1) on both parties; returns
    (reconstructed output, {role: (bytes sent, bytes received, rounds)})."""

    def fn(ctx):
        xs = shared_pair(ctx, x)
        ws = shared_pair(ctx, w, holder=Role.P1)
        before = ctx.session.measure()
        z = op(ctx, xs, ws)
        after = ctx.session.measure()
        cost = (after.bytes_sent - before.bytes_sent, after.bytes_recv - before.bytes_recv,
                after.rounds - before.rounds)
        return reveal(ctx.session, z), cost

    vals = rt.run_session(fn, fn, cfg=CFG)
    return vals[Role.P0][0], {role: v[1] for role, v in vals.items()}


UNHELD = {
    # a weight P0 shared as its own input, and a weight that is a product
    # output rather than anyone's input
    "p0-input": lambda ctx, w: shared_pair(ctx, w, holder=Role.P0),
    "product": lambda ctx, w: arith.beaver_mul(
        ctx, shared_pair(ctx, w, holder=Role.P1),
        shared_pair(ctx, from_words(np.ones(w.shape, dtype=np.uint64)), holder=Role.P1)),
}


class TestBeaverMul:
    def test_two_times_three(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, encode(2.0, CFG))
            y = shared_pair(ctx, encode(3.0, CFG), holder=Role.P1)
            raw = arith.beaver_mul(ctx, x, y)
            out = SecureEngine(ctx).trunc(raw)
            return reveal(ctx.session, raw), reveal(ctx.session, out)

        raw, out = run_secure(rt, fn)
        assert raw == encode(2.0, CFG) * encode(3.0, CFG)  # 6 * 2^32
        assert abs(decode(out, CFG)[()] - 6.0) <= 2.0 ** (1 - CFG.frac_bits)

    def test_mul_by_shared_zero(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, rand_words((20,)))
            z = shared_pair(ctx, zeros((20,)))
            return reveal(ctx.session, arith.beaver_mul(ctx, x, z))

        assert run_secure(rt, fn) == zeros((20,))

    def test_exact_ring_equality_random(self, rt):
        x = rand_words((64,))
        y = rand_words((64,))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            ys = shared_pair(ctx, y, holder=Role.P1)
            return reveal(ctx.session, arith.beaver_mul(ctx, xs, ys))

        assert run_secure(rt, fn) == x * y

    def test_transcript_law_384(self, rt):
        # one opening: e and d together, 2 tensors x 384 words x 8 bytes each way
        def fn(ctx):
            x = shared_pair(ctx, rand_fixed((384,)))
            y = shared_pair(ctx, rand_fixed((384,)), holder=Role.P1)
            before = ctx.session.measure()
            arith.beaver_mul(ctx, x, y)
            after = ctx.session.measure()
            return after.bytes_sent - before.bytes_sent, after.rounds - before.rounds

        sent, rounds = run_secure(rt, fn)
        assert sent == 2 * 384 * 8
        assert rounds == 1


class TestConv2d:
    def test_compactcnn_shape(self, rt):
        geom = ConvGeometry(1, 32, 1, 64)

        def fn(ctx):
            x = shared_pair(ctx, rand_fixed((1, 1, 384), -2, 2))
            w = shared_pair(ctx, rand_fixed(geom.weight_shape(), -1, 1), holder=Role.P1)
            return reveal(ctx.session, arith.conv2d(ctx, x, w, geom)).shape

        assert run_secure(rt, fn) == (32, 1, 321)

    def test_identity_kernel(self, rt):
        geom = ConvGeometry(1, 1, 1, 1)
        x = rand_fixed((1, 5, 6))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            w = shared_pair(ctx, from_words(np.ones((1, 1, 1, 1), dtype=np.uint64)), holder=Role.P1)
            return reveal(ctx.session, arith.conv2d(ctx, xs, w, geom))

        assert run_secure(rt, fn) == x

    def test_random_exact_vs_oracle(self, rt):
        # P0 sends the input-shaped m = x0 - a0 and P1 the kernel-shaped
        # d = W - b, crossing in one round
        geom = ConvGeometry(3, 4, 3, 3, stride=1, padding=1)
        x = rand_words((3, 8, 8))
        w = rand_words(geom.weight_shape())
        got, cost = held_linear_both(rt, lambda ctx, xs, ws: arith.conv2d(ctx, xs, ws, geom), x, w)
        assert got == conv2d_ring(x, w, geom)
        assert cost[Role.P0] == (3 * 8 * 8 * 8, 4 * 3 * 3 * 3 * 8, 1)
        assert cost[Role.P1] == (4 * 3 * 3 * 3 * 8, 3 * 8 * 8 * 8, 1)

    @pytest.mark.parametrize("kind", sorted(UNHELD))
    def test_unheld_weight_raises(self, rt, kind):
        geom = ConvGeometry(2, 3, 3, 3, padding=1)

        def fn(ctx):
            x = shared_pair(ctx, rand_words((2, 5, 5)))
            arith.conv2d(ctx, x, UNHELD[kind](ctx, rand_words(geom.weight_shape())), geom)

        with pytest.raises(arith.WeightNotHeld):
            rt.run_session(fn, fn, cfg=CFG)


    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 4, 4), (4, 4)], ids=["no-window", "channels", "rank-2"])
    def test_bad_geometry_raises_before_any_byte(self, rt, shape):
        # ShapeMismatch at both parties, with no online byte and no dealer
        # request past the seed
        geom = ConvGeometry(1, 1, 3, 3)

        def fn(ctx):
            x, w = shared_pair(ctx, zeros(shape)), shared_pair(ctx, zeros(geom.weight_shape()), holder=Role.P1)
            with pytest.raises(ShapeMismatch):
                arith.conv2d(ctx, x, w, geom)
            return ctx.session.transcript.counters()[:3], ctx.session.dealer_transcript.rounds

        got = rt.run_session(fn, fn, cfg=CFG)
        assert got[Role.P0] == got[Role.P1] == ((0, 0, 0), 1)


class TestMatmul:
    def test_dense_layer_shape(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, rand_fixed((1, 32)))
            w = shared_pair(ctx, rand_fixed((32, 2)), holder=Role.P1)
            return reveal(ctx.session, arith.matmul(ctx, x, w)).shape

        assert run_secure(rt, fn) == (1, 2)

    def test_identity(self, rt):
        x = rand_fixed((4, 4))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            eye = from_words(np.eye(4, dtype=np.uint64))
            ws = shared_pair(ctx, eye, holder=Role.P1)
            return reveal(ctx.session, arith.matmul(ctx, xs, ws))

        assert run_secure(rt, fn) == x

    def test_random_exact_vs_oracle(self, rt):
        a = rand_words((5, 7))
        b = rand_words((7, 3))

        def fn(ctx):
            xs = shared_pair(ctx, a)
            ws = shared_pair(ctx, b, holder=Role.P1)
            return reveal(ctx.session, arith.matmul(ctx, xs, ws))

        assert run_secure(rt, fn) == matmul_ring(a, b)

    def test_random_exact_one_way_bytes(self, rt):
        # P0 sends the (m, k) input mask, P1 the (k, n) weight mask, one round
        a = rand_words((5, 7))
        b = rand_words((7, 3))
        got, cost = held_linear_both(rt, arith.matmul, a, b)
        assert got == matmul_ring(a, b)
        assert cost[Role.P0] == (5 * 7 * 8, 7 * 3 * 8, 1)
        assert cost[Role.P1] == (7 * 3 * 8, 5 * 7 * 8, 1)

    @pytest.mark.parametrize("kind", sorted(UNHELD))
    def test_unheld_weight_raises(self, rt, kind):
        def fn(ctx):
            x = shared_pair(ctx, rand_words((1, 4)))
            arith.matmul(ctx, x, UNHELD[kind](ctx, rand_words((4, 2))))

        with pytest.raises(arith.WeightNotHeld):
            rt.run_session(fn, fn, cfg=CFG)

    @pytest.mark.parametrize("xshape, wshape", [((1, 2, 3), (3, 2)), ((3,), (3, 2)), ((1, 3), (3, 2, 1))],
                             ids=["rank-3-input", "rank-1-input", "rank-3-weight"])
    def test_bad_rank_raises_before_any_byte(self, rt, xshape, wshape):
        # ShapeMismatch at both parties, as PlainEngine raises for the same
        # operands, with no online byte and no correlation taken
        def fn(ctx):
            x, w = shared_pair(ctx, zeros(xshape)), shared_pair(ctx, zeros(wshape), holder=Role.P1)
            with pytest.raises(ShapeMismatch):
                arith.matmul(ctx, x, w)
            return ctx.session.transcript.counters()[:3], ctx.triples.next_index

        with pytest.raises(ShapeMismatch):
            PlainEngine(CFG).matmul(zeros(xshape), zeros(wshape))
        got = rt.run_session(fn, fn, cfg=CFG)
        assert got[Role.P0] == got[Role.P1] == ((0, 0, 0), 0)


class TestHeldOverTcp:
    def test_conv_and_matmul_match_inproc(self):
        # P0, P1 and the dealer each on their own TcpFabric: the same outputs
        # bit for bit, and the same party and dealer transcripts, as in-process
        geom = ConvGeometry(3, 4, 3, 3, stride=2, padding=1)
        x, w = rand_words((3, 9, 9)), rand_words(geom.weight_shape())
        a, b = rand_words((1, 16)), rand_words((16, 5))

        def fn(ctx):
            conv = arith.conv2d(ctx, shared_pair(ctx, x), shared_pair(ctx, w, holder=Role.P1), geom)
            mm = arith.matmul(ctx, shared_pair(ctx, a), shared_pair(ctx, b, holder=Role.P1))
            out = reveal(ctx.session, conv), reveal(ctx.session, mm)
            return out, ctx.session.measure().counters(), ctx.session.dealer_transcript.counters()

        tcp = run_tcp_with_dealer(fn)
        with LocalRuntime() as runtime:
            inproc = runtime.run_session(fn, fn, cfg=CFG)
        for role in (Role.P0, Role.P1):
            (conv, mm), party, dealt = tcp[role]
            assert conv == conv2d_ring(x, w, geom) and mm == matmul_ring(a, b)
            assert (party, dealt) == inproc[role][1:]


class TestConversions:
    def test_a2b_of_zero(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, zeros((4,)))
            return reveal(ctx.session, arith.a2b(ctx, x))

        assert run_secure(rt, fn) == zeros((4,))

    def test_a2b_minus_one_pattern(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, encode(-1.0, CFG).reshape(1))
            return reveal(ctx.session, arith.a2b(ctx, x))

        got = run_secure(rt, fn)
        assert int(got.data[0]) == (2**64 - 65536)  # all-ones above the fraction

    def test_roundtrip_exact_10k(self, rt):
        x = rand_words((10_000,))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, arith.a2b(ctx, xs))

        assert run_secure(rt, fn) == x

    def test_a2b_uses_exactly_6_and_phases(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, rand_words((32,)))
            arith.a2b(ctx, x)
            t = ctx.session.measure()
            return t.tags

        tags = run_secure(rt, fn)
        assert tags["a2b.and"].phases == 6
        assert tags["a2b.mask"].phases == 1

    def test_a2b_deals_one_word_pair_per_element(self, rt):
        n = 100
        x = rand_words((n,))

        def fn(ctx):
            # the kinds and dealt bytes of each of a2b's dealer requests
            src, d = ctx.triples, ctx.session.dealer_transcript
            fetch, fetched = src.take_many, []

            def recorded(specs):
                before = d.bytes_recv
                out = fetch(specs)
                fetched.append(([s.kind for s in specs], d.bytes_recv - before))
                return out

            src.take_many = recorded
            arith.a2b(ctx, shared_pair(ctx, x))
            return fetched

        vals = rt.run_session(fn, fn, cfg=CFG)
        # the arith half of one word pair per element, then the c of 6 AND
        # levels on (G, P) lane pairs
        kinds = ["maskpair"] + ["bool"] * 6
        assert vals[Role.P0] == [(kinds, 8 * n + 6 * 8 * 2 * n)]  # one dealer round trip
        assert vals[Role.P0][0][1] / n == 104
        assert vals[Role.P1] == [(kinds, 0)]  # P1 expands its half from its seed

    def test_b2a_single_bits(self, rt):
        # a XOR-shared bit selecting the public word 1 is its additive sharing
        bits = RNG.integers(0, 2, size=1000).astype(np.uint64)
        m = RNG.integers(0, 2, size=1000).astype(np.uint64)

        def fn(ctx):
            sh = BinShare(ctx.role, RingTensor(bits ^ m if ctx.role is Role.P0 else m))
            one = share_public(from_words(np.ones(1000, dtype=np.uint64)), ctx.role)
            return reveal(ctx.session, arith.select(ctx, sh, one))

        got = run_secure(rt, fn)
        assert np.array_equal(got.data, bits)

    def test_masked_opening_uniform(self, rt):
        # the z = bit xor r that select opens, over 10^4 trials of a fixed
        # bit, is indistinguishable from fair coins
        def fn_probe(ctx):
            t = ctx.triples.take(TripleSpec("select", (10_000,)))
            sh = BinShare(ctx.role, zeros((10_000,)))
            (z,) = open_shares(ctx.session, "z", [sh ^ ctx.bin(t.r_bin)], [1])
            return float(z.data.mean())

        freq = run_secure(rt, fn_probe)
        assert 0.48 <= freq <= 0.52


def _carry_tree_rows(lanes: int) -> tuple:
    """(opened, dealt) rows of 64-element words per party in gtz's carry-out
    tree. Level 1 pairs lanes 0..lanes-1 locally from lanes // 2 dealt
    lane-pair rows. Each later level, at m groups, pairs h = m // 2 and opens
    each pair's P_hi once, with its G_lo and, but for the lowest pair, whose
    P is never read, its P_lo: 3h - 1 rows against 2h - 1 dealt product
    rows."""
    groups, opened, dealt = lanes - lanes // 2, 0, lanes // 2
    while groups > 1:
        h = groups // 2
        opened, dealt = opened + 3 * h - 1, dealt + 2 * h - 1
        groups -= h
    return opened, dealt


def _gtz_openings(rt, monkeypatch, cfg, n):
    """P0's openings in one gtz on n elements, read at once: (tag, shapes)."""
    x, opened, real = rand_fixed((n,)), [], sharing._opening

    def recording(tag, shares, widths):
        if shares[0].owner is Role.P0:
            opened.append((tag, [s.shape for s in shares]))
        return real(tag, shares, widths)

    monkeypatch.setattr(sharing, "_opening", recording)
    run_secure(rt, lambda ctx: arith.gtz(ctx, shared_pair(ctx, x)).t, cfg)
    return opened


def read_then_select(ctx, x):
    bit = arith.gtz(ctx, x)
    bit.t
    return arith.select(ctx, bit, x)


def reveal_then_select(ctx, x):
    bit = arith.gtz(ctx, x)
    reveal(ctx.session, bit)
    return arith.select(ctx, bit, x)


class TestGtz:
    def test_examples(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, encode([5.0, -5.0, 0.0], CFG))
            return reveal(ctx.session, arith.gtz(ctx, x))

        assert run_secure(rt, fn) == from_words([1, 0, 0])

    def test_directed_reveal_of_a_pending_bit(self, rt):
        # the bit is XOR-shared and still in flight: revealed to either party
        # it finishes its openings first and reconstructs with ^, so it
        # equals the symmetric reveal
        x = rand_fixed((100,))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return [reveal(ctx.session, arith.gtz(ctx, xs), to=to) for to in ("both", "p0", "p1")]

        vals = rt.run_session(fn, fn)
        (both0, to_p0, none1), (both1, none0, to_p1) = vals[Role.P0], vals[Role.P1]
        assert both0 == both1 == to_p0 == to_p1 == gtz_plain(x)
        assert none0 is None and none1 is None

    def test_rounds_is_5(self, rt):
        # the mask opening and the 4 AND levels after the local first one
        # over 31 lanes, run alone when the bit is read at once; the bit
        # stays XOR-shared
        def fn(ctx):
            x = shared_pair(ctx, rand_fixed((100,)))
            before = ctx.session.measure().rounds
            arith.gtz(ctx, x).t  # reading the bit runs its openings
            return ctx.session.measure().rounds - before

        assert run_secure(rt, fn) == 5

    @pytest.mark.parametrize("cfg", [CFG, FULL], ids=["l31", "l63"])
    def test_each_level_opens_3h_minus_1_rows(self, rt, monkeypatch, cfg):
        # at m groups a level opens the h = m // 2 pairs' P_hi once and their
        # 2h - 1 G_lo and P_lo rows, in the shapes of its fan-out triple
        n = 100
        opened = _gtz_openings(rt, monkeypatch, cfg, n)
        shapes = arith._tree_shapes(n, cfg.cmp_bits)
        assert opened == [("gtz.mask", [(n,)])] + [
            ("gtz.and", [((rows + 1) // 2, 2), (rows, 2)]) for rows, _ in shapes]
        rows = [sum(s[0] for s in got) for _, got in opened[1:]]
        assert rows == {31: [23, 11, 5, 2], 63: [47, 23, 11, 5, 2]}[cfg.cmp_bits]
        assert sum(rows) == _carry_tree_rows(cfg.cmp_bits)[0]

    @pytest.mark.parametrize("cfg", [CFG, FULL], ids=["l31", "l63"])
    def test_no_level_1_and_is_opened(self, rt, monkeypatch, cfg):
        # a tree on l lanes takes ceil(log2 l) AND levels, 5 at l = 31 and 6
        # at l = 63; gtz opens one fewer, and its first AND opening pairs
        # the ceil(l / 2) groups that level 1 left, not the l lanes
        opened = _gtz_openings(rt, monkeypatch, cfg, 64)
        ands = [shapes for tag, shapes in opened if tag == "gtz.and"]
        assert len(ands) == {31: 4, 63: 5}[cfg.cmp_bits]
        assert ands[0][0] == ((cfg.cmp_bits + 1) // 4, 1)

    def test_fanout_opening_uniform(self, rt):
        # P1's view of a fan-out level's opening, e = P_hi ^ a and f = (G_lo
        # ‖ P_lo) ^ b, over 3 * 10^4 words of fixed operands (all ones and
        # all zeros): each bit position is a fair coin
        def fn(ctx):
            t = ctx.triples.take(TripleSpec("fanout", (19_999, 1)))  # a has 10^4 rows
            ones = from_words(np.full((10_000, 1), (1 << 64) - 1, dtype=np.uint64))
            hi = BinShare(ctx.role, ones if ctx.role is Role.P0 else zeros((10_000, 1)))
            lo = BinShare(ctx.role, zeros((19_999, 1)))
            e, f = open_shares(ctx.session, "and", [hi ^ ctx.bin(t.a), lo ^ ctx.bin(t.b)])
            words = np.concatenate([e.data, f.data]).reshape(-1)
            return ((words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).mean(axis=0)

        freq = rt.run_session(fn, fn, cfg=CFG)[Role.P1]
        assert np.all((0.48 <= freq) & (freq <= 0.52))

    @pytest.mark.parametrize("n", [64 * 2, 100])
    def test_exact_bytes_per_element(self, rt, n):
        # derived from the circuit, at the default domain l = 31 and over the
        # whole ring (l = 63); n = 128 fills the 64-element words of the
        # bit-sliced tree, n = 100 leaves the last one ragged
        words = -(-n // 64)

        def fn(ctx, op):
            x = shared_pair(ctx, rand_fixed((n,)))
            before = ctx.session.measure()
            d = ctx.session.dealer_transcript
            dealt, requests = d.bytes_recv, d.rounds
            op(ctx, x).t  # read the result: a comparison's openings run now
            after = ctx.session.measure()
            return (after.bytes_sent - before.bytes_sent, after.rounds - before.rounds,
                    d.bytes_recv - dealt, d.rounds - requests)

        def both(op, cfg):
            vals = rt.run_session(lambda ctx: fn(ctx, op), lambda ctx: fn(ctx, op), cfg=cfg)
            return vals[Role.P0], vals[Role.P1]

        for cfg, rows, rounds, per_elem in ((CFG, (41, 41), 5, (9.125, 9.125, 13.25, 25.125)),
                                            (FULL, (88, 88), 6, (19.0, 19.0, 19.125, 35.0))):
            opened, dealt = _carry_tree_rows(cfg.cmp_bits)
            assert (opened, dealt) == rows
            # the low l + 1 bits of the masked word, then the AND openings:
            # 4n + 328 * ceil(n / 64) B at l = 31, 8n + 704 * ceil(n / 64) at 63
            gtz_online = (cfg.cmp_bits + 1) // 8 * n + 8 * opened * words
            assert 8 * opened == {31: 328, 63: 704}[cfg.cmp_bits]
            # P0 receives the low l + 1 bits of one correction word per
            # element of the mask, one word per lane-pair row and one per
            # fan-out product row, all in one request; P1 expands its
            # halves from its seed and receives nothing
            gtz_dealer = (cfg.cmp_bits + 1) // 8 * n + 8 * dealt * words
            # relu adds one select, which reuses gtz's masked word: gtz opens
            # all 8 bytes of it, the select's round opens only the packed
            # masked bit, and P0 receives the select's two correction words
            # per element in gtz's request. Per party that is 8n + 328 *
            # ceil(n / 64) + ceil(n / 8) B at l = 31 and 8n + 704 *
            # ceil(n / 64) + ceil(n / 8) at l = 63
            relu_online = 8 * n + 8 * opened * words + -(-n // 8)
            relu_dealer = gtz_dealer + 16 * n
            assert both(arith.gtz, cfg) == ((gtz_online, rounds, gtz_dealer, 1), (gtz_online, rounds, 0, 0))
            assert both(lambda ctx, x: arith.select(ctx, arith.gtz(ctx, x), x), cfg) == (
                (relu_online, rounds + 1, relu_dealer, 1), (relu_online, rounds + 1, 0, 0))
            # a bit read, or revealed (one more round of 8n B), before its
            # select has started on gtz's own correlation: the select opens
            # its masked word itself and fetches its correlation in a request
            # of its own
            online = gtz_online + 8 * n + -(-n // 8)
            assert both(read_then_select, cfg)[0] == (online, rounds + 1, relu_dealer, 2)
            assert both(reveal_then_select, cfg)[0] == (online + 8 * n, rounds + 2, relu_dealer, 2)
            if n % 64 == 0:  # per element per party
                assert (gtz_online / n, gtz_dealer / n, relu_online / n, relu_dealer / n) == per_elem

    @pytest.mark.parametrize("shape", [(1,), (63,), (64,), (65,), (3, 5, 7)])
    def test_full_ring_vs_oracle(self, rt, shape):
        # uniform words over the whole ring, with the edge words at both ends;
        # the element counts straddle the 64-element words of the sliced tree
        edge_words = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
        cases = []
        for k in range(0, len(edge_words), int(np.prod(shape))):
            x = rand_words(shape)
            flat = x.data.reshape(-1)
            edges = edge_words[k : k + flat.size]
            flat[: len(edges)] = edges
            flat[flat.size - len(edges) :] = edges[::-1]
            cases.append(x)

        def fn(ctx):
            return [reveal(ctx.session, arith.gtz(ctx, shared_pair(ctx, x))) for x in cases]

        for x, got in zip(cases, run_secure(rt, fn, FULL)):
            assert got == gtz_plain(x)

    def test_bit_slice_layout(self):
        # bit k of word j in row l is bit l of element 64j + k; padding is zero
        x = rand_words((2, 70)).data
        got = bit_slice(x)
        assert got.shape == (2, 64, 2)
        for b in range(2):
            for e in range(128):
                for lane in range(64):
                    want = (int(x[b, e]) >> lane) & 1 if e < 70 else 0
                    assert (int(got[b, lane, e // 64]) >> (e % 64)) & 1 == want

    @pytest.mark.parametrize("rows", [1, 30, 32, 33, 64])
    def test_bit_slice_low_rows(self, rows):
        # the first rows of the full slicing, by the half-width path at
        # rows <= 32
        x = rand_words((3, 130)).data
        assert np.array_equal(bit_slice(x, rows), bit_slice(x)[:, :rows])

    def test_oracle_sweep(self, rt):
        ks = RNG.integers(-(1 << 40), 1 << 40, size=20_000)
        ks[:3] = [0, 1, -1]
        x = RingTensor(ks.view(np.uint64))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, arith.gtz(ctx, xs))

        got = run_secure(rt, fn, FULL)
        assert np.array_equal(got.data.astype(bool), ks > 0)

    def test_domain_vs_oracle(self, rt):
        # 10^5 words over the whole default domain |x| < 2^31, with its edges
        # +-(2^31 - 1), 0 and +-1: gtz and the ReLU select(gtz(x), x) are
        # bit-exact against the ring oracle and the plain engine
        ks = domain_words(100_000)
        x = RingTensor(ks.view(np.uint64))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            bit = arith.gtz(ctx, xs)
            return reveal(ctx.session, bit), reveal(ctx.session, arith.select(ctx, bit, xs))

        bit, relu = run_secure(rt, fn)
        plain = PlainEngine(CFG)
        assert bit == gtz_plain(x) == plain.gtz(x)
        assert relu == plain.mul_raw(x, plain.gtz(x))
        assert np.array_equal(relu.signed(), np.maximum(ks, 0))

    def test_domain_edges_over_tcp(self):
        # P0, P1 and the dealer each on their own TcpFabric: the same bits at
        # the domain edges, and the same party and dealer transcripts, as
        # in-process
        cases = [RingTensor(domain_words(n).view(np.uint64)) for n in (5, 64, 65, 1000)]

        def fn(ctx):
            bits = [reveal(ctx.session, arith.gtz(ctx, shared_pair(ctx, x))) for x in cases]
            return bits, ctx.session.measure().counters(), ctx.session.dealer_transcript.counters()

        tcp = run_tcp_with_dealer(fn)
        with LocalRuntime() as runtime:
            inproc = runtime.run_session(fn, fn, cfg=CFG)
        for role in (Role.P0, Role.P1):
            bits, party, dealt = tcp[role]
            assert all(b == gtz_plain(x) for b, x in zip(bits, cases))
            assert (party, dealt) == inproc[role][1:]

    def test_oracle_refuses_outside_domain(self):
        # the plain oracle takes exactly |x| < 2^cmp_bits; at cmp_bits = 63
        # that is every word but -2^63
        lim = 2**31
        inside = from_words(np.array([lim - 1, 0, 1, -1, -(lim - 1)], dtype=np.int64).view(np.uint64))
        assert PlainEngine(CFG).gtz(inside) == from_words([1, 0, 1, 0, 0])
        for k in (lim, -lim, 2**40, -(2**62)):
            with pytest.raises(ComparisonDomainError):
                PlainEngine(CFG).gtz(from_words(np.array([3, k], dtype=np.int64).view(np.uint64)))
        edges = from_words([0, 1, 2**63 - 1, 2**63 + 1, 2**64 - 1])
        assert PlainEngine(FULL).gtz(edges) == gtz_plain(edges)
        with pytest.raises(ComparisonDomainError):
            PlainEngine(FULL).gtz(from_words([2**63]))
        assert issubclass(ComparisonDomainError, RingRangeError)


def domain_words(n: int) -> np.ndarray:
    """n signed words uniform over |x| < 2^31, starting with the domain's
    edges +-(2^31 - 1), 0 and +-1."""
    ks = RNG.integers(-(2**31) + 1, 2**31, size=n)
    edges = [2**31 - 1, -(2**31 - 1), 0, 1, -1][:n]
    ks[: len(edges)] = edges
    return ks


SELECT_SHAPES = [(1,), (63,), (64,), (65,), (3, 5, 7)]
SELECT_EDGES = [0, 2**63, 2**64 - 1]


def select_cases(shape):
    """(v, x) pairs of uniform words over the whole ring, with x at 0, 2^63
    and 2^64 - 1 at both ends and at least one positive and one non-positive
    v; the element counts straddle the 64-element words of gtz's tree."""
    cases = []
    for k in range(0, len(SELECT_EDGES), int(np.prod(shape))):
        v, x = rand_words(shape), rand_words(shape)
        vf, xf = v.data.reshape(-1), x.data.reshape(-1)
        edges = SELECT_EDGES[k : k + xf.size]
        xf[: len(edges)] = edges
        xf[xf.size - len(edges) :] = edges[::-1]
        vf[0] = 5
        vf[-1] = 2**64 - 5
        cases.append((v, x))
    return cases


def select_vs_oracle(ctx, cases):
    """[(x * bit revealed, party transcript counters of the selects)] with
    bit = gtz(v), read before the select, for every (v, x) case."""
    out = []
    for v, x in cases:
        bit = arith.gtz(ctx, shared_pair(ctx, v))
        bit.t  # the comparison's openings run here, outside the select's count
        xs = shared_pair(ctx, x, holder=Role.P1)
        before = ctx.session.measure()
        z = arith.select(ctx, bit, xs)
        after = ctx.session.measure()
        cost = after.bytes_sent - before.bytes_sent, after.bytes_recv - before.bytes_recv, after.rounds - before.rounds
        out.append((reveal(ctx.session, z), cost))
    return out


class TestSelect:
    @pytest.mark.parametrize("shape", SELECT_SHAPES)
    def test_full_ring_vs_oracle(self, rt, shape):
        # exact over the ring: one round, the masked word and the packed
        # masked bit each way
        cases = select_cases(shape)
        n = int(np.prod(shape))
        for (v, x), (got, cost) in zip(cases, run_secure(rt, lambda ctx: select_vs_oracle(ctx, cases), FULL)):
            assert got == x * gtz_plain(v)
            assert cost == (8 * n + -(-n // 8),) * 2 + (1,)

    def test_full_ring_over_tcp(self):
        # P0, P1 and the dealer each on their own TcpFabric: the same outputs
        # bit for bit, and the same party and dealer transcripts, as in-process
        cases = [c for shape in SELECT_SHAPES for c in select_cases(shape)]

        def fn(ctx):
            return ([z for z, _ in select_vs_oracle(ctx, cases)], ctx.session.measure().counters(),
                    ctx.session.dealer_transcript.counters())

        tcp = run_tcp_with_dealer(fn, FULL)
        with LocalRuntime() as runtime:
            inproc = runtime.run_session(fn, fn, cfg=FULL)
        for role in (Role.P0, Role.P1):
            outs, party, dealt = tcp[role]
            assert all(z == x * gtz_plain(v) for z, (v, x) in zip(outs, cases))
            assert (party, dealt) == inproc[role][1:]

    def test_deals_two_correction_words_per_element(self, rt):
        n = 100

        def fn(ctx):
            bit = bin_shared(ctx, RNG.integers(0, 2, size=n).astype(np.uint64))
            d = ctx.session.dealer_transcript
            before = d.bytes_recv, d.rounds
            arith.select(ctx, bit, shared_pair(ctx, rand_words((n,))))
            return d.bytes_recv - before[0], d.rounds - before[1]

        vals = rt.run_session(fn, fn, cfg=CFG)
        assert vals[Role.P0] == (16 * n, 1)  # P0's shares of r and a*r, one request
        assert vals[Role.P1] == (0, 0)

    def test_refuses_an_arithmetic_bit(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, rand_words((4,)))
            c = shared_pair(ctx, from_words([0, 1, 1, 0]))
            with pytest.raises(TypeError):
                arith.select(ctx, c, x)
            with pytest.raises(TypeError):
                arith.mux(ctx, c, x, x)
            return True

        assert run_secure(rt, fn)


class TestShareTypes:
    def test_arith_refuses_a_xor_share(self):
        a = ArithShare(Role.P0, rand_words((4,)))
        b = BinShare(Role.P0, rand_words((4,)))
        for op in (lambda: a + b, lambda: a - b, lambda: b ^ a):
            with pytest.raises(TypeError):
                op()

    def test_data_movement_keeps_xor_shares(self, rt):
        # stacked, taken and reshaped comparison bits still reveal as XOR
        # shares, and summing them is refused
        v = rand_words((2, 6))

        def fn(ctx):
            e = SecureEngine(ctx)
            bits = e.gtz(shared_pair(ctx, v))
            moved = [e_stack(e, [bits, bits]), e_take(e, bits, 1, axis=0), e_reshape(e, bits, (3, 4))]
            assert all(isinstance(m, BinShare) for m in moved)
            with pytest.raises(TypeError):
                e_sum(e, bits, axis=0)
            return [reveal(ctx.session, m) for m in moved]

        stacked, taken, reshaped = run_secure(rt, fn, FULL)
        want = gtz_plain(v).data
        assert np.array_equal(stacked.data, np.stack([want, want]))
        assert np.array_equal(taken.data, want[1])
        assert np.array_equal(reshaped.data, want.reshape(3, 4))

    def test_mul_raw_selects_by_a_xor_bit(self, rt):
        # either operand order reaches select, and agrees with the oracle
        v, x = rand_words((50,)), rand_words((50,))

        def fn(ctx):
            e = SecureEngine(ctx)
            bit, xs = e.gtz(shared_pair(ctx, v)), shared_pair(ctx, x)
            return [reveal(ctx.session, e.mul_raw(a, b)) for a, b in ((bit, xs), (xs, bit))]

        plain = PlainEngine(FULL)
        want = plain.mul_raw(x, plain.gtz(v))
        assert all(got == want for got in run_secure(rt, fn, FULL))


class TestMuxRelu:
    def test_mux_selects(self, rt):
        x = rand_fixed((10,))
        y = rand_fixed((10,))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            ys = shared_pair(ctx, y, holder=Role.P1)
            one = bin_shared(ctx, np.ones(10, dtype=np.uint64))
            zero = bin_shared(ctx, np.zeros(10, dtype=np.uint64))
            a = reveal(ctx.session, arith.mux(ctx, one, xs, ys))
            b = reveal(ctx.session, arith.mux(ctx, zero, xs, ys))
            return a, b

        a, b = run_secure(rt, fn)
        assert a == x and b == y

    def test_mux_random_cond_vs_oracle(self, rt):
        x, y = rand_fixed((50,)), rand_fixed((50,))
        c = RNG.integers(0, 2, size=50).astype(np.uint64)

        def fn(ctx):
            xs = shared_pair(ctx, x)
            ys = shared_pair(ctx, y, holder=Role.P1)
            cs = bin_shared(ctx, c)
            return reveal(ctx.session, arith.mux(ctx, cs, xs, ys))

        got = run_secure(rt, fn)
        want = np.where(c.astype(bool), x.data, y.data)
        assert np.array_equal(got.data, want)

    def test_relu_examples_and_idempotence(self, rt):
        def fn(ctx):
            x = shared_pair(ctx, encode([-1.0, 0.0, 2.0], CFG))
            r1 = arith.select(ctx, arith.gtz(ctx, x), x)
            r2 = arith.select(ctx, arith.gtz(ctx, r1), r1)
            return reveal(ctx.session, r1), reveal(ctx.session, r2)

        r1, r2 = run_secure(rt, fn)
        assert r1 == encode([0.0, 0.0, 2.0], CFG)
        assert r2 == r1

    def test_relu_rounds_6_size_invariant(self, rt):
        # gtz 5, select 1
        for n in (10, 1000):
            def fn(ctx, n=n):
                x = shared_pair(ctx, rand_fixed((n,)))
                before = ctx.session.measure().rounds
                arith.select(ctx, arith.gtz(ctx, x), x)
                return ctx.session.measure().rounds - before

            assert run_secure(rt, fn) == 6

    def test_relu_exact_oracle_sweep(self, rt):
        ks = RNG.integers(-(1 << 36), 1 << 36, size=20_000)
        x = RingTensor(ks.view(np.uint64))

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, arith.select(ctx, arith.gtz(ctx, xs), xs))

        got = run_secure(rt, fn, FULL)
        assert np.array_equal(got.signed(), np.maximum(ks, 0))


def p1_openings(monkeypatch, tag):
    """A list that collects, per exchange, the public tensors that P1
    reconstructs from the openings tagged `tag`, with their widths."""
    seen, real = [], sharing._exchange

    def recording(session, openings):
        opened = real(session, openings)
        if session.role is Role.P1:
            seen.extend((got, widths) for (t, _, widths, _), got in zip(openings, opened) if t == tag)
        return opened

    monkeypatch.setattr(sharing, "_exchange", recording)
    return seen


class TestFusedSelect:
    """select(gtz(x), x), as ReLU and max-pool write it: the select reuses
    gtz's opening of x - a, so x is opened once."""

    def test_fused_opening_uniform(self, rt, monkeypatch):
        # P1's view of the fused opening, all 64 bits of x - a for one fixed
        # x over 2^16 elements, is featureless: uniform bytes and no serial
        # correlation, as the dealer's own share material
        seen = p1_openings(monkeypatch, "gtz.mask")
        x = encode(np.full(1 << 16, 3.0), CFG)

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, arith.select(ctx, arith.gtz(ctx, xs), xs))

        assert run_secure(rt, fn) == x
        ((e,), widths), = seen
        assert widths == [64]
        raw = e.data.view(np.uint8)
        assert byte_chi2(raw) < CHI2_CUT
        assert abs(np.corrcoef(raw[:-1].astype(np.float64), raw[1:].astype(np.float64))[0, 1]) < 0.01

    def test_other_operand_gets_its_own_mask(self, rt, monkeypatch):
        # SiLU's case: select(gtz(x), y) with y another share. Its select
        # opens y - a' with a fresh a', so P1's two openings do not differ
        # by y - x, which would leak y - x (SiLU's q - x - T) if gtz's a
        # were reused
        n = 10_000
        x, y = rand_fixed((n,)), rand_fixed((n,))
        masks, words = p1_openings(monkeypatch, "gtz.mask"), p1_openings(monkeypatch, "select.open")

        def fn(ctx):
            xs, ys = shared_pair(ctx, x), shared_pair(ctx, y, holder=Role.P1)
            return reveal(ctx.session, arith.select(ctx, arith.gtz(ctx, xs), ys))

        assert run_secure(rt, fn) == y * gtz_plain(x)
        ((e_x,), _), = masks
        ((e_y, _), widths), = words
        assert widths == [64, 1]
        low = np.uint64((1 << 32) - 1)
        same = ((e_y.data - e_x.data) & low) == ((y.data - x.data) & low)
        assert same.mean() < 0.01

    @pytest.mark.parametrize("cfg", [CFG, FULL], ids=["l31", "l63"])
    def test_relu_edges_vs_oracle(self, rt, cfg):
        # 0, +-1, the comparison domain's edges +-(2^l - 1) and the pool
        # sentinel, then uniform words of the domain; bit-exact
        lim = 2**cfg.cmp_bits
        edges = [0, 1, -1, lim - 1, -(lim - 1), cfg.pool_sentinel - 2**64]
        ks = np.concatenate([edges, RNG.integers(-lim + 1, lim, size=100, dtype=np.int64)])
        x = RingTensor(ks.view(np.uint64))

        def fn(ctx):
            e, xs = SecureEngine(ctx), shared_pair(ctx, x)
            return reveal(ctx.session, e.mul_raw(xs, e.gtz(xs)))

        plain = PlainEngine(cfg)
        got = run_secure(rt, fn, cfg)
        assert got == plain.mul_raw(x, plain.gtz(x))
        assert np.array_equal(got.signed(), np.maximum(ks, 0))

    @pytest.mark.parametrize("cfg", [CFG, FULL], ids=["l31", "l63"])
    def test_maxpool_edges_vs_oracle(self, rt, cfg):
        # one tournament level on pairs whose differences reach 0, +-1 and
        # +-(2^l - 1), the largest input 2^(l-1) - 1 of max-pool's domain
        # against its sentinel -2^(l-1) either way round; then a padded
        # 3x3 pool over the same words; bit-exact
        m, s = 2 ** (cfg.cmp_bits - 1) - 1, cfg.pool_sentinel - 2**64
        pairs = np.array([[0, 1, -1, m, -m, s, m, s, 0, 1],
                          [1, 0, 0, -m, m, m, s, s, s, -1]], dtype=np.int64)
        v = RingTensor(pairs.view(np.uint64))
        grid = RingTensor(pairs[:, :9].reshape(2, 3, 3).view(np.uint64))

        def fn(ctx):
            e = SecureEngine(ctx)
            return [reveal(ctx.session, tournament_max(e, shared_pair(ctx, v), 0)),
                    reveal(ctx.session, maxpool2d(e, shared_pair(ctx, grid), 3, 1, 1))]

        plain = PlainEngine(cfg)
        got_max, got_pool = run_secure(rt, fn, cfg)
        assert got_max == tournament_max(plain, v, 0)
        assert np.array_equal(got_max.signed(), pairs.max(axis=0))
        assert got_pool == maxpool2d(plain, grid, 3, 1, 1)


class TestAndGate:
    def test_truth_table(self, rt):
        x = from_words([0, 0, 1, 1])
        y = from_words([0, 1, 0, 1])
        mx, my = rand_words((4,)), rand_words((4,))

        def fn(ctx):
            from mpcnn.sharing import BinShare

            xs = BinShare(ctx.role, x ^ mx if ctx.role is Role.P0 else mx)
            ys = BinShare(ctx.role, y ^ my if ctx.role is Role.P1 else my)
            t = ctx.triples.take(TripleSpec("bool", (4,)))
            return reveal(ctx.session, arith.and_gate(ctx, xs, ys, t))

        assert run_secure(rt, fn) == from_words([0, 0, 0, 1])

    def test_identity_and_annihilator(self, rt):
        x = rand_words((16,))
        m = rand_words((16,))

        def fn(ctx):
            from mpcnn.sharing import BinShare

            xs = BinShare(ctx.role, x ^ m if ctx.role is Role.P0 else m)
            ones = BinShare(ctx.role, from_words(np.full(16, (1 << 64) - 1, dtype=np.uint64))
                            if ctx.role is Role.P0 else zeros((16,)))
            zero = BinShare(ctx.role, zeros((16,)))
            t0, t1 = ctx.triples.take_many([TripleSpec("bool", (16,))] * 2)
            a = reveal(ctx.session, arith.and_gate(ctx, xs, ones, t0))
            b = reveal(ctx.session, arith.and_gate(ctx, xs, zero, t1))
            return a, b

        a, b = run_secure(rt, fn)
        assert a == x
        assert b == zeros((16,))


class TestTensorOps:
    def test_concat_split_upsample_free(self, rt):
        x = rand_fixed((4, 6, 6))

        def fn(ctx):
            e = SecureEngine(ctx)
            xs = shared_pair(ctx, x)
            before = ctx.session.measure()
            parts = [e_take(e, xs, [0, 1], axis=0), e_take(e, xs, [2, 3], axis=0)]
            back = e_concat(e, parts, axis=0)
            up = e_upsample2x(e, back)
            after = ctx.session.measure()
            assert after.bytes_sent == before.bytes_sent and after.rounds == before.rounds
            return reveal(ctx.session, up)

        got = run_secure(rt, fn)
        assert np.array_equal(got.data[:, ::2, ::2], x.data)

class TestMaxpool:
    def test_sppf_geometry_preserves_shape(self, rt):
        x = rand_fixed((2, 8, 8), -4, 4)

        def fn(ctx):
            xs = shared_pair(ctx, x)
            e = SecureEngine(ctx)
            return reveal(ctx.session, maxpool2d(e, xs, 5, 1, 2))

        got = run_secure(rt, fn)
        assert got.shape == (2, 8, 8)
        plain = maxpool2d(PlainEngine(CFG), x, 5, 1, 2)
        assert got == plain

    def test_constant_unchanged(self, rt):
        x = encode(np.full((1, 6, 6), 2.5), CFG)

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, maxpool2d(SecureEngine(ctx), xs, 3, 1, 1))

        assert run_secure(rt, fn) == x

    def test_oracle_agreement_random(self, rt):
        x = rand_fixed((4, 16, 16), -8, 8)

        def fn(ctx):
            xs = shared_pair(ctx, x)
            return reveal(ctx.session, maxpool2d(SecureEngine(ctx), xs, 2, 2, 0))

        got = run_secure(rt, fn)
        v = decode(x, CFG).reshape(4, 8, 2, 8, 2).transpose(0, 1, 3, 2, 4).reshape(4, 8, 8, 4)
        want = v.max(axis=-1)
        assert np.array_equal(decode(got, CFG), want)


    def test_bad_geometry_raises_before_any_byte(self, rt):
        # a 3x3 pool on 2x2 and stride 0: ShapeMismatch at both parties,
        # with no online byte or round and no dealer request
        x = rand_fixed((1, 2, 2))

        def fn(ctx):
            xs, raised = shared_pair(ctx, x), []
            for k, stride in ((3, 1), (2, 0)):
                with pytest.raises(ShapeMismatch):
                    maxpool2d(SecureEngine(ctx), xs, k, stride, 0)
                raised.append(ctx.session.transcript.counters()[:3])
            return raised, ctx.triples.next_index

        got = rt.run_session(fn, fn, cfg=CFG)
        assert got[Role.P0] == got[Role.P1] == ([(0, 0, 0)] * 2, 0)

    def test_padded_negative_domain_vs_oracle(self, rt):
        # 3x3, stride 1, padding 1 over max pooling's whole domain
        # |x| < 2^30 at cmp_bits = 31: an all-negative channel, whose border
        # windows would lose to a pad that compares like 0, and a channel
        # spanning the domain; between them they hold its edges +-(2^30 - 1)
        lim = 2**30
        neg = RNG.integers(-lim + 1, 0, size=(6, 6))
        neg[0, 0], neg[5, 5] = -lim + 1, -1
        mixed = RNG.integers(-lim + 1, lim, size=(6, 6))
        mixed[0, :3] = [lim - 1, -lim + 1, 0]
        ks = np.stack([neg, mixed])
        x = RingTensor(ks.view(np.uint64))

        def fn(ctx):
            return reveal(ctx.session, maxpool2d(SecureEngine(ctx), shared_pair(ctx, x), 3, 1, 1))

        got = run_secure(rt, fn)
        assert got == maxpool2d(PlainEngine(CFG), x, 3, 1, 1)
        padded = np.pad(ks, ((0, 0), (1, 1), (1, 1)), constant_values=np.iinfo(np.int64).min)
        want = np.max([padded[:, i : i + 6, j : j + 6] for i in range(3) for j in range(3)], axis=0)
        assert np.array_equal(got.signed(), want)
