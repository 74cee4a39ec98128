"""Dealer correlations: triples, mask pairs, comparison masks, fan-out
triples, select correlations, seeds, batched fetches, and the service."""

import time

import numpy as np
import pytest

from mpcnn import arith, dealer
from mpcnn.dealer import (
    HALVES,
    TAG_REQ,
    TAG_SEED_RSP,
    TAG_TRIPLE_RSP,
    DealerError,
    RandomnessReused,
    TripleSpec,
    derive_correlation,
    encode_request,
    expand,
    session_seed,
)
from mpcnn.ring import ConvGeometry, RingTensor, conv2d_ring, matmul_ring, zeros
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import fresh_seed, packed_len, share_public
from mpcnn.transport import Role


@pytest.fixture
def rt():
    with LocalRuntime() as runtime:
        yield runtime


def fetch_both(rt, spec_fn):
    """Run both parties fetching one correlation from their session's
    source; returns {role: value}."""

    def fn(ctx):
        return spec_fn(ctx.triples)

    return rt.run_session(fn, fn)


class TestTripleCorrectness:
    def test_arith_triple(self, rt):
        vals = fetch_both(rt, lambda src: src.arith((4,)))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        a, b, c = t0.a + t1.a, t0.b + t1.b, t0.c + t1.c
        assert c == a * b

    def test_bool_triple(self, rt):
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("bool", (64,))))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        a, b, c = t0.a ^ t1.a, t0.b ^ t1.b, t0.c ^ t1.c
        assert c == (a & b)

    def test_conv_triple_matches_ring_conv(self, rt):
        # CompactCNN geometry: 1x64 kernels over a 1x384 signal; a held
        # correlation: P0 holds the input mask a0, P1 the kernel mask b
        geom = ConvGeometry(1, 32, 1, 64)
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("conv", (1, 1, 384), geom=geom)))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        assert t0.mask.shape == (1, 1, 384) and t1.mask.shape == (32, 1, 1, 64)
        c = t0.c + t1.c
        assert c.shape == (32, 1, 321)
        assert c == conv2d_ring(t0.mask, t1.mask, geom)

    def test_matmul_triple(self, rt):
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("matmul", (5, 7), mat=(5, 7, 3))))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        assert t0.mask.shape == (5, 7) and t1.mask.shape == (7, 3)
        assert (t0.c + t1.c) == matmul_ring(t0.mask, t1.mask)


class TestBitPairs:
    # the bit r of a select correlation, in its additive and XOR sharings
    def test_arith_and_bin_agree(self, rt):
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("select", (10_000,))))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        r_arith = (p0.r + p1.r).data
        r_bin = (p0.r_bin ^ p1.r_bin).data
        assert set(np.unique(r_arith)) <= {0, 1}
        assert np.array_equal(r_arith, r_bin)
        assert p0.ar + p1.ar == (p0.a + p1.a) * (p0.r + p1.r)

    def test_bit_frequency(self, rt):
        # binomial bound at 10^4 samples
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("select", (10_000,))))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        freq = float((p0.r + p1.r).data.mean())
        assert 0.48 <= freq <= 0.52


class TestMaskPairs:
    def test_arith_and_bin_agree(self, rt):
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("maskpair", (10_000,))))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        assert (p0.arith + p1.arith) == (p0.bin ^ p1.bin)

    def test_top_bit_frequency(self, rt):
        # binomial bound at 10^4 samples
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("maskpair", (10_000,))))
        r = (vals[Role.P0].arith + vals[Role.P1].arith).data
        freq = float((r >> np.uint64(63)).mean())
        assert 0.48 <= freq <= 0.52


SPECS = {
    "arith": TripleSpec("arith", (16,)),
    "bool": TripleSpec("bool", (16,)),
    "conv": TripleSpec("conv", (2, 5, 4), geom=ConvGeometry(2, 3, 2, 2)),
    "matmul": TripleSpec("matmul", (4, 6), mat=(4, 6, 3)),
    "maskpair": TripleSpec("maskpair", (16,)),
    "select": TripleSpec("select", (16,)),
    "cmpmask": TripleSpec("cmpmask", (2, 50), width=32),
    "cmpselect": TripleSpec("cmpselect", (2, 50), width=32),
    "fanout": TripleSpec("fanout", (5, 2)),
}


def lane_pairs_plain(r, lanes):
    """r_(2k+1) & r_(2k) for k < lanes // 2, one 0/1 entry per (k, element)."""
    bits = (r.data.reshape(-1)[None, :] >> np.arange(64, dtype=np.uint64)[:, None]) & np.uint64(1)
    return bits[1 : lanes // 2 * 2 : 2] & bits[0 : lanes // 2 * 2 : 2]


def unslice(rows, n):
    """(k, ceil(n / 64)) bit-sliced rows -> (k, n) 0/1 entries."""
    bits = (rows[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(len(rows), -1)[:, :n]


def reconstruct(spec, h0, h1):
    """The correlation from both halves, checked for validity."""
    if spec.kind == "maskpair":
        assert h0.arith + h1.arith == (h0.bin ^ h1.bin)
        return
    if spec.kind in ("cmpmask", "cmpselect"):
        # r = -a, whose low width bits are XOR-shared, with its lane pairs
        r, low = -(h0.a + h1.a), np.uint64((1 << spec.width) - 1)
        assert np.array_equal((h0.bin ^ h1.bin).data & low, r.data & low)
        pairs = (h0.pairs ^ h1.pairs).data
        assert pairs.shape == ((spec.width - 1) // 2, -(-r.size // 64))
        assert np.array_equal(unslice(pairs, r.size), lane_pairs_plain(r, spec.width - 1))
        if spec.kind == "cmpmask":
            return
    if spec.kind in ("select", "cmpselect"):
        # a bit r in both sharings and a * r, on the mask's own a in a
        # 'cmpselect'
        r = h0.r + h1.r
        assert r == (h0.r_bin ^ h1.r_bin) and set(np.unique(r.data)) <= {0, 1}
        assert h0.ar + h1.ar == (h0.a + h1.a) * r
        return
    if spec.kind == "fanout":
        a, b, c = h0.a ^ h1.a, h0.b ^ h1.b, h0.c ^ h1.c
        assert a.shape == ((spec.shape[0] + 1) // 2, *spec.shape[1:]) and b.shape == c.shape == spec.shape
        assert c == (RingTensor(np.concatenate([a.data, a.data[1:]])) & b)
        return
    if spec.kind == "bool":
        a, b, c = h0.a ^ h1.a, h0.b ^ h1.b, h0.c ^ h1.c
        assert c == (a & b)
        return
    if spec.kind == "conv":
        assert h0.c + h1.c == conv2d_ring(h0.mask, h1.mask, spec.geom)
        return
    if spec.kind == "matmul":
        assert h0.c + h1.c == matmul_ring(h0.mask, h1.mask)
        return
    a, b, c = h0.a + h1.a, h0.b + h1.b, h0.c + h1.c
    assert c == a * b


def halves(master, sid, index, spec):
    """Both parties' halves of one correlation, as TripleSource assembles
    them: P1's is its whole expansion, P0's is its expansion plus the
    dealer's correction."""
    p0 = expand(session_seed(master, sid, Role.P0), index, spec, Role.P0)
    p1 = expand(session_seed(master, sid, Role.P1), index, spec, Role.P1)
    half = HALVES[spec.kind].half
    return half(*p0, *derive_correlation(master, sid, index, spec)), half(*p1)


class TestDerivation:
    def test_specs_cover_every_kind(self):
        # so that no kind skips the reconstruction test below
        assert set(SPECS) == set(HALVES)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_each_role_half_reconstructs(self, kind):
        spec = SPECS[kind]
        reconstruct(spec, *halves(fresh_seed(), 9, 3, spec))

    @pytest.mark.parametrize("kind", ["conv", "matmul"])
    def test_p0_expands_only_the_input_mask(self, kind):
        # no weight-shaped tensor is ever dealt to P0; P1 gets the weight
        # mask and its output share, and no input-shaped part
        spec = SPECS[kind]
        a_shape, b_shape, c_shape = {"conv": ((2, 5, 4), (3, 2, 2, 2), (3, 4, 3)),
                                     "matmul": ((4, 6), (6, 3), (4, 3))}[kind]
        master = fresh_seed()
        s0, s1 = session_seed(master, 9, Role.P0), session_seed(master, 9, Role.P1)
        assert [p.shape for p in expand(s0, 3, spec, Role.P0)] == [a_shape]
        assert [p.shape for p in expand(s1, 3, spec, Role.P1)] == [b_shape, c_shape]

    def test_idempotent_per_session_index(self):
        seed = fresh_seed()
        spec = TripleSpec("arith", (16,))
        assert derive_correlation(seed, 9, 3, spec) == derive_correlation(seed, 9, 3, spec)
        assert session_seed(seed, 9, Role.P1) == session_seed(seed, 9, Role.P1)
        for role in (Role.P0, Role.P1):
            s = session_seed(seed, 9, role)
            x, y = expand(s, 3, spec, role), expand(s, 3, spec, role)
            assert all(u == v for u, v in zip(x, y))

    def test_distinct_indices_differ(self):
        seed = fresh_seed()
        spec = TripleSpec("arith", (16,))
        assert derive_correlation(seed, 9, 3, spec) != derive_correlation(seed, 9, 4, spec)
        for role in (Role.P0, Role.P1):
            s = session_seed(seed, 9, role)
            assert expand(s, 3, spec, role)[0] != expand(s, 4, spec, role)[0]

    def test_distinct_sessions_and_roles_differ(self):
        seed = fresh_seed()
        spec = TripleSpec("arith", (16,))
        seeds = {session_seed(seed, sid, role) for sid in (9, 10) for role in (Role.P0, Role.P1)}
        assert len(seeds) == 4 and all(len(s) == 32 for s in seeds)
        assert derive_correlation(seed, 9, 3, spec) != derive_correlation(seed, 10, 3, spec)
        a0 = expand(session_seed(seed, 9, Role.P0), 3, spec, Role.P0)[0]
        a1 = expand(session_seed(seed, 9, Role.P1), 3, spec, Role.P1)[0]
        assert a0 != a1

    def test_unknown_kind_is_error(self):
        with pytest.raises(DealerError):
            derive_correlation(fresh_seed(), 9, 3, TripleSpec("cube", (4,)))


class TestSeeds:
    def test_one_seed_round_trip_per_party(self, rt):
        # P1 never talks to the dealer again after its seed
        def fn(ctx):
            src = ctx.triples
            src.arith((8,))
            src.take(TripleSpec("bool", (8,)))
            src.take(TripleSpec("maskpair", (8,)))
            d = ctx.session.dealer_transcript
            return src.seed(), d.tags[TAG_REQ].phases, d.tags[TAG_SEED_RSP].bytes_recv, d.bytes_recv

        vals = rt.run_session(fn, fn)
        (seed0, req0, seed_bytes0, recv0), (seed1, req1, seed_bytes1, recv1) = vals[Role.P0], vals[Role.P1]
        assert seed0 != seed1
        assert seed_bytes0 == seed_bytes1 == 32
        assert req1 == 1 and recv1 == 32
        assert req0 == 4 and recv0 == 32 + 3 * 8 * 8  # seed, then one 8-word correction per request

    def test_p1_refuses_an_index_twice(self, rt):
        def fn(ctx):
            src = ctx.triples
            src.arith((2,))
            if ctx.role is Role.P1:
                src.next_index -= 1
                with pytest.raises(RandomnessReused):
                    src.arith((2,))
            return rt.dealer.rerequest_count()

        assert rt.run_session(fn, fn)[Role.P1] == 0

    def test_dealer_sends_p1_no_correction(self, rt):
        # a correction would give P1 the secret behind P0's half: the dealer
        # refuses P1's request at once and sends it no correction bytes
        def fn(ctx):
            if ctx.role is Role.P0:
                return True
            sess = ctx.session
            sess.send_to_dealer(TAG_REQ, encode_request(0, [TripleSpec("arith", (2,))]))
            t0 = time.perf_counter()
            with pytest.raises(DealerError, match="no corrections") as refusal:
                sess.recv_from_dealer(TAG_TRIPLE_RSP)
            d = sess.dealer_transcript
            return (time.perf_counter() - t0 < 5, TAG_TRIPLE_RSP in d.tags,
                    d.bytes_recv - d.tags[TAG_SEED_RSP].bytes_recv == len(str(refusal.value)))

        vals = rt.run_session(fn, fn)
        assert vals[Role.P1] == (True, False, True)


class TestAudit:
    def test_one_number_per_session_and_role(self, rt):
        # one gtz takes its comparison mask and 4 fan-out levels at indices
        # 0-4 after P0's seed, and P1 asks only for its seed: the re-request
        # audit keeps each role's next index due, and forgets the session at
        # its end
        def fn(ctx):
            arith.gtz(ctx, share_public(zeros((4,)), ctx.role)).t  # read the bit: every opening has run
            sid = ctx.session.session_id
            return sid, dict(rt.dealer._served[sid])

        vals = rt.run_session(fn, fn)
        assert vals[Role.P0] == vals[Role.P1] == (vals[Role.P0][0], {Role.P0: 5, Role.P1: 0})
        assert rt.dealer._served == {} and rt.dealer.rerequest_count() == 0


class TestComparisonMask:
    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    @pytest.mark.parametrize("cmp_bits", [31, 63])
    def test_pairs_are_the_mask_lane_products(self, rt, cmp_bits, n):
        # the reconstructed pairs are r_(2k+1) & r_(2k) of the reconstructed
        # mask r = -a, for each of the cmp_bits // 2 pairs below lane
        # cmp_bits, bit-sliced; both parties draw their share of a, and P0
        # receives its XOR half of r at cmp_bits + 1 bits and the pairs as
        # whole words, zero past the n-th element
        pairs = self.check_row(rt, TripleSpec("cmpmask", (n,), width=cmp_bits + 1), (cmp_bits + 1) // 8 * n)
        assert pairs.shape == (cmp_bits // 2, -(-n // 64))

    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    @pytest.mark.parametrize("cmp_bits", [31, 63])
    def test_fused_row_selects_on_the_mask_word(self, rt, cmp_bits, n):
        # 'cmpselect' is the comparison mask plus a select correlation whose
        # a*r is on the mask's own a; P0 receives the mask's fields as a
        # 'cmpmask' does and r and a*r as whole words, which is what the
        # two rows cost apart
        spec = TripleSpec("cmpselect", (n,), width=cmp_bits + 1)
        pairs = self.check_row(rt, spec, (cmp_bits + 1) // 8 * n + 16 * n)
        assert pairs.shape == (cmp_bits // 2, -(-n // 64))
        apart = [TripleSpec("cmpmask", (n,), width=cmp_bits + 1), TripleSpec("select", (n,))]
        assert sum(packed_len(s, w) for s, w in spec.corrections()) == sum(
            packed_len(s, w) for t in apart for s, w in t.corrections())

    @staticmethod
    def check_row(rt, spec, mask_bytes):
        """Fetches one comparison row at both parties, checks it and the
        bytes P0 receives (mask_bytes plus one word per pair row; P1 none),
        and returns its reconstructed lane pairs."""
        def fn(ctx):
            d = ctx.session.dealer_transcript
            before = d.bytes_recv
            return ctx.triples.take(spec), d.bytes_recv - before

        vals = rt.run_session(fn, fn)
        (h0, got0), (h1, got1) = vals[Role.P0], vals[Role.P1]
        reconstruct(spec, h0, h1)
        pairs = (h0.pairs ^ h1.pairs).data
        n = spec.shape[0]
        if n % 64:
            assert not np.any(pairs[:, -1] >> np.uint64(n % 64))
        assert (got0, got1) == (mask_bytes + 8 * pairs.size, 0)
        return pairs

    def test_fanout_feeds_a_to_two_products(self, rt):
        # c = (a ‖ a[1:]) & b: every row of a but the first meets two rows
        # of b, as a carry-tree level's P_hi meets its G_lo and its P_lo
        vals = fetch_both(rt, lambda src: src.take(TripleSpec("fanout", (7, 3))))
        h0, h1 = vals[Role.P0], vals[Role.P1]
        a, b, c = (h0.a ^ h1.a).data, (h0.b ^ h1.b).data, (h0.c ^ h1.c).data
        assert a.shape == (4, 3)
        assert np.array_equal(c[:4], a & b[:4]) and np.array_equal(c[4:], a[1:] & b[4:])

    def test_whole_word_fields_must_be_received(self):
        with pytest.raises(ValueError, match="must end in"):
            dealer.Kind("a b c", "c", lambda spec, *h: h, words="b")


class TestBudget:
    def test_indices_never_reused(self, rt):
        def fn(ctx):
            for _ in range(5):
                ctx.triples.arith((2,))
            return ctx.triples.next_index

        vals = rt.run_session(fn, fn)
        assert vals[Role.P0] == vals[Role.P1] == 5


class TestNarrowCorrections:
    @pytest.mark.parametrize("width", [8, 32, 56])
    def test_low_bits_reconstruct(self, rt, width):
        # a mask pair whose correction P0 reads mod 2^width, as gtz's at
        # width = cmp_bits + 1: P0 receives width / 8 bytes per element,
        # zero-extended, and both sharings agree mod 2^width
        n = 1000
        spec = TripleSpec("maskpair", (n,), width=width)

        def fn(ctx):
            d = ctx.session.dealer_transcript
            before = d.bytes_recv
            return ctx.triples.take(spec), d.bytes_recv - before

        vals = rt.run_session(fn, fn)
        (h0, got0), (h1, got1) = vals[Role.P0], vals[Role.P1]
        low = np.uint64((1 << width) - 1)
        assert np.array_equal((h0.arith + h1.arith).data & low, (h0.bin ^ h1.bin).data & low)
        assert not np.any(h0.arith.data >> np.uint64(width))
        assert (got0, got1) == (width // 8 * n, 0)
        assert TripleSpec.from_json(spec.to_json()) == spec

    def test_full_width_request_names_no_width(self):
        assert "width" not in TripleSpec("maskpair", (4,)).to_json()

    @pytest.mark.parametrize("width", [0, 4, 12, 72])
    def test_other_widths_refused(self, width):
        with pytest.raises(ValueError, match="correction width"):
            TripleSpec("maskpair", (4,), width=width)


class TestBatch:
    def test_take_many_is_one_round_trip(self, rt):
        # every kind at consecutive indices: P0 sends one request whose body
        # names the first index once, and receives every correction in one
        # response; each pair of halves reconstructs its correlation
        specs = [SPECS[k] for k in sorted(SPECS)]

        def fn(ctx):
            ctx.triples.arith((2,))
            d = ctx.session.dealer_transcript
            before = d.rounds, d.bytes_sent, d.bytes_recv
            got = ctx.triples.take_many(specs)
            return got, ctx.triples.next_index, (d.rounds - before[0], d.bytes_sent - before[1],
                                                  d.bytes_recv - before[2])

        vals = rt.run_session(fn, fn)
        (h0, next0, cost0), (h1, next1, cost1) = vals[Role.P0], vals[Role.P1]
        for spec, a, b in zip(specs, h0, h1):
            reconstruct(spec, a, b)
        assert next0 == next1 == 1 + len(specs)
        dealt = sum(packed_len(s, w) for spec in specs for s, w in spec.corrections())
        assert cost0 == (1, len(encode_request(1, specs)), dealt)
        assert cost1 == (0, 0, 0)
        assert encode_request(1, specs).count(b'"index"') == 1

    def test_unknown_kind_is_refused_before_sending(self, rt):
        def fn(ctx):
            with pytest.raises(DealerError):
                ctx.triples.take(TripleSpec("cube", (4,)))
            return ctx.session.dealer_transcript.rounds, ctx.triples.next_index

        assert rt.run_session(fn, fn)[Role.P0] == (1, 0)  # the seed request only

    def test_short_answer_is_refused(self, rt, monkeypatch):
        # an answer one word short of the request is refused by its length
        # check, before any correction is decoded from it
        derive = dealer.derive_correlation
        monkeypatch.setattr(dealer, "derive_correlation",
                            lambda *args: [RingTensor(c.data.reshape(-1)[1:]) for c in derive(*args)])

        def fn(ctx):
            if ctx.role is Role.P0:
                with pytest.raises(DealerError, match="correction bytes for a request of 32"):
                    ctx.triples.take_many([TripleSpec("arith", (4,))])

        rt.run_session(fn, fn)

    def test_short_mixed_width_answer_is_refused(self, rt, monkeypatch):
        # a comparison mask's answer mixes 32-bit words (the arithmetic
        # half of r) and whole words (the lane pairs, and the fused row's r
        # and a*r): one element short of each, it is refused by its length
        # check
        derive = dealer.derive_correlation
        monkeypatch.setattr(dealer, "derive_correlation",
                            lambda *args: [RingTensor(c.data.reshape(-1)[1:]) for c in derive(*args)])
        specs = [TripleSpec("cmpmask", (4,), width=32), TripleSpec("cmpselect", (4,), width=32)]
        assert specs[0].corrections() == [((15, 1), 64), ((4,), 32)]
        assert specs[1].corrections() == [((15, 1), 64), ((4,), 32), ((4,), 64), ((4,), 64)]

        def fn(ctx):
            if ctx.role is Role.P0:
                for spec, want in zip(specs, (136, 200)):
                    with pytest.raises(DealerError, match=f"correction bytes for a request of {want}"):
                        ctx.triples.take(spec)

        rt.run_session(fn, fn)


class TestAccountingSeparation:
    def test_dealer_traffic_not_in_party_transcript(self, rt):
        def fn(ctx):
            ctx.triples.arith((100,))
            return ctx.session.measure(), ctx.session.dealer_transcript.snapshot()

        vals = rt.run_session(fn, fn)
        for party_t, dealer_t in vals.values():
            assert party_t.bytes_sent == 0 and party_t.rounds == 0
        assert vals[Role.P0][1].bytes_recv == 32 + 100 * 8  # seed, c correction
        assert vals[Role.P1][1].bytes_recv == 32  # seed only


class TestService:
    def test_malformed_request_is_refused(self, rt, monkeypatch):
        # each garbage request (bad JSON, bad UTF-8, a list, an empty object, a
        # negative shape, an unknown kind, a conv with neither geometry nor a
        # 3-d shape) is answered on the dealer's error tag, so P0's
        # source raises DealerError at once (an unanswered request would
        # time out after the default 30 s), and the service thread keeps
        # serving: in the same session P0 then takes a valid correlation
        # that reconstructs against P1's half at that index, and a later
        # session in the same runtime completes
        bad = [b"{not json", b"\xff", b"[]", b"{}", b'{"index":0,"specs":[{"kind":"arith","shape":[-1]}]}',
               encode_request(0, [TripleSpec("cube", (4,))]), b'{"index":0,"specs":[{"kind":"conv","shape":[1]}]}']

        def garbage(ctx):
            if ctx.role is Role.P0:
                for payload in bad:
                    with monkeypatch.context() as m:
                        m.setattr(dealer, "encode_request", lambda first, specs: payload)
                        with pytest.raises(DealerError):
                            ctx.triples.arith((4,))
            index = ctx.triples.next_index = len(bad)
            return index, ctx.triples.arith((4,))

        vals = rt.run_session(garbage, garbage)
        (i0, t0), (i1, t1) = vals[Role.P0], vals[Role.P1]
        assert i0 == i1 == len(bad)
        assert t0.c + t1.c == (t0.a + t1.a) * (t0.b + t1.b)
        vals = fetch_both(rt, lambda src: src.arith((4,)))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        assert t0.c + t1.c == (t0.a + t1.a) * (t0.b + t1.b)
