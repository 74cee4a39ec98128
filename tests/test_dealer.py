"""Dealer correlations: triples, bit pairs, budget discipline."""

import numpy as np
import pytest

from mpcnn.dealer import (
    TAG_REQ,
    TAG_SEED_RSP,
    BitPairs,
    DealerError,
    HeldTriple,
    PlanningSource,
    RandomnessExhausted,
    RandomnessReused,
    Triple,
    TripleSpec,
    TripleSource,
    derive_correlation,
    expand,
    session_seed,
)
from mpcnn.ring import ConvGeometry, ShapeMismatch, conv2d_ring, matmul_ring, zeros
from mpcnn.sharing import fresh_seed
from mpcnn.transport import Role, SessionTimeout

from conftest import run_with_dealer

RNG = np.random.default_rng(31)


def fetch_both(spec_fn):
    """Run both parties fetching one correlation; returns {role: value}."""

    def fn(sess, svc):
        src = TripleSource(sess)
        return spec_fn(src)

    return run_with_dealer(fn, fn)


class TestTripleCorrectness:
    def test_arith_triple(self):
        vals = fetch_both(lambda src: src.arith((4,)))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        a, b, c = t0.a + t1.a, t0.b + t1.b, t0.c + t1.c
        assert c == a * b

    def test_bool_triple(self):
        vals = fetch_both(lambda src: src.bool_((64,)))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        a, b, c = t0.a ^ t1.a, t0.b ^ t1.b, t0.c ^ t1.c
        assert c == (a & b)

    def test_conv_triple_matches_ring_conv(self):
        # CompactCNN geometry: 1x64 kernels over a 1x384 signal; a held
        # correlation: P0 holds the input mask a0, P1 the kernel mask b
        geom = ConvGeometry(1, 32, 1, 64)
        vals = fetch_both(lambda src: src.conv((1, 1, 384), geom))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        assert t0.mask.shape == (1, 1, 384) and t1.mask.shape == (32, 1, 1, 64)
        c = t0.c + t1.c
        assert c.shape == (32, 1, 321)
        assert c == conv2d_ring(t0.mask, t1.mask, geom)

    def test_matmul_triple(self):
        vals = fetch_both(lambda src: src.matmul(5, 7, 3))
        t0, t1 = vals[Role.P0], vals[Role.P1]
        assert t0.mask.shape == (5, 7) and t1.mask.shape == (7, 3)
        assert (t0.c + t1.c) == matmul_ring(t0.mask, t1.mask)


class TestBitPairs:
    def test_arith_and_bin_agree(self):
        vals = fetch_both(lambda src: src.bitpairs((10_000,)))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        r_arith = (p0.arith + p1.arith).data
        r_bin = (p0.bin ^ p1.bin).data
        assert set(np.unique(r_arith)) <= {0, 1}
        assert np.array_equal(r_arith, r_bin)

    def test_bit_frequency(self):
        # binomial bound at 10^4 samples
        vals = fetch_both(lambda src: src.bitpairs((10_000,)))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        freq = float((p0.arith + p1.arith).data.mean())
        assert 0.48 <= freq <= 0.52


class TestMaskPairs:
    def test_arith_and_bin_agree(self):
        vals = fetch_both(lambda src: src.maskpairs((10_000,)))
        p0, p1 = vals[Role.P0], vals[Role.P1]
        assert (p0.arith + p1.arith) == (p0.bin ^ p1.bin)

    def test_top_bit_frequency(self):
        # binomial bound at 10^4 samples
        vals = fetch_both(lambda src: src.maskpairs((10_000,)))
        r = (vals[Role.P0].arith + vals[Role.P1].arith).data
        freq = float((r >> np.uint64(63)).mean())
        assert 0.48 <= freq <= 0.52


SPECS = {
    "arith": TripleSpec("arith", (16,)),
    "bool": TripleSpec("bool", (16,)),
    "conv": TripleSpec("conv", (2, 5, 4), geom=ConvGeometry(2, 3, 2, 2)),
    "matmul": TripleSpec("matmul", (4, 6), mat=(4, 6, 3)),
    "bitpair": TripleSpec("bitpair", (16,)),
    "maskpair": TripleSpec("maskpair", (16,)),
}


def reconstruct(spec, h0, h1):
    """The correlation from both halves, checked for validity."""
    if spec.kind in ("bitpair", "maskpair"):
        r = h0.arith + h1.arith
        assert r == (h0.bin ^ h1.bin)
        if spec.kind == "bitpair":
            assert set(np.unique(r.data)) <= {0, 1}
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
    corr = derive_correlation(master, sid, index, spec)
    if spec.kind in ("bitpair", "maskpair"):
        return BitPairs(corr, *p0), BitPairs(*p1)
    half = HeldTriple if spec.kind in ("conv", "matmul") else Triple
    return half(*p0, corr), half(*p1)


class TestDerivation:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_each_role_half_reconstructs(self, kind):
        spec = SPECS[kind]
        reconstruct(spec, *halves(fresh_seed(), 9, 3, spec))

    @pytest.mark.parametrize("kind", ["conv", "matmul"])
    def test_p0_expands_only_the_input_mask(self, kind):
        # no weight-shaped tensor is ever dealt to P0; P1 gets the weight
        # mask and its output share, and no input-shaped part
        spec = SPECS[kind]
        a_shape, b_shape, c_shape = spec.part_shapes()
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
    def test_one_seed_round_trip_per_party(self):
        # P1 never talks to the dealer again after its seed
        def fn(sess, svc):
            src = TripleSource(sess)
            src.arith((8,))
            src.bool_((8,))
            src.maskpairs((8,))
            d = sess.dealer_transcript
            return src.seed(), d.tags[TAG_REQ].phases, d.tags[TAG_SEED_RSP].bytes_recv, d.bytes_recv

        vals = run_with_dealer(fn, fn)
        (seed0, req0, seed_bytes0, recv0), (seed1, req1, seed_bytes1, recv1) = vals[Role.P0], vals[Role.P1]
        assert seed0 != seed1
        assert seed_bytes0 == seed_bytes1 == 32
        assert req1 == 1 and recv1 == 32
        assert req0 == 4 and recv0 == 32 + 3 * 8 * 8  # seed, then one 8-word correction per request

    def test_p1_refuses_an_index_twice(self):
        def fn(sess, svc):
            src = TripleSource(sess)
            src.arith((2,))
            if sess.role is Role.P1:
                src.next_index -= 1
                with pytest.raises(RandomnessReused):
                    src.arith((2,))
            return svc.rerequest_count()

        assert run_with_dealer(fn, fn)[Role.P1] == 0

    def test_dealer_sends_p1_no_correction(self, monkeypatch):
        # a correction would give P1 the secret behind P0's half
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "300")

        def fn(sess, svc):
            src = TripleSource(sess)
            src.seed()
            if sess.role is Role.P1:
                sess.send_to_dealer(TAG_REQ, TripleSpec("arith", (2,)).to_wire(0))
                with pytest.raises(SessionTimeout):
                    sess.recv_from_dealer("TRIPLE_RSP")
            return True

        assert all(run_with_dealer(fn, fn).values())


class TestBudget:
    def test_pre_deal_then_consume(self):
        plan = [TripleSpec("arith", (8,)), TripleSpec("bitpair", (32,))]

        def fn(sess, svc):
            src = TripleSource(sess)
            src.pre_deal(plan)
            src.arith((8,))
            src.bitpairs((32,))
            return src.audit()

        vals = run_with_dealer(fn, fn)
        for audit in vals.values():
            assert audit == {"mode": "pre-dealt", "leftovers": 0, "rerequests": 0, "consumed": 2}

    def test_exhaustion_is_explicit(self):
        def fn(sess, svc):
            src = TripleSource(sess)
            src.pre_deal([TripleSpec("bitpair", (4,))])
            src.bitpairs((4,))
            with pytest.raises(RandomnessExhausted):
                src.bitpairs((4,))
            return True

        assert all(run_with_dealer(fn, fn).values())

    def test_shape_mismatch_is_error_not_broadcast(self):
        def fn(sess, svc):
            src = TripleSource(sess)
            src.pre_deal([TripleSpec("arith", (8,))])
            with pytest.raises(ShapeMismatch):
                src.arith((4,))
            return True

        assert all(run_with_dealer(fn, fn).values())

    def test_indices_never_reused(self):
        def fn(sess, svc):
            src = TripleSource(sess)
            for _ in range(5):
                src.arith((2,))
            return src.next_index

        vals = run_with_dealer(fn, fn)
        assert vals[Role.P0] == vals[Role.P1] == 5


class TestAccountingSeparation:
    def test_dealer_traffic_not_in_party_transcript(self):
        def fn(sess, svc):
            src = TripleSource(sess)
            src.arith((100,))
            return sess.measure(), sess.dealer_transcript.snapshot()

        vals = run_with_dealer(fn, fn)
        for party_t, dealer_t in vals.values():
            assert party_t.bytes_sent == 0 and party_t.rounds == 0
        assert vals[Role.P0][1].bytes_recv == 32 + 100 * 8  # seed, c correction
        assert vals[Role.P1][1].bytes_recv == 32  # seed only


class TestPlanning:
    def test_planner_records_and_fabricates_zeros(self):
        src = PlanningSource()
        t = src.arith((4,))
        p = src.bitpairs((8,))
        h = src.matmul(1, 4, 2)  # a held correlation, in P0's form
        assert np.all(t.a.data == 0) and np.all(p.bin.data == 0)
        assert h.mask == zeros((1, 4)) and h.c == zeros((1, 2))
        assert src.requests_made == [TripleSpec("arith", (4,)), TripleSpec("bitpair", (8,)),
                                     TripleSpec("matmul", (1, 4), mat=(1, 4, 2))]

    def test_planner_fabricates_zero_mask_pairs(self):
        src = PlanningSource()
        p = src.maskpairs((2, 3))
        assert p.arith == zeros((2, 3)) and p.bin == zeros((2, 3))
        assert src.audit() == {"mode": "planning", "leftovers": 0, "rerequests": 0, "consumed": 1}
