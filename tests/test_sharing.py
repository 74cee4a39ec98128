"""Secret sharing: PRZS, input sharing, reveal, local share algebra."""

import numpy as np
import pytest

from mpcnn.ring import RingTensor, FixedPointConfig, encode, from_words, zeros
from mpcnn.sharing import (
    ArithShare,
    BinShare,
    Prg,
    PrzsSeedPair,
    add_public,
    fresh_seed,
    mul_public,
    przs_setup,
    reveal,
    reveal_bin,
    share_input,
)
from mpcnn.runtime import run_pair_raw
from mpcnn.transport import Role

from conftest import inproc_fabrics

CFG = FixedPointConfig(16)
RNG = np.random.default_rng(7)


def rand_words(shape):
    return RingTensor(RNG.integers(0, 1 << 64, size=shape, dtype=np.uint64))


def seeds():
    return PrzsSeedPair(fresh_seed(), fresh_seed())


class TestPrzs:
    def test_streams_cancel(self):
        sp = seeds()
        s0, s1 = sp.stream(Role.P0), sp.stream(Role.P1)
        a = s0.draw((1000,))
        b = s1.draw((1000,))
        assert a + b == zeros((1000,))

    def test_reproducible(self):
        sp = seeds()
        a = sp.stream(Role.P0).draw((64,))
        b = sp.stream(Role.P0).draw((64,))
        assert a == b

    def test_setup_over_channel(self):
        def fn(sess):
            sp = przs_setup(sess)
            return sp.stream(sess.role).draw((128,))

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] + vals[Role.P1] == zeros((128,))

    def test_distinct_sessions_independent(self):
        # chi-square uniformity on pooled bytes of two sessions, plus low
        # cross-correlation between the streams
        from scipy import stats

        x = seeds().stream(Role.P0).draw((1 << 16,)).data
        y = seeds().stream(Role.P0).draw((1 << 16,)).data
        pooled = np.concatenate([x, y]).view(np.uint8)
        counts = np.bincount(pooled, minlength=256)
        chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
        # dof=255; 1e-6 upper quantile
        assert chi2 < stats.chi2.ppf(1 - 1e-6, 255)
        corr = np.corrcoef(x.astype(np.float64), y.astype(np.float64))[0, 1]
        assert abs(corr) < 0.05


class TestShareInput:
    def test_round_trip_vector(self):
        sp = seeds()
        x = encode([1.0, 2.0, 3.0], CFG)
        sh0 = share_input(sp.stream(Role.P0), x, Role.P0, (3,))
        sh1 = share_input(sp.stream(Role.P1), None, Role.P0, (3,))
        assert sh0.t + sh1.t == x

    def test_zero_tensor_shares_nontrivial(self):
        sp = seeds()
        sh0 = share_input(sp.stream(Role.P0), zeros((16,)), Role.P0, (16,))
        sh1 = share_input(sp.stream(Role.P1), None, Role.P0, (16,))
        assert sh0.t + sh1.t == zeros((16,))
        assert np.any(sh0.t.data != 0) and np.any(sh1.t.data != 0)

    def test_model_weight_shape(self):
        # CompactCNN first conv: 32 filters of 1x64 held by P1
        sp = seeds()
        w = rand_words((32, 1, 1, 64))
        sh1 = share_input(sp.stream(Role.P1), w, Role.P1, (32, 1, 1, 64))
        sh0 = share_input(sp.stream(Role.P0), None, Role.P1, (32, 1, 1, 64))
        assert sh0.t + sh1.t == w
        # both shares are marked as P1's input; P1's keeps w itself, not a copy
        assert sh0.held_by is Role.P1 and sh1.held_by is Role.P1
        assert sh1.clear is w and sh0.clear is None
        # anything computed from them is no longer anyone's input
        assert (sh1 + sh1).held_by is None and sh1.reshape(-1).clear is None

    def test_nonholder_share_pseudorandom(self):
        sp = seeds()
        x = encode(np.ones(4096), CFG)
        sh1 = share_input(sp.stream(Role.P1), None, Role.P0, (4096,))
        # crude uniformity: top byte spread over many values
        assert len(np.unique(sh1.t.data >> np.uint64(56))) > 200


class TestReveal:
    def test_round_trip_and_one_round(self):
        x = rand_words((50,))
        sp = seeds()

        def fn(sess):
            sh = share_input(sp.stream(sess.role), x if sess.role is Role.P0 else None, Role.P0, (50,))
            got = reveal(sess, sh)
            return got, sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for got, t in vals.values():
            assert got == x
            assert t.rounds == 1

    def test_directed_reveal_one_sided(self):
        x = rand_words((8,))
        sp = seeds()

        def fn(sess):
            sh = share_input(sp.stream(sess.role), x if sess.role is Role.P0 else None, Role.P0, (8,))
            got = reveal(sess, sh, to="p0", tag="output")
            return got, sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        got0, t0 = vals[Role.P0]
        assert got0 == x
        got1, t1 = vals[Role.P1]
        assert got1 is None
        assert t1.tags["output"].bytes_recv == 0
        assert t1.tags["output"].bytes_sent == 8 * 8
        assert t0.rounds == 1 and t1.rounds == 1


class TestLocalAlgebra:
    def _shared(self, sp, x):
        sh0 = share_input(sp.stream(Role.P0), x, Role.P0, x.shape)
        sh1 = share_input(sp.stream(Role.P1), None, Role.P0, x.shape)
        return sh0, sh1

    def test_add_sub_property(self):
        # reconstruction correctness over many random tensors
        for _ in range(200):
            shape = tuple(RNG.integers(1, 20, size=RNG.integers(1, 3)))
            x, y = rand_words(shape), rand_words(shape)
            sp = seeds()
            x0, x1 = self._shared(sp, x)
            y0 = share_input(sp.stream(Role.P0), y, Role.P0, shape)
            y1 = share_input(sp.stream(Role.P1), None, Role.P0, shape)
            assert (x0 + y0).t + (x1 + y1).t == x + y
            assert (x0 - y0).t + (x1 - y1).t == x - y

    def test_add_encoded_values(self):
        sp = seeds()
        x0, x1 = self._shared(sp, encode(2.0, CFG))
        y0, y1 = self._shared(seeds(), encode(3.0, CFG))
        assert (x0 + y0).t + (x1 + y1).t == encode(5.0, CFG)

    def test_mul_public_zero(self):
        sp = seeds()
        x0, x1 = self._shared(sp, rand_words((10,)))
        assert mul_public(x0, 0).t + mul_public(x1, 0).t == zeros((10,))

    def test_add_public_only_p0(self):
        sp = seeds()
        x = encode(1.0, CFG)
        x0, x1 = self._shared(sp, x)
        c = encode(2.0, CFG)
        assert add_public(x0, c).t + add_public(x1, c).t == encode(3.0, CFG)

    def test_mul_public_tensor(self):
        sp = seeds()
        x = rand_words((32,))
        c = rand_words((32,))
        x0, x1 = self._shared(sp, x)
        assert mul_public(x0, c).t + mul_public(x1, c).t == x * c

    def test_noninteractive_zero_bytes(self):
        def fn(sess):
            sp = przs_setup(sess)
            sess.transcript.reset()
            st = sp.stream(sess.role)
            a = share_input(st, rand_words((10,)) if sess.role is Role.P0 else None, Role.P0, (10,))
            b = ArithShare(sess.role, st.draw((10,)))
            _ = a + b
            _ = mul_public(a, 7)
            _ = add_public(a, from_words(np.arange(10)))
            bb = BinShare(sess.role, st.draw((10,)))
            _ = bb ^ bb
            _ = bb.shift_left(3)
            return sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for t in vals.values():
            assert t.bytes_sent == 0 and t.rounds == 0


class TestBinShares:
    def _bin_shared(self, x):
        m = rand_words(x.shape)
        return BinShare(Role.P0, m), BinShare(Role.P1, x ^ m)

    def test_xor_self_is_zero(self):
        x = rand_words((16,))
        a0, a1 = self._bin_shared(x)
        assert (a0 ^ a0).t ^ (a1 ^ a1).t == zeros((16,))

    def test_shift_reveals_scaled(self):
        one = from_words([1])
        a0, a1 = self._bin_shared(one)
        assert (a0.shift_left(3).t ^ a1.shift_left(3).t) == from_words([8])

    def test_logical_shift_63_extracts_msb(self):
        x = from_words([1 << 63, 5])
        a0, a1 = self._bin_shared(x)
        got = a0.t.shift_right_logical(63) ^ a1.t.shift_right_logical(63)
        assert got == from_words([1, 0])

    def test_shift_out_of_range(self):
        x = self._bin_shared(rand_words((4,)))[0]
        with pytest.raises(ValueError):
            x.shift_left(64)


class TestShareUniformity:
    def test_byte_frequency_and_serial_correlation(self):
        # 10 MB of share material looked at alone should be featureless
        from scipy import stats

        n_words = (10 * 1024 * 1024) // 8
        sp = seeds()
        share = sp.stream(Role.P1).draw((n_words,))
        raw = share.data.view(np.uint8)
        counts = np.bincount(raw, minlength=256)
        chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
        assert chi2 < stats.chi2.ppf(1 - 1e-6, 255)
        f = raw[:-1].astype(np.float64)
        g = raw[1:].astype(np.float64)
        assert abs(np.corrcoef(f, g)[0, 1]) < 0.01


class TestPrg:
    def test_domain_separation(self):
        seed = fresh_seed()
        a = Prg(seed, b"one").draw_words((32,))
        b = Prg(seed, b"two").draw_words((32,))
        assert a != b

    def test_bits_are_bits(self):
        bits = Prg(fresh_seed(), b"bits").draw_bits((4096,))
        assert set(np.unique(bits.data)) <= {0, 1}
