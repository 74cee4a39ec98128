"""Secret sharing: PRZS, input sharing, opening and reveal, local share algebra."""

import hashlib
import time

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from mpcnn.ring import RingTensor, FixedPointConfig, encode, from_words, zeros
from mpcnn.sharing import (
    ArithShare,
    BinShare,
    Prg,
    PrzsStream,
    bytes_to_words,
    fresh_seed,
    open_shares,
    packed_len,
    przs_setup,
    reveal,
    share_input,
    words_to_bytes,
)
from mpcnn.runtime import run_pair_raw
from mpcnn.transport import ProtocolError, Role

from conftest import inproc_fabrics, tcp_fabrics

CFG = FixedPointConfig(16)
CHI2_CUT = 377.0781154988172  # scipy.stats.chi2.ppf(1 - 1e-6, 255) (scipy 1.17.1): the 1e-6 upper quantile at 255 dof
RNG = np.random.default_rng(7)


def rand_words(shape):
    return RingTensor(RNG.integers(0, 1 << 64, size=shape, dtype=np.uint64))


def seeds():
    """A joint PRZS seed, as `przs_setup` derives one."""
    return fresh_seed()


class TestPrzs:
    def test_streams_cancel(self):
        sp = seeds()
        s0, s1 = PrzsStream(sp, Role.P0), PrzsStream(sp, Role.P1)
        a = s0.draw((1000,))
        b = s1.draw((1000,))
        assert a + b == zeros((1000,))

    def test_reproducible(self):
        sp = seeds()
        a = PrzsStream(sp, Role.P0).draw((64,))
        b = PrzsStream(sp, Role.P0).draw((64,))
        assert a == b

    def test_setup_over_channel(self):
        def fn(sess):
            return przs_setup(sess, FixedPointConfig()).draw((128,))

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] + vals[Role.P1] == zeros((128,))

    def test_distinct_sessions_independent(self):
        # chi-square uniformity on pooled bytes of two sessions, plus low
        # cross-correlation between the streams
        x = PrzsStream(seeds(), Role.P0).draw((1 << 16,)).data
        y = PrzsStream(seeds(), Role.P0).draw((1 << 16,)).data
        pooled = np.concatenate([x, y]).view(np.uint8)
        counts = np.bincount(pooled, minlength=256)
        chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
        assert chi2 < CHI2_CUT
        corr = np.corrcoef(x.astype(np.float64), y.astype(np.float64))[0, 1]
        assert abs(corr) < 0.05


class TestShareInput:
    def test_round_trip_vector(self):
        sp = seeds()
        x = encode([1.0, 2.0, 3.0], CFG)
        sh0 = share_input(PrzsStream(sp, Role.P0), x, Role.P0, (3,))
        sh1 = share_input(PrzsStream(sp, Role.P1), None, Role.P0, (3,))
        assert sh0.t + sh1.t == x

    def test_zero_tensor_shares_nontrivial(self):
        sp = seeds()
        sh0 = share_input(PrzsStream(sp, Role.P0), zeros((16,)), Role.P0, (16,))
        sh1 = share_input(PrzsStream(sp, Role.P1), None, Role.P0, (16,))
        assert sh0.t + sh1.t == zeros((16,))
        assert np.any(sh0.t.data != 0) and np.any(sh1.t.data != 0)

    def test_model_weight_shape(self):
        # CompactCNN first conv: 32 filters of 1x64 held by P1
        sp = seeds()
        w = rand_words((32, 1, 1, 64))
        sh1 = share_input(PrzsStream(sp, Role.P1), w, Role.P1, (32, 1, 1, 64))
        sh0 = share_input(PrzsStream(sp, Role.P0), None, Role.P1, (32, 1, 1, 64))
        assert sh0.t + sh1.t == w
        # both shares are marked as P1's input; P1's keeps w itself, not a copy
        assert sh0.held_by is Role.P1 and sh1.held_by is Role.P1
        assert sh1.clear is w and sh0.clear is None
        # anything computed from them is no longer anyone's input
        assert (sh1 + sh1).held_by is None

    def test_nonholder_share_pseudorandom(self):
        sp = seeds()
        x = encode(np.ones(4096), CFG)
        sh1 = share_input(PrzsStream(sp, Role.P1), None, Role.P0, (4096,))
        # crude uniformity: top byte spread over many values
        assert len(np.unique(sh1.t.data >> np.uint64(56))) > 200


class TestReveal:
    def test_round_trip_and_one_round(self):
        x = rand_words((50,))
        sp = seeds()

        def fn(sess):
            sh = share_input(PrzsStream(sp, sess.role), x if sess.role is Role.P0 else None, Role.P0, (50,))
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
            sh = share_input(PrzsStream(sp, sess.role), x if sess.role is Role.P0 else None, Role.P0, (8,))
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

    def test_directed_reveal_of_xor_shares(self):
        # a XOR share reconstructs with ^ in every direction: shares 5 and 3
        # reveal 6 (with + they would read 8), and random patterns in full
        x, m = rand_words((50,)), rand_words((50,))

        def fn(sess):
            p0 = sess.role is Role.P0
            shares = [BinShare(sess.role, from_words([5 if p0 else 3])),
                      BinShare(sess.role, x ^ m if p0 else m)]
            return [(reveal(sess, sh), reveal(sess, sh, to="p0"), reveal(sess, sh, to="p1")) for sh in shares]

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for want, (both0, to_p0, none1), (both1, none0, to_p1) in zip([from_words([6]), x], *vals.values()):
            assert both0 == both1 == to_p0 == to_p1 == want
            assert none0 is None and none1 is None

    def test_directed_reveal_refuses_a_wrong_length(self):
        # a payload one word short is refused as ProtocolError, not read as
        # words or left to numpy's ValueError
        def fn(sess):
            if sess.role is Role.P1:
                return sess.send_to_peer("output", bytes(7 * 8))
            with pytest.raises(ProtocolError, match="expected 64"):
                reveal(sess, ArithShare(sess.role, rand_words((8,))), to="p0", tag="output")

        run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})

    @pytest.mark.parametrize("fabrics", [inproc_fabrics, tcp_fabrics], ids=["inproc", "tcp"])
    @pytest.mark.parametrize("to", ["p0", "p1"])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_directed_reveal_is_sent(self, monkeypatch, fabrics, to, shape):
        # a directed reveal of an empty share still sends its empty frame,
        # which its receiver waits for: both sides count one round and no
        # bytes, and the receiver gets the empty tensor at once, not after
        # the timeout
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "2000")

        def fn(sess):
            t0 = time.perf_counter()
            got = reveal(sess, ArithShare(sess.role, zeros(shape)), to=to)
            t = sess.measure()
            return got, time.perf_counter() - t0, (t.bytes_sent, t.bytes_recv, t.rounds)

        vals = run_pair_raw(fabrics(), {Role.P0: fn, Role.P1: fn})
        receiver, sender = (Role.P0, Role.P1) if to == "p0" else (Role.P1, Role.P0)
        got, wall, counts = vals[receiver]
        assert got == zeros(shape)
        assert vals[sender][0] is None
        assert wall < 1 and vals[sender][1] < 1
        assert counts == vals[sender][2] == (0, 0, 1)

    @pytest.mark.parametrize("to", ["P0", "p2", ""])
    def test_unknown_target_refused_before_traffic(self, to):
        # anything but 'both', 'p0' or 'p1' used to reveal to P1
        sp = seeds()

        def fn(sess):
            sh = share_input(PrzsStream(sp, sess.role), rand_words((8,)) if sess.role is Role.P0 else None,
                             Role.P0, (8,))
            with pytest.raises(ValueError, match="reveal to"):
                reveal(sess, sh, to=to)
            return sess.measure().counters()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] == vals[Role.P1] == (0, 0, 0, ())


class TestOpenShares:
    def test_widths_share_one_frame(self):
        # an additive share at 32 bits, a XOR share at 64 and a bit at 1 open
        # in one exchange of 4 + 8 B and one packed bit per element, each
        # reconstructed by its own algebra mod 2^w
        n = 50
        x, y, b, m = rand_words((n,)), rand_words((n,)), rand_words((n,)), rand_words((3, n)).data

        def fn(sess):
            p0 = sess.role is Role.P0
            shares = [ArithShare(sess.role, x - RingTensor(m[0]) if p0 else RingTensor(m[0])),
                      BinShare(sess.role, RingTensor(y.data ^ m[1] if p0 else m[1])),
                      BinShare(sess.role, RingTensor(b.data ^ m[2] if p0 else m[2]))]
            return open_shares(sess, "open", shares, [32, 64, 1]), sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for (xo, yo, bo), t in vals.values():
            assert xo == RingTensor(x.data & np.uint64(0xFFFFFFFF))
            assert yo == y and bo == RingTensor(b.data & np.uint64(1))
            assert t.rounds == 1 and t.bytes_sent == t.bytes_recv == 12 * n + -(-n // 8)

    @pytest.mark.parametrize("w", [1, *range(8, 72, 8)])
    def test_narrow_widen_keep_the_low_bits(self, w):
        # the codec narrows each word to its low w bits on the wire (one bit
        # per element packed 8 per byte at 1, a cast at 8, 16, 32 and 64,
        # byte slices at the other widths) and widens them back, zero-extended
        words = rand_words((37,))
        buf = words_to_bytes(words, w)
        assert len(buf) == packed_len((37,), w) == (5 if w == 1 else 37 * w // 8)
        back = bytes_to_words(buf, (37,), w)
        assert back == RingTensor(words.data & np.uint64((1 << w) - 1))
        grid = rand_words((3, 5))  # any shape, the empty one too
        assert bytes_to_words(words_to_bytes(grid, w), (3, 5), w) == RingTensor(grid.data & np.uint64((1 << w) - 1))
        assert words_to_bytes(zeros((0,)), w) == b"" and bytes_to_words(b"", (0,), w) == zeros((0,))

    @pytest.mark.parametrize("w", [1, *range(8, 72, 8)])
    def test_wrong_length_is_refused(self, w):
        # a buffer one byte short or one byte long is never read as words
        buf = words_to_bytes(rand_words((37,)), w)
        for bad in (buf[:-1], buf + b"\0"):
            with pytest.raises(ProtocolError, match=f"{w}-bit words"):
                bytes_to_words(bad, (37,), w)

    @pytest.mark.parametrize("w", [0, 4, 12, 72])
    def test_other_widths_refused_before_traffic(self, w):
        def fn(sess):
            with pytest.raises(ValueError, match="cannot open"):
                open_shares(sess, "open", [ArithShare(sess.role, rand_words((8,)))], [w])
            return sess.measure().counters()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] == vals[Role.P1] == (0, 0, 0, ())


class TestLocalAlgebra:
    def _shared(self, sp, x):
        sh0 = share_input(PrzsStream(sp, Role.P0), x, Role.P0, x.shape)
        sh1 = share_input(PrzsStream(sp, Role.P1), None, Role.P0, x.shape)
        return sh0, sh1

    def test_add_sub_property(self):
        # reconstruction correctness over many random tensors
        for _ in range(200):
            shape = tuple(RNG.integers(1, 20, size=RNG.integers(1, 3)))
            x, y = rand_words(shape), rand_words(shape)
            sp = seeds()
            x0, x1 = self._shared(sp, x)
            y0 = share_input(PrzsStream(sp, Role.P0), y, Role.P0, shape)
            y1 = share_input(PrzsStream(sp, Role.P1), None, Role.P0, shape)
            assert (x0 + y0).t + (x1 + y1).t == x + y
            assert (x0 - y0).t + (x1 - y1).t == x - y

    def test_add_encoded_values(self):
        sp = seeds()
        x0, x1 = self._shared(sp, encode(2.0, CFG))
        y0, y1 = self._shared(seeds(), encode(3.0, CFG))
        assert (x0 + y0).t + (x1 + y1).t == encode(5.0, CFG)

    def test_noninteractive_zero_bytes(self):
        def fn(sess):
            st = przs_setup(sess, FixedPointConfig())
            sess.transcript.reset()
            a = share_input(st, rand_words((10,)) if sess.role is Role.P0 else None, Role.P0, (10,))
            b = ArithShare(sess.role, st.draw((10,)))
            _ = a + b
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
        n_words = (10 * 1024 * 1024) // 8
        sp = seeds()
        share = PrzsStream(sp, Role.P1).draw((n_words,))
        raw = share.data.view(np.uint8)
        counts = np.bincount(raw, minlength=256)
        chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
        assert chi2 < CHI2_CUT
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

    def test_draws_are_the_keystream(self):
        # words are encrypted straight into their array; consecutive draws
        # of mixed shapes, with byte draws between them and one past the
        # 1 MB zero buffer, still read the ChaCha20 stream as little-endian
        # words, as encrypting a fresh zero buffer per draw did
        seed = fresh_seed()
        draws = [(5,), 3, (), (0,), (3, 7), 8, (1,), (2, 2, 2), (140_000,), (4096,)]
        prg = Prg(seed, b"words")
        got = [prg.draw_bytes(d) if isinstance(d, int) else prg.draw_words(d) for d in draws]
        nonce = hashlib.blake2b(b"words", digest_size=8).digest() + bytes(8)
        stream = Cipher(algorithms.ChaCha20(seed, nonce), mode=None).encryptor()
        for d, out in zip(draws, got):
            if isinstance(d, int):
                assert out == stream.update(bytes(d))
                continue
            want = np.frombuffer(stream.update(bytes(8 * int(np.prod(d)))), dtype="<u8").astype(np.uint64)
            assert out.shape == d and out.data.dtype == np.uint64
            assert np.array_equal(out.data, want.reshape(d))
