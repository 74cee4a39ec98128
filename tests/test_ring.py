"""Ring arithmetic and fixed-point encoding."""

from fractions import Fraction

import numpy as np
import pytest

from mpcnn.engine import PlainEngine
from mpcnn.ring import (
    ConvGeometry,
    FixedPointConfig,
    RingRangeError,
    RingTensor,
    ShapeMismatch,
    conv2d_ring,
    decode,
    encode,
    from_words,
    gtz_plain,
    matmul_ring,
    msb,
    trunc,
    zeros,
)

CFG = FixedPointConfig(16)
RNG = np.random.default_rng(0xA11CE)
fmul = PlainEngine(CFG).fmul


def rand_words(shape):
    return RingTensor(RNG.integers(0, 1 << 64, size=shape, dtype=np.uint64))


def fixed_mul_oracle(x: Fraction, y: Fraction, f: int) -> int:
    """Exact rational model of encode/multiply/shift, as a signed integer word."""
    a = round(x * (1 << f))
    b = round(y * (1 << f))
    prod = a * b
    return prod >> f  # arithmetic shift == floor division by 2^f


class TestEncode:
    def test_zero(self):
        assert encode(0.0, CFG).data == np.uint64(0)

    def test_three_halves(self):
        assert int(encode(1.5, CFG).data) == 98304

    def test_minus_one(self):
        assert int(encode(-1.0, CFG).data) == 2**64 - 65536

    def test_range_error(self):
        with pytest.raises(RingRangeError):
            encode(2.0**47, CFG)

    @pytest.mark.parametrize("x", [np.nan, [1.0, np.nan], [[np.inf, 0.0]], -np.inf])
    def test_non_finite_refused(self, x):
        # NaN compares False with the bound; it once encoded as the word 2^63
        with pytest.raises(RingRangeError, match="NaN"):
            encode(x, CFG)

    def test_round_trip_exact_on_grid(self):
        ks = RNG.integers(-(1 << 40), 1 << 40, size=2000)
        xs = ks.astype(np.float64) / CFG.scale
        assert np.array_equal(decode(encode(xs, CFG), CFG), xs)


class TestFixedPointConfig:
    def test_cmp_bits_default_and_valid(self):
        assert CFG.cmp_bits == 31
        for bits in (23, 31, 39, 63):
            assert FixedPointConfig(16, cmp_bits=bits).cmp_bits == bits

    @pytest.mark.parametrize("frac_bits, cmp_bits", [(16, 15), (16, 16), (16, 30), (16, 32), (16, 64),
                                                     (16, 71), (16, -1), (31, 31), (32, 31)])
    def test_cmp_bits_refused(self, frac_bits, cmp_bits):
        # frac_bits < cmp_bits <= 63, with cmp_bits + 1 whole bytes
        with pytest.raises(ValueError):
            FixedPointConfig(frac_bits, cmp_bits=cmp_bits)

    def test_pool_sentinel(self):
        # -2^(cmp_bits - 1); over the whole ring it is the old -2^62
        assert FixedPointConfig(16, cmp_bits=63).pool_sentinel == 2**64 - 2**62
        assert CFG.pool_sentinel == 2**64 - 2**30


class TestRingAlgebra:
    def test_add_encoded(self):
        assert encode(2.0, CFG) + encode(3.0, CFG) == encode(5.0, CFG)

    def test_wraparound(self):
        assert from_words([2**64 - 1]) + from_words([1]) == from_words([0])

    def test_sub_self_zero(self):
        x = rand_words((100,))
        assert x - x == zeros((100,))

    def test_commutativity_and_inverse_bulk(self):
        # quantified over 10^5 random pairs
        a = rand_words((100_000,))
        b = rand_words((100_000,))
        assert a + b == b + a
        assert a + (-a) == zeros((100_000,))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rand_words((3,)) + rand_words((4,))


class TestMulTrunc:
    """The oracle's fixed-point product, `PlainEngine.fmul`."""

    def test_two_times_three(self):
        assert fmul(encode(2.0, CFG), encode(3.0, CFG)) == encode(6.0, CFG)

    def test_half_squared(self):
        assert fmul(encode(0.5, CFG), encode(0.5, CFG)) == encode(0.25, CFG)

    def test_negative_against_rational_oracle(self):
        got = fmul(encode(-1.5, CFG), encode(2.0, CFG))
        want = fixed_mul_oracle(Fraction(-3, 2), Fraction(2), CFG.frac_bits)
        assert got.signed()[()] == want
        assert got == encode(-3.0, CFG)

    def test_random_against_rational_oracle(self):
        ks = RNG.integers(-(1 << 30), 1 << 30, size=200)
        ls = RNG.integers(-(1 << 30), 1 << 30, size=200)
        for k, l in zip(ks.tolist(), ls.tolist()):
            x, y = Fraction(k, CFG.scale), Fraction(l, CFG.scale)
            got = fmul(encode(float(x), CFG), encode(float(y), CFG))
            assert got.signed()[()] == fixed_mul_oracle(x, y, CFG.frac_bits)

    def test_error_bound_random_sweep(self):
        # representable inputs; |x| up to 2^20, |y| bounded so the raw ring
        # product stays under 2^63 (needs |x*y| < 2^(63-2f) at one shift)
        ks = RNG.integers(-(1 << 36), 1 << 36, size=50_000)
        ls = RNG.integers(-(1 << 26), 1 << 26, size=50_000)
        x = ks.astype(np.float64) / CFG.scale
        y = ls.astype(np.float64) / CFG.scale
        got = decode(fmul(encode(x, CFG), encode(y, CFG)), CFG)
        assert np.max(np.abs(got - x * y)) <= 2.0 ** (1 - CFG.frac_bits)


class TestMsb:
    def test_zero(self):
        assert int(msb(from_words(0)).data) == 0

    def test_small_negative(self):
        assert int(msb(encode(-0.001, CFG)).data) == 1

    def test_boundary(self):
        assert int(msb(from_words(1 << 63)).data) == 1

    def test_gtz_plain_matches_sign(self):
        ks = RNG.integers(-(1 << 40), 1 << 40, size=10_000)
        x = encode(ks.astype(np.float64) / CFG.scale, CFG)
        assert np.array_equal(gtz_plain(x).data.astype(bool), ks > 0)


class TestConvMatmul:
    def test_conv_shape_compactcnn(self):
        geom = ConvGeometry(1, 32, 1, 64)
        x = rand_words((1, 1, 384))
        w = rand_words(geom.weight_shape())
        out = conv2d_ring(x, w, geom)
        assert out.shape == (32, 1, 321)

    def test_conv_identity_kernel(self):
        geom = ConvGeometry(1, 1, 1, 1)
        x = rand_words((1, 4, 5))
        w = from_words(np.ones((1, 1, 1, 1), dtype=np.uint64))
        assert conv2d_ring(x, w, geom) == x

    def test_conv_against_direct_sum(self):
        # independent oracle: direct loop accumulation in python ints
        geom = ConvGeometry(3, 4, 3, 3, stride=1, padding=1)
        x = rand_words((3, 8, 8))
        w = rand_words(geom.weight_shape())
        out = conv2d_ring(x, w, geom)
        xi = x.data.tolist()
        wi = w.data.tolist()
        for oc in range(4):
            for oy in range(8):
                for ox in range(8):
                    acc = 0
                    for ic in range(3):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy + ky - 1, ox + kx - 1
                                if 0 <= iy < 8 and 0 <= ix < 8:
                                    acc += xi[ic][iy][ix] * wi[oc][ic][ky][kx]
                    assert out.data[oc, oy, ox] == np.uint64(acc & ((1 << 64) - 1))

    def test_matmul_against_python_ints(self):
        a = rand_words((5, 7))
        b = rand_words((7, 3))
        out = matmul_ring(a, b)
        ai, bi = a.data.tolist(), b.data.tolist()
        for i in range(5):
            for j in range(3):
                acc = sum(ai[i][k] * bi[k][j] for k in range(7)) & ((1 << 64) - 1)
                assert out.data[i, j] == np.uint64(acc)

    def test_bad_geometry(self):
        geom = ConvGeometry(1, 1, 3, 3)
        with pytest.raises(ShapeMismatch):
            conv2d_ring(rand_words((2, 4, 4)), rand_words((1, 1, 3, 3)), geom)


class TestTensorOps:
    def test_trunc_matches_floor_div(self):
        x = encode(7.0, CFG)
        assert trunc(x, 1) == encode(3.5, CFG)

