"""Ring arithmetic and fixed-point encoding."""

from fractions import Fraction

import numpy as np
import pytest

from mpcnn.engine import PlainEngine, maxpool2d
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
    im2col,
    matmul_ring,
    msb,
    pool_windows,
    trunc,
    zeros,
)

CFG = FixedPointConfig(16)
RNG = np.random.default_rng(0xA11CE)
fmul = PlainEngine(CFG).fmul


def rand_words(shape):
    return RingTensor(RNG.integers(0, 1 << 64, size=shape, dtype=np.uint64))


def conv_cell_oracle(x: RingTensor, w: RingTensor, geom: ConvGeometry, cells) -> list:
    """Output words of conv2d_ring at `cells` (oc, oy, ox), by direct
    Python-int accumulation mod 2^64."""
    xi, wi = x.data.tolist(), w.data.tolist()
    _, h, wd = x.shape
    out = []
    for oc, oy, ox in cells:
        acc = 0
        for ic in range(geom.in_channels):
            for ky in range(geom.kernel_h):
                for kx in range(geom.kernel_w):
                    iy = oy * geom.stride + ky - geom.padding
                    ix = ox * geom.stride + kx - geom.padding
                    if 0 <= iy < h and 0 <= ix < wd:
                        acc += xi[ic][iy][ix] * wi[oc][ic][ky][kx]
        out.append(acc % (1 << 64))
    return out


def matmul_oracle(a: RingTensor, b: RingTensor) -> list:
    """a @ b by Python-int accumulation mod 2^64, as nested lists."""
    ai, bi = a.data.tolist(), b.data.tolist()
    return [[sum(row[k] * bi[k][j] for k in range(len(bi))) % (1 << 64) for j in range(len(bi[0]))]
            for row in ai]


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
        cells = list(np.ndindex(out.shape))
        assert [out.data[c] for c in cells] == conv_cell_oracle(x, w, geom, cells)

    def test_conv_stride2_padded_nonsquare(self):
        geom = ConvGeometry(3, 5, 3, 2, stride=2, padding=1)
        x = rand_words((3, 7, 6))
        w = rand_words(geom.weight_shape())
        out = conv2d_ring(x, w, geom)
        assert out.shape == (5, 4, 4)
        cells = list(np.ndindex(out.shape))
        assert [out.data[c] for c in cells] == conv_cell_oracle(x, w, geom, cells)

    def test_conv_detector_c4_sampled(self):
        # the detector's widest conv, inner dimension 272 * 9 = 2448, checked
        # on 64 sampled output cells
        geom = ConvGeometry(272, 96, 3, 3, stride=1, padding=1)
        x = rand_words((272, 8, 8))
        w = rand_words(geom.weight_shape())
        out = conv2d_ring(x, w, geom)
        cells = list(zip(*(RNG.integers(0, n, size=64) for n in out.shape)))
        assert [out.data[c] for c in cells] == conv_cell_oracle(x, w, geom, cells)

    def test_all_ones_words_wrap(self):
        # (2^64 - 1)^2 = 1 mod 2^64, so each product and every partial sum
        # wraps; a conv cell is its count of in-image taps
        def ones(shape):
            return from_words(np.full(shape, (1 << 64) - 1, dtype=np.uint64))

        geom = ConvGeometry(2, 3, 3, 3, stride=1, padding=1)
        x, w = ones((2, 4, 4)), ones(geom.weight_shape())
        out = conv2d_ring(x, w, geom)
        cells = list(np.ndindex(out.shape))
        assert [out.data[c] for c in cells] == conv_cell_oracle(x, w, geom, cells)
        assert out.data[0, 0, 0] == 2 * 4 and out.data[0, 1, 1] == 2 * 9
        a, b = ones((3, 40)), ones((40, 2))
        assert matmul_ring(a, b).data.tolist() == matmul_oracle(a, b) == [[40] * 2] * 3

    @pytest.mark.parametrize("geom, hw", [
        (ConvGeometry(1, 32, 1, 64), (1, 384)),
        (ConvGeometry(3, 4, 3, 3, stride=2, padding=1), (32, 32)),
        (ConvGeometry(4, 16, 3, 3, stride=2, padding=1), (16, 16)),
        (ConvGeometry(16, 256, 3, 3, stride=1, padding=1), (4, 4)),
        (ConvGeometry(272, 96, 3, 3, stride=1, padding=1), (8, 8)),
        (ConvGeometry(96, 8, 1, 1), (8, 8)),
    ], ids=["compactcnn", "c1", "c2", "c3", "c4", "head"])
    def test_conv_matches_uint64_matmul(self, geom, hw):
        # every cell of each benchmark geometry against numpy's uint64 `@`
        # on the same patch rows
        x = rand_words((geom.in_channels, *hw))
        w = rand_words(geom.weight_shape())
        patches, oh, ow = im2col(x, geom.kernel_h, geom.kernel_w, geom.stride, geom.padding)
        want = (w.data.reshape(geom.out_channels, -1) @ patches.T).reshape(geom.out_channels, oh, ow)
        assert np.array_equal(conv2d_ring(x, w, geom).data, want)

    def test_matmul_against_python_ints(self):
        a = rand_words((5, 7))
        b = rand_words((7, 3))
        assert matmul_ring(a, b).data.tolist() == matmul_oracle(a, b)

    @pytest.mark.parametrize("m, k, n", [(1, 32, 2), (4, 1, 3), (1, 1, 1)])
    def test_matmul_degenerate_dims(self, m, k, n):
        a, b = rand_words((m, k)), rand_words((k, n))
        assert matmul_ring(a, b).data.tolist() == matmul_oracle(a, b)

    def test_matmul_transposed_operands(self):
        # non-contiguous views: each operand a transpose of a stored array
        a, b = RingTensor(rand_words((6, 4)).data.T), RingTensor(rand_words((3, 6)).data.T)
        assert not a.data.flags.c_contiguous and not b.data.flags.c_contiguous
        assert matmul_ring(a, b).data.tolist() == matmul_oracle(a, b)

    def test_bad_geometry(self):
        geom = ConvGeometry(1, 1, 3, 3)
        with pytest.raises(ShapeMismatch):
            conv2d_ring(rand_words((2, 4, 4)), rand_words((1, 1, 3, 3)), geom)
        # no window fits: a 3x3 kernel or pool on 2x2
        x = rand_words((1, 2, 2))
        with pytest.raises(ShapeMismatch):
            conv2d_ring(x, rand_words((1, 1, 3, 3)), geom)
        with pytest.raises(ShapeMismatch):
            maxpool2d(PlainEngine(CFG), x, 3, 1, 0)
        # stride 0, a zero pool size, negative padding and a rank-2 input
        with pytest.raises(ShapeMismatch):
            maxpool2d(PlainEngine(CFG), x, 2, 0, 0)
        for k, stride, padding in ((0, 1, 0), (1, 1, -1)):
            with pytest.raises(ShapeMismatch):
                pool_windows(x, k, stride, padding, 0)
        with pytest.raises(ShapeMismatch):
            im2col(rand_words((2, 2)), 1, 1, 1, 0)
        # a geometry is refused when it is built, so a secure conv never
        # reaches the division by its stride
        for bad in ((1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, -1), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)):
            with pytest.raises(ShapeMismatch):
                ConvGeometry(*bad)


class TestTensorOps:
    def test_trunc_matches_floor_div(self):
        x = encode(7.0, CFG)
        assert trunc(x, 1) == encode(3.5, CFG)

