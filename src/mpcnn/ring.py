"""Fixed-point tensors over the ring Z_2^64.

Every value that moves through a protocol is a RingTensor: an n-dimensional
array of 64-bit words, wrapping modulo 2^64, with reals embedded by scaling
with 2^frac_bits and negatives in two's complement. All operations here are
plaintext; they double as the reference semantics for the secure protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WORD_BITS = 64


class RingRangeError(ValueError):
    """Raised when a real value does not fit the fixed-point range."""


class ComparisonDomainError(RingRangeError):
    """Raised when a comparison input lies outside the comparison domain
    |x| < 2^cmp_bits, where the secure comparison is not exact."""


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


@dataclass(frozen=True)
class FixedPointConfig:
    """Fixed-point encoding parameters: x is stored as round(x * 2**frac_bits).

    cmp_bits is the comparison domain l: a comparison is exact on words with
    |x| < 2^l, and the secure one opens the low l + 1 bits of its masked
    word and runs its carry tree on l lanes, so (l + 1) must be whole bytes.
    l = 63 is the whole ring. Max pooling compares differences of window
    cells, so its inputs must satisfy |x| < 2^(l - 1); its padding sentinel
    is -2^(l - 1)."""

    frac_bits: int = 16
    cmp_bits: int = 31

    def __post_init__(self):
        if not 1 <= self.frac_bits <= 32:
            raise ValueError(f"frac_bits must be in [1, 32], got {self.frac_bits}")
        if not self.frac_bits < self.cmp_bits < WORD_BITS or (self.cmp_bits + 1) % 8:
            raise ValueError(f"cmp_bits must be in ({self.frac_bits}, 63] with cmp_bits + 1 "
                             f"a multiple of 8, got {self.cmp_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def max_abs(self) -> float:
        # |x| must stay below 2^(63 - frac_bits) so the word keeps its sign bit
        return float(1 << (63 - self.frac_bits))

    @property
    def pool_sentinel(self) -> int:
        """Max pooling's pad word, -2^(cmp_bits - 1): below every input of
        its domain |x| < 2^(cmp_bits - 1), and less than 2^cmp_bits from
        each, so every comparison against it stays in the comparison
        domain."""
        return (1 << WORD_BITS) - (1 << (self.cmp_bits - 1))


DEFAULT_CFG = FixedPointConfig()


@dataclass
class RingTensor:
    """Row-major tensor of Z_2^64 words. No broadcasting: shapes must match."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.data.dtype != np.uint64:
            self.data = self.data.astype(np.uint64)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def reshape(self, *shape) -> "RingTensor":
        return RingTensor(self.data.reshape(*shape))

    def signed(self) -> np.ndarray:
        return self.data.view(np.int64)

    # -- ring arithmetic (elementwise, wrapping) --

    def _check(self, other: "RingTensor"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "RingTensor") -> "RingTensor":
        self._check(other)
        with np.errstate(over="ignore"):
            return RingTensor(self.data + other.data)

    def __sub__(self, other: "RingTensor") -> "RingTensor":
        self._check(other)
        with np.errstate(over="ignore"):
            return RingTensor(self.data - other.data)

    def __neg__(self) -> "RingTensor":
        with np.errstate(over="ignore"):
            return RingTensor(np.uint64(0) - self.data)

    def __mul__(self, other: "RingTensor") -> "RingTensor":
        self._check(other)
        with np.errstate(over="ignore"):  # wrap-around is the ring semantics
            return RingTensor(self.data * other.data)

    # -- bitwise (used by binary sharing) --

    def __xor__(self, other: "RingTensor") -> "RingTensor":
        self._check(other)
        return RingTensor(self.data ^ other.data)

    def __and__(self, other: "RingTensor") -> "RingTensor":
        self._check(other)
        return RingTensor(self.data & other.data)

    def shift_left(self, k: int) -> "RingTensor":
        _check_shift(k)
        return RingTensor(self.data << np.uint64(k))

    def shift_right_logical(self, k: int) -> "RingTensor":
        _check_shift(k)
        return RingTensor(self.data >> np.uint64(k))

    def shift_right_arith(self, k: int) -> "RingTensor":
        _check_shift(k)
        return RingTensor((self.signed() >> np.int64(k)).view(np.uint64))

    def __eq__(self, other) -> bool:
        return isinstance(other, RingTensor) and self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"RingTensor(shape={self.shape})"


def _check_shift(k: int):
    if not 0 <= k < WORD_BITS:
        raise ValueError(f"shift out of range: {k}")


def zeros(shape) -> RingTensor:
    return RingTensor(np.zeros(shape, dtype=np.uint64))


def from_words(words) -> RingTensor:
    return RingTensor(np.asarray(words, dtype=np.uint64))


def encode(x, cfg: FixedPointConfig = DEFAULT_CFG) -> RingTensor:
    """Embed reals into the ring: round(x * scale) mod 2^64."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.abs(arr) < cfg.max_abs):  # NaN fails <, where it would pass a test of >=
        raise RingRangeError(
            f"value is NaN or exceeds representable range +-{cfg.max_abs} at frac_bits={cfg.frac_bits}"
        )
    scaled = np.rint(arr * cfg.scale).astype(np.int64)
    return RingTensor(scaled.view(np.uint64).reshape(arr.shape))


def decode(t: RingTensor, cfg: FixedPointConfig = DEFAULT_CFG) -> np.ndarray:
    """Exact inverse of encode on the representable range."""
    return t.signed().astype(np.float64) / cfg.scale


def trunc(t: RingTensor, bits: int) -> RingTensor:
    """Arithmetic right shift: the fixed-point rescale after a product."""
    return t.shift_right_arith(bits)


def msb(t: RingTensor) -> RingTensor:
    """Top bit per word; 1 iff the signed interpretation is negative."""
    return t.shift_right_logical(WORD_BITS - 1)


def gtz_plain(t: RingTensor) -> RingTensor:
    """1 iff the signed value is strictly positive (reference semantics: msb(-x))."""
    return msb(-t)


# ---------------------------------------------------------------------------
# convolution / matmul / pooling geometry


@dataclass(frozen=True)
class ConvGeometry:
    """2D convolution geometry over C x H x W tensors."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0

    def out_hw(self, h: int, w: int) -> tuple:
        oh = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ShapeMismatch(f"conv geometry {self} yields empty output for {h}x{w}")
        return oh, ow

    def weight_shape(self) -> tuple:
        return (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)


def _pad_chw(data: np.ndarray, padding: int, fill: int) -> np.ndarray:
    if padding == 0:
        return data
    c, h, w = data.shape
    out = np.full((c, h + 2 * padding, w + 2 * padding), np.uint64(fill), dtype=np.uint64)
    out[:, padding : padding + h, padding : padding + w] = data
    return out


def im2col(x: RingTensor, kh: int, kw: int, stride: int, padding: int) -> tuple:
    """Unfold C x H x W into (oh*ow, C*kh*kw) patch rows, zero-padded. Row p
    is output cell p's window in the kernel's (C, kh, kw) order, so a patch
    row and a kernel row both run contiguously along the reduction."""
    if x.data.ndim != 3:
        raise ShapeMismatch(f"expected rank-3 C,H,W tensor, got {x.shape}")
    c = x.shape[0]
    padded = _pad_chw(x.data, padding, 0)
    win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    oh, ow = win.shape[1:3]
    return win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kh * kw), oh, ow


def _ring_product(a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """a @ bt.T over Z_2^64 for a (m, k) and bt (n, k): the one ring-product
    kernel. It wants both operands contiguous along the reduction axis k,
    where einsum's inner loop streams two rows; numpy's uint64 `@` has no
    BLAS and walks its right operand down a column. uint64 multiply-add
    wraps mod 2^64, and that addition is associative and commutative, so
    every summation order gives the same words."""
    return np.einsum("ik,jk->ij", a, bt)


def conv2d_ring(x: RingTensor, w: RingTensor, geom: ConvGeometry) -> RingTensor:
    """Raw ring convolution (no truncation, no bias); output OC x OH x OW."""
    if x.data.ndim != 3 or x.shape[0] != geom.in_channels:
        raise ShapeMismatch(f"input {x.shape} does not match geometry {geom}")
    if w.shape != geom.weight_shape():
        raise ShapeMismatch(f"kernel {w.shape} does not match geometry {geom}")
    patches, oh, ow = im2col(x, geom.kernel_h, geom.kernel_w, geom.stride, geom.padding)
    out = _ring_product(w.data.reshape(geom.out_channels, -1), patches)
    return RingTensor(out.reshape(geom.out_channels, oh, ow))


def matmul_ring(a: RingTensor, b: RingTensor) -> RingTensor:
    """Raw ring matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    return RingTensor(_ring_product(a.data, np.ascontiguousarray(b.data.T)))


def pool_windows(x: RingTensor, k: int, stride: int, padding: int, fill: int) -> tuple:
    """Unfold each channel into (C, k*k, oh*ow) windows; padded cells hold
    the word `fill` (the config's `pool_sentinel`, which never wins a
    comparison)."""
    c = x.shape[0]
    win = sliding_window_view(_pad_chw(x.data, padding, fill), (k, k), axis=(1, 2))[:, ::stride, ::stride]
    oh, ow = win.shape[1:3]
    return RingTensor(win.transpose(0, 3, 4, 1, 2).reshape(c, k * k, oh * ow)), oh, ow
