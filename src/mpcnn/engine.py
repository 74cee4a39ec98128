"""One numeric surface, two executors.

PlainEngine runs on raw ring tensors and is the fixed-point oracle;
SecureEngine runs the interactive protocols over shares. Approximations and
network layers are written once against this surface, so the oracle executes
exactly the same formulas and truncations as the secure path; they differ
only by the local-truncation noise of shared products.

Each executor defines only its primitives: `raw` and `wrap_like` (the ring
words of a value, and a value of the same kind around new words), `const`,
`mul_raw`, `gtz`, `mux`, `conv2d`, `matmul` and `pool_windows`. Their base
`Engine` writes the local ops once over those primitives: `add`, `sub`,
`trunc` (the rescale), `fmul`, `add_const`, `mul_const` and `mul_const_int`.
"""

from __future__ import annotations

import numpy as np

from . import arith
from .arith import ProtocolCtx
from .ring import (
    ComparisonDomainError,
    ConvGeometry,
    FixedPointConfig,
    RingTensor,
    WORD_BITS,
    conv2d_ring,
    encode,
    gtz_plain,
    matmul_ring,
    trunc,
)
from .ring import pool_windows as _ring_pool_windows
from .sharing import ArithShare, BinShare, share_public
from .transport import Role


class Engine:
    """The local ops, written once over an executor's primitives."""

    cfg: FixedPointConfig

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def trunc(self, a, bits: int | None = None):
        """The fixed-point rescale by `bits` (frac_bits by default). On shares
        each party arithmetic-shifts its own share: a known additive error of
        at most 1 LSB per party, and a wrap-scale error with probability
        |value| / 2^64, accepted (documented)."""
        return self.wrap_like(a, trunc(self.raw(a), self.cfg.frac_bits if bits is None else bits).data)

    def fmul(self, a, b):
        return self.trunc(self.mul_raw(a, b))

    def add_const(self, a, value: float):
        # a const is P0's alone on shares, so it is added once
        return self.add(a, self.const(a.shape, value))

    def mul_const_int(self, a, value: int):
        """a times a public word: every share scales, so it stays local."""
        with np.errstate(over="ignore"):
            return self.wrap_like(a, self.raw(a).data * np.uint64(value & ((1 << WORD_BITS) - 1)))

    def mul_const(self, a, value: float):
        return self.trunc(self.mul_const_int(a, int(encode(value, self.cfg).data)))


class PlainEngine(Engine):
    """Fixed-point reference executor on public ring tensors."""

    def __init__(self, cfg: FixedPointConfig | None = None):
        self.cfg = cfg or FixedPointConfig()

    # representation plumbing
    def raw(self, v: RingTensor) -> RingTensor:
        return v

    def wrap_like(self, v, data: np.ndarray):
        return RingTensor(data)

    def const(self, shape, value: float) -> RingTensor:
        return encode(np.full(shape, value, dtype=np.float64), self.cfg)

    # arithmetic
    def mul_raw(self, a, b):
        return a * b

    # comparison / selection
    def gtz(self, a):
        """gtz_plain, refused (ComparisonDomainError) outside the comparison
        domain |x| < 2^cmp_bits, where the secure gtz is not exact."""
        lim = 1 << self.cfg.cmp_bits
        with np.errstate(over="ignore"):  # x + lim - 1 lies in [0, 2 lim - 1) iff |x| < lim
            outside = a.data + np.uint64(lim - 1) >= np.uint64(2 * lim - 1)
        if np.any(outside):
            raise ComparisonDomainError(f"comparison input outside |x| < 2^{self.cfg.cmp_bits}")
        return gtz_plain(a)

    def mux(self, c, a, b):
        return b + c * (a - b)

    # linear layers (raw products; callers rescale)
    def conv2d(self, x, w, geom: ConvGeometry):
        return conv2d_ring(x, w, geom)

    def matmul(self, x, w):
        return matmul_ring(x, w)

    def pool_windows(self, x, k: int, stride: int, padding: int):
        return _ring_pool_windows(x, k, stride, padding, self.cfg.pool_sentinel)


class SecureEngine(Engine):
    """Protocol executor over one party's shares. A comparison gives a XOR
    share of its 0/1 bit (`BinShare`), which the data movement below keeps
    as one, and which `mul_raw` and `mux` multiply in with `arith.select`."""

    def __init__(self, ctx: ProtocolCtx):
        self.ctx = ctx
        self.cfg = ctx.cfg

    def raw(self, v: ArithShare) -> RingTensor:
        return v.t

    def wrap_like(self, v, data: np.ndarray):
        return (BinShare if isinstance(v, BinShare) else ArithShare)(v.owner, RingTensor(data))

    def const(self, shape, value: float) -> ArithShare:
        return share_public(encode(np.full(shape, value, dtype=np.float64), self.cfg), self.ctx.role)

    def mul_raw(self, a, b):
        if isinstance(a, BinShare):
            return arith.select(self.ctx, a, b)
        if isinstance(b, BinShare):
            return arith.select(self.ctx, b, a)
        return arith.beaver_mul(self.ctx, a, b)

    def gtz(self, a):
        return arith.gtz(self.ctx, a)

    def mux(self, c, a, b):
        return arith.mux(self.ctx, c, a, b)

    def conv2d(self, x, w, geom: ConvGeometry):
        return arith.conv2d(self.ctx, x, w, geom)

    def matmul(self, x, w):
        return arith.matmul(self.ctx, x, w)

    def pool_windows(self, x, k: int, stride: int, padding: int):
        # the public sentinel must reconstruct once, not twice
        fill = self.cfg.pool_sentinel if self.ctx.role is Role.P0 else 0
        win, oh, ow = _ring_pool_windows(x.t, k, stride, padding, fill)
        return ArithShare(x.owner, win), oh, ow


# ---------------------------------------------------------------------------
# engine-generic data movement


def e_stack(e, values, axis=0):
    return e.wrap_like(values[0], np.stack([e.raw(v).data for v in values], axis=axis))


def e_concat(e, values, axis):
    return e.wrap_like(values[0], np.concatenate([e.raw(v).data for v in values], axis=axis))


def e_reshape(e, v, shape):
    return e.wrap_like(v, e.raw(v).data.reshape(shape))


def e_repeat(e, v, n, axis):
    return e.wrap_like(v, np.repeat(e.raw(v).data, n, axis=axis))


def e_sum(e, v, axis):
    if isinstance(v, BinShare):
        raise TypeError("XOR shares do not add up: e_sum needs an ArithShare")
    with np.errstate(over="ignore"):
        return e.wrap_like(v, np.add.reduce(e.raw(v).data, axis=axis, dtype=np.uint64))


def e_take(e, v, index, axis):
    return e.wrap_like(v, np.take(e.raw(v).data, index, axis=axis))


def e_upsample2x(e, v):
    return e.wrap_like(v, np.repeat(np.repeat(e.raw(v).data, 2, axis=1), 2, axis=2))


# ---------------------------------------------------------------------------
# tournament maximum: the one comparison pattern every pooling op shares


def tournament_max(e, v, axis: int):
    """Pairwise max tree along `axis` via gtz + mux; ceil(log2(n)) comparison
    phases, each a single batched round pair regardless of width."""
    data = np.moveaxis(e.raw(v).data, axis, 0)
    cur = e.wrap_like(v, data)
    while cur.shape[0] > 1:
        n = cur.shape[0]
        half = n // 2
        a = e.wrap_like(v, e.raw(cur).data[:half])
        b = e.wrap_like(v, e.raw(cur).data[half : 2 * half])
        s = e.gtz(e.sub(a, b))
        m = e.mux(s, a, b)
        if n % 2:
            m = e_concat(e, [m, e.wrap_like(v, e.raw(cur).data[-1:])], axis=0)
        cur = m
    return e.wrap_like(v, e.raw(cur).data[0])


def maxpool2d(e, x, k: int, stride: int, padding: int):
    """Plaintext-equivalent max pooling over C x H x W, exact for inputs with
    |x| < 2^(cmp_bits - 1): every compared difference then lies in the
    comparison domain. Padded cells hold the config's `pool_sentinel`,
    -2^(cmp_bits - 1), which lies below every such input and never wins."""
    c = x.shape[0]
    win, oh, ow = e.pool_windows(x, k, stride, padding)
    flat = tournament_max(e, win, axis=1)  # (C, oh*ow)
    return e_reshape(e, flat, (c, oh, ow))
