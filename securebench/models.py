"""The benchmark's two networks, written once against the mpcnn engine surface.

A network is a list of layers with public shapes. P1 (the model holder)
shares the weights at the start of every session; P0 (the data holder) shares
the input. Every layer is a class with a `kind` and a `forward(e, x, p)`
method, where `e` is an engine and `p` that layer's parameter shares, so the
traced run can time each kind from outside by wrapping `forward`.

Weights and inputs come from a seeded numpy generator; nothing is
downloaded. Each layer's weights are scaled on the run's input pool so that
its largest pre-activation is ACT_TARGET, which keeps every SiLU input well
inside the [-16, 16] domain of `approx.sec_silu`.
"""

from __future__ import annotations

import numpy as np

from mpcnn import approx, engine
from mpcnn.ring import ConvGeometry, encode
from mpcnn.sharing import share_input
from mpcnn.transport import Role

import reference

ACT_TARGET = 4.0
# The detector's layers after the first keep 6 nonzero taps per output
# channel. Dense random weights multiply the documented SiLU error by about
# sqrt(fan-in) per later layer in the a-priori bound, which then says nothing
# (about 630 on outputs near 1). The ring multiplies the dense tensors either
# way, so cost and transcripts are those of the dense shapes.
PRUNED_TAPS = 6


def _per_channel(e, b, shape):
    """Expand a (C,) share to (C, H, W) by local repetition."""
    c, h, w = shape
    col = engine.e_reshape(e, b, (c, 1, 1))
    return engine.e_repeat(e, engine.e_repeat(e, col, h, axis=1), w, axis=2)


class Conv:
    kind = "conv"

    def __init__(self, name, cin, cout, kh, kw, stride=1, padding=0, taps=None):
        self.name = name
        self.geom = ConvGeometry(cin, cout, kh, kw, stride, padding)
        self.taps = taps  # nonzero weights kept per output channel; None keeps all

    def param_shapes(self):
        return {"w": self.geom.weight_shape(), "b": (self.geom.out_channels,)}

    def forward(self, e, x, p):
        y = e.trunc(e.conv2d(x, p["w"], self.geom))
        return e.add(y, _per_channel(e, p["b"], y.shape))


class ReLU:
    kind = "relu"

    def forward(self, e, x, p):
        return e.mul_raw(x, e.gtz(x))


class SiLU:
    kind = "silu"

    def forward(self, e, x, p):
        return approx.sec_silu(e, x)


class MaxPool:
    kind = "maxpool"

    def __init__(self, k, stride, padding=0):
        self.k, self.stride, self.padding = k, stride, padding

    def forward(self, e, x, p):
        return engine.maxpool2d(e, x, self.k, self.stride, self.padding)


class GlobalMean:
    kind = "mean"

    def forward(self, e, x, p):
        c, h, w = x.shape
        total = engine.e_sum(e, engine.e_reshape(e, x, (c, h * w)), axis=1)
        return e.mul_const(total, 1.0 / (h * w))


class Linear:
    kind = "linear"

    def __init__(self, name, cin, cout):
        self.name = name
        self.cin, self.cout = cin, cout
        self.taps = None

    def param_shapes(self):
        return {"w": (self.cin, self.cout), "b": (1, self.cout)}

    def forward(self, e, x, p):
        row = engine.e_reshape(e, x, (1, self.cin))
        y = e.add(e.trunc(e.matmul(row, p["w"])), p["b"])
        return engine.e_reshape(e, y, (self.cout,))


class Upsample2x:
    kind = "reshape"

    def forward(self, e, x, p):
        return engine.e_upsample2x(e, x)


class Concat:
    kind = "reshape"

    def forward(self, e, xs, p):
        return engine.e_concat(e, xs, axis=0)


# ---------------------------------------------------------------------------
# networks


class CompactCNN:
    """Drowsiness detection on one EEG window: conv 32x1x1x64, rescale,
    ReLU, global mean, linear 32->2 logits."""

    name = "compactcnn"
    input_shape = (1, 1, 384)

    def __init__(self):
        self.conv = Conv("conv", 1, 32, 1, 64)
        self.relu = ReLU()
        self.mean = GlobalMean()
        self.fc = Linear("fc", 32, 2)
        self.params = (self.conv, self.fc)

    def forward(self, e, x, p):
        x = self.conv.forward(e, x, p["conv"])
        x = self.relu.forward(e, x, None)
        x = self.mean.forward(e, x, None)
        return self.fc.forward(e, x, p["fc"])

    def make_inputs(self, rng, n):
        """Synthetic EEG: a few drifting rhythms plus noise, scaled to [-1, 1]."""
        t = np.arange(384) / 128.0
        out = []
        for _ in range(n):
            sig = sum(rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * rng.uniform(1, 30) * t + rng.uniform(0, 6.3))
                      for _ in range(4))
            sig = sig + 0.3 * rng.standard_normal(384)
            out.append((sig / np.abs(sig).max()).reshape(self.input_shape))
        return out


class Detector:
    """Scaled-down YOLO-style red-light detector on a 3x32x32 frame: two
    stride-2 convs with SiLU, a max-pool block, a wide linear conv, a 2x
    upsample concatenated with the stride-8 features, a linear fusing conv
    and a 1x1 head (objectness, 4 box terms, 3 light states per cell). The
    convs carry 15.7 M multiply-accumulates per inference, 24x CompactCNN's
    0.66 M. Only the stride-2 convs carry SiLU: every truncated element risks
    the local truncation's documented wrap failure (|v| / 2^64), and SiLU
    truncates about 30 times per element, so the SiLU maps are kept small."""

    name = "detector"
    input_shape = (3, 32, 32)
    head_channels = 8

    def __init__(self):
        self.c1 = Conv("c1", 3, 4, 3, 3, stride=2, padding=1)  # 4x16x16
        self.c2 = Conv("c2", 4, 16, 3, 3, stride=2, padding=1, taps=PRUNED_TAPS)  # 16x8x8
        self.pool = MaxPool(2, 2)  # 16x4x4
        self.c3 = Conv("c3", 16, 256, 3, 3, stride=1, padding=1, taps=PRUNED_TAPS)  # 256x4x4
        self.up = Upsample2x()  # 256x8x8
        self.cat = Concat()  # 272x8x8
        self.c4 = Conv("c4", 272, 96, 3, 3, stride=1, padding=1, taps=PRUNED_TAPS)  # 96x8x8
        self.head = Conv("head", 96, self.head_channels, 1, 1, taps=PRUNED_TAPS)  # 8x8x8
        self.silu = SiLU()
        self.params = (self.c1, self.c2, self.c3, self.c4, self.head)

    def forward(self, e, x, p):
        x = self.silu.forward(e, self.c1.forward(e, x, p["c1"]), None)
        f8 = self.silu.forward(e, self.c2.forward(e, x, p["c2"]), None)
        x = self.c3.forward(e, self.pool.forward(e, f8, None), p["c3"])
        x = self.cat.forward(e, [self.up.forward(e, x, None), f8], None)
        x = self.c4.forward(e, x, p["c4"])
        return self.head.forward(e, x, p["head"])

    def make_inputs(self, rng, n):
        """Synthetic frames: dark background noise with one lit disc (the
        light) of random colour, position and radius."""
        yy, xx = np.mgrid[0:32, 0:32]
        out = []
        for _ in range(n):
            img = 0.15 * rng.random(self.input_shape)
            cy, cx, r = rng.uniform(4, 28), rng.uniform(4, 28), rng.uniform(2, 5)
            disc = ((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r
            img[rng.integers(0, 3)][disc] = rng.uniform(0.7, 1.0)
            out.append(img)
        return out


MODELS = {"compactcnn": CompactCNN, "detector": Detector}


def make_weights(model, rng, inputs):
    """Normal weights, pruned to `taps` per output channel where a layer asks
    for it, each layer scaled in turn so that its largest output over
    `inputs` (evaluated in float64) is ACT_TARGET."""
    weights = {}
    for layer in model.params:
        shapes = layer.param_shapes()
        w = rng.standard_normal(shapes["w"])
        if layer.taps is not None:
            flat = w.reshape(w.shape[0], -1)
            for row in flat:
                row[rng.permutation(row.size)[layer.taps :]] = 0.0
        b = 0.1 * rng.standard_normal(shapes["b"])
        weights[layer.name] = {"w": w, "b": b}
        peak = max(np.abs(reference.forward(model.name, weights, x, upto=layer.name)).max() for x in inputs)
        weights[layer.name] = {"w": w * (ACT_TARGET / peak), "b": b * (ACT_TARGET / peak)}
    return weights


def share_params(ctx, model, weights):
    """Input sharing of the model: P1 passes its encoded weights, P0 None."""
    out = {}
    for layer in model.params:
        shares = {}
        for key, shape in layer.param_shapes().items():
            val = encode(weights[layer.name][key], ctx.cfg) if weights is not None else None
            shares[key] = share_input(ctx.przs, val, Role.P1, shape)
        out[layer.name] = shares
    return out
