"""Approximation contracts: every (domain, frac_bits, tolerance) row of the
table in `mpcnn.approx`, swept on the plain oracle over the whole domain,
plus a secure sample."""

import numpy as np
import pytest

from mpcnn import approx
from mpcnn.engine import PlainEngine, SecureEngine
from mpcnn.ring import FixedPointConfig, decode, encode
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import Role

CFG = FixedPointConfig(16)
ACT_GRID = np.arange(-16.0, 16.0 + 2.0**-14, 2.0**-14)  # [-16, 16], both ends, every 4th word


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _plain(fn, x, cfg=CFG):
    e = PlainEngine(cfg)
    return decode(fn(e, encode(x, cfg)), cfg)


def test_sigmoid_contract():
    err = np.abs(_plain(approx.sec_sigmoid, ACT_GRID) - _sigmoid(ACT_GRID))
    assert err.max() <= 2e-2


def test_silu_contract():
    err = np.abs(_plain(approx.sec_silu, ACT_GRID) - ACT_GRID * _sigmoid(ACT_GRID))
    assert err.max() <= 2e-2


def test_reciprocal_contract_at_24_frac_bits():
    x = np.geomspace(2.0**-6, 2.0**12, 4097)
    rel = np.abs(_plain(approx.sec_reciprocal, x, FixedPointConfig(24)) * x - 1.0)
    assert rel.max() <= 1e-3


def test_rsqrt_contract():
    x = np.geomspace(2.0**-6, 2.0**10, 4097)
    rel = np.abs(_plain(approx.sec_rsqrt, x) * np.sqrt(x) - 1.0)
    assert rel.max() <= 1e-2


def test_log_contract():
    x = np.geomspace(2.0**-6, 2.0**6, 4097)
    assert np.abs(_plain(approx.sec_log, x) - np.log(x)).max() <= 2e-2


@pytest.fixture(scope="module")
def rt():
    with LocalRuntime() as runtime:
        yield runtime


def test_secure_silu_sample(rt):
    # the secure path (gtz and mux on shares) meets the same contract
    x = np.concatenate([[-16.0, -1.0, 0.0, 1.0, 16.0], np.random.default_rng(7).uniform(-16, 16, 59)])
    xw = encode(x, CFG)

    def fn(ctx):
        xs = share_input(ctx.przs, xw if ctx.role is Role.P0 else None, Role.P0, xw.shape)
        return reveal(ctx.session, approx.sec_silu(SecureEngine(ctx), xs))

    got = decode(rt.run_session(fn, fn, cfg=CFG)[Role.P0], CFG)
    assert np.abs(got - x * _sigmoid(x)).max() <= 2e-2
