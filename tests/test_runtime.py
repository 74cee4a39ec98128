"""LocalRuntime: per-session state is freed, the benchmark's self-test, its
tracer's hooks, and one inference of each benchmark network end to end."""

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mpcnn import arith
from mpcnn.engine import PlainEngine
from mpcnn.ring import FixedPointConfig, RingTensor, encode
from mpcnn.dealer import DealerService
from mpcnn.runtime import LocalRuntime, establish, run_pair_raw
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import SERVICE, InProcFabric, Mailbox, PlanMismatch, Role, Session, TcpFabric

from conftest import free_port, inproc_with_dealer, tcp_with_dealer

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "securebench")


def one_mul(ctx):
    x = RingTensor(np.arange(4, dtype=np.uint64))
    xs = share_input(ctx.przs, x if ctx.role is Role.P0 else None, Role.P0, x.shape)
    return reveal(ctx.session, arith.beaver_mul(ctx, xs, xs))


class TestSessionRelease:
    def test_finished_sessions_leave_no_state(self):
        with LocalRuntime() as rt:
            for _ in range(200):
                out = rt.run_session(one_mul, one_mul)
                assert out[Role.P0] == RingTensor(np.arange(4, dtype=np.uint64) ** 2)
            sessions = {sid for sid, _, _ in rt.mailbox._queues}
            assert sessions <= {SERVICE}
            assert rt.dealer._served == {}

    def test_tcp_sessions_leave_no_mailbox_state(self):
        # nothing calls Mailbox.release over TCP: each get that drains its
        # queue drops it, so 50 sessions over one set of connections leave
        # no session's queue in any connection's mailbox
        host, p0_port, dealer_port = "127.0.0.1", free_port(), free_port()
        addrs = {Role.DEALER: dict(listen_addr=(host, dealer_port)),
                 Role.P0: dict(listen_addr=(host, p0_port), dealer_addr=(host, dealer_port)),
                 Role.P1: dict(peer_addr=(host, p0_port), dealer_addr=(host, dealer_port))}
        with ThreadPoolExecutor(3) as pool:
            fabs = dict(zip(addrs, pool.map(lambda role: TcpFabric(role, **addrs[role]), addrs)))
        svc = DealerService(fabs[Role.DEALER]).start()
        try:
            with ThreadPoolExecutor(2) as pool:
                for sid in range(1, 51):
                    out = list(pool.map(lambda role: one_mul(establish(Session(fabs[role], sid, role))),
                                        (Role.P0, Role.P1)))
                    assert out[0] == RingTensor(np.arange(4, dtype=np.uint64) ** 2)
            keys = [key for fab in fabs.values() for conn in fab._conns.values() for key in conn.mailbox._queues]
            assert {sid for sid, _, _ in keys} <= {SERVICE}
        finally:
            svc.stop()
            for fab in fabs.values():
                fab.close()

    def test_rerequest_counted_after_release(self):
        def rerequest(ctx):
            one_mul(ctx)
            if ctx.role is Role.P0:
                ctx.triples.next_index -= 1
                ctx.triples.arith((4,))

        with LocalRuntime() as rt:
            rt.run_session(rerequest, rerequest)
            assert rt.dealer._served == {}
            assert rt.dealer.rerequest_count() == 1
            rt.run_session(one_mul, one_mul)
            assert rt.dealer.rerequest_count() == 1

    def test_close_joins_dealer_threads(self):
        rt = LocalRuntime()
        rt.run_session(one_mul, one_mul)
        threads = list(rt.dealer._threads)
        rt.close()
        assert len(threads) == 2 and not any(t.is_alive() for t in threads)
        # with its fabric still open, a service stops within one 0.2 s poll
        svc = DealerService(InProcFabric(Mailbox(), Role.DEALER)).start()
        t0 = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert not any(t.is_alive() for t in svc._threads)


@pytest.mark.parametrize("dealer", [inproc_with_dealer, tcp_with_dealer], ids=["inproc", "tcp"])
@pytest.mark.parametrize("p1_cfg", [FixedPointConfig(frac_bits=15), FixedPointConfig(cmp_bits=63)],
                         ids=["frac_bits", "cmp_bits"])
def test_config_mismatch_raises_at_setup(dealer, p1_cfg):
    # P0 runs the default config and P1 another: both raise at set-up, and
    # no online byte has moved
    cfgs = {Role.P0: FixedPointConfig(), Role.P1: p1_cfg}

    def run(sess):
        try:
            return one_mul(establish(sess, cfgs[sess.role]))
        except PlanMismatch:
            return sess.transcript.counters()

    with dealer() as make_fabric:
        got = run_pair_raw(make_fabric, {Role.P0: run, Role.P1: run})
    assert got == {Role.P0: (0, 0, 0, ()), Role.P1: (0, 0, 0, ())}


def test_benchmark_selftest_passes():
    # every benchmark check, the dealer re-request check included, still trips
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def import_bench():
    """The benchmark's modules, imported read-only from its directory."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import infer
    import tracing

    return infer, tracing


def traced_metrics(model_name, runs):
    """Per-layer metrics and the tracer's problems over `runs` traced
    inferences of a benchmark network at seed 5, after one untraced
    inference warms the runtime."""
    infer, tracing = import_bench()
    prep = infer.prepare(model_name, seed=5)

    def party_fns():
        return (infer.party_fn(prep.model, x=prep.inputs[0]),
                infer.party_fn(prep.model, weights=prep.weights))

    tracer, walls = tracing.Tracer(), {}
    with LocalRuntime() as rt:
        rt.run_session(*party_fns())
        tracer.install()
        try:
            for _ in range(runs):
                sid = rt.new_session_id()
                t0 = time.perf_counter()
                rt.run_session(*map(tracer.party_root, party_fns()), session_id=sid)
                walls[sid] = (time.perf_counter() - t0) * 1e3
        finally:
            tracer.uninstall()
    return tracing.per_layer_metrics(tracing.aggregate(tracer.spans, walls), walls, walls)


def layer_counts(metrics, layers):
    kinds = ("rounds", "online_bytes", "dealer_bytes")
    return {layer: tuple(metrics[f"model.{layer}.{k}_per_inf"] for k in kinds) for layer in layers}


def test_tracer_hooks_resolve():
    # every name the benchmark's tracer wraps still exists, and traced
    # CompactCNN inferences reach them: their spans nest and cover the
    # inference, and the comparison op is seen. The tracer's coverage check
    # takes the median of three inferences, as a benchmark run does over many.
    metrics, problems = traced_metrics("compactcnn", 3)
    assert problems == []
    assert metrics["arith.gtz.calls_per_inf"] > 0
    # per-layer counts of one inference, as in test_compactcnn_inference_end_to_end:
    # online bytes are P0's sent plus received, and calls count both parties
    n, w = 32 * 321, -(-32 * 321 // 64)
    # codec bytes are wire bytes: every online byte is encoded by its sender
    # and decoded by its receiver, and so is every byte of P0's corrections
    # (TRIPLE_RSP), at the dealer and at P0; seeds bypass the codec
    online = 8 * (384 + 2048) + 2 * (gtz_bytes(n) + select_bytes(n)) + 8 * (32 + 64) + 16  # conv, relu, linear, output
    dealt = 8 * (n + 55 * w + 2 * n + 2) + 4 * n  # conv, gtz's ANDs, select, linear, gtz's 4 B mask
    assert (online, dealt) == (552_696, 358_472)
    assert metrics["sharing.codec_bytes_per_inf"] == 2 * online + 2 * dealt == 1_822_336
    # przs setup, conv, gtz's mask and 5 AND levels, select, linear
    assert metrics["transport.exchange_calls_per_inf"] == 2 * (1 + 1 + 1 + 5 + 1 + 1) == 20
    # gtz's openings run when the select reads its bit, inside the select's
    # call, and its AND levels are steps of the comparison, not and_gate calls
    assert metrics["arith.gtz.online_bytes_per_inf"] == 0
    assert metrics["arith.and_gate.calls_per_inf"] == metrics["arith.and_gate.online_bytes_per_inf"] == 0
    # dealer bytes are P0's corrections, gtz's mask in 4 B, plus its JSON
    # requests
    assert layer_counts(metrics, ("conv", "relu", "linear")) == {
        "conv": (1, 8 * (384 + 2048), 82_254),
        "relu": (7, 2 * (gtz_bytes(n) + select_bytes(n)), 276_571),
        "linear": (1, 8 * (32 + 64), 85)}
    assert metrics["model.relu.online_bytes_per_inf"] == 532_456
    # P0, P1 and the dealer each run the conv and the linear layer's product
    assert metrics["ring.calls_per_inf"] == 3 * 2 == 6
    assert metrics["ring.macs_per_inf"] == 3 * (32 * 64 * 321 + 32 * 2) == 1_972_416


def test_traced_detector_layers():
    # one traced detector inference: each SiLU layer takes 7 rounds (gtz's
    # mask and first 3 AND levels ride its 4 products), each max-pool level 7
    # and each conv 1, so the party exchanges fall by 8 each from the 42
    # rounds of comparisons run alone. SiLU's gtz mask and levels 1-3 land
    # in beaver_mul's calls and the max-pool levels' whole gtz in mux's
    metrics, _ = traced_metrics("detector", 1)
    assert metrics["approx.silu.rounds_per_inf"] == 14
    # przs setup, 5 convs, 4 + 2 + 1 per SiLU, 7 per max-pool level; the
    # reveal to P0 is no exchange
    assert metrics["transport.exchange_calls_per_inf"] == 2 * (1 + 5 + 2 * 7 + 2 * 7) == 68
    silu, lvl13 = 2 * 1024, sum(2 * h - 1 for h in (15, 8, 4))  # AND rows of levels 1-3 at 31 lanes
    assert metrics["arith.beaver_mul.online_bytes_per_inf"] == 2 * 2 * (
        16 * 8 * 1024 + 4 * silu + 2 * 8 * lvl13 * silu // 64) == 661_504
    assert metrics["arith.mux.online_bytes_per_inf"] == 2 * sum(
        gtz_bytes(n) + select_bytes(n) for n in (512, 256)) == 39_744
    assert metrics["arith.gtz.online_bytes_per_inf"] == 0
    # per-layer counts of one inference, as in test_detector_inference_end_to_end:
    # online bytes are P0's sent plus received. Dealer bytes are P0's
    # corrections (each conv's output-shaped c0; per gtz its 4 B mask and one
    # word per AND row of 64 elements; 2 words per select element and 1 per
    # product element) plus P0's JSON requests, each as long as its specs
    # and the digits of its index and shapes: a conv's 76-80 B; per SiLU
    # layer gtz's 229 B (its mask pair and 5 AND levels in one request),
    # then 4 products' and the select's 56-60 B; per max-pool level gtz's
    # 223 B and the select's 58 B
    conv = 8 * (4 * 16 * 16 + 16 * 8 * 8 + 256 * 4 * 4 + 96 * 8 * 8 + 8 * 8 * 8) + (76 + 78 + 79 + 80 + 77)
    silu_dealt = 2 * (4 * silu + 8 * 55 * silu // 64 + 8 * 2 * silu + 8 * 8 * 1024) + (
        (229 + 56 + 58 + 58 + 59 + 60) + (229 + 56 + 58 + 58 + 58 + 59))
    pool = sum(4 * n + 8 * 55 * n // 64 + 8 * 2 * n + (223 + 58) for n in (512, 256))
    assert (conv, silu_dealt, pool) == (102_790, 242_190, 21_202)
    assert layer_counts(metrics, ("conv", "silu", "maxpool")) == {
        "conv": (5, 223_232 + 2_186_592, conv),
        "silu": (2 * 7, 2 * 2 * (gtz_bytes(silu) + 16 * 8 * 1024 + select_bytes(silu)), silu_dealt),
        "maxpool": (2 * 7, 2 * sum(gtz_bytes(n) + select_bytes(n) for n in (512, 256)), pool)}
    # each of the 5 convs at P0, P1 and the dealer; a conv's MACs are its
    # output cells times C * kh * kw
    convs = [(4 * 16 * 16, 3 * 9), (16 * 8 * 8, 4 * 9), (256 * 4 * 4, 16 * 9), (96 * 8 * 8, 272 * 9),
             (8 * 8 * 8, 96)]  # c1, c2, c3, c4, head
    assert metrics["ring.calls_per_inf"] == 3 * len(convs) == 15
    assert metrics["ring.macs_per_inf"] == 3 * sum(cells * k for cells, k in convs) == 47_232_000


def one_benchmark_inference(model_name):
    """One inference of a benchmark network through LocalRuntime, with the
    benchmark's own preparation and checks, imported read-only. Returns
    (output, reference, bound, P0's ledger, check problems)."""
    infer, _ = import_bench()

    prep = infer.prepare(model_name, seed=5)
    ref, bound, _ = prep.refs[0]
    with LocalRuntime() as rt:
        res = rt.run_session(infer.party_fn(prep.model, x=prep.inputs[0]),
                             infer.party_fn(prep.model, weights=prep.weights))
        (out, led0), (_, led1) = res[Role.P0], res[Role.P1]
        problems, _ = infer.check(model_name, out, ref, bound, led0, led1, None, rt.dealer.rerequest_count())
    return out, ref, bound, led0, problems


def gtz_bytes(n):
    """Bytes one party sends in a gtz on n elements at the default domain
    cmp_bits = 31: the low 4 bytes of the masked word, and 55 bit-ANDs per
    element, bit-sliced 64 elements to a word, each opening two words."""
    return 4 * n + 2 * 8 * 55 * -(-n // 64)


def select_bytes(n):
    """Bytes one party sends in a select on n elements: the masked word and
    the masked bit, packed 8 per byte."""
    return 8 * n + -(-n // 8)


def tag_bytes(led0):
    return {tag: (sent, recv, phases) for tag, sent, recv, phases in led0["tags"]}


def test_detector_inference_end_to_end():
    # the output lies within the float64 reference's a-priori bound. Rounds:
    # 5 convs, 2 SiLU layers at 7 (t 1 and Chebyshev terms 3, carrying gtz's
    # mask and AND levels 1-3, then levels 4-5 and the select 3), 2 max-pool
    # levels at 7 (gtz 6, mux 1) and the reveal; every tag still counts one
    # phase per opening, so the phases add up to 42. Bytes: the five
    # convs move their input-shaped masks (223,232 B) from P0 and their
    # weight-shaped masks (2,186,592 B) from P1; each SiLU runs gtz and the
    # select on the 2 x 1,024 stacked [x + T, x - T] and 8 x 1,024 Beaver
    # products; the max-pool levels compare 512 and 256 pairs; P0 receives
    # the 8 x 8 x 8 head
    out, ref, bound, led0, problems = one_benchmark_inference("detector")
    silu = 2 * 1024
    assert tag_bytes(led0) == {
        "conv.open": (223_232, 2_186_592, 5),
        "gtz.mask": (4 * (2 * silu + 512 + 256),) * 2 + (4,),
        "gtz.and": (sum(gtz_bytes(n) - 4 * n for n in (silu, silu, 512, 256)),) * 2 + (20,),
        "mul.open": (2 * 16 * 8 * 1024,) * 2 + (8,),
        "select.open": (2 * select_bytes(silu),) * 2 + (2,),
        "mux.open": (select_bytes(512) + select_bytes(256),) * 2 + (2,),
        "reveal": (0, 8 * 512, 1),
    }
    assert led0["rounds"] == 5 + 2 * 7 + 2 * 7 + 1 == 34
    online = 223_232 + 2_186_592 + 2 * (2 * (gtz_bytes(silu) + 16 * 8 * 1024 + select_bytes(silu))
                                        + sum(gtz_bytes(n) + select_bytes(n) for n in (512, 256))) + 8 * 512
    assert led0["sent"] + led0["recv"] == online == 3_189_920
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)


def test_compactcnn_inference_end_to_end():
    # conv 1, ReLU 7 (gtz 6 on the 32 x 321 conv output, select 1), linear 1,
    # reveal 1; the conv and the linear layer move (384 + 32) words one way
    # and (2048 + 64) the other, and P0 receives the 2 logits
    out, ref, bound, led0, problems = one_benchmark_inference("compactcnn")
    n = 32 * 321
    assert tag_bytes(led0) == {
        "conv.open": (8 * 384, 8 * 2048, 1),
        "gtz.mask": (4 * n, 4 * n, 1),
        "gtz.and": (gtz_bytes(n) - 4 * n,) * 2 + (5,),
        "select.open": (select_bytes(n),) * 2 + (1,),
        "matmul.open": (8 * 32, 8 * 64, 1),
        "reveal": (0, 16, 1),
    }
    assert led0["rounds"] == 10
    online = 8 * (384 + 32 + 2048 + 64) + 2 * (gtz_bytes(n) + select_bytes(n)) + 16
    assert led0["sent"] + led0["recv"] == online == 552_696
    assert problems == []
    assert np.all(np.abs(out - ref) <= bound)


def test_comparison_inputs_stay_in_domain():
    # the plain oracle runs both benchmark networks over the input pools of
    # seeds 1, 3 and 5; the largest |x| entering any gtz stays below
    # 2^(cmp_bits - 8), at least 8 bits inside the comparison domain
    infer, _ = import_bench()
    cfg = FixedPointConfig()
    peak = {}

    class Recording(PlainEngine):
        def gtz(self, a):
            s = a.signed()
            peak[name] = max(peak[name], int(s.max()), -int(s.min()))
            return super().gtz(a)

    for name in ("compactcnn", "detector"):
        peak[name] = 0
        for seed in (1, 3, 5):
            prep = infer.prepare(name, seed=seed)
            params = {layer.name: {k: encode(v, cfg) for k, v in prep.weights[layer.name].items()}
                      for layer in prep.model.params}
            assert len(prep.inputs) == infer.POOL == 8
            for x in prep.inputs:
                prep.model.forward(Recording(cfg), encode(x, cfg), params)
    assert all(0 < p < 2 ** (cfg.cmp_bits - 8) for p in peak.values()), peak
