"""Trusted dealer: pre-generated correlated randomness for the online phase.

The dealer derives every element deterministically from its master seed and
the (session, index) of the request, so serving is idempotent and the halves
handed to P0 and P1 are consistent without dealer-side state. Each request
derives only the half it serves: P0's half is the first draws of the
request's stream, and P1's is the secret correlation minus P0's half. The
dealer retains nothing after a send. Dealer traffic rides the transport
layer under tags TRIPLE_REQ / TRIPLE_RSP / BITPAIR_RSP and is accounted
separately from the party-to-party transcript.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from .ring import ConvGeometry, RingTensor, ShapeMismatch, conv2d_ring, matmul_ring, zeros
from .sharing import Prg, bytes_to_words, fresh_seed, words_to_bytes
from .transport import Fabric, Message, PeerDisconnected, Role, Session, SessionTimeout

TAG_REQ = "TRIPLE_REQ"
TAG_TRIPLE_RSP = "TRIPLE_RSP"
TAG_BITPAIR_RSP = "BITPAIR_RSP"

PAIR_KINDS = ("bitpair", "maskpair")  # dealt as BitPairs


class DealerError(Exception):
    pass


class RandomnessExhausted(DealerError):
    """More correlated randomness consumed than dealt."""


@dataclass(frozen=True)
class TripleSpec:
    """What a single dealing request asks for.

    kind: 'arith' | 'bool' (elementwise, shape applies to a, b, c),
          'conv'  (a: input shape, b: kernel shape, c = ring conv),
          'matmul' (a: (m,k), b: (k,n), c = a @ b),
          'bitpair' (one uniform bit per element of shape),
          'maskpair' (one uniform 64-bit word per element of shape: the
                      a2b mask).
    """

    kind: str
    shape: tuple
    geom: ConvGeometry | None = None
    mat: tuple | None = None  # (m, k, n)

    def to_wire(self, index: int) -> bytes:
        body = {"index": index, "kind": self.kind, "shape": list(self.shape)}
        if self.geom is not None:
            g = self.geom
            body["geom"] = [g.in_channels, g.out_channels, g.kernel_h, g.kernel_w, g.stride, g.padding]
        if self.mat is not None:
            body["mat"] = list(self.mat)
        return json.dumps(body, separators=(",", ":")).encode()

    @staticmethod
    def from_wire(payload: bytes) -> tuple:
        body = json.loads(payload.decode())
        geom = ConvGeometry(*body["geom"]) if "geom" in body else None
        mat = tuple(body["mat"]) if "mat" in body else None
        return body["index"], TripleSpec(body["kind"], tuple(body["shape"]), geom, mat)

    def part_shapes(self) -> tuple:
        """(a_shape, b_shape, c_shape) for the correlation."""
        if self.kind in ("arith", "bool"):
            return self.shape, self.shape, self.shape
        if self.kind == "conv":
            g = self.geom
            oh, ow = g.out_hw(self.shape[1], self.shape[2])
            return self.shape, g.weight_shape(), (g.out_channels, oh, ow)
        if self.kind == "matmul":
            m, k, n = self.mat
            return (m, k), (k, n), (m, n)
        if self.kind in PAIR_KINDS:
            return self.shape, self.shape, None
        raise DealerError(f"unknown kind {self.kind}")


@dataclass
class Triple:
    """One party's halves of (a, b, c)."""

    a: RingTensor
    b: RingTensor
    c: RingTensor


@dataclass
class BitPairs:
    """One party's halves of a random r (bits or words): additive share and
    XOR share agree on r."""

    arith: RingTensor
    bin: RingTensor


def derive_correlation(master_seed: bytes, session_id: int, index: int, spec: TripleSpec, role: Role):
    """`role`'s half of the correlation at (session, index), derived
    deterministically. P0's half is the first draws of the stream, so serving
    P0 costs only those; P1's half redraws it and subtracts it (XORs, for
    'bool') from the full correlation, which only P1's derivation computes."""
    prg = Prg(master_seed, f"deal:{session_id}:{index}".encode())
    if spec.kind in PAIR_KINDS:
        a0 = prg.draw_words(spec.shape)
        m0 = prg.draw_words(spec.shape)
        if role is Role.P0:
            return BitPairs(a0, m0)
        r = prg.draw_words(spec.shape) if spec.kind == "maskpair" else prg.draw_bits(spec.shape)
        return BitPairs(r - a0, r ^ m0)
    a_shape, b_shape, c_shape = spec.part_shapes()
    a0 = prg.draw_words(a_shape)
    b0 = prg.draw_words(b_shape)
    c0 = prg.draw_words(c_shape)
    if role is Role.P0:
        return Triple(a0, b0, c0)
    a = prg.draw_words(a_shape)
    b = prg.draw_words(b_shape)
    if spec.kind == "bool":
        return Triple(a ^ a0, b ^ b0, (a & b) ^ c0)
    if spec.kind == "arith":
        c = a * b
    elif spec.kind == "conv":
        c = conv2d_ring(a, b, spec.geom)
    else:
        c = matmul_ring(a, b)
    return Triple(a - a0, b - b0, c - c0)


def _pack_triple(t: Triple) -> bytes:
    return words_to_bytes(t.a) + words_to_bytes(t.b) + words_to_bytes(t.c)


def _unpack_triple(payload: bytes, spec: TripleSpec) -> Triple:
    a_shape, b_shape, c_shape = spec.part_shapes()
    na, nb = int(np.prod(a_shape)), int(np.prod(b_shape))
    a = bytes_to_words(payload[: 8 * na], a_shape)
    b = bytes_to_words(payload[8 * na : 8 * (na + nb)], b_shape)
    c = bytes_to_words(payload[8 * (na + nb) :], c_shape)
    return Triple(a, b, c)


def _pack_bitpairs(p: BitPairs) -> bytes:
    return words_to_bytes(p.arith) + words_to_bytes(p.bin)


def _unpack_bitpairs(payload: bytes, spec: TripleSpec) -> BitPairs:
    n = int(np.prod(spec.shape))
    return BitPairs(
        bytes_to_words(payload[: 8 * n], spec.shape),
        bytes_to_words(payload[8 * n :], spec.shape),
    )


class DealerService:
    """Serves both parties; one server thread per party connection."""

    def __init__(self, fabric: Fabric, master_seed: bytes | None = None):
        self.fabric = fabric
        self.master_seed = master_seed or fresh_seed()
        self._send_seq: dict = {}
        self._seq_lock = threading.Lock()
        self._served: dict = {}  # (role, sid, index) -> count, for re-request audit
        self._stop = threading.Event()
        self._threads = []

    def start(self):
        for role in (Role.P0, Role.P1):
            t = threading.Thread(target=self._serve_party, args=(role,), daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self):
        self._stop.set()

    def _next_seq(self, role: Role, sid: int) -> int:
        with self._seq_lock:
            key = (role, sid)
            s = self._send_seq.get(key, 0)
            self._send_seq[key] = s + 1
            return s

    def _serve_party(self, role: Role):
        while not self._stop.is_set():
            try:
                msg = self.fabric.recv_any(role, timeout=0.2)
            except SessionTimeout:
                continue
            except PeerDisconnected:
                return
            index, spec = TripleSpec.from_wire(msg.payload)
            key = (role, msg.session_id, index)
            self._served[key] = self._served.get(key, 0) + 1
            half = derive_correlation(self.master_seed, msg.session_id, index, spec, role)
            if spec.kind in PAIR_KINDS:
                tag, payload = TAG_BITPAIR_RSP, _pack_bitpairs(half)
            else:
                tag, payload = TAG_TRIPLE_RSP, _pack_triple(half)
            self.fabric.send(role, Message(msg.session_id, self._next_seq(role, msg.session_id), tag, payload))

    def rerequest_count(self) -> int:
        return sum(v - 1 for v in self._served.values() if v > 1)


class TripleSource:
    """Party-side view of the dealer for one session.

    inline mode fetches on demand; pre-deal mode fetches the whole plan before
    the online phase and afterwards audits exact consumption.
    """

    def __init__(self, session: Session):
        self.session = session
        self.next_index = 0
        self.mode = "inline"
        self._queue: list = []
        self._plan: list = []
        self.rerequests = 0
        self.requests_made: list = []

    # -- wire --

    def _fetch(self, spec: TripleSpec):
        index = self.next_index
        self.next_index += 1
        self.requests_made.append(spec)
        self.session.send_to_dealer(TAG_REQ, spec.to_wire(index))
        if spec.kind in PAIR_KINDS:
            return _unpack_bitpairs(self.session.recv_from_dealer(TAG_BITPAIR_RSP), spec)
        return _unpack_triple(self.session.recv_from_dealer(TAG_TRIPLE_RSP), spec)

    # -- modes --

    def pre_deal(self, plan: list):
        """Fetch every planned correlation now; the online phase just pops."""
        self.mode = "pre-dealt"
        self._plan = list(plan)
        self._queue = [(spec, self._fetch(spec)) for spec in plan]

    def take(self, spec: TripleSpec):
        if self.mode == "inline":
            return self._fetch(spec)
        if not self._queue:
            # a well-planned run never gets here; fall back is a re-request
            self.rerequests += 1
            raise RandomnessExhausted(f"budget exhausted at request {spec}")
        queued_spec, value = self._queue.pop(0)
        if queued_spec != spec:
            raise ShapeMismatch(f"dealt {queued_spec} but consuming {spec}")
        return value

    # -- convenience constructors --

    def arith(self, shape) -> Triple:
        return self.take(TripleSpec("arith", tuple(shape)))

    def bool_(self, shape) -> Triple:
        return self.take(TripleSpec("bool", tuple(shape)))

    def conv(self, x_shape, geom: ConvGeometry) -> Triple:
        return self.take(TripleSpec("conv", tuple(x_shape), geom=geom))

    def matmul(self, m: int, k: int, n: int) -> Triple:
        return self.take(TripleSpec("matmul", (m, k), mat=(m, k, n)))

    def bitpairs(self, shape) -> BitPairs:
        return self.take(TripleSpec("bitpair", tuple(shape)))

    def maskpairs(self, shape) -> BitPairs:
        return self.take(TripleSpec("maskpair", tuple(shape)))

    def audit(self) -> dict:
        """Post-run budget audit for pre-dealt mode."""
        return {
            "mode": self.mode,
            "leftovers": len(self._queue),
            "rerequests": self.rerequests,
            "consumed": self.next_index,
        }


class PlanningSource(TripleSource):
    """Dry-run collector: records the request sequence, returns zero-valued
    correlations (a=b=c=0 is a valid triple, r=0 a valid pair), touches no
    channel."""

    def __init__(self):
        super().__init__(session=None)
        self.mode = "planning"

    def take(self, spec: TripleSpec):
        self.next_index += 1
        self.requests_made.append(spec)
        a_shape, b_shape, c_shape = spec.part_shapes()
        if spec.kind in PAIR_KINDS:
            return BitPairs(zeros(a_shape), zeros(b_shape))
        return Triple(zeros(a_shape), zeros(b_shape), zeros(c_shape))
