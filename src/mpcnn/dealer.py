"""Trusted dealer: correlated randomness for the online phase, dealt by seeds.

This is the trusted-third-party provider of CrypTen (Knott et al., NeurIPS
2021). The dealer gives each party one 32-byte seed per session,
PRG(master_seed, "seed:{session}:{role}"), and each party expands its share
of correlation i from PRG(seed, "deal:{i}"). P1 expands its whole half and
never asks the dealer again. P0 expands all of its half but one part: the
product share c0 of a triple, or the arithmetic half a0 of a pair. It asks
for that part, the correction, by index and spec, one round trip per
request. A correction is masked by P1's expansion (c1 or a1), which P0
cannot compute without P1's seed.

The linear-layer kinds ('conv', 'matmul') are held correlations: P1 holds
the weight in the clear, so only P0's input is masked there. P0 expands the
input-shaped mask a0 alone and P1 the weight-shaped mask b and the
output-shaped c1; P0's correction is c0 = f(a0, b) - c1. Neither party gets
an a1 or a b0, and no weight-shaped tensor is ever dealt to P0.

The dealer keeps no correlation state: it derives each correction from its
master seed and the (session, index) of the request, so serving is
idempotent. It remembers only which (session, role, index) it has served,
to count re-requests. Dealer traffic rides the transport layer under tags
TRIPLE_REQ / SEED_RSP / TRIPLE_RSP / BITPAIR_RSP and is accounted separately
from the party-to-party transcript.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from .ring import ConvGeometry, RingTensor, conv2d_ring, matmul_ring
from .sharing import SEED_BYTES, Prg, bytes_to_words, fresh_seed, words_to_bytes
from .transport import Fabric, Message, PeerDisconnected, Role, Session, SessionTimeout

TAG_REQ = "TRIPLE_REQ"  # an empty request asks for the session seed
TAG_SEED_RSP = "SEED_RSP"
TAG_TRIPLE_RSP = "TRIPLE_RSP"
TAG_BITPAIR_RSP = "BITPAIR_RSP"

PAIR_KINDS = ("bitpair", "maskpair")  # dealt as BitPairs
HELD_KINDS = ("conv", "matmul")  # dealt as HeldTriples
SEED_INDEX = -1  # the seed request's place in the dealer's re-request audit


class DealerError(Exception):
    pass


class RandomnessReused(DealerError):
    """A correlation index expanded a second time."""


@dataclass(frozen=True)
class TripleSpec:
    """What a single dealing request asks for.

    kind: 'arith' | 'bool' (elementwise, shape applies to a, b, c),
          'conv'  (held: a0 input shape at P0, b kernel shape at P1,
                   c0 + c1 = ring conv of a0 by b),
          'matmul' (held: a0 (m,k) at P0, b (k,n) at P1, c0 + c1 = a0 @ b),
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
class HeldTriple:
    """One party's half of a held correlation: `mask` is a0 (input-shaped)
    at P0 and b (weight-shaped) at P1, and c0 + c1 = f(a0, b)."""

    mask: RingTensor
    c: RingTensor


@dataclass
class BitPairs:
    """One party's halves of a random r (bits or words): additive share and
    XOR share agree on r."""

    arith: RingTensor
    bin: RingTensor


def session_seed(master_seed: bytes, session_id: int, role: Role) -> bytes:
    """`role`'s 32-byte seed for one session."""
    return Prg(master_seed, f"seed:{session_id}:{role.name}".encode()).draw_bytes(SEED_BYTES)


def expand(seed: bytes, index: int, spec: TripleSpec, role: Role) -> tuple:
    """The parts of correlation `index` that `role` expands from its session
    seed. P1 gets its whole half: (a1, b1, c1), (a1, m1) for a pair, or
    (b, c1) for a held kind. P0 gets its half but the corrected part:
    (a0, b0), (m0,) for a pair, or (a0,) for a held kind. An XOR half is a
    word for 'maskpair' and a bit for 'bitpair'."""
    prg = Prg(seed, f"deal:{index}".encode())
    if spec.kind in PAIR_KINDS:
        draw_xor = prg.draw_words if spec.kind == "maskpair" else prg.draw_bits
        if role is Role.P0:
            return (draw_xor(spec.shape),)
        return prg.draw_words(spec.shape), draw_xor(spec.shape)
    a_shape, b_shape, c_shape = spec.part_shapes()
    if spec.kind in HELD_KINDS:
        if role is Role.P0:
            return (prg.draw_words(a_shape),)
        return prg.draw_words(b_shape), prg.draw_words(c_shape)
    parts = prg.draw_words(a_shape), prg.draw_words(b_shape)
    return parts if role is Role.P0 else parts + (prg.draw_words(c_shape),)


def derive_correlation(master_seed: bytes, session_id: int, index: int, spec: TripleSpec) -> RingTensor:
    """P0's correction for correlation `index` of a session, derived
    deterministically from both parties' expansions: c0 = a * b - c1 with
    a = a0 + a1 and b = b0 + b1 for 'arith', c0 = (a & b) ^ c1 with XOR
    halves for 'bool', c0 = f(a0, b) - c1 for a held kind, or
    a0 = (m0 ^ m1) - a1 for a pair."""
    mine = expand(session_seed(master_seed, session_id, Role.P0), index, spec, Role.P0)
    theirs = expand(session_seed(master_seed, session_id, Role.P1), index, spec, Role.P1)
    if spec.kind in PAIR_KINDS:
        (m0,), (a1, m1) = mine, theirs
        return (m0 ^ m1) - a1
    if spec.kind in HELD_KINDS:
        (a0,), (b, c1) = mine, theirs
        c = conv2d_ring(a0, b, spec.geom) if spec.kind == "conv" else matmul_ring(a0, b)
        return c - c1
    (a0, b0), (a1, b1, c1) = mine, theirs
    if spec.kind == "bool":
        return ((a0 ^ a1) & (b0 ^ b1)) ^ c1
    return (a0 + a1) * (b0 + b1) - c1


class DealerService:
    """Serves both parties; one server thread per party connection."""

    def __init__(self, fabric: Fabric, master_seed: bytes | None = None):
        self.fabric = fabric
        self.master_seed = master_seed or fresh_seed()
        self._lock = threading.Lock()
        self._send_seq: dict = {}  # (role, sid) -> next response seq
        self._served: dict = {}  # sid -> {(role, index)} served, for the re-request audit
        self._rerequests = 0
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

    def _note_served(self, role: Role, sid: int, index: int) -> int:
        """Records the request and returns the response's seq."""
        with self._lock:
            served = self._served.setdefault(sid, set())
            if (role, index) in served:
                self._rerequests += 1
            served.add((role, index))
            seq = self._send_seq.get((role, sid), 0)
            self._send_seq[(role, sid)] = seq + 1
            return seq

    def _serve_party(self, role: Role):
        while not self._stop.is_set():
            try:
                msg = self.fabric.recv_any(role, timeout=0.2)
            except SessionTimeout:
                continue
            except PeerDisconnected:
                return
            sid = msg.session_id
            if not msg.payload:
                index, tag, payload = SEED_INDEX, TAG_SEED_RSP, session_seed(self.master_seed, sid, role)
            elif role is Role.P0:
                try:
                    index, spec = TripleSpec.from_wire(msg.payload)
                    corr = derive_correlation(self.master_seed, sid, index, spec)
                except (ValueError, KeyError, TypeError, DealerError):
                    continue  # a malformed request goes unanswered; other sessions are still served
                tag = TAG_BITPAIR_RSP if spec.kind in PAIR_KINDS else TAG_TRIPLE_RSP
                payload = words_to_bytes(corr)
            else:
                continue  # P0's corrections would unmask P1's half; P1 never asks for them
            self.fabric.send(role, Message(sid, self._note_served(role, sid, index), tag, payload))

    def rerequest_count(self) -> int:
        """Re-requests seen since the service started; never decreases."""
        return self._rerequests

    def release(self, session_id: int):
        """Forget a finished session; its re-requests stay counted."""
        with self._lock:
            self._served.pop(session_id, None)
            for role in (Role.P0, Role.P1):
                self._send_seq.pop((role, session_id), None)


class TripleSource:
    """Party-side view of the dealer for one session.

    Making the source sends the request for this party's session seed;
    `seed()` reads the answer, so other set-up can run in between. P1
    expands every correlation from its seed and sends nothing more. P0
    expands all but one part of each and receives that part, the
    correction, in one dealer round trip per request. A pair comes back as
    `BitPairs`, a held kind as `HeldTriple` and any other as `Triple`. The
    dealer counts re-requests of P0's indices, but nobody sees P1's, so
    P1's source refuses to expand an index at or below one it has already
    used.
    """

    def __init__(self, session: Session):
        self.session = session
        self.next_index = 0
        self._seed = None
        self._expanded = -1  # highest index P1 has expanded
        session.send_to_dealer(TAG_REQ, b"")

    def seed(self) -> bytes:
        if self._seed is None:
            self._seed = self.session.recv_from_dealer(TAG_SEED_RSP)
        return self._seed

    def take(self, spec: TripleSpec):
        index = self.next_index
        self.next_index += 1
        role = self.session.role
        pair = spec.kind in PAIR_KINDS
        half = BitPairs if pair else HeldTriple if spec.kind in HELD_KINDS else Triple
        if role is Role.P1:
            if index <= self._expanded:
                raise RandomnessReused(f"index {index} after {self._expanded} was already expanded")
            self._expanded = index
            return half(*expand(self.seed(), index, spec, role))
        self.session.send_to_dealer(TAG_REQ, spec.to_wire(index))
        parts = expand(self.seed(), index, spec, role)  # while the dealer derives
        if pair:
            return BitPairs(bytes_to_words(self.session.recv_from_dealer(TAG_BITPAIR_RSP), spec.shape), *parts)
        c_shape = spec.part_shapes()[2]
        return half(*parts, bytes_to_words(self.session.recv_from_dealer(TAG_TRIPLE_RSP), c_shape))

    # -- convenience constructors --

    def arith(self, shape) -> Triple:
        return self.take(TripleSpec("arith", tuple(shape)))

    def bool_(self, shape) -> Triple:
        return self.take(TripleSpec("bool", tuple(shape)))

    def conv(self, x_shape, geom: ConvGeometry) -> HeldTriple:
        return self.take(TripleSpec("conv", tuple(x_shape), geom=geom))

    def matmul(self, m: int, k: int, n: int) -> HeldTriple:
        return self.take(TripleSpec("matmul", (m, k), mat=(m, k, n)))

    def bitpairs(self, shape) -> BitPairs:
        return self.take(TripleSpec("bitpair", tuple(shape)))

    def maskpairs(self, shape) -> BitPairs:
        return self.take(TripleSpec("maskpair", tuple(shape)))
