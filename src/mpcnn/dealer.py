"""Trusted dealer: correlated randomness for the online phase, dealt by seeds.

This is the trusted-third-party provider of CrypTen (Knott et al., NeurIPS
2021). The dealer gives each party one 32-byte seed per session,
PRG(master_seed, "seed:{session}:{role}"), and each party expands its share
of correlation i from PRG(seed, "deal:{i}"). P1 expands its whole half and
never asks the dealer again. P0 expands all of its half but the corrected
part: the product share c0 of a triple, the arithmetic half a0 of a mask
pair, or the arithmetic shares of r and of a*r of a select correlation. It
asks for those corrections by index and spec, one dealer round trip per
request, and one request may carry several specs at consecutive indices
(gtz asks for its mask pair and all of its AND levels' triples at once). A
correction is masked by P1's expansion, which P0 cannot compute without
P1's seed.

The linear-layer kinds ('conv', 'matmul') are held correlations: P1 holds
the weight in the clear, so only P0's input is masked there. P0 expands the
input-shaped mask a0 alone and P1 the weight-shaped mask b and the
output-shaped c1; P0's correction is c0 = f(a0, b) - c1. Neither party gets
an a1 or a b0, and no weight-shaped tensor is ever dealt to P0.

The 'select' kind is the dealer's form of ABY3's bit injection
(Mohassel-Rindal, CCS 2018): a uniform word a, additively shared, a uniform
bit r, XOR-shared, and additive shares of r and of a*r, so that x*b for a
XOR-shared bit b costs one opening (see `arith.select`).

The dealer keeps no correlation state: it derives each correction from its
master seed and the (session, index) of the request, so serving is
idempotent. It remembers only which (session, role, index) it has served,
to count re-requests. It answers each request once, under the request's
own seq, so only the parties' sessions number dealer traffic. A request it
cannot serve is answered at once on an error tag, which the party's source
raises as `DealerError`; so is any request of P1's for corrections. Dealer
traffic rides the transport layer under tags TRIPLE_REQ / SEED_RSP /
TRIPLE_RSP / DEALER_ERR and is accounted separately from the party-to-party
transcript.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from .ring import ConvGeometry, RingTensor, conv2d_ring, matmul_ring
from .sharing import SEED_BYTES, Prg, bytes_to_words, fresh_seed, words_to_bytes
from .transport import SERVICE, DealerError, Fabric, Message, PeerDisconnected, Role, Session, SessionTimeout, tag_hash

TAG_REQ = "TRIPLE_REQ"  # an empty request asks for the session seed
TAG_SEED_RSP = "SEED_RSP"
TAG_TRIPLE_RSP = "TRIPLE_RSP"  # the corrections of one request, in spec order
TAG_ERROR_RSP = "DEALER_ERR"  # a refused request; the payload says why

HELD_KINDS = ("conv", "matmul")  # dealt as HeldTriples
SEED_INDEX = -1  # the seed request's place in the dealer's re-request audit
POLL_S = 0.2  # how often a service thread looks for `stop`


class RandomnessReused(DealerError):
    """A correlation index expanded a second time."""


@dataclass(frozen=True)
class TripleSpec:
    """What one correlation is.

    kind: 'arith' | 'bool' (elementwise, shape applies to a, b, c),
          'conv'  (held: a0 input shape at P0, b kernel shape at P1,
                   c0 + c1 = ring conv of a0 by b),
          'matmul' (held: a0 (m,k) at P0, b (k,n) at P1, c0 + c1 = a0 @ b),
          'maskpair' (one uniform 64-bit word per element of shape, in an
                      additive and a XOR sharing: the a2b and gtz mask),
          'select' (per element of shape a uniform word a, additively
                    shared, a uniform bit r, XOR-shared, and additive
                    shares of r and of a*r).
    """

    kind: str
    shape: tuple
    geom: ConvGeometry | None = None
    mat: tuple | None = None  # (m, k, n)

    def to_json(self) -> dict:
        body = {"kind": self.kind, "shape": list(self.shape)}
        if self.geom is not None:
            g = self.geom
            body["geom"] = [g.in_channels, g.out_channels, g.kernel_h, g.kernel_w, g.stride, g.padding]
        if self.mat is not None:
            body["mat"] = list(self.mat)
        return body

    @staticmethod
    def from_json(body: dict) -> "TripleSpec":
        geom = ConvGeometry(*body["geom"]) if "geom" in body else None
        mat = tuple(body["mat"]) if "mat" in body else None
        return TripleSpec(body["kind"], tuple(body["shape"]), geom, mat)

    def part_shapes(self) -> tuple:
        """(a_shape, b_shape, c_shape) for a triple or held correlation."""
        if self.kind in ("arith", "bool"):
            return self.shape, self.shape, self.shape
        if self.kind == "conv":
            g = self.geom
            oh, ow = g.out_hw(self.shape[1], self.shape[2])
            return self.shape, g.weight_shape(), (g.out_channels, oh, ow)
        if self.kind == "matmul":
            m, k, n = self.mat
            return (m, k), (k, n), (m, n)
        raise DealerError(f"{self.kind!r} is not a triple kind")

    def correction_shapes(self) -> tuple:
        """The shapes of P0's corrections, in the order the dealer sends them."""
        if self.kind == "select":
            return self.shape, self.shape
        if self.kind == "maskpair":
            return (self.shape,)
        return (self.part_shapes()[2],)


def encode_request(first: int, specs: list) -> bytes:
    """P0's request for the corrections of `specs` at indices first, first + 1, ..."""
    return json.dumps({"index": first, "specs": [s.to_json() for s in specs]}, separators=(",", ":")).encode()


def decode_request(payload: bytes) -> tuple:
    """(first index, specs) of a request."""
    body = json.loads(payload.decode())
    first = body["index"]
    if type(first) is not int or first < 0:
        raise ValueError(f"bad index {first!r}")
    return first, [TripleSpec.from_json(s) for s in body["specs"]]


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
class MaskPairs:
    """One party's halves of a uniform word r per element: the XOR share and
    the additive share agree on r."""

    bin: RingTensor
    arith: RingTensor


@dataclass
class SelectTriple:
    """One party's half of a select correlation: an additive share `a` of a
    uniform word, a XOR share `r_bin` (0/1 words) of a uniform bit r, and
    additive shares `r` of r and `ar` of a*r."""

    a: RingTensor
    r_bin: RingTensor
    r: RingTensor
    ar: RingTensor


HALVES = {"arith": Triple, "bool": Triple, "conv": HeldTriple, "matmul": HeldTriple,
          "maskpair": MaskPairs, "select": SelectTriple}


def session_seed(master_seed: bytes, session_id: int, role: Role) -> bytes:
    """`role`'s 32-byte seed for one session."""
    return Prg(master_seed, f"seed:{session_id}:{role.name}".encode()).draw_bytes(SEED_BYTES)


def expand(seed: bytes, index: int, spec: TripleSpec, role: Role) -> tuple:
    """The parts of correlation `index` that `role` expands from its session
    seed, in the field order of its half. P1 gets its whole half: (a1, b1,
    c1), (b, c1) for a held kind, (m1, a1) for a mask pair or (a1, r1, rho1,
    c1) for a select. P0 gets its half but the corrected parts: (a0, b0),
    (a0,), (m0,) or (a0, r0)."""
    prg = Prg(seed, f"deal:{index}".encode())
    if spec.kind == "maskpair":
        m = prg.draw_words(spec.shape)
        return (m,) if role is Role.P0 else (m, prg.draw_words(spec.shape))
    if spec.kind == "select":
        a, r = prg.draw_words(spec.shape), prg.draw_bits(spec.shape)
        return (a, r) if role is Role.P0 else (a, r, prg.draw_words(spec.shape), prg.draw_words(spec.shape))
    a_shape, b_shape, c_shape = spec.part_shapes()
    if spec.kind in HELD_KINDS:
        if role is Role.P0:
            return (prg.draw_words(a_shape),)
        return prg.draw_words(b_shape), prg.draw_words(c_shape)
    parts = prg.draw_words(a_shape), prg.draw_words(b_shape)
    return parts if role is Role.P0 else parts + (prg.draw_words(c_shape),)


def derive_correlation(master_seed: bytes, session_id: int, index: int, spec: TripleSpec) -> RingTensor:
    """P0's corrections for correlation `index` of a session, derived
    deterministically from both parties' expansions: c0 = a * b - c1 with
    a = a0 + a1 and b = b0 + b1 for 'arith', c0 = (a & b) ^ c1 with XOR
    halves for 'bool', c0 = f(a0, b) - c1 for a held kind,
    a0 = (m0 ^ m1) - a1 for a mask pair, and for a select rho0 = r - rho1
    and c0 = a * r - c1 with r = r0 ^ r1, stacked in that order."""
    mine = expand(session_seed(master_seed, session_id, Role.P0), index, spec, Role.P0)
    theirs = expand(session_seed(master_seed, session_id, Role.P1), index, spec, Role.P1)
    if spec.kind == "maskpair":
        (m0,), (m1, a1) = mine, theirs
        return (m0 ^ m1) - a1
    if spec.kind == "select":
        (a0, r0), (a1, r1, rho1, c1) = mine, theirs
        r = r0 ^ r1
        return RingTensor(np.stack([(r - rho1).data, ((a0 + a1) * r - c1).data]))
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

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.master_seed = fresh_seed()
        self._lock = threading.Lock()
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
        """Stop serving and join the service threads, which see the stop
        within one POLL_S of finishing the request in hand."""
        self._stop.set()
        for t in self._threads:
            t.join()

    def _note_served(self, role: Role, sid: int, indices):
        """Records the indices one request served, counting re-requests."""
        with self._lock:
            served = self._served.setdefault(sid, set())
            for index in indices:
                if (role, index) in served:
                    self._rerequests += 1
                served.add((role, index))

    def _answer(self, role: Role, payload: bytes, sid: int) -> tuple:
        """(indices served, response tag, response payload) for one request."""
        if not payload:
            return (SEED_INDEX,), TAG_SEED_RSP, session_seed(self.master_seed, sid, role)
        if role is Role.P1:  # P0's corrections would unmask P1's half
            return (), TAG_ERROR_RSP, b"P1 expands its whole half and gets no corrections"
        try:
            first, specs = decode_request(payload)
            corrs = b"".join(words_to_bytes(derive_correlation(self.master_seed, sid, first + i, spec))
                             for i, spec in enumerate(specs))
        except Exception as e:  # any request P0 can send must be answered, or P0 waits out its timeout
            return (), TAG_ERROR_RSP, f"{type(e).__name__}: {e}".encode()
        return range(first, first + len(specs)), TAG_TRIPLE_RSP, corrs

    def _serve_party(self, role: Role):
        while not self._stop.is_set():
            try:
                msg = self.fabric.recv(role, SERVICE, timeout=POLL_S)
            except SessionTimeout:
                continue
            except PeerDisconnected:
                return
            indices, tag, payload = self._answer(role, msg.payload, msg.session_id)
            self._note_served(role, msg.session_id, indices)
            try:
                self.fabric.send(role, Message(msg.session_id, msg.seq, tag_hash(tag), payload))
            except (PeerDisconnected, SessionTimeout):
                return

    def rerequest_count(self) -> int:
        """Re-requests seen since the service started; never decreases."""
        return self._rerequests

    def release(self, session_id: int):
        """Forget a finished session; its re-requests stay counted."""
        with self._lock:
            self._served.pop(session_id, None)


class TripleSource:
    """Party-side view of the dealer for one session.

    Making the source sends the request for this party's session seed;
    `seed()` reads the answer, so other set-up can run in between. P1
    expands every correlation from its seed and sends nothing more. P0
    expands all but the corrected parts of each and receives the
    corrections of one `take_many` in one dealer round trip, or a
    `DealerError` at once if the dealer refuses the request. Each
    correlation comes back as the half class of its kind (`HALVES`). The
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

    def take_many(self, specs: list) -> list:
        """Correlations for `specs`, at consecutive indices."""
        try:
            halves = [HALVES[spec.kind] for spec in specs]
        except KeyError as e:
            raise DealerError(f"unknown kind {e}") from None
        first = self.next_index
        self.next_index += len(specs)
        indexed = list(enumerate(specs, first))
        role = self.session.role
        if role is Role.P1:
            if first <= self._expanded:
                raise RandomnessReused(f"index {first} after {self._expanded} was already expanded")
            self._expanded = self.next_index - 1
            return [half(*expand(self.seed(), i, spec, role)) for half, (i, spec) in zip(halves, indexed)]
        self.session.send_to_dealer(TAG_REQ, encode_request(first, specs))
        parts = [expand(self.seed(), i, spec, role) for i, spec in indexed]  # while the dealer derives
        got = self.session.recv_from_dealer(TAG_TRIPLE_RSP, error_tag=TAG_ERROR_RSP)
        want = sum(8 * int(np.prod(shape)) for spec in specs for shape in spec.correction_shapes())
        if len(got) != want:
            raise DealerError(f"{len(got)} correction bytes for a request of {want}")
        out, off = [], 0
        for half, mine, spec in zip(halves, parts, specs):
            corrs = []
            for shape in spec.correction_shapes():
                n = 8 * int(np.prod(shape))
                corrs.append(bytes_to_words(got[off : off + n], shape))
                off += n
            out.append(half(*mine, *corrs))
        return out

    def take(self, spec: TripleSpec):
        return self.take_many([spec])[0]

    # -- convenience constructors --

    def arith(self, shape) -> Triple:
        return self.take(TripleSpec("arith", tuple(shape)))

    def bool_(self, shape) -> Triple:
        return self.take(TripleSpec("bool", tuple(shape)))

    def conv(self, x_shape, geom: ConvGeometry) -> HeldTriple:
        return self.take(TripleSpec("conv", tuple(x_shape), geom=geom))

    def matmul(self, m: int, k: int, n: int) -> HeldTriple:
        return self.take(TripleSpec("matmul", (m, k), mat=(m, k, n)))

    def maskpairs(self, shape) -> MaskPairs:
        return self.take(TripleSpec("maskpair", tuple(shape)))

    def select(self, shape) -> SelectTriple:
        return self.take(TripleSpec("select", tuple(shape)))
