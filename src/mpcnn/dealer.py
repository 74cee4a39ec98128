"""Trusted dealer: correlated randomness for the online phase, dealt by seeds.

This is the trusted-third-party provider of CrypTen (Knott et al., NeurIPS
2021). The dealer gives each party one 32-byte seed per session,
PRG(master_seed, "seed:{session}:{role}"), and each party expands its share
of correlation i from PRG(seed, "deal:{i}"). P1 expands its whole half and
never asks the dealer again. P0 expands the leading fields of its half and
gets the rest, its corrections, from the dealer: the product share c0 of a
triple, the arithmetic half a0 of a mask pair, or the arithmetic shares of r
and of a*r of a select correlation. It asks for them by index and spec, one
dealer round trip per request, and one request may carry several specs at
consecutive indices (gtz and a2b each ask for their mask pair and all of
their AND levels' triples at once). A correction is masked by P1's
expansion, which P0 cannot compute without P1's seed. A spec may ask for
only the low `width` bits of its corrections, which the `sharing` codec
packs at that width: gtz reads its mask pair's arithmetic half only mod
2^(cmp_bits + 1), so it asks for 4 B per element at cmp_bits = 31.

Each kind is defined once, as one `Kind` row of `HALVES`: the names of the
fields of a half in draw order, the suffix of them that P0 receives, the
fields drawn as bits, the shape of each field at either role when it is not
the spec's, and the algebra by which the dealer derives P0's corrections.
The record a party gets is a namedtuple of the row's fields. `expand`,
`derive_correlation`, `TripleSpec.correction_shapes` and `TripleSource`
only read the row, so a new kind is one new row.

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
idempotent. To count re-requests it keeps one number per session and
role, the next index due: a party's indices only go up, from its seed
request (`SEED_INDEX`) on, so any index below it is asked for again. It
answers each request once, under the request's own seq, so only the
parties' sessions number dealer traffic. A request it cannot serve is
answered at once on transport's refusal tag DEALER_ERR, which every dealer
read raises as `DealerError`; so is any request of P1's for corrections.
Dealer traffic rides the transport layer under tags TRIPLE_REQ / SEED_RSP /
TRIPLE_RSP and is accounted separately from the party-to-party transcript.
"""

from __future__ import annotations

import json
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from .ring import WORD_BITS, ConvGeometry, conv2d_ring, matmul_ring
from .sharing import SEED_BYTES, Prg, bytes_to_words, fresh_seed, packed_len, words_to_bytes
from .transport import (SERVICE, TAG_DEALER_ERR, DealerError, Fabric, Message, PeerDisconnected, Role, Session,
                        SessionTimeout, tag_hash)

TAG_REQ = "TRIPLE_REQ"  # an empty request asks for the session seed
TAG_SEED_RSP = "SEED_RSP"
TAG_TRIPLE_RSP = "TRIPLE_RSP"  # the corrections of one request, in spec order

SEED_INDEX = -1  # the seed request's place in the dealer's re-request audit
POLL_S = 0.2  # how often a service thread looks for `stop`


class RandomnessReused(DealerError):
    """A correlation index expanded a second time."""


@dataclass(frozen=True)
class TripleSpec:
    """What one correlation is: `kind` names an entry of `HALVES`; a 'conv'
    also has its geometry (shape is the input's) and a 'matmul' its (m, k,
    n) (shape is (m, k)). P0 reads only the low `width` bits of its
    corrections (a multiple of 8), and the dealer sends only those."""

    kind: str
    shape: tuple
    geom: ConvGeometry | None = None
    mat: tuple | None = None  # (m, k, n)
    width: int = WORD_BITS

    def __post_init__(self):
        if self.width % 8 or not 8 <= self.width <= WORD_BITS:
            raise ValueError(f"correction width {self.width}: expected a multiple of 8 up to 64")

    def to_json(self) -> dict:
        body = {"kind": self.kind, "shape": list(self.shape)}
        if self.geom is not None:
            g = self.geom
            body["geom"] = [g.in_channels, g.out_channels, g.kernel_h, g.kernel_w, g.stride, g.padding]
        if self.mat is not None:
            body["mat"] = list(self.mat)
        if self.width != WORD_BITS:
            body["width"] = self.width
        return body

    @staticmethod
    def from_json(body: dict) -> "TripleSpec":
        geom = ConvGeometry(*body["geom"]) if "geom" in body else None
        mat = tuple(body["mat"]) if "mat" in body else None
        return TripleSpec(body["kind"], tuple(body["shape"]), geom, mat, body.get("width", WORD_BITS))

    def correction_shapes(self) -> list:
        """The shapes of P0's corrections, in the order the dealer sends them."""
        kind = kind_of(self)
        return kind.field_shapes(self)[0][len(kind.drawn[Role.P0]) :]


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
class Kind:
    """One row of `HALVES`: how one kind of correlation is dealt. It names
    the `fields` of a half in draw order, the suffix of them that P0
    `receives` from the dealer, and the fields drawn as `bits` (the rest are
    words). P1 draws every field and P0 all but those it receives, which the
    dealer computes as `correct(spec, *P0's draws, *P1's fields)`.
    `shapes(spec)` gives the shapes of P0's fields and of P1's where they
    are not all the spec's. A party's half is a `half`: a namedtuple of the
    fields."""

    fields: str
    receives: str
    correct: Callable
    bits: str = ""
    shapes: Callable | None = None

    def __post_init__(self):
        names, got = self.fields.split(), self.receives.split()
        if names[len(names) - len(got) :] != got or not set(self.bits.split()) <= set(names):
            raise ValueError(f"fields {self.fields!r} must end in {self.receives!r} and hold {self.bits!r}")
        self.half = namedtuple("Half", names)
        self.drawn = {Role.P0: names[: len(names) - len(got)], Role.P1: names}

    def field_shapes(self, spec) -> tuple:
        """(P0's field shapes, P1's), in field order."""
        return self.shapes(spec) if self.shapes else ([spec.shape] * len(self.half._fields),) * 2


def _conv_shapes(spec) -> tuple:  # (a0, c0) at P0 and (b, c1) at P1
    g = spec.geom
    out = (g.out_channels, *g.out_hw(spec.shape[1], spec.shape[2]))
    return [spec.shape, out], [g.weight_shape(), out]


def _matmul_shapes(spec) -> tuple:
    m, k, n = spec.mat
    return [(m, k), (m, n)], [(k, n), (m, n)]


HALVES = {
    # Beaver triples c = a * b over additive halves, and over XOR halves
    "arith": Kind("a b c", "c", lambda spec, a0, b0, a1, b1, c1: ((a0 + a1) * (b0 + b1) - c1,)),
    "bool": Kind("a b c", "c", lambda spec, a0, b0, a1, b1, c1: (((a0 ^ a1) & (b0 ^ b1)) ^ c1,)),
    # held: c0 + c1 = f(a0, b) for P0's input mask a0 and P1's weight mask b
    "conv": Kind("mask c", "c", lambda spec, a0, b, c1: (conv2d_ring(a0, b, spec.geom) - c1,), shapes=_conv_shapes),
    "matmul": Kind("mask c", "c", lambda spec, a0, b, c1: (matmul_ring(a0, b) - c1,), shapes=_matmul_shapes),
    # a uniform word per element, XOR-shared and additively shared: the a2b
    # and gtz mask
    "maskpair": Kind("bin arith", "arith", lambda spec, m0, m1, a1: ((m0 ^ m1) - a1,)),
    # a word a and a bit r = r0 ^ r1 per element, and additive shares of r
    # and of a*r
    "select": Kind("a r_bin r ar", "r ar",
                   lambda spec, a0, r0, a1, r1, rho1, c1: ((r0 ^ r1) - rho1, (a0 + a1) * (r0 ^ r1) - c1), bits="r_bin"),
}


def kind_of(spec: TripleSpec) -> Kind:
    try:
        return HALVES[spec.kind]
    except KeyError:
        raise DealerError(f"unknown kind {spec.kind!r}") from None


def session_seed(master_seed: bytes, session_id: int, role: Role) -> bytes:
    """`role`'s 32-byte seed for one session."""
    return Prg(master_seed, f"seed:{session_id}:{role.name}".encode()).draw_bytes(SEED_BYTES)


def expand(seed: bytes, index: int, spec: TripleSpec, role: Role) -> tuple:
    """The fields of correlation `index` that `role` draws from its session
    seed, in field order: all of them at P1, all but those it receives at
    P0."""
    kind = kind_of(spec)
    p0, p1 = kind.field_shapes(spec)
    prg = Prg(seed, f"deal:{index}".encode())
    return tuple(prg.draw_bits(shape) if name in kind.bits.split() else prg.draw_words(shape)
                 for name, shape in zip(kind.drawn[role], p1 if role is Role.P1 else p0))


def derive_correlation(master_seed: bytes, session_id: int, index: int, spec: TripleSpec) -> tuple:
    """P0's corrections for correlation `index` of a session, one tensor per
    corrected field, derived deterministically from both parties' draws."""
    mine = expand(session_seed(master_seed, session_id, Role.P0), index, spec, Role.P0)
    theirs = expand(session_seed(master_seed, session_id, Role.P1), index, spec, Role.P1)
    return kind_of(spec).correct(spec, *mine, *theirs)


class DealerService:
    """Serves both parties; one server thread per party connection."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.master_seed = fresh_seed()
        self._lock = threading.Lock()
        self._served: dict = {}  # sid -> {role: next index due}, for the re-request audit
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
            due = self._served.setdefault(sid, {})
            for index in indices:
                if index < due.get(role, SEED_INDEX):
                    self._rerequests += 1
                due[role] = max(due.get(role, SEED_INDEX), index + 1)

    def _answer(self, role: Role, payload: bytes, sid: int) -> tuple:
        """(indices served, response tag, response payload) for one request."""
        if not payload:
            return (SEED_INDEX,), TAG_SEED_RSP, session_seed(self.master_seed, sid, role)
        if role is Role.P1:  # P0's corrections would unmask P1's half
            return (), TAG_DEALER_ERR, b"P1 expands its whole half and gets no corrections"
        try:
            first, specs = decode_request(payload)
            corrs = b"".join(words_to_bytes(c, spec.width) for i, spec in enumerate(specs)
                             for c in derive_correlation(self.master_seed, sid, first + i, spec))
        except Exception as e:  # any request P0 can send must be answered, or P0 waits out its timeout
            return (), TAG_DEALER_ERR, f"{type(e).__name__}: {e}".encode()
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
    correlation comes back as the half record of its kind (`HALVES`). The
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
            self._seed = self._recv_answer(TAG_SEED_RSP, "seed", SEED_BYTES)
        return self._seed

    def _recv_answer(self, tag: str, what: str, want: int) -> bytes:
        if len(got := self.session.recv_from_dealer(tag)) != want:
            raise DealerError(f"{len(got)} {what} bytes for a request of {want}")
        return got

    def take_many(self, specs: list) -> list:
        """Correlations for `specs`, at consecutive indices."""
        kinds = [kind_of(spec) for spec in specs]
        first = self.next_index
        self.next_index += len(specs)
        indexed = list(enumerate(specs, first))
        role = self.session.role
        if role is Role.P1:
            if first <= self._expanded:
                raise RandomnessReused(f"index {first} after {self._expanded} was already expanded")
            self._expanded = self.next_index - 1
            return [kind.half(*expand(self.seed(), i, spec, role)) for kind, (i, spec) in zip(kinds, indexed)]
        self.session.send_to_dealer(TAG_REQ, encode_request(first, specs))
        parts = [expand(self.seed(), i, spec, role) for i, spec in indexed]  # while the dealer derives
        sizes = [[(shape, packed_len(shape, spec.width)) for shape in spec.correction_shapes()] for spec in specs]
        got = memoryview(self._recv_answer(TAG_TRIPLE_RSP, "correction", sum(n for ss in sizes for _, n in ss)))
        out, off = [], 0
        for kind, spec, mine, ss in zip(kinds, specs, parts, sizes):
            corrs = []
            for shape, n in ss:
                corrs.append(bytes_to_words(got[off : off + n], shape, spec.width))
                off += n
            out.append(kind.half(*mine, *corrs))
        return out

    def take(self, spec: TripleSpec):
        return self.take_many([spec])[0]

    def arith(self, shape) -> tuple:
        return self.take(TripleSpec("arith", tuple(shape)))
