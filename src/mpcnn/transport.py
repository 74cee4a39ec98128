"""Party-to-party and dealer channels with exact byte and round accounting.

A round is one parallel communication phase: everything that may legally fly
concurrently counts once, no matter how many bytes it carries, and openings
that share a round share one frame; the ledger counts payload bytes. A frame
carries its tag (a merged frame, its composition) as the CRC-32, so both
backends check tags alike. A party sends every frame it owes, an empty one
too, and checks each it reads for seq, then tag; a dealer's refusal raises
DealerError. Received frames wait in a `Mailbox` keyed by (session, source,
destination), every frame to the dealer under `SERVICE`. The in-process roles
share one mailbox; each TCP connection's one thread, its reader, fills its
own, and senders write whole frames under its lock, each send bounded by
MPCNN_TIMEOUT_MS. A TCP connection opens with one byte naming the connecting
role. Both backends give byte-identical transcripts.
"""

from __future__ import annotations

import enum
import os
import queue
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

HEADER = struct.Struct("<QQII")  # session_id, seq, tag hash, payload length

DEFAULT_TIMEOUT_MS = 30_000

SERVICE = -1  # the mailbox key of every frame to the dealer, whatever its session


def timeout_seconds() -> float:
    return int(os.environ.get("MPCNN_TIMEOUT_MS", DEFAULT_TIMEOUT_MS)) / 1000.0


class Role(enum.Enum):
    P0 = 0  # data holder
    P1 = 1  # model holder
    DEALER = 2

    @property
    def peer(self) -> "Role":
        if self is Role.DEALER:
            raise ValueError("dealer has no single peer")
        return Role.P1 if self is Role.P0 else Role.P0


class TransportError(Exception):
    pass


class PeerDisconnected(TransportError):
    pass


class SessionTimeout(TransportError):
    pass


class ProtocolError(TransportError):
    """Sequence, tag, length or set-up violation."""


class PlanMismatch(ProtocolError):
    """The parties set up with different fixed-point configurations."""


class DealerError(TransportError):
    """The dealer refused a request, or a correlation cannot be dealt."""


TAG_DEALER_ERR = "DEALER_ERR"  # the dealer's answer to a request it refuses; the payload says why


@dataclass
class Message:
    session_id: int
    seq: int
    tag: int  # tag_hash of the tag string
    payload: bytes


def tag_hash(tag: str) -> int:
    return zlib.crc32(tag.encode()) & 0xFFFFFFFF


@dataclass
class TagStats:
    bytes_sent: int = 0
    bytes_recv: int = 0
    phases: int = 0


@dataclass
class Transcript:
    """Per-session ledger of payload bytes and communication phases."""

    bytes_sent: int = 0
    bytes_recv: int = 0
    rounds: int = 0
    tags: dict = field(default_factory=dict)

    def _tag(self, tag: str) -> TagStats:
        return self.tags.get(tag) or self.tags.setdefault(tag, TagStats())

    def note_send(self, tag: str, n: int):
        self.bytes_sent += n
        self._tag(tag).bytes_sent += n

    def note_recv(self, tag: str, n: int):
        self.bytes_recv += n
        self._tag(tag).bytes_recv += n

    def note_round(self, *tags: str):
        """One round, and one phase under each tag whose part rode in it."""
        self.rounds += 1
        for tag in tags:
            self._tag(tag).phases += 1

    def snapshot(self) -> "Transcript":
        tags = {k: TagStats(v.bytes_sent, v.bytes_recv, v.phases) for k, v in self.tags.items()}
        return Transcript(self.bytes_sent, self.bytes_recv, self.rounds, tags)

    def reset(self):
        self.bytes_sent = self.bytes_recv = self.rounds = 0
        self.tags = {}

    def counters(self) -> tuple:
        """Payload bytes, rounds and per-tag stats as one comparable tuple."""
        tags = tuple(sorted((k, v.bytes_sent, v.bytes_recv, v.phases) for k, v in self.tags.items()))
        return self.bytes_sent, self.bytes_recv, self.rounds, tags


# ---------------------------------------------------------------------------
# fabrics: message routing between roles, keyed by session


class Mailbox:
    """Received frames in FIFO queues keyed by (session, source,
    destination); a frame to the dealer goes under SERVICE. Each key has one
    reader. A `get` that leaves its queue empty drops it, so a finished
    session leaves no queue behind; `put` enqueues under the lock, so no
    frame lands in a dropped queue. Once the mailbox is closed, every `get`
    raises PeerDisconnected."""

    def __init__(self):
        self._queues: dict = {}
        self._lock = threading.Lock()
        self.closed = False

    def _queue(self, key) -> queue.SimpleQueue:
        """The queue of `key`, made if missing; called under the lock."""
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = queue.SimpleQueue()
            if self.closed:
                q.put(None)
        return q

    def put(self, src: Role, dst: Role, msg: Message):
        sid = SERVICE if dst is Role.DEALER else msg.session_id
        with self._lock:
            if self.closed:
                raise PeerDisconnected("mailbox closed")
            self._queue((sid, src, dst)).put(msg)

    def get(self, session_id: int, src: Role, dst: Role, timeout: float | None = None) -> Message:
        key = (session_id, src, dst)
        with self._lock:
            q = self._queue(key)
        try:
            msg = q.get(timeout=timeout if timeout is not None else timeout_seconds())
        except queue.Empty:
            raise SessionTimeout(f"recv from {src} timed out (session {session_id})") from None
        finally:
            with self._lock:
                if q.empty() and self._queues.get(key) is q:
                    del self._queues[key]
        if msg is None:  # closed: the next get's new queue starts with None too
            raise PeerDisconnected(f"channel from {src} closed")
        return msg

    def release(self, session_id: int):
        """Drop a finished session's queues."""
        with self._lock:
            for key in [k for k in self._queues if k[0] == session_id]:
                del self._queues[key]

    def close(self):
        with self._lock:
            self.closed = True
            for q in self._queues.values():
                q.put(None)


class Fabric:
    """Routes frames between roles. One fabric instance per role; frames
    from `frm` wait in the mailbox `_mailbox(frm)`."""

    role: Role

    def send(self, to: Role, msg: Message):
        raise NotImplementedError

    def _mailbox(self, frm: Role) -> Mailbox:
        raise NotImplementedError

    def recv(self, frm: Role, session_id: int, timeout: float | None = None) -> Message:
        """The next frame from `frm` in a session; the dealer reads SERVICE."""
        return self._mailbox(frm).get(session_id, frm, self.role, timeout)

    def close(self):
        pass


class InProcFabric(Fabric):
    """A role on a mailbox shared by all in-process roles."""

    def __init__(self, mailbox: Mailbox, role: Role):
        self.mailbox = mailbox
        self.role = role

    def send(self, to: Role, msg: Message):
        self.mailbox.put(self.role, to, msg)

    def _mailbox(self, frm: Role) -> Mailbox:
        return self.mailbox


class _TcpConn:
    """One long-lived framed connection, carrying `src`'s frames to `dst`
    and back, with one thread: the reader, which fills `mailbox`. Because it
    always drains the socket, simultaneous large sends from both ends cannot
    deadlock. Sessions on different threads share the connection, so each
    frame is written whole under a lock. A send is bounded by the socket's
    timeout: one that stalls, because the peer stopped reading, leaves a
    partial frame behind, so it closes the connection and raises
    SessionTimeout."""

    def __init__(self, sock: socket.socket, src: Role, dst: Role):
        self.sock = sock
        self.sock.settimeout(timeout_seconds())
        # frames are written whole; Nagle would hold each one's tail segment
        # until the peer ACKs the previous one
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.src, self.dst = src, dst
        self.mailbox = Mailbox()
        self._send_lock = threading.Lock()
        self.reader = threading.Thread(target=self._read_loop, daemon=True)
        self.reader.start()

    def _read_loop(self):
        try:
            while True:
                sid, seq, th, length = HEADER.unpack(self._read_exact(HEADER.size))
                self.mailbox.put(self.src, self.dst, Message(sid, seq, th, self._read_exact(length)))
        except (OSError, PeerDisconnected):
            self.mailbox.close()

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self.sock.recv(n - len(buf))
            except TimeoutError:
                continue  # Mailbox.get times out, so an idle connection stays up
            if not chunk:
                raise PeerDisconnected("socket closed")
            buf.extend(chunk)
        return bytes(buf)

    def send(self, msg: Message):
        frame = HEADER.pack(msg.session_id, msg.seq, msg.tag, len(msg.payload)) + msg.payload
        with self._send_lock:
            if self.mailbox.closed:
                raise PeerDisconnected("connection lost")
            try:
                self.sock.sendall(frame)
            except TimeoutError:
                self.close()
                raise SessionTimeout(f"send to {self.src} stalled (session {msg.session_id})") from None
            except OSError as e:
                self.close()
                raise PeerDisconnected(f"send to {self.src} failed: {e}") from None

    def close(self):
        self.mailbox.close()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _accept(addr, roles: tuple) -> dict:
    """{role: socket} for exactly one connection from each of `roles`, each
    naming itself in its first byte."""
    accepted, socks = [], {}
    try:
        with socket.create_server(tuple(addr), backlog=4) as srv:  # SO_REUSEADDR on POSIX
            srv.settimeout(timeout_seconds())
            while len(socks) < len(roles):
                try:
                    accepted.append(sock := srv.accept()[0])
                    sock.settimeout(timeout_seconds())
                    got = sock.recv(1)
                except TimeoutError:
                    raise SessionTimeout(f"no connection or role byte at {addr} in time") from None
                except OSError as e:
                    raise ProtocolError(f"set-up failed: {e}") from None
                waiting = [r.value for r in roles if r not in socks]
                if not got or got[0] not in waiting:
                    raise ProtocolError(f"role byte {got!r}, expecting one of {waiting}")
                socks[Role(got[0])] = sock
    except BaseException:
        for sock in accepted:
            sock.close()
        raise
    return socks


class TcpFabric(Fabric):
    """TCP backend. P0 listens for P1; the dealer listens for both parties.
    Every connection opens with one byte, the connecting role's value, and
    one accept routine serves both listeners.

    Connection map: parties hold one connection to each other and one to the
    dealer; the dealer holds one connection per party. Set-up raises
    SessionTimeout when nobody connects or speaks in time, and ProtocolError
    when a connection names a role its listener does not expect, or one it
    already has; a set-up that fails closes the connections it made. Each
    connection runs one thread, its reader; a send blocks its caller for at
    most MPCNN_TIMEOUT_MS."""

    ACCEPTS = {Role.P0: (Role.P1,), Role.DEALER: (Role.P0, Role.P1)}  # who connects to whom

    def __init__(self, role: Role, listen_addr=None, peer_addr=None, dealer_addr=None):
        self.role = role
        self._conns: dict = {}
        try:
            if listen_addr and role in self.ACCEPTS:
                for peer, sock in _accept(listen_addr, self.ACCEPTS[role]).items():
                    self._conns[peer] = _TcpConn(sock, peer, role)
            if peer_addr and role is Role.P1:
                self._connect(Role.P0, peer_addr)
            if dealer_addr and role is not Role.DEALER:
                self._connect(Role.DEALER, dealer_addr)
        except BaseException:
            self.close()  # the connections made so far, and their readers
            raise

    def _connect(self, to: Role, addr):
        deadline = time.monotonic() + timeout_seconds()
        while True:
            try:
                sock = socket.create_connection(addr, timeout=timeout_seconds())
                break
            except OSError as e:  # peer may not be listening yet
                if time.monotonic() >= deadline:
                    raise TransportError(f"cannot connect to {to} at {addr}: {e}") from None
                time.sleep(0.05)
        try:
            sock.sendall(bytes([self.role.value]))
            self._conns[to] = _TcpConn(sock, to, self.role)
        except BaseException:
            sock.close()
            raise

    def _conn(self, role: Role) -> _TcpConn:
        conn = self._conns.get(role)
        if conn is None:
            raise TransportError(f"no connection to {role}")
        return conn

    def send(self, to: Role, msg: Message):
        self._conn(to).send(msg)

    def _mailbox(self, frm: Role) -> Mailbox:
        return self._conn(frm).mailbox

    def close(self):
        for conn in self._conns.values():
            conn.close()


# ---------------------------------------------------------------------------
# session: seq tracking, transcripts, exchange primitive


class Session:
    """One party's endpoint of one protocol session.

    Byte counters cover party-to-party payload only; dealer traffic goes to a
    separate transcript, so offline cost is reported apart from online cost.
    Frames to each role are numbered from 0 and must arrive in order; the
    dealer answers each request under the request's own seq. Every read checks
    seq, then tag (`_raw_recv`), and a dealer's refusal raises DealerError.
    Only `exchange` skips a frame, when both sides know it is empty.
    """

    def __init__(self, fabric: Fabric, session_id: int, role: Role):
        if role is Role.DEALER:
            raise ValueError("sessions belong to P0/P1; the dealer serves them")
        self.fabric = fabric
        self.session_id = session_id
        self.role = role
        self.transcript = Transcript()
        self.dealer_transcript = Transcript()
        self._send_seq: dict = {}
        self._recv_seq: dict = {}
        self.in_flight: list = []  # protocols whose openings ride this session's later ones (sharing.PendingBit)

    # -- framing helpers --

    def _next_seq(self, to: Role) -> int:
        s = self._send_seq.get(to, 0)
        self._send_seq[to] = s + 1
        return s

    def _raw_send(self, to: Role, tag: str, payload: bytes):
        self.fabric.send(to, Message(self.session_id, self._next_seq(to), tag_hash(tag), payload))

    def _raw_recv(self, frm: Role, tag: str) -> bytes:
        """The next frame from `frm`; a dealer's refusal is noted, then raised."""
        msg = self.fabric.recv(frm, self.session_id)
        expect = self._recv_seq.get(frm, 0)
        if msg.seq != expect:
            raise ProtocolError(f"seq {msg.seq} != expected {expect} from {frm}")
        self._recv_seq[frm] = expect + 1
        if frm is Role.DEALER and msg.tag == tag_hash(TAG_DEALER_ERR):
            self.dealer_transcript.note_recv(TAG_DEALER_ERR, len(msg.payload))
            raise DealerError(msg.payload.decode(errors="replace"))
        if msg.tag != tag_hash(tag):
            raise ProtocolError(f"tag mismatch: expected {tag!r}")
        return msg.payload

    # -- party-to-party, transcript-counted --

    def exchange(self, tag, payload, peer_len: int | None = None) -> bytes:
        """One-round swap: both parties send at once, then each receives the
        other's payload. The peer's payload must be `peer_len` bytes long,
        by default as long as this party's own (a symmetric opening); the two
        sides of an asymmetric swap each pass the length they expect from the
        other. A swap of two empty payloads produces no traffic and no round.

        `tag` and `payload` may also be lists, of the parts of symmetric
        openings that share one frame and one round (one part is a plain
        swap); the peer's parts come back concatenated in the same order.
        Each part's bytes and one phase are recorded under its own tag, and
        a frame of several is tagged with its composition (every part's tag
        and length), so peers that disagree on it raise ProtocolError."""
        tags, parts = ([tag], [payload]) if isinstance(tag, str) else (tag, payload)
        frame_tag = tags[0] if len(tags) == 1 else " + ".join(
            f"{t}[{len(p)}]" for t, p in zip(tags, parts, strict=True))
        payload = b"".join(parts)
        expect = len(payload) if peer_len is None else peer_len
        if len(payload) == 0 and expect == 0:
            return b""
        peer = self.role.peer
        self._raw_send(peer, frame_tag, payload)
        got = self._raw_recv(peer, frame_tag)
        if len(got) != expect:
            raise ProtocolError(f"exchange length mismatch: expected {expect}, got {len(got)}")
        for t, p in zip(tags, parts):
            self.transcript.note_send(t, len(p))
            self.transcript.note_recv(t, len(got) if len(parts) == 1 else len(p))
        self.transcript.note_round(*tags)
        return got

    def send_to_peer(self, tag: str, payload: bytes):
        """Directed phase, sender side. Counts one round for this party."""
        self._raw_send(self.role.peer, tag, payload)
        self.transcript.note_send(tag, len(payload))
        self.transcript.note_round(tag)

    def recv_from_peer(self, tag: str) -> bytes:
        """Directed phase, receiver side. Counts one round for this party."""
        payload = self._raw_recv(self.role.peer, tag)
        self.transcript.note_recv(tag, len(payload))
        self.transcript.note_round(tag)
        return payload

    # -- dealer traffic, counted separately --

    def send_to_dealer(self, tag: str, payload: bytes):
        self._raw_send(Role.DEALER, tag, payload)
        self.dealer_transcript.note_send(tag, len(payload))
        self.dealer_transcript.note_round(tag)

    def recv_from_dealer(self, tag: str) -> bytes:
        """The dealer's answer on `tag`; a refusal raises DealerError."""
        payload = self._raw_recv(Role.DEALER, tag)
        self.dealer_transcript.note_recv(tag, len(payload))
        return payload

    def measure(self) -> Transcript:
        return self.transcript.snapshot()
