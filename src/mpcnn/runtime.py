"""Session establishment and local two-party execution helpers.

A protocol context is established by fetching the party's dealer seed and
exchanging PRZS seeds, with a digest of the fixed-point configuration that
both parties check; all of it happens before the transcript starts
counting, so a fresh session measures zero. The in-process runner drives both
parties (and a dealer) on threads of one process, which is also how the
benchmark harness hosts its agents.
"""

from __future__ import annotations

import threading

from .arith import ProtocolCtx
from .dealer import DealerService, TripleSource
from .ring import FixedPointConfig
from .sharing import przs_setup
from .transport import Fabric, InProcFabric, Mailbox, Role, Session


def establish(session: Session, cfg: FixedPointConfig | None = None) -> ProtocolCtx:
    """Dealer seed fetch plus PRZS seed handshake, which checks that both
    parties run the same fixed-point configuration (PlanMismatch if not);
    counters start afterwards, and read 0 after a failed set-up. The seed
    request goes out first, so the dealer answers it while the parties swap
    PRZS seeds."""
    cfg = cfg or FixedPointConfig()
    triples = TripleSource(session)
    try:
        przs = przs_setup(session, cfg)
        triples.seed()
    finally:
        session.transcript.reset()
    return ProtocolCtx(session=session, triples=triples, przs=przs, cfg=cfg)


def run_pair_raw(make_fabric, fn_by_role, session_id=1):
    """Run one function per role on its own thread; propagate the first error."""
    values, errors = {}, {}

    def runner(role):
        try:
            fabric = make_fabric(role)
            try:
                sess = Session(fabric, session_id, role)
                values[role] = fn_by_role[role](sess)
            finally:
                fabric.close()
        except Exception as e:
            errors[role] = e

    threads = [threading.Thread(target=runner, args=(r,)) for r in fn_by_role]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise next(iter(errors.values()))
    return values


class LocalRuntime:
    """One in-process mailbox with a dealer service, hosting any number of
    concurrent two-party sessions."""

    def __init__(self):
        self.mailbox = Mailbox()
        self.dealer = DealerService(InProcFabric(self.mailbox, Role.DEALER)).start()
        self._sid_lock = threading.Lock()
        self._next_sid = 1

    def new_session_id(self) -> int:
        with self._sid_lock:
            sid = self._next_sid
            self._next_sid += 1
            return sid

    def fabric(self, role: Role) -> Fabric:
        return InProcFabric(self.mailbox, role)

    def run_session(self, fn0, fn1, cfg: FixedPointConfig | None = None, session_id=None):
        """fn(ctx) for each party; returns {Role.P0: ..., Role.P1: ...}. The
        session's mailbox queues and dealer entries are freed when both parties
        are done."""
        sid = session_id if session_id is not None else self.new_session_id()

        def wrap(fn):
            def run(sess: Session):
                return fn(establish(sess, cfg))

            return run

        try:
            return run_pair_raw(self.fabric, {Role.P0: wrap(fn0), Role.P1: wrap(fn1)}, sid)
        finally:
            self.mailbox.release(sid)
            self.dealer.release(sid)

    def close(self):
        """Close the mailbox, which wakes the dealer's service threads at
        once, then join them."""
        self.mailbox.close()
        self.dealer.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
