"""Run verifiers: safety (prefix consistency), liveness, store convergence,
incremental-vs-reference ordering equivalence, coin blindness, model
conformance, and, for asynchronous runs, the common core of each wave."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import block_id
from .leaders import LeaderSchedule
from .ordering import MODEL_ASYNC, MODEL_ES, WaveParams, reference_order
from .simnet import Transcript
from .store import BlockStore


class ReplayError(ValueError):
    """A miner's accept order cannot be replayed into a fresh store."""


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str = ""
    applicable: bool = True

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "applicable": self.applicable}


class RunView:
    """View of one transcript: its blocks by id, per-miner accept
    order, delivered sequences, and the leader schedule in force."""

    def __init__(self, transcript: Transcript):
        self.scenario = transcript.scenario
        self.params = self.scenario.params
        self.correct = self.scenario.correct_miners()
        self.blocks = transcript.blocks
        self.block_depth = {}
        self.accepts: dict[int, list[str]] = {i: [] for i in range(self.scenario.n)}
        self.revealed: dict[int, int] = {}
        self.reveals: list[tuple[int, int]] = []  # (round, distinct callers so far)
        self.sends: list[dict] = []
        self.delivers: list[dict] = []
        callers: dict[int, set[int]] = {}
        # The most frequent kinds first.
        for ev in transcript.events:
            kind = ev["e"]
            if kind == "accept":
                self.accepts[ev["m"]].append(ev["id"])
            elif kind == "send":
                self.sends.append(ev)
            elif kind == "deliver":
                self.delivers.append(ev)
            elif kind == "create":
                self.block_depth[ev["id"]] = ev["d"]
            elif kind == "coin-call":
                callers.setdefault(ev["r"], set()).add(ev["m"])
            elif kind == "coin-reveal":
                self.revealed[ev["r"]] = ev["leader"]
                self.reveals.append((ev["r"], len(callers.get(ev["r"], ()))))
        self.delivered: dict[int, list[str]] = {}
        self.suppressed: dict[int, list[str]] = {}
        for mid, log in transcript.logs.items():
            self.delivered[mid] = [r["block"] for r in log["records"]]
            self.suppressed[mid] = list(log["suppressed"])
        self._stores: dict[frozenset, BlockStore] = {}

    def schedule(self) -> LeaderSchedule:
        """Round-robin leaders, or the coin values the transcript revealed."""
        lookup = None if self.scenario.model == MODEL_ES else self.revealed.get
        return LeaderSchedule(self.scenario.n, self.params.leader_stride, lookup)

    def accepted(self, mid: int) -> list[str]:
        """Miner mid's accepted ids in accept order; raises ReplayError on
        an id that no create event defines."""
        ids = self.accepts[mid]
        if not all(map(self.blocks.__contains__, ids)):
            hid = next(h for h in ids if h not in self.blocks)
            raise ReplayError(f"miner {mid} accepted undefined block {hid[:12]}")
        return ids

    def replay(self, mid: int | None) -> BlockStore:
        """The store of miner mid's accepted blocks, or of every created
        block when mid is None, in accept (creation) order. Each distinct
        set goes into a fresh store once; the same set again is only checked
        to put every pointee before the blocks pointing at it, which the
        cached store's misplaced answers. Raises ReplayError, caching
        nothing, where a fresh store would not accept a block on arrival."""
        ids = list(self.blocks) if mid is None else self.accepted(mid)
        who = "the created blocks" if mid is None else f"miner {mid}"
        key = frozenset(ids)
        store = self._stores.get(key)
        if store is None:
            store = BlockStore(self.scenario.n, self.scenario.f)
            for hid in ids:
                res = store.insert(self.blocks[hid])
                if res.status != "accepted":
                    raise ReplayError(f"transcript replay failed for {who}: "
                                      f"{hid[:12]} -> {res.status} {res.reason}")
            self._stores[key] = store
            return store
        k = store.misplaced([block_id(self.blocks[hid]) for hid in ids])
        if k is not None:
            raise ReplayError(f"transcript replay failed for {who}: "
                              f"{ids[k][:12]} -> buffered None")
        return store


def prefix_divergence(a: list, b: list) -> int | None:
    """Index of the first disagreement, or None if one is a prefix of the other."""
    for k in range(min(len(a), len(b))):
        if a[k] != b[k]:
            return k
    return None


def check_safety(view: RunView) -> Verdict:
    """Outputs of correct miners must be pairwise prefix-consistent, which
    holds exactly when each is a prefix of the longest."""
    seqs = {mid: view.delivered.get(mid, []) for mid in view.correct}
    top = max(seqs, key=lambda mid: len(seqs[mid]))
    for mid, seq in seqs.items():
        if seq != seqs[top][:len(seq)]:
            k = prefix_divergence(seq, seqs[top])
            return Verdict("safety", False, f"miners {mid} and {top} diverge at position {k}")
    return Verdict("safety", True, f"{len(view.correct)} correct miners consistent")


def check_liveness(view: RunView) -> Verdict:
    """Every correct-miner block created at least two waves before the
    horizon must be delivered by every correct miner."""
    cutoff = view.scenario.rounds - 2 * view.params.wave_length
    due = [hid for hid, blk in view.blocks.items()
           if blk.creator in view.correct and view.block_depth[hid] <= cutoff]
    missing = []
    for mid in view.correct:
        got = set(view.delivered.get(mid, []))
        if got.issuperset(due):
            continue
        for hid in due:
            if hid not in got:
                missing.append((mid, hid[:12], view.block_depth[hid]))
    if missing:
        return Verdict("liveness", False,
                       f"{len(missing)} due blocks undelivered, first={missing[0]}")
    return Verdict("liveness", True,
                   f"{len(due)} blocks due by round {cutoff} delivered everywhere")


def check_convergence(view: RunView) -> Verdict:
    """At quiescence, correct miners hold identical accepted sets inside the
    measured horizon."""
    horizon = view.scenario.rounds
    try:
        sets = {mid: {h for h in view.accepted(mid) if view.block_depth[h] <= horizon}
                for mid in view.correct}
    except ReplayError as exc:
        return Verdict("convergence", False, str(exc))
    base = sets[view.correct[0]]
    for mid in view.correct[1:]:
        if sets[mid] != base:
            diff = len(sets[mid] ^ base)
            return Verdict("convergence", False,
                           f"miner {mid} differs from miner {view.correct[0]} "
                           f"by {diff} blocks inside round {horizon}")
    return Verdict("convergence", True,
                   f"{len(base)} accepted blocks identical across correct miners")


def check_ordering_equivalence(view: RunView) -> Verdict:
    """Each miner's cumulative incremental delivery must equal the
    from-scratch reference recomputation on its final store. That order is a
    function of the accepted set, so it is computed once per replayed store."""
    schedule = view.schedule()
    reference: dict[BlockStore, tuple[list[str], set[str]]] = {}
    for mid in view.correct:
        try:
            store = view.replay(mid)
        except ReplayError as exc:
            return Verdict("ordering-equivalence", False, str(exc))
        if store not in reference:
            seq, sup = reference_order(store, schedule, view.params)
            reference[store] = [b.hex() for b in seq], {b.hex() for b in sup}
        want, suppressed = reference[store]
        got = view.delivered.get(mid, [])
        if want != got:
            k = prefix_divergence(want, got)
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: incremental/"
                           f"reference mismatch at {k} ({len(got)} vs {len(want)})")
        if suppressed != set(view.suppressed.get(mid, [])):
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: suppressed-set mismatch")
    return Verdict("ordering-equivalence", True,
                   f"{len(view.correct)} miners match the reference order")


def check_coin_blindness(view: RunView) -> Verdict:
    """Each coin reveal of a round must follow coin calls for it by at
    least f+1 distinct miners, so no leader is known before a correct miner
    asks for it."""
    if view.scenario.model != MODEL_ASYNC:
        return Verdict("coin-blindness", True, "deterministic leaders", applicable=False)
    need = view.scenario.f + 1
    for r, calls in view.reveals:
        if calls < need:
            return Verdict("coin-blindness", False,
                           f"round {r} revealed after {calls} of {need} coin calls")
    return Verdict("coin-blindness", True,
                   f"{len(view.reveals)} reveals, each after >= {need} coin calls")


def check_model_conformance(view: RunView) -> Verdict:
    """Every send has a matching delivery; under eventual synchrony no
    delivery after GST exceeds the configured bound."""
    pending: dict[tuple, list[int]] = {}
    for ev in view.sends:
        key = (ev["from"], ev["to"], tuple(ev["ids"]))  # a tuple is not copied
        times = pending.get(key)
        if times is None:
            pending[key] = [ev["t"]]
        else:
            times.append(ev["t"])
    sc = view.scenario
    # Asynchrony bounds no delay: no send time reaches an infinite GST.
    gst = sc.gst if sc.model == MODEL_ES else float("inf")
    bound = sc.delay_bound
    for ev in view.delivers:
        key = (ev["from"], ev["to"], tuple(ev["ids"]))
        times = pending.get(key)
        if not times:
            return Verdict("model-conformance", False, f"delivery without send: {key[:2]}")
        t0 = times.pop(0)
        t = ev["t"]
        if t < t0:
            return Verdict("model-conformance", False,
                           f"delivery at {t} before its send at {t0}: {key[:2]}")
        if t0 >= gst and t - t0 > bound:
            return Verdict("model-conformance", False,
                           f"post-GST delay {t - t0} exceeds bound {bound}")
    left = sum(map(len, pending.values()))
    if left:
        return Verdict("model-conformance", False, f"{left} sends never delivered")
    return Verdict("model-conformance", True, f"{len(view.delivers)} deliveries matched")


def check_common_core(view: RunView) -> Verdict:
    """Asynchrony: for each completed leader round r, the blocks at r+β
    have a quorum of creators, and so do the blocks at r+α that every block
    at r+β acknowledges. That is one AND of closure masks per block at r+β
    and one mask of the blocks at r+α. The blocks are all created blocks,
    Byzantine miners' included. This strong form implies the weak one that
    `bf_common_core` in tests/helpers_oracle.py searches for: some blocks
    at r+β by a quorum of creators all acknowledging some blocks at r+α by
    a quorum of creators."""
    if view.scenario.model != MODEL_ASYNC:
        return Verdict("common-core", True, "asynchrony only", applicable=False)
    try:
        store = view.replay(None)
    except ReplayError as exc:
        return Verdict("common-core", False, str(exc))
    alpha, beta, quorum = view.params.alpha, view.params.beta, store.quorum
    checked = 0
    for r in range(view.params.leader_stride, view.scenario.rounds + 1,
                   view.params.leader_stride):
        if r + beta > store.max_depth():
            continue
        checked += 1
        deep, deep_creators, core = _common_core_at(store, view.params, r)
        if min(deep_creators, core) < quorum:
            return Verdict("common-core", False,
                           f"round {r}: the {deep} blocks at round {r + beta}, by "
                           f"{deep_creators} creators, all acknowledge blocks by "
                           f"{core} creators at round {r + alpha}; quorum {quorum}")
    if checked == 0:
        return Verdict("common-core", True, "no completed leader rounds",
                       applicable=False)
    return Verdict("common-core", True, f"{checked} leader rounds have a common core")


def _common_core_at(store: BlockStore, params: WaveParams, r: int) -> tuple[int, int, int]:
    """The number of blocks at r+β, their creators, and the creators of the
    blocks at r+α that all of them acknowledge."""
    deep = store.blocks_at(r + params.beta)
    common = -1
    for v in deep:
        common &= store.closure_mask(v)
    shallow = store.mask_of(store.blocks_at(r + params.alpha))
    core = {b.creator for b in store.blocks_in_mask(common & shallow)}
    return len(deep), len(store.creators_at(r + params.beta)), len(core)


def run_all_checks(transcript: Transcript) -> list[Verdict]:
    view = RunView(transcript)
    return [
        check_safety(view),
        check_liveness(view),
        check_convergence(view),
        check_ordering_equivalence(view),
        check_coin_blindness(view),
        check_model_conformance(view),
        check_common_core(view),
    ]


def all_passed(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)
