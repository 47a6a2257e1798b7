"""Run verifiers: safety (prefix consistency), liveness, store convergence,
incremental-vs-reference ordering equivalence, coin blindness, model
conformance, and the common-core structure check for asynchronous runs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .blocks import decode_block
from .leaders import LeaderSchedule
from .ordering import MODEL_ASYNC, MODEL_ES, params_for, reference_order
from .simnet import Transcript
from .store import BlockStore


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
    """Decoded view of one transcript: block registry, per-miner accept
    order, delivered sequences, and the leader schedule in force."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        sc = transcript.header["scenario"]
        self.scenario = sc
        self.n = sc["n"]
        self.f = sc["f"]
        self.model = sc["model"]
        self.params = params_for(self.model)
        self.horizon = sc["rounds"]
        self.byzantine = {int(k) for k in sc.get("byzantine", {})}
        self.correct = [i for i in range(self.n) if i not in self.byzantine]
        self.blocks = {}
        self.block_depth = {}
        self.block_creator = {}
        self.accepts: dict[int, list[str]] = {i: [] for i in range(self.n)}
        self.revealed: dict[int, int] = {}
        self.sends: list[dict] = []
        self.delivers: list[dict] = []
        self.peeks: list[dict] = []
        self.reveal_times: dict[int, int] = {}
        for ev in transcript.events:
            kind = ev["e"]
            if kind == "create":
                self.blocks[ev["id"]] = decode_block(bytes.fromhex(ev["enc"]),
                                                     bytes.fromhex(ev["sig"]))
                self.block_depth[ev["id"]] = ev["d"]
                self.block_creator[ev["id"]] = ev["c"]
            elif kind == "accept":
                self.accepts[ev["m"]].append(ev["id"])
            elif kind == "coin-reveal":
                self.revealed[ev["r"]] = ev["leader"]
                self.reveal_times[ev["r"]] = ev["t"]
            elif kind == "send":
                self.sends.append(ev)
            elif kind == "deliver":
                self.delivers.append(ev)
            elif kind == "coin-peek":
                self.peeks.append(ev)
        self.delivered: dict[int, list[str]] = {}
        self.suppressed: dict[int, list[str]] = {}
        for mid, log in transcript.logs.items():
            self.delivered[mid] = [r["block"] for r in log["records"]]
            self.suppressed[mid] = list(log["suppressed"])

    def schedule(self) -> LeaderSchedule:
        """Round-robin leaders, or the coin values the transcript revealed."""
        lookup = None if self.model == MODEL_ES else self.revealed.get
        return LeaderSchedule(self.n, self.params.leader_stride, lookup)

    def rebuild_store(self, mid: int) -> BlockStore:
        store = BlockStore(self.n, self.f)
        for hid in self.accepts[mid]:
            res = store.insert(self.blocks[hid])
            if res.status != "accepted":
                raise ValueError(f"transcript replay failed for miner {mid}: "
                                 f"{hid[:12]} -> {res.status} {res.reason}")
        return store

    def union_store(self) -> BlockStore:
        store = BlockStore(self.n, self.f)
        for hid, blk in self.blocks.items():
            store.insert(blk)
        return store


def prefix_divergence(a: list, b: list) -> int | None:
    """Index of the first disagreement, or None if one is a prefix of the other."""
    for k in range(min(len(a), len(b))):
        if a[k] != b[k]:
            return k
    return None


def check_safety(view: RunView) -> Verdict:
    """Outputs of correct miners must be pairwise prefix-consistent."""
    for i, j in combinations(view.correct, 2):
        k = prefix_divergence(view.delivered.get(i, []), view.delivered.get(j, []))
        if k is not None:
            return Verdict("safety", False,
                           f"miners {i} and {j} diverge at position {k}")
    return Verdict("safety", True, f"{len(view.correct)} correct miners consistent")


def check_liveness(view: RunView, horizon: int | None = None) -> Verdict:
    """Every correct-miner block created at least two waves before the
    horizon must be delivered by every correct miner."""
    horizon = view.horizon if horizon is None else horizon
    cutoff = horizon - 2 * view.params.wave_length
    due = [hid for hid, c in view.block_creator.items()
           if c in view.correct and view.block_depth[hid] <= cutoff]
    missing = []
    for mid in view.correct:
        got = set(view.delivered.get(mid, []))
        for hid in due:
            if hid not in got:
                missing.append((mid, hid[:12], view.block_depth[hid]))
    if missing:
        return Verdict("liveness", False,
                       f"{len(missing)} due blocks undelivered, first={missing[0]}")
    return Verdict("liveness", True,
                   f"{len(due)} blocks due by round {cutoff} delivered everywhere")


def check_convergence(view: RunView, horizon: int | None = None) -> Verdict:
    """At quiescence, correct miners hold identical accepted sets inside the
    measured horizon."""
    horizon = view.horizon if horizon is None else horizon
    sets = {}
    for mid in view.correct:
        sets[mid] = {h for h in view.accepts[mid] if view.block_depth[h] <= horizon}
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
    from-scratch reference recomputation on its final store."""
    schedule = view.schedule()
    for mid in view.correct:
        store = view.rebuild_store(mid)
        seq, suppressed = reference_order(store, schedule, view.params)
        want = [b.hex() for b in seq]
        got = view.delivered.get(mid, [])
        if want != got:
            k = prefix_divergence(want, got)
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: incremental/"
                           f"reference mismatch at {k} ({len(got)} vs {len(want)})")
        if {b.hex() for b in suppressed} != set(view.suppressed.get(mid, [])):
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: suppressed-set mismatch")
    return Verdict("ordering-equivalence", True,
                   f"{len(view.correct)} miners match the reference order")


def check_coin_blindness(view: RunView) -> Verdict:
    """No adversary peek may observe a leader before its reveal."""
    if view.model != MODEL_ASYNC:
        return Verdict("coin-blindness", True, "deterministic leaders", applicable=False)
    for ev in view.peeks:
        if ev["revealed"] and view.reveal_times.get(ev["r"], ev["t"] + 1) > ev["t"]:
            return Verdict("coin-blindness", False,
                           f"peek saw round {ev['r']} before reveal")
    return Verdict("coin-blindness", True,
                   f"{len(view.peeks)} guarded peeks, none before reveal")


def check_model_conformance(view: RunView) -> Verdict:
    """Every send has a matching delivery; under eventual synchrony no
    delivery after GST exceeds the configured bound."""
    pending: dict[tuple, list[int]] = {}
    for ev in view.sends:
        pending.setdefault((ev["from"], ev["to"], tuple(ev["ids"])), []).append(ev["t"])
    gst = view.scenario.get("gst", 0)
    bound = view.scenario.get("delay_bound", 0)
    for ev in view.delivers:
        key = (ev["from"], ev["to"], tuple(ev["ids"]))
        times = pending.get(key)
        if not times:
            return Verdict("model-conformance", False, f"delivery without send: {key[:2]}")
        t0 = times.pop(0)
        if view.model == MODEL_ES and t0 >= gst and ev["t"] - t0 > bound:
            return Verdict("model-conformance", False,
                           f"post-GST delay {ev['t'] - t0} exceeds bound {bound}")
    left = sum(len(v) for v in pending.values())
    if left:
        return Verdict("model-conformance", False, f"{left} sends never delivered")
    return Verdict("model-conformance", True, f"{len(view.delivers)} deliveries matched")


def check_common_core(view: RunView, leader_round: int | None = None) -> Verdict:
    """Asynchrony: for each completed leader round r there must exist block
    sets U at r+2 and V at r+5, each with >= 2f+1 distinct creators, with
    every member of V acknowledging every member of U."""
    if view.model != MODEL_ASYNC:
        return Verdict("common-core", True, "asynchrony only", applicable=False)
    store = view.union_store()
    quorum = 2 * view.f + 1
    stride = view.params.leader_stride
    if leader_round is not None:
        rounds = [leader_round]
    else:
        rounds = [r for r in range(stride, view.horizon + 1, stride)]
    checked = 0
    for r in rounds:
        if r + 5 > store.max_depth():
            continue
        checked += 1
        if not _common_core_at(store, r, quorum):
            return Verdict("common-core", False, f"no common core at round {r}")
    if checked == 0:
        return Verdict("common-core", True, "no completed leader rounds",
                       applicable=False)
    return Verdict("common-core", True, f"{checked} leader rounds have a common core")


def _common_core_at(store: BlockStore, r: int, quorum: int) -> bool:
    shallow = store.blocks_at(r + 2)
    deep = store.blocks_at(r + 5)
    by_creator: dict[int, list[bytes]] = {}
    for b in deep:
        by_creator.setdefault(store.creator_of(b), []).append(b)
    creators = sorted(by_creator)
    if len(creators) < quorum:
        return False
    # Per deep creator keep the block that acknowledges the most shallow
    # creators, then search creator combinations for a joint core.
    best: dict[int, set[int]] = {}
    for c, blocks in by_creator.items():
        cover = max(
            ({store.creator_of(u) for u in shallow if store.acknowledges(v, u)}
             for v in blocks),
            key=len,
        )
        best[c] = cover
    for combo in combinations(creators, quorum):
        core = set.intersection(*(best[c] for c in combo))
        if len(core) >= quorum:
            return True
    return False


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
