"""Deterministic discrete-event simulation of n miners under adversarial
scheduling and Byzantine behaviors; produces replayable transcripts and
round-latency metrics."""

from __future__ import annotations

import heapq
import json
import random
import statistics
from dataclasses import dataclass, field

from .blocks import Keyring, block_id, encode_block, make_block
from .leaders import CoinOracle, LeaderSchedule
from .miner import MinerState, Package, ProtocolConfig
from .ordering import MODEL_ASYNC, MODEL_ES, params_for

SCHEMA_TRANSCRIPT = "blocklace-transcript/1"
SCHEMA_METRICS = "blocklace-metrics/1"

# Hard ceiling on adversarial delay so every message is eventually delivered.
MAX_DELAY = 64

BEHAVIORS = ("equivocate", "crash", "silent")
ADVERSARIES = ("none", "random-delay", "pre-gst", "corrupt-leader", "reorder")
DELAY_KINDS = ("zero", "fixed", "uniform")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ByzSpec:
    behavior: str
    rate: float = 0.0
    round: int = 0


@dataclass
class Scenario:
    """Simulator input; fully determines the transcript."""

    n: int = 4
    f: int = 1
    model: str = MODEL_ES
    seed: int = 0
    rounds: int = 30
    settle_rounds: int | None = None
    delta: int = 0
    gst: int = 0
    delay_bound: int = 16
    delays: dict = field(default_factory=lambda: {"kind": "fixed", "ticks": 1})
    adversary: dict = field(default_factory=lambda: {"kind": "none"})
    byzantine: dict[int, ByzSpec] = field(default_factory=dict)
    batch: int | None = None
    payload_size: int = 64

    def validate(self) -> None:
        if self.n < 3 * self.f + 1:
            raise ScenarioError(f"n={self.n} violates n >= 3f+1 for f={self.f}")
        if self.model not in (MODEL_ES, MODEL_ASYNC):
            raise ScenarioError(f"unknown model {self.model!r}")
        if self.model == MODEL_ASYNC and self.delta != 0:
            raise ScenarioError("delta must be 0 for asynchrony")
        if self.model == MODEL_ASYNC and self.gst != 0:
            raise ScenarioError("gst applies to eventual synchrony only")
        if len(self.byzantine) > self.f:
            raise ScenarioError(f"{len(self.byzantine)} byzantine miners exceed f={self.f}")
        for mid, spec in self.byzantine.items():
            if not (0 <= mid < self.n):
                raise ScenarioError(f"byzantine miner {mid} out of range")
            if spec.behavior not in BEHAVIORS:
                raise ScenarioError(f"unknown behavior {spec.behavior!r}")
        if self.delays.get("kind") not in DELAY_KINDS:
            raise ScenarioError(f"unknown delay kind {self.delays.get('kind')!r}")
        if self.adversary.get("kind") not in ADVERSARIES:
            raise ScenarioError(f"unknown adversary kind {self.adversary.get('kind')!r}")
        if self.rounds < 1:
            raise ScenarioError("rounds must be positive")
        if self.payload_size < 0 or (self.batch is not None and self.batch < 0):
            raise ScenarioError("negative batch or payload size")

    @property
    def params(self):
        return params_for(self.model)

    @property
    def batch_size(self) -> int:
        return self.n if self.batch is None else self.batch

    @property
    def settle(self) -> int:
        if self.settle_rounds is not None:
            return self.settle_rounds
        return 2 * self.params.wave_length + 2

    @property
    def create_cap(self) -> int:
        return self.rounds + self.settle

    def correct_miners(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.byzantine]

    def to_dict(self) -> dict:
        return {
            "n": self.n, "f": self.f, "model": self.model, "seed": self.seed,
            "rounds": self.rounds, "settle_rounds": self.settle,
            "delta": self.delta, "gst": self.gst, "delay_bound": self.delay_bound,
            "delays": dict(self.delays), "adversary": dict(self.adversary),
            "byzantine": {str(k): {"behavior": v.behavior, "rate": v.rate, "round": v.round}
                          for k, v in sorted(self.byzantine.items())},
            "batch": self.batch_size, "payload_size": self.payload_size,
        }


# -- adversarial scheduling ------------------------------------------------


class Adversary:
    """Chooses per-message delays within the model constraints. Coin values
    are reachable only through the oracle's peek guard (never used by the
    built-in policies, which are coin-blind by construction)."""

    def __init__(self, scenario: Scenario, schedule, rng: random.Random):
        self.scenario = scenario
        self.schedule = schedule
        self.rng = rng
        self.kind = scenario.adversary.get("kind", "none")
        self.lag = int(scenario.adversary.get("lag", 2))
        self.victim_miner = scenario.adversary.get("miner")
        self.max_pre = int(scenario.adversary.get("max_delay", scenario.delay_bound))
        self._victims: dict[int, int] = {}

    def _base(self, now: int) -> int:
        d = self.scenario.delays
        kind = d.get("kind", "fixed")
        if kind == "zero":
            return 0
        if kind == "fixed":
            return int(d.get("ticks", 1))
        return self.rng.randint(int(d.get("min", 1)), int(d.get("max", 3)))

    def delay(self, frm: int, to: int, meta: list[tuple[int, int]], now: int) -> int:
        """meta: (creator, depth) per block in the package."""
        delay = self._base(now)
        if self.kind == "pre-gst" and now < self.scenario.gst:
            delay = max(delay, self.rng.randint(1, self.max_pre))
        elif self.kind == "corrupt-leader":
            victim = self.victim_miner if self.victim_miner is not None else self.scenario.n - 1
            if any(c == victim and self.schedule.leader_at(d) == victim for c, d in meta):
                delay += self.lag
        elif self.kind == "reorder":
            stride = self.scenario.params.leader_stride
            for c, d in meta:
                if c == frm and d % stride == 0 and d > 0 and self._victim_for(d) == frm:
                    delay += self.lag
                    break
        delay = min(delay, MAX_DELAY)
        if self.scenario.model == MODEL_ES and now >= self.scenario.gst:
            delay = min(delay, self.scenario.delay_bound)
        return delay

    def _victim_for(self, leader_round: int) -> int:
        if leader_round not in self._victims:
            self._victims[leader_round] = self.rng.randrange(self.scenario.n)
        return self._victims[leader_round]


# -- byzantine behaviors -----------------------------------------------------


class Behavior:
    """Default (correct) stepping."""

    def __init__(self, sim: "Simulation", miner: MinerState):
        self.sim = sim
        self.m = miner

    def attempt(self, now: int) -> bool:
        blk, sends = self.m.step(now, self.sim.next_payload(self.m.id),
                                 self.sim.create_cap)
        if blk is None:
            return False
        self.sim.record_create(now, self.m, blk)
        for q, pkg in sends:
            self.sim.send(now, self.m.id, q, pkg)
        return True


class SilentBehavior(Behavior):
    def attempt(self, now: int) -> bool:
        return False


class CrashBehavior(Behavior):
    def __init__(self, sim, miner, crash_round: int):
        super().__init__(sim, miner)
        self.crash_round = crash_round

    def attempt(self, now: int) -> bool:
        r = self.m.can_proceed(now, self.sim.create_cap)
        if r is None or r + 1 > self.crash_round:
            return False
        return super().attempt(now)


class EquivocateBehavior(Behavior):
    """With the configured per-round probability, emits two conflicting
    blocks at the same depth to disjoint peer halves; disseminates its
    closure eagerly so both halves spread and detection is prompt."""

    def __init__(self, sim, miner, rate: float, rng: random.Random):
        super().__init__(sim, miner)
        self.rate = rate
        self.rng = rng

    def attempt(self, now: int) -> bool:
        m = self.m
        r = m.can_proceed(now, self.sim.create_cap)
        if r is None:
            return False
        if self.rng.random() >= self.rate:
            return super().attempt(now)
        prefix = m.store.blocks_prefix(r)
        blk = m.store.create_block(m.id, self.sim.next_payload(m.id), prefix)
        twin = make_block(m.id, self.sim.next_payload(m.id), blk.pointers)
        twin = self.sim.keyring.sign(twin)
        m.store.insert(twin)
        bid, tid = block_id(blk), block_id(twin)
        m.note_own_block(bid)
        self.sim.record_create(now, m, blk)
        m.note_own_block(tid)
        self.sim.record_create(now, m, twin)
        peers = [q for q in range(self.sim.scenario.n) if q != m.id]
        half = (len(peers) + 1) // 2
        for q in peers[:half]:
            self.sim.send(now, m.id, q, m.closure_package(q, bid))
        for q in peers[half:]:
            self.sim.send(now, m.id, q, m.closure_package(q, tid))
        m.last_send = now
        return True


def make_behavior(sim: "Simulation", miner: MinerState, spec: ByzSpec | None,
                  rng: random.Random) -> Behavior:
    if spec is None:
        return Behavior(sim, miner)
    if spec.behavior == "silent":
        return SilentBehavior(sim, miner)
    if spec.behavior == "crash":
        return CrashBehavior(sim, miner, spec.round)
    return EquivocateBehavior(sim, miner, spec.rate, rng)


# -- transcript and metrics ---------------------------------------------------


@dataclass
class Transcript:
    header: dict
    events: list[dict]
    logs: dict[int, list[dict]]
    metrics: dict

    def lines(self) -> list[str]:
        out = [json.dumps(self.header, sort_keys=True, separators=(",", ":"))]
        out.extend(json.dumps(e, sort_keys=True, separators=(",", ":"))
                   for e in self.events)
        for mid in sorted(self.logs):
            row = {"e": "log", "m": mid}
            row.update(self.logs[mid])
            out.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
        out.append(json.dumps({"e": "end", "metrics": self.metrics},
                              sort_keys=True, separators=(",", ":")))
        return out

    def jsonl(self) -> str:
        return "\n".join(self.lines()) + "\n"


def load_transcript(text: str) -> Transcript:
    lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].get("schema") != SCHEMA_TRANSCRIPT:
        raise ValueError("not a transcript file")
    header = lines[0]
    events, logs, metrics = [], {}, {}
    for row in lines[1:]:
        if row.get("e") == "log":
            logs[int(row["m"])] = {"records": row["records"],
                                   "suppressed": row["suppressed"]}
        elif row.get("e") == "end":
            metrics = row["metrics"]
        else:
            events.append(row)
    return Transcript(header, events, logs, metrics)


# -- the simulation loop -----------------------------------------------------


class Simulation:
    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.params = scenario.params
        self.keyring = Keyring(scenario.seed, scenario.n)
        stride = self.params.leader_stride
        if scenario.model == MODEL_ASYNC:
            self.oracle = CoinOracle(scenario.seed, scenario.n, scenario.f, stride)
            self.schedule = LeaderSchedule(scenario.n, stride, self.oracle.revealed_value)
        else:
            self.oracle = None
            self.schedule = LeaderSchedule(scenario.n, stride)
        config = ProtocolConfig(scenario.n, scenario.f, self.params, scenario.delta)
        self.miners = [MinerState(i, config, self.schedule, self.keyring, self.oracle)
                       for i in range(scenario.n)]
        self.adversary = Adversary(scenario, self.schedule,
                                   random.Random(f"{scenario.seed}:adversary"))
        self.behaviors = [
            make_behavior(self, self.miners[i], scenario.byzantine.get(i),
                          random.Random(f"{scenario.seed}:byz:{i}"))
            for i in range(scenario.n)
        ]
        self._mempool = [random.Random(f"{scenario.seed}:mempool:{i}")
                         for i in range(scenario.n)]
        self.events: list[dict] = []
        self.heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self._reveals_seen = 0
        self._peeks_seen = 0
        self._timer_poke: set[int] = set()
        # Liveness is an eventual property: if unlucky leader draws leave the
        # horizon uncovered at quiescence, the run extends wave by wave
        # (bounded) until an anchor reaches the horizon. Metrics stay pinned
        # to the configured horizon.
        self.create_cap = scenario.create_cap
        self._extensions = 25

    # -- helpers used by behaviors ----------------------------------------

    def next_payload(self, mid: int) -> bytes:
        size = self.scenario.batch_size * self.scenario.payload_size
        if size == 0:
            return b""
        return self._mempool[mid].randbytes(size)

    def record_create(self, now: int, m: MinerState, blk) -> None:
        bid = block_id(blk)
        self.events.append({
            "e": "create", "t": now, "m": m.id, "id": bid.hex(),
            "c": blk.creator, "d": m.store.depth_of(bid),
            "enc": encode_block(blk).hex(), "sig": blk.signature.hex(),
        })
        self._drain_protocol_events(now, m)

    def send(self, now: int, frm: int, to: int, pkg: Package) -> None:
        wire = pkg.wire()
        self.messages_sent += 1
        self.bytes_sent += len(wire)
        meta = [(b.creator, self.miners[frm].store.depth_of(block_id(b)))
                for b in pkg.blocks]
        delay = self.adversary.delay(frm, to, meta, now)
        ids = [block_id(b).hex() for b in pkg.blocks]
        self.events.append({"e": "send", "t": now, "from": frm, "to": to,
                            "ids": ids, "bytes": len(wire)})
        self._push(now + delay, "pkg", (frm, to, pkg))

    def _push(self, t: int, kind: str, payload) -> None:
        heapq.heappush(self.heap, (t, self._seq, kind, payload))
        self._seq += 1

    def _drain_protocol_events(self, now: int, m: MinerState) -> None:
        for ev in m.drain_outbox():
            ev = dict(ev)
            if isinstance(ev.get("id"), bytes):
                ev["id"] = ev["id"].hex()
            ev["t"] = now
            ev["m"] = m.id
            self.events.append(ev)
        if self.oracle is not None:
            reveals = self.oracle.reveal_log
            while self._reveals_seen < len(reveals):
                r, v = reveals[self._reveals_seen]
                self._reveals_seen += 1
                self.events.append({"e": "coin-reveal", "t": now, "r": r, "leader": v})
                for other in self.miners:
                    self._push(now, "poke", other.id)
            while self._peeks_seen < len(self.oracle.peek_log):
                r, revealed = self.oracle.peek_log[self._peeks_seen]
                self._peeks_seen += 1
                self.events.append({"e": "coin-peek", "t": now, "r": r,
                                    "revealed": revealed})

    # -- main loop ---------------------------------------------------------

    def run(self) -> Transcript:
        t = 0
        guard = 0
        flushes = 2 * self.scenario.n
        while True:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("simulation did not quiesce")
            progressed = True
            while progressed:
                progressed = self._drain(t)
                if self._step_phase(t):
                    progressed = True
            if not self.heap:
                if flushes > 0 and self._flush(t):
                    flushes -= 1
                    continue
                if self._extend(t):
                    continue
                break
            t = self.heap[0][0]
        return self._finish(t)

    def _extend(self, t: int) -> bool:
        """Allow another wave of block creation when no anchor has reached
        the horizon yet (unlucky Byzantine leader draws)."""
        if self._extensions <= 0:
            return False
        observer = self.miners[self.scenario.correct_miners()[0]]
        if observer.log.current_round(observer.store) >= self.scenario.rounds:
            return False
        self._extensions -= 1
        self.create_cap += self.params.wave_length
        return True

    def _flush(self, t: int) -> bool:
        """At quiescence with diverged correct stores, run one anti-entropy
        pass so every fair run converges; normal runs never need this."""
        correct = self.scenario.correct_miners()
        base = {b for b in self.miners[correct[0]].store.accepted_ids()}
        if all(set(self.miners[i].store.accepted_ids()) == base for i in correct[1:]):
            return False
        sent = False
        for i in correct:
            m = self.miners[i]
            for q in range(self.scenario.n):
                if q == i or m.store.is_faulty(q):
                    continue
                pkg = m.flush_package(q)
                if pkg is not None:
                    self.events.append({"e": "flush", "t": t, "from": i, "to": q,
                                        "count": len(pkg.blocks)})
                    self.send(t, i, q, pkg)
                    sent = True
        return sent

    def _drain(self, t: int) -> bool:
        did = False
        while self.heap and self.heap[0][0] == t:
            _, _, kind, payload = heapq.heappop(self.heap)
            did = True
            if kind == "pkg":
                frm, to, pkg = payload
                m = self.miners[to]
                self.events.append({"e": "deliver", "t": t, "from": frm, "to": to,
                                    "ids": [i.hex() for i in pkg.ids()]})
                m.on_receive(pkg)
                self._drain_protocol_events(t, m)
            elif kind == "poke":
                m = self.miners[payload]
                self._timer_poke.discard(payload)
                m.poke()
                self._drain_protocol_events(t, m)
        return did

    def _step_phase(self, t: int) -> bool:
        did = False
        for m in self.miners:
            behavior = self.behaviors[m.id]
            while behavior.attempt(t):
                did = True
            self._maybe_schedule_timer(t, m)
        return did

    def _maybe_schedule_timer(self, t: int, m: MinerState) -> None:
        """If an ES miner is blocked only on its timer, wake it when ready."""
        if self.scenario.model != MODEL_ES or self.scenario.delta == 0:
            return
        if m.id in self._timer_poke or m.id in self.scenario.byzantine:
            return
        if m.can_proceed(t, self.create_cap) is not None:
            return
        ready = m.last_send + self.scenario.delta
        if ready > t and m.can_proceed(ready, self.create_cap) is not None:
            self._timer_poke.add(m.id)
            self._push(ready, "poke", m.id)

    # -- wrap-up -------------------------------------------------------------

    def _finish(self, end_time: int) -> Transcript:
        metrics = self._metrics(end_time)
        header = {"schema": SCHEMA_TRANSCRIPT, "scenario": self.scenario.to_dict()}
        logs = {m.id: {"records": list(m.log.records),
                       "suppressed": sorted(b.hex() for b in m.log.suppressed)}
                for m in self.miners}
        return Transcript(header, self.events, logs, metrics)

    def _metrics(self, end_time: int) -> dict:
        sc = self.scenario
        stride = self.params.leader_stride
        wave = self.params.wave_length
        correct = sc.correct_miners()
        observer = correct[0]
        decisions = [e for e in self.events
                     if e["e"] == "decide" and e["m"] == observer]
        measured = [r for r in range(stride, sc.rounds + 1, stride)]
        latencies: list[int] = []
        decided_rounds: list[int] = []
        prev = 0
        for d in decisions:
            r = d["round"]
            skipped = sum(1 for x in measured if prev < x < r)
            if r <= sc.rounds:
                latencies.append(d["trigger"] - r + 1 + wave * skipped)
                decided_rounds.append(r)
            prev = r
        blocks_delivered = sum(len(self.miners[i].log.delivered) for i in correct)
        payloads = 0
        if sc.payload_size > 0:
            for i in correct:
                for bid in self.miners[i].log.delivered:
                    payloads += len(self.miners[i].store.get(bid).payload) // sc.payload_size
        unique_payloads = 0
        if sc.payload_size > 0:
            unique_payloads = sum(
                len(self.miners[observer].store.get(bid).payload) // sc.payload_size
                for bid in self.miners[observer].log.delivered)
        out = {
            "schema": SCHEMA_METRICS,
            "scenario": sc.to_dict(),
            "end_time": end_time,
            "decisions": len(decided_rounds),
            "decided_rounds": decided_rounds,
            "commit_latencies": latencies,
            "mean_commit_latency": round(statistics.fmean(latencies), 6) if latencies else None,
            "p50_commit_latency": statistics.median(latencies) if latencies else None,
            "waves_decided": len(decided_rounds),
            "waves_skipped": len(measured) - len(decided_rounds),
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "blocks_delivered": blocks_delivered,
            "payloads_delivered": payloads,
            "unique_payloads_delivered": unique_payloads,
            "bytes_per_delivery": round(self.bytes_sent / payloads, 6) if payloads else None,
            "bytes_per_unique_payload": round(self.bytes_sent / unique_payloads, 6)
            if unique_payloads else None,
            "max_round": max((m.store.max_depth() for m in self.miners), default=0),
        }
        return out


def run(scenario: Scenario) -> Transcript:
    """Execute one scenario; identical scenarios yield identical transcripts."""
    return Simulation(scenario).run()
