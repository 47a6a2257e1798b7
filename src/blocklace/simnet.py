"""Deterministic discrete-event simulation of n miners under adversarial
scheduling and Byzantine behaviors; produces replayable transcripts and
round-latency metrics."""

from __future__ import annotations

import heapq
import json
import random
import statistics
from dataclasses import dataclass, field, fields

from .blocks import DIGEST_SIZE, Block, Keyring, block_id, decode_block, make_block
from .leaders import CoinOracle, LeaderSchedule
from .miner import MinerState, Package, ProtocolConfig
from .ordering import MODEL_ASYNC, MODEL_ES, params_for
from .store import BlockTable

SCHEMA_TRANSCRIPT = "blocklace-transcript/1"
SCHEMA_METRICS = "blocklace-metrics/1"

# One compact, key-sorted line of JSON; one encoder serves every line, where
# each json.dumps call with these settings would build its own.
json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The length of one hex block id: a send or deliver event's ids string is
# its package's hex ids joined, and is written as their array.
HEX_ID = 2 * DIGEST_SIZE

# Hard ceiling on adversarial delay so every message is eventually delivered.
MAX_DELAY = 64

BEHAVIORS = ("equivocate", "crash", "silent")
ADVERSARIES = ("none", "pre-gst", "corrupt-leader", "reorder")
DELAY_KINDS = ("zero", "fixed", "uniform")


class ScenarioError(ValueError):
    pass


def as_number(value, kind, where: str):
    """kind(value), or a ScenarioError naming where the value came from. No
    number is read from a bool, and no int from a float with a fractional
    part, which int() would silently truncate."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected {kind.__name__}, got {value!r}") from None


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

    @classmethod
    def from_dict(cls, doc) -> "Scenario":
        """The validated scenario a JSON object describes; the inverse of
        to_dict. An absent key takes the field's default, except f, which
        defaults to (n-1)//3."""
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be an object")
        _reject_unknown(doc, {fl.name for fl in fields(cls)}, "")
        values = {}
        for key, value in doc.items():
            if key == "byzantine":
                value = _byzantine_from(value)
            elif key not in ("model", "delays", "adversary") and not (
                    value is None and key in ("settle_rounds", "batch")):
                value = as_number(value, int, key)
            values[key] = value
        scenario = cls(**values)
        if "f" not in doc:
            scenario.f = (scenario.n - 1) // 3
        scenario.validate()
        return scenario

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
            if not 0 <= spec.rate <= 1:  # NaN fails this too
                raise ScenarioError(f"byzantine[{mid}].rate must be in [0, 1], got {spec.rate!r}")
            if spec.round < 0:
                raise ScenarioError(f"byzantine[{mid}].round is negative: {spec.round}")
        for name, keys in (("delays", {"kind", "ticks", "min", "max"}),
                           ("adversary", {"kind", "miner", "lag", "max_delay"})):
            if not isinstance(getattr(self, name), dict):
                raise ScenarioError(f"{name} must be an object")
            _reject_unknown(getattr(self, name), keys, f"{name}: ")
        if self.delays.get("kind") not in DELAY_KINDS:
            raise ScenarioError(f"unknown delay kind {self.delays.get('kind')!r}")
        if self.adversary.get("kind") not in ADVERSARIES:
            raise ScenarioError(f"unknown adversary kind {self.adversary.get('kind')!r}")
        v = self.adversary_settings()
        if self.delays["kind"] == "uniform" and v["min"] > v["max"]:
            raise ScenarioError(f"delays.min {v['min']} exceeds delays.max {v['max']}")
        if self.adversary["kind"] == "pre-gst" and v["max_delay"] < 1:
            raise ScenarioError("adversary.max_delay must be at least 1")
        if self.adversary["kind"] == "pre-gst" and self.gst == 0:
            # Asynchrony forces gst 0, where pre-gst draws the delays of none.
            raise ScenarioError("adversary pre-gst needs gst above 0")
        if self.adversary["kind"] == "corrupt-leader" and (
                isinstance(v["miner"], bool) or v["miner"] not in range(self.n)):
            raise ScenarioError(f"adversary.miner must be a miner index, got {v['miner']!r}")
        if min(self.delta, self.delay_bound, self.gst, self.settle) < 0:
            raise ScenarioError("negative delta, delay_bound, gst or settle_rounds")
        if self.rounds < 1:
            raise ScenarioError("rounds must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ScenarioError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.payload_size < 0 or (self.batch is not None and self.batch < 0):
            raise ScenarioError("negative batch or payload size")

    def adversary_settings(self) -> dict:
        """What the adversary reads from delays and adversary, absent keys
        taking their defaults: the corrupt-leader victim `miner`, and ticks,
        min, max, lag and max_delay, which raise ScenarioError unless they
        are non-negative integers."""
        out = {"miner": self.adversary.get("miner", self.n - 1)}
        for name, key, default in (("delays", "ticks", 1), ("delays", "min", 1),
                                   ("delays", "max", 3), ("adversary", "lag", 2),
                                   ("adversary", "max_delay", self.delay_bound)):
            out[key] = as_number(getattr(self, name).get(key, default), int,
                                 f"{name}.{key}")
            if out[key] < 0:
                raise ScenarioError(f"{name}.{key} must not be negative, got {out[key]}")
        return out

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


def _byzantine_from(doc) -> dict[int, ByzSpec]:
    if not isinstance(doc, dict):
        raise ScenarioError("byzantine must be an object")
    out = {}
    for key, spec in doc.items():
        mid = as_number(key, int, "byzantine key")
        if mid in out:
            raise ScenarioError(f"byzantine miner {mid} named twice")
        if not isinstance(spec, dict) or "behavior" not in spec:
            raise ScenarioError(f"byzantine[{key}] needs a behavior")
        _reject_unknown(spec, {"behavior", "rate", "round"}, f"byzantine[{key}]: ")
        out[mid] = ByzSpec(spec["behavior"],
                           as_number(spec.get("rate", 0.0), float, f"byzantine[{key}].rate"),
                           as_number(spec.get("round", 0), int, f"byzantine[{key}].round"))
    return out


def _reject_unknown(doc: dict, keys: set, where: str) -> None:
    """Refuse a key outside keys, which the run would silently ignore."""
    unknown = set(doc) - keys
    if unknown:
        raise ScenarioError(f"{where}unknown keys {sorted(unknown)}")


# -- adversarial scheduling ------------------------------------------------


class Adversary:
    """Chooses per-message delays within the model constraints. No policy
    reads the coin: each is coin-blind by construction. The policies that
    look at a package's leader blocks read their depths from the run's
    block table."""

    def __init__(self, scenario: Scenario, schedule, rng: random.Random, table: BlockTable):
        self.scenario = scenario
        self.schedule = schedule
        self.rng = rng
        self.table = table
        self.kind = scenario.adversary["kind"]
        self.uniform = scenario.delays["kind"] == "uniform"
        v = scenario.adversary_settings()
        self.victim, self.min, self.max = v["miner"], v["min"], v["max"]
        self.ticks = 0 if scenario.delays["kind"] == "zero" else v["ticks"]
        self.lag, self.max_pre = v["lag"], v["max_delay"]
        self._victims: dict[int, int] = {}
        # Read once here, as delay runs once per send. Eventual synchrony
        # bounds every delay from GST on, asynchrony none.
        self.stride, self.gst, self.bound = (
            scenario.params.leader_stride, scenario.gst, scenario.delay_bound)
        self.bound_from = scenario.gst if scenario.model == MODEL_ES else float("inf")

    def delay(self, frm: int, to: int, pkg: Package, now: int) -> int:
        """The delay of one send of pkg from frm to to; runs once per send."""
        delay = self.rng.randint(self.min, self.max) if self.uniform else self.ticks
        kind = self.kind
        if kind == "none":
            pass
        elif kind == "pre-gst" and now < self.gst:
            delay = max(delay, self.rng.randint(1, self.max_pre))
        elif kind == "corrupt-leader":
            victim, leader_at = self.victim, self.schedule.leader_at
            if any(b.creator == victim and leader_at(self._depth(b)) == victim
                   for b in pkg.blocks):
                delay += self.lag
        elif kind == "reorder":
            for b in pkg.blocks:
                if b.creator != frm:
                    continue
                d = self._depth(b)
                if d % self.stride == 0 and d > 0 and self._victim_for(d) == frm:
                    delay += self.lag
                    break
        if delay > MAX_DELAY:
            delay = MAX_DELAY
        if now >= self.bound_from and delay > self.bound:
            delay = self.bound
        return delay

    def _depth(self, b: Block) -> int:
        """Depth of a block its sender holds, so the table does too."""
        return self.table.depth[self.table.index[b._id]]

    def _victim_for(self, leader_round: int) -> int:
        if leader_round not in self._victims:
            self._victims[leader_round] = self.rng.randrange(self.scenario.n)
        return self._victims[leader_round]


# -- transcript and metrics ---------------------------------------------------


@dataclass
class Transcript:
    header: dict
    events: list[dict]
    logs: dict[int, dict]  # miner -> {"records": [...], "suppressed": [hex ids]}
    metrics: dict
    # Each create's block by hex id, in create order, so no verifier decodes it again.
    blocks: dict[str, Block] = field(default_factory=dict, init=False)

    def lines(self) -> list[str]:
        out = [json_line(self.header)]
        for ev in self.events:
            ids = ev.get("ids")
            if ids is not None:
                ev = {**ev, "ids": [ids[k:k + HEX_ID] for k in range(0, len(ids), HEX_ID)]}
            out.append(json_line(ev))
        for mid in sorted(self.logs):
            row = {"e": "log", "m": mid}
            row.update(self.logs[mid])
            out.append(json_line(row))
        out.append(json_line({"e": "end", "metrics": self.metrics}))
        return out

    def jsonl(self) -> str:
        return "\n".join(self.lines()) + "\n"

    @property
    def scenario(self) -> Scenario:
        """The header's scenario, validated; raises ScenarioError."""
        try:
            return Scenario.from_dict(self.header.get("scenario"))
        except ScenarioError as exc:
            raise ScenarioError(f"transcript header: {exc}") from None


# The fields the verifiers read from each kind of transcript line.
_LINE_KEYS = {
    "create": ("id", "c", "d", "sig", "enc"), "accept": ("m", "id"),
    "send": ("t", "from", "to", "ids"), "deliver": ("t", "from", "to", "ids"),
    "coin-call": ("t", "m", "r"), "coin-reveal": ("t", "r", "leader"),
    "log": ("m", "records", "suppressed"), "end": ("metrics",),
    "decide": (), "reject": (),
}
_KEY_TYPES = {"id": str, "sig": str, "enc": str, "metrics": dict}


def _field_ok(row: dict, key: str, n: int) -> bool:
    """Whether row[key] holds what the verifiers read it as. No integer is
    read from a bool."""
    value = row[key]
    if key in ("m", "c", "from", "to", "leader"):
        return type(value) is int and 0 <= value < n
    if key in ("t", "r", "d"):
        return type(value) is int
    if key == "records":
        return isinstance(value, list) and all(
            isinstance(r, dict) and isinstance(r.get("block"), str) for r in value)
    if key in ("ids", "suppressed"):
        return isinstance(value, list) and all(isinstance(i, str) for i in value)
    return isinstance(value, _KEY_TYPES[key])


def _create_error(row: dict, blocks: dict[str, Block], depths: dict[str, int],
                  keyring: Keyring) -> str | None:
    """Why a create event is unreadable, repeats an earlier one or disagrees
    with its block, its creator's key and the creates before it, or None,
    when its block joins blocks."""
    if row["id"] in blocks:
        return f"repeats block {row['id'][:12]}"
    try:
        blk = decode_block(bytes.fromhex(row["enc"]), bytes.fromhex(row["sig"]))
    except ValueError:
        return "with a malformed 'enc'"
    bid = blk._hex
    if row["id"] != bid:
        return f"says id {row['id'][:12]}; its block's is {bid[:12]}"
    if not keyring.verify(blk):
        return "with a signature its creator's key did not make"
    pointees = [p.hex() for p in blk.pointers]
    if not all(p in depths for p in pointees):
        return "points at a block that no earlier create defines"
    depth = depths[row["id"]] = 1 + max((depths[p] for p in pointees), default=0)
    if (row["c"], row["d"]) != (blk.creator, depth):
        return f"says creator {row['c']}, depth {row['d']}; its block's are {blk.creator}, {depth}"
    blocks[row["id"]] = blk
    return None


def load_transcript(text: str) -> Transcript:
    """The transcript a JSON-lines text holds; raises ValueError naming the
    line the verifiers could not read or trust, or the miner with no log."""
    rows = []
    for k, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                rows.append((k, json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
    if not (rows and isinstance(rows[0][1], dict)
            and rows[0][1].get("schema") == SCHEMA_TRANSCRIPT):
        raise ValueError("not a transcript file")
    transcript = Transcript(rows[0][1], [], {}, {})
    scenario = transcript.scenario  # rejects a header that is not a valid scenario
    n, keyring = scenario.n, Keyring(scenario.seed, scenario.n)
    depths: dict[str, int] = {}
    accepted: set[tuple[int, str]] = set()
    for k, row in rows[1:]:
        kind = row.get("e") if isinstance(row, dict) else None
        if kind not in _LINE_KEYS:
            raise ValueError(f"line {k}: not a transcript event")
        bad = next((key for key in _LINE_KEYS[kind]
                    if key not in row or not _field_ok(row, key, n)), None)
        if bad:
            raise ValueError(f"line {k}: {kind} event with a missing or malformed {bad!r}")
        problem = kind == "create" and _create_error(row, transcript.blocks, depths, keyring)
        if problem:
            raise ValueError(f"line {k}: create event {problem}")
        if kind in ("send", "deliver"):
            ids = row["ids"]
            if not all(map(transcript.blocks.__contains__, ids)):
                gone = next(i for i in ids if i not in transcript.blocks)
                raise ValueError(f"line {k}: {kind} event names block {gone[:12]} "
                                 f"that no earlier create defines")
            # One string, as the simulator records it: each id is a created
            # block's, HEX_ID long, so lines() splits it back into this array.
            row["ids"] = "".join(ids)
        elif kind == "accept":
            if (row["m"], row["id"]) in accepted:
                raise ValueError(f"line {k}: accept event repeats miner {row['m']}'s "
                                 f"accept of {row['id'][:12]}")
            accepted.add((row["m"], row["id"]))
        if kind == "log":
            if row["m"] in transcript.logs:
                raise ValueError(f"line {k}: log event repeats miner {row['m']}")
            transcript.logs[row["m"]] = {"records": row["records"],
                                         "suppressed": row["suppressed"]}
        elif kind == "end":
            transcript.metrics = row["metrics"]
        else:
            transcript.events.append(row)
    # Stops at the first gap, so the header's n costs no more than the log lines.
    for m in range(n):
        if m not in transcript.logs:
            raise ValueError(f"no log line for miner {m}")
    return transcript


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
        # One table for every miner's store: a block's closure, depth and
        # cordiality are computed by the first store to admit it, and it
        # admits every created block, twins included, in creation order.
        self.table = BlockTable()
        # One transcript for the run: each miner writes its own lines to it.
        self.events: list[dict] = []
        self.miners = [MinerState(i, config, self.schedule, self.events, self.keyring,
                                  self.oracle, self.table)
                       for i in range(scenario.n)]
        self.adversary = Adversary(scenario, self.schedule,
                                   random.Random(f"{scenario.seed}:adversary"), self.table)
        self._byz_rng = {i: random.Random(f"{scenario.seed}:byz:{i}")
                         for i in scenario.byzantine}
        self._mempool = [random.Random(f"{scenario.seed}:mempool:{i}")
                         for i in range(scenario.n)]
        # Each tick's events, (frm, to, pkg) or a miner id to poke, in push order.
        self._due: dict[int, list] = {}
        self._ticks: list[int] = []  # a heap of the keys of _due
        self.messages_sent = 0
        self.bytes_sent = 0
        self._reveals_seen = 0
        self._timer_poke: set[int] = set()
        # Liveness is an eventual property: if unlucky leader draws leave the
        # horizon uncovered at quiescence, the run extends wave by wave
        # (bounded) until an anchor reaches the horizon. Metrics stay pinned
        # to the configured horizon.
        self.create_cap = scenario.create_cap
        self._extensions = 25

    # -- one miner's turn ---------------------------------------------------

    def _attempt(self, m: MinerState, now: int) -> bool:
        """Make miner m's next block if the proceed rule lets it, and send
        it; False when it waits. The Byzantine behaviours differ only here: a
        silent miner never proceeds, a crashing one makes no block deeper
        than its crash round, and an equivocator, at its rate, forks."""
        spec = self.scenario.byzantine.get(m.id)
        kind = None if spec is None else spec.behavior
        if kind == "silent":
            return False
        cap = min(self.create_cap, spec.round) if kind == "crash" else self.create_cap
        r = m.can_proceed(now, cap)
        if r is None:
            return False
        if kind == "equivocate" and self._byz_rng[m.id].random() < spec.rate:
            self._equivocate(m, now, r)
        else:
            _, sends = m.step(now, self.next_payload(m.id), r)
            self._poll_reveals(now)
            for q, pkg in sends:
                self.send(now, m.id, q, pkg)
        return True

    def _equivocate(self, m: MinerState, now: int, r: int) -> None:
        """Two conflicting blocks over round r, each sent with its closure
        to one half of the peers, so both halves spread and detection is
        prompt."""
        blk = m.store.create_block(m.id, self.next_payload(m.id), r)
        payload = self.next_payload(m.id)
        if payload == blk.payload:  # an empty payload would repeat the block
            payload += b"\0"
        twin = self.keyring.sign(make_block(m.id, payload, blk.pointers))
        m.store.insert(twin)
        bid, tid = block_id(blk), block_id(twin)
        for b in (bid, tid):
            m.note_create(b, now)
            self._poll_reveals(now)
        peers = [q for q in range(self.scenario.n) if q != m.id]
        half = (len(peers) + 1) // 2
        for q in peers[:half]:
            self.send(now, m.id, q, m.closure_package(q, bid))
        for q in peers[half:]:
            self.send(now, m.id, q, m.closure_package(q, tid))
        m.last_send = now

    def next_payload(self, mid: int) -> bytes:
        size = self.scenario.batch_size * self.scenario.payload_size
        return self._mempool[mid].randbytes(size)

    def send(self, now: int, frm: int, to: int, pkg: Package) -> None:
        """Schedule pkg's delivery from frm to to. Each send draws its own
        delay; its event holds the package's own size and ids."""
        self.messages_sent += 1
        self.bytes_sent += pkg.size
        delay = self.adversary.delay(frm, to, pkg, now)
        self.events.append({"e": "send", "t": now, "from": frm, "to": to,
                            "ids": pkg.ids, "bytes": pkg.size})
        self._push(now + delay, (frm, to, pkg))

    def _push(self, t: int, event) -> None:
        due = self._due.get(t)
        if due is None:
            self._due[t] = [event]
            heapq.heappush(self._ticks, t)
        else:
            due.append(event)

    def _poll_reveals(self, now: int) -> None:
        """After each miner call: a coin-reveal line for each coin its
        requests revealed, and a poke of every miner at now."""
        if self.oracle is not None:
            reveals = self.oracle.reveal_log
            while self._reveals_seen < len(reveals):
                r, v = reveals[self._reveals_seen]
                self._reveals_seen += 1
                self.events.append({"e": "coin-reveal", "t": now, "r": r, "leader": v})
                for other in self.miners:
                    self._push(now, other.id)

    # -- main loop ---------------------------------------------------------

    def run(self) -> Transcript:
        t = 0
        guard = 0
        while True:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("simulation did not quiesce")
            progressed = True
            while progressed:
                progressed = self._drain(t)
                if self._step_phase(t):
                    progressed = True
            if not self._ticks:
                if self._extend(t):
                    continue
                break
            t = self._ticks[0]
        return self._finish(t)

    def _extend(self, t: int) -> bool:
        """Allow another wave of block creation when no anchor has reached
        the horizon yet (unlucky Byzantine leader draws)."""
        if self._extensions <= 0:
            return False
        observer = self.miners[self.scenario.correct_miners()[0]]
        if observer.log.current_round >= self.scenario.rounds:
            return False
        self._extensions -= 1
        self.create_cap += self.params.wave_length
        return True

    def _drain(self, t: int) -> bool:
        due = self._due.get(t)
        if due is None:
            return False
        for event in due:  # also reaches the events pushed at t meanwhile
            if type(event) is int:
                self._timer_poke.discard(event)
                self.miners[event].poke(t)
            else:
                frm, to, pkg = event
                self.events.append({"e": "deliver", "t": t, "from": frm, "to": to,
                                    "ids": pkg.ids})
                self.miners[to].on_receive(pkg, t)
            self._poll_reveals(t)
        del self._due[heapq.heappop(self._ticks)]  # pops t, the earliest tick
        return True

    def _step_phase(self, t: int) -> bool:
        did = False
        for m in self.miners:
            while self._attempt(m, t):
                did = True
            self._maybe_schedule_timer(t, m)
        return did

    def _maybe_schedule_timer(self, t: int, m: MinerState) -> None:
        """If an ES miner that cannot proceed at t (its last _attempt
        returned False) is blocked only on its timer, wake it when ready."""
        if self.scenario.model != MODEL_ES or self.scenario.delta == 0:
            return
        if m.id in self._timer_poke or m.id in self.scenario.byzantine:
            return
        ready = m.last_send + self.scenario.delta
        if ready > t and m.can_proceed(ready, self.create_cap) is not None:
            self._timer_poke.add(m.id)
            self._push(ready, m.id)

    # -- wrap-up -------------------------------------------------------------

    def _finish(self, end_time: int) -> Transcript:
        metrics = self._metrics(end_time)
        header = {"schema": SCHEMA_TRANSCRIPT, "scenario": self.scenario.to_dict()}
        logs = {m.id: {"records": _log_records(m),
                       "suppressed": sorted(m.store.get(b)._hex for b in m.log.suppressed)}
                for m in self.miners}
        transcript = Transcript(header, self.events, logs, metrics)
        transcript.blocks = {blk._hex: blk for blk in self.table.blocks}
        return transcript

    def _metrics(self, end_time: int) -> dict:
        sc = self.scenario
        stride = self.params.leader_stride
        wave = self.params.wave_length
        correct = sc.correct_miners()
        observer = correct[0]
        latencies: list[int] = []
        decided_rounds: list[int] = []
        prev = 0
        for r, trigger in self.miners[observer].decisions:
            # The leader rounds of the horizon strictly between prev and r.
            skipped = max(0, min(r - 1, sc.rounds) // stride - prev // stride)
            if r <= sc.rounds:
                latencies.append(trigger - r + 1 + wave * skipped)
                decided_rounds.append(r)
            prev = r
        # Payload units per block, once: every miner's store shares the table.
        size, table = sc.payload_size, self.table
        units = {bid: len(blk.payload) // size if size else 0
                 for bid, blk in zip(table.ids, table.blocks)}
        per_miner = {i: sum(map(units.__getitem__, self.miners[i].log.delivered))
                     for i in correct}
        payloads, unique_payloads = sum(per_miner.values()), per_miner[observer]
        return {
            "schema": SCHEMA_METRICS,
            "scenario": sc.to_dict(),
            "end_time": end_time,
            "decisions": len(decided_rounds),
            "decided_rounds": decided_rounds,
            "commit_latencies": latencies,
            "mean_commit_latency": round(statistics.fmean(latencies), 6) if latencies else None,
            "p50_commit_latency": statistics.median(latencies) if latencies else None,
            "waves_decided": len(decided_rounds),
            "waves_skipped": sc.rounds // stride - len(decided_rounds),
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "blocks_delivered": sum(len(self.miners[i].log.delivered) for i in correct),
            "payloads_delivered": payloads,
            "unique_payloads_delivered": unique_payloads,
            "bytes_per_delivery": round(self.bytes_sent / payloads, 6) if payloads else None,
            "bytes_per_unique_payload": round(self.bytes_sent / unique_payloads, 6)
            if unique_payloads else None,
            "max_round": max((m.store.max_depth() for m in self.miners), default=0),
        }


def _log_records(m: MinerState) -> list[dict]:
    """One transcript record per block m delivered, in delivery order."""
    t = m.store.table
    index, blocks, creators, depths = t.index, t.blocks, t.creator, t.depth
    return [{"position": k, "block": blocks[i := index[b]]._hex, "creator": creators[i],
             "depth": depths[i], "leader_round": r}
            for k, (b, r) in enumerate(zip(m.log.delivered, m.log.leader_rounds))]


def run(scenario: Scenario) -> Transcript:
    """Execute one scenario; identical scenarios yield identical transcripts."""
    return Simulation(scenario).run()
