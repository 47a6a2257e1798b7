"""Run properties checked apart from the library's store.

Reachability is rebuilt here from the blocks a transcript records, with ids
recomputed from the recorded encodings, so a fault in the store's closure
bitmasks cannot hide itself from these checks.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

# Leader stride and good-case commit latency of each protocol instance.
GOOD_CASE = {"eventual-synchrony": (2, 3), "asynchrony": (5, 6)}


class Lattice:
    """Every block a transcript records, with parents, depth and the set of
    blocks each one reaches (itself included) as a bitmask over local
    indices."""

    def __init__(self, transcript, decode_block):
        self.index: dict[str, int] = {}
        self.creator: list[int] = []
        self.parents: list[tuple[int, ...]] = []
        self.depth: list[int] = []
        self.reach: list[int] = []
        for ev in transcript.events:
            if ev["e"] != "create" or ev["id"] in self.index:
                continue
            enc = bytes.fromhex(ev["enc"])
            if hashlib.sha256(enc).hexdigest() != ev["id"]:
                raise ValueError(f"block {ev['id'][:12]}: id does not match its encoding")
            blk = decode_block(enc)
            try:
                parents = tuple(self.index[p.hex()] for p in blk.pointers)
            except KeyError:
                raise ValueError(f"block {ev['id'][:12]} points at an unrecorded block") from None
            i = len(self.creator)
            self.index[ev["id"]] = i
            self.creator.append(blk.creator)
            self.parents.append(parents)
            self.depth.append(1 + max((self.depth[p] for p in parents), default=0))
            mask = 1 << i
            for p in parents:
                mask |= self.reach[p]
            self.reach.append(mask)

    def reaches(self, a: int, b: int) -> bool:
        return bool((self.reach[a] >> b) & 1)


def _correct_miners(header: dict) -> list[int]:
    sc = header["scenario"]
    byz = {int(k) for k in sc.get("byzantine", {})}
    return [i for i in range(sc["n"]) if i not in byz]


def check_prefix_consistency(sequences: dict[int, list[str]]) -> list[str]:
    out = []
    for i, j in combinations(sorted(sequences), 2):
        a, b = sequences[i], sequences[j]
        k = next((k for k in range(min(len(a), len(b))) if a[k] != b[k]), None)
        if k is not None:
            out.append(f"miners {i} and {j} diverge at position {k}")
    return out


def check_no_equivocating_pair(lat: Lattice, mid: int, seq: list[str]) -> list[str]:
    """Blocks of one creator in a sequence must form a chain. Depth grows
    along every pointer, so it is enough that each block reaches the one
    just below it in depth; two at one depth are an equivocating pair."""
    by_creator: dict[int, list[int]] = {}
    for h in seq:
        i = lat.index[h]
        by_creator.setdefault(lat.creator[i], []).append(i)
    out = []
    for c, idxs in sorted(by_creator.items()):
        idxs.sort(key=lambda i: lat.depth[i])
        for lo, hi in zip(idxs, idxs[1:]):
            if not lat.reaches(hi, lo):
                out.append(f"miner {mid} delivered an equivocating pair by creator {c} "
                           f"at depths {lat.depth[lo]} and {lat.depth[hi]}")
                break
    return out


def check_pointees_first(lat: Lattice, mid: int, seq: list[str]) -> list[str]:
    pos = {lat.index[h]: k for k, h in enumerate(seq)}
    for k, h in enumerate(seq):
        for p in lat.parents[lat.index[h]]:
            if pos.get(p, -1) > k:
                return [f"miner {mid} delivered position {k} before its pointee "
                        f"at position {pos[p]}"]
    return []


def check_good_case(transcript, correct: list[int]) -> list[str]:
    """Every leader round up to the horizon decides at every correct miner,
    each with exactly the good-case latency."""
    sc = transcript.header["scenario"]
    stride, latency = GOOD_CASE[sc["model"]]
    want = list(range(stride, sc["rounds"] + 1, stride))
    decided: dict[int, list[int]] = {m: [] for m in correct}
    out = []
    for ev in transcript.events:
        if ev["e"] != "decide" or ev["m"] not in decided or ev["round"] > sc["rounds"]:
            continue
        decided[ev["m"]].append(ev["round"])
        got = ev["trigger"] - ev["round"] + 1
        if got != latency:
            out.append(f"miner {ev['m']}: round {ev['round']} decided with latency "
                       f"{got}, not {latency}")
    for m, rounds in decided.items():
        if rounds != want:
            missing = sorted(set(want) - set(rounds))
            out.append(f"miner {m}: leader rounds {missing[:5]} did not decide")
    return out


def check_run(transcript, decode_block, good_case: bool) -> list[str]:
    """Every property that fails on one transcript, as readable lines."""
    correct = _correct_miners(transcript.header)
    try:
        lat = Lattice(transcript, decode_block)
        sequences = {m: [r["block"] for r in transcript.logs[m]["records"]] for m in correct}
        unknown = [h for seq in sequences.values() for h in seq if h not in lat.index]
    except (KeyError, ValueError) as exc:
        return [f"transcript unreadable: {exc}"]
    if unknown:
        return [f"delivered block {unknown[0][:12]} was never created"]
    out = check_prefix_consistency(sequences)
    for m, seq in sequences.items():
        out += check_no_equivocating_pair(lat, m, seq)
        out += check_pointees_first(lat, m, seq)
    if good_case:
        out += check_good_case(transcript, correct)
    return out
