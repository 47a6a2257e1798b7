"""DOT rendering of a blocklace: one node per block labeled creator@depth,
one edge per pointer, leaders highlighted, equivocations double-bordered."""

from __future__ import annotations

from .blocks import block_id
from .store import BlockStore


def render_dot(store: BlockStore, schedule, max_round: int) -> str:
    chosen = [bid for bid in store.accepted_ids()
              if store.depth_of(bid) <= max_round]
    chosen_set = set(chosen)
    lines = ["digraph blocklace {", "  rankdir=BT;", "  node [shape=box];"]
    equivocating = _equivocating_blocks(store, chosen)
    by_depth: dict[int, list[bytes]] = {}
    for bid in chosen:
        by_depth.setdefault(store.depth_of(bid), []).append(bid)
    for depth in sorted(by_depth):
        rank = []
        for bid in sorted(by_depth[depth]):
            creator = store.creator_of(bid)
            name = f"b{bid.hex()[:12]}"
            rank.append(name)
            attrs = [f'label="{creator}@{depth}\\n{bid.hex()[:8]}"']
            if schedule.leader_at(depth) == creator:
                attrs.append("style=filled")
                attrs.append("fillcolor=lightblue")
            if bid in equivocating:
                attrs.append("peripheries=2")
                attrs.append("color=red")
            lines.append(f"  {name} [{', '.join(attrs)}];")
        lines.append("  { rank=same; " + "; ".join(rank) + "; }")
    for bid in chosen:
        name = f"b{bid.hex()[:12]}"
        for ptr in store.get(bid).pointers:
            if ptr in chosen_set:
                lines.append(f"  {name} -> b{ptr.hex()[:12]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _equivocating_blocks(store: BlockStore, chosen) -> set[bytes]:
    out: set[bytes] = set()
    by_creator: dict[int, list[bytes]] = {}
    for bid in chosen:
        if store.is_faulty(store.creator_of(bid)):  # only equivocators fork
            by_creator.setdefault(store.creator_of(bid), []).append(bid)
    for blocks in by_creator.values():
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                if store.is_equivocation(a, b):
                    out.add(a)
                    out.add(b)
    return out
