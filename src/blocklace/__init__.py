"""Blocklace-based Byzantine atomic broadcast: the partially ordered block
store, equivocation-excluding total ordering, leader election, the per-miner
protocol, and a deterministic adversarial network simulator."""

from .blocks import Block, Keyring, block_id, decode_block, encode_block, make_block
from .leaders import CoinOracle, LeaderSchedule
from .miner import MinerState, Package, ProtocolConfig
from .ordering import (
    ASYNC_PARAMS,
    ES_PARAMS,
    DeliveryLog,
    WaveParams,
    extend_delivery,
    params_for,
    reference_order,
    super_ratified_leader,
    topo_sorted,
)
from .simnet import ByzSpec, Scenario, Transcript, run
from .store import AcceptResult, BlockStore

__all__ = [
    "ASYNC_PARAMS",
    "AcceptResult",
    "Block",
    "BlockStore",
    "ByzSpec",
    "CoinOracle",
    "DeliveryLog",
    "ES_PARAMS",
    "Keyring",
    "LeaderSchedule",
    "MinerState",
    "Package",
    "ProtocolConfig",
    "Scenario",
    "Transcript",
    "WaveParams",
    "block_id",
    "decode_block",
    "encode_block",
    "extend_delivery",
    "make_block",
    "params_for",
    "reference_order",
    "run",
    "super_ratified_leader",
    "topo_sorted",
]
