"""Golden transcripts: the SHA-256 of ``run(scenario).jsonl()`` is pinned for
a fixed scenario set covering both models, n in {4, 7, 10, 16}, every
adversary kind, and every Byzantine behaviour. A refactor that claims to keep
behaviour must leave every digest unchanged; a deliberate behaviour change
updates the digests in the same commit and says why."""

from __future__ import annotations

import hashlib

import pytest

from blocklace.simnet import ByzSpec, Scenario, run

ASYNC = "asynchrony"
UNIFORM = {"kind": "uniform", "min": 1, "max": 3}

SCENARIOS = {
    "es-n4": Scenario(n=4, f=1, rounds=24, seed=1),
    "es-n7": Scenario(n=7, f=2, rounds=16, seed=2, delays=UNIFORM),
    "es-n10-timer": Scenario(n=10, f=3, rounds=12, seed=3, delta=2),
    "es-n16": Scenario(n=16, f=5, rounds=8, seed=4),
    "async-n4": Scenario(n=4, f=1, model=ASYNC, rounds=20, seed=1, delays=UNIFORM),
    "async-n7": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=2),
    "async-n10": Scenario(n=10, f=3, model=ASYNC, rounds=10, seed=3, delays=UNIFORM),
    "async-n16": Scenario(n=16, f=5, model=ASYNC, rounds=10, seed=4),
    "es-random-delay": Scenario(rounds=20, seed=5,
                                delays={"kind": "uniform", "min": 0, "max": 4},
                                adversary={"kind": "random-delay"}),
    "es-pre-gst": Scenario(n=7, f=2, rounds=16, seed=6, gst=10, delay_bound=4,
                           adversary={"kind": "pre-gst", "max_delay": 9}),
    "es-corrupt-leader": Scenario(rounds=20, seed=7, delays=UNIFORM,
                                  adversary={"kind": "corrupt-leader", "lag": 3}),
    "async-reorder": Scenario(model=ASYNC, rounds=20, seed=8, delays=UNIFORM,
                              adversary={"kind": "reorder", "lag": 2}),
    "async-random-delay": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=9,
                                   delays=UNIFORM, adversary={"kind": "random-delay"}),
    "es-equivocate-0.5": Scenario(n=7, f=2, rounds=16, seed=10, delays=UNIFORM,
                                  byzantine={6: ByzSpec("equivocate", rate=0.5)}),
    "async-equivocate-1.0": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=11,
                                     delays=UNIFORM,
                                     adversary={"kind": "reorder", "lag": 2},
                                     byzantine={2: ByzSpec("equivocate", rate=1.0)}),
    "es-equivocate-1.0": Scenario(rounds=16, seed=12, delays=UNIFORM,
                                  adversary={"kind": "corrupt-leader", "lag": 2},
                                  byzantine={3: ByzSpec("equivocate", rate=1.0)}),
    "es-crash": Scenario(n=7, f=2, rounds=16, seed=13, delays=UNIFORM,
                         byzantine={5: ByzSpec("crash", round=4),
                                    6: ByzSpec("crash", round=7)}),
    "async-silent": Scenario(model=ASYNC, rounds=15, seed=14, delays=UNIFORM,
                             byzantine={3: ByzSpec("silent")}),
}

DIGESTS = {
    "es-n4": "4214604e63978c36caf55d45dfe6d1a0254a268dd49124b19d8f29dba0fc5135",
    "es-n7": "c16a655fe5de50f1fa0d83347e9198f58829d562a15f1c090215d8f4c3c418ac",
    "es-n10-timer": "01219a20f125eedbf76f69aa61dfd944a0aab0e3095c4ddfed0c4e453481a75c",
    "es-n16": "e6e857d0964eac39654da5bd5692e5c04e8a40cd5d78f7d219c654ec10a1428b",
    "async-n4": "bdbb00f1b18b4ffdac8a441cabab16633b0de6967431c40f610c1f762c891a1c",
    "async-n7": "be0dd7495f6ee488cc36ef0a7a048d81faa93ca07902297bcf156bceea092565",
    "async-n10": "97f6d66589dccbdc8c013f56852d3af7a0b80473dbae24149d2eaaedeb179bd9",
    "async-n16": "93f381fea332a0b8b06e829687cc592fe6f90976fe29f162c3a092fa361d4abf",
    "es-random-delay": "8dfbf9a296ede3c5fc8978b66b0046d1ae9b7c0a497c670a318c005d12030d6d",
    "es-pre-gst": "297e7d1e0f69a04521f23ec966da92856918d8a6d44ff4625cf4bb3f35995f52",
    "es-corrupt-leader": "5445fccbea98175fd91e5aaddb510a18b6f5a4a412de8f03ecd45df2a0b2de6a",
    "async-reorder": "3ab421e53af20dfa4d75ee64e213df7c5d517e5c5b55ce6b0c6171158174c076",
    "async-random-delay": "970e86beb6ff55422fb22955c8cde227d84128b1c2293059d7e2807cc3a396ad",
    "es-equivocate-0.5": "8b8b00de6a84eb5b1358da62cb842a19c2b1279b78c1fd445f15f9ee559d2875",
    "async-equivocate-1.0": "ce646a74325bbee4f89e58d1bd7a526948ae0966011c37275b75347927bbd1fb",
    "es-equivocate-1.0": "d012412b973e1585b2c82fac6afadcc5effcf90889a6a42575ace1eb67ac5420",
    "es-crash": "8893040818033150b666e5d7786901646a8f037e35a1fc7ccb5022e9a0b74629",
    "async-silent": "eeddc8d0d1e0ddd83c281af2bf76272439fb76b01ba86c8730d3517128a4f6da",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_transcript(name):
    got = hashlib.sha256(run(SCENARIOS[name]).jsonl().encode()).hexdigest()
    assert got == DIGESTS[name]
