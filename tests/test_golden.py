"""Golden transcripts: the SHA-256 of ``run(scenario).jsonl()`` is pinned for
a fixed scenario set covering both models, n in {4, 7, 10, 16, 31}, every
adversary kind, and every Byzantine behaviour. A refactor that claims to keep
behaviour must leave every digest unchanged; a deliberate behaviour change
updates the digests in the same commit and says why."""

from __future__ import annotations

import hashlib

import pytest

from blocklace.simnet import ByzSpec, Scenario, run

ASYNC = "asynchrony"
UNIFORM = {"kind": "uniform", "min": 1, "max": 3}
# Zero delays put sends, timer pokes and coin-reveal pokes on the tick that
# pushed them, so these runs pin the simulator's order of same-tick events.
ZERO = {"kind": "zero"}

SCENARIOS = {
    "es-n4": Scenario(n=4, f=1, rounds=24, seed=1),
    "es-n7": Scenario(n=7, f=2, rounds=16, seed=2, delays=UNIFORM),
    "es-n10-timer": Scenario(n=10, f=3, rounds=12, seed=3, delta=2),
    "es-n16": Scenario(n=16, f=5, rounds=8, seed=4),
    "async-n4": Scenario(n=4, f=1, model=ASYNC, rounds=20, seed=1, delays=UNIFORM),
    "async-n7": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=2),
    "async-n10": Scenario(n=10, f=3, model=ASYNC, rounds=10, seed=3, delays=UNIFORM),
    "async-n16": Scenario(n=16, f=5, model=ASYNC, rounds=10, seed=4),
    "es-uniform-0-4": Scenario(rounds=20, seed=5,
                               delays={"kind": "uniform", "min": 0, "max": 4}),
    "es-pre-gst": Scenario(n=7, f=2, rounds=16, seed=6, gst=10, delay_bound=4,
                           adversary={"kind": "pre-gst", "max_delay": 9}),
    "es-corrupt-leader": Scenario(rounds=20, seed=7, delays=UNIFORM,
                                  adversary={"kind": "corrupt-leader", "lag": 3}),
    "async-reorder": Scenario(model=ASYNC, rounds=20, seed=8, delays=UNIFORM,
                              adversary={"kind": "reorder", "lag": 2}),
    "async-n7-uniform": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=9,
                                 delays=UNIFORM),
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
    "es-zero-timer": Scenario(rounds=16, seed=15, delta=2, delays=ZERO),
    "async-zero-equivocate": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=16, delays=ZERO,
                                      byzantine={4: ByzSpec("equivocate", rate=0.5)}),
    # The largest committees: their miners share the most table-kept
    # verdicts and fragments (a twin's suppression included).
    "es-n31": Scenario(n=31, f=10, rounds=10, seed=17),
    "async-n16-equivocate-crash": Scenario(n=16, f=5, model=ASYNC, rounds=20, seed=2,
                                           delays=UNIFORM,
                                           byzantine={3: ByzSpec("equivocate", rate=0.5),
                                                      9: ByzSpec("crash", round=6)}),
}

DIGESTS = {
    "es-n4": "40f398681a4c0e0a1449d3d129b8146a75431ff41b9c83388f80e8c7c2eb5802",
    "es-n7": "8d4fa7a33dc4fc95d531aa1b975106667ec2bfd068041435ab03ef9fa80608dd",
    "es-n10-timer": "ea8f4777f7ccfaa0503e6aa45a2a751a5bc37488933fe6618aa9a44bc569a48d",
    "es-n16": "59550095506ad499e9b10410a9c3f341b512700b922e3440966d7d0a32408fc0",
    "async-n4": "d5365f38b33e4eb04c5402f7eff616b709aa3f09dd6a3234936e67a81bfb6f5b",
    "async-n7": "b25e2fbfa389bdb2b2d16177bd37a54dba7bb01858df37f03a2bc406b6d2536b",
    "async-n10": "538feb3c4375a5f4ecded967ebe4d141ef437e08fd8688f9f483ddb8f8d9c567",
    "async-n16": "f4063f0c0ec2c7eb192a296c76b505d837c237da9d3bf101c70c00b971246719",
    "es-uniform-0-4": "f0c59d59cabc751dc4850bb7504841070ce3954fc8052fb424350c0d0fef76d9",
    "es-pre-gst": "2cde3885e13ec0364fa3f45a2445470b2b441223587cb8e284f29c4af00406a7",
    "es-corrupt-leader": "61f54226a8b3981da8d6218ed9fa2000f36abf674f144cfbdb1ad74bce50773c",
    "async-reorder": "061c053b28ed2f2022f66790b8dcc839e7aedb257cb1cb1bc4c64072295ba603",
    "async-n7-uniform": "a3fd64f540cd2c4952a23b323e777514f83ea50fb727321d9b1159d3929b0317",
    "es-equivocate-0.5": "bbaa10b5aeb0ec51f8a71ad03cb6f43e31827090463fc4fb86962f8376699f6b",
    "async-equivocate-1.0": "c95d1c9a57eb42714ad63a27d2006f5ef91289df44942508d269f379170e9745",
    "es-equivocate-1.0": "59d369f1ce89082420f67f9fedb9d071592c46bd44e6c02720892be510486621",
    "es-crash": "301ff8a6eda712d20cb9dd8993a523f3647096132c7518b4c34a1a7a6977b581",
    "async-silent": "755365113cd11580d65a9eed8a07f9b74006ed3a6504c8952d0637a3fec6bd2c",
    "es-zero-timer": "49d2ece13fdf0e1716d97ad533f34373b8d1f43c72cc68db99deff268991767a",
    "async-zero-equivocate": "25b0f73a27995bb0552687cee90c86474061f328bdb16fd69127fe46d39141c9",
    "es-n31": "126ec988fd526a1b800803b3bd8937b710518dbf7863dc443c8f02c2c69dab46",
    "async-n16-equivocate-crash":
        "217aecde1792e52d9d2f448e07927f55a22798bcabf7f7db978dc9a40592412e",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_transcript(name):
    got = hashlib.sha256(run(SCENARIOS[name]).jsonl().encode()).hexdigest()
    assert got == DIGESTS[name]
