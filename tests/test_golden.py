"""Golden transcripts: the SHA-256 of ``run(scenario).jsonl()`` is pinned for
a fixed scenario set covering both models, n in {4, 7, 10, 16, 31}, every
adversary kind, and every Byzantine behaviour. A refactor that claims to keep
behaviour must leave every digest unchanged; a deliberate behaviour change
updates the digests in the same commit and says why. Each transcript also
reads back as itself: the same events in memory, and the same text written
again. The equivocation, crash and reorder scenarios send multi-block
packages, whose ids the writer splits into arrays and the reader joins."""

from __future__ import annotations

import hashlib

import pytest

from blocklace.simnet import ByzSpec, Scenario, load_transcript, run

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
    "es-n7": "21db183493d0bfca3489a8599580c2c292276a647253492054d83e5d6813c947",
    "es-n10-timer": "ea8f4777f7ccfaa0503e6aa45a2a751a5bc37488933fe6618aa9a44bc569a48d",
    "es-n16": "59550095506ad499e9b10410a9c3f341b512700b922e3440966d7d0a32408fc0",
    "async-n4": "4fd7f94536278aa0847df1817445d3449e1250a7c9a108fa91f8605f3650f8c7",
    "async-n7": "b25e2fbfa389bdb2b2d16177bd37a54dba7bb01858df37f03a2bc406b6d2536b",
    "async-n10": "c4d4903f4efce30975282f2f3caa04ef06c05c7c21f0813a8255b5768b7c527c",
    "async-n16": "f4063f0c0ec2c7eb192a296c76b505d837c237da9d3bf101c70c00b971246719",
    "es-uniform-0-4": "19ba895d77cd81825d7a69c1b443ca04fc24d9fbd8a1434f9f44188e998eee48",
    "es-pre-gst": "bead11807febe3282aeb1f515eb14a596962bb02782cd918db79dfaea0328b04",
    "es-corrupt-leader": "24246122fb4ac7c63cde9459e56e41437ba961179cdc27e551eb2f128a28abe9",
    "async-reorder": "d45098a81760956ac63e5431f09f1497d975302b18152b5961e9711f1d4f0cb8",
    "async-n7-uniform": "5aec0acf2d7cae8198881397723e8d8d8715af24f3335918044e729704175955",
    "es-equivocate-0.5": "ddbcd05061f5509b942b8e1e5a71eba9512662556fae0981989b17351accac8f",
    "async-equivocate-1.0": "0ab1d925654c8f9f4e7cfded961cb072271c5e7f913bad0389ec82d70564d737",
    "es-equivocate-1.0": "23ddf9435b9b2c7938b8216036c7513eec0cd784050eef82d387eabf2949f2d7",
    "es-crash": "84939a944e7168fe37e15732212f5fa9fe66da883683c8b652cdaf97bd295a9a",
    "async-silent": "755365113cd11580d65a9eed8a07f9b74006ed3a6504c8952d0637a3fec6bd2c",
    "es-zero-timer": "49d2ece13fdf0e1716d97ad533f34373b8d1f43c72cc68db99deff268991767a",
    "async-zero-equivocate": "25b0f73a27995bb0552687cee90c86474061f328bdb16fd69127fe46d39141c9",
    "es-n31": "126ec988fd526a1b800803b3bd8937b710518dbf7863dc443c8f02c2c69dab46",
    "async-n16-equivocate-crash":
        "12810415eefcdbd82d3f94841f7906e1a9f021ee57988a562b3e1dce71018a2e",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_transcript(name):
    t = run(SCENARIOS[name])
    text = t.jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    again = load_transcript(text)
    assert again.events == t.events
    assert again.jsonl() == text
