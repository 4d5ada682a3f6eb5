"""Generator of the `wide` workload: a synthetic 1024-habitat ecosystem.

The config is a pure function of a seed, which is also its run seed. It
follows the shape of the shipped `two_communities.json`, scaled up: 64
communities of 16 habitats, two services per habitat (ids unique across
habitats), a local and a pair request template per habitat, a `random_m`
initial topology with m=3, population 8, a generation budget of 2 and one
community-sized failure at mid-run. The seed picks each habitat's reliabilities, prices and pair
partner, and the community that fails.
"""

from __future__ import annotations

import json

COMMUNITIES = 64
COMMUNITY_SIZE = 16
EPOCHS = 20
FAILURE_EPOCH = EPOCHS // 2

_MASK64 = (1 << 64) - 1


class _SplitMix64:
    """The benchmark's own input generator, independent of the program's RNG."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64


def _service(sid, attr, in_port, out_port, price, reliability):
    return {"id": sid, "attrs": [attr], "in_port": in_port, "out_port": out_port,
            "price": price, "reliability": reliability}


def _template(rid, attrs):
    return {"weight": 1.0,
            "request": {"id": rid, "req_attrs": attrs, "source_port": "raw",
                        "sink_port": "done", "max_len": 3}}


def wide_config(seed: int) -> dict:
    """The `wide` config object for a workload seed."""
    rng = _SplitMix64(seed ^ 0x77696465)  # "wide"
    habitats = []
    for c in range(COMMUNITIES):
        for i in range(COMMUNITY_SIZE):
            hid = f"c{c:02d}h{i:02d}"
            partner = (i + 1 + rng.below(COMMUNITY_SIZE - 1)) % COMMUNITY_SIZE
            services = [
                _service(f"{hid}_s{k}", f"{tag}c{c:02d}h{i:02d}", src, dst,
                         [1.0, 1.5, 2.0][rng.below(3)], 0.93 + 0.01 * rng.below(7))
                for k, (tag, src, dst) in enumerate((("p", "raw", "mid"),
                                                     ("q", "mid", "done")), start=1)
            ]
            habitats.append({
                "id": hid,
                "catalog": services,
                "profile": [
                    _template(f"{hid}_local", [f"pc{c:02d}h{i:02d}", f"qc{c:02d}h{i:02d}"]),
                    _template(f"{hid}_pair", [f"pc{c:02d}h{partner:02d}",
                                              f"qc{c:02d}h{i:02d}"]),
                ],
            })
    failed = rng.below(COMMUNITIES)
    return {
        "seed": seed,
        "epochs": EPOCHS,
        "evolution": {"population_size": 8, "generation_budget_per_epoch": 2},
        "ecosystem": {"p_mig": 0.2, "reinforce_delta": 0.1, "decay_lambda": 0.99,
                      "w_min": 0.01},
        "scenario": {
            "initial_topology": {"kind": "random_m", "m": 3},
            "habitats": habitats,
        },
        "failures": [{"epoch": FAILURE_EPOCH,
                      "victims": [f"c{failed:02d}h{i:02d}" for i in range(COMMUNITY_SIZE)]}],
    }


def wide_config_bytes(seed: int) -> bytes:
    return (json.dumps(wide_config(seed), indent=1, sort_keys=True) + "\n").encode("utf-8")
