"""Golden digests: the determinism contract pinned to checked-in bytes.

Two runs in one process agreeing (criterion 8) cannot catch a change that
reorders random draws or float accumulation; these sha256 digests can. A
digest may change only in a change that means to change behaviour, with a
CHANGES.md entry saying why.
"""

import hashlib
import json
import os

import pytest

from conftest import asset_path
from dbesim import cli, engine
from dbesim.config import parse_config, serialize_snapshot

OUTPUTS = ("events.jsonl", "metrics.csv", "snapshot.json")

GOLDEN = {
    "two_communities": {
        "events.jsonl": "19b07ae9ff0d95623374f43a9417b813e28a90434b0a01fcd2305818fd32dd38",
        "metrics.csv": "81d8415a6c6469644c51a47511def3b78c6125af8752a81fa0753e6a1eca7751",
        "snapshot.json": "0b428f8bc3a687b20d4322e7bc77c9138b9fc1975b167c7b00ae56f0931cb23a",
    },
    "bridged24": {
        "events.jsonl": "6fed9faf5eb8936f7486b599061c37dea6a719ff2dd2f15a9712adf59738b63c",
        "metrics.csv": "4486f89541e9d2ec6ad3beb9ca0951b96433cc0f1ad0b4edcad79aa5bfcbe9d5",
        "snapshot.json": "96d31edb7e3cb1d1cb3a8401c11c22c3f81b6129ac21a4dae58b77168e016a6e",
    },
    "topology_experiment": {
        "degrees.csv": "4d2c65b8f92932a7c3e4e4b442808ffc20b2b4f1c0249794ea5c26d55b666434",
        "trajectory.csv": "80f617319c263f0bdbda4e68ae2a7379648f2f2fe34c94ed99a3970573019273",
        "business.dot": "b7bd974a634e837d35b5bf130e7f1bd12d4b6ff6648356a42390fba1708e5baa",
    },
}

# Build seed 259 gives c2h1 a neighbourhood that these victims cut off
# completely: self_heal must bridge it to c0h0 at the weight floor.
BRIDGED_SEED = 259
BRIDGED_VICTIMS = ["c0h3", "c0h4", "c1h0", "c1h1", "c1h2", "c1h3", "c1h4", "c1h6", "c2h2"]
BRIDGED_FAILURE_EPOCH = 15


def bridged24_obj():
    """24 habitats in 3 communities of 8, random_m m=3, 30 epochs, one failure."""
    habitats = []
    for c in range(3):
        for i in range(8):
            hid = f"c{c}h{i}"
            partner = (i + 1 + (3 * i + c) % 7) % 8
            habitats.append({
                "id": hid,
                "catalog": [
                    {"id": f"{hid}_s1", "attrs": [f"p{hid}"], "in_port": "raw",
                     "out_port": "mid", "price": 1.0 + 0.5 * (i % 3),
                     "reliability": 0.9 + 0.01 * ((i + c) % 8)},
                    {"id": f"{hid}_s2", "attrs": [f"q{hid}"], "in_port": "mid",
                     "out_port": "done", "price": 1.0, "reliability": 0.95},
                ],
                "profile": [
                    {"weight": 1.0, "request": {
                        "id": f"{hid}_local", "req_attrs": [f"p{hid}", f"q{hid}"],
                        "source_port": "raw", "sink_port": "done", "max_len": 3}},
                    {"weight": 1.0, "request": {
                        "id": f"{hid}_pair", "req_attrs": [f"pc{c}h{partner}", f"q{hid}"],
                        "source_port": "raw", "sink_port": "done", "max_len": 3}},
                ],
            })
    return {
        "seed": BRIDGED_SEED,
        "epochs": 30,
        "evolution": {"population_size": 12, "generation_budget_per_epoch": 5},
        "ecosystem": {"p_mig": 0.3},
        "scenario": {"initial_topology": {"kind": "random_m", "m": 3},
                     "habitats": habitats},
        "failures": [{"epoch": BRIDGED_FAILURE_EPOCH, "victims": BRIDGED_VICTIMS}],
    }


def run_digests(config_path, out, subcommand="run", outputs=OUTPUTS):
    assert cli.main([subcommand, "--config", str(config_path), "--out", str(out),
                     "--quiet"]) == 0
    digests = {}
    for name in outputs:
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def two_communities_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_communities") / "out"
    return out, run_digests(asset_path("two_communities.json"), out)


def test_golden_two_communities(two_communities_out):
    _, got = two_communities_out
    assert got == GOLDEN["two_communities"]


def test_snapshot_reserializes_to_the_written_bytes(two_communities_out):
    path = two_communities_out[0] / "snapshot.json"
    cfg, state = parse_config(path)
    again = serialize_snapshot(cfg, engine.state_to_obj(*engine.state_from_obj(cfg, state)))
    assert again.encode("utf-8") == path.read_bytes()


def test_golden_bridged24(tmp_path):
    path = tmp_path / "bridged24.json"
    path.write_text(json.dumps(bridged24_obj()), encoding="utf-8")
    out = tmp_path / "out"
    got = run_digests(path, out)
    with open(os.path.join(out, "events.jsonl"), "r", encoding="utf-8") as f:
        heals = [json.loads(line) for line in f if '"kind":"heal"' in line]
    # The scenario is only worth pinning if the failure forces a bridge.
    assert len(heals) == 1 and heals[0]["epoch"] == BRIDGED_FAILURE_EPOCH
    assert ["c0h0", "c2h1", 0.01] in heals[0]["payload"]["created"]
    assert got == GOLDEN["bridged24"]



def test_golden_topology_experiment(tmp_path):
    got = run_digests(asset_path("topology_experiment.json"), tmp_path / "out", "topology",
                      ("degrees.csv", "trajectory.csv", "business.dot"))
    assert got == GOLDEN["topology_experiment"]
