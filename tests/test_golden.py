"""Golden digests: the determinism contract pinned to checked-in bytes.

Two runs in one process agreeing (criterion 8) cannot catch a change that
reorders random draws or float accumulation; these sha256 digests can. A
digest may change only in a change that means to change behaviour, with a
CHANGES.md entry saying why.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import asset_path, load_asset_obj
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

# `dbesim evolve` on the first habitat's first request: (config, --seed) ->
# digests of trace.csv and of stdout. "catalog8-capped" is catalog8.json with
# a population of 6 and a cap of 4 generations, so most seeds stop at the cap.
GOLDEN_EVOLVE = {
    ("catalog8", None): {
        "trace.csv": "782d05e6574c49dccf7fa6abd705efb65138589bbe35fdf0961a542206b3aa3a",
        "stdout": "f5cc40e4cb2f267370a72b87954ce9f44d6a2791ac3136d2b521e6fb598cbfef",
    },
    ("catalog8", 0): {
        "trace.csv": "97421388c5f0b5fe7d56c95b797088008e3e7eef7e5941878d5f9580b9247bef",
        "stdout": "f5cc40e4cb2f267370a72b87954ce9f44d6a2791ac3136d2b521e6fb598cbfef",
    },
    ("catalog8", 1): {
        "trace.csv": "38f3a80a1d64d049a3236e02bbab49ef436ad2452736bf8bef964f0218f00778",
        "stdout": "a612d9af1b3fe2cbee8522f570ea7abb1702d2d8dcb6dd16f1708a01787fdc81",
    },
    ("catalog8", 106): {
        "trace.csv": "77fded31d8e6159e50abba5f6d6d46d657de6382aafe078224a9c344d58c5231",
        "stdout": "dd0b67a6d788c9148a0f7a302fb9ee9e772b133cf04204867ab747cd0d257491",
    },
    ("catalog8", 251): {
        "trace.csv": "ff0c197fb174efe71f76934cb71acf8ccd3cc025ecb28fa1d5f4befc32807b4a",
        "stdout": "6e7ea6eb241268146ceb2cddae1a042b9ca5a9dc5e0e09f0db57d082fe861c49",
    },
    ("two_communities", None): {
        "trace.csv": "d76601231dee8fa2b85f7d192efb6c91c7063e3f22d2ebe47d4f4f9e22fd58af",
        "stdout": "3b08a06a030c342bd5034cef72625d557e3aea95795927ee5334162e03642858",
    },
    ("catalog8-capped", 0): {
        "trace.csv": "6e492d50473c578dcead0a472ca6427d3a4a643f29fc1b4c1c3973e2e5a079cb",
        "stdout": "695ecb6b481f3d307a73792e1138ac710dd47cb29aaed0bdd4a1dc083cd714b6",
    },
    ("catalog8-capped", 2): {
        "trace.csv": "390861c1417b4d5b25e3489331e523fd1069dcc75ccf37024ead32669b29f20c",
        "stdout": "2cd2b019d4712f2ed5d6b11465977fa32781e4ea700dc8f0742321ac476ce13e",
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


def digests_of(out, outputs=OUTPUTS):
    digests = {}
    for name in outputs:
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def run_digests(config_path, out, subcommand="run", outputs=OUTPUTS):
    assert cli.main([subcommand, "--config", str(config_path), "--out", str(out),
                     "--quiet"]) == 0
    return digests_of(out, outputs)


@pytest.fixture(scope="module")
def two_communities_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_communities") / "out"
    return out, run_digests(asset_path("two_communities.json"), out)


def test_golden_two_communities(two_communities_out):
    _, got = two_communities_out
    assert got == GOLDEN["two_communities"]


# Run in a fresh interpreter: `dbesim run` of argv[1] into argv[2] as shipped,
# then into argv[3] forced onto two processes (a shard worker and a log
# writer); prints the number of processes forked.
HASH_SEED_RUNS = """\
import os, sys
from dbesim import cli
forks, fork = [], os.fork
os.fork = lambda: (forks.append(1), fork())[1]
argv = ["run", "--config", sys.argv[1], "--quiet", "--out"]
cli.worker_count = lambda n_habitats, cpus: 1
assert cli.main(argv + [sys.argv[2]]) == 0
cli.worker_count = lambda n_habitats, cpus: 2
assert cli.main(argv + [sys.argv[3]]) == 0
print(len(forks))
"""


@pytest.mark.parametrize("hash_seed", ["0", "987654"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    """Under two PYTHONHASHSEED values, on one process and on two, `dbesim
    run` writes the pinned bytes: no output depends on the iteration order
    of a set of strings, which the hash seed changes."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [tmp_path / "one", tmp_path / "two"]
    done = subprocess.run([sys.executable, "-c", HASH_SEED_RUNS,
                           asset_path("two_communities.json"), *map(str, outs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\n"
    for out in outs:
        assert digests_of(out) == GOLDEN["two_communities"], out.name


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


def capped_catalog8_obj():
    obj = load_asset_obj("catalog8.json")
    obj["evolution"] = {"population_size": 6, "max_generations": 4}
    return obj


def evolve_digests(tmp_path, capsys, config, seed):
    if config == "catalog8-capped":
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(capped_catalog8_obj()), encoding="utf-8")
    else:
        path = asset_path(f"{config}.json")
    out = tmp_path / "out"
    argv = ["evolve", "--config", str(path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    return {"trace.csv": hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
            "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("config, seed", sorted(GOLDEN_EVOLVE, key=str),
                         ids=lambda v: str(v))
def test_golden_evolve(tmp_path, capsys, config, seed):
    assert evolve_digests(tmp_path, capsys, config, seed) == GOLDEN_EVOLVE[(config, seed)]
