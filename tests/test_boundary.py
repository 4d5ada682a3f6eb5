"""Mutated configs and snapshots against the CLI's input boundary.

Each example damages a valid document at one or two points: a value of
another type or at a numeric edge, a deleted key or element, a duplicated
or swapped row. `validate` and `run` must then agree, exit 0 or 1 and
report a fault as one stderr line, never as an internal error, and leave no
temp file or lock behind. A config mutant that `validate` accepts is not
run, since it may ask for 2**64 epochs; its echo must read back to an equal
config instead.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from functools import cache

from hypothesis import given, settings, strategies as st

from conftest import load_asset_obj
from dbesim import cli
from dbesim.config import config_from_obj, config_to_obj, parse_config, serialize_snapshot
from dbesim.engine import run as engine_run

EDGE_VALUES = [None, True, False, 0, 1, -1, 2, 2**63, 2**64, -(2**64), 0.5, -0.0, 1e308,
               math.nan, math.inf, -math.inf, "", "a0", "x", [], {}, [1], {"kind": "ring"}]


@cache
def _config_obj() -> dict:
    """`two_communities.json` over 3 epochs, with a failure in epoch 2."""
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 3
    obj["failures"] = [{"epoch": 2, "victims": ["a3"]}]
    return obj


@cache
def _snapshot_obj() -> dict:
    """The snapshot of that config after 2 epochs, whose config asks for 3."""
    obj = copy.deepcopy(_config_obj())
    obj["epochs"] = 2
    cfg = config_from_obj(obj)
    snap = json.loads(serialize_snapshot(cfg, engine_run(cfg).final_state()))
    snap["config"]["epochs"] = 3
    return snap


def _mutate(data, root):
    """Damage `root` at one point, chosen by a walk down from it. Returns
    the damaged document, which is `root` itself unless the walk stopped
    there."""
    parent, key, node = None, None, root
    while type(node) in (dict, list) and node and data.draw(st.integers(0, 5)) != 0:
        keys = sorted(node) if type(node) is dict else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    value = copy.deepcopy(data.draw(st.sampled_from(EDGE_VALUES)))
    if parent is None:
        return value
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif type(parent) is list:
        other = (key + 1) % len(parent)
        if op == "duplicate":
            parent.insert(key, copy.deepcopy(node))
        else:
            parent[key], parent[other] = parent[other], parent[key]
    elif op == "duplicate":  # an object's keys are unique: a copy under a new key
        parent[f"{key}_"] = copy.deepcopy(node)
    else:
        other = data.draw(st.sampled_from(sorted(parent)))
        parent[key], parent[other] = parent[other], parent[key]
    return root


def _damaged(data, root):
    root = copy.deepcopy(root)
    for _ in range(data.draw(st.integers(1, 2), label="points")):
        root = _mutate(data, root)
    return root


def _cli(*argv) -> tuple:
    """(exit status, stderr) of `dbesim argv`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    return status, err.getvalue()


def _check_line(err: str) -> None:
    assert err.count("\n") <= 1 and (not err or err.endswith("\n")), err
    assert not err.startswith("internal error"), err


def _check_clean(out: str) -> None:
    """No temp file or lock is left in the output directory."""
    if os.path.isdir(out):
        left = [n for n in os.listdir(out) if n.endswith(".tmp") or n == cli.LOCK_NAME]
        assert not left, left


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_damaged_config_is_refused_in_one_line_or_echoes_back(data):
    doc = _damaged(data, _config_obj())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, allow_nan=True)
        status, err = _cli("validate", "--config", path)
        assert status in (cli.EXIT_OK, cli.EXIT_VALIDATION), err
        _check_line(err)
        if status == cli.EXIT_OK:
            assert not err
            cfg, _ = parse_config(path)
            echoed = config_to_obj(cfg)
            again = config_from_obj(echoed)
            assert again == cfg
            assert config_to_obj(again) == echoed
            return
        out = os.path.join(tmp, "out")
        assert _cli("run", "--config", path, "--out", out, "--quiet") == (status, err)
        _check_clean(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_damaged_snapshot_state_is_refused_or_resumed_alike(data):
    snap = dict(_snapshot_obj())
    snap["state"] = _damaged(data, snap["state"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(snap, f, allow_nan=True)
        status, err = _cli("validate", "--config", path)
        assert status in (cli.EXIT_OK, cli.EXIT_VALIDATION), err
        _check_line(err)
        out = os.path.join(tmp, "out")
        assert _cli("run", "--config", path, "--out", out, "--quiet") == (status, err)
        _check_clean(out)
