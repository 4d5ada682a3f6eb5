"""`snapshot_chunks`: the snapshot is written in pieces, with the bytes of
the one-shot text.

The reference is the one-shot form: `json.dumps` of the whole snapshot
object, which is how `dbesim run` wrote the snapshot before it streamed it.
"""

import collections
import gc
import json
import os
import tracemalloc

import pytest

from dbesim import cli, config, engine
from dbesim.config import (
    COMPACT,
    config_from_obj,
    parse_config,
    serialize_snapshot,
    snapshot_chunks,
    snapshot_to_obj,
)
from test_engine import _evolving_scenario_obj
from test_golden import bridged24_obj
from test_shards import assert_reaped, record_forks


def one_shot(cfg, state) -> str:
    return json.dumps(snapshot_to_obj(cfg, state), sort_keys=True,
                      separators=(",", ":")) + "\n"


def assert_streams_the_one_shot_text(cfg, state):
    chunks = list(snapshot_chunks(cfg, state))
    assert "".join(chunks) == one_shot(cfg, state)
    # each habitat of the state is a piece of its own
    pieces = set(chunks)
    for i, habitat in enumerate(state["habitats"]):
        assert ("," if i else "[") + COMPACT.encode(habitat) in pieces, habitat["id"]


def bridged24_run(how):
    """(config, final state) of bridged24 run on one process, on two, or
    resumed at epoch 12 from the snapshot of a run of its first 12 epochs."""
    obj = bridged24_obj()
    cfg = config_from_obj(obj)
    if how == "one-process":
        return cfg, engine.run(cfg).final_state()
    if how == "workers-2":
        return cfg, engine.run(cfg, workers=2).final_state()
    head = config_from_obj(dict(obj, epochs=12, failures=[]))
    state = json.loads(serialize_snapshot(head, engine.run(head).final_state()))["state"]
    return cfg, engine.run(cfg, state=state).final_state()


@pytest.mark.parametrize("how", ["one-process", "workers-2", "resumed"])
def test_chunks_join_to_the_one_shot_text(how):
    cfg, state = bridged24_run(how)
    assert_streams_the_one_shot_text(cfg, state)


# Each id needs JSON escaping: a quote, a backslash and a non-ASCII letter.
ESCAPED = {"h0": 'h"0', "h1": "h\\1", "h2": "hé2"}


def escaped_ids_obj():
    """The six-habitat ring of `_evolving_scenario_obj`, with three habitats
    renamed, and their service and request ids with them."""
    def rename(s):
        for old, new in ESCAPED.items():
            if s == old or s.startswith(old + "_"):
                return new + s[len(old):]
        return s

    obj = _evolving_scenario_obj(7, 3)
    for h in obj["scenario"]["habitats"]:
        h["id"] = rename(h["id"])
        for s in h["catalog"]:
            s["id"] = rename(s["id"])
        for t in h["profile"]:
            t["request"]["id"] = rename(t["request"]["id"])
    obj["failures"] = [dict(f, victims=[rename(v) for v in f["victims"]])
                       for f in obj["failures"]]
    return obj


def test_chunks_escape_ids_as_the_one_shot_text_does(tmp_path):
    cfg = config_from_obj(escaped_ids_obj())
    result = engine.run(cfg)
    state = result.final_state()
    assert any(h["provenance"] for h in state["habitats"])  # migrated ids as keys too
    assert_streams_the_one_shot_text(cfg, state)
    text = serialize_snapshot(cfg, state)
    assert all(json.dumps(hid) in text for hid in ESCAPED.values())
    # the file `dbesim run` writes reads back and re-serializes to its bytes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(escaped_ids_obj()), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    written = (out / "snapshot.json").read_bytes()
    assert written == text.encode("utf-8")
    cfg_back, state_back = parse_config(out / "snapshot.json")
    again = engine.state_to_obj(*engine.state_from_obj(cfg_back, state_back))
    assert one_shot(cfg_back, again).encode("utf-8") == written


@pytest.mark.parametrize("workers", [1, 2])
def test_encoder_error_in_the_third_habitat_is_one_line_exit_2(tmp_path, monkeypatch, capsys,
                                                               workers):
    """An encoder error while the third habitat's piece is made ends `dbesim
    run` with one `error:` line and exit status 2. The earlier snapshot stays
    in place, no temp file or lock is left, and every forked process (the
    shard worker and the log writer) is reaped."""
    encoded = []

    class FailingEncoder:
        def encode(self, value):
            if type(value) is dict and "active" in value:  # a habitat of the state
                encoded.append(value["id"])
                if len(encoded) == 3:
                    raise RuntimeError("cannot encode habitat")
            return COMPACT.encode(value)

    path = tmp_path / "config.json"
    path.write_text(json.dumps(bridged24_obj()), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshot.json").write_text("earlier\n", encoding="utf-8")
    monkeypatch.setattr(config, "COMPACT", FailingEncoder())
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: workers)
    gc_was_enabled = gc.isenabled()
    capsys.readouterr()
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--quiet"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "error: cannot encode habitat\n"
    assert len(encoded) == 3
    assert (out / "snapshot.json").read_text(encoding="utf-8") == "earlier\n"
    assert [name for name in os.listdir(out) if name.startswith(".")] == []
    assert len(forked) == (2 if workers > 1 else 0)
    assert_reaped(forked)
    assert gc.isenabled() is gc_was_enabled


def test_streamed_snapshot_peaks_below_half_the_joined_text():
    """Consuming the pieces one at a time, as `OutputDir.write` does, takes
    less than half the heap that building the whole text takes: the
    encoder's working set is one piece's, not the snapshot's."""
    cfg = config_from_obj(bridged24_obj())
    state = engine.run(cfg).final_state()

    def consume():
        collections.deque(snapshot_chunks(cfg, state), maxlen=0)

    def peak(make) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            make()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    consume()  # first-call allocations are not the encoder's working set
    streamed = peak(consume)
    whole = peak(lambda: serialize_snapshot(cfg, state))
    assert streamed < whole / 2, (streamed, whole)


@pytest.mark.parametrize("rows", [0, 1, config.SLICE_ROWS, config.SLICE_ROWS + 1])
def test_row_arrays_are_written_one_slice_per_piece(rows):
    """`connections` and `flow_edges` of `rows` rows each join to the one-shot
    text, and each piece holds at most one slice of `SLICE_ROWS` rows: the
    rows of a slice share one piece, so a slice costs one encoder call."""
    cfg = config_from_obj(_evolving_scenario_obj(7, 3))
    state = engine.run(cfg).final_state()
    state["connections"] = [[f'conn:{i}"é', "h\\1", 0.1 * i] for i in range(rows)]
    state["business"]["flow_edges"] = [[f"flow:{i}\n", "h0", "payment", i / 3, i]
                                       for i in range(rows)]
    chunks = list(snapshot_chunks(cfg, state))
    assert "".join(chunks) == one_shot(cfg, state)
    size = config.SLICE_ROWS
    expected = [min(size, rows - i) for i in range(0, rows, size)]  # rows per slice
    for marker in ('["conn:', '["flow:'):
        assert [piece.count(marker) for piece in chunks if marker in piece] == expected
