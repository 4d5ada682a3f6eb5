"""`scripts/epoch_phases.py`'s phase arithmetic on canned timestamps, checked
by hand. Nothing here runs or forks a simulation."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "epoch_phases.py")
spec = importlib.util.spec_from_file_location("epoch_phases", SCRIPT)
epoch_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(epoch_phases)

US = 1e-6


def test_phases_and_medians_of_canned_marks():
    # Marks in µs: the first dispatch at fork and the setup before the first
    # epoch are outside every epoch. Epoch 1 (one worker, a migration, one
    # transaction) lasts 100 µs, epoch 2 (no migration) 400 µs.
    marks = [(label, t * US) for label, t in [
        ("loop", 0), ("dispatch", 1), ("dispatch/", 3),
        ("epoch", 10), ("steps", 11), ("get", 40), ("get/", 45), ("steps/", 52),
        ("migrate", 70), ("migrate/", 72), ("migrate", 74), ("migrate/", 76),
        ("dispatch", 80), ("dispatch/", 84), ("decay", 85), ("decay/", 87),
        ("epoch/", 88), ("transactions", 90), ("transactions/", 93),
        ("clustering", 95), ("clustering/", 99),
        ("epoch", 110), ("steps", 111), ("get", 300), ("get/", 310), ("steps/", 320),
        ("dispatch", 400), ("dispatch/", 402), ("decay", 403), ("decay/", 404),
        ("epoch/", 405), ("transactions", 406), ("transactions/", 408),
        ("transactions", 409), ("transactions/", 411),
        ("clustering", 412), ("clustering/", 413),
        ("loop/", 510), ("get", 511), ("get/", 520),  # `collect`, after the loop
    ]]
    first, second = epoch_phases.epoch_phases(marks)
    assert first == pytest.approx({
        "total": 100, "steps": 30, "wait": 5, "replay": 7, "deploy": 18, "migrate": 10,
        "dispatch": 4, "after": 26, "decay": 2, "transactions": 3, "clustering": 4})
    assert second == pytest.approx({
        "total": 400, "steps": 190, "wait": 10, "replay": 10, "deploy": 80, "migrate": 0,
        "dispatch": 2, "after": 108, "decay": 1, "transactions": 4, "clustering": 1})

    summary = epoch_phases.summarize([first, second])
    assert summary["fast"] == pytest.approx(dict(first, epochs=1))
    assert summary["all"]["epochs"] == 2
    assert summary["all"]["total"] == pytest.approx(250)
    assert summary["all"]["deploy"] == pytest.approx(49)
    assert epoch_phases.summarize([second])["fast"] == {"epochs": 0}


def test_a_one_process_epoch_has_no_wait_and_no_replay():
    marks = [(label, t * US) for label, t in [
        ("epoch", 0), ("steps", 1), ("steps/", 30), ("dispatch", 40), ("dispatch/", 41),
        ("loop/", 60)]]
    (only,) = epoch_phases.epoch_phases(marks)
    assert only == pytest.approx({
        "total": 60, "steps": 30, "wait": 0, "replay": 0, "deploy": 10, "migrate": 0,
        "dispatch": 1, "after": 19, "decay": 0, "transactions": 0, "clustering": 0})
