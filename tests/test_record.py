import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_record():
    spec = importlib.util.spec_from_file_location("record", ROOT / "benchmarks" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_recording_schema(tmp_path, monkeypatch):
    """The checkout against itself at tiny N, two rounds, each command
    warmed up as WARMUP says: the file's layout only, never its timings."""
    record = load_record()
    monkeypatch.setattr(record, "PAIRED_SIZES", (8, 12))
    monkeypatch.setattr(record, "PAIRED_ROUNDS", 2)
    monkeypatch.setattr(record, "IN_PROCESS_REPEATS", 3)
    commands = {"solve": ("solve", "--N", "8"), "compare": ("compare", "--N", "8"),
                "refine": ("refine", "--base-N", "8", "--levels", "2")}
    monkeypatch.setattr(record, "COMMANDS", commands)
    monkeypatch.setattr(record, "OUT_DIR", tmp_path)
    # a process that may run on one CPU of eight: nproc records the one, which
    # sets the threads of compare and refine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert record.main(["smoke", "--against", str(ROOT)]) == 0
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["label"] == "smoke" and out["against"] == ROOT.name
    assert out["environment"]["nproc"] == 1
    paired = out["paired"]
    assert paired["rounds"] == 2 and paired["sizes"] == [8, 12] and paired["order"] == "ABBA"
    assert set(paired["kernel_backend"]) == {"this", "against"}
    # ABBA: this tree first in even rounds, second in odd ones
    assert [run["tree"] for run in paired["runs"]] == ["this", "against", "against", "this"] * 2
    assert set(paired["engines"]) == {"newton", "pc"}
    for engine in paired["engines"].values():
        assert [row["N"] for row in engine["by_N"]] == [8, 12]
        for row in engine["by_N"]:
            assert len(row["this_s"]) == len(row["against_s"]) == len(row["ratios"]) == 2
            low, high = row["median_ratio_ci95"]
            assert low <= row["median_ratio"] <= high
            in_process = row["in_process"]
            assert in_process["repeats"] == 3
            assert len(in_process["this_median_s"]) == len(in_process["against_median_s"]) == \
                len(in_process["ratios"]) == 2
            low, high = in_process["median_ratio_ci95"]
            assert low <= in_process["median_ratio"] <= high
        for side in ("this", "against"):
            assert len(engine["median_ms_per_layer"][side]) == 2
            assert set(engine["fit"][side]) == {"intercept_ms_per_layer",
                                                "slope_ms_per_layer_per_N"}
        assert isinstance(engine["fit"]["intercept_ratio"], float)
    # each command once per tree in each round, in the marches' ABBA order
    assert set(paired["commands"]) == set(commands)
    for name, command in paired["commands"].items():
        assert command["argv"] == ["asianfb", *commands[name]]
        assert [run["tree"] for run in command["runs"]] == \
            [run["tree"] for run in paired["runs"]]
        assert {run["command"] for run in command["runs"]} == {name}
        assert len(command["this_s"]) == len(command["against_s"]) == \
            len(command["ratios"]) == 4
        low, high = command["median_ratio_ci95"]
        assert low <= command["median_ratio"] <= high
