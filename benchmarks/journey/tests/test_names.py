import json
import re
from pathlib import Path

from benchmarks.journey.run import END_TO_END
from benchmarks.journey.trace import PER_LAYER, SPAN_METRIC
from benchmarks.journey.workloads import WORKLOADS

CONTRACT = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared(section):
    return {entry["name"]: entry["unit"] for entry in CONTRACT[section]}


def test_every_name_and_unit_is_well_formed():
    names = [*WORKLOADS, *END_TO_END, *PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert UNIT.fullmatch(unit), unit


def test_the_code_emits_exactly_what_the_contract_declares():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert declared("end_to_end") == END_TO_END
    assert declared("per_layer") == PER_LAYER
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_every_span_name_is_reported_under_a_declared_metric():
    assert set(SPAN_METRIC.values()) <= set(PER_LAYER)


def test_bounds_fit_the_contract():
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONTRACT["end_to_end"])
    for why in (w["why"] for w in CONTRACT["workloads"]):
        assert len(why) <= 200 and "\n" not in why
