"""Every committed BENCH_*.json benchmark record has the fields a comparison needs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_fields(path):
    record = json.loads(path.read_text())
    for key in ("what", "parent", "machine", "env", "runs", "pairs"):
        assert key in record, f"{path.name} has no {key!r}"
    assert record["runs"]
    for run in record["runs"]:
        assert run["commit"] in {"parent", "change"}
        assert isinstance(run["seed"], int)
        assert run["command"]
        result = run["result"]
        assert result["failed"] == 0
        assert result["correct"] is True
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == END_TO_END
    for name, pairs in record["pairs"].items():
        if isinstance(pairs, list):  # one side-by-side reading per pair
            assert all(set(pair) == {"parent", "change"} for pair in pairs), name
