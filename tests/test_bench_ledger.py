"""The bench ledger's synthetic corpora are pure functions of their seed."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SNIPPET = """
import hashlib, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import bench_ledger
domains, zone, _whois, _geoip = bench_ledger.synth_registries(300)
records = "\\n".join(f"{{r.name}} {{r.ip}}" for r in
                     sorted(zone, key=lambda r: r.name))
print(json.dumps({{"domains": domains,
                  "zone": hashlib.sha256(records.encode()).hexdigest()}}))
"""


def test_synth_registries_ignores_hash_seed():
    """Each label's TLD is an RNG draw, so labels must be visited in a
    fixed order: the corpus (and the enrichment digest) may not depend on
    ``PYTHONHASHSEED``."""
    code = _SNIPPET.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"}
    ).stdout) for seed in ("1", "2")]
    assert len(runs[0]["domains"]) == 300
    assert runs[0] == runs[1]


def test_main_keeps_sections_it_does_not_write(tmp_path, monkeypatch):
    """A ledger refresh rewrites rows and gates but keeps every other
    top-level section (the committed squatbench medians)."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import bench_ledger

    def fake_layer(name, scale):
        layer = bench_ledger.Layer(name, scale)
        layer.row("leg", 1, 0.5, digest="d")
        layer.check("gate", 1, "==", 1)
        return layer

    monkeypatch.setattr(bench_ledger, "run_isolated", fake_layer)
    out = tmp_path / "ledger.json"
    out.write_text(json.dumps({"scale": "default", "cpu_count": 99,
                               "rows": [{"stale": True}], "gates": [],
                               "squatbench": {"pipeline": {"run_s": 4.5}}}))
    assert bench_ledger.main(["--smoke", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    assert list(ledger) == ["scale", "cpu_count", "rows", "gates",
                            "squatbench"]
    assert ledger["squatbench"] == {"pipeline": {"run_s": 4.5}}
    assert ledger["scale"] == "smoke"
    assert [row["layer"] for row in ledger["rows"]] == list(bench_ledger.LAYERS)
    assert len(ledger["gates"]) == len(bench_ledger.LAYERS)
