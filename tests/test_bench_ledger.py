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
