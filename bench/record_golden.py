"""Record ``golden.json``: the outputs that later commits must reproduce byte for byte.

    PYTHONPATH=src python3 bench/record_golden.py

Records the sha256 of the depth-7 census manifest and its 32 dumps, of the
reference path's ``profile.csv`` and ``evidence.json`` (as bundled and at the
benchmark's dense sampling), and the text CLI ``fk`` prints for the benchmark
triple. Run it only when an output change is intended and documented.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle
from workloads import DEPTH, GOLDEN_PATH, SPP_3, bundled, fresh_dir, run_cli, sha256

OUT = Path(__file__).resolve().parents[1] / ".bench_out" / "golden"


def hashes(directory: Path, names) -> dict:
    return {n: sha256((directory / n).read_bytes()) for n in names}


def main() -> int:
    cfg = bundled("reference_geometry.json")
    oracle.check_reference_config(cfg)
    golden = {}

    census = fresh_dir(OUT / "census")
    rc, _, err = run_cli(["--config", cfg, "--out", census, "--depth", DEPTH, "aspects"])
    if rc != 0:
        sys.exit(f"aspects failed: {err}")
    golden["census"] = {
        "manifest": sha256((census / "aspects_manifest.json").read_bytes()),
        "dumps": hashes(census, sorted(p.name for p in census.glob("*.oct"))),
    }

    ref_file = bundled("reference_path.json")
    path = {}
    rc, _, err = run_cli(["--config", cfg, "--out", OUT / "bundled", "trajectory", ref_file])
    if rc != 0:
        sys.exit(f"trajectory failed: {err}")
    path["bundled"] = hashes(OUT / "bundled", ("profile.csv", "evidence.json"))
    dense = json.loads(ref_file.read_text(encoding="utf-8"))
    dense["samples_per_segment"] = SPP_3
    spec = fresh_dir(OUT / "dense") / "ref.json"
    spec.write_text(json.dumps(dense, indent=1), encoding="ascii")
    rc, _, err = run_cli(["--config", cfg, "--out", OUT / "dense", "trajectory", spec])
    if rc != 0:
        sys.exit(f"trajectory failed: {err}")
    path["ref_dense"] = hashes(OUT / "dense", ("profile.csv", "evidence.json"))
    golden["path"] = path

    rc, out, err = run_cli(["--config", cfg, "fk", *(repr(a) for a in oracle.BENCHMARK_TRIPLE)])
    if rc != 0:
        sys.exit(f"fk failed: {err}")
    golden["fk_cli"] = out

    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
