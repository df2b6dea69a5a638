import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF, TABLE_POSES
from planar3rrr.cli import bundled_data_path, load_config, main
from planar3rrr.errors import ConfigError
from planar3rrr.octree import load as load_tree


@pytest.fixture(scope="module")
def ref_config() -> str:
    return str(bundled_data_path("reference_geometry.json"))


@pytest.fixture(scope="module")
def ref_path() -> str:
    return str(bundled_data_path("reference_path.json"))


def test_bundled_files_exist(ref_config, ref_path):
    cfg = load_config(ref_config)
    assert cfg.geometry.base_phase == pytest.approx(
        tuple(math.radians(v) for v in (210.0, 330.0, 90.0))
    )
    with open(ref_path) as fh:
        data = json.load(fh)
    assert data["mode"] == "PPN"
    assert len(data["waypoints"]) == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"bogus": 1}')
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text('{"geometry": {"nope": 2}}')
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_fk_reproduces_benchmark_table(ref_config, capsys):
    rc = main(["--config", ref_config, "fk", *[str(a) for a in ALPHA_REF]])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert len(rows) == 4
    for tx, ty, tdeg in TABLE_POSES.values():
        hit = False
        for ln in rows:
            parts = ln.split()
            x, y, deg = float(parts[1]), float(parts[2]), float(parts[3])
            if abs(x - tx) < 5e-3 and abs(y - ty) < 5e-3 and abs(deg - tdeg) < 0.05:
                hit = True
        assert hit, (tx, ty, tdeg)


def test_fk_empty_table(ref_config, capsys):
    rc = main(["--config", ref_config, "fk", *[str(a) for a in ALPHA_EMPTY]])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert rows == []


def test_fk_labels_a_stretched_leg_pose(ref_config, capsys):
    # Pose 1 of this triple has B_11 = -3.6e-14: leg 1 is stretched, so the
    # pose has no working mode and its row is labeled '-'.
    alpha = ("0.391753959623329", "-0.46046646817957626", "-1.118012514725395")
    rc = main(["--config", ref_config, "fk", *alpha])
    assert rc == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:] if ln.strip()]
    assert [row[0] for row in rows] == ["1", "2"]
    assert rows[0][-1] == "-"
    assert rows[1][-1] != "-"


def test_ik_and_jac_smoke(ref_config, capsys):
    rc = main(["--config", ref_config, "ik", "1.102292", "1.9563", "57.5029", "--mode", "PPN"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode c (PPN)" in out
    rc = main(["--config", ref_config, "jac", "1.102292", "1.9563", "57.5029", "--mode", "c"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detA" in out and "serial_singular=False" in out


def test_ik_unreachable_exit_code(ref_config, capsys):
    rc = main(["--config", ref_config, "ik", "100", "0", "0", "--mode", "a"])
    assert rc == 3


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"depth": 99}')
    rc = main(["--config", str(p), "fk", "1", "2", "3"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, config, name",
    [(["--depth", "3"], {}, "--depth"), ([], {"depth": 11}, "config depth")],
    ids=["flag", "config"],
)
def test_depth_outside_census_range(tmp_path, capsys, argv, config, name):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    rc = main(["--config", str(p), "--out", str(tmp_path), *argv, "workspace",
               "--mode", "a", "--sign", "+"])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "[4, 10]" in err
    assert not list(tmp_path.glob("*.oct"))


def test_trajectory_outputs_pinned(ref_config, ref_path, tmp_path, capsys):
    # The sha256 values of bench/golden.json ("path" -> "bundled"), recorded
    # by bench/record_golden.py from the per-sample scalar monitor.
    golden = {
        "profile.csv": "8cb0eac97a61741bd0cba7081f68203f90847d149d1a0ccba11b7a5b02462aba",
        "evidence.json": "d6c0944a3aa73d81470437588501f457ee8a3889c2510854b1a97df2b685127c",
    }
    rc = main(["--config", ref_config, "--out", str(tmp_path), "trajectory", ref_path])
    assert rc == 0
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_workspace_writes_dump(ref_config, tmp_path, capsys):
    out = tmp_path / "w"
    rc = main(
        ["--config", ref_config, "--out", str(out), "--depth", "4", "workspace",
         "--mode", "c", "--sign", "+"]
    )
    assert rc == 0
    dump = out / "workspace_c_pos.oct"
    assert dump.exists()
    tree = load_tree(dump)
    assert tree.max_depth == 4
    # Determinism: a second run produces byte-identical output.
    first = dump.read_bytes()
    rc = main(
        ["--config", ref_config, "--out", str(out), "--depth", "4", "workspace",
         "--mode", "c", "--sign", "+"]
    )
    assert rc == 0
    assert dump.read_bytes() == first
    # Nothing is written outside --out.
    assert list(tmp_path.iterdir()) == [out]


def test_workspace_runs_the_census(ref_config, tmp_path, capsys):
    # workspace reports the census's solid count and writes the census's tree.
    rc = main(
        ["--config", ref_config, "--out", str(tmp_path / "w"), "--depth", "6", "workspace",
         "--mode", "c", "--sign", "+"]
    )
    assert rc == 0
    assert ", 1 components (" in capsys.readouterr().out
    rc = main(
        ["--config", ref_config, "--out", str(tmp_path / "a"), "--depth", "6", "aspects",
         "--no-joint"]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "a" / "aspects_manifest.json").read_text())
    entry = next(e for e in manifest["entries"] if e["mode"] == "c" and e["sign"] == "+")
    assert entry["components"] == 1
    dump = (tmp_path / "w" / "workspace_c_pos.oct").read_bytes()
    assert dump == (tmp_path / "a" / "aspect_w_c_pos.oct").read_bytes()


def test_workspace_limit_sets_census_box(ref_config, tmp_path, capsys):
    data = json.loads(Path(ref_config).read_text())
    data["workspace_limit"] = 6
    cfg = tmp_path / "limit6.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "a"
    rc = main(["--config", str(cfg), "--out", str(out), "--depth", "4", "aspects", "--no-joint"])
    assert rc == 0
    box = json.loads((out / "aspects_manifest.json").read_text())["box"]
    assert box["lo"] == [-6.0, -6.0, 0.0]
    assert box["hi"] == [6.0, 6.0, 2 * math.pi]


def test_aspects_counts_and_manifest(ref_config, tmp_path, capsys):
    out = tmp_path / "a"
    rc = main(
        ["--config", ref_config, "--out", str(out), "--depth", "7", "aspects", "--no-joint"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "total aspects (sign +): 11" in text
    assert "total aspects (sign -): 11" in text
    assert "grand total: 22" in text
    manifest = json.loads((out / "aspects_manifest.json").read_text())
    assert manifest["grand_total"] == 22
    modes_with_four = [e["mode"] for e in manifest["entries"] if e["components"] == 4]
    assert len(modes_with_four) == 2  # one per det sign


def test_trajectory_command(ref_config, ref_path, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main(["--config", ref_config, "--out", str(out), "trajectory", ref_path])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ChangeDemonstrated" in text
    evidence = json.loads((out / "evidence.json").read_text())
    assert evidence["verdict"] == "ChangeDemonstrated"
    profile = (out / "profile.csv").read_text().splitlines()
    assert len(profile) == 1 + evidence["samples"]


def test_trajectory_bad_waypoints(ref_config, tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text('{"mode": "PPN", "waypoints": [[0, 0, 0]]}')
    rc = main(["--config", ref_config, "trajectory", str(p)])
    assert rc == 2


def test_charsurf_command(ref_config, tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(
        ["--config", ref_config, "--out", str(out), "--depth", "6", "charsurf",
         "--mode", "c", "--sign", "+", "--component", "0"]
    )
    assert rc == 0
    files = list(out.glob("charsurf_*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["mode"] == "c"
    assert len(payload["marked"]) > 0
