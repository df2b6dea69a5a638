import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import ALPHA_EMPTY, ALPHA_REF, TABLE_POSES
from planar3rrr.cli import build_parser, bundled_data_path, load_config, main
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


def test_unreadable_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "fk", "0.5", "1.0", "1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {missing}: ")


def test_config_that_is_not_json_exit_code(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{depth: 6}")
    assert main(["--config", str(p), "fk", "0.5", "1.0", "1.5"]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {p} is not valid JSON: ")


def test_config_samples_per_segment_below_two_exit_code(ref_path, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"samples_per_segment": 1}))
    out = tmp_path / "t"
    assert main(["--config", str(p), "--out", str(out), "trajectory", ref_path]) == 2
    assert capsys.readouterr().err == "error: samples_per_segment must be at least 2\n"
    assert not out.exists()


def test_unknown_waypoint_key_exit_code(ref_config, ref_path, tmp_path, capsys):
    data = json.loads(Path(ref_path).read_text())
    data["speed"] = 2.0
    p = tmp_path / "w.json"
    p.write_text(json.dumps(data))
    out = tmp_path / "t"
    assert main(["--config", ref_config, "--out", str(out), "trajectory", str(p)]) == 2
    assert capsys.readouterr().err == "error: unknown waypoint keys: ['speed']\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, config, name",
    [
        (["--eps", "nan"], {}, "--eps"),
        (["--eps", "inf"], {}, "--eps"),
        ([], {"eps_sing": math.nan}, "eps_sing"),
    ],
    ids=["flag-nan", "flag-inf", "config-nan"],
)
def test_non_finite_eps_refused(tmp_path, capsys, argv, config, name):
    # A NaN threshold makes every margin test false, so a grazing path would pass as NonSingular.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    rc = main(["--config", str(p), *argv, "fk", "0.5", "1.0", "1.5"])
    assert rc == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("joint_depth", [-2, 11])
def test_joint_depth_outside_range(tmp_path, capsys, joint_depth):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"joint_depth": joint_depth}))
    out = tmp_path / "a"
    rc = main(["--config", str(p), "--out", str(out), "--depth", "4", "aspects"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "joint_depth" in err and "[0, 10]" in err
    assert not out.exists()


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


def test_trajectory_pose_outside_census_box_exits_2(ref_config, ref_path, tmp_path, capsys):
    # Waypoint 1, (1.10, 1.96), lies outside the [-1, 1]^2 census box: its
    # OutOfBoxError used to escape main with a traceback and exit 1.
    data = json.loads(Path(ref_config).read_text())
    data["workspace_limit"] = 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "t"
    rc = main(["--config", str(cfg), "--out", str(out), "--depth", "4", "trajectory", ref_path])
    assert rc == 2
    assert "error: point (1.1022919743997779, 1.9563001858738114," in capsys.readouterr().err
    # A refused run writes nothing, profile.csv included.
    assert not out.exists()


#: A sample of the reference path whose scaled margin |det(A)| / scale is this eps.
EDGE_POSE = (0.7153860532146339, 1.9514297810823649, 49.141247799191255)
EDGE_EPS = "0.01746742770328138"


def test_jac_margin_equal_to_eps_is_not_parallel_singular(ref_config, capsys):
    # |det A| < eps * scale used to call this pose singular while the
    # monitor's |det A| / scale < eps did not.
    argv = ["--config", ref_config, "--eps", EDGE_EPS, "jac", *map(repr, EDGE_POSE)]
    assert main([*argv, "--mode", "PPN"]) == 0
    text = capsys.readouterr().out
    assert "detA/scale = 1.747e-02" in text
    assert "serial_singular=False parallel_singular=False (eps=0.0175)" in text


def test_trajectory_to_a_pose_at_eps_gives_one_verdict(ref_config, tmp_path, capsys):
    # The monitor called this path NonSingular and the mode-change check then
    # refused its end pose as parallel-singular (exit 3, profile.csv left behind).
    path = tmp_path / "w.json"
    start = [1.1022919743997779, 1.9563001858738114, 57.50289502628018]
    path.write_text(
        json.dumps({"mode": "PPN", "samples_per_segment": 5, "waypoints": [start, EDGE_POSE]})
    )
    out = tmp_path / "t"
    argv = ["--config", ref_config, "--eps", EDGE_EPS, "--depth", "4", "--out", str(out)]
    assert main([*argv, "trajectory", str(path)]) == 0
    assert "monitor: NonSingular over 5 samples" in capsys.readouterr().out
    evidence = json.loads((out / "evidence.json").read_text())
    assert evidence["monitor_verdict"] == "NonSingular"
    assert evidence["min_abs_det_scaled"] == float(EDGE_EPS)
    assert len((out / "profile.csv").read_text().splitlines()) == 6


def test_fk_degenerate_triple_exit_code(tmp_path, capsys):
    # Base and platform triangles mirrored at equal size: equal actuated
    # angles leave the 2x2 position system singular at every orientation.
    p = tmp_path / "mirrored.json"
    phases = {"base_phase_deg": [90, 210, 330], "platform_phase_deg": [90, 330, 210]}
    p.write_text(json.dumps({"geometry": {"r": 5, "s": 5, **phases}}))
    assert main(["--config", str(p), "fk", "0.3", "0.3", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "kinematic error: direct kinematics, alpha = (0.3, 0.3, 0.3): "
        "position system singular at every orientation\n"
    )


def test_trajectory_bad_waypoints(ref_config, tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text('{"mode": "PPN", "waypoints": [[0, 0, 0]]}')
    rc = main(["--config", ref_config, "trajectory", str(p)])
    assert rc == 2


@pytest.mark.parametrize("root", ["[[1, 2]]", '"x"', "3", "null"])
def test_waypoints_root_must_be_an_object(ref_config, tmp_path, capsys, root):
    # A list root used to crash with "unhashable type" (exit 1), a string
    # root to be read as unknown keys.
    p = tmp_path / "w.json"
    p.write_text(root)
    out = tmp_path / "t"
    rc = main(["--config", ref_config, "--out", str(out), "trajectory", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(p) in err and "root must be a JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "file, key, value",
    [
        ("config", "depth", True),
        ("config", "depth", 7.5),
        ("config", "joint_depth", 3.9),
        ("config", "samples_per_segment", 2.7),
        ("config", "samples_per_segment", "500"),
        ("waypoints", "samples_per_segment", 2.7),
        ("waypoints", "samples_per_segment", False),
        ("waypoints", "samples_per_segment", None),
    ],
)
def test_integer_keys_refuse_other_values(ref_config, ref_path, tmp_path, capsys, file, key, value):
    # int() used to truncate 3.9 to 3 and read true as 1.
    files = {"config": ref_config, "waypoints": ref_path}
    data = {name: json.loads(Path(path).read_text()) for name, path in files.items()}
    data[file][key] = value
    for name, d in data.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    out = tmp_path / "t"
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--depth", "4"]
    rc = main([*argv, "trajectory", str(tmp_path / "waypoints.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"key '{key}' must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "file, keys, value",
    [
        ("config", ("eps_sing",), True),
        ("config", ("eps_sing",), "1e-8"),
        ("config", ("workspace_limit",), "12"),
        ("config", ("geometry", "l"), "6"),
        ("config", ("geometry", "m"), True),
        ("config", ("geometry", "s"), None),
        ("config", ("geometry", "base_phase_deg", 1), False),
        ("config", ("geometry", "platform_phase_deg", 0), "210"),
        ("waypoints", ("waypoints", 0, 1), "1.9563001858738114"),
        ("waypoints", ("waypoints", 2, 2), True),
    ],
)
def test_number_keys_refuse_other_values(ref_config, ref_path, tmp_path, capsys, file, keys, value):
    # float() used to read "6" as 6 and true as 1: {"eps_sing": true} ran with eps = 1.
    files = {"config": ref_config, "waypoints": ref_path}
    data = {name: json.loads(Path(path).read_text()) for name, path in files.items()}
    parent = data[file]
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    for name, d in data.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    out = tmp_path / "t"
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(out), "--depth", "4"]
    rc = main([*argv, "trajectory", str(tmp_path / "waypoints.json")])
    assert rc == 2
    name = next(k for k in reversed(keys) if isinstance(k, str))
    err = capsys.readouterr().err
    assert f"key '{name}'" in err
    assert f"must be a number, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("limit", [-3, 0, math.nan, math.inf])
def test_workspace_limit_must_be_positive_and_finite(ref_config, tmp_path, capsys, limit):
    data = json.loads(Path(ref_config).read_text())
    data["workspace_limit"] = limit
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "a"
    rc = main(["--config", str(cfg), "--out", str(out), "--depth", "4", "aspects", "--no-joint"])
    assert rc == 2
    assert "workspace_limit must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "nan", "0.2", "0.3"],
        ["ik", "nan", "0", "0", "--mode", "a"],
        ["jac", "0", "0", "inf", "--mode", "a"],
    ],
    ids=["fk", "ik", "jac"],
)
def test_non_finite_inputs_refused(ref_config, tmp_path, capsys, argv):
    # NaN fails every comparison, so it would pass the reach and closure
    # tests: fk would print an empty table and ik NaN angles.
    out = tmp_path / "t"
    rc = main(["--config", ref_config, "--out", str(out), *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    assert not out.exists()


def test_trajectory_refuses_a_non_finite_waypoint(ref_config, ref_path, tmp_path, capsys):
    # A NaN waypoint would solve to NaN samples and an evidence.json holding NaN.
    data = json.loads(Path(ref_path).read_text())
    data["waypoints"][1] = [math.nan, 1, 20]
    p = tmp_path / "w.json"
    p.write_text(json.dumps(data))
    out = tmp_path / "t"
    rc = main(["--config", ref_config, "--out", str(out), "trajectory", str(p)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_phase_refused(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"base_phase_deg": [math.nan, 120, 240]}}))
    out = tmp_path / "t"
    rc = main(["--config", str(p), "--out", str(out), "fk", "0.5", "1.0", "1.5"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_trajectory_refuses_zero_samples_per_segment(ref_config, ref_path, tmp_path, capsys):
    data = json.loads(Path(ref_path).read_text())
    data["samples_per_segment"] = 0
    p = tmp_path / "w.json"
    p.write_text(json.dumps(data))
    out = tmp_path / "t"
    rc = main(["--config", ref_config, "--out", str(out), "trajectory", str(p)])
    assert rc == 2
    assert "samples_per_segment" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["workspace", "charsurf"])
@pytest.mark.parametrize("text, sign", [("+", 1), ("pos", 1), ("-", -1), ("neg", -1)])
def test_sign_is_parsed_to_det_sign(command, text, sign):
    args = build_parser().parse_args([command, "--mode", "a", "--sign", text])
    assert args.sign == sign


def test_unknown_sign_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["workspace", "--mode", "a", "--sign", "plus"])
    assert exc.value.code == 2
    assert "--sign" in capsys.readouterr().err


#: A reference-geometry pose in mode PPN whose leg 3 lies 1.2 length units
#: inside its 12-unit reach circle; its scaled margin |det(A)| / scale is 0.0793.
BAND_POSE = ("-0.2614224488658774", "-0.9676856478756761", "73.47495524197308")


def test_eps_enters_no_reach_test_of_jac(ref_config, capsys):
    # A reach band of eps * (l + m) = 1.2 used to refuse leg 3 here (exit 3).
    argv = ["--config", ref_config, "--eps", "0.1", "jac", "--mode", "PPN", "--", *BAND_POSE]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "detA/scale = 7.934e-02" in text
    assert "serial_singular=False parallel_singular=True (eps=0.1)" in text


def test_eps_leaves_ik_unchanged(ref_config, capsys):
    argv = ["ik", "--mode", "PPN", "--", *BAND_POSE]
    assert main(["--config", ref_config, *argv]) == 0
    plain = capsys.readouterr().out
    assert main(["--config", ref_config, "--eps", "0.1", *argv]) == 0
    assert capsys.readouterr().out == plain


#: A reference-geometry pose whose leg 1 platform joint lies 1e-6 from its base
#: joint, where the elbow formula misses loop closure by 4.4e-9 (l = m).
FOLD_POSE = ["-5.262325670470374", "-1.3320179042132647", "17.188733853924695"]


def test_fold_pose_is_a_kinematic_error_of_ik(ref_config, capsys):
    # This was an untyped ValueError (exit 2, "passive angle inconsistent").
    assert main(["--config", ref_config, "ik", "--mode", "a", "--", *FOLD_POSE]) == 3
    assert capsys.readouterr().err == (
        "kinematic error: leg 1: target distance 1e-06 is on the reach boundary\n"
    )


def test_trajectory_from_a_fold_pose_is_an_unreachable_sample(ref_config, tmp_path, capsys):
    # This was an untyped ValueError (exit 2, "violates loop closure by 4.41e-09").
    path = tmp_path / "w.json"
    waypoints = [[float(v) for v in FOLD_POSE], [-5.0, -1.0, 20.0]]
    path.write_text(json.dumps({"mode": "PPP", "samples_per_segment": 5, "waypoints": waypoints}))
    out = tmp_path / "t"
    assert main(["--config", ref_config, "--out", str(out), "trajectory", str(path)]) == 3
    assert capsys.readouterr().err == (
        "kinematic error: path sample at t = 0 failed: "
        "leg 1: target distance 1e-06 is on the reach boundary\n"
    )
    assert not out.exists()
