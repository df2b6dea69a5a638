"""Command-line front end.

Subcommands: fk, ik, jac, workspace, aspects, trajectory, charsurf.
Actuated angles are radians on the command line; platform orientations are
degrees. Exit codes: 0 success, 2 invalid configuration, 3 kinematic failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .aspects import (
    MAX_DEPTH,
    MIN_DEPTH,
    characteristic_surface,
    enumerate_aspects,
    write_manifest,
)
from .errors import ConfigError, KinematicError
from .batch import jacobian_rows
from .geometry import EPS_SING, GeometryConfig, Pose, WorkingMode, parse_mode
from .jacobians import jacobians, singularity_report
from .kinematics import forward_kinematics, inverse_kinematics
from .octree import export, volume, workspace_box
from .trajectory import PathSpec, monitor, verify_assembly_mode_change, write_profile

_CONFIG_KEYS = {
    "geometry",
    "depth",
    "joint_depth",
    "eps_sing",
    "samples_per_segment",
    "workspace_limit",
    "out",
}


def bundled_data_path(name: str) -> Path:
    """Path of a bundled data file (reference geometry / benchmark path)."""
    return Path(resources.files(__package__) / "data" / name)


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig
    depth: int | None = None
    joint_depth: int | None = None
    eps_sing: float = EPS_SING
    samples_per_segment: int = 500
    workspace_limit: float = 12.0
    out: Path = Path(".")

    def depth_or(self, default: int) -> int:
        return self.depth if self.depth is not None else default


def _check_depth(depth: int, name: str) -> None:
    """Every command that takes a depth runs the census, which takes only this range."""
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise ConfigError(f"{name} must be in [{MIN_DEPTH}, {MAX_DEPTH}], got {depth}")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig(geometry=GeometryConfig())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        geometry = GeometryConfig.from_dict(data.get("geometry", {}))
        cfg = RunConfig(
            geometry=geometry,
            depth=int(data["depth"]) if "depth" in data else None,
            joint_depth=int(data["joint_depth"]) if "joint_depth" in data else None,
            eps_sing=float(data.get("eps_sing", EPS_SING)),
            samples_per_segment=int(data.get("samples_per_segment", 500)),
            workspace_limit=float(data.get("workspace_limit", 12.0)),
            out=Path(data["out"]) if "out" in data else Path("."),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if cfg.samples_per_segment < 2:
        raise ConfigError("samples_per_segment must be at least 2")
    if cfg.eps_sing <= 0:
        raise ConfigError("eps_sing must be positive")
    if cfg.depth is not None:
        _check_depth(cfg.depth, "config depth")
    return cfg


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.depth is not None:
        _check_depth(args.depth, "--depth")
        updates["depth"] = args.depth
    if args.eps is not None:
        if args.eps <= 0:
            raise ConfigError("eps must be positive")
        updates["eps_sing"] = args.eps
    if args.out is not None:
        updates["out"] = Path(args.out)
    return replace(cfg, **updates) if updates else cfg


def _load_waypoints(path: str) -> tuple[WorkingMode, list[Pose], int | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read waypoints {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"waypoints {path} is not valid JSON: {exc}") from exc
    unknown = set(data) - {"mode", "waypoints", "samples_per_segment"}
    if unknown:
        raise ConfigError(f"unknown waypoint keys: {sorted(unknown)}")
    try:
        mode = parse_mode(str(data["mode"]))
        points = [
            Pose(float(x), float(y), math.radians(float(t))) for x, y, t in data["waypoints"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid waypoints file: {exc}") from exc
    if len(points) < 2:
        raise ConfigError("waypoints file needs at least two poses")
    spp = data.get("samples_per_segment")
    return mode, points, int(spp) if spp is not None else None


def cmd_fk(cfg: RunConfig, args) -> int:
    alpha = (args.alpha1, args.alpha2, args.alpha3)
    poses = forward_kinematics(cfg.geometry, alpha)
    x, y, theta = np.array([p.as_tuple() for p in poses]).reshape(-1, 3).T
    _, det, b_diag, _ = jacobian_rows(cfg.geometry, np.tile(alpha, (len(poses), 1)), x, y, theta)
    print("sol        x            y     theta_deg        detA       B11       B22       B33  mode")
    for k, (pose, d, b) in enumerate(zip(poses, det.tolist(), b_diag.tolist()), start=1):
        serial = min(abs(v) for v in b) < cfg.eps_sing
        label = "-" if serial else WorkingMode.from_signs(b).label
        print(
            "%3d %12.6f %12.6f %12.5f %11.4f %9.4f %9.4f %9.4f   %s"
            % (k, pose.x, pose.y, math.degrees(pose.theta), d, *b, label)
        )
    return 0


def cmd_ik(cfg: RunConfig, args) -> int:
    pose = Pose(args.x, args.y, math.radians(args.theta_deg))
    mode = parse_mode(args.mode)
    config = inverse_kinematics(cfg.geometry, pose, mode, cfg.eps_sing)
    pair = jacobians(cfg.geometry, config)
    print(f"mode {mode.label} ({mode.sign_string})")
    print("alpha_rad %12.9f %12.9f %12.9f" % config.alpha)
    print("beta_rad  %12.9f %12.9f %12.9f" % config.beta)
    print("B_ii      %12.6f %12.6f %12.6f" % tuple(pair.b_diag))
    print("detA      %12.6f" % pair.det_a)
    return 0


def cmd_jac(cfg: RunConfig, args) -> int:
    pose = Pose(args.x, args.y, math.radians(args.theta_deg))
    mode = parse_mode(args.mode)
    config = inverse_kinematics(cfg.geometry, pose, mode, cfg.eps_sing)
    pair = jacobians(cfg.geometry, config)
    rep = singularity_report(pair, cfg.eps_sing)
    print("A =")
    for row in pair.a_mat:
        print("  [%14.8f %14.8f %14.8f]" % tuple(row))
    print("B_diag = [%14.8f %14.8f %14.8f]" % tuple(pair.b_diag))
    print("detA = %.8f   detA/scale = %.3e" % (pair.det_a, pair.det_a / rep.scale))
    print(
        "serial_singular=%s parallel_singular=%s (eps=%.3g)"
        % (rep.is_serial_singular, rep.is_parallel_singular, rep.eps)
    )
    return 0


def _outdir(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def _pair_census(cfg: RunConfig, mode: WorkingMode, sign: int, depth: int):
    """Aspect census of one (mode, det sign) pair over the configured box."""
    return enumerate_aspects(
        cfg.geometry,
        depth=depth,
        box=workspace_box(cfg.workspace_limit),
        modes=[mode],
        det_signs=(sign,),
        build_joint=False,
    )


def cmd_workspace(cfg: RunConfig, args) -> int:
    mode = parse_mode(args.mode)
    sign = 1 if args.sign in ("+", "pos") else -1
    depth = cfg.depth_or(8)
    entry = _pair_census(cfg, mode, sign, depth).entries[(mode, sign)]
    tree = entry.workspace
    out = _outdir(cfg) / f"workspace_{mode.label}_{'pos' if sign > 0 else 'neg'}.oct"
    export(tree, out)
    print(
        f"workspace mode {mode.label} sign {args.sign}: depth {depth}, "
        f"{tree.n_leaves} leaves, volume {volume(tree):.6f}, "
        f"{entry.n_components} components ({entry.n_components_raw} raw)"
    )
    print(f"wrote {out}")
    return 0


def cmd_aspects(cfg: RunConfig, args) -> int:
    depth = cfg.depth_or(8)
    atlas = enumerate_aspects(
        cfg.geometry,
        depth=depth,
        box=workspace_box(cfg.workspace_limit),
        joint_depth=cfg.joint_depth,
        build_joint=not args.no_joint,
    )
    for sign, tag in ((1, "+"), (-1, "-")):
        counts = atlas.counts(sign)
        per = "  ".join(f"{mode.label}:{counts[mode]}" for mode in WorkingMode)
        print(f"sign {tag}: {per}")
        print(f"total aspects (sign {tag}): {atlas.total(sign)}")
    print(f"grand total: {atlas.grand_total}")
    manifest = write_manifest(atlas, _outdir(cfg))
    print(f"wrote {manifest}")
    return 0


def cmd_trajectory(cfg: RunConfig, args) -> int:
    mode, points, spp = _load_waypoints(args.waypoints)
    spp = spp or cfg.samples_per_segment
    spec = PathSpec(waypoints=tuple(points), mode=mode, samples_per_segment=spp)
    result = monitor(cfg.geometry, spec, cfg.eps_sing)
    outdir = _outdir(cfg)
    profile = outdir / "profile.csv"
    write_profile(result, profile)
    print(
        f"monitor: {result.verdict} over {len(result.records)} samples; "
        f"min |detA|/scale {result.min_abs_det_scaled:.6f}, min |B_ii| {result.min_abs_b:.6f}"
    )
    evidence_data = {
        "monitor_verdict": result.verdict,
        "min_abs_det_scaled": result.min_abs_det_scaled,
        "min_abs_b": result.min_abs_b,
        "samples": len(result.records),
        "profile": profile.name,
    }
    if len(points) in (2, 3):
        depth = cfg.depth_or(6)
        atlas = _pair_census(cfg, mode, result.det_sign, depth)
        evidence = verify_assembly_mode_change(cfg.geometry, atlas, result, cfg.eps_sing)
        print(
            f"assembly-mode change: {evidence.verdict} "
            f"(shared_alpha={evidence.shared_alpha}, alpha_gap={evidence.alpha_gap:.3e}, "
            f"same_aspect={evidence.in_same_aspect}, monitor={result.verdict})"
        )
        evidence_data.update(
            {
                "verdict": evidence.verdict,
                "shared_alpha": evidence.shared_alpha,
                "alpha_gap": evidence.alpha_gap,
                "alpha": list(evidence.alpha),
                "same_aspect": evidence.in_same_aspect,
                "aspect_depth": depth,
            }
        )
    with open(outdir / "evidence.json", "w", encoding="ascii") as fh:
        json.dump(evidence_data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {profile}")
    return 0


def cmd_charsurf(cfg: RunConfig, args) -> int:
    mode = parse_mode(args.mode)
    sign = 1 if args.sign in ("+", "pos") else -1
    depth = cfg.depth_or(6)
    atlas = _pair_census(cfg, mode, sign, depth)
    surf = characteristic_surface(cfg.geometry, atlas, mode, sign, args.component)
    tree = atlas.entries[(mode, sign)].workspace
    payload = {
        "mode": mode.label,
        "sign": "+" if sign > 0 else "-",
        "component": args.component,
        "depth": depth,
        "marked": [
            {"morton": f"{int(tree.morton[i]):#x}", "depth": int(tree.depth[i])}
            for i in surf.marked_leaves
        ],
        "boundary_count": int(surf.boundary_leaves.size),
    }
    tag = "pos" if sign > 0 else "neg"
    out = _outdir(cfg) / f"charsurf_{mode.label}_{tag}_{args.component}.json"
    with open(out, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"characteristic surface mode {mode.label} sign {args.sign} component {args.component}: "
        f"{surf.marked_leaves.size} marked leaves from {surf.boundary_leaves.size} boundary cells"
    )
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planar3rrr",
        description="Kinematic analysis of the symmetrical planar 3-RRR parallel manipulator.",
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output directory (default '.')")
    parser.add_argument("--depth", type=int, help="octree depth override")
    parser.add_argument("--eps", type=float, help="singularity tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="all assembly poses for actuated angles (radians)")
    p.add_argument("alpha1", type=float)
    p.add_argument("alpha2", type=float)
    p.add_argument("alpha3", type=float)
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics at a pose (theta in degrees)")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("theta_deg", type=float)
    p.add_argument("--mode", required=True, help="working mode letter a-h or sign string like PPN")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("jac", help="Jacobian pair and singularity margins at a pose")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("theta_deg", type=float)
    p.add_argument("--mode", required=True)
    p.set_defaults(func=cmd_jac)

    p = sub.add_parser("workspace", help="octree of one (mode, det sign) workspace region")
    p.add_argument("--mode", required=True)
    p.add_argument("--sign", choices=["+", "-", "pos", "neg"], required=True)
    p.set_defaults(func=cmd_workspace)

    p = sub.add_parser("aspects", help="aspect census over all modes and det signs")
    p.add_argument("--no-joint", action="store_true", help="skip joint-space octrees")
    p.set_defaults(func=cmd_aspects)

    p = sub.add_parser("trajectory", help="monitor a waypoint path and verify mode change")
    p.add_argument("waypoints", help="JSON waypoints file")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("charsurf", help="characteristic surface of one aspect component")
    p.add_argument("--mode", required=True)
    p.add_argument("--sign", choices=["+", "-", "pos", "neg"], required=True)
    p.add_argument("--component", type=int, default=0)
    p.set_defaults(func=cmd_charsurf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return args.func(cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KinematicError as exc:
        print(f"kinematic error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
