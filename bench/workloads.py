"""The four benchmark workloads.

Each workload builds its inputs from the seed with ``oracle`` and numpy
only, hands the package nothing but those inputs, and checks every output
against the oracle or against golden data recorded in ``golden.json``.

A workload exposes:

* ``setup()``: prepare inputs and fixtures; idempotent, timed as set-up;
* ``ops``: the timed calls of one pass, a list of zero-argument callables;
  a pass is the same fixed work every time, so its counts repeat exactly;
* ``begin_pass()``, then ``check(i, output)`` for each op: an error
  message for op ``i``, or None;
* ``pass_counts()``: deterministic counts of the pass just checked;
* ``work``: work items per pass (unit named by ``work_unit``);
* ``once()``: a list of (label, error or None) for the checks made once
  per run, outside the timed passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Census depth: the 4+1x7 pattern per sign of depth 8 in a fifth of the time.
DEPTH = 7
#: Census depth of the untimed warm-up call.
WARMUP_DEPTH = 5
#: Triples per fk_sweep class (a: IK images, b: near-tangent, c: uniform).
FK_PER_CLASS = 1000
#: Most class-(b) triples per pass that may show each known solver defect
#: (``FkSweep._known_defect``); see ``README.md`` for how it was chosen.
DEFECT_CAP = 5
#: Samples per segment: 3-waypoint paths are monitored twice (two segments
#: each), 5-waypoint paths once (four segments), so the calls cost about the same.
SPP_3 = 2500
SPP_5 = 3000
#: Octree algebra plan: operand pairs (each gets union, intersect, subtract)
#: and windowed trees labeled with the graph labeler. A pair is redrawn until
#: its operand and result leaves sum into PAIR_LEAVES, which holds about 65 %
#: of the 240 ordered pairs (their sums run from 112k to 153k). The labeler's time grows
#: with the leaves it is given, which vary more than fivefold between random
#: windows, so each window is redrawn until the intersection has a leaf count
#: in GRAPH_LEAVES: every seed then labels about the same amount of work.
ALGEBRA_PAIRS = 2
PAIR_LEAVES = (136_000, 149_000)
GRAPH_WINDOWS = 4
GRAPH_LEAVES = (3000, 4000)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv) -> tuple[int, str, str]:
    """In-process ``planar3rrr.cli.main``; returns (exit code, stdout, stderr)."""
    from planar3rrr import cli

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def bundled(name: str) -> Path:
    from planar3rrr import cli

    return Path(cli.bundled_data_path(name))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def parse_dump(text: str):
    """(max depth, rows of (morton, depth, label, comp)) of an ``octree v1`` dump."""
    lines = text.splitlines()
    head = dump_header(lines[0])
    rows = []
    for ln in lines[1:]:
        rec = dict(tok.split("=", 1) for tok in ln.split())
        comp = rec["comp"]
        rows.append(
            (int(rec["morton"], 16), int(rec["depth"]), rec["label"] == "1",
             -1 if comp == "-" else int(comp))
        )
    return int(head["depth"]), rows


def dump_header(line: str) -> dict:
    return dict(part.strip().split("=", 1) for part in line.split(";")[1:])


def in_voxels(text: str) -> int:
    """Max-depth voxels covered by IN leaves: an exact integer volume."""
    max_depth = int(dump_header(text[: text.index("\n")])["depth"])
    depths = Counter(re.findall(r" depth=(\d+) label=1 ", text))
    return sum(n * 8 ** (max_depth - int(d)) for d, n in depths.items())


def leaf_index(code, depth: int) -> list:
    """Grid index of a leaf at its own depth; Morton codes hold x in the lowest bit.

    ``code`` may be an integer array, giving index arrays."""
    idx = [0, 0, 0]
    for level in range(depth):
        for axis in range(3):
            idx[axis] |= ((code >> (3 * level + axis)) & 1) << level
    return idx


def leaf_voxel(code: int, depth: int, max_depth: int) -> list[int]:
    """Max-depth voxel index of a leaf's origin."""
    return [i << (max_depth - depth) for i in leaf_index(code, depth)]


def in_grid(text: str) -> np.ndarray:
    """Boolean voxel grid at max depth of the IN leaves of a dump."""
    max_depth = int(dump_header(text[: text.index("\n")])["depth"])
    grid = np.zeros((1 << max_depth,) * 3, dtype=bool)
    rows = re.findall(r"morton=(0x[0-9a-f]+) depth=(\d+) label=1 ", text)
    codes = np.array([int(c, 16) for c, _ in rows], dtype=np.int64)
    depths = np.array([int(d) for _, d in rows])
    for depth in np.unique(depths):
        cells = np.zeros((1 << depth,) * 3, dtype=bool)
        cells[tuple(leaf_index(codes[depths == depth], depth))] = True
        size = 1 << (max_depth - depth)
        grid |= cells.repeat(size, 0).repeat(size, 1).repeat(size, 2)
    return grid


def window_leaves(grid: np.ndarray, lo, hi) -> int:
    """Leaves of the canonical octree of ``grid`` cut to the voxel box
    [lo, hi), with everything outside the box OUT.

    A canonical octree has seven leaves per internal node plus one, and a
    node is internal when its part of the box holds IN voxels but it is not
    wholly IN and inside the box.
    """
    anyin = grid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    full = anyin
    origin = list(lo)
    internal = 0
    for _ in range(grid.shape[0].bit_length() - 1):
        pad = [(o % 2, (o + n) % 2) for o, n in zip(origin, anyin.shape)]
        anyin, full = np.pad(anyin, pad), np.pad(full, pad)
        nx, ny, nz = (n // 2 for n in anyin.shape)
        anyin = anyin.reshape(nx, 2, ny, 2, nz, 2).any(axis=(1, 3, 5))
        full = full.reshape(nx, 2, ny, 2, nz, 2).all(axis=(1, 3, 5))
        internal += int((anyin & ~full).sum())
        origin = [o // 2 for o in origin]
    return 1 + 7 * internal


def leaf_centers(rows, max_depth: int, lo, hi):
    """Centers (3, n) of dump leaves."""
    out = np.empty((3, len(rows)))
    for k, (code, depth, _, _) in enumerate(rows):
        idx = leaf_index(code, depth)
        for axis in range(3):
            width = (hi[axis] - lo[axis]) / (1 << depth)
            out[axis, k] = lo[axis] + (idx[axis] + 0.5) * width
    return out


def angle_gap(a, b):
    return np.abs(oracle.wrap(np.asarray(a) - np.asarray(b)))


# --------------------------------------------------------------------- census


class Census:
    """``aspects`` at depth 7 with joint trees, on the bundled reference config.

    The paper's headline computation: sign grids, grid->tree merge, grid
    components, the bulk joint sweep and dump writing. Seed-independent.
    """

    work_unit = "pose cells"

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.work = float(1 << (3 * DEPTH))

    def setup(self):
        cfg = bundled("reference_geometry.json")
        oracle.check_reference_config(cfg)
        self.golden = load_golden()["census"]
        self.dir = fresh_dir(self.out / "census")
        argv = ["--config", cfg, "--out", self.dir, "--depth", DEPTH, "aspects"]
        self.ops = [lambda: run_cli(argv)]
        # The same code paths at a 64th of the cells: a warm-up that costs
        # a fraction of a timed call.
        warm = ["--config", cfg, "--out", fresh_dir(self.out / "census_warmup"),
                "--depth", WARMUP_DEPTH, "aspects"]
        self.warmup_ops = [lambda: run_cli(warm)]

    def begin_pass(self):
        self.counts = {}

    def check(self, i, output):
        rc, stdout, stderr = output
        if rc != 0:
            return f"aspects exit {rc}: {stderr.strip()}"
        manifest_bytes = (self.dir / "aspects_manifest.json").read_bytes()
        if sha256(manifest_bytes) != self.golden["manifest"]:
            return "manifest differs from golden"
        manifest = json.loads(manifest_bytes)
        counts = {"leaves_w": 0, "leaves_q": 0, "dump_bytes": 0, "raw_components": 0,
                  "solid_components": 0, "joint_components": 0}
        for entry in manifest["entries"]:
            counts["raw_components"] += entry["raw_components"]
            counts["solid_components"] += entry["components"]
            counts["joint_components"] += entry["joint_components"]
            for kind, key in (("w", "workspace_dump"), ("q", "joint_dump")):
                data = (self.dir / entry[key]).read_bytes()
                if sha256(data) != self.golden["dumps"][entry[key]]:
                    return f"{entry[key]} differs from golden"
                counts["dump_bytes"] += len(data)
                counts[f"leaves_{kind}"] += data.count(b"\n") - 1
            err = self._spot_check(entry)
            if err:
                return err
        if manifest["total_positive"] != 11 or manifest["total_negative"] != 11:
            return f"census {manifest['total_positive']}+{manifest['total_negative']}, want 11+11"
        self.counts = counts
        return None

    def _spot_check(self, entry):
        """Oracle check of the first 64 IN leaves: reachable, right det sign."""
        text = (self.dir / entry["workspace_dump"]).read_text(encoding="ascii")
        max_depth, rows = parse_dump(text)
        rows = [r for r in rows if r[2]][:64]
        box = [float(v) for v in dump_header(text[: text.index("\n")])["box"].split(",")]
        x, y, th = leaf_centers(rows, max_depth, box[:3], box[3:])
        signs = oracle.signs_of(entry["mode"])
        det = oracle.mode_indices(x, y, th, signs)[0]
        want = 1.0 if entry["sign"] == "+" else -1.0
        if not oracle.strict_reach(x, y, th, 0.0).all() or (np.sign(det) != want).any():
            return f"{entry['workspace_dump']}: IN leaf fails the oracle"
        return None

    def pass_counts(self):
        return self.counts

    def once(self):
        return []


# ------------------------------------------------------------------- fk_sweep


def _random_poses(rng, n, margin=1e-3):
    """n reachable, well-conditioned poses with random modes: (poses (n,3), modes)."""
    letters = list(oracle.MODES)
    poses, modes = [], []
    while len(poses) < n:
        k = 8 * n
        x = rng.uniform(-8.0, 8.0, k)
        y = rng.uniform(-8.0, 8.0, k)
        th = rng.uniform(-math.pi, math.pi, k)
        mi = rng.integers(0, 8, k)
        reach = oracle.strict_reach(x, y, th, margin)
        good = np.zeros(k, dtype=bool)
        for m, letter in enumerate(letters):
            sel = np.flatnonzero(reach & (mi == m))
            det, _, scale = oracle.mode_indices(x[sel], y[sel], th[sel], oracle.MODES[letter])
            good[sel] = np.abs(det) / scale > 1e-3
        for j in np.flatnonzero(good)[: n - len(poses)]:
            poses.append((x[j], y[j], th[j]))
            modes.append(letters[mi[j]])
    return np.array(poses), modes


def _near_tangent(rng, n):
    """n poses 1e-6 to 1e-2 inside a det(A) = 0 wall, reached along random lines.

    From a random pose, step along a random unit direction of (x, y, theta)
    until det(A) changes sign with every leg still reachable, bisect the
    crossing, and back off by a log-uniform gap.
    """
    steps = 0.05 * np.arange(1, 81)
    found = []
    while len(found) < n:
        p0, m0 = _random_poses(rng, n)
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        gaps = 10.0 ** rng.uniform(-6.0, -2.0, n)
        m0 = np.array(m0)
        batch = []
        for letter, signs in oracle.MODES.items():
            sel = np.flatnonzero(m0 == letter)
            p, d = p0[sel], v[sel]
            s0 = np.sign(oracle.mode_indices(p[:, 0], p[:, 1], p[:, 2], signs)[0])
            line = p[None] + steps[:, None, None] * d[None]
            lx, ly, lt = line[..., 0], line[..., 1], line[..., 2]
            lost = ~oracle.strict_reach(lx, ly, lt, 1e-3)
            flip = np.sign(oracle.mode_indices(lx, ly, lt, signs)[0]) != s0[None]
            first_flip = np.where(flip.any(axis=0), flip.argmax(axis=0), len(steps))
            first_lost = np.where(lost.any(axis=0), lost.argmax(axis=0), len(steps))
            ok = first_flip < np.minimum(first_lost, len(steps))
            hi = steps[np.minimum(first_flip, len(steps) - 1)]
            lo = np.where(first_flip > 0, hi - 0.05, 0.0)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                q = p + mid[:, None] * d
                same = np.sign(oracle.mode_indices(q[:, 0], q[:, 1], q[:, 2], signs)[0]) == s0
                lo = np.where(same, mid, lo)
                hi = np.where(same, hi, mid)
            q = p + (lo - gaps[sel])[:, None] * d
            ok &= oracle.strict_reach(q[:, 0], q[:, 1], q[:, 2], 1e-3)
            ok &= np.sign(oracle.mode_indices(q[:, 0], q[:, 1], q[:, 2], signs)[0]) == s0
            batch.extend((int(sel[j]), q[j], letter) for j in np.flatnonzero(ok))
        batch.sort(key=lambda item: item[0])
        found.extend(batch[: n - len(found)])
    return np.array([q for _, q, _ in found]), [m for _, _, m in found]


class FkSweep:
    """Scalar ``forward_kinematics`` on seeded triples in three equal classes.

    (a) IK images of random reachable poses, (b) IK images of poses close to
    a det(A) = 0 wall, (c) uniform random triples. Class (b) keeps a solver
    that is fast only on easy inputs from looking good.
    """

    work_unit = "fk calls"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.work = float(3 * FK_PER_CLASS)

    def setup(self):
        from planar3rrr.geometry import GeometryConfig

        cfg = bundled("reference_geometry.json")
        oracle.check_reference_config(cfg)
        self.cli_golden = load_golden()["fk_cli"]
        self.cli_argv = ["--config", cfg, "fk", *(repr(a) for a in oracle.BENCHMARK_TRIPLE)]
        rng = np.random.default_rng([self.seed, 1])
        pa, ma = _random_poses(rng, FK_PER_CLASS)
        pb, mb = _near_tangent(rng, FK_PER_CLASS)
        triples, sources, classes = [], [], []
        for cls, poses, modes in (("a", pa, ma), ("b", pb, mb)):
            for p, m in zip(poses, modes):
                triples.append(oracle.ik_alpha(*p, oracle.MODES[m]))
                sources.append(p)
                classes.append(cls)
        for alpha in rng.uniform(-math.pi, math.pi, (FK_PER_CLASS, 3)):
            triples.append(alpha)
            sources.append(None)
            classes.append("c")
        order = rng.permutation(len(triples))
        self.triples = [tuple(float(v) for v in triples[k]) for k in order]
        self.sources = [sources[k] for k in order]
        self.classes = [classes[k] for k in order]
        geom = GeometryConfig.reference()
        if (geom.l, geom.m, geom.r, geom.s) != (oracle.L, oracle.M, oracle.R, oracle.S) or any(
            abs(a - b) > 1e-15
            for a, b in zip(geom.base_phase + geom.platform_phase, tuple(oracle.PHASES) * 2)
        ):
            raise ValueError("GeometryConfig.reference() is not the reference geometry")
        from planar3rrr import kinematics

        self.ops = [
            (lambda alpha=alpha: kinematics.forward_kinematics(geom, alpha))
            for alpha in self.triples
        ]

    def begin_pass(self):
        self.counts = {f"poses_{c}": 0 for c in "abc"}
        self.counts.update({f"empty_{c}": 0 for c in "abc"})
        self.counts.update(distinct=0, missed_b=0, excess_b=0, defect_triples=[])
        self.digest = hashlib.sha256()

    def check(self, i, poses):
        alpha = np.array(self.triples[i])
        cls = self.classes[i]
        got = [(p.x, p.y, p.theta) for p in poses]
        self.digest.update(repr(got).encode())
        self.counts[f"poses_{cls}"] += len(got)
        self.counts[f"empty_{cls}"] += not got
        if len(got) > 6:
            if cls != "b":
                return f"triple {i}: {len(got)} poses, at most 6 exist"
            err = self._known_defect("excess_b", i)
            if err:
                return err
        for k, p in enumerate(got):
            err = float(oracle.closure_error(alpha, *p))
            if not err < 1e-8:
                return f"triple {i}: pose {k} misses closure by {err:.3g}"
            if any(oracle.pose_distance(p, q) <= 1e-8 for q in got[:k]):
                return f"triple {i}: duplicate pose {k}"
        # Poses more than 1e-6 from every earlier one: clusters count once.
        self.counts["distinct"] += sum(
            all(oracle.pose_distance(p, q) > 1e-6 for q in got[:k]) for k, p in enumerate(got)
        )
        src = self.sources[i]
        if src is not None:
            gap = min((oracle.pose_distance(src, p) for p in got), default=math.inf)
            if not gap <= 1e-6:
                if cls != "b":
                    return f"triple {i} (class {cls}): source pose missed by {gap:.3g}"
                return self._known_defect("missed_b", i)
        return None

    def _known_defect(self, kind, i):
        """Near a det(A) = 0 wall the solver can drop a close root pair inside
        a root cluster, or return near-duplicates of a clustered root (more
        than six poses). Both are counted, with the first triples, so that a
        fix shows. Up to ``DEFECT_CAP`` of each kind per pass they are not
        operation failures; the triple that goes over the cap fails."""
        self.counts[kind] += 1
        if len(self.counts["defect_triples"]) < 5:
            self.counts["defect_triples"].append([kind, *self.triples[i]])
        if self.counts[kind] > DEFECT_CAP:
            return f"triple {i}: {kind} reached {self.counts[kind]}, over the cap {DEFECT_CAP}"
        return None

    def pass_counts(self):
        return dict(self.counts, digest=self.digest.hexdigest()[:16])

    def once(self):
        rc, stdout, stderr = run_cli(self.cli_argv)
        if rc != 0:
            return [("cli fk", f"fk exit {rc}: {stderr.strip()}")]
        if stdout != self.cli_golden:
            return [("cli fk", "fk output differs from golden")]
        rows = [ln.split() for ln in stdout.splitlines()[1:]]
        alpha = np.array(oracle.BENCHMARK_TRIPLE)
        for row in rows:
            x, y, th = float(row[1]), float(row[2]), math.radians(float(row[3]))
            if not float(oracle.closure_error(alpha, x, y, th)) < 1e-4:
                return [("cli fk", f"printed pose {row[0]} misses closure")]
        if len(rows) != 4:
            return [("cli fk", f"{len(rows)} poses printed, want 4")]
        return [("cli fk", None)]


# --------------------------------------------------------------- path_monitor


def _deg_waypoints(waypoints):
    return [(x, y, math.radians(t)) for x, y, t in waypoints]


def _path_ok(waypoints_deg, spp, mode) -> bool:
    """Every sample strictly reachable; endpoints clear of singularities."""
    wp = _deg_waypoints(waypoints_deg)
    _, x, y, th = oracle.path_samples(wp, spp)
    if not oracle.strict_reach(x, y, th, 1e-6).all():
        return False
    signs = oracle.signs_of(mode)
    for p in (wp[0], wp[-1]):
        det, bii, scale = oracle.mode_indices(*p, signs)
        if abs(det) / scale <= 1e-6 or (np.abs(bii) <= 1e-6).any():
            return False
    return True


class PathMonitor:
    """CLI ``trajectory`` on the reference path, jittered 3-waypoint paths
    near it and 5-waypoint paths, all densely sampled.

    Time goes to scalar IK and ``jacobians`` per sample; 3-waypoint paths
    are monitored twice and run a single-mode depth-6 census.
    """

    work_unit = "path samples"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self):
        cfg = bundled("reference_geometry.json")
        oracle.check_reference_config(cfg)
        self.cfg = cfg
        self.golden = load_golden()["path"]
        ref_file = bundled("reference_path.json")
        with open(ref_file, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        self.ref_file = ref_file
        self.mode = ref["mode"]
        rng = np.random.default_rng([self.seed, 2])
        paths = [("ref", ref["waypoints"], SPP_3)]
        for k in range(2):
            while True:
                wp = [
                    [x + rng.normal(0, 0.05), y + rng.normal(0, 0.05), t + rng.normal(0, 2.0)]
                    for x, y, t in ref["waypoints"]
                ]
                if _path_ok(wp, SPP_3, self.mode):
                    break
            paths.append((f"jitter{k}", wp, SPP_3))
        for k in range(2):
            while True:
                x, y, t = ref["waypoints"][0]
                wp = [[x + rng.normal(0, 0.05), y + rng.normal(0, 0.05), t + rng.normal(0, 2.0)]]
                for _ in range(4):
                    x, y, t = wp[-1]
                    wp.append([x + rng.normal(0, 0.4), y + rng.normal(0, 0.4),
                               t + rng.normal(0, 8.0)])
                if _path_ok(wp, SPP_5, self.mode):
                    break
            paths.append((f"five{k}", wp, SPP_5))
        self.dir = fresh_dir(self.out / "path_monitor")
        self.paths = []
        self.ops = []
        for name, wp, spp in paths:
            spec = self.dir / f"{name}.json"
            spec.write_text(json.dumps({"mode": self.mode, "samples_per_segment": spp,
                                        "waypoints": wp}, indent=1), encoding="ascii")
            out = self.dir / name
            self.paths.append((name, wp, spp, out))
            self.ops.append(
                lambda spec=spec, out=out: run_cli(["--config", cfg, "--out", out,
                                                    "trajectory", spec])
            )
        self.work = float(sum((len(wp) - 1) * (spp - 1) + 1 for _, wp, spp, _ in self.paths))

    def begin_pass(self):
        self.counts = {}

    def check(self, i, output):
        name, wp, spp, out = self.paths[i]
        rc, stdout, stderr = output
        if rc != 0:
            return f"{name}: trajectory exit {rc}: {stderr.strip()}"
        err, counts = self._check_outputs(out, wp, spp)
        if err:
            return f"{name}: {err}"
        self.counts[name] = counts
        if name == "ref":
            for fname in ("profile.csv", "evidence.json"):
                if sha256((out / fname).read_bytes()) != self.golden["ref_dense"][fname]:
                    return f"ref: {fname} differs from golden"
        return None

    def _check_outputs(self, out, wp_deg, spp):
        """Compare profile.csv and evidence.json with the oracle, sample by sample."""
        profile = (out / "profile.csv").read_bytes()
        evidence = json.loads((out / "evidence.json").read_text(encoding="ascii"))
        table = np.loadtxt(io.BytesIO(profile), delimiter=",", skiprows=1, ndmin=2)
        wp = _deg_waypoints(wp_deg)
        t, x, y, th = oracle.path_samples(wp, spp)
        if table.shape != (len(t), 15):
            return f"profile has shape {table.shape}, want ({len(t)}, 15)", None
        # Cells are printed with %.9g: 9 significant digits.
        rel = 1e-8
        for col, want in ((0, t), (1, x), (2, y)):
            if (np.abs(table[:, col] - want) > rel * np.abs(want) + 1e-12).any():
                return f"profile column {col} is not the path", None
        if (angle_gap(np.radians(table[:, 3]), th) > 1e-7).any():
            return "profile theta is not the path", None
        signs = oracle.signs_of(self.mode)
        alpha = oracle.ik_alpha(x, y, th, signs)
        if (angle_gap(table[:, 4:7].T, alpha) > 1e-7).any():
            return "profile alpha differs from the oracle IK", None
        det, bii, scale = oracle.mode_indices(x, y, th, signs)
        for col, want in ((7, det), (8, bii[0]), (9, bii[1]), (10, bii[2])):
            if (np.abs(table[:, col] - want) > 1e-7 * np.abs(want) + 1e-9 * scale).any():
                return f"profile column {col} differs from the oracle", None
            norm = want / np.abs(want).max()
            if (np.abs(table[:, col + 4] - norm) > 1e-8).any():
                return f"profile column {col + 4} is not normalized", None
        verdict = oracle.monitor_verdict(det, bii, scale)
        if evidence["monitor_verdict"] != verdict or evidence["samples"] != len(t):
            return f"evidence {evidence['monitor_verdict']}/{evidence['samples']}, " \
                   f"oracle {verdict}/{len(t)}", None
        if len(wp) == 3:
            gap = float(angle_gap(oracle.ik_alpha(*wp[0], signs), oracle.ik_alpha(*wp[-1], signs)).max())
            if abs(evidence["alpha_gap"] - gap) > 1e-9 or evidence["shared_alpha"] != (gap <= 1e-4):
                return "evidence alpha gap differs from the oracle", None
            change = evidence["shared_alpha"] and evidence["same_aspect"] and verdict == "NonSingular"
            if evidence["verdict"] != ("ChangeDemonstrated" if change else "NotDemonstrated"):
                return f"evidence verdict {evidence['verdict']} is inconsistent", None
        return None, {"samples": len(t), "verdict": evidence.get("verdict", verdict),
                      "profile_bytes": len(profile)}

    def pass_counts(self):
        return self.counts

    def once(self):
        """The bundled path file exactly as shipped: the README's command."""
        out = self.dir / "bundled"
        rc, stdout, stderr = run_cli(["--config", self.cfg, "--out", out, "trajectory",
                                      self.ref_file])
        if rc != 0:
            return [("bundled path", f"trajectory exit {rc}: {stderr.strip()}")]
        for fname in ("profile.csv", "evidence.json"):
            if sha256((out / fname).read_bytes()) != self.golden["bundled"][fname]:
                return [("bundled path", f"{fname} differs from golden")]
        evidence = json.loads((out / "evidence.json").read_text(encoding="ascii"))
        if evidence.get("verdict") != "ChangeDemonstrated":
            return [("bundled path", f"verdict {evidence.get('verdict')}")]
        return [("bundled path", None)]


# ------------------------------------------------------------- octree_algebra


def window_dump(head: str, max_depth: int, lo, hi) -> str:
    """Canonical dump of the voxel box [lo, hi) (max-depth indices) as IN."""
    lines = [head]

    def visit(code, depth, origin, size):
        inside = all(lo[a] <= origin[a] and origin[a] + size <= hi[a] for a in range(3))
        outside = any(origin[a] + size <= lo[a] or origin[a] >= hi[a] for a in range(3))
        if inside or outside or depth == max_depth:
            lines.append(f"morton={code:#x} depth={depth} label={int(inside)} comp=-")
            return
        half = size // 2
        for child in range(8):
            sub = tuple(origin[a] + ((child >> a) & 1) * half for a in range(3))
            visit(code * 8 + child, depth + 1, sub, half)

    visit(0, 0, (0, 0, 0), 1 << max_depth)
    return "\n".join(lines) + "\n"


class OctreeAlgebra:
    """Read side of the octree layer on the 16 depth-7 workspace dumps.

    Each pass parses every dump, applies a seeded plan of union, intersect
    and subtract over pairs, labels seeded windows of trees with the graph
    labeler, and dumps every result.
    """

    work_unit = "leaves"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self):
        from planar3rrr import octree

        cfg = bundled("reference_geometry.json")
        oracle.check_reference_config(cfg)
        golden = load_golden()["census"]["dumps"]
        dump_dir = fresh_dir(self.out / "octree_algebra")
        rc, _, stderr = run_cli(["--config", cfg, "--out", dump_dir, "--depth", DEPTH,
                                 "aspects", "--no-joint"])
        if rc != 0:
            raise RuntimeError(f"building the workspace dumps failed: {stderr.strip()}")
        names = sorted(p.name for p in dump_dir.glob("aspect_w_*.oct"))
        self.names = names
        self.texts = [(dump_dir / n).read_text(encoding="ascii") for n in names]
        # The --no-joint census writes the same workspace trees as the census.
        self.setup_errors = [
            f"{n} differs from the census golden dump"
            for n, t in zip(names, self.texts)
            if sha256(t.encode()) != golden[n]
        ]
        self.volumes = [in_voxels(t) for t in self.texts]
        rng = np.random.default_rng([self.seed, 3])
        n = 1 << DEPTH
        in_rows, grids = {}, {}

        def grid(tree):
            if tree not in grids:
                grids[tree] = in_grid(self.texts[tree])
            return grids[tree]

        ops = ("union", "intersect", "subtract")
        self.plan = []
        for _ in range(ALGEBRA_PAIRS):
            # Redrawn until the pair's operand and result leaves (counted
            # from voxel grids with numpy) are in PAIR_LEAVES: the merge
            # walk's work then varies little from seed to seed.
            while True:
                i, j = (int(v) for v in rng.choice(len(names), 2, replace=False))
                a, b = grid(i), grid(j)
                total = sum(window_leaves(g, (0, 0, 0), (n, n, n)) for g in (a, b, a | b, a & b, a & ~b))
                if PAIR_LEAVES[0] <= total <= PAIR_LEAVES[1]:
                    break
            self.plan.append((i, j, tuple(ops[k] for k in rng.permutation(3))))
        head = self.texts[0].splitlines()[0]
        half = n // 8
        self.windows = []
        self.graph_plan = []
        for w in range(GRAPH_WINDOWS):
            # A window of a quarter of the box per axis around a random IN
            # leaf of the tree it is applied to, redrawn until the canonical
            # intersection has a leaf count in GRAPH_LEAVES.
            while True:
                tree = int(rng.integers(len(names)))
                if tree not in in_rows:
                    in_rows[tree] = re.findall(r"morton=(0x[0-9a-f]+) depth=(\d+) label=1 ",
                                               self.texts[tree])
                rows = in_rows[tree]
                code, depth = rows[int(rng.integers(len(rows)))]
                center = leaf_voxel(int(code, 16), int(depth), DEPTH)
                lo = [min(max(c - half, 0), n - 2 * half) for c in center]
                hi = [a + 2 * half for a in lo]
                if GRAPH_LEAVES[0] <= window_leaves(grid(tree), lo, hi) <= GRAPH_LEAVES[1]:
                    break
            self.windows.append(window_dump(head, DEPTH, lo, hi))
            self.graph_plan.append((tree, w))
        self.ops = [lambda: self._pass(octree)]
        self.warmup_ops = [lambda: self._warmup(octree)]
        self.work = 0.0

    def _warmup(self, octree):
        """Every call of a pass, on two window trees: a second instead of a pass."""
        a, b = (octree.loads(t) for t in self.windows[:2])
        for name in ("union", "intersect", "subtract"):
            getattr(octree, name)(a, b)
        lab, _ = octree.connected_components(a, method="graph")
        octree.dumps(lab)

    def _pass(self, octree):
        trees = [octree.loads(t) for t in self.texts]
        windows = [octree.loads(t) for t in self.windows]
        results = []
        for i, j, names in self.plan:
            for name in names:
                results.append((i, j, name, getattr(octree, name)(trees[i], trees[j])))
        labeled = []
        for i, w in self.graph_plan:
            sub = octree.intersect(trees[i], windows[w])
            lab, count = octree.connected_components(sub, method="graph")
            labeled.append((sub, lab, count))
        texts = [octree.dumps(r) for *_, r in results] + [octree.dumps(lab) for _, lab, _ in labeled]
        return trees, results, labeled, texts

    def begin_pass(self):
        self.counts = {}

    def check(self, i, output):
        from planar3rrr import octree

        trees, results, labeled, texts = output
        leaves_out = sum(r.n_leaves for *_, r in results) + sum(l.n_leaves for _, l, _ in labeled)
        leaves_in = sum(t.n_leaves for t in trees) + sum(s.n_leaves for s, _, _ in labeled)
        self.work = float(leaves_in + leaves_out)
        if self.setup_errors:
            return self.setup_errors[0]
        for name, tree, text in zip(self.names, trees, self.texts):
            if octree.dumps(tree) != text:
                return f"{name}: loads/dumps round trip changed the bytes"
        vol = {}
        for k, (a, b, name, _) in enumerate(results):
            vol[(a, b, name)] = in_voxels(texts[k])
        for a, b, _ in self.plan:
            va, vb = self.volumes[a], self.volumes[b]
            u, n, s = vol[(a, b, "union")], vol[(a, b, "intersect")], vol[(a, b, "subtract")]
            if u + n != va + vb or s != va - n:
                return f"volume identity fails for pair {self.names[a]}, {self.names[b]}"
        components = []
        for k, (sub, lab, count) in enumerate(labeled):
            _, grid_count = octree.connected_components(sub, method="grid")
            _, rows = parse_dump(texts[len(results) + k])
            ids = {c for _, _, inside, c in rows if inside}
            if count != grid_count or ids != set(range(count)):
                return f"window {k}: graph {count}, grid {grid_count}, dump ids {len(ids)}"
            components.append(count)
        self.counts = {
            "leaves_loaded": sum(t.n_leaves for t in trees),
            "leaves_out": leaves_out,
            "graph_components": components,
            "graph_leaves": [s.n_leaves for s, _, _ in labeled],
            "dump_bytes": sum(len(t) for t in texts),
            "digest": sha256("".join(texts).encode())[:16],
        }
        return None

    def pass_counts(self):
        return self.counts

    def once(self):
        return []


WORKLOADS = {
    "census": Census,
    "fk_sweep": FkSweep,
    "path_monitor": PathMonitor,
    "octree_algebra": OctreeAlgebra,
}
