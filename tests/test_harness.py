"""Experiment drivers: config handling, CSV/SVG emission, exit codes."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mfcutfem import harness, operators
from mfcutfem.geometry import BallUnionLevelSet, SphereLevelSet, box_mesh, generate_balls, save_balls
from mfcutfem.operators import Parameters, assemble_rhs, build_context
from mfcutfem.tensor1d import build_reference_element
from mfcutfem.harness import (
    BREAKDOWN_HEADER,
    CONVERGENCE_HEADER,
    KERNELBENCH_HEADER,
    THROUGHPUT_HEADER,
    ConfigError,
    RunConfig,
    _bench_point_cell,
    _cut_rows,
    _params,
    _volume_points,
    build_config,
    _build_parser,
    load_config_file,
    main,
    validate_config,
    write_csv,
)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def svg_data_rows(path):
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    return sorted(
        int(el.attrib["data-row"]) for el in root.iter() if "data-row" in el.attrib
    )


# ---------------------------------------------------------------------------
# configuration


def test_load_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# experiment setup\n"
        "degrees = 1,2\n"
        "refinements = 3   # five would be slower\n"
        "\n"
        "domain = disk\n"
        "gamma_ghost = 0.25\n"
        "strict = true\n",
        encoding="utf-8",
    )
    values = load_config_file(cfg_file)
    assert values == {
        "degrees": (1, 2),
        "refinements": 3,
        "domain": "disk",
        "gamma_ghost": 0.25,
        "strict": True,
    }


def test_load_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("does_not_exist = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(cfg_file)
    cfg_file.write_text("workers = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(cfg_file)


def test_load_config_rejects_bad_syntax(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("refinements 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(cfg_file)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "absent.cfg")


def test_cli_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("degrees = 1,2\nrefinements = 4\nseed = 7\n", encoding="utf-8")
    args = _build_parser().parse_args(
        ["convergence", "--config", str(cfg_file), "--refinements", "2"]
    )
    cfg = build_config(args)
    assert cfg.degrees == (1, 2)  # from file
    assert cfg.refinements == 2  # flag wins
    assert cfg.seed == 7


def test_validate_config_errors():
    bad = [
        dict(degrees=()),
        dict(degrees=(5,)),
        dict(refinements=0),
        dict(dim=4),
        dict(dim=3),  # the default domain, the disk, is 2D
        dict(domain="torus"),
        dict(problem="mystery"),
        dict(r0=0.0),
        dict(r0=float("nan")),
        dict(r0=float("inf")),
        dict(offset=float("nan")),
        dict(offset=float("-inf")),
        dict(ball_counts=(0,)),
        dict(gamma_ghost=-1.0),
        dict(gamma_ghost=float("nan")),
        dict(gamma_ghost=float("inf")),
        dict(gamma_dirichlet=float("nan")),
        dict(quad_order=0),
        dict(max_quad_depth=-1),
        dict(repeats=0),
        dict(seed=-1),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            validate_config(RunConfig(command="breakdown", **overrides))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(command="convergence", domain="balls"))


def test_main_returns_2_on_config_error(tmp_path, capsys):
    assert main(["convergence", "--degrees", "9", "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    for argv in (
        ["breakdown", "--domain", "halfspace", "--offset", "nan"],
        ["multiballs", "--r0", "nan"],
        ["multiballs", "--r0", "inf"],
        ["multiballs", "--seed", "-1"],
        ["convergence", "--gamma-ghost", "nan"],
        ["convergence", "--gamma-ghost", "inf"],
        ["convergence", "--gamma-dirichlet", "nan"],
        ["convergence", "--dim", "3", "--domain", "disk", "--refinements", "1", "--degrees", "1", "--interpolate-only"],
    ):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2, argv
        assert "configuration error" in capsys.readouterr().err


def test_quad_order_mapping(monkeypatch):
    # quad_order sets the cut rules and, at least k+1, the right-hand side's
    # rule on uncut cells; the element keeps its exact k+1 points
    mesh = box_mesh([-1.26] * 2, [1.26] * 2, [4, 4])
    phi = SphereLevelSet([0.0, 0.0], 1.0)
    orders, uncut_chunks = [], operators._uncut_chunks
    monkeypatch.setattr(operators, "_uncut_chunks", lambda ctx, order: orders.append(order) or uncut_chunks(ctx, order))
    for q in (2, 6):
        params = _params(RunConfig(command="breakdown", quad_order=q), 3)
        assert params.quad_order == q  # cut rules
        ctx = build_context(mesh, phi, params)
        assert len(ctx.elem.quad_points) == 4
        assemble_rhs(ctx, lambda x: 1.0)
    assert orders == [4, 6]  # never below k+1 on uncut cells


def test_the_error_order_is_not_a_setting(tmp_path, capsys):
    # l2_error integrates at k+2: error_quad_order is an unknown config key
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("error_quad_order = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'error_quad_order'"):
        load_config_file(cfg_file)
    assert main(["convergence", "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_an_output_directory_that_cannot_be_made_is_a_configuration_error(tmp_path, capsys):
    # a regular file as the parent of --out-dir: exit 2 with the path and
    # the OS error, which the ConfigError chains
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "x"
    argv = ["breakdown", "--degrees", "1", "--refinements", "1", "--repeats", "1", "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"configuration error: cannot create output directory {out}: " in capsys.readouterr().err
    with pytest.raises(ConfigError) as info:
        harness._out_dir(RunConfig(command="breakdown", out_dir=str(out)))
    assert isinstance(info.value.__cause__, NotADirectoryError)


def test_csv_floats_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    values = [1.0 / 3.0, 6.02e23, 2.52 / 6.0, 1e-300]
    write_csv(path, "a,b,c,d", [values])
    _, rows = read_csv(path)
    assert [float(tok) for tok in rows[0]] == values
    write_csv(path, "x,y", [[None, 3]])
    _, rows = read_csv(path)
    assert rows[0] == ["", "3"]


# ---------------------------------------------------------------------------
# convergence driver


def test_convergence_interpolate_only(tmp_path):
    code = main(
        [
            "convergence",
            "--degrees", "1",
            "--refinements", "3",
            "--interpolate-only",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == CONVERGENCE_HEADER
    assert len(rows) == 3
    assert rows[0][6] == ""  # no rate before the first refinement
    errors = [float(r[5]) for r in rows]
    assert errors[1] < errors[0] and errors[2] < errors[1]
    for row in rows[1:]:
        assert float(row[6]) >= 1.7  # interpolation of degree 1 converges at ~2
    assert [int(r[4]) for r in rows] == [0, 0, 0]  # no solves requested
    # SVG is well-formed and marks each CSV data row exactly once
    assert svg_data_rows(tmp_path / "convergence.svg") == [1, 2, 3]


def test_convergence_solve_small(tmp_path):
    code = main(
        [
            "convergence",
            "--degrees", "1",
            "--refinements", "2",
            "--problem", "quadratic",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "convergence.csv")
    assert all(int(r[4]) > 0 for r in rows)
    assert float(rows[1][5]) < float(rows[0][5])
    assert int(rows[1][3]) > int(rows[0][3])  # refinement grows the system


def test_convergence_strict_flags_nonconvergence(tmp_path, capsys):
    # a negative boundary penalty destroys positive definiteness, so CG stalls
    code = main(
        [
            "convergence",
            "--degrees", "1",
            "--refinements", "1",
            "--gamma-dirichlet", "-5000",
            "--strict",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 3
    assert (tmp_path / "convergence.csv").exists()  # rows still recorded
    assert "breakdown" in capsys.readouterr().err  # the warning names the stop reason


def test_convergence_rerun_bitwise_identical(tmp_path):
    args = ["convergence", "--degrees", "1,2", "--refinements", "2", "--interpolate-only"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(dir_a)]) == 0
    assert main(args + ["--out-dir", str(dir_b)]) == 0
    assert (dir_a / "convergence.csv").read_bytes() == (dir_b / "convergence.csv").read_bytes()
    assert (dir_a / "convergence.svg").read_bytes() == (dir_b / "convergence.svg").read_bytes()


# ---------------------------------------------------------------------------
# kernel benchmark driver


def test_kernelbench_csv(tmp_path):
    code = main(["kernelbench", "--degrees", "1,2", "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "kernelbench.csv")
    assert header == KERNELBENCH_HEADER
    kernels = ("sumfac_cell", "point_cell", "ghost_face")
    assert len(rows) == 2 * 2 * len(kernels)
    for d in ("2", "3"):
        block = [r for r in rows if r[0] == d]
        assert [r[2] for r in block] == list(kernels) * 2
        assert float(block[0][4]) == 1.0  # normalized by sumfac at smallest k
        for r in block:
            assert float(r[3]) > 0.0
            assert float(r[4]) == pytest.approx(float(r[3]) / float(block[0][3]))


def test_kernelbench_point_cell_call_does_no_set_up(monkeypatch):
    # the cut block is tabulated when the call is built; the timed call
    # only runs cut_apply on it
    rng = np.random.default_rng(0)
    elem = build_reference_element(2)
    u_cells, pts_ref = rng.standard_normal((8, 27)), rng.random((8, 27, 3))
    call = _bench_point_cell(elem, (0.1,) * 3, u_cells, pts_ref, np.full(8 * 27, 1e-3 / 27))
    expected = call()

    def forbidden(*args, **kwargs):
        raise AssertionError("the timed call redid set-up work")

    for module, name in [(operators, "tabulate"), (operators, "_tensor_rows"), (operators, "cut_block"),
                         (harness, "cut_block")]:
        monkeypatch.setattr(module, name, forbidden)
    got = call()
    assert len(got) == len(expected) and all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_kernelbench_point_cell_block_has_no_padding(monkeypatch):
    # nloc volume points in every cell, d rows each: S = d nloc, one full
    # slot per cell
    rng = np.random.default_rng(0)
    blocks = []
    monkeypatch.setattr(harness, "cut_block", lambda *args: blocks.append(operators.cut_block(*args)) or blocks[-1])
    for d, k in [(2, 1), (2, 3), (3, 2)]:
        nloc = (k + 1) ** d
        call = _bench_point_cell(build_reference_element(k), (0.1,) * d, rng.standard_normal((8, nloc)),
                                 rng.random((8, nloc, d)), np.full(8 * nloc, 1e-3 / nloc))
        blk = blocks[-1]
        assert blk.factors.shape[1] == d * nloc and blk.real.all() and blk.cell.tolist() == list(range(8))
        assert call().shape == (8, nloc)


# ---------------------------------------------------------------------------
# multi-ball throughput driver


@pytest.mark.parametrize("dim, cells, degree, depth, balls, rule, block, stored, real",
                         [(2, 48, 2, 8, 0, 1746, 1746, 4656, 4404), (3, 6, 1, 2, 3, 3140, 1395, 6464, 5981)],
                         ids=["disk", "three-balls"])
def test_volume_points_log_counts_the_block_without_its_padding(dim, cells, degree, depth, balls, rule, block, stored,
                                                                real):
    # a unit disk at 48^2, k = 2, and a union of three balls at 6^3, k = 1,
    # quadrature depth 2, each shifted by under half a cell; the three balls'
    # crowded cells keep 27 moment-fitted volume points each
    mesh = box_mesh([-1.26] * dim, [1.26] * dim, [cells] * dim)
    shift = np.random.default_rng([0, dim, balls]).uniform(-0.5, 0.5, size=dim) * np.asarray(mesh.spacing)
    if balls:
        centers, radii = generate_balls(balls, 0, [-1.26] * dim, [1.26] * dim, r0=2.0)
        phi = BallUnionLevelSet(centers + shift, radii)
    else:
        phi = SphereLevelSet(shift, 1.0)
    ctx = build_context(mesh, phi, Parameters(degree=degree, max_quad_depth=depth))
    assert (~ctx.cut.real).any()  # padding the count leaves out
    assert _volume_points(ctx) == f"volume_points rule={rule} block={block}"
    assert _cut_rows(ctx) == f"cut_rows stored={stored} real={real}"


def test_multiballs_csv(tmp_path, capsys):
    code = main(
        [
            "multiballs",
            "--degrees", "1",
            "--ball-counts", "1,2",
            "--refinements", "4",
            "--repeats", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "multiballs.csv")
    assert header == THROUGHPUT_HEADER
    assert [r[0] for r in rows] == ["1", "2"]
    for row in rows:
        assert 0.0 <= float(row[4]) <= 1.0
        assert float(row[5]) > 0.0
        assert int(row[3]) > 0
    for n in (1, 2):
        assert (tmp_path / f"balls_{n}.txt").exists()
        bheader, brows = read_csv(tmp_path / f"breakdown_balls{n}.csv")
        assert bheader == BREAKDOWN_HEADER
        assert sum(float(r[2]) for r in brows) == pytest.approx(100.0, abs=0.5)
    # each run logs its cut cells' volume points in the rules and in the cut
    # block, and the block's stored and real rows
    err = capsys.readouterr().err
    counts = re.findall(r"multiballs n=\d+: .* volume_points rule=(\d+) block=(\d+)", err)
    assert len(counts) == 2 and all(0 < int(block) <= int(rule) for rule, block in counts)
    rows = re.findall(r"multiballs n=\d+: .* cut_rows stored=(\d+) real=(\d+)", err)
    assert len(rows) == 2 and all(0 < int(real) <= int(stored) for stored, real in rows)


def test_multiballs_degenerate_domain(tmp_path):
    balls = tmp_path / "far.txt"
    save_balls(balls, np.array([[50.0, 50.0]]), np.array([0.25]))
    code = main(
        [
            "multiballs",
            "--degrees", "1",
            "--ball-counts", "1",
            "--ball-file", str(balls),
            "--refinements", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "multiballs.csv")
    assert rows[0][3] == "0"
    assert float(rows[0][5]) == 0.0


def test_ball_file_needs_one_ball_count(tmp_path, capsys):
    balls = tmp_path / "two.txt"
    save_balls(balls, np.array([[-0.4, 0.0], [0.4, 0.1]]), np.array([0.6, 0.5]))
    common = ["--degrees", "1", "--refinements", "3", "--repeats", "1", "--ball-file", str(balls),
              "--out-dir", str(tmp_path)]
    # the file gives one domain, so several ball counts cannot all be honoured
    assert main(["multiballs"] + common) == 2
    assert "ball count" in capsys.readouterr().err
    assert main(["multiballs", "--ball-counts", "2"] + common) == 0
    _, rows = read_csv(tmp_path / "multiballs.csv")
    assert [r[0] for r in rows] == ["2"]
    assert (tmp_path / "balls_2.txt").read_bytes() == balls.read_bytes()
    # breakdown reads the file whatever the (default) ball counts
    capsys.readouterr()
    assert main(["breakdown", "--domain", "balls"] + common) == 0
    assert re.search(r"breakdown volume_points rule=\d+ block=\d+ cut_rows stored=\d+ real=\d+",
                     capsys.readouterr().err)


def test_ball_file_is_checked_at_configuration_time(tmp_path, capsys):
    flat = tmp_path / "flat.txt"
    save_balls(flat, np.array([[-0.4, 0.0], [0.4, 0.1]]), np.array([0.6, 0.5]))
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("-0.4 0.0 0.6\n0.4 0.1 0.2 0.5\n", encoding="utf-8")
    negative = tmp_path / "negative.txt"
    negative.write_text("-0.4 0.0 0.6\n0.4 0.1 -0.5\n", encoding="utf-8")
    not_a_number = tmp_path / "nan.txt"
    not_a_number.write_text("-0.4 nan 0.6\n0.4 0.1 0.5\n", encoding="utf-8")
    common = ["--degrees", "1", "--refinements", "2", "--repeats", "1", "--ball-counts", "1",
              "--out-dir", str(tmp_path)]
    for argv in (
        ["multiballs", "--dim", "3", "--ball-file", str(flat)],  # 2D centres in 3D
        ["multiballs", "--ball-file", str(mixed)],
        ["breakdown", "--domain", "balls", "--ball-file", str(mixed)],
        ["multiballs", "--ball-file", str(tmp_path / "missing.txt")],
        ["multiballs", "--ball-file", str(negative)],
        ["breakdown", "--domain", "balls", "--ball-file", str(not_a_number)],
    ):
        assert main(argv + common) == 2, argv
        assert "configuration error" in capsys.readouterr().err
    # a file the run does not read is not opened
    validate_config(RunConfig(command="breakdown", domain="disk", ball_file=str(tmp_path / "missing.txt")))


# ---------------------------------------------------------------------------
# breakdown driver


def test_breakdown_csv_and_svg(tmp_path):
    code = main(
        [
            "breakdown",
            "--degrees", "2",
            "--refinements", "1",
            "--repeats", "2",
            "--domain", "disk",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "breakdown.csv")
    assert header == BREAKDOWN_HEADER
    assert [r[0] for r in rows] == ["interior", "intersected", "ghost_penalty", "scatter_other"]
    assert sum(float(r[2]) for r in rows) == pytest.approx(100.0, abs=0.5)
    assert svg_data_rows(tmp_path / "breakdown.svg") == [1, 2, 3, 4]


def test_breakdown_degenerate_exit_code(tmp_path):
    code = main(
        [
            "breakdown",
            "--degrees", "1",
            "--refinements", "1",
            "--domain", "halfspace",
            "--offset", "-10",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# strict mode: sign-of-center quadrature fallbacks


# two balls on an 8x8 mesh: at depth 0 two kink cells fall back at once
KINKED = ["--dim", "2", "--ball-counts", "2", "--refinements", "3", "--degrees", "1", "--repeats", "1",
          "--max-quad-depth", "0"]


@pytest.mark.parametrize("command", [["multiballs"], ["breakdown", "--domain", "balls"]])
def test_strict_flags_quadrature_fallbacks(tmp_path, capsys, command):
    assert main(command + KINKED + ["--out-dir", str(tmp_path / "lax")]) == 0
    assert "warning: 2 sign-of-center quadrature fallbacks" in capsys.readouterr().err
    assert main(command + KINKED + ["--strict", "--out-dir", str(tmp_path / "strict")]) == 3
    assert "warning: 2 sign-of-center quadrature fallbacks" in capsys.readouterr().err


def test_strict_passes_a_smooth_disk(tmp_path, capsys):
    args = ["--degrees", "1", "--refinements", "2", "--strict", "--max-quad-depth", "0"]
    assert main(["convergence"] + args + ["--out-dir", str(tmp_path)]) == 0
    assert main(["breakdown", "--domain", "disk", "--repeats", "1"] + args + ["--out-dir", str(tmp_path)]) == 0
    assert "fallback" not in capsys.readouterr().err
