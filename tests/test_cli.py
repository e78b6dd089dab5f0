import csv
import functools
import hashlib
import importlib
import inspect
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ksflow
from ksflow.cli import main
from ksflow.config import (
    DEFAULT_MONITORS,
    SIGMA_RULE,
    ConfigError,
    RunConfig,
    gaussian_vanishes,
    load_config,
    parse_config_text,
)
from ksflow.grids import RadialGrid, gaussian_field
from ksflow.lifted.functionals import MAX_SAMPLES
from ksflow.probes import MAX_MEMBERS
from ksflow.solver import STEP_BUDGET, SolverConfig
from ksflow.report import write_csv
from ksflow.svgplot import render_lines

REFERENCE_CONFIG = """\
[run]
scenario = smoke
seed = 0

[solver]
gamma = -3.0
n_cells = 256
r_max = 12.0
dt = 1e-3
t_end = 0.02
output_stride = 5

[initial]
kind = gaussian
sigma = 1.0
mass = 1.0
"""


#: numbers that pass the config checks but abort the run: at this height the
#: reaction guard needs more than its 16 halvings of dt in step 1
ABORTING_CONFIG = """\
[run]
scenario = aborting

[solver]
gamma = -3.0
n_cells = 256
r_max = 8.0
dt = 2e-4
t_end = 0.01

[initial]
kind = gaussian
sigma = 1.0
amplitude = 1e20
"""


def with_solver_line(line):
    """REFERENCE_CONFIG with one [solver] key set to the given line."""
    key = line.partition("=")[0]
    kept = [ln for ln in REFERENCE_CONFIG.splitlines() if not ln.startswith(key)]
    text = "\n".join(kept) + "\n"
    return text.replace("[solver]\n", f"[solver]\n{line}\n")


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config_text(REFERENCE_CONFIG)
        assert cfg.scenario == "smoke"
        assert cfg.solver.gamma == -3.0
        assert cfg.solver.n_cells == 256
        reparsed = parse_config_text("\n".join(cfg.echo_lines()))
        assert reparsed.solver.dt == cfg.solver.dt

    def test_unknown_key_rejected(self):
        bad = REFERENCE_CONFIG + "\nwibble = 3\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nope]\nx = 1\n")

    def test_repeated_key_rejected(self):
        text = REFERENCE_CONFIG + "\n[solver]\nn_cells = 128\n"
        with pytest.raises(ConfigError, match=r"line 19: key 'n_cells' in \[solver\] repeats line 7"):
            parse_config_text(text)

    def test_same_key_in_another_section_allowed(self):
        cfg = parse_config_text(REFERENCE_CONFIG + "\n[run]\nout = elsewhere\n")
        assert cfg.out == "elsewhere"

    @pytest.mark.parametrize("line", ["sigma = -1.0", "sigma = 0.0", "sigma = nan",
                                      "mass = -1.0", "mass = inf",
                                      "amplitude = -2.0", "amplitude = nan"])
    def test_bad_initial_value_rejected(self, line):
        key = line.partition(" ")[0]
        text = REFERENCE_CONFIG.replace("sigma = 1.0\nmass = 1.0\n", line + "\n")
        with pytest.raises(ConfigError, match=rf"\[initial\] {key} must be finite"):
            parse_config_text(text)

    @pytest.mark.parametrize("size", [{"mass": 1.0}, {"amplitude": 1.0},
                                      {"mass": 1e-300}])
    def test_vanishing_rule_matches_the_field(self, size):
        # on both sides of the threshold sigma ~ r_0 / 38.6, r_0 = dr / 2
        grid = RadialGrid(256, 12.0)
        for sigma in np.linspace(5.9e-4, 6.3e-4, 401):
            field = gaussian_field(grid, sigma=float(sigma), **size)
            assert gaussian_vanishes(grid, float(sigma), **size) == (
                field.values.max() == 0.0)

    def test_zero_mass_and_amplitude_allowed(self):
        assert parse_config_text(REFERENCE_CONFIG.replace("mass = 1.0", "mass = 0.0")).mass == 0.0
        text = REFERENCE_CONFIG.replace("mass = 1.0", "amplitude = 0.0")
        assert parse_config_text(text).amplitude == 0.0

    def test_mass_and_amplitude_conflict(self):
        bad = REFERENCE_CONFIG + "\n[initial]\namplitude = 2.0\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_echo_of_reference_config(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "reference.cfg")
        assert cfg.echo_lines() == [
            "[run]", "scenario = reference", "seed = 0", "out = out", "",
            "[solver]", "gamma = -3.0", "n_cells = 512", "r_max = 12.0",
            "dt = 0.0001", "t_end = 0.5", "scheme = semi-implicit-fv",
            "output_stride = 50", "positivity = assert", "",
            "[initial]", "kind = gaussian", "sigma = 1.0", "mass = 1.0", "",
            "[monitors]", "enabled = " + ", ".join(DEFAULT_MONITORS),
        ]

    @settings(deadline=None)
    @given(
        # '.' and '..' are no file-name stems (test_scenario_must_be_a_file_name_stem)
        scenario=st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True).filter(
            lambda name: name not in (".", "..")),
        seed=st.integers(-2**63, 2**63),
        gamma=st.floats(-3.0, -2.0),
        n_cells=st.integers(4, 4096),
        r_max=st.floats(1e-3, 1e3),
        dt=st.floats(1e-9, 1.0),
        n_steps=st.integers(1, STEP_BUDGET),
        scheme=st.just("semi-implicit-fv"),
        output_stride=st.integers(1, 10**6),
        positivity=st.just("assert"),
        kind=st.sampled_from(["gaussian", "zero"]),
        sigma=st.floats(1e-3, 1e3),
        size=st.one_of(st.tuples(st.floats(0.0, 1e3), st.none()),
                       st.tuples(st.none(), st.floats(0.0, 1e3))),
        monitors=st.lists(st.sampled_from(DEFAULT_MONITORS), unique=True),
    )
    def test_echo_parses_back_to_the_same_config(
            self, scenario, seed, gamma, n_cells, r_max, dt, n_steps, scheme,
            output_stride, positivity, kind, sigma, size, monitors):
        # t_end is a whole number of steps within the budget, as SolverConfig requires
        solver = SolverConfig(gamma=gamma, n_cells=n_cells, r_max=r_max, dt=dt,
                              t_end=n_steps * dt, scheme=scheme,
                              output_stride=output_stride, positivity=positivity)
        # Gaussian data that round to zero on the grid are a config error
        # (test_config_errors_exit_two_with_one_line), not a config to echo
        assume(kind == "zero" or not gaussian_vanishes(solver.grid(), sigma, *size))
        cfg = RunConfig(scenario=scenario, seed=seed, out=scenario, solver=solver,
                        initial_kind=kind, sigma=sigma, mass=size[0],
                        amplitude=size[1], monitors=tuple(monitors))
        assert parse_config_text("\n".join(cfg.echo_lines())) == cfg


class TestSimulate:
    def test_smoke_run_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--quiet"])
        assert rc == 0
        assert (out / "smoke-diagnostics.csv").exists()
        assert (out / "smoke-report.txt").exists()
        assert (out / "smoke.ckpt").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--config", str(cfg_path), "--out",
                         str(out), "--quiet"]) == 0
            outs.append((out / "smoke-diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    # recorded before the radial step moved into its stencil's buffers (the
    # heat run before the monitors read whole columns); the report names its
    # output paths, so only its verdict block is pinned
    @pytest.mark.parametrize("config, solver, csv_sha, ckpt_sha, verdicts_sha", [
        ("configs/reference.cfg", {},
         "05166ae80d1c05cd841a3d84f2b32053b49a1cb7ffbb3db51294bae1d641369c",
         "e79ec81b96bd0190bc30cca6145b8d5543044e05fbfea52bd88fb684018de7df",
         "3d24483fae0d0f53e3b8dbb75a52a6d900d9195ecbbd950ce1dc5c24698ab3fa"),
        ("perfbench/flow-wide.cfg", {},
         "34bedffd95f29e90d91bd6474f6725370da5c417f4cc091742b50748728705d9",
         "b6f5ddf5775742121dc1775e7bdf5aff5b30a19e31f9819210c34c62bb8bbc8e",
         "d0bc82be0d4ca8766f64b19297f69497e9da048e682ba262193f9d8f8cd395fa"),
        # the heat flow: the two-sided moment identity and h[f] at mu = -2
        ("configs/reference.cfg", {"gamma": -2.0, "t_end": 0.1},
         "7939ee7a67ccb8eec3dc6d33c84d3283d5becacd50c0e2d4f760294bdc406a91",
         "88f8501567b33be5e17982f6276a4beff9ffa0b06e72fa71916fe3e350574a68",
         "bcadd845ec1bb6f945251cb3a9fb0f64b42e718faefdda051ecf281cab87636b"),
    ], ids=["reference", "flow-wide", "heat"])
    def test_flow_outputs_bytes_as_recorded(self, tmp_path, config, solver, csv_sha,
                                            ckpt_sha, verdicts_sha):
        path = Path(__file__).parents[1] / config
        cfg = load_config(path)
        scenario = cfg.scenario
        if solver:
            path = tmp_path / "run.cfg"
            cfg = replace(cfg, solver=replace(cfg.solver, **solver))
            path.write_text("\n".join(cfg.echo_lines()) + "\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        report = (tmp_path / f"{scenario}-report.txt").read_bytes()
        verdicts = report[report.index(b"## verdicts\n"):report.index(b"## files\n")]
        got = [hashlib.sha256(data).hexdigest() for data in (
            (tmp_path / f"{scenario}-diagnostics.csv").read_bytes(),
            (tmp_path / f"{scenario}.ckpt").read_bytes(), verdicts)]
        assert got == [csv_sha, ckpt_sha, verdicts_sha]

    def test_zero_run_verdicts_keep_their_names(self, tmp_path):
        # the report used to name four zero-run skips by their [monitors] key
        def verdicts(text):
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(text)
            out = tmp_path / "out"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 0
            report = (out / "smoke-report.txt").read_text()
            block = report[report.index("## verdicts\n"):report.index("## files\n")]
            return dict(line.split("  #")[0].split(" = ")
                        for line in block.splitlines()[2:] if line)

        gaussian = verdicts(REFERENCE_CONFIG)
        zero = verdicts(REFERENCE_CONFIG.replace("kind = gaussian\nsigma = 1.0\nmass = 1.0\n",
                                                 "kind = zero\n"))
        assert list(zero) == list(gaussian) and len(zero) == len(DEFAULT_MONITORS)
        assert {name for name, flag in zero.items() if flag == "skip"} == {
            "energy_identity", "ellipticity", "h_bound", "maxpoint_growth",
            "moment_growth_k4", "l3_fisher_bound", "linf_envelope"}

    @pytest.mark.parametrize("scenario", ["", ".", "..", "../escaped", "a/b"])
    def test_scenario_must_be_a_file_name_stem(self, tmp_path, capsys, scenario):
        # '../escaped' wrote its outputs beside --out, 'a/b' ran and then
        # failed to write its checkpoint, '' wrote '.ckpt'
        cfg_path = tmp_path / "cfg" / "bad.cfg"
        cfg_path.parent.mkdir()
        cfg_path.write_text(REFERENCE_CONFIG.replace("scenario = smoke",
                                                     f"scenario = {scenario}"))
        out = tmp_path / "out" / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: [run] scenario must be a plain file-name stem, "
                       f"got {scenario!r}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg"]

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--quiet"])
        assert rc == 2

    def test_bad_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(REFERENCE_CONFIG + "\nnonsense = 1\n")
        rc = main(["simulate", "--config", str(cfg_path), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("line", ["scheme = foo", "n_cells = 3",
                                      "scheme = explicit-cartesian", "t_end = inf",
                                      "r_max = inf", "dt = 1e-300", "t_end = 1e300",
                                      "n_cells = 100000000000", "r_max = 1e-300",
                                      "r_max = 1e-110", "r_max = 1e40", "r_max = 1e60",
                                      "scheme = explicit-fv",
                                      "positivity = clip-and-log"])
    def test_bad_solver_value_exits_two_with_one_line(self, tmp_path, capsys, recwarn,
                                                      line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(with_solver_line(line))
        rc = main(["simulate", "--config", str(cfg_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # a scheme or policy other than the one there is names that one
        if line.startswith("scheme"):
            assert "the one scheme is 'semi-implicit-fv'" in err
        elif line.startswith("positivity"):
            assert "the one policy is 'assert'" in err
        # a tiny r_max used to print numpy's RuntimeWarning lines first, and
        # an r_max whose r^8 overflows warned and wrote nan moments
        assert not recwarn.list

    @pytest.mark.parametrize("extra", ["[solver]\nn_cells = 128", "[initial]\nsigma = -1.0",
                                       "[initial]\nmass = -1.0",
                                       "[initial]\namplitude = -2.0",
                                       "[initial]\nsigma = 1e-300",
                                       "[initial]\nsigma = 1e-160",
                                       "[initial]\nsigma = 1e300",
                                       "[initial]\nsigma = 1e-300\namplitude = 1.0",
                                       "[initial]\nsigma = 1e-100",
                                       "[initial]\nsigma = 1e-100\namplitude = 1.0"])
    def test_config_errors_exit_two_with_one_line(self, tmp_path, capsys, recwarn, extra):
        # a repeated key, and initial data that used to reach gaussian_field:
        # a sigma outside the float range raised there, or warned and ran;
        # sigma = 1e-100 ran on an all-zero field and passed every monitor
        text = REFERENCE_CONFIG.replace("sigma = 1.0\nmass = 1.0\n", "") + f"\n{extra}\n"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        assert not recwarn.list

    def test_aborted_run_keeps_its_checkpoint(self, tmp_path, capsys):
        cfg_path = tmp_path / "aborting.cfg"
        cfg_path.write_text(ABORTING_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate aborted: step 1 aborted (reaction guard needs "
                              "more than 16 halvings")
        assert (out / "aborting.ckpt").exists()
        assert not (out / "aborting-report.txt").exists()

    def test_seed_option_removed(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--seed", "3", "--quiet"])
        assert exc.value.code == 2


class TestVerifyLifted:
    # recorded before the chunks of one estimate ran in forked workers, as the
    # flows' outputs are pinned above; seed 0's failing item-1 row
    # (gamma=-2.9:full_weight_derivative at 4096 samples) stays in the bytes
    @pytest.mark.parametrize("argv, rc, csv_sha", [
        (["--suite", "dissipation", "--gamma", "-2.5", "--samples", "262144"], 0,
         "fbabe42d64e2304efff3972eac7faa05fbb8a0f778e2df31f728a832b9cc4f6a"),
        (["--samples", "4096"], 1,
         "b37dd0df4a55388e58e6daa922f602517d4bf43d7bf0365d27149a04811d6877"),
    ], ids=["lifted-mc", "all-suites"])
    def test_lifted_csv_bytes_as_recorded(self, tmp_path, argv, rc, csv_sha):
        assert main(["verify-lifted", *argv, "--seed", "0", "--out", str(tmp_path),
                     "--quiet"]) == rc
        got = hashlib.sha256((tmp_path / "lifted.csv").read_bytes()).hexdigest()
        assert got == csv_sha

    def test_frames_suite_exit_zero(self, tmp_path):
        rc = main(["verify-lifted", "--suite", "frames", "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        text = (tmp_path / "lifted.csv").read_text()
        assert text.splitlines()[0] == "suite,identity,lhs,rhs,stderr,verdict"

    def test_commutator_rows_parse_at_header_width(self, tmp_path):
        # identities such as [B1,B0]=0 hold commas: their cells are quoted
        rc = main(["verify-lifted", "--suite", "commutators", "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        with open(tmp_path / "lifted.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "identity", "lhs", "rhs", "stderr", "verdict"]
        assert all(len(row) == 6 for row in rows)
        assert "[B1,B0]=0" in {row[1] for row in rows}

    def test_unknown_suite_usage_error(self):
        assert main(["verify-lifted", "--suite", "bogus", "--quiet"]) == 2

    def test_samples_and_gamma_reach_the_suites_that_declare_them(self, monkeypatch):
        from ksflow.lifted import suites

        calls = {}

        def neither(seed=0):
            calls["neither"] = {"seed": seed}
            return []

        def samples(seed=0, n_samples=1):
            calls["samples"] = {"seed": seed, "n_samples": n_samples}
            return []

        def gammas(seed=0, gammas=()):
            calls["gammas"] = {"seed": seed, "gammas": gammas}
            return []

        def both(seed=0, gammas=(), n_samples=1):
            calls["both"] = {"seed": seed, "gammas": gammas, "n_samples": n_samples}
            return []

        @functools.wraps(both)
        def traced(*args, **kwargs):  # a profiling wrapper hides the signature
            return both(*args, **kwargs)

        monkeypatch.setattr(suites, "SUITES", {
            "neither": neither, "samples": samples, "gammas": gammas, "traced": traced})
        argv = ["verify-lifted", "--gamma", "-2.5", "--samples", "7", "--seed", "3"]
        assert main([*argv, "--quiet"]) == 0
        assert calls == {
            "neither": {"seed": 3},
            "samples": {"seed": 3, "n_samples": 7},
            "gammas": {"seed": 3, "gammas": (-2.5,)},
            "both": {"seed": 3, "gammas": (-2.5,), "n_samples": 7},
        }

    def test_unknown_subcommand_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestProbeCommand:
    def test_probe_small_family(self, tmp_path):
        rc = main(["probe", "--lemma", "A1", "--members", "4", "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "probes.csv").read_text().startswith(
            "lemma,seed,lambda,lhs,rhs,ratio")

    def test_probe_determinism_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["probe", "--members", "3", "--out", str(out), "--quiet"]) == 0
        assert (outs[0] / "probes.csv").read_bytes() == (outs[1] / "probes.csv").read_bytes()

    # recorded with every norm summed against RadialGrid.weights; any other
    # summation order moves these bytes at rounding level
    @pytest.mark.parametrize("seed, sha256", [
        (0, "2b7319d488c02350d664f499052a7f686ab9dca120a91a4513023e91bd0112cc"),
        (3, "4936dfcabb5dafdfeed54e8675492aa33404dcc6223543915849772f88315012"),
    ])
    def test_probes_csv_bytes_as_recorded(self, tmp_path, seed, sha256):
        assert main(["probe", "--members", "4", "--seed", str(seed), "--out",
                     str(tmp_path), "--quiet"]) == 0
        assert hashlib.sha256((tmp_path / "probes.csv").read_bytes()).hexdigest() == sha256

    def test_64_member_probes_csv_bytes_as_recorded(self, tmp_path):
        # the benchmark's probe-sweep family at its reference seed
        assert main(["probe", "--members", "64", "--seed", "0", "--out",
                     str(tmp_path), "--quiet"]) == 0
        assert hashlib.sha256((tmp_path / "probes.csv").read_bytes()).hexdigest() == (
            "daeefc2588ab2412b165ecb612db3807bbf66288ea22fe3016429f9489914f1e")

    def test_unknown_lemma_exits_two_with_one_line(self, capsys):
        assert main(["probe", "--lemma", "A2", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("probe rejected: unknown lemma 'A2'") and err.count("\n") == 1


class TestCompareBlowup:
    def test_zero_amplitude(self, tmp_path):
        rc = main(["compare-blowup", "--amplitude", "0", "--horizon", "0.01",
                   "--dt", "1e-3", "--out", str(tmp_path), "--quiet"])
        # zero data: neither twin blows up; reported, detector check fails
        assert rc in (0, 1)
        assert (tmp_path / "blowup.csv").exists()

    def test_deep_negative_in_a_semilinear_solve_exits_two(self, capsys, monkeypatch):
        # the semilinear twin keeps the Landau stepper's positivity check: a
        # negative deeper than roundoff aborts the run instead of being clipped
        import ksflow.solver as solver

        solve = solver.solve_banded
        calls = 0

        def planted(*args):
            nonlocal calls
            calls += 1
            x = solve(*args)
            if calls == 2:  # the second step of the semilinear twin
                x[-1] = -1e-3 * x.max()
            return x

        monkeypatch.setattr(solver, "solve_banded", planted)
        assert main(["compare-blowup", "--horizon", "0.003", "--dt", "1e-3",
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare-blowup rejected: positivity violated")
        assert err.count("\n") == 1
        assert calls == 2


@pytest.mark.parametrize("argv", [
    ["verify-lifted", "--suite", "maxwell", "--samples", "-4"],
    ["verify-lifted", "--suite", "maxwell", "--samples", "0"],
    ["probe", "--members", "0"],
    ["probe", "--members", "-3"],
    ["compare-blowup", "--dt", "0"],
    ["compare-blowup", "--horizon", "0"],
    ["compare-blowup", "--amplitude", "-1"],
    ["compare-blowup", "--sigma", "0"],
    ["compare-blowup", "--sigma", "nan"],
    ["compare-blowup", "--sigma", "1e-100"],
    ["verify-lifted", "--suite", "frames", "--seed", "-1"],
    ["probe", "--seed", "-1"],
    ["verify-lifted", "--suite", "commutators", "--gamma", "nan"],
    ["verify-lifted", "--suite", "commutators", "--gamma", "inf"],
    ["verify-lifted", "--suite", "dissipation", "--gamma", "-4"],
    ["simulate", "--config", "aborting.cfg"],
    ["verify-lifted", "--suite", "maxwell", "--samples", str(MAX_SAMPLES + 1)],
    # a repeated value used to run, print and write the same rows twice
    ["verify-lifted", "--suite", "frames", "--suite", "flows", "--suite", "frames"],
    ["verify-lifted", "--suite", "dissipation", "--gamma", "-2.5", "--gamma", "-2.50"],
    ["probe", "--lemma", "A5", "--lemma", "A5"],
    ["compare-blowup", "--dt", "1e-3", "--dt", "0.001"],
])
def test_bad_numbers_exit_two_with_one_line(capsys, tmp_path, monkeypatch, argv):
    # the simulate row reads its config from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "aborting.cfg").write_text(ABORTING_CONFIG)
    assert main([*argv, "--quiet"]) == 2
    err = capsys.readouterr().err
    prefix = "simulate aborted: " if argv[0] == "simulate" else f"{argv[-2]} must be "
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["1e-300", "1e-160", "1e300"])
def test_compare_blowup_sigma_follows_the_config_rule(capsys, recwarn, sigma):
    # these used to warn and run on an all-zero field, or raise
    assert main(["compare-blowup", "--sigma", sigma, "--horizon", "0.001", "--dt", "1e-3",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"--sigma must be {SIGMA_RULE}, got {float(sigma)!r}\n"
    assert not recwarn.list
    with pytest.raises(ConfigError, match="sigma must be"):
        parse_config_text(REFERENCE_CONFIG.replace("sigma = 1.0", f"sigma = {sigma}"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "run.cfg", "--out", "out"],
    ["compare-blowup", "--horizon", "0.001", "--dt", "1e-3"],
])
def test_missing_lapack_routine_exits_two_with_one_line(capsys, tmp_path, monkeypatch,
                                                        argv):
    import ksflow._lapack

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(REFERENCE_CONFIG)
    monkeypatch.setattr(ksflow._lapack, "UNRESOLVED", "no dgtsv in this LAPACK")
    assert main([*argv, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "no dgtsv in this LAPACK" in err and err.count("\n") == 1


def test_step_budget_exits_two_at_once(capsys):
    # 1e7 + 1e7 solver steps: rejected before the first one
    start = time.monotonic()
    assert main(["compare-blowup", "--dt", "1e-9", "--horizon", "0.01", "--quiet"]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("compare-blowup rejected: ") and "budget" in err
    assert err.count("\n") == 1


def test_member_budget_exits_two_at_once(capsys):
    # random_family builds every member first: rejected before the first one
    start = time.monotonic()
    assert main(["probe", "--members", str(MAX_MEMBERS + 1), "--quiet"]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("--members must be ") and err.count("\n") == 1


def test_sample_budget_exits_two_at_once(capsys):
    # 10^12 samples ran for longer than anyone waits: rejected before the first draw
    start = time.monotonic()
    assert main(["verify-lifted", "--suite", "maxwell", "--samples", "1000000000000",
                 "--quiet"]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("--samples must be ") and err.count("\n") == 1


def test_gamma_outside_a_suite_range_exits_two(capsys):
    # inside PowerLaw's [-3, 1], outside the [-3, -2] of marginal's h[f]
    assert main(["verify-lifted", "--suite", "marginal", "--gamma", "-1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verify-lifted rejected: ") and err.count("\n") == 1


def test_horizon_not_a_whole_number_of_steps_exits_two(capsys):
    assert main(["compare-blowup", "--dt", "1", "--horizon", "0.01", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compare-blowup rejected: ") and err.count("\n") == 1


class TestPlot:
    def test_plot_csv_columns(self, tmp_path):
        csv = tmp_path / "d.csv"
        write_csv(csv, ("t", "fisher", "entropy"), [
            {"t": 0.0, "fisher": 3.0, "entropy": -4.2},
            {"t": 0.1, "fisher": 2.5, "entropy": -4.3},
            {"t": 0.2, "fisher": 2.1, "entropy": -4.4},
        ])
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--csv", str(csv), "--columns", "fisher,entropy",
                   "--out-file", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_quoted_cells_round_trip(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(path, ("name", "t", "y"), [
            {"name": "[B1,B0]=0", "t": 0.0, "y": 1.5},
            {"name": 'say "hi"', "t": 1.0, "y": 2.5},
            {"name": "plain", "t": 2.0, "y": 3.5},
        ])
        text = path.read_text()
        # rows without commas or quotes keep their bytes; line endings stay LF
        assert text.endswith("\nplain,2,3.5\n") and "\r" not in text
        assert text.splitlines()[1] == '"[B1,B0]=0",0,1.5'
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["[B1,B0]=0", 'say "hi"', "plain"]
        rc = main(["plot", "--csv", str(path), "--columns", "y",
                   "--out-file", str(tmp_path / "q.svg")])
        assert rc == 0

    def test_plot_determinism(self, tmp_path):
        series = [("y", [0, 1, 2], [1.0, 2.0, 1.5])]
        assert render_lines(series) == render_lines(series)

    def test_missing_column_usage_error(self, tmp_path):
        csv = tmp_path / "d.csv"
        write_csv(csv, ("t", "a"), [{"t": 0, "a": 1.0}])
        rc = main(["plot", "--csv", str(csv), "--columns", "b",
                   "--out-file", str(tmp_path / "x.svg")])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        ("t,y\n0,1\n1,abc\n", "CSV line 3: y = 'abc' is not a number"),
        ("t,y\n0,1\n1\n", "CSV line 3 has 1 cells, the header 2"),
        ("t,y\n0,1,2\n", "CSV line 2 has 3 cells, the header 2"),
        ("t,y\n\n0,\xe9\n", "CSV is not ASCII"),
        ("t,y\n0,1\n1,nan\n", "CSV line 3: y = 'nan' is not finite"),
        ("t,y\n0,inf\n", "CSV line 2: y = 'inf' is not finite"),
        ("t,y\n0,1\n-Infinity,2\n", "CSV line 3: t = '-Infinity' is not finite"),
        ('t,y\n0,"1\n', "CSV line 2: unexpected end of data"),
        ("t,y\n0,-1e308\n1,1e308\n",
         "CSV column y: values from -1e+308 to 1e+308 span more than the float range"),
        ("t,y\n1e308,0\n-1e308,1\n",
         "CSV column t: values from -1e+308 to 1e+308 span more than the float range"),
    ])
    def test_malformed_csv_exits_two_with_one_line(self, tmp_path, capsys, text, message):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(text.encode("latin-1"))
        out = tmp_path / "bad.svg"
        rc = main(["plot", "--csv", str(csv), "--columns", "y", "--out-file", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_y_columns_span_one_axis_together(self, tmp_path, capsys):
        csv = tmp_path / "two.csv"
        csv.write_text("t,a,b\n0,-1e308,0\n1,0,1e308\n")
        out = tmp_path / "two.svg"
        argv = ["plot", "--csv", str(csv), "--columns", "a,b", "--out-file", str(out)]
        assert main(argv) == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("CSV column b: values from -1e+308 to ")
        # on a log axis the same values are plotted
        assert main([*argv, "--log-y"]) == 0 and out.exists()

    def test_span_below_the_value_resolution_terminates(self, tmp_path):
        # the tick step is below the spacing of floats near 1: the tick loop
        # must end; the child caps itself at 1 GiB and gets 60 s in case not
        csv = tmp_path / "flat.csv"
        csv.write_text("t,y\n0,1\n1,1.0000000000000002\n")
        out = tmp_path / "flat.svg"
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from ksflow.cli import main\n"
                f"sys.exit(main(['plot', '--csv', {str(csv)!r}, '--columns', 'y',"
                f" '--out-file', {str(out)!r}]))\n")
        src = str(Path(ksflow.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True)
        assert proc.returncode == 0 and out.read_text().startswith("<svg")

    def test_empty_csv_gives_empty_axes(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        out = tmp_path / "e.svg"
        rc = main(["plot", "--csv", str(csv), "--columns", "y",
                   "--out-file", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("module, loads_scipy", [
    ("ksflow", False),
    ("ksflow.cli", False),
    ("ksflow.lifted.suites", False),
    ("ksflow.probes", False),
    ("ksflow.harness", False),  # steps the radial solver: LAPACK through numpy
    ("scipy.linalg", True),  # the positive control
])
def test_cli_import_does_not_load_scipy_fft(module, loads_scipy):
    # the radial operator runs on numpy.fft and the diffusion solve on the
    # LAPACK numpy links; scipy.fft would add ~0.1 s to every command's
    # start-up, and scipy.linalg ~0.3 s
    src = str(Path(ksflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (f"import sys, {module}\n"
            "print(*(m in sys.modules for m in ('scipy', 'scipy.fft', 'scipy.linalg')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [str(loads_scipy), "False", str(loads_scipy)]


def test_only_probe_loads_the_probes_module():
    # the package root resolves the probes names on first access, so the
    # other commands do not hold the module
    src = str(Path(ksflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, ksflow, ksflow.cli, ksflow.harness\n"
            "loaded = 'ksflow.probes' in sys.modules\n"
            "ksflow.probe_inequality\n"
            "print(loaded, 'ksflow.probes' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]


# every name `ksflow` exports, by the module that defines it
ROOT_API = {
    "grids": ("FieldError", "RadialField", "RadialGrid", "Trajectory",
              "gaussian_field", "integrate_radial", "radial_laplacian",
              "weighted_lp_norm", "write_checkpoint"),
    "kernels": ("RATIO_WINDOW", "KernelError", "PowerLaw", "RatioWindow",
                "SoftenedPowerLaw", "h_values",
                "nondivergence_rhs", "radial_convolve"),
    "solver": ("SolverConfig", "SolverError", "Stencil", "StepReport", "run",
               "run_semilinear", "step"),
    "diagnostics": ("entropy", "fisher_information", "ellipticity_check",
                    "h_bound_check"),
    "probes": ("ProbeError", "RatioStats", "probe_inequality"),
    "config": ("ConfigError", "RunConfig", "load_config", "parse_config_text"),
    "harness": ("compare_blowup", "simulate"),
}


def test_root_api_names_are_their_modules_objects():
    for module, names in ROOT_API.items():
        defining = importlib.import_module(f"ksflow.{module}")
        for name in names:
            namespace = {}
            exec(f"from ksflow import {name}", namespace)
            assert namespace[name] is getattr(defining, name), name
            assert name in dir(ksflow), name
    # and every public name `ksflow` lists resolves and is in ROOT_API (the
    # submodules and `importlib` aside), so a stale _LAZY entry fails here
    listed = {name for names in ROOT_API.values() for name in names}
    for name in dir(ksflow):
        if name.startswith("_") or inspect.ismodule(getattr(ksflow, name)):
            continue
        assert name in listed, name
