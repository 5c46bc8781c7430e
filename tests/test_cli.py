"""Command-line driver: config schema, exit codes, presets, reproducibility."""

import json

import pytest

from fdcell.cli import (
    DEFAULT_SWEEP,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_RUNTIME,
    EXIT_SCHEMA,
    ExperimentSpec,
    RangeError,
    SchemaError,
    _spec_from_args,
    apply_preset,
    build_parser,
    main,
    parse_cancellation,
    parse_config,
)
from fdcell.sim import RunConfig


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# small deterministic run
scenario = Indoor
variant = HD
ues_per_cell = 2
slots = 4
drops = 1
"""


def test_parse_cancellation_tokens():
    for token in ("inf", "Inf", "INFINITE", "none", "perfect"):
        assert parse_cancellation(token) is None
    assert parse_cancellation(" 95 ") == 95.0
    assert parse_cancellation("7.5") == 7.5
    with pytest.raises(RangeError):
        parse_cancellation("-5")
    with pytest.raises(SchemaError):
        parse_cancellation("lots")


def test_parse_config_values_and_comments(tmp_path):
    cfg = write_config(
        tmp_path / "exp.conf",
        """
        scenario = Outdoor   # trailing comment
        variants = HD, FD, RR_HD
        cancellation = 75, 95, inf

        slots = 12
        seed = 42
        beta = 0.995
        out = results/x
        """,
    )
    spec = parse_config(cfg)
    assert spec.base.scenario == "Outdoor"
    assert spec.variants == ("HD", "FD", "RR_HD")
    assert spec.sweep_cancellation == (75.0, 95.0, None)
    assert spec.base.cancellation_db == 75.0
    assert spec.base.slots == 12
    assert spec.base.seed == 42
    assert spec.base.beta == 0.995
    assert spec.output_dir == "results/x"


def test_parse_config_errors_carry_line_numbers(tmp_path):
    cfg = write_config(tmp_path / "bad.conf", "slots = 4\nwibble = 3\n")
    with pytest.raises(SchemaError, match="bad.conf:2"):
        parse_config(cfg)
    with pytest.raises(SchemaError, match="expected 'key = value'"):
        parse_config(write_config(tmp_path / "noeq.conf", "slots 4\n"))


@pytest.mark.parametrize(
    "body,code",
    [
        ("wibble = 3", EXIT_SCHEMA),
        ("slots = x", EXIT_SCHEMA),
        ("variants = HD, XXX", EXIT_SCHEMA),
        ("slots = 0", EXIT_RANGE),
        ("bs_power_dbm = -5", EXIT_RANGE),
        ("beta = 1.5", EXIT_RANGE),
        ("cancellation = -10", EXIT_RANGE),
        ("scenario = Orbital", EXIT_RANGE),
        ("energy_kappa = -1", EXIT_RANGE),
        ("ues_per_cell = 0", EXIT_RANGE),
    ],
)
def test_exit_codes_for_config_problems(tmp_path, body, code):
    cfg = write_config(tmp_path / "c.conf", body + "\n")
    assert main(["run", "--config", cfg]) == code


def test_jobs_below_one_is_a_range_error(tmp_path):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG)
    for jobs in ("0", "-2"):
        assert main(["run", "--config", cfg, "--jobs", jobs]) == EXIT_RANGE


def test_exit_code_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.conf")]) == EXIT_MISSING_FILE


def test_exit_code_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG)
    rc = main(["run", "--config", cfg, "--slots", "1", "--out", str(blocker / "sub")])
    assert rc == EXIT_RUNTIME


def test_bad_flag_raises_systemexit():
    with pytest.raises(SystemExit):
        main(["run", "--bogus"])
    with pytest.raises(SystemExit):
        main([])


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG)
    out = tmp_path / "r1"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "Indoor HD@Inf" in printed
    assert "Mbps" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "cdf_HD.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "HD"
    assert manifest["results"][0]["scenario"] == "Indoor"


def test_run_is_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG + "seed = 7\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(b)]) == EXIT_OK
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "cdf_HD.csv").read_bytes() == (b / "cdf_HD.csv").read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG + "slots = 1\n")
    monkeypatch.setenv("FDCELL_SEED", "7")
    out = tmp_path / "env"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 7

    # an explicit seed wins over the environment
    out2 = tmp_path / "explicit"
    assert main(["run", "--config", cfg, "--seed", "3", "--out", str(out2)]) == EXIT_OK
    assert json.loads((out2 / "manifest.json").read_text())["config"]["seed"] == 3

    # so does an explicit seed of 0, from a flag or from the config file
    zero_cfg = write_config(tmp_path / "z.conf", BASE_CONFIG + "slots = 1\nseed = 0\n")
    for argv in (["--config", cfg, "--seed", "0"], ["--config", zero_cfg]):
        out3 = tmp_path / "zero"
        assert main(["run", *argv, "--out", str(out3)]) == EXIT_OK
        assert json.loads((out3 / "manifest.json").read_text())["config"]["seed"] == 0


def test_config_file_overrides_preset(tmp_path):
    cfg = write_config(tmp_path / "c.conf", "variants = HD\nscenario = Outdoor\n")
    spec = _spec_from_args(build_parser().parse_args(
        ["sweep", "--preset", "table5", "--config", cfg]
    ))
    assert spec.variants == ("HD",)
    assert spec.base.scenario == "Outdoor"
    assert spec.sweep_cancellation == DEFAULT_SWEEP


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG)
    out = tmp_path / "o"
    rc = main(["run", "--config", cfg, "--variant", "RR_HD", "--slots", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "RR_HD"
    assert manifest["config"]["slots"] == 2


def test_sweep_grid_and_gains(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "s.conf",
        """
        scenario = Indoor
        ues_per_cell = 2
        slots = 2
        drops = 1
        variants = HD, FD
        cancellation = 85
        """,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "FD" in printed and "%" in printed

    assert (out / "HD_Inf" / "metrics.csv").exists()
    assert (out / "FD_85" / "metrics.csv").exists()
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2  # header + 2 variants x 2 directions
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    fd_rows = [r for r in rows if r["variant"] == "FD"]
    assert all(r["gain_pct"] != "" for r in fd_rows)
    hd_rows = [r for r in rows if r["variant"] == "HD"]
    assert all(r["gain_pct"] == "" for r in hd_rows)


def test_compare_run_against_itself_is_zero_gain(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG)
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--slots", "2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "DL gain +0.0%" in printed
    assert "UL gain +0.0%" in printed


def test_compare_missing_dir_exits_2(tmp_path):
    assert main(["compare", str(tmp_path / "no"), str(tmp_path / "pe")]) == EXIT_MISSING_FILE


def test_run_preset_sets_first_cancellation():
    spec = _spec_from_args(build_parser().parse_args(["run", "--preset", "table2"]))
    assert spec.base.cancellation_db == 75.0
    spec = _spec_from_args(
        build_parser().parse_args(["run", "--preset", "table2", "--cancellation", "95"])
    )
    assert spec.base.cancellation_db == 95.0
    assert spec.sweep_cancellation == (95.0,)


def test_presets():
    spec = apply_preset(ExperimentSpec(base=RunConfig()), "table5")
    assert spec.base.scenario == "Indoor"
    assert spec.variants == ("HD", "FD", "FD_FDUE", "FD_EnergyAware")
    assert spec.sweep_cancellation == DEFAULT_SWEEP
    spec = apply_preset(ExperimentSpec(base=RunConfig()), "table7")
    assert spec.base.scenario == "Outdoor"
    with pytest.raises(SchemaError):
        apply_preset(ExperimentSpec(base=RunConfig()), "table99")
