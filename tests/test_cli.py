"""Command-line driver: config schema, exit codes, presets, reproducibility."""

import dataclasses
import json
import warnings

import pytest

from fdcell.cli import (
    DEFAULT_SWEEP,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_RUNTIME,
    EXIT_SCHEMA,
    FIELD_KEYS,
    PRESETS,
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
from fdcell.errors import ConfigError
from fdcell.sim import MODE_NAMES, RunConfig, run_drop


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
    # an infinite value stays perfect cancellation, a NaN is out of range
    assert parse_cancellation("1e999") is None
    with pytest.raises(RangeError):
        parse_cancellation("nan")
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


@pytest.mark.parametrize(
    "body,entry",
    [
        ("variants = HD, FD, HD", "'HD'"),
        ("variants = FD,FD", "'FD'"),
        ("cancellation = 95, 85, 95", "'95'"),
        ("cancellation = 95, 95.0", "'95.0'"),
        # compared as parsed levels: both mean perfect cancellation
        ("cancellation = inf, none", "'none'"),
        ("cancellation = 1e999, perfect", "'perfect'"),
    ],
)
def test_repeated_list_entries_are_schema_errors(tmp_path, capsys, body, entry):
    # a repeat would run its cell twice and write its rows twice
    cfg = write_config(tmp_path / "dup.conf", "slots = 4\n" + body + "\n")
    with pytest.raises(SchemaError, match=f"dup.conf:2: .*{entry}, which repeats"):
        parse_config(cfg)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert entry in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_cancellation_flag_entry_is_a_schema_error(tmp_path, capsys):
    argv = ["sweep", "--slots", "2", "--drops", "1", "--cancellation", "inf,75,inf", "--out", str(tmp_path)]
    assert main(argv) == EXIT_SCHEMA
    assert "cancellation lists 'inf', which repeats" in capsys.readouterr().err


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
        ("variants =", EXIT_SCHEMA),
        ("cancellation =", EXIT_SCHEMA),
        ("slots = 0", EXIT_RANGE),
        ("bs_power_dbm = -5", EXIT_RANGE),
        ("beta = 1.5", EXIT_RANGE),
        ("cancellation = -10", EXIT_RANGE),
        ("scenario = Orbital", EXIT_RANGE),
        ("energy_kappa = -1", EXIT_RANGE),
        ("ues_per_cell = 0", EXIT_RANGE),
        ("seed = -1", EXIT_RANGE),
        ("drops = 0", EXIT_RANGE),
        ("bandwidth_hz = 500", EXIT_RANGE),
        ("ue_power_dbm = 61", EXIT_RANGE),
        ("beta = 0", EXIT_RANGE),
        ("cancellation = 95, -3", EXIT_RANGE),
    ],
)
def test_exit_codes_for_config_problems(tmp_path, capsys, body, code):
    cfg = write_config(tmp_path / "c.conf", body + "\n")
    assert main(["run", "--config", cfg]) == code
    # every config-file error names its line
    assert "c.conf:1: " in capsys.readouterr().err


# (config key, value) pairs out of range for both the API and a config file
PARITY_CASES = [
    ("scenario", "Orbital"),
    ("variant", "TDMA"),
    ("slots", 0),
    ("drops", 0),
    ("seed", -1),
    ("ues_per_cell", 0),
    ("bandwidth_hz", 500.0),
    ("bandwidth_hz", float("inf")),
    ("beta", 0.0),
    ("beta", 1.0),
    ("bs_power_dbm", -5.0),
    ("bs_power_dbm", 70.0),
    ("ue_power_dbm", 61.0),
    ("energy_kappa", -1.0),
    ("energy_kappa", float("nan")),
    ("cancellation", -3.0),
    ("cancellation", float("nan")),
]


def test_api_and_config_file_reject_the_same_values(tmp_path, capsys):
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    # the `cancellation` key sets cancellation_db; every other field has its own key
    assert set(FIELD_KEYS) == fields - {"cancellation_db"}
    as_field = {"cancellation": "cancellation_db"}
    assert {as_field.get(key, key) for key, _ in PARITY_CASES} == fields
    for i, (key, bad) in enumerate(PARITY_CASES):
        with pytest.raises(ConfigError):
            RunConfig(**{as_field.get(key, key): bad}).validated()
        cfg = write_config(tmp_path / f"c{i}.conf", f"{key} = {bad}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_RANGE, key
        assert f"c{i}.conf:1: " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "body,flags",
    [
        ("energy_kappa = nan", []),
        ("energy_kappa = inf", []),
        ("bandwidth_hz = inf", []),
        ("", ["--cancellation", "nan"]),
    ],
    ids=["energy_kappa-nan", "energy_kappa-inf", "bandwidth_hz-inf", "cancellation-nan"],
)
def test_run_rejects_non_finite_values(tmp_path, capsys, body, flags):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG + body + "\n")
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "r"), *flags]
    assert main(argv) == EXIT_RANGE
    assert not (tmp_path / "r").exists()
    # a config value is rejected while parsing, so the error names its line
    assert ("c.conf:" in capsys.readouterr().err) == bool(body)


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


def test_run_prints_allocator_summary_on_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG + "variant = FD\ncancellation = 95\n")
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    # stdout keeps its two lines
    assert [x.split()[0] for x in captured.out.splitlines()] == ["Indoor", "wrote"]
    lines = captured.err.splitlines()
    assert len(lines) == 1
    diag = json.loads((out / "manifest.json").read_text())["results"][0]["diagnostics"]
    assert lines[0] == (
        f"allocator: certified {diag['certified']}, fallbacks {diag['fallbacks']}, "
        f"non-converged {diag['nonconverged_slots']}, SP outer {diag['outer_iterations']} / "
        f"Newton {diag['inner_iterations']} iterations, cap rounds {diag['cap_rounds']}"
    )
    assert diag["certified"] + diag["outer_iterations"] > 0


def test_run_trace_writes_drop_zero_decisions(tmp_path, monkeypatch):
    monkeypatch.delenv("FDCELL_SEED", raising=False)
    cfg = write_config(
        tmp_path / "c.conf", BASE_CONFIG + "variant = FD\ncancellation = 95\ndrops = 2\n"
    )
    trace = tmp_path / "trace.csv"
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "r"), "--trace", str(trace)]
    assert main(argv) == EXIT_OK
    rows = [r.split(",") for r in trace.read_text().strip().split("\n")]
    assert rows[0] == "slot,cell,mode,dl_ue,ul_ue,p_dl_dbm,p_ul_dbm".split(",")
    drop0 = run_drop(parse_config(cfg).base, 0)
    assert len(rows) == 1 + drop0.slots * drop0.n_cells
    # one row per slot and cell, slot-major
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [
        (s, b) for s in range(drop0.slots) for b in range(drop0.n_cells)
    ]
    assert [r[2] for r in rows[1:]] == [MODE_NAMES[int(m)] for m in drop0.trace_mode.ravel()]
    assert [int(r[3]) for r in rows[1:]] == drop0.trace_dl_ue.ravel().tolist()
    assert [int(r[4]) for r in rows[1:]] == drop0.trace_ul_ue.ravel().tolist()


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


def test_negative_seed_is_a_range_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.conf", BASE_CONFIG + "slots = 1\n")
    out = tmp_path / "r"
    monkeypatch.delenv("FDCELL_SEED", raising=False)
    assert main(["run", "--config", cfg, "--seed", "-1", "--out", str(out)]) == EXIT_RANGE
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    monkeypatch.setenv("FDCELL_SEED", "-1")
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_RANGE
    assert "FDCELL_SEED: seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


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


def test_compare_names_its_baseline_file(tmp_path, capsys):
    # a directory with several cdf_*.csv: the alphabetically first is the baseline
    hd, fd = tmp_path / "hd", tmp_path / "fd"
    hd.mkdir()
    fd.mkdir()
    (hd / "cdf_RR_HD.csv").write_text("dl_bps,ul_bps\n1,1\n1,1\n")
    (hd / "cdf_HD.csv").write_text("dl_bps,ul_bps\n2,4\n2,4\n")
    (fd / "cdf_FD.csv").write_text("dl_bps,ul_bps\n3,5\n5,5\n")
    assert main(["compare", str(fd), str(hd)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"baseline: {hd / 'cdf_HD.csv'}"
    assert lines[1] == "FD: DL gain +100.0%  UL gain +25.0%"


def test_compare_against_zero_throughput_baseline_has_no_gain(tmp_path, capsys):
    # a one-slot HD run delivers no uplink: like sweep and aggregate, compare
    # reports no gain against a zero mean instead of +inf% and a warning
    hd, fd = tmp_path / "hd", tmp_path / "fd"
    hd.mkdir()
    fd.mkdir()
    (hd / "cdf_HD.csv").write_text("dl_bps,ul_bps\n2,0\n2,0\n")
    (fd / "cdf_FD.csv").write_text("dl_bps,ul_bps\n3,5\n5,5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(fd), str(hd)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "FD: DL gain +100.0%  UL gain -"


def test_compare_missing_dir_exits_2(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "no"), str(tmp_path / "pe")]) == EXIT_MISSING_FILE
    # a run directory without per-UE rate files is missing them too
    (tmp_path / "metrics.csv").write_text("scenario\n")
    assert main(["compare", str(tmp_path), str(tmp_path)]) == EXIT_MISSING_FILE
    assert "no cdf_*.csv files" in capsys.readouterr().err


def test_run_preset_sets_first_cancellation():
    spec = _spec_from_args(build_parser().parse_args(["run", "--preset", "table2"]))
    assert spec.base.cancellation_db == 75.0
    spec = _spec_from_args(
        build_parser().parse_args(["run", "--preset", "table2", "--cancellation", "95"])
    )
    assert spec.base.cancellation_db == 95.0
    assert spec.sweep_cancellation == (95.0,)


# every preset: (scenario, variants); each sweeps the default grid from 75 dB
PRESET_GRIDS = {
    "table2": ("Indoor", ("HD", "FD")),
    "table4": ("Indoor", ("HD", "FD")),
    "table5": ("Indoor", ("HD", "FD", "FD_FDUE", "FD_EnergyAware")),
    "table7": ("Outdoor", ("HD", "FD")),
    "table9": ("Outdoor", ("HD", "FD")),
}


@pytest.mark.parametrize("name", sorted(PRESET_GRIDS))
def test_preset_sets_scenario_variants_and_sweep(name):
    spec = apply_preset(ExperimentSpec(base=RunConfig()), name)
    assert (spec.base.scenario, spec.variants) == PRESET_GRIDS[name]
    assert spec.sweep_cancellation == (75.0, 85.0, 95.0, 105.0, None)
    assert spec.base.cancellation_db == 75.0
    assert sorted(PRESETS) == sorted(PRESET_GRIDS)


def test_presets():
    spec = apply_preset(ExperimentSpec(base=RunConfig()), "table5")
    assert spec.base.scenario == "Indoor"
    assert spec.variants == ("HD", "FD", "FD_FDUE", "FD_EnergyAware")
    assert spec.sweep_cancellation == DEFAULT_SWEEP
    spec = apply_preset(ExperimentSpec(base=RunConfig()), "table7")
    assert spec.base.scenario == "Outdoor"
    with pytest.raises(SchemaError):
        apply_preset(ExperimentSpec(base=RunConfig()), "table99")
