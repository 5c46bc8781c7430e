"""tools/run_digest.py, the byte-identity gate, on a tiny grid."""

import importlib.util
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "run_digest.py")


@pytest.fixture
def digest(tmp_path, monkeypatch):
    """The script as a module, on a grid of 1 seed x 1 drop x 2 slots at
    perfect cancellation, with its digest file under tmp_path."""
    # the script pins the BLAS threads and puts src on sys.path at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("run_digest", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for name, value in (("SEEDS", (0,)), ("DROPS", 1), ("SLOTS", 2), ("CANCELLATIONS", (None,)),
                        ("DIGEST_FILE", str(tmp_path / "run_digest.txt"))):
        monkeypatch.setattr(mod, name, value)
    return mod


def committed(digest, capsys, edit=None):
    """Write the grid's digest as the committed file, with edit(lines)
    applied; returns the printed lines."""
    assert digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(digest.DIGEST_FILE, "w") as f:
        f.write("\n".join(edit(list(lines)) if edit else lines) + "\n")
    return lines


def test_check_exits_0_when_every_line_matches(digest, capsys):
    lines = committed(digest, capsys)
    # the header, one line per scenario x variant, and the total
    assert len(lines) == 2 + len(digest.sim.SCENARIOS) * len(digest.sim.VARIANTS)
    assert digest.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith(f"all {len(lines) - 1} lines match run_digest.txt\n")


def test_check_exits_1_naming_the_one_edited_cell(digest, capsys):
    def edit(lines):
        lines[3] = f"{digest.cell_of(lines[3])} {'0' * 64}"
        return lines

    cell = digest.cell_of(committed(digest, capsys, edit)[3])
    assert digest.main(["--check"]) == 1
    report = capsys.readouterr().out.split(" lines differ from run_digest.txt:\n")[1]
    assert report.splitlines() == [f"  {cell}"]


def test_check_exits_3_on_a_foreign_header_without_running_the_grid(digest, capsys, monkeypatch):
    with open(digest.DIGEST_FILE, "w") as f:
        f.write("# python 0.0, numpy 0.0, blas none\ntotal" + " " * 22 + "0" * 64 + "\n")
    monkeypatch.setattr(digest.sim, "run_drop", lambda *a: pytest.fail("the grid ran"))
    assert digest.main(["--check"]) == digest.NOT_COMPARABLE
    assert "not comparable on this platform" in capsys.readouterr().out
