"""Tests for the command-line interface: exit codes, reports, determinism."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import kuniform
from kuniform import cli, facts
from kuniform import states as states_module
from kuniform.cli import _int_spec, main, run
from kuniform.codes import mds_code
from kuniform.errors import CatalogError
from kuniform.gf import field_for_order
from kuniform.masking import Masker, build_masker, save_masker
from kuniform.oa import oa_from_code, save_oa
from kuniform.states import PureState, from_vector, ghz, load_bundled_state, save_state


def test_construct_then_verify_pipeline(tmp_path):
    out = str(tmp_path / "s.state")
    code, report = run(
        ["construct", "kuniform", "--k", "2", "--d", "3", "--N", "4", "-o", out]
    )
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["details"]["recipe"]["rule"] == "mds_trim"
    assert report["details"]["r"] == 9

    code, report = run(["verify", "state", "--k", "2", out])
    assert code == 0
    assert report["details"]["subsets_checked"] == 6
    assert report["details"]["max_deviation"] == 0.0
    assert report["inputs"][out].startswith("sha256:")


def test_verify_product_state_fails_naming_subset(tmp_path):
    path = str(tmp_path / "product.state")
    save_state(PureState(3, 2, {(0, 0, 0): (1, 0)}), path)
    code, report = run(["verify", "state", "--k", "1", path])
    assert code == 1
    assert report["verdict"] == "fail"
    subsets = [entry["subset"] for entry in report["details"]["failures"]]
    assert [0] in subsets


def test_table_text_row(capsys):
    code, report = run(["table", "--k", "4", "--d", "2", "--N", "8..11"])
    assert code == 0
    out = capsys.readouterr().out
    cells = out.splitlines()[-1].split()[1:]
    assert cells == ["×", "×", "×", "?"]


def test_table_json_structure():
    code, report = run(
        ["table", "--k", "4", "--d", "2,3", "--N", "8..10", "--format", "json"]
    )
    assert code == 0
    rows = report["details"]["rows"]
    assert [row["label"] for row in rows] == ["2", "3"]
    symbols = [cell["symbol"] for cell in rows[0]["cells"]]
    assert symbols == ["×", "×", "×"]
    for cell in rows[0]["cells"]:
        assert "Rains" in cell["citation"]


def test_reports_are_byte_identical_between_runs(tmp_path, capsys):
    path = str(tmp_path / "s.state")
    run(["construct", "kuniform", "--k", "2", "--d", "3", "--N", "4", "-o", path])
    capsys.readouterr()
    argv = ["verify", "state", "--k", "2", path]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed, no timestamps to differ

    argv = ["table", "--k", "5", "--d", "2..6", "--N", "10..14", "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert first == capsys.readouterr().out


def test_report_structure_and_versions():
    code, report = run(["table", "--k", "1", "--d", "2", "--N", "2..3"])
    assert sorted(report) == ["command", "details", "inputs", "verdict", "versions"]
    assert report["command"][0] == "table"
    assert report["versions"]["tool"]
    assert report["versions"]["fact_table"]


def test_usage_errors_exit_2():
    for argv in [
        [],
        ["bogus"],
        ["construct"],
        ["verify", "state", "x.state"],  # missing --k
        ["table", "--k", "4", "--d", "nope", "--N", "8"],
        ["construct", "kuniform", "--k", "0", "--d", "3", "--N", "4"],
        *(["verify", "state", "x.state", "--k", "1", "--tol", tol] for tol in ("nan", "-1", "inf")),
    ]:
        code, report = run(argv)
        assert code == 2, argv
        assert report is None


def test_tol_applies_to_float_states_only(tmp_path, capsys):
    """A float 3-uniform state off by about 1e-8 fails at the default
    tolerance and passes at 1e-6; an exact state's report ignores --tol."""
    vec = load_bundled_state("ame_6_2").to_vector()
    vec += 1e-8 * np.random.default_rng(1).normal(size=vec.size)
    path = str(tmp_path / "near.state")
    save_state(from_vector(vec / np.linalg.norm(vec), 6, 2), path)
    assert run(["verify", "state", "--k", "3", path])[0] == 1
    code, report = run(["verify", "state", "--k", "3", "--tol", "1e-6", path])
    assert code == 0 and report["details"]["failures"] == []
    assert 0 < report["details"]["max_deviation"] <= 1e-6

    path = str(tmp_path / "ghz.state")
    save_state(ghz(4, 2), path)
    outcomes = []
    for tol in ([], ["--tol", "0"], ["--tol", "1e-6"], ["--tol", "1"]):
        code, report = run(["verify", "state", "--k", "2", path, *tol])
        outcomes.append((code, report["details"]))
    capsys.readouterr()
    assert outcomes[0][0] == 1 and outcomes[1:] == outcomes[:1] * 3


def test_one_parser_serves_every_run(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "ame.state")
    save_state(load_bundled_state("ame_6_2"), path)
    argvs = [
        ["verify", "state", path],  # usage error: missing --k
        ["verify", "state", "--k", "3", path],
        ["table", "--k", "4", "--d", "2", "--N", "8..11"],
    ]

    def outcomes():
        return [(run(argv), capsys.readouterr()) for argv in argvs]

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    shared = outcomes()
    assert len(built) == 1
    assert [code for (code, _), _ in shared] == [2, 0, 0]
    # a fresh parser for every run gives the same codes, reports and output
    monkeypatch.setattr(cli, "_parser", build)
    assert outcomes() == shared


def test_runtime_errors_exit_1(tmp_path, capsys):
    code, report = run(["verify", "state", "--k", "2", str(tmp_path / "no.state")])
    assert code == 1 and report is None
    assert "error:" in capsys.readouterr().err

    # an amplitude whose square is past float range
    path = tmp_path / "big.state"
    path.write_text("state 1 2 1 float\n0 1e308 0\n")
    assert run(["verify", "state", "--k", "1", str(path)]) == (1, None)
    assert capsys.readouterr().err == "error: squared norm inf deviates from 1 beyond 1e-12\n"

    code, report = run(["construct", "kuniform", "--k", "2", "--d", "5", "--N", "9"])
    assert code == 1
    assert "direct-sum" in capsys.readouterr().err


def test_nan_state_is_refused(tmp_path, capsys):
    path = tmp_path / "nan.state"
    path.write_text("state 2 2 1 float\n0 0 1.0 0.0\n1 1 nan 0.0\n")
    assert run(["verify", "state", "--k", "1", str(path)]) == (1, None)
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest",
    [
        '{"format": "masker", "d": 2, "N": 2}',
        '["format", "masker"]',
        '{"format": "masker", "d": 2, "N": 2, "images": 5}',
        '{"format": "masker", "d": 0, "N": 3, "images": []}',
    ],
    ids=["no_images", "list", "images_int", "d_zero"],
)
def test_malformed_masker_manifest_exits_1(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    assert run(["mask", "verify", str(tmp_path), "--k", "1"]) == (1, None)
    assert capsys.readouterr().err.startswith("error:")


def test_numerators_past_float_range_are_reported(tmp_path, capsys):
    """Verdicts stay exact and magnitudes come out finite when numerators
    and r lie past float range: exit 1 with a report, no traceback."""
    big, root = 2**2200, 2**1100
    two, one = tmp_path / "two.state", tmp_path / "one.state"
    two.write_text(f"state 2 2 {big} exact\n0 0 {root} 0\n")
    one.write_text(f"state 1 2 {big} exact\n0 {root} 0\n")
    # images (|00> + |11>) / sqrt(2) and (|01> + |10>) / sqrt(2): their
    # cross reduction onto either party is |0><1| / 2 + |1><0| / 2
    pair = [{(0, 0): (root, 0), (1, 1): (root, 0)}, {(0, 1): (root, 0), (1, 0): (root, 0)}]
    save_masker(Masker(d=2, N=2, images=[PureState(2, 2, amps, r=2 * big) for amps in pair]), tmp_path / "m")

    code, report = run(["verify", "state", str(two), "--k", "1"])
    assert code == 1 and report["details"]["max_deviation"] == 0.5
    code, report = run(["qecc", "verify", str(two), "--delta", "2"])
    assert code == 1 and report["details"]["worst"] == 1.0
    code, report = run(["qecc", "verify", str(one), str(one), "--delta", "1"])
    assert code == 1 and report["details"]["failures"] == [("<i|j>", 0, 1, 1.0)]
    code, report = run(["mask", "verify", str(tmp_path / "m"), "--k", "1"])
    reasons = {failure["reason"] for failure in report["details"]["failures"]}
    assert code == 1 and "cross term does not vanish, max entry 5.000e-01" in reasons
    assert capsys.readouterr().err == ""


def test_huge_field_is_refused_before_its_order_is_computed(tmp_path, capsys):
    path = tmp_path / "huge.code"
    path.write_text("code 2 20000 3 1\n1 0 1\n")
    assert run(["verify", "code", str(path)]) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field_order" in err


def test_array_wider_than_its_rows_is_refused(tmp_path, capsys):
    path = tmp_path / "wide.oa"
    path.write_text("oa 1 1000000000000 2 0\n0 1\n")
    assert run(["verify", "oa", str(path), "--k", "0"]) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected 1000000000000" in err


def test_int_spec_forms():
    assert _int_spec("4") == [4]
    assert _int_spec("8..11") == [8, 9, 10, 11]
    assert _int_spec("5,3,2") == [2, 3, 5]
    import argparse

    for bad in ["", "x", "5..3", "1,,2x"]:
        with pytest.raises(argparse.ArgumentTypeError):
            _int_spec(bad)


def test_construct_ghz_and_mds_and_oa(tmp_path):
    g = str(tmp_path / "g.state")
    code, report = run(["construct", "ghz", "--N", "3", "--d", "2", "-o", g])
    assert code == 0 and report["details"]["terms"] == 2

    c = str(tmp_path / "m.code")
    code, report = run(["construct", "mds", "--q", "5", "--t", "2", "-o", c])
    assert code == 0
    assert report["details"] == {"n": 6, "output": c, "q": 5, "t": 2, "w": 5}

    a = str(tmp_path / "t.oa")
    code, report = run(["construct", "oa", "--code", c, "--trim", "5", "-o", a])
    assert code == 0
    assert report["details"]["r"] == 25 and report["details"]["N"] == 5

    code, report = run(["verify", "oa", a, "--k", "2", "--irredundant"])
    assert code == 0
    assert report["details"]["irredundant"] is True
    assert report["details"]["min_distance"] == 4


def test_verify_oa_irredundant_failure(tmp_path):
    path = tmp_path / "full.oa"
    rows = [f"{a} {b}" for a in range(2) for b in range(2)]
    path.write_text("oa 4 2 2 2\n" + "\n".join(rows) + "\n")
    code, report = run(["verify", "oa", str(path), "--k", "2", "--irredundant"])
    assert code == 1
    assert report["details"]["strength_ok"] is True
    assert report["details"]["irredundant"] is False


def test_verify_code_reports_self_duality(tmp_path):
    code, report = run(["construct", "mds", "--q", "3", "--t", "2"])
    assert code == 0 and "output" not in report["details"]
    # the tetracode generator, which is self-dual
    path = tmp_path / "tetra.code"
    path.write_text("code 3 1 4 2\n1 0 1 1\n0 1 1 2\n")
    code, report = run(["verify", "code", str(path)])
    assert code == 0
    assert report["details"]["self_dual"] is True
    assert report["details"]["w"] == 3 and report["details"]["w_dual"] == 3


def test_compose_tensor_and_direct_sum(tmp_path):
    g = str(tmp_path / "g.state")
    run(["construct", "ghz", "--N", "2", "--d", "2", "-o", g])
    out = str(tmp_path / "gg.state")
    code, report = run(["compose", "tensor", g, g, "-o", out])
    assert code == 0
    assert report["details"] == {"N": 2, "d": 4, "output": out, "r": 4, "terms": 4}

    c = str(tmp_path / "m.code")
    run(["construct", "mds", "--q", "5", "--t", "2", "-o", c])
    out = str(tmp_path / "sum.code")
    code, report = run(["compose", "direct-sum", c, c, "-o", out])
    assert code == 0
    assert report["details"] == {"n": 12, "output": out, "q": 5, "t": 4}
    code, report = run(["verify", "code", out])
    assert report["details"]["w"] == 5 and report["details"]["w_dual"] == 3


def test_mask_build_verify_and_collusion(tmp_path):
    psi = str(tmp_path / "psi.state")
    run(["construct", "kuniform", "--k", "2", "--d", "3", "--N", "4", "-o", psi])
    mdir = str(tmp_path / "masker")
    code, report = run(
        ["mask", "build", "--state", psi, "--split", "0", "--k", "1", "-o", mdir]
    )
    assert code == 0
    assert report["details"]["images"] == 3 and report["details"]["N"] == 3

    code, report = run(["mask", "verify", mdir, "--k", "1", "--samples", "6"])
    assert code == 0
    assert report["details"]["samples_checked"] == 6

    # two colluding parties can identify the masked symbol
    code, report = run(["mask", "verify", mdir, "--k", "2"])
    assert code == 1
    assert report["details"]["failures"]


def test_mask_bundles_do_not_depend_on_where_their_input_was(tmp_path, capsys, monkeypatch):
    """Two builds from copies of one state in two directories make the same
    bundle, which `mask verify` reports alike; the manifest names the input
    by its file name."""
    psi = tmp_path / "psi.state"
    run(["construct", "kuniform", "--k", "2", "--d", "3", "--N", "4", "-o", str(psi)])
    outs = []
    for where in (tmp_path / "a", tmp_path / "b" / "deeper"):
        where.mkdir(parents=True)
        shutil.copy(psi, where / "psi.state")
        run(["mask", "build", "--state", str(where / "psi.state"), "--split", "0", "--k", "1", "-o", str(where / "m")])
        monkeypatch.chdir(where)
        capsys.readouterr()
        assert run(["mask", "verify", "m", "--k", "1"])[0] == 0
        outs.append((cli._digest(where / "m"), capsys.readouterr().out))
    assert outs[0] == outs[1]
    manifest = json.loads((tmp_path / "a" / "m" / "manifest.json").read_text())
    assert manifest["provenance"] == "split party 0 of (psi.state)"


def test_mask_verify_seeded_sampling_is_reproducible(tmp_path, capsys):
    ame = str(tmp_path / "ame.state")
    save_state(load_bundled_state("ame_6_2"), ame)
    mdir = str(tmp_path / "m6")
    run(["mask", "build", "--state", ame, "--split", "0", "--k", "2", "-o", mdir])
    capsys.readouterr()
    argv = ["mask", "verify", mdir, "--k", "2", "--samples", "5", "--seed", "9"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert first == capsys.readouterr().out


def test_sampled_check_takes_float_maskers_within_tolerance(tmp_path, capsys):
    """A float masker whose images are orthonormal within FLOAT_TOL, but
    whose superpositions miss NORM_TOL, is sampled rather than refused as
    a malformed state."""
    v0, v1 = (img.to_vector() for img in build_masker(load_bundled_state("ame_6_2"), split_party=0, k=2).images)
    v1 = v1 + 3e-11 * v0
    images = [from_vector(v, 5, 2) for v in (v0, v1 / np.linalg.norm(v1))]
    mdir = str(tmp_path / "tilted")
    save_masker(Masker(d=2, N=5, images=images), mdir)
    assert run(["mask", "verify", mdir, "--k", "2"])[0] == 0
    code, report = run(["mask", "verify", mdir, "--k", "2", "--samples", "4"])
    assert code == 0 and report["details"]["samples_checked"] == 4
    assert "error" not in capsys.readouterr().err


def test_qecc_verify_exit_codes(tmp_path):
    ame = str(tmp_path / "ame.state")
    save_state(load_bundled_state("ame_6_2"), ame)
    mdir = tmp_path / "m6"
    run(["mask", "build", "--state", ame, "--split", "0", "--k", "2", "-o", str(mdir)])
    images = [str(mdir / "image_0.state"), str(mdir / "image_1.state")]
    code, report = run(["qecc", "verify", "--delta", "3", *images])
    assert code == 0
    assert report["details"]["ops_checked"] == 105
    assert report["details"]["singleton_ok"] is True

    a = str(tmp_path / "a.state")
    b = str(tmp_path / "b.state")
    save_state(PureState(2, 2, {(0, 0): (1, 0)}), a)
    save_state(PureState(2, 2, {(1, 1): (1, 0)}), b)
    code, report = run(["qecc", "verify", "--delta", "2", a, b])
    assert code == 1
    assert report["details"]["failures"]


def test_only_mask_verify_takes_a_seed(tmp_path):
    ame = str(tmp_path / "ame.state")
    save_state(load_bundled_state("ame_6_2"), ame)
    assert run(["table", "--k", "1", "--d", "2", "--N", "2..3", "--seed", "7"]) == (2, None)
    assert run(["verify", "state", ame, "--k", "3", "--seed", "7"]) == (2, None)
    assert run(["verify", "state", ame, "--k", "3", "--threads", "2"]) == (2, None)
    # the seed is a non-negative integer, refused as a usage error otherwise
    mdir = str(tmp_path / "m6")
    run(["mask", "build", "--state", ame, "--split", "0", "--k", "2", "-o", mdir])
    assert run(["mask", "verify", mdir, "--k", "2", "--samples", "2", "--seed", "-1"]) == (2, None)
    assert run(["mask", "verify", mdir, "--k", "2", "--samples", "2", "--seed", "0"])[0] == 0


def test_main_returns_exit_code():
    assert main(["table", "--k", "1", "--d", "2", "--N", "2..3"]) == 0
    assert main(["bogus"]) == 2


def _run_cli_process(argv, command=None):
    """Run the CLI as a child process against the package under test.

    Uses `command` when given, else this interpreter's installed ``kuniform``
    console script when there is one, else ``python -m kuniform``. The source
    root of the imported package goes first on the child's PYTHONPATH, since a
    relative entry such as ``src`` would not resolve from another working
    directory.
    """
    if command is None:
        script = shutil.which("kuniform", path=sysconfig.get_path("scripts"))
        command = [script] if script else [sys.executable, "-m", "kuniform"]
    source_root = str(Path(kuniform.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        command + argv, capture_output=True, encoding="utf-8", env=env
    )


def test_console_script_runs():
    proc = _run_cli_process(["table", "--k", "1", "--d", "2,3", "--N", "2..4"])
    assert proc.returncode == 0, proc.stderr
    assert "√" in proc.stdout

    proc = _run_cli_process(["bogus"])
    assert proc.returncode == 2, proc.stderr


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kuniform"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


# A fresh interpreter that runs the CLI on its arguments, then writes the
# names of the modules it loaded to stderr as its last line.
_MODULES_DRIVER = (
    "import sys\n"
    "from kuniform.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def test_each_command_loads_only_the_layers_it_runs(tmp_path, capsys):
    state = str(tmp_path / "ghz.state")
    save_state(ghz(3, 2), state)
    array = str(tmp_path / "mds.oa")
    save_oa(oa_from_code(mds_code(field_for_order(4), 2)), array)
    masker = str(tmp_path / "m6")
    save_masker(build_masker(load_bundled_state("ame_6_2"), split_party=0, k=2), masker)
    def layers(*names):
        return {f"kuniform.{name}" for name in names}

    every = layers("catalog", "codes", "masking", "oa", "states")
    cases = [
        (["construct", "mds", "--q", "4", "--t", "2"], layers("catalog", "states", "oa", "masking") | {"hashlib"}),
        (["table", "--k", "4", "--d", "2", "--N", "8..11"], layers("states", "oa", "masking", "codes")),
        (["verify", "state", state, "--k", "1"], layers("masking", "catalog")),
        (["verify", "oa", array, "--k", "2"], layers("states", "masking", "catalog")),
        (["mask", "verify", masker, "--k", "2"], layers("catalog")),
    ]
    for argv, absent in cases:
        code, _ = run(argv)
        expected = capsys.readouterr().out
        proc = _run_cli_process(argv, command=[sys.executable, "-c", _MODULES_DRIVER])
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == expected
        loaded = set(proc.stderr.splitlines()[-1].split())
        assert not absent & loaded, argv
        # the layers the command runs are loaded, so the driver's list is real
        assert every - absent <= loaded, argv


@pytest.mark.parametrize("argv_of", [
    lambda paths: ["construct", "mds", "--q", "4", "--t", "2"],
    lambda paths: ["verify", "state", paths["state"], "--k", "3"],
    lambda paths: ["mask", "verify", paths["masker"], "--k", "2"],
    lambda paths: ["table", "--k", "4", "--d", "2", "--N", "8..11"],
], ids=["construct-mds", "verify-state", "mask-verify", "table"])
def test_a_corrupt_fact_table_fails_every_command_cleanly(tmp_path, capsys, monkeypatch, argv_of):
    paths = {"state": str(tmp_path / "ame.state"), "masker": str(tmp_path / "m6")}
    save_state(load_bundled_state("ame_6_2"), paths["state"])
    save_masker(build_masker(load_bundled_state("ame_6_2"), split_party=0, k=2), paths["masker"])

    def corrupt():
        raise CatalogError("fact table is corrupt: no version")

    monkeypatch.setattr(facts, "fact_table", corrupt)
    assert run(argv_of(paths)) == (1, None)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: fact table is corrupt: no version\n"


def test_tol_defaults_to_the_states_float_tolerance(tmp_path, capsys, monkeypatch):
    # cos t |00> + sin t |11>, t = pi/4 + 5e-11: each one-party reduction
    # deviates from I/2 by about 5e-11, between 1e-11 and FLOAT_TOL
    t = np.pi / 4 + 5e-11
    path = str(tmp_path / "tilted.state")
    save_state(from_vector([np.cos(t), 0, 0, np.sin(t)], 2, 2), path)
    argv = ["verify", "state", path, "--k", "1"]

    def report_of(extra):
        code, report = run(argv + extra)
        out = capsys.readouterr().out
        assert json.loads(out) == report
        del report["command"]
        return code, json.dumps(report, sort_keys=True, indent=2)

    default = report_of([])
    assert 1e-11 < json.loads(default[1])["details"]["max_deviation"] < states_module.FLOAT_TOL
    assert default[0] == 0
    assert report_of(["--tol", repr(states_module.FLOAT_TOL)]) == default
    # the handler reads the tolerance at call time: cli keeps no copy of it
    monkeypatch.setattr(states_module, "FLOAT_TOL", 1e-11)
    code, report = report_of([])
    assert code == 1 and json.loads(report)["details"]["verdict"] == "fail"
