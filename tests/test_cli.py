import json
import os

import numpy as np
import pytest

from hopfsim import cli
from hopfsim.bzgrid import (
    MeshSpec,
    StateField,
    field_to_dict,
    load_field,
    sample_state_field,
    texture_rows,
)
from hopfsim.errors import UsageError
from hopfsim.model import HopfParams
from hopfsim.preimage import polyline_from_dict


def run_cli(argv, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(argv)
    finally:
        os.chdir(old)


def test_parse_config_examples():
    cfg = cli.parse_config(["index", "--h", "2", "--n", "10"])
    assert cfg.subcommand == "index" and cfg.h == [2.0] and cfg.n == [10]
    cfg = cli.parse_config(["preimage", "--h", "2.9", "--spin", "1,0,0", "--res", "64"])
    assert cfg.spins == [(1.0, 0.0, 0.0)] and cfg.res == 64
    cfg = cli.parse_config(
        ["scaling", "--h", "0", "--h", "2", "--n", "10", "--n", "20"]
    )
    assert cfg.h == [0.0, 2.0] and cfg.n == [10, 20]


def test_parse_config_defaults():
    cfg = cli.parse_config(["campaign", "--h", "2"])
    assert cfg.n == [10] and cfg.photons == 93000 and cfg.seed == 0


def test_eps_only_valid_for_neighborhood(capsys):
    # unknown flag for the subcommand: argparse exits with status 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["index", "--h", "2", "--eps", "0.3"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(["neighborhood", "--h", "2", "--spin", "1,0,0", "--eps", "3"], tmp_path) == 2
    assert run_cli(["index", "--h", "2", "--n", "2"], tmp_path) == 2
    assert run_cli(["preimage", "--h", "2", "--spin", "1,0"], tmp_path) == 2
    assert run_cli(["preimage", "--h", "2", "--spin", "1,1,0"], tmp_path) == 2
    assert run_cli(["neighborhood", "--spin", "0,0,1", "--eps", "0.3"], tmp_path) == 2
    assert run_cli(["index", "--h", "nan"], tmp_path) == 2
    for h in ("1", "3", "-1"):  # phase transitions have no reference index
        assert run_cli(["scaling", "--h", h, "--n", "6"], tmp_path) == 2
    for flags in (["--seed=-1"], ["--seed", str(2**64)], ["--photons", str(10**20)]):
        assert run_cli(["campaign", "--h", "2", "--n", "4", *flags], tmp_path) == 2
    conf = tmp_path / "conf.json"
    index = ["index", "--h", "2", "--config", str(conf)]
    neighborhood = ["neighborhood", "--config", str(conf), "--spin", "0,0,1", "--eps", "0.3"]
    link = ["link", "--h", "2.9", "--config", str(conf)]
    for text, argv in [("{not json", index), ('{"n": "abc"}', index), ("[6]", index),
                       ('{"h": "two"}', neighborhood), ('{"spin": [[1, 0, 0]]}', link)]:
        conf.write_text(text)
        assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 17 and all(line.startswith("usage error: ") for line in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]


def test_malformed_field_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    argv = ["neighborhood", "--spin", "0,0,1", "--eps", "0.3", "--field"]
    short = {"n": 4, "h": 2.0, "entries": [[1, 0, 0, 0]] * 5}
    for text in ("{not json", '{"h": 2}', "[1]", json.dumps(short)):
        bad.write_text(text)
        assert run_cli(argv + [str(bad)], tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"usage error: --field {bad} ")
    # a missing file stays an I/O error
    assert run_cli(argv + [str(tmp_path / "missing.json")], tmp_path) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "IOError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("argv", [
    ["link", "--h", "2", "--spins", "nan,0,0;0,1,0"],
    ["preimage", "--h", "2", "--spin", "nan,0,0"],
    ["preimage", "--h", "2", "--spin", "inf,0,0"],
    ["neighborhood", "--h", "2", "--spin", "0,-inf,0", "--eps", "0.3"],
    ["adiabatic", "--h", "2", "--k", "nan,0.1,0.2"],
    ["adiabatic", "--h", "2", "--k", "0.1,inf,0.2"],
])
def test_non_finite_spin_or_k_is_a_usage_error(tmp_path, capsys, argv):
    assert run_cli(argv, tmp_path) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["link", "--h", "2", "--spins", "1.0000005,0,0;0,1,0", "--res", "32"],
    ["preimage", "--h", "2", "--spin", "1.0000005,0,0", "--res", "32"],
    ["neighborhood", "--h", "2", "--n", "6", "--spin", "1.0000005,0,0", "--eps", "0.3"],
])
def test_spin_off_unit_norm_is_a_usage_error(tmp_path, capsys, argv):
    # the CLI holds a spin target to the engines' own 1e-9 unit-norm rule
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "unit vector" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["adiabatic", "--h", "1e308", "--k", "0.1,0.2,0.3"], "|h| must be <= 1e+75"),
    (["index", "--h", "1e308", "--n", "4"], "|h| must be <= 1e+75"),
    (["index", "--h=-1e76", "--n", "4"], "|h| must be <= 1e+75"),
    (["link", "--h", "2", "--spins", "1,0,0;0,1,0", "--res", "100000000"],
     "--res must be in [16, 256], got 100000000"),
    (["preimage", "--h", "2", "--spin", "1,0,0", "--res", "257"],
     "--res must be in [16, 256], got 257"),
])
def test_out_of_range_h_or_res_is_a_usage_error(tmp_path, capsys, argv, message):
    assert run_cli(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_large_h_below_the_bound_still_runs(tmp_path, capsys):
    assert run_cli(["adiabatic", "--h", "1e70", "--k", "0.1,0.2,0.3"], tmp_path) == 0
    assert run_cli(["index", "--h", "1e70", "--n", "4"], tmp_path) == 0
    capsys.readouterr()
    adiabatic = json.loads((tmp_path / "adiabatic_h1e+70.json").read_text())
    index = json.loads((tmp_path / "index_h1e+70_n4.json").read_text())
    assert adiabatic["fidelity"] >= 0.99
    assert index["nearest_integer"] == 0


def test_field_with_a_non_finite_entry_is_a_usage_error(tmp_path, capsys):
    doc = field_to_dict(sample_state_field(HopfParams(2.0), MeshSpec(4)))
    doc["entries"][5][0] = float("nan")
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps(doc))
    argv = ["neighborhood", "--field", str(bad), "--spin", "1,0,0", "--eps", "2"]
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --field {bad} ") and "finite" in err
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_config_file_overridden_by_flags(tmp_path):
    cfgfile = tmp_path / "conf.json"
    cfgfile.write_text(json.dumps({"n": 6, "seed": 5}))
    cfg = cli.parse_config(
        ["campaign", "--config", str(cfgfile), "--h", "2", "--seed", "9"]
    )
    assert cfg.n == [6]  # from file
    assert cfg.seed == 9  # flag wins
    cfgfile.write_text(json.dumps({"n": 6.0}))  # a JSON number, read as a mesh size
    assert cli.parse_config(["index", "--config", str(cfgfile), "--h", "2"]).n == [6]


def test_config_file_h_gives_the_artifact_of_the_flag(tmp_path, capsys):
    # a JSON integer h names and fills the artifact as the float flag does
    (tmp_path / "conf.json").write_text(json.dumps({"h": 2, "n": 4}))
    neighborhood = ["neighborhood", "--spin", "0,0,1", "--eps", "0.5"]
    docs = {}
    for name, argv in (("config", ["--config", str(tmp_path / "conf.json")]),
                       ("flag", ["--h", "2", "--n", "4"])):
        os.mkdir(tmp_path / name)
        assert run_cli(neighborhood + argv, tmp_path / name) == 0
        (path,) = (tmp_path / name).iterdir()
        docs[name] = path.name, json.loads(path.read_text())
        docs[name][1].pop("generated_at")
    capsys.readouterr()
    assert docs["config"] == docs["flag"]
    assert docs["flag"][0] == "neighborhood_h2p0_n4.json" and docs["flag"][1]["h"] == 2.0


def test_index_artifact_roundtrip(tmp_path, capsys):
    out = tmp_path / "idx.json"
    assert run_cli(["index", "--h", "2", "--n", "6", "--out", str(out)], tmp_path) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["n"] == 6 and doc["nearest_integer"] == 1
    assert all(len(doc["chern_numbers"][ax]) == 6 for ax in "xyz")
    assert "generated_at" in doc


def test_field_artifact_roundtrip(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run_cli(["field", "--h", "2", "--n", "5", "--out", str(out)], tmp_path) == 0
    capsys.readouterr()
    f = load_field(out)
    from hopfsim import HopfParams, MeshSpec, sample_state_field

    g = sample_state_field(HopfParams(2.0), MeshSpec(5))
    assert np.array_equal(f.data, g.data)


def test_field_json_roundtrip_spinor(tmp_path):
    f = sample_state_field(HopfParams(2.0), MeshSpec(5))
    path = tmp_path / "field.json"
    cli.write_json_atomic(path, field_to_dict(f))
    g = load_field(path)
    assert np.array_equal(f.data, g.data)
    assert g.params == f.params and g.provenance == f.provenance
    # document structure is json-native
    doc = json.loads(path.read_text())
    assert doc["n"] == 5 and len(doc["entries"]) == 125 and len(doc["entries"][0]) == 4


def test_field_json_roundtrip_rho(tmp_path):
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    fr = StateField(MeshSpec(4), f.params, rho, provenance="simulated-experiment")
    path = tmp_path / "rho.json"
    cli.write_json_atomic(path, field_to_dict(fr))
    g = load_field(path)
    assert g.kind == "rho"
    assert np.array_equal(fr.data, g.data)
    np.testing.assert_allclose(g.bloch_vectors(), f.bloch_vectors(), atol=1e-12)


def test_preimage_artifact(tmp_path, capsys):
    out = tmp_path / "pre.json"
    code = run_cli(
        ["preimage", "--h", "2.9", "--spin", "1,0,0", "--res", "32", "--out", str(out)],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["target"] == [1.0, 0.0, 0.0] and len(doc["loops"]) == 1
    loop = polyline_from_dict(doc["loops"][0])
    assert loop.coords == "T3" and loop.closed


def test_link_artifact(tmp_path, capsys):
    out = tmp_path / "link.json"
    code = run_cli(
        ["link", "--h", "2.9", "--spins", "1,0,0;0,1,0", "--res", "32", "--out", str(out)],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert abs(doc["linking"][0][1]) == 1 and doc["absent"] == []
    assert doc["min_separation_cells"] > 0 and 0 <= doc["max_residual"] < 1e-6


def test_link_with_winding_loops_is_a_typed_error(tmp_path, capsys):
    # at h=2 this target's preimage winds the torus along kz
    out = tmp_path / "link.json"
    code = run_cli(
        ["link", "--h", "2", "--spins", "0.6,0,0.8;0,0.6,0.8", "--out", str(out)],
        tmp_path,
    )
    assert code == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    doc = json.loads(lines[0])
    assert doc["error"] == "WindingLoops"
    windings = doc["detail"]["windings"]
    assert len(windings) == 2 and any(any(w) for w in windings)
    assert not out.exists()


def test_campaign_artifacts_and_stats(tmp_path, capsys):
    stem = tmp_path / "camp"
    code = run_cli(
        ["campaign", "--h", "2", "--n", "4", "--photons", "3000", "--seed", "7",
         "--out", str(stem)],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()
    field = load_field(f"{stem}.field.json")
    assert field.kind == "rho" and field.provenance == "simulated-experiment"
    stats = json.loads(open(f"{stem}.stats.json").read())
    assert 0.9 < stats["mean_fidelity"] <= 1.0
    assert len(stats["per_site"]) == 64 and stats["seed"] == 7


def test_adiabatic_artifact(tmp_path, capsys):
    out = tmp_path / "adia.json"
    code = run_cli(
        ["adiabatic", "--h", "2", "--k", "0.4,0.3,0.5", "--out", str(out)], tmp_path
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["fidelity"] >= 0.99
    assert doc["schedule"]["omega_peak"] > 0


def test_texture_csv(tmp_path, capsys):
    out = tmp_path / "tex.csv"
    code = run_cli(
        ["texture", "--h", "2", "--n", "4", "--format", "csv", "--out", str(out)],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "jx,jy,jz,sx,sy,sz" and len(lines) == 65
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (64, 6)
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    np.testing.assert_allclose(rows[:, 3:], texture_rows(f)[:, 3:], rtol=0, atol=0)


def test_engine_error_json_exit_1(tmp_path, capsys):
    code = run_cli(["index", "--h", "1", "--n", "10"], tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GaplessPoint" and "site" in err["detail"]
    assert run_cli(["index", "--h", "2", "--n", "4"], tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OrthogonalNeighbors"
    assert err["message"] == "orthogonal neighbors at site (3, 2, 2) along axis 0"


def test_chern_names_the_orthogonal_neighbors_of_index(tmp_path, capsys):
    errors = []
    for cmd in ("index", "chern"):
        assert run_cli([cmd, "--h", "2", "--n", "4"], tmp_path) == 1
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[1]["detail"] == {"site": [3, 2, 2], "axis": 0}
    assert list(tmp_path.iterdir()) == []


def test_idempotent_apart_from_timestamp(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["scaling", "--h", "2", "--n", "6", "--out", str(a)], tmp_path)
    run_cli(["scaling", "--h", "2", "--n", "6", "--out", str(b)], tmp_path)
    capsys.readouterr()
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("generated_at"), db.pop("generated_at")
    assert da == db
    # byte-identical apart from the timestamp line
    la = [l for l in a.read_text().splitlines() if "generated_at" not in l]
    lb = [l for l in b.read_text().splitlines() if "generated_at" not in l]
    assert la == lb


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "outputs"))
    code = run_cli(["chern", "--h", "2", "--n", "6"], tmp_path)
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith(str(tmp_path / "outputs"))
    assert os.path.exists(printed)


def test_negative_threads_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(UsageError):
        cli.parse_config(["campaign", "--h", "2", "--threads", "-3"])
    assert cli.parse_config(["campaign", "--h", "2", "--threads", "0"]).threads == 0
    assert run_cli(["campaign", "--h", "2", "--n", "4", "--threads", "-3"], tmp_path) == 2
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()
