import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hopfsim import cli, invariants, preimage
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
    assert run_cli(["neighborhood", "--h", "2", "--spin", "1,0,0", "--spin", "0,1,0",
                    "--eps", "0.3"], tmp_path) == 2  # one target, not the first of two
    assert run_cli(["index", "--h", "nan"], tmp_path) == 2
    for h in ("1", "3", "-1"):  # phase transitions have no reference index
        assert run_cli(["scaling", "--h", h, "--n", "6"], tmp_path) == 2
    for flags in (["--seed=-1"], ["--seed", str(2**64)], ["--photons", str(10**20)]):
        assert run_cli(["campaign", "--h", "2", "--n", "4", *flags], tmp_path) == 2
    # an empty --out is refused, not read as no --out
    assert run_cli(["chern", "--h", "2", "--n", "6", "--out", ""], tmp_path) == 2
    assert run_cli(["campaign", "--h", "2", "--n", "4", "--out", ""], tmp_path) == 2
    conf = tmp_path / "conf.json"
    index = ["index", "--h", "2", "--config", str(conf)]
    neighborhood = ["neighborhood", "--config", str(conf), "--spin", "0,0,1", "--eps", "0.3"]
    link = ["link", "--h", "2.9", "--config", str(conf)]
    texture = ["texture", "--h", "2", "--n", "4", "--config", str(conf)]
    campaign = ["campaign", "--h", "2", "--n", "4", "--config", str(conf)]
    for text, argv in [("{not json", index), ('{"n": "abc"}', index), ("[6]", index),
                       ('{"h": "two"}', neighborhood), ('{"spin": [[1, 0, 0]]}', link),
                       # each value is refused as its flag would refuse it
                       ('{"n": 6.7}', index), ('{"format": "xml"}', texture),
                       ('{"seed": 7.9}', campaign), ('{"n": true}', index),
                       ('{"res": 32.5}', link + ["--spins", "1,0,0;0,1,0"]),
                       ('{"nn": 6}', index), ('{"h": [2, 3]}', neighborhood),
                       ('{"h": 1%s}' % ("0" * 399), neighborhood), ('{"out": ""}', index)]:
        conf.write_text(text)
        assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 29 and all(line.startswith("usage error: ") for line in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]


def test_malformed_field_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    argv = ["neighborhood", "--spin", "0,0,1", "--eps", "0.3", "--field"]
    short = {"n": 4, "h": 2.0, "entries": [[1, 0, 0, 0]] * 5}
    # n = 6.7 used to load as n = 6, and an unknown kind as spinors
    fractional = {"n": 6.7, "h": 2.0, "entries": [[1, 0, 0, 0]] * 6 ** 3}
    xml = {"n": 6, "h": 2.0, "kind": "xml", "entries": [[1, 0, 0, 0]] * 6 ** 3}
    # h = true used to load as the phase transition h = 1 and exit 0
    field = field_to_dict(sample_state_field(HopfParams(2.0), MeshSpec(4)))
    field["entries"] = field["entries"].tolist()
    changes = [{"h": True}, {"h": "2"}, {"provenance": 5}, {"kind": "rho"},
               {"entries": [row + [0] for row in field["entries"]]}]
    for text in ("{not json", '{"h": 2}', "[1]", json.dumps(short), json.dumps(fractional),
                 json.dumps(xml), *(json.dumps({**field, **change}) for change in changes)):
        bad.write_text(text)
        assert run_cli(argv + [str(bad)], tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"usage error: --field {bad} ")
    # a missing file, or an empty path, stays an I/O error
    for path in (str(tmp_path / "missing.json"), ""):
        assert run_cli(argv + [path], tmp_path) == 3
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
     "res must be in [16, 512], got 100000000"),
    (["preimage", "--h", "2", "--spin", "1,0,0", "--res", "513"],
     "res must be in [16, 512], got 513"),
])
def test_out_of_range_h_or_res_is_a_usage_error(tmp_path, capsys, argv, message):
    assert run_cli(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_HUGE_MESH = ("mesh needs n < 2**20 (n**3 float64 values pass numpy's largest array size), "
              "got 1048576")


@pytest.mark.parametrize("argv, message", [
    *[([cmd, "--h", "2", "--n", n], message)
      for cmd in ("field", "texture", "index", "chern", "scaling", "campaign")
      for n, message in [("3", "mesh needs n >= 4, got 3"), (str(2**20), _HUGE_MESH)]],
    # scaling refuses every n before it samples the first
    (["scaling", "--h", "2", "--n", "6", "--n", str(2**20)], _HUGE_MESH),
    (["campaign", "--h", "2", "--n", "4", "--threads", "-1"], "threads must be >= 0, got -1"),
    (["campaign", "--h", "2", "--n", "4", "--photons", "2"],
     "need 3 to 3 * (2**63 - 1) photons, got 2"),
    (["campaign", "--h", "2", "--n", "4", "--seed=-1"], "seed must lie in [0, 2**64 - 1], got -1"),
    (["scaling", "--h", "1", "--n", "6"], "h=1.0 is a phase transition; the index is undefined"),
    (["scaling", "--h", "2", "--h=-3", "--n", "6"],
     "h=-3.0 is a phase transition; the index is undefined"),
    (["neighborhood", "--h", "2", "--n", "4", "--spin", "0,0,1", "--eps", "2.5"],
     "epsilon must be in (0, 2], got 2.5"),
])
def test_engine_range_is_a_usage_error(tmp_path, capsys, argv, message):
    # the engine that owns the range refuses the value; the CLI reports it
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: {message}\n"
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
    doc["entries"] = doc["entries"].tolist()
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


# a value for each flag some command needs, given unless it is the flag tested
_NEEDED = {"h": ["--h", "2"], "spin": ["--spin", "0,0,1"], "eps": ["--eps", "0.3"],
           "k": ["--k", "0.1,0.2,0.3"], "spins": ["--spins", "1,0,0;0,1,0"]}
_json_scalars = st.one_of(
    st.sampled_from(["2", "6", "0,0,1", "1,0,0;0,1,0", "json", "csv", "out.json"]),
    st.text(max_size=8), st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(), st.integers(-10**6, 10**6).map(float))
_json_values = st.one_of(
    _json_scalars,
    st.lists(st.one_of(_json_scalars, st.lists(_json_scalars, max_size=2)), max_size=3))
_ACTIONS = cli._build_parser()[1]


def _flag_argv(flag, action, value):
    """The argv a config value stands for: a list is the flag repeated, and
    an int flag's integral float is its integer."""
    if type(value) is list:
        return [arg for item in value for arg in _flag_argv(flag, action, item)]
    if type(value) is float:
        text = str(int(value)) if action.type is int and value.is_integer() else repr(value)
    else:
        text = value if type(value) is str else json.dumps(value)
    return [f"--{flag}={text}"]


@pytest.mark.parametrize("cmd, flag", [(cmd, flag) for cmd in _ACTIONS for flag in _ACTIONS[cmd]])
@settings(max_examples=20, deadline=None)
@given(value=_json_values)
def test_a_config_value_acts_as_its_flag(tmp_path_factory, cmd, flag, value):
    argv = [cmd]
    for need in cli._COMMANDS[cmd][2]:
        if flag not in need.split("|"):
            argv += _NEEDED[need.split("|")[0]]
    conf = tmp_path_factory.getbasetemp() / "config_value.json"
    conf.write_text(json.dumps({flag: value}))
    try:
        from_config = cli.parse_config(argv + ["--config", str(conf)])
    except UsageError:
        return
    # a list holds the values of a repeatable flag only
    assert type(value) is not list or cli._COMMANDS[cmd][3].get(flag, {}).get("action") == "append"
    from_flag = cli.parse_config(argv + _flag_argv(flag, _ACTIONS[cmd][flag], value))
    assert repr(from_config) == repr(from_flag)  # repr: nan == nan


def test_config_file_h_and_n_give_the_index_artifact_of_the_flags(tmp_path, capsys):
    # a config file may give the flags a command needs
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"h": 2, "n": 6}))
    texts = []
    for argv in (["--config", str(conf)], ["--h", "2", "--n", "6"]):
        assert run_cli(["index", *argv, "--out", "index.json"], tmp_path) == 0
        texts.append([line for line in (tmp_path / "index.json").read_text().splitlines()
                      if "generated_at" not in line])
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_field_with_h_or_n_is_a_usage_error(tmp_path, capsys):
    # --field gives h and n; a --h or --n beside it would be dropped unseen
    assert run_cli(["field", "--h", "2", "--n", "4", "--out", "f.json"], tmp_path) == 0
    capsys.readouterr()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"h": 2}))
    argv = ["neighborhood", "--field", "f.json", "--spin", "0,0,1", "--eps", "0.3"]
    for extra in (["--h=-2", "--n", "20"], ["--h", "2"], ["--n", "4"], ["--config", str(conf)]):
        assert run_cli(argv + extra, tmp_path) == 2
        assert capsys.readouterr().err == (
            "usage error: --field gives h and n; it cannot go with --h or --n\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "f.json"]


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


def test_field_file_of_the_older_format_with_omega_loads_the_same(tmp_path, capsys):
    assert run_cli(["field", "--h", "2", "--n", "6", "--out", "new.json"], tmp_path) == 0
    doc = json.loads((tmp_path / "new.json").read_text())
    assert doc.keys() == {"n", "h", "provenance", "kind", "entries", "generated_at"}
    # older files held the energy unit omega, always 1.0; any omega is ignored
    for omega in (1.0, 3.0):
        cli.write_json_atomic(tmp_path / f"omega{omega:g}.json", {**doc, "omega": omega})
    names = ["new", "omega1", "omega3"]
    fields = [load_field(tmp_path / f"{name}.json") for name in names]
    assert len({(f.params, f.provenance, f.kind, f.data.tobytes()) for f in fields}) == 1
    sites = []
    for name in names:
        argv = ["neighborhood", "--field", f"{name}.json", "--spin", "0,0,1", "--eps", "0.3",
                "--out", f"sites_{name}.json"]
        assert run_cli(argv, tmp_path) == 0
        sites.append(json.loads((tmp_path / f"sites_{name}.json").read_text())["sites"])
    capsys.readouterr()
    assert sites[0] and sites[0] == sites[1] == sites[2]


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
    assert loop.coords == "T3" and doc["loops"][0]["closed"] is True


def test_preimage_of_several_spins_samples_one_grid(tmp_path, capsys, monkeypatch):
    # one pass over the planes marches both spins: each x-plane is sampled
    # once, in slabs, and no (3, res, res, res) array is asked for
    planes = []
    original = cli.model.bloch_grid

    def counting(res, params, lo=0, hi=None, out=None):
        assert res == 32 and hi is not None and hi - lo < res
        planes.extend(range(lo, hi))
        return original(res, params, lo, hi, out)

    monkeypatch.setattr(cli.model, "bloch_grid", counting)
    code = run_cli(["preimage", "--h", "2.9", "--spin", "1,0,0", "--spin", "0,1,0",
                    "--res", "32", "--out", str(tmp_path / "pre.json")], tmp_path)
    assert code == 0 and planes == list(range(32))
    capsys.readouterr()
    for tag in ("+1.00_+0.00_+0.00", "+0.00_+1.00_+0.00"):
        doc = json.loads((tmp_path / f"pre_s{tag}.json").read_text())
        assert len(doc["loops"]) == 1


@pytest.mark.parametrize("spins", [
    ["1,0,0", "1,0,0"],
    # the artifact names round each component to 2 decimals
    ["1,0,0", "0.9999920000106667,0.003999989333341867,0"],
])
@pytest.mark.parametrize("out", [None, "pre.json"])
def test_preimage_targets_with_one_artifact_name_are_a_usage_error(tmp_path, capsys,
                                                                   monkeypatch, spins, out):
    monkeypatch.setattr(preimage, "refined_preimage", None)  # nothing is marched
    argv = ["preimage", "--h", "2.9", "--res", "32"] + ["--out", out] * bool(out)
    assert run_cli(argv + [arg for spin in spins for arg in ("--spin", spin)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: two --spin targets would both be written to ")
    assert err.rstrip().endswith("_s+1.00_+0.00_+0.00.json")
    assert list(tmp_path.iterdir()) == []


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
    assert "max_newton_residual" not in doc


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


def test_link_with_inconsistent_entries_is_a_typed_error(tmp_path, capsys, monkeypatch):
    # pairs that link 0, then -1, then -1 break the rule that every entry is
    # the one Hopf invariant
    values = iter([0, -1, -1])
    monkeypatch.setattr(preimage, "linking_number_t3",
                        lambda a, b: preimage.LinkingNumber(next(values), 0.0, 1.0))
    out = tmp_path / "link.json"
    code = run_cli(["link", "--h", "2.9", "--spins", "1,0,0;0,1,0;0,0,-1", "--res", "32",
                    "--out", str(out)], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "InconsistentLinks"
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


@pytest.mark.parametrize("n", [4, 7, 16])
def test_texture_csv_matches_per_row_formatting(tmp_path, capsys, n):
    out = tmp_path / "tex.csv"
    argv = ["texture", "--h", "2", "--n", str(n), "--format", "csv", "--out", str(out)]
    assert run_cli(argv, tmp_path) == 0
    capsys.readouterr()
    rows = texture_rows(sample_state_field(HopfParams(2.0), MeshSpec(n)))
    lines = ["jx,jy,jz,sx,sy,sz"] + [
        f"{int(r[0])},{int(r[1])},{int(r[2])},{float(r[3])!r},{float(r[4])!r},{float(r[5])!r}"
        for r in rows]
    assert out.read_text() == "\n".join(lines) + "\n"


# JSON-native trees, with the values json writes unlike a Python repr
_numbers = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1.5e22, -1e300, float("nan"), float("inf")]),
    st.integers(-2**200, 2**200),
    st.booleans(),
    st.floats().map(np.float64),
)
_rows = st.lists(st.lists(st.one_of(_numbers, st.lists(_numbers, max_size=3)), max_size=4),
                 max_size=6)
_leaves = st.one_of(st.none(), _numbers, st.text(), st.lists(_numbers, max_size=6), _rows)


def _dicts(values):
    # json sorts the keys, so the keys of one dict must compare with each other
    return st.one_of(
        st.dictionaries(st.text(), values, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), values, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), values, max_size=4),
        st.dictionaries(st.none(), values, max_size=1),
    )


_trees = st.recursive(_leaves, lambda t: st.one_of(st.lists(t, max_size=4), _dicts(t)),
                      max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(obj=_trees, block=st.sampled_from([1, 2, 3, cli._ROW_BLOCK]))
def test_artifact_json_is_the_bytes_of_json_dumps(obj, block):
    with mock.patch.object(cli, "_ROW_BLOCK", block):
        assert cli.dumps(obj) == json.dumps(obj, sort_keys=True, indent=1)


def test_artifact_json_of_a_field_is_the_bytes_of_json_dumps():
    doc = field_to_dict(sample_state_field(HopfParams(2.0), MeshSpec(16)))
    doc["entries"][3000][1] = float("nan")  # one block falls back to json
    assert len(doc["entries"]) >= 2 * cli._ROW_BLOCK
    assert cli.dumps(doc) == json.dumps({**doc, "entries": doc["entries"].tolist()},
                                        sort_keys=True, indent=1)


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj


_special = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0])
_float_rows = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=st.one_of(st.floats(), _special)),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=st.one_of(st.floats(width=32), _special)),
)
_docs_with_rows = st.recursive(
    st.one_of(_float_rows, _leaves),
    lambda t: st.one_of(st.lists(t, max_size=3), st.dictionaries(st.text(), t, max_size=3)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(obj=_docs_with_rows, block=st.sampled_from([1, 2, 3, cli._ROW_BLOCK]))
def test_artifact_json_of_float_arrays_is_the_bytes_of_json_dumps_of_their_lists(obj, block):
    with mock.patch.object(cli, "_ROW_BLOCK", block):
        assert cli.dumps(obj) == json.dumps(_as_lists(obj), sort_keys=True, indent=1)


@pytest.mark.parametrize("argv, limit_mib", [
    (["field"], 7.5),
    (["texture", "--format", "csv"], 7.5),
    (["texture"], 10.0),
])
def test_n32_artifact_is_written_within_a_heap_bound(tmp_path, capsys, argv, limit_mib):
    # the n=32 field artifact is 2.85 MB; the document holds the (32**3, 4)
    # entries array, and no nested list of it is ever formed
    assert run_cli([*argv, "--h", "2", "--n", "4"], tmp_path) == 0  # imports done
    tracemalloc.start()
    try:
        assert run_cli([*argv, "--h", "2", "--n", "32"], tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / 2**20 <= limit_mib


_ENGINES = ("hopfsim.adiabatic", "hopfsim.invariants", "hopfsim.preimage")


def test_each_command_imports_only_the_engines_it_runs(tmp_path):
    # a fresh interpreter: this one has imported every module already
    script = f"""
import json, sys
from hopfsim import cli

def engines():
    return sorted(m for m in {_ENGINES!r} if m in sys.modules)

seen = {{"import": engines()}}
for argv in (["field", "--h", "2", "--n", "4"], ["texture", "--h", "2", "--n", "4"],
             ["link", "--h", "2.9", "--spins", "1,0,0;0,1,0", "--res", "16"]):
    assert cli.main(argv) == 0
    seen[argv[0]] = engines()
print(json.dumps(seen))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, cli.OUTPUT_DIR_ENV: str(tmp_path)}
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["import"] == seen["field"] == seen["texture"] == []
    assert "hopfsim.preimage" in seen["link"]


def test_package_names_are_their_home_modules_objects():
    import hopfsim

    for name in hopfsim.__all__:
        home = importlib.import_module(f"hopfsim.{hopfsim._HOMES[name]}")
        assert getattr(hopfsim, name) is getattr(home, name)
    assert set(hopfsim.__all__) <= set(dir(hopfsim))
    star = {}
    exec("from hopfsim import *", star)
    assert {k for k in star if k != "__builtins__"} == set(hopfsim.__all__)
    assert star["link_matrix"] is preimage.link_matrix
    with pytest.raises(AttributeError):
        hopfsim.no_such_name


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_artifact_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    old = os.umask(umask)
    try:
        cli.write_atomic(tmp_path / "a.txt", "a\n")
        assert run_cli(["chern", "--h", "2", "--n", "6", "--out", "c.json"], tmp_path) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert (tmp_path / "a.txt").stat().st_mode & 0o777 == mode
    assert (tmp_path / "c.json").stat().st_mode & 0o777 == mode


def test_failed_write_leaves_no_temporary_and_the_old_artifact(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.json"
    out.write_text("old\n")
    with pytest.raises(TypeError):  # encoding fails before any file is made
        cli.write_json_atomic(out, {"rows": [[1.0, 2.0], {3}]})
    with pytest.raises(UnicodeEncodeError):  # the write itself fails
        cli.write_atomic(out, "x" * 100_000 + "\ud800")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)  # the file is written, then not moved
    with pytest.raises(OSError):
        cli.write_atomic(out, "new\n")
    assert run_cli(["chern", "--h", "2", "--n", "6", "--out", str(out)], tmp_path) == 3
    assert '"error": "IOError"' in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    assert out.read_text() == "old\n"


def test_engine_error_json_exit_1(tmp_path, capsys):
    code = run_cli(["index", "--h", "1", "--n", "10"], tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GaplessPoint" and "site" in err["detail"]
    assert run_cli(["index", "--h", "2", "--n", "4"], tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OrthogonalNeighbors"
    assert err["message"] == "orthogonal neighbors at site (3, 2, 2) along axis 0"
    # the link march samples slab by slab; a slab that closes the gap stops it
    assert run_cli(["link", "--h=-1", "--spins", "1,0,0;0,1,0;0,0,-1", "--res", "16"],
                   tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GaplessPoint" and "k=" in err["message"]
    # the largest mesh MeshSpec takes fails at its first allocation
    for cmd in ("index", "scaling", "campaign"):
        assert run_cli([cmd, "--h", "2", "--n", str(2**20 - 1)], tmp_path) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "MemoryError"
    assert list(tmp_path.iterdir()) == []


class _ArrayTooLarge(MemoryError):
    # stands in for numpy's private MemoryError subclass on a huge mesh
    pass


@pytest.mark.parametrize("err", [MemoryError(), _ArrayTooLarge("Unable to allocate 179. GiB")])
def test_mesh_too_large_for_memory_is_json_exit_1(tmp_path, capsys, monkeypatch, err):
    def out_of_memory(field):
        raise err

    monkeypatch.setattr(invariants, "index_report", out_of_memory)
    assert run_cli(["index", "--h", "2", "--n", "6"], tmp_path) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "MemoryError", "message": str(err)}
    assert list(tmp_path.iterdir()) == []


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
    assert cli.parse_config(["campaign", "--h", "2", "--threads", "0"]).threads == 0
    assert run_cli(["campaign", "--h", "2", "--n", "4", "--threads", "-3"], tmp_path) == 2
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()
