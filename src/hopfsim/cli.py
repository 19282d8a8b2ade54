"""Command-line front end: ``hopf <subcommand>``.

Subcommands cover the whole pipeline: analytic fields (field, texture),
invariants (index, chern, scaling), preimage loops and links (preimage,
neighborhood, link) and the simulated experiment (adiabatic, campaign).
Artifacts are JSON (CSV for spin textures), written atomically, and carry a
``generated_at`` timestamp; reruns with equal configuration are otherwise
byte-identical.

Exit statuses: 0 success, 1 engine error (machine-readable JSON on stderr),
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import adiabatic, bzgrid, invariants, model, preimage
from .errors import HopfError, UsageError

OUTPUT_DIR_ENV = "HOPF_OUTPUT_DIR"

_TEXTURE_COLUMNS = ["jx", "jy", "jz", "sx", "sy", "sz"]


@dataclass
class RunConfig:
    """A resolved command line; each field's default is the flag's default."""

    subcommand: str
    h: list = dc_field(default_factory=list)
    n: list = dc_field(default_factory=lambda: [10])
    spins: list = dc_field(default_factory=list)
    eps: float | None = None
    res: int = 64
    photons: int = adiabatic.DEFAULT_PHOTONS
    seed: int = 0
    threads: int = 1
    k: tuple | None = None
    out: str | None = None
    fmt: str = "json"
    field_path: str | None = None


def _parse_vec(text):
    try:
        parts = [float(x) for x in text.split(",")]
    except (AttributeError, ValueError):
        raise UsageError(f"--spin/--k expects 'x,y,z', got {text!r}")
    if len(parts) != 3:
        raise UsageError(f"--spin/--k expects 3 components, got {text!r}")
    if not np.isfinite(parts).all():
        raise UsageError(f"--spin/--k components must be finite, got {text!r}")
    return tuple(parts)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="Hopf-insulator invariants, preimage links and the "
                    "simulated adiabatic-tomography experiment",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    S = argparse.SUPPRESS

    def add(name, help_, **flags):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=S, help="JSON file with default flag values")
        p.add_argument("--out", default=S, help="output path")
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", default=S, **kw)
        return p

    add("field", "write the analytic ground-state field",
        h={"type": float, "required": True}, n={"type": int})
    add("index", "Hopf index report (with slice Chern numbers)",
        h={"type": float, "required": True}, n={"type": int})
    add("chern", "slice Chern numbers only",
        h={"type": float, "required": True}, n={"type": int})
    add("scaling", "Hopf-index deviation vs mesh size",
        h={"type": float, "action": "append", "required": True},
        n={"type": int, "action": "append"})
    add("texture", "spin texture export (csv or json)",
        h={"type": float, "required": True}, n={"type": int},
        format={"choices": ["json", "csv"]})
    add("preimage", "preimage loops of one spin target",
        h={"type": float, "required": True},
        spin={"action": "append", "required": True}, res={"type": int})
    add("neighborhood", "mesh sites within eps of a spin target",
        h={"type": float}, n={"type": int},
        spin={"action": "append", "required": True},
        eps={"type": float, "required": True},
        field={"dest": "field_path", "help": "use a saved field instead of the analytic one"})
    add("link", "pairwise linking numbers of preimage loops",
        h={"type": float, "required": True},
        spins={"help": "semicolon-separated targets 'x,y,z;x,y,z;...'"},
        spin={"action": "append"}, res={"type": int})
    add("adiabatic", "single-site passage: schedule, final state, fidelity",
        h={"type": float, "required": True},
        k={"required": True, "help": "momentum in units of 2*pi, e.g. 0.4,0.3,0.5"})
    add("campaign", "simulated tomography of a whole mesh",
        h={"type": float, "required": True}, n={"type": int},
        photons={"type": int}, seed={"type": int}, threads={"type": int})
    return parser


def _read_config(path):
    """The flag values held in a --config file; malformed content is a usage error."""
    with open(path) as fh:
        try:
            values = json.load(fh)
        except ValueError as err:
            raise UsageError(f"--config {path} is not valid JSON: {err}") from None
    if not isinstance(values, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    return values


def parse_config(argv):
    """argv -> validated RunConfig; config-file values are overridden by flags.

    A value set neither by a flag nor in the config file keeps its RunConfig
    default.
    """
    given = vars(_build_parser().parse_args(argv))
    if "config" in given:
        given = {**_read_config(given.pop("config")), **given}
    if "format" in given:
        given["fmt"] = given.pop("format")

    spins = []
    if given.get("spins"):
        spins += [_parse_vec(tok) for tok in str(given["spins"]).split(";") if tok]
    if given.get("spin"):
        raw = given["spin"]
        spins += [_parse_vec(t) for t in (raw if isinstance(raw, list) else [raw])]
    given["spins"] = spins
    if given.get("k"):
        given["k"] = _parse_vec(given["k"])
    for key in ("h", "n"):
        if key in given and not isinstance(given[key], list):
            given[key] = [given[key]]
    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in given.items() if k in names})
    cmd = cfg.subcommand

    if cmd in ("preimage", "neighborhood", "link") and not cfg.spins:
        raise UsageError(f"--spin is required for '{cmd}'")
    if cmd == "neighborhood" and not (cfg.h or cfg.field_path):
        raise UsageError("'neighborhood' needs --h (or --field)")

    # values from a config file arrive untyped
    try:
        for s in cfg.spins:
            preimage._unit_target(s)  # the engines' own rule for a spin target
        if cfg.eps is not None:
            if cmd != "neighborhood":
                raise UsageError(f"--eps is only valid for 'neighborhood', not '{cmd}'")
            if not 0 < cfg.eps <= 2:
                raise UsageError(f"--eps must be in (0, 2], got {cfg.eps}")
        cfg.h = [float(h) for h in cfg.h]
        for h in cfg.h:
            model.HopfParams(h)
            if cmd == "scaling":
                invariants.chi_infinity(h)  # no reference index at a phase transition
        cfg.n = [int(n) for n in cfg.n]
        for n in cfg.n:
            if n < 4:
                raise UsageError(f"--n must be >= 4, got {n}")
        cfg.res, cfg.photons, cfg.seed, cfg.threads = (
            int(cfg.res), int(cfg.photons), int(cfg.seed), int(cfg.threads))
        if cmd == "campaign":  # the experiment's photon and seed ranges
            adiabatic.split_photons(cfg.photons)
            adiabatic._stream_key(cfg.seed)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid value: {err}") from None
    if cmd in ("preimage", "link") and not 16 <= cfg.res <= 256:
        raise UsageError(f"--res must be in [16, 256], got {cfg.res}")
    if cfg.threads < 0:
        raise UsageError(f"--threads must be >= 0 (0: one per CPU), got {cfg.threads}")
    return cfg


# ---------------------------------------------------------------------------
# artifact I/O

def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _outpath(cfg, default_name):
    if cfg.out:
        return cfg.out
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


def _emit(cfg, name, doc):
    """Stamp ``doc`` and write it to --out, else to $HOPF_OUTPUT_DIR/name."""
    doc["generated_at"] = _timestamp()
    path = _outpath(cfg, name)
    write_json_atomic(path, doc)
    return path


def _htag(h):
    return str(h).replace("-", "m").replace(".", "p")


# ---------------------------------------------------------------------------
# subcommand implementations

def _analytic(cfg):
    return bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))

def _cmd_field(cfg):
    doc = bzgrid.field_to_dict(_analytic(cfg))
    return [_emit(cfg, f"field_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_index(cfg):
    doc = invariants.index_report(_analytic(cfg))
    return [_emit(cfg, f"index_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_chern(cfg):
    curv = invariants.berry_curvature(_analytic(cfg))
    doc = {"h": cfg.h[0], "n": cfg.n[0], "chern_numbers": invariants.chern_numbers(curv)}
    return [_emit(cfg, f"chern_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_scaling(cfg):
    rows = []
    for h in cfg.h:
        target = invariants.chi_infinity(h)
        for row in invariants.scaling_study(h, cfg.n):
            rows.append({"h": h, "n": row.n, "chi": row.chi,
                         "chi_infinity": target, "deviation": row.deviation})
    rows.sort(key=lambda r: (r["h"], r["n"]))
    return [_emit(cfg, "scaling.json", {"rows": rows})]

def _cmd_texture(cfg):
    rows = bzgrid.texture_rows(_analytic(cfg))
    name = f"texture_h{_htag(cfg.h[0])}_n{cfg.n[0]}"
    if cfg.fmt != "csv":
        doc = {"h": cfg.h[0], "n": cfg.n[0], "rows": rows.tolist(),
               "columns": _TEXTURE_COLUMNS}
        return [_emit(cfg, name + ".json", doc)]
    lines = [",".join(_TEXTURE_COLUMNS)]
    lines += [f"{int(r[0])},{int(r[1])},{int(r[2])},"
              f"{float(r[3])!r},{float(r[4])!r},{float(r[5])!r}" for r in rows]
    path = _outpath(cfg, name + ".csv")
    write_atomic(path, "\n".join(lines) + "\n")
    return [path]

def _cmd_preimage(cfg):
    params = model.HopfParams(cfg.h[0])
    paths = []
    for spin in cfg.spins:
        loops = preimage.preimage_contours(params, spin, res=cfg.res)
        doc = {"h": cfg.h[0], "target": list(spin), "res": cfg.res,
               "loops": [preimage.polyline_to_dict(c) for c in loops]}
        tag = "_".join(f"{x:+.2f}" for x in spin)
        spin_cfg = cfg
        if cfg.out and len(cfg.spins) > 1:
            base, ext = os.path.splitext(cfg.out)
            spin_cfg = replace(cfg, out=f"{base}_s{tag}{ext}")
        paths.append(_emit(spin_cfg, f"preimage_h{_htag(cfg.h[0])}_s{tag}.json", doc))
    return paths

def _cmd_neighborhood(cfg):
    if cfg.field_path:
        try:
            f = bzgrid.load_field(cfg.field_path)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise UsageError(
                f"--field {cfg.field_path} is not a field file: {err!r}") from None
    else:
        f = _analytic(cfg)
    spin = cfg.spins[0]
    sites = preimage.epsilon_neighborhood(f, spin, cfg.eps)
    doc = {"h": f.params.h, "n": f.n, "target": list(spin), "epsilon": cfg.eps,
           "sites": [{"site": list(site), "bloch": vec.tolist()} for site, vec in sites]}
    return [_emit(cfg, f"neighborhood_h{_htag(f.params.h)}_n{f.n}.json", doc)]

def _cmd_link(cfg):
    doc = preimage.link_matrix(model.HopfParams(cfg.h[0]), cfg.spins, res=cfg.res).to_dict()
    doc.update({"h": cfg.h[0], "res": cfg.res})
    return [_emit(cfg, f"link_h{_htag(cfg.h[0])}.json", doc)]

def _cmd_adiabatic(cfg):
    params = model.HopfParams(cfg.h[0])
    k = 2.0 * np.pi * np.asarray(cfg.k)
    schedule = adiabatic.build_schedule(k, params)
    final = adiabatic.evolve(schedule, np.array([1.0, 0.0], dtype=complex))
    doc = {
        "h": cfg.h[0],
        "k_over_2pi": list(cfg.k),
        "fidelity": adiabatic.fidelity(final, model.ground_state(k, params)),
        "final_state": [final[0].real, final[0].imag, final[1].real, final[1].imag],
        "schedule": asdict(schedule),
    }
    return [_emit(cfg, f"adiabatic_h{_htag(cfg.h[0])}.json", doc)]

def _cmd_campaign(cfg):
    result = adiabatic.run_campaign(
        model.HopfParams(cfg.h[0]),
        bzgrid.MeshSpec(cfg.n[0]),
        photons_per_site=cfg.photons,
        seed=cfg.seed,
        threads=cfg.threads,
    )
    stem = _outpath(cfg, f"campaign_h{_htag(cfg.h[0])}_n{cfg.n[0]}_seed{cfg.seed}")
    stem = stem.removesuffix(".json")
    stats_doc = result.stats.to_dict()
    stats_doc.update({"h": cfg.h[0], "n": cfg.n[0], "photons": cfg.photons, "seed": cfg.seed})
    docs = {".field.json": bzgrid.field_to_dict(result.field), ".stats.json": stats_doc}
    return [_emit(replace(cfg, out=stem + ext), None, doc) for ext, doc in docs.items()]


_COMMANDS = {
    "field": _cmd_field,
    "index": _cmd_index,
    "chern": _cmd_chern,
    "scaling": _cmd_scaling,
    "texture": _cmd_texture,
    "preimage": _cmd_preimage,
    "neighborhood": _cmd_neighborhood,
    "link": _cmd_link,
    "adiabatic": _cmd_adiabatic,
    "campaign": _cmd_campaign,
}


def _report(err):
    """Print a failure on stderr; return its exit status."""
    if isinstance(err, UsageError):
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if isinstance(err, OSError):
        print(json.dumps({"error": "IOError", "message": str(err)}), file=sys.stderr)
        return 3
    detail = {
        k: getattr(err, k)
        for k in ("site", "axis", "layer", "flux", "k", "windings")
        if getattr(err, k, None) is not None
    }
    doc = {"error": type(err).__name__, "message": str(err)}
    if detail:
        doc["detail"] = {k: np.asarray(v).tolist() for k, v in detail.items()}
    print(json.dumps(doc), file=sys.stderr)
    return 1


def dispatch(cfg):
    """Run the configured engine; writes artifacts, returns the exit status."""
    try:
        paths = _COMMANDS[cfg.subcommand](cfg)
    except (HopfError, OSError) as err:
        return _report(err)
    for p in paths:
        print(p)
    return 0


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except (UsageError, OSError) as err:
        return _report(err)
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
