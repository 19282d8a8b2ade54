"""Command-line front end: ``hopf <subcommand>``.

Subcommands cover the whole pipeline: analytic fields (field, texture),
invariants (index, chern, scaling), preimage loops and links (preimage,
neighborhood, link) and the simulated experiment (adiabatic, campaign).
Artifacts are JSON (CSV for spin textures), written atomically, and carry a
``generated_at`` timestamp; reruns with equal configuration are otherwise
byte-identical.

Exit statuses: 0 success, 1 engine error or a mesh too large for memory
(machine-readable JSON on stderr), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from datetime import datetime, timezone
from itertools import chain

import numpy as np

# the engines are imported by the commands that run them
from . import model
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
    photons: int | None = None  # campaign: adiabatic.DEFAULT_PHOTONS
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
    """argv -> RunConfig; config-file values are overridden by flags.

    A value set neither by a flag nor in the config file keeps its RunConfig
    default.  Only the rules of the command line itself are checked here; a
    value outside the range of the engine that takes it is refused by that
    engine, with ``UsageError``, when the command starts.
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
    if cmd == "campaign" and "photons" not in given:
        from . import adiabatic

        cfg.photons = adiabatic.DEFAULT_PHOTONS

    if cmd in ("preimage", "neighborhood", "link") and not cfg.spins:
        raise UsageError(f"--spin is required for '{cmd}'")
    if cmd == "neighborhood" and len(cfg.spins) > 1:
        raise UsageError(f"'neighborhood' takes one --spin, got {len(cfg.spins)}")
    if cmd == "neighborhood" and not (cfg.h or cfg.field_path):
        raise UsageError("'neighborhood' needs --h (or --field)")
    if cfg.eps is not None and cmd != "neighborhood":
        raise UsageError(f"--eps is only valid for 'neighborhood', not '{cmd}'")

    # values from a config file arrive untyped
    try:
        cfg.h = [float(h) for h in cfg.h]
        cfg.n = [int(n) for n in cfg.n]
        cfg.res, cfg.seed, cfg.threads = int(cfg.res), int(cfg.seed), int(cfg.threads)
        if "photons" in given:
            cfg.photons = int(cfg.photons)
        if cfg.eps is not None:
            cfg.eps = float(cfg.eps)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid value: {err}") from None
    return cfg


# ---------------------------------------------------------------------------
# artifact I/O

def _timestamp():
    return datetime.now(timezone.utc).isoformat()


_WRITE_SLICE = 1 << 16  # characters per write of write_atomic


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in its directory.

    The file gets the mode ``open(path, "w")`` would give it (0o666 less the
    umask). If anything fails, the temporary file is removed and an existing
    ``path`` is left as it was. The text is written in slices, so the file's
    encoder never holds an encoded copy of the whole of it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start:start + _WRITE_SLICE])
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Artifact JSON is json.dumps(obj, sort_keys=True, indent=1). json runs its C
# encoder only without indent, so lists of numbers -- the rows of a field or
# a texture -- are written from their Python repr, a block of rows at a time.
# A 2-D float array is written as the list of its rows, which it converts a
# block at a time, so the whole nested list never exists.
_NUMBER_TYPES = {float, int}
_ROW_BLOCK = 2048


def _rows_text(rows, item_sep, row_sep):
    """Non-empty lists of numbers as their reprs, items and rows joined by
    the separators (numbers' reprs hold no ', ' and no brackets)."""
    return repr(rows)[2:-2].replace(", ", item_sep).replace("]" + item_sep + "[", row_sep)


def _number_block(items, indent):
    """json's text of ``items`` as list entries at ``indent`` spaces, joined
    by its separator; None unless the items are all numbers or all
    non-empty lists of numbers, a number being an int or a finite float of
    exactly that type."""
    kinds = set(map(type, items))
    pad = "\n" + " " * indent
    if kinds <= _NUMBER_TYPES:
        text = repr(items)[1:-1].replace(", ", "," + pad)
    elif (kinds == {list} and all(items)
          and set(map(type, chain.from_iterable(items))) <= _NUMBER_TYPES):
        inner = pad + " "
        rows = _rows_text(items, "," + inner, pad + "]," + pad + "[" + inner)
        text = "[" + inner + rows + pad + "]"
    else:
        return None
    return None if "n" in text else text  # nan, inf: json writes NaN, Infinity


def _encode(obj, out, depth):
    close = "\n" + " " * depth
    pad = close + " "
    array = type(obj) is np.ndarray and obj.ndim == 2 and obj.dtype.kind == "f"
    if type(obj) is dict and obj:
        sep = "{" + pad
        for key, value in sorted(obj.items()):  # json's order
            out.append(sep + json.dumps({key: None})[1:-7] + ": ")  # json's key text
            _encode(value, out, depth + 1)
            sep = "," + pad
        out.append(close + "}")
    elif (type(obj) is list or array) and len(obj):
        sep = "[" + pad
        for start in range(0, len(obj), _ROW_BLOCK):
            block = obj[start:start + _ROW_BLOCK]
            if array:
                block = block.tolist()
            text = _number_block(block, depth + 1)
            if text is not None:
                out.append(sep + text)
                sep = "," + pad
            else:
                for item in block:
                    out.append(sep)
                    _encode(item, out, depth + 1)
                    sep = "," + pad
        out.append(close + "]")
    else:
        if array:
            obj = obj.tolist()  # no rows
        out.append(json.dumps(obj, sort_keys=True, indent=1).replace("\n", close))


def dumps(obj):
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, with a
    2-D float ``ndarray`` anywhere in ``obj`` taken as its ``.tolist()``."""
    return "".join(_pieces(obj))


def _pieces(obj):
    out = []
    _encode(obj, out, 0)
    return out


def write_json_atomic(path, obj):
    """Write ``dumps(obj)`` and a newline to ``path``, joined once."""
    write_atomic(path, "".join(_pieces(obj) + ["\n"]))


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
    from . import bzgrid

    return bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))

def _cmd_field(cfg):
    from . import bzgrid

    doc = bzgrid.field_to_dict(_analytic(cfg))
    return [_emit(cfg, f"field_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_index(cfg):
    from . import invariants

    doc = invariants.index_report(_analytic(cfg))
    return [_emit(cfg, f"index_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_chern(cfg):
    from . import invariants

    curv = invariants.berry_curvature(_analytic(cfg))
    doc = {"h": cfg.h[0], "n": cfg.n[0], "chern_numbers": invariants.chern_numbers(curv)}
    return [_emit(cfg, f"chern_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

def _cmd_scaling(cfg):
    from . import invariants

    for h in cfg.h:  # every h is refused, if at all, before anything is sampled
        model.HopfParams(h)
    targets = [invariants.chi_infinity(h) for h in cfg.h]
    rows = []
    for h, target in zip(cfg.h, targets):
        for row in invariants.scaling_study(h, cfg.n):
            rows.append({"h": h, "n": row.n, "chi": row.chi,
                         "chi_infinity": target, "deviation": row.deviation})
    rows.sort(key=lambda r: (r["h"], r["n"]))
    return [_emit(cfg, "scaling.json", {"rows": rows})]

def _cmd_texture(cfg):
    from . import bzgrid

    rows = bzgrid.texture_rows(_analytic(cfg))
    name = f"texture_h{_htag(cfg.h[0])}_n{cfg.n[0]}"
    if cfg.fmt != "csv":
        doc = {"h": cfg.h[0], "n": cfg.n[0], "rows": rows, "columns": _TEXTURE_COLUMNS}
        return [_emit(cfg, name + ".json", doc)]
    body = [",".join(_TEXTURE_COLUMNS)]
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        lines = [site + spin for site, spin in
                 zip(block[:, :3].astype(int).tolist(), block[:, 3:].tolist())]
        body.append(_rows_text(lines, ",", "\n"))
    body.append("")  # the final newline
    path = _outpath(cfg, name + ".csv")
    write_atomic(path, "\n".join(body))
    return [path]

def _cmd_preimage(cfg):
    from . import preimage

    # one pass over the grid's planes marches every spin
    loops_per_spin = preimage.refined_preimage(model.HopfParams(cfg.h[0]), cfg.spins, cfg.res)
    paths = []
    for spin, loops in zip(cfg.spins, loops_per_spin):
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
    from . import bzgrid, preimage

    spin = cfg.spins[0]
    preimage._check_neighborhood(spin, cfg.eps)  # before a field is read or sampled
    if cfg.field_path:
        try:
            f = bzgrid.load_field(cfg.field_path)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise UsageError(
                f"--field {cfg.field_path} is not a field file: {err!r}") from None
    else:
        f = _analytic(cfg)
    sites = preimage.epsilon_neighborhood(f, spin, cfg.eps)
    doc = {"h": f.params.h, "n": f.n, "target": list(spin), "epsilon": cfg.eps,
           "sites": [{"site": list(site), "bloch": vec.tolist()} for site, vec in sites]}
    return [_emit(cfg, f"neighborhood_h{_htag(f.params.h)}_n{f.n}.json", doc)]

def _cmd_link(cfg):
    from . import preimage

    doc = preimage.link_matrix(model.HopfParams(cfg.h[0]), cfg.spins, res=cfg.res).to_dict()
    doc.update({"h": cfg.h[0], "res": cfg.res})
    return [_emit(cfg, f"link_h{_htag(cfg.h[0])}.json", doc)]

def _cmd_adiabatic(cfg):
    from . import adiabatic

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
    from . import adiabatic, bzgrid

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
    detail = {}
    if isinstance(err, HopfError):  # the attributes it sets: GaplessPoint's site and k, ...
        detail = {k: v for k, v in vars(err).items() if v is not None}
    # numpy raises a private MemoryError subclass; report the public name
    name = "MemoryError" if isinstance(err, MemoryError) else type(err).__name__
    doc = {"error": name, "message": str(err)}
    if detail:
        doc["detail"] = {k: np.asarray(v).tolist() for k, v in detail.items()}
    print(json.dumps(doc), file=sys.stderr)
    return 1


def dispatch(cfg):
    """Run the configured engine; writes artifacts, returns the exit status."""
    try:
        paths = _COMMANDS[cfg.subcommand](cfg)
    except (HopfError, OSError, MemoryError) as err:
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
