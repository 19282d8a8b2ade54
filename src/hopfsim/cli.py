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
from dataclasses import asdict, dataclass, field as dc_field, replace
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
    except ValueError:
        raise UsageError(f"--spin/--k expects 'x,y,z', got {text!r}")
    if len(parts) != 3:
        raise UsageError(f"--spin/--k expects 3 components, got {text!r}")
    if not np.isfinite(parts).all():
        raise UsageError(f"--spin/--k components must be finite, got {text!r}")
    return tuple(parts)


# name -> (handler, help, needs, flags) in ``hopf --help`` order; ``needs`` are the flags
# argv or --config must give ("a|b": either), ``flags`` add_argument's keywords.
_COMMANDS = {}
_FLOAT, _INT = {"type": float}, {"type": int}
_JSON_TYPES = {int: (int, float), float: (int, float), None: (str,)}  # a bool is none


def _command(help_, needs="h", **flags):
    def register(run):
        _COMMANDS[run.__name__.removeprefix("_cmd_")] = run, help_, needs.split(), flags
        return run
    return register


def _build_parser():
    """The hopf parser, and each subcommand's argparse actions by flag name."""
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="Hopf-insulator invariants, preimage links and the "
                    "simulated adiabatic-tomography experiment",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    actions = {}
    for name, (_, help_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        flags = {"config": {"help": "JSON file with default flag values"},
                 "out": {"help": "output path"}, **flags}
        actions[name] = {flag: p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **kw)
                         for flag, kw in flags.items()}
    return parser, actions


def _config_value(key, action, value):
    """A config file's ``value`` for ``--key`` as the flag's type and choices
    take it: an int flag takes a float only if it is integral."""
    ok = type(value) in _JSON_TYPES[action.type] and (action.type is not int or value % 1 == 0)
    try:
        value = (action.type or str)(value) if ok else value
    except OverflowError:  # an int beyond the largest float
        ok = False
    if not ok or action.choices is not None and value not in action.choices:
        takes = action.choices or (action.type or str).__name__
        raise UsageError(f"--config key {key!r} takes {takes}, got {value!r}")
    return value


def _merge_config(path, parser, actions, ns):
    """Pass each value of the --config file to its flag's action, unless argv
    gave the flag. A list holds a repeatable flag's values; keys of another
    subcommand's flags are ignored, and a key no subcommand has is refused."""
    with open(path) as fh:
        try:
            values = json.load(fh)
        except ValueError as err:
            raise UsageError(f"--config {path} is not valid JSON: {err}") from None
    if not isinstance(values, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    known = set().union(*actions.values()) - {"config"}
    own, flags = actions[ns.subcommand], _COMMANDS[ns.subcommand][3]
    for key, value in values.items():
        if key not in known:
            raise UsageError(f"--config {path}: no subcommand has a flag --{key}")
        action = own.get(key)
        if action is None:  # another subcommand's flag
            continue
        repeat = flags.get(key, {}).get("action") == "append"
        items = [_config_value(key, action, item)
                 for item in (value if repeat and type(value) is list else [value])]
        if action.dest not in ns:  # argv did not give it (no two flags share a dest)
            for item in items:
                action(parser, ns, item, f"--{key}")


def parse_config(argv):
    """argv -> RunConfig; config-file values are overridden by flags.

    A config value goes through its flag's argparse action (_merge_config);
    a value set neither way keeps its RunConfig default. Only the command
    line's own rules are checked here: each engine refuses a value outside
    its range, with ``UsageError``, when the command starts.
    """
    parser, actions = _build_parser()
    ns = parser.parse_args(argv)
    given, cmd = vars(ns), ns.subcommand  # given is ns's own dict
    if "config" in given:
        _merge_config(given.pop("config"), parser, actions, ns)
    for need in _COMMANDS[cmd][2]:
        flags = need.split("|")
        if not any(actions[cmd][flag].dest in given for flag in flags):
            raise UsageError(f"'{cmd}' needs " + " or ".join(f"--{flag}" for flag in flags))
    if "field_path" in given and given.keys() & {"h", "n"}:
        raise UsageError("--field gives h and n; it cannot go with --h or --n")
    if given.get("out") == "":
        raise UsageError("--out needs a path, got ''")

    text = given.pop("spins", None)
    spins = [_parse_vec(tok) for tok in (text or "").split(";") if tok]
    if text is not None and not spins:
        raise UsageError(f"--spins expects 'x,y,z;x,y,z;...', got {text!r}")
    given["spins"] = spins + [_parse_vec(t) for t in given.pop("spin", [])]
    if "k" in given:
        given["k"] = _parse_vec(given["k"])
    for key in ("h", "n"):
        if key in given and not isinstance(given[key], list):
            given[key] = [given[key]]
    cfg = RunConfig(**given)
    if cmd == "campaign" and "photons" not in given:
        from . import adiabatic

        cfg.photons = adiabatic.DEFAULT_PHOTONS
    if cmd == "neighborhood" and len(cfg.spins) > 1:
        raise UsageError(f"'neighborhood' takes one --spin, got {len(cfg.spins)}")
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

@_command("write the analytic ground-state field", h=_FLOAT, n=_INT)
def _cmd_field(cfg):
    from . import bzgrid

    doc = bzgrid.field_to_dict(_analytic(cfg))
    return [_emit(cfg, f"field_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

@_command("Hopf index report (with slice Chern numbers)", h=_FLOAT, n=_INT)
def _cmd_index(cfg):
    from . import invariants

    doc = invariants.index_report(_analytic(cfg))
    return [_emit(cfg, f"index_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

@_command("slice Chern numbers only", h=_FLOAT, n=_INT)
def _cmd_chern(cfg):
    from . import invariants

    curv = invariants.berry_curvature(_analytic(cfg))
    doc = {"h": cfg.h[0], "n": cfg.n[0], "chern_numbers": invariants.chern_numbers(curv)}
    return [_emit(cfg, f"chern_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json", doc)]

@_command("Hopf-index deviation vs mesh size",
          h={"type": float, "action": "append"}, n={"type": int, "action": "append"})
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

@_command("spin texture export (csv or json)", h=_FLOAT, n=_INT,
          format={"choices": ["json", "csv"], "dest": "fmt"})
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

@_command("preimage loops of one spin target", needs="h spin",
          h=_FLOAT, spin={"action": "append"}, res=_INT)
def _cmd_preimage(cfg):
    from . import preimage

    paths = []
    for spin in cfg.spins:
        tag = "_".join(f"{x:+.2f}" for x in spin)
        if cfg.out and len(cfg.spins) > 1:
            base, ext = os.path.splitext(cfg.out)
            path = f"{base}_s{tag}{ext}"
        else:
            path = _outpath(cfg, f"preimage_h{_htag(cfg.h[0])}_s{tag}.json")
        if path in paths:  # the tags round each component to 2 decimals
            raise UsageError(f"two --spin targets would both be written to {path}")
        paths.append(path)
    # one pass over the grid's planes marches every spin
    loops_per_spin = preimage.refined_preimage(model.HopfParams(cfg.h[0]), cfg.spins, cfg.res)
    for spin, loops, path in zip(cfg.spins, loops_per_spin, paths):
        doc = {"h": cfg.h[0], "target": list(spin), "res": cfg.res,
               "loops": [preimage.polyline_to_dict(c) for c in loops]}
        _emit(replace(cfg, out=path), None, doc)
    return paths

@_command("mesh sites within eps of a spin target", needs="spin eps h|field",
          h=_FLOAT, n=_INT, spin={"action": "append"}, eps=_FLOAT,
          field={"dest": "field_path", "help": "use a saved field instead of the analytic one"})
def _cmd_neighborhood(cfg):
    from . import bzgrid, preimage

    spin = cfg.spins[0]
    preimage._check_neighborhood(spin, cfg.eps)  # before a field is read or sampled
    if cfg.field_path is not None:
        try:
            f = bzgrid.load_field(cfg.field_path)
        except ValueError as err:
            raise UsageError(
                f"--field {cfg.field_path} is not a field file: {err!r}") from None
    else:
        f = _analytic(cfg)
    sites = preimage.epsilon_neighborhood(f, spin, cfg.eps)
    doc = {"h": f.params.h, "n": f.n, "target": list(spin), "epsilon": cfg.eps,
           "sites": [{"site": list(site), "bloch": vec.tolist()} for site, vec in sites]}
    return [_emit(cfg, f"neighborhood_h{_htag(f.params.h)}_n{f.n}.json", doc)]

@_command("pairwise linking numbers of preimage loops", needs="h spins|spin",
          h=_FLOAT, spins={"help": "semicolon-separated targets 'x,y,z;x,y,z;...'"},
          spin={"action": "append"}, res=_INT)
def _cmd_link(cfg):
    from . import preimage

    doc = preimage.link_matrix(model.HopfParams(cfg.h[0]), cfg.spins, res=cfg.res).to_dict()
    doc.update({"h": cfg.h[0], "res": cfg.res})
    return [_emit(cfg, f"link_h{_htag(cfg.h[0])}.json", doc)]

@_command("single-site passage: schedule, final state, fidelity", needs="h k",
          h=_FLOAT, k={"help": "momentum in units of 2*pi, e.g. 0.4,0.3,0.5"})
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

@_command("simulated tomography of a whole mesh", h=_FLOAT, n=_INT,
          photons=_INT, seed=_INT, threads=_INT)
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
        paths = _COMMANDS[cfg.subcommand][0](cfg)
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
