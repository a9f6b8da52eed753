"""Command-line driver: verification, fiber reports, scans, twists.

Reports are written to standard output (JSON by default, CSV for tabular
results on request); diagnostics go to standard error.  Exit codes:
0 success, 1 a mathematical verification failed, 2 malformed input.

File formats are the JSON schemas of the owning modules: restricted Lie
algebras and Hopf algebras use their to_json layout, cocycles embed their
Hopf algebra and target ring, and a splitting file has the keys
"alg", "hopf", "coaction", "gamma", the last two as whole (..., k)
coefficient arrays.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import fdalg, resliealg
from .errors import HopfgalError, NoOneDimRep
from .exactfield import K_MAX, Field
from .fdalg import SCAlgebra, decode_array, form_is_symmetric, form_rank
from .galois import (
    ComoduleAlgebra,
    Cocycle,
    Splitting,
    cocycle_verify,
    find_one_dim_rep,
    is_equivariant_splitting,
    twisted_product,
    winding_iso,
)
from .hopf import HopfAlgebra, LinMap, hopf_verify
from .resliealg import (
    Fiber,
    FiberPoint,
    RestrictedLie,
    chi_convention,
    restricted_verify,
)
from . import speclab


# the largest dim_cap a configuration may set: the exactness bounds of the
# field kernels and the allocation guards assume dimensions up to 512
MAX_DIM_CAP = 512


@dataclass
class Config:
    eq3_convention: str = "paper"       # or "standard"
    dim_cap: int = MAX_DIM_CAP
    output: str = "json"                # or "csv"
    splitting_degree_cap: int = 12

    @classmethod
    def load(cls, path: str | None) -> "Config":
        data = {}
        if path is not None:
            with open(path) as fh:
                data = json.load(fh)
        return cls.from_json(data)

    @classmethod
    def from_json(cls, data) -> "Config":
        if not isinstance(data, dict):
            raise ValueError("a configuration is a JSON object")
        cfg = cls()
        for key, value in data.items():
            name = key.replace("-", "_")
            if not hasattr(cfg, name):
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, name, value)
        for name in ("dim_cap", "splitting_degree_cap"):
            value = getattr(cfg, name)
            # bool is a subclass of int but not a cap
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= cfg.dim_cap <= MAX_DIM_CAP:
            raise ValueError(
                f"dim_cap must lie in 1..{MAX_DIM_CAP}, got {cfg.dim_cap}")
        if not 1 <= cfg.splitting_degree_cap <= K_MAX:
            raise ValueError(f"splitting_degree_cap must lie in 1..{K_MAX}, "
                             f"got {cfg.splitting_degree_cap}")
        if cfg.eq3_convention not in ("paper", "standard"):
            raise ValueError(
                f"eq3_convention must be paper or standard, "
                f"got {cfg.eq3_convention!r}")
        if cfg.output not in ("json", "csv"):
            raise ValueError(f"output must be json or csv, got {cfg.output!r}")
        return cfg

    def apply_caps(self):
        fdalg.DIM_CAP = self.dim_cap
        resliealg.DIM_CAP = self.dim_cap
        fdalg.SPLITTING_DEGREE_CAP = self.splitting_degree_cap


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _load(path: str, what: str, parse):
    """parse() of the JSON in a file ("-" is standard input); an unreadable
    or malformed file exits with code 2."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
        return parse(data)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail2(f"cannot read {what} from {path}: {exc}"))
    except (KeyError, ValueError, TypeError, HopfgalError) as exc:
        raise SystemExit(_fail2(f"bad {what} description in {path}: {exc}"))


def _fail2(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_field(text: str) -> Field:
    try:
        if "^" in text:
            p, k = text.split("^", 1)
            return Field(int(p), int(k))
        return Field(int(text))
    except (ValueError, HopfgalError) as exc:
        raise SystemExit(_fail2(f"bad field specification {text!r}: {exc}"))


def _parse_lambda(text: str, field: Field):
    """Comma-separated coordinates; each is an integer or a colon-joined
    coefficient vector over the prime field."""
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ":" in part:
                values.append(field.scalar(tuple(int(c)
                                                 for c in part.split(":"))))
            else:
                values.append(field.scalar(int(part)))
        except (ValueError, HopfgalError) as exc:
            raise SystemExit(
                _fail2(f"bad lambda coordinate {part!r}: {exc}"))
    return values


def _load_lie(path: str | None) -> RestrictedLie:
    return _load(path or "-", "Lie algebra", RestrictedLie.from_json)


def _fiber_point(args, L: RestrictedLie):
    field = _parse_field(args.field) if args.field else Field(L.p)
    if field.p != L.p:
        raise SystemExit(_fail2(
            f"field characteristic {field.p} does not match p = {L.p}"))
    values = _parse_lambda(args.lam, field)
    if len(values) != L.dim:
        raise SystemExit(_fail2(
            f"lambda has {len(values)} coordinates, the Lie algebra "
            f"has dimension {L.dim}"))
    if getattr(args, "chi", False):
        return chi_convention(field, values), field
    return FiberPoint(field, tuple(values)), field


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_hopf(args, cfg: Config) -> int:
    H = _load(args.file, "Hopf algebra", HopfAlgebra.from_json)
    issues = hopf_verify(H)
    _emit({"operation": "verify-hopf", "ok": not issues, "issues": issues})
    return 0 if not issues else 1


def cmd_verify_lie(args, cfg: Config) -> int:
    L = _load_lie(args.file)
    issues = restricted_verify(L)
    _emit({"operation": "verify-lie", "ok": not issues, "issues": issues})
    return 0 if not issues else 1


def cmd_fiber(args, cfg: Config) -> int:
    L = _load_lie(args.lie)
    point, field = _fiber_point(args, L)
    report = speclab.fiber_report(L, point)
    if cfg.output == "csv":
        _emit_csv([report])
    else:
        _emit(report.to_json())
    return 0


def _emit_csv(reports):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(speclab.REPORT_FIELDS)
    for r in reports:
        writer.writerow(r.csv_row())
    sys.stdout.write(out.getvalue())


def cmd_scan(args, cfg: Config) -> int:
    L = _load_lie(args.lie)
    field = _parse_field(args.field)
    if field.p != L.p:
        return _fail2(f"field characteristic {field.p} does not match "
                      f"p = {L.p}")
    points = None
    if args.points:
        points = _load(args.points, "point list",
                       lambda raw: _parse_points(raw, field, L.dim))
    result = speclab.scan(L, field, points=points)
    if cfg.output == "csv":
        _emit_csv(result.reports)
    else:
        _emit(result.to_json())
    return 0


def _parse_points(raw, field: Field, n: int):
    """Points as lists of n coordinates, each an integer or a list of
    integer coefficients."""
    def coord(c):
        if type(c) is int or (isinstance(c, list) and all(
                type(x) is int for x in c)):
            return field.scalar(c)
        raise ValueError(f"coordinate {c!r} is not an integer or a "
                         "coefficient list")

    if not isinstance(raw, list) or any(
            not isinstance(row, list) or len(row) != n for row in raw):
        raise ValueError(f"points must be a list of lists of {n} coordinates")
    return [tuple(coord(c) for c in row) for row in raw]


def cmd_twist(args, cfg: Config) -> int:
    sig = _load(args.cocycle, "cocycle", Cocycle.from_json)
    if args.hopf:
        H = _load(args.hopf, "Hopf algebra", HopfAlgebra.from_json)
        if H.dim != sig.hopf.dim or H.field != sig.hopf.field:
            return _fail2("the --hopf file does not match the cocycle's "
                          "Hopf algebra")
    ring = sig.target
    if args.ring:
        ring = _load(args.ring, "coefficient ring", SCAlgebra.from_json)
        if ring.dim != sig.target.dim or ring.field != sig.target.field:
            return _fail2("the --ring file does not match the cocycle's "
                          "target ring")
    try:
        A = twisted_product(ring, sig, convention=cfg.eq3_convention)
    except HopfgalError as exc:
        print(f"twist failed: {exc}", file=sys.stderr)
        _emit({"operation": "twist", "ok": False, "reason": str(exc)})
        return 1
    _emit({"operation": "twist", "ok": True, "algebra": A.to_json()})
    return 0


def cmd_cocycle_check(args, cfg: Config) -> int:
    sig = _load(args.file, "cocycle", Cocycle.from_json)
    issues = cocycle_verify(sig, convention=cfg.eq3_convention)
    _emit({"operation": "cocycle-check", "ok": not issues,
           "convention": cfg.eq3_convention, "issues": issues})
    return 0 if not issues else 1


def _parse_splitting(data) -> Splitting:
    alg = SCAlgebra.from_json(data["alg"])
    H = HopfAlgebra.from_json(data["hopf"])
    f, nA, nH = alg.field, alg.dim, H.dim
    # coaction and gamma are whole (..., k) arrays: integer leaves for any k
    prime = Field(f.p)
    rho = decode_array(prime, data["coaction"], (nA, nA, nH, f.k), "coaction")
    gamma = decode_array(prime, data["gamma"], (nH, nA, f.k), "gamma")
    CA = ComoduleAlgebra(alg, H, rho[..., 0])
    return Splitting(CA, LinMap(f, gamma[..., 0]))


def cmd_equivariant_check(args, cfg: Config) -> int:
    sp = _load(args.splitting, "splitting", _parse_splitting)
    flag = is_equivariant_splitting(sp)
    _emit({"operation": "equivariant-check", "equivariant": bool(flag)})
    return 0 if flag else 1


def cmd_frobenius(args, cfg: Config) -> int:
    L = _load_lie(args.lie)
    point, field = _fiber_point(args, L)
    F = Fiber(L, point)
    s = speclab.fiber_frobenius_form(F)
    rank, nondeg = form_rank(s)
    _emit({"operation": "frobenius", "dim": F.dim, "rank": rank,
           "nondegenerate": nondeg, "symmetric": form_is_symmetric(s)})
    return 0 if nondeg else 1


def cmd_winding(args, cfg: Config) -> int:
    L = _load_lie(args.lie)
    point, field = _fiber_point(args, L)
    F = Fiber(L, point)
    try:
        alpha = find_one_dim_rep(F)
        W = winding_iso(F, alpha)
    except NoOneDimRep as exc:
        print(f"winding: {exc}", file=sys.stderr)
        _emit({"operation": "winding", "one_dim_rep": False,
               "reason": str(exc)})
        return 1
    _emit({"operation": "winding", "one_dim_rep": True,
           "alpha": [list(a.coeffs) for a in alpha],
           "matrix": W.matrix.reshape(F.dim, -1).tolist()})
    return 0


def cmd_builtin(args, cfg: Config) -> int:
    try:
        if args.name == "sl2":
            L = speclab.sl2_algebra(args.p)
        else:
            L = speclab.borel_algebra(args.p)
    except HopfgalError as exc:
        return _fail2(f"builtin {args.name} with p={args.p}: {exc}")
    _emit(L.to_json())
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact computations with Hopf algebra extensions and "
                    "restricted Lie algebra fibers.")
    top.add_argument("--config", help="JSON configuration file")
    top.add_argument("--eq3-convention", choices=("paper", "standard"),
                     help="which twisted-product convention to use")
    top.add_argument("--output", choices=("json", "csv"),
                     help="report format")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-hopf", help="check the Hopf algebra axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_hopf)

    p = sub.add_parser("verify-lie", help="check the restricted Lie axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_lie)

    p = sub.add_parser("fiber", help="report on one reduced algebra")
    p.add_argument("--lie", help="Lie algebra file (default: stdin)")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated point coordinates")
    p.add_argument("--field", help="coefficient field, as p or p^k")
    p.add_argument("--chi", action="store_true",
                   help="interpret the coordinates through the classical "
                        "chi-parametrization")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("scan", help="fiber reports over many points")
    p.add_argument("--lie", help="Lie algebra file (default: stdin)")
    p.add_argument("--field", required=True, help="p or p^k")
    p.add_argument("--points", help="JSON file with a list of points")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("twist", help="build a twisted product")
    p.add_argument("--hopf", help="Hopf algebra file (consistency check)")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--ring", help="coefficient ring file (consistency check)")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("cocycle-check", help="verify the cocycle identities")
    p.add_argument("file")
    p.set_defaults(func=cmd_cocycle_check)

    p = sub.add_parser("equivariant-check",
                       help="test a splitting for equivariance")
    p.add_argument("--splitting", required=True)
    p.set_defaults(func=cmd_equivariant_check)

    p = sub.add_parser("frobenius", help="bilinear form of a fiber")
    p.add_argument("--lie", help="Lie algebra file (default: stdin)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--field", help="p or p^k")
    p.add_argument("--chi", action="store_true")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("winding", help="one-dimensional representations "
                                       "and the winding isomorphism")
    p.add_argument("--lie", help="Lie algebra file (default: stdin)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--field", help="p or p^k")
    p.add_argument("--chi", action="store_true")
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("builtin", help="emit a built-in Lie algebra")
    p.add_argument("name", choices=("sl2", "borel"))
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_builtin)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the caps are module globals: restore them on every exit path
    saved = fdalg.DIM_CAP, resliealg.DIM_CAP, fdalg.SPLITTING_DEGREE_CAP
    try:
        cfg = (_load(args.config, "configuration", Config.from_json)
               if args.config else Config())
        if args.eq3_convention:
            cfg.eq3_convention = args.eq3_convention
        if args.output:
            cfg.output = args.output
        cfg.apply_caps()
        return args.func(args, cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except HopfgalError as exc:
        return _fail2(f"{args.command}: {exc}")
    finally:
        fdalg.DIM_CAP, resliealg.DIM_CAP, fdalg.SPLITTING_DEGREE_CAP = saved


if __name__ == "__main__":
    sys.exit(main())
