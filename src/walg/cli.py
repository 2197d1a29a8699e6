"""walg command line: run verification pipelines, emit JSON reports.

    walg run --algebra sl3 --nilpotent minimal --ell lagrangian-auto \
             --max-degree 6 --checks theorem,poisson,cohomology --out report.json
    walg describe --algebra sl3 --nilpotent minimal

Exit code 0 iff every requested check passes, 1 if a check fails, 2 for
bad input and 3 for an internal error (a bug; the failing check's report
entry carries the traceback tail).  The JSON report has a stable field
order; the human-readable tables are rendered from the same data.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from walg import liealg, whittaker
from walg.context import SliceContext, build_context
from walg.errors import AmbientMismatch, ConfigError, WalgError
from walg.linalg import vec
from walg.whittaker import h_basis

CHECK_NAMES = ("structure", "decomposition", "theorem", "poisson",
               "cohomology", "whittaker", "center", "ell-independence")

#: innermost traceback frames kept in an internal-error report entry
TRACEBACK_FRAMES = 5

_SLN = re.compile(r"^sl(\d+)$")
_PARTITION = re.compile(r"^\[\s*\d+\s*(,\s*\d+\s*)*\]$")


class JobConfig:
    def __init__(self, algebra: str, nilpotent: Optional[str] = None,
                 ell: str = "zero", max_degree: int = 6,
                 checks: Sequence[str] = ("structure", "decomposition", "theorem"),
                 degree_overrides: Optional[dict] = None):
        self.algebra = algebra
        self.nilpotent = nilpotent
        self.ell = ell
        self.max_degree = max_degree
        self.checks: List[str] = list(checks)
        self.degree_overrides = {} if degree_overrides is None else degree_overrides

    @classmethod
    def parse_checks(cls, text: str):
        """Split 'theorem,whittaker:4' into names and degree overrides."""
        names, overrides = [], {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, deg = chunk.partition(":")
            names.append(name)
            if deg:
                try:
                    overrides[name] = int(deg)
                except ValueError as exc:
                    raise ConfigError(f"bad degree override '{chunk}'") from exc
        return names, overrides

    def check_degree(self, name: str) -> int:
        return self.degree_overrides.get(name, self.max_degree)

    def validate(self):
        if self.max_degree < 0:
            raise ConfigError("max-degree must be >= 0")
        if not self.checks:
            raise ConfigError("no checks requested")
        for k, name in enumerate(self.checks):
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown check '{name}'; "
                                  f"choose from {', '.join(CHECK_NAMES)}")
            if name in self.checks[:k]:
                raise ConfigError(f"check '{name}' is given more than once")
        for name, deg in self.degree_overrides.items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"degree override for unknown check '{name}'")
            if not 0 <= deg <= self.max_degree:
                raise ConfigError(
                    f"degree override {name}:{deg} outside [0, {self.max_degree}]"
                    " (max_degree is a ceiling)")


def _parse_vectors(rows, dim: int, what: str):
    """Each row of rationals (numbers or "p/q" strings) as a vector of length
    dim; a malformed row is a ConfigError."""
    try:
        return [vec([Fraction(str(x)) for x in row], dim) for row in rows]
    except (ValueError, ZeroDivisionError, TypeError, AmbientMismatch) as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from exc


class Case:
    """Algebra + triple + ell resolved from a JobConfig, with lazy products."""

    def __init__(self, config: JobConfig):
        self.config = config
        self.lie, extras = self._load_algebra(config.algebra)
        self.nilpotent_name, triple_vectors = self._resolve_nilpotent(
            config.nilpotent, extras)
        e, h, f = triple_vectors
        ell = config.ell
        if ell == "file":
            if "ell" not in extras:
                raise ConfigError("--ell file needs an algebra file with an "
                                  "'ell' entry")
            ell_vectors = _parse_vectors(extras["ell"], self.lie.dim,
                                         "ell of the algebra file")
            self.sctx = build_context(self.lie, e, ell_vectors, h=h, f=f)
        elif ell in ("zero", "lagrangian-auto"):
            self.sctx = build_context(self.lie, e, ell, h=h, f=f)
        else:
            # semicolon-separated vectors of comma-separated rationals
            rows = [chunk.split(",") for chunk in ell.split(";") if chunk.strip()]
            self.sctx = build_context(
                self.lie, e, _parse_vectors(rows, self.lie.dim, f"ell '{ell}'"),
                h=h, f=f)
        self._hb = {}

    def _load_algebra(self, name: str):
        m = _SLN.match(name)
        if m:
            n = int(m.group(1))
            if n < 2:
                raise ConfigError("sl_n needs n >= 2")
            return liealg.make_sln(n), {}
        if os.path.exists(name):
            return liealg.load_algebra_file(name)
        raise ConfigError(f"unknown algebra '{name}' (builtin slN or a JSON file)")

    def _resolve_nilpotent(self, spec: Optional[str], extras: dict):
        """(name, (e, h, f)); h and f are None where `build_context` is to
        complete e by the Jacobson-Morozov solver."""
        m = _SLN.match(self.config.algebra)
        n = int(m.group(1)) if m else None
        if spec is None:
            if "nilpotent" in extras:
                e, = _parse_vectors([extras["nilpotent"]], self.lie.dim,
                                    "nilpotent of the algebra file")
                return "file", (e, None, None)
            raise ConfigError("no nilpotent given (flag or input file)")
        if n is None and (spec in ("regular", "minimal") or _PARTITION.match(spec)):
            raise ConfigError(f"nilpotent '{spec}' needs a builtin slN algebra; "
                              "a file algebra takes comma-separated coordinates")
        if spec == "regular":
            return "regular", liealg.partition_triple(n, [n])
        if spec == "minimal":
            return "minimal", liealg.highest_root_triple(n)
        if _PARTITION.match(spec):
            parts = [int(x) for x in spec.strip("[] ").split(",")]
            return spec, liealg.partition_triple(n, parts)
        e, = _parse_vectors([spec.split(",")], self.lie.dim,
                            f"nilpotent '{spec}'")
        return "vector", (e, None, None)

    def hb_at(self, n: int):
        """`h_basis(n, sctx)`, built once per degree: a `WalgError` it
        raised is kept and raised again, so the checks that need the basis
        do not build the same failing one again."""
        if n not in self._hb:
            try:
                self._hb[n] = h_basis(n, self.sctx)
            except WalgError as exc:
                self._hb[n] = exc
        hb = self._hb[n]
        if isinstance(hb, WalgError):
            raise hb
        return hb


# ---------------------------------------------------------------------------
# individual checks; each returns (status, details, witness)
# ---------------------------------------------------------------------------


def check_structure(case: Case):
    flags = liealg.structure_checks(case.lie, case.sctx.grading)
    bad = [k for k, v in flags.items() if not v]
    return (not bad, {"flags": flags},
            {"failed": bad} if bad else None)


def check_decomposition(case: Case):
    sctx = case.sctx
    return True, liealg.decomposition_check(case.lie, sctx.triple, sctx.grading,
                                            sctx.pair, sctx.kerf), None


def check_theorem(case: Case):
    n = case.config.check_degree("theorem")
    hb = case.hb_at(n)
    nus, rows = whittaker.verify_theorem(hb)
    gens = [{"degree": d, "form": str(el), "nu": str(nu)}
            for d, el, nu in zip(hb.degrees, hb.elements, nus)]
    # the report's dense rows: each sparse row spelled out to dim F_n H
    dim = hb.dim_f(n)
    table = {f"{i},{j}": [str(row.get(k, 0)) for k in range(dim)]
             for (i, j), row in sorted(rows.items())}
    return True, {"gr_dims": hb.gr_dims,
                  "slice_dims": case.sctx.hilbert_slice(n),
                  "multiplicative_pairs": len(rows),
                  "generators": gens, "multiplication_table": table}, None


def check_poisson(case: Case):
    n = case.config.check_degree("poisson")
    hb = case.hb_at(n)
    pairs = ((i, j) for i, j in hb.product_pairs()
             if i <= j and hb.degrees[i] and hb.degrees[j])
    checked = 0
    for i, j, agrees in whittaker.gr_commutators_vs_poisson(hb, pairs):
        if not agrees:
            return False, {"pairs_checked": checked}, {"pair": [i, j]}
        checked += 1
    return True, {"pairs_checked": checked}, None


def check_cohomology(case: Case):
    n_max = case.config.check_degree("cohomology")
    h0, h1 = whittaker.ce_cohomology(1, n_max, case.sctx)
    slice_dims = case.sctx.hilbert_slice(n_max)
    gr_dims = case.hb_at(n_max).gr_dims
    details = {"h0_dims": h0, "h1_dims": h1, "slice_dims": slice_dims,
               "gr_h_dims": gr_dims}
    if h0 != slice_dims:
        return False, details, {"clause": "h0 != slice Hilbert series"}
    if any(h1):
        return False, details, {"clause": "h1 != 0"}
    if gr_dims != h0:
        return False, details, {"clause": "gr H^0(Q) != H^0(gr Q)"}
    return True, details, None


def check_whittaker(case: Case):
    n_max = case.config.check_degree("whittaker")
    hb = case.hb_at(n_max)
    qb = hb.qb
    vectors = whittaker.whittaker_vectors(qb)
    # the vectors of the free columns of F_n Q span Wh(F_n Q) and are
    # independent, so Wh(F_n Q) = F_n H iff there are dim F_n H of them and
    # each lies in F_n H, one read-off on the certificate's echelon; a
    # vector of degree n lies in F_m Q for every m >= n, so the degrees are
    # decided in order and the first that fails is the witness
    count = 0
    for n in range(n_max + 1):
        of_degree = [v for f, v in vectors.items()
                     if qb.dim_f(n - 1) <= f < qb.dim_f(n)]
        count += len(of_degree)
        if count != hb.dim_f(n) or not all(
                hb.contains(qb.element(v), n) for v in of_degree):
            return False, {"degree": n}, {"degree": n}
    return True, {"max_degree": n_max}, None


def check_center(case: Case):
    n = case.config.check_degree("center")
    return True, whittaker.center_injects(case.hb_at(n)), None


def check_ell_independence(case: Case):
    n = case.config.check_degree("ell-independence")
    # the case's basis first: a failure of its own is the entry's failure
    hb = case.hb_at(n)
    sctx = case.sctx
    if sctx.symp.ell.dim == 0:
        # compare against the canonical Lagrangian instead
        lag = liealg.lagrangian_auto(case.lie, sctx.grading, sctx.chi)
        other = h_basis(n, SliceContext(case.lie, sctx.triple, lag))
        return True, whittaker.ell_comparison(hb, other), None
    zero = h_basis(n, SliceContext(case.lie, sctx.triple, []))
    return True, whittaker.ell_comparison(zero, hb), None


CHECKS = {
    "structure": check_structure,
    "decomposition": check_decomposition,
    "theorem": check_theorem,
    "poisson": check_poisson,
    "cohomology": check_cohomology,
    "whittaker": check_whittaker,
    "center": check_center,
    "ell-independence": check_ell_independence,
}

_NEEDS_LAGRANGIAN = {"poisson", "whittaker"}


def run(config: JobConfig) -> dict:
    """Execute the requested checks in dependency order; deterministic report.

    Bad input is a ConfigError raised before the first check runs; a
    check's own WalgError is a failed report entry."""
    config.validate()
    t_start = time.perf_counter()
    case = Case(config)
    if _NEEDS_LAGRANGIAN & set(config.checks) and not case.sctx.is_lagrangian:
        raise ConfigError("checks "
                          f"{sorted(_NEEDS_LAGRANGIAN & set(config.checks))} "
                          "require a Lagrangian ell")
    if "center" in config.checks:
        n = config.check_degree("center")
        deg = case.sctx.casimir_image().kazhdan_degree()
        if deg is not None and deg > n:
            raise ConfigError(f"the center check needs degree >= {deg}, the Kazhdan "
                              f"degree of the Casimir image; got {n}")
    config_doc = {
        "algebra": config.algebra,
        "nilpotent": config.nilpotent,
        "ell": config.ell,
        "max_degree": config.max_degree,
        "checks": list(config.checks),
    }
    if config.degree_overrides:
        config_doc["degree_overrides"] = dict(sorted(
            config.degree_overrides.items()))
    report = {
        "config": config_doc,
        "case": describe_case(case.sctx, config.max_degree),
        "checks": [],
        "status": "pass",
        "timing": {},
    }
    timing = {}
    ordered = [name for name in CHECK_NAMES if name in config.checks]
    for name in ordered:
        t0 = time.perf_counter()
        try:
            ok, details, witness = CHECKS[name](case)
        except WalgError as exc:
            ok = False
            details = {"error": type(exc).__name__, "message": str(exc)}
            witness = getattr(exc, "dims", None) or {
                "degree": getattr(exc, "degree", None)}
        except Exception as exc:  # a bug: report it and run the other checks
            ok = False
            details = _internal_error(exc)
            witness = None
        entry = {"name": name, "status": "pass" if ok else "fail",
                 "details": details}
        if witness is not None:
            entry["witness"] = witness
        report["checks"].append(entry)
        if not ok:
            report["status"] = "fail"
        timing[name] = round(time.perf_counter() - t0, 6)
    timing["total"] = round(time.perf_counter() - t_start, 6)
    report["timing"] = timing
    return report


def _internal_error(exc: Exception) -> dict:
    """Report details for an exception that is not a WalgError."""
    import traceback  # only a job that hit a bug pays for this import

    frames = traceback.extract_tb(exc.__traceback__)[-TRACEBACK_FRAMES:]
    return {"error": "internal", "type": type(exc).__name__,
            "message": str(exc),
            "traceback": [f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
                          for f in frames]}


def describe_case(sctx: SliceContext, max_degree: int) -> dict:
    L = sctx.lie
    grading = {str(i): sp.dim for i, sp in sctx.grading.pieces.items()}
    ell_names = [L.label_of_vector(v) or list(map(str, v))
                 for v in sctx.symp.ell.basis]
    return {
        "dim": L.dim,
        "labels": list(L.labels),
        "grading_dims": grading,
        "dim_g_minus1": sctx.grading.piece(-1).dim,
        "ell": ell_names,
        "lagrangian": sctx.is_lagrangian,
        "dim_a": sctx.pair.a.dim,
        "dim_n_ell": sctx.pair.n_ell.dim,
        "dim_ker_ad_f": sctx.kerf.dim,
        "slice_degrees": list(sctx.slice_data.degrees),
        "slice_hilbert": sctx.hilbert_slice(max_degree),
        "pbw_order": list(sctx.basis.labels),
    }


def render_report(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(f"walg report: {cfg['algebra']}, nilpotent {cfg['nilpotent']}, "
                 f"ell {cfg['ell']}, degrees <= {cfg['max_degree']}")
    case = report["case"]
    lines.append(f"  dim g = {case['dim']}, dim a = {case['dim_a']}, "
                 f"dim n_ell = {case['dim_n_ell']}, "
                 f"dim Ker ad f = {case['dim_ker_ad_f']}")
    lines.append(f"  grading dims: {case['grading_dims']}")
    lines.append(f"  slice degrees: {case['slice_degrees']}  "
                 f"Hilbert: {case['slice_hilbert']}")
    lines.append("  " + "-" * 58)
    for entry in report["checks"]:
        status = entry["status"].upper()
        lines.append(f"  {entry['name']:<18} {status}")
        det = entry["details"]
        for key in ("gr_dims", "h0_dims", "h1_dims", "nu_image",
                    "canonical_form", "pairs_checked", "multiplicative_pairs"):
            if key in det:
                lines.append(f"      {key}: {det[key]}")
        for gen in det.get("generators", [])[:12]:
            lines.append(f"      deg {gen['degree']}: {gen['form']}")
        if entry["status"] == "fail":
            lines.append(f"      details: {det}")
            if "witness" in entry:
                lines.append(f"      witness: {entry['witness']}")
    lines.append("  " + "-" * 58)
    lines.append(f"  overall: {report['status'].upper()}  "
                 f"(total {report['timing'].get('total', 0)}s)")
    return "\n".join(lines)


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write report '{path}': {exc.strerror or exc}")


def _check_writable(path: str):
    """Raise, before any work, the ConfigError that `_write_json` would
    raise for a path it cannot open; the file is neither created nor
    truncated."""
    try:
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            os.stat(parent)  # the error open() meets on the way there
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _write_json(path: str, doc: dict):
    """Write doc to path as indented JSON; a path that cannot be written
    is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="walg",
        description="Slodowy slice quantization checks: finite W-algebras "
                    "computed degree by degree over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run verification checks")
    p_run.add_argument("--algebra", required=True,
                       help="builtin slN or a JSON structure-constant file")
    p_run.add_argument("--nilpotent", default=None,
                       help="'regular', 'minimal', a partition like [2,1,1], "
                            "or comma-separated coordinates")
    p_run.add_argument("--ell", default="zero",
                       help="'zero', 'lagrangian-auto', 'file', or vectors "
                            "'c1,..,cd;c1,..,cd'")
    p_run.add_argument("--max-degree", type=int, default=6)
    p_run.add_argument("--checks", default="structure,decomposition,theorem",
                       help=f"comma list from: {','.join(CHECK_NAMES)}; "
                            "append ':<degree>' to cap one check below "
                            "max-degree, e.g. whittaker:4")
    p_run.add_argument("--out", default=None, help="path for the JSON report")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable table")

    p_desc = sub.add_parser("describe", help="print grading and slice data")
    p_desc.add_argument("--algebra", required=True)
    p_desc.add_argument("--nilpotent", default=None)
    p_desc.add_argument("--ell", default="zero")
    p_desc.add_argument("--max-degree", type=int, default=6)
    p_desc.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            names, overrides = JobConfig.parse_checks(args.checks)
            config = JobConfig(
                algebra=args.algebra, nilpotent=args.nilpotent, ell=args.ell,
                max_degree=args.max_degree, checks=names,
                degree_overrides=overrides)
            config.validate()
            if args.out:
                _check_writable(args.out)
            report = run(config)
            if args.out:
                _write_json(args.out, report)
            if not args.quiet:
                print(render_report(report))
            if any(entry["details"].get("error") == "internal"
                   for entry in report["checks"]):
                return 3
            return 0 if report["status"] == "pass" else 1
        config = JobConfig(algebra=args.algebra, nilpotent=args.nilpotent,
                           ell=args.ell, max_degree=args.max_degree)
        config.validate()
        if args.out:
            _check_writable(args.out)
        case = Case(config)
        desc = describe_case(case.sctx, args.max_degree)
        if args.out:
            _write_json(args.out, desc)
        print(json.dumps(desc, indent=2))
        return 0
    except (ConfigError, WalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
