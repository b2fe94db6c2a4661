"""Command-line front end.

Subcommands: certify, decompose, matrix, degree, gen, rank-profile.
Polynomials are read from JSON files (the canonical format), inline JSON,
or the inline text syntax "3/2*x0^2*x1 + ...".  All exact output is
rendered as "p/q" strings; exit codes are 0 (success / CONSISTENT),
10 (EXCLUDED), and 2 (input or usage error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decompose import (
    DecompositionError,
    decompose_binary,
    decompose_quintic,
)
from .flattenings import cat_matrix, rank_profile
from .forms import (
    HomogForm,
    fraction_to_str,
    parse_polynomial,
    polynomial_from_json,
    random_power_sum,
    to_polynomial_json,
)
from .geom import (
    grass_series_degree,
    known_secant_degree,
    secant_dim,
    segre_sym,
    sym_series_degree,
)
from .invariants import certify
from .youngflat import (
    koszul_matrix,
    q_twisted_flattening,
    symmetric_twisted_flattening,
    yf_border_rank_lb,
    young_flattening,
)

EXIT_OK = 0
EXIT_EXCLUDED = 10
EXIT_INPUT = 2


class CliError(Exception):
    pass


def _load_form(args) -> HomogForm:
    raw = args.input
    if raw is None:
        raise CliError("--input is required for this command")
    if raw == "-":
        text = sys.stdin.read()
    elif os.path.exists(raw):
        with open(raw, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = raw
    text = text.strip()
    if not text:
        raise CliError("empty input")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid JSON input: {exc}") from exc
        return polynomial_from_json(obj)
    return parse_polynomial(text, nvars=getattr(args, "nvars", None))


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _cmd_certify(args) -> int:
    form = _load_form(args)
    if args.r is None:
        raise CliError("--r is required for certify")
    report = certify(form, args.r)
    _emit_json(args, report.to_json())
    return EXIT_EXCLUDED if report.excluded else EXIT_OK


def _cmd_rank_profile(args) -> int:
    form = _load_form(args)
    profile = rank_profile(form)
    payload = {
        "degree": form.degree,
        "nvars": form.nvars,
        "profile": profile,
        "cat_border_rank_lb": max(profile),
        "yf_border_rank_lb": yf_border_rank_lb(form),
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    form = _load_form(args)
    mode = args.mode
    if mode == "auto":
        if form.nvars == 2:
            mode = "binary"
        elif form.nvars == 3 and form.degree == 5:
            mode = "quintic"
        else:
            raise CliError(
                f"no decomposition mode for nvars={form.nvars}, "
                f"degree={form.degree}"
            )
    if mode == "binary":
        if args.r is None:
            raise CliError("--r is required for binary decomposition")
        dec = decompose_binary(form, args.r, root_tol=args.tol or 1e-8)
    elif mode == "quintic":
        dec = decompose_quintic(form)
    else:
        raise CliError(f"unknown mode {mode!r}")
    payload = dec.to_json()
    payload["mode"] = mode
    _emit_json(args, payload)
    return EXIT_OK


def _matrix_payload(args):
    kind = args.kind
    if kind == "koszul":
        if args.n is None or args.a is None:
            raise CliError("matrix --kind koszul needs --n and --a")
        pattern = koszul_matrix(args.n, args.a)
        cells = []
        for J in pattern.rows:
            row = []
            for I in pattern.cols:
                cell = pattern.cells.get((J, I))
                if cell is None:
                    row.append("0")
                else:
                    var, sign = cell
                    row.append(("-" if sign < 0 else "") + f"x{var}")
            cells.append(row)
        return cells, {"rows": [list(J) for J in pattern.rows],
                       "cols": [list(I) for I in pattern.cols]}
    form = _load_form(args)
    if kind == "cat":
        if args.a is None:
            raise CliError("matrix --kind cat needs --a")
        m = cat_matrix(form, args.a)
        meta = {"a": args.a}
    elif kind == "yf":
        yf = young_flattening(form)
        m = yf.matrix
        meta = {"structure": yf.structure, "rank_unit": yf.rank_unit}
    elif kind == "twisted":
        if args.q is not None:
            p = form.degree + 1 - 4 * args.q
            if p < 1:
                raise CliError(
                    f"degree {form.degree} admits no twist with q={args.q}"
                )
            m = q_twisted_flattening(form, p, args.q)
            meta = {"p": p, "q": args.q}
        else:
            if form.degree % 2 or form.degree < 4:
                raise CliError("symmetric twisted flattening needs even degree >= 4")
            p = (form.degree - 2) // 2
            m = symmetric_twisted_flattening(form, p)
            meta = {"p": p}
    else:
        raise CliError(f"unknown matrix kind {kind!r}")
    cells = [[fraction_to_str(x) for x in row] for row in m.rows]
    meta.update({"shape": list(m.shape), "rank": m.rank()})
    return cells, meta


def _cmd_matrix(args) -> int:
    cells, meta = _matrix_payload(args)
    if args.format == "json":
        _emit_json(args, {"kind": args.kind, **meta, "entries": cells})
    else:
        _emit(args, "\n".join(",".join(row) for row in cells))
    return EXIT_OK


def _cmd_degree(args) -> int:
    if args.family:
        if args.p is None:
            raise CliError("--p is required with --family")
        if args.family == "sym-series":
            deg = sym_series_degree(args.p)
        else:
            deg = grass_series_degree(args.p)
        _emit_json(args, {"family": args.family, "p": args.p, "degree": str(deg)})
        return EXIT_OK
    if args.n is None or args.d is None or args.r is None:
        raise CliError("degree needs --family or all of --n, --d, --r")
    if args.d == 2:
        codim, deg = segre_sym(args.n, args.r)
        _emit_json(args, {"codim": codim, "degree": str(deg)})
        return EXIT_OK
    report = secant_dim(args.n, args.d, args.r)
    known = known_secant_degree(args.n, args.d, args.r)
    payload = {
        "expected_dim": report.expected_dim,
        "actual_dim": report.actual_dim,
        "defective": report.defective,
        "weakly_defective": report.weakly_defective,
        "degree": str(known) if known is not None else None,
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if None in (args.n, args.d, args.r):
        raise CliError("gen needs --n, --d, --r")
    form, summands = random_power_sum(
        args.n + 1, args.d, args.r, args.seed, height=args.height
    )
    payload = {
        "seed": args.seed,
        "polynomial": to_polynomial_json(form, args.convention),
        "summands": [[fraction_to_str(c) for c in l.coeffs] for l in summands],
    }
    _emit_json(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waring",
        description="Exact border-rank certificates and Waring decompositions "
                    "for homogeneous polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="polynomial JSON file, '-', inline JSON, or inline text")
            p.add_argument("--nvars", type=int, help="variable count for inline text input")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("certify", help="run the strongest known rank tests against sigma_r")
    common(p)
    p.add_argument("--r", type=int, help="target secant index r")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("rank-profile", help="exact catalecticant rank profile and bounds")
    common(p)
    p.set_defaults(func=_cmd_rank_profile)

    p = sub.add_parser("decompose", help="write the form as a sum of powers")
    common(p)
    p.add_argument("--mode", choices=("auto", "binary", "quintic"), default="auto")
    p.add_argument("--r", type=int, help="number of summands (binary mode)")
    p.add_argument("--tol", type=float, help="repeated-root tolerance (binary mode only)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("matrix", help="export a flattening matrix")
    common(p)
    p.add_argument("--kind", choices=("cat", "yf", "koszul", "twisted"), required=True)
    p.add_argument("--a", type=int, help="catalecticant split / koszul wedge step")
    p.add_argument("--n", type=int, help="ambient dimension minus one (koszul)")
    p.add_argument("--q", type=int, help="wedge twist order (twisted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("degree", help="secant variety degree and dimension data")
    common(p, needs_input=False)
    p.add_argument("--family", choices=("sym-series", "grass-series"))
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("gen", help="deterministic random sum of powers")
    common(p, needs_input=False)
    p.add_argument("--n", type=int, help="projective dimension n (n+1 variables)")
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed of the random draw")
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--convention", choices=("monomial", "tensor"), default="monomial")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, DecompositionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
