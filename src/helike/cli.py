"""Command-line interface: solve, converge, zscan, selftest.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure,
3 scan finished but some rows failed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import formats, pipeline, selftest
from .errors import (
    FactorizationError,
    HelikeError,
    InvalidParameterError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3

CONFIG_ERRORS = (InvalidParameterError,)
NUMERICAL_ERRORS = (
    FactorizationError,
    MemoryError,
    np.linalg.LinAlgError,
)


# each RunConfig key's flag and help text
CONFIG_FLAGS = {
    "z": ("--z", "nuclear charge"),
    "state": ("--state", "state spec, e.g. 1s2-1S, 1s2s-3S, ground"),
    "l_max": ("--lmax", "largest orbital angular momentum in the CI"),
    "n_max": ("--nmax", "largest principal quantum number per l"),
    "r_max": ("--rmax", "radial box size in a.u. (default: policy by Z)"),
}

# the keys each verb reads: converge cuts at --lvalues/--nvalues, and
# zscan solves --states at --charges
VERB_KEYS = {
    "solve": tuple(CONFIG_FLAGS),
    "converge": ("z", "state", "r_max"),
    "zscan": ("l_max", "n_max", "r_max"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helike",
        description=("Configuration-interaction energies and entanglement "
                     "entropies of two-electron atoms and ions."),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, verb, choices=("csv", "json")):
        p.add_argument("--config", type=Path, default=None,
                       help="flat key = value config file")
        for key in VERB_KEYS[verb]:
            flag, text = CONFIG_FLAGS[key]
            p.add_argument(flag, dest=key, type=formats.CONFIG_KEYS[key],
                           default=None, help=text)
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")
        p.add_argument("--format", dest="formats", action="append",
                       choices=choices, default=None,
                       help="output format; repeatable (default csv)")

    common(sub.add_parser("solve", help="solve one state"), "solve")

    p_conv = sub.add_parser("converge",
                            help="entropy table over (l_max, n_max) cut-offs")
    common(p_conv, "converge")
    p_conv.add_argument("--lvalues", default="0,1,2,3",
                        help="comma-separated l_max column values")
    p_conv.add_argument("--nvalues", default="5,10,15,20,25",
                        help="comma-separated n_max row values")

    # no prefix matching: --state must not pass for --states
    p_scan = sub.add_parser("zscan", allow_abbrev=False,
                            help="scan nuclear charge down to Z = 1")
    common(p_scan, "zscan", choices=("csv", "json", "svg"))
    p_scan.add_argument("--charges", default=None,
                        help="comma-separated Z list (default: built-in grid)")
    p_scan.add_argument("--states", default="1s2s-1S,1s2s-3S",
                        help="comma-separated state specs")

    sub.add_parser("selftest", help="run the built-in cross-check suites")
    return parser


def _run_config(args, defaults: dict | None = None) -> pipeline.RunConfig:
    """The verb's defaults, then its config file, then its flags."""
    file_values = (formats.load_config_file(args.config)
                   if args.config else {})
    keys = VERB_KEYS[args.verb]
    for key in CONFIG_FLAGS:
        # a key whose flag the verb lacks would go unused
        if key in file_values and key not in keys:
            raise InvalidParameterError(
                f"config key {key!r} does not apply to {args.verb}, "
                f"which takes no {CONFIG_FLAGS[key][0]}")
    flags = {key: getattr(args, key) for key in keys
             if getattr(args, key) is not None}
    return pipeline.RunConfig(**{**(defaults or {}), **file_values, **flags})


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated values of kind (float or int); blanks are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        word = "integer" if kind is int else "numeric"
        raise InvalidParameterError(f"bad {word} list {text!r}") from None


def _outputs(args) -> tuple[Path, list[str]]:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    return out, list(dict.fromkeys(args.formats or ["csv"]))


def cmd_solve(args) -> int:
    config = _run_config(args)
    out, fmts = _outputs(args)
    report = pipeline.run_solve(config)
    if "csv" in fmts:
        formats.write_csv(out / "state.csv", formats.SOLVE_FIELDS,
                          formats.solve_rows(report))
        formats.write_csv(out / "spectrum.csv", formats.SPECTRUM_FIELDS,
                          formats.spectrum_rows(report))
    if "json" in fmts:
        payload = formats.solve_rows(report)[0]
        payload["spectrum"] = formats.spectrum_rows(report)
        formats.write_json(out / "state.json", payload)
    print(f"Z={report.config.z:g} {report.state}: "
          f"E = {report.energy:.7f} a.u., "
          f"S_L = {report.s_linear:.7f}, S_vN = {report.s_von_neumann:.7f}")
    if report.ambiguous:
        print(f"warning: ambiguous state ({report.selection} pick); "
              f"best configuration weight {report.dominant_weight:.3f}",
              file=sys.stderr)
    return EXIT_OK


def cmd_converge(args) -> int:
    config = _run_config(args)
    cuts = [_parse_list(text, int) for text in (args.lvalues, args.nvalues)]
    out, fmts = _outputs(args)
    result = pipeline.run_convergence(config, *cuts)
    if "csv" in fmts:
        formats.write_csv(out / "convergence.csv",
                          formats.CONVERGENCE_FIELDS,
                          formats.convergence_rows(result))
    if "json" in fmts:
        formats.write_json(out / "convergence.json", result)
    for row in result.rows:
        print(f"l_max={row.l_max} n_max={row.n_max}  "
              f"E={row.energy:.7f}  S_L={row.s_linear:.7f}  "
              f"S_vN={row.s_von_neumann:.7f}")
    return EXIT_OK


def cmd_zscan(args) -> int:
    config = _run_config(args, pipeline.SCAN_DEFAULTS)
    charges = (None if args.charges is None
               else _parse_list(args.charges, float))
    states = [s.strip() for s in args.states.split(",") if s.strip()]
    out, fmts = _outputs(args)
    result = pipeline.run_zscan(config, charges=charges, states=states)
    if "csv" in fmts:
        formats.write_csv(out / "zscan.csv", formats.SCAN_FIELDS,
                          formats.scan_rows(result))
    if "json" in fmts:
        formats.write_json(out / "zscan.json", result)
    if "svg" in fmts and result.rows:
        formats.write_scan_svg(out / "zscan_linear.svg", result, "s_linear")
        formats.write_scan_svg(out / "zscan_von_neumann.svg", result,
                               "s_von_neumann")
    print(f"{len(result.rows)} rows over {len(set(r.z for r in result.rows))} "
          f"charges; {len(result.failures)} failures")
    for z, state, message in result.failures:
        print(f"failed: Z={z:g} {state}: {message}", file=sys.stderr)
    return EXIT_OK if result.complete else EXIT_PARTIAL


def cmd_selftest(args) -> int:
    ok = selftest.run_all(stream=sys.stdout)
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 for --help, 2 on misuse
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    handler = {
        "solve": cmd_solve,
        "converge": cmd_converge,
        "zscan": cmd_zscan,
        "selftest": cmd_selftest,
    }[args.verb]
    try:
        return handler(args)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except HelikeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
