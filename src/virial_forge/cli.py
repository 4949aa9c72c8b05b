"""Command-line interface: certify, report, scan, asymptotics, mollify.

Output is reproducible by construction: every document echoes, as
``config.*`` lines, the flags its command was given or defaulted (and no
other), which together are the argv that reruns it; floats are printed with
17 significant digits, and identical configurations produce byte-identical
kv/CSV output.

Exit codes: 0 = success (certify/mollify: verdict pass), 1 = verdict fail,
2 = solver or numerical failure (overflow included), 3 = invalid or
non-finite configuration; an --out that cannot be written is one too.
A solve never judges the energy: one above --tol-energy fails the verdict.
A flag's own range is checked by its argparse type as it is parsed, so an
out-of-range value exits 3 before any solve; what is left after parsing are
the checks across flags.

Each command imports only what it runs: ``scan`` and ``asymptotics`` load
``scans``, ``mollify`` loads ``mollifier`` and the custom family ``json``.
Flags are parsed once, by the named command's own parser.
"""

from __future__ import annotations

import argparse
import functools
import io
import re
import sys

from . import functionals, solvers
from .errors import ConfigError, ProfileError, VirialForgeError
from .functionals import _format_float
from .profiles import (AngularProfile, Piece, PiecewiseProfile, SeparableAnsatz, check_cutoff,
                       check_positive)

__all__ = ["main", "entrypoint", "build_parser"]

FAMILY_CHOICES = (*solvers.FAMILIES, "custom")
FORMATS = ("human", "kv", "csv")
# Flags that give a datum; ``_step_datum`` rejects those a command does not
# read for the chosen family.
_DATUM_FLOATS = ("r1", "r2", "r3", "p", "n", "a", "alpha")
_DATUM_FLAGS = (*_DATUM_FLOATS, "profiles")

# Document key of each params field the documents report.
_SOLVED_KEYS = (("R", "r"), ("P", "p"), ("n", "n"), ("alpha", "alpha"))


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with code 2.

    A value in exponent notation such as ``-8.2e-05`` reads as a negative
    number, not as an option: argparse's own matcher takes ``-1`` and ``-.5``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _ranged(parse, check, *args):
    """argparse type: ``parse(text)``, accepted by the library's range ``check``."""
    def convert(text):
        value = parse(text)
        check(value, "value", argparse.ArgumentTypeError, *args)
        return value

    convert.__name__ = parse.__name__  # argparse's "invalid float value: 'x'" names it
    return convert


_POSITIVE, _CUTOFF = _ranged(float, check_positive), _ranged(float, check_cutoff)
_NON_NEGATIVE, _COUNT = _ranged(float, check_positive, True), _ranged(int, check_positive)


def _add_family_options(sub, custom=True):
    """--family and the datum flags; --profiles where the custom family is a choice."""
    sub.add_argument("--family", required=True,
                     choices=FAMILY_CHOICES if custom else tuple(solvers.FAMILIES))
    for name in _DATUM_FLOATS:
        sub.add_argument(f"--{name}", type=_CUTOFF if name == "a" else _POSITIVE)
    if custom:
        sub.add_argument("--profiles", help="profile-literal JSON file (custom family)")


def _add_output_options(sub, formats=FORMATS):
    sub.add_argument("--format", choices=formats, default="human")
    sub.add_argument("--out", default="", help="output path (default stdout)")


def _add_certificate_options(sub):
    _add_output_options(sub, formats=("human", "kv"))
    sub.add_argument("--tol-energy", type=_POSITIVE, default=functionals.DEFAULT_ENERGY_TOL,
                     dest="tol_energy")


def build_parser():
    parser = _Parser(prog="virial-forge", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    certify = commands.add_parser(
        "certify", help="solve the family's free parameter and certify the datum"
    )
    _add_family_options(certify)
    _add_certificate_options(certify)

    report = commands.add_parser(
        "report", help="print every functional without pass/fail gating"
    )
    _add_family_options(report)
    _add_output_options(report, formats=("human", "kv"))

    scan = commands.add_parser("scan", help="uniform-ball virial floor sweep")
    scan.add_argument("--p-min", type=_POSITIVE, default=1e-2, dest="p_min")
    scan.add_argument("--p-max", type=_POSITIVE, default=1e4, dest="p_max")
    scan.add_argument("--p-points", type=_COUNT, default=200, dest="p_points")
    scan.add_argument("--a-points", type=_COUNT, default=40, dest="a_points")
    _add_output_options(scan)

    asym = commands.add_parser(
        "asymptotics", help="large-P halo-level and virial scaling fits"
    )
    asym.add_argument("--p-min", type=_POSITIVE, default=1e2, dest="p_min")
    asym.add_argument("--p-max", type=_POSITIVE, default=1e4, dest="p_max")
    # asymptotic_scaling owns the fit's fewest points and the range of a.
    asym.add_argument("--p-points", type=_COUNT, default=9, dest="p_points")
    asym.add_argument("--a", type=float, default=-0.9)
    _add_output_options(asym)

    moll = commands.add_parser(
        "mollify", help="smooth the steps, re-solve zero energy, certify"
    )
    _add_family_options(moll, custom=False)
    moll.add_argument("--delta", type=_NON_NEGATIVE,
                      help="ramp half-width (default 1e-3 * feature)")
    _add_certificate_options(moll)
    return parser


@functools.cache
def _parser():
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def _flags(names):
    return ", ".join("--" + name for name in names)


def _piece_from_dict(entry):
    try:
        kind = entry["kind"]
        lo, hi = float(entry["lo"]), float(entry["hi"])
        if kind == "constant":
            return Piece.constant(float(entry["value"]), lo, hi)
        if kind == "power":
            return Piece.power(float(entry["value"]), float(entry["exponent"]), lo, hi)
        if kind == "ramp":
            return Piece.ramp(float(entry["left"]), float(entry["right"]), lo, hi)
    except KeyError as exc:
        raise ConfigError(f"profile piece missing field {exc}")
    raise ConfigError(f"unknown piece kind {kind!r}")


def _pieces_of(section, name):
    """The pieces of one document section; its ``pieces`` must be a list."""
    pieces = section["pieces"]
    if not isinstance(pieces, list):
        raise ConfigError(f"{name} pieces must be a list, got {type(pieces).__name__}")
    return [_piece_from_dict(e) for e in pieces]


def _load_custom_ansatz(path):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"profile file is not valid JSON: {exc}")
    try:
        spatial = PiecewiseProfile.from_segments(_pieces_of(doc["spatial"], "spatial"))
        momentum = PiecewiseProfile.from_segments(
            _pieces_of(doc["momentum"], "momentum"), domain_label="radial-momentum"
        )
        ang = doc["angular"]
        if "cutoff" in ang:
            angular = AngularProfile.cutoff(float(ang["cutoff"]))
        else:
            angular = AngularProfile(tuple(_pieces_of(ang, "angular")))
    except KeyError as exc:
        raise ConfigError(f"profile file missing section {exc}")
    except ProfileError as exc:
        raise ConfigError(f"invalid profile literal: {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed profile file: {exc}")
    for name, profile in (("spatial", spatial), ("momentum", momentum), ("angular", angular)):
        if all(piece.is_zero for piece in profile.pieces):
            raise ConfigError(f"{name} profile is zero everywhere")
    return SeparableAnsatz(spatial, momentum, angular)


def _step_datum(args):
    """(params, step ansatz) of the datum flags; params is None for the custom family.

    One pass over the datum flags given: each is required, optional or
    rejected.  A family requires its inputs.  certify and report also read its
    free parameter, which replaces the solve; mollify re-solves it on the
    smoothed datum, so it takes no override.  The custom family reads
    --profiles only.
    """
    family = solvers.FAMILIES.get(args.family)
    if family is None:
        required = reads = ("profiles",)
    else:
        required = family.inputs
        reads = required if args.command == "mollify" else (*required, family.free)
    given = {name: value for name, value in vars(args).items()
             if name in _DATUM_FLAGS and value is not None}
    unread = [name for name in given if name not in reads]
    if unread:
        raise ConfigError(f"{args.command} --family {args.family} does not read {_flags(unread)}")
    missing = [name for name in required if name not in given]
    if missing:
        raise ConfigError(f"family {args.family!r} requires {_flags(missing)}")
    if family is None:
        return None, _load_custom_ansatz(given["profiles"])
    known = {name: given[name] for name in family.inputs}
    value = given[family.free] if family.free in given else family.solve(**known)
    params = family.params(**known, **{family.free: value})
    return params, family.ansatz(params)


def _fmt_value(value):
    """The print policy: None prints empty, a bool true/false, a float 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _render(args, pairs, csv_body=None, summary=()):
    """The document of ``args.command``, the one place a value is printed (``_fmt_value``).

    kv prints ``key=value`` lines, human a ``key  value`` table aligned on the
    longest key: first a ``config.*`` line for each flag the command was given
    or defaulted, in parser order (unset ones are left out), then ``pairs``.
    csv prints the ``config.*`` lines as ``# key=value`` comments, then the
    CSV that ``csv_body(stream)`` writes, then each ``(template, *values)`` of
    ``summary`` filled in as a ``# `` comment; ``pairs`` are not printed.
    """
    config = [("config." + name, value) for name, value in vars(args).items() if value is not None]
    if args.format == "csv":
        stream = io.StringIO()
        stream.writelines(f"# {key}={_fmt_value(value)}\n" for key, value in config)
        csv_body(stream)
        stream.writelines(f"# {template.format(*map(_fmt_value, values))}\n"
                          for template, *values in summary)
        return stream.getvalue()
    lines = [(key, _fmt_value(value)) for key, value in config + pairs]
    if args.format == "kv":
        return "".join(f"{key}={text}\n" for key, text in lines)
    width = max(len(key) for key, _ in lines)
    return "".join(f"{key:<{width}}  {text}\n" for key, text in lines)


def _family_pairs(args, params, a_star):
    """family, the solved parameters (R, P, n, alpha), a and a_star."""
    pairs = [("family", args.family)]
    pairs += [(key, getattr(params, name, None)) for key, name in _SOLVED_KEYS]
    return pairs + [("a", args.a), ("a_star", a_star)]


def _certificate_pairs(args, cert, params, a_star):
    rep = cert.report
    return _family_pairs(args, params, a_star) + [
        ("norm_constant", rep.norm_constant),
        ("mass", rep.mass),
        ("kinetic", rep.kinetic),
        ("potential", rep.potential),
        ("total_energy", rep.total_energy),
        ("energy_residual", cert.energy_residual),
        ("energy_tol", cert.energy_tol),
        ("virial", rep.virial),
        ("virial_margin", cert.virial_margin),
        ("l32_norm", rep.l32_norm),
        ("norm_margin", cert.norm_margin),
        ("critical_norm", cert.critical_norm),
        ("verdict", "pass" if cert.passed else "fail"),
    ]


def _threshold_or_none(ansatz):
    try:
        return solvers.solve_threshold_a(ansatz)
    except VirialForgeError:
        return None


def _cmd_certify(args):
    params, ansatz = _step_datum(args)
    cert = functionals.check_criteria(ansatz, energy_tol=args.tol_energy)
    a_star = _threshold_or_none(ansatz)
    return (0 if cert.passed else 1), _render(args, _certificate_pairs(args, cert, params, a_star))


def _cmd_report(args):
    params, ansatz = _step_datum(args)
    rep = functionals.evaluate(ansatz)
    pairs = _family_pairs(args, params, _threshold_or_none(ansatz)) + [
        ("method", rep.method),
        ("norm_constant", rep.norm_constant),
        ("mass", rep.mass),
        ("kinetic", rep.kinetic),
        ("potential", rep.potential),
        ("total_energy", rep.total_energy),
        ("virial", rep.virial),
        ("l32_norm", rep.l32_norm),
        ("critical_norm", functionals.CRITICAL_L32_NORM),
    ]
    return 0, _render(args, pairs)


def _p_values(args):
    """--p-points momentum cutoffs, log-spaced from --p-min to --p-max."""
    if args.p_min > args.p_max:
        raise ConfigError("need p-min <= p-max")
    import numpy as np

    return tuple(np.geomspace(args.p_min, args.p_max, args.p_points))


def _cmd_scan(args):
    import numpy as np

    from . import scans

    grid = scans.ScanGrid(P_values=_p_values(args),
                          a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, args.a_points)))
    result = scans.uniform_ball_floor(grid)
    floor_ok = result.min_virial > -0.45
    pairs = [
        ("min_virial", result.min_virial),
        ("argmin_P", result.argmin_P),
        ("argmin_a", result.argmin_a),
        ("floor_ok", floor_ok),
    ]
    summary = [
        ("min_virial > -0.45: {}", "OK" if floor_ok else "VIOLATED"),
        ("min_virial={} at P={} a={}", result.min_virial, result.argmin_P, result.argmin_a),
    ]
    return 0, _render(args, pairs, functools.partial(scans.floor_to_csv, result), summary)


def _cmd_asymptotics(args):
    from . import scans

    result = scans.asymptotic_scaling(_p_values(args), a=args.a)
    alpha, virial = result.alpha_fit, result.virial_fit
    pairs = [
        ("alpha_slope", alpha.slope),
        ("alpha_intercept", alpha.intercept),
        ("alpha_max_residual", alpha.max_residual),
        ("virial_slope", virial.slope),
        ("virial_intercept", virial.intercept),
        ("virial_max_residual", virial.max_residual),
        ("n_points", alpha.n_points),
        ("n_failures", len(result.failures)),
    ]
    summary = [("alpha_slope={}", alpha.slope), ("virial_slope={}", virial.slope)]
    return 0, _render(args, pairs, functools.partial(scans.rows_to_csv, result.rows), summary)


def _cmd_mollify(args):
    from . import mollifier

    params, step_ansatz = _step_datum(args)
    delta = args.delta
    if delta is None:
        delta = mollifier.default_delta(step_ansatz)
    spec = mollifier.MollifySpec(delta=delta)
    new_params, moll_ansatz = mollifier.rebalance(params, step_ansatz, spec)
    cert = functionals.check_criteria(moll_ansatz, energy_tol=args.tol_energy)
    drift = mollifier.functional_drift(functionals.evaluate(step_ansatz), cert.report)
    pairs = [("delta", delta), ("seam_smoothness", mollifier.seam_smoothness(moll_ansatz.spatial))]
    pairs += _certificate_pairs(args, cert, new_params, _threshold_or_none(moll_ansatz))
    for key, entry in drift.items():
        pairs += [(f"{stage}.{key}", entry[stage]) for stage in ("step", "mollified", "drift")]
    return (0 if cert.passed else 1), _render(args, pairs)


_COMMANDS = {
    "certify": _cmd_certify,
    "report": _cmd_report,
    "scan": _cmd_scan,
    "asymptotics": _cmd_asymptotics,
    "mollify": _cmd_mollify,
}


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _parser()
        (commands,) = (action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
        if argv and argv[0] in commands:
            # What the subparsers action does, without the root parser first
            # classifying every flag; any other argv ends in help or a usage error.
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        code, text = _COMMANDS[args.command](args)
        if not args.out:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out: {exc}")
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except ProfileError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 3
    except VirialForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
