"""Command-line front end: coverage experiments, trace replay, height studies.

Configuration is an INI file (key-value with sections, see README for the
schema) plus flag overrides; flags win.  A flag's argparse dest is the
"section.key" it overrides.  Thresholds are accepted in dB at every
interface and converted once; all internal math is linear.

The table commands (coverage, replay, height-study) share one pipeline:
config, overrides, [run] seed and config hash, then the command's
(sweep_value, method, coverage, stderr, ci_low, ci_high) rows, written as
CSV or JSON to --out or stdout; Monte Carlo rows carry a 95% Wilson
interval, which analytic rows leave blank.  A command's one side output
lands next to --out: replay's SIR pdf table only there, height-study's
report after the table on stdout when there is no --out.  Every Monte Carlo run of a command
takes [run] trials; height-study fits its height models to a trace's
heights or to [height_study] count draws of the [geometry] height model,
on the [geometry] corridor; its variable_* rows are the coverage curves
of simulator.height_model_kl_study's runs of the fitted models.

Exit codes: 0 ok, 2 configuration, 3 numerical failure, 4 I/O, 5 data
insufficiency.  Set CORRIDOR_COV_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import analytic, simulator
from .core import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    FixedHeight,
    NormalHeight,
    ParameterError,
    UniformHeight,
    db_to_linear,
)
from .quadrature import QuadratureError
from .simulator import MappingError, Trace, TraceFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_DATA = 5

log = logging.getLogger("corridor_cov")

# the interval's columns come last, so readers of the first six still parse
CSV_COLUMNS = ["sweep_value", "method", "coverage", "stderr", "seed", "config_hash", "ci_low", "ci_high"]

# the analytic methods, spelled with hyphens, and Monte Carlo
_METHOD_ALIASES = {name.replace("_", "-"): name for name in analytic._METHODS} | {"mc": "mc"}


class ConfigError(ValueError):
    pass


class DataInsufficiencyError(ValueError):
    pass


DEFAULTS = {
    "geometry": {
        "r": "500.0",
        "height_model": "fixed",  # fixed | uniform | normal
        "height": "100.0",
        "height_low": "160.0",
        "height_high": "240.0",
        "height_mu": "200.0",
        "height_sigma": "15.0",
    },
    "channel": {
        "alpha": "2.2",
        "q": "2.0",
        "m": "1.0",
    },
    "spatial": {
        "model": "bpp",  # bpp | hppp | disc
        "n": "10",
        "intensity": "",  # blank -> n / (2 R)
    },
    "run": {
        "theta_db": "-3.0",
        "trials": "10000",
        "seed": "1",
        "batch_size": "65536",
    },
    "sweep": {
        "axis": "theta",
        "start": "-10",
        "stop": "10",
        "step": "1",
        "values": "",
        "methods": "exact,mc",
    },
    "replay": {
        "fading": "redraw",
    },
    "height_study": {
        "count": "100000",
    },
}


def _load_config(path):
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in cfg[section]:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                cfg[section][key] = value
    return cfg


def _apply_overrides(cfg, args):
    """Flags win over the file: each flag's dest is the "section.key" it sets."""
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section][key] = str(value)
    return cfg


def _get_float(cfg, section, key, allow_blank=False):
    raw = cfg[section][key].strip()
    if raw == "":
        if allow_blank:
            return None
        raise ConfigError(f"[{section}] {key} must be set")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}={raw!r} is not a finite number")
    return value


def _get_int(cfg, section, key):
    try:
        # exact however large: a seed above 2**53 does not pass through a float
        return int(cfg[section][key].strip())
    except ValueError:
        pass
    value = _get_float(cfg, section, key)
    if not value.is_integer():
        raise ConfigError(f"[{section}] {key} must be an integer")
    return int(value)


def build_geometry(cfg):
    r = _get_float(cfg, "geometry", "r")
    kind = cfg["geometry"]["height_model"].strip().lower()
    if kind == "fixed":
        model = FixedHeight(_get_float(cfg, "geometry", "height"))
    elif kind == "uniform":
        model = UniformHeight(
            _get_float(cfg, "geometry", "height_low"), _get_float(cfg, "geometry", "height_high")
        )
    elif kind == "normal":
        model = NormalHeight(
            _get_float(cfg, "geometry", "height_mu"), _get_float(cfg, "geometry", "height_sigma")
        )
    else:
        raise ConfigError(f"unknown height model {kind!r}")
    return CorridorGeometry(r, model)


def build_channel(cfg):
    """The channel at the default shadowing scale gamma = q - 1: every output
    is an SIR statistic, which no common power scale moves."""
    return ChannelParams(
        alpha=_get_float(cfg, "channel", "alpha"),
        q=_get_float(cfg, "channel", "q"),
        m=_get_float(cfg, "channel", "m"),
    )


def build_spatial(cfg, geom):
    kind = cfg["spatial"]["model"].strip().lower()
    if kind == "bpp":
        return BPP(_get_int(cfg, "spatial", "n"))
    if kind == "hppp":
        intensity = _get_float(cfg, "spatial", "intensity", allow_blank=True)
        if intensity is None:
            intensity = _get_int(cfg, "spatial", "n") / geom.length
        return FiniteHPPP(intensity)
    if kind == "disc":  # the disc baseline's radius is the corridor's half-length
        return Disc2D(_get_int(cfg, "spatial", "n"), geom.R)
    raise ConfigError(f"unknown spatial model {kind!r}")


def config_hash(cfg):
    canonical = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows):
    lines = [",".join(columns)] + [",".join(map(_format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_output(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# sweeps and rows
# ---------------------------------------------------------------------------


def _sweep_values(cfg):
    raw = cfg["sweep"]["values"].strip()
    if raw:
        try:
            values = [float(v) for v in raw.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"bad sweep values {raw!r}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"sweep values {raw!r} are not all finite numbers")
    else:
        start = _get_float(cfg, "sweep", "start")
        stop = _get_float(cfg, "sweep", "stop")
        step = _get_float(cfg, "sweep", "step")
        if step <= 0:
            raise ConfigError("sweep step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + i * step for i in range(n)]
    if not values:
        raise ConfigError("sweep range is empty")
    return values


def _mc_theta_grid(cfg, command):
    """The [sweep] values of a command that sweeps theta (dB) only and runs
    Monte Carlo only, so its [sweep] methods must include mc."""
    axis = cfg["sweep"]["axis"].strip()
    if axis != "theta":
        raise ConfigError(f"{command} sweeps theta only, not [sweep] axis = {axis!r}")
    values = _sweep_values(cfg)
    if "mc" not in _parse_methods(cfg):
        raise ConfigError(f"{command} runs Monte Carlo only; [sweep] methods must include mc")
    return values


def _corridor_spatial(cfg, geom, command):
    """The [spatial] model of a command defined on the corridor only."""
    spatial = build_spatial(cfg, geom)
    if isinstance(spatial, Disc2D):
        raise ConfigError(f"{command} is defined for corridor models (bpp or hppp)")
    return spatial


def _curve_rows(values, method, curve):
    """(sweep_value, method, coverage, stderr, ci_low, ci_high) rows of a
    Monte Carlo CoverageCurve."""
    return list(zip(values, [method] * len(values), curve.coverage, curve.stderr,
                    curve.ci_low, curve.ci_high))


def _parse_methods(cfg):
    methods = []
    for token in cfg["sweep"]["methods"].split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _METHOD_ALIASES:
            raise ConfigError(f"unknown method {token!r}")
        methods.append(_METHOD_ALIASES[token])
    if not methods:
        raise ConfigError("no methods requested")
    return methods


# ---------------------------------------------------------------------------
# coverage subcommand
# ---------------------------------------------------------------------------


def _with_sweep_value(cfg, axis, value):
    """Geometry/spatial/channel rebuilt with one sweep axis overridden."""
    cfg = {s: dict(v) for s, v in cfg.items()}
    if axis == "lambda":
        cfg["spatial"]["model"] = "hppp"
        cfg["spatial"]["intensity"] = repr(value)
    elif axis == "R":
        cfg["geometry"]["r"] = repr(value)
    elif axis == "h":
        cfg["geometry"]["height_model"] = "fixed"
        cfg["geometry"]["height"] = repr(value)
    elif axis == "N":
        if value != int(value) or value < 1:
            raise ConfigError("sweep over N needs positive integers")
        cfg["spatial"]["n"] = str(int(value))
        cfg["spatial"]["intensity"] = ""  # an HPPP point's mean count is then N
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    geom = build_geometry(cfg)
    return build_spatial(cfg, geom), geom, build_channel(cfg)


def cmd_coverage(cfg, args, seed):
    axis = cfg["sweep"]["axis"].strip()
    values = _sweep_values(cfg)
    methods = _parse_methods(cfg)
    trials = _get_int(cfg, "run", "trials")
    batch_size = _get_int(cfg, "run", "batch_size")
    theta_db = _get_float(cfg, "run", "theta_db")

    # one operating point for the whole theta grid, or one per sweep value at theta_db
    if axis == "theta":
        geom = build_geometry(cfg)
        points = [(values, values, (build_spatial(cfg, geom), geom, build_channel(cfg)))]
    else:
        points = (([v], [theta_db], _with_sweep_value(cfg, axis, v)) for v in values)
    rows = []
    for sweep_values, thetas_db, (spatial, geom, channel) in points:
        for method in methods:
            if method == "mc":
                curve = simulator.empirical_coverage(
                    spatial, geom, channel, thetas_db, trials, seed, batch_size
                )
                rows += _curve_rows(sweep_values, "mc", curve)
            else:
                for v, th in zip(sweep_values, db_to_linear(np.array(thetas_db))):
                    query = analytic.CoverageQuery(float(th), spatial, channel, geom, method)
                    rows.append((v, method, analytic.coverage_probability(query), None, None, None))
    return rows, {}, None


# ---------------------------------------------------------------------------
# replay subcommand
# ---------------------------------------------------------------------------


def cmd_replay(cfg, args, seed):
    geom = build_geometry(cfg)
    spatial = _corridor_spatial(cfg, geom, "replay")
    trials = _get_int(cfg, "run", "trials")
    batch_size = _get_int(cfg, "run", "batch_size")
    channel = build_channel(cfg)
    fading = cfg["replay"]["fading"].strip().lower()
    if fading not in ("redraw", "fromtrace"):
        raise ConfigError(f"unknown [replay] fading {fading!r}")
    values = _mc_theta_grid(cfg, "replay")
    trace = Trace.from_csv(args.trace)

    rows = []
    sir = {}
    for policy in (simulator.MAX_POWER, simulator.MIN_DISTANCE):
        result = simulator.trace_replay(
            trace, spatial, geom, trials, values, seed,
            policy=policy, m=channel.m if fading == "redraw" else None, batch_size=batch_size,
        )
        rows += _curve_rows(values, f"replay_{policy}", result.coverage)
        sir[policy] = result.sir
    extra = {"trace": args.trace, "n_trace_samples": trace.n_samples}
    if args.out is None:  # the SIR table is a file next to the coverage table, never stdout
        return rows, extra, None
    if any(result is None for result in sir.values()):
        print("note: no SIR fell inside the histogram grid of -40..40 dB (as with one UAV per "
              "trial, whose SIR is infinite); no _sir_pdf.csv is written", file=sys.stderr)
        return rows, extra, None

    edges = sir[simulator.MAX_POWER].edges
    bins = zip(edges[:-1], edges[1:], sir[simulator.MAX_POWER].density,
               sir[simulator.MIN_DISTANCE].density)
    columns = ["bin_left_db", "bin_right_db", "density_max_power", "density_min_distance"]
    return rows, extra, ("_sir_pdf.csv", _csv_text(columns, ([float(x) for x in b] for b in bins)))


# ---------------------------------------------------------------------------
# height-study subcommand
# ---------------------------------------------------------------------------


def _height_samples(cfg, args, geom, seed):
    """The trace's heights, or [height_study] count draws of the [geometry]
    height model."""
    if args.trace is not None:
        trace = Trace.from_csv(args.trace)
        grounded = np.flatnonzero(trace.height_m <= 0)
        if grounded.size:
            i = grounded[0]
            raise DataInsufficiencyError(
                f"trace {args.trace}: the sample at position {trace.position_m[i]:.6g} m has "
                f"height {trace.height_m[i]:.6g} m; a height model needs positive heights"
            )
        return trace.height_m, f"trace:{args.trace}"
    count = _get_int(cfg, "height_study", "count")
    if count < 0:
        raise ConfigError(f"[height_study] count={count!r} must be >= 0")
    kind = cfg["geometry"]["height_model"].strip().lower()
    return simulator.sample_heights(geom.height_model, count, seed), f"synthetic:{kind}"


def cmd_height_study(cfg, args, seed):
    values = _mc_theta_grid(cfg, "height-study")
    trials = _get_int(cfg, "run", "trials")
    batch_size = _get_int(cfg, "run", "batch_size")
    geom = build_geometry(cfg)
    spatial = _corridor_spatial(cfg, geom, "height-study")
    channel = build_channel(cfg)
    heights, source = _height_samples(cfg, args, geom, seed)
    if len(heights) < 30:
        raise DataInsufficiencyError(
            f"need at least 30 height samples to fit a model, got {len(heights)}"
        )

    mu, sigma = simulator.fit_normal_height(heights)
    lo, hi = simulator.fit_uniform_height(heights)
    if not lo > 0:
        raise DataInsufficiencyError(
            f"the moment-fitted uniform height model [{lo:.6g}, {hi:.6g}] m reaches the "
            "ground: the heights are too spread for a uniform fit"
        )

    fixed = simulator.empirical_coverage(
        spatial, CorridorGeometry(geom.R, FixedHeight(mu)), channel, values, trials, seed, batch_size
    )
    rows = _curve_rows(values, "fixed", fixed)
    gaps, kl_normal, kl_uniform = {}, 0.0, 0.0
    if sigma >= 1e-9:  # else the degenerate study: the fixed curve only
        kl = simulator.height_model_kl_study(
            spatial, geom.R, heights, channel, values, trials, seed, batch_size
        )
        for name, curve in (("variable_normal", kl.normal_coverage),
                            ("variable_uniform", kl.uniform_coverage)):
            rows += _curve_rows(values, name, curve)
            gaps[name] = curve.max_gap(fixed)
        kl_normal, kl_uniform = kl.kl_normal, kl.kl_uniform

    report = {
        "source": source,
        "n_samples": int(len(heights)),
        "fitted_normal": {"mu": mu, "sigma": sigma},
        "fitted_uniform": {"low": lo, "high": hi},
        "max_gap_vs_fixed": gaps,
        "kl_normal": kl_normal,
        "kl_uniform": kl_uniform,
        "normal_preferred": bool(kl_normal <= kl_uniform),
        "config_hash": config_hash(cfg),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return rows, {"report": report}, ("_report.json", text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _run_table_command(args):
    """Run a table command, (cfg, args, seed) -> (rows, extra metadata,
    (file suffix, side text) or None), and write its table, then its side
    text to --out's stem plus the suffix, or to stdout after the table."""
    command = {"coverage": cmd_coverage, "replay": cmd_replay, "height-study": cmd_height_study}
    cfg = _apply_overrides(_load_config(args.config), args)
    seed = _get_int(cfg, "run", "seed")
    chash = config_hash(cfg)
    t0 = time.perf_counter()
    rows, extra, side = command[args.command](cfg, args, seed)
    log.info("%s: %d rows in %.3f s", args.command, len(rows), time.perf_counter() - t0)

    def number(x):
        return None if x is None else float(x)

    rows = [
        {"sweep_value": float(v), "method": method, "coverage": float(c), "stderr": number(se),
         "seed": seed, "config_hash": chash, "ci_low": number(lo), "ci_high": number(hi)}
        for v, method, c, se, lo, hi in rows
    ]
    if args.format == "csv":
        text = _csv_text(CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS] for row in rows))
    else:
        metadata = dict(extra, command=args.command, config=cfg, config_hash=chash, seed=seed,
                        generated_at=datetime.now(timezone.utc).isoformat())
        text = json.dumps({"metadata": metadata, "rows": rows}, sort_keys=True, indent=2) + "\n"
    write_output(text, args.out)
    if side is not None:
        suffix, side_text = side
        side_out = None if args.out is None else os.path.splitext(args.out)[0] + suffix
        write_output(side_text, side_out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corridor-cov",
        description="Coverage probability of UAV corridor-assisted networks: "
        "analytic engine plus Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a dotted dest is the "section.key" of the config value the flag overrides
    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", dest="run.seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--from", dest="sweep.start", type=float, help="sweep start")
        p.add_argument("--to", dest="sweep.stop", type=float, help="sweep end (inclusive)")
        p.add_argument("--step", dest="sweep.step", type=float, help="sweep step")
        p.add_argument("--trials", dest="run.trials", type=int,
                       help="Monte Carlo trials of each simulation run")

    p_cov = sub.add_parser("coverage", help="coverage-probability sweeps")
    common(p_cov)
    p_cov.add_argument("--sweep", dest="sweep.axis", choices=("theta", "lambda", "R", "h", "N"))
    p_cov.add_argument("--values", dest="sweep.values",
                       help="explicit comma-separated sweep values")
    p_cov.add_argument("--methods", dest="sweep.methods",
                       help="comma list: exact,dominant,single-dominant,mc")
    p_cov.add_argument("--theta-db", dest="run.theta_db", type=float,
                       help="fixed theta for non-theta sweeps")

    p_rep = sub.add_parser("replay", help="measurement-trace replay")
    common(p_rep)
    p_rep.add_argument("--trace", required=True, help="trace CSV (position_m,height_m,rx_power_dbm)")
    p_rep.add_argument("--fading", dest="replay.fading", choices=("redraw", "fromtrace"),
                       help="fading mode")

    p_h = sub.add_parser("height-study", help="variable-height model fitting and comparison")
    common(p_h)
    p_h.add_argument("--trace", help="take height samples from this trace CSV")

    p_st = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_st.add_argument("--trials", type=int, default=200_000, help="Monte Carlo trials per check")

    return parser


def main(argv=None):
    level = os.environ.get("CORRIDOR_COV_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            from . import selftest

            return EXIT_OK if selftest.run(trials=args.trials) == 0 else EXIT_NUMERIC
        return _run_table_command(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TraceFormatError, MappingError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataInsufficiencyError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
