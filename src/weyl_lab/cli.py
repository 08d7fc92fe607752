"""Command-line front end: every experiment is a subcommand writing a CSV
data file plus a JSON run manifest; `replay` re-runs a manifest and must
reproduce the CSV byte-for-byte (the manifest records its sha256, and a
replay that would write other bytes exits 1 without writing).

Floats are printed with 17 significant digits so reproducibility is
checkable by byte comparison.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import cluster_sup_scan, localized_integral, localized_sum
from .errors import (
    DomainError,
    PreconditionError,
    QuadratureError,
    ReplayError,
    ResourceLimitError,
    WeylLabError,
)
from .lattice import Lattice, injectivity_radius
from .manifolds import (
    ZERO_DERIV,
    DerivIndex,
    FlatTorus,
    RoundSphere2,
    cluster_kernel,
    eigenlevels,
    spectral_function,
)
from .projector import cluster_vs_bessel, geodesic_points, offdiagonal_scan, remainder_scan
from .randomwaves import (
    RandomWaveEnsemble,
    empirical_covariance,
    exact_covariance,
    rescaled_covariance_error,
    sample_wave_grid,
)
from .rng import uniform_matrix
from .smoothing import MollifierSpec, SmoothedProjector

EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _number(piece: str, text: str, kind=float):
    """`piece` of the option value `text` read as a finite `kind`;
    DomainError naming both when it is not one."""
    try:
        value = kind(piece)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        where = "" if piece == text else " in %r" % text
        raise DomainError("%r%s is not %s" % (
            piece, where, "an integer" if kind is int else "a finite number"))
    return value


def _numbers(text: str, whole: str | None = None, kind=float) -> list:
    """The comma-separated `kind` values of `text`, a part of `whole`."""
    return [_number(v, whole or text, kind) for v in text.split(",")]


def parse_manifold(text: str):
    parts = text.split(":")
    if parts[0] == "sphere2":
        if len(parts) == 1:
            return RoundSphere2()
        if len(parts) == 2:
            return RoundSphere2(radius=_number(parts[1], text))
        raise DomainError("bad manifold spec %r" % text)
    if parts[0] == "torus":
        if len(parts) < 3:
            raise DomainError("torus spec is torus:<dim>:<basis>, got %r" % text)
        dim = _number(parts[1], text, int)
        basis_spec = ":".join(parts[2:])
        if basis_spec == "square2pi":
            return FlatTorus(Lattice.square(2.0 * np.pi, dim=dim))
        if basis_spec == "unit":
            return FlatTorus(Lattice.square(1.0, dim=dim))
        if basis_spec == "hex":
            if dim != 2:
                raise DomainError("hex lattice is 2-d")
            return FlatTorus(Lattice.hexagonal(1.0))
        if basis_spec.startswith("diag:"):
            entries = _numbers(basis_spec[5:], text)
            if len(entries) != dim:
                raise DomainError("diag basis needs %d entries" % dim)
            return FlatTorus(Lattice.from_basis(np.diag(entries)))
        if basis_spec.startswith("mat:"):
            rows = [_numbers(row, text) for row in basis_spec[4:].split(";")]
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise DomainError("mat basis needs %d rows of %d entries, got %r"
                                  % (dim, dim, text))
            return FlatTorus(Lattice.from_basis(np.array(rows)))
        raise DomainError("unknown torus basis %r" % basis_spec)
    raise DomainError("unknown manifold %r (use torus:<n>:<basis> or sphere2[:R])" % text)


def parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise DomainError("grid spec is lo:hi:count[:log], got %r" % text)
    lo, hi = _number(parts[0], text), _number(parts[1], text)
    count = _number(parts[2], text, int)
    if count < 1:
        raise DomainError("grid count must be >= 1")
    if count == 1:
        return np.array([hi])
    if len(parts) == 4:
        if parts[3] != "log":
            raise DomainError("grid suffix must be 'log', got %r" % parts[3])
        if lo <= 0.0:
            raise DomainError("log grid needs lo > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def parse_deriv(text: str | None) -> DerivIndex:
    if not text:
        return ZERO_DERIV
    orders = _numbers(text, kind=int)
    if len(orders) != 2:
        raise DomainError("--deriv takes 'ax,ay': first-coordinate orders on x and y")
    ax, ay = orders
    return DerivIndex(alpha=(ax, 0), beta=(ay, 0))


def parse_vector(text: str | None, dim: int) -> np.ndarray | None:
    """The point or direction `text` names; None when it is unset."""
    if not text:
        return None
    vals = _numbers(text)
    if len(vals) != dim:
        raise DomainError("expected %d comma-separated values, got %r" % (dim, text))
    return np.array(vals)


def seeded_cell_points(lattice: Lattice, count: int, seed: int, salt: int) -> np.ndarray:
    """Deterministic points uniform over the fundamental cell."""
    u = uniform_matrix(seed + salt, np.arange(count), lattice.dim)
    return u @ lattice.basis.T


def seeded_pairs(lattice: Lattice, count: int, seed: int, max_dist: float | None = None):
    """(x, y) pairs with y = x + offset; offsets have seeded directions and
    radii spread over (0, max_dist] (default: half the injectivity radius).
    DomainError unless there is at least one pair."""
    if count < 1:
        raise DomainError("--pairs must be >= 1, got %d" % count)
    if max_dist is None:
        max_dist = 0.5 * injectivity_radius(lattice)
    xs = seeded_cell_points(lattice, count, seed, salt=101)
    u = uniform_matrix(seed + 202, np.arange(count), 2)
    radii = max_dist * (np.arange(1, count + 1) / count)
    angles = 2.0 * np.pi * u[:, 0]
    if lattice.dim == 2:
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        z = 2.0 * u[:, 1] - 1.0
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([r * np.cos(angles), r * np.sin(angles), z], axis=1)
    return [(xs[i], xs[i] + radii[i] * dirs[i]) for i in range(count)]


def _cell_format(kind: type) -> str:
    """The %-format that writes a value of this type as `fmt` does."""
    if issubclass(kind, (bool, np.bool_)):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def csv_bytes(header, rows) -> bytes:
    """The CSV of `rows`, each cell written as `fmt` writes it: one
    %-template per row type signature, built on first use."""
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(template % row)
    return ("\n".join(lines) + "\n").encode("ascii")


def write_outputs(out_dir: str, name: str, header, rows, config: dict,
                  results: dict | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / (name + ".csv")
    data = csv_bytes(header, rows)
    csv_path.write_bytes(data)
    manifest = {
        "subcommand": name,
        "artifact_version": __version__,
        "seed": config.get("seed"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "full_config": config,
        "csv_sha256": hashlib.sha256(data).hexdigest(),
    }
    if results:
        manifest["results"] = results
    (out / (name + ".manifest.json")).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return csv_path


def check_replay(manifest: dict, data: bytes):
    """ReplayError unless `data` has the CSV sha256 the manifest recorded
    (a manifest without one, written before digests were kept, passes)."""
    recorded = manifest.get("csv_sha256")
    got = hashlib.sha256(data).hexdigest()
    if recorded is not None and got != recorded:
        raise ReplayError(
            "replay would write a different CSV: sha256 %s, the manifest recorded %s "
            "(manifest artifact_version %s, this artifact_version %s); nothing written"
            % (got, recorded, manifest.get("artifact_version"), __version__))


def execute(name: str, config: dict, out_dir: str, replayed: dict | None = None) -> Path:
    """Run a subcommand and write its outputs; with the manifest being
    replayed, refuse to write a CSV that differs from the recorded one.
    The runner is looked up in RUNNERS at call time."""
    header, rows, results = RUNNERS[name](config)
    if replayed is not None:
        check_replay(replayed, csv_bytes(header, rows))
    path = write_outputs(out_dir, name, header, rows, config, results)
    if results:
        for key, val in results.items():
            click.echo("%s: %s" % (key, fmt(val) if isinstance(val, float) else val))
    click.echo("wrote %s" % path)
    return path


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, PreconditionError) as exc:
            click.echo("config error: %s" % exc, err=True)
            sys.exit(EXIT_CONFIG)
        except ResourceLimitError as exc:
            click.echo("resource limit: %s" % exc, err=True)
            sys.exit(EXIT_RESOURCE)
        except (QuadratureError, FloatingPointError, ArithmeticError) as exc:
            click.echo("numeric failure: %s" % exc, err=True)
            sys.exit(EXIT_NUMERIC)
        except WeylLabError as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(EXIT_NUMERIC)

    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical lab for two-point Weyl asymptotics on model manifolds."""


class FiniteFloat(click.types.FloatParamType):
    """click's float type refusing nan and infinities (a usage error, exit
    2); its name stays `float`, so `--help` reads as before."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail("%r is not a finite number" % value, param, ctx)
        return value


FINITE_FLOAT = FiniteFloat()

manifold_option = click.option("--manifold", required=True,
                               help="torus:<n>:<basis> or sphere2[:radius]; bases: "
                                    "square2pi, unit, hex, diag:a,b[,c], mat:a,b;c,d")
out_option = click.option("--out", default=".", show_default=True,
                          help="output directory for CSV + manifest")
seed_option = click.option("--seed", default=0, show_default=True, type=int)
deriv_option = click.option("--deriv", default=None,
                            help="ax,ay: first-coordinate derivative orders on x and y")
lambda_grid_option = click.option("--lambda-grid", required=True)
lambda_option = click.option("--lambda", "lam", required=True, type=FINITE_FLOAT)

# subcommand name -> runner; `subcommand` fills it
RUNNERS: dict = {}


def subcommand(name: str, *options):
    """Register the decorated runner as subcommand `name`: its options (plus
    `--out`) and docstring make the click command, and the options' values,
    with `seed` 0 where there is no `--seed`, are its manifest config."""
    def register(runner):
        RUNNERS[name] = runner

        def command(out, **config):
            config.setdefault("seed", 0)
            execute(name, config, out)

        command = guarded(command)
        for option in reversed((*options, out_option)):
            command = option(command)
        main.command(name, help=runner.__doc__)(command)
        return runner

    return register


# ---------------------------------------------------------------------------
# subcommand runners: config dict -> (header, rows, results); pure given the
# config, so `replay` reproduces the CSV byte-for-byte


def _base_and_direction(config: dict, dim: int):
    """The --x0 and --direction vectors of `config` (None where unset)."""
    return parse_vector(config.get("x0"), dim), parse_vector(config.get("direction"), dim)


@subcommand("eigens", manifold_option,
            click.option("--lambda-grid", required=True,
                         help="lo:hi:count[:log]; the hi endpoint is the level-table cutoff"))
def run_eigens(config: dict):
    """Eigenvalue level table up to the grid's upper endpoint."""
    m = parse_manifold(config["manifold"])
    grid = parse_grid(config["lambda_grid"])
    lam_max = float(grid[-1])
    levels = eigenlevels(m, lam_max)
    rows, cum = [], 0
    for i, lv in enumerate(levels):
        cum += lv.multiplicity
        rows.append((i, lv.sqrt_eigenvalue, lv.multiplicity, cum))
    header = ["level_index", "sqrt_eigenvalue", "multiplicity", "cumulative_count"]
    return header, rows, {"lambda_max": lam_max, "total_multiplicity": cum}


@subcommand("kernel", manifold_option, lambda_option,
            click.option("--width", default=0.0, show_default=True, type=FINITE_FLOAT,
                         help="0 evaluates E_lambda; > 0 evaluates the cluster window"),
            click.option("--dist-grid", default="0:0:1", show_default=True),
            click.option("--x0", default=None, help="base point (torus only)"),
            click.option("--direction", default=None, help="geodesic direction (torus only)"),
            deriv_option)
def run_kernel(config: dict):
    """Spectral function / cluster kernel along a geodesic."""
    m = parse_manifold(config["manifold"])
    lam = float(config["lam"])
    width = float(config["width"])
    d = parse_deriv(config.get("deriv"))
    dists = parse_grid(config["dist_grid"])
    x0, points, _ = geodesic_points(m, dists, *_base_and_direction(config, m.dim))
    if width > 0.0:
        values = cluster_kernel(m, lam, width, x0, points, d)
    else:
        values = spectral_function(m, lam, x0, points, d)
    header = ["dist", "cluster_value" if width > 0.0 else "spectral_function"]
    return header, list(zip(dists, values)), None


@subcommand("remainder-scan", manifold_option, lambda_grid_option,
            click.option("--pairs", default=1, show_default=True,
                         help="1 = diagonal pair only; more adds seeded near-diagonal pairs"),
            deriv_option, seed_option)
def run_remainder_scan(config: dict):
    """Sup of |Weyl remainder| over pairs, per lambda, with exponent fit."""
    m = parse_manifold(config["manifold"])
    if not isinstance(m, FlatTorus):
        raise DomainError("remainder-scan is defined on flat tori")
    grid = parse_grid(config["lambda_grid"])
    d = parse_deriv(config.get("deriv"))
    n_pairs = int(config["pairs"])
    seed = int(config["seed"])
    if n_pairs <= 1:
        pairs = [(np.zeros(m.dim), np.zeros(m.dim))]
    else:
        pairs = seeded_pairs(m.lattice, n_pairs, seed,
                             max_dist=0.45 * injectivity_radius(m.lattice))
    rep = remainder_scan(m, grid, pairs, d)
    rows = list(zip(rep.lambda_grid, rep.sup_values))
    header = ["lambda", "sup_abs_remainder"]
    return header, rows, {"fitted_exponent": rep.fitted_exponent,
                          "fit_residual": rep.fit_residual, "num_pairs": len(pairs)}


@subcommand("offdiag-scan", manifold_option, lambda_grid_option,
            click.option("--eps", required=True, type=FINITE_FLOAT,
                         help="minimum pair distance"),
            click.option("--pairs", default=6, show_default=True), seed_option)
def run_offdiag_scan(config: dict):
    """Sup of |E_lambda| over pairs at distance >= eps, with exponent fit."""
    m = parse_manifold(config["manifold"])
    grid = parse_grid(config["lambda_grid"])
    eps = float(config["eps"])
    n_pairs = int(config["pairs"])
    seed = int(config["seed"])
    if isinstance(m, FlatTorus):
        inj = injectivity_radius(m.lattice)
        if eps >= inj:
            raise DomainError("eps must be below the injectivity radius %.6g" % inj)
        xs = seeded_cell_points(m.lattice, n_pairs, seed, salt=11)
        u = uniform_matrix(seed + 33, np.arange(n_pairs), 2)
        radii = eps + (inj * 0.999 - eps) * u[:, 0]
        angles = 2.0 * np.pi * u[:, 1]
        pairs = []
        for i in range(n_pairs):
            off = radii[i] * np.array([np.cos(angles[i]), np.sin(angles[i])]) \
                if m.dim == 2 else radii[i] * np.eye(3)[0]
            pairs.append((xs[i], xs[i] + off))
    else:
        u = uniform_matrix(seed + 7, np.arange(n_pairs), 1)[:, 0]
        lo = eps / m.radius
        thetas = lo + (np.pi - 2.0 * lo) * u
        north = m.radius * np.array([0.0, 0.0, 1.0])
        pairs = [(north, m.radius * np.array([np.sin(t), 0.0, np.cos(t)]))
                 for t in thetas]
    rep = offdiagonal_scan(m, grid, eps, pairs)
    rows = list(zip(rep.lambda_grid, rep.sup_values))
    header = ["lambda", "sup_abs_spectral_function"]
    return header, rows, {"fitted_exponent": rep.fitted_exponent,
                          "fit_residual": rep.fit_residual}


@subcommand("smooth-compare", manifold_option, lambda_grid_option,
            click.option("--A", "A", required=True,
                         help="comma-separated mollifier widths, e.g. 1.0,0.5"),
            click.option("--pairs", default=20, show_default=True), seed_option)
def run_smooth_compare(config: dict):
    """Spectral-side vs method-of-images smoothed projector."""
    m = parse_manifold(config["manifold"])
    if not isinstance(m, FlatTorus):
        raise DomainError("smooth-compare is defined on flat tori")
    grid = parse_grid(config["lambda_grid"])
    a_values = _numbers(str(config["A"]))
    n_pairs = int(config["pairs"])
    seed = int(config["seed"])
    spec = MollifierSpec.for_manifold(m)
    cell = m.lattice.basis @ (0.5 * np.ones(m.dim))
    max_dist = float(np.linalg.norm(cell))
    pairs = seeded_pairs(m.lattice, n_pairs, seed, max_dist=max_dist)
    xs = np.array([x for x, _ in pairs]).reshape(-1, m.dim)
    ys = np.array([y for _, y in pairs]).reshape(-1, m.dim)
    rows, results = [], {}
    for lam in grid:
        for a in a_values:
            proj = SmoothedProjector(m, spec, float(lam), a)
            spectral = proj.spectral(xs, ys)
            images = proj.images(xs, ys)
            diffs = np.abs(spectral - images)
            for i, (x, y) in enumerate(pairs):
                rows.append((lam, a, i, *x, *y, spectral[i], images[i], diffs[i]))
            results["max_rel_err_lambda=%s_A=%s" % (fmt(float(lam)), fmt(a))] = float(
                np.max(diffs / (1.0 + np.abs(spectral)), initial=0.0))
    coords = range(1, m.dim + 1)
    header = (["lambda", "A", "pair_index"] + ["x%d" % k for k in coords]
              + ["y%d" % k for k in coords] + ["spectral", "images", "abs_diff"])
    return header, rows, results


@subcommand("cluster-bessel", manifold_option, lambda_option,
            click.option("--width", default=1.0, show_default=True, type=FINITE_FLOAT),
            click.option("--dist-grid", required=True),
            click.option("--x0", default=None), click.option("--direction", default=None),
            deriv_option)
def run_cluster_bessel(config: dict):
    """Cluster kernel vs the universal Bessel prediction."""
    m = parse_manifold(config["manifold"])
    x0, direction = _base_and_direction(config, m.dim)
    table = cluster_vs_bessel(m, float(config["lam"]), float(config["width"]), x0,
                              parse_grid(config["dist_grid"]),
                              parse_deriv(config.get("deriv")), direction=direction)
    rows = [(r, c, p, e, e / table.diagonal if table.diagonal else np.nan)
            for r, c, p, e in zip(table.dists, table.cluster,
                                  table.bessel_prediction, table.abs_error)]
    header = ["dist", "cluster", "bessel_prediction", "abs_error", "err_over_diagonal"]
    return header, rows, {"diagonal": table.diagonal,
                          "mean_shell_radius": table.mean_shell_radius}


@subcommand("randomwave", manifold_option,
            click.option("--mode", type=click.Choice(["sample", "covariance", "rescaled"]),
                         required=True),
            lambda_option,
            click.option("--width", default=1.0, show_default=True, type=FINITE_FLOAT),
            click.option("--samples", default=100, show_default=True),
            click.option("--dist-grid", default="0:0:1", show_default=True,
                         help="point separations (or rescaled |u-v| values in rescaled mode)"),
            click.option("--x0", default=None), click.option("--direction", default=None),
            seed_option)
def run_randomwave(config: dict):
    """Monochromatic random-wave sampling and covariance experiments."""
    m = parse_manifold(config["manifold"])
    mode = config["mode"]
    lam = float(config["lam"])
    width = float(config["width"])
    seed = int(config["seed"])
    samples = int(config["samples"])
    ens = RandomWaveEnsemble(m, lam, width, seed=seed, num_samples=samples)
    dists = parse_grid(config["dist_grid"])
    x0, points, _ = geodesic_points(m, dists, *_base_and_direction(config, m.dim))
    if mode == "sample":
        waves = sample_wave_grid(ens, np.arange(samples), points)
        rows = [(s, i, dists[i], waves[s, i])
                for s in range(samples) for i in range(len(points))]
        header = ["sample_index", "point_index", "dist", "wave_value"]
        return header, rows, None
    if mode == "covariance":
        exact = exact_covariance(ens, x0, points)
        empirical, std_err = empirical_covariance(ens, x0, points)
        rows = [(r, emp, se, ex, abs(emp - ex), (emp - ex) / se if se > 0 else np.nan)
                for r, emp, se, ex in zip(dists, empirical, std_err, exact)]
        header = ["dist", "empirical", "std_error", "exact", "abs_diff", "z_score"]
        return header, rows, None
    if mode == "rescaled":
        if not isinstance(m, FlatTorus):
            raise DomainError("rescaled mode runs on flat tori")
        vs = np.zeros((dists.size, m.dim))
        vs[:, 0] = dists
        exact, universal, err = rescaled_covariance_error(
            ens, np.zeros(m.dim), np.zeros(m.dim), vs)
        header = ["separation", "exact_rescaled", "universal_limit", "abs_error"]
        return header, list(zip(dists, exact, universal, err)), None
    raise DomainError("randomwave mode must be sample, covariance, or rescaled")


@subcommand("appendix-a", click.option("--N", "N", default=4, show_default=True, type=int),
            click.option("--p", default="0,1,2", show_default=True,
                         help="comma-separated integer polynomial weights p >= 0 "
                              "(closed-form integrals; N > p + 1)"),
            lambda_grid_option)
def run_appendix_a(config: dict):
    """Localized sums and integrals with boundedness ratios."""
    n_exp = int(config["N"])
    p_values = _numbers(str(config["p"]))
    grid = parse_grid(config["lambda_grid"])
    rows, results = [], {}
    for p in p_values:
        ratios = []
        for lam in grid:
            s = localized_sum(float(lam), n_exp, p)
            integ = localized_integral(float(lam), n_exp, p)
            ratio = s / float(lam) ** p
            ratios.append(ratio)
            rows.append((lam, p, s, integ, ratio, s / integ))
        results["ratio_spread_p=%s" % fmt(p)] = max(ratios) / min(ratios)
    header = ["lambda", "p", "localized_sum", "localized_integral",
              "sum_over_lambda_p", "sum_over_integral"]
    return header, rows, results


@subcommand("cluster-sup", manifold_option, lambda_grid_option,
            click.option("--A-rule", "A_rule", default="1.0", show_default=True,
                         help="fixed width or 'one-over-log'"),
            deriv_option)
def run_cluster_sup(config: dict):
    """Diagonal windowed cluster sums along a lambda grid."""
    m = parse_manifold(config["manifold"])
    grid = parse_grid(config["lambda_grid"])
    rule_text = str(config["A_rule"])
    rule = rule_text if rule_text == "one-over-log" else _number(rule_text, rule_text)
    d = parse_deriv(config.get("deriv"))
    rep = cluster_sup_scan(m, grid, rule, d)
    rows = []
    for i, lam in enumerate(rep.lambda_grid):
        a = 1.0 / np.log(lam) if rule_text == "one-over-log" else rule
        norm = rep.normalized[i] if rep.normalized is not None else ""
        rows.append((lam, a, rep.sup_values[i], norm))
    header = ["lambda", "A", "sup_value", "normalized"]
    return header, rows, {"fitted_exponent": rep.fitted_exponent}


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@out_option
@guarded
def replay(manifest_path, out):
    """Re-run a manifest; the CSV it writes must be byte-identical (exit 1,
    nothing written, when its sha256 differs from the recorded one)."""
    try:
        manifest = json.loads(Path(manifest_path).read_text())
    except ValueError as exc:
        raise DomainError("manifest %s is not JSON: %s" % (manifest_path, exc)) from None
    if not isinstance(manifest, dict):
        raise DomainError("manifest %s is not a JSON object" % manifest_path)
    name = manifest.get("subcommand")
    if name not in RUNNERS:
        raise DomainError("manifest names unknown subcommand %r" % name)
    execute(name, replay_config(name, manifest.get("full_config")), out, replayed=manifest)


def replay_config(name: str, config) -> dict:
    """A manifest's `full_config` for subcommand `name`, read as the command
    reads its options: DomainError when it is not an object, lacks a
    required option or holds a value the option's type refuses (a
    non-finite float, say); an absent optional one takes the option's
    default (and `seed` 0), as the command itself would give it."""
    if not isinstance(config, dict):
        raise DomainError("manifest has no full_config object")
    options = [p for p in main.commands[name].params if p.name != "out"]
    missing = [p.name for p in options if p.required and p.name not in config]
    if missing:
        raise DomainError("manifest full_config lacks %s, required by %s"
                          % (", ".join(map(repr, missing)), name))
    values = {}
    for p in options:
        value = config.get(p.name, p.default)
        try:
            values[p.name] = None if value is None else p.type.convert(value, p, None)
        except click.BadParameter as exc:
            raise DomainError("manifest full_config: %s" % exc.format_message()) from None
    return {"seed": 0, **config, **values}


if __name__ == "__main__":
    main()
