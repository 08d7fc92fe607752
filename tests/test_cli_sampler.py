"""A seeded argv sampler: small random command lines over every subcommand
and the square, hex, skew, 3-D and sphere manifolds, mostly valid and at
times with an edge or invalid value (a reversed, short or malformed grid,
zero or negative counts and widths, out-of-range A).  Every run must end
in exit 0, 2 or 3, never a traceback, and every exit-0 run must replay
byte for byte."""

import numpy as np
from click.testing import CliRunner

from weyl_lab.cli import main

MANIFOLDS = ["torus:2:square2pi", "torus:2:hex", "torus:2:mat:1,0.9;0,0.2",
             "torus:3:square2pi", "sphere2"]
# the largest lambda drawn per manifold keeps every run small
TOP = {"torus:3:square2pi": 15.0, "sphere2": 100.0}
A_VALUES = ["1e-9", "0.05", "0.2", "1", "1.5", "0", "-1"]
# a 3-D projector at A >= 0.2 takes from half a second to many: the 3-D
# torus draws only the refused widths and the small ones
A_VALUES_3D = ["1e-9", "0.05", "1.5", "0", "-1"]
SUBCOMMANDS = ["eigens", "kernel", "remainder-scan", "offdiag-scan", "smooth-compare",
               "cluster-bessel", "randomwave", "appendix-a", "cluster-sup"]
DRAWS = 100


class Draw:
    """Option values from one seeded generator: the first choice mostly,
    an edge or invalid one now and then."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.turns = {}

    def cycle(self, values):
        """values in turn, so that every one of them is drawn."""
        turn = self.turns[tuple(values)] = self.turns.get(tuple(values), -1) + 1
        return values[turn % len(values)]

    def pick(self, values):
        return values[int(self.rng.integers(len(values)))]

    def maybe(self, good, edges, p=0.1):
        return self.pick(edges) if self.rng.random() < p else good

    def number(self, lo, hi):
        return "%.4g" % self.rng.uniform(lo, hi)

    def grid(self, lo, hi, counts=(3, 4)):
        """lo:hi:count[:log], ascending; now and then reversed, too short or
        malformed."""
        a, b = sorted(float(self.number(lo, hi)) for _ in range(2))
        count = self.maybe(self.pick(counts), [-1, 0, 1, 2])
        suffix = self.maybe(self.pick(["", ":log"]), [":lin"], 0.05)
        if self.rng.random() < 0.05:
            a, b = b, a
        return "%.4g:%.4g:%d%s" % (a, b, count, suffix)


def draw_argv(d: Draw, name: str) -> list:
    """One command line of subcommand `name`: a manifold and small option
    values."""
    manifold = d.pick(MANIFOLDS)
    top = TOP.get(manifold, 60.0)
    args = [name, "--manifold", manifold]
    if name == "eigens":
        args += ["--lambda-grid", d.maybe(d.grid(0.5, top), ["0:1e9:1"])]
    elif name == "kernel":
        args += ["--lambda", d.maybe(d.number(0.5, top), ["0", "-1"]),
                 "--width", d.pick(["0", "0", "1", d.maybe("0.3", ["-1"])]),
                 "--dist-grid", d.grid(0.0, 1.5, (1, 5))]
    elif name == "remainder-scan":
        args += ["--lambda-grid", d.grid(2.0, top),
                 "--pairs", d.maybe(d.pick(["1", "3"]), ["0", "-2"])]
    elif name == "offdiag-scan":
        args += ["--lambda-grid", d.grid(2.0, top),
                 "--eps", d.maybe(d.pick(["0.3", "1"]), ["0", "-1", "3"]),
                 "--pairs", d.maybe(d.pick(["1", "3"]), ["0"])]
    elif name == "smooth-compare":
        a_values = A_VALUES_3D if manifold == "torus:3:square2pi" else A_VALUES
        args += ["--lambda-grid", d.grid(0.5, min(top, 15.0), (1, 2)),
                 "--A", d.cycle(a_values), "--pairs", d.maybe(d.pick(["1", "2"]), ["0"])]
    elif name == "cluster-bessel":
        args += ["--lambda", d.maybe(d.number(0.5, top), ["0", "-1"]),
                 "--width", d.maybe(d.pick(["1", "0.5"]), ["0", "-1"]),
                 "--dist-grid", d.grid(0.0, 0.04 if "mat" in manifold else 0.5, (1, 5))]
    elif name == "randomwave":
        args += ["--mode", d.maybe(d.pick(["sample", "covariance", "rescaled"]), ["other"]),
                 "--lambda", d.maybe(d.number(0.5, top), ["0", "-1"]),
                 "--samples", d.maybe(d.pick(["3", "20"]), ["0", "-1"]),
                 "--dist-grid", d.grid(0.0, 1.0, (1, 4))]
    elif name == "appendix-a":
        args = [name, "--lambda-grid", d.grid(0.5, 100.0),
                "--N", d.maybe(d.pick(["4", "5"]), ["1", "2"]),
                "--p", d.maybe(d.pick(["0", "0,1,2"]), ["1.5", "-1"])]
    else:
        args += ["--lambda-grid", d.grid(2.0, top),
                 "--A-rule", d.maybe(d.pick(["1.0", "one-over-log", "0.3"]), ["0", "-1"])]
    if name in ("kernel", "remainder-scan", "cluster-bessel", "cluster-sup"):
        if d.rng.random() < 0.4:
            args += ["--deriv", d.maybe(d.pick(["0,0", "1,0", "0,1", "1,1"]), ["2,1", "a,1"])]
    if name in ("remainder-scan", "offdiag-scan", "smooth-compare", "randomwave"):
        if d.rng.random() < 0.3:
            args += ["--seed", d.pick(["0", "1", "7"])]
    return args


def test_seeded_argv_draws_exit_cleanly_and_replay(tmp_path):
    d = Draw(2026)
    exits = {}
    for i in range(DRAWS):
        args = draw_argv(d, SUBCOMMANDS[i % len(SUBCOMMANDS)])
        out = tmp_path / str(i)
        res = CliRunner().invoke(main, args + ["--out", str(out)])
        assert res.exit_code in (0, 2, 3), (args, res.output, res.exception)
        exits.setdefault(args[0], []).append(res.exit_code)
        csv = out / (args[0] + ".csv")
        if res.exit_code:
            assert not csv.exists(), args
            continue
        replayed = CliRunner().invoke(
            main, ["replay", str(out / (args[0] + ".manifest.json")), "--out", str(out / "r")])
        assert replayed.exit_code == 0, (args, replayed.output, replayed.exception)
        assert (out / "r" / csv.name).read_bytes() == csv.read_bytes(), args
    # every subcommand runs at least once, and the draws reach both kinds
    # of refusal
    assert all(0 in codes for codes in exits.values()), exits
    codes = sum(exits.values(), [])
    assert 2 in codes and 3 in codes, exits
