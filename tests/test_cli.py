import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import weyl_lab
from oracles import cell_text, cellwise_csv_bytes, record_passes
from weyl_lab.cli import csv_bytes, fmt, main, parse_grid, parse_manifold
from weyl_lab.errors import DomainError
from weyl_lab.manifolds import FlatTorus, RoundSphere2
from weyl_lab.projector import offdiagonal_scan
from weyl_lab.rng import uniform_matrix

TORUS_ARGS = ["--manifold", "torus:2:square2pi"]

# golden headers: stable within a major artifact version
EXPECTED_HEADERS = {
    "eigens": "level_index,sqrt_eigenvalue,multiplicity,cumulative_count",
    "kernel": "dist,spectral_function",
    "remainder-scan": "lambda,sup_abs_remainder",
    "offdiag-scan": "lambda,sup_abs_spectral_function",
    "smooth-compare": "lambda,A,pair_index,x1,x2,y1,y2,spectral,images,abs_diff",
    "cluster-bessel": "dist,cluster,bessel_prediction,abs_error,err_over_diagonal",
    "randomwave": "dist,empirical,std_error,exact,abs_diff,z_score",
    "appendix-a": "lambda,p,localized_sum,localized_integral,sum_over_lambda_p,"
                  "sum_over_integral",
    "cluster-sup": "lambda,A,sup_value,normalized",
}


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_parse_manifold_variants():
    assert isinstance(parse_manifold("sphere2"), RoundSphere2)
    assert parse_manifold("sphere2:2.0").radius == 2.0
    t = parse_manifold("torus:2:square2pi")
    assert isinstance(t, FlatTorus) and t.dim == 2
    t3 = parse_manifold("torus:3:diag:6.28,6.28,12.56")
    assert t3.dim == 3
    tm = parse_manifold("torus:2:mat:6.28,0;0,6.28")
    assert tm.dim == 2
    with pytest.raises(DomainError):
        parse_manifold("klein:2")
    with pytest.raises(DomainError):
        parse_manifold("torus:2:wat")


def test_parse_grid_variants():
    assert np.allclose(parse_grid("0:10:1"), [10.0])
    assert np.allclose(parse_grid("1:3:3"), [1.0, 2.0, 3.0])
    assert np.allclose(parse_grid("1:100:3:log"), [1.0, 10.0, 100.0])
    with pytest.raises(DomainError):
        parse_grid("1:2")
    with pytest.raises(DomainError):
        parse_grid("0:2:5:log")
    # a one-point grid still checks its suffix
    with pytest.raises(DomainError, match="grid suffix must be 'log'"):
        parse_grid("1:2:1:foo")


def test_csv_row_templates_match_the_cellwise_writer():
    values = [True, False, np.bool_(True), np.bool_(False), 0, -7, 2**70,
              np.int64(-3), np.int32(5), np.uint8(255), 0.1, -0.0, 1e-300, 5e-324,
              1.0 / 3.0, np.float64(2.5e17), np.float32(0.1), np.nan, np.inf,
              -np.inf, np.float64(np.nan), np.float64(-np.inf), "torus:2:hex", "", None]
    rng = np.random.default_rng(5)
    rows = [tuple(rng.choice(len(values), 4)) for _ in range(200)]
    rows = [tuple(values[i] for i in row) for row in rows]
    rows += [tuple(values), [1, 2.0, "x", np.bool_(True)], (np.int64(1), 2.0)]
    header = ["a", "b", "c", "d"]
    assert csv_bytes(header, rows) == cellwise_csv_bytes(header, rows)
    assert [fmt(v) for v in values] == [cell_text(v) for v in values]
    assert csv_bytes(header, []) == b"a,b,c,d\n"
    assert csv_bytes(["x"], [(True, 1, -0.0)]) == b"x\nTrue,1,-0\n"


def test_eigens_total_multiplicity(tmp_path):
    res = run_cli(["eigens", "--manifold", "torus:2:square2pi",
                   "--lambda-grid", "0:10:1", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "eigens.csv").read_text().strip().splitlines()
    assert lines[0] == EXPECTED_HEADERS["eigens"]
    assert lines[-1].split(",")[-1] == "317"


def test_kernel_sphere_value(tmp_path):
    res = run_cli(["kernel", "--manifold", "sphere2", "--lambda", "1.5",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == EXPECTED_HEADERS["kernel"]
    value = float(lines[1].split(",")[1])
    assert value == pytest.approx(1.0 / np.pi, rel=1e-15)  # 1/(4pi) + 3/(4pi)


def test_kernel_torus_cluster_window(tmp_path):
    res = run_cli(["kernel", "--manifold", "torus:2:square2pi", "--lambda", "0.5",
                   "--width", "0.8", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "dist,cluster_value"
    # window (0.5, 1.3] holds the four unit modes
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0 / np.pi**2, rel=1e-12)


def test_invalid_manifold_exits_2_without_files(tmp_path):
    out = tmp_path / "nothing"
    res = run_cli(["kernel", "--manifold", "junk", "--lambda", "2.0",
                   "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


def test_resource_cap_exits_3(tmp_path):
    res = run_cli(["eigens", "--manifold", "torus:2:square2pi",
                   "--lambda-grid", "0:1000000:1", "--out", str(tmp_path)])
    assert res.exit_code == 3


HUGE = str(10**15)


@pytest.mark.parametrize("args,named", [
    (["eigens", *TORUS_ARGS, "--lambda-grid", "1:2:" + HUGE],
     "the grid '1:2:%s' holds %s points" % (HUGE, HUGE)),
    (["kernel", *TORUS_ARGS, "--lambda", "10", "--dist-grid", "0:1:" + HUGE],
     "the grid '0:1:%s' holds %s points" % (HUGE, HUGE)),
    (["remainder-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log", "--pairs", HUGE],
     "--pairs asks for %s pairs" % HUGE),
    (["randomwave", *TORUS_ARGS, "--mode", "sample", "--lambda", "10", "--samples", HUGE],
     "--samples asks for %s samples" % HUGE),
], ids=["eigens-grid", "kernel-dist-grid", "remainder-scan-pairs", "randomwave-samples"])
def test_oversized_count_exits_3_without_files(tmp_path, args, named):
    # 10^15 grid points, pairs or samples would ask for 7.1 PiB: the one cap
    # refuses the count before anything of that size is allocated
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stderr == "resource limit: %s, exceeding the cap 100000000\n" % named
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1:0:3:log", "1:-5:3:log", "-3:0:1:log"])
def test_log_grid_with_an_end_at_or_below_zero_exits_2(tmp_path, grid):
    out = tmp_path / "nothing"
    res = run_cli(["eigens", *TORUS_ARGS, "--lambda-grid", grid, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr == "config error: log grid %r needs lo > 0 and hi > 0\n" % grid
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["kernel", *TORUS_ARGS, "--lambda", "1e300"],
    ["kernel", *TORUS_ARGS, "--lambda", "10", "--width", "1e308"],
    ["eigens", "--manifold", "torus:3:square2pi", "--lambda-grid", "0:1e200:2"],
    ["cluster-bessel", *TORUS_ARGS, "--lambda", "10", "--width", "1e308",
     "--dist-grid", "0:0.2:3"],
    ["randomwave", *TORUS_ARGS, "--mode", "covariance", "--lambda", "10",
     "--width", "1e308"],
    ["cluster-sup", *TORUS_ARGS, "--lambda-grid", "10:20:3", "--A-rule", "1e308"],
], ids=["kernel-lambda", "kernel-width", "eigens-3d", "cluster-bessel", "randomwave",
        "cluster-sup"])
def test_overflowing_radius_exits_3_without_files(tmp_path, args):
    # the coefficient box and the row lower bound are counted in floating
    # point, so an int64 cast can neither wrap the box to a negative bound
    # (an empty window, exit 0) nor overflow (exit 1)
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stderr.startswith("resource limit: ")
    assert not out.exists()


def test_one_over_log_below_lambda_one_is_refused_without_a_warning(tmp_path):
    out = tmp_path / "nothing"
    res = run_cli(["cluster-sup", *TORUS_ARGS, "--lambda-grid", "1:3:3",
                   "--A-rule", "one-over-log", "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == ("config error: window width must be positive and finite "
                          "(the one-over-log rule needs lambda > 1)\n")
    assert not out.exists()


def test_manifest_written_and_replay_identical(tmp_path):
    out1 = tmp_path / "a"
    res = run_cli(["randomwave", "--manifold", "torus:2:square2pi",
                   "--mode", "covariance", "--lambda", "20.3", "--samples", "200",
                   "--dist-grid", "0:0.2:3", "--seed", "17", "--out", str(out1)])
    assert res.exit_code == 0
    manifest = json.loads((out1 / "randomwave.manifest.json").read_text())
    assert manifest["subcommand"] == "randomwave"
    assert manifest["seed"] == 17
    assert manifest["artifact_version"]
    assert manifest["full_config"]["samples"] == 200
    out2 = tmp_path / "b"
    res2 = run_cli(["replay", str(out1 / "randomwave.manifest.json"),
                    "--out", str(out2)])
    assert res2.exit_code == 0
    assert (out1 / "randomwave.csv").read_bytes() == (out2 / "randomwave.csv").read_bytes()


@pytest.mark.parametrize(
    "name,args",
    [
        ("remainder-scan", ["remainder-scan", "--manifold", "torus:2:square2pi",
                            "--lambda-grid", "30.3:60.3:4:log"]),
        ("offdiag-scan", ["offdiag-scan", "--manifold", "torus:2:square2pi",
                          "--lambda-grid", "30.3:60.3:4:log", "--eps", "1.0",
                          "--pairs", "3", "--seed", "2"]),
        ("cluster-bessel", ["cluster-bessel", "--manifold", "torus:2:square2pi",
                            "--lambda", "30", "--width", "1.0",
                            "--dist-grid", "0:0.2:4"]),
        ("cluster-bessel", ["cluster-bessel", "--manifold", "sphere2",
                            "--lambda", "19.9", "--width", "1.0",
                            "--dist-grid", "0:0.3:4"]),
        ("appendix-a", ["appendix-a", "--lambda-grid", "50:200:3:log",
                        "--N", "4", "--p", "0,1"]),
        ("cluster-sup", ["cluster-sup", "--manifold", "torus:2:square2pi",
                         "--lambda-grid", "30.3:90.3:4:log",
                         "--A-rule", "one-over-log"]),
    ],
)
def test_headers_stable_and_replayable(tmp_path, name, args):
    out1 = tmp_path / "first"
    res = run_cli(args + ["--out", str(out1)])
    assert res.exit_code == 0, res.output
    lines = (out1 / (name + ".csv")).read_text().strip().splitlines()
    assert lines[0] == EXPECTED_HEADERS[name]
    out2 = tmp_path / "second"
    res2 = run_cli(["replay", str(out1 / (name + ".manifest.json")),
                    "--out", str(out2)])
    assert res2.exit_code == 0
    assert (out1 / (name + ".csv")).read_bytes() == (out2 / (name + ".csv")).read_bytes()


def test_smooth_compare_small_and_thread_env(tmp_path, monkeypatch):
    # with no thread variable set, a second run writes identical bytes
    monkeypatch.delenv("WEYL_LAB_THREADS", raising=False)
    args = ["smooth-compare", "--manifold", "torus:2:square2pi",
            "--lambda-grid", "3:3:1", "--A", "1.0", "--pairs", "2", "--seed", "1"]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    res = run_cli(args + ["--out", str(out1)])
    assert res.exit_code == 0, res.output
    assert run_cli(args + ["--out", str(out2)]).exit_code == 0
    assert (out1 / "smooth-compare.csv").read_bytes() == \
        (out2 / "smooth-compare.csv").read_bytes()
    lines = (out1 / "smooth-compare.csv").read_text().strip().splitlines()
    assert lines[0] == EXPECTED_HEADERS["smooth-compare"]


@pytest.mark.parametrize("manifold, lam, A", [
    ("torus:2:hex", "12", "0.2"),
    ("torus:2:square2pi", "200", "%.17g" % (1.0 / np.log(200.0))),
], ids=["hex-12", "square-200-one-over-log"])
def test_smooth_compare_poisson_gap_in_the_paper_regime(tmp_path, manifold, lam, A):
    # A ~ 1/log lambda, where the images side used to be the slow route;
    # measured gaps 4.8e-14 (hex) and 1.4e-12 (square)
    res = run_cli(["smooth-compare", "--manifold", manifold, "--lambda-grid",
                   "%s:%s:1" % (lam, lam), "--A", A, "--pairs", "10", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    results = json.loads((tmp_path / "smooth-compare.manifest.json").read_text())["results"]
    assert len(results) == 1
    assert 0.0 < next(iter(results.values())) <= 1e-6


def test_replay_ignores_the_removed_tol_key(tmp_path):
    # manifests written while smooth-compare still took --tol carry a "tol"
    # key; replaying one must write the same bytes as a fresh run
    args = ["smooth-compare", "--manifold", "torus:2:square2pi",
            "--lambda-grid", "3:3:1", "--A", "1.0", "--pairs", "2", "--seed", "1"]
    out1, out2 = tmp_path / "fresh", tmp_path / "replayed"
    assert run_cli(args + ["--out", str(out1)]).exit_code == 0
    manifest_path = out1 / "smooth-compare.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "tol" not in manifest["full_config"]
    manifest["full_config"]["tol"] = 1e-6
    old_manifest = tmp_path / "old.manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    res = run_cli(["replay", str(old_manifest), "--out", str(out2)])
    assert res.exit_code == 0, res.output
    assert (out1 / "smooth-compare.csv").read_bytes() == \
        (out2 / "smooth-compare.csv").read_bytes()


def test_smooth_compare_with_a_radial_rule_past_the_cap_exits_3(tmp_path):
    # the radial rule has 16 nodes per panel and ~1/A panels: at A = 1e-9
    # that is 7.2e10 nodes (538 GiB of nodes once allocated), refused before the
    # weight box or the rule is built
    out = tmp_path / "nothing"
    res = run_cli(["smooth-compare", *TORUS_ARGS, "--lambda-grid", "12.5:12.5:1",
                   "--A", "1e-9", "--pairs", "1", "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stderr == ("resource limit: the radial rule of the images side (A=1e-09, "
                          "image radius 2.82743e+09) holds 72181065104 nodes, exceeding "
                          "the cap 100000000\n")
    assert not out.exists()


def test_appendix_a_rejects_a_fractional_p(tmp_path):
    # the localized integrals have closed forms for integer p only
    res = run_cli(["appendix-a", "--lambda-grid", "50:200:3", "--p", "0,0.5",
                   "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: p=0.5 must be a nonnegative integer")
    assert not (tmp_path / "appendix-a.csv").exists()


# one small invocation of every subcommand, sphere and torus
SMALL_RUNS = [
    ["eigens", *TORUS_ARGS, "--lambda-grid", "0:5:1"],
    ["kernel", "--manifold", "sphere2", "--lambda", "1.5"],
    ["kernel", *TORUS_ARGS, "--lambda", "3.5", "--deriv", "1,0"],
    ["remainder-scan", "--manifold", "torus:3:square2pi", "--lambda-grid", "5.5:8.5:3:log"],
    ["offdiag-scan", "--manifold", "sphere2", "--lambda-grid", "5.5:10.5:3", "--eps", "1",
     "--pairs", "2"],
    ["smooth-compare", *TORUS_ARGS, "--lambda-grid", "5:5:1", "--A", "1", "--pairs", "2"],
    ["cluster-bessel", *TORUS_ARGS, "--lambda", "20", "--dist-grid", "0:0.1:3"],
    ["randomwave", "--manifold", "sphere2", "--mode", "covariance", "--lambda", "5.5",
     "--samples", "10", "--dist-grid", "0:0.3:3"],
    ["randomwave", *TORUS_ARGS, "--mode", "rescaled", "--lambda", "50",
     "--dist-grid", "0:2:3"],
    ["appendix-a", "--lambda-grid", "50:100:2", "--N", "3", "--p", "0,1"],
    ["cluster-sup", *TORUS_ARGS, "--lambda-grid", "10:20:3", "--A-rule", "one-over-log"],
]


def test_cli_import_loads_no_scipy_integrate(tmp_path):
    # importing scipy costs a few tenths of a second and ~20 MiB at
    # start-up; the program uses numpy alone, and scipy is only a test oracle
    code = textwrap.dedent("""
        import json, sys
        import weyl_lab.cli as cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not loaded(), loaded()
        runs, out = json.loads(sys.argv[1]), sys.argv[2]
        assert set(cli.RUNNERS) <= {argv[0] for argv in runs}
        for k, argv in enumerate(runs + [["replay", out + "/0/eigens.manifest.json"]]):
            cli.main.main(args=[*argv, "--out", "%s/%d" % (out, k)], prog_name="weyl-lab",
                          standalone_mode=False)
        assert not loaded(), loaded()
    """)
    src = os.path.dirname(os.path.dirname(weyl_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code, json.dumps(SMALL_RUNS), str(tmp_path)],
                   check=True, env=env, capture_output=True)
    assert (tmp_path / str(len(SMALL_RUNS)) / "eigens.csv").read_bytes() == \
        (tmp_path / "0" / "eigens.csv").read_bytes()


def test_randomwave_covariance_samples_waves_once(tmp_path, monkeypatch):
    import weyl_lab.randomwaves as rw

    grids = []
    original = rw.sample_wave_grid
    monkeypatch.setattr(rw, "sample_wave_grid",
                        lambda ens, idx, pts: grids.append(np.shape(pts)) or
                        original(ens, idx, pts))
    res = run_cli(["randomwave", "--manifold", "torus:2:square2pi", "--mode", "covariance",
                   "--lambda", "30", "--samples", "50", "--dist-grid", "0:0.3:6",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    # one grid over x0 and the 6 points, x0 being the point at distance 0
    assert grids == [(6, 2)]
    lines = (tmp_path / "randomwave.csv").read_text().strip().splitlines()
    assert len(lines) == 7


def test_cluster_sup_names_an_empty_sphere_window(tmp_path):
    # at lambda = 50 the window (50, 50 + 1/log 50] lies between the levels
    # sqrt(l(l+1)) = 49.50 and 50.50
    res = run_cli(["cluster-sup", "--manifold", "sphere2", "--lambda-grid", "50:300:5",
                   "--A-rule", "one-over-log", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert res.stderr == ("config error: lambda=50: the window (50, 50.2556] "
                          "holds no eigenvalue\n")


def test_smooth_compare_writes_every_coordinate_in_3d(tmp_path, monkeypatch):
    import weyl_lab.cli as cli

    class StubProjector:
        def __init__(self, *args, **kwargs):
            pass

        def spectral(self, x, y):
            return np.zeros(len(x))

        def images(self, x, y):
            return np.zeros(len(x))

    monkeypatch.setattr(cli, "SmoothedProjector", StubProjector)
    manifold = "torus:3:diag:0.5,0.5,0.5"
    res = run_cli(["smooth-compare", "--manifold", manifold, "--lambda-grid", "30:30:1",
                   "--A", "1.0", "--pairs", "2", "--seed", "1", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "smooth-compare.csv").read_text().strip().splitlines()
    assert lines[0] == ("lambda,A,pair_index,x1,x2,x3,y1,y2,y3,"
                        "spectral,images,abs_diff")
    m = parse_manifold(manifold)
    cell = m.lattice.basis @ (0.5 * np.ones(3))
    xs, ys = cli.seeded_pairs(m.lattice, 2, 1, max_dist=float(np.linalg.norm(cell)))
    for line, x, y in zip(lines[1:], xs, ys):
        fields = line.split(",")
        assert len(fields) == 12
        assert [float(v) for v in fields[3:9]] == [*x, *y]


def test_randomwave_sample_mode_determinism(tmp_path):
    args = ["randomwave", "--manifold", "torus:2:square2pi", "--mode", "sample",
            "--lambda", "10.3", "--samples", "3", "--dist-grid", "0:0.5:2",
            "--seed", "42"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli(args + ["--out", str(out1)]).exit_code == 0
    assert run_cli(args + ["--out", str(out2)]).exit_code == 0
    assert (out1 / "randomwave.csv").read_bytes() == (out2 / "randomwave.csv").read_bytes()


def _fresh_cluster_sup(tmp_path):
    out = tmp_path / "fresh"
    res = run_cli(["cluster-sup", "--manifold", "torus:2:square2pi",
                   "--lambda-grid", "30.3:90.3:4:log", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out / "cluster-sup.csv", out / "cluster-sup.manifest.json"


def test_manifest_records_the_csv_sha256(tmp_path):
    import hashlib

    csv_path, manifest_path = _fresh_cluster_sup(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    res = run_cli(["replay", str(manifest_path), "--out", str(tmp_path / "again")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "again" / "cluster-sup.csv").read_bytes() == csv_path.read_bytes()


def test_replay_of_a_tampered_config_exits_1_and_writes_nothing(tmp_path):
    _, manifest_path = _fresh_cluster_sup(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["full_config"]["A_rule"] = "2.0"
    manifest["artifact_version"] = "0.0.1-old"
    tampered = tmp_path / "tampered.manifest.json"
    tampered.write_text(json.dumps(manifest))
    out = tmp_path / "replayed"
    res = run_cli(["replay", str(tampered), "--out", str(out)])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: replay would write a different CSV")
    assert manifest["csv_sha256"] in res.stderr
    assert "manifest artifact_version 0.0.1-old" in res.stderr
    assert "this artifact_version %s" % weyl_lab.__version__ in res.stderr
    assert not out.exists()


def test_replay_of_a_manifest_without_a_digest_exits_2_and_writes_nothing(tmp_path):
    # with nothing to compare against, a replay could write other bytes
    # unnoticed, so it is refused before anything runs
    _, manifest_path = _fresh_cluster_sup(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    del manifest["csv_sha256"]
    manifest["full_config"]["A_rule"] = "2.0"
    old = tmp_path / "old.manifest.json"
    old.write_text(json.dumps(manifest))
    out = tmp_path / "replayed"
    res = run_cli(["replay", str(old), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("config error: manifest %s has no csv_sha256" % old)
    assert not out.exists()


def test_scan_grid_with_an_on_spectrum_lambda_exits_2(tmp_path):
    res = run_cli(["offdiag-scan", "--manifold", "torus:2:square2pi",
                   "--lambda-grid", "4.5:5.5:3", "--eps", "1", "--pairs", "2",
                   "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "lambda=5 is within 1e-09 of the spectrum" in res.stderr
    assert not (tmp_path / "offdiag-scan.csv").exists()


def test_scan_grid_past_the_enumeration_cap_exits_3(tmp_path):
    # lambda 1e8 needs 2e8 + 1 coefficient slabs, past the default cap of
    # 1e8: refused before any sum, naming that count
    res = run_cli(["remainder-scan", "--manifold", "torus:2:square2pi",
                   "--lambda-grid", "10.5:1e8:3", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert res.stderr.startswith("resource limit: the ball of radius 1e+08 meets "
                                 "200000001 coefficient slabs, exceeding the cap 100000000")
    assert not (tmp_path / "remainder-scan.csv").exists()


@pytest.mark.parametrize("mode,grid,expected", [
    # the ensemble's modes (an enumeration of their shell, itself on slabs)
    # and one slab pass for the exact column
    ("covariance", "0:0.3:6", {"dual_vectors": [201.0], "slabs": [201.0, 201.0]}),
    ("rescaled", "0:5:21", {"dual_vectors": [], "slabs": [201.0]}),
], ids=["covariance", "rescaled"])
def test_randomwave_modes_enumerate_once_per_ensemble(tmp_path, monkeypatch, mode, grid,
                                                      expected):
    passes = record_passes(monkeypatch, np.eye(2))
    res = run_cli(["randomwave", "--manifold", "torus:2:square2pi", "--mode", mode,
                   "--lambda", "200", "--samples", "50", "--dist-grid", grid,
                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert passes["dual_vectors"] == expected["dual_vectors"]
    assert passes["slabs"] == expected["slabs"]


@pytest.mark.parametrize("args,named", [
    (["kernel", "--manifold", "torus:x:square2pi", "--lambda", "2.5"], "'x'"),
    (["kernel", "--manifold", "sphere2:abc", "--lambda", "2.5"], "'abc'"),
    (["kernel", "--manifold", "torus:2:mat:1,0;0", "--lambda", "2.5"], "'torus:2:mat:1,0;0'"),
    (["eigens", *TORUS_ARGS, "--lambda-grid", "0:ten:1"], "'ten'"),
    (["eigens", *TORUS_ARGS, "--lambda-grid", "0:10:2.5"], "'2.5'"),
    (["kernel", *TORUS_ARGS, "--lambda", "2.5", "--x0", "1,a"], "'a'"),
    (["kernel", *TORUS_ARGS, "--lambda", "2.5", "--deriv", "1,x"], "'1,x'"),
    (["smooth-compare", *TORUS_ARGS, "--lambda-grid", "3:3:1", "--A", "0.5,x"], "'0.5,x'"),
    (["appendix-a", "--lambda-grid", "50:200:3", "--p", "0,x"], "'0,x'"),
    (["cluster-sup", *TORUS_ARGS, "--lambda-grid", "30.3:90.3:4:log", "--A-rule", "abc"],
     "'abc'"),
], ids=["torus-dim", "sphere-radius", "ragged-mat", "grid-bound", "grid-count", "x0",
        "deriv", "A", "p", "A-rule"])
def test_malformed_numbers_exit_2_without_files(tmp_path, args, named):
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: ") and named in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["kernel", *TORUS_ARGS, "--lambda", "2.5", "--direction", "0,0"],
    ["cluster-bessel", *TORUS_ARGS, "--lambda", "30", "--dist-grid", "0:0.2:3",
     "--direction", "0,0"],
    ["randomwave", *TORUS_ARGS, "--mode", "covariance", "--lambda", "30", "--samples", "20",
     "--dist-grid", "0:0.2:3", "--direction", "0,0"],
    ["kernel", "--manifold", "sphere2", "--lambda", "2.5", "--x0", "0,1"],
    ["cluster-bessel", "--manifold", "sphere2", "--lambda", "20", "--dist-grid", "0:0.2:3",
     "--direction", "1,0"],
    ["randomwave", "--manifold", "sphere2", "--mode", "covariance", "--lambda", "20.5",
     "--x0", "1,0"],
], ids=["kernel-zero", "cluster-bessel-zero", "randomwave-zero", "kernel-sphere-x0",
        "cluster-bessel-sphere-direction", "randomwave-sphere-x0"])
def test_unusable_geodesic_exits_2_without_files(tmp_path, args):
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: ")
    assert "no length" in res.stderr or "torus only" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,named", [
    (["kernel", *TORUS_ARGS, "--lambda", "10.5", "--width", "-1", "--dist-grid", "0:0.5:3"],
     "--width -1 is negative"),
    (["kernel", "--manifold", "sphere2", "--lambda", "10.5", "--width", "-1"],
     "--width -1 is negative"),
    (["kernel", *TORUS_ARGS, "--lambda", "10.5", "--dist-grid", "-1:0.5:3"],
     "distances must be nonnegative"),
    (["randomwave", *TORUS_ARGS, "--mode", "covariance", "--lambda", "20", "--samples", "50",
      "--dist-grid", "-0.5:0.5:3"], "distances must be nonnegative"),
    (["cluster-bessel", *TORUS_ARGS, "--lambda", "20", "--dist-grid", "-0.5:0.5:3"],
     "distances must be nonnegative"),
], ids=["kernel-torus-width", "kernel-sphere-width", "kernel-dist", "randomwave-dist",
        "cluster-bessel-dist"])
def test_negative_width_or_distance_exits_2_without_files(tmp_path, args, named):
    # width 0 evaluates E_lambda and a positive width the cluster window; a
    # negative one, or a negative geodesic distance, means neither
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: ") and named in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["0", "-2"])
@pytest.mark.parametrize("args", [
    ["remainder-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log"],
    ["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log", "--eps", "1"],
    ["smooth-compare", *TORUS_ARGS, "--lambda-grid", "3:3:1", "--A", "1"],
], ids=lambda args: args[0])
def test_pairs_below_one_exits_2(tmp_path, args, pairs):
    out = tmp_path / "nothing"
    res = run_cli(args + ["--pairs", pairs, "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: --pairs must be >= 1, got %s" % pairs)
    assert not out.exists()


@pytest.mark.parametrize("manifold,eps,bound", [
    ("sphere2", "2", "1.5708"), ("sphere2", "1.5707963267948966", "1.5708"),
    ("sphere2:1.7", "2.6704", "2.67035")])
def test_sphere_offdiag_eps_past_a_quarter_circle_exits_2(tmp_path, manifold, eps, bound):
    # the meridian angles are drawn in [eps/R, pi - eps/R]: refused up front,
    # naming pi R/2, instead of blaming a drawn pair's distance
    out = tmp_path / "nothing"
    res = run_cli(["offdiag-scan", "--manifold", manifold, "--lambda-grid", "10.3:30.3:3:log",
                   "--eps", eps, "--pairs", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == "config error: eps must be below pi R/2 = %s on the sphere\n" % bound
    assert not out.exists()
    res = run_cli(["offdiag-scan", "--manifold", manifold, "--lambda-grid", "10.3:30.3:3:log",
                   "--eps", "1.5", "--pairs", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("eps", ["3.14", "3.1385", "3.141592653589793"])
def test_torus_offdiag_eps_past_0999_injectivity_radius_exits_2(tmp_path, eps):
    # the offset radii are drawn in [eps, 0.999 inj]: refused up front,
    # naming that bound, instead of blaming a drawn pair's distance
    out = tmp_path / "nothing"
    res = run_cli(["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.5:60.5:4:log",
                   "--eps", eps, "--pairs", "3", "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == ("config error: eps must be below 0.999 times the injectivity "
                          "radius = 3.13845 on the torus\n")
    assert not out.exists()
    res = run_cli(["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.5:60.5:4:log",
                   "--eps", "3.138", "--pairs", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("manifold", ["torus:2:hex", "torus:2:square2pi"])
@pytest.mark.parametrize("deriv", ["0,1", "1,0"])
def test_diagonal_remainder_scan_with_odd_order_exits_2(tmp_path, manifold, deriv):
    # on the diagonal the kernel and the leading term of odd total order
    # vanish by the k <-> -k symmetry: hex fitted an exponent to rounding
    # noise and square failed in the fit; both are refused up front
    out = tmp_path / "nothing"
    res = run_cli(["remainder-scan", "--manifold", manifold, "--lambda-grid", "50.5:200.5:6",
                   "--pairs", "1", "--deriv", deriv, "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == ("config error: every pair lies on the diagonal, where an odd total "
                          "derivative order (1) makes the kernel and the leading term vanish "
                          "by the k <-> -k symmetry: there is no remainder to fit\n")
    assert not out.exists()
    res = run_cli(["remainder-scan", "--manifold", manifold, "--lambda-grid", "50.5:200.5:6",
                   "--pairs", "3", "--deriv", deriv, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_offdiag_scan_3d_offsets_take_seeded_directions(tmp_path, monkeypatch):
    # every offset has its own seeded direction (uniform on the sphere), not
    # the first axis, and a radius in [eps, inj)
    import weyl_lab.cli as cli

    seen = {}

    def capture(m, grid, eps, xs, ys):
        seen.update(xs=xs, ys=ys)
        return offdiagonal_scan(m, grid, eps, xs, ys)

    monkeypatch.setattr(cli, "offdiagonal_scan", capture)
    res = run_cli(["offdiag-scan", "--manifold", "torus:3:square2pi",
                   "--lambda-grid", "10.5:20.5:3:log", "--eps", "1", "--pairs", "6",
                   "--seed", "4", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    offsets = seen["ys"] - seen["xs"]
    radii = np.linalg.norm(offsets, axis=1)
    assert np.all(radii >= 1.0) and np.all(radii < np.pi)
    u = uniform_matrix(4 + 33, np.arange(6), 3)
    assert np.allclose(offsets / radii[:, None], cli.seeded_directions(u[:, 1:], 3),
                       rtol=0.0, atol=1e-12)
    assert np.linalg.matrix_rank(offsets) == 3


# each subcommand's manifest config keys: the replay contract
CONFIG_KEYS = {
    "eigens": ({"lambda_grid", "manifold", "seed"},
               ["eigens", *TORUS_ARGS, "--lambda-grid", "0:10:1"]),
    "kernel": ({"deriv", "direction", "dist_grid", "lam", "manifold", "seed", "width", "x0"},
               ["kernel", "--manifold", "sphere2", "--lambda", "1.5"]),
    "cluster-bessel": ({"deriv", "direction", "dist_grid", "lam", "manifold", "seed",
                        "width", "x0"},
                       ["cluster-bessel", *TORUS_ARGS, "--lambda", "30",
                        "--dist-grid", "0:0.2:4"]),
    "remainder-scan": ({"deriv", "lambda_grid", "manifold", "pairs", "seed"},
                       ["remainder-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log"]),
    "offdiag-scan": ({"eps", "lambda_grid", "manifold", "pairs", "seed"},
                     ["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log",
                      "--eps", "1", "--pairs", "3"]),
    "smooth-compare": ({"A", "lambda_grid", "manifold", "pairs", "seed"},
                       ["smooth-compare", *TORUS_ARGS, "--lambda-grid", "3:3:1",
                        "--A", "1.0", "--pairs", "2"]),
    "randomwave": ({"direction", "dist_grid", "lam", "manifold", "mode", "samples", "seed",
                    "width", "x0"},
                   ["randomwave", *TORUS_ARGS, "--mode", "sample", "--lambda", "10.3",
                    "--samples", "3", "--dist-grid", "0:0.5:2"]),
    "appendix-a": ({"N", "lambda_grid", "p", "seed"},
                   ["appendix-a", "--lambda-grid", "50:200:3:log"]),
    "cluster-sup": ({"A_rule", "deriv", "lambda_grid", "manifold", "seed"},
                    ["cluster-sup", *TORUS_ARGS, "--lambda-grid", "30.3:90.3:4:log"]),
}


def test_every_subcommand_is_registered_with_help():
    import weyl_lab.cli as cli

    assert set(cli.RUNNERS) == set(main.commands) - {"replay"} == set(CONFIG_KEYS)
    for name in main.commands:
        res = run_cli([name, "--help"])
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("name", sorted(CONFIG_KEYS))
def test_manifest_config_keys_are_the_replay_contract(tmp_path, name):
    keys, args = CONFIG_KEYS[name]
    res = run_cli(args + ["--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
    assert set(manifest["full_config"]) == keys
    assert manifest["seed"] == manifest["full_config"]["seed"]


def test_subcommands_dispatch_through_the_runner_table(tmp_path, monkeypatch):
    # a wrapped RUNNERS entry (as a tracer installs) must be the one that runs
    import weyl_lab.cli as cli

    configs = []

    def stub(config):
        configs.append(dict(config))
        return ["x"], [(1,)], None

    monkeypatch.setitem(cli.RUNNERS, "eigens", stub)
    res = run_cli(["eigens", "--manifold", "junk", "--lambda-grid", "0:1:1",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert configs == [{"manifold": "junk", "lambda_grid": "0:1:1", "seed": 0}]
    assert (tmp_path / "eigens.csv").read_text() == "x\n1\n"


@pytest.mark.parametrize("args", [
    ["kernel", *TORUS_ARGS, "--lambda", "nan"],
    ["kernel", *TORUS_ARGS, "--lambda", "3.5", "--width", "nan"],
    ["kernel", "--manifold", "sphere2", "--lambda", "inf"],
    ["eigens", *TORUS_ARGS, "--lambda-grid", "0:nan:1"],
    ["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log", "--eps", "nan"],
    ["smooth-compare", *TORUS_ARGS, "--lambda-grid", "3:3:1", "--A", "-inf"],
    ["kernel", *TORUS_ARGS, "--lambda", "3.5", "--x0", "0,1e400"],
], ids=["lambda", "width", "sphere-lambda", "grid", "eps", "A", "x0"])
def test_non_finite_numbers_exit_2_without_files(tmp_path, args):
    out = tmp_path / "nothing"
    res = run_cli(args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "finite number" in res.stderr
    assert not out.exists()


def test_finite_float_options_keep_their_help():
    for name in ("kernel", "offdiag-scan", "cluster-bessel", "randomwave"):
        help_text = run_cli([name, "--help"]).stdout
        assert "FINITEFLOAT" not in help_text
        assert "--lambda FLOAT" in help_text or "--eps FLOAT" in help_text


OFFDIAG_ARGS = ["offdiag-scan", *TORUS_ARGS, "--lambda-grid", "30.3:60.3:4:log", "--eps", "1",
                "--pairs", "2"]


@pytest.mark.parametrize("edit,named", [
    (lambda text: text[:-5], "is not JSON"),
    (lambda text: "[" + text + "]", "is not a JSON object"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                              if k != "full_config"}), "no full_config object"),
    (lambda text: json.dumps({**json.loads(text), "full_config": [1]}),
     "no full_config object"),
    (lambda text: json.dumps({**json.loads(text), "full_config": {
        k: v for k, v in json.loads(text)["full_config"].items() if k != "eps"}}),
     "lacks 'eps', required by offdiag-scan"),
    (lambda text: json.dumps({**json.loads(text), "full_config": {
        **json.loads(text)["full_config"], "eps": float("nan")}}), "not a finite number"),
    (lambda text: json.dumps({**json.loads(text), "full_config": {
        **json.loads(text)["full_config"], "pairs": "x"}}), "'x' is not a valid integer"),
], ids=["invalid-json", "array", "no-config", "config-not-object", "missing-eps", "nan-eps",
        "text-pairs"])
def test_malformed_replay_manifest_exits_2_without_files(tmp_path, edit, named):
    assert run_cli(OFFDIAG_ARGS + ["--out", str(tmp_path / "fresh")]).exit_code == 0
    manifest = tmp_path / "edited.manifest.json"
    manifest.write_text(edit((tmp_path / "fresh" / "offdiag-scan.manifest.json").read_text()))
    out = tmp_path / "replayed"
    res = run_cli(["replay", str(manifest), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("config error: ") and named in res.stderr
    assert not out.exists()


def test_replay_gives_absent_optional_keys_their_defaults(tmp_path):
    # a manifest without the optional keys replays as the command's defaults
    args = ["kernel", *TORUS_ARGS, "--lambda", "3.5"]
    assert run_cli(args + ["--out", str(tmp_path / "fresh")]).exit_code == 0
    fresh = json.loads((tmp_path / "fresh" / "kernel.manifest.json").read_text())
    old = dict(fresh, full_config={"manifold": "torus:2:square2pi", "lam": 3.5})
    (tmp_path / "old.manifest.json").write_text(json.dumps(old))
    res = run_cli(["replay", str(tmp_path / "old.manifest.json"),
                   "--out", str(tmp_path / "replayed")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "replayed" / "kernel.csv").read_bytes() == \
        (tmp_path / "fresh" / "kernel.csv").read_bytes()
    replayed = json.loads((tmp_path / "replayed" / "kernel.manifest.json").read_text())
    assert replayed["full_config"] == fresh["full_config"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The `weyl-lab` and `cmp` lines of the README's sh blocks, split as
    the shell splits them (continuation lines joined, comments dropped)."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith(("weyl-lab ", "cmp "))]


def test_readme_examples_run_and_replay(tmp_path, monkeypatch):
    # the README's commands as written, from an empty directory; then every
    # manifest they wrote replays to the same bytes
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [c[1] for c in commands if c[0] == "weyl-lab"] == [
        "eigens", "replay", "kernel", "remainder-scan", "smooth-compare", "randomwave"]
    for command in commands:
        if command[0] == "cmp":
            assert Path(command[1]).read_bytes() == Path(command[2]).read_bytes()
            continue
        res = run_cli(command[1:])
        assert res.exit_code == 0, (command, res.output)
    manifests = sorted(tmp_path.rglob("*.manifest.json"))
    assert len(manifests) == 6
    for k, manifest in enumerate(manifests):
        out = tmp_path / "replayed" / str(k)
        res = run_cli(["replay", str(manifest), "--out", str(out)])
        assert res.exit_code == 0, (manifest, res.output)
        csv = manifest.name[:-len(".manifest.json")] + ".csv"
        assert (out / csv).read_bytes() == (manifest.parent / csv).read_bytes()
