import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kinpower as kp
from kinpower.cli import _run_config, build_parser, main


@pytest.fixture
def table_files(tmp_path):
    freqs = tmp_path / "freqs.csv"
    meta = tmp_path / "meta.txt"
    freqs.write_text(
        "subpop,locus,allele,freq\n"
        "pop,D3S1358,13,0.15\n"
        "pop,D3S1358,14,0.20\n"
        "pop,D3S1358,15,0.65\n",
        encoding="utf-8")
    meta.write_text(
        "subpops = pop\nproportions = 1.0\npanel = D3S1358\nfloor = 1e-5\n",
        encoding="utf-8")
    return freqs, meta


@pytest.fixture
def profile_files(tmp_path):
    text = "locus,allele1,allele2\nD3S1358,13,14\n"
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    p1.write_text(text, encoding="utf-8")
    p2.write_text(text, encoding="utf-8")
    return p1, p2


@pytest.fixture
def synth_files(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth-freqs", "--subpops", "3", "--loci", "4",
                 "--alleles", "6", "--divergence", "0.3", "--seed", "9",
                 "--out", str(out)]) == 0
    return out / "freqs.csv", out / "meta.txt"


class TestLrCommand:
    def test_worked_example(self, table_files, profile_files, capsys):
        freqs, meta = table_files
        p1, p2 = profile_files
        code = main(["lr", str(p1), str(p2), "--freqs", str(freqs),
                     "--meta", str(meta), "--test", "parent-child"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2.9167" in out

    def test_linear_past_float_range(self, tmp_path, capsys):
        """A log-LR past ~709.78 prints linear=inf instead of overflowing."""
        loci = [f"L{i}" for i in range(40)]
        freqs = tmp_path / "f.csv"
        freqs.write_text("subpop,locus,allele,freq\n" + "".join(
            f"pop,{locus},A,1e-9\npop,{locus},B,0.999999999\n" for locus in loci),
            encoding="utf-8")
        profile = tmp_path / "p.csv"
        profile.write_text("locus,allele1,allele2\n"
                           + "".join(f"{locus},A,A\n" for locus in loci), encoding="utf-8")
        assert main(["lr", str(profile), str(profile), "--freqs", str(freqs),
                     "--floor", "1e-12", "--test", "full-sib"]) == 0
        out = capsys.readouterr().out
        assert "linear=inf" in out
        assert out.count("linear=inf") == 1 + len(kp.STATISTICS)

    def test_duplicated_subpops_collapse(self, tmp_path, profile_files, capsys):
        freqs = tmp_path / "f.csv"
        meta = tmp_path / "m.txt"
        rows = ["subpop,locus,allele,freq"]
        for name in ("x", "y"):
            rows += [f"{name},D3S1358,13,0.15",
                     f"{name},D3S1358,14,0.20",
                     f"{name},D3S1358,15,0.65"]
        freqs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        meta.write_text("subpops = x, y\nproportions = 0.5, 0.5\n", encoding="utf-8")
        p1, p2 = profile_files
        assert main(["lr", str(p1), str(p2), "--freqs", str(freqs),
                     "--meta", str(meta), "--test", "parent-child"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()
                 if any(l.strip().startswith(s) for s in kp.STATISTICS)]
        values = {l.split("log=")[1].split()[0] for l in lines}
        assert len(values) == 1

    def test_unknown_allele_exit_2(self, table_files, profile_files, tmp_path, capsys):
        freqs, meta = table_files
        bad = tmp_path / "bad.csv"
        bad.write_text("locus,allele1,allele2\nD3S1358,13,99\n", encoding="utf-8")
        code = main(["lr", str(bad), str(bad), "--freqs", str(freqs),
                     "--meta", str(meta)])
        assert code == 2
        err = capsys.readouterr().err
        assert "UnknownAllele" in err
        assert "allele '99' at locus 'D3S1358' of profile 1" in err
        # the message names the profile the allele came from
        assert main(["lr", str(profile_files[0]), str(bad), "--freqs", str(freqs),
                     "--meta", str(meta)]) == 2
        assert "allele '99' at locus 'D3S1358' of profile 2" in capsys.readouterr().err


    def test_oversized_field_exit_2(self, table_files, profile_files, tmp_path, capsys):
        freqs, meta = table_files
        p1, _ = profile_files
        big = tmp_path / "big.csv"
        big.write_text("locus,allele1,allele2\nD3S1358,13," + "1" * 200_000 + "\n",
                       encoding="utf-8")
        assert main(["lr", str(p1), str(big), "--freqs", str(freqs),
                     "--meta", str(meta)]) == 2
        err = capsys.readouterr().err
        assert "MalformedRow" in err and "line 2" in err


class TestLeanImport:
    """No command needs scipy: in a new interpreter, neither ``import
    kinpower`` nor a whole command loads a ``scipy`` module, and a ``power``
    run with scipy blocked writes what a normal run writes."""

    # small runs of each simulating command, on synth_files' panel
    RUNS = {
        "power": ["power", "--alpha", "0.01,0.05", "--B", "3000", "--seed", "3"],
        "power-curve": ["power-curve", "--B", "3000", "--seed", "3", "--stats", "LAF,CB"],
        "subpop-bias": ["subpop-bias", "--alpha", "0.05", "--B", "3000", "--seed", "3"],
    }

    @staticmethod
    def scipy_modules(code, *args):
        script = textwrap.dedent(f"""
            import sys
            {code}
            print(*sorted(m for m, module in sys.modules.items()
                          if module is not None and m.split(".")[0] == "scipy"))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(kp.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @pytest.mark.parametrize("command", ["synth-freqs", *RUNS])
    def test_command(self, command, synth_files, tmp_path):
        args = (self.RUNS[command] + ["--freqs", synth_files[0], "--meta", synth_files[1]]
                if command in self.RUNS else ["synth-freqs", "--subpops", "2", "--loci", "3"])
        code = "from kinpower.cli import main; assert main(sys.argv[1:]) == 0"
        assert self.scipy_modules(code, *args, "--out", tmp_path / "out") == ""
        assert any((tmp_path / "out").iterdir())

    def test_power_with_scipy_blocked(self, synth_files, tmp_path, capsys):
        # importing any scipy module raises ImportError in the blocked run
        freqs, meta = map(str, synth_files)
        args = self.RUNS["power"] + ["--freqs", freqs, "--meta", meta]
        code = ('sys.modules["scipy"] = None; '
                "from kinpower.cli import main; assert main(sys.argv[1:]) == 0")
        assert self.scipy_modules(code, *args, "--out", tmp_path / "blocked") == ""
        assert main(args + ["--out", str(tmp_path / "normal")]) == 0
        files = {path.name: path.read_bytes() for path in (tmp_path / "normal").iterdir()}
        assert files and files == {path.name: path.read_bytes()
                                   for path in (tmp_path / "blocked").iterdir()}

    def test_import(self):
        assert self.scipy_modules("import kinpower") == ""

    def test_lr_command(self, synth_files, tmp_path):
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        p1.write_text("locus,allele1,allele2\nL01,8,9\nL02,10,10\nL03,8,13\nL04,11,12\n",
                      encoding="utf-8")
        p2.write_text("locus,allele1,allele2\nL01,9,9\nL02,10,12\nL03,13,8\nL04,11,8\n",
                      encoding="utf-8")
        code = "from kinpower.cli import main; assert main(sys.argv[1:]) == 0"
        assert self.scipy_modules(code, "lr", p1, p2, "--freqs", synth_files[0], "--meta",
                                  synth_files[1], "--test", "parent-child") == ""


class TestPowerCommand:
    def test_writes_reports(self, synth_files, tmp_path, capsys):
        freqs, meta = synth_files
        out = tmp_path / "power"
        code = main(["power", "--freqs", str(freqs), "--meta", str(meta),
                     "--test", "full-sib", "--alpha", "0.01", "--B", "5000",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        report = (out / "power_report.csv").read_text(encoding="utf-8")
        assert report.startswith("statistic,alpha,threshold,power,ci_low,ci_high")
        assert (out / "power_report.json").exists()

    def test_byte_identical_across_runs(self, synth_files, tmp_path):
        freqs, meta = synth_files
        outputs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["power", "--freqs", str(freqs), "--meta", str(meta),
                         "--alpha", "0.01", "--B", "4000", "--seed", "7",
                         "--out", str(out)]) == 0
            outputs.append((out / "power_report.csv").read_bytes()
                           + (out / "power_report.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("test, alpha", [
        ("parent-child", 2e-5), ("full-sib", 2e-4),
        ("half-sib-paper", 2e-3), ("half-sib-standard", 2e-3)])
    def test_preset_default_alpha(self, synth_files, tmp_path, test, alpha):
        from kinpower.power import read_power_reports_csv
        freqs, meta = synth_files
        out = tmp_path / "power"
        with pytest.warns(kp.errors.AlphaTooSmallForB):
            assert main(["power", "--freqs", str(freqs), "--meta", str(meta),
                         "--test", test, "--B", "2000", "--stats", "LAF",
                         "--out", str(out)]) == 0
        rows = read_power_reports_csv((out / "power_report.csv").read_text(encoding="utf-8"))
        assert [r["alpha"] for r in rows] == [alpha]

    def test_dump_samples_same_bytes_pooled_and_serial(self, synth_files, tmp_path, monkeypatch):
        # --workers 2 formats the dump's blocks in the pool its run opened
        # (two CPUs, so that one opens on a one-CPU host too); --workers 1
        # opens none and formats them in this process
        from kinpower import engine
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        engine._close_pool()
        freqs, meta = synth_files
        dumps = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["power", "--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05",
                         "--B", str(2 * kp.BLOCK + 5), "--seed", "4", "--dump-samples",
                         "--workers", workers, "--out", str(out)]) == 0
            assert (engine._POOL is None) == (workers == "1")
            dumps.append([(out / name).read_bytes()
                          for name in ("null_samples.csv", "alt_samples.csv")])
        assert dumps[0] == dumps[1]
        assert dumps[0][0].count(b"\n") == 2 * kp.BLOCK + 6

    def test_alpha_too_small_warns_but_succeeds(self, synth_files, tmp_path):
        freqs, meta = synth_files
        out = tmp_path / "warn"
        with pytest.warns(kp.errors.AlphaTooSmallForB):
            code = main(["power", "--freqs", str(freqs), "--meta", str(meta),
                         "--alpha", "0.0002", "--B", "10000", "--seed", "1",
                         "--out", str(out)])
        assert code == 0


class TestPowerCurveCommand:
    def test_writes_curves(self, synth_files, tmp_path):
        from kinpower.power import read_power_curves_csv
        freqs, meta = synth_files
        out = tmp_path / "curve"
        code = main(["power-curve", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.01,0.05,0.1", "--B", "4000",
                     "--stats", "LAF,MIN", "--out", str(out)])
        assert code == 0
        rows = read_power_curves_csv((out / "power_curves.csv")
                                     .read_text(encoding="utf-8"))
        assert {r["statistic"] for r in rows} == {"LAF", "MIN"}
        assert len(rows) == 6

    def test_custom_test_uses_default_grid_without_alpha(self, synth_files, tmp_path):
        from kinpower.power import DEFAULT_CURVE_GRID, read_power_curves_csv
        freqs, meta = synth_files
        out = tmp_path / "curve"
        code = main(["power-curve", "--test", "custom", "--theta0", "1,0,0",
                     "--theta1", "0,1,0", "--freqs", str(freqs), "--meta", str(meta),
                     "--B", "2000", "--stats", "LAF,MIN", "--out", str(out)])
        assert code == 0
        rows = read_power_curves_csv((out / "power_curves.csv")
                                     .read_text(encoding="utf-8"))
        for stat in ("LAF", "MIN"):
            assert [r["alpha"] for r in rows if r["statistic"] == stat] \
                == list(DEFAULT_CURVE_GRID)

    @pytest.mark.parametrize("command", ["power", "subpop-bias"])
    def test_custom_test_still_needs_alpha_elsewhere(self, synth_files, tmp_path,
                                                     capsys, command):
        freqs, meta = synth_files
        out = tmp_path / "out"
        code = main([command, "--test", "custom", "--theta0", "1,0,0",
                     "--theta1", "0,1,0", "--freqs", str(freqs), "--meta", str(meta),
                     "--B", "2000", "--out", str(out)])
        assert code == 2
        assert "--alpha is required for custom tests" in capsys.readouterr().err
        assert not out.exists()


class TestSubpopBiasCommand:
    def test_k1_rejected(self, table_files, tmp_path):
        freqs, meta = table_files
        code = main(["subpop-bias", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "1000", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_symmetric_table_diffs_near_zero(self, tmp_path, capsys):
        from kinpower.power import read_diff_cis_csv
        freqs = tmp_path / "f.csv"
        meta = tmp_path / "m.txt"
        rows = ["subpop,locus,allele,freq"]
        for name in ("x", "y"):
            for locus in ("L1", "L2", "L3", "L4"):
                rows += [f"{name},{locus},10,0.3", f"{name},{locus},11,0.3",
                         f"{name},{locus},12,0.4"]
        freqs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        meta.write_text("subpops = x, y\nproportions = 0.5, 0.5\n", encoding="utf-8")
        out = tmp_path / "bias"
        code = main(["subpop-bias", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "20000", "--stats", "MIN",
                     "--out", str(out)])
        assert code == 0
        assert "recombination identity ok" in capsys.readouterr().out
        diffs = read_diff_cis_csv((out / "diff_ci_MIN.csv").read_text(encoding="utf-8"))
        assert len(diffs) == 1
        assert diffs[0]["ci_low"] <= 0.0 <= diffs[0]["ci_high"]
        assert (out / "subpop_curves_MIN.csv").exists()

    def test_failed_recombination_identity_exit_3(self, synth_files, tmp_path, capsys,
                                                   monkeypatch):
        import dataclasses
        from kinpower import cli
        real = cli.power_report

        def off_global_power(*args):
            # a global power its per-subpop powers do not recombine to
            report = real(*args)
            return dataclasses.replace(report, power=report.power + 0.01)

        monkeypatch.setattr(cli, "power_report", off_global_power)
        freqs, meta = synth_files
        code = main(["subpop-bias", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "2000", "--stats", "MIN",
                     "--out", str(tmp_path / "bias")])
        assert code == 3
        captured = capsys.readouterr()
        assert "RuntimeError: MIN: recombination identity FAILED" in captured.err
        assert "recombination identity ok" not in captured.out


class TestValidateCommand:
    def test_ok(self, synth_files, capsys):
        freqs, meta = synth_files
        assert main(["validate", "--freqs", str(freqs), "--meta", str(meta)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", "--freqs", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("floor", ["nan", "inf"])
    def test_non_finite_floor_exit_2(self, synth_files, capsys, floor):
        freqs, meta = synth_files
        assert main(["validate", "--freqs", str(freqs), "--meta", str(meta),
                     "--floor", floor]) == 2
        assert "NonPositiveFrequency" in capsys.readouterr().err

    @pytest.mark.parametrize("row, meta, error", [
        ("x,L1,12,nan", "", "NonPositiveFrequency"),
        ("x,L1,12,inf", "", "NonPositiveFrequency"),
        ("x,L1,12,-inf", "", "NonPositiveFrequency"),
        ("x,L1,12,1e400", "", "NonPositiveFrequency"),
        ("x,L1," + "1" * 200_000 + ",0.5", "", "MalformedRow"),
        ("", "sample_sizes = 0, 0\n", "InvalidParameter"),
        ("", "sample_sizes = -5, 10\n", "InvalidParameter"),
        ("", "sample_size = 100, 300\n", "MalformedRow"),
        ("", "proportions = 1.5, -0.5\n",
         "ProportionSumOutOfTolerance: subpop 'y' proportion -0.5 must be finite and > 0"),
        ("", "proportions = 1.50005, -0.5\n",
         "ProportionSumOutOfTolerance: subpop 'y' proportion -0.5 must be finite and > 0"),
        ("", "proportions = 0.5, nan\n",
         "ProportionSumOutOfTolerance: subpop 'y' proportion nan must be finite and > 0"),
        ("", "proportions = inf, 0.5\n",
         "ProportionSumOutOfTolerance: subpop 'x' proportion inf must be finite and > 0"),
    ], ids=["nan", "inf", "-inf", "1e400", "oversized", "sizes-0", "sizes-neg", "unknown-key",
            "proportion-range", "proportion-over-one", "proportion-nan", "proportion-inf"])
    def test_bad_input_exit_2(self, tmp_path, capsys, row, meta, error):
        freqs = tmp_path / "f.csv"
        meta_file = tmp_path / "m.txt"
        freqs.write_text("subpop,locus,allele,freq\n"
                         "x,L1,10,0.3\nx,L1,11,0.7\ny,L1,10,0.6\ny,L1,11,0.4\n"
                         + row + "\n", encoding="utf-8")
        meta_file.write_text("subpops = x, y\n" + meta, encoding="utf-8")
        assert main(["validate", "--freqs", str(freqs), "--meta", str(meta_file)]) == 2
        assert error in capsys.readouterr().err

    def test_floor_that_replaces_the_data_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth-freqs", "--subpops", "2", "--loci", "1", "--alleles", "5",
                     "--seed", "3", "--out", str(out)]) == 0
        args = ["validate", "--freqs", str(out / "freqs.csv"), "--meta", str(out / "meta.txt")]
        assert main(args + ["--floor", "0.19"]) == 0
        assert main(args + ["--floor", "2"]) == 2
        assert "NonPositiveFrequency" in capsys.readouterr().err

    def test_bundled_configs_parse(self):
        from pathlib import Path
        configs = Path(__file__).resolve().parents[1] / "configs"
        thai = kp.load_table_meta(
            (configs / "thai.meta").read_text(encoding="utf-8"))
        assert thai.proportions == [0.1108, 0.3695, 0.3538, 0.1659]
        assert len(thai.panel) == 15
        assert thai.sample_sizes == [202, 304, 212, 211]
        sg = kp.load_table_meta(
            (configs / "singapore.meta").read_text(encoding="utf-8"))
        assert len(sg.panel) == 15
        my = kp.load_table_meta(
            (configs / "malaysia.meta").read_text(encoding="utf-8"))
        assert len(my.panel) == 9


class TestSynthFreqsCommand:
    def test_output_validates(self, synth_files):
        freqs, meta = synth_files
        assert main(["validate", "--freqs", str(freqs), "--meta", str(meta)]) == 0

    @pytest.mark.parametrize("floor", ["0", "-1", "nan"])
    def test_bad_floor_exit_2(self, tmp_path, capsys, floor):
        out = tmp_path / "s"
        assert main(["synth-freqs", "--floor", floor, "--out", str(out)]) == 2
        assert "NonPositiveFrequency" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sample_sizes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth-freqs", "--subpops", "2", "--sample-sizes", "0,10",
                     "--out", str(out)]) == 2
        assert "InvalidParameter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        # a bad proportion is refused by Subpopulation, as the loader's are
        pytest.param(["--proportions", "0,0"], "subpop 'S1' proportion 0.0 must be finite",
                     id="extra0-proportions"),
        pytest.param(["--proportions", "1,-1"], "subpop 'S2' proportion -1.0 must be finite",
                     id="extra1-proportions"),
        pytest.param(["--proportions", "nan,1"], "subpop 'S1' proportion nan must be finite",
                     id="extra2-proportions"),
        (["--divergence", "nan"], "divergence"),
        (["--divergence", "inf"], "divergence"),
        (["--divergence", "-0.1"], "divergence"),
        (["--proportions", "2,-1"], "-1.0"),
    ])
    def test_bad_parameter_exit_2(self, tmp_path, capsys, extra, message):
        out = tmp_path / "s"
        assert main(["synth-freqs", "--subpops", "2", *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        error = ("ProportionSumOutOfTolerance" if extra[0] == "--proportions"
                 else "InvalidParameter")
        assert error in err and message in err
        assert not out.exists()

    def test_zero_loci_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth-freqs", "--loci", "0", "--out", str(out)]) == 2
        assert "InvalidParameter" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_divergence(self, tmp_path):
        out = tmp_path / "flat"
        assert main(["synth-freqs", "--divergence", "0", "--subpops", "2",
                     "--loci", "2", "--out", str(out)]) == 0
        with open(out / "meta.txt", encoding="utf-8") as fh:
            meta = kp.load_table_meta(fh)
        with open(out / "freqs.csv", encoding="utf-8") as fh:
            table = kp.load_frequency_table(fh, meta=meta)
        for locus in table.panel:
            assert table.freqs["S1"][locus] == table.freqs["S2"][locus]


class TestPinnedOutputs:
    """Stdout and output files of the three simulating commands, pinned.

    The digests were recorded before the CLI's run path was merged into one
    load/validate/simulate helper; any change to a report, curve, CI or
    sample file, or to what a command prints, changes them.
    """

    RUNS = {
        "power": ["power", "--alpha", "0.01,0.05", "--B", "9000", "--seed", "3",
                  "--dump-samples", "--workers", "2"],
        "curve": ["power-curve", "--B", "9000", "--seed", "3",
                  "--stats", "LAF,MIN,CB", "--cb-weights", "samples"],
        "bias": ["subpop-bias", "--alpha", "0.05", "--B", "9000", "--seed", "3",
                 "--null-same-subpop"],
    }
    # power was re-pinned when the Clopper-Pearson bounds moved from scipy's
    # betaincinv to power._beta_quantile: 53 of its 112 CI bounds moved, by 1
    # to 14 doubles, each to within 2 doubles of the exact bound (52 within 1)
    DIGESTS = {
        "power": "f55fb9e6717b5ed35ee82945f4e76fdd66ad2cfb65ff8294a353c40ca2c28c66",
        "curve": "7acd0d94bd5933a8da40b04015d6888bdbe7d362293be96a09fab63c291f46f2",
        "bias": "c692afe655b8bbc9bcfbc81705fad923ff3589ef3c11131a0f09a4a382d8b048",
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_digest_unchanged(self, name, tmp_path, capsys):
        import hashlib
        synth = tmp_path / "synth"
        assert main(["synth-freqs", "--subpops", "3", "--loci", "4",
                     "--alleles", "6", "--divergence", "0.3", "--seed", "9",
                     "--sample-sizes", "50,60,70", "--out", str(synth)]) == 0
        capsys.readouterr()
        out = tmp_path / name
        assert main(self.RUNS[name] + ["--freqs", str(synth / "freqs.csv"),
                                       "--meta", str(synth / "meta.txt"),
                                       "--out", str(out)]) == 0
        h = hashlib.sha256(
            capsys.readouterr().out.replace(str(tmp_path), "TMP").encode("utf-8"))
        for path in sorted(out.iterdir()):
            h.update(path.name.encode("utf-8"))
            h.update(path.read_bytes())
        assert h.hexdigest() == self.DIGESTS[name]


class TestByteOrderMark:
    """Spreadsheets save CSV with a leading UTF-8 byte order mark; such files
    read exactly as the same files without it."""

    @staticmethod
    def with_bom(path, tmp_path):
        out = tmp_path / f"bom_{path.parent.name}_{path.name}"
        out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return out

    def run_both(self, argv, files, tmp_path, capsys):
        assert main(argv(*files)) == 0
        plain = capsys.readouterr().out
        assert main(argv(*(self.with_bom(f, tmp_path) for f in files))) == 0
        assert capsys.readouterr().out == plain

    def test_validate(self, synth_files, tmp_path, capsys):
        self.run_both(lambda freqs, meta: ["validate", "--freqs", str(freqs),
                                           "--meta", str(meta)],
                      synth_files, tmp_path, capsys)

    def test_lr(self, synth_files, tmp_path, capsys):
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        p1.write_text("locus,allele1,allele2\nL01,8,9\nL02,10,10\nL03,8,13\nL04,11,12\n",
                      encoding="utf-8")
        p2.write_text("locus,allele1,allele2\nL01,9,9\nL02,10,12\nL03,13,8\nL04,11,8\n",
                      encoding="utf-8")
        self.run_both(lambda freqs, meta, a, b: ["lr", str(a), str(b), "--freqs", str(freqs),
                                                 "--meta", str(meta), "--test", "full-sib"],
                      (*synth_files, p1, p2), tmp_path, capsys)


class TestExitCodes:
    """2 = a KinpowerError raised before the run; 3 = any other failure."""

    @pytest.mark.parametrize("extra, message", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--B", "0"], "B must be >= 1"),
        (["--theta0", "a,b,c"], "theta"),
        (["--alpha", "0.05,x"], "--alpha"),
        (["--stats", "LAF,BOGUS"], "unknown statistics"),
        (["--theta1", "nan,0.5,0.5"], "non-finite IBD coefficient"),
        (["--stats", "LAF,laf"], "more than once"),
        (["--theta1", "0,1"], "theta needs 3"),
        (["--test", "custom", "--theta0", "1,0,0"], "--test custom requires"),
        (["--alpha", "1.5"], "alpha 1.5 not in (0, 1)"),
        (["--alpha", "0"], "alpha 0.0 not in (0, 1)"),
    ])
    def test_bad_parameter_exit_2(self, synth_files, tmp_path, capsys, extra, message):
        freqs, meta = synth_files
        out = tmp_path / "out"
        code = main(["power", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "100", "--out", str(out)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, synth_files, tmp_path, capsys, workers):
        freqs, meta = synth_files
        out = tmp_path / "out"
        code = main(["power", "--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05",
                     "--B", "100", "--workers", workers, "--out", str(out)])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["power", "power-curve", "subpop-bias"])
    def test_cb_weights_without_sample_sizes_exit_2(self, synth_files, tmp_path, capsys,
                                                    command):
        freqs, meta = synth_files
        out = tmp_path / "out"
        code = main([command, "--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05",
                     "--B", "100", "--cb-weights", "samples", "--out", str(out)])
        assert code == 2
        assert "MissingSampleSizes" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_freqs_exit_2(self, tmp_path, capsys):
        freqs = tmp_path / "latin1.csv"
        freqs.write_bytes("subpop,locus,allele,freq\nSão Paulo,L1,10,1.0\n"
                          .encode("latin-1"))
        assert main(["validate", "--freqs", str(freqs)]) == 2
        err = capsys.readouterr().err
        assert "MalformedRow" in err and "latin1.csv" in err

    @pytest.mark.parametrize("argument", ["--freqs", "--meta", "profile"])
    @pytest.mark.parametrize("path", ["directory", "under-file"])
    def test_unreadable_input_path_exit_2(self, table_files, profile_files, tmp_path, capsys,
                                          argument, path):
        # a path that cannot be opened for reading; PermissionError takes the
        # same route but cannot be provoked when the tests run as root
        freqs, meta = table_files
        p1, p2 = profile_files
        bad = tmp_path if path == "directory" else freqs / "x"
        files = {"--freqs": freqs, "--meta": meta, "profile": p2, argument: bad}
        assert main(["lr", str(p1), str(files["profile"]), "--freqs", str(files["--freqs"]),
                     "--meta", str(files["--meta"])]) == 2
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and str(bad) in err

    def test_non_utf8_profile_exit_2(self, table_files, profile_files, tmp_path, capsys):
        freqs, meta = table_files
        p1, _ = profile_files
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("locus,allele1,allele2\nD3S1358,13,14\n# né\n".encode("latin-1"))
        assert main(["lr", str(p1), str(bad), "--freqs", str(freqs),
                     "--meta", str(meta)]) == 2
        assert "MalformedRow" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--proportions", "--sample-sizes"])
    def test_synth_bad_number_exit_2(self, tmp_path, capsys, option):
        assert main(["synth-freqs", "--subpops", "2", option, "1,x",
                     "--out", str(tmp_path / "s")]) == 2
        assert option in capsys.readouterr().err

    def test_value_error_during_run_exit_3(self, synth_files, tmp_path, capsys,
                                           monkeypatch):
        from kinpower import engine
        run_block = engine._run_block

        def broken(cfg, alt, block):
            if alt:
                raise ValueError("raised mid-run")
            return run_block(cfg, alt, block)

        monkeypatch.setattr(engine, "_run_block", broken)
        freqs, meta = synth_files
        code = main(["power", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "100", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "runtime error: ValueError: raised mid-run" in capsys.readouterr().err


    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["power", "power-curve", "subpop-bias", "synth-freqs"])
    def test_out_not_a_directory_exit_2_before_run(self, synth_files, tmp_path, capsys,
                                                   monkeypatch, command, under):
        from kinpower import engine

        def refuse(cfg, alts):
            raise AssertionError("simulated before the output directory was made")

        monkeypatch.setattr(engine, "_simulate", refuse)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        freqs, meta = synth_files
        args = [] if command == "synth-freqs" else [
            "--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05", "--B", "100"]
        out = taken / "sub" if under else taken
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and "--out" in err
        assert taken.read_text(encoding="utf-8") == ""


class TestRunConfig:
    @pytest.mark.parametrize("extra, B", [
        ([], 100_000),
        (["--paper-scale"], 1_000_000),
        (["--paper-scale", "--B", "5"], 5),
    ])
    def test_default_B(self, synth_files, extra, B):
        # _run_config only builds the SimConfig, so no replicate is drawn
        freqs, meta = synth_files
        args = build_parser().parse_args(["power", "--freqs", str(freqs), "--meta", str(meta),
                                          *extra])
        assert _run_config(args)[0].B == B


class TestOneRunPerCommand:
    """A simulating command compiles the table once, pooling its LAF and CB
    rows once each, and builds one sampler, which every block then finds in
    this process's caches; with more than one worker, it opens one pool for
    both phases. The recording pool runs each block in this process, on this
    table."""

    @pytest.mark.parametrize("command", ["power", "power-curve", "subpop-bias"])
    def test_one_compile_sampler_and_pool(self, synth_files, tmp_path, monkeypatch, pool_events,
                                          command):
        from kinpower import engine
        calls = {"_pool": 0, "_Sampler": 0}
        monkeypatch.setattr(engine, "_cpus", lambda: 64)
        for name in ("_pool", "_Sampler"):
            def counted(*args, _real=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(engine, name, counted)
        freqs, meta = synth_files
        assert main([command, "--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05",
                     "--B", str(2 * kp.BLOCK + 1), "--workers", "2", "--stats", "LAF",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == {"_pool": 2, "_Sampler": 1}
        assert pool_events == [("open", 2)]


class TestEmptySubpop:
    def test_subpop_without_alt_replicates_exit_2(self, tmp_path, capsys):
        freqs = tmp_path / "f.csv"
        meta = tmp_path / "m.txt"
        freqs.write_text("subpop,locus,allele,freq\n"
                         "x,L1,10,0.3\nx,L1,11,0.7\ny,L1,10,0.6\ny,L1,11,0.4\n",
                         encoding="utf-8")
        meta.write_text("subpops = x, y\nproportions = 0.999, 0.001\n",
                        encoding="utf-8")
        out = tmp_path / "bias"
        code = main(["subpop-bias", "--freqs", str(freqs), "--meta", str(meta),
                     "--alpha", "0.05", "--B", "200", "--stats", "MIN",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "EmptySubpopSample" in err and "'y'" in err and "--B" in err
        assert not list(out.glob("*.csv"))


class TestStreamedOutputs:
    """Every CSV a simulating command writes goes straight into its file
    through the writer's sink, never through a whole-file string."""

    WRITERS = [("kinpower.engine", "dump_samples"),
               ("kinpower.cli", "write_power_reports_csv"),
               ("kinpower.cli", "write_power_curves_csv"),
               ("kinpower.cli", "write_diff_cis_csv")]

    def test_every_csv_writer_gets_a_sink(self, synth_files, tmp_path, monkeypatch):
        import importlib
        import inspect
        calls = []
        for module, name in self.WRITERS:
            owner = importlib.import_module(module)
            writer = getattr(owner, name)

            def recorder(*args, _writer=writer, _name=name, **kwargs):
                bound = inspect.signature(_writer).bind(*args, **kwargs)
                calls.append((_name, bound.arguments.get("sink")))
                return _writer(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorder)
        freqs, meta = synth_files
        common = ["--freqs", str(freqs), "--meta", str(meta), "--alpha", "0.05",
                  "--B", "2000", "--stats", "LAF,MIN"]
        for command in (["power", "--dump-samples"], ["power-curve"], ["subpop-bias"]):
            assert main(command + common + ["--out", str(tmp_path / command[0])]) == 0
        assert {name for name, _ in calls} == {name for _, name in self.WRITERS}
        assert [name for name, sink in calls if sink is None] == []
