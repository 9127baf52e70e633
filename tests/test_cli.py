"""The repro-cli command-line interface."""

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main

KERNEL = """
let N = 48;
array Z[N][N] elem 8;
array OUT[N][N] elem 8;
parallel for (i = 1; i < N - 1; i++) work 10 {
  for (j = 1; j < N - 1; j++) {
    OUT[i][j] = Z[i-1][j] + Z[i][j] + Z[i+1][j];
  }
}
"""

ILLEGAL = """
let N = 32;
array A[N][N] elem 8;
parallel for (i = 1; i < N; i++) {
  for (j = 0; j < N; j++) {
    A[i][j] = A[i-1][j];
  }
}
"""


@pytest.fixture()
def kernel_file(tmp_path: Path) -> str:
    path = tmp_path / "stencil.krn"
    path.write_text(KERNEL)
    return str(path)


def run_cli(argv) -> tuple:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestTransform:
    def test_report_only(self, kernel_file):
        code, text = run_cli(["transform", kernel_file, "--emit", "none"])
        assert code == 0
        assert "arrays optimized: 100%" in text

    def test_emit_both(self, kernel_file):
        code, text = run_cli(["transform", kernel_file, "--emit", "both"])
        assert code == 0
        assert "original kernel" in text
        assert "transformed kernel" in text
        assert "Z_CLUSTER" in text

    def test_shared_flag(self, kernel_file):
        code, text = run_cli(["transform", kernel_file, "--emit",
                              "transformed", "--shared-l2"])
        assert code == 0
        assert "Z_SLOT" in text


class TestLegality:
    def test_legal_kernel(self, kernel_file):
        code, text = run_cli(["legality", kernel_file])
        assert code == 0
        assert "legal" in text

    def test_illegal_kernel(self, tmp_path):
        path = tmp_path / "bad.krn"
        path.write_text(ILLEGAL)
        code, text = run_cli(["legality", str(path)])
        assert code == 1
        assert "NOT PROVEN LEGAL" in text
        assert "carried" in text


class TestSimulationCommands:
    def test_run_app(self):
        code, text = run_cli(["run", "--app", "swim", "--scale", "0.3"])
        assert code == 0
        assert "off-chip fraction" in text

    def test_run_optimized_kernel(self, kernel_file):
        code, text = run_cli(["run", "--kernel", kernel_file,
                              "--optimized"])
        assert code == 0
        assert "(optimized)" in text

    def test_compare(self, kernel_file):
        code, text = run_cli(["compare", "--kernel", kernel_file])
        assert code == 0
        assert "execution time" in text

    def test_list(self):
        code, text = run_cli(["list"])
        assert code == 0
        assert "minighost" in text

    def test_mesh_flag(self):
        code, text = run_cli(["run", "--app", "swim", "--scale", "0.3",
                              "--mesh", "4x4"])
        assert code == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestSweepCommand:
    def test_sweep_csv(self):
        code, text = run_cli(["sweep", "--app", "swim", "--scale", "0.3",
                              "--axis", "mapping=M1,M2"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("mapping,")
        assert len(lines) == 3

    def test_summary_counts_simulated_points(self, capsys):
        # Without --progress the summary still counts every simulated
        # point, and no per-wave lines are printed.
        code, _ = run_cli(["sweep", "--app", "swim", "--scale", "0.2",
                           "--axis", "mapping=M1,M2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "(2 simulated)" in err
        assert "wave" not in err

    def test_bad_axis(self):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--app", "swim", "--axis", "mapping"])

    def test_bad_axis_spec_names_offender(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "--app", "swim", "--axis", "mapping"])
        message = str(excinfo.value)
        assert "mapping" in message and "name=v1,v2" in message

    def test_unknown_axis_lists_known_axes(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "--app", "swim",
                     "--axis", "num_mc=4,8"])  # typo: num_mc
        message = str(excinfo.value)
        assert "num_mc" in message
        assert "num_mcs" in message and "mapping" in message

    def test_empty_axis_value(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "--app", "swim",
                     "--axis", "num_mcs=4,,8"])
        assert "num_mcs" in str(excinfo.value)

    def test_unknown_mapping_preset_is_one_line(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "--app", "swim",
                     "--axis", "mapping=M1,M9"])
        message = str(excinfo.value)
        assert "M9" in message and "voronoi" in message
        assert "\n" not in message


class TestFaultPlanFlag:
    def test_run_with_fault_plan(self, tmp_path):
        from repro import FaultPlan, LinkFault, MCFault
        plan = FaultPlan(link_faults=[LinkFault(0, 1)],
                         mc_faults=[MCFault(0, "offline",
                                            start=5000.0)])
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code, text = run_cli(["run", "--app", "swim", "--scale", "0.3",
                              "--fault-plan", str(path), "--seed", "3"])
        assert code == 0
        assert "fault events" in text

    def test_missing_fault_plan_file(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "--app", "swim",
                     "--fault-plan", "/nonexistent/plan.json"])
        assert "cannot load fault plan" in str(excinfo.value)

    def test_malformed_fault_plan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "--app", "swim",
                     "--fault-plan", str(path)])
        assert "cannot load fault plan" in str(excinfo.value)


class TestTraceCommand:
    def test_trace_roundtrip(self, tmp_path):
        out_path = str(tmp_path / "t.npz")
        code, text = run_cli(["trace", "--app", "swim", "--scale", "0.3",
                              "--output", out_path])
        assert code == 0
        assert "wrote" in text
        from repro.program.tracefile import load_metadata
        assert load_metadata(out_path)["program"] == "swim"

    def test_trace_optimized(self, tmp_path):
        out_path = str(tmp_path / "t.npz")
        code, _ = run_cli(["trace", "--app", "swim", "--scale", "0.3",
                           "--output", out_path, "--optimized"])
        assert code == 0
        from repro.program.tracefile import load_metadata
        assert load_metadata(out_path)["optimized"] is True


class TestReportCommand:
    def test_markdown_report(self, tmp_path):
        out_path = str(tmp_path / "r.md")
        code, text = run_cli(["report", "--apps", "swim,galgel",
                              "--scale", "0.3", "--output", out_path])
        assert code == 0
        content = open(out_path).read()
        assert "# Off-chip localization report" in content
        assert "swim" in content and "galgel" in content
        assert "Pass coverage" in content

    def test_report_to_stdout(self):
        code, text = run_cli(["report", "--apps", "swim",
                              "--scale", "0.3"])
        assert code == 0
        assert "reductions" in text


class TestExitCodes:
    """repro-cli exits with the per-family codes of
    repro.errors.EXIT_CODES, mirroring the service's HTTP mapping."""

    def test_frontend_error_exits_with_family_code(self, tmp_path,
                                                   capsys):
        from repro.errors import EXIT_CODES
        bad = tmp_path / "broken.krn"
        bad.write_text("parallel for (i = 0; i <\n")
        code, _ = run_cli(["run", "--kernel", str(bad)])
        assert code == EXIT_CODES["frontend"] == 4
        assert "frontend" in capsys.readouterr().err

    def test_compare_shares_the_mapping(self, tmp_path):
        from repro.errors import EXIT_CODES
        bad = tmp_path / "broken.krn"
        bad.write_text("array A[;\n")
        code, _ = run_cli(["compare", "--kernel", str(bad)])
        assert code == EXIT_CODES["frontend"]

    def test_serve_verb_is_wired(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0",
                                  "--store", "x"])
        assert args.port == 0 and args.store == "x"
        assert args.func.__name__ == "cmd_serve"

    def test_exit_codes_stay_off_reserved_values(self):
        from repro.errors import EXIT_CODES
        assert all(code not in (0, 1, 2)
                   for code in EXIT_CODES.values())
