"""CLI tests (fast commands only; campaign commands use the quick scale
against a temp cache)."""

import contextlib
import io

import pytest

from repro.cli import build_parser, main


def _campaign_output(argv: list[str]) -> str:
    """What ``main(argv)`` prints, without its per-shard progress lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return "\n".join(line for line in out.getvalue().splitlines()
                     if not line.startswith("[campaign] "))


@pytest.fixture(scope="module")
def quick_table(tmp_path_factory) -> str:
    """Table I and the pruning line of a default quick campaign."""
    cache = tmp_path_factory.mktemp("cache")
    return _campaign_output(["campaign", "--scale", "quick",
                             "--cache", str(cache)])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonesuch"])

    @pytest.mark.parametrize("argv,field", (
        (["campaign", "--batch", "-5"], "batch"),
        (["campaign", "--workers", "-3"], "workers"),
        (["work", "--url", "http://127.0.0.1:9", "--batch", "-1"], "batch"),
        (["serve", "--chunk-flops", "0"], "chunk_flops"),
        (["evaluate", "--top-k", "-1"], "top_k"),
        (["serve", "--top-k", "0"], "top_k"),
    ), ids=("batch", "workers", "work-batch", "serve-chunk", "evaluate-top-k",
            "serve-top-k"))
    def test_out_of_range_execution_value_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys, argv, field):
        """Nothing is clamped or run: the value is named, exit status 2."""
        from repro.faults.service import http

        def no_server(*args):
            raise AssertionError("the server started")

        monkeypatch.setattr(http, "serve_forever", no_server)
        scoped = ["--ledger", str(tmp_path)] if argv[0] == "serve" else (
            ["--scale", "quick", "--cache", str(tmp_path)]
            if argv[0] in ("campaign", "evaluate") else [])
        with pytest.raises(SystemExit) as excinfo:
            main(argv + scoped)
        assert excinfo.value.code == 2
        assert f"{field} must be >= " in capsys.readouterr().err


class TestCommands:
    def test_kernels_lists_all(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("ttsprk", "idctrn", "iirflt"):
            assert name in out

    def test_run_kernel(self, capsys):
        assert main(["run", "puwmod"]) == 0
        out = capsys.readouterr().out
        assert "matches reference model: True" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "rspeed"]) == 0
        out = capsys.readouterr().out
        assert "halt" in out
        assert "0x0000:" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    @pytest.mark.parametrize("flags", (
        [], ["--workers", "2"], ["--batch", "0"], ["--resume", "--ledger"],
    ), ids=("no-flags", "workers2", "batch0", "resume"))
    def test_campaign_quick(self, tmp_path, quick_table, flags):
        """Every execution flag, and the ledger path, prints the same
        Table I and pruning line."""
        if flags[-1:] == ["--ledger"]:
            flags = [*flags, str(tmp_path / "ledger")]
        out = _campaign_output(["campaign", "--scale", "quick",
                                "--cache", str(tmp_path / "cache"), *flags])
        assert "Table I" in out
        assert "\npruning: " in out
        assert out == quick_table

    def test_evaluate_quick(self, capsys, tmp_path):
        assert main(["evaluate", "--scale", "quick",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out
        assert "Table III" in out

    def test_evaluate_fine_topk(self, capsys, tmp_path):
        assert main(["evaluate", "--scale", "quick", "--cache", str(tmp_path),
                     "--fine", "--top-k", "4", "--off-chip"]) == 0
        out = capsys.readouterr().out
        assert "13 CPU units" in out
