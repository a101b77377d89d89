"""CLI behaviour (argument parsing + end-to-end subcommands)."""

import pathlib

import pytest

from repro.cli import main
from repro.workloads.microservice import MICROSERVICE_WAT, build_microservice_wasm


@pytest.fixture()
def wat_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "svc.wat"
    path.write_text(MICROSERVICE_WAT)
    return path


@pytest.fixture()
def wasm_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "svc.wasm"
    path.write_bytes(build_microservice_wasm())
    return path


class TestToolchainCommands:
    def test_wat2wasm(self, wat_file, tmp_path, capsys):
        out = tmp_path / "out.wasm"
        assert main(["wat2wasm", str(wat_file), "-o", str(out)]) == 0
        assert out.read_bytes()[:4] == b"\x00asm"
        assert "wrote" in capsys.readouterr().out

    def test_wat2wasm_default_output(self, wat_file):
        assert main(["wat2wasm", str(wat_file)]) == 0
        assert wat_file.with_suffix(".wasm").exists()

    def test_wasm2wat_prints(self, wasm_file, capsys):
        assert main(["wasm2wat", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(module") and "fd_write" in out

    def test_wasm2wat_roundtrip_through_files(self, wasm_file, tmp_path):
        wat_out = tmp_path / "dis.wat"
        assert main(["wasm2wat", str(wasm_file), "-o", str(wat_out)]) == 0
        wasm_out = tmp_path / "re.wasm"
        assert main(["wat2wasm", str(wat_out), "-o", str(wasm_out)]) == 0
        assert wasm_out.read_bytes() == wasm_file.read_bytes()

    def test_validate_wat(self, wat_file, capsys):
        assert main(["validate", str(wat_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_wasm(self, wasm_file, capsys):
        assert main(["validate", str(wasm_file)]) == 0

    def test_validate_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(b"nope")
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.wasm"]) == 1


class TestCcCommand:
    def test_compile_and_run_c(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text(
            'int main(void) { puts("from C"); putd(6 * 7); return 3; }'
        )
        assert main(["cc", str(src)]) == 0
        out_path = src.with_suffix(".wasm")
        assert out_path.read_bytes()[:4] == b"\x00asm"
        capsys.readouterr()
        code = main(["run", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "from C\n42\n"

    def test_run_c_source_directly(self, tmp_path, capsys):
        src = tmp_path / "direct.c"
        src.write_text("int main(void) { putd(env_int(\"N\", 11)); return 0; }")
        assert main(["run", str(src), "--env", "N=5"]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_cc_error_reporting(self, tmp_path, capsys):
        src = tmp_path / "bad.c"
        src.write_text("int main(void) { return missing(); }")
        assert main(["cc", str(src)]) == 1
        assert "unknown function" in capsys.readouterr().err

    def test_cc_output_disassembles(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text("int twice(int x) { return 2 * x; } int main(void) { return twice(2); }")
        out = tmp_path / "app.wasm"
        assert main(["cc", str(src), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["wasm2wat", str(out)]) == 0
        text = capsys.readouterr().out
        assert "i32.mul" in text


class TestRunCommand:
    def test_run_wasm(self, wasm_file, capsys):
        code = main(["run", str(wasm_file), "--env", "REQUESTS=2", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("request served") == 2
        assert "instructions=" in captured.err

    def test_run_wat_directly(self, wat_file, capsys):
        assert main(["run", str(wat_file)]) == 0
        assert "ready" in capsys.readouterr().out

    def test_run_fuel_exhaustion(self, tmp_path, capsys):
        spin = tmp_path / "spin.wat"
        spin.write_text('(module (func (export "_start") (loop $l (br $l))))')
        assert main(["run", str(spin), "--fuel", "1000"]) == 1
        assert "error" in capsys.readouterr().err


class TestDeployCommand:
    def test_deploy_summary(self, capsys):
        assert main(["deploy", "--config", "crun-wamr", "-n", "4", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "memory (metrics)" in out
        assert "startup.parallel" in out

    def test_deploy_unknown_config(self, capsys):
        assert main(["deploy", "--config", "docker-v8", "-n", "2"]) == 1


#: files the failure cases below read, written as ``{tmp}/<name>``
BAD_FILES = {
    "text.json": b"not json at all\n",
    "list.json": b"[]\n",
    "object.json": b"{}\n",
    "bare-metadata.json": b'{"traceEvents": [{"ph": "M", "args": {}}]}\n',
    "no-category.jsonl": b'{"name": "x", "ts": 0, "dur": 1}\n',
    "binary.json": b"\x89PNG\r\n\x1a\n\xff\xfe",
    "text.prom": b"not an exposition\n",
    "text.jsonl": b"not json at all\n",
}


class TestFailureContract:
    """Bad inputs exit 1 with a typed error instead of a traceback."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["deploy", "-n", "0"], "pod count must be at least 1"),
            (["recover", "-n", "501"], "were not scheduled (capacity: 1)"),
            (["fleet", "--fleets", "2", "4", "-n", "8"], "must include 1"),
            (["chaos", "-n", "2", "--seed", "-3"], "seed must be non-negative, got -3"),
            (["fleet", "--fleets", "1", "1", "-n", "8"], "repeat [1]"),
            (["campaign", "--nodes", "0"], "nodes must be a positive int, got 0"),
            (
                ["campaign", "--seed", "-1", "-j", "1", "--no-cache"],
                "seed must be non-negative, got -1",
            ),
            (["inspect", "{tmp}/text.json"], "line 1: not JSON"),
            (["inspect", "{tmp}/list.json"], "line 1: not a trace event"),
            (["inspect", "{tmp}/object.json"], "not a Chrome trace"),
            (["inspect", "{tmp}/bare-metadata.json"], "metadata event without name"),
            (["inspect", "{tmp}/no-category.jsonl"], "line 1: not a trace event"),
            (["inspect", "{tmp}/binary.json"], "can't decode"),
            (["inspect", "--nodes", "--metrics", "{tmp}/text.prom"], "malformed sample"),
            (["inspect", "--wasi", "--metrics", "{tmp}/text.prom"], "malformed sample"),
            (["monitor", "{tmp}/text.jsonl"], "line 1: not JSON"),
            (["validate", "{tmp}"], "Is a directory"),
            (["run", "{tmp}"], "Is a directory"),
            (["inspect", "{tmp}"], "Is a directory"),
            (["monitor", "{tmp}"], "Is a directory"),
            (["deploy", "-n", "1", "--metrics-out", "{tmp}"], "Is a directory"),
        ],
    )
    def test_bad_input_reports_error(self, argv, err, capsys, tmp_path):
        from repro import obs

        for name, body in BAD_FILES.items():
            (tmp_path / name).write_bytes(body)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        was = obs.enabled()
        try:
            assert main(argv) == 1
        finally:
            obs.reset()
            obs.set_enabled(was)
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert err in stderr

    def test_chaos_without_running_pod_fails_invariants(self, capsys):
        assert main(["chaos", "-n", "1", "--rate", "0.5", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "recovery time:        none" in out
        assert "[FAIL] converged" in out


class TestTelemetryExport:
    @pytest.fixture()
    def restore_obs(self):
        from repro import obs

        was = obs.enabled()
        yield
        obs.reset()
        obs.set_enabled(was)

    def test_deploy_exports_trace_and_metrics(self, tmp_path, capsys, restore_obs):
        import json

        from repro.obs.export import parse_prometheus_text, validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        assert main([
            "deploy", "--config", "crun-wamr", "-n", "3",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert str(trace) in out and str(metrics) in out
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        families = parse_prometheus_text(metrics.read_text())
        assert "repro_scheduler_placements_total" in families

    def test_inspect_renders_breakdown(self, tmp_path, capsys, restore_obs):
        trace = tmp_path / "t.jsonl"
        assert main([
            "deploy", "--config", "crun-wamr", "-n", "2", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        table = capsys.readouterr().out
        assert "startup.pipeline" in table and "pod.sync" in table
        assert main(["inspect", str(trace), "--category", "startup"]) == 0
        assert "pod.sync" not in capsys.readouterr().out

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/nonexistent-trace.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deploy_without_flags_leaves_telemetry_off(self, capsys):
        from repro import obs

        was = obs.enabled()
        assert main(["deploy", "--config", "crun-wamr", "-n", "2"]) == 0
        assert obs.enabled() == was


class TestFiguresCommand:
    def test_single_table(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "WAMR" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestCampaignCommand:
    def test_rerun_resumes_from_cache(self, tmp_path, capsys, monkeypatch):
        from repro.measure.experiment import ExperimentRunner

        argv = ["campaign", "-j", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def simulate(*args, **kwargs):
            raise AssertionError("a cached cell simulated again")

        monkeypatch.setattr(ExperimentRunner, "run", simulate)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
