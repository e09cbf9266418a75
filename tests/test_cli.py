import json
import math
import subprocess
import sys

import numpy as np
import pytest

from opschur import cli, matrices
from opschur.matrices import DENSE_BYTES_LIMIT, random_toeplitz

from test_serialize import MALFORMED, UNDECODABLE, _toeplitz_payload
from opschur.serialize import matrix_to_payload, save_json


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "opschur", *args],
        capture_output=True, text=True, env=env,
    )


class TestRun:
    def test_single_experiment_writes_tables(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("run", "--experiment", "kernel-axioms",
                         "--out", str(out))
        assert result.returncode == 0
        assert "kernel-axioms: ok" in result.stdout
        files = {p.name for p in out.iterdir()}
        assert files == {"kernel-axioms__axioms.csv",
                         "kernel-axioms__assertions.csv"}

    def test_reruns_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            result = run_cli("run", "--experiment", "norm-identities",
                             "--seed", "5", "--out", str(out))
            assert result.returncode == 0
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("run", "--experiment", "kernel-axioms",
                         "--format", "json", "--out", str(out))
        assert result.returncode == 0
        payload = json.loads((out / "kernel-axioms.json").read_text())
        assert payload["type"] == "experiment"
        assert payload["passed"] is True
        assert payload["config"]["seed"] == 0

    def test_check_mode_passes(self, tmp_path):
        result = run_cli("run", "--experiment", "schur-submultiplicativity",
                         "--check", "--out", str(tmp_path / "out"))
        assert result.returncode == 0

    def test_check_mode_fails_on_forced_tolerance(self, tmp_path):
        # an impossible profile tolerance turns a convergence assertion red
        result = run_cli("run", "--experiment", "sigma-profiles", "--check",
                         "--tolerance", "profile=1e-12",
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 3
        assert "FAILED" in result.stdout

    def test_check_mode_names_failed_assertions(self, tmp_path):
        # stderr names each failed assertion; stdout and the files are unchanged
        args = ("run", "--experiment", "sigma-profiles", "--tolerance", "profile=1e-12")
        plain = run_cli(*args, "--out", str(tmp_path / "plain"))
        check = run_cli(*args, "--check", "--out", str(tmp_path / "check"))
        assert check.returncode == 3
        assert check.stderr == "banded_converges: threshold None\n"
        assert plain.stderr == ""
        assert check.stdout == plain.stdout
        for path in sorted((tmp_path / "plain").iterdir()):
            assert path.read_bytes() == (tmp_path / "check" / path.name).read_bytes()

    def test_env_var_output_directory(self, tmp_path, monkeypatch):
        import os
        env = dict(os.environ, OPSCHUR_OUT=str(tmp_path / "from-env"))
        result = run_cli("run", "--experiment", "kernel-axioms", env=env)
        assert result.returncode == 0
        assert (tmp_path / "from-env" / "kernel-axioms__axioms.csv").exists()


class TestConfigErrors:
    def test_unknown_experiment(self):
        result = run_cli("run", "--experiment", "bogus")
        assert result.returncode == 1
        assert "invalid choice" in result.stderr

    def test_bad_tolerance_value(self):
        result = run_cli("run", "--tolerance", "profile=abc")
        assert result.returncode == 1
        assert "not a number" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance(self, value, tmp_path):
        result = run_cli("run", "--experiment", "sigma-profiles", "--check",
                         "--tolerance", f"profile={value}",
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert "'profile' must be finite and positive" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_unknown_tolerance_key(self, tmp_path):
        result = run_cli("run", "--experiment", "kernel-axioms",
                         "--tolerance", "bogus=1", "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert "unknown --tolerance key 'bogus'" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_tolerance_shape(self):
        result = run_cli("run", "--tolerance", "profile")
        assert result.returncode == 1
        assert "KEY=VALUE" in result.stderr

    def test_bad_size(self):
        result = run_cli("run", "--N", "1")
        assert result.returncode == 1

    def test_size_over_the_dense_limit_is_refused(self, tmp_path, monkeypatch):
        # 16 (N d)^2 = 16384 bytes at the default N=16, d=2
        monkeypatch.setattr(matrices, "DENSE_BYTES_LIMIT", 16383)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--experiment", "kernel-axioms",
                      "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 1
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(matrices, "DENSE_BYTES_LIMIT", 16384)
        assert cli.main(["run", "--experiment", "kernel-axioms",
                         "--out", str(tmp_path / "out")]) == 0

    def test_size_over_the_dense_limit_names_the_bytes(self, tmp_path):
        result = run_cli("run", "--N", "4097", "--d", "1", "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert f"needs {16 * 4097 ** 2} bytes" in result.stderr
        assert str(DENSE_BYTES_LIMIT) in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_negative_seed(self, tmp_path):
        result = run_cli("run", "--experiment", "norm-identities", "--seed", "-1",
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert "--seed must be non-negative" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_no_command(self):
        result = run_cli()
        assert result.returncode == 1


class TestConvert:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = random_toeplitz(5, 2, rng, (-1, 0, 2))
        src, dst = tmp_path / "a.json", tmp_path / "b.json"
        save_json(src, matrix_to_payload(a))
        result = run_cli("convert", str(src), str(dst))
        assert result.returncode == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_densify_flag(self, tmp_path):
        rng = np.random.default_rng(1)
        a = random_toeplitz(5, 2, rng, (0, 1))
        src, dst = tmp_path / "a.json", tmp_path / "b.json"
        save_json(src, matrix_to_payload(a))
        result = run_cli("convert", str(src), str(dst), "--densify")
        assert result.returncode == 0
        assert json.loads(dst.read_text())["structure"] == "dense"

    def test_densify_past_the_limit_exits_one(self, tmp_path):
        payload = _toeplitz_payload()
        payload["N"] = math.isqrt(DENSE_BYTES_LIMIT // 16) // payload["d"] + 1
        src, dst = tmp_path / "a.json", tmp_path / "b.json"
        save_json(src, payload)
        result = run_cli("convert", str(src), str(dst), "--densify")
        assert result.returncode == 1
        assert result.stderr.startswith("opschur: field 'N': a dense copy needs")
        assert "Traceback" not in result.stderr
        assert not dst.exists()

    def test_missing_input(self, tmp_path):
        result = run_cli("convert", str(tmp_path / "none.json"),
                         str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert result.stderr.strip()

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_document_exits_one(self, tmp_path, case):
        src = tmp_path / "bad.json"
        src.write_bytes(UNDECODABLE[case])
        result = run_cli("convert", str(src), str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert result.stderr.startswith("opschur: field '<document>': invalid JSON")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_exits_one(self, tmp_path, case):
        make, mutate, field = MALFORMED[case]
        payload = make()
        mutate(payload)
        text = json.dumps(payload)
        if "NaN" in text or "Infinity" in text:
            field = "<document>"  # not JSON: the reader refuses the whole document
        src = tmp_path / "bad.json"
        src.write_text(text)
        result = run_cli("convert", str(src), str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert result.stderr.startswith(f"opschur: field {field!r}:")
        assert "Traceback" not in result.stderr
