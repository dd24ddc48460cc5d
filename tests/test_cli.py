"""CLI workflow tests (generate -> train -> detect, and evaluate)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--system", "bgl", "--out", "x.jsonl", "--lines", "50"]
        )
        assert args.system == "bgl"
        assert args.lines == 50

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestGenerate:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "bgl.jsonl"
        code = main(["generate", "--system", "bgl", "--lines", "120", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "120 records" in capsys.readouterr().out

    def test_scale_mode(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["generate", "--system", "system_c", "--scale", "0.001",
                     "--out", str(out)]) == 0
        assert out.stat().st_size > 0


class TestTrainDetect:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        files = {}
        for system, lines in (("bgl", 2500), ("spirit", 2500), ("thunderbird", 1500)):
            path = root / f"{system}.jsonl"
            assert main(["generate", "--system", system, "--lines", str(lines),
                         "--out", str(path)]) == 0
            files[system] = str(path)
        return root, files

    def test_full_workflow(self, workspace, capsys):
        root, files = workspace
        model_dir = str(root / "pipeline")
        metrics_path = root / "train_metrics.jsonl"
        cache_path = root / "interpretations.json"
        code = main([
            "train",
            "--sources", files["bgl"], files["spirit"],
            "--target", files["thunderbird"],
            "--n-source", "300", "--n-target", "60",
            "--epochs", "2", "--num-layers", "1",
            "--model-dir", model_dir, "--quiet",
            "--metrics-out", str(metrics_path),
            "--llm", f"cached:path={cache_path}",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "pipeline saved" in captured.out
        # The cached provider autosaves every new interpretation.
        assert cache_path.exists()

        # The exported JSONL carries the acceptance metrics: trainer epoch
        # counters, LLM cache hit/miss counters, pipeline-stage spans.
        from repro.obs import read_jsonl
        events = read_jsonl(metrics_path)
        names = {e.get("name") for e in events}
        assert {"trainer.epochs", "llm.cache.misses", "llm.cache.hits"} <= names
        assert "fit.train" in [e["name"] for e in events if e["kind"] == "span"]

        # `repro stats` renders the dump.
        assert main(["stats", str(metrics_path)]) == 0
        assert "trainer.epochs" in capsys.readouterr().out

        fresh = root / "fresh.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "300",
                     "--out", str(fresh), "--seed", "9"]) == 0
        code = main(["detect", "--model-dir", model_dir, "--logs", str(fresh),
                     "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows scored" in out
        assert "score=" in out

    def test_replay_with_middleware_stack_is_byte_identical(self, workspace,
                                                            tmp_path):
        root, files = workspace
        model_dir = str(root / "pipeline")
        logs = tmp_path / "replay_logs.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "200",
                     "--out", str(logs), "--seed", "4"]) == 0
        default_out = tmp_path / "default.jsonl"
        stacked_out = tmp_path / "stacked.jsonl"
        assert main(["replay", "--logs", str(logs), "--model-dir", model_dir,
                     "--out", str(default_out)]) == 0
        assert main(["replay", "--logs", str(logs), "--model-dir", model_dir,
                     "--llm", "simulated", "--out", str(stacked_out)]) == 0
        assert stacked_out.read_bytes() == default_out.read_bytes()
        # Shard processes load a pickled copy of the stacked provider.
        process_out = tmp_path / "process.jsonl"
        assert main(["replay", "--logs", str(logs), "--model-dir", model_dir,
                     "--llm", "simulated", "--executor", "process",
                     "--shards", "2", "--out", str(process_out)]) == 0
        assert process_out.read_bytes() == default_out.read_bytes()

    def test_bad_llm_spec_is_a_clean_cli_error(self, workspace, tmp_path):
        root, files = workspace
        with pytest.raises(SystemExit, match="--llm: unknown LLM provider"):
            main(["replay", "--logs", files["thunderbird"],
                  "--model-dir", str(root / "pipeline"), "--llm", "gpt7"])

    def test_detect_too_few_records(self, workspace, tmp_path):
        root, files = workspace
        model_dir = str(root / "pipeline")
        short = tmp_path / "short.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "3",
                     "--out", str(short)]) == 0
        with pytest.raises(SystemExit):
            main(["detect", "--model-dir", model_dir, "--logs", str(short)])


class TestEvaluate:
    def test_prints_table(self, capsys):
        code = main([
            "evaluate", "--target", "thunderbird", "--sources", "bgl", "spirit",
            "--scale", "0.002", "--n-source", "200", "--n-target", "50",
            "--max-test", "150", "--epochs", "2", "--num-layers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LogSynergy" in out
        assert "F1%" in out


class TestReplayServe:
    SAMPLE = "examples/data/replay_sample.jsonl"

    def test_replay_is_shard_invariant(self, tmp_path, capsys):
        outputs = []
        for shards in (2, 4):
            out = tmp_path / f"reports_{shards}.jsonl"
            assert main(["replay", "--logs", self.SAMPLE,
                         "--shards", str(shards), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # the bundled sample raises reports
        assert "records ->" in capsys.readouterr().out

    def test_replay_writes_metrics_jsonl(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert main(["replay", "--logs", self.SAMPLE, "--shards", "2",
                     "--out", str(out), "--metrics-out", str(metrics)]) == 0
        assert metrics.stat().st_size > 0

    def test_replay_stdout_matches_file_output(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        assert main(["replay", "--logs", self.SAMPLE, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", "--logs", self.SAMPLE]) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() in stdout

    def test_serve_matches_replay(self, tmp_path, capsys):
        replay_out = tmp_path / "replay.jsonl"
        assert main(["replay", "--logs", self.SAMPLE, "--shards", "2",
                     "--out", str(replay_out)]) == 0
        for executor in ([], ["--executor", "process"]):
            serve_out = tmp_path / "serve.jsonl"
            assert main(["serve", "--logs", self.SAMPLE, "--shards", "2",
                         "--out", str(serve_out), *executor]) == 0
            assert serve_out.read_bytes() == replay_out.read_bytes(), executor
            assert "served" in capsys.readouterr().out

    def test_replay_rejects_empty_logs(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no records"):
            main(["replay", "--logs", str(empty)])


class TestProfile:
    FAST = ["profile", "--sequences", "48", "--epochs", "1", "--window", "4",
            "--embedding-dim", "16", "--feature-dim", "8", "--d-model", "16",
            "--num-heads", "2", "--d-ff", "32"]

    def test_prints_ranked_table(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "fused kernels" in out
        assert "fwd self" in out and "bwd total" in out
        assert "lstm_layer" in out or "attention" in out or "matmul" in out

    def test_unfused_mode(self, capsys):
        assert main(self.FAST + ["--unfused", "--top", "5"]) == 0
        assert "seed (unfused)" in capsys.readouterr().out

    def test_metrics_out_exports_profile(self, tmp_path, capsys):
        metrics = tmp_path / "profile.jsonl"
        assert main(self.FAST + ["--metrics-out", str(metrics)]) == 0
        from repro.obs import read_jsonl

        names = {event.get("name", "") for event in read_jsonl(metrics)}
        assert any(name.startswith("nn.profile.") for name in names)
        assert any(name.endswith(".backward_seconds") for name in names)


class TestCheckpointedTraining:
    """train --checkpoint-dir / --stop-after / --resume and the onboard
    subcommand (shadow-gated warm-start fine-tuning)."""

    TRAIN_FLAGS = ["--n-source", "200", "--n-target", "60",
                   "--epochs", "2", "--num-layers", "1", "--quiet"]

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt_cli")
        files = {}
        for system, lines in (("bgl", 1500), ("spirit", 1500),
                              ("thunderbird", 1200)):
            path = root / f"{system}.jsonl"
            assert main(["generate", "--system", system, "--lines",
                         str(lines), "--out", str(path)]) == 0
            files[system] = str(path)
        ref_dir = root / "reference"
        assert main(["train",
                     "--sources", files["bgl"], files["spirit"],
                     "--target", files["thunderbird"],
                     "--model-dir", str(ref_dir)] + self.TRAIN_FLAGS) == 0
        return root, files, ref_dir

    def test_stop_then_resume_is_byte_identical(self, workspace):
        root, files, ref_dir = workspace
        resumed_dir = root / "resumed"
        ckpt_dir = root / "ckpt"
        common = ["train",
                  "--sources", files["bgl"], files["spirit"],
                  "--target", files["thunderbird"],
                  "--model-dir", str(resumed_dir),
                  "--checkpoint-dir", str(ckpt_dir)] + self.TRAIN_FLAGS
        # Epoch 1, pause, checkpoint durably...
        assert main(common + ["--stop-after", "1"]) == 0
        assert (ckpt_dir / "MANIFEST.json").exists()
        # ...then resume to the full 2 epochs in a fresh invocation.
        assert main(common + ["--resume"]) == 0
        assert (resumed_dir / "model.npz").read_bytes() \
            == (ref_dir / "model.npz").read_bytes()

    def test_resume_requires_checkpoint_dir(self, workspace):
        root, files, _ = workspace
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["train",
                  "--sources", files["bgl"], files["spirit"],
                  "--target", files["thunderbird"],
                  "--model-dir", str(root / "x"), "--resume"]
                 + self.TRAIN_FLAGS)

    def test_kill_after_requires_checkpoint_dir(self, workspace):
        root, files, _ = workspace
        with pytest.raises(SystemExit, match="--kill-after requires"):
            main(["train",
                  "--sources", files["bgl"], files["spirit"],
                  "--target", files["thunderbird"],
                  "--model-dir", str(root / "x"), "--kill-after", "1"]
                 + self.TRAIN_FLAGS)

    def test_onboard_promotes_and_saves(self, workspace, tmp_path, capsys):
        root, files, ref_dir = workspace
        day0 = tmp_path / "day0.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "400",
                     "--out", str(day0), "--seed", "17"]) == 0
        out_dir = tmp_path / "promoted"
        code = main(["onboard", "--model-dir", str(ref_dir),
                     "--logs", str(day0), "--epochs", "1",
                     "--gate-f1", "0.0", "--executor", "sync",
                     "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PROMOTED" in out and "shadow F1" in out
        assert (out_dir / "model.npz").exists()

    def test_onboard_rejection_keeps_serving_model(self, workspace, tmp_path,
                                                   capsys):
        root, files, ref_dir = workspace
        day0 = tmp_path / "day0.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "400",
                     "--out", str(day0), "--seed", "23"]) == 0
        before = (ref_dir / "model.npz").read_bytes()
        out_dir = tmp_path / "never"
        code = main(["onboard", "--model-dir", str(ref_dir),
                     "--logs", str(day0), "--epochs", "1",
                     "--gate-f1", "1.0", "--executor", "none",
                     "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "REJECTED" in out
        assert not out_dir.exists()
        assert (ref_dir / "model.npz").read_bytes() == before

    def test_onboard_too_few_windows(self, workspace, tmp_path):
        root, files, ref_dir = workspace
        short = tmp_path / "short.jsonl"
        assert main(["generate", "--system", "thunderbird", "--lines", "12",
                     "--out", str(short)]) == 0
        with pytest.raises(SystemExit, match="too few"):
            main(["onboard", "--model-dir", str(ref_dir),
                  "--logs", str(short)])

    def test_onboard_resume_requires_checkpoint_dir(self, workspace,
                                                    tmp_path):
        root, files, ref_dir = workspace
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["onboard", "--model-dir", str(ref_dir),
                  "--logs", files["thunderbird"], "--resume"])
