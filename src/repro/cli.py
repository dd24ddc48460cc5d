"""Command-line interface.

Five subcommands cover the adoption workflow end to end::

    python -m repro generate --system bgl --lines 20000 --out bgl.jsonl
    python -m repro train --sources bgl.jsonl spirit.jsonl \
        --target tbird.jsonl --n-target 100 --model-dir pipeline/
    python -m repro detect --model-dir pipeline/ --logs new_tbird.jsonl
    python -m repro evaluate --target thunderbird --sources bgl spirit
    python -m repro stats metrics.jsonl

``generate`` writes synthetic datasets; ``train`` fits LogSynergy from
JSONL record files and persists the full pipeline; ``detect`` scores a log
file with a saved pipeline and prints reports; ``evaluate`` runs a
cross-system experiment on synthetic data and prints the metric table.

``train``/``detect``/``evaluate`` accept ``--metrics-out PATH``: the run
executes under a live ``repro.obs`` registry and exports every counter,
histogram and span to ``PATH`` as JSONL; ``stats`` pretty-prints such a
file.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Install a live metrics registry when ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if not path:
        yield None
        return
    from .obs import MetricsRegistry, use_registry, write_jsonl

    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry
    count = write_jsonl(registry, path)
    print(f"wrote {count} metric events to {path}")


def _resolve_llm(args: argparse.Namespace, seed: int):
    """Resolve the shared ``--llm`` spec flag into a provider.

    Returns ``None`` when the flag was not given (call sites fall back to
    their historical default).
    """
    spec = getattr(args, "llm", None)
    if not spec:
        return None
    from .llm.factory import resolve_provider

    middleware = not getattr(args, "no_llm_stack", False)
    try:
        return resolve_provider(spec, seed=seed, middleware=middleware)
    except ValueError as exc:
        raise SystemExit(f"--llm: {exc}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from .logs import build_dataset, save_records
    from .logs.generator import LogGenerator

    if args.lines is not None:
        records = LogGenerator(args.system, seed=args.seed).generate(args.lines)
    else:
        records = build_dataset(args.system, scale=args.scale, seed=args.seed).records
    count = save_records(records, args.out)
    anomalous = sum(r.is_anomalous for r in records)
    print(f"wrote {count} records ({anomalous} anomalous lines) to {args.out}")
    return 0


def _load_sequences(path: str, window: int, step: int):
    from .logs import load_records, sliding_windows

    records = load_records(path)
    if not records:
        raise SystemExit(f"{path}: no records")
    return records[0].system, sliding_windows(records, window=window, step=step)


class _KillAfter:
    """CLI-only crash switch: SIGKILL this process after epoch N ends.

    Composed *after* the checkpoint controller, so the epoch's
    checkpoint is durable before the process dies — the smoke test's
    kill/resume/byte-diff sequence depends on exactly that ordering.
    """

    def __init__(self, epochs: int):
        self.epochs = epochs

    def on_fit_start(self, trainer):
        return None

    def on_epoch_start(self, trainer, epoch):
        return None

    def on_step(self, trainer, step):
        return None

    def on_epoch_end(self, trainer, epoch, metrics):
        if epoch + 1 >= self.epochs:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        return None

    def on_fit_end(self, trainer, history):
        return None


def _training_controls(args: argparse.Namespace):
    """(controller, store, resume) from the shared checkpoint flags."""
    from .core import CheckpointEvery, CheckpointStore, StopAfter, compose

    if getattr(args, "resume", False) and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if getattr(args, "kill_after", None) is not None and not args.checkpoint_dir:
        raise SystemExit("--kill-after requires --checkpoint-dir")
    controllers = []
    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir)
        controllers.append(CheckpointEvery(store, epochs=args.checkpoint_every))
    if getattr(args, "stop_after", None) is not None:
        controllers.append(StopAfter(epochs=args.stop_after))
    if getattr(args, "kill_after", None) is not None:
        controllers.append(_KillAfter(args.kill_after))
    return compose(controllers), store, getattr(args, "resume", False)


def _cmd_train(args: argparse.Namespace) -> int:
    from .config import LogSynergyConfig
    from .core import LogSynergy
    from .evaluation import continuous_target_split, source_training_slice

    config = LogSynergyConfig(
        d_model=args.d_model, num_heads=args.num_heads, num_layers=args.num_layers,
        d_ff=args.d_ff, feature_dim=args.feature_dim, embedding_dim=args.embedding_dim,
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        seed=args.seed,
    )
    sources = {}
    for path in args.sources:
        system, sequences = _load_sequences(path, args.window, args.step)
        sources[system] = source_training_slice(sequences, args.n_source)
        print(f"source {system}: {len(sources[system])} sequences from {path}")
    target_system, target_sequences = _load_sequences(args.target, args.window, args.step)
    split = continuous_target_split(target_sequences, args.n_target)
    print(f"target {target_system}: {len(split.train)} training sequences")

    with _observability(args):
        # Inside the observability scope: the checkpoint store's
        # counters bind at construction and must reach --metrics-out.
        controller, store, resume = _training_controls(args)
        model = LogSynergy(config, llm=_resolve_llm(args, config.seed))
        model.fit(sources, target_system, split.train, verbose=not args.quiet,
                  controller=controller, store=store, resume=resume)
        model.save_pipeline(args.model_dir)
    print(f"pipeline saved to {args.model_dir}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from .core import LogSynergy
    from .logs import load_records, sliding_windows

    records = load_records(args.logs)
    sequences = sliding_windows(records, window=args.window, step=args.step)
    if not sequences:
        raise SystemExit(f"{args.logs}: not enough records for one window")
    with _observability(args):
        # Load inside the scope so Drain/featurizer handles bind to the
        # live registry.
        model = LogSynergy.load_pipeline(args.model_dir)
        probabilities = model.predict_proba(sequences)
        flagged = int((probabilities > model.config.threshold).sum())
        print(f"{len(sequences)} windows scored; {flagged} above threshold "
              f"{model.config.threshold}")
        top = [sequences[int(i)] for i in np.argsort(-probabilities)[: args.top]]
        reports = model.detect_stream_batch(
            [s.messages for s in top],
            [[r.timestamp for r in s.records] for s in top],
        )
        for sequence, report in zip(top, reports):
            marker = "ANOMALY" if report.is_anomalous else "ok     "
            print(f"  [{marker}] score={report.score:.3f} window@{sequence.start_index}: "
                  f"{report.summary()}")
    return 0


def _cmd_onboard(args: argparse.Namespace) -> int:
    """Warm-start fine-tune on day-0 logs while a runtime keeps serving
    the old weights; promote only past the shadow-F1 gate."""
    from .core import CheckpointStore, LogSynergy, OnboardingSession
    from .logs import load_records, sliding_windows

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    records = load_records(args.logs)
    if not records:
        raise SystemExit(f"{args.logs}: no records")
    sequences = sliding_windows(records, window=args.window, step=args.step)
    if len(sequences) < 4:
        raise SystemExit(f"{args.logs}: only {len(sequences)} windows — "
                         "too few to split into fine-tune and holdout")
    system = records[0].system
    with _observability(args):
        pipeline = LogSynergy.load_pipeline(args.model_dir)
        runtime = None
        if args.executor != "none":
            from .runtime import InferenceRuntime

            runtime = InferenceRuntime.from_model(
                pipeline, executor=args.executor,
                window=args.window, step=args.step)
        store = (CheckpointStore(args.checkpoint_dir)
                 if args.checkpoint_dir else None)
        session = OnboardingSession(
            pipeline, runtime=runtime, gate_f1=args.gate_f1,
            holdout_fraction=args.holdout_fraction)
        try:
            result = session.run(system, sequences, epochs=args.epochs,
                                 store=store, resume=args.resume)
        finally:
            if runtime is not None:
                # Reaps a process runtime's shard processes (spawned by
                # a promotion's swap); a sync runtime has nothing queued.
                runtime.stop()
        verdict = "PROMOTED" if result.promoted else "REJECTED"
        print(f"onboard {system}: {verdict} — shadow F1 {result.shadow_f1:.3f} "
              f"vs gate {result.gate_f1:.2f} ({result.epochs} epochs, "
              f"{result.train_sequences} fine-tune / "
              f"{result.holdout_sequences} holdout windows)")
        if result.promoted:
            out_dir = args.out_dir or args.model_dir
            pipeline.save_pipeline(out_dir)
            print(f"promoted pipeline saved to {out_dir}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .config import LogSynergyConfig
    from .evaluation import CrossSystemExperiment, format_results_table

    config = LogSynergyConfig(
        d_model=args.d_model, num_heads=args.num_heads, num_layers=args.num_layers,
        d_ff=args.d_ff, feature_dim=args.feature_dim, embedding_dim=args.embedding_dim,
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        seed=args.seed,
    )
    experiment = CrossSystemExperiment(
        args.target, args.sources, scale=args.scale, n_source=args.n_source,
        n_target=args.n_target, max_test=args.max_test, seed=args.seed,
    )
    methods = ["LogSynergy"] + (args.baselines or [])
    with _observability(args):
        outcome = experiment.run(methods, config=config)
    print(format_results_table([outcome], methods,
                               title=f"Cross-system evaluation (target={args.target})"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        apply_baseline, available_flow_passes, available_rules,
        format_violations, lint_project, load_baseline, render_json,
        render_sarif, write_baseline,
    )

    if args.list_rules:
        for name, description in available_rules():
            print(f"{name}: {description}")
        for name, description in available_flow_passes():
            print(f"{name}: {description}")
        return 0
    if args.write_baseline and not args.baseline:
        raise SystemExit("lint: --write-baseline requires --baseline PATH")
    select = args.select.split(",") if args.select else None
    with _observability(args):
        try:
            report = lint_project(args.paths, select=select)
        except (KeyError, OSError) as exc:
            raise SystemExit(f"lint: {exc}")
    violations = report.violations
    if args.write_baseline:
        count = write_baseline(violations, args.baseline)
        print(f"lint: wrote baseline with {count} accepted findings "
              f"to {args.baseline}")
        return 0
    suppressed = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"lint: --baseline: {exc}")
        violations, suppressed = apply_baseline(violations, baseline)
    if args.format == "json":
        print(render_json(violations, report.files, report.flow_stats), end="")
    elif args.format == "sarif":
        print(render_sarif(violations, report.files, report.flow_stats), end="")
    elif violations:
        print(format_violations(violations))
    else:
        note = f", {suppressed} baselined" if suppressed else ""
        print(f"lint: clean ({', '.join(args.paths)}{note})")
    return 1 if violations else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .analysis import audit_spec

    with _observability(args):
        try:
            reports = audit_spec(args.models, seed=args.seed,
                                 gradcheck=args.gradcheck)
        except KeyError as exc:
            raise SystemExit(f"audit: {exc.args[0]}")
    for report in reports:
        print(report.format(verbose=args.verbose))
    failed = [r.model for r in reports if not r.ok]
    if failed:
        print(f"audit: FAIL ({', '.join(failed)})")
        return 1
    print(f"audit: all {len(reports)} model(s) clean")
    return 0


def _build_runtime(args: argparse.Namespace, **extra):
    """Shared runtime construction for ``serve`` / ``replay``.

    With ``--model-dir`` the runtime scores through a saved LogSynergy
    pipeline; without it, a deterministic synthetic worker stands in so
    the runtime path can be exercised with no trained artifacts.  With
    ``--detectors`` the runtime fronts an unsupervised ensemble instead
    (day-0 capable: no trained model required); ``--model-dir`` then
    loads the pipeline the ensemble's ``model`` member wraps.

    ``--executor process`` swaps the synchronous loop for one worker
    process per shard: live workers cannot cross
    the process boundary, so this path builds a picklable
    :class:`~repro.runtime.ProcessWorkerSpec` — weight broadcast for a
    model, spec string for an ensemble — instead of a worker factory.
    """
    from .runtime import (
        InferenceRuntime, SyntheticWorker, admission_event_fn, message_event,
    )

    process = args.executor == "process"
    common = dict(shards=args.shards, window=args.window, step=args.step,
                  max_batch=args.max_batch, executor=args.executor, **extra)
    model = None
    if args.model_dir:
        from .core import LogSynergy

        model = LogSynergy.load_pipeline(args.model_dir,
                                         llm=_resolve_llm(args, args.seed))
    if getattr(args, "detectors", None):
        from .detectors import ensemble_from_spec

        try:
            # Parsed parent-side even in process mode, so a spec typo
            # fails fast here instead of as a worker-process crash.
            ensemble = ensemble_from_spec(args.detectors, pipeline=model,
                                          seed=args.seed)
        except ValueError as exc:
            raise SystemExit(f"--detectors: {exc}")
        if process:
            from .runtime import ProcessWorkerSpec

            spec = ProcessWorkerSpec.ensemble(
                args.detectors, seed=args.seed, pipeline=model,
                llm_spec=getattr(args, "llm", None))
            return InferenceRuntime(
                None, event_fn=admission_event_fn(ensemble.pipeline),
                process_spec=spec, **common)
        return InferenceRuntime.from_ensemble(ensemble, **common)
    if model is not None:
        if process:
            return InferenceRuntime.from_model(
                model, llm_spec=getattr(args, "llm", None), **common)
        return InferenceRuntime.from_model(model, **common)
    if process:
        from .runtime import ProcessWorkerSpec

        return InferenceRuntime(
            None, event_fn=message_event,
            process_spec=ProcessWorkerSpec.synthetic(threshold=args.threshold),
            **common,
        )
    return InferenceRuntime(
        lambda index: SyntheticWorker(threshold=args.threshold),
        event_fn=message_event, **common,
    )


def _print_runtime_summary(runtime, records: int, reports: int) -> None:
    stats = runtime.stats
    print(f"{records} records -> {stats.windows_seen} windows, "
          f"{reports} reports ({stats.degraded_windows} degraded windows, "
          f"model skip rate {stats.model_skip_rate:.2f})")


def _cmd_replay(args: argparse.Namespace) -> int:
    from .logs import load_records
    from .runtime import render_reports, report_sort_key

    records = load_records(args.logs)
    if not records:
        raise SystemExit(f"{args.logs}: no records")
    with _observability(args):
        # Deterministic by construction: synchronous engine, no latency
        # trigger — output is byte-identical for any --shards value.
        # --executor process keeps the same contract (seq-numbered
        # journals + window-id dedup), just with worker processes.
        runtime = _build_runtime(args, max_latency=None)
        for record in records:
            runtime.submit(record)
        # stop() drains; under process it also reaps the worker
        # processes and unlinks the broadcast arena.
        reports = runtime.stop()
        reports.sort(key=report_sort_key)
        rendered = render_reports(reports)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"wrote {len(reports)} reports to {args.out}")
        else:
            sys.stdout.write(rendered)
        _print_runtime_summary(runtime, len(records), len(reports))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .logs import load_records
    from .runtime import render_reports, report_sort_key

    records = load_records(args.logs)
    if not records:
        raise SystemExit(f"{args.logs}: no records")
    with _observability(args):
        runtime = _build_runtime(args, max_latency=args.max_latency)
        sync = runtime.executor == "sync"
        clock = runtime.registry.clock
        if not sync:
            runtime.start()
        started = clock()
        for record in records:
            runtime.submit(record)
            if sync:
                # Inline pump: scores full batches and flushes lanes
                # past --max-latency as the stream arrives.
                runtime.pump()
        reports = runtime.stop()
        elapsed = clock() - started
        reports.sort(key=report_sort_key)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(render_reports(reports))
            print(f"wrote {len(reports)} reports to {args.out}")
        _print_runtime_summary(runtime, len(records), len(reports))
        rate = len(records) / elapsed if elapsed > 0 else float("inf")
        print(f"served {len(records)} records on {args.shards} "
              f"{args.executor} shard(s) "
              f"in {elapsed:.2f}s ({rate:,.0f} records/s)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .config import LogSynergyConfig
    from .core import LogSynergyModel, LogSynergyTrainer, TrainingBatch
    from .nn import OpProfiler
    from .nn.kernels import use_fused_kernels

    config = LogSynergyConfig(
        d_model=args.d_model, num_heads=args.num_heads, num_layers=args.num_layers,
        d_ff=args.d_ff, feature_dim=args.feature_dim, embedding_dim=args.embedding_dim,
        epochs=args.epochs, batch_size=args.batch_size, window=args.window,
        seed=args.seed,
    )
    rng = np.random.default_rng(config.seed)
    count = args.sequences
    data = TrainingBatch(
        sequences=rng.standard_normal(
            (count, config.window, config.embedding_dim)
        ).astype(np.float32),
        anomaly_labels=(rng.random(count) < 0.2).astype(np.float32),
        system_labels=rng.integers(0, 2, size=count),
        domain_labels=rng.integers(0, 2, size=count),
    )
    profiler = OpProfiler()
    with _observability(args) as registry:
        model = LogSynergyModel(config, num_systems=2)
        trainer = LogSynergyTrainer(model, config)
        with use_fused_kernels(not args.unfused):
            trainer.fit(data, profiler=profiler)
        if registry is not None:
            profiler.publish(registry)
    mode = "seed (unfused)" if args.unfused else "fused"
    print(f"profiled {count} sequences x {config.epochs} epoch(s) with {mode} kernels")
    print(profiler.table(limit=args.top))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import (BREAKABLE_RECOVERIES, measure_fault_point_overhead,
                          run_episodes)

    with _observability(args):
        try:
            report = run_episodes(
                args.episodes, args.seed, suite=args.suite,
                executor=args.executor,
                broken=tuple(args.break_paths or ()),
                provider_spec=args.llm,
            )
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"fuzz: {exc}")
    rendered = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote fuzz report to {args.out}")
    sys.stdout.write(rendered)

    code = 0 if report.ok else 1
    if args.bench_overhead:
        overhead = measure_fault_point_overhead()
        print(overhead.render())
        if overhead.overhead_ns > args.overhead_limit_ns:
            print(f"fuzz: FAIL unarmed fault_point overhead "
                  f"{overhead.overhead_ns:.1f} ns/call exceeds "
                  f"--overhead-limit-ns {args.overhead_limit_ns:.0f}")
            code = 1
    if not report.ok and args.break_paths:
        # Self-test mode: violations under --break prove the harness can
        # see the defects it exists for.
        print(f"fuzz: {len(report.violations)} violation(s) with broken "
              f"recovery path(s) {', '.join(args.break_paths)} "
              f"(breakable: {', '.join(BREAKABLE_RECOVERIES)})")
    return code


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import read_jsonl, summarize_events

    try:
        events = read_jsonl(args.metrics)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.metrics}: {exc}")
    print(summarize_events(events))
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d-model", type=int, default=32)
    parser.add_argument("--num-heads", type=int, default=4)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--d-ff", type=int, default=64)
    parser.add_argument("--feature-dim", type=int, default=16)
    parser.add_argument("--embedding-dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=5e-4)


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=10)
    parser.add_argument("--step", type=int, default=5)


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="export repro.obs metrics/spans to this JSONL file")


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write resumable training checkpoints here")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        metavar="E", help="checkpoint every E epochs")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the newest verifiable checkpoint "
                             "in --checkpoint-dir")


def _add_llm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--llm", default=None, metavar="SPEC",
                        help="LLM provider spec: name[:key=value,...] — e.g. "
                             "simulated, flaky:error_rate=0.1, "
                             "cached:path=cache.json")
    parser.add_argument("--no-llm-stack", action="store_true",
                        help="use the spec'd provider bare, without the "
                             "traffic-control middleware stack")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="LogSynergy reproduction command line"
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--system", required=True,
                          help="bgl|spirit|thunderbird|system_a|system_b|system_c")
    generate.add_argument("--lines", type=int, default=None,
                          help="exact line count (overrides --scale)")
    generate.add_argument("--scale", type=float, default=0.01,
                          help="fraction of the Table III line count")
    generate.add_argument("--out", required=True, help="output JSONL path")
    generate.set_defaults(func=_cmd_generate)

    train = commands.add_parser("train", help="train LogSynergy from JSONL files")
    train.add_argument("--sources", nargs="+", required=True,
                       help="JSONL files of mature-system records")
    train.add_argument("--target", required=True, help="JSONL file of the new system")
    train.add_argument("--n-source", type=int, default=1000)
    train.add_argument("--n-target", type=int, default=100)
    train.add_argument("--model-dir", required=True)
    train.add_argument("--quiet", action="store_true")
    _add_llm_flags(train)
    _add_model_flags(train)
    _add_window_flags(train)
    _add_metrics_flag(train)
    _add_checkpoint_flags(train)
    train.add_argument("--stop-after", type=int, default=None, metavar="E",
                       help="pause (resumably) after E completed epochs")
    train.add_argument("--kill-after", type=int, default=None, metavar="E",
                       help="SIGKILL this process after epoch E's checkpoint "
                            "(crash-equivalence testing; needs "
                            "--checkpoint-dir)")
    train.set_defaults(func=_cmd_train)

    onboard = commands.add_parser(
        "onboard", help="fine-tune a saved pipeline on a new system's "
                        "day-0 logs; promote past a shadow-F1 gate")
    onboard.add_argument("--model-dir", required=True,
                         help="saved pipeline to warm-start from")
    onboard.add_argument("--logs", required=True,
                         help="day-0 JSONL records of the new system")
    onboard.add_argument("--epochs", type=int, default=None,
                         help="fine-tune epochs (default: config.epochs)")
    onboard.add_argument("--gate-f1", type=float, default=0.6,
                         help="minimum shadow F1 for promotion")
    onboard.add_argument("--holdout-fraction", type=float, default=0.5,
                         help="tail fraction held out for shadow evaluation")
    onboard.add_argument("--executor", default="sync",
                         choices=["none", "sync", "process"],
                         help="runtime serving the old weights during the "
                              "fine-tune (promotion hot-swaps it); 'none' "
                              "skips the runtime")
    onboard.add_argument("--out-dir", default=None,
                         help="where to save a promoted pipeline "
                              "(default: --model-dir)")
    _add_window_flags(onboard)
    _add_metrics_flag(onboard)
    _add_checkpoint_flags(onboard)
    onboard.set_defaults(func=_cmd_onboard)

    detect = commands.add_parser("detect", help="score a log file with a saved pipeline")
    detect.add_argument("--model-dir", required=True)
    detect.add_argument("--logs", required=True, help="JSONL file to score")
    detect.add_argument("--top", type=int, default=5, help="windows to report")
    detect.add_argument("--seed", type=int, default=0)
    _add_window_flags(detect)
    _add_metrics_flag(detect)
    detect.set_defaults(func=_cmd_detect)

    evaluate = commands.add_parser("evaluate", help="run a synthetic cross-system experiment")
    evaluate.add_argument("--target", required=True)
    evaluate.add_argument("--sources", nargs="+", required=True)
    evaluate.add_argument("--baselines", nargs="*", default=[],
                          help="baseline method names to include")
    evaluate.add_argument("--scale", type=float, default=0.006)
    evaluate.add_argument("--n-source", type=int, default=1000)
    evaluate.add_argument("--n-target", type=int, default=100)
    evaluate.add_argument("--max-test", type=int, default=800)
    _add_model_flags(evaluate)
    _add_metrics_flag(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    lint = commands.add_parser("lint", help="lint source trees against repo invariants")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule names to run; names with a "
                           "'/' select interprocedural passes and accept "
                           "wildcards, e.g. flow/* (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and flow passes, then exit")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"),
                      help="output format (default: text)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of accepted findings to subtract")
    lint.add_argument("--write-baseline", action="store_true",
                      help="snapshot current findings into --baseline and exit")
    _add_metrics_flag(lint)
    lint.set_defaults(func=_cmd_lint)

    audit = commands.add_parser(
        "audit", help="audit model autograd wiring (shapes, dead params, broken graphs)"
    )
    audit.add_argument("models", nargs="+",
                       help="'logsynergy', a baseline name (e.g. DeepLog), or 'all'")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--gradcheck", action="store_true",
                       help="also verify small parameters against finite differences")
    audit.add_argument("--verbose", action="store_true",
                       help="include INFO findings in the report")
    _add_metrics_flag(audit)
    audit.set_defaults(func=_cmd_audit)

    def _add_runtime_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--logs", required=True, help="JSONL file to stream")
        sub.add_argument("--model-dir", default=None,
                         help="saved pipeline directory (omit for the "
                              "deterministic synthetic worker)")
        sub.add_argument("--detectors", default=None, metavar="SPEC",
                         help="run an unsupervised detector ensemble instead "
                              "of a single worker, e.g. ewma,lof:vote or "
                              "ewma,lof,rules,model:max (the model member "
                              "loads --model-dir when given)")
        sub.add_argument("--shards", type=int, default=1)
        sub.add_argument("--max-batch", type=int, default=16)
        sub.add_argument("--threshold", type=float, default=0.5,
                         help="anomaly threshold for the synthetic worker")
        sub.add_argument("--out", default=None, metavar="PATH",
                         help="write canonical report JSONL to this file")
        sub.add_argument("--seed", type=int, default=0)
        _add_llm_flags(sub)
        _add_window_flags(sub)
        _add_metrics_flag(sub)

    replay = commands.add_parser(
        "replay", help="deterministically replay a log file through the "
                       "sharded runtime (byte-identical for any --shards "
                       "and either --executor)"
    )
    _add_runtime_flags(replay)
    replay.add_argument("--executor", default="sync",
                        choices=["sync", "process"],
                        help="sync: single-threaded deterministic engine; "
                             "process: one worker process per shard with a "
                             "shared-memory weight broadcast (same "
                             "byte-identical output)")
    replay.set_defaults(func=_cmd_replay)

    serve = commands.add_parser(
        "serve", help="stream a log file through the sharded runtime "
                      "(inline or worker-process shards)"
    )
    _add_runtime_flags(serve)
    serve.add_argument("--executor", default="sync",
                       choices=["sync", "process"],
                       help="sync: shards scored inline, pumped after "
                            "every record; process: one worker process "
                            "per shard, overlapping CPU-bound scoring")
    serve.add_argument("--max-latency", type=float, default=0.05,
                       help="micro-batch latency budget in seconds")
    serve.set_defaults(func=_cmd_serve)

    profile = commands.add_parser(
        "profile", help="rank autograd ops by wall time over a small synthetic fit"
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--sequences", type=int, default=192,
                         help="synthetic training sequences to fit on")
    profile.add_argument("--window", type=int, default=8)
    profile.add_argument("--epochs", type=int, default=1)
    profile.add_argument("--batch-size", type=int, default=32)
    profile.add_argument("--d-model", type=int, default=32)
    profile.add_argument("--num-heads", type=int, default=4)
    profile.add_argument("--num-layers", type=int, default=1)
    profile.add_argument("--d-ff", type=int, default=64)
    profile.add_argument("--feature-dim", type=int, default=16)
    profile.add_argument("--embedding-dim", type=int, default=32)
    profile.add_argument("--top", type=int, default=15,
                         help="rows to show in the hot-op table")
    profile.add_argument("--unfused", action="store_true",
                         help="profile the seed composition instead of the fused kernels")
    _add_metrics_flag(profile)
    profile.set_defaults(func=_cmd_profile)

    fuzz = commands.add_parser(
        "fuzz", help="run seeded fault-injection fuzz episodes against an "
                     "invariant suite (exit 1 on any violation)"
    )
    fuzz.add_argument("--episodes", type=int, default=5,
                      help="seeded episodes to run")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed; episode seeds derive deterministically")
    fuzz.add_argument("--suite", default="all",
                      choices=["all", "replay", "llm", "trainer", "fuzzer",
                               "detectors", "process", "onboard"],
                      help="invariant suite to check each episode against")
    fuzz.add_argument("--executor", default="sync",
                      choices=["sync", "process"],
                      help="runtime executor the replay invariants run "
                           "against (fault-equivalence checks pin sync)")
    fuzz.add_argument("--out", default=None, metavar="PATH",
                      help="write the (byte-deterministic) report here too")
    fuzz.add_argument("--break", dest="break_paths", action="append",
                      default=None, metavar="RECOVERY",
                      choices=["retry", "quarantine", "review", "nan-guard",
                               "breaker"],
                      help="disable a recovery path (repeatable); violations "
                           "then PROVE the harness detects the defect")
    _add_llm_flags(fuzz)
    fuzz.add_argument("--bench-overhead", action="store_true",
                      help="also benchmark the unarmed fault_point hook and "
                           "fail when it exceeds --overhead-limit-ns")
    fuzz.add_argument("--overhead-limit-ns", type=float, default=500.0,
                      help="max tolerated unarmed-hook overhead per call")
    _add_metrics_flag(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    stats = commands.add_parser("stats", help="summarize a --metrics-out JSONL file")
    stats.add_argument("metrics", help="JSONL file written by --metrics-out")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
