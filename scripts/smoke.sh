#!/usr/bin/env bash
# Tier-1 smoke check: static gate (compileall + project linter), a fast
# model audit, a quick op-profiler run, a seconds-scale fused-kernel
# throughput sanity pass, a day-0 detector-portfolio floor check plus a
# seeded detectors fuzz episode, a deterministic 2-shard runtime replay over
# the bundled sample stream (must produce reports and non-empty
# metrics, and the process executor must render identical bytes), a
# seeded fault-injection fuzz pass (twice — the violation
# report must be byte-identical, with the unarmed-hook overhead guard),
# a checkpointed train/SIGKILL/resume byte-diff against an uninterrupted
# run plus the onboarding crash invariant and cost benchmark,
# then the test suite.
set -euo pipefail

cd "$(dirname "$0")/.."

bash scripts/lint.sh

# Interprocedural passes: the JSON report must be byte-identical across
# two consecutive runs AND match the committed snapshot — any
# nondeterminism in the symbol table / call graph / dataflow solver
# shows up here as a diff.
flow_a="$(mktemp)"
flow_b="$(mktemp)"
trap 'rm -f "$flow_a" "$flow_b" "${replay_out:-}" "${replay_metrics:-}" \
    "${replay_proc:-}" "${fuzz_a:-}" "${fuzz_b:-}"
rm -rf "${ckpt_root:-}"' EXIT
PYTHONPATH=src python -m repro.cli lint src --select 'flow/*' \
    --format json >"$flow_a"
PYTHONPATH=src python -m repro.cli lint src --select 'flow/*' \
    --format json >"$flow_b"
cmp -s "$flow_a" "$flow_b" \
    || { echo "smoke: flow report not deterministic across runs" >&2; exit 1; }
diff -u scripts/flow_snapshot.json "$flow_a" \
    || { echo "smoke: flow report drifted from scripts/flow_snapshot.json" \
         "(regenerate with: repro lint src --select 'flow/*' --format json)" >&2
         exit 1; }

PYTHONPATH=src python -m repro.cli audit logsynergy

# Op profiler must produce a ranked hot-op table on a tiny fit.
profile_out="$(PYTHONPATH=src python -m repro.cli profile \
    --sequences 48 --epochs 1 --window 4 --embedding-dim 16 \
    --feature-dim 8 --d-model 16 --num-heads 2 --d-ff 32 --top 5)"
grep -q "fwd self" <<<"$profile_out" \
    || { echo "smoke: repro profile produced no hot-op table" >&2; exit 1; }

# Fused kernels must not be slower than the seed composition.
PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke

# Provider middleware stack: warm cache + coalescing must cut upstream
# LLM calls versus the cache-cold baseline.
PYTHONPATH=src python benchmarks/bench_llm_traffic.py --smoke

# Day-0 detector portfolio: on a never-catalogued system with no
# trained model the unsupervised ensemble must clear its F1 floor,
# and the detectors fuzz suite must hold end to end.
PYTHONPATH=src python benchmarks/bench_detectors.py --smoke
PYTHONPATH=src python -m repro.cli fuzz --episodes 1 --seed 7 \
    --suite detectors >/dev/null

replay_out="$(mktemp)"
replay_metrics="$(mktemp)"
replay_proc="$(mktemp)"
fuzz_a="$(mktemp)"
fuzz_b="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --shards 2 \
    --out "$replay_out" --metrics-out "$replay_metrics"
test -s "$replay_out" || { echo "smoke: replay produced no reports" >&2; exit 1; }
test -s "$replay_metrics" || { echo "smoke: replay produced no metrics" >&2; exit 1; }

# The process executor must render the exact bytes the synchronous
# engine does, and its throughput floor must hold (bench --smoke:
# process workers beat the sync engine on the CPU-bound profile when
# the host has cores to parallelize on, and stay within the
# IPC-overhead ceiling when it doesn't). A process-suite fuzz episode SIGKILLs a worker
# mid-stream and requires byte-identical recovery.
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --shards 2 \
    --executor process --out "$replay_proc"
cmp -s "$replay_out" "$replay_proc" \
    || { echo "smoke: process-executor replay diverged from sync replay" >&2
         exit 1; }
PYTHONPATH=src python benchmarks/bench_runtime_throughput.py --smoke
PYTHONPATH=src python -m repro.cli fuzz --episodes 1 --seed 7 \
    --suite process >/dev/null

# Fault-injection fuzz: every invariant must hold (exit 1 on violation;
# episode seeds are printed so a failure replays with
# `repro fuzz --episodes 1 --seed <episode seed>`), the unarmed hooks
# must stay free, and a second run must render byte-identically.
PYTHONPATH=src python -m repro.cli fuzz --episodes 2 --seed 7 \
    --out "$fuzz_a" --bench-overhead
PYTHONPATH=src python -m repro.cli fuzz --episodes 2 --seed 7 \
    --out "$fuzz_b" >/dev/null
cmp -s "$fuzz_a" "$fuzz_b" \
    || { echo "smoke: fuzz report not deterministic across runs" >&2; exit 1; }

# Checkpointed training survives a SIGKILL: train two epochs with a
# kill after epoch 1's durable checkpoint, resume in a fresh process,
# and require the final weights byte-identical to an uninterrupted run.
# Then the onboarding path: its crash invariant (a mid-onboarding death
# never demotes the serving weights) and its cost edge over a full
# retrain (bench --smoke).
ckpt_root="$(mktemp -d)"
for system in bgl spirit thunderbird; do
    PYTHONPATH=src python -m repro.cli generate --system "$system" \
        --lines 900 --out "$ckpt_root/$system.jsonl" >/dev/null
done
train_args=(--sources "$ckpt_root/bgl.jsonl" "$ckpt_root/spirit.jsonl"
    --target "$ckpt_root/thunderbird.jsonl"
    --n-source 150 --n-target 50 --epochs 2 --num-layers 1 --quiet)
PYTHONPATH=src python -m repro.cli train "${train_args[@]}" \
    --model-dir "$ckpt_root/ref" >/dev/null
set +e
PYTHONPATH=src python -m repro.cli train "${train_args[@]}" \
    --model-dir "$ckpt_root/resumed" --checkpoint-dir "$ckpt_root/ckpt" \
    --kill-after 1 >/dev/null 2>&1
kill_status=$?
set -e
[ "$kill_status" -eq 137 ] \
    || { echo "smoke: --kill-after 1 did not SIGKILL the training run" \
         "(exit $kill_status)" >&2; exit 1; }
test -s "$ckpt_root/ckpt/MANIFEST.json" \
    || { echo "smoke: no durable checkpoint survived the kill" >&2; exit 1; }
PYTHONPATH=src python -m repro.cli train "${train_args[@]}" \
    --model-dir "$ckpt_root/resumed" --checkpoint-dir "$ckpt_root/ckpt" \
    --resume >/dev/null
cmp -s "$ckpt_root/ref/model.npz" "$ckpt_root/resumed/model.npz" \
    || { echo "smoke: kill/resume weights diverged from the" \
         "uninterrupted run" >&2; exit 1; }
PYTHONPATH=src python -m repro.cli fuzz --episodes 1 --seed 7 \
    --suite onboard >/dev/null
PYTHONPATH=src python benchmarks/bench_onboard.py --smoke

# The provider stack must absorb an aggressively flaky upstream (llm
# suite stays green with --llm flaky), and the --break breaker
# self-test must trip its invariant (exit 1), proving the harness can
# detect a dead circuit breaker rather than vacuously passing.
PYTHONPATH=src python -m repro.cli fuzz --episodes 1 --seed 11 \
    --suite llm --llm flaky:error_rate=0.35 >/dev/null
if PYTHONPATH=src python -m repro.cli fuzz --episodes 1 --seed 11 \
    --suite llm --break breaker >/dev/null 2>&1; then
    echo "smoke: fuzz --break breaker did not trip its invariant" >&2
    exit 1
fi

PYTHONPATH=src python -m pytest -x -q "$@"
