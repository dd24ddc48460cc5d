#!/usr/bin/env bash
# Tier-1 smoke check: static gate (compileall + project linter), a fast
# model audit, a quick op-profiler run, a seconds-scale fused-kernel
# throughput sanity pass, a day-0 detector-portfolio floor check plus a
# seeded detectors fuzz episode, a deterministic 2-shard runtime replay over
# the bundled sample stream (must produce reports and non-empty
# metrics, and sync serve under a latency budget that fires plus the
# process executor in replay and in serve must render identical bytes), a
# detector-ensemble replay whose verdicts must render identical bytes at
# 1 and 2 shards, under the process executor and under sync serve with
# a latency budget, a
# seeded fault-injection fuzz pass (twice — the violation
# report must be byte-identical, with the unarmed-hook overhead guard),
# a checkpointed train/SIGKILL/resume byte-diff against an uninterrupted
# run, model-directory replays (model and model-member ensemble) whose
# bytes must match across executors, the onboarding crash invariant and
# cost benchmark,
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
    "${replay_proc:-}" "${serve_sync:-}" "${serve_proc:-}" \
    "${drain_metrics:-}" "${sync_metrics:-}" "${proc_metrics:-}" "${fuzz_a:-}" \
    "${fuzz_b:-}" "${ensemble_1:-}" "${ensemble_2:-}" "${ensemble_proc:-}" \
    "${members_replay:-}" "${members_serve:-}"
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

# Replay-stage timers (admission, batched forward) over a small fitted
# pipeline must run end to end.
PYTHONPATH=src python benchmarks/bench_replay_stages.py --smoke

# Paced sync model and ensemble streams under the 50 ms budget must
# serve end to end and report their alert latency.
PYTHONPATH=src python benchmarks/bench_latency_budget.py --smoke

# LLM interpretation cache: CachedLLM over the provider middleware stack
# must cut upstream LLM calls versus the cache-cold baseline.
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
serve_sync="$(mktemp)"
serve_proc="$(mktemp)"
fuzz_a="$(mktemp)"
fuzz_b="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --shards 2 \
    --out "$replay_out" --metrics-out "$replay_metrics"
test -s "$replay_out" || { echo "smoke: replay produced no reports" >&2; exit 1; }
test -s "$replay_metrics" || { echo "smoke: replay produced no metrics" >&2; exit 1; }
# Sum of the runtime.batches counters (flat, or one per shard process)
# in a --metrics-out file.
batches() {
    python - "$1" <<'PY'
import json
import sys

total = 0.0
with open(sys.argv[1], encoding="utf-8") as handle:
    for line in handle:
        metric = json.loads(line)
        name = metric.get("name", "")
        if name == "runtime.batches" or name.startswith("runtime.batches.shard"):
            total += metric["value"]
print(int(total))
PY
}
# The serve checks below run lanes of up to 64 windows under a 2 ms
# budget.  The sample admits in about 10 ms, so a 50 ms budget would
# never fire; with 64-window lanes a replay flushes only at drain, and
# a serve that scored more batches than that replay flushed on the
# deadline.
drain_metrics="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --shards 2 --max-batch 64 \
    --out /dev/null --metrics-out "$drain_metrics" >/dev/null
drain_batches="$(batches "$drain_metrics")"
# Sync serve scores each record's due batches on submit and flushes
# every lane at its shard's oldest deadline; the synthetic worker's
# scores do not depend on batch composition, so the bytes must match
# the replay.
sync_metrics="$(mktemp)"
PYTHONPATH=src python -m repro.cli serve \
    --logs examples/data/replay_sample.jsonl --shards 2 --max-batch 64 \
    --max-latency 0.002 --out "$serve_sync" \
    --metrics-out "$sync_metrics" >/dev/null
cmp -s "$replay_out" "$serve_sync" \
    || { echo "smoke: sync serve diverged from sync replay" >&2; exit 1; }
[ "$(batches "$sync_metrics")" -gt "$drain_batches" ] \
    || { echo "smoke: sync serve never fired its latency trigger" >&2; exit 1; }

# Every detector member keeps its state per system, so the shard count
# must not move a verdict.  The output holds only the anomalous windows;
# tests/detectors/test_runtime.py compares every window's member scores
# at 1, 2 and 3 shards.
ensemble_1="$(mktemp)"
ensemble_2="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl \
    --detectors ewma,lof,rules,model:max --shards 1 --out "$ensemble_1" >/dev/null
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl \
    --detectors ewma,lof,rules,model:max --shards 2 --out "$ensemble_2" >/dev/null
test -s "$ensemble_1" \
    || { echo "smoke: ensemble replay produced no reports" >&2; exit 1; }
cmp -s "$ensemble_1" "$ensemble_2" \
    || { echo "smoke: ensemble replay diverged between 1 and 2 shards" >&2
         exit 1; }
# Shard processes build their own windows and LOF reference rings; the
# bytes must still be the synchronous engine's.
ensemble_proc="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl \
    --detectors ewma,lof,rules,model:max --executor process --shards 2 \
    --out "$ensemble_proc" >/dev/null
cmp -s "$ensemble_1" "$ensemble_proc" \
    || { echo "smoke: process-executor ensemble replay diverged from sync" >&2
         exit 1; }
# Under a latency budget a sync shard flushes every lane, oldest head
# first, at its oldest head's deadline.  These members' scores do not
# depend on batch composition, so serve must render the replay's bytes.  The sample admits in about
# 10 ms, so a 50 ms budget would never fire: the budget is 2 ms, and
# lanes of up to 64 windows leave the flushing to the deadline.
members_replay="$(mktemp)"
members_serve="$(mktemp)"
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl \
    --detectors ewma,lof,rules --shards 2 --out "$members_replay" >/dev/null
PYTHONPATH=src python -m repro.cli serve \
    --logs examples/data/replay_sample.jsonl \
    --detectors ewma,lof,rules --shards 2 --max-batch 64 \
    --max-latency 0.002 --out "$members_serve" >/dev/null
test -s "$members_replay" \
    || { echo "smoke: member ensemble replay produced no reports" >&2; exit 1; }
cmp -s "$members_replay" "$members_serve" \
    || { echo "smoke: ensemble serve diverged from ensemble replay" >&2
         exit 1; }

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
# Serving under the 2 ms budget flushes partial lanes at each shard
# process's deadline; the synthetic worker's scores do not depend on
# batch composition, so the bytes must still match the replay.
proc_metrics="$(mktemp)"
PYTHONPATH=src python -m repro.cli serve \
    --logs examples/data/replay_sample.jsonl --shards 2 \
    --executor process --max-batch 64 --max-latency 0.002 \
    --out "$serve_proc" --metrics-out "$proc_metrics" >/dev/null
cmp -s "$replay_out" "$serve_proc" \
    || { echo "smoke: process-executor serve diverged from sync replay" >&2
         exit 1; }
[ "$(batches "$proc_metrics")" -gt "$drain_batches" ] \
    || { echo "smoke: process-executor serve never fired its latency" \
         "trigger" >&2; exit 1; }
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
# The model directory carries the sentence encoder the pipeline was
# fitted with, so serving from it trains no word vectors: neither the
# loading process nor a shard process (whose counters come home in the
# metrics) may count a word-vector cache hit or miss, and both executors
# must render the same bytes.
test -s "$ckpt_root/ref/encoder.npz" \
    && grep -q '"encoder": {' "$ckpt_root/ref/pipeline.json" \
    || { echo "smoke: the model directory lacks the sentence encoder" >&2
         exit 1; }
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --model-dir "$ckpt_root/ref" \
    --out "$ckpt_root/serve_sync.txt" \
    --metrics-out "$ckpt_root/serve_sync.jsonl" >/dev/null
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --model-dir "$ckpt_root/ref" \
    --executor process --shards 2 --out "$ckpt_root/serve_proc.txt" \
    --metrics-out "$ckpt_root/serve_proc.jsonl" >/dev/null
if grep -q '"embedding\.wordvectors\.cache_' \
        "$ckpt_root/serve_sync.jsonl" "$ckpt_root/serve_proc.jsonl"; then
    echo "smoke: serving from a model directory trained word vectors" >&2
    exit 1
fi
cmp -s "$ckpt_root/serve_sync.txt" "$ckpt_root/serve_proc.txt" \
    || { echo "smoke: model-directory replay diverged between executors" >&2
         exit 1; }
# An ensemble with a live model member admits each record through that
# pipeline's parse (in each shard process, under the process executor);
# the bytes must still be the synchronous engine's.
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --model-dir "$ckpt_root/ref" \
    --detectors ewma,lof,rules,model:max --shards 1 \
    --out "$ckpt_root/ensemble_sync.txt" >/dev/null
PYTHONPATH=src python -m repro.cli replay \
    --logs examples/data/replay_sample.jsonl --model-dir "$ckpt_root/ref" \
    --detectors ewma,lof,rules,model:max --executor process --shards 2 \
    --out "$ckpt_root/ensemble_proc.txt" >/dev/null
test -s "$ckpt_root/ensemble_sync.txt" \
    || { echo "smoke: model-member ensemble replay produced no reports" >&2
         exit 1; }
cmp -s "$ckpt_root/ensemble_sync.txt" "$ckpt_root/ensemble_proc.txt" \
    || { echo "smoke: model-member ensemble replay diverged between" \
         "executors" >&2; exit 1; }
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
