"""No serving path trains word vectors: a loaded pipeline, the sync and
process runtimes over it and an ensemble around it all embed through
the sentence encoder the pipeline was fitted with."""

import pytest

from repro.core import LogSynergy
from repro.detectors import ensemble_from_spec
from repro.embedding import pretrained
from repro.obs import MetricsRegistry
from repro.runtime import InferenceRuntime

from .conftest import six_system_model_stream


@pytest.fixture
def training_calls(monkeypatch):
    """Every ``train_word_vectors`` call the default encoder makes.

    The default encoder's per-process cache is bypassed, so any fallback
    to it trains (and counts) as a fresh serving process would; shard
    processes forked from this one inherit the patch.
    """
    calls = []
    train = pretrained.train_word_vectors

    def counting(corpus, *args, **kwargs):
        calls.append(len(corpus))
        return train(corpus, *args, **kwargs)

    monkeypatch.setattr(pretrained, "train_word_vectors", counting)
    monkeypatch.setattr(pretrained, "_trained_encoder",
                        pretrained._trained_encoder.__wrapped__)
    return calls


@pytest.fixture
def model_dir(fitted_logsynergy, tmp_path):
    directory = str(tmp_path / "pipeline")
    fitted_logsynergy.save_pipeline(directory)
    return directory


def serve(runtime, records):
    try:
        for record in records:
            runtime.submit(record)
        return runtime.drain()
    finally:
        runtime.stop()


class TestNoServingPathTrains:
    def test_load_sync_runtime_and_ensemble(self, model_dir, training_calls):
        pipeline = LogSynergy.load_pipeline(model_dir)
        assert training_calls == []

        records = six_system_model_stream(lines=40)
        runtime = InferenceRuntime.from_model(
            pipeline, shards=2, window=10, step=5, max_batch=8,
            registry=MetricsRegistry())
        assert serve(runtime, records)
        assert training_calls == []

        ensemble = ensemble_from_spec("ewma,lof,rules,model:max",
                                      pipeline=pipeline,
                                      registry=MetricsRegistry())
        assert training_calls == []
        lof = next(member for member in ensemble.members if member.name == "lof")
        assert lof.encoder is pipeline.encoder

    def test_pipeline_less_ensemble_loads_the_default_encoder(self, training_calls):
        ensemble = ensemble_from_spec("ewma,lof,rules", registry=MetricsRegistry())
        lof = next(member for member in ensemble.members if member.name == "lof")
        assert len(training_calls) == 1
        assert lof.encoder.dim == pretrained.DEFAULT_EMBEDDING_DIM

    def test_shard_processes_restore_the_broadcast_encoder(self, model_dir,
                                                          training_calls):
        pipeline = LogSynergy.load_pipeline(model_dir)
        registry = MetricsRegistry()
        runtime = InferenceRuntime.from_model(
            pipeline, shards=2, window=10, step=5, max_batch=8,
            executor="process", registry=registry)
        assert serve(runtime, six_system_model_stream(lines=40))
        # Each shard process loads a pickled copy of the pipeline, its
        # encoder included.  Shard registries come home with each drain
        # ack: a child that trained would count a miss, or a hit on the
        # word-vector cache it inherited from a parent that trained
        # earlier.
        assert any(name.startswith("runtime.batches.shard")
                   for name in registry.metrics())
        assert not [name for name in registry.metrics()
                    if name.startswith("embedding.wordvectors.cache_")]
        assert training_calls == []

    def test_spawned_shard_processes_restore_it_too(self, model_dir):
        """A spawned child inherits no encoder cache from its parent: it
        would train unless its pickled worker carried the encoder."""
        import multiprocessing

        pipeline = LogSynergy.load_pipeline(model_dir)
        registry = MetricsRegistry()
        runtime = InferenceRuntime.from_model(
            pipeline, shards=1, window=10, step=5, max_batch=8,
            executor="process", registry=registry)
        runtime._process._ctx = multiprocessing.get_context("spawn")
        assert serve(runtime, six_system_model_stream(lines=20))
        assert registry.counter("runtime.proc.spawned").value == 1
        assert not [name for name in registry.metrics()
                    if name.startswith("embedding.wordvectors.cache_")]
