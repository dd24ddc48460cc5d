"""Case study (§VI-D): anatomy of a cross-system false positive.

The paper dissects a LogTransfer false positive: a *normal* System A
window whose raw words look like an *anomalous* System C training sample,
so word-level representations (Word2Vec/GloVe) confuse them.  LogSynergy's
LEI interpretations strip the misleading surface similarity.

This script reproduces the analysis quantitatively:

 1. train LogSynergy with System C as a mature source and System A as the
    new target;
 2. pick a normal target window and find its nearest training windows in
    feature space (the "closest match in System C" step);
 3. compare raw-text vs LEI-interpretation similarity between the window
    and its nearest anomalous source window;
 4. explain a flagged window event-by-event with occlusion attribution.

Run:  python examples/case_study.py
"""

import numpy as np

from repro import LogSynergy, LogSynergyConfig
from repro.core.explain import explain_window, nearest_training_sequences
from repro.embedding import load_pretrained_encoder
from repro.evaluation import continuous_target_split, source_training_slice
from repro.logs import build_dataset


def main() -> None:
    print("== Setup: System C (mature) -> System A (new) ==")
    datasets = {
        name: build_dataset(name, scale=0.05, seed=index)
        for index, name in enumerate(["system_c", "system_a"])
    }
    sources = {"system_c": source_training_slice(datasets["system_c"].sequences, 1200)}
    split = continuous_target_split(datasets["system_a"].sequences, 150)

    config = LogSynergyConfig(
        d_model=32, num_heads=4, num_layers=2, d_ff=64, feature_dim=16,
        embedding_dim=64, epochs=8, batch_size=64, learning_rate=3e-4,
    )
    model = LogSynergy(config)
    model.fit(sources, "system_a", split.train)

    target_featurizer = model._featurizer("system_a")
    source_featurizer = model._featurizer("system_c")
    source_train = sources["system_c"]
    source_embedded = source_featurizer.embed_sequences(source_train)

    # 2. A normal target window and its nearest source training windows.
    normal_windows = [s for s in split.test[:400] if s.label == 0]
    query = normal_windows[0]
    query_embedded = target_featurizer.embed_sequences([query])[0]
    neighbours = nearest_training_sequences(
        model.model, query_embedded, source_embedded, k=3
    )
    print("\n== Nearest System C training windows to a normal System A window ==")
    for index, similarity in neighbours:
        label = "ANOMALOUS" if source_train[index].label else "normal"
        print(f"  train window #{index} ({label}), unified-feature cosine {similarity:.3f}")

    # 3. Raw vs LEI similarity to the nearest anomalous source window.
    anomalous_ids = [i for i, s in enumerate(source_train) if s.label == 1]
    if anomalous_ids:
        encoder = load_pretrained_encoder(64)
        nearest_anomalous = source_train[anomalous_ids[0]]

        def mean_vec(texts):
            return encoder.encode_batch(texts).mean(axis=0)

        raw_sim = float(
            mean_vec(query.messages) @ mean_vec(nearest_anomalous.messages)
        )
        lei_query = [
            target_featurizer.interpretation_of(target_featurizer.event_id_of(m)[0])
            for m in query.messages
        ]
        lei_anomalous = [
            source_featurizer.interpretation_of(source_featurizer.event_id_of(m)[0])
            for m in nearest_anomalous.messages
        ]
        lei_sim = float(mean_vec(lei_query) @ mean_vec(lei_anomalous))
        print("\n== Raw-text vs interpretation similarity "
              "(normal A window vs anomalous C window) ==")
        print(f"  raw log text : {raw_sim:.3f}")
        print(f"  LEI          : {lei_sim:.3f}")
        print("  (lower LEI similarity = the false-positive trap removed)")

    # 4. Occlusion explanation of the highest-scoring test window.
    test = split.test[:400]
    scores = model.predict_proba(test)
    hottest = int(np.argmax(scores))
    window = test[hottest]
    embedded = target_featurizer.embed_sequences([window])[0]
    interpretations = [
        target_featurizer.interpretation_of(target_featurizer.event_id_of(m)[0])
        for m in window.messages
    ]
    explanation = explain_window(
        model.model, embedded, window.messages, interpretations,
        training_windows=source_embedded, k_neighbours=2,
    )
    print(f"\n== Occlusion explanation of the hottest test window "
          f"(true label: {'anomalous' if window.label else 'normal'}) ==")
    print(explanation.render())


if __name__ == "__main__":
    main()
