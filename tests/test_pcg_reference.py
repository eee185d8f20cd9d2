"""numpy's label stream against its plain-int definition in ``tests.pcg_reference``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcost import cell_seed, sample_corpus, simulate_prediction, simulation

from . import pcg_reference

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestSeeding:
    @settings(max_examples=200)
    @given(st.integers(0, 2**64 - 1))
    def test_pcg64_states(self, seed):
        assert simulation._pcg64_states([seed]) == [pcg_reference.pcg64_seed(seed)]

    def test_edge_seeds(self):
        expected = list(map(pcg_reference.pcg64_seed, EDGE_SEEDS))
        assert simulation._pcg64_states(EDGE_SEEDS) == expected

    def test_numpy_state_words(self):
        # beyond 2^128 the entropy outgrows the pool and is mixed in word by word
        for entropy in EDGE_SEEDS + [2**128 + 12345, 3**200]:
            words = np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
            assert pcg_reference.seed_sequence_state(entropy) == words


class TestUniforms:
    def test_first_thousand_of_a_paper_cell(self):
        seed = cell_seed(424242, 3, 7)
        expected = np.random.Generator(np.random.PCG64(seed)).random(1_000).tolist()
        assert pcg_reference.uniforms(*pcg_reference.pcg64_seed(seed), 1_000) == expected

    def test_more_cells(self):
        for cell in [(0, 0, 0), (424242, 0, 0), (424242, 18, 99), (2**64 - 1, 5, 2**64 - 1)]:
            seed = cell_seed(*cell)
            expected = np.random.Generator(np.random.PCG64(seed)).random(200).tolist()
            assert pcg_reference.uniforms(*pcg_reference.pcg64_seed(seed), 200) == expected


def test_simulated_labels_of_a_corpus_project():
    project = sample_corpus(2024)[0]
    seed, accuracy = cell_seed(424242, 9, 41), 0.5
    drawn = pcg_reference.uniforms(*pcg_reference.pcg64_seed(seed), len(project.sizes))
    truth = project.defective_mask.tolist()
    expected = {
        f: int((u < accuracy) == t) for f, u, t in zip(project._file_ids, drawn, truth)
    }
    assert simulate_prediction(project, accuracy, seed).labels == expected
