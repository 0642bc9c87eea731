import tracemalloc
from unittest import mock

import numpy as np
import pytest

import pudroid.synthetic
from pudroid.datasets import dataset_to_dict
from pudroid.features import dense_matrix
from pudroid.synthetic import (
    SpecError,
    SyntheticSpec,
    analytic_posterior,
    generate_synthetic,
    planted_contaminant_ids,
)

SMALL = SyntheticSpec(
    n_positive=120,
    n_negative=240,
    dimension=50,
    signal_features=6,
    n_families=3,
    seed=5,
)


class TestSpecValidation:
    def test_rejects_empty_class(self):
        with pytest.raises(SpecError):
            SyntheticSpec(n_positive=0)

    def test_rejects_overflowing_family_blocks(self):
        with pytest.raises(SpecError):
            SyntheticSpec(dimension=10, signal_features=4, n_families=4)

    def test_rejects_bad_noise_and_frequency(self):
        with pytest.raises(SpecError):
            SyntheticSpec(flip_noise=0.5)
        with pytest.raises(SpecError):
            SyntheticSpec(label_frequency_c=0.0)
        with pytest.raises(SpecError):
            SyntheticSpec(label_frequency_c=1.5)

    def test_rejects_more_families_than_positives(self):
        with pytest.raises(SpecError):
            SyntheticSpec(n_positive=3, n_families=4)


class TestGeneration:
    def test_full_label_frequency_has_no_contaminants(self):
        data = generate_synthetic(SMALL)
        assert planted_contaminant_ids(data) == []
        assert len(data.dataset.positives) == SMALL.n_positive
        assert len(data.dataset.unlabeled) == SMALL.n_negative

    def test_partial_label_frequency_plants_contaminants(self):
        spec = SyntheticSpec(**{**vars(SMALL), "label_frequency_c": 0.5})
        data = generate_synthetic(spec)
        planted = planted_contaminant_ids(data)
        assert len(planted) + len(data.dataset.positives) == spec.n_positive
        # roughly half the positives stay labeled
        assert 0.3 < len(planted) / spec.n_positive < 0.7
        assert set(planted) <= set(data.dataset.unlabeled.ids)

    def test_deterministic_per_seed(self):
        def drawn(spec):
            return dataset_to_dict(generate_synthetic(spec).dataset)

        assert drawn(SMALL) == drawn(SMALL)
        assert drawn(SyntheticSpec(**{**vars(SMALL), "seed": 6})) != drawn(SMALL)

    @pytest.mark.parametrize("block", [1, 350, 2500, 1 << 20])
    def test_draw_block_size_moves_no_draw(self, block):
        # at d = 50: blocks of one row, of 7 and 50 rows (which divide neither
        # class's 120 and 240 rows), and of a whole class
        whole = dataset_to_dict(generate_synthetic(SMALL).dataset)
        with mock.patch.object(pudroid.synthetic, "_CHUNK", block):
            assert dataset_to_dict(generate_synthetic(SMALL).dataset) == whole

    def test_peak_is_about_twice_what_it_keeps(self):
        tracemalloc.start()
        try:
            data = generate_synthetic(SyntheticSpec(seed=7))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data.dataset.samples) == 8000
        # the bool rows and the flat positions of their ones, as int64 (3.9x
        # when the ones went through np.nonzero and a CSR gather into P-then-U order)
        assert peak < 2.5 * kept

    def test_families_assigned_round_robin(self):
        data = generate_synthetic(SMALL)
        counts = np.bincount(list(data.family_of.values()), minlength=3)
        assert counts.tolist() == [40, 40, 40]

    def test_shared_signal_mode_lights_all_blocks(self):
        data = generate_synthetic(SMALL)
        X = dense_matrix(data.dataset.positives, SMALL.dimension)
        block = SMALL.signal_features * SMALL.n_families
        assert X[:, :block].mean() > 0.7
        assert X[:, block:].mean() < 0.2

    def test_exclusive_mode_lights_only_own_block(self):
        spec = SyntheticSpec(**{**vars(SMALL), "family_exclusive": True})
        data = generate_synthetic(spec)
        X = dense_matrix(data.dataset.positives, spec.dimension)
        fams = np.array([data.family_of[sid] for sid in data.dataset.positives.ids])
        m = spec.signal_features
        for fam in range(spec.n_families):
            own = X[fams == fam, fam * m : (fam + 1) * m]
            assert own.mean() > 0.7
            others = [f for f in range(spec.n_families) if f != fam]
            for other in others:
                assert X[fams == fam, other * m : (other + 1) * m].mean() < 0.2


class TestAnalyticPosterior:
    def test_bayes_rule_is_accurate_on_generated_data(self):
        data = generate_synthetic(SMALL)
        X = dense_matrix(data.dataset.samples, SMALL.dimension)
        truth = data.dataset.samples.hidden
        posterior = analytic_posterior(SMALL, X)
        accuracy = ((posterior > 0.5).astype(int) == truth).mean()
        assert accuracy >= 0.95

    def test_probabilities_in_unit_interval(self):
        data = generate_synthetic(SMALL)
        X = dense_matrix(data.dataset.samples, SMALL.dimension)
        p = analytic_posterior(SMALL, X)
        assert np.all((p >= 0.0) & (p <= 1.0))
