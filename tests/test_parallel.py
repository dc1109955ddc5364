import numpy as np

from krasovskii.certify import (
    FalsificationSampler,
    check_pointwise_dissipation,
)
from krasovskii.estimate import run_ensemble, seeded_history_sampler
from krasovskii.functionals import square_gain
from krasovskii.systems import make_example1
from tests.conftest import standard_lkf


class TestParallelDeterminism:
    """Repeated sweeps and ensembles are identical.  Both run in one
    worker; the thread pool is gone."""

    def test_check_identical_across_worker_counts(self):
        sys1 = make_example1(1.0)
        lkf = standard_lkf()
        sampler = FalsificationSampler(55, 2, 1, 1.0)
        first = check_pointwise_dissipation(sys1, lkf, 2.0, 0.0,
                                             square_gain(), sampler, 400)
        second = check_pointwise_dissipation(sys1, lkf, 2.0, 0.0,
                                               square_gain(), sampler, 400)
        assert first.worst == second.worst
        assert first.witness_index == second.witness_index

    def test_ensemble_identical_across_worker_counts(self):
        sys1 = make_example1(1.0)
        hist = seeded_history_sampler(66, 2, 1.0, 1.0)
        first = run_ensemble(sys1, hist, None, 4, 1.0, 0.02)
        second = run_ensemble(sys1, hist, None, 4, 1.0, 0.02)
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)
