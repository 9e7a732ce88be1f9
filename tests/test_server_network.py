"""Tests for the parameter server and the simulated network."""

import numpy as np
import pytest

from repro.distributed.network import LossyNetwork, PerfectNetwork
from repro.distributed.server import ParameterServer
from repro.exceptions import ConfigurationError
from repro.gars import get_gar
from repro.optim.sgd import SGDOptimizer
from repro.rng import generator_from_seed
from tests.helpers import random_gradient_matrix


def make_server(n=5, f=0, gar="average", lr=0.5, momentum=0.0):
    return ParameterServer(
        initial_parameters=np.zeros(4),
        gar=get_gar(gar, n, f),
        optimizer=SGDOptimizer(lr, momentum=momentum),
    )


class TestParameterServer:
    def test_step_applies_aggregate(self):
        server = make_server()
        gradients = np.ones((5, 4))
        aggregated = server.step(gradients)
        assert np.allclose(aggregated, np.ones(4))
        assert np.allclose(server.parameters, -0.5 * np.ones(4))

    def test_parameters_returns_copy(self):
        server = make_server()
        view = server.parameters
        view[:] = 99.0
        assert not np.allclose(server.parameters, 99.0)

    def test_step_count(self):
        server = make_server()
        for expected in range(1, 4):
            server.step(np.zeros((5, 4)))
            assert server.step_count == expected

    def test_shape_validated(self):
        server = make_server()
        with pytest.raises(ConfigurationError, match="gradient matrix"):
            server.step(np.zeros((4, 4)))  # wrong worker count

    def test_robust_gar_server(self):
        server = make_server(n=11, f=5, gar="mda")
        gradients = random_gradient_matrix(11, 4, seed=0)
        aggregated = server.step(gradients)
        assert aggregated.shape == (4,)


class TestPerfectNetwork:
    def test_identity(self):
        network = PerfectNetwork()
        gradients = random_gradient_matrix(4, 3, seed=0)
        assert network.deliver(gradients, 1) is gradients

    def test_drop_probability_zero(self):
        assert PerfectNetwork().drop_probability == 0.0


class TestLossyNetwork:
    def test_zero_probability_is_identity(self):
        network = LossyNetwork(0.0, generator_from_seed(0))
        gradients = random_gradient_matrix(4, 3, seed=0)
        assert network.deliver(gradients, 1) is gradients

    def test_dropped_rows_become_zero(self):
        network = LossyNetwork(0.99, generator_from_seed(1))
        gradients = np.ones((100, 3))
        delivered = network.deliver(gradients, 1)
        dropped_rows = np.all(delivered == 0.0, axis=1)
        assert dropped_rows.sum() > 80

    def test_original_not_mutated(self):
        network = LossyNetwork(0.99, generator_from_seed(2))
        gradients = np.ones((10, 3))
        network.deliver(gradients, 1)
        assert np.all(gradients == 1.0)

    def test_drop_rate_statistics(self):
        network = LossyNetwork(0.3, generator_from_seed(3))
        total = 0
        for step in range(100):
            delivered = network.deliver(np.ones((50, 2)), step)
            total += int(np.sum(np.all(delivered == 0.0, axis=1)))
        assert total == pytest.approx(0.3 * 5000, rel=0.1)
        assert network.dropped_total == total

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            LossyNetwork(1.0, generator_from_seed(0))
        with pytest.raises(ConfigurationError):
            LossyNetwork(-0.1, generator_from_seed(0))
