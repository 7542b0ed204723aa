import numpy as np
import pytest

from lqglm import FitControl, ModelData, PowerThetaLink, fit_mlq, rng_stream
from lqglm.datasets import vaso_model_data


@pytest.fixture(scope="session")
def vaso():
    return vaso_model_data()


@pytest.fixture(scope="session")
def vaso_ml(vaso):
    return fit_mlq(vaso, FitControl(q=1.0))


@pytest.fixture(scope="session")
def vaso_79(vaso):
    return fit_mlq(vaso, FitControl(q=0.79))


@pytest.fixture(scope="session")
def poisson_example():
    """Fixed-seed Poisson dataset from the simulation design (n=100)."""
    rng = rng_stream(3, 0)
    X = rng.uniform(size=(100, 3))
    y = rng.poisson(np.exp(X @ np.ones(3))).astype(float)
    return ModelData(X, y, "poisson")


@pytest.fixture(scope="session")
def gaussian_example():
    """Fixed-seed Gaussian dataset with unit dispersion."""
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    y = rng.normal(X @ np.array([0.5, 1.0]), 1.0)
    return ModelData(X, y, "gaussian", phi=1.0)


@pytest.fixture(scope="session")
def gaussian_power3():
    """Fixed-seed Gaussian dataset on the non-canonical power-3 theta-link."""
    rng = rng_stream(55, 0)
    X = np.column_stack([np.ones(80), rng.uniform(0.2, 1.0, size=80)])
    link = PowerThetaLink(3)
    y = rng.normal(link.k(X @ np.array([0.8, 0.5])), 1.0)
    return ModelData(X, y, "gaussian", link=link, phi=1.0)
