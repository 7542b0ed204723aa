"""Bundled example data.

The skin vasoconstriction data (39 observations) records the volume and
rate of inspired air and a binary response indicating occurrence of
transient vasoconstriction.  The standard logistic model uses
``1 + log(volume) + log(rate)``; observations 4 and 18 are the classical
high-influence pair.  Shipped as ``data/vaso.csv``.
"""

import csv
from importlib import resources

import numpy as np

from .model import ModelData

__all__ = ["vaso_path", "load_vaso", "vaso_model_data"]


def vaso_path():
    """Filesystem path of the bundled vasoconstriction CSV."""
    return resources.files(__package__).joinpath("data/vaso.csv")


def load_vaso():
    """Return (volume, rate, y) arrays of the vasoconstriction data."""
    with vaso_path().open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    volume = np.array([float(r["volume"]) for r in rows])
    rate = np.array([float(r["rate"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    return volume, rate, y


def vaso_model_data():
    """ModelData for the standard logistic model with logged covariates."""
    volume, rate, y = load_vaso()
    X = np.column_stack([np.ones(len(y)), np.log(volume), np.log(rate)])
    return ModelData(X, y, "bernoulli")
