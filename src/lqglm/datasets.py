"""The CSV reader of every table, and the bundled example data.

The skin vasoconstriction data (39 observations) records the volume and
rate of inspired air and a binary response indicating occurrence of
transient vasoconstriction.  The standard logistic model uses
``1 + log(volume) + log(rate)``; observations 4 and 18 are the classical
high-influence pair.  Shipped as ``data/vaso.csv``.
"""

import csv
from importlib import resources

import numpy as np

from .errors import UsageError
from .model import ModelData

__all__ = ["load_table", "vaso_path", "vaso_model_data"]


def load_table(stream, response, log_cols=(), no_intercept=False):
    """RFC-4180 CSV text stream with a header row (a file opened with
    ``newline=""``) -> (X, y, covariate names).  Numeric non-response
    columns become covariates in file order, ``log_cols`` logged, with an
    intercept prepended unless ``no_intercept``."""
    header, *rows = list(csv.reader(stream)) or [[]]
    rows = [r for r in rows if r]
    if not rows:
        raise UsageError("no rows")
    twice = [name for i, name in enumerate(header) if name in header[:i]]
    if twice:
        raise UsageError(f"column {twice[0]!r} appears twice in the header")
    if response not in header:
        raise UsageError(f"response column {response!r} not in header {header}")
    if any(len(r) != len(header) for r in rows):
        raise UsageError("ragged CSV row")
    numeric = {}
    for name, vals in zip(header, zip(*rows)):
        try:
            numeric[name] = np.array([float(v) for v in vals])
        except ValueError:
            if name == response:
                raise UsageError(f"response column {response!r} is not numeric") from None
    y = numeric.pop(response)
    names = [n for n in header if n in numeric]
    twice = [c for i, c in enumerate(log_cols) if c in log_cols[:i]]
    if twice:
        raise UsageError(f"column {twice[0]!r} is named twice among the columns to log")
    for c in log_cols:
        if c not in numeric:
            raise UsageError(f"column {c!r} to log is not a numeric covariate")
        if np.any(numeric[c] <= 0):
            raise UsageError(f"column {c!r} to log has non-positive values")
        numeric[c] = np.log(numeric[c])
    columns = [numeric[n] for n in names]
    if not no_intercept:
        columns = [np.ones(len(y))] + columns
        names = ["(intercept)"] + names
    if not columns:
        raise UsageError("no covariate columns")
    return np.column_stack(columns), y, names


def vaso_path():
    """Filesystem path of the bundled vasoconstriction CSV."""
    return resources.files(__package__).joinpath("data/vaso.csv")


def vaso_model_data():
    """ModelData for the standard logistic model with logged covariates."""
    with vaso_path().open(newline="") as fh:
        X, y, _ = load_table(fh, "y", ("volume", "rate"))
    return ModelData(X, y, "bernoulli")
