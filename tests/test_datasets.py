"""The bundled data is read by the package's one CSV reader, and found
through the package that holds the module."""

import csv
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lqglm import UsageError
from lqglm.datasets import load_table, vaso_model_data, vaso_path

SRC = Path(__file__).resolve().parent.parent / "src" / "lqglm"


def test_vaso_model_data_matches_a_reference_reader():
    # the file's own DictReader parse, as the data once had beside the table reader
    with vaso_path().open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    volume, rate, y = (np.array([float(r[c]) for r in rows]) for c in ("volume", "rate", "y"))
    data = vaso_model_data()
    X = np.column_stack([np.ones(len(y)), np.log(volume), np.log(rate)])
    assert data.X.tobytes() == X.tobytes() and data.y.tobytes() == y.tobytes()
    assert data.family.name == "bernoulli"


def test_renamed_copy_reads_its_own_data(tmp_path):
    # a copy imported under another name (as tools/ab_ops.py imports two
    # checkouts) finds the CSV inside the copy, whatever ``lqglm`` is
    shutil.copytree(SRC, tmp_path / "lqglm_copy", ignore=shutil.ignore_patterns("__pycache__"))
    code = ("from lqglm_copy.datasets import vaso_model_data, vaso_path\n"
            "assert vaso_model_data().n == 39\n"
            "print(vaso_path())\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True)
    assert Path(out.stdout.strip()).resolve().is_relative_to(tmp_path.resolve())


@pytest.mark.parametrize("text,log_cols,no_intercept,message", [
    ("y,x\nyes,1\nno,2\n", (), False, "response column 'y' is not numeric"),
    ("y,x,g\n1,1,a\n0,2,b\n", ("g",), False, "column 'g' to log is not a numeric covariate"),
    ("y,x\n1,1\n0,0\n", ("x",), False, "column 'x' to log has non-positive values"),
    ("y,g\n1,a\n0,b\n", (), True, "no covariate columns")],
    ids=["response", "log-non-numeric", "log-non-positive", "no-covariates"])
def test_table_errors(text, log_cols, no_intercept, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        load_table(io.StringIO(text), "y", log_cols, no_intercept)
