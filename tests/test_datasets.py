"""The bundled data is found through the package that holds the module."""

import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lqglm"


def test_renamed_copy_reads_its_own_data(tmp_path):
    # a copy imported under another name (as tools/ab_ops.py imports two
    # checkouts) finds the CSV inside the copy, whatever ``lqglm`` is
    shutil.copytree(SRC, tmp_path / "lqglm_copy", ignore=shutil.ignore_patterns("__pycache__"))
    code = ("from lqglm_copy.datasets import load_vaso, vaso_path\n"
            "assert len(load_vaso()[2]) == 39\n"
            "print(vaso_path())\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True)
    assert Path(out.stdout.strip()).resolve().is_relative_to(tmp_path.resolve())
