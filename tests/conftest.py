"""Suite-wide pytest hooks."""

import os

import numpy as np
import scipy


def _environment() -> str:
    """Library versions, BLAS and BLAS thread count of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_id = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas_id}, "
            f"OPENBLAS_NUM_THREADS={threads}")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header; the log should still name the environment
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_environment())
