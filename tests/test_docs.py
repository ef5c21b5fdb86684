"""Documentation health checks."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PACKAGES = [
    "repro", "repro.core", "repro.crypto", "repro.compression",
    "repro.delta", "repro.memory", "repro.net", "repro.sim",
    "repro.platform", "repro.footprint", "repro.baselines",
    "repro.workload", "repro.fleet", "repro.suit", "repro.analysis",
    "repro.tools", "repro.obs", "repro.faults",
]


@pytest.mark.parametrize("dotted", PACKAGES)
def test_every_package_has_a_docstring(dotted):
    module = importlib.import_module(dotted)
    assert module.__doc__, "%s lacks a module docstring" % dotted


@pytest.mark.parametrize("dotted", PACKAGES)
def test_every_export_resolves_and_is_documented(dotted):
    module = importlib.import_module(dotted)
    exported = getattr(module, "__all__", [])
    assert exported, "%s exports nothing" % dotted
    for name in exported:
        obj = getattr(module, name)  # raises if __all__ lies
        if isinstance(obj, type):
            assert obj.__doc__, "%s.%s lacks a docstring" % (dotted, name)


def test_api_generator_runs():
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "docs",
                                      "generate_api.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    api_path = os.path.join(REPO_ROOT, "docs", "API.md")
    assert os.path.exists(api_path)
    content = open(api_path).read()
    assert "## `repro.core`" in content
    assert "UpdateAgent" in content


def test_api_reference_does_not_depend_on_the_hash_seed(tmp_path):
    """Set defaults (e.g. ``FleetTelemetry.quarantine_kinds``) render
    sorted, so regenerating API.md never reorders them."""
    outputs = []
    for seed in ("1", "8"):   # opposite set orders under Python 3.11
        out = tmp_path / ("API-%s.md" % seed)
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "docs",
                                          "generate_api.py"), str(out)],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert "frozenset({'crash-loop', 'retry-storm'})" in outputs[0]


@pytest.mark.parametrize("name", ["README.md", "DESIGN.md",
                                  "EXPERIMENTS.md"])
def test_top_level_docs_exist(name):
    path = os.path.join(REPO_ROOT, name)
    assert os.path.exists(path)
    assert len(open(path).read()) > 1000
