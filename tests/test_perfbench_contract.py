"""The end-to-end benchmark's contract with the program.

``perfbench/`` (run from the repository root, outside tier-1) times
layers by wrapping named public entry points of the program.  A rename
on the program side would only surface when the benchmark runs; this
test installs both wrapper sets and takes them off again, so it fails
as soon as a wrapped owner or attribute goes away.
"""

from __future__ import annotations

import pytest

from perfbench import rollout, serve_child
from perfbench.spans import SpanRecorder

_ABSENT = object()


class _AuditingRecorder(SpanRecorder):
    """Remembers each wrapped (owner, attr) and what it held before."""

    def __init__(self) -> None:
        super().__init__()
        self.targets = []

    def wrap(self, owner, attr, name):
        self.targets.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        super().wrap(owner, attr, name)


@pytest.mark.parametrize("install", [rollout.install_wrappers,
                                     serve_child.install_wrappers],
                         ids=["rollout", "serve_child"])
def test_wrappers_install_on_live_attributes_and_uninstall_cleanly(install):
    recorder = _AuditingRecorder()
    try:
        install(recorder)
        assert recorder.targets
        for owner, attr, before in recorder.targets:
            wrapped = getattr(owner, attr)
            assert callable(wrapped)
            assert wrapped is not before, (owner, attr)
    finally:
        recorder.uninstall()
    for owner, attr, before in recorder.targets:
        assert vars(owner).get(attr, _ABSENT) is before, (owner, attr)
