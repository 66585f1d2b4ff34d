"""The benchmark's traced run wraps gplmt entry points by name; a refactor
that renames or drops one must fail here, not only in the benchmark."""
from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_entry_point_is_still_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracer

    # looks every attribute up in its owner's namespace; installs nothing
    patches = layers.trace_patches(tracer.Tracer())
    assert patches
    for owner, attribute, wrapper in patches:
        assert callable(getattr(owner, attribute))
        assert getattr(owner, attribute) is not wrapper
