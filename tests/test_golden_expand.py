"""Golden digests of slice expansion over one inline document.

The document nests a planetlab target inside a group with export-env, puts a
second slice at the top level, and keeps static groups with no slice beside
them. The fake slice API answers with a non-boot node and a repeated
hostname. Each digest is the sha256 of repr() of the expanded Experiment,
with ``source_documents`` cleared so that the table does not depend on where
the document was written. The table pins what expand_experiment returns, the
shape of every target record included, across changes to the model.

A change that alters expansion on purpose regenerates the table with

    PYTHONPATH=src python -m tests.test_golden_expand
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from gplmt.parser import load_experiment
from gplmt.planetlab import SliceNodeRecord, expand_experiment

DOCUMENT = """<?xml version="1.0"?>
<experiment>
  <targets>
    <target name="ctl" type="local"/>
    <target name="edge" type="ssh">
      <user>op</user><password>pw</password><host>edge.example.org</host>
      <export-env var="ROLE" value="edge"/>
    </target>
    <target name="static" type="group">
      <export-env var="TIER" value="static"/>
      <target name="ctl"/>
      <target name="edge"/>
    </target>
    <target name="world" type="group">
      <export-env var="ROLE" value="probe"/>
      <export-env var="RUN" value="7"/>
      <target name="inner" type="planetlab" api-url="https://api.example/" slice="s1" user="me@example.org">
        <password>sekrit</password>
        <export-env var="SLICE" value="s1"/>
      </target>
      <target name="static"/>
    </target>
    <target name="solo" type="planetlab" api-url="https://other.example/" slice="s2" user="you@example.org"/>
    <target name="all" type="group">
      <target name="world"/>
      <target name="solo"/>
      <target name="tail" type="local"/>
    </target>
  </targets>
  <tasklists>
    <tasklist name="t"><run>true</run></tasklist>
  </tasklists>
  <steps>
    <step tasklist="t" targets="all"/>
  </steps>
</experiment>
"""

SLICES = {
    "s1": [
        SliceNodeRecord("a.example.org", "boot", 1),
        SliceNodeRecord("b.example.org", "dbg", 2),
        SliceNodeRecord("a.example.org", "boot", 3),
        SliceNodeRecord("c.example.org", "boot", 4),
    ],
    "s2": [
        SliceNodeRecord("z.example.net", "disabled", 9),
        SliceNodeRecord("y.example.net", "boot", 8),
    ],
}

GOLDEN = {
    "boot-only": "c33822e5950277ba181884aea4d9ee44a25ba8e321595fa0b2812325d91dc771",
    "include-non-boot": "472de716253717d47ab35f7be6e47c3b5a904d2d1ab0a263afdf33b53db92bed",
    "offline": "eb1e3079a99ed05c4eb00496fd40f9c194cb61a0aa14fe3640acc9baefaf11f7",
}


def expanded(variant: str):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "expand.xml"
        path.write_text(DOCUMENT, encoding="utf-8")
        experiment, diagnostics = load_experiment(path)
    assert experiment is not None, [str(d) for d in diagnostics]
    calls = []

    def fetch(api_url, user, credential, slice_name):
        calls.append((api_url, user, credential, slice_name))
        return SLICES[slice_name]

    result = expand_experiment(
        experiment,
        fetch=None if variant == "offline" else fetch,
        include_non_boot=variant == "include-non-boot",
    )
    return dataclasses.replace(result, source_documents=()), calls


def expand_digest(variant: str) -> str:
    experiment, _ = expanded(variant)
    return hashlib.sha256(repr(experiment).encode()).hexdigest()


def test_each_slice_is_fetched_with_its_own_credentials():
    _, calls = expanded("boot-only")
    assert len(calls) == 2  # once per slice target, not once per group embedding it
    assert list(dict.fromkeys(calls)) == [
        ("https://api.example/", "me@example.org", "sekrit", "s1"),
        ("https://other.example/", "you@example.org", "", "s2"),
    ]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_expansion_matches_golden_digest(variant):
    assert expand_digest(variant) == GOLDEN[variant]


if __name__ == "__main__":
    table = {variant: expand_digest(variant) for variant in sorted(GOLDEN)}
    print("GOLDEN =", json.dumps(table, indent=4))
