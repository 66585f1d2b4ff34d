"""Golden digests of the parser's output on every bundled document.

For each XML document under tests/corpus and src/gplmt/fixtures (included
documents too), load it and hash repr() of the Experiment (None when it is
rejected) followed by str() of each diagnostic, one per line. The checkout
path is replaced by a placeholder first, so the table does not depend on
where the repository lives. The table pins the parsed model and every
message, location and order across changes to the parser.

A change that alters parser output on purpose regenerates the table with

    PYTHONPATH=src python -m tests.test_golden_parse
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from gplmt.parser import load_experiment

CHECKOUT = Path(__file__).resolve().parent.parent
ROOTS = (CHECKOUT / "tests" / "corpus", CHECKOUT / "src" / "gplmt" / "fixtures")
PLACEHOLDER = "<checkout>"

GOLDEN = {
    "src/gplmt/fixtures/abort_step.xml": "21ecb97e98ea6cfeb7c062329833d6b3c9dc85c879f32d3132ff7ee38cd94652",
    "src/gplmt/fixtures/connection_loss.xml": "c415acb632de8611b2e231ed3a21bf137d50e9743d0090870402f393cb246df3",
    "src/gplmt/fixtures/fanout_rate_limit.xml": "e93081e31ca22a711b987f2db0f846e0260560b165d3390f9a712578472f67fd",
    "src/gplmt/fixtures/include/teardowns.xml": "0d5e5cbd2c84db7ba55999b1b881a0cba22798104b4a45643632310923eaf140",
    "src/gplmt/fixtures/listing1.xml": "be2d98d7888c89093fcee4e1f965a2be064d2a9e26ecb623b303cbb42f9b0a75",
    "src/gplmt/fixtures/nested_groups.xml": "b0995a1c49d967d224ae555a80aec082d92ec0781c357fbd714a1b1e1b804055",
    "src/gplmt/fixtures/panic_teardown.xml": "b00476a22a0a5ecfc250f352ad8069f279d46a9508688c534e59cd88d899ffa3",
    "src/gplmt/fixtures/par_seq_timing.xml": "0452930b4442b1fb6bffcb214769089aa91d56b3bf155c33f10b8bba57470dd7",
    "src/gplmt/fixtures/repeat_combined.xml": "cdce19cf8f51611a7c99b1f03cde0f5eea04cb21c699fdc8585581d013b66543",
    "src/gplmt/fixtures/repeat_during.xml": "5b21630ef1591e8933b2d5ec838da5a9f77b8a1552bb7a4b4eb200d5a03e7d86",
    "src/gplmt/fixtures/repeat_iterations.xml": "c0dc6c75a35d240ac74c4195b9bd95e986ea240bb06e6cc282b01affba8c6b2d",
    "src/gplmt/fixtures/scheduled_start.xml": "af2a576a0bc4e0a6c8bd3715443a366365f675a17acec9f30fec777e720d3225",
    "src/gplmt/fixtures/step_stop.xml": "315b5622d75cf152a2a177e49a560a4e049ed55bfbe098e9eadff14c4a00d08c",
    "src/gplmt/fixtures/timeout_cleanup.xml": "6d00a55958cddd3772dbe48024a3faec0510a6ac4c2cf2d4c8cd42522c718ed4",
    "tests/corpus/c01_unbounded_repeat.xml": "4f103ec5b0019a8f8c65fd6911a8e00ba857c436e775662f16dda87172b3b6b9",
    "tests/corpus/c02_call_cycle.xml": "b15a0738b4cd19547dfc325ab8ec9903bac3e7ae969349dfc596d261faeeaa3d",
    "tests/corpus/c03_duplicate_target.xml": "2ac8026d0c82a2b70b2267b149cd6f4dfd8c93b4ef32f102431ae6a3543ba5cd",
    "tests/corpus/c04_duplicate_tasklist.xml": "28c01d7d06ade317d901fc87849fa1a583137c6c879e4e0fe39de409bcd1423b",
    "tests/corpus/c05_unknown_tasklist_ref.xml": "4daea6a5c6486e540b977f3c34725f5abe566a3633d0611bad863d00b8f174b9",
    "tests/corpus/c06_unknown_target_ref.xml": "0611dcbf26440fcd7d04bf7e220ffb8c73c0529ce2f3c68019140077e2c91264",
    "tests/corpus/c07_multiple_steps.xml": "6207e5cbeb759cfd0c33eb69126f11e6270628d4ed8d56f06dd834827ed1cb6d",
    "tests/corpus/c08_missing_steps.xml": "b73a241eacd9e0e39eef2659a49b577438896fa14653d2708ad06ee9d5625fe4",
    "tests/corpus/c09_xml_syntax.xml": "236580175c1acfcedeca875a56c0cac227121abb3621beaae0d3ef8299959c98",
    "tests/corpus/c10_unknown_element.xml": "be909e493f3720ee682bae795cfab21daa03e8de99628de58e87da714b53658d",
    "tests/corpus/c11_unknown_attribute.xml": "97e69c628e53cacf430af6bf09714e3f34660432c3eb32425aa6baa4f64564c0",
    "tests/corpus/c12_missing_attribute.xml": "6fd1f7cd86bd249bf4d6a4fd1bc1430ddfc8098d46ca84c3ffbc7467ad9b3b6f",
    "tests/corpus/c13_bad_target_type.xml": "9588f6d9e85d51ccaa3dd9b6e5ba0444c82f13781057852877c48eaeaa15947b",
    "tests/corpus/c14_bad_duration.xml": "e647d036ca2951733af44a5e0fa00d08636e9a2cf0279a674e4d8237b7a81ff9",
    "tests/corpus/c15_bad_start_spec.xml": "97e1f83ba06fb83af8a70ca1af0d935ec857f36a2df7a2dec12b14abb7b014da",
    "tests/corpus/c16_start_after_stop.xml": "fab4ecdd536fd8440cdbdd58f646c30d6a2d74263bd23fda8a57a62b785fdd15",
    "tests/corpus/c17_empty_group.xml": "558b5e93f09f1d6e1fb7087d7574d145e13b8e8154792661d81c43f65952dcc8",
    "tests/corpus/c18_cleanup_cycle.xml": "4b84f2f7e2a3673044f9a0169bf9d330e1f6cf3cf241f0aa554ffb9bb47dd8e9",
    "tests/corpus/c19_include_missing.xml": "38db5da416fd46a15327346de2aeec3f2d02f962bcfa466ecbd4d686826cfef4",
    "tests/corpus/c20_include_steps.xml": "3146fadef0fc2bd969bc049de5188002e4b97df7fde12017b0ce3a9742e639f0",
    "tests/corpus/include/with_steps.xml": "3d08f5e3f1d42538480113f665f54e7399a57ee588eca28608189321e12d6a34",
}


def documents() -> list[str]:
    return sorted(
        path.relative_to(CHECKOUT).as_posix()
        for root in ROOTS
        for path in root.rglob("*.xml")
    )


def parse_digest(relative: str) -> str:
    experiment, diagnostics = load_experiment(CHECKOUT / relative)
    lines = [repr(experiment), *map(str, diagnostics)]
    text = "\n".join(lines).replace(str(CHECKOUT), PLACEHOLDER)
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_covers_every_bundled_document():
    assert sorted(GOLDEN) == documents()


@pytest.mark.parametrize("relative", sorted(GOLDEN))
def test_parse_output_matches_golden_digest(relative):
    assert parse_digest(relative) == GOLDEN[relative]


if __name__ == "__main__":
    table = {relative: parse_digest(relative) for relative in documents()}
    print("GOLDEN =", json.dumps(table, indent=4))
