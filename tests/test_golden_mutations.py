"""Golden digests of the parser's output on mutated bundled documents.

For each seed in SEEDS, random.Random(seed) picks one XML document under
tests/corpus or src/gplmt/fixtures and mutate() edits all of it but the
XML declaration: odd or swapped attribute values, deleted attributes,
duplicated or deleted empty elements, extra attributes, stray text and
stray child elements. The document is loaded (an included one through
the document that includes it) and repr() of the Experiment plus str() of
each diagnostic is hashed, as tests/test_golden_parse.py hashes an
unedited document. The table holds one digest per block of 100 seeds, so
it pins the order of several findings on one element, which no
hand-written case covers.

The bundled documents are copied once; each seed edits its document in
place and restores it. A change that alters parser output on purpose
regenerates the table with

    PYTHONPATH=src python -m tests.test_golden_mutations

which needs no pytest.
"""
from __future__ import annotations

import hashlib
import random
import re
import shutil
import tempfile
from pathlib import Path

from gplmt.parser import load_experiment

CHECKOUT = Path(__file__).resolve().parent.parent
ROOTS = ("tests/corpus", "src/gplmt/fixtures")
# An included document is loaded through the document that includes it.
INCLUDED_BY = {
    "src/gplmt/fixtures/include/teardowns.xml": "src/gplmt/fixtures/listing1.xml",
    "tests/corpus/include/with_steps.xml": "tests/corpus/c20_include_steps.xml",
}
PLACEHOLDER = "<checkout>"
SEEDS = range(3000)
BLOCK = 100

ATTRIBUTE = re.compile(r'([\w:-]+)="([^"]*)"')  # the XML declaration's too
EMPTY_ELEMENT = re.compile(r"<[\w-]+[^<>]*/>")
START_TAG = re.compile(r"<([\w-]+)[^<>]*?(/?)>")
ODD_VALUES = (
    "", "x", "0", "-1", "1e309", "nan", "PT0S", "P9999Y", "../up", "a=b c", "all", "*",
    "x" * 300, "rot13", "utf-32", "idna", "2038-01-19T03:14:08Z",
)
EXTRA_ATTRIBUTES = ("x", "name", "type", "ref", "timeout", "start", "during", "var")
STRAY_CONTENT = (
    "stray", " 42 ", "<x/>", "<run>true</run>", '<target name="s" type="local"/>',
    "<user>u</user>", "<synchronize/>", '<call ref="x"/>',
)


def mutate(text: str, rng: random.Random) -> str:
    """One to three edits: an attribute value replaced by an odd value or by
    another attribute's value, an attribute deleted, an element given an
    extra attribute or stray content (text or a child element), or an empty
    element duplicated or deleted."""
    for _ in range(rng.randint(1, 3)):
        attributes = list(ATTRIBUTE.finditer(text))
        tags = list(START_TAG.finditer(text))
        elements = list(EMPTY_ELEMENT.finditer(text))
        roll = rng.random()
        if roll < 0.4 and attributes:
            match = rng.choice(attributes)
            value = rng.choice(ODD_VALUES + tuple(m.group(2) for m in attributes))
            text = f'{text[:match.start(2)]}{value}{text[match.end(2):]}'
        elif roll < 0.5 and attributes:
            match = rng.choice(attributes)
            text = text[:match.start()] + text[match.end():]
        elif roll < 0.85 and tags:
            match = rng.choice(tags)
            if roll < 0.65:
                extra = f' {rng.choice(EXTRA_ATTRIBUTES)}="{rng.choice(ODD_VALUES)}"'
                text = text[:match.end(1)] + extra + text[match.end(1):]
            elif match.group(2):  # an empty element gets a body
                body = f">{rng.choice(STRAY_CONTENT)}</{match.group(1)}>"
                text = text[:match.end() - 2] + body + text[match.end():]
            else:
                text = text[:match.end()] + rng.choice(STRAY_CONTENT) + text[match.end():]
        elif elements:
            match = rng.choice(elements)
            copy = match.group() if roll < 0.95 else ""
            text = text[:match.start()] + copy + text[match.end():]
    return text


def documents() -> list[str]:
    return sorted(
        path.relative_to(CHECKOUT).as_posix()
        for root in ROOTS
        for path in (CHECKOUT / root).rglob("*.xml")
    )


def mutated_table() -> dict[int, str]:
    """Per block of BLOCK seeds, the digest of every mutated document's
    Experiment repr and diagnostics."""
    relatives = documents()
    table: dict[int, str] = {}
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch).resolve()
        for root in ROOTS:
            shutil.copytree(CHECKOUT / root, copy / root)
        originals = {relative: (copy / relative).read_bytes() for relative in relatives}
        digest = hashlib.sha256()
        for seed in SEEDS:
            rng = random.Random(seed)
            relative = rng.choice(relatives)
            path = copy / relative
            # The XML declaration is left alone: the message for an unusable
            # encoding quotes the codec, whose words vary by interpreter.
            declaration, end, body = originals[relative].decode("utf-8").rpartition("?>")
            path.write_text(declaration + end + mutate(body, rng), encoding="utf-8")
            try:
                experiment, diagnostics = load_experiment(copy / INCLUDED_BY.get(relative, relative))
            finally:
                path.write_bytes(originals[relative])
            lines = [f"seed {seed}", repr(experiment), *map(str, diagnostics), ""]
            digest.update("\n".join(lines).replace(str(copy), PLACEHOLDER).encode())
            if (seed + 1) % BLOCK == 0:
                table[seed + 1 - BLOCK] = digest.hexdigest()
                digest = hashlib.sha256()
    return table


GOLDEN = {
    0: "b4a77f7ae9dff732c4ec78761a899db08d6d3ff2937f9790ee9747240cf0bfe3",
    100: "1cfb60d134e09aa602650b6739cc47e4230b8ee32ad33ab84cac1a825651d013",
    200: "aa291e8536f3932b487a15a9c70cba5e65fa21ee3e4e51cef08ede6098b270a4",
    300: "e55ca7bd69f4dc126ac0deb98e85b64041b0c61c020c9b28f2c95786690f8c4b",
    400: "508d7b643083fbc53a0e6ecf6f7faba1dfd9bb0e5750a96f32ec79c1ea939afe",
    500: "dc992a7eb71729d3f0b4abf25ac6da4ce92cd3b1fc30fe927a4fdcf8f5493495",
    600: "c9582c27068a4a0918201d6372675e375104041837ef688e560c7564f59e8c82",
    700: "4d88039afa5562e11599c0867458c8cf649ddd4f6773af0ac37c300335fa8026",
    800: "8c9869eafc198c931feb722a788bc5df40c17bcfa84058eabcb0c2340c08c1b3",
    900: "32e313137e25adc7694395dc5016fc614bc8c4a8408fcbf1ba3be20d6d4b30de",
    1000: "dbfd79cc4a0d7d32c49fb5acb10037e1be57aba58be81e3acd17eb8296757067",
    1100: "a3c997900f4e1396415fbefa43f89a1c15a6c35c26c7de0543cf0b7b7b1a6c7f",
    1200: "57d02aa6a8ad29e9b5e8d635ac0da9041deeef33383f4bfd7a183ead9860f0ed",
    1300: "85401111a5bbc0693db4d8549d65bd2ecde35f15af7c9cc8bf8098ffbea8f535",
    1400: "08726722ba92cd6d7ccc0940a40f4af506ae18d146c732b7a823ba2973962cbb",
    1500: "0332bf4c83f51615c713d667e7b2f66fcbaf4f7591018b00cecccfe6b0b6cc6a",
    1600: "5eb14396a879fc9b7ac09fc63318a69948fb40fec0a6458942c19702bb4860cd",
    1700: "de535e2ae13d6a3eb9ed76444067c398d272985adb67035ee4889acd235a697e",
    1800: "1d1f3c8e1874ff472f3bcf9430121099e937bd3ce020044ac5ac77276b44df01",
    1900: "6ef1f1e9bee9373451b2a872ddcba270c7d4c0302a91e9ebe447fc3a21258598",
    2000: "5d999d01d786a42d5fff621ceb116598b918e7fdc8d44ab19f8fb16e56cf3bd4",
    2100: "f96dc65ddbd190f8e1e528526f82a46018e585487e9020ee74208eb49c5027f7",
    2200: "39a9c1e5fff8ee8422cb8bca6217008deda2c07d9af2b6591547d9f4da0a612b",
    2300: "9fea22d61af824fbaa440bdb6f905a0e4fc895b4eeb24ce39d8c64b011da3a1f",
    2400: "4bdc7b7ae137683b9a30ece7a97b53d31624e2123e409e9fa2a6941e92b6f4aa",
    2500: "39d98dbe9550711b5e75d4351d9798c46e0ad97d843b97e0052c42888d7917d4",
    2600: "3689c3604fb6c55d2d5756aac00d0b10f770559a0116cc170dfeaa995422065a",
    2700: "18c68b248c6a6ead4e5254d07bd2afd1690f4ed480639d690408930f6b89e26f",
    2800: "72b89f67eee38440bc041bebd82bd6450ccc464605ffabfee6e7214e7f76011f",
    2900: "11842535497a8c5c3227690853a69d2f1ca315ad60fb86698d72aa6dcea8c125",
}


def test_mutated_parse_output_matches_golden_digests():
    assert mutated_table() == GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for first, digest in mutated_table().items():
        print(f'    {first}: "{digest}",')
    print("}")
