"""Frozen expected outputs, and the gb-ladder cross-check against the golden reports.

``gb_reference.json`` holds, for each gb-ladder instance, the reduced
Groebner basis as printed strings and the simplicity-certificate summary.
Reduced bases are unique, so any correct engine prints the same strings
whatever generators or pair order it starts from.  ``nf_reference.json``
holds NF(x) as printed for the nf-queries anchor queries, which are the same
in every pass.  Both files are written by ``freeze_reference.py`` and only
read here.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "gb_reference.json"
NF_REFERENCE_PATH = BENCH_DIR / "nf_reference.json"
GOLDEN_DIR = ROOT / "tests" / "golden"

# Lemma 8 in paper-n3: the golden witness of lemma8-exact-annihilator[l=...]
# carries the certificate summary of I1l at that l, for l in the sweep.
LEMMA8_CHECK = "lemma8-exact-annihilator[l={l}]"
LEMMA8_GOLDEN_LEVELS = (0, 1, 2)


class ReferenceError(ValueError):
    """The frozen reference is missing or disagrees with the golden reports."""


def instance_key(scenario: str, ideal: str, l: int | None) -> str:
    return f"{scenario}/{ideal}" + ("" if l is None else f"[l={l}]")


def load_reference(path: Path = REFERENCE_PATH, golden_dir: Path = GOLDEN_DIR) -> dict[str, dict]:
    """Reference entries by instance key, after the golden cross-check.

    Every paper-n3 ``I1l`` entry must carry the same summary, Lemma 8's; for
    l = 0..2 it must equal the golden ``lemma8-exact-annihilator[l=...]``
    witness of paper-n3.
    """
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))["instances"]
        golden = json.loads((golden_dir / "paper-n3.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        raise ReferenceError(f"cannot read the gb-ladder reference: {exc}") from exc
    witnesses = {
        record["id"]: record["witness"].get("simplicity") for record in golden["checks"]
    }
    reference = {}
    lemma8 = set()
    for entry in entries:
        key = instance_key(entry["scenario"], entry["ideal"], entry["l"])
        reference[key] = entry
        if entry["scenario"] == "paper-n3" and entry["ideal"] == "I1l":
            lemma8.add(entry["certificate"])
    if len(lemma8) != 1:
        raise ReferenceError(f"I1l certificates disagree across l: {sorted(lemma8)}")
    for l in LEMMA8_GOLDEN_LEVELS:
        check_id = LEMMA8_CHECK.format(l=l)
        entry = reference.get(instance_key("paper-n3", "I1l", l))
        if entry is None or witnesses.get(check_id) != entry["certificate"]:
            raise ReferenceError(
                f"paper-n3 I1l at l={l}: frozen certificate "
                f"{entry and entry['certificate']!r} differs from the golden "
                f"{check_id} witness {witnesses.get(check_id)!r}"
            )
    return reference


def load_nf_reference(path: Path = NF_REFERENCE_PATH) -> list[str]:
    """NF(x) strings of the nf-queries anchor queries, in query order."""
    try:
        anchors = json.loads(path.read_text(encoding="utf-8"))["anchors"]
    except (OSError, ValueError, KeyError) as exc:
        raise ReferenceError(f"cannot read the nf-queries reference: {exc}") from exc
    if not all(isinstance(nf, str) for nf in anchors):
        raise ReferenceError("nf-queries reference: every anchor must be a string")
    return anchors
