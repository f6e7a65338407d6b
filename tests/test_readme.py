"""README names real API: the library names, class members and benchmark
records it mentions exist, so a rename or deletion cannot leave it stale."""

import re
from pathlib import Path

import planarcc as pc

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# The record name in the benchmark scripts' usage lines, where LABEL is the
# command-line argument.
PLACEHOLDER_RECORD = "BENCH_LABEL.json"


def library_instances():
    """One instance of each library class whose members README names."""
    model = pc.BinaryMRF(4, ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)), (1, 0, 0, -1), 0)
    _, embedding = pc.grid(2, 2)
    graph = pc.build_pcc(model, embedding)
    return {
        "Faces": pc.faces(embedding),
        "PlanarEmbedding": embedding,
        "PCCGraph": graph,
        "ExpandedDual": graph.dual,
    }


def test_pc_names_are_attributes_of_the_package():
    names = set(re.findall(r"\bpc\.([A-Za-z_][\w.]*\w)", README))
    assert names
    for name in sorted(names):
        obj = pc
        for part in name.split("."):
            assert hasattr(obj, part), f"pc.{name}"
            obj = getattr(obj, part)


def test_expanded_dual_member_list_names_members():
    head = re.search(r"an `ExpandedDual` with these \w+:\n\n", README)
    assert head
    bullets = README[head.end() :].split("\n\n", 1)[0].split("\n- ")
    assert len(bullets) >= 6
    dual = library_instances()["ExpandedDual"]
    for bullet in bullets:
        # The bullet's leading names: "`a`, `b` and `c` hold ..." or
        # "`solve(weights, session=None)` is ...".
        lead = re.match(r"-? ?((?:`[^`]+`(?:, | and )?)+)", bullet)
        assert lead, bullet
        for name in re.findall(r"`(\w+)", lead.group(1)):
            assert hasattr(dual, name), f"ExpandedDual.{name}"


def test_class_members_exist():
    instances = library_instances()
    pattern = r"`(" + "|".join(instances) + r")\.(\w+)"
    found = set(re.findall(pattern, README))
    assert found
    for cls, name in sorted(found):
        assert hasattr(instances[cls], name), f"{cls}.{name}"


def test_bench_records_exist():
    names = set(re.findall(r"BENCH_\w+\.json", README)) - {PLACEHOLDER_RECORD}
    assert names
    missing = sorted(n for n in names if not (ROOT / n).is_file())
    assert not missing, missing
