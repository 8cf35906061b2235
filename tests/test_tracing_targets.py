import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_traced_name_exists(tracing):
    # the traced benchmark run looks each target up in its owner's
    # __dict__, so a rename in the package would only surface there
    for owner_path, attr, _, _ in tracing.TARGETS:
        owner = tracing._owner(owner_path)
        assert attr in owner.__dict__, f"{owner_path}.{attr}"


def test_every_traced_target_records_a_span(tracing, tmp_path, capsys):
    # a refactor that stops calling a name through its traced lookup
    # would leave that layer's benchmark metric empty, without an error
    from hyperising import cli, hypergraph_to_doc
    from hyperising.instances import random_regular_graph

    g = random_regular_graph(random.Random(1), 6, 3, 0.5)
    path = tmp_path / "host.json"
    path.write_text(json.dumps(hypergraph_to_doc(g)))
    approx = ["approx", str(path), "--epsilon"]
    runs = (["sweep", "--random-regular", "8,3", "--steps", "2",
             "--beta-from", "0.2", "--beta-to", "0.4"],
            ["zeros", str(path)],
            [*approx, "0.1", "--lambda", "0.1"],
            [*approx, "0.01", "--lambda", "0.9"],
            ["coeffs", str(path), "--m", str(g.n + 2)])
    tracer = tracing.Tracer()
    evaluations = []
    with tracer.installed():
        for argv in runs:
            assert cli.main(argv) == 0, argv
            report = json.loads(capsys.readouterr().out)
            if argv[0] == "approx":
                evaluations.append(report["result"]["evaluation"])
    assert evaluations == ["series", "polynomial"]
    names = {rec[2] for rec in tracer.spans}
    missing = {name for _, _, name, _ in tracing.TARGETS} - names
    assert not missing, sorted(missing)
    # two targets share a span name; their callers tell them apart
    calls = {(tracer.spans[parent][2], name)
             for _, parent, name, *_ in tracer.spans if parent is not None}
    assert ("leeyang.verify_circle", "leeyang.check_ranges") in calls
    assert ("taylor.approximate", "leeyang.check_ranges") in calls
