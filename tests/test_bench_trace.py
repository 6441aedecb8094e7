"""The benchmark's tracer still sees the trust boundary.

`perfbench/spans.py` wraps `classify.verify_certificate` and
`nilpotency.refutes` by replacing every elemop module global that is the
function found on that module.  Both now live in `elemop.certificate` and
are imported by the old modules, so the same wrapper lands on every
module that binds them, and calls made through `certificate` are traced
under the old layer names.  This loads that file and edits nothing under
perfbench/.
"""

import importlib.util
from pathlib import Path

import elemop.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_a_traced_cli_round_counts_the_verifier_and_refutes(tmp_path):
    instance = tmp_path / "near_miss.json"
    cert = tmp_path / "near_miss.cert.json"
    generate = ["generate", "--form", "remark45", "--dim", "4", "--seed", "1", str(instance)]
    assert elemop.cli.main(generate) == 0
    tracer = _spans().Tracer()
    tracer.install()
    try:
        # looked up on the module, where the tracer wraps it
        assert elemop.cli.main(["classify", str(instance), "--out", str(cert)]) == 1
        assert elemop.cli.main(["verify", str(instance), str(cert)]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["classify.verify_certificate"]["calls"] > 0
    assert totals["nilpotency.refutes"]["calls"] > 0
    # sum b_i a_i = 0 here, so each sampled x goes to `refutes`, and the
    # verifier asks it once more about the witness
    trials = tracer.counts["nilpotency.witness_search.trials"]
    assert trials > 0
    assert totals["nilpotency.refutes"]["calls"] == trials + 1
