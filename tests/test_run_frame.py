"""One run frame: in the CLI only ``main`` makes the output directory and
writes files, the reports and then the manifest, after the subcommand's
handler has returned.  So a run that raises leaves no partial report, and no
manifest is written without the reports it describes."""

from pathlib import Path

from test_truncation_rule import stray_calls

CLI = Path(__file__).resolve().parents[1] / "src" / "dgsum" / "cli.py"

# callee -> the functions of the CLI that may call it; the manifest is one
# ``write_json`` call of ``main``, and a manifest writer of its own may be
# called from nowhere else
ALLOWED = {
    "make_out_dir": {"main"},
    "write_report": {"main", "write_json"},
    "write_json": {"main"},
    "write_manifest": {"main"},
}


def test_stray_calls_flags_a_handler_that_writes():
    snippet = """
def write_json(path, obj):
    write_report(path, json.dumps(jround(obj)))

def cmd_quality(cfg, stream):
    X = load_or_draw_matrix(cfg, stream.substream(0))
    write_report(Path(cfg["out_dir"]) / "matrix.txt", X.to_text())
    return Run(EXIT_OK, {"certificate.json": best_certificate(X, stream).to_json_dict()})

def main(argv=None):
    out = make_out_dir(cfg)
    run = cmd_quality(cfg, SampleStream(cfg["seed"]))
    for name, body in run.files.items():
        write_report(out / name, body)
    write_json(out / "manifest.json", {"stages": {"quality": run.stage}})
"""
    assert stray_calls(snippet, ALLOWED) == {("write_report", "cmd_quality")}


def test_only_main_writes_files():
    source = CLI.read_text()
    assert stray_calls(source, ALLOWED) == set()
    # and main does write them: every call of a writer, with nothing allowed
    assert stray_calls(source, {name: set() for name in ALLOWED}) == {
        ("make_out_dir", "main"),
        ("write_report", "main"),
        ("write_json", "main"),
        ("write_report", "write_json"),
    }
