"""The golden CLI corpus replays byte for byte (see golden_cli.py)."""

import golden_cli

from ramfourier import cli


def test_the_corpus_holds_every_command_once():
    argvs = [argv for argv, *_ in golden_cli.load()]
    assert argvs == golden_cli.commands()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)


def test_every_entry_replays(tmp_path, monkeypatch):
    golden_cli.write_inputs(tmp_path)
    # Building the parser is most of a small run's cost, and one serves all.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    changed = []
    for argv, code, out, err in golden_cli.load():
        got_code, got_out, got_err = golden_cli.run(argv, tmp_path)
        if (got_code, got_out) != (code, out) or err is not None and got_err != err:
            changed.append(argv)
    assert not changed, f"{len(changed)} entries changed, first: {changed[:3]}"
