"""The README's command-line examples, run through `cli.run`: each
`$ sutured-tqft ...` line must print the lines shown under it and exit
with the code its comment states (0 where none is stated)."""
import io
import re
import shlex
from pathlib import Path

import pytest

from sutured_tqft.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command line, argv, lines kept, expected stdout, exit code) of each
    example in the README's `sh` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    out = []
    for block in blocks:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            line, _, shown = chunk.partition("\n")
            if not line.startswith("$ sutured-tqft "):
                continue
            command, _, comment = line[2:].partition("#")
            exit_code = re.match(r"\s*exit (\d+)", comment)
            command, _, pipe = command.partition("|")
            keep = re.fullmatch(r"\s*head -(\d+)\s*", pipe) if pipe else None
            if pipe and keep is None:
                raise ValueError(f"unsupported pipe in README example {line!r}")
            out.append((line, shlex.split(command)[1:],
                        int(keep.group(1)) if keep else None, shown,
                        int(exit_code.group(1)) if exit_code else 0))
    return out


def test_readme_has_its_examples():
    examples = readme_examples()
    assert len(examples) == 8
    assert [argv[0] for _, argv, *_ in examples] == [
        "contact", "contact", "enumerate", "enumerate", "match", "torus",
        "bypass", "axioms"]
    assert sum(keep is not None for _, _, keep, _, _ in examples) == 1


@pytest.mark.parametrize("line, argv, keep, shown, exit_code", readme_examples(),
                         ids=[ex[0][2:] for ex in readme_examples()])
def test_readme_example(line, argv, keep, shown, exit_code):
    buf = io.StringIO()
    code = run(argv, out=buf)
    text = buf.getvalue()
    if keep is not None:
        text = "".join(text.splitlines(keepends=True)[:keep])
    assert (code, text) == (exit_code, shown)
