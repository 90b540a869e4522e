"""Reachability of the library: every function and method defined in
``src/bergreen`` is entered by some command, or is named in an allowlist
with the reason it stays.

The commands run in-process under ``sys.setprofile``: ``all`` once
uncached and twice cached (a miss that stores, then a hit), every command
of CI's command steps, and the non-default paths that neither reaches."""

import ast
import os
import sys
from pathlib import Path

import bergreen
from bergreen import bergman, cli, domains, extension, fuchsian, reports, squeezing, torus

_PACKAGE = Path(bergreen.__file__).resolve().parent

# the CI workflow's command steps, one argv each, without --no-cache/--outdir
_CI_COMMANDS = [
    # thin, tall and high-degree tori
    "torus-check --taus 0.15j,0.12j,0.1j,0.2j,0.3j --ds 4",
    "torus-check --taus 4j,6j,0.3+4j --ds 4",
    "torus-check --taus 1j,0.5+1j,2j --ds 64,128,200",
    "torus-check --taus 7j,10j,0.5+2j,0.5+3j,0.5+4j,0.3+8j --ds 4,6",
    "torus-check --taus=-0.336304+0.95665j,0.393196+1.156011j,0.409036+1.20273j,0.387011+1.118533j --ds 4,6",
    # closed-form kernels
    "extended-suita-check --domain disc --weight harmonicre:1.0",
    "extended-suita-check --domain annulus:0.2 --weight harmonicre:1.0",
    "extended-suita-check --domain annulus:0.04 --weight harmonicre:0.2",
    "extended-suita-check --domain disc:2 --weight harmonicre:0.5 --zs 1.9",
    "extended-suita-check --domain annulus:0.9 --weight harmonicre:2 --zs 0.9001",
    "extended-suita-check --domain disc:1000 --weight harmonicre:0.001 --zs 999",
    "bergman --weight harmonicre:0.5",
    "suita-check --domain annulus:0.04 --zs 0.0404,0.5j,-0.9999",
    "suita-check --domain annulus:2.2e-86 --zs 1.5e-43,0.5,1e-85",
    "fuchsian-check --c-grid 0.01,0.5,0.999 --n-terms 4096",
    "suita-check --domain annulus:1e-300 --zs 1e-299,1e-200,1e-150",
    "extended-suita-check --domain annulus:1e-300 --weight harmonicre:1.0 --zs 1e-299",
    "suita-check --domain annulus:1e-150 --zs 1.0000001e-150",
    "suita-check --domain annulus:3e-308 --zs 3.03e-308",
    "extended-suita-check --domain annulus:0.2 --weight harmonicre:-1.5 --zs 0.9999",
    "extended-suita-check --domain disc:0.001 --weight harmonicre:3 --zs 0.0009",
    "extended-suita-check --domain annulus:0.2 --weight harmoniclog:511.05 --zs 0.5",
    "extended-suita-check --domain annulus:0.2 --weight harmoniclog:400 --zs 0.21",
    # commands outside all
    "green",
    "capacity",
    "green --domain annulus:0.2",
    "capacity --domain annulus:0.5",
    "bergman",
    "bergman --weight maxpiece:1:0.5",
    "green --domain ellipse:1.2:0.7",
    "green --domain annulus:0.2 --z=-0.4j",
    "suita-check --domain disc:2 --zs 0.5,1.2j,-1.9",
    "bergman --domain disc:0.5 --weight maxpiece:1:0.3 --z 0.2",
    "squeeze-check --domain disc:0.5",
    "squeeze-check --domain annulus:0.2 --ps 0.99999,-0.99999j --no-trend",
    "capacity --domain annulus:0.2 --z 0.2000001",
    "green --domain annulus:0.2 --xi 0.2000001 --z 0.2000001j",
    "suita-check --domain annulus:0.2 --zs 0.2000001,0.99999j",
    "squeeze-check --domain annulus:0.2 --ps 0.2000001,-0.2000001j --no-trend",
    "capacity --domain annulus:2.2e-86 --z 2.2000001e-86",
    "optimal-constant --deltas 4,5,10",
    "ode-check --deltas 1e-6,1e-5,1e-4",
    "residual-measure --t 4.5e15 --psi0s 0.3 --fs one",
    "residual-measure --t 0.01",
]

# paths that neither all nor CI takes
_OTHER_COMMANDS = [
    "green --method nystrom --domain disc --xi 0.5 --z 0.1",
    "green --method nystrom --domain annulus:0.2 --xi 0.5 --z 0.4j",
    "extended-suita-check --weight none --points 1",
]

# every function no command enters, with the reason it stays in src/
_NOT_ENTERED = {
    "bergman.MaxPiece.log_density": "the tests' quadrature oracle for the closed-form moments",
    "cli._default": "runs at import, before any command",
    "domains.Jordan.__repr__": "names a Jordan domain in error messages only",
    "domains.GreenEvaluator._double": "the 2n witness, built only when the n/2 one cannot tell",
    "domains.GreenEvaluator.green": "the tests' route to g; green_record adds log|xi - z| itself",
    "domains.sample_interior": "benchmarks/workloads.py draws its points with it",
    "extension.CutoffFamily.v": "the tests check the anchoring v(t) = t",
    "extension.CutoffFamily.v_second": "the tests check v'' against v'",
    "extension.CutoffFamily.support": "the tests check the support of v''",
    "reports._strict_json": "writes a non-finite float, which no passing run holds",
}


def _definitions() -> dict[str, tuple[str, set[int]]]:
    """``module.qualname`` of every function and method in the package,
    with its file and the lines a code object may report as its first:
    the ``def`` line and each decorator line."""
    found = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    lines = {child.lineno} | {d.lineno for d in child.decorator_list}
                    found[name] = (str(path), lines)
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def _entered(argvs) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object of the package that a
    call entered while ``cli.main`` ran each argv; each must exit 0."""
    # a functools cache filled by an earlier test would hide its function
    for module in (bergman, domains, extension, fuchsian, reports, squeezing, torus, cli):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            exits.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(argvs), list(zip(argvs, exits))
    here = str(_PACKAGE)
    return {
        (os.path.realpath(c.co_filename), c.co_firstlineno)
        for c in codes
        if os.path.realpath(c.co_filename).startswith(here)
    }


def test_every_function_is_entered_or_allowed(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text("1 1.05 0.0\n-1 0.25 0.0\n")
    out = ["--outdir", str(tmp_path / "out")]
    argvs = [["all", "--no-cache", *out], ["all", *out], ["all", *out]]
    argvs += [[*line.split(), "--no-cache", *out] for line in _CI_COMMANDS + _OTHER_COMMANDS]
    argvs.append(["capacity", f"--domain=jordan:{curve}", "--z=0.1", "--no-cache", *out])
    entered = _entered(argvs)
    capsys.readouterr()
    missed = sorted(
        name
        for name, (path, lines) in _definitions().items()
        if not any((path, line) in entered for line in lines)
    )
    assert missed == sorted(_NOT_ENTERED)
