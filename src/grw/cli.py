"""Command-line interface.

Subcommands: ``canon`` (canonical SMILES), ``apply`` (one rule on one
host), ``toychem`` (iterative network expansion), ``rings`` (all simple
cycles), ``ydelta`` (Y-Δ equivalence search), ``life`` (Game of Life),
``sudoku`` (DFS solver).  Exit codes: 0 success, 1 usage error, 2 input
parse error, 3 domain violation.
"""

from __future__ import annotations

import argparse
import logging
import sys
from importlib import resources
from pathlib import Path

from .core import GmlError, disjoint_union, parse_gml_graph, \
    write_gml_graph, connected_components
from .match import canonical_key
from .rules import RuleGraph, apply_all, explore, parse_gml_rule
from . import demos, network
from .chem import (ChemError, GroupRegistry, Molecule, SmilesError, accept_product,
                   all_cycles, check_chem_rule, fill_hydrogens, load_energy_model,
                   parse_gml_groups, parse_smiles, RateParams)

EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_DOMAIN = 0, 1, 2, 3


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """The argparse type of a count option: an integer of at least 0."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, found {text!r}")


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    return p.read_text()


def assets_dir() -> Path:
    return Path(resources.files("grw") / "assets")


def _load_groups(path: str | None) -> GroupRegistry | None:
    if path is None:
        return None
    return parse_gml_groups(_read_text(path))


def _read_smiles(text: str, groups: GroupRegistry | None) -> list[tuple[str, Molecule]]:
    """The molecules of a SMILES argument, filled, then checked and named as
    a rule's product is: ``(canonical SMILES, molecule)`` each."""
    return [accept_product(fill_hydrogens(m)) for m in parse_smiles(text, groups)]


def _rule_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.gml")))
        elif p.is_file():
            paths.append(p)
        else:
            raise UsageError(f"no such rule file or directory: {spec}")
    if not paths:
        raise UsageError("no rule files found")
    return paths


def _load_chem_rules(specs: list[str]) -> list[RuleGraph]:
    rules = []
    for path in _rule_paths(specs):
        rule = parse_gml_rule(path.read_text())
        violations, normalized = check_chem_rule(rule)
        if violations:
            raise DomainError(
                f"{path}: " + "; ".join(str(v) for v in violations))
        rules.append(normalized)
    return rules


# -- subcommands --------------------------------------------------------------

def _cmd_canon(args) -> int:
    groups = _load_groups(args.groups)
    for text in args.smiles:
        print(".".join(sorted(name for name, _ in _read_smiles(text, groups))))
    return EXIT_OK


def _cmd_apply(args) -> int:
    rule = parse_gml_rule(_read_text(args.rule))
    if args.smiles is not None:
        violations, rule = check_chem_rule(rule)
        if violations:
            raise DomainError("; ".join(str(v) for v in violations))
        groups = _load_groups(args.groups)
        host, _ = disjoint_union([m.graph for _, m in _read_smiles(args.smiles, groups)])
    else:
        host = parse_gml_graph(_read_text(args.graph))

    results = apply_all(rule, host, dedup=args.dedup)
    if not args.all:
        results = results[:1]
    if not results:
        print("no match", file=sys.stderr)
        return EXIT_DOMAIN

    for res in results:
        if args.smiles is not None and args.format != "gml":
            canons = [accept_product(Molecule(comp, {}, filled=True))[0]
                      for comp, _ in connected_components(res.graph)]
            print(".".join(sorted(canons)))
        else:
            sys.stdout.write(write_gml_graph(res.graph))
    return EXIT_OK


def _cmd_toychem(args) -> int:
    rules = _load_chem_rules(args.rules)
    groups = _load_groups(args.groups)
    seeds = [m for text in args.smiles for _, m in _read_smiles(text, groups)]
    try:
        model = load_energy_model(_read_text(args.energy)) if args.energy else None
    except ChemError as exc:  # a malformed file, like a malformed rule file
        raise ParseError(str(exc)) from exc
    try:
        cfg = network.ExpansionConfig(
            iterations=args.iter,
            max_atoms=args.max_atoms,
            rate_params=RateParams() if args.temp is None else RateParams(T=args.temp),
            energy_model=model,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    net = network.expand(seeds, rules, cfg)
    print("iter\tmolecules\treactions\tseconds")
    for i, mols, rxns in net.stats():
        print(f"{i}\t{mols}\t{rxns}\t{net.elapsed.get(i, 0.0):.3f}")
    if args.dot:
        Path(args.dot).write_text(network.to_dot(net))
    if args.gml:
        Path(args.gml).write_text(network.to_gml(net))
    return EXIT_OK


def _cmd_rings(args) -> int:
    g = parse_gml_graph(_read_text(args.graph))
    for cycle in all_cycles(g, args.max):
        print(" ".join(str(g.ext_ids[v]) for v in cycle))
    return EXIT_OK


def _cmd_ydelta(args) -> int:
    a = parse_gml_graph(_read_text(args.a))
    b = parse_gml_graph(_read_text(args.b))
    base = Path(args.assets) if args.assets else assets_dir()
    rules = [parse_gml_rule((base / name).read_text())
             for name in ("wye_to_delta.gml", "delta_to_wye.gml")]
    seen_a = explore([a], rules, strategy="bfs", depth=args.depth,
                     key=canonical_key).visited
    seen_b = explore([b], rules, strategy="bfs", depth=args.depth,
                     key=canonical_key).visited
    if set(seen_a) & set(seen_b):
        print("EQUIVALENT")
    else:
        print(f"NOT EQUIVALENT within depth {args.depth}")
    return EXIT_OK


def _parse_cells(specs: list[str]) -> set[tuple[int, int]]:
    cells = set()
    for spec in specs:
        for part in spec.replace(";", " ").split():
            try:
                r, c = part.split(",")
                cells.add((int(r), int(c)))
            except ValueError:
                raise UsageError(f"bad cell {part!r}; expected ROW,COL")
    return cells


def _cmd_life(args) -> int:
    try:
        w, h = (int(x) for x in args.grid.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad grid {args.grid!r}; expected WxH")
    alive = _parse_cells(args.alive or [])
    for r, c in alive:
        if not (0 <= r < h and 0 <= c < w):
            raise UsageError(f"cell ({r},{c}) outside {w}x{h} grid")
    base = Path(args.assets) if args.assets else assets_dir()
    rules = [parse_gml_rule((base / name).read_text())
             for name in ("life_birth.gml", "life_death.gml")]
    try:
        g = demos.grid_graph(w, h, alive, torus=args.torus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for step in range(args.steps):
        g = demos.life_step(g, rules)
        if args.trace:
            print(f"step {step + 1}:")
            print(demos.render_grid(g, w, h))
    if not args.trace:
        print(demos.render_grid(g, w, h))
    return EXIT_OK


def _cmd_sudoku(args) -> int:
    try:
        g = demos.sudoku_graph(_read_text(args.grid))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    solved = demos.solve_sudoku(g)
    if solved is None:
        print("no solution", file=sys.stderr)
        return EXIT_DOMAIN
    print(demos.render_sudoku(solved))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="grw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical SMILES of molecules")
    p.add_argument("smiles", nargs="+")
    p.add_argument("--groups", help="group registry GML file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("apply", help="apply one rule to one host graph")
    p.add_argument("--rule", required=True, help="rule GML file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="host graph GML file")
    src.add_argument("--smiles", help="host molecules as dot-joined SMILES")
    p.add_argument("--all", action="store_true", help="print every match result")
    p.add_argument("--dedup", action="store_true",
                   help="drop isomorphic duplicate results")
    p.add_argument("--format", choices=("smiles", "gml"), default="smiles")
    p.add_argument("--groups", help="group registry GML file")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("toychem", help="expand a reaction network")
    p.add_argument("--rules", nargs="+", required=True,
                   help="rule GML files or directories")
    p.add_argument("--smiles", nargs="+", required=True, help="seed molecules")
    p.add_argument("--iter", type=int, required=True)
    p.add_argument("--energy", help="energy model file (fragment<TAB>value)")
    p.add_argument("--temp", type=float, help="temperature in kelvin")
    p.add_argument("--max-atoms", type=int, default=None)
    p.add_argument("--groups", help="group registry GML file")
    p.add_argument("--dot", help="write DOT network here")
    p.add_argument("--gml", help="write GML network here")
    p.set_defaults(func=_cmd_toychem)

    p = sub.add_parser("rings", help="enumerate all simple cycles")
    p.add_argument("--graph", required=True, help="graph GML file")
    p.add_argument("--max", type=_count, default=None, help="maximum ring size")
    p.set_defaults(func=_cmd_rings)

    p = sub.add_parser("ydelta", help="Y-Δ equivalence by bounded BFS")
    p.add_argument("--a", required=True, help="first graph GML file")
    p.add_argument("--b", required=True, help="second graph GML file")
    p.add_argument("--depth", type=_count, default=3)
    p.add_argument("--assets", help="directory holding the Y-Δ rule files")
    p.set_defaults(func=_cmd_ydelta)

    p = sub.add_parser("life", help="Game of Life on a grid graph")
    p.add_argument("--grid", required=True, help="dimensions WxH")
    p.add_argument("--alive", nargs="*", help="alive cells as ROW,COL")
    p.add_argument("--steps", type=_count, default=1)
    p.add_argument("--torus", action="store_true", help="wrap at the borders")
    p.add_argument("--trace", action="store_true", help="print every step")
    p.add_argument("--assets", help="directory holding the Life rule files")
    p.set_defaults(func=_cmd_life)

    p = sub.add_parser("sudoku", help="solve a Sudoku puzzle file")
    p.add_argument("--grid", required=True, help="81-cell puzzle file")
    p.set_defaults(func=_cmd_sudoku)

    parser.add_argument("--verbose", action="store_true",
                        help="log progress (iteration lines) to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr, format="%(message)s",
            level=logging.INFO if args.verbose else logging.WARNING)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GmlError, SmilesError, ParseError) as exc:  # a SmilesError is a ChemError too
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ChemError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
