"""Command line interface.

Subcommands: cards lint, route, eval, report, bank show, bank correct.
Machine-consumable output goes to standard output, diagnostics to standard
error. Exit codes: 0 success, 1 domain failure (lint findings, coverage or
stale-trust failures), 2 usage or configuration error, 3 I/O or backend
error.

Configuration precedence is built-in defaults, then the --config file, then
explicit flags.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from mesa.backend import (
    CachedBackend,
    ModelBackend,
    RemoteBackend,
    RemoteConfig,
    ScriptedBackend,
    load_script,
)
from mesa.bank import BankConfig, apply_updates, hypercorrection_updates, read_bank
from mesa.bench import (
    CONDITIONS,
    Condition,
    condition_by_name,
    emit_report,
    load_suite,
    parse_report,
    run_matrix,
)
from mesa.cards import CardRegistry, lint_cards, load_registry
from mesa.codec import read_input
from mesa.context import Attachment, TaskContext
from mesa.errors import (
    ConfigFileError,
    CoverageError,
    MesaError,
    StaleTrustError,
)
from mesa.router import RoutingConfig, context_for_item, decide

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_IO = 3

_VERBOSITY_LEVELS = {
    0: logging.ERROR,
    1: logging.WARNING,
    2: logging.INFO,
    3: logging.DEBUG,
}


class _Parser(argparse.ArgumentParser):
    """argparse with 'unknown subcommand' wording for bad command names."""

    def error(self, message: str):
        if "invalid choice" in message:
            message = message.replace("invalid choice", "unknown subcommand")
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Configuration file


_CONFIGS = (RoutingConfig, BankConfig)  # _load_settings' result order
# Every config field is a key; its annotation ("float" or "bool") says how to parse it.
_KEY_TYPES = {f.name: f.type for cls in _CONFIGS for f in fields(cls)}
# mesa route's --alpha, --lambda and --trust-gate: each dest is a RoutingConfig field.
_ROUTE_OVERRIDES = ("alpha", "cost_lambda", "trust_gate")


def _parse_config_file(path: str) -> dict[str, object]:
    """Flat key=value file; blank lines and # comments allowed."""
    text = read_input(path, ConfigFileError, "config")
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = key.strip(), raw.strip()
        key_type = _KEY_TYPES.get(key)
        if key_type == "float":
            try:
                values[key] = float(raw)
            except ValueError:
                raise ConfigFileError(
                    f"{path}:{lineno}: {key} needs a number, got {raw!r}"
                ) from None
        elif key_type == "bool":
            if raw.lower() not in ("true", "false"):
                raise ConfigFileError(
                    f"{path}:{lineno}: {key} needs true or false, got {raw!r}"
                )
            values[key] = raw.lower() == "true"
        else:
            raise ConfigFileError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def _load_settings(config_path: str | None) -> tuple[RoutingConfig, BankConfig]:
    values = _parse_config_file(config_path) if config_path else {}
    try:
        return tuple(
            cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
            for cls in _CONFIGS
        )
    except ValueError as exc:
        raise ConfigFileError(f"{config_path}: {exc}") from exc


def _use_color(mode: str, stream) -> bool:
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_cards_lint(args: argparse.Namespace) -> int:
    registry = load_registry(args.path)
    routing, _ = _load_settings(args.config)
    findings = lint_cards(registry, trust_gate=routing.trust_gate)
    color = _use_color(args.color, sys.stdout)
    for diag in findings:
        line = diag.render()
        if color:
            line = f"{diag.card_id}:{_paint(diag.code, '31', True)}:{diag.message}"
        print(line)
    log.info("%d card(s), %d finding(s)", len(list(registry)), len(findings))
    return EXIT_DOMAIN if findings else EXIT_OK


def _build_backend(
    args: argparse.Namespace, suite_items, parser: argparse.ArgumentParser
) -> ModelBackend:
    if args.backend == "scripted":
        if not args.script or suite_items is None:
            parser.error("--backend scripted requires --script and --suite")
        script = load_script(args.script)
        return ScriptedBackend(script, suite_items, args.condition)
    if args.backend == "cached":
        if not args.cache:
            parser.error("--backend cached requires --cache")
        return CachedBackend(None, args.cache)
    if not (args.endpoint and args.model and args.auth_env):
        parser.error("--backend remote requires --endpoint, --model, and --auth-env")
    try:
        config = RemoteConfig(
            endpoint=args.endpoint, auth_env=args.auth_env, model=args.model, timeout_s=args.timeout
        )
    except ValueError as exc:  # RemoteConfig names the field it rejects first
        flag = "--endpoint" if str(exc).startswith("endpoint") else "--timeout"
        parser.error(f"{flag}: {exc}")
    return RemoteBackend(config)


def _cmd_route(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg, _ = _load_settings(args.config)
    flags = vars(args)
    try:
        cfg = replace(cfg, **{k: flags[k] for k in _ROUTE_OVERRIDES if flags[k] is not None})
    except ValueError as exc:
        parser.error(str(exc))
    try:
        condition: Condition = condition_by_name(args.condition)
    except ValueError as exc:
        parser.error(str(exc))

    registry = load_registry(args.cards)
    attachments = []
    for spec_str in args.attach:
        mime, sep, size = spec_str.partition(":")
        try:
            attachments.append(
                Attachment(mime_tag=mime, bytes_len=int(size) if sep else 0)
            )
        except ValueError as exc:
            parser.error(f"--attach {spec_str!r} is not MIME[:BYTES]: {exc}")
    if not args.prompt:
        parser.error("--prompt must be non-empty")
    ctx = TaskContext(
        prompt=args.prompt,
        kind_tags=frozenset(args.kind_tag),
        attachments=tuple(attachments),
    )

    suite_items = None
    allowed = None
    if args.suite:
        suite_items = load_suite(args.suite, registry, expected_per_slice=None)
        # When the prompt names a suite item, mirror the harness: route that
        # item's context, with only its injected cards active.
        for item in suite_items:
            if item.prompt == args.prompt:
                allowed = item.injected_card_ids
                ctx = context_for_item(item)
                dropped = [
                    flag
                    for flag, given in (("--kind-tag", args.kind_tag), ("--attach", args.attach))
                    if given
                ]
                if dropped:
                    log.warning(
                        "suite item %s supplies the task context; ignoring %s",
                        item.id,
                        " and ".join(dropped),
                    )
                break
    backend = _build_backend(args, suite_items, parser)

    decisions, _ = decide(ctx, registry, backend, cfg, condition, allowed)
    decision = decisions[-1]

    color = _use_color(args.color, sys.stdout)
    chosen = decision.chosen.variant.value
    if decision.chosen.card_id:
        chosen = f"{chosen} {decision.chosen.card_id}"
    print(f"chosen: {_paint(chosen, '32', color)}")
    for key in sorted(decision.scores):
        print(f"score {key}: {decision.scores[key]:.6f}")
    print(f"gated: {' '.join(decision.gated_cards)}")
    for trace in decisions[0].probe_traces:
        log.info(
            "probe %s: stage=%s passed=%s cost=%.2f",
            trace.card_id,
            trace.stage.value,
            trace.passed,
            trace.probe_cost_charged,
        )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg, _ = _load_settings(args.config)
    if args.conditions:
        names = [name.strip() for name in args.conditions.split(",") if name.strip()]
        try:
            conditions = tuple(condition_by_name(name) for name in names)
        except ValueError as exc:
            parser.error(str(exc))
        if not conditions:
            parser.error("--conditions must name at least one condition")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            parser.error(f"--conditions names {repeated[0]!r} more than once")
    else:
        conditions = CONDITIONS

    registry = load_registry(args.cards)
    expected = args.expected_per_slice if args.expected_per_slice > 0 else None
    suite = load_suite(args.suite, registry, expected_per_slice=expected)
    script = load_script(args.script)
    table = run_matrix(suite, registry, script, conditions, cfg)
    rendered = emit_report(table, args.format)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        log.info("wrote %s report to %s", args.format, args.out)
    else:
        sys.stdout.write(rendered)
    incorrect = sum(1 for it in table.items if it.outcome != "correct")
    log.info(
        "%d condition(s), %d trajectories, %d graded incorrect",
        len(conditions),
        len(table.items),
        incorrect,
    )
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    table = parse_report(read_input(args.infile, MesaError, "report"))
    rendered = emit_report(table, args.format)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _cmd_bank_show(args: argparse.Namespace) -> int:
    entries = read_bank(args.path)
    for entry in entries:
        rec = entry.trajectory
        card = entry.implicated_card or "-"
        print(
            f"[{entry.recorded_at}] {rec.item_id} {rec.condition} "
            f"{rec.final_answer_class.value} {rec.outcome.value} "
            f"terminal={rec.terminal_confidence:.2f} card={card}"
        )
    log.info("%d entr%s", len(entries), "y" if len(entries) == 1 else "ies")
    return EXIT_OK


def _cmd_bank_correct(args: argparse.Namespace) -> int:
    _, bank_cfg = _load_settings(args.config)
    entries = read_bank(args.bank)
    registry = load_registry(args.cards)
    updates = hypercorrection_updates(entries, bank_cfg, registry)
    for update in updates:
        print(
            f"{update.card_id}: {update.old_trust:.6f} -> {update.new_trust:.6f} "
            f"({update.reason})"
        )
    if args.dry_run:
        log.info("dry run: %d update(s) not applied", len(updates))
        return EXIT_OK
    if updates:
        apply_updates(args.cards, updates)
    log.info("applied %d update(s) to %s", len(updates), args.cards)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and dispatch


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mesa",
        description=(
            "Metacognitive routing engine: decide per task whether to answer, "
            "call a tool, load a skill, verify, or stop."
        ),
    )
    parser.add_argument(
        "--verbosity",
        type=int,
        choices=(0, 1, 2, 3),
        default=1,
        help="0 errors only, 1 warnings, 2 info, 3 debug (default 1)",
    )
    parser.add_argument(
        "--color",
        choices=("auto", "always", "never"),
        default="auto",
        help="colorize human-facing output (default auto)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="flat key=value file overriding scoring and bank defaults",
    )
    commands = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    commands.required = True

    cards = commands.add_parser("cards", help="card registry tooling")
    cards_sub = cards.add_subparsers(dest="cards_command", metavar="subcommand", parser_class=_Parser)
    cards_sub.required = True
    lint = cards_sub.add_parser("lint", help="diagnose suspicious cards")
    lint.add_argument("path", help="card registry JSON file")

    route = commands.add_parser("route", help="route a single prompt")
    route.add_argument("--cards", required=True, help="card registry JSON file")
    route.add_argument(
        "--backend",
        required=True,
        choices=("scripted", "cached", "remote"),
        help="signal source for confidences and probes",
    )
    route.add_argument("--prompt", required=True, help="task prompt text")
    route.add_argument("--alpha", type=float, default=None, help="self-weight override")
    route.add_argument(
        "--lambda",
        dest="cost_lambda",
        type=float,
        default=None,
        help="cost-penalty override",
    )
    route.add_argument(
        "--trust-gate", type=float, default=None, help="vigilance gate override"
    )
    route.add_argument(
        "--condition",
        default="full",
        help="mechanism toggles to route under (default full)",
    )
    route.add_argument(
        "--kind-tag",
        action="append",
        default=[],
        help="kind tag for the task context (repeatable)",
    )
    route.add_argument(
        "--attach",
        action="append",
        default=[],
        metavar="MIME[:BYTES]",
        help="attachment descriptor (repeatable)",
    )
    route.add_argument("--script", default=None, help="behavior script (scripted backend)")
    route.add_argument(
        "--suite",
        default=None,
        help="suite whose item (matched by prompt) supplies context and cards",
    )
    route.add_argument("--cache", default=None, help="replay cache (cached backend)")
    route.add_argument("--endpoint", default=None, help="remote chat endpoint URL")
    route.add_argument("--model", default=None, help="remote model identifier")
    route.add_argument(
        "--auth-env", default=None, help="environment variable holding the API token"
    )
    route.add_argument(
        "--timeout",
        type=float,
        default=RemoteConfig.timeout_s,
        help="remote request timeout seconds",
    )

    evaluate = commands.add_parser("eval", help="run the benchmark matrix")
    evaluate.add_argument("--suite", required=True, help="benchmark suite JSON file")
    evaluate.add_argument("--cards", required=True, help="card registry JSON file")
    evaluate.add_argument("--script", required=True, help="behavior script JSON file")
    evaluate.add_argument(
        "--conditions",
        default=None,
        help="comma-separated condition names (default: all seven)",
    )
    evaluate.add_argument("--out", default=None, help="write the report here instead of stdout")
    evaluate.add_argument(
        "--format",
        choices=("text", "csv", "machine"),
        default="text",
        help="report format (default text)",
    )
    evaluate.add_argument(
        "--expected-per-slice",
        type=int,
        default=50,
        help="enforced items per slice; 0 disables the check (default 50)",
    )

    report = commands.add_parser("report", help="re-render a saved machine report")
    report.add_argument("--in", dest="infile", required=True, help="machine report file")
    report.add_argument(
        "--format",
        choices=("text", "csv", "machine"),
        default="text",
        help="output format (default text)",
    )
    report.add_argument("--out", default=None, help="write here instead of stdout")

    bank = commands.add_parser("bank", help="high-confidence failure bank tooling")
    bank_sub = bank.add_subparsers(dest="bank_command", metavar="subcommand", parser_class=_Parser)
    bank_sub.required = True
    show = bank_sub.add_parser("show", help="list bank entries")
    show.add_argument("path", help="bank file (JSON lines)")
    correct = bank_sub.add_parser(
        "correct", help="compute and apply hypercorrection trust updates"
    )
    correct.add_argument("--bank", required=True, help="bank file (JSON lines)")
    correct.add_argument("--cards", required=True, help="card registry to update")
    correct.add_argument(
        "--dry-run", action="store_true", help="print updates without applying them"
    )

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv, run one subcommand, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=_VERBOSITY_LEVELS[args.verbosity],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "cards":
            return _cmd_cards_lint(args)
        if args.command == "route":
            return _cmd_route(args, parser)
        if args.command == "eval":
            return _cmd_eval(args, parser)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "bank":
            if args.bank_command == "show":
                return _cmd_bank_show(args)
            return _cmd_bank_correct(args)
        parser.error(f"unknown subcommand {args.command!r}")
    except SystemExit as exc:  # parser.error inside a command handler
        return int(exc.code or 0)
    except ConfigFileError as exc:
        print(f"mesa: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CoverageError, StaleTrustError) as exc:
        print(f"mesa: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MesaError as exc:
        print(f"mesa: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"mesa: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError("unreachable")


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
