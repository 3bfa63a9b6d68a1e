"""Command-line surface tying the runtime together. Batch only, no daemon."""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import click

from . import agent, domains, evaluation, homology
from .backends import ChatMessage, DecodingParams, HttpChatBackend, ScriptedBackend
from .config import RunConfig, build_config
from .errors import ProtAgentError, parse_file, write_json
from .executor import SessionContext, SessionLimits, ToolCall, build_standard_registry, invoke
from .seq import Sequence, parse_fasta, validate_sequence


def _backend_options(f):
    f = click.option("--backend", type=click.Choice(["remote", "scripted"]), default=None)(f)
    f = click.option("--endpoint", default=None, help="Chat-completion endpoint URL")(f)
    f = click.option("--model", default=None, help="Model name for the remote backend")(f)
    f = click.option("--api-key-env", default=None, help="Environment variable holding the API key")(f)
    f = click.option("--script", default=None, help="Scripted backend replies (JSONL)")(f)
    f = click.option("--temperature", type=float, default=None)(f)
    f = click.option("--max-turns", type=int, default=None)(f)
    f = click.option("--tool-budget", type=int, default=None)(f)
    return f


def _store_options(f):
    f = click.option("--store-fasta", default=None, help="Reference FASTA file")(f)
    f = click.option("--store-annotations", default=None, help="Reference annotations (JSONL)")(f)
    f = click.option("--store-json", default=None, help="Built reference store (from 'index build')")(f)
    f = click.option("--hmm-library", default=None, help="Profile-HMM library file")(f)
    return f


def _read_sequence(sequence: str | None, sequence_file: str | None, seq_id: str = "query") -> Sequence:
    if sequence and sequence_file:
        raise click.ClickException("give either --sequence or --sequence-file, not both")
    if sequence_file:
        sequence = parse_file(sequence_file, parse_fasta)[0].sequence.residues
    if not sequence:
        raise click.ClickException("a sequence is required (--sequence or --sequence-file)")
    return validate_sequence(seq_id, sequence)


def _load_registry(cfg: RunConfig):
    entries = index = annotations = library = None
    if cfg.store_json:
        entries = homology.load_built_store(cfg.store_json)
    elif cfg.store_fasta and cfg.store_annotations:
        entries = homology.load_reference_store(cfg.store_fasta, cfg.store_annotations)
    if entries is not None:
        index = homology.build_index(entries)
        annotations = {e.accession: e.annotation for e in entries}
    if cfg.hmm_library:
        library = parse_file(cfg.hmm_library, domains.parse_hmm_library)
    return build_standard_registry(index=index, annotations=annotations, hmm_library=library)


def _backend_factory(cfg: RunConfig):
    """Returns a zero-arg callable producing a fresh backend per session."""
    cfg.validate()
    if cfg.backend == "remote":
        backend = HttpChatBackend(cfg.endpoint, cfg.model, api_key_env=cfg.api_key_env)
        return lambda: backend
    turns = ScriptedBackend.from_jsonl(cfg.script).turns  # read once: a bad script fails before any session
    return lambda: ScriptedBackend(turns=turns)


def _run_session(paradigm, backend, registry, question, seq, cfg: RunConfig, session_id):
    decoding = DecodingParams(temperature=cfg.temperature, max_tokens=cfg.max_tokens)
    if paradigm == "direct":
        return agent.run_direct(backend, question, seq, decoding, session_id=session_id)
    if paradigm == "rag":
        return agent.run_rag(backend, registry, question, seq, decoding, session_id=session_id)
    return agent.run_tool_agent(
        backend,
        registry,
        question,
        seq,
        decoding,
        limits=SessionLimits(max_calls=cfg.tool_budget),
        max_turns=cfg.max_turns,
        session_id=session_id,
    )


class _ErrorBoundary(click.Group):
    """The CLI's one error path: a ProtAgentError or OSError from any
    command becomes `Error: <message>` on stderr and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ProtAgentError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_ErrorBoundary)
def main():
    """Tool-augmented protein function reasoning agent."""


@main.command()
@click.option("--question", required=True)
@click.option("--sequence", default=None)
@click.option("--sequence-file", default=None)
@click.option("--paradigm", type=click.Choice(["direct", "rag", "tool_agent"]), default="tool_agent")
@click.option("--config", "config_path", default=None)
@click.option("--run-dir", default=None)
@_backend_options
@_store_options
def ask(question, sequence, sequence_file, paradigm, config_path, run_dir, **overrides):
    """Run one question through a paradigm; print the answer and trace path."""
    cfg = build_config(config_path, run_dir=run_dir, **overrides)
    seq = _read_sequence(sequence, sequence_file)
    registry = _load_registry(cfg)
    backend = _backend_factory(cfg)()
    os.makedirs(os.path.join(cfg.run_dir, "traces"), exist_ok=True)
    result = _run_session(paradigm, backend, registry, question, seq, cfg, "ask")
    trace_path = os.path.join(cfg.run_dir, "traces", "ask.json")
    agent.save_trace(result.trace, trace_path)
    click.echo(f"stop_reason: {result.stop_reason}")
    click.echo(f"tool_calls_made: {result.tool_calls_made}")
    click.echo(f"trace: {trace_path}")
    click.echo(result.final_answer if result.final_answer is not None else "(no answer extracted)")
    if result.stop_reason == "backend_error":
        sys.exit(1)


@main.command()
@click.option("--paradigm", type=click.Choice(["direct", "rag", "tool_agent"]), required=True)
@click.option("--cases", "cases_path", required=True)
@click.option("--config", "config_path", default=None)
@click.option("--run-dir", default=None)
@click.option("--workers", type=int, default=None)
@_backend_options
@_store_options
def bench(paradigm, cases_path, config_path, run_dir, workers, **overrides):
    """Run a benchmark file through a paradigm and write traces + report."""
    cfg = build_config(config_path, run_dir=run_dir, workers=workers, **overrides)
    cases = evaluation.load_benchmark(cases_path)
    registry = _load_registry(cfg)
    new_backend = _backend_factory(cfg)
    traces_dir = os.path.join(cfg.run_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    def run_case(case):
        result = _run_session(paradigm, new_backend(), registry, case.question, case.sequence, cfg, case.case_id)
        agent.save_trace(result.trace, os.path.join(traces_dir, f"{case.case_id}.json"))
        return case.case_id, result

    # Every case runs and writes its trace even if another fails; the first
    # failure is raised only once the pool has drained.
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(run_case, case) for case in cases]
    results = dict(f.result() for f in futures)
    report = evaluation.evaluate_run(cases, results)
    write_json(os.path.join(cfg.run_dir, "report.json"), report.to_json())
    table = evaluation.render_report(report)
    with open(os.path.join(cfg.run_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    click.echo(table, nl=False)
    if any(r.stop_reason == "backend_error" for r in results.values()):
        sys.exit(1)


@main.group()
def index():
    """Reference store maintenance."""


@index.command("build")
@click.option("--fasta", required=True)
@click.option("--annotations", required=True)
@click.option("--out", required=True)
def index_build(fasta, annotations, out):
    """Validate FASTA + annotations and write a single-file reference store."""
    entries = homology.load_reference_store(fasta, annotations)
    homology.save_built_store(entries, out)
    click.echo(f"wrote {len(entries)} entries to {out}")


@main.group()
def tools():
    """Direct tool invocation (the debugging path)."""


@tools.command("run")
@click.argument("tool_name")
@click.option("--sequence", default=None)
@click.option("--sequence-file", default=None)
@click.option("--min-seq-id", type=float, default=None)
@click.option("--config", "config_path", default=None)
@_store_options
def tools_run(tool_name, sequence, sequence_file, min_seq_id, config_path, **overrides):
    """Invoke one tool and print its wire payload."""
    cfg = build_config(config_path, **overrides)
    seq = _read_sequence(sequence, sequence_file)
    registry = _load_registry(cfg)
    args = {"sequence_ref": "query"}
    if min_seq_id is not None:
        args["min_seq_id"] = min_seq_id
    ctx = SessionContext(query_sequence=seq)
    response = invoke(registry, ToolCall(call_id="cli", name=tool_name, arguments=args), ctx)
    click.echo(json.dumps(response.payload, ensure_ascii=False, indent=2))
    if not response.ok:
        sys.exit(1)


@main.group()
def trace():
    """Stored trace inspection."""


@trace.command("show")
@click.argument("path")
def trace_show(path):
    """Render a stored trace in the human-readable chat layout."""
    click.echo(agent.render_trace(agent.load_trace(path)), nl=False)


@main.command()
@click.option("--cases", "cases_path", required=True)
@click.option("--out", required=True)
@click.option("--fill", is_flag=True, help="Also call the backend to fill reasoning traces")
@click.option("--config", "config_path", default=None)
@_backend_options
def synth(cases_path, out, fill, config_path, **overrides):
    """Emit cold-start reasoning-trace synthesis prompts for a benchmark file."""
    cfg = build_config(config_path, **overrides)
    cases = evaluation.load_benchmark(cases_path)
    backend = _backend_factory(cfg)() if fill else None
    decoding = DecodingParams(temperature=cfg.temperature, max_tokens=cfg.max_tokens)
    with open(out, "w", encoding="utf-8") as fh:
        for case in cases:
            prompt = evaluation.synth_cold_start_prompt(case)
            row = {"case_id": case.case_id, "prompt": prompt}
            if backend is not None:
                try:
                    reply = backend.complete([ChatMessage(role="user", content=prompt)], None, decoding)
                    row["completion"] = reply.content
                except ProtAgentError as exc:
                    row["completion_error"] = str(exc)
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    click.echo(f"wrote {len(cases)} prompts to {out}")


if __name__ == "__main__":
    main()
