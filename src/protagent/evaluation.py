"""Recall-based evaluation: ROUGE-1/ROUGE-L recall over benchmark runs.

Tokenization is lowercase with splits on any maximal run of
non-alphanumeric characters, applied identically to reference and
prediction. ROUGE-1 recall uses clipped unigram counts; ROUGE-L recall is
LCS length over token sequences divided by the reference token count.
Cases with no extracted answer score 0 on both metrics.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .agent import SessionResult
from .errors import SchemaError, check_unique, read_jsonl, to_json
from .seq import Sequence, validate_sequence
from .templates import COLD_START_TEMPLATE

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_CASE_FIELDS = ("case_id", "task", "question", "sequence", "reference_answer")


@dataclass(frozen=True)
class QaCase:
    case_id: str
    task: str
    question: str
    sequence: Sequence
    reference_answer: str

    def __post_init__(self):
        if not _TOKEN_RE.search(self.reference_answer.lower()):
            raise SchemaError(f"case {self.case_id!r}: reference_answer has no word ROUGE can score ([a-z0-9]+)")


@dataclass(frozen=True)
class ScoredCase:
    case_id: str
    task: str
    prediction: str | None
    rouge1_recall: float
    rougeL_recall: float
    stop_reason: str
    tool_calls_made: int


@dataclass(frozen=True)
class EvalReport:
    per_task: dict[str, dict]  # task -> {"rouge1", "rougeL", "cases"}
    overall_rouge1: float
    overall_rougeL: float
    case_count: int
    failure_count: int
    scored: tuple[ScoredCase, ...]

    def to_json(self) -> dict:
        return {
            "per_task": self.per_task,
            "overall": {"rouge1": self.overall_rouge1, "rougeL": self.overall_rougeL},
            "case_count": self.case_count,
            "failure_count": self.failure_count,
            "cases": to_json(self.scored),
        }


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def rouge1_recall(reference: str, prediction: str) -> float:
    """Clipped unigram coverage of the reference."""
    ref_tokens = tokenize(reference)
    if not ref_tokens:
        raise SchemaError("reference tokenizes to nothing")
    ref_counts = Counter(ref_tokens)
    pred_counts = Counter(tokenize(prediction))
    covered = sum(min(n, pred_counts[tok]) for tok, n in ref_counts.items())
    return covered / len(ref_tokens)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Classic dynamic-programming LCS over token lists."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rougeL_recall(reference: str, prediction: str) -> float:
    """LCS(reference, prediction) normalized by reference token count."""
    ref_tokens = tokenize(reference)
    if not ref_tokens:
        raise SchemaError("reference tokenizes to nothing")
    return lcs_length(ref_tokens, tokenize(prediction)) / len(ref_tokens)


def load_benchmark(path: str) -> list[QaCase]:
    """One JSON object per line: case_id, task, question, sequence, reference_answer.

    Besides read_jsonl's checks, a field that is missing or not a string, a
    case_id that is not a safe file name (traces are written to
    `traces/<case_id>.json`), a repeated case_id and a case that fails its
    own checks (sequence id and residues, a reference ROUGE can score) all raise
    SchemaError naming the 1-based line.
    """
    first_line: dict[str, str] = {}

    def parse(line_no: int, obj: dict) -> QaCase:
        bad = [k for k in _CASE_FIELDS if not isinstance(obj.get(k), str)]
        if bad:
            raise SchemaError(f"field(s) {', '.join(bad)} missing or not strings")
        case_id = obj["case_id"]
        if case_id in ("", ".", "..") or any(c in case_id for c in "/\\\0"):
            raise SchemaError(f"case_id {case_id!r} is not a safe file name")
        check_unique(first_line, case_id, f"on line {line_no}", "case_id")
        fields = {k: obj[k] for k in _CASE_FIELDS}
        fields["sequence"] = validate_sequence(case_id, obj["sequence"])
        return QaCase(**fields)

    return read_jsonl(path, "benchmark", parse)


def evaluate_run(cases: list[QaCase], results: dict[str, SessionResult]) -> EvalReport:
    """Score one paradigm run; per-task means plus an unweighted overall mean."""
    extra = set(results) - {c.case_id for c in cases}
    if extra:
        raise SchemaError(f"results for unknown case(s): {', '.join(sorted(extra))}")
    scored = []
    failures = 0
    for case in cases:
        if case.case_id not in results:
            raise SchemaError(f"no session result for case {case.case_id!r}")
        result = results[case.case_id]
        if result.final_answer is None:
            failures += 1
            r1 = rl = 0.0
        else:
            r1 = rouge1_recall(case.reference_answer, result.final_answer)
            rl = rougeL_recall(case.reference_answer, result.final_answer)
        scored.append(
            ScoredCase(
                case_id=case.case_id,
                task=case.task,
                prediction=result.final_answer,
                rouge1_recall=r1,
                rougeL_recall=rl,
                stop_reason=result.stop_reason,
                tool_calls_made=result.tool_calls_made,
            )
        )
    per_task: dict[str, dict] = {}
    for task in sorted({s.task for s in scored}):
        task_scores = [s for s in scored if s.task == task]
        per_task[task] = {
            "rouge1": sum(s.rouge1_recall for s in task_scores) / len(task_scores),
            "rougeL": sum(s.rougeL_recall for s in task_scores) / len(task_scores),
            "cases": len(task_scores),
        }
    n_tasks = len(per_task)
    return EvalReport(
        per_task=per_task,
        overall_rouge1=sum(t["rouge1"] for t in per_task.values()) / n_tasks if n_tasks else 0.0,
        overall_rougeL=sum(t["rougeL"] for t in per_task.values()) / n_tasks if n_tasks else 0.0,
        case_count=len(scored),
        failure_count=failures,
        scored=tuple(scored),
    )


def render_report(report: EvalReport) -> str:
    """Plain-text table: one row per task plus the unweighted average row."""
    rows = [("Task", "ROUGE-1", "ROUGE-L", "Cases")]
    for task, stats in report.per_task.items():
        rows.append((task, f"{stats['rouge1'] * 100:.2f}", f"{stats['rougeL'] * 100:.2f}", str(stats["cases"])))
    rows.append(("Avg.", f"{report.overall_rouge1 * 100:.2f}", f"{report.overall_rougeL * 100:.2f}", str(report.case_count)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    lines.append(f"failures (no extracted answer): {report.failure_count}")
    return "\n".join(lines) + "\n"


def synth_cold_start_prompt(case: QaCase) -> str:
    """Instantiate the cold-start reasoning-trace synthesis prompt."""
    return COLD_START_TEMPLATE.format(
        question=case.question, sequence=case.sequence.residues, answer=case.reference_answer
    )
