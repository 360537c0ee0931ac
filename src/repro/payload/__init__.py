"""Declarative attack-payload DSL: patterns as data, not code.

The pipeline::

    text/JSON --parse--> Program --resolve--> Program (no placeholders)
              --compile--> CompiledPayload --execute--> ExecutionResult

See :mod:`repro.payload.program` for the model, and the ``payload``
subcommand of ``python -m repro`` for the CLI.
"""

from repro.payload.builders import (
    DEFAULT_REPEATS,
    TEMPLATES,
    build_template,
    double_sided_program,
    many_sided_program,
    one_location_program,
    plan_repeats,
    program_from_plan,
    single_sided_program,
)
from repro.payload.compiler import (
    MAX_LOOP_DEPTH,
    MAX_OPERAND,
    CompileError,
    CompiledPayload,
    Instr,
    OpCode,
    compile_program,
)
from repro.payload.executor import (
    DEFAULT_INTERPRET_BUDGET,
    ExecutionError,
    ExecutionResult,
    execute_payload,
    run_payload,
)
from repro.payload.parser import ParseError, format_program, parse_program
from repro.payload.program import (
    Act,
    Label,
    Loop,
    PayloadError,
    Pre,
    Program,
    Read,
    Refresh,
    Step,
    SyncRefresh,
    Wait,
)
from repro.payload.resolver import (
    SyncRefreshError,
    UnboundPlaceholderError,
    apply_sync_refresh,
    recon_bindings,
    resolve_program,
)

__all__ = [
    "Act",
    "CompileError",
    "CompiledPayload",
    "DEFAULT_INTERPRET_BUDGET",
    "DEFAULT_REPEATS",
    "ExecutionError",
    "ExecutionResult",
    "Instr",
    "Label",
    "Loop",
    "MAX_LOOP_DEPTH",
    "MAX_OPERAND",
    "OpCode",
    "ParseError",
    "PayloadError",
    "Pre",
    "Program",
    "Read",
    "Refresh",
    "Step",
    "SyncRefresh",
    "SyncRefreshError",
    "TEMPLATES",
    "UnboundPlaceholderError",
    "Wait",
    "apply_sync_refresh",
    "build_template",
    "compile_program",
    "double_sided_program",
    "execute_payload",
    "format_program",
    "many_sided_program",
    "one_location_program",
    "parse_program",
    "plan_repeats",
    "program_from_plan",
    "recon_bindings",
    "resolve_program",
    "run_payload",
    "single_sided_program",
]
